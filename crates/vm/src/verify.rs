//! Static bytecode verification, including the §5.1 security-region
//! rules.
//!
//! The paper's prototype "requires programs to adhere to" the
//! local-variable restrictions; a production implementation "could
//! decouple security regions from methods by enforcing local variable
//! restrictions as part of bytecode verification". This module is that
//! production verifier:
//!
//! * structural checks — every id in range, jump targets valid,
//!   consistent stack depths (via [`crate::absint`]);
//! * region-method rules — a security-region body (1) returns no value,
//!   (2) is entered only via `CallSecure`, and (3) *dereferences* its
//!   parameters but never reads or writes the reference values
//!   themselves (`obj.f` is allowed; `if (obj == null)` is not).

use crate::absint::{analyze, AbsStacks, AbsVal};
use crate::bytecode::Instr;
use crate::error::{VmError, VmResult};
use crate::program::{Function, Program};

/// Verifies a whole program.
///
/// # Errors
///
/// [`VmError::Verify`] describing the first violation found.
pub fn verify(program: &Program) -> VmResult<()> {
    verify_tables(program, usize::from(program.tags_used))?;
    for func in &program.functions {
        verify_function(program, func)?;
    }
    Ok(())
}

/// The program-wide half of [`verify`]: every region spec, static and
/// pair spec names an existing pair spec, catch function and one of the
/// first `ntags` runtime tags. [`crate::Vm::new`] runs this against the
/// tag table it is given; function bodies are checked as they compile.
pub(crate) fn verify_tables(program: &Program, ntags: usize) -> VmResult<()> {
    for (i, spec) in program.pair_specs.iter().enumerate() {
        if spec.secrecy.iter().chain(&spec.integrity).any(|&t| usize::from(t) >= ntags) {
            return Err(VmError::Verify(format!(
                "pair spec {i} references a missing tag"
            )));
        }
    }
    for (spec_i, spec) in program.region_specs.iter().enumerate() {
        if spec.pair.0 as usize >= program.pair_specs.len() {
            return Err(VmError::Verify(format!(
                "region spec {spec_i} references missing pair spec"
            )));
        }
        if spec.caps.iter().any(|&(t, _)| usize::from(t) >= ntags) {
            return Err(VmError::Verify(format!(
                "region spec {spec_i} grants a capability for a missing tag"
            )));
        }
        if let Some(catch) = spec.catch {
            let f = program
                .functions
                .get(catch.0 as usize)
                .ok_or_else(|| VmError::Verify("missing catch function".into()))?;
            if f.returns {
                return Err(VmError::Verify(format!(
                    "catch block {} must not return a value",
                    f.name
                )));
            }
        }
    }
    for (i, st) in program.statics.iter().enumerate() {
        if let Some(spec) = st.labels {
            if spec.0 as usize >= program.pair_specs.len() {
                return Err(VmError::Verify(format!(
                    "static {i} references missing pair spec"
                )));
            }
        }
    }
    Ok(())
}

/// Verifies one function body and returns its abstract stacks (which
/// the barrier planner reuses).
pub(crate) fn verify_function(program: &Program, func: &Function) -> VmResult<AbsStacks> {
    if func.locals < func.params {
        return Err(VmError::Verify(format!(
            "{} has fewer local slots than parameters",
            func.name
        )));
    }
    if func.region && func.returns {
        // Rule (1) of §5.1: a region method does not return a value.
        return Err(VmError::Verify(format!(
            "security region {} must not return a value",
            func.name
        )));
    }

    // Structural checks that don't need the abstract stacks.
    for (pc, i) in func.body.iter().enumerate() {
        let err =
            |msg: String| Err(VmError::Verify(format!("{}:{pc}: {msg}", func.name)));
        match i {
            Instr::Load(l) | Instr::Store(l) if *l >= func.locals => {
                return err(format!("local {l} out of range"));
            }
            Instr::NewObject(c) | Instr::NewObjectLabeled(c, _) => {
                if c.0 as usize >= program.classes.len() {
                    return err("unknown class".into());
                }
                if let Instr::NewObjectLabeled(_, p) = i {
                    if p.0 as usize >= program.pair_specs.len() {
                        return err("unknown pair spec".into());
                    }
                }
            }
            Instr::NewArrayLabeled(p) | Instr::CopyAndLabel(p)
                if p.0 as usize >= program.pair_specs.len() =>
            {
                return err("unknown pair spec".into());
            }
            Instr::GetStatic(s) | Instr::PutStatic(s)
                if s.0 as usize >= program.statics.len() =>
            {
                return err("unknown static".into());
            }
            Instr::Call(f) => {
                let callee = match program.functions.get(f.0 as usize) {
                    Some(c) => c,
                    None => return err("unknown function".into()),
                };
                if callee.region {
                    return err(format!(
                        "security region {} may only be entered via CallSecure",
                        callee.name
                    ));
                }
            }
            Instr::CallSecure(f, r) => {
                let callee = match program.functions.get(f.0 as usize) {
                    Some(c) => c,
                    None => return err("unknown function".into()),
                };
                if !callee.region {
                    return err(format!(
                        "CallSecure target {} is not a security region",
                        callee.name
                    ));
                }
                if r.0 as usize >= program.region_specs.len() {
                    return err("unknown region spec".into());
                }
            }
            Instr::OsWriteByte(s) | Instr::OsReadByte(s)
                if s.0 as usize >= program.strings.len() =>
            {
                return err("unknown string".into());
            }
            _ => {}
        }
    }

    // Abstract interpretation: stack-depth soundness everywhere, plus
    // the parameter-consumption rules inside region bodies.
    let abs = analyze(program, func)?;
    if !func.region {
        return Ok(abs);
    }

    let is_param = |v: AbsVal| matches!(v, AbsVal::Local(l) if l < func.params);
    for (pc, i) in func.body.iter().enumerate() {
        if abs.before[pc].is_none() {
            continue; // unreachable
        }
        let err = |msg: &str| {
            Err(VmError::Verify(format!(
                "{}:{pc}: region parameter rule violated: {msg}",
                func.name
            )))
        };
        match i {
            // Storing to a parameter slot overwrites the reference.
            Instr::Store(l) => {
                if *l < func.params {
                    return err("parameters may not be reassigned");
                }
                if is_param(abs.operand(pc, 0)) {
                    return err("a parameter reference may not be copied into a local");
                }
            }
            // Dereferencing a parameter is the one allowed use: the
            // object position of field/array instructions.
            Instr::GetField(_) | Instr::ArrayLen => {} // base at depth 0: allowed
            Instr::PutField(_)
                // value at depth 0 must not be a param reference.
                if is_param(abs.operand(pc, 0)) => {
                    return err("a parameter reference may not be stored into a field");
                }
            Instr::ALoad => {} // [arr, idx]: arr allowed, idx would be int
            Instr::AStore
                if is_param(abs.operand(pc, 0)) => {
                    return err("a parameter reference may not be stored into an array");
                }
            // Reading the reference's value: comparisons, arithmetic,
            // control flow, throw, returning, OS writes.
            Instr::CmpEq | Instr::CmpLt | Instr::CmpLe
                if (is_param(abs.operand(pc, 0)) || is_param(abs.operand(pc, 1))) => {
                    return err("parameters may not be compared (e.g. `obj == null`)");
                }
            Instr::Add
            | Instr::Sub
            | Instr::Mul
            | Instr::Div
            | Instr::Mod
            | Instr::And
            | Instr::Or
                if (is_param(abs.operand(pc, 0)) || is_param(abs.operand(pc, 1))) => {
                    return err("parameters may not be used arithmetically");
                }
            Instr::Neg | Instr::Not | Instr::Throw | Instr::OsWriteByte(_)
                if is_param(abs.operand(pc, 0)) => {
                    return err("parameters may not be read as values");
                }
            Instr::JumpIfTrue(_) | Instr::JumpIfFalse(_)
                if is_param(abs.operand(pc, 0)) => {
                    return err("parameters may not drive control flow");
                }
            // Passing a parameter onward to a call is a dereference-like
            // use (the callee is itself verified); allowed.
            _ => {}
        }
    }
    Ok(abs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use laminar_difc::CapKind;

    #[test]
    fn region_may_deref_params() {
        let mut pb = ProgramBuilder::new();
        pb.region("r", 1, 2, |b| {
            b.load(0).get_field(0).store(1).ret();
        });
        assert!(pb.finish().is_ok());
    }

    #[test]
    fn region_may_not_return_value() {
        let mut pb = ProgramBuilder::new();
        let f = pb.declare_func("r", 0, true);
        pb.program_mark_region_for_test(f);
        pb.define_func(f, 0, |b| {
            b.push_int(1).ret();
        });
        assert!(matches!(pb.finish(), Err(VmError::Verify(_))));
    }

    #[test]
    fn region_may_not_compare_params() {
        let mut pb = ProgramBuilder::new();
        pb.region("r", 1, 1, |b| {
            let t = b.new_label();
            b.load(0).push_null().cmp_eq().jump_if_true(t);
            b.bind(t);
            b.ret();
        });
        let e = pb.finish().unwrap_err();
        assert!(e.to_string().contains("compared"), "{e}");
    }

    #[test]
    fn region_may_not_reassign_params() {
        let mut pb = ProgramBuilder::new();
        pb.region("r", 1, 1, |b| {
            b.push_null().store(0).ret();
        });
        assert!(matches!(pb.finish(), Err(VmError::Verify(_))));
    }

    #[test]
    fn region_may_not_store_param_into_field() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", 1);
        pb.region("r", 1, 2, |b| {
            b.new_object(c).store(1); // local1 = new C
            b.load(1).load(0).put_field(0).ret(); // local1.f = param  ✗
        });
        assert!(matches!(pb.finish(), Err(VmError::Verify(_))));
    }

    #[test]
    fn regions_entered_only_via_call_secure() {
        let mut pb = ProgramBuilder::new();
        let r = pb.region("r", 0, 0, |b| {
            b.ret();
        });
        pb.func("main", 0, false, 0, |b| {
            b.call(r).ret();
        });
        let e = pb.finish().unwrap_err();
        assert!(e.to_string().contains("CallSecure"), "{e}");
    }

    #[test]
    fn call_secure_requires_region_target() {
        let mut pb = ProgramBuilder::new();
        let plain = pb.func("plain", 0, false, 0, |b| {
            b.ret();
        });
        let pair = pb.add_pair_spec(&[], &[]);
        let spec = pb.add_region_spec(pair, &[(0, CapKind::Plus)], None);
        pb.func("main", 0, false, 0, |b| {
            b.call_secure(plain, spec).ret();
        });
        assert!(matches!(pb.finish(), Err(VmError::Verify(_))));
    }

    #[test]
    fn catch_must_not_return() {
        let mut pb = ProgramBuilder::new();
        let catch = pb.func("catch", 0, true, 0, |b| {
            b.push_int(0).ret();
        });
        let pair = pb.add_pair_spec(&[], &[]);
        let _spec = pb.add_region_spec(pair, &[], Some(catch));
        pb.func("main", 0, false, 0, |b| {
            b.ret();
        });
        assert!(matches!(pb.finish(), Err(VmError::Verify(_))));
    }

    #[test]
    fn unknown_ids_rejected() {
        use crate::bytecode::{FuncId, Instr};
        let mut pb = ProgramBuilder::new();
        pb.func("main", 0, false, 0, |b| {
            b.emit(Instr::Call(FuncId(99))).ret();
        });
        assert!(matches!(pb.finish(), Err(VmError::Verify(_))));
    }
}
