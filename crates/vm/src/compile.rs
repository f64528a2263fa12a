//! The "JIT": lowers bytecode to barrier-instrumented code.
//!
//! §5.1: "The compiler inserts different barriers at an access depending
//! on whether the access occurs inside or outside a security region."
//! Two strategies are implemented, exactly as in the paper:
//!
//! * **static barriers** — at a method's *first* compilation the
//!   compiler captures the current security context and bakes in the
//!   matching barriers. This is cheaper at run time but "fails if a
//!   method is called from both within and without a security region"
//!   (our VM detects the mismatch and raises
//!   [`crate::VmError::BarrierContextMismatch`] instead of silently
//!   running the wrong checks);
//! * **dynamic barriers** — every barrier first tests at run time
//!   whether the thread is inside a region, then dispatches.
//!
//! `BarrierMode::None` compiles no barriers at all: the "unmodified JVM"
//! baseline of Figure 8 (only meaningful for label-free programs).
//!
//! The [`crate::opt`] pass removes barriers proven redundant.

use crate::bytecode::Instr;
use crate::error::VmResult;
use crate::opt::plan_barriers;
use crate::program::Program;
use crate::verify::verify_function;

/// Barrier-compilation strategy (the Figure 8 sweep variable).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum BarrierMode {
    /// No barriers: unmodified-JVM baseline (unsafe; benchmarking only).
    None,
    /// Context captured at first compile (≈6% overhead in the paper).
    /// Fails loudly when a method is called from both contexts (§5.1's
    /// documented limitation).
    Static,
    /// Context checked at run time (≈17% overhead in the paper).
    Dynamic,
    /// The paper's production design (§5.1): "use cloning to compile two
    /// versions of methods executed from both contexts" — per-context
    /// compiled clones selected at call time. Static-barrier run-time
    /// cost, no context-mismatch failure, roughly double compile cost
    /// for dual-context methods.
    Cloning,
}

/// The security context a function was compiled for.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Ctx {
    /// Compiled for execution inside a security region.
    InRegion,
    /// Compiled for execution outside any region.
    OutRegion,
    /// Compiled with dynamic dispatch (works in both contexts).
    Dynamic,
    /// Compiled without barriers.
    NoBarriers,
}

/// A barrier attached to one compiled instruction, executed before it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Barrier {
    /// In-region read check on the accessed object.
    ReadIn,
    /// In-region write check.
    WriteIn,
    /// Out-of-region check: object must be unlabeled.
    ReadOut,
    /// Out-of-region check: object must be unlabeled.
    WriteOut,
    /// Dynamic dispatch between `ReadIn` and `ReadOut`.
    ReadDyn,
    /// Dynamic dispatch between `WriteIn` and `WriteOut`.
    WriteDyn,
    /// In-region static-variable read: flow check against the static's
    /// labels (for unlabeled statics this reduces to the prototype's
    /// "integrity regions may not read statics" rule).
    StaticReadIn,
    /// In-region static-variable write: flow check against the static's
    /// labels ("secrecy regions may not write statics" for unlabeled).
    StaticWriteIn,
    /// Out-of-region static read: the static must be unlabeled.
    StaticReadOut,
    /// Out-of-region static write: the static must be unlabeled.
    StaticWriteOut,
    /// Dynamic static-read check.
    StaticReadDyn,
    /// Dynamic static-write check.
    StaticWriteDyn,
    /// In-region allocation: attach the region's labels.
    AllocIn,
    /// Dynamic allocation: attach labels iff inside a region.
    AllocDyn,
}

/// One compiled instruction: an optional barrier plus the original op.
#[derive(Copy, Clone, Debug)]
pub(crate) struct CInstr {
    pub barrier: Option<Barrier>,
    pub instr: Instr,
}

/// A compiled function body.
#[derive(Debug)]
pub(crate) struct CompiledFunction {
    #[allow(dead_code)]
    // recorded for diagnostics; the mismatch check keys off Vm::static_choice
    pub ctx: Ctx,
    pub code: Vec<CInstr>,
    /// Parameter count: the first `params` local slots.
    pub params: usize,
    /// Local slots, parameters included.
    pub locals: usize,
    /// Does `Return` pop a result?
    pub returns: bool,
    /// The deepest the operand stack gets, from the verifier's abstract
    /// stacks: a frame needs `locals + max_stack` value slots.
    pub max_stack: usize,
    /// Abstract compile cost: instructions emitted plus inlined-barrier
    /// bloat. Figure 8 reports compile-time ratios from this.
    pub cost: u64,
    /// Barriers removed by redundancy elimination (stats).
    pub eliminated: u64,
}

/// Compiles `func` for a context. `optimize` toggles redundant-barrier
/// elimination (the ablation knob).
///
/// The function is verified first ([`verify_function`]), so code the
/// interpreter runs never names an out-of-range local, function, class,
/// static, string or spec, even when the [`Program`]'s public fields
/// were edited after [`crate::ProgramBuilder::finish`].
pub(crate) fn compile(
    program: &Program,
    func_id: u32,
    ctx: Ctx,
    optimize: bool,
) -> VmResult<CompiledFunction> {
    let func = &program.functions[func_id as usize];
    let abs = verify_function(program, func)?;
    let plan = plan_barriers(func, &abs, optimize && ctx != Ctx::NoBarriers);
    // Every state an instruction leaves is the state before a successor,
    // so the deepest state before any instruction is the deepest overall.
    let max_stack = abs.before.iter().flatten().map(Vec::len).max().unwrap_or(0);

    let mut code = Vec::with_capacity(func.body.len());
    let mut cost = 0u64;
    let mut eliminated = 0u64;

    for (pc, &instr) in func.body.iter().enumerate() {
        let barrier: Option<Barrier> = if ctx == Ctx::NoBarriers {
            None
        } else {
            match instr {
                Instr::GetField(_) | Instr::ALoad | Instr::ArrayLen => {
                    if plan.redundant_read[pc] {
                        eliminated += 1;
                        None
                    } else {
                        Some(match ctx {
                            Ctx::InRegion => Barrier::ReadIn,
                            Ctx::OutRegion => Barrier::ReadOut,
                            Ctx::Dynamic => Barrier::ReadDyn,
                            Ctx::NoBarriers => unreachable!(),
                        })
                    }
                }
                Instr::PutField(_) | Instr::AStore => {
                    if plan.redundant_write[pc] {
                        eliminated += 1;
                        None
                    } else {
                        Some(match ctx {
                            Ctx::InRegion => Barrier::WriteIn,
                            Ctx::OutRegion => Barrier::WriteOut,
                            Ctx::Dynamic => Barrier::WriteDyn,
                            Ctx::NoBarriers => unreachable!(),
                        })
                    }
                }
                Instr::GetStatic(_) => match ctx {
                    Ctx::InRegion => Some(Barrier::StaticReadIn),
                    Ctx::OutRegion => Some(Barrier::StaticReadOut),
                    Ctx::Dynamic => Some(Barrier::StaticReadDyn),
                    Ctx::NoBarriers => None,
                },
                Instr::PutStatic(_) => match ctx {
                    Ctx::InRegion => Some(Barrier::StaticWriteIn),
                    Ctx::OutRegion => Some(Barrier::StaticWriteOut),
                    Ctx::Dynamic => Some(Barrier::StaticWriteDyn),
                    Ctx::NoBarriers => None,
                },
                Instr::NewObject(_)
                | Instr::NewObjectLabeled(..)
                | Instr::NewArray
                | Instr::NewArrayLabeled(_) => match ctx {
                    Ctx::InRegion => Some(Barrier::AllocIn),
                    Ctx::Dynamic => Some(Barrier::AllocDyn),
                    _ => None, // out-of-region allocations are unlabeled
                },
                _ => None,
            }
        };
        // Barriers are aggressively inlined in the paper, bloating code
        // and slowing compilation ("static barriers double it, and
        // dynamic barriers triple it", §6.1). One inlined barrier
        // expands to a few dozen IR operations (label loads,
        // labeled-space test, subset checks, slow-path call) and the
        // dynamic variant duplicates that behind a context test; model
        // them as 20 and 40 compile units against 1 per plain op.
        cost += 1 + barrier.map_or(0, |b| match b {
            Barrier::ReadDyn
            | Barrier::WriteDyn
            | Barrier::StaticReadDyn
            | Barrier::StaticWriteDyn
            | Barrier::AllocDyn => 40,
            _ => 20,
        });
        code.push(CInstr { barrier, instr });
    }

    Ok(CompiledFunction {
        ctx,
        code,
        params: usize::from(func.params),
        locals: usize::from(func.locals),
        returns: func.returns,
        max_stack,
        cost,
        eliminated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn simple_program() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.func("f", 1, false, 1, |b| {
            b.load(0).get_field(0).pop();
            b.load(0).get_field(1).pop();
            b.load(0).push_int(1).put_field(0);
            b.ret();
        });
        pb.finish().unwrap()
    }

    #[test]
    fn no_barriers_mode_emits_none() {
        let p = simple_program();
        let c = compile(&p, 0, Ctx::NoBarriers, true).unwrap();
        assert!(c.code.iter().all(|ci| ci.barrier.is_none()));
        assert_eq!(c.eliminated, 0);
    }

    #[test]
    fn in_region_inserts_read_write_barriers() {
        let p = simple_program();
        let c = compile(&p, 0, Ctx::InRegion, false).unwrap();
        let barriers: Vec<Barrier> = c.code.iter().filter_map(|ci| ci.barrier).collect();
        assert_eq!(barriers, vec![Barrier::ReadIn, Barrier::ReadIn, Barrier::WriteIn]);
    }

    #[test]
    fn optimization_removes_second_read() {
        let p = simple_program();
        let c = compile(&p, 0, Ctx::InRegion, true).unwrap();
        let barriers: Vec<Barrier> = c.code.iter().filter_map(|ci| ci.barrier).collect();
        assert_eq!(barriers, vec![Barrier::ReadIn, Barrier::WriteIn]);
        assert_eq!(c.eliminated, 1);
    }

    #[test]
    fn dynamic_barriers_cost_more_to_compile() {
        let p = simple_program();
        let none = compile(&p, 0, Ctx::NoBarriers, false).unwrap().cost;
        let stat = compile(&p, 0, Ctx::OutRegion, false).unwrap().cost;
        let dynamic = compile(&p, 0, Ctx::Dynamic, false).unwrap().cost;
        assert!(none < stat, "{none} < {stat}");
        assert!(stat < dynamic, "{stat} < {dynamic}");
    }

    #[test]
    fn statics_and_allocs_get_barriers_in_region() {
        let mut pb = ProgramBuilder::new();
        let s = pb.add_static("g");
        let c = pb.add_class("C", 0);
        pb.func("f", 0, false, 0, |b| {
            b.get_static(s).pop();
            b.push_int(1).put_static(s);
            b.new_object(c).pop();
            b.ret();
        });
        let p = pb.finish().unwrap();
        let comp = compile(&p, 0, Ctx::InRegion, true).unwrap();
        let barriers: Vec<Barrier> =
            comp.code.iter().filter_map(|ci| ci.barrier).collect();
        assert_eq!(
            barriers,
            vec![Barrier::StaticReadIn, Barrier::StaticWriteIn, Barrier::AllocIn]
        );
        // Outside a region: statics still get the labeled-space check
        // (labeled statics are inaccessible there); allocs are unlabeled
        // and need no barrier.
        let comp = compile(&p, 0, Ctx::OutRegion, true).unwrap();
        let barriers: Vec<Barrier> =
            comp.code.iter().filter_map(|ci| ci.barrier).collect();
        assert_eq!(barriers, vec![Barrier::StaticReadOut, Barrier::StaticWriteOut]);
    }
}
