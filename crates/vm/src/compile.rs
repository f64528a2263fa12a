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
//! The [`crate::opt`] pass removes barriers proven redundant. A last
//! pass, [`fuse`], overlays the head of each barrier-free run of one of
//! five hot shapes with a fused op, so the interpreter dispatches the
//! run once.

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

/// What one compiled slot executes: its bytecode instruction, or, at
/// the head of a fused run, the whole run. The slots after a fused head
/// keep their own instructions, so a branch into the run executes them
/// one by one.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// One bytecode instruction.
    Base(Instr),
    /// The head of a fused run.
    Fused(Fused),
}

/// A run of barrier-free instructions that executes as one op.
///
/// Constants are 32-bit, so a `Fused` fits in the bytes beside
/// [`Instr`]'s tag: an [`Op`] is no larger than an `Instr`, and the
/// interpreter's one match on the tag byte dispatches both kinds.
// Each name spells its shape, and every shape starts with a `Load`.
#[allow(clippy::enum_variant_names)]
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Fused {
    /// `Load a; PushInt k; Add; Store d`.
    LoadAddStore { a: u16, k: i32, d: u16 },
    /// `Load a; PushInt k; CmpLt; JumpIfFalse t`.
    LoadIntLtJump { a: u16, k: i32, t: u32 },
    /// `Load a; Load b; CmpLt; JumpIfFalse t`.
    LoadLoadLtJump { a: u16, b: u16, t: u32 },
    /// `Load a; Load b`.
    LoadLoad { a: u16, b: u16 },
    /// `Load a; PushInt k`.
    LoadInt { a: u16, k: i32 },
}

impl Fused {
    /// The number of slots, and so of bytecode instructions, the run
    /// covers.
    pub(crate) fn width(self) -> usize {
        match self {
            Fused::LoadLoad { .. } | Fused::LoadInt { .. } => 2,
            Fused::LoadAddStore { .. }
            | Fused::LoadIntLtJump { .. }
            | Fused::LoadLoadLtJump { .. } => 4,
        }
    }
}

/// One compiled instruction: an optional barrier plus the op it guards.
#[derive(Copy, Clone, Debug)]
pub(crate) struct CInstr {
    pub barrier: Option<Barrier>,
    pub op: Op,
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
    let mut c = lower(program, func_id, ctx, optimize)?;
    fuse(&mut c.code);
    Ok(c)
}

/// [`compile`] without its last pass: one slot per bytecode
/// instruction, each with the barrier the context calls for.
pub(crate) fn lower(
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
        code.push(CInstr { barrier, op: Op::Base(instr) });
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

/// Overlays the head slot of each barrier-free run that matches a
/// [`Fused`] shape, scanning left to right; runs do not overlap, and a
/// pair does not take the head of a four-wide run one slot later. Slot
/// count, branch targets, barriers and compile cost are unchanged.
pub(crate) fn fuse(code: &mut [CInstr]) {
    let mut pc = 0;
    while pc < code.len() {
        match fused_at(code, pc) {
            Some(f)
                if f.width() == 2
                    && fused_at(code, pc + 1).is_some_and(|n| n.width() == 4) =>
            {
                pc += 1;
            }
            Some(f) => {
                code[pc].op = Op::Fused(f);
                pc += f.width();
            }
            None => pc += 1,
        }
    }
}

/// The fused run starting at `pc`, if its slots are barrier-free,
/// unfused and match a shape.
fn fused_at(code: &[CInstr], pc: usize) -> Option<Fused> {
    let plain = |i: usize| match code.get(pc + i) {
        Some(&CInstr { barrier: None, op: Op::Base(instr) }) => Some(instr),
        _ => None,
    };
    let Instr::Load(a) = plain(0)? else { return None };
    let tail = (plain(2), plain(3));
    if let Instr::Load(b) = plain(1)? {
        return Some(match tail {
            (Some(Instr::CmpLt), Some(Instr::JumpIfFalse(t))) => {
                Fused::LoadLoadLtJump { a, b, t }
            }
            _ => Fused::LoadLoad { a, b },
        });
    }
    let Instr::PushInt(k) = plain(1)? else { return None };
    let k = i32::try_from(k).ok()?;
    Some(match tail {
        (Some(Instr::Add), Some(Instr::Store(d))) => Fused::LoadAddStore { a, k, d },
        (Some(Instr::CmpLt), Some(Instr::JumpIfFalse(t))) => {
            Fused::LoadIntLtJump { a, k, t }
        }
        _ => Fused::LoadInt { a, k },
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

    /// The instructions a fused run stands for.
    fn unfused(f: Fused) -> Vec<Instr> {
        use Instr::{Add, CmpLt, JumpIfFalse, Load, PushInt, Store};
        match f {
            Fused::LoadAddStore { a, k, d } => {
                vec![Load(a), PushInt(k.into()), Add, Store(d)]
            }
            Fused::LoadIntLtJump { a, k, t } => {
                vec![Load(a), PushInt(k.into()), CmpLt, JumpIfFalse(t)]
            }
            Fused::LoadLoadLtJump { a, b, t } => {
                vec![Load(a), Load(b), CmpLt, JumpIfFalse(t)]
            }
            Fused::LoadLoad { a, b } => vec![Load(a), Load(b)],
            Fused::LoadInt { a, k } => vec![Load(a), PushInt(k.into())],
        }
    }

    /// A loop whose fusable runs sit between field, array, static and
    /// allocation accesses.
    fn barrier_dense_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let s = pb.add_static("g");
        let c = pb.add_class("C", 1);
        pb.func("f", 2, true, 5, |b| {
            let (head, done, skip) = (b.new_label(), b.new_label(), b.new_label());
            b.push_int(0).store(2);
            b.bind(head);
            b.load(2).push_int(8).cmp_lt().jump_if_false(done);
            b.load(0).load(2).aload().store(3);
            b.load(0).load(2).load(3).astore();
            b.load(3).load(2).cmp_lt().jump_if_false(skip);
            b.load(1).get_field(0).store(4);
            b.load(1).load(2).put_field(0);
            b.bind(skip);
            b.new_object(c).pop();
            b.get_static(s).pop();
            b.load(3).push_int(2).mul().put_static(s);
            b.load(2).push_int(1).add().store(2);
            b.jump(head);
            b.bind(done);
            b.load(3).ret();
        });
        pb.finish().unwrap()
    }

    #[test]
    fn a_fused_op_is_no_larger_than_an_instruction() {
        assert_eq!(std::mem::size_of::<Op>(), std::mem::size_of::<Instr>());
    }

    /// Every context the four barrier modes compile for, with and
    /// without redundant-barrier elimination: fusion changes neither
    /// the compile cost, nor the barriers eliminated, nor any barrier
    /// slot, and no fused run covers a barrier.
    #[test]
    fn fusion_leaves_barriers_and_compile_cost_as_lowered() {
        let p = barrier_dense_program();
        for ctx in [Ctx::NoBarriers, Ctx::InRegion, Ctx::OutRegion, Ctx::Dynamic] {
            for optimize in [false, true] {
                let what = format!("{ctx:?}, optimize {optimize}");
                let lowered = lower(&p, 0, ctx, optimize).unwrap();
                let fused = compile(&p, 0, ctx, optimize).unwrap();
                assert_eq!(fused.cost, lowered.cost, "{what}");
                assert_eq!(fused.eliminated, lowered.eliminated, "{what}");
                assert_eq!(fused.code.len(), lowered.code.len(), "{what}");
                let mut heads = 0;
                let mut covered = 0..0;
                for (pc, (f, l)) in fused.code.iter().zip(&lowered.code).enumerate() {
                    assert_eq!(f.barrier, l.barrier, "{what}: slot {pc}");
                    match f.op {
                        Op::Fused(run) => {
                            assert!(
                                !covered.contains(&pc),
                                "{what}: runs overlap at {pc}"
                            );
                            covered = pc..pc + run.width();
                            let slots = &lowered.code[covered.clone()];
                            assert!(
                                slots.iter().all(|ci| ci.barrier.is_none()),
                                "{what}"
                            );
                            let instrs: Vec<Op> = slots.iter().map(|ci| ci.op).collect();
                            let want: Vec<Op> =
                                unfused(run).into_iter().map(Op::Base).collect();
                            assert_eq!(instrs, want, "{what}: run at {pc}");
                            heads += 1;
                        }
                        Op::Base(_) => assert_eq!(f.op, l.op, "{what}: slot {pc}"),
                    }
                }
                // Every shape occurs: the loop test, three pairs ahead of
                // array and field accesses, the local comparison, the
                // constant pair and the increment.
                assert_eq!(heads, 7, "{what}");
            }
        }
    }

    #[test]
    fn a_pair_leaves_a_four_wide_run_one_slot_on_its_head() {
        let mut pb = ProgramBuilder::new();
        pb.func("f", 2, false, 2, |b| {
            b.load(0).load(1).push_int(1).add().store(1).pop();
            b.ret();
        });
        let c = compile(&pb.finish().unwrap(), 0, Ctx::NoBarriers, true).unwrap();
        let ops: Vec<Op> = c.code.iter().map(|ci| ci.op).collect();
        assert_eq!(ops[0], Op::Base(Instr::Load(0)));
        assert_eq!(ops[1], Op::Fused(Fused::LoadAddStore { a: 1, k: 1, d: 1 }));
        assert_eq!(ops[2], Op::Base(Instr::PushInt(1)));
    }

    #[test]
    fn constants_past_32_bits_stay_unfused() {
        let mut pb = ProgramBuilder::new();
        pb.func("f", 1, false, 1, |b| {
            b.load(0).push_int(1 << 40).add().store(0);
            b.ret();
        });
        let c = compile(&pb.finish().unwrap(), 0, Ctx::NoBarriers, true).unwrap();
        assert!(c.code.iter().all(|ci| matches!(ci.op, Op::Base(_))));
    }
}
