//! The fuse pass's seeded differential regime.
//!
//! Random programs over the fusable instructions plus `ALoad`/`AStore`
//! (mixed-type locals, bounded loops, calls, and branches that land
//! inside fused runs) run twice under each barrier mode: once with the
//! production [`compile`] in the VM's compile cache, once with
//! [`lower`], which is `compile` without its last pass. The result or
//! error and every [`crate::VmStats`] field must agree.

use crate::bytecode::{FuncId, Instr};
use crate::compile::{compile, lower, CompiledFunction, Ctx, Op};
use crate::program::{CodeLabel, FunctionBuilder, Program, ProgramBuilder};
use crate::{BarrierMode, Vm, VmResult};
use laminar_util::SplitMix64;

/// Programs generated; each runs under all four barrier modes.
const PROGRAMS: u64 = 2_000;
/// Locals `0..VARS` hold the program's values; the last is its array.
const VARS: u16 = 5;
const ARRAY: u16 = VARS - 1;
/// One loop counter per nesting level, written only by loop code.
const COUNTERS: [u16; 2] = [VARS, VARS + 1];
const LOCALS: u16 = VARS + 2;
/// Length of the array local, in every program that keeps one.
const LEN: u64 = 6;

/// Emits one random function body.
struct Gen<'r> {
    rng: &'r mut SplitMix64,
    /// Do the locals start with mixed types (else ints and one array)?
    mixed: bool,
    /// A function the body may call with two arguments.
    callee: Option<FuncId>,
}

impl Gen<'_> {
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.rng.gen_ratio(num, den)
    }

    /// A local to read or write as a scalar: the array's local too when
    /// the types are mixed anyway.
    fn var(&mut self) -> u16 {
        let vars = if self.mixed { VARS } else { ARRAY };
        self.rng.below(u64::from(vars)) as u16
    }

    /// Pushes an array (mostly) and an index (mostly in bounds).
    fn element(&mut self, b: &mut FunctionBuilder) {
        b.load(if self.chance(9, 10) { ARRAY } else { self.var() });
        if self.chance(5, 6) {
            b.push_int(self.rng.below(LEN) as i64);
        } else {
            self.operand(b);
        }
    }

    fn int(&mut self) -> i64 {
        self.rng.below(9) as i64 - 2
    }

    /// Sets locals `first..VARS`.
    fn init(&mut self, b: &mut FunctionBuilder, first: u16) {
        for l in first..VARS {
            let kind = if self.mixed { self.rng.below(5) } else { u64::from(l == ARRAY) };
            match kind {
                0 | 4 => b.push_int(self.int()),
                1 => {
                    b.push_int(LEN as i64).new_array().store(l);
                    for i in 0..LEN {
                        b.load(l).push_int(i as i64).push_int(self.int()).astore();
                    }
                    continue;
                }
                2 => b.push_bool(self.rng.gen_bool()),
                _ => b.push_null(),
            };
            b.store(l);
        }
    }

    /// Pushes an int operand: a constant or a local.
    fn operand(&mut self, b: &mut FunctionBuilder) {
        if self.chance(1, 2) {
            b.push_int(self.int());
        } else {
            b.load(self.var());
        }
    }

    fn arith(&mut self, b: &mut FunctionBuilder) {
        match self.rng.below(3) {
            0 => b.add(),
            1 => b.sub(),
            _ => b.mul(),
        };
    }

    /// A comparison of a local against a constant or another local,
    /// then a branch to `target`: mostly `JumpIfFalse`, so it fuses.
    fn branch(&mut self, b: &mut FunctionBuilder, target: CodeLabel) {
        b.load(self.var());
        if self.chance(1, 2) {
            b.push_int(self.int());
        } else {
            b.load(self.var());
        }
        b.cmp_lt();
        if self.chance(4, 5) {
            b.jump_if_false(target);
        } else {
            b.jump_if_true(target);
        }
    }

    fn block(&mut self, b: &mut FunctionBuilder, depth: usize, loops: usize) {
        for _ in 0..self.rng.gen_range(1..4) {
            self.stmt(b, depth, loops);
        }
    }

    /// One statement; every statement leaves the operand stack empty.
    fn stmt(&mut self, b: &mut FunctionBuilder, depth: usize, loops: usize) {
        let nested = depth < 3;
        match self.rng.below(12) {
            0 | 1 => {
                let (a, k, d) = (self.var(), self.int(), self.var());
                b.load(a).push_int(k).add().store(d);
            }
            2 => {
                b.load(self.var()).load(self.var());
                self.arith(b);
                b.store(self.var());
            }
            3 => {
                b.load(self.var()).push_int(self.int());
                self.arith(b);
                b.store(self.var());
            }
            4 => {
                self.element(b);
                b.aload().store(self.var());
            }
            5 => {
                self.element(b);
                self.operand(b);
                b.astore();
            }
            6 if nested => {
                let end = b.new_label();
                self.branch(b, end);
                self.block(b, depth + 1, loops);
                b.bind(end);
            }
            7 if nested && loops < COUNTERS.len() => {
                let c = COUNTERS[loops];
                let (top, end) = (b.new_label(), b.new_label());
                b.push_int(0).store(c).bind(top);
                b.load(c).push_int(self.rng.below(5) as i64).cmp_lt().jump_if_false(end);
                self.block(b, depth + 1, loops + 1);
                b.load(c).push_int(1).add().store(c).jump(top).bind(end);
            }
            8 | 9 if nested => self.branch_into_run(b, depth, loops),
            10 if self.callee.is_some() => {
                let (x, y) = (self.var(), self.var());
                b.load(x).load(y);
                if let Some(f) = self.callee {
                    b.call(f);
                }
                b.store(self.var());
            }
            _ => {
                let (a, d) = (self.var(), self.var());
                b.load(a).push_int(1).add().store(d);
            }
        }
    }

    /// A fused shape whose slot `m > 0` is also reached by a branch: the
    /// branching path pushes the stack the run has at `m`, the falling
    /// path drops it and enters the run at its head.
    fn branch_into_run(&mut self, b: &mut FunctionBuilder, depth: usize, loops: usize) {
        let shape = self.rng.below(5);
        let width = if shape < 3 { 4 } else { 2 };
        let m = self.rng.gen_range(1..width);
        // The operands the run holds before slot `m`; before a 4-wide
        // run's last slot that is the comparison or the sum.
        let held = match m {
            1 | 3 => 1,
            _ => 2,
        };
        let mid = b.new_label();
        for i in 0..held {
            if m == 3 && shape != 0 && (!self.mixed || self.chance(4, 5)) {
                b.push_bool(self.rng.gen_bool());
            } else if i == 1 && (shape == 0 || shape == 1) {
                b.push_int(self.int());
            } else {
                self.operand(b);
            }
        }
        self.branch(b, mid);
        for _ in 0..held {
            b.pop();
        }
        let (a, x, k) = (self.var(), self.var(), self.int());
        let end = b.new_label();
        let slots = [
            [Instr::Load(a), Instr::PushInt(k), Instr::Add, Instr::Store(self.var())],
            [Instr::Load(a), Instr::PushInt(k), Instr::CmpLt, Instr::JumpIfFalse(0)],
            [Instr::Load(a), Instr::Load(x), Instr::CmpLt, Instr::JumpIfFalse(0)],
            [Instr::Load(a), Instr::Load(x), Instr::Add, Instr::Store(self.var())],
            [Instr::Load(a), Instr::PushInt(k), Instr::Sub, Instr::Store(self.var())],
        ][shape as usize];
        for (i, instr) in slots.into_iter().enumerate() {
            if i == m {
                b.bind(mid);
            }
            match instr {
                Instr::JumpIfFalse(_) => b.jump_if_false(end),
                other => b.emit(other),
            };
        }
        if shape == 1 || shape == 2 {
            self.block(b, depth + 1, loops);
        }
        b.bind(end);
    }
}

/// Generates one program: `main()` and a helper `h(x, y)` it may call.
fn program(rng: &mut SplitMix64) -> Program {
    let mixed = rng.gen_ratio(1, 3);
    let mut pb = ProgramBuilder::new();
    let mut body = |b: &mut FunctionBuilder, first: u16, callee: Option<FuncId>| {
        let mut g = Gen { rng: &mut *rng, mixed, callee };
        g.init(b, first);
        for _ in 0..g.rng.gen_range(2..7) {
            g.stmt(b, 0, 0);
        }
        b.load(g.var()).ret();
    };
    let h = pb.func("h", 2, true, LOCALS, |b| body(b, 2, None));
    pb.func("main", 0, true, LOCALS, |b| body(b, 0, Some(h)));
    pb.finish().expect("generated programs keep the stack balanced")
}

/// Branch targets strictly inside a fused run of `p`'s fused code.
fn targets_inside_runs(p: &Program) -> usize {
    let mut inside = 0;
    for f in 0..p.functions.len() as u32 {
        let code = compile(p, f, Ctx::NoBarriers, true).expect("verified").code;
        let mut within = vec![false; code.len()];
        for (pc, ci) in code.iter().enumerate() {
            if let Op::Fused(run) = ci.op {
                within[pc + 1..pc + run.width()].fill(true);
            }
        }
        inside += p.functions[f as usize]
            .body
            .iter()
            .filter_map(Instr::branch_target)
            .filter(|&t| within[t as usize])
            .count();
    }
    inside
}

#[test]
fn fused_and_lowered_code_agree_on_random_programs() {
    let mut rng = SplitMix64::new(0xF05E_D1FF);
    let (mut ok, mut failed, mut into_runs) = (0, 0, 0);
    for i in 0..PROGRAMS {
        let p = program(&mut rng);
        into_runs += usize::from(targets_inside_runs(&p) > 0);
        for mode in [
            BarrierMode::None,
            BarrierMode::Static,
            BarrierMode::Dynamic,
            BarrierMode::Cloning,
        ] {
            let run =
                |build: fn(&Program, u32, Ctx, bool) -> VmResult<CompiledFunction>| {
                    let mut vm = Vm::new(p.clone(), vec![], mode);
                    vm.precompile_with(build).expect("verified");
                    let got = vm.call_by_name("main", &[]);
                    (got, vm.stats().clone())
                };
            let fused = run(compile);
            let lowered = run(lower);
            assert_eq!(fused, lowered, "program {i} under {mode:?}: {p:?}");
            if fused.0.is_ok() {
                ok += 1;
            } else {
                failed += 1;
            }
        }
    }
    // The regime exercises both outcomes and the branches into runs.
    assert!(ok > PROGRAMS, "{ok} runs returned");
    assert!(failed > PROGRAMS / 2, "{failed} runs failed");
    assert!(into_runs > PROGRAMS as usize / 4, "{into_runs} programs branch into runs");
}
