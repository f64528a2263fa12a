//! The MiniVM interpreter: security regions, barriers, exceptions.
//!
//! One [`Vm`] instance executes one VM thread (the Laminar principal).
//! Multithreaded programs run several `Vm`s, each bound to its own
//! kernel task via an [`crate::OsBridge`]; cross-thread sharing of
//! labeled data happens through the OS (pipes, files) or through the
//! `laminar` runtime crate's `Labeled<T>` cells, keeping this
//! interpreter single-threaded and lock-free like a JIT'd mutator.

use crate::bridge::OsBridge;
use crate::bytecode::{FuncId, Instr, PairSpecId, RegionSpecId};
use crate::compile::{Barrier, BarrierMode, CInstr, CompiledFunction, Ctx, Fused, Op};
use crate::error::{VmError, VmResult};
use crate::heap::{ClassId, Heap, ObjKind};
use crate::program::Program;
use crate::stats::VmStats;
use crate::value::{ObjRef, Value};
use laminar_difc::{CapKind, CapSet, Capability, Label, RegionStack, SecPair, Tag};

use std::sync::Arc;

/// The most callers a thread may have suspended in plain calls at once:
/// `down(n) = n == 0 ? 0 : down(n - 1)` runs for `n <= MAX_CALL_DEPTH`.
/// A `Call` past it raises [`VmError::CallDepthExceeded`] instead of
/// growing the value stack further. A plain call uses no host stack, so
/// the bound is the same in debug and release builds and on any thread.
pub const MAX_CALL_DEPTH: usize = 1 << 14;

/// The most security regions a thread may have entered at once. Each
/// region runs its body (and catch block) in a nested dispatch loop, so
/// this bounds the host stack the interpreter uses: 16 nested regions
/// need under 640 KiB in a debug build and under 64 KiB in a release
/// build on x86-64, well inside a Rust thread's default 2 MiB. A
/// `CallSecure` past it raises [`VmError::CallDepthExceeded`].
pub const MAX_REGION_DEPTH: usize = 16;

/// A suspended caller: the code it runs, the instruction it resumes at
/// and where its frame starts in the value stack. The frame's locals are
/// `values[base..base + code.locals]`; its operands sit above them.
#[derive(Debug)]
struct Frame {
    code: Arc<CompiledFunction>,
    pc: usize,
    base: usize,
}

/// The thread's frame stack: one value stack shared by every
/// activation, plus the suspended callers of the running one.
#[derive(Debug, Default)]
struct Stack {
    values: Vec<Value>,
    frames: Vec<Frame>,
}

/// How the dispatch loop leaves the running frame.
enum Transfer {
    Call(FuncId),
    CallSecure(FuncId, RegionSpecId),
    Return(Option<Value>),
}

/// The error of a syscall instruction on a VM with no OS bridge.
fn no_bridge() -> VmError {
    VmError::Os("no OS bridge attached".into())
}

/// One journaled labeled write, undoable on region abort.
#[derive(Debug)]
enum RegionUndo {
    /// Old value of field/element `1` of labeled object `0`.
    Field(ObjRef, usize, Value),
    /// Old value of labeled static `0`.
    Static(usize, Value),
}

/// The Laminar virtual machine (one thread).
///
/// See the crate docs for a complete example.
#[derive(Debug)]
pub struct Vm {
    program: Program,
    tags: Vec<Tag>,
    heap: Heap,
    statics: Vec<Value>,
    /// Resolved labels of each static (unlabeled pair when none).
    static_labels: Vec<SecPair>,
    mode: BarrierMode,
    optimize: bool,
    /// Compile cache, indexed `[func][ctx]` (ctx: 0 = NoBarriers,
    /// 1 = InRegion, 2 = OutRegion, 3 = Dynamic). Vector-indexed so a
    /// warm call is one load — the paper's warm JIT dispatch.
    compiled: Vec<[Option<Arc<CompiledFunction>>; 4]>,
    /// `Static` mode: the context each function was first compiled for.
    static_choice: Vec<Option<Ctx>>,
    stats: VmStats,
    /// The thread's labels, capabilities and entered regions.
    regions: RegionStack,
    /// Undo log for labeled writes inside security regions. An abnormal
    /// region exit rolls the log back to the region's mark; the outermost
    /// normal exit commits (clears) it.
    region_undo: Vec<RegionUndo>,
    /// Length of the undo log at each entered region's entry: on abort,
    /// everything above the innermost mark is rolled back (secure
    /// termination, §4.3.3).
    undo_marks: Vec<usize>,
    bridge: Option<Box<dyn OsBridge>>,
    /// Value and frame stacks, reused from call to call. Taken out of the
    /// `Vm` while a host call runs.
    stack: Stack,
    /// Why the program's spec tables are unusable with this tag table,
    /// if they are: every host call then fails with it.
    invalid: Option<VmError>,
}

impl Vm {
    /// Creates a VM for `program` with the given runtime tag table and
    /// barrier strategy. Redundant-barrier elimination is on by default.
    ///
    /// The program is not trusted to be the one
    /// [`crate::ProgramBuilder::finish`] verified: its spec tables are
    /// checked here and each function body when it is first compiled, so
    /// an invalid program fails with [`VmError::Verify`] before any of
    /// the offending code runs.
    ///
    /// # Panics
    ///
    /// Panics if the program references more tag indices than `tags`
    /// provides (`program.tags_used`).
    #[must_use]
    pub fn new(program: Program, tags: Vec<Tag>, mode: BarrierMode) -> Self {
        assert!(
            tags.len() >= program.tags_used as usize,
            "program references {} tags but only {} were supplied",
            program.tags_used,
            tags.len()
        );
        let invalid = crate::verify::verify_tables(&program, tags.len()).err();
        let statics = vec![Value::Null; program.statics.len()];
        let static_labels: Vec<SecPair> = program
            .statics
            .iter()
            .map(|st| match st.labels {
                Some(spec) if invalid.is_none() => {
                    let ps = &program.pair_specs[spec.0 as usize];
                    SecPair::new(
                        Label::from_tags(ps.secrecy.iter().map(|&i| tags[i as usize])),
                        Label::from_tags(ps.integrity.iter().map(|&i| tags[i as usize])),
                    )
                }
                _ => SecPair::unlabeled(),
            })
            .collect();
        let nfuncs = program.functions.len();
        Vm {
            program,
            tags,
            heap: Heap::new(),
            statics,
            static_labels,
            mode,
            optimize: true,
            compiled: vec![[None, None, None, None]; nfuncs],
            static_choice: vec![None; nfuncs],
            stats: VmStats::default(),
            regions: RegionStack::new(CapSet::new()),
            region_undo: Vec::new(),
            undo_marks: Vec::new(),
            bridge: None,
            stack: Stack::default(),
            invalid,
        }
    }

    /// Sets the thread's capability set (normally granted at login or
    /// inherited from the spawning thread).
    pub fn set_thread_caps(&mut self, caps: CapSet) {
        self.regions = RegionStack::new(caps);
    }

    /// Toggles redundant-barrier elimination (ablation knob; recompiles
    /// nothing already compiled).
    pub fn set_optimize(&mut self, on: bool) {
        self.optimize = on;
    }

    /// Attaches the OS bridge for syscall instructions and label sync.
    /// The VM logs its barrier and region decisions to the bridge's
    /// audit log, if it has one.
    pub fn set_bridge(&mut self, bridge: Box<dyn OsBridge>) {
        self.bridge = Some(bridge);
    }

    /// The audit log of the kernel this VM is bridged to, if any.
    fn audit(&self) -> Option<&laminar_obs::Audit> {
        self.bridge.as_deref().and_then(OsBridge::audit)
    }

    /// Execution statistics so far.
    #[must_use]
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// Resets statistics (not the compile caches).
    pub fn reset_stats(&mut self) {
        self.stats = VmStats::default();
    }

    /// The thread's current labels (empty outside security regions).
    #[must_use]
    pub fn current_labels(&self) -> &SecPair {
        self.regions.labels()
    }

    /// The heap (for embedder inspection).
    #[must_use]
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    // --- trusted embedder (host) heap access -----------------------------

    /// Allocates an object from the host, optionally into the labeled
    /// space. Host access is part of the TCB and is not barrier-checked.
    ///
    /// # Errors
    /// [`VmError::Malformed`] on an unknown class.
    pub fn host_alloc_object(
        &mut self,
        class: ClassId,
        labels: Option<SecPair>,
    ) -> VmResult<ObjRef> {
        let nfields = self
            .program
            .classes
            .get(class.0 as usize)
            .ok_or(VmError::Malformed("unknown class"))?
            .nfields as usize;
        Ok(self.heap.alloc_object(class, nfields, labels))
    }

    /// Allocates an array from the host.
    pub fn host_alloc_array(&mut self, len: usize, labels: Option<SecPair>) -> ObjRef {
        self.heap.alloc_array(len, labels)
    }

    /// Reads a field from the host (TCB; no barrier).
    ///
    /// # Errors
    /// [`VmError::Malformed`] / bounds errors.
    pub fn host_get_field(&self, obj: ObjRef, field: usize) -> VmResult<Value> {
        match &self.heap.get(obj)?.kind {
            ObjKind::Object { fields, .. } => fields
                .get(field)
                .copied()
                .ok_or(VmError::Malformed("field index out of range")),
            ObjKind::Array { elems } => elems
                .get(field)
                .copied()
                .ok_or(VmError::Malformed("element index out of range")),
        }
    }

    /// Writes a field from the host (TCB; no barrier).
    ///
    /// # Errors
    /// [`VmError::Malformed`] / bounds errors.
    pub fn host_put_field(
        &mut self,
        obj: ObjRef,
        field: usize,
        value: Value,
    ) -> VmResult<()> {
        match &mut self.heap.get_mut(obj)?.kind {
            ObjKind::Object { fields, .. } => {
                *fields
                    .get_mut(field)
                    .ok_or(VmError::Malformed("field index out of range"))? = value;
            }
            ObjKind::Array { elems } => {
                *elems
                    .get_mut(field)
                    .ok_or(VmError::Malformed("element index out of range"))? = value;
            }
        }
        Ok(())
    }

    /// Builds a label pair from a pair-spec id (resolving tag indices
    /// through the runtime tag table).
    ///
    /// # Errors
    /// [`VmError::Malformed`] on a bad spec id.
    pub fn pair_from_spec(&self, id: PairSpecId) -> VmResult<SecPair> {
        let spec = self
            .program
            .pair_specs
            .get(id.0 as usize)
            .ok_or(VmError::Malformed("unknown pair spec"))?;
        let s = Label::from_tags(spec.secrecy.iter().map(|&i| self.tags[i as usize]));
        let i = Label::from_tags(spec.integrity.iter().map(|&i| self.tags[i as usize]));
        Ok(SecPair::new(s, i))
    }

    // --- entry points -----------------------------------------------------

    /// Calls a non-region function from the host (outside any region).
    ///
    /// # Errors
    ///
    /// Any [`VmError`] the program raises outside a security region
    /// (in-region exceptions are handled by catch blocks and suppressed),
    /// including [`VmError::CallDepthExceeded`]; [`VmError::Verify`] if
    /// the program, edited after it was built, fails verification.
    pub fn call(&mut self, f: FuncId, args: &[Value]) -> VmResult<Option<Value>> {
        let func = self
            .program
            .functions
            .get(f.0 as usize)
            .ok_or(VmError::Malformed("unknown function"))?;
        if func.region {
            return Err(VmError::Malformed(
                "security regions are entered via CallSecure, not host calls",
            ));
        }
        if args.len() != func.params as usize {
            return Err(VmError::Malformed("wrong argument count"));
        }
        if let Some(e) = &self.invalid {
            return Err(e.clone());
        }
        // The stacks keep their capacity from call to call, never their
        // contents: a failed call may leave values and frames behind.
        let mut st = std::mem::take(&mut self.stack);
        st.values.clear();
        st.values.extend_from_slice(args);
        let result = self.run(&mut st, f, 0);
        st.frames.clear();
        self.stack = st;
        result
    }

    /// [`Self::call`] by function name.
    ///
    /// # Errors
    /// [`VmError::Malformed`] if no such function; else as [`Self::call`].
    pub fn call_by_name(
        &mut self,
        name: &str,
        args: &[Value],
    ) -> VmResult<Option<Value>> {
        let f = self
            .program
            .func_by_name(name)
            .ok_or(VmError::Malformed("unknown function name"))?;
        self.call(f, args)
    }

    // --- compilation ------------------------------------------------------

    fn in_region(&self) -> bool {
        self.regions.in_region()
    }

    fn ctx_slot(ctx: Ctx) -> usize {
        match ctx {
            Ctx::NoBarriers => 0,
            Ctx::InRegion => 1,
            Ctx::OutRegion => 2,
            Ctx::Dynamic => 3,
        }
    }

    fn compiled_for_call(&mut self, f: FuncId) -> VmResult<Arc<CompiledFunction>> {
        let wanted = match self.mode {
            BarrierMode::None => Ctx::NoBarriers,
            BarrierMode::Dynamic => Ctx::Dynamic,
            // Static and Cloning both bake the context in; Cloning keeps
            // one compiled clone per context instead of failing on a
            // dual-context method (§5.1's production design).
            BarrierMode::Static | BarrierMode::Cloning => {
                if self.in_region() {
                    Ctx::InRegion
                } else {
                    Ctx::OutRegion
                }
            }
        };
        if self.mode == BarrierMode::Static {
            match self.static_choice[f.0 as usize] {
                Some(chosen) if chosen != wanted => {
                    // The paper's static-barrier failure mode: the method
                    // was compiled for the other context (§5.1). A real
                    // mis-barriered run would be unsound; we fail loudly.
                    return Err(VmError::BarrierContextMismatch {
                        function: self.program.functions[f.0 as usize].name.clone(),
                    });
                }
                Some(_) => {}
                None => self.static_choice[f.0 as usize] = Some(wanted),
            }
        }
        if let Some(c) = &self.compiled[f.0 as usize][Self::ctx_slot(wanted)] {
            return Ok(Arc::clone(c));
        }
        let c = crate::compile::compile(&self.program, f.0, wanted, self.optimize)?;
        Ok(self.cache_compiled(f, wanted, c))
    }

    /// Counts a compilation of `f` for `ctx` and caches its code.
    fn cache_compiled(
        &mut self,
        f: FuncId,
        ctx: Ctx,
        c: CompiledFunction,
    ) -> Arc<CompiledFunction> {
        let c = Arc::new(c);
        self.stats.functions_compiled += 1;
        self.stats.compile_cost += c.cost;
        self.stats.barriers_eliminated += c.eliminated;
        self.compiled[f.0 as usize][Self::ctx_slot(ctx)] = Some(Arc::clone(&c));
        c
    }

    /// Compiles every function, with `build` in place of
    /// [`crate::compile::compile`], for each context this VM's mode runs
    /// code in, counting each compilation as a first call would.
    #[cfg(test)]
    pub(crate) fn precompile_with(
        &mut self,
        build: impl Fn(&Program, u32, Ctx, bool) -> VmResult<CompiledFunction>,
    ) -> VmResult<()> {
        let ctxs: &[Ctx] = match self.mode {
            BarrierMode::None => &[Ctx::NoBarriers],
            BarrierMode::Dynamic => &[Ctx::Dynamic],
            BarrierMode::Static | BarrierMode::Cloning => {
                &[Ctx::InRegion, Ctx::OutRegion]
            }
        };
        for f in 0..self.program.functions.len() as u32 {
            for &ctx in ctxs {
                let c = build(&self.program, f, ctx, self.optimize)?;
                self.cache_compiled(FuncId(f), ctx, c);
            }
        }
        Ok(())
    }

    // --- regions ----------------------------------------------------------

    fn enter_region(&mut self, spec_id: RegionSpecId) -> VmResult<()> {
        let r = self.enter_region_checked(spec_id);
        if let Some(audit) = self.audit() {
            audit.record(laminar_obs::Event::RegionEnter {
                layer: laminar_obs::Layer::Vm,
                verdict: if r.is_ok() {
                    laminar_obs::Verdict::Allow
                } else {
                    laminar_obs::Verdict::Deny
                },
            });
        }
        r
    }

    fn enter_region_checked(&mut self, spec_id: RegionSpecId) -> VmResult<()> {
        let spec = self
            .program
            .region_specs
            .get(spec_id.0 as usize)
            .ok_or(VmError::Malformed("unknown region spec"))?;
        let pair = self.pair_from_spec(spec.pair)?;
        let rcaps = CapSet::from_caps(spec.caps.iter().map(|&(ti, kind)| {
            let tag = self.tags[ti as usize];
            match kind {
                CapKind::Plus => Capability::plus(tag),
                CapKind::Minus => Capability::minus(tag),
            }
        }));
        self.regions.enter(pair, rcaps).map_err(VmError::RegionEntry)?;
        self.undo_marks.push(self.region_undo.len());
        self.stats.regions_entered += 1;
        Ok(())
    }

    /// Rolls the undo log back to the current (innermost) region's entry
    /// mark, restoring every labeled field, element and static the region
    /// wrote — the heap half of secure termination (§4.3.3): an aborted
    /// region must leave labeled state as it found it.
    fn abort_region_writes(&mut self) {
        let Some(&mark) = self.undo_marks.last() else { return };
        while self.region_undo.len() > mark {
            match self.region_undo.pop() {
                Some(RegionUndo::Field(obj, idx, old)) => {
                    // The object existed when the write was journaled; a
                    // dangling entry here would itself be an invariant
                    // break, so restore best-effort without unwinding.
                    if let Ok(ho) = self.heap.get_mut(obj) {
                        let slot = match &mut ho.kind {
                            ObjKind::Object { fields, .. } => fields.get_mut(idx),
                            ObjKind::Array { elems } => elems.get_mut(idx),
                        };
                        if let Some(slot) = slot {
                            *slot = old;
                        }
                    }
                }
                Some(RegionUndo::Static(idx, old)) => {
                    if let Some(slot) = self.statics.get_mut(idx) {
                        *slot = old;
                    }
                }
                None => break,
            }
        }
        self.stats.regions_aborted += 1;
        crate::stats::note_region_aborted();
        if let Some(audit) = self.audit() {
            audit.record(laminar_obs::Event::RegionAbort {
                layer: laminar_obs::Layer::Vm,
            });
        }
    }

    /// Leaves the innermost region. The outer labels and capabilities
    /// are back before the bridge pays the kernel task what the region
    /// owes it, so a failed payment leaves the VM's context right and at
    /// most the region's labels on the kernel task.
    fn exit_region(&mut self) -> VmResult<()> {
        let exit = self.regions.exit().ok_or(VmError::RegionUnderflow)?;
        self.undo_marks.pop();
        if !self.in_region() {
            // Outermost exit: the surviving writes are committed; the
            // journal has nothing left to guard.
            self.region_undo.clear();
        }
        if exit.elided {
            self.stats.os_label_syncs_elided += 1;
        }
        match self.bridge.as_mut() {
            Some(bridge) if !exit.debt.is_empty() => {
                bridge.settle_region(&exit.debt).map_err(VmError::Os)
            }
            _ => Ok(()),
        }
    }

    /// Tells the kernel task the innermost region's context before a
    /// syscall, once per region (§4.4's lazy sync).
    fn ensure_os_sync(&mut self) -> VmResult<()> {
        if !self.regions.needs_sync() {
            return Ok(());
        }
        let bridge = self.bridge.as_mut().ok_or_else(no_bridge)?;
        bridge.sync_region(&mut self.regions).map_err(VmError::Os)?;
        self.stats.os_label_syncs += 1;
        Ok(())
    }

    /// Is this error suppressed at a region boundary? Configuration and
    /// program-form errors propagate; everything a program can raise at
    /// run time is suppressed (§4.3.3: "The VM suppresses all exceptions
    /// inside a security region that are not explicitly caught").
    fn suppressible(e: &VmError) -> bool {
        !matches!(
            e,
            VmError::Malformed(_)
                | VmError::Verify(_)
                | VmError::BarrierContextMismatch { .. }
                | VmError::RegionUnderflow
        )
    }

    // --- barriers ---------------------------------------------------------

    fn object_pair(&self, obj: ObjRef) -> VmResult<SecPair> {
        Ok(self.heap.labels_of(obj)?.cloned().unwrap_or_else(SecPair::unlabeled))
    }

    fn barrier_read_in(&mut self, obj: ObjRef) -> VmResult<()> {
        self.stats.read_barriers += 1;
        let pair = self.object_pair(obj)?;
        crate::conformance::barrier_read_check(&pair, self.regions.labels(), self.audit())
    }

    fn barrier_write_in(&mut self, obj: ObjRef) -> VmResult<()> {
        self.stats.write_barriers += 1;
        let pair = self.object_pair(obj)?;
        crate::conformance::barrier_write_check(
            self.regions.labels(),
            &pair,
            self.audit(),
        )
    }

    fn barrier_out(&mut self, obj: ObjRef, is_read: bool) -> VmResult<()> {
        if is_read {
            self.stats.read_barriers += 1;
        } else {
            self.stats.write_barriers += 1;
        }
        if self.heap.labels_of(obj)?.is_some() {
            return Err(VmError::LabeledAccessOutsideRegion);
        }
        Ok(())
    }

    fn run_access_barrier(
        &mut self,
        b: Barrier,
        instr: &Instr,
        operands: &[Value],
    ) -> VmResult<()> {
        let depth = match instr {
            Instr::GetField(_) | Instr::ArrayLen => 0,
            Instr::PutField(_) | Instr::ALoad => 1,
            Instr::AStore => 2,
            _ => 0,
        };
        let obj_at = |d: usize| -> VmResult<ObjRef> {
            match operands.get(operands.len().wrapping_sub(1 + d)) {
                Some(v) => v.as_ref(),
                None => Err(VmError::Malformed("barrier operand missing")),
            }
        };
        match b {
            Barrier::ReadIn => {
                let o = obj_at(depth)?;
                self.barrier_read_in(o)
            }
            Barrier::WriteIn => {
                let o = obj_at(depth)?;
                self.barrier_write_in(o)
            }
            Barrier::ReadOut => {
                let o = obj_at(depth)?;
                self.barrier_out(o, true)
            }
            Barrier::WriteOut => {
                let o = obj_at(depth)?;
                self.barrier_out(o, false)
            }
            Barrier::ReadDyn => {
                self.stats.dynamic_dispatches += 1;
                let o = obj_at(depth)?;
                if self.in_region() {
                    self.barrier_read_in(o)
                } else {
                    self.barrier_out(o, true)
                }
            }
            Barrier::WriteDyn => {
                self.stats.dynamic_dispatches += 1;
                let o = obj_at(depth)?;
                if self.in_region() {
                    self.barrier_write_in(o)
                } else {
                    self.barrier_out(o, false)
                }
            }
            Barrier::StaticReadIn => {
                self.stats.static_barriers += 1;
                let pair = self.static_pair_of(instr)?;
                // For an unlabeled static this is exactly the prototype's
                // rule: an integrity region may not read it (I_thr ⊄ {}).
                pair.can_flow_to(self.regions.labels()).map_err(VmError::from)
            }
            Barrier::StaticWriteIn => {
                self.stats.static_barriers += 1;
                let pair = self.static_pair_of(instr)?;
                // Unlabeled static: a secrecy region may not write it.
                self.regions.labels().can_flow_to(pair).map_err(VmError::from)
            }
            Barrier::StaticReadOut | Barrier::StaticWriteOut => {
                self.stats.static_barriers += 1;
                if !self.static_pair_of(instr)?.is_unlabeled() {
                    return Err(VmError::LabeledAccessOutsideRegion);
                }
                Ok(())
            }
            Barrier::StaticReadDyn => {
                self.stats.dynamic_dispatches += 1;
                if self.in_region() {
                    self.run_access_barrier(Barrier::StaticReadIn, instr, operands)
                } else {
                    self.run_access_barrier(Barrier::StaticReadOut, instr, operands)
                }
            }
            Barrier::StaticWriteDyn => {
                self.stats.dynamic_dispatches += 1;
                if self.in_region() {
                    self.run_access_barrier(Barrier::StaticWriteIn, instr, operands)
                } else {
                    self.run_access_barrier(Barrier::StaticWriteOut, instr, operands)
                }
            }
            // Alloc barriers are folded into the allocation instructions.
            Barrier::AllocIn | Barrier::AllocDyn => Ok(()),
        }
    }

    /// The labels of the static referenced by a Get/PutStatic instruction.
    fn static_pair_of(&self, instr: &Instr) -> VmResult<&SecPair> {
        match instr {
            Instr::GetStatic(s) | Instr::PutStatic(s) => {
                match self.static_labels.get(s.0 as usize) {
                    Some(pair) => Ok(pair),
                    None => Err(VmError::Malformed("unknown static")),
                }
            }
            _ => Err(VmError::Malformed("static barrier on non-static op")),
        }
    }

    /// Labels for a plain in-program allocation under barrier `b`.
    fn alloc_labels(&mut self, b: Option<Barrier>) -> Option<SecPair> {
        let labeled = match b {
            Some(Barrier::AllocIn) => true,
            Some(Barrier::AllocDyn) => {
                self.stats.dynamic_dispatches += 1;
                self.in_region()
            }
            _ => false,
        };
        if labeled && !self.regions.labels().is_unlabeled() {
            self.stats.alloc_barriers += 1;
            Some(self.regions.labels().clone())
        } else {
            None
        }
    }

    /// Labels for an explicitly labeled allocation: must occur inside a
    /// region (except in the unsafe `None` mode where no barrier runs),
    /// and the new labels must be writable by the thread.
    fn alloc_labels_explicit(
        &mut self,
        b: Option<Barrier>,
        spec: PairSpecId,
    ) -> VmResult<Option<SecPair>> {
        let pair = self.pair_from_spec(spec)?;
        match b {
            Some(Barrier::AllocIn) => {}
            Some(Barrier::AllocDyn) => {
                self.stats.dynamic_dispatches += 1;
                if !self.in_region() {
                    return Err(VmError::LabeledAccessOutsideRegion);
                }
            }
            None
                // None occurs in BarrierMode::None (unsafe baseline) or
                // for out-of-region static compilation, where explicitly
                // labeled allocation must be rejected.
                if self.mode != BarrierMode::None => {
                    return Err(VmError::LabeledAccessOutsideRegion);
                }
            _ => {}
        }
        if b.is_some() {
            self.stats.alloc_barriers += 1;
            self.regions.labels().can_flow_to(&pair)?;
        }
        Ok(if pair.is_unlabeled() { None } else { Some(pair) })
    }

    // --- the interpreter loop ----------------------------------------------

    /// Makes room for a frame of `code` at `base` (its locals and its
    /// deepest operand stack) and sets its non-parameter locals to null,
    /// whatever an earlier frame left in those slots.
    fn open_frame(values: &mut Vec<Value>, base: usize, code: &CompiledFunction) {
        let top = base + code.locals + code.max_stack;
        if values.len() < top {
            values.resize(top, Value::Null);
        }
        values[base + code.params..base + code.locals].fill(Value::Null);
    }

    /// Runs `f`, whose arguments are the values at
    /// `st.values[base..base + params]`, until it returns. Plain calls and
    /// returns push and pop [`Frame`]s inside this loop; only a security
    /// region's body and catch block run in a nested one
    /// ([`Self::call_secure`]).
    ///
    /// The length of `st.values` is a high-water mark, not the stack
    /// height: the running frame's height is `sp`, a local, and every
    /// slot at or above it is dead. So a failed callee leaves nothing
    /// its caller can see; the handler that catches the error only drops
    /// the callee's suspended frames.
    #[allow(clippy::too_many_lines)]
    fn run(&mut self, st: &mut Stack, f: FuncId, base: usize) -> VmResult<Option<Value>> {
        let floor = st.frames.len();
        let code = self.compiled_for_call(f)?;
        Self::open_frame(&mut st.values, base, &code);
        let mut sp = base + code.locals;
        let mut cur = Frame { code, pc: 0, base };

        loop {
            let code: &[CInstr] = &cur.code.code;
            let (base, locals, returns) = (cur.base, cur.code.locals, cur.code.returns);
            // The frame's operands start above its locals: popping below
            // `ops` is an underflow, never a read of a local.
            let ops = base + locals;
            let values: &mut [Value] = &mut st.values;
            let mut pc = cur.pc;

            macro_rules! pop {
                () => {{
                    if sp <= ops {
                        return Err(VmError::Malformed("operand stack underflow"));
                    }
                    sp -= 1;
                    values[sp]
                }};
            }
            macro_rules! push {
                ($v:expr) => {{
                    let v = $v;
                    // The verifier bounds each function's operand depth
                    // and `open_frame` reserved it; this cannot fire for
                    // compiled code.
                    let Some(slot) = values.get_mut(sp) else {
                        return Err(VmError::Malformed("operand stack overflow"));
                    };
                    *slot = v;
                    sp += 1;
                }};
            }
            macro_rules! local {
                ($l:expr) => {
                    local!($l, 0)
                };
                ($l:expr, $undo:expr) => {{
                    let l = usize::from($l);
                    if l >= locals {
                        fail!($undo, VmError::Malformed("local index out of range"));
                    }
                    base + l
                }};
            }
            // A fused run counts its whole width when it starts: on an
            // error it uncounts the `$undo` slots after the failing one,
            // so the count is the unfused path's.
            macro_rules! fail {
                ($undo:expr, $e:expr) => {{
                    self.stats.instructions -= $undo;
                    return Err($e);
                }};
            }
            // The check `push!` makes for the fused run's push to the
            // slot `$above` over the frame's height.
            macro_rules! room {
                ($above:expr, $undo:expr) => {
                    if sp + $above >= values.len() {
                        fail!($undo, VmError::Malformed("operand stack overflow"));
                    }
                };
            }
            macro_rules! int_at {
                ($v:expr, $undo:expr) => {
                    match $v.as_int() {
                        Ok(x) => x,
                        Err(e) => fail!($undo, e),
                    }
                };
            }
            macro_rules! int_op {
                (|$a:ident, $b:ident| $e:expr) => {{
                    let $b = pop!().as_int()?;
                    let $a = pop!().as_int()?;
                    push!($e);
                }};
            }

            let transfer = loop {
                let Some(&CInstr { barrier, op }) = code.get(pc) else {
                    // Function bodies are terminated by Return (the
                    // builder appends one), so falling off the end is
                    // malformed.
                    return Err(VmError::Malformed("control flow fell off function end"));
                };
                self.stats.instructions += 1;
                if let Some(b) = barrier {
                    if !matches!(b, Barrier::AllocIn | Barrier::AllocDyn) {
                        // `fuse` never covers a barrier slot.
                        let Op::Base(instr) = op else {
                            return Err(VmError::Malformed("barrier on a fused run"));
                        };
                        self.run_access_barrier(b, &instr, &values[ops..sp])?;
                    }
                }
                // One match on the op's tag byte dispatches instructions
                // and fused runs alike.
                match op {
                    Op::Base(Instr::PushInt(v)) => push!(Value::Int(v)),
                    Op::Base(Instr::PushBool(v)) => push!(Value::Bool(v)),
                    Op::Base(Instr::PushNull) => push!(Value::Null),
                    Op::Base(Instr::Pop) => {
                        pop!();
                    }
                    Op::Base(Instr::Dup) => {
                        let Some(&v) = values[ops..sp].last() else {
                            return Err(VmError::Malformed("dup on empty"));
                        };
                        push!(v);
                    }
                    Op::Base(Instr::Load(l)) => {
                        let v = values[local!(l)];
                        push!(v);
                    }
                    Op::Base(Instr::Store(l)) => {
                        let slot = local!(l);
                        values[slot] = pop!();
                    }
                    Op::Base(Instr::GetField(n)) => {
                        let obj = pop!().as_ref()?;
                        match &self.heap.get(obj)?.kind {
                            ObjKind::Object { fields, .. } => {
                                let Some(&v) = fields.get(n as usize) else {
                                    return Err(VmError::Malformed(
                                        "field index out of range",
                                    ));
                                };
                                push!(v);
                            }
                            ObjKind::Array { .. } => {
                                return Err(VmError::TypeError("GetField on array"))
                            }
                        }
                    }
                    Op::Base(Instr::PutField(n)) => {
                        let val = pop!();
                        let obj = pop!().as_ref()?;
                        let journal = self.in_region();
                        let ho = self.heap.get_mut(obj)?;
                        let labeled = ho.labels.is_some();
                        match &mut ho.kind {
                            ObjKind::Object { fields, .. } => {
                                let Some(slot) = fields.get_mut(n as usize) else {
                                    return Err(VmError::Malformed(
                                        "field index out of range",
                                    ));
                                };
                                if journal && labeled {
                                    self.region_undo
                                        .push(RegionUndo::Field(obj, n as usize, *slot));
                                }
                                *slot = val;
                            }
                            ObjKind::Array { .. } => {
                                return Err(VmError::TypeError("PutField on array"))
                            }
                        }
                    }
                    Op::Base(Instr::NewObject(c)) => {
                        let labels = self.alloc_labels(barrier);
                        let nfields = self.program.classes[c.0 as usize].nfields as usize;
                        let r = self.heap.alloc_object(c, nfields, labels);
                        push!(Value::Ref(r));
                    }
                    Op::Base(Instr::NewObjectLabeled(c, spec)) => {
                        let labels = self.alloc_labels_explicit(barrier, spec)?;
                        let nfields = self.program.classes[c.0 as usize].nfields as usize;
                        let r = self.heap.alloc_object(c, nfields, labels);
                        push!(Value::Ref(r));
                    }
                    Op::Base(Instr::NewArray) => {
                        let len = pop!().as_int()?;
                        if len < 0 {
                            return Err(VmError::Malformed("negative array length"));
                        }
                        let labels = self.alloc_labels(barrier);
                        let r = self.heap.alloc_array(len as usize, labels);
                        push!(Value::Ref(r));
                    }
                    Op::Base(Instr::NewArrayLabeled(spec)) => {
                        let len = pop!().as_int()?;
                        if len < 0 {
                            return Err(VmError::Malformed("negative array length"));
                        }
                        let labels = self.alloc_labels_explicit(barrier, spec)?;
                        let r = self.heap.alloc_array(len as usize, labels);
                        push!(Value::Ref(r));
                    }
                    Op::Base(Instr::ALoad) => {
                        let idx = pop!().as_int()?;
                        let arr = pop!().as_ref()?;
                        match &self.heap.get(arr)?.kind {
                            ObjKind::Array { elems } => {
                                let Some(&v) =
                                    usize::try_from(idx).ok().and_then(|i| elems.get(i))
                                else {
                                    return Err(VmError::IndexOutOfBounds {
                                        index: idx,
                                        len: elems.len(),
                                    });
                                };
                                push!(v);
                            }
                            ObjKind::Object { .. } => {
                                return Err(VmError::TypeError("ALoad on object"))
                            }
                        }
                    }
                    Op::Base(Instr::AStore) => {
                        let val = pop!();
                        let idx = pop!().as_int()?;
                        let arr = pop!().as_ref()?;
                        let journal = self.in_region();
                        let ho = self.heap.get_mut(arr)?;
                        let labeled = ho.labels.is_some();
                        match &mut ho.kind {
                            ObjKind::Array { elems } => {
                                let len = elems.len();
                                let Some(slot) = usize::try_from(idx)
                                    .ok()
                                    .and_then(|i| elems.get_mut(i))
                                else {
                                    return Err(VmError::IndexOutOfBounds {
                                        index: idx,
                                        len,
                                    });
                                };
                                if journal && labeled {
                                    self.region_undo.push(RegionUndo::Field(
                                        arr,
                                        idx as usize,
                                        *slot,
                                    ));
                                }
                                *slot = val;
                            }
                            ObjKind::Object { .. } => {
                                return Err(VmError::TypeError("AStore on object"))
                            }
                        }
                    }
                    Op::Base(Instr::ArrayLen) => {
                        let arr = pop!().as_ref()?;
                        match &self.heap.get(arr)?.kind {
                            ObjKind::Array { elems } => {
                                push!(Value::Int(elems.len() as i64));
                            }
                            ObjKind::Object { .. } => {
                                return Err(VmError::TypeError("ArrayLen on object"))
                            }
                        }
                    }
                    Op::Base(Instr::GetStatic(s)) => push!(self.statics[s.0 as usize]),
                    Op::Base(Instr::PutStatic(s)) => {
                        let val = pop!();
                        let idx = s.0 as usize;
                        if self.in_region()
                            && self
                                .static_labels
                                .get(idx)
                                .is_some_and(|p| !p.is_unlabeled())
                        {
                            self.region_undo
                                .push(RegionUndo::Static(idx, self.statics[idx]));
                        }
                        self.statics[idx] = val;
                    }
                    Op::Base(Instr::Add) => int_op!(|a, b| Value::Int(a.wrapping_add(b))),
                    Op::Base(Instr::Sub) => int_op!(|a, b| Value::Int(a.wrapping_sub(b))),
                    Op::Base(Instr::Mul) => int_op!(|a, b| Value::Int(a.wrapping_mul(b))),
                    Op::Base(instr @ (Instr::Div | Instr::Mod)) => {
                        let b = pop!().as_int()?;
                        let a = pop!().as_int()?;
                        if b == 0 {
                            return Err(VmError::DivideByZero);
                        }
                        push!(Value::Int(if matches!(instr, Instr::Div) {
                            a.wrapping_div(b)
                        } else {
                            a.wrapping_rem(b)
                        }));
                    }
                    Op::Base(Instr::Neg) => {
                        let a = pop!().as_int()?;
                        push!(Value::Int(a.wrapping_neg()));
                    }
                    Op::Base(Instr::Not) => {
                        let a = pop!().as_bool()?;
                        push!(Value::Bool(!a));
                    }
                    Op::Base(instr @ (Instr::And | Instr::Or)) => {
                        let b = pop!().as_bool()?;
                        let a = pop!().as_bool()?;
                        push!(Value::Bool(if matches!(instr, Instr::And) {
                            a && b
                        } else {
                            a || b
                        }));
                    }
                    Op::Base(Instr::CmpEq) => {
                        let b = pop!();
                        let a = pop!();
                        push!(Value::Bool(a == b));
                    }
                    Op::Base(Instr::CmpLt) => int_op!(|a, b| Value::Bool(a < b)),
                    Op::Base(Instr::CmpLe) => int_op!(|a, b| Value::Bool(a <= b)),
                    Op::Base(Instr::Jump(t)) => {
                        pc = t as usize;
                        continue;
                    }
                    Op::Base(Instr::JumpIfTrue(t)) => {
                        if pop!().as_bool()? {
                            pc = t as usize;
                            continue;
                        }
                    }
                    Op::Base(Instr::JumpIfFalse(t)) => {
                        if !pop!().as_bool()? {
                            pc = t as usize;
                            continue;
                        }
                    }
                    Op::Base(Instr::Call(callee)) => break Transfer::Call(callee),
                    Op::Base(Instr::CallSecure(callee, spec)) => {
                        break Transfer::CallSecure(callee, spec)
                    }
                    Op::Base(Instr::Return) => {
                        break Transfer::Return(if returns { Some(pop!()) } else { None })
                    }
                    Op::Base(Instr::CopyAndLabel(spec)) => {
                        if !self.in_region() && self.mode != BarrierMode::None {
                            return Err(VmError::LabeledAccessOutsideRegion);
                        }
                        let obj = pop!().as_ref()?;
                        let src = self.object_pair(obj)?;
                        let dst = self.pair_from_spec(spec)?;
                        laminar_difc::check_pair_change(&src, &dst, self.regions.caps())?;
                        let labels = if dst.is_unlabeled() { None } else { Some(dst) };
                        let copy = self.heap.copy_with_labels(obj, labels)?;
                        self.stats.copy_and_label += 1;
                        push!(Value::Ref(copy));
                    }
                    Op::Base(Instr::Throw) => {
                        let code = pop!().as_int()?;
                        return Err(VmError::Thrown(code));
                    }
                    Op::Base(Instr::OsWriteByte(s)) => {
                        let byte = pop!().as_int()?;
                        self.ensure_os_sync()?;
                        let path = &self.program.strings[s.0 as usize];
                        let bridge = self.bridge.as_mut().ok_or_else(no_bridge)?;
                        bridge.write_byte(path, byte as u8).map_err(VmError::Os)?;
                    }
                    Op::Base(Instr::OsReadByte(s)) => {
                        self.ensure_os_sync()?;
                        let path = &self.program.strings[s.0 as usize];
                        let bridge = self.bridge.as_mut().ok_or_else(no_bridge)?;
                        let b = bridge.read_byte(path).map_err(VmError::Os)?;
                        push!(Value::Int(b.map_or(-1, i64::from)));
                    }
                    Op::Base(Instr::Nop) => {}
                    // A fused run makes the checks of its instructions in
                    // their order. Its pushes and pops cancel out except
                    // where noted, so it writes only what outlives it.
                    Op::Fused(Fused::LoadAddStore { a, k, d }) => {
                        self.stats.instructions += 3;
                        let x = values[local!(a, 3)];
                        room!(0, 3);
                        room!(1, 2);
                        let x = int_at!(x, 1);
                        values[local!(d, 0)] = Value::Int(x.wrapping_add(i64::from(k)));
                        pc += 4;
                        continue;
                    }
                    Op::Fused(Fused::LoadIntLtJump { a, k, t }) => {
                        self.stats.instructions += 3;
                        let x = values[local!(a, 3)];
                        room!(0, 3);
                        room!(1, 2);
                        let x = int_at!(x, 1);
                        pc = if x < i64::from(k) { pc + 4 } else { t as usize };
                        continue;
                    }
                    Op::Fused(Fused::LoadLoadLtJump { a, b, t }) => {
                        self.stats.instructions += 3;
                        let x = values[local!(a, 3)];
                        room!(0, 3);
                        let y = values[local!(b, 2)];
                        room!(1, 2);
                        // `CmpLt` pops its right operand first.
                        let y = int_at!(y, 1);
                        let x = int_at!(x, 1);
                        pc = if x < y { pc + 4 } else { t as usize };
                        continue;
                    }
                    Op::Fused(Fused::LoadLoad { a, b }) => {
                        self.stats.instructions += 1;
                        let x = values[local!(a, 1)];
                        room!(0, 1);
                        values[sp] = x;
                        let y = values[local!(b, 0)];
                        room!(1, 0);
                        values[sp + 1] = y;
                        sp += 2;
                        pc += 2;
                        continue;
                    }
                    Op::Fused(Fused::LoadInt { a, k }) => {
                        self.stats.instructions += 1;
                        let x = values[local!(a, 1)];
                        room!(0, 1);
                        room!(1, 0);
                        values[sp] = x;
                        values[sp + 1] = Value::Int(i64::from(k));
                        sp += 2;
                        pc += 2;
                        continue;
                    }
                }
                pc += 1;
            };

            match transfer {
                Transfer::Call(callee) => {
                    if st.frames.len() >= MAX_CALL_DEPTH {
                        return Err(VmError::CallDepthExceeded(MAX_CALL_DEPTH));
                    }
                    let code = self.compiled_for_call(callee)?;
                    if sp - ops < code.params {
                        return Err(VmError::Malformed("missing call arguments"));
                    }
                    // The arguments stay where they are and become the
                    // callee's first locals.
                    let callee_base = sp - code.params;
                    Self::open_frame(&mut st.values, callee_base, &code);
                    sp = callee_base + code.locals;
                    cur.pc = pc + 1;
                    let callee = Frame { code, pc: 0, base: callee_base };
                    st.frames.push(std::mem::replace(&mut cur, callee));
                }
                Transfer::CallSecure(callee, spec) => {
                    sp = self.call_secure(st, ops, sp, callee, spec)?;
                    cur.pc = pc + 1;
                }
                Transfer::Return(result) => {
                    if st.frames.len() == floor {
                        return Ok(result);
                    }
                    let Some(caller) = st.frames.pop() else {
                        return Err(VmError::Malformed("frame stack underflow"));
                    };
                    // The caller's height is where the callee's frame
                    // began: its arguments are consumed.
                    sp = base;
                    cur = caller;
                    if let Some(v) = result {
                        let Some(slot) = st.values.get_mut(sp) else {
                            return Err(VmError::Malformed("operand stack overflow"));
                        };
                        *slot = v;
                        sp += 1;
                    }
                }
            }
        }
    }

    /// Executes `CallSecure(callee, spec)` for a frame whose operands
    /// span `ops..sp`: region entry, the body in a nested [`Self::run`],
    /// suppression, the catch block, rollback and region exit. Returns
    /// the frame's height with the arguments popped, whatever the
    /// outcome.
    fn call_secure(
        &mut self,
        st: &mut Stack,
        ops: usize,
        sp: usize,
        callee: FuncId,
        spec: RegionSpecId,
    ) -> VmResult<usize> {
        let nparams = self
            .program
            .functions
            .get(callee.0 as usize)
            .ok_or(VmError::Malformed("unknown function"))?
            .params as usize;
        if sp - ops < nparams {
            return Err(VmError::Malformed("missing call arguments"));
        }
        if self.regions.depth() >= MAX_REGION_DEPTH {
            return Err(VmError::CallDepthExceeded(MAX_REGION_DEPTH));
        }
        // Entry failures terminate (propagate): §5.1 "the program
        // terminates at L1".
        self.enter_region(spec)?;
        let args = sp - nparams;
        let frames = st.frames.len();
        let catch = self.program.region_specs[spec.0 as usize].catch;
        // The body runs on its own copy of the arguments, above this
        // frame's operands, so the catch block gets the values passed
        // here, not whatever the body left in its slots.
        Self::copy_args(&mut st.values, args, nparams, sp);
        let result = self.run(st, callee, sp);
        // A suppressed error may leave the body's callers suspended; the
        // slots it used are above `sp` and so already dead.
        st.frames.truncate(frames);
        if let Err(e) = result {
            if !Self::suppressible(&e) {
                // Abort: undo the region's labeled writes, then unwind
                // the region before propagating.
                self.abort_region_writes();
                self.exit_region()?;
                return Err(e);
            }
            self.stats.exceptions_suppressed += 1;
            // Run the catch block with the region's labels and the
            // capabilities at exception time; suppress its exceptions too
            // (§4.3.3). The catch sees the region's writes as-is — it
            // exists to repair invariants, so the undo log does not fire.
            if let Some(cfid) = catch {
                let cparams = self.program.functions[cfid.0 as usize].params as usize;
                if cparams <= nparams {
                    Self::copy_args(&mut st.values, args, cparams, sp);
                    let caught = self.run(st, cfid, sp);
                    st.frames.truncate(frames);
                    match caught {
                        Ok(_) => {}
                        Err(ce) if Self::suppressible(&ce) => {
                            self.stats.exceptions_suppressed += 1;
                        }
                        Err(ce) => {
                            self.abort_region_writes();
                            self.exit_region()?;
                            return Err(ce);
                        }
                    }
                }
            } else {
                // No catch: secure termination rolls every labeled write
                // back to the entry snapshot.
                self.abort_region_writes();
            }
        }
        self.exit_region()?;
        Ok(args)
    }

    /// Copies the `n` values at `from` to `to`, growing the value stack
    /// if the copy reaches past its end.
    fn copy_args(values: &mut Vec<Value>, from: usize, n: usize, to: usize) {
        if values.len() < to + n {
            values.resize(to + n, Value::Null);
        }
        values.copy_within(from..from + n, to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn trivial_vm() -> Vm {
        let mut pb = ProgramBuilder::new();
        pb.func("main", 0, false, 0, |b| {
            b.ret();
        });
        Vm::new(pb.finish().unwrap(), vec![], BarrierMode::Dynamic)
    }

    #[test]
    fn exit_without_enter_is_a_typed_error_not_a_panic() {
        let mut vm = trivial_vm();
        assert!(matches!(vm.exit_region(), Err(VmError::RegionUnderflow)));
        // The VM keeps working afterwards (fail-closed, not poisoned).
        assert!(vm.call_by_name("main", &[]).is_ok());
    }

    #[test]
    fn region_underflow_is_not_suppressible() {
        assert!(!Vm::suppressible(&VmError::RegionUnderflow));
    }

    #[test]
    fn abort_outside_any_region_is_a_no_op() {
        let mut vm = trivial_vm();
        vm.abort_region_writes();
        assert_eq!(vm.stats().regions_aborted, 0);
        assert!(vm.region_undo.is_empty());
    }

    /// A verified program, edited through `Program`'s public fields
    /// after `finish`, on a fresh VM with one tag. `main()` returns
    /// `helper(1)`, and `helper(x)` returns `x`.
    fn edited_vm(edit: impl FnOnce(&mut Program)) -> Vm {
        use laminar_difc::CapKind;
        let mut pb = ProgramBuilder::new();
        let g = pb.add_static("g");
        let pair = pb.add_pair_spec(&[0], &[]);
        let catch = pb.func("catch", 0, false, 0, |b| {
            b.ret();
        });
        let _spec = pb.add_region_spec(pair, &[(0, CapKind::Plus)], Some(catch));
        let helper = pb.func("helper", 1, true, 2, |b| {
            b.load(0).ret();
        });
        pb.func("main", 0, true, 1, |b| {
            b.get_static(g).pop();
            b.push_int(1).call(helper).ret();
        });
        let mut program = pb.finish().unwrap();
        edit(&mut program);
        Vm::new(program, vec![Tag::from_raw(1)], BarrierMode::Cloning)
    }

    /// A named edit to a verified program.
    type Edit = Box<dyn FnOnce(&mut Program)>;

    fn body_of<'p>(p: &'p mut Program, name: &str) -> &'p mut Vec<Instr> {
        let f = p.func_by_name(name).unwrap();
        &mut p.functions[f.0 as usize].body
    }

    #[test]
    fn the_unedited_program_runs() {
        let mut vm = edited_vm(|_| {});
        assert_eq!(vm.call_by_name("main", &[]), Ok(Some(Value::Int(1))));
    }

    #[test]
    fn edits_after_finish_fail_verification_before_the_code_runs() {
        use crate::bytecode::{FuncId, StaticId};
        let edits: Vec<(&str, Edit)> = vec![
            ("local out of range", Box::new(|p| body_of(p, "main")[0] = Instr::Load(7))),
            (
                "unknown function",
                Box::new(|p| body_of(p, "main")[3] = Instr::Call(FuncId(99))),
            ),
            (
                "unknown static",
                Box::new(|p| body_of(p, "main")[0] = Instr::GetStatic(StaticId(9))),
            ),
        ];
        for (what, edit) in edits {
            let mut vm = edited_vm(edit);
            let got = vm.call_by_name("main", &[]);
            assert!(matches!(got, Err(VmError::Verify(_))), "{what}: {got:?}");
            assert_eq!(vm.stats().instructions, 0, "{what}: main ran");
        }
    }

    #[test]
    fn an_edited_callee_fails_before_its_first_instruction() {
        let edits: Vec<(&str, Edit)> = vec![
            (
                "local out of range",
                Box::new(|p| body_of(p, "helper")[0] = Instr::Load(2)),
            ),
            (
                "fewer locals than params",
                Box::new(|p| {
                    let f = p.func_by_name("helper").unwrap();
                    p.functions[f.0 as usize].locals = 0;
                }),
            ),
        ];
        for (what, edit) in edits {
            let mut vm = edited_vm(edit);
            let got = vm.call_by_name("main", &[]);
            assert!(matches!(got, Err(VmError::Verify(_))), "{what}: {got:?}");
            // main's GetStatic, Pop, PushInt and Call ran; helper's Load
            // did not.
            assert_eq!(vm.stats().instructions, 4, "{what}");
        }
    }

    #[test]
    fn edited_spec_tables_fail_verification_instead_of_panicking() {
        use crate::bytecode::{FuncId, PairSpecId};
        let edits: Vec<(&str, Edit)> = vec![
            ("static labels", Box::new(|p| p.statics[0].labels = Some(PairSpecId(9)))),
            ("catch function", Box::new(|p| p.region_specs[0].catch = Some(FuncId(99)))),
            ("region pair", Box::new(|p| p.region_specs[0].pair = PairSpecId(9))),
            ("region capability tag", Box::new(|p| p.region_specs[0].caps[0].0 = 5)),
            ("pair spec tag", Box::new(|p| p.pair_specs[0].secrecy = vec![5])),
        ];
        for (what, edit) in edits {
            let mut vm = edited_vm(edit);
            let got = vm.call_by_name("main", &[]);
            assert!(matches!(got, Err(VmError::Verify(_))), "{what}: {got:?}");
            assert_eq!(vm.stats().instructions, 0, "{what}");
        }
    }

    // --- fused runs ---------------------------------------------------------

    use crate::compile::{compile, fuse, lower, Fused};
    use crate::program::FunctionBuilder;

    /// The result of one host call and the VM's counters after it.
    type Outcome = (VmResult<Option<Value>>, VmStats);

    /// Emits part of a function body.
    type Body = fn(&mut FunctionBuilder);

    /// Calls `main(args)` of `program` on a fresh `Cloning` VM whose
    /// compile cache `build` filled.
    fn run_built(
        program: &Program,
        args: &[Value],
        build: impl Fn(&Program, u32, Ctx, bool) -> VmResult<CompiledFunction>,
    ) -> Outcome {
        let mut vm = Vm::new(program.clone(), vec![], BarrierMode::Cloning);
        vm.precompile_with(build).unwrap();
        let got = vm.call_by_name("main", args);
        (got, vm.stats().clone())
    }

    /// The fused run heading slot `pc` of `main`'s out-of-region code.
    fn fused_head(program: &Program, pc: usize) -> Fused {
        let main = program.func_by_name("main").unwrap().0;
        let code = compile(program, main, Ctx::OutRegion, true).unwrap().code;
        match code[pc].op {
            Op::Fused(run) => run,
            op => panic!("slot {pc} holds {op:?}"),
        }
    }

    /// A `main()` whose local 0 holds a non-int (`true`, null or an
    /// array, by `bad`) and local 1 the int 7, then `body`. Returns the
    /// program and the number of instructions before `body`.
    fn with_bad_local(bad: usize, body: Body) -> (Program, usize) {
        let mut pb = ProgramBuilder::new();
        pb.func("main", 0, true, 3, |b| {
            match bad {
                0 => b.push_bool(true),
                1 => b.push_null(),
                _ => b.push_int(1).new_array(),
            };
            b.store(0).push_int(7).store(1);
            body(b);
        });
        (pb.finish().unwrap(), if bad == 2 { 5 } else { 4 })
    }

    #[test]
    fn fused_runs_fail_like_their_instructions_on_non_int_locals() {
        // Each body starts with one fused run and fails in its third
        // instruction: inside the run, or, after a pair, just past it.
        let cases: [(&str, Body); 6] = [
            ("LoadAddStore", |b| {
                b.load(0).push_int(3).add().store(2).load(2).ret();
            }),
            ("LoadIntLtJump", |b| {
                let l = b.new_label();
                b.load(0).push_int(3).cmp_lt().jump_if_false(l).bind(l).load(1).ret();
            }),
            ("LoadLoadLtJump { a: 0", |b| {
                let l = b.new_label();
                b.load(0).load(1).cmp_lt().jump_if_false(l).bind(l).load(1).ret();
            }),
            ("LoadLoadLtJump { a: 1", |b| {
                let l = b.new_label();
                b.load(1).load(0).cmp_lt().jump_if_false(l).bind(l).load(1).ret();
            }),
            ("LoadLoad {", |b| {
                b.load(1).load(0).add().ret();
            }),
            ("LoadInt {", |b| {
                b.load(0).push_int(3).mul().ret();
            }),
        ];
        for (shape, body) in cases {
            for bad in 0..3 {
                let (program, prologue) = with_bad_local(bad, body);
                let run = fused_head(&program, prologue);
                assert!(format!("{run:?}").starts_with(shape), "{run:?} is not {shape}");
                let fused = run_built(&program, &[], compile);
                let unfused = run_built(&program, &[], lower);
                let what = format!("{run:?} with bad local {bad}");
                assert_eq!(fused.0, Err(VmError::TypeError("expected int")), "{what}");
                assert_eq!(fused, unfused, "{what}");
                assert_eq!(fused.1.instructions, prologue as u64 + 3, "{what}");
            }
        }
    }

    /// Checks a verified program cannot fail: a local out of range and
    /// an operand stack too shallow for the run's pushes, made by editing
    /// the lowered code before it is fused.
    #[test]
    fn fused_runs_fail_like_their_instructions_on_edited_code() {
        type Edit = fn(&mut CompiledFunction);
        let local = VmError::Malformed("local index out of range");
        let overflow = VmError::Malformed("operand stack overflow");
        let first_local: Edit = |c| c.code[0].op = Op::Base(Instr::Load(9));
        let second_local: Edit = |c| c.code[1].op = Op::Base(Instr::Load(9));
        let store_local: Edit = |c| c.code[3].op = Op::Base(Instr::Store(9));
        let no_stack: Edit = |c| c.max_stack = 0;
        let one_slot: Edit = |c| c.max_stack = 1;
        fn add_store(b: &mut FunctionBuilder) {
            b.load(0).push_int(1).add().store(2);
        }
        fn int_test(b: &mut FunctionBuilder) {
            b.load(0).push_int(1).cmp_lt().emit(Instr::JumpIfFalse(4));
        }
        fn local_test(b: &mut FunctionBuilder) {
            b.load(0).load(1).cmp_lt().emit(Instr::JumpIfFalse(4));
        }
        fn pair(b: &mut FunctionBuilder) {
            b.load(0).load(1).add().pop();
        }
        fn int_pair(b: &mut FunctionBuilder) {
            b.load(0).push_int(1).add().pop();
        }
        // Every run fails at its head's local, and at each of its two
        // pushes; the runs with a second local or a store fail there too.
        // (body of `main(x, y)`, edit, error, instructions counted)
        let mut cases: Vec<(Body, Edit, &VmError, u64)> = vec![
            (add_store, store_local, &local, 4),
            (local_test, second_local, &local, 2),
            (pair, second_local, &local, 2),
        ];
        for body in [add_store, int_test, local_test, pair, int_pair] {
            cases.push((body, first_local, &local, 1));
            cases.push((body, no_stack, &overflow, 1));
            cases.push((body, one_slot, &overflow, 2));
        }
        let args = [Value::Int(5), Value::Int(9)];
        for (i, (body, edit, err, counted)) in cases.into_iter().enumerate() {
            let mut pb = ProgramBuilder::new();
            pb.func("main", 2, true, 3, |b| {
                body(b);
                b.load(1).ret();
            });
            let program = pb.finish().unwrap();
            let build = |fused: bool| {
                move |p: &Program, f, ctx, optimize| {
                    let mut c = lower(p, f, ctx, optimize)?;
                    edit(&mut c);
                    if fused {
                        fuse(&mut c.code);
                        assert!(matches!(c.code[0].op, Op::Fused(_)), "case {i}");
                    }
                    Ok(c)
                }
            };
            let fused = run_built(&program, &args, build(true));
            let unfused = run_built(&program, &args, build(false));
            assert_eq!(fused.0.as_ref(), Err(err), "case {i}");
            assert_eq!(fused, unfused, "case {i}");
            assert_eq!(fused.1.instructions, counted, "case {i}");
        }
    }

    #[test]
    fn a_branch_into_a_fused_run_executes_the_rest_of_it() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", 1, true, 2, |b| {
            let mid = b.new_label();
            b.push_int(100);
            b.load(0).push_int(0).cmp_lt().jump_if_false(mid);
            b.pop();
            // Reached by falling through: local 0 plus 5; by the branch
            // into the run's second slot: 100 plus 5.
            b.load(0).bind(mid).push_int(5).add().store(1);
            b.load(1).ret();
        });
        let program = pb.finish().unwrap();
        assert_eq!(program.functions[0].body[4], Instr::JumpIfFalse(7));
        assert_eq!(fused_head(&program, 6), Fused::LoadAddStore { a: 0, k: 5, d: 1 });
        for (n, result, counted) in [(3, 105, 10), (-3, 2, 12)] {
            let fused = run_built(&program, &[Value::Int(n)], compile);
            assert_eq!(fused.0, Ok(Some(Value::Int(result))), "main({n})");
            assert_eq!(fused.1.instructions, counted, "main({n})");
            assert_eq!(fused, run_built(&program, &[Value::Int(n)], lower), "main({n})");
        }
    }
}
