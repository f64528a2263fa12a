//! Principals and security regions.
//!
//! Laminar's principals are kernel threads (§3); in this runtime a
//! [`Principal`] binds one kernel task to the VM-level state the paper
//! keeps in the Jikes thread object: the current labels and capabilities
//! and the region stack, one [`laminar_difc::RegionStack`] shared in
//! kind with the MiniVM.
//!
//! [`Principal::secure`] is the `secure(..) {..} catch {..}` construct
//! (§4.2/§4.3): a lexically scoped closure that runs with the region's
//! labels and capabilities; every exception inside is handled by the
//! catch closure and then suppressed, so code after the region cannot
//! observe the region's control flow (the Figure 5 guarantee).

use crate::error::{LaminarError, LaminarResult};
use crate::labeled::Labeled;
use crate::stats::{RegionSampler, RegionTimer, RuntimeStats};
use laminar_difc::{
    CapKind, CapSet, Capability, Label, LabelType, RegionDebt, RegionStack, SecPair, Tag,
};
use laminar_os::{OsError, OsResult, TaskHandle, UserId};
use laminar_util::sync::Mutex;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// VM-level thread state (the paper's per-thread label/capability cache,
/// §5.1 "The JVM then caches a copy of the current capabilities of each
/// thread to make the checks efficient inside the security region").
///
/// The principal's counters live here too, so that a region entry or
/// exit and every barrier check and count under one lock.
#[derive(Debug)]
pub(crate) struct ThreadState {
    pub(crate) regions: RegionStack,
    /// The region timer, running only in a timed outermost region.
    timer: Option<RegionTimer>,
    pub(crate) stats: RuntimeStats,
    sampler: RegionSampler,
}

impl ThreadState {
    pub(crate) fn new(caps: CapSet) -> Self {
        ThreadState {
            regions: RegionStack::new(caps),
            timer: None,
            stats: RuntimeStats::default(),
            sampler: RegionSampler::default(),
        }
    }
}

/// Tells `task` the innermost region's context if it does not carry it
/// yet (§4.4's lazy sync): suspends the capabilities the region did not
/// keep and pushes its labels through the trusted `tcb` thread `vm_task`.
/// Returns whether a sync was made.
pub(crate) fn sync_region(
    task: &TaskHandle,
    vm_task: &TaskHandle,
    regions: &mut RegionStack,
) -> OsResult<bool> {
    if !regions.needs_sync() {
        return Ok(false);
    }
    let (suspend, labels) = regions.sync(&task.current_caps()?);
    if !suspend.is_empty() {
        task.drop_capabilities(&suspend.iter().collect::<Vec<_>>())?;
    }
    if let Some(labels) = labels {
        vm_task.set_task_labels_tcb(task.id(), labels)?;
    }
    regions.synced();
    Ok(true)
}

/// Pays what an exited region owes `task` through the trusted `tcb`
/// thread `vm_task`: the thread itself may lack the minus capabilities
/// (§4.4).
pub(crate) fn settle_region(
    task: &TaskHandle,
    vm_task: &TaskHandle,
    debt: &RegionDebt,
) -> OsResult<()> {
    if debt.drop_labels {
        vm_task.set_task_labels_tcb(task.id(), SecPair::unlabeled())?;
    }
    if !debt.regrant.is_empty() {
        vm_task.grant_capabilities_tcb(task.id(), &debt.regrant)?;
    }
    Ok(())
}

thread_local! {
    /// Thread states of the principals whose regions are active on this
    /// OS thread — the lookup table for *dynamic barriers*
    /// ([`Labeled::read_dyn`]), which must discover the region context at
    /// run time exactly like the paper's dynamic-barrier configuration.
    static REGION_CTX: RefCell<Vec<Arc<Mutex<ThreadState>>>> =
        const { RefCell::new(Vec::new()) };
}

pub(crate) fn with_dynamic_ctx<R>(
    f: impl FnOnce(Option<&Arc<Mutex<ThreadState>>>) -> R,
) -> R {
    REGION_CTX.with(|ctx| f(ctx.borrow().last()))
}

/// The parameters of a security region: labels and the capability subset
/// it runs with (Fig. 4's `secure({S(a,b), I(i), C(a-)})` literal).
#[derive(Clone, Debug, Default)]
pub struct RegionParams {
    secrecy: Label,
    integrity: Label,
    caps: CapSet,
}

impl RegionParams {
    /// A region with empty labels and no capabilities.
    #[must_use]
    pub fn new() -> Self {
        RegionParams::default()
    }

    /// Sets the secrecy label.
    #[must_use]
    pub fn secrecy(mut self, label: Label) -> Self {
        self.secrecy = label;
        self
    }

    /// Sets the integrity label.
    #[must_use]
    pub fn integrity(mut self, label: Label) -> Self {
        self.integrity = label;
        self
    }

    /// Grants one capability to the region (chainable).
    #[must_use]
    pub fn grant(mut self, cap: Capability) -> Self {
        self.caps.grant(cap);
        self
    }

    /// Grants a whole capability set.
    #[must_use]
    pub fn grant_all(mut self, caps: &CapSet) -> Self {
        self.caps = self.caps.union(caps);
        self
    }

    /// The region's label pair.
    #[must_use]
    pub fn pair(&self) -> SecPair {
        SecPair::new(self.secrecy.clone(), self.integrity.clone())
    }

    /// The region's capability set.
    #[must_use]
    pub fn caps(&self) -> &CapSet {
        &self.caps
    }
}

/// A kernel-thread principal bound to the Laminar runtime.
///
/// Obtained from [`crate::Laminar::login`] (or
/// [`Principal::spawn_thread`]); owned by one OS thread at a time
/// (`Send`, not shared).
#[derive(Debug)]
pub struct Principal {
    task: TaskHandle,
    /// The process's trusted `tcb` thread (§4.4), shared by its principals.
    pub(crate) vm_task: TaskHandle,
    state: Arc<Mutex<ThreadState>>,
}

impl Principal {
    pub(crate) fn new(task: TaskHandle, vm_task: TaskHandle, caps: CapSet) -> Self {
        Principal { task, vm_task, state: Arc::new(Mutex::new(ThreadState::new(caps))) }
    }

    /// The underlying kernel task (for direct OS syscalls outside
    /// security regions — labels there are empty, so the kernel's own
    /// checks suffice).
    #[must_use]
    pub fn task(&self) -> &TaskHandle {
        &self.task
    }

    /// Is this principal currently executing inside a security region?
    #[must_use]
    pub fn in_region(&self) -> bool {
        self.state.lock().regions.in_region()
    }

    /// The principal's current labels (empty outside security regions).
    #[must_use]
    pub fn current_labels(&self) -> SecPair {
        self.state.lock().regions.labels().clone()
    }

    /// The principal's current capability set.
    #[must_use]
    pub fn current_caps(&self) -> CapSet {
        self.state.lock().regions.caps().clone()
    }

    /// The user this principal runs as.
    ///
    /// # Errors
    /// Fails if the kernel task has exited.
    pub fn user(&self) -> LaminarResult<UserId> {
        self.task.user().map_err(LaminarError::from)
    }

    /// Runtime statistics accumulated by this principal.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.state.lock().stats.clone()
    }

    /// Resets the statistics, and with them the region timer's sample:
    /// the next outermost regions are timed exactly again.
    pub fn reset_stats(&self) {
        let mut st = self.state.lock();
        st.stats = RuntimeStats::default();
        st.sampler = RegionSampler::default();
    }

    /// Allocates a fresh tag, granting this principal both capabilities
    /// (the `createAndAddCapability` API of Fig. 2, outside-region form).
    ///
    /// # Errors
    /// Fails if the kernel task has exited.
    pub fn create_tag(&self) -> LaminarResult<Tag> {
        let tag = self.task.alloc_tag()?;
        let mut st = self.state.lock();
        st.regions.grant(Capability::plus(tag));
        st.regions.grant(Capability::minus(tag));
        st.stats.caps_created += 1;
        Ok(tag)
    }

    /// Receives a capability from a pipe fd (the kernel-mediated
    /// `write_capability` transfer of Fig. 3), registering it with both
    /// the kernel task and the runtime's cached capability state. The
    /// received capability persists across region exits like any other
    /// gained capability (§4.4).
    ///
    /// # Errors
    /// Propagates kernel errors (bad fd, labels forbidding the receive).
    pub fn receive_capability(
        &self,
        fd: laminar_os::Fd,
    ) -> LaminarResult<Option<Capability>> {
        let cap = self.task.read_capability(fd)?;
        if let Some(c) = cap {
            self.state.lock().regions.grant(c);
        }
        Ok(cap)
    }

    /// Spawns a sibling kernel thread with a subset of this principal's
    /// capabilities (`None` = all), returning its [`Principal`]. The new
    /// thread starts outside any region with empty labels.
    ///
    /// # Errors
    /// [`laminar_os::OsError::PermissionDenied`] on a capability superset.
    pub fn spawn_thread(&self, caps: Option<CapSet>) -> LaminarResult<Principal> {
        // Kernel-level spawn uses the *kernel* capability set; VM-level
        // current caps may be narrower inside a region, so the subset
        // check against VM caps is done here.
        if let Some(ref c) = caps {
            if !c.is_subset_of(self.state.lock().regions.caps()) {
                return Err(LaminarError::Os(OsError::PermissionDenied(
                    "thread capabilities must be a subset of the spawner's",
                )));
            }
        }
        let effective = caps.unwrap_or_else(|| self.current_caps());
        let task = self.task.spawn_thread(Some(effective.clone()))?;
        Ok(Principal::new(task, self.vm_task.clone(), effective))
    }

    // --- security regions ---------------------------------------------------

    /// Enters a region: decides whether it is an outermost region to
    /// time, checks the §4.3.2 entry rules, saves the thread's context
    /// and counts the entry, all under one lock.
    fn enter_region(&self, params: &RegionParams) -> LaminarResult<()> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        // The timer starts before the entry checks, so a timed span
        // covers entry, body, catch and exit, as Table 3's "% of time in
        // security regions" is accounted. Only outermost regions are
        // timed, so nesting is not double-counted.
        let outermost = !st.regions.in_region();
        let timer = if outermost { st.sampler.start(&st.stats) } else { None };
        st.regions
            .enter(params.pair(), params.caps.clone())
            .map_err(LaminarError::RegionEntry)?;
        if outermost {
            st.timer = timer;
        }
        st.stats.regions_entered += 1;
        Ok(())
    }

    /// Leaves the innermost region: restores the outer context, pays the
    /// kernel task what the region owes it, and adds the exceptions the
    /// region suppressed and its timed span.
    fn exit_region(&self, suppressed: u64) -> LaminarResult<()> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        st.stats.exceptions_suppressed += suppressed;
        // An exit with no matching entry is an internal invariant break;
        // surface it fail-closed instead of unwinding with the lock held.
        // The outer context is back before any kernel call that can fail:
        // a failure then leaves at most the kernel task with the region's
        // labels.
        let exit = st
            .regions
            .exit()
            .ok_or(LaminarError::Internal("region exit without entry"))?;
        if exit.elided {
            st.stats.os_syncs_elided += 1;
        }
        let paid = settle_region(&self.task, &self.vm_task, &exit.debt);
        if !st.regions.in_region() {
            if let Some(timer) = st.timer.take() {
                st.stats.stop(timer);
            }
        }
        paid.map_err(LaminarError::from)
    }

    /// Pushes the region's security context to the kernel task if a
    /// syscall is about to happen ([`sync_region`]). A region that makes
    /// no syscall costs no kernel traffic at all.
    pub(crate) fn ensure_os_sync(&self) -> LaminarResult<()> {
        let mut st = self.state.lock();
        if sync_region(&self.task, &self.vm_task, &mut st.regions)? {
            st.stats.os_syncs += 1;
        }
        Ok(())
    }

    /// Runs `body` in a lexically scoped security region with the given
    /// labels and capabilities; `catch` is the required catch block
    /// (§4.3.3), run with the region's labels when `body` raises.
    ///
    /// Returns `Ok(Some(value))` if the body completed, or `Ok(None)` if
    /// an exception was confined to the region (including panics — the
    /// analogue of the VM suppressing all uncaught exceptions). Code
    /// after `secure` therefore cannot distinguish the region's internal
    /// control flow, which is how Laminar bounds implicit flows.
    ///
    /// # Errors
    ///
    /// Region *entry* failures (§4.3.2) are reported as `Err` — the
    /// paper terminates the program at that point (Fig. 7: "the program
    /// terminates at L1"). So is a failed kernel call at exit, which
    /// drops the region's labels from the kernel task or gives back the
    /// capabilities the region suspended. The principal is then already
    /// outside the region with its outer labels and capabilities, and
    /// the kernel task may keep the region's labels.
    ///
    /// # Panics
    ///
    /// Never panics on body panics (they are confined); panics only on
    /// runtime-internal invariant failures.
    pub fn secure<R>(
        &self,
        params: &RegionParams,
        body: impl FnOnce(&RegionGuard<'_>) -> LaminarResult<R>,
        catch: impl FnOnce(&RegionGuard<'_>),
    ) -> LaminarResult<Option<R>> {
        self.enter_region(params)?;
        REGION_CTX.with(|ctx| ctx.borrow_mut().push(Arc::clone(&self.state)));

        let guard = RegionGuard { principal: self };
        let outcome = catch_unwind(AssertUnwindSafe(|| body(&guard)));

        let (result, suppressed) = match outcome {
            Ok(Ok(v)) => (Some(v), 0),
            Ok(Err(_)) | Err(_) => {
                // The catch block runs with the region's labels and the
                // capability set at exception time; its own exceptions
                // are suppressed too.
                let catch_outcome = catch_unwind(AssertUnwindSafe(|| catch(&guard)));
                (None, if catch_outcome.is_err() { 2 } else { 1 })
            }
        };

        REGION_CTX.with(|ctx| {
            ctx.borrow_mut().pop();
        });
        self.exit_region(suppressed)?;
        Ok(result)
    }
}

/// Capability token proving execution inside a security region; the
/// handle through which labeled data and the Laminar library API
/// (Fig. 2) are reached.
#[derive(Debug)]
pub struct RegionGuard<'p> {
    principal: &'p Principal,
}

impl RegionGuard<'_> {
    pub(crate) fn state(&self) -> &Arc<Mutex<ThreadState>> {
        &self.principal.state
    }

    /// `getCurrentLabel` (Fig. 2): the region's secrecy or integrity
    /// label.
    #[must_use]
    pub fn current_label(&self, ty: LabelType) -> Label {
        self.principal.state.lock().regions.labels().label(ty).clone()
    }

    /// Both current labels.
    #[must_use]
    pub fn current_labels(&self) -> SecPair {
        self.principal.state.lock().regions.labels().clone()
    }

    /// The region's current capability set.
    #[must_use]
    pub fn current_caps(&self) -> CapSet {
        self.principal.state.lock().regions.caps().clone()
    }

    /// `createAndAddCapability` (Fig. 2): mints a tag and grants both
    /// capabilities to the principal. The capability persists after the
    /// region exits unless explicitly removed (§4.4).
    ///
    /// # Errors
    /// Fails if the kernel task has exited.
    pub fn create_and_add_capability(&self) -> LaminarResult<Tag> {
        self.principal.create_tag()
    }

    /// `removeCapability` (Fig. 2): drops a capability. With
    /// `global = true` the drop is permanent, in the kernel task too;
    /// otherwise it is scoped to this security region and restored at
    /// exit, and the kernel task gives it up at the region's next syscall
    /// (the sync suspends it).
    ///
    /// # Errors
    /// Fails if the kernel task has exited (global drops only).
    pub fn remove_capability(
        &self,
        tag: Tag,
        kind: CapKind,
        global: bool,
    ) -> LaminarResult<()> {
        let cap = match kind {
            CapKind::Plus => Capability::plus(tag),
            CapKind::Minus => Capability::minus(tag),
        };
        let mut st = self.principal.state.lock();
        if global {
            self.principal.task.drop_capabilities(&[cap])?;
        }
        st.regions.revoke(cap, global);
        Ok(())
    }

    /// Allocates a labeled cell carrying this region's current labels
    /// (§4.5: objects allocated in a region take the region's labels).
    #[must_use]
    pub fn new_labeled<T>(&self, value: T) -> Labeled<T> {
        let mut st = self.principal.state.lock();
        st.stats.labeled_allocs += 1;
        let labels = st.regions.labels().clone();
        drop(st);
        Labeled::with_labels_unchecked(value, labels)
    }

    /// Allocates a labeled cell with explicit alternate labels, which
    /// must conform to the DIFC rules (the thread must be able to write
    /// the new cell).
    ///
    /// # Errors
    /// [`LaminarError::Flow`] if the region cannot write such a cell.
    pub fn new_labeled_with<T>(
        &self,
        value: T,
        labels: SecPair,
    ) -> LaminarResult<Labeled<T>> {
        let mut st = self.principal.state.lock();
        st.regions.labels().can_flow_to(&labels)?;
        st.stats.labeled_allocs += 1;
        drop(st);
        Ok(Labeled::with_labels_unchecked(value, labels))
    }

    /// `copyAndLabel` (Fig. 2): clones a cell under new labels. Legal iff
    /// the label-change rule (§3.2) passes with the region's current
    /// capabilities — this is Laminar's declassification/endorsement
    /// primitive.
    ///
    /// # Errors
    /// [`LaminarError::LabelChange`] when a capability is missing.
    pub fn copy_and_label<T: Clone>(
        &self,
        source: &Labeled<T>,
        labels: SecPair,
    ) -> LaminarResult<Labeled<T>> {
        let mut st = self.principal.state.lock();
        laminar_difc::check_pair_change(source.labels(), &labels, st.regions.caps())?;
        st.stats.copies += 1;
        st.stats.labeled_allocs += 1;
        drop(st);
        Ok(Labeled::with_labels_unchecked(source.clone_value(), labels))
    }

    /// Access to the kernel task for syscalls from inside the region.
    /// Performs the lazy VM→OS label synchronisation first, so the OS
    /// mediates the syscall under the region's labels (§4.4).
    ///
    /// # Errors
    /// Fails if the label push is rejected (task exited).
    pub fn os(&self) -> LaminarResult<&TaskHandle> {
        self.principal.ensure_os_sync()?;
        Ok(&self.principal.task)
    }

    /// Enters a nested security region (§4.3.2 nesting rules apply
    /// against this region's labels and capabilities).
    ///
    /// # Errors
    /// As [`Principal::secure`].
    pub fn secure<R>(
        &self,
        params: &RegionParams,
        body: impl FnOnce(&RegionGuard<'_>) -> LaminarResult<R>,
        catch: impl FnOnce(&RegionGuard<'_>),
    ) -> LaminarResult<Option<R>> {
        self.principal.secure(params, body, catch)
    }

    /// Raises an application exception: confined to this region, handled
    /// by the catch block. (Convenience for `Err(LaminarError::App(..))`.)
    pub fn throw<T>(&self, msg: impl Into<String>) -> LaminarResult<T> {
        Err(LaminarError::App(msg.into()))
    }
}
