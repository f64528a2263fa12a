//! Principals and security regions.
//!
//! Laminar's principals are kernel threads (§3); in this runtime a
//! [`Principal`] binds one kernel task to the VM-level state the paper
//! keeps in the Jikes thread object: the current labels and capabilities,
//! the region stack, and the lazy kernel-synchronisation flag.
//!
//! [`Principal::secure`] is the `secure(..) {..} catch {..}` construct
//! (§4.2/§4.3): a lexically scoped closure that runs with the region's
//! labels and capabilities; every exception inside is handled by the
//! catch closure and then suppressed, so code after the region cannot
//! observe the region's control flow (the Figure 5 guarantee).

use crate::error::{LaminarError, LaminarResult};
use crate::labeled::Labeled;
use crate::stats::RuntimeStats;
use laminar_difc::{CapKind, CapSet, Capability, Label, LabelType, SecPair, Tag};
use laminar_os::{TaskHandle, UserId};
use laminar_util::sync::Mutex;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// One security-region stack frame.
#[derive(Debug)]
struct Frame {
    saved_labels: SecPair,
    saved_caps: CapSet,
    /// Kernel capabilities suspended for the scope of this region
    /// (`drop_capabilities` with the tmp flag; restored at exit).
    /// Filled in lazily at the first syscall — a region that never
    /// enters the kernel costs no kernel traffic at all (§4.4's lazy
    /// `set_task_label` optimization, extended to capability state).
    suspended: CapSet,
}

/// VM-level thread state (the paper's per-thread label/capability cache,
/// §5.1 "The JVM then caches a copy of the current capabilities of each
/// thread to make the checks efficient inside the security region").
///
/// The principal's counters live here too, so that a region entry or
/// exit and every barrier check and count under one lock.
#[derive(Debug)]
pub(crate) struct ThreadState {
    pub(crate) labels: SecPair,
    pub(crate) caps: CapSet,
    frames: Vec<Frame>,
    /// Kernel task currently carries `labels` (lazy sync, §4.4).
    synced: bool,
    pub(crate) stats: RuntimeStats,
}

impl ThreadState {
    pub(crate) fn new(caps: CapSet) -> Self {
        ThreadState {
            labels: SecPair::unlabeled(),
            caps,
            frames: Vec::new(),
            synced: false,
            stats: RuntimeStats::default(),
        }
    }

    /// Is the thread currently inside any security region?
    pub(crate) fn in_region(&self) -> bool {
        !self.frames.is_empty()
    }
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

/// Checks the security-region entry rules of §4.3.2
/// ([`laminar_difc::check_region_entry`]) for a thread with the given
/// `labels` and `caps` against `params`, without entering.
/// [`Principal::secure`] runs exactly this check before swapping in the
/// region's context; it is public so the model-based conformance
/// testkit can replay region-entry events against its reference oracle.
///
/// # Errors
/// [`LaminarError::RegionEntry`] naming the violated rule.
pub fn check_region_entry(
    labels: &SecPair,
    caps: &CapSet,
    params: &RegionParams,
) -> LaminarResult<()> {
    laminar_difc::check_region_entry(
        labels,
        caps,
        &params.secrecy,
        &params.integrity,
        &params.caps,
    )
    .map_err(LaminarError::RegionEntry)
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
        self.state.lock().in_region()
    }

    /// The principal's current labels (empty outside security regions).
    #[must_use]
    pub fn current_labels(&self) -> SecPair {
        self.state.lock().labels.clone()
    }

    /// The principal's current capability set.
    #[must_use]
    pub fn current_caps(&self) -> CapSet {
        self.state.lock().caps.clone()
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

    /// Resets the statistics.
    pub fn reset_stats(&self) {
        self.state.lock().stats = RuntimeStats::default();
    }

    /// Allocates a fresh tag, granting this principal both capabilities
    /// (the `createAndAddCapability` API of Fig. 2, outside-region form).
    ///
    /// # Errors
    /// Fails if the kernel task has exited.
    pub fn create_tag(&self) -> LaminarResult<Tag> {
        let tag = self.task.alloc_tag()?;
        let mut st = self.state.lock();
        st.caps.grant_both(tag);
        for f in &mut st.frames {
            f.saved_caps.grant_both(tag);
        }
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
            let mut st = self.state.lock();
            st.caps.grant(c);
            for f in &mut st.frames {
                f.saved_caps.grant(c);
            }
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
            let st = self.state.lock();
            if !c.is_subset_of(&st.caps) {
                return Err(LaminarError::RegionEntry(
                    "thread capabilities must be a subset of the spawner's",
                ));
            }
        }
        let effective = caps.unwrap_or_else(|| self.current_caps());
        let task = self.task.spawn_thread(Some(effective.clone()))?;
        Ok(Principal::new(task, self.vm_task.clone(), effective))
    }

    // --- security regions ---------------------------------------------------

    /// Enters a region: decides whether it is the outermost one, checks
    /// the §4.3.2 entry rules, saves the thread's context and counts the
    /// entry, all under one lock.
    fn enter_region(&self, params: &RegionParams) -> LaminarResult<bool> {
        let mut st = self.state.lock();
        let outermost = !st.in_region();
        check_region_entry(&st.labels, &st.caps, params)?;
        let saved_labels = std::mem::replace(&mut st.labels, params.pair());
        let saved_caps = std::mem::replace(&mut st.caps, params.caps.clone());
        st.frames.push(Frame { saved_labels, saved_caps, suspended: CapSet::new() });
        st.synced = false;
        st.stats.regions_entered += 1;
        Ok(outermost)
    }

    /// Leaves the innermost region, adding the exceptions it suppressed
    /// and, for the outermost region, the time since `started`.
    fn exit_region(
        &self,
        suppressed: u64,
        started: Option<Instant>,
    ) -> LaminarResult<()> {
        let mut st = self.state.lock();
        st.stats.exceptions_suppressed += suppressed;
        // An exit with no matching entry is an internal invariant break;
        // surface it fail-closed instead of unwinding with the lock held.
        let frame =
            st.frames.pop().ok_or(LaminarError::Internal("region exit without entry"))?;
        if st.synced {
            // The kernel task carries the region's labels; only the
            // trusted tcb thread can drop them — the thread itself may
            // lack the minus capabilities (§4.4).
            self.vm_task.set_task_labels_tcb(self.task.id(), SecPair::unlabeled())?;
        } else if !st.labels.is_unlabeled() {
            st.stats.os_syncs_elided += 1;
        }
        st.synced = false;
        if !frame.suspended.is_empty() {
            // Restore capabilities suspended for the region's scope.
            self.vm_task.grant_capabilities_tcb(self.task.id(), &frame.suspended)?;
        }
        st.labels = frame.saved_labels;
        st.caps = frame.saved_caps;
        if let Some(started) = started {
            st.stats.region_ns += started.elapsed().as_nanos() as u64;
        }
        Ok(())
    }

    /// Pushes the region's security context to the kernel task if a
    /// syscall is about to happen: labels (lazy `set_task_label`, §4.4)
    /// and the suspension of capabilities the region does not retain
    /// (lazy `drop_capabilities` with the tmp flag). A region that makes
    /// no syscall costs no kernel traffic at all.
    pub(crate) fn ensure_os_sync(&self) -> LaminarResult<()> {
        let mut st = self.state.lock();
        if st.synced || st.frames.is_empty() {
            return Ok(());
        }
        // Align the kernel's capability view with the region's: suspend
        // everything the region did not retain, remember it for restore.
        let kernel_caps = self.task.current_caps()?;
        let to_suspend: CapSet =
            kernel_caps.iter().filter(|c| !st.caps.has(*c)).collect();
        if !to_suspend.is_empty() {
            let drops: Vec<Capability> = to_suspend.iter().collect();
            self.task.drop_capabilities(&drops)?;
            // Non-empty frames were checked at function entry; treat a
            // vanished frame as an internal fault rather than unwinding.
            let frame = st
                .frames
                .last_mut()
                .ok_or(LaminarError::Internal("capability sync outside a region"))?;
            frame.suspended = frame.suspended.union(&to_suspend);
        }
        if !st.labels.is_unlabeled() {
            self.vm_task.set_task_labels_tcb(self.task.id(), st.labels.clone())?;
        }
        st.synced = true;
        st.stats.os_syncs += 1;
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
    /// Only region *entry* failures (§4.3.2) are reported as `Err` — the
    /// paper terminates the program at that point (Fig. 7: "the program
    /// terminates at L1").
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
        // The region timer covers the whole secure block — entry checks,
        // body, catch, and exit restoration — matching how Table 3's
        // "% of time in security regions" is accounted. Only the
        // outermost region accounts, so nesting is not double-counted.
        let started = Instant::now();
        let outermost = self.enter_region(params)?;
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
        self.exit_region(suppressed, outermost.then_some(started))?;
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
        self.principal.state.lock().labels.label(ty).clone()
    }

    /// Both current labels.
    #[must_use]
    pub fn current_labels(&self) -> SecPair {
        self.principal.state.lock().labels.clone()
    }

    /// The region's current capability set.
    #[must_use]
    pub fn current_caps(&self) -> CapSet {
        self.principal.state.lock().caps.clone()
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
    /// `global = true` the drop is permanent; otherwise it is scoped to
    /// this security region and restored at exit.
    ///
    /// # Errors
    /// Fails if the kernel task has exited.
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
        self.principal.task.drop_capabilities(&[cap])?;
        let mut st = self.principal.state.lock();
        st.caps.revoke(cap);
        if global {
            for f in &mut st.frames {
                f.saved_caps.revoke(cap);
                f.suspended.revoke(cap);
            }
        } else if let Some(top) = st.frames.last_mut() {
            // Scoped drop: the capability re-appears when this region
            // exits (it is already recorded in saved_caps; make sure the
            // kernel re-grant at exit includes it).
            top.suspended.grant(cap);
        }
        Ok(())
    }

    /// Allocates a labeled cell carrying this region's current labels
    /// (§4.5: objects allocated in a region take the region's labels).
    #[must_use]
    pub fn new_labeled<T>(&self, value: T) -> Labeled<T> {
        let mut st = self.principal.state.lock();
        st.stats.labeled_allocs += 1;
        let labels = st.labels.clone();
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
        st.labels.can_flow_to(&labels)?;
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
        laminar_difc::check_pair_change(source.labels(), &labels, &st.caps)?;
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
