//! The simulated kernel: sharded task/process/inode tables, boot, login,
//! the parallel syscall dispatcher, and the glue that invokes LSM hooks.
//!
//! The Laminar OS "extends a standard operating system with a Laminar
//! security module for information flow control" (§4.1). Here the
//! "standard operating system" is this crate's simulated kernel; the
//! security module is pluggable ([`crate::lsm::SecurityModule`]) so the
//! very same kernel can run with [`crate::lsm::NullModule`] (stock Linux
//! baseline) or [`crate::laminar_lsm::LaminarModule`] — which is exactly
//! how Table 2 of the paper compares unmodified Linux against Laminar.
//!
//! The kernel has no big lock: state lives in the sharded tables of
//! [`crate::shard`], syscalls lock only the shards they touch (in the
//! total order, shared where they only read), and syscalls from
//! distinct tasks run in parallel unless one of them needs exclusive
//! mode on a shard the other holds. A syscall whose outcome something
//! records takes an atomic *commit ticket* while still holding its
//! shard locks: every syscall while the commit log is on, and otherwise
//! denials, rollbacks and successes whose audit span recorded a
//! decision. With the commit log on, the ticket order is a
//! linearization witness the conformance testkit replays through its
//! single-threaded oracle. A success nothing records takes no ticket,
//! so it writes no kernel-wide cache line: its hook count goes to a
//! per-thread stripe of the kernel's hook counter.

use crate::error::{OsError, OsResult};
use crate::lsm::{Access, SecurityModule};
use crate::shard::{Footprint, InodeIds, ShardKey, ShardMode, Tables, SHARD_COUNT};
use crate::task::{ProcessId, ProcessStruct, TaskId, TaskSec, TaskStruct, UserId};
use crate::txn::{IdCache, Intent, Quotas, Txn};
use crate::vfs::file::Fd;
use crate::vfs::inode::{Inode, InodeId, InodeKind, Xattrs};
use crate::vfs::pipe::PipeBuffer;
use laminar_difc::{CapSet, Label, LabelType, SecPair, Tag, TagAllocator};
use laminar_util::sync::{CachePadded, Mutex};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// One entry of the commit-order log: syscall `seq` (the commit ticket)
/// was committed on behalf of `task`. Tickets are taken while the
/// syscall still holds its shard locks, so for any two syscalls that
/// touched a common shard the ticket order matches the order their
/// effects were applied — the log is a valid linearization witness.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CommitRecord {
    /// Kernel-wide commit ticket (1-based). While the commit log is on
    /// every syscall takes one, so the log's tickets are dense across
    /// all threads; with it off only recorded outcomes take one (see
    /// [`Kernel::syscall_on`]).
    pub seq: u64,
    /// Task the syscall ran as.
    pub task: TaskId,
}

thread_local! {
    static LAST_SEQ: Cell<u64> = const { Cell::new(0) };
    /// See [`Kernel::last_undo_bytes_for_test`].
    pub(crate) static LAST_UNDO_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A one-shot failpoint armed inside the kernel by the conformance
/// testkit. Exactly one may be armed at a time; it fires at most once
/// (disarming itself) and records that it fired.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SyscallFailpoint {
    /// Panic inside the next LSM hook invocation — an internal fault in
    /// the middle of a syscall body, after some state may have been
    /// staged.
    PanicAtHook,
    /// Panic after the next syscall body *succeeds*, just before commit —
    /// a mid-syscall abort at the latest possible point.
    AbortLate,
    /// Make the next resource allocation (inode, fd, tag) report quota
    /// exhaustion.
    QuotaNext,
}

/// Shared failpoint state (see [`SyscallFailpoint`]): one word holding
/// the armed failpoint's code, or [`Failpoints::FIRED`] once it fired.
/// Disarmed, it is only ever read, so the hooks, allocations and
/// commits that test it write nothing kernel-wide. A failpoint that
/// fires ends its attempt with a panic or a typed error, never a
/// footprint restart, so a restart has no arming to rewind.
#[derive(Default)]
pub(crate) struct Failpoints(AtomicU8);

impl Failpoints {
    const NONE: u8 = 0;
    const PANIC_AT_HOOK: u8 = 1;
    const ABORT_LATE: u8 = 2;
    const QUOTA_NEXT: u8 = 3;
    const FIRED: u8 = 4;

    fn arm(&self, fp: SyscallFailpoint) {
        let code = match fp {
            SyscallFailpoint::PanicAtHook => Self::PANIC_AT_HOOK,
            SyscallFailpoint::AbortLate => Self::ABORT_LATE,
            SyscallFailpoint::QuotaNext => Self::QUOTA_NEXT,
        };
        self.0.store(code, Ordering::SeqCst);
    }

    fn take_fired(&self) -> bool {
        self.0.swap(Self::NONE, Ordering::SeqCst) == Self::FIRED
    }

    /// Fires the failpoint `code` if it is armed: one relaxed load
    /// otherwise.
    fn take_if(&self, code: u8) -> bool {
        self.0.load(Ordering::Relaxed) == code
            && self
                .0
                .compare_exchange(code, Self::FIRED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
    }

    pub(crate) fn fire_panic_at_hook(&self) {
        if self.take_if(Self::PANIC_AT_HOOK) {
            panic!("injected failpoint: panic inside LSM hook");
        }
    }

    pub(crate) fn fire_abort_late(&self) {
        if self.take_if(Self::ABORT_LATE) {
            panic!("injected failpoint: abort before syscall commit");
        }
    }

    pub(crate) fn take_quota(&self) -> bool {
        self.take_if(Self::QUOTA_NEXT)
    }
}

/// Hook-count stripes per kernel. Threads pick a stripe round-robin, so
/// up to this many threads count hooks without sharing a cache line.
const HOOK_STRIPES: usize = 8;

/// The kernel's count of LSM hook invocations, striped per thread: a
/// syscall adds to its thread's stripe, and [`HookCounter::sum`] adds
/// the stripes. Every addition lands in some stripe, so the sum is exact
/// once the adding threads are done.
#[derive(Default)]
pub(crate) struct HookCounter([CachePadded<AtomicU64>; HOOK_STRIPES]);

impl HookCounter {
    /// Adds `n` to the calling thread's stripe.
    pub(crate) fn add(&self, n: u64) {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % HOOK_STRIPES;
        }
        self.0[STRIPE.with(|s| *s)].fetch_add(n, Ordering::Relaxed);
    }

    /// The total over all stripes.
    fn sum(&self) -> u64 {
        self.0.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
}

/// The simulated kernel. Create one with [`Kernel::boot`], obtain task
/// handles with [`Kernel::login`], and issue syscalls through
/// [`TaskHandle`] methods.
///
/// # Examples
///
/// ```
/// use laminar_os::{Kernel, LaminarModule, OpenMode, UserId};
///
/// # fn main() -> Result<(), laminar_os::OsError> {
/// let kernel = Kernel::boot(LaminarModule);
/// kernel.add_user(UserId(1), "alice");
/// let shell = kernel.login(UserId(1))?;
/// let fd = shell.create("notes.txt")?;
/// shell.write(fd, b"hello")?;
/// shell.close(fd)?;
/// let fd = shell.open("notes.txt", OpenMode::Read)?;
/// assert_eq!(shell.read(fd, 64)?, b"hello");
/// # Ok(())
/// # }
/// ```
pub struct Kernel {
    pub(crate) tables: Tables,
    /// The root inode id — fixed at boot, so reads need no lock.
    pub(crate) root: InodeId,
    /// The `/dev/null` inode id, fixed at boot: the one inode an fd
    /// write leaves unchanged, so its shard is taken shared.
    pub(crate) null_dev: InodeId,
    pub(crate) next_task: AtomicU64,
    pub(crate) next_proc: AtomicU64,
    /// Inode id minting and live-inode counts (the inode quota).
    pub(crate) inode_ids: InodeIds,
    /// Monotonic count of LSM hook invocations.
    pub(crate) hook_counter: HookCounter,
    /// Syscall attempts rolled back and rerun with a wider lock
    /// footprint (see [`Kernel::footprint_restarts`]).
    restarts: AtomicU64,
    /// Commit-ticket source (see [`CommitRecord`]). Denials and logged
    /// syscalls write it; every success reads `commit_log_on`, so the
    /// counter has a cache block of its own.
    commit_seq: CachePadded<AtomicU64>,
    commit_log_on: AtomicBool,
    commit_log: Mutex<Vec<CommitRecord>>,
    /// This kernel's trusted audit log (off by default).
    audit: laminar_obs::Audit,
    pub(crate) module: Box<dyn SecurityModule>,
    pub(crate) tags: TagAllocator,
    pub(crate) quotas: Quotas,
    /// Test failpoints, armed at run time (see [`SyscallFailpoint`]).
    pub(crate) failpoints: Failpoints,
    tcb_tag: Tag,
    admin_tag: Tag,
}

/// Shows the module only: a subject prints it through its `TaskHandle`.
impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel {{ module: {:?}, .. }}", self.module.name())
    }
}

/// A handle through which one kernel task issues syscalls.
///
/// Clone-able and `Send`: a `TaskHandle` can be moved into the OS thread
/// that plays the corresponding principal. All methods take `&self`;
/// the kernel serialises state access internally.
#[derive(Clone, Debug)]
pub struct TaskHandle {
    pub(crate) kernel: Arc<Kernel>,
    pub(crate) tid: TaskId,
    /// The task's process, which never changes: a syscall reaches its
    /// shard (pre-locked, or on demand for a cwd read) without looking
    /// the task up first.
    pub(crate) pid: ProcessId,
}

impl Kernel {
    /// Boots a kernel with the given security module and installs the
    /// initial filesystem: `/`, `/etc`, `/home` (integrity-labeled with
    /// the system administrator's tag, §5.2), plus unlabeled `/tmp`,
    /// `/dev` and the `/dev/null` device.
    pub fn boot<M: SecurityModule + 'static>(module: M) -> Arc<Kernel> {
        Self::boot_with_quotas(module, Quotas::default())
    }

    /// Like [`Kernel::boot`] but with explicit resource quotas (see
    /// [`Quotas`]); the defaults are generous enough that ordinary
    /// workloads never hit them.
    pub fn boot_with_quotas<M: SecurityModule + 'static>(
        module: M,
        quotas: Quotas,
    ) -> Arc<Kernel> {
        let tags = TagAllocator::new();
        let tcb_tag = tags.fresh();
        let admin_tag = tags.fresh();
        let admin_integrity = SecPair::integrity_only(Label::singleton(admin_tag));

        let kernel = Kernel {
            tables: Tables::new(),
            root: InodeId(1),
            null_dev: InodeId(6),
            next_task: AtomicU64::new(1),
            next_proc: AtomicU64::new(1),
            inode_ids: InodeIds::new(7),
            hook_counter: HookCounter::default(),
            restarts: AtomicU64::new(0),
            commit_seq: CachePadded::default(),
            commit_log_on: AtomicBool::new(false),
            commit_log: Mutex::new(Vec::new()),
            audit: laminar_obs::Audit::default(),
            module: Box::new(module),
            tags,
            quotas,
            failpoints: Failpoints::default(),
            tcb_tag,
            admin_tag,
        };

        // Fixed boot layout: 1=/ 2=/etc 3=/home 4=/tmp 5=/dev 6=/dev/null.
        let dir = |entries: BTreeMap<String, InodeId>| InodeKind::Dir { entries };
        let boot_nodes: [(InodeId, InodeKind, SecPair); 6] = [
            (
                InodeId(1),
                dir(BTreeMap::from([
                    ("etc".into(), InodeId(2)),
                    ("home".into(), InodeId(3)),
                    ("tmp".into(), InodeId(4)),
                    ("dev".into(), InodeId(5)),
                ])),
                admin_integrity.clone(),
            ),
            (InodeId(2), dir(BTreeMap::new()), admin_integrity.clone()),
            (InodeId(3), dir(BTreeMap::new()), admin_integrity),
            (InodeId(4), dir(BTreeMap::new()), SecPair::unlabeled()),
            (
                InodeId(5),
                dir(BTreeMap::from([("null".into(), InodeId(6))])),
                SecPair::unlabeled(),
            ),
            (InodeId(6), InodeKind::NullDevice, SecPair::unlabeled()),
        ];
        for (id, kind, labels) in boot_nodes {
            kernel.insert_inode_direct(id, kind, labels);
        }
        Arc::new(kernel)
    }

    /// The resource quotas this kernel was booted with.
    #[must_use]
    pub fn quotas(&self) -> &Quotas {
        &self.quotas
    }

    /// Runs one syscall body as a transaction under a panic boundary,
    /// with two-phase shard locking and footprint restart.
    ///
    /// The body runs against a [`Txn`] that pre-locks the calling task's
    /// shard, and its process's shard if the body touches process state,
    /// in the modes `intent` declares and acquires further shards on
    /// demand in ascending key order. If the body needs
    /// a shard below one it already holds, or exclusive mode on a shard
    /// it holds shared, the accessor returns the internal
    /// [`OsError::Retry`] sentinel; the journal is rolled back, the
    /// shard joins the lock footprint in the mode it needs, together
    /// with every shard the attempt held in the mode it held it, and the
    /// body reruns with the whole footprint pre-locked — ids minted
    /// by the attempt replay positionally (see [`IdCache`]), so the
    /// footprint converges and the loop terminates within
    /// `2 * SHARD_COUNT + 8` attempts (fail-closed [`OsError::Internal`]
    /// otherwise).
    ///
    /// On `Ok` the transaction commits; on `Err` *or* a caught panic the
    /// undo journal restores every mutated entry — touching only held
    /// shards — and the caller sees a typed error, while the kernel
    /// keeps serving every other task.
    ///
    /// A denial or rollback takes a commit ticket while the shard locks
    /// are still held. A success takes one only when something records
    /// it: the commit log, or an audit span that staged a decision (and
    /// so will record a `SyscallCommit`).
    pub(crate) fn syscall_on<T>(
        &self,
        (tid, pid): (TaskId, ProcessId),
        name: &'static str,
        intent: Intent,
        mut f: impl FnMut(&mut Txn<'_>) -> OsResult<T>,
    ) -> OsResult<T> {
        // Audit span: `None` (one atomic load) while this kernel's log
        // is off. Events the body emits are staged on the span and
        // reach the log only on a final outcome; footprint restarts
        // discard the attempt's stage so decisions record exactly once.
        let span = self.audit.syscall_begin(name);
        let mut footprint = Footprint::default();
        footprint.add(ShardKey::task(tid), intent.task);
        if let Some(mode) = intent.proc {
            footprint.add(ShardKey::proc(pid), mode);
        }
        let mut ids = IdCache::default();
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            let mut txn = Txn::begin(self, footprint, &mut ids, intent);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let r = f(&mut txn);
                if r.is_ok() {
                    self.failpoints.fire_abort_late();
                }
                r
            }));
            match outcome {
                Ok(Ok(v)) => {
                    txn.flush_counters();
                    let recorded = self.commit_log_on.load(Ordering::Relaxed)
                        || span
                            .as_ref()
                            .is_some_and(laminar_obs::SyscallSpan::has_staged);
                    // Without a ticket the span records nothing, so 0
                    // never reaches the log.
                    let ticket = if recorded { self.commit_ticket(tid) } else { 0 };
                    drop(txn);
                    if let Some(span) = span {
                        span.commit(ticket, None);
                    }
                    return Ok(v);
                }
                Ok(Err(OsError::Retry(key, mode))) => {
                    txn.rollback();
                    if let Some(span) = &span {
                        span.retry();
                    }
                    if attempts > 2 * SHARD_COUNT + 8 {
                        // Should be unreachable: every restart adds a
                        // shard or upgrades one to exclusive, and there
                        // are SHARD_COUNT shards. Fail closed.
                        txn.flush_counters();
                        let ticket = self.commit_ticket(tid);
                        drop(txn);
                        crate::stats::note_syscall_rolled_back();
                        if let Some(span) = span {
                            span.rollback(ticket);
                        }
                        return Err(OsError::Internal);
                    }
                    // The next attempt pre-locks every shard this one
                    // held, not only the missing one: a walk that needs
                    // a shard below some of those it held then meets
                    // them all in order, instead of restarting once more
                    // for each.
                    footprint = txn.footprint();
                    drop(txn);
                    self.restarts.fetch_add(1, Ordering::Relaxed);
                    footprint.add(key, mode);
                }
                Ok(Err(e)) => {
                    txn.rollback();
                    txn.flush_counters();
                    let ticket = self.commit_ticket(tid);
                    drop(txn);
                    // A typed denial is a final, visible outcome: its
                    // staged decision events (the deny verdicts) flush
                    // like a commit.
                    if let Some(span) = span {
                        span.commit(ticket, Some(e.audit_name()));
                    }
                    return Err(e);
                }
                Err(_panic) => {
                    txn.rollback();
                    txn.flush_counters();
                    let ticket = self.commit_ticket(tid);
                    drop(txn);
                    crate::stats::note_syscall_rolled_back();
                    // The body's effects were undone; its staged
                    // decisions are discarded with them.
                    if let Some(span) = span {
                        span.rollback(ticket);
                    }
                    return Err(OsError::Internal);
                }
            }
        }
    }

    /// Takes the next commit ticket (while the caller still holds its
    /// shard locks) and records it in the commit log when enabled.
    /// Returns the ticket so the audit trail can correlate with the
    /// linearization witness.
    fn commit_ticket(&self, tid: TaskId) -> u64 {
        let seq = self.commit_seq.fetch_add(1, Ordering::SeqCst) + 1;
        LAST_SEQ.with(|c| c.set(seq));
        if self.commit_log_on.load(Ordering::Relaxed) {
            self.commit_log.lock().push(CommitRecord { seq, task: tid });
        }
        seq
    }

    /// Snapshots this kernel's trusted audit log, oldest record first.
    /// **Trusted API**: this lives on [`Kernel`], not
    /// [`TaskHandle`](crate::TaskHandle) — no syscall exposes audit
    /// data, because a subject that could see its own silent drops would
    /// have exactly the covert channel §5.2 closes.
    #[must_use]
    pub fn audit_snapshot(&self) -> laminar_obs::AuditLog {
        self.audit.snapshot()
    }

    /// Switches this kernel's decision trace on or off (off by default;
    /// then a dispatch reads one flag). Other kernels are unaffected.
    pub fn set_audit_enabled(&self, on: bool) {
        self.audit.set_on(on);
    }

    /// This kernel's audit log, for the trusted layers that record into
    /// it from outside a syscall (a VM bridged to one of this kernel's
    /// tasks logs its barrier and region decisions here) and for
    /// trusted readers that drain it. **Trusted API**, like
    /// [`Kernel::audit_snapshot`].
    #[must_use]
    pub fn audit(&self) -> &laminar_obs::Audit {
        &self.audit
    }

    /// Enables (clearing any previous contents) or disables the
    /// commit-order log consumed by the concurrent conformance regime.
    pub fn set_commit_log_enabled(&self, on: bool) {
        if on {
            self.commit_log.lock().clear();
        }
        self.commit_log_on.store(on, Ordering::SeqCst);
    }

    /// Drains the commit-order log, sorted by commit ticket. Records may
    /// be appended out of ticket order (the log mutex is taken after the
    /// ticket), so the drain sorts before returning.
    pub fn drain_commit_log(&self) -> Vec<CommitRecord> {
        let mut log = std::mem::take(&mut *self.commit_log.lock());
        log.sort_by_key(|r| r.seq);
        log
    }

    /// Whether `task` runs on this kernel rather than on another one.
    #[must_use]
    pub fn owns(self: &Arc<Self>, task: &TaskHandle) -> bool {
        Arc::ptr_eq(&task.kernel, self)
    }

    /// Runs `f(worker_index, task_set)` on one OS thread per task set,
    /// concurrently, returning each worker's result in order. Each
    /// worker owns a *disjoint* set of tasks and issues real syscalls
    /// through its handles; the sharded kernel executes them in
    /// parallel.
    ///
    /// # Panics
    /// Panics if a handle belongs to another kernel, if two sets share a
    /// task id, or (propagated) if a worker panics.
    pub fn run_parallel<R, F>(
        self: &Arc<Self>,
        task_sets: Vec<Vec<TaskHandle>>,
        f: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &[TaskHandle]) -> R + Sync,
    {
        let mut seen = std::collections::HashSet::new();
        for set in &task_sets {
            for h in set {
                assert!(self.owns(h), "run_parallel: handle from another kernel");
                assert!(
                    seen.insert(h.tid),
                    "run_parallel: task sets must be disjoint ({} appears twice)",
                    h.tid
                );
            }
        }
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = task_sets
                .iter()
                .enumerate()
                .map(|(i, set)| s.spawn(move || f(i, set)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(p) => std::panic::resume_unwind(p),
                })
                .collect()
        })
    }

    /// Arms a one-shot [`SyscallFailpoint`] (conformance testkit).
    pub fn arm_failpoint_for_test(self: &Arc<Self>, fp: SyscallFailpoint) {
        self.failpoints.arm(fp);
    }

    /// Reports whether the armed failpoint fired, clearing both the
    /// fired flag and any still-armed failpoint.
    pub fn take_failpoint_fired(self: &Arc<Self>) -> bool {
        self.failpoints.take_fired()
    }

    /// The commit ticket of the most recent syscall *on this thread* that
    /// took one (0 before any). While the commit log is on every syscall
    /// takes a ticket, so a test thread can pair each syscall's outcome
    /// with its position in the kernel-wide commit order; with it off, a
    /// success that nothing records leaves this value unchanged.
    ///
    /// No subject may read it: a gap between two tickets counts other tasks' syscalls.
    ///
    /// ```compile_fail,E0425
    /// fn f(_k: &laminar_os::Kernel) -> u64 { laminar_os::last_syscall_seq() }
    /// ```
    /// ```
    /// fn f(k: &laminar_os::Kernel) -> u64 { k.last_syscall_seq() }
    /// ```
    #[must_use]
    pub fn last_syscall_seq(&self) -> u64 {
        LAST_SEQ.with(Cell::get)
    }

    /// Bytes of undo records the most recently finished syscall *on this
    /// thread* pushed in its final attempt, whether it committed or
    /// rolled back (each record's size plus the heap it owns). The
    /// cost-regime tests use it to check that no syscall's journal grows
    /// with state that other principals own. A thread-local, like
    /// [`Kernel::last_syscall_seq`], so publishing it writes no kernel-wide word.
    #[must_use]
    pub fn last_undo_bytes_for_test(self: &Arc<Self>) -> u64 {
        LAST_UNDO_BYTES.with(Cell::get)
    }

    /// The special `tcb` integrity tag (§4.4): only a task whose
    /// integrity label carries it may call `drop_label_tcb`.
    #[must_use]
    pub fn tcb_tag(&self) -> Tag {
        self.tcb_tag
    }

    /// The system administrator's integrity tag, applied to `/`, `/etc`
    /// and `/home` at install time (§5.2).
    #[must_use]
    pub fn admin_tag(&self) -> Tag {
        self.admin_tag
    }

    /// Name of the loaded security module.
    #[must_use]
    pub fn module_name(&self) -> &'static str {
        self.module.name()
    }

    /// Number of LSM hook invocations so far (for tests and benches).
    /// Exact for every syscall that has returned.
    #[must_use]
    pub fn hook_calls(&self) -> u64 {
        self.hook_counter.sum()
    }

    /// Number of syscall attempts this kernel rolled back and reran with
    /// a wider lock footprint: a shard below one already held, or
    /// exclusive mode on a shard held shared. Only restarts count; a
    /// syscall that runs once adds nothing. **Trusted API**, like
    /// [`Kernel::audit_snapshot`]: no syscall exposes it, since a
    /// subject could otherwise time its own restarts against another's
    /// lock footprint.
    #[must_use]
    pub fn footprint_restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Inserts a fully formed inode outside any transaction (boot and
    /// install-time administration; locks exactly one shard).
    fn insert_inode_direct(&self, id: InodeId, kind: InodeKind, labels: SecPair) {
        let mut shard = self.tables.lock(ShardKey::inode(id), ShardMode::Exclusive);
        if let Some(m) = shard.guard.inodes_mut() {
            m.insert(id, Inode { id, kind, xattrs: Xattrs { labels }, nlink: 1 });
            self.inode_ids.inserted(id);
        }
    }

    /// Allocates and inserts a fresh inode outside any transaction, in a
    /// shard above `parent`'s (see [`InodeIds`]).
    fn alloc_inode_direct(
        &self,
        parent: InodeId,
        kind: InodeKind,
        labels: SecPair,
    ) -> InodeId {
        let id = self.inode_ids.mint(Some(ShardKey::inode(parent)));
        self.insert_inode_direct(id, kind, labels);
        id
    }

    /// Registers a user account and creates their home directory
    /// `/home/<name>` (unlabeled, so the user does not need the
    /// administrator's integrity tag to use it).
    pub fn add_user(self: &Arc<Self>, user: UserId, name: &str) {
        let home = self.admin_lookup_child(self.root, "home").ok().flatten();
        let id = self.alloc_inode_direct(
            home.unwrap_or(self.root),
            InodeKind::Dir { entries: BTreeMap::new() },
            SecPair::unlabeled(),
        );
        if let Some(h) = home {
            let mut shard = self.tables.lock(ShardKey::inode(h), ShardMode::Exclusive);
            if let Some(InodeKind::Dir { entries }) =
                shard.guard.inodes_mut().and_then(|m| m.get_mut(&h)).map(|n| &mut n.kind)
            {
                entries.insert(name.to_string(), id);
            }
        }
        let mut shard = self.tables.lock(ShardKey::registry(), ShardMode::Exclusive);
        if let Some(reg) = shard.guard.registry_mut() {
            reg.homes.insert(user, id);
            reg.persistent_caps.entry(user).or_default();
        }
    }

    /// Install-time administration: creates a directory with the given
    /// labels, bypassing the DIFC checks. §5.2 labels system directories
    /// "when the system is installed"; strict Biba traversal makes an
    /// integrity-labeled subtree impossible to grow from inside the
    /// rules (the design tension the paper discusses), so endowing one
    /// is an administrator action, like the admin labels on `/`.
    ///
    /// # Errors
    /// [`OsError::NotFound`]/[`OsError::Exists`] on path problems.
    pub fn install_dir(self: &Arc<Self>, path: &str, labels: SecPair) -> OsResult<()> {
        self.install_node(path, InodeKind::Dir { entries: BTreeMap::new() }, labels)
    }

    /// Install-time administration: creates a labeled file with initial
    /// contents, bypassing the DIFC checks (see [`Kernel::install_dir`]).
    ///
    /// # Errors
    /// [`OsError::NotFound`]/[`OsError::Exists`] on path problems.
    pub fn install_file(
        self: &Arc<Self>,
        path: &str,
        labels: SecPair,
        data: &[u8],
    ) -> OsResult<()> {
        self.install_node(path, InodeKind::File { data: data.to_vec() }, labels)
    }

    fn install_node(
        self: &Arc<Self>,
        path: &str,
        kind: InodeKind,
        labels: SecPair,
    ) -> OsResult<()> {
        let (parent, name, existing) = self.admin_lookup(path)?;
        if existing.is_some() {
            return Err(OsError::Exists);
        }
        self.install_in(parent, name, kind, labels)
    }

    /// Allocates an inode and links it as `name` in `parent`. No guard is
    /// held while allocating: the child may hash to the same (or a
    /// lower-ranked) inode shard as its parent. The parent may have
    /// changed since the caller looked it up: a concurrent install may
    /// have taken the name, or an `unlink` removed the directory. Then
    /// the allocation is undone, so the inode does not stay live.
    fn install_in(
        &self,
        parent: InodeId,
        name: &str,
        kind: InodeKind,
        labels: SecPair,
    ) -> OsResult<()> {
        let id = self.alloc_inode_direct(parent, kind, labels);
        let mut shard = self.tables.lock(ShardKey::inode(parent), ShardMode::Exclusive);
        let linked = match shard
            .guard
            .inodes_mut()
            .and_then(|m| m.get_mut(&parent))
            .map(|n| &mut n.kind)
        {
            Some(InodeKind::Dir { entries }) if entries.contains_key(name) => {
                Err(OsError::Exists)
            }
            Some(InodeKind::Dir { entries }) => {
                entries.insert(name.to_string(), id);
                Ok(())
            }
            _ => Err(OsError::NotADirectory),
        };
        drop(shard);
        if linked.is_err() {
            let mut shard = self.tables.lock(ShardKey::inode(id), ShardMode::Exclusive);
            if shard.guard.inodes_mut().and_then(|m| m.remove(&id)).is_some() {
                self.inode_ids.removed(id);
            }
        }
        linked
    }

    /// Reads one directory entry, locking only that directory's shard:
    /// `None` if the directory has no such name.
    fn admin_lookup_child(&self, dir: InodeId, name: &str) -> OsResult<Option<InodeId>> {
        let shard = self.tables.lock(ShardKey::inode(dir), ShardMode::Shared);
        match shard.guard.inodes().and_then(|m| m.get(&dir)).map(|n| &n.kind) {
            Some(InodeKind::Dir { entries }) => Ok(entries.get(name).copied()),
            Some(_) => Err(OsError::NotADirectory),
            None => Err(OsError::NotFound),
        }
    }

    /// Checkless lookup of an absolute path for install-time operations
    /// and test inspection: the directory holding the last component,
    /// that component, and the inode it names, if any. Locks one
    /// directory shard at a time (never two at once).
    fn admin_lookup<'p>(
        &self,
        path: &'p str,
    ) -> OsResult<(InodeId, &'p str, Option<InodeId>)> {
        let rel = path
            .strip_prefix('/')
            .ok_or(OsError::InvalidArgument("install paths must be absolute"))?
            .trim_end_matches('/');
        let (dirs, last) = rel.rsplit_once('/').unwrap_or(("", rel));
        if last.is_empty() {
            return Err(OsError::InvalidArgument("empty path"));
        }
        let mut dir = self.root;
        for c in dirs.split('/').filter(|c| !c.is_empty()) {
            dir = self.admin_lookup_child(dir, c)?.ok_or(OsError::NotFound)?;
        }
        Ok((dir, last, self.admin_lookup_child(dir, last)?))
    }

    /// Conformance/test inspection: resolves an *absolute* `path` with
    /// **no security checks** and returns the inode's labels plus its
    /// contents (`None` for non-files). The model-based testkit uses
    /// this to diff kernel state against its reference oracle without
    /// perturbing hook counters or cache statistics; it is not part of
    /// the paper's API (exposing it to untrusted code would be a
    /// channel).
    ///
    /// # Errors
    /// [`OsError::NotFound`] if the path names no inode;
    /// [`OsError::InvalidArgument`] for relative paths.
    pub fn inspect_node_for_test(
        self: &Arc<Self>,
        path: &str,
    ) -> OsResult<(SecPair, Option<Vec<u8>>)> {
        let id = self.admin_lookup(path)?.2.ok_or(OsError::NotFound)?;
        let shard = self.tables.lock(ShardKey::inode(id), ShardMode::Shared);
        let inode =
            shard.guard.inodes().and_then(|m| m.get(&id)).ok_or(OsError::NotFound)?;
        let data = match &inode.kind {
            InodeKind::File { data } => Some(data.clone()),
            _ => None,
        };
        Ok((inode.labels().clone(), data))
    }

    /// Fault injection for the conformance testkit: poisons the lock of
    /// the shard `key` names, so the next syscall touching that shard
    /// takes the poison-recovery path of [`laminar_util::sync::RwLock`].
    /// Verdicts must be unaffected, and *other* shards keep serving
    /// syscalls without recovering anything.
    pub fn poison_shard_for_test(self: &Arc<Self>, key: ShardKey) {
        self.tables.poison(key);
    }

    /// Resolves `path` to its inode id with no DIFC checks (lets a test
    /// aim [`Kernel::poison_shard_for_test`] at the shard actually
    /// holding a given file).
    ///
    /// # Errors
    /// [`OsError::NotFound`] if the path names no inode;
    /// [`OsError::InvalidArgument`] for relative paths.
    pub fn inode_of_for_test(self: &Arc<Self>, path: &str) -> OsResult<InodeId> {
        self.admin_lookup(path)?.2.ok_or(OsError::NotFound)
    }

    /// Messages (byte chunks plus capabilities) queued in the pipe behind
    /// `task`'s `fd`. The conformance testkit diffs buffer structure (a
    /// cap at the head blocks byte reads, so the count matters) against
    /// the reference oracle. **Trusted API**, like
    /// [`Kernel::audit_snapshot`].
    ///
    /// # Errors
    /// [`OsError::BadFd`] if `fd` is not a pipe.
    ///
    /// # Panics
    /// Panics if `task` belongs to another kernel.
    pub fn pipe_msgs_for_test(
        self: &Arc<Self>,
        task: &TaskHandle,
        fd: Fd,
    ) -> OsResult<usize> {
        self.with_pipe(task, fd, PipeBuffer::msg_count)
    }

    /// The `(readers, writers)` counts of the pipe behind `task`'s `fd`,
    /// for checking that an aborted `close`, `fork` or `exit` restores
    /// them exactly. **Trusted API**: a subject that saw them would learn
    /// when a peer closed its end, the cross-label EOF that §5.2's
    /// nonblocking pipes hide.
    ///
    /// # Errors
    /// [`OsError::BadFd`] if `fd` is not a pipe.
    ///
    /// # Panics
    /// Panics if `task` belongs to another kernel.
    pub fn pipe_ends_for_test(
        self: &Arc<Self>,
        task: &TaskHandle,
        fd: Fd,
    ) -> OsResult<(u32, u32)> {
        self.with_pipe(task, fd, PipeBuffer::refs)
    }

    /// Runs `f` on the pipe buffer behind `task`'s `fd`, bypassing the
    /// transaction machinery (locks one shard at a time).
    pub(crate) fn with_pipe<R>(
        &self,
        task: &TaskHandle,
        fd: Fd,
        f: impl FnOnce(&PipeBuffer) -> R,
    ) -> OsResult<R> {
        assert!(std::ptr::eq(&*task.kernel, self), "handle from another kernel");
        let ino = task.fd_inode_readonly(fd)?;
        let shard = self.tables.lock(ShardKey::inode(ino), ShardMode::Shared);
        match shard.guard.inodes().and_then(|m| m.get(&ino)).map(|n| &n.kind) {
            Some(InodeKind::Pipe { buffer }) => Ok(f(buffer)),
            _ => Err(OsError::BadFd),
        }
    }

    /// Logs a user in: spawns a fresh process with one task whose
    /// capability set is the user's persistent capabilities and whose cwd
    /// is their home directory (§4.4's login-shell grant).
    ///
    /// # Errors
    ///
    /// Fails with [`OsError::NoSuchTask`] if the user was never added.
    pub fn login(self: &Arc<Self>, user: UserId) -> OsResult<TaskHandle> {
        let (cwd, caps) = {
            let shard = self.tables.lock(ShardKey::registry(), ShardMode::Shared);
            let reg = shard.guard.registry().ok_or(OsError::Internal)?;
            let cwd = *reg.homes.get(&user).ok_or(OsError::NoSuchTask)?;
            (cwd, reg.persistent_caps.get(&user).cloned().unwrap_or_default())
        };
        let pid = ProcessId(self.next_proc.fetch_add(1, Ordering::Relaxed));
        let tid = TaskId(self.next_task.fetch_add(1, Ordering::Relaxed));
        let mut shard = self.tables.lock(ShardKey::proc(pid), ShardMode::Exclusive);
        let procs = shard.guard.procs_mut().ok_or(OsError::Internal)?;
        procs.insert(pid, ProcessStruct::fresh(pid, tid, cwd));
        drop(shard);
        let sec = TaskSec::new(SecPair::unlabeled(), caps);
        let mut shard = self.tables.lock(ShardKey::task(tid), ShardMode::Exclusive);
        let tasks = shard.guard.tasks_mut().ok_or(OsError::Internal)?;
        tasks.insert(tid, TaskStruct::fresh(tid, pid, user, sec));
        Ok(TaskHandle { kernel: Arc::clone(self), tid, pid })
    }

    /// Grants `task`'s process the privileges of a trusted VM and starts
    /// its trusted thread, in one transaction of `task`: marks the
    /// process `trusted_vm` (its threads may then hold heterogeneous
    /// labels, §4.1) and spawns a thread in it that carries the `tcb`
    /// integrity tag and the `tcb+` and `tcb−` capabilities (§4.4), the
    /// only thread that may then drop or set labels without capability
    /// checks. `task` itself never holds `tcb±`, and a failure leaves
    /// the process as it was. This models booting the (audited, trusted)
    /// Laminar VM binary; it is a boot-time decision, not a syscall
    /// untrusted code can reach. Returns the trusted thread.
    ///
    /// # Errors
    ///
    /// Fails with [`OsError::NoSuchTask`] if the task has exited or is foreign.
    pub fn bless_vm_process(self: &Arc<Self>, task: &TaskHandle) -> OsResult<TaskHandle> {
        if !self.owns(task) {
            return Err(OsError::NoSuchTask);
        }
        let (tcb, pid) = (self.tcb_tag, task.pid);
        let tid =
            self.syscall_on((task.tid, pid), "bless_vm_process", Intent::READ, |st| {
                let me = st.task(task.tid)?;
                let tcb_label = Label::singleton(tcb);
                let (user, labels) = (
                    me.user,
                    me.security.labels.with_label(LabelType::Integrity, tcb_label),
                );
                let mut caps = CapSet::new();
                caps.grant_both(tcb);
                let tid = st.fresh_task_id();
                st.insert_task(TaskStruct::fresh(
                    tid,
                    pid,
                    user,
                    TaskSec::new(labels, caps),
                ))?;
                st.set_trusted_vm(pid)?;
                st.proc_tasks_mut(pid)?.push(tid);
                Ok(tid)
            })?;
        Ok(TaskHandle { kernel: Arc::clone(self), tid, pid })
    }

    /// Sets the persistent capabilities stored for a user (the on-disk
    /// capability file of §4.4). Takes effect at the next login.
    pub fn set_persistent_caps(self: &Arc<Self>, user: UserId, caps: CapSet) {
        let mut shard = self.tables.lock(ShardKey::registry(), ShardMode::Exclusive);
        if let Some(reg) = shard.guard.registry_mut() {
            reg.persistent_caps.insert(user, caps);
        }
    }

    /// Reads back a user's persistent capabilities.
    #[must_use]
    pub fn persistent_caps(self: &Arc<Self>, user: UserId) -> CapSet {
        let shard = self.tables.lock(ShardKey::registry(), ShardMode::Shared);
        let reg = shard.guard.registry();
        reg.and_then(|r| r.persistent_caps.get(&user)).cloned().unwrap_or_default()
    }

    /// Invokes the `inode_permission` hook on an inode the caller has
    /// already fetched, counting it.
    pub(crate) fn check_inode(
        &self,
        st: &Txn<'_>,
        task: &TaskSec,
        node: &Inode,
        mask: Access,
    ) -> OsResult<()> {
        st.count_hook();
        self.module.inode_permission(task, node.labels(), mask)
    }

    /// The path lookup every path syscall makes. Resolves `path` for a
    /// task with security context `task` in process `pid`, checking a
    /// read permission on every directory traversed (directory contents
    /// — names and labels of children — are protected by the directory's
    /// own label) and *following symbolic links*, each of which is
    /// itself a mediated read of the link inode (so a task that rejects
    /// the link's integrity cannot be redirected through it — §5.2's
    /// symlink concern). A link in the final component is followed only
    /// when `follow` asks for it; creation and `unlink` act on the link
    /// itself, as POSIX `O_EXCL` and `unlink` do.
    ///
    /// Returns `f` applied to the final parent, the final name and the
    /// target's entry if one exists, borrowed from its held shard. A relative path reads the process's cwd,
    /// taking its shard shared if the syscall has not pre-locked it; no
    /// inode shard is held yet, so that never restarts. The walk takes
    /// the final parent and the target in the modes the syscall's
    /// [`Intent`] declares, the first time it touches them; every other
    /// directory it takes shared. This is the one place a path's target
    /// is fetched, and the one place a final symlink is followed.
    pub(crate) fn lookup<R>(
        &self,
        st: &mut Txn<'_>,
        task: &TaskSec,
        pid: ProcessId,
        path: &str,
        follow: bool,
        f: impl FnOnce(&Txn<'_>, Found<'_>) -> OsResult<R>,
    ) -> OsResult<R> {
        if path.is_empty() {
            return Err(OsError::InvalidArgument("empty path"));
        }
        let (start, rel) = match path.strip_prefix('/') {
            Some(stripped) => (self.root, stripped),
            None => (st.proc(pid)?.cwd, path),
        };
        let mut r = self.walk(st, task, start, rel, 0)?;
        loop {
            let target = r.target.map(|ino| st.held_node(ino)).transpose()?;
            let link = match target {
                Some(node @ Inode { kind: InodeKind::Symlink { target }, .. })
                    if follow =>
                {
                    self.check_inode(st, task, node, Access::Read)?;
                    target.clone()
                }
                _ => return f(st, Found { parent: r.parent, name: &r.name, target }),
            };
            // A relative link resolves from the directory holding it.
            let (start, rel) = match link.strip_prefix('/') {
                Some(rel) => (self.root, rel),
                None => (r.parent.ok_or(OsError::Internal)?, link.as_str()),
            };
            r = self.walk(st, task, start, rel, r.depth + 1)?.into_owned();
        }
    }

    /// Takes `ino`'s shard in `mode` and reads the inode as a walk does,
    /// through the counted `inode_permission` read hook. This is the one
    /// fetch a walk makes of each inode it reads; the entry serves the
    /// hook, the name lookup and, for a link, its target.
    fn walk_read<'t>(
        &self,
        st: &'t mut Txn<'_>,
        task: &TaskSec,
        ino: InodeId,
        mode: ShardMode,
    ) -> OsResult<&'t Inode> {
        st.hold(ShardKey::inode(ino), mode)?;
        st.count_hook();
        let node = st.held_node(ino)?;
        self.module.inode_permission(task, node.labels(), Access::Read)?;
        Ok(node)
    }

    /// Walks the components of `rel` from `start`. Components are
    /// slices of `rel`; only a symlink in the path allocates (one string:
    /// the link target followed by the components still to walk).
    ///
    /// Every inode the walk reads — each directory it looks a name up
    /// in, and each link in the path it follows — is fetched once, by
    /// [`Kernel::walk_read`], when its shard is taken: a child read on
    /// the way down is the next step's directory. The final component is
    /// never fetched or followed here: the walk only takes its shard in
    /// the declared mode, and [`Kernel::lookup`] reads it.
    fn walk<'p>(
        &self,
        st: &mut Txn<'_>,
        task: &TaskSec,
        start: InodeId,
        rel: &'p str,
        depth: u32,
    ) -> OsResult<Resolved<'p>> {
        if depth > 8 {
            return Err(OsError::SymlinkLoop);
        }
        let n = components(rel).count();
        let intent = st.intent();
        let found = |parent, name, target| Resolved { parent, name, target, depth };
        if n == 0 {
            st.hold(ShardKey::inode(start), intent.target)?;
            return Ok(found(None, Cow::Borrowed(""), Some(start)));
        }
        // Directories walked so far, for `..`; only kept when the path
        // has a `..` component.
        let mut stack: Vec<InodeId> = Vec::new();
        let track = components(rel).any(|c| c == "..");
        let mut cur = start;
        // Looking up a name inside `cur` reads `cur`.
        let start_mode = if n == 1 { intent.parent } else { ShardMode::Shared };
        let mut dir = self.walk_read(st, task, start, start_mode)?;
        for (i, comp) in components(rel).enumerate() {
            let last = i + 1 == n;
            if comp == ".." {
                cur = stack.pop().unwrap_or(start);
                if last {
                    return Ok(found(None, Cow::Borrowed(""), Some(cur)));
                }
                dir = self.walk_read(st, task, cur, ShardMode::Shared)?;
                continue;
            }
            let child = match &dir.kind {
                InodeKind::Dir { entries } => entries.get(comp).copied(),
                _ => return Err(OsError::NotADirectory),
            };
            // The first touch of `child` takes the declared mode: the
            // target's for the last component, the final parent's for
            // the one before it.
            let mode = if last {
                intent.target
            } else if i + 2 == n {
                intent.parent
            } else {
                ShardMode::Shared
            };
            if last {
                if let Some(child) = child {
                    st.hold(ShardKey::inode(child), mode)?;
                }
                return Ok(found(Some(cur), Cow::Borrowed(comp), child));
            }
            // Any other child is read next: as the next directory, or,
            // for a symlink in the path, as the link being followed.
            let child = child.ok_or(OsError::NotFound)?;
            let node = self.walk_read(st, task, child, mode)?;
            if let InodeKind::Symlink { target } = &node.kind {
                let mut target = target.clone();
                let nstart = if target.starts_with('/') { self.root } else { cur };
                for c in components(rel).skip(i + 1) {
                    target.push('/');
                    target.push_str(c);
                }
                let rel = target.strip_prefix('/').unwrap_or(&target);
                let r = self.walk(st, task, nstart, rel, depth + 1)?;
                return Ok(r.into_owned());
            }
            if track {
                stack.push(cur);
            }
            cur = child;
            dir = node;
        }
        // The loop always returns on the last component; reaching here
        // would be an internal invariant failure, reported fail-closed.
        Err(OsError::Internal)
    }
}

/// The components of a relative path, skipping empty and `.` ones.
fn components(rel: &str) -> impl Iterator<Item = &str> + Clone {
    rel.split('/').filter(|c| !c.is_empty() && *c != ".")
}

/// What [`Kernel::lookup`] hands a path syscall's body.
pub(crate) struct Found<'t> {
    /// The final parent directory (`None` when the path names the root,
    /// the cwd or a `..`). The lookup holds its shard, so
    /// [`Txn::held_node`] borrows it; only a body that reads it fetches
    /// it.
    pub parent: Option<InodeId>,
    /// The final component: a slice of the path, or of a symlink
    /// expansion.
    pub name: &'t str,
    /// The inode the final component names, if it exists.
    pub target: Option<&'t Inode>,
}

impl<'t> Found<'t> {
    /// The target; [`OsError::NotFound`] if the name is unbound.
    pub(crate) fn existing(&self) -> OsResult<&'t Inode> {
        self.target.ok_or(OsError::NotFound)
    }
}

/// A walk's result: the ids of what [`Found`] hands on.
struct Resolved<'p> {
    parent: Option<InodeId>,
    name: Cow<'p, str>,
    target: Option<InodeId>,
    /// Symlinks followed on the way to it: a link the lookup follows
    /// from here is walked at `depth + 1`.
    depth: u32,
}

impl Resolved<'_> {
    fn into_owned(self) -> Resolved<'static> {
        Resolved { name: Cow::Owned(self.name.into_owned()), ..self }
    }
}

impl TaskHandle {
    /// The task's kernel id.
    #[must_use]
    pub fn id(&self) -> TaskId {
        self.tid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laminar_lsm::LaminarModule;
    use crate::lsm::NullModule;

    #[test]
    fn boot_installs_system_tree() {
        let k = Kernel::boot(NullModule);
        k.add_user(UserId(1), "alice");
        let sh = k.login(UserId(1)).unwrap();
        // Home directory exists and is the cwd.
        let md = sh.stat(".").unwrap();
        assert!(md.is_dir);
        // System tree is reachable.
        assert!(sh.stat("/etc").unwrap().is_dir);
        assert!(sh.stat("/tmp").unwrap().is_dir);
        assert!(sh.stat("/dev/null").is_ok());
    }

    #[test]
    fn system_dirs_carry_admin_integrity() {
        let k = Kernel::boot(LaminarModule);
        k.add_user(UserId(1), "alice");
        let sh = k.login(UserId(1)).unwrap();
        let md = sh.stat("/etc").unwrap();
        assert!(md.labels.integrity().contains(k.admin_tag()));
        // Home dirs are unlabeled.
        let md = sh.stat(".").unwrap();
        assert!(md.labels.is_unlabeled());
    }

    #[test]
    fn login_requires_known_user() {
        let k = Kernel::boot(NullModule);
        assert!(matches!(k.login(UserId(7)), Err(OsError::NoSuchTask)));
    }

    #[test]
    fn login_grants_persistent_caps() {
        let k = Kernel::boot(NullModule);
        k.add_user(UserId(1), "alice");
        let tag = k.tags.fresh();
        let mut caps = CapSet::new();
        caps.grant_both(tag);
        k.set_persistent_caps(UserId(1), caps.clone());
        let sh = k.login(UserId(1)).unwrap();
        assert_eq!(sh.current_caps().unwrap(), caps);
    }

    #[test]
    fn hook_counter_increases_under_laminar() {
        let k = Kernel::boot(LaminarModule);
        k.add_user(UserId(1), "alice");
        let sh = k.login(UserId(1)).unwrap();
        let before = k.hook_calls();
        let _ = sh.stat("/tmp");
        assert!(k.hook_calls() > before);
    }

    #[test]
    fn commit_tickets_are_dense_and_thread_visible() {
        let k = Kernel::boot(NullModule);
        k.add_user(UserId(1), "alice");
        let sh = k.login(UserId(1)).unwrap();
        k.set_commit_log_enabled(true);
        let _ = sh.stat("/tmp");
        let s1 = k.last_syscall_seq();
        let _ = sh.stat("/etc");
        let s2 = k.last_syscall_seq();
        assert!(s2 > s1);
        let log = k.drain_commit_log();
        assert!(log.iter().any(|r| r.seq == s1 && r.task == sh.id()));
        assert!(log.iter().any(|r| r.seq == s2 && r.task == sh.id()));
        k.set_commit_log_enabled(false);
    }

    #[test]
    fn task_debug_shows_no_kernel_state() {
        let k = Kernel::boot(NullModule);
        k.add_user(UserId(1), "alice");
        let sh = k.login(UserId(1)).unwrap();
        k.set_commit_log_enabled(true);
        let _ = sh.stat("/tmp");
        let shown = format!("{sh:?}");
        assert!(!shown.contains("ticket") && !shown.contains("inodes"), "{shown}");
    }

    /// An install whose parent changed after its lookup (a concurrent
    /// install took the name, or an `unlink` removed the directory)
    /// leaves no live inode behind.
    #[test]
    fn an_install_that_loses_its_parent_frees_its_inode() {
        let k = Kernel::boot(NullModule);
        k.install_file("/tmp/taken", SecPair::unlabeled(), b"").unwrap();
        let live = k.inode_ids.live();
        let file = || InodeKind::File { data: Vec::new() };
        let tmp = k.inode_of_for_test("/tmp").unwrap();
        let taken = k.install_in(tmp, "taken", file(), SecPair::unlabeled());
        assert!(matches!(taken, Err(OsError::Exists)), "{taken:?}");
        let gone = k.install_in(InodeId(999), "f", file(), SecPair::unlabeled());
        assert!(matches!(gone, Err(OsError::NotADirectory)), "{gone:?}");
        assert_eq!(k.inode_ids.live(), live);
    }

    #[test]
    fn run_parallel_executes_disjoint_task_sets() {
        let k = Kernel::boot(LaminarModule);
        k.add_user(UserId(1), "alice");
        k.add_user(UserId(2), "bob");
        let a = k.login(UserId(1)).unwrap();
        let b = k.login(UserId(2)).unwrap();
        let results = k.run_parallel(vec![vec![a], vec![b]], |i, set| {
            let h = &set[0];
            let mut ok = 0u32;
            for n in 0..50 {
                let name = format!("f{i}_{n}");
                let fd = h.create(&name).unwrap();
                h.write(fd, b"x").unwrap();
                h.close(fd).unwrap();
                h.unlink(&name).unwrap();
                ok += 1;
            }
            ok
        });
        assert_eq!(results, vec![50, 50]);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn run_parallel_rejects_overlapping_sets() {
        let k = Kernel::boot(NullModule);
        k.add_user(UserId(1), "alice");
        let a = k.login(UserId(1)).unwrap();
        let b = a.clone();
        let _ = k.run_parallel(vec![vec![a], vec![b]], |_, _| ());
    }
}
