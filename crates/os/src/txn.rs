//! The syscall transaction: shard locking plus an undo journal.
//!
//! Every syscall body runs against a [`Txn`]. The transaction owns the
//! set of shard locks the syscall has acquired so far (two-phase
//! locking: shards are added in ascending [`ShardKey`] order and held
//! until commit/rollback) and an undo journal: every mutation goes
//! through a narrow mutator (`dir_insert`, `fd_remove`, `buffer_push_bytes`,
//! …) that applies one change and pushes its inverse. A record is sized
//! by the change, never by the entry it touches, so a syscall's cost does
//! not grow with a directory, a pipe queue or an fd table that other
//! principals fill. Whole-entry pre-images exist only for entries a
//! syscall creates (`None`: rollback deletes them) or destroys
//! (`Some`: rollback puts them back).
//!
//! The dispatch loop in [`crate::kernel::Kernel::syscall_on`] then either
//! commits (drops the journal) or rolls back — on an internal panic
//! caught at the syscall boundary *or* on an error return — replaying the
//! records in reverse order, so a failed or faulted syscall is a
//! byte-for-byte no-op on the security state. Reverse replay needs no
//! deduplication: two records for one entry undo in turn. Rollback only
//! ever touches entries in shards the transaction holds: every record is
//! pushed strictly after the corresponding shard lock is acquired.
//!
//! Every accessor names the [`ShardMode`] it needs: the read accessors
//! (`task*`, `proc`, `inode_labels`) take a shard shared,
//! every mutator takes it exclusive. Read accessors borrow from the held
//! shard: an LSM hook reads an inode's labels in place, and a label is
//! cloned only where it is stored (an undo record, a new inode). A
//! syscall declares up front, in its
//! [`Intent`], the mode of its own task shard and, if its body touches
//! process state, of its process shard (both pre-locked), and of the
//! final parent and target of its path walk, so each shard is taken in
//! the mode it needs the first time it is touched.
//!
//! If a body needs a shard *below* the highest one it already holds, or
//! exclusive mode on a shard it holds shared, the accessor returns the
//! internal [`OsError::Retry`] sentinel; the dispatcher rolls back,
//! records the shard and mode in its lock [`Footprint`] and restarts the
//! body with every needed shard pre-locked in ascending order. The
//! [`IdCache`] keeps restarts deterministic: the nth id allocation of a
//! kind returns the same id on every attempt, so the footprint converges
//! instead of chasing freshly minted ids.
//!
//! Deliberate exceptions to journalling:
//!
//! * LSM hook counts are monotonic observability (tests pin that the
//!   counter only grows), not security state. They accumulate in the
//!   transaction and are flushed to the kernel's striped hook counter on
//!   every exit *except* a footprint restart, so restarts do not inflate
//!   them.
//! * The [`laminar_difc::TagAllocator`] lives outside the journal; a tag
//!   id minted by an aborted `alloc_tag` is simply never used, which is
//!   invisible (tag ids are opaque and unique). The same holds for
//!   task/process/inode ids cached by an aborted attempt.
//!
//! Resource quotas ([`Quotas`]) are enforced here too, at the points
//! where a transaction allocates: inode creation, fd insertion and tag
//! minting. Exhaustion returns [`OsError::QuotaExceeded`] — typed,
//! side-effect free (the transaction rolls back), and transient: the
//! operation succeeds again once the resource is released.

use crate::error::{OsError, OsResult};
use crate::kernel::{Kernel, TaskHandle};
use crate::shard::{
    Footprint, HeldShard, InodeMap, ProcMap, Registry, ShardGuard, ShardKey, ShardMode,
    TaskMap,
};
use crate::task::{
    ProcImage, ProcessId, ProcessStruct, Signal, TaskId, TaskSec, TaskStruct, UserId,
    VmArea,
};
use crate::vfs::file::{Fd, FdTable, OpenFile};
use crate::vfs::inode::{Buf, Inode, InodeId, InodeKind, Xattrs};
use crate::vfs::pipe::{PipeBuffer, Popped};
use laminar_difc::{CapSet, Capability, SecPair, Tag};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::mem::size_of;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Resource limits enforced per kernel instance (fixed at boot).
///
/// Exhaustion degrades gracefully: the failing syscall returns
/// [`OsError::QuotaExceeded`] naming the resource, changes nothing, and
/// the same call succeeds after a `close`/`unlink` frees the resource.
#[derive(Clone, Debug)]
pub struct Quotas {
    /// Maximum simultaneously open descriptors per process.
    pub max_fds_per_process: usize,
    /// Maximum live inodes (files, dirs, pipes, sockets, symlinks).
    pub max_inodes: usize,
    /// Byte capacity of newly created pipe buffers.
    pub pipe_capacity: usize,
    /// Maximum tags a single user may mint via `alloc_tag`.
    pub max_tags_per_user: u64,
    /// Maximum byte length of a regular file's contents. Bounds the
    /// allocation a single sparse write (`seek(huge)` + `write`) can
    /// force: without it, one syscall could `resize` a file buffer to
    /// gigabytes before any label check could object.
    pub max_file_size: usize,
}

impl Default for Quotas {
    fn default() -> Self {
        Quotas {
            max_fds_per_process: 4096,
            max_inodes: 1 << 20,
            pipe_capacity: crate::vfs::pipe::PIPE_CAPACITY,
            max_tags_per_user: 1 << 16,
            max_file_size: 1 << 26, // 64 MiB
        }
    }
}

/// Stages a trusted audit event for a quota denial and returns the
/// typed error. Every `QuotaExceeded` produced by the transaction layer
/// goes through here so the audit log sees each denial exactly once
/// (the stage is discarded on footprint restarts).
fn quota_denied(resource: &'static str) -> OsError {
    laminar_obs::stage(laminar_obs::Event::QuotaExceeded { resource });
    OsError::QuotaExceeded(resource)
}

/// Per-syscall cache of freshly minted ids. Ids come from the kernel's
/// global atomic counters (so they are unique across threads), but the
/// cache replays them positionally across footprint restarts: the nth
/// allocation of a kind yields the same id on every attempt, keeping the
/// restarted body's lock footprint stable.
#[derive(Default)]
pub(crate) struct IdCache {
    tasks: Minted<TaskId>,
    procs: Minted<ProcessId>,
    inodes: Minted<InodeId>,
    tags: Minted<Tag>,
}

impl IdCache {
    /// The next task id of this syscall: the one an earlier attempt
    /// minted at this position, or a fresh one.
    pub(crate) fn task(&mut self, kernel: &Kernel) -> TaskId {
        self.tasks.next(|| TaskId(kernel.next_task.fetch_add(1, Ordering::Relaxed)))
    }

    /// The next process id of this syscall (see [`IdCache::task`]).
    pub(crate) fn proc(&mut self, kernel: &Kernel) -> ProcessId {
        self.procs.next(|| ProcessId(kernel.next_proc.fetch_add(1, Ordering::Relaxed)))
    }

    /// Rewinds the positional cursors for a fresh attempt.
    pub(crate) fn reset_cursors(&mut self) {
        self.tasks.cur = 0;
        self.procs.cur = 0;
        self.inodes.cur = 0;
        self.tags.cur = 0;
    }
}

/// The ids of one kind a syscall minted, in order, and the position of
/// the current attempt's next allocation.
struct Minted<T> {
    ids: Vec<T>,
    cur: usize,
}

impl<T> Default for Minted<T> {
    fn default() -> Self {
        Minted { ids: Vec::new(), cur: 0 }
    }
}

impl<T: Copy> Minted<T> {
    /// The id an earlier attempt minted at this position, or a fresh one
    /// from `mint`.
    fn next(&mut self, mint: impl FnOnce() -> T) -> T {
        if self.cur == self.ids.len() {
            self.ids.push(mint());
        }
        self.cur += 1;
        self.ids[self.cur - 1]
    }
}

/// The shard modes a syscall declares before its body runs (see the
/// module docs): `task` for the caller's task shard, which every attempt
/// pre-locks; `proc` for the caller's process shard, pre-locked only
/// when `Some`; and `parent` and `target` for the final parent directory
/// and the inode its path walk names.
///
/// A body that creates a task (`new_task`) or a process (`new_proc`)
/// gets its first such id minted before the first attempt, and that
/// id's shard pre-locked exclusive: a new task's shard may rank below
/// the caller's process shard, and a new process's below the caller's,
/// so taking them on demand would restart the syscall.
///
/// A body whose intent leaves `proc` at `None` reads the process only to
/// resolve a relative path: that cwd read takes the shard on demand,
/// shared, before the walk takes any inode shard, so it never restarts.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Intent {
    pub task: ShardMode,
    pub proc: Option<ShardMode>,
    pub parent: ShardMode,
    pub target: ShardMode,
    pub new_task: bool,
    pub new_proc: bool,
}

impl Intent {
    /// Everything shared and the process shard not pre-locked: a
    /// syscall that only reads, and reads the process at most for its
    /// cwd.
    pub(crate) const READ: Intent = Intent {
        task: ShardMode::Shared,
        proc: None,
        parent: ShardMode::Shared,
        target: ShardMode::Shared,
        new_task: false,
        new_proc: false,
    };
}

/// One undo record: the inverse of one mutation (see the module docs).
enum Undo {
    /// A task this transaction created (`None`) or destroyed (`Some`).
    Task(TaskId, Option<Box<TaskStruct>>),
    Proc(ProcessId, Option<Box<ProcessStruct>>),
    Inode(InodeId, Option<Box<Inode>>),
    /// Regular-file write: the old length and the overwritten range.
    FileRange {
        ino: InodeId,
        offset: usize,
        old_len: usize,
        old_bytes: Vec<u8>,
    },
    /// A directory entry added, with the entry it replaced (if any).
    DirInsert {
        dir: InodeId,
        name: String,
        prev: Option<InodeId>,
    },
    DirRemove {
        dir: InodeId,
        name: String,
        ino: InodeId,
    },
    /// One message appended to a pipe or socket buffer.
    PipePush(InodeId, Buf),
    /// What one read took off a buffer's head.
    PipePop(InodeId, Buf, Popped),
    /// A pipe's or socket's fd count before `fork`, `close` or `exit` changed it.
    FdCount(InodeId, u32),
    /// An fd installed (it was the fd counter's value before).
    FdInsert(ProcessId, Fd),
    FdRemove(ProcessId, Fd, OpenFile),
    FdOffset(ProcessId, Fd, u64),
    Cwd(ProcessId, InodeId),
    /// The process's own thread list and image, saved whole.
    ProcTasks(ProcessId, Vec<TaskId>),
    ProcImage(ProcessId, ProcImage),
    /// The process's `trusted_vm` flag before `bless_vm_process` set it.
    TrustedVm(ProcessId, bool),
    Labels(TaskId, SecPair),
    /// The old capability set: an `Arc` clone, not a copy.
    Caps(TaskId, Arc<CapSet>),
    SignalPush(TaskId),
    SignalPop(TaskId, Signal),
    PersistentCaps(UserId, Option<CapSet>),
    TagsMinted(UserId, Option<u64>),
}

impl Undo {
    /// Bytes the record occupies: itself plus the heap it owns.
    fn bytes(&self) -> usize {
        size_of::<Undo>()
            + match self {
                Undo::Task(_, Some(t)) => {
                    size_of::<TaskStruct>()
                        + t.pending_signals.len() * size_of::<Signal>()
                }
                Undo::Proc(_, Some(p)) => {
                    size_of::<ProcessStruct>()
                        + p.fds.len() * size_of::<(Fd, OpenFile)>()
                        + p.tasks.len() * size_of::<TaskId>()
                        + image_heap(&p.image)
                }
                Undo::Inode(_, Some(i)) => size_of::<Inode>() + inode_heap(&i.kind),
                Undo::FileRange { old_bytes, .. } => old_bytes.len(),
                Undo::DirInsert { name, .. } | Undo::DirRemove { name, .. } => name.len(),
                Undo::PipePop(_, _, popped) => popped.heap_bytes(),
                Undo::ProcTasks(_, tasks) => tasks.len() * size_of::<TaskId>(),
                Undo::ProcImage(_, image) => image_heap(image),
                Undo::PersistentCaps(_, Some(caps)) => {
                    caps.len() * size_of::<Capability>()
                }
                _ => 0,
            }
    }
}

fn image_heap(image: &ProcImage) -> usize {
    image.vm_areas.len() * size_of::<VmArea>()
}

fn inode_heap(kind: &InodeKind) -> usize {
    match kind {
        InodeKind::File { data } => data.len(),
        InodeKind::Dir { entries } => {
            entries.keys().map(|name| size_of::<(String, InodeId)>() + name.len()).sum()
        }
        InodeKind::Pipe { buffer, .. } => buffer.heap_bytes(),
        InodeKind::Socket { ab, ba, .. } => ab.heap_bytes() + ba.heap_bytes(),
        InodeKind::Symlink { target } => target.len(),
        InodeKind::NullDevice => 0,
    }
}

/// An in-flight syscall transaction (see the module docs).
pub(crate) struct Txn<'a> {
    kernel: &'a Kernel,
    /// Held shard locks, sorted ascending by key (the total lock order).
    guards: Vec<HeldShard<'a>>,
    journal: Vec<Undo>,
    /// Bytes of every record pushed this attempt (see [`Undo::bytes`]).
    undo_bytes: u64,
    ids: &'a mut IdCache,
    /// LSM hook invocations this attempt; flushed by the dispatcher. A
    /// `Cell`, so a hook can be counted while an inode borrowed from
    /// this transaction is being checked.
    hooks: Cell<u64>,
    intent: Intent,
}

impl<'a> Txn<'a> {
    /// Starts a transaction with every shard in `footprint` pre-locked
    /// in ascending order, each in its recorded mode.
    pub(crate) fn begin(
        kernel: &'a Kernel,
        footprint: Footprint,
        ids: &'a mut IdCache,
        intent: Intent,
    ) -> Self {
        ids.reset_cursors();
        let mut guards = Vec::with_capacity(footprint.len() + 4);
        for (key, mode) in footprint.iter() {
            guards.push(kernel.tables.lock(key, mode));
        }
        Txn {
            kernel,
            guards,
            journal: Vec::new(),
            undo_bytes: 0,
            ids,
            hooks: Cell::new(0),
            intent,
        }
    }

    /// The modes this syscall declared.
    pub(crate) fn intent(&self) -> Intent {
        self.intent
    }

    /// Ensures the shard for `key` is held in `mode` (exclusive also
    /// serves shared), acquiring it if it is above every held shard;
    /// returns its index in the guard list.
    ///
    /// # Errors
    /// [`OsError::Retry`] if acquiring would violate the total lock
    /// order, or `mode` is exclusive and the shard is held shared — the
    /// dispatcher widens the footprint and restarts.
    fn require(&mut self, key: ShardKey, mode: ShardMode) -> OsResult<usize> {
        if let Some(i) = self.guards.iter().position(|g| g.key == key) {
            if mode > self.guards[i].mode() {
                return Err(OsError::Retry(key, mode));
            }
            return Ok(i);
        }
        if let Some(last) = self.guards.last() {
            if last.key > key {
                return Err(OsError::Retry(key, mode));
            }
        }
        self.guards.push(self.kernel.tables.lock(key, mode));
        Ok(self.guards.len() - 1)
    }

    /// The shards this attempt holds, each in its held mode.
    pub(crate) fn footprint(&self) -> Footprint {
        let mut footprint = Footprint::default();
        for g in &self.guards {
            footprint.add(g.key, g.mode());
        }
        footprint
    }

    /// Takes `key` in `mode` now, before the first access to it, so a
    /// later mutation does not find the shard held shared.
    ///
    /// # Errors
    /// [`OsError::Retry`], as [`Txn::require`].
    pub(crate) fn hold(&mut self, key: ShardKey, mode: ShardMode) -> OsResult<()> {
        self.require(key, mode).map(|_| ())
    }

    /// Pushes one undo record. Callers hold the record's shard.
    fn record(&mut self, undo: Undo) {
        self.undo_bytes += undo.bytes() as u64;
        self.journal.push(undo);
    }

    // --- held-shard map access ----------------------------------------------

    fn guard(&mut self, key: ShardKey, mode: ShardMode) -> OsResult<&mut ShardGuard<'a>> {
        let i = self.require(key, mode)?;
        Ok(&mut self.guards[i].guard)
    }

    fn tasks_map(&mut self, id: TaskId) -> OsResult<&TaskMap> {
        self.guard(ShardKey::task(id), ShardMode::Shared)?
            .tasks()
            .ok_or(OsError::Internal)
    }

    fn tasks_mut(&mut self, id: TaskId) -> OsResult<&mut TaskMap> {
        let g = self.guard(ShardKey::task(id), ShardMode::Exclusive)?;
        g.tasks_mut().ok_or(OsError::Internal)
    }

    fn procs_map(&mut self, id: ProcessId) -> OsResult<&ProcMap> {
        self.guard(ShardKey::proc(id), ShardMode::Shared)?
            .procs()
            .ok_or(OsError::Internal)
    }

    fn procs_mut(&mut self, id: ProcessId) -> OsResult<&mut ProcMap> {
        let g = self.guard(ShardKey::proc(id), ShardMode::Exclusive)?;
        g.procs_mut().ok_or(OsError::Internal)
    }

    fn inodes_map(&mut self, id: InodeId) -> OsResult<&InodeMap> {
        self.guard(ShardKey::inode(id), ShardMode::Shared)?
            .inodes()
            .ok_or(OsError::Internal)
    }

    fn inodes_mut(&mut self, id: InodeId) -> OsResult<&mut InodeMap> {
        let g = self.guard(ShardKey::inode(id), ShardMode::Exclusive)?;
        g.inodes_mut().ok_or(OsError::Internal)
    }

    fn registry_mut(&mut self) -> OsResult<&mut Registry> {
        let g = self.guard(ShardKey::registry(), ShardMode::Exclusive)?;
        g.registry_mut().ok_or(OsError::Internal)
    }

    /// Replays the journal in reverse, making the transaction a no-op on
    /// kernel state. Each record reaches its entry through the accessor
    /// the mutator that pushed it used, and rollback never locks: every
    /// record was pushed after its shard was taken exclusive, so
    /// [`Txn::require`] finds the shard held and returns it. A record
    /// whose entry is gone is skipped.
    pub(crate) fn rollback(&mut self) {
        while let Some(undo) = self.journal.pop() {
            let _ = self.undo(undo);
        }
    }

    /// Applies one undo record (see [`Txn::rollback`]).
    fn undo(&mut self, undo: Undo) -> OsResult<()> {
        match undo {
            Undo::Task(id, prev) => {
                let m = self.tasks_mut(id)?;
                match prev {
                    Some(t) => m.insert(id, *t),
                    None => m.remove(&id),
                };
            }
            Undo::Proc(id, prev) => {
                let m = self.procs_mut(id)?;
                match prev {
                    Some(p) => m.insert(id, *p),
                    None => m.remove(&id),
                };
            }
            Undo::Inode(id, Some(i)) => {
                if self.inodes_mut(id)?.insert(id, *i).is_none() {
                    self.kernel.inode_ids.inserted(id);
                }
            }
            Undo::Inode(id, None) => {
                if self.inodes_mut(id)?.remove(&id).is_some() {
                    self.kernel.inode_ids.removed(id);
                }
            }
            Undo::FileRange { ino, offset, old_len, old_bytes } => {
                if let InodeKind::File { data } = &mut self.inode_entry(ino)?.kind {
                    data.truncate(old_len);
                    let end = (offset + old_bytes.len()).min(data.len());
                    if offset <= end {
                        data[offset..end].copy_from_slice(&old_bytes[..end - offset]);
                    }
                }
            }
            Undo::DirInsert { dir, name, prev } => {
                let entries = self.dir_entries(dir)?;
                match prev {
                    Some(ino) => entries.insert(name, ino),
                    None => entries.remove(&name),
                };
            }
            Undo::DirRemove { dir, name, ino } => {
                self.dir_entries(dir)?.insert(name, ino);
            }
            Undo::PipePush(ino, which) => self.buffer(ino, which)?.unpush(),
            Undo::PipePop(ino, which, popped) => self.buffer(ino, which)?.unpop(popped),
            Undo::FdCount(ino, old) => *self.fd_count(ino)? = old,
            Undo::FdInsert(pid, fd) => self.proc_entry(pid)?.fds.uninsert(fd),
            Undo::FdRemove(pid, fd, file) => self.proc_entry(pid)?.fds.unremove(fd, file),
            Undo::FdOffset(pid, fd, off) => {
                if let Some(f) = self.proc_entry(pid)?.fds.get_mut(fd) {
                    f.offset = off;
                }
            }
            Undo::Cwd(pid, ino) => self.proc_entry(pid)?.cwd = ino,
            Undo::ProcTasks(pid, tasks) => self.proc_entry(pid)?.tasks = tasks,
            Undo::ProcImage(pid, image) => self.proc_entry(pid)?.image = image,
            Undo::TrustedVm(pid, old) => self.proc_entry(pid)?.trusted_vm = old,
            Undo::Labels(tid, labels) => self.task_entry(tid)?.security.labels = labels,
            Undo::Caps(tid, caps) => self.task_entry(tid)?.security.caps = caps,
            Undo::SignalPush(tid) => {
                self.task_entry(tid)?.pending_signals.pop_back();
            }
            Undo::SignalPop(tid, sig) => {
                self.task_entry(tid)?.pending_signals.push_front(sig);
            }
            Undo::PersistentCaps(user, prev) => {
                let caps = &mut self.registry_mut()?.persistent_caps;
                match prev {
                    Some(c) => caps.insert(user, c),
                    None => caps.remove(&user),
                };
            }
            Undo::TagsMinted(user, prev) => {
                let minted = &mut self.registry_mut()?.tags_minted;
                match prev {
                    Some(n) => minted.insert(user, n),
                    None => minted.remove(&user),
                };
            }
        }
        Ok(())
    }

    /// Bumps the per-attempt LSM hook count (flushed at commit); the
    /// panic-at-hook failpoint fires here.
    pub(crate) fn count_hook(&self) {
        self.hooks.set(self.hooks.get() + 1);
        self.kernel.failpoints.fire_panic_at_hook();
    }

    /// Publishes this attempt's counters: adds its hook count to the
    /// kernel's monotonic counter and stores its undo bytes in this
    /// thread's [`Kernel::last_undo_bytes_for_test`]. Called by
    /// the dispatcher on every exit except a footprint restart (so
    /// restarts do not inflate the count).
    pub(crate) fn flush_counters(&mut self) {
        let hooks = self.hooks.take();
        if hooks > 0 {
            self.kernel.hook_counter.add(hooks);
        }
        crate::kernel::LAST_UNDO_BYTES.with(|b| b.set(self.undo_bytes));
    }

    // --- read accessors ------------------------------------------------------

    /// The task entry; [`OsError::NoSuchTask`] if it is absent (the task
    /// exited, which removes the entry).
    pub(crate) fn task(&mut self, id: TaskId) -> OsResult<&TaskStruct> {
        self.tasks_map(id)?.get(&id).ok_or(OsError::NoSuchTask)
    }

    /// A clone of a task's security context.
    pub(crate) fn task_sec(&mut self, id: TaskId) -> OsResult<TaskSec> {
        Ok(self.task(id)?.security.clone())
    }

    /// The security context of a task whose shard this transaction
    /// already holds, borrowed like [`Txn::held_node`] so a hook can
    /// read it next to an inode's labels; [`OsError::Internal`] if the
    /// shard is not held.
    pub(crate) fn held_task_sec(&self, id: TaskId) -> OsResult<&TaskSec> {
        let tasks =
            self.held_shard(ShardKey::task(id))?.tasks().ok_or(OsError::Internal)?;
        tasks.get(&id).map(|t| &t.security).ok_or(OsError::NoSuchTask)
    }

    /// The `*_tcb` syscalls' gate (§4.4): holds `target` exclusive if it is a
    /// thread of `task`'s process and `task` carries the `tcb` tag.
    pub(crate) fn tcb_target(
        &mut self,
        task: &TaskHandle,
        target: TaskId,
    ) -> OsResult<()> {
        let tcb = self.kernel.tcb_tag();
        if !self.task(task.tid)?.security.labels.integrity().contains(tcb) {
            return Err(OsError::PermissionDenied("requires the tcb integrity tag"));
        }
        self.hold(ShardKey::task(target), ShardMode::Exclusive)?;
        if self.task(target)?.process != task.pid {
            return Err(OsError::PermissionDenied("not in the caller's address space"));
        }
        Ok(())
    }

    /// The process entry; a missing process for a live task is an
    /// internal invariant failure.
    pub(crate) fn proc(&mut self, id: ProcessId) -> OsResult<&ProcessStruct> {
        self.procs_map(id)?.get(&id).ok_or(OsError::Internal)
    }

    /// The inode's labels, borrowed from its shard (taken shared if not
    /// yet held); [`OsError::NotFound`] if missing.
    pub(crate) fn inode_labels(&mut self, id: InodeId) -> OsResult<&SecPair> {
        let inodes = self.inodes_map(id)?;
        inodes.get(&id).map(Inode::labels).ok_or(OsError::NotFound)
    }

    /// An inode whose shard this transaction already holds. Borrows
    /// `&self`, so a hook can read two inodes at once;
    /// [`OsError::NotFound`] if missing, [`OsError::Internal`] if the
    /// shard is not held.
    pub(crate) fn held_node(&self, id: InodeId) -> OsResult<&Inode> {
        let inodes =
            self.held_shard(ShardKey::inode(id))?.inodes().ok_or(OsError::Internal)?;
        inodes.get(&id).ok_or(OsError::NotFound)
    }

    /// A shard this transaction holds, for the `&self` borrows above;
    /// [`OsError::Internal`] if it is not held.
    fn held_shard(&self, key: ShardKey) -> OsResult<&ShardGuard<'a>> {
        let held = self.guards.iter().find(|g| g.key == key).ok_or(OsError::Internal)?;
        Ok(&held.guard)
    }

    // --- journalled mutators: one inverse record per change -------------------
    //
    // Each mutator locks the entry's shard, applies one change and then
    // records its inverse. The entry lookups below are private: a body
    // cannot reach a mutable entry without going through a mutator.

    fn task_entry(&mut self, id: TaskId) -> OsResult<&mut TaskStruct> {
        self.tasks_mut(id)?.get_mut(&id).ok_or(OsError::NoSuchTask)
    }

    fn proc_entry(&mut self, id: ProcessId) -> OsResult<&mut ProcessStruct> {
        self.procs_mut(id)?.get_mut(&id).ok_or(OsError::Internal)
    }

    fn inode_entry(&mut self, id: InodeId) -> OsResult<&mut Inode> {
        self.inodes_mut(id)?.get_mut(&id).ok_or(OsError::NotFound)
    }

    /// Replaces a task's labels.
    pub(crate) fn set_labels(&mut self, tid: TaskId, labels: SecPair) -> OsResult<()> {
        let old = std::mem::replace(&mut self.task_entry(tid)?.security.labels, labels);
        self.record(Undo::Labels(tid, old));
        Ok(())
    }

    /// Mutable access to a task's capability set; the record keeps the
    /// old set's `Arc`, so the first change copies the set on write.
    pub(crate) fn caps_mut(&mut self, tid: TaskId) -> OsResult<&mut CapSet> {
        let old = Arc::clone(&self.task_entry(tid)?.security.caps);
        self.record(Undo::Caps(tid, old));
        Ok(self.task_entry(tid)?.security.caps_mut())
    }

    /// Queues a signal at the back of a task's pending queue.
    pub(crate) fn signal_push(&mut self, tid: TaskId, sig: Signal) -> OsResult<()> {
        self.task_entry(tid)?.pending_signals.push_back(sig);
        self.record(Undo::SignalPush(tid));
        Ok(())
    }

    /// Dequeues the signal at the front of a task's pending queue.
    pub(crate) fn signal_pop(&mut self, tid: TaskId) -> OsResult<Option<Signal>> {
        let sig = self.task_entry(tid)?.pending_signals.pop_front();
        if let Some(sig) = sig {
            self.record(Undo::SignalPop(tid, sig));
        }
        Ok(sig)
    }

    /// Sets a process's working directory.
    pub(crate) fn set_cwd(&mut self, pid: ProcessId, cwd: InodeId) -> OsResult<()> {
        let old = std::mem::replace(&mut self.proc_entry(pid)?.cwd, cwd);
        self.record(Undo::Cwd(pid, old));
        Ok(())
    }

    /// Mutable access to a process's thread list (saved whole: it holds
    /// only that process's own threads).
    pub(crate) fn proc_tasks_mut(
        &mut self,
        pid: ProcessId,
    ) -> OsResult<&mut Vec<TaskId>> {
        let old = self.proc_entry(pid)?.tasks.clone();
        self.record(Undo::ProcTasks(pid, old));
        Ok(&mut self.proc_entry(pid)?.tasks)
    }

    /// Marks a process as running a trusted VM (`bless_vm_process`).
    pub(crate) fn set_trusted_vm(&mut self, pid: ProcessId) -> OsResult<()> {
        let old = std::mem::replace(&mut self.proc_entry(pid)?.trusted_vm, true);
        self.record(Undo::TrustedVm(pid, old));
        Ok(())
    }

    /// Mutable access to a process's image (its maps; saved whole, like
    /// the thread list).
    pub(crate) fn proc_image_mut(&mut self, pid: ProcessId) -> OsResult<&mut ProcImage> {
        let old = self.proc_entry(pid)?.image.clone();
        self.record(Undo::ProcImage(pid, old));
        Ok(&mut self.proc_entry(pid)?.image)
    }

    /// The entry map of a directory inode.
    fn dir_entries(&mut self, dir: InodeId) -> OsResult<&mut BTreeMap<String, InodeId>> {
        match &mut self.inode_entry(dir)?.kind {
            InodeKind::Dir { entries } => Ok(entries),
            _ => Err(OsError::NotADirectory),
        }
    }

    /// Links `name` to `ino` in directory `dir`.
    pub(crate) fn dir_insert(
        &mut self,
        dir: InodeId,
        name: String,
        ino: InodeId,
    ) -> OsResult<()> {
        let prev = self.dir_entries(dir)?.insert(name.clone(), ino);
        self.record(Undo::DirInsert { dir, name, prev });
        Ok(())
    }

    /// Unlinks `name` from directory `dir` (a missing name is a no-op).
    pub(crate) fn dir_remove(&mut self, dir: InodeId, name: &str) -> OsResult<()> {
        if let Some((name, ino)) = self.dir_entries(dir)?.remove_entry(name) {
            self.record(Undo::DirRemove { dir, name, ino });
        }
        Ok(())
    }

    /// A pipe or socket buffer; a pipe end naming anything else is an
    /// internal invariant failure.
    fn buffer(&mut self, ino: InodeId, which: Buf) -> OsResult<&mut PipeBuffer> {
        self.inode_entry(ino)?.kind.buffer_mut(which).ok_or(OsError::Internal)
    }

    /// Appends a byte message; `Ok(false)` means the buffer was full and
    /// the message was dropped (the caller must keep that silent).
    pub(crate) fn buffer_push_bytes(
        &mut self,
        ino: InodeId,
        which: Buf,
        data: &[u8],
    ) -> OsResult<bool> {
        let delivered = self.buffer(ino, which)?.push_bytes(data);
        // A zero-byte write reports success without queueing anything.
        if delivered && !data.is_empty() {
            self.record(Undo::PipePush(ino, which));
        }
        Ok(delivered)
    }

    /// Appends a capability message to a pipe; `Ok(false)` on a drop.
    pub(crate) fn buffer_push_cap(
        &mut self,
        ino: InodeId,
        cap: Capability,
    ) -> OsResult<bool> {
        let delivered = self.buffer(ino, Buf::Pipe)?.push_cap(cap);
        if delivered {
            self.record(Undo::PipePush(ino, Buf::Pipe));
        }
        Ok(delivered)
    }

    /// Reads up to `max` bytes off a buffer's head.
    pub(crate) fn buffer_pop_bytes(
        &mut self,
        ino: InodeId,
        which: Buf,
        max: usize,
    ) -> OsResult<Vec<u8>> {
        let (data, popped) = self.buffer(ino, which)?.pop_bytes(max);
        if !data.is_empty() {
            self.record(Undo::PipePop(ino, which, popped));
        }
        Ok(data)
    }

    /// Takes the capability message at a pipe's head, if there is one.
    pub(crate) fn buffer_pop_cap(
        &mut self,
        ino: InodeId,
    ) -> OsResult<Option<Capability>> {
        let cap = self.buffer(ino, Buf::Pipe)?.pop_cap();
        if let Some(c) = cap {
            self.record(Undo::PipePop(ino, Buf::Pipe, Popped::cap(c)));
        }
        Ok(cap)
    }

    /// The fd count of a pipe or socket; a count asked of any other
    /// inode is an internal invariant failure.
    fn fd_count(&mut self, ino: InodeId) -> OsResult<&mut u32> {
        self.inode_entry(ino)?.kind.fds_mut().ok_or(OsError::Internal)
    }

    /// Counts one more fd naming a pipe or socket (`fork` copies it).
    pub(crate) fn fd_opened(&mut self, ino: InodeId) -> OsResult<()> {
        let fds = self.fd_count(ino)?;
        let old = *fds;
        *fds = old + 1;
        self.record(Undo::FdCount(ino, old));
        Ok(())
    }

    /// Counts one fd naming a pipe or socket gone (`close`, a process's
    /// last `exit`). The last one destroys the inode, whose pre-image
    /// keeps the count and the queued messages for rollback.
    pub(crate) fn fd_closed(&mut self, ino: InodeId) -> OsResult<()> {
        let fds = self.fd_count(ino)?;
        let old = *fds;
        if old <= 1 {
            return self.remove_inode(ino);
        }
        *fds = old - 1;
        self.record(Undo::FdCount(ino, old));
        Ok(())
    }

    /// Destroys a task entry, keeping its pre-image for rollback.
    pub(crate) fn remove_task(&mut self, id: TaskId) -> OsResult<()> {
        if let Some(t) = self.tasks_mut(id)?.remove(&id) {
            self.record(Undo::Task(id, Some(Box::new(t))));
        }
        Ok(())
    }

    /// Destroys a process entry (with its fd table), keeping its
    /// pre-image for rollback.
    pub(crate) fn remove_process(&mut self, id: ProcessId) -> OsResult<()> {
        if let Some(p) = self.procs_mut(id)?.remove(&id) {
            self.record(Undo::Proc(id, Some(Box::new(p))));
        }
        Ok(())
    }

    /// Destroys an inode, keeping its pre-image for rollback.
    pub(crate) fn remove_inode(&mut self, id: InodeId) -> OsResult<()> {
        if let Some(i) = self.inodes_mut(id)?.remove(&id) {
            self.kernel.inode_ids.removed(id);
            self.record(Undo::Inode(id, Some(Box::new(i))));
        }
        Ok(())
    }

    /// Allocates a fresh inode, enforcing the inode quota. Its id is
    /// minted in a shard above every shard this transaction holds (see
    /// [`crate::shard::InodeIds`]), so locking it does not restart
    /// unless no shard sorts above them.
    pub(crate) fn alloc_inode(
        &mut self,
        kind: InodeKind,
        labels: SecPair,
    ) -> OsResult<InodeId> {
        if self.kernel.failpoints.take_quota() {
            return Err(quota_denied("injected allocation failure"));
        }
        if self.kernel.inode_ids.live() as usize >= self.kernel.quotas.max_inodes {
            return Err(quota_denied("inodes"));
        }
        let above = self.guards.last().map(|g| g.key);
        let id = self.ids.inodes.next(|| self.kernel.inode_ids.mint(above));
        self.inodes_mut(id)?.insert(id, Inode { id, kind, xattrs: Xattrs { labels } });
        self.kernel.inode_ids.inserted(id);
        self.record(Undo::Inode(id, None));
        Ok(id)
    }

    /// Inserts an open file into a process's fd table, enforcing the
    /// per-process fd quota (which counts *open* descriptors, so closing
    /// frees quota even though fd numbers are never reused). Once the
    /// `u32` fd numbers are spent the insert fails closed the same way.
    pub(crate) fn fd_insert(&mut self, pid: ProcessId, file: OpenFile) -> OsResult<Fd> {
        if self.kernel.failpoints.take_quota() {
            return Err(quota_denied("injected allocation failure"));
        }
        let max = self.kernel.quotas.max_fds_per_process;
        let fds = &mut self.proc_entry(pid)?.fds;
        if fds.len() >= max {
            return Err(quota_denied("file descriptors"));
        }
        let fd = fds.insert(file).ok_or_else(|| quota_denied("file descriptors"))?;
        self.record(Undo::FdInsert(pid, fd));
        Ok(fd)
    }

    /// Removes an fd from a process's table, returning its open file.
    pub(crate) fn fd_remove(&mut self, pid: ProcessId, fd: Fd) -> OsResult<OpenFile> {
        let file = self.proc_entry(pid)?.fds.remove(fd).ok_or(OsError::BadFd)?;
        self.record(Undo::FdRemove(pid, fd, file.clone()));
        Ok(file)
    }

    /// Sets an fd's offset.
    pub(crate) fn fd_set_offset(
        &mut self,
        pid: ProcessId,
        fd: Fd,
        offset: u64,
    ) -> OsResult<()> {
        let f = self.proc_entry(pid)?.fds.get_mut(fd).ok_or(OsError::BadFd)?;
        let old = std::mem::replace(&mut f.offset, offset);
        self.record(Undo::FdOffset(pid, fd, old));
        Ok(())
    }

    /// In-place write to a regular file's contents: records only the
    /// overwritten range plus the old length, then applies the write
    /// (extending the file if needed).
    ///
    /// The resulting file length is bounded by [`Quotas::max_file_size`]
    /// and the offset arithmetic is checked: a sparse write past the
    /// quota (or one whose `offset + len` overflows) is a fail-closed
    /// [`OsError::QuotaExceeded`] *before* any allocation happens, so a
    /// single `seek(huge)` + `write` can no longer force a multi-gigabyte
    /// `resize`.
    pub(crate) fn write_file_data(
        &mut self,
        ino: InodeId,
        offset: usize,
        buf: &[u8],
    ) -> OsResult<()> {
        let new_end = match offset.checked_add(buf.len()) {
            Some(end) if end <= self.kernel.quotas.max_file_size => end,
            _ => return Err(quota_denied("file size")),
        };
        let data = match &mut self.inode_entry(ino)?.kind {
            InodeKind::File { data } => data,
            _ => return Err(OsError::Internal),
        };
        let old_len = data.len();
        let end = new_end.min(old_len);
        let old_bytes =
            if offset < end { data[offset..end].to_vec() } else { Vec::new() };
        if new_end > data.len() {
            data.resize(new_end, 0);
        }
        data[offset..new_end].copy_from_slice(buf);
        self.record(Undo::FileRange { ino, offset, old_len, old_bytes });
        Ok(())
    }

    /// Journalled update of a user's persistent capability file.
    pub(crate) fn set_persistent_caps(
        &mut self,
        user: UserId,
        caps: CapSet,
    ) -> OsResult<()> {
        let prev = self.registry_mut()?.persistent_caps.insert(user, caps);
        self.record(Undo::PersistentCaps(user, prev));
        Ok(())
    }

    /// Accounts one tag minted by `user`, enforcing the per-user tag
    /// quota.
    pub(crate) fn mint_tag(&mut self, user: UserId) -> OsResult<()> {
        if self.kernel.failpoints.take_quota() {
            return Err(quota_denied("injected allocation failure"));
        }
        let max = self.kernel.quotas.max_tags_per_user;
        let minted = &mut self.registry_mut()?.tags_minted;
        let prev = minted.get(&user).copied();
        if prev.unwrap_or(0) >= max {
            return Err(quota_denied("tags"));
        }
        minted.insert(user, prev.unwrap_or(0) + 1);
        self.record(Undo::TagsMinted(user, prev));
        Ok(())
    }

    /// Mints a fresh tag, replay-stable across footprint restarts.
    pub(crate) fn fresh_tag(&mut self) -> Tag {
        self.ids.tags.next(|| self.kernel.tags.fresh())
    }

    /// Spawns a fresh single-task process (used by `fork`) running as
    /// `user` with security context `sec`, the given cwd and fd table.
    /// Returns `(task, process)` ids.
    pub(crate) fn spawn_process(
        &mut self,
        user: UserId,
        sec: TaskSec,
        cwd: InodeId,
        fds: FdTable,
    ) -> OsResult<(TaskId, ProcessId)> {
        let tid = self.fresh_task_id();
        let pid = self.ids.proc(self.kernel);
        // Ascending domains: task shards rank below process shards.
        self.hold(ShardKey::task(tid), ShardMode::Exclusive)?;
        let mut proc = ProcessStruct::fresh(tid, cwd);
        proc.fds = fds;
        self.procs_mut(pid)?.insert(pid, proc);
        self.record(Undo::Proc(pid, None));
        self.tasks_mut(tid)?.insert(tid, TaskStruct::fresh(tid, pid, user, sec));
        self.record(Undo::Task(tid, None));
        Ok((tid, pid))
    }

    /// Mints a fresh task id (replay-stable); used by `spawn_thread`,
    /// which inserts the task itself.
    pub(crate) fn fresh_task_id(&mut self) -> TaskId {
        self.ids.task(self.kernel)
    }

    /// Inserts a task under a fresh id (for `spawn_thread`).
    pub(crate) fn insert_task(&mut self, task: TaskStruct) -> OsResult<()> {
        let id = task.id;
        let tasks = self.tasks_mut(id)?;
        if tasks.contains_key(&id) {
            return Err(OsError::Internal);
        }
        tasks.insert(id, task);
        self.record(Undo::Task(id, None));
        Ok(())
    }
}
