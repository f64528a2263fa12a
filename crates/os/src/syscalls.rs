//! The syscall surface of the Laminar OS.
//!
//! Includes the seven security syscalls of Fig. 3 (`alloc_tag`,
//! `set_task_label`, `drop_label_tcb`, `drop_capabilities`,
//! `write_capability`, `create_file_labeled`, `mkdir_labeled`) plus the
//! standard file, pipe, process, memory and signal calls the case
//! studies and the lmbench-style microbenchmarks need.
//!
//! Every syscall consults the loaded security module at the same points
//! a Linux LSM would. Every *mutating* syscall body executes inside a
//! [`crate::txn::Txn`] transaction under the panic boundary of
//! [`Kernel::syscall_on`](crate::kernel::Kernel::syscall_on): the body
//! locks only the shards it touches (in
//! the total lock order of [`crate::shard`]), and an internal fault (or
//! an error return) rolls the journal back, so a failed syscall is a
//! no-op on labels, capabilities, fd tables and the VFS — the kernel
//! fails closed and keeps serving every other task, in parallel.

use crate::error::{OsError, OsResult};
use crate::kernel::TaskHandle;
use crate::lsm::{Access, DeliveryVerdict};
use crate::shard::ShardKey;
use crate::shard::ShardMode::{Exclusive, Shared};
use crate::task::{
    ProcImage, ProcessId, ProcessStruct, Signal, TaskId, TaskSec, TaskStruct, UserId,
    VmArea,
};
use crate::txn::{Intent, Txn};
use crate::vfs::file::{Fd, FdEnd, OpenFile, OpenMode, PipeEnd, SocketEnd};
use crate::vfs::inode::{Buf, Inode, InodeId, InodeKind, Metadata};
use crate::vfs::pipe::PipeBuffer;
use laminar_difc::{
    check_pair_change, CapSet, Capability, Label, LabelType, SecPair, Tag,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a whole-file write by path writes: a regular file's id, or
/// `None` for `/dev/null`, which takes the bytes and keeps nothing.
fn write_target(inode: &Inode) -> OsResult<Option<InodeId>> {
    match inode.kind {
        InodeKind::File { .. } => Ok(Some(inode.id)),
        InodeKind::NullDevice => Ok(None),
        InodeKind::Dir { .. } => Err(OsError::IsADirectory),
        _ => Err(OsError::Unsupported("write_file_at on a special inode")),
    }
}

/// Stages a trusted `SilentDrop` audit event. The subject still sees
/// full success — only the kernel-side log records the drop (§5.2).
fn obs_drop(channel: laminar_obs::DropChannel) {
    laminar_obs::stage(laminar_obs::Event::SilentDrop { channel });
}

// The intents syscalls declare (see [`Intent`]): which shards a syscall
// mutates among the caller's own task and process shards and the final
// parent and target of its path walk. Everything else starts shared. The
// process shard is pre-locked only for a body that touches process
// state; the path-only intents (`Intent::READ`, `LINK`, `UNLINK`,
// `WRITE_TARGET`) leave it to a relative path's cwd read.

/// Reads the caller's process: its fd table, or all of it (`fork`).
const READ_PROC: Intent = Intent { proc: Some(Shared), ..Intent::READ };
/// Mutates the caller's task (labels, capabilities, signals).
const OWN_TASK: Intent = Intent { task: Exclusive, proc: Some(Shared), ..Intent::READ };
/// Mutates the caller's process (fd table, cwd, image).
const OWN_PROC: Intent = Intent { proc: Some(Exclusive), ..Intent::READ };
const OWN_TASK_PROC: Intent =
    Intent { task: Exclusive, proc: Some(Exclusive), ..Intent::READ };
/// Links a new name into the final parent.
const LINK: Intent = Intent { parent: Exclusive, ..Intent::READ };
/// Links a new name into the final parent and opens it.
const CREATE: Intent =
    Intent { proc: Some(Exclusive), parent: Exclusive, ..Intent::READ };
/// Removes a name from the final parent, and its inode.
const UNLINK: Intent = Intent { parent: Exclusive, target: Exclusive, ..Intent::READ };
/// Writes the inode a path names.
const WRITE_TARGET: Intent = Intent { target: Exclusive, ..Intent::READ };
/// Creates a process and its task from the caller's process (`fork`).
const FORK: Intent = Intent { new_task: true, new_proc: true, ..READ_PROC };
/// Creates a thread in the caller's process (`spawn_thread`).
const SPAWN_THREAD: Intent = Intent { new_task: true, ..OWN_PROC };

impl TaskHandle {
    /// Runs one syscall body for this task (see
    /// [`Kernel::syscall_on`](crate::kernel::Kernel::syscall_on)).
    fn syscall<T>(
        &self,
        name: &'static str,
        intent: Intent,
        f: impl FnMut(&mut Txn<'_>) -> OsResult<T>,
    ) -> OsResult<T> {
        self.kernel.syscall_on((self.tid, self.pid), name, intent, f)
    }

    // ----- labels & capabilities (Fig. 3) --------------------------------

    /// `alloc_tag`: returns a fresh tag and grants the caller both its
    /// capabilities. The allocator is trusted and guarantees uniqueness.
    ///
    /// # Errors
    /// Fails if the task has exited; [`OsError::QuotaExceeded`] once the
    /// per-user tag quota is spent.
    pub fn alloc_tag(&self) -> OsResult<Tag> {
        self.syscall("alloc_tag", OWN_TASK, |st| {
            let user = st.task(self.tid)?.user;
            st.mint_tag(user)?;
            // The allocator lives outside the journal: a tag id minted by
            // an aborted transaction is simply never used (ids are opaque).
            let tag = st.fresh_tag();
            st.caps_mut(self.tid)?.grant_both(tag);
            Ok(tag)
        })
    }

    /// `set_task_label`: replaces one of the caller's labels, checking
    /// the label-change rule against its capabilities, the LSM hook, and
    /// the multithreading restriction of §4.1 (threads of an *untrusted*
    /// process must share labels, so heterogeneous changes are rejected
    /// there).
    ///
    /// # Errors
    /// [`OsError::LabelChangeDenied`] if a capability is missing;
    /// [`OsError::PermissionDenied`] for the multithreading restriction.
    pub fn set_task_label(&self, ty: LabelType, new: Label) -> OsResult<()> {
        self.syscall("set_task_label", OWN_TASK, |st| {
            let sec = st.task_sec(self.tid)?;
            let new_pair = sec.labels.with_label(ty, new.clone());
            if new_pair == sec.labels {
                // Equal pairs (tag-slice compares, or pointer compares when
                // the new label is a clone of the old): an identity change
                // always passes the capability rule and the LSM hook, so
                // skip both.
                return Ok(());
            }
            check_pair_change(&sec.labels, &new_pair, &sec.caps)?;
            st.count_hook();
            self.kernel.module.task_set_label(&sec, &new_pair)?;
            // Audit the (now fully approved) transition. Declassify =
            // the release direction: secrecy shrank or integrity grew.
            if laminar_obs::staging() {
                let (ty, declassify) = match ty {
                    LabelType::Secrecy => {
                        ("secrecy", !sec.labels.secrecy().is_subset_of(&new))
                    }
                    LabelType::Integrity => {
                        ("integrity", !new.is_subset_of(sec.labels.integrity()))
                    }
                };
                laminar_obs::stage(laminar_obs::Event::LabelChange {
                    task: self.tid.0,
                    ty,
                    before: sec.labels.fingerprint(),
                    after: new_pair.fingerprint(),
                    declassify,
                });
            }
            let pid = self.pid;
            let (trusted_vm, ptasks) = {
                let proc = st.proc(pid)?;
                (proc.trusted_vm, proc.tasks.clone())
            };
            if !trusted_vm && ptasks.len() > 1 {
                // Without a trusted VM all threads must keep identical
                // labels; a per-thread change would desynchronise them.
                for t in &ptasks {
                    if *t == self.tid {
                        continue;
                    }
                    if st.task(*t)?.security.labels != new_pair {
                        return Err(OsError::PermissionDenied(
                            "threads of an untrusted multithreaded process must share labels",
                        ));
                    }
                }
            }
            st.set_labels(self.tid, new_pair)?;
            Ok(())
        })
    }

    /// Replaces both labels at once (convenience used by the trusted
    /// runtime when entering a security region).
    ///
    /// # Errors
    /// Same as [`Self::set_task_label`].
    pub fn set_task_labels(&self, new: SecPair) -> OsResult<()> {
        self.set_task_label(LabelType::Secrecy, new.secrecy().clone())?;
        self.set_task_label(LabelType::Integrity, new.integrity().clone())
    }

    /// `drop_label_tcb`: clears the current labels of `target` *without
    /// capability checks*. Callable only by a thread whose integrity
    /// label carries the special `tcb` tag, and only for threads in the
    /// caller's own address space — "the VM cannot drop the labels on
    /// other applications" (§4.4).
    ///
    /// # Errors
    /// [`OsError::PermissionDenied`] without the `tcb` tag or across
    /// address spaces.
    pub fn drop_label_tcb(&self, target: TaskId) -> OsResult<()> {
        self.syscall("drop_label_tcb", OWN_TASK, |st| {
            st.tcb_target(self, target)?;
            // The trusted thread dropping its own labels keeps the tcb tag,
            // so it can keep making privileged calls.
            let new = if target == self.tid {
                SecPair::integrity_only(Label::singleton(self.kernel.tcb_tag()))
            } else {
                SecPair::unlabeled()
            };
            st.set_labels(target, new)
        })
    }

    /// Sets the labels of a thread in the caller's address space *without
    /// capability checks*. Requires the `tcb` integrity tag: this is how
    /// the trusted VM pushes already-validated security-region labels to
    /// the kernel (§4.4 — "The Laminar VM is responsible for correctly
    /// setting thread labels and capabilities inside security regions";
    /// the VM is in the TCB, so the kernel takes its word for labels the
    /// region-entry rules have vetted).
    ///
    /// # Errors
    /// [`OsError::PermissionDenied`] without the `tcb` tag or across
    /// address spaces.
    pub fn set_task_labels_tcb(&self, target: TaskId, labels: SecPair) -> OsResult<()> {
        self.syscall("set_task_labels_tcb", OWN_TASK, |st| {
            st.tcb_target(self, target)?;
            st.set_labels(target, labels.clone())
        })
    }

    /// `drop_capabilities`: permanently removes capabilities from the
    /// caller. (Temporary, region-scoped suspension is implemented by the
    /// trusted runtime, which remembers and later re-grants via
    /// [`Self::grant_capabilities_tcb`].)
    ///
    /// # Errors
    /// Fails if the task has exited.
    pub fn drop_capabilities(&self, caps: &[Capability]) -> OsResult<()> {
        self.syscall("drop_capabilities", OWN_TASK, |st| {
            st.task(self.tid)?;
            let held = st.caps_mut(self.tid)?;
            for &c in caps {
                held.revoke(c);
            }
            Ok(())
        })
    }

    /// Re-grants capabilities to a thread in the caller's address space.
    /// Requires the `tcb` integrity tag: this is the restore half of the
    /// trusted runtime's temporary capability suspension.
    ///
    /// # Errors
    /// [`OsError::PermissionDenied`] without the `tcb` tag or across
    /// address spaces.
    pub fn grant_capabilities_tcb(&self, target: TaskId, caps: &CapSet) -> OsResult<()> {
        self.syscall("grant_capabilities_tcb", OWN_TASK, |st| {
            st.tcb_target(self, target)?;
            let held = st.caps_mut(target)?;
            *held = held.union(caps);
            Ok(())
        })
    }

    /// Current labels of the calling task. (Read-only: bypasses the
    /// transaction machinery, never fires failpoints.)
    ///
    /// # Errors
    /// Fails if the task has exited.
    pub fn current_labels(&self) -> OsResult<SecPair> {
        self.read_task(|t| t.security.labels.clone())
    }

    /// Current capability set of the calling task. (Read-only: bypasses
    /// the transaction machinery, never fires failpoints.)
    ///
    /// # Errors
    /// Fails if the task has exited.
    pub fn current_caps(&self) -> OsResult<CapSet> {
        self.read_task(|t| (*t.security.caps).clone())
    }

    /// `write_capability`: sends a capability through a pipe fd. The
    /// kernel mediates: the sender must *hold* the capability, and the
    /// labels of sender → pipe must allow communication — otherwise the
    /// message is silently dropped (an error would leak).
    ///
    /// # Errors
    /// [`OsError::BadFd`] if `fd` is not a writable pipe end;
    /// [`OsError::PermissionDenied`] if the sender lacks the capability.
    pub fn write_capability(&self, cap: Capability, fd: Fd) -> OsResult<()> {
        self.syscall("write_capability", READ_PROC, |st| {
            let sec = st.task_sec(self.tid)?;
            if !sec.caps.has(cap) {
                return Err(OsError::PermissionDenied(
                    "cannot send a capability the sender does not hold",
                ));
            }
            let pid = self.pid;
            let file = st.proc(pid)?.fds.get(fd).cloned().ok_or(OsError::BadFd)?;
            if file.end != FdEnd::Pipe(PipeEnd::Write) {
                return Err(OsError::BadFd);
            }
            st.hold(ShardKey::inode(file.inode), Exclusive)?;
            st.count_hook();
            let pipe_labels = st.inode_labels(file.inode)?;
            match self.kernel.module.cap_transfer(&sec, pipe_labels) {
                DeliveryVerdict::Deliver => {
                    if !st.buffer_push_cap(file.inode, cap)? {
                        // Queue ceiling reached ⇒ silent drop.
                        obs_drop(laminar_obs::DropChannel::Cap);
                    }
                    Ok(())
                }
                DeliveryVerdict::SilentDrop => {
                    obs_drop(laminar_obs::DropChannel::Cap);
                    Ok(())
                }
            }
        })
    }

    /// Receives a capability from a pipe fd, if one is at the head of the
    /// queue. Grants it to the caller. Nonblocking.
    ///
    /// # Errors
    /// [`OsError::BadFd`] if `fd` is not a readable pipe end; a flow
    /// error if the pipe's labels may not flow to the receiver.
    pub fn read_capability(&self, fd: Fd) -> OsResult<Option<Capability>> {
        self.syscall("read_capability", OWN_TASK, |st| {
            let sec = st.task_sec(self.tid)?;
            let pid = self.pid;
            let file = st.proc(pid)?.fds.get(fd).cloned().ok_or(OsError::BadFd)?;
            if file.end != FdEnd::Pipe(PipeEnd::Read) {
                return Err(OsError::BadFd);
            }
            st.hold(ShardKey::inode(file.inode), Exclusive)?;
            st.count_hook();
            let pipe_labels = st.inode_labels(file.inode)?;
            self.kernel.module.cap_receive(&sec, pipe_labels)?;
            let cap = st.buffer_pop_cap(file.inode)?;
            if let Some(c) = cap {
                st.caps_mut(self.tid)?.grant(c);
            }
            Ok(cap)
        })
    }

    /// Persists the caller's current capabilities as the user's
    /// persistent capability set (the on-disk store of §4.4).
    ///
    /// # Errors
    /// Fails if the task has exited.
    pub fn save_persistent_caps(&self) -> OsResult<()> {
        self.syscall("save_persistent_caps", Intent::READ, |st| {
            let t = st.task(self.tid)?;
            let user = t.user;
            let caps = (*t.security.caps).clone();
            st.set_persistent_caps(user, caps)?;
            Ok(())
        })
    }

    // ----- files ----------------------------------------------------------

    /// `create_file_labeled` (Fig. 3): creates a file with explicit
    /// labels, enforcing the three conditions of §5.2 via the
    /// `inode_create` hook, and opens it read-write.
    ///
    /// # Errors
    /// [`OsError::Exists`] if the name is taken; hook vetoes otherwise.
    pub fn create_file_labeled(&self, path: &str, labels: SecPair) -> OsResult<Fd> {
        self.create_inode(path, Some(&labels), false)
    }

    /// `mkdir_labeled` (Fig. 3): creates a directory with explicit labels
    /// under the same rules.
    ///
    /// # Errors
    /// Same as [`Self::create_file_labeled`].
    pub fn mkdir_labeled(&self, path: &str, labels: SecPair) -> OsResult<()> {
        self.create_inode(path, Some(&labels), true).map(|_| ())
    }

    /// Creates an unlabeled-API file: the new file carries the labels of
    /// the creating thread (§4.5: "Other system resources use the label
    /// of their creating thread").
    ///
    /// # Errors
    /// Same as [`Self::create_file_labeled`].
    pub fn create(&self, path: &str) -> OsResult<Fd> {
        self.create_inode(path, None, false)
    }

    /// Creates a directory carrying the labels of the creating thread.
    ///
    /// # Errors
    /// Same as [`Self::create_file_labeled`].
    pub fn mkdir(&self, path: &str) -> OsResult<()> {
        self.create_inode(path, None, true).map(|_| ())
    }

    /// Creates a file or directory with `labels`, or with the creator's
    /// labels when `None`: those are read inside the transaction, so a
    /// sibling thread's label change cannot slip in before the commit.
    fn create_inode(
        &self,
        path: &str,
        labels: Option<&SecPair>,
        dir: bool,
    ) -> OsResult<Fd> {
        self.syscall("create_inode", CREATE, |st| {
            let sec = st.task_sec(self.tid)?;
            let kind = if dir {
                InodeKind::Dir { entries: BTreeMap::new() }
            } else {
                InodeKind::File { data: Vec::new() }
            };
            let id =
                self.link_new(st, &sec, path, labels.unwrap_or(&sec.labels), kind)?;
            if dir {
                return Ok(Fd(u32::MAX)); // sentinel, discarded by mkdir_labeled
            }
            let pid = self.pid;
            st.fd_insert(pid, OpenFile::new(id, OpenMode::ReadWrite, FdEnd::File))
        })
    }

    /// Links a new inode of `kind` carrying `labels` at `path`, under
    /// the three §5.2 creation conditions of the `inode_create` hook. A
    /// final symlink is not followed: like any existing name it fails
    /// the call with [`OsError::Exists`], even when it dangles.
    fn link_new(
        &self,
        st: &mut Txn<'_>,
        sec: &TaskSec,
        path: &str,
        labels: &SecPair,
        kind: InodeKind,
    ) -> OsResult<InodeId> {
        let (parent, name) =
            self.kernel.lookup(st, sec, self.pid, path, false, |st, found| {
                if found.target.is_some() {
                    return Err(OsError::Exists);
                }
                let parent = found
                    .parent
                    .ok_or(OsError::InvalidArgument("path names a directory"))?;
                let parent = st.held_node(parent)?;
                st.count_hook();
                self.kernel.module.inode_create(sec, parent.labels(), labels)?;
                Ok((parent.id, found.name.to_string()))
            })?;
        let id = st.alloc_inode(kind, labels.clone())?;
        st.dir_insert(parent, name, id)?;
        Ok(id)
    }

    /// Opens an existing file. The open itself checks `inode_permission`
    /// for the requested mode; each subsequent read/write re-checks
    /// `file_permission` (labels may have to be re-validated per
    /// operation because the *task's* labels change across security
    /// regions).
    ///
    /// # Errors
    /// [`OsError::NotFound`]; [`OsError::IsADirectory`]; hook vetoes.
    pub fn open(&self, path: &str, mode: OpenMode) -> OsResult<Fd> {
        self.syscall("open", OWN_PROC, |st| {
            let sec = st.task_sec(self.tid)?;
            let mask = match mode {
                OpenMode::Read => Access::Read,
                OpenMode::Write => Access::Write,
                OpenMode::ReadWrite => Access::ReadWrite,
            };
            let inode =
                self.kernel.lookup(st, &sec, self.pid, path, true, |st, found| {
                    let node = found.existing()?;
                    if node.kind.is_dir() {
                        return Err(OsError::IsADirectory);
                    }
                    self.kernel.check_inode(st, &sec, node, mask)?;
                    Ok(node.id)
                })?;
            st.fd_insert(self.pid, OpenFile::new(inode, mode, FdEnd::File))
        })
    }

    /// Closes a descriptor.
    ///
    /// # Errors
    /// [`OsError::BadFd`] if not open.
    pub fn close(&self, fd: Fd) -> OsResult<()> {
        self.syscall("close", OWN_PROC, |st| {
            let pid = st.task(self.tid)?.process;
            let file = st.fd_remove(pid, fd)?;
            if file.end == FdEnd::File {
                return Ok(());
            }
            st.fd_closed(file.inode)
        })
    }

    /// Reads up to `max` bytes from an open descriptor.
    ///
    /// For pipes this is **nonblocking**: an empty pipe yields zero bytes
    /// with no EOF indication (the writer's exit may not be signalled
    /// across labels, §5.2).
    ///
    /// # Errors
    /// [`OsError::BadFd`]; flow vetoes from `file_permission`.
    pub fn read(&self, fd: Fd, max: usize) -> OsResult<Vec<u8>> {
        self.syscall("read", OWN_PROC, |st| {
            st.task(self.tid)?;
            let pid = self.pid;
            let file = st.proc(pid)?.fds.get(fd).cloned().ok_or(OsError::BadFd)?;
            if !file.mode.readable() {
                return Err(OsError::BadFd);
            }
            // A pipe or socket read takes messages off the buffer.
            let mode = if file.end == FdEnd::File { Shared } else { Exclusive };
            st.hold(ShardKey::inode(file.inode), mode)?;
            st.count_hook();
            // The hook borrows the task context and the inode from the
            // shards the transaction holds.
            let sec = st.held_task_sec(self.tid)?;
            let inode = st.held_node(file.inode)?;
            match file.end {
                FdEnd::Pipe(PipeEnd::Read) => {
                    self.kernel.module.pipe_read(sec, inode.labels())?;
                    st.buffer_pop_bytes(file.inode, Buf::Pipe, max)
                }
                FdEnd::Pipe(PipeEnd::Write) => Err(OsError::BadFd),
                FdEnd::Socket(end) => {
                    // Socket read: nonblocking, label-mediated like a pipe.
                    self.kernel.module.pipe_read(sec, inode.labels())?;
                    st.buffer_pop_bytes(file.inode, Buf::socket_rx(end), max)
                }
                FdEnd::File => {
                    self.kernel.module.file_permission(
                        sec,
                        inode.labels(),
                        Access::Read,
                    )?;
                    let data = match &inode.kind {
                        InodeKind::File { data } => {
                            let start = (file.offset as usize).min(data.len());
                            let end = (start + max).min(data.len());
                            data[start..end].to_vec()
                        }
                        InodeKind::NullDevice => Vec::new(),
                        InodeKind::Dir { .. } => return Err(OsError::IsADirectory),
                        InodeKind::Symlink { .. } => {
                            return Err(OsError::Unsupported("read on a symlink fd"))
                        }
                        // A pipe/socket inode behind a plain fd is an
                        // internal invariant failure; report it fail-closed.
                        InodeKind::Pipe { .. } | InodeKind::Socket { .. } => {
                            return Err(OsError::Internal)
                        }
                    };
                    let n = data.len() as u64;
                    if n > 0 {
                        st.fd_set_offset(pid, fd, file.offset + n)?;
                    }
                    Ok(data)
                }
            }
        })
    }

    /// Writes bytes at the descriptor's offset.
    ///
    /// Pipe writes are **unreliable**: if the flow check fails or the
    /// buffer is full the message is *silently dropped* and the call
    /// still reports full success — an error code would leak (§5.2).
    ///
    /// # Errors
    /// [`OsError::BadFd`]; flow vetoes from `file_permission` (regular
    /// files only — pipe label failures drop silently).
    pub fn write(&self, fd: Fd, data: &[u8]) -> OsResult<usize> {
        self.syscall("write", OWN_PROC, |st| {
            st.task(self.tid)?;
            let pid = self.pid;
            let file = st.proc(pid)?.fds.get(fd).cloned().ok_or(OsError::BadFd)?;
            if !file.mode.writable() {
                return Err(OsError::BadFd);
            }
            let mode =
                if file.inode == self.kernel.null_dev { Shared } else { Exclusive };
            st.hold(ShardKey::inode(file.inode), mode)?;
            st.count_hook();
            // Borrowed from the held shards, as in `read`.
            let sec = st.held_task_sec(self.tid)?;
            let inode = st.held_node(file.inode)?;
            // Pipe and socket writes deliver or silently drop (§5.2): a
            // full buffer looks the same as a label veto.
            let channel = match file.end {
                FdEnd::Pipe(PipeEnd::Write) => {
                    Some((Buf::Pipe, laminar_obs::DropChannel::Pipe))
                }
                FdEnd::Pipe(PipeEnd::Read) => return Err(OsError::BadFd),
                FdEnd::Socket(end) => {
                    Some((Buf::socket_tx(end), laminar_obs::DropChannel::Socket))
                }
                FdEnd::File => None,
            };
            if let Some((which, drop_channel)) = channel {
                let delivered = match self.kernel.module.pipe_write(sec, inode.labels()) {
                    DeliveryVerdict::Deliver => {
                        st.buffer_push_bytes(file.inode, which, data)?
                    }
                    DeliveryVerdict::SilentDrop => false,
                };
                if !delivered {
                    obs_drop(drop_channel);
                }
                return Ok(data.len());
            }
            self.kernel.module.file_permission(sec, inode.labels(), Access::Write)?;
            // Checked narrowing: on 32-bit hosts a u64 offset past
            // usize::MAX must fail closed (as the size quota), not
            // truncate into a small in-bounds write.
            let offset = usize::try_from(file.offset).map_err(|_| {
                laminar_obs::stage(laminar_obs::Event::QuotaExceeded {
                    resource: "file size",
                });
                OsError::QuotaExceeded("file size")
            })?;
            let regular = match &inode.kind {
                InodeKind::File { .. } => true,
                InodeKind::NullDevice => false,
                InodeKind::Dir { .. } => return Err(OsError::IsADirectory),
                InodeKind::Symlink { .. } => {
                    return Err(OsError::Unsupported("write on a symlink fd"))
                }
                InodeKind::Pipe { .. } | InodeKind::Socket { .. } => {
                    return Err(OsError::Internal)
                }
            };
            if regular {
                st.write_file_data(file.inode, offset, data)?;
            }
            st.fd_set_offset(pid, fd, file.offset + data.len() as u64)?;
            Ok(data.len())
        })
    }

    /// Reads a whole file by path in one syscall: resolve, check, copy
    /// from offset zero, up to `max` bytes. One transaction, one commit
    /// ticket — the unit the SMP throughput bench and the concurrent
    /// conformance regime drive, because the single commit point makes
    /// the outcome attributable to one position in the commit order.
    ///
    /// # Errors
    /// [`OsError::NotFound`]; [`OsError::IsADirectory`]; flow vetoes.
    pub fn read_file_at(&self, path: &str, max: usize) -> OsResult<Vec<u8>> {
        self.syscall("read_file_at", Intent::READ, |st| {
            let sec = st.task_sec(self.tid)?;
            self.kernel.lookup(st, &sec, self.pid, path, true, |st, found| {
                let inode = found.existing()?;
                self.kernel.check_inode(st, &sec, inode, Access::Read)?;
                match &inode.kind {
                    InodeKind::File { data } => {
                        let end = max.min(data.len());
                        Ok(data[..end].to_vec())
                    }
                    InodeKind::NullDevice => Ok(Vec::new()),
                    InodeKind::Dir { .. } => Err(OsError::IsADirectory),
                    _ => Err(OsError::Unsupported("read_file_at on a special inode")),
                }
            })
        })
    }

    /// Writes a whole file by path in one syscall: resolve, check,
    /// overwrite from offset zero. Counterpart of [`Self::read_file_at`].
    ///
    /// # Errors
    /// [`OsError::NotFound`]; [`OsError::IsADirectory`]; flow vetoes.
    pub fn write_file_at(&self, path: &str, data: &[u8]) -> OsResult<usize> {
        self.write_at("write_file_at", path, 0, data)
    }

    /// Like [`Self::write_file_at`], but writing at `offset` instead of
    /// zero — the one-shot (single-transaction, single-commit-ticket)
    /// form of `open`/`seek`/`write`/`close`, for the concurrent
    /// conformance regime where an op must be attributable to one
    /// position in the commit order. Subject to the same file-size quota
    /// and checked offset arithmetic as `write`.
    ///
    /// # Errors
    /// [`OsError::NotFound`]; [`OsError::QuotaExceeded`] past the
    /// file-size quota; hook vetoes.
    pub fn write_file_at_off(
        &self,
        path: &str,
        offset: u64,
        data: &[u8],
    ) -> OsResult<usize> {
        self.write_at("write_file_at_off", path, offset, data)
    }

    /// The body of the syscall `name`: [`Self::write_file_at_off`].
    fn write_at(
        &self,
        name: &'static str,
        path: &str,
        offset: u64,
        data: &[u8],
    ) -> OsResult<usize> {
        self.syscall(name, WRITE_TARGET, |st| {
            let sec = st.task_sec(self.tid)?;
            let file =
                self.kernel.lookup(st, &sec, self.pid, path, true, |st, found| {
                    let inode = found.existing()?;
                    self.kernel.check_inode(st, &sec, inode, Access::Write)?;
                    let offset = usize::try_from(offset).map_err(|_| {
                        laminar_obs::stage(laminar_obs::Event::QuotaExceeded {
                            resource: "file size",
                        });
                        OsError::QuotaExceeded("file size")
                    })?;
                    Ok(write_target(inode)?.map(|ino| (ino, offset)))
                })?;
            if let Some((ino, offset)) = file {
                st.write_file_data(ino, offset, data)?;
            }
            Ok(data.len())
        })
    }

    /// `stat`: metadata of the inode at `path`. Requires read permission
    /// on the inode (its size and link count are protected by its own
    /// label); the name and labels were already mediated by the
    /// traversal of the parent.
    ///
    /// # Errors
    /// [`OsError::NotFound`]; hook vetoes.
    pub fn stat(&self, path: &str) -> OsResult<Metadata> {
        self.stat_at("stat", path, true)
    }

    /// Like `stat`, but does not follow a final-component symlink (the
    /// returned metadata describes the link inode itself).
    ///
    /// # Errors
    /// [`OsError::NotFound`]; hook vetoes.
    pub fn lstat(&self, path: &str) -> OsResult<Metadata> {
        self.stat_at("lstat", path, false)
    }

    /// The body of the syscall `name`: `stat`, or `lstat` unless
    /// `follow`. A link's size is the length of its target.
    fn stat_at(
        &self,
        name: &'static str,
        path: &str,
        follow: bool,
    ) -> OsResult<Metadata> {
        self.syscall(name, Intent::READ, |st| {
            let sec = st.task_sec(self.tid)?;
            self.kernel.lookup(st, &sec, self.pid, path, follow, |st, found| {
                let inode = found.existing()?;
                self.kernel.check_inode(st, &sec, inode, Access::Read)?;
                Ok(Metadata {
                    inode: inode.id,
                    is_dir: inode.kind.is_dir(),
                    size: match &inode.kind {
                        InodeKind::File { data } => data.len() as u64,
                        InodeKind::Symlink { target } => target.len() as u64,
                        _ => 0,
                    },
                    labels: inode.labels().clone(),
                })
            })
        })
    }

    /// Returns only the labels of the inode at `path`. The labels are
    /// protected by the *parent directory's* label (§5.2), so this needs
    /// only the traversal checks — letting an unlabeled thread discover
    /// which labels it must acquire before opening a secret file.
    ///
    /// # Errors
    /// [`OsError::NotFound`]; traversal vetoes.
    pub fn get_labels(&self, path: &str) -> OsResult<SecPair> {
        self.syscall("get_labels", Intent::READ, |st| {
            let sec = st.task_sec(self.tid)?;
            self.kernel.lookup(st, &sec, self.pid, path, true, |_, found| {
                Ok(found.existing()?.labels().clone())
            })
        })
    }

    /// Removes the name at `path` (file, symlink or empty directory).
    /// The name is protected by the parent directory's label, so this is
    /// a write to the parent. A final symlink is not followed: the link
    /// goes and its target stays, as with POSIX `unlink`.
    ///
    /// # Errors
    /// [`OsError::NotFound`]; [`OsError::NotEmpty`]; hook vetoes.
    pub fn unlink(&self, path: &str) -> OsResult<()> {
        self.syscall("unlink", UNLINK, |st| {
            let sec = st.task_sec(self.tid)?;
            let (parent, ino, name) =
                self.kernel.lookup(st, &sec, self.pid, path, false, |st, found| {
                    let victim = found.existing()?;
                    let parent = found
                        .parent
                        .ok_or(OsError::InvalidArgument("cannot unlink a root"))?;
                    let parent = st.held_node(parent)?;
                    if let InodeKind::Dir { entries } = &victim.kind {
                        if !entries.is_empty() {
                            return Err(OsError::NotEmpty);
                        }
                    }
                    // The hook reads both inodes' labels in place.
                    st.count_hook();
                    self.kernel.module.inode_unlink(
                        &sec,
                        parent.labels(),
                        victim.labels(),
                    )?;
                    Ok((parent.id, victim.id, found.name.to_string()))
                })?;
            st.dir_remove(parent, &name)?;
            st.remove_inode(ino)?;
            Ok(())
        })
    }

    /// Lists the names in a directory (a read of the directory).
    ///
    /// # Errors
    /// [`OsError::NotADirectory`]; hook vetoes.
    pub fn readdir(&self, path: &str) -> OsResult<Vec<String>> {
        self.syscall("readdir", Intent::READ, |st| {
            let sec = st.task_sec(self.tid)?;
            self.kernel.lookup(st, &sec, self.pid, path, true, |st, found| {
                let inode = found.existing()?;
                self.kernel.check_inode(st, &sec, inode, Access::Read)?;
                match &inode.kind {
                    InodeKind::Dir { entries } => Ok(entries.keys().cloned().collect()),
                    _ => Err(OsError::NotADirectory),
                }
            })
        })
    }

    /// Changes the calling process's working directory.
    ///
    /// # Errors
    /// [`OsError::NotADirectory`]; traversal vetoes.
    pub fn chdir(&self, path: &str) -> OsResult<()> {
        self.syscall("chdir", OWN_PROC, |st| {
            let sec = st.task_sec(self.tid)?;
            let dir =
                self.kernel.lookup(st, &sec, self.pid, path, true, |_, found| {
                    let dir = found.existing()?;
                    if dir.kind.is_dir() {
                        Ok(dir.id)
                    } else {
                        Err(OsError::NotADirectory)
                    }
                })?;
            st.set_cwd(self.pid, dir)
        })
    }

    // ----- pipes ----------------------------------------------------------

    /// Creates a pipe labeled with the calling thread's current labels.
    /// Returns `(read_end, write_end)`.
    ///
    /// # Errors
    /// Fails if the task has exited; [`OsError::QuotaExceeded`] on
    /// inode/fd exhaustion (the whole call rolls back — no half-made
    /// pipe is left behind).
    pub fn pipe(&self) -> OsResult<(Fd, Fd)> {
        self.syscall("pipe", OWN_PROC, |st| {
            let sec = st.task_sec(self.tid)?;
            let capacity = self.kernel.quotas.pipe_capacity;
            let ino = st.alloc_inode(
                InodeKind::Pipe { buffer: PipeBuffer::new(capacity), fds: 2 },
                sec.labels.clone(),
            )?;
            let pid = self.pid;
            let end = |mode, end| OpenFile::new(ino, mode, FdEnd::Pipe(end));
            let r = st.fd_insert(pid, end(OpenMode::Read, PipeEnd::Read))?;
            let w = st.fd_insert(pid, end(OpenMode::Write, PipeEnd::Write))?;
            Ok((r, w))
        })
    }

    /// Creates a connected socket pair labeled with the calling thread's
    /// current labels. Both ends are read-write; traffic is mediated like
    /// pipe traffic (silent drops on illegal flows). Returns `(a, b)`.
    ///
    /// # Errors
    /// Fails if the task has exited; [`OsError::QuotaExceeded`] on
    /// inode/fd exhaustion (atomic, like [`Self::pipe`]).
    pub fn socketpair(&self) -> OsResult<(Fd, Fd)> {
        self.syscall("socketpair", OWN_PROC, |st| {
            let sec = st.task_sec(self.tid)?;
            let capacity = self.kernel.quotas.pipe_capacity;
            let ino = st.alloc_inode(
                InodeKind::Socket {
                    ab: PipeBuffer::new(capacity),
                    ba: PipeBuffer::new(capacity),
                    fds: 2,
                },
                sec.labels.clone(),
            )?;
            let pid = self.pid;
            let end = |end| OpenFile::new(ino, OpenMode::ReadWrite, FdEnd::Socket(end));
            let a = st.fd_insert(pid, end(SocketEnd::A))?;
            let b = st.fd_insert(pid, end(SocketEnd::B))?;
            Ok((a, b))
        })
    }

    /// Creates a symbolic link at `linkpath` pointing to `target`. The
    /// link inode carries the calling thread's labels (subject to the
    /// §5.2 creation rules), so a later traversal *reads* the link — a
    /// task that does not accept the link's integrity cannot be tricked
    /// through it (the symlink attack the paper's directory-integrity
    /// discussion targets). A symlink already at `linkpath` is not
    /// followed: it is a name that exists, even when it dangles.
    ///
    /// # Errors
    /// [`OsError::Exists`]; creation-rule vetoes.
    pub fn symlink(&self, target: &str, linkpath: &str) -> OsResult<()> {
        self.syscall("symlink", LINK, |st| {
            let sec = st.task_sec(self.tid)?;
            let kind = InodeKind::Symlink { target: target.to_string() };
            self.link_new(st, &sec, linkpath, &sec.labels, kind).map(|_| ())
        })
    }

    /// Reads the target of a symbolic link (a read of the link inode).
    ///
    /// # Errors
    /// [`OsError::InvalidArgument`] if the path is not a symlink.
    pub fn readlink(&self, path: &str) -> OsResult<String> {
        self.syscall("readlink", Intent::READ, |st| {
            let sec = st.task_sec(self.tid)?;
            self.kernel.lookup(st, &sec, self.pid, path, false, |st, found| {
                let inode = found.existing()?;
                self.kernel.check_inode(st, &sec, inode, Access::Read)?;
                match &inode.kind {
                    InodeKind::Symlink { target } => Ok(target.clone()),
                    _ => Err(OsError::InvalidArgument("not a symlink")),
                }
            })
        })
    }

    /// Repositions an open regular file's offset.
    ///
    /// # Errors
    /// [`OsError::BadFd`] for pipes/sockets/devices.
    pub fn seek(&self, fd: Fd, offset: u64) -> OsResult<()> {
        self.syscall("seek", OWN_PROC, |st| {
            let pid = st.task(self.tid)?.process;
            if st.proc(pid)?.fds.get(fd).ok_or(OsError::BadFd)?.end != FdEnd::File {
                return Err(OsError::BadFd);
            }
            st.fd_set_offset(pid, fd, offset)
        })
    }

    /// Bytes currently queued in a pipe — a *debugging/test* affordance
    /// (not part of the paper's API; exposing it to untrusted code would
    /// be a channel). Read-only: bypasses the transaction machinery. It
    /// stays on the handle only for the benchmark harness; the other pipe
    /// probes are trusted [`Kernel`](crate::Kernel) methods.
    ///
    /// # Errors
    /// [`OsError::BadFd`] if `fd` is not a pipe.
    pub fn pipe_queued_for_test(&self, fd: Fd) -> OsResult<usize> {
        self.kernel.with_pipe(self, fd, PipeBuffer::queued)
    }

    /// Sequential single-shard lookup of the inode behind one of the
    /// caller's fds (read-only paths; locks one shard at a time).
    pub(crate) fn fd_inode_readonly(&self, fd: Fd) -> OsResult<InodeId> {
        self.read_proc(|p| p.fds.get(fd).map(|f| f.inode))?.ok_or(OsError::BadFd)
    }

    // ----- processes, threads, signals -------------------------------------

    /// `fork`: creates a new single-threaded process that copies the
    /// caller's fd table, cwd, labels — and a *subset* of its
    /// capabilities (pass `None` to inherit all, §4.4: "when a kernel
    /// thread forks off a new thread, it can initialize the new thread
    /// with a subset of its capabilities").
    ///
    /// # Errors
    /// [`OsError::PermissionDenied`] if `caps` is not a subset of the
    /// caller's capabilities.
    pub fn fork(&self, caps: Option<CapSet>) -> OsResult<TaskHandle> {
        let (tid, pid) = self.syscall("fork", FORK, |st| {
            let sec = st.task_sec(self.tid)?;
            let child_caps = match &caps {
                Some(c) => {
                    if !c.is_subset_of(&sec.caps) {
                        return Err(OsError::PermissionDenied(
                            "child capabilities must be a subset of the parent's",
                        ));
                    }
                    c.clone()
                }
                None => (*sec.caps).clone(),
            };
            let me = st.task(self.tid)?;
            let (user, my_pid) = (me.user, me.process);
            let parent = st.proc(my_pid)?;
            let (cwd, fds) = (parent.cwd, parent.fds.clone_for_fork());
            for ino in fds.counted_inodes() {
                st.fd_opened(ino)?;
            }
            let child_sec = TaskSec::new(sec.labels.clone(), child_caps);
            st.spawn_process(user, child_sec, cwd, fds)
        })?;
        Ok(TaskHandle { kernel: Arc::clone(&self.kernel), tid, pid })
    }

    /// Creates a new *thread* in the caller's process with a subset of
    /// its capabilities. In an untrusted process the new thread shares
    /// the caller's labels (and must keep them); in a trusted-VM process
    /// it may later diverge (§4.1).
    ///
    /// # Errors
    /// [`OsError::PermissionDenied`] on a capability superset.
    pub fn spawn_thread(&self, caps: Option<CapSet>) -> OsResult<TaskHandle> {
        let tid = self.syscall("spawn_thread", SPAWN_THREAD, |st| {
            let sec = st.task_sec(self.tid)?;
            let thread_caps = match &caps {
                Some(c) => {
                    if !c.is_subset_of(&sec.caps) {
                        return Err(OsError::PermissionDenied(
                            "thread capabilities must be a subset of the spawner's",
                        ));
                    }
                    c.clone()
                }
                None => (*sec.caps).clone(),
            };
            let me = st.task(self.tid)?;
            let (user, pid) = (me.user, me.process);
            let tid = st.fresh_task_id();
            st.insert_task(TaskStruct::fresh(
                tid,
                pid,
                user,
                TaskSec::new(sec.labels.clone(), thread_caps),
            ))?;
            st.proc_tasks_mut(pid)?.push(tid);
            Ok(tid)
        })?;
        Ok(TaskHandle { kernel: Arc::clone(&self.kernel), tid, pid: self.pid })
    }

    /// `exec`: reads the named binary file and replaces the process image
    /// with a fresh one. Reading the binary is an information flow file →
    /// task, so a task cannot exec a binary whose integrity it does not
    /// accept — this is the plugin-vouching pattern of §3.3.
    ///
    /// # Errors
    /// [`OsError::NotFound`]; flow vetoes.
    pub fn exec(&self, path: &str) -> OsResult<()> {
        self.syscall("exec", OWN_PROC, |st| {
            let sec = st.task_sec(self.tid)?;
            self.kernel.lookup(st, &sec, self.pid, path, true, |st, found| {
                self.kernel.check_inode(st, &sec, found.existing()?, Access::Read)
            })?;
            *st.proc_image_mut(self.pid)? = ProcImage::new();
            Ok(())
        })
    }

    /// Removes the task, and its process with the fd table once its last
    /// task exits.
    ///
    /// # Errors
    /// Fails if already exited.
    pub fn exit(&self) -> OsResult<()> {
        self.syscall("exit", OWN_TASK_PROC, |st| {
            let pid = st.task(self.tid)?.process;
            // Reap: drop the task entry, and the whole process (with its fd
            // table) once its last task exits, so fork-heavy workloads do
            // not grow the kernel tables without bound.
            st.remove_task(self.tid)?;
            let tasks = st.proc_tasks_mut(pid)?;
            tasks.retain(|&x| x != self.tid);
            if tasks.is_empty() {
                let counted = st.proc(pid)?.fds.counted_inodes();
                st.remove_process(pid)?;
                for ino in counted {
                    st.fd_closed(ino)?;
                }
            }
            Ok(())
        })
    }

    /// Sends a signal. Delivery is mediated by the LSM: an illegal flow
    /// sender → target is **silently dropped** (the sender cannot tell).
    ///
    /// # Errors
    /// [`OsError::NoSuchTask`] only when the target id was never valid.
    pub fn kill(&self, target: TaskId, sig: Signal) -> OsResult<()> {
        self.syscall("kill", Intent::READ, |st| {
            let sender = st.task_sec(self.tid)?;
            st.hold(ShardKey::task(target), Exclusive)?;
            let target_sec = st.task_sec(target).map_err(|e| match e {
                e @ OsError::Retry(..) => e,
                _ => OsError::NoSuchTask,
            })?;
            st.count_hook();
            if self.kernel.module.task_kill(&sender, &target_sec)
                == DeliveryVerdict::Deliver
            {
                st.signal_push(target, sig)?;
            } else {
                obs_drop(laminar_obs::DropChannel::Signal);
            }
            Ok(())
        })
    }

    /// Dequeues the next pending signal for this task, if any.
    ///
    /// # Errors
    /// Fails if the task has exited.
    pub fn next_signal(&self) -> OsResult<Option<Signal>> {
        self.syscall("next_signal", OWN_TASK, |st| {
            st.task(self.tid)?;
            st.signal_pop(self.tid)
        })
    }

    /// The user this task runs as. (Read-only: bypasses the transaction
    /// machinery, never fires failpoints.)
    ///
    /// # Errors
    /// Fails if the task has exited.
    pub fn user(&self) -> OsResult<UserId> {
        self.read_task(|t| t.user)
    }

    /// The process this task belongs to. (Read-only: bypasses the
    /// transaction machinery, never fires failpoints.)
    ///
    /// # Errors
    /// Fails if the task has exited.
    pub fn process(&self) -> OsResult<ProcessId> {
        self.read_task(|t| t.process)
    }

    // ----- memory (for the Table 2 microbenchmarks) -------------------------

    /// `mmap`: maps `pages` pages, optionally backed by an open file
    /// (whose labels the mapping inherits via the `file_mmap` hook).
    /// Returns the start page number.
    ///
    /// # Errors
    /// [`OsError::BadFd`] for a bad backing fd; hook vetoes.
    pub fn mmap(&self, pages: u64, backing: Option<Fd>) -> OsResult<u64> {
        self.syscall("mmap", OWN_PROC, |st| {
            let sec = st.task_sec(self.tid)?;
            let pid = self.pid;
            let backing_ino = match backing {
                Some(fd) => Some(st.proc(pid)?.fds.get(fd).ok_or(OsError::BadFd)?.inode),
                None => None,
            };
            st.count_hook();
            let backing_labels = match backing_ino {
                Some(ino) => Some(st.inode_labels(ino)?),
                None => None,
            };
            self.kernel.module.file_mmap(&sec, backing_labels)?;
            let image = st.proc_image_mut(pid)?;
            let start = image.next_mmap_page;
            image.next_mmap_page += pages;
            image.vm_areas.push(VmArea { start, pages, read: true, write: true });
            Ok(start)
        })
    }

    /// Unmaps the area starting at `start`.
    ///
    /// # Errors
    /// [`OsError::Fault`] if no such mapping exists.
    pub fn munmap(&self, start: u64) -> OsResult<()> {
        self.syscall("munmap", OWN_PROC, |st| {
            let pid = st.task(self.tid)?.process;
            let areas = &mut st.proc_image_mut(pid)?.vm_areas;
            let before = areas.len();
            areas.retain(|a| a.start != start);
            if areas.len() == before {
                return Err(OsError::Fault);
            }
            Ok(())
        })
    }

    /// `mprotect`: changes the protection bits of the mapping at `start`.
    ///
    /// # Errors
    /// [`OsError::Fault`] if no such mapping exists.
    pub fn mprotect(&self, start: u64, read: bool, write: bool) -> OsResult<()> {
        self.syscall("mprotect", OWN_PROC, |st| {
            let pid = st.task(self.tid)?.process;
            let areas = &mut st.proc_image_mut(pid)?.vm_areas;
            let area =
                areas.iter_mut().find(|a| a.start == start).ok_or(OsError::Fault)?;
            area.read = read;
            area.write = write;
            Ok(())
        })
    }

    /// Simulates a memory access, running the kernel's fault path when
    /// the page is unmapped or protection-violating (the "prot fault"
    /// microbenchmark of Table 2 measures exactly this path). Read-only:
    /// bypasses the transaction machinery.
    ///
    /// # Errors
    /// [`OsError::Fault`] on an illegal access.
    pub fn page_access(&self, page: u64, is_write: bool) -> OsResult<()> {
        let allowed = self.read_proc(|p| {
            let mut areas = p.image.vm_areas.iter();
            let a = areas.find(|a| page >= a.start && page < a.start + a.pages)?;
            Some(if is_write { a.write } else { a.read })
        })?;
        if allowed == Some(true) {
            Ok(())
        } else {
            Err(OsError::Fault)
        }
    }

    /// Runs `f` on this task's entry under its shard lock, taken shared:
    /// the start of every read-only probe, which bypasses the transaction
    /// machinery and never fires failpoints. [`OsError::NoSuchTask`] once
    /// the task has exited.
    fn read_task<R>(&self, f: impl FnOnce(&TaskStruct) -> R) -> OsResult<R> {
        let shard = self.kernel.tables.lock(ShardKey::task(self.tid), Shared);
        let task = shard.guard.tasks().and_then(|m| m.get(&self.tid));
        task.map(f).ok_or(OsError::NoSuchTask)
    }

    /// Runs `f` on this task's process entry, after [`Self::read_task`]
    /// finds the task (one shard lock at a time).
    fn read_proc<R>(&self, f: impl FnOnce(&ProcessStruct) -> R) -> OsResult<R> {
        let pid = self.read_task(|t| t.process)?;
        let shard = self.kernel.tables.lock(ShardKey::proc(pid), Shared);
        shard.guard.procs().and_then(|m| m.get(&pid)).map(f).ok_or(OsError::Internal)
    }
}
