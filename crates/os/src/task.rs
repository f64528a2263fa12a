//! Kernel tasks — the principals of Laminar (§3: "Principals in Laminar
//! are kernel threads").
//!
//! Each task's `security` field holds its current [`SecPair`] and
//! [`CapSet`], exactly as the Laminar LSM stores labels and capabilities
//! in the opaque security field of `task_struct` (§5.2). Tasks belong to
//! processes; a process groups the address space (fd table, cwd, memory
//! maps). Threads of a process may carry *heterogeneous* labels only if
//! the process runs a trusted VM — otherwise the kernel forces all
//! threads of the process to share labels (§4.1).

use crate::vfs::file::FdTable;
use crate::vfs::inode::InodeId;
use laminar_difc::{CapSet, SecPair};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Identifier of a kernel task (thread).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tid{}", self.0)
    }
}

/// Identifier of a process (a group of tasks sharing an address space).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(pub u64);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Identifier of a user account (for the persistent capability store).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct UserId(pub u32);

/// A pending signal queued for a task.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Signal(pub i32);

/// The security context of a task: its labels plus its capability set.
///
/// This is what LSM hooks receive for the "task side" of a check. The
/// capability set sits behind an [`Arc`] with copy-on-write mutation, so
/// the per-syscall context clone a hook needs is two reference-count
/// bumps — capability checks are on every hot path (Table 2), label
/// *changes* are rare.
#[derive(Clone, Debug)]
pub struct TaskSec {
    /// Current secrecy/integrity labels of the task.
    pub labels: SecPair,
    /// Current capability set of the task (shared, copy-on-write).
    pub caps: Arc<CapSet>,
}

impl TaskSec {
    pub(crate) fn new(labels: SecPair, caps: CapSet) -> Self {
        TaskSec { labels, caps: Arc::new(caps) }
    }

    /// Mutable access to the capability set (clones on shared access).
    pub(crate) fn caps_mut(&mut self) -> &mut CapSet {
        Arc::make_mut(&mut self.caps)
    }
}

/// One memory mapping of a process (for the mmap/mprotect/fault
/// microbenchmarks of Table 2).
#[derive(Clone, Debug)]
pub struct VmArea {
    /// First page of the mapping.
    pub start: u64,
    /// Length in pages.
    pub pages: u64,
    /// Readable?
    pub read: bool,
    /// Writable?
    pub write: bool,
}

/// Kernel-side task state.
///
/// `Clone` exists so the syscall undo journal ([`crate::txn`]) can keep
/// the pre-image of a task a syscall destroys.
#[derive(Clone, Debug)]
pub(crate) struct TaskStruct {
    #[allow(dead_code)] // kept for parity with task_struct; shown in Debug dumps
    pub id: TaskId,
    pub process: ProcessId,
    pub user: UserId,
    pub security: TaskSec,
    pub pending_signals: VecDeque<Signal>,
}

impl TaskStruct {
    /// A freshly spawned task with the given security context.
    pub(crate) fn fresh(
        id: TaskId,
        process: ProcessId,
        user: UserId,
        security: TaskSec,
    ) -> Self {
        TaskStruct { id, process, user, security, pending_signals: VecDeque::new() }
    }
}

/// The part of a process that `exec` replaces: its memory maps and the
/// binary name. The undo journal saves it whole, since it belongs to
/// the calling process alone.
#[derive(Clone, Debug)]
pub(crate) struct ProcImage {
    pub vm_areas: Vec<VmArea>,
    pub next_mmap_page: u64,
    /// Name of the binary last `exec`ed; purely informational.
    pub binary: String,
}

impl ProcImage {
    /// A fresh image running `binary` with no mappings.
    pub(crate) fn new(binary: String) -> Self {
        ProcImage { vm_areas: Vec::new(), next_mmap_page: 0x1000, binary }
    }
}

/// Kernel-side process state.
///
/// `Clone` exists for the syscall undo journal (see [`TaskStruct`]).
#[derive(Clone, Debug)]
pub(crate) struct ProcessStruct {
    #[allow(dead_code)] // kept for parity with the kernel's process table
    pub id: ProcessId,
    pub tasks: Vec<TaskId>,
    pub fds: FdTable,
    pub cwd: InodeId,
    /// Set for processes running a trusted VM: allows heterogeneous
    /// per-thread labels within one address space (§4.1).
    pub trusted_vm: bool,
    pub image: ProcImage,
}

impl ProcessStruct {
    /// A fresh single-task process with an empty fd table.
    pub(crate) fn fresh(id: ProcessId, task: TaskId, cwd: InodeId) -> Self {
        ProcessStruct {
            id,
            tasks: vec![task],
            fds: FdTable::default(),
            cwd,
            trusted_vm: false,
            image: ProcImage::new(String::from("init")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(TaskId(3).to_string(), "tid3");
        assert_eq!(ProcessId(7).to_string(), "pid7");
    }

    #[test]
    fn task_sec_clones_independently() {
        let mut sec = TaskSec::new(SecPair::unlabeled(), CapSet::new());
        let c = sec.clone();
        assert!(c.labels.is_unlabeled());
        assert!(c.caps.is_empty());
        // Copy-on-write: mutating one does not affect the clone.
        sec.caps_mut().grant_both(laminar_difc::Tag::from_raw(1));
        assert!(c.caps.is_empty());
        assert!(!sec.caps.is_empty());
    }
}
