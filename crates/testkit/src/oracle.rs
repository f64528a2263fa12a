//! The pure reference oracle of the Laminar security state machine.
//!
//! This module re-derives every enforcement decision straight from the
//! paper's rules — the flow rule `S_x ⊆ S_y ∧ I_y ⊆ I_x` (§3.2), the
//! label-change rule `(L2−L1) ⊆ C_p⁺ ∧ (L1−L2) ⊆ C_p⁻` (§3.2), the
//! three labeled-create conditions (§5.2), silent-drop delivery for
//! pipes/signals/capability transfers (§5.2), and the region-entry rule
//! (§4.3.2) — over plain `BTreeSet`s of small integers. There is **no
//! caching and no sharing** with the implementation under
//! test: the only thing the oracle and the kernel have in common is the
//! paper. A divergence between the two is therefore a bug in one of
//! them, never a shared blind spot.
//!
//! The oracle also mirrors the *incidental* kernel semantics a trace
//! can observe — per-component traversal read checks with the check
//! *before* the lookup, error precedence within each syscall, pipe
//! whole-message drops on overflow, capability messages blocking byte
//! reads — because the conformance diff compares full outcomes and
//! states, not just allow/deny bits.

use crate::trace::{
    payload, Op, DIRS, FILE_SIZE_QUOTA, FILE_SLOTS, PIPES, TAG_CEILING, TASKS,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Pipe buffer capacity in bytes (mirrors `laminar_os::PIPE_CAPACITY`).
const PIPE_CAPACITY: usize = 64 * 1024;
/// Message-count ceiling per pipe, bytes and capabilities together
/// (mirrors the kernel's `PIPE_MSG_LIMIT`): the 4096th message is the
/// last admitted, the 4097th is silently dropped.
const PIPE_MSG_LIMIT: usize = 4096;
/// Fixed read size for [`Op::ReadFile`].
const READ_CHUNK: usize = 64;

/// A model label: a set of model-tag indices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MLabel(pub BTreeSet<u32>);

impl MLabel {
    /// The label holding the set bits of `mask`.
    #[must_use]
    pub fn from_mask(mask: u8) -> Self {
        MLabel((0..8).filter(|b| mask & (1 << b) != 0).collect())
    }

    /// Set-inclusion.
    #[must_use]
    pub fn is_subset_of(&self, other: &MLabel) -> bool {
        self.0.is_subset(&other.0)
    }
}

/// A model secrecy/integrity pair.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MPair {
    /// Secrecy component.
    pub secrecy: MLabel,
    /// Integrity component.
    pub integrity: MLabel,
}

impl MPair {
    /// The unlabeled pair.
    #[must_use]
    pub fn unlabeled() -> Self {
        MPair::default()
    }

    /// Pair built from two bit masks.
    #[must_use]
    pub fn from_masks(s_mask: u8, i_mask: u8) -> Self {
        MPair { secrecy: MLabel::from_mask(s_mask), integrity: MLabel::from_mask(i_mask) }
    }

    /// The §3.2 flow rule: `self → to` iff `S_self ⊆ S_to` and
    /// `I_to ⊆ I_self`.
    #[must_use]
    pub fn flows_to(&self, to: &MPair) -> bool {
        self.secrecy.is_subset_of(&to.secrecy)
            && to.integrity.is_subset_of(&self.integrity)
    }

    /// Both components empty.
    #[must_use]
    pub fn is_unlabeled(&self) -> bool {
        self.secrecy.0.is_empty() && self.integrity.0.is_empty()
    }
}

/// A model capability set: plus (add) and minus (remove) tag sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MCaps {
    /// Tags the holder may add to a label.
    pub plus: BTreeSet<u32>,
    /// Tags the holder may remove from a label.
    pub minus: BTreeSet<u32>,
}

impl MCaps {
    fn has(&self, tag: u32, plus: bool) -> bool {
        if plus {
            self.plus.contains(&tag)
        } else {
            self.minus.contains(&tag)
        }
    }
}

/// The §3.2 label-change rule: every added tag needs a plus capability,
/// every removed tag a minus capability.
#[must_use]
pub fn label_change_allowed(from: &MLabel, to: &MLabel, caps: &MCaps) -> bool {
    to.0.difference(&from.0).all(|t| caps.plus.contains(t))
        && from.0.difference(&to.0).all(|t| caps.minus.contains(t))
}

/// How an operation was denied — the coarse error class the conformance
/// diff compares (exact kernel error *strings* are implementation
/// detail; the class is semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DenyKind {
    /// `ENOENT`.
    NotFound,
    /// `EEXIST`.
    Exists,
    /// A DIFC flow rule failed with a visible error.
    Flow,
    /// The label-change rule failed.
    LabelChange,
    /// A non-flow permission failure (create conditions, capability
    /// holds, region entry).
    Permission,
    /// `ENOTEMPTY`.
    NotEmpty,
    /// An internal kernel fault rolled the syscall back fail-closed
    /// (only under injected-fault regimes).
    Internal,
    /// A resource quota (or injected allocation failure) was exceeded.
    Quota,
    /// Any other error class (never expected from in-universe traces).
    Other,
}

/// The normalized result of one operation, comparable across the oracle
/// and the kernel replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Success with no interesting payload.
    Ok,
    /// Bytes read.
    Bytes(Vec<u8>),
    /// Capability received (tag index, plus?) — or none pending.
    CapMsg(Option<(u32, bool)>),
    /// Signal dequeued — or none pending.
    Sig(Option<u8>),
    /// Labels observed.
    Labels(MPair),
    /// A file's labels and size, as `stat` reports them.
    Meta {
        /// The file's labels.
        labels: MPair,
        /// The file's length in bytes.
        size: u64,
    },
    /// Directory listing (sorted).
    Names(Vec<String>),
    /// The operation was denied.
    Denied(DenyKind),
}

/// One in-flight pipe message.
#[derive(Clone, Debug, PartialEq, Eq)]
enum MMsg {
    Bytes(Vec<u8>),
    Cap(u32, bool),
}

/// A model pipe buffer (mirrors the kernel's `PipeBuffer` observables).
#[derive(Clone, Debug, Default)]
pub struct MPipe {
    /// The pipe inode's labels (fixed at creation).
    pub labels: MPair,
    msgs: VecDeque<MMsg>,
    bytes_queued: usize,
}

impl MPipe {
    fn with_labels(labels: MPair) -> Self {
        MPipe { labels, msgs: VecDeque::new(), bytes_queued: 0 }
    }

    /// Bytes currently queued (diffed against the kernel).
    #[must_use]
    pub fn bytes_queued(&self) -> usize {
        self.bytes_queued
    }

    /// Messages currently queued (diffed against the kernel).
    #[must_use]
    pub fn msg_count(&self) -> usize {
        self.msgs.len()
    }

    /// Queues a byte message, mirroring the kernel's `push_bytes`:
    /// zero-byte writes are a no-op *success* (never an empty queued
    /// message), and a message past the byte capacity or the message
    /// ceiling is dropped whole. Returns whether the message was queued
    /// (`true` for the empty no-op — nothing was dropped).
    fn push_bytes(&mut self, data: &[u8]) -> bool {
        if data.is_empty() {
            return true;
        }
        if self.bytes_queued + data.len() > PIPE_CAPACITY
            || self.msgs.len() >= PIPE_MSG_LIMIT
        {
            return false; // whole-message silent drop
        }
        self.bytes_queued += data.len();
        self.msgs.push_back(MMsg::Bytes(data.to_vec()));
        true
    }

    /// Queues a capability message, mirroring the kernel's `push_cap`
    /// ceiling exactly: admitted strictly below [`PIPE_MSG_LIMIT`]
    /// queued messages, dropped at it.
    fn push_cap(&mut self, tag: u32, plus: bool) -> bool {
        if self.msgs.len() >= PIPE_MSG_LIMIT {
            return false;
        }
        self.msgs.push_back(MMsg::Cap(tag, plus));
        true
    }

    fn pop_bytes(&mut self, max: usize) -> Vec<u8> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.msgs.front_mut() {
                Some(MMsg::Bytes(b)) => {
                    let take = (max - out.len()).min(b.len());
                    out.extend_from_slice(&b[..take]);
                    if take == b.len() {
                        self.msgs.pop_front();
                    } else {
                        b.drain(..take);
                    }
                    self.bytes_queued -= take;
                }
                _ => break, // a capability at the head blocks byte reads
            }
        }
        out
    }

    fn pop_cap(&mut self) -> Option<(u32, bool)> {
        match self.msgs.front() {
            Some(&MMsg::Cap(t, p)) => {
                self.msgs.pop_front();
                Some((t, p))
            }
            _ => None,
        }
    }
}

/// A model task (kernel thread principal).
#[derive(Clone, Debug, Default)]
pub struct MTask {
    /// Current secrecy/integrity labels.
    pub labels: MPair,
    /// Current capabilities.
    pub caps: MCaps,
    /// Pending signals, FIFO.
    pub signals: VecDeque<u8>,
}

/// A model file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MFile {
    /// The file's labels (fixed at creation).
    pub labels: MPair,
    /// File contents.
    pub data: Vec<u8>,
}

/// A model directory slot.
#[derive(Clone, Debug, Default)]
pub struct MDir {
    /// Whether the directory currently exists.
    pub exists: bool,
    /// The directory's labels.
    pub labels: MPair,
    /// Files by slot index.
    pub files: BTreeMap<u8, MFile>,
}

/// Which kernel-mediated channel silently dropped a message (§5.2): the
/// subject sees full success, only the trusted audit log records the
/// drop. The oracle predicts these so the audit-completeness check can
/// demand exactly one kernel-side `SilentDrop` event per prediction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MDrop {
    /// A pipe (or socket) byte message was dropped.
    Pipe,
    /// A capability transfer was dropped.
    Cap,
    /// A signal was dropped.
    Signal,
}

/// The reference security state machine, mirroring the fixture the
/// replay adapter builds (see [`crate::trace`] module docs).
#[derive(Clone, Debug)]
pub struct Oracle {
    /// Tasks 0..[`TASKS`] (more under [`Oracle::with_tasks`]).
    pub tasks: Vec<MTask>,
    /// Directory slots 0..[`DIRS`].
    pub dirs: Vec<MDir>,
    /// Pipes 0..[`PIPES`].
    pub pipes: Vec<MPipe>,
    /// Number of model tags allocated so far.
    pub tags_allocated: u32,
    /// The silent drop (if any) the *last applied op* must have caused
    /// kernel-side. Cleared at the start of every [`Oracle::apply`]; at
    /// most one per op, since every op pushes at most one message.
    pub predicted_drop: Option<MDrop>,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle::new()
    }
}

impl Oracle {
    /// The fixture state: see the [`crate::trace`] module docs.
    #[must_use]
    pub fn new() -> Self {
        Self::with_tasks(TASKS)
    }

    /// The fixture state with `n >= 3` tasks: the standard three, plus
    /// `n - 3` further capability-less tasks (mirroring
    /// [`crate::KernelReplay::with_tasks`]).
    ///
    /// # Panics
    /// If `n < 3`.
    #[must_use]
    pub fn with_tasks(n: usize) -> Self {
        assert!(n >= 3, "the fixture needs at least the standard 3 tasks");
        let mut t0 = MTask::default();
        t0.caps.plus.extend([0, 1]);
        t0.caps.minus.extend([0, 1]);
        let mut t1 = MTask::default();
        t1.caps.plus.insert(0);

        let live = |labels: MPair| MDir { exists: true, labels, files: BTreeMap::new() };
        let dirs = vec![
            live(MPair::unlabeled()),      // 0: home (relative paths)
            live(MPair::unlabeled()),      // 1: /tmp
            live(MPair::from_masks(1, 0)), // 2: /tmp/s0, S{0}
            live(MPair::from_masks(0, 2)), // 3: /tmp/i0, I{1}
            MDir::default(),               // 4: /tmp/d4 (not yet created)
            MDir::default(),               // 5: /tmp/d5
        ];
        let pipes = vec![
            MPipe::with_labels(MPair::unlabeled()),
            MPipe::with_labels(MPair::from_masks(1, 0)),
            MPipe::with_labels(MPair::from_masks(0, 2)),
        ];
        let mut tasks = vec![t0, t1];
        tasks.resize_with(n, MTask::default);
        Oracle { tasks, dirs, pipes, tags_allocated: 2, predicted_drop: None }
    }

    /// Truncates a label mask to the allocated-tag universe.
    #[must_use]
    pub fn norm_mask(&self, mask: u8) -> u8 {
        mask & ((1u16 << self.tags_allocated.min(8)) - 1) as u8
    }

    fn norm_tag(&self, tag: u8) -> u32 {
        u32::from(tag) % self.tags_allocated
    }

    fn pair(&self, s_mask: u8, i_mask: u8) -> MPair {
        MPair::from_masks(self.norm_mask(s_mask), self.norm_mask(i_mask))
    }

    /// Reading the admin-labeled root (`I{admin}`) requires
    /// `I_task ⊆ {admin}`; no task can ever hold the admin tag, so the
    /// check reduces to the task's integrity label being empty — the
    /// same predicate an unlabeled directory's read check reduces to.
    fn root_read_ok(task: &MPair) -> bool {
        task.integrity.0.is_empty()
    }

    /// Traversal checks for resolving a path *into* directory `d` (to a
    /// file inside it): every component read-checked before its lookup,
    /// mid-path missing components are `NotFound`.
    fn traverse_into(&self, task: &MPair, d: usize) -> Result<(), DenyKind> {
        match d {
            0 => {
                // Relative path: starts at the (unlabeled) home cwd.
                if !self.dirs[0].labels.flows_to(task) {
                    return Err(DenyKind::Flow);
                }
            }
            1 => {
                if !Self::root_read_ok(task) {
                    return Err(DenyKind::Flow);
                }
                if !self.dirs[1].labels.flows_to(task) {
                    return Err(DenyKind::Flow);
                }
            }
            _ => {
                self.traverse_into(task, 1)?;
                if !self.dirs[d].exists {
                    return Err(DenyKind::NotFound);
                }
                if !self.dirs[d].labels.flows_to(task) {
                    return Err(DenyKind::Flow);
                }
            }
        }
        Ok(())
    }

    /// Traversal checks for resolving the path *of* directory `d`
    /// itself (existence of `d` is the caller's concern).
    fn traverse_to(&self, task: &MPair, d: usize) -> Result<(), DenyKind> {
        match d {
            0 => Ok(()), // "." resolves to the cwd with no checks
            1 => {
                if Self::root_read_ok(task) {
                    Ok(())
                } else {
                    Err(DenyKind::Flow)
                }
            }
            _ => self.traverse_into(task, 1),
        }
    }

    /// Applies one op at trace position `idx`, returning its outcome.
    ///
    /// Precedence of checks within each arm deliberately matches the
    /// kernel's syscall layer; the conformance tests depend on it.
    #[allow(clippy::too_many_lines)] // one arm per syscall, kept together
    pub fn apply(&mut self, op: &Op, idx: usize) -> Outcome {
        self.predicted_drop = None;
        let nt = self.tasks.len();
        match *op {
            Op::AllocTag { task } => {
                if self.tags_allocated >= TAG_CEILING {
                    return Outcome::Ok; // symmetric no-op guard
                }
                let t = self.tags_allocated;
                let caps = &mut self.tasks[task as usize % nt].caps;
                caps.plus.insert(t);
                caps.minus.insert(t);
                self.tags_allocated += 1;
                Outcome::Ok
            }
            Op::SetLabel { task, secrecy, mask } => {
                let new = MLabel::from_mask(self.norm_mask(mask));
                let t = &mut self.tasks[task as usize % nt];
                let cur = if secrecy { &t.labels.secrecy } else { &t.labels.integrity };
                if *cur == new {
                    return Outcome::Ok; // identity fast path
                }
                if !label_change_allowed(cur, &new, &t.caps) {
                    return Outcome::Denied(DenyKind::LabelChange);
                }
                if secrecy {
                    t.labels.secrecy = new;
                } else {
                    t.labels.integrity = new;
                }
                Outcome::Ok
            }
            Op::DropCaps { task, plus_mask, minus_mask } => {
                let (p, m) = (self.norm_mask(plus_mask), self.norm_mask(minus_mask));
                let caps = &mut self.tasks[task as usize % nt].caps;
                for b in 0..8u32 {
                    if p & (1 << b) != 0 {
                        caps.plus.remove(&b);
                    }
                    if m & (1 << b) != 0 {
                        caps.minus.remove(&b);
                    }
                }
                Outcome::Ok
            }
            Op::WriteCap { task, pipe, tag, plus } => {
                let t = self.norm_tag(tag);
                let task = &self.tasks[task as usize % nt];
                if !task.caps.has(t, plus) {
                    return Outcome::Denied(DenyKind::Permission);
                }
                let pipe = &mut self.pipes[pipe as usize % PIPES];
                if !task.labels.flows_to(&pipe.labels) || !pipe.push_cap(t, plus) {
                    // Flow veto or queue ceiling: kernel-mediated
                    // silent drop either way.
                    self.predicted_drop = Some(MDrop::Cap);
                }
                Outcome::Ok
            }
            Op::ReadCap { task, pipe } => {
                let ti = task as usize % nt;
                let pipe = &mut self.pipes[pipe as usize % PIPES];
                if !pipe.labels.flows_to(&self.tasks[ti].labels) {
                    return Outcome::Denied(DenyKind::Flow);
                }
                let cap = pipe.pop_cap();
                if let Some((t, plus)) = cap {
                    let caps = &mut self.tasks[ti].caps;
                    if plus {
                        caps.plus.insert(t);
                    } else {
                        caps.minus.insert(t);
                    }
                }
                Outcome::CapMsg(cap)
            }
            Op::PipeWrite { task, pipe, len } => {
                let data = payload(idx, len);
                let task = &self.tasks[task as usize % nt];
                let pipe = &mut self.pipes[pipe as usize % PIPES];
                // Verdict precedes the emptiness check, as in the
                // kernel: a flow-vetoed zero-byte write *is* a drop
                // (of the message, empty or not); a deliverable
                // zero-byte write is a pure no-op success.
                if !task.labels.flows_to(&pipe.labels) || !pipe.push_bytes(&data) {
                    self.predicted_drop = Some(MDrop::Pipe);
                }
                Outcome::Ok
            }
            Op::PipeRead { task, pipe, max } => {
                let task = &self.tasks[task as usize % nt];
                let pipe = &mut self.pipes[pipe as usize % PIPES];
                if !pipe.labels.flows_to(&task.labels) {
                    return Outcome::Denied(DenyKind::Flow);
                }
                Outcome::Bytes(pipe.pop_bytes(max as usize))
            }
            Op::CreateFile { task, dir, slot, s_mask, i_mask } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                let new = self.pair(s_mask, i_mask);
                let task = &self.tasks[task as usize % nt];
                if let Err(k) = self.traverse_into(&task.labels, d) {
                    return Outcome::Denied(k);
                }
                if self.dirs[d].files.contains_key(&slot) {
                    return Outcome::Denied(DenyKind::Exists);
                }
                if let Err(k) = Self::check_create(task, &self.dirs[d].labels, &new) {
                    return Outcome::Denied(k);
                }
                self.dirs[d].files.insert(slot, MFile { labels: new, data: Vec::new() });
                Outcome::Ok
            }
            Op::MkdirLabeled { task, dir, s_mask, i_mask } => {
                let d = 4 + dir as usize % 2;
                let new = self.pair(s_mask, i_mask);
                let task = &self.tasks[task as usize % nt];
                if let Err(k) = self.traverse_to(&task.labels, d) {
                    return Outcome::Denied(k);
                }
                if self.dirs[d].exists {
                    return Outcome::Denied(DenyKind::Exists);
                }
                // Parent is /tmp (dir slot 1).
                if let Err(k) = Self::check_create(task, &self.dirs[1].labels, &new) {
                    return Outcome::Denied(k);
                }
                self.dirs[d] = MDir { exists: true, labels: new, files: BTreeMap::new() };
                Outcome::Ok
            }
            Op::WriteFile { task, dir, slot, len } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                let task = &self.tasks[task as usize % nt];
                if let Err(k) = self.traverse_into(&task.labels, d) {
                    return Outcome::Denied(k);
                }
                let Some(file) = self.dirs[d].files.get_mut(&slot) else {
                    return Outcome::Denied(DenyKind::NotFound);
                };
                // open(Write) checks inode_permission; the write itself
                // re-checks file_permission — same rule, same verdict.
                if !task.labels.flows_to(&file.labels) {
                    return Outcome::Denied(DenyKind::Flow);
                }
                let data = payload(idx, len);
                // The file-size quota, checked after the flow rule as
                // in the kernel's `write_file_data` (never hit at
                // offset zero with ≤ 8-byte payloads, but modelled for
                // symmetry with WriteFileAt).
                if data.len() > FILE_SIZE_QUOTA {
                    return Outcome::Denied(DenyKind::Quota);
                }
                if file.data.len() < data.len() {
                    file.data.resize(data.len(), 0);
                }
                file.data[..data.len()].copy_from_slice(&data);
                Outcome::Ok
            }
            Op::WriteFileAt { task, dir, slot, offset, len } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                let task = &self.tasks[task as usize % nt];
                if let Err(k) = self.traverse_into(&task.labels, d) {
                    return Outcome::Denied(k);
                }
                let Some(file) = self.dirs[d].files.get_mut(&slot) else {
                    return Outcome::Denied(DenyKind::NotFound);
                };
                if !task.labels.flows_to(&file.labels) {
                    return Outcome::Denied(DenyKind::Flow);
                }
                let data = payload(idx, len);
                let offset = offset as usize;
                let end = offset + data.len();
                // Fail-closed quota check before any extension, as in
                // the kernel: a sparse write past the quota allocates
                // nothing and changes nothing.
                if end > FILE_SIZE_QUOTA {
                    return Outcome::Denied(DenyKind::Quota);
                }
                if file.data.len() < end {
                    file.data.resize(end, 0); // sparse gap zero-filled
                }
                file.data[offset..end].copy_from_slice(&data);
                Outcome::Ok
            }
            Op::ReadFile { task, dir, slot } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                let task = &self.tasks[task as usize % nt];
                if let Err(k) = self.traverse_into(&task.labels, d) {
                    return Outcome::Denied(k);
                }
                let Some(file) = self.dirs[d].files.get(&slot) else {
                    return Outcome::Denied(DenyKind::NotFound);
                };
                if !file.labels.flows_to(&task.labels) {
                    return Outcome::Denied(DenyKind::Flow);
                }
                Outcome::Bytes(file.data[..file.data.len().min(READ_CHUNK)].to_vec())
            }
            Op::GetLabels { task, dir, slot } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                let task = &self.tasks[task as usize % nt];
                if let Err(k) = self.traverse_into(&task.labels, d) {
                    return Outcome::Denied(k);
                }
                // get_labels is traversal-mediated only: no final check.
                match self.dirs[d].files.get(&slot) {
                    Some(f) => Outcome::Labels(f.labels.clone()),
                    None => Outcome::Denied(DenyKind::NotFound),
                }
            }
            Op::Stat { task, dir, slot } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                let task = &self.tasks[task as usize % nt];
                if let Err(k) = self.traverse_into(&task.labels, d) {
                    return Outcome::Denied(k);
                }
                let Some(file) = self.dirs[d].files.get(&slot) else {
                    return Outcome::Denied(DenyKind::NotFound);
                };
                // The size is protected by the file's own label.
                if !file.labels.flows_to(&task.labels) {
                    return Outcome::Denied(DenyKind::Flow);
                }
                Outcome::Meta {
                    labels: file.labels.clone(),
                    size: file.data.len() as u64,
                }
            }
            Op::Unlink { task, dir, slot } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                let task = &self.tasks[task as usize % nt];
                if let Err(k) = self.traverse_into(&task.labels, d) {
                    return Outcome::Denied(k);
                }
                if !self.dirs[d].files.contains_key(&slot) {
                    return Outcome::Denied(DenyKind::NotFound);
                }
                // The name lives in the parent: unlink writes the parent.
                if !task.labels.flows_to(&self.dirs[d].labels) {
                    return Outcome::Denied(DenyKind::Flow);
                }
                self.dirs[d].files.remove(&slot);
                Outcome::Ok
            }
            Op::Rmdir { task, dir } => {
                let d = 2 + dir as usize % 4;
                let task = &self.tasks[task as usize % nt];
                if let Err(k) = self.traverse_to(&task.labels, d) {
                    return Outcome::Denied(k);
                }
                if !self.dirs[d].exists {
                    return Outcome::Denied(DenyKind::NotFound);
                }
                if !self.dirs[d].files.is_empty() {
                    return Outcome::Denied(DenyKind::NotEmpty);
                }
                // Removing the name writes the parent, /tmp.
                if !task.labels.flows_to(&self.dirs[1].labels) {
                    return Outcome::Denied(DenyKind::Flow);
                }
                self.dirs[d] = MDir::default();
                Outcome::Ok
            }
            Op::Readdir { task, dir } => {
                let d = dir as usize % DIRS;
                let task = &self.tasks[task as usize % nt];
                if let Err(k) = self.traverse_to(&task.labels, d) {
                    return Outcome::Denied(k);
                }
                if !self.dirs[d].exists {
                    return Outcome::Denied(DenyKind::NotFound);
                }
                // Listing reads the directory itself.
                if !self.dirs[d].labels.flows_to(&task.labels) {
                    return Outcome::Denied(DenyKind::Flow);
                }
                let mut names: Vec<String> =
                    self.dirs[d].files.keys().map(|s| format!("f{s}")).collect();
                if d == 1 {
                    for (i, name) in [(2, "s0"), (3, "i0"), (4, "d4"), (5, "d5")] {
                        if self.dirs[i].exists {
                            names.push(name.to_string());
                        }
                    }
                }
                names.sort();
                Outcome::Names(names)
            }
            Op::Kill { task, target, sig } => {
                let (from, to) = (task as usize % nt, target as usize % nt);
                if self.tasks[from].labels.flows_to(&self.tasks[to].labels) {
                    self.tasks[to].signals.push_back(sig);
                } else {
                    // Silently dropped — the sender cannot tell, only
                    // the trusted audit log records it.
                    self.predicted_drop = Some(MDrop::Signal);
                }
                Outcome::Ok
            }
            Op::NextSignal { task } => {
                Outcome::Sig(self.tasks[task as usize % nt].signals.pop_front())
            }
            Op::VmBarrier { task, write, s_mask, i_mask } => {
                let obj = self.pair(s_mask, i_mask);
                let thread = &self.tasks[task as usize % nt].labels;
                let ok = if write { thread.flows_to(&obj) } else { obj.flows_to(thread) };
                if ok {
                    Outcome::Ok
                } else {
                    Outcome::Denied(DenyKind::Flow)
                }
            }
            Op::RegionEnter { task, s_mask, i_mask, plus_mask, minus_mask } => {
                let t = &self.tasks[task as usize % nt];
                let rs = MLabel::from_mask(self.norm_mask(s_mask));
                let ri = MLabel::from_mask(self.norm_mask(i_mask));
                // §4.3.2: each region tag must be acquirable (a plus
                // capability) or already carried.
                let s_ok = rs
                    .0
                    .iter()
                    .all(|g| t.caps.plus.contains(g) || t.labels.secrecy.0.contains(g));
                let i_ok = ri
                    .0
                    .iter()
                    .all(|g| t.caps.plus.contains(g) || t.labels.integrity.0.contains(g));
                // Region capabilities must not exceed the thread's.
                let rp = MLabel::from_mask(self.norm_mask(plus_mask));
                let rm = MLabel::from_mask(self.norm_mask(minus_mask));
                let c_ok = rp.0.iter().all(|g| t.caps.plus.contains(g))
                    && rm.0.iter().all(|g| t.caps.minus.contains(g));
                if s_ok && i_ok && c_ok {
                    Outcome::Ok
                } else {
                    Outcome::Denied(DenyKind::Permission)
                }
            }
        }
    }

    /// The §5.2 labeled-create conditions, in kernel check order.
    fn check_create(task: &MTask, parent: &MPair, new: &MPair) -> Result<(), DenyKind> {
        // 1a: the new name/label reveals at least the creator's taint.
        if !task.labels.secrecy.is_subset_of(&new.secrecy) {
            return Err(DenyKind::Permission);
        }
        // 1b: the file cannot claim integrity the creator lacks.
        if !new.integrity.is_subset_of(&task.labels.integrity) {
            return Err(DenyKind::Permission);
        }
        // 2: a labeled creator's taint must be voluntary.
        if !task.labels.is_unlabeled() {
            let voluntary =
                task.labels.secrecy.0.iter().all(|t| task.caps.plus.contains(t))
                    && task.labels.integrity.0.iter().all(|t| task.caps.plus.contains(t));
            if !voluntary {
                return Err(DenyKind::Permission);
            }
        }
        // 3: inserting the name writes the parent directory.
        if !task.labels.flows_to(parent) {
            return Err(DenyKind::Flow);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_difc::{check_label_change, CapSet, Capability, Label, SecPair, Tag};
    use laminar_util::SplitMix64;

    // Cross-validation: the oracle's pure set arithmetic must agree
    // with the `laminar-difc` implementation on random labels. Oracle
    // tag numbers start at 0, which `Tag` reserves, so they are offset.
    const BASE: u64 = 770_000;

    fn dif_label(l: &MLabel) -> Label {
        Label::from_tags(l.0.iter().map(|&t| Tag::from_raw(BASE + u64::from(t))))
    }

    fn dif_pair(p: &MPair) -> SecPair {
        SecPair::new(dif_label(&p.secrecy), dif_label(&p.integrity))
    }

    #[test]
    fn flow_rule_matches_difc_on_random_pairs() {
        let mut rng = SplitMix64::new(0xF10A);
        for _ in 0..2000 {
            let a = MPair::from_masks(rng.next_u32() as u8, rng.next_u32() as u8);
            let b = MPair::from_masks(rng.next_u32() as u8, rng.next_u32() as u8);
            assert_eq!(
                a.flows_to(&b),
                dif_pair(&a).flows_to(&dif_pair(&b)),
                "flow disagreement on {a:?} -> {b:?}"
            );
        }
    }

    #[test]
    fn label_change_rule_matches_difc_on_random_changes() {
        let mut rng = SplitMix64::new(0xC4A6);
        for _ in 0..2000 {
            let from = MLabel::from_mask(rng.next_u32() as u8);
            let to = MLabel::from_mask(rng.next_u32() as u8);
            let caps = MCaps {
                plus: MLabel::from_mask(rng.next_u32() as u8).0,
                minus: MLabel::from_mask(rng.next_u32() as u8).0,
            };
            let mut dif_caps = CapSet::new();
            for &t in &caps.plus {
                dif_caps.grant(Capability::plus(Tag::from_raw(BASE + u64::from(t))));
            }
            for &t in &caps.minus {
                dif_caps.grant(Capability::minus(Tag::from_raw(BASE + u64::from(t))));
            }
            assert_eq!(
                label_change_allowed(&from, &to, &caps),
                check_label_change(&dif_label(&from), &dif_label(&to), &dif_caps).is_ok(),
                "label-change disagreement on {from:?} -> {to:?} with {caps:?}"
            );
        }
    }

    #[test]
    fn pipe_mirrors_whole_message_drop_and_cap_blocking() {
        let mut p = MPipe::with_labels(MPair::unlabeled());
        assert!(p.push_bytes(&vec![0u8; PIPE_CAPACITY]));
        assert!(!p.push_bytes(b"x")); // over capacity: dropped whole
        assert_eq!(p.bytes_queued(), PIPE_CAPACITY);
        let mut q = MPipe::with_labels(MPair::unlabeled());
        assert!(q.push_cap(3, true));
        assert!(q.push_bytes(b"later"));
        assert_eq!(q.pop_bytes(8), b""); // cap at head blocks bytes
        assert_eq!(q.pop_cap(), Some((3, true)));
        assert_eq!(q.pop_bytes(8), b"later");
    }

    #[test]
    fn pipe_mirrors_zero_byte_noop_and_message_ceiling() {
        let mut p = MPipe::with_labels(MPair::unlabeled());
        assert!(p.push_bytes(b"")); // no-op success, nothing queued
        assert_eq!(p.msg_count(), 0);
        for _ in 0..PIPE_MSG_LIMIT {
            assert!(p.push_cap(1, true));
        }
        // The ceiling is exact: message 4097 is dropped, for bytes
        // and capabilities alike.
        assert!(!p.push_cap(1, true));
        assert!(!p.push_bytes(b"x"));
        assert_eq!(p.msg_count(), PIPE_MSG_LIMIT);
    }
}
