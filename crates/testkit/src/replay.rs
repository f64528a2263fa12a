//! Replays traces against the real stack: the simulated kernel with the
//! Laminar LSM, the DIFC crate's structural label checks underneath it,
//! and the VM barrier/region entry points.
//!
//! [`KernelReplay::new`] builds the same fixture the oracle models (see
//! the [`crate::trace`] module docs), [`KernelReplay::apply`] executes
//! one [`Op`] through the public syscall surface and normalizes the
//! result to an [`Outcome`], and [`KernelReplay::diff_state`] compares
//! the kernel's full observable security state — task labels and
//! capabilities, every file's labels and contents, pipe queue depths —
//! against the oracle's.

use crate::oracle::{DenyKind, MCaps, MLabel, MPair, Oracle, Outcome};
use crate::trace::{
    payload, Op, DIRS, FILE_SIZE_QUOTA, FILE_SLOTS, PIPES, TAG_CEILING, TASKS,
};
use laminar_difc::Tag;
use laminar_difc::{CapKind, CapSet, Capability, Label, LabelType, SecPair};
use laminar_os::{
    Fd, Kernel, LaminarModule, OpenMode, OsError, Quotas, ShardKey, Signal, TaskHandle,
    UserId,
};
use std::sync::Arc;

/// The kernel-side half of a conformance run.
///
/// `Clone` produces another *view* of the same kernel (handles and fds
/// are shared); the concurrent explorer hands one view to each worker
/// thread. Cloning is only sound while no [`Op::AllocTag`] can run —
/// the concurrent vocabulary excludes it, so the tag table is frozen.
#[derive(Clone, Debug)]
pub struct KernelReplay {
    kernel: Arc<Kernel>,
    tasks: Vec<TaskHandle>,
    /// `(read_end, write_end)` — identical fd numbers in every task,
    /// because the children were forked after the pipes were made.
    pipes: Vec<(Fd, Fd)>,
    /// Model tag index → kernel tag.
    tags: Vec<Tag>,
}

/// Maps a kernel error to the coarse [`DenyKind`] the oracle speaks.
fn deny(e: &OsError) -> Outcome {
    Outcome::Denied(match e {
        OsError::NotFound => DenyKind::NotFound,
        OsError::Exists => DenyKind::Exists,
        OsError::FlowDenied(_) => DenyKind::Flow,
        OsError::LabelChangeDenied(_) => DenyKind::LabelChange,
        OsError::PermissionDenied(_) => DenyKind::Permission,
        OsError::NotEmpty => DenyKind::NotEmpty,
        OsError::Internal => DenyKind::Internal,
        OsError::QuotaExceeded(_) => DenyKind::Quota,
        _ => DenyKind::Other,
    })
}

impl KernelReplay {
    /// Boots a fresh kernel and builds the fixture. Panics on setup
    /// failure — the fixture exercises only known-good paths.
    #[must_use]
    #[allow(clippy::missing_panics_doc)] // setup panics are test failures
    pub fn new() -> Self {
        Self::with_tasks(TASKS)
    }

    /// Like [`KernelReplay::new`] but with `n >= 3` tasks: the standard
    /// three, plus `n - 3` further children forked with no capabilities
    /// (mirrored by [`Oracle::with_tasks`]). The concurrent explorer
    /// uses one task per worker thread.
    #[must_use]
    #[allow(clippy::missing_panics_doc)] // setup panics are test failures
    pub fn with_tasks(n: usize) -> Self {
        assert!(n >= 3, "the fixture needs at least the standard 3 tasks");
        // The conformance kernel boots with the small testkit file-size
        // quota (mirrored by the oracle's FILE_SIZE_QUOTA) so sparse
        // WriteFileAt offsets exercise the fail-closed quota denial.
        let kernel = Kernel::boot_with_quotas(
            LaminarModule,
            Quotas { max_file_size: FILE_SIZE_QUOTA, ..Quotas::default() },
        );
        kernel.add_user(UserId(1), "alice");
        let root = kernel.login(UserId(1)).expect("login");

        let t0 = root.alloc_tag().expect("tag 0");
        let t1 = root.alloc_tag().expect("tag 1");
        let s0 = SecPair::secrecy_only(Label::singleton(t0));
        let i1 = SecPair::integrity_only(Label::singleton(t1));
        kernel.install_dir("/tmp/s0", s0.clone()).expect("install /tmp/s0");
        kernel.install_dir("/tmp/i0", i1.clone()).expect("install /tmp/i0");

        // Pipes carry the creator's labels: taint, create, untaint.
        let p0 = root.pipe().expect("pipe 0");
        root.set_task_label(LabelType::Secrecy, Label::singleton(t0)).expect("taint");
        let p1 = root.pipe().expect("pipe 1");
        root.set_task_label(LabelType::Secrecy, Label::empty()).expect("untaint");
        root.set_task_label(LabelType::Integrity, Label::singleton(t1)).expect("endorse");
        let p2 = root.pipe().expect("pipe 2");
        root.set_task_label(LabelType::Integrity, Label::empty()).expect("unendorse");

        // Children fork *after* the pipes so fd numbers are shared.
        let c1 = root
            .fork(Some(CapSet::from_caps([Capability::plus(t0)])))
            .expect("fork child 1");
        let mut tasks = vec![root, c1];
        for i in 2..n {
            tasks.push(tasks[0].fork(Some(CapSet::new())).unwrap_or_else(|e| {
                panic!("fork child {i}: {e:?}");
            }));
        }

        KernelReplay { kernel, tasks, pipes: vec![p0, p1, p2], tags: vec![t0, t1] }
    }

    /// Poisons one kernel lock shard (by ordinal, wrapping at
    /// [`laminar_os::SHARD_COUNT`]) from a crashing thread; every
    /// subsequent syscall must recover and behave identically.
    pub fn poison_shard(&self, ordinal: usize) {
        self.kernel.poison_shard_for_test(ShardKey::from_ordinal(ordinal));
    }

    /// The kernel under test (shared with every cloned view).
    #[must_use]
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The task handles of the fixture, index-aligned with the oracle's
    /// tasks.
    #[must_use]
    pub fn handles(&self) -> &[TaskHandle] {
        &self.tasks
    }

    /// Arms a one-shot syscall failpoint on the kernel under test; the
    /// next mutating syscall that reaches the trigger point faults.
    pub fn arm_failpoint(&self, fp: laminar_os::SyscallFailpoint) {
        self.kernel.arm_failpoint_for_test(fp);
    }

    /// Whether the armed failpoint fired since the last call (the fired
    /// flag is cleared by reading it).
    #[must_use]
    pub fn take_failpoint_fired(&self) -> bool {
        self.kernel.take_failpoint_fired()
    }

    // ----- operand normalization (identical to the oracle's) ------------

    fn norm_mask(&self, mask: u8) -> u8 {
        mask & ((1u16 << self.tags.len().min(8)) - 1) as u8
    }

    fn mask_label(&self, mask: u8) -> Label {
        let m = self.norm_mask(mask);
        Label::from_tags(
            (0..self.tags.len()).filter(|b| m & (1 << b) != 0).map(|b| self.tags[b]),
        )
    }

    fn mask_pair(&self, s_mask: u8, i_mask: u8) -> SecPair {
        SecPair::new(self.mask_label(s_mask), self.mask_label(i_mask))
    }

    fn norm_tag(&self, tag: u8) -> Tag {
        self.tags[tag as usize % self.tags.len()]
    }

    fn tag_model(&self, tag: Tag) -> u32 {
        self.tags.iter().position(|&t| t == tag).map_or(u32::MAX, |i| i as u32)
    }

    fn pair_model(&self, pair: &SecPair) -> MPair {
        MPair {
            secrecy: MLabel(pair.secrecy().iter().map(|t| self.tag_model(t)).collect()),
            integrity: MLabel(
                pair.integrity().iter().map(|t| self.tag_model(t)).collect(),
            ),
        }
    }

    fn caps_model(&self, caps: &CapSet) -> MCaps {
        let mut m = MCaps::default();
        for c in caps.iter() {
            let t = self.tag_model(c.tag());
            match c.kind() {
                CapKind::Plus => m.plus.insert(t),
                CapKind::Minus => m.minus.insert(t),
            };
        }
        m
    }

    // ----- the path scheme ------------------------------------------------

    fn file_path(d: usize, slot: u8) -> String {
        match d {
            0 => format!("f{slot}"), // relative: resolved from the home cwd
            _ => format!("{}/f{slot}", Self::dir_path(d)),
        }
    }

    fn dir_path(d: usize) -> &'static str {
        [".", "/tmp", "/tmp/s0", "/tmp/i0", "/tmp/d4", "/tmp/d5"][d]
    }

    fn inspect_dir_path(d: usize) -> &'static str {
        // Absolute, for the checkless admin inspection used by the diff.
        ["/home/alice", "/tmp", "/tmp/s0", "/tmp/i0", "/tmp/d4", "/tmp/d5"][d]
    }

    // ----- op execution ---------------------------------------------------

    /// Executes one op at trace position `idx` through the syscall layer.
    #[allow(clippy::missing_panics_doc)] // fixture invariants
    pub fn apply(&mut self, op: &Op, idx: usize) -> Outcome {
        let nt = self.tasks.len();
        match *op {
            Op::AllocTag { task } => {
                if self.tags.len() >= TAG_CEILING as usize {
                    return Outcome::Ok; // symmetric no-op guard
                }
                match self.tasks[task as usize % nt].alloc_tag() {
                    Ok(tag) => {
                        self.tags.push(tag);
                        Outcome::Ok
                    }
                    Err(e) => deny(&e),
                }
            }
            // The single-threaded explorer exercises the fd machinery:
            // file I/O goes open → read/write → close.
            Op::WriteFile { task, dir, slot, len } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                let t = &self.tasks[task as usize % nt];
                let fd = match t.open(&Self::file_path(d, slot), OpenMode::Write) {
                    Ok(fd) => fd,
                    Err(e) => return deny(&e),
                };
                let r = t.write(fd, &payload(idx, len));
                t.close(fd).ok();
                match r {
                    Ok(_) => Outcome::Ok,
                    Err(e) => deny(&e),
                }
            }
            // The sparse-write op goes through the fd machinery in the
            // single-threaded regime — open, seek past EOF, write —
            // which is exactly the `seek(huge)` + `write` vector the
            // file-size quota bounds.
            Op::WriteFileAt { task, dir, slot, offset, len } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                let t = &self.tasks[task as usize % nt];
                let fd = match t.open(&Self::file_path(d, slot), OpenMode::Write) {
                    Ok(fd) => fd,
                    Err(e) => return deny(&e),
                };
                let r = t
                    .seek(fd, u64::from(offset))
                    .and_then(|()| t.write(fd, &payload(idx, len)));
                t.close(fd).ok();
                match r {
                    Ok(_) => Outcome::Ok,
                    Err(e) => deny(&e),
                }
            }
            Op::ReadFile { task, dir, slot } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                let t = &self.tasks[task as usize % nt];
                let fd = match t.open(&Self::file_path(d, slot), OpenMode::Read) {
                    Ok(fd) => fd,
                    Err(e) => return deny(&e),
                };
                let r = t.read(fd, 64);
                t.close(fd).ok();
                match r {
                    Ok(data) => Outcome::Bytes(data),
                    Err(e) => deny(&e),
                }
            }
            Op::VmBarrier { task, write, s_mask, i_mask } => {
                let obj = self.mask_pair(s_mask, i_mask);
                let thread =
                    self.tasks[task as usize % nt].current_labels().expect("task labels");
                // The verdict goes to this kernel's log, as a VM bridged
                // to one of its tasks would report it.
                let audit = Some(self.kernel.audit());
                let r = if write {
                    laminar_vm::conformance::barrier_write_check(&thread, &obj, audit)
                } else {
                    laminar_vm::conformance::barrier_read_check(&obj, &thread, audit)
                };
                match r {
                    Ok(()) => Outcome::Ok,
                    Err(_) => Outcome::Denied(DenyKind::Flow),
                }
            }
            Op::RegionEnter { task, s_mask, i_mask, plus_mask, minus_mask } => {
                let t = &self.tasks[task as usize % nt];
                let labels = t.current_labels().expect("task labels");
                let caps = t.current_caps().expect("task caps");
                let mut params = laminar::RegionParams::new()
                    .secrecy(self.mask_label(s_mask))
                    .integrity(self.mask_label(i_mask));
                let (p, m) = (self.norm_mask(plus_mask), self.norm_mask(minus_mask));
                for (b, &tag) in self.tags.iter().enumerate() {
                    if p & (1 << b) != 0 {
                        params = params.grant(Capability::plus(tag));
                    }
                    if m & (1 << b) != 0 {
                        params = params.grant(Capability::minus(tag));
                    }
                }
                match laminar::check_region_entry(&labels, &caps, &params) {
                    Ok(()) => Outcome::Ok,
                    Err(_) => Outcome::Denied(DenyKind::Permission),
                }
            }
            _ => self.apply_concurrent(op, idx).0,
        }
    }

    /// Executes one op of the *concurrent* vocabulary — every op is
    /// exactly one transactional syscall, so the kernel's commit ticket
    /// for that syscall is the op's position in the witnessed
    /// linearization. Returns the outcome and that commit sequence
    /// number (from [`laminar_os::last_syscall_seq`] on this thread).
    ///
    /// Multi-syscall ops ([`Op::AllocTag`], fd-based file I/O) and pure
    /// in-process checks ([`Op::VmBarrier`], [`Op::RegionEnter`]) have
    /// no single commit point and are not in the vocabulary.
    ///
    /// # Panics
    /// On an op outside the concurrent vocabulary.
    #[allow(clippy::too_many_lines)] // one arm per syscall, kept together
    pub fn apply_concurrent(&self, op: &Op, idx: usize) -> (Outcome, u64) {
        let nt = self.tasks.len();
        let out = match *op {
            Op::SetLabel { task, secrecy, mask } => {
                let ty = if secrecy { LabelType::Secrecy } else { LabelType::Integrity };
                let label = self.mask_label(mask);
                match self.tasks[task as usize % nt].set_task_label(ty, label) {
                    Ok(()) => Outcome::Ok,
                    Err(e) => deny(&e),
                }
            }
            Op::DropCaps { task, plus_mask, minus_mask } => {
                let (p, m) = (self.norm_mask(plus_mask), self.norm_mask(minus_mask));
                let mut caps = Vec::new();
                for (b, &tag) in self.tags.iter().enumerate() {
                    if p & (1 << b) != 0 {
                        caps.push(Capability::plus(tag));
                    }
                    if m & (1 << b) != 0 {
                        caps.push(Capability::minus(tag));
                    }
                }
                match self.tasks[task as usize % nt].drop_capabilities(&caps) {
                    Ok(()) => Outcome::Ok,
                    Err(e) => deny(&e),
                }
            }
            Op::WriteCap { task, pipe, tag, plus } => {
                let t = self.norm_tag(tag);
                let cap = if plus { Capability::plus(t) } else { Capability::minus(t) };
                let wfd = self.pipes[pipe as usize % PIPES].1;
                match self.tasks[task as usize % nt].write_capability(cap, wfd) {
                    Ok(()) => Outcome::Ok,
                    Err(e) => deny(&e),
                }
            }
            Op::ReadCap { task, pipe } => {
                let rfd = self.pipes[pipe as usize % PIPES].0;
                match self.tasks[task as usize % nt].read_capability(rfd) {
                    Ok(cap) => {
                        Outcome::CapMsg(cap.map(|c| {
                            (self.tag_model(c.tag()), c.kind() == CapKind::Plus)
                        }))
                    }
                    Err(e) => deny(&e),
                }
            }
            Op::PipeWrite { task, pipe, len } => {
                let wfd = self.pipes[pipe as usize % PIPES].1;
                let data = payload(idx, len);
                match self.tasks[task as usize % nt].write(wfd, &data) {
                    Ok(_) => Outcome::Ok,
                    Err(e) => deny(&e),
                }
            }
            Op::PipeRead { task, pipe, max } => {
                let rfd = self.pipes[pipe as usize % PIPES].0;
                match self.tasks[task as usize % nt].read(rfd, max as usize) {
                    Ok(data) => Outcome::Bytes(data),
                    Err(e) => deny(&e),
                }
            }
            Op::CreateFile { task, dir, slot, s_mask, i_mask } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                let path = Self::file_path(d, slot);
                let pair = self.mask_pair(s_mask, i_mask);
                let t = &self.tasks[task as usize % nt];
                match t.create_file_labeled(&path, pair) {
                    Ok(fd) => {
                        // The create is the decisive commit; take its
                        // ticket before the trailing close bumps it.
                        let seq = laminar_os::last_syscall_seq();
                        t.close(fd).ok();
                        return (Outcome::Ok, seq);
                    }
                    Err(e) => deny(&e),
                }
            }
            Op::MkdirLabeled { task, dir, s_mask, i_mask } => {
                let d = 4 + dir as usize % 2;
                let pair = self.mask_pair(s_mask, i_mask);
                let t = &self.tasks[task as usize % nt];
                match t.mkdir_labeled(Self::dir_path(d), pair) {
                    Ok(()) => Outcome::Ok,
                    Err(e) => deny(&e),
                }
            }
            // Concurrent file I/O uses the one-shot path syscalls: the
            // whole check-and-copy is one transaction, one commit point.
            Op::WriteFileAt { task, dir, slot, offset, len } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                let path = Self::file_path(d, slot);
                match self.tasks[task as usize % nt].write_file_at_off(
                    &path,
                    u64::from(offset),
                    &payload(idx, len),
                ) {
                    Ok(_) => Outcome::Ok,
                    Err(e) => deny(&e),
                }
            }
            Op::WriteFile { task, dir, slot, len } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                let path = Self::file_path(d, slot);
                match self.tasks[task as usize % nt]
                    .write_file_at(&path, &payload(idx, len))
                {
                    Ok(_) => Outcome::Ok,
                    Err(e) => deny(&e),
                }
            }
            Op::ReadFile { task, dir, slot } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                let path = Self::file_path(d, slot);
                match self.tasks[task as usize % nt].read_file_at(&path, 64) {
                    Ok(data) => Outcome::Bytes(data),
                    Err(e) => deny(&e),
                }
            }
            Op::GetLabels { task, dir, slot } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                let t = &self.tasks[task as usize % nt];
                match t.get_labels(&Self::file_path(d, slot)) {
                    Ok(pair) => Outcome::Labels(self.pair_model(&pair)),
                    Err(e) => deny(&e),
                }
            }
            Op::Stat { task, dir, slot } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                match self.tasks[task as usize % nt].stat(&Self::file_path(d, slot)) {
                    Ok(md) => Outcome::Meta {
                        labels: self.pair_model(&md.labels),
                        size: md.size,
                    },
                    Err(e) => deny(&e),
                }
            }
            Op::Unlink { task, dir, slot } => {
                let (d, slot) = (dir as usize % DIRS, slot % FILE_SLOTS);
                match self.tasks[task as usize % nt].unlink(&Self::file_path(d, slot)) {
                    Ok(()) => Outcome::Ok,
                    Err(e) => deny(&e),
                }
            }
            Op::Rmdir { task, dir } => {
                let d = 2 + dir as usize % 4;
                match self.tasks[task as usize % nt].unlink(Self::dir_path(d)) {
                    Ok(()) => Outcome::Ok,
                    Err(e) => deny(&e),
                }
            }
            Op::Readdir { task, dir } => {
                let d = dir as usize % DIRS;
                match self.tasks[task as usize % nt].readdir(Self::dir_path(d)) {
                    Ok(mut names) => {
                        names.sort();
                        Outcome::Names(names)
                    }
                    Err(e) => deny(&e),
                }
            }
            Op::Kill { task, target, sig } => {
                let to = self.tasks[target as usize % nt].id();
                match self.tasks[task as usize % nt].kill(to, Signal(i32::from(sig))) {
                    Ok(()) => Outcome::Ok,
                    Err(e) => deny(&e),
                }
            }
            Op::NextSignal { task } => {
                match self.tasks[task as usize % nt].next_signal() {
                    Ok(sig) => Outcome::Sig(sig.map(|s| s.0 as u8)),
                    Err(e) => deny(&e),
                }
            }
            Op::AllocTag { .. } | Op::VmBarrier { .. } | Op::RegionEnter { .. } => {
                panic!("op outside the concurrent vocabulary: {op:?}")
            }
        };
        (out, laminar_os::last_syscall_seq())
    }

    // ----- state diff -----------------------------------------------------

    /// Compares the kernel's observable security state with the
    /// oracle's. Returns a description of the first difference found.
    #[must_use]
    #[allow(clippy::missing_panics_doc)] // fixture invariants
    pub fn diff_state(&self, oracle: &Oracle) -> Option<String> {
        for (i, task) in self.tasks.iter().enumerate() {
            let labels = self.pair_model(&task.current_labels().expect("labels"));
            if labels != oracle.tasks[i].labels {
                return Some(format!(
                    "task {i} labels: kernel {labels:?} vs oracle {:?}",
                    oracle.tasks[i].labels
                ));
            }
            let caps = self.caps_model(&task.current_caps().expect("caps"));
            if caps != oracle.tasks[i].caps {
                return Some(format!(
                    "task {i} caps: kernel {caps:?} vs oracle {:?}",
                    oracle.tasks[i].caps
                ));
            }
        }
        for d in 0..DIRS {
            let od = &oracle.dirs[d];
            match self.kernel.inspect_node_for_test(Self::inspect_dir_path(d)) {
                Ok((pair, _)) => {
                    if !od.exists {
                        return Some(format!("dir {d} exists in kernel only"));
                    }
                    let labels = self.pair_model(&pair);
                    if labels != od.labels {
                        return Some(format!(
                            "dir {d} labels: kernel {labels:?} vs oracle {:?}",
                            od.labels
                        ));
                    }
                }
                Err(OsError::NotFound) => {
                    if od.exists {
                        return Some(format!("dir {d} exists in oracle only"));
                    }
                }
                Err(e) => return Some(format!("dir {d} inspect failed: {e:?}")),
            }
            for slot in 0..FILE_SLOTS {
                let of = od.files.get(&slot);
                let path = format!("{}/f{slot}", Self::inspect_dir_path(d));
                match (self.kernel.inspect_node_for_test(&path), of) {
                    (Ok((pair, Some(data))), Some(f)) => {
                        let labels = self.pair_model(&pair);
                        if labels != f.labels || data != f.data {
                            return Some(format!(
                                "file {path}: kernel ({labels:?}, {data:?}) vs \
                                 oracle ({:?}, {:?})",
                                f.labels, f.data
                            ));
                        }
                    }
                    (Ok(_), None) => {
                        return Some(format!("file {path} exists in kernel only"))
                    }
                    (Ok((_, None)), Some(_)) => {
                        return Some(format!("file {path} is not a file in the kernel"))
                    }
                    (Err(OsError::NotFound), None) => {}
                    (Err(OsError::NotFound), Some(_)) => {
                        return Some(format!("file {path} exists in oracle only"))
                    }
                    (Err(e), _) => {
                        return Some(format!("file {path} inspect failed: {e:?}"))
                    }
                }
            }
        }
        for (p, fds) in self.pipes.iter().enumerate() {
            let queued = self.tasks[0].pipe_queued_for_test(fds.0).expect("pipe bytes");
            let msgs =
                self.kernel.pipe_msgs_for_test(&self.tasks[0], fds.0).expect("pipe msgs");
            if queued != oracle.pipes[p].bytes_queued()
                || msgs != oracle.pipes[p].msg_count()
            {
                return Some(format!(
                    "pipe {p}: kernel ({queued} B, {msgs} msgs) vs oracle ({} B, {} msgs)",
                    oracle.pipes[p].bytes_queued(),
                    oracle.pipes[p].msg_count()
                ));
            }
        }
        None
    }
}

impl Default for KernelReplay {
    fn default() -> Self {
        KernelReplay::new()
    }
}
