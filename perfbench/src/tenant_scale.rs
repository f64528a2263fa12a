//! `tenant_scale`: large state that other principals own.
//!
//! One kernel with the audit trace off. 64 tenants own 4,096 files in the
//! shared `/tmp`, installed at set-up. Tenant `i` carries the nested
//! compartment label `{S(c1..cw)}` with `w = 1 + i % 16`, so labels are 1
//! to 16 tags wide and a tenant may read exactly the files of tenants no
//! wider than itself. Two workers serve disjoint tenant halves; each also
//! owns an unlabeled task whose process holds a pipe with 1,000 queued
//! 64-byte messages and 1,000 extra open descriptors. Every op leaves the
//! directory size, the queue depth and the descriptor count as it found
//! them, so per-op cost does not drift with run length.

use crate::harness::{
    collect, run_workers, Check, Deck, Limit, LoopStats, Ran, Workload,
};
use crate::layers::{self, Counters};
use crate::trace::{stats_by_name, Probe};
use crate::{timed_setups, Config, Outcome};
use laminar_difc::{CapSet, Capability, Label, LabelType, SecPair, Tag};
use laminar_os::{
    Fd, Kernel, LaminarModule, OpenMode, OsError, OsResult, TaskHandle, UserId,
};
use laminar_util::SplitMix64;
use std::collections::VecDeque;
use std::sync::Arc;

/// Tenants, files per tenant, and the widest compartment label.
const TENANTS: usize = 64;
const FILES_PER_TENANT: usize = 64;
const FILES: usize = TENANTS * FILES_PER_TENANT;
const MAX_WIDTH: usize = 16;
/// Messages kept queued in each worker's pipe, and extra open fds.
const QUEUED: usize = 1000;
const EXTRA_FDS: usize = 1000;
/// Length of every file and pipe message.
const LEN: usize = 64;
/// Warm-up ops per worker, run (and checked) as part of set-up.
const WARMUP_OPS: u64 = 200;

/// Compartment width of tenant `i`.
#[must_use]
pub fn tenant_width(i: usize) -> usize {
    1 + i % MAX_WIDTH
}

/// Path of global file `f` (owned by tenant `f / FILES_PER_TENANT`).
fn file_path(f: usize) -> String {
    format!("/tmp/t{:02}f{:02}", f / FILES_PER_TENANT, f % FILES_PER_TENANT)
}

/// Installed contents of global file `f`.
#[must_use]
pub fn file_bytes(f: usize) -> [u8; LEN] {
    std::array::from_fn(|k| {
        (f as u8).wrapping_mul(31).wrapping_add(k as u8) ^ (f >> 8) as u8
    })
}

/// The 64-byte pipe message with sequence number `seq`.
#[must_use]
pub fn message(seq: u64) -> [u8; LEN] {
    let b = seq.to_le_bytes();
    std::array::from_fn(|k| b[k % 8])
}

/// One op. Kinds are dealt from a shuffled four-card deck, so each is
/// exactly a quarter of every four consecutive ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantOp {
    /// `create` + `close` + `unlink` of the worker's scratch name in `/tmp`.
    CreateUnlink,
    /// `read_file_at` of global file `file` by the worker's tenant `reader`.
    Read {
        /// Index into the worker's tenants.
        reader: usize,
        /// Global file index.
        file: usize,
    },
    /// 64-byte pipe write then read, keeping the queue depth.
    Pipe,
    /// `open` + `close` of `/dev/null` in the fd-heavy process.
    OpenClose,
}

/// What an op returned.
#[derive(Debug)]
pub enum TenantObs {
    /// A sequence of calls: the first error, or success.
    Done(OsResult<()>),
    /// A read.
    Read(OsResult<Vec<u8>>),
    /// A pipe write then read.
    Pipe(OsResult<usize>, OsResult<Vec<u8>>),
}

/// The expected-outcome model of one worker.
#[derive(Clone, Debug)]
pub struct TenantModel {
    /// Global tenant index of each of the worker's tenants.
    pub tenants: Vec<usize>,
    /// Sequence numbers of the messages queued in the worker's pipe.
    pub queue: VecDeque<u64>,
    /// Next message sequence number.
    pub next_seq: u64,
    /// Pipe bytes written and read by the loop.
    pub bytes_in: u64,
    /// See `bytes_in`.
    pub bytes_out: u64,
}

impl TenantModel {
    /// Checks one outcome and advances the model.
    pub fn check(&mut self, op: &TenantOp, obs: &TenantObs) -> Check {
        match (op, obs) {
            (TenantOp::CreateUnlink | TenantOp::OpenClose, TenantObs::Done(Ok(()))) => {
                Check::OK
            }
            (TenantOp::Read { reader, file }, TenantObs::Read(r)) => {
                let owner = file / FILES_PER_TENANT;
                let allowed = tenant_width(owner) <= tenant_width(self.tenants[*reader]);
                match r {
                    Ok(d) if allowed => Check::ok_if(d[..] == file_bytes(*file)[..]),
                    Err(OsError::FlowDenied(_)) if !allowed => Check::DENIED,
                    _ => Check::FAILED,
                }
            }
            (TenantOp::Pipe, TenantObs::Pipe(Ok(LEN), Ok(d))) => {
                // The write lands behind the queue; the read takes its head.
                self.queue.push_back(self.next_seq);
                self.next_seq += 1;
                self.bytes_in += LEN as u64;
                self.bytes_out += d.len() as u64;
                let head = self.queue.pop_front();
                Check::ok_if(head.is_some_and(|s| d[..] == message(s)[..]))
            }
            _ => Check::FAILED,
        }
    }
}

/// One worker.
#[derive(Debug)]
pub struct Tenants {
    rng: SplitMix64,
    deck: Deck,
    owner: TaskHandle,
    readers: Vec<TaskHandle>,
    pipe_r: Fd,
    pipe_w: Fd,
    scratch: String,
    paths: Arc<[String]>,
    model: TenantModel,
}

impl Workload for Tenants {
    type Op = TenantOp;
    type Obs = TenantObs;

    fn next_op(&mut self) -> TenantOp {
        match self.deck.draw() {
            0 => TenantOp::CreateUnlink,
            1 => TenantOp::Read {
                reader: self.rng.gen_range(0..self.readers.len()),
                file: self.rng.gen_range(0..FILES),
            },
            2 => TenantOp::Pipe,
            _ => TenantOp::OpenClose,
        }
    }

    fn kind(op: &TenantOp) -> &'static str {
        match op {
            TenantOp::CreateUnlink => "op.create_unlink",
            TenantOp::Read { .. } => "op.read_tenant_file",
            TenantOp::Pipe => "op.pipe",
            TenantOp::OpenClose => "op.open_close",
        }
    }

    fn exec<P: Probe>(&mut self, op: &TenantOp, p: &mut P) -> TenantObs {
        let owner = &self.owner;
        match *op {
            TenantOp::CreateUnlink => TenantObs::Done((|| {
                let fd = p.call("os.create", || owner.create(&self.scratch))?;
                p.call("os.close", || owner.close(fd))?;
                p.call("os.unlink", || owner.unlink(&self.scratch))
            })()),
            TenantOp::Read { reader, file } => {
                let t = &self.readers[reader];
                TenantObs::Read(
                    p.call("os.read_file_at", || t.read_file_at(&self.paths[file], LEN)),
                )
            }
            TenantOp::Pipe => {
                let msg = message(self.model.next_seq);
                TenantObs::Pipe(
                    p.call("os.pipe_write", || owner.write(self.pipe_w, &msg)),
                    p.call("os.pipe_read", || owner.read(self.pipe_r, LEN)),
                )
            }
            TenantOp::OpenClose => TenantObs::Done((|| {
                let fd = p.call("os.open", || owner.open("/dev/null", OpenMode::Read))?;
                p.call("os.close", || owner.close(fd))
            })()),
        }
    }

    fn check(&mut self, op: &TenantOp, obs: &TenantObs) -> Check {
        self.model.check(op, obs)
    }
}

/// A set-up kernel and its workers.
pub struct Fixture {
    kernel: Arc<Kernel>,
    workers: Vec<(Tenants, Vec<TaskHandle>)>,
    labels: Vec<SecPair>,
    flows: Vec<(SecPair, SecPair)>,
    warmup: LoopStats,
}

fn tenant_label(chain: &[Tag], i: usize) -> SecPair {
    SecPair::secrecy_only(Label::from_tags(chain[..tenant_width(i)].iter().copied()))
}

/// Boots the kernel, installs the tenants' files, builds `threads`
/// workers over disjoint tenant sets and warms them up.
///
/// # Errors
/// A failed set-up syscall, or a warm-up mismatch.
pub fn setup(seed: u64, threads: usize) -> Result<Fixture, String> {
    let e = |e: OsError| format!("tenant_scale set-up: {e}");
    let kernel = Kernel::boot(LaminarModule);
    kernel.set_audit_enabled(false);
    kernel.add_user(UserId(1), "admin");
    let admin = kernel.login(UserId(1)).map_err(e)?;
    let chain: Vec<Tag> =
        (0..MAX_WIDTH).map(|_| admin.alloc_tag()).collect::<Result<_, _>>().map_err(e)?;
    let labels: Vec<SecPair> = (0..TENANTS).map(|i| tenant_label(&chain, i)).collect();
    let paths: Arc<[String]> = (0..FILES).map(file_path).collect();
    for (f, path) in paths.iter().enumerate() {
        kernel
            .install_file(path, labels[f / FILES_PER_TENANT].clone(), &file_bytes(f))
            .map_err(e)?;
    }
    let mut readers: Vec<TaskHandle> = Vec::with_capacity(TENANTS);
    for (i, label) in labels.iter().enumerate() {
        let user = UserId(1000 + i as u32);
        kernel.add_user(user, &format!("tenant{i}"));
        let caps = CapSet::from_caps(label.secrecy().iter().map(Capability::plus));
        kernel.set_persistent_caps(user, caps);
        let t = kernel.login(user).map_err(e)?;
        t.set_task_label(LabelType::Secrecy, label.secrecy().clone()).map_err(e)?;
        readers.push(t);
    }
    let mut workers = Vec::new();
    for w in 0..threads {
        let user = UserId(200 + w as u32);
        kernel.add_user(user, &format!("owner{w}"));
        let owner = kernel.login(user).map_err(e)?;
        let (pipe_r, pipe_w) = owner.pipe().map_err(e)?;
        for seq in 0..QUEUED as u64 {
            owner.write(pipe_w, &message(seq)).map_err(e)?;
        }
        for _ in 0..EXTRA_FDS {
            owner.open("/dev/null", OpenMode::Read).map_err(e)?;
        }
        let mine: Vec<usize> = (0..TENANTS).filter(|i| i % threads == w).collect();
        let model = TenantModel {
            tenants: mine.clone(),
            queue: (0..QUEUED as u64).collect(),
            next_seq: QUEUED as u64,
            bytes_in: 0,
            bytes_out: 0,
        };
        let my_readers: Vec<TaskHandle> =
            mine.iter().map(|&i| readers[i].clone()).collect();
        let mut tasks = vec![owner.clone()];
        tasks.extend(my_readers.iter().cloned());
        let mut rng =
            SplitMix64::new(seed ^ (w as u64 + 1).wrapping_mul(0xE703_7ED1_A0B4_28DB));
        let worker = Tenants {
            deck: Deck::new(SplitMix64::new(rng.next_u64()), 4),
            rng,
            owner,
            readers: my_readers,
            pipe_r,
            pipe_w,
            scratch: format!("/tmp/owner{w}.scratch"),
            paths: Arc::clone(&paths),
            model,
        };
        workers.push((worker, tasks));
    }
    // Hooks check every reader against every file label and the path.
    let mut flows = Vec::new();
    for a in &labels {
        for b in &labels {
            flows.push((b.clone(), a.clone()));
        }
        flows.push((SecPair::unlabeled(), a.clone()));
    }
    let mut fx = Fixture { kernel, workers, labels, flows, warmup: LoopStats::default() };
    let limits = vec![Limit::ops(WARMUP_OPS); threads];
    let ran = run_workers(&fx.kernel, std::mem::take(&mut fx.workers), &limits, None);
    fx.workers = regroup(ran, &mut fx.warmup);
    if fx.warmup.failed > 0 {
        return Err(format!("tenant_scale warm-up mismatches: {:?}", fx.warmup.failures));
    }
    Ok(fx)
}

fn regroup(
    ran: Vec<Ran<Tenants>>,
    into: &mut LoopStats,
) -> Vec<(Tenants, Vec<TaskHandle>)> {
    let c = collect(ran);
    into.absorb(&c.stats);
    c.workers
        .into_iter()
        .map(|t| {
            let mut tasks = vec![t.owner.clone()];
            tasks.extend(t.readers.iter().cloned());
            (t, tasks)
        })
        .collect()
}

/// Checks that the shared state is back at its starting size: `/tmp`
/// holds exactly the tenants' files, and every pipe its 1,000 messages
/// with every byte written also read.
fn check_end_state(workers: &[Tenants], stats: &mut LoopStats) {
    let Some(first) = workers.first() else { return };
    match first.owner.readdir("/tmp") {
        Ok(names) if names.len() == FILES => {}
        other => stats.fail(format!("/tmp should hold {FILES} entries: {other:?}")),
    }
    for t in workers {
        match t.owner.pipe_queued_for_test(t.pipe_r) {
            Ok(n) if n == QUEUED * LEN && t.model.queue.len() == QUEUED => {}
            other => {
                stats.fail(format!("pipe should hold {} bytes: {other:?}", QUEUED * LEN))
            }
        }
        if t.model.bytes_in != t.model.bytes_out {
            stats.fail(format!(
                "pipe bytes not conserved: {} written, {} read",
                t.model.bytes_in, t.model.bytes_out
            ));
        }
    }
}

/// Runs the workload.
///
/// # Errors
/// Set-up failures.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (mut fx, setup_s) =
        timed_setups(cfg.setup_reps, || setup(cfg.seed, cfg.threads))?;
    let before = Counters::read();
    let hooks0 = fx.kernel.hook_calls();
    laminar_obs::reset();
    let limits = vec![Limit::secs(cfg.seconds); cfg.threads];
    let c = collect(run_workers(
        &fx.kernel,
        std::mem::take(&mut fx.workers),
        &limits,
        cfg.trace,
    ));
    let mut out = Outcome::new(setup_s, &fx.warmup, &c);
    check_end_state(&c.workers, &mut out.stats);
    if cfg.trace.is_none() {
        return Ok(out);
    }
    let ops = c.stats.attempted;
    let v = &mut out.layer;
    layers::obs_metrics(|| fx.kernel.audit_snapshot(), ops, v);
    let hooks = fx.kernel.hook_calls() - hooks0;
    before.deltas(ops, Some(hooks), Some(c.stats.denied), v);
    layers::os_span_metrics(&stats_by_name(&c.tracers.iter().collect::<Vec<_>>()), v);
    layers::difc_probe_metrics(&fx.labels, &fx.flows, v);
    out.tracers = c.tracers;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_difc::FlowError;

    fn model() -> TenantModel {
        TenantModel {
            tenants: vec![0, 15],
            queue: (0..3).collect(),
            next_seq: 3,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    #[test]
    fn the_seed_fixes_the_op_stream_and_the_deck_the_mix() {
        let ops = |seed: u64| {
            let mut d = Deck::new(SplitMix64::new(seed), 4);
            (0..400).map(|_| d.draw()).collect::<Vec<_>>()
        };
        assert_eq!(ops(3), ops(3));
        assert_ne!(ops(3), ops(4));
        for block in ops(3).chunks(4) {
            let mut b = block.to_vec();
            b.sort_unstable();
            assert_eq!(b, [0, 1, 2, 3]);
        }
    }

    #[test]
    fn the_model_flags_wrong_outcomes() {
        let mut m = model();
        let e = Label::empty;
        let denied = || {
            Err(OsError::FlowDenied(FlowError::Secrecy {
                source: e(),
                dest: e(),
                leaked: e(),
            }))
        };
        // Reader 1 (16 tags wide) reads a 1-tag file; reader 0 (1 tag)
        // may not read a 2-tag file.
        let narrow = TenantOp::Read { reader: 1, file: 5 };
        let wide = TenantOp::Read { reader: 0, file: FILES_PER_TENANT + 5 };
        assert_eq!(
            m.check(&narrow, &TenantObs::Read(Ok(file_bytes(5).to_vec()))),
            Check::OK
        );
        assert_eq!(
            m.check(&narrow, &TenantObs::Read(Ok(file_bytes(6).to_vec()))),
            Check::FAILED
        );
        assert_eq!(m.check(&narrow, &TenantObs::Read(denied())), Check::FAILED);
        assert_eq!(m.check(&wide, &TenantObs::Read(denied())), Check::DENIED);
        let leak = TenantObs::Read(Ok(file_bytes(FILES_PER_TENANT + 5).to_vec()));
        assert_eq!(m.check(&wide, &leak), Check::FAILED);
        // The pipe hands back the oldest queued message, never the newest.
        let newest = TenantObs::Pipe(Ok(LEN), Ok(message(3).to_vec()));
        assert_eq!(m.check(&TenantOp::Pipe, &newest), Check::FAILED);
        let oldest = TenantObs::Pipe(Ok(LEN), Ok(message(1).to_vec()));
        assert_eq!(m.check(&TenantOp::Pipe, &oldest), Check::OK);
        assert_eq!(
            m.check(&TenantOp::OpenClose, &TenantObs::Done(Err(OsError::BadFd))),
            Check::FAILED
        );
    }
}
