//! `syscall_mix`: small kernel state and narrow labels, so fixed
//! per-syscall costs dominate.
//!
//! One kernel with the audit trace on; two workers through
//! `Kernel::run_parallel`. Each worker has a clean task and a forked twin
//! tainted with the worker's own one-tag secrecy label, a small directory
//! `/tmp/w<i>` holding an unlabeled `pub` file and a `{S(t)}` `secret`
//! file, an open `/dev/null` and a clean pipe whose write end the tainted
//! twin inherited. An op is one entry of the mix below.

use crate::harness::{collect, run_workers, Check, Limit, LoopStats, Ran, Workload};
use crate::layers::{self, Counters};
use crate::report::LSM_GAP_KINDS;
use crate::trace::{stats_by_name, Probe};
use crate::{timed_setups, Config, Outcome};
use laminar_difc::{Capability, Label, LabelType, SecPair};
use laminar_os::{
    Fd, Kernel, LaminarModule, NullModule, OpenMode, OsError, OsResult, Quotas,
    SecurityModule, TaskHandle, UserId,
};
use laminar_util::SplitMix64;
use std::sync::Arc;

/// Length of every file and every pipe message.
const LEN: usize = 64;
/// Warm-up ops per worker, run (and checked) as part of set-up.
const WARMUP_OPS: u64 = 2000;

/// One op of the mix. Payload bytes fill a whole 64-byte write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixOp {
    /// 30 %: `/dev/null` write then read (clean task).
    NullIo,
    /// 15 %: `stat` of the unlabeled file (clean task).
    Stat,
    /// 20 %: `read_file_at` of the worker's `{S(t)}` file (tainted task).
    ReadSecret,
    /// 5 %: `write_file_at` of that file (tainted task).
    WriteSecret(u8),
    /// 10 %: `open` + `close` of the unlabeled file (clean task).
    OpenClose,
    /// 10 %: 64-byte pipe write then read (clean task).
    Pipe(u8),
    /// 5 %: `create` + `close` + `unlink` in the worker's directory.
    CreateUnlink,
    /// 1.5 %: tainted write to the unlabeled file: denied.
    DenyFileWrite(u8),
    /// 1.5 %: tainted write into the clean pipe: silently dropped; the
    /// clean task's read that follows finds nothing.
    DropPipeWrite(u8),
    /// 2 %: `alloc_tag`, raise the secrecy label to it, drop it again,
    /// drop the tag's capabilities (one fresh interned label per session).
    TagSession,
}

/// Draws the next op from the seeded stream.
#[must_use]
pub fn gen_op(rng: &mut SplitMix64) -> MixOp {
    let b = rng.next_u64() as u8;
    match rng.below(1000) {
        0..=299 => MixOp::NullIo,
        300..=449 => MixOp::Stat,
        450..=649 => MixOp::ReadSecret,
        650..=699 => MixOp::WriteSecret(b),
        700..=799 => MixOp::OpenClose,
        800..=899 => MixOp::Pipe(b),
        900..=949 => MixOp::CreateUnlink,
        950..=964 => MixOp::DenyFileWrite(b),
        965..=979 => MixOp::DropPipeWrite(b),
        _ => MixOp::TagSession,
    }
}

/// What an op returned.
#[derive(Debug)]
pub enum MixObs {
    /// A single write.
    Wrote(OsResult<usize>),
    /// A single read.
    Read(OsResult<Vec<u8>>),
    /// A write followed by a read.
    WroteRead(OsResult<usize>, OsResult<Vec<u8>>),
    /// The size `stat` reported.
    Size(OsResult<u64>),
    /// A sequence of calls: the first error, or success.
    Done(OsResult<()>),
}

/// The expected-outcome model of one worker: verdicts follow from the
/// labels set-up assigned and from whether the module enforces them.
#[derive(Clone, Debug)]
pub struct MixModel {
    /// `true` for `LaminarModule`, `false` for the `NullModule` twin.
    pub enforcing: bool,
    /// Current contents of the worker's secret file.
    pub secret: [u8; LEN],
}

impl MixModel {
    /// A model of freshly set-up worker state.
    #[must_use]
    pub fn new(enforcing: bool) -> Self {
        MixModel { enforcing, secret: [SECRET_FILL; LEN] }
    }

    /// Checks one outcome and advances the model.
    pub fn check(&mut self, op: &MixOp, obs: &MixObs) -> Check {
        use MixObs::{Done, Read, Size, Wrote, WroteRead};
        let filled = |d: &[u8], b: u8| d.len() == LEN && d.iter().all(|&x| x == b);
        match (op, obs) {
            (MixOp::NullIo, WroteRead(Ok(LEN), Ok(d))) => Check::ok_if(d.is_empty()),
            (MixOp::Stat, Size(Ok(n))) => Check::ok_if(*n == LEN as u64),
            (MixOp::ReadSecret, Read(Ok(d))) => Check::ok_if(d[..] == self.secret[..]),
            (MixOp::WriteSecret(b), Wrote(Ok(LEN))) => {
                self.secret = [*b; LEN];
                Check::OK
            }
            (MixOp::Pipe(b), WroteRead(Ok(LEN), Ok(d))) => Check::ok_if(filled(d, *b)),
            (
                MixOp::OpenClose | MixOp::CreateUnlink | MixOp::TagSession,
                Done(Ok(())),
            ) => Check::OK,
            (MixOp::DenyFileWrite(_), Wrote(r)) => match (self.enforcing, r) {
                (true, Err(OsError::FlowDenied(_))) => Check::DENIED,
                (false, Ok(LEN)) => Check::OK,
                _ => Check::FAILED,
            },
            (MixOp::DropPipeWrite(b), WroteRead(Ok(LEN), Ok(d))) => {
                if self.enforcing {
                    Check::denied_if(d.is_empty())
                } else {
                    Check::ok_if(filled(d, *b))
                }
            }
            _ => Check::FAILED,
        }
    }
}

const PUB_FILL: u8 = 0x50;
const SECRET_FILL: u8 = 0x53;

/// One worker: its tasks, descriptors, paths, op stream and model.
#[derive(Debug)]
pub struct Mix {
    rng: SplitMix64,
    clean: TaskHandle,
    tainted: TaskHandle,
    null_fd: Fd,
    pipe_r: Fd,
    pipe_w: Fd,
    pub_path: String,
    secret_path: String,
    scratch_path: String,
    buf: [u8; LEN],
    model: MixModel,
}

impl Workload for Mix {
    type Op = MixOp;
    type Obs = MixObs;

    fn next_op(&mut self) -> MixOp {
        gen_op(&mut self.rng)
    }

    fn kind(op: &MixOp) -> &'static str {
        match op {
            MixOp::NullIo => "op.null_io",
            MixOp::Stat => "op.stat",
            MixOp::ReadSecret => "op.read_secret",
            MixOp::WriteSecret(_) => "op.write_secret",
            MixOp::OpenClose => "op.open_close",
            MixOp::Pipe(_) => "op.pipe",
            MixOp::CreateUnlink => "op.create_unlink",
            MixOp::DenyFileWrite(_) => "op.deny_file_write",
            MixOp::DropPipeWrite(_) => "op.drop_pipe_write",
            MixOp::TagSession => "op.tag_session",
        }
    }

    fn exec<P: Probe>(&mut self, op: &MixOp, p: &mut P) -> MixObs {
        let (clean, tainted) = (&self.clean, &self.tainted);
        match *op {
            MixOp::NullIo => MixObs::WroteRead(
                p.call("os.null_write", || clean.write(self.null_fd, &self.buf)),
                p.call("os.null_read", || clean.read(self.null_fd, LEN)),
            ),
            MixOp::Stat => MixObs::Size(
                p.call("os.stat", || clean.stat(&self.pub_path)).map(|m| m.size),
            ),
            MixOp::ReadSecret => MixObs::Read(p.call("os.read_file_at", || {
                tainted.read_file_at(&self.secret_path, LEN)
            })),
            MixOp::WriteSecret(b) => {
                self.buf = [b; LEN];
                MixObs::Wrote(p.call("os.write_file_at", || {
                    tainted.write_file_at(&self.secret_path, &self.buf)
                }))
            }
            MixOp::OpenClose => MixObs::Done((|| {
                let fd =
                    p.call("os.open", || clean.open(&self.pub_path, OpenMode::Read))?;
                p.call("os.close", || clean.close(fd))
            })()),
            MixOp::Pipe(b) => {
                self.buf = [b; LEN];
                MixObs::WroteRead(
                    p.call("os.pipe_write", || clean.write(self.pipe_w, &self.buf)),
                    p.call("os.pipe_read", || clean.read(self.pipe_r, LEN)),
                )
            }
            MixOp::CreateUnlink => MixObs::Done((|| {
                let fd = p.call("os.create", || clean.create(&self.scratch_path))?;
                p.call("os.close", || clean.close(fd))?;
                p.call("os.unlink", || clean.unlink(&self.scratch_path))
            })()),
            MixOp::DenyFileWrite(b) => {
                self.buf = [b; LEN];
                MixObs::Wrote(p.call("os.write_file_at_denied", || {
                    tainted.write_file_at(&self.pub_path, &self.buf)
                }))
            }
            MixOp::DropPipeWrite(b) => {
                self.buf = [b; LEN];
                MixObs::WroteRead(
                    p.call("os.pipe_write_dropped", || {
                        tainted.write(self.pipe_w, &self.buf)
                    }),
                    p.call("os.pipe_read_after_drop", || clean.read(self.pipe_r, LEN)),
                )
            }
            MixOp::TagSession => MixObs::Done((|| {
                let t = p.call("os.alloc_tag", || clean.alloc_tag())?;
                let raised = Label::singleton(t);
                p.call("os.set_task_label", || {
                    clean.set_task_label(LabelType::Secrecy, raised)
                })?;
                p.call("os.set_task_label", || {
                    clean.set_task_label(LabelType::Secrecy, Label::empty())
                })?;
                p.call("os.drop_capabilities", || {
                    clean.drop_capabilities(&[Capability::plus(t), Capability::minus(t)])
                })
            })()),
        }
    }

    fn check(&mut self, op: &MixOp, obs: &MixObs) -> Check {
        self.model.check(op, obs)
    }
}

/// A set-up kernel and its workers.
pub struct Fixture {
    kernel: Arc<Kernel>,
    workers: Vec<(Mix, Vec<TaskHandle>)>,
    /// Every label pair set-up built (tasks, files, directories, pipe).
    labels: Vec<SecPair>,
    /// The (from, to) pairs the hooks check, for the difc replay probe.
    flows: Vec<(SecPair, SecPair)>,
    /// Outcome counts of the warm-up ops.
    warmup: LoopStats,
}

/// Seed of worker `w`'s op stream.
fn worker_seed(seed: u64, w: usize) -> u64 {
    seed ^ (w as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)
}

/// Boots a kernel with `module`, builds `threads` workers and warms them
/// up. The same seed gives the same op streams.
///
/// # Errors
/// A failed set-up syscall, or a warm-up op whose outcome the model did
/// not expect.
pub fn setup<M: SecurityModule + 'static>(
    module: M,
    enforcing: bool,
    seed: u64,
    threads: usize,
) -> Result<Fixture, String> {
    let quotas = Quotas { max_tags_per_user: u64::MAX, ..Quotas::default() };
    let kernel = Kernel::boot_with_quotas(module, quotas);
    kernel.set_audit_enabled(true);
    let admin = SecPair::integrity_only(Label::singleton(kernel.admin_tag()));
    let mut labels = vec![admin.clone(), SecPair::unlabeled()];
    let mut flows = Vec::new();
    let mut workers = Vec::new();
    for w in 0..threads {
        let user = UserId(100 + w as u32);
        kernel.add_user(user, &format!("w{w}"));
        let e = |e: OsError| format!("syscall_mix set-up: {e}");
        let clean = kernel.login(user).map_err(e)?;
        let tag = clean.alloc_tag().map_err(e)?;
        let secret = SecPair::secrecy_only(Label::singleton(tag));
        let dir = format!("/tmp/w{w}");
        clean.mkdir(&dir).map_err(e)?;
        let (pub_path, secret_path) = (format!("{dir}/pub"), format!("{dir}/secret"));
        for (path, labels, fill) in [
            (&pub_path, SecPair::unlabeled(), PUB_FILL),
            (&secret_path, secret.clone(), SECRET_FILL),
        ] {
            let fd = clean.create_file_labeled(path, labels).map_err(e)?;
            clean.write(fd, &[fill; LEN]).map_err(e)?;
            clean.close(fd).map_err(e)?;
        }
        let null_fd = clean.open("/dev/null", OpenMode::ReadWrite).map_err(e)?;
        let (pipe_r, pipe_w) = clean.pipe().map_err(e)?;
        let tainted = clean.fork(None).map_err(e)?;
        tainted
            .set_task_label(LabelType::Secrecy, secret.secrecy().clone())
            .map_err(e)?;
        let un = SecPair::unlabeled();
        labels.push(secret.clone());
        flows.extend([
            (admin.clone(), un.clone()),     // traversal of `/`, clean task
            (admin.clone(), secret.clone()), // traversal of `/`, tainted task
            (un.clone(), secret.clone()),    // traversal of `/tmp`, tainted task
            (un.clone(), un.clone()),        // clean task and its files, pipe, null
            (secret.clone(), secret.clone()), // tainted task and its file
            (secret.clone(), un.clone()),    // denied write, dropped pipe write
        ]);
        let mix = Mix {
            rng: SplitMix64::new(worker_seed(seed, w)),
            clean: clean.clone(),
            tainted: tainted.clone(),
            null_fd,
            pipe_r,
            pipe_w,
            pub_path,
            secret_path,
            scratch_path: format!("{dir}/scratch"),
            buf: [0; LEN],
            model: MixModel::new(enforcing),
        };
        workers.push((mix, vec![clean, tainted]));
    }
    let mut fx = Fixture { kernel, workers, labels, flows, warmup: LoopStats::default() };
    let limits = vec![Limit::ops(WARMUP_OPS); threads];
    let ran = run_workers(&fx.kernel, std::mem::take(&mut fx.workers), &limits, None);
    fx.workers = regroup(ran, &mut fx.warmup);
    if fx.warmup.failed > 0 {
        return Err(format!("syscall_mix warm-up mismatches: {:?}", fx.warmup.failures));
    }
    Ok(fx)
}

/// Takes the workers back from a loop, folding their outcome counts into
/// `into`.
fn regroup(ran: Vec<Ran<Mix>>, into: &mut LoopStats) -> Vec<(Mix, Vec<TaskHandle>)> {
    let c = collect(ran);
    into.absorb(&c.stats);
    c.workers
        .into_iter()
        .map(|m| {
            let tasks = vec![m.clean.clone(), m.tainted.clone()];
            (m, tasks)
        })
        .collect()
}

/// Runs the workload: set-up, the closed loop and, in a traced run, the
/// per-layer metrics, including the `NullModule` twin replay.
///
/// # Errors
/// Set-up failures.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (mut fx, setup_s) = timed_setups(cfg.setup_reps, || {
        setup(LaminarModule, true, cfg.seed, cfg.threads)
    })?;
    let before = Counters::read();
    let hooks0 = fx.kernel.hook_calls();
    laminar_obs::reset();
    let limits = vec![Limit::secs(cfg.seconds); cfg.threads];
    let ran =
        run_workers(&fx.kernel, std::mem::take(&mut fx.workers), &limits, cfg.trace);
    let c = collect(ran);
    let mut out = Outcome::new(setup_s, &fx.warmup, &c);
    if cfg.trace.is_none() {
        return Ok(out);
    }
    let ops = c.stats.attempted;
    let v = &mut out.layer;
    layers::obs_metrics(|| fx.kernel.audit_snapshot(), ops, v);
    let hooks = fx.kernel.hook_calls() - hooks0;
    before.deltas(ops, Some(hooks), Some(c.stats.denied), v);
    let spans = stats_by_name(&c.tracers.iter().collect::<Vec<_>>());
    layers::os_span_metrics(&spans, v);

    // The same op streams, op for op, against a twin kernel whose module
    // checks nothing: the gap is what the Laminar hooks cost.
    let mut twin = setup(NullModule, false, cfg.seed, cfg.threads)?;
    let limits: Vec<Limit> = c.ops.iter().map(|&n| Limit::ops(n)).collect();
    let ran =
        run_workers(&twin.kernel, std::mem::take(&mut twin.workers), &limits, cfg.trace);
    let null = collect(ran);
    out.stats.absorb(&twin.warmup);
    out.stats.absorb(&null.stats);
    let null_spans = stats_by_name(&null.tracers.iter().collect::<Vec<_>>());
    for k in LSM_GAP_KINDS {
        let name = format!("os.{k}");
        if let (Some(a), Some(b)) =
            (spans.get(name.as_str()), null_spans.get(name.as_str()))
        {
            v.insert(format!("os.lsm_gap.{k}_ns"), a.p50_ns - b.p50_ns);
        }
    }
    layers::difc_probe_metrics(&fx.labels, &fx.flows, v);
    out.tracers = c.tracers;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_difc::FlowError;

    fn stream(seed: u64, n: usize) -> Vec<MixOp> {
        let mut rng = SplitMix64::new(worker_seed(seed, 0));
        (0..n).map(|_| gen_op(&mut rng)).collect()
    }

    #[test]
    fn the_seed_fixes_the_op_stream() {
        assert_eq!(stream(7, 5000), stream(7, 5000));
        assert_ne!(stream(7, 5000), stream(8, 5000));
        assert_ne!(worker_seed(7, 0), worker_seed(7, 1));
        let ops = stream(7, 20_000);
        let share =
            |f: fn(&MixOp) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / 20_000.0;
        assert!((share(|o| *o == MixOp::NullIo) - 0.30).abs() < 0.02);
        assert!((share(|o| *o == MixOp::TagSession) - 0.02).abs() < 0.01);
    }

    #[test]
    fn the_model_flags_wrong_outcomes() {
        let e = Label::empty;
        let denied = || {
            Err(OsError::FlowDenied(FlowError::Secrecy {
                source: e(),
                dest: e(),
                leaked: e(),
            }))
        };
        let mut m = MixModel::new(true);
        assert_eq!(m.check(&MixOp::WriteSecret(9), &MixObs::Wrote(Ok(LEN))), Check::OK);
        assert_eq!(
            m.check(&MixOp::ReadSecret, &MixObs::Read(Ok(vec![9; LEN]))),
            Check::OK
        );
        // Stale contents, a denial that let the write through, a drop
        // that delivered, and a null read that returned data all fail.
        let stale = MixObs::Read(Ok(vec![SECRET_FILL; LEN]));
        assert_eq!(m.check(&MixOp::ReadSecret, &stale), Check::FAILED);
        assert_eq!(
            m.check(&MixOp::DenyFileWrite(1), &MixObs::Wrote(Ok(LEN))),
            Check::FAILED
        );
        assert_eq!(
            m.check(&MixOp::DenyFileWrite(1), &MixObs::Wrote(denied())),
            Check::DENIED
        );
        let delivered = MixObs::WroteRead(Ok(LEN), Ok(vec![1; LEN]));
        assert_eq!(m.check(&MixOp::DropPipeWrite(1), &delivered), Check::FAILED);
        let dropped = MixObs::WroteRead(Ok(LEN), Ok(vec![]));
        assert_eq!(m.check(&MixOp::DropPipeWrite(1), &dropped), Check::DENIED);
        let null = MixObs::WroteRead(Ok(LEN), Ok(vec![0]));
        assert_eq!(m.check(&MixOp::NullIo, &null), Check::FAILED);
        // The NullModule twin predicts the opposite verdicts.
        let mut twin = MixModel::new(false);
        assert_eq!(
            twin.check(&MixOp::DenyFileWrite(1), &MixObs::Wrote(denied())),
            Check::FAILED
        );
        assert_eq!(twin.check(&MixOp::DropPipeWrite(1), &delivered), Check::OK);
    }
}
