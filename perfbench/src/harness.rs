//! The closed loop every workload runs, and the outcome bookkeeping.

use crate::measure::{peak_rss_kib, Recorder, Window};
use crate::trace::{Probe, Tracer, Untraced};
use laminar_os::{Kernel, TaskHandle};
use laminar_util::SplitMix64;
use std::fmt::Debug;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Ops per worker after which peak RSS is read. Reading it at a fixed
/// amount of loop work keeps the figure independent of throughput (state
/// such as the interner or a chat log grows with every op).
pub const RSS_MARK_OPS: u64 = 1 << 16;

/// What the expected-outcome model says about one observed outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Check {
    /// The outcome matched the model.
    pub ok: bool,
    /// The model expected a denial or a silent drop (and got it).
    pub denied: bool,
}

impl Check {
    /// A matching, permitted outcome.
    pub const OK: Check = Check { ok: true, denied: false };
    /// A matching expected denial or silent drop.
    pub const DENIED: Check = Check { ok: true, denied: true };
    /// An outcome the model did not expect.
    pub const FAILED: Check = Check { ok: false, denied: false };

    /// [`Check::OK`] if `cond` holds, else [`Check::FAILED`].
    #[must_use]
    pub fn ok_if(cond: bool) -> Check {
        if cond {
            Check::OK
        } else {
            Check::FAILED
        }
    }

    /// [`Check::DENIED`] if `cond` holds, else [`Check::FAILED`].
    #[must_use]
    pub fn denied_if(cond: bool) -> Check {
        if cond {
            Check::DENIED
        } else {
            Check::FAILED
        }
    }
}

/// One closed-loop client: a seeded op stream, the calls that execute an
/// op, and the model that predicts each outcome.
pub trait Workload {
    /// One generated op.
    type Op: Debug;
    /// What executing an op returned.
    type Obs: Debug;

    /// The next op of the seeded stream.
    fn next_op(&mut self) -> Self::Op;
    /// The name of the op's span (`op.<kind>`).
    fn kind(op: &Self::Op) -> &'static str;
    /// Executes `op`, wrapping each layer call in `probe`.
    fn exec<P: Probe>(&mut self, op: &Self::Op, probe: &mut P) -> Self::Obs;
    /// Checks `obs` against the model and advances the model.
    fn check(&mut self, op: &Self::Op, obs: &Self::Obs) -> Check;
    /// Harness upkeep between ops that is not part of any op (for
    /// example replacing a VM whose bump heap has grown). Returns the time
    /// it took, which is excluded from throughput.
    ///
    /// # Errors
    /// A description of upkeep that went wrong; it counts as a mismatch.
    fn maintain(&mut self) -> Result<Duration, String> {
        Ok(Duration::ZERO)
    }
}

/// A seeded shuffled deck over `0..n`: every `n` draws deal each card
/// once, so every stretch of a run holds the same mix of op kinds.
#[derive(Clone, Debug)]
pub struct Deck {
    rng: SplitMix64,
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    /// A deck of `n` cards shuffled by `rng`.
    #[must_use]
    pub fn new(rng: SplitMix64, n: usize) -> Deck {
        Deck { rng, cards: (0..n).collect(), next: n }
    }

    /// The next card, reshuffling after each full pass.
    pub fn draw(&mut self) -> usize {
        if self.next == self.cards.len() {
            self.rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// When a loop stops.
#[derive(Clone, Copy, Debug)]
pub struct Limit {
    /// Stop after the op that ends past this instant.
    pub deadline: Instant,
    /// Stop after this many ops.
    pub max_ops: u64,
}

impl Limit {
    /// A loop of at most `secs` seconds.
    #[must_use]
    pub fn secs(secs: f64) -> Limit {
        Limit {
            deadline: Instant::now() + Duration::from_secs_f64(secs),
            max_ops: u64::MAX,
        }
    }

    /// A loop of exactly `n` ops.
    #[must_use]
    pub fn ops(n: u64) -> Limit {
        Limit { deadline: Instant::now() + Duration::from_secs(3600), max_ops: n }
    }
}

/// Outcome counts and timing of one worker's loop.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Ops run and checked.
    pub attempted: u64,
    /// Ops whose outcome differed from the model's.
    pub failed: u64,
    /// Ops whose expected outcome was a denial or silent drop.
    pub denied: u64,
    /// Closed measurement windows.
    pub windows: Vec<Window>,
    /// `VmHWM` at [`RSS_MARK_OPS`] ops (or at the end of a shorter loop).
    pub rss_kib: u64,
    /// The first few mismatches, for the diagnostic output.
    pub failures: Vec<String>,
}

impl LoopStats {
    /// Folds another loop's outcome counts into these.
    pub fn absorb(&mut self, other: &LoopStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.denied += other.denied;
        self.failures.extend(other.failures.iter().cloned());
        self.failures.truncate(MAX_FAILURES_KEPT);
    }

    /// Notes one mismatch that is not tied to an op (an end-state check).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURES_KEPT {
            self.failures.push(what);
        }
    }
}

const MAX_FAILURES_KEPT: usize = 8;

/// A worker handed back after its loop, with what the loop recorded.
#[derive(Debug)]
pub struct Ran<W> {
    /// The worker, with its model advanced past every op it ran.
    pub worker: W,
    /// Outcome counts and windows.
    pub stats: LoopStats,
    /// The worker's spans, in a traced run.
    pub tracer: Option<Tracer>,
}

/// Runs one closed loop per worker through [`Kernel::run_parallel`], one
/// OS thread each; worker `i` issues its syscalls through `tasks[i]` and
/// stops at `limits[i]`. With `trace = Some((epoch, cap))` every worker
/// records up to `cap` spans.
///
/// # Panics
/// Propagates a worker's panic.
pub fn run_workers<W: Workload + Send>(
    kernel: &Arc<Kernel>,
    workers: Vec<(W, Vec<TaskHandle>)>,
    limits: &[Limit],
    trace: Option<(Instant, usize)>,
) -> Vec<Ran<W>> {
    let (workers, tasks): (Vec<W>, Vec<Vec<TaskHandle>>) = workers.into_iter().unzip();
    let slots: Vec<Mutex<Option<W>>> =
        workers.into_iter().map(|w| Mutex::new(Some(w))).collect();
    kernel.run_parallel(tasks, |i, _| {
        let worker = slots[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("each worker runs once");
        run_one(worker, limits[i], trace)
    })
}

/// Runs one closed loop per worker, one scoped OS thread each, for
/// workers that issue no syscalls; see [`run_workers`] for `trace`.
///
/// # Panics
/// Propagates a worker's panic.
pub fn run_threads<W: Workload + Send>(
    workers: Vec<W>,
    limits: &[Limit],
    trace: Option<(Instant, usize)>,
) -> Vec<Ran<W>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .zip(limits)
            .map(|(w, &limit)| s.spawn(move || run_one(w, limit, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Runs one worker's closed loop on the calling thread; see
/// [`run_workers`] for `trace`.
pub fn run_one<W: Workload>(
    mut worker: W,
    limit: Limit,
    trace: Option<(Instant, usize)>,
) -> Ran<W> {
    match trace {
        Some((epoch, cap)) => {
            let mut t = Tracer::new(epoch, cap);
            let stats = closed_loop(&mut worker, &mut t, limit);
            Ran { worker, stats, tracer: Some(t) }
        }
        None => {
            let stats = closed_loop(&mut worker, &mut Untraced, limit);
            Ran { worker, stats, tracer: None }
        }
    }
}

/// The workers and records of one parallel loop, regrouped.
#[derive(Debug)]
pub struct Collected<W> {
    /// The workers, in order.
    pub workers: Vec<W>,
    /// Outcome counts summed over workers.
    pub stats: LoopStats,
    /// Ops each worker ran.
    pub ops: Vec<u64>,
    /// Each worker's closed windows.
    pub windows: Vec<Vec<Window>>,
    /// Largest peak RSS any worker read.
    pub rss_kib: u64,
    /// Each worker's spans, in a traced run.
    pub tracers: Vec<Tracer>,
}

/// Regroups what [`run_workers`] (or single loops) handed back.
#[must_use]
pub fn collect<W>(ran: Vec<Ran<W>>) -> Collected<W> {
    let mut c = Collected {
        workers: Vec::new(),
        stats: LoopStats::default(),
        ops: Vec::new(),
        windows: Vec::new(),
        rss_kib: 0,
        tracers: Vec::new(),
    };
    for r in ran {
        c.stats.absorb(&r.stats);
        c.ops.push(r.stats.attempted);
        c.rss_kib = c.rss_kib.max(r.stats.rss_kib);
        c.windows.push(r.stats.windows);
        c.tracers.extend(r.tracer);
        c.workers.push(r.worker);
    }
    c
}

/// Runs `w` in a closed loop until `limit` (or a full span buffer).
pub fn closed_loop<W: Workload, P: Probe>(
    w: &mut W,
    probe: &mut P,
    limit: Limit,
) -> LoopStats {
    // Only a timed loop probes the host speed: a loop of a fixed op count
    // is itself timed as a whole (see `vm_suite`'s barrier overhead).
    let mut rec = Recorder::new((limit.max_ops == u64::MAX).then_some(limit.deadline));
    let mut st = LoopStats::default();
    loop {
        let op = w.next_op();
        probe.begin_op(W::kind(&op));
        let t0 = Instant::now();
        let obs = w.exec(&op, probe);
        let t1 = Instant::now();
        probe.end_op(t0, t1);
        rec.record(t0, t1);
        let c = w.check(&op, &obs);
        st.attempted += 1;
        if !c.ok {
            st.fail(format!("{op:?} -> {obs:?}"));
        }
        if c.denied {
            st.denied += 1;
        }
        match w.maintain() {
            Ok(upkeep) if upkeep.is_zero() => {}
            Ok(upkeep) => rec.exclude(upkeep),
            Err(e) => st.fail(e),
        }
        if st.attempted == RSS_MARK_OPS {
            st.rss_kib = peak_rss_kib();
        }
        if st.attempted >= limit.max_ops || t1 >= limit.deadline || probe.is_full() {
            break;
        }
    }
    if st.rss_kib == 0 {
        st.rss_kib = peak_rss_kib();
    }
    st.windows = rec.finish();
    st
}
