//! Concurrent conformance: the commit-order-witness regime.
//!
//! The sharded kernel claims that parallel syscalls are *serializable*:
//! every execution is outcome-equivalent to some sequential execution,
//! and the kernel names that sequential execution itself via its commit
//! tickets (with the commit log on, as this regime runs, each syscall
//! takes a globally ordered ticket while it still holds every shard lock
//! it touched — strict two-phase locking, so ticket order is a valid
//! linearization of the conflict order).
//!
//! This module puts that claim under test:
//!
//! 1. generate a trace over a *concurrent vocabulary* (every op is
//!    exactly one transactional syscall, see
//!    [`KernelReplay::apply_concurrent`]), partitioned into per-thread
//!    lanes by owning task;
//! 2. run the lanes concurrently via [`laminar_os::Kernel::run_parallel`]
//!    — one worker thread per task — recording each op's outcome and
//!    commit ticket;
//! 3. cross-check the recorded tickets against the kernel's own
//!    commit-order log;
//! 4. replay the witnessed linearization (all lanes merged in ticket
//!    order) through the single-threaded reference [`Oracle`], asserting
//!    per-op outcomes and the final security state are identical.
//!
//! On a divergence, the witnessed linearization is itself a
//! deterministic single-threaded trace; if it reproduces the divergence
//! sequentially it is delta-debugged with the same shrinker the
//! single-threaded explorer uses ([`crate::shrink_with`]).

use crate::explore::{env_u64, shrink_with, Divergence, ExploreReport};
use crate::oracle::{Oracle, Outcome};
use crate::replay::KernelReplay;
use crate::trace::{Op, SETUP_TAGS};
use laminar_util::SplitMix64;
use std::collections::BTreeMap;

/// One op as witnessed by a worker thread: its index in the generated
/// trace (which fixes its payload), its outcome, and the commit ticket
/// of its decisive syscall.
#[derive(Clone, Debug)]
pub struct WitnessedOp {
    /// The op's position in the generated trace.
    pub index: usize,
    /// The op.
    pub op: Op,
    /// The outcome the concurrent execution observed.
    pub outcome: Outcome,
    /// The kernel commit ticket of the op's decisive syscall.
    pub seq: u64,
}

/// A concurrent conformance failure: the witnessed linearization plus
/// what diverged, and — when the divergence reproduces sequentially —
/// its shrunk form.
#[derive(Clone, Debug)]
pub struct ConcurrentCounterexample {
    /// The trace seed.
    pub seed: u64,
    /// Worker thread (= task) count.
    pub threads: usize,
    /// The (possibly shrunk) linearized `(index, op)` sequence.
    pub lin: Vec<(usize, Op)>,
    /// What went wrong.
    pub divergence: Divergence,
    /// Whether `lin` reproduces the divergence single-threaded (and was
    /// therefore shrunk). `false` means the failure only manifested
    /// under true concurrency — `lin` is the full unshrunk witness.
    pub deterministic: bool,
}

/// Generates a concurrent trace: `len` ops over `tasks` tasks drawn
/// from the concurrent vocabulary only — no [`Op::AllocTag`] (the tag
/// table must stay frozen while views are shared across threads), no
/// multi-syscall file I/O, no pure in-process checks. Deterministic in
/// `(seed, len, tasks)`.
#[must_use]
pub fn generate_concurrent_trace(seed: u64, len: usize, tasks: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let mask = |rng: &mut SplitMix64| rng.below(1 << SETUP_TAGS) as u8;
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let task = rng.below(tasks as u64) as u8;
        let op = match rng.below(22) {
            0..=2 => Op::SetLabel { task, secrecy: rng.gen_bool(), mask: mask(&mut rng) },
            3 => {
                // Sparse masks, as in the single-threaded generator.
                let p = mask(&mut rng) & mask(&mut rng);
                let m = mask(&mut rng) & mask(&mut rng);
                Op::DropCaps { task, plus_mask: p, minus_mask: m }
            }
            4 => Op::WriteCap {
                task,
                pipe: rng.below(3) as u8,
                tag: rng.below(u64::from(SETUP_TAGS)) as u8,
                plus: rng.gen_bool(),
            },
            5 => Op::ReadCap { task, pipe: rng.below(3) as u8 },
            6 | 7 => Op::PipeWrite {
                task,
                pipe: rng.below(3) as u8,
                len: rng.gen_range(1..9) as u8,
            },
            8 | 9 => Op::PipeRead {
                task,
                pipe: rng.below(3) as u8,
                max: rng.gen_range(1..17) as u8,
            },
            10 => Op::CreateFile {
                task,
                dir: rng.below(6) as u8,
                slot: rng.below(4) as u8,
                s_mask: mask(&mut rng),
                i_mask: mask(&mut rng),
            },
            11 => Op::MkdirLabeled {
                task,
                dir: 4 + rng.below(2) as u8,
                s_mask: mask(&mut rng),
                i_mask: mask(&mut rng),
            },
            12 | 13 => Op::WriteFile {
                task,
                dir: rng.below(6) as u8,
                slot: rng.below(4) as u8,
                len: rng.gen_range(1..9) as u8,
            },
            14 => {
                Op::ReadFile { task, dir: rng.below(6) as u8, slot: rng.below(4) as u8 }
            }
            15 => {
                Op::GetLabels { task, dir: rng.below(6) as u8, slot: rng.below(4) as u8 }
            }
            16 => Op::Unlink { task, dir: rng.below(6) as u8, slot: rng.below(4) as u8 },
            17 => Op::Rmdir { task, dir: 2 + rng.below(4) as u8 },
            18 => Op::Readdir { task, dir: rng.below(6) as u8 },
            19 => Op::Kill {
                task,
                target: rng.below(tasks as u64) as u8,
                sig: rng.gen_range(1..5) as u8,
            },
            // One-shot sparse write (`write_file_at_off`): a single
            // transaction with a single commit ticket, so it is
            // attributable to one position in the witnessed
            // linearization; offsets straddle the file-size quota.
            21 => Op::WriteFileAt {
                task,
                dir: rng.below(3) as u8,
                slot: rng.below(2) as u8,
                offset: rng.below(crate::trace::WRITE_OFFSET_CEILING) as u16,
                len: rng.gen_range(1..9) as u8,
            },
            _ => Op::NextSignal { task },
        };
        ops.push(op);
    }
    ops
}

/// Generates a read-heavy concurrent trace: three ops in five `stat`,
/// `read_file_at`, `get_labels` or `readdir` two files in the home
/// directory and `/tmp` (and, one time in five, in the secret
/// `/tmp/s0`), while the rest create, write and unlink those same files
/// or raise the issuing task's secrecy. So readers holding a directory's
/// shard shared meet writers that need it, or a file's shard,
/// exclusive. Labels are secrecy-only, so most reads succeed.
/// Deterministic in `(seed, len, tasks)`.
#[must_use]
pub fn generate_read_heavy_trace(seed: u64, len: usize, tasks: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let sparse = |rng: &mut SplitMix64| {
        (rng.below(1 << SETUP_TAGS) & rng.below(1 << SETUP_TAGS)) as u8
    };
    (0..len)
        .map(|_| {
            let task = rng.below(tasks as u64) as u8;
            let dir = if rng.below(5) == 0 { 2 } else { rng.below(2) as u8 };
            let slot = rng.below(2) as u8;
            match rng.below(20) {
                0..=5 => Op::Stat { task, dir, slot },
                6..=9 => Op::ReadFile { task, dir, slot },
                10 => Op::GetLabels { task, dir, slot },
                11 => Op::Readdir { task, dir },
                12 => Op::WriteFile { task, dir, slot, len: rng.gen_range(1..9) as u8 },
                13 => Op::WriteFileAt {
                    task,
                    dir,
                    slot,
                    offset: rng.below(16) as u16,
                    len: rng.gen_range(1..9) as u8,
                },
                14..=17 => Op::CreateFile {
                    task,
                    dir,
                    slot,
                    s_mask: sparse(&mut rng),
                    i_mask: 0,
                },
                18 => Op::Unlink { task, dir, slot },
                _ => Op::SetLabel { task, secrecy: true, mask: sparse(&mut rng) },
            }
        })
        .collect()
}

/// The task that *issues* an op's syscall (its lane).
fn op_task(op: &Op) -> u8 {
    match *op {
        Op::AllocTag { task }
        | Op::SetLabel { task, .. }
        | Op::DropCaps { task, .. }
        | Op::WriteCap { task, .. }
        | Op::ReadCap { task, .. }
        | Op::PipeWrite { task, .. }
        | Op::PipeRead { task, .. }
        | Op::CreateFile { task, .. }
        | Op::MkdirLabeled { task, .. }
        | Op::WriteFile { task, .. }
        | Op::WriteFileAt { task, .. }
        | Op::ReadFile { task, .. }
        | Op::GetLabels { task, .. }
        | Op::Stat { task, .. }
        | Op::Unlink { task, .. }
        | Op::Rmdir { task, .. }
        | Op::Readdir { task, .. }
        | Op::Kill { task, .. }
        | Op::NextSignal { task }
        | Op::VmBarrier { task, .. }
        | Op::RegionEnter { task, .. } => task,
    }
}

/// Runs `ops` concurrently on `threads` worker threads (one task each)
/// and checks the witnessed linearization against the oracle.
///
/// # Errors
/// The witnessed linearization plus the first divergence found.
///
/// # Panics
/// On fixture setup failure (`threads < 3`).
pub fn run_concurrent_trace(
    ops: &[Op],
    threads: usize,
) -> Result<(), Box<ConcurrentCounterexample>> {
    let replay = KernelReplay::with_tasks(threads);

    let mut lanes: Vec<Vec<(usize, Op)>> = vec![Vec::new(); threads];
    for (i, op) in ops.iter().enumerate() {
        lanes[op_task(op) as usize % threads].push((i, op.clone()));
    }

    replay.kernel().set_commit_log_enabled(true);
    let task_sets: Vec<Vec<_>> =
        replay.handles().iter().map(|h| vec![h.clone()]).collect();
    let lanes_ref = &lanes;
    let replay_ref = &replay;
    let results: Vec<Vec<WitnessedOp>> =
        replay.kernel().run_parallel(task_sets, |w, _own| {
            lanes_ref[w]
                .iter()
                .map(|(i, op)| {
                    let (outcome, seq) = replay_ref.apply_concurrent(op, *i);
                    WitnessedOp { index: *i, op: op.clone(), outcome, seq }
                })
                .collect()
        });
    replay.kernel().set_commit_log_enabled(false);
    let log = replay.kernel().drain_commit_log();

    let mut merged: Vec<WitnessedOp> = results.into_iter().flatten().collect();
    merged.sort_by_key(|r| r.seq);
    let lin: Vec<(usize, Op)> = merged.iter().map(|r| (r.index, r.op.clone())).collect();
    let fail = |divergence: Divergence| {
        Box::new(ConcurrentCounterexample {
            seed: 0, // filled in by the explorer
            threads,
            lin: lin.clone(),
            divergence,
            deterministic: false,
        })
    };

    // 1. The witness must be internally consistent: distinct tickets,
    //    each one present in the kernel's own commit-order log under the
    //    issuing task's id. (The log is a superset: a CreateFile op also
    //    commits a trailing close.)
    let by_seq: BTreeMap<u64, _> = log.iter().map(|r| (r.seq, r.task)).collect();
    for pair in merged.windows(2) {
        if pair[0].seq == pair[1].seq {
            return Err(fail(Divergence {
                index: pair[1].index,
                op: pair[1].op.clone(),
                detail: format!(
                    "commit ticket {} witnessed by two ops (indices {} and {})",
                    pair[1].seq, pair[0].index, pair[1].index
                ),
            }));
        }
    }
    for r in &merged {
        let want = replay.handles()[op_task(&r.op) as usize % threads].id();
        match by_seq.get(&r.seq) {
            Some(&tid) if tid == want => {}
            got => {
                return Err(fail(Divergence {
                    index: r.index,
                    op: r.op.clone(),
                    detail: format!(
                        "commit log disagrees with witness at ticket {}: log has \
                         {got:?}, op ran as task {want}",
                        r.seq
                    ),
                }));
            }
        }
    }

    // 2. The linearization must explain every outcome and the final
    //    state.
    let mut oracle = Oracle::with_tasks(threads);
    for r in &merged {
        let expected = oracle.apply(&r.op, r.index);
        if expected != r.outcome {
            return Err(fail(Divergence {
                index: r.index,
                op: r.op.clone(),
                detail: format!(
                    "outcome not explained by the witnessed linearization \
                     (ticket {}):\n  kernel: {:?}\n  oracle: {expected:?}",
                    r.seq, r.outcome
                ),
            }));
        }
    }
    if let Some(d) = replay.diff_state(&oracle) {
        let (index, op) = lin.last().cloned().unwrap_or((0, Op::NextSignal { task: 0 }));
        return Err(fail(Divergence {
            index,
            op,
            detail: format!("final state diverges from the linearization: {d}"),
        }));
    }
    Ok(())
}

/// Replays a linearized `(index, op)` sequence single-threaded, kernel
/// vs oracle — the deterministic re-check (and shrink oracle) for a
/// concurrent counterexample.
///
/// # Errors
/// The first [`Divergence`] found.
pub fn run_linearized(lin: &[(usize, Op)], threads: usize) -> Result<(), Divergence> {
    let replay = KernelReplay::with_tasks(threads);
    let mut oracle = Oracle::with_tasks(threads);
    for (index, op) in lin {
        let (got, _) = replay.apply_concurrent(op, *index);
        let expected = oracle.apply(op, *index);
        if got != expected {
            return Err(Divergence {
                index: *index,
                op: op.clone(),
                detail: format!(
                    "outcome mismatch:\n  kernel: {got:?}\n  oracle: {expected:?}"
                ),
            });
        }
    }
    if let Some(d) = replay.diff_state(&oracle) {
        let (index, op) = lin.last().cloned().unwrap_or((0, Op::NextSignal { task: 0 }));
        return Err(Divergence { index, op, detail: format!("state divergence: {d}") });
    }
    Ok(())
}

/// Which generator a concurrent exploration draws its traces from.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TraceMix {
    /// [`generate_concurrent_trace`]: the whole concurrent vocabulary.
    Full,
    /// [`generate_read_heavy_trace`]: mostly reads of a few hot files.
    ReadHeavy,
}

/// Configuration of one concurrent exploration run.
#[derive(Clone, Debug)]
pub struct ConcurrentConfig {
    /// Top-level seeds; each derives `traces_per_seed` trace seeds.
    pub seeds: Vec<u64>,
    /// Traces per top-level seed.
    pub traces_per_seed: usize,
    /// Ops per trace.
    pub ops_per_trace: usize,
    /// Worker threads (= tasks); at least 3.
    pub threads: usize,
    /// The trace generator.
    pub mix: TraceMix,
}

impl ConcurrentConfig {
    /// Default seed base for CI's fixed matrix (disjoint from the
    /// single-threaded matrices).
    pub const DEFAULT_SEED_BASE: u64 = 0x5EED_5111;
    /// Default number of top-level seeds.
    pub const DEFAULT_SEEDS: usize = 4;
    /// Default traces per seed (4 × 2000 = 8000 traces per run).
    pub const DEFAULT_TRACES: usize = 2000;
    /// Default ops per trace.
    pub const DEFAULT_OPS: usize = 24;
    /// Default worker thread count.
    pub const DEFAULT_THREADS: usize = 4;

    /// Builds a config from the environment: `TESTKIT_SEED` /
    /// `TESTKIT_SEED_BASE` / `TESTKIT_SEEDS` as in
    /// [`crate::ExploreConfig::from_env`], plus `TESTKIT_CONC_TRACES`,
    /// `TESTKIT_CONC_OPS` and `TESTKIT_CONC_THREADS` volume knobs.
    #[must_use]
    pub fn from_env() -> Self {
        let seeds = if let Some(s) = env_u64("TESTKIT_SEED") {
            vec![s]
        } else {
            let base = env_u64("TESTKIT_SEED_BASE").unwrap_or(Self::DEFAULT_SEED_BASE);
            let n = env_u64("TESTKIT_SEEDS")
                .map_or(Self::DEFAULT_SEEDS, |n| n as usize)
                .max(1);
            (0..n as u64).map(|i| base.wrapping_add(i)).collect()
        };
        ConcurrentConfig {
            seeds,
            traces_per_seed: env_u64("TESTKIT_CONC_TRACES")
                .map_or(Self::DEFAULT_TRACES, |n| n as usize),
            ops_per_trace: env_u64("TESTKIT_CONC_OPS")
                .map_or(Self::DEFAULT_OPS, |n| n as usize),
            threads: env_u64("TESTKIT_CONC_THREADS")
                .map_or(Self::DEFAULT_THREADS, |n| n as usize)
                .max(3),
            mix: TraceMix::Full,
        }
    }
}

/// Runs the full concurrent exploration. On a failure the witnessed
/// linearization is re-checked single-threaded and, if it reproduces,
/// shrunk with [`shrink_with`]; if `TESTKIT_ARTIFACT_DIR` is set the
/// counterexample is also written there.
///
/// # Errors
/// The (possibly shrunk) [`ConcurrentCounterexample`].
pub fn explore_concurrent(
    cfg: &ConcurrentConfig,
) -> Result<ExploreReport, Box<ConcurrentCounterexample>> {
    let mut traces_run = 0;
    let mut ops_run = 0;
    for &seed in &cfg.seeds {
        let mut derive = SplitMix64::new(seed);
        for _ in 0..cfg.traces_per_seed {
            let trace_seed = derive.next_u64();
            let generate = match cfg.mix {
                TraceMix::Full => generate_concurrent_trace,
                TraceMix::ReadHeavy => generate_read_heavy_trace,
            };
            let ops = generate(trace_seed, cfg.ops_per_trace, cfg.threads);
            if let Err(mut cex) = run_concurrent_trace(&ops, cfg.threads) {
                cex.seed = trace_seed;
                if run_linearized(&cex.lin, cfg.threads).is_err() {
                    let (min, divergence) =
                        shrink_with(&cex.lin, |l| run_linearized(l, cfg.threads));
                    cex.lin = min;
                    cex.divergence = divergence;
                    cex.deterministic = true;
                }
                write_concurrent_artifact(&cex);
                return Err(cex);
            }
            traces_run += 1;
            ops_run += ops.len();
        }
    }
    Ok(ExploreReport { traces_run, ops_run })
}

fn write_concurrent_artifact(cex: &ConcurrentCounterexample) {
    let Ok(dir) = std::env::var("TESTKIT_ARTIFACT_DIR") else { return };
    if dir.is_empty() {
        return;
    }
    let _ = std::fs::create_dir_all(&dir);
    let path = format!("{dir}/concurrent_counterexample_{:#018x}.txt", cex.seed);
    let _ = std::fs::write(&path, format!("{cex:#?}\n"));
    eprintln!("testkit: wrote concurrent counterexample to {path}");
}

/// Runs the environment-configured concurrent exploration and panics
/// with full detail on any divergence — the test-facing entry point.
///
/// # Panics
/// On any conformance divergence.
pub fn assert_concurrent_conformance(cfg: &ConcurrentConfig) {
    if let Err(cex) = explore_concurrent(cfg) {
        panic!(
            "concurrent conformance divergence (seed {:#018x}, {} threads, \
             deterministic: {}):\nat op {} ({:?}):\n{}\nlinearization:\n{:#?}",
            cex.seed,
            cex.threads,
            cex.deterministic,
            cex.divergence.index,
            cex.divergence.op,
            cex.divergence.detail,
            cex.lin
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_generation_is_deterministic_and_in_vocabulary() {
        let a = generate_concurrent_trace(7, 200, 4);
        assert_eq!(a, generate_concurrent_trace(7, 200, 4));
        assert!(a.iter().all(|op| !matches!(
            op,
            Op::AllocTag { .. } | Op::VmBarrier { .. } | Op::RegionEnter { .. }
        )));
        assert!(a.iter().any(|op| matches!(op, Op::Kill { .. })));
    }

    #[test]
    fn read_heavy_generation_is_deterministic_and_mostly_reads() {
        let a = generate_read_heavy_trace(7, 400, 4);
        assert_eq!(a, generate_read_heavy_trace(7, 400, 4));
        let reads = a
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::Stat { .. }
                        | Op::ReadFile { .. }
                        | Op::GetLabels { .. }
                        | Op::Readdir { .. }
                )
            })
            .count();
        assert!((200..280).contains(&reads), "{reads} reads in 400 ops");
    }

    #[test]
    fn a_small_concurrent_trace_conforms() {
        let ops = generate_concurrent_trace(0xC0C0, 64, 4);
        if let Err(cex) = run_concurrent_trace(&ops, 4) {
            panic!("divergence: {cex:#?}");
        }
    }

    #[test]
    fn linearized_replay_accepts_a_consistent_trace() {
        let lin: Vec<(usize, Op)> =
            generate_concurrent_trace(0xD0D0, 48, 4).into_iter().enumerate().collect();
        if let Err(d) = run_linearized(&lin, 4) {
            panic!("divergence: {d:#?}");
        }
    }
}
