//! The deterministic trace explorer: generate → replay both sides →
//! diff → shrink → render.
//!
//! [`explore`] drives seeded random traces (see
//! [`crate::trace::generate_trace`]) through the kernel and the oracle
//! in lockstep, comparing per-op [`Outcome`]s and (periodically) full
//! security states. On the first divergence it delta-debugs the trace
//! down to a minimal reproducer and returns it as a [`Counterexample`]
//! whose [`render_regression_test`] output is a copy-pasteable `#[test]`
//! for `crates/testkit/tests/regressions.rs`.
//!
//! Everything is deterministic: a failure report's `(seed, ops)` names
//! the exact trace forever, and `TESTKIT_SEED=<seed> cargo test -p
//! laminar-testkit` re-runs just that seed.

use crate::fault::FaultPlan;
use crate::oracle::{DenyKind, Oracle, Outcome};
use crate::replay::KernelReplay;
use crate::trace::{generate_trace, Op};
use laminar_util::SplitMix64;

/// How often (in ops) the full state diff runs; the final op always
/// diffs. Outcome diffs run on every op regardless.
const STATE_DIFF_STRIDE: usize = 4;

/// One kernel/oracle disagreement.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the op that diverged.
    pub index: usize,
    /// The op itself.
    pub op: Op,
    /// Human-readable detail: both outcomes, or the state difference.
    pub detail: String,
}

/// A shrunk, reproducible conformance failure.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The trace seed that produced the original failure.
    pub seed: u64,
    /// The minimal op sequence still reproducing it.
    pub ops: Vec<Op>,
    /// What went wrong on the minimal trace.
    pub divergence: Divergence,
}

/// Replays `ops` against a fresh kernel and a fresh oracle under
/// `plan`, comparing outcomes on every op and states periodically.
///
/// # Errors
/// The first [`Divergence`] found.
pub fn run_trace(ops: &[Op], plan: &FaultPlan) -> Result<(), Divergence> {
    let mut oracle = Oracle::new();
    let mut kernel = KernelReplay::new();
    let failpoint = plan.syscall_failpoint();
    if failpoint.is_some() {
        crate::fault::silence_injected_panics();
    }
    for (i, op) in ops.iter().enumerate() {
        if let Some(n) = plan.poison_every {
            if n > 0 && i % n == 0 {
                // Rotate through the shards so every lock in the map
                // gets poisoned (and recovered from) over a trace.
                kernel.poison_shard(i / n);
            }
        }
        if let Some((fp, n)) = failpoint {
            if n > 0 && i % n == 0 {
                kernel.arm_failpoint(fp);
            }
        }
        let kernel_out = kernel.apply(op, i);
        if failpoint.is_some() && kernel.take_failpoint_fired() {
            // The op's syscall faulted mid-flight. The fail-closed
            // contract: a typed Internal/Quota denial, and the kernel's
            // security state byte-for-byte as it was before the op (the
            // oracle deliberately does NOT apply the op). Ops that never
            // reach the trigger (read-only getters, fast paths) leave the
            // failpoint armed for a later op.
            if !matches!(
                kernel_out,
                Outcome::Denied(DenyKind::Internal | DenyKind::Quota)
            ) {
                return Err(Divergence {
                    index: i,
                    op: op.clone(),
                    detail: format!(
                        "injected fault was not failed closed: kernel \
                         returned {kernel_out:?}"
                    ),
                });
            }
            if let Some(d) = kernel.diff_state(&oracle) {
                return Err(Divergence {
                    index: i,
                    op: op.clone(),
                    detail: format!("state perturbed by an aborted syscall: {d}"),
                });
            }
            continue;
        }
        let oracle_out = oracle.apply(op, i);
        if kernel_out != oracle_out {
            return Err(Divergence {
                index: i,
                op: op.clone(),
                detail: format!(
                    "outcome mismatch:\n  kernel: {kernel_out:?}\n  oracle: {oracle_out:?}"
                ),
            });
        }
        if (i + 1) % STATE_DIFF_STRIDE == 0 || i + 1 == ops.len() {
            if let Some(d) = kernel.diff_state(&oracle) {
                return Err(Divergence {
                    index: i,
                    op: op.clone(),
                    detail: format!("state divergence after op: {d}"),
                });
            }
        }
    }
    Ok(())
}

/// Delta-debugs a known-diverging trace: repeatedly removes single ops
/// while the divergence persists, to a fixed point.
///
/// Returns the minimal trace and its divergence. Panics if `ops` does
/// not actually diverge under `plan`.
#[must_use]
pub fn shrink(ops: &[Op], plan: &FaultPlan) -> (Vec<Op>, Divergence) {
    shrink_with(ops, |t| run_trace(t, plan))
}

/// The generic delta-debugging core behind [`shrink`]: minimizes any
/// item sequence against any replay function that reports a
/// [`Divergence`]. The concurrent explorer reuses it to minimize a
/// witnessed linearization.
///
/// # Panics
/// If `items` does not diverge under `replay`.
#[must_use]
pub fn shrink_with<T, F>(items: &[T], mut replay: F) -> (Vec<T>, Divergence)
where
    T: Clone,
    F: FnMut(&[T]) -> Result<(), Divergence>,
{
    let mut current = items.to_vec();
    let mut divergence = match replay(&current) {
        Err(d) => d,
        Ok(()) => panic!("shrink called on a conforming trace"),
    };
    'outer: loop {
        for i in 0..current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if let Err(d) = replay(&candidate) {
                current = candidate;
                divergence = d;
                continue 'outer;
            }
        }
        break;
    }
    (current, divergence)
}

/// Renders a counterexample as a committed regression test, ready to
/// paste into `crates/testkit/tests/regressions.rs`.
#[must_use]
pub fn render_regression_test(cex: &Counterexample) -> String {
    let mut body = String::new();
    for op in &cex.ops {
        body.push_str(&format!("        {op:?},\n"));
    }
    format!(
        "#[test]\nfn regression_seed_{seed:#018x}() {{\n    // {detail}\n    use \
         laminar_testkit::Op::*;\n    laminar_testkit::assert_conformance(&[\n{body}    \
         ]);\n}}\n",
        seed = cex.seed,
        detail = cex.divergence.detail.replace('\n', "\n    // "),
        body = body,
    )
}

/// Configuration of one exploration run.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Top-level seeds; each derives `traces_per_seed` trace seeds.
    pub seeds: Vec<u64>,
    /// Traces generated per top-level seed.
    pub traces_per_seed: usize,
    /// Ops per trace.
    pub ops_per_trace: usize,
    /// Fault regime for every trace in the run.
    pub plan: FaultPlan,
}

impl ExploreConfig {
    /// Default seed base for CI's fixed matrix.
    pub const DEFAULT_SEED_BASE: u64 = 0xC0FF_EE00;
    /// Default number of top-level seeds.
    pub const DEFAULT_SEEDS: usize = 8;
    /// Default traces per seed.
    pub const DEFAULT_TRACES: usize = 500;
    /// Default ops per trace.
    pub const DEFAULT_OPS: usize = 28;

    /// Builds a config from the environment:
    ///
    /// * `TESTKIT_SEED` — run exactly one top-level seed;
    /// * `TESTKIT_SEED_BASE`, `TESTKIT_SEEDS` — seed matrix
    ///   `base..base+n` (nightly CI passes a fresh base);
    /// * `TESTKIT_TRACES`, `TESTKIT_OPS` — volume knobs.
    ///
    /// Numbers accept decimal or `0x`-prefixed hex.
    #[must_use]
    pub fn from_env(plan: FaultPlan) -> Self {
        ExploreConfig {
            seeds: env_seeds(Self::DEFAULT_SEED_BASE, Self::DEFAULT_SEEDS),
            traces_per_seed: env_count("TESTKIT_TRACES", Self::DEFAULT_TRACES),
            ops_per_trace: env_count("TESTKIT_OPS", Self::DEFAULT_OPS),
            plan,
        }
    }
}

/// The top-level seeds the environment names: `TESTKIT_SEED` alone, or
/// `TESTKIT_SEEDS` (at least one) consecutive seeds from
/// `TESTKIT_SEED_BASE`, with the caller's defaults for what is unset.
pub(crate) fn env_seeds(default_base: u64, default_seeds: usize) -> Vec<u64> {
    if let Some(s) = env_u64("TESTKIT_SEED") {
        return vec![s];
    }
    let base = env_u64("TESTKIT_SEED_BASE").unwrap_or(default_base);
    let n = env_count("TESTKIT_SEEDS", default_seeds).max(1);
    (0..n as u64).map(|i| base.wrapping_add(i)).collect()
}

/// The count in variable `name`, or `default` if it is unset.
pub(crate) fn env_count(name: &str, default: usize) -> usize {
    env_u64(name).map_or(default, |n| n as usize)
}

fn env_u64(name: &str) -> Option<u64> {
    let v = std::env::var(name).ok()?;
    let v = v.trim();
    let parsed = if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    match parsed {
        Ok(n) => Some(n),
        Err(_) => panic!("{name}={v:?} is not a number"),
    }
}

/// Summary of a successful exploration.
#[derive(Clone, Copy, Debug)]
pub struct ExploreReport {
    /// Traces replayed with zero divergence.
    pub traces_run: usize,
    /// Total ops replayed.
    pub ops_run: usize,
}

/// Runs the full exploration. On the first divergence the failing trace
/// is shrunk to a minimal counterexample; if `TESTKIT_ARTIFACT_DIR` is
/// set, the rendered regression test is also written there (nightly CI
/// uploads that directory).
///
/// # Errors
/// The shrunk [`Counterexample`].
pub fn explore(cfg: &ExploreConfig) -> Result<ExploreReport, Box<Counterexample>> {
    let mut traces_run = 0;
    let mut ops_run = 0;
    for &seed in &cfg.seeds {
        let mut derive = SplitMix64::new(seed);
        for _ in 0..cfg.traces_per_seed {
            let trace_seed = derive.next_u64();
            let ops = generate_trace(trace_seed, cfg.ops_per_trace);
            if run_trace(&ops, &cfg.plan).is_err() {
                let (min_ops, divergence) = shrink(&ops, &cfg.plan);
                let cex = Counterexample { seed: trace_seed, ops: min_ops, divergence };
                let file = format!("counterexample_{:#018x}.rs", cex.seed);
                write_artifact(&file, &render_regression_test(&cex));
                return Err(Box::new(cex));
            }
            traces_run += 1;
            ops_run += ops.len();
        }
    }
    Ok(ExploreReport { traces_run, ops_run })
}

/// Writes a counterexample to `file` in `TESTKIT_ARTIFACT_DIR`, if that
/// is set and not empty (nightly CI uploads the directory).
pub(crate) fn write_artifact(file: &str, contents: &str) {
    let Ok(dir) = std::env::var("TESTKIT_ARTIFACT_DIR") else { return };
    if dir.is_empty() {
        return;
    }
    let _ = std::fs::create_dir_all(&dir);
    let path = format!("{dir}/{file}");
    let _ = std::fs::write(&path, contents);
    eprintln!("testkit: wrote counterexample to {path}");
}

/// Replays a committed trace and panics with full detail on divergence
/// — the entry point for regression tests produced by
/// [`render_regression_test`].
///
/// # Panics
/// On any kernel/oracle divergence.
pub fn assert_conformance(ops: &[Op]) {
    if let Err(d) = run_trace(ops, &FaultPlan::none()) {
        panic!("conformance divergence at op {} ({:?}):\n{}", d.index, d.op, d.detail);
    }
}
