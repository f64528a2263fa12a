//! The concurrent conformance regime: lanes of single-syscall ops run
//! in parallel over disjoint task sets, and the kernel's own
//! commit-order log supplies the linearization that is then replayed
//! through the single-threaded oracle. Any per-op outcome or final
//! security-state difference is a real serializability violation of the
//! sharded kernel (see `laminar_testkit::concurrent` for the argument).
//!
//! Volume is controlled by `TESTKIT_CONC_*` environment variables (see
//! [`ConcurrentConfig::from_env`]); the defaults replay 4 seeds × 2000
//! traces × 24 ops at 4 worker threads — the 8k-trace CI floor.

use laminar_testkit::{explore_concurrent, ConcurrentConfig, TraceMix};

fn run(cfg: &ConcurrentConfig, regime: &str) {
    match explore_concurrent(cfg) {
        Ok(report) => {
            eprintln!(
                "concurrent conformance [{regime}]: {} traces / {} ops at {} \
                 threads, zero divergences (seeds {:#x}..{:#x})",
                report.traces_run,
                report.ops_run,
                cfg.threads,
                cfg.seeds.first().copied().unwrap_or(0),
                cfg.seeds.last().copied().unwrap_or(0),
            );
        }
        Err(cex) => {
            panic!(
                "concurrent conformance divergence [{regime}] at op {} ({:?}, \
                 deterministic: {}):\n{}\nlinearization:\n{:#?}\nreproduce: \
                 TESTKIT_SEED={:#x} TESTKIT_CONC_THREADS={} cargo test -p \
                 laminar-testkit --test concurrent_conformance",
                cex.divergence.index,
                cex.divergence.op,
                cex.deterministic,
                cex.divergence.detail,
                cex.lin,
                cex.seed,
                cex.threads,
            );
        }
    }
}

/// The CI matrix: every witnessed commit order across the seed matrix
/// must replay divergence-free through the oracle.
#[test]
fn concurrent_commit_orders_conform() {
    run(&ConcurrentConfig::from_env(), "default");
}

/// A narrower but deeper regime: more threads than task shards divide
/// evenly into, longer traces, fewer of them. Exercises shard-footprint
/// restarts under higher lane counts regardless of the env knobs.
#[test]
fn concurrent_commit_orders_conform_at_eight_threads() {
    let cfg = ConcurrentConfig {
        seeds: vec![0x8EED_0001, 0x8EED_0002],
        traces_per_seed: 150,
        ops_per_trace: 48,
        threads: 8,
        mix: TraceMix::Full,
    };
    run(&cfg, "8-thread");
}

/// The read-heavy seed set: every lane mostly `stat`s and reads the same
/// few files, so `/`, `/tmp` and the hot directories are held shared by
/// several lanes at once, while other ops write, create and unlink in
/// those directories. Shared holders commute, so the commit tickets must
/// still be a linearization the oracle explains.
#[test]
fn read_heavy_commit_orders_conform() {
    let cfg = ConcurrentConfig {
        seeds: vec![0x4EAD_0001, 0x4EAD_0002, 0x4EAD_0003, 0x4EAD_0004],
        traces_per_seed: 300,
        ops_per_trace: 32,
        threads: 4,
        mix: TraceMix::ReadHeavy,
    };
    run(&cfg, "read-heavy");
}
