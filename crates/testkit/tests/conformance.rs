//! The conformance matrix: the seeded explorer run as `#[test]`s, once
//! per fault regime.
//!
//! Every regime arms its faults on the kernels it boots, so the tests
//! share no state and may run in parallel. Volume is controlled by
//! `TESTKIT_*` environment variables (see [`ExploreConfig::from_env`]);
//! the defaults replay 8 seeds × 500 traces × 28 ops per regime.

use laminar_testkit::{explore, ExploreConfig, FaultPlan};

fn run(plan: FaultPlan, regime: &str) {
    let cfg = ExploreConfig::from_env(plan);
    match explore(&cfg) {
        Ok(report) => {
            eprintln!(
                "conformance [{regime}]: {} traces / {} ops, zero divergences \
                 (seeds {:#x}..{:#x})",
                report.traces_run,
                report.ops_run,
                cfg.seeds.first().copied().unwrap_or(0),
                cfg.seeds.last().copied().unwrap_or(0),
            );
        }
        Err(cex) => {
            panic!(
                "conformance divergence [{regime}] (trace seed {:#018x}, shrunk to \
                 {} ops):\n{}\nreproduce: TESTKIT_SEED={:#x} cargo test -p \
                 laminar-testkit\ncommit this regression test:\n\n{}",
                cex.seed,
                cex.ops.len(),
                cex.divergence.detail,
                cex.seed,
                laminar_testkit::render_regression_test(&cex),
            );
        }
    }
}

#[test]
fn baseline_conformance() {
    run(FaultPlan::none(), "baseline");
}

#[test]
fn conformance_with_lock_poisoning() {
    run(FaultPlan::none().with_poison(8), "poison");
}

// The fail-closed regimes: a one-shot syscall failpoint is armed before
// every nth op, and every trace asserts that each faulted syscall (a)
// returned a typed Internal/Quota denial and (b) left the kernel's
// security state byte-for-byte what the oracle says it was before the
// op, while the kernel kept serving the rest of the trace.

#[test]
fn conformance_under_failpoint_panic_at_hook() {
    run(FaultPlan::panic_at_hook(5), "failpoint:panic-at-hook");
}

#[test]
fn conformance_under_failpoint_abort_late() {
    run(FaultPlan::abort_late(7), "failpoint:abort-late");
}

#[test]
fn conformance_under_failpoint_quota() {
    run(FaultPlan::quota(3), "failpoint:quota");
}
