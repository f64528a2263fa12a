//! Workspace-level smoke test for the conformance testkit: a small
//! fixed exploration plus one committed trace, so `cargo test` at the
//! root exercises the oracle/kernel lockstep even when the full
//! `-p laminar-testkit` matrix is not run.

use laminar_testkit::{explore, ExploreConfig, FaultPlan, Op};

#[test]
fn a_small_fixed_exploration_finds_no_divergence() {
    let cfg = ExploreConfig {
        seeds: vec![0xD1FC_0001],
        traces_per_seed: 25,
        ops_per_trace: 24,
        plan: FaultPlan::none(),
    };
    if let Err(cex) = explore(&cfg) {
        panic!(
            "smoke conformance divergence (seed {:#018x}):\n{}\n\n{}",
            cex.seed,
            cex.divergence.detail,
            laminar_testkit::render_regression_test(&cex),
        );
    }
}

#[test]
fn a_committed_trace_replays_identically() {
    laminar_testkit::assert_conformance(&[
        Op::SetLabel { task: 1, secrecy: true, mask: 0b01 },
        Op::PipeWrite { task: 1, pipe: 1, len: 4 },
        Op::PipeRead { task: 2, pipe: 1, max: 8 },
        Op::CreateFile { task: 1, dir: 2, slot: 0, s_mask: 0b01, i_mask: 0 },
        Op::GetLabels { task: 1, dir: 2, slot: 0 },
    ]);
}
