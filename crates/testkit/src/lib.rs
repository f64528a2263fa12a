//! # laminar-testkit — model-based conformance testing for Laminar
//!
//! The enforcement stack under test spans three layers — LSM hooks in
//! the simulated kernel, the Fig. 3 syscall surface, and the VM's
//! read/write barriers — all bottoming out in the structural label
//! checks of `laminar-difc`. This crate checks the whole stack against a
//! **reference oracle**: an independent, dependency-free
//! re-implementation of the paper's security state machine over plain
//! `BTreeSet`s ([`Oracle`]).
//!
//! The pieces:
//!
//! * [`oracle`] — the pure model: labels, capabilities, the flow and
//!   label-change rules, pipes, files, signals, region entry.
//! * [`trace`] — the [`Op`] vocabulary and the seeded deterministic
//!   trace generator.
//! * [`replay`] — [`KernelReplay`], the adapter that executes each op
//!   through the real syscall/VM surface and normalizes the result.
//! * [`mod@explore`] — the conformance loop: replay both sides in
//!   lockstep, diff outcomes and states, shrink failures to minimal
//!   committed regression tests.
//! * [`fault`] — periodic lock poisoning, under which every verdict
//!   must still be bit-identical, plus syscall failpoints (mid-hook
//!   panic, post-body abort, quota exhaustion) under which every
//!   faulted op must be a security-state no-op.
//! * [`concurrent`] — the commit-order-witness regime: lanes of ops run
//!   in parallel over disjoint task sets, then the kernel's witnessed
//!   commit order is replayed through the single-threaded oracle.
//! * [`audit`] — the audit-completeness regime: traces replayed with
//!   the `laminar-obs` decision trace enabled, demanding exactly one
//!   kernel-side event per oracle-predicted silent drop, denial, quota
//!   rejection and VM-barrier verdict.
//!
//! Reproducing a CI failure locally:
//!
//! ```text
//! TESTKIT_SEED=0xdeadbeef cargo test -p laminar-testkit
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod concurrent;
pub mod explore;
pub mod fault;
pub mod oracle;
pub mod replay;
pub mod trace;

pub use audit::{assert_audit_completeness, run_audit_trace, AuditTally};
pub use concurrent::{
    assert_concurrent_conformance, explore_concurrent, generate_concurrent_trace,
    generate_read_heavy_trace, run_concurrent_trace, run_linearized, ConcurrentConfig,
    ConcurrentCounterexample, TraceMix, WitnessedOp,
};
pub use explore::{
    assert_conformance, explore, render_regression_test, run_trace, shrink, shrink_with,
    Counterexample, Divergence, ExploreConfig, ExploreReport,
};
pub use fault::{FaultPlan, SyscallFailpoint};
pub use oracle::{DenyKind, MCaps, MDrop, MLabel, MPair, Oracle, Outcome};
pub use replay::KernelReplay;
pub use trace::{generate_trace, payload, Op};
