//! Audit-completeness checking: replay traces with tracing enabled and
//! demand that the trusted audit log records **exactly one** event for
//! every enforcement decision the oracle predicts — every silent drop,
//! every typed denial, every quota rejection, every VM-barrier verdict —
//! and none it doesn't.
//!
//! The silent-drop channels are where this matters most: §5.2 makes the
//! kernel drop flow-vetoed pipe writes, capability transfers and signals
//! *without telling the subject*, so the only place those decisions are
//! visible at all is the kernel-side decision trace. If the trace under-
//! reports (a drop with no event) the operator is blind; if it
//! over-reports (duplicate events from a restarted syscall body) the
//! audit trail can't be reconciled against the commit-ticket
//! linearization. Both directions are checked per op.
//!
//! Each trace replays on its own freshly booted kernel, whose log holds
//! that trace's records and nothing else. The harness is
//! single-threaded and drains the log after each op
//! ([`laminar_obs::Audit::drain`] on [`laminar_os::Kernel::audit`]), so the audit delta of one op
//! is exact — no cross-thread noise, no attribution guesswork.

use crate::oracle::{DenyKind, MDrop, Oracle, Outcome};
use crate::replay::KernelReplay;
use crate::trace::Op;
use laminar_obs::{self as obs, Event, Layer, Record, Verdict};

/// Aggregate counts from one audit-completeness run; each counter is a
/// prediction that was matched exactly once in the log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditTally {
    /// Ops replayed.
    pub ops: usize,
    /// Oracle-predicted silent drops, each matched by exactly one
    /// `SilentDrop` event on the right channel.
    pub drops_matched: usize,
    /// Oracle-predicted typed denials, each matched by exactly one
    /// denied `SyscallCommit`.
    pub denials_matched: usize,
    /// Quota denials, each additionally matched by exactly one
    /// `QuotaExceeded` event.
    pub quota_matched: usize,
    /// VM-barrier checks, each matched by exactly one `FlowCheck` at
    /// [`Layer::Vm`] with the predicted verdict.
    pub vm_checks_matched: usize,
}

impl AuditTally {
    fn absorb(&mut self, other: AuditTally) {
        self.ops += other.ops;
        self.drops_matched += other.drops_matched;
        self.denials_matched += other.denials_matched;
        self.quota_matched += other.quota_matched;
        self.vm_checks_matched += other.vm_checks_matched;
    }
}

/// Whether an oracle drop prediction and a kernel drop event name the
/// same channel. The oracle does not distinguish pipes from socketpairs
/// (the fixture has no sockets, but the kernel event vocabulary does).
fn channel_matches(predicted: MDrop, actual: obs::DropChannel) -> bool {
    matches!(
        (predicted, actual),
        (MDrop::Pipe, obs::DropChannel::Pipe | obs::DropChannel::Socket)
            | (MDrop::Cap, obs::DropChannel::Cap)
            | (MDrop::Signal, obs::DropChannel::Signal)
    )
}

/// Ops whose replay goes through the transactional syscall surface (and
/// therefore must produce `SyscallCommit` records). `VmBarrier` and
/// `RegionEnter` are pure in-process checks; `AllocTag` is a syscall but
/// becomes a local no-op at the tag ceiling, which only ever yields a
/// non-denied outcome, so the denial rule below is vacuous for it.
fn is_syscall_op(op: &Op) -> bool {
    !matches!(op, Op::VmBarrier { .. } | Op::RegionEnter { .. })
}

/// Checks one op's drained audit records against the oracle's
/// prediction. Returns the per-op tally contribution.
fn audit_one(
    op: &Op,
    outcome: &Outcome,
    predicted_drop: Option<MDrop>,
    records: &[Record],
) -> Result<AuditTally, String> {
    let mut tally = AuditTally { ops: 1, ..AuditTally::default() };

    // Rollbacks only happen under injected faults; this regime has none.
    if records.iter().any(|r| matches!(r.event, Event::SyscallRollback { .. })) {
        return Err("unexpected SyscallRollback in a fault-free run".into());
    }

    let drops: Vec<obs::DropChannel> = records
        .iter()
        .filter_map(|r| match r.event {
            Event::SilentDrop { channel } => Some(channel),
            _ => None,
        })
        .collect();
    match predicted_drop {
        Some(ch) => {
            if drops.len() != 1 || !channel_matches(ch, drops[0]) {
                return Err(format!(
                    "predicted exactly one silent drop on {ch:?}, log has {drops:?}"
                ));
            }
            tally.drops_matched += 1;
        }
        None => {
            if !drops.is_empty() {
                return Err(format!("no drop predicted, log has {drops:?}"));
            }
        }
    }

    let denied: Vec<&'static str> = records
        .iter()
        .filter_map(|r| match r.event {
            Event::SyscallCommit { denied: Some(reason), .. } => Some(reason),
            _ => None,
        })
        .collect();
    let quota_events =
        records.iter().filter(|r| matches!(r.event, Event::QuotaExceeded { .. })).count();
    match outcome {
        Outcome::Denied(kind) if is_syscall_op(op) => {
            if denied.len() != 1 {
                return Err(format!(
                    "predicted exactly one denied commit ({kind:?}), log has {denied:?}"
                ));
            }
            tally.denials_matched += 1;
            if *kind == DenyKind::Quota {
                if denied[0] != "quota" || quota_events != 1 {
                    return Err(format!(
                        "quota denial must log reason \"quota\" and exactly one \
                         QuotaExceeded event; got reason {:?} and {quota_events} events",
                        denied[0]
                    ));
                }
                tally.quota_matched += 1;
            }
        }
        _ => {
            if !denied.is_empty() {
                return Err(format!("no denial predicted, log has {denied:?}"));
            }
            if quota_events != 0 {
                return Err(format!(
                    "no quota denial predicted, log has {quota_events} QuotaExceeded"
                ));
            }
        }
    }

    if let Op::VmBarrier { .. } = op {
        let vm_verdicts: Vec<Verdict> = records
            .iter()
            .filter_map(|r| match r.event {
                Event::FlowCheck { layer: Layer::Vm, verdict, .. } => Some(verdict),
                _ => None,
            })
            .collect();
        let want = if matches!(outcome, Outcome::Denied(_)) {
            Verdict::Deny
        } else {
            Verdict::Allow
        };
        if vm_verdicts != [want] {
            return Err(format!(
                "VM barrier must log exactly one {want:?} FlowCheck, got {vm_verdicts:?}"
            ));
        }
        tally.vm_checks_matched += 1;
    }

    Ok(tally)
}

/// Replays one trace with tracing enabled, checking conformance *and*
/// per-op audit completeness.
///
/// # Errors
/// A description of the first audit hole (missing event), duplication
/// (extra event), or kernel/oracle divergence.
pub fn run_audit_trace(ops: &[Op]) -> Result<AuditTally, String> {
    let mut oracle = Oracle::new();
    let mut kernel = KernelReplay::new();
    // Enable only after the fixture boots so setup syscalls don't land
    // in the log.
    kernel.kernel().set_audit_enabled(true);

    let mut tally = AuditTally::default();
    for (i, op) in ops.iter().enumerate() {
        let kernel_out = kernel.apply(op, i);
        let oracle_out = oracle.apply(op, i);
        if kernel_out != oracle_out {
            return Err(format!(
                "op {i} ({op:?}) diverged: kernel {kernel_out:?} vs oracle {oracle_out:?}"
            ));
        }
        let records = kernel.kernel().audit().drain();
        match audit_one(op, &oracle_out, oracle.predicted_drop, &records) {
            Ok(t) => tally.absorb(t),
            Err(e) => return Err(format!("op {i} ({op:?}): {e}")),
        }
    }
    Ok(tally)
}

/// Runs audit-completeness over a whole seed matrix (the same
/// `TESTKIT_*`-shaped volume knobs as [`crate::ExploreConfig`]), panicking
/// on the first hole. Returns the aggregate tally so callers can assert
/// the run actually exercised drops, denials and quota rejections.
///
/// # Panics
/// On the first audit hole, duplication, or divergence.
#[must_use]
pub fn assert_audit_completeness(
    seeds: &[u64],
    traces_per_seed: usize,
    ops_per_trace: usize,
) -> AuditTally {
    use laminar_util::SplitMix64;
    let mut tally = AuditTally::default();
    for &seed in seeds {
        let mut derive = SplitMix64::new(seed);
        for t in 0..traces_per_seed {
            let trace_seed = derive.next_u64();
            let ops = crate::trace::generate_trace(trace_seed, ops_per_trace);
            match run_audit_trace(&ops) {
                Ok(part) => tally.absorb(part),
                Err(e) => panic!(
                    "audit completeness failed (seed {seed:#x}, trace {t}, \
                     trace_seed {trace_seed:#x}): {e}"
                ),
            }
        }
    }
    tally
}
