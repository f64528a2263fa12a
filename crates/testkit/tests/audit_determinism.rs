//! Audit determinism: the trusted log records decisions made at
//! enforcement points, so what one op sequence logs depends on that
//! sequence alone — not on checks some earlier, unrelated work in the
//! same process happened to make.
//!
//! The test replays one committed trace twice, each time on a freshly
//! booted fixture kernel. Both kernels mint the same tags in the same
//! order, so their tasks end up with the same interned labels and every
//! check of the second replay repeats one of the first. The two logs
//! must agree event by event on kind, layer, op and verdict (sequence
//! numbers, tickets, latencies and task ids are per-run and ignored).

use laminar_obs::{self as obs, Event};
use laminar_testkit::{KernelReplay, Op};

/// Tasks 0 (all capabilities of both fixture tags), 1 (`t0+` only) and
/// 2 (none) exercise label changes, silent drops on a pipe and a
/// signal, denied file accesses and VM barrier verdicts both ways, with
/// labels that are not id-equal to each other.
const TRACE: &[Op] = &[
    Op::CreateFile { task: 0, dir: 1, slot: 0, s_mask: 0b01, i_mask: 0 },
    Op::SetLabel { task: 0, secrecy: true, mask: 0b01 },
    Op::WriteFile { task: 0, dir: 1, slot: 0, len: 8 },
    Op::PipeWrite { task: 0, pipe: 0, len: 4 },
    Op::PipeWrite { task: 0, pipe: 1, len: 4 },
    Op::Kill { task: 0, target: 2, sig: 1 },
    Op::ReadFile { task: 2, dir: 1, slot: 0 },
    Op::SetLabel { task: 1, secrecy: true, mask: 0b01 },
    Op::ReadFile { task: 1, dir: 1, slot: 0 },
    Op::PipeRead { task: 1, pipe: 1, max: 8 },
    Op::VmBarrier { task: 2, write: false, s_mask: 0b01, i_mask: 0 },
    Op::VmBarrier { task: 1, write: true, s_mask: 0b11, i_mask: 0 },
    Op::VmBarrier { task: 1, write: false, s_mask: 0, i_mask: 0b10 },
    Op::SetLabel { task: 0, secrecy: false, mask: 0b10 },
    Op::SetLabel { task: 0, secrecy: true, mask: 0 },
    Op::CreateFile { task: 2, dir: 2, slot: 1, s_mask: 0, i_mask: 0b10 },
];

/// The run-independent part of one event.
fn shape(e: &Event) -> String {
    match *e {
        Event::FlowCheck { layer, op, verdict, .. } => {
            format!("flow_check {layer:?} {op} {verdict:?}")
        }
        Event::SilentDrop { channel } => format!("silent_drop {channel:?}"),
        Event::LabelChange { ty, declassify, .. } => {
            format!("label_change {ty} declassify={declassify}")
        }
        Event::RegionEnter { layer, verdict } => {
            format!("region_enter {layer:?} {verdict:?}")
        }
        Event::RegionAbort { layer } => format!("region_abort {layer:?}"),
        Event::SyscallEnter { name } => format!("syscall_enter {name}"),
        Event::SyscallCommit { name, denied, .. } => {
            format!("syscall_commit {name} denied={denied:?}")
        }
        Event::SyscallRollback { name, .. } => format!("syscall_rollback {name}"),
        Event::QuotaExceeded { resource } => format!("quota_exceeded {resource}"),
    }
}

/// Disables tracing again even if an assertion fails mid-replay.
struct TracingOn;

impl TracingOn {
    fn new() -> Self {
        obs::set_enabled(true);
        TracingOn
    }
}

impl Drop for TracingOn {
    fn drop(&mut self) {
        obs::set_enabled(false);
    }
}

/// Boots a fresh fixture, replays [`TRACE`] with tracing on and returns
/// the shapes of what the replay logged.
fn replay_logged() -> Vec<String> {
    let mut kernel = KernelReplay::new();
    let _on = TracingOn::new();
    let _ = obs::take_local();
    for (i, op) in TRACE.iter().enumerate() {
        let _ = kernel.apply(op, i);
    }
    obs::take_local().iter().map(|r| shape(&r.event)).collect()
}

#[test]
fn the_same_ops_on_a_fresh_kernel_log_the_same_decisions() {
    let first = replay_logged();
    let second = replay_logged();
    // The trace must reach each kind of enforcement decision, or the
    // comparison below would hold vacuously.
    for kind in ["silent_drop", "label_change", "syscall_commit", "flow_check Vm"] {
        assert!(
            first.iter().any(|s| s.starts_with(kind)),
            "the trace logged no {kind} event: {first:#?}"
        );
    }
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a, b, "event {i} differs between the two replays");
    }
    assert_eq!(
        first.len(),
        second.len(),
        "the replays logged {} and {} events:\nfirst: {first:#?}\nsecond: {second:#?}",
        first.len(),
        second.len()
    );
}
