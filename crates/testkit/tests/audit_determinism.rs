//! Audit determinism: the trusted log records decisions made at
//! enforcement points, so what one op sequence logs depends on that
//! sequence alone — not on checks some earlier, unrelated work in the
//! same process happened to make.
//!
//! The test replays one committed trace twice, each time on a freshly
//! booted fixture kernel. Both kernels mint the same tags in the same
//! order, so their tasks end up with the same labels and every check of
//! the second replay repeats one of the first. The two logs must agree
//! event by event on kind, layer, op, verdict and the label names
//! (pair fingerprints) a record carries; sequence numbers, tickets and
//! task ids are per-run and ignored.
//!
//! The log belongs to the kernel, not the process: two kernels driven
//! at the same time from two threads keep two logs, each holding its
//! own decisions and nothing of the other's, and a MiniVM logs into the
//! kernel its bridge is bound to and nowhere else.

use laminar::Laminar;
use laminar_obs::{Event, Record};
use laminar_os::UserId;
use laminar_testkit::{KernelReplay, Op};
use laminar_vm::{BarrierMode, NoOs, ProgramBuilder, Vm};
use std::sync::Barrier;

/// Tasks 0 (all capabilities of both fixture tags), 1 (`t0+` only) and
/// 2 (none) exercise label changes, silent drops on a pipe and a
/// signal, denied file accesses and VM barrier verdicts both ways, with
/// labels that differ from each other.
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
        Event::FlowCheck { layer, op, subject, object, verdict } => {
            format!("flow_check {layer:?} {op} {subject:#x}->{object:#x} {verdict:?}")
        }
        Event::SilentDrop { channel } => format!("silent_drop {channel:?}"),
        Event::LabelChange { ty, before, after, declassify, .. } => {
            format!("label_change {ty} {before:#x}->{after:#x} declassify={declassify}")
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

fn shapes(records: &[Record]) -> Vec<String> {
    records.iter().map(|r| shape(&r.event)).collect()
}

/// Boots a fresh fixture kernel with its audit log on.
fn traced_fixture() -> KernelReplay {
    let replay = KernelReplay::new();
    replay.kernel().set_audit_enabled(true);
    replay
}

fn replay(replay: &mut KernelReplay, trace: &[Op]) {
    for (i, op) in trace.iter().enumerate() {
        let _ = replay.apply(op, i);
    }
}

/// Replays `trace` on a fresh traced fixture and returns the shapes of
/// what the replay logged.
fn replay_logged(trace: &[Op]) -> Vec<String> {
    let mut kernel = traced_fixture();
    replay(&mut kernel, trace);
    shapes(&kernel.kernel().audit().drain())
}

/// A MiniVM whose function `run` enters one security region with empty
/// labels and no capabilities; the region makes no syscall.
fn region_vm() -> Vm {
    let mut pb = ProgramBuilder::new();
    let quiet = pb.region("quiet", 0, 0, |b| {
        b.push_int(1).pop().ret();
    });
    let pair = pb.add_pair_spec(&[], &[]);
    let spec = pb.add_region_spec(pair, &[], None);
    pb.func("run", 0, false, 0, |b| {
        b.call_secure(quiet, spec).ret();
    });
    Vm::new(pb.finish().expect("program"), Vec::new(), BarrierMode::Dynamic)
}

#[test]
fn the_same_ops_on_a_fresh_kernel_log_the_same_decisions() {
    let first = replay_logged(TRACE);
    let second = replay_logged(TRACE);
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

#[test]
fn two_kernels_in_one_process_keep_disjoint_logs() {
    // Kernel A replays the whole trace and kernel B its first six ops,
    // each on its own thread, started together.
    let (mut a, mut b) = (traced_fixture(), traced_fixture());
    let start = Barrier::new(2);
    let run = |kernel: &mut KernelReplay, trace: &[Op]| {
        start.wait();
        replay(kernel, trace);
    };
    std::thread::scope(|s| {
        s.spawn(|| run(&mut a, TRACE));
        s.spawn(|| run(&mut b, &TRACE[..6]));
    });

    // A VM bridged to a principal of a third kernel, C, logs its region
    // entry in C. C's log goes on after the login, so the entry is all
    // it holds. A VM with no kernel logs nowhere.
    let system = Laminar::boot();
    system.add_user(UserId(1), "vm");
    let principal = system.login(UserId(1)).expect("login");
    system.kernel().set_audit_enabled(true);
    let mut bridged = region_vm();
    bridged.set_bridge(Box::new(system.vm_bridge(&principal).expect("bridge")));
    bridged.call_by_name("run", &[]).expect("bridged region");
    assert_eq!(shapes(&system.kernel().audit().drain()), ["region_enter Vm Allow"]);
    let mut bare = region_vm();
    bare.set_bridge(Box::new(NoOs));
    bare.call_by_name("run", &[]).expect("unbridged region");

    let (log_a, log_b) = (a.kernel().audit().drain(), b.kernel().audit().drain());
    for (name, log) in [("A", &log_a), ("B", &log_b)] {
        // Each kernel numbers its own tickets from 1: a record of the
        // other kernel would repeat a ticket.
        let tickets: Vec<u64> = log
            .iter()
            .filter_map(|r| match r.event {
                Event::SyscallCommit { ticket, .. } => Some(ticket),
                _ => None,
            })
            .collect();
        assert!(!tickets.is_empty(), "kernel {name} logged no commit");
        assert_eq!(
            tickets,
            (1..=tickets.len() as u64).collect::<Vec<_>>(),
            "kernel {name}'s log holds tickets it did not take"
        );
    }
    // Each log holds exactly what its own ops log on a kernel of their
    // own: neither holds the bridged VM's region entry.
    assert_eq!(shapes(&log_a), replay_logged(TRACE));
    assert_eq!(shapes(&log_b), replay_logged(&TRACE[..6]));
    for (name, log) in [("A", &log_a), ("B", &log_b)] {
        assert!(
            log.iter().all(|r| !matches!(r.event, Event::RegionEnter { .. })),
            "kernel {name} logged a region entry of a VM not bridged to it"
        );
    }
}
