//! Audit-completeness conformance: over the full CI seed matrix
//! (default 8 seeds × 500 traces × 28 ops = 4000 traces), every
//! oracle-predicted enforcement decision — silent drop, typed denial,
//! quota rejection, VM-barrier verdict — must appear in the trusted
//! audit log exactly once, and nothing unpredicted may appear. Each
//! trace runs on its own kernel with its own log, so the tests in this
//! file run in parallel.

use laminar_difc::{Label, LabelType, SecPair};
use laminar_obs::Event;
use laminar_os::{Kernel, LaminarModule, OsError, UserId};
use laminar_testkit::{assert_audit_completeness, run_audit_trace, ExploreConfig, Op};

#[test]
fn audit_log_is_complete_over_the_seed_matrix() {
    let cfg = ExploreConfig::from_env(laminar_testkit::FaultPlan::none());
    let tally =
        assert_audit_completeness(&cfg.seeds, cfg.traces_per_seed, cfg.ops_per_trace);
    let traces = cfg.seeds.len() * cfg.traces_per_seed;
    eprintln!(
        "audit completeness: {traces} traces, {} ops, {} drops, {} denials \
         ({} quota), {} VM checks — all matched exactly once",
        tally.ops,
        tally.drops_matched,
        tally.denials_matched,
        tally.quota_matched,
        tally.vm_checks_matched
    );
    // The run must actually exercise each audited decision class, or
    // "complete" would be vacuous. At default volume each of these
    // fires thousands of times; the floors hold for any ≥ 100-trace
    // run. Quota denials are rarer in random traces (they need a
    // successful create + a straddling sparse write on the same slot),
    // so their anti-vacuity floor lives in the deterministic test
    // below rather than here, where a fresh nightly seed base could
    // legitimately produce zero.
    assert!(tally.drops_matched > 0, "no silent drops exercised");
    assert!(tally.denials_matched > 0, "no denials exercised");
    assert!(tally.vm_checks_matched > 0, "no VM barrier checks exercised");
}

#[test]
fn quota_denial_is_audited_exactly_once_across_fd_and_oneshot_paths() {
    // A file created in /tmp, then a sparse write straddling the quota:
    // offset 4999 + 4 bytes > 4096 ⇒ Denied(Quota) with exactly one
    // QuotaExceeded event and one denied commit — the regression shape
    // for the unvalidated-resize bug.
    let ops = [
        Op::CreateFile { task: 0, dir: 1, slot: 0, s_mask: 0, i_mask: 0 },
        Op::WriteFileAt { task: 0, dir: 1, slot: 0, offset: 4999, len: 4 },
        // And an in-quota sparse write right at the boundary: 4092 + 4
        // = 4096 is admitted (the quota is inclusive).
        Op::WriteFileAt { task: 0, dir: 1, slot: 0, offset: 4092, len: 4 },
    ];
    let tally = run_audit_trace(&ops).expect("audit-complete");
    assert_eq!(tally.quota_matched, 1);
    assert_eq!(tally.denials_matched, 1);
}

#[test]
fn flow_vetoed_zero_byte_pipe_write_is_still_an_audited_drop() {
    // Task 2 (no capabilities) writes zero bytes to the S{0}-labeled
    // pipe 1... allowed (unlabeled → labeled flows). Use the reverse:
    // taint task 0 with S{0}, then write to the unlabeled pipe 0 — the
    // verdict precedes the emptiness check, so even a zero-byte message
    // is a (whole-message) silent drop, and must be audited as one.
    let ops = [
        Op::SetLabel { task: 0, secrecy: true, mask: 0b01 },
        Op::PipeWrite { task: 0, pipe: 0, len: 0 },
        // A deliverable zero-byte write is a pure no-op: no drop event.
        Op::PipeWrite { task: 2, pipe: 0, len: 0 },
    ];
    let tally = run_audit_trace(&ops).expect("audit-complete");
    assert_eq!(tally.drops_matched, 1);
}

#[test]
fn with_the_commit_log_off_only_recorded_outcomes_take_tickets() {
    const ROUNDS: usize = 50;
    let kernel = Kernel::boot(LaminarModule);
    kernel.add_user(UserId(1), "alice");
    // Setup runs untraced and denial-free, so it takes no ticket: each
    // worker gets a tag, a file secret under it, and an unlabeled pipe.
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let h = kernel.login(UserId(1)).expect("login");
            let tag = h.alloc_tag().expect("tag");
            let secret = format!("/tmp/w{i}");
            let pair = SecPair::secrecy_only(Label::singleton(tag));
            h.close(h.create_file_labeled(&secret, pair).expect("create"))
                .expect("close");
            let (_, pw) = h.pipe().expect("pipe");
            (h, tag, secret, pw)
        })
        .collect();
    let handles = workers.iter().map(|(h, ..)| vec![h.clone()]).collect();
    kernel.set_audit_enabled(true);
    // Each worker notes the tickets its own syscalls took, so the
    // kernel's one log can be split back into per-thread views.
    let taken = kernel.run_parallel(handles, |i, set| {
        let (h, (_, tag, secret, pw)) = (&set[0], &workers[i]);
        let mut taken = Vec::new();
        let mut note = || taken.push(laminar_os::last_syscall_seq());
        for _ in 0..ROUNDS {
            // Decision-free successes: recorded nowhere, so no ticket.
            h.stat("/tmp").expect("stat");
            // A typed denial, a label change, a silent pipe drop and the
            // label change back: each recorded with a ticket.
            assert!(matches!(h.read_file_at(secret, 8), Err(OsError::FlowDenied(_))));
            note();
            h.set_task_label(LabelType::Secrecy, Label::singleton(*tag)).expect("taint");
            note();
            h.write(*pw, b"x").expect("a dropped write still succeeds");
            note();
            h.read_file_at(secret, 8).expect("tainted read");
            h.set_task_label(LabelType::Secrecy, Label::empty()).expect("untaint");
            note();
        }
        taken
    });
    kernel.set_audit_enabled(false);
    let commits: Vec<u64> = kernel
        .audit()
        .drain()
        .iter()
        .filter_map(|r| match r.event {
            Event::SyscallCommit { ticket, .. } => Some(ticket),
            _ => None,
        })
        .collect();

    let mut all = Vec::new();
    for mine in &taken {
        let tickets: Vec<u64> =
            commits.iter().copied().filter(|t| mine.contains(t)).collect();
        assert_eq!(tickets.len(), 4 * ROUNDS, "four recorded outcomes per round");
        assert!(tickets.windows(2).all(|w| w[0] < w[1]), "tickets rise within a thread");
        all.extend(tickets);
    }
    // The log holds nothing else: a commit record for an unnoted
    // syscall (a decision-free success, say) is a failure, not noise.
    assert_eq!(commits.len(), all.len(), "a commit was recorded for an unnoted syscall");
    // Distinct across threads, and no ticket went to an unrecorded
    // success: the tickets taken are exactly 1..=N.
    let n = all.len() as u64;
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len() as u64, n, "tickets must be distinct across threads");
    assert_eq!(all.last(), Some(&n), "a ticket went to a success nothing recorded");
}
