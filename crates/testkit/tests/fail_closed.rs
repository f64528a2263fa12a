//! Direct demonstrations of the fail-closed fault contract, outside the
//! randomized explorer: an injected mid-syscall fault must leave the
//! kernel's security state byte-for-byte unchanged while the kernel
//! keeps serving, and resource exhaustion must degrade gracefully — a
//! typed error, no partial state, full recovery once the resource is
//! freed.

use laminar_difc::{Label, LabelType};
use laminar_os::{
    Kernel, LaminarModule, OpenMode, OsError, Quotas, SyscallFailpoint, TaskHandle,
    UserId,
};
use std::sync::Arc;

fn boot() -> (Arc<Kernel>, TaskHandle) {
    let k = Kernel::boot(LaminarModule);
    k.add_user(UserId(1), "alice");
    let t = k.login(UserId(1)).unwrap();
    (k, t)
}

#[test]
fn late_abort_rolls_back_a_fully_applied_label_change() {
    let (k, alice) = boot();
    let t = alice.alloc_tag().unwrap();
    let labels_before = alice.current_labels().unwrap();
    let caps_before = alice.current_caps().unwrap();
    let rolled_back_before = laminar_os::syscalls_rolled_back();

    // AbortLate panics *after* the syscall body succeeded: the label
    // change has been fully applied and the undo journal must unwind it.
    k.arm_failpoint_for_test(SyscallFailpoint::AbortLate);
    let err = alice.set_task_label(LabelType::Secrecy, Label::singleton(t)).unwrap_err();
    assert!(matches!(err, OsError::Internal), "got {err:?}");
    assert!(k.take_failpoint_fired());
    assert!(laminar_os::syscalls_rolled_back() > rolled_back_before);

    assert_eq!(alice.current_labels().unwrap(), labels_before);
    assert_eq!(alice.current_caps().unwrap(), caps_before);

    // The kernel keeps serving: the identical call now goes through.
    alice.set_task_label(LabelType::Secrecy, Label::singleton(t)).unwrap();
    assert_ne!(alice.current_labels().unwrap(), labels_before);
}

#[test]
fn hook_panic_mid_syscall_leaves_the_vfs_untouched() {
    let (k, alice) = boot();
    let fd = alice.create("/home/alice/ledger").unwrap();
    alice.write(fd, b"balance: 42").unwrap();
    alice.close(fd).unwrap();
    let ledger_before = k.inspect_node_for_test("/home/alice/ledger").unwrap();
    let labels_before = alice.current_labels().unwrap();

    // The panic fires inside an LSM hook during path traversal, halfway
    // through the create.
    k.arm_failpoint_for_test(SyscallFailpoint::PanicAtHook);
    let err = alice.create("/home/alice/scratch").unwrap_err();
    assert!(matches!(err, OsError::Internal), "got {err:?}");
    assert!(k.take_failpoint_fired());

    // Nothing was created and nothing else moved.
    assert!(matches!(
        k.inspect_node_for_test("/home/alice/scratch"),
        Err(OsError::NotFound)
    ));
    assert_eq!(k.inspect_node_for_test("/home/alice/ledger").unwrap(), ledger_before);
    assert_eq!(alice.current_labels().unwrap(), labels_before);

    // The kernel keeps serving.
    let fd = alice.create("/home/alice/scratch").unwrap();
    alice.close(fd).unwrap();
}

#[test]
fn injected_allocation_failure_is_fail_closed() {
    let (k, alice) = boot();
    k.arm_failpoint_for_test(SyscallFailpoint::QuotaNext);
    let err = alice.create("/home/alice/never").unwrap_err();
    assert!(matches!(err, OsError::QuotaExceeded(_)), "got {err:?}");
    assert!(k.take_failpoint_fired());
    assert!(matches!(
        k.inspect_node_for_test("/home/alice/never"),
        Err(OsError::NotFound)
    ));
    // One-shot: the retry allocates normally.
    let fd = alice.create("/home/alice/never").unwrap();
    alice.close(fd).unwrap();
}

#[test]
fn fd_quota_exhaustion_is_typed_and_recoverable() {
    let quotas = Quotas { max_fds_per_process: 4, ..Quotas::default() };
    let k = Kernel::boot_with_quotas(LaminarModule, quotas);
    k.add_user(UserId(1), "alice");
    let alice = k.login(UserId(1)).unwrap();
    let fd = alice.create("/home/alice/f").unwrap();
    alice.close(fd).unwrap();
    let labels_before = alice.current_labels().unwrap();

    let mut held = Vec::new();
    let err = loop {
        match alice.open("/home/alice/f", OpenMode::Read) {
            Ok(fd) => held.push(fd),
            Err(e) => break e,
        }
        assert!(held.len() <= 4, "fd quota was never enforced");
    };
    assert!(matches!(err, OsError::QuotaExceeded("file descriptors")), "got {err:?}");
    // The failed open perturbed nothing.
    assert_eq!(alice.current_labels().unwrap(), labels_before);

    // Graceful degradation: freeing one descriptor unblocks the caller.
    alice.close(held.pop().unwrap()).unwrap();
    let fd = alice.open("/home/alice/f", OpenMode::Read).unwrap();
    alice.close(fd).unwrap();
}

#[test]
fn pipe_overflow_drops_silently_and_drains_to_recover() {
    let quotas = Quotas { pipe_capacity: 8, ..Quotas::default() };
    let k = Kernel::boot_with_quotas(LaminarModule, quotas);
    k.add_user(UserId(1), "alice");
    let alice = k.login(UserId(1)).unwrap();
    let (r, w) = alice.pipe().unwrap();

    assert_eq!(alice.write(w, b"first!").unwrap(), 6);
    assert_eq!(alice.pipe_queued_for_test(r).unwrap(), 6);

    // 6 + 6 > 8: the message is dropped whole, and — exactly as for a
    // label-mediated silent drop — the writer cannot observe it.
    assert_eq!(alice.write(w, b"second").unwrap(), 6);
    assert_eq!(alice.pipe_queued_for_test(r).unwrap(), 6);

    // Draining restores capacity; delivery resumes with no residue of
    // the dropped message.
    assert_eq!(alice.read(r, 64).unwrap(), b"first!");
    assert_eq!(alice.write(w, b"third!").unwrap(), 6);
    assert_eq!(alice.read(r, 64).unwrap(), b"third!");
}

/// Arms a late abort, runs `op`, and checks it failed closed.
fn abort_late<T: std::fmt::Debug>(
    k: &Arc<Kernel>,
    op: impl FnOnce() -> Result<T, OsError>,
) {
    k.arm_failpoint_for_test(SyscallFailpoint::AbortLate);
    let err = op().unwrap_err();
    assert!(matches!(err, OsError::Internal), "got {err:?}");
    assert!(k.take_failpoint_fired());
}

// The cases below cover rollback paths the trace generator never emits.

#[test]
fn late_abort_of_a_partial_socket_read_restores_the_drained_prefix() {
    let (k, alice) = boot();
    let (a, b) = alice.socketpair().unwrap();
    alice.write(a, b"abcdefghij").unwrap();
    alice.write(a, b"klm").unwrap();
    assert_eq!(alice.read(b, 3).unwrap(), b"abc");
    // Takes all of "defghij" and the "k" of the next message.
    abort_late(&k, || alice.read(b, 8));
    assert_eq!(alice.read(b, 64).unwrap(), b"defghijklm");
    // The reverse direction was never touched.
    assert_eq!(alice.read(a, 64).unwrap(), b"");
}

#[test]
fn late_abort_of_a_pipe_end_close_keeps_the_end_open() {
    let (k, alice) = boot();
    let (r, w) = alice.pipe().unwrap();
    abort_late(&k, || alice.close(w));
    assert_eq!(k.pipe_fds_for_test(&alice, r).unwrap(), 2);
    alice.write(w, b"still open").unwrap();
    assert_eq!(alice.read(r, 64).unwrap(), b"still open");
    alice.close(w).unwrap();
    assert_eq!(k.pipe_fds_for_test(&alice, r).unwrap(), 1);
}

#[test]
fn late_abort_of_fork_and_of_the_last_exit_restores_pipe_references() {
    let (k, alice) = boot();
    let (r, _w) = alice.pipe().unwrap();
    abort_late(&k, || alice.fork(None));
    assert_eq!(k.pipe_fds_for_test(&alice, r).unwrap(), 2);

    let child = alice.fork(None).unwrap();
    assert_eq!(k.pipe_fds_for_test(&alice, r).unwrap(), 4);
    // The child's only task exits: the process and its pipe fds go.
    abort_late(&k, || child.exit());
    assert_eq!(k.pipe_fds_for_test(&alice, r).unwrap(), 4);
    assert!(child.current_labels().is_ok(), "the aborted exit left the child alive");
    assert_eq!(k.pipe_fds_for_test(&child, r).unwrap(), 4);
    child.exit().unwrap();
    assert_eq!(k.pipe_fds_for_test(&alice, r).unwrap(), 2);
}

#[test]
fn late_abort_of_spawn_thread_leaves_no_phantom_thread() {
    let (k, alice) = boot();
    let (r, _w) = alice.pipe().unwrap();
    let child = alice.fork(None).unwrap();
    abort_late(&k, || child.spawn_thread(None));
    // Had the aborted thread stayed in the child's thread list, this
    // exit would not be the last one and the child's pipe fds would stay.
    child.exit().unwrap();
    assert_eq!(k.pipe_fds_for_test(&alice, r).unwrap(), 2);
}

/// A kernel with room for exactly one inode beyond the boot tree and
/// alice's home, and alice logged in.
fn boot_with_one_spare_inode() -> (Arc<Kernel>, TaskHandle) {
    let k = Kernel::boot_with_quotas(
        LaminarModule,
        Quotas { max_inodes: 8, ..Quotas::default() },
    );
    k.add_user(UserId(1), "alice");
    let alice = k.login(UserId(1)).unwrap();
    let (r, w) = alice.pipe().unwrap();
    let err = alice.pipe().unwrap_err();
    assert!(matches!(err, OsError::QuotaExceeded("inodes")), "got {err:?}");
    alice.close(r).unwrap();
    alice.close(w).unwrap();
    (k, alice)
}

#[test]
fn closing_every_fd_of_a_pipe_or_socket_frees_its_inode() {
    let (_k, alice) = boot_with_one_spare_inode();
    for _ in 0..100 {
        let (r, w) = alice.pipe().unwrap();
        alice.write(w, b"left unread").unwrap();
        alice.close(r).unwrap();
        alice.close(w).unwrap();
    }
    for _ in 0..100 {
        let (a, b) = alice.socketpair().unwrap();
        alice.close(a).unwrap();
        alice.close(b).unwrap();
    }
    // A forked child's socket fds count too: the inode outlives the
    // parent's closes and goes with the child's last exit.
    let (a, b) = alice.socketpair().unwrap();
    let child = alice.fork(None).unwrap();
    alice.close(a).unwrap();
    alice.close(b).unwrap();
    assert!(matches!(alice.pipe(), Err(OsError::QuotaExceeded("inodes"))));
    child.write(a, b"ping").unwrap();
    assert_eq!(child.read(b, 16).unwrap(), b"ping");
    child.exit().unwrap();
    let fd = alice.create("/home/alice/after").unwrap();
    alice.close(fd).unwrap();
}

#[test]
fn late_abort_of_the_last_close_keeps_the_pipe_inode() {
    let (k, alice) = boot_with_one_spare_inode();
    let (r, w) = alice.pipe().unwrap();
    alice.write(w, b"queued").unwrap();
    alice.close(w).unwrap();
    abort_late(&k, || alice.close(r));
    assert_eq!(k.pipe_fds_for_test(&alice, r).unwrap(), 1);
    assert_eq!(alice.pipe_queued_for_test(r).unwrap(), 6);
    assert!(matches!(alice.pipe(), Err(OsError::QuotaExceeded("inodes"))));
    alice.close(r).unwrap();
    let (r, w) = alice.pipe().unwrap();
    assert_eq!(alice.pipe_queued_for_test(r).unwrap(), 0);
    alice.close(r).unwrap();
    alice.close(w).unwrap();
}

#[test]
fn late_abort_of_the_last_exit_keeps_the_pipe_inode() {
    let (k, alice) = boot_with_one_spare_inode();
    let (r, w) = alice.pipe().unwrap();
    alice.write(w, b"queued").unwrap();
    let child = alice.fork(None).unwrap();
    alice.close(r).unwrap();
    alice.close(w).unwrap();
    abort_late(&k, || child.exit());
    assert_eq!(k.pipe_fds_for_test(&child, r).unwrap(), 2);
    assert_eq!(child.pipe_queued_for_test(r).unwrap(), 6);
    assert!(matches!(alice.pipe(), Err(OsError::QuotaExceeded("inodes"))));
    child.exit().unwrap();
    let (r, w) = alice.pipe().unwrap();
    alice.close(r).unwrap();
    alice.close(w).unwrap();
}

#[test]
fn late_abort_of_symlink_and_chdir_changes_nothing() {
    let (k, alice) = boot();
    let home = alice.stat(".").unwrap().inode;
    abort_late(&k, || alice.symlink("/tmp", "/home/alice/link"));
    assert!(matches!(alice.lstat("/home/alice/link"), Err(OsError::NotFound)));
    assert!(alice.readdir("/home/alice").unwrap().is_empty());
    abort_late(&k, || alice.chdir("/tmp"));
    assert_eq!(alice.stat(".").unwrap().inode, home);
    alice.symlink("/tmp", "/home/alice/link").unwrap();
    alice.chdir("link").unwrap();
    assert_eq!(alice.stat(".").unwrap().inode, alice.stat("/tmp").unwrap().inode);
}

/// The oracle diff compares fd numbers, so an aborted `open` must not
/// use one up.
#[test]
fn late_abort_of_open_leaves_the_next_fd_number_unchanged() {
    let (k, alice) = boot();
    let first = alice.open("/dev/null", OpenMode::Read).unwrap();
    abort_late(&k, || alice.open("/dev/null", OpenMode::Read));
    let next = alice.open("/dev/null", OpenMode::Read).unwrap();
    assert_eq!(next.0, first.0 + 1);
}

/// `Laminar::adopt` blesses a VM process in one transaction. A late
/// abort of it must leave the application task without `tcb+` and
/// `tcb-`: with them it could take the `tcb` integrity tag and reach
/// the `*_tcb` syscalls, dropping labels with no `-` capability.
#[test]
fn late_abort_of_adopt_leaves_no_tcb_capability() {
    let sys = laminar::Laminar::boot();
    let k = sys.kernel();
    k.add_user(UserId(1), "alice");
    let alice = k.login(UserId(1)).unwrap();
    let tcb = k.tcb_tag();
    k.arm_failpoint_for_test(SyscallFailpoint::AbortLate);
    let err = sys.adopt(alice.clone()).unwrap_err();
    assert!(matches!(err, laminar::LaminarError::Os(OsError::Internal)), "got {err:?}");
    assert!(k.take_failpoint_fired());

    let caps = alice.current_caps().unwrap();
    assert!(!caps.can_add(tcb) && !caps.can_remove(tcb), "{caps:?}");
    let grab = alice.set_task_label(LabelType::Integrity, Label::singleton(tcb));
    assert!(grab.is_err(), "the application task took the tcb tag");

    // The kernel keeps serving: the same adopt now goes through, and the
    // application task still holds no tcb capability.
    let p = sys.adopt(alice.clone()).unwrap();
    assert!(
        !p.current_caps().can_add(tcb) && !alice.current_caps().unwrap().can_add(tcb)
    );
    assert!(alice.drop_label_tcb(alice.id()).is_err());
}

/// A region's exit drops its labels from the kernel task through the
/// trusted thread. If that syscall aborts, the principal must still
/// leave the region with its outer (empty) labels and capabilities, and
/// the kernel task may keep only the region's labels, which restrict it:
/// it still cannot write an unlabeled file.
#[test]
fn late_abort_of_a_region_exit_restores_the_runtime_context() {
    let sys = laminar::Laminar::boot();
    let k = Arc::clone(sys.kernel());
    sys.add_user(UserId(1), "alice");
    let p = sys.login(UserId(1)).unwrap();
    let fd = p.task().create("/tmp/public").unwrap();
    p.task().close(fd).unwrap();
    let t = p.create_tag().unwrap();
    let caps_before = p.current_caps();
    let params = laminar::RegionParams::new()
        .secrecy(Label::singleton(t))
        .grant(laminar_difc::Capability::plus(t))
        .grant(laminar_difc::Capability::minus(t));

    let out = p.secure(
        &params,
        |g| {
            g.os()?.stat("/tmp")?;
            k.arm_failpoint_for_test(SyscallFailpoint::AbortLate);
            Ok(())
        },
        |_| {},
    );
    assert!(
        matches!(out, Err(laminar::LaminarError::Os(OsError::Internal))),
        "got {out:?}"
    );
    assert!(k.take_failpoint_fired());

    assert!(!p.in_region());
    assert!(p.current_labels().is_unlabeled(), "{:?}", p.current_labels());
    assert_eq!(p.current_caps(), caps_before);
    let write = p
        .task()
        .open("/tmp/public", OpenMode::Write)
        .and_then(|fd| p.task().write(fd, b"leak"));
    assert!(
        matches!(write, Err(OsError::FlowDenied(_))),
        "the task lost the region's labels: {write:?}"
    );
}
