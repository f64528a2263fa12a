//! Cost regime: a syscall's undo journal must not grow with state that
//! other principals own. Each syscall below runs once against a small
//! kernel and once against one where a directory holds 16 k entries, a
//! pipe 4,096 queued messages, a process 4,000 open fds and a task 16 k
//! pending signals (sent by another task). The undo bytes each syscall
//! records ([`Kernel::last_undo_bytes_for_test`]) must be identical at
//! both sizes. At full size every one of these syscalls is also aborted
//! after its body succeeds ([`SyscallFailpoint::AbortLate`]), and the
//! state it touched must come back exactly.

use laminar_os::{
    Fd, Kernel, LaminarModule, OpenMode, OsError, Signal, SyscallFailpoint, TaskHandle,
    UserId,
};
use std::sync::Arc;

const DIR_ENTRIES: usize = 16 * 1024;
const PIPE_MSGS: usize = 4096;
const MSG: &[u8; 16] = b"sixteen-byte-msg";
const OPEN_FDS: usize = 4000;
const SIGNALS: usize = 16 * 1024;

/// One kernel with `alice` (owner of the directory, pipe and fds, and
/// the signal target) and `bob` (the signal sender).
struct World {
    kernel: Arc<Kernel>,
    alice: TaskHandle,
    bob: TaskHandle,
    r: Fd,
    w: Fd,
    full: bool,
}

fn world(full: bool) -> World {
    let kernel = Kernel::boot(LaminarModule);
    kernel.add_user(UserId(1), "alice");
    kernel.add_user(UserId(2), "bob");
    let alice = kernel.login(UserId(1)).unwrap();
    let bob = kernel.login(UserId(2)).unwrap();
    let (r, w) = alice.pipe().unwrap();
    if full {
        for i in 0..DIR_ENTRIES {
            let fd = alice.create(&format!("/tmp/f{i:05}")).unwrap();
            alice.close(fd).unwrap();
        }
        for _ in 0..PIPE_MSGS {
            alice.write(w, MSG).unwrap();
        }
        for _ in 0..OPEN_FDS {
            alice.open("/dev/null", OpenMode::Read).unwrap();
        }
        for i in 0..SIGNALS {
            bob.kill(alice.id(), Signal(i as i32)).unwrap();
        }
        assert_eq!(kernel.pipe_msgs_for_test(&alice, r).unwrap(), PIPE_MSGS);
    }
    World { kernel, alice, bob, r, w, full }
}

impl World {
    fn bytes(&self) -> u64 {
        self.kernel.last_undo_bytes_for_test()
    }

    /// Runs each listed syscall once, returning the undo bytes each
    /// recorded. A full pipe is read before it is written, so that the
    /// write is not dropped at the message limit.
    fn undo_costs(&self) -> Vec<(&'static str, u64)> {
        let a = &self.alice;
        let mut costs = Vec::new();
        let fd = a.create("/tmp/probe").unwrap();
        costs.push(("create", self.bytes()));
        a.close(fd).unwrap();
        costs.push(("close", self.bytes()));
        a.unlink("/tmp/probe").unwrap();
        costs.push(("unlink", self.bytes()));
        let fd = a.open("/dev/null", OpenMode::Read).unwrap();
        costs.push(("open", self.bytes()));
        a.close(fd).unwrap();
        let write = |costs: &mut Vec<_>| {
            assert_eq!(a.write(self.w, MSG).unwrap(), MSG.len());
            costs.push(("pipe write", self.bytes()));
        };
        let read = |costs: &mut Vec<_>| {
            assert_eq!(a.read(self.r, MSG.len()).unwrap(), MSG);
            costs.push(("pipe read", self.bytes()));
        };
        if self.full {
            read(&mut costs);
            write(&mut costs);
        } else {
            write(&mut costs);
            read(&mut costs);
        }
        self.bob.kill(a.id(), Signal(-1)).unwrap();
        costs.push(("kill", self.bytes()));
        assert!(a.next_signal().unwrap().is_some());
        costs.push(("next_signal", self.bytes()));
        a.chdir("/tmp").unwrap();
        costs.push(("chdir", self.bytes()));
        a.chdir("/home/alice").unwrap();
        costs.sort();
        costs
    }

    /// The state the aborted syscalls touch, as the subject can see it.
    fn snapshot(&self) -> (Vec<String>, usize, usize, u64) {
        let a = &self.alice;
        (
            a.readdir("/tmp").unwrap(),
            a.pipe_queued_for_test(self.r).unwrap(),
            self.kernel.pipe_msgs_for_test(a, self.r).unwrap(),
            a.stat(".").unwrap().inode.0,
        )
    }

    /// The next fd number: opens and closes one fd, which uses it up.
    fn next_fd(&self) -> u32 {
        let fd = self.alice.open("/dev/null", OpenMode::Read).unwrap();
        self.alice.close(fd).unwrap();
        fd.0
    }

    /// Aborts `op` after its body succeeded and checks that the state
    /// and the fd numbering are exactly as before.
    fn abort<T: std::fmt::Debug>(
        &self,
        name: &str,
        op: impl FnOnce() -> Result<T, OsError>,
    ) {
        let before = self.snapshot();
        let fd = self.next_fd();
        self.kernel.arm_failpoint_for_test(SyscallFailpoint::AbortLate);
        let err = op().unwrap_err();
        assert!(matches!(err, OsError::Internal), "{name}: got {err:?}");
        assert!(self.kernel.take_failpoint_fired(), "{name}: failpoint did not fire");
        assert!(self.snapshot() == before, "{name}: aborted call changed the state");
        assert_eq!(self.next_fd(), fd + 1, "{name}: aborted call moved the fd counter");
    }
}

#[test]
fn undo_bytes_per_syscall_do_not_grow_with_other_state() {
    let empty = world(false).undo_costs();
    let full = world(true).undo_costs();
    assert_eq!(empty.len(), 9);
    for ((name, small), (same, large)) in empty.iter().zip(&full) {
        assert_eq!(name, same);
        assert!(*small > 0, "{name} recorded no undo at all");
        assert_eq!(small, large, "{name}: undo bytes grew with state size");
    }
}

#[test]
fn late_aborts_at_full_size_restore_the_state_exactly() {
    let w = world(true);
    let a = &w.alice;
    w.abort("create", || a.create("/tmp/probe"));
    let fd = a.create("/tmp/probe").unwrap();
    a.close(fd).unwrap();
    w.abort("unlink", || a.unlink("/tmp/probe"));
    w.abort("open", || a.open("/tmp/probe", OpenMode::Read));
    let fd = a.open("/tmp/probe", OpenMode::Read).unwrap();
    w.abort("close", || a.close(fd));
    a.close(fd).unwrap();
    w.abort("pipe read", || a.read(w.r, MSG.len()));
    assert_eq!(a.read(w.r, MSG.len()).unwrap(), MSG);
    w.abort("pipe write", || a.write(w.w, MSG));
    w.abort("kill", || w.bob.kill(a.id(), Signal(-1)));
    w.abort("next_signal", || a.next_signal());
    w.abort("chdir", || a.chdir("/tmp"));

    // The signal queue: the aborted dequeue put signal 0 back at the
    // head, and the aborted kill added nothing at the tail.
    for i in 0..SIGNALS {
        assert_eq!(a.next_signal().unwrap(), Some(Signal(i as i32)));
    }
    assert_eq!(a.next_signal().unwrap(), None);
}
