//! Shard-targeted lock poisoning (PR 4, satellite of the shard split).
//!
//! The big kernel lock had a single poison test: crash under the lock,
//! assert the next syscall recovers. With the sharded tables the
//! property is sharper — poisoning one shard must leave every *other*
//! shard serviceable without so much as a recovery event, while the
//! poisoned shard itself recovers on first touch with verdicts
//! unchanged.
//!
//! The observable is `laminar_util::sync::poison_recoveries()`, a
//! process-global, monotone counter bumped once per recovered lock
//! acquisition. The assertions compare before/after values, and
//! because any poisoning in the process moves the counter, everything
//! that poisons a lock holds [`SERIAL`] for its whole body (the test
//! binary may run tests on parallel threads).

use std::sync::{Mutex, MutexGuard};

use laminar_difc::{Label, LabelType, SecPair};
use laminar_os::{Kernel, LaminarModule, OpenMode, ShardKey, TaskHandle, UserId};
use laminar_util::sync::poison_recoveries;
use std::sync::Arc;

/// Serialises the tests of this file, so one test's poisoning cannot
/// move the counter inside another's before/after window.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`], shrugging off poison left by a failed test.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Poison the task shard of one task and the inode shard of one file,
/// drive traffic that provably avoids those shards (no recovery
/// events), then touch them (recovery events, same verdicts as before
/// the poisoning).
#[test]
fn poisoning_one_shard_leaves_the_others_serviceable() {
    let _serial = serial();
    let kernel = Kernel::boot(LaminarModule);
    kernel.add_user(UserId(1), "alice");
    kernel.add_user(UserId(2), "bob");
    // TaskIds are sequential, so alice and bob land in *different* task
    // shards (tid % TASK_SHARDS), as do their processes.
    let alice = kernel.login(UserId(1)).expect("login alice");
    let bob = kernel.login(UserId(2)).expect("login bob");
    assert_ne!(
        alice.id().0 % laminar_os::TASK_SHARDS as u64,
        bob.id().0 % laminar_os::TASK_SHARDS as u64,
        "fixture wants the two tasks on distinct shards"
    );

    // Baseline verdicts, before any poisoning: alice (voluntarily
    // tainted, she minted the tag) creates a secret file in a secret
    // dir and can reread it; bob's read is flow-denied.
    let t = alice.alloc_tag().expect("tag");
    let secret = SecPair::secrecy_only(Label::singleton(t));
    kernel.install_dir("/tmp/vault", secret.clone()).expect("install /tmp/vault");
    alice.set_task_label(LabelType::Secrecy, Label::singleton(t)).expect("taint");
    let fd =
        alice.create_file_labeled("/tmp/vault/secret", secret).expect("labeled create");
    alice.write(fd, b"classified").expect("write");
    alice.close(fd).expect("close");
    let baseline_alice = alice.read_file_at("/tmp/vault/secret", 64).expect("owner read");
    let baseline_bob =
        bob.read_file_at("/tmp/vault/secret", 64).expect_err("flow denial");

    // Poison alice's task shard from a crashing thread.
    kernel.poison_shard_for_test(ShardKey::task(alice.id()));
    let base = poison_recoveries();

    // Bob's syscalls never touch alice's task shard: his own task and
    // process shards differ, and his file traffic stays on inode shards.
    // They must all succeed with ZERO recovery events.
    let fd =
        bob.create_file_labeled("/tmp/bobfile", SecPair::default()).expect("bob create");
    bob.write(fd, b"public").expect("bob write");
    bob.close(fd).expect("bob close");
    assert_eq!(bob.read_file_at("/tmp/bobfile", 64).expect("bob read"), b"public");
    bob.unlink("/tmp/bobfile").expect("bob unlink");
    assert_eq!(
        poison_recoveries() - base,
        0,
        "traffic on healthy shards must not touch the poisoned one"
    );

    // Alice's next syscall hits her poisoned task shard: it must
    // recover (counter bumps) and the verdict must be unchanged.
    assert_eq!(
        alice.read_file_at("/tmp/vault/secret", 64).expect("recovered read"),
        baseline_alice
    );
    assert!(poison_recoveries() > base, "the poisoned shard must have recovered");

    // Now the same story on an inode shard: poison the shard holding
    // the vault directory's inode — the shard where bob's denial is
    // decided during traversal — then show the *denial* verdict
    // survives recovery bit-for-bit (fail-closed recovery does not
    // fail open).
    let ino = kernel.inode_of_for_test("/tmp/vault").expect("inode id");
    kernel.poison_shard_for_test(ShardKey::inode(ino));
    let base = poison_recoveries();
    let after = bob.read_file_at("/tmp/vault/secret", 64).expect_err("still denied");
    assert_eq!(format!("{after:?}"), format!("{baseline_bob:?}"));
    assert!(poison_recoveries() > base, "the inode shard must have recovered");

    // And the recovered shards keep serving: full write/read round-trip.
    alice
        .write_file_at("/tmp/vault/secret", b"reclassified")
        .expect("write after recovery");
    assert_eq!(
        alice.read_file_at("/tmp/vault/secret", 64).expect("read after recovery"),
        b"reclassified"
    );
}

/// Rotating poison over *every* shard ordinal must be semantically
/// invisible: a kernel all of whose shards have been poisoned and
/// recovered serves the same fixture traffic as a fresh one.
#[test]
fn poisoning_every_shard_is_semantically_invisible() {
    let _serial = serial();
    let kernel = Kernel::boot(LaminarModule);
    kernel.add_user(UserId(1), "alice");
    let task = kernel.login(UserId(1)).expect("login");
    for ordinal in 0..laminar_os::SHARD_COUNT {
        kernel.poison_shard_for_test(ShardKey::from_ordinal(ordinal));
    }
    // Traffic across every subsystem: registry (tag mint), task table
    // (label change), inode table (pipes, files, dirs).
    task.alloc_tag().expect("alloc_tag after registry poison");
    task.set_task_label(LabelType::Integrity, Label::empty())
        .expect("label change after task-shard poison");
    let (r, w) = task.pipe().expect("pipe after inode poison");
    task.write(w, b"ping").expect("pipe write");
    assert_eq!(task.read(r, 16).expect("pipe read"), b"ping");
    task.mkdir_labeled("/tmp/poked", SecPair::default()).expect("mkdir");
    let fd =
        task.create_file_labeled("/tmp/poked/f", SecPair::default()).expect("create");
    task.close(fd).expect("close");
    assert_eq!(task.readdir("/tmp/poked").expect("readdir"), vec!["f".to_string()]);
    task.unlink("/tmp/poked/f").expect("unlink");
    task.unlink("/tmp/poked").expect("rmdir");
}

/// A kernel and a task whose cwd is `/tmp`, with a file `/tmp/f` and a
/// file `/tmp/gone` to unlink.
fn path_fixture() -> (Arc<Kernel>, TaskHandle) {
    let kernel = Kernel::boot(LaminarModule);
    kernel.add_user(UserId(1), "alice");
    let task = kernel.login(UserId(1)).expect("login");
    for path in ["/tmp/f", "/tmp/gone"] {
        let fd = task.create(path).expect("create");
        task.write(fd, b"contents").expect("write");
        task.close(fd).expect("close");
    }
    task.chdir("/tmp").expect("chdir");
    (kernel, task)
}

/// A path-only syscall on an absolute path never touches its caller's
/// process shard: with that shard poisoned, `stat`, `read_file_at`,
/// `write_file_at`, `unlink` and `symlink` recover nothing. `open`
/// (the fd table) and a relative `stat` (the cwd) do touch it, and
/// recover. Every result equals the one an unpoisoned twin returns.
#[test]
fn path_only_syscalls_leave_the_process_shard_alone() {
    let _serial = serial();
    let (_, twin) = path_fixture();
    let (kernel, task) = path_fixture();
    let pid = task.process().expect("process");
    kernel.poison_shard_for_test(ShardKey::proc(pid));

    type Call = fn(&TaskHandle) -> String;
    let path_only: [(&str, Call); 5] = [
        ("stat", |t| format!("{:?}", t.stat("/tmp/f"))),
        ("read_file_at", |t| format!("{:?}", t.read_file_at("/tmp/f", 64))),
        ("write_file_at", |t| format!("{:?}", t.write_file_at("/tmp/f", b"new"))),
        ("unlink", |t| format!("{:?}", t.unlink("/tmp/gone"))),
        ("symlink", |t| format!("{:?}", t.symlink("/tmp/f", "/tmp/l"))),
    ];
    for (name, call) in path_only {
        let base = poison_recoveries();
        let got = call(&task);
        assert_eq!(poison_recoveries() - base, 0, "{name} touched the process shard");
        assert_eq!(got, call(&twin), "{name}");
    }

    let process_reads: [(&str, Call); 2] = [
        ("open", |t| {
            let fd = t.open("/tmp/f", OpenMode::Read);
            format!("{fd:?} {:?}", fd.as_ref().map(|&fd| t.read(fd, 64)))
        }),
        ("relative stat", |t| format!("{:?}", t.stat("f"))),
    ];
    for (name, call) in process_reads {
        let base = poison_recoveries();
        let got = call(&task);
        assert!(poison_recoveries() > base, "{name} must recover the process shard");
        assert_eq!(got, call(&twin), "{name}");
    }
}
