//! Sockets and symbolic links under the Laminar LSM: the remaining OS
//! resource kinds the paper names ("files and sockets") and the symlink
//! redirection attack its directory-integrity discussion targets.

use laminar_difc::{Label, LabelType, SecPair};
use laminar_os::{Kernel, LaminarModule, OpenMode, OsError, UserId};

fn boot() -> (std::sync::Arc<Kernel>, laminar_os::TaskHandle) {
    let k = Kernel::boot(LaminarModule);
    k.add_user(UserId(1), "alice");
    let t = k.login(UserId(1)).unwrap();
    (k, t)
}

#[test]
fn socketpair_carries_bidirectional_traffic() {
    let (_k, alice) = boot();
    let (a, b) = alice.socketpair().unwrap();
    assert_eq!(alice.write(a, b"ping").unwrap(), 4);
    assert_eq!(alice.read(b, 16).unwrap(), b"ping");
    assert_eq!(alice.write(b, b"pong").unwrap(), 4);
    assert_eq!(alice.read(a, 16).unwrap(), b"pong");
    // Directions are independent: nothing left to read either way.
    assert_eq!(alice.read(a, 16).unwrap(), b"");
    assert_eq!(alice.read(b, 16).unwrap(), b"");
}

#[test]
fn sockets_cross_process_via_fork() {
    let (_k, alice) = boot();
    let (a, b) = alice.socketpair().unwrap();
    let child = alice.fork(None).unwrap();
    child.write(b, b"from child").unwrap();
    assert_eq!(alice.read(a, 32).unwrap(), b"from child");
}

#[test]
fn socket_writes_silently_drop_on_illegal_flow() {
    let (_k, alice) = boot();
    let t = alice.alloc_tag().unwrap();
    let (a, b) = alice.socketpair().unwrap(); // unlabeled socket

    // Tainted writer: silently dropped, apparent success.
    alice.set_task_label(LabelType::Secrecy, Label::singleton(t)).unwrap();
    assert_eq!(alice.write(a, b"secret").unwrap(), 6);
    alice.set_task_label(LabelType::Secrecy, Label::empty()).unwrap();
    assert_eq!(alice.read(b, 16).unwrap(), b"");
}

#[test]
fn labeled_socket_requires_taint_to_read() {
    let (_k, alice) = boot();
    let t = alice.alloc_tag().unwrap();
    // Create the socket while tainted: it carries {S(t)}.
    alice.set_task_label(LabelType::Secrecy, Label::singleton(t)).unwrap();
    let (a, b) = alice.socketpair().unwrap();
    alice.write(a, b"classified").unwrap();
    // Untainted reader is refused.
    alice.set_task_label(LabelType::Secrecy, Label::empty()).unwrap();
    assert!(matches!(alice.read(b, 16), Err(OsError::FlowDenied(_))));
    // Tainted reader succeeds.
    alice.set_task_label(LabelType::Secrecy, Label::singleton(t)).unwrap();
    assert_eq!(alice.read(b, 16).unwrap(), b"classified");
}

#[test]
fn symlinks_resolve_transparently() {
    let (_k, alice) = boot();
    let fd = alice.create("/tmp/real.txt").unwrap();
    alice.write(fd, b"payload").unwrap();
    alice.close(fd).unwrap();
    alice.symlink("/tmp/real.txt", "/tmp/alias").unwrap();

    let fd = alice.open("/tmp/alias", OpenMode::Read).unwrap();
    assert_eq!(alice.read(fd, 16).unwrap(), b"payload");
    alice.close(fd).unwrap();

    // readlink and lstat see the link itself; stat follows.
    assert_eq!(alice.readlink("/tmp/alias").unwrap(), "/tmp/real.txt");
    assert!(!alice.lstat("/tmp/alias").unwrap().is_dir);
    assert_eq!(
        alice.stat("/tmp/alias").unwrap().inode,
        alice.stat("/tmp/real.txt").unwrap().inode
    );
}

#[test]
fn relative_symlinks_resolve_from_their_directory() {
    let (_k, alice) = boot();
    alice.mkdir("/tmp/d").unwrap();
    let fd = alice.create("/tmp/d/real.txt").unwrap();
    alice.write(fd, b"x").unwrap();
    alice.close(fd).unwrap();
    alice.symlink("real.txt", "/tmp/d/rel").unwrap();
    let fd = alice.open("/tmp/d/rel", OpenMode::Read).unwrap();
    assert_eq!(alice.read(fd, 4).unwrap(), b"x");
}

#[test]
fn symlink_loops_are_detected() {
    let (_k, alice) = boot();
    alice.symlink("/tmp/l2", "/tmp/l1").unwrap();
    alice.symlink("/tmp/l1", "/tmp/l2").unwrap();
    // A cycle of symlinks surfaces as the typed ELOOP-style error, not a
    // generic invalid-argument (and certainly not an unwind).
    assert!(matches!(alice.open("/tmp/l1", OpenMode::Read), Err(OsError::SymlinkLoop)));
    assert!(matches!(alice.stat("/tmp/l1"), Err(OsError::SymlinkLoop)));
    // lstat does not follow the final component, so it still succeeds.
    assert!(alice.lstat("/tmp/l1").is_ok());
}

#[test]
fn unlink_removes_the_link_not_its_target() {
    let (_k, alice) = boot();
    let fd = alice.create("/tmp/real").unwrap();
    alice.write(fd, b"kept").unwrap();
    alice.close(fd).unwrap();
    alice.symlink("/tmp/real", "/tmp/link").unwrap();

    alice.unlink("/tmp/link").unwrap();
    assert!(matches!(alice.lstat("/tmp/link"), Err(OsError::NotFound)));
    assert_eq!(alice.read_file_at("/tmp/real", 16).unwrap(), b"kept");
    assert_eq!(alice.readdir("/tmp").unwrap(), vec!["real".to_string()]);
}

#[test]
fn creation_on_a_dangling_link_fails_with_exists() {
    // Like POSIX `O_CREAT | O_EXCL`, `mkdir` and `symlink`: a final
    // symlink is a name that exists, even when its target does not, and
    // nothing is created where it points.
    let (_k, alice) = boot();
    alice.symlink("/tmp/nowhere", "/tmp/dangling").unwrap();
    assert!(matches!(alice.mkdir("/tmp/dangling"), Err(OsError::Exists)));
    assert!(matches!(alice.symlink("/etc", "/tmp/dangling"), Err(OsError::Exists)));
    assert!(matches!(alice.create("/tmp/dangling"), Err(OsError::Exists)));
    assert!(matches!(
        alice.create_file_labeled("/tmp/dangling", SecPair::unlabeled()),
        Err(OsError::Exists)
    ));
    assert!(matches!(alice.lstat("/tmp/nowhere"), Err(OsError::NotFound)));
    assert_eq!(alice.readlink("/tmp/dangling").unwrap(), "/tmp/nowhere");
    assert_eq!(alice.readdir("/tmp").unwrap(), vec!["dangling".to_string()]);
}

#[test]
fn exec_open_and_stat_follow_a_final_link() {
    let (k, alice) = boot();
    let secret = SecPair::secrecy_only(Label::singleton(alice.alloc_tag().unwrap()));
    k.install_file("/tmp/tool", SecPair::unlabeled(), b"bin").unwrap();
    k.install_file("/tmp/vault", secret, b"bin").unwrap();
    alice.symlink("/tmp/tool", "/tmp/to_tool").unwrap();
    alice.symlink("/tmp/vault", "/tmp/to_vault").unwrap();
    alice.symlink("/tmp/nowhere", "/tmp/dangling").unwrap();

    // Through a link to a readable file: the target's inode.
    alice.exec("/tmp/to_tool").unwrap();
    let fd = alice.open("/tmp/to_tool", OpenMode::Read).unwrap();
    assert_eq!(alice.read(fd, 8).unwrap(), b"bin");
    alice.close(fd).unwrap();
    assert_eq!(
        alice.stat("/tmp/to_tool").unwrap().inode,
        alice.stat("/tmp/tool").unwrap().inode
    );
    // Through an unlabeled link to a secret file: the target's label
    // decides, so the link was followed.
    assert!(matches!(alice.exec("/tmp/to_vault"), Err(OsError::FlowDenied(_))));
    assert!(matches!(
        alice.open("/tmp/to_vault", OpenMode::Read),
        Err(OsError::FlowDenied(_))
    ));
    assert!(matches!(alice.stat("/tmp/to_vault"), Err(OsError::FlowDenied(_))));
    // Through a dangling link: nothing to reach.
    assert!(matches!(alice.exec("/tmp/dangling"), Err(OsError::NotFound)));
    assert!(matches!(
        alice.open("/tmp/dangling", OpenMode::Read),
        Err(OsError::NotFound)
    ));
    assert!(matches!(alice.stat("/tmp/dangling"), Err(OsError::NotFound)));
}

#[test]
fn integrity_task_cannot_be_redirected_through_unendorsed_symlink() {
    // The §5.2 symlink attack: an attacker plants a link redirecting a
    // high-integrity task to a file of the attacker's choosing. Because
    // following a link *reads* the link inode, the task's integrity
    // label vetoes the redirection.
    let (k, alice) = boot();
    let i = alice.alloc_tag().unwrap();
    let endorsed = SecPair::integrity_only(Label::singleton(i));

    // An endorsed config tree installed by the administrator.
    k.install_dir("/appcfg", endorsed.clone()).unwrap();
    k.install_file("/appcfg/conf", endorsed.clone(), b"trusted=1").unwrap();
    // The attacker (unlabeled) plants an unendorsed symlink in the tree…
    // …which he cannot even do inside the endorsed dir (write-up denied):
    assert!(alice.symlink("/tmp/evil", "/appcfg/conf2").is_err());

    // Suppose the link exists in an unlabeled staging dir instead:
    let fd = alice.create("/tmp/evil").unwrap();
    alice.write(fd, b"trusted=0").unwrap();
    alice.close(fd).unwrap();
    alice.symlink("/tmp/evil", "/tmp/conf").unwrap();

    // An integrity-i task reading via the attacker's link is refused at
    // the link itself (reading an unendorsed inode).
    alice.chdir("/tmp").unwrap();
    alice.set_task_label(LabelType::Integrity, Label::singleton(i)).unwrap();
    assert!(alice.open("conf", OpenMode::Read).is_err());

    // Via the endorsed tree it reads fine.
    alice.set_task_label(LabelType::Integrity, Label::empty()).unwrap();
    alice.chdir("/appcfg").unwrap();
    alice.set_task_label(LabelType::Integrity, Label::singleton(i)).unwrap();
    let fd = alice.open("conf", OpenMode::Read).unwrap();
    assert_eq!(alice.read(fd, 16).unwrap(), b"trusted=1");
}

#[test]
fn seek_repositions_regular_files_only() {
    let (_k, alice) = boot();
    let fd = alice.create("/tmp/f").unwrap();
    alice.write(fd, b"abcdef").unwrap();
    alice.seek(fd, 2).unwrap();
    assert_eq!(alice.read(fd, 2).unwrap(), b"cd");
    // Seek backwards and overwrite.
    alice.seek(fd, 0).unwrap();
    alice.write(fd, b"XY").unwrap();
    alice.seek(fd, 0).unwrap();
    assert_eq!(alice.read(fd, 6).unwrap(), b"XYcdef");

    let (r, _w) = alice.pipe().unwrap();
    assert!(matches!(alice.seek(r, 0), Err(OsError::BadFd)));
    let (a, _b) = alice.socketpair().unwrap();
    assert!(matches!(alice.seek(a, 0), Err(OsError::BadFd)));
}
