//! Shard lock modes: every op of the `syscall_mix` and `tenant_scale`
//! benchmark workloads, on that workload's layout, takes each shard in
//! the mode it needs the first time it touches it, so none of them
//! restarts (rolls back and reruns with a wider lock footprint). The
//! count is [`Kernel::footprint_restarts`], the kernel's trusted-side
//! tally of restarts.
//!
//! The restart path itself stays covered: a symlink whose target sits in
//! a shard below the link's must restart and still resolve correctly.

use laminar_difc::{CapSet, Capability, Label, LabelType, SecPair, Tag};
use laminar_os::{
    Fd, Kernel, LaminarModule, OpenMode, OsError, Quotas, ShardKey, TaskHandle, UserId,
};
use std::sync::Arc;

const LEN: usize = 64;

/// One `syscall_mix` worker: a clean task, its forked twin tainted with
/// the worker's own secrecy tag, `/tmp/w<i>` holding an unlabeled `pub`
/// file and a `{S(t)}` `secret` file, an open `/dev/null` and a pipe.
struct Worker {
    clean: TaskHandle,
    tainted: TaskHandle,
    null_fd: Fd,
    pipe_r: Fd,
    pipe_w: Fd,
    pub_path: String,
    secret_path: String,
    scratch_path: String,
}

/// Builds the `syscall_mix` set-up: the same syscalls in the same order.
fn mix_layout(workers: usize) -> (Arc<Kernel>, Vec<Worker>) {
    let quotas = Quotas { max_tags_per_user: u64::MAX, ..Quotas::default() };
    let kernel = Kernel::boot_with_quotas(LaminarModule, quotas);
    let mut out = Vec::new();
    for w in 0..workers {
        let user = UserId(100 + w as u32);
        kernel.add_user(user, &format!("w{w}"));
        let clean = kernel.login(user).unwrap();
        let tag = clean.alloc_tag().unwrap();
        let secret = SecPair::secrecy_only(Label::singleton(tag));
        let dir = format!("/tmp/w{w}");
        clean.mkdir(&dir).unwrap();
        let (pub_path, secret_path) = (format!("{dir}/pub"), format!("{dir}/secret"));
        for (path, labels, fill) in [
            (&pub_path, SecPair::unlabeled(), b'P'),
            (&secret_path, secret.clone(), b'S'),
        ] {
            let fd = clean.create_file_labeled(path, labels).unwrap();
            clean.write(fd, &[fill; LEN]).unwrap();
            clean.close(fd).unwrap();
        }
        let null_fd = clean.open("/dev/null", OpenMode::ReadWrite).unwrap();
        let (pipe_r, pipe_w) = clean.pipe().unwrap();
        let tainted = clean.fork(None).unwrap();
        tainted.set_task_label(LabelType::Secrecy, secret.secrecy().clone()).unwrap();
        out.push(Worker {
            clean,
            tainted,
            null_fd,
            pipe_r,
            pipe_w,
            pub_path,
            secret_path,
            scratch_path: format!("{dir}/scratch"),
        });
    }
    (kernel, out)
}

/// Restarts `f` caused on `kernel`.
fn restarts_during(kernel: &Kernel, f: impl FnOnce()) -> u64 {
    let before = kernel.footprint_restarts();
    f();
    kernel.footprint_restarts() - before
}

fn create_close_unlink(t: &TaskHandle, path: &str) {
    let fd = t.create(path).unwrap();
    t.close(fd).unwrap();
    t.unlink(path).unwrap();
}

/// A named op that checks its own results.
type NamedOp<'a> = (&'static str, Box<dyn Fn() + 'a>);

/// Each op of the mix.
fn mix_ops(w: &Worker) -> Vec<NamedOp<'_>> {
    let buf = [7u8; LEN];
    vec![
        (
            "/dev/null write+read",
            Box::new(move || {
                assert_eq!(w.clean.write(w.null_fd, &buf).unwrap(), LEN);
                assert!(w.clean.read(w.null_fd, LEN).unwrap().is_empty());
            }),
        ),
        (
            "pipe write+read",
            Box::new(move || {
                assert_eq!(w.clean.write(w.pipe_w, &buf).unwrap(), LEN);
                assert_eq!(w.clean.read(w.pipe_r, LEN).unwrap(), buf);
            }),
        ),
        ("stat", Box::new(|| assert_eq!(w.clean.stat(&w.pub_path).unwrap().size, 64))),
        (
            "read_file_at",
            Box::new(|| {
                assert_eq!(
                    w.tainted.read_file_at(&w.secret_path, LEN).unwrap().len(),
                    LEN
                )
            }),
        ),
        (
            "write_file_at",
            Box::new(move || {
                assert_eq!(w.tainted.write_file_at(&w.secret_path, &buf).unwrap(), LEN);
            }),
        ),
        (
            "open+close",
            Box::new(|| {
                let fd = w.clean.open(&w.pub_path, OpenMode::Read).unwrap();
                w.clean.close(fd).unwrap();
            }),
        ),
        (
            "create+close+unlink",
            Box::new(|| create_close_unlink(&w.clean, &w.scratch_path)),
        ),
        (
            "alloc_tag+set_task_label+drop_capabilities",
            Box::new(|| {
                let t = w.clean.alloc_tag().unwrap();
                w.clean.set_task_label(LabelType::Secrecy, Label::singleton(t)).unwrap();
                w.clean.set_task_label(LabelType::Secrecy, Label::empty()).unwrap();
                w.clean
                    .drop_capabilities(&[Capability::plus(t), Capability::minus(t)])
                    .unwrap();
            }),
        ),
        (
            "denied write_file_at",
            Box::new(move || {
                let r = w.tainted.write_file_at(&w.pub_path, &buf);
                assert!(matches!(r, Err(OsError::FlowDenied(_))), "{r:?}");
            }),
        ),
        (
            "dropped pipe write",
            Box::new(move || {
                assert_eq!(w.tainted.write(w.pipe_w, &buf).unwrap(), LEN);
                assert!(w.clean.read(w.pipe_r, LEN).unwrap().is_empty());
            }),
        ),
    ]
}

#[test]
fn syscall_mix_ops_never_restart() {
    let (kernel, workers) = mix_layout(2);
    for (i, w) in workers.iter().enumerate() {
        for (name, op) in mix_ops(w) {
            for _ in 0..3 {
                assert_eq!(
                    restarts_during(&kernel, &op),
                    0,
                    "worker {i}: {name} restarted"
                );
            }
        }
    }
}

/// Thousands of create/unlink cycles on both workers at once mint
/// thousands of inode ids; each must land in a shard above the worker's
/// directory, so not one cycle, nor any op after them, restarts.
#[test]
fn churn_does_not_bring_restarts_back() {
    let (kernel, workers) = mix_layout(2);
    let restarts = restarts_during(&kernel, || {
        let sets = workers.iter().map(|w| vec![w.clean.clone()]).collect();
        kernel.run_parallel(sets, |i, _| {
            for _ in 0..3000 {
                create_close_unlink(&workers[i].clean, &workers[i].scratch_path);
            }
        });
    });
    assert_eq!(restarts, 0, "create/unlink churn restarted");
    for (i, w) in workers.iter().enumerate() {
        for (name, op) in mix_ops(w) {
            assert_eq!(restarts_during(&kernel, op), 0, "worker {i}: {name} restarted");
        }
    }
}

/// The `tenant_scale` layout: 64 tenants with nested compartment labels
/// `{S(c1..cw)}`, `w = 1 + i % 16`, own 64 files each in the shared
/// `/tmp`; each of two owners has a pipe with 1,000 queued messages and
/// 1,000 extra open fds. Every task's cwd is `/tmp`.
struct Tenants {
    kernel: Arc<Kernel>,
    readers: Vec<TaskHandle>,
    owners: Vec<(TaskHandle, Fd, Fd)>,
}

const TENANTS: usize = 64;
const FILES_PER_TENANT: usize = 64;

fn width(tenant: usize) -> usize {
    1 + tenant % 16
}

fn tenant_file(f: usize) -> String {
    format!("t{:02}f{:02}", f / FILES_PER_TENANT, f % FILES_PER_TENANT)
}

fn tenant_layout() -> Tenants {
    let kernel = Kernel::boot(LaminarModule);
    kernel.add_user(UserId(1), "admin");
    let admin = kernel.login(UserId(1)).unwrap();
    let chain: Vec<Tag> = (0..16).map(|_| admin.alloc_tag().unwrap()).collect();
    let label = |i: usize| Label::from_tags(chain[..width(i)].iter().copied());
    for f in 0..TENANTS * FILES_PER_TENANT {
        let labels = SecPair::secrecy_only(label(f / FILES_PER_TENANT));
        kernel
            .install_file(&format!("/tmp/{}", tenant_file(f)), labels, &[1; LEN])
            .unwrap();
    }
    let readers = (0..TENANTS)
        .map(|i| {
            let user = UserId(1000 + i as u32);
            kernel.add_user(user, &format!("tenant{i}"));
            kernel.set_persistent_caps(
                user,
                CapSet::from_caps(label(i).iter().map(Capability::plus)),
            );
            let t = kernel.login(user).unwrap();
            t.set_task_label(LabelType::Secrecy, label(i)).unwrap();
            t.chdir("/tmp").unwrap();
            t
        })
        .collect();
    let owners = (0..2)
        .map(|w| {
            let user = UserId(200 + w);
            kernel.add_user(user, &format!("owner{w}"));
            let owner = kernel.login(user).unwrap();
            let (pipe_r, pipe_w) = owner.pipe().unwrap();
            for _ in 0..1000 {
                owner.write(pipe_w, &[2; LEN]).unwrap();
            }
            for _ in 0..1000 {
                owner.open("/dev/null", OpenMode::Read).unwrap();
            }
            owner.chdir("/tmp").unwrap();
            (owner, pipe_r, pipe_w)
        })
        .collect();
    Tenants { kernel, readers, owners }
}

#[test]
fn tenant_scale_ops_never_restart() {
    let Tenants { kernel, readers, owners } = tenant_layout();
    for (w, (owner, pipe_r, pipe_w)) in owners.iter().enumerate() {
        let ops: Vec<NamedOp<'_>> = vec![
            ("create+close+unlink", Box::new(|| create_close_unlink(owner, "/tmp/s"))),
            (
                "relative create+close+unlink",
                Box::new(|| create_close_unlink(owner, "r")),
            ),
            (
                "pipe write+read at depth 1,000",
                Box::new(|| {
                    assert_eq!(owner.write(*pipe_w, &[2; LEN]).unwrap(), LEN);
                    assert_eq!(owner.read(*pipe_r, LEN).unwrap(), [2; LEN]);
                }),
            ),
            (
                "open+close with 1,000 fds open",
                Box::new(|| {
                    let fd = owner.open("/dev/null", OpenMode::Read).unwrap();
                    owner.close(fd).unwrap();
                }),
            ),
        ];
        for (name, op) in ops {
            for _ in 0..3 {
                assert_eq!(
                    restarts_during(&kernel, &op),
                    0,
                    "owner {w}: {name} restarted"
                );
            }
        }
    }
    // Every tenant reads a spread of every tenant's files, by absolute
    // and by relative path: allowed exactly when the owner's compartment
    // is no wider than the reader's.
    for (i, reader) in readers.iter().enumerate() {
        for f in (i % 7..TENANTS * FILES_PER_TENANT).step_by(61) {
            let name = tenant_file(f);
            for path in [format!("/tmp/{name}"), name] {
                let mut r = Ok(Vec::new());
                let restarts =
                    restarts_during(&kernel, || r = reader.read_file_at(&path, LEN));
                assert_eq!(restarts, 0, "tenant {i}: read of {path} restarted");
                match r {
                    Ok(data) => assert!(
                        width(f / FILES_PER_TENANT) <= width(i) && data.len() == LEN
                    ),
                    Err(e) => assert!(
                        matches!(e, OsError::FlowDenied(_))
                            && width(f / FILES_PER_TENANT) > width(i),
                        "tenant {i}: {path}: {e}"
                    ),
                }
            }
        }
    }
}

/// A symlink whose target is in a shard below the link's: following it
/// needs a shard below one the walk holds, so the syscall restarts with
/// a wider footprint — and still returns the target's contents.
#[test]
fn a_symlink_into_a_lower_shard_restarts_and_still_resolves() {
    let kernel = Kernel::boot(LaminarModule);
    kernel.add_user(UserId(1), "alice");
    let alice = kernel.login(UserId(1)).unwrap();
    alice.mkdir("/tmp/a").unwrap();
    let fd = alice.create("/tmp/f").unwrap();
    alice.write(fd, b"through the link").unwrap();
    alice.close(fd).unwrap();
    let file = ShardKey::inode(kernel.inode_of_for_test("/tmp/f").unwrap());
    // Links in /tmp/a spread over the shards above /tmp/a's; keep the
    // first one that sorts above the file's shard.
    let link = (0..16)
        .map(|i| {
            let path = format!("/tmp/a/l{i}");
            alice.symlink("/tmp/f", &path).unwrap();
            path
        })
        .find(|path| ShardKey::inode(kernel.inode_of_for_test(path).unwrap()) > file)
        .expect("a link in a shard above the file's");
    let mut data = Vec::new();
    let restarts = restarts_during(&kernel, || {
        data = alice.read_file_at(&link, 64).unwrap();
    });
    assert_eq!(data, b"through the link");
    assert!(restarts > 0, "a lower-shard symlink target must take the restart path");
}

/// A `..` that lands on the final parent: the walk took that directory
/// shared on the way down, and `create` and `unlink` need it exclusive.
/// The restart pre-locks every shard the failed attempt held, `/` and
/// `/tmp` included, so one restart is enough.
#[test]
fn a_dotdot_onto_the_final_parent_restarts_once() {
    let kernel = Kernel::boot(LaminarModule);
    kernel.add_user(UserId(1), "alice");
    let alice = kernel.login(UserId(1)).unwrap();
    alice.mkdir("/tmp/a").unwrap();
    alice.mkdir("/tmp/a/b").unwrap();
    let path = "/tmp/a/b/../f";
    let mut fd = None;
    let restarts = restarts_during(&kernel, || fd = Some(alice.create(path).unwrap()));
    assert_eq!(restarts, 1, "create restarts");
    alice.close(fd.unwrap()).unwrap();
    assert!(kernel.inode_of_for_test("/tmp/a/f").is_ok());
    let restarts = restarts_during(&kernel, || alice.unlink(path).unwrap());
    assert_eq!(restarts, 1, "unlink restarts");
    assert!(kernel.inode_of_for_test("/tmp/a/f").is_err());
}
