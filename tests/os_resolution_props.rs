//! Property tests for path resolution under the Laminar LSM: traversal
//! mediation is consistent, symlink following is equivalent to direct
//! access, and labels discovered via `get_labels` always match `stat`.
//!
//! Randomization is driven by the in-repo deterministic PRNG so the
//! suite runs with zero network access.

use laminar_difc::{Label, LabelType, SecPair};
use laminar_os::{Kernel, LaminarModule, OpenMode, UserId};
use laminar_util::SplitMix64;

/// A small random directory tree description: a list of (depth ≤ 3)
/// paths to create under /tmp.
fn random_tree(rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    let entries = rng.gen_range(1..8);
    (0..entries)
        .map(|_| {
            let depth = rng.gen_range(1..4);
            (0..depth).map(|_| rng.below(3) as u8).collect()
        })
        .collect()
}

fn path_of(parts: &[u8]) -> String {
    let mut p = String::from("/tmp");
    for c in parts {
        p.push_str(&format!("/d{c}"));
    }
    p
}

/// Creating a random unlabeled tree, every created path stats as a
/// directory, and every file dropped into it round-trips — i.e.
/// resolution is deterministic and mediation of unlabeled trees
/// never interferes.
#[test]
fn unlabeled_trees_resolve_deterministically() {
    let mut rng = SplitMix64::new(0x0511);
    for _ in 0..24 {
        let tree = random_tree(&mut rng);
        let k = Kernel::boot(LaminarModule);
        k.add_user(UserId(1), "u");
        let t = k.login(UserId(1)).unwrap();
        let mut created = Vec::new();
        for parts in &tree {
            // Create each prefix (ignore Exists).
            for i in 1..=parts.len() {
                let p = path_of(&parts[..i]);
                match t.mkdir(&p) {
                    Ok(()) => created.push(p),
                    Err(laminar_os::OsError::Exists) => {}
                    Err(e) => panic!("mkdir {p}: {e}"),
                }
            }
        }
        for p in &created {
            assert!(t.stat(p).unwrap().is_dir);
        }
        // Drop a file at the deepest path of the first entry.
        let dir = path_of(&tree[0]);
        let f = format!("{dir}/file");
        let fd = t.create(&f).unwrap();
        t.write(fd, b"x").unwrap();
        t.close(fd).unwrap();
        let fd = t.open(&f, OpenMode::Read).unwrap();
        assert_eq!(t.read(fd, 4).unwrap(), b"x");
    }
}

/// A symlink to a file behaves exactly like the file for open/stat,
/// for arbitrary (secrecy-only) file labels: the *link* adds no
/// access beyond what direct access grants.
#[test]
fn symlink_equivalent_to_direct_access() {
    for fmask in 0u8..8 {
        for tmask in 0u8..8 {
            let k = Kernel::boot(LaminarModule);
            k.add_user(UserId(1), "u");
            let task = k.login(UserId(1)).unwrap();
            let tags: Vec<_> = (0..3).map(|_| task.alloc_tag().unwrap()).collect();
            let lbl = |mask: u8| {
                Label::from_tags(
                    tags.iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, &t)| t),
                )
            };

            let fpair = SecPair::secrecy_only(lbl(fmask));
            let fd = task.create_file_labeled("/tmp/target", fpair).unwrap();
            task.close(fd).unwrap();
            task.symlink("/tmp/target", "/tmp/link").unwrap();

            task.set_task_label(LabelType::Secrecy, lbl(tmask)).unwrap();
            let direct = task.open("/tmp/target", OpenMode::Read).is_ok();
            let via_link = task.open("/tmp/link", OpenMode::Read).is_ok();
            assert_eq!(direct, via_link);

            let direct_stat = task.stat("/tmp/target").map(|m| m.inode);
            let link_stat = task.stat("/tmp/link").map(|m| m.inode);
            assert_eq!(direct_stat.is_ok(), link_stat.is_ok());
            if let (Ok(a), Ok(b)) = (direct_stat, link_stat) {
                assert_eq!(a, b);
            }
        }
    }
}

/// `get_labels` (parent-mediated) and `stat` (inode-mediated) agree
/// on the labels whenever both succeed.
#[test]
fn get_labels_agrees_with_stat() {
    for fmask in 0u8..8 {
        let k = Kernel::boot(LaminarModule);
        k.add_user(UserId(1), "u");
        let task = k.login(UserId(1)).unwrap();
        let tags: Vec<_> = (0..3).map(|_| task.alloc_tag().unwrap()).collect();
        let label = Label::from_tags(
            tags.iter()
                .enumerate()
                .filter(|(i, _)| fmask & (1 << i) != 0)
                .map(|(_, &t)| t),
        );
        let pair = SecPair::secrecy_only(label.clone());
        let fd = task.create_file_labeled("/tmp/f", pair.clone()).unwrap();
        task.close(fd).unwrap();

        // get_labels needs only traversal; it must report the real labels.
        assert_eq!(task.get_labels("/tmp/f").unwrap(), pair.clone());
        // stat succeeds only when tainted appropriately — and then agrees.
        task.set_task_label(LabelType::Secrecy, label).unwrap();
        assert_eq!(task.stat("/tmp/f").unwrap().labels, pair);
    }
}

/// The kernel, and a task whose cwd is `/tmp/a/b`, for the pinned hook
/// counts: unlabeled files at depths 1 to 5, a symlink `/tmp/ln` to
/// `/tmp/a/b`, and a secret directory `/tmp/vault` the task cannot read.
fn hook_fixture() -> (std::sync::Arc<Kernel>, laminar_os::TaskHandle) {
    let k = Kernel::boot(LaminarModule);
    k.add_user(UserId(1), "u");
    let t = k.login(UserId(1)).unwrap();
    let open = SecPair::unlabeled();
    for dir in ["/tmp/a", "/tmp/a/b", "/tmp/a/b/c"] {
        k.install_dir(dir, open.clone()).unwrap();
    }
    for file in ["/f1", "/tmp/f2", "/tmp/a/f3", "/tmp/a/b/f4", "/tmp/a/b/c/f5"] {
        k.install_file(file, open.clone(), b"data").unwrap();
    }
    let secret = SecPair::secrecy_only(Label::singleton(t.alloc_tag().unwrap()));
    k.install_dir("/tmp/vault", secret.clone()).unwrap();
    k.install_dir("/tmp/vault/x", secret.clone()).unwrap();
    k.install_file("/tmp/vault/x/f", secret, b"data").unwrap();
    t.symlink("/tmp/a/b", "/tmp/ln").unwrap();
    t.chdir("/tmp/a/b").unwrap();
    (k, t)
}

/// `(case, existing file, new name, hook calls of [stat, read_file_at,
/// write_file_at, open, create, unlink, lstat, readdir, get_labels,
/// exec, mkdir, symlink])`: one traversal hook per directory crossed
/// (and per symlink followed), plus the syscall's own hook on the file,
/// where the walk gets that far. `unlink` removes the name `create`
/// made, or finds it missing where `/` refused the create; `readdir`
/// lists the file's directory; `mkdir` makes the new name again and
/// `symlink` links it once more after an uncounted `unlink`. The first
/// six counts were recorded on the walk that fetched each directory
/// three times, the last six on the walk that still fetched a final
/// component for a symlink check; a change to how the walk reads
/// directories may change how fast it runs, never how many hooks it
/// calls.
const HOOK_PINS: [(&str, &str, &str, [u64; 12]); 8] = [
    ("depth 1", "/f1", "/new", [2, 2, 2, 2, 2, 1, 2, 1, 1, 2, 2, 2]),
    ("depth 2", "/tmp/f2", "/tmp/new", [3, 3, 3, 3, 3, 3, 3, 2, 2, 3, 3, 3]),
    ("depth 3", "/tmp/a/f3", "/tmp/a/new", [4, 4, 4, 4, 4, 4, 4, 3, 3, 4, 4, 4]),
    ("depth 4", "/tmp/a/b/f4", "/tmp/a/b/new", [5, 5, 5, 5, 5, 5, 5, 4, 4, 5, 5, 5]),
    ("depth 5", "/tmp/a/b/c/f5", "/tmp/a/b/c/new", [6, 6, 6, 6, 6, 6, 6, 5, 5, 6, 6, 6]),
    ("relative after chdir", "c/f5", "c/new", [3, 3, 3, 3, 3, 3, 3, 2, 2, 3, 3, 3]),
    (
        "through a symlink",
        "/tmp/ln/f4",
        "/tmp/ln/new",
        [8, 8, 8, 8, 8, 8, 8, 7, 7, 8, 8, 8],
    ),
    ("denied at /tmp/vault", "/tmp/vault/x/f", "/tmp/vault/x/new", [3; 12]),
];

/// The directory holding the last component of `path` (`/` for a
/// top-level absolute path, `.` for a bare name).
fn dir_of(path: &str) -> &str {
    match path.rsplit_once('/') {
        Some(("", _)) => "/",
        Some((dir, _)) => dir,
        None => ".",
    }
}

#[test]
fn path_syscalls_call_one_traversal_hook_per_directory() {
    for &(case, file, new, want) in &HOOK_PINS {
        let (k, t) = hook_fixture();
        let mut got = [0u64; 12];
        let mut count = |i: usize, call: &mut dyn FnMut()| {
            let before = k.hook_calls();
            call();
            got[i] = k.hook_calls() - before;
        };
        count(0, &mut || drop(t.stat(file)));
        count(1, &mut || drop(t.read_file_at(file, 8)));
        count(2, &mut || drop(t.write_file_at(file, b"next")));
        count(3, &mut || {
            if let Ok(fd) = t.open(file, OpenMode::Read) {
                t.close(fd).unwrap();
            }
        });
        count(4, &mut || {
            if let Ok(fd) = t.create(new) {
                t.close(fd).unwrap();
            }
        });
        count(5, &mut || drop(t.unlink(new)));
        count(6, &mut || drop(t.lstat(file)));
        count(7, &mut || drop(t.readdir(dir_of(file))));
        count(8, &mut || drop(t.get_labels(file)));
        count(9, &mut || drop(t.exec(file)));
        count(10, &mut || drop(t.mkdir(new)));
        drop(t.unlink(new));
        count(11, &mut || drop(t.symlink("/tmp/f2", new)));
        assert_eq!(
            got, want,
            "{case}: hook calls of [stat, read_file_at, write_file_at, open, create, \
             unlink, lstat, readdir, get_labels, exec, mkdir, symlink]"
        );
    }
}
