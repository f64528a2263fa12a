//! SMP stress: seeded threads hammer *shared* kernel objects with
//! deliberately conflicting syscalls through [`Kernel::run_parallel`]
//! for about a second (PR 4).
//!
//! Unlike the concurrent conformance regime (disjoint task sets, every
//! outcome checked against the oracle), this test maximizes lock
//! contention on a handful of hot objects — one pipe, one labeled
//! file, one churned path, the tag registry — and checks global
//! invariants instead of per-op outcomes:
//!
//! * the run terminates (no deadlock among the shard locks — the
//!   footprint-restart protocol in `laminar_os::shard` is what makes
//!   this a theorem rather than luck);
//! * fault counters stay consistent: every observed
//!   [`OsError::Internal`] corresponds to exactly one journal rollback,
//!   and with no failpoints armed both counts are zero;
//! * conservation on the shared pipe: bytes read never exceed bytes
//!   written, and the residue queued in the buffer is within capacity.

use laminar_difc::{CapSet, Capability, Label, LabelType, SecPair};
use laminar_os::{Kernel, LaminarModule, OsError, TaskHandle, UserId, PIPE_CAPACITY};
use laminar_util::SplitMix64;
use std::time::{Duration, Instant};

const WORKERS: usize = 4;

/// Per-worker tallies, merged after the storm.
#[derive(Default, Clone, Copy, Debug)]
struct Tally {
    ops: u64,
    ok: u64,
    denied: u64,
    internal: u64,
    pipe_written: u64,
    pipe_read: u64,
}

impl Tally {
    fn absorb<T>(&mut self, r: Result<T, OsError>) -> Option<T> {
        self.ops += 1;
        match r {
            Ok(v) => {
                self.ok += 1;
                Some(v)
            }
            Err(OsError::Internal) => {
                self.internal += 1;
                None
            }
            Err(_) => {
                self.denied += 1;
                None
            }
        }
    }
}

#[test]
fn conflicting_syscalls_hammering_shared_objects_stay_consistent() {
    let kernel = Kernel::boot(LaminarModule);
    kernel.add_user(UserId(1), "alice");
    let root = kernel.login(UserId(1)).expect("login");

    // The shared battleground: one unlabeled pipe, one secret file in a
    // secret dir, one churned path. Workers hold both capabilities for
    // the secrecy tag so they can taint and untaint at will; their
    // reads of the hot file race against each other's label changes.
    let tag = root.alloc_tag().expect("tag");
    let secret = SecPair::secrecy_only(Label::singleton(tag));
    kernel.install_dir("/tmp/vault", secret.clone()).expect("install");
    root.set_task_label(LabelType::Secrecy, Label::singleton(tag)).expect("taint");
    let fd = root.create_file_labeled("/tmp/vault/hot", secret).expect("create hot");
    root.write(fd, b"seed-contents").expect("seed write");
    root.close(fd).expect("close");
    root.set_task_label(LabelType::Secrecy, Label::empty()).expect("untaint");
    let (pr, pw) = root.pipe().expect("pipe");

    // Fork the workers *after* the pipe so the fd numbers are shared.
    let caps = CapSet::from_caps([Capability::plus(tag), Capability::minus(tag)]);
    let workers: Vec<Vec<TaskHandle>> = (0..WORKERS)
        .map(|_| vec![root.fork(Some(caps.clone())).expect("fork worker")])
        .collect();

    let rolled_back_before = laminar_os::syscalls_rolled_back();
    let hooks_before = kernel.hook_calls();
    let millis = std::env::var("LAMINAR_STRESS_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000u64);
    let deadline = Instant::now() + Duration::from_millis(millis);

    let tallies: Vec<Tally> = kernel.run_parallel(workers, |w, own| {
        let me = &own[0];
        let mut rng = SplitMix64::new(0x57E5_5000 + w as u64);
        let mut t = Tally::default();
        while Instant::now() < deadline {
            match rng.next_u64() % 16 {
                // The shared pipe: every worker reads and writes the
                // same buffer (silent drops apply while tainted).
                0..=3 => {
                    const PAYLOAD: [u8; 48] = [0xA5; 48];
                    let n = 1 + (rng.next_u64() % 48) as usize;
                    if let Some(written) = t.absorb(me.write(pw, &PAYLOAD[..n])) {
                        t.pipe_written += written as u64;
                    }
                }
                4..=6 => {
                    if let Some(data) = t.absorb(me.read(pr, 64)) {
                        t.pipe_read += data.len() as u64;
                    }
                }
                // The hot labeled file: allowed or denied depending on
                // the worker's racing taint state.
                7..=8 => {
                    t.absorb(me.write_file_at("/tmp/vault/hot", &[w as u8; 16]));
                }
                9..=10 => {
                    t.absorb(me.read_file_at("/tmp/vault/hot", 64));
                }
                // Racing label flips on this worker's own task.
                11 => {
                    let l = if rng.next_u64().is_multiple_of(2) {
                        Label::singleton(tag)
                    } else {
                        Label::empty()
                    };
                    t.absorb(me.set_task_label(LabelType::Secrecy, l));
                }
                // Create/unlink churn on ONE shared name: Exists and
                // NotFound denials are the expected collision mode.
                12..=13 => {
                    if let Some(fd) =
                        t.absorb(me.create_file_labeled("/tmp/churn", SecPair::default()))
                    {
                        me.close(fd).ok();
                    }
                }
                14 => {
                    t.absorb(me.unlink("/tmp/churn"));
                }
                // Label inspection of the hot file (the traversal
                // races the other workers' label flips).
                _ => {
                    t.absorb(me.get_labels("/tmp/vault/hot"));
                }
            }
        }
        t
    });

    // The run terminating at all is the no-deadlock assertion; now the
    // consistency ones.
    let total: Tally = tallies.iter().fold(Tally::default(), |mut a, t| {
        a.ops += t.ops;
        a.ok += t.ok;
        a.denied += t.denied;
        a.internal += t.internal;
        a.pipe_written += t.pipe_written;
        a.pipe_read += t.pipe_read;
        a
    });
    assert!(total.ops > 0, "the storm must have run");
    assert!(total.ok > 0, "some syscalls must succeed under contention");
    assert!(total.denied > 0, "the conflict mix must provoke denials");

    // Every Internal error is a journal rollback and vice versa; with
    // no failpoints armed, the footprint-restart protocol guarantees
    // both are zero (restarts are internal retries, not rollbacks).
    let rollbacks = laminar_os::syscalls_rolled_back() - rolled_back_before;
    assert_eq!(
        total.internal, rollbacks,
        "observed Internal denials must match journal rollbacks"
    );
    assert_eq!(rollbacks, 0, "a clean stress run must not roll anything back");

    // Every op crossed the LSM hooks.
    assert!(kernel.hook_calls() > hooks_before);

    // Pipe conservation: every byte read or still queued was once
    // written (writes over-count — a silent drop or a full buffer
    // still reports success to the writer, by design), and the residue
    // fits the buffer.
    let queued = root.pipe_queued_for_test(pr).expect("queued") as u64;
    assert!(queued as usize <= PIPE_CAPACITY);
    assert!(
        total.pipe_read + queued <= total.pipe_written,
        "bytes read ({}) + queued ({queued}) exceed bytes written ({})",
        total.pipe_read,
        total.pipe_written
    );
}
