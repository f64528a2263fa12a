//! **PR 4** — lmbench-style multi-threaded syscall throughput on the
//! sharded kernel.
//!
//! Three workloads, each at 1/2/4/8 worker threads, each measured twice
//! on the *same* kernel: once behind a big lock (this bench holds one
//! global mutex around each syscall, emulating the pre-shard kernel
//! lock) and once sharded, with no lock of the bench's own.
//!
//! * `labeled_file_read_heavy` — per-worker labeled file in a secret
//!   dir, 7 reads : 1 write. Disjoint inode shards; the workload the
//!   shard split exists for.
//! * `pipe_pingpong` — per-worker pipe, 64-byte write then read.
//! * `create_unlink_churn` — per-worker path created and unlinked; two
//!   directory-mutating syscalls per iteration on the shared `/tmp`.
//!
//! Results go to stdout and to `BENCH_PR4_smp.json` at the repo root.
//! `BENCH_SMOKE=1` shrinks volume, measures only 1 and 2 threads, and
//! *asserts* that the sharded kernel is no slower than the big-lock
//! baseline at each thread count (CI's anti-regression gate).
//!
//! Honesty note: aggregate wall-clock throughput cannot exceed what the
//! host's cores can retire. The JSON records `host_cpus`; on a 1-CPU
//! host the interesting ratio is sharded-vs-biglock at each thread
//! count (lock handoff and serialisation overhead), not parallel
//! speedup, and the JSON says so in its `caveat` field.

use laminar_bench::median_time;
use laminar_difc::{CapSet, Label, LabelType, SecPair};
use laminar_os::{Fd, Kernel, LaminarModule, TaskHandle, UserId};
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Volume {
    ops_per_worker: usize,
    trials: usize,
    thread_counts: &'static [usize],
    smoke: bool,
}

fn volume() -> Volume {
    if std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1") {
        Volume { ops_per_worker: 400, trials: 3, thread_counts: &[1, 2], smoke: true }
    } else {
        Volume {
            ops_per_worker: 4_000,
            trials: 5,
            thread_counts: &[1, 2, 4, 8],
            smoke: false,
        }
    }
}

/// One iteration of a workload: `f(worker_index, handle, iteration,
/// big_lock)`, issuing each syscall through [`sys`].
type WorkerBody = Box<dyn Fn(usize, &TaskHandle, usize, Option<&Mutex<()>>) + Sync>;

/// A workload fixture: a booted kernel plus one task handle per worker,
/// and the per-iteration body each worker runs.
struct Fixture {
    kernel: Arc<Kernel>,
    workers: Vec<TaskHandle>,
    run: WorkerBody,
}

/// Issues one syscall, holding `big_lock` around it when given: the
/// big-lock baseline serialises every syscall, as the pre-shard kernel
/// did.
fn sys<R>(big_lock: Option<&Mutex<()>>, call: impl FnOnce() -> R) -> R {
    let _held = big_lock.map(|m| m.lock().unwrap());
    call()
}

fn boot() -> (Arc<Kernel>, TaskHandle) {
    let k = Kernel::boot(LaminarModule);
    k.add_user(UserId(1), "bench");
    let root = k.login(UserId(1)).unwrap();
    (k, root)
}

/// Per-worker labeled file in a secret dir; workers are tainted at fork
/// so every read and write crosses a real flow check. 7 reads : 1 write.
fn labeled_file_read_heavy(n: usize) -> Fixture {
    let (kernel, root) = boot();
    let tag = root.alloc_tag().unwrap();
    let secret = SecPair::secrecy_only(Label::singleton(tag));
    kernel.install_dir("/tmp/vault", secret.clone()).unwrap();
    root.set_task_label(LabelType::Secrecy, Label::singleton(tag)).unwrap();
    for w in 0..n {
        let fd = root
            .create_file_labeled(&format!("/tmp/vault/w{w}.dat"), secret.clone())
            .unwrap();
        root.write(fd, &[0u8; 64]).unwrap();
        root.close(fd).unwrap();
    }
    // Forked while tainted: the workers inherit the secrecy label.
    let workers = (0..n).map(|_| root.fork(Some(CapSet::new())).unwrap()).collect();
    Fixture {
        kernel,
        workers,
        run: Box::new(|w, t, i, big| {
            let path = format!("/tmp/vault/w{w}.dat");
            if i % 8 == 7 {
                sys(big, || t.write_file_at(&path, &[i as u8; 64])).unwrap();
            } else {
                sys(big, || t.read_file_at(&path, 64)).unwrap();
            }
        }),
    }
}

/// Per-worker pipe: one 64-byte write, one 64-byte read per iteration.
fn pipe_pingpong(n: usize) -> Fixture {
    let (kernel, root) = boot();
    let pipes: Vec<(Fd, Fd)> = (0..n).map(|_| root.pipe().unwrap()).collect();
    let workers = (0..n).map(|_| root.fork(Some(CapSet::new())).unwrap()).collect();
    Fixture {
        kernel,
        workers,
        run: Box::new(move |w, t, _, big| {
            let (r, wr) = pipes[w];
            sys(big, || t.write(wr, &[0x42u8; 64])).unwrap();
            let got = sys(big, || t.read(r, 64)).unwrap();
            assert_eq!(got.len(), 64);
        }),
    }
}

/// Per-worker path in the shared `/tmp`: create, close, unlink.
fn create_unlink_churn(n: usize) -> Fixture {
    let (kernel, root) = boot();
    let workers = (0..n).map(|_| root.fork(Some(CapSet::new())).unwrap()).collect();
    Fixture {
        kernel,
        workers,
        run: Box::new(|w, t, _, big| {
            let path = format!("/tmp/churn{w}");
            let fd = sys(big, || t.create(&path)).unwrap();
            sys(big, || t.close(fd)).unwrap();
            sys(big, || t.unlink(&path)).unwrap();
        }),
    }
}

/// One timed cell: `ops_per_worker` iterations on each of the fixture's
/// workers through [`Kernel::run_parallel`], median of `trials`, with
/// every syscall behind one shared mutex when `big_lock` is set.
fn measure(
    fx: &Fixture,
    ops_per_worker: usize,
    trials: usize,
    big_lock: bool,
) -> Duration {
    let task_sets: Vec<Vec<TaskHandle>> =
        fx.workers.iter().map(|t| vec![t.clone()]).collect();
    let lock = Mutex::new(());
    let big = big_lock.then_some(&lock);
    median_time(trials, || {
        fx.kernel.run_parallel(task_sets.clone(), |w, own| {
            for i in 0..ops_per_worker {
                (fx.run)(w, &own[0], i, big);
            }
        });
    })
}

fn ops_per_sec(total_ops: usize, d: Duration) -> f64 {
    total_ops as f64 / d.as_secs_f64()
}

struct Cell {
    threads: usize,
    biglock: f64,
    sharded: f64,
}

fn main() {
    let vol = volume();
    let host_cpus =
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    type WorkloadRow = (&'static str, fn(usize) -> Fixture);
    let workloads: &[WorkloadRow] = &[
        ("labeled_file_read_heavy", labeled_file_read_heavy),
        ("pipe_pingpong", pipe_pingpong),
        ("create_unlink_churn", create_unlink_churn),
    ];

    println!(
        "PR4 SMP syscall throughput — {} ops/worker, median of {} trials, host_cpus={}",
        vol.ops_per_worker, vol.trials, host_cpus
    );
    let mut json_workloads = Vec::new();
    for (name, build) in workloads {
        println!("\n{name}");
        println!(
            "  {:>7}  {:>14}  {:>14}  {:>9}",
            "threads", "biglock op/s", "sharded op/s", "ratio"
        );
        let mut cells: Vec<Cell> = Vec::new();
        for &n in vol.thread_counts {
            let fx = build(n);
            let total = vol.ops_per_worker * n;
            // Warm-up (page in paths, fill caches) outside the timing.
            fx.kernel.run_parallel(
                fx.workers.iter().map(|t| vec![t.clone()]).collect(),
                |w, own| {
                    for i in 0..32 {
                        (fx.run)(w, &own[0], i, None);
                    }
                },
            );
            // Interleave the two modes so frequency drift hits both.
            let big = measure(&fx, vol.ops_per_worker, vol.trials, true);
            let shard = measure(&fx, vol.ops_per_worker, vol.trials, false);
            let cell = Cell {
                threads: n,
                biglock: ops_per_sec(total, big),
                sharded: ops_per_sec(total, shard),
            };
            println!(
                "  {:>7}  {:>14.0}  {:>14.0}  {:>8.2}x",
                n,
                cell.biglock,
                cell.sharded,
                cell.sharded / cell.biglock
            );
            cells.push(cell);
        }
        if vol.smoke {
            for c in &cells {
                assert!(
                    c.sharded >= 0.85 * c.biglock,
                    "{name}: sharded kernel regressed vs big-lock at {} threads \
                     ({:.0} vs {:.0} op/s)",
                    c.threads,
                    c.sharded,
                    c.biglock
                );
            }
        }
        let rows: Vec<String> = cells
            .iter()
            .map(|c| {
                format!(
                    "        {{\"threads\": {}, \"biglock_ops_per_sec\": {:.0}, \
                     \"sharded_ops_per_sec\": {:.0}, \"sharded_vs_biglock\": {:.3}}}",
                    c.threads,
                    c.biglock,
                    c.sharded,
                    c.sharded / c.biglock
                )
            })
            .collect();
        let agg = cells
            .iter()
            .find(|c| c.threads == 4)
            .map_or(1.0, |c4| c4.sharded / cells[0].sharded);
        json_workloads.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \"rows\": [\n{}\n      ],\n      \
             \"sharded_aggregate_4t_vs_1t\": {agg:.3}\n    }}",
            rows.join(",\n")
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"BENCH_PR4_smp\",\n  \"host_cpus\": {host_cpus},\n  \
         \"smoke\": {},\n  \"ops_per_worker\": {},\n  \"trials\": {},\n  \
         \"caveat\": \"aggregate wall-clock throughput is bounded by host_cpus; on a \
         single-CPU host the meaningful column is sharded_vs_biglock at each thread \
         count (serialisation overhead removed by the shard split), while \
         sharded_aggregate_4t_vs_1t reflects hardware parallelism, not kernel \
         scalability\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        vol.smoke,
        vol.ops_per_worker,
        vol.trials,
        json_workloads.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR4_smp.json");
    if vol.smoke {
        println!("\nsmoke mode: not overwriting {path}");
    } else {
        std::fs::write(path, json).unwrap();
        println!("\nwrote {path}");
    }
}
