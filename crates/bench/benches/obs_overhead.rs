//! Decision-trace (`laminar-obs`) overhead on the SMP workloads of
//! `pr4_smp`: the same three syscall mixes, each measured twice on the
//! same kernel, switched with `Kernel::set_audit_enabled` — the
//! kernel's audit log off (the default; a dispatch reads one relaxed
//! flag) and on (typed events staged per syscall, handed to the
//! kernel's one bounded log under one lock when the syscall finishes).
//!
//! Nobody drains the log during the run, so the enabled numbers are the
//! worst case of a lagging reader: the log wraps and counts truncation
//! rather than blocking the hot path.
//!
//! Results go to stdout and `BENCH_obs_overhead.json` at the repo root.
//! `BENCH_SMOKE=1` shrinks volume and *asserts* the audited kernel
//! keeps ≥ 90% of untraced throughput in every cell (the ≤ 10%
//! enabled-overhead gate; disabled-mode overhead is gated separately by
//! the pr4_smp smoke run, which executes with tracing off).

use laminar_bench::{interleaved_best, overhead_pct};
use laminar_difc::{CapSet, Label, LabelType, SecPair};
use laminar_os::{Fd, Kernel, LaminarModule, TaskHandle, UserId};
use std::sync::Arc;

struct Volume {
    ops_per_worker: usize,
    trials: usize,
    thread_counts: &'static [usize],
    smoke: bool,
}

fn volume() -> Volume {
    if std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1") {
        // Each trial must be long enough to dominate scheduling jitter —
        // sub-millisecond trials make the gate a coin flip on small hosts.
        Volume { ops_per_worker: 2_000, trials: 5, thread_counts: &[1, 2], smoke: true }
    } else {
        Volume {
            ops_per_worker: 4_000,
            trials: 5,
            thread_counts: &[1, 2, 4],
            smoke: false,
        }
    }
}

type WorkerBody = Box<dyn Fn(usize, &TaskHandle, usize) + Sync>;

struct Fixture {
    kernel: Arc<Kernel>,
    workers: Vec<TaskHandle>,
    run: WorkerBody,
}

fn boot() -> (Arc<Kernel>, TaskHandle) {
    let k = Kernel::boot(LaminarModule);
    k.add_user(UserId(1), "bench");
    let root = k.login(UserId(1)).unwrap();
    (k, root)
}

/// Tainted workers on labeled files, 7 reads : 1 write — every
/// iteration crosses flow checks at all the traced layers.
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
    let workers = (0..n).map(|_| root.fork(Some(CapSet::new())).unwrap()).collect();
    Fixture {
        kernel,
        workers,
        run: Box::new(|w, t, i| {
            let path = format!("/tmp/vault/w{w}.dat");
            if i % 8 == 7 {
                t.write_file_at(&path, &[i as u8; 64]).unwrap();
            } else {
                t.read_file_at(&path, 64).unwrap();
            }
        }),
    }
}

/// Per-worker pipe: one 64-byte write, one 64-byte read per iteration —
/// the LSM delivery-verdict emit point on every write.
fn pipe_pingpong(n: usize) -> Fixture {
    let (kernel, root) = boot();
    let pipes: Vec<(Fd, Fd)> = (0..n).map(|_| root.pipe().unwrap()).collect();
    let workers = (0..n).map(|_| root.fork(Some(CapSet::new())).unwrap()).collect();
    Fixture {
        kernel,
        workers,
        run: Box::new(move |w, t, _| {
            let (r, wr) = pipes[w];
            t.write(wr, &[0x42u8; 64]).unwrap();
            let got = t.read(r, 64).unwrap();
            assert_eq!(got.len(), 64);
        }),
    }
}

/// Per-worker path in the shared `/tmp`: create, close, unlink — three
/// commits (three finished spans) per iteration.
fn create_unlink_churn(n: usize) -> Fixture {
    let (kernel, root) = boot();
    let workers = (0..n).map(|_| root.fork(Some(CapSet::new())).unwrap()).collect();
    Fixture {
        kernel,
        workers,
        run: Box::new(|w, t, _| {
            let path = format!("/tmp/churn{w}");
            let fd = t.create(&path).unwrap();
            t.close(fd).unwrap();
            t.unlink(&path).unwrap();
        }),
    }
}

fn run_all(fx: &Fixture, ops_per_worker: usize) {
    let task_sets: Vec<Vec<TaskHandle>> =
        fx.workers.iter().map(|t| vec![t.clone()]).collect();
    fx.kernel.run_parallel(task_sets, |w, own| {
        for i in 0..ops_per_worker {
            (fx.run)(w, &own[0], i);
        }
    });
}

struct Cell {
    threads: usize,
    disabled: f64,
    enabled: f64,
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
        "laminar-obs tracing overhead — {} ops/worker, best of {} interleaved trials, \
         host_cpus={host_cpus}",
        vol.ops_per_worker, vol.trials
    );
    let mut json_workloads = Vec::new();
    let mut failures = Vec::new();
    for (name, build) in workloads {
        println!("\n{name}");
        println!(
            "  {:>7}  {:>15}  {:>14}  {:>9}",
            "threads", "disabled op/s", "enabled op/s", "overhead"
        );
        let mut cells: Vec<Cell> = Vec::new();
        for &n in vol.thread_counts {
            let fx = build(n);
            let total = vol.ops_per_worker * n;
            // Interleaved trials: each runs disabled then enabled back to
            // back, so drift and cache warmth hit both variants. Best-of-N
            // rather than median, because this target gates CI on shared
            // hosts where scheduling noise exceeds the overhead budget.
            let (d_dis, d_en) = interleaved_best(
                vol.trials,
                || {
                    fx.kernel.set_audit_enabled(false);
                    run_all(&fx, vol.ops_per_worker);
                },
                || {
                    fx.kernel.set_audit_enabled(true);
                    run_all(&fx, vol.ops_per_worker);
                    fx.kernel.set_audit_enabled(false);
                },
            );
            let cell = Cell {
                threads: n,
                disabled: total as f64 / d_dis.as_secs_f64(),
                enabled: total as f64 / d_en.as_secs_f64(),
            };
            println!(
                "  {:>7}  {:>15.0}  {:>14.0}  {:>8.1}%",
                n,
                cell.disabled,
                cell.enabled,
                overhead_pct(d_dis, d_en)
            );
            cells.push(cell);
        }
        if vol.smoke {
            for c in &cells {
                if c.enabled < 0.90 * c.disabled {
                    failures.push(format!(
                        "{name}: enabled tracing exceeds the 10% overhead budget at \
                         {} threads ({:.0} vs {:.0} op/s)",
                        c.threads, c.enabled, c.disabled
                    ));
                }
            }
        }
        let rows: Vec<String> = cells
            .iter()
            .map(|c| {
                format!(
                    "        {{\"threads\": {}, \"disabled_ops_per_sec\": {:.0}, \
                     \"enabled_ops_per_sec\": {:.0}, \"enabled_vs_disabled\": {:.3}}}",
                    c.threads,
                    c.disabled,
                    c.enabled,
                    c.enabled / c.disabled
                )
            })
            .collect();
        json_workloads.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \"rows\": [\n{}\n      ]\n    }}",
            rows.join(",\n")
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));

    let json = format!(
        "{{\n  \"bench\": \"BENCH_obs_overhead\",\n  \"host_cpus\": {host_cpus},\n  \
         \"smoke\": {},\n  \"ops_per_worker\": {},\n  \"trials\": {},\n  \
         \"caveat\": \"enabled numbers are the lagging-reader worst case: nothing \
         drains the kernel's audit log mid-run, so it wraps and counts truncation; \
         disabled-mode overhead vs the untraced seed is gated by the pr4_smp \
         smoke run, which executes with tracing off\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        vol.smoke,
        vol.ops_per_worker,
        vol.trials,
        json_workloads.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs_overhead.json");
    if vol.smoke {
        println!("\nsmoke mode: all cells within the 10% budget; not overwriting {path}");
    } else {
        std::fs::write(path, json).unwrap();
        println!("\nwrote {path}");
    }
}
