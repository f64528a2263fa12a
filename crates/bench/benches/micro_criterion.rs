//! Microbenchmarks of Laminar's primitive operations: label lattice
//! math, structural flow checks on medium and wide labels, labeled-cell
//! barriers (static vs dynamic), region entry/exit and the kernel's hot
//! syscall path. These are the unit costs the Figure 9 decomposition
//! builds on.
//!
//! The harness is hand-rolled (median-of-trials over fixed-count inner
//! loops) so it runs with zero external crates in offline CI.

use laminar::{Laminar, RegionParams};
use laminar_bench::median_time;
use laminar_difc::{Capability, Label, SecPair, Tag};
use laminar_os::{Kernel, LaminarModule, NullModule, OpenMode, UserId};
use laminar_util::SplitMix64;
use std::time::Duration;

const TRIALS: usize = 15;

fn ns_per_op(d: Duration, iters: u64) -> f64 {
    d.as_nanos() as f64 / iters as f64
}

fn report(name: &str, d: Duration, iters: u64) {
    println!("{name:<34} {:>10.1} ns/op", ns_per_op(d, iters));
}

/// Label lattice primitives over medium-width labels.
fn labels() {
    println!("\n== label lattice primitives ==");
    let a = Label::from_tags((1..8).map(Tag::from_raw));
    let b = Label::from_tags((4..12).map(Tag::from_raw));
    const N: u64 = 100_000;

    let d = median_time(TRIALS, || {
        for _ in 0..N {
            std::hint::black_box(a.is_subset_of(std::hint::black_box(&b)));
        }
    });
    report("label_subset", d, N);

    let d = median_time(TRIALS, || {
        for _ in 0..N {
            std::hint::black_box(a.union(std::hint::black_box(&b)));
        }
    });
    report("label_union", d, N);

    let pa = SecPair::secrecy_only(a.clone());
    let pb = SecPair::secrecy_only(b.clone());
    let d = median_time(TRIALS, || {
        for _ in 0..N {
            std::hint::black_box(pa.flows_to(std::hint::black_box(&pb)));
        }
    });
    report("flow_check", d, N);
}

/// Repeated flow checks over a working set of wide labels (16 to 136
/// tags per pair), so the cost of the structural walk on labels far
/// wider than real applications carry stays measured.
///
/// The working set is a *nested chain* of compartment labels (secrecy
/// growing, integrity shrinking), so `pair_i` flows to `pair_j` exactly
/// when `i <= j` — half the checks succeed. Successful subset checks are
/// the expensive case for the structural walk (it must scan the whole
/// superset; failures early-exit), and they dominate real enforcement,
/// where almost every mediated access is a permitted one.
fn wide_label_workload() {
    println!("\n== flow checks on wide labels ==");
    let mut rng = SplitMix64::new(0xBEEF);
    let mut s_universe: Vec<u64> = (1..=256).collect();
    let mut i_universe: Vec<u64> = (1_000..1_256).collect();
    rng.shuffle(&mut s_universe);
    rng.shuffle(&mut i_universe);
    let working_set: Vec<SecPair> = (0..16usize)
        .map(|k| {
            let s = Label::from_tags(
                s_universe[..16 + k * 8].iter().map(|&t| Tag::from_raw(t)),
            );
            let i = Label::from_tags(
                i_universe[..16 + (15 - k) * 8].iter().map(|&t| Tag::from_raw(t)),
            );
            SecPair::new(s, i)
        })
        .collect();

    const ROUNDS: u64 = 2_000;
    let checks = ROUNDS * (16 * 16);

    let d = median_time(TRIALS, || {
        for _ in 0..ROUNDS {
            for a in &working_set {
                for b in &working_set {
                    std::hint::black_box(a.flows_to(std::hint::black_box(b)));
                }
            }
        }
    });
    report("flow_check (16x16 nested set)", d, checks);
}

/// Region entry/exit and the heap barriers.
fn regions_and_barriers() {
    println!("\n== regions and barriers ==");
    let sys = Laminar::boot();
    sys.add_user(UserId(1), "bench");
    let p = sys.login(UserId(1)).unwrap();
    let t = p.create_tag().unwrap();
    let params =
        RegionParams::new().secrecy(Label::singleton(t)).grant(Capability::plus(t));

    const N: u64 = 5_000;
    let d = median_time(TRIALS, || {
        for _ in 0..N {
            p.secure(&params, |_| Ok(()), |_| {}).unwrap();
        }
    });
    report("region_enter_exit", d, N);

    let cell = p.secure(&params, |g| Ok(g.new_labeled(7u64)), |_| {}).unwrap().unwrap();
    let d = median_time(TRIALS, || {
        for _ in 0..N {
            p.secure(&params, |g| cell.read(g, |v| std::hint::black_box(*v)), |_| {})
                .unwrap();
        }
    });
    report("static_barrier_read", d, N);

    let d = median_time(TRIALS, || {
        for _ in 0..N {
            p.secure(&params, |_| cell.read_dyn(|v| std::hint::black_box(*v)), |_| {})
                .unwrap();
        }
    });
    report("dynamic_barrier_read", d, N);
}

/// The kernel's hot syscall path, Null vs Laminar LSM.
fn kernel_hooks() {
    println!("\n== kernel hooks (Null vs Laminar LSM) ==");
    for null_lsm in [true, false] {
        let k =
            if null_lsm { Kernel::boot(NullModule) } else { Kernel::boot(LaminarModule) };
        k.add_user(UserId(1), "bench");
        let t = k.login(UserId(1)).unwrap();
        let fd = t.create("f").unwrap();
        t.close(fd).unwrap();
        let module = if null_lsm { "null" } else { "laminar" };

        const N: u64 = 20_000;
        let d = median_time(TRIALS, || {
            for _ in 0..N {
                std::hint::black_box(t.stat("f").unwrap());
            }
        });
        report(&format!("stat/{module}"), d, N);

        let w = t.open("/dev/null", OpenMode::Write).unwrap();
        let d = median_time(TRIALS, || {
            for _ in 0..N {
                t.write(w, &[0]).unwrap();
            }
        });
        report(&format!("null_io/{module}"), d, N);
    }
}

fn main() {
    println!("Laminar microbenchmarks (median of {TRIALS} trials)");
    labels();
    wide_label_workload();
    regions_and_barriers();
    kernel_hooks();
}
