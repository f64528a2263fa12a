//! Cost regime: a security region allocates nothing in steady state.
//! Entry checks the §4.3.2 rules, saves the thread's labels and
//! capability set and pushes the dynamic-barrier context; exit restores
//! them. Labels and capability sets are shared tag slices, so saving one
//! is a reference-count increment, and the frame and context stacks
//! keep their capacity. After a warm-up, none of the regions below may
//! touch the heap.
//!
//! This binary holds a single test and counts the heap allocations of
//! its own thread through a global allocator, so nothing else in the
//! process mixes into the count. CI runs it in release mode:
//! `cargo test -p laminar-testkit --release --test region_alloc`.

use laminar::{Labeled, Laminar, LaminarResult, RegionParams};
use laminar_apps::freecs::{ChatServer, CmdOutcome};
use laminar_difc::{Capability, Label};
use laminar_os::UserId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread in [`ALLOCS`].
struct Counting;

fn count() {
    // `try_with`: a thread being torn down may still free or allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// side effect that never touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Iterations run before counting, so every stack and map reaches its
/// working capacity.
const WARM_UP: usize = 200;
/// Iterations counted per case.
const ITERS: usize = 10_000;

/// Heap allocations made by `ITERS` calls of `f`, after a warm-up.
fn allocations(mut f: impl FnMut() -> LaminarResult<()>) -> u64 {
    for _ in 0..WARM_UP {
        f().unwrap();
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..ITERS {
        f().unwrap();
    }
    ALLOCS.with(Cell::get) - before
}

#[test]
fn regions_make_no_heap_allocations_in_steady_state() {
    let sys = Laminar::boot();
    sys.add_user(UserId(1), "alice");
    let p = sys.login(UserId(1)).unwrap();
    let t = p.create_tag().unwrap();
    let none = RegionParams::new();
    let it =
        RegionParams::new().integrity(Label::singleton(t)).grant(Capability::plus(t));
    let grants_t = RegionParams::new().grant(Capability::plus(t));
    let (src, dst) = (Labeled::unlabeled(1u64), Labeled::unlabeled(0u64));
    let endorsed = p.secure(&it, |g| Ok(g.new_labeled(0u64)), |_| {}).unwrap().unwrap();

    let srv = ChatServer::new(&sys).unwrap();
    for (name, vip) in [("owner", false), ("pleb", false), ("victim", false)] {
        srv.login_user(name, vip).unwrap();
    }
    srv.create_group("lobby", "owner").unwrap();
    let cmd = |ran: LaminarResult<CmdOutcome>, want: CmdOutcome| {
        assert_eq!(ran?, want);
        Ok(())
    };

    let cases: [(&str, &dyn Fn() -> LaminarResult<()>); 6] = [
        ("unlabeled region, static read, dynamic write", &|| {
            let out = p.secure(
                &none,
                |g| {
                    let v = src.read(g, |v| *v)?;
                    dst.write_dyn(|d| *d = v)
                },
                |_| {},
            )?;
            assert_eq!(out, Some(()));
            Ok(())
        }),
        ("I{t}/t+ region writing an I{t} cell", &|| {
            let out = p.secure(&it, |g| endorsed.write(g, |v| *v += 1), |_| {})?;
            assert_eq!(out, Some(()));
            Ok(())
        }),
        ("nested region", &|| {
            let out = p.secure(
                &grants_t,
                |g| g.secure(&it, |g| endorsed.write(g, |v| *v += 1), |_| {}),
                |_| {},
            )?;
            assert_eq!(out, Some(Some(())));
            Ok(())
        }),
        ("FreeCS leave", &|| cmd(srv.leave("pleb", "lobby"), CmdOutcome::Ok)),
        ("FreeCS kick", &|| cmd(srv.kick("owner", "lobby", "victim"), CmdOutcome::Ok)),
        ("FreeCS denied ban", &|| {
            cmd(srv.ban("owner", "lobby", "victim"), CmdOutcome::Denied)
        }),
    ];
    for (name, case) in cases {
        let n = allocations(case);
        assert_eq!(n, 0, "{name}: {n} heap allocations over {ITERS} regions");
    }
}
