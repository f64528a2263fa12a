//! Cost regime: labels keep no state beyond the values that hold them.
//! A tag session — `alloc_tag`, raise the secrecy label to the fresh
//! tag, lower it again, drop the tag's capabilities — leaves nothing
//! live once it ends, so the heap stays flat however many sessions run.
//! A process-global label table that only grows would keep about 90
//! bytes per session.
//!
//! This binary holds a single test and counts every heap byte of the
//! process through its own global allocator, so no other test's
//! allocations mix into the count. CI runs it in release mode:
//! `cargo test -p laminar-testkit --release --test label_memory`.

use laminar_difc::{Capability, Label, LabelType};
use laminar_os::{Kernel, LaminarModule, TaskHandle, UserId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, keeping [`LIVE`] up to date.
struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// side effect that never touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Sessions run before the measurement, so maps and journals reach
/// their working capacity first.
const WARM_UP: usize = 2_000;
/// Sessions measured.
const SESSIONS: usize = 18_000;
/// Live-byte growth allowed over [`SESSIONS`]: far below one byte per
/// session.
const TOLERANCE: isize = 4 * 1024;

fn session(task: &TaskHandle) {
    let t = task.alloc_tag().unwrap();
    task.set_task_label(LabelType::Secrecy, Label::singleton(t)).unwrap();
    task.set_task_label(LabelType::Secrecy, Label::empty()).unwrap();
    task.drop_capabilities(&[Capability::plus(t), Capability::minus(t)]).unwrap();
}

#[test]
fn tag_sessions_leave_no_live_heap_bytes_behind() {
    let kernel = Kernel::boot(LaminarModule);
    kernel.add_user(UserId(1), "alice");
    let alice = kernel.login(UserId(1)).unwrap();
    for _ in 0..WARM_UP {
        session(&alice);
    }
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..SESSIONS {
        session(&alice);
    }
    let grown = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        grown <= TOLERANCE,
        "{SESSIONS} tag sessions left {grown} more heap bytes live (bound {TOLERANCE})"
    );
}
