//! `std::sync` lock wrappers with a `parking_lot`-style API.
//!
//! `lock()`/`read()`/`write()` return the guard directly: a panicking
//! thread leaves data in whatever state it reached, and every structure
//! guarded here is either rebuilt per test or protected by the kernel's
//! own invariants, so the wrappers recover from poisoning via
//! [`std::sync::PoisonError::into_inner`] instead of propagating an
//! `unwrap()` to every call site.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Process-wide count of lock acquisitions that found the underlying
/// `std` lock poisoned and recovered the guard.
static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// Number of poisoned-lock recoveries since process start. Monotone:
/// readers compare before/after values.
#[must_use]
pub fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

/// Unwraps a poisonable lock result, counting actual recoveries.
fn recover<G>(r: Result<G, std::sync::PoisonError<G>>) -> G {
    match r {
        Ok(g) => g,
        Err(p) => {
            POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
            p.into_inner()
        }
    }
}

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new lock holding `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        recover(self.0.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available; poison is recovered.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        recover(self.0.lock())
    }

    /// Tries to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(recover(Err(p))),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.0.get_mut())
    }
}

#[cfg(feature = "fault-injection")]
impl<T: ?Sized + Send> Mutex<T> {
    /// Fault injection for the conformance testkit: poisons the
    /// underlying `std` mutex by panicking a helper thread while it
    /// holds the guard, so the *next* `lock()` exercises the
    /// poison-recovery path. The injected panic is silenced and joined
    /// before returning; data is untouched (the helper mutates nothing).
    pub fn poison_for_test(&self) {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard =
                    self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                panic!("injected lock poison");
            })
            .join()
        });
        std::panic::set_hook(prev);
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Self {
        Mutex::new(value)
    }
}

/// A reader-writer lock whose `read()`/`write()` return guards directly.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new lock holding `value`.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        recover(self.0.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard; poison is recovered.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        recover(self.0.read())
    }

    /// Acquires an exclusive write guard; poison is recovered.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        recover(self.0.write())
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.0.get_mut())
    }
}

#[cfg(feature = "fault-injection")]
impl<T: ?Sized + Send + Sync> RwLock<T> {
    /// Fault injection, as [`Mutex::poison_for_test`]: a helper thread
    /// panics while holding the *write* guard (a panicking reader does
    /// not poison a `std` rwlock), so the next `read()` or `write()`
    /// takes the poison-recovery path. Data is untouched.
    pub fn poison_for_test(&self) {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard =
                    self.0.write().unwrap_or_else(std::sync::PoisonError::into_inner);
                panic!("injected lock poison");
            })
            .join()
        });
        std::panic::set_hook(prev);
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.try_read() {
            Ok(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            Err(_) => f.write_str("RwLock(<locked>)"),
        }
    }
}

impl<T> From<T> for RwLock<T> {
    fn from(value: T) -> Self {
        RwLock::new(value)
    }
}

/// A value alone on its own 128-byte block: aligned to 128 bytes, so
/// no other value starts in the block it starts in, and its size
/// rounds up to a multiple of 128.
///
/// Wrap a lock word or counter that one core writes while another core
/// reads a neighbour of it: without the padding both sit on one cache
/// line, and every write invalidates the other core's copy (false
/// sharing). 128 bytes, not 64, because the adjacent-line prefetcher
/// fetches 64-byte lines in pairs.
#[derive(Default, Debug)]
#[repr(align(128))]
pub struct CachePadded<T>(T);

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Runtime lock-order lint.
///
/// Code that participates in a ranked locking discipline calls
/// [`lock_order::acquire`] with the lock's numeric rank immediately
/// after taking the lock and [`lock_order::release`] when the guard
/// drops. Ranks held by one thread must be strictly ascending; any
/// out-of-order (or same-rank re-entrant) acquisition panics at the
/// acquiring site, turning a potential ABBA deadlock into an immediate,
/// attributable test failure. The lint runs in every build profile.
///
/// Ranks are `0..64`: a thread's held ranks are one bitmask, so an
/// acquisition is a leading-zeros count and an or, and a release is
/// an and-not, in any order.
pub mod lock_order {
    use std::cell::Cell;

    /// Exclusive upper bound on ranks (the bits of the held-rank mask).
    pub const MAX_RANKS: u32 = u64::BITS;

    thread_local! {
        /// Ranks currently held by this thread, one bit per rank. The
        /// highest set bit is the maximum held rank, even after
        /// out-of-LIFO-order releases clear interior bits.
        static HELD: Cell<u64> = const { Cell::new(0) };
    }

    /// Records that the current thread acquired a lock of rank `rank`.
    ///
    /// # Panics
    /// Panics if `rank` is not below [`MAX_RANKS`], or if the thread
    /// already holds a lock whose rank is greater than or equal to
    /// `rank` — a violation of the total lock order.
    pub fn acquire(rank: u32) {
        assert!(rank < MAX_RANKS, "lock-order rank {rank} is not below {MAX_RANKS}");
        HELD.with(|h| {
            let held = h.get();
            if held != 0 {
                let top = MAX_RANKS - 1 - held.leading_zeros();
                assert!(
                    rank > top,
                    "lock-order violation: acquiring rank {rank} while \
                     holding rank {top} (locks must be taken in strictly \
                     ascending rank order)"
                );
            }
            h.set(held | 1 << rank);
        });
    }

    /// Records that the current thread released a lock of rank `rank`.
    /// Releasing a rank not held is a no-op (robust against unwinds
    /// that already cleared the entry).
    pub fn release(rank: u32) {
        if rank < MAX_RANKS {
            HELD.with(|h| h.set(h.get() & !(1 << rank)));
        }
    }

    /// Number of ranked locks the current thread holds. Test aid.
    #[must_use]
    pub fn held_count() -> usize {
        HELD.with(|h| h.get().count_ones() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn mutex_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7); // still usable
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_poison_is_recovered() {
        let m = Mutex::new(41);
        m.poison_for_test();
        let before = poison_recoveries();
        *m.lock() += 1; // recovery path, not a panic
        assert_eq!(*m.lock(), 42);
        assert!(poison_recoveries() > before, "recovery must be counted");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_rwlock_poison_is_recovered_by_readers_and_writers() {
        let l = RwLock::new(41);
        l.poison_for_test();
        let before = poison_recoveries();
        assert_eq!(*l.read(), 41); // a shared acquisition recovers too
        *l.write() += 1;
        assert_eq!(*l.read(), 42);
        assert!(poison_recoveries() > before, "recovery must be counted");
    }

    #[test]
    fn clean_locks_do_not_count_recoveries() {
        let m = Mutex::new(0);
        for _ in 0..10 {
            *m.lock() += 1;
        }
        let l = RwLock::new(0);
        let _ = *l.read();
        *l.write() += 1;
        // Other tests may poison locks concurrently; all we can assert
        // locally is that these clean acquisitions did not have to recover
        // anything on a lock nobody else touches.
        assert_eq!(*m.lock(), 10);
    }

    #[test]
    fn try_lock_contends() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn cache_padded_values_start_128_bytes_apart() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<[u8; 129]>>(), 256);
        let mut pair: [CachePadded<AtomicU64>; 2] = Default::default();
        *pair[1].get_mut() = 1;
        let a = std::ptr::addr_of!(pair[0]) as usize;
        let b = std::ptr::addr_of!(pair[1]) as usize;
        assert_eq!((a % 128, b - a), (0, 128));
        assert_eq!(pair[0].load(Ordering::Relaxed) + pair[1].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn lock_order_allows_ascending_and_interior_release() {
        lock_order::acquire(1);
        lock_order::acquire(5);
        lock_order::acquire(9);
        assert_eq!(lock_order::held_count(), 3);
        lock_order::release(5); // out-of-LIFO-order release is fine
        lock_order::acquire(12); // still above the max held (9)
        lock_order::release(12);
        lock_order::release(9);
        lock_order::release(1);
        assert_eq!(lock_order::held_count(), 0);
    }

    #[test]
    fn lock_order_panics_on_descending_acquisition() {
        lock_order::acquire(5);
        let r = std::panic::catch_unwind(|| lock_order::acquire(3));
        lock_order::release(5);
        let err = r.expect_err("descending acquisition must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-order violation"), "{msg}");
        // the failed acquisition must not have been recorded
        assert_eq!(lock_order::held_count(), 0);
    }

    #[test]
    fn lock_order_panics_on_same_rank_reentry() {
        lock_order::acquire(7);
        let r = std::panic::catch_unwind(|| lock_order::acquire(7));
        lock_order::release(7);
        assert!(r.is_err(), "same-rank re-entry must panic");
        assert_eq!(lock_order::held_count(), 0);
    }

    #[test]
    fn lock_order_panics_on_a_rank_past_the_mask() {
        lock_order::acquire(63); // the top rank is usable
        lock_order::release(63);
        for rank in [lock_order::MAX_RANKS, lock_order::MAX_RANKS + 1, u32::MAX] {
            let r = std::panic::catch_unwind(|| lock_order::acquire(rank));
            assert!(r.is_err(), "rank {rank} must panic");
            lock_order::release(rank); // a no-op, not a shift overflow
        }
        assert_eq!(lock_order::held_count(), 0);
    }
}
