//! Fail-closed fault counters for the kernel.
//!
//! [`syscalls_rolled_back`] counts syscalls whose body faulted (panicked)
//! and were undone at the dispatch boundary — each one returned
//! [`crate::OsError::Internal`] after the transaction journal restored
//! every mutated entry. The counter is process-global (the kernel is a
//! library, not a process) and monotone.

use std::sync::atomic::{AtomicU64, Ordering};

static SYSCALLS_ROLLED_BACK: AtomicU64 = AtomicU64::new(0);

pub(crate) fn note_syscall_rolled_back() {
    SYSCALLS_ROLLED_BACK.fetch_add(1, Ordering::Relaxed);
}

/// Number of syscalls rolled back after a caught internal fault since
/// process start.
#[must_use]
pub fn syscalls_rolled_back() -> u64 {
    SYSCALLS_ROLLED_BACK.load(Ordering::Relaxed)
}
