//! Execution and compilation statistics.
//!
//! The Figure 8 and Figure 9 benchmarks decompose Laminar's overhead into
//! barrier work, allocation work and region entry/exit; these counters
//! are how the harness attributes cost.
//!
//! [`regions_aborted`] is the process-global fail-closed counter: it
//! counts security regions whose labeled writes were rolled back because
//! the region terminated abnormally (an uncaught suppressible exception,
//! or a non-suppressible fault unwinding through the region boundary).
//! It mirrors `laminar_os::syscalls_rolled_back`.

use std::sync::atomic::{AtomicU64, Ordering};

static REGIONS_ABORTED: AtomicU64 = AtomicU64::new(0);

pub(crate) fn note_region_aborted() {
    REGIONS_ABORTED.fetch_add(1, Ordering::Relaxed);
}

/// Number of security regions aborted (labeled writes rolled back) since
/// process start.
#[must_use]
pub fn regions_aborted() -> u64 {
    REGIONS_ABORTED.load(Ordering::Relaxed)
}

/// Counters accumulated by a [`crate::Vm`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Read barriers executed.
    pub read_barriers: u64,
    /// Write barriers executed.
    pub write_barriers: u64,
    /// Static-variable barriers executed.
    pub static_barriers: u64,
    /// Allocation barriers executed (labeled-space allocations).
    pub alloc_barriers: u64,
    /// Dynamic barriers that had to test the region context at run time.
    pub dynamic_dispatches: u64,
    /// Barriers removed at compile time by redundancy elimination.
    pub barriers_eliminated: u64,
    /// Security regions entered.
    pub regions_entered: u64,
    /// Exceptions suppressed at a region boundary (§4.3.3).
    pub exceptions_suppressed: u64,
    /// Regions aborted: labeled writes rolled back to the entry snapshot
    /// because the region terminated without a successful catch.
    pub regions_aborted: u64,
    /// Functions compiled.
    pub functions_compiled: u64,
    /// Abstract compile cost (instructions + inlined barrier bloat).
    pub compile_cost: u64,
    /// `copyAndLabel` operations performed.
    pub copy_and_label: u64,
    /// Lazy VM→OS region syncs performed (labels and capability
    /// suspension), counted as the runtime counts `os_syncs`.
    pub os_label_syncs: u64,
    /// Exits of labeled regions that never synced: the label push the
    /// lazy sync skipped because the region made no syscall.
    pub os_label_syncs_elided: u64,
    /// Instructions interpreted.
    pub instructions: u64,
}

impl VmStats {
    /// Total barriers executed at run time.
    #[must_use]
    pub fn total_barriers(&self) -> u64 {
        self.read_barriers
            + self.write_barriers
            + self.static_barriers
            + self.alloc_barriers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_components() {
        let s = VmStats {
            read_barriers: 2,
            write_barriers: 3,
            static_barriers: 4,
            alloc_barriers: 1,
            ..VmStats::default()
        };
        assert_eq!(s.total_barriers(), 10);
    }
}
