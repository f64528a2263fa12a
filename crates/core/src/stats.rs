//! Per-principal runtime statistics and the global fault counters.
//!
//! Table 3 reports the fraction of execution time spent inside security
//! regions; Figure 9 decomposes application overhead into region
//! start/end, allocation barriers and read/write barriers. These
//! counters (and the region timer) are what the benchmark harness reads.

/// Snapshot of the process-global fail-closed fault counters across all
/// three layers: lock-poison recoveries in the utility layer, syscall
/// rollbacks at the kernel dispatch boundary, and security-region aborts
/// in the VM. Together they answer "did anything fault, and was every
/// fault contained?" after a stress or fault injection run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Mutex poison events recovered by `laminar_util::sync`.
    pub poison_recoveries: u64,
    /// Kernel syscalls rolled back after an internal fault
    /// ([`laminar_os::syscalls_rolled_back`]).
    pub syscalls_rolled_back: u64,
    /// VM security regions whose labeled writes were rolled back
    /// ([`laminar_vm::regions_aborted`]).
    pub regions_aborted: u64,
}

impl FaultStats {
    /// Total contained faults across all layers.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.poison_recoveries + self.syscalls_rolled_back + self.regions_aborted
    }
}

/// Reads the current global fault counters of every layer.
#[must_use]
pub fn fault_stats() -> FaultStats {
    FaultStats {
        poison_recoveries: laminar_util::sync::poison_recoveries(),
        syscalls_rolled_back: laminar_os::syscalls_rolled_back(),
        regions_aborted: laminar_vm::regions_aborted(),
    }
}

/// Counters accumulated by a [`crate::Principal`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Security regions entered.
    pub regions_entered: u64,
    /// Nanoseconds spent inside security regions (body + catch).
    pub region_ns: u64,
    /// Reads of labeled cells (static-barrier API).
    pub labeled_reads: u64,
    /// Writes of labeled cells (static-barrier API).
    pub labeled_writes: u64,
    /// Labeled allocations.
    pub labeled_allocs: u64,
    /// `copy_and_label` operations.
    pub copies: u64,
    /// Dynamic barriers that had to look up the region context.
    pub dynamic_dispatches: u64,
    /// Exceptions suppressed at region boundaries.
    pub exceptions_suppressed: u64,
    /// VM→OS label synchronisations performed.
    pub os_syncs: u64,
    /// Label synchronisations elided because the region made no syscall.
    pub os_syncs_elided: u64,
    /// Capabilities created via `create_and_add_capability`.
    pub caps_created: u64,
}

impl RuntimeStats {
    /// Merges another principal's counters into this one (for
    /// application-wide aggregation).
    pub fn merge(&mut self, other: &RuntimeStats) {
        self.regions_entered += other.regions_entered;
        self.region_ns += other.region_ns;
        self.labeled_reads += other.labeled_reads;
        self.labeled_writes += other.labeled_writes;
        self.labeled_allocs += other.labeled_allocs;
        self.copies += other.copies;
        self.dynamic_dispatches += other.dynamic_dispatches;
        self.exceptions_suppressed += other.exceptions_suppressed;
        self.os_syncs += other.os_syncs;
        self.os_syncs_elided += other.os_syncs_elided;
        self.caps_created += other.caps_created;
    }

    /// Total labeled-data accesses.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.labeled_reads + self.labeled_writes
    }

    /// Fraction of `total_ns` spent inside security regions (Table 3's
    /// "% time in SRs").
    #[must_use]
    pub fn pct_in_regions(&self, total_ns: u64) -> f64 {
        if total_ns == 0 {
            0.0
        } else {
            100.0 * self.region_ns as f64 / total_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums() {
        let mut a =
            RuntimeStats { labeled_reads: 2, region_ns: 10, ..Default::default() };
        let b =
            RuntimeStats { labeled_reads: 3, labeled_writes: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.labeled_reads, 5);
        assert_eq!(a.labeled_writes, 1);
        assert_eq!(a.region_ns, 10);
        assert_eq!(a.total_accesses(), 6);
    }

    #[test]
    fn pct_in_regions_handles_zero() {
        let s = RuntimeStats { region_ns: 50, ..Default::default() };
        assert_eq!(s.pct_in_regions(0), 0.0);
        assert!((s.pct_in_regions(200) - 25.0).abs() < 1e-9);
    }
}
