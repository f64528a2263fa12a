//! Per-principal runtime statistics and the global fault counters.
//!
//! Table 3 reports the fraction of execution time spent inside security
//! regions; Figure 9 decomposes application overhead into region
//! start/end, allocation barriers and read/write barriers. These
//! counters (and the region timer) are what the benchmark harness reads.
//!
//! The region timer is sampled: a principal times each of its first 64
//! outermost regions after a stats reset, then one in 16, drawn at
//! random and weighted by 16, so `region_ns` estimates the time spent in
//! regions and `regions_timed` is its sample size.

use laminar_util::SplitMix64;
use std::time::Instant;

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
    /// Nanoseconds spent inside security regions (entry, body, catch and
    /// exit), estimated from the timed regions, each weighted by the
    /// inverse of its sampling rate.
    pub region_ns: u64,
    /// Outermost regions the region timer timed: the sample size behind
    /// `region_ns`.
    pub regions_timed: u64,
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
        self.regions_timed += other.regions_timed;
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

    /// Stops a region timer, adding its weighted time.
    pub(crate) fn stop(&mut self, timer: RegionTimer) {
        let ns = timer.started.elapsed().as_nanos() as u64;
        self.region_ns += ns * timer.weight;
        self.regions_timed += 1;
    }
}

/// Outermost regions a principal times exactly, each with weight 1,
/// after a stats reset. Below about 64 samples an estimate is too noisy
/// to report; Table 3's app runs are a few hundred regions spread over
/// their principals, so they stay nearly or wholly exact.
const EXACT_REGIONS: u64 = 64;

/// Past the exact phase, one outermost region in this many is timed,
/// with this weight. The two clock reads cost about 90 ns a pair, as
/// much as the rest of an empty region, so this leaves about 6 ns per
/// region on average.
const SAMPLE_ONE_IN: u64 = 16;

/// Chooses the outermost regions the region timer times. The choice is
/// a random draw, not a fixed stride, which would alias with periodic
/// region patterns such as Battleship's alternating turns; the fixed
/// seed makes a principal's sample the same in every run.
#[derive(Debug)]
pub(crate) struct RegionSampler(SplitMix64);

impl Default for RegionSampler {
    fn default() -> Self {
        RegionSampler(SplitMix64::new(0x5EC0_2E61_0A5E_u64))
    }
}

impl RegionSampler {
    /// Starts the timer of the next outermost region if it is one to
    /// time, given the principal's counters so far.
    pub(crate) fn start(&mut self, stats: &RuntimeStats) -> Option<RegionTimer> {
        let weight = if stats.regions_timed < EXACT_REGIONS {
            1
        } else if self.0.below(SAMPLE_ONE_IN) == 0 {
            SAMPLE_ONE_IN
        } else {
            return None;
        };
        Some(RegionTimer { started: Instant::now(), weight })
    }
}

/// A running region timer and the weight of its sample.
#[derive(Debug)]
pub(crate) struct RegionTimer {
    started: Instant,
    weight: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums() {
        let mut a =
            RuntimeStats { labeled_reads: 2, region_ns: 10, ..Default::default() };
        let b = RuntimeStats {
            labeled_reads: 3,
            labeled_writes: 1,
            regions_timed: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.labeled_reads, 5);
        assert_eq!(a.regions_timed, 2);
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
