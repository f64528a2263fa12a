//! Per-layer metrics read from the counters the crates export, shared by
//! the workloads of a traced run.

use crate::difc_probe::{flows_probe, width_stats};
use crate::report::{Values, OS_KINDS};
use crate::trace::SpanStats;
use laminar::FaultStats;
use laminar_difc::{FlowCacheStats, InternStats, SecPair};
use laminar_obs::AuditLog;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Process-global counters read before a loop.
#[derive(Debug)]
pub struct Counters {
    interned: InternStats,
    cache: FlowCacheStats,
    faults: FaultStats,
}

fn ratio(n: f64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n / d as f64
    }
}

impl Counters {
    /// Reads the counters now.
    #[must_use]
    pub fn read() -> Counters {
        Counters {
            interned: laminar_difc::intern_stats(),
            cache: laminar_difc::flow_cache_stats(),
            faults: laminar::fault_stats(),
        }
    }

    /// Records the counter deltas since `self` over a loop of `ops` ops:
    /// the difc cache and interner and the fail-closed fault counters.
    /// For a workload that drives a kernel, `hooks` is the number of LSM
    /// hook calls the loop made, and `denied` the number of ops the kernel
    /// was expected to deny or silently drop.
    pub fn deltas(
        &self,
        ops: u64,
        hooks: Option<u64>,
        denied: Option<u64>,
        v: &mut Values,
    ) {
        let now = Counters::read();
        let hits = (now.cache.hits + now.cache.fast_hits)
            .saturating_sub(self.cache.hits + self.cache.fast_hits);
        let misses = now.cache.misses.saturating_sub(self.cache.misses);
        v.insert("difc.cache_hits".into(), hits as f64);
        v.insert("difc.cache_misses".into(), misses as f64);
        v.insert("difc.cache_hit_ratio".into(), ratio(hits as f64, hits + misses));
        v.insert(
            "difc.cache_evictions".into(),
            now.cache.evictions.saturating_sub(self.cache.evictions) as f64,
        );
        v.insert("difc.interned_labels".into(), now.interned.labels as f64);
        v.insert(
            "difc.interned_growth".into(),
            now.interned.labels.saturating_sub(self.interned.labels) as f64,
        );
        v.insert(
            "difc.interned_pairs_growth".into(),
            now.interned.pairs.saturating_sub(self.interned.pairs) as f64,
        );
        v.insert(
            "util.poison_recoveries".into(),
            now.faults.poison_recoveries.saturating_sub(self.faults.poison_recoveries)
                as f64,
        );
        v.insert(
            "vm.regions_aborted".into(),
            now.faults.regions_aborted.saturating_sub(self.faults.regions_aborted) as f64,
        );
        if let Some(h) = hooks {
            v.insert(
                "os.rolled_back".into(),
                now.faults
                    .syscalls_rolled_back
                    .saturating_sub(self.faults.syscalls_rolled_back)
                    as f64,
            );
            v.insert("os.hook_calls_per_op".into(), ratio(h as f64, ops));
        }
        if let Some(d) = denied {
            v.insert("os.denied_per_op".into(), ratio(d as f64, ops));
        }
    }
}

/// Per-kind call count, median and p99 of the `os.<kind>` spans.
pub fn os_span_metrics(spans: &BTreeMap<&'static str, SpanStats>, v: &mut Values) {
    for k in OS_KINDS {
        if let Some(s) = spans.get(format!("os.{k}").as_str()) {
            v.insert(format!("os.{k}.calls"), s.calls as f64);
            v.insert(format!("os.{k}.p50_ns"), s.p50_ns);
            v.insert(format!("os.{k}.p99_ns"), s.p99_ns);
        }
    }
}

/// Audit-trace size over a loop of `ops` ops, and the time to take and
/// export the snapshot.
pub fn obs_metrics(snapshot: impl FnOnce() -> AuditLog, ops: u64, v: &mut Values) {
    let t = Instant::now();
    let log = snapshot();
    black_box(log.to_json_lines().len());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let records = log.records.len() as u64 + log.truncated;
    v.insert("obs.records".into(), records as f64);
    v.insert("obs.records_per_op".into(), ratio(records as f64, ops));
    v.insert("obs.truncated".into(), log.truncated as f64);
    v.insert("obs.snapshot_ms".into(), ms);
}

/// Label widths of `labels` and the replay probe over `flows`.
pub fn difc_probe_metrics(
    labels: &[SecPair],
    flows: &[(SecPair, SecPair)],
    v: &mut Values,
) {
    let (p50, max) = width_stats(labels);
    v.insert("difc.label_width_p50".into(), p50);
    v.insert("difc.label_width_max".into(), max);
    let (plain, cached) = flows_probe(flows);
    v.insert("difc.flows_to_ns".into(), plain);
    v.insert("difc.flows_to_cached_ns".into(), cached);
}
