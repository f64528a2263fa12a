//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics of an untraced run: name, unit, better direction.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("ops_per_s", "op/s", "higher"),
    ("op_p50_us", "us", "lower"),
    ("op_p99_us", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// Syscall kinds timed per call in the traced run.
pub const OS_KINDS: [&str; 13] = [
    "null_write",
    "null_read",
    "stat",
    "open",
    "close",
    "read_file_at",
    "write_file_at",
    "pipe_write",
    "pipe_read",
    "create",
    "unlink",
    "set_task_label",
    "alloc_tag",
];

/// Kinds whose median is compared against a `NullModule` twin kernel.
pub const LSM_GAP_KINDS: [&str; 6] =
    ["null_write", "null_read", "stat", "open", "create", "unlink"];

/// FreeCS commands timed per call in the traced run.
pub const APP_CMDS: [&str; 8] =
    ["join", "leave", "say", "msg", "theme", "set_theme", "ban", "kick"];

/// One per-layer metric: name, unit and better direction.
pub type MetricDef = (String, &'static str, &'static str);

/// Every per-layer metric a traced run reports, in report order.
#[must_use]
pub fn per_layer_catalog() -> Vec<MetricDef> {
    let mut c: Vec<MetricDef> = Vec::new();
    let mut add = |name: String, unit, better| c.push((name, unit, better));
    for k in OS_KINDS {
        add(format!("os.{k}.calls"), "count", "higher");
        add(format!("os.{k}.p50_ns"), "ns", "lower");
        add(format!("os.{k}.p99_ns"), "ns", "lower");
    }
    add("os.hook_calls_per_op".into(), "1/op", "lower");
    add("os.rolled_back".into(), "count", "lower");
    add("os.denied_per_op".into(), "1/op", "lower");
    for k in LSM_GAP_KINDS {
        add(format!("os.lsm_gap.{k}_ns"), "ns", "lower");
    }
    for (name, unit, better) in [
        ("difc.cache_hits", "count", "higher"),
        ("difc.cache_misses", "count", "lower"),
        ("difc.cache_hit_ratio", "ratio", "higher"),
        ("difc.cache_evictions", "count", "lower"),
        ("difc.interned_labels", "count", "lower"),
        ("difc.interned_growth", "count", "lower"),
        ("difc.interned_pairs_growth", "count", "lower"),
        ("difc.label_width_p50", "tags", "lower"),
        ("difc.label_width_max", "tags", "lower"),
        ("difc.flows_to_ns", "ns", "lower"),
        ("difc.flows_to_cached_ns", "ns", "lower"),
        ("obs.records", "count", "lower"),
        ("obs.records_per_op", "1/op", "lower"),
        ("obs.truncated", "count", "lower"),
        ("obs.snapshot_ms", "ms", "lower"),
        ("core.regions_per_cmd", "1/op", "lower"),
        ("core.region_share", "ratio", "lower"),
        ("core.labeled_accesses_per_cmd", "1/op", "lower"),
        ("core.dynamic_dispatches_per_cmd", "1/op", "lower"),
        ("core.os_syncs", "count", "lower"),
        ("core.os_syncs_elided", "count", "higher"),
        ("core.exceptions_suppressed", "count", "lower"),
    ] {
        add(name.into(), unit, better);
    }
    for cmd in APP_CMDS {
        add(format!("apps.{cmd}.p50_us"), "us", "lower");
        add(format!("apps.{cmd}.p99_us"), "us", "lower");
    }
    for (name, unit, better) in [
        ("apps.denied_ratio", "ratio", "lower"),
        ("vm.instructions_per_call", "1/op", "lower"),
        ("vm.ns_per_instruction", "ns", "lower"),
        ("vm.barriers_per_call", "1/op", "lower"),
        ("vm.dynamic_dispatches_per_call", "1/op", "lower"),
        ("vm.barriers_eliminated", "count", "higher"),
        ("vm.compile_cost", "count", "lower"),
        ("vm.regions_aborted", "count", "lower"),
        ("vm.barrier_overhead_pct", "%", "lower"),
        ("util.poison_recoveries", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ] {
        add(name.into(), unit, better);
    }
    c
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Formats a number for JSON: all its digits, and `0` for a non-finite
/// value (JSON has no NaN).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`, the
/// latter holding every metric of `defs` (a metric `values` lacks is
/// reported as 0 — it does not apply to the workload).
#[must_use]
pub fn result_json<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: impl IntoIterator<Item = (&'a str, &'a str)>,
    values: &Values,
) -> String {
    let mut m = String::new();
    for (i, (name, unit)) in defs.into_iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(m, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(v));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{m}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics the binary reports, with
    /// the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let spec = include_str!("../../BENCHMARK.json");
        let entry = |name: &str, unit: &str, better: &str| {
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\""
            )
        };
        let cat = per_layer_catalog();
        assert!(cat.len() <= 128);
        for (name, unit, better) in &cat {
            assert!(spec.contains(&entry(name, unit, better)), "{name} missing");
        }
        for (name, unit, better) in END_TO_END {
            assert!(spec.contains(&entry(name, unit, better)), "{name} missing");
        }
        let listed = spec.matches("\"better\"").count();
        assert_eq!(
            listed,
            cat.len() + END_TO_END.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }

    #[test]
    fn result_line_has_every_metric_and_no_nan() {
        let mut v = Values::new();
        v.insert("a".into(), 1.5);
        v.insert("b".into(), f64::NAN);
        let s = result_json(true, 3, 0, [("a", "s"), ("b", "ms"), ("c", "count")], &v);
        assert_eq!(
            s,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"ms\"}, \
             \"c\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
