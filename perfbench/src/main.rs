//! `laminar-perfbench`: the repository benchmark.
//!
//! ```text
//! laminar-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                   [--rev <revision>] [--setup-reps <k>] [--spans-out <file>]
//! ```
//!
//! Runs one seeded closed-loop workload (`syscall_mix`, `tenant_scale`,
//! `chat_server` or `vm_suite`) in this process, checks every op's
//! outcome against the workload's model, and prints the metrics. With
//! `--trace 0` they are the end-to-end metrics; with `--trace 1` the
//! process first runs an untraced copy of itself for half the time (for
//! `trace.overhead_pct`), then a traced loop for the other half, and
//! prints the per-layer metrics. End-to-end times are reported at the
//! reference host speed (see [`speed`]). Human-readable lines come first;
//! the last line of standard output is the JSON result. The exit code is
//! 0 only if every outcome matched.

mod chat_server;
mod difc_probe;
mod harness;
mod layers;
mod measure;
mod report;
mod speed;
mod syscall_mix;
mod tenant_scale;
mod trace;
mod vm_suite;

use harness::{Collected, LoopStats};
use measure::{highest_percentile, median, summarize, Summary, Window};
use report::{per_layer_catalog, result_json, Values, END_TO_END};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

/// The workloads, with the threads each drives (at most `min(2, cpus)`).
const WORKLOADS: [(&str, usize); 4] =
    [("syscall_mix", 2), ("tenant_scale", 2), ("chat_server", 1), ("vm_suite", 2)];

/// Spans one worker may record in a traced run.
const SPAN_CAP: usize = 1 << 18;

/// How one workload run is configured.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Seed of every op stream.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Worker threads.
    pub threads: usize,
    /// Set-ups timed for `setup_s` (the last one is kept for the loop).
    pub setup_reps: usize,
    /// In a traced run: the span epoch and the per-worker span capacity.
    pub trace: Option<(Instant, usize)>,
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Outcome counts of every checked op (warm-up, loop and replays).
    pub stats: LoopStats,
    /// Each worker's loop windows.
    pub windows: Vec<Vec<Window>>,
    /// Median set-up time.
    pub setup_s: f64,
    /// Peak RSS after set-up and a fixed amount of loop work.
    pub rss_kib: u64,
    /// Per-layer metrics (traced run only).
    pub layer: Values,
    /// Spans of the loop (traced run only).
    pub tracers: Vec<Tracer>,
}

impl Outcome {
    /// An outcome holding set-up time, warm-up counts and a loop's records.
    #[must_use]
    pub fn new<W>(setup_s: f64, warmup: &LoopStats, c: &Collected<W>) -> Outcome {
        let mut stats = LoopStats::default();
        stats.absorb(warmup);
        stats.absorb(&c.stats);
        Outcome {
            stats,
            windows: c.windows.clone(),
            setup_s,
            rss_kib: c.rss_kib,
            layer: Values::new(),
            tracers: Vec::new(),
        }
    }
}

/// Runs `setup` `reps` times, dropping every fixture but the last, and
/// returns the last with the median set-up time in seconds, each taken
/// to the reference host speed with a probe sample just before it.
///
/// # Errors
/// The first set-up error.
pub fn timed_setups<F>(
    reps: usize,
    mut setup: impl FnMut() -> Result<F, String>,
) -> Result<(F, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    let mut probe = speed::Probe::default();
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let slowdown = probe.sample();
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64() / slowdown);
    }
    let fx = kept.ok_or("no set-up ran")?;
    Ok((fx, median(&times)))
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
    setup_reps: usize,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rev: "unknown".into(),
        setup_reps: 7,
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? == 1,
            "--rev" => a.rev = val.clone(),
            "--setup-reps" => a.setup_reps = val.parse().map_err(|_| bad())?,
            "--spans-out" => a.spans_out = Some(PathBuf::from(&val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {}", a.seconds));
    }
    Ok(a)
}

fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, String> {
    match name {
        "syscall_mix" => syscall_mix::run(cfg),
        "tenant_scale" => tenant_scale::run(cfg),
        "chat_server" => chat_server::run(cfg),
        "vm_suite" => vm_suite::run(cfg),
        _ => Err(format!("unknown workload {name}")),
    }
}

/// Runs this binary untraced for `seconds` and returns its `ops_per_s`.
fn untraced_ops_per_s(a: &Args, seconds: f64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &a.workload, "--seed", &a.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .args(["--setup-reps", "1", "--rev", &a.rev])
        .output()
        .map_err(|e| format!("untraced reference run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("untraced reference run failed:\n{stdout}"));
    }
    let last = stdout.lines().last().unwrap_or("");
    let key = "\"ops_per_s\": {\"value\": ";
    let at = last.find(key).ok_or("reference run printed no ops_per_s")? + key.len();
    let num: String = last[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || ".eE+-".contains(*c))
        .collect();
    num.parse().map_err(|_| format!("bad ops_per_s in {last}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: laminar-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.0).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(&(_, want_threads)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = want_threads.min(host_cpus);
    // A traced run spends half its time on an untraced reference process.
    let reference = if args.trace {
        match untraced_ops_per_s(&args, args.seconds / 2.0) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let cfg = Config {
        seed: args.seed,
        seconds: if args.trace { args.seconds / 2.0 } else { args.seconds },
        threads,
        setup_reps: args.setup_reps,
        trace: args.trace.then(|| (Instant::now(), SPAN_CAP)),
    };
    let mut out = match run_workload(&args.workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let summary = summarize(&out.windows);
    if let (Some(r), Some(s)) = (reference, summary) {
        out.layer.insert("trace.overhead_pct".into(), (r / s.ops_per_s - 1.0) * 100.0);
    }
    if let (Some(path), false) = (&args.spans_out, out.tracers.is_empty()) {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            trace::write_spans(&mut w, &out.tracers.iter().collect::<Vec<_>>())?;
            std::io::Write::flush(&mut w)
        });
        if let Err(e) = written {
            eprintln!("warning: could not write spans to {}: {e}", path.display());
        }
    }
    report(&args, host_cpus, threads, &out, summary)
}

/// Prints the run metadata, one line per metric, and the JSON result.
fn report(
    args: &Args,
    host_cpus: usize,
    threads: usize,
    out: &Outcome,
    summary: Option<Summary>,
) -> ExitCode {
    let st = &out.stats;
    let failed_ratio =
        if st.attempted == 0 { 0.0 } else { st.failed as f64 / st.attempted as f64 };
    println!(
        "# meta {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cpus\": {host_cpus}, \"threads\": {threads}, \"rev\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rev.replace(['"', '\\'], "")
    );
    let mut values = out.layer.clone();
    if let Some(s) = summary {
        values.insert("ops_per_s".into(), s.ops_per_s);
        values.insert("op_p50_us".into(), s.p50_us);
        values.insert("op_p99_us".into(), s.p99_us);
        println!("# host slowdown against the reference speed: {:.4}", s.slowdown);
        let least = out.windows.iter().flatten().map(|w| w.ops).min().unwrap_or(0);
        println!(
            "# {} windows, {} ops; the smallest ({least} ops) supports p{}",
            s.windows,
            s.samples,
            highest_percentile(least).unwrap_or(0.0)
        );
    }
    values.insert("setup_s".into(), out.setup_s);
    values.insert("peak_rss_mib".into(), out.rss_kib as f64 / 1024.0);
    for f in &st.failures {
        println!("# MISMATCH {f}");
    }
    let per_layer = per_layer_catalog();
    let defs: Vec<(&str, &str)> = if args.trace {
        per_layer.iter().map(|(n, u, _)| (n.as_str(), *u)).collect()
    } else {
        END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
    };
    for &(name, unit) in &defs {
        match values.get(name) {
            Some(v) => println!("{name:<36} {v:>16.4} {unit}"),
            None => println!("{name:<36} {:>16} {unit}", "n/a"),
        }
    }
    println!("{:<36} {failed_ratio:>16.4} ratio", "failed_op_ratio");
    let correct = st.failed == 0 && summary.is_some();
    if summary.is_none() {
        println!("# no measurement window closed: the loop was too short");
    }
    println!("{}", result_json(correct, st.attempted.max(1), st.failed, defs, &values));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_runs_clean_briefly() {
        for (name, threads) in WORKLOADS {
            for trace in [None, Some((Instant::now(), 1 << 14))] {
                let cfg = Config { seed: 3, seconds: 0.3, threads, setup_reps: 1, trace };
                let out = run_workload(name, &cfg).expect("set-up");
                assert!(out.stats.attempted > 0, "{name}");
                assert_eq!(out.stats.failed, 0, "{name}: {:?}", out.stats.failures);
                assert_eq!(trace.is_some(), !out.layer.is_empty(), "{name}");
            }
        }
    }
}
