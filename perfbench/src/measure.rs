//! Closed-loop measurement: per-op latencies collected in fixed windows,
//! percentiles, medians and peak RSS.
//!
//! Every worker owns one [`Recorder`]. Its latency slots are allocated
//! and touched once, before the timed loop, so recording an op never
//! allocates. The loop is cut into windows of about [`WINDOW`]; each
//! window yields a throughput, a median and a p99. End-to-end figures
//! are medians over windows, which keeps a short stall on a shared host
//! from moving a whole run.
//!
//! A timed loop also samples the [`speed`] probe every [`speed::PERIOD`],
//! at marks counted back from the loop's deadline, so the workers of one
//! loop probe at about the same moments and each probe meets the others,
//! not a running op. Probe time is excluded from the windows, and each
//! window's figures are taken to the reference host speed with the mean
//! of the samples taken during it (or the last one before it).

use crate::speed;
use std::time::{Duration, Instant};

/// Target wall time of one measurement window.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Fewest ops a window may hold: its p99 then has at least ten samples
/// beyond it (see [`highest_percentile`]).
pub const MIN_WINDOW_OPS: usize = 1000;

/// Latency slots per worker (256 KiB). A window closes early when they
/// fill up. Kept small: a multi-megabyte buffer per loop made peak RSS
/// depend on where the allocator happened to place it.
const WINDOW_CAP: usize = 1 << 16;

/// Percentiles [`highest_percentile`] may report, in basis points,
/// highest first.
const LADDER_BP: [u64; 5] = [9999, 9990, 9900, 9000, 5000];

/// Number of samples, out of `n`, that lie beyond the percentile given in
/// basis points (`9900` is p99): `n - ceil(n * bp / 10000)`.
#[must_use]
pub fn samples_beyond(n: usize, bp: u64) -> usize {
    let n64 = n as u64;
    (n64 - (n64 * bp).div_ceil(10_000)) as usize
}

/// The highest percentile (p99.99, p99.9, p99, p90 or p50) that has at
/// least ten of `n` samples beyond it, or `None` below twenty samples.
#[must_use]
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER_BP
        .into_iter()
        .find(|&bp| samples_beyond(n, bp) >= 10)
        .map(|bp| bp as f64 / 100.0)
}

/// The `p`-th percentile of `xs`, interpolated linearly between the two
/// nearest ranks. Reorders `xs`; runs in linear time.
///
/// # Panics
/// If `xs` is empty.
pub fn percentile(xs: &mut [u32], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (xs.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let (_, &mut a, above) = xs.select_nth_unstable(lo);
    match above.iter().min() {
        Some(&b) if frac > 0.0 => f64::from(a) + frac * f64::from(b - a),
        _ => f64::from(a),
    }
}

/// The median of `xs` (the mean of the two middle values for an even
/// count); `NaN` for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[m - 1] + v[m]) / 2.0
    } else {
        v[m]
    }
}

/// One closed measurement window of one worker.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Ops completed in the window.
    pub ops: usize,
    /// Wall time from the first op's start to the last op's end, minus
    /// harness maintenance.
    pub secs: f64,
    /// Median op latency.
    pub p50_ns: f64,
    /// 99th-percentile op latency.
    pub p99_ns: f64,
    /// The host's slowdown against the reference speed (1 in a loop that
    /// does not probe).
    pub slowdown: f64,
}

impl Window {
    /// Throughput at the reference host speed.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.secs * self.slowdown
    }
}

/// When a loop samples the host speed probe.
struct Marks {
    probe: speed::Probe,
    next: Instant,
    /// Sum and count of the current window's samples.
    sum: f64,
    count: u32,
    last: f64,
}

/// Per-worker latency recorder.
pub struct Recorder {
    lat: Box<[u32]>,
    n: usize,
    start: Option<Instant>,
    last_end: Instant,
    excluded: Duration,
    windows: Vec<Window>,
    marks: Option<Marks>,
}

impl Recorder {
    /// A recorder for a loop; with `deadline = Some(d)` it samples the
    /// speed probe now and at every [`speed::PERIOD`] mark before `d`.
    #[must_use]
    pub fn new(deadline: Option<Instant>) -> Recorder {
        let marks = deadline.map(|d| {
            let mut probe = speed::Probe::default();
            let last = probe.sample();
            let now = Instant::now();
            let mut next = d;
            while next.checked_sub(speed::PERIOD).is_some_and(|m| m > now) {
                next -= speed::PERIOD;
            }
            Marks { probe, next, sum: 0.0, count: 0, last }
        });
        Recorder {
            // A non-zero fill writes every page now, so the slots count in
            // set-up memory instead of growing RSS during the loop.
            lat: vec![u32::MAX; WINDOW_CAP].into_boxed_slice(),
            n: 0,
            start: None,
            last_end: Instant::now(),
            excluded: Duration::ZERO,
            windows: Vec::with_capacity(1024),
            marks,
        }
    }

    /// Records one op that ran from `start` to `end`.
    pub fn record(&mut self, start: Instant, end: Instant) {
        let first = *self.start.get_or_insert(start);
        self.lat[self.n] = u32::try_from((end - start).as_nanos()).unwrap_or(u32::MAX);
        self.n += 1;
        self.last_end = end;
        if self.n == self.lat.len() || (self.n >= MIN_WINDOW_OPS && end - first >= WINDOW)
        {
            self.close(end);
        }
        if let Some(m) = self.marks.as_mut().filter(|m| end >= m.next) {
            let t = Instant::now();
            m.last = m.probe.sample();
            m.sum += m.last;
            m.count += 1;
            while m.next <= end {
                m.next += speed::PERIOD;
            }
            self.exclude(t.elapsed());
        }
    }

    /// Excludes time spent after the last op from the current window (a
    /// closed window has ended; the next starts with its first op).
    pub fn exclude(&mut self, d: Duration) {
        if self.start.is_some() {
            self.excluded += d;
        }
    }

    fn close(&mut self, end: Instant) {
        let first = self.start.take().unwrap_or(end);
        let xs = &mut self.lat[..self.n];
        let p99 = percentile(xs, 99.0);
        let p50 = percentile(xs, 50.0);
        let secs = (end - first).saturating_sub(self.excluded).as_secs_f64();
        let slowdown = match self.marks.as_mut() {
            Some(m) if m.count > 0 => {
                let mean = m.sum / f64::from(m.count);
                (m.sum, m.count) = (0.0, 0);
                mean
            }
            Some(m) => m.last,
            None => 1.0,
        };
        self.windows.push(Window {
            ops: self.n,
            secs,
            p50_ns: p50,
            p99_ns: p99,
            slowdown,
        });
        self.n = 0;
        self.excluded = Duration::ZERO;
    }

    /// Ends the loop: a last window that has too few ops to carry a p99 is
    /// dropped (its ops were still checked). Returns the closed windows.
    pub fn finish(mut self) -> Vec<Window> {
        if self.n >= MIN_WINDOW_OPS {
            self.close(self.last_end);
        }
        self.windows
    }
}

/// End-to-end figures over all workers' windows, at the reference host
/// speed.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Sum over workers of each worker's median window throughput.
    pub ops_per_s: f64,
    /// Median over all windows of the window median, in µs.
    pub p50_us: f64,
    /// Median over all windows of the window p99, in µs.
    pub p99_us: f64,
    /// Median over all windows of the host's slowdown.
    pub slowdown: f64,
    /// Windows the figures rest on.
    pub windows: usize,
    /// Ops in those windows.
    pub samples: usize,
}

/// Combines the windows of every worker; `None` if a worker closed none.
#[must_use]
pub fn summarize(per_worker: &[Vec<Window>]) -> Option<Summary> {
    if per_worker.iter().any(Vec::is_empty) {
        return None;
    }
    let all: Vec<&Window> = per_worker.iter().flatten().collect();
    let ops_per_s = per_worker
        .iter()
        .map(|ws| median(&ws.iter().map(Window::ops_per_s).collect::<Vec<_>>()))
        .sum();
    let over_all = |f: &dyn Fn(&Window) -> f64| {
        median(&all.iter().map(|w| f(w)).collect::<Vec<_>>())
    };
    Some(Summary {
        ops_per_s,
        p50_us: over_all(&|w| w.p50_ns / w.slowdown) / 1e3,
        p99_us: over_all(&|w| w.p99_ns / w.slowdown) / 1e3,
        slowdown: over_all(&|w| w.slowdown),
        windows: all.len(),
        samples: all.iter().map(|w| w.ops).sum(),
    })
}

/// Peak resident set size of this process (`VmHWM`), in KiB; 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(9999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(100_000), Some(99.99));
        for n in [20, 100, 999, 1000, 1001, 12_345, 100_000] {
            let p = highest_percentile(n).unwrap();
            assert!(samples_beyond(n, (p * 100.0).round() as u64) >= 10, "n={n}");
        }
        // The window floor is exactly what a p99 needs.
        assert_eq!(highest_percentile(MIN_WINDOW_OPS), Some(99.0));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let mut xs: Vec<u32> = (1..=100).rev().collect();
        assert!((percentile(&mut xs, 50.0) - 50.5).abs() < 1e-9);
        assert!((percentile(&mut xs, 99.0) - 99.01).abs() < 1e-9);
        assert!((percentile(&mut xs, 100.0) - 100.0).abs() < 1e-9);
        assert!((percentile(&mut [7], 99.0) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn recorder_closes_windows_of_at_least_the_floor() {
        let mut r = Recorder::new(None);
        let t = Instant::now();
        for i in 0..(3 * MIN_WINDOW_OPS as u64) {
            let s = t + Duration::from_millis(i);
            r.record(s, s + Duration::from_micros(1 + i % 10));
        }
        let ws = r.finish();
        assert!(!ws.is_empty());
        assert!(ws.iter().all(|w| w.ops >= MIN_WINDOW_OPS && w.p99_ns >= w.p50_ns));
        let s = summarize(&[ws]).unwrap();
        assert!(s.p50_us > 0.0 && s.ops_per_s > 0.0);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_kib() > 0);
    }
}
