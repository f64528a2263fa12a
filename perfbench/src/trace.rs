//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A traced run opens one span per op at the workload boundary and one
//! child span around every call the op makes into a layer's public
//! function (`os.stat`, `apps.say`, `vm.call`, ...). Spans live in a
//! buffer allocated before the loop and are written out after it. An
//! untraced run uses [`Untraced`], whose hooks compile away.

use crate::measure::percentile;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The hooks a workload calls around its layer calls.
pub trait Probe {
    /// Runs `f`, one call into a layer's public function named `name`.
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;
    /// Opens the span of one op (its times are set by [`Probe::end_op`]).
    fn begin_op(&mut self, _name: &'static str) {}
    /// Closes the op span opened last.
    fn end_op(&mut self, _start: Instant, _end: Instant) {}
    /// Whether the span buffer cannot take another op.
    fn is_full(&self) -> bool {
        false
    }
}

/// The probe of an untraced run.
#[derive(Debug, Default)]
pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn call<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Boundary name, such as `op.null_io` or `os.stat`.
    pub name: &'static str,
    /// The op this span belongs to; all spans of one op share it.
    pub op: u32,
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<u32>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Most child spans one op may open.
const MAX_CHILDREN: usize = 8;

/// A per-worker span buffer.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Option<u32>,
    next_op: u32,
}

impl Tracer {
    /// A tracer holding at most `cap` spans, timed from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant, cap: usize) -> Self {
        Tracer { epoch, spans: Vec::with_capacity(cap), open: None, next_op: 0 }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos())
            .unwrap_or(u64::MAX)
    }
}

impl Probe for Tracer {
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let span = Span {
            name,
            op: self.next_op,
            parent: self.open,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        r
    }

    fn begin_op(&mut self, name: &'static str) {
        self.open = Some(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            op: self.next_op,
            parent: None,
            start_ns: 0,
            end_ns: 0,
        });
    }

    fn end_op(&mut self, start: Instant, end: Instant) {
        if let Some(i) = self.open.take() {
            let (s, e) = (self.ns(start), self.ns(end));
            let span = &mut self.spans[i as usize];
            span.start_ns = s;
            span.end_ns = e;
        }
        self.next_op += 1;
    }

    fn is_full(&self) -> bool {
        self.spans.len() + MAX_CHILDREN + 1 > self.spans.capacity()
    }
}

/// Count, median and p99 of the durations of the spans with one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanStats {
    /// Spans with this name.
    pub calls: u64,
    /// Median duration.
    pub p50_ns: f64,
    /// 99th-percentile duration.
    pub p99_ns: f64,
    /// Summed duration.
    pub total_ns: f64,
}

/// Per-name duration statistics over the spans of every tracer.
#[must_use]
pub fn stats_by_name(tracers: &[&Tracer]) -> BTreeMap<&'static str, SpanStats> {
    let mut durs: BTreeMap<&'static str, Vec<u32>> = BTreeMap::new();
    for s in tracers.iter().flat_map(|t| t.spans.iter()) {
        durs.entry(s.name)
            .or_default()
            .push(u32::try_from(s.dur_ns()).unwrap_or(u32::MAX));
    }
    durs.into_iter()
        .map(|(name, mut v)| {
            let total_ns = v.iter().map(|&x| f64::from(x)).sum();
            let stats = SpanStats {
                calls: v.len() as u64,
                p99_ns: percentile(&mut v, 99.0),
                p50_ns: percentile(&mut v, 50.0),
                total_ns,
            };
            (name, stats)
        })
        .collect()
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children of one op never overlap).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            self_ns[p] = self_ns[p].saturating_sub(s.dur_ns());
        }
    }
    self_ns
}

/// Writes every span as one JSON line with its worker, op id, parent and
/// self time.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_spans(out: &mut impl Write, tracers: &[&Tracer]) -> std::io::Result<()> {
    for (w, t) in tracers.iter().enumerate() {
        let selfs = self_times(&t.spans);
        for (i, (s, self_ns)) in t.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"worker\":{w},\"span\":{i},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_share_the_op_id_and_point_at_their_op() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 64);
        for _ in 0..2 {
            t.begin_op("op.x");
            let start = Instant::now();
            t.call("layer.a", || std::thread::sleep(Duration::from_millis(1)));
            t.call("layer.b", || ());
            t.end_op(start, Instant::now());
        }
        let s = &t.spans;
        assert_eq!(s.len(), 6);
        assert_eq!((s[1].op, s[1].parent), (0, Some(0)));
        assert_eq!((s[5].op, s[5].parent), (1, Some(3)));
        let selfs = self_times(s);
        assert!(selfs[0] < s[0].dur_ns(), "a child's time is not the op's own");
        let stats = stats_by_name(&[&t]);
        assert_eq!(stats["layer.a"].calls, 2);
        assert!(stats["layer.a"].p50_ns >= 1e6);
    }

    #[test]
    fn a_full_tracer_says_so() {
        let mut t = Tracer::new(Instant::now(), MAX_CHILDREN + 1);
        assert!(!t.is_full());
        t.begin_op("op.x");
        t.end_op(Instant::now(), Instant::now());
        assert!(t.is_full());
    }
}
