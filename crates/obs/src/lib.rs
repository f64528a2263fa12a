//! # laminar-obs — trusted audit & decision-trace subsystem
//!
//! Laminar's enforcement is deliberately *silent* toward untrusted
//! subjects: pipe writes, capability transfers and signals that fail the
//! flow check are dropped with no error, because the error code would
//! itself be a channel (§5.2). The flip side is that the reference
//! monitor's decisions are invisible — to operators and auditors as well
//! as to adversaries. This crate restores visibility **on the trusted
//! side only**: a low-overhead, kernel-side decision trace that records
//! what every enforcement point (the OS LSM hooks and syscall
//! transaction boundary, the VM barriers and security regions)
//! decided, correlated with the kernel's commit tickets so an audit
//! trail can be replayed against the linearization witness.
//!
//! ## Trust gating
//!
//! The read side ([`snapshot`], [`take_local`]) is deliberately **not**
//! reachable from the syscall surface: `TaskHandle` exposes no audit
//! API, and nothing here is keyed by or filtered to a calling task. A
//! subject that could observe its own `SilentDrop` events would have
//! exactly the covert channel §5.2 closes — the audit log is the
//! operator's view, read by `Kernel`-level (trusted) callers and tests.
//! Untrusted code runs *under* the kernel simulation and never links
//! against this crate directly.
//!
//! ## Exactly-once semantics
//!
//! Syscall bodies may rerun (the sharded kernel's footprint-restart
//! loop), so events emitted inside a body are *staged* in a thread-local
//! buffer and only reach the ring when the dispatch loop commits the
//! attempt — a restart discards the stage. A denial is a final outcome
//! and flushes like a commit; only a caught panic (rollback) discards
//! staged decision events, since the half-executed body's decisions were
//! undone. Events emitted outside any syscall (VM barriers, region
//! entry) join the thread's pending batch directly.
//!
//! ## Cost when disabled
//!
//! Every emit point first reads one relaxed [`AtomicBool`]; when tracing
//! is off that is the entire cost (no clock reads, no locks, no
//! allocation), so the subsystem compiles to a near-no-op in production
//! configurations that never enable it.
//!
//! ## Cost when enabled
//!
//! The enabled hot path is thread-local: committed records accumulate in
//! a per-thread batch and reach the shared (mutex-protected, bounded)
//! ring in blocks — one lock acquisition and one global sequence-block
//! allocation per [`FLUSH_BATCH`]-sized batch, never per record. Clock
//! reads are sampled (one dispatch in [`DEFAULT_LATENCY_SAMPLE_EVERY`]
//! feeds the log2 latency histograms; the rest record no latency), and
//! the layers emit *decisions*, not checks: LSM hooks record only
//! denials, and a decision-free successful dispatch — no staged events,
//! no typed error — leaves no records at all (only its sampled
//! latency). Sequence numbers are allocated per flushed block, so
//! cross-thread interleaving in a merged snapshot is flush-grained;
//! within a thread, and between a syscall's staged events and its
//! commit record, order is exact, and commit *tickets* remain the
//! precise cross-thread linearization witness.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Which enforcement layer produced an event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The OS kernel: LSM hooks and the syscall transaction boundary.
    Os,
    /// The managed runtime: VM read/write barriers and security regions.
    Vm,
}

impl Layer {
    fn as_str(self) -> &'static str {
        match self {
            Layer::Os => "os",
            Layer::Vm => "vm",
        }
    }
}

/// The unreliable channel on which a message was silently dropped.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DropChannel {
    /// A pipe write (flow veto or full buffer).
    Pipe,
    /// A socket write (same semantics as pipes).
    Socket,
    /// A signal whose sender → target flow was vetoed.
    Signal,
    /// A capability transfer through a pipe.
    Cap,
}

impl DropChannel {
    fn as_str(self) -> &'static str {
        match self {
            DropChannel::Pipe => "pipe",
            DropChannel::Socket => "socket",
            DropChannel::Signal => "signal",
            DropChannel::Cap => "cap",
        }
    }
}

/// The outcome of one flow/subset check.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The flow was allowed.
    Allow,
    /// The flow was denied (for unreliable channels: silently dropped).
    Deny,
}

/// One audit event. All payloads are plain integers and static strings so
/// events are `Copy` and recording never allocates per-event payloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// One subset/flow decision. `subject`/`object` are pair
    /// fingerprints (`SecPair::fingerprint` in `laminar-difc`): a fixed
    /// mix of the pair's tags, equal for equal pairs in every kernel and
    /// every process.
    FlowCheck {
        /// Layer that asked the question.
        layer: Layer,
        /// Which check: the LSM hook or barrier name.
        op: &'static str,
        /// Fingerprint of the subject (task / source) pair.
        subject: u64,
        /// Fingerprint of the object (target) pair.
        object: u64,
        /// The decision.
        verdict: Verdict,
    },
    /// A message silently dropped on an unreliable channel (§5.2). The
    /// subject saw full success; only this trusted log records the drop.
    SilentDrop {
        /// Which channel dropped.
        channel: DropChannel,
    },
    /// A task label change that passed the label-change rule. A shrink
    /// of the secrecy label (or growth of integrity) is a
    /// declassification-side transition and sets `declassify`.
    LabelChange {
        /// Task whose label changed.
        task: u64,
        /// `"secrecy"` or `"integrity"`.
        ty: &'static str,
        /// Fingerprint of the task's whole pair before the change.
        before: u64,
        /// Fingerprint of the task's whole pair after the change.
        after: u64,
        /// Whether the transition released information (secrecy shrank
        /// or integrity grew) — the §4.3 declassification direction.
        declassify: bool,
    },
    /// A security-region entry decision.
    RegionEnter {
        /// Layer that evaluated the entry rule.
        layer: Layer,
        /// The decision (a denied entry never runs the region body).
        verdict: Verdict,
    },
    /// A security region aborted: its body faulted and its labeled
    /// writes were rolled back (secure termination, §4.3.3).
    RegionAbort {
        /// Layer that performed the abort.
        layer: Layer,
    },
    /// A syscall entered the dispatch loop. Recorded at flush time,
    /// immediately before the events its body staged.
    SyscallEnter {
        /// Static syscall name.
        name: &'static str,
    },
    /// A syscall reached a final outcome (success *or* typed denial) and
    /// took a commit ticket.
    SyscallCommit {
        /// Static syscall name.
        name: &'static str,
        /// The commit ticket (PR 4 linearization witness position).
        ticket: u64,
        /// Wall-clock latency of the whole dispatch, in nanoseconds —
        /// `None` when this dispatch was not latency-sampled (see
        /// [`set_latency_sample_every`]).
        latency_ns: Option<u64>,
        /// `Some(reason)` when the outcome was a typed denial.
        denied: Option<&'static str>,
    },
    /// A syscall was rolled back after a caught panic: its staged
    /// decision events were discarded along with its side effects.
    SyscallRollback {
        /// Static syscall name.
        name: &'static str,
        /// The commit ticket the rollback consumed.
        ticket: u64,
        /// Wall-clock latency of the whole dispatch, in nanoseconds —
        /// `None` when this dispatch was not latency-sampled.
        latency_ns: Option<u64>,
    },
    /// A resource allocation was denied by a [`Quotas`]-style limit.
    ///
    /// [`Quotas`]: https://docs.rs/laminar-os
    QuotaExceeded {
        /// Static name of the exhausted resource.
        resource: &'static str,
    },
}

/// One recorded event with its global sequence number. Sequence numbers
/// are process-wide and strictly increasing, so records from different
/// per-thread rings merge into one total order.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Global sequence number (allocation order into the rings).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// Number of log2 latency buckets: bucket `i` counts syscalls whose
/// latency `t` satisfies `2^i ≤ t < 2^(i+1)` nanoseconds (bucket 0 also
/// absorbs `t < 1 ns`; the last bucket absorbs everything ≥ 2^31 ns).
pub const HIST_BUCKETS: usize = 32;

/// A fixed log2-bucket latency histogram for one syscall.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LatencyHist {
    /// Bucket counts; see [`HIST_BUCKETS`] for the bucket boundaries.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist { buckets: [0; HIST_BUCKETS] }
    }
}

impl LatencyHist {
    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    fn record(&mut self, nanos: u64) {
        let b = if nanos == 0 {
            0
        } else {
            (63 - nanos.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[b] += 1;
    }
}

/// Default per-thread ring capacity, in records.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Default latency sampling period: one dispatch in this many per thread
/// carries a clock read and joins the histograms.
pub const DEFAULT_LATENCY_SAMPLE_EVERY: u32 = 64;

/// Records accumulated thread-locally before one batched push into the
/// shared ring (one lock acquisition and one global sequence-block
/// allocation per batch).
pub const FLUSH_BATCH: usize = 256;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static LATENCY_EVERY: AtomicU32 = AtomicU32::new(DEFAULT_LATENCY_SAMPLE_EVERY);

/// One thread's bounded event ring plus its latency histograms. Shared
/// (behind a mutex) between the owning thread's flushes and cross-thread
/// [`snapshot`] readers; the hot path never touches it except in batches.
#[derive(Default)]
struct Ring {
    buf: VecDeque<Record>,
    /// Oldest-record drops forced by the capacity bound.
    truncated: u64,
    hist: BTreeMap<&'static str, LatencyHist>,
}

impl Ring {
    /// Appends a batch under one sequence-block allocation, then trims
    /// to capacity from the front (oldest records go first).
    fn push_batch(
        &mut self,
        events: std::vec::Drain<'_, Event>,
        samples: std::vec::Drain<'_, (&'static str, u64)>,
    ) {
        let first = SEQ.fetch_add(events.len() as u64, Ordering::Relaxed);
        self.buf.extend(
            events.enumerate().map(|(i, event)| Record { seq: first + i as u64, event }),
        );
        let cap = RING_CAPACITY.load(Ordering::Relaxed).max(1);
        while self.buf.len() > cap {
            self.buf.pop_front();
            self.truncated += 1;
        }
        for (name, ns) in samples {
            self.hist.entry(name).or_default().record(ns);
        }
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// All of one thread's tracing state, in a single TLS slot so the hot
/// path pays one TLS lookup: the stage for the in-flight syscall
/// attempt, the pending batch awaiting a ring flush, the syscall nesting
/// depth, and the latency-sampling tick.
struct Local {
    ring: Arc<Mutex<Ring>>,
    staged: Vec<Event>,
    pending: Vec<Event>,
    pending_samples: Vec<(&'static str, u64)>,
    depth: u32,
    tick: u32,
}

impl Local {
    fn new() -> Self {
        let ring = Arc::new(Mutex::new(Ring::default()));
        registry().lock().unwrap_or_else(PoisonError::into_inner).push(Arc::clone(&ring));
        Local {
            ring,
            staged: Vec::new(),
            pending: Vec::new(),
            pending_samples: Vec::new(),
            depth: 0,
            tick: 0,
        }
    }

    fn flush(&mut self) {
        if self.pending.is_empty() && self.pending_samples.is_empty() {
            return;
        }
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_batch(self.pending.drain(..), self.pending_samples.drain(..));
    }

    fn maybe_flush(&mut self) {
        if self.pending.len() >= FLUSH_BATCH || self.pending_samples.len() >= FLUSH_BATCH
        {
            self.flush();
        }
    }
}

impl Drop for Local {
    /// Thread exit flushes whatever the thread committed but had not yet
    /// batched out, so short-lived worker threads lose nothing.
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::new());
}

/// Enables or disables tracing process-wide. Disabled is the default;
/// every emit point degrades to a single relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether tracing is currently enabled.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Overrides the per-thread ring capacity (records). Intended for tests
/// exercising wraparound; takes effect on subsequent flushes.
pub fn set_ring_capacity(cap: usize) {
    RING_CAPACITY.store(cap.max(1), Ordering::SeqCst);
}

/// Sets the latency sampling period: one syscall dispatch in `every` (per
/// thread) reads the clock and feeds the per-syscall histograms; the
/// rest record `latency_ns: None`. `1` samples every dispatch (tests);
/// the default ([`DEFAULT_LATENCY_SAMPLE_EVERY`]) keeps clock reads off
/// the common path.
pub fn set_latency_sample_every(every: u32) {
    LATENCY_EVERY.store(every.max(1), Ordering::SeqCst);
}

/// Records one event. No-op when tracing is disabled. Inside a syscall
/// dispatch the event is staged (and reaches the ring only if the
/// attempt is final — see the module docs); outside, it joins the
/// thread's pending batch directly.
#[inline]
pub fn emit(event: Event) {
    if !enabled() {
        return;
    }
    emit_slow(event);
}

#[cold]
fn emit_slow(event: Event) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.depth > 0 {
            l.staged.push(event);
        } else {
            l.pending.push(event);
            l.maybe_flush();
        }
    });
}

/// An in-flight syscall dispatch: marks the thread as inside a syscall
/// so emits stage instead of landing directly, and (when this dispatch
/// is latency-sampled) holds the start timestamp. Obtained from
/// [`syscall_begin`]; finished with [`SyscallSpan::commit`] or
/// [`SyscallSpan::rollback`] (dropping it without finishing discards the
/// staged events).
#[derive(Debug)]
pub struct SyscallSpan {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SyscallSpan {
    fn drop(&mut self) {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.depth = l.depth.saturating_sub(1);
            l.staged.clear();
        });
    }
}

/// Starts a syscall span. Returns `None` (and costs one atomic load)
/// when tracing is disabled.
#[must_use]
pub fn syscall_begin(name: &'static str) -> Option<SyscallSpan> {
    if !enabled() {
        return None;
    }
    let sampled = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.depth += 1;
        let every = LATENCY_EVERY.load(Ordering::Relaxed).max(1);
        let sampled = l.tick % every == 0;
        l.tick = l.tick.wrapping_add(1);
        sampled
    });
    Some(SyscallSpan { name, start: sampled.then(Instant::now) })
}

impl SyscallSpan {
    /// Discards events staged by an attempt that is about to rerun
    /// (footprint restart): the body re-executes, so its decisions must
    /// not be recorded twice.
    pub fn retry(&self) {
        LOCAL.with(|l| l.borrow_mut().staged.clear());
    }

    /// Whether the attempt in flight has staged an event, i.e. whether
    /// committing it as a success would record a `SyscallCommit`. The
    /// kernel takes a commit ticket for a success only when one will be
    /// recorded.
    #[must_use]
    pub fn has_staged(&self) -> bool {
        LOCAL.with(|l| !l.borrow().staged.is_empty())
    }

    fn latency_ns(&self) -> Option<u64> {
        self.start.map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Flushes the span as a final outcome. A **decision-bearing**
    /// dispatch — one that staged at least one event, or ended in a
    /// typed denial — records `SyscallEnter`, the staged body events,
    /// then `SyscallCommit` (with `denied` naming the typed error, if
    /// any) contiguously in the thread's pending batch. A decision-free
    /// success leaves no records at all: the audit rule logs decisions
    /// at enforcement points, and an allowed access decides nothing the
    /// auditor needs, so an Enter/Commit pair would tell it nothing —
    /// and *not* logging it keeps enabled tracing nearly free on the hot
    /// path. Either way, a sampled latency joins the per-syscall
    /// histogram.
    pub fn commit(self, ticket: u64, denied: Option<&'static str>) {
        let latency_ns = self.latency_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Local { staged, pending, pending_samples, .. } = &mut *l;
            if !staged.is_empty() || denied.is_some() {
                pending.push(Event::SyscallEnter { name: self.name });
                pending.append(staged);
                pending.push(Event::SyscallCommit {
                    name: self.name,
                    ticket,
                    latency_ns,
                    denied,
                });
            }
            if let Some(ns) = latency_ns {
                pending_samples.push((self.name, ns));
            }
            l.maybe_flush();
        });
    }

    /// Flushes the span as a caught-panic rollback: the staged decision
    /// events are discarded (the body's effects were undone) and only
    /// `SyscallEnter` + `SyscallRollback` are recorded.
    pub fn rollback(self, ticket: u64) {
        let latency_ns = self.latency_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.staged.clear();
            l.pending.push(Event::SyscallEnter { name: self.name });
            l.pending.push(Event::SyscallRollback {
                name: self.name,
                ticket,
                latency_ns,
            });
            if let Some(ns) = latency_ns {
                l.pending_samples.push((self.name, ns));
            }
            l.maybe_flush();
        });
    }
}

/// A merged, ordered snapshot of every thread's ring: the trusted
/// audit log.
#[derive(Clone, Debug, Default)]
pub struct AuditLog {
    /// All records, sorted by global sequence number.
    pub records: Vec<Record>,
    /// Total records discarded by ring-capacity truncation, across all
    /// threads. Non-zero means the log is a suffix, not a full history.
    pub truncated: u64,
    /// Per-syscall latency histograms, merged across threads.
    pub histograms: BTreeMap<&'static str, LatencyHist>,
}

impl AuditLog {
    /// Serialises the log as JSON lines: one object per record, then one
    /// per histogram, then a trailing summary object. Hand-rolled (the
    /// workspace is dependency-free); all strings are static identifiers
    /// but are escaped anyway.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&record_json(r));
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"syscall\":{},\"count\":{},\"log2_ns_buckets\":[{}]}}\n",
                json_str(name),
                h.count(),
                h.buckets.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
            ));
        }
        out.push_str(&format!(
            "{{\"type\":\"summary\",\"records\":{},\"truncated\":{}}}\n",
            self.records.len(),
            self.truncated
        ));
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn record_json(r: &Record) -> String {
    let body = match &r.event {
        Event::FlowCheck { layer, op, subject, object, verdict } => format!(
            "\"type\":\"flow_check\",\"layer\":\"{}\",\"op\":{},\"subject\":{subject},\
             \"object\":{object},\"verdict\":\"{}\"",
            layer.as_str(),
            json_str(op),
            if *verdict == Verdict::Allow { "allow" } else { "deny" },
        ),
        Event::SilentDrop { channel } => {
            format!("\"type\":\"silent_drop\",\"channel\":\"{}\"", channel.as_str())
        }
        Event::LabelChange { task, ty, before, after, declassify } => format!(
            "\"type\":\"label_change\",\"task\":{task},\"label\":{},\"before\":{before},\
             \"after\":{after},\"declassify\":{declassify}",
            json_str(ty),
        ),
        Event::RegionEnter { layer, verdict } => format!(
            "\"type\":\"region_enter\",\"layer\":\"{}\",\"verdict\":\"{}\"",
            layer.as_str(),
            if *verdict == Verdict::Allow { "allow" } else { "deny" },
        ),
        Event::RegionAbort { layer } => {
            format!("\"type\":\"region_abort\",\"layer\":\"{}\"", layer.as_str())
        }
        Event::SyscallEnter { name } => {
            format!("\"type\":\"syscall_enter\",\"name\":{}", json_str(name))
        }
        Event::SyscallCommit { name, ticket, latency_ns, denied } => format!(
            "\"type\":\"syscall_commit\",\"name\":{},\"ticket\":{ticket},\
             \"latency_ns\":{},\"denied\":{}",
            json_str(name),
            latency_ns.map_or_else(|| "null".to_string(), |ns| ns.to_string()),
            denied.map_or_else(|| "null".to_string(), json_str),
        ),
        Event::SyscallRollback { name, ticket, latency_ns } => format!(
            "\"type\":\"syscall_rollback\",\"name\":{},\"ticket\":{ticket},\
             \"latency_ns\":{}",
            json_str(name),
            latency_ns.map_or_else(|| "null".to_string(), |ns| ns.to_string()),
        ),
        Event::QuotaExceeded { resource } => {
            format!("\"type\":\"quota_exceeded\",\"resource\":{}", json_str(resource))
        }
    };
    format!("{{\"seq\":{},{body}}}", r.seq)
}

/// Snapshots every thread's ring into one ordered [`AuditLog`] without
/// draining anything. **Trusted read API**: reachable from `Kernel`-level
/// code and tests only — see the module docs for why no syscall exposes
/// it.
///
/// The calling thread's pending batch is flushed first; *other* live
/// threads' batches appear after their next flush (or their exit, which
/// flushes) — snapshots taken mid-run can lag those threads by up to one
/// batch.
#[must_use]
pub fn snapshot() -> AuditLog {
    LOCAL.with(|l| l.borrow_mut().flush());
    let rings: Vec<Arc<Mutex<Ring>>> =
        registry().lock().unwrap_or_else(PoisonError::into_inner).clone();
    let mut log = AuditLog::default();
    for ring in rings {
        let ring = ring.lock().unwrap_or_else(PoisonError::into_inner);
        log.records.extend(ring.buf.iter().copied());
        log.truncated += ring.truncated;
        for (name, h) in &ring.hist {
            let merged = log.histograms.entry(name).or_default();
            for (dst, src) in merged.buckets.iter_mut().zip(h.buckets.iter()) {
                *dst += src;
            }
        }
    }
    log.records.sort_by_key(|r| r.seq);
    log
}

/// Drains and returns the *current thread's* ring, in order. The
/// single-threaded conformance harness uses this to bracket the audit
/// delta of one operation. **Trusted read API** (see module docs).
#[must_use]
pub fn take_local() -> Vec<Record> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.flush();
        let mut ring = l.ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.truncated = 0;
        ring.buf.drain(..).collect()
    })
}

/// Clears every ring, histogram and truncation counter, plus the calling
/// thread's staged and pending batches (the enabled flag is left as-is).
/// For tests and benchmarks that need a clean baseline.
pub fn reset() {
    let rings: Vec<Arc<Mutex<Ring>>> =
        registry().lock().unwrap_or_else(PoisonError::into_inner).clone();
    for ring in rings {
        let mut ring = ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.buf.clear();
        ring.truncated = 0;
        ring.hist.clear();
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.staged.clear();
        l.pending.clear();
        l.pending_samples.clear();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share process-global state (the enabled flag and ring
    /// capacity), so they serialize on one mutex.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn drop_event() -> Event {
        Event::SilentDrop { channel: DropChannel::Pipe }
    }

    #[test]
    fn disabled_emits_nothing() {
        let _g = serial();
        set_enabled(false);
        reset();
        let _ = take_local();
        emit(drop_event());
        assert!(syscall_begin("noop").is_none());
        assert!(take_local().is_empty());
    }

    #[test]
    fn ring_wraparound_counts_truncation() {
        let _g = serial();
        set_enabled(true);
        reset();
        let _ = take_local();
        set_ring_capacity(4);
        for _ in 0..10 {
            emit(drop_event());
        }
        let log = snapshot();
        assert_eq!(log.truncated, 6, "10 pushes into a 4-slot ring drop 6");
        let local = take_local();
        assert_eq!(local.len(), 4, "ring holds the newest 4");
        // The survivors are the *latest* records, in order.
        for w in local.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        set_enabled(false);
    }

    #[test]
    fn staged_events_flush_on_commit_and_clear_on_retry() {
        let _g = serial();
        set_enabled(true);
        reset();
        let _ = take_local();

        // Attempt 1 stages an event, then restarts: nothing recorded.
        let span = syscall_begin("write").expect("enabled");
        emit(drop_event());
        span.retry();
        // Attempt 2 stages again and commits: exactly one drop recorded.
        emit(drop_event());
        span.commit(7, None);

        let recs = take_local();
        let drops =
            recs.iter().filter(|r| matches!(r.event, Event::SilentDrop { .. })).count();
        assert_eq!(drops, 1, "retry must discard the first attempt's stage");
        assert!(matches!(
            recs.first().map(|r| r.event),
            Some(Event::SyscallEnter { name: "write" })
        ));
        assert!(matches!(
            recs.last().map(|r| r.event),
            Some(Event::SyscallCommit { name: "write", ticket: 7, denied: None, .. })
        ));
        set_enabled(false);
    }

    #[test]
    fn has_staged_tracks_the_attempt_in_flight() {
        let _g = serial();
        set_enabled(true);
        reset();
        let _ = take_local();
        let span = syscall_begin("write").expect("enabled");
        assert!(!span.has_staged());
        emit(drop_event());
        assert!(span.has_staged());
        span.retry();
        assert!(!span.has_staged(), "a restart discards the stage");
        emit(drop_event());
        assert!(span.has_staged());
        span.commit(4, None);
        // Committing empties the stage for the next span.
        let span = syscall_begin("read").expect("enabled");
        assert!(!span.has_staged());
        span.commit(5, None);
        let commits: Vec<u64> = take_local()
            .iter()
            .filter_map(|r| match r.event {
                Event::SyscallCommit { ticket, .. } => Some(ticket),
                _ => None,
            })
            .collect();
        assert_eq!(commits, vec![4], "only the span that staged records a commit");
        set_enabled(false);
    }

    #[test]
    fn rollback_discards_staged_decisions() {
        let _g = serial();
        set_enabled(true);
        reset();
        let _ = take_local();
        let span = syscall_begin("kill").expect("enabled");
        emit(drop_event());
        span.rollback(9);
        let recs = take_local();
        assert!(recs.iter().all(|r| !matches!(r.event, Event::SilentDrop { .. })));
        assert!(matches!(
            recs.last().map(|r| r.event),
            Some(Event::SyscallRollback { name: "kill", ticket: 9, .. })
        ));
        set_enabled(false);
    }

    #[test]
    fn unfinished_span_discards_stage_on_drop() {
        let _g = serial();
        set_enabled(true);
        reset();
        let _ = take_local();
        {
            let _span = syscall_begin("open").expect("enabled");
            emit(drop_event());
            // dropped without commit/rollback
        }
        assert!(take_local().is_empty());
        // And the thread is no longer "inside a syscall": emits go direct.
        emit(drop_event());
        assert_eq!(take_local().len(), 1);
        set_enabled(false);
    }

    #[test]
    fn latency_histogram_buckets_are_log2() {
        let mut h = LatencyHist::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        h.record(u64::MAX); // clamped to the last bucket
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn latency_sampling_period_controls_clock_reads() {
        let _g = serial();
        set_enabled(true);
        reset();
        let _ = take_local();
        // Period 1: every dispatch carries a latency and feeds the hist.
        // (Each span stages a drop so its commit is decision-bearing and
        // actually recorded.)
        set_latency_sample_every(1);
        for i in 0..4 {
            let span = syscall_begin("seek").expect("enabled");
            emit(drop_event());
            span.commit(i, None);
        }
        let sampled = take_local()
            .iter()
            .filter(|r| {
                matches!(r.event, Event::SyscallCommit { latency_ns: Some(_), .. })
            })
            .count();
        assert_eq!(sampled, 4);
        // A long period leaves later dispatches unsampled (the first
        // tick of a fresh period boundary may sample; none after).
        set_latency_sample_every(u32::MAX);
        for i in 0..4 {
            let span = syscall_begin("seek").expect("enabled");
            emit(drop_event());
            span.commit(i, None);
        }
        let unsampled = take_local()
            .iter()
            .filter(|r| matches!(r.event, Event::SyscallCommit { latency_ns: None, .. }))
            .count();
        assert!(unsampled >= 3, "period u32::MAX must skip the clock");
        set_latency_sample_every(DEFAULT_LATENCY_SAMPLE_EVERY);
        set_enabled(false);
    }

    #[test]
    fn decision_free_success_leaves_no_records() {
        let _g = serial();
        set_enabled(true);
        reset();
        let _ = take_local();
        set_latency_sample_every(1);
        // No staged events, no denial: nothing lands in the ring…
        let span = syscall_begin("read").expect("enabled");
        span.commit(1, None);
        assert!(take_local().is_empty());
        // …but the sampled latency still feeds the histogram…
        assert!(snapshot().histograms.get("read").is_some_and(|h| h.count() >= 1));
        // …and a denied commit with no staged events is still recorded.
        let span = syscall_begin("read").expect("enabled");
        span.commit(2, Some("flow"));
        let recs = take_local();
        assert!(matches!(
            recs.last().map(|r| r.event),
            Some(Event::SyscallCommit { denied: Some("flow"), .. })
        ));
        set_latency_sample_every(DEFAULT_LATENCY_SAMPLE_EVERY);
        set_enabled(false);
    }

    #[test]
    fn json_lines_export_is_one_object_per_line() {
        let _g = serial();
        set_enabled(true);
        reset();
        let _ = take_local();
        let span = syscall_begin("write").expect("enabled");
        emit(Event::QuotaExceeded { resource: "file size" });
        span.commit(3, Some("quota"));
        let log = snapshot();
        let json = log.to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert!(lines.len() >= 4, "3 records + histogram + summary");
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "not an object: {l}");
        }
        assert!(json.contains("\"type\":\"quota_exceeded\""));
        assert!(json.contains("\"denied\":\"quota\""));
        assert!(json.contains("\"type\":\"histogram\""));
        let _ = take_local();
        set_enabled(false);
    }

    #[test]
    fn snapshot_merges_threads_in_seq_order() {
        let _g = serial();
        set_enabled(true);
        reset();
        let _ = take_local();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..8 {
                        emit(drop_event());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        let log = snapshot();
        let drops = log
            .records
            .iter()
            .filter(|r| matches!(r.event, Event::SilentDrop { .. }))
            .count();
        assert!(drops >= 32);
        for w in log.records.windows(2) {
            assert!(w[0].seq < w[1].seq, "snapshot must be seq-sorted");
        }
        reset();
        set_enabled(false);
    }
}

#[cfg(test)]
mod micro {
    use super::*;

    #[test]
    #[ignore = "manual microbenchmark"]
    fn span_cost() {
        set_enabled(true);
        reset();
        let _ = take_local();
        let n = 2_000_000u64;
        let t = Instant::now();
        for i in 0..n {
            let s = syscall_begin("x").unwrap();
            s.commit(i, None);
        }
        let per = t.elapsed().as_nanos() as f64 / n as f64;
        eprintln!("enabled span+commit: {per:.1} ns/syscall");
        let t = Instant::now();
        for _ in 0..n {
            emit(Event::SilentDrop { channel: DropChannel::Pipe });
        }
        let per = t.elapsed().as_nanos() as f64 / n as f64;
        eprintln!("enabled emit (direct): {per:.1} ns/event");
        set_enabled(false);
        let t = Instant::now();
        for i in 0..n {
            let s = syscall_begin("x");
            if let Some(s) = s {
                s.commit(i, None);
            }
        }
        let per = t.elapsed().as_nanos() as f64 / n as f64;
        eprintln!("disabled span+commit: {per:.1} ns/syscall");
        reset();
    }
}
