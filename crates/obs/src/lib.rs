//! # laminar-obs — trusted audit & decision-trace subsystem
//!
//! Laminar's enforcement is deliberately *silent* toward untrusted
//! subjects: pipe writes, capability transfers and signals that fail the
//! flow check are dropped with no error, because the error code would
//! itself be a channel (§5.2). The flip side is that the reference
//! monitor's decisions are invisible — to operators and auditors as well
//! as to adversaries. This crate restores visibility **on the trusted
//! side only**: a kernel-side decision trace that records what every
//! enforcement point (the OS LSM hooks and syscall transaction boundary,
//! the VM barriers and security regions) decided, correlated with the
//! kernel's commit tickets so an audit trail can be replayed against
//! the linearization witness.
//!
//! ## One log per kernel
//!
//! The log is a value, [`Audit`], that each kernel owns along with its
//! on/off switch: two kernels in one process keep two logs, and each
//! holds exactly the decisions of its own reference monitor. A VM
//! reaches its kernel's log through its OS bridge; a VM with no kernel
//! records nothing.
//!
//! ## Trust gating
//!
//! The read side ([`Audit::snapshot`], [`Audit::drain`]) is deliberately
//! **not** reachable from the syscall surface: `TaskHandle` exposes no
//! audit API, and nothing here is keyed by or filtered to a calling
//! task. A subject that could observe its own `SilentDrop` events would
//! have exactly the covert channel §5.2 closes — the audit log is the
//! operator's view, read by `Kernel`-level (trusted) callers and tests.
//! Untrusted code runs *under* the kernel simulation and never links
//! against this crate directly.
//!
//! ## Exactly-once semantics
//!
//! Syscall bodies may rerun (the sharded kernel's footprint-restart
//! loop), so events emitted inside a body are *staged* in a thread-local
//! buffer, the in-flight syscall's stage, and reach the log only when
//! the dispatch loop finishes the syscall. A restart discards the
//! stage, and so does a caught panic (rollback), since the
//! half-executed body's decisions were undone. A commit or a typed
//! denial is a final outcome: it hands the stage to the dispatching
//! kernel's log under one lock, and the log numbers the records under
//! that lock, so [`Record::seq`] is the order in which one kernel's log
//! received them. That is receipt order, not the linearization: a span
//! reaches the log after its syscall released its locks, so across
//! threads `seq` order may differ from commit-ticket order, and the
//! tickets remain the cross-thread witness.
//! Events emitted outside any syscall (VM barriers, region entry) go to
//! the log directly.
//!
//! ## Cost
//!
//! Off (the default), a syscall dispatch reads one relaxed flag of its
//! kernel's log, and an OS emit point finds no stage open and does
//! nothing. On, the layers emit *decisions*, not checks: LSM hooks
//! record only denials, and a decision-free successful dispatch — no
//! staged events, no typed error — leaves no records and takes no lock.
//! A decision-bearing dispatch takes the log's lock once. Nothing reads
//! a clock.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
    /// A syscall entered the dispatch loop. Recorded when the syscall
    /// finishes, immediately before the events its body staged.
    SyscallEnter {
        /// Static syscall name.
        name: &'static str,
    },
    /// A syscall reached a final outcome (success *or* typed denial) and
    /// took a commit ticket.
    SyscallCommit {
        /// Static syscall name.
        name: &'static str,
        /// The commit ticket (the kernel's linearization witness
        /// position).
        ticket: u64,
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
    },
    /// A resource allocation was denied by a [`Quotas`]-style limit.
    ///
    /// [`Quotas`]: https://docs.rs/laminar-os
    QuotaExceeded {
        /// Static name of the exhausted resource.
        resource: &'static str,
    },
}

/// One recorded event with its sequence number in its kernel's log.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Position in the log: the order in which the log received its
    /// records, dense and strictly increasing from 0. Across threads this
    /// may differ from commit-ticket order (see the crate docs).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// Records one [`Audit`] holds. When the log is full, each new record
/// pushes out the oldest, which counts as truncated.
pub const CAPACITY: usize = 16_384;

/// The bounded ring behind one [`Audit`], with the log's sequence
/// counter. The deque grows on demand, so a log that records nothing
/// allocates nothing.
#[derive(Debug, Default)]
struct Ring {
    buf: VecDeque<Record>,
    /// Oldest-record drops forced by the capacity bound.
    truncated: u64,
    next_seq: u64,
}

impl Ring {
    /// Appends one record, trimming first so the deque never grows past
    /// [`CAPACITY`].
    fn push(&mut self, event: Event) {
        if self.buf.len() == CAPACITY {
            self.buf.pop_front();
            self.truncated += 1;
        }
        self.buf.push_back(Record { seq: self.next_seq, event });
        self.next_seq += 1;
    }
}

/// One kernel's trusted audit log: an on/off switch (off by default)
/// and a bounded ring of [`CAPACITY`] records.
#[derive(Debug, Default)]
pub struct Audit {
    on: AtomicBool,
    ring: Mutex<Ring>,
}

impl Audit {
    /// Switches recording on or off. Records already in the log stay.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Whether the log records. Emit points whose payload costs
    /// something to compute check this first.
    #[inline]
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one event emitted outside any syscall (a VM barrier or
    /// region decision). No-op while the log is off.
    pub fn record(&self, event: Event) {
        if self.is_on() {
            self.ring().push(event);
        }
    }

    /// Starts a syscall span on the calling thread: until it finishes,
    /// [`stage`] collects the body's events. Returns `None` while the log
    /// is off.
    #[must_use]
    pub fn syscall_begin(&self, name: &'static str) -> Option<SyscallSpan<'_>> {
        if !self.is_on() {
            return None;
        }
        STAGE.with(|s| s.borrow_mut().open += 1);
        Some(SyscallSpan { audit: self, name })
    }

    /// Copies the log, oldest record first, without draining it.
    /// **Trusted read API**: reachable from `Kernel`-level code and tests
    /// only — see the module docs for why no syscall exposes it.
    #[must_use]
    pub fn snapshot(&self) -> AuditLog {
        let ring = self.ring();
        AuditLog {
            records: ring.buf.iter().copied().collect(),
            truncated: ring.truncated,
        }
    }

    /// Empties the log, returning its records oldest first, and resets
    /// the truncation count. Sequence numbers keep counting. **Trusted
    /// read API** (see the module docs).
    #[must_use]
    pub fn drain(&self) -> Vec<Record> {
        let mut ring = self.ring();
        ring.truncated = 0;
        ring.buf.drain(..).collect()
    }
}

/// The calling thread's in-flight syscall: the events its body staged,
/// and how many spans are open.
struct Stage {
    events: Vec<Event>,
    open: u32,
}

thread_local! {
    static STAGE: RefCell<Stage> = const { RefCell::new(Stage { events: Vec::new(), open: 0 }) };
}

/// Stages one event on the calling thread's in-flight syscall; it
/// reaches the kernel's log only if the syscall's outcome is final (see
/// the module docs). No-op when no span is open: the dispatching
/// kernel's log is off, or the caller is outside a dispatch.
pub fn stage(event: Event) {
    STAGE.with(|s| {
        let mut s = s.borrow_mut();
        if s.open > 0 {
            s.events.push(event);
        }
    });
}

/// Whether a span is open on the calling thread, i.e. whether [`stage`]
/// would keep an event. Emit points whose payload costs something to
/// compute check this first.
#[must_use]
pub fn staging() -> bool {
    STAGE.with(|s| s.borrow().open > 0)
}

/// An in-flight syscall dispatch, from [`Audit::syscall_begin`]. Finish
/// it with [`SyscallSpan::commit`] or [`SyscallSpan::rollback`];
/// dropping it unfinished discards the staged events.
#[derive(Debug)]
pub struct SyscallSpan<'a> {
    audit: &'a Audit,
    name: &'static str,
}

impl Drop for SyscallSpan<'_> {
    fn drop(&mut self) {
        STAGE.with(|s| {
            let mut s = s.borrow_mut();
            s.open = s.open.saturating_sub(1);
            s.events.clear();
        });
    }
}

impl SyscallSpan<'_> {
    /// Discards events staged by an attempt that is about to rerun
    /// (footprint restart): the body re-executes, so its decisions must
    /// not be recorded twice.
    pub fn retry(&self) {
        STAGE.with(|s| s.borrow_mut().events.clear());
    }

    /// Whether the attempt in flight has staged an event, i.e. whether
    /// committing it as a success would record a `SyscallCommit`. The
    /// kernel takes a commit ticket for a success only when one will be
    /// recorded.
    #[must_use]
    pub fn has_staged(&self) -> bool {
        STAGE.with(|s| !s.borrow().events.is_empty())
    }

    /// Finishes the span as a final outcome. A **decision-bearing**
    /// dispatch — one that staged at least one event, or ended in a
    /// typed denial — records `SyscallEnter`, the staged body events,
    /// then `SyscallCommit` (with `denied` naming the typed error, if
    /// any), contiguously and under one lock. A decision-free success
    /// records nothing: the audit rule logs decisions at enforcement
    /// points, and an allowed access decides nothing the auditor needs.
    pub fn commit(self, ticket: u64, denied: Option<&'static str>) {
        STAGE.with(|s| {
            let mut s = s.borrow_mut();
            if s.events.is_empty() && denied.is_none() {
                return;
            }
            let mut ring = self.audit.ring();
            ring.push(Event::SyscallEnter { name: self.name });
            for event in s.events.drain(..) {
                ring.push(event);
            }
            ring.push(Event::SyscallCommit { name: self.name, ticket, denied });
        });
    }

    /// Finishes the span as a caught-panic rollback: it records only
    /// `SyscallEnter` and `SyscallRollback`, and the span's drop discards
    /// the staged decision events (the body's effects were undone).
    pub fn rollback(self, ticket: u64) {
        let mut ring = self.audit.ring();
        ring.push(Event::SyscallEnter { name: self.name });
        ring.push(Event::SyscallRollback { name: self.name, ticket });
    }
}

/// A copy of one kernel's log, oldest record first: the trusted audit
/// trail.
#[derive(Clone, Debug, Default)]
pub struct AuditLog {
    /// The records, in sequence order.
    pub records: Vec<Record>,
    /// Records the ring dropped to stay within [`CAPACITY`]. Non-zero
    /// means the log is a suffix, not a full history.
    pub truncated: u64,
}

impl AuditLog {
    /// Serialises the log as JSON lines: one object per record, then a
    /// trailing summary object. Hand-rolled (the workspace is
    /// dependency-free); all strings are static identifiers but are
    /// escaped anyway.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&record_json(r));
            out.push('\n');
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
        Event::SyscallCommit { name, ticket, denied } => format!(
            "\"type\":\"syscall_commit\",\"name\":{},\"ticket\":{ticket},\"denied\":{}",
            json_str(name),
            denied.map_or_else(|| "null".to_string(), json_str),
        ),
        Event::SyscallRollback { name, ticket } => format!(
            "\"type\":\"syscall_rollback\",\"name\":{},\"ticket\":{ticket}",
            json_str(name),
        ),
        Event::QuotaExceeded { resource } => {
            format!("\"type\":\"quota_exceeded\",\"resource\":{}", json_str(resource))
        }
    };
    format!("{{\"seq\":{},{body}}}", r.seq)
}

// Benchmark compatibility only. The repository benchmark (`perfbench/`)
// still calls these two process-wide names from before each kernel owned
// its log; they exist until the next benchmark change drops those calls.
// No enforcement code calls them.

/// Does nothing: there is no process-wide log to clear.
#[doc(hidden)]
pub fn reset() {}

/// An empty log: there is no process-wide log to read.
#[doc(hidden)]
#[must_use]
pub fn snapshot() -> AuditLog {
    AuditLog::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_event() -> Event {
        Event::SilentDrop { channel: DropChannel::Pipe }
    }

    fn on() -> Audit {
        let audit = Audit::default();
        audit.set_on(true);
        audit
    }

    #[test]
    fn disabled_emits_nothing() {
        let audit = Audit::default();
        audit.record(drop_event());
        assert!(audit.syscall_begin("noop").is_none());
        stage(drop_event());
        assert!(!staging());
        assert!(audit.drain().is_empty());
    }

    #[test]
    fn ring_wraparound_counts_truncation() {
        let audit = on();
        for _ in 0..CAPACITY + 6 {
            audit.record(drop_event());
        }
        let log = audit.snapshot();
        assert_eq!(log.truncated, 6, "6 pushes past a full ring drop 6");
        let recs = audit.drain();
        assert_eq!(recs.len(), CAPACITY, "the ring holds the newest CAPACITY");
        // The survivors are the *latest* records, in order.
        assert_eq!(recs.first().map(|r| r.seq), Some(6));
        for w in recs.windows(2) {
            assert_eq!(w[0].seq + 1, w[1].seq);
        }
        assert_eq!(audit.snapshot().truncated, 0, "a drain resets the count");
    }

    #[test]
    fn staged_events_flush_on_commit_and_clear_on_retry() {
        let audit = on();
        // Attempt 1 stages an event, then restarts: nothing recorded.
        let span = audit.syscall_begin("write").expect("on");
        stage(drop_event());
        span.retry();
        // Attempt 2 stages again and commits: exactly one drop recorded.
        stage(drop_event());
        span.commit(7, None);

        let recs = audit.drain();
        let drops =
            recs.iter().filter(|r| matches!(r.event, Event::SilentDrop { .. })).count();
        assert_eq!(drops, 1, "retry must discard the first attempt's stage");
        assert!(matches!(
            recs.first().map(|r| r.event),
            Some(Event::SyscallEnter { name: "write" })
        ));
        assert!(matches!(
            recs.last().map(|r| r.event),
            Some(Event::SyscallCommit { name: "write", ticket: 7, denied: None })
        ));
    }

    #[test]
    fn has_staged_tracks_the_attempt_in_flight() {
        let audit = on();
        let span = audit.syscall_begin("write").expect("on");
        assert!(!span.has_staged());
        stage(drop_event());
        assert!(span.has_staged());
        span.retry();
        assert!(!span.has_staged(), "a restart discards the stage");
        stage(drop_event());
        assert!(span.has_staged());
        span.commit(4, None);
        // Committing empties the stage for the next span.
        let span = audit.syscall_begin("read").expect("on");
        assert!(!span.has_staged());
        span.commit(5, None);
        let commits: Vec<u64> = audit
            .drain()
            .iter()
            .filter_map(|r| match r.event {
                Event::SyscallCommit { ticket, .. } => Some(ticket),
                _ => None,
            })
            .collect();
        assert_eq!(commits, vec![4], "only the span that staged records a commit");
    }

    #[test]
    fn rollback_discards_staged_decisions() {
        let audit = on();
        let span = audit.syscall_begin("kill").expect("on");
        stage(drop_event());
        span.rollback(9);
        let recs = audit.drain();
        assert!(recs.iter().all(|r| !matches!(r.event, Event::SilentDrop { .. })));
        assert!(matches!(
            recs.last().map(|r| r.event),
            Some(Event::SyscallRollback { name: "kill", ticket: 9 })
        ));
    }

    #[test]
    fn unfinished_span_discards_stage_on_drop() {
        let audit = on();
        {
            let _span = audit.syscall_begin("open").expect("on");
            stage(drop_event());
            // dropped without commit/rollback
        }
        assert!(audit.drain().is_empty());
        // And the thread is no longer "inside a syscall": nothing stages.
        assert!(!staging());
        stage(drop_event());
        let span = audit.syscall_begin("open").expect("on");
        assert!(!span.has_staged(), "a stage outside a span is not kept");
    }

    #[test]
    fn decision_free_success_leaves_no_records() {
        let audit = on();
        // No staged events, no denial: nothing lands in the ring…
        let span = audit.syscall_begin("read").expect("on");
        span.commit(1, None);
        assert!(audit.drain().is_empty());
        // …but a denied commit with no staged events is still recorded.
        let span = audit.syscall_begin("read").expect("on");
        span.commit(2, Some("flow"));
        let recs = audit.drain();
        assert!(matches!(
            recs.last().map(|r| r.event),
            Some(Event::SyscallCommit { denied: Some("flow"), .. })
        ));
    }

    #[test]
    fn spans_commit_to_their_own_log() {
        let (a, b) = (on(), on());
        let span = a.syscall_begin("write").expect("on");
        stage(drop_event());
        span.commit(1, None);
        b.record(Event::RegionEnter { layer: Layer::Vm, verdict: Verdict::Allow });
        let recs = a.drain();
        assert_eq!(recs.len(), 3, "enter, drop, commit");
        assert!(recs.iter().all(|r| !matches!(r.event, Event::RegionEnter { .. })));
        let recs = b.drain();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].seq, 0, "each log numbers its own records");
    }

    #[test]
    fn json_lines_export_is_one_object_per_line() {
        let audit = on();
        let span = audit.syscall_begin("write").expect("on");
        stage(Event::QuotaExceeded { resource: "file size" });
        span.commit(3, Some("quota"));
        let json = audit.snapshot().to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 4, "3 records + summary");
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "not an object: {l}");
        }
        assert!(json.contains("\"type\":\"quota_exceeded\""));
        assert!(json.contains("\"denied\":\"quota\""));
        assert!(json.contains("\"type\":\"summary\",\"records\":3,\"truncated\":0"));
    }

    #[test]
    fn snapshot_merges_threads_in_seq_order() {
        let audit = on();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..8 {
                        audit.record(drop_event());
                    }
                });
            }
        });
        let log = audit.snapshot();
        assert_eq!(log.records.len(), 32);
        for (i, r) in log.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "snapshot must be in dense seq order");
        }
    }
}

#[cfg(test)]
mod micro {
    use super::*;
    use std::time::Instant;

    #[test]
    #[ignore = "manual microbenchmark"]
    fn span_cost() {
        let audit = Audit::default();
        audit.set_on(true);
        let n = 2_000_000u64;
        let t = Instant::now();
        for i in 0..n {
            let s = audit.syscall_begin("x").unwrap();
            s.commit(i, None);
        }
        let per = t.elapsed().as_nanos() as f64 / n as f64;
        eprintln!("enabled span+commit: {per:.1} ns/syscall");
        let t = Instant::now();
        for _ in 0..n {
            audit.record(Event::SilentDrop { channel: DropChannel::Pipe });
        }
        let per = t.elapsed().as_nanos() as f64 / n as f64;
        eprintln!("enabled record (direct): {per:.1} ns/event");
        audit.set_on(false);
        let t = Instant::now();
        for i in 0..n {
            if let Some(s) = audit.syscall_begin("x") {
                s.commit(i, None);
            }
        }
        let per = t.elapsed().as_nanos() as f64 / n as f64;
        eprintln!("disabled span+commit: {per:.1} ns/syscall");
    }
}
