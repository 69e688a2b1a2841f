//! Op-scoped trace spans and the slow-op ring buffer.
//!
//! A [`Trace`] is created at an operation's entry point (a SQL statement in
//! `Session`, an `EXPLAIN ANALYZE`) and installed in thread-local storage.
//! Instrumented code *anywhere underneath* — the DBT descent, the 2PC
//! coordinator, the transports, the write-ahead log — charges wall-clock
//! time to a [`SpanKind`] via [`span`] and bumps [`TraceCounter`]s via
//! [`count`], with no trace handle threaded through any signature.
//!
//! The pay-as-you-go contract: a process-wide relaxed atomic counts the
//! active traces.  While it is zero — the overwhelmingly common case —
//! every [`span`] and [`count`] call is **one relaxed atomic load and a
//! branch**; no clock read, no TLS access, no allocation.  Only when some
//! thread is tracing do other instrumentation points additionally consult
//! their (cheap, but not free) thread-local slot.
//!
//! A trace that finishes slower than its threshold is pushed — as a
//! [`TraceReport`] — into the bounded [`SlowOpRing`] it was created with,
//! where it can be dumped as JSON for postmortems and CI smoke checks.
//!
//! Known limit: spans are attributed to the thread they run on.  Every RPC
//! a client issues is submitted and counted on the op's thread, but the
//! server work behind it — a worker of the threaded transport, a log's
//! flusher — runs on threads of its own and is not charged to the trace.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::clock;

/// Layers a span charges wall-clock time to, ordered top to bottom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanKind {
    /// SQL statement execution (the executor, excluding parse/plan).
    Sql = 0,
    /// A distributed-balanced-tree operation (lookup/insert/delete/scan).
    Dbt = 1,
    /// A KV read RPC round (get / scan-next leg).
    KvGet = 2,
    /// A KV transaction commit: its whole prepare round, one participant
    /// or several.
    KvCommit = 3,
    /// One RPC round trip, including retries and backoff.
    Rpc = 4,
    /// A write-ahead-log append, including its share of the group fsync.
    Wal = 5,
}

/// Number of span kinds (array size for per-trace accumulators).
pub const NUM_SPAN_KINDS: usize = 6;

const SPAN_NAMES: [&str; NUM_SPAN_KINDS] = ["sql", "dbt", "kv_get", "kv_commit", "rpc", "wal"];

impl SpanKind {
    /// Stable lower-case name used in reports.
    pub fn name(self) -> &'static str {
        SPAN_NAMES[self as usize]
    }
}

/// Per-trace event counters bumped by instrumented code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum TraceCounter {
    /// DBT node fetches (inner or leaf) issued to the KV store.
    NodeFetches = 0,
    /// Rows re-fetched from the base table after an index hit (fetch-backs).
    FetchBacks = 1,
    /// Rows pulled out of the tree by scans/lookups.
    RowsScanned = 2,
    /// RPC retry attempts (after the first try).
    Retries = 3,
    /// Write-write conflicts observed at commit.
    Conflicts = 4,
    /// Node reads served by a hot-node replica instead of the primary.
    ReplicaReads = 5,
    /// RPC round trips issued.
    Rpcs = 6,
}

/// Number of trace counters (array size for per-trace accumulators).
pub const NUM_TRACE_COUNTERS: usize = 7;

const COUNTER_NAMES: [&str; NUM_TRACE_COUNTERS] = [
    "node_fetches",
    "fetchbacks",
    "rows_scanned",
    "retries",
    "conflicts",
    "replica_reads",
    "rpcs",
];

impl TraceCounter {
    /// Stable lower-case name used in reports.
    pub fn name(self) -> &'static str {
        COUNTER_NAMES[self as usize]
    }
}

/// The per-thread accumulator behind an active [`Trace`].
struct ActiveTrace {
    label: String,
    start: Instant,
    span_calls: [u64; NUM_SPAN_KINDS],
    span_us: [u64; NUM_SPAN_KINDS],
    counters: [u64; NUM_TRACE_COUNTERS],
    slow_threshold_us: u64,
    ring: Arc<SlowOpRing>,
}

thread_local! {
    static CURRENT: RefCell<Option<Box<ActiveTrace>>> = const { RefCell::new(None) };
}

/// Process-wide count of active traces: the one relaxed load every
/// instrumentation point pays when tracing is off anywhere.
static ACTIVE_TRACES: AtomicU64 = AtomicU64::new(0);

/// Whether any thread in the process currently holds an active trace.
#[inline]
pub fn tracing_active() -> bool {
    ACTIVE_TRACES.load(Ordering::Relaxed) != 0
}

/// Bumps trace counter `c` by `n` on the current trace, if any.  One
/// relaxed load when no trace is active anywhere in the process.
#[inline]
pub fn count(c: TraceCounter, n: u64) {
    if !tracing_active() {
        return;
    }
    CURRENT.with(|cur| {
        if let Some(t) = cur.borrow_mut().as_mut() {
            t.counters[c as usize] += n;
        }
    });
}

/// Reads the current trace's value of counter `c` (0 without a trace).
/// `EXPLAIN ANALYZE` uses before/after deltas of this to attribute fetches
/// to individual plan operators.
#[inline]
pub fn counter_value(c: TraceCounter) -> u64 {
    if !tracing_active() {
        return 0;
    }
    CURRENT.with(|cur| cur.borrow().as_ref().map_or(0, |t| t.counters[c as usize]))
}

/// An RAII guard charging its lifetime to a [`SpanKind`] of the current
/// trace.  Inert (no clock read) when the thread has no active trace.
pub struct Span {
    kind: SpanKind,
    start: Option<Instant>,
}

/// Opens a span of `kind` against the current trace.  One relaxed load when
/// no trace is active anywhere in the process.
#[inline]
pub fn span(kind: SpanKind) -> Span {
    if !tracing_active() {
        return Span { kind, start: None };
    }
    let traced = CURRENT.with(|cur| cur.borrow().is_some());
    Span {
        kind,
        start: traced.then(clock::now),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let us = clock::elapsed_us(t0);
            CURRENT.with(|cur| {
                if let Some(t) = cur.borrow_mut().as_mut() {
                    t.span_calls[self.kind as usize] += 1;
                    t.span_us[self.kind as usize] += us;
                }
            });
        }
    }
}

/// A handle to this thread's active trace; dropping it finishes the trace
/// and, if it was slow enough, files it in the slow-op ring.
pub struct Trace {
    /// Guards against a mismatched drop after `finish` already ran.
    finished: bool,
}

impl Trace {
    /// Starts a trace on this thread.  Returns `None` if the thread already
    /// has one (traces do not nest).  Allocation note: the label string,
    /// the boxed accumulator and the ring `Arc` bump the tracked-alloc
    /// tally — this is exactly the cost sampling is meant to amortise.
    pub fn start(label: String, slow_threshold_us: u64, ring: Arc<SlowOpRing>) -> Option<Trace> {
        let installed = CURRENT.with(|cur| {
            let mut cur = cur.borrow_mut();
            if cur.is_some() {
                return false;
            }
            clock::note_alloc(2); // the Box below plus the caller's label
            *cur = Some(Box::new(ActiveTrace {
                label,
                start: clock::now(),
                span_calls: [0; NUM_SPAN_KINDS],
                span_us: [0; NUM_SPAN_KINDS],
                counters: [0; NUM_TRACE_COUNTERS],
                slow_threshold_us,
                ring,
            }));
            true
        });
        if !installed {
            return None;
        }
        ACTIVE_TRACES.fetch_add(1, Ordering::Relaxed);
        Some(Trace { finished: false })
    }

    /// Finishes the trace and returns its report (also files it in the ring
    /// if it crossed the slow threshold).
    pub fn finish(mut self) -> TraceReport {
        self.finished = true;
        finish_current().expect("trace handle without an active trace")
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        if !self.finished {
            let _ = finish_current();
        }
    }
}

fn finish_current() -> Option<TraceReport> {
    let active = CURRENT.with(|cur| cur.borrow_mut().take())?;
    ACTIVE_TRACES.fetch_sub(1, Ordering::Relaxed);
    let elapsed_us = clock::elapsed_us(active.start);
    let mut spans = Vec::new();
    for (i, &name) in SPAN_NAMES.iter().enumerate() {
        if active.span_calls[i] > 0 {
            spans.push(SpanTotal {
                name,
                calls: active.span_calls[i],
                us: active.span_us[i],
            });
        }
    }
    let mut counters = Vec::new();
    for (i, &name) in COUNTER_NAMES.iter().enumerate() {
        if active.counters[i] > 0 {
            counters.push((name, active.counters[i]));
        }
    }
    clock::note_alloc(3); // report label + span and counter vectors
    let report = TraceReport {
        label: active.label,
        elapsed_us,
        spans,
        counters,
    };
    if elapsed_us >= active.slow_threshold_us {
        active.ring.push(report.clone());
    }
    Some(report)
}

/// Accumulated time one trace spent in one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTotal {
    /// Layer name ([`SpanKind::name`]).
    pub name: &'static str,
    /// Number of spans of this kind.
    pub calls: u64,
    /// Total microseconds across those spans (inclusive of nested layers).
    pub us: u64,
}

/// A completed trace: total elapsed time, per-layer span totals and the
/// non-zero per-trace counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// The label the trace was created with (e.g. `sql:select`).
    pub label: String,
    /// Wall-clock microseconds from trace start to finish.
    pub elapsed_us: u64,
    /// Per-layer time, only kinds with at least one span.
    pub spans: Vec<SpanTotal>,
    /// Non-zero per-trace counters.
    pub counters: Vec<(&'static str, u64)>,
}

impl TraceReport {
    /// Value of a span total by name, if any span of that kind ran.
    pub fn span_us(&self, name: &str) -> Option<u64> {
        self.spans.iter().find(|s| s.name == name).map(|s| s.us)
    }

    /// Value of a trace counter by name (0 if it never fired).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"label\": \"{}\", \"elapsed_us\": {}, \"spans\": {{",
            json_escape(&self.label),
            self.elapsed_us
        );
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { ", " };
            let _ = write!(
                out,
                "\"{}\": {{\"calls\": {}, \"us\": {}}}{comma}",
                s.name, s.calls, s.us
            );
        }
        let _ = write!(out, "}}, \"counters\": {{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 == self.counters.len() {
                ""
            } else {
                ", "
            };
            let _ = write!(out, "\"{name}\": {v}{comma}");
        }
        let _ = write!(out, "}}}}");
        out
    }
}

/// Escapes a string for embedding in a JSON literal (labels are ASCII
/// identifiers in practice; this covers the general case anyway).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A bounded ring of the most recent slow operations.  Pushes evict the
/// oldest entry once the ring is full; the eviction tally is kept so a
/// dump discloses what it dropped.
pub struct SlowOpRing {
    cap: usize,
    entries: Mutex<VecDeque<TraceReport>>,
    evicted: AtomicU64,
}

impl SlowOpRing {
    /// Creates a ring holding at most `cap` reports.
    pub fn new(cap: usize) -> Self {
        SlowOpRing {
            cap: cap.max(1),
            entries: Mutex::new(VecDeque::new()),
            evicted: AtomicU64::new(0),
        }
    }

    /// Files a report, evicting the oldest if the ring is full.
    pub fn push(&self, report: TraceReport) {
        clock::note_alloc(1);
        let mut g = self.entries.lock().expect("slow-op ring poisoned");
        if g.len() == self.cap {
            g.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        g.push_back(report);
    }

    /// Number of reports currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("slow-op ring poisoned").len()
    }

    /// True when no slow op has been filed (or all were cleared).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reports evicted to make room since creation (or the last clear).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Drops every held report and zeroes the eviction tally.
    pub fn clear(&self) {
        self.entries.lock().expect("slow-op ring poisoned").clear();
        self.evicted.store(0, Ordering::Relaxed);
    }

    /// Snapshot of the held reports, oldest first.
    pub fn snapshot(&self) -> Vec<TraceReport> {
        self.entries
            .lock()
            .expect("slow-op ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Renders the ring as one JSON object (`{"evicted": n, "slow_ops":
    /// [...]}`), oldest first.
    pub fn dump_json(&self) -> String {
        use std::fmt::Write as _;
        let reports = self.snapshot();
        let mut out = String::new();
        let _ = write!(out, "{{\"evicted\": {}, \"slow_ops\": [", self.evicted());
        for (i, r) in reports.iter().enumerate() {
            let comma = if i + 1 == reports.len() { "" } else { ", " };
            let _ = write!(out, "{}{comma}", r.to_json());
        }
        let _ = write!(out, "]}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Arc<SlowOpRing> {
        Arc::new(SlowOpRing::new(4))
    }

    #[test]
    fn spans_and_counters_accumulate() {
        let t = Trace::start("op".into(), u64::MAX, ring()).unwrap();
        {
            let _s = span(SpanKind::Dbt);
            count(TraceCounter::NodeFetches, 2);
            let _inner = span(SpanKind::Rpc);
            count(TraceCounter::Rpcs, 1);
        }
        let report = t.finish();
        assert_eq!(report.label, "op");
        assert_eq!(report.counter("node_fetches"), 2);
        assert_eq!(report.counter("rpcs"), 1);
        assert_eq!(report.counter("conflicts"), 0);
        assert!(report.span_us("dbt").is_some());
        assert!(report.span_us("rpc").is_some());
        assert!(report.span_us("wal").is_none());
    }

    #[test]
    fn inert_when_no_trace_on_this_thread() {
        // (tracing_active() is process-global and other tests may trace
        // concurrently, so only thread-local facts are asserted here.)
        // None of these may panic or observe anything on an untraced thread.
        count(TraceCounter::Retries, 1);
        let _s = span(SpanKind::Wal);
        assert_eq!(counter_value(TraceCounter::Retries), 0);
    }

    #[test]
    fn traces_do_not_nest() {
        let t = Trace::start("outer".into(), u64::MAX, ring()).unwrap();
        assert!(Trace::start("inner".into(), u64::MAX, ring()).is_none());
        drop(t);
        // The thread-local slot is free again after the drop.
        let again = Trace::start("after".into(), u64::MAX, ring()).unwrap();
        drop(again);
    }

    #[test]
    fn slow_ops_land_in_ring_and_ring_is_bounded() {
        let r = ring();
        for i in 0..6 {
            let t = Trace::start(format!("op-{i}"), 0, Arc::clone(&r)).unwrap();
            count(TraceCounter::RowsScanned, i);
            drop(t); // threshold 0: everything is "slow"
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.evicted(), 2);
        let snap = r.snapshot();
        assert_eq!(snap.first().unwrap().label, "op-2");
        assert_eq!(snap.last().unwrap().label, "op-5");
        let json = r.dump_json();
        assert!(json.contains("\"evicted\": 2"));
        assert!(json.contains("\"op-5\""));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.evicted(), 0);
    }

    #[test]
    fn report_json_shape() {
        let t = Trace::start("q\"x\"".into(), u64::MAX, ring()).unwrap();
        count(TraceCounter::FetchBacks, 3);
        let json = t.finish().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"label\": \"q\\\"x\\\"\""));
        assert!(json.contains("\"fetchbacks\": 3"));
    }

    #[test]
    fn counter_value_reads_mid_trace() {
        let t = Trace::start("mid".into(), u64::MAX, ring()).unwrap();
        assert_eq!(counter_value(TraceCounter::NodeFetches), 0);
        count(TraceCounter::NodeFetches, 5);
        assert_eq!(counter_value(TraceCounter::NodeFetches), 5);
        drop(t);
    }
}
