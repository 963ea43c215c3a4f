//! The flight recorder: bounded retention of full request traces.
//!
//! Every request is traced cheaply and one keep rule runs here, at
//! completion time, when the outcome is known ([`SamplingPolicy`]).
//! Failed, shed, and deadline-partial traces are *always* kept — in one
//! bounded ring per outcome when the per-outcome budget is nonzero, else
//! in the ring of the N most *recent* traces. Healthy traces are kept
//! when they are tail-slow (qualify for the N *slowest* pool, or exceed
//! the running p99 estimate) and otherwise sampled deterministically by
//! a hash of the trace id (`1 in healthy_keep_one_in`). Dropped traces
//! are counted, never retained. The default policy (1 in 1, budget 0)
//! drops nothing: every trace lands in the recent ring and competes for
//! the slowest pool.
//!
//! Memory is bounded by the pool capacities regardless of how long the
//! service runs. Lookups by trace id are O(1) through a side map
//! maintained on every record and eviction: each retained trace carries a
//! pool refcount, so a trace leaves the map exactly when the last pool
//! lets go of it. Trace ids are allocator-unique within a process, which
//! is what keeps one map entry per trace sufficient.
//!
//! [`SpanLog`] is the remote half of distributed tracing: a bounded ring
//! of `(trace id, span)` pairs a shard or maintenance worker appends to,
//! later stitched into the parent trace by `Router::lookup_trace`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::hist::Histogram;
use crate::trace::{RequestTrace, SpanEvent, TraceId};

/// Outcome classes the keep rule always keeps, each with its own bounded
/// ring under a nonzero per-outcome budget.
const ALWAYS_KEEP: [&str; 3] = ["failed", "shed", "partial"];

/// The flight recorder's keep/drop policy, applied at completion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingPolicy {
    /// Keep roughly one in this many healthy (completed, not tail-slow)
    /// traces, chosen deterministically by a hash of the trace id. `1`
    /// keeps every healthy trace.
    pub healthy_keep_one_in: u64,
    /// Per-outcome retention budget — how many failed, how many shed,
    /// and how many deadline-partial traces are retained (each outcome
    /// gets its own ring of this capacity). `0` sends them to the recent
    /// ring instead.
    pub outcome_budget: usize,
}

impl SamplingPolicy {
    /// Tail-based sampling with a `1 in healthy` healthy-trace sample and
    /// a per-outcome budget of `budget` traces.
    pub fn tail(healthy: u64, budget: usize) -> SamplingPolicy {
        SamplingPolicy {
            healthy_keep_one_in: healthy.max(1),
            outcome_budget: budget,
        }
    }
}

impl Default for SamplingPolicy {
    /// Keep everything: every healthy trace is sampled in, and bad
    /// outcomes share the recent ring.
    fn default() -> SamplingPolicy {
        SamplingPolicy::tail(1, 0)
    }
}

/// The deterministic healthy-trace sampler: splitmix64 of the trace id.
/// Pure, so a seeded run (sequential trace ids) keeps the same traces
/// every time — and so does a test.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct Inner {
    recent: VecDeque<Arc<RequestTrace>>,
    /// Sorted descending by `total_ns`, truncated to capacity.
    slowest: Vec<Arc<RequestTrace>>,
    /// One bounded ring per always-keep outcome (nonzero outcome budget
    /// only), indexed like [`ALWAYS_KEEP`].
    outcomes: [VecDeque<Arc<RequestTrace>>; 3],
    /// Trace id → (trace, number of pools retaining it). Sized by the
    /// pool capacities, like the pools themselves.
    by_id: HashMap<TraceId, (Arc<RequestTrace>, u8)>,
}

impl Inner {
    /// One more pool holds `trace`.
    fn retain_id(&mut self, trace: &Arc<RequestTrace>) {
        self.by_id
            .entry(trace.trace_id)
            .or_insert_with(|| (Arc::clone(trace), 0))
            .1 += 1;
    }

    /// One pool evicted `trace`; drop the map entry with the last holder.
    fn release_id(&mut self, trace: &Arc<RequestTrace>) {
        if let Some(entry) = self.by_id.get_mut(&trace.trace_id) {
            entry.1 -= 1;
            if entry.1 == 0 {
                self.by_id.remove(&trace.trace_id);
            }
        }
    }
}

/// Bounded in-memory store of completed request traces.
pub struct FlightRecorder {
    recent_capacity: usize,
    slowest_capacity: usize,
    policy: SamplingPolicy,
    recorded: AtomicU64,
    sampled_out: AtomicU64,
    /// Running end-to-end latency distribution feeding the p99-slow
    /// keep rule (fed only when the policy samples healthy traces out).
    latency: Histogram,
    /// Cached p99 latency in nanoseconds, refreshed every
    /// [`P99_REFRESH`] records; 0 until the histogram is warm.
    p99_ns: AtomicU64,
    inner: Mutex<Inner>,
}

/// How often (in recorded traces) the cached p99 estimate is refreshed.
const P99_REFRESH: u64 = 64;
/// How many traces the p99 estimate needs before it gates anything.
const P99_WARMUP: u64 = 128;

impl FlightRecorder {
    /// A recorder retaining the `recent` most recent and `slowest` slowest
    /// traces, dropping none (the default policy).
    pub fn new(recent: usize, slowest: usize) -> FlightRecorder {
        FlightRecorder::with_sampling(recent, slowest, SamplingPolicy::default())
    }

    /// A recorder with an explicit completion-time [`SamplingPolicy`].
    pub fn with_sampling(recent: usize, slowest: usize, policy: SamplingPolicy) -> FlightRecorder {
        FlightRecorder {
            recent_capacity: recent,
            slowest_capacity: slowest,
            policy,
            recorded: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            latency: Histogram::new(),
            p99_ns: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                recent: VecDeque::with_capacity(recent),
                slowest: Vec::with_capacity(slowest.saturating_add(1)),
                outcomes: Default::default(),
                by_id: HashMap::with_capacity(recent.saturating_add(slowest)),
            }),
        }
    }

    /// The active keep/drop policy.
    pub fn policy(&self) -> SamplingPolicy {
        self.policy
    }

    /// Decide whether a sealed trace is worth keeping, and retain it if
    /// so. Disabled traces are ignored.
    pub fn record(&self, trace: RequestTrace) {
        if !trace.is_enabled() {
            return;
        }
        let seen = self.recorded.fetch_add(1, Ordering::Relaxed) + 1;
        let trace = Arc::new(trace);
        // The p99 estimate only matters when healthy traces can be
        // dropped; at 1 in 1 nothing reads it, so nothing feeds it.
        let one_in = self.policy.healthy_keep_one_in;
        if one_in > 1 {
            self.latency.record_micros(trace.total_ns / 1_000);
            if seen.is_multiple_of(P99_REFRESH) {
                let p99 = self.latency.snapshot().quantile(0.99).as_nanos() as u64;
                self.p99_ns.store(p99, Ordering::Relaxed);
            }
        }
        // Outcome first, then the deterministic healthy sample, then the
        // latency tail.
        if let Some(class) = ALWAYS_KEEP.iter().position(|o| *o == trace.outcome) {
            self.keep(&trace, Some(class));
            return;
        }
        let sampled = one_in <= 1 || splitmix64(trace.trace_id).is_multiple_of(one_in);
        let p99 = self.p99_ns.load(Ordering::Relaxed);
        let tail_slow = seen >= P99_WARMUP && p99 > 0 && trace.total_ns > p99;
        if sampled || tail_slow || self.would_enter_slowest(&trace) {
            self.keep(&trace, None);
        } else {
            self.sampled_out.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the slowest pool would accept this trace (it has room, or
    /// the trace beats a retained entry).
    fn would_enter_slowest(&self, trace: &RequestTrace) -> bool {
        if self.slowest_capacity == 0 {
            return false;
        }
        let inner = self.inner.lock();
        inner
            .slowest
            .partition_point(|t| t.total_ns >= trace.total_ns)
            < self.slowest_capacity
    }

    /// Retain `trace` in the shared pools; `outcome_class` routes
    /// always-keep outcomes to their budget ring instead of the recent
    /// ring.
    fn keep(&self, trace: &Arc<RequestTrace>, outcome_class: Option<usize>) {
        let mut inner = self.inner.lock();
        match outcome_class {
            Some(class) if self.policy.outcome_budget > 0 => {
                if inner.outcomes[class].len() == self.policy.outcome_budget {
                    if let Some(evicted) = inner.outcomes[class].pop_front() {
                        inner.release_id(&evicted);
                    }
                }
                inner.retain_id(trace);
                inner.outcomes[class].push_back(Arc::clone(trace));
            }
            _ => {
                if self.recent_capacity > 0 {
                    if inner.recent.len() == self.recent_capacity {
                        if let Some(evicted) = inner.recent.pop_front() {
                            inner.release_id(&evicted);
                        }
                    }
                    inner.retain_id(trace);
                    inner.recent.push_back(Arc::clone(trace));
                }
            }
        }
        if self.slowest_capacity > 0 {
            let at = inner
                .slowest
                .partition_point(|t| t.total_ns >= trace.total_ns);
            if at < self.slowest_capacity {
                inner.retain_id(trace);
                inner.slowest.insert(at, Arc::clone(trace));
                // The insert index is strictly below capacity, so the entry
                // squeezed out is always the previous last — never the one
                // just inserted.
                if inner.slowest.len() > self.slowest_capacity {
                    if let Some(dropped) = inner.slowest.pop() {
                        inner.release_id(&dropped);
                    }
                }
            }
        }
    }

    /// Total traces ever recorded (retained or not).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Healthy traces the tail sampler decided to drop.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out.load(Ordering::Relaxed)
    }

    /// Look a retained trace up by id — O(1) via the side map, regardless
    /// of pool sizes.
    pub fn lookup(&self, trace_id: TraceId) -> Option<Arc<RequestTrace>> {
        self.inner
            .lock()
            .by_id
            .get(&trace_id)
            .map(|(trace, _)| Arc::clone(trace))
    }

    /// The retained recent traces, oldest first.
    pub fn recent(&self) -> Vec<Arc<RequestTrace>> {
        self.inner.lock().recent.iter().map(Arc::clone).collect()
    }

    /// The retained slowest traces, slowest first.
    pub fn slowest(&self) -> Vec<Arc<RequestTrace>> {
        self.inner.lock().slowest.iter().map(Arc::clone).collect()
    }

    /// Traces retained by the per-outcome always-keep budgets (failed,
    /// then shed, then deadline-partial; oldest first within each).
    pub fn outcome_kept(&self) -> Vec<Arc<RequestTrace>> {
        let inner = self.inner.lock();
        inner
            .outcomes
            .iter()
            .flat_map(|ring| ring.iter().map(Arc::clone))
            .collect()
    }

    /// Human-readable dump of the slowest pool (post-hoc debugging).
    pub fn dump_slowest(&self, n: usize) -> String {
        let mut out = String::new();
        for trace in self.slowest().iter().take(n) {
            out.push_str(&trace.render());
        }
        out
    }
}

/// A bounded, concurrent log of `(trace id, span)` pairs: the per-shard
/// child recorder behind distributed stitching. Workers that execute
/// scattered fragments of a traced request append their child spans here;
/// `Router::lookup_trace` later collects every shard's spans for a trace
/// id and grafts them into the parent tree.
///
/// Recording under a dead context (trace id 0) is a no-op, preserving the
/// zero-cost untraced path. The ring holds the most recent `capacity`
/// spans; older spans fall off — the same bounded-memory stance as the
/// flight recorder itself.
pub struct SpanLog {
    capacity: usize,
    inner: Mutex<VecDeque<(TraceId, SpanEvent)>>,
}

impl SpanLog {
    /// A log retaining the most recent `capacity` spans.
    pub fn new(capacity: usize) -> SpanLog {
        SpanLog {
            capacity: capacity.max(1),
            inner: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
        }
    }

    /// Append one span recorded on behalf of `trace_id`. No-op when
    /// `trace_id` is 0 (untraced).
    pub fn record(&self, trace_id: TraceId, span: SpanEvent) {
        if trace_id == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.len() == self.capacity {
            inner.pop_front();
        }
        inner.push_back((trace_id, span));
    }

    /// Every retained span recorded for `trace_id`, in append order.
    pub fn for_trace(&self, trace_id: TraceId) -> Vec<SpanEvent> {
        self.inner
            .lock()
            .iter()
            .filter(|(id, _)| *id == trace_id)
            .map(|(_, span)| span.clone())
            .collect()
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the log holds no spans.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: TraceId, total_ns: u64) -> RequestTrace {
        trace_with(id, total_ns, "completed")
    }

    fn trace_with(id: TraceId, total_ns: u64, outcome: &'static str) -> RequestTrace {
        let mut t = RequestTrace::new(id, id * 10);
        t.span("verify", total_ns, 1, 1, "");
        t.finish(outcome, total_ns);
        t
    }

    #[test]
    fn recent_ring_evicts_oldest() {
        let recorder = FlightRecorder::new(3, 0);
        for id in 1..=5 {
            recorder.record(trace(id, 100));
        }
        let recent: Vec<TraceId> = recorder.recent().iter().map(|t| t.trace_id).collect();
        assert_eq!(recent, vec![3, 4, 5]);
        assert!(recorder.lookup(1).is_none());
        assert!(recorder.lookup(4).is_some());
        assert_eq!(recorder.recorded(), 5);
    }

    #[test]
    fn slowest_pool_keeps_the_slowest() {
        let recorder = FlightRecorder::new(2, 2);
        recorder.record(trace(1, 500));
        recorder.record(trace(2, 100));
        recorder.record(trace(3, 900));
        recorder.record(trace(4, 300));
        let slowest: Vec<u64> = recorder.slowest().iter().map(|t| t.total_ns).collect();
        assert_eq!(slowest, vec![900, 500]);
        // Trace 1 fell out of the 2-deep recent ring but survives as a
        // slowest entry — retrievable by id either way.
        assert_eq!(recorder.lookup(1).expect("retained as slow").total_ns, 500);
        assert!(recorder.lookup(2).is_none(), "fast and old: evicted");
    }

    #[test]
    fn zero_capacity_recorder_counts_but_retains_nothing() {
        let recorder = FlightRecorder::new(0, 0);
        recorder.record(trace(1, 100));
        recorder.record(trace(2, 900));
        assert_eq!(recorder.recorded(), 2);
        assert!(recorder.recent().is_empty());
        assert!(recorder.slowest().is_empty());
        assert!(recorder.lookup(1).is_none());
        assert!(recorder.lookup(2).is_none());
        assert!(
            recorder.inner.lock().by_id.is_empty(),
            "id map must not leak"
        );
    }

    #[test]
    fn slowest_ties_keep_earlier_arrivals() {
        let recorder = FlightRecorder::new(0, 2);
        recorder.record(trace(1, 500));
        recorder.record(trace(2, 500));
        // A third tie has no room: every retained entry sorts at-or-before
        // it, so it lands exactly at capacity and is rejected.
        recorder.record(trace(3, 500));
        let ids: Vec<TraceId> = recorder.slowest().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert!(recorder.lookup(2).is_some());
        assert!(recorder.lookup(3).is_none());
        // A strictly slower trace still displaces the newest tie.
        recorder.record(trace(4, 501));
        let ids: Vec<TraceId> = recorder.slowest().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![4, 1]);
        assert!(recorder.lookup(2).is_none(), "displaced tie must evict");
        assert_eq!(recorder.inner.lock().by_id.len(), 2);
    }

    #[test]
    fn lookup_map_stays_bounded_by_pool_capacities() {
        let recorder = FlightRecorder::new(3, 2);
        for id in 1..=100 {
            recorder.record(trace(id, id * 7 % 13));
        }
        let inner = recorder.inner.lock();
        assert!(
            inner.by_id.len() <= 5,
            "{} ids retained for 3+2 slots",
            inner.by_id.len()
        );
        // Every retained trace is reachable; every map entry is retained.
        drop(inner);
        for t in recorder.recent().iter().chain(recorder.slowest().iter()) {
            assert!(recorder.lookup(t.trace_id).is_some());
        }
    }

    #[test]
    fn disabled_traces_are_ignored() {
        let recorder = FlightRecorder::new(4, 4);
        recorder.record(RequestTrace::disabled());
        assert_eq!(recorder.recorded(), 0);
        assert!(recorder.recent().is_empty());
    }

    #[test]
    fn dump_renders_slowest_first() {
        let recorder = FlightRecorder::new(4, 4);
        recorder.record(trace(1, 100));
        recorder.record(trace(2, 700));
        let dump = recorder.dump_slowest(1);
        assert!(dump.starts_with("trace 2"));
    }

    #[test]
    fn tail_sampling_always_keeps_bad_outcomes() {
        let recorder = FlightRecorder::with_sampling(4, 0, SamplingPolicy::tail(1_000_000, 32));
        for id in 1..=10 {
            let outcome = ["failed", "shed", "partial"][(id % 3) as usize];
            recorder.record(trace_with(id, 50, outcome));
        }
        // 100% of failed/shed/partial traces retained and retrievable.
        for id in 1..=10 {
            assert!(recorder.lookup(id).is_some(), "trace {id} must be kept");
        }
        assert_eq!(recorder.outcome_kept().len(), 10);
        assert_eq!(recorder.sampled_out(), 0);
    }

    #[test]
    fn tail_sampling_outcome_budget_is_bounded() {
        let recorder = FlightRecorder::with_sampling(0, 0, SamplingPolicy::tail(1, 3));
        for id in 1..=10 {
            recorder.record(trace_with(id, 50, "failed"));
        }
        let kept: Vec<TraceId> = recorder.outcome_kept().iter().map(|t| t.trace_id).collect();
        assert_eq!(kept, vec![8, 9, 10], "ring keeps the most recent budget");
        assert_eq!(recorder.recorded(), 10);
    }

    #[test]
    fn tail_sampling_keeps_a_deterministic_healthy_fraction() {
        let policy = SamplingPolicy::tail(4, 8);
        let recorder = FlightRecorder::with_sampling(64, 0, SamplingPolicy::tail(4, 8));
        let n = 64u64;
        for id in 1..=n {
            recorder.record(trace(id, 50));
        }
        let kept = recorder.recent().len() as u64;
        let dropped = recorder.sampled_out();
        assert_eq!(kept + dropped, n, "every healthy trace decided");
        // The sampler is a pure function of the id, so the kept set is
        // exactly predictable — and a bounded fraction, not everything.
        let expect: u64 = (1..=n)
            .filter(|id| splitmix64(*id).is_multiple_of(policy.healthy_keep_one_in))
            .count() as u64;
        assert_eq!(kept, expect);
        assert!(kept < n, "sampling must drop something at 1-in-4");
        assert!(kept > 0, "sampling must keep something across 64 ids");
        // Re-running the same ids keeps the same traces.
        let twin = FlightRecorder::with_sampling(64, 0, SamplingPolicy::tail(4, 8));
        for id in 1..=n {
            twin.record(trace(id, 50));
        }
        let ids = |r: &FlightRecorder| -> Vec<TraceId> {
            r.recent().iter().map(|t| t.trace_id).collect()
        };
        assert_eq!(ids(&recorder), ids(&twin));
    }

    #[test]
    fn tail_sampling_keeps_slow_healthy_traces() {
        // healthy_keep_one_in is astronomically high: only the slow-keep
        // rules can retain a healthy trace.
        let recorder = FlightRecorder::with_sampling(8, 2, SamplingPolicy::tail(u64::MAX, 4));
        for id in 1..=300u64 {
            // A flat 10us floor with two slow outliers.
            let total = if id % 100 == 0 { 9_000_000 } else { 10_000 };
            recorder.record(trace(id, total));
        }
        // The outliers entered the slowest pool despite the sampler.
        let slowest: Vec<u64> = recorder.slowest().iter().map(|t| t.total_ns).collect();
        assert_eq!(slowest.len(), 2);
        assert!(slowest.iter().all(|t| *t == 9_000_000));
        assert!(recorder.lookup(100).is_some());
        assert!(recorder.lookup(200).is_some());
        assert!(
            recorder.sampled_out() > 250,
            "the flat floor is sampled out ({} dropped)",
            recorder.sampled_out()
        );
    }

    #[test]
    fn span_log_is_bounded_and_filters_by_trace() {
        let log = SpanLog::new(3);
        assert!(log.is_empty());
        let span = |stage: &'static str| SpanEvent {
            stage: std::borrow::Cow::Borrowed(stage),
            span_id: 0x8000_0001,
            parent_id: 2,
            start_ns: 0,
            duration_ns: 10,
            candidates_in: 4,
            candidates_out: 2,
            note: "".into(),
        };
        log.record(0, span("dropped"));
        assert!(log.is_empty(), "dead context records nothing");
        log.record(7, span("shard-0"));
        log.record(8, span("shard-0"));
        log.record(7, span("shard-1"));
        log.record(7, span("shard-2"));
        assert_eq!(log.len(), 3, "capacity 3: oldest fell off");
        let seven: Vec<String> = log
            .for_trace(7)
            .iter()
            .map(|s| s.stage.to_string())
            .collect();
        assert_eq!(seven, vec!["shard-1", "shard-2"]);
        assert_eq!(log.for_trace(8).len(), 1);
        assert!(log.for_trace(99).is_empty());
    }
}
