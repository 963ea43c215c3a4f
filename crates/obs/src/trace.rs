//! Span-tree request tracing.
//!
//! Each admitted request gets a [`TraceId`]; the pipeline stages append
//! [`SpanEvent`]s (stage label, interval, candidates in/out, note) into a
//! [`RequestTrace`] that travels with the request. Spans form a tree:
//! every span has a `span_id` unique within its trace and a `parent_id`
//! (0 = root), so cross-shard fan-out renders as children of the stage
//! that scattered it. A [`SpanContext`] is the portable third of that
//! tree — the (trace, span, parent) triple a remote recorder (a cluster
//! shard, a maintenance job) needs to emit child spans that stitch back
//! into the request's tree later.
//!
//! A disabled trace is free: [`RequestTrace::disabled`] never allocates
//! and every [`RequestTrace::span`] call on it is a branch and a return.
//! Stage labels are `Cow<'static, str>`: the fixed stages (`queue`,
//! `retrieval`, ...) borrow, dynamic scopes (`shard-3`) own —
//! and the owning allocation only ever happens on an enabled trace,
//! because dynamic labels are built behind the same enabled check.

use std::borrow::Cow;

/// Identifies one request end to end. Allocated sequentially per service,
/// so a seeded, single-submitter run assigns the same ids every time.
/// `0` means "untraced".
pub type TraceId = u64;

/// The portable coordinates of one span in one trace: everything a remote
/// component needs to record child spans that later stitch into the
/// request's tree ([`RequestTrace::graft`]).
///
/// `trace_id == 0` means "untraced" — carriers of a dead context must not
/// record anything, which is what keeps the disabled path allocation-free
/// across process and shard boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanContext {
    /// The owning trace (0 = untraced).
    pub trace_id: TraceId,
    /// The span remote children should attach under (0 = attach at the
    /// stitching fallback — see [`RequestTrace::graft`]).
    pub span_id: u32,
    /// That span's own parent (informational; 0 = root).
    pub parent_id: u32,
}

impl SpanContext {
    /// The dead context: carried by untraced requests, records nothing.
    pub fn none() -> SpanContext {
        SpanContext {
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
        }
    }

    /// Whether children recorded under this context will ever be seen.
    pub fn is_live(&self) -> bool {
        self.trace_id != 0
    }
}

/// One stage's (or one remote worker's) contribution to a request trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stage label: the fixed stages (`queue`, `cache`, `retrieval`,
    /// `rerank`, `verify`) borrow a static string; dynamic scopes
    /// (`shard-3`) own theirs.
    pub stage: Cow<'static, str>,
    /// This span's id, unique within the trace (grafted remote spans use
    /// a disjoint high-bit range). 0 only in never-recorded placeholders.
    pub span_id: u32,
    /// The parent span's id; 0 = root of the trace.
    pub parent_id: u32,
    /// Start offset from the trace's start, nanoseconds. Root-level spans
    /// are laid out end to end in recording order; child spans are
    /// relative to their parent until [`RequestTrace::graft`] rebases
    /// them.
    pub start_ns: u64,
    /// Wall time spent in the span, nanoseconds.
    pub duration_ns: u64,
    /// Candidates entering the stage.
    pub candidates_in: usize,
    /// Candidates leaving the stage.
    pub candidates_out: usize,
    /// Stage-specific annotation: cache `hit`/`miss`, `deadline`,
    /// `replayed`, a failure cause — empty when there is nothing to say.
    /// The fixed notes borrow a static string, so recording them allocates
    /// nothing; formatted ones own theirs.
    pub note: Cow<'static, str>,
}

impl SpanEvent {
    /// End offset (`start + duration`), saturating.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.duration_ns)
    }
}

/// The full lifecycle of one request, as recorded by the stages it passed
/// through. Retained by the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// The request's trace id (0 = untraced placeholder).
    pub trace_id: TraceId,
    /// The verified object's workload id.
    pub object_id: u64,
    /// Final disposition: `completed`, `partial`, `shed`, `failed`,
    /// `maintenance` — empty until [`RequestTrace::finish`].
    pub outcome: &'static str,
    /// End-to-end wall time (enqueue to reply), nanoseconds.
    pub total_ns: u64,
    /// Spans, in recording order (children may be grafted after their
    /// parents, out of timeline order).
    pub spans: Vec<SpanEvent>,
    enabled: bool,
    /// Next span id to hand out; ids are dense from 1 per trace.
    next_span_id: u32,
    /// Running end-of-timeline offset used to lay out root spans.
    cursor_ns: u64,
}

impl RequestTrace {
    /// An enabled trace for one request.
    pub fn new(trace_id: TraceId, object_id: u64) -> RequestTrace {
        RequestTrace {
            trace_id,
            object_id,
            outcome: "",
            total_ns: 0,
            spans: Vec::with_capacity(5),
            enabled: true,
            next_span_id: 1,
            cursor_ns: 0,
        }
    }

    /// The no-op trace: spans are dropped, nothing allocates. This is what
    /// untraced entry points (`verify_object` et al.) pass through the
    /// pipeline.
    pub fn disabled() -> RequestTrace {
        RequestTrace {
            trace_id: 0,
            object_id: 0,
            outcome: "",
            total_ns: 0,
            spans: Vec::new(),
            enabled: false,
            next_span_id: 0,
            cursor_ns: 0,
        }
    }

    /// Whether span events are being retained.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The next span id (0 on a disabled trace).
    fn reserve(&mut self) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_span_id;
        self.next_span_id += 1;
        id
    }

    /// Append a root-level span laid out at the current end of the
    /// timeline. A disabled trace drops it without allocating. Returns the
    /// span's id (0 when disabled).
    pub fn span(
        &mut self,
        stage: impl Into<Cow<'static, str>>,
        duration_ns: u64,
        candidates_in: usize,
        candidates_out: usize,
        note: impl Into<Cow<'static, str>>,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.reserve();
        self.push_at(id, 0, self.cursor_ns, stage.into(), duration_ns);
        self.cursor_ns += duration_ns;
        let last = self.spans.last_mut().expect("span just pushed");
        last.candidates_in = candidates_in;
        last.candidates_out = candidates_out;
        last.note = note.into();
        id
    }

    /// Append a child span under `parent_id` at an explicit offset
    /// *relative to the parent's start*. The child is clamped into the
    /// parent's interval (stitched timelines cross threads and clocks, and
    /// the tree invariant — children nest inside parents — is worth more
    /// than a few nanoseconds of cross-thread skew). Returns the child's
    /// id (0 when disabled).
    #[allow(clippy::too_many_arguments)]
    pub fn child_span(
        &mut self,
        parent_id: u32,
        stage: impl Into<Cow<'static, str>>,
        start_ns: u64,
        duration_ns: u64,
        candidates_in: usize,
        candidates_out: usize,
        note: impl Into<Cow<'static, str>>,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.reserve();
        let (start, duration) = match self.spans.iter().find(|s| s.span_id == parent_id) {
            Some(parent) => clamp_into(parent.start_ns, parent.duration_ns, start_ns, duration_ns),
            None => (start_ns, duration_ns),
        };
        self.push_at(id, parent_id, start, stage.into(), duration);
        let last = self.spans.last_mut().expect("span just pushed");
        last.candidates_in = candidates_in;
        last.candidates_out = candidates_out;
        last.note = note.into();
        id
    }

    fn push_at(
        &mut self,
        span_id: u32,
        parent_id: u32,
        start_ns: u64,
        stage: Cow<'static, str>,
        duration_ns: u64,
    ) {
        self.spans.push(SpanEvent {
            stage,
            span_id,
            parent_id,
            start_ns,
            duration_ns,
            candidates_in: 0,
            candidates_out: 0,
            note: Cow::Borrowed(""),
        });
    }

    /// Stitch remotely-recorded child spans (a shard recorder's
    /// contribution for this trace) into the tree.
    ///
    /// Each incoming span's `parent_id` is resolved against this trace: an
    /// exact span-id match wins; a dangling or zero parent falls back to
    /// the span labelled `retrieval` (remote children are scatter work by
    /// construction), then to the root. Child `start_ns` is interpreted as
    /// an offset from the resolved parent's start and the interval is
    /// clamped inside the parent's — stitched clocks ticked on other
    /// threads, and the nesting invariant is load-bearing for rendering.
    /// Incoming span ids are kept (remote recorders allocate from a
    /// disjoint high-bit range).
    pub fn graft(&mut self, children: Vec<SpanEvent>) {
        if !self.enabled {
            return;
        }
        for mut child in children {
            let parent = self
                .spans
                .iter()
                .find(|s| s.span_id == child.parent_id && child.parent_id != 0)
                .or_else(|| self.spans.iter().find(|s| s.stage == "retrieval"))
                .map(|p| (p.span_id, p.start_ns, p.duration_ns));
            match parent {
                Some((pid, p_start, p_dur)) => {
                    let (start, duration) =
                        clamp_into(p_start, p_dur, child.start_ns, child.duration_ns);
                    child.parent_id = pid;
                    child.start_ns = start;
                    child.duration_ns = duration;
                }
                None => {
                    child.parent_id = 0;
                }
            }
            self.spans.push(child);
        }
    }

    /// The first span recorded for `stage`, if any.
    pub fn span_for(&self, stage: &str) -> Option<&SpanEvent> {
        self.spans.iter().find(|s| s.stage == stage)
    }

    /// The span with the given id, if any.
    pub fn span_by_id(&self, span_id: u32) -> Option<&SpanEvent> {
        self.spans.iter().find(|s| s.span_id == span_id)
    }

    /// The direct children of `parent_id`, in recording order.
    pub fn children_of(&self, parent_id: u32) -> Vec<&SpanEvent> {
        self.spans
            .iter()
            .filter(|s| s.parent_id == parent_id && s.span_id != parent_id)
            .collect()
    }

    /// Seal the trace with its disposition and end-to-end wall time.
    pub fn finish(&mut self, outcome: &'static str, total_ns: u64) {
        self.outcome = outcome;
        self.total_ns = total_ns;
    }

    /// One-line-per-span human rendering (flight-recorder dumps). Child
    /// spans render indented under their position in the list.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = format!(
            "trace {} object {} [{}] total {:.3}ms\n",
            self.trace_id,
            self.object_id,
            if self.outcome.is_empty() {
                "open"
            } else {
                self.outcome
            },
            self.total_ns as f64 / 1e6,
        );
        for span in &self.spans {
            let indent = if span.parent_id == 0 { "" } else { "  " };
            let _ = write!(
                out,
                "  {indent}{:<10} {:>10.3}ms  candidates {} -> {}",
                span.stage,
                span.duration_ns as f64 / 1e6,
                span.candidates_in,
                span.candidates_out,
            );
            if !span.note.is_empty() {
                let _ = write!(out, "  ({})", span.note);
            }
            out.push('\n');
        }
        out
    }
}

/// Clamp a child interval (given relative to its parent's start) inside
/// the parent's `[start, start + duration]` interval, in trace-absolute
/// coordinates.
fn clamp_into(
    parent_start: u64,
    parent_duration: u64,
    child_rel_start: u64,
    child_duration: u64,
) -> (u64, u64) {
    let duration = child_duration.min(parent_duration);
    let rel_start = child_rel_start.min(parent_duration - duration);
    (parent_start + rel_start, duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_drops_spans_without_allocating() {
        let mut trace = RequestTrace::disabled();
        trace.span("retrieval", 100, 10, 5, "");
        assert!(trace.spans.is_empty());
        assert_eq!(
            trace.spans.capacity(),
            0,
            "disabled trace must not allocate"
        );
        assert!(!trace.is_enabled());
        assert_eq!(trace.reserve(), 0);
        trace.child_span(1, "shard-0", 0, 10, 1, 1, "");
        trace.graft(vec![]);
        assert_eq!(trace.spans.capacity(), 0);
    }

    #[test]
    fn enabled_trace_keeps_span_order() {
        let mut trace = RequestTrace::new(7, 42);
        trace.span("queue", 10, 0, 0, "");
        trace.span("retrieval", 20, 12, 6, "");
        trace.span("verify", 30, 6, 6, "deadline");
        trace.finish("partial", 60);
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(
            trace.span_for("retrieval").map(|s| s.candidates_out),
            Some(6)
        );
        assert_eq!(trace.outcome, "partial");
        let rendered = trace.render();
        assert!(rendered.contains("trace 7 object 42 [partial]"));
        assert!(rendered.contains("(deadline)"));
    }

    #[test]
    fn root_spans_lay_out_end_to_end() {
        let mut trace = RequestTrace::new(1, 1);
        let a = trace.span("queue", 10, 0, 0, "");
        let b = trace.span("retrieval", 20, 0, 0, "");
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        assert_eq!(trace.spans[0].start_ns, 0);
        assert_eq!(trace.spans[1].start_ns, 10);
        assert_eq!(trace.spans[1].end_ns(), 30);
    }

    #[test]
    fn child_spans_clamp_into_their_parent() {
        let mut trace = RequestTrace::new(1, 1);
        let parent = trace.span("retrieval", 100, 10, 5, "");
        // In range: kept as-is, rebased onto the parent's start.
        let a = trace.child_span(parent, "shard-0", 10, 50, 5, 5, "");
        // Over-long child: clamped to the parent's interval.
        let b = trace.child_span(parent, "shard-1", 90, 500, 5, 5, "");
        assert!(a > 0 && b > a);
        let pa = trace.span_for("retrieval").expect("parent").clone();
        for child in trace.children_of(parent) {
            assert!(child.start_ns >= pa.start_ns);
            assert!(child.end_ns() <= pa.end_ns());
        }
        assert_eq!(trace.span_for("shard-0").expect("a").start_ns, 10);
        assert_eq!(trace.span_for("shard-1").expect("b").duration_ns, 100);
    }

    #[test]
    fn graft_resolves_parents_and_falls_back_to_retrieval() {
        let mut trace = RequestTrace::new(9, 9);
        trace.span("queue", 10, 0, 0, "");
        let retrieval = trace.span("retrieval", 100, 10, 5, "");
        let remote = |parent_id: u32| SpanEvent {
            stage: Cow::Owned("shard-2".to_string()),
            span_id: 0x8000_0001,
            parent_id,
            start_ns: 5,
            duration_ns: 60,
            candidates_in: 10,
            candidates_out: 4,
            note: "queue 1us scan 59us".into(),
        };
        // Exact parent match.
        trace.graft(vec![remote(retrieval)]);
        // Dangling parent: falls back to the retrieval span.
        trace.graft(vec![SpanEvent {
            span_id: 0x8000_0002,
            ..remote(777)
        }]);
        let children = trace.children_of(retrieval);
        assert_eq!(children.len(), 2);
        let parent = trace.span_for("retrieval").expect("parent");
        for child in trace.children_of(retrieval) {
            assert!(child.start_ns >= parent.start_ns);
            assert!(child.end_ns() <= parent.end_ns());
            assert_eq!(child.parent_id, retrieval);
        }
    }

    #[test]
    fn dynamic_labels_name_their_scope() {
        let mut trace = RequestTrace::new(3, 3);
        let parent = trace.span("retrieval", 10, 0, 0, "");
        trace.child_span(parent, format!("shard-{}", 3), 0, 5, 1, 1, "");
        assert!(trace.span_for("shard-3").is_some());
    }
}
