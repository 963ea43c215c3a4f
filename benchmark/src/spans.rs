//! Benchmark-side spans: one record per public call into a layer.
//!
//! The traced pass wraps each call the benchmark makes in a span (name,
//! start, end, parent, request id). Spans stay in memory and are written out
//! once, at exit. A layer's self time is its span's duration minus the part
//! of that interval its child spans cover. Spans inside the program are a
//! later change; this file sees only what the benchmark itself calls.

use std::time::Instant;

use serde_json::{json, Value};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based id; 0 is "no span".
    pub id: u32,
    /// The span that caused this one (0 for a root).
    pub parent: u32,
    /// The request all spans of one tree share.
    pub request: u64,
    /// Layer-qualified name, e.g. `retrieve.tuple`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; every method is a no-op (no clock read, no
/// allocation) when disabled, so one code path serves both passes and the
/// difference between them is the tracing overhead.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    request: u64,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Set the request id that subsequently opened spans carry.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Open a span under the innermost open span; returns its id (0 when
    /// disabled). Close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            request: self.request,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        id
    }

    /// Close the span `id` (which must be the innermost open one).
    pub fn exit(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let open = self.stack.pop();
        debug_assert_eq!(open, Some(id), "spans close innermost first");
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Record a finished root span whose interval was timed by the caller —
    /// for overlapping in-flight requests, which do not nest on a stack.
    pub fn record_root(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: 0,
            request,
            name,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.since_epoch(Instant::now())
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The spans as a JSON array, for the trace file written at exit.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "id": s.id,
                        "parent": s.parent,
                        "request": s.request,
                        "name": s.name,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                    })
                })
                .collect(),
        )
    }
}

/// Self time of every span, aligned with `spans`: duration minus the union
/// of its direct children's intervals, each clipped to the parent. Children
/// that overlap each other are not subtracted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != 0 {
            let parent = &spans[span.parent as usize - 1];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[span.parent as usize - 1].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Mean duration in microseconds of the spans called `name` (0 when none).
pub fn mean_us(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    crate::stats::mean(&durations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(1, 0, 0, 100), // root
            span(2, 1, 10, 30), // child a
            span(3, 1, 50, 90), // child b
            span(4, 3, 60, 70), // grandchild: not subtracted from the root
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 1, 40, 80), // overlaps child 2 on [40, 60)
        ];
        // Union of children is [10, 80) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(1, 0, 10, 50),
            span(2, 1, 0, 20),   // starts before the parent
            span(3, 1, 40, 500), // ends after it
        ];
        // Covered: [10, 20) + [40, 50) = 20 of 40.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::on();
        tracer.set_request(7);
        let root = tracer.enter("request");
        let child = tracer.enter("judge");
        tracer.exit(child);
        tracer.exit(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (0, root));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::off();
        let id = off.enter("request");
        off.exit(id);
        off.record_root("request", 1, Instant::now(), Instant::now());
        assert!(off.spans().is_empty());
    }
}
