//! Perfetto / Chrome trace-event export of recorded request traces.
//!
//! Renders [`RequestTrace`]s as the Chrome trace-event JSON format (an
//! object with a `traceEvents` array of `ph: "X"` complete events), which
//! both `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load directly. Each trace becomes one process lane (`pid` = trace id,
//! named by a metadata event); root spans share thread lane 0 so the
//! stage sequence reads left to right, while child spans (per-shard
//! scatter work, batch membership) each get their own lane under the
//! same process so the fan-out renders as parallel rows.
//!
//! The module also carries a dependency-free JSON *validator*
//! ([`validate_trace_dump`]) used by `verifai-serve --trace-dump` to
//! prove the dump it just wrote parses and contains per-shard child
//! spans — the vendored serializer has no parser, and a smoke gate that
//! cannot read its own artifact gates nothing.

use crate::trace::RequestTrace;

/// Render `traces` as one Chrome trace-event JSON document. Timestamps
/// (`ts`) and durations (`dur`) are microseconds per the format; spans
/// shorter than the trace clock's resolution render with their true
/// (possibly zero) duration.
pub fn render_perfetto(traces: &[&RequestTrace]) -> serde_json::Value {
    let mut events: Vec<serde_json::Value> = Vec::new();
    for trace in traces {
        let outcome = if trace.outcome.is_empty() {
            "open"
        } else {
            trace.outcome
        };
        events.push(serde_json::json!({
            "name": "process_name",
            "ph": "M",
            "pid": trace.trace_id,
            "args": {
                "name": format!(
                    "trace {} object {} [{}]",
                    trace.trace_id, trace.object_id, outcome
                ),
            },
        }));
        for span in &trace.spans {
            // Root spans share lane 0 (they are laid out end to end and
            // never overlap); children render one lane each, so parallel
            // shard fan-out stacks visually under its parent stage.
            let lane = if span.parent_id == 0 { 0 } else { span.span_id };
            events.push(serde_json::json!({
                "name": span.stage.as_ref(),
                "cat": "verifai",
                "ph": "X",
                "ts": span.start_ns as f64 / 1e3,
                "dur": span.duration_ns as f64 / 1e3,
                "pid": trace.trace_id,
                "tid": lane,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "candidates_in": span.candidates_in,
                    "candidates_out": span.candidates_out,
                    "note": span.note.as_ref(),
                },
            }));
        }
    }
    serde_json::json!({
        "displayTimeUnit": "ms",
        "traceEvents": events,
    })
}

/// What [`validate_trace_dump`] found in a trace-event JSON document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceDumpSummary {
    /// `ph: "X"` span events.
    pub spans: usize,
    /// Distinct `pid`s (= distinct traces) seen across events.
    pub traces: usize,
    /// Span events whose name starts with `shard-` (per-shard children).
    pub shard_spans: usize,
}

/// Parse and validate a Chrome trace-event JSON document, summarizing
/// what it contains. Errors on malformed JSON or a missing/ill-typed
/// `traceEvents` array — the self-check behind the `--trace-dump` smoke
/// gate.
pub fn validate_trace_dump(json: &str) -> Result<TraceDumpSummary, String> {
    let mut parser = Parser {
        bytes: json.as_bytes(),
        at: 0,
    };
    parser.skip_ws();
    let root = parser.value()?;
    parser.skip_ws();
    if parser.at != parser.bytes.len() {
        return Err(format!("trailing bytes at offset {}", parser.at));
    }
    let JsonValue::Object(root) = root else {
        return Err("top level is not an object".to_string());
    };
    let events = root
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("no traceEvents key")?;
    let JsonValue::Array(events) = events else {
        return Err("traceEvents is not an array".to_string());
    };
    let mut summary = TraceDumpSummary::default();
    let mut pids: Vec<f64> = Vec::new();
    for event in events {
        let JsonValue::Object(fields) = event else {
            return Err("traceEvents entry is not an object".to_string());
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        if let Some(JsonValue::Number(pid)) = get("pid") {
            if !pids.contains(pid) {
                pids.push(*pid);
            }
        }
        if let Some(JsonValue::String(ph)) = get("ph") {
            if ph == "X" {
                summary.spans += 1;
                if let Some(JsonValue::String(name)) = get("name") {
                    if name.starts_with("shard-") {
                        summary.shard_spans += 1;
                    }
                }
            }
        }
    }
    summary.traces = pids.len();
    Ok(summary)
}

/// A parsed JSON value — just enough structure for the validator to walk.
enum JsonValue {
    Null,
    Bool,
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    Object(Vec<(String, JsonValue)>),
}

/// A minimal recursive-descent JSON parser (strict enough for the smoke
/// gate: rejects trailing garbage, unterminated strings, bad escapes,
/// malformed numbers).
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", want as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.at))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool),
            Some(b'f') => self.literal("false", JsonValue::Bool),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.at)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Advance one whole UTF-8 scalar (input is &str, so
                    // boundaries are trustworthy).
                    let rest = &self.bytes[self.at..];
                    let step = std::str::from_utf8(rest)
                        .ok()
                        .and_then(|s| s.chars().next())
                        .map(|c| {
                            out.push(c);
                            c.len_utf8()
                        })
                        .ok_or("invalid utf-8 in string")?;
                    self.at += step;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(JsonValue::Number)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cross_shard_trace() -> RequestTrace {
        let mut trace = RequestTrace::new(42, 7);
        trace.span("queue", 1_000, 0, 0, "");
        let retrieval = trace.span("retrieval", 100_000, 12, 6, "");
        for shard in 0..4u32 {
            trace.child_span(
                retrieval,
                format!("shard-{shard}"),
                0,
                40_000 + u64::from(shard) * 1_000,
                12,
                3,
                format!("k 12 merged 3 queue 2us scan {}us", 38 + shard),
            );
        }
        trace.span("verify", 30_000, 6, 6, "");
        trace.finish("completed", 131_000);
        trace
    }

    #[test]
    fn export_roundtrips_through_the_validator() {
        let trace = cross_shard_trace();
        let json = serde_json::to_string(&render_perfetto(&[&trace])).expect("serialize");
        let summary = validate_trace_dump(&json).expect("valid trace-event JSON");
        assert_eq!(summary.spans, 7, "3 root + 4 shard children");
        assert_eq!(summary.shard_spans, 4);
        assert_eq!(summary.traces, 1);
        // Pretty printing parses identically.
        let pretty = serde_json::to_string_pretty(&render_perfetto(&[&trace])).expect("serialize");
        assert_eq!(validate_trace_dump(&pretty), Ok(summary));
    }

    #[test]
    fn events_carry_the_span_tree_coordinates() {
        let trace = cross_shard_trace();
        let value = render_perfetto(&[&trace]);
        let events = value
            .as_object()
            .and_then(|o| o.get("traceEvents"))
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        // Metadata event + 7 spans.
        assert_eq!(events.len(), 8);
        let spans: Vec<_> = events
            .iter()
            .filter(|e| {
                e.as_object()
                    .and_then(|o| o.get("ph"))
                    .and_then(|v| v.as_str())
                    == Some("X")
            })
            .collect();
        let shard0 = spans
            .iter()
            .find(|e| {
                e.as_object()
                    .and_then(|o| o.get("name"))
                    .and_then(|v| v.as_str())
                    == Some("shard-0")
            })
            .and_then(|e| e.as_object())
            .expect("shard-0 event");
        // Child ts sits inside the retrieval parent's interval (1000ns
        // queue before it → ts >= 1.0us).
        let ts = shard0.get("ts").and_then(|v| v.as_f64()).expect("ts");
        assert!(ts >= 1.0, "child starts inside parent: ts {ts}us");
        let args = shard0
            .get("args")
            .and_then(|v| v.as_object())
            .expect("args");
        assert_eq!(args.get("candidates_in").and_then(|v| v.as_u64()), Some(12));
        assert!(args
            .get("note")
            .and_then(|v| v.as_str())
            .expect("note")
            .contains("merged 3"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_trace_dump("").is_err());
        assert!(validate_trace_dump("{").is_err());
        assert!(
            validate_trace_dump("[]").is_err(),
            "top level must be object"
        );
        assert!(validate_trace_dump("{\"traceEvents\": 3}").is_err());
        assert!(validate_trace_dump("{\"traceEvents\": []} trailing").is_err());
        assert!(validate_trace_dump("{\"traceEvents\": [\"not an object\"]}").is_err());
        let ok = validate_trace_dump("{\"traceEvents\": []}").expect("empty is valid");
        assert_eq!(ok, TraceDumpSummary::default());
    }
}
