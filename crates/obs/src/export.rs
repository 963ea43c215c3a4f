//! Metric exporters: Prometheus text format and JSON snapshots, plus the
//! shape check for collapsed-stack ("folded") profiles.
//!
//! Histograms render as Prometheus *summaries* (quantile series plus
//! `_sum`/`_count`) rather than `_bucket` series — the internal layout has
//! 496 buckets, which would drown a scrape; the fixed quantile set is what
//! dashboards actually chart. Durations are exported in seconds per
//! Prometheus convention.

use std::fmt::Write;

use crate::registry::{RegistrySnapshot, SeriesValue};

/// Quantiles exported for every histogram series.
const QUANTILES: [f64; 4] = [0.5, 0.9, 0.95, 0.99];

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double quote, and line feed must be written as `\\`, `\"`,
/// and `\n` — a raw newline or quote in a value corrupts every series
/// after it in the scrape.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn label_block(labels: &[(&'static str, String)], extra: Option<(&str, String)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label_value(&v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Render a registry snapshot in the Prometheus text exposition format.
pub fn render_prometheus(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut seen: Vec<&str> = Vec::new();
    for series in &snapshot.series {
        // HELP/TYPE once per metric name, ahead of its first series.
        if !seen.contains(&series.name) {
            seen.push(series.name);
            let kind = match series.value {
                SeriesValue::Counter(_) => "counter",
                SeriesValue::Gauge(_) | SeriesValue::Float(_) => "gauge",
                SeriesValue::Histogram(_) => "summary",
            };
            let _ = writeln!(out, "# HELP {} {}", series.name, series.help);
            let _ = writeln!(out, "# TYPE {} {}", series.name, kind);
        }
        match &series.value {
            SeriesValue::Counter(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {v}",
                    series.name,
                    label_block(&series.labels, None)
                );
            }
            SeriesValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {v}",
                    series.name,
                    label_block(&series.labels, None)
                );
            }
            SeriesValue::Float(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {v}",
                    series.name,
                    label_block(&series.labels, None)
                );
            }
            SeriesValue::Histogram(h) => {
                for q in QUANTILES {
                    let labels = label_block(&series.labels, Some(("quantile", format!("{q}"))));
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        series.name,
                        labels,
                        h.quantile(q).as_secs_f64()
                    );
                }
                let plain = label_block(&series.labels, None);
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    series.name,
                    plain,
                    h.sum_micros() as f64 / 1e6
                );
                let _ = writeln!(out, "{}_count{} {}", series.name, plain, h.count());
                // Exemplared buckets additionally render as `_bucket`
                // samples with an OpenMetrics exemplar suffix — the link
                // from a latency bucket to a retrievable trace id. Only
                // buckets that pinned an exemplar are emitted, so the 496
                // internal buckets never drown a scrape.
                for exemplar in h.exemplars() {
                    let le = label_block(
                        &series.labels,
                        Some(("le", format!("{}", exemplar.upper_micros as f64 / 1e6))),
                    );
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {} # {{trace_id=\"{}\"}} {}",
                        series.name,
                        le,
                        h.cumulative_count(exemplar.bucket),
                        exemplar.trace_id,
                        exemplar.value_micros as f64 / 1e6
                    );
                }
            }
        }
    }
    out
}

/// Validate a Prometheus text exposition: every sample line's metric must
/// have been introduced by a `# HELP` line with non-empty text **and** a
/// `# TYPE` line before its first sample. Summary `_sum`/`_count` and
/// exemplar `_bucket` samples are attributed to their base metric.
/// Returns the number of sample lines, or a description of the first
/// violation — the test (and smoke-script) guard ensuring no series ever
/// ships undocumented.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut helped: Vec<&str> = Vec::new();
    let mut typed: Vec<&str> = Vec::new();
    let mut samples = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if name.is_empty() || rest[name.len()..].trim().is_empty() {
                return Err(format!("line {lineno}: HELP with no text: {line:?}"));
            }
            helped.push(name);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap_or("");
            if name.is_empty() {
                return Err(format!("line {lineno}: TYPE with no name: {line:?}"));
            }
            typed.push(name);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {lineno}: not a sample line: {line:?}"))?;
        let mut name = &line[..name_end];
        for suffix in ["_sum", "_count", "_bucket"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if helped.contains(&base) {
                    name = base;
                    break;
                }
            }
        }
        if !helped.contains(&name) {
            return Err(format!("line {lineno}: series {name} has no # HELP"));
        }
        if !typed.contains(&name) {
            return Err(format!("line {lineno}: series {name} has no # TYPE"));
        }
        samples += 1;
    }
    Ok(samples)
}

/// Render a registry snapshot as a JSON object: one key per series
/// (`name{label=value}` for labeled series), counters and gauges as
/// numbers, histograms as `{count, mean_us, p50_us, p95_us, p99_us,
/// max_us}` objects.
pub fn render_json(snapshot: &RegistrySnapshot) -> serde_json::Value {
    let mut root = serde_json::Map::new();
    for series in &snapshot.series {
        let key = format!("{}{}", series.name, label_block(&series.labels, None));
        let value = match &series.value {
            SeriesValue::Counter(v) => serde_json::json!(*v),
            SeriesValue::Gauge(v) => serde_json::json!(*v),
            SeriesValue::Float(v) => serde_json::json!(*v),
            SeriesValue::Histogram(h) => serde_json::json!({
                "count": h.count(),
                "mean_us": h.mean().as_micros() as u64,
                "p50_us": h.quantile(0.50).as_micros() as u64,
                "p95_us": h.quantile(0.95).as_micros() as u64,
                "p99_us": h.quantile(0.99).as_micros() as u64,
                "max_us": h.max().as_micros() as u64,
            }),
        };
        root.insert(key, value);
    }
    serde_json::Value::Object(root)
}

/// Validate a folded-stack dump (the collapsed-stack format
/// `flamegraph.pl` and speedscope ingest): non-empty, every line
/// `stack weight` with a parseable positive weight and a non-empty
/// `;`-separated stack. Returns `(distinct_stacks, total_weight)` or a
/// description of the first malformed line — the self-check behind
/// `verifai-serve --profile-dump`.
pub fn validate_folded(dump: &str) -> Result<(usize, u64), String> {
    let mut stacks = 0usize;
    let mut total = 0u64;
    for (idx, line) in dump.lines().enumerate() {
        let Some((stack, count)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: no sample count: {line:?}", idx + 1));
        };
        if stack.is_empty() || stack.split(';').any(str::is_empty) {
            return Err(format!("line {}: empty frame in stack {stack:?}", idx + 1));
        }
        let count: u64 = count
            .parse()
            .map_err(|e| format!("line {}: bad count {count:?}: {e}", idx + 1))?;
        if count == 0 {
            return Err(format!("line {}: zero sample count", idx + 1));
        }
        stacks += 1;
        total = total.saturating_add(count);
    }
    if stacks == 0 {
        return Err("no folded stacks in dump".to_string());
    }
    Ok((stacks, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use std::time::Duration;

    fn sample_registry() -> Registry {
        let registry = Registry::new();
        registry
            .counter(
                "verifai_requests_total",
                "requests",
                &[("outcome", "completed")],
            )
            .add(5);
        registry
            .counter("verifai_requests_total", "requests", &[("outcome", "shed")])
            .add(2);
        registry.gauge("verifai_queue_depth", "queue", &[]).set(3);
        let hist = registry.histogram(
            "verifai_stage_latency_seconds",
            "stage latency",
            &[("stage", "verify")],
        );
        hist.record(Duration::from_millis(10));
        hist.record(Duration::from_millis(20));
        registry
    }

    #[test]
    fn prometheus_text_format_shape() {
        let text = render_prometheus(&sample_registry().snapshot());
        assert!(text.contains("# TYPE verifai_requests_total counter"));
        assert!(text.contains("verifai_requests_total{outcome=\"completed\"} 5"));
        assert!(text.contains("verifai_requests_total{outcome=\"shed\"} 2"));
        // HELP/TYPE emitted once despite two series under the name.
        assert_eq!(text.matches("# TYPE verifai_requests_total").count(), 1);
        assert!(text.contains("# TYPE verifai_queue_depth gauge"));
        assert!(text.contains("verifai_queue_depth 3"));
        assert!(text.contains("# TYPE verifai_stage_latency_seconds summary"));
        assert!(text.contains("verifai_stage_latency_seconds{stage=\"verify\",quantile=\"0.5\"}"));
        assert!(text.contains("verifai_stage_latency_seconds_count{stage=\"verify\"} 2"));
        assert!(text.contains("verifai_stage_latency_seconds_sum{stage=\"verify\"} 0.03"));
    }

    #[test]
    fn pathological_label_values_are_escaped() {
        let registry = Registry::new();
        // A value exercising all three escapes: backslash, quote, newline.
        let pathological = "C:\\lake\"prod\"\nline2";
        registry
            .counter("verifai_paths_total", "paths", &[("path", pathological)])
            .add(1);
        let text = render_prometheus(&registry.snapshot());
        assert!(
            text.contains(r#"verifai_paths_total{path="C:\\lake\"prod\"\nline2"} 1"#),
            "escaped series line missing from:\n{text}"
        );
        // The raw newline must not split the series across lines: exactly
        // HELP + TYPE + one sample line.
        assert_eq!(text.lines().count(), 3, "scrape corrupted:\n{text}");
    }

    #[test]
    fn exemplared_histogram_renders_openmetrics_exemplar_syntax() {
        let registry = Registry::new();
        let hist = registry.histogram_with_exemplars(
            "verifai_request_latency_seconds",
            "end-to-end latency",
            &[],
        );
        hist.record_traced(Duration::from_micros(500), 42);
        hist.record(Duration::from_micros(100)); // untraced: no exemplar
        let text = render_prometheus(&registry.snapshot());
        // The quantile/summary shape is unchanged...
        assert!(text.contains("# TYPE verifai_request_latency_seconds summary"));
        assert!(text.contains("verifai_request_latency_seconds_count 2"));
        // ...and the exemplared bucket links to the trace.
        let bucket_line = text
            .lines()
            .find(|l| l.starts_with("verifai_request_latency_seconds_bucket{le="))
            .expect("exemplared bucket line");
        assert!(
            bucket_line.contains("# {trace_id=\"42\"} 0.0005"),
            "OpenMetrics exemplar suffix missing: {bucket_line}"
        );
        assert_eq!(
            text.matches("_bucket{").count(),
            1,
            "only exemplared buckets render"
        );
        // A plain histogram still renders no bucket lines at all.
        let plain = Registry::new();
        plain
            .histogram("verifai_plain_seconds", "plain", &[])
            .record(Duration::from_micros(500));
        assert!(!render_prometheus(&plain.snapshot()).contains("_bucket"));
    }

    #[test]
    fn rendered_exposition_passes_help_type_validation() {
        // Exemplared histograms are the trickiest shape: quantile, _sum,
        // _count, and _bucket samples all under one HELP/TYPE pair.
        let registry = sample_registry();
        registry
            .histogram_with_exemplars("verifai_request_latency_seconds", "latency", &[])
            .record_traced(Duration::from_micros(500), 42);
        let samples = validate_prometheus(&render_prometheus(&registry.snapshot()))
            .expect("rendered exposition validates");
        assert!(samples >= 10, "summary expands to many samples: {samples}");
    }

    #[test]
    fn validation_rejects_undocumented_series() {
        assert!(
            validate_prometheus("verifai_orphan_total 3\n")
                .unwrap_err()
                .contains("no # HELP"),
            "sample without HELP must be rejected"
        );
        let no_type = "# HELP verifai_x_total docs\nverifai_x_total 1\n";
        assert!(validate_prometheus(no_type)
            .unwrap_err()
            .contains("no # TYPE"));
        let empty_help =
            "# HELP verifai_x_total \n# TYPE verifai_x_total counter\nverifai_x_total 1\n";
        assert!(validate_prometheus(empty_help)
            .unwrap_err()
            .contains("HELP with no text"));
        // Correct exposition passes and counts its sample lines.
        let good = "# HELP verifai_x_total docs\n# TYPE verifai_x_total counter\nverifai_x_total{a=\"b\"} 1\n";
        assert_eq!(validate_prometheus(good), Ok(1));
    }

    #[test]
    fn escape_label_value_handles_each_special() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    #[test]
    fn float_gauge_renders_in_both_exporters() {
        let registry = Registry::new();
        registry
            .float_gauge("verifai_process_uptime_seconds", "uptime", &[])
            .set(0.75);
        let snap = registry.snapshot();
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE verifai_process_uptime_seconds gauge"));
        assert!(text.contains("verifai_process_uptime_seconds 0.75"));
        let json = render_json(&snap);
        assert_eq!(
            json.as_object()
                .and_then(|o| o.get("verifai_process_uptime_seconds"))
                .and_then(|v| v.as_f64()),
            Some(0.75)
        );
    }

    #[test]
    fn json_snapshot_shape() {
        let value = render_json(&sample_registry().snapshot());
        let object = value.as_object().expect("top-level object");
        assert_eq!(
            object
                .get("verifai_requests_total{outcome=\"completed\"}")
                .and_then(|v| v.as_u64()),
            Some(5)
        );
        let hist = object
            .get("verifai_stage_latency_seconds{stage=\"verify\"}")
            .and_then(|v| v.as_object())
            .expect("histogram object");
        assert_eq!(hist.get("count").and_then(|v| v.as_u64()), Some(2));
        assert!(hist.get("p95_us").and_then(|v| v.as_u64()).expect("p95") >= 10_000);
    }

    #[test]
    fn folded_dump_validates() {
        let (stacks, total) =
            validate_folded("service;request;queue 7\nservice;request;verify 2\n")
                .expect("valid dump");
        assert_eq!((stacks, total), (2, 9));

        assert!(validate_folded("").is_err(), "empty dump rejected");
        assert!(validate_folded("no-count-line\n").is_err());
        assert!(validate_folded("stack 0\n").is_err(), "zero count rejected");
        assert!(validate_folded("a;;b 3\n").is_err(), "empty frame rejected");
        assert!(validate_folded("a;b x\n").is_err(), "bad count rejected");
    }
}
