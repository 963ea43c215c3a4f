#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
//! # verifai-obs
//!
//! Observability substrate for the VerifAI pipeline and serving layer:
//!
//! * [`Clock`] — time as an injectable capability, so stage timings and
//!   latency percentiles are testable with a [`MockClock`] instead of
//!   asserted as "probably nonzero";
//! * [`Registry`] / [`Counter`] / [`Gauge`] / [`Histogram`] — a lock-free
//!   metrics registry: sharded atomic counters, gauges, and fixed-bucket
//!   log-linear histograms, snapshotted for export;
//! * [`RequestTrace`] / [`SpanEvent`] — span-based request tracing with a
//!   zero-allocation disabled mode;
//! * [`FlightRecorder`] — bounded retention of the most recent and the
//!   slowest full request traces for post-hoc debugging;
//! * [`render_prometheus`] / [`render_json`] — exporters over registry
//!   snapshots, and [`validate_folded`] for collapsed-stack profiles;
//! * [`CostVector`] and the `meter` thread-local tally — per-request
//!   resource metering charged by the scan kernels, merged across shards,
//!   and rolled up per tenant.
//!
//! The crate exports series, not judgements: a verdict-mix drift or a
//! latency SLO burn rate is a query over the counters and histograms it
//! already exports, computed by whoever asks.
//!
//! The crate is deliberately a leaf: it knows nothing about lakes,
//! indexes, or verdicts, so every layer of the workspace can depend on it.

pub mod clock;
pub mod config;
pub mod export;
pub mod hist;
pub mod meter;
pub mod perfetto;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use clock::{Clock, MockClock, SystemClock};
pub use config::{ns_between, ObsConfig};
pub use export::{render_json, render_prometheus, validate_folded, validate_prometheus};
pub use hist::{Exemplar, Histogram, HistogramSnapshot};
pub use meter::CostVector;
pub use perfetto::{render_perfetto, validate_trace_dump, TraceDumpSummary};
pub use recorder::{FlightRecorder, SamplingPolicy, SpanLog};
pub use registry::{Counter, FloatGauge, Gauge, Registry, RegistrySnapshot, SeriesValue};
pub use trace::{RequestTrace, SpanContext, SpanEvent, TraceId};
