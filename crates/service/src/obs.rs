//! Service-side observability: the metrics registry, trace-id allocation,
//! and the flight recorder, bundled so the request hot path touches one
//! struct.
//!
//! Two tiers, split by [`verifai::ObsConfig::enabled`]:
//!
//! * **Always on** — the request outcome counters, queue/in-flight gauges,
//!   and the per-stage nanosecond/candidate sums behind
//!   [`crate::StageTotals`]. These predate this module and cost one
//!   relaxed atomic op each.
//! * **Gated** — the end-to-end and per-stage latency histograms, the
//!   per-verdict counters, request traces, and flight-recorder retention.
//!   With observability off, every gated call is a branch and a return:
//!   no locks, no allocation, nothing recorded (`ObsConfig::off()` is the
//!   benchmark baseline).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use verifai::{LiveLakeStats, StageTiming, Verdict};
use verifai_obs::meter::COST_FIELDS;
use verifai_obs::{
    ns_between, CostVector, Counter, FlightRecorder, FloatGauge, Gauge, Histogram,
    HistogramSnapshot, ObsConfig, Registry, RegistrySnapshot, RequestTrace, TraceId,
};

use crate::cache::CacheStats;
use crate::stats::{StageLatency, StageTotals, TenantStats, VerdictCounts};

/// Pipeline stage names, indexed the way [`ServiceObs`] stores their series.
pub(crate) const STAGES: [&str; 4] = ["queue", "retrieval", "rerank", "verify"];

/// A report's wall-clock lanes in [`STAGES`] order.
fn stage_lanes(timing: &StageTiming) -> [u64; 4] {
    [
        timing.queue_ns,
        timing.retrieval_ns,
        timing.rerank_ns,
        timing.verify_ns,
    ]
}

/// The `verifai_verdicts_total` row a verdict counts under.
fn verdict_slot(verdict: Verdict) -> usize {
    match verdict {
        Verdict::Verified => 0,
        Verdict::Refuted => 1,
        Verdict::NotRelated => 2,
        Verdict::Unknown => 3,
    }
}

/// The compile-time kernel feature set baked into this binary, exported
/// as the `features` label of `verifai_build_info`.
const BUILD_FEATURES: &str = if cfg!(target_feature = "avx2") {
    "avx2"
} else if cfg!(target_feature = "sse2") {
    "sse2"
} else {
    "portable"
};

/// One [`CostVector`]'s worth of cumulative counters: a `{resource=...}`
/// family aligned with [`CostVector::FIELD_NAMES`]. The rollup is exact —
/// billing-grade — so it lives in the always-on tier, never gated behind
/// [`ObsConfig::enabled`].
struct CostSeries([Arc<Counter>; COST_FIELDS]);

impl CostSeries {
    fn tenant(registry: &Registry, tenant: &str) -> CostSeries {
        CostSeries(CostVector::FIELD_NAMES.map(|resource| {
            registry.counter(
                "verifai_tenant_cost_total",
                "Cumulative resource consumption per tenant, by resource dimension",
                &[("tenant", tenant), ("resource", resource)],
            )
        }))
    }

    fn service(registry: &Registry) -> CostSeries {
        CostSeries(CostVector::FIELD_NAMES.map(|resource| {
            registry.counter(
                "verifai_cost_total",
                "Cumulative resource consumption across completed requests, by resource dimension",
                &[("resource", resource)],
            )
        }))
    }

    fn add(&self, cost: &CostVector) {
        for (counter, value) in self.0.iter().zip(cost.values()) {
            counter.add(value);
        }
    }

    fn total(&self) -> CostVector {
        let mut values = [0u64; COST_FIELDS];
        for (slot, counter) in values.iter_mut().zip(self.0.iter()) {
            *slot = counter.get();
        }
        CostVector::from_values(values)
    }
}

/// Per-tenant accounting: outcome counters, an end-to-end latency
/// histogram, and the cost rollup, every series labeled `{tenant="name"}`
/// (and the counters additionally by `{outcome=...}` / `{resource=...}`).
struct TenantSeries {
    name: String,
    completed: Arc<Counter>,
    shed: Arc<Counter>,
    rejected: Arc<Counter>,
    throttled: Arc<Counter>,
    failed: Arc<Counter>,
    latency: Arc<Histogram>,
    cost: CostSeries,
}

impl TenantSeries {
    fn new(registry: &Registry, name: &str) -> TenantSeries {
        let outcome = |o: &str| {
            registry.counter(
                "verifai_tenant_requests_total",
                "Requests by tenant and final disposition",
                &[("tenant", name), ("outcome", o)],
            )
        };
        TenantSeries {
            name: name.to_string(),
            completed: outcome("completed"),
            shed: outcome("shed"),
            rejected: outcome("rejected"),
            throttled: outcome("throttled"),
            failed: outcome("failed"),
            latency: registry.histogram(
                "verifai_tenant_latency_seconds",
                "End-to-end latency of completed requests, per tenant",
                &[("tenant", name)],
            ),
            cost: CostSeries::tenant(registry, name),
        }
    }
}

/// Live-lake gauges, refreshed from [`verifai::VerifAi::live_stats`] at
/// snapshot time (like the cache gauges), summed over every shard.
struct LakeObs {
    generation: Arc<Gauge>,
    mutations: Arc<Gauge>,
    /// Tombstone counts by family: lake, content, semantic.
    tombstones: [Arc<Gauge>; 3],
    content_docs: Arc<Gauge>,
    content_segments: Arc<Gauge>,
    semantic_vectors: Arc<Gauge>,
    /// Compaction counts by family: content, semantic.
    compactions: [Arc<Gauge>; 2],
}

impl LakeObs {
    fn new(registry: &Registry) -> LakeObs {
        let tombstone = |family: &str| {
            registry.gauge(
                "verifai_lake_tombstones",
                "Logically deleted entries awaiting compaction, by family",
                &[("family", family)],
            )
        };
        let compaction = |family: &str| {
            registry.gauge(
                "verifai_lake_compactions",
                "Index compaction passes since build, by family",
                &[("family", family)],
            )
        };
        LakeObs {
            generation: registry.gauge(
                "verifai_lake_generation",
                "The lake's monotone structural-write generation",
                &[],
            ),
            mutations: registry.gauge(
                "verifai_lake_mutations",
                "Streaming mutations applied since build",
                &[],
            ),
            tombstones: [
                tombstone("lake"),
                tombstone("content"),
                tombstone("semantic"),
            ],
            content_docs: registry.gauge(
                "verifai_lake_content_docs",
                "Live documents across the content (BM25) indexes",
                &[],
            ),
            content_segments: registry.gauge(
                "verifai_lake_content_segments",
                "Sealed content segments standing across modalities",
                &[],
            ),
            semantic_vectors: registry.gauge(
                "verifai_lake_semantic_vectors",
                "Live vectors across the semantic indexes",
                &[],
            ),
            compactions: [compaction("content"), compaction("semantic")],
        }
    }

    fn refresh(&self, stats: &LiveLakeStats) {
        let clamp = |v: u64| v.min(i64::MAX as u64) as i64;
        self.generation.set(clamp(stats.generation));
        self.mutations.set(clamp(stats.mutations));
        self.tombstones[0].set(stats.lake_tombstones.min(i64::MAX as usize) as i64);
        self.tombstones[1].set(stats.content_tombstones.min(i64::MAX as usize) as i64);
        self.tombstones[2].set(stats.semantic_tombstones.min(i64::MAX as usize) as i64);
        self.content_docs
            .set(stats.content_docs.min(i64::MAX as usize) as i64);
        self.content_segments
            .set(stats.content_segments.min(i64::MAX as usize) as i64);
        self.semantic_vectors
            .set(stats.semantic_vectors.min(i64::MAX as usize) as i64);
        self.compactions[0].set(clamp(stats.content_compactions));
        self.compactions[1].set(clamp(stats.semantic_compactions));
    }
}

/// All metrics, traces, and retention for one [`crate::VerificationService`].
pub struct ServiceObs {
    config: ObsConfig,
    registry: Registry,

    // Always-on request accounting.
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    shed: Arc<Counter>,
    rejected: Arc<Counter>,
    throttled: Arc<Counter>,
    failed: Arc<Counter>,
    tenants: Vec<TenantSeries>,
    queue_depth: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    index_build_ns: Arc<Gauge>,

    // Always-on stage sums (the `StageTotals` backing store), indexed like
    // `STAGES`.
    stage_ns: [Arc<Counter>; 4],
    candidates_in: Arc<Counter>,
    candidates_out: Arc<Counter>,

    // Always-on cost accounting: the service-wide rollup of every
    // completed report's `CostVector` (per-tenant rollups live on the
    // `TenantSeries`).
    cost: CostSeries,

    // Process vitals: uptime is refreshed from the clock at snapshot time;
    // `verifai_build_info` is a constant-1 gauge set at construction.
    epoch: Instant,
    uptime: Arc<FloatGauge>,

    // Cache gauges, refreshed from `EvidenceCache` at snapshot time.
    cache_hits: Arc<Gauge>,
    cache_misses: Arc<Gauge>,
    cache_evictions: Arc<Gauge>,
    cache_entries: Arc<Gauge>,

    // Live-lake gauges, refreshed from `VerifAi::live_stats` at snapshot
    // time.
    lake: LakeObs,

    // Gated distributions and verdict accounting.
    latency: Arc<Histogram>,
    stage_latency: [Arc<Histogram>; 4],
    verdicts: [Arc<Counter>; 4],

    recorder: Arc<FlightRecorder>,
    next_trace_id: AtomicU64,
}

impl ServiceObs {
    /// Stand up the registry with every series the service exports, plus
    /// per-tenant accounting series, one `{tenant="name"}` family per entry
    /// of `tenant_names` (none for the single shared queue).
    pub fn new(config: ObsConfig, tenant_names: &[String]) -> ServiceObs {
        let registry = Registry::new();
        let epoch = config.clock.now();
        // Constant-1 info gauge carrying the build identity as labels —
        // the conventional Prometheus shape for joining version/feature
        // metadata onto any other series.
        registry
            .gauge(
                "verifai_build_info",
                "Build identity: crate version and compiled kernel features (value is always 1)",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("features", BUILD_FEATURES),
                ],
            )
            .set(1);
        let outcome = |o: &str| {
            registry.counter(
                "verifai_requests_total",
                "Requests by final disposition",
                &[("outcome", o)],
            )
        };
        let stage_ns = |s: &str| {
            registry.counter(
                "verifai_stage_ns_total",
                "Cumulative wall time per pipeline stage, nanoseconds",
                &[("stage", s)],
            )
        };
        // Exemplared histograms pin one recent (trace_id, value) pair per
        // latency bucket, linking slow buckets to retrievable traces.
        let stage_hist = |s: &str| {
            let name = "verifai_stage_latency_seconds";
            let help = "Per-request stage latency";
            let labels: &[(&'static str, &str)] = &[("stage", s)];
            if config.enabled {
                registry.histogram_with_exemplars(name, help, labels)
            } else {
                registry.histogram(name, help, labels)
            }
        };
        let verdict = |v: &str| {
            registry.counter(
                "verifai_verdicts_total",
                "Final decisions by verdict",
                &[("verdict", v)],
            )
        };
        ServiceObs {
            submitted: outcome("submitted"),
            completed: outcome("completed"),
            shed: outcome("shed"),
            rejected: outcome("rejected"),
            throttled: outcome("throttled"),
            failed: outcome("failed"),
            tenants: tenant_names
                .iter()
                .map(|name| TenantSeries::new(&registry, name))
                .collect(),
            queue_depth: registry.gauge(
                "verifai_queue_depth",
                "Requests waiting in the admission queue",
                &[],
            ),
            in_flight: registry.gauge(
                "verifai_in_flight",
                "Requests dequeued and being processed",
                &[],
            ),
            index_build_ns: registry.gauge(
                "verifai_index_build_ns",
                "One-off lake index construction wall time, nanoseconds",
                &[],
            ),
            stage_ns: STAGES.map(stage_ns),
            candidates_in: registry.counter(
                "verifai_candidates_total",
                "Evidence candidates entering / surviving the rerank stage",
                &[("direction", "in")],
            ),
            candidates_out: registry.counter(
                "verifai_candidates_total",
                "Evidence candidates entering / surviving the rerank stage",
                &[("direction", "out")],
            ),
            cost: CostSeries::service(&registry),
            epoch,
            uptime: registry.float_gauge(
                "verifai_process_uptime_seconds",
                "Seconds since this service's observability epoch",
                &[],
            ),
            cache_hits: registry.gauge("verifai_cache_hits", "Evidence-cache hits", &[]),
            cache_misses: registry.gauge("verifai_cache_misses", "Evidence-cache misses", &[]),
            cache_evictions: registry.gauge(
                "verifai_cache_evictions",
                "Evidence-cache evictions",
                &[],
            ),
            cache_entries: registry.gauge(
                "verifai_cache_entries",
                "Evidence-cache resident entries",
                &[],
            ),
            lake: LakeObs::new(&registry),
            latency: {
                let name = "verifai_request_latency_seconds";
                let help = "End-to-end latency of completed requests (enqueue to reply)";
                if config.enabled {
                    registry.histogram_with_exemplars(name, help, &[])
                } else {
                    registry.histogram(name, help, &[])
                }
            },
            stage_latency: STAGES.map(stage_hist),
            verdicts: [
                verdict("verified"),
                verdict("refuted"),
                verdict("not_related"),
                verdict("unknown"),
            ],
            recorder: Arc::new(FlightRecorder::with_sampling(
                config.recent_traces,
                config.slowest_traces,
                config.sampling,
            )),
            next_trace_id: AtomicU64::new(1),
            config,
            registry,
        }
    }

    /// The observability configuration (clock, retention, enablement).
    pub fn config(&self) -> &ObsConfig {
        &self.config
    }

    /// Whether gated collection (histograms, traces, verdicts) is on.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// The flight recorder retaining recent and slowest request traces.
    pub fn recorder(&self) -> &FlightRecorder {
        self.recorder.as_ref()
    }

    /// A shareable handle to the flight recorder — attach it to a cluster
    /// router so `Router::lookup_trace` can stitch distributed trees.
    pub fn recorder_arc(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.recorder)
    }

    /// Allocate the next trace id (sequential from 1, so seeded
    /// single-submitter runs are reproducible); 0 when tracing is off.
    pub fn allocate_trace_id(&self) -> TraceId {
        if !self.config.enabled {
            return 0;
        }
        self.next_trace_id.fetch_add(1, Ordering::Relaxed)
    }

    /// A trace for one admitted request — enabled or the free disabled
    /// placeholder, per configuration.
    pub fn begin_trace(&self, trace_id: TraceId, object_id: u64) -> RequestTrace {
        if self.config.enabled {
            RequestTrace::new(trace_id, object_id)
        } else {
            RequestTrace::disabled()
        }
    }

    /// Seal and retain a trace (no-op when tracing is off).
    pub fn record_trace(&self, trace: RequestTrace) {
        self.recorder.record(trace);
    }

    pub(crate) fn on_submitted(&self) {
        self.submitted.inc();
    }

    pub(crate) fn on_rejected(&self) {
        self.rejected.inc();
    }

    pub(crate) fn on_shed(&self) {
        self.shed.inc();
    }

    pub(crate) fn on_throttled(&self) {
        self.throttled.inc();
    }

    pub(crate) fn on_failed(&self) {
        self.failed.inc();
    }

    // Per-tenant mirrors of the outcome counters — no-ops without tenant
    // series (the legacy single-queue mode).

    pub(crate) fn tenant_completed(&self, tenant: usize, latency_ns: u64) {
        if let Some(series) = self.tenants.get(tenant) {
            series.completed.inc();
            if self.config.enabled {
                series.latency.record(Duration::from_nanos(latency_ns));
            }
        }
    }

    pub(crate) fn tenant_shed(&self, tenant: usize) {
        if let Some(series) = self.tenants.get(tenant) {
            series.shed.inc();
        }
    }

    pub(crate) fn tenant_rejected(&self, tenant: usize) {
        if let Some(series) = self.tenants.get(tenant) {
            series.rejected.inc();
        }
    }

    pub(crate) fn tenant_throttled(&self, tenant: usize) {
        if let Some(series) = self.tenants.get(tenant) {
            series.throttled.inc();
        }
    }

    pub(crate) fn tenant_failed(&self, tenant: usize) {
        if let Some(series) = self.tenants.get(tenant) {
            series.failed.inc();
        }
    }

    /// Roll one completed report's resource cost into the service-wide
    /// and (when configured) per-tenant `*_cost_total` counters. Always
    /// on: the rollup is the billing record, so it is exact whether or
    /// not gated observability runs.
    pub(crate) fn record_cost(&self, tenant: usize, cost: &CostVector) {
        self.cost.add(cost);
        if let Some(series) = self.tenants.get(tenant) {
            series.cost.add(cost);
        }
    }

    /// The service-wide cost rollup (the `verifai_cost_total` family as a
    /// vector).
    pub(crate) fn cost_totals(&self) -> CostVector {
        self.cost.total()
    }

    /// Frozen per-tenant accounting (empty without tenants). `queued` is
    /// zero here — the scheduler owns queue depth and the service fills it
    /// in.
    pub(crate) fn tenant_stats(&self) -> Vec<TenantStats> {
        self.tenants
            .iter()
            .map(|series| TenantStats {
                name: series.name.clone(),
                completed: series.completed.get(),
                shed: series.shed.get(),
                rejected: series.rejected.get(),
                throttled: series.throttled.get(),
                failed: series.failed.get(),
                queued: 0,
                latency: series.latency.snapshot(),
                cost: series.cost.total(),
            })
            .collect()
    }

    /// Account one completed request: outcome counter, end-to-end latency,
    /// queue-wait distribution, stage sums and distributions, and verdict.
    pub(crate) fn on_completed(
        &self,
        trace_id: TraceId,
        timing: &StageTiming,
        decision: Verdict,
        latency_ns: u64,
    ) {
        self.completed.inc();
        self.absorb_timing(timing);
        if !self.config.enabled {
            return;
        }
        // `record_traced` pins the request's trace id as the bucket
        // exemplar (a plain record when the id is 0).
        self.latency
            .record_traced(Duration::from_nanos(latency_ns), trace_id);
        for (hist, ns) in self.stage_latency.iter().zip(stage_lanes(timing)) {
            hist.record_traced(Duration::from_nanos(ns), trace_id);
        }
        self.verdicts[verdict_slot(decision)].inc();
    }

    /// Fold one report's stage timing into the always-on sums.
    fn absorb_timing(&self, timing: &StageTiming) {
        for (counter, ns) in self.stage_ns.iter().zip(stage_lanes(timing)) {
            counter.add(ns);
        }
        self.candidates_in.add(timing.candidates_in as u64);
        self.candidates_out.add(timing.candidates_out as u64);
    }

    pub(crate) fn in_flight_add(&self, delta: i64) {
        self.in_flight.add(delta);
    }

    pub(crate) fn set_index_build_ns(&self, ns: u64) {
        self.index_build_ns.set(ns.min(i64::MAX as u64) as i64);
    }

    pub(crate) fn counts(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.submitted.get(),
            self.completed.get(),
            self.shed.get(),
            self.rejected.get(),
            self.throttled.get(),
            self.failed.get(),
        )
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight.get().max(0) as usize
    }

    pub(crate) fn stage_totals(&self) -> StageTotals {
        StageTotals {
            queue_ns: self.stage_ns[0].get(),
            retrieval_ns: self.stage_ns[1].get(),
            rerank_ns: self.stage_ns[2].get(),
            verify_ns: self.stage_ns[3].get(),
            candidates_in: self.candidates_in.get(),
            candidates_out: self.candidates_out.get(),
        }
    }

    pub(crate) fn latency_snapshot(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }

    pub(crate) fn stage_latency_snapshot(&self) -> StageLatency {
        StageLatency {
            queue: self.stage_latency[0].snapshot(),
            retrieval: self.stage_latency[1].snapshot(),
            rerank: self.stage_latency[2].snapshot(),
            verify: self.stage_latency[3].snapshot(),
        }
    }

    pub(crate) fn verdict_counts(&self) -> VerdictCounts {
        VerdictCounts {
            verified: self.verdicts[0].get(),
            refuted: self.verdicts[1].get(),
            not_related: self.verdicts[2].get(),
            unknown: self.verdicts[3].get(),
        }
    }

    /// Refresh the `verifai_lake_*` gauges from the system's live-lake
    /// state; the service calls this just before [`ServiceObs::snapshot`].
    pub fn refresh_lake(&self, stats: &LiveLakeStats) {
        self.lake.refresh(stats);
    }

    /// Freeze every series for export, refreshing the gauges that mirror
    /// out-of-registry state (queue depth, cache counters).
    pub fn snapshot(&self, queue_depth: usize, cache: &CacheStats) -> RegistrySnapshot {
        self.uptime
            .set(ns_between(self.epoch, self.config.clock.now()) as f64 / 1e9);
        self.queue_depth
            .set(queue_depth.min(i64::MAX as usize) as i64);
        self.cache_hits.set(cache.hits.min(i64::MAX as u64) as i64);
        self.cache_misses
            .set(cache.misses.min(i64::MAX as u64) as i64);
        self.cache_evictions
            .set(cache.evictions.min(i64::MAX as u64) as i64);
        self.cache_entries
            .set(cache.entries.min(i64::MAX as usize) as i64);
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_allocates_no_trace_and_records_no_histograms() {
        let obs = ServiceObs::new(ObsConfig::off(), &[]);
        assert_eq!(obs.allocate_trace_id(), 0);
        let trace = obs.begin_trace(0, 9);
        assert!(!trace.is_enabled());
        assert_eq!(trace.spans.capacity(), 0);
        obs.on_completed(0, &StageTiming::default(), Verdict::Verified, 100);
        assert_eq!(obs.latency_snapshot().count(), 0, "histograms stay empty");
        assert_eq!(obs.verdict_counts(), VerdictCounts::default());
        // The always-on tier still counts.
        assert_eq!(obs.counts().1, 1);
    }

    #[test]
    fn enabled_obs_records_distributions_and_verdicts() {
        let obs = ServiceObs::new(ObsConfig::default(), &[]);
        assert_eq!(obs.allocate_trace_id(), 1);
        assert_eq!(obs.allocate_trace_id(), 2);
        let timing = StageTiming {
            queue_ns: 500_000,
            retrieval_ns: 1_000_000,
            rerank_ns: 2_000_000,
            verify_ns: 3_000_000,
            candidates_in: 10,
            resolved: 10,
            candidates_out: 4,
        };
        obs.on_completed(1, &timing, Verdict::Refuted, 7_000_000);
        assert_eq!(obs.latency_snapshot().count(), 1);
        let stages = obs.stage_latency_snapshot();
        assert_eq!(stages.queue.count(), 1);
        assert_eq!(stages.verify.count(), 1);
        assert_eq!(obs.verdict_counts().refuted, 1);
        let totals = obs.stage_totals();
        assert_eq!(totals.queue_ns, 500_000);
        assert_eq!(totals.verify_ns, 3_000_000);
        assert_eq!(totals.candidates_in, 10);
    }

    #[test]
    fn snapshot_refreshes_cache_gauges() {
        let obs = ServiceObs::new(ObsConfig::default(), &[]);
        let cache = CacheStats {
            hits: 3,
            misses: 2,
            evictions: 1,
            entries: 4,
        };
        let snap = obs.snapshot(7, &cache);
        let series = |name: &str, label: Option<(&str, &str)>| {
            snap.series
                .iter()
                .find(|s| {
                    s.name == name
                        && label.is_none_or(|(k, v)| {
                            s.labels.iter().any(|(lk, lv)| *lk == k && lv == v)
                        })
                })
                .unwrap_or_else(|| panic!("series {name} missing"))
        };
        match series("verifai_queue_depth", None).value {
            verifai_obs::SeriesValue::Gauge(v) => assert_eq!(v, 7),
            ref other => panic!("expected gauge, got {other:?}"),
        }
        match series("verifai_cache_hits", None).value {
            verifai_obs::SeriesValue::Gauge(v) => assert_eq!(v, 3),
            ref other => panic!("expected gauge, got {other:?}"),
        }
    }

    #[test]
    fn every_series_ships_with_help_and_type() {
        // The fullest registry we can stand up: tenants + cost,
        // with traffic so histograms render their summary expansion.
        let obs = ServiceObs::new(
            ObsConfig::default(),
            &["acme".to_string(), "beta".to_string()],
        );
        obs.on_completed(1, &StageTiming::default(), Verdict::Verified, 100);
        obs.tenant_completed(0, 100);
        obs.record_cost(
            0,
            &CostVector {
                vectors_scanned: 7,
                ..CostVector::zero()
            },
        );
        let snap = obs.snapshot(0, &CacheStats::default());
        for series in &snap.series {
            assert!(
                !series.help.trim().is_empty(),
                "series {} ships without help text",
                series.name
            );
        }
        let text = verifai_obs::render_prometheus(&snap);
        let samples = verifai_obs::validate_prometheus(&text)
            .unwrap_or_else(|e| panic!("exposition failed HELP/TYPE validation: {e}"));
        assert!(samples > 50, "full registry renders many samples");
    }

    #[test]
    fn build_info_uptime_and_cost_series_export() {
        let clock = Arc::new(verifai_obs::MockClock::new());
        let config = ObsConfig {
            clock: clock.clone(),
            ..ObsConfig::default()
        };
        let obs = ServiceObs::new(config, &["acme".to_string()]);
        let cost = CostVector {
            vectors_scanned: 5,
            bm25_postings: 3,
            bytes_read: 128,
            ..CostVector::zero()
        };
        obs.record_cost(0, &cost);
        obs.record_cost(0, &cost);
        clock.advance(Duration::from_secs(90));
        let snap = obs.snapshot(0, &CacheStats::default());
        let find = |name: &str, label: Option<(&str, &str)>| {
            snap.series
                .iter()
                .find(|s| {
                    s.name == name
                        && label.is_none_or(|(k, v)| {
                            s.labels.iter().any(|(lk, lv)| *lk == k && lv == v)
                        })
                })
                .unwrap_or_else(|| panic!("series {name} missing"))
        };
        // Build info: constant 1, carrying version + features labels.
        let info = find(
            "verifai_build_info",
            Some(("version", env!("CARGO_PKG_VERSION"))),
        );
        assert!(info.labels.iter().any(|(k, _)| *k == "features"));
        match info.value {
            verifai_obs::SeriesValue::Gauge(v) => assert_eq!(v, 1),
            ref other => panic!("expected gauge, got {other:?}"),
        }
        // Uptime mirrors the mock clock exactly.
        match find("verifai_process_uptime_seconds", None).value {
            verifai_obs::SeriesValue::Float(v) => assert!((v - 90.0).abs() < 1e-9),
            ref other => panic!("expected float gauge, got {other:?}"),
        }
        // Cost counters: tenant and service-wide rollups agree with the
        // recorded vectors (2x each field).
        for (name, label) in [
            ("verifai_tenant_cost_total", Some(("tenant", "acme"))),
            ("verifai_cost_total", None),
        ] {
            let series = snap
                .series
                .iter()
                .find(|s| {
                    s.name == name
                        && s.labels
                            .iter()
                            .any(|(k, v)| *k == "resource" && v == "vectors_scanned")
                        && label.is_none_or(|(k, v)| {
                            s.labels.iter().any(|(lk, lv)| *lk == k && lv == v)
                        })
                })
                .unwrap_or_else(|| panic!("{name} vectors_scanned series missing"));
            match series.value {
                verifai_obs::SeriesValue::Counter(v) => assert_eq!(v, 10),
                ref other => panic!("expected counter, got {other:?}"),
            }
        }
        // One service-wide row per work counter, and no clock rows.
        let rows = snap
            .series
            .iter()
            .filter(|s| s.name == "verifai_cost_total");
        assert_eq!(rows.count(), 7);
        // And the read-back paths agree.
        assert_eq!(obs.cost_totals(), cost.merged(&cost));
        assert_eq!(obs.tenant_stats()[0].cost, cost.merged(&cost));
    }
}
