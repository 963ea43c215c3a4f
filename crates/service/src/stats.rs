//! Point-in-time service statistics.

use std::fmt;
use std::time::Duration;

use verifai::{CostVector, LiveLakeStats};
use verifai_obs::HistogramSnapshot;

use crate::cache::CacheStats;

/// Final-decision counts by verdict across completed requests (empty when
/// observability is disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Decisions of `Verified`.
    pub verified: u64,
    /// Decisions of `Refuted`.
    pub refuted: u64,
    /// Decisions of `NotRelated`.
    pub not_related: u64,
    /// Decisions of `Unknown` (deadline-partial reports).
    pub unknown: u64,
}

impl VerdictCounts {
    /// Total decisions counted.
    pub fn total(&self) -> u64 {
        self.verified + self.refuted + self.not_related + self.unknown
    }
}

/// Per-request latency distributions per pipeline stage (empty when
/// observability is disabled). Unlike [`StageTotals`] — which sums wall
/// time — these answer quantile questions ("p95 of the verify stage").
#[derive(Debug, Clone, Default)]
pub struct StageLatency {
    /// Time spent waiting in the admission queue.
    pub queue: HistogramSnapshot,
    /// Retrieval + instance resolution.
    pub retrieval: HistogramSnapshot,
    /// The rerank stage.
    pub rerank: HistogramSnapshot,
    /// The verify stage.
    pub verify: HistogramSnapshot,
}

/// Aggregated per-stage pipeline instrumentation across every completed
/// request — the service-level roll-up of each report's
/// [`verifai::StageTiming`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Total wall time spent waiting for admission, nanoseconds.
    pub queue_ns: u64,
    /// Total wall time spent in retrieval + resolution, nanoseconds.
    pub retrieval_ns: u64,
    /// Total wall time spent reranking, nanoseconds.
    pub rerank_ns: u64,
    /// Total wall time spent verifying, nanoseconds.
    pub verify_ns: u64,
    /// Coarse candidates that entered the rerank stage.
    pub candidates_in: u64,
    /// Candidates that survived to the verify stage.
    pub candidates_out: u64,
}

impl StageTotals {
    /// Fold one report's timing into the totals.
    pub fn absorb(&mut self, timing: &verifai::StageTiming) {
        self.queue_ns += timing.queue_ns;
        self.retrieval_ns += timing.retrieval_ns;
        self.rerank_ns += timing.rerank_ns;
        self.verify_ns += timing.verify_ns;
        self.candidates_in += timing.candidates_in as u64;
        self.candidates_out += timing.candidates_out as u64;
    }

    /// The totals as a collapsed-stack ("folded") profile: one line
    /// `service;request;<stage> <ns>` per stage with a nonzero total, in
    /// stage order (queue, retrieval, rerank, verify). The weights are
    /// nanoseconds and sum to the four stage totals exactly, so
    /// `flamegraph.pl` and speedscope draw where request time went — the
    /// same record `verifai_stage_ns_total` exports.
    pub fn folded(&self) -> String {
        [
            ("queue", self.queue_ns),
            ("retrieval", self.retrieval_ns),
            ("rerank", self.rerank_ns),
            ("verify", self.verify_ns),
        ]
        .into_iter()
        .filter(|&(_, ns)| ns > 0)
        .map(|(stage, ns)| format!("service;request;{stage} {ns}\n"))
        .collect()
    }
}

/// Per-tenant slice of the service counters (empty without configured
/// tenants).
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// The tenant's configured name.
    pub name: String,
    /// Requests fully processed.
    pub completed: u64,
    /// Requests dropped by this tenant's share of load shedding.
    pub shed: u64,
    /// Requests refused because the tenant's queue share was full.
    pub rejected: u64,
    /// Requests refused by the tenant's token-bucket rate quota.
    pub throttled: u64,
    /// Requests that hit a typed pipeline error.
    pub failed: u64,
    /// Requests waiting in the tenant's queue right now.
    pub queued: usize,
    /// End-to-end latency distribution of this tenant's completed requests
    /// (empty when observability is off).
    pub latency: HistogramSnapshot,
    /// Summed resource cost of this tenant's completed requests.
    ///
    /// Invariant (checked by the integration tests and the serve binary's
    /// `--usage-report` self-check): exactly equals the fieldwise sum of
    /// the [`verifai::VerificationReport::cost`] vectors returned to this
    /// tenant — the rollup is billing-grade, not sampled.
    pub cost: CostVector,
}

/// Snapshot of a [`crate::VerificationService`]'s counters, gauges, cache
/// state, and latency distribution.
///
/// Invariant (checked by the integration tests): once every submitted
/// request's ticket has resolved, `completed + shed + rejected + throttled
/// + failed == submitted` — no request is ever lost.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Submission attempts, including rejected ones.
    pub submitted: u64,
    /// Requests fully processed (including deadline-partial reports).
    pub completed: u64,
    /// Requests dropped at dequeue by high-water load shedding.
    pub shed: u64,
    /// Requests refused at submit because the queue was full.
    pub rejected: u64,
    /// Requests refused at submit by a tenant's rate quota.
    pub throttled: u64,
    /// Requests that hit a typed pipeline error (e.g. stale cached
    /// evidence) — distinguishable from shedding and from deadline-partial
    /// `Unknown` reports.
    pub failed: u64,
    /// Requests currently waiting in the queue.
    pub queue_depth: usize,
    /// Requests dequeued and being processed right now.
    pub in_flight: usize,
    /// Wall time [`verifai::VerifAi::build`] spent constructing the lake
    /// indexes this service answers from, and the rerank features prepared
    /// beside them ([`verifai::BuildStats::index_ns`]; a one-off start-up
    /// cost, not a per-request stage).
    pub index_build_ns: u64,
    /// Live-lake health: generation, mutation count, tombstones, segments,
    /// and compactions, summed over every shard of the system.
    pub lake: LiveLakeStats,
    /// Evidence-cache counters (all zero when caching is disabled).
    pub cache: CacheStats,
    /// Per-stage time and candidate totals across completed requests.
    pub stages: StageTotals,
    /// Per-stage latency distributions (empty when observability is off).
    pub stage_latency: StageLatency,
    /// Final decisions by verdict (empty when observability is off).
    pub verdicts: VerdictCounts,
    /// Request traces the flight recorder has seen (retained or not).
    pub traces_recorded: u64,
    /// Healthy traces the tail sampler dropped at completion time (always
    /// zero under the default policy, which keeps every trace).
    pub traces_sampled_out: u64,
    /// Per-tenant accounting, in configuration order (empty without
    /// tenants).
    pub tenants: Vec<TenantStats>,
    /// Summed resource cost across every completed request (all tenants,
    /// plus untenanted traffic).
    pub cost: CostVector,
    /// Raw end-to-end latency distribution — the mergeable form behind the
    /// derived quantile fields below.
    pub latency: HistogramSnapshot,
    /// Mean end-to-end latency of completed requests.
    pub latency_mean: Duration,
    /// Median end-to-end latency.
    pub latency_p50: Duration,
    /// 95th-percentile end-to-end latency.
    pub latency_p95: Duration,
    /// 99th-percentile end-to-end latency.
    pub latency_p99: Duration,
}

impl ServiceStats {
    /// Requests with a final disposition; equals `submitted` once every
    /// outstanding ticket has resolved.
    pub fn accounted(&self) -> u64 {
        self.completed + self.shed + self.rejected + self.throttled + self.failed
    }
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests: submitted {} | completed {} | shed {} | rejected {} | throttled {} | failed {}",
            self.submitted, self.completed, self.shed, self.rejected, self.throttled, self.failed
        )?;
        for tenant in &self.tenants {
            writeln!(
                f,
                "tenant:   {} | completed {} | shed {} | rejected {} | throttled {} | queued {} | p99 {:?}",
                tenant.name,
                tenant.completed,
                tenant.shed,
                tenant.rejected,
                tenant.throttled,
                tenant.queued,
                tenant.latency.quantile(0.99)
            )?;
        }
        writeln!(
            f,
            "queue:    depth {} | in-flight {}",
            self.queue_depth, self.in_flight
        )?;
        writeln!(
            f,
            "cache:    hit rate {:.1}% ({} hits / {} misses, {} evictions, {} entries)",
            self.cache.hit_rate() * 100.0,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.entries
        )?;
        writeln!(
            f,
            "stages:   queue {:?} | retrieval {:?} | rerank {:?} | verify {:?} | candidates {} -> {}",
            Duration::from_nanos(self.stages.queue_ns),
            Duration::from_nanos(self.stages.retrieval_ns),
            Duration::from_nanos(self.stages.rerank_ns),
            Duration::from_nanos(self.stages.verify_ns),
            self.stages.candidates_in,
            self.stages.candidates_out
        )?;
        if !self.cost.is_zero() {
            writeln!(
                f,
                "cost:     {} vectors | {} postings | {} bytes | {} embeds | fanout {}",
                self.cost.vectors_scanned,
                self.cost.bm25_postings,
                self.cost.bytes_read,
                self.cost.embeds,
                self.cost.shard_fanout
            )?;
        }
        if self.verdicts.total() > 0 {
            writeln!(
                f,
                "verdicts: verified {} | refuted {} | not-related {} | unknown {}",
                self.verdicts.verified,
                self.verdicts.refuted,
                self.verdicts.not_related,
                self.verdicts.unknown
            )?;
        }
        if self.stage_latency.verify.count() > 0 {
            writeln!(
                f,
                "stage p95: queue {:?} | retrieval {:?} | rerank {:?} | verify {:?}",
                self.stage_latency.queue.quantile(0.95),
                self.stage_latency.retrieval.quantile(0.95),
                self.stage_latency.rerank.quantile(0.95),
                self.stage_latency.verify.quantile(0.95)
            )?;
        }
        if self.traces_sampled_out > 0 {
            writeln!(
                f,
                "tracing:  recorded {} | sampled out {}",
                self.traces_recorded, self.traces_sampled_out
            )?;
        }
        if self.lake.mutations > 0 || self.lake.generation > 0 {
            writeln!(
                f,
                "lake:     gen {} | mutations {} | tombstones {} lake / {} content / {} semantic | segments {} | compactions {} content / {} semantic",
                self.lake.generation,
                self.lake.mutations,
                self.lake.lake_tombstones,
                self.lake.content_tombstones,
                self.lake.semantic_tombstones,
                self.lake.content_segments,
                self.lake.content_compactions,
                self.lake.semantic_compactions
            )?;
        }
        writeln!(
            f,
            "startup:  index build {:?}",
            Duration::from_nanos(self.index_build_ns)
        )?;
        write!(
            f,
            "latency:  mean {:?} | p50 {:?} | p95 {:?} | p99 {:?}",
            self.latency_mean, self.latency_p50, self.latency_p95, self.latency_p99
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression guard for the zero-lookup case: a freshly-defaulted stats
    /// banner (no requests, no cache traffic) must render finite numbers —
    /// never `NaN%` from a 0/0 hit rate.
    #[test]
    fn default_stats_banner_has_no_nan() {
        let stats = ServiceStats::default();
        assert_eq!(stats.cache.hit_rate(), 0.0);
        let banner = stats.to_string();
        assert!(!banner.contains("NaN"), "banner: {banner}");
        assert!(banner.contains("hit rate 0.0%"));
        assert_eq!(stats.accounted(), 0);
    }

    #[test]
    fn verdict_totals_sum() {
        let verdicts = VerdictCounts {
            verified: 3,
            refuted: 1,
            not_related: 2,
            unknown: 4,
        };
        assert_eq!(verdicts.total(), 10);
    }

    #[test]
    fn folded_profile_has_one_line_per_nonzero_stage() {
        let stages = StageTotals {
            queue_ns: 349_200,
            retrieval_ns: 26_600,
            rerank_ns: 0,
            verify_ns: 1_750,
            ..StageTotals::default()
        };
        let folded = stages.folded();
        assert_eq!(
            folded,
            "service;request;queue 349200\n\
             service;request;retrieval 26600\n\
             service;request;verify 1750\n"
        );
        assert_eq!(
            verifai_obs::validate_folded(&folded),
            Ok((3, 349_200 + 26_600 + 1_750))
        );
        assert_eq!(StageTotals::default().folded(), "");
    }
}
