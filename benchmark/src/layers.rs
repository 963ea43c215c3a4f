//! Per-layer probes: the traced pass's fixed part.
//!
//! Each probe times public calls into one layer (layer = crate name) on a
//! fixed cold sample, or reads a count from the returned
//! `VerificationReport` / `ServiceStats`. The probes are the same whichever
//! workload the traced run was asked for; only [`crate::workloads`]' traced
//! pass of that workload differs.

use std::sync::Arc;
use std::time::Instant;

use verifai::corpus::embedder_for;
use verifai::{DataObject, ObsConfig, SemanticBackend, VerifAi, VerifAiConfig, VerificationReport};
use verifai_cluster::{build_cluster, ClusterConfig};
use verifai_embed::TextEmbedder;
use verifai_index::{SourceQuery, VectorIndex};
use verifai_lake::{DataInstance, InstanceId, InstanceKind};
use verifai_obs::SpanContext;
use verifai_service::VerificationService;

use crate::drive::{closed_loop, ServiceTarget, Stop};
use crate::inputs::{build_system, object_pool, Scale};
use crate::spans::{mean_us, self_times_ns, Tracer};
use crate::stats::{mean, median, quartiles};
use crate::workloads::{Check, Host};

/// Interleaved obs on/off pairs.
const OBS_PAIRS: usize = 10;

/// Named per-layer values, in the order they were measured.
pub type Metrics = Vec<(&'static str, f64)>;

/// The modalities (with coarse and final k) the pipeline consults for
/// `object` at `config` — tuples + texts for imputed cells, tables for
/// claims. The replay-equals-whole check below fails if this drifts from
/// the pipeline's own plan.
fn plan(object: &DataObject, config: &VerifAiConfig) -> Vec<(InstanceKind, usize, usize)> {
    let finals = match object {
        DataObject::ImputedCell(_) => vec![
            (InstanceKind::Tuple, config.k_tuples),
            (InstanceKind::Text, config.k_texts),
        ],
        DataObject::TextClaim(_) => vec![(InstanceKind::Table, config.k_tables)],
    };
    finals
        .into_iter()
        .map(|(kind, k)| (kind, config.coarse_k.max(k), k))
        .collect()
}

fn kind_slot(kind: InstanceKind) -> usize {
    match kind {
        InstanceKind::Tuple => 0,
        InstanceKind::Table => 1,
        InstanceKind::Text => 2,
        InstanceKind::Kg => 3,
    }
}

const RETRIEVE: [&str; 4] = [
    "retrieve.tuple",
    "retrieve.table",
    "retrieve.text",
    "retrieve.kg",
];
const RERANK: [&str; 4] = ["rerank.tuple", "rerank.table", "rerank.text", "rerank.kg"];

/// One request replayed stage by stage through public calls, each under a
/// span: `request` → `embed` / `retrieve.<kind>` / `resolve` /
/// `rerank.<kind>` / `judge`.
fn staged_request(
    system: &VerifAi,
    embedder: &TextEmbedder,
    object: &DataObject,
    request: u64,
    tracer: &mut Tracer,
) -> VerificationReport {
    tracer.set_request(request);
    let root = tracer.enter("request");
    let query = VerifAi::query_of(object);
    let span = tracer.enter("embed");
    let vector = embedder.embed(&query);
    tracer.exit(span);
    let mut evidence: Vec<(DataInstance, f64)> = Vec::new();
    for (kind, coarse_k, final_k) in plan(object, system.config()) {
        let span = tracer.enter(RETRIEVE[kind_slot(kind)]);
        let hits = system.stages().source(kind).search(
            SourceQuery {
                text: &query,
                vector: Some(&vector),
                ctx: SpanContext::none(),
            },
            coarse_k,
        );
        tracer.exit(span);
        let ids: Vec<(InstanceId, f64)> = hits.iter().map(|h| (h.id, h.score)).collect();
        let span = tracer.enter("resolve");
        let resolved = system
            .try_resolve_evidence(&ids)
            .expect("fresh hits resolve against the lake they came from");
        tracer.exit(span);
        let span = tracer.enter(RERANK[kind_slot(kind)]);
        let ranked = system
            .stages()
            .rerank_stage()
            .rerank(object, resolved, final_k);
        tracer.exit(span);
        evidence.extend(ranked);
    }
    let span = tracer.enter("judge");
    let report = system.verify_with_evidence(object, evidence);
    tracer.exit(span);
    tracer.exit(root);
    report
}

/// What the cold-sample probes hand on besides their metrics.
pub struct PipelineTimes {
    /// Whole `verify_object` wall time per sample object, microseconds.
    pub direct_us: Vec<f64>,
    /// Mean over requests of the replay's summed child spans, microseconds.
    pub children_mean_us: f64,
}

/// The cold-sample probes: whole `verify_object`, the staged replay with
/// spans, the same replay without, and the index micro-probes. Appends its
/// metrics and checks; spans land in `tracer`.
pub fn pipeline_layers(
    system: &VerifAi,
    sample: &[DataObject],
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    checks: &mut Vec<Check>,
) -> PipelineTimes {
    let mut off = Tracer::off();
    let embedder = embedder_for(system.config());
    let first_span = tracer.spans().len();
    let (mut whole_tuple_ms, mut whole_claim_ms) = (Vec::new(), Vec::new());
    let mut whole_us = Vec::new();
    let (mut traced_us, mut untraced_us) = (0.0, 0.0);
    let mut mismatched = 0usize;
    let (mut embeds, mut scanned, mut postings, mut pairs, mut candidates_in) =
        (0u64, 0u64, 0u64, 0usize, 0usize);
    let mut provenance_whole = 0usize;
    for (request, object) in sample.iter().enumerate() {
        // Whole call first, so its provenance and cost are its own.
        let before = system.provenance().len();
        let started = Instant::now();
        let whole = system.verify_object(object);
        let us = started.elapsed().as_secs_f64() * 1e6;
        provenance_whole += system.provenance().len() - before;
        whole_us.push(us);
        match object {
            DataObject::ImputedCell(_) => whole_tuple_ms.push(us / 1e3),
            DataObject::TextClaim(_) => whole_claim_ms.push(us / 1e3),
        }
        embeds += whole.cost.embeds;
        scanned += whole.cost.vectors_scanned;
        postings += whole.cost.bm25_postings;
        pairs += whole.evidence.len();
        candidates_in += whole.timing.candidates_in;

        let started = Instant::now();
        let replayed = staged_request(system, &embedder, object, request as u64, tracer);
        traced_us += started.elapsed().as_secs_f64() * 1e6;
        let started = Instant::now();
        std::hint::black_box(staged_request(
            system,
            &embedder,
            object,
            request as u64,
            &mut off,
        ));
        untraced_us += started.elapsed().as_secs_f64() * 1e6;
        mismatched += usize::from(replayed != whole);
    }
    let n = sample.len().max(1) as f64;
    checks.push(Check {
        name: "staged replay through public calls equals verify_object",
        pass: mismatched == 0,
        detail: format!("{} objects, {mismatched} mismatched", sample.len()),
    });

    let spans = &tracer.spans()[first_span..];
    let self_ns = self_times_ns(tracer.spans());
    // Children of each `request` span, summed per request.
    let mut children_us = vec![0.0; sample.len()];
    let mut request_self_us = Vec::new();
    for span in spans {
        if span.name == "request" {
            request_self_us.push(self_ns[span.id as usize - 1] as f64 / 1e3);
        } else {
            children_us[span.request as usize] += span.duration_ns() as f64 / 1e3;
        }
    }
    let children_mean_us = mean(&children_us);
    let core_self_us = mean(&whole_us) - children_mean_us;
    let rerank_total_us: f64 = spans
        .iter()
        .filter(|s| s.name.starts_with("rerank."))
        .map(|s| s.duration_ns() as f64 / 1e3)
        .sum();

    metrics.extend([
        ("embed.text_us", mean_us(spans, "embed")),
        ("embed.embeds_per_req", embeds as f64 / n),
        ("index.retrieve_tuple_us", mean_us(spans, "retrieve.tuple")),
        ("index.retrieve_text_us", mean_us(spans, "retrieve.text")),
        ("index.retrieve_table_us", mean_us(spans, "retrieve.table")),
        ("index.vectors_scanned_per_req", scanned as f64 / n),
        ("index.postings_per_req", postings as f64 / n),
        ("lake.resolve_us", mean_us(spans, "resolve")),
        ("rerank.tuple_us", mean_us(spans, "rerank.tuple")),
        ("rerank.text_us", mean_us(spans, "rerank.text")),
        ("rerank.table_us", mean_us(spans, "rerank.table")),
        (
            "rerank.pair_us",
            rerank_total_us / candidates_in.max(1) as f64,
        ),
        ("rerank.candidates_in_per_req", candidates_in as f64 / n),
        ("verify.judge_us", mean_us(spans, "judge")),
        ("verify.pairs_per_req", pairs as f64 / n),
        ("core.verify_tuple_ms", mean(&whole_tuple_ms)),
        ("core.verify_claim_ms", mean(&whole_claim_ms)),
        ("core.self_us", core_self_us),
        (
            "core.provenance_records_per_req",
            provenance_whole as f64 / n,
        ),
        (
            "bench.trace_overhead_pct",
            (traced_us - untraced_us) / untraced_us.max(f64::MIN_POSITIVE) * 100.0,
        ),
        ("bench.replay_self_us", mean(&request_self_us)),
    ]);

    // The two index families on their own, through the live handles.
    let live = system
        .live()
        .expect("a system built by VerifAi::build owns its indexes");
    let (mut bm25_us, mut vector_us) = (Vec::new(), Vec::new());
    for object in sample {
        let query = VerifAi::query_of(object);
        let vector = embedder.embed(&query);
        for (kind, coarse_k, _) in plan(object, system.config()) {
            let started = Instant::now();
            std::hint::black_box(
                live.content[kind_slot(kind)]
                    .read()
                    .search(&query, coarse_k),
            );
            bm25_us.push(started.elapsed().as_secs_f64() * 1e6);
            if let Some(semantic) = &live.semantic[kind_slot(kind)] {
                let started = Instant::now();
                std::hint::black_box(VectorIndex::search(&*semantic.read(), &vector, coarse_k));
                vector_us.push(started.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    metrics.extend([
        ("index.bm25_us", mean(&bm25_us)),
        ("index.vector_us", mean(&vector_us)),
    ]);
    PipelineTimes {
        direct_us: whole_us,
        children_mean_us,
    }
}

/// Service-layer probes over `system`: one-client latency on the cold sample
/// against the direct calls just timed (`direct_us`, aligned with `sample`),
/// the hit path on the same objects once cached, and obs on against obs off
/// on hot traffic.
pub fn service_layers(
    system: &Arc<VerifAi>,
    sample: &[DataObject],
    direct_us: &[f64],
    scale: &Scale,
    host: Host,
    metrics: &mut Metrics,
) {
    let mut off = Tracer::off();
    let service = VerificationService::new(Arc::clone(system), host.service_config());
    let target = ServiceTarget {
        service: &service,
        objects: sample,
    };
    let one_at_a_time = |passes: usize| -> Vec<f64> {
        closed_loop(
            &target,
            1,
            Stop::Count(sample.len() * passes),
            |n| n % sample.len(),
            &mut Tracer::off(),
        )
        .iter()
        .map(|r| r.latency_ms() * 1e3)
        .collect()
    };
    let cold_us = one_at_a_time(1);
    let hit_us = one_at_a_time(4);
    service.shutdown();
    metrics.extend([
        ("service.overhead_us", mean(&cold_us) - mean(direct_us)),
        ("service.hit_path_us", mean(&hit_us)),
    ]);

    // Obs on vs off: two services over the same system, both warmed on the
    // same small pool, then interleaved batches of cache hits, alternating
    // which side goes first.
    let hot = &sample[..sample.len().min(64)];
    let with_obs = VerificationService::with_obs(
        Arc::clone(system),
        host.service_config(),
        ObsConfig::default(),
    );
    let without =
        VerificationService::with_obs(Arc::clone(system), host.service_config(), ObsConfig::off());
    let outstanding = crate::workloads::OUTSTANDING_PER_WORKER * host.workers;
    let mut batch = |service: &VerificationService, requests: usize| -> f64 {
        let target = ServiceTarget {
            service,
            objects: hot,
        };
        let started = Instant::now();
        closed_loop(
            &target,
            outstanding,
            Stop::Count(requests),
            |n| n % hot.len(),
            &mut off,
        );
        started.elapsed().as_secs_f64()
    };
    batch(&with_obs, hot.len());
    batch(&without, hot.len());
    let mut overheads = Vec::with_capacity(OBS_PAIRS);
    for pair in 0..OBS_PAIRS {
        let (on_s, off_s) = if pair % 2 == 0 {
            let on_s = batch(&with_obs, scale.obs_batch);
            (on_s, batch(&without, scale.obs_batch))
        } else {
            let off_s = batch(&without, scale.obs_batch);
            (batch(&with_obs, scale.obs_batch), off_s)
        };
        overheads.push((on_s - off_s) / off_s * 100.0);
    }
    with_obs.shutdown();
    without.shutdown();
    let [q1, _, q3] = quartiles(&overheads);
    metrics.extend([
        ("obs.overhead_pct", median(&overheads)),
        ("obs.overhead_iqr_pct", q3 - q1),
    ]);
}

/// Fused retrieval on a single flat-backend lake against a 2-shard routed
/// cluster over the same generated lake; the routed hits must be identical.
pub fn cluster_layers(scale: &Scale, seed: u64, metrics: &mut Metrics, checks: &mut Vec<Check>) {
    let flat_config = VerifAiConfig {
        semantic_backend: SemanticBackend::Flat,
        ..VerifAiConfig::default()
    };
    let (flat, _) = build_system(scale, seed, flat_config);
    let cluster = build_cluster(
        verifai_datagen::build(&scale.spec(seed)),
        flat_config,
        ClusterConfig::with_shards(2),
    );
    let sample = object_pool(&flat, scale.cluster_sample, seed);
    let (mut flat_us, mut routed_us) = (Vec::new(), Vec::new());
    let mut diverged = 0usize;
    for object in &sample.objects {
        let query = VerifAi::query_of(object);
        for (kind, coarse_k, _) in plan(object, &flat_config) {
            let started = Instant::now();
            let single = flat.retrieve(&query, kind, coarse_k);
            flat_us.push(started.elapsed().as_secs_f64() * 1e6);
            let started = Instant::now();
            let routed = cluster.system.retrieve(&query, kind, coarse_k);
            routed_us.push(started.elapsed().as_secs_f64() * 1e6);
            diverged += usize::from(single != routed);
        }
    }
    checks.push(Check {
        name: "2-shard routed retrieval equals the single flat lake",
        pass: diverged == 0,
        detail: format!("{} retrievals, {diverged} diverged", flat_us.len()),
    });
    let (flat_mean, routed_mean) = (mean(&flat_us), mean(&routed_us));
    metrics.extend([
        ("index.retrieve_flat_us", flat_mean),
        ("cluster.retrieve_us", routed_mean),
        (
            "cluster.overhead_ratio",
            routed_mean / flat_mean.max(f64::MIN_POSITIVE),
        ),
    ]);
}
