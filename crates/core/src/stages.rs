//! The staged evidence pipeline: Indexer → Reranker → Verifier as
//! swappable, independently instrumented stages (paper §3).
//!
//! [`StagedPipeline`] composes three object-safe stage abstractions —
//! [`verifai_index::EvidenceSource`] for retrieval, [`RerankStage`] (built
//! on [`verifai_rerank::Reranker`]) for refinement, and [`VerifyStage`]
//! (built on [`verifai_verify::Verifier`] via the
//! [`verifai_verify::Agent`]) for judging — so a new backend plugs into one
//! trait without reopening the driver. Each stage:
//!
//! * reports wall time and candidate counts through [`StageTiming`], which
//!   flows into [`crate::VerificationReport`] and aggregates into the
//!   serving layer's stats;
//! * logs lineage through a buffering [`StageRecorder`], flushed to the
//!   shared [`verifai_verify::ProvenanceSink`] **once per stage per
//!   object** — one lock acquisition each instead of one per hit;
//! * surfaces failures as typed [`PipelineError`]s instead of silently
//!   shrinking the evidence set: a retrieval hit whose instance no longer
//!   resolves is recorded as a provenance note, and stale cached evidence
//!   is a distinguishable error the service can react to.
//!
//! Every stage reads evidence where it lies: coarse hits become
//! [`InstanceRef`] views borrowed from the lake, the rerank stage ranks the
//! views, and the verify stage judges the surviving views — no request
//! copies an instance out of the lake (DESIGN.md §20, §22). An owned
//! [`DataInstance`] exists only for a caller that asks for one.

use std::sync::Arc;
use std::time::Instant;

use crate::features::{FeatureStats, FeatureStore, Touched};
use crate::pipeline::EvidenceVerdict;
use verifai_index::{EvidenceSource, SearchHit, SourceQuery};
use verifai_lake::{DataInstance, DataLake, InstanceId, InstanceKind, InstanceRef};
use verifai_llm::DataObject;
#[cfg(test)]
use verifai_obs::SpanContext;
use verifai_obs::{ns_between, Clock, RequestTrace, SystemClock};
use verifai_rerank::{Candidate, Reranker};
use verifai_verify::{
    Agent, Note, ProvenanceRecord, Stage, StageRecorder, VerdictObservation, VerifierOutput,
};

/// Per-object instrumentation of one pipeline run: the one record of
/// where a request's wall time went, lane by lane.
///
/// Excluded from [`crate::VerificationReport`] equality: wall times differ
/// between bit-identical runs, and determinism contracts compare reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTiming {
    /// Wait between admission and the start of processing, nanoseconds
    /// (stamped by the serving layer; zero for direct pipeline calls).
    pub queue_ns: u64,
    /// Wall time of retrieval + instance resolution, nanoseconds.
    pub retrieval_ns: u64,
    /// Wall time of the rerank stage, nanoseconds.
    pub rerank_ns: u64,
    /// Wall time of the verify stage, nanoseconds.
    pub verify_ns: u64,
    /// Retrieval hits, all modalities, before lake resolution (a hit whose
    /// instance is gone still counts here).
    pub candidates_in: usize,
    /// Hits that resolved against the lake: what the rerank stage ranks.
    pub resolved: usize,
    /// Candidates surviving to the verify stage.
    pub candidates_out: usize,
}

impl StageTiming {
    /// Timing for evidence that skipped retrieval/rerank (cached paths):
    /// the evidence set enters and leaves unchanged.
    pub fn for_cached(evidence_len: usize) -> StageTiming {
        StageTiming {
            candidates_in: evidence_len,
            resolved: evidence_len,
            candidates_out: evidence_len,
            ..StageTiming::default()
        }
    }

    /// Write discovery's two spans, `retrieval` and `rerank`, into `trace`
    /// from this timing — the one place they are written, for a request
    /// that discovered alone or inside a batch (`note` says which).
    pub fn trace_discovery(&self, trace: &mut RequestTrace, note: &'static str) {
        trace.span(
            "retrieval",
            self.retrieval_ns,
            self.candidates_in,
            self.resolved,
            note,
        );
        trace.span(
            "rerank",
            self.rerank_ns,
            self.resolved,
            self.candidates_out,
            note,
        );
    }
}

/// A typed hot-path failure. The serving layer maps these to a `Failed`
/// request outcome, distinguishable from load shedding and from
/// deadline-partial (`Unknown`) reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A cached or snapshotted evidence id no longer resolves against the
    /// lake — the evidence set is stale, not merely smaller.
    StaleEvidence {
        /// The dangling instance id.
        id: InstanceId,
        /// The lake's resolution error.
        detail: String,
    },
    /// A stage backend failed outright (reserved for external backends;
    /// the in-tree stages are infallible).
    Backend {
        /// Stage name (`retrieval`, `rerank`, `verify`).
        stage: &'static str,
        /// Backend-specific diagnostic.
        detail: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::StaleEvidence { id, detail } => {
                write!(f, "stale evidence {id}: {detail}")
            }
            PipelineError::Backend { stage, detail } => {
                write!(f, "{stage} backend failed: {detail}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// One modality's retrieval budget within a pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagePlan {
    /// The evidence modality to consult.
    pub kind: InstanceKind,
    /// Coarse top-k fetched from the source.
    pub coarse_k: usize,
    /// Final candidates surviving the rerank stage.
    pub final_k: usize,
}

/// The rerank stage: refine one modality's coarse candidates (paired with
/// their retrieval scores) down to the final `k`.
pub trait RerankStage: Send + Sync {
    /// Stage name for provenance records.
    fn name(&self) -> &'static str;

    /// The stage's one implementation, over borrowed candidates: the
    /// `(candidate index, score)` of the survivors, best first. The caller
    /// materializes them.
    fn select(
        &self,
        object: &DataObject,
        candidates: &[(InstanceRef<'_>, f64)],
        k: usize,
    ) -> Vec<(usize, f64)>;

    /// [`RerankStage::select`] for a caller that already owns its
    /// candidates: the surviving `(instance, score)` pairs, best first.
    fn rerank(
        &self,
        object: &DataObject,
        candidates: Vec<(DataInstance, f64)>,
        k: usize,
    ) -> Vec<(DataInstance, f64)> {
        let selected = self.select(object, &views_of(&candidates), k);
        let instances = candidates
            .into_iter()
            .map(|(instance, _)| instance)
            .collect();
        verifai_rerank::take_ranked(instances, selected)
    }

    /// Bring whatever this stage keeps per evidence instance in line with
    /// `lake` for the `touched` ids — called with every featured id once
    /// the system is assembled, and with the ids and new texts of a
    /// mutation's [`crate::IndexOp`]s after each lake change. A stage that
    /// keeps nothing (the default) ignores it.
    fn sync_features(&self, lake: &DataLake, touched: &[Touched<'_>]) {
        let _ = (lake, touched);
    }

    /// Size of what [`RerankStage::sync_features`] maintains.
    fn feature_stats(&self) -> FeatureStats {
        FeatureStats::default()
    }
}

/// Rerank by re-scoring every candidate with a task-specific
/// [`Reranker`]; retrieval scores are discarded (paper §3.2).
///
/// The stage keeps the reranker's query-independent work per instance in a
/// [`FeatureStore`] (DESIGN.md §18), so a request pays only for the query
/// side and the interaction itself.
pub struct ScoreRerank<R: Reranker> {
    reranker: R,
    features: FeatureStore,
}

impl<R: Reranker> ScoreRerank<R> {
    /// Stage over a concrete reranker, with nothing prepared yet: until
    /// [`RerankStage::sync_features`] runs, every candidate is prepared on
    /// the spot (same scores, request-time cost).
    pub fn new(reranker: R) -> ScoreRerank<R> {
        ScoreRerank {
            reranker,
            features: FeatureStore::default(),
        }
    }
}

impl<R: Reranker> RerankStage for ScoreRerank<R> {
    fn name(&self) -> &'static str {
        self.reranker.name()
    }

    fn select(
        &self,
        object: &DataObject,
        candidates: &[(InstanceRef<'_>, f64)],
        k: usize,
    ) -> Vec<(usize, f64)> {
        let features = self.features.read();
        let candidates: Vec<Candidate<'_>> = candidates
            .iter()
            .map(|&(evidence, _)| Candidate {
                evidence,
                prepared: features.get(evidence.id()),
            })
            .collect();
        verifai_rerank::rank(&self.reranker, object, &candidates, k)
    }

    fn sync_features(&self, lake: &DataLake, touched: &[Touched<'_>]) {
        self.features.sync(&self.reranker, lake, touched);
    }

    fn feature_stats(&self) -> FeatureStats {
        self.features.stats()
    }
}

/// Pass-through rerank stage: keep the retrieval ordering and scores,
/// truncated to `k` (the paper's §4 setting, `use_reranker: false`).
#[derive(Debug, Clone, Copy, Default)]
pub struct TopKPassthrough;

impl RerankStage for TopKPassthrough {
    fn name(&self) -> &'static str {
        "retrieval-order"
    }

    fn select(
        &self,
        _object: &DataObject,
        candidates: &[(InstanceRef<'_>, f64)],
        k: usize,
    ) -> Vec<(usize, f64)> {
        let scores = candidates.iter().map(|&(_, score)| score);
        scores.enumerate().take(k).collect()
    }
}

/// The verify stage: judge one `(object, evidence)` pair, reporting which
/// concrete [`verifai_verify::Verifier`] did the judging (for provenance
/// and reports).
pub trait VerifyStage: Send + Sync {
    /// Judge the pair; returns the verdict and the judging verifier's name.
    fn verify(
        &self,
        object: &DataObject,
        evidence: InstanceRef<'_>,
    ) -> (VerifierOutput, &'static str);
}

impl VerifyStage for Agent {
    fn verify(
        &self,
        object: &DataObject,
        evidence: InstanceRef<'_>,
    ) -> (VerifierOutput, &'static str) {
        Agent::verify(self, object, evidence)
    }
}

/// Everything the verify stage produced for one object.
#[derive(Debug)]
pub struct JudgeOutcome {
    /// Per-evidence verdicts, in evidence order.
    pub verdicts: Vec<EvidenceVerdict>,
    /// Observations feeding the trust model's decision.
    pub observations: Vec<VerdictObservation>,
    /// Whether the deadline expired before all evidence was judged.
    pub timed_out: bool,
    /// Wall time of the stage, nanoseconds.
    pub verify_ns: u64,
}

/// The staged pipeline driver: one retrieval source per modality, one
/// rerank stage, one verify stage. [`crate::VerifAi`] delegates
/// `discover` / `verify_object` here.
pub struct StagedPipeline {
    /// Sources by modality slot (0 = tuple, 1 = table, 2 = text, 3 = kg).
    sources: [Box<dyn EvidenceSource>; 4],
    reranker: Box<dyn RerankStage>,
    verifier: Box<dyn VerifyStage>,
    /// Stamps stage timings and checks deadlines. Production uses the
    /// monotonic system clock; tests inject a `MockClock` so the timings
    /// in reports are exact, assertable values.
    clock: Arc<dyn Clock>,
    /// Lineage labels, built once: each source's `{source}-{kind}` by
    /// modality slot, and the rerank stage's name. Every row a request
    /// records holds a reference.
    retrieval_labels: [Arc<str>; 4],
    rerank_label: Arc<str>,
}

/// Scored evidence read where it lies in the lake: one modality's live
/// coarse hits, or an object's survivors of the rerank stage.
pub type Views<'a> = Vec<(InstanceRef<'a>, f64)>;

/// Evidence a caller owns, lent as [`Views`].
pub(crate) fn views_of(owned: &[(DataInstance, f64)]) -> Views<'_> {
    owned
        .iter()
        .map(|(instance, score)| (instance.view(), *score))
        .collect()
}

/// One object's coarse candidates, one slot per modality stage plan.
type ViewSlots<'a> = Vec<(StagePlan, Views<'a>)>;

/// The modality's slot in per-modality arrays (0 = tuples, 1 = tables,
/// 2 = texts, 3 = knowledge graph), e.g. [`crate::LiveIndexes`]'s.
pub fn slot(kind: InstanceKind) -> usize {
    match kind {
        InstanceKind::Tuple => 0,
        InstanceKind::Table => 1,
        InstanceKind::Text => 2,
        InstanceKind::Kg => 3,
    }
}

impl StagedPipeline {
    /// Compose a pipeline from its stages, timed by the system clock.
    pub fn new(
        sources: [Box<dyn EvidenceSource>; 4],
        reranker: Box<dyn RerankStage>,
        verifier: Box<dyn VerifyStage>,
    ) -> StagedPipeline {
        StagedPipeline::with_clock(sources, reranker, verifier, Arc::new(SystemClock))
    }

    /// Compose a pipeline with an explicit [`Clock`] (deterministic tests).
    pub fn with_clock(
        sources: [Box<dyn EvidenceSource>; 4],
        reranker: Box<dyn RerankStage>,
        verifier: Box<dyn VerifyStage>,
        clock: Arc<dyn Clock>,
    ) -> StagedPipeline {
        let kinds = [
            InstanceKind::Tuple,
            InstanceKind::Table,
            InstanceKind::Text,
            InstanceKind::Kg,
        ];
        let retrieval_labels =
            kinds.map(|kind| format!("{}-{kind}", sources[slot(kind)].name()).into());
        StagedPipeline {
            rerank_label: reranker.name().into(),
            retrieval_labels,
            sources,
            reranker,
            verifier,
            clock,
        }
    }

    /// The clock timing this pipeline's stages.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The retrieval source serving one modality.
    pub fn source(&self, kind: InstanceKind) -> &dyn EvidenceSource {
        self.sources[slot(kind)].as_ref()
    }

    /// The rerank stage.
    pub fn rerank_stage(&self) -> &dyn RerankStage {
        self.reranker.as_ref()
    }

    /// Retrieval → rerank for `objects[i]` under `queries[i]`, all sharing
    /// one `plan` (the service groups requests by object kind, so one plan
    /// fits the whole batch); a single request is a batch of one.
    /// Candidates are borrowed from `lake` throughout, the returned
    /// survivors included.
    ///
    /// Retrieval issues **one [`EvidenceSource::search_batch`] per
    /// modality for the whole batch** — the flat index's blocked kernel
    /// and the cluster router's scatter amortize a single sweep across all
    /// B queries — then the lake lookups, provenance, and rerank run per
    /// object. A hit whose instance is no longer in the lake is *not*
    /// silently dropped: a provenance note records the dangling id. Each
    /// stage flushes provenance once for the whole batch, and each
    /// object's timing carries its per-object candidate counts with an
    /// even 1/B share of the batch's stage wall times. No span is written
    /// here: the caller records them from the timing
    /// ([`StageTiming::trace_discovery`]).
    pub fn discover<'a>(
        &self,
        objects: &[&DataObject],
        queries: &[SourceQuery<'_>],
        plan: &[StagePlan],
        lake: &'a DataLake,
        recorder: &mut StageRecorder<'_>,
    ) -> Vec<(Views<'a>, StageTiming)> {
        debug_assert_eq!(objects.len(), queries.len());
        let batch = objects.len();
        if batch == 0 {
            return Vec::new();
        }
        let mut timings = vec![StageTiming::default(); batch];

        // Stage 1: one batched retrieval per modality, lake lookups per
        // object, one flush for the whole batch.
        let started = self.clock.now();
        let mut per_object: Vec<ViewSlots<'_>> =
            (0..batch).map(|_| Vec::with_capacity(plan.len())).collect();
        for &stage_plan in plan {
            let per_query = self
                .source(stage_plan.kind)
                .search_batch(queries, stage_plan.coarse_k);
            for ((object, hits), (timing, slots)) in objects
                .iter()
                .zip(per_query)
                .zip(timings.iter_mut().zip(per_object.iter_mut()))
            {
                timing.candidates_in += hits.len();
                let views = self.view_modality(object, stage_plan, &hits, lake, recorder);
                timing.resolved += views.len();
                slots.push((stage_plan, views));
            }
        }
        let retrieval_ns = ns_between(started, self.clock.now()) / batch as u64;
        recorder.flush_stage();

        // Stage 2: rerank per object, one flush.
        let started = self.clock.now();
        let mut out = Vec::with_capacity(batch);
        for (object, (per_modality, timing)) in objects
            .iter()
            .zip(per_object.into_iter().zip(timings.iter_mut()))
        {
            let mut evidence = Vec::new();
            for (stage_plan, views) in per_modality {
                let ranked = self.rerank_modality(object, stage_plan, &views, recorder);
                timing.candidates_out += ranked.len();
                evidence.extend(ranked);
            }
            out.push(evidence);
        }
        let rerank_ns = ns_between(started, self.clock.now()) / batch as u64;
        recorder.flush_stage();

        out.into_iter()
            .zip(timings)
            .map(|(evidence, mut timing)| {
                timing.retrieval_ns = retrieval_ns;
                timing.rerank_ns = rerank_ns;
                (evidence, timing)
            })
            .collect()
    }

    /// Look one modality's retrieval hits for one object up in the lake,
    /// recording a provenance row per hit (a note, not a silent drop, for
    /// the ones the lake no longer holds). Nothing is copied.
    fn view_modality<'a>(
        &self,
        object: &DataObject,
        stage_plan: StagePlan,
        hits: &[SearchHit],
        lake: &'a DataLake,
        recorder: &mut StageRecorder<'_>,
    ) -> Views<'a> {
        let index = &self.retrieval_labels[slot(stage_plan.kind)];
        let mut views = Vec::with_capacity(hits.len());
        for (rank, hit) in hits.iter().enumerate() {
            let note = match lake.view(hit.id) {
                Ok(view) => {
                    views.push((view, hit.score));
                    Note::default()
                }
                Err(error) => format!("unresolved evidence instance dropped: {error:?}").into(),
            };
            recorder.record(ProvenanceRecord {
                object_id: object.id(),
                stage: Stage::Retrieval {
                    index: Arc::clone(index),
                    rank,
                },
                instance: Some(hit.id),
                score: Some(hit.score),
                verdict: None,
                note,
            });
        }
        views
    }

    /// Rerank one modality's candidates for one object down to the plan's
    /// final k, recording a provenance row per survivor.
    fn rerank_modality<'a>(
        &self,
        object: &DataObject,
        stage_plan: StagePlan,
        views: &[(InstanceRef<'a>, f64)],
        recorder: &mut StageRecorder<'_>,
    ) -> Views<'a> {
        let selected = self.reranker.select(object, views, stage_plan.final_k);
        let mut ranked = Vec::with_capacity(selected.len());
        for (rank, (index, score)) in selected.into_iter().enumerate() {
            let view = views[index].0;
            recorder.record(ProvenanceRecord {
                object_id: object.id(),
                stage: Stage::Rerank {
                    reranker: Arc::clone(&self.rerank_label),
                    rank,
                },
                instance: Some(view.id()),
                score: Some(score),
                verdict: None,
                note: Note::default(),
            });
            ranked.push((view, score));
        }
        ranked
    }

    /// Run the verify stage over scored evidence — discovered, or looked up
    /// from cached ids, either way read in place — buffering provenance and
    /// flushing once. This is the one judge loop. Judging stops early when
    /// `deadline` passes, in which case [`JudgeOutcome::timed_out`] is set
    /// and the verdicts gathered so far are returned.
    ///
    /// `replay` holds the verdicts a complete earlier judgment of this very
    /// object over this very evidence produced, pair for pair (the service's
    /// evidence cache keeps them). Each pair then takes its verdict from
    /// there instead of calling the verifier; everything else — the
    /// deadline check, the provenance rows, the observations, the `verify`
    /// span (noted `replayed`) — is this same loop. A verdict is a pure
    /// function of the object, the instance version and the verifier, so a
    /// replayed outcome equals a judged one.
    pub fn judge(
        &self,
        object: &DataObject,
        evidence: &[(InstanceRef<'_>, f64)],
        replay: Option<&[EvidenceVerdict]>,
        deadline: Option<Instant>,
        recorder: &mut StageRecorder<'_>,
        trace: &mut RequestTrace,
    ) -> JudgeOutcome {
        debug_assert!(replay.is_none_or(|verdicts| verdicts
            .iter()
            .map(|v| v.instance)
            .eq(evidence.iter().map(|(instance, _)| instance.id()))));
        let started = self.clock.now();
        let planned = evidence.len();
        let mut verdicts = Vec::with_capacity(evidence.len());
        let mut observations = Vec::with_capacity(evidence.len());
        let mut timed_out = false;
        // The verifier's name as a shared label, rebuilt only when the
        // judging verifier changes from one pair to the next.
        let mut label: Option<(&'static str, Arc<str>)> = None;
        for (pair, &(instance, score)) in evidence.iter().enumerate() {
            if deadline.is_some_and(|d| self.clock.now() >= d) {
                timed_out = true;
                break;
            }
            // The explanation is allocated once — by the verifier, or not at
            // all on a replay — and shared by the verdict and its row.
            let (verdict, explanation, verifier) = match replay {
                Some(verdicts) => {
                    let judged = &verdicts[pair];
                    (
                        judged.verdict,
                        Arc::clone(&judged.explanation),
                        judged.verifier,
                    )
                }
                None => {
                    let (output, verifier) = self.verifier.verify(object, instance);
                    (output.verdict, output.explanation.into(), verifier)
                }
            };
            let shared = match label.take() {
                Some((name, shared)) if name == verifier => shared,
                _ => verifier.into(),
            };
            label = Some((verifier, Arc::clone(&shared)));
            recorder.record(ProvenanceRecord {
                object_id: object.id(),
                stage: Stage::Verify { verifier: shared },
                instance: Some(instance.id()),
                score: Some(score),
                verdict: Some(verdict),
                note: Note::Shared(Arc::clone(&explanation)),
            });
            observations.push(VerdictObservation {
                object_id: object.id(),
                source: instance.source(),
                verdict,
            });
            verdicts.push(EvidenceVerdict {
                instance: instance.id(),
                source: instance.source(),
                score,
                verdict,
                explanation,
                verifier,
            });
        }
        let verify_ns = ns_between(started, self.clock.now());
        recorder.flush_stage();
        let note = if timed_out {
            "deadline"
        } else if replay.is_some() {
            "replayed"
        } else {
            ""
        };
        trace.span("verify", verify_ns, planned, verdicts.len(), note);
        JudgeOutcome {
            verdicts,
            observations,
            timed_out,
            verify_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai_index::SearchHit;
    use verifai_llm::{ImputedCell, SimLlm, SimLlmConfig, WorldModel};
    use verifai_verify::{AgentPolicy, LlmVerifier, ProvenanceSink, SharedProvenance};

    /// A source that returns one dangling id alongside a real one.
    struct FakeSource {
        hits: Vec<SearchHit>,
    }

    impl EvidenceSource for FakeSource {
        fn name(&self) -> &'static str {
            "fake"
        }

        fn search(&self, _query: SourceQuery<'_>, k: usize) -> Vec<SearchHit> {
            self.hits.iter().copied().take(k).collect()
        }
    }

    fn pipeline_with(hits: Vec<SearchHit>) -> StagedPipeline {
        let empty = || -> Box<dyn EvidenceSource> { Box::new(FakeSource { hits: vec![] }) };
        let mut sources = [empty(), empty(), empty(), empty()];
        sources[slot(InstanceKind::Tuple)] = Box::new(FakeSource { hits });
        let agent = Agent::new(
            vec![],
            Box::new(LlmVerifier::new(SimLlm::new(
                SimLlmConfig::oracle(1),
                WorldModel::new(),
            ))),
            AgentPolicy::LlmOnly,
        );
        StagedPipeline::new(sources, Box::new(TopKPassthrough), Box::new(agent))
    }

    fn object() -> DataObject {
        use verifai_lake::{Column, DataType, Schema, Tuple, Value};
        DataObject::ImputedCell(ImputedCell {
            id: 7,
            tuple: Tuple {
                id: 0,
                table: 0,
                row_index: 0,
                schema: Schema::new(vec![Column::key("k", DataType::Text)]),
                values: vec![Value::text("v")],
                source: 0,
            },
            column: "k".into(),
            value: Value::text("v"),
        })
    }

    /// Discover `object()`'s tuple evidence alone: a batch of one.
    fn discover_tuples<'a>(
        pipeline: &StagedPipeline,
        lake: &'a DataLake,
        recorder: &mut StageRecorder<'_>,
    ) -> (Views<'a>, StageTiming) {
        let plan = [StagePlan {
            kind: InstanceKind::Tuple,
            coarse_k: 10,
            final_k: 10,
        }];
        let query = SourceQuery {
            text: "q",
            vector: None,
            ctx: SpanContext::none(),
        };
        let mut discovered = pipeline.discover(&[&object()], &[query], &plan, lake, recorder);
        discovered.pop().expect("one result per object")
    }

    #[test]
    fn unresolved_hits_leave_a_provenance_note() {
        let generated = verifai_datagen::build(&verifai_datagen::LakeSpec::tiny(5));
        let real = generated.lake.tuple_ids().next().expect("lake has tuples");
        let dangling = InstanceId::Tuple(u64::MAX);
        let pipeline = pipeline_with(vec![
            SearchHit::new(InstanceId::Tuple(real), 2.0),
            SearchHit::new(dangling, 1.0),
        ]);
        let sink = SharedProvenance::new();
        let mut recorder = StageRecorder::new(&sink);
        let (evidence, timing) = discover_tuples(&pipeline, &generated.lake, &mut recorder);
        // The resolvable hit survives with its retrieval score...
        assert_eq!(evidence.len(), 1);
        assert_eq!(evidence[0].0.id(), InstanceId::Tuple(real));
        assert_eq!(evidence[0].1, 2.0);
        // ...and the dangling one is audit-visible instead of silent.
        let log = sink.lock();
        let noted: Vec<_> = log
            .for_object(7)
            .into_iter()
            .filter(|r| r.note.contains("unresolved evidence instance"))
            .collect();
        assert_eq!(noted.len(), 1);
        assert_eq!(noted[0].instance, Some(dangling));
        assert_eq!(timing.candidates_in, 2);
        assert_eq!(timing.resolved, 1);
        assert_eq!(timing.candidates_out, 1);
    }

    #[test]
    fn discover_flushes_once_per_stage() {
        let generated = verifai_datagen::build(&verifai_datagen::LakeSpec::tiny(5));
        let real = generated.lake.tuple_ids().next().expect("lake has tuples");
        let pipeline = pipeline_with(vec![SearchHit::new(InstanceId::Tuple(real), 2.0)]);
        let sink = SharedProvenance::new();
        let mut recorder = StageRecorder::new(&sink);
        let (evidence, _) = discover_tuples(&pipeline, &generated.lake, &mut recorder);
        assert_eq!(sink.batches(), 2, "retrieval + rerank, one flush each");
        let outcome = pipeline.judge(
            &object(),
            &evidence,
            None,
            None,
            &mut recorder,
            &mut RequestTrace::disabled(),
        );
        assert_eq!(outcome.verdicts.len(), 1);
        assert_eq!(sink.batches(), 3, "verify adds exactly one flush");
    }

    #[test]
    fn enabled_trace_captures_all_three_stages() {
        let generated = verifai_datagen::build(&verifai_datagen::LakeSpec::tiny(5));
        let real = generated.lake.tuple_ids().next().expect("lake has tuples");
        let dangling = InstanceId::Tuple(u64::MAX);
        let pipeline = pipeline_with(vec![
            SearchHit::new(InstanceId::Tuple(real), 2.0),
            SearchHit::new(dangling, 1.0),
        ]);
        let sink = SharedProvenance::new();
        let mut recorder = StageRecorder::new(&sink);
        let mut trace = RequestTrace::new(42, 7);
        let (evidence, timing) = discover_tuples(&pipeline, &generated.lake, &mut recorder);
        timing.trace_discovery(&mut trace, "");
        pipeline.judge(&object(), &evidence, None, None, &mut recorder, &mut trace);
        let retrieval = trace.span_for("retrieval").expect("retrieval span");
        assert_eq!(retrieval.candidates_in, 2, "both hits entered retrieval");
        assert_eq!(retrieval.candidates_out, 1, "dangling hit dropped");
        let rerank = trace.span_for("rerank").expect("rerank span");
        assert_eq!(rerank.candidates_in, 1);
        assert_eq!(rerank.candidates_out, 1);
        let verify = trace.span_for("verify").expect("verify span");
        assert_eq!(verify.candidates_in, 1);
        assert_eq!(verify.candidates_out, 1);
        assert_eq!(verify.note, "");
    }

    #[test]
    fn pipeline_error_is_displayable() {
        let stale = PipelineError::StaleEvidence {
            id: InstanceId::Tuple(4),
            detail: "tuple 4 not found".into(),
        };
        assert!(stale.to_string().contains("stale evidence"));
        let backend = PipelineError::Backend {
            stage: "retrieval",
            detail: "connection reset".into(),
        };
        assert!(backend.to_string().contains("retrieval backend failed"));
    }
}
