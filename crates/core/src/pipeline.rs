//! The end-to-end VerifAI pipeline (paper Figures 2–3).
//!
//! [`VerifAi`] assembles the lake, indexes, rerankers, and verifiers, then
//! delegates the actual staged execution — retrieval → rerank → verify —
//! to the [`StagedPipeline`] driver in [`crate::stages`]. This type owns
//! everything configuration-shaped (which backends, which budgets, the
//! trust model); the driver owns the stage discipline (instrumentation,
//! provenance batching, deadline handling).

use std::sync::Arc;

use crate::config::VerifAiConfig;
use crate::corpus::{
    content_entries, content_index, has_semantic_member, index_chain, semantic_index, text_chunks,
    TEXT_MODALITY, TUPLE_MODALITY,
};
use crate::live::{
    compact_indexes, index_stats, mutate_lake, route_ops, IndexOp, LakeMutation, LiveContentSource,
    LiveIndexes, LiveLakeStats, LiveSemanticSource, MutationError, MutationOutcome,
};
use crate::stages::{
    views_of, PipelineError, RerankStage, ScoreRerank, StagePlan, StageTiming, StagedPipeline,
    TopKPassthrough, Views,
};
use parking_lot::{MutexGuard, RwLock};
use verifai_datagen::{GeneratedLake, MaskedTupleTask};
use verifai_embed::{TextEmbedder, Vector};
use verifai_index::{
    AnyVectorIndex, Combiner, EvidenceSource, FusedSource, SearchHit, SegmentedInvertedIndex,
    SourceQuery, VectorIndex,
};
use verifai_lake::{DataInstance, DataLake, InstanceId, InstanceKind, InstanceRef, SourceId};
use verifai_llm::{DataObject, ImputedCell, SimLlm, TextClaim, Verdict};
use verifai_obs::{
    meter, ns_between, Clock, CostVector, RequestTrace, SpanContext, SystemClock, TraceId,
};
use verifai_rerank::composite::CompositeReranker;
use verifai_verify::{
    stamp_trace, Agent, KgModelVerifier, LlmVerifier, PastaVerifier, ProvenanceLog,
    ProvenanceRecord, SharedProvenance, Stage, StageRecorder, TrustModel, TupleModelVerifier,
    VerdictObservation,
};

/// One verified (object, evidence) pair in a report.
#[derive(Debug, Clone, PartialEq)]
pub struct EvidenceVerdict {
    /// The evidence instance.
    pub instance: InstanceId,
    /// Source of the evidence.
    pub source: SourceId,
    /// Relevance score the evidence survived reranking with.
    pub score: f64,
    /// The verifier's verdict.
    pub verdict: Verdict,
    /// The verifier's explanation, shared with the pair's `Verify` lineage
    /// row (and, for a replayed judgment, with the cached verdict).
    pub explanation: Arc<str>,
    /// Which verifier judged the pair.
    pub verifier: &'static str,
}

/// Outcome of verifying one generated data object end to end.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// The object's workload id.
    pub object_id: u64,
    /// Per-evidence verdicts, in rerank order.
    pub evidence: Vec<EvidenceVerdict>,
    /// Trust-weighted final decision.
    pub decision: Verdict,
    /// Weight share of the winning verdict.
    pub confidence: f64,
    /// Per-stage wall times and candidate counts for this run.
    pub timing: StageTiming,
    /// Trace id the run executed under (0 = untraced). Like timing, this is
    /// run bookkeeping, not semantics: excluded from report equality.
    pub trace_id: TraceId,
    /// Work this run consumed — vectors scanned, postings visited, bytes
    /// moved (see [`CostVector`]); wall time lives in `timing`. Run
    /// bookkeeping like `timing`: excluded from report equality.
    pub cost: CostVector,
}

/// Report equality is semantic — wall-clock [`StageTiming`] is excluded so
/// that bit-identical pipeline runs compare equal across machines and
/// repeated executions (the determinism contracts depend on this).
impl PartialEq for VerificationReport {
    fn eq(&self, other: &VerificationReport) -> bool {
        self.object_id == other.object_id
            && self.evidence == other.evidence
            && self.decision == other.decision
            && self.confidence == other.confidence
    }
}

/// Wall-clock breakdown of the lake-indexing work [`VerifAi::build`]
/// performs, surfaced through `VerifAi::build_stats` (and from there the
/// service stats endpoint). Excluded from report equality for the same
/// reason [`StageTiming`] is: timings vary run to run, the indexes do not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Wall time of the whole `build` call.
    pub wall_ns: u64,
    /// Wall time of indexing: from the first build job's dispatch until the
    /// last job and the rerank-feature preparation running beside them
    /// have finished (serializing, content indexing, embedding,
    /// semantic-graph construction, prepared features).
    pub index_ns: u64,
    /// Semantic entries embedded (0 when the semantic index is disabled).
    pub embedded: usize,
    /// Worker threads the indexing ran with.
    pub threads: usize,
}

/// Refresh the rerank stage's prepared features for every instance a
/// mutation's index ops touched — the same ops that keep the indexes
/// current, whose new texts the features embed instead of serializing
/// again.
fn sync_features(stages: &StagedPipeline, lake: &DataLake, ops: &[IndexOp]) {
    let touched: Vec<_> = ops.iter().map(|op| (op.id, op.add.as_deref())).collect();
    stages.rerank_stage().sync_features(lake, &touched);
}

/// The configured rerank stage, with nothing prepared yet.
fn rerank_stage_for(config: &VerifAiConfig) -> Box<dyn RerankStage> {
    if config.use_reranker {
        Box::new(ScoreRerank::new(CompositeReranker::with_defaults()))
    } else {
        Box::new(TopKPassthrough)
    }
}

/// Prepare the evidence side of reranking for every instance already in
/// the lake; `apply` keeps it current from there on. (The
/// pass-through stage keeps nothing.) The embeds this charges belong to no
/// request.
fn prepare_features(stage: &dyn RerankStage, lake: &DataLake) {
    let _ = meter::scoped(|| stage.sync_features(lake, &crate::features::featured_ids(lake)));
}

/// Copy evidence views out of the lake, for a caller that keeps them
/// (`materialize(sys.discover(object, trace).0)`).
pub fn materialize(views: Views<'_>) -> Vec<(DataInstance, f64)> {
    views
        .into_iter()
        .map(|(view, score)| (view.to_owned(), score))
        .collect()
}

/// The assembled VerifAI system: lake + staged pipeline + trust model.
pub struct VerifAi {
    generated: GeneratedLake,
    llm: SimLlm,
    config: VerifAiConfig,
    stages: StagedPipeline,
    /// Embeds retrieval queries for the semantic sources; `None` when the
    /// semantic index is disabled (no embedding work on the hot path).
    embedder: Option<TextEmbedder>,
    /// Lineage sink; stages flush batched records here, one lock per stage.
    provenance: SharedProvenance,
    trust: TrustModel,
    build_stats: BuildStats,
    /// Shared handles into the standing indexes, one set per shard: one
    /// for [`VerifAi::build`], N for a sharded system
    /// ([`VerifAi::from_shards`]). The retrieval sources read the same
    /// `Arc`s that [`VerifAi::apply`] writes.
    shards: Vec<LiveIndexes>,
    /// Mutations applied through [`VerifAi::apply`].
    mutations: u64,
}

impl VerifAi {
    /// Build the system over a generated lake: serializes and indexes every
    /// instance, prepares the rerank features, stands up the LLM over the
    /// lake's world model, and composes the staged pipeline — one fused
    /// [`EvidenceSource`] per modality, the configured rerank stage, and
    /// the verifier [`Agent`].
    ///
    /// Indexing is parallel and deterministic, scheduled by critical path
    /// over [`crate::exec::run_scoped_beside`]. Each job is a chain that
    /// serializes its entries, builds its index and, where the modality has
    /// a semantic member ([`crate::corpus::has_semantic_member`]), its
    /// semantic index — embedding and inserting **sequentially in entry
    /// order**, so every graph is byte-identical to a single-threaded
    /// build. The longest job goes first: the text graph over every
    /// document's sentence chunks. The tuple chain (BM25 only), the table
    /// and knowledge-graph chains and the text content index fill in behind
    /// it. The calling thread prepares the rerank features meanwhile, which
    /// keeps them in its malloc arena.
    ///
    /// `config.build_threads` (0 = one per core) sets the worker count;
    /// with 1, every job runs inline.
    pub fn build(generated: GeneratedLake, config: VerifAiConfig) -> VerifAi {
        VerifAi::build_with_clock(generated, config, Arc::new(SystemClock))
    }

    /// [`VerifAi::build`] with an explicit [`Clock`]; the clock times the
    /// build here and every pipeline stage afterwards. Tests inject
    /// a [`verifai_obs::MockClock`] to make timings exact.
    pub fn build_with_clock(
        generated: GeneratedLake,
        config: VerifAiConfig,
        clock: Arc<dyn Clock>,
    ) -> VerifAi {
        let build_start = clock.now();
        let embedder = crate::corpus::embedder_for(&config);
        let threads = config.build_workers();
        let rerank_stage = rerank_stage_for(&config);
        let index_start = clock.now();

        let lake = &generated.lake;
        let mut content: [Option<SegmentedInvertedIndex>; 4] = Default::default();
        let mut semantic: [Option<AnyVectorIndex>; 4] = Default::default();
        {
            let (config, embedder) = (&config, &embedder);
            let [tuples, tables, texts, kg] = content.each_mut();
            let [tuples_semantic, tables_semantic, texts_semantic, kg_semantic] =
                semantic.each_mut();
            // Longest first: the text graph starts at once; the short jobs
            // fill in behind it on the other workers.
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(5);
            if has_semantic_member(config, TEXT_MODALITY) {
                jobs.push(Box::new(move || {
                    *texts_semantic = Some(semantic_index(config, embedder, &text_chunks(lake)));
                }));
            }
            for (modality, content, semantic) in [
                (TUPLE_MODALITY, tuples, tuples_semantic),
                (1, tables, tables_semantic),
                (3, kg, kg_semantic),
            ] {
                jobs.push(Box::new(move || {
                    let entries = content_entries(lake, modality);
                    let (c, s) = index_chain(config, embedder, modality, &entries, &entries);
                    (*content, *semantic) = (Some(c), s);
                }));
            }
            jobs.push(Box::new(move || {
                *texts = Some(content_index(&content_entries(lake, TEXT_MODALITY)));
            }));
            crate::exec::run_scoped_beside(threads, jobs, || {
                prepare_features(&*rerank_stage, lake)
            });
        }
        let index_ns = ns_between(index_start, clock.now());
        let embedded = semantic.iter().flatten().map(VectorIndex::len).sum();

        // Wrap the built indexes in shared handles: the pipeline's retrieval
        // sources and `VerifAi::apply` both hold the same `Arc`s, so live
        // mutations are visible to the next search. Content comes before
        // semantic in fusion: the Combiner's list order is the historical
        // ranking order.
        let live = LiveIndexes {
            content: content
                .map(|c| Arc::new(RwLock::new(c.expect("every content job filled its slot")))),
            semantic: semantic.map(|s| s.map(|i| Arc::new(RwLock::new(i)))),
        };
        let combiner = Combiner::new(config.fusion);
        let fuse = |slot: usize| -> Box<dyn EvidenceSource> {
            let mut members: Vec<Box<dyn EvidenceSource>> = Vec::with_capacity(2);
            if config.use_content_index {
                members.push(Box::new(LiveContentSource::new(Arc::clone(
                    &live.content[slot],
                ))));
            }
            if let Some(sem) = &live.semantic[slot] {
                members.push(Box::new(LiveSemanticSource::new(Arc::clone(sem))));
            }
            Box::new(FusedSource::new(members, combiner))
        };
        let sources = [fuse(0), fuse(1), fuse(2), fuse(3)];

        let build_stats = BuildStats {
            wall_ns: ns_between(build_start, clock.now()),
            index_ns,
            embedded,
            threads,
        };
        let system = VerifAi::assemble(
            generated,
            config,
            vec![live],
            sources,
            rerank_stage,
            build_stats,
            clock,
        );
        // Index construction runs the same charged kernels as serving
        // (HNSW inserts search the graph); drop whatever landed on this
        // thread so the first request's cost vector starts from zero.
        let _ = meter::take();
        system
    }

    /// Assemble a sharded system: `shards` are its live indexes, one set
    /// per shard, partitioned by [`crate::shard_of`], and `sources` are one
    /// [`EvidenceSource`] per modality in staged-pipeline slot order
    /// (tuples, tables, texts, knowledge graph) that search those shards.
    /// Everything downstream of retrieval — reranker, verifier agent, trust
    /// model, provenance — is assembled exactly as [`VerifAi::build`] does,
    /// so a cluster router standing in for the fused indexes reranks and
    /// verifies identically to the single-lake pipeline, and
    /// [`VerifAi::apply`] keeps the shards current.
    pub fn from_shards(
        generated: GeneratedLake,
        config: VerifAiConfig,
        shards: Vec<LiveIndexes>,
        sources: [Box<dyn EvidenceSource>; 4],
        build_stats: BuildStats,
        clock: Arc<dyn Clock>,
    ) -> VerifAi {
        assert!(!shards.is_empty(), "a system needs at least one shard");
        let rerank_stage = rerank_stage_for(&config);
        prepare_features(&*rerank_stage, &generated.lake);
        VerifAi::assemble(
            generated,
            config,
            shards,
            sources,
            rerank_stage,
            build_stats,
            clock,
        )
    }

    /// Everything downstream of retrieval around `sources` and a rerank
    /// stage whose features are prepared.
    fn assemble(
        generated: GeneratedLake,
        config: VerifAiConfig,
        shards: Vec<LiveIndexes>,
        sources: [Box<dyn EvidenceSource>; 4],
        rerank_stage: Box<dyn RerankStage>,
        build_stats: BuildStats,
        clock: Arc<dyn Clock>,
    ) -> VerifAi {
        let llm = SimLlm::new(config.llm, generated.world.clone());
        let agent = Agent::new(
            vec![
                Box::new(PastaVerifier::with_defaults()),
                Box::new(TupleModelVerifier::with_defaults()),
                Box::new(KgModelVerifier::with_defaults()),
            ],
            Box::new(LlmVerifier::new(llm.clone())),
            config.agent_policy,
        );
        let trust =
            TrustModel::with_priors(generated.lake.sources().iter().map(|s| (s.id, s.trust)));
        let embedder = config
            .use_semantic_index
            .then(|| crate::corpus::embedder_for(&config));
        VerifAi {
            generated,
            llm,
            stages: StagedPipeline::with_clock(sources, rerank_stage, Box::new(agent), clock),
            embedder,
            config,
            provenance: SharedProvenance::new(),
            trust,
            build_stats,
            shards,
            mutations: 0,
        }
    }

    /// Apply one streaming mutation: change the lake, refresh the prepared
    /// rerank features of every touched instance, then retire/re-index the
    /// affected instances in the standing content and semantic indexes of
    /// the shards that own them ([`crate::shard_of`]). On a sharded system
    /// the BM25 statistics of every touched modality are re-merged across
    /// shards. Returns what was done; the next search observes the change.
    /// A mutation the lake rejects changes nothing.
    pub fn apply(&mut self, mutation: LakeMutation) -> Result<MutationOutcome, MutationError> {
        let ops = mutate_lake(&mut self.generated.lake, mutation)?;
        sync_features(&self.stages, &self.generated.lake, &ops);
        let (content_ops, embedded) =
            route_ops(&self.shards, &self.config, self.embedder.as_ref(), ops);
        self.mutations += 1;
        Ok(MutationOutcome {
            generation: self.generated.lake.generation(),
            content_ops,
            embedded,
        })
    }

    /// The shared live index handles of a one-shard system (every system
    /// [`VerifAi::build`] makes); `None` for a sharded one, whose per-shard
    /// indexes the cluster router reports on.
    pub fn live(&self) -> Option<&LiveIndexes> {
        match self.shards.as_slice() {
            [live] => Some(live),
            _ => None,
        }
    }

    /// Aggregate live-lake health: lake generation, mutations and
    /// tombstones, the prepared rerank features, and the index
    /// document/segment/tombstone/compaction counters summed across
    /// modalities and shards.
    pub fn live_stats(&self) -> LiveLakeStats {
        let mut stats = index_stats(&self.shards);
        stats.generation = self.generated.lake.generation();
        stats.lake_tombstones = self.generated.lake.num_tombstones();
        stats.mutations = self.mutations;
        let prepared = self.stages.rerank_stage().feature_stats();
        stats.prepared_instances = prepared.instances;
        stats.prepared_bytes = prepared.bytes;
        stats
    }

    /// Force-compact every standing index of every shard off the query path
    /// (seal + merge content segments, drop tombstoned vectors), fanned out
    /// over `threads` workers, one job per index.
    pub fn compact_live(&self, threads: usize) {
        self.compact_live_traced(threads, &mut RequestTrace::disabled());
    }

    /// [`VerifAi::compact_live`] under a maintenance trace: records a
    /// `compact` span (segments before → after) with `compact-content` /
    /// `compact-semantic` children carrying the tombstones each side
    /// dropped, so background merges are debuggable through the same
    /// flight-recorder machinery as requests.
    pub fn compact_live_traced(&self, threads: usize, trace: &mut RequestTrace) {
        let before = index_stats(&self.shards);
        let started = self.stages.clock().now();
        compact_indexes(&self.shards, threads);
        let wall = ns_between(started, self.stages.clock().now());
        let after = index_stats(&self.shards);
        let parent = trace.span(
            "compact",
            wall,
            before.content_segments,
            after.content_segments,
            format!("threads {threads}"),
        );
        trace.child_span(
            parent,
            "compact-content",
            0,
            wall,
            before.content_tombstones,
            after.content_tombstones,
            format!(
                "segments {} -> {}",
                before.content_segments, after.content_segments
            ),
        );
        trace.child_span(
            parent,
            "compact-semantic",
            0,
            wall,
            before.semantic_tombstones,
            after.semantic_tombstones,
            String::new(),
        );
    }

    /// Timing of the build that produced this system (index construction
    /// wall time, embedding volume, thread count).
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }

    /// The underlying lake.
    pub fn lake(&self) -> &DataLake {
        &self.generated.lake
    }

    /// The generated lake with its ground-truth bookkeeping.
    pub fn generated(&self) -> &GeneratedLake {
        &self.generated
    }

    /// The simulated LLM.
    pub fn llm(&self) -> &SimLlm {
        &self.llm
    }

    /// The active configuration.
    pub fn config(&self) -> &VerifAiConfig {
        &self.config
    }

    /// The staged pipeline driving retrieval, rerank, and verification.
    pub fn stages(&self) -> &StagedPipeline {
        &self.stages
    }

    /// The provenance log accumulated so far (challenge C4). Holds a lock;
    /// drop the guard before calling verification methods again.
    pub fn provenance(&self) -> MutexGuard<'_, ProvenanceLog> {
        self.provenance.lock()
    }

    /// How many batched provenance flushes (= lock acquisitions) the
    /// pipeline has performed. A full `verify_object` costs four — one each
    /// for retrieval, rerank, verify, and decision — regardless of how many
    /// candidates flowed through.
    pub fn provenance_batches(&self) -> u64 {
        use verifai_verify::ProvenanceSink;
        self.provenance.batches()
    }

    /// The trust model (challenge C3).
    pub fn trust(&self) -> &TrustModel {
        &self.trust
    }

    /// Let the (simulated) generative model impute a masked cell, producing
    /// the data object the pipeline will verify (paper Figure 1a).
    pub fn impute(&self, task: &MaskedTupleTask) -> DataObject {
        let value = self.llm.impute_cell(&task.masked, &task.column);
        DataObject::ImputedCell(ImputedCell {
            id: task.id,
            tuple: task.masked.clone(),
            column: task.column.clone(),
            value,
        })
    }

    /// Wrap a workload claim as a data object (paper Figure 1b).
    pub fn claim_object(&self, claim: &verifai_claims::Claim) -> DataObject {
        DataObject::TextClaim(TextClaim {
            id: claim.id,
            text: claim.text.clone(),
            expr: Some(claim.expr.clone()),
            scope: Some(claim.scope.clone()),
        })
    }

    /// Retrieve the coarse top-k instances of one modality for a query string
    /// through the modality's fused [`EvidenceSource`].
    pub fn retrieve(&self, query: &str, kind: InstanceKind, k: usize) -> Vec<SearchHit> {
        let vector = self.embed_query(query);
        self.stages.source(kind).search(
            SourceQuery {
                text: query,
                vector: vector.as_ref(),
                ctx: SpanContext::none(),
            },
            k,
        )
    }

    /// The query embedding, when semantic retrieval is enabled.
    fn embed_query(&self, query: &str) -> Option<Vector> {
        self.embedder.as_ref().map(|e| e.embed(query))
    }

    /// The retrieval query string for a data object (paper: the serialized
    /// tuple including the generated value, or the claim text).
    pub fn query_of(object: &DataObject) -> String {
        match object {
            DataObject::ImputedCell(c) => {
                verifai_text::tuple_query(&c.tuple, Some((c.column.as_str(), &c.value.to_string())))
            }
            DataObject::TextClaim(c) => c.text.clone(),
        }
    }

    /// The evidence modalities (and their budgets) the pipeline consults for
    /// an object: tuples + texts for imputed cells, tables for claims (§4).
    fn stage_plans(&self, object: &DataObject) -> Vec<StagePlan> {
        let final_ks = match object {
            DataObject::ImputedCell(_) => {
                let mut plan = vec![
                    (InstanceKind::Tuple, self.config.k_tuples),
                    (InstanceKind::Text, self.config.k_texts),
                ];
                if self.config.k_kg > 0 {
                    plan.push((InstanceKind::Kg, self.config.k_kg));
                }
                plan
            }
            DataObject::TextClaim(_) => vec![(InstanceKind::Table, self.config.k_tables)],
        };
        final_ks
            .into_iter()
            .map(|(kind, final_k)| StagePlan {
                kind,
                coarse_k: if self.config.use_reranker {
                    self.config.coarse_k.max(final_k)
                } else {
                    final_k
                },
                final_k,
            })
            .collect()
    }

    /// Run retrieval → combine → rerank for an object, logging provenance
    /// and recording retrieval/rerank span events into `trace` (no-ops when
    /// the trace is disabled); returns the surviving evidence, read where it
    /// lies in the lake, with scores and the discovery-side stage timings.
    pub fn discover(
        &self,
        object: &DataObject,
        trace: &mut RequestTrace,
    ) -> (Views<'_>, StageTiming) {
        let text = Self::query_of(object);
        let vector = self.embed_query(&text);
        // Span 0: a distributed source's children graft under the
        // retrieval span this call records once discovery returns.
        let query = SourceQuery {
            text: &text,
            vector: vector.as_ref(),
            ctx: SpanContext {
                trace_id: if trace.is_enabled() {
                    trace.trace_id
                } else {
                    0
                },
                ..SpanContext::none()
            },
        };
        let mut recorder = StageRecorder::new(&self.provenance);
        let (evidence, timing) = self.stages.discover(
            object,
            query,
            &self.stage_plans(object),
            &self.generated.lake,
            &mut recorder,
        );
        timing.trace_discovery(trace);
        (evidence, timing)
    }

    /// Look cached evidence ids up in the lake, restoring — in place, as
    /// views — the instances a previous discovery found. Unlike discovery,
    /// where a dangling retrieval hit is noted and skipped, a dangling
    /// *cached* id means the caller's evidence set no longer describes the
    /// lake, so the whole set is rejected as
    /// [`PipelineError::StaleEvidence`].
    pub fn view_evidence(&self, cached: &[(InstanceId, f64)]) -> Result<Views<'_>, PipelineError> {
        cached
            .iter()
            .map(|&(id, score)| match self.generated.lake.view(id) {
                Ok(view) => Ok((view, score)),
                Err(error) => Err(PipelineError::StaleEvidence {
                    id,
                    detail: format!("{error:?}"),
                }),
            })
            .collect()
    }

    /// [`VerifAi::view_evidence`] with the evidence materialized for a
    /// caller that keeps it.
    pub fn try_resolve_evidence(
        &self,
        cached: &[(InstanceId, f64)],
    ) -> Result<Vec<(DataInstance, f64)>, PipelineError> {
        self.view_evidence(cached).map(materialize)
    }

    /// Verify a generated data object end to end: discover evidence, verify
    /// each pair, and make the trust-weighted decision.
    pub fn verify_object(&self, object: &DataObject) -> VerificationReport {
        self.verify_object_traced(object, &mut RequestTrace::disabled())
    }

    /// [`VerifAi::verify_object`] under a request trace: every stage emits a
    /// span event into `trace` and the report carries the trace id.
    pub fn verify_object_traced(
        &self,
        object: &DataObject,
        trace: &mut RequestTrace,
    ) -> VerificationReport {
        let (evidence, timing) = self.discover(object, trace);
        self.judge(object, &evidence, None, timing, None, trace)
    }

    /// Verify an object against already-discovered evidence the caller
    /// owns. `verify_object` is exactly [`VerifAi::discover`] followed by
    /// [`materialize`] and this.
    pub fn verify_with_evidence(
        &self,
        object: &DataObject,
        evidence: Vec<(DataInstance, f64)>,
    ) -> VerificationReport {
        let timing = StageTiming::for_cached(evidence.len());
        self.judge(
            object,
            &views_of(&evidence),
            None,
            timing,
            None,
            &mut RequestTrace::disabled(),
        )
    }

    /// The shared tail of every verification path: run the verify stage
    /// over evidence read in place, make the trust-weighted decision, and
    /// log it (one decision-stage flush on top of the verify stage's own).
    /// `timing` is that of the discovery that produced `evidence`
    /// ([`StageTiming::for_cached`] for evidence that skipped it), plus the
    /// queue wait a serving layer stamped; the report carries it with the
    /// verify stage's wall time filled in.
    /// Evidence pairs are judged until `deadline` passes, after which the
    /// report is partial — it carries the verdicts produced so far with
    /// decision [`Verdict::Unknown`] and zero confidence. With `deadline:
    /// None` the judgement is total.
    ///
    /// `replay` is the `evidence` field of an earlier complete report for
    /// an equal object over this same evidence, on this same (unmutated)
    /// system: its verdicts stand in for the verifier calls, and the report
    /// equals the judged one ([`StagedPipeline::judge`]).
    pub fn judge(
        &self,
        object: &DataObject,
        evidence: &[(InstanceRef<'_>, f64)],
        replay: Option<&[EvidenceVerdict]>,
        mut timing: StageTiming,
        deadline: Option<std::time::Instant>,
        trace: &mut RequestTrace,
    ) -> VerificationReport {
        let planned = evidence.len();
        let mut recorder = StageRecorder::new(&self.provenance);
        let outcome = self
            .stages
            .judge(object, evidence, replay, deadline, &mut recorder, trace);
        timing.verify_ns = outcome.verify_ns;
        let (decision, confidence) = if outcome.timed_out {
            (Verdict::Unknown, 0.0)
        } else if self.config.use_trust_weighting {
            self.trust.decide(&outcome.observations)
        } else {
            TrustModel::new().decide(&outcome.observations)
        };
        let mut note = if outcome.timed_out {
            format!(
                "deadline exceeded after {} of {planned} evidence verdicts",
                outcome.verdicts.len()
            )
        } else {
            format!("over {} evidence verdicts", outcome.verdicts.len())
        };
        // Stamp the trace id into the decision lineage so a provenance
        // record can be joined back to its flight-recorder trace (the log
        // keeps the id as a number, so the stamp costs no distinct note).
        if trace.is_enabled() {
            stamp_trace(&mut note, trace.trace_id);
        }
        recorder.record(ProvenanceRecord {
            object_id: object.id(),
            stage: Stage::Decision,
            instance: None,
            score: Some(confidence),
            verdict: Some(decision),
            note: note.into(),
        });
        recorder.flush_stage();
        VerificationReport {
            object_id: object.id(),
            evidence: outcome.verdicts,
            decision,
            confidence,
            timing,
            trace_id: trace.trace_id,
            // Drain the thread's resource tally: every kernel charge since
            // the last report — this request's scans, postings walks,
            // re-charged shard costs — belongs to this report.
            cost: meter::take(),
        }
    }

    /// Re-estimate source trust from a batch of accumulated verdict
    /// observations (the C3 loop), updating the decision weighting for
    /// subsequent calls.
    pub fn recalibrate_trust(&mut self, observations: &[VerdictObservation], iterations: usize) {
        self.trust.run(observations, iterations);
    }

    /// Verify a batch of objects across `threads` worker threads.
    ///
    /// Everything in the pipeline is shared-state-free except the provenance
    /// sink — and each worker buffers its records locally, taking the sink
    /// lock only four times per object (once per stage) — so the batch
    /// parallelizes cleanly; reports come back in input order and are
    /// bit-identical to sequential runs — the per-pair noise channels are
    /// hash-derived, not order-derived.
    pub fn verify_batch(&self, objects: &[DataObject], threads: usize) -> Vec<VerificationReport> {
        let threads = threads.max(1).min(objects.len().max(1));
        if threads == 1 || objects.len() < 2 {
            return objects.iter().map(|o| self.verify_object(o)).collect();
        }
        let mut slots: Vec<Option<VerificationReport>> = vec![None; objects.len()];
        let jobs: Vec<_> = objects
            .iter()
            .zip(slots.iter_mut())
            .map(|(object, slot)| move || *slot = Some(self.verify_object(object)))
            .collect();
        crate::exec::run_scoped(threads, jobs);
        slots
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SemanticBackend;
    use verifai_datagen::{build, claim_workload, completion_workload, LakeSpec};

    fn system() -> VerifAi {
        VerifAi::build(build(&LakeSpec::tiny(31)), VerifAiConfig::default())
    }

    #[test]
    fn counterpart_tuple_is_retrieved_first() {
        let sys = system();
        let tasks = completion_workload(sys.generated(), 10, 3);
        for task in &tasks {
            let object = sys.impute(task);
            let evidence = sys.discover(&object, &mut RequestTrace::disabled()).0;
            let tuple_ids: Vec<InstanceId> = evidence
                .iter()
                .filter(|(i, _)| i.kind() == InstanceKind::Tuple)
                .map(|(i, _)| i.id())
                .collect();
            assert!(
                tuple_ids.contains(&InstanceId::Tuple(task.counterpart)),
                "counterpart {} missing from {:?}",
                task.counterpart,
                tuple_ids
            );
        }
    }

    #[test]
    fn claims_retrieve_their_source_table() {
        let sys = system();
        let claims = claim_workload(
            sys.generated(),
            10,
            verifai_claims::ClaimGenConfig::default(),
        );
        let mut hit = 0;
        for claim in &claims {
            let object = sys.claim_object(claim);
            let evidence = sys.discover(&object, &mut RequestTrace::disabled()).0;
            if evidence
                .iter()
                .any(|(i, _)| i.id() == InstanceId::Table(claim.table))
            {
                hit += 1;
            }
        }
        assert!(
            hit >= 7,
            "source table recall too low in tiny lake: {hit}/10"
        );
    }

    #[test]
    fn flat_backend_discovers_evidence() {
        let config = VerifAiConfig {
            semantic_backend: SemanticBackend::Flat,
            ..VerifAiConfig::default()
        };
        let sys = VerifAi::build(build(&LakeSpec::tiny(31)), config);
        let tasks = completion_workload(sys.generated(), 5, 3);
        for task in &tasks {
            let object = sys.impute(task);
            let evidence = sys.discover(&object, &mut RequestTrace::disabled()).0;
            assert!(!evidence.is_empty());
        }
        // Every standing flat index's snapshot reloads to the same answers.
        let embedder = crate::corpus::embedder_for(&VerifAiConfig::default());
        let queries: Vec<Vector> = [
            "district commission incumbent filings",
            "annual budget total by department",
            "committee membership and chairs",
        ]
        .iter()
        .map(|q| embedder.embed(q))
        .collect();
        let live = sys.live().expect("a built system is live");
        for semantic in live.semantic.iter().flatten() {
            let index = semantic.read();
            assert_eq!(index.backend_name(), "flat");
            let want: Vec<_> = queries
                .iter()
                .map(|q| VectorIndex::search(&*index, q, 5))
                .collect();
            assert!(want.iter().all(|hits| !hits.is_empty()));
            let back = AnyVectorIndex::from_bytes(index.to_bytes()).expect("own snapshot loads");
            let got: Vec<_> = queries
                .iter()
                .map(|q| VectorIndex::search(&back, q, 5))
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn verify_object_produces_decision_and_provenance() {
        let sys = system();
        let tasks = completion_workload(sys.generated(), 3, 3);
        let object = sys.impute(&tasks[0]);
        let report = sys.verify_object(&object);
        assert_eq!(report.object_id, tasks[0].id);
        assert!(!report.evidence.is_empty());
        assert!(report.confidence > 0.0);
        // Provenance covers retrieval, rerank, verify, and decision stages.
        let provenance = sys.provenance();
        let records = provenance.for_object(tasks[0].id);
        assert!(records
            .iter()
            .any(|r| matches!(r.stage, Stage::Retrieval { .. })));
        assert!(records
            .iter()
            .any(|r| matches!(r.stage, Stage::Rerank { .. })));
        assert!(records
            .iter()
            .any(|r| matches!(r.stage, Stage::Verify { .. })));
        assert!(records.iter().any(|r| matches!(r.stage, Stage::Decision)));
    }

    #[test]
    fn verify_object_takes_four_provenance_locks() {
        let sys = system();
        let tasks = completion_workload(sys.generated(), 2, 3);
        let object = sys.impute(&tasks[0]);
        let before = sys.provenance_batches();
        let report = sys.verify_object(&object);
        assert!(!report.evidence.is_empty());
        assert_eq!(
            sys.provenance_batches() - before,
            4,
            "retrieval + rerank + verify + decision, one flush each"
        );
        // The cached-evidence path skips discovery: verify + decision only.
        let evidence = materialize(sys.discover(&object, &mut RequestTrace::disabled()).0);
        let before = sys.provenance_batches();
        sys.verify_with_evidence(&object, evidence);
        assert_eq!(sys.provenance_batches() - before, 2);
    }

    #[test]
    fn report_timing_counts_candidates() {
        let sys = system();
        let tasks = completion_workload(sys.generated(), 2, 3);
        let object = sys.impute(&tasks[0]);
        let report = sys.verify_object(&object);
        assert!(report.timing.candidates_in >= report.timing.candidates_out);
        assert_eq!(report.timing.candidates_out, report.evidence.len());
        assert!(report.timing.retrieval_ns > 0);
        assert!(report.timing.verify_ns > 0);
    }

    #[test]
    fn report_equality_ignores_timing() {
        let sys = system();
        let tasks = completion_workload(sys.generated(), 2, 3);
        let object = sys.impute(&tasks[0]);
        let a = sys.verify_object(&object);
        let mut b = a.clone();
        b.timing.retrieval_ns = a.timing.retrieval_ns.wrapping_add(1);
        assert_eq!(a, b);
    }

    #[test]
    fn stale_cached_evidence_is_a_typed_error() {
        let sys = system();
        let dangling = InstanceId::Tuple(u64::MAX);
        let err = sys
            .try_resolve_evidence(&[(dangling, 1.0)])
            .expect_err("dangling id must not resolve");
        assert!(matches!(
            err,
            PipelineError::StaleEvidence { id, .. } if id == dangling
        ));
        // A fully-resolvable set round-trips.
        let real = InstanceId::Tuple(sys.lake().tuple_ids().next().expect("lake has tuples"));
        let ok = sys
            .try_resolve_evidence(&[(real, 0.5)])
            .expect("live id resolves");
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].0.id(), real);
    }

    #[test]
    fn correct_imputation_is_usually_verified() {
        // With an oracle LLM, the imputed value equals the truth and the
        // counterpart evidence must verify it.
        let generated = build(&LakeSpec::tiny(37));
        let config = VerifAiConfig {
            llm: verifai_llm::SimLlmConfig::oracle(1),
            ..VerifAiConfig::default()
        };
        let sys = VerifAi::build(generated, config);
        let tasks = completion_workload(sys.generated(), 10, 11);
        let mut verified = 0;
        for task in &tasks {
            let object = sys.impute(task);
            if sys.verify_object(&object).decision == Verdict::Verified {
                verified += 1;
            }
        }
        assert!(
            verified >= 8,
            "only {verified}/10 oracle imputations verified"
        );
    }

    #[test]
    fn paper_setting_pipeline_still_works() {
        let generated = build(&LakeSpec::tiny(41));
        let sys = VerifAi::build(generated, VerifAiConfig::paper_setting());
        let tasks = completion_workload(sys.generated(), 3, 3);
        let object = sys.impute(&tasks[0]);
        let report = sys.verify_object(&object);
        assert!(!report.evidence.is_empty());
    }

    #[test]
    fn batch_verification_matches_sequential() {
        let sys = system();
        let tasks = completion_workload(sys.generated(), 8, 3);
        let objects: Vec<DataObject> = tasks.iter().map(|t| sys.impute(t)).collect();
        let sequential: Vec<VerificationReport> =
            objects.iter().map(|o| sys.verify_object(o)).collect();
        let parallel = sys.verify_batch(&objects, 4);
        assert_eq!(sequential, parallel);
        // Both passes logged provenance.
        assert!(!sys.provenance().is_empty());
    }

    #[test]
    fn retrieval_respects_modality() {
        let sys = system();
        let hits = sys.retrieve("election district incumbent", InstanceKind::Table, 5);
        assert!(hits.iter().all(|h| h.id.kind() == InstanceKind::Table));
        assert!(!hits.is_empty());
    }
}
