//! Equivalence contract for the staged pipeline refactor: the trait-based
//! driver (`verifai::stages`) must produce bit-identical
//! `VerificationReport`s to the pre-refactor monolithic pipeline across
//! the ablation matrix {reranker on/off} × {content index on/off}.
//!
//! `reference_discover` below is a line-for-line port of the old
//! monolithic discovery (retrieve → resolve → rerank per
//! modality, modality-major), written against public API only. Feeding its
//! evidence through `verify_with_evidence` must equal `verify_object`
//! end to end.

use verifai::{materialize, DataObject, RequestTrace, VerifAi, VerifAiConfig};
use verifai_claims::ClaimGenConfig;
use verifai_datagen::{build, claim_workload, completion_workload, LakeSpec};
use verifai_lake::{DataInstance, InstanceKind};
use verifai_rerank::composite::CompositeReranker;

/// The pre-refactor evidence discovery, reconstructed over public API.
fn reference_discover(sys: &VerifAi, object: &DataObject) -> Vec<(DataInstance, f64)> {
    let config = sys.config();
    let query = VerifAi::query_of(object);
    let reranker = CompositeReranker::with_defaults();
    let plan: Vec<(InstanceKind, usize)> = match object {
        DataObject::ImputedCell(_) => {
            let mut plan = vec![
                (InstanceKind::Tuple, config.k_tuples),
                (InstanceKind::Text, config.k_texts),
            ];
            if config.k_kg > 0 {
                plan.push((InstanceKind::Kg, config.k_kg));
            }
            plan
        }
        DataObject::TextClaim(_) => vec![(InstanceKind::Table, config.k_tables)],
    };
    let mut out = Vec::new();
    for (kind, final_k) in plan {
        let coarse_k = if config.use_reranker {
            config.coarse_k.max(final_k)
        } else {
            final_k
        };
        let hits = sys.retrieve(&query, kind, coarse_k);
        let instances: Vec<DataInstance> = hits
            .iter()
            .filter_map(|h| sys.lake().resolve(h.id).ok())
            .collect();
        let ranked: Vec<(DataInstance, f64)> = if config.use_reranker {
            verifai_rerank::rerank(&reranker, object, instances, final_k)
        } else {
            instances
                .into_iter()
                .zip(hits.iter().map(|h| h.score))
                .take(final_k)
                .collect()
        };
        out.extend(ranked);
    }
    out
}

/// A mixed workload of imputations and claims over `sys`.
fn mixed_objects(sys: &VerifAi, n_each: usize, seed: u64) -> Vec<DataObject> {
    let mut objects: Vec<DataObject> = completion_workload(sys.generated(), n_each, seed)
        .iter()
        .map(|t| sys.impute(t))
        .collect();
    objects.extend(
        claim_workload(
            sys.generated(),
            n_each,
            ClaimGenConfig {
                seed,
                ..ClaimGenConfig::default()
            },
        )
        .iter()
        .map(|c| sys.claim_object(c)),
    );
    objects
}

/// Across all four ablation configs, staged discovery returns the same
/// `(instance, score)` sequence as the monolithic reference, and
/// `verify_object` equals `verify_with_evidence(reference evidence)`
/// report for report.
#[test]
fn ablation_matrix_is_bit_identical() {
    for (use_reranker, use_content_index) in
        [(true, true), (true, false), (false, true), (false, false)]
    {
        let config = VerifAiConfig {
            use_reranker,
            use_content_index,
            // Keep the semantic index on so the content-off cells still
            // retrieve something.
            use_semantic_index: true,
            ..VerifAiConfig::default()
        };
        let sys = VerifAi::build(build(&LakeSpec::tiny(21)), config);
        for object in mixed_objects(&sys, 4, 21) {
            let reference = reference_discover(&sys, &object);
            let (staged, _) = sys.discover(&object, &mut RequestTrace::disabled());
            assert_eq!(
                staged.len(),
                reference.len(),
                "evidence count diverged (reranker={use_reranker}, content={use_content_index})"
            );
            for (i, ((si, ss), (ri, rs))) in staged.iter().zip(reference.iter()).enumerate() {
                assert_eq!(
                    si.id(),
                    ri.id(),
                    "evidence #{i} diverged (reranker={use_reranker}, content={use_content_index})"
                );
                assert_eq!(
                    ss, rs,
                    "score #{i} diverged (reranker={use_reranker}, content={use_content_index})"
                );
            }
            let staged_report = sys.verify_object(&object);
            let reference_report = sys.verify_with_evidence(&object, reference);
            assert_eq!(
                staged_report, reference_report,
                "report diverged (reranker={use_reranker}, content={use_content_index})"
            );
        }
    }
}

/// The rerank stage can only narrow the candidate set.
#[test]
fn rerank_never_widens_the_candidate_set() {
    for use_reranker in [true, false] {
        let config = VerifAiConfig {
            use_reranker,
            ..VerifAiConfig::default()
        };
        let sys = VerifAi::build(build(&LakeSpec::tiny(23)), config);
        for object in mixed_objects(&sys, 3, 23) {
            let report = sys.verify_object(&object);
            assert!(
                report.timing.candidates_out <= report.timing.candidates_in,
                "rerank widened {} -> {} (reranker={use_reranker})",
                report.timing.candidates_in,
                report.timing.candidates_out
            );
            assert_eq!(report.timing.candidates_out, report.evidence.len());
        }
    }
}

/// The batched provenance sink's lock discipline, observed end to end:
/// four flushes per full verification, two per cached-evidence
/// verification, independent of evidence volume.
#[test]
fn provenance_lock_count_is_per_stage_not_per_record() {
    let sys = VerifAi::build(build(&LakeSpec::tiny(25)), VerifAiConfig::default());
    let objects = mixed_objects(&sys, 3, 25);
    let before = sys.provenance_batches();
    for object in &objects {
        sys.verify_object(object);
    }
    assert_eq!(
        sys.provenance_batches() - before,
        4 * objects.len() as u64,
        "full path: retrieval + rerank + verify + decision per object"
    );
    let records = sys.provenance().len();
    assert!(
        records > 4 * objects.len(),
        "batching must be observable: {records} records should exceed flush count"
    );
    // Cached path: discovery skipped, so verify + decision only.
    let evidence = materialize(sys.discover(&objects[0], &mut RequestTrace::disabled()).0);
    let before = sys.provenance_batches();
    sys.verify_with_evidence(&objects[0], evidence);
    assert_eq!(sys.provenance_batches() - before, 2);
}

/// Stage timings are *exact* under an injected auto-step mock clock: each
/// stage brackets its work with exactly two clock reads, so every stage
/// observes precisely one step — an asserted equality, not a flaky `> 0`.
#[test]
fn mock_clock_makes_stage_timings_exact() {
    use std::sync::Arc;
    use std::time::Duration;
    use verifai::MockClock;

    let step = Duration::from_micros(250);
    let step_ns = step.as_nanos() as u64;
    let sys = VerifAi::build_with_clock(
        build(&LakeSpec::tiny(27)),
        VerifAiConfig::default(),
        Arc::new(MockClock::with_auto_step(step)),
    );
    for (i, object) in mixed_objects(&sys, 2, 27).iter().enumerate() {
        let mut trace = RequestTrace::new(i as u64 + 1, object.id());
        let report = sys.verify_object_traced(object, &mut trace);
        assert_eq!(report.timing.retrieval_ns, step_ns);
        assert_eq!(report.timing.rerank_ns, step_ns);
        assert_eq!(report.timing.verify_ns, step_ns);
        // The spans carry the same exact durations as the report.
        for stage in ["retrieval", "rerank", "verify"] {
            let span = trace.span_for(stage).expect("stage span");
            assert_eq!(span.duration_ns, step_ns, "{stage} span duration");
        }
        assert_eq!(report.trace_id, i as u64 + 1);
    }
}

/// A retrieval source that returns a hit the lake no longer holds next to
/// one it does: the dangling hit costs a provenance note — same text, same
/// place — not a candidate; the live one is ranked from where it lies and
/// only then copied out, equal to what `resolve` returns. Both hits were
/// *seen*: two retrieval rows, two candidates in, one out.
#[test]
fn dangling_hit_is_noted_and_the_live_one_survives() {
    use verifai::{ScoreRerank, StagePlan, StagedPipeline};
    use verifai_index::{EvidenceSource, SearchHit, SourceQuery};
    use verifai_lake::{InstanceId, LakeError};
    use verifai_llm::{SimLlm, SimLlmConfig, WorldModel};
    use verifai_obs::SpanContext;
    use verifai_rerank::Reranker;
    use verifai_verify::{
        Agent, AgentPolicy, LlmVerifier, ProvenanceRecord, SharedProvenance, Stage, StageRecorder,
    };

    struct Fixed(Vec<SearchHit>);
    impl EvidenceSource for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn search(&self, _query: SourceQuery<'_>, k: usize) -> Vec<SearchHit> {
            self.0.iter().copied().take(k).collect()
        }
    }

    let generated = build(&LakeSpec::tiny(29));
    let task = &completion_workload(&generated, 1, 29)[0];
    let object = DataObject::ImputedCell(verifai::ImputedCell {
        id: 7,
        tuple: task.masked.clone(),
        column: task.column.clone(),
        value: task.truth.clone(),
    });
    let live = InstanceId::Tuple(task.counterpart);
    let dangling = InstanceId::Tuple(u64::MAX);
    let source = |hits| -> Box<dyn EvidenceSource> { Box::new(Fixed(hits)) };
    let pipeline = StagedPipeline::new(
        [
            source(vec![
                SearchHit::new(dangling, 2.0),
                SearchHit::new(live, 1.0),
            ]),
            source(vec![]),
            source(vec![]),
            source(vec![]),
        ],
        Box::new(ScoreRerank::new(CompositeReranker::with_defaults())),
        Box::new(Agent::new(
            vec![],
            Box::new(LlmVerifier::new(SimLlm::new(
                SimLlmConfig::oracle(1),
                WorldModel::new(),
            ))),
            AgentPolicy::LlmOnly,
        )),
    );
    let sink = SharedProvenance::new();
    let query = SourceQuery {
        text: "q",
        vector: None,
        ctx: SpanContext::none(),
    };
    let mut discovered = pipeline.discover(
        &[&object],
        &[query],
        &[StagePlan {
            kind: InstanceKind::Tuple,
            coarse_k: 10,
            final_k: 3,
        }],
        &generated.lake,
        &mut StageRecorder::new(&sink),
    );
    let (evidence, timing) = discovered.pop().expect("one discovery per object");

    let resolved = generated.lake.resolve(live).expect("live hit resolves");
    let score = CompositeReranker::with_defaults().score(&object, &resolved);
    assert_eq!(evidence, vec![(resolved.view(), score)]);
    assert_eq!((timing.candidates_in, timing.candidates_out), (2, 1));
    let row = |stage, instance, score, note: String| ProvenanceRecord {
        object_id: 7,
        stage,
        instance: Some(instance),
        score: Some(score),
        verdict: None,
        note: note.into(),
    };
    let retrieval = |rank| Stage::Retrieval {
        index: "fixed-tuple".into(),
        rank,
    };
    assert_eq!(
        sink.lock().for_object(7),
        vec![
            row(
                retrieval(0),
                dangling,
                2.0,
                format!(
                    "unresolved evidence instance dropped: {:?}",
                    LakeError::TupleNotFound(u64::MAX)
                ),
            ),
            row(retrieval(1), live, 1.0, String::new()),
            row(
                Stage::Rerank {
                    reranker: "composite".into(),
                    rank: 0,
                },
                live,
                score,
                String::new(),
            ),
        ]
    );
}
