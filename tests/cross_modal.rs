//! Cross-modal verification matrix (challenge C2): every supported
//! `(generated object, evidence modality)` pair is exercised through the Agent,
//! including the modality routing of the PreferLocal policy and the caption
//! scoping that separates Refuted from NotRelated.

use verifai::{RequestTrace, Verdict, VerifAi, VerifAiConfig};
use verifai_datagen::{build, claim_workload, completion_workload, LakeSpec};
use verifai_lake::{DataInstance, InstanceKind};
use verifai_llm::SimLlmConfig;
use verifai_verify::AgentPolicy;

#[test]
fn cell_objects_get_tuple_and_text_evidence_claims_get_tables() {
    let generated = build(&LakeSpec::tiny(401));
    let tasks = completion_workload(&generated, 5, 1);
    let claims = claim_workload(&generated, 5, verifai_claims::ClaimGenConfig::default());
    let sys = VerifAi::build(generated, VerifAiConfig::default());

    for task in &tasks {
        let object = sys.impute(task);
        let kinds: Vec<InstanceKind> = sys
            .discover(&object, &mut RequestTrace::disabled())
            .0
            .iter()
            .map(|(i, _)| i.kind())
            .collect();
        assert!(kinds.contains(&InstanceKind::Tuple), "no tuple evidence");
        assert!(kinds.contains(&InstanceKind::Text), "no text evidence");
        assert!(
            !kinds.contains(&InstanceKind::Table),
            "tables not in the §4 plan for cells"
        );
    }
    for claim in &claims {
        let object = sys.claim_object(claim);
        let kinds: Vec<InstanceKind> = sys
            .discover(&object, &mut RequestTrace::disabled())
            .0
            .iter()
            .map(|(i, _)| i.kind())
            .collect();
        assert!(kinds.iter().all(|k| *k == InstanceKind::Table));
        assert!(!kinds.is_empty());
    }
}

#[test]
fn prefer_local_policy_routes_to_local_models() {
    let generated = build(&LakeSpec::tiny(403));
    let tasks = completion_workload(&generated, 5, 1);
    let claims = claim_workload(&generated, 5, verifai_claims::ClaimGenConfig::default());
    let config = VerifAiConfig {
        agent_policy: AgentPolicy::PreferLocal,
        ..VerifAiConfig::default()
    };
    let sys = VerifAi::build(generated, config);

    // Tuple evidence on cell objects goes to the local tuple model; text
    // evidence has no local model and falls back to the LLM.
    let object = sys.impute(&tasks[0]);
    let report = sys.verify_object(&object);
    let mut saw_tuple_model = false;
    let mut saw_llm = false;
    for ev in &report.evidence {
        match ev.instance.kind() {
            InstanceKind::Tuple => {
                assert_eq!(ev.verifier, "roberta-tuple");
                saw_tuple_model = true;
            }
            InstanceKind::Text => {
                assert_eq!(ev.verifier, "chatgpt-sim");
                saw_llm = true;
            }
            InstanceKind::Table => {}
            InstanceKind::Kg => assert_eq!(ev.verifier, "kg-local"),
        }
    }
    assert!(saw_tuple_model && saw_llm);

    // Claims over tables go to PASTA.
    let object = sys.claim_object(&claims[0]);
    let report = sys.verify_object(&object);
    assert!(report.evidence.iter().all(|ev| ev.verifier == "pasta"));
}

#[test]
fn scope_mismatch_yields_not_related_for_the_llm_only() {
    use verifai_verify::{PastaVerifier, Verifier};
    let generated = build(&LakeSpec::tiny(405));
    // Build a claim from one championship table and evaluate it against a
    // different year of the same family.
    let claims = claim_workload(&generated, 40, verifai_claims::ClaimGenConfig::default());
    let claim = claims
        .iter()
        .find(|c| {
            c.scope.contains("Championships")
                && verifai_claims::scope_relation(
                    &c.scope,
                    generated.lake.table(c.table).unwrap().caption(),
                ) == verifai_claims::ScopeRelation::Exact
        })
        .expect("an exactly-scoped championship claim exists");
    let source_caption = generated
        .lake
        .table(claim.table)
        .unwrap()
        .caption()
        .to_string();
    let sibling = generated
        .lake
        .tables()
        .find(|t| {
            t.caption() != source_caption
                && verifai_claims::vague_caption(t.caption())
                    == verifai_claims::vague_caption(&source_caption)
        })
        .expect("sibling year exists")
        .clone();

    let config = VerifAiConfig {
        llm: SimLlmConfig::oracle(1),
        ..VerifAiConfig::default()
    };
    let sys = VerifAi::build(generated, config);
    let object = sys.claim_object(claim);
    let evidence = DataInstance::Table(sibling);

    let llm_verdict = sys.llm().verify(&object, &evidence).verdict;
    assert_eq!(
        llm_verdict,
        Verdict::NotRelated,
        "LLM must respect the year scope"
    );

    // PASTA is scope-blind: it force-answers true/false.
    let pasta = PastaVerifier::with_defaults();
    let pasta_verdict = pasta.verify(&object, evidence.view()).verdict;
    assert_ne!(pasta_verdict, Verdict::NotRelated);
}

#[test]
fn kg_evidence_flows_through_the_pipeline() {
    // §5 extension: with k_kg > 0, imputed cells also retrieve knowledge-graph
    // subgraphs, which the PreferLocal agent routes to the local KG model.
    let generated = build(&LakeSpec::tiny(411));
    assert!(generated.lake.num_kg_entities() > 0);
    let tasks = completion_workload(&generated, 10, 1);
    let config = VerifAiConfig {
        k_kg: 3,
        llm: SimLlmConfig::oracle(2),
        agent_policy: AgentPolicy::PreferLocal,
        ..VerifAiConfig::default()
    };
    let sys = VerifAi::build(generated, config);
    let mut kg_seen = 0;
    let mut kg_verified = 0;
    for task in &tasks {
        let object = sys.impute(task);
        let report = sys.verify_object(&object);
        for ev in &report.evidence {
            if ev.instance.kind() == InstanceKind::Kg {
                kg_seen += 1;
                assert_eq!(ev.verifier, "kg-local");
                if ev.verdict == Verdict::Verified {
                    kg_verified += 1;
                }
            }
        }
        // If this task's entity has a subgraph, it should be retrieved.
        if let Some(&kg_id) = task.relevant_kg.first() {
            let retrieved = report
                .evidence
                .iter()
                .any(|e| e.instance == verifai_lake::InstanceId::Kg(kg_id));
            assert!(
                retrieved,
                "relevant subgraph {kg_id} missing for task {}",
                task.id
            );
        }
    }
    assert!(kg_seen > 0, "no KG evidence reached the verifier");
    assert!(
        kg_verified > 0,
        "oracle imputations never verified by KG evidence"
    );
}

#[test]
fn claim_against_tuple_and_text_extension_pairs() {
    // The paper lists (text, tuple) verification as an extension; our Agent
    // falls back to the LLM for those pairs, which handles lookups.
    let generated = build(&LakeSpec::tiny(407));
    let claims = claim_workload(&generated, 30, verifai_claims::ClaimGenConfig::default());
    let config = VerifAiConfig {
        llm: SimLlmConfig::oracle(9),
        ..VerifAiConfig::default()
    };
    let sys = VerifAi::build(generated, config);

    // Find a lookup claim and the tuple that decides it.
    let lookup = claims
        .iter()
        .find(|c| matches!(c.expr, verifai_claims::ClaimExpr::Lookup { .. }) && c.label)
        .expect("a true lookup claim exists");
    let table = sys.lake().table(lookup.table).unwrap();
    let verifai_claims::ClaimExpr::Lookup { key, .. } = &lookup.expr else {
        unreachable!()
    };
    let row = (0..table.num_rows())
        .find(|&r| table.row(r).unwrap().iter().any(|v| v.matches(key)))
        .expect("subject row exists");
    let tuple = table.tuple_at(row, 999_999).unwrap();

    let object = sys.claim_object(lookup);
    let verdict = sys
        .llm()
        .verify(&object, &DataInstance::Tuple(tuple))
        .verdict;
    assert_eq!(verdict, Verdict::Verified, "claim: {}", lookup.text);
}
