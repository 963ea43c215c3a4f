//! The paper's qualitative results, asserted as invariants.
//!
//! These tests encode the *shape* of §4 — who wins, in which setting, and in
//! what order — at test-friendly scale. Absolute numbers are checked in wide
//! bands; the precise calibration is reported in EXPERIMENTS.md and regenerated
//! by the benches.

use verifai::experiments::{baseline, figure4, table1, table2, ExperimentContext};
use verifai::{Verdict, VerifAiConfig};
use verifai_datagen::LakeSpec;

fn ctx(seed: u64) -> ExperimentContext {
    ExperimentContext::new(
        &LakeSpec::tiny(seed),
        30,
        60,
        VerifAiConfig::paper_setting(),
    )
}

/// §4: ungrounded generation is barely better than a coin flip.
#[test]
fn ungrounded_generation_is_unreliable() {
    let c = ctx(201);
    let b = baseline(&c);
    assert!(
        b.imputation.value() < 0.75,
        "imputation too good: {}",
        b.imputation
    );
    assert!(b.claims.value() < 0.75, "claims too good: {}", b.claims);
    assert!(b.imputation.total == 30);
    assert!(b.claims.total == 60);
}

/// Table 1's ordering: counterpart tuples are near-trivial to retrieve, source
/// tables are harder, entity pages hardest at small k.
#[test]
fn table1_recall_ordering_holds() {
    let mut c = ctx(203);
    let rows = table1(&mut c);
    let (tuple, text, table) = (rows[0].recall, rows[1].recall, rows[2].recall);
    assert!(tuple >= 0.95, "tuple->tuple recall {tuple}");
    assert!(tuple >= table, "tuple {tuple} < table {table}");
    // The strict table > text gap needs the small/paper presets' ambiguity
    // knobs (see EXPERIMENTS.md); at tiny scale both may saturate at 1.0.
    assert!(table >= text, "table {table} < text {text}");
}

/// Table 2's crossover: the local model wins on relevant tables, the generic
/// LLM wins on retrieved tables; grounded verification beats the ungrounded
/// baseline by a wide margin.
#[test]
fn table2_crossover_and_grounding_gap() {
    let mut c = ctx(205);
    let ungrounded = baseline(&c).claims.value();
    let t2 = table2(&mut c);
    assert!(
        t2.claim_relevant_pasta.value() > t2.claim_relevant_chatgpt.value(),
        "pasta {} <= chatgpt {} on relevant tables",
        t2.claim_relevant_pasta,
        t2.claim_relevant_chatgpt
    );
    assert!(
        t2.claim_retrieved_chatgpt.value() > t2.claim_retrieved_pasta.value(),
        "chatgpt {} <= pasta {} on retrieved tables",
        t2.claim_retrieved_chatgpt,
        t2.claim_retrieved_pasta
    );
    // Grounding gap: verifying with evidence crushes the unaided baseline.
    assert!(
        t2.tuple_mixed_chatgpt.value() > ungrounded + 0.15,
        "grounded {} vs ungrounded {ungrounded}",
        t2.tuple_mixed_chatgpt
    );
}

/// Figure 4: refutation via aggregation plus a year-scope not-related verdict,
/// both carrying explanations.
#[test]
fn figure4_case_has_paper_shape() {
    let mut c = ctx(207);
    let case = figure4(&mut c).expect("case constructible");
    assert_eq!(case.evidence.len(), 2);
    assert_eq!(case.evidence[0].verdict, Verdict::Refuted);
    assert!(case.evidence[0].explanation.contains("aggregation query"));
    assert_eq!(case.evidence[1].verdict, Verdict::NotRelated);
    assert!(
        case.evidence[1].explanation.contains("not related"),
        "{}",
        case.evidence[1].explanation
    );
    // E2 is the same championship family, a different year.
    assert_ne!(case.evidence[0].caption, case.evidence[1].caption);
    assert_eq!(
        verifai_claims::vague_caption(&case.evidence[0].caption),
        verifai_claims::vague_caption(&case.evidence[1].caption),
    );
}

/// PASTA never abstains (binary model), the LLM sometimes does.
#[test]
fn pasta_is_binary_llm_is_ternary() {
    use verifai::RequestTrace;
    use verifai_lake::InstanceKind;
    use verifai_verify::{PastaVerifier, Verifier};
    let c = ctx(209);
    let pasta = PastaVerifier::with_defaults();
    let mut llm_not_related = 0;
    let claims = c.claims.clone();
    for claim in claims.iter().take(20) {
        let object = c.system.claim_object(claim);
        let (evidence, _) = c.system.discover(&object, &mut RequestTrace::disabled());
        for (instance, _) in evidence {
            if instance.kind() != InstanceKind::Table {
                continue;
            }
            let p = pasta.verify(&object, instance).verdict;
            assert_ne!(p, Verdict::NotRelated, "PASTA abstained");
            if c.system.llm().verify(&object, instance).verdict == Verdict::NotRelated {
                llm_not_related += 1;
            }
        }
    }
    assert!(
        llm_not_related > 0,
        "the LLM never abstained over retrieved tables"
    );
}
