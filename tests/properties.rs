//! Cross-crate property-based tests: invariants that must hold for *any*
//! seed, tying the generator, executor, parser, retrieval, and verifiers
//! together.

use proptest::prelude::*;
use verifai::metrics::recall_at_k;
use verifai::{Verdict, VerifAi, VerifAiConfig};
use verifai_claims::{execute, parse_claim, ClaimGenConfig, ExecOutcome, ParaphraseLevel};
use verifai_datagen::{build, claim_workload, completion_workload, LakeSpec};
use verifai_lake::{InstanceId, InstanceKind};
use verifai_llm::SimLlmConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every generated claim's label is reproduced by executing its expression
    /// against its source table — and, for non-hard paraphrases, by parsing
    /// its *text* and executing the parse.
    #[test]
    fn claim_labels_consistent_for_any_seed(seed in 0u64..5000) {
        let lake = build(&LakeSpec::tiny(seed));
        let claims = claim_workload(
            &lake,
            12,
            ClaimGenConfig { seed, ..ClaimGenConfig::default() },
        );
        for claim in &claims {
            let table = lake.lake.table(claim.table).unwrap();
            let expected = if claim.label { ExecOutcome::True } else { ExecOutcome::False };
            prop_assert_eq!(execute(&claim.expr, table), expected, "claim: {}", &claim.text);
            if claim.paraphrase != ParaphraseLevel::Hard {
                let parsed = parse_claim(&claim.text);
                prop_assert!(parsed.is_some(), "unparseable: {}", &claim.text);
                prop_assert_eq!(
                    execute(&parsed.unwrap(), table),
                    expected,
                    "parsed disagrees: {}", &claim.text
                );
            }
        }
    }

    /// Recall is monotone in k for any query workload.
    #[test]
    fn recall_monotone_in_k(seed in 0u64..3000) {
        let generated = build(&LakeSpec::tiny(seed));
        let tasks = completion_workload(&generated, 6, seed);
        let sys = VerifAi::build(generated, VerifAiConfig::paper_setting());
        for task in &tasks {
            let object = sys.impute(task);
            let query = VerifAi::query_of(&object);
            let relevant: Vec<InstanceId> =
                task.relevant_docs.iter().map(|&d| InstanceId::Text(d)).collect();
            let mut prev = 0.0;
            for k in [1usize, 3, 8, 20] {
                let ids: Vec<InstanceId> = sys
                    .retrieve(&query, InstanceKind::Text, k)
                    .into_iter()
                    .map(|h| h.id)
                    .collect();
                let r = recall_at_k(&ids, &relevant, k);
                prop_assert!(r >= prev, "recall dropped from {prev} to {r} at k={k}");
                prev = r;
            }
        }
    }

    /// An oracle LLM verifying an oracle imputation against the counterpart
    /// tuple always says Verified; flipping the value to a wrong one always
    /// says Refuted.
    #[test]
    fn oracle_verification_is_sound(seed in 0u64..3000) {
        let generated = build(&LakeSpec::tiny(seed));
        let tasks = completion_workload(&generated, 4, seed);
        let config = VerifAiConfig { llm: SimLlmConfig::oracle(seed), ..VerifAiConfig::default() };
        let sys = VerifAi::build(generated, config);
        for task in &tasks {
            let counterpart = sys.lake().tuple(task.counterpart).unwrap();
            let evidence = verifai_lake::DataInstance::Tuple(counterpart);

            let good = verifai_llm::ImputedCell {
                id: task.id,
                tuple: task.masked.clone(),
                column: task.column.clone(),
                value: task.truth.clone(),
            };
            let v = sys
                .llm()
                .verify(&verifai::DataObject::ImputedCell(good.clone()), &evidence)
                .verdict;
            prop_assert_eq!(v, Verdict::Verified);

            let mut bad = good;
            bad.value = verifai_lake::Value::text("Definitely Wrong Value 42");
            let v = sys
                .llm()
                .verify(&verifai::DataObject::ImputedCell(bad), &evidence)
                .verdict;
            prop_assert_eq!(v, Verdict::Refuted);
        }
    }

    /// Every embedder emits unit-norm (or zero) vectors for any seed and
    /// input mix. The vector indexes' fused-dot scoring and the ColBERT
    /// `dot_unit = cosine` identity both lean on this invariant, so it is
    /// enforced here rather than assumed in a comment.
    #[test]
    fn embedders_emit_unit_vectors(seed in 0u64..10_000) {
        use verifai_embed::{TextEmbedder, TokenEmbedder, TupleEmbedder, Vector};
        use verifai_lake::{Column, DataType, Schema, Tuple, Value};

        fn assert_unit(v: &Vector, what: &str) -> Result<(), TestCaseError> {
            let n = v.norm();
            prop_assert!(
                n == 0.0 || (n - 1.0).abs() < 1e-4,
                "{what}: norm {n} is neither 0 nor 1"
            );
            Ok(())
        }

        let words = [
            "election", "district", "incumbent", "points", "champion",
            "film", "actress", "bulls", "track", "yard", "1959", "ncaa",
        ];
        let pick = |i: u64| words[((seed.wrapping_mul(31).wrapping_add(i)) % words.len() as u64) as usize];
        let text = format!("{} {} {} {} {}", pick(0), pick(1), pick(2), pick(3), pick(4));

        let te = TextEmbedder::with_seed(seed);
        assert_unit(&te.embed(&text), "text embed")?;
        assert_unit(&te.embed(""), "text embed of empty input")?;

        let tok = TokenEmbedder::new(64, seed);
        assert_unit(&tok.embed_token(pick(5)), "token embed")?;
        for (i, v) in tok.embed_text(&text).iter().enumerate() {
            assert_unit(v, &format!("token {i} of embed_text"))?;
        }

        let tup = TupleEmbedder::new(128, seed);
        assert_unit(&tup.embed_text(&text), "tuple embed_text")?;
        let tuple = Tuple {
            id: seed,
            table: 0,
            row_index: 0,
            schema: Schema::new(vec![
                Column::key("district", DataType::Text),
                Column::new("points", DataType::Int),
                Column::new("note", DataType::Text),
            ]),
            values: vec![
                Value::text(pick(6)),
                Value::Int((seed % 100) as i64),
                Value::Null,
            ],
            source: 0,
        };
        assert_unit(&tup.embed(&tuple), "tuple embed")?;
    }

    /// Histogram merging is associative: folding three sample sets as
    /// `(a ⊕ b) ⊕ c` or `a ⊕ (b ⊕ c)` yields identical snapshots, so
    /// per-worker histograms can be combined in any order.
    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(0u64..50_000_000, 0..40),
        b in proptest::collection::vec(0u64..50_000_000, 0..40),
        c in proptest::collection::vec(0u64..50_000_000, 0..40),
    ) {
        use verifai_obs::Histogram;
        let snap = |samples: &[u64]| {
            let h = Histogram::new();
            for &s in samples {
                h.record_micros(s);
            }
            h.snapshot()
        };
        let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));

        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);

        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);

        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.count(), (a.len() + b.len() + c.len()) as u64);
        // Merging with the identity (empty snapshot) changes nothing.
        let mut with_empty = left.clone();
        with_empty.merge(&verifai_obs::HistogramSnapshot::default());
        prop_assert_eq!(&with_empty, &left);
    }

    /// Verdict observations aggregate sanely: the trust-weighted decision is
    /// never an outcome that no verifier produced.
    #[test]
    fn decision_is_supported_by_some_verdict(seed in 0u64..2000) {
        let generated = build(&LakeSpec::tiny(seed));
        let tasks = completion_workload(&generated, 4, seed);
        let sys = VerifAi::build(generated, VerifAiConfig::default());
        for task in &tasks {
            let object = sys.impute(task);
            let report = sys.verify_object(&object);
            if report.decision != Verdict::NotRelated {
                prop_assert!(
                    report.evidence.iter().any(|e| e.verdict == report.decision),
                    "decision {:?} unsupported by evidence verdicts",
                    report.decision
                );
            }
        }
    }
}

/// The analysis kernel's byte path yields the char path's terms, in order,
/// on every text the `small` lake at seed 42 holds: each table, document,
/// tuple and KG entity as the indexes serialize it, plus every column name
/// and cell value on its own (what the tuple embedder and the table
/// reranker analyze), under each analyzer the system runs.
#[test]
fn every_small_lake_text_analyzes_the_same_on_both_paths() {
    use verifai_text::serialize::serialize_doc;
    use verifai_text::{serialize_kg, serialize_table, serialize_tuple, Analyzer};

    let generated = build(&LakeSpec::small(42));
    let lake = &generated.lake;
    let mut texts: Vec<String> = Vec::new();
    texts.extend(lake.tables().map(serialize_table));
    texts.extend(lake.docs().map(serialize_doc));
    texts.extend(
        lake.tuple_ids()
            .map(|id| serialize_tuple(lake.tuple_view(id).expect("live tuple"))),
    );
    texts.extend(lake.kg_entities().map(serialize_kg));
    let instances = lake.num_tables() + lake.num_docs() + lake.num_tuples();
    assert_eq!(texts.len(), instances + lake.num_kg_entities());
    for table in lake.tables() {
        texts.extend(table.schema.names().map(str::to_string));
        texts.extend(table.rows().iter().flatten().map(|value| value.to_string()));
    }
    let terms = |analyzer: &Analyzer, text: &str, by_chars: bool| {
        let mut out: Vec<String> = Vec::new();
        let push = |term: &str| out.push(term.to_string());
        if by_chars {
            analyzer.for_each_term_by_chars(text, push);
        } else {
            analyzer.for_each_term(text, push);
        }
        out
    };
    for analyzer in [Analyzer::standard(), Analyzer::lowercase_only()] {
        for text in &texts {
            assert_eq!(
                terms(&analyzer, text, false),
                terms(&analyzer, text, true),
                "{:?} analyzes differently on the two paths: {text:?}",
                analyzer.config()
            );
        }
    }
}
