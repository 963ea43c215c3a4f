//! Determinism contract: the whole system — data generation, indexing,
//! simulated models, pipeline — is reproducible bit-for-bit per seed, and
//! sensitive to seed changes. Every experiment in EXPERIMENTS.md relies on
//! this.

use verifai::{Verdict, VerifAi, VerifAiConfig};
use verifai_datagen::{build, claim_workload, completion_workload, LakeSpec};

fn run_pipeline(seed: u64) -> Vec<(u64, Verdict, f64)> {
    let generated = build(&LakeSpec::tiny(seed));
    let tasks = completion_workload(&generated, 10, seed ^ 1);
    let sys = VerifAi::build(generated, VerifAiConfig::default());
    tasks
        .iter()
        .map(|t| {
            let object = sys.impute(t);
            let r = sys.verify_object(&object);
            (r.object_id, r.decision, r.confidence)
        })
        .collect()
}

#[test]
fn identical_seeds_reproduce_identical_reports() {
    assert_eq!(run_pipeline(301), run_pipeline(301));
}

#[test]
fn different_seeds_differ_somewhere() {
    let a = run_pipeline(301);
    let b = run_pipeline(302);
    // Not every component must differ, but the runs cannot be identical.
    assert_ne!(a, b);
}

#[test]
fn lake_generation_is_stable_across_repeated_builds() {
    let a = build(&LakeSpec::tiny(307));
    let b = build(&LakeSpec::tiny(307));
    assert_eq!(a.lake.stats(), b.lake.stats());
    for id in [0u64, 3, 7] {
        assert_eq!(a.lake.table(id).unwrap(), b.lake.table(id).unwrap());
    }
    // Doc bodies included.
    let docs_a: Vec<String> = a.lake.docs().map(|d| d.body().to_string()).collect();
    let docs_b: Vec<String> = b.lake.docs().map(|d| d.body().to_string()).collect();
    assert_eq!(docs_a, docs_b);
}

#[test]
fn workloads_are_stable() {
    let lake = build(&LakeSpec::tiny(311));
    let t1 = completion_workload(&lake, 12, 5);
    let t2 = completion_workload(&lake, 12, 5);
    assert_eq!(t1, t2);
    let c1 = claim_workload(&lake, 15, verifai_claims::ClaimGenConfig::default());
    let c2 = claim_workload(&lake, 15, verifai_claims::ClaimGenConfig::default());
    assert_eq!(c1, c2);
}

#[test]
fn llm_answers_are_stable_like_a_checkpoint() {
    // The same model asked the same question twice (even interleaved with
    // other queries) answers identically — the frozen-weights property.
    let generated = build(&LakeSpec::tiny(313));
    let tasks = completion_workload(&generated, 8, 3);
    let sys = VerifAi::build(generated, VerifAiConfig::default());
    let first: Vec<_> = tasks
        .iter()
        .map(|t| sys.llm().impute_cell(&t.masked, &t.column))
        .collect();
    // Interleave unrelated queries.
    for t in tasks.iter().rev() {
        let _ = sys.llm().impute_cell(&t.masked, &t.column);
    }
    let second: Vec<_> = tasks
        .iter()
        .map(|t| sys.llm().impute_cell(&t.masked, &t.column))
        .collect();
    assert_eq!(first, second);
}
