//! Determinism contract: the whole system — data generation, indexing,
//! simulated models, pipeline — is reproducible bit-for-bit per seed, and
//! sensitive to seed changes. Every experiment in EXPERIMENTS.md relies on
//! this.

use verifai::{Verdict, VerifAi, VerifAiConfig};
use verifai_datagen::{build, claim_workload, completion_workload, LakeSpec};
use verifai_llm::WorldModel;

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

/// The build is byte-identical for every `build_threads` value (DESIGN
/// §10): every content and semantic index snapshots to the same bytes, the
/// prepared rerank features are the same size, and the system reports the
/// same verdicts.
#[test]
fn build_is_identical_for_every_thread_count() {
    let fingerprint = |threads: usize| {
        let generated = build(&LakeSpec::tiny(317));
        let tasks = completion_workload(&generated, 6, 5);
        let config = VerifAiConfig {
            build_threads: threads,
            ..VerifAiConfig::default()
        };
        let sys = VerifAi::build(generated, config);
        assert_eq!(sys.build_stats().threads, threads);
        let live = sys.live().expect("a built system owns its indexes");
        let content: Vec<_> = live.content.iter().map(|c| c.read().to_bytes()).collect();
        // Tuples have no semantic member; every other modality has one.
        assert!(live.semantic[0].is_none(), "a tuple semantic index");
        let semantic: Vec<_> = live.semantic[1..]
            .iter()
            .map(|s| s.as_ref().expect("semantic index on").read().to_bytes())
            .collect();
        let features = sys.stages().rerank_stage().feature_stats();
        let reports: Vec<_> = tasks
            .iter()
            .map(|t| sys.verify_object(&sys.impute(t)))
            .collect();
        (content, semantic, features, reports)
    };
    let (content, semantic, features, reports) = fingerprint(1);
    assert!(features.instances > 0);
    for threads in [2, 4] {
        let other = fingerprint(threads);
        assert!(
            other.0 == content,
            "content bytes differ at {threads} threads"
        );
        assert!(
            other.1 == semantic,
            "semantic bytes differ at {threads} threads"
        );
        assert_eq!(other.2, features, "feature stats at {threads} threads");
        assert_eq!(other.3, reports, "reports at {threads} threads");
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every fact, and every attribute's domain in its recorded order.
fn world_digest(world: &WorldModel) -> u64 {
    let mut facts: Vec<String> = world
        .facts()
        .map(|((entity, attribute), value)| format!("{entity}\u{1}{attribute}\u{1}{value:?}"))
        .collect();
    facts.sort();
    let mut domains: Vec<String> = world
        .domains()
        .map(|(attribute, values)| format!("{attribute}\u{1}{values:?}"))
        .collect();
    domains.sort();
    fnv1a(format!("{}\u{2}{}", facts.join("\n"), domains.join("\n")).as_bytes())
}

/// The world model a `small` lake records — facts and the order of every
/// domain, which decides `plausible_wrong`'s picks — pinned to its value
/// under the linear-scan domain the indexed one replaced.
#[test]
fn world_model_is_pinned() {
    let world = build(&LakeSpec::small(42)).world;
    assert_eq!(world.num_facts(), 22_464);
    assert_eq!(world_digest(&world), 0x12b1_a6b2_69da_a738);
}
