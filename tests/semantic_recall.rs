//! Recall of the semantic graphs a build makes, against the exact scan.
//!
//! For the text and table modalities, the HNSW graph that
//! `corpus::semantic_index` builds (the default config, on every build
//! worker) and an exact `FlatIndex` over the same entries answer the same
//! queries at the default `ef_search`: each completion task's imputed-cell
//! query for the text graph, each claim's text for the table graph. recall@50
//! is the share of the flat top 50 that the graph's top 50 reaches; a graph
//! hit counts when it scores at least the flat 50th score, since a
//! document's chunks share an id and a hit is not told apart by id alone.
//!
//! The `tiny` lake runs in every test run; the `small` lake, the scale the
//! bounds are stated at, is a named release step of `scripts/check.sh`.

use verifai::corpus::{embedder_for, modality_corpus, semantic_index, TEXT_MODALITY};
use verifai::experiments::Scale;
use verifai::{SemanticBackend, VerifAiConfig};
use verifai_claims::ClaimGenConfig;
use verifai_datagen::{build, claim_workload, completion_workload};
use verifai_embed::Vector;
use verifai_index::{AnyVectorIndex, VectorIndex};
use verifai_text::tuple_query;

const K: usize = 50;
const TABLE_MODALITY: usize = 1;
/// Least recall@50 of the text graph.
const TEXT_BOUND: f64 = 0.70;
/// Least recall@50 of the table graph.
const TABLE_BOUND: f64 = 0.85;

/// Tie-aware recall@K of `graph` against `exact` over `queries`.
fn recall(graph: &AnyVectorIndex, exact: &AnyVectorIndex, queries: &[Vector]) -> f64 {
    let (mut reached, mut wanted) = (0usize, 0usize);
    for q in queries {
        let truth = exact.search(q, K);
        let Some(last) = truth.last() else {
            continue;
        };
        let floor = last.score - 1e-9;
        let hits = graph
            .search(q, K)
            .iter()
            .filter(|h| h.score >= floor)
            .count();
        reached += hits.min(truth.len());
        wanted += truth.len();
    }
    reached as f64 / wanted as f64
}

/// (text, table) recall@50 of the graphs built over `scale`'s lake at
/// `seed`, with the workload sizes `evaluate` uses there.
fn graph_recall(scale: Scale, seed: u64) -> (f64, f64) {
    let (_, tasks, claims) = scale.evaluation(seed);
    let generated = build(&scale.spec(seed));
    let tasks = completion_workload(&generated, tasks, seed ^ 0x7a5c);
    let claims = claim_workload(
        &generated,
        claims,
        ClaimGenConfig {
            seed: seed ^ 0xc1a1,
            ..ClaimGenConfig::default()
        },
    );
    let config = VerifAiConfig::default();
    let flat = VerifAiConfig {
        semantic_backend: SemanticBackend::Flat,
        ..config
    };
    let embedder = embedder_for(&config);
    let threads = config.build_workers();
    let text_queries: Vec<Vector> = tasks
        .iter()
        .map(|t| {
            let truth = t.truth.to_string();
            embedder.embed(&tuple_query(&t.masked, Some((&t.column, &truth))))
        })
        .collect();
    let claim_queries: Vec<Vector> = claims.iter().map(|c| embedder.embed(&c.text)).collect();
    let modality_recall = |modality: usize, queries: &[Vector]| {
        let entries = modality_corpus(&generated.lake, modality, &config).semantic;
        let graph = semantic_index(&config, &embedder, &entries, threads);
        let exact = semantic_index(&flat, &embedder, &entries, threads);
        assert_eq!(graph.backend_name(), "hnsw");
        assert_eq!(exact.backend_name(), "flat");
        recall(&graph, &exact, queries)
    };
    (
        modality_recall(TEXT_MODALITY, &text_queries),
        modality_recall(TABLE_MODALITY, &claim_queries),
    )
}

fn graphs_recall_the_exact_scan(scale: Scale) {
    for seed in [42, 7] {
        let (text, table) = graph_recall(scale, seed);
        println!(
            "{} seed {seed}: text recall@{K} {text:.3}, table recall@{K} {table:.3}",
            scale.name()
        );
        assert!(
            text >= TEXT_BOUND,
            "text recall@{K} {text:.3} at seed {seed}"
        );
        assert!(
            table >= TABLE_BOUND,
            "table recall@{K} {table:.3} at seed {seed}"
        );
    }
}

#[test]
fn semantic_graphs_recall_the_exact_scan_at_tiny() {
    graphs_recall_the_exact_scan(Scale::Tiny);
}

/// The `small` lake: about 27 000 text chunks. Slow in a debug build, so
/// it runs by name in release (`scripts/check.sh`).
#[test]
#[ignore = "small lake; run in release by scripts/check.sh"]
fn semantic_graphs_recall_the_exact_scan_at_small() {
    graphs_recall_the_exact_scan(Scale::Small);
}
