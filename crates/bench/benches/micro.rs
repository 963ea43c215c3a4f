//! Component microbenchmarks: the per-call cost of every pipeline stage in
//! isolation — analyzer, embedders, BM25 search, HNSW search, the three
//! rerankers, claim parsing/execution, and the verifiers.
//!
//! ```text
//! cargo bench -p verifai-bench --bench micro
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use verifai_claims::{execute, parse_claim};
use verifai_embed::{TextEmbedder, TokenEmbedder, TupleEmbedder};
use verifai_index::{FlatIndex, HnswIndex, SegmentedInvertedIndex, VectorIndex};
use verifai_lake::{DataInstance, InstanceId};
use verifai_llm::{DataObject, SimLlm, SimLlmConfig, TextClaim};
use verifai_rerank::colbert::ColbertReranker;
use verifai_rerank::table::TableReranker;
use verifai_rerank::tuple::TupleReranker;
use verifai_rerank::Reranker;
use verifai_text::Analyzer;
use verifai_verify::{PastaVerifier, Verifier};

fn bench_text_layer(c: &mut Criterion) {
    let analyzer = Analyzer::standard();
    let sentence = "The 1959 NCAA Track and Field Championships were held in June at Berkeley \
                    with several meet records set during the three day competition";
    let mut group = c.benchmark_group("text");
    group.bench_function("analyze_sentence", |b| {
        b.iter(|| analyzer.analyze(black_box(sentence)))
    });
    group.bench_function("levenshtein_16", |b| {
        b.iter(|| {
            verifai_text::sim::levenshtein(
                black_box("track and field"),
                black_box("track und feild"),
            )
        })
    });
    group.bench_function("jaro_winkler_16", |b| {
        b.iter(|| {
            verifai_text::sim::jaro_winkler(black_box("championships"), black_box("championship"))
        })
    });
    group.finish();
}

fn bench_embeddings(c: &mut Criterion) {
    let text = TextEmbedder::with_seed(1);
    let token = TokenEmbedder::new(64, 1);
    let sentence = "the incumbent of New York 3 is James Pike of the Democratic party";
    let mut group = c.benchmark_group("embed");
    group.bench_function("text_embed_sentence", |b| {
        b.iter(|| text.embed(black_box(sentence)))
    });
    group.bench_function("token_embed_sentence", |b| {
        b.iter(|| token.embed_text(black_box(sentence)))
    });
    group.finish();
    let _ = TupleEmbedder::new(256, 1); // constructed for parity; tuple path timed via reranker
}

fn bench_indexes(c: &mut Criterion) {
    // 10k synthetic documents.
    let embedder = TextEmbedder::with_seed(2);
    let mut inverted = SegmentedInvertedIndex::default();
    let mut flat = FlatIndex::new();
    let mut hnsw = HnswIndex::with_defaults();
    for i in 0..10_000u64 {
        let doc = format!(
            "entity {} in category {} with attribute values {} and {} across region {}",
            i,
            i % 97,
            i % 13,
            i % 29,
            i % 7
        );
        inverted.add(InstanceId::Text(i), &doc);
        let v = embedder.embed(&doc);
        flat.add(InstanceId::Text(i), v.clone());
        hnsw.add(InstanceId::Text(i), v);
    }
    // One sealed segment, as a batch build leaves it.
    inverted.compact();
    let query = "entity category attribute region 42";
    let qv = embedder.embed(query);
    let mut group = c.benchmark_group("index_10k");
    group.bench_function("bm25_top10", |b| {
        b.iter(|| inverted.search(black_box(query), 10))
    });
    group.bench_function("flat_top10", |b| b.iter(|| flat.search(black_box(&qv), 10)));
    group.bench_function("hnsw_top10", |b| b.iter(|| hnsw.search(black_box(&qv), 10)));
    group.finish();

    // Construction cost: every insert runs greedy descent + ef_construction
    // beam searches over the fused dot kernel.
    let entries: Vec<(InstanceId, verifai_embed::Vector)> = (0..500u64)
        .map(|i| {
            let doc = format!("entity {} in category {} with value {}", i, i % 23, i % 11);
            (InstanceId::Text(i), embedder.embed(&doc))
        })
        .collect();
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    group.bench_function("hnsw_build_500", |b| {
        b.iter(|| {
            let mut h = HnswIndex::with_defaults();
            for (id, v) in &entries {
                h.add(*id, v.clone());
            }
            black_box(h.len())
        })
    });
    group.finish();
}

fn sample_pair() -> (DataObject, DataInstance, DataInstance, DataInstance) {
    use verifai_lake::{Column, DataType, Schema, Table, TextDocument, Value};
    let claim = DataObject::TextClaim(TextClaim {
        id: 1,
        text: "in the 1959 NCAA Track and Field Championships, the number of rows where points \
               is 1 is 2"
            .into(),
        expr: None,
        scope: None,
    });
    let mut table = Table::new(
        1,
        "1959 NCAA Track and Field Championships",
        Schema::new(vec![
            Column::key("team", DataType::Text),
            Column::new("points", DataType::Int),
        ]),
        0,
    );
    for (t, p) in [("Kansas", 42), ("Brown", 1), ("Yale", 1), ("Oregon", 28)] {
        table.push_row(vec![Value::text(t), Value::Int(p)]).unwrap();
    }
    let tuple = table.tuple_at(1, 7).unwrap();
    let doc = TextDocument::new(
        3,
        "Brown",
        "Brown is a collegiate athletic program. The points of Brown is 1. The championships \
         were held over three days in June.",
        0,
    );
    (
        claim,
        DataInstance::Table(table),
        DataInstance::Tuple(tuple),
        DataInstance::Text(doc),
    )
}

fn bench_rerankers(c: &mut Criterion) {
    let (claim, table, tuple, text) = sample_pair();
    let colbert = ColbertReranker::with_defaults();
    let table_rr = TableReranker::with_defaults();
    let tuple_rr = TupleReranker::with_defaults();
    let mut group = c.benchmark_group("rerank_per_pair");
    group.bench_function("colbert_text", |b| b.iter(|| colbert.score(&claim, &text)));
    group.bench_function("opentfv_table", |b| {
        b.iter(|| table_rr.score(&claim, &table))
    });
    group.bench_function("retclean_tuple", |b| {
        b.iter(|| tuple_rr.score(&claim, &tuple))
    });
    // The late-interaction kernel alone, on pre-embedded token sets: a pure
    // measure of the fused dot_unit inner loop.
    let enc = TokenEmbedder::new(64, 0xc01b);
    let q_toks = enc.embed_text("the incumbent of New York 3 is James Pike");
    let d_toks = enc.embed_text(
        "James Pike was elected in the New York 3 district as the incumbent \
         candidate representing the party in the house election of that year",
    );
    group.bench_function("maxsim_pre_embedded", |b| {
        b.iter(|| ColbertReranker::maxsim(black_box(&q_toks), black_box(&d_toks)))
    });
    group.finish();
}

fn bench_claims_and_verifiers(c: &mut Criterion) {
    let (claim_obj, table, _, _) = sample_pair();
    let DataObject::TextClaim(claim) = &claim_obj else {
        unreachable!()
    };
    let DataInstance::Table(tbl) = &table else {
        unreachable!()
    };
    let expr = parse_claim(&claim.text).expect("canonical claim parses");
    let pasta = PastaVerifier::with_defaults();
    let llm = SimLlm::new(SimLlmConfig::default(), verifai_llm::WorldModel::new());
    let mut group = c.benchmark_group("claims");
    group.bench_function("parse_claim", |b| {
        b.iter(|| parse_claim(black_box(&claim.text)))
    });
    group.bench_function("execute_count", |b| {
        b.iter(|| execute(black_box(&expr), black_box(tbl)))
    });
    group.bench_function("pasta_verify", |b| {
        b.iter(|| pasta.verify(&claim_obj, table.view()))
    });
    group.bench_function("llm_verify", |b| b.iter(|| llm.verify(&claim_obj, &table)));
    group.finish();
}

criterion_group!(
    benches,
    bench_text_layer,
    bench_embeddings,
    bench_indexes,
    bench_rerankers,
    bench_claims_and_verifiers
);
criterion_main!(benches);
