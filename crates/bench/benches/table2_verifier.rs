//! Regenerates the paper's Table 2 — evaluation of the Verifier:
//!
//! |                         | ChatGPT | PASTA |
//! |-------------------------|---------|-------|
//! | (tuple, tuple+text)     | 0.88    | NA    |
//! | (text, relevant table)  | 0.75    | 0.89  |
//! | (text, retrieved table) | 0.91    | 0.72  |
//!
//! The key *shape* is the crossover: the local PASTA model beats the generic
//! LLM when the evidence table is known-relevant (in-distribution execution),
//! while the LLM wins on open-domain retrieved tables because it recognizes
//! unrelated evidence that PASTA was never trained to abstain on.
//!
//! ```text
//! cargo bench -p verifai-bench --bench table2_verifier
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use serde_json::json;
use verifai::experiments::table2;
use verifai::report::render_table2;
use verifai_bench::{paper_context, write_artifact};
use verifai_lake::DataInstance;
use verifai_verify::{PastaVerifier, Verifier};

fn bench_table2(c: &mut Criterion) {
    let (mut ctx, scale) = paper_context();

    let result = table2(&mut ctx);
    eprintln!(
        "\n=== Table 2 (verifier accuracy), scale = {} ===",
        scale.label()
    );
    eprintln!("{}", render_table2(&result));
    eprintln!("paper: 0.88 | 0.75/0.89 | 0.91/0.72\n");
    assert!(
        result.claim_relevant_pasta.value() > result.claim_relevant_chatgpt.value(),
        "crossover violated on relevant tables"
    );
    assert!(
        result.claim_retrieved_chatgpt.value() > result.claim_retrieved_pasta.value(),
        "crossover violated on retrieved tables"
    );
    write_artifact(
        &format!("table2_{}", scale.label()),
        &json!({
            "scale": scale.label(),
            "tuple_mixed_chatgpt": result.tuple_mixed_chatgpt.value(),
            "claim_relevant_chatgpt": result.claim_relevant_chatgpt.value(),
            "claim_relevant_pasta": result.claim_relevant_pasta.value(),
            "claim_retrieved_chatgpt": result.claim_retrieved_chatgpt.value(),
            "claim_retrieved_pasta": result.claim_retrieved_pasta.value(),
            "paper": {
                "tuple_mixed_chatgpt": 0.88,
                "claim_relevant_chatgpt": 0.75,
                "claim_relevant_pasta": 0.89,
                "claim_retrieved_chatgpt": 0.91,
                "claim_retrieved_pasta": 0.72,
            },
        }),
    );

    // Per-pair verifier latency: the LLM verifier vs the local PASTA model on
    // the same (claim, relevant table) pair.
    let claim = ctx.claims[0].clone();
    let object = ctx.system.claim_object(&claim);
    let table = ctx
        .system
        .lake()
        .table(claim.table)
        .expect("source table")
        .clone();
    let evidence = DataInstance::Table(table);
    let pasta = PastaVerifier::with_defaults();

    let mut group = c.benchmark_group("table2_verifier");
    group.bench_function(format!("chatgpt_sim_per_pair/{}", scale.label()), |b| {
        b.iter(|| ctx.system.llm().verify(&object, &evidence))
    });
    group.bench_function(format!("pasta_per_pair/{}", scale.label()), |b| {
        b.iter(|| pasta.verify(&object, evidence.view()))
    });
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
