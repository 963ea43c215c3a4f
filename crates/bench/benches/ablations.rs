//! Ablation benches for the design choices the paper motivates but does not
//! evaluate:
//!
//! * **k-sweep** — §4 anticipates that the weak (tuple → text) recall "will
//!   improve when we expand the number of retrieved files"; we sweep k.
//! * **index ablation** — §3.1 argues for combining content- and
//!   semantic-based indexes ("combining these two approaches can enhance
//!   recall"); we measure each alone and fused.
//! * **reranker ablation** — §3.2's premise is that task-specific reranking
//!   lets the verifier look at only k′ ≈ 5 instances; we compare final-k
//!   relevance with and without it.
//! * **trust ablation** — §3.3/C3: trust-weighted decisions vs plain majority
//!   on a lake containing corrupted generative-model documents.
//! * **KG ablation** — §5: decision coverage/accuracy with and without the
//!   knowledge-graph evidence modality in the plan.
//!
//! ```text
//! cargo bench -p verifai-bench --bench ablations
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use serde_json::json;
use verifai::experiments::ExperimentContext;
use verifai::metrics::recall_at_k;
use verifai::{RequestTrace, VerifAi, VerifAiConfig};
use verifai_bench::{write_artifact, BenchScale};
use verifai_lake::{InstanceId, InstanceKind};

/// Mean (tuple → text) and (claim → table) recall@k over the workloads.
fn recalls_at(ctx: &mut ExperimentContext, k_text: usize, k_table: usize) -> (f64, f64) {
    let mut text_recall = 0.0;
    let tasks = ctx.tasks.clone();
    for task in &tasks {
        let object = ctx.system.impute(task);
        let query = VerifAi::query_of(&object);
        let ids: Vec<InstanceId> = ctx
            .system
            .retrieve(&query, InstanceKind::Text, k_text)
            .into_iter()
            .map(|h| h.id)
            .collect();
        let relevant: Vec<InstanceId> = task
            .relevant_docs
            .iter()
            .map(|&d| InstanceId::Text(d))
            .collect();
        text_recall += recall_at_k(&ids, &relevant, k_text);
    }
    let mut table_recall = 0.0;
    for claim in &ctx.claims {
        let ids: Vec<InstanceId> = ctx
            .system
            .retrieve(&claim.text, InstanceKind::Table, k_table)
            .into_iter()
            .map(|h| h.id)
            .collect();
        table_recall += recall_at_k(&ids, &[InstanceId::Table(claim.table)], k_table);
    }
    (
        text_recall / tasks.len().max(1) as f64,
        table_recall / ctx.claims.len().max(1) as f64,
    )
}

fn ablation_k_sweep(scale: BenchScale) -> serde_json::Value {
    let (tasks, claims) = scale.workload();
    let mut ctx = ExperimentContext::new(
        &scale.spec(42),
        tasks,
        claims,
        VerifAiConfig::paper_setting(),
    );
    let mut rows = Vec::new();
    eprintln!("--- k-sweep (content index only) ---");
    eprintln!("{:>4} {:>14} {:>15}", "k", "tuple->text", "claim->table");
    for k in [1usize, 3, 5, 10, 20] {
        let (text, table) = recalls_at(&mut ctx, k, k);
        eprintln!("{k:>4} {text:>14.2} {table:>15.2}");
        rows.push(json!({ "k": k, "tuple_text_recall": text, "claim_table_recall": table }));
    }
    json!(rows)
}

fn ablation_index_types(scale: BenchScale) -> serde_json::Value {
    let (tasks, claims) = scale.workload();
    let configs = [
        (
            "content-only",
            VerifAiConfig {
                use_semantic_index: false,
                use_reranker: false,
                ..VerifAiConfig::default()
            },
        ),
        (
            "semantic-only",
            VerifAiConfig {
                use_content_index: false,
                use_reranker: false,
                ..VerifAiConfig::default()
            },
        ),
        (
            "combined-rrf",
            VerifAiConfig {
                use_reranker: false,
                ..VerifAiConfig::default()
            },
        ),
    ];
    eprintln!("--- index ablation (recall@3 text / recall@5 table) ---");
    let mut rows = Vec::new();
    for (name, config) in configs {
        let mut ctx = ExperimentContext::new(&scale.spec(42), tasks, claims, config);
        let (text, table) = recalls_at(&mut ctx, 3, 5);
        eprintln!("{name:>14}: text {text:.2}  table {table:.2}");
        rows.push(json!({ "index": name, "tuple_text_recall": text, "claim_table_recall": table }));
    }
    json!(rows)
}

fn ablation_reranker(scale: BenchScale) -> serde_json::Value {
    // With the reranker, the pipeline refines a coarse top-50 down to k′; the
    // question is whether the relevant instance survives at the small k′.
    let (tasks, claims) = scale.workload();
    let mut rows = Vec::new();
    eprintln!("--- reranker ablation (relevant instance in final evidence set) ---");
    for (name, use_reranker) in [("without-reranker", false), ("with-reranker", true)] {
        let config = VerifAiConfig {
            use_reranker,
            ..VerifAiConfig::default()
        };
        let ctx = ExperimentContext::new(&scale.spec(42), tasks, claims, config);
        let mut tuple_hit = 0usize;
        let tasks_cloned = ctx.tasks.clone();
        for task in &tasks_cloned {
            let object = ctx.system.impute(task);
            let (evidence, _) = ctx.system.discover(&object, &mut RequestTrace::disabled());
            if evidence
                .iter()
                .any(|(i, _)| i.id() == InstanceId::Tuple(task.counterpart))
            {
                tuple_hit += 1;
            }
        }
        let mut table_hit = 0usize;
        let claims_cloned = ctx.claims.clone();
        for claim in &claims_cloned {
            let object = ctx.system.claim_object(claim);
            let (evidence, _) = ctx.system.discover(&object, &mut RequestTrace::disabled());
            if evidence
                .iter()
                .any(|(i, _)| i.id() == InstanceId::Table(claim.table))
            {
                table_hit += 1;
            }
        }
        let tuple_rate = tuple_hit as f64 / tasks_cloned.len().max(1) as f64;
        let table_rate = table_hit as f64 / claims_cloned.len().max(1) as f64;
        eprintln!("{name:>18}: counterpart tuple {tuple_rate:.2}  source table {table_rate:.2}");
        rows.push(json!({
            "setting": name,
            "counterpart_in_final": tuple_rate,
            "source_table_in_final": table_rate,
        }));
    }
    json!(rows)
}

fn ablation_trust(scale: BenchScale) -> serde_json::Value {
    // Lake with corrupted generative-model pages; compare final-decision
    // accuracy (does the decision match whether the imputed value was right?)
    // with trust weighting on and off.
    let mut spec = scale.spec(42);
    spec.corrupted_docs = match scale {
        BenchScale::Tiny => 20,
        _ => 150,
    };
    let (tasks, _) = scale.workload();
    let mut rows = Vec::new();
    eprintln!("--- trust ablation (decision accuracy with corrupted source) ---");
    for (name, use_trust_weighting) in [("majority", false), ("trust-weighted", true)] {
        let config = VerifAiConfig {
            use_trust_weighting,
            ..VerifAiConfig::default()
        };
        let ctx = ExperimentContext::new(&spec, tasks, 10, config);
        let mut correct = 0usize;
        let mut decided = 0usize;
        let tasks_cloned = ctx.tasks.clone();
        for task in &tasks_cloned {
            let object = ctx.system.impute(task);
            let imputed_ok = match &object {
                verifai::DataObject::ImputedCell(c) => c.value.matches(&task.truth),
                verifai::DataObject::TextClaim(_) => unreachable!(),
            };
            let report = ctx.system.verify_object(&object);
            match report.decision {
                verifai::Verdict::Verified => {
                    decided += 1;
                    correct += imputed_ok as usize;
                }
                verifai::Verdict::Refuted => {
                    decided += 1;
                    correct += (!imputed_ok) as usize;
                }
                verifai::Verdict::NotRelated | verifai::Verdict::Unknown => {}
            }
        }
        let acc = correct as f64 / decided.max(1) as f64;
        eprintln!("{name:>16}: decision accuracy {acc:.2} over {decided} decided");
        rows.push(json!({ "setting": name, "decision_accuracy": acc, "decided": decided }));
    }
    json!(rows)
}

fn ablation_kg(scale: BenchScale) -> serde_json::Value {
    // §5 extension: does adding the knowledge-graph modality to the evidence
    // plan change decision quality on the completion workload?
    let (tasks, _) = scale.workload();
    let mut rows = Vec::new();
    eprintln!("--- KG-modality ablation (completion decisions) ---");
    for (name, k_kg) in [("without-kg", 0usize), ("with-kg", 3)] {
        let config = VerifAiConfig {
            k_kg,
            ..VerifAiConfig::default()
        };
        let ctx = ExperimentContext::new(&scale.spec(42), tasks, 10, config);
        let mut correct = 0usize;
        let mut decided = 0usize;
        for task in &ctx.tasks {
            let object = ctx.system.impute(task);
            let imputed_ok = match &object {
                verifai::DataObject::ImputedCell(cell) => cell.value.matches(&task.truth),
                verifai::DataObject::TextClaim(_) => unreachable!(),
            };
            match ctx.system.verify_object(&object).decision {
                verifai::Verdict::Verified => {
                    decided += 1;
                    correct += imputed_ok as usize;
                }
                verifai::Verdict::Refuted => {
                    decided += 1;
                    correct += (!imputed_ok) as usize;
                }
                verifai::Verdict::NotRelated | verifai::Verdict::Unknown => {}
            }
        }
        let acc = correct as f64 / decided.max(1) as f64;
        eprintln!("{name:>12}: decision accuracy {acc:.2} over {decided} decided");
        rows.push(json!({ "setting": name, "decision_accuracy": acc, "decided": decided }));
    }
    json!(rows)
}

fn bench_ablations(c: &mut Criterion) {
    let scale = BenchScale::from_env();
    eprintln!("\n=== Ablations, scale = {} ===", scale.label());
    let k_sweep = ablation_k_sweep(scale);
    let index_types = ablation_index_types(scale);
    let reranker = ablation_reranker(scale);
    let trust = ablation_trust(scale);
    let kg = ablation_kg(scale);
    write_artifact(
        &format!("ablations_{}", scale.label()),
        &json!({
            "scale": scale.label(),
            "k_sweep": k_sweep,
            "index_types": index_types,
            "reranker": reranker,
            "trust": trust,
            "kg": kg,
        }),
    );

    // Time one representative kernel: recall sweep at k=5 on a prebuilt system.
    let (tasks, claims) = BenchScale::Tiny.workload();
    let mut ctx = ExperimentContext::new(
        &BenchScale::Tiny.spec(42),
        tasks,
        claims,
        VerifAiConfig::paper_setting(),
    );
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.bench_function("recall_sweep_kernel/tiny", |b| {
        b.iter(|| recalls_at(&mut ctx, 5, 5))
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
