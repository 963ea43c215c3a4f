//! Report formatting: paper-style text tables and the JSON document of an
//! [`Evaluation`].

use crate::experiments::{
    BaselineResult, DecisionRow, Evaluation, Fig4Case, PerModality, Table1Row, Table2Result,
};
use serde_json::json;

/// Render Table 1 in the paper's layout.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from(
        "| Generated data type | retrieved data type | k | recall |\n\
         |---------------------|---------------------|---|--------|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {:.2} |\n",
            r.generated, r.retrieved, r.k, r.recall
        ));
    }
    out
}

/// Render Table 2 in the paper's layout.
pub fn render_table2(t: &Table2Result) -> String {
    format!(
        "|                         | ChatGPT | PASTA |\n\
         |-------------------------|---------|-------|\n\
         | (tuple, tuple+text)     | {:.2}    | NA    |\n\
         | (text, relevant table)  | {:.2}    | {:.2}  |\n\
         | (text, retrieved table) | {:.2}    | {:.2}  |\n",
        t.tuple_mixed_chatgpt.value(),
        t.claim_relevant_chatgpt.value(),
        t.claim_relevant_pasta.value(),
        t.claim_retrieved_chatgpt.value(),
        t.claim_retrieved_pasta.value(),
    )
}

/// Render the baseline paragraph numbers.
pub fn render_baseline(b: &BaselineResult) -> String {
    format!(
        "ungrounded imputation accuracy: {:.2} ({} tasks)\n\
         ungrounded claim accuracy: {:.2} ({} claims)\n",
        b.imputation.value(),
        b.imputation.total,
        b.claims.value(),
        b.claims.total,
    )
}

/// Render the Figure 4 case study.
pub fn render_fig4(case: &Fig4Case) -> String {
    let mut out = format!("claim: {}\n", case.claim_text);
    for (i, e) in case.evidence.iter().enumerate() {
        out.push_str(&format!(
            "E{}: '{}' -> {}\n    {}\n",
            i + 1,
            e.caption,
            e.verdict,
            e.explanation
        ));
    }
    out
}

/// Render a whole evaluation: the paper's tables with the paper's values
/// beside them, then the ablations.
pub fn render(eval: &Evaluation) -> String {
    let mut out = format!(
        "--- Baseline (ungrounded generation), seed {} ---\n",
        eval.seed
    );
    out.push_str(&render_baseline(&eval.baseline));
    out.push_str("paper: imputation 0.52, claims 0.54\n\n--- Table 1 (retrieval recall) ---\n");
    out.push_str(&render_table1(&eval.table1));
    out.push_str("paper: 0.99 / 0.58 / 0.88\n\n--- Table 2 (verifier accuracy) ---\n");
    out.push_str(&render_table2(&eval.table2));
    out.push_str("paper: 0.88 | 0.75/0.89 | 0.91/0.72\n\n--- Figure 4 (case study) ---\n");
    match &eval.figure4 {
        Some(case) => out.push_str(&render_fig4(case)),
        None => out.push_str("no tied championship table in this lake\n"),
    }
    out.push_str("\n--- k-sweep (§4 setting) ---\n   k    tuple->text   claim->table\n");
    for row in &eval.k_sweep {
        out.push_str(&format!(
            "{:>4} {:>14.2} {:>14.2}\n",
            row.k, row.tuple_text_recall, row.claim_table_recall
        ));
    }
    out.push_str(
        "\n--- retrieval plans: recall@k (3/3/5) and relevant instance in final evidence ---\n\
         plan             recall tuple/text/table   in-final tuple/text/table\n",
    );
    let cells = |m: &PerModality| format!("{:.2} / {:.2} / {:.2}", m.tuple, m.text, m.table);
    for row in &eval.plans {
        out.push_str(&format!(
            "{:<16} {:<25} {}\n",
            row.plan,
            cells(&row.recall),
            cells(&row.in_final)
        ));
    }
    for (title, rows) in [
        ("trust (corrupted pages in the lake)", &eval.trust),
        ("KG modality", &eval.kg),
    ] {
        out.push_str(&format!(
            "\n--- {title}: completion decision accuracy ---\n"
        ));
        for row in rows {
            out.push_str(&format!(
                "{:>16}: {:.2} over {} decided\n",
                row.setting,
                row.decisions.value(),
                row.decisions.total
            ));
        }
    }
    out
}

/// The machine-readable export of an evaluation. It holds no wall-clock
/// value, so a run renders the same bytes every time.
pub fn to_json(eval: &Evaluation) -> serde_json::Value {
    let baseline = &eval.baseline;
    let table2 = &eval.table2;
    let decisions = |rows: &[DecisionRow]| {
        rows.iter()
            .map(|r| {
                json!({
                    "setting": r.setting,
                    "decision_accuracy": r.decisions.value(),
                    "decided": r.decisions.total,
                })
            })
            .collect::<Vec<_>>()
    };
    json!({
        "seed": eval.seed,
        "baseline": {
            "imputation_accuracy": baseline.imputation.value(),
            "imputation_n": baseline.imputation.total,
            "claim_accuracy": baseline.claims.value(),
            "claim_n": baseline.claims.total,
        },
        "table1": eval.table1.iter().map(|r| json!({
            "generated": r.generated,
            "retrieved": r.retrieved,
            "k": r.k,
            "recall": r.recall,
        })).collect::<Vec<_>>(),
        "table2": {
            "tuple_mixed_chatgpt": table2.tuple_mixed_chatgpt.value(),
            "claim_relevant_chatgpt": table2.claim_relevant_chatgpt.value(),
            "claim_relevant_pasta": table2.claim_relevant_pasta.value(),
            "claim_retrieved_chatgpt": table2.claim_retrieved_chatgpt.value(),
            "claim_retrieved_pasta": table2.claim_retrieved_pasta.value(),
        },
        "figure4": eval.figure4.as_ref().map(|c| json!({
            "claim": c.claim_text,
            "evidence": c.evidence.iter().map(|e| json!({
                "caption": e.caption,
                "verdict": e.verdict.to_string(),
                "explanation": e.explanation,
            })).collect::<Vec<_>>(),
        })),
        "k_sweep": eval.k_sweep.iter().map(|r| json!({
            "k": r.k,
            "tuple_text_recall": r.tuple_text_recall,
            "claim_table_recall": r.claim_table_recall,
        })).collect::<Vec<_>>(),
        "plans": eval.plans.iter().map(|r| json!({
            "plan": r.plan,
            "tuple_recall": r.recall.tuple,
            "text_recall": r.recall.text,
            "table_recall": r.recall.table,
            "counterpart_in_final": r.in_final.tuple,
            "relevant_page_in_final": r.in_final.text,
            "source_table_in_final": r.in_final.table,
        })).collect::<Vec<_>>(),
        "trust": decisions(&eval.trust),
        "kg": decisions(&eval.kg),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Accuracy;

    fn acc(c: usize, t: usize) -> Accuracy {
        Accuracy {
            correct: c,
            total: t,
        }
    }

    #[test]
    fn table_renders_contain_all_cells() {
        let rows = vec![
            Table1Row {
                generated: "tuple",
                retrieved: "tuple",
                k: 3,
                recall: 0.99,
            },
            Table1Row {
                generated: "tuple",
                retrieved: "text",
                k: 3,
                recall: 0.58,
            },
        ];
        let s = render_table1(&rows);
        assert!(s.contains("| tuple | tuple | 3 | 0.99 |"));
        assert!(s.contains("0.58"));

        let t2 = Table2Result {
            tuple_mixed_chatgpt: acc(88, 100),
            claim_relevant_chatgpt: acc(75, 100),
            claim_relevant_pasta: acc(89, 100),
            claim_retrieved_chatgpt: acc(91, 100),
            claim_retrieved_pasta: acc(72, 100),
        };
        let s = render_table2(&t2);
        assert!(s.contains("0.88"));
        assert!(s.contains("NA"));
        assert!(s.contains("0.72"));
    }

    #[test]
    fn json_export_roundtrips() {
        let b = BaselineResult {
            imputation: acc(52, 100),
            claims: acc(54, 100),
        };
        let t2 = Table2Result {
            tuple_mixed_chatgpt: acc(88, 100),
            claim_relevant_chatgpt: acc(75, 100),
            claim_relevant_pasta: acc(89, 100),
            claim_retrieved_chatgpt: acc(91, 100),
            claim_retrieved_pasta: acc(72, 100),
        };
        let eval = Evaluation {
            seed: 7,
            baseline: b,
            table1: Vec::new(),
            table2: t2,
            figure4: None,
            k_sweep: Vec::new(),
            plans: Vec::new(),
            trust: vec![DecisionRow {
                setting: "majority",
                decisions: acc(87, 100),
            }],
            kg: Vec::new(),
        };
        let v = to_json(&eval);
        assert_eq!(v["seed"], 7);
        assert_eq!(v["baseline"]["imputation_accuracy"], 0.52);
        assert_eq!(v["table2"]["claim_retrieved_pasta"], 0.72);
        assert!(v["figure4"].is_null());
        assert_eq!(v["trust"][0]["decision_accuracy"], 0.87);
        assert_eq!(v["trust"][0]["decided"], 100);
    }
}
