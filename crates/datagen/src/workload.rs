//! Workload generation: the paper's two evaluation tasks.
//!
//! * **Tuple completion** (§4, 100 tuples): sample lake tuples whose subject
//!   entity has a text page, mask one stable non-key attribute, and record the
//!   relevance ground truth (the counterpart tuple and the entity page).
//! * **Textual claims** (§4, 1,300 TabFact claims): generate labelled claims
//!   over sampled lake tables via [`verifai_claims::ClaimGenerator`].

use crate::builder::GeneratedLake;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use verifai_claims::{Claim, ClaimGenConfig, ClaimGenerator};
use verifai_lake::value::normalize_str;
use verifai_lake::{DocId, KgEntityId, TableId, Tuple, TupleId, Value};

/// One tuple-completion task.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedTupleTask {
    /// Workload-unique id.
    pub id: u64,
    /// The tuple with the target cell masked to `Null`.
    pub masked: Tuple,
    /// The masked column.
    pub column: String,
    /// Ground-truth value of the masked cell.
    pub truth: Value,
    /// The original counterpart in the lake — the relevant tuple evidence
    /// (paper §4's relevance definition).
    pub counterpart: TupleId,
    /// Relevant text evidence: pages about entities in the tuple.
    pub relevant_docs: Vec<DocId>,
    /// Relevant knowledge-graph evidence: subgraphs of entities in the tuple
    /// (empty unless the lake was built with KG coverage).
    pub relevant_kg: Vec<KgEntityId>,
    /// The table the tuple came from.
    pub table: TableId,
}

/// Sample `n` completion tasks. Only candidates whose subject entity has a
/// text page are eligible, so every task has both tuple and text relevance
/// ground truth (mirroring how the paper's corpus links cells to pages).
pub fn completion_workload(lake: &GeneratedLake, n: usize, seed: u64) -> Vec<MaskedTupleTask> {
    // Stream constant decouples the workload stream from the builder stream
    // when the same seed is reused for both.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3a9f_11d7_55aa_90c3);
    let eligible: Vec<&crate::builder::CompletionCandidate> = lake
        .completion_candidates
        .iter()
        .filter(|c| lake.entity_docs.contains_key(&normalize_str(&c.entity)))
        .collect();
    let mut picked: Vec<&crate::builder::CompletionCandidate> = eligible.clone();
    picked.shuffle(&mut rng);
    picked.truncate(n);

    let mut tasks = Vec::with_capacity(picked.len());
    for (id, cand) in picked.into_iter().enumerate() {
        let tuple = lake
            .lake
            .tuple(cand.tuple_id)
            .expect("candidate tuple exists");
        let column = cand.maskable[rng.gen_range(0..cand.maskable.len())].clone();
        let col_idx = tuple
            .schema
            .index_of(&column)
            .expect("maskable column exists");
        let truth = tuple.values[col_idx].clone();
        let mut masked = tuple.clone();
        masked.values[col_idx] = Value::Null;
        let relevant_docs = lake
            .entity_docs
            .get(&normalize_str(&cand.entity))
            .copied()
            .into_iter()
            .collect();
        let relevant_kg = lake
            .entity_kg
            .get(&normalize_str(&cand.entity))
            .copied()
            .into_iter()
            .collect();
        tasks.push(MaskedTupleTask {
            id: id as u64,
            masked,
            column,
            truth,
            counterpart: cand.tuple_id,
            relevant_docs,
            relevant_kg,
            table: tuple.table,
        });
    }
    tasks
}

/// Generate `n` labelled claims over the lake's tables.
pub fn claim_workload(lake: &GeneratedLake, n: usize, config: ClaimGenConfig) -> Vec<Claim> {
    let mut generator = ClaimGenerator::new(config);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xc1a1_5eed);
    let mut claims = Vec::with_capacity(n);
    let mut tables = lake.claim_tables.clone();
    tables.shuffle(&mut rng);
    let mut cursor = 0usize;
    // Round-robin over shuffled tables, a few claims each, until n reached.
    let mut stall = 0usize;
    while claims.len() < n && stall < tables.len() {
        let table_id = tables[cursor % tables.len()];
        cursor += 1;
        let table = lake.lake.table(table_id).expect("claim table exists");
        let produced = generator.generate(table, 2);
        if produced.is_empty() {
            stall += 1;
        } else {
            stall = 0;
        }
        for c in produced {
            if claims.len() >= n {
                break;
            }
            claims.push(c);
        }
    }
    claims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LakeSpec;
    use verifai_claims::{execute, ExecOutcome};

    fn lake() -> GeneratedLake {
        crate::builder::build(&LakeSpec::tiny(23))
    }

    #[test]
    fn completion_tasks_have_ground_truth() {
        let g = lake();
        let tasks = completion_workload(&g, 30, 5);
        assert!(!tasks.is_empty());
        for t in &tasks {
            // Masked cell is null; truth is not.
            let idx = t.masked.schema.index_of(&t.column).unwrap();
            assert!(t.masked.values[idx].is_null());
            assert!(!t.truth.is_null());
            // Counterpart in the lake carries the truth.
            let counterpart = g.lake.tuple(t.counterpart).unwrap();
            assert!(counterpart.values[idx].matches(&t.truth));
            // At least one relevant doc, and it is about the subject entity.
            assert!(!t.relevant_docs.is_empty());
            let doc = g.lake.doc(t.relevant_docs[0]).unwrap();
            let keys = t.masked.key_values();
            assert!(
                keys.iter().any(|k| doc.mentions(&k.to_string())),
                "doc '{}' not about task keys {:?}",
                doc.title(),
                keys
            );
        }
    }

    #[test]
    fn completion_workload_deterministic_and_seed_sensitive() {
        let g = lake();
        let a = completion_workload(&g, 10, 5);
        let b = completion_workload(&g, 10, 5);
        assert_eq!(a, b);
        let c = completion_workload(&g, 10, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn claim_workload_labels_verified_by_execution() {
        let g = lake();
        let claims = claim_workload(&g, 60, ClaimGenConfig::default());
        assert_eq!(claims.len(), 60);
        for c in &claims {
            let table = g.lake.table(c.table).unwrap();
            let expected = if c.label {
                ExecOutcome::True
            } else {
                ExecOutcome::False
            };
            assert_eq!(execute(&c.expr, table), expected, "claim: {}", c.text);
        }
    }

    #[test]
    fn claim_workload_spreads_over_tables() {
        let g = lake();
        let claims = claim_workload(&g, 40, ClaimGenConfig::default());
        let mut tables: Vec<TableId> = claims.iter().map(|c| c.table).collect();
        tables.sort_unstable();
        tables.dedup();
        assert!(
            tables.len() > 10,
            "claims concentrated on {} tables",
            tables.len()
        );
    }
}
