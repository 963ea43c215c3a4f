//! The simulated LLM: construction and ungrounded generation.
//!
//! [`SimLlm`] plays ChatGPT's first role in the paper — the *generator* whose
//! outputs VerifAI must verify. Generation consults the [`WorldModel`] through a
//! per-fact corruption channel: a seeded hash of `(entity, attribute)` decides
//! once and for all whether this "checkpoint" knows the fact, giving the
//! configured ungrounded accuracy (paper baseline: 0.52 for imputation, 0.54 for
//! claim judgment).
//!
//! ### Simulation honesty
//!
//! The harness hands the simulator ground truth (the world model; claim labels)
//! and the simulator *degrades* it deterministically. This is the standard way
//! to model a fixed-accuracy black box; nothing downstream of the LLM ever sees
//! the ground truth.

use crate::config::SimLlmConfig;
use crate::prompt::{tuple_completion_prompt, Transcript};
use crate::world::WorldModel;
use verifai_embed::hashing::{fnv1a, splitmix64, unit_float};
use verifai_lake::value::{normalize_onto, normalize_str};
use verifai_lake::{Table, Tuple, Value};

/// The normalized entity key of a tuple: its key-column values joined.
///
/// Both the world model population (datagen) and the LLM's fact lookups use
/// this convention, so they agree on what "the entity of this tuple" means.
pub fn entity_key(tuple: &Tuple) -> String {
    let mut key = String::new();
    push_entity_key(&mut key, tuple);
    key
}

/// [`Tuple::key_values`], without collecting them.
pub(crate) fn key_values(tuple: &Tuple) -> impl Iterator<Item = &Value> {
    let columns = tuple.schema.columns().iter();
    columns
        .zip(&tuple.values)
        .filter(|(column, _)| column.is_key)
        .map(|(_, value)| value)
}

/// [`entity_key`] written into `out` in place of what it held: each key
/// value normalized straight into the buffer, one space between values.
pub(crate) fn push_entity_key(out: &mut String, tuple: &Tuple) {
    out.clear();
    for (i, value) in key_values(tuple).enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let at = out.len();
        match value {
            Value::Text(s) => normalize_onto(out, s),
            other => normalize_onto(out, &other.to_string()),
        }
        // `normalize_str` drops the part's trailing separator, not the join's.
        if out.len() > at && out.ends_with(' ') {
            out.pop();
        }
    }
}

/// A deterministic simulated large language model.
#[derive(Debug, Clone)]
pub struct SimLlm {
    config: SimLlmConfig,
    world: WorldModel,
}

impl SimLlm {
    /// Model over a world with the given behavioural configuration.
    pub fn new(config: SimLlmConfig, world: WorldModel) -> SimLlm {
        SimLlm { config, world }
    }

    /// The model's configuration.
    pub fn config(&self) -> &SimLlmConfig {
        &self.config
    }

    /// The underlying world model (for diagnostics).
    pub fn world(&self) -> &WorldModel {
        &self.world
    }

    /// Hash-derived Bernoulli draw: deterministic per `(seed, tags)`.
    pub(crate) fn chance(&self, tags: &[u64], p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let mut h = self.config.seed;
        for &t in tags {
            h = splitmix64(h ^ t.wrapping_mul(0x9e3779b97f4a7c15));
        }
        unit_float(h) < p
    }

    /// Hash a string into a tag for [`Self::chance`].
    pub(crate) fn tag(&self, s: &str) -> u64 {
        fnv1a(s.as_bytes(), self.config.seed)
    }

    /// Impute one missing cell of a tuple, ungrounded (paper Figure 1a).
    ///
    /// The model is correct with probability
    /// [`SimLlmConfig::knowledge_reliability`], consistently per
    /// `(entity, attribute)`.
    pub fn impute_cell(&self, tuple: &Tuple, column: &str) -> Value {
        let entity = entity_key(tuple);
        let attr_tag = self.tag(&normalize_str(column));
        let ent_tag = self.tag(&entity);
        let knows = self.chance(
            &[ent_tag, attr_tag, 0x6e0],
            self.config.knowledge_reliability,
        );
        match self.world.truth(&entity, column) {
            Some(truth) if knows => truth.clone(),
            Some(truth) => {
                let pick = splitmix64(ent_tag ^ attr_tag);
                self.world.plausible_wrong(column, truth, pick)
            }
            None => {
                // The world never recorded this fact; the model hallucinates a
                // domain-plausible value.
                let pick = splitmix64(ent_tag ^ attr_tag ^ 0xdead);
                self.world.plausible_wrong(column, &Value::Null, pick)
            }
        }
    }

    /// Complete every `NaN` cell of a table (the paper's batch prompt).
    /// Returns the completed table and the prompt/response transcript.
    pub fn complete_table(&self, table: &Table) -> (Table, Transcript) {
        let mut transcript = Transcript::default();
        transcript.user(tuple_completion_prompt(table));
        let mut completed = table.clone();
        for row in 0..table.num_rows() {
            let Some(tuple) = table.tuple_at(row, row as u64) else {
                continue;
            };
            for col in tuple.null_indices() {
                let column = table.schema.columns()[col].name.clone();
                let value = self.impute_cell(&tuple, &column);
                if let Some(cell) = completed.cell_mut(row, col) {
                    *cell = value;
                }
            }
        }
        let mut reply = String::from("Here is the completed table:\n");
        reply.push_str(&crate::prompt::tuple_completion_prompt(&completed));
        transcript.assistant(reply);
        (completed, transcript)
    }

    /// Judge a textual claim with no evidence (paper baseline: 0.54 accuracy).
    ///
    /// `label` is the ground-truth answer known to the workload harness; the
    /// model returns it correctly with probability
    /// [`SimLlmConfig::unaided_claim_accuracy`], hash-keyed on the claim text so
    /// the same claim always gets the same answer.
    pub fn judge_claim_unaided(&self, claim_text: &str, label: bool) -> bool {
        let correct = self.chance(
            &[self.tag(claim_text), 0xc1a],
            self.config.unaided_claim_accuracy,
        );
        if correct {
            label
        } else {
            !label
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai_lake::{Column, DataType, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::key("district", DataType::Text),
            Column::new("incumbent", DataType::Text),
        ])
    }

    fn tuple(district: &str, incumbent: Value) -> Tuple {
        Tuple {
            id: 0,
            table: 0,
            row_index: 0,
            schema: schema(),
            values: vec![Value::text(district), incumbent],
            source: 0,
        }
    }

    fn world(n: usize) -> WorldModel {
        let mut w = WorldModel::new();
        for i in 0..n {
            w.add_fact(
                &format!("district {i}"),
                "incumbent",
                Value::text(format!("Person {i}")),
            );
        }
        w
    }

    #[test]
    fn imputation_is_deterministic() {
        let llm = SimLlm::new(SimLlmConfig::default(), world(50));
        let t = tuple("district 3", Value::Null);
        assert_eq!(
            llm.impute_cell(&t, "incumbent"),
            llm.impute_cell(&t, "incumbent")
        );
    }

    #[test]
    fn oracle_always_correct() {
        let llm = SimLlm::new(SimLlmConfig::oracle(1), world(50));
        for i in 0..50 {
            let t = tuple(&format!("district {i}"), Value::Null);
            assert_eq!(
                llm.impute_cell(&t, "incumbent"),
                Value::text(format!("Person {i}"))
            );
        }
    }

    #[test]
    fn knowledge_reliability_calibrates_accuracy() {
        let llm = SimLlm::new(
            SimLlmConfig {
                knowledge_reliability: 0.52,
                ..SimLlmConfig::default()
            },
            world(600),
        );
        let correct = (0..600)
            .filter(|i| {
                let t = tuple(&format!("district {i}"), Value::Null);
                llm.impute_cell(&t, "incumbent") == Value::text(format!("Person {i}"))
            })
            .count();
        let acc = correct as f64 / 600.0;
        assert!(
            (0.44..0.60).contains(&acc),
            "ungrounded accuracy {acc} far from 0.52"
        );
    }

    #[test]
    fn wrong_answers_are_plausible_domain_values() {
        let llm = SimLlm::new(
            SimLlmConfig {
                knowledge_reliability: 0.0,
                ..SimLlmConfig::default()
            },
            world(20),
        );
        let t = tuple("district 3", Value::Null);
        let v = llm.impute_cell(&t, "incumbent");
        assert_ne!(v, Value::text("Person 3"));
        // Drawn from the attribute domain, not fabricated.
        let s = v.to_string();
        assert!(s.starts_with("Person "), "unexpected hallucination: {s}");
    }

    #[test]
    fn complete_table_fills_all_nans() {
        let llm = SimLlm::new(SimLlmConfig::default(), world(10));
        let mut table = Table::new(5, "elections", schema(), 0);
        table
            .push_row(vec![Value::text("district 1"), Value::Null])
            .unwrap();
        table
            .push_row(vec![Value::text("district 2"), Value::text("Known Person")])
            .unwrap();
        let (done, transcript) = llm.complete_table(&table);
        assert!(!done.cell(0, 1).unwrap().is_null());
        assert_eq!(done.cell(1, 1).unwrap(), &Value::text("Known Person"));
        assert_eq!(transcript.messages.len(), 2);
        assert!(transcript.messages[0].content.contains("NaN"));
    }

    #[test]
    fn unaided_judgment_accuracy_near_config() {
        let llm = SimLlm::new(SimLlmConfig::default(), WorldModel::new());
        let correct = (0..1000)
            .filter(|i| {
                let label = i % 2 == 0;
                llm.judge_claim_unaided(&format!("claim number {i}"), label) == label
            })
            .count();
        let acc = correct as f64 / 1000.0;
        assert!(
            (0.48..0.60).contains(&acc),
            "unaided accuracy {acc} far from 0.54"
        );
    }

    #[test]
    fn chance_extremes() {
        let llm = SimLlm::new(SimLlmConfig::default(), WorldModel::new());
        assert!(!llm.chance(&[1], 0.0));
        assert!(llm.chance(&[1], 1.0));
    }

    #[test]
    fn entity_key_uses_key_columns_only() {
        let t = tuple("New York 1", Value::text("Otis Pike"));
        assert_eq!(entity_key(&t), "new york 1");
    }

    /// `entity_key` as it was before it wrote in place: every key value
    /// rendered, normalized on its own, and the parts joined.
    fn joined_entity_key(tuple: &Tuple) -> String {
        let parts: Vec<String> = tuple
            .key_values()
            .iter()
            .map(|v| normalize_str(&v.to_string()))
            .collect();
        parts.join(" ")
    }

    use proptest::prelude::*;

    proptest! {
        /// The key written in place is the joined one: over key and non-key
        /// columns in any order, text that normalizes to nothing or carries
        /// separators at its ends, and non-text keys.
        #[test]
        fn entity_key_equals_the_joined_parts(
            cells in proptest::collection::vec(
                (
                    any::<bool>(),
                    prop_oneof![
                        "[a-zA-Z0-9 .,-]{0,8}".prop_map(Value::Text),
                        Just(Value::text("-- ")),
                        Just(Value::text("İx. ")),
                        (-100i64..100).prop_map(Value::Int),
                        Just(Value::Float(-2.5)),
                        Just(Value::Null),
                    ],
                ),
                0..5,
            ),
        ) {
            let columns = cells
                .iter()
                .enumerate()
                .map(|(i, (key, _))| {
                    let name = format!("c{i}");
                    if *key {
                        Column::key(name, DataType::Text)
                    } else {
                        Column::new(name, DataType::Text)
                    }
                })
                .collect();
            let tuple = Tuple {
                id: 0,
                table: 0,
                row_index: 0,
                schema: Schema::new(columns),
                values: cells.into_iter().map(|(_, v)| v).collect(),
                source: 0,
            };
            prop_assert_eq!(entity_key(&tuple), joined_entity_key(&tuple));
        }
    }
}
