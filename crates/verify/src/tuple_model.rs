//! The local (tuple, tuple) verifier — RetClean's fine-tuned RoBERTa stand-in.
//!
//! The paper reports this local model's accuracy as "comparable to ChatGPT" on
//! (tuple, tuple) verification, with the advantage that sensitive tuples never
//! leave the premises. Our stand-in performs schema-aligned value comparison
//! with normalized matching, plus a small residual error channel.

use crate::{Verifier, VerifierOutput};
use verifai_embed::hashing::{splitmix64, unit_float};
use verifai_lake::{InstanceRef, TupleRef};
use verifai_llm::{DataObject, ImputedCell, Verdict};

/// Behavioural knobs of the local tuple model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TupleModelConfig {
    /// Residual classification error on related evidence.
    pub error_rate: f64,
    /// Minimum fraction of the object's key values the evidence must contain
    /// before the pair counts as related.
    pub key_match_threshold: f64,
    /// Seed for hash-derived draws.
    pub seed: u64,
}

impl Default for TupleModelConfig {
    fn default() -> Self {
        TupleModelConfig {
            error_rate: 0.07,
            key_match_threshold: 1.0,
            seed: 0x20be,
        }
    }
}

/// The local (tuple, tuple) verification model.
#[derive(Debug, Clone)]
pub struct TupleModelVerifier {
    config: TupleModelConfig,
}

impl TupleModelVerifier {
    /// Model with the given configuration.
    pub fn new(config: TupleModelConfig) -> TupleModelVerifier {
        TupleModelVerifier { config }
    }

    /// Model with defaults.
    pub fn with_defaults() -> TupleModelVerifier {
        TupleModelVerifier::new(TupleModelConfig::default())
    }

    fn chance(&self, tags: &[u64], p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let mut h = self.config.seed;
        for &t in tags {
            h = splitmix64(h ^ t.wrapping_mul(0x9e3779b97f4a7c15));
        }
        unit_float(h) < p
    }

    /// Classify one (imputed cell, evidence tuple) pair.
    pub fn classify<'a>(&self, cell: &ImputedCell, evidence: impl Into<TupleRef<'a>>) -> Verdict {
        let evidence = evidence.into();
        let tags = [cell.id, evidence.id, 0x7e];
        let keys = cell.tuple.key_values();
        let matched = keys
            .iter()
            .filter(|k| evidence.values.iter().any(|v| v.matches(k)))
            .count();
        let related = !keys.is_empty()
            && matched as f64 / keys.len() as f64 >= self.config.key_match_threshold;
        if !related {
            return Verdict::NotRelated;
        }
        match evidence.get_fuzzy(&cell.column) {
            Some(actual) if !actual.is_null() => {
                let base = if actual.matches(&cell.value) {
                    Verdict::Verified
                } else {
                    Verdict::Refuted
                };
                if self.chance(&tags, self.config.error_rate) {
                    match base {
                        Verdict::Verified => Verdict::Refuted,
                        Verdict::Refuted => Verdict::Verified,
                        Verdict::NotRelated | Verdict::Unknown => base,
                    }
                } else {
                    base
                }
            }
            _ => Verdict::NotRelated,
        }
    }
}

impl Verifier for TupleModelVerifier {
    fn name(&self) -> &'static str {
        "roberta-tuple"
    }

    fn supports(&self, object: &DataObject, evidence: InstanceRef<'_>) -> bool {
        matches!(
            (object, evidence),
            (DataObject::ImputedCell(_), InstanceRef::Tuple(_))
        )
    }

    fn verify(&self, object: &DataObject, evidence: InstanceRef<'_>) -> VerifierOutput {
        let (DataObject::ImputedCell(cell), InstanceRef::Tuple(t)) = (object, evidence) else {
            return VerifierOutput {
                verdict: Verdict::NotRelated,
                explanation: "The tuple model only handles (tuple, tuple) pairs.".to_string(),
            };
        };
        let verdict = self.classify(cell, t);
        VerifierOutput {
            verdict,
            explanation: format!(
                "Local tuple model compared the generated {} against evidence tuple {}.",
                cell.column, t.id
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai_lake::{Column, DataInstance, DataType, Schema, Tuple, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::key("district", DataType::Text),
            Column::new("incumbent", DataType::Text),
        ])
    }

    fn cell(value: &str) -> ImputedCell {
        ImputedCell {
            id: 1,
            tuple: Tuple {
                id: 0,
                table: 0,
                row_index: 0,
                schema: schema(),
                values: vec![Value::text("NY-1"), Value::Null],
                source: 0,
            },
            column: "incumbent".into(),
            value: Value::text(value),
        }
    }

    fn evidence(id: u64, district: &str, incumbent: &str) -> Tuple {
        Tuple {
            id,
            table: 1,
            row_index: 0,
            schema: schema(),
            values: vec![Value::text(district), Value::text(incumbent)],
            source: 0,
        }
    }

    #[test]
    fn classification_matrix() {
        let m = TupleModelVerifier::new(TupleModelConfig {
            error_rate: 0.0,
            ..Default::default()
        });
        let c = cell("Otis Pike");
        assert_eq!(
            m.classify(&c, &evidence(1, "NY-1", "Otis Pike")),
            Verdict::Verified
        );
        assert_eq!(
            m.classify(&c, &evidence(2, "NY-1", "Another Name")),
            Verdict::Refuted
        );
        assert_eq!(
            m.classify(&c, &evidence(3, "OH-5", "Otis Pike")),
            Verdict::NotRelated
        );
    }

    #[test]
    fn normalized_value_matching() {
        let m = TupleModelVerifier::new(TupleModelConfig {
            error_rate: 0.0,
            ..Default::default()
        });
        let c = cell("otis   PIKE");
        assert_eq!(
            m.classify(&c, &evidence(1, "NY-1", "Otis Pike")),
            Verdict::Verified
        );
    }

    #[test]
    fn error_rate_calibration() {
        let m = TupleModelVerifier::new(TupleModelConfig {
            error_rate: 0.2,
            ..Default::default()
        });
        let wrong = (0..500)
            .filter(|&i| {
                let mut c = cell("Otis Pike");
                c.id = i;
                m.classify(&c, &evidence(1, "NY-1", "Otis Pike")) != Verdict::Verified
            })
            .count();
        let rate = wrong as f64 / 500.0;
        assert!(
            (0.13..0.27).contains(&rate),
            "error rate {rate} far from 0.2"
        );
    }

    #[test]
    fn missing_attribute_is_not_related() {
        let m = TupleModelVerifier::with_defaults();
        let c = cell("Otis Pike");
        let mut e = evidence(1, "NY-1", "x");
        e.schema = Schema::new(vec![
            Column::key("district", DataType::Text),
            Column::new("party", DataType::Text),
        ]);
        assert_eq!(m.classify(&c, &e), Verdict::NotRelated);
    }

    #[test]
    fn supports_only_cell_tuple() {
        let m = TupleModelVerifier::with_defaults();
        let obj = DataObject::ImputedCell(cell("x"));
        assert!(m.supports(&obj, DataInstance::Tuple(evidence(1, "a", "b")).view()));
        let doc = DataInstance::Text(verifai_lake::TextDocument::new(1, "t", "b", 0));
        assert!(!m.supports(&obj, doc.view()));
    }
}
