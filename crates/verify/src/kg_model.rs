//! The local knowledge-graph verifier — the §5 extension the paper calls for:
//! "a promising direction is to develop local models that are specifically
//! trained for certain use cases, such as (text, knowledge graph entity)".
//!
//! A KG subgraph is the cleanest evidence modality: the disputed fact either is
//! or is not an asserted triple. The local model therefore needs no language
//! understanding beyond predicate binding — it matches the generated object's
//! subject/attribute against the subgraph and compares objects, with a small
//! residual error channel for predicate-binding mistakes.

use crate::{Verifier, VerifierOutput};
use verifai_claims::{parse_claim, ClaimExpr};
use verifai_embed::hashing::{splitmix64, unit_float};
use verifai_lake::{InstanceRef, KgEntity};
use verifai_llm::{entity_key, DataObject, ImputedCell, TextClaim, Verdict};

/// Behavioural knobs of the local KG model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KgModelConfig {
    /// Residual error when comparing a bound triple's object against the
    /// generated value (predicate-binding slips on near-synonym relations).
    pub binding_error_rate: f64,
    /// Seed for hash-derived draws.
    pub seed: u64,
}

impl Default for KgModelConfig {
    fn default() -> Self {
        KgModelConfig {
            binding_error_rate: 0.04,
            seed: 0x6b9,
        }
    }
}

/// The local (object, knowledge-graph entity) verification model.
#[derive(Debug, Clone)]
pub struct KgModelVerifier {
    config: KgModelConfig,
}

impl KgModelVerifier {
    /// Model with the given configuration.
    pub fn new(config: KgModelConfig) -> KgModelVerifier {
        KgModelVerifier { config }
    }

    /// Model with defaults.
    pub fn with_defaults() -> KgModelVerifier {
        KgModelVerifier::new(KgModelConfig::default())
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

    fn flip_if_noise(&self, base: Verdict, tags: &[u64]) -> Verdict {
        if base != Verdict::NotRelated && self.chance(tags, self.config.binding_error_rate) {
            match base {
                Verdict::Verified => Verdict::Refuted,
                Verdict::Refuted => Verdict::Verified,
                Verdict::NotRelated | Verdict::Unknown => base,
            }
        } else {
            base
        }
    }

    /// Classify an imputed cell against a subgraph.
    pub fn classify_cell(&self, cell: &ImputedCell, entity: &KgEntity) -> Verdict {
        let tags = [cell.id, entity.id, 0x6b];
        if !entity.is_about(&entity_key(&cell.tuple)) {
            return Verdict::NotRelated;
        }
        match entity.object_of(&cell.column) {
            Some(object) if !object.is_null() => {
                let base = if object.matches(&cell.value) {
                    Verdict::Verified
                } else {
                    Verdict::Refuted
                };
                self.flip_if_noise(base, &tags)
            }
            _ => Verdict::NotRelated,
        }
    }

    /// Classify a textual claim against a subgraph (lookup claims only; a
    /// single subgraph cannot evaluate table-level aggregates).
    pub fn classify_claim(&self, claim: &TextClaim, entity: &KgEntity) -> Verdict {
        let tags = [claim.id, entity.id, 0x6c];
        let Some(ClaimExpr::Lookup {
            key,
            column,
            op,
            value,
            ..
        }) = claim.expr.clone().or_else(|| parse_claim(&claim.text))
        else {
            return Verdict::NotRelated;
        };
        if !entity.is_about(&key.to_string()) {
            return Verdict::NotRelated;
        }
        match entity.object_of(&column) {
            Some(object) if !object.is_null() => {
                let base = if op.eval(object, &value) {
                    Verdict::Verified
                } else {
                    Verdict::Refuted
                };
                self.flip_if_noise(base, &tags)
            }
            _ => Verdict::NotRelated,
        }
    }
}

impl Verifier for KgModelVerifier {
    fn name(&self) -> &'static str {
        "kg-local"
    }

    fn supports(&self, _object: &DataObject, evidence: InstanceRef<'_>) -> bool {
        matches!(evidence, InstanceRef::Kg(_))
    }

    fn verify(&self, object: &DataObject, evidence: InstanceRef<'_>) -> VerifierOutput {
        let InstanceRef::Kg(entity) = evidence else {
            return VerifierOutput {
                verdict: Verdict::NotRelated,
                explanation: "The KG model only handles knowledge-graph evidence.".to_string(),
            };
        };
        let verdict = match object {
            DataObject::ImputedCell(cell) => self.classify_cell(cell, entity),
            DataObject::TextClaim(claim) => self.classify_claim(claim, entity),
        };
        VerifierOutput {
            verdict,
            explanation: format!(
                "Local KG model checked the generated data against the subgraph of '{}' \
                 ({} triples).",
                entity.name,
                entity.triples.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai_lake::{Column, DataInstance, DataType, Schema, Tuple, Value};

    fn subgraph() -> KgEntity {
        let mut e = KgEntity::new(7, "New York 3", 0);
        e.assert_fact("incumbent", Value::text("James Pike"));
        e.assert_fact("first elected", Value::Int(1940));
        e
    }

    fn cell(district: &str, value: &str) -> ImputedCell {
        ImputedCell {
            id: 1,
            tuple: Tuple {
                id: 0,
                table: 0,
                row_index: 0,
                schema: Schema::new(vec![
                    Column::key("district", DataType::Text),
                    Column::new("incumbent", DataType::Text),
                ]),
                values: vec![Value::text(district), Value::Null],
                source: 0,
            },
            column: "incumbent".into(),
            value: Value::text(value),
        }
    }

    #[test]
    fn cell_classification_matrix() {
        let m = KgModelVerifier::new(KgModelConfig {
            binding_error_rate: 0.0,
            ..Default::default()
        });
        let e = subgraph();
        assert_eq!(
            m.classify_cell(&cell("New York 3", "James Pike"), &e),
            Verdict::Verified
        );
        assert_eq!(
            m.classify_cell(&cell("New York 3", "Nobody Real"), &e),
            Verdict::Refuted
        );
        assert_eq!(
            m.classify_cell(&cell("Ohio 5", "James Pike"), &e),
            Verdict::NotRelated
        );
        // Attribute absent from the subgraph.
        let mut c = cell("New York 3", "x");
        c.column = "party".into();
        assert_eq!(m.classify_cell(&c, &e), Verdict::NotRelated);
    }

    #[test]
    fn claim_classification_uses_lookup_semantics() {
        let m = KgModelVerifier::new(KgModelConfig {
            binding_error_rate: 0.0,
            ..Default::default()
        });
        let e = subgraph();
        let claim = |text: &str| TextClaim {
            id: 0,
            text: text.into(),
            expr: None,
            scope: None,
        };
        assert_eq!(
            m.classify_claim(
                &claim("in the c, the incumbent of New York 3 is James Pike"),
                &e
            ),
            Verdict::Verified
        );
        assert_eq!(
            m.classify_claim(
                &claim("in the c, the first elected of New York 3 is greater than 1935"),
                &e
            ),
            Verdict::Verified
        );
        assert_eq!(
            m.classify_claim(
                &claim("in the c, the incumbent of New York 3 is Jane Roe"),
                &e
            ),
            Verdict::Refuted
        );
        // Aggregate claims are out of scope for a single subgraph.
        assert_eq!(
            m.classify_claim(&claim("in the c, the total points is 12"), &e),
            Verdict::NotRelated
        );
    }

    #[test]
    fn supports_only_kg_evidence() {
        let m = KgModelVerifier::with_defaults();
        let obj = DataObject::ImputedCell(cell("New York 3", "x"));
        assert!(m.supports(&obj, DataInstance::Kg(subgraph()).view()));
        let doc = DataInstance::Text(verifai_lake::TextDocument::new(1, "t", "b", 0));
        assert!(!m.supports(&obj, doc.view()));
    }

    #[test]
    fn noise_channel_is_deterministic() {
        let m = KgModelVerifier::new(KgModelConfig {
            binding_error_rate: 1.0,
            ..Default::default()
        });
        let e = subgraph();
        let v1 = m.classify_cell(&cell("New York 3", "James Pike"), &e);
        assert_eq!(v1, Verdict::Refuted); // flipped
        assert_eq!(m.classify_cell(&cell("New York 3", "James Pike"), &e), v1);
    }
}
