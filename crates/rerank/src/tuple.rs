//! RetClean-style (tuple, tuple) reranking.
//!
//! When the generated object is an imputed tuple cell and the candidate
//! evidence is a tuple, relevance is structural: do the schemas overlap, do the
//! key values agree, and do the remaining attributes corroborate each other?
//! This mirrors the (tuple, tuple) reranking RetClean performs before its
//! RoBERTa verifier.

use crate::{Candidate, Reranker};
use verifai_embed::{TupleEmbedder, Vector};
use verifai_lake::{DataInstance, Tuple, Value};
use verifai_llm::DataObject;

/// Weights of the structural signals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TupleRerankWeights {
    /// Jaccard similarity of normalized header sets.
    pub schema: f64,
    /// Fraction of the query tuple's key values found in the candidate.
    pub key: f64,
    /// Agreement on shared non-null attributes.
    pub agreement: f64,
    /// Dense cosine between tuple embeddings.
    pub dense: f64,
}

impl Default for TupleRerankWeights {
    fn default() -> Self {
        TupleRerankWeights {
            schema: 0.15,
            key: 0.45,
            agreement: 0.25,
            dense: 0.15,
        }
    }
}

/// The (tuple, tuple) reranker.
#[derive(Debug)]
pub struct TupleReranker {
    weights: TupleRerankWeights,
    embedder: TupleEmbedder,
}

impl TupleReranker {
    /// Reranker with explicit weights and embedder.
    pub fn new(weights: TupleRerankWeights, embedder: TupleEmbedder) -> TupleReranker {
        TupleReranker { weights, embedder }
    }

    /// Default configuration.
    pub fn with_defaults() -> TupleReranker {
        TupleReranker::new(
            TupleRerankWeights::default(),
            TupleEmbedder::new(256, 0x07e1),
        )
    }

    /// Structural relevance of `candidate` to `query`, whose embedding the
    /// caller computed once for the whole request.
    fn score_tuples(
        &self,
        query: &Tuple,
        keys: &[&Value],
        query_dense: &Vector,
        candidate: &Tuple,
    ) -> f64 {
        let w = &self.weights;
        let schema = query.schema.header_jaccard(&candidate.schema);
        let key = if keys.is_empty() {
            0.0
        } else {
            keys.iter()
                .filter(|k| candidate.values.iter().any(|v| v.matches(k)))
                .count() as f64
                / keys.len() as f64
        };
        let agreement = query.agreement(candidate).unwrap_or(0.0);
        w.schema * schema
            + w.key * key
            + w.agreement * agreement
            + w.dense * self.dense(query_dense, candidate)
    }

    /// Clamped cosine between the request's query vector and a candidate.
    /// The candidate is embedded here, per request: tuple vectors are the
    /// one evidence feature *not* prepared ahead (DESIGN.md §18 — a
    /// 256-dim f32 per tuple would outweigh every other stored feature).
    fn dense(&self, query_dense: &Vector, candidate: &Tuple) -> f64 {
        // Tuple embeddings are unit by construction: fused dot = cosine.
        (query_dense.dot_unit(&self.embedder.embed(candidate)) as f64).max(0.0)
    }
}

impl Reranker for TupleReranker {
    fn score_all(&self, object: &DataObject, candidates: &[Candidate<'_>]) -> Vec<f64> {
        if !candidates.iter().any(|c| self.supports(c.evidence)) {
            return vec![0.0; candidates.len()];
        }
        let (query_dense, keys) = match object {
            DataObject::ImputedCell(cell) => {
                (self.embedder.embed(&cell.tuple), cell.tuple.key_values())
            }
            // (text, tuple): an extension pair — fall back to dense similarity
            // between the claim text and the candidate tuple.
            DataObject::TextClaim(c) => (self.embedder.embed_text(&c.text), Vec::new()),
        };
        candidates
            .iter()
            .map(|c| match (object, c.evidence) {
                (DataObject::ImputedCell(cell), DataInstance::Tuple(candidate)) => {
                    self.score_tuples(&cell.tuple, &keys, &query_dense, candidate)
                }
                (DataObject::TextClaim(_), DataInstance::Tuple(candidate)) => {
                    self.dense(&query_dense, candidate)
                }
                _ => 0.0,
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "retclean-tuple"
    }

    fn supports(&self, evidence: &DataInstance) -> bool {
        matches!(evidence, DataInstance::Tuple(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai_lake::{Column, DataType, Schema, Value};
    use verifai_llm::ImputedCell;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::key("district", DataType::Text),
            Column::new("incumbent", DataType::Text),
            Column::new("first elected", DataType::Int),
        ])
    }

    fn tuple(id: u64, district: &str, incumbent: &str, year: i64) -> Tuple {
        Tuple {
            id,
            table: 0,
            row_index: 0,
            schema: schema(),
            values: vec![
                Value::text(district),
                Value::text(incumbent),
                Value::Int(year),
            ],
            source: 0,
        }
    }

    fn object() -> DataObject {
        DataObject::ImputedCell(ImputedCell {
            id: 0,
            tuple: Tuple {
                id: 0,
                table: 0,
                row_index: 0,
                schema: schema(),
                values: vec![Value::text("New York 1"), Value::Null, Value::Int(1960)],
                source: 0,
            },
            column: "incumbent".into(),
            value: Value::text("Otis Pike"),
        })
    }

    #[test]
    fn counterpart_outranks_same_schema_other_entity() {
        let r = TupleReranker::with_defaults();
        let counterpart = DataInstance::Tuple(tuple(1, "New York 1", "Otis Pike", 1960));
        let other = DataInstance::Tuple(tuple(2, "Ohio 5", "Someone Else", 1958));
        let obj = object();
        assert!(r.score(&obj, &counterpart) > r.score(&obj, &other) + 0.3);
    }

    #[test]
    fn same_entity_different_schema_still_scores() {
        let r = TupleReranker::with_defaults();
        let mut foreign = tuple(3, "New York 1", "Otis Pike", 1960);
        foreign.schema = Schema::new(vec![
            Column::key("constituency", DataType::Text),
            Column::new("member", DataType::Text),
            Column::new("since", DataType::Int),
        ]);
        let obj = object();
        let s = r.score(&obj, &DataInstance::Tuple(foreign));
        assert!(s > 0.3, "cross-schema same-entity score too low: {s}");
    }

    /// One request embeds the query once and every candidate once — not
    /// both sides of every pair — and scores exactly as the per-pair
    /// reference does, for cell and claim objects alike.
    #[test]
    fn request_scores_equal_per_pair_scores_with_one_query_embed() {
        let r = TupleReranker::with_defaults();
        let evidence = [
            DataInstance::Tuple(tuple(1, "New York 1", "Otis Pike", 1960)),
            DataInstance::Text(verifai_lake::TextDocument::new(9, "t", "b", 0)),
            DataInstance::Tuple(tuple(2, "Ohio 5", "Someone Else", 1958)),
            DataInstance::Tuple(tuple(3, "New York 1", "Otis G. Pike", 1960)),
        ];
        let claim = DataObject::TextClaim(verifai_llm::TextClaim {
            id: 0,
            text: "the incumbent of New York 1 is Otis Pike".into(),
            expr: None,
            scope: None,
        });
        // Three tuple candidates. `embed_text` (the claim side) is unmetered.
        for (obj, per_pair_embeds, request_embeds) in [(object(), 6, 4), (claim, 3, 3)] {
            let (per_pair, cost) = verifai_obs::meter::scoped(|| {
                evidence
                    .iter()
                    .map(|e| r.score(&obj, e))
                    .collect::<Vec<f64>>()
            });
            assert_eq!(cost.embeds, per_pair_embeds);
            let candidates: Vec<Candidate<'_>> =
                evidence.iter().map(Candidate::unprepared).collect();
            let (scores, cost) = verifai_obs::meter::scoped(|| r.score_all(&obj, &candidates));
            assert_eq!(scores, per_pair);
            assert_eq!(cost.embeds, request_embeds);
        }
    }

    #[test]
    fn non_tuple_evidence_scores_zero() {
        let r = TupleReranker::with_defaults();
        let doc = DataInstance::Text(verifai_lake::TextDocument::new(1, "t", "b", 0));
        assert_eq!(r.score(&object(), &doc), 0.0);
    }

    #[test]
    fn text_claim_against_tuple_uses_dense_path() {
        let r = TupleReranker::with_defaults();
        let claim = DataObject::TextClaim(verifai_llm::TextClaim {
            id: 0,
            text: "the incumbent of New York 1 is Otis Pike".into(),
            expr: None,
            scope: None,
        });
        let related = DataInstance::Tuple(tuple(1, "New York 1", "Otis Pike", 1960));
        let unrelated = DataInstance::Tuple(tuple(2, "Q3 revenue", "up 4 percent", 2021));
        assert!(r.score(&claim, &related) > r.score(&claim, &unrelated));
    }
}
