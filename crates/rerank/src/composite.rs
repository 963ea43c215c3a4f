//! Modality-routing composite reranker.
//!
//! The pipeline retrieves evidence of mixed modalities; each candidate is
//! routed to the first reranker whose [`Reranker::supports`] claims its
//! evidence modality, falling back to a generic reranker when no
//! specialist does — so adding a backend for a new modality is registering
//! one more trait object, not reopening a modality `match`. Routing looks at
//! the evidence alone, so [`Reranker::prepare`] routes exactly as scoring
//! will: an instance is prepared by the reranker that will later score it. Because scores from
//! different rerankers are not on a common scale, the composite normalizes
//! per-modality rankings into reciprocal ranks before merging — mirroring
//! how the Combiner fuses heterogeneous indexes.

use crate::colbert::ColbertReranker;
use crate::table::TableReranker;
use crate::tuple::TupleReranker;
use crate::{by_score_then_id, Candidate, Prepared, Reranker};
use verifai_lake::{DataInstance, InstanceKind, InstanceRef};
use verifai_llm::DataObject;

/// Routes each candidate to the first supporting reranker.
pub struct CompositeReranker {
    /// Specialists, consulted in registration order.
    specialists: Vec<Box<dyn Reranker>>,
    /// Generic reranker for pairs no specialist supports.
    fallback: Box<dyn Reranker>,
}

impl CompositeReranker {
    /// Composite over explicit specialists (first supporting one wins) and a
    /// generic fallback.
    pub fn new(
        specialists: Vec<Box<dyn Reranker>>,
        fallback: Box<dyn Reranker>,
    ) -> CompositeReranker {
        CompositeReranker {
            specialists,
            fallback,
        }
    }

    /// The default routing: RetClean-style tuple reranker for tuple
    /// evidence, OpenTFV-style table reranker for table evidence, ColBERT
    /// late interaction for everything else (texts and serialized
    /// knowledge-graph subgraphs — the paper lists a dedicated KG reranker
    /// as future work).
    pub fn with_defaults() -> CompositeReranker {
        CompositeReranker::new(
            vec![
                Box::new(TupleReranker::with_defaults()),
                Box::new(TableReranker::with_defaults()),
            ],
            Box::new(ColbertReranker::with_defaults()),
        )
    }

    /// The reranker evidence of this modality routes to.
    pub fn route(&self, evidence: InstanceRef<'_>) -> &dyn Reranker {
        self.member(self.route_index(evidence))
    }

    /// Index of the first supporting specialist; `specialists.len()` is the
    /// fallback.
    fn route_index(&self, evidence: InstanceRef<'_>) -> usize {
        self.specialists
            .iter()
            .position(|r| r.supports(evidence))
            .unwrap_or(self.specialists.len())
    }

    fn member(&self, index: usize) -> &dyn Reranker {
        self.specialists
            .get(index)
            .unwrap_or(&self.fallback)
            .as_ref()
    }

    /// Rerank a mixed-modality candidate set: score within each modality with
    /// the dedicated reranker, convert to reciprocal ranks, merge, keep top-k′.
    pub fn rerank_mixed(
        &self,
        object: &DataObject,
        candidates: Vec<DataInstance>,
        k_prime: usize,
    ) -> Vec<(DataInstance, f64)> {
        let views: Vec<Candidate<'_>> = candidates.iter().map(Candidate::unprepared).collect();
        let scores = self.score_all(object, &views);
        let mut by_kind: [Vec<(DataInstance, f64)>; 4] = Default::default();
        for (c, score) in candidates.into_iter().zip(scores) {
            let slot = match c.kind() {
                InstanceKind::Tuple => 0,
                InstanceKind::Table => 1,
                InstanceKind::Text => 2,
                InstanceKind::Kg => 3,
            };
            by_kind[slot].push((c, score));
        }
        let mut merged: Vec<(DataInstance, f64)> = Vec::new();
        let sort = |list: &mut Vec<(DataInstance, f64)>| {
            list.sort_by(|a, b| by_score_then_id((a.1, a.0.id()), (b.1, b.0.id())))
        };
        for list in by_kind.iter_mut() {
            sort(list);
            for (rank, (inst, _)) in list.drain(..).enumerate() {
                merged.push((inst, 1.0 / (rank as f64 + 1.0)));
            }
        }
        sort(&mut merged);
        merged.truncate(k_prime);
        merged
    }
}

impl Reranker for CompositeReranker {
    /// Each member scores, in one call, the candidates that route to it —
    /// so its query side runs once per request, not once per candidate.
    fn score_all(&self, object: &DataObject, candidates: &[Candidate<'_>]) -> Vec<f64> {
        let routes: Vec<usize> = candidates
            .iter()
            .map(|c| self.route_index(c.evidence))
            .collect();
        let mut scores = vec![0.0; candidates.len()];
        for index in 0..=self.specialists.len() {
            let routed: Vec<Candidate<'_>> = candidates
                .iter()
                .zip(&routes)
                .filter(|(_, route)| **route == index)
                .map(|(c, _)| *c)
                .collect();
            if routed.is_empty() {
                continue;
            }
            let mut scored = self.member(index).score_all(object, &routed).into_iter();
            for (score, _) in scores.iter_mut().zip(&routes).filter(|(_, r)| **r == index) {
                *score = scored.next().expect("one score per routed candidate");
            }
        }
        scores
    }

    fn prepare(&self, evidence: InstanceRef<'_>, serialized: Option<&str>) -> Option<Prepared> {
        self.route(evidence).prepare(evidence, serialized)
    }

    fn name(&self) -> &'static str {
        "composite"
    }
}

impl std::fmt::Debug for CompositeReranker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeReranker")
            .field(
                "specialists",
                &self
                    .specialists
                    .iter()
                    .map(|r| r.name())
                    .collect::<Vec<_>>(),
            )
            .field("fallback", &self.fallback.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai_lake::{Column, DataType, Schema, Table, TextDocument, Tuple, Value};
    use verifai_llm::{ImputedCell, TextClaim};

    fn object() -> DataObject {
        DataObject::ImputedCell(ImputedCell {
            id: 0,
            tuple: Tuple {
                id: 0,
                table: 0,
                row_index: 0,
                schema: Schema::new(vec![
                    Column::key("district", DataType::Text),
                    Column::new("incumbent", DataType::Text),
                ]),
                values: vec![Value::text("New York 1"), Value::Null],
                source: 0,
            },
            column: "incumbent".into(),
            value: Value::text("Otis Pike"),
        })
    }

    #[test]
    fn routes_by_modality() {
        let r = CompositeReranker::with_defaults();
        let obj = object();
        let tup = DataInstance::Tuple(Tuple {
            id: 1,
            table: 1,
            row_index: 0,
            schema: Schema::new(vec![
                Column::key("district", DataType::Text),
                Column::new("incumbent", DataType::Text),
            ]),
            values: vec![Value::text("New York 1"), Value::text("Otis Pike")],
            source: 0,
        });
        let txt = DataInstance::Text(TextDocument::new(
            2,
            "New York 1",
            "The incumbent of New York 1 is Otis Pike.",
            0,
        ));
        // Both should score positively through their dedicated rerankers.
        assert!(r.score(&obj, &tup) > 0.5);
        assert!(r.score(&obj, &txt) > 0.1);
    }

    #[test]
    fn mixed_rerank_interleaves_modalities() {
        let r = CompositeReranker::with_defaults();
        let claim = DataObject::TextClaim(TextClaim {
            id: 0,
            text: "in the championship, the points of Brown is 1".into(),
            expr: None,
            scope: None,
        });
        let mut table = Table::new(
            5,
            "championship",
            Schema::new(vec![
                Column::key("team", DataType::Text),
                Column::new("points", DataType::Int),
            ]),
            0,
        );
        table
            .push_row(vec![Value::text("Brown"), Value::Int(1)])
            .unwrap();
        let candidates = vec![
            DataInstance::Table(table),
            DataInstance::Text(TextDocument::new(7, "Brown", "Brown scored in 1959.", 0)),
            DataInstance::Text(TextDocument::new(8, "Zebra", "Nothing in common here.", 0)),
        ];
        let out = r.rerank_mixed(&claim, candidates, 2);
        assert_eq!(out.len(), 2);
        // Top of each modality gets reciprocal rank 1.0; both survive over the
        // unrelated doc.
        let kinds: Vec<InstanceKind> = out.iter().map(|(i, _)| i.kind()).collect();
        assert!(kinds.contains(&InstanceKind::Table));
        assert!(kinds.contains(&InstanceKind::Text));
    }

    #[test]
    fn empty_candidates() {
        let r = CompositeReranker::with_defaults();
        assert!(r.rerank_mixed(&object(), vec![], 5).is_empty());
    }

    #[test]
    fn routing_follows_supports() {
        let r = CompositeReranker::with_defaults();
        let obj = object();
        let tup = DataInstance::Tuple(Tuple {
            id: 1,
            table: 1,
            row_index: 0,
            schema: Schema::new(vec![Column::key("district", DataType::Text)]),
            values: vec![Value::text("New York 1")],
            source: 0,
        });
        let tab = DataInstance::Table(Table::new(2, "c", Schema::default(), 0));
        let txt = DataInstance::Text(TextDocument::new(3, "t", "body", 0));
        assert_eq!(r.route(tup.view()).name(), "retclean-tuple");
        assert_eq!(r.route(tab.view()).name(), "opentfv-table");
        // No specialist claims text: the generic fallback takes it.
        assert_eq!(r.route(txt.view()).name(), "colbert");

        // One request over all three, prepared or not, scores each pair
        // exactly as the per-pair reference does, in candidate order.
        let mixed = [txt, tup, tab];
        let per_pair: Vec<f64> = mixed.iter().map(|c| r.score(&obj, c)).collect();
        let unprepared: Vec<Candidate<'_>> = mixed.iter().map(Candidate::unprepared).collect();
        assert_eq!(r.score_all(&obj, &unprepared), per_pair);
        let features: Vec<Option<Prepared>> =
            mixed.iter().map(|c| r.prepare(c.view(), None)).collect();
        assert!(matches!(features[0], Some(Prepared::Tokens(_))));
        assert!(matches!(features[1], Some(Prepared::Tuple(_))));
        assert!(matches!(features[2], Some(Prepared::Table(_))));
        let prepared: Vec<Candidate<'_>> = mixed
            .iter()
            .zip(&features)
            .map(|(evidence, f)| Candidate {
                evidence: evidence.view(),
                prepared: f.as_ref(),
            })
            .collect();
        assert_eq!(r.score_all(&obj, &prepared), per_pair);
    }
}
