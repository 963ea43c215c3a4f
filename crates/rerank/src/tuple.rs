//! RetClean-style (tuple, tuple) reranking.
//!
//! When the generated object is an imputed tuple cell and the candidate
//! evidence is a tuple, relevance is structural: do the schemas overlap, do the
//! key values agree, and do the remaining attributes corroborate each other?
//! This mirrors the (tuple, tuple) reranking RetClean performs before its
//! RoBERTa verifier.

use std::borrow::Cow;

use crate::{Candidate, Prepared, Reranker};
use verifai_embed::{kernel, TupleEmbedder, Vector};
use verifai_lake::{InstanceRef, MatchKey, Schema, TupleRef, Value};
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

/// The evidence side of (tuple, tuple) reranking, one boxed slice per
/// tuple: the [`MatchKey`] of each non-null cell in column order
/// ([`MatchKey::ENCODED_LEN`] bytes each; a null cell has none), then the
/// tuple embedding's feature records ([`TupleEmbedder::append_features`]).
/// Scoring a candidate then reads its keys instead of normalizing its
/// texts, and replays its records instead of hashing its features.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedTuple {
    bytes: Box<[u8]>,
}

impl PreparedTuple {
    /// Heap bytes held.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Split into the keys of the `values` this was prepared from, written
    /// into `keys` (one per cell, [`MatchKey::Null`] for a null), and the
    /// feature records.
    fn read<'p>(&'p self, values: &[Value], keys: &mut Vec<MatchKey>) -> &'p [u8] {
        keys.clear();
        let mut at = 0;
        for value in values {
            keys.push(if value.is_null() {
                MatchKey::Null
            } else {
                let encoded = &self.bytes[at..at + MatchKey::ENCODED_LEN];
                at += MatchKey::ENCODED_LEN;
                MatchKey::decode(encoded.try_into().expect("a whole key"))
            });
        }
        &self.bytes[at..]
    }

    /// The feature records alone.
    fn features(&self, values: &[Value]) -> &[u8] {
        let keyed = values.iter().filter(|v| !v.is_null()).count();
        &self.bytes[keyed * MatchKey::ENCODED_LEN..]
    }
}

/// A tuple's cells with their [`MatchKey`]s, index for index.
type Keyed<'a> = (&'a [Value], &'a [MatchKey]);

/// What the query's schema and one candidate schema have to do with each
/// other — everything about a (tuple, tuple) pair that does not depend on
/// the values. It is a function of the two lists of normalized headers
/// alone, tuples of one table share its [`Schema`], and the tables a
/// request's candidates come from mostly share their headers, so this is
/// computed once per distinct candidate header list of a request, not once
/// per pair.
struct SchemaAlignment {
    /// Jaccard similarity of the two normalized, non-empty header sets.
    header_jaccard: f64,
    /// For each query column, the candidate column its header binds to
    /// (exact normalized match first, then containment either way).
    columns: Vec<Option<usize>>,
}

impl SchemaAlignment {
    fn new(query: &Schema, candidate: &Schema) -> SchemaAlignment {
        let (ours, theirs) = (query.normalized_names(), candidate.normalized_names());
        let (a, b) = (header_set(ours).count(), header_set(theirs).count());
        let header_jaccard = if a == 0 && b == 0 {
            1.0
        } else {
            let shared = header_set(ours)
                .filter(|name| theirs.contains(name))
                .count();
            shared as f64 / (a + b - shared) as f64
        };
        SchemaAlignment {
            header_jaccard,
            columns: ours
                .iter()
                .map(|name| candidate.fuzzy_index_of_normalized(name))
                .collect(),
        }
    }

    /// Fraction of aligned, mutually non-null attributes on which the two
    /// tuples agree; 0 when they share none.
    fn value_agreement(&self, query: Keyed<'_>, candidate: Keyed<'_>) -> f64 {
        let (mut shared, mut agree) = (0usize, 0usize);
        for ((a, &ka), column) in query.0.iter().zip(query.1).zip(&self.columns) {
            let Some(column) = *column else { continue };
            let (b, kb) = (&candidate.0[column], candidate.1[column]);
            if a.is_null() || b.is_null() {
                continue;
            }
            shared += 1;
            if MatchKey::matches(a, ka, b, kb) {
                agree += 1;
            }
        }
        if shared == 0 {
            0.0
        } else {
            agree as f64 / shared as f64
        }
    }
}

/// A schema's header set: its distinct non-empty normalized names.
fn header_set(names: &[String]) -> impl Iterator<Item = &String> {
    names
        .iter()
        .enumerate()
        .filter(move |(i, name)| !name.is_empty() && !names[..*i].contains(name))
        .map(|(_, name)| name)
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

    /// The evidence side of one tuple: its cells' match keys and its
    /// embedding's feature records.
    pub fn prepare_tuple(&self, tuple: TupleRef<'_>) -> PreparedTuple {
        let mut bytes = Vec::new();
        for value in tuple.values {
            MatchKey::of(value).encode(&mut bytes);
        }
        self.embedder.append_features(tuple, &mut bytes);
        PreparedTuple {
            bytes: bytes.into_boxed_slice(),
        }
    }

    /// Clamped cosine between the request's query vector and a candidate
    /// whose feature records are replayed into `scratch`.
    fn dense(&self, query_dense: &Vector, records: &[u8], scratch: &mut Vector) -> f64 {
        self.embedder.replay_into(records, scratch);
        // Tuple embeddings are unit by construction: fused dot = cosine.
        (query_dense.dot_unit(scratch) as f64).max(0.0)
    }
}

impl Reranker for TupleReranker {
    /// Structural relevance of every tuple candidate. Per request: the query
    /// is embedded once and its cells' match keys computed once. Per
    /// distinct candidate header list: one [`SchemaAlignment`], found per
    /// candidate by schema identity. Per
    /// candidate: its prepared keys compared with the query's (values only
    /// where keys cannot decide) and a replay of its feature records. A
    /// candidate that comes without prepared features is prepared here,
    /// by [`TupleReranker::prepare_tuple`].
    fn score_all(&self, object: &DataObject, candidates: &[Candidate<'_>]) -> Vec<f64> {
        if !candidates.iter().any(|c| self.supports(c.evidence)) {
            return vec![0.0; candidates.len()];
        }
        let mut scratch = Vector::zeros(self.embedder.dim());
        let tuples: Vec<Option<(TupleRef<'_>, Cow<'_, PreparedTuple>)>> = candidates
            .iter()
            .map(|c| match c.evidence {
                InstanceRef::Tuple(candidate) => {
                    let prepared = match c.prepared {
                        Some(Prepared::Tuple(prepared)) => Cow::Borrowed(prepared),
                        _ => Cow::Owned(self.prepare_tuple(candidate)),
                    };
                    Some((candidate, prepared))
                }
                _ => None,
            })
            .collect();
        // Candidates lie scattered through the lake and the feature store:
        // each one's cells and prepared record are asked for two candidates
        // ahead of its turn.
        let tuples = tuples.iter().enumerate().map(|(i, tuple)| {
            if let Some(Some((ahead, prepared))) = tuples.get(i + 2) {
                kernel::prefetch(&prepared.bytes);
                kernel::prefetch(ahead.values);
            }
            tuple.as_ref()
        });
        match object {
            DataObject::ImputedCell(cell) => {
                let query = &cell.tuple;
                let query_dense = self.embedder.embed(query);
                let query_keys: Vec<MatchKey> = query.values.iter().map(MatchKey::of).collect();
                let query_side: Keyed<'_> = (&query.values, &query_keys);
                let mut key_columns = query.schema.key_indices();
                key_columns.retain(|&k| k < query.values.len());
                let mut candidate_keys = Vec::new();
                // One alignment per distinct header list of the request.
                let mut alignments: Vec<(&[String], SchemaAlignment)> = Vec::new();
                let w = &self.weights;
                tuples
                    .map(|tuple| {
                        let Some((candidate, prepared)) = tuple else {
                            return 0.0;
                        };
                        let records = prepared.read(candidate.values, &mut candidate_keys);
                        let candidate_side: Keyed<'_> = (candidate.values, &candidate_keys);
                        // Tuples of one table share its header list: the
                        // same slice, found without comparing a name.
                        let headers = candidate.schema.normalized_names();
                        let known = alignments
                            .iter()
                            .position(|(h, _)| std::ptr::eq(*h, headers) || *h == headers);
                        let index = known.unwrap_or_else(|| {
                            let alignment = SchemaAlignment::new(&query.schema, candidate.schema);
                            alignments.push((headers, alignment));
                            alignments.len() - 1
                        });
                        let alignment = &alignments[index].1;
                        let key = if key_columns.is_empty() {
                            0.0
                        } else {
                            key_columns
                                .iter()
                                .filter(|&&k| {
                                    let (k, kk) = (&query.values[k], query_keys[k]);
                                    candidate_side
                                        .0
                                        .iter()
                                        .zip(candidate_side.1)
                                        .any(|(v, &kv)| MatchKey::matches(v, kv, k, kk))
                                })
                                .count() as f64
                                / key_columns.len() as f64
                        };
                        w.schema * alignment.header_jaccard
                            + w.key * key
                            + w.agreement * alignment.value_agreement(query_side, candidate_side)
                            + w.dense * self.dense(&query_dense, records, &mut scratch)
                    })
                    .collect()
            }
            // (text, tuple): an extension pair — fall back to dense similarity
            // between the claim text and the candidate tuple.
            DataObject::TextClaim(claim) => {
                let query_dense = self.embedder.embed_text(&claim.text);
                tuples
                    .map(|tuple| match tuple {
                        Some((candidate, prepared)) => self.dense(
                            &query_dense,
                            prepared.features(candidate.values),
                            &mut scratch,
                        ),
                        None => 0.0,
                    })
                    .collect()
            }
        }
    }

    fn prepare(&self, evidence: InstanceRef<'_>, _serialized: Option<&str>) -> Option<Prepared> {
        match evidence {
            InstanceRef::Tuple(tuple) => Some(Prepared::Tuple(self.prepare_tuple(tuple))),
            _ => None,
        }
    }

    fn name(&self) -> &'static str {
        "retclean-tuple"
    }

    fn supports(&self, evidence: InstanceRef<'_>) -> bool {
        matches!(evidence, InstanceRef::Tuple(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use verifai_lake::{Column, DataInstance, DataType, Schema, Tuple, Value};
    use verifai_llm::ImputedCell;

    use crate::reference::tuple as oracle;

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
            // Prepared ahead, the candidates charge nothing: one query embed
            // for a cell, none for a claim — and not one bit of score moves.
            let features: Vec<Option<Prepared>> =
                evidence.iter().map(|e| r.prepare(e.view(), None)).collect();
            assert!(features[1].is_none(), "only tuples are prepared");
            let prepared: Vec<Candidate<'_>> = evidence
                .iter()
                .zip(&features)
                .map(|(e, f)| Candidate {
                    evidence: e.view(),
                    prepared: f.as_ref(),
                })
                .collect();
            let (scores, cost) = verifai_obs::meter::scoped(|| r.score_all(&obj, &prepared));
            assert_eq!(scores, per_pair);
            assert_eq!(cost.embeds, request_embeds - 3);
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

    fn wide_tuple(schema: &Schema, vals: Vec<Value>) -> Tuple {
        Tuple {
            id: 1,
            table: 1,
            row_index: 0,
            schema: schema.clone(),
            values: vals,
            source: 0,
        }
    }

    /// The hand-computed cases the lake's `header_jaccard` / `agreement`
    /// unit tests held, against the oracle and the per-schema alignment.
    #[test]
    fn alignment_matches_the_hand_computed_cases() {
        let s = schema();
        let text = |v: &str| Value::text(v);
        let a = wide_tuple(&s, vec![text("NY-1"), text("Otis Pike"), Value::Int(1960)]);
        let b = wide_tuple(
            &s,
            vec![text("NY-1"), text("Someone Else"), Value::Int(1960)],
        );
        let masked = wide_tuple(&s, vec![text("NY-1"), Value::Null, Value::Int(1960)]);
        let city = Schema::new(vec![Column::new("city", DataType::Text)]);
        let boston = wide_tuple(&city, vec![text("Boston")]);

        let agreement = |alignment: &SchemaAlignment, x: &Tuple, y: &Tuple| {
            let keys = |t: &Tuple| t.values.iter().map(MatchKey::of).collect::<Vec<_>>();
            let (kx, ky) = (keys(x), keys(y));
            alignment.value_agreement((&x.values, &kx), (&y.values, &ky))
        };
        let same = SchemaAlignment::new(&s, &s);
        assert_eq!(same.header_jaccard, 1.0);
        assert_eq!(oracle::header_jaccard(&s, &s), 1.0);
        assert_eq!(same.columns, vec![Some(0), Some(1), Some(2)]);
        // district + first elected agree, incumbent disagrees => 2/3.
        assert_eq!(agreement(&same, &a, &b), 2.0 / 3.0);
        assert_eq!(oracle::agreement(&a, &b), Some(2.0 / 3.0));
        // Nulls are not shared attributes.
        assert_eq!(agreement(&same, &masked, &b), 1.0);
        assert_eq!(oracle::agreement(&masked, &b), Some(1.0));

        let disjoint = SchemaAlignment::new(&s, &city);
        assert_eq!(disjoint.header_jaccard, 0.0);
        assert_eq!(oracle::header_jaccard(&s, &city), 0.0);
        assert_eq!(disjoint.columns, vec![None, None, None]);
        assert_eq!(agreement(&disjoint, &a, &boston), 0.0);
        assert_eq!(oracle::agreement(&a, &boston), None);
    }

    fn arb_schema() -> impl Strategy<Value = Schema> {
        // A three-letter alphabet with separators: duplicates, containment
        // ("a" in "a b"), all-punctuation and empty headers all turn up.
        proptest::collection::vec(("[a-cB _.]{0,4}", any::<bool>()), 0..5).prop_map(|cols| {
            Schema::new(
                cols.into_iter()
                    .map(|(name, key)| Column {
                        name,
                        dtype: DataType::Text,
                        is_key: key,
                    })
                    .collect(),
            )
        })
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            "[a-bA .]{0,3}".prop_map(Value::Text),
            (0i64..3).prop_map(Value::Int),
            Just(Value::text("1")),
            Just(Value::Float(1.0)),
        ]
    }

    proptest! {
        /// Every score of a request — candidates prepared ahead, on the
        /// spot, or mixed; candidate schemas shared with each other, with
        /// the query, or with nothing — has the bits of the old per-pair
        /// formula. Each request draws three schemas and deals them to
        /// seven tuples, so the per-schema alignment is reused and rebuilt
        /// within one call.
        #[test]
        fn request_scores_equal_the_per_pair_oracle_bit_for_bit(
            schemas in proptest::collection::vec(arb_schema(), 3..4),
            picks in proptest::collection::vec(0usize..3, 7..8),
            cells in proptest::collection::vec(arb_value(), 28..29),
        ) {
            // Schemas have at most four columns: tuple i takes its values
            // from the i-th run of four cells.
            let tuples: Vec<Tuple> = picks
                .iter()
                .enumerate()
                .map(|(i, &pick)| {
                    let schema = &schemas[pick];
                    let mut t = wide_tuple(schema, cells[4 * i..][..schema.arity()].to_vec());
                    t.id = i as u64;
                    t
                })
                .collect();
            let r = TupleReranker::with_defaults();
            let object = DataObject::ImputedCell(ImputedCell {
                id: 0,
                tuple: tuples[0].clone(),
                column: "a".into(),
                value: Value::text("a"),
            });
            let evidence: Vec<DataInstance> =
                tuples[1..].iter().cloned().map(DataInstance::Tuple).collect();
            let want: Vec<u64> = tuples[1..]
                .iter()
                .map(|c| oracle::score(&tuples[0], c).to_bits())
                .collect();
            let features: Vec<Option<Prepared>> =
                evidence.iter().map(|e| r.prepare(e.view(), None)).collect();
            for keep_every in [1, 2, usize::MAX] {
                let candidates: Vec<Candidate<'_>> = evidence
                    .iter()
                    .zip(&features)
                    .enumerate()
                    .map(|(i, (e, f))| Candidate {
                        evidence: e.view(),
                        prepared: f.as_ref().filter(|_| i % keep_every == 0),
                    })
                    .collect();
                let got: Vec<u64> = r
                    .score_all(&object, &candidates)
                    .into_iter()
                    .map(f64::to_bits)
                    .collect();
                prop_assert_eq!(&got, &want);
            }
        }
    }
}
