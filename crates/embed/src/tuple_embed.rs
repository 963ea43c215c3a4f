//! Tuple embeddings (the tuple-to-vec / RPT substitute).
//!
//! A tuple is embedded from *header-qualified* value features (`incumbent=otis`)
//! plus bare value features, so that tuples sharing the same attribute/value
//! structure land close even when the surrounding tables differ — the property
//! tuple-to-vec models are trained for.

use std::fmt::Write;

use crate::hashing::{coord_and_sign, fnv1a, probe_hash};
use crate::vector::Vector;
use verifai_lake::TupleRef;
use verifai_text::Analyzer;

/// The three feature kinds of a tuple embedding. A feature's weight depends
/// on its kind alone, so a stored feature is a hash and one of these.
#[derive(Debug, Clone, Copy)]
enum FeatureKind {
    /// Header-qualified value term (`incumbent=otis`): binds value to attribute.
    Qualified = 0,
    /// Bare value term: enables cross-schema matches.
    Bare = 1,
    /// Header presence (`col:incumbent`): schema similarity signal.
    Header = 2,
}

/// Accumulation weight of each [`FeatureKind`], by discriminant.
const WEIGHTS: [f32; 3] = [1.0, 0.6, 0.4];

/// The hashed features of one tuple (or text), in accumulation order: what
/// is left of the strings once analysis and hashing are done. Each feature is
/// nine bytes — its seeded FNV-1a base hash and its kind — and replaying them
/// through [`TupleEmbedder::embed_features`] performs exactly the float
/// additions [`TupleEmbedder::embed`] would, on the same coordinates in the
/// same order. Only meaningful to an embedder with the seed that hashed them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TupleFeatures {
    /// `RECORD`-byte records: little-endian base hash, then the kind.
    records: Box<[u8]>,
}

impl TupleFeatures {
    const RECORD: usize = 9;

    /// Number of features.
    pub fn len(&self) -> usize {
        self.records.len() / Self::RECORD
    }

    /// True when the tuple had no non-null cell (or the text no term).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Heap bytes held.
    pub fn heap_bytes(&self) -> usize {
        self.records.len()
    }

    /// (base hash, weight) of every feature, in accumulation order.
    fn iter(&self) -> impl Iterator<Item = (u64, f32)> + '_ {
        self.records.chunks_exact(Self::RECORD).map(|record| {
            let base: [u8; 8] = record[..8].try_into().expect("eight hash bytes");
            (u64::from_le_bytes(base), WEIGHTS[record[8] as usize])
        })
    }
}

/// Tuple-to-vector encoder.
#[derive(Debug, Clone)]
pub struct TupleEmbedder {
    dim: usize,
    seed: u64,
    probes: u32,
    analyzer: Analyzer,
}

impl TupleEmbedder {
    /// Encoder with the given dimension and seed.
    pub fn new(dim: usize, seed: u64) -> TupleEmbedder {
        // Four probes per feature keep the variance of spurious (collision)
        // similarity low even for tuples with only a handful of features.
        TupleEmbedder {
            dim,
            seed,
            probes: 4,
            analyzer: Analyzer::standard(),
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embed a tuple. Null cells contribute nothing.
    pub fn embed<'a>(&self, tuple: impl Into<TupleRef<'a>>) -> Vector {
        self.embed_features(&self.features(tuple))
    }

    /// The string half of [`TupleEmbedder::embed`] — analysis and hashing —
    /// which is what an embed is metered for.
    pub fn features<'a>(&self, tuple: impl Into<TupleRef<'a>>) -> TupleFeatures {
        verifai_obs::meter::charge_embed();
        let tuple = tuple.into();
        let mut records = Vec::new();
        // `col:{header key}={value term}`: the header feature is a prefix of
        // it, and each qualified feature the part after `col:`. The header
        // key is the column name's terms joined with `_`.
        let mut feature = String::new();
        let mut value = String::new();
        for (col, val) in tuple.schema.columns().iter().zip(tuple.values.iter()) {
            if val.is_null() {
                continue;
            }
            feature.clear();
            feature.push_str("col:");
            self.analyzer.for_each_term(&col.name, |term| {
                if feature.len() > "col:".len() {
                    feature.push('_');
                }
                feature.push_str(term);
            });
            let header_end = feature.len();
            feature.push('=');
            value.clear();
            write!(value, "{val}").expect("writing to a String cannot fail");
            self.analyzer.for_each_term(&value, |term| {
                feature.truncate(header_end + 1);
                feature.push_str(term);
                self.push(
                    &mut records,
                    &feature["col:".len()..],
                    FeatureKind::Qualified,
                );
                self.push(&mut records, term, FeatureKind::Bare);
            });
            self.push(&mut records, &feature[..header_end], FeatureKind::Header);
        }
        TupleFeatures {
            records: records.into_boxed_slice(),
        }
    }

    /// The arithmetic half of [`TupleEmbedder::embed`]: the unit vector of
    /// `features`.
    pub fn embed_features(&self, features: &TupleFeatures) -> Vector {
        let mut v = Vector::zeros(self.dim);
        self.embed_features_into(features, &mut v);
        v
    }

    /// [`TupleEmbedder::embed_features`] into a caller-owned vector of this
    /// embedder's dimension, overwriting it — one scratch vector serves
    /// every candidate of a request.
    pub fn embed_features_into(&self, features: &TupleFeatures, out: &mut Vector) {
        debug_assert_eq!(out.dim(), self.dim);
        let slots = out.as_mut_slice();
        slots.fill(0.0);
        for (base, weight) in features.iter() {
            for p in 0..self.probes {
                let (idx, sign) = coord_and_sign(probe_hash(base, p), self.dim);
                slots[idx] += sign * weight;
            }
        }
        out.normalize();
    }

    /// Embed free text into the same space (for (text, tuple) comparisons the
    /// paper lists as an extension): every term is a feature of full weight,
    /// hashed as the bare value features of [`TupleEmbedder::embed`] are, so
    /// the spaces stay aligned. Unmetered.
    pub fn embed_text(&self, text: &str) -> Vector {
        let mut records = Vec::new();
        self.analyzer.for_each_term(text, |term| {
            self.push(&mut records, term, FeatureKind::Qualified);
        });
        self.embed_features(&TupleFeatures {
            records: records.into_boxed_slice(),
        })
    }

    fn push(&self, records: &mut Vec<u8>, feature: &str, kind: FeatureKind) {
        records.extend_from_slice(&fnv1a(feature.as_bytes(), self.seed).to_le_bytes());
        records.push(kind as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::feature_hash;
    use proptest::prelude::*;
    use verifai_lake::{Column, DataType, Schema, Tuple, Value};

    fn tuple(incumbent: &str) -> Tuple {
        Tuple {
            id: 0,
            table: 0,
            row_index: 0,
            schema: Schema::new(vec![
                Column::key("district", DataType::Text),
                Column::new("incumbent", DataType::Text),
                Column::new("first elected", DataType::Int),
            ]),
            values: vec![
                Value::text("New York 1"),
                Value::text(incumbent),
                Value::Int(1960),
            ],
            source: 0,
        }
    }

    #[test]
    fn identical_tuples_embed_identically() {
        let e = TupleEmbedder::new(128, 5);
        assert_eq!(e.embed(&tuple("Otis Pike")), e.embed(&tuple("Otis Pike")));
    }

    #[test]
    fn near_duplicates_closer_than_unrelated() {
        let e = TupleEmbedder::new(128, 5);
        let a = e.embed(&tuple("Otis Pike"));
        let b = e.embed(&tuple("Otis G. Pike"));
        let mut other = tuple("x");
        other.schema = Schema::new(vec![
            Column::key("film", DataType::Text),
            Column::new("actor", DataType::Text),
            Column::new("year", DataType::Int),
        ]);
        other.values = vec![
            Value::text("Stomp the Yard"),
            Value::text("Meagan Good"),
            Value::Int(2007),
        ];
        let c = e.embed(&other);
        assert!(a.cosine(&b) > a.cosine(&c) + 0.3);
    }

    #[test]
    fn null_cells_ignored() {
        let e = TupleEmbedder::new(128, 5);
        let mut masked = tuple("Otis Pike");
        masked.values[1] = Value::Null;
        let full = e.embed(&tuple("Otis Pike"));
        let part = e.embed(&masked);
        // Masked tuple still close to its completion (keys dominate).
        assert!(full.cosine(&part) > 0.5);
    }

    #[test]
    fn text_space_alignment() {
        let e = TupleEmbedder::new(128, 5);
        let t = e.embed(&tuple("Otis Pike"));
        let q = e.embed_text("Otis Pike New York district 1960");
        let unrelated = e.embed_text("synthetic aperture radar imaging");
        assert!(t.cosine(&q) > t.cosine(&unrelated));
    }

    /// `embed` as it was before features could be stored: every feature
    /// string hashed and accumulated on the spot.
    fn accumulate_strings_embed(dim: usize, seed: u64, tuple: &Tuple) -> Vector {
        let analyzer = Analyzer::standard();
        let mut v = Vector::zeros(dim);
        let mut add = |feature: &str, weight: f32| {
            for p in 0..4 {
                let (idx, sign) = coord_and_sign(feature_hash(feature, seed, p), dim);
                v.as_mut_slice()[idx] += sign * weight;
            }
        };
        for (col, val) in tuple.schema.columns().iter().zip(tuple.values.iter()) {
            if val.is_null() {
                continue;
            }
            let header_key = analyzer.analyze(&col.name).join("_");
            for term in &analyzer.analyze(&val.to_string()) {
                add(&format!("{header_key}={term}"), 1.0);
                add(term, 0.6);
            }
            add(&format!("col:{header_key}"), 0.4);
        }
        v.normalize();
        v
    }

    fn bits(v: &Vector) -> Vec<u32> {
        v.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// Stored features replay to the embedding bit for bit — through a
        /// fresh vector and through a dirty scratch one — and both equal the
        /// accumulate-the-strings formula: nulls, empty headers, repeated
        /// terms (the same coordinate hit many times, where float addition
        /// order would show), any dimension.
        #[test]
        fn features_replay_to_the_embedding_bit_for_bit(
            dim in 1usize..512,
            seed in any::<u64>(),
            cells in proptest::collection::vec(
                (
                    prop_oneof![
                        "[a-c ]{0,6}",
                        Just(String::new()),
                        Just("first elected".to_string()),
                    ],
                    prop_oneof![
                        Just(Value::Null),
                        "[a-c ]{0,12}".prop_map(Value::Text),
                        Just(Value::text("pike pike pike otis pike")),
                        (-50i64..50).prop_map(Value::Int),
                        (-2.0..2.0f64).prop_map(Value::Float),
                    ],
                ),
                0..7,
            ),
        ) {
            let t = Tuple {
                id: 0,
                table: 0,
                row_index: 0,
                schema: Schema::new(
                    cells.iter().map(|(h, _)| Column::new(h.clone(), DataType::Text)).collect(),
                ),
                values: cells.iter().map(|(_, v)| v.clone()).collect(),
                source: 0,
            };
            let e = TupleEmbedder::new(dim, seed);
            let want = bits(&accumulate_strings_embed(dim, seed, &t));
            let features = e.features(&t);
            prop_assert_eq!(bits(&e.embed(&t)), want.clone());
            prop_assert_eq!(bits(&e.embed_features(&features)), want.clone());
            let mut scratch = e.embed_text("left over from the previous candidate");
            e.embed_features_into(&features, &mut scratch);
            prop_assert_eq!(bits(&scratch), want);
            prop_assert_eq!(features.heap_bytes(), 9 * features.len());
        }
    }

    /// An embed is metered where its strings are handled: once per
    /// `features` (so once per `embed`), never per replay.
    #[test]
    fn feature_extraction_is_what_an_embed_charges() {
        let e = TupleEmbedder::new(64, 5);
        let t = tuple("Otis Pike");
        let (features, cost) = verifai_obs::meter::scoped(|| e.features(&t));
        assert_eq!(cost.embeds, 1);
        assert_eq!(features.len(), 2 * (3 + 2 + 1) + 3);
        let (_, cost) = verifai_obs::meter::scoped(|| e.embed_features(&features));
        assert_eq!(cost.embeds, 0);
        let (_, cost) = verifai_obs::meter::scoped(|| e.embed(&t));
        assert_eq!(cost.embeds, 1);
    }
}
