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
/// on its kind alone.
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

/// Probes per feature: four keep the variance of spurious (collision)
/// similarity low even for tuples with only a handful of features.
const PROBES: usize = 4;

/// Tuple-to-vector encoder.
#[derive(Debug, Clone)]
pub struct TupleEmbedder {
    dim: usize,
    seed: u64,
    analyzer: Analyzer,
}

impl TupleEmbedder {
    /// Encoder with the given dimension (1 to 65 536) and seed.
    pub fn new(dim: usize, seed: u64) -> TupleEmbedder {
        assert!(
            (1..=1 << 16).contains(&dim),
            "tuple embedding dimension {dim} outside 1..=65536"
        );
        TupleEmbedder {
            dim,
            seed,
            analyzer: Analyzer::standard(),
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bytes a probe's coordinate takes in a feature record.
    fn coordinate_bytes(&self) -> usize {
        if self.dim <= 1 << 8 {
            1
        } else {
            2
        }
    }

    /// Bytes of one feature record: 5 up to dimension 256, 9 above.
    pub fn record_len(&self) -> usize {
        1 + PROBES * self.coordinate_bytes()
    }

    /// Embed a tuple. Null cells contribute nothing.
    pub fn embed<'a>(&self, tuple: impl Into<TupleRef<'a>>) -> Vector {
        let mut records = Vec::new();
        self.append_features(tuple, &mut records);
        let mut v = Vector::zeros(self.dim);
        self.replay_into(&records, &mut v);
        v
    }

    /// The string half of [`TupleEmbedder::embed`] — analysis and hashing —
    /// which is what an embed is metered for: the tuple's features, in
    /// accumulation order, appended to `out` as records of
    /// [`TupleEmbedder::record_len`] bytes. A record is a code byte holding
    /// the feature's kind (bits 0–1) and its probes' signs (bit `2 + p` set
    /// for a `+`), then each probe's coordinate, little-endian, in one byte
    /// up to dimension 256 and two up to 65 536. Only meaningful to an
    /// embedder with this seed and dimension.
    pub fn append_features<'a>(&self, tuple: impl Into<TupleRef<'a>>, out: &mut Vec<u8>) {
        verifai_obs::meter::charge_embed();
        let tuple = tuple.into();
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
                self.push(out, &feature["col:".len()..], FeatureKind::Qualified);
                self.push(out, term, FeatureKind::Bare);
            });
            self.push(out, &feature[..header_end], FeatureKind::Header);
        }
    }

    /// The arithmetic half of [`TupleEmbedder::embed`]: replay feature
    /// records into `out` (this embedder's dimension), overwriting it — a
    /// scatter of the same float additions, on the same coordinates in the
    /// same order, with no hashing left to do, then the normalization. One
    /// scratch vector serves every candidate of a request.
    pub fn replay_into(&self, records: &[u8], out: &mut Vector) {
        debug_assert_eq!(out.dim(), self.dim);
        let slots = out.as_mut_slice();
        slots.fill(0.0);
        match self.coordinate_bytes() {
            1 => scatter::<1>(records, slots),
            _ => scatter::<2>(records, slots),
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
        let mut v = Vector::zeros(self.dim);
        self.replay_into(&records, &mut v);
        v
    }

    /// Hash `feature` once and append its record: the kind and the probes'
    /// signs, then their coordinates.
    fn push(&self, records: &mut Vec<u8>, feature: &str, kind: FeatureKind) {
        let base = fnv1a(feature.as_bytes(), self.seed);
        let code = records.len();
        records.push(kind as u8);
        for p in 0..PROBES {
            let (idx, sign) = coord_and_sign(probe_hash(base, p as u32), self.dim);
            if sign > 0.0 {
                records[code] |= 1 << (2 + p);
            }
            records.extend_from_slice(&(idx as u16).to_le_bytes()[..self.coordinate_bytes()]);
        }
    }
}

/// Add every record of `records` (coordinates `BYTES` wide) into `slots`:
/// per probe, `slots[coordinate] += ±weight` — the addition `sign * weight`
/// made before, the product being exact.
fn scatter<const BYTES: usize>(records: &[u8], slots: &mut [f32]) {
    for record in records.chunks_exact(1 + PROBES * BYTES) {
        let code = record[0];
        let weight = WEIGHTS[usize::from(code & 0b11)];
        for (p, coordinate) in record[1..].chunks_exact(BYTES).enumerate() {
            let idx = if BYTES == 1 {
                usize::from(coordinate[0])
            } else {
                usize::from(u16::from_le_bytes([coordinate[0], coordinate[1]]))
            };
            slots[idx] += if code >> (2 + p) & 1 == 1 {
                weight
            } else {
                -weight
            };
        }
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
            prop_assert_eq!(bits(&e.embed(&t)), want.clone());
            // Appended after bytes of the caller's own, and replayed into a
            // dirty scratch vector.
            let mut records = vec![7u8];
            e.append_features(&t, &mut records);
            let mut scratch = e.embed_text("left over from the previous candidate");
            e.replay_into(&records[1..], &mut scratch);
            prop_assert_eq!(bits(&scratch), want);
            // One record per feature, never more than the nine bytes a
            // stored hash and kind took: five up to dimension 256.
            prop_assert_eq!((records.len() - 1) % e.record_len(), 0);
            prop_assert_eq!(e.record_len(), if dim <= 256 { 5 } else { 9 });
        }
    }

    /// An embed is metered where its strings are handled: once per
    /// `append_features` (so once per `embed`), never per replay.
    #[test]
    fn feature_extraction_is_what_an_embed_charges() {
        let e = TupleEmbedder::new(64, 5);
        let t = tuple("Otis Pike");
        let mut records = Vec::new();
        let ((), cost) = verifai_obs::meter::scoped(|| e.append_features(&t, &mut records));
        assert_eq!(cost.embeds, 1);
        assert_eq!(records.len(), (2 * (3 + 2 + 1) + 3) * e.record_len());
        let mut v = Vector::zeros(64);
        let ((), cost) = verifai_obs::meter::scoped(|| e.replay_into(&records, &mut v));
        assert_eq!(cost.embeds, 0);
        let (_, cost) = verifai_obs::meter::scoped(|| e.embed(&t));
        assert_eq!(cost.embeds, 1);
    }
}
