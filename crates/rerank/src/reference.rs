//! The textbook forms of the rerankers' scores, which the request path —
//! prepared features, shared columns, match keys — is tested bit-identical
//! to. Not part of the library: compiled into this crate's tests, and by
//! path into the workspace's small-lake identity test
//! (`tests/rerank_identity.rs`), so both hold the request path to the same
//! references.

use verifai_embed::hashing::{coord_and_sign, feature_hash};
use verifai_embed::{kernel, TokenEmbedder, Vector};
use verifai_lake::{InstanceRef, Tuple};
use verifai_llm::DataObject;
use verifai_rerank::colbert::ColbertReranker;
use verifai_text::Analyzer;

/// MaxSim between embedded token lists, normalized by query length: per
/// query token the best similarity over every document token, clamped at
/// 0, summed. Token embeddings are unit by construction, so the dot is the
/// cosine.
pub fn maxsim(query: &[Vector], doc: &[Vector]) -> f64 {
    if query.is_empty() || doc.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f64;
    for q in query {
        let mut best = f64::NEG_INFINITY;
        for d in doc {
            let s = kernel::dot(q.as_slice(), d.as_slice()) as f64;
            if s > best {
                best = s;
            }
        }
        total += best.max(0.0);
    }
    total / query.len() as f64
}

/// ColBERT's default encoder, as the reranker builds it.
fn token_encoder() -> TokenEmbedder {
    TokenEmbedder::new(64, 0xc01b)
}

/// The query side of MaxSim before anything was looked up: every token of
/// the object's query text, embedded.
pub fn colbert_query(object: &DataObject) -> Vec<Vector> {
    token_encoder().embed_text(&ColbertReranker::query_text(object))
}

/// The tokens MaxSim's document side embeds: the first 256 of the
/// serialized evidence.
pub fn colbert_doc_tokens(evidence: InstanceRef<'_>) -> Vec<String> {
    let text = verifai_text::serialize_instance(evidence);
    token_encoder().with_tokens(&text, 256, |tokens| {
        tokens.iter().map(|token| token.to_string()).collect()
    })
}

/// The document side of MaxSim before evidence was prepared ahead: every
/// one of [`colbert_doc_tokens`] embedded on its own.
pub fn colbert_doc(evidence: InstanceRef<'_>) -> Vec<Vector> {
    let encoder = token_encoder();
    let tokens = colbert_doc_tokens(evidence);
    tokens
        .iter()
        .map(|token| encoder.embed_token(token))
        .collect()
}

/// The encoder [`colbert_doc`] embeds each token with, for a caller that
/// embeds [`colbert_doc_tokens`] itself.
pub fn colbert_embed_token(token: &str) -> Vector {
    token_encoder().embed_token(token)
}

/// ColBERT as it shipped before evidence was prepared ahead: embed every
/// token of both sides, cut the document to 256 vectors, textbook MaxSim.
pub fn colbert_score(object: &DataObject, evidence: InstanceRef<'_>) -> f64 {
    maxsim(&colbert_query(object), &colbert_doc(evidence))
}

/// The tuple reranker's default embedding dimension and seed.
const TUPLE_DIM: usize = 256;
const TUPLE_SEED: u64 = 0x07e1;

/// A tuple embedding as it was before features could be stored: every
/// feature string hashed and accumulated on the spot — per non-null cell a
/// header-qualified feature (weight 1.0) and a bare one (0.6) per value
/// term and a header feature (0.4), four probes each — then normalized.
pub fn tuple_vector(tuple: &Tuple) -> Vector {
    let analyzer = Analyzer::standard();
    let mut v = Vector::zeros(TUPLE_DIM);
    let mut add = |feature: &str, weight: f32| {
        for p in 0..4 {
            let (idx, sign) = coord_and_sign(feature_hash(feature, TUPLE_SEED, p), TUPLE_DIM);
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

/// Free text in the tuple embedding space, accumulated on the spot: every
/// term a feature of weight 1.0.
pub fn text_tuple_vector(text: &str) -> Vector {
    let mut v = Vector::zeros(TUPLE_DIM);
    for term in &Analyzer::standard().analyze(text) {
        for p in 0..4 {
            let (idx, sign) = coord_and_sign(feature_hash(term, TUPLE_SEED, p), TUPLE_DIM);
            v.as_mut_slice()[idx] += sign;
        }
    }
    v.normalize();
    v
}

/// The per-pair formulas the tuple reranker shipped with before anything
/// about a tuple was prepared or shared: two normalized header sets per
/// pair, every candidate header re-normalized for every query column, two
/// normalized strings per value comparison, both tuples embedded.
pub mod tuple {
    use super::tuple_vector;
    use std::collections::HashSet;
    use verifai_lake::value::{float_eq, normalize_str};
    use verifai_lake::{Schema, Tuple, Value};
    use verifai_rerank::tuple::TupleRerankWeights;

    fn fuzzy_index_of(schema: &Schema, name: &str) -> Option<usize> {
        let want = normalize_str(name);
        if want.is_empty() {
            return None;
        }
        if let Some(i) = schema
            .columns()
            .iter()
            .position(|c| normalize_str(&c.name) == want)
        {
            return Some(i);
        }
        schema.columns().iter().position(|c| {
            let have = normalize_str(&c.name);
            have.contains(&want) || want.contains(&have)
        })
    }

    fn matches(a: &Value, b: &Value) -> bool {
        if a.is_null() || b.is_null() {
            return false;
        }
        if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
            return float_eq(x, y);
        }
        a.normalized() == b.normalized()
    }

    /// Jaccard similarity of the two schemas' normalized header sets.
    pub fn header_jaccard(a: &Schema, b: &Schema) -> f64 {
        let set = |s: &Schema| -> HashSet<String> {
            s.names()
                .map(normalize_str)
                .filter(|s| !s.is_empty())
                .collect()
        };
        let (a, b) = (set(a), set(b));
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        a.intersection(&b).count() as f64 / a.union(&b).count() as f64
    }

    /// Agreement on aligned, mutually non-null attributes; `None` when the
    /// tuples share none.
    pub fn agreement(a: &Tuple, b: &Tuple) -> Option<f64> {
        let (mut shared, mut agree) = (0usize, 0usize);
        for (i, col) in a.schema.columns().iter().enumerate() {
            if let Some(j) = fuzzy_index_of(&b.schema, &col.name) {
                let (x, y) = (&a.values[i], &b.values[j]);
                if x.is_null() || y.is_null() {
                    continue;
                }
                shared += 1;
                if matches(x, y) {
                    agree += 1;
                }
            }
        }
        (shared > 0).then(|| agree as f64 / shared as f64)
    }

    /// The (imputed tuple, candidate tuple) score under the default weights.
    pub fn score(query: &Tuple, candidate: &Tuple) -> f64 {
        let w = TupleRerankWeights::default();
        let keys = query.key_values();
        let key = if keys.is_empty() {
            0.0
        } else {
            keys.iter()
                .filter(|k| candidate.values.iter().any(|v| matches(v, k)))
                .count() as f64
                / keys.len() as f64
        };
        let dense = tuple_vector(query).dot_unit(&tuple_vector(candidate)) as f64;
        w.schema * header_jaccard(&query.schema, &candidate.schema)
            + w.key * key
            + w.agreement * agreement(query, candidate).unwrap_or(0.0)
            + w.dense * dense.max(0.0)
    }
}

/// The (text claim, candidate tuple) score: the clamped cosine of the
/// claim's text embedding and the tuple's.
pub fn tuple_claim_score(claim: &str, candidate: &Tuple) -> f64 {
    (text_tuple_vector(claim).dot_unit(&tuple_vector(candidate)) as f64).max(0.0)
}
