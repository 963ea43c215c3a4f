#![warn(missing_docs)]
//! # verifai-rerank
//!
//! The Reranker module (paper §3.2).
//!
//! The Indexer's coarse top-k (k in the hundreds) is task-agnostic; the
//! Reranker re-scores each retrieved instance against the *specific generated
//! data object* so that only a handful (k′ ≈ 5) survive to the expensive
//! Verifier stage. The paper names two rerankers, both implemented here:
//!
//! * [`colbert::ColbertReranker`] for (text, text) pairs — token-level late
//!   interaction (MaxSim), following RetClean/ColBERT;
//! * [`table::TableReranker`] for (text, table) pairs — the OpenTFV-style
//!   semantic reranker combining caption/header/cell evidence with embedding
//!   similarity;
//!
//! plus the pairs the paper lists as in-progress extensions:
//!
//! * [`tuple::TupleReranker`] for (tuple, tuple) pairs — RetClean-style schema
//!   and value agreement;
//! * [`composite::CompositeReranker`] — routes each candidate to the reranker
//!   built for its evidence modality.
//!
//! Rerank is most of a cold request, so nothing query-independent is
//! recomputed on the request path: every reranker splits into an evidence
//! side ([`Reranker::prepare`] → [`Prepared`], run when an instance enters
//! the lake) and a query side run once per request inside
//! [`Reranker::score_all`].

pub mod colbert;
pub mod composite;
// Shared with the workspace's identity test, which uses all of it.
#[cfg(test)]
#[allow(dead_code)]
mod reference;
pub mod table;
pub mod tuple;

// The references call this crate by its name, as they must where the
// identity test includes them.
#[cfg(test)]
extern crate self as verifai_rerank;

use verifai_lake::{DataInstance, InstanceId, InstanceRef};
use verifai_llm::DataObject;

/// The query-independent half of a reranker's work on one evidence instance,
/// computed once when the instance enters the lake and reused by every
/// request that later retrieves it (DESIGN.md §18, §20). Produced by
/// [`Reranker::prepare`] and only meaningful to the reranker that produced
/// it: token and term ids index that reranker's own vocabulary, feature
/// records carry its embedder's seed and dimension. Every variant is at
/// most a boxed slice wide — there is one of these per instance of the
/// lake.
#[derive(Debug, Clone)]
pub enum Prepared {
    /// Distinct token ids of a serialized text or knowledge-graph instance
    /// ([`colbert::ColbertReranker`]).
    Tokens(colbert::PreparedDoc),
    /// Caption / header / cell term sets and the dense vector of a table
    /// ([`table::TableReranker`]).
    Table(Box<table::PreparedTable>),
    /// Match keys and embedding feature records of a tuple
    /// ([`tuple::TupleReranker`]).
    Tuple(tuple::PreparedTuple),
}

impl Prepared {
    /// Heap bytes these features hold.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Prepared::Tokens(doc) => doc.heap_bytes(),
            Prepared::Table(table) => std::mem::size_of_val(&**table) + table.heap_bytes(),
            Prepared::Tuple(tuple) => tuple.heap_bytes(),
        }
    }
}

/// One coarse candidate of a request: the evidence instance, read where it
/// lies, and, when the caller keeps them, its [`Prepared`] features.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a> {
    /// The retrieved evidence instance.
    pub evidence: InstanceRef<'a>,
    /// Its prepared features; `None` makes the reranker prepare on the spot.
    pub prepared: Option<&'a Prepared>,
}

impl<'a> Candidate<'a> {
    /// A candidate with nothing prepared ahead of the request.
    pub fn unprepared(evidence: impl Into<InstanceRef<'a>>) -> Candidate<'a> {
        Candidate {
            evidence: evidence.into(),
            prepared: None,
        }
    }
}

/// A task-specific scorer for (generated object, retrieved instance) pairs.
///
/// Each reranker has **one** scoring implementation, [`Reranker::score_all`],
/// split into an evidence side ([`Reranker::prepare`], query-independent) and
/// a query side (embedded and analyzed once per call). A candidate that
/// arrives without prepared features is prepared on the spot by that same
/// code, so the score of a pair never depends on who prepared its evidence
/// or when — bit for bit. Evidence is only ever borrowed: a reranker looks
/// at many candidates so that few need to be copied out of the lake.
pub trait Reranker: Send + Sync {
    /// Relevance of every candidate to `object`, in candidate order; higher
    /// is better. The per-request entry point: the query side of `object`
    /// is computed once, however many candidates there are. Scores from one
    /// reranker are mutually comparable; cross-reranker scores are not.
    fn score_all(&self, object: &DataObject, candidates: &[Candidate<'_>]) -> Vec<f64>;

    /// Relevance of one `evidence` instance to `object`: the per-pair
    /// reference, [`Reranker::score_all`] over a single unprepared candidate.
    fn score(&self, object: &DataObject, evidence: &DataInstance) -> f64 {
        self.score_all(object, &[Candidate::unprepared(evidence)])[0]
    }

    /// The query-independent features of `evidence`, or `None` when this
    /// reranker keeps nothing per instance. `serialized` is the evidence's
    /// serialized text (what `verifai_text` serializes it to for indexing)
    /// when the caller already holds it, as a lake mutation's index op
    /// does; a reranker that embeds that text takes it instead of
    /// serializing again. The features are the same either way.
    fn prepare(&self, evidence: InstanceRef<'_>, serialized: Option<&str>) -> Option<Prepared> {
        let _ = (evidence, serialized);
        None
    }

    /// Stable name for provenance records.
    fn name(&self) -> &'static str;

    /// Whether this reranker is built for evidence of this modality.
    /// [`composite::CompositeReranker`] routes each candidate to the first
    /// reranker that supports it, so a new modality plugs in by implementing
    /// this — no routing code to reopen. Routing looks at the evidence
    /// alone: that is what lets an instance be prepared when it enters the
    /// lake, before any object exists. Defaults to supporting everything (a
    /// generic reranker).
    fn supports(&self, evidence: InstanceRef<'_>) -> bool {
        let _ = evidence;
        true
    }
}

/// Score `candidates` with `reranker` and rank them: the `(candidate index,
/// score)` of the top `k_prime`, by descending score with deterministic id
/// tiebreak. Nothing is copied — the caller materializes the survivors.
pub fn rank(
    reranker: &dyn Reranker,
    object: &DataObject,
    candidates: &[Candidate<'_>],
    k_prime: usize,
) -> Vec<(usize, f64)> {
    let scores = reranker.score_all(object, candidates);
    let mut ranked: Vec<(usize, f64)> = scores.into_iter().enumerate().collect();
    ranked.sort_by(|a, b| {
        by_score_then_id(
            (a.1, candidates[a.0].evidence.id()),
            (b.1, candidates[b.0].evidence.id()),
        )
    });
    ranked.truncate(k_prime);
    ranked
}

/// [`rank`] over owned candidates, preparing every one on the spot — the
/// reference the store-backed pipeline is tested bit-identical to.
///
/// Returns (instance, score) pairs sorted by descending score with
/// deterministic id tiebreak.
pub fn rerank(
    reranker: &dyn Reranker,
    object: &DataObject,
    candidates: Vec<DataInstance>,
    k_prime: usize,
) -> Vec<(DataInstance, f64)> {
    let ranked = {
        let views: Vec<Candidate<'_>> = candidates.iter().map(Candidate::unprepared).collect();
        rank(reranker, object, &views, k_prime)
    };
    take_ranked(candidates, ranked)
}

/// The `ranked` survivors of `candidates`, moved out in rank order.
pub fn take_ranked<T>(candidates: Vec<T>, ranked: Vec<(usize, f64)>) -> Vec<(T, f64)> {
    let mut candidates: Vec<Option<T>> = candidates.into_iter().map(Some).collect();
    ranked
        .into_iter()
        .map(|(index, score)| {
            let survivor = candidates[index]
                .take()
                .expect("a rank names each index once");
            (survivor, score)
        })
        .collect()
}

/// Descending score, ties broken by ascending instance id.
pub(crate) fn by_score_then_id(a: (f64, InstanceId), b: (f64, InstanceId)) -> std::cmp::Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| a.1.cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai_lake::{InstanceId, TextDocument};
    use verifai_llm::TextClaim;

    struct LengthReranker;
    impl Reranker for LengthReranker {
        fn score_all(&self, _object: &DataObject, candidates: &[Candidate<'_>]) -> Vec<f64> {
            candidates
                .iter()
                .map(|c| match c.evidence {
                    InstanceRef::Text(d) => d.body().len() as f64,
                    _ => 0.0,
                })
                .collect()
        }
        fn name(&self) -> &'static str {
            "length"
        }
    }

    #[test]
    fn rerank_sorts_and_truncates() {
        let object = DataObject::TextClaim(TextClaim {
            id: 0,
            text: "q".into(),
            expr: None,
            scope: None,
        });
        let candidates = vec![
            DataInstance::Text(TextDocument::new(1, "a", "xx", 0)),
            DataInstance::Text(TextDocument::new(2, "b", "xxxx", 0)),
            DataInstance::Text(TextDocument::new(3, "c", "x", 0)),
        ];
        let out = rerank(&LengthReranker, &object, candidates, 2);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0.id(), InstanceId::Text(2));
        assert_eq!(out[1].0.id(), InstanceId::Text(1));
    }
}
