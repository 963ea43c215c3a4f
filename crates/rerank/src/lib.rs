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
pub mod table;
pub mod tuple;

use verifai_lake::DataInstance;
use verifai_llm::DataObject;

/// The query-independent half of a reranker's work on one evidence instance,
/// computed once when the instance enters the lake and reused by every
/// request that later retrieves it (DESIGN.md §18). Produced by
/// [`Reranker::prepare`] and only meaningful to the reranker that produced
/// it: token and term ids index that reranker's own vocabulary.
#[derive(Debug, Clone)]
pub enum Prepared {
    /// Distinct token ids of a serialized text or knowledge-graph instance
    /// ([`colbert::ColbertReranker`]).
    Tokens(colbert::PreparedDoc),
    /// Caption / header / cell term sets and the dense vector of a table
    /// ([`table::TableReranker`]).
    Table(table::PreparedTable),
}

impl Prepared {
    /// Heap bytes these features hold.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Prepared::Tokens(doc) => doc.heap_bytes(),
            Prepared::Table(table) => table.heap_bytes(),
        }
    }
}

/// One coarse candidate of a request: the resolved instance and, when the
/// caller keeps them, its [`Prepared`] features.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a> {
    /// The retrieved evidence instance.
    pub evidence: &'a DataInstance,
    /// Its prepared features; `None` makes the reranker prepare on the spot.
    pub prepared: Option<&'a Prepared>,
}

impl<'a> Candidate<'a> {
    /// A candidate with nothing prepared ahead of the request.
    pub fn unprepared(evidence: &'a DataInstance) -> Candidate<'a> {
        Candidate {
            evidence,
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
/// or when — bit for bit.
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
    /// reranker keeps nothing per instance.
    fn prepare(&self, evidence: &DataInstance) -> Option<Prepared> {
        let _ = evidence;
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
    fn supports(&self, evidence: &DataInstance) -> bool {
        let _ = evidence;
        true
    }
}

/// Rerank candidates with `reranker` and keep the top `k_prime`, preparing
/// every candidate on the spot — the reference the store-backed pipeline is
/// tested bit-identical to.
///
/// Returns (instance, score) pairs sorted by descending score with
/// deterministic id tiebreak.
pub fn rerank(
    reranker: &dyn Reranker,
    object: &DataObject,
    candidates: Vec<DataInstance>,
    k_prime: usize,
) -> Vec<(DataInstance, f64)> {
    rerank_prepared(reranker, object, candidates, |_| None, k_prime)
}

/// [`rerank`] with the caller's prepared features: `prepared` is asked once
/// per candidate, and a `None` falls back to preparing on the spot.
pub fn rerank_prepared<'a>(
    reranker: &dyn Reranker,
    object: &DataObject,
    candidates: Vec<DataInstance>,
    prepared: impl Fn(&DataInstance) -> Option<&'a Prepared>,
    k_prime: usize,
) -> Vec<(DataInstance, f64)> {
    let scores = {
        let views: Vec<Candidate<'_>> = candidates
            .iter()
            .map(|evidence| Candidate {
                evidence,
                prepared: prepared(evidence),
            })
            .collect();
        reranker.score_all(object, &views)
    };
    let mut scored: Vec<(DataInstance, f64)> = candidates.into_iter().zip(scores).collect();
    sort_by_score(&mut scored);
    scored.truncate(k_prime);
    scored
}

/// Descending score, ties broken by ascending instance id.
pub(crate) fn sort_by_score(scored: &mut [(DataInstance, f64)]) {
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.id().cmp(&b.0.id()))
    });
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
                    DataInstance::Text(d) => d.body.len() as f64,
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
