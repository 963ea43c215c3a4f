//! The `EvidenceSource` stage abstraction: the paper's Indexer (§3.1) as a
//! swappable retrieval backend.
//!
//! The staged pipeline in `verifai` drives retrieval through this trait so
//! that new backends (another content index, a different ANN structure, a
//! remote search service) plug in without reopening the pipeline. The
//! in-tree backends are the [`crate::SegmentedInvertedIndex`] (content), the
//! [`crate::HnswIndex`] / [`crate::FlatIndex`] (semantic), and
//! [`FusedSource`], which composes several sources with a [`Combiner`] —
//! the Combiner step of §3.1 expressed as just another source.

use crate::{Combiner, SearchHit};
use verifai_embed::Vector;
use verifai_obs::SpanContext;

/// A prepared retrieval query: the serialized object text plus, when the
/// caller ran an embedder, its vector form.
///
/// Sources consume whichever representation they understand: content
/// indexes read [`SourceQuery::text`], semantic indexes read
/// [`SourceQuery::vector`] (and return nothing when it is absent, i.e.
/// semantic retrieval is disabled).
///
/// [`SourceQuery::ctx`] carries the caller's trace coordinates across the
/// source boundary: distributed backends (the cluster router) record
/// per-shard child spans under `ctx` so the request's span tree spans the
/// fleet. The pipeline passes span 0, and the children graft under the
/// request's `retrieval` span when the tree is stitched. Plain in-process
/// indexes ignore it; untraced callers pass [`SpanContext::none`].
#[derive(Debug, Clone, Copy)]
pub struct SourceQuery<'a> {
    /// The serialized query text.
    pub text: &'a str,
    /// The query embedding, when semantic retrieval is enabled.
    pub vector: Option<&'a Vector>,
    /// The caller's span-tree coordinates (trace id + parent span), or
    /// [`SpanContext::none`] when the request is untraced.
    pub ctx: SpanContext,
}

/// An object-safe retrieval backend: given a prepared query, return the
/// coarse task-agnostic top-`k`.
///
/// Implementations must be cheap to call concurrently (`&self` search over
/// an immutable index), as the pipeline fans verification batches across
/// worker threads.
pub trait EvidenceSource: Send + Sync {
    /// Stable backend name for provenance records.
    fn name(&self) -> &'static str;

    /// The coarse top-`k` hits for `query`, best first. A request is
    /// discovered alone: the pipeline calls this once per modality per
    /// object.
    fn search(&self, query: SourceQuery<'_>, k: usize) -> Vec<SearchHit>;
}

impl EvidenceSource for crate::HnswIndex {
    fn name(&self) -> &'static str {
        "hnsw"
    }

    fn search(&self, query: SourceQuery<'_>, k: usize) -> Vec<SearchHit> {
        match query.vector {
            Some(vector) => crate::VectorIndex::search(self, vector, k),
            None => Vec::new(),
        }
    }
}

impl EvidenceSource for crate::FlatIndex {
    fn name(&self) -> &'static str {
        "flat"
    }

    fn search(&self, query: SourceQuery<'_>, k: usize) -> Vec<SearchHit> {
        match query.vector {
            Some(vector) => crate::VectorIndex::search(self, vector, k),
            None => Vec::new(),
        }
    }
}

impl EvidenceSource for crate::SegmentedInvertedIndex {
    fn name(&self) -> &'static str {
        // Provenance records name the ranking function.
        "bm25"
    }

    fn search(&self, query: SourceQuery<'_>, k: usize) -> Vec<SearchHit> {
        crate::SegmentedInvertedIndex::search(self, query.text, k)
    }
}

impl EvidenceSource for crate::AnyVectorIndex {
    fn name(&self) -> &'static str {
        self.backend_name()
    }

    fn search(&self, query: SourceQuery<'_>, k: usize) -> Vec<SearchHit> {
        match query.vector {
            Some(vector) => crate::VectorIndex::search(self, vector, k),
            None => Vec::new(),
        }
    }
}

/// Fuses the top-`k` lists of several sources with a [`Combiner`] (paper
/// §3.1: "a Combiner that merges results and removes duplicates").
///
/// The member order is the list order handed to the Combiner, which matters
/// for score-fusion strategies; keep content sources before semantic ones
/// to preserve the historical ranking.
pub struct FusedSource {
    sources: Vec<Box<dyn EvidenceSource>>,
    combiner: Combiner,
}

impl FusedSource {
    /// Fuse `sources` with `combiner`.
    pub fn new(sources: Vec<Box<dyn EvidenceSource>>, combiner: Combiner) -> FusedSource {
        FusedSource { sources, combiner }
    }

    /// The member sources, in fusion order.
    pub fn sources(&self) -> &[Box<dyn EvidenceSource>] {
        &self.sources
    }
}

impl EvidenceSource for FusedSource {
    fn name(&self) -> &'static str {
        "fused"
    }

    fn search(&self, query: SourceQuery<'_>, k: usize) -> Vec<SearchHit> {
        let lists: Vec<Vec<SearchHit>> = self
            .sources
            .iter()
            .map(|source| source.search(query, k))
            .filter(|list| !list.is_empty())
            .collect();
        self.combiner.combine(&lists, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FusionStrategy, SegmentedInvertedIndex};
    use verifai_lake::InstanceId;

    fn content_index() -> SegmentedInvertedIndex {
        let mut idx = SegmentedInvertedIndex::default();
        idx.add(InstanceId::Text(1), "the incumbent of new york one");
        idx.add(InstanceId::Text(2), "points scored in the championship");
        idx
    }

    #[test]
    fn inverted_index_is_a_source() {
        let idx = content_index();
        let source: &dyn EvidenceSource = &idx;
        let hits = source.search(
            SourceQuery {
                text: "incumbent new york",
                vector: None,
                ctx: SpanContext::none(),
            },
            5,
        );
        assert_eq!(hits[0].id, InstanceId::Text(1));
        assert_eq!(source.name(), "bm25");
    }

    #[test]
    fn semantic_source_without_vector_is_empty() {
        let idx = crate::HnswIndex::new(crate::HnswConfig::default());
        let hits = EvidenceSource::search(
            &idx,
            SourceQuery {
                text: "anything",
                vector: None,
                ctx: SpanContext::none(),
            },
            5,
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn fused_source_matches_manual_combination() {
        let idx = content_index();
        let combiner = Combiner::new(FusionStrategy::ReciprocalRank { k0: 60.0 });
        let query = SourceQuery {
            text: "championship points",
            vector: None,
            ctx: SpanContext::none(),
        };
        let manual = combiner.combine(&[idx.search(query.text, 5)], 5);
        let fused = FusedSource::new(vec![Box::new(content_index())], combiner);
        assert_eq!(fused.search(query, 5), manual);
        assert_eq!(fused.sources().len(), 1);
    }
}
