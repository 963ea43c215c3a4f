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

    /// The coarse top-`k` hits for `query`, best first.
    fn search(&self, query: SourceQuery<'_>, k: usize) -> Vec<SearchHit>;

    /// The coarse top-`k` for each of `queries`, in order. The default is
    /// a per-query loop; backends with a real multi-query kernel (the flat
    /// index's blocked scan, a lock-amortizing live wrapper, the cluster
    /// router's batched scatter) override it. Results must be identical to
    /// calling [`EvidenceSource::search`] per query.
    fn search_batch(&self, queries: &[SourceQuery<'_>], k: usize) -> Vec<Vec<SearchHit>> {
        queries.iter().map(|q| self.search(*q, k)).collect()
    }
}

/// Run a batch of [`SourceQuery`]s against a [`crate::VectorIndex`] via its
/// blocked multi-query kernel: queries with vectors share one scan, the
/// vector-less ones come back empty (semantic retrieval disabled), order
/// preserved.
pub fn vector_search_batch<I: crate::VectorIndex>(
    index: &I,
    queries: &[SourceQuery<'_>],
    k: usize,
) -> Vec<Vec<SearchHit>> {
    let dense: Vec<Vector> = queries.iter().filter_map(|q| q.vector.cloned()).collect();
    if dense.is_empty() {
        return vec![Vec::new(); queries.len()];
    }
    let mut results = index.search_batch(&dense, k).into_iter();
    queries
        .iter()
        .map(|q| match q.vector {
            Some(_) => results.next().unwrap_or_default(),
            None => Vec::new(),
        })
        .collect()
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

    fn search_batch(&self, queries: &[SourceQuery<'_>], k: usize) -> Vec<Vec<SearchHit>> {
        vector_search_batch(self, queries, k)
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

    fn search_batch(&self, queries: &[SourceQuery<'_>], k: usize) -> Vec<Vec<SearchHit>> {
        vector_search_batch(self, queries, k)
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

    fn search_batch(&self, queries: &[SourceQuery<'_>], k: usize) -> Vec<Vec<SearchHit>> {
        vector_search_batch(self, queries, k)
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

    /// Batch fusion: each member sees the whole batch at once (so its
    /// multi-query kernel amortizes one scan), then the per-query member
    /// lists fuse exactly as the single-query path would.
    fn search_batch(&self, queries: &[SourceQuery<'_>], k: usize) -> Vec<Vec<SearchHit>> {
        let mut per_member: Vec<_> = self
            .sources
            .iter()
            .map(|source| source.search_batch(queries, k).into_iter())
            .collect();
        (0..queries.len())
            .map(|_| {
                let lists: Vec<Vec<SearchHit>> = per_member
                    .iter_mut()
                    .filter_map(Iterator::next)
                    .filter(|list| !list.is_empty())
                    .collect();
                self.combiner.combine(&lists, k)
            })
            .collect()
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
    fn batch_search_matches_per_query_for_every_source() {
        use crate::VectorIndex;
        use verifai_embed::TextEmbedder;
        let e = TextEmbedder::with_seed(7);
        let mut flat = crate::FlatIndex::new();
        for (i, t) in ["incumbent new york", "championship points", "film actress"]
            .iter()
            .enumerate()
        {
            flat.add(InstanceId::Text(i as u64), e.embed(t));
        }
        let v1 = e.embed("new york election");
        let v2 = e.embed("points in the championship");
        let queries = [
            SourceQuery {
                text: "new york election",
                vector: Some(&v1),
                ctx: SpanContext::none(),
            },
            SourceQuery {
                text: "mixed query without vector",
                vector: None,
                ctx: SpanContext::none(),
            },
            SourceQuery {
                text: "points in the championship",
                vector: Some(&v2),
                ctx: SpanContext::none(),
            },
        ];
        let combiner = Combiner::new(FusionStrategy::ReciprocalRank { k0: 60.0 });
        let fused = FusedSource::new(vec![Box::new(content_index()), Box::new(flat)], combiner);
        let source = &fused as &dyn EvidenceSource;
        let want: Vec<_> = queries.iter().map(|q| source.search(*q, 3)).collect();
        assert_eq!(source.search_batch(&queries, 3), want);
        // The vector-less query must come back empty from semantic members.
        let members = fused.sources();
        let semantic = members[1].search_batch(&queries, 3);
        assert!(semantic[1].is_empty());
        assert!(!semantic[0].is_empty());
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
