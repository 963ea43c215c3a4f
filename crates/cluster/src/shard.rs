//! One shard: its slice of the partitioned indexes plus a worker pool.

use std::sync::Arc;

use parking_lot::RwLock;
use verifai::exec::WorkerPool;
use verifai_index::{AnyVectorIndex, SegmentedInvertedIndex, VectorIndex};

/// A unit of shard work: a boxed search closure the router scatters.
pub(crate) type ShardJob = Box<dyn FnOnce() + Send + 'static>;

/// Worker threads per shard pool.
const SHARD_WORKERS: usize = 1;

/// Bounded job-queue depth per shard pool; overflow runs inline on the
/// calling thread (backpressure, not loss).
const SHARD_QUEUE: usize = 64;

/// A shard's content index handle: shared and lockable, so the router can
/// apply live mutations while search jobs read concurrently.
pub(crate) type ShardContent = Arc<RwLock<SegmentedInvertedIndex>>;
/// A shard's semantic index handle.
pub(crate) type ShardSemantic = Arc<RwLock<AnyVectorIndex>>;

/// One partition of the lake: per-modality content (BM25) and semantic
/// indexes over the instances this shard owns, plus the worker pool that
/// executes scattered searches. Indexes are `Arc<RwLock>`-shared: search
/// jobs take read locks off the router thread, and the router's mutation
/// path takes short write locks to keep the shard live.
pub struct Shard {
    /// Modality slot (tuples, tables, texts, kg) → content index.
    pub(crate) content: [Option<ShardContent>; 4],
    /// Modality slot → semantic index.
    pub(crate) semantic: [Option<ShardSemantic>; 4],
    pool: WorkerPool<ShardJob>,
}

impl Shard {
    /// Assemble a shard over its built indexes, with a pool of
    /// [`SHARD_WORKERS`] threads behind a [`SHARD_QUEUE`]-deep queue.
    pub(crate) fn new(
        content: [Option<ShardContent>; 4],
        semantic: [Option<ShardSemantic>; 4],
    ) -> Shard {
        Shard {
            content,
            semantic,
            pool: WorkerPool::new(SHARD_WORKERS, Some(SHARD_QUEUE), |_rx, job: ShardJob| job()),
        }
    }

    /// Submit a search job to this shard's pool; on a full queue the job is
    /// handed back for the caller to run inline (backpressure, not loss).
    pub(crate) fn try_submit(&self, job: ShardJob) -> Result<(), ShardJob> {
        self.pool.try_submit(job)
    }

    /// Number of live instances this shard owns (max across index families —
    /// content and semantic cover the same instances when both are on).
    /// Recomputed per call, since mutations move the number.
    pub fn instances(&self) -> usize {
        let content: usize = self
            .content
            .iter()
            .flatten()
            .map(|idx| idx.read().len())
            .sum();
        let semantic: usize = self
            .semantic
            .iter()
            .flatten()
            .map(|idx| VectorIndex::len(&*idx.read()))
            .sum();
        content.max(semantic)
    }

    /// Content segments standing on this shard, summed over its modalities.
    pub fn content_segments(&self) -> usize {
        let content = self.content.iter().flatten();
        content.map(|idx| idx.read().segments()).sum()
    }
}
