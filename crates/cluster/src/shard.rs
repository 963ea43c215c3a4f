//! One shard: the system's live indexes for its slice of the lake, plus a
//! worker pool.

use verifai::exec::WorkerPool;
use verifai::LiveIndexes;

/// A unit of shard work: a boxed search closure the router scatters.
pub(crate) type ShardJob = Box<dyn FnOnce() + Send + 'static>;

/// Worker threads per shard pool.
const SHARD_WORKERS: usize = 1;

/// Bounded job-queue depth per shard pool; overflow runs inline on the
/// calling thread (backpressure, not loss).
const SHARD_QUEUE: usize = 64;

/// One partition of the lake: `Arc` clones of the [`LiveIndexes`] the
/// system owns for the instances this shard owns, plus the worker pool that
/// executes scattered searches. Search jobs take read locks off the router
/// thread; [`verifai::VerifAi::apply`] takes short write locks on the same
/// indexes to keep the shard live.
pub(crate) struct Shard {
    /// The shard's content and semantic indexes, per modality slot.
    pub(crate) live: LiveIndexes,
    pool: WorkerPool<ShardJob>,
}

impl Shard {
    /// Stand a pool of [`SHARD_WORKERS`] threads behind a
    /// [`SHARD_QUEUE`]-deep queue in front of `live`.
    pub(crate) fn new(live: LiveIndexes) -> Shard {
        Shard {
            live,
            pool: WorkerPool::new(SHARD_WORKERS, Some(SHARD_QUEUE), |_rx, job: ShardJob| job()),
        }
    }

    /// Submit a search job to this shard's pool; on a full queue the job is
    /// handed back for the caller to run inline (backpressure, not loss).
    pub(crate) fn try_submit(&self, job: ShardJob) -> Result<(), ShardJob> {
        self.pool.try_submit(job)
    }
}
