//! The scatter/gather front end: fan a query out to every shard in one job
//! per shard, gather per-shard top-k, merge, and fuse — behind the same
//! [`EvidenceSource`] trait the single-lake pipeline retrieves through.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crossbeam::channel;
use parking_lot::Mutex;
use verifai::{LiveIndexes, SharedContent, SharedSemantic};
use verifai_embed::Vector;
use verifai_index::{Combiner, EvidenceSource, SearchHit, SourceQuery, VectorIndex};
use verifai_lake::InstanceKind;
use verifai_obs::{
    meter, ns_between, Clock, CostVector, Counter, FlightRecorder, Histogram, Registry,
    RegistrySnapshot, RequestTrace, SpanContext, SpanEvent, SpanLog, TraceId,
};

use crate::merge::merge_topk;
use crate::shard::{Shard, ShardJob};

/// Span ids the router mints for its per-shard child spans live in a
/// disjoint high-bit range, so they can never collide with the request
/// trace's own (small, sequential) span ids when grafted into its tree.
const REMOTE_SPAN_BIT: u32 = 0x8000_0000;

/// Child spans each shard's `SpanLog` retains, per shard.
const SPAN_LOG_CAPACITY: usize = 512;

/// One query's hits from one shard, per member: `[content, semantic]`.
type MemberHits = [Vec<SearchHit>; 2];

/// Work handed to one shard by [`Router::submit_and_gather`].
type ShardWork<T> = Box<dyn FnOnce() -> T + Send>;

/// One shard's reply to a scatter: what its job returned, how long the
/// job waited in the shard's queue and how long it ran.
struct Reply<T> {
    shard: usize,
    value: T,
    queue_ns: u64,
    run_ns: u64,
}

/// Per-shard observability: request counters and a latency histogram,
/// all labeled `{shard="i"}` so a sick shard shows as its own series
/// instead of hiding inside a cluster average (a per-shard SLO burn rate
/// is a query over `verifai_shard_latency_seconds`).
struct ShardSeries {
    searches: Arc<Counter>,
    inline_runs: Arc<Counter>,
    latency: Arc<Histogram>,
}

/// Router-owned metrics registry (separate from the serving tier's so the
/// cluster layer stays usable without a service in front of it).
struct RouterObs {
    registry: Registry,
    shards: Vec<ShardSeries>,
}

impl RouterObs {
    fn new(n: usize) -> RouterObs {
        let registry = Registry::new();
        let shards = (0..n)
            .map(|i| {
                let shard = i.to_string();
                let labels: &[(&'static str, &str)] = &[("shard", &shard)];
                ShardSeries {
                    searches: registry.counter(
                        "verifai_shard_searches_total",
                        "Member searches (content or semantic, one query each) executed by this shard",
                        labels,
                    ),
                    inline_runs: registry.counter(
                        "verifai_shard_inline_total",
                        "Shard jobs run inline on the calling thread because the shard queue was full",
                        labels,
                    ),
                    latency: registry.histogram(
                        "verifai_shard_latency_seconds",
                        "Run time of one shard job: both members over the query",
                        labels,
                    ),
                }
            })
            .collect();
        RouterObs { registry, shards }
    }
}

/// Scatter/gather retrieval over the system's shards.
///
/// The router only searches: it holds `Arc` clones of the [`LiveIndexes`]
/// the system owns, and [`verifai::VerifAi::apply`] mutates them. One job
/// per shard per call runs both member index families (content,
/// then semantic) over the query; the router gathers the
/// per-shard top-k lists, k-way-merges each member's lists
/// ([`merge_topk`]), and fuses the merged *member* lists with the same
/// [`Combiner`] the single-lake pipeline uses. Merging per member
/// **before** fusion matters: reciprocal-rank fusion is rank-based, so
/// fusing per shard and merging afterwards would compute ranks over
/// partial lists and break the identity invariant.
pub struct Router {
    shards: Vec<Shard>,
    combiner: Combiner,
    /// Whether the content member is searched. Shards always hold a
    /// content index, as the single lake does; the config decides whether
    /// retrieval reads it.
    use_content: bool,
    obs: RouterObs,
    clock: Arc<dyn Clock>,
    /// One bounded child-span log per shard: traced queries append their
    /// `shard-{i}` spans here, and [`Router::lookup_trace`] grafts them
    /// back into the parent trace's tree.
    span_logs: Vec<SpanLog>,
    /// Allocator for router-minted span ids (ORed with [`REMOTE_SPAN_BIT`]).
    next_remote_span: AtomicU32,
    /// The serving tier's request recorder, when one is attached —
    /// [`Router::lookup_trace`] resolves request trace ids through it.
    recorder: Mutex<Option<Arc<FlightRecorder>>>,
}

impl Router {
    /// A router over `shards`, fusing member results with `combiner` and
    /// searching the content member only when `use_content` is set. A
    /// semantic member a shard has no index for (disabled in the config)
    /// is not searched.
    pub(crate) fn new(
        shards: Vec<LiveIndexes>,
        combiner: Combiner,
        use_content: bool,
        clock: Arc<dyn Clock>,
    ) -> Router {
        let obs = RouterObs::new(shards.len());
        let span_logs = (0..shards.len())
            .map(|_| SpanLog::new(SPAN_LOG_CAPACITY))
            .collect();
        Router {
            shards: shards.into_iter().map(Shard::new).collect(),
            combiner,
            use_content,
            obs,
            clock,
            span_logs,
            next_remote_span: AtomicU32::new(1),
            recorder: Mutex::new(None),
        }
    }

    /// Number of shards behind this router.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Instances owned by each shard (documents in its content indexes),
    /// in shard order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let stats = self.shards.iter().map(|shard| shard.live.stats());
        stats.map(|s| s.content_docs).collect()
    }

    /// Content segments standing on each shard (summed over its
    /// modalities), in shard order.
    pub fn content_segments(&self) -> Vec<usize> {
        let stats = self.shards.iter().map(|shard| shard.live.stats());
        stats.map(|s| s.content_segments).collect()
    }

    /// Member searches each shard has executed, in shard order.
    pub fn searches_per_shard(&self) -> Vec<u64> {
        self.obs.shards.iter().map(|s| s.searches.get()).collect()
    }

    /// Submit `jobs[i]` to shard `i` (`None` sends it nothing) and gather
    /// every reply, in shard order. A shard whose queue is full runs its
    /// job on the calling thread. Each job runs under `catch_unwind`, so a
    /// panicking job leaves its shard's worker alive; once every reply is
    /// in, the panic resumes on the calling thread — a shard fault fails
    /// the call, it never merges as an empty list.
    fn submit_and_gather<T: Send + 'static>(
        &self,
        jobs: Vec<Option<ShardWork<T>>>,
    ) -> Vec<Reply<T>> {
        type Sent<T> = (usize, std::thread::Result<T>, u64, u64, CostVector);
        let (tx, rx) = channel::bounded::<Sent<T>>(self.shards.len());
        let mut expected = 0;
        for ((i, shard), work) in self.shards.iter().enumerate().zip(jobs) {
            let Some(work) = work else { continue };
            expected += 1;
            let tx = tx.clone();
            let clock = self.clock.clone();
            let submitted = clock.now();
            let job: ShardJob = Box::new(move || {
                let start = clock.now();
                // Harvest the job's resource charges off whichever thread
                // ran it and ship them home with the result — the gather
                // re-charges them into the requesting thread.
                let (result, cost) = meter::scoped(|| panic::catch_unwind(AssertUnwindSafe(work)));
                let _ = tx.send((
                    i,
                    result,
                    ns_between(submitted, start),
                    ns_between(start, clock.now()),
                    cost,
                ));
            });
            if let Err(job) = shard.try_submit(job) {
                // Bounded-queue backpressure: the call still completes, it
                // just pays for this shard's work on the calling thread.
                self.obs.shards[i].inline_runs.inc();
                job();
            }
        }
        drop(tx);
        let mut replies = Vec::with_capacity(expected);
        let mut fault = None;
        for _ in 0..expected {
            let (shard, result, queue_ns, run_ns, cost) =
                rx.recv().expect("every shard job replies");
            meter::charge_cost(&cost);
            self.obs.shards[shard]
                .latency
                .record(std::time::Duration::from_nanos(run_ns));
            match result {
                Ok(value) => replies.push(Reply {
                    shard,
                    value,
                    queue_ns,
                    run_ns,
                }),
                Err(payload) => fault = fault.or(Some(payload)),
            }
        }
        if let Some(payload) = fault {
            panic::resume_unwind(payload);
        }
        replies.sort_unstable_by_key(|reply| reply.shard);
        replies
    }

    /// Scatter/gather retrieval for one modality: the routed equivalent of
    /// the single-lake fused source's `search`. Each shard gets one job
    /// carrying the query and both members — content, then semantic, each
    /// under one read of its index lock. Each member's shard lists are
    /// k-way-merged and the merged member lists fused, exactly as the
    /// single-lake fused source would.
    pub fn search(&self, kind: InstanceKind, query: SourceQuery<'_>, k: usize) -> Vec<SearchHit> {
        let slot = verifai::stages::slot(kind);
        let text: Arc<str> = query.text.into();
        let vector: Option<Arc<Vector>> = query.vector.cloned().map(Arc::new);
        // A semantic member without a query vector returns nothing
        // anywhere; the jobs leave it out.
        let members = |shard: &Shard| {
            let content = self.use_content.then(|| shard.live.content[slot].clone());
            let semantic = shard.live.semantic[slot].clone();
            (content, semantic.filter(|_| vector.is_some()))
        };
        let jobs = self
            .shards
            .iter()
            .map(|shard| {
                let (content, semantic) = members(shard);
                if content.is_none() && semantic.is_none() {
                    return None;
                }
                let (text, vector) = (text.clone(), vector.clone());
                let work: ShardWork<MemberHits> =
                    Box::new(move || search_shard(content, semantic, &text, vector.as_deref(), k));
                Some(work)
            })
            .collect();
        let mut replies = self.submit_and_gather(jobs);
        for reply in &replies {
            let (content, semantic) = members(&self.shards[reply.shard]);
            let searched = content.is_some() as u64 + semantic.is_some() as u64;
            self.obs.shards[reply.shard].searches.add(searched);
        }
        // One reply per shard. Shard queue wait is not charged: it
        // overlaps the retrieval wall time the request already reports,
        // and stays visible in the spans.
        meter::charge_shard_fanout(replies.len() as u64);
        // Per reply, for a traced query's `shard-{i}` spans: hits found,
        // and hits that survived the member merges.
        let traced = query.ctx.is_live();
        let mut counts = vec![(0, 0); if traced { replies.len() } else { 0 }];
        let mut lists: Vec<Vec<SearchHit>> = Vec::with_capacity(2);
        for member in 0..2 {
            let per_shard: Vec<Vec<SearchHit>> = replies
                .iter_mut()
                .map(|reply| std::mem::take(&mut reply.value[member]))
                .collect();
            let merged = merge_topk(&per_shard, k);
            for (count, own) in counts.iter_mut().zip(&per_shard) {
                count.0 += own.len();
                count.1 += merged
                    .iter()
                    .filter(|hit| own.iter().any(|o| o.id == hit.id))
                    .count();
            }
            if !merged.is_empty() {
                lists.push(merged);
            }
        }
        if traced {
            self.record_shard_spans(query.ctx, k, &replies, &counts);
        }
        self.combiner.combine(&lists, k)
    }

    /// Record one `shard-{i}` child span per reply into that shard's span
    /// log, under `ctx`'s trace and parent span. `counts[j]` is reply
    /// `j`'s (hits found, hits merged).
    fn record_shard_spans<T>(
        &self,
        ctx: SpanContext,
        k: usize,
        replies: &[Reply<T>],
        counts: &[(usize, usize)],
    ) {
        for (reply, &(hits, merged)) in replies.iter().zip(counts) {
            let i = reply.shard;
            let span_id = REMOTE_SPAN_BIT | self.next_remote_span.fetch_add(1, Ordering::Relaxed);
            let note = format!(
                "k {k} merged {merged} queue {}us scan {}us",
                reply.queue_ns / 1_000,
                reply.run_ns / 1_000
            );
            self.span_logs[i].record(
                ctx.trace_id,
                SpanEvent {
                    stage: format!("shard-{i}").into(),
                    span_id,
                    parent_id: ctx.span_id,
                    // Relative to the parent: the queue wait offsets the
                    // scan, so Perfetto shows wait vs. work per shard.
                    start_ns: reply.queue_ns,
                    duration_ns: reply.run_ns,
                    candidates_in: hits,
                    candidates_out: merged,
                    note: note.into(),
                },
            );
        }
    }

    /// Stitch the full distributed span tree for `trace_id`: the parent
    /// trace from the attached service recorder, with every shard's child
    /// spans grafted in. `None` if no recorder is attached or it did not
    /// retain the trace.
    pub fn lookup_trace(&self, trace_id: TraceId) -> Option<RequestTrace> {
        let parent = self.recorder.lock().as_ref()?.lookup(trace_id)?;
        let mut tree = (*parent).clone();
        let mut children: Vec<SpanEvent> = Vec::new();
        for log in &self.span_logs {
            children.extend(log.for_trace(trace_id));
        }
        tree.graft(children);
        Some(tree)
    }

    /// Attach the serving tier's request recorder so
    /// [`Router::lookup_trace`] can resolve request trace ids.
    pub fn attach_recorder(&self, recorder: Arc<FlightRecorder>) {
        *self.recorder.lock() = Some(recorder);
    }

    /// Snapshot the router's per-shard metric series; a pure read. Render
    /// with [`verifai_obs::render_prometheus`] or
    /// [`verifai_obs::render_json`] — series carry `{shard="i"}` labels.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.obs.registry.snapshot()
    }
}

/// One shard job: the query through the shard's content index, then its
/// semantic index (when the query has a vector), each under one read of
/// its lock.
fn search_shard(
    content: Option<SharedContent>,
    semantic: Option<SharedSemantic>,
    text: &str,
    vector: Option<&Vector>,
    k: usize,
) -> MemberHits {
    let mut hits = MemberHits::default();
    if let Some(index) = content {
        hits[0] = index.read().search(text, k);
    }
    if let (Some(index), Some(vector)) = (semantic, vector) {
        hits[1] = VectorIndex::search(&*index.read(), vector, k);
    }
    hits
}

/// One modality of a [`Router`] exposed as an [`EvidenceSource`]: the
/// staged pipeline retrieves through this exactly as it would through the
/// single-lake fused index source.
pub struct RoutedSource {
    router: Arc<Router>,
    kind: InstanceKind,
}

impl RoutedSource {
    /// The `kind` modality of `router` as a pipeline source.
    pub fn new(router: Arc<Router>, kind: InstanceKind) -> RoutedSource {
        RoutedSource { router, kind }
    }
}

impl EvidenceSource for RoutedSource {
    fn name(&self) -> &'static str {
        "routed"
    }

    fn search(&self, query: SourceQuery<'_>, k: usize) -> Vec<SearchHit> {
        self.router.search(self.kind, query, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use verifai_index::FusionStrategy;
    use verifai_obs::SystemClock;

    /// A router over `n` shards with empty indexes: only its pools work.
    fn router(n: usize) -> Arc<Router> {
        let shards = (0..n)
            .map(|_| LiveIndexes {
                content: std::array::from_fn(|_| Default::default()),
                semantic: Default::default(),
            })
            .collect();
        let combiner = Combiner::new(FusionStrategy::ReciprocalRank { k0: 60.0 });
        Arc::new(Router::new(shards, combiner, true, Arc::new(SystemClock)))
    }

    /// One submit-and-gather over every shard, where shard `faulty` (if
    /// any) panics and the others return their index. Runs on its own
    /// thread; `None` when it does not return within the bound.
    fn gather_within(
        router: &Arc<Router>,
        faulty: Option<usize>,
    ) -> Option<Result<Vec<usize>, ()>> {
        let router = Arc::clone(router);
        let (tx, rx) = channel::bounded(1);
        std::thread::spawn(move || {
            let jobs = (0..router.shard_count())
                .map(|i| {
                    let work: ShardWork<usize> = Box::new(move || {
                        assert_ne!(Some(i), faulty, "shard {i} faults");
                        i
                    });
                    Some(work)
                })
                .collect();
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| router.submit_and_gather(jobs)));
            let shards = outcome.map(|replies| replies.iter().map(|r| r.value).collect());
            let _ = tx.send(shards.map_err(|_| ()));
        });
        rx.recv_timeout(Duration::from_secs(30)).ok()
    }

    #[test]
    fn a_panicking_shard_job_fails_the_call_and_the_shard_keeps_serving() {
        let router = router(3);
        let faulted = gather_within(&router, Some(1)).expect("the faulted call returns");
        assert!(faulted.is_err(), "a shard panic must fail the call");
        let healthy = gather_within(&router, None).expect("the next call on the shards returns");
        assert_eq!(healthy, Ok(vec![0, 1, 2]));
    }
}
