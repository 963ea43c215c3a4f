//! The scatter/gather front end: fan a query out to every shard, gather
//! per-shard top-k, merge, and fuse — behind the same [`EvidenceSource`]
//! trait the single-lake pipeline retrieves through.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel;
use parking_lot::Mutex;
use verifai::{IndexOp, MutationOutcome};
use verifai_embed::{TextEmbedder, Vector};
use verifai_index::{Combiner, CorpusStats, EvidenceSource, SearchHit, SourceQuery, VectorIndex};
use verifai_lake::InstanceKind;
use verifai_obs::{
    meter, ns_between, Clock, CostVector, Counter, FlightRecorder, Gauge, Histogram, Registry,
    RegistrySnapshot, RequestTrace, SpanContext, SpanEvent, SpanLog, TraceId,
};

use crate::merge::merge_topk;
use crate::partition::shard_of;
use crate::shard::{Shard, ShardContent, ShardJob, ShardSemantic};

/// Which member index of a fused modality source a scatter targets.
#[derive(Debug, Clone, Copy)]
enum Member {
    Content,
    Semantic,
}

/// Span ids the router mints for its per-shard child spans live in a
/// disjoint high-bit range, so they can never collide with the request
/// trace's own (small, sequential) span ids when grafted into its tree.
const REMOTE_SPAN_BIT: u32 = 0x8000_0000;

/// Maintenance traces (mutation routing, stats re-merge) get ids from
/// their own namespace, far above any request trace id the service mints.
pub const MAINT_TRACE_BASE: u64 = 1 << 48;

/// Child spans each shard's `SpanLog` retains, per shard.
const SPAN_LOG_CAPACITY: usize = 512;

/// What one traced query observed of one shard during scatter/gather,
/// aggregated across the content and semantic members so exactly one
/// `shard-{i}` child span records per shard per query.
#[derive(Debug, Clone, Copy, Default)]
struct ShardProbe {
    /// The shard ran at least one member search for this query.
    searched: bool,
    /// Hits the shard returned, summed over members.
    hits: usize,
    /// Hits that survived the k-way member merges (merge contribution).
    merged: usize,
    /// Worst queue wait (submit → job start) across members.
    queue_ns: u64,
    /// Scan time, summed over members (batch scatters record an even
    /// per-query share).
    scan_ns: u64,
}

/// Per-shard observability: request counters and a latency histogram,
/// all labeled `{shard="i"}` so a sick shard shows as its own series
/// instead of hiding inside a cluster average (a per-shard SLO burn rate
/// is a query over `verifai_shard_latency_seconds`).
struct ShardSeries {
    searches: Arc<Counter>,
    inline_runs: Arc<Counter>,
    mutations: Arc<Counter>,
    latency: Arc<Histogram>,
}

/// Router-owned metrics registry (separate from the serving tier's so the
/// cluster layer stays usable without a service in front of it).
struct RouterObs {
    registry: Registry,
    shards: Vec<ShardSeries>,
    /// Cluster-wide generation watermark mirror (the authoritative value is
    /// the router's atomic).
    watermark: Arc<Gauge>,
}

impl RouterObs {
    fn new(n: usize) -> RouterObs {
        let registry = Registry::new();
        let watermark = registry.gauge(
            "verifai_lake_generation_watermark",
            "Highest lake generation every shard index has applied",
            &[],
        );
        let shards = (0..n)
            .map(|i| {
                let shard = i.to_string();
                let labels: &[(&'static str, &str)] = &[("shard", &shard)];
                ShardSeries {
                    searches: registry.counter(
                        "verifai_shard_searches_total",
                        "Member searches executed by this shard",
                        labels,
                    ),
                    inline_runs: registry.counter(
                        "verifai_shard_inline_total",
                        "Searches run inline on the router thread because the shard queue was full",
                        labels,
                    ),
                    mutations: registry.counter(
                        "verifai_shard_mutations_total",
                        "Live index mutations routed to this shard",
                        labels,
                    ),
                    latency: registry.histogram(
                        "verifai_shard_latency_seconds",
                        "Per-shard member search latency",
                        labels,
                    ),
                }
            })
            .collect();
        RouterObs {
            registry,
            shards,
            watermark,
        }
    }
}

/// Scatter/gather retrieval over a set of [`Shard`]s.
///
/// For each member index family (content, semantic) the router fans the
/// query out to every shard's worker pool, gathers the per-shard top-k
/// lists, and k-way-merges them ([`merge_topk`]); the merged *member*
/// lists are then fused by the same [`Combiner`] the single-lake pipeline
/// uses. Merging per member **before** fusion matters: reciprocal-rank
/// fusion is rank-based, so fusing per shard and merging afterwards would
/// compute ranks over partial lists and break the identity invariant.
pub struct Router {
    shards: Vec<Shard>,
    combiner: Combiner,
    use_content: bool,
    use_semantic: bool,
    /// Embeds mutated instances' semantic entries; `None` when semantic
    /// retrieval is disabled.
    embedder: Option<TextEmbedder>,
    /// Cluster-wide generation watermark: the highest lake generation whose
    /// index consequences every owning shard has applied. Readers seeing
    /// watermark ≥ G observe all mutations up to G.
    watermark: AtomicU64,
    /// Serializes mutation application (stats re-merge must not interleave).
    mutate_lock: Mutex<()>,
    obs: RouterObs,
    clock: Arc<dyn Clock>,
    /// One bounded child-span log per shard: traced queries append their
    /// `shard-{i}` spans here, and [`Router::lookup_trace`] grafts them
    /// back into the parent trace's tree.
    span_logs: Vec<SpanLog>,
    /// Allocator for router-minted span ids (ORed with [`REMOTE_SPAN_BIT`]).
    next_remote_span: AtomicU32,
    /// Flight recorder for maintenance traces (mutation routing + stats
    /// re-merge), separate from the serving tier's request recorder.
    maint_recorder: FlightRecorder,
    /// Sequence for maintenance trace ids under [`MAINT_TRACE_BASE`].
    maint_seq: AtomicU64,
    /// The serving tier's request recorder, when one is attached —
    /// [`Router::lookup_trace`] resolves request trace ids through it.
    recorder: Mutex<Option<Arc<FlightRecorder>>>,
}

impl Router {
    /// A router over `shards` fusing member results with `combiner`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        shards: Vec<Shard>,
        combiner: Combiner,
        use_content: bool,
        use_semantic: bool,
        embedder: Option<TextEmbedder>,
        generation: u64,
        clock: Arc<dyn Clock>,
    ) -> Router {
        let obs = RouterObs::new(shards.len());
        obs.watermark.set(generation as i64);
        let span_logs = (0..shards.len())
            .map(|_| SpanLog::new(SPAN_LOG_CAPACITY))
            .collect();
        Router {
            shards,
            combiner,
            use_content,
            use_semantic,
            embedder,
            watermark: AtomicU64::new(generation),
            mutate_lock: Mutex::new(()),
            obs,
            clock,
            span_logs,
            next_remote_span: AtomicU32::new(1),
            maint_recorder: FlightRecorder::new(32, 8),
            maint_seq: AtomicU64::new(1),
            recorder: Mutex::new(None),
        }
    }

    /// Number of shards behind this router.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The cluster-wide generation watermark: every mutation up to this
    /// lake generation is visible on all shards.
    pub fn generation_watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// Route a batch of index ops (one lake mutation's consequences) to the
    /// owning shards, re-merge the global BM25 statistics for the touched
    /// modalities, and advance the watermark to `generation`.
    ///
    /// Serialized internally: concurrent calls apply one at a time, so the
    /// shared statistics every shard scores with always describe a
    /// mutation-boundary state.
    pub fn apply_ops(&self, ops: Vec<IndexOp>, generation: u64) -> MutationOutcome {
        let _guard = self.mutate_lock.lock();
        let started = self.clock.now();
        let n = self.shards.len();
        let total_ops = ops.len();
        let mut per_shard_ops = vec![0usize; n];
        let mut content_ops = 0;
        let mut embedded = 0;
        let mut touched = [false; 4];
        for op in ops {
            let slot = slot_of(op.id.kind());
            let owner = shard_of(op.id, n);
            let shard = &self.shards[owner];
            if let Some(content) = &shard.content[slot] {
                let mut index = content.write();
                if let Some(old) = &op.remove {
                    index.remove(op.id, old);
                    content_ops += 1;
                }
                if let Some(new) = &op.add {
                    index.add(op.id, new);
                    content_ops += 1;
                }
                touched[slot] = true;
            }
            if let (Some(semantic), Some(embedder)) = (&shard.semantic[slot], &self.embedder) {
                let mut index = semantic.write();
                if op.remove.is_some() {
                    index.remove(op.id);
                }
                if let Some(new) = &op.add {
                    for text in verifai::semantic_texts(op.id, new) {
                        index.add(op.id, embedder.embed(&text));
                        embedded += 1;
                    }
                }
            }
            self.obs.shards[owner].mutations.inc();
            per_shard_ops[owner] += 1;
        }
        let routed_at = self.clock.now();
        // Re-merge global BM25 statistics for every touched modality, so
        // shard-local scoring keeps using whole-corpus idf and average
        // length (the identity invariant's first mechanism).
        for (slot, touched) in touched.iter().enumerate() {
            if !touched {
                continue;
            }
            let mut merged = CorpusStats::default();
            for shard in &self.shards {
                if let Some(content) = &shard.content[slot] {
                    merged.merge(&content.read().corpus_stats());
                }
            }
            let merged = Arc::new(merged);
            for shard in &self.shards {
                if let Some(content) = &shard.content[slot] {
                    content.write().set_shared_stats(merged.clone());
                }
            }
        }
        self.watermark.fetch_max(generation, Ordering::AcqRel);
        self.obs
            .watermark
            .set(self.watermark.load(Ordering::Acquire) as i64);
        // Maintenance work leaves a trace too: a `mutation` root span with
        // one child per touched shard, then the stats re-merge, recorded
        // in the router's own flight recorder under the maintenance trace
        // id namespace.
        let remerged_at = self.clock.now();
        let trace_id = MAINT_TRACE_BASE | self.maint_seq.fetch_add(1, Ordering::Relaxed);
        let mut trace = RequestTrace::new(trace_id, generation);
        let routing_ns = ns_between(started, routed_at);
        let parent = trace.span(
            "mutation",
            routing_ns,
            total_ops,
            content_ops,
            format!("generation {generation}"),
        );
        for (i, &count) in per_shard_ops.iter().enumerate() {
            if count == 0 {
                continue;
            }
            trace.child_span(
                parent,
                format!("shard-{i}"),
                0,
                routing_ns,
                count,
                count,
                String::new(),
            );
        }
        trace.span(
            "stats-remerge",
            ns_between(routed_at, remerged_at),
            0,
            0,
            String::new(),
        );
        trace.finish("maintenance", ns_between(started, remerged_at));
        self.maint_recorder.record(trace);
        MutationOutcome {
            generation,
            content_ops,
            embedded,
        }
    }

    /// Instances owned by each shard, in shard order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(Shard::instances).collect()
    }

    /// Content segments standing on each shard (summed over its
    /// modalities), in shard order.
    pub fn content_segments(&self) -> Vec<usize> {
        self.shards.iter().map(Shard::content_segments).collect()
    }

    /// Member searches each shard has executed, in shard order.
    pub fn searches_per_shard(&self) -> Vec<u64> {
        self.obs.shards.iter().map(|s| s.searches.get()).collect()
    }

    /// Scatter one member search to every shard and merge the results.
    /// When `probes` is given (the query is traced), each shard's queue
    /// wait, scan time, hit count, and merge contribution accumulate into
    /// its slot for the per-shard child span recorded by the caller.
    fn scatter_member(
        &self,
        slot: usize,
        member: Member,
        query: SourceQuery<'_>,
        k: usize,
        mut probes: Option<&mut Vec<ShardProbe>>,
    ) -> Vec<SearchHit> {
        // Semantic members without a query vector return nothing anywhere;
        // skip the fan-out entirely.
        if matches!(member, Member::Semantic) && query.vector.is_none() {
            return Vec::new();
        }
        let n = self.shards.len();
        let (tx, rx) = channel::bounded::<(usize, Vec<SearchHit>, u64, u64, CostVector)>(n);
        let text: Arc<str> = Arc::from(query.text);
        let vector: Option<Arc<Vector>> = query.vector.map(|v| Arc::new(v.clone()));
        enum Target {
            Content(ShardContent),
            Semantic(ShardSemantic),
        }
        let mut expected = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            let target = match member {
                Member::Content => shard.content[slot].clone().map(Target::Content),
                Member::Semantic => shard.semantic[slot].clone().map(Target::Semantic),
            };
            let Some(target) = target else { continue };
            expected += 1;
            let tx = tx.clone();
            let text = text.clone();
            let vector = vector.clone();
            let clock = self.clock.clone();
            let submitted = clock.now();
            let job: ShardJob = Box::new(move || {
                let start = clock.now();
                // Harvest the scan's resource charges off whichever thread
                // ran the job (shard worker or, on backpressure, the router
                // thread itself) and ship them home with the hits — the
                // gather loop re-charges them into the requesting thread.
                let (hits, cost) = meter::scoped(|| match &target {
                    Target::Content(index) => index.read().search(&text, k),
                    Target::Semantic(index) => match &vector {
                        Some(v) => VectorIndex::search(&*index.read(), v, k),
                        None => Vec::new(),
                    },
                });
                let _ = tx.send((
                    i,
                    hits,
                    ns_between(submitted, start),
                    ns_between(start, clock.now()),
                    cost,
                ));
            });
            if let Err(job) = shard.try_submit(job) {
                // Bounded-queue backpressure: the query still completes, it
                // just pays for this shard's scan on the router thread.
                self.obs.shards[i].inline_runs.inc();
                job();
            }
        }
        drop(tx);
        let mut lists = vec![Vec::new(); n];
        let mut responses = 0u64;
        for _ in 0..expected {
            let Ok((i, hits, queue_ns, scan_ns, cost)) = rx.recv() else {
                break;
            };
            meter::charge_cost(&cost);
            responses += 1;
            let series = &self.obs.shards[i];
            series.searches.inc();
            series
                .latency
                .record(std::time::Duration::from_nanos(scan_ns));
            if let Some(probes) = probes.as_deref_mut() {
                let probe = &mut probes[i];
                probe.searched = true;
                probe.hits += hits.len();
                probe.queue_ns = probe.queue_ns.max(queue_ns);
                probe.scan_ns += scan_ns;
            }
            lists[i] = hits;
        }
        // Fanout is the responses actually merged. Shard queue wait is not
        // charged: it overlaps the retrieval wall time the request already
        // reports, and stays visible in the `shard-{i}` spans.
        meter::charge_shard_fanout(responses);
        let merged = merge_topk(&lists, k);
        if let Some(probes) = probes {
            credit_merge_contributions(&merged, &lists, probes);
        }
        merged
    }

    /// Scatter one member's whole query batch: one job per shard carries
    /// every query, so a flat semantic shard amortizes a single blocked
    /// sweep of its code array across the batch (and a content shard takes
    /// its read lock once). Returns the per-query merged lists in `queries`
    /// order, identical to per-query [`Router::scatter_member`] calls.
    fn scatter_member_batch(
        &self,
        slot: usize,
        member: Member,
        queries: &[SourceQuery<'_>],
        k: usize,
        mut probes: Option<&mut Vec<Vec<ShardProbe>>>,
    ) -> Vec<Vec<SearchHit>> {
        let batch = queries.len();
        let has_vector: Arc<Vec<bool>> =
            Arc::new(queries.iter().map(|q| q.vector.is_some()).collect());
        let dense: Arc<Vec<Vector>> =
            Arc::new(queries.iter().filter_map(|q| q.vector.cloned()).collect());
        if matches!(member, Member::Semantic) && dense.is_empty() {
            return vec![Vec::new(); batch];
        }
        let texts: Arc<Vec<String>> =
            Arc::new(queries.iter().map(|q| q.text.to_string()).collect());
        let n = self.shards.len();
        let (tx, rx) = channel::bounded::<(usize, Vec<Vec<SearchHit>>, u64, u64, CostVector)>(n);
        enum Target {
            Content(ShardContent),
            Semantic(ShardSemantic),
        }
        let mut expected = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            let target = match member {
                Member::Content => shard.content[slot].clone().map(Target::Content),
                Member::Semantic => shard.semantic[slot].clone().map(Target::Semantic),
            };
            let Some(target) = target else { continue };
            expected += 1;
            let tx = tx.clone();
            let texts = texts.clone();
            let dense = dense.clone();
            let has_vector = has_vector.clone();
            let clock = self.clock.clone();
            let submitted = clock.now();
            let job: ShardJob = Box::new(move || {
                let start = clock.now();
                // Same harvest-and-ship as `scatter_member`: the whole
                // batch's scan cost rides home in one vector and is split
                // per request by the caller's batch attribution.
                let (per_query, cost) = meter::scoped(|| -> Vec<Vec<SearchHit>> {
                    match &target {
                        Target::Content(index) => {
                            let index = index.read();
                            texts.iter().map(|t| index.search(t, k)).collect()
                        }
                        Target::Semantic(index) => {
                            let mut results =
                                VectorIndex::search_batch(&*index.read(), &dense, k).into_iter();
                            has_vector
                                .iter()
                                .map(|&has| {
                                    if has {
                                        results.next().unwrap_or_default()
                                    } else {
                                        Vec::new()
                                    }
                                })
                                .collect()
                        }
                    }
                });
                let _ = tx.send((
                    i,
                    per_query,
                    ns_between(submitted, start),
                    ns_between(start, clock.now()),
                    cost,
                ));
            });
            if let Err(job) = shard.try_submit(job) {
                self.obs.shards[i].inline_runs.inc();
                job();
            }
        }
        drop(tx);
        let mut per_shard: Vec<Vec<Vec<SearchHit>>> = vec![Vec::new(); n];
        let mut responses = 0u64;
        for _ in 0..expected {
            let Ok((i, per_query, queue_ns, scan_ns, cost)) = rx.recv() else {
                break;
            };
            meter::charge_cost(&cost);
            responses += 1;
            let series = &self.obs.shards[i];
            series.searches.add(batch as u64);
            series
                .latency
                .record(std::time::Duration::from_nanos(scan_ns));
            if let Some(probes) = probes.as_deref_mut() {
                // Queue wait is shared by the whole batch; scan time is
                // credited as an even per-query share, mirroring how
                // `discover_batch` splits its stage wall times.
                for (qi, hits) in per_query.iter().enumerate() {
                    let probe = &mut probes[qi][i];
                    probe.searched = true;
                    probe.hits += hits.len();
                    probe.queue_ns = probe.queue_ns.max(queue_ns);
                    probe.scan_ns += scan_ns / batch as u64;
                }
            }
            per_shard[i] = per_query;
        }
        // Charged `batch` times so an even per-request split leaves each
        // request seeing the full fanout — the same semantics the
        // single-query path records.
        meter::charge_shard_fanout(responses * batch as u64);
        (0..batch)
            .map(|qi| {
                let lists: Vec<Vec<SearchHit>> = per_shard
                    .iter()
                    .map(|s| s.get(qi).cloned().unwrap_or_default())
                    .collect();
                let merged = merge_topk(&lists, k);
                if let Some(probes) = probes.as_deref_mut() {
                    credit_merge_contributions(&merged, &lists, &mut probes[qi]);
                }
                merged
            })
            .collect()
    }

    /// Scatter/gather retrieval for one modality: the routed equivalent of
    /// the single-lake fused source's `search`.
    pub fn search(&self, kind: InstanceKind, query: SourceQuery<'_>, k: usize) -> Vec<SearchHit> {
        let slot = slot_of(kind);
        let mut probes = query
            .ctx
            .is_live()
            .then(|| vec![ShardProbe::default(); self.shards.len()]);
        let mut lists: Vec<Vec<SearchHit>> = Vec::with_capacity(2);
        if self.use_content {
            let merged = self.scatter_member(slot, Member::Content, query, k, probes.as_mut());
            if !merged.is_empty() {
                lists.push(merged);
            }
        }
        if self.use_semantic {
            let merged = self.scatter_member(slot, Member::Semantic, query, k, probes.as_mut());
            if !merged.is_empty() {
                lists.push(merged);
            }
        }
        if let Some(probes) = probes {
            self.record_shard_spans(query.ctx, k, &probes, 1);
        }
        self.combiner.combine(&lists, k)
    }

    /// Batched scatter/gather for one modality: each member fans the whole
    /// batch out once (one job per shard), then the per-query member lists
    /// fuse exactly as [`Router::search`] would. Results are identical to
    /// per-query `search` calls.
    pub fn search_batch(
        &self,
        kind: InstanceKind,
        queries: &[SourceQuery<'_>],
        k: usize,
    ) -> Vec<Vec<SearchHit>> {
        let slot = slot_of(kind);
        let n = self.shards.len();
        let mut probes = queries
            .iter()
            .any(|q| q.ctx.is_live())
            .then(|| vec![vec![ShardProbe::default(); n]; queries.len()]);
        let content = self
            .use_content
            .then(|| self.scatter_member_batch(slot, Member::Content, queries, k, probes.as_mut()));
        let semantic = self.use_semantic.then(|| {
            self.scatter_member_batch(slot, Member::Semantic, queries, k, probes.as_mut())
        });
        if let Some(probes) = &probes {
            for (query, probe_row) in queries.iter().zip(probes) {
                if query.ctx.is_live() {
                    self.record_shard_spans(query.ctx, k, probe_row, queries.len());
                }
            }
        }
        (0..queries.len())
            .map(|qi| {
                let mut lists: Vec<Vec<SearchHit>> = Vec::with_capacity(2);
                for member in [&content, &semantic].into_iter().flatten() {
                    if !member[qi].is_empty() {
                        lists.push(member[qi].clone());
                    }
                }
                self.combiner.combine(&lists, k)
            })
            .collect()
    }

    /// Record one `shard-{i}` child span per probed shard into that
    /// shard's span log, under `ctx`'s trace and parent span. `co_batch`
    /// is how many queries shared the scatter (1 for unbatched).
    fn record_shard_spans(
        &self,
        ctx: SpanContext,
        k: usize,
        probes: &[ShardProbe],
        co_batch: usize,
    ) {
        for (i, probe) in probes.iter().enumerate() {
            if !probe.searched {
                continue;
            }
            let span_id = REMOTE_SPAN_BIT | self.next_remote_span.fetch_add(1, Ordering::Relaxed);
            let mut note = format!(
                "k {k} merged {} queue {}us scan {}us",
                probe.merged,
                probe.queue_ns / 1_000,
                probe.scan_ns / 1_000
            );
            if co_batch > 1 {
                note.push_str(&format!(" batch of {co_batch}"));
            }
            self.span_logs[i].record(
                ctx.trace_id,
                SpanEvent {
                    stage: format!("shard-{i}").into(),
                    span_id,
                    parent_id: ctx.span_id,
                    // Relative to the parent: the queue wait offsets the
                    // scan, so Perfetto shows wait vs. work per shard.
                    start_ns: probe.queue_ns,
                    duration_ns: probe.scan_ns,
                    candidates_in: probe.hits,
                    candidates_out: probe.merged,
                    note,
                },
            );
        }
    }

    /// Stitch the full distributed span tree for `trace_id`: the parent
    /// trace (from the attached service recorder, falling back to the
    /// router's maintenance recorder) with every shard's child spans
    /// grafted in. `None` if no recorder retained the trace.
    pub fn lookup_trace(&self, trace_id: TraceId) -> Option<RequestTrace> {
        let parent = self
            .recorder
            .lock()
            .as_ref()
            .and_then(|r| r.lookup(trace_id))
            .or_else(|| self.maint_recorder.lookup(trace_id))?;
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

    /// The router's maintenance-trace recorder (mutation routing, stats
    /// re-merge work recorded by [`Router::apply_ops`]).
    pub fn maintenance_recorder(&self) -> &FlightRecorder {
        &self.maint_recorder
    }

    /// Snapshot the router's per-shard metric series; a pure read. Render
    /// with [`verifai_obs::render_prometheus`] or
    /// [`verifai_obs::render_json`] — series carry `{shard="i"}` labels.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.obs.registry.snapshot()
    }
}

/// Credit each shard's contribution to a k-way member merge: how many of
/// the merged top-k came from that shard's list.
fn credit_merge_contributions(
    merged: &[SearchHit],
    lists: &[Vec<SearchHit>],
    probes: &mut [ShardProbe],
) {
    for (i, list) in lists.iter().enumerate() {
        if list.is_empty() {
            continue;
        }
        probes[i].merged += merged
            .iter()
            .filter(|hit| list.iter().any(|own| own.id == hit.id))
            .count();
    }
}

/// The staged pipeline's modality slot for `kind` (same mapping as
/// `StagedPipeline`: tuples, tables, texts, kg).
fn slot_of(kind: InstanceKind) -> usize {
    match kind {
        InstanceKind::Tuple => 0,
        InstanceKind::Table => 1,
        InstanceKind::Text => 2,
        InstanceKind::Kg => 3,
    }
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

    fn search_batch(&self, queries: &[SourceQuery<'_>], k: usize) -> Vec<Vec<SearchHit>> {
        self.router.search_batch(self.kind, queries, k)
    }
}
