//! The verification service: admission control, micro-batching workers,
//! deadlines, and graceful shutdown.
//!
//! ## Request lifecycle
//!
//! ```text
//! submit ──► bounded queue ──► worker wakeup ──► micro-batch (≤ max_batch)
//!   │ full?                      │ depth > high_water?
//!   ▼                            ▼
//! Rejected(QueueFull)          Shed                ──► evidence cache ──►
//!                                                      verify (deadline-
//!                                                      bounded) ──► ticket
//! ```
//!
//! Every submitted request resolves exactly one way — `Rejected` at the
//! door, `Shed` at dequeue, `Failed` on a typed pipeline error, or
//! `Completed` — so `completed + shed + rejected + failed == submitted`
//! once all tickets resolve.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use verifai::exec::WorkerPool;
use verifai::{
    CostVector, DataObject, ObsConfig, PipelineError, RequestTrace, StageTiming, TraceId, Verdict,
    VerifAi, VerificationReport, Views,
};
use verifai_lake::InstanceId;
use verifai_obs::{meter, ns_between, render_json, render_prometheus, SpanContext};

use crate::cache::{CachedEvidence, EvidenceCache, EvidenceKey};
use crate::obs::ServiceObs;
use crate::stats::ServiceStats;
use crate::tenants::{EnqueueError, TenantScheduler, TenantSpec};

/// Lock shards of the evidence cache.
const CACHE_SHARDS: usize = 8;

/// Tuning knobs for a [`VerificationService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Load-shedding threshold: a request dequeued while more than this many
    /// requests still wait behind it is shed instead of processed.
    pub high_water: usize,
    /// Maximum requests a worker coalesces per wakeup.
    pub max_batch: usize,
    /// Total evidence-cache entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Deadline applied to requests submitted without an explicit one.
    pub default_deadline: Option<Duration>,
    /// Tenant QoS contracts. Empty (the default) keeps the single shared
    /// FIFO; non-empty splits admission into weighted-fair per-tenant
    /// queues with token-bucket rate quotas — `queue_capacity` and
    /// `high_water` are then divided among tenants in weight proportion,
    /// and [`VerificationService::submit`] maps to the first tenant.
    pub tenants: Vec<TenantSpec>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            queue_capacity: 256,
            high_water: 192,
            max_batch: 8,
            cache_capacity: 1024,
            default_deadline: None,
            tenants: Vec::new(),
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue (or the tenant's share of it) is at capacity, or
    /// the service is shutting down.
    QueueFull,
    /// The tenant's token-bucket rate quota is exhausted.
    Throttled,
    /// No tenant with the submitted name is configured.
    UnknownTenant,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("verification queue is full"),
            SubmitError::Throttled => f.write_str("tenant rate quota exhausted"),
            SubmitError::UnknownTenant => f.write_str("unknown tenant"),
        }
    }
}

/// Final disposition of an admitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutcome {
    /// Verification ran; deadline-partial reports carry decision
    /// [`Verdict::Unknown`].
    Completed(VerificationReport),
    /// Dropped unprocessed by high-water load shedding.
    Shed,
    /// The pipeline hit a typed error (e.g. batch-local cached evidence
    /// went stale against the lake) — no report was produced.
    Failed(PipelineError),
}

/// Handle to one admitted request's eventual outcome.
pub struct Ticket {
    rx: Receiver<RequestOutcome>,
}

impl Ticket {
    /// Block until the request resolves. Workers answer every admitted
    /// request — including during shutdown drain — so this cannot hang.
    pub fn wait(self) -> RequestOutcome {
        self.rx
            .recv()
            .expect("service answers every admitted request")
    }

    /// The outcome, if already resolved.
    pub fn try_wait(&self) -> Option<RequestOutcome> {
        self.rx.try_recv().ok()
    }
}

struct Request {
    object: DataObject,
    deadline: Option<Instant>,
    enqueued: Instant,
    trace_id: TraceId,
    tenant: usize,
    reply: Sender<RequestOutcome>,
}

/// What travels through the worker channel. Without tenants, requests ride
/// the channel directly (it *is* the admission queue). With tenants,
/// requests wait in the scheduler's per-tenant queues and the channel
/// carries wake tokens — one per enqueue — so workers pull in
/// weighted-fair order instead of channel FIFO order.
enum Job {
    Direct(Box<Request>),
    Wake,
}

struct Inner {
    system: Arc<VerifAi>,
    config: ServiceConfig,
    cache: Option<EvidenceCache>,
    obs: ServiceObs,
    scheduler: Option<TenantScheduler<Request>>,
}

/// A long-lived concurrent verification service over a shared [`VerifAi`].
pub struct VerificationService {
    inner: Arc<Inner>,
    pool: WorkerPool<Job>,
}

impl VerificationService {
    /// Stand up workers over `system` with the given tuning and default
    /// (enabled) observability.
    pub fn new(system: Arc<VerifAi>, config: ServiceConfig) -> VerificationService {
        VerificationService::with_obs(system, config, ObsConfig::default())
    }

    /// [`VerificationService::new`] with explicit observability tuning —
    /// [`ObsConfig::off`] for a zero-overhead hot path, or a mock clock for
    /// deterministic latency tests.
    pub fn with_obs(
        system: Arc<VerifAi>,
        config: ServiceConfig,
        obs_config: ObsConfig,
    ) -> VerificationService {
        let cache = (config.cache_capacity > 0)
            .then(|| EvidenceCache::new(CACHE_SHARDS, config.cache_capacity));
        let tenant_names: Vec<String> = config.tenants.iter().map(|t| t.name.clone()).collect();
        let obs = ServiceObs::new(obs_config, &tenant_names);
        obs.set_index_build_ns(system.build_stats().index_ns);
        let scheduler = (!config.tenants.is_empty()).then(|| {
            TenantScheduler::new(
                config.tenants.clone(),
                config.queue_capacity,
                config.high_water,
                obs.config().clock.clone(),
            )
        });
        // With tenants, the channel carries one wake token per queued
        // request, so it must hold as many tokens as the tenant queues hold
        // requests.
        let channel_capacity = scheduler
            .as_ref()
            .map(TenantScheduler::total_capacity)
            .unwrap_or(config.queue_capacity);
        let inner = Arc::new(Inner {
            system,
            cache,
            obs,
            scheduler,
            config: config.clone(),
        });
        let worker_inner = Arc::clone(&inner);
        let pool = WorkerPool::new(config.workers, Some(channel_capacity), move |rx, first| {
            handle_wakeup(&worker_inner, rx, first)
        });
        VerificationService { inner, pool }
    }

    /// The service's observability bundle (registry, flight recorder,
    /// clock).
    pub fn obs(&self) -> &ServiceObs {
        &self.inner.obs
    }

    /// Submit with the configured default deadline. With tenants
    /// configured, the request is accounted to the first tenant.
    pub fn submit(&self, object: DataObject) -> Result<Ticket, SubmitError> {
        self.submit_with_deadline(object, self.inner.config.default_deadline)
    }

    /// Submit on behalf of a named tenant, with the default deadline.
    pub fn submit_for(&self, tenant: &str, object: DataObject) -> Result<Ticket, SubmitError> {
        self.submit_for_with_deadline(tenant, object, self.inner.config.default_deadline)
    }

    /// Submit on behalf of a named tenant with an explicit deadline. The
    /// tenant's token bucket and queue share gate admission; an unknown
    /// name is rejected. Without configured tenants this falls back to the
    /// shared queue.
    pub fn submit_for_with_deadline(
        &self,
        tenant: &str,
        object: DataObject,
        deadline: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        let Some(scheduler) = &self.inner.scheduler else {
            return self.submit_with_deadline(object, deadline);
        };
        let Some(index) = scheduler.resolve(tenant) else {
            self.inner.obs.on_submitted();
            self.inner.obs.on_rejected();
            return Err(SubmitError::UnknownTenant);
        };
        self.submit_tenant(index, object, deadline)
    }

    /// Submit with an explicit per-request deadline budget (`None` = no
    /// deadline). Admission control is non-blocking: a full queue rejects
    /// immediately rather than applying backpressure to the caller.
    pub fn submit_with_deadline(
        &self,
        object: DataObject,
        deadline: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        if self.inner.scheduler.is_some() {
            return self.submit_tenant(0, object, deadline);
        }
        self.inner.obs.on_submitted();
        let now = self.inner.obs.config().clock.now();
        let (reply, rx) = bounded(1);
        let request = Request {
            object,
            deadline: deadline.map(|d| now + d),
            enqueued: now,
            trace_id: self.inner.obs.allocate_trace_id(),
            tenant: 0,
            reply,
        };
        match self.pool.try_submit(Job::Direct(Box::new(request))) {
            Ok(()) => Ok(Ticket { rx }),
            Err(_) => {
                self.inner.obs.on_rejected();
                Err(SubmitError::QueueFull)
            }
        }
    }

    /// Tenant-mode admission: token bucket, then the tenant's queue share,
    /// then a worker wake token.
    fn submit_tenant(
        &self,
        tenant: usize,
        object: DataObject,
        deadline: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        let scheduler = self
            .inner
            .scheduler
            .as_ref()
            .expect("tenant submit requires a scheduler");
        self.inner.obs.on_submitted();
        let now = self.inner.obs.config().clock.now();
        let (reply, rx) = bounded(1);
        let request = Request {
            object,
            deadline: deadline.map(|d| now + d),
            enqueued: now,
            trace_id: self.inner.obs.allocate_trace_id(),
            tenant,
            reply,
        };
        match scheduler.try_enqueue(tenant, request) {
            Ok(()) => {
                // One wake per enqueue. The channel holds `total_capacity`
                // tokens — at least as many as requests can be queued — so
                // a refused wake means enough wakes are already pending to
                // drain every queued request.
                let _ = self.pool.try_submit(Job::Wake);
                Ok(Ticket { rx })
            }
            Err((EnqueueError::Throttled, _)) => {
                self.inner.obs.on_throttled();
                self.inner.obs.tenant_throttled(tenant);
                Err(SubmitError::Throttled)
            }
            Err((EnqueueError::QueueFull, _)) => {
                self.inner.obs.on_rejected();
                self.inner.obs.tenant_rejected(tenant);
                Err(SubmitError::QueueFull)
            }
        }
    }

    /// Requests waiting for a worker — the shared channel without tenants,
    /// the scheduler's per-tenant queues with them.
    fn queue_depth(&self) -> usize {
        match &self.inner.scheduler {
            Some(scheduler) => scheduler.queued(),
            None => self.pool.queue_len(),
        }
    }

    /// Current counters, gauges, cache state, and latency quantiles.
    pub fn stats(&self) -> ServiceStats {
        let obs = &self.inner.obs;
        let (submitted, completed, shed, rejected, throttled, failed) = obs.counts();
        let latency = obs.latency_snapshot();
        let mut tenants = obs.tenant_stats();
        if let Some(scheduler) = &self.inner.scheduler {
            for (index, tenant) in tenants.iter_mut().enumerate() {
                tenant.queued = scheduler.queued_for(index);
            }
        }
        ServiceStats {
            submitted,
            completed,
            shed,
            rejected,
            throttled,
            failed,
            tenants,
            queue_depth: self.queue_depth(),
            in_flight: obs.in_flight(),
            index_build_ns: self.inner.system.build_stats().index_ns,
            lake: self.inner.system.live_stats(),
            stages: obs.stage_totals(),
            stage_latency: obs.stage_latency_snapshot(),
            verdicts: obs.verdict_counts(),
            traces_recorded: obs.recorder().recorded(),
            traces_sampled_out: obs.recorder().sampled_out(),
            cost: obs.cost_totals(),
            cache: self
                .inner
                .cache
                .as_ref()
                .map(EvidenceCache::stats)
                .unwrap_or_default(),
            latency_mean: latency.mean(),
            latency_p50: latency.quantile(0.50),
            latency_p95: latency.quantile(0.95),
            latency_p99: latency.quantile(0.99),
            latency,
        }
    }

    /// The current metrics in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let cache = self
            .inner
            .cache
            .as_ref()
            .map(EvidenceCache::stats)
            .unwrap_or_default();
        self.inner.obs.refresh_lake(&self.inner.system.live_stats());
        render_prometheus(&self.inner.obs.snapshot(self.queue_depth(), &cache))
    }

    /// The current metrics as a JSON object (bench artifacts, dashboards).
    pub fn render_json_snapshot(&self) -> serde_json::Value {
        let cache = self
            .inner
            .cache
            .as_ref()
            .map(EvidenceCache::stats)
            .unwrap_or_default();
        self.inner.obs.refresh_lake(&self.inner.system.live_stats());
        render_json(&self.inner.obs.snapshot(self.queue_depth(), &cache))
    }

    /// Stop admitting, drain already-admitted requests, join the workers,
    /// and return the final stats. Dropping the service without calling this
    /// performs the same drain.
    pub fn shutdown(mut self) -> ServiceStats {
        self.pool.shutdown();
        // Tenant mode: every queued request carried a wake token, so the
        // drain above has already emptied the scheduler — but wake
        // conservation is a cross-thread argument, not a local invariant,
        // so sweep defensively: any straggler still gets its answer.
        if let Some(scheduler) = &self.inner.scheduler {
            let mut local = HashMap::new();
            let warm = WarmEvidence::new();
            while let Some((_, request, _)) = scheduler.pop() {
                self.inner.obs.in_flight_add(1);
                let key = evidence_key(&request.object);
                process(&self.inner, request, key, &mut local, &warm);
                self.inner.obs.in_flight_add(-1);
            }
        }
        self.stats()
    }
}

/// One worker wakeup, dispatched on what woke it: a request riding the
/// channel directly (single-queue mode), or a wake token standing in for a
/// request waiting in the tenant scheduler.
fn handle_wakeup(inner: &Inner, rx: &Receiver<Job>, first: Job) {
    match first {
        Job::Direct(request) => handle_direct(inner, rx, *request),
        Job::Wake => handle_tenant_wakeup(inner),
    }
}

/// Single-queue mode: coalesce up to `max_batch` pending requests, group
/// them by object kind (same evidence plan), and process each group with
/// batch-local query coalescing.
fn handle_direct(inner: &Inner, rx: &Receiver<Job>, first: Request) {
    let mut batch = vec![first];
    while batch.len() < inner.config.max_batch.max(1) {
        match rx.try_recv() {
            Ok(Job::Direct(request)) => batch.push(*request),
            // Wake tokens never share a channel with direct requests.
            Ok(Job::Wake) => {}
            Err(_) => break,
        }
    }
    inner.obs.in_flight_add(batch.len() as i64);
    // Load shedding: everything we dequeued while the backlog behind it
    // still exceeds the high-water mark is dropped unprocessed, which
    // drains an overloaded queue at dequeue speed instead of verify speed.
    let backlog = rx.len();
    if backlog > inner.config.high_water {
        for request in batch {
            inner.obs.in_flight_add(-1);
            shed_request(inner, request, backlog);
        }
        return;
    }
    process_batch(inner, batch);
}

/// Tenant mode: pull up to `max_batch` requests in weighted-fair order,
/// applying each tenant's own high-water shedding at dequeue — an
/// overloaded tenant drains at dequeue speed while its neighbors' queues
/// are untouched.
fn handle_tenant_wakeup(inner: &Inner) {
    let Some(scheduler) = &inner.scheduler else {
        return;
    };
    let mut batch = Vec::new();
    while batch.len() < inner.config.max_batch.max(1) {
        let Some((tenant, request, remaining)) = scheduler.pop() else {
            break;
        };
        if remaining > scheduler.high_water(tenant) {
            inner.obs.tenant_shed(tenant);
            shed_request(inner, request, remaining);
        } else {
            batch.push(request);
        }
    }
    inner.obs.in_flight_add(batch.len() as i64);
    process_batch(inner, batch);
}

/// Answer one dequeued request with `Shed`, tracing the queue wait.
fn shed_request(inner: &Inner, request: Request, backlog: usize) {
    inner.obs.on_shed();
    let queue_ns = ns_between(request.enqueued, inner.obs.config().clock.now());
    let mut trace = inner.obs.begin_trace(request.trace_id, request.object.id());
    trace.span("queue", queue_ns, 0, 0, format!("shed: backlog {backlog}"));
    trace.finish("shed", queue_ns);
    inner.obs.record_trace(trace);
    let _ = request.reply.send(RequestOutcome::Shed);
}

/// Stable partition into same-kind groups: within a group every object
/// shares an evidence plan, so identical queries coalesce to one discovery
/// even when the cross-request cache is disabled — and a group's distinct
/// uncached queries prewarm through **one batched index sweep** before the
/// per-request loop runs. Each request's cache key is built here, once, and
/// carried through the prewarm, the lookups and the insert.
fn process_batch(inner: &Inner, batch: Vec<Request>) {
    let (cells, claims): (Vec<Request>, Vec<Request>) = batch
        .into_iter()
        .partition(|r| matches!(r.object, DataObject::ImputedCell(_)));
    for group in [cells, claims] {
        let keys: Vec<EvidenceKey> = group.iter().map(|r| evidence_key(&r.object)).collect();
        let mut local = HashMap::new();
        let warm = prewarm_group(inner, &group, &keys);
        for (request, key) in group.into_iter().zip(keys) {
            process(inner, request, key, &mut local, &warm);
            inner.obs.in_flight_add(-1);
        }
    }
}

/// The key an object's evidence is cached under: its kind (tuple cells and
/// text claims have different evidence plans) and its retrieval query.
fn evidence_key(object: &DataObject) -> EvidenceKey {
    let kind = match object {
        DataObject::ImputedCell(_) => 0,
        DataObject::TextClaim(_) => 1,
    };
    EvidenceKey::new(kind, VerifAi::query_of(object))
}

/// Batch-discovered evidence keyed like the caches, consulted only at the
/// discovery points of [`evidence_for`] — cache lookups (and their
/// counters) are untouched, so serving from the warm map is
/// indistinguishable from per-request discovery except for the amortized
/// index sweep.
type WarmEvidence<'a> = HashMap<EvidenceKey, WarmEntry<'a>>;

/// One prewarmed discovery plus its batch membership: which micro-batch
/// sweep produced it and how many distinct queries rode along, and this
/// entry's even share of the sweep's harvested resource cost. The evidence
/// is read in place, borrowed from the system the service serves.
struct WarmEntry<'a> {
    evidence: Views<'a>,
    timing: StageTiming,
    batch_seq: u64,
    co_riders: usize,
    cost: CostVector,
}

/// Discover the group's distinct not-yet-cached queries through
/// [`VerifAi::discover_batch`]: one blocked multi-query scan per
/// modality covers the whole micro-batch. Groups too small to amortize
/// anything (fewer than two discoveries pending) skip the sweep and keep
/// the per-request path.
fn prewarm_group<'a>(
    inner: &'a Inner,
    group: &[Request],
    keys: &[EvidenceKey],
) -> WarmEvidence<'a> {
    if group.len() < 2 {
        return HashMap::new();
    }
    let now = inner.obs.config().clock.now();
    let generation = inner.system.lake().generation();
    let mut pending: Vec<&EvidenceKey> = Vec::new();
    let mut objects: Vec<&DataObject> = Vec::new();
    let mut ctxs: Vec<SpanContext> = Vec::new();
    for (request, key) in group.iter().zip(keys) {
        // Already-expired requests answer empty without discovery; don't
        // spend the sweep (or provenance rows) on them.
        if request.deadline.is_some_and(|d| now >= d) {
            continue;
        }
        if pending.contains(&key) {
            continue;
        }
        if inner
            .cache
            .as_ref()
            .is_some_and(|cache| cache.contains(key, generation))
        {
            continue;
        }
        objects.push(&request.object);
        // The sweep runs before any request's trace exists, so the context
        // carries the trace id with span 0; a distributed backend's shard
        // children then graft under the request's retrieval span.
        ctxs.push(SpanContext {
            trace_id: request.trace_id,
            span_id: 0,
            parent_id: 0,
        });
        pending.push(key);
    }
    if objects.len() < 2 {
        return HashMap::new();
    }
    let batch_seq = inner.obs.allocate_batch_seq();
    let co_riders = objects.len();
    // Harvest the sweep's resource cost off the worker's tally and split
    // it evenly across the batch members; each share is re-charged when
    // (and only when) the owning request is processed, so the blocked
    // sweep meters exactly like `co_riders` independent discoveries.
    let (discovered, sweep_cost) = meter::scoped(|| inner.system.discover_batch(&objects, &ctxs));
    let shares = sweep_cost.split(co_riders);
    pending
        .into_iter()
        .zip(discovered.into_iter().zip(shares))
        .map(|(key, ((evidence, timing), cost))| {
            (
                key.clone(),
                WarmEntry {
                    evidence,
                    timing,
                    batch_seq,
                    co_riders,
                    cost,
                },
            )
        })
        .collect()
}

/// Evidence ids by key, remembered within one micro-batch when the shared
/// cache is off.
type LocalEvidence = HashMap<EvidenceKey, Vec<(InstanceId, f64)>>;

/// What [`evidence_for`] finds: views borrowed from the system the service
/// serves (immutable while serving), the discovery-side timing, and the
/// shared-cache entry the views were looked up from, on a hit.
struct Found<'a> {
    evidence: Views<'a>,
    timing: StageTiming,
    cached: Option<Arc<CachedEvidence>>,
}

/// Evidence for `object`, preferring the shared cache, then the batch-local
/// memo, then full discovery — returning the discovery-side [`StageTiming`]
/// of the discovery that ran, or [`StageTiming::for_cached`] on a cache
/// hit. Both cached paths look their instance ids
/// up in the lake through [`VerifAi::view_evidence`], so reports are
/// identical whichever path served them — and a dangling id is handled
/// explicitly instead of silently shrinking the evidence set:
///
/// * a **shared-cache** entry is only used at the lake generation it was
///   discovered at — any other generation is a miss, rediscovered and
///   replaced by [`remember`]. The cache lives and dies with the service,
///   whose system is frozen while it serves, so every hit's ids resolve;
/// * a stale **batch-local** memo — built moments ago within this very
///   batch — means the evidence genuinely no longer describes the lake,
///   and propagates as [`PipelineError::StaleEvidence`].
///
/// The shared cache is filled after the request is judged ([`remember`]),
/// not here.
fn evidence_for<'a>(
    inner: &'a Inner,
    object: &DataObject,
    key: &EvidenceKey,
    local: &mut LocalEvidence,
    warm: &WarmEvidence<'a>,
    trace: &mut RequestTrace,
) -> Result<Found<'a>, PipelineError> {
    let clock = &inner.obs.config().clock;
    // Discovery, possibly pre-paid: the batch prewarmer already ran this
    // query through the blocked multi-query sweep (provenance included), so
    // a warm entry substitutes for the per-request discovery call.
    let discover = |key: &EvidenceKey, trace: &mut RequestTrace| match warm.get(key) {
        Some(entry) => {
            // Re-charge this request's share of the sweep the prewarmer
            // harvested; the drain at report assembly then attributes it
            // here, where the work logically belongs.
            meter::charge_cost(&entry.cost);
            // The same retrieval/rerank spans per-request discovery
            // writes, carrying this object's share of the batch, with the
            // batching flagged in the notes.
            let timing = &entry.timing;
            timing.trace_discovery(trace, "batched discovery");
            // Batch membership: which sweep served this request and how
            // many distinct queries rode along. Zero-duration marker span
            // (the cost lives in the retrieval span above); formatted only
            // when the trace is live so the disabled path stays free.
            if trace.is_enabled() {
                trace.span(
                    format!("batch-{}", entry.batch_seq),
                    0,
                    entry.co_riders,
                    entry.evidence.len(),
                    format!("{} co-riders in batch {}", entry.co_riders, entry.batch_seq),
                );
            }
            (entry.evidence.clone(), *timing)
        }
        None => inner.system.discover(object, trace),
    };
    if let Some(cache) = &inner.cache {
        let lookup_start = clock.now();
        if let Some(cached) = cache.get(key, inner.system.lake().generation()) {
            let evidence = inner.system.view_evidence(&cached.evidence)?;
            meter::charge_cache_hit();
            trace.span(
                "cache",
                ns_between(lookup_start, clock.now()),
                0,
                evidence.len(),
                "hit",
            );
            let timing = StageTiming::for_cached(evidence.len());
            return Ok(Found {
                evidence,
                timing,
                cached: Some(cached),
            });
        }
        meter::charge_cache_miss();
        trace.span("cache", ns_between(lookup_start, clock.now()), 0, 0, "miss");
        let (evidence, timing) = discover(key, trace);
        return Ok(Found {
            evidence,
            timing,
            cached: None,
        });
    }
    if let Some(cached) = local.get(key) {
        let lookup_start = clock.now();
        return inner.system.view_evidence(cached).map(|evidence| {
            meter::charge_cache_hit();
            trace.span(
                "cache",
                ns_between(lookup_start, clock.now()),
                0,
                evidence.len(),
                "local-hit",
            );
            let timing = StageTiming::for_cached(evidence.len());
            Found {
                evidence,
                timing,
                cached: None,
            }
        });
    }
    meter::charge_cache_miss();
    let (evidence, timing) = discover(key, trace);
    local.insert(key.clone(), ids(&evidence));
    Ok(Found {
        evidence,
        timing,
        cached: None,
    })
}

/// The ids and scores of evidence views, as the caches keep them.
fn ids(evidence: &Views<'_>) -> Vec<(InstanceId, f64)> {
    evidence.iter().map(|(i, s)| (i.id(), *s)).collect()
}

/// Fill the shared cache from a request that judged (did not replay) its
/// evidence: the evidence ids at the lake's generation, and — when the
/// judgment completed — the object, moved in, with the verdicts of its
/// report, which an equal object's next request replays. A complete
/// judgment takes over an entry another object filled; one cut short by
/// its deadline is stored without verdicts on a miss and leaves a hit's
/// entry as it was.
fn remember(
    inner: &Inner,
    key: EvidenceKey,
    found: &Found<'_>,
    object: DataObject,
    report: &VerificationReport,
) {
    let Some(cache) = &inner.cache else {
        return;
    };
    let complete = report.evidence.len() == found.evidence.len();
    if !complete && found.cached.is_some() {
        return;
    }
    cache.insert(
        key,
        CachedEvidence {
            evidence: ids(&found.evidence),
            generation: inner.system.lake().generation(),
            judged: complete.then(|| (object, report.evidence.clone())),
        },
    );
}

fn process(
    inner: &Inner,
    request: Request,
    key: EvidenceKey,
    local: &mut LocalEvidence,
    warm: &WarmEvidence<'_>,
) {
    let clock = &inner.obs.config().clock;
    let started = clock.now();
    let queue_ns = ns_between(request.enqueued, started);
    let mut trace = inner.obs.begin_trace(request.trace_id, request.object.id());
    let queue_note = if trace.is_enabled() && !inner.config.tenants.is_empty() {
        format!("tenant {}", inner.config.tenants[request.tenant].name)
    } else {
        String::new()
    };
    trace.span("queue", queue_ns, 0, 0, queue_note);
    let expired = request.deadline.is_some_and(|d| started >= d);
    let outcome = if expired {
        // The deadline passed before evidence discovery even started (e.g. a
        // zero budget, or long queueing): answer immediately with an empty
        // partial report rather than doing work the caller gave no time for.
        // No pipeline runs: all the request consumed was its queue slot.
        Ok((
            VerificationReport {
                object_id: request.object.id(),
                evidence: Vec::new(),
                decision: Verdict::Unknown,
                confidence: 0.0,
                timing: StageTiming {
                    queue_ns,
                    ..StageTiming::default()
                },
                trace_id: request.trace_id,
                cost: CostVector::zero(),
            },
            true,
        ))
    } else {
        let found = evidence_for(inner, &request.object, &key, local, warm, &mut trace);
        found.map(|found| {
            // A hit filled by an equal object replays that judgment.
            let replay = found
                .cached
                .as_deref()
                .and_then(|cached| cached.verdicts_for(&request.object));
            // The report carries the queue wait beside the discovery-side
            // timing, the same value the `queue` span recorded.
            let report = inner.system.judge(
                &request.object,
                &found.evidence,
                replay,
                StageTiming {
                    queue_ns,
                    ..found.timing
                },
                request.deadline,
                &mut trace,
            );
            if replay.is_none() {
                remember(inner, key, &found, request.object, &report);
            }
            // Deadline-partial reports carry `Unknown` at zero confidence.
            let partial = request.deadline.is_some()
                && report.decision == Verdict::Unknown
                && report.confidence == 0.0;
            (report, partial)
        })
    };
    match outcome {
        Ok((report, partial)) => {
            let latency_ns = ns_between(request.enqueued, clock.now());
            inner.obs.on_completed(
                request.trace_id,
                &report.timing,
                report.decision,
                latency_ns,
            );
            inner.obs.tenant_completed(request.tenant, latency_ns);
            // Tenant cost rollup, from the very vector the caller receives:
            // the per-tenant `verifai_tenant_cost_total` series equal the
            // sum of returned per-request vectors by construction.
            inner.obs.record_cost(request.tenant, &report.cost);
            trace.finish(if partial { "partial" } else { "completed" }, latency_ns);
            inner.obs.record_trace(trace);
            let _ = request.reply.send(RequestOutcome::Completed(report));
        }
        Err(error) => {
            // Discovery charged the tally but no report drained it; reset
            // so the residue cannot leak into the next request's vector.
            let _ = meter::take();
            inner.obs.on_failed();
            inner.obs.tenant_failed(request.tenant);
            let latency_ns = ns_between(request.enqueued, clock.now());
            trace.span("error", 0, 0, 0, error.to_string());
            trace.finish("failed", latency_ns);
            inner.obs.record_trace(trace);
            let _ = request.reply.send(RequestOutcome::Failed(error));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai::VerifAiConfig;
    use verifai_datagen::{build, completion_workload, LakeSpec};

    fn system() -> Arc<VerifAi> {
        Arc::new(VerifAi::build(
            build(&LakeSpec::tiny(31)),
            VerifAiConfig::default(),
        ))
    }

    #[test]
    fn submit_and_complete() {
        let sys = system();
        let tasks = completion_workload(sys.generated(), 4, 3);
        let service = VerificationService::new(Arc::clone(&sys), ServiceConfig::default());
        let tickets: Vec<Ticket> = tasks
            .iter()
            .map(|t| service.submit(sys.impute(t)).expect("admitted"))
            .collect();
        for ticket in tickets {
            match ticket.wait() {
                RequestOutcome::Completed(report) => assert!(!report.evidence.is_empty()),
                RequestOutcome::Shed => panic!("unloaded service shed a request"),
                RequestOutcome::Failed(error) => panic!("request failed: {error}"),
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.accounted(), stats.submitted);
        assert!(stats.latency_p50 > Duration::ZERO);
        // Stage instrumentation flowed from the reports into the roll-up.
        assert!(stats.stages.verify_ns > 0);
        assert!(stats.stages.candidates_out >= 4);
        assert!(stats.stages.candidates_in >= stats.stages.candidates_out);
    }

    #[test]
    fn cache_hits_on_repeated_objects() {
        let sys = system();
        let tasks = completion_workload(sys.generated(), 2, 3);
        let service = VerificationService::new(Arc::clone(&sys), ServiceConfig::default());
        let objects: Vec<DataObject> = tasks.iter().map(|t| sys.impute(t)).collect();
        for _ in 0..3 {
            let tickets: Vec<Ticket> = objects
                .iter()
                .map(|o| service.submit(o.clone()).expect("admitted"))
                .collect();
            tickets.into_iter().for_each(|t| {
                t.wait();
            });
        }
        let stats = service.shutdown();
        assert_eq!(stats.cache.misses, 2);
        assert_eq!(stats.cache.hits, 4);
    }

    #[test]
    fn batched_prewarm_keeps_reports_identical() {
        let sys = system();
        let tasks = completion_workload(sys.generated(), 6, 3);
        let objects: Vec<DataObject> = tasks.iter().map(|t| sys.impute(t)).collect();
        let want: Vec<_> = objects.iter().map(|o| sys.verify_object(o)).collect();
        // One worker + a deep batch makes coalescing (and thus the batched
        // prewarm sweep) likely; report identity must hold either way.
        let config = ServiceConfig {
            workers: 1,
            max_batch: 8,
            ..ServiceConfig::default()
        };
        let service = VerificationService::new(Arc::clone(&sys), config);
        let tickets: Vec<Ticket> = objects
            .iter()
            .map(|o| service.submit(o.clone()).expect("admitted"))
            .collect();
        for (ticket, want) in tickets.into_iter().zip(&want) {
            match ticket.wait() {
                RequestOutcome::Completed(report) => assert_eq!(&report, want),
                other => panic!("request did not complete: {other:?}"),
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let sys = system();
        let tasks = completion_workload(sys.generated(), 1, 3);
        let config = ServiceConfig {
            cache_capacity: 0,
            ..ServiceConfig::default()
        };
        let service = VerificationService::new(Arc::clone(&sys), config);
        let ticket = service.submit(sys.impute(&tasks[0])).expect("admitted");
        assert!(matches!(ticket.wait(), RequestOutcome::Completed(_)));
        let stats = service.shutdown();
        assert_eq!(stats.cache, crate::CacheStats::default());
    }
}
