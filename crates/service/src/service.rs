//! The verification service: admission control, workers, deadlines, and
//! graceful shutdown.
//!
//! ## Request lifecycle
//!
//! ```text
//! submit ──► bounded queue ──► worker wakeup: one request
//!   │ full?                      │ backlog > high_water?
//!   ▼                            ▼
//! Rejected(QueueFull)          Shed           ──► evidence cache ──►
//!                                                 discover (on a miss) ──►
//!                                                 verify (deadline-
//!                                                 bounded) ──► ticket
//! ```
//!
//! Every submitted request resolves exactly one way — `Rejected` at the
//! door, `Shed` at dequeue, `Failed` on a typed pipeline error, or
//! `Completed` — so `completed + shed + rejected + failed == submitted`
//! once all tickets resolve.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use verifai::exec::WorkerPool;
use verifai::{
    CostVector, DataObject, ObsConfig, PipelineError, RequestTrace, StageTiming, TraceId, Verdict,
    VerifAi, VerificationReport, Views,
};
use verifai_obs::{meter, ns_between, render_json, render_prometheus};

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
    /// The pipeline hit a typed error (e.g. cached evidence went stale
    /// against the lake) — no report was produced.
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
            while let Some((_, request, _)) = scheduler.pop() {
                process_tracked(&self.inner, request);
            }
        }
        self.stats()
    }
}

/// One worker wakeup, dispatched on what woke it: a request riding the
/// channel directly (single-queue mode), or a wake token standing in for a
/// request waiting in the tenant scheduler. Either way the wakeup takes
/// one request.
fn handle_wakeup(inner: &Inner, rx: &Receiver<Job>, first: Job) {
    match first {
        Job::Direct(request) => handle_direct(inner, rx, *request),
        Job::Wake => handle_tenant_wakeup(inner),
    }
}

/// Single-queue mode. Load shedding: a request dequeued while the backlog
/// behind it still exceeds the high-water mark is dropped unprocessed,
/// which drains an overloaded queue at dequeue speed instead of verify
/// speed.
fn handle_direct(inner: &Inner, rx: &Receiver<Job>, request: Request) {
    let backlog = rx.len();
    if backlog > inner.config.high_water {
        shed_request(inner, request, backlog);
    } else {
        process_tracked(inner, request);
    }
}

/// Tenant mode: pop the next request in weighted-fair order, applying its
/// tenant's own high-water shedding at dequeue — an overloaded tenant
/// drains at dequeue speed while its neighbors' queues are untouched.
fn handle_tenant_wakeup(inner: &Inner) {
    let Some(scheduler) = &inner.scheduler else {
        return;
    };
    let Some((tenant, request, remaining)) = scheduler.pop() else {
        return;
    };
    if remaining > scheduler.high_water(tenant) {
        inner.obs.tenant_shed(tenant);
        shed_request(inner, request, remaining);
    } else {
        process_tracked(inner, request);
    }
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

/// [`process`] one request, counted in flight while it runs.
fn process_tracked(inner: &Inner, request: Request) {
    inner.obs.in_flight_add(1);
    process(inner, request);
    inner.obs.in_flight_add(-1);
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

/// What [`evidence_for`] finds: views borrowed from the system the service
/// serves (immutable while serving), the discovery-side timing, and the
/// shared-cache entry the views were looked up from, on a hit.
struct Found<'a> {
    evidence: Views<'a>,
    timing: StageTiming,
    cached: Option<Arc<CachedEvidence>>,
}

/// Evidence for `object`: the shared cache's entry on a hit, full
/// discovery on a miss or with the cache off — returning the
/// discovery-side [`StageTiming`] of the discovery that ran, or
/// [`StageTiming::for_cached`] on a cache hit. A hit looks its instance
/// ids up in the lake through [`VerifAi::view_evidence`], so reports are
/// identical whichever path served them. An entry is only used at the lake
/// generation it was discovered at — any other generation is a miss,
/// rediscovered and replaced by [`remember`]. The cache lives and dies
/// with the service, whose system is frozen while it serves, so every
/// hit's ids resolve; one that does not propagates as
/// [`PipelineError::StaleEvidence`].
///
/// With the cache off there is no lookup: no `cache` span and nothing
/// charged to `cache_hits` or `cache_misses`. The shared cache is filled
/// after the request is judged ([`remember`]), not here.
fn evidence_for<'a>(
    inner: &'a Inner,
    object: &DataObject,
    key: &EvidenceKey,
    trace: &mut RequestTrace,
) -> Result<Found<'a>, PipelineError> {
    if let Some(cache) = &inner.cache {
        let clock = &inner.obs.config().clock;
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
    }
    let (evidence, timing) = inner.system.discover(object, trace);
    Ok(Found {
        evidence,
        timing,
        cached: None,
    })
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
            evidence: found.evidence.iter().map(|(i, s)| (i.id(), *s)).collect(),
            generation: inner.system.lake().generation(),
            judged: complete.then(|| (object, report.evidence.clone())),
        },
    );
}

fn process(inner: &Inner, request: Request) {
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
        let key = evidence_key(&request.object);
        let found = evidence_for(inner, &request.object, &key, &mut trace);
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

    /// A served report is the direct call's report, and its cost is the
    /// direct call's plus the one cache lookup that missed: nothing of
    /// another request's work is charged to it. One worker with eight
    /// same-kind requests queued up front is the shape in which requests
    /// would be served together, if anything served them together.
    #[test]
    fn a_served_report_costs_its_own_discovery_plus_one_miss() {
        let sys = system();
        let tasks = completion_workload(sys.generated(), 8, 3);
        let objects: Vec<DataObject> = tasks.iter().map(|t| sys.impute(t)).collect();
        let want: Vec<_> = objects.iter().map(|o| sys.verify_object(o)).collect();
        let config = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let service = VerificationService::new(Arc::clone(&sys), config);
        let tickets: Vec<Ticket> = objects
            .iter()
            .map(|o| service.submit(o.clone()).expect("admitted"))
            .collect();
        for (ticket, want) in tickets.into_iter().zip(&want) {
            match ticket.wait() {
                RequestOutcome::Completed(report) => {
                    assert_eq!(&report, want);
                    let mut cost = want.cost;
                    cost.cache_misses += 1;
                    assert_eq!(report.cost, cost, "object {}", want.object_id);
                }
                other => panic!("request did not complete: {other:?}"),
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.cache.misses, 8);
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
        let object = sys.impute(&tasks[0]);
        let want = sys.verify_object(&object);
        let ticket = service.submit(object).expect("admitted");
        // No cache, no lookup: nothing is charged to hits or misses, and
        // the report costs exactly what the direct call did.
        match ticket.wait() {
            RequestOutcome::Completed(report) => {
                assert_eq!((report.cost.cache_hits, report.cost.cache_misses), (0, 0));
                assert_eq!(report.cost, want.cost);
            }
            other => panic!("request did not complete: {other:?}"),
        }
        let stats = service.shutdown();
        assert_eq!(stats.cache, crate::CacheStats::default());
    }
}
