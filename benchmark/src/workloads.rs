//! The four workloads and their output checks.
//!
//! Each pass drives the system only through public functions at
//! `VerifAiConfig::default()` / `ServiceConfig::default()` (workers sized to
//! the host), measures for the requested time, and then checks what came
//! back. The same functions serve the untraced run (tracer off) and the
//! traced pass (tracer on, shorter).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verifai::{DataObject, Verdict, VerifAi, VerificationReport};
use verifai_lake::{InstanceId, InstanceKind};
use verifai_service::{RequestOutcome, ServiceConfig, ServiceStats, VerificationService};

use crate::drive::{closed_loop, open_loop, tally, Record, Reply, ServiceTarget, Stop};
use crate::inputs::{LiveScript, MutationKind, Pool, Scale, ROUND_MUTATIONS};
use crate::spans::Tracer;
use crate::stats::{self, Digest, Tally};

/// Requests each worker has outstanding in the closed loops.
pub const OUTSTANDING_PER_WORKER: usize = 4;

/// The open loop's frozen absolute rate: half of cold-verify's measured
/// `throughput_rps` on the host the benchmark was defined on (105 req/s),
/// rounded down to a multiple of 5.
pub const OPEN_RATE_RPS: f64 = 50.0;

/// Cold requests sent before cold-verify / open-rate start measuring, so
/// worker start-up and first-touch page faults are not in the numbers.
const WARMUP_REQUESTS: usize = 32;

/// How long the open loop waits for stragglers before calling them lost.
const DRAIN: Duration = Duration::from_secs(5);

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over distinct objects: every request runs the full path.
    ColdVerify,
    /// Closed loop over a pool that fits the evidence cache.
    HotVerify,
    /// Open loop at a fixed rate over distinct objects.
    OpenRate,
    /// One caller interleaving `apply` mutations with cold verifies.
    LiveIngest,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdVerify,
        Workload::HotVerify,
        Workload::OpenRate,
        Workload::LiveIngest,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdVerify => "cold-verify",
            Workload::HotVerify => "hot-verify",
            Workload::OpenRate => "open-rate",
            Workload::LiveIngest => "live-ingest",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Position in per-workload tables such as [`Scale::scored`].
    pub fn slot(self) -> usize {
        Workload::ALL
            .iter()
            .position(|w| *w == self)
            .expect("listed in ALL")
    }

    /// The latency limit `ok_ratio` is judged against, milliseconds. The
    /// open loop's 50 ms is the limit independent callers are promised; the
    /// closed loops get about twice their p99 on the defining host, so the
    /// ratio sits at 1 until a tail doubles.
    pub fn limit_ms(self) -> f64 {
        match self {
            Workload::ColdVerify => 100.0,
            Workload::HotVerify => 5.0,
            Workload::OpenRate | Workload::LiveIngest => 50.0,
        }
    }

    /// Objects this workload's pool holds at `scale`.
    pub fn pool_size(self, scale: &Scale) -> usize {
        match self {
            Workload::HotVerify => scale.hot_pool,
            _ => scale.cold_pool,
        }
    }
}

/// Cores and the worker count derived from them: `max(1, nproc − 1)` service
/// workers plus the one driver thread, so the benchmark never has more
/// runnable threads than cores.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Service workers.
    pub workers: usize,
}

impl Host {
    /// Size the benchmark to this machine.
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            nproc,
            workers: nproc.saturating_sub(1).max(1),
        }
    }

    /// `ServiceConfig::default()` with the worker count sized to the host.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            workers: self.workers,
            ..ServiceConfig::default()
        }
    }
}

/// What every pass of a run shares: the frozen sizes, the host sizing and
/// the seed the inputs came from.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    /// Frozen sizes.
    pub scale: Scale,
    /// Cores and workers.
    pub host: Host,
    /// `--seed`.
    pub seed: u64,
}

/// One output check's result.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

fn check(name: &'static str, pass: bool, detail: String) -> Check {
    Check { name, pass, detail }
}

/// Everything one pass of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Disposition counts of the measured requests (warm-up and check
    /// traffic excluded).
    pub tally: Tally,
    /// Latencies of completed requests, ascending, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Completions (operations, for live-ingest) per second.
    pub throughput: f64,
    /// Requests scored against ground truth.
    pub scored: usize,
    /// Scored requests whose final decision agrees with ground truth.
    pub agree: usize,
    /// Digest of the scored requests' decisions, in submission order.
    pub digest: String,
    /// Output checks.
    pub checks: Vec<Check>,
    /// p99 of how late the open-loop generator sent (0 for closed loops).
    pub gen_lag_p99_ms: f64,
    /// Mean admission-queue wait (0 when no service was involved).
    pub queue_wait_ms: f64,
    /// Evidence-cache hit ratio over the measured phase (0 without a service).
    pub cache_hit_ratio: f64,
    /// Operations other than verifies that were attempted (mutations).
    pub mutations: u64,
    /// Mutations `apply` refused.
    pub mutation_failures: u64,
}

fn verdict_label(verdict: Verdict) -> &'static str {
    match verdict {
        Verdict::Verified => "verified",
        Verdict::Refuted => "refuted",
        Verdict::NotRelated => "not-related",
        Verdict::Unknown => "unknown",
    }
}

/// Score and digest the first `limit` requests in submission order: a
/// request with no report disagrees with everything.
fn score(records: &[Record], expected: &[Verdict], limit: usize, into: &mut Measured) {
    let mut by_seq: Vec<&Record> = records.iter().filter(|r| r.seq < limit).collect();
    by_seq.sort_by_key(|r| r.seq);
    let mut digest = Digest::default();
    into.scored = by_seq.len();
    for r in by_seq {
        let label = match r.reply {
            Reply::Completed(decision) => {
                into.agree += usize::from(decision == expected[r.index]);
                verdict_label(decision)
            }
            _ => "no-report",
        };
        digest.update(format!("{}:{}:{label};", r.seq, r.index).as_bytes());
    }
    into.digest = digest.hex();
}

/// The records that came back with a report.
fn completed(records: &[Record]) -> impl Iterator<Item = &Record> {
    records
        .iter()
        .filter(|r| matches!(r.reply, Reply::Completed(_)))
}

fn completed_latencies(records: &[Record]) -> Vec<f64> {
    stats::sorted(completed(records).map(Record::latency_ms).collect())
}

fn completed_times(records: &[Record]) -> Vec<f64> {
    stats::sorted(completed(records).map(|r| r.done).collect())
}

/// Verify `sample` through `service`, one request at a time, and directly;
/// the two report lists must be equal (report equality excludes timing and
/// cost). Returns the check and how many requests it sent.
pub fn service_equals_direct(
    service: &VerificationService,
    system: &VerifAi,
    sample: &[DataObject],
) -> (Check, u64) {
    let mut mismatches = 0usize;
    let mut unanswered = 0usize;
    for object in sample {
        let served: Option<VerificationReport> = match service.submit(object.clone()) {
            Ok(ticket) => match ticket.wait() {
                RequestOutcome::Completed(report) => Some(report),
                _ => None,
            },
            Err(_) => None,
        };
        match served {
            Some(report) => mismatches += usize::from(report != system.verify_object(object)),
            None => unanswered += 1,
        }
    }
    (
        check(
            "service reports equal direct verify_object reports",
            mismatches == 0 && unanswered == 0,
            format!(
                "{} objects, {mismatches} mismatched, {unanswered} unanswered",
                sample.len()
            ),
        ),
        sample.len() as u64,
    )
}

/// The service's own books must balance, and must agree with the driver's.
fn accounting_checks(stats: &ServiceStats, driver_sent: u64, tally: &Tally) -> Vec<Check> {
    vec![
        check(
            "service accounting: completed+shed+rejected+throttled+failed == submitted",
            stats.accounted() == stats.submitted && stats.submitted == driver_sent,
            format!(
                "accounted {} submitted {} driver sent {driver_sent}",
                stats.accounted(),
                stats.submitted
            ),
        ),
        check(
            "driver accounting: every request resolved exactly once, none lost",
            tally.balanced() && tally.lost == 0,
            format!("{tally:?}"),
        ),
    ]
}

/// cold-verify, hot-verify or open-rate for `seconds` against a fresh
/// service over `system`.
pub fn service_pass(
    workload: Workload,
    system: &Arc<VerifAi>,
    pool: &Pool,
    env: Env,
    seconds: f64,
    tracer: &mut Tracer,
) -> Measured {
    let Env { scale, host, seed } = env;
    let service = VerificationService::new(Arc::clone(system), host.service_config());
    let target = ServiceTarget {
        service: &service,
        objects: &pool.objects,
    };
    let outstanding = OUTSTANDING_PER_WORKER * host.workers;
    let duration = Duration::from_secs_f64(seconds);
    // The pool's tail is kept out of the request stream: its last
    // `check_sample` objects feed the output check, the `WARMUP_REQUESTS`
    // before them the warm-up.
    let reserved = scale.check_sample + WARMUP_REQUESTS;
    let stream = pool.len().saturating_sub(reserved).max(1);
    let mut off = Tracer::off();

    let len = pool.len();
    let hot = workload == Workload::HotVerify;

    // Warm-up: hot-verify fills the cache with its whole pool; the cold
    // workloads send a few objects from the reserved tail.
    let warmup = if hot {
        closed_loop(&target, outstanding, Stop::Count(len), |n| n, &mut off)
    } else {
        closed_loop(
            &target,
            outstanding,
            Stop::Count(WARMUP_REQUESTS.min(len)),
            |n| stream + n % (len - stream).max(1),
            &mut off,
        )
    };
    let warm = service.stats().cache;

    let records = match workload {
        Workload::HotVerify => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x407_5eed);
            closed_loop(
                &target,
                outstanding,
                Stop::After(duration),
                |_| rng.gen_range(0..len),
                tracer,
            )
        }
        Workload::ColdVerify => {
            // A stream that wraps around still misses on every request only
            // while it is much longer than the LRU cache; a shorter one (the
            // smoke scale) stops at its end instead.
            let stop = if stream > 2 * host.service_config().cache_capacity {
                Stop::After(duration)
            } else {
                Stop::Either(duration, stream)
            };
            closed_loop(&target, outstanding, stop, |n| n % stream, tracer)
        }
        Workload::OpenRate => {
            let requests = (OPEN_RATE_RPS * seconds).floor().max(1.0) as usize;
            open_loop(
                &target,
                requests,
                OPEN_RATE_RPS,
                DRAIN,
                |n| n % stream,
                tracer,
            )
        }
        Workload::LiveIngest => unreachable!("live-ingest calls the system directly"),
    };
    let measured = service.stats();
    // hot-verify checks objects the cache holds, so the check also covers
    // the cached path; the cold workloads check the untouched tail.
    let sample = if hot {
        &pool.objects[..scale.check_sample.min(len)]
    } else {
        pool.tail(scale.check_sample)
    };

    let mut m = Measured {
        tally: tally(&records),
        latencies_ms: completed_latencies(&records),
        ..Measured::default()
    };
    let done = completed_times(&records);
    if !done.is_empty() {
        m.throughput = if workload == Workload::OpenRate {
            // The schedule pins the rate; report what was achieved over the
            // span the requests actually took.
            done.len() as f64 / done[done.len() - 1]
        } else {
            stats::chunked_rate(&done, 0.0, 10)
        };
    }
    score(
        &records,
        &pool.expected,
        scale.scored[workload.slot()],
        &mut m,
    );
    if workload == Workload::OpenRate {
        let lags = stats::sorted(records.iter().map(Record::lag_ms).collect());
        m.gen_lag_p99_ms = stats::percentile(&lags, 0.99);
    }
    m.queue_wait_ms = measured.stage_latency.queue.mean().as_secs_f64() * 1e3;

    // Cache behaviour over the measured phase alone.
    let hits = measured.cache.hits - warm.hits;
    let misses = measured.cache.misses - warm.misses;
    if hits + misses > 0 {
        m.cache_hit_ratio = hits as f64 / (hits + misses) as f64;
    }
    m.checks.push(if hot {
        check(
            "hot-verify is served from the evidence cache (>= 99.9% hits)",
            m.cache_hit_ratio >= 0.999,
            format!("{hits} hits, {misses} misses after warm-up"),
        )
    } else {
        check(
            "every cold request misses the evidence cache",
            hits == 0,
            format!("{hits} hits, {misses} misses"),
        )
    });

    let (equal, check_sent) = service_equals_direct(&service, system, sample);
    m.checks.push(equal);
    let final_stats = service.shutdown();
    let driver_sent = warmup.len() as u64 + m.tally.sent + check_sent;
    m.checks
        .extend(accounting_checks(&final_stats, driver_sent, &m.tally));
    m
}

/// live-ingest: rounds of [`ROUND_MUTATIONS`] `apply` calls and one cold
/// `verify_object`, by a single caller, until `stop`; then the state checks.
/// With the tracer on, every call is a span under a `round` root, and the
/// rounds are followed by a timed `compact_live` — about 6 s of fixed wall
/// time at full scale, which the untraced run cannot afford under the
/// driver's total cap and no end-to-end metric would show.
pub fn live_pass(
    system: &mut VerifAi,
    pool: &Pool,
    env: Env,
    stop: Stop,
    tracer: &mut Tracer,
) -> (Measured, LiveState) {
    let Env { scale, host, seed } = env;
    let mut script = LiveScript::new(system, seed);
    let generation_before = system.lake().generation();
    let stream = pool.len().saturating_sub(scale.check_sample).max(1);
    let mut m = Measured::default();
    let mut records = Vec::new();
    let t0 = Instant::now();
    let mut round = 0usize;
    loop {
        if !stop.keeps_going(t0.elapsed(), round) {
            break;
        }
        tracer.set_request(round as u64);
        let root = tracer.enter("round");
        for (kind, mutation) in script.round() {
            let span = tracer.enter(match kind {
                MutationKind::AddDoc => "apply.add_doc",
                MutationKind::AddTuple => "apply.add_tuple",
                MutationKind::UpdateTuple => "apply.update",
                MutationKind::RemoveDoc | MutationKind::RemoveTuple => "apply.remove",
            });
            let outcome = system.apply(mutation);
            tracer.exit(span);
            m.mutations += 1;
            m.mutation_failures += u64::from(outcome.is_err());
        }
        let index = round % stream;
        let sent = t0.elapsed().as_secs_f64();
        let span = tracer.enter("verify");
        let report = system.verify_object(&pool.objects[index]);
        tracer.exit(span);
        let done = t0.elapsed().as_secs_f64();
        tracer.exit(root);
        records.push(Record {
            seq: round,
            index,
            intended: sent,
            sent,
            done,
            reply: Reply::Completed(report.decision),
        });
        round += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();

    m.tally = tally(&records);
    m.latencies_ms = completed_latencies(&records);
    let round_ends: Vec<f64> = records.iter().map(|r| r.done).collect();
    if !round_ends.is_empty() {
        // Every round is ROUND_MUTATIONS applies and one verify.
        m.throughput = stats::chunked_rate(&round_ends, 0.0, 10) * (ROUND_MUTATIONS + 1) as f64;
    }
    score(
        &records,
        &pool.expected,
        scale.scored[Workload::LiveIngest.slot()],
        &mut m,
    );

    let standing = system.live_stats();
    let started = Instant::now();
    if tracer.is_on() {
        system.compact_live(host.workers);
    }
    let state = LiveState {
        rounds: round,
        elapsed_s: elapsed,
        compact_ms: started.elapsed().as_secs_f64() * 1e3,
        tombstones_end: standing.content_tombstones + standing.semantic_tombstones,
        segments_end: standing.content_segments,
    };

    m.checks.push(check(
        "every planned mutation applied",
        m.mutation_failures == 0,
        format!("{} of {} refused", m.mutation_failures, m.mutations),
    ));
    let expected_generation = generation_before + script.expected_generations;
    m.checks.push(check(
        "lake generation equals the expected count",
        system.lake().generation() == expected_generation,
        format!(
            "generation {} expected {expected_generation} after {} mutations",
            system.lake().generation(),
            m.mutations
        ),
    ));
    let finds = |id: u64| {
        let (title, _) = LiveScript::doc_text(id);
        system
            .retrieve(&title, InstanceKind::Text, 10)
            .iter()
            .any(|hit| hit.id == InstanceId::Text(id))
    };
    if let Some(&added) = script.live_docs.back() {
        m.checks.push(check(
            "an added document is retrievable",
            finds(added) && system.lake().doc(added).is_ok(),
            format!("doc {added}"),
        ));
    }
    if let Some(&removed) = script.removed_docs.last() {
        m.checks.push(check(
            "a removed document is not retrievable",
            !finds(removed) && system.lake().doc(removed).is_err(),
            format!("doc {removed}"),
        ));
    }
    (m, state)
}

/// What a live-ingest pass leaves behind, beyond its [`Measured`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveState {
    /// Rounds completed.
    pub rounds: usize,
    /// Wall time of the rounds.
    pub elapsed_s: f64,
    /// Wall time of the final `compact_live` (traced pass only, else ~0).
    pub compact_ms: f64,
    /// Content + semantic tombstones standing when the rounds ended.
    pub tombstones_end: usize,
    /// Content segments standing when the rounds ended.
    pub segments_end: usize,
}
