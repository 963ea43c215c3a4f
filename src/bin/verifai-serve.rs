//! `verifai-serve` — deterministic closed-loop load generator for the
//! verification service.
//!
//! Builds a seeded data lake, derives a pool of distinct verification
//! objects (masked-tuple imputations and text claims), then drives the
//! service with a fixed number of requests drawn from that pool by a seeded
//! RNG, keeping a bounded window of requests outstanding (closed loop).
//! Prints the throughput/latency/cache report and verifies the service's
//! accounting invariant: every submitted request is completed, shed, or
//! rejected — none lost.
//!
//! ```text
//! verifai-serve --requests 500 --workers 4 --seed 7 --canary-every 20
//! ```
//!
//! The run is deterministic in its request sequence: the same seed yields
//! the same lake, the same object pool, and the same submission order.
//!
//! With `--canary-every N`, every Nth submission is followed by a
//! golden-set canary probe: an object the same pipeline verified at
//! startup, so a probe that stops verifying is a quality regression, not a
//! flaky input. This binary judges each probe itself, prints every failed
//! probe once, and exits nonzero if any probe failed. A shed or rejected
//! probe was never judged and counts neither way.
//!
//! `--shards N` (N >= 2) partitions the lake into N shards behind a
//! scatter/gather router; results are identical to the single-lake build.
//! `--tenants name:weight[:rate[:burst]],...` turns on tenant-aware QoS:
//! requests are attributed to tenants by weighted random draw, weighted
//! fair scheduling isolates tenants from each other's backlogs, and
//! token-bucket quotas throttle tenants past their sustained rate.

use std::collections::VecDeque;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verifai::ObsConfig;
use verifai::{CostVector, DataObject, SemanticBackend, Verdict, VerifAi, VerifAiConfig};
use verifai_claims::ClaimGenConfig;
use verifai_cluster::{build_cluster, ClusterConfig, Router};
use verifai_datagen::{build, claim_workload, completion_workload, LakeSpec};
use verifai_obs::{
    render_perfetto, validate_folded, validate_trace_dump, RequestTrace, SamplingPolicy,
};
use verifai_service::{
    RequestOutcome, ServiceConfig, StageTotals, SubmitError, TenantSpec, Ticket,
    VerificationService,
};

struct Args {
    requests: usize,
    workers: usize,
    seed: u64,
    queue_capacity: usize,
    high_water: usize,
    max_batch: usize,
    cache_capacity: usize,
    deadline_ms: Option<u64>,
    distinct: usize,
    window: Option<usize>,
    metrics_every: usize,
    slowest: usize,
    canary_every: u64,
    shards: usize,
    tenants: Vec<TenantSpec>,
    trace_dump: Option<String>,
    tail_sample: u64,
    profile_dump: Option<String>,
    usage_report: bool,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            requests: 200,
            workers: 4,
            seed: 42,
            queue_capacity: 256,
            high_water: 192,
            max_batch: 8,
            cache_capacity: 1024,
            deadline_ms: None,
            distinct: 32,
            window: None,
            metrics_every: 0,
            slowest: 3,
            canary_every: 0,
            shards: 0,
            tenants: Vec::new(),
            trace_dump: None,
            tail_sample: 0,
            profile_dump: None,
            usage_report: false,
        }
    }
}

const USAGE: &str = "verifai-serve [--requests N] [--workers N] [--seed N] \
[--queue-capacity N] [--high-water N] [--max-batch N] [--cache-capacity N] \
[--deadline-ms N] [--distinct N] [--window N] [--metrics-every N] [--slowest N] \
[--canary-every N] [--shards N] \
[--tenants name:weight[:rate[:burst]],...] [--trace-dump PATH] [--tail-sample N] \
[--profile-dump PATH] [--usage-report]";

/// Parse `--tenants acme:3,beta:1:5.0,free:1:2.0:4.0` — name, fair-share
/// weight, optional sustained rate (req/s, 0 = unlimited) and burst. A
/// repeated name (its second entry could never be submitted to) and a rate
/// or burst that is not a finite number are usage errors.
fn parse_tenants(value: &str) -> Result<Vec<TenantSpec>, String> {
    let mut tenants: Vec<TenantSpec> = Vec::new();
    for entry in value.split(',').filter(|e| !e.trim().is_empty()) {
        let parts: Vec<&str> = entry.trim().split(':').collect();
        if parts.len() < 2 || parts.len() > 4 || parts[0].is_empty() {
            return Err(format!(
                "--tenants entries are name:weight[:rate[:burst]], got '{entry}'"
            ));
        }
        let weight: u32 = parts[1].parse().map_err(|_| {
            format!(
                "tenant '{}' needs an integer weight, got '{}'",
                parts[0], parts[1]
            )
        })?;
        if tenants.iter().any(|t| t.name == parts[0]) {
            return Err(format!("tenant '{}' is named twice", parts[0]));
        }
        let number = |field: &str, part: Option<&&str>| match part {
            Some(p) => p
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or_else(|| {
                    format!(
                        "tenant '{}' {field} must be a finite number, got '{p}'",
                        parts[0]
                    )
                }),
            None => Ok(0.0),
        };
        let rate = number("rate", parts.get(2))?;
        let burst = number("burst", parts.get(3))?;
        tenants.push(TenantSpec::new(parts[0], weight).with_rate(rate, burst));
    }
    if tenants.is_empty() {
        return Err("--tenants needs at least one name:weight entry".to_string());
    }
    Ok(tenants)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.to_string());
        }
        // Valueless flags first — everything below consumes a value.
        if flag == "--usage-report" {
            args.usage_report = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\nusage: {USAGE}"))?;
        // Flags with non-integer values parse their own.
        if flag == "--tenants" {
            args.tenants =
                parse_tenants(&value).map_err(|message| format!("{message}\nusage: {USAGE}"))?;
            continue;
        }
        if flag == "--trace-dump" {
            args.trace_dump = Some(value);
            continue;
        }
        if flag == "--profile-dump" {
            args.profile_dump = Some(value);
            continue;
        }
        let parsed: u64 = value
            .parse()
            .map_err(|_| format!("{flag} needs an integer, got '{value}'"))?;
        match flag.as_str() {
            "--requests" => args.requests = parsed as usize,
            "--workers" => args.workers = parsed as usize,
            "--seed" => args.seed = parsed,
            "--queue-capacity" => args.queue_capacity = parsed as usize,
            "--high-water" => args.high_water = parsed as usize,
            "--max-batch" => args.max_batch = parsed as usize,
            "--cache-capacity" => args.cache_capacity = parsed as usize,
            "--deadline-ms" => args.deadline_ms = Some(parsed),
            "--distinct" => args.distinct = (parsed as usize).max(1),
            "--window" => args.window = Some((parsed as usize).max(1)),
            "--metrics-every" => args.metrics_every = parsed as usize,
            "--slowest" => args.slowest = parsed as usize,
            "--canary-every" => args.canary_every = parsed,
            "--shards" => args.shards = parsed as usize,
            "--tail-sample" => args.tail_sample = parsed,
            other => return Err(format!("unknown flag {other}\nusage: {USAGE}")),
        }
    }
    Ok(args)
}

/// A pool of distinct objects, half imputations and half claims, all derived
/// from the seeded lake so repeated draws exercise the evidence cache.
fn object_pool(sys: &VerifAi, distinct: usize, seed: u64) -> Vec<DataObject> {
    let n_tasks = distinct / 2 + distinct % 2;
    let n_claims = distinct / 2;
    let mut pool = Vec::with_capacity(distinct);
    for task in completion_workload(sys.generated(), n_tasks, seed) {
        pool.push(sys.impute(&task));
    }
    for claim in claim_workload(
        sys.generated(),
        n_claims,
        ClaimGenConfig {
            seed,
            ..ClaimGenConfig::default()
        },
    ) {
        pool.push(sys.claim_object(&claim));
    }
    pool
}

/// The golden canary set: masked-tuple imputations drawn from a seed offset
/// away from the traffic pool and pre-screened against the live pipeline —
/// only objects the (deterministic) pipeline verifies *today* are kept, so
/// a probe failing later in the run is a quality regression, never a flaky
/// input.
fn golden_set(sys: &VerifAi, seed: u64, want: usize) -> Vec<DataObject> {
    let mut golden = Vec::with_capacity(want);
    for task in completion_workload(sys.generated(), want * 2, seed.wrapping_add(0x9e37)) {
        let object = sys.impute(&task);
        if sys.verify_object(&object).decision == Verdict::Verified {
            golden.push(object);
            if golden.len() == want {
                break;
            }
        }
    }
    golden
}

/// What the driving client saw, kept apart from the service's own rollups
/// so the two can be reconciled: its dispositions, the canary outcomes it
/// judged, and the cost (per tenant) and stage time of every report it was
/// handed.
struct Ledger {
    completed: u64,
    shed: u64,
    failed: u64,
    canaries_passed: u64,
    canaries_failed: u64,
    costs: Vec<CostVector>,
    stages: StageTotals,
}

impl Ledger {
    fn new(tenants: usize) -> Ledger {
        Ledger {
            completed: 0,
            shed: 0,
            failed: 0,
            canaries_passed: 0,
            canaries_failed: 0,
            costs: vec![CostVector::zero(); tenants],
            stages: StageTotals::default(),
        }
    }

    /// Wait for one outstanding `(ticket, is_canary, tenant)` and book its
    /// outcome. A canary passes when it still verifies; each failed probe
    /// is printed once, here.
    fn drain(&mut self, (ticket, canary, tenant): (Ticket, bool, usize)) {
        match ticket.wait() {
            RequestOutcome::Completed(report) => {
                // Canary reports bill their tenant like any other request,
                // so the ledger matches the service's rollup.
                self.costs[tenant].merge(&report.cost);
                self.stages.absorb(&report.timing);
                if !canary {
                    self.completed += 1;
                } else if report.decision == Verdict::Verified {
                    self.canaries_passed += 1;
                } else {
                    self.canaries_failed += 1;
                    eprintln!(
                        "canary failed: probe object {}: expected Verified, got {:?}",
                        report.object_id, report.decision
                    );
                }
            }
            // A shed probe was never judged: it counts neither way.
            RequestOutcome::Shed => {
                if !canary {
                    self.shed += 1;
                }
            }
            RequestOutcome::Failed(error) => {
                if canary {
                    self.canaries_failed += 1;
                    eprintln!("canary failed: {error}");
                } else {
                    self.failed += 1;
                    eprintln!("request failed: {error}");
                }
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let t_build = Instant::now();
    // With `--shards N` (N >= 2) the lake is partitioned into N shards
    // behind a scatter/gather router; retrieval results are identical to
    // the single-lake build (exact flat semantic backend, global BM25
    // stats), so the rest of the harness is oblivious to the topology.
    let (sys, router): (Arc<VerifAi>, Option<Arc<Router>>) = if args.shards >= 2 {
        let cluster = build_cluster(
            build(&LakeSpec::tiny(args.seed)),
            VerifAiConfig {
                semantic_backend: SemanticBackend::Flat,
                ..VerifAiConfig::default()
            },
            ClusterConfig::with_shards(args.shards),
        );
        (Arc::new(cluster.system), Some(cluster.router))
    } else {
        let sys = VerifAi::build(build(&LakeSpec::tiny(args.seed)), VerifAiConfig::default());
        (Arc::new(sys), None)
    };
    let pool = object_pool(&sys, args.distinct, args.seed);
    println!(
        "lake + indexes built in {:?} ({}); object pool: {} distinct ({} requests over them)",
        t_build.elapsed(),
        match &router {
            Some(r) => format!("{} shards, sizes {:?}", r.shard_count(), r.shard_sizes()),
            None => "single lake".to_string(),
        },
        pool.len(),
        args.requests
    );
    if !args.tenants.is_empty() {
        let mix: Vec<String> = args
            .tenants
            .iter()
            .map(|t| format!("{}:w{}", t.name, t.weight))
            .collect();
        println!("tenants: {}", mix.join(", "));
    }

    // `--tail-sample N` switches the flight recorder to tail-based
    // sampling: every failed/shed/deadline-partial trace and every
    // p99-slow trace is kept, while only ~1 in N healthy traces survive.
    let obs_config = if args.tail_sample > 0 {
        ObsConfig::default().with_sampling(SamplingPolicy::tail(args.tail_sample, 8))
    } else {
        ObsConfig::default()
    };
    let service = VerificationService::with_obs(
        Arc::clone(&sys),
        ServiceConfig {
            workers: args.workers,
            queue_capacity: args.queue_capacity,
            high_water: args.high_water,
            max_batch: args.max_batch,
            cache_capacity: args.cache_capacity,
            default_deadline: args.deadline_ms.map(Duration::from_millis),
            tenants: args.tenants.clone(),
        },
        obs_config,
    );
    // Sharded runs stitch distributed span trees: the router records one
    // child span per shard per query, grafted under the request's
    // retrieval span at lookup time.
    if let Some(router) = &router {
        router.attach_recorder(service.obs().recorder_arc());
    }

    // Golden canary set, screened before traffic starts.
    let golden = if args.canary_every > 0 {
        let golden = golden_set(&sys, args.seed, 8);
        if golden.is_empty() {
            eprintln!("no golden probes screened Verified; canaries disabled");
        } else {
            println!(
                "canaries: {} golden probes, one per {} requests",
                golden.len(),
                args.canary_every
            );
        }
        golden
    } else {
        Vec::new()
    };
    // Closed loop: at most `window` requests outstanding; when the window is
    // full, block on the oldest ticket before submitting the next request.
    // Canary probes ride the same window, tagged so the ledger judges them
    // instead of counting them as traffic.
    let window = args
        .window
        .unwrap_or(args.workers.max(1) * args.max_batch.max(1));
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut outstanding: VecDeque<(Ticket, bool, usize)> = VecDeque::with_capacity(window);
    let mut ledger = Ledger::new(args.tenants.len().max(1));
    let mut rejected = 0u64;
    let mut throttled = 0u64;
    // Weighted-random tenant assignment: each request is attributed to a
    // tenant in proportion to its fair-share weight, from the same seeded
    // RNG as the object draw so the mix is reproducible.
    let tenant_weights: Vec<u64> = args
        .tenants
        .iter()
        .map(|t| u64::from(t.weight.max(1)))
        .collect();
    let total_weight: u64 = tenant_weights.iter().sum();
    let pick_tenant = |rng: &mut StdRng| -> usize {
        let mut pick = rng.gen_range(0..total_weight);
        for (index, weight) in tenant_weights.iter().enumerate() {
            if pick < *weight {
                return index;
            }
            pick -= *weight;
        }
        unreachable!("weights sum to total_weight")
    };
    let mut canary_submissions = 0u64;
    let t_run = Instant::now();
    for i in 0..args.requests {
        let object = pool[rng.gen_range(0..pool.len())].clone();
        if outstanding.len() >= window {
            ledger.drain(outstanding.pop_front().expect("window non-empty"));
        }
        let (tenant, submitted) = if args.tenants.is_empty() {
            (0, service.submit(object))
        } else {
            let tenant = pick_tenant(&mut rng);
            (
                tenant,
                service.submit_for(&args.tenants[tenant].name, object),
            )
        };
        match submitted {
            Ok(ticket) => outstanding.push_back((ticket, false, tenant)),
            Err(SubmitError::Throttled) => throttled += 1,
            Err(_) => rejected += 1,
        }
        // Interleave a golden probe after every `canary_every`-th request.
        // Probes are deadline-free so an overloaded run cannot turn them
        // into partial Unknowns.
        if !golden.is_empty() && (i as u64 + 1).is_multiple_of(args.canary_every) {
            if outstanding.len() >= window {
                ledger.drain(outstanding.pop_front().expect("window non-empty"));
            }
            let probe = golden[canary_submissions as usize % golden.len()].clone();
            canary_submissions += 1;
            // Probes ride as tenant 0 (`submit_with_deadline` maps there).
            if let Ok(ticket) = service.submit_with_deadline(probe, None) {
                outstanding.push_back((ticket, true, 0));
            }
        }
        // Periodic live metrics dump: one compact JSON snapshot line.
        if args.metrics_every > 0 && (i + 1) % args.metrics_every == 0 {
            println!("metrics @ {}: {}", i + 1, service.render_json_snapshot());
        }
    }
    for entry in outstanding {
        ledger.drain(entry);
    }
    let elapsed = t_run.elapsed();

    // Final observability report, rendered while the service is still
    // alive: the full Prometheus exposition and the flight recorder's
    // slowest traces.
    println!("\n==> prometheus");
    print!("{}", service.render_prometheus());
    if let Some(router) = &router {
        println!("\n==> prometheus (shards)");
        print!("{}", verifai_obs::render_prometheus(&router.snapshot()));
        println!("searches per shard: {:?}", router.searches_per_shard());
    }
    if args.slowest > 0 {
        let dump = service.obs().recorder().dump_slowest(args.slowest);
        if !dump.is_empty() {
            println!("\n==> slowest traces (top {})", args.slowest);
            print!("{dump}");
        }
    }

    // `--trace-dump PATH`: export the slowest retained traces as Chrome
    // trace-event JSON (loadable at ui.perfetto.dev). Sharded runs stitch
    // each tree through the router first so per-shard child spans ride
    // along — and dump the slowest traces that *have* shard children ahead
    // of the slowest that do not (cache hits never reach the router, and
    // under queueing they can be the slowest requests of a run), so the
    // dump shows the scatter/gather whenever any retained trace went
    // through it. The dump is self-validated before it is written; a dump
    // that fails validation (or contains no traces) fails the run.
    if let Some(path) = &args.trace_dump {
        let slowest = service.obs().recorder().slowest();
        let mut stitched: Vec<RequestTrace> = slowest
            .iter()
            .map(|t| match &router {
                Some(r) => r.lookup_trace(t.trace_id).unwrap_or_else(|| (**t).clone()),
                None => (**t).clone(),
            })
            .collect();
        // Stable: slowest-first order survives within each group.
        stitched.sort_by_key(|t| !t.spans.iter().any(|s| s.stage.starts_with("shard-")));
        stitched.truncate(args.slowest.max(1));
        let refs: Vec<&RequestTrace> = stitched.iter().collect();
        let json = render_perfetto(&refs).to_string();
        match validate_trace_dump(&json) {
            Ok(summary) if summary.traces == 0 => {
                eprintln!("trace dump contains no traces");
                return ExitCode::FAILURE;
            }
            Ok(summary) if router.is_some() && summary.shard_spans == 0 => {
                eprintln!("sharded run produced no per-shard child spans");
                return ExitCode::FAILURE;
            }
            Ok(summary) => {
                if let Err(error) = std::fs::write(path, &json) {
                    eprintln!("cannot write trace dump to {path}: {error}");
                    return ExitCode::FAILURE;
                }
                println!(
                    "\ntrace dump: {} traces, {} spans ({} shard spans) -> {path}",
                    summary.traces, summary.spans, summary.shard_spans
                );
            }
            Err(error) => {
                eprintln!("trace dump failed validation: {error}");
                return ExitCode::FAILURE;
            }
        }
    }

    let stats = service.shutdown();
    println!(
        "\n{} requests in {:?} ({:.1} completed/s)\n",
        args.requests,
        elapsed,
        stats.completed as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!("{stats}");

    let lost = stats.submitted - stats.accounted();
    println!(
        "\nclient view: completed {} | shed {} | rejected {rejected} | throttled {throttled} | failed {}",
        ledger.completed, ledger.shed, ledger.failed
    );
    if canary_submissions > 0 {
        println!(
            "canaries: {canary_submissions} submitted | {} passed | {} failed",
            ledger.canaries_passed, ledger.canaries_failed
        );
    }
    println!("lost requests: {lost}");
    // What serving left behind for good: the lineage of every request, and
    // how much of it repeated a batch the log already held.
    {
        let log = sys.provenance();
        let bytes = log.heap_bytes();
        let references = log.batches() - log.stored_batches();
        println!(
            "lineage: {bytes} bytes over {} requests ({:.0} B per request) | {:.1}% of {} batches stored as references",
            stats.submitted,
            bytes as f64 / stats.submitted.max(1) as f64,
            100.0 * references as f64 / log.batches().max(1) as f64,
            log.batches()
        );
    }
    if lost != 0 || stats.submitted != args.requests as u64 + canary_submissions {
        eprintln!(
            "accounting violated: {} submitted ({} traffic + {} canaries), {} accounted",
            stats.submitted,
            args.requests,
            canary_submissions,
            stats.accounted()
        );
        return ExitCode::FAILURE;
    }
    // `--usage-report`: print the per-tenant cost rollup and reconcile it
    // against the client-side ledger — the sum of every completed report's
    // cost vector, per tenant — then reconcile the service's stage totals
    // against the sum of every report's timing. Any mismatch fails the
    // run: the rollup is billing, and billing that drifts from what
    // customers were handed is a bug, not noise.
    if args.usage_report {
        println!("\n==> usage report");
        let fmt_cost = |cost: &CostVector| {
            format!(
                "vectors {} | postings {} | bytes {} | embeds {} | cache {}/{} | fanout {}",
                cost.vectors_scanned,
                cost.bm25_postings,
                cost.bytes_read,
                cost.embeds,
                cost.cache_hits,
                cost.cache_hits + cost.cache_misses,
                cost.shard_fanout
            )
        };
        let mut client_total = CostVector::zero();
        for cost in &ledger.costs {
            client_total.merge(cost);
        }
        if args.tenants.is_empty() {
            println!("all traffic: {}", fmt_cost(&stats.cost));
        } else {
            for (index, tenant) in stats.tenants.iter().enumerate() {
                println!("tenant {}: {}", tenant.name, fmt_cost(&tenant.cost));
                if tenant.cost != ledger.costs[index] {
                    eprintln!(
                        "usage reconciliation failed for tenant {}: rollup {:?} != client ledger {:?}",
                        tenant.name, tenant.cost, ledger.costs[index]
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        if stats.cost != client_total {
            eprintln!(
                "usage reconciliation failed: service rollup {:?} != client ledger {:?}",
                stats.cost, client_total
            );
            return ExitCode::FAILURE;
        }
        println!(
            "usage reconciliation: tenant rollups equal the sum of per-request cost vectors exactly"
        );
        if stats.stages != ledger.stages {
            eprintln!(
                "stage-time reconciliation failed: service totals {:?} != client ledger {:?}",
                stats.stages, ledger.stages
            );
            return ExitCode::FAILURE;
        }
        println!(
            "stage-time reconciliation: stage totals equal the sum of per-request timings exactly"
        );
    }

    // `--profile-dump PATH`: the service's stage totals as a collapsed-
    // stack profile, one `service;request;<stage> <ns>` line per stage.
    // The dump is self-validated before it is written — well-formed, and
    // weights summing exactly to the stage totals — and a dump that fails
    // either check fails the run.
    if let Some(path) = &args.profile_dump {
        let stages = &stats.stages;
        let folded = stages.folded();
        let stage_ns = stages.queue_ns + stages.retrieval_ns + stages.rerank_ns + stages.verify_ns;
        match validate_folded(&folded) {
            Ok((_, weight)) if weight != stage_ns => {
                eprintln!("profile dump weighs {weight} ns, stage totals {stage_ns} ns");
                return ExitCode::FAILURE;
            }
            Ok((stacks, weight)) => {
                if let Err(error) = std::fs::write(path, &folded) {
                    eprintln!("cannot write profile dump to {path}: {error}");
                    return ExitCode::FAILURE;
                }
                println!(
                    "profile dump: {stacks} folded stacks, {weight} ns of request time -> {path}"
                );
            }
            Err(error) => {
                eprintln!("profile dump failed validation: {error}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Every golden probe verified at startup; one that does not verify
    // now is a quality regression, and it fails the run (check.sh gates
    // canary health on this exit).
    if ledger.canaries_failed > 0 {
        eprintln!(
            "{} of {canary_submissions} canary probes failed",
            ledger.canaries_failed
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ledger judges a probe by its verdict alone: one that comes back
    /// `Verified` passes, any other completed verdict fails, and neither
    /// counts as client traffic or moves the traffic counters.
    #[test]
    fn ledger_fails_a_probe_that_does_not_verify() {
        let sys = Arc::new(VerifAi::build(
            build(&LakeSpec::tiny(5)),
            VerifAiConfig::default(),
        ));
        let decided = |verified: bool| {
            completion_workload(sys.generated(), 40, 5)
                .iter()
                .map(|task| sys.impute(task))
                .find(|object| {
                    (sys.verify_object(object).decision == Verdict::Verified) == verified
                })
                .expect("the workload holds both outcomes")
        };
        let (pass, fail) = (decided(true), decided(false));
        let service = VerificationService::new(Arc::clone(&sys), ServiceConfig::default());
        let mut ledger = Ledger::new(1);
        for object in [pass.clone(), fail, pass] {
            let ticket = service.submit(object).expect("admitted");
            ledger.drain((ticket, true, 0));
        }
        assert_eq!((ledger.canaries_passed, ledger.canaries_failed), (2, 1));
        assert_eq!((ledger.completed, ledger.shed, ledger.failed), (0, 0, 0));
        assert_eq!(service.shutdown().completed, 3);
    }
}
