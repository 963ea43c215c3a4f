//! Integration tests for the `verifai-service` serving layer: concurrent
//! correctness against the sequential pipeline, accounting under overload,
//! deadline partial reports, and cache-independence of results.

use std::sync::Arc;
use std::time::Duration;

use verifai::{DataObject, ObsConfig, Verdict, VerifAi, VerifAiConfig, VerificationReport};
use verifai_claims::ClaimGenConfig;
use verifai_datagen::{build, claim_workload, completion_workload, LakeSpec};
use verifai_service::{RequestOutcome, ServiceConfig, Ticket, VerificationService};
use verifai_verify::Stage;

fn system(seed: u64) -> Arc<VerifAi> {
    Arc::new(VerifAi::build(
        build(&LakeSpec::tiny(seed)),
        VerifAiConfig::default(),
    ))
}

/// A mixed workload of masked-tuple imputations and text claims.
fn mixed_objects(sys: &VerifAi, n_each: usize, seed: u64) -> Vec<DataObject> {
    let mut objects: Vec<DataObject> = completion_workload(sys.generated(), n_each, seed)
        .iter()
        .map(|t| sys.impute(t))
        .collect();
    objects.extend(
        claim_workload(
            sys.generated(),
            n_each,
            ClaimGenConfig {
                seed,
                ..ClaimGenConfig::default()
            },
        )
        .iter()
        .map(|c| sys.claim_object(c)),
    );
    objects
}

/// Concurrent service results are byte-identical to sequential
/// `verify_object`, every request completes, and the accounting invariant
/// holds exactly.
#[test]
fn concurrent_results_match_sequential() {
    let sys = system(11);
    let objects = mixed_objects(&sys, 8, 11);
    let service = VerificationService::new(Arc::clone(&sys), ServiceConfig::default());
    let tickets: Vec<Ticket> = objects
        .iter()
        .map(|o| service.submit(o.clone()).expect("unloaded queue admits"))
        .collect();
    for (object, ticket) in objects.iter().zip(tickets) {
        let report = match ticket.wait() {
            RequestOutcome::Completed(report) => report,
            RequestOutcome::Shed => panic!("unloaded service shed a request"),
            RequestOutcome::Failed(error) => panic!("request failed: {error}"),
        };
        assert_eq!(
            report,
            sys.verify_object(object),
            "service diverged from sequential"
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.submitted, objects.len() as u64);
    assert_eq!(stats.accounted(), stats.submitted);
    assert_eq!(stats.completed, objects.len() as u64);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 0);
}

/// With queue capacity far below the request count and an aggressive
/// high-water mark, the service sheds/rejects instead of deadlocking or
/// buffering unboundedly — and still accounts for every request.
#[test]
fn overload_sheds_without_losing_requests() {
    let sys = system(12);
    let objects = mixed_objects(&sys, 30, 12);
    let config = ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        high_water: 2,
        ..ServiceConfig::default()
    };
    let service = VerificationService::new(Arc::clone(&sys), config);
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    // Submit 60 requests as fast as possible against a 16-slot queue.
    for object in &objects {
        match service.submit(object.clone()) {
            Ok(ticket) => tickets.push(ticket),
            Err(_) => rejected += 1,
        }
    }
    let mut completed = 0u64;
    let mut shed = 0u64;
    for ticket in tickets {
        match ticket.wait() {
            RequestOutcome::Completed(_) => completed += 1,
            RequestOutcome::Shed => shed += 1,
            RequestOutcome::Failed(error) => panic!("request failed: {error}"),
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.submitted, objects.len() as u64);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.accounted(), stats.submitted);
    assert!(
        rejected > 0,
        "16-slot queue should reject some of 60 fast submissions"
    );
}

/// A zero deadline cannot be met: the request must still resolve — with a
/// partial report (verdict Unknown, no evidence verdicts) — not hang.
#[test]
fn zero_deadline_returns_partial_report() {
    let sys = system(13);
    let objects = mixed_objects(&sys, 1, 13);
    let service = VerificationService::new(Arc::clone(&sys), ServiceConfig::default());
    let ticket = service
        .submit_with_deadline(objects[0].clone(), Some(Duration::ZERO))
        .expect("admitted");
    match ticket.wait() {
        RequestOutcome::Completed(report) => {
            assert_eq!(report.decision, Verdict::Unknown);
            assert_eq!(report.confidence, 0.0);
            assert_eq!(report.object_id, objects[0].id());
        }
        RequestOutcome::Shed => panic!("unloaded service shed a request"),
        RequestOutcome::Failed(error) => panic!("request failed: {error}"),
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 1);
}

/// The evidence cache is invisible in results: the same workload served with
/// the cache enabled and disabled yields identical reports.
#[test]
fn cache_does_not_change_reports() {
    let sys = system(14);
    let base = mixed_objects(&sys, 5, 14);
    // Repeat the pool so the cached run actually serves hits.
    let workload: Vec<DataObject> = base.iter().cycle().take(base.len() * 3).cloned().collect();

    let run = |cache_capacity: usize| -> (Vec<_>, verifai_service::ServiceStats) {
        let config = ServiceConfig {
            cache_capacity,
            ..ServiceConfig::default()
        };
        let service = VerificationService::new(Arc::clone(&sys), config);
        let tickets: Vec<Ticket> = workload
            .iter()
            .map(|o| service.submit(o.clone()).expect("admitted"))
            .collect();
        let reports = tickets
            .into_iter()
            .map(|t| match t.wait() {
                RequestOutcome::Completed(report) => report,
                RequestOutcome::Shed => panic!("unloaded service shed a request"),
                RequestOutcome::Failed(error) => panic!("request failed: {error}"),
            })
            .collect();
        (reports, service.shutdown())
    };

    let (cached, cached_stats) = run(1024);
    let (cold, cold_stats) = run(0);
    assert!(
        cached_stats.cache.hits > 0,
        "repeated workload must hit the cache"
    );
    assert_eq!(cold_stats.cache.hits, 0);
    assert_eq!(cached, cold, "cache changed verification results");
}

/// Serve one object through `service` and wait for its report.
fn serve(service: &VerificationService, object: &DataObject) -> VerificationReport {
    match service.submit(object.clone()).expect("admitted").wait() {
        RequestOutcome::Completed(report) => report,
        other => panic!("expected completion, got {other:?}"),
    }
}

/// The `verify` span note of the trace `report` was served under.
fn verify_note(service: &VerificationService, report: &VerificationReport) -> String {
    let trace = service
        .obs()
        .recorder()
        .lookup(report.trace_id)
        .unwrap_or_else(|| panic!("trace {} not retained", report.trace_id));
    let verify = trace.span_for("verify").expect("verify span");
    verify.note.to_string()
}

/// A cache hit replays the judgment the evidence cache kept. For a tuple
/// and a claim object: the first (judged) and second (replayed) service
/// reports both equal `verify_object`'s; the replay appends exactly the
/// lineage rows the judged request's verify and decision stages appended;
/// the replayed `verify` span says `replayed`. An object under the same
/// key with another id is judged, not replayed, gets its own
/// `verify_object` report, and takes the entry over.
#[test]
fn a_cache_hit_replays_its_judgment() {
    let sys = system(18);
    let objects = mixed_objects(&sys, 1, 18);
    assert!(matches!(objects[0], DataObject::ImputedCell(_)));
    assert!(matches!(objects[1], DataObject::TextClaim(_)));
    let one_worker = || ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    for object in &objects {
        let want = sys.verify_object(object);
        let mut other = object.clone();
        match &mut other {
            DataObject::ImputedCell(cell) => cell.id += 1000,
            DataObject::TextClaim(claim) => claim.id += 1000,
        }
        let want_other = sys.verify_object(&other);

        // Lineage, untraced: decision notes carry no trace stamp, so the
        // judged and the replayed rows compare whole.
        let service =
            VerificationService::with_obs(Arc::clone(&sys), one_worker(), ObsConfig::off());
        let rows = || sys.provenance().for_object(object.id());
        let before = rows().len();
        assert_eq!(serve(&service, object), want, "judged report");
        let between = rows().len();
        assert_eq!(serve(&service, object), want, "replayed report");
        let rows = rows();
        let judged: Vec<_> = rows[before..between]
            .iter()
            .filter(|r| matches!(r.stage, Stage::Verify { .. } | Stage::Decision))
            .cloned()
            .collect();
        assert_eq!(judged.len(), want.evidence.len() + 1);
        assert_eq!(&rows[between..], &judged[..], "replayed lineage rows");
        let stats = service.shutdown();
        assert_eq!((stats.cache.misses, stats.cache.hits), (1, 1));

        // Spans, traced.
        let service = VerificationService::new(Arc::clone(&sys), one_worker());
        let judged = serve(&service, object);
        assert_eq!(verify_note(&service, &judged), "");
        let replayed = serve(&service, object);
        assert_eq!(replayed, want);
        assert_eq!(verify_note(&service, &replayed), "replayed");
        // Same key, another id: a hit, judged afresh...
        let report = serve(&service, &other);
        assert_eq!(report, want_other);
        assert_eq!(verify_note(&service, &report), "");
        // ...whose judgment now owns the entry: the first object is judged
        // again, then replays once more.
        let again = serve(&service, object);
        assert_eq!(again, want);
        assert_eq!(verify_note(&service, &again), "");
        let replayed = serve(&service, object);
        assert_eq!(replayed, want);
        assert_eq!(verify_note(&service, &replayed), "replayed");
        let stats = service.shutdown();
        assert_eq!((stats.cache.misses, stats.cache.hits), (1, 4));
    }
}

/// Tentpole acceptance: a completed request's full span trace — all three
/// pipeline stages, with candidate counts matching the report — is
/// retrievable from the flight recorder by the trace id its report carries.
#[test]
fn flight_recorder_retrieves_full_trace_by_id() {
    let sys = system(15);
    let objects = mixed_objects(&sys, 3, 15);
    let service = VerificationService::new(Arc::clone(&sys), ServiceConfig::default());
    let tickets: Vec<Ticket> = objects
        .iter()
        .map(|o| service.submit(o.clone()).expect("admitted"))
        .collect();
    let reports: Vec<_> = tickets
        .into_iter()
        .map(|t| match t.wait() {
            RequestOutcome::Completed(report) => report,
            other => panic!("expected completion, got {other:?}"),
        })
        .collect();
    for report in &reports {
        assert_ne!(report.trace_id, 0, "enabled obs must stamp a trace id");
        let trace = service
            .obs()
            .recorder()
            .lookup(report.trace_id)
            .unwrap_or_else(|| panic!("trace {} not retained", report.trace_id));
        assert_eq!(trace.object_id, report.object_id);
        assert_eq!(trace.outcome, "completed");
        // Every lifecycle stage left a span, in execution order, and
        // nothing else did.
        let stages: Vec<&str> = trace.spans.iter().map(|s| s.stage.as_ref()).collect();
        assert_eq!(stages, ["queue", "cache", "retrieval", "rerank", "verify"]);
        // Span durations and candidate counts agree with the report's
        // instrumentation.
        let queue = trace.span_for("queue").expect("queue span");
        assert_eq!(queue.duration_ns, report.timing.queue_ns);
        let retrieval = trace.span_for("retrieval").expect("retrieval span");
        assert_eq!(retrieval.candidates_in, report.timing.candidates_in);
        assert_eq!(retrieval.duration_ns, report.timing.retrieval_ns);
        let rerank = trace.span_for("rerank").expect("rerank span");
        assert_eq!(rerank.candidates_out, report.timing.candidates_out);
        // On a static lake every hit resolves: retrieval passes what it
        // found to rerank unchanged.
        assert_eq!(retrieval.candidates_out, retrieval.candidates_in);
        assert_eq!(rerank.candidates_in, retrieval.candidates_out);
        assert_eq!(rerank.duration_ns, report.timing.rerank_ns);
        let verify = trace.span_for("verify").expect("verify span");
        assert_eq!(verify.candidates_out, report.evidence.len());
        assert_eq!(verify.duration_ns, report.timing.verify_ns);
        // Distinct objects: every discovery was a cache miss.
        assert_eq!(trace.span_for("cache").expect("cache span").note, "miss");
    }
    // Trace ids are distinct per request.
    let mut ids: Vec<u64> = reports.iter().map(|r| r.trace_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), reports.len());
    let stats = service.shutdown();
    assert_eq!(stats.traces_recorded, reports.len() as u64);
    assert_eq!(stats.verdicts.total(), reports.len() as u64);
    assert!(stats.stage_latency.verify.count() >= reports.len() as u64);
}

/// With observability off, the hot path records nothing — no traces, no
/// histograms, no verdict counts — while the always-on accounting still
/// balances.
#[test]
fn disabled_observability_records_nothing() {
    let sys = system(16);
    let objects = mixed_objects(&sys, 2, 16);
    let service =
        VerificationService::with_obs(Arc::clone(&sys), ServiceConfig::default(), ObsConfig::off());
    let tickets: Vec<Ticket> = objects
        .iter()
        .map(|o| service.submit(o.clone()).expect("admitted"))
        .collect();
    for ticket in tickets {
        match ticket.wait() {
            RequestOutcome::Completed(report) => {
                assert_eq!(report.trace_id, 0, "disabled obs must not stamp trace ids");
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, objects.len() as u64);
    assert_eq!(stats.accounted(), stats.submitted);
    assert_eq!(stats.traces_recorded, 0);
    assert_eq!(stats.verdicts.total(), 0);
    assert_eq!(stats.latency_p50, Duration::ZERO);
    assert_eq!(stats.stage_latency.verify.count(), 0);
    // The always-on sums still aggregate.
    assert!(stats.stages.verify_ns > 0);
}

/// The Prometheus and JSON exporters cover the service's series and agree
/// with the stats snapshot.
#[test]
fn exporters_render_service_metrics() {
    let sys = system(17);
    let objects = mixed_objects(&sys, 2, 17);
    let service = VerificationService::new(Arc::clone(&sys), ServiceConfig::default());
    let tickets: Vec<Ticket> = objects
        .iter()
        .map(|o| service.submit(o.clone()).expect("admitted"))
        .collect();
    for ticket in tickets {
        assert!(matches!(ticket.wait(), RequestOutcome::Completed(_)));
    }
    let text = service.render_prometheus();
    assert!(text.contains("# TYPE verifai_requests_total counter"));
    assert!(text.contains(&format!(
        "verifai_requests_total{{outcome=\"completed\"}} {}",
        objects.len()
    )));
    assert!(text.contains("# TYPE verifai_request_latency_seconds summary"));
    assert!(text.contains("verifai_stage_latency_seconds{stage=\"verify\",quantile=\"0.5\"}"));
    assert!(text.contains("verifai_queue_depth 0"));
    // Live-lake gauges ride both exporters, refreshed from live_stats():
    // a fresh build has a nonzero generation and zero tombstones.
    assert!(text.contains("# TYPE verifai_lake_generation gauge"));
    assert!(text.contains("verifai_lake_tombstones{family=\"content\"} 0"));
    let json = service.render_json_snapshot();
    assert!(
        json.as_object()
            .and_then(|o| o.get("verifai_lake_generation"))
            .and_then(|v| v.as_f64())
            .is_some_and(|g| g > 0.0),
        "lake generation gauge missing from JSON export"
    );
    let object = json.as_object().expect("top-level object");
    assert_eq!(
        object
            .get("verifai_requests_total{outcome=\"completed\"}")
            .and_then(|v| v.as_u64()),
        Some(objects.len() as u64)
    );
    let latency = object
        .get("verifai_request_latency_seconds")
        .and_then(|v| v.as_object())
        .expect("latency histogram");
    assert_eq!(
        latency.get("count").and_then(|v| v.as_u64()),
        Some(objects.len() as u64)
    );
    service.shutdown();
}
