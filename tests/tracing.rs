//! Distributed span-tree tracing: cross-shard propagation through the
//! cluster router, tree stitching via `Router::lookup_trace`, tail-based
//! sampling retention, and the Perfetto/Chrome trace-event export.
//!
//! The headline invariant: a clustered request's stitched trace is a
//! well-formed tree — every per-shard child span's interval nests inside
//! its parent stage span — across shard counts.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use verifai::{DataObject, MockClock, RequestTrace, SemanticBackend, VerifAi, VerifAiConfig};
use verifai_cluster::{build_cluster, build_cluster_with_clock, ClusterConfig};
use verifai_datagen::{build, completion_workload, LakeSpec};
use verifai_obs::{render_perfetto, validate_trace_dump, Clock, FlightRecorder, SamplingPolicy};
use verifai_service::{RequestOutcome, ServiceConfig, VerificationService};

fn flat_config() -> VerifAiConfig {
    VerifAiConfig {
        semantic_backend: SemanticBackend::Flat,
        ..VerifAiConfig::default()
    }
}

fn objects_of(sys: &VerifAi, n: usize, seed: u64) -> Vec<DataObject> {
    completion_workload(sys.generated(), n, seed)
        .iter()
        .map(|t| sys.impute(t))
        .collect()
}

/// Every child span's `[start, start + duration]` interval lies inside its
/// parent's, and every non-zero parent id resolves to a span in the tree.
fn assert_nested(tree: &RequestTrace) {
    for child in &tree.spans {
        if child.parent_id == 0 {
            continue;
        }
        let parent = tree.span_by_id(child.parent_id).unwrap_or_else(|| {
            panic!(
                "span {} orphaned: parent {} missing",
                child.span_id, child.parent_id
            )
        });
        assert!(
            child.start_ns >= parent.start_ns,
            "child '{}' starts at {} before parent '{}' at {}",
            child.stage,
            child.start_ns,
            parent.stage,
            parent.start_ns
        );
        assert!(
            child.end_ns() <= parent.end_ns(),
            "child '{}' ends at {} after parent '{}' at {}",
            child.stage,
            child.end_ns(),
            parent.stage,
            parent.end_ns()
        );
    }
}

/// Acceptance: a 4-shard clustered request's stitched trace contains the
/// full tree — queue/retrieval/rerank/verify parents plus one child span
/// per shard recording shard id and candidate counts — and its Perfetto
/// export is valid Chrome trace-event JSON.
#[test]
fn four_shard_request_trace_stitches_the_full_tree() {
    let cluster = build_cluster(
        build(&LakeSpec::tiny(31)),
        flat_config(),
        ClusterConfig::with_shards(4),
    );
    let sys = Arc::new(cluster.system);
    let service = VerificationService::new(Arc::clone(&sys), ServiceConfig::default());
    cluster.router.attach_recorder(service.obs().recorder_arc());

    let objects = objects_of(&sys, 4, 31);
    let reports: Vec<_> = objects
        .iter()
        .map(
            |o| match service.submit(o.clone()).expect("admitted").wait() {
                RequestOutcome::Completed(report) => report,
                other => panic!("expected completion, got {other:?}"),
            },
        )
        .collect();

    let mut stitched = Vec::new();
    for report in &reports {
        assert_ne!(report.trace_id, 0);
        let tree = cluster
            .router
            .lookup_trace(report.trace_id)
            .expect("stitched tree retained");
        // The request lifecycle parents are all present.
        for stage in ["queue", "retrieval", "rerank", "verify"] {
            assert!(tree.span_for(stage).is_some(), "missing {stage} span");
        }
        let retrieval = tree.span_for("retrieval").expect("retrieval span");
        // One child span per shard (aggregated across content + semantic
        // members), named by shard id and carrying candidate counts.
        for shard in 0..4 {
            let name = format!("shard-{shard}");
            let child = tree
                .spans
                .iter()
                .find(|s| s.stage == name.as_str())
                .unwrap_or_else(|| panic!("missing {name} child span"));
            assert_eq!(child.parent_id, retrieval.span_id, "{name} parent");
            assert!(
                child.note.contains("k ") && child.note.contains("merged"),
                "{name} note must record k and merge contribution: {}",
                child.note
            );
        }
        assert_nested(&tree);
        stitched.push(tree);
    }

    // The whole set exports as loadable Chrome trace-event JSON with the
    // shard children intact.
    let refs: Vec<&RequestTrace> = stitched.iter().collect();
    let json = render_perfetto(&refs).to_string();
    let summary = validate_trace_dump(&json).expect("valid trace-event JSON");
    assert_eq!(summary.traces, stitched.len());
    assert!(
        summary.shard_spans >= 4 * stitched.len(),
        "expected >= {} shard spans, got {}",
        4 * stitched.len(),
        summary.shard_spans
    );
    service.shutdown();
}

/// Tail-based sampling retention, deterministically: every failed, shed,
/// and deadline-partial trace survives; healthy traces are kept at a
/// bounded fraction.
#[test]
fn tail_sampling_keeps_all_failures_and_a_bounded_healthy_fraction() {
    let clock = MockClock::with_auto_step(Duration::from_micros(100));
    let recorder = FlightRecorder::with_sampling(8, 4, SamplingPolicy::tail(4, 64));
    let healthy = 200u64;
    let latency = || {
        // Deterministic, clock-derived latencies: each trace observes a
        // fresh pair of mock-clock reads.
        let start = clock.now();
        verifai_obs::ns_between(start, clock.now())
    };
    for id in 1..=healthy {
        let mut trace = RequestTrace::new(id, id);
        trace.span("retrieval", latency(), 4, 2, "");
        trace.finish("completed", latency() * (id % 7 + 1));
        recorder.record(trace);
    }
    let mut sad_ids = Vec::new();
    for (offset, outcome) in [(1000, "failed"), (2000, "shed"), (3000, "partial")] {
        for n in 1..=20u64 {
            let id = offset + n;
            let mut trace = RequestTrace::new(id, id);
            trace.finish(outcome, latency());
            recorder.record(trace);
            sad_ids.push(id);
        }
    }
    // 100% of failed/shed/partial traces are retained.
    for id in &sad_ids {
        assert!(
            recorder.lookup(*id).is_some(),
            "outcome trace {id} was sampled out"
        );
    }
    // Healthy traces are kept at a bounded fraction: the deterministic
    // 1-in-4 hash sample plus the p99-slow and recent/slowest rings.
    let healthy_kept = (1..=healthy)
        .filter(|id| recorder.lookup(*id).is_some())
        .count();
    assert!(healthy_kept > 0, "some healthy traces must survive");
    assert!(
        healthy_kept < healthy as usize / 2,
        "healthy retention unbounded: {healthy_kept}/{healthy}"
    );
    assert!(recorder.sampled_out() > 0);
    assert_eq!(
        recorder.recorded(),
        healthy + sad_ids.len() as u64,
        "recorded counts every trace, retained or not"
    );
}

/// Report equality still excludes timing (and trace ids): the same object
/// verified under wildly different clocks produces equal reports.
#[test]
fn report_equality_excludes_timing_and_trace_ids() {
    let spec = LakeSpec::tiny(27);
    let fast = VerifAi::build_with_clock(
        build(&spec),
        flat_config(),
        Arc::new(MockClock::with_auto_step(Duration::from_micros(250))),
    );
    let slow = VerifAi::build_with_clock(
        build(&spec),
        flat_config(),
        Arc::new(MockClock::with_auto_step(Duration::from_millis(5))),
    );
    for object in objects_of(&fast, 3, 27) {
        let mut trace_a = RequestTrace::new(7, object.id());
        let mut trace_b = RequestTrace::new(8, object.id());
        let a = fast.verify_object_traced(&object, &mut trace_a);
        let b = slow.verify_object_traced(&object, &mut trace_b);
        assert_ne!(a.timing.retrieval_ns, b.timing.retrieval_ns);
        assert_ne!(a.trace_id, b.trace_id);
        assert_eq!(a, b, "equality must exclude timing and trace ids");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Across shard counts 1..8, a traced request's per-shard child spans
    /// graft under its retrieval span and nest inside its interval.
    #[test]
    fn shard_children_nest_inside_parents(shards in 1usize..9) {
        let clock = Arc::new(MockClock::with_auto_step(Duration::from_micros(50)));
        let cluster = build_cluster_with_clock(
            build(&LakeSpec::tiny(31)),
            flat_config(),
            ClusterConfig::with_shards(shards),
            clock,
        );
        let recorder = Arc::new(FlightRecorder::new(16, 8));
        cluster.router.attach_recorder(Arc::clone(&recorder));
        let objects = objects_of(&cluster.system, 3, 31);

        for (i, object) in objects.iter().enumerate() {
            let id = i as u64 + 1;
            let mut trace = RequestTrace::new(id, object.id());
            cluster.system.verify_object_traced(object, &mut trace);
            let total: u64 = trace.spans.iter().map(|s| s.duration_ns).sum();
            trace.finish("completed", total);
            recorder.record(trace);
        }

        for id in 1..=objects.len() as u64 {
            let tree = cluster.router.lookup_trace(id).expect("tree retained");
            let retrieval = tree.span_for("retrieval").expect("retrieval span");
            let shard_children: Vec<_> = tree
                .spans
                .iter()
                .filter(|s| s.stage.starts_with("shard-"))
                .collect();
            prop_assert!(
                !shard_children.is_empty(),
                "no shard children for trace {} at shards={}",
                id,
                shards
            );
            for child in &shard_children {
                prop_assert_eq!(child.parent_id, retrieval.span_id);
                // Shard ids stay within range.
                let shard: usize = child.stage["shard-".len()..].parse().unwrap();
                prop_assert!(shard < shards);
            }
            assert_nested(&tree);
        }
    }
}
