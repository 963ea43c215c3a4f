//! Resource-metering contract: every report carries an exact cost vector,
//! metering is independent of execution shape (batched vs sequential,
//! cached vs fresh), and the service's per-tenant cost rollups reconcile
//! to the cent with the vectors handed to clients — including under
//! concurrent completion across worker threads.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use verifai::{CostVector, DataObject, VerifAi, VerifAiConfig};
use verifai_claims::ClaimGenConfig;
use verifai_datagen::{build, claim_workload, completion_workload, LakeSpec};
use verifai_index::SegmentedInvertedIndex;
use verifai_lake::InstanceKind;
use verifai_obs::meter;
use verifai_service::{
    RequestOutcome, ServiceConfig, StageTotals, TenantSpec, VerificationService,
};

fn system(seed: u64) -> VerifAi {
    VerifAi::build(build(&LakeSpec::tiny(seed)), VerifAiConfig::default())
}

/// Cell and claim objects over `sys`' lake.
fn mixed_objects(sys: &VerifAi) -> Vec<DataObject> {
    let mut objects: Vec<DataObject> = completion_workload(sys.generated(), 5, 11)
        .iter()
        .map(|t| sys.impute(t))
        .collect();
    objects.extend(
        claim_workload(sys.generated(), 5, ClaimGenConfig::default())
            .iter()
            .map(|c| sys.claim_object(c)),
    );
    objects
}

#[test]
fn reports_carry_exact_cost_vectors() {
    let sys = system(601);
    let tasks = completion_workload(sys.generated(), 4, 3);
    for task in &tasks {
        let object = sys.impute(task);
        let report = sys.verify_object(&object);
        // Retrieval ran real kernels: the vector must show the work.
        assert!(report.cost.vectors_scanned > 0, "no scans metered");
        assert!(report.cost.bm25_postings > 0, "no postings metered");
        assert!(report.cost.bytes_read > 0, "no bytes metered");
        assert!(report.cost.embeds > 0, "no embeds metered");
    }
}

#[test]
fn cost_is_excluded_from_report_equality() {
    let sys = system(602);
    let tasks = completion_workload(sys.generated(), 1, 3);
    let object = sys.impute(&tasks[0]);
    let report = sys.verify_object(&object);
    let mut other = report.clone();
    other.cost = CostVector::zero();
    // Like `timing`, cost is run bookkeeping: two reports that agree on
    // verdict and evidence are equal however much they cost to produce.
    assert_eq!(report, other);
}

#[test]
fn repeated_runs_meter_identical_work() {
    let sys = system(603);
    let tasks = completion_workload(sys.generated(), 3, 5);
    for task in &tasks {
        let object = sys.impute(task);
        let first = sys.verify_object(&object);
        let second = sys.verify_object(&object);
        assert_eq!(
            first.cost, second.cost,
            "metered work must be deterministic per object"
        );
    }
}

#[test]
fn batched_and_sequential_execution_meter_identically() {
    let sys = system(604);
    let tasks = completion_workload(sys.generated(), 6, 7);
    let objects: Vec<DataObject> = tasks.iter().map(|t| sys.impute(t)).collect();

    // verify_batch spreads whole objects across threads; each report's
    // vector must match its solo-run twin exactly.
    let solo: Vec<CostVector> = objects.iter().map(|o| sys.verify_object(o).cost).collect();
    let batched: Vec<CostVector> = sys
        .verify_batch(&objects, 3)
        .into_iter()
        .map(|r| r.cost)
        .collect();
    assert_eq!(solo, batched);
}

/// What a request is charged does not depend on what ran before it.
/// Evidence features are prepared when an instance enters the lake, never
/// on first touch, so there is no warm-up for an earlier request to pay:
/// an object costs the same work verified first or last in a run — and its
/// embeds are the query's, not the corpus's.
#[test]
fn metered_work_is_independent_of_request_order() {
    let work = |sys: &VerifAi, object: &DataObject| sys.verify_object(object).cost;

    // Two identical fresh systems: one sees the objects first to last, the
    // other last to first, so every object but the middle one changes from
    // "early in the run" to "late in the run".
    let forward_sys = system(606);
    let objects = mixed_objects(&forward_sys);
    let forward: Vec<CostVector> = objects.iter().map(|o| work(&forward_sys, o)).collect();
    let backward_sys = system(606);
    let mut backward: Vec<CostVector> = objects
        .iter()
        .rev()
        .map(|o| work(&backward_sys, o))
        .collect();
    backward.reverse();
    assert_eq!(forward, backward, "cost depends on position in the run");

    // The embeds are exactly the request's own: the retrieval query, plus
    // the rerank's query side once.
    for (object, cost) in objects.iter().zip(&forward) {
        assert_eq!(cost.embeds, 2, "object {}", object.id());
    }
}

/// A request embeds two things, whatever it retrieves: its retrieval query
/// and the query side of its rerank. Every candidate's evidence side —
/// tuples included — was prepared when it entered the lake, so the coarse
/// k moves the scans and postings a request is charged, never its embeds.
/// And rerank and verify charge nothing else: the rest of the vector is,
/// count for count, what the modalities' retrievals charge on their own.
#[test]
fn a_request_embeds_its_two_queries_at_any_coarse_k() {
    for coarse_k in [10, 50, 200] {
        let config = VerifAiConfig {
            coarse_k,
            ..VerifAiConfig::default()
        };
        let sys = VerifAi::build(build(&LakeSpec::tiny(609)), config);
        for object in mixed_objects(&sys) {
            let report = sys.verify_object(&object);
            assert_eq!(
                report.cost.embeds,
                2,
                "coarse_k {coarse_k}: object {} ({} candidates in)",
                object.id(),
                report.timing.candidates_in
            );
            let kinds: &[InstanceKind] = match object {
                DataObject::ImputedCell(_) => &[InstanceKind::Tuple, InstanceKind::Text],
                DataObject::TextClaim(_) => &[InstanceKind::Table],
            };
            let query = VerifAi::query_of(&object);
            let mut retrieval = CostVector::zero();
            for &kind in kinds {
                let (hits, cost) = meter::scoped(|| sys.retrieve(&query, kind, coarse_k));
                assert!(!hits.is_empty());
                retrieval.merge(&cost);
            }
            // `retrieve` embeds the query once per call; a request once.
            assert_eq!(retrieval.embeds, kinds.len() as u64);
            retrieval.embeds = 0;
            let mut rest = report.cost;
            rest.embeds = 0;
            assert_eq!(rest, retrieval, "coarse_k {coarse_k}");
        }
    }
}

/// Re-index content modality `slot` of `sys` from its lake at a small seal
/// threshold, stopping early once `until` says so. Returns the segment
/// count the index ends with.
fn reindex_content(
    sys: &VerifAi,
    slot: usize,
    threshold: usize,
    until: impl Fn(&SegmentedInvertedIndex) -> bool,
) -> usize {
    let entries = verifai::corpus::content_entries(sys.lake(), slot);
    let mut index = SegmentedInvertedIndex::default().with_seal_threshold(threshold);
    for (id, text) in &entries {
        index.add(*id, text);
        if until(&index) {
            break;
        }
    }
    let segments = index.segments();
    *sys.live().expect("a built system is live").content[slot].write() = index;
    segments
}

/// What a request is charged does not depend on how the content index
/// happens to be segmented: every posting of every query term is visited
/// and charged once, wherever it lives. The same lake indexed at seal
/// threshold 7 (many segments, tail merges along the way) and at the
/// default (one segment after the build) charges identical work — and
/// returns identical reports — when nothing is tombstoned.
#[test]
fn postings_charge_is_independent_of_segment_layout() {
    let default_sys = system(607);
    let segmented_sys = system(607);
    let mut segments = 0;
    for slot in 0..4 {
        segments += reindex_content(&segmented_sys, slot, 7, |_| false);
    }
    assert!(
        segments > default_sys.live_stats().content_segments,
        "threshold 7 must leave a multi-segment layout ({segments} segments)"
    );
    for object in mixed_objects(&default_sys) {
        let want = default_sys.verify_object(&object);
        let got = segmented_sys.verify_object(&object);
        assert!(want.cost.bm25_postings > 0);
        assert_eq!(got.cost, want.cost, "{}", object.id());
        assert_eq!(got, want, "{}", object.id());
    }
}

/// A tail merge between two identical requests moves postings between
/// segments, not in or out of the index: the second request is charged
/// exactly what the first was.
#[test]
fn postings_charge_is_unchanged_by_a_tail_merge() {
    let sys = system(608);
    // Index tuples until the layout is one seal short of the fan-out cap:
    // full sealed segments plus a non-empty memtable.
    let full = SegmentedInvertedIndex::MAX_SEGMENTS;
    let before = reindex_content(&sys, 0, 7, |index| index.segments() == full);
    assert_eq!(
        before, full,
        "the tiny lake holds enough tuples to fill the cap"
    );
    let objects = mixed_objects(&sys);
    let first: Vec<_> = objects.iter().map(|o| sys.verify_object(o)).collect();
    let tuples = &sys.live().expect("a built system is live").content[0];
    tuples.write().seal();
    assert!(
        tuples.read().segments() < before,
        "the seal must merge a tail"
    );
    for (object, first) in objects.iter().zip(&first) {
        let second = sys.verify_object(object);
        assert_eq!(second.cost, first.cost, "{}", object.id());
        assert_eq!(&second, first, "{}", object.id());
    }
}

/// The reconciliation invariant end to end: with multiple tenants, worker
/// threads completing requests concurrently, and cache hits, each tenant's
/// `verifai_tenant_cost_total` rollup equals the fieldwise sum of the cost
/// vectors returned to that tenant — exactly, not approximately — and the
/// service-wide rollup equals their total. The service's stage totals
/// likewise equal the sum of the returned timings.
#[test]
fn tenant_rollups_reconcile_under_concurrent_completion() {
    let sys = Arc::new(system(605));
    let tasks = completion_workload(sys.generated(), 8, 9);
    let objects: Vec<DataObject> = tasks.iter().map(|t| sys.impute(t)).collect();
    let service = VerificationService::new(
        Arc::clone(&sys),
        ServiceConfig {
            workers: 4,
            tenants: vec![TenantSpec::new("acme", 3), TenantSpec::new("beta", 1)],
            ..ServiceConfig::default()
        },
    );
    let tenant_names = ["acme", "beta"];
    let mut tickets = Vec::new();
    // Three rounds over the pool so the evidence cache serves hits too.
    for round in 0..3 {
        for (i, object) in objects.iter().enumerate() {
            let tenant = (i + round) % 2;
            let ticket = service
                .submit_for(tenant_names[tenant], object.clone())
                .expect("admitted");
            tickets.push((tenant, ticket));
        }
    }
    let mut client_ledger = [CostVector::zero(), CostVector::zero()];
    let mut client_stages = StageTotals::default();
    let mut cache_hits_seen = 0u64;
    for (tenant, ticket) in tickets {
        match ticket.wait() {
            RequestOutcome::Completed(report) => {
                client_ledger[tenant].merge(&report.cost);
                client_stages.queue_ns += report.timing.queue_ns;
                client_stages.retrieval_ns += report.timing.retrieval_ns;
                client_stages.rerank_ns += report.timing.rerank_ns;
                client_stages.verify_ns += report.timing.verify_ns;
                client_stages.candidates_in += report.timing.candidates_in as u64;
                client_stages.candidates_out += report.timing.candidates_out as u64;
                cache_hits_seen += report.cost.cache_hits;
            }
            other => panic!("request did not complete: {other:?}"),
        }
    }
    assert!(cache_hits_seen > 0, "repeat rounds must hit the cache");
    let stats = service.shutdown();
    let mut total = CostVector::zero();
    for (tenant, ledger) in stats.tenants.iter().zip(&client_ledger) {
        assert_eq!(
            tenant.cost, *ledger,
            "tenant {} rollup drifted from the vectors its clients received",
            tenant.name
        );
        total.merge(ledger);
    }
    assert_eq!(stats.cost, total, "service-wide rollup != sum of tenants");
    assert_eq!(
        stats.stages, client_stages,
        "stage totals drifted from the timings clients received"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Completion order cannot perturb a rollup: merging each tenant's
    /// per-request vectors in any interleaving (that is what concurrent
    /// workers produce) yields the same per-tenant totals as submission
    /// order — merge is commutative/associative, so the rollup is exact
    /// no matter which worker finishes first.
    #[test]
    fn rollup_is_invariant_under_completion_order(
        requests in proptest::collection::vec((0usize..4, 0u64..1_000_000), 1..64),
        rotation in 0usize..64,
    ) {
        let mut in_order: HashMap<usize, CostVector> = HashMap::new();
        for &(tenant, magnitude) in &requests {
            let cost = CostVector {
                vectors_scanned: magnitude,
                bytes_read: magnitude.saturating_mul(4),
                cache_misses: 1,
                ..CostVector::zero()
            };
            in_order.entry(tenant).or_default().merge(&cost);
        }
        let mut shuffled = requests.clone();
        shuffled.rotate_left(rotation % requests.len());
        shuffled.reverse();
        let mut out_of_order: HashMap<usize, CostVector> = HashMap::new();
        for &(tenant, magnitude) in &shuffled {
            let cost = CostVector {
                vectors_scanned: magnitude,
                bytes_read: magnitude.saturating_mul(4),
                cache_misses: 1,
                ..CostVector::zero()
            };
            out_of_order.entry(tenant).or_default().merge(&cost);
        }
        prop_assert_eq!(in_order, out_of_order);
    }
}
