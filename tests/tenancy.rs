//! Tenant-aware QoS integration tests: weighted-fair isolation under
//! overload, rate quotas, and per-tenant accounting.

use std::sync::Arc;
use std::time::Duration;

use verifai::{DataObject, VerifAi, VerifAiConfig};
use verifai_datagen::{build, completion_workload, LakeSpec};
use verifai_service::{
    RequestOutcome, ServiceConfig, SubmitError, TenantSpec, Ticket, VerificationService,
};

fn system(seed: u64) -> Arc<VerifAi> {
    Arc::new(VerifAi::build(
        build(&LakeSpec::tiny(seed)),
        VerifAiConfig::default(),
    ))
}

fn objects(sys: &VerifAi, n: usize, seed: u64) -> Vec<DataObject> {
    completion_workload(sys.generated(), n, seed)
        .iter()
        .map(|t| sys.impute(t))
        .collect()
}

/// The fairness contract: a tenant saturating its queue cannot starve a
/// light tenant. The light tenant's requests all complete with bounded
/// latency while the flooding tenant absorbs every shed and rejection.
#[test]
fn saturating_tenant_cannot_starve_light_tenant() {
    let sys = system(17);
    let config = ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        high_water: 24,
        max_batch: 4,
        tenants: vec![TenantSpec::new("heavy", 1), TenantSpec::new("light", 1)],
        ..ServiceConfig::default()
    };
    let service = VerificationService::new(Arc::clone(&sys), config);
    let pool = objects(&sys, 8, 17);
    // The heavy tenant floods: far more than its queue share can hold,
    // submitted as fast as the loop can go. Interleave the light tenant's
    // modest traffic through the same contended window.
    let mut heavy_tickets: Vec<Ticket> = Vec::new();
    let mut light_tickets: Vec<Ticket> = Vec::new();
    for round in 0..30 {
        for object in &pool {
            if let Ok(t) = service.submit_for("heavy", object.clone()) {
                heavy_tickets.push(t);
            }
        }
        if round % 3 == 0 {
            let object = &pool[round % pool.len()];
            let ticket = match service.submit_for("light", object.clone()) {
                Ok(t) => t,
                Err(e) => panic!("light tenant refused at round {round}: {e}"),
            };
            light_tickets.push(ticket);
        }
    }
    for ticket in light_tickets {
        match ticket.wait() {
            RequestOutcome::Completed(_) => {}
            other => panic!("light tenant's request did not complete: {other:?}"),
        }
    }
    heavy_tickets.into_iter().for_each(|t| {
        t.wait();
    });
    let stats = service.shutdown();
    assert_eq!(stats.accounted(), stats.submitted, "request lost");
    let heavy = stats.tenants.iter().find(|t| t.name == "heavy").unwrap();
    let light = stats.tenants.iter().find(|t| t.name == "light").unwrap();
    assert_eq!(light.shed, 0, "light tenant was shed");
    assert_eq!(light.rejected, 0, "light tenant was rejected");
    assert_eq!(light.completed, 10);
    assert!(
        heavy.shed + heavy.rejected > 0,
        "flood never hit the heavy tenant's own limits: {heavy:?}"
    );
    // Bounded service for the light tenant even mid-flood: its p99 covers
    // at most its own queue share plus the fair-share alternation, not the
    // heavy tenant's backlog.
    assert!(
        light.latency.quantile(0.99) < Duration::from_secs(5),
        "light p99 unbounded: {:?}",
        light.latency.quantile(0.99)
    );
    // Per-tenant counters partition the global ones (all submissions went
    // through named tenants).
    assert_eq!(heavy.completed + light.completed, stats.completed);
    assert_eq!(heavy.shed + light.shed, stats.shed);
    assert_eq!(heavy.rejected + light.rejected, stats.rejected);
}

/// Token-bucket quotas throttle a tenant's submission rate without
/// touching its neighbor, and `throttled` rides the accounting invariant.
#[test]
fn rate_quota_throttles_only_the_quota_holder() {
    let sys = system(23);
    let config = ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        high_water: 48,
        tenants: vec![
            TenantSpec::new("metered", 1).with_rate(50.0, 5.0),
            TenantSpec::new("open", 1),
        ],
        ..ServiceConfig::default()
    };
    let service = VerificationService::new(Arc::clone(&sys), config);
    let pool = objects(&sys, 4, 23);
    let mut tickets = Vec::new();
    let mut throttled_errors = 0;
    for i in 0..300 {
        match service.submit_for("metered", pool[i % pool.len()].clone()) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::Throttled) => throttled_errors += 1,
            Err(_) => {}
        }
    }
    // The unmetered neighbor admits freely through the same window.
    for object in &pool {
        tickets.push(
            service
                .submit_for("open", object.clone())
                .expect("open tenant admits"),
        );
    }
    assert!(
        throttled_errors > 0,
        "a 50 rps bucket admitted 300 instant submissions"
    );
    tickets.into_iter().for_each(|t| {
        t.wait();
    });
    let stats = service.shutdown();
    assert_eq!(stats.accounted(), stats.submitted);
    assert_eq!(stats.throttled, throttled_errors);
    let metered = stats.tenants.iter().find(|t| t.name == "metered").unwrap();
    let open = stats.tenants.iter().find(|t| t.name == "open").unwrap();
    assert_eq!(metered.throttled, throttled_errors);
    assert_eq!(open.throttled, 0);
    assert_eq!(open.completed, 4);
}

/// Unknown tenants are refused and counted; plain `submit` maps to the
/// first configured tenant.
#[test]
fn unknown_tenant_rejected_and_default_submit_maps_to_first_tenant() {
    let sys = system(29);
    let config = ServiceConfig {
        tenants: vec![TenantSpec::new("acme", 2), TenantSpec::new("beta", 1)],
        ..ServiceConfig::default()
    };
    let service = VerificationService::new(Arc::clone(&sys), config);
    let pool = objects(&sys, 2, 29);
    assert_eq!(
        service.submit_for("ghost", pool[0].clone()).err(),
        Some(SubmitError::UnknownTenant)
    );
    let ticket = service
        .submit(pool[1].clone())
        .expect("default tenant admits");
    assert!(matches!(ticket.wait(), RequestOutcome::Completed(_)));
    let stats = service.shutdown();
    assert_eq!(stats.rejected, 1, "unknown tenant counts as rejected");
    let acme = stats.tenants.iter().find(|t| t.name == "acme").unwrap();
    assert_eq!(
        acme.completed, 1,
        "plain submit accounts to the first tenant"
    );
    assert_eq!(stats.accounted(), stats.submitted);
}

/// The exporter satellite: per-tenant series carry multi-label
/// `{tenant,outcome}` blocks through both the Prometheus and JSON
/// renderers.
#[test]
fn tenant_series_export_with_multi_label_blocks() {
    let sys = system(31);
    let config = ServiceConfig {
        tenants: vec![TenantSpec::new("acme", 1), TenantSpec::new("beta", 1)],
        ..ServiceConfig::default()
    };
    let service = VerificationService::new(Arc::clone(&sys), config);
    let pool = objects(&sys, 3, 31);
    let tickets: Vec<Ticket> = pool
        .iter()
        .map(|o| service.submit_for("acme", o.clone()).expect("admitted"))
        .collect();
    tickets.into_iter().for_each(|t| {
        t.wait();
    });
    let text = service.render_prometheus();
    assert!(
        text.contains("verifai_tenant_requests_total{tenant=\"acme\",outcome=\"completed\"} 3"),
        "missing multi-label tenant series:\n{text}"
    );
    assert!(text.contains("verifai_tenant_requests_total{tenant=\"beta\",outcome=\"completed\"} 0"));
    assert!(text.contains("verifai_tenant_latency_seconds_count{tenant=\"acme\"} 3"));
    let json = service.render_json_snapshot().to_string();
    assert!(
        json.contains(
            "verifai_tenant_requests_total{tenant=\\\"acme\\\",outcome=\\\"completed\\\"}"
        ),
        "JSON export lost the labeled key: {json}"
    );
    service.shutdown();
}
