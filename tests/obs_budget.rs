//! What observability costs a request, counted instead of timed.
//!
//! A cached request is driven through a one-worker `VerificationService`
//! twice: under `ObsConfig::default()` and under `ObsConfig::off()`. Both
//! run on one `MockClock` that advances a fixed step on every read, shared
//! by the service and the pipeline, so `elapsed / step` is the number of
//! clock reads the request made. A process-wide counting allocator counts
//! its allocations on every thread, the worker's included. The difference
//! between the two configurations is what observability adds, and it is
//! pinned with `==`: a clock read or an allocation added to the request
//! path under the default configuration fails this test, however cheap it
//! would time on a given host.
//!
//! The allocator is process-wide, so this file holds exactly one `#[test]`:
//! a second test on a parallel thread would be counted too.
//! `scripts/check.sh` runs it by name in release as well.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use verifai::{DataObject, MockClock, ObsConfig, VerifAi, VerifAiConfig};
use verifai_datagen::{build, completion_workload, LakeSpec};
use verifai_service::{RequestOutcome, ServiceConfig, VerificationService};

/// Allocator calls made by any thread while [`MEASURING`] is set.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static MEASURING: AtomicBool = AtomicBool::new(false);

/// The system allocator, counting `alloc` / `alloc_zeroed` / `realloc`
/// calls process-wide while a measurement runs.
struct Counting;

impl Counting {
    fn count() {
        if MEASURING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is an atomic
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The mock clock's step: every `now()` moves it this far.
const STEP: Duration = Duration::from_micros(10);

/// Requests served before measuring, so the evidence cache holds the
/// object, and the flight recorder's rings and every growable buffer on
/// the path have reached their steady size.
const WARM_UP: usize = 200;

/// Requests measured, one at a time.
const MEASURED: usize = 100;

/// What one cached request cost: clock reads, and allocations on any
/// thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RequestCost {
    clock_reads: u64,
    allocations: u64,
}

/// Serve one object repeatedly through a fresh one-worker service under
/// `obs` and return the cost of one cached request: clock reads per
/// request over the measured run (each request makes the same reads), and
/// the fewest allocations any measured request made (a buffer that grows
/// now and then — the lineage log's columns — adds an allocation to a few
/// requests, never to the steady one).
fn cached_request_cost(object: &DataObject, obs: ObsConfig) -> RequestCost {
    let clock = Arc::new(MockClock::with_auto_step(STEP));
    let sys = Arc::new(VerifAi::build_with_clock(
        build(&LakeSpec::tiny(31)),
        VerifAiConfig::default(),
        clock.clone(),
    ));
    let service = VerificationService::with_obs(
        sys,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        obs.with_clock(clock.clone()),
    );
    let serve = || match service.submit(object.clone()).expect("admitted").wait() {
        RequestOutcome::Completed(report) => assert!(!report.evidence.is_empty()),
        other => panic!("request not completed: {other:?}"),
    };
    for _ in 0..WARM_UP {
        serve();
    }
    let before = clock.elapsed();
    let mut allocations = u64::MAX;
    for _ in 0..MEASURED {
        ALLOCATIONS.store(0, Ordering::Relaxed);
        MEASURING.store(true, Ordering::Relaxed);
        serve();
        MEASURING.store(false, Ordering::Relaxed);
        allocations = allocations.min(ALLOCATIONS.load(Ordering::Relaxed));
    }
    let reads = (clock.elapsed() - before).as_nanos() / STEP.as_nanos();
    assert_eq!(
        reads % MEASURED as u128,
        0,
        "every cached request makes the same clock reads"
    );
    let stats = service.shutdown();
    assert_eq!(stats.cache.misses, 1, "one cold request, then cache hits");
    RequestCost {
        clock_reads: (reads / MEASURED as u128) as u64,
        allocations,
    }
}

#[test]
fn default_observability_adds_exactly_its_budget_to_a_cached_request() {
    let generated = build(&LakeSpec::tiny(31));
    let task = &completion_workload(&generated, 1, 3)[0];
    let object = VerifAi::build(generated, VerifAiConfig::default()).impute(task);

    let off = cached_request_cost(&object, ObsConfig::off());
    let on = cached_request_cost(&object, ObsConfig::default());
    println!("cached request, obs off: {off:?}");
    println!("cached request, obs on:  {on:?}");
    // Measured: 7 clock reads under either config; 41 allocations off and
    // 43 on. The two are the trace's span list and the trace-id stamp on
    // the decision's lineage note; every span note on a cached request
    // (`hit`, `replayed`) is static and allocates nothing.
    assert_eq!(
        on.clock_reads - off.clock_reads,
        0,
        "clock reads the default config adds per cached request"
    );
    assert_eq!(
        on.allocations - off.allocations,
        2,
        "allocations the default config adds per cached request"
    );
}
