//! Tenant-aware QoS: per-tenant token-bucket quotas and weighted fair
//! scheduling across per-tenant admission queues.
//!
//! With tenants configured, submissions no longer share one FIFO: each
//! tenant owns a bounded queue sized in proportion to its weight, a token
//! bucket rate-limits its admissions, and workers drain the queues in
//! weighted-fair order (classic virtual-time WFQ: each pop advances the
//! tenant's virtual time by `1/weight`, and the scheduler always serves
//! the smallest virtual time). A tenant that floods its own queue is
//! throttled, rejected, or shed — it cannot displace another tenant's
//! queued work, because it never shares a queue with them.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use verifai_obs::Clock;

/// One tenant's QoS contract.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name — the `{tenant=...}` label on its metric series.
    pub name: String,
    /// Fair-share weight: a weight-3 tenant is served three queued
    /// requests for every one of a weight-1 tenant, and owns three times
    /// the queue capacity. Minimum effective weight is 1.
    pub weight: u32,
    /// Sustained admission rate, requests per second; `0.0` (or negative)
    /// means unlimited.
    pub rate: f64,
    /// Token-bucket burst depth; `0.0` defaults to `max(rate, 1)`.
    pub burst: f64,
}

impl TenantSpec {
    /// An unthrottled tenant with the given fair-share weight.
    pub fn new(name: impl Into<String>, weight: u32) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            weight,
            rate: 0.0,
            burst: 0.0,
        }
    }

    /// This spec with a sustained-rate quota (requests per second).
    pub fn with_rate(mut self, rate: f64, burst: f64) -> TenantSpec {
        self.rate = rate;
        self.burst = burst;
        self
    }
}

/// Why the scheduler refused an enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnqueueError {
    /// The tenant's token bucket is empty (rate quota exceeded).
    Throttled,
    /// The tenant's queue share is at capacity.
    QueueFull,
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

struct Sched<T> {
    queues: Vec<VecDeque<T>>,
    /// WFQ virtual finish times; the non-empty queue with the smallest
    /// value is served next.
    vtimes: Vec<f64>,
}

/// Weighted-fair, rate-limited admission across per-tenant queues.
pub(crate) struct TenantScheduler<T> {
    specs: Vec<TenantSpec>,
    /// Per-tenant queue capacity (weight-proportional share of the
    /// service's total queue capacity).
    caps: Vec<usize>,
    /// Per-tenant shedding threshold (weight-proportional share of the
    /// service high-water mark).
    high_waters: Vec<usize>,
    by_name: HashMap<String, usize>,
    buckets: Vec<Mutex<Bucket>>,
    sched: Mutex<Sched<T>>,
    clock: Arc<dyn Clock>,
}

impl<T> TenantScheduler<T> {
    pub(crate) fn new(
        specs: Vec<TenantSpec>,
        queue_capacity: usize,
        high_water: usize,
        clock: Arc<dyn Clock>,
    ) -> TenantScheduler<T> {
        assert!(
            !specs.is_empty(),
            "tenant scheduler needs at least one tenant"
        );
        let by_name: HashMap<String, usize> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), i))
            .collect();
        assert_eq!(
            by_name.len(),
            specs.len(),
            "tenant names must be distinct: a repeated name is unreachable"
        );
        let total_weight: u64 = specs.iter().map(|s| u64::from(s.weight.max(1))).sum();
        let caps: Vec<usize> = specs
            .iter()
            .map(|s| {
                let share = queue_capacity as u64 * u64::from(s.weight.max(1)) / total_weight;
                (share as usize).max(1)
            })
            .collect();
        // Scale the service-wide high-water mark into each tenant's queue:
        // shedding keeps the same depth-ratio semantics per tenant that the
        // single-queue service has globally.
        let high_waters: Vec<usize> = caps
            .iter()
            .map(|&cap| {
                if queue_capacity == 0 {
                    return 1;
                }
                ((cap as u64 * high_water as u64 / queue_capacity as u64) as usize).max(1)
            })
            .collect();
        let now = clock.now();
        let buckets = specs
            .iter()
            .map(|s| {
                Mutex::new(Bucket {
                    // Start full so a tenant can use its burst immediately.
                    tokens: if s.burst > 0.0 {
                        s.burst
                    } else {
                        s.rate.max(1.0)
                    },
                    last: now,
                })
            })
            .collect();
        let n = specs.len();
        TenantScheduler {
            specs,
            caps,
            high_waters,
            by_name,
            buckets,
            sched: Mutex::new(Sched {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                vtimes: vec![0.0; n],
            }),
            clock,
        }
    }

    /// The index of tenant `name`, if configured.
    pub(crate) fn resolve(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Total queue capacity across tenants (the worker channel must hold
    /// this many wake tokens).
    pub(crate) fn total_capacity(&self) -> usize {
        self.caps.iter().sum()
    }

    pub(crate) fn high_water(&self, tenant: usize) -> usize {
        self.high_waters[tenant]
    }

    /// Requests queued right now, across all tenants.
    pub(crate) fn queued(&self) -> usize {
        self.sched.lock().queues.iter().map(VecDeque::len).sum()
    }

    /// Requests queued for one tenant.
    pub(crate) fn queued_for(&self, tenant: usize) -> usize {
        self.sched.lock().queues[tenant].len()
    }

    /// Take one admission token from the tenant's bucket. Unlimited-rate
    /// tenants always pass.
    fn take_token(&self, tenant: usize) -> Result<(), EnqueueError> {
        let spec = &self.specs[tenant];
        if spec.rate <= 0.0 {
            return Ok(());
        }
        let burst = if spec.burst > 0.0 {
            spec.burst
        } else {
            spec.rate.max(1.0)
        };
        let mut bucket = self.buckets[tenant].lock();
        let now = self.clock.now();
        let dt = now.duration_since(bucket.last).as_secs_f64();
        bucket.last = now;
        bucket.tokens = (bucket.tokens + dt * spec.rate).min(burst);
        if bucket.tokens < 1.0 {
            return Err(EnqueueError::Throttled);
        }
        bucket.tokens -= 1.0;
        Ok(())
    }

    /// Return a token taken by an enqueue that then failed on capacity, so
    /// a full queue does not also burn rate quota.
    fn refund_token(&self, tenant: usize) {
        let spec = &self.specs[tenant];
        if spec.rate <= 0.0 {
            return;
        }
        let burst = if spec.burst > 0.0 {
            spec.burst
        } else {
            spec.rate.max(1.0)
        };
        let mut bucket = self.buckets[tenant].lock();
        bucket.tokens = (bucket.tokens + 1.0).min(burst);
    }

    /// Rate-check then enqueue `item` for `tenant`; on refusal the item is
    /// handed back with the reason.
    pub(crate) fn try_enqueue(&self, tenant: usize, item: T) -> Result<(), (EnqueueError, T)> {
        if let Err(e) = self.take_token(tenant) {
            return Err((e, item));
        }
        let mut sched = self.sched.lock();
        if sched.queues[tenant].len() >= self.caps[tenant] {
            drop(sched);
            self.refund_token(tenant);
            return Err((EnqueueError::QueueFull, item));
        }
        if sched.queues[tenant].is_empty() {
            // A tenant going from idle to active restarts at the current
            // service frontier; accumulated idle credit must not let it
            // monopolize the workers.
            let floor = sched
                .queues
                .iter()
                .zip(&sched.vtimes)
                .filter(|(q, _)| !q.is_empty())
                .map(|(_, &v)| v)
                .fold(f64::INFINITY, f64::min);
            if floor.is_finite() {
                sched.vtimes[tenant] = sched.vtimes[tenant].max(floor);
            }
        }
        sched.queues[tenant].push_back(item);
        Ok(())
    }

    /// Pop the next request in weighted-fair order. Returns the tenant, the
    /// item, and how many of that tenant's requests remain queued behind it
    /// (the per-tenant shedding signal).
    pub(crate) fn pop(&self) -> Option<(usize, T, usize)> {
        let mut sched = self.sched.lock();
        let tenant = sched
            .queues
            .iter()
            .zip(&sched.vtimes)
            .enumerate()
            .filter(|(_, (q, _))| !q.is_empty())
            .min_by(|(_, (_, a)), (_, (_, b))| {
                a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)?;
        let item = sched.queues[tenant].pop_front()?;
        let remaining = sched.queues[tenant].len();
        sched.vtimes[tenant] += 1.0 / f64::from(self.specs[tenant].weight.max(1));
        Some((tenant, item, remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifai_obs::{MockClock, SystemClock};

    fn scheduler(specs: Vec<TenantSpec>) -> TenantScheduler<u32> {
        TenantScheduler::new(specs, 64, 48, Arc::new(SystemClock))
    }

    #[test]
    fn weighted_caps_partition_the_queue() {
        let s = scheduler(vec![TenantSpec::new("a", 3), TenantSpec::new("b", 1)]);
        assert_eq!(s.caps, vec![48, 16]);
        assert_eq!(s.high_water(0), 36);
        assert_eq!(s.high_water(1), 12);
        assert_eq!(s.total_capacity(), 64);
    }

    #[test]
    fn wfq_serves_in_weight_proportion() {
        let s = scheduler(vec![
            TenantSpec::new("heavy", 3),
            TenantSpec::new("light", 1),
        ]);
        for i in 0..12 {
            s.try_enqueue(0, i).unwrap();
        }
        for i in 0..4 {
            s.try_enqueue(1, 100 + i).unwrap();
        }
        // Over any window the heavy tenant gets ~3x the pops.
        let mut first_eight = Vec::new();
        for _ in 0..8 {
            let (tenant, _, _) = s.pop().unwrap();
            first_eight.push(tenant);
        }
        let heavy = first_eight.iter().filter(|&&t| t == 0).count();
        assert_eq!(heavy, 6, "expected 3:1 service ratio, got {first_eight:?}");
        // Everything eventually drains.
        let mut drained = 8;
        while s.pop().is_some() {
            drained += 1;
        }
        assert_eq!(drained, 16);
    }

    #[test]
    fn idle_tenant_does_not_accumulate_credit() {
        let s = scheduler(vec![TenantSpec::new("busy", 1), TenantSpec::new("idle", 1)]);
        // Busy tenant advances its virtual time far ahead.
        for i in 0..20 {
            s.try_enqueue(0, i).unwrap();
        }
        for _ in 0..20 {
            s.pop().unwrap();
        }
        // The idle tenant wakes up; it must not get 20 consecutive pops of
        // "catch-up" — its vtime snaps to the active frontier.
        for i in 0..4 {
            s.try_enqueue(0, i).unwrap();
            s.try_enqueue(1, 100 + i).unwrap();
        }
        let mut order = Vec::new();
        for _ in 0..8 {
            order.push(s.pop().unwrap().0);
        }
        let first_four_idle = order.iter().take(4).filter(|&&t| t == 1).count();
        assert!(
            first_four_idle <= 2,
            "idle tenant burst ahead on stale credit: {order:?}"
        );
    }

    #[test]
    fn queue_full_is_per_tenant_and_refunds_tokens() {
        let clock = Arc::new(MockClock::new());
        let s: TenantScheduler<u32> = TenantScheduler::new(
            vec![
                TenantSpec::new("quota", 1).with_rate(10.0, 5.0),
                TenantSpec::new("open", 1),
            ],
            8,
            6,
            clock.clone(),
        );
        // cap per tenant = 4; burst = 5 tokens. Fill the queue exactly,
        // leaving one token.
        for i in 0..4 {
            s.try_enqueue(0, i).unwrap();
        }
        // Queue full — and the failed attempt must not burn the last
        // token: the refund keeps the *next* admit viable once a slot
        // frees.
        let err = s.try_enqueue(0, 99).unwrap_err().0;
        assert_eq!(err, EnqueueError::QueueFull);
        s.pop().unwrap();
        s.try_enqueue(0, 100).expect("refunded token readmits");
        // Now the bucket is truly empty and the queue has room: throttled.
        s.pop().unwrap();
        let err = s.try_enqueue(0, 101).unwrap_err().0;
        assert_eq!(err, EnqueueError::Throttled);
        // The other tenant is unaffected by its neighbor's quota.
        s.try_enqueue(1, 7).unwrap();
        // Tokens refill with time: 10 req/s -> one token per 100ms.
        clock.advance(std::time::Duration::from_millis(150));
        s.try_enqueue(0, 102).expect("bucket refilled");
    }

    #[test]
    fn unknown_tenant_resolves_to_none() {
        let s = scheduler(vec![TenantSpec::new("a", 1)]);
        assert_eq!(s.resolve("a"), Some(0));
        assert_eq!(s.resolve("ghost"), None);
    }

    #[test]
    #[should_panic(expected = "tenant names must be distinct")]
    fn repeated_tenant_names_are_rejected() {
        scheduler(vec![TenantSpec::new("acme", 1), TenantSpec::new("acme", 2)]);
    }
}
