//! Per-request resource metering: [`CostVector`] and the thread-local
//! tally the kernels charge into.
//!
//! Latency tracing answers *when* a request was slow; metering answers
//! *where the resources went* — how many vectors a scan touched, how many
//! BM25 postings were walked, how many bytes each of those moved. The design has three
//! pieces:
//!
//! * [`CostVector`] — a plain, `Copy`, all-`u64` bag of resource
//!   counters. [`CostVector::merge`] is fieldwise saturating addition, so
//!   merging is commutative and associative and vectors can be summed
//!   across shards, batches, and tenants in any order.
//! * a **thread-local tally** — the kernels in `verifai-index` /
//!   `verifai-embed` call the `charge_*` free functions at scan-loop
//!   granularity (never inside the innermost dot-product). Charging is a
//!   thread-local `Cell` update: no atomics, no locks, no allocation.
//! * [`scoped`] — runs a closure, returns its result **plus** the exact
//!   cost the closure charged on this thread, and removes that cost from
//!   the local tally. Because the cost is subtracted on harvest, work can
//!   be re-charged wherever it logically belongs: a cluster router
//!   harvests each shard job's cost inside the job closure (whichever
//!   thread ran it — shard worker or inline fallback), ships it over the
//!   result channel, and re-charges it on the gathering thread with
//!   [`charge_cost`]. Nothing is double-counted and nothing is lost.
//!
//! A cost vector counts work only. Where a request's wall time went is
//! recorded once, in the pipeline's `StageTiming`; keeping clocks out of
//! the vector is what lets two runs of the same request compare equal.

use std::cell::Cell;

/// Number of resource dimensions in a [`CostVector`].
pub const COST_FIELDS: usize = 7;

/// Per-request resource consumption, one `u64` per resource dimension.
/// Every dimension is a deterministic work count: the same request over
/// the same lake charges the same vector on every run.
///
/// Equality is exact fieldwise equality; [`CostVector::merge`] is
/// fieldwise saturating addition. The zero vector is the identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostVector {
    /// Vectors touched by semantic scans (flat or HNSW).
    pub vectors_scanned: u64,
    /// BM25 postings-list entries visited.
    pub bm25_postings: u64,
    /// Bytes read by scans and postings walks (logical, not page-cache).
    pub bytes_read: u64,
    /// Evidence-cache hits charged to this request.
    pub cache_hits: u64,
    /// Evidence-cache misses charged to this request.
    pub cache_misses: u64,
    /// Shard replies merged into this request's result: one per shard per
    /// routed modality search, since one job per shard carries both the
    /// content and the semantic member.
    pub shard_fanout: u64,
    /// Query/text embeddings computed.
    pub embeds: u64,
}

impl CostVector {
    /// Canonical resource names, aligned with [`CostVector::values`] —
    /// the `resource` label values of the `verifai_tenant_cost_total`
    /// series.
    pub const FIELD_NAMES: [&'static str; COST_FIELDS] = [
        "vectors_scanned",
        "bm25_postings",
        "bytes_read",
        "cache_hits",
        "cache_misses",
        "shard_fanout",
        "embeds",
    ];

    /// The zero vector (the merge identity).
    pub const fn zero() -> CostVector {
        CostVector {
            vectors_scanned: 0,
            bm25_postings: 0,
            bytes_read: 0,
            cache_hits: 0,
            cache_misses: 0,
            shard_fanout: 0,
            embeds: 0,
        }
    }

    /// Field values in [`CostVector::FIELD_NAMES`] order.
    pub fn values(&self) -> [u64; COST_FIELDS] {
        [
            self.vectors_scanned,
            self.bm25_postings,
            self.bytes_read,
            self.cache_hits,
            self.cache_misses,
            self.shard_fanout,
            self.embeds,
        ]
    }

    /// Rebuild a vector from values in [`CostVector::FIELD_NAMES`] order.
    pub fn from_values(values: [u64; COST_FIELDS]) -> CostVector {
        CostVector {
            vectors_scanned: values[0],
            bm25_postings: values[1],
            bytes_read: values[2],
            cache_hits: values[3],
            cache_misses: values[4],
            shard_fanout: values[5],
            embeds: values[6],
        }
    }

    /// Fold `other` into `self`, fieldwise saturating addition.
    /// Commutative and associative, with [`CostVector::zero`] as identity.
    pub fn merge(&mut self, other: &CostVector) {
        let mut values = self.values();
        for (slot, v) in values.iter_mut().zip(other.values()) {
            *slot = slot.saturating_add(v);
        }
        *self = CostVector::from_values(values);
    }

    /// `self + other`, by value.
    #[must_use]
    pub fn merged(mut self, other: &CostVector) -> CostVector {
        self.merge(other);
        self
    }

    /// Split this vector into `n` shares that sum exactly back to it:
    /// each field divides evenly with the remainder spread one unit at a
    /// time over the leading shares. Used to attribute a micro-batch's
    /// cost to its members. Returns an empty vec for `n == 0`.
    pub fn split(&self, n: usize) -> Vec<CostVector> {
        if n == 0 {
            return Vec::new();
        }
        let values = self.values();
        let mut shares = vec![[0u64; COST_FIELDS]; n];
        for (f, &total) in values.iter().enumerate() {
            let base = total / n as u64;
            let rem = (total % n as u64) as usize;
            for (i, share) in shares.iter_mut().enumerate() {
                share[f] = base + u64::from(i < rem);
            }
        }
        shares.into_iter().map(CostVector::from_values).collect()
    }

    /// Whether every field is zero.
    pub fn is_zero(&self) -> bool {
        self.values().iter().all(|&v| v == 0)
    }
}

std::thread_local! {
    static TALLY: Cell<CostVector> = const { Cell::new(CostVector::zero()) };
}

#[inline]
fn charge_with(f: impl FnOnce(&mut CostVector)) {
    TALLY.with(|t| {
        let mut v = t.get();
        f(&mut v);
        t.set(v);
    });
}

/// Charge `n` vectors touched by an exact (f32) scan reading `bytes`.
#[inline]
pub fn charge_scan(n: u64, bytes: u64) {
    charge_with(|c| {
        c.vectors_scanned = c.vectors_scanned.saturating_add(n);
        c.bytes_read = c.bytes_read.saturating_add(bytes);
    });
}

/// Charge `n` BM25 postings-list entries visited, reading `bytes`.
#[inline]
pub fn charge_postings(n: u64, bytes: u64) {
    charge_with(|c| {
        c.bm25_postings = c.bm25_postings.saturating_add(n);
        c.bytes_read = c.bytes_read.saturating_add(bytes);
    });
}

/// Charge one evidence-cache hit.
#[inline]
pub fn charge_cache_hit() {
    charge_with(|c| c.cache_hits = c.cache_hits.saturating_add(1));
}

/// Charge one evidence-cache miss.
#[inline]
pub fn charge_cache_miss() {
    charge_with(|c| c.cache_misses = c.cache_misses.saturating_add(1));
}

/// Charge `n` shard responses merged into the current request.
#[inline]
pub fn charge_shard_fanout(n: u64) {
    charge_with(|c| c.shard_fanout = c.shard_fanout.saturating_add(n));
}

/// Charge one computed embedding.
#[inline]
pub fn charge_embed() {
    charge_with(|c| c.embeds = c.embeds.saturating_add(1));
}

/// Fold a whole harvested vector into this thread's tally — the
/// re-charge half of the router's harvest-and-ship protocol.
#[inline]
pub fn charge_cost(cost: &CostVector) {
    if cost.is_zero() {
        return;
    }
    TALLY.with(|t| t.set(t.get().merged(cost)));
}

/// A snapshot of this thread's tally.
pub fn tally() -> CostVector {
    TALLY.with(|t| t.get())
}

/// Drain this thread's tally: return everything charged since the last
/// drain (or harvest) and reset it to zero. The pipeline calls this once
/// per request, at report assembly — every charge left on the thread
/// belongs to the request that just ran.
pub fn take() -> CostVector {
    TALLY.with(|t| t.replace(CostVector::zero()))
}

/// Run `f`, returning its result and exactly the cost it charged on this
/// thread; that cost is removed from the local tally so the caller can
/// re-attribute it (to a report, a shard response, a batch) without
/// double-counting. Nests: an outer `scoped` sees only what inner scopes
/// did **not** harvest. The caller's tally is set aside while `f` runs
/// and put back afterwards, so `f` charges into a fresh zero tally.
pub fn scoped<T>(f: impl FnOnce() -> T) -> (T, CostVector) {
    let outer = take();
    let result = f();
    let cost = TALLY.with(|t| t.replace(outer));
    (result, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arbitrary(seed: u64) -> CostVector {
        // Cheap splitmix-style fill, enough to exercise merge laws.
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut values = [0u64; COST_FIELDS];
        for v in values.iter_mut() {
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            *v = x % 1_000_003;
        }
        CostVector::from_values(values)
    }

    #[test]
    fn merge_identity_and_roundtrip() {
        let v = arbitrary(7);
        assert_eq!(v.merged(&CostVector::zero()), v);
        assert_eq!(CostVector::zero().merged(&v), v);
        assert_eq!(CostVector::from_values(v.values()), v);
    }

    #[test]
    fn merge_commutes_and_associates() {
        for seed in 0..32 {
            let (a, b, c) = (
                arbitrary(seed),
                arbitrary(seed + 100),
                arbitrary(seed + 200),
            );
            assert_eq!(a.merged(&b), b.merged(&a));
            assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
        }
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let mut a = CostVector::zero();
        a.bytes_read = u64::MAX - 1;
        let mut b = CostVector::zero();
        b.bytes_read = 5;
        assert_eq!(a.merged(&b).bytes_read, u64::MAX);
    }

    #[test]
    fn split_shares_sum_exactly() {
        let v = arbitrary(9);
        for n in 1..8 {
            let shares = v.split(n);
            assert_eq!(shares.len(), n);
            let mut sum = CostVector::zero();
            for s in &shares {
                sum.merge(s);
            }
            assert_eq!(sum, v, "split({n}) must preserve the total");
            // Shares differ by at most one unit per field.
            for f in 0..COST_FIELDS {
                let vals: Vec<u64> = shares.iter().map(|s| s.values()[f]).collect();
                let (min, max) = (vals.iter().min().copied(), vals.iter().max().copied());
                assert!(max.unwrap_or(0) - min.unwrap_or(0) <= 1);
            }
        }
        assert!(v.split(0).is_empty());
    }

    #[test]
    fn scoped_harvests_and_removes_charges() {
        let baseline = tally();
        let ((), cost) = scoped(|| {
            charge_scan(10, 400);
            charge_postings(50, 400);
            charge_cache_miss();
            charge_shard_fanout(2);
            charge_embed();
        });
        assert_eq!(cost.vectors_scanned, 10);
        assert_eq!(cost.bm25_postings, 50);
        assert_eq!(cost.bytes_read, 400 + 400);
        assert_eq!(cost.cache_misses, 1);
        assert_eq!(cost.cache_hits, 0);
        assert_eq!(cost.shard_fanout, 2);
        assert_eq!(cost.embeds, 1);
        // Harvest removed the charges: the tally is back to baseline.
        assert_eq!(tally(), baseline);
    }

    #[test]
    fn scoped_nests_without_double_counting() {
        let ((), outer) = scoped(|| {
            charge_cache_hit();
            let ((), inner) = scoped(|| charge_scan(5, 20));
            assert_eq!(inner.vectors_scanned, 5);
            // The inner harvest moved its cost out of the tally; re-charge
            // half the protocol to model a router shipping it back.
            charge_cost(&inner);
        });
        assert_eq!(outer.cache_hits, 1);
        assert_eq!(outer.vectors_scanned, 5, "re-charged cost lands once");
        assert_eq!(outer.bytes_read, 20);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn cost_strategy() -> impl Strategy<Value = CostVector> {
        proptest::collection::vec(0u64..u64::MAX / 4, COST_FIELDS..COST_FIELDS + 1).prop_map(|v| {
            let mut values = [0u64; COST_FIELDS];
            values.copy_from_slice(&v);
            CostVector::from_values(values)
        })
    }

    proptest! {
        #[test]
        fn merge_is_commutative(a in cost_strategy(), b in cost_strategy()) {
            prop_assert_eq!(a.merged(&b), b.merged(&a));
        }

        #[test]
        fn merge_is_associative(
            a in cost_strategy(),
            b in cost_strategy(),
            c in cost_strategy(),
        ) {
            prop_assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
        }

        #[test]
        fn zero_is_the_identity(a in cost_strategy()) {
            prop_assert_eq!(a.merged(&CostVector::zero()), a);
            prop_assert_eq!(CostVector::zero().merged(&a), a);
        }

        #[test]
        fn split_partitions_exactly(a in cost_strategy(), n in 1usize..12) {
            let mut sum = CostVector::zero();
            for share in a.split(n) {
                sum.merge(&share);
            }
            prop_assert_eq!(sum, a);
        }
    }
}
