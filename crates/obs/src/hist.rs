//! Fixed-bucket log-linear histograms.
//!
//! The bucket layout is HdrHistogram-style, ~12.5% relative error, and the
//! lock-free [`Histogram`] here is the workspace's one latency histogram.
//! Values are whole microseconds: 8 exact sub-8µs buckets, then 8
//! log-linear sub-buckets per power of two.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Duration;

/// Number of value buckets: 8 exact sub-8µs buckets plus 8 log-linear
/// sub-buckets per power of two up to `u64::MAX` microseconds.
pub const BUCKETS: usize = 8 + 61 * 8;

/// The bucket a microsecond value lands in.
pub fn bucket_of(micros: u64) -> usize {
    if micros < 8 {
        return micros as usize;
    }
    let msb = 63 - micros.leading_zeros() as u64; // >= 3
    let sub = (micros >> (msb - 3)) & 7;
    (8 + (msb - 3) * 8 + sub) as usize
}

/// Upper edge of a bucket — the value reported for quantiles landing in it,
/// so quantile estimates never undershoot the recorded value's bucket.
pub fn bucket_upper(bucket: usize) -> u64 {
    if bucket < 8 {
        return bucket as u64;
    }
    let msb = (bucket as u64 - 8) / 8 + 3;
    let sub = (bucket as u64 - 8) % 8;
    // The top bucket's true upper edge is 2^64 - 1: the shift truncates to
    // zero there and the wrapping subtraction lands exactly on u64::MAX.
    ((8 + sub + 1) << (msb - 3)).wrapping_sub(1)
}

/// One recent `(trace id, value)` observation pinned to a histogram
/// bucket: the OpenMetrics exemplar linking a latency bucket to a
/// retrievable trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The bucket the observation landed in.
    pub bucket: usize,
    /// The bucket's upper edge, microseconds.
    pub upper_micros: u64,
    /// The trace that produced the observation.
    pub trace_id: u64,
    /// The observed value, microseconds.
    pub value_micros: u64,
}

/// A per-bucket exemplar slot under a tiny seqlock: writers CAS the
/// version even→odd (skipping on contention — exemplars are best-effort),
/// write the pair, then publish even; readers reject odd or torn reads.
/// The fences are the orderings of crossbeam-utils' `SeqLock`: the
/// writer's release fence keeps the data stores after the odd version,
/// and the reader's acquire fence keeps the data loads before the
/// re-check, so a pair that passes the re-check is never torn.
struct ExemplarSlot {
    version: AtomicU64,
    trace_id: AtomicU64,
    value_micros: AtomicU64,
}

impl ExemplarSlot {
    fn pin(&self, trace_id: u64, value_micros: u64) {
        let v = self.version.load(Ordering::Relaxed);
        if v & 1 == 1 {
            return; // a writer is mid-flight; drop this exemplar
        }
        if self
            .version
            .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        fence(Ordering::Release);
        self.trace_id.store(trace_id, Ordering::Relaxed);
        self.value_micros.store(value_micros, Ordering::Relaxed);
        self.version.store(v + 2, Ordering::Release);
    }

    /// A consistent read, or `None` when empty or torn.
    fn read(&self) -> Option<(u64, u64)> {
        let v1 = self.version.load(Ordering::Acquire);
        if v1 == 0 || v1 & 1 == 1 {
            return None;
        }
        let trace_id = self.trace_id.load(Ordering::Relaxed);
        let value = self.value_micros.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if self.version.load(Ordering::Relaxed) != v1 {
            return None;
        }
        Some((trace_id, value))
    }
}

/// A lock-free fixed-bucket histogram: concurrent writers record with
/// relaxed atomic increments; readers take a consistent-enough
/// [`HistogramSnapshot`] for quantile queries. Never allocates after
/// construction.
///
/// Built [`Histogram::with_exemplars`], each bucket additionally pins the
/// most recent traced `(trace_id, value)` observation — the link from a
/// latency bucket back to a retrievable request trace.
pub struct Histogram {
    counts: Box<[AtomicU64]>,
    total: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
    exemplars: Option<Box<[ExemplarSlot]>>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
            exemplars: None,
        }
    }

    /// An empty histogram that also pins one recent `(trace_id, value)`
    /// exemplar per bucket. One extra allocation at construction; the
    /// record path gains one branch (and, for traced observations, one
    /// seqlocked pair write).
    pub fn with_exemplars() -> Histogram {
        Histogram {
            exemplars: Some(
                (0..BUCKETS)
                    .map(|_| ExemplarSlot {
                        version: AtomicU64::new(0),
                        trace_id: AtomicU64::new(0),
                        value_micros: AtomicU64::new(0),
                    })
                    .collect(),
            ),
            ..Histogram::new()
        }
    }

    /// Whether this histogram pins exemplars.
    pub fn has_exemplars(&self) -> bool {
        self.exemplars.is_some()
    }

    /// Record one observation attributed to `trace_id`, pinning it as the
    /// bucket's exemplar when exemplars are enabled and the trace is real
    /// (id != 0).
    pub fn record_traced(&self, value: Duration, trace_id: u64) {
        let micros = value.as_micros().min(u128::from(u64::MAX)) as u64;
        self.record_micros_traced(micros, trace_id);
    }

    /// [`Histogram::record_traced`] for a value already in microseconds.
    pub fn record_micros_traced(&self, micros: u64, trace_id: u64) {
        self.record_micros(micros);
        if trace_id == 0 {
            return;
        }
        if let Some(slots) = &self.exemplars {
            slots[bucket_of(micros)].pin(trace_id, micros);
        }
    }

    /// Record one observation (lock-free, no allocation).
    pub fn record(&self, value: Duration) {
        let micros = value.as_micros().min(u128::from(u64::MAX)) as u64;
        self.record_micros(micros);
    }

    /// Record one observation given in whole microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.counts[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// A point-in-time copy supporting quantiles and merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let exemplars = match &self.exemplars {
            Some(slots) => slots
                .iter()
                .enumerate()
                .filter_map(|(bucket, slot)| {
                    slot.read().map(|(trace_id, value_micros)| Exemplar {
                        bucket,
                        upper_micros: bucket_upper(bucket),
                        trace_id,
                        value_micros,
                    })
                })
                .collect(),
            None => Vec::new(),
        };
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            total: self.total.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
            exemplars,
        }
    }
}

/// An owned, immutable-by-convention histogram state: what exporters and
/// stats snapshots carry.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Box<[u64]>,
    total: u64,
    sum_micros: u64,
    max_micros: u64,
    /// At most one pinned exemplar per occupied bucket, ascending by
    /// bucket; empty unless the source histogram pins exemplars.
    exemplars: Vec<Exemplar>,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
            sum_micros: 0,
            max_micros: 0,
            exemplars: Vec::new(),
        }
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.total)
            .field("mean", &self.mean())
            .field("p50", &self.quantile(0.50))
            .field("p95", &self.quantile(0.95))
            .field("p99", &self.quantile(0.99))
            .field("max", &Duration::from_micros(self.max_micros))
            .finish()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn new() -> HistogramSnapshot {
        HistogramSnapshot::default()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observations, microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros
    }

    /// The recorded maximum.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_micros)
    }

    /// Mean value (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.sum_micros / self.total)
    }

    /// The value at quantile `q` in `[0, 1]` (zero when empty). Estimates
    /// carry the bucket resolution; the top quantile is exact (the recorded
    /// maximum).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Duration::from_micros(bucket_upper(bucket).min(self.max_micros));
            }
        }
        Duration::from_micros(self.max_micros)
    }

    /// The pinned exemplars, at most one per bucket, ascending by bucket.
    pub fn exemplars(&self) -> &[Exemplar] {
        &self.exemplars
    }

    /// Observations at or below `bucket`'s upper edge — the cumulative
    /// count an OpenMetrics `_bucket{le=...}` sample reports.
    pub fn cumulative_count(&self, bucket: usize) -> u64 {
        self.counts.iter().take(bucket + 1).sum()
    }

    /// Merge another snapshot into this one. Merging is commutative and
    /// associative (bucket-wise addition; max of maxima; per-bucket
    /// exemplars resolve ties by the larger trace id, then value — a join,
    /// so merge order cannot change the survivor).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_micros = self.sum_micros.saturating_add(other.sum_micros);
        self.max_micros = self.max_micros.max(other.max_micros);
        if !other.exemplars.is_empty() {
            let mut merged: Vec<Exemplar> =
                Vec::with_capacity(self.exemplars.len() + other.exemplars.len());
            merged.extend(self.exemplars.iter().copied());
            merged.extend(other.exemplars.iter().copied());
            merged.sort_by_key(|e| (e.bucket, e.trace_id, e.value_micros));
            merged.dedup_by(|next, kept| {
                // Sorted ascending: the later element wins the bucket.
                if next.bucket == kept.bucket {
                    *kept = *next;
                    true
                } else {
                    false
                }
            });
            self.exemplars = merged;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_all_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.mean(), Duration::ZERO);
        assert_eq!(snap.quantile(0.5), Duration::ZERO);
        assert_eq!(snap.quantile(1.0), Duration::ZERO);
        assert_eq!(snap.max(), Duration::ZERO);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let h = Histogram::new();
        h.record(Duration::from_micros(1234));
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.mean(), Duration::from_micros(1234));
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            let v = snap.quantile(q).as_micros() as u64;
            // Within one bucket's resolution, clamped at the exact max.
            assert!(v >= 1234 || (1234 - v) as f64 / 1234.0 < 0.13, "q{q} = {v}");
            assert!(v <= 1234);
        }
    }

    #[test]
    fn overflow_bucket_percentile_is_the_recorded_max() {
        let h = Histogram::new();
        // Saturates the microsecond conversion into the last bucket.
        h.record(Duration::MAX);
        h.record(Duration::from_micros(5));
        let snap = h.snapshot();
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(snap.quantile(1.0), Duration::from_micros(u64::MAX));
        assert_eq!(snap.quantile(0.25), Duration::from_micros(5));
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record_micros(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread");
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 4000);
        assert_eq!(snap.max(), Duration::from_micros(3999));
    }

    #[test]
    fn exemplars_pin_the_latest_traced_observation_per_bucket() {
        let h = Histogram::with_exemplars();
        assert!(h.has_exemplars());
        h.record_traced(Duration::from_micros(100), 7);
        h.record_traced(Duration::from_micros(101), 9); // same bucket: replaces
        h.record_traced(Duration::from_micros(5_000), 11);
        h.record_micros_traced(5, 0); // untraced: counted, never pinned
        let snap = h.snapshot();
        assert_eq!(snap.count(), 4);
        let ex = snap.exemplars();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].trace_id, 9);
        assert_eq!(ex[0].value_micros, 101);
        assert_eq!(ex[0].bucket, bucket_of(101));
        assert!(ex[0].upper_micros >= 101);
        assert_eq!(ex[1].trace_id, 11);
        // Plain histograms never pin.
        let plain = Histogram::new();
        plain.record_traced(Duration::from_micros(100), 7);
        assert!(plain.snapshot().exemplars().is_empty());
    }

    #[test]
    fn concurrent_exemplar_pins_are_never_torn() {
        // Every pin writes `trace_id == value`, all into one bucket
        // (1024..=1151 µs), so a torn read shows as a mismatched pair.
        let h = Histogram::with_exemplars();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(4);
        let torn = std::thread::scope(|scope| {
            for t in 0..3u64 {
                let (h, stop, start) = (&h, &stop, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        let v = 1024 + i % 128;
                        h.record_micros_traced(v, v);
                        i += 3;
                    }
                });
            }
            start.wait();
            let torn: Vec<Exemplar> = (0..2_000)
                .flat_map(|_| h.snapshot().exemplars().to_vec())
                .filter(|e| e.trace_id != e.value_micros)
                .collect();
            stop.store(true, Ordering::Relaxed);
            torn
        });
        assert!(torn.is_empty(), "torn exemplars: {torn:?}");
        let snap = h.snapshot();
        let [last] = snap.exemplars() else {
            panic!("one bucket, one exemplar: {:?}", snap.exemplars());
        };
        assert_eq!(last.trace_id, last.value_micros);
    }

    #[test]
    fn cumulative_count_matches_bucket_sum() {
        let h = Histogram::new();
        for micros in [1u64, 5, 100, 5_000] {
            h.record_micros(micros);
        }
        let snap = h.snapshot();
        assert_eq!(snap.cumulative_count(bucket_of(1)), 1);
        assert_eq!(snap.cumulative_count(bucket_of(100)), 3);
        assert_eq!(snap.cumulative_count(BUCKETS - 1), 4);
    }

    #[test]
    fn exemplar_merge_is_commutative() {
        let a = Histogram::with_exemplars();
        a.record_traced(Duration::from_micros(100), 3);
        a.record_traced(Duration::from_micros(9_000), 5);
        let b = Histogram::with_exemplars();
        b.record_traced(Duration::from_micros(100), 8);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);
        // The shared bucket kept the larger trace id.
        let shared = ab
            .exemplars()
            .iter()
            .find(|e| e.bucket == bucket_of(100))
            .expect("shared bucket exemplar");
        assert_eq!(shared.trace_id, 8);
        assert_eq!(ab.exemplars().len(), 2);
    }

    #[test]
    fn bucket_edges_are_monotone() {
        let mut prev = 0;
        for b in 1..BUCKETS {
            let upper = bucket_upper(b);
            assert!(upper >= prev, "bucket {b} upper {upper} < {prev}");
            prev = upper;
        }
        // Every value maps into a bucket whose upper edge is >= the value's
        // lower bucket bound.
        for v in [0u64, 1, 7, 8, 9, 63, 64, 1000, 123_456, u64::MAX / 2] {
            let b = bucket_of(v);
            assert!(bucket_upper(b) >= v || b == BUCKETS - 1);
        }
    }
}
