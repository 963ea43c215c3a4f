//! A lock-free metrics registry.
//!
//! Registration (cold path) takes a lock; recording (hot path) is atomic
//! increments only — counters are sharded across cache lines so concurrent
//! workers don't bounce one counter line, gauges are single atomics, and
//! histograms are fixed atomic bucket arrays. A [`Registry`] hands out
//! `Arc` handles and later renders a [`RegistrySnapshot`] for the
//! Prometheus/JSON exporters.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::hist::{Histogram, HistogramSnapshot};

/// Shards per counter. A power of two so the shard pick is a mask.
const COUNTER_SHARDS: usize = 16;

/// One cache line per shard so adjacent shards don't false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

std::thread_local! {
    static SHARD: usize = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) as usize % COUNTER_SHARDS
    };
}

/// A monotonically-increasing counter, sharded to keep concurrent
/// increments off a single cache line.
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.get())
            .finish()
    }
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter {
            shards: Default::default(),
        }
    }

    /// Add `n` to this thread's shard (lock-free, no allocation).
    pub fn add(&self, n: u64) {
        let shard = SHARD.with(|s| *s);
        self.shards[shard].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sum across shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// An instantaneous signed value (queue depth, in-flight requests).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge").field("value", &self.get()).finish()
    }
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Add (possibly negative) `delta`.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous floating-point value (uptime seconds) stored as its
/// IEEE-754 bit pattern in an atomic — lock-free set and get.
#[derive(Default)]
pub struct FloatGauge {
    bits: AtomicU64,
}

impl std::fmt::Debug for FloatGauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FloatGauge")
            .field("value", &self.get())
            .finish()
    }
}

impl FloatGauge {
    /// A zeroed gauge.
    pub fn new() -> FloatGauge {
        FloatGauge::default()
    }

    /// Set the value.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// The value side of one registered metric.
#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    FloatGauge(Arc<FloatGauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: &'static str,
    help: &'static str,
    labels: Vec<(&'static str, String)>,
    metric: Metric,
}

/// Named registry of counters, gauges, and histograms.
///
/// Registration locks; the returned handles never do. Metric names follow
/// Prometheus conventions (`snake_case`, unit-suffixed); labels
/// distinguish series under one name (e.g. `stage="retrieval"`).
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register a counter series.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Counter> {
        let counter = Arc::new(Counter::new());
        self.push(name, help, labels, Metric::Counter(Arc::clone(&counter)));
        counter
    }

    /// Register a gauge series.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Gauge> {
        let gauge = Arc::new(Gauge::new());
        self.push(name, help, labels, Metric::Gauge(Arc::clone(&gauge)));
        gauge
    }

    /// Register a floating-point gauge series.
    pub fn float_gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<FloatGauge> {
        let gauge = Arc::new(FloatGauge::new());
        self.push(name, help, labels, Metric::FloatGauge(Arc::clone(&gauge)));
        gauge
    }

    /// Register a histogram series.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Histogram> {
        let histogram = Arc::new(Histogram::new());
        self.push(
            name,
            help,
            labels,
            Metric::Histogram(Arc::clone(&histogram)),
        );
        histogram
    }

    /// Register a histogram series that pins one recent `(trace_id,
    /// value)` exemplar per bucket ([`Histogram::with_exemplars`]),
    /// exported in OpenMetrics exemplar syntax.
    pub fn histogram_with_exemplars(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Histogram> {
        let histogram = Arc::new(Histogram::with_exemplars());
        self.push(
            name,
            help,
            labels,
            Metric::Histogram(Arc::clone(&histogram)),
        );
        histogram
    }

    fn push(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        metric: Metric,
    ) {
        self.entries.lock().push(Entry {
            name,
            help,
            labels: labels.iter().map(|&(k, v)| (k, v.to_string())).collect(),
            metric,
        });
    }

    /// A point-in-time copy of every registered series, in registration
    /// order — the exporters' input.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let entries = self.entries.lock();
        RegistrySnapshot {
            series: entries
                .iter()
                .map(|e| SeriesSnapshot {
                    name: e.name,
                    help: e.help,
                    labels: e.labels.clone(),
                    value: match &e.metric {
                        Metric::Counter(c) => SeriesValue::Counter(c.get()),
                        Metric::Gauge(g) => SeriesValue::Gauge(g.get()),
                        Metric::FloatGauge(g) => SeriesValue::Float(g.get()),
                        Metric::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// One series' frozen state.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Metric name (shared by labeled series).
    pub name: &'static str,
    /// Help text.
    pub help: &'static str,
    /// Label pairs distinguishing this series.
    pub labels: Vec<(&'static str, String)>,
    /// The value.
    pub value: SeriesValue,
}

/// A frozen metric value.
#[derive(Debug, Clone)]
pub enum SeriesValue {
    /// Monotonic count.
    Counter(u64),
    /// Instantaneous value.
    Gauge(i64),
    /// Instantaneous floating-point value.
    Float(f64),
    /// Distribution snapshot.
    Histogram(HistogramSnapshot),
}

/// Frozen registry state, consumed by the exporters.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Every series, in registration order.
    pub series: Vec<SeriesSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counter_sums_across_threads() {
        let counter = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        counter.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("incrementer");
        }
        assert_eq!(counter.get(), 8000);
    }

    #[test]
    fn gauge_tracks_set_and_add() {
        let gauge = Gauge::new();
        gauge.set(5);
        gauge.add(-2);
        assert_eq!(gauge.get(), 3);
    }

    #[test]
    fn float_gauge_round_trips_fractional_values() {
        let gauge = FloatGauge::new();
        assert_eq!(gauge.get(), 0.0);
        gauge.set(0.875);
        assert_eq!(gauge.get(), 0.875);
        gauge.set(-3.5);
        assert_eq!(gauge.get(), -3.5);
    }

    #[test]
    fn snapshot_reflects_registered_series() {
        let registry = Registry::new();
        let requests = registry.counter("requests_total", "requests", &[("outcome", "ok")]);
        let depth = registry.gauge("queue_depth", "queue depth", &[]);
        let latency = registry.histogram("latency_seconds", "latency", &[]);
        requests.add(3);
        depth.set(7);
        latency.record(Duration::from_millis(2));
        let snap = registry.snapshot();
        assert_eq!(snap.series.len(), 3);
        assert!(matches!(snap.series[0].value, SeriesValue::Counter(3)));
        assert_eq!(snap.series[0].labels, vec![("outcome", "ok".to_string())]);
        assert!(matches!(snap.series[1].value, SeriesValue::Gauge(7)));
        match &snap.series[2].value {
            SeriesValue::Histogram(h) => assert_eq!(h.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
