//! Observability configuration.

use std::sync::Arc;
use std::time::Duration;

use crate::clock::{Clock, SystemClock};
use crate::recorder::SamplingPolicy;

/// Tuning for the serving layer's observability: whether per-request
/// tracing and per-stage histograms are collected, how many traces the
/// flight recorder retains, and which clock stamps everything.
///
/// With `enabled: true` the latency and per-stage histograms pin
/// `(trace_id, value)` exemplars, exported in OpenMetrics exemplar syntax.
///
/// With `enabled: false` the hot path records nothing and allocates
/// nothing: traces are [`crate::RequestTrace::disabled`] (an empty,
/// never-growing `Vec`), histogram recording is skipped, and the flight
/// recorder ignores what it is handed. The service's pre-existing atomic
/// counters (submitted/completed/...) stay on either way — they predate
/// this crate and cost one relaxed increment each.
#[derive(Clone)]
pub struct ObsConfig {
    /// Collect traces, stage histograms, and verdict counters.
    pub enabled: bool,
    /// Flight-recorder retention: most recent N traces.
    pub recent_traces: usize,
    /// Flight-recorder retention: slowest N traces.
    pub slowest_traces: usize,
    /// The clock stamping spans, deadlines, and latencies. Tests inject a
    /// [`crate::MockClock`]; production uses the monotonic system clock.
    pub clock: Arc<dyn Clock>,
    /// How the flight recorder decides which completed traces to keep.
    /// The default keeps every trace; serving binaries opt into dropping
    /// healthy ones with [`SamplingPolicy::tail`].
    pub sampling: SamplingPolicy,
}

impl ObsConfig {
    /// Observability on, with the system clock (the default).
    pub fn on() -> ObsConfig {
        ObsConfig::default()
    }

    /// Observability off: zero-allocation hot path, counters only.
    pub fn off() -> ObsConfig {
        ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        }
    }

    /// Replace the clock (builder-style).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> ObsConfig {
        self.clock = clock;
        self
    }

    /// Replace the trace sampling policy (builder-style).
    pub fn with_sampling(mut self, sampling: SamplingPolicy) -> ObsConfig {
        self.sampling = sampling;
        self
    }
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            enabled: true,
            recent_traces: 64,
            slowest_traces: 16,
            clock: Arc::new(SystemClock),
            sampling: SamplingPolicy::default(),
        }
    }
}

impl std::fmt::Debug for ObsConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsConfig")
            .field("enabled", &self.enabled)
            .field("recent_traces", &self.recent_traces)
            .field("slowest_traces", &self.slowest_traces)
            .field("sampling", &self.sampling)
            .finish_non_exhaustive()
    }
}

/// Convenience: nanoseconds between two instants read from one clock.
pub fn ns_between(earlier: std::time::Instant, later: std::time::Instant) -> u64 {
    later
        .checked_duration_since(earlier)
        .unwrap_or(Duration::ZERO)
        .as_nanos() as u64
}
