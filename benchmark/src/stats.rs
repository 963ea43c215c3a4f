//! Percentile, counting and comparison rules — the one place they live.
//!
//! Every number the benchmark reports goes through a function here, so the
//! rules are stated (and unit-tested) once:
//!
//! * a percentile is reported only when at least [`MIN_BEYOND`] samples lie
//!   beyond it;
//! * a refused, shed, failed or lost request counts as attempted, as an
//!   error, and as missing any latency limit;
//! * quartiles are Python's `statistics.quantiles(values, n=4)`, the rule
//!   the driver applies to the ten-seed spread;
//! * two sets of runs compare by median against the bound fixed in
//!   `BENCHMARK.json`, and a pairing whose spread exceeds the bound is
//!   `unresolved`, not `unchanged`.

/// Samples that must lie beyond the highest reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `q` of the sample at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the `q` percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Whether a sample of `n` supports reporting the `q` percentile.
pub fn supports(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// The `q` percentile when the sample supports it.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    supports(sorted.len(), q).then(|| percentile(sorted, q))
}

/// Sort a sample ascending (latencies are finite by construction).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    values
}

/// Median with the usual midpoint for even sizes.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty sample, so absent layers read as zero).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method): the three cut points `[q1, q2, q3]`. Needs two or more values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median — the driver's spread.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Rate robust to a transient stall: split the ascending completion times
/// (seconds) into `chunks` runs of equal count, take each run's
/// completions-per-second, and report the median run.
pub fn chunked_rate(done_at: &[f64], started_at: f64, chunks: usize) -> f64 {
    assert!(!done_at.is_empty(), "rate of an empty run");
    let per = (done_at.len() / chunks.max(1)).max(1);
    let mut rates = Vec::new();
    let mut from = started_at;
    for run in done_at.chunks(per) {
        if run.len() < per && !rates.is_empty() {
            break; // a short tail run would be noisier than the rest
        }
        let to = *run.last().expect("chunks are non-empty");
        if to > from {
            rates.push(run.len() as f64 / (to - from));
        }
        from = to;
    }
    if rates.is_empty() {
        let span = done_at[done_at.len() - 1] - started_at;
        return done_at.len() as f64 / span.max(f64::MIN_POSITIVE);
    }
    median(&rates)
}

/// Final disposition counts of one workload's requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests the generator tried to send.
    pub sent: u64,
    /// Requests that came back with a report.
    pub completed: u64,
    /// Admitted, then dropped by load shedding.
    pub shed: u64,
    /// Refused at the door: queue full.
    pub rejected: u64,
    /// Refused at the door: rate quota.
    pub throttled: u64,
    /// Answered with a typed pipeline error.
    pub failed: u64,
    /// Admitted but never answered.
    pub lost: u64,
}

impl Tally {
    /// Every request that did not come back with a report.
    pub fn errors(&self) -> u64 {
        self.shed + self.rejected + self.throttled + self.failed + self.lost
    }

    /// The accounting invariant: every request sent resolved exactly one way.
    pub fn balanced(&self) -> bool {
        self.completed + self.errors() == self.sent
    }
}

/// Share of requests *sent* that completed within `limit_ms`. Requests with
/// no latency (refused, shed, failed, lost) are in `sent` and can never be in
/// the numerator, so they count as missing the limit.
pub fn ok_ratio(sent: u64, completed_latencies_ms: &[f64], limit_ms: f64) -> f64 {
    assert!(sent > 0, "ok_ratio of nothing sent");
    let ok = completed_latencies_ms
        .iter()
        .filter(|&&l| l <= limit_ms)
        .count();
    ok as f64 / sent as f64
}

/// `(errors + failed output checks) / attempted`.
pub fn error_ratio(errors: u64, failed_checks: u64, attempted: u64) -> f64 {
    (errors + failed_checks) as f64 / attempted.max(1) as f64
}

/// FNV-1a over a byte stream — the decision digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far, as fixed-width hex.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// Outcome of comparing a candidate set of runs against a base set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Candidate median within the bound of the base median.
    Within,
    /// Candidate median worse than the base by more than the bound.
    Regressed,
    /// A spread exceeds the bound, so the medians cannot settle it.
    Unresolved,
    /// Spread exceeds the bound, but every candidate run beats every base run.
    Better,
}

impl Verdict {
    /// Label printed in reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better in every run",
        }
    }
}

/// By what share of the base median the candidate median is *worse*
/// (negative when it is better).
pub fn worse_by(base_median: f64, cand_median: f64, better: Better) -> f64 {
    if base_median == 0.0 {
        return 0.0;
    }
    let change = (cand_median - base_median) / base_median.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Compare two sets of runs of one (metric, workload) pairing.
pub fn compare(base: &[f64], cand: &[f64], better: Better, bound: f64) -> Verdict {
    let noisy = [base, cand]
        .iter()
        .any(|set| set.len() >= 2 && spread(set) > bound);
    if noisy {
        let all_better = base.iter().all(|&b| {
            cand.iter().all(|&c| match better {
                Better::Lower => c < b,
                Better::Higher => c > b,
            })
        });
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(median(base), median(cand), better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.90), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly 10 beyond, p99.9 has 1.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(!supports(1000, 0.999));
        // 100 samples support p90 and nothing higher.
        assert!(supports(100, 0.90));
        assert!(!supports(99, 0.90));
        assert!(!supports(100, 0.99));
        let s: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(supported_percentile(&s, 0.90), Some(450.0));
        assert_eq!(supported_percentile(&s, 0.99), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0]), [10.0, 20.0, 30.0]);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn refused_and_failed_requests_miss_the_limit() {
        // 10 sent: 6 completed in time, 2 completed late, 2 never completed
        // (one shed, one rejected) — only the 6 are ok.
        let latencies = [1.0, 2.0, 3.0, 4.0, 5.0, 50.0, 51.0, 90.0];
        assert_eq!(ok_ratio(10, &latencies, 50.0), 0.6);
        let tally = Tally {
            sent: 10,
            completed: 8,
            shed: 1,
            rejected: 1,
            ..Tally::default()
        };
        assert!(tally.balanced());
        assert_eq!(tally.errors(), 2);
        assert_eq!(error_ratio(tally.errors(), 1, tally.sent), 0.3);
        // A lost ticket breaks the balance until it is counted.
        let lost = Tally {
            completed: 7,
            ..tally
        };
        assert!(!lost.balanced());
        assert!(Tally { lost: 1, ..lost }.balanced());
    }

    #[test]
    fn chunked_rate_ignores_one_stalled_chunk() {
        // 100 completions at 100/s, with a 1 s stall in the middle.
        let mut t = 0.0;
        let done: Vec<f64> = (0..100)
            .map(|i| {
                t += if i == 50 { 1.01 } else { 0.01 };
                t
            })
            .collect();
        let rate = chunked_rate(&done, 0.0, 10);
        assert!((rate - 100.0).abs() < 1e-6, "median chunk rate {rate}");
        // The plain average would have halved.
        assert!(done.len() as f64 / done[99] < 51.0);
    }

    #[test]
    fn digest_is_order_sensitive_and_repeatable() {
        let mut a = Digest::default();
        a.update(b"verified");
        a.update(b"refuted");
        let mut b = Digest::default();
        b.update(b"verified");
        b.update(b"refuted");
        let mut c = Digest::default();
        c.update(b"refuted");
        c.update(b"verified");
        assert_eq!(a.hex(), b.hex());
        assert_ne!(a.hex(), c.hex());
    }

    #[test]
    fn comparison_verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5];
        // Within: 3% slower against a 10% bound.
        assert_eq!(
            compare(&base, &[103.0, 102.0, 104.0, 103.5], Better::Lower, 0.10),
            Verdict::Within
        );
        // Regressed: 20% slower.
        assert_eq!(
            compare(&base, &[120.0, 121.0, 119.0, 120.5], Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            compare(&base, &[120.0, 121.0, 119.0, 120.5], Better::Higher, 0.10),
            Verdict::Within
        );
        // Spread wider than the bound: unresolved, not unchanged...
        let noisy = [60.0, 100.0, 140.0, 180.0];
        assert_eq!(
            compare(&base, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // ...unless every candidate run beats every base run.
        let fast_noisy = [10.0, 30.0, 50.0, 70.0];
        assert_eq!(
            compare(&base, &fast_noisy, Better::Lower, 0.10),
            Verdict::Better
        );
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
    }
}
