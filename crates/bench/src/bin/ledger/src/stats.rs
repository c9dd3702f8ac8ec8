//! Order statistics for the ledger: a percentile picker that refuses
//! percentiles the sample cannot support, plus the small helpers the
//! workloads share.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts a latency sample ascending. Every sample the ledger takes is a
/// finite duration, so the total order never sees a NaN.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0 < p < 100) of an ascending sample, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it — a p90
/// of 60 samples is six numbers, not a tail.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    (n - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// Median of an unsorted sample of any size (the microbenches and the
/// repeated set-ups report it; no tail is claimed, so no minimum).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Calls `f` until `budget` has elapsed (at least `min_iters` times) and
/// returns the median seconds of one call and the number of calls.
pub fn median_secs(budget: Duration, min_iters: usize, mut f: impl FnMut()) -> (f64, usize) {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_iters || start.elapsed() < budget {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    (median(&samples), samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: the 90th, with exactly ten beyond it.
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        // p99 of 100 samples leaves one beyond: refused.
        assert_eq!(percentile(&s, 99.0), None);
        // p90 of 99 samples leaves nine beyond: refused.
        assert_eq!(percentile(&s[..99], 90.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(percentile(&big, 50.0), Some(500.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_secs_runs_at_least_min_iters() {
        let mut calls = 0;
        let (_, n) = median_secs(Duration::ZERO, 5, || calls += 1);
        assert_eq!((n, calls), (5, 5));
    }
}
