//! The ops of one timed window and their end-to-end summary.
//!
//! This box has two cores and neighbours. Outside load arrives in bursts
//! of seconds to minutes (and the clock briefly boosts): ten runs of one
//! binary spread 4–19% (IQR/median) on a whole-window mean or median,
//! more on a p90. Interference mostly slows, so the estimate of what the
//! *code* costs is the least-disturbed part of the window (the argument
//! for the minimum in `timeit` and in Chen & Revels, "Robust
//! benchmarking in noisy environments"): the window is cut into up to
//! [`MAX_SLICES`] consecutive slices of at least [`MIN_SLICE_OPS`] ops,
//! throughput and p50 are taken per slice, and each metric reports the
//! mean of its [`BEST_SLICES`] best slices — three, not one, so a single
//! lucky slice does not set the number. On the same slices of ten-run
//! sets, this had a smaller run-to-run spread on every workload than the
//! median, mean, trimmed mean, shorth or single best slice.

use crate::stats::{percentile, sorted};
use std::time::Duration;

pub const MAX_SLICES: usize = 10;
pub const BEST_SLICES: usize = 3;
/// A slice's p50 has its ten samples beyond it with room to spare.
pub const MIN_SLICE_OPS: usize = 30;

/// One successful op: its latency and when it completed, both in
/// seconds, the latter from the start of the window.
#[derive(Clone, Copy)]
struct Op {
    latency_s: f64,
    done_s: f64,
}

pub struct Measured {
    pub tokens_per_op: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Successful ops in completion order.
    ops: Vec<Op>,
    pub wall_s: f64,
}

pub struct Summary {
    pub tokens_per_s: f64,
    pub p50_ms: f64,
    /// Every slice's throughput (tok/s) and p50 (ms), in window order.
    pub slice_tokens_per_s: Vec<f64>,
    pub slice_p50_ms: Vec<f64>,
    pub ops_per_slice: usize,
}

/// Mean of the [`BEST_SLICES`] best values: the largest when
/// `higher_is_better`, else the smallest.
fn best_mean(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = sorted(values.to_vec());
    if higher_is_better {
        v.reverse();
    }
    let best = &v[..v.len().min(BEST_SLICES)];
    best.iter().sum::<f64>() / best.len() as f64
}

impl Measured {
    pub fn new(tokens_per_op: usize) -> Self {
        Measured {
            tokens_per_op,
            attempted: 0,
            failed: 0,
            ops: Vec::new(),
            wall_s: 0.0,
        }
    }

    /// Records one op that completed `done` after the window started.
    pub fn record(&mut self, latency: Duration, done: Duration, ok: bool) {
        self.attempted += 1;
        if ok {
            self.ops.push(Op {
                latency_s: latency.as_secs_f64(),
                done_s: done.as_secs_f64(),
            });
        } else {
            self.failed += 1;
        }
    }

    pub fn succeeded(&self) -> usize {
        self.ops.len()
    }

    pub fn latencies_s(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.latency_s).collect()
    }

    /// Tokens of successful ops per second over the whole window.
    pub fn tokens_per_s(&self) -> f64 {
        (self.ops.len() * self.tokens_per_op) as f64 / self.wall_s
    }

    /// Per-slice throughput and p50, each summarised by the mean of its
    /// best slices; `None` when the window holds fewer than
    /// [`MIN_SLICE_OPS`] ops.
    pub fn summary(&self) -> Option<Summary> {
        let slices = (self.ops.len() / MIN_SLICE_OPS).min(MAX_SLICES);
        if slices == 0 {
            return None;
        }
        let per = self.ops.len() / slices;
        let (mut tput, mut p50) = (Vec::new(), Vec::new());
        let mut prev_end = 0.0;
        // The remainder (fewer than `slices` ops) joins the last slice.
        for i in 0..slices {
            let end = if i + 1 == slices {
                self.ops.len()
            } else {
                (i + 1) * per
            };
            let slice = &self.ops[i * per..end];
            let slice_end = slice.last().map_or(prev_end, |o| o.done_s);
            tput.push((slice.len() * self.tokens_per_op) as f64 / (slice_end - prev_end));
            prev_end = slice_end;
            let lat = sorted(slice.iter().map(|o| o.latency_s).collect());
            p50.push(percentile(&lat, 50.0)? * 1e3);
        }
        Some(Summary {
            tokens_per_s: best_mean(&tput, true),
            p50_ms: best_mean(&p50, false),
            slice_tokens_per_s: tput,
            slice_p50_ms: p50,
            ops_per_slice: per,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(ops: usize, slow_from: usize) -> Measured {
        let mut m = Measured::new(10);
        let mut t = 0.0;
        for i in 0..ops {
            let lat = if i >= slow_from { 0.004 } else { 0.001 };
            t += lat;
            m.record(
                Duration::from_secs_f64(lat),
                Duration::from_secs_f64(t),
                true,
            );
        }
        m.wall_s = t;
        m
    }

    #[test]
    fn too_few_ops_give_no_summary() {
        assert!(window(MIN_SLICE_OPS - 1, usize::MAX).summary().is_none());
        let s = window(MIN_SLICE_OPS, usize::MAX)
            .summary()
            .expect("one slice");
        assert_eq!((s.slice_p50_ms.len(), s.ops_per_slice), (1, MIN_SLICE_OPS));
    }

    #[test]
    fn a_slow_burst_does_not_move_the_summary() {
        // 1000 ops, the last 600 four times slower: six of ten slices.
        let s = window(1000, 400).summary().expect("ten slices");
        assert_eq!((s.slice_p50_ms.len(), s.ops_per_slice), (10, 100));
        assert!((s.p50_ms - 1.0).abs() < 1e-6);
        assert!((s.tokens_per_s - 10_000.0).abs() < 1.0);
        // The whole-window mean is dragged down by the burst.
        assert!(window(1000, 400).tokens_per_s() < 4_000.0);
    }

    #[test]
    fn best_mean_takes_three_from_the_right_end() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(best_mean(&v, true), 4.0);
        assert_eq!(best_mean(&v, false), 2.0);
        assert_eq!(best_mean(&v[..1], true), 5.0);
    }

    #[test]
    fn failed_ops_count_but_carry_no_latency() {
        let mut m = window(120, usize::MAX);
        m.record(Duration::ZERO, Duration::ZERO, false);
        assert_eq!((m.attempted, m.failed, m.succeeded()), (121, 1, 120));
    }
}
