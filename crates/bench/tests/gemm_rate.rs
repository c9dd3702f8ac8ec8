//! The weight-gradient GEMM runs at the forward's rate at the ledger's
//! shard shapes: `tn ≥ 0.7 · nn` GFLOP/s, single-thread, a ratio inside
//! one run on one machine.
//!
//! A timing test, so it is `#[ignore]`d in the tier-1 suite and run on
//! its own in release:
//!
//! ```text
//! cargo test --release -p actcomp-bench --test gemm_rate -- --ignored
//! ```
//!
//! A quiet x86-64 core reads 0.8–1.0; a `tn` that stages a transposed
//! `A` before the GEMM reads 0.33–0.69.

use actcomp_tensor::{kernels, Workspace};
use std::time::{Duration, Instant};

/// The four distinct `fan_in → fan_out` linears one tensor-parallel rank
/// of the ledger's `train_*_dense` runs per layer (hidden 128, ff 512,
/// tp 2: QKV 128→64, attention out 64→128, MLP up 128→256, MLP down
/// 256→128).
const LEDGER_LINEARS: [(usize, usize); 4] = [(128, 64), (64, 128), (128, 256), (256, 128)];
/// Tokens per micro-batch: `train_mpsc_dense`'s 512, and a longer `k`
/// for the weight gradient's k-blocking.
const LEDGER_TOKENS: [usize; 2] = [512, 2048];
/// Each shape runs at least this many call pairs and at least this many
/// × 20 ms of them.
const ITERS: usize = 2;
/// Headroom for a short timing window on a shared core.
const MIN_TN_OVER_NN: f64 = 0.7;

fn filled(len: usize, scale: f32) -> Vec<f32> {
    (0..len)
        .map(|i| (((i * 13 + 5) % 31) as f32 - 15.0) * scale)
        .collect()
}

/// Best single-thread GFLOP/s of a linear's forward (`nn`) and its
/// weight-gradient GEMM (`tn`). The two are called alternately, one call
/// each, so both see the same machine from millisecond to millisecond.
fn nn_and_tn_gflops(
    tokens: usize,
    fan_in: usize,
    fan_out: usize,
    ws: &mut Workspace,
) -> (f64, f64) {
    let x = filled(tokens * fan_in, 0.03125);
    let w = filled(fan_in * fan_out, 0.0625);
    let dy = filled(tokens * fan_out, 0.0625);
    let mut y = vec![0.0f32; tokens * fan_out];
    let mut dw = vec![0.0f32; fan_in * fan_out];
    let (mut nn_s, mut tn_s) = (f64::INFINITY, f64::INFINITY);
    let budget = Duration::from_millis(20 * ITERS as u64);
    let (start, mut calls) = (Instant::now(), 0);
    while calls < ITERS || start.elapsed() < budget {
        let t0 = Instant::now();
        kernels::gemm_nn(&mut y, false, &x, &w, tokens, fan_in, fan_out, 1, ws);
        nn_s = nn_s.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        kernels::gemm_tn(&mut dw, false, &x, &dy, tokens, fan_in, fan_out, 1, ws);
        tn_s = tn_s.min(t0.elapsed().as_secs_f64());
        std::hint::black_box((&y, &dw));
        calls += 1;
    }
    let gflops = |secs: f64| 2.0 * (tokens * fan_in * fan_out) as f64 / secs / 1e9;
    (gflops(nn_s), gflops(tn_s))
}

#[test]
#[ignore = "timing: run alone in release with --ignored"]
fn weight_gradient_gemm_keeps_the_forward_rate() {
    let mut ws = Workspace::new();
    let mut slow = Vec::new();
    for tokens in LEDGER_TOKENS {
        for (fan_in, fan_out) in LEDGER_LINEARS {
            let (nn, tn) = nn_and_tn_gflops(tokens, fan_in, fan_out, &mut ws);
            let line = format!(
                "{tokens} tok {fan_in}->{fan_out}: tn {tn:.1} / nn {nn:.1} GFLOP/s = {:.2}",
                tn / nn
            );
            println!("{line}");
            if tn < MIN_TN_OVER_NN * nn {
                slow.push(line);
            }
        }
    }
    assert!(
        slow.is_empty(),
        "tn below {MIN_TN_OVER_NN} x nn at:\n{}",
        slow.join("\n")
    );
}
