//! Property-based tests for the blocked, multi-threaded GEMM kernels.
//!
//! Two invariants per kernel (`nn`, `tn`, `nt`):
//!
//! 1. **Correctness**: the blocked kernel matches the naive reference
//!    within a floating-point tolerance (the blocked kernel uses fused
//!    multiply-adds, so it is *not* bit-identical to the two-rounding
//!    naive loop).
//! 2. **Determinism**: results are **bit-identical** across pool sizes
//!    {1, 2, 8} and accumulate modes, because tile decomposition depends
//!    only on the shape, never on the worker count.
//!
//! 3. **The determinism contract itself**: every output element is one
//!    fused-multiply-add chain over `p = 0..k` in increasing order, then
//!    the `+= existing` add, then the epilogue — so the kernels equal an
//!    in-test oracle written exactly that way **bit for bit**, for every
//!    variant, ragged edge, k-block seam, accumulate mode, epilogue/stash
//!    and pool size.
//!
//! Shapes are drawn from the blocking constants themselves (`MR`, `NR`,
//! `NC_TILES`, `KC`), so they straddle whatever tile the kernels use:
//! dimensions deliberately include values that are not multiples of any
//! tile edge.
use actcomp_tensor::kernels::{self, reference, EpOp, Epilogue, KC, MR, NC_TILES, NR};
use actcomp_tensor::{ops, Workspace};
use proptest::prelude::*;

/// Dimensions that straddle the `MR` / `NR` tile edges: exact tile
/// widths, off-by-ones around them, and ragged sizes in between.
fn dim() -> impl Strategy<Value = usize> {
    proptest::sample::select(vec![
        1usize,
        2,
        3,
        MR - 1,
        MR,
        MR + 1,
        2 * MR + 1,
        16,
        NR - 1,
        NR,
        NR + 1,
        37,
        2 * NR,
        2 * NR + 1,
        70,
    ])
}

const POOLS: [usize; 3] = [1, 2, 8];

/// Runs `gemm` at every pool size, checks all results are bit-identical,
/// and returns the first.
fn across_pools(m: usize, n: usize, gemm: impl Fn(&mut [f32], usize, &mut Workspace)) -> Vec<f32> {
    let mut ws = Workspace::new();
    let mut first: Option<Vec<f32>> = None;
    for threads in POOLS {
        let mut out = vec![0.0f32; m * n];
        gemm(&mut out, threads, &mut ws);
        match &first {
            None => first = Some(out),
            Some(want) => {
                assert!(
                    want.iter()
                        .zip(&out)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "pool size {threads} changed bits"
                );
            }
        }
    }
    first.unwrap()
}

fn assert_close(got: &[f32], want: &[f32], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() < 1e-3,
            "{what}[{i}]: blocked {g} vs reference {w}"
        );
    }
}

/// Which operand layout a case exercises.
#[derive(Clone, Copy, Debug)]
enum Variant {
    Nn,
    Tn,
    Nt,
}

/// The contract, written down: element `(i, j)` is one chain of fused
/// multiply-adds over increasing `p` starting from zero (plain
/// multiply-then-add on a target without FMA, as the kernels compile),
/// then `existing + chain` when accumulating, then `+ bias[j]` (stashed)
/// and GELU. Returns `(out, stash)`.
#[allow(clippy::too_many_arguments)]
fn oracle(
    v: Variant,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    existing: Option<&[f32]>,
    bias: Option<&[f32]>,
) -> (Vec<f32>, Vec<f32>) {
    let fma = cfg!(any(target_arch = "aarch64", target_feature = "fma"));
    let (mut out, mut stash) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                let (x, y) = match v {
                    Variant::Nn => (a[i * k + p], b[p * n + j]),
                    Variant::Tn => (a[p * m + i], b[p * n + j]),
                    Variant::Nt => (a[i * k + p], b[j * k + p]),
                };
                acc = if fma { x.mul_add(y, acc) } else { x * y + acc };
            }
            if let Some(e) = existing {
                acc += e[i * n + j];
            }
            if let Some(bias) = bias {
                acc += bias[j];
                stash[i * n + j] = acc;
                acc = ops::gelu(acc);
            }
            out[i * n + j] = acc;
        }
    }
    (out, stash)
}

/// Runs one variant through its `_ep` entry point.
#[allow(clippy::too_many_arguments)]
fn run(
    v: Variant,
    out: &mut [f32],
    accumulate: bool,
    a: &[f32],
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    threads: usize,
    ws: &mut Workspace,
    ep: &Epilogue<'_>,
    stash: Option<&mut [f32]>,
) {
    match v {
        Variant::Nn => kernels::gemm_nn_ep(out, accumulate, a, b, m, k, n, threads, ws, ep, stash),
        Variant::Tn => kernels::gemm_tn_ep(out, accumulate, a, b, k, m, n, threads, ws, ep, stash),
        Variant::Nt => kernels::gemm_nt_ep(out, accumulate, a, b, m, k, n, threads, ws, ep, stash),
    }
}

fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}[{i}]: kernel {g:e} vs oracle {w:e}"
        );
    }
}

/// One shape of one variant against the oracle, bitwise: plain and
/// bias+GELU-with-stash, overwrite and accumulate, pools {1, 2, 3, 8}.
fn check_against_oracle(v: Variant, m: usize, k: usize, n: usize, seed: u64) {
    let (a, b) = ab(seed, m * k, k * n);
    let (existing, bias) = ab(seed ^ 0x9E37, m * n, n);
    let mut ws = Workspace::new();
    for accumulate in [false, true] {
        let prior = accumulate.then_some(existing.as_slice());
        let (plain, _) = oracle(v, &a, &b, m, k, n, prior, None);
        let (fused, pre) = oracle(v, &a, &b, m, k, n, prior, Some(&bias));
        for threads in [1, 2, 3, 8] {
            let what = format!("{v:?} {m}x{k}x{n} acc={accumulate} threads={threads}");
            let mut out = existing.clone();
            run(
                v,
                &mut out,
                accumulate,
                &a,
                &b,
                (m, k, n),
                threads,
                &mut ws,
                &Epilogue::NONE,
                None,
            );
            assert_same_bits(&out, &plain, &what);

            let ops = [EpOp::BiasAdd(&bias), EpOp::Gelu];
            let ep = Epilogue {
                ops: &ops,
                stash_after: Some(1),
            };
            let mut out = existing.clone();
            let mut stash = vec![f32::NAN; m * n];
            run(
                v,
                &mut out,
                accumulate,
                &a,
                &b,
                (m, k, n),
                threads,
                &mut ws,
                &ep,
                Some(&mut stash),
            );
            assert_same_bits(&out, &fused, &format!("{what} fused"));
            assert_same_bits(&stash, &pre, &format!("{what} stash"));
        }
    }
}

/// Row counts around `MR` and its multiples, up to enough row tiles
/// that every pool size splits them into several chunks.
fn rows() -> impl Strategy<Value = usize> {
    proptest::sample::select(vec![
        1usize,
        3,
        MR - 1,
        MR,
        MR + 1,
        2 * MR,
        2 * MR + 1,
        37,
        64,
        65,
        33 * MR + 4,
        33 * MR + 5,
    ])
}

/// Column counts around `NR`, and at and past one `NC_TILES` j-slab.
fn cols() -> impl Strategy<Value = usize> {
    proptest::sample::select(vec![
        1usize,
        16,
        NR - 1,
        NR,
        NR + 1,
        70,
        NC_TILES * NR,
        NC_TILES * NR + 5,
    ])
}

/// Depths on both sides of every k-block seam.
fn depth() -> impl Strategy<Value = usize> {
    proptest::sample::select(vec![1usize, KC - 1, KC, KC + 1, 3 * KC + 5])
}

fn variant() -> impl Strategy<Value = Variant> {
    proptest::sample::select(vec![Variant::Nn, Variant::Tn, Variant::Nt])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_nn_matches_reference_all_pools(
        m in dim(), k in dim(), n in dim(),
        seed in 1u64..u64::MAX,
    ) {
        let (a, b) = ab(seed, m * k, k * n);
        let got = across_pools(m, n, |out, threads, ws| {
            kernels::gemm_nn(out, false, &a, &b, m, k, n, threads, ws);
        });
        assert_close(&got, &reference::matmul(&a, &b, m, k, n), "nn");
    }

    #[test]
    fn gemm_tn_matches_reference_all_pools(
        m in dim(), k in dim(), n in dim(),
        seed in 1u64..u64::MAX,
    ) {
        let (a, b) = ab(seed, k * m, k * n);
        let got = across_pools(m, n, |out, threads, ws| {
            kernels::gemm_tn(out, false, &a, &b, k, m, n, threads, ws);
        });
        assert_close(&got, &reference::matmul_tn(&a, &b, k, m, n), "tn");
    }

    #[test]
    fn gemm_nt_matches_reference_all_pools(
        m in dim(), k in dim(), n in dim(),
        seed in 1u64..u64::MAX,
    ) {
        let (a, b) = ab(seed, m * k, n * k);
        let got = across_pools(m, n, |out, threads, ws| {
            kernels::gemm_nt(out, false, &a, &b, m, k, n, threads, ws);
        });
        assert_close(&got, &reference::matmul_nt(&a, &b, m, k, n), "nt");
    }

    #[test]
    fn accumulate_adds_to_existing_output(
        m in dim(), k in dim(), n in dim(),
        seed in 1u64..u64::MAX,
    ) {
        let (a, b) = ab(seed, m * k, k * n);
        let mut ws = Workspace::new();
        let mut fresh = vec![0.0f32; m * n];
        kernels::gemm_nn(&mut fresh, false, &a, &b, m, k, n, 1, &mut ws);
        // out starts at 1.0 everywhere; accumulate must add exactly the
        // product on top (same bits as fresh + 1.0 since `+=` sees the
        // identical accumulator value).
        let mut acc = vec![1.0f32; m * n];
        kernels::gemm_nn(&mut acc, true, &a, &b, m, k, n, 2, &mut ws);
        for i in 0..m * n {
            prop_assert_eq!((fresh[i] + 1.0).to_bits(), acc[i].to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_variant_equals_the_increasing_p_fma_chain_bitwise(
        v in variant(), m in rows(), k in depth(), n in cols(),
        seed in 1u64..u64::MAX,
    ) {
        check_against_oracle(v, m, k, n, seed);
    }
}

/// A depth of many k-blocks (the paper's micro-batches are 4k+ tokens):
/// the chain must run unbroken through every seam, ragged edges included.
#[test]
fn long_k_runs_one_chain_through_every_seam() {
    for v in [Variant::Nn, Variant::Tn, Variant::Nt] {
        check_against_oracle(v, 9, 4096, 35, 0x5EA7);
    }
    check_against_oracle(Variant::Tn, 64, 4096 + 3, 128, 0x5EA8);
}

/// Deterministic pseudo-random operand pair from a proptest-drawn seed.
///
/// Drawing the operands directly with `proptest::collection::vec` at the
/// largest shapes makes shrinking dominate the run time; a seeded
/// xorshift fill keeps case generation O(1) while proptest still explores
/// the shape space.
fn ab(seed: u64, alen: usize, blen: usize) -> (Vec<f32>, Vec<f32>) {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Map to [-2, 2).
        (state >> 40) as f32 / (1u64 << 22) as f32 - 2.0
    };
    let a = (0..alen).map(|_| next()).collect();
    let b = (0..blen).map(|_| next()).collect();
    (a, b)
}
