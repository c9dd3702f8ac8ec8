//! A warm call on the serving path allocates nothing: a one-chunk GEMM
//! (every serving-shape GEMM, and every call at one kernel thread) and
//! the attention op at the serving head shape (a whole warm layer,
//! plans looked up and run, is `actcomp-mp`'s `tests/alloc_free.rs`).
//! Counted by the allocator in `counting/`; the file is its own test
//! binary so nothing else shares that allocator.

mod counting;

use actcomp_tensor::attention::{attention_forward, Heads};
use actcomp_tensor::{kernels, Workspace};
use counting::warm_allocs;

#[test]
fn warm_gemm_calls_at_8x8x8_allocate_nothing() {
    let (m, k, n) = (8, 8, 8);
    let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.25).collect();
    let b: Vec<f32> = (0..k * n).map(|i| 1.0 - i as f32 * 0.125).collect();
    let mut out = vec![0.0f32; m * n];
    let mut ws = Workspace::new();
    // Eight threads still plan one chunk: the call is far below the grain.
    for threads in [1, 8] {
        let nn = warm_allocs(|| {
            kernels::gemm_nn(&mut out, false, &a, &b, m, k, n, threads, &mut ws);
        });
        let tn = warm_allocs(|| {
            kernels::gemm_tn(&mut out, false, &a, &b, k, m, n, threads, &mut ws);
        });
        let nt = warm_allocs(|| {
            kernels::gemm_nt(&mut out, true, &a, &b, m, k, n, threads, &mut ws);
        });
        assert_eq!([nn, tn, nt], [0, 0, 0], "threads {threads}: nn, tn, nt");
    }
}

#[test]
fn warm_serve_shape_attention_allocates_nothing() {
    let at = Heads {
        batch: 8,
        heads: 4,
        seq: 8,
        d: 8,
    };
    let len = at.tokens() * at.width();
    let qkv: Vec<Vec<f32>> = (0..3)
        .map(|s| (0..len).map(|i| ((i * 7 + s) % 13) as f32 * 0.1).collect())
        .collect();
    let mut ctx = vec![0.0f32; len];
    let mut probs = vec![0.0f32; at.prob_rows() * at.seq];
    let mut ws = Workspace::new();
    let n = warm_allocs(|| {
        attention_forward(
            [&qkv[0], &qkv[1], &qkv[2]],
            at,
            &mut ctx,
            &mut probs,
            &mut ws,
        );
    });
    assert_eq!(n, 0, "attention_forward at {at:?}");
}
