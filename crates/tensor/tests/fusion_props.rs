//! Property-based tests for GEMM-epilogue fusion and the workspace
//! planner.
//!
//! Two families of invariants:
//!
//! 1. **Fusion bit-identity**: running a `GEMM + elementwise chain`
//!    graph fused ([`FusePolicy::Auto`] / [`FusePolicy::Forced`]) must
//!    produce bit-identical outputs to the unfused reference executor
//!    ([`FusePolicy::None`]), for every fusible chain op, chains up to
//!    length 3 with an optional mid-chain stash, shapes that straddle
//!    the MR=4 / NR=32 tile edges, and pool sizes {1, 2, 8}.
//! 2. **Planner soundness**: a multi-layer FFN/LN stack compiled with
//!    liveness-planned buffer reuse must (a) execute without ever
//!    reading a buffer outside its planned lifetime — `CompiledPlan::run`
//!    asserts this internally and panics on violation — (b) report a
//!    peak no larger than the hand-threaded `_ws` baseline (every
//!    non-input value materialized), and (c) stay bit-identical to the
//!    unfused plan of the same graph.
//!
//! 3. **Cache transparency**: the plan [`Workspace::plan`] hands out for
//!    a graph is the one compiled the first time its structure was seen,
//!    and runs bit-identically to a fresh [`Graph::compile`] of it under
//!    every policy, through `Lease`, `Write` and `Acc` bindings.
//!
//! The executor reads the pool size from the process-global
//! `pool::set_threads`, so every case takes `POOL_ENV` to serialize
//! pool reconfiguration within this test binary.

use actcomp_tensor::graph::Graph;
use actcomp_tensor::plan::{CompiledPlan, FusePolicy, OutBind, PlanKey};
use actcomp_tensor::{pool, Workspace};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

static POOL_ENV: Mutex<()> = Mutex::new(());

/// Dimensions straddling the MR=4 / NR=32 tile edges.
fn dim() -> impl Strategy<Value = usize> {
    proptest::sample::select(vec![1usize, 3, 4, 5, 8, 16, 31, 32, 33, 37, 64, 65])
}

const POOLS: [usize; 3] = [1, 2, 8];

/// One candidate epilogue-chain op; covers every fusible [`EwOp`]
/// variant (`actcomp_tensor::graph::EwOp`).
#[derive(Clone, Copy, Debug)]
enum COp {
    Bias,
    Residual,
    Mask,
    Scale,
    Gelu,
    Tanh,
    Relu,
    GeluGrad,
}

const ALL_OPS: [COp; 8] = [
    COp::Bias,
    COp::Residual,
    COp::Mask,
    COp::Scale,
    COp::Gelu,
    COp::Tanh,
    COp::Relu,
    COp::GeluGrad,
];

fn chain() -> impl Strategy<Value = Vec<COp>> {
    proptest::collection::vec(proptest::sample::select(ALL_OPS.to_vec()), 0..4)
}

/// Deterministic xorshift data in [-2, 2).
fn data(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 22) as f32 - 2.0
        })
        .collect()
}

/// Builds `x[m,k] @ w[k,n]` followed by `chain`, marking the chain value
/// after op `stash_at` as an extra output when requested. Returns the
/// graph, the GEMM's value id, and the generated input buffers.
fn build_chain_graph(
    m: usize,
    k: usize,
    n: usize,
    chain: &[COp],
    stash_at: Option<usize>,
    seed: u64,
) -> (Graph, usize, Vec<Vec<f32>>) {
    let mut g = Graph::new();
    let mut bufs: Vec<Vec<f32>> = Vec::new();
    let mut seed = seed;
    let mut fresh = |len: usize, bufs: &mut Vec<Vec<f32>>| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        bufs.push(data(seed, len));
    };
    let x = g.input(m, k);
    fresh(m * k, &mut bufs);
    let w = g.input(k, n);
    fresh(k * n, &mut bufs);
    let gemm = g.matmul(x, w);
    let mut cur = gemm;
    for (i, op) in chain.iter().enumerate() {
        cur = match op {
            COp::Bias => {
                let b = g.input_vec(n);
                fresh(n, &mut bufs);
                g.bias_add(cur, b)
            }
            COp::Residual => {
                let r = g.input(m, n);
                fresh(m * n, &mut bufs);
                g.residual_add(cur, r)
            }
            COp::Mask => {
                let mk = g.input(m, n);
                fresh(m * n, &mut bufs);
                g.mask_mul(cur, mk)
            }
            COp::Scale => g.scale(cur, 0.625),
            COp::Gelu => g.gelu(cur),
            COp::Tanh => g.tanh(cur),
            COp::Relu => g.relu(cur),
            COp::GeluGrad => {
                let h = g.input(m, n);
                fresh(m * n, &mut bufs);
                g.gelu_grad_mul(cur, h)
            }
        };
        if stash_at == Some(i) && cur != gemm {
            g.mark_output(cur);
        }
    }
    g.mark_output(cur);
    (g, gemm, bufs)
}

/// Runs `plan` on `bufs` with all-lease outputs and returns every
/// materialized output buffer.
fn run_plan(plan: &CompiledPlan, bufs: &[Vec<f32>], ws: &mut Workspace) -> Vec<Vec<f32>> {
    let inputs: Vec<&[f32]> = bufs.iter().map(Vec::as_slice).collect();
    let n_outs = plan.graph().output_ids().len();
    let mut outs: Vec<OutBind<'_>> = (0..n_outs).map(|_| OutBind::Lease).collect();
    plan.run(&inputs, &mut outs, ws);
    outs.into_iter().map(OutBind::leased).collect()
}

fn assert_bits_eq(want: &[Vec<f32>], got: &[Vec<f32>], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: output count");
    for (o, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(w.len(), g.len(), "{what}: output {o} length");
        for (i, (a, b)) in w.iter().zip(g).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{what}: output {o}[{i}]: {a} vs {b}"
            );
        }
    }
}

/// An L-layer FFN + residual + layernorm stack — the planner-soundness
/// workload (same shape as the bench's `planner_stack`).
fn build_stack(layers: usize, m: usize, h: usize, ff: usize, seed: u64) -> (Graph, Vec<Vec<f32>>) {
    let mut g = Graph::new();
    let mut bufs: Vec<Vec<f32>> = Vec::new();
    let mut seed = seed;
    let mut fresh = |len: usize, bufs: &mut Vec<Vec<f32>>| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        bufs.push(data(seed, len));
    };
    let x0 = g.input(m, h);
    fresh(m * h, &mut bufs);
    let mut x = x0;
    for _ in 0..layers {
        let w1 = g.input(h, ff);
        fresh(h * ff, &mut bufs);
        let b1 = g.input_vec(ff);
        fresh(ff, &mut bufs);
        let w2 = g.input(ff, h);
        fresh(ff * h, &mut bufs);
        let b2 = g.input_vec(h);
        fresh(h, &mut bufs);
        let gamma = g.input_vec(h);
        fresh(h, &mut bufs);
        let beta = g.input_vec(h);
        fresh(h, &mut bufs);
        let up = g.matmul(x, w1);
        let hb = g.bias_add(up, b1);
        let a = g.gelu(hb);
        let down = g.matmul(a, w2);
        let f = g.bias_add(down, b2);
        let s = g.residual_add(f, x);
        let (y, _, _) = g.layernorm(s, gamma, beta, 1e-5);
        x = y;
    }
    g.mark_output(x);
    (g, bufs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every fusible chain, fused under Auto and Forced, is bit-identical
    /// to the unfused reference executor at every pool size.
    #[test]
    fn fused_matches_unfused_bitwise_all_pools(
        m in dim(), k in dim(), n in dim(),
        ops in chain(),
        stash_sel in 0usize..8,
        seed in 1u64..u64::MAX,
    ) {
        let _env = POOL_ENV.lock().unwrap_or_else(|e| e.into_inner());
        // Values past the chain length mean "no mid-chain stash".
        let stash_at = (stash_sel < ops.len()).then_some(stash_sel);
        let (g, gemm, bufs) = build_chain_graph(m, k, n, &ops, stash_at, seed);
        let unfused = g.compile(FusePolicy::None).unwrap();
        let auto = g.compile(FusePolicy::Auto).unwrap();
        let forced = g.compile(FusePolicy::Forced(vec![gemm])).unwrap();
        // A chain with at least one op must actually have fused; an
        // empty chain has nothing to absorb.
        prop_assert!(ops.is_empty() || forced.fused_gemm_count() == 1);
        let mut ws = Workspace::new();
        pool::set_threads(1);
        let want = run_plan(&unfused, &bufs, &mut ws);
        for threads in POOLS {
            pool::set_threads(threads);
            assert_bits_eq(&want, &run_plan(&unfused, &bufs, &mut ws),
                           &format!("unfused pool={threads}"));
            assert_bits_eq(&want, &run_plan(&auto, &bufs, &mut ws),
                           &format!("auto pool={threads}"));
            assert_bits_eq(&want, &run_plan(&forced, &bufs, &mut ws),
                           &format!("forced pool={threads}"));
        }
        pool::set_threads(1);
    }

    /// The planner's buffer reuse is sound on deep stacks: execution
    /// never reads outside a planned lifetime (`run` panics internally
    /// if it does), peak bytes never exceed the materialize-everything
    /// `_ws` baseline, and reuse does not change a single bit.
    #[test]
    fn planner_is_sound_on_layer_stacks(
        layers in 1usize..=3,
        m in proptest::sample::select(vec![3usize, 8, 33]),
        h in proptest::sample::select(vec![8usize, 32, 40]),
        ff_mult in 1usize..=4,
        seed in 1u64..u64::MAX,
    ) {
        let _env = POOL_ENV.lock().unwrap_or_else(|e| e.into_inner());
        pool::set_threads(1);
        let (g, bufs) = build_stack(layers, m, h, h * ff_mult, seed);
        let unfused = g.compile(FusePolicy::None).unwrap();
        let fused = g.compile(FusePolicy::Auto).unwrap();
        for plan in [&unfused, &fused] {
            prop_assert!(
                plan.peak_workspace_bytes() <= plan.unfused_value_bytes(),
                "planned peak {} exceeds the materialize-everything baseline {}",
                plan.peak_workspace_bytes(),
                plan.unfused_value_bytes()
            );
        }
        // Fusion can only shrink the plan's footprint.
        prop_assert!(fused.peak_workspace_bytes() <= unfused.peak_workspace_bytes());
        let mut ws = Workspace::new();
        let want = run_plan(&unfused, &bufs, &mut ws);
        let got = run_plan(&fused, &bufs, &mut ws);
        assert_bits_eq(&want, &got, "stack fused vs unfused");
        for v in &want {
            prop_assert!(v.iter().all(|x| x.is_finite()));
        }
    }

    /// A plan from the workspace's cache is the plan a fresh compile of
    /// the same graph yields: one compile however often its key comes
    /// back, and the same bits out through every kind of binding.
    #[test]
    fn cached_plan_runs_like_a_fresh_compile(
        m in dim(), k in dim(), n in dim(),
        ops in chain(),
        stash_sel in 0usize..8,
        seed in 1u64..u64::MAX,
        policy_sel in 0usize..3,
        bind_sel in 0usize..3,
    ) {
        let _env = POOL_ENV.lock().unwrap_or_else(|e| e.into_inner());
        pool::set_threads(1);
        let stash_at = (stash_sel < ops.len()).then_some(stash_sel);
        let (g, gemm, bufs) = build_chain_graph(m, k, n, &ops, stash_at, seed);
        let policy = [FusePolicy::None, FusePolicy::Auto, FusePolicy::Forced(vec![gemm])]
            [policy_sel].clone();
        let fresh = g.compile(policy.clone()).unwrap();
        let mut ws = Workspace::new();
        // The chain, stash and seed are fixed for this workspace.
        let key = PlanKey { builder: "chain", args: [m, k, n, policy_sel] };
        let cached = ws.plan(key, || g.compile(policy.clone())).unwrap();
        // The same key is a hit: nothing is built or compiled again.
        let again = ws.plan(key, || unreachable!("a hit compiles nothing")).unwrap();
        prop_assert!(Arc::ptr_eq(&cached, &again));
        prop_assert_eq!(ws.plan_compiles(), 1);

        // The chain's final value is the last output; an unfused
        // elementwise producer cannot accumulate, so it falls back to
        // `Write` there.
        let n_outs = g.output_ids().len();
        let can_acc = ops.is_empty() || !matches!(policy, FusePolicy::None);
        let inputs: Vec<&[f32]> = bufs.iter().map(Vec::as_slice).collect();
        let run = |plan: &CompiledPlan, ws: &mut Workspace| {
            let mut ext = data(seed ^ 0xACC, m * n);
            let mut outs: Vec<OutBind<'_>> = (1..n_outs).map(|_| OutBind::Lease).collect();
            outs.push(match bind_sel {
                0 => OutBind::Lease,
                2 if can_acc => OutBind::Acc(&mut ext),
                _ => OutBind::Write(&mut ext),
            });
            plan.run(&inputs, &mut outs, ws);
            let leased = outs.into_iter().filter(|o| matches!(o, OutBind::Leased(_)));
            let mut got: Vec<Vec<f32>> = leased.map(OutBind::leased).collect();
            got.push(ext);
            got
        };
        let want = run(&fresh, &mut Workspace::new());
        assert_bits_eq(&want, &run(&cached, &mut ws), "cached vs fresh");
        assert_bits_eq(&want, &run(&cached, &mut ws), "cached, warm arena");
    }
}
