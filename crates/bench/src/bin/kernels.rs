//! Micro-benchmark for the blocked matmul kernels in `actcomp-tensor`.
//!
//! Measures GFLOP/s for each kernel variant (`A@B`, `Aᵀ@B`, `A@Bᵀ`) at
//! the shapes the BERT configs actually exercise and at the ledger's
//! tensor-parallel shard shapes (the linear layers one rank of
//! `train_*_dense` runs, at 512 and 2048 tokens, with the `tn/nn` ratio
//! per shape), single- vs pooled-thread, and records the speedup over a
//! faithful copy of the *seed* kernels (the pre-blocking `i-k-j` loops,
//! skip-branch included) so the before/after is part of the artifact. A second section
//! measures the graph executor's GEMM-epilogue fusion against both the
//! unfused plan (same kernels, separate elementwise passes) and a frozen
//! copy of the PR 4 path (separate bias/GELU passes with the libm tanh),
//! and a third records the workspace planner's peak bytes for an 8-layer
//! FFN/LN stack against the hand-threaded `_ws` baseline. Results land
//! in `BENCH_kernels.json` at the repo root, next to
//! `BENCH_runtime.json`; CI runs this bin with `--quick` and fails if
//! the file is missing or malformed.
//!
//! The thread-pool width honors `ACTCOMP_THREADS` (the same spec the
//! library itself reads); `available_parallelism` is recorded so a
//! pool that cannot help (1-core runner) is visible in the artifact,
//! and any case where the pool adds less than 5% is flagged.

use actcomp_bench::util;
use actcomp_core::report::Table;
use actcomp_tensor::graph::Graph;
use actcomp_tensor::plan::{CompiledPlan, FusePolicy, OutBind};
use actcomp_tensor::{kernels, pool, Workspace};
use std::time::{Duration, Instant};

/// One row of `BENCH_kernels.json`.
#[derive(serde::Serialize)]
struct CaseResult {
    label: String,
    variant: String,
    m: usize,
    k: usize,
    n: usize,
    seed_gflops: f64,
    gflops_1t: f64,
    gflops_multi: f64,
    multi_threads: usize,
    speedup_1t_vs_seed: f64,
    /// `gflops_multi / gflops_1t`.
    pool_gain: f64,
    /// True when the pool added less than 5% over one thread — either a
    /// scheduling regression or a runner without spare cores.
    pool_gain_below_5pct: bool,
}

/// One fused-vs-unfused comparison in `BENCH_kernels.json`.
#[derive(serde::Serialize)]
struct FusionResult {
    label: String,
    m: usize,
    k: usize,
    n: usize,
    /// Frozen PR 4 path: blocked GEMM, then separate bias/activation
    /// passes using `f32::tanh`.
    pr4_gflops: f64,
    /// Same graph compiled with `FusePolicy::None`: identical kernels,
    /// epilogue ops run as separate planned elementwise steps.
    unfused_gflops: f64,
    /// Graph compiled with `FusePolicy::Auto`: elementwise chain applied
    /// in the GEMM's register-tile epilogue.
    fused_gflops: f64,
    fused_vs_pr4: f64,
    fused_vs_unfused: f64,
}

/// Workspace-planner section of `BENCH_kernels.json`.
#[derive(serde::Serialize)]
struct PlannerResult {
    config: String,
    layers: usize,
    tokens: usize,
    hidden: usize,
    ff_hidden: usize,
    /// Liveness-planned peak of the compiled 8-layer plan.
    peak_workspace_bytes: usize,
    /// What the hand-threaded `_ws` style would lease: one buffer per
    /// non-input value, all live at once.
    unfused_ws_baseline_bytes: usize,
    /// `unfused_ws_baseline_bytes / peak_workspace_bytes`.
    reuse_ratio: f64,
    /// What a call site pays for its plan, per graph: compiled afresh
    /// every call, or looked up in its `Workspace`.
    plan_costs: Vec<PlanCost>,
}

/// Cost of obtaining one graph's plan, best of many calls. Both timings
/// include building the `Graph`, which a call site does either way.
#[derive(serde::Serialize)]
struct PlanCost {
    graph: String,
    nodes: usize,
    /// Build + `Graph::compile` (validate, fuse, plan lifetimes).
    compile_us: f64,
    /// Build + `Workspace::plan` on a workspace that has seen the graph.
    cached_lookup_us: f64,
}

/// `tn` against `nn` at one ledger shard shape, both single-thread and
/// measured in alternation (see `tn_over_nn`).
#[derive(serde::Serialize)]
struct TnOverNn {
    label: String,
    nn_gflops_1t: f64,
    tn_gflops_1t: f64,
    /// `tn_gflops_1t / nn_gflops_1t` — a ratio inside one run on one
    /// machine, which is what CI gates.
    tn_over_nn: f64,
}

/// Top-level `BENCH_kernels.json` document.
#[derive(serde::Serialize)]
struct BenchDoc {
    bench: String,
    quick: bool,
    /// Best-of count: every timing is the minimum over at least this many
    /// calls and at least this many × 20 ms of calls.
    iters_per_case: usize,
    /// `std::thread::available_parallelism` of the machine that ran this.
    available_parallelism: usize,
    pool_threads: usize,
    cases: Vec<CaseResult>,
    ledger_tn_over_nn: Vec<TnOverNn>,
    fusion: Vec<FusionResult>,
    planner: PlannerResult,
}

/// The seed crate's matmul kernels, copied verbatim (including the
/// `av == 0.0` skip branch) so the "before" side of the speedup stays
/// measurable after the real kernels replaced them.
mod seed {
    pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    pub fn matmul_tn(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let arow = &a[p * m..(p + 1) * m];
            let brow = &b[p * n..(p + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    pub fn matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                out[i * n + j] = arow.iter().zip(brow).map(|(&x, &y)| x * y).sum();
            }
        }
        out
    }
}

/// The PR 4 unfused layer path, frozen verbatim as the "before" side of
/// the fusion comparison: the blocked GEMM writes the full output, then
/// a separate row-broadcast bias pass re-reads it, then a separate GELU
/// pass re-reads it again — with the tanh-GELU computed through
/// `f32::tanh`, as `Tensor::gelu` did before the fused epilogues (and
/// the rational fast-tanh) landed.
mod pr4 {
    use actcomp_tensor::{kernels, Workspace};

    const SQRT_2_OVER_PI: f32 = 0.797_884_6;

    fn gelu_libm(x: f32) -> f32 {
        0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)).tanh())
    }

    /// `gelu(x·W + b)` as three full passes over the `[m, n]` output.
    #[allow(clippy::too_many_arguments)]
    pub fn linear_bias_gelu(
        out: &mut [f32],
        x: &[f32],
        w: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        n: usize,
        threads: usize,
        ws: &mut Workspace,
    ) {
        kernels::gemm_nn(out, false, x, w, m, k, n, threads, ws);
        for row in out.chunks_mut(n) {
            for (o, &b) in row.iter_mut().zip(bias) {
                *o += b;
            }
        }
        for o in out.iter_mut() {
            *o = gelu_libm(*o);
        }
    }

    /// `x·W + b` as two passes (the bias-only projections).
    #[allow(clippy::too_many_arguments)]
    pub fn linear_bias(
        out: &mut [f32],
        x: &[f32],
        w: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        n: usize,
        threads: usize,
        ws: &mut Workspace,
    ) {
        kernels::gemm_nn(out, false, x, w, m, k, n, threads, ws);
        for row in out.chunks_mut(n) {
            for (o, &b) in row.iter_mut().zip(bias) {
                *o += b;
            }
        }
    }
}

/// One benchmarked configuration.
struct Case {
    /// Human-readable provenance of the shape.
    label: String,
    /// `nn`, `tn`, or `nt`.
    variant: &'static str,
    m: usize,
    k: usize,
    n: usize,
}

/// BERT-config shapes: BERT-Base projections/FFN at micro-batch 8 ×
/// seq 128 rows, per-head attention score/context products, backward
/// weight-gradient shapes — plus the 512³ headline shape the acceptance
/// criterion is stated against.
const BERT_CASES: &[(&str, &str, usize, usize, usize)] = &[
    ("headline 512^3", "nn", 512, 512, 512),
    ("headline 512^3", "tn", 512, 512, 512),
    ("headline 512^3", "nt", 512, 512, 512),
    ("qkv/out proj fwd", "nn", 1024, 768, 768),
    ("ffn up fwd", "nn", 1024, 768, 3072),
    ("weight grad (xT dy)", "tn", 768, 1024, 768),
    ("input grad (dy wT)", "nt", 1024, 768, 768),
    ("attn scores (q kT)", "nt", 128, 64, 128),
];

/// The ledger's shard shapes: the four distinct `fan_in → fan_out`
/// linears one tensor-parallel rank runs per layer (hidden 128, ff 512,
/// tp 2: QKV 128→64, attention out 64→128, MLP up 128→256, MLP down
/// 256→128), each as its forward (`nn`), weight-gradient (`tn`) and
/// input-gradient (`nt`) GEMM.
const LEDGER_LINEARS: [(usize, usize); 4] = [(128, 64), (64, 128), (128, 256), (256, 128)];
/// Tokens per micro-batch the ledger shapes run at: `train_mpsc_dense`'s
/// 512 and a longer `k` for the weight gradient's k-blocking.
const LEDGER_TOKENS: [usize; 2] = [512, 2048];

fn ledger_label(tokens: usize, fan_in: usize, fan_out: usize) -> String {
    format!("ledger {tokens} tok {fan_in}->{fan_out}")
}

fn all_cases() -> Vec<Case> {
    let mut cases: Vec<Case> = BERT_CASES
        .iter()
        .map(|&(label, variant, m, k, n)| Case {
            label: label.to_string(),
            variant,
            m,
            k,
            n,
        })
        .collect();
    for tokens in LEDGER_TOKENS {
        for (fan_in, fan_out) in LEDGER_LINEARS {
            let label = ledger_label(tokens, fan_in, fan_out);
            for (variant, m, k, n) in [
                ("nn", tokens, fan_in, fan_out),
                ("tn", fan_in, tokens, fan_out),
                ("nt", tokens, fan_out, fan_in),
            ] {
                cases.push(Case {
                    label: label.clone(),
                    variant,
                    m,
                    k,
                    n,
                });
            }
        }
    }
    cases
}

/// In `--quick` mode only the headline and ledger shapes run (CI smoke
/// and its `tn/nn` gate); the fusion and planner sections always run
/// because CI asserts on them.
fn active_cases(quick: bool) -> Vec<Case> {
    all_cases()
        .into_iter()
        .filter(|c| !quick || c.label.starts_with("headline") || c.label.starts_with("ledger"))
        .collect()
}

/// Best wall time of `f` over at least `iters` calls and at least
/// `iters` × 20 ms of them, after one warmup call — a 100 µs shard GEMM
/// timed five times reads whatever the box was doing that millisecond.
fn time_best(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let budget = Duration::from_millis(20 * iters as u64);
    let (start, mut calls, mut best) = (Instant::now(), 0, f64::INFINITY);
    while calls < iters || start.elapsed() < budget {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
        calls += 1;
    }
    best
}

fn filled(len: usize, scale: f32) -> Vec<f32> {
    (0..len)
        .map(|i| (((i * 13 + 5) % 31) as f32 - 15.0) * scale)
        .collect()
}

/// A linear's weight-gradient GEMM (`tn`) against its forward (`nn`) at
/// one ledger shape, single-thread: the two are called alternately, one
/// call each, so both see the same machine from millisecond to
/// millisecond, and each reports its best call.
fn tn_over_nn(
    tokens: usize,
    fan_in: usize,
    fan_out: usize,
    iters: usize,
    ws: &mut Workspace,
) -> TnOverNn {
    let x = filled(tokens * fan_in, 0.03125);
    let w = filled(fan_in * fan_out, 0.0625);
    let dy = filled(tokens * fan_out, 0.0625);
    let (mut y, mut dw) = (
        vec![0.0f32; tokens * fan_out],
        vec![0.0f32; fan_in * fan_out],
    );
    let (mut nn_s, mut tn_s) = (f64::INFINITY, f64::INFINITY);
    let budget = Duration::from_millis(20 * iters as u64);
    let (start, mut calls) = (Instant::now(), 0);
    while calls < iters || start.elapsed() < budget {
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
    let label = ledger_label(tokens, fan_in, fan_out);
    let (nn, tn) = (gflops(nn_s), gflops(tn_s));
    println!("[{label}] tn {tn:.1} / nn {nn:.1} GFLOP/s = {:.2}", tn / nn);
    TnOverNn {
        label,
        nn_gflops_1t: nn,
        tn_gflops_1t: tn,
        tn_over_nn: tn / nn,
    }
}

/// `act = gelu(x·W + b)` as a graph, compiled with the given policy.
fn linear_gelu_plan(m: usize, k: usize, n: usize, policy: FusePolicy) -> CompiledPlan {
    let mut g = Graph::new();
    let gx = g.input(m, k);
    let gw = g.input(k, n);
    let gb = g.input_vec(n);
    let y = g.matmul(gx, gw);
    let h = g.bias_add(y, gb);
    let act = g.gelu(h);
    g.mark_output(act);
    g.compile(policy).expect("linear+bias+gelu graph")
}

/// `y = x·W + b` as a graph.
fn linear_bias_graph(m: usize, k: usize, n: usize) -> Graph {
    let mut g = Graph::new();
    let gx = g.input(m, k);
    let gw = g.input(k, n);
    let gb = g.input_vec(n);
    let y = g.matmul(gx, gw);
    let h = g.bias_add(y, gb);
    g.mark_output(h);
    g
}

/// Compiles the "8-layer bench config": eight chained FFN blocks with
/// residual adds and layer norms at BERT-Base width (the attention
/// softmax lives outside the IR, so this is the planner's view of a
/// layer). The unfused `_ws` baseline is one live buffer per non-input
/// value — exactly what the hand-threaded code used to lease.
fn planner_stack(layers: usize, tokens: usize, hidden: usize, ff: usize) -> Graph {
    let mut g = Graph::new();
    let mut x = g.input(tokens, hidden);
    let w1 = g.input(hidden, ff);
    let b1 = g.input_vec(ff);
    let w2 = g.input(ff, hidden);
    let b2 = g.input_vec(hidden);
    let gamma = g.input_vec(hidden);
    let beta = g.input_vec(hidden);
    for _ in 0..layers {
        let y1 = g.matmul(x, w1);
        let h1 = g.bias_add(y1, b1);
        let a = g.gelu(h1);
        let y2 = g.matmul(a, w2);
        let f = g.bias_add(y2, b2);
        let r = g.residual_add(f, x);
        let (y, _xhat, _inv_std) = g.layernorm(r, gamma, beta, 1e-5);
        x = y;
    }
    g.mark_output(x);
    g
}

/// Times `build` + compile against `build` + cached lookup, per call.
fn plan_cost(label: &str, iters: usize, build: impl Fn() -> Graph) -> PlanCost {
    const CALLS: usize = 200;
    let per_call_us = |f: &mut dyn FnMut()| {
        let batch = || (0..CALLS).for_each(|_| f());
        time_best(iters, batch) / CALLS as f64 * 1e6
    };
    let compile_us = per_call_us(&mut || {
        std::hint::black_box(build().compile(FusePolicy::Auto).expect("bench graph"));
    });
    let mut ws = Workspace::new();
    let cached_lookup_us = per_call_us(&mut || {
        std::hint::black_box(ws.plan(&build(), FusePolicy::Auto).expect("bench graph"));
    });
    assert_eq!(ws.plan_compiles(), 1, "every call after the first is a hit");
    println!(
        "[planner] {label}: compile {compile_us:.2} us, cached lookup {cached_lookup_us:.2} us"
    );
    PlanCost {
        graph: label.to_string(),
        nodes: build().len(),
        compile_us,
        cached_lookup_us,
    }
}

/// Measures the fused / unfused / frozen-PR4 variants of one fusible
/// layer segment.
#[allow(clippy::too_many_arguments)]
fn fusion_case(
    label: &str,
    m: usize,
    k: usize,
    n: usize,
    with_gelu: bool,
    iters: usize,
    threads: usize,
    ws: &mut Workspace,
) -> FusionResult {
    let flops = 2.0 * (m * k * n) as f64;
    let gf = |secs: f64| flops / secs / 1e9;
    let x = filled(m * k, 0.03125);
    let w = filled(k * n, 0.0625);
    let bias = filled(n, 0.125);
    let mut out = vec![0.0f32; m * n];

    let pr4_s = time_best(iters, || {
        if with_gelu {
            pr4::linear_bias_gelu(&mut out, &x, &w, &bias, m, k, n, threads, ws);
        } else {
            pr4::linear_bias(&mut out, &x, &w, &bias, m, k, n, threads, ws);
        }
        std::hint::black_box(&out);
    });

    let build = |policy| {
        if with_gelu {
            linear_gelu_plan(m, k, n, policy)
        } else {
            linear_bias_graph(m, k, n)
                .compile(policy)
                .expect("linear+bias graph")
        }
    };
    let unfused = build(FusePolicy::None);
    let unfused_s = time_best(iters, || {
        let res = unfused.run(&[&x, &w, &bias], vec![OutBind::Write(&mut out)], ws);
        std::hint::black_box(&res);
    });
    let fused = build(FusePolicy::Auto);
    let fused_s = time_best(iters, || {
        let res = fused.run(&[&x, &w, &bias], vec![OutBind::Write(&mut out)], ws);
        std::hint::black_box(&res);
    });

    FusionResult {
        label: label.to_string(),
        m,
        k,
        n,
        pr4_gflops: gf(pr4_s),
        unfused_gflops: gf(unfused_s),
        fused_gflops: gf(fused_s),
        fused_vs_pr4: pr4_s / fused_s,
        fused_vs_unfused: unfused_s / fused_s,
    }
}

fn main() {
    let opts = util::Options::from_args();
    let iters = if opts.quick { 2 } else { 10 };
    let avail = std::thread::available_parallelism().map_or(1, |p| p.get());
    // The pool width the library itself would pick: `ACTCOMP_THREADS`
    // if set, otherwise the machine's parallelism.
    let multi = pool::configured_threads().max(1);
    let mut ws = Workspace::new();
    let mut table = Table::new(
        "Blocked kernels vs seed kernels (GFLOP/s, best of several runs)",
        [
            "Shape",
            "Variant",
            "Seed",
            "Blocked 1T",
            &format!("Blocked {multi}T"),
            "Speedup 1T",
            "Pool gain",
        ]
        .into_iter()
        .map(String::from)
        .collect(),
    );
    let mut entries = Vec::new();
    for case in active_cases(opts.quick) {
        let (m, k, n) = (case.m, case.k, case.n);
        let flops = 2.0 * (m * k * n) as f64;
        let gf = |secs: f64| flops / secs / 1e9;
        let (a_len, b_len) = match case.variant {
            "tn" => (k * m, k * n),
            "nt" => (m * k, n * k),
            _ => (m * k, k * n),
        };
        let a = filled(a_len, 0.03125);
        let b = filled(b_len, 0.0625);
        let mut out = vec![0.0f32; m * n];

        let seed_s = time_best(iters, || {
            let r = match case.variant {
                "tn" => seed::matmul_tn(&a, &b, k, m, n),
                "nt" => seed::matmul_nt(&a, &b, m, k, n),
                _ => seed::matmul(&a, &b, m, k, n),
            };
            std::hint::black_box(&r);
        });
        let run_blocked = |threads: usize, ws: &mut Workspace, out: &mut [f32]| match case.variant {
            "tn" => kernels::gemm_tn(out, false, &a, &b, k, m, n, threads, ws),
            "nt" => kernels::gemm_nt(out, false, &a, &b, m, k, n, threads, ws),
            _ => kernels::gemm_nn(out, false, &a, &b, m, k, n, threads, ws),
        };
        let one_s = time_best(iters, || {
            run_blocked(1, &mut ws, &mut out);
            std::hint::black_box(&out);
        });
        let multi_s = time_best(iters, || {
            run_blocked(multi, &mut ws, &mut out);
            std::hint::black_box(&out);
        });

        let speedup = seed_s / one_s;
        let pool_gain = one_s / multi_s;
        let flagged = pool_gain < 1.05;
        table.push_row(vec![
            format!("{}x{}x{} ({})", m, k, n, case.label),
            case.variant.to_string(),
            format!("{:.2}", gf(seed_s)),
            format!("{:.2}", gf(one_s)),
            format!("{:.2}", gf(multi_s)),
            format!("{:.2}x", speedup),
            format!("{:.2}x{}", pool_gain, if flagged { " [<5%]" } else { "" }),
        ]);
        entries.push(CaseResult {
            label: case.label.clone(),
            variant: case.variant.to_string(),
            m,
            k,
            n,
            seed_gflops: gf(seed_s),
            gflops_1t: gf(one_s),
            gflops_multi: gf(multi_s),
            multi_threads: multi,
            speedup_1t_vs_seed: speedup,
            pool_gain,
            pool_gain_below_5pct: flagged,
        });
    }
    println!("{table}");

    let ledger_tn_over_nn: Vec<TnOverNn> = LEDGER_TOKENS
        .iter()
        .flat_map(|&tokens| LEDGER_LINEARS.map(|(fan_in, fan_out)| (tokens, fan_in, fan_out)))
        .map(|(tokens, fan_in, fan_out)| tn_over_nn(tokens, fan_in, fan_out, iters, &mut ws))
        .collect();

    let mut fusion_table = Table::new(
        "GEMM-epilogue fusion vs unfused plan vs frozen PR 4 path (GFLOP/s)",
        ["Segment", "PR4", "Unfused", "Fused", "vs PR4", "vs unfused"]
            .into_iter()
            .map(String::from)
            .collect(),
    );
    // Best-of-N needs a larger N here: the fusion ratio is an acceptance
    // number and single-digit-ms noise on a shared core can invert it.
    let fusion_iters = iters.max(8);
    let fusion = vec![
        fusion_case(
            "ffn up (bias+gelu)",
            1024,
            768,
            3072,
            true,
            fusion_iters,
            multi,
            &mut ws,
        ),
        fusion_case(
            "qkv proj (bias)",
            1024,
            768,
            768,
            false,
            fusion_iters,
            multi,
            &mut ws,
        ),
    ];
    for f in &fusion {
        fusion_table.push_row(vec![
            format!("{} {}x{}x{}", f.label, f.m, f.k, f.n),
            format!("{:.2}", f.pr4_gflops),
            format!("{:.2}", f.unfused_gflops),
            format!("{:.2}", f.fused_gflops),
            format!("{:.2}x", f.fused_vs_pr4),
            format!("{:.2}x", f.fused_vs_unfused),
        ]);
    }
    println!("{fusion_table}");

    let (layers, tokens, hidden, ff) = (8, 1024, 768, 3072);
    let stack = planner_stack(layers, tokens, hidden, ff)
        .compile(FusePolicy::Auto)
        .expect("8-layer planner stack");
    let plan_costs = vec![
        plan_cost("8-layer FFN/LN stack", iters, || {
            planner_stack(layers, tokens, hidden, ff)
        }),
        plan_cost(
            &format!("shard linear {}", ledger_label(512, 128, 64)),
            iters,
            || linear_bias_graph(512, 128, 64),
        ),
    ];
    let planner = PlannerResult {
        config: format!("{layers}-layer FFN/LN stack, tokens={tokens} hidden={hidden} ff={ff}"),
        layers,
        tokens,
        hidden,
        ff_hidden: ff,
        peak_workspace_bytes: stack.peak_workspace_bytes(),
        unfused_ws_baseline_bytes: stack.unfused_value_bytes(),
        reuse_ratio: stack.unfused_value_bytes() as f64
            / stack.peak_workspace_bytes().max(1) as f64,
        plan_costs,
    };
    println!(
        "[planner] {}: peak {} B vs hand-threaded {} B ({:.1}x reuse)",
        planner.config,
        planner.peak_workspace_bytes,
        planner.unfused_ws_baseline_bytes,
        planner.reuse_ratio
    );

    let doc = BenchDoc {
        bench: "kernels".to_string(),
        quick: opts.quick,
        iters_per_case: iters,
        available_parallelism: avail,
        pool_threads: multi,
        cases: entries,
        ledger_tn_over_nn,
        fusion,
        planner,
    };
    let json = serde_json::to_string_pretty(&doc).expect("benchmark JSON serializes");
    if let Err(e) = std::fs::write("BENCH_kernels.json", &json) {
        eprintln!("warning: could not write BENCH_kernels.json: {e}");
    } else {
        println!("[records written to BENCH_kernels.json]");
    }
}
