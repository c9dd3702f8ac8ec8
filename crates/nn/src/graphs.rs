//! The layer graphs, one definition each.
//!
//! Every op-graph segment a layer of this crate, a tensor-parallel shard
//! (`actcomp-mp`) or a runtime rank (`actcomp-runtime`) executes is built
//! by exactly one function here, from its dimensions alone, and compiled
//! through the caller's [`Workspace::plan`] — so it compiles once per
//! distinct shape per rank, and the serial layer, the simulated shard and
//! the threaded rank run the same graph because there is only one, not
//! because copies are kept in step. A function documents its graph's
//! input and output binding order; call sites bind, run and take outputs.

use actcomp_tensor::graph::Graph;
use actcomp_tensor::plan::{CompiledPlan, FusePolicy};
use actcomp_tensor::Workspace;
use std::sync::Arc;

/// A compiled layer graph, shared with the workspace that cached it.
pub type Plan = Arc<CompiledPlan>;

fn auto(ws: &mut Workspace, g: &Graph, what: &str) -> Plan {
    ws.plan(g, FusePolicy::Auto).expect(what)
}

/// `x·W + b`, the bias add in the GEMM's epilogue.
/// Inputs `x [m,k]`, `W [k,n]`, `b [n]`; output `y [m,n]`.
pub fn linear_forward(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    let mut g = Graph::new();
    let x = g.input(m, k);
    let w = g.input(k, n);
    let b = g.input_vec(n);
    let y = g.matmul(x, w);
    let h = g.bias_add(y, b);
    g.mark_output(h);
    auto(ws, &g, "linear forward graph")
}

/// Backward of [`linear_forward`].
/// Inputs `x [m,k]`, `dy [m,n]`, `W [k,n]`; outputs `dW = xᵀ dy`,
/// `db = Σ_rows dy`, `dx = dy Wᵀ`.
pub fn linear_backward(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    let mut g = Graph::new();
    let x = g.input(m, k);
    let dy = g.input(m, n);
    let w = g.input(k, n);
    let dw = g.matmul_tn(x, dy);
    let db = g.sum_axis0(dy);
    let dx = g.matmul_nt(dy, w);
    g.mark_output(dw);
    g.mark_output(db);
    g.mark_output(dx);
    auto(ws, &g, "linear backward graph")
}

/// A bias-free product `x·W` (a row shard's pre-reduce partial).
/// Inputs `x [m,k]`, `W [k,n]`; output `y [m,n]`.
pub fn matmul(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    let mut g = Graph::new();
    let x = g.input(m, k);
    let w = g.input(k, n);
    let y = g.matmul(x, w);
    g.mark_output(y);
    auto(ws, &g, "matmul graph")
}

/// Backward of [`matmul`].
/// Inputs `x [m,k]`, `dy [m,n]`, `W [k,n]`; outputs `dW`, `dx`.
pub fn matmul_backward(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    let mut g = Graph::new();
    let x = g.input(m, k);
    let dy = g.input(m, n);
    let w = g.input(k, n);
    let dw = g.matmul_tn(x, dy);
    let dx = g.matmul_nt(dy, w);
    g.mark_output(dw);
    g.mark_output(dx);
    auto(ws, &g, "matmul backward graph")
}

/// The three attention projections of one input, each bias add fused.
/// Inputs `x [m,k]`, then `(W [k,n], b [n])` for q, k, v; outputs
/// `q`, `k`, `v`.
pub fn qkv_forward(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    let mut g = Graph::new();
    let x = g.input(m, k);
    for _ in 0..3 {
        let w = g.input(k, n);
        let b = g.input_vec(n);
        let y = g.matmul(x, w);
        let h = g.bias_add(y, b);
        g.mark_output(h);
    }
    auto(ws, &g, "qkv graph")
}

/// Backward of the three projections — Megatron's `f` operator on one
/// worker. Inputs `x [m,k]`, `dq, dk, dv [m,n]`, `Wq, Wk, Wv [k,n]`;
/// outputs `(dW, db)` for q, k, v, then the whole local input gradient
/// `dx = (dq·Wqᵀ + dk·Wkᵀ) + dv·Wvᵀ`, both adds folded in the last GEMM's
/// epilogue.
pub fn qkv_backward(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    let mut g = Graph::new();
    let x = g.input(m, k);
    let [dq, dk, dv] = [(); 3].map(|()| g.input(m, n));
    let [wq, wk, wv] = [(); 3].map(|()| g.input(k, n));
    for d in [dq, dk, dv] {
        let dw = g.matmul_tn(x, d);
        let db = g.sum_axis0(d);
        g.mark_output(dw);
        g.mark_output(db);
    }
    let dxk = g.matmul_nt(dk, wk);
    let dxv = g.matmul_nt(dv, wv);
    let dxq = g.matmul_nt(dq, wq);
    let t = g.residual_add(dxq, dxk);
    let dx = g.residual_add(t, dxv);
    g.mark_output(dx);
    auto(ws, &g, "qkv backward graph")
}

/// One head's scaled scores `α·q kᵀ`; the scale is forced into the `nt`
/// GEMM's epilogue. Inputs `q, k [seq,d]`; output `s [seq,seq]`.
pub fn attn_scores(ws: &mut Workspace, seq: usize, d: usize, scale: f32) -> Plan {
    let mut g = Graph::new();
    let q = g.input(seq, d);
    let k = g.input(seq, d);
    let s = g.matmul_nt(q, k);
    let ss = g.scale(s, scale);
    g.mark_output(ss);
    ws.plan(&g, FusePolicy::Forced(vec![s]))
        .expect("scores graph: scale always fuses")
}

/// One head's context `p·v`.
/// Inputs `p [seq,seq]`, `v [seq,d]`; output `c [seq,d]`.
pub fn attn_context(ws: &mut Workspace, seq: usize, d: usize) -> Plan {
    matmul(ws, seq, seq, d)
}

/// Backward of [`attn_context`]: `c = p v → dp = dc vᵀ ; dv = pᵀ dc`.
/// Inputs `dc, v [seq,d]`, `p [seq,seq]`; outputs `dp`, `dv`.
pub fn attn_context_backward(ws: &mut Workspace, seq: usize, d: usize) -> Plan {
    let mut g = Graph::new();
    let dc = g.input(seq, d);
    let v = g.input(seq, d);
    let p = g.input(seq, seq);
    let dp = g.matmul_nt(dc, v);
    let dv = g.matmul_tn(p, dc);
    g.mark_output(dp);
    g.mark_output(dv);
    auto(ws, &g, "context backward graph")
}

/// Backward of [`attn_scores`] past the softmax:
/// `s = α q kᵀ → dq = (α ds) k ; dk = (α ds)ᵀ q`.
/// Inputs `ds [seq,seq]`, `k, q [seq,d]`; outputs `dq`, `dk`.
pub fn attn_scores_backward(ws: &mut Workspace, seq: usize, d: usize, scale: f32) -> Plan {
    let mut g = Graph::new();
    let ds = g.input(seq, seq);
    let k = g.input(seq, d);
    let q = g.input(seq, d);
    let dss = g.scale(ds, scale);
    let dq = g.matmul(dss, k);
    let dk = g.matmul_tn(dss, q);
    g.mark_output(dq);
    g.mark_output(dk);
    auto(ws, &g, "scores backward graph")
}

/// What precedes the normalization in a [`layernorm`] graph; each summand
/// is a plan-internal intermediate the planner recycles as soon as the
/// normalization has consumed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LnInput {
    /// `LN(x)`: inputs `x [m,n]`, `γ`, `β`.
    Plain,
    /// `LN(x + r)`: inputs `x`, `r [m,n]`, `γ`, `β`.
    Residual,
    /// `LN((s + b) + x)`, `b` broadcast over rows: inputs `s [m,n]`,
    /// `b [n]`, `x [m,n]`, `γ`, `β`.
    BiasResidual,
}

/// Layer normalization over the rows of the [`LnInput`] sum, in one pass.
/// Outputs `y [m,n]`, `x̂ [m,n]`, `1/σ [m,1]` — the latter two are the
/// cache [`layernorm_backward`] consumes.
pub fn layernorm(ws: &mut Workspace, m: usize, n: usize, eps: f32, input: LnInput) -> Plan {
    let mut g = Graph::new();
    let mut x = g.input(m, n);
    match input {
        LnInput::Plain => {}
        LnInput::Residual => {
            let r = g.input(m, n);
            x = g.residual_add(x, r);
        }
        LnInput::BiasResidual => {
            let b = g.input_vec(n);
            let r = g.input(m, n);
            let a = g.bias_add(x, b);
            x = g.residual_add(a, r);
        }
    }
    let gamma = g.input_vec(n);
    let beta = g.input_vec(n);
    let (y, xhat, inv_std) = g.layernorm(x, gamma, beta, eps);
    g.mark_output(y);
    g.mark_output(xhat);
    g.mark_output(inv_std);
    auto(ws, &g, "layernorm graph")
}

/// Layer normalization backward. Inputs `dy [m,n]`, then a second
/// upstream gradient `[m,n]` folded into `dy` first when `extra` (the
/// residual branch's contribution), then `x̂ [m,n]`, `1/σ [m,1]`, `γ`;
/// outputs `dx`, `dγ`, `dβ`, and with `row_bias` also `Σ_rows dx` — the
/// gradient of a row-broadcast bias added ahead of the normalization.
pub fn layernorm_backward(
    ws: &mut Workspace,
    m: usize,
    n: usize,
    extra: bool,
    row_bias: bool,
) -> Plan {
    let mut g = Graph::new();
    let mut dy = g.input(m, n);
    if extra {
        let e = g.input(m, n);
        dy = g.residual_add(dy, e);
    }
    let xhat = g.input(m, n);
    let inv_std = g.input(m, 1);
    let gamma = g.input_vec(n);
    let (dx, dgamma, dbeta) = g.layernorm_backward(dy, xhat, inv_std, gamma);
    g.mark_output(dx);
    g.mark_output(dgamma);
    g.mark_output(dbeta);
    if row_bias {
        let db = g.sum_axis0(dx);
        g.mark_output(db);
    }
    auto(ws, &g, "layernorm backward graph")
}

/// MLP expansion with the activation in the GEMM's epilogue and the
/// pre-activation stashed out of the register tile for backward.
/// Inputs `x [m,k]`, `W [k,n]`, `b [n]`; outputs `gelu(h)`, `h = x·W + b`.
pub fn mlp_up(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    let mut g = Graph::new();
    let x = g.input(m, k);
    let w = g.input(k, n);
    let b = g.input_vec(n);
    let y = g.matmul(x, w);
    let h = g.bias_add(y, b);
    let act = g.gelu(h);
    g.mark_output(act);
    g.mark_output(h);
    auto(ws, &g, "mlp up graph")
}

/// MLP contraction backward with the GELU derivative fused into the
/// data-gradient GEMM's epilogue, so `dp·Wᵀ` is never materialized.
/// Inputs `act [m,k]`, `dp [m,n]`, `W [k,n]`, `h [m,k]`; outputs
/// `dW = actᵀ·dp`, `dh = (dp·Wᵀ) ⊙ gelu'(h)`.
pub fn mlp_down_backward(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    let mut g = Graph::new();
    let act = g.input(m, k);
    let dp = g.input(m, n);
    let w = g.input(k, n);
    let h = g.input(m, k);
    let dw = g.matmul_tn(act, dp);
    let da = g.matmul_nt(dp, w);
    let dh = g.gelu_grad_mul(da, h);
    g.mark_output(dw);
    g.mark_output(dh);
    auto(ws, &g, "mlp down backward graph")
}

/// The whole serial feed-forward block: `gelu(x·W₁ + b₁)·W₂ + b₂`.
/// Inputs `x [m,h]`, `W₁ [h,ff]`, `b₁`, `W₂ [ff,h]`, `b₂`; outputs
/// `out`, the stashed pre-activation `h₁`, the activation `a`.
pub fn ffn_forward(ws: &mut Workspace, m: usize, h: usize, ff: usize) -> Plan {
    let mut g = Graph::new();
    let x = g.input(m, h);
    let w1 = g.input(h, ff);
    let b1 = g.input_vec(ff);
    let w2 = g.input(ff, h);
    let b2 = g.input_vec(h);
    let y1 = g.matmul(x, w1);
    let h1 = g.bias_add(y1, b1);
    let a = g.gelu(h1);
    let y2 = g.matmul(a, w2);
    let out = g.bias_add(y2, b2);
    g.mark_output(out);
    g.mark_output(h1);
    g.mark_output(a);
    auto(ws, &g, "ffn forward graph")
}

/// Backward of [`ffn_forward`]. Inputs `dy [m,h]`, `a`, `h₁ [m,ff]`,
/// `x [m,h]`, `W₂ [ff,h]`, `W₁ [h,ff]`; outputs `dW₂`, `db₂`, `dW₁`,
/// `db₁`, `dx`.
pub fn ffn_backward(ws: &mut Workspace, m: usize, h: usize, ff: usize) -> Plan {
    let mut g = Graph::new();
    let dy = g.input(m, h);
    let a = g.input(m, ff);
    let h1 = g.input(m, ff);
    let x = g.input(m, h);
    let w2 = g.input(ff, h);
    let w1 = g.input(h, ff);
    let dw2 = g.matmul_tn(a, dy);
    let db2 = g.sum_axis0(dy);
    let da = g.matmul_nt(dy, w2);
    let dh = g.gelu_grad_mul(da, h1);
    let dw1 = g.matmul_tn(x, dh);
    let db1 = g.sum_axis0(dh);
    let dx = g.matmul_nt(dh, w1);
    g.mark_output(dw2);
    g.mark_output(db2);
    g.mark_output(dw1);
    g.mark_output(db1);
    g.mark_output(dx);
    auto(ws, &g, "ffn backward graph")
}
