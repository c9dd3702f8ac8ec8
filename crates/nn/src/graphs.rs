//! The layer graphs, one definition each.
//!
//! Every op-graph segment a layer of this crate, a tensor-parallel shard
//! (`actcomp-mp`) or a runtime rank (`actcomp-runtime`) executes is built
//! by exactly one function here, from its arguments alone, and cached in
//! the caller's [`Workspace::plan`] under a [`PlanKey`]: the function's
//! name and those arguments. The graph is built and compiled only the
//! first time a rank sees a key, so a warm call is a key lookup, and the
//! serial layer, the simulated shard and the threaded rank run the same
//! graph because there is only one, not because copies are kept in step.
//! A function documents its graph's input and output binding order; call
//! sites bind arrays, run and take the leased outputs back.
//! Attention is the one segment that is an op rather than a graph
//! ([`attention_forward`] / [`attention_backward`]): its heads are
//! windows of the projections, which a graph value cannot name.

use actcomp_tensor::attention::{self, Heads};
use actcomp_tensor::graph::Graph;
use actcomp_tensor::plan::{CompiledPlan, FusePolicy, PlanKey};
use actcomp_tensor::{Tensor, Workspace};
use std::sync::Arc;

/// A compiled layer graph, shared with the workspace that cached it.
pub type Plan = Arc<CompiledPlan>;

/// The plan `builder(args)` names: cached in `ws`, else `graph` built and
/// compiled with every legal fusion. `args` holds every argument the
/// graph depends on, zero-padded.
fn auto(
    ws: &mut Workspace,
    builder: &'static str,
    args: [usize; 4],
    graph: impl FnOnce(&mut Graph),
) -> Plan {
    let compile = || {
        let mut g = Graph::new();
        graph(&mut g);
        g.compile(FusePolicy::Auto)
    };
    ws.plan(PlanKey { builder, args }, compile).expect(builder)
}

/// `x·W + b`, the bias add in the GEMM's epilogue.
/// Inputs `x [m,k]`, `W [k,n]`, `b [n]`; output `y [m,n]`.
pub fn linear_forward(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    auto(ws, "linear_forward", [m, k, n, 0], |g| {
        let x = g.input(m, k);
        let w = g.input(k, n);
        let b = g.input_vec(n);
        let y = g.matmul(x, w);
        let h = g.bias_add(y, b);
        g.mark_output(h);
    })
}

/// Backward of [`linear_forward`].
/// Inputs `x [m,k]`, `dy [m,n]`, `W [k,n]`; outputs `dW = xᵀ dy`,
/// `db = Σ_rows dy`, `dx = dy Wᵀ`.
pub fn linear_backward(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    auto(ws, "linear_backward", [m, k, n, 0], |g| {
        let x = g.input(m, k);
        let dy = g.input(m, n);
        let w = g.input(k, n);
        let dw = g.matmul_tn(x, dy);
        let db = g.sum_axis0(dy);
        let dx = g.matmul_nt(dy, w);
        g.mark_output(dw);
        g.mark_output(db);
        g.mark_output(dx);
    })
}

/// A bias-free product `x·W` (a row shard's pre-reduce partial).
/// Inputs `x [m,k]`, `W [k,n]`; output `y [m,n]`.
pub fn matmul(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    auto(ws, "matmul", [m, k, n, 0], |g| {
        let x = g.input(m, k);
        let w = g.input(k, n);
        let y = g.matmul(x, w);
        g.mark_output(y);
    })
}

/// Backward of [`matmul`].
/// Inputs `x [m,k]`, `dy [m,n]`, `W [k,n]`; outputs `dW`, `dx`.
pub fn matmul_backward(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    auto(ws, "matmul_backward", [m, k, n, 0], |g| {
        let x = g.input(m, k);
        let dy = g.input(m, n);
        let w = g.input(k, n);
        let dw = g.matmul_tn(x, dy);
        let dx = g.matmul_nt(dy, w);
        g.mark_output(dw);
        g.mark_output(dx);
    })
}

/// The three attention projections of one input, each bias add fused.
/// Inputs `x [m,k]`, then `(W [k,n], b [n])` for q, k, v; outputs
/// `q`, `k`, `v`.
pub fn qkv_forward(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    auto(ws, "qkv_forward", [m, k, n, 0], |g| {
        let x = g.input(m, k);
        for _ in 0..3 {
            let w = g.input(k, n);
            let b = g.input_vec(n);
            let y = g.matmul(x, w);
            let h = g.bias_add(y, b);
            g.mark_output(h);
        }
    })
}

/// Backward of the three projections — Megatron's `f` operator on one
/// worker. Inputs `x [m,k]`, `dq, dk, dv [m,n]`, `Wq, Wk, Wv [k,n]`;
/// outputs `(dW, db)` for q, k, v, then the whole local input gradient
/// `dx = (dq·Wqᵀ + dk·Wkᵀ) + dv·Wvᵀ`, both adds folded in the last GEMM's
/// epilogue.
pub fn qkv_backward(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    auto(ws, "qkv_backward", [m, k, n, 0], |g| {
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
    })
}

/// Multi-head attention of the `[batch·seq, heads·d]` projections
/// `qkv`, every head read where it lies: not a graph but one op, the
/// single definition in [`actcomp_tensor::attention`], reached through
/// here like every other layer segment. `at.heads` is the layer's heads
/// or a rank's local ones. Returns the context `[tokens, width]` and the
/// softmax probabilities `[prob_rows, seq]`, both leased from `ws`.
pub fn attention_forward(ws: &mut Workspace, qkv: [&Tensor; 3], at: Heads) -> (Tensor, Tensor) {
    let mut ctx = ws.lease_tensor([at.tokens(), at.width()]);
    let mut probs = ws.lease_tensor([at.prob_rows(), at.seq]);
    let (c, p) = (ctx.as_mut_slice(), probs.as_mut_slice());
    attention::attention_forward(qkv.map(Tensor::as_slice), at, c, p, ws);
    (ctx, probs)
}

/// Backward of [`attention_forward`] from its `qkv` and `probs` and the
/// context gradient `dctx`: `[dq, dk, dv]`, leased from `ws`.
pub fn attention_backward(
    ws: &mut Workspace,
    qkv: [&Tensor; 3],
    probs: &Tensor,
    dctx: &Tensor,
    at: Heads,
) -> [Tensor; 3] {
    let mut grads = [(); 3].map(|()| ws.lease_tensor([at.tokens(), at.width()]));
    let (qkv, p, dc) = (qkv.map(Tensor::as_slice), probs.as_slice(), dctx.as_slice());
    let outs = grads.each_mut().map(Tensor::as_mut_slice);
    attention::attention_backward(qkv, p, dc, at, outs, ws);
    grads
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
    let args = [m, n, eps.to_bits() as usize, input as usize];
    auto(ws, "layernorm", args, |g| {
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
    })
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
    let args = [m, n, usize::from(extra), usize::from(row_bias)];
    auto(ws, "layernorm_backward", args, |g| {
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
    })
}

/// MLP expansion with the activation in the GEMM's epilogue and the
/// pre-activation stashed out of the register tile for backward.
/// Inputs `x [m,k]`, `W [k,n]`, `b [n]`; outputs `gelu(h)`, `h = x·W + b`.
pub fn mlp_up(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    auto(ws, "mlp_up", [m, k, n, 0], |g| {
        let x = g.input(m, k);
        let w = g.input(k, n);
        let b = g.input_vec(n);
        let y = g.matmul(x, w);
        let h = g.bias_add(y, b);
        let act = g.gelu(h);
        g.mark_output(act);
        g.mark_output(h);
    })
}

/// MLP contraction backward with the GELU derivative fused into the
/// data-gradient GEMM's epilogue, so `dp·Wᵀ` is never materialized.
/// Inputs `act [m,k]`, `dp [m,n]`, `W [k,n]`, `h [m,k]`; outputs
/// `dW = actᵀ·dp`, `dh = (dp·Wᵀ) ⊙ gelu'(h)`.
pub fn mlp_down_backward(ws: &mut Workspace, m: usize, k: usize, n: usize) -> Plan {
    auto(ws, "mlp_down_backward", [m, k, n, 0], |g| {
        let act = g.input(m, k);
        let dp = g.input(m, n);
        let w = g.input(k, n);
        let h = g.input(m, k);
        let dw = g.matmul_tn(act, dp);
        let da = g.matmul_nt(dp, w);
        let dh = g.gelu_grad_mul(da, h);
        g.mark_output(dw);
        g.mark_output(dh);
    })
}

/// The whole serial feed-forward block: `gelu(x·W₁ + b₁)·W₂ + b₂`.
/// Inputs `x [m,h]`, `W₁ [h,ff]`, `b₁`, `W₂ [ff,h]`, `b₂`; outputs
/// `out`, the stashed pre-activation `h₁`, the activation `a`.
pub fn ffn_forward(ws: &mut Workspace, m: usize, h: usize, ff: usize) -> Plan {
    auto(ws, "ffn_forward", [m, h, ff, 0], |g| {
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
    })
}

/// Backward of [`ffn_forward`]. Inputs `dy [m,h]`, `a`, `h₁ [m,ff]`,
/// `x [m,h]`, `W₂ [ff,h]`, `W₁ [h,ff]`; outputs `dW₂`, `db₂`, `dW₁`,
/// `db₁`, `dx`.
pub fn ffn_backward(ws: &mut Workspace, m: usize, h: usize, ff: usize) -> Plan {
    auto(ws, "ffn_backward", [m, h, ff, 0], |g| {
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
    })
}
