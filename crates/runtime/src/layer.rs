//! One rank's shard of an encoder layer, with channel-based collectives
//! where the serial executor sums partials in-process.
//!
//! The arithmetic replicates [`actcomp_mp`]'s tensor-parallel layer op
//! for op — every graph segment is the one definition in
//! [`actcomp_nn::graphs`], compiled once per shape into this rank's
//! workspace — and a micro-batch moves Megatron's traffic — four
//! all-reduces of one activation (`n` = tokens × hidden) per layer:
//!
//! | pass | reduce | size | collective |
//! |---|---|---|---|
//! | forward | attention output (row-parallel `wo`) | `n` | compressed |
//! | forward | MLP output (row-parallel `fc2`) | `n` | compressed |
//! | backward | MLP input gradient (column-parallel `fc1`) | `n` | dense |
//! | backward | QKV input gradient (column-parallel `wq`/`wk`/`wv`) | `n` | dense |
//!
//! The backward reductions are the plain sums over workers the serial
//! executor performs, run as dense all-reduces whose chain folds in the
//! same rank order. The last one is `n`, not `3n`: the rank folds its own
//! dQ/dK/dV input gradients first, in [`qkv_backward_ws`] — the very
//! function the serial executor calls per worker before it sums — so the
//! operands of the rank-order sum are identical on both sides and, with
//! the identity compressor, a threaded step is bit-identical to the
//! serial one by construction.

use crate::comm::TpGroup;
use crate::report::{timed, PhaseTimers};
use actcomp_compress::Compressor;
use actcomp_mp::shard::{attn_context_backward_ws, attn_context_forward_ws, qkv_backward_ws};
use actcomp_mp::{ColumnShard, RowShard};
use actcomp_nn::{graphs, EncoderLayer, Layer, LayerNorm, LnCache, Parameter};
use actcomp_tensor::plan::OutBind;
use actcomp_tensor::{Tensor, Workspace};

/// Rank-local MLP expansion with the activation fused into the GEMM
/// epilogue: returns `(gelu(x·W + b), x·W + b)` from one plan, with the
/// pre-activation stashed out of the register tile for backward instead
/// of recomputed or produced by a second full pass.
fn mlp_up_forward(fc1: &ColumnShard, x: &Tensor, ws: &mut Workspace) -> (Tensor, Tensor) {
    let (m, kin) = (x.dims()[0], x.dims()[1]);
    let n = fc1.weight.value.dims()[1];
    let plan = graphs::mlp_up(ws, m, kin, n);
    let mut res = plan.run(
        &[
            x.as_slice(),
            fc1.weight.value.as_slice(),
            fc1.bias.value.as_slice(),
        ],
        vec![OutBind::Lease, OutBind::Lease],
        ws,
    );
    (
        Tensor::from_vec(res[0].take().expect("leased act"), [m, n]),
        Tensor::from_vec(res[1].take().expect("leased h"), [m, n]),
    )
}

/// Rank-local MLP contraction backward with the GELU derivative fused
/// into the data-gradient GEMM's epilogue: accumulates `dW += actᵀ·dp`
/// straight into the shard's grad and returns `dh = (dp·Wᵀ) ⊙ gelu'(h)`
/// without materializing the intermediate `dp·Wᵀ`.
fn mlp_down_backward(
    fc2: &mut RowShard,
    act: &Tensor,
    dp: &Tensor,
    h: &Tensor,
    ws: &mut Workspace,
) -> Tensor {
    let (m, kin) = (act.dims()[0], act.dims()[1]);
    let n = dp.dims()[1];
    let plan = graphs::mlp_down_backward(ws, m, kin, n);
    let mut res = plan.run(
        &[
            act.as_slice(),
            dp.as_slice(),
            fc2.weight.value.as_slice(),
            h.as_slice(),
        ],
        vec![OutBind::Acc(fc2.weight.grad.as_mut_slice()), OutBind::Lease],
        ws,
    );
    Tensor::from_vec(res[1].take().expect("leased dh"), [m, kin])
}

/// Activations cached between a micro-batch's forward and backward.
/// Pushed/popped LIFO, matching the GPipe fill/drain order.
struct LayerCache {
    x: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    probs: Tensor,
    ctx: Tensor,
    h1: Tensor,
    h: Tensor,
    act: Tensor,
    ln1c: LnCache,
    ln2c: LnCache,
    batch: usize,
    seq: usize,
}

/// One rank's shard of one encoder layer: column shards of the QKV and
/// MLP-expansion weights, row shards of the output projections,
/// replicated layer norms and row biases, plus this rank's compressor
/// instances for the two all-reduce points.
pub struct RankLayer {
    wq: ColumnShard,
    wk: ColumnShard,
    wv: ColumnShard,
    wo: RowShard,
    wo_bias: Parameter,
    ln1: LayerNorm,
    fc1: ColumnShard,
    fc2: RowShard,
    fc2_bias: Parameter,
    ln2: LayerNorm,
    attn_comp: Box<dyn Compressor>,
    ff_comp: Box<dyn Compressor>,
    heads: usize,
    world: usize,
    hidden: usize,
    caches: Vec<LayerCache>,
}

impl RankLayer {
    /// Builds rank `tpi`'s shard of a serial encoder layer.
    ///
    /// # Panics
    ///
    /// Panics if `world` doesn't divide the head count (the runtime
    /// validates this before spawning ranks).
    pub fn from_serial(
        layer: &EncoderLayer,
        tpi: usize,
        world: usize,
        attn_comp: Box<dyn Compressor>,
        ff_comp: Box<dyn Compressor>,
    ) -> Self {
        let attn = &layer.attn;
        let heads = attn.heads();
        assert!(
            world > 0 && heads.is_multiple_of(world),
            "{heads} heads not divisible across {world} workers"
        );
        let take = |mut shards: Vec<ColumnShard>| shards.swap_remove(tpi);
        let take_row = |mut shards: Vec<RowShard>| shards.swap_remove(tpi);
        RankLayer {
            wq: take(ColumnShard::split(
                &attn.wq.weight.value,
                &attn.wq.bias.value,
                world,
            )),
            wk: take(ColumnShard::split(
                &attn.wk.weight.value,
                &attn.wk.bias.value,
                world,
            )),
            wv: take(ColumnShard::split(
                &attn.wv.weight.value,
                &attn.wv.bias.value,
                world,
            )),
            wo: take_row(RowShard::split(&attn.wo.weight.value, world)),
            wo_bias: Parameter::new(attn.wo.bias.value.clone()),
            ln1: layer.ln1.clone(),
            fc1: take(ColumnShard::split(
                &layer.ff.fc1.weight.value,
                &layer.ff.fc1.bias.value,
                world,
            )),
            fc2: take_row(RowShard::split(&layer.ff.fc2.weight.value, world)),
            fc2_bias: Parameter::new(layer.ff.fc2.bias.value.clone()),
            ln2: layer.ln2.clone(),
            attn_comp,
            ff_comp,
            heads,
            world,
            hidden: attn.hidden(),
            caches: Vec::new(),
        }
    }

    fn local_heads(&self) -> usize {
        self.heads / self.world
    }

    fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// Forward for one micro-batch over `[batch·seq, hidden]`, running
    /// both compressed all-reduces through the group's ring.
    pub fn forward(
        &mut self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        tp: &mut TpGroup,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) -> Tensor {
        let lh = self.local_heads();
        let d = self.head_dim();
        let (q, k, v, ctx, probs, partial) = timed(&mut timers.compute_s, || {
            let q = self.wq.forward_ws(x, ws);
            let k = self.wk.forward_ws(x, ws);
            let v = self.wv.forward_ws(x, ws);
            let (ctx, probs) = attn_context_forward_ws(&q, &k, &v, batch, seq, lh, d, ws);
            let partial = self.wo.partial_ws(&ctx, ws);
            (q, k, v, ctx, probs, partial)
        });
        let s = tp.compressed_all_reduce(self.attn_comp.as_mut(), &partial, timers, ws);
        ws.recycle_tensor(partial);
        let (h1, ln1c, h, act, partial2) = timed(&mut timers.compute_s, || {
            let (h1, ln1c) =
                self.ln1
                    .forward_bias_residual_cached_ws(&s, &self.wo_bias.value, x, ws);
            let (act, h) = mlp_up_forward(&self.fc1, &h1, ws);
            let partial2 = self.fc2.partial_ws(&act, ws);
            (h1, ln1c, h, act, partial2)
        });
        ws.recycle_tensor(s);
        let s2 = tp.compressed_all_reduce(self.ff_comp.as_mut(), &partial2, timers, ws);
        ws.recycle_tensor(partial2);
        let (y, ln2c) = timed(&mut timers.compute_s, || {
            self.ln2
                .forward_bias_residual_cached_ws(&s2, &self.fc2_bias.value, &h1, ws)
        });
        ws.recycle_tensor(s2);
        self.caches.push(LayerCache {
            x: ws.lease_copy(x),
            q,
            k,
            v,
            probs,
            ctx,
            h1,
            h,
            act,
            ln1c,
            ln2c,
            batch,
            seq,
        });
        y
    }

    /// Backward for the most recent un-backwarded micro-batch; returns
    /// the input gradient.
    pub fn backward(
        &mut self,
        dy: &Tensor,
        tp: &mut TpGroup,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) -> Tensor {
        let LayerCache {
            x,
            q,
            k,
            v,
            probs,
            ctx,
            h1,
            h,
            act,
            ln1c,
            ln2c,
            batch,
            seq,
        } = self
            .caches
            .pop()
            .expect("RankLayer::backward without forward");
        let lh = self.local_heads();
        let d = self.head_dim();

        let d2 = timed(&mut timers.compute_s, || {
            self.ln2
                .backward_fused_ws(dy, None, ln2c, Some(&mut self.fc2_bias), ws)
        });
        let dp = tp.compressed_backward(self.ff_comp.as_mut(), &d2, timers);
        let part = timed(&mut timers.compute_s, || {
            let dh = mlp_down_backward(&mut self.fc2, &act, &dp, &h, ws);
            let part = self.fc1.backward_ws(&h1, &dh, ws);
            for tmp in [dh, act, h, h1] {
                ws.recycle_tensor(tmp);
            }
            part
        });
        let df = tp.dense_all_reduce(&part, timers, ws);
        ws.recycle_tensor(part);
        let d1 = timed(&mut timers.compute_s, || {
            self.ln1
                .backward_fused_ws(&d2, Some(&df), ln1c, Some(&mut self.wo_bias), ws)
        });
        ws.recycle_tensor(d2);
        ws.recycle_tensor(df);
        let dpa = tp.compressed_backward(self.attn_comp.as_mut(), &d1, timers);
        let part = timed(&mut timers.compute_s, || {
            let dctx = self.wo.backward_ws(&ctx, &dpa, ws);
            let (dq, dk, dv) =
                attn_context_backward_ws(&q, &k, &v, &probs, &dctx, batch, seq, lh, d, ws);
            let shards = [&mut self.wq, &mut self.wk, &mut self.wv];
            let part = qkv_backward_ws(shards, &x, [&dq, &dk, &dv], ws);
            for tmp in [dctx, dq, dk, dv, probs, ctx, q, k, v, x] {
                ws.recycle_tensor(tmp);
            }
            part
        });
        // The rank already folded its dQ/dK/dV input gradients, so this
        // is one reduce of one activation; the residual branch's
        // gradient lands on the reduced buffer in place.
        let mut dx = tp.dense_all_reduce(&part, timers, ws);
        ws.recycle_tensor(part);
        timed(&mut timers.compute_s, || dx.add_assign(&d1));
        ws.recycle_tensor(d1);
        dx
    }

    /// Drops every cached forward activation without running backward —
    /// the forward-only serving path's per-batch cleanup. All cache
    /// tensors are recycled into the workspace arena, so serving a
    /// stream of requests reuses the same buffers instead of growing
    /// the cache stack forever.
    pub fn clear_caches(&mut self, ws: &mut Workspace) {
        for c in self.caches.drain(..) {
            let LayerCache {
                x,
                q,
                k,
                v,
                probs,
                ctx,
                h1,
                h,
                act,
                ln1c,
                ln2c,
                ..
            } = c;
            for t in [x, q, k, v, probs, ctx, h1, h, act] {
                ws.recycle_tensor(t);
            }
            for cache in [ln1c, ln2c] {
                let (xhat, inv_std) = cache.into_parts();
                ws.recycle_tensor(xhat);
                ws.recycle_tensor(inv_std);
            }
        }
    }

    /// Ring-syncs this layer's compressor-parameter gradients (the
    /// threaded counterpart of the serial `sync_compressor_grads`).
    pub fn sync_compressor_grads(&mut self, tp: &mut TpGroup, timers: &mut PhaseTimers) {
        tp.sync_param_grads(self.attn_comp.as_mut(), timers);
        tp.sync_param_grads(self.ff_comp.as_mut(), timers);
    }

    /// Visits this rank's model parameters (shards, replicated norms and
    /// row biases) in the rank-local canonical order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
        f(&mut self.wo_bias);
        self.ln1.visit_params(f);
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
        f(&mut self.fc2_bias);
        self.ln2.visit_params(f);
    }

    /// Visits this rank's compressor parameters (attention reduce, then
    /// feed-forward reduce).
    pub fn visit_compressor_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.attn_comp.visit_params(f);
        self.ff_comp.visit_params(f);
    }

    /// Collects the structured gradient snapshot the driver reassembles
    /// into the serial parameter order.
    pub fn grads(&mut self) -> LayerGrads {
        let grab = |p: &Parameter| p.grad.clone();
        LayerGrads {
            wq: vec![grab(&self.wq.weight), grab(&self.wq.bias)],
            wk: vec![grab(&self.wk.weight), grab(&self.wk.bias)],
            wv: vec![grab(&self.wv.weight), grab(&self.wv.bias)],
            wo_weight: grab(&self.wo.weight),
            wo_bias: grab(&self.wo_bias),
            ln1: {
                let mut v = Vec::new();
                self.ln1.visit_params(&mut |p| v.push(p.grad.clone()));
                v
            },
            fc1: vec![grab(&self.fc1.weight), grab(&self.fc1.bias)],
            fc2_weight: grab(&self.fc2.weight),
            fc2_bias: grab(&self.fc2_bias),
            ln2: {
                let mut v = Vec::new();
                self.ln2.visit_params(&mut |p| v.push(p.grad.clone()));
                v
            },
            attn_comp: {
                let mut v = Vec::new();
                self.attn_comp.visit_params(&mut |p| v.push(p.grad.clone()));
                v
            },
            ff_comp: {
                let mut v = Vec::new();
                self.ff_comp.visit_params(&mut |p| v.push(p.grad.clone()));
                v
            },
        }
    }
}

/// One rank's gradient snapshot for one layer, in shard-local form.
#[derive(Debug, Clone)]
pub struct LayerGrads {
    /// Query column shard `[weight, bias]`.
    pub wq: Vec<Tensor>,
    /// Key column shard `[weight, bias]`.
    pub wk: Vec<Tensor>,
    /// Value column shard `[weight, bias]`.
    pub wv: Vec<Tensor>,
    /// Attention output row-shard weight.
    pub wo_weight: Tensor,
    /// Replicated attention output bias.
    pub wo_bias: Tensor,
    /// Replicated post-attention norm `[gain, bias]`.
    pub ln1: Vec<Tensor>,
    /// MLP expansion column shard `[weight, bias]`.
    pub fc1: Vec<Tensor>,
    /// MLP contraction row-shard weight.
    pub fc2_weight: Tensor,
    /// Replicated MLP contraction bias.
    pub fc2_bias: Tensor,
    /// Replicated post-MLP norm `[gain, bias]`.
    pub ln2: Vec<Tensor>,
    /// This rank's attention-reduce compressor parameter gradients.
    pub attn_comp: Vec<Tensor>,
    /// This rank's feed-forward-reduce compressor parameter gradients.
    pub ff_comp: Vec<Tensor>,
}
