//! Single-worker shard primitives.
//!
//! [`crate::TpAttention`] and [`crate::TpFeedForward`] simulate all
//! tensor-parallel workers inside one struct; the threaded runtime
//! (`actcomp-runtime`) instead gives each OS thread exactly one shard.
//! Both build on the types here so the per-shard arithmetic — and
//! therefore the floating-point result, which depends on operation
//! order — is shared rather than duplicated.

use actcomp_nn::{graphs, Parameter};
use actcomp_tensor::plan::OutBind;
use actcomp_tensor::{ops, workspace, Tensor, Workspace};

/// One worker's shard of a column-parallel linear: full input, a
/// `[in, out/world]` weight slice and its `[out/world]` bias slice.
#[derive(Debug, Clone)]
pub struct ColumnShard {
    /// This worker's `[in, out/world]` weight columns.
    pub weight: Parameter,
    /// This worker's `[out/world]` bias slice.
    pub bias: Parameter,
}

impl ColumnShard {
    /// Splits a full `[in, out]` weight and `[out]` bias into `world`
    /// column shards, one per worker.
    ///
    /// # Panics
    ///
    /// Panics unless `world` divides the output width.
    pub fn split(weight: &Tensor, bias: &Tensor, world: usize) -> Vec<ColumnShard> {
        let weights = weight.split_cols(world);
        let biases = bias.reshaped([1, bias.len()]).split_cols(world);
        weights
            .into_iter()
            .zip(biases)
            .map(|(w, b)| {
                let width = b.len();
                ColumnShard {
                    weight: Parameter::new(w),
                    bias: Parameter::new(b.reshape([width])),
                }
            })
            .collect()
    }

    /// `x · W + b` for this worker's slice; `x` is the full (replicated)
    /// input.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        workspace::with_thread_default(|ws| self.forward_ws(x, ws))
    }

    /// [`ColumnShard::forward`] with caller-provided scratch: the very
    /// [`graphs::linear_forward`] plan the serial [`actcomp_nn::Linear`]
    /// runs, so a shard's columns are bit-identical to the serial
    /// layer's column slice.
    pub fn forward_ws(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let (m, kin) = (x.dims()[0], x.dims()[1]);
        let n = self.bias.value.len();
        let plan = graphs::linear_forward(ws, m, kin, n);
        let mut res = plan.run(
            &[
                x.as_slice(),
                self.weight.value.as_slice(),
                self.bias.value.as_slice(),
            ],
            vec![OutBind::Lease],
            ws,
        );
        Tensor::from_vec(res[0].take().expect("leased output"), [m, n])
    }

    /// Accumulates weight/bias gradients from `dout` against the forward
    /// input `x`, returning this worker's *partial* input gradient (the
    /// caller sums partials across workers). One plan
    /// ([`graphs::linear_backward`]) whose weight/bias gradient outputs
    /// accumulate in place (`grad += xᵀ dout`, no temporary).
    pub fn backward_ws(&mut self, x: &Tensor, dout: &Tensor, ws: &mut Workspace) -> Tensor {
        let (m, kin) = (x.dims()[0], x.dims()[1]);
        let n = dout.dims()[1];
        let plan = graphs::linear_backward(ws, m, kin, n);
        let mut res = plan.run(
            &[x.as_slice(), dout.as_slice(), self.weight.value.as_slice()],
            vec![
                OutBind::Acc(self.weight.grad.as_mut_slice()),
                OutBind::Acc(self.bias.grad.as_mut_slice()),
                OutBind::Lease,
            ],
            ws,
        );
        Tensor::from_vec(res[2].take().expect("leased dx"), [m, kin])
    }

    /// Visits the weight then the bias.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

/// Backward of one worker's column-parallel Q/K/V projections —
/// Megatron's `f` operator: accumulates the three shards' weight and
/// bias gradients against the shared input `x` and returns the worker's
/// whole local input gradient `(dq·Wqᵀ + dk·Wkᵀ) + dv·Wvᵀ`, folded inside
/// the last GEMM's epilogue. The caller sums that one tensor across
/// workers in rank order, so a layer reduces `n` here rather than `3n`.
///
/// Both executors call this, so they agree bit for bit by construction;
/// the plan is [`graphs::qkv_backward`], the serial `MultiHeadAttention`'s
/// own, so at `world = 1` the result is the serial layer's.
pub fn qkv_backward_ws(
    shards: [&mut ColumnShard; 3],
    x: &Tensor,
    douts: [&Tensor; 3],
    ws: &mut Workspace,
) -> Tensor {
    let (m, kin) = (x.dims()[0], x.dims()[1]);
    let n = douts[0].dims()[1];
    let plan = graphs::qkv_backward(ws, m, kin, n);
    let mut inputs = vec![x.as_slice()];
    inputs.extend(douts.map(Tensor::as_slice));
    let mut outs = Vec::with_capacity(7);
    for ColumnShard { weight, bias } in shards {
        inputs.push(weight.value.as_slice());
        outs.push(OutBind::Acc(weight.grad.as_mut_slice()));
        outs.push(OutBind::Acc(bias.grad.as_mut_slice()));
    }
    outs.push(OutBind::Lease);
    let mut res = plan.run(&inputs, outs, ws);
    Tensor::from_vec(res[6].take().expect("leased dx"), [m, kin])
}

/// One worker's shard of a row-parallel linear: a `[in/world, out]`
/// weight slice producing a *partial* output that must be all-reduced.
///
/// The shared output bias is owned by the caller (it is added once,
/// after the reduce), so this type holds only the weight.
#[derive(Debug, Clone)]
pub struct RowShard {
    /// This worker's `[in/world, out]` weight rows.
    pub weight: Parameter,
}

impl RowShard {
    /// Splits a full `[in, out]` weight into `world` row shards.
    ///
    /// # Panics
    ///
    /// Panics unless `world` divides the input width.
    pub fn split(weight: &Tensor, world: usize) -> Vec<RowShard> {
        weight
            .split_rows(world)
            .into_iter()
            .map(|w| RowShard {
                weight: Parameter::new(w),
            })
            .collect()
    }

    /// This worker's partial output `x · W` (pre-reduce, no bias).
    pub fn partial(&self, x: &Tensor) -> Tensor {
        workspace::with_thread_default(|ws| self.partial_ws(x, ws))
    }

    /// [`RowShard::partial`] with caller-provided scratch.
    pub fn partial_ws(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let (m, kin) = (x.dims()[0], x.dims()[1]);
        let n = self.weight.value.dims()[1];
        let plan = graphs::matmul(ws, m, kin, n);
        let mut res = plan.run(
            &[x.as_slice(), self.weight.value.as_slice()],
            vec![OutBind::Lease],
            ws,
        );
        Tensor::from_vec(res[0].take().expect("leased partial"), [m, n])
    }

    /// Accumulates the weight gradient from the (post-reduce) partial
    /// gradient `dpartial` against the forward input shard `x`, returning
    /// the input-shard gradient.
    pub fn backward(&mut self, x: &Tensor, dpartial: &Tensor) -> Tensor {
        workspace::with_thread_default(|ws| self.backward_ws(x, dpartial, ws))
    }

    /// [`RowShard::backward`] with caller-provided scratch; one plan,
    /// weight gradient accumulating in place.
    pub fn backward_ws(&mut self, x: &Tensor, dpartial: &Tensor, ws: &mut Workspace) -> Tensor {
        let (m, kin) = (x.dims()[0], x.dims()[1]);
        let n = dpartial.dims()[1];
        let plan = graphs::matmul_backward(ws, m, kin, n);
        let mut res = plan.run(
            &[
                x.as_slice(),
                dpartial.as_slice(),
                self.weight.value.as_slice(),
            ],
            vec![
                OutBind::Acc(self.weight.grad.as_mut_slice()),
                OutBind::Lease,
            ],
            ws,
        );
        Tensor::from_vec(res[1].take().expect("leased dx"), [m, kin])
    }

    /// Visits the weight.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.weight);
    }
}

/// Extracts the `[seq, d]` block of local head `hd`, batch `t` from a
/// `[batch·seq, width]` worker tensor.
pub fn head_block(x: &Tensor, t: usize, hd: usize, seq: usize, d: usize, width: usize) -> Tensor {
    workspace::with_thread_default(|ws| head_block_ws(x, t, hd, seq, d, width, ws))
}

/// [`head_block`] into a buffer leased from `ws`.
#[allow(clippy::too_many_arguments)]
pub fn head_block_ws(
    x: &Tensor,
    t: usize,
    hd: usize,
    seq: usize,
    d: usize,
    width: usize,
    ws: &mut Workspace,
) -> Tensor {
    let mut out = ws.lease(seq * d);
    let base = hd * d;
    for r in 0..seq {
        let row = (t * seq + r) * width + base;
        out[r * d..(r + 1) * d].copy_from_slice(&x.as_slice()[row..row + d]);
    }
    Tensor::from_vec(out, [seq, d])
}

/// Writes a `[seq, d]` block back into a `[batch·seq, width]` tensor.
pub fn write_head_block(
    out: &mut Tensor,
    block: &Tensor,
    t: usize,
    hd: usize,
    seq: usize,
    d: usize,
    width: usize,
) {
    let base = hd * d;
    for r in 0..seq {
        let row = (t * seq + r) * width + base;
        out.as_mut_slice()[row..row + d].copy_from_slice(&block.as_slice()[r * d..(r + 1) * d]);
    }
}

/// Scaled-dot-product attention over one worker's local heads: consumes
/// the worker's `[batch·seq, local_heads·d]` query/key/value shards and
/// returns the context plus the softmax probabilities for the backward
/// pass: one `[seq, seq]` block per `(batch, head)`, stacked in one
/// `[batch·local_heads·seq, seq]` tensor.
pub fn attn_context_forward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    batch: usize,
    seq: usize,
    local_heads: usize,
    d: usize,
) -> (Tensor, Tensor) {
    workspace::with_thread_default(|ws| {
        attn_context_forward_ws(q, k, v, batch, seq, local_heads, d, ws)
    })
}

/// [`attn_context_forward`] with caller-provided scratch: head blocks are
/// leased from `ws` and recycled per head; the scores GEMM (the softmax
/// scale in its epilogue) writes straight into the head's block of the
/// leased probabilities tensor, and the softmax runs on it in place.
#[allow(clippy::too_many_arguments)]
pub fn attn_context_forward_ws(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    batch: usize,
    seq: usize,
    local_heads: usize,
    d: usize,
    ws: &mut Workspace,
) -> (Tensor, Tensor) {
    let hw = local_heads * d;
    let scale = 1.0 / (d as f32).sqrt();
    let sc_plan = graphs::attn_scores(ws, seq, d, scale);
    let cx_plan = graphs::attn_context(ws, seq, d);
    let mut ctx = ws.lease_tensor([batch * seq, hw]);
    let mut probs = ws.lease_tensor([batch * local_heads * seq, seq]);
    for t in 0..batch {
        for hd in 0..local_heads {
            let qb = head_block_ws(q, t, hd, seq, d, hw, ws);
            let kb = head_block_ws(k, t, hd, seq, d, hw, ws);
            let vb = head_block_ws(v, t, hd, seq, d, hw, ws);
            let p = &mut probs.as_mut_slice()[(t * local_heads + hd) * seq * seq..][..seq * seq];
            sc_plan.run(&[qb.as_slice(), kb.as_slice()], vec![OutBind::Write(p)], ws);
            ops::softmax_rows_in_place(p, seq);
            let mut cres = cx_plan.run(&[p, vb.as_slice()], vec![OutBind::Lease], ws);
            let c = Tensor::from_vec(cres[0].take().expect("leased context"), [seq, d]);
            write_head_block(&mut ctx, &c, t, hd, seq, d, hw);
            for tmp in [qb, kb, vb, c] {
                ws.recycle_tensor(tmp);
            }
        }
    }
    (ctx, probs)
}

/// Backward of [`attn_context_forward`]: returns the `(dq, dk, dv)` shard
/// gradients from the context gradient `dctx` and the cached
/// probabilities.
#[allow(clippy::too_many_arguments)]
pub fn attn_context_backward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    probs: &Tensor,
    dctx: &Tensor,
    batch: usize,
    seq: usize,
    local_heads: usize,
    d: usize,
) -> (Tensor, Tensor, Tensor) {
    workspace::with_thread_default(|ws| {
        attn_context_backward_ws(q, k, v, probs, dctx, batch, seq, local_heads, d, ws)
    })
}

/// [`attn_context_backward`] with caller-provided scratch.
#[allow(clippy::too_many_arguments)]
pub fn attn_context_backward_ws(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    probs: &Tensor,
    dctx: &Tensor,
    batch: usize,
    seq: usize,
    local_heads: usize,
    d: usize,
    ws: &mut Workspace,
) -> (Tensor, Tensor, Tensor) {
    let hw = local_heads * d;
    let scale = 1.0 / (d as f32).sqrt();
    let mut dq = ws.lease_tensor([batch * seq, hw]);
    let mut dk = ws.lease_tensor([batch * seq, hw]);
    let mut dv = ws.lease_tensor([batch * seq, hw]);
    // Two plans, looked up once and run per (batch, head).
    let ctx_bwd = graphs::attn_context_backward(ws, seq, d);
    let score_bwd = graphs::attn_scores_backward(ws, seq, d, scale);
    for t in 0..batch {
        for hd in 0..local_heads {
            let p = &probs.as_slice()[(t * local_heads + hd) * seq * seq..][..seq * seq];
            let qb = head_block_ws(q, t, hd, seq, d, hw, ws);
            let kb = head_block_ws(k, t, hd, seq, d, hw, ws);
            let vb = head_block_ws(v, t, hd, seq, d, hw, ws);
            let dc = head_block_ws(dctx, t, hd, seq, d, hw, ws);

            let mut cres = ctx_bwd.run(
                &[dc.as_slice(), vb.as_slice(), p],
                vec![OutBind::Lease, OutBind::Lease],
                ws,
            );
            // dp becomes ds in its own leased buffer.
            let mut ds = Tensor::from_vec(cres[0].take().expect("leased dp"), [seq, seq]);
            let dvb = Tensor::from_vec(cres[1].take().expect("leased dvb"), [seq, d]);
            ops::softmax_rows_backward_in_place(p, ds.as_mut_slice(), seq);
            let mut sres = score_bwd.run(
                &[ds.as_slice(), kb.as_slice(), qb.as_slice()],
                vec![OutBind::Lease, OutBind::Lease],
                ws,
            );
            let dqb = Tensor::from_vec(sres[0].take().expect("leased dqb"), [seq, d]);
            let dkb = Tensor::from_vec(sres[1].take().expect("leased dkb"), [seq, d]);

            write_head_block(&mut dq, &dqb, t, hd, seq, d, hw);
            write_head_block(&mut dk, &dkb, t, hd, seq, d, hw);
            write_head_block(&mut dv, &dvb, t, hd, seq, d, hw);
            for tmp in [qb, kb, vb, dc, dvb, ds, dqb, dkb] {
                ws.recycle_tensor(tmp);
            }
        }
    }
    (dq, dk, dv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn column_shards_concat_to_full_output() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let w = init::randn(&mut rng, [4, 6], 1.0);
        let b = init::randn(&mut rng, [6], 1.0);
        let x = init::randn(&mut rng, [3, 4], 1.0);
        let full = x.matmul(&w).add_row_broadcast(&b);
        let shards = ColumnShard::split(&w, &b, 2);
        let outs: Vec<Tensor> = shards.iter().map(|s| s.forward(&x)).collect();
        let refs: Vec<&Tensor> = outs.iter().collect();
        assert!(Tensor::concat_cols(&refs).max_abs_diff(&full) < 1e-6);
    }

    #[test]
    fn row_shard_partials_sum_to_full_product() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let w = init::randn(&mut rng, [6, 4], 1.0);
        let x = init::randn(&mut rng, [3, 6], 1.0);
        let full = x.matmul(&w);
        let shards = RowShard::split(&w, 2);
        let xs = x.split_cols(2);
        let mut sum = shards[0].partial(&xs[0]);
        sum.add_assign(&shards[1].partial(&xs[1]));
        assert!(sum.max_abs_diff(&full) < 1e-5);
    }

    #[test]
    fn attn_context_round_trips_through_backward_shapes() {
        let (batch, seq, lh, d) = (2, 3, 2, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let q = init::randn(&mut rng, [batch * seq, lh * d], 1.0);
        let k = init::randn(&mut rng, [batch * seq, lh * d], 1.0);
        let v = init::randn(&mut rng, [batch * seq, lh * d], 1.0);
        let (ctx, probs) = attn_context_forward(&q, &k, &v, batch, seq, lh, d);
        assert_eq!(ctx.dims(), &[batch * seq, lh * d]);
        assert_eq!(probs.dims(), &[batch * lh * seq, seq]);
        let dctx = init::randn(&mut rng, [batch * seq, lh * d], 1.0);
        let (dq, dk, dv) = attn_context_backward(&q, &k, &v, &probs, &dctx, batch, seq, lh, d);
        assert_eq!(dq.dims(), q.dims());
        assert_eq!(dk.dims(), k.dims());
        assert_eq!(dv.dims(), v.dims());
    }
}
