//! The tensor-parallel (Megatron-style) encoder block, written once for
//! both executors.
//!
//! A [`Block`] owns a contiguous range of a layer's TP shards — the
//! Q/K/V and MLP-expansion column shards, the `wo`/`fc2` row shards —
//! plus the replicated row biases and layer norms. The serial
//! [`crate::MpBert`] builds one over every shard; a runtime rank builds
//! one over its own. The two differ only in the [`Reduce`] they pass,
//! which is called at exactly Megatron's four summation points, one
//! activation (`n`) each:
//!
//! | pass | sum | operator | size |
//! |---|---|---|---|
//! | forward | attention output ([`Reduce::sum`]) | `g`, compressed | `n` |
//! | forward | MLP output ([`Reduce::sum`]) | `g`, compressed | `n` |
//! | backward | MLP input gradient ([`Reduce::dense_sum`]) | `f` | `n` |
//! | backward | QKV input gradient ([`Reduce::dense_sum`]) | `f` | `n` |
//!
//! The two forward sums are where the paper inserts compression (its
//! Figure 3's `C`/`DC` pairs); [`Reduce::sum_backward`] runs the
//! compressors' backward on what their forward saw and sent ([`Sent`]),
//! which the block keeps in its micro-batch cache with its other
//! activations. Every sum left dense is
//! [`wire_sum`](crate::wire_sum), the bfloat16 fold both executors
//! share. Everything between the sums is the block's own arithmetic, so
//! the executors agree bit for bit by construction, and the serial one
//! is the `actcomp_nn` layer up to the rounding of its sums. The QKV backward
//! sum is `n`, not `3n`, because each shard folds its dQ/dK/dV input
//! gradients first ([`qkv_backward`]).

use crate::error::ShardError;
use crate::shard::{qkv_backward, qkv_forward, ColumnShard, RowShard};
use actcomp_compress::Compressed;
use actcomp_nn::graphs::{self, LnInput};
use actcomp_nn::{
    EncoderLayer, FeedForward, Layer, LayerNorm, Linear, LnCache, MultiHeadAttention, Parameter,
};
use actcomp_tensor::attention::Heads;
use actcomp_tensor::{Tensor, Workspace};
use std::ops::Range;

/// Megatron's two row-parallel sums in a layer, in forward order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumPoint {
    /// After the attention output projection `wo`.
    Attention,
    /// After the MLP contraction `fc2`.
    Mlp,
}

impl SumPoint {
    /// Both sums, in forward order.
    pub const ALL: [SumPoint; 2] = [SumPoint::Attention, SumPoint::Mlp];
}

/// What one shard's codec saw and sent at a compressed sum: the partial
/// it compressed and its code, which the codec's backward reads. A
/// compressed sum returns one per shard the block holds, a dense sum
/// none.
pub type Sent = (Tensor, Compressed);

/// How an executor sums a [`Block`]'s partials across the layer's
/// workers — the one thing the serial executor and a rank do
/// differently. Tensors handed in or out per shard are one per shard the
/// block holds, in shard order; `ws` is the block's scratch.
pub trait Reduce {
    /// Runs a stretch of the block's own arithmetic, charged to this
    /// executor's compute time.
    fn compute<T>(&mut self, f: impl FnOnce() -> T) -> T;
    /// `g`: the (compressed) sum over every worker of the partials at
    /// `at`, this block's given per shard (drained, so the block reuses
    /// the list), and what the sum's backward will need.
    fn sum(
        &mut self,
        at: SumPoint,
        partials: &mut Vec<Tensor>,
        ws: &mut Workspace,
    ) -> (Tensor, Vec<Sent>);
    /// `g`'s backward: from the gradient of the sum at `at` and what
    /// its forward [sent](Sent), the gradient of each of this block's
    /// partials.
    fn sum_backward(&mut self, at: SumPoint, dy: &Tensor, sent: &[Sent]) -> Vec<Tensor>;
    /// `f`'s backward: the dense sum over every worker of its input
    /// gradient, this block's given per shard.
    fn dense_sum(&mut self, parts: Vec<Tensor>, ws: &mut Workspace) -> Tensor;
}

/// A block's parameter groups, in visit order.
#[derive(Debug, Clone, Copy)]
enum Group {
    Q,
    K,
    V,
    Wo,
    WoBias,
    Ln1,
    Fc1,
    Fc2,
    Fc2Bias,
    Ln2,
}

/// The parameter-group table: each group in [`Block::visit_params`]
/// order, whether it is sharded (visited once per shard) or replicated
/// (once per block), and how many tensors it visits each time.
/// Checkpoints, the grad hashes and [`interleave`] all follow it.
const GROUPS: [(Group, bool, usize); 10] = [
    (Group::Q, true, 2),
    (Group::K, true, 2),
    (Group::V, true, 2),
    (Group::Wo, true, 1),
    (Group::WoBias, false, 1),
    (Group::Ln1, false, 2),
    (Group::Fc1, true, 2),
    (Group::Fc2, true, 1),
    (Group::Fc2Bias, false, 1),
    (Group::Ln2, false, 2),
];

/// Interleaves the parameter visit lists of single-shard blocks — one
/// per shard of a layer, in shard order — into the visit list of one
/// block over all of them: sharded groups from every list, replicated
/// ones from the first. Gathered rank gradients become the serial
/// executor's this way.
pub fn interleave<'a>(lists: &[&'a [Tensor]]) -> Vec<&'a Tensor> {
    let mut out = Vec::new();
    let mut at = 0;
    for (_, sharded, len) in GROUPS {
        let from = if sharded { lists } else { &lists[..1] };
        out.extend(from.iter().flat_map(|list| &list[at..at + len]));
        at += len;
    }
    out
}

/// One worker's slice of every sharded projection of a layer, and its
/// part of each cached micro-batch: stacks in step with the block's, kept
/// here so a warm forward pushes onto lists that already have room.
#[derive(Debug)]
struct Shard {
    qkv: [ColumnShard; 3],
    wo: RowShard,
    fc1: ColumnShard,
    fc2: RowShard,
    /// Per micro-batch: Q, K and V, the softmax probabilities, the
    /// context.
    attn: Vec<([Tensor; 3], Tensor, Tensor)>,
    /// Per micro-batch: the MLP pre-activation and activation.
    mlp: Vec<(Tensor, Tensor)>,
}

impl Shard {
    fn visit(&mut self, group: Group, f: &mut dyn FnMut(&mut Parameter)) {
        match group {
            Group::Q => self.qkv[0].visit_params(f),
            Group::K => self.qkv[1].visit_params(f),
            Group::V => self.qkv[2].visit_params(f),
            Group::Wo => self.wo.visit_params(f),
            Group::Fc1 => self.fc1.visit_params(f),
            Group::Fc2 => self.fc2.visit_params(f),
            _ => unreachable!("{group:?} is replicated"),
        }
    }
}

/// What a micro-batch's backward needs beyond its shards' own caches.
#[derive(Debug)]
struct Cache {
    x: Tensor,
    h1: Tensor,
    ln: [LnCache; 2],
    at: Heads,
    /// What the attention and the MLP sum sent.
    sent: [Vec<Sent>; 2],
}

/// A contiguous range of one encoder layer's tensor-parallel shards,
/// with the replicated row biases and layer norms and a last-in,
/// first-out micro-batch cache (the GPipe fill/drain order).
#[derive(Debug)]
pub struct Block {
    shards: Vec<Shard>,
    wo_bias: Parameter,
    ln1: LayerNorm,
    fc2_bias: Parameter,
    ln2: LayerNorm,
    world: usize,
    local_heads: usize,
    head_dim: usize,
    caches: Vec<Cache>,
    /// The partials of the sum in flight, one per shard; empty between
    /// sums.
    partials: Vec<Tensor>,
}

impl Block {
    /// Shards `shards` of a serial encoder layer split across `world`
    /// workers.
    ///
    /// # Errors
    ///
    /// [`ShardError::HeadsNotDivisible`] unless `world` divides the head
    /// count; [`ShardError::ShardsOutOfRange`] unless `shards` is a
    /// non-empty part of `0..world`.
    ///
    /// # Panics
    ///
    /// Panics unless `world` divides the MLP width.
    pub fn new(
        layer: &EncoderLayer,
        world: usize,
        shards: Range<usize>,
    ) -> Result<Block, ShardError> {
        let (attn, ff) = (&layer.attn, &layer.ff);
        let heads = attn.heads();
        if world == 0 || !heads.is_multiple_of(world) {
            return Err(ShardError::HeadsNotDivisible { heads, world });
        }
        if shards.is_empty() || shards.end > world {
            let (start, end) = (shards.start, shards.end);
            return Err(ShardError::ShardsOutOfRange { start, end, world });
        }
        let shards = shards
            .map(|i| Shard {
                qkv: [&attn.wq, &attn.wk, &attn.wv].map(|l| ColumnShard::of(l, world, i)),
                wo: RowShard::of(&attn.wo.weight.value, world, i),
                fc1: ColumnShard::of(&ff.fc1, world, i),
                fc2: RowShard::of(&ff.fc2.weight.value, world, i),
                attn: Vec::new(),
                mlp: Vec::new(),
            })
            .collect();
        Ok(Block {
            shards,
            wo_bias: Parameter::new(attn.wo.bias.value.clone()),
            ln1: layer.ln1.clone(),
            fc2_bias: Parameter::new(ff.fc2.bias.value.clone()),
            ln2: layer.ln2.clone(),
            world,
            local_heads: heads / world,
            head_dim: attn.head_dim(),
            caches: Vec::new(),
            partials: Vec::new(),
        })
    }

    /// Forward for one micro-batch over `[batch·seq, hidden]`. Once the
    /// block has run a micro-batch of this shape and its caches have been
    /// consumed or cleared, a forward allocates nothing of its own: every
    /// buffer comes from `ws` and every list it pushes has room.
    pub fn forward(
        &mut self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        r: &mut impl Reduce,
        ws: &mut Workspace,
    ) -> Tensor {
        let at = Heads {
            batch,
            heads: self.local_heads,
            seq,
            d: self.head_dim,
        };
        r.compute(|| {
            for s in &mut self.shards {
                let qkv = qkv_forward(s.qkv.each_ref(), x, ws);
                let (ctx, probs) = graphs::attention_forward(ws, qkv.each_ref(), at);
                self.partials.push(s.wo.partial(&ctx, ws));
                s.attn.push((qkv, probs, ctx));
            }
        });
        let (s, attn_sent) = r.sum(SumPoint::Attention, &mut self.partials, ws);
        let (h1, ln1) = r.compute(|| {
            let (h1, ln1) =
                self.ln1
                    .forward_cached(LnInput::BiasResidual, &[&s, &self.wo_bias.value, x], ws);
            for s in &mut self.shards {
                let (act, h) = s.fc1.mlp_up(&h1, ws);
                self.partials.push(s.fc2.partial(&act, ws));
                s.mlp.push((h, act));
            }
            ws.recycle_tensor(s);
            (h1, ln1)
        });
        let (s, mlp_sent) = r.sum(SumPoint::Mlp, &mut self.partials, ws);
        r.compute(|| {
            let (y, ln2) = self.ln2.forward_cached(
                LnInput::BiasResidual,
                &[&s, &self.fc2_bias.value, &h1],
                ws,
            );
            ws.recycle_tensor(s);
            self.caches.push(Cache {
                x: ws.lease_copy(x),
                h1,
                ln: [ln1, ln2],
                at,
                sent: [attn_sent, mlp_sent],
            });
            y
        })
    }

    /// Backward for the most recent un-backwarded micro-batch; returns
    /// the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if no forward is cached.
    pub fn backward(&mut self, dy: &Tensor, r: &mut impl Reduce, ws: &mut Workspace) -> Tensor {
        let Cache {
            x,
            h1,
            ln: [ln1, ln2],
            at,
            sent: [attn_sent, mlp_sent],
        } = self.caches.pop().expect("Block::backward without forward");
        let d2 = r.compute(|| {
            self.ln2
                .backward_cached(dy, None, ln2, Some(&mut self.fc2_bias), ws)
        });
        let dps = r.sum_backward(SumPoint::Mlp, &d2, &mlp_sent);
        let parts = r.compute(|| {
            let parts = (self.shards.iter_mut().zip(&dps))
                .map(|(s, dp)| {
                    let (h, act) = s.mlp.pop().expect("the shard cached this micro-batch");
                    let dh = s.fc2.backward_gelu(&act, dp, &h, ws);
                    let part = s.fc1.backward(&h1, &dh, ws);
                    for t in [dh, act, h] {
                        ws.recycle_tensor(t);
                    }
                    part
                })
                .collect();
            let sent = mlp_sent.into_iter().map(|(partial, _)| partial);
            sent.chain([h1]).for_each(|t| ws.recycle_tensor(t));
            parts
        });
        let df = r.dense_sum(parts, ws);
        let d1 = r.compute(|| {
            let d1 = self
                .ln1
                .backward_cached(&d2, Some(&df), ln1, Some(&mut self.wo_bias), ws);
            ws.recycle_tensor(d2);
            ws.recycle_tensor(df);
            d1
        });
        let dps = r.sum_backward(SumPoint::Attention, &d1, &attn_sent);
        let parts = r.compute(|| {
            let parts = (self.shards.iter_mut().zip(&dps))
                .map(|(s, dp)| {
                    let (qkv, probs, ctx) =
                        s.attn.pop().expect("the shard cached this micro-batch");
                    let dctx = s.wo.backward(&ctx, dp, ws);
                    let grads = graphs::attention_backward(ws, qkv.each_ref(), &probs, &dctx, at);
                    let part = qkv_backward(s.qkv.each_mut(), &x, grads.each_ref(), ws);
                    let rest = [probs, ctx].into_iter().chain(qkv);
                    for t in [dctx].into_iter().chain(grads).chain(rest) {
                        ws.recycle_tensor(t);
                    }
                    part
                })
                .collect();
            let sent = attn_sent.into_iter().map(|(partial, _)| partial);
            sent.chain([x]).for_each(|t| ws.recycle_tensor(t));
            parts
        });
        // The residual branch's gradient lands on the sum in place.
        let mut dx = r.dense_sum(parts, ws);
        r.compute(|| {
            dx.add_assign(&d1);
            ws.recycle_tensor(d1);
        });
        dx
    }

    /// Drops every cached forward without running backward — the
    /// forward-only serving path's per-batch cleanup — recycling the
    /// buffers into `ws`. The codecs' saved partials and codes go with
    /// it: a codec keeps nothing per call.
    pub fn clear_caches(&mut self, ws: &mut Workspace) {
        for c in self.caches.drain(..) {
            let ln = (c.ln.into_iter()).flat_map(|ln| <[Tensor; 2]>::from(ln.into_parts()));
            let sent = c.sent.into_iter().flatten().map(|(partial, _)| partial);
            for t in [c.x, c.h1].into_iter().chain(ln).chain(sent) {
                ws.recycle_tensor(t);
            }
        }
        for s in &mut self.shards {
            let attn = (s.attn.drain(..)).flat_map(|(qkv, p, ctx)| qkv.into_iter().chain([p, ctx]));
            let mlp = s.mlp.drain(..).flat_map(|(h, act)| [h, act]);
            for t in attn.chain(mlp) {
                ws.recycle_tensor(t);
            }
        }
    }

    /// Visits the block's parameters in the order of its parameter-group
    /// table, the order [`interleave`] assumes.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for (group, sharded, _) in GROUPS {
            match group {
                _ if sharded => self.shards.iter_mut().for_each(|s| s.visit(group, f)),
                Group::WoBias => f(&mut self.wo_bias),
                Group::Ln1 => self.ln1.visit_params(f),
                Group::Fc2Bias => f(&mut self.fc2_bias),
                _ => self.ln2.visit_params(f),
            }
        }
    }

    /// Reassembles the serial encoder layer. Compressors are not part of
    /// a block: the paper's §4.4 drops the auto-encoder after
    /// pre-training.
    ///
    /// # Panics
    ///
    /// Panics unless the block holds every shard.
    pub fn to_serial(&self) -> EncoderLayer {
        assert_eq!(self.shards.len(), self.world, "to_serial needs every shard");
        let cols = |pick: fn(&Shard) -> &ColumnShard| {
            let part = |t: fn(&ColumnShard) -> &Parameter| -> Vec<&Tensor> {
                self.shards.iter().map(|s| &t(pick(s)).value).collect()
            };
            let (weights, biases) = (part(|c| &c.weight), part(|c| &c.bias));
            Linear::from_parts(Tensor::concat_cols(&weights), Tensor::concat_rows(&biases))
        };
        let rows = |pick: fn(&Shard) -> &RowShard, bias: &Parameter| {
            let weights: Vec<&Tensor> = self.shards.iter().map(|s| &pick(s).weight.value).collect();
            Linear::from_parts(Tensor::concat_rows(&weights), bias.value.clone())
        };
        let attn = MultiHeadAttention::from_parts(
            cols(|s| &s.qkv[0]),
            cols(|s| &s.qkv[1]),
            cols(|s| &s.qkv[2]),
            rows(|s| &s.wo, &self.wo_bias),
            self.local_heads * self.world,
        );
        let ff = FeedForward::from_parts(cols(|s| &s.fc1), rows(|s| &s.fc2, &self.fc2_bias));
        EncoderLayer::from_parts(attn, self.ln1.clone(), ff, self.ln2.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::InProcess;
    use actcomp_compress::{Compressor, Identity};
    use actcomp_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sums(world: usize, comp: impl Fn() -> Box<dyn Compressor>) -> InProcess {
        let workers = || (0..world).map(|_| comp()).collect();
        InProcess::new(workers(), workers())
    }

    fn identity(world: usize) -> InProcess {
        sums(world, || Box::new(Identity::new()))
    }

    /// The largest gap between a tensor-parallel result and the unsharded
    /// layer's that `rounds` rounded partial sums explain: bfloat16 keeps
    /// 8 significant bits, so each rounding moves an element by at most
    /// 2⁻⁸ of its size, and the layer norm after a sum keeps the result
    /// on the output's scale.
    fn bf16_bound(rounds: usize, want: &Tensor) -> f32 {
        rounds as f32 * 2f32.powi(-8) * want.abs_max()
    }

    fn serial_layer(seed: u64) -> EncoderLayer {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        EncoderLayer::new(&mut rng, 8, 4, 16)
    }

    fn full(layer: &EncoderLayer, world: usize) -> Block {
        Block::new(layer, world, 0..world).expect("world divides the heads")
    }

    #[test]
    fn tp_forward_matches_serial_with_identity() {
        for world in [1, 2, 4] {
            let mut serial = serial_layer(0);
            let mut tp = full(&serial, world);
            let mut sums = InProcess::dense(world);
            let ws = &mut Workspace::new();
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let x = init::randn(&mut rng, [6, 8], 1.0); // batch 3, seq 2
            let want = serial.forward(&x, 3, 2);
            let got = tp.forward(&x, 3, 2, &mut sums.ring(), ws);
            // Two sums of `world` parts, each part's sum rounded once.
            let (diff, bound) = (got.max_abs_diff(&want), bf16_bound(2 * world, &want));
            assert!(diff <= bound, "world {world}: diff {diff} > {bound}");
            if world > 1 {
                assert!(sums.bytes().dense > 0);
            }
        }
    }

    #[test]
    fn tp_backward_matches_serial_with_identity() {
        let mut serial = serial_layer(2);
        let world = 2;
        let mut tp = full(&serial, world);
        let mut sums = InProcess::dense(world);
        let ws = &mut Workspace::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let x = init::randn(&mut rng, [4, 8], 1.0); // batch 2, seq 2
        let dy = init::randn(&mut rng, [4, 8], 1.0);

        let _ = serial.forward(&x, 2, 2);
        let dx_serial = serial.backward(&dy);
        let _ = tp.forward(&x, 2, 2, &mut sums.ring(), ws);
        let dx_tp = tp.backward(&dy, &mut sums.ring(), ws);
        // Four sums, forward and backward, of `world` parts each.
        let (diff, bound) = (
            dx_tp.max_abs_diff(&dx_serial),
            bf16_bound(4 * world, &dx_serial),
        );
        assert!(diff <= bound, "dx diff {diff} > {bound}");

        // Parameter gradients: the shards' grads concatenated must equal
        // the serial layer's. Check total gradient mass as a strong proxy.
        let mut serial_mass = 0.0f32;
        serial.visit_params(&mut |p| serial_mass += p.grad.sq_norm());
        let mut tp_mass = 0.0f32;
        tp.visit_params(&mut |p| tp_mass += p.grad.sq_norm());
        assert!(
            (serial_mass - tp_mass).abs() / serial_mass < 1e-3,
            "grad mass {serial_mass} vs {tp_mass}"
        );
    }

    #[test]
    fn param_count_preserved_by_sharding() {
        let mut serial = serial_layer(4);
        let mut count_serial = 0;
        serial.visit_params(&mut |p| count_serial += p.len());
        let mut count_tp = 0;
        full(&serial, 2).visit_params(&mut |p| count_tp += p.len());
        assert_eq!(count_serial, count_tp);
    }

    #[test]
    fn single_shard_visit_lists_interleave_to_the_full_blocks() {
        let serial = serial_layer(9);
        let world = 4;
        let values = |b: &mut Block| {
            let mut v = Vec::new();
            b.visit_params(&mut |p| v.push(p.value.clone()));
            v
        };
        let want = values(&mut full(&serial, world));
        let per_shard: Vec<Vec<Tensor>> = (0..world)
            .map(|i| values(&mut Block::new(&serial, world, i..i + 1).expect("valid shard")))
            .collect();
        let lists: Vec<&[Tensor]> = per_shard.iter().map(Vec::as_slice).collect();
        let got = interleave(&lists);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.into_iter().zip(&want) {
            assert_eq!(g, w);
        }
        let per_block: usize = GROUPS.iter().map(|&(_, _, len)| len).sum();
        assert_eq!(per_shard[0].len(), per_block, "the table counts a visit");
    }

    #[test]
    fn compressed_reduce_changes_output_boundedly() {
        use actcomp_compress::Quantizer;
        let serial = serial_layer(5);
        let world = 2;
        let mut tp_exact = full(&serial, world);
        let mut tp_q = full(&serial, world);
        let mut exact = identity(world);
        let mut quant = sums(world, || Box::new(Quantizer::new(8)));
        let ws = &mut Workspace::new();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let x = init::randn(&mut rng, [4, 8], 1.0);
        let y_exact = tp_exact.forward(&x, 2, 2, &mut exact.ring(), ws);
        let y_q = tp_q.forward(&x, 2, 2, &mut quant.ring(), ws);
        let diff = y_q.max_abs_diff(&y_exact);
        assert!(diff > 0.0, "8-bit quantization should perturb the output");
        assert!(diff < 0.5, "8-bit quantization error too large: {diff}");
        assert!(
            quant.bytes().ratio() > 1.5,
            "ratio {}",
            quant.bytes().ratio()
        );
    }

    #[test]
    fn tp_gradients_match_finite_difference_through_compression() {
        // Gradcheck the full TP layer with an AE compressor in the loop.
        use actcomp_compress::AutoEncoder;
        let serial = serial_layer(7);
        let world = 2;
        let ae = |seed: u64| {
            (0..world)
                .map(|_| {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    Box::new(AutoEncoder::new(&mut rng, 8, 3)) as Box<dyn Compressor>
                })
                .collect()
        };
        let mut tp = full(&serial, world);
        let mut sums = InProcess::new(ae(10), ae(11));
        let ws = &mut Workspace::new();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let x = init::randn(&mut rng, [2, 8], 0.5); // batch 1, seq 2
        let dy = init::randn(&mut rng, [2, 8], 1.0);

        let _ = tp.forward(&x, 1, 2, &mut sums.ring(), ws);
        let dx = tp.backward(&dy, &mut sums.ring(), ws);

        let eps = 1e-2;
        let mut loss = |x: &Tensor| {
            let l = tp.forward(x, 1, 2, &mut sums.ring(), ws).mul(&dy).sum();
            let _ = tp.backward(&Tensor::zeros_like(&dy), &mut sums.ring(), ws);
            l
        };
        for j in 0..x.len() {
            let mut xp = x.clone();
            xp[j] += eps;
            let mut xm = x.clone();
            xm[j] -= eps;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            let denom = 1.0f32.max(dx[j].abs()).max(fd.abs());
            assert!(
                (dx[j] - fd).abs() / denom < 5e-2,
                "dx[{j}] {} vs fd {fd}",
                dx[j]
            );
        }
    }
}
