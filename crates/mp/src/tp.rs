//! Tensor-parallel (Megatron-style) transformer sublayers with real
//! sharded arithmetic and compressed all-reduces.
//!
//! Each simulated worker owns a column shard of the attention QKV / MLP
//! expansion weights and a row shard of the output projections. The two
//! row-parallel projections per layer are where Megatron all-reduces
//! partial activations — and where the paper inserts compression (its
//! Figure 3's `C`/`DC` pairs). With the identity compressor the sharded
//! layer is numerically equivalent to the serial `actcomp_nn` layer
//! (verified by tests), so any accuracy change is attributable to the
//! compressor alone.
//!
//! Per layer that is Megatron's traffic, one activation (`n`) per reduce:
//!
//! | pass | reduce | size |
//! |---|---|---|
//! | forward | attention output (`g`, compressed) | `n` |
//! | forward | MLP output (`g`, compressed) | `n` |
//! | backward | MLP input gradient (`f`) | `n` |
//! | backward | QKV input gradient (`f`) | `n` |
//!
//! The backward sums run over workers in rank order. For Q/K/V each
//! worker first folds its three input gradients into one tensor
//! ([`qkv_backward_ws`]) and only those are summed — the operands the
//! threaded runtime's ranks hand their ring, produced by the same
//! function, which is why the two executors agree bit for bit.

use crate::error::ShardError;
use crate::reduce::{rank_order_sum, CommBytes, CompressedAllReduce};
use crate::shard::{
    attn_context_backward, attn_context_forward, qkv_backward_ws, ColumnShard, RowShard,
};
use actcomp_nn::{EncoderLayer, Layer, LayerNorm, Parameter};
use actcomp_tensor::{workspace, Tensor};

/// Column-parallel linear: full input, per-worker output shards. The
/// input is replicated, so the block that owns the projection caches it
/// (once, however many projections share it).
#[derive(Debug)]
struct ColumnShards {
    /// One [`ColumnShard`] per worker.
    shards: Vec<ColumnShard>,
}

impl ColumnShards {
    fn from_full(weight: &Tensor, bias: &Tensor, world: usize) -> Self {
        ColumnShards {
            shards: ColumnShard::split(weight, bias, world),
        }
    }

    fn forward(&self, x: &Tensor) -> Vec<Tensor> {
        self.shards.iter().map(|s| s.forward(x)).collect()
    }

    /// Returns the input gradient summed over workers in rank order.
    fn backward(&mut self, x: &Tensor, douts: &[Tensor]) -> Tensor {
        rank_order_sum(self.shards.iter_mut().zip(douts).map(|(shard, dout)| {
            workspace::with_thread_default(|ws| shard.backward_ws(x, dout, ws))
        }))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for shard in &mut self.shards {
            shard.visit_params(f);
        }
    }

    /// Reassembles the full (weight, bias) pair from the shards.
    fn to_full(&self) -> (Tensor, Tensor) {
        let ws: Vec<&Tensor> = self.shards.iter().map(|s| &s.weight.value).collect();
        let weight = Tensor::concat_cols(&ws);
        let mut bias = Vec::new();
        for s in &self.shards {
            bias.extend_from_slice(s.bias.value.as_slice());
        }
        let blen = bias.len();
        (weight, Tensor::from_vec(bias, [blen]))
    }
}

/// Row-parallel linear: per-worker input shards, partial outputs reduced
/// through a (possibly compressing) all-reduce; single shared bias added
/// after the reduce.
#[derive(Debug)]
struct RowShards {
    /// One [`RowShard`] per worker.
    shards: Vec<RowShard>,
    /// Shared `[out]` bias.
    bias: Parameter,
    reduce: CompressedAllReduce,
    cache_inputs: Option<Vec<Tensor>>,
}

impl RowShards {
    fn from_full(weight: &Tensor, bias: &Tensor, reduce: CompressedAllReduce) -> Self {
        let world = reduce.world();
        RowShards {
            shards: RowShard::split(weight, world),
            bias: Parameter::new(bias.clone()),
            reduce,
            cache_inputs: None,
        }
    }

    /// `inputs[i]` is worker `i`'s `[n, in/world]` shard.
    fn forward(&mut self, inputs: Vec<Tensor>) -> (Tensor, CommBytes) {
        let partials: Vec<Tensor> = inputs
            .iter()
            .zip(&self.shards)
            .map(|(x, s)| s.partial(x))
            .collect();
        let (sum, bytes) = self.reduce.forward(&partials);
        let y = sum.add_row_broadcast(&self.bias.value);
        self.cache_inputs = Some(inputs);
        (y, bytes)
    }

    /// Returns per-worker input-shard gradients.
    fn backward(&mut self, dy: &Tensor) -> Vec<Tensor> {
        let inputs = self
            .cache_inputs
            .take()
            .expect("RowShards::backward without forward");
        self.bias.grad.add_assign(&dy.sum_axis0());
        let dpartials = self.reduce.backward(dy);
        inputs
            .iter()
            .zip(&mut self.shards)
            .zip(&dpartials)
            .map(|((x, s), dp)| s.backward(x, dp))
            .collect()
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for s in &mut self.shards {
            s.visit_params(f);
        }
        f(&mut self.bias);
    }

    /// Reassembles the full (weight, bias) pair from the shards.
    fn to_full(&self) -> (Tensor, Tensor) {
        let ws: Vec<&Tensor> = self.shards.iter().map(|s| &s.weight.value).collect();
        (Tensor::concat_rows(&ws), self.bias.value.clone())
    }
}

/// Tensor-parallel multi-head self-attention (heads sharded across
/// workers, Megatron's column-then-row split).
#[derive(Debug)]
pub struct TpAttention {
    wq: ColumnShards,
    wk: ColumnShards,
    wv: ColumnShards,
    wo: RowShards,
    heads: usize,
    world: usize,
    hidden: usize,
    cache: Option<TpAttnCache>,
}

#[derive(Debug)]
struct TpAttnCache {
    /// The layer input, shared by the three projections.
    x: Tensor,
    q: Vec<Tensor>,
    k: Vec<Tensor>,
    v: Vec<Tensor>,
    /// Softmax probabilities per (worker, batch·local_head).
    probs: Vec<Tensor>,
    batch: usize,
    seq: usize,
}

impl TpAttention {
    /// Shards a serial attention layer across `world` workers.
    ///
    /// # Panics
    ///
    /// Panics unless `world` divides the head count.
    pub fn from_serial(
        attn: &actcomp_nn::MultiHeadAttention,
        world: usize,
        reduce: CompressedAllReduce,
    ) -> Self {
        match Self::try_from_serial(attn, world, reduce) {
            Ok(tp) => tp,
            Err(e) => panic!("{e}"),
        }
    }

    /// Typed variant of [`TpAttention::from_serial`].
    pub fn try_from_serial(
        attn: &actcomp_nn::MultiHeadAttention,
        world: usize,
        reduce: CompressedAllReduce,
    ) -> Result<Self, ShardError> {
        if reduce.world() != world {
            return Err(ShardError::ReduceWorldMismatch {
                reduce_world: reduce.world(),
                world,
            });
        }
        if world == 0 || !attn.heads().is_multiple_of(world) {
            return Err(ShardError::HeadsNotDivisible {
                heads: attn.heads(),
                world,
            });
        }
        Ok(TpAttention {
            wq: ColumnShards::from_full(&attn.wq.weight.value, &attn.wq.bias.value, world),
            wk: ColumnShards::from_full(&attn.wk.weight.value, &attn.wk.bias.value, world),
            wv: ColumnShards::from_full(&attn.wv.weight.value, &attn.wv.bias.value, world),
            wo: RowShards::from_full(&attn.wo.weight.value, &attn.wo.bias.value, reduce),
            heads: attn.heads(),
            world,
            hidden: attn.hidden(),
            cache: None,
        })
    }

    fn local_heads(&self) -> usize {
        self.heads / self.world
    }

    fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// Forward over `[batch·seq, hidden]`.
    pub fn forward(&mut self, x: &Tensor, batch: usize, seq: usize) -> (Tensor, CommBytes) {
        let d = self.head_dim();
        let lh = self.local_heads();

        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);

        let mut ctx: Vec<Tensor> = Vec::with_capacity(self.world);
        let mut probs: Vec<Tensor> = Vec::with_capacity(self.world);
        for wkr in 0..self.world {
            let (wctx, wprobs) = attn_context_forward(&q[wkr], &k[wkr], &v[wkr], batch, seq, lh, d);
            ctx.push(wctx);
            probs.push(wprobs);
        }

        let (y, bytes) = self.wo.forward(ctx);
        self.cache = Some(TpAttnCache {
            x: x.clone(),
            q,
            k,
            v,
            probs,
            batch,
            seq,
        });
        (y, bytes)
    }

    /// Backward; returns the input gradient.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let TpAttnCache {
            x,
            q,
            k,
            v,
            probs,
            batch,
            seq,
        } = self
            .cache
            .take()
            .expect("TpAttention::backward without forward");
        let d = self.head_dim();
        let lh = self.local_heads();

        let dctx = self.wo.backward(dy);
        // Each worker folds its own dQ/dK/dV input gradients; the sum
        // over workers is the one reduce the runtime performs here.
        rank_order_sum((0..self.world).map(|wkr| {
            let (dq, dk, dv) = attn_context_backward(
                &q[wkr],
                &k[wkr],
                &v[wkr],
                &probs[wkr],
                &dctx[wkr],
                batch,
                seq,
                lh,
                d,
            );
            let shards = [
                &mut self.wq.shards[wkr],
                &mut self.wk.shards[wkr],
                &mut self.wv.shards[wkr],
            ];
            workspace::with_thread_default(|ws| qkv_backward_ws(shards, &x, [&dq, &dk, &dv], ws))
        }))
    }

    /// Visits model parameters (not compressor parameters).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }

    /// Access to the attention's compressed reduce (AE parameters, sync).
    pub fn reduce_mut(&mut self) -> &mut CompressedAllReduce {
        &mut self.wo.reduce
    }

    /// Reassembles the serial attention layer from the shards.
    pub fn to_serial(&self) -> actcomp_nn::MultiHeadAttention {
        use actcomp_nn::Linear;
        let (qw, qb) = self.wq.to_full();
        let (kw, kb) = self.wk.to_full();
        let (vw, vb) = self.wv.to_full();
        let (ow, ob) = self.wo.to_full();
        actcomp_nn::MultiHeadAttention::from_parts(
            Linear::from_parts(qw, qb),
            Linear::from_parts(kw, kb),
            Linear::from_parts(vw, vb),
            Linear::from_parts(ow, ob),
            self.heads,
        )
    }
}

/// Tensor-parallel feed-forward block (column-parallel expansion,
/// row-parallel contraction with compressed reduce).
#[derive(Debug)]
pub struct TpFeedForward {
    fc1: ColumnShards,
    fc2: RowShards,
    /// The block input and the per-worker pre-activations.
    cache: Option<(Tensor, Vec<Tensor>)>,
}

impl TpFeedForward {
    /// Shards a serial feed-forward block across `world` workers.
    ///
    /// # Panics
    ///
    /// Panics if the reduce serves a different worker count.
    pub fn from_serial(
        ff: &actcomp_nn::FeedForward,
        world: usize,
        reduce: CompressedAllReduce,
    ) -> Self {
        match Self::try_from_serial(ff, world, reduce) {
            Ok(tp) => tp,
            Err(e) => panic!("{e}"),
        }
    }

    /// Typed variant of [`TpFeedForward::from_serial`].
    pub fn try_from_serial(
        ff: &actcomp_nn::FeedForward,
        world: usize,
        reduce: CompressedAllReduce,
    ) -> Result<Self, ShardError> {
        if reduce.world() != world {
            return Err(ShardError::ReduceWorldMismatch {
                reduce_world: reduce.world(),
                world,
            });
        }
        Ok(TpFeedForward {
            fc1: ColumnShards::from_full(&ff.fc1.weight.value, &ff.fc1.bias.value, world),
            fc2: RowShards::from_full(&ff.fc2.weight.value, &ff.fc2.bias.value, reduce),
            cache: None,
        })
    }

    /// Forward over `[tokens, hidden]`.
    pub fn forward(&mut self, x: &Tensor) -> (Tensor, CommBytes) {
        let h = self.fc1.forward(x);
        let a: Vec<Tensor> = h.iter().map(|t| t.gelu()).collect();
        self.cache = Some((x.clone(), h));
        self.fc2.forward(a)
    }

    /// Backward; returns the input gradient.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (x, h) = self
            .cache
            .take()
            .expect("TpFeedForward::backward without forward");
        let da = self.fc2.backward(dy);
        let dh: Vec<Tensor> = h
            .iter()
            .zip(&da)
            .map(|(hi, dai)| hi.map(actcomp_tensor::ops::gelu_grad).mul(dai))
            .collect();
        self.fc1.backward(&x, &dh)
    }

    /// Visits model parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }

    /// Access to the block's compressed reduce.
    pub fn reduce_mut(&mut self) -> &mut CompressedAllReduce {
        &mut self.fc2.reduce
    }

    /// Reassembles the serial feed-forward block from the shards.
    pub fn to_serial(&self) -> actcomp_nn::FeedForward {
        use actcomp_nn::Linear;
        let (w1, b1) = self.fc1.to_full();
        let (w2, b2) = self.fc2.to_full();
        actcomp_nn::FeedForward::from_parts(Linear::from_parts(w1, b1), Linear::from_parts(w2, b2))
    }
}

/// One tensor-parallel encoder block: sharded attention and MLP with two
/// (possibly compressed) all-reduces, replicated layer norms.
#[derive(Debug)]
pub struct TpEncoderLayer {
    /// Sharded attention sublayer.
    pub attn: TpAttention,
    /// Post-attention layer norm (replicated).
    pub ln1: LayerNorm,
    /// Sharded feed-forward sublayer.
    pub ff: TpFeedForward,
    /// Post-FF layer norm (replicated).
    pub ln2: LayerNorm,
}

impl TpEncoderLayer {
    /// Shards a serial encoder layer across `world` workers, installing
    /// the two compressed reduces.
    ///
    /// # Panics
    ///
    /// Panics if `world` doesn't divide the head count or a reduce serves
    /// a different worker count.
    pub fn from_serial(
        layer: &EncoderLayer,
        world: usize,
        attn_reduce: CompressedAllReduce,
        ff_reduce: CompressedAllReduce,
    ) -> Self {
        match Self::try_from_serial(layer, world, attn_reduce, ff_reduce) {
            Ok(tp) => tp,
            Err(e) => panic!("{e}"),
        }
    }

    /// Typed variant of [`TpEncoderLayer::from_serial`].
    pub fn try_from_serial(
        layer: &EncoderLayer,
        world: usize,
        attn_reduce: CompressedAllReduce,
        ff_reduce: CompressedAllReduce,
    ) -> Result<Self, ShardError> {
        Ok(TpEncoderLayer {
            attn: TpAttention::try_from_serial(&layer.attn, world, attn_reduce)?,
            ln1: layer.ln1.clone(),
            ff: TpFeedForward::try_from_serial(&layer.ff, world, ff_reduce)?,
            ln2: layer.ln2.clone(),
        })
    }

    /// Forward over `[batch·seq, hidden]`; returns output plus the bytes
    /// both reduces moved.
    pub fn forward(&mut self, x: &Tensor, batch: usize, seq: usize) -> (Tensor, CommBytes) {
        let (a, mut bytes) = self.attn.forward(x, batch, seq);
        let h1 = self.ln1.forward(&x.add(&a));
        let (f, b2) = self.ff.forward(&h1);
        bytes.add(b2);
        (self.ln2.forward(&h1.add(&f)), bytes)
    }

    /// Backward; returns the input gradient.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let d2 = self.ln2.backward(dy);
        let df = self.ff.backward(&d2);
        let dh1 = d2.add(&df);
        let d1 = self.ln1.backward(&dh1);
        let dxa = self.attn.backward(&d1);
        d1.add(&dxa)
    }

    /// Visits model parameters (excluding compressor parameters — use
    /// [`TpEncoderLayer::visit_compressor_params`]).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.attn.visit_params(f);
        self.ln1.visit_params(f);
        self.ff.visit_params(f);
        self.ln2.visit_params(f);
    }

    /// Visits compressor (auto-encoder) parameters.
    pub fn visit_compressor_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.attn.reduce_mut().visit_params(f);
        self.ff.reduce_mut().visit_params(f);
    }

    /// All-reduces compressor-parameter gradients across workers.
    pub fn sync_compressor_grads(&mut self) {
        self.attn.reduce_mut().sync_param_grads();
        self.ff.reduce_mut().sync_param_grads();
    }

    /// Reassembles the serial encoder layer (dropping compressors — the
    /// paper's §4.4 observation that the AE can be removed after
    /// pre-training).
    pub fn to_serial(&self) -> EncoderLayer {
        EncoderLayer::from_parts(
            self.attn.to_serial(),
            self.ln1.clone(),
            self.ff.to_serial(),
            self.ln2.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_compress::{Compressor, Identity};
    use actcomp_nn::EncoderLayer;
    use actcomp_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn identity_reduce(world: usize) -> CompressedAllReduce {
        CompressedAllReduce::new(
            (0..world)
                .map(|_| Box::new(Identity::new()) as Box<dyn Compressor>)
                .collect(),
        )
    }

    fn serial_layer(seed: u64) -> EncoderLayer {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        EncoderLayer::new(&mut rng, 8, 4, 16)
    }

    #[test]
    fn tp_forward_matches_serial_with_identity() {
        for world in [1, 2, 4] {
            let mut serial = serial_layer(0);
            let mut tp = TpEncoderLayer::from_serial(
                &serial,
                world,
                identity_reduce(world),
                identity_reduce(world),
            );
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let x = init::randn(&mut rng, [6, 8], 1.0); // batch 3, seq 2
            let want = serial.forward(&x, 3, 2);
            let (got, bytes) = tp.forward(&x, 3, 2);
            assert!(
                got.max_abs_diff(&want) < 1e-4,
                "world {world}: diff {}",
                got.max_abs_diff(&want)
            );
            if world > 1 {
                assert!(bytes.dense > 0);
            }
        }
    }

    #[test]
    fn tp_backward_matches_serial_with_identity() {
        let mut serial = serial_layer(2);
        let world = 2;
        let mut tp = TpEncoderLayer::from_serial(
            &serial,
            world,
            identity_reduce(world),
            identity_reduce(world),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let x = init::randn(&mut rng, [4, 8], 1.0); // batch 2, seq 2
        let dy = init::randn(&mut rng, [4, 8], 1.0);

        let _ = serial.forward(&x, 2, 2);
        let dx_serial = serial.backward(&dy);
        let _ = tp.forward(&x, 2, 2);
        let dx_tp = tp.backward(&dy);
        assert!(
            dx_tp.max_abs_diff(&dx_serial) < 1e-4,
            "dx diff {}",
            dx_tp.max_abs_diff(&dx_serial)
        );

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
        let mut tp =
            TpEncoderLayer::from_serial(&serial, 2, identity_reduce(2), identity_reduce(2));
        let mut count_tp = 0;
        tp.visit_params(&mut |p| count_tp += p.len());
        assert_eq!(count_serial, count_tp);
    }

    #[test]
    fn compressed_reduce_changes_output_boundedly() {
        use actcomp_compress::Quantizer;
        let serial = serial_layer(5);
        let world = 2;
        let quant_reduce = || {
            CompressedAllReduce::new(
                (0..world)
                    .map(|_| Box::new(Quantizer::new(8)) as Box<dyn Compressor>)
                    .collect(),
            )
        };
        let mut tp_exact = TpEncoderLayer::from_serial(
            &serial,
            world,
            identity_reduce(world),
            identity_reduce(world),
        );
        let mut tp_q = TpEncoderLayer::from_serial(&serial, world, quant_reduce(), quant_reduce());
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let x = init::randn(&mut rng, [4, 8], 1.0);
        let (y_exact, _) = tp_exact.forward(&x, 2, 2);
        let (y_q, bytes) = tp_q.forward(&x, 2, 2);
        let diff = y_q.max_abs_diff(&y_exact);
        assert!(diff > 0.0, "8-bit quantization should perturb the output");
        assert!(diff < 0.5, "8-bit quantization error too large: {diff}");
        assert!(bytes.ratio() > 1.5, "ratio {}", bytes.ratio());
    }

    #[test]
    fn tp_gradients_match_finite_difference_through_compression() {
        // Gradcheck the full TP layer with an AE compressor in the loop.
        use actcomp_compress::AutoEncoder;
        let serial = serial_layer(7);
        let world = 2;
        let ae_reduce = |seed: u64| {
            CompressedAllReduce::new(
                (0..world)
                    .map(|_| {
                        let mut rng = ChaCha8Rng::seed_from_u64(seed);
                        Box::new(AutoEncoder::new(&mut rng, 8, 3)) as Box<dyn Compressor>
                    })
                    .collect(),
            )
        };
        let mut tp = TpEncoderLayer::from_serial(&serial, world, ae_reduce(10), ae_reduce(11));
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let x = init::randn(&mut rng, [2, 8], 0.5); // batch 1, seq 2
        let dy = init::randn(&mut rng, [2, 8], 1.0);

        let _ = tp.forward(&x, 1, 2);
        let dx = tp.backward(&dy);

        let eps = 1e-2;
        for j in 0..x.len() {
            let mut xp = x.clone();
            xp[j] += eps;
            let mut xm = x.clone();
            xm[j] -= eps;
            let lp = tp.forward(&xp, 1, 2).0.mul(&dy).sum();
            let _ = tp.backward(&Tensor::zeros_like(&dy));
            let lm = tp.forward(&xm, 1, 2).0.mul(&dy).sum();
            let _ = tp.backward(&Tensor::zeros_like(&dy));
            let fd = (lp - lm) / (2.0 * eps);
            let denom = 1.0f32.max(dx[j].abs()).max(fd.abs());
            assert!(
                (dx[j] - fd).abs() / denom < 5e-2,
                "dx[{j}] {} vs fd {fd}",
                dx[j]
            );
        }
    }
}
