//! Multi-head self-attention with a full manual backward pass.

use crate::{graphs, Layer, Linear, Parameter};
use actcomp_tensor::attention::Heads;
use actcomp_tensor::plan::OutBind;
use actcomp_tensor::{Tensor, Workspace};
use rand::Rng;

/// Multi-head scaled-dot-product self-attention.
///
/// Input and output are `[batch·seq, hidden]`; the `(batch, seq)`
/// factorization is supplied per call because the same layer is reused
/// across batch shapes. Q/K/V/output projections are [`Linear`] layers, so
/// tensor-parallel shards (in `actcomp-mp`) can partition them head-wise
/// exactly as Megatron-LM does.
///
/// # Examples
///
/// ```
/// use actcomp_nn::MultiHeadAttention;
/// use actcomp_tensor::{Tensor, Workspace};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mut attn = MultiHeadAttention::new(&mut rng, 16, 4);
/// let x = Tensor::ones([2 * 3, 16]); // batch 2, seq 3
/// let y = attn.forward(&x, 2, 3, &mut Workspace::new());
/// assert_eq!(y.dims(), &[6, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    /// Query projection.
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection.
    pub wo: Linear,
    heads: usize,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    x: Tensor,
    /// Q, K and V.
    qkv: [Tensor; 3],
    /// Softmax probabilities: one `[seq, seq]` block per (batch, head),
    /// stacked.
    probs: Tensor,
    batch: usize,
    seq: usize,
}

impl MultiHeadAttention {
    /// Creates an attention layer over `hidden` features with `heads` heads.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `heads`.
    pub fn new(rng: &mut impl Rng, hidden: usize, heads: usize) -> Self {
        assert!(
            heads > 0 && hidden.is_multiple_of(heads),
            "hidden {hidden} not divisible by {heads} heads"
        );
        MultiHeadAttention {
            wq: Linear::new(rng, hidden, hidden),
            wk: Linear::new(rng, hidden, hidden),
            wv: Linear::new(rng, hidden, hidden),
            wo: Linear::new(rng, hidden, hidden),
            heads,
            cache: None,
        }
    }

    /// Assembles an attention layer from existing projections (used when
    /// reassembling tensor-parallel shards into a serial checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if the projections are not square and equal-sized, or
    /// `heads` does not divide the width.
    pub fn from_parts(wq: Linear, wk: Linear, wv: Linear, wo: Linear, heads: usize) -> Self {
        let h = wq.fan_in();
        for l in [&wq, &wk, &wv, &wo] {
            assert_eq!(l.fan_in(), h, "projection width mismatch");
            assert_eq!(l.fan_out(), h, "projection width mismatch");
        }
        assert!(
            heads > 0 && h.is_multiple_of(heads),
            "{h} not divisible by {heads} heads"
        );
        MultiHeadAttention {
            wq,
            wk,
            wv,
            wo,
            heads,
            cache: None,
        }
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.wq.fan_in()
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden() / self.heads
    }

    fn head_layout(&self, batch: usize, seq: usize) -> Heads {
        Heads {
            batch,
            heads: self.heads,
            seq,
            d: self.head_dim(),
        }
    }

    /// Forward pass over `[batch·seq, hidden]` input; the projections,
    /// probabilities and context are leased from `ws`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[batch·seq, hidden]`.
    pub fn forward(&mut self, x: &Tensor, batch: usize, seq: usize, ws: &mut Workspace) -> Tensor {
        let h = self.hidden();
        assert_eq!(
            x.dims(),
            &[batch * seq, h],
            "attention input shape {} != [{}x{}]",
            x.shape(),
            batch * seq,
            h
        );
        let m = batch * seq;

        // One plan for all three projections; each GEMM fuses its bias
        // add into the epilogue.
        let plan = graphs::qkv_forward(ws, m, h, h);
        let mut res = [OutBind::Lease, OutBind::Lease, OutBind::Lease];
        plan.run(
            &[
                x.as_slice(),
                self.wq.weight.value.as_slice(),
                self.wq.bias.value.as_slice(),
                self.wk.weight.value.as_slice(),
                self.wk.bias.value.as_slice(),
                self.wv.weight.value.as_slice(),
                self.wv.bias.value.as_slice(),
            ],
            &mut res,
            ws,
        );
        let qkv = res.map(|o| Tensor::from_vec(o.leased(), [m, h]));
        let at = self.head_layout(batch, seq);
        let (ctx, probs) = graphs::attention_forward(ws, qkv.each_ref(), at);
        let out = self.wo.forward(&ctx, ws);
        ws.recycle_tensor(ctx);
        self.cache = Some(AttnCache {
            x: x.clone(),
            qkv,
            probs,
            batch,
            seq,
        });
        out
    }

    /// Backward pass; returns the gradient with respect to the input.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`MultiHeadAttention::forward`].
    pub fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let AttnCache {
            x,
            qkv,
            probs,
            batch,
            seq,
        } = self
            .cache
            .take()
            .expect("MultiHeadAttention::backward called without forward");
        let h = self.hidden();
        let m = batch * seq;

        let dctx = self.wo.backward(dy, ws);
        let at = self.head_layout(batch, seq);
        let grads = graphs::attention_backward(ws, qkv.each_ref(), &probs, &dctx, at);
        ws.recycle_tensor(dctx);
        ws.recycle_tensor(probs);

        // One plan for all three projection backwards; the `dx` partial
        // sums fold into the final `nt` GEMM's epilogue.
        let plan = graphs::qkv_backward(ws, m, h, h);
        let mut res = [
            OutBind::Acc(self.wq.weight.grad.as_mut_slice()),
            OutBind::Acc(self.wq.bias.grad.as_mut_slice()),
            OutBind::Acc(self.wk.weight.grad.as_mut_slice()),
            OutBind::Acc(self.wk.bias.grad.as_mut_slice()),
            OutBind::Acc(self.wv.weight.grad.as_mut_slice()),
            OutBind::Acc(self.wv.bias.grad.as_mut_slice()),
            OutBind::Lease,
        ];
        plan.run(
            &[
                x.as_slice(),
                grads[0].as_slice(),
                grads[1].as_slice(),
                grads[2].as_slice(),
                self.wq.weight.value.as_slice(),
                self.wk.weight.value.as_slice(),
                self.wv.weight.value.as_slice(),
            ],
            &mut res,
            ws,
        );
        let [.., dx] = res;
        let dx = Tensor::from_vec(dx.leased(), [m, h]);
        for tmp in [x].into_iter().chain(qkv).chain(grads) {
            ws.recycle_tensor(tmp);
        }
        dx
    }

    /// Visits all projection parameters (q, k, v, o order).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::assert_close;
    use actcomp_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn output_shape_and_determinism() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let ws = &mut Workspace::new();
        let x = init::randn(&mut rng, [6, 8], 1.0);
        let y1 = attn.forward(&x, 2, 3, ws);
        let y2 = attn.forward(&x, 2, 3, ws);
        assert_eq!(y1, y2);
        assert_eq!(y1.dims(), &[6, 8]);
        assert!(y1.all_finite());
    }

    #[test]
    fn uniform_rows_attend_uniformly() {
        // With identical tokens, attention is an average: output rows equal.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let ws = &mut Workspace::new();
        let row = init::randn(&mut rng, [1, 8], 1.0);
        let x = Tensor::concat_rows(&[&row, &row, &row]);
        let y = attn.forward(&x, 1, 3, ws);
        let r0 = y.slice_rows(0, 1);
        let r1 = y.slice_rows(1, 2);
        let r2 = y.slice_rows(2, 3);
        assert!(r0.max_abs_diff(&r1) < 1e-5);
        assert!(r1.max_abs_diff(&r2) < 1e-5);
    }

    /// Full finite-difference check of input gradients through attention.
    #[test]
    fn input_gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut attn = MultiHeadAttention::new(&mut rng, 6, 2);
        let ws = &mut Workspace::new();
        let x = init::randn(&mut rng, [4, 6], 0.8); // batch 2, seq 2
        let y = attn.forward(&x, 2, 2, ws);
        let dy = init::randn(&mut rng, y.shape().clone(), 1.0);
        let _ = attn.forward(&x, 2, 2, ws);
        let dx = attn.backward(&dy, ws);

        let eps = 1e-2;
        for j in 0..x.len() {
            let mut xp = x.clone();
            xp[j] += eps;
            let mut xm = x.clone();
            xm[j] -= eps;
            let lp = attn.forward(&xp, 2, 2, ws).mul(&dy).sum();
            let lm = attn.forward(&xm, 2, 2, ws).mul(&dy).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert_close(dx[j], fd, 3e-2, &format!("attn dx[{j}]"));
        }
    }

    /// Finite-difference check of a sample of parameter gradients.
    #[test]
    fn param_gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut attn = MultiHeadAttention::new(&mut rng, 6, 2);
        let ws = &mut Workspace::new();
        let x = init::randn(&mut rng, [4, 6], 0.8);
        let y = attn.forward(&x, 2, 2, ws);
        let dy = init::randn(&mut rng, y.shape().clone(), 1.0);

        attn.visit_params(&mut |p| p.zero_grad());
        let _ = attn.forward(&x, 2, 2, ws);
        let _ = attn.backward(&dy, ws);
        let mut grads = Vec::new();
        attn.visit_params(&mut |p| grads.push(p.grad.clone()));

        fn bump(attn: &mut MultiHeadAttention, t: usize, j: usize, delta: f32) {
            let mut idx = 0;
            attn.visit_params(&mut |p| {
                if idx == t {
                    p.value[j] += delta;
                }
                idx += 1;
            });
        }

        let eps = 1e-2;
        for (t, grad) in grads.iter().enumerate() {
            // Check a handful of entries per tensor to keep runtime modest.
            let stride = (grad.len() / 4).max(1);
            for j in (0..grad.len()).step_by(stride) {
                bump(&mut attn, t, j, eps);
                let lp = attn.forward(&x, 2, 2, ws).mul(&dy).sum();
                bump(&mut attn, t, j, -2.0 * eps);
                let lm = attn.forward(&x, 2, 2, ws).mul(&dy).sum();
                bump(&mut attn, t, j, eps);
                let fd = (lp - lm) / (2.0 * eps);
                assert_close(grad[j], fd, 3e-2, &format!("attn param {t}[{j}]"));
            }
        }
    }
}
