//! Multi-head self-attention with a full manual backward pass.

use crate::{graphs, Layer, Linear, Parameter};
use actcomp_tensor::plan::OutBind;
use actcomp_tensor::{ops, workspace, Tensor, Workspace};
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
/// use actcomp_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mut attn = MultiHeadAttention::new(&mut rng, 16, 4);
/// let x = Tensor::ones([2 * 3, 16]); // batch 2, seq 3
/// let y = attn.forward(&x, 2, 3);
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
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Softmax probabilities, one `[seq, seq]` matrix per (batch, head).
    /// One `[seq, seq]` block per `(batch, head)`, stacked.
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

    /// Forward pass over `[batch·seq, hidden]` input.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[batch·seq, hidden]`.
    pub fn forward(&mut self, x: &Tensor, batch: usize, seq: usize) -> Tensor {
        workspace::with_thread_default(|ws| self.forward_ws(x, batch, seq, ws))
    }

    /// [`MultiHeadAttention::forward`] with caller-provided scratch: head
    /// blocks, score matrices and the context buffer are leased from `ws`
    /// and recycled as soon as each head is done.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[batch·seq, hidden]`.
    pub fn forward_ws(
        &mut self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        ws: &mut Workspace,
    ) -> Tensor {
        let h = self.hidden();
        assert_eq!(
            x.dims(),
            &[batch * seq, h],
            "attention input shape {} != [{}x{}]",
            x.shape(),
            batch * seq,
            h
        );
        let d = self.head_dim();
        let scale = 1.0 / (d as f32).sqrt();
        let m = batch * seq;

        // One plan for all three projections; each GEMM fuses its bias
        // add into the epilogue.
        let plan = graphs::qkv_forward(ws, m, h, h);
        let mut res = plan.run(
            &[
                x.as_slice(),
                self.wq.weight.value.as_slice(),
                self.wq.bias.value.as_slice(),
                self.wk.weight.value.as_slice(),
                self.wk.bias.value.as_slice(),
                self.wv.weight.value.as_slice(),
                self.wv.bias.value.as_slice(),
            ],
            vec![OutBind::Lease, OutBind::Lease, OutBind::Lease],
            ws,
        );
        let q = Tensor::from_vec(res[0].take().expect("leased q"), [m, h]);
        let k = Tensor::from_vec(res[1].take().expect("leased k"), [m, h]);
        let v = Tensor::from_vec(res[2].take().expect("leased v"), [m, h]);

        let sc_plan = graphs::attn_scores(ws, seq, d, scale);
        let cx_plan = graphs::attn_context(ws, seq, d);
        let mut ctx = ws.lease_tensor([m, h]);
        let mut probs = ws.lease_tensor([batch * self.heads * seq, seq]);
        for t in 0..batch {
            for hd in 0..self.heads {
                let qb = head_block_ws(&q, t, hd, seq, d, h, ws);
                let kb = head_block_ws(&k, t, hd, seq, d, h, ws);
                let vb = head_block_ws(&v, t, hd, seq, d, h, ws);
                // The scores GEMM writes the head's block of the leased
                // probabilities; the softmax runs on it in place.
                let p = &mut probs.as_mut_slice()[(t * self.heads + hd) * seq * seq..][..seq * seq];
                sc_plan.run(&[qb.as_slice(), kb.as_slice()], vec![OutBind::Write(p)], ws);
                ops::softmax_rows_in_place(p, seq);
                let mut cres = cx_plan.run(&[p, vb.as_slice()], vec![OutBind::Lease], ws);
                let c = Tensor::from_vec(cres[0].take().expect("leased ctx"), [seq, d]);
                write_head_block(&mut ctx, &c, t, hd, seq, d, h);
                for tmp in [qb, kb, vb, c] {
                    ws.recycle_tensor(tmp);
                }
            }
        }
        let out = self.wo.forward_ws(&ctx, ws);
        ws.recycle_tensor(ctx);
        self.cache = Some(AttnCache {
            x: x.clone(),
            q,
            k,
            v,
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
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        workspace::with_thread_default(|ws| self.backward_ws(dy, ws))
    }

    /// [`MultiHeadAttention::backward`] with caller-provided scratch.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`MultiHeadAttention::forward`].
    pub fn backward_ws(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let AttnCache {
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
            .expect("MultiHeadAttention::backward called without forward");
        let h = self.hidden();
        let d = self.head_dim();
        let scale = 1.0 / (d as f32).sqrt();
        let m = batch * seq;

        let dctx = self.wo.backward_ws(dy, ws);
        let mut dq = ws.lease_tensor([m, h]);
        let mut dk = ws.lease_tensor([m, h]);
        let mut dv = ws.lease_tensor([m, h]);

        // Per-head plans, looked up once and run per (batch, head).
        let ctx_bwd = graphs::attn_context_backward(ws, seq, d);
        let score_bwd = graphs::attn_scores_backward(ws, seq, d, scale);

        for t in 0..batch {
            for hd in 0..self.heads {
                let p = &probs.as_slice()[(t * self.heads + hd) * seq * seq..][..seq * seq];
                let qb = head_block_ws(&q, t, hd, seq, d, h, ws);
                let kb = head_block_ws(&k, t, hd, seq, d, h, ws);
                let vb = head_block_ws(&v, t, hd, seq, d, h, ws);
                let dc = head_block_ws(&dctx, t, hd, seq, d, h, ws);

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

                write_head_block(&mut dq, &dqb, t, hd, seq, d, h);
                write_head_block(&mut dk, &dkb, t, hd, seq, d, h);
                write_head_block(&mut dv, &dvb, t, hd, seq, d, h);
                for tmp in [qb, kb, vb, dc, dvb, ds, dqb, dkb] {
                    ws.recycle_tensor(tmp);
                }
            }
        }
        ws.recycle_tensor(dctx);
        ws.recycle_tensor(probs);

        // One plan for all three projection backwards; the `dx` partial
        // sums fold into the final `nt` GEMM's epilogue.
        let plan = graphs::qkv_backward(ws, m, h, h);
        let mut res = plan.run(
            &[
                x.as_slice(),
                dq.as_slice(),
                dk.as_slice(),
                dv.as_slice(),
                self.wq.weight.value.as_slice(),
                self.wk.weight.value.as_slice(),
                self.wv.weight.value.as_slice(),
            ],
            vec![
                OutBind::Acc(self.wq.weight.grad.as_mut_slice()),
                OutBind::Acc(self.wq.bias.grad.as_mut_slice()),
                OutBind::Acc(self.wk.weight.grad.as_mut_slice()),
                OutBind::Acc(self.wk.bias.grad.as_mut_slice()),
                OutBind::Acc(self.wv.weight.grad.as_mut_slice()),
                OutBind::Acc(self.wv.bias.grad.as_mut_slice()),
                OutBind::Lease,
            ],
            ws,
        );
        let dx = Tensor::from_vec(res[6].take().expect("leased dx"), [m, h]);
        for tmp in [x, q, k, v, dq, dk, dv] {
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

/// Extracts the `[seq, d]` block of head `hd`, batch item `t` from a
/// `[batch·seq, h]` tensor.
#[cfg(test)]
fn head_block(x: &Tensor, t: usize, hd: usize, seq: usize, d: usize, h: usize) -> Tensor {
    let mut ws = Workspace::new();
    head_block_ws(x, t, hd, seq, d, h, &mut ws)
}

/// [`head_block`] into a buffer leased from `ws`.
fn head_block_ws(
    x: &Tensor,
    t: usize,
    hd: usize,
    seq: usize,
    d: usize,
    h: usize,
    ws: &mut Workspace,
) -> Tensor {
    let mut out = ws.lease(seq * d);
    let base_col = hd * d;
    for r in 0..seq {
        let row = (t * seq + r) * h + base_col;
        out[r * d..(r + 1) * d].copy_from_slice(&x.as_slice()[row..row + d]);
    }
    Tensor::from_vec(out, [seq, d])
}

/// Writes a `[seq, d]` block back into a `[batch·seq, h]` tensor.
fn write_head_block(
    out: &mut Tensor,
    block: &Tensor,
    t: usize,
    hd: usize,
    seq: usize,
    d: usize,
    h: usize,
) {
    let base_col = hd * d;
    for r in 0..seq {
        let row = (t * seq + r) * h + base_col;
        out.as_mut_slice()[row..row + d].copy_from_slice(&block.as_slice()[r * d..(r + 1) * d]);
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
    fn head_block_round_trip() {
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), [4, 6]);
        // batch 2, seq 2, heads 3, d 2, h 6
        let b = head_block(&x, 1, 2, 2, 2, 6);
        assert_eq!(b.as_slice(), &[16.0, 17.0, 22.0, 23.0]);
        let mut y = Tensor::zeros([4, 6]);
        write_head_block(&mut y, &b, 1, 2, 2, 2, 6);
        assert_eq!(y.at(&[2, 4]), 16.0);
        assert_eq!(y.at(&[3, 5]), 23.0);
    }

    #[test]
    fn output_shape_and_determinism() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = init::randn(&mut rng, [6, 8], 1.0);
        let y1 = attn.forward(&x, 2, 3);
        let y2 = attn.forward(&x, 2, 3);
        assert_eq!(y1, y2);
        assert_eq!(y1.dims(), &[6, 8]);
        assert!(y1.all_finite());
    }

    #[test]
    fn uniform_rows_attend_uniformly() {
        // With identical tokens, attention is an average: output rows equal.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let row = init::randn(&mut rng, [1, 8], 1.0);
        let x = Tensor::concat_rows(&[&row, &row, &row]);
        let y = attn.forward(&x, 1, 3);
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
        let x = init::randn(&mut rng, [4, 6], 0.8); // batch 2, seq 2
        let y = attn.forward(&x, 2, 2);
        let dy = init::randn(&mut rng, y.shape().clone(), 1.0);
        let _ = attn.forward(&x, 2, 2);
        let dx = attn.backward(&dy);

        let eps = 1e-2;
        for j in 0..x.len() {
            let mut xp = x.clone();
            xp[j] += eps;
            let mut xm = x.clone();
            xm[j] -= eps;
            let lp = attn.forward(&xp, 2, 2).mul(&dy).sum();
            let lm = attn.forward(&xm, 2, 2).mul(&dy).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert_close(dx[j], fd, 3e-2, &format!("attn dx[{j}]"));
        }
    }

    /// Finite-difference check of a sample of parameter gradients.
    #[test]
    fn param_gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut attn = MultiHeadAttention::new(&mut rng, 6, 2);
        let x = init::randn(&mut rng, [4, 6], 0.8);
        let y = attn.forward(&x, 2, 2);
        let dy = init::randn(&mut rng, y.shape().clone(), 1.0);

        attn.visit_params(&mut |p| p.zero_grad());
        let _ = attn.forward(&x, 2, 2);
        let _ = attn.backward(&dy);
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
                let lp = attn.forward(&x, 2, 2).mul(&dy).sum();
                bump(&mut attn, t, j, -2.0 * eps);
                let lm = attn.forward(&x, 2, 2).mul(&dy).sum();
                bump(&mut attn, t, j, eps);
                let fd = (lp - lm) / (2.0 * eps);
                assert_close(grad[j], fd, 3e-2, &format!("attn param {t}[{j}]"));
            }
        }
    }
}
