//! Layer normalization.

use crate::graphs::{self, LnInput};
use crate::{Layer, Parameter};
use actcomp_tensor::plan::OutBind;
use actcomp_tensor::{Tensor, Workspace};

/// Layer normalization over the feature axis of `[tokens, features]`
/// inputs: `y = γ ⊙ (x − μ)/√(σ² + ε) + β`.
///
/// # Examples
///
/// ```
/// use actcomp_nn::{Layer, LayerNorm};
/// use actcomp_tensor::{Tensor, Workspace};
///
/// let mut ln = LayerNorm::new(4);
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 4]);
/// let y = ln.forward(&x, &mut Workspace::new());
/// assert!(y.mean().abs() < 1e-6); // zero-mean per row with unit γ, zero β
/// ```
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale `γ`, shape `[features]`.
    pub gamma: Parameter,
    /// Shift `β`, shape `[features]`.
    pub beta: Parameter,
    eps: f32,
    cache: Option<LnCache>,
}

/// The state [`LayerNorm::backward_cached`] needs: the normalized input
/// and per-row inverse standard deviations.
///
/// [`Layer::forward`] stores one of these internally; callers that
/// interleave several in-flight activations (e.g. a microbatched pipeline
/// stage) or normalize a fused sum use [`LayerNorm::forward_cached`] and
/// keep the caches themselves.
#[derive(Debug, Clone)]
pub struct LnCache {
    xhat: Tensor,
    inv_std: Tensor,
}

impl LnCache {
    /// Consumes the cache into `(x̂, 1/σ)`.
    pub fn into_parts(self) -> (Tensor, Tensor) {
        (self.xhat, self.inv_std)
    }
}

impl LayerNorm {
    /// Creates a layer norm over `features` with `γ = 1`, `β = 0`,
    /// `ε = 1e-5`.
    pub fn new(features: usize) -> Self {
        LayerNorm {
            gamma: Parameter::new(Tensor::ones([features])),
            beta: Parameter::new(Tensor::zeros([features])),
            eps: 1e-5,
            cache: None,
        }
    }

    /// Feature width this layer normalizes over.
    pub fn features(&self) -> usize {
        self.gamma.value.len()
    }

    /// Forward pass over the [`LnInput`] sum of `operands` (in the
    /// variant's binding order: `[x]`, `[x, r]` or `[s, b, x]`), returning
    /// the backward state instead of storing it, so callers can keep
    /// several activations in flight. Runs the [`graphs::layernorm`] plan:
    /// the sum is a plan-internal intermediate, recycled the moment the
    /// normalization has consumed it, and `y`, `x̂` and the per-row inverse
    /// standard deviations are written in one pass, all leased from `ws`.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not the ones `input` binds, the first
    /// is not `[tokens, features]`, or a residual's shape differs from it.
    pub fn forward_cached(
        &self,
        input: LnInput,
        operands: &[&Tensor],
        ws: &mut Workspace,
    ) -> (Tensor, LnCache) {
        let x = operands[0];
        let n = self.features();
        assert_eq!(
            x.rank(),
            2,
            "LayerNorm input must be rank 2, got {}",
            x.shape()
        );
        assert_eq!(
            x.dims()[1],
            n,
            "LayerNorm width {} != input width {}",
            n,
            x.dims()[1]
        );
        for r in operands[1..].iter().filter(|t| t.rank() == 2) {
            assert!(
                x.shape().same_as(r.shape()),
                "residual shape {} != input shape {}",
                r.shape(),
                x.shape()
            );
        }
        let m = x.dims()[0];
        let plan = graphs::layernorm(ws, m, n, self.eps, input);
        // At most `[s, b, x]`, then γ and β.
        let mut inputs: [&[f32]; 5] = [&[]; 5];
        let k = operands.len();
        for (slot, t) in inputs.iter_mut().zip(operands) {
            *slot = t.as_slice();
        }
        inputs[k] = self.gamma.value.as_slice();
        inputs[k + 1] = self.beta.value.as_slice();
        let mut res = [OutBind::Lease, OutBind::Lease, OutBind::Lease];
        plan.run(&inputs[..k + 2], &mut res, ws);
        let [y, xhat, inv_std] = res.map(OutBind::leased);
        (
            Tensor::from_vec(y, [m, n]),
            LnCache {
                xhat: Tensor::from_vec(xhat, [m, n]),
                inv_std: Tensor::from_vec(inv_std, [m]),
            },
        )
    }

    /// Backward pass from an explicit [`LnCache`], as one plan
    /// ([`graphs::layernorm_backward`]): optionally folds a second
    /// upstream gradient `extra` into `dy` first (the residual branch's
    /// contribution), accumulates `dγ`, `dβ` and — given `row_bias`, a
    /// row-broadcast bias that was added ahead of the normalization — its
    /// gradient `Σ_rows dx` straight into the parameters, and returns the
    /// leased `dx`. The consumed cache's buffers are recycled into `ws`.
    ///
    /// # Panics
    ///
    /// Panics if `dy`'s shape disagrees with the cached activation's.
    pub fn backward_cached(
        &mut self,
        dy: &Tensor,
        extra: Option<&Tensor>,
        cache: LnCache,
        row_bias: Option<&mut Parameter>,
        ws: &mut Workspace,
    ) -> Tensor {
        let LnCache { xhat, inv_std } = cache;
        let (m, n) = (xhat.dims()[0], xhat.dims()[1]);
        assert!(
            dy.shape().same_as(xhat.shape()),
            "LayerNorm dy shape mismatch"
        );
        let plan = graphs::layernorm_backward(ws, m, n, extra.is_some(), row_bias.is_some());
        let (x, r, g) = (
            xhat.as_slice(),
            inv_std.as_slice(),
            self.gamma.value.as_slice(),
        );
        let (inputs, k) = match extra {
            Some(e) => ([dy.as_slice(), e.as_slice(), x, r, g], 5),
            None => ([dy.as_slice(), x, r, g, &[]], 4),
        };
        let outs = if row_bias.is_some() { 4 } else { 3 };
        let mut res = [
            OutBind::Lease,
            OutBind::Acc(self.gamma.grad.as_mut_slice()),
            OutBind::Acc(self.beta.grad.as_mut_slice()),
            row_bias.map_or(OutBind::Lease, |b| OutBind::Acc(b.grad.as_mut_slice())),
        ];
        plan.run(&inputs[..k], &mut res[..outs], ws);
        ws.recycle_tensor(xhat);
        ws.recycle_tensor(inv_std);
        let [dx, ..] = res;
        Tensor::from_vec(dx.leased(), [m, n])
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let (y, cache) = self.forward_cached(LnInput::Plain, &[x], ws);
        self.cache = Some(cache);
        y
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("LayerNorm::backward called without forward");
        self.backward_cached(dy, None, cache, None, ws)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::grad_check_layer;
    use actcomp_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn normalizes_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let x = init::randn(&mut rng, [5, 16], 3.0).add_scalar(2.0);
        let mut ln = LayerNorm::new(16);
        let y = ln.forward(&x, &mut Workspace::new());
        let (mean, var) = y.row_moments();
        for i in 0..5 {
            assert!(mean[i].abs() < 1e-5);
            assert!((var[i] - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn gamma_beta_applied() {
        let mut ln = LayerNorm::new(2);
        ln.gamma.value = Tensor::from_vec(vec![2.0, 2.0], [2]);
        ln.beta.value = Tensor::from_vec(vec![1.0, -1.0], [2]);
        let y = ln.forward(
            &Tensor::from_vec(vec![-1.0, 1.0], [1, 2]),
            &mut Workspace::new(),
        );
        // x̂ = [-1, 1] (unit variance after eps ≈ 0), so y ≈ [-1, 1]*2 + β.
        assert!((y[0] + 1.0).abs() < 1e-2);
        assert!((y[1] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ln = LayerNorm::new(6);
        grad_check_layer(ln, [3, 6], 3e-2, &mut rng);
    }

    #[test]
    #[should_panic(expected = "without forward")]
    fn backward_requires_forward() {
        LayerNorm::new(2).backward(&Tensor::ones([1, 2]), &mut Workspace::new());
    }
}
