//! Fully-connected layer.

use crate::{graphs, Layer, Parameter};
use actcomp_tensor::plan::OutBind;
use actcomp_tensor::{init, Tensor, Workspace};
use rand::Rng;

/// Affine transformation `y = x W + b` with cached input for backprop.
///
/// `W` is `[in, out]`, `b` is `[out]`; inputs are `[tokens, in]`.
///
/// # Examples
///
/// ```
/// use actcomp_nn::{Layer, Linear};
/// use actcomp_tensor::{Tensor, Workspace};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mut layer = Linear::new(&mut rng, 8, 4);
/// let y = layer.forward(&Tensor::ones([2, 8]), &mut Workspace::new());
/// assert_eq!(y.dims(), &[2, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix `[in, out]`.
    pub weight: Parameter,
    /// Bias vector `[out]`.
    pub bias: Parameter,
    cache_x: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(rng: &mut impl Rng, fan_in: usize, fan_out: usize) -> Self {
        Linear {
            weight: Parameter::new(init::xavier_uniform(rng, fan_in, fan_out)),
            bias: Parameter::new(Tensor::zeros([fan_out])),
            cache_x: None,
        }
    }

    /// Creates a layer from explicit weight and bias tensors.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank 2 or `bias` length differs from the
    /// weight's output dimension.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.rank(), 2, "linear weight must be rank 2");
        assert_eq!(
            bias.len(),
            weight.dims()[1],
            "bias length {} != fan_out {}",
            bias.len(),
            weight.dims()[1]
        );
        Linear {
            weight: Parameter::new(weight),
            bias: Parameter::new(bias),
            cache_x: None,
        }
    }

    /// Input feature count.
    pub fn fan_in(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Output feature count.
    pub fn fan_out(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// Forward pass without caching (inference-only helper): runs the
    /// [`graphs::linear_forward`] plan, so the bias add executes in the
    /// GEMM's register-tile epilogue instead of a second pass over the
    /// output.
    pub fn apply(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let (m, kin) = (x.dims()[0], x.dims()[1]);
        let n = self.fan_out();
        let plan = graphs::linear_forward(ws, m, kin, n);
        let mut out = [OutBind::Lease];
        let (w, b) = (&self.weight.value, &self.bias.value);
        plan.run(&[x.as_slice(), w.as_slice(), b.as_slice()], &mut out, ws);
        let [y] = out.map(OutBind::leased);
        Tensor::from_vec(y, [m, n])
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let y = self.apply(x, ws);
        self.cache_x = Some(x.clone());
        y
    }

    /// The whole backward — `dW = xᵀ dy`, `db = Σ_rows dy`, `dx = dy Wᵀ`
    /// — is one plan ([`graphs::linear_backward`]) whose parameter-gradient
    /// outputs accumulate straight into `grad` ([`OutBind::Acc`], no
    /// product temporary).
    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let x = self
            .cache_x
            .take()
            .expect("Linear::backward called without forward");
        let (m, kin) = (x.dims()[0], x.dims()[1]);
        let n = self.fan_out();
        let plan = graphs::linear_backward(ws, m, kin, n);
        let mut res = [
            OutBind::Acc(self.weight.grad.as_mut_slice()),
            OutBind::Acc(self.bias.grad.as_mut_slice()),
            OutBind::Lease,
        ];
        let inputs = [x.as_slice(), dy.as_slice(), self.weight.value.as_slice()];
        plan.run(&inputs, &mut res, ws);
        ws.recycle_tensor(x);
        let [_, _, dx] = res;
        Tensor::from_vec(dx.leased(), [m, kin])
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::grad_check_layer;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn forward_known_values() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![0.5, -0.5], [2]);
        let mut layer = Linear::from_parts(w, b);
        let y = layer.forward(
            &Tensor::from_vec(vec![1.0, 1.0], [1, 2]),
            &mut Workspace::new(),
        );
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let layer = Linear::new(&mut rng, 5, 3);
        grad_check_layer(layer, [4, 5], 2e-2, &mut rng);
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut layer = Linear::new(&mut rng, 2, 2);
        let x = Tensor::ones([3, 2]);
        let dy = Tensor::ones([3, 2]);
        let ws = &mut Workspace::new();
        layer.forward(&x, ws);
        layer.backward(&dy, ws);
        let g1 = layer.weight.grad.clone();
        layer.forward(&x, ws);
        layer.backward(&dy, ws);
        assert!(layer.weight.grad.max_abs_diff(&g1.scale(2.0)) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "without forward")]
    fn backward_requires_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut layer = Linear::new(&mut rng, 2, 2);
        layer.backward(&Tensor::ones([1, 2]), &mut Workspace::new());
    }

    #[test]
    fn param_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut layer = Linear::new(&mut rng, 7, 5);
        assert_eq!(layer.num_params(), 7 * 5 + 5);
    }
}
