//! Trainable parameters and the layer abstraction.

use actcomp_tensor::{Tensor, Workspace};

/// A trainable tensor together with its accumulated gradient.
///
/// Layers own their `Parameter`s; optimizers receive `&mut Parameter`
/// collections via [`Layer::visit_params`] (or a model's equivalent) and
/// update `value` from `grad`.
///
/// # Examples
///
/// ```
/// use actcomp_nn::Parameter;
/// use actcomp_tensor::Tensor;
///
/// let mut p = Parameter::new(Tensor::ones([2, 2]));
/// p.grad.as_mut_slice()[0] = 1.0;
/// p.zero_grad();
/// assert_eq!(p.grad.sum(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Parameter {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass(es).
    pub grad: Tensor,
}

impl Parameter {
    /// Wraps a value tensor with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros_like(&value);
        Parameter { value, grad }
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad = Tensor::zeros_like(&self.value);
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Always false (parameters are never empty tensors).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A differentiable transformation with cached forward state.
///
/// The workspace uses *layer-wise* backpropagation rather than a taped
/// autograd: each layer caches whatever it needs during [`Layer::forward`]
/// and consumes that cache in [`Layer::backward`]. A layer must therefore
/// see calls in strict `forward → backward` alternation (asserted by the
/// implementations).
///
/// Both passes take the caller's [`Workspace`]: the layer leases its
/// outputs and scratch from it, recycles consumed caches into it, and
/// looks its compiled plans up in it, so a caller that keeps one
/// workspace (a runtime rank, the serial model-parallel executor) stops
/// allocating and compiling after its first step. Layers without graph
/// work (activations, dropout) ignore it.
///
/// Inputs and outputs are rank-2 `[tokens, features]` tensors; attention
/// layers, which additionally need the `(batch, seq)` factorization, expose
/// their own inherent methods and participate in encoder blocks directly.
pub trait Layer {
    /// Runs the layer on `x`, caching intermediate state for backward.
    fn forward(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor;

    /// Propagates the output gradient `dy`, accumulating parameter
    /// gradients and returning the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`Layer::forward`].
    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor;

    /// Visits every trainable parameter (used by optimizers and
    /// gradient collection).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter));

    /// Switches between training and evaluation behaviour (dropout etc.).
    /// Default: no-op.
    fn set_training(&mut self, _training: bool) {}

    /// Total number of trainable scalars.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Zeroes every parameter gradient.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;

    impl Layer for Doubler {
        fn forward(&mut self, x: &Tensor, _ws: &mut Workspace) -> Tensor {
            x.scale(2.0)
        }
        fn backward(&mut self, dy: &Tensor, _ws: &mut Workspace) -> Tensor {
            dy.scale(2.0)
        }
        fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Parameter)) {}
    }

    #[test]
    fn default_trait_methods() {
        let mut d = Doubler;
        assert_eq!(d.num_params(), 0);
        d.zero_grad();
        d.set_training(false);
        let y = d.forward(&Tensor::ones([2, 2]), &mut Workspace::new());
        assert_eq!(y.sum(), 8.0);
    }

    #[test]
    fn parameter_zero_grad() {
        let mut p = Parameter::new(Tensor::full(3.0, [4]));
        p.grad = Tensor::ones([4]);
        assert_eq!(p.grad.sum(), 4.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.len(), 4);
    }
}
