//! Optimizers operating on [`Parameter`] collections.
//!
//! Optimizers hold per-parameter state keyed by visitation order, so a
//! model's `visit_params` traversal must be stable across steps (all models
//! in this workspace have a fixed layer structure, so it is).

use crate::Parameter;
use actcomp_tensor::Tensor;

/// A gradient-based parameter updater.
///
/// State (Adam's moments) is keyed by the order in which parameters are
/// visited, so use a stable traversal such as a model's `visit_params`.
pub trait Optimizer {
    /// Updates the `index`-th visited parameter from its gradient.
    fn update(&mut self, index: usize, param: &mut Parameter);
}

/// Drives one optimization step: visits every parameter through `visit`
/// and applies `opt` to each in order.
///
/// # Examples
///
/// ```
/// use actcomp_nn::{optim, Linear, Layer};
/// use actcomp_nn::optim::Adam;
/// use actcomp_tensor::{Tensor, Workspace};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mut layer = Linear::new(&mut rng, 4, 2);
/// let mut opt = Adam::new(0.1);
/// let ws = &mut Workspace::new();
/// layer.forward(&Tensor::ones([1, 4]), ws);
/// layer.backward(&Tensor::ones([1, 2]), ws);
/// opt.begin_step();
/// optim::step(&mut opt, |f| layer.visit_params(f));
/// ```
pub fn step<O: Optimizer + ?Sized>(
    opt: &mut O,
    visit: impl FnOnce(&mut dyn FnMut(&mut Parameter)),
) {
    let mut idx = 0;
    visit(&mut |p| {
        opt.update(idx, p);
        idx += 1;
    });
}

/// Adam / AdamW.
///
/// With `weight_decay > 0` this is AdamW: decay is decoupled from the
/// moment estimates.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    /// Decoupled weight decay coefficient.
    pub weight_decay: f32,
    step: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the standard betas `(0.9, 0.999)` and no decay.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Marks the beginning of a new optimization step (advances the bias
    /// correction counter). Call once per batch, before visiting params.
    pub fn begin_step(&mut self) {
        self.step += 1;
    }
}

impl Optimizer for Adam {
    fn update(&mut self, index: usize, param: &mut Parameter) {
        assert!(self.step > 0, "call Adam::begin_step before updating");
        while self.m.len() <= index {
            self.m.push(Tensor::zeros_like(&param.grad));
            self.v.push(Tensor::zeros_like(&param.grad));
        }
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        let (m, v) = (&mut self.m[index], &mut self.v[index]);
        let g = param.grad.as_slice();
        let pv = param.value.as_mut_slice();
        for i in 0..g.len() {
            let mi = self.beta1 * m[i] + (1.0 - self.beta1) * g[i];
            let vi = self.beta2 * v[i] + (1.0 - self.beta2) * g[i] * g[i];
            m[i] = mi;
            v[i] = vi;
            let mhat = mi / bc1;
            let vhat = vi / bc2;
            pv[i] -= self.lr * (mhat / (vhat.sqrt() + self.eps) + self.weight_decay * pv[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(vals: &[f32]) -> Parameter {
        Parameter::new(Tensor::from_vec(vals.to_vec(), [vals.len()]))
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(x) = (x - 3)²; gradient is 2(x - 3).
        let mut p = param(&[0.0]);
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            p.grad = Tensor::from_vec(vec![2.0 * (p.value[0] - 3.0)], [1]);
            opt.begin_step();
            opt.update(0, &mut p);
        }
        assert!((p.value[0] - 3.0).abs() < 0.05, "x = {}", p.value[0]);
    }

    #[test]
    fn adamw_decays_without_gradient() {
        let mut p = param(&[10.0]);
        let mut opt = Adam {
            weight_decay: 0.1,
            ..Adam::new(0.1)
        };
        for _ in 0..10 {
            p.zero_grad();
            opt.begin_step();
            opt.update(0, &mut p);
        }
        assert!(p.value[0] < 10.0, "weight decay should shrink the weight");
    }

    #[test]
    #[should_panic(expected = "begin_step")]
    fn adam_requires_begin_step() {
        let mut p = param(&[1.0]);
        Adam::new(0.1).update(0, &mut p);
    }
}
