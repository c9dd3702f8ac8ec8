//! Inverted dropout.

use crate::{Layer, Parameter};
use actcomp_tensor::{Tensor, Workspace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Inverted dropout: during training, zeroes each element with probability
/// `p` and scales survivors by `1/(1−p)`; during evaluation it is the
/// identity.
///
/// Owns a seeded RNG so that training runs are reproducible.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    training: bool,
    rng: ChaCha8Rng,
    cache_mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability {p} not in [0, 1)"
        );
        Dropout {
            p,
            training: true,
            rng: ChaCha8Rng::seed_from_u64(seed),
            cache_mask: None,
        }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, _ws: &mut Workspace) -> Tensor {
        if !self.training || self.p == 0.0 {
            self.cache_mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let mask = Tensor::from_fn(x.shape().clone(), |_| {
            if self.rng.gen::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        let y = x.mul(&mask);
        self.cache_mask = Some(mask);
        y
    }

    fn backward(&mut self, dy: &Tensor, _ws: &mut Workspace) -> Tensor {
        match self.cache_mask.take() {
            Some(mask) => dy.mul(&mask),
            None => dy.clone(),
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Parameter)) {}

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        d.set_training(false);
        let x = Tensor::ones([4, 4]);
        let ws = &mut Workspace::new();
        assert_eq!(d.forward(&x, ws), x);
        assert_eq!(d.backward(&x, ws), x);
    }

    #[test]
    fn training_preserves_expectation() {
        let mut d = Dropout::new(0.3, 7);
        let x = Tensor::ones([100, 100]);
        let y = d.forward(&x, &mut Workspace::new());
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones([8, 8]);
        let ws = &mut Workspace::new();
        let y = d.forward(&x, ws);
        let dx = d.backward(&Tensor::ones([8, 8]), ws);
        assert_eq!(y, dx);
    }

    #[test]
    #[should_panic(expected = "not in [0, 1)")]
    fn rejects_bad_probability() {
        Dropout::new(1.0, 0);
    }
}
