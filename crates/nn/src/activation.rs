//! Elementwise activation layers.

use crate::{Layer, Parameter};
use actcomp_tensor::{ops, Tensor, Workspace};

/// GELU activation layer (tanh approximation), caching its input.
///
/// # Examples
///
/// ```
/// use actcomp_nn::{Gelu, Layer};
/// use actcomp_tensor::{Tensor, Workspace};
///
/// let mut g = Gelu::new();
/// let y = g.forward(&Tensor::from_vec(vec![-2.0, 0.0, 2.0], [1, 3]), &mut Workspace::new());
/// assert!(y[1].abs() < 1e-7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    cache_x: Option<Tensor>,
}

impl Gelu {
    /// Creates a GELU layer.
    pub fn new() -> Self {
        Gelu { cache_x: None }
    }
}

impl Layer for Gelu {
    fn forward(&mut self, x: &Tensor, _ws: &mut Workspace) -> Tensor {
        self.cache_x = Some(x.clone());
        x.gelu()
    }

    fn backward(&mut self, dy: &Tensor, _ws: &mut Workspace) -> Tensor {
        let x = self
            .cache_x
            .take()
            .expect("Gelu::backward called without forward");
        x.map(ops::gelu_grad).mul(dy)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Parameter)) {}
}

/// ReLU activation layer, caching its input sign pattern.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cache_x: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { cache_x: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, _ws: &mut Workspace) -> Tensor {
        self.cache_x = Some(x.clone());
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, dy: &Tensor, _ws: &mut Workspace) -> Tensor {
        let x = self
            .cache_x
            .take()
            .expect("Relu::backward called without forward");
        x.zip_with(dy, |xv, d| if xv > 0.0 { d } else { 0.0 })
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Parameter)) {}
}

/// Tanh activation layer, caching its output.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cache_y: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh { cache_y: None }
    }
}

impl Layer for Tanh {
    fn forward(&mut self, x: &Tensor, _ws: &mut Workspace) -> Tensor {
        let y = x.map(f32::tanh);
        self.cache_y = Some(y.clone());
        y
    }

    fn backward(&mut self, dy: &Tensor, _ws: &mut Workspace) -> Tensor {
        let y = self
            .cache_y
            .take()
            .expect("Tanh::backward called without forward");
        y.zip_with(dy, |yv, d| (1.0 - yv * yv) * d)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Parameter)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::grad_check_layer;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn gelu_grad_check() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        grad_check_layer(Gelu::new(), [3, 5], 2e-2, &mut rng);
    }

    #[test]
    fn relu_forward_and_grad() {
        let mut r = Relu::new();
        let ws = &mut Workspace::new();
        let y = r.forward(&Tensor::from_vec(vec![-1.0, 2.0], [1, 2]), ws);
        assert_eq!(y.as_slice(), &[0.0, 2.0]);
        let dx = r.backward(&Tensor::ones([1, 2]), ws);
        assert_eq!(dx.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn tanh_grad_check() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        grad_check_layer(Tanh::new(), [2, 4], 2e-2, &mut rng);
    }
}
