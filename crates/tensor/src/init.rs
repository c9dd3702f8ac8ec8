//! Seeded weight initializers.
//!
//! All randomness in the workspace flows through explicit `Rng` arguments so
//! that every experiment is reproducible from a single seed.

use crate::{Shape, Tensor};
use rand::Rng;

/// Tensor with i.i.d. `N(0, std²)` entries.
///
/// # Examples
///
/// ```
/// use actcomp_tensor::init;
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let t = init::randn(&mut rng, [4, 4], 0.02);
/// assert_eq!(t.dims(), &[4, 4]);
/// ```
pub fn randn(rng: &mut impl Rng, shape: impl Into<Shape>, std: f32) -> Tensor {
    let shape = shape.into();
    let data = (0..shape.len()).map(|_| normal_sample(rng) * std).collect();
    Tensor::from_vec(data, shape)
}

/// Tensor with i.i.d. `U(lo, hi)` entries.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn uniform(rng: &mut impl Rng, shape: impl Into<Shape>, lo: f32, hi: f32) -> Tensor {
    assert!(lo < hi, "uniform bounds {lo} >= {hi}");
    let shape = shape.into();
    let data = (0..shape.len()).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(data, shape)
}

/// Xavier/Glorot uniform initialization for an `[fan_in, fan_out]` weight.
pub fn xavier_uniform(rng: &mut impl Rng, fan_in: usize, fan_out: usize) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(rng, [fan_in, fan_out], -bound, bound)
}

/// One standard-normal sample via Box–Muller.
fn normal_sample(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn randn_is_deterministic_by_seed() {
        let a = randn(&mut ChaCha8Rng::seed_from_u64(42), [8, 8], 1.0);
        let b = randn(&mut ChaCha8Rng::seed_from_u64(42), [8, 8], 1.0);
        assert_eq!(a, b);
        let c = randn(&mut ChaCha8Rng::seed_from_u64(43), [8, 8], 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn randn_moments_roughly_correct() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = randn(&mut rng, [100, 100], 2.0);
        let mean = t.mean();
        let var = t.map(|x| (x - mean) * (x - mean)).mean();
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let t = uniform(&mut rng, [1000], -0.5, 0.25);
        assert!(t.min() >= -0.5 && t.max() < 0.25);
    }

    #[test]
    fn xavier_bound_shrinks_with_fan() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let small = xavier_uniform(&mut rng, 4, 4);
        let large = xavier_uniform(&mut rng, 1024, 1024);
        assert!(small.abs_max() > large.abs_max());
    }
}
