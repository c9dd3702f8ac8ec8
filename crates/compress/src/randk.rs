//! Random-K sparsification.

use crate::message::{kept_indices, scatter_sparse};
use crate::{Compressed, Compressor, Payload};
use actcomp_tensor::{pool, Tensor};
use rand::seq::index::sample;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Keeps `k` uniformly random entries, zeroing the rest (the paper's
/// `random.sample` baseline, §3.2).
///
/// Kept values are rescaled by `n/k` so the reconstruction is an unbiased
/// estimator of the input, as in sparsified-SGD (Stich et al., 2018).
/// Gradients flow only through the kept positions (with the same scaling),
/// which [`Compressor::backward`] reads off the message it is handed; the
/// codec itself keeps only its random stream.
///
/// # Examples
///
/// ```
/// use actcomp_compress::{Compressor, RandomK};
/// use actcomp_tensor::Tensor;
///
/// let mut c = RandomK::new(2, 42);
/// let y = c.round_trip(&Tensor::ones([8]));
/// // 2 of 8 elements survive, each scaled by 4.
/// assert_eq!(y.as_slice().iter().filter(|v| **v != 0.0).count(), 2);
/// assert!((y.sum() - 8.0).abs() < 1e-5);
/// ```
#[derive(Debug, Clone)]
pub struct RandomK {
    k: usize,
    rng: ChaCha8Rng,
}

impl RandomK {
    /// Keeps `k` random elements per tensor, drawn from a stream seeded
    /// with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "RandomK requires k > 0");
        RandomK {
            k,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The configured number of kept elements.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Compressor for RandomK {
    fn name(&self) -> &'static str {
        "randk"
    }

    fn compress(&mut self, x: &Tensor) -> Compressed {
        let n = x.len();
        let k = self.k.min(n);
        let mut indices: Vec<u32> = sample(&mut self.rng, n, k)
            .into_iter()
            .map(|i| i as u32)
            .collect();
        indices.sort_unstable();
        // Index *sampling* stays serial — the rng stream order is the
        // seeded-determinism contract — but the value gather+scale is a
        // pure per-position map, so it chunks over the pool.
        let scale = n as f32 / k as f32;
        let data = x.as_slice();
        let mut values = vec![0.0f32; k];
        let plan = pool::plan_unit_chunks(k, pool::configured_threads(), 2048);
        pool::run_on_chunks(&mut values, &plan, |v0, chunk| {
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = data[indices[v0 + j] as usize] * scale;
            }
        });
        Compressed::new(Payload::Sparse { values, indices }, x.shape().clone())
    }

    fn decompress(&self, msg: &Compressed) -> Tensor {
        match msg.payload() {
            Payload::Sparse { values, indices } => scatter_sparse(values, indices, msg.shape()),
            _ => panic!("RandomK received a non-sparse message"),
        }
    }

    fn fits(&self, msg: &Compressed) -> bool {
        matches!(msg.payload(), Payload::Sparse { .. })
    }

    fn backward(&mut self, dy: &Tensor, _x: &Tensor, msg: &Compressed) -> Tensor {
        let mask = kept_indices(msg);
        let scale = dy.len() as f32 / mask.len() as f32;
        let mut dx = Tensor::zeros_like(dy);
        for &i in mask {
            dx[i as usize] = dy[i as usize] * scale;
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_tensor::init;

    #[test]
    fn keeps_exactly_k() {
        let x = Tensor::ones([100]);
        let mut c = RandomK::new(10, 0);
        let y = c.round_trip(&x);
        assert_eq!(y.as_slice().iter().filter(|v| **v != 0.0).count(), 10);
    }

    #[test]
    fn reconstruction_is_unbiased() {
        // Average many independent reconstructions; should approach x.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let x = init::randn(&mut rng, [64], 1.0);
        let mut acc = Tensor::zeros_like(&x);
        let trials = 2000;
        let mut c = RandomK::new(16, 7);
        for _ in 0..trials {
            acc.add_assign(&c.round_trip(&x));
        }
        acc.scale_assign(1.0 / trials as f32);
        assert!(
            acc.max_abs_diff(&x) < 0.25,
            "bias {} too large",
            acc.max_abs_diff(&x)
        );
    }

    #[test]
    fn deterministic_by_seed() {
        let x = Tensor::ones([50]);
        let mut a = RandomK::new(5, 99);
        let mut b = RandomK::new(5, 99);
        assert_eq!(a.round_trip(&x), b.round_trip(&x));
        let mut cdiff = RandomK::new(5, 100);
        // Different seed virtually always picks a different support.
        assert_ne!(a.round_trip(&x), cdiff.round_trip(&x));
    }

    #[test]
    fn backward_masks_and_scales() {
        let x = Tensor::ones([10]);
        let mut c = RandomK::new(5, 3);
        let msg = c.compress(&x);
        let dx = c.backward(&Tensor::ones([10]), &x, &msg);
        let nz: Vec<f32> = dx
            .as_slice()
            .iter()
            .copied()
            .filter(|v| *v != 0.0)
            .collect();
        assert_eq!(nz.len(), 5);
        assert!(nz.iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }
}
