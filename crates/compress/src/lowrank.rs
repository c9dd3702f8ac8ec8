//! Low-rank compression (PowerSGD-style), included as the paper's
//! *negative control*.
//!
//! The paper excludes low-rank compressors from the activation study
//! because Figure 2 shows activations are not low-rank: "applying gradient
//! compression techniques to activations is likely to result in a
//! significant loss of accuracy". This module makes that argument
//! executable — [`LowRank`] implements the subspace-iteration rank-`r`
//! factorization PowerSGD uses (Vogels et al. 2019), and the
//! `ablation_lowrank` bench shows it reconstructs *gradients* well and
//! *activations* poorly at equal rank.

use crate::{Compressed, Compressor, Payload};
use actcomp_tensor::{init, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Rank-`r` compressor: `X ≈ P Qᵀ` with `P = X Q_prev` orthonormalized and
/// `Q = Xᵀ P`, one subspace ("power") iteration per message, with the
/// previous `Q` reused across steps exactly as PowerSGD's warm start.
///
/// The wire message is the pair `(P [m×r], Q [n×r])` — `r(m+n)` floats
/// instead of `m·n`. Gradients flow straight-through (the factorization is
/// not differentiated; PowerSGD pairs it with error feedback instead —
/// wrap in [`crate::ErrorFeedback`] for that).
///
/// # Examples
///
/// ```
/// use actcomp_compress::{Compressor, LowRank};
/// use actcomp_tensor::Tensor;
///
/// let mut c = LowRank::new(1, 0);
/// // A rank-1 matrix round-trips (after a couple of warm-start steps).
/// let x = Tensor::from_vec(vec![1.0, 2.0, 2.0, 4.0], [2, 2]);
/// let mut y = c.round_trip(&x);
/// for _ in 0..3 {
///     y = c.round_trip(&x);
/// }
/// assert!(x.max_abs_diff(&y) < 1e-2);
/// ```
#[derive(Debug, Clone)]
pub struct LowRank {
    rank: usize,
    rng: ChaCha8Rng,
    /// Warm-started right factor from the previous compression.
    q_prev: Option<Tensor>,
}

impl LowRank {
    /// Creates a rank-`r` compressor.
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0`.
    pub fn new(rank: usize, seed: u64) -> Self {
        assert!(rank > 0, "LowRank requires rank > 0");
        LowRank {
            rank,
            rng: ChaCha8Rng::seed_from_u64(seed),
            q_prev: None,
        }
    }

    /// The configured rank.
    pub fn rank(&self) -> usize {
        self.rank
    }
}

impl Compressor for LowRank {
    fn name(&self) -> &'static str {
        "lowrank"
    }

    fn compress(&mut self, x: &Tensor) -> Compressed {
        assert_eq!(
            x.rank(),
            2,
            "LowRank input must be rank 2, got {}",
            x.shape()
        );
        let (m, n) = (x.dims()[0], x.dims()[1]);
        let r = self.rank.min(m).min(n);

        // Right factor: warm start or fresh Gaussian.
        let q = match &self.q_prev {
            Some(q) if q.dims() == [n, r] => q.clone(),
            _ => init::randn(&mut self.rng, [n, r], 1.0),
        };
        // One subspace iteration: P = orth(X Q); Q = Xᵀ P.
        let p = orthonormalize(&x.matmul(&q));
        let q = x.matmul_tn(&p); // [n, r]
        self.q_prev = Some(q.clone());

        // Pack (P, Q) into one dense payload; shape metadata disambiguates.
        let mut payload = Vec::with_capacity(m * r + n * r);
        payload.extend_from_slice(p.as_slice());
        payload.extend_from_slice(q.as_slice());
        Compressed::new(
            Payload::Dense(Tensor::from_vec(payload, [(m + n) * r])),
            x.shape().clone(),
        )
    }

    fn decompress(&self, msg: &Compressed) -> Tensor {
        let (m, n) = (msg.shape().dim(0), msg.shape().dim(1));
        match msg.payload() {
            Payload::Dense(flat) => {
                let r = flat.len() / (m + n);
                let p = Tensor::from_vec(flat.as_slice()[..m * r].to_vec(), [m, r]);
                let q = Tensor::from_vec(flat.as_slice()[m * r..].to_vec(), [n, r]);
                p.matmul_nt(&q)
            }
            _ => panic!("LowRank received a non-dense message"),
        }
    }

    fn fits(&self, msg: &Compressed) -> bool {
        match (msg.shape().dims(), msg.payload()) {
            (&[m, n], Payload::Dense(flat)) => {
                flat.rank() == 1 && flat.len().checked_rem(m + n) == Some(0)
            }
            _ => false,
        }
    }

    // Straight-through backward (PowerSGD treats compression error via EF,
    // not differentiation) — inherited default.
}

/// Gram–Schmidt orthonormalization of the columns of `a` (in f64 for
/// stability; degenerate columns become zero).
fn orthonormalize(a: &Tensor) -> Tensor {
    let (m, r) = (a.dims()[0], a.dims()[1]);
    let mut cols: Vec<Vec<f64>> = (0..r)
        .map(|j| (0..m).map(|i| a.as_slice()[i * r + j] as f64).collect())
        .collect();
    for j in 0..r {
        for k in 0..j {
            let dot: f64 = (0..m).map(|i| cols[j][i] * cols[k][i]).sum();
            let (head, tail) = cols.split_at_mut(j);
            for (cj, ck) in tail[0].iter_mut().zip(head[k].iter()) {
                *cj -= dot * ck;
            }
        }
        let norm: f64 = cols[j].iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 1e-12 {
            for v in &mut cols[j] {
                *v /= norm;
            }
        } else {
            cols[j].iter_mut().for_each(|v| *v = 0.0);
        }
    }
    let mut out = vec![0.0f32; m * r];
    for j in 0..r {
        for i in 0..m {
            out[i * r + j] = cols[j][i] as f32;
        }
    }
    Tensor::from_vec(out, [m, r])
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_tensor::linalg;

    fn low_rank_matrix(seed: u64, m: usize, n: usize, true_rank: usize) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let u = init::randn(&mut rng, [m, true_rank], 1.0);
        let v = init::randn(&mut rng, [true_rank, n], 1.0);
        u.matmul(&v)
    }

    #[test]
    fn orthonormalize_produces_orthonormal_columns() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let a = init::randn(&mut rng, [10, 3], 1.0);
        let q = orthonormalize(&a);
        let gram = q.matmul_tn(&q);
        assert!(gram.max_abs_diff(&Tensor::eye(3)) < 1e-4);
    }

    #[test]
    fn reconstructs_low_rank_matrices_well() {
        let x = low_rank_matrix(1, 16, 24, 2);
        let mut c = LowRank::new(2, 0);
        // Warm-started subspace iterations converge quickly.
        let mut y = c.round_trip(&x);
        for _ in 0..4 {
            y = c.round_trip(&x);
        }
        let rel = x.sub(&y).norm() / x.norm();
        assert!(rel < 0.02, "relative error {rel}");
    }

    #[test]
    fn fails_on_full_rank_matrices() {
        // The paper's Figure 2 argument: full-rank inputs (activations)
        // cannot be captured at low rank.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let x = init::randn(&mut rng, [24, 24], 1.0);
        let mut c = LowRank::new(2, 0);
        let mut y = c.round_trip(&x);
        for _ in 0..4 {
            y = c.round_trip(&x);
        }
        let rel = x.sub(&y).norm() / x.norm();
        assert!(rel > 0.5, "a dense Gaussian should not compress: {rel}");
    }

    #[test]
    fn wire_size_is_rank_linear() {
        let x = low_rank_matrix(3, 32, 64, 4);
        let mut c2 = LowRank::new(2, 0);
        let mut c8 = LowRank::new(8, 0);
        let b2 = c2.compress(&x).wire_bytes(2);
        let b8 = c8.compress(&x).wire_bytes(2);
        assert_eq!(b2, (32 + 64) * 2 * 2);
        assert_eq!(b8, (32 + 64) * 8 * 2);
        assert!(b8 < x.len() * 2, "rank 8 still compresses a 32x64 matrix");
    }

    #[test]
    fn rank_capped_by_matrix_dims() {
        let x = low_rank_matrix(4, 4, 6, 2);
        let mut c = LowRank::new(100, 0);
        let y = c.round_trip(&x); // must not panic; r clamps to 4
        assert_eq!(y.dims(), x.dims());
        assert!(x.sub(&y).norm() / x.norm() < 1e-3);
    }

    #[test]
    fn captures_energy_matching_svd_prefix() {
        // Reconstruction quality ≈ the top-r singular-value mass.
        let x = low_rank_matrix(5, 20, 20, 6);
        let sv = linalg::singular_values(&x);
        let captured: f32 = sv[..3].iter().map(|s| s * s).sum();
        let total: f32 = sv.iter().map(|s| s * s).sum();
        let mut c = LowRank::new(3, 0);
        let mut y = c.round_trip(&x);
        for _ in 0..6 {
            y = c.round_trip(&x);
        }
        let explained = 1.0 - x.sub(&y).sq_norm() / x.sq_norm();
        assert!(
            (explained - captured / total).abs() < 0.05,
            "explained {explained} vs svd prefix {}",
            captured / total
        );
    }
}
