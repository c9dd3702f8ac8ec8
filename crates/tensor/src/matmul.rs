//! Matrix multiplication methods on [`Tensor`], backed by the blocked
//! kernels in [`crate::kernels`].
//!
//! All variants pack their operands and run the register-tiled core from
//! `kernels`, with the pool size taken from [`crate::pool`] and scratch
//! leased from the thread-local default [`crate::Workspace`]. These are
//! the methods of callers that hold no workspace (codecs, linear algebra,
//! tests); a layer on a hot path runs its GEMMs inside a compiled plan
//! over its own workspace instead (each runtime rank keeps its own).
//!
//! ## Why there is no `av == 0.0` skip branch
//!
//! The seed kernels skipped the inner loop when the current `A` element
//! was zero — a win only for *sparse* operands. Activations and weights
//! in this codebase are dense essentially always (GELU outputs, attention
//! probabilities, Xavier-initialized weights), so the branch was pure
//! overhead: it cost a compare-and-branch per multiplier, defeated the
//! autovectorizer's ability to keep the pipeline full, and made runtime
//! data-dependent (bad for benchmarking). Dense code paths must pay for
//! the dense case only; the blocked kernels therefore multiply
//! unconditionally. (Top-K-compressed activations *are* sparse, but they
//! travel as index/value pairs, never through dense matmul.)

use crate::workspace;
use crate::{kernels, pool, Tensor};

impl Tensor {
    /// Matrix product `self @ other` for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank 2 or inner dimensions disagree.
    ///
    /// # Examples
    ///
    /// ```
    /// use actcomp_tensor::Tensor;
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
    /// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
    /// assert_eq!(a.matmul(&b).as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = dims2(self, "matmul lhs");
        let (k2, n) = dims2(other, "matmul rhs");
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        workspace::with_thread_default(|ws| {
            let mut out = ws.lease(m * n);
            kernels::gemm_nn(
                &mut out,
                false,
                self.as_slice(),
                other.as_slice(),
                m,
                k,
                n,
                pool::configured_threads(),
                ws,
            );
            Tensor::from_vec(out, [m, n])
        })
    }

    /// Matrix product `selfᵀ @ other` without materializing the transpose.
    ///
    /// `self` is `[k, m]`, `other` is `[k, n]`, result is `[m, n]`. This is
    /// the shape that weight gradients take (`xᵀ @ dy`), so having it as a
    /// primitive avoids a transpose copy in every backward pass.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank 2 or leading dimensions disagree.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (k, m) = dims2(self, "matmul_tn lhs");
        let (k2, n) = dims2(other, "matmul_tn rhs");
        assert_eq!(k, k2, "matmul_tn leading dims {k} vs {k2}");
        workspace::with_thread_default(|ws| {
            let mut out = ws.lease(m * n);
            kernels::gemm_tn(
                &mut out,
                false,
                self.as_slice(),
                other.as_slice(),
                k,
                m,
                n,
                pool::configured_threads(),
                ws,
            );
            Tensor::from_vec(out, [m, n])
        })
    }

    /// Accumulates `self += aᵀ @ b` in place — the gradient-accumulation
    /// primitive (`w.grad += xᵀ @ dy`) that saves both the temporary
    /// product tensor and the extra add pass.
    ///
    /// `a` is `[k, m]`, `b` is `[k, n]`, `self` is `[m, n]`.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    pub fn add_matmul_tn(&mut self, a: &Tensor, b: &Tensor) {
        let (k, m) = dims2(a, "add_matmul_tn lhs");
        let (k2, n) = dims2(b, "add_matmul_tn rhs");
        assert_eq!(k, k2, "add_matmul_tn leading dims {k} vs {k2}");
        let (sm, sn) = dims2(self, "add_matmul_tn out");
        assert_eq!((sm, sn), (m, n), "add_matmul_tn out dims");
        workspace::with_thread_default(|ws| {
            kernels::gemm_tn(
                self.as_mut_slice(),
                true,
                a.as_slice(),
                b.as_slice(),
                k,
                m,
                n,
                pool::configured_threads(),
                ws,
            );
        });
    }

    /// Matrix product `self @ otherᵀ` without materializing the transpose.
    ///
    /// `self` is `[m, k]`, `other` is `[n, k]`, result is `[m, n]`. This is
    /// the shape of input gradients (`dy @ wᵀ`) and attention scores
    /// (`q @ kᵀ`).
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank 2 or trailing dimensions disagree.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (m, k) = dims2(self, "matmul_nt lhs");
        let (n, k2) = dims2(other, "matmul_nt rhs");
        assert_eq!(k, k2, "matmul_nt trailing dims {k} vs {k2}");
        workspace::with_thread_default(|ws| {
            let mut out = ws.lease(m * n);
            kernels::gemm_nt(
                &mut out,
                false,
                self.as_slice(),
                other.as_slice(),
                m,
                k,
                n,
                pool::configured_threads(),
                ws,
            );
            Tensor::from_vec(out, [m, n])
        })
    }
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.rank(), 2, "{what} must be rank 2, got {}", t.shape());
    (t.dims()[0], t.dims()[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Tensor, b: &Tensor, tol: f32) {
        assert!(
            a.max_abs_diff(b) < tol,
            "tensors differ by {}",
            a.max_abs_diff(b)
        );
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), [3, 4]);
        approx_eq(&a.matmul(&Tensor::eye(4)), &a, 1e-6);
        approx_eq(&Tensor::eye(3).matmul(&a), &a, 1e-6);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32 * 0.5).collect(), [3, 2]);
        let b = Tensor::from_vec((0..12).map(|x| x as f32 * 0.25).collect(), [3, 4]);
        approx_eq(&a.matmul_tn(&b), &a.transpose2().matmul(&b), 1e-5);

        let c = Tensor::from_vec((0..8).map(|x| x as f32).collect(), [2, 4]);
        let d = Tensor::from_vec((0..12).map(|x| x as f32).collect(), [3, 4]);
        approx_eq(&c.matmul_nt(&d), &c.matmul(&d.transpose2()), 1e-5);
    }

    #[test]
    fn add_matmul_tn_accumulates() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32 * 0.5).collect(), [3, 2]);
        let b = Tensor::from_vec((0..12).map(|x| x as f32 * 0.25).collect(), [3, 4]);
        let mut grad = Tensor::ones([2, 4]);
        grad.add_matmul_tn(&a, &b);
        let mut want = Tensor::ones([2, 4]);
        want.add_assign(&a.matmul_tn(&b));
        approx_eq(&grad, &want, 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_checks_dims() {
        Tensor::ones([2, 3]).matmul(&Tensor::ones([4, 2]));
    }
}
