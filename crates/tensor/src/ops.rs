//! Transformer-oriented numerical operations: softmax, GELU, layer
//! normalization statistics, and their derivatives.

use crate::Tensor;

/// `sqrt(2/pi)` constant used by the tanh GELU approximation.
const SQRT_2_OVER_PI: f32 = 0.797_884_6;

/// Branch-free rational `tanh` approximation (odd 13th-order numerator
/// over even 6th-order denominator, inputs clamped to the range where
/// `tanh` saturates in `f32`).
///
/// `f32::tanh` lowers to a scalar libm call that LLVM cannot vectorize,
/// which made the GELU pass cost ~⅓ of the *GEMM* it follows at FFN
/// widths (≈42 ms vs 144 ms per 1024×3072 activation on the bench
/// machine). This polynomial is pure mul/add/div, so elementwise loops
/// over it autovectorize. Absolute error is below `1e-6` across the
/// clamped range — indistinguishable at `f32` GELU scale — and it is
/// exactly odd (`fast_tanh(0) == 0`, `fast_tanh(-x) == -fast_tanh(x)`).
///
/// This is the **single** scalar tanh used by [`gelu`], [`gelu_grad`],
/// and the GEMM epilogue ops, so fused and unfused execution of the same
/// op chain stay bit-identical.
pub fn fast_tanh(x: f32) -> f32 {
    /// `tanh` is 1.0 in `f32` beyond this; clamping also keeps the
    /// polynomials in their fitted range.
    const CLAMP: f32 = 7.905_311;
    const A1: f32 = 4.893_525e-3;
    const A3: f32 = 6.372_619_3e-4;
    const A5: f32 = 1.485_722_4e-5;
    const A7: f32 = 5.122_297e-8;
    const A9: f32 = -8.604_672e-11;
    const A11: f32 = 2.000_188e-13;
    const A13: f32 = -2.760_768_5e-16;
    const B0: f32 = 4.893_525_3e-3;
    const B2: f32 = 2.268_434_6e-3;
    const B4: f32 = 1.185_347_1e-4;
    const B6: f32 = 1.198_258_4e-6;
    let x = x.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    let p = ((((((A13 * x2 + A11) * x2 + A9) * x2 + A7) * x2 + A5) * x2 + A3) * x2 + A1) * x;
    let q = ((B6 * x2 + B4) * x2 + B2) * x2 + B0;
    p / q
}

/// Gaussian error linear unit, tanh approximation (the variant used by BERT
/// and Megatron-LM), with the tanh computed by [`fast_tanh`] so
/// elementwise GELU passes and fused GEMM epilogues vectorize — and agree
/// bitwise, since both call this exact scalar function.
///
/// # Examples
///
/// ```
/// use actcomp_tensor::ops::gelu;
/// assert!(gelu(0.0).abs() < 1e-7);
/// assert!((gelu(3.0) - 3.0).abs() < 0.01);
/// ```
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + fast_tanh(SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)))
}

/// Derivative of [`gelu`] with respect to its input.
pub fn gelu_grad(x: f32) -> f32 {
    let x3 = 0.044715 * x * x * x;
    let inner = SQRT_2_OVER_PI * (x + x3);
    let t = fast_tanh(inner);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * x * x)
}

/// Row-wise softmax, in place, of `x` read as rows of `n`: each row is
/// numerically stabilized by subtracting its max. The arithmetic of
/// [`Tensor::softmax_rows`], on a caller-owned (e.g. leased) buffer.
pub fn softmax_rows_in_place(x: &mut [f32], n: usize) {
    for row in x.chunks_exact_mut(n.max(1)) {
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0;
        for v in row.iter_mut() {
            *v = (*v - mx).exp();
            z += *v;
        }
        for v in row.iter_mut() {
            *v /= z;
        }
    }
}

/// Backward of row-wise softmax, in place: given `p = softmax(x)` as rows
/// of `n`, turns the upstream gradient `dp` into `dx = p ⊙ (dp − (p · dp))`
/// per row. The arithmetic of [`Tensor::softmax_rows_backward`].
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn softmax_rows_backward_in_place(p: &[f32], dp: &mut [f32], n: usize) {
    assert_eq!(p.len(), dp.len(), "softmax backward shape mismatch");
    let n = n.max(1);
    for (p, dp) in p.chunks_exact(n).zip(dp.chunks_exact_mut(n)) {
        let dot: f32 = p.iter().zip(dp.iter()).map(|(&a, &b)| a * b).sum();
        for (d, &pj) in dp.iter_mut().zip(p) {
            *d = pj * (*d - dot);
        }
    }
}

impl Tensor {
    /// Applies [`gelu`] elementwise.
    pub fn gelu(&self) -> Tensor {
        self.map(gelu)
    }

    /// Row-wise softmax of an `[m, n]` matrix, numerically stabilized by
    /// subtracting each row's max.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(
            self.rank(),
            2,
            "softmax_rows requires rank 2, got {}",
            self.shape()
        );
        let mut out = self.clone();
        softmax_rows_in_place(out.as_mut_slice(), self.dims()[1]);
        out
    }

    /// Backward pass of row-wise softmax: given `p = softmax(x)` and the
    /// upstream gradient `dp`, returns `dx`.
    ///
    /// Uses the standard Jacobian-vector identity
    /// `dx = p ⊙ (dp − (p · dp))` per row.
    ///
    /// # Panics
    ///
    /// Panics on rank or shape mismatch.
    pub fn softmax_rows_backward(probs: &Tensor, dprobs: &Tensor) -> Tensor {
        assert_eq!(probs.rank(), 2, "softmax backward requires rank 2");
        assert!(
            probs.shape().same_as(dprobs.shape()),
            "softmax backward shape mismatch"
        );
        let mut out = dprobs.clone();
        softmax_rows_backward_in_place(probs.as_slice(), out.as_mut_slice(), probs.dims()[1]);
        out
    }

    /// Per-row mean and variance of an `[m, n]` matrix (population variance,
    /// as used by layer normalization).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn row_moments(&self) -> (Tensor, Tensor) {
        assert_eq!(self.rank(), 2, "row_moments requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut means = vec![0.0f32; m];
        let mut vars = vec![0.0f32; m];
        for i in 0..m {
            let row = &self.as_slice()[i * n..(i + 1) * n];
            let mean = row.iter().sum::<f32>() / n as f32;
            let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
            means[i] = mean;
            vars[i] = var;
        }
        (Tensor::from_vec(means, [m]), Tensor::from_vec(vars, [m]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_tanh_tracks_libm_tanh() {
        let mut x = -12.0f32;
        while x <= 12.0 {
            let got = fast_tanh(x);
            let want = (x as f64).tanh() as f32;
            assert!(
                (got - want).abs() < 1e-6,
                "x={x}: fast {got} vs libm {want}"
            );
            x += 0.0137;
        }
        assert_eq!(fast_tanh(0.0), 0.0);
        for &x in &[0.3f32, 1.7, 5.0, 20.0] {
            assert_eq!(fast_tanh(-x), -fast_tanh(x), "odd symmetry at {x}");
        }
        assert!(fast_tanh(1e6) <= 1.0 && fast_tanh(1e6) > 0.999_999);
    }

    #[test]
    fn gelu_reference_values() {
        // Reference values from the tanh-approximation formula.
        assert!((gelu(1.0) - 0.841192).abs() < 1e-4);
        assert!((gelu(-1.0) + 0.158808).abs() < 1e-4);
        assert!(gelu(10.0) - 10.0 < 1e-4);
        assert!(gelu(-10.0).abs() < 1e-4);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.5, 2.0, 4.0] {
            let h = 1e-3;
            let fd = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!(
                (gelu_grad(x) - fd).abs() < 1e-3,
                "x={x}: analytic {} vs fd {fd}",
                gelu_grad(x)
            );
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], [2, 3]);
        let p = x.softmax_rows();
        for i in 0..2 {
            let row = &p.as_slice()[i * 3..(i + 1) * 3];
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(row[0] < row[1] && row[1] < row[2]);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]);
        let y = x.add_scalar(100.0);
        assert!(x.softmax_rows().max_abs_diff(&y.softmax_rows()) < 1e-6);
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.1], [1, 4]);
        let dp = Tensor::from_vec(vec![0.5, -1.0, 0.25, 2.0], [1, 4]);
        let p = x.softmax_rows();
        let dx = Tensor::softmax_rows_backward(&p, &dp);
        let h = 1e-3;
        for j in 0..4 {
            let mut xp = x.clone();
            xp[j] += h;
            let mut xm = x.clone();
            xm[j] -= h;
            let fp: f32 = xp
                .softmax_rows()
                .as_slice()
                .iter()
                .zip(dp.as_slice())
                .map(|(&a, &b)| a * b)
                .sum();
            let fm: f32 = xm
                .softmax_rows()
                .as_slice()
                .iter()
                .zip(dp.as_slice())
                .map(|(&a, &b)| a * b)
                .sum();
            let fd = (fp - fm) / (2.0 * h);
            assert!((dx[j] - fd).abs() < 1e-3, "j={j}: {} vs {fd}", dx[j]);
        }
    }

    #[test]
    fn row_moments_known_values() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 4.0, 4.0], [2, 3]);
        let (mean, var) = x.row_moments();
        assert_eq!(mean.as_slice(), &[2.0, 4.0]);
        assert!((var[0] - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(var[1], 0.0);
    }
}
