//! The dense, contiguous, row-major `f32` tensor at the heart of the crate.

use crate::Shape;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, contiguous, row-major tensor of `f32` values.
///
/// This is the working type of the whole `actcomp` workspace: activations,
/// weights, gradients and compressed-message payloads are all `Tensor`s.
/// The representation is a flat `Vec<f32>` plus a [`Shape`]; tensors are
/// always contiguous, so reshaping is free and transposition materializes.
///
/// Most operations panic on shape mismatches (documented per method) —
/// shape errors are programming errors in this workspace, not recoverable
/// conditions.
///
/// # Examples
///
/// ```
/// use actcomp_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.as_slice(), a.as_slice());
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the number of elements implied
    /// by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer of {} elements cannot form tensor of shape {shape}",
            data.len()
        );
        Tensor { data, shape }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(value: f32, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        Self::full(0.0, shape)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(1.0, shape)
    }

    /// Creates a zero tensor with the same shape as `other`.
    pub fn zeros_like(other: &Tensor) -> Self {
        Self::zeros(other.shape.clone())
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: impl Into<Shape>, f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let data = (0..shape.len()).map(f).collect();
        Tensor { data, shape }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false; see [`Shape::is_empty`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The flat row-major data buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major data buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or of the wrong rank.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or of the wrong rank.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// This is free: the buffer is moved, not copied.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            self.data.len(),
            shape.len(),
            "cannot reshape {} elements into {shape}",
            self.data.len()
        );
        Tensor {
            data: self.data,
            shape,
        }
    }

    /// Returns a reshaped copy without consuming `self`.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshaped(&self, shape: impl Into<Shape>) -> Self {
        self.clone().reshape(shape)
    }

    /// Transposes a rank-2 tensor, materializing the result.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose2(&self) -> Self {
        assert_eq!(
            self.rank(),
            2,
            "transpose2 requires rank 2, got {}",
            self.shape
        );
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, [n, m])
    }

    /// Copies rows `start..end` of a rank-≥1 tensor (along axis 0).
    ///
    /// # Panics
    ///
    /// Panics if `start >= end` or `end` exceeds the first dimension.
    pub fn slice_rows(&self, start: usize, end: usize) -> Self {
        assert!(self.rank() >= 1, "slice_rows requires rank >= 1");
        let d0 = self.shape.dim(0);
        assert!(
            start < end && end <= d0,
            "row range {start}..{end} out of bounds for first dim {d0}"
        );
        let row = self.len() / d0;
        let mut dims = self.dims().to_vec();
        dims[0] = end - start;
        Tensor::from_vec(self.data[start * row..end * row].to_vec(), dims)
    }

    /// Concatenates tensors along axis 0. All trailing dims must agree.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or trailing dimensions disagree.
    pub fn concat_rows(parts: &[&Tensor]) -> Self {
        assert!(!parts.is_empty(), "concat_rows of zero tensors");
        let trailing = &parts[0].dims()[1..];
        let mut d0 = 0;
        for p in parts {
            assert_eq!(
                &p.dims()[1..],
                trailing,
                "concat_rows trailing dims mismatch"
            );
            d0 += p.dims()[0];
        }
        let mut data = Vec::with_capacity(d0 * trailing.iter().product::<usize>());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        let mut dims = vec![d0];
        dims.extend_from_slice(trailing);
        Tensor::from_vec(data, dims)
    }

    /// Concatenates rank-2 tensors along axis 1 (columns).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, any part is not rank 2, or row counts
    /// disagree.
    pub fn concat_cols(parts: &[&Tensor]) -> Self {
        assert!(!parts.is_empty(), "concat_cols of zero tensors");
        let m = parts[0].dims()[0];
        let mut n = 0;
        for p in parts {
            assert_eq!(p.rank(), 2, "concat_cols requires rank 2");
            assert_eq!(p.dims()[0], m, "concat_cols row count mismatch");
            n += p.dims()[1];
        }
        let mut data = Vec::with_capacity(m * n);
        for i in 0..m {
            for p in parts {
                let w = p.dims()[1];
                data.extend_from_slice(&p.data[i * w..(i + 1) * w]);
            }
        }
        Tensor::from_vec(data, [m, n])
    }

    /// Splits a rank-2 tensor into `k` equal column blocks.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or columns are not divisible by `k`.
    pub fn split_cols(&self, k: usize) -> Vec<Tensor> {
        assert_eq!(self.rank(), 2, "split_cols requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        assert!(
            k > 0 && n % k == 0,
            "{n} columns not divisible into {k} blocks"
        );
        let w = n / k;
        (0..k)
            .map(|b| {
                let mut data = Vec::with_capacity(m * w);
                for i in 0..m {
                    data.extend_from_slice(&self.data[i * n + b * w..i * n + (b + 1) * w]);
                }
                Tensor::from_vec(data, [m, w])
            })
            .collect()
    }

    /// Splits a tensor into `k` equal row blocks along axis 0.
    ///
    /// # Panics
    ///
    /// Panics if the first dimension is not divisible by `k`.
    pub fn split_rows(&self, k: usize) -> Vec<Tensor> {
        let d0 = self.shape.dim(0);
        assert!(
            k > 0 && d0.is_multiple_of(k),
            "{d0} rows not divisible into {k} blocks"
        );
        let h = d0 / k;
        (0..k)
            .map(|b| self.slice_rows(b * h, (b + 1) * h))
            .collect()
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic
    // ------------------------------------------------------------------

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Self {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise quotient.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn div(&self, other: &Tensor) -> Self {
        self.zip_with(other, |a, b| a / b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert!(
            self.shape.same_as(&other.shape),
            "shape mismatch {} vs {}",
            self.shape,
            other.shape
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Adds `alpha * other` into `self` in place (axpy).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert!(
            self.shape.same_as(&other.shape),
            "shape mismatch {} vs {}",
            self.shape,
            other.shape
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_assign(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|x| x + s)
    }

    /// Applies `f` to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert!(
            self.shape.same_as(&other.shape),
            "shape mismatch {} vs {}",
            self.shape,
            other.shape
        );
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Maximum element. Returns `f32::NEG_INFINITY` only for NaN-free input
    /// by construction (the tensor always has at least one element).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum absolute value.
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// L2 (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Sums each column of an `[m, n]` matrix, returning a length-`n` vector.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn sum_axis0(&self) -> Self {
        assert_eq!(self.rank(), 2, "sum_axis0 requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0; n];
        for i in 0..m {
            for (j, acc) in out.iter_mut().enumerate() {
                *acc += self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, [n])
    }

    /// Sums each row of an `[m, n]` matrix, returning a length-`m` vector.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn sum_axis1(&self) -> Self {
        assert_eq!(self.rank(), 2, "sum_axis1 requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0; m];
        for (i, acc) in out.iter_mut().enumerate() {
            *acc = self.data[i * n..(i + 1) * n].iter().sum();
        }
        Tensor::from_vec(out, [m])
    }

    /// Index of the maximum entry in each row of an `[m, n]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        (0..m)
            .map(|i| {
                let row = &self.data[i * n..(i + 1) * n];
                row.iter()
                    .enumerate()
                    .fold((0, f32::NEG_INFINITY), |(bi, bv), (j, &v)| {
                        if v > bv {
                            (j, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Whether every element is finite (no NaN/inf).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute elementwise difference from `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert!(
            self.shape.same_as(&other.shape),
            "shape mismatch {} vs {}",
            self.shape,
            other.shape
        );
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }
}

impl Index<usize> for Tensor {
    type Output = f32;

    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Tensor {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}", self.shape)?;
        if self.len() <= 16 {
            write!(f, ", {:?}", self.data)?;
        } else {
            write!(
                f,
                ", [{:.4}, {:.4}, ... {:.4}]",
                self.data[0],
                self.data[1],
                self.data[self.len() - 1]
            )?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        assert_eq!(t.at(&[0, 2]), 3.0);
        assert_eq!(t.at(&[1, 0]), 4.0);
        assert_eq!(t.len(), 6);
        let mut t = t;
        t.set(&[1, 2], 9.0);
        assert_eq!(t.at(&[1, 2]), 9.0);
    }

    #[test]
    #[should_panic(expected = "cannot form tensor")]
    fn from_vec_checks_len() {
        Tensor::from_vec(vec![1.0; 5], [2, 3]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], [3]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).as_slice(), &[4.0, 2.5, 2.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones([4]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]);
        a.axpy(-0.5, &g);
        assert_eq!(a.as_slice(), &[0.5, 0.0, -0.5, -1.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), [3, 4]);
        let at = a.transpose2();
        assert_eq!(at.dims(), &[4, 3]);
        assert_eq!(at.at(&[1, 2]), a.at(&[2, 1]));
        assert_eq!(at.transpose2(), a);
    }

    #[test]
    fn slicing_and_concat() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), [4, 3]);
        let top = a.slice_rows(0, 2);
        let bottom = a.slice_rows(2, 4);
        assert_eq!(Tensor::concat_rows(&[&top, &bottom]), a);
    }

    #[test]
    fn split_concat_cols_round_trip() {
        let a = Tensor::from_vec((0..24).map(|x| x as f32).collect(), [4, 6]);
        let parts = a.split_cols(3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].dims(), &[4, 2]);
        let refs: Vec<&Tensor> = parts.iter().collect();
        assert_eq!(Tensor::concat_cols(&refs), a);
    }

    #[test]
    fn split_rows_round_trip() {
        let a = Tensor::from_vec((0..24).map(|x| x as f32).collect(), [6, 4]);
        let parts = a.split_rows(2);
        let refs: Vec<&Tensor> = parts.iter().collect();
        assert_eq!(Tensor::concat_rows(&refs), a);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], [2, 2]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -4.0);
        assert_eq!(a.abs_max(), 4.0);
        assert_eq!(a.sum_axis0().as_slice(), &[4.0, -6.0]);
        assert_eq!(a.sum_axis1().as_slice(), &[-1.0, -1.0]);
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let a = Tensor::from_vec(vec![1.0, 3.0, 2.0, 5.0, 5.0, 0.0], [2, 3]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn reshape_is_free_and_checked() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), [2, 3]);
        let b = a.clone().reshape([3, 2]);
        assert_eq!(b.dims(), &[3, 2]);
        assert_eq!(b.as_slice(), a.as_slice());
    }

    #[test]
    fn finite_checks() {
        let mut a = Tensor::ones([3]);
        assert!(a.all_finite());
        a[1] = f32::NAN;
        assert!(!a.all_finite());
    }
}
