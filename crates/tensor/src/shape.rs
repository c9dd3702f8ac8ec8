//! Shapes and index arithmetic for row-major dense tensors.

use std::fmt;

/// The dimensions of a [`crate::Tensor`], stored outermost-first.
///
/// A `Shape` is an immutable list of at most [`Shape::MAX_RANK`]
/// dimension sizes, held inline, so making or cloning one never
/// allocates. Tensors in this
/// crate are always contiguous and row-major, so strides are derived
/// rather than stored.
///
/// # Examples
///
/// ```
/// use actcomp_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.dim(1), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    /// The dimensions, then zeros.
    dims: [usize; Shape::MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Most dimensions a shape holds: the workspace's tensors have at
    /// most two, and four keeps a `Tensor` at 64 bytes.
    pub const MAX_RANK: usize = 4;

    /// Creates a shape from a list of dimension sizes.
    ///
    /// A zero-rank shape (`vec![]`) denotes a scalar with one element.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, or there are more than
    /// [`Shape::MAX_RANK`].
    pub fn new(dims: Vec<usize>) -> Self {
        Shape::from(&dims[..])
    }

    /// The dimension sizes, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims()[axis]
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// Whether the shape holds zero elements. Always false: zero-sized
    /// dimensions are rejected at construction, and a scalar has one element.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Row-major strides (elements, not bytes), outermost first.
    ///
    /// ```
    /// use actcomp_tensor::Shape;
    /// assert_eq!(Shape::new(vec![2, 3, 4]).strides(), vec![12, 4, 1]);
    /// ```
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.rank];
        for i in (0..self.rank.saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flat offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank differs from the shape rank or any
    /// coordinate is out of bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        let dims = self.dims();
        assert_eq!(
            index.len(),
            dims.len(),
            "index rank {} != shape rank {}",
            index.len(),
            dims.len()
        );
        let mut off = 0;
        let mut stride = 1;
        for axis in (0..dims.len()).rev() {
            assert!(
                index[axis] < dims[axis],
                "index {index:?} out of bounds for shape {dims:?}"
            );
            off += index[axis] * stride;
            stride *= dims[axis];
        }
        off
    }

    /// Whether two shapes have identical dimensions.
    pub fn same_as(&self, other: &Shape) -> bool {
        self == other
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= Shape::MAX_RANK && !dims.contains(&0),
            "zero-sized dimension, or more than {}, in shape {dims:?}",
            Shape::MAX_RANK
        );
        let mut inline = [0; Shape::MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        let rank = dims.len();
        Shape { dims: inline, rank }
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::from(&dims[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(vec![4]).strides(), vec![1]);
        assert_eq!(Shape::new(vec![2, 3]).strides(), vec![3, 1]);
        assert_eq!(Shape::new(vec![2, 3, 5]).strides(), vec![15, 5, 1]);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(vec![2, 3, 5]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 4]), 29);
        assert_eq!(s.offset(&[1, 0, 3]), 18);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(vec![]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn rejects_zero_dim() {
        Shape::new(vec![2, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_bounds_checked() {
        Shape::new(vec![2, 3]).offset(&[2, 0]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "[2x3]");
        assert_eq!(format!("{:?}", Shape::new(vec![7])), "Shape[7]");
    }
}
