//! The no-compression baseline.

use crate::{Compressed, Compressor, Payload};
use actcomp_tensor::Tensor;

/// Identity "compressor": sends the dense activation unchanged. This is the
/// paper's `w/o` baseline column.
///
/// # Examples
///
/// ```
/// use actcomp_compress::{Compressor, Identity};
/// use actcomp_tensor::Tensor;
///
/// let x = Tensor::ones([2, 3]);
/// assert_eq!(Identity::new().round_trip(&x), x);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Identity {
    /// Creates the identity compressor.
    pub fn new() -> Self {
        Identity
    }
}

impl Compressor for Identity {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn compress(&mut self, x: &Tensor) -> Compressed {
        Compressed::new(Payload::Dense(x.clone()), x.shape().clone())
    }

    fn decompress(&self, msg: &Compressed) -> Tensor {
        match msg.payload() {
            Payload::Dense(t) => t.clone(),
            _ => panic!("Identity received a non-dense message"),
        }
    }

    fn fits(&self, msg: &Compressed) -> bool {
        matches!(msg.payload(), Payload::Dense(t) if t.dims() == msg.shape().dims())
    }

    fn summable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_lossless_and_summable() {
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.5], [3]);
        let mut id = Identity::new();
        assert_eq!(id.round_trip(&x), x);
        assert!(id.summable());
        let msg = id.compress(&x);
        assert_eq!(msg.ratio(2), 1.0);
        assert_eq!(id.backward(&x, &x, &msg), x);
    }
}
