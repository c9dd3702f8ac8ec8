//! Pipeline-parallel stage boundaries with activation compression (§3.3).

use crate::reduce::CommBytes;
use crate::tp::Sent;
use actcomp_compress::Compressor;
use actcomp_nn::Parameter;
use actcomp_tensor::Tensor;

/// A pipeline-stage boundary: the activation crossing it is compressed on
/// the sending stage and decompressed on the receiving stage.
///
/// The backward edge carries the gradient with respect to the boundary
/// activation; for sparsifiers it reuses the forward support and for the
/// auto-encoder it is the code-space gradient, so no *additional* loss is
/// introduced on the way back (the compressor's `backward` is the exact
/// adjoint of its lossy forward). The boundary keeps the last forward's
/// input and message for that backward, as [`crate::MpBert`] keeps one
/// micro-batch.
pub struct PipelineBoundary {
    compressor: Box<dyn Compressor>,
    bytes: CommBytes,
    sent: Option<Sent>,
}

impl std::fmt::Debug for PipelineBoundary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PipelineBoundary({})", self.compressor.name())
    }
}

impl PipelineBoundary {
    /// Creates a boundary with the given compressor.
    pub fn new(compressor: Box<dyn Compressor>) -> Self {
        PipelineBoundary {
            compressor,
            bytes: CommBytes::default(),
            sent: None,
        }
    }

    /// Sends `x` across the boundary: the receiving stage sees the
    /// compress→decompress round trip.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let msg = self.compressor.compress(x);
        self.bytes.add(CommBytes {
            wire: msg.wire_bytes(2),
            dense: x.len() * 2,
        });
        let y = self.compressor.decompress(&msg);
        self.sent = Some((x.clone(), msg));
        y
    }

    /// Sends the gradient back across the boundary, through the last
    /// forward's compression.
    ///
    /// # Panics
    ///
    /// Panics unless a forward came since the last backward.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (x, msg) = self.sent.take().expect("boundary backward without forward");
        self.compressor.backward(dy, &x, &msg)
    }

    /// Cumulative traffic accounting.
    pub fn bytes(&self) -> CommBytes {
        self.bytes
    }

    /// Visits compressor parameters (auto-encoder boundaries are
    /// trainable).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.compressor.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_compress::{Identity, Quantizer, TopK};
    use actcomp_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn identity_boundary_is_transparent() {
        let mut b = PipelineBoundary::new(Box::new(Identity::new()));
        let x = Tensor::ones([4, 8]);
        assert_eq!(b.forward(&x), x);
        assert_eq!(b.backward(&x), x);
        assert_eq!(b.bytes().ratio(), 1.0);
    }

    #[test]
    fn compressed_boundary_reduces_traffic() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let x = init::randn(&mut rng, [16, 32], 1.0);
        let mut b = PipelineBoundary::new(Box::new(Quantizer::new(4)));
        let y = b.forward(&x);
        assert!(x.max_abs_diff(&y) > 0.0);
        assert!(b.bytes().ratio() > 3.0, "ratio {}", b.bytes().ratio());
    }

    #[test]
    fn traffic_accumulates_across_sends() {
        let mut b = PipelineBoundary::new(Box::new(TopK::new(4)));
        let x = Tensor::ones([8, 8]);
        let _ = b.forward(&x);
        let w1 = b.bytes().wire;
        let _ = b.forward(&x);
        assert_eq!(b.bytes().wire, 2 * w1);
    }

    #[test]
    fn backward_respects_forward_support() {
        let mut b = PipelineBoundary::new(Box::new(TopK::new(1)));
        let x = Tensor::from_vec(vec![5.0, 1.0], [1, 2]);
        let _ = b.forward(&x);
        let dx = b.backward(&Tensor::ones([1, 2]));
        assert_eq!(dx.as_slice(), &[1.0, 0.0]);
    }
}
