//! # actcomp-compress
//!
//! The four activation-compression families the paper evaluates —
//! sparsification (Top-K / Random-K), quantization, and learning-based
//! auto-encoders — plus identity (no compression) and an error-feedback
//! wrapper (§3.3).
//!
//! A [`Compressor`] turns an activation tensor into a [`Compressed`]
//! message with an accountable wire size, and back. Because compression
//! sits *inside* the training graph (unlike gradient compression), every
//! compressor also defines a backward rule:
//!
//! - Top-K / Random-K: gradients flow only through kept elements (the
//!   message's indices),
//! - quantization: straight-through estimator,
//! - auto-encoder: exact gradients through the encoder/decoder matrices,
//!   which are trainable parameters visited alongside the model's.
//!
//! A compressor holds no per-call state: its backward takes the input
//! and the message of the forward it differentiates, which the caller
//! keeps with its other activations. Each compressor also says which
//! messages it can decode ([`Compressor::fits`]), so a receiver refuses
//! a foreign code instead of panicking in `decompress`.
//!
//! [`spec`] maps the paper's Table 1 notation (`A1`, `T3`, `Q2`, …) to
//! configured compressors, and [`cost`] models the encode/decode latency
//! each algorithm costs on a V100, calibrated to the paper's breakdown
//! tables.
//!
//! # Example
//!
//! ```
//! use actcomp_compress::{Compressor, TopK};
//! use actcomp_tensor::Tensor;
//!
//! let mut c = TopK::new(2);
//! let x = Tensor::from_vec(vec![0.1, -5.0, 0.2, 4.0], [2, 2]);
//! let msg = c.compress(&x);
//! assert!(c.fits(&msg));
//! let xhat = c.decompress(&msg);
//! assert_eq!(xhat.as_slice(), &[0.0, -5.0, 0.0, 4.0]);
//! // Backward keeps the gradient where the message kept the value.
//! let dx = c.backward(&Tensor::ones([2, 2]), &x, &msg);
//! assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
//! // Two fp16 values + two u32 indices on the wire.
//! assert_eq!(msg.wire_bytes(2), 2 * 2 + 2 * 4);
//! ```

#![warn(missing_docs)]

mod autoencoder;
mod error_feedback;
mod identity;
mod lowrank;
mod message;
mod quant;
mod randk;
mod topk;

pub mod cost;
pub mod plan;
pub mod spec;

pub use autoencoder::AutoEncoder;
pub use error_feedback::ErrorFeedback;
pub use identity::Identity;
pub use lowrank::LowRank;
pub use message::{Compressed, Payload};
pub use plan::CompressionPlan;
pub use quant::Quantizer;
pub use randk::RandomK;
pub use topk::{pooled_select_beneficial, TopK};

use actcomp_nn::Parameter;
use actcomp_tensor::Tensor;

/// An activation compressor: the `C`/`DC` pair of the paper's Figure 3.
///
/// A compressor keeps only state that outlives a call: learnable
/// matrices, an error-feedback residual, a random stream, scratch
/// buffers, a warm start. Because activation compression lives inside
/// the training graph, [`Compressor::backward`] routes a gradient
/// through one earlier [`Compressor::compress`], and the caller hands
/// it what that call saw and sent: the input `x` and the message. The
/// caller keeps both where it keeps the rest of its activations, so
/// backward calls may come in any order, and a forward that no backward
/// follows (serving) leaves nothing behind in the codec.
///
/// A message that crossed a wire is decoded only if the receiving codec
/// [fits](Compressor::fits) it: the payload kind this codec emits, with
/// the dims (or bit width) it decodes at the message's shape.
///
/// The `Send` bound lets compressor instances move into per-rank worker
/// threads (`actcomp-runtime` gives every model-parallel rank its own
/// instance).
pub trait Compressor: Send {
    /// Human-readable algorithm name (e.g. `"topk"`).
    fn name(&self) -> &'static str;

    /// Encodes an activation tensor into a wire message.
    fn compress(&mut self, x: &Tensor) -> Compressed;

    /// Decodes a wire message back into a dense activation of the
    /// message's shape.
    ///
    /// # Panics
    ///
    /// May panic on a message the codec does not
    /// [fit](Compressor::fits).
    fn decompress(&self, msg: &Compressed) -> Tensor;

    /// Whether [`Compressor::decompress`] can decode `msg`: a payload of
    /// the kind this codec emits, with the dims (or bit width) this codec
    /// decodes at `msg`'s shape. Never panics; a receiver asks it of
    /// every code off a wire before decoding. A payload's consistency
    /// with its own shape (sparse indices inside it, a quantized code's
    /// length) is the wire decoder's check, which every such code has
    /// passed.
    fn fits(&self, msg: &Compressed) -> bool;

    /// Routes the upstream gradient `dy` through `decompress ∘ compress`
    /// of the call that compressed `x` into `msg`, accumulating
    /// gradients into any learnable compressor parameters, and returns
    /// the gradient with respect to `x`.
    ///
    /// The default is the straight-through estimator (gradient passes
    /// unchanged).
    fn backward(&mut self, dy: &Tensor, _x: &Tensor, _msg: &Compressed) -> Tensor {
        dy.clone()
    }

    /// Whether two compressed messages can be summed elementwise on the
    /// wire (required to participate in an all-reduce). True for linear
    /// codes (auto-encoder, identity); false for sparse and quantized
    /// messages, which must travel via all-gather instead (§3.2).
    fn summable(&self) -> bool {
        false
    }

    /// Visits learnable compressor parameters (the auto-encoder's encoder
    /// and decoder matrices). Default: none.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Parameter)) {}

    /// Convenience: compress-then-decompress (what the downstream layer
    /// actually receives).
    fn round_trip(&mut self, x: &Tensor) -> Tensor {
        let msg = self.compress(x);
        self.decompress(&msg)
    }
}

impl Compressor for Box<dyn Compressor> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn compress(&mut self, x: &Tensor) -> Compressed {
        (**self).compress(x)
    }

    fn decompress(&self, msg: &Compressed) -> Tensor {
        (**self).decompress(msg)
    }

    fn fits(&self, msg: &Compressed) -> bool {
        (**self).fits(msg)
    }

    fn backward(&mut self, dy: &Tensor, x: &Tensor, msg: &Compressed) -> Tensor {
        (**self).backward(dy, x, msg)
    }

    fn summable(&self) -> bool {
        (**self).summable()
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        (**self).visit_params(f)
    }
}
