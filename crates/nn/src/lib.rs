//! # actcomp-nn
//!
//! Neural-network layers with explicit, layer-wise backpropagation — the
//! training stack underneath the `actcomp` reproduction of *"Does
//! Compressing Activations Help Model Parallel Training?"* (MLSys 2024).
//!
//! The paper fine-tunes and pre-trains BERT-style encoders with compression
//! operators spliced into model-parallel boundaries. This crate provides
//! the serial reference implementation of that architecture:
//!
//! - primitive layers ([`Linear`], [`LayerNorm`], [`Gelu`], [`Dropout`])
//!   implementing the [`Layer`] forward/backward contract, and the
//!   [`Embedding`] lookup table,
//! - [`MultiHeadAttention`] with a complete manual backward pass,
//! - one entry point per op: a layer op takes the caller's
//!   [`actcomp_tensor::Workspace`] (a rank or the serial model-parallel
//!   executor keeps one), while the model-level methods ([`EncoderLayer`],
//!   [`BertEncoder`], the heads) and [`loss::softmax_cross_entropy`] run on
//!   the thread's default workspace,
//! - the [`transformer`] module: encoder blocks, [`BertEncoder`], and
//!   classification / regression / MLM heads,
//! - [`graphs`]: the one catalogue of op-graph segments these layers, the
//!   `actcomp-mp` shards and the runtime's ranks compile and run,
//! - [`loss`] functions and [`optim`] (Adam/AdamW, used by the accuracy
//!   harnesses; the runtime's SGD step is a plain `axpy` with no state),
//! - [`testutil`]: finite-difference gradient checking used by this crate
//!   and by `actcomp-mp` to validate compression-in-the-graph layers.
//!
//! Every layer's gradients are verified against central finite differences
//! in its unit tests.
//!
//! # Example
//!
//! ```
//! use actcomp_nn::{BertConfig, BertEncoder};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut cfg = BertConfig::tiny();
//! cfg.layers = 2;
//! let mut model = BertEncoder::new(&mut rng, cfg);
//! let hidden = model.forward(&[1, 2, 3, 4], 1, 4); // batch 1, seq 4
//! assert_eq!(hidden.dims(), &[4, 64]);
//! ```

#![warn(missing_docs)]

mod activation;
mod attention;
mod dropout;
mod embedding;
pub mod graphs;
mod layernorm;
mod linear;
mod module;

pub mod loss;
pub mod optim;
mod schedule;
pub mod testutil;
pub mod transformer;

pub use activation::{Gelu, Relu, Tanh};
pub use attention::MultiHeadAttention;
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use layernorm::{LayerNorm, LnCache};
pub use linear::Linear;
pub use module::{Layer, Parameter};
pub use schedule::LrSchedule;
pub use transformer::{
    BertConfig, BertConfigError, BertEncoder, ClassifierHead, EncoderLayer, FeedForward, MlmHead,
};
