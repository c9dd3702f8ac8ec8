//! # actcomp-mp
//!
//! Numerically-real model-parallel execution for the `actcomp`
//! reproduction of *"Does Compressing Activations Help Model Parallel
//! Training?"* (MLSys 2024).
//!
//! Where `actcomp-distsim` *costs* model parallelism, this crate
//! *executes* it: encoder layers are genuinely sharded across simulated
//! tensor-parallel workers (Megatron's column-then-row split), partial
//! activations are summed through a [`CompressedAllReduce`] that runs the
//! real compressor arithmetic, and pipeline stages exchange activations
//! through compressing [`PipelineBoundary`]s. With compression disabled
//! the whole stack is numerically equivalent to the serial `actcomp-nn`
//! model (tested), so the accuracy experiments isolate exactly the effect
//! the paper studies.
//!
//! - [`reduce`]: compressed all-reduce / all-gather with byte accounting,
//! - [`shard`]: single-worker shard primitives (also the building blocks
//!   of the threaded `actcomp-runtime` engine),
//! - [`tp`]: sharded attention, MLP, and encoder blocks,
//! - [`pp`]: compressing stage boundaries,
//! - [`model`]: [`MpBert`] — the full model with a per-layer
//!   [`CompressionPlan`](actcomp_compress::CompressionPlan),
//! - [`error`]: typed configuration errors ([`MpConfigError`],
//!   [`ShardError`]).
//!
//! # Example
//!
//! ```
//! use actcomp_mp::{MpBert, MpConfig};
//! use actcomp_compress::{plan::CompressionPlan, spec::CompressorSpec};
//! use actcomp_nn::BertConfig;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let cfg = MpConfig {
//!     bert: BertConfig { vocab: 32, hidden: 16, layers: 4, heads: 4, ff_hidden: 32, max_seq: 8 },
//!     tp: 2,
//!     pp: 2,
//!     plan: CompressionPlan::last_layers(CompressorSpec::A2, 4, 2),
//!     tokens: 8,
//!     error_feedback: false,
//! };
//! let mut model = MpBert::new(&mut rng, cfg);
//! let hidden = model.forward(&[1, 2, 3, 4, 5, 6, 7, 8], 2, 4);
//! assert_eq!(hidden.dims(), &[8, 16]);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod model;
pub mod pp;
pub mod reduce;
pub mod shard;
pub mod tp;

pub use error::{MpConfigError, ShardError};
pub use model::{stage_offsets, MpBert, MpConfig};
pub use pp::PipelineBoundary;
pub use reduce::{rank_order_sum, CommBytes, CompressedAllReduce};
pub use shard::{ColumnShard, RowShard};
pub use tp::{TpAttention, TpEncoderLayer, TpFeedForward};
