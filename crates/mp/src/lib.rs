//! # actcomp-mp
//!
//! Numerically-real model-parallel execution for the `actcomp`
//! reproduction of *"Does Compressing Activations Help Model Parallel
//! Training?"* (MLSys 2024).
//!
//! Where `actcomp-distsim` *costs* model parallelism, this crate
//! *executes* it: encoder layers are genuinely sharded across
//! tensor-parallel workers (Megatron's column-then-row split), partial
//! activations are summed by ring collectives ([`ring`]) that run the
//! real compressor arithmetic, and pipeline stages exchange activations
//! through compressing [`PipelineBoundary`]s. With compression disabled
//! the whole stack is numerically equivalent to the serial `actcomp-nn`
//! model (tested), so the accuracy experiments isolate exactly the effect
//! the paper studies.
//!
//! The tensor-parallel layer is written once, as a [`Block`] over a
//! range of shards, and so are its collectives: one ring interpreter
//! ([`ring::Endpoint`]) behind one [`Reduce`] ([`Ring`]). The serial
//! [`MpBert`] runs a block over every shard and drives every worker's
//! endpoint in one thread ([`InProcess`]); each rank of the
//! `actcomp-runtime` engine runs one over its own shard and drives its
//! own endpoint over transport channels. Both build their compressors
//! from one [`CompressorRecipe`].
//!
//! - [`tp`]: the [`Block`] and the [`Reduce`] trait its executors fill in,
//! - [`shard`]: one worker's column/row shards and the fused plans they run,
//! - [`ring`]: the ring step lists, their interpreter and its links,
//! - [`reduce`]: the one [`Reduce`] over ring endpoints, byte accounting,
//!   and [`wire_sum`], the bfloat16 fold of every dense sum,
//! - [`timers`]: per-phase wall-clock accounting,
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
pub mod ring;
pub mod shard;
pub mod timers;
pub mod tp;

pub use error::{MpConfigError, ShardError};
pub use model::{stage_offsets, CompressorRecipe, MpBert, MpConfig};
pub use pp::PipelineBoundary;
pub use reduce::{rank_order_sum, wire_round, wire_sum, CommBytes, InProcess, Ring};
pub use ring::{Endpoint, Link, RingTuning};
pub use shard::{ColumnShard, RowShard};
pub use timers::{timed, PhaseTimers};
pub use tp::{Block, Reduce, SumPoint};
