//! # actcomp-runtime
//!
//! A real multi-threaded model-parallel execution engine for the
//! `actcomp` reproduction of *"Does Compressing Activations Help Model
//! Parallel Training?"* (MLSys 2024).
//!
//! Where `actcomp-mp` executes model parallelism in one thread (every
//! worker's shard and ring endpoint driven in-process) and
//! `actcomp-distsim` only *costs* it, this crate runs one OS thread or
//! process per model-parallel rank and moves activations between them
//! as real messages over framed transport channels:
//!
//! - each rank runs an [`actcomp_mp::Block`] over its own
//!   tensor-parallel shard of each layer of its pipeline stage — the
//!   block the serial executor runs over every shard — and sums its
//!   partials through the same [`actcomp_mp::Ring`];
//! - the compressed all-reduce (summable auto-encoder codes) and
//!   compressed all-gather (Top-K / Random-K / quantized messages) are
//!   [`actcomp_mp::ring`]'s one interpreter, which a rank drives over
//!   its own endpoint ([`TpGroup`]) where the serial executor drives
//!   every worker's in one thread;
//! - every rank executes its GPipe step list — micro-batch inputs,
//!   boundary messages, stage broadcasts, blocks and grad syncs —
//!   from [`actcomp_check::steps::rank_steps`], the list the
//!   comm-protocol proof walks;
//! - every rank keeps per-phase wall-clock timers
//!   (compute/encode/wire/decode), aggregated into a [`RuntimeReport`]
//!   and emitted as `BENCH_runtime.json`.
//!
//! The engine is deterministic given a seed — every collective reduces
//! in rank order, a dense sum with the rounded fold
//! [`wire_sum`](actcomp_mp::wire_sum) describes, per-rank RNGs are
//! `ChaCha8` streams — and bit-identical to the serial
//! [`MpBert`](actcomp_mp::MpBert) (test-enforced).
//!
//! # Example
//!
//! ```
//! use actcomp_runtime::{RuntimeConfig, ThreadedRuntime};
//! use actcomp_mp::MpConfig;
//! use actcomp_compress::plan::CompressionPlan;
//! use actcomp_nn::BertConfig;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let cfg = RuntimeConfig {
//!     mp: MpConfig {
//!         bert: BertConfig { vocab: 32, hidden: 16, layers: 4, heads: 4, ff_hidden: 32, max_seq: 8 },
//!         tp: 2,
//!         pp: 2,
//!         plan: CompressionPlan::none(),
//!         tokens: 8,
//!         error_feedback: false,
//!     },
//!     micro_batches: 2,
//!     tuning: None,
//!     trace: false,
//! };
//! let mut rt = ThreadedRuntime::new(&mut rng, cfg).expect("valid config");
//! let hidden = rt.forward(&[1, 2, 3, 4, 5, 6, 7, 8], 2, 4).expect("valid step");
//! assert_eq!(hidden.dims(), &[8, 16]);
//! let report = rt.report();
//! assert!(report.totals.total_s() > 0.0);
//! ```
//!
//! # Backends and errors
//!
//! [`ThreadedRuntime`] (one rank thread each) and [`ProcsRuntime`] (one
//! worker process each) are handles on one driver: the same step
//! operations, the same input checks and the one error type,
//! [`RuntimeError`]. A rank lost mid-step — a closed channel or
//! connection, a link that failed under it — is
//! [`RuntimeError::RankLost`] on either backend, never a panic in the
//! caller or a hang; the serving engine wraps it as
//! [`ServeError::Engine`].
//!
//! # Conformance auditing
//!
//! With [`RuntimeConfig::trace`] set, every rank records its sends and
//! receives in the vocabulary of `actcomp-check`'s static message-flow
//! graph; [`ThreadedRuntime::take_trace`] drains the per-rank sequences
//! and [`actcomp_check::audit_trace`] replays them against the graph,
//! proving the run performed exactly the statically verified protocol.

#![warn(missing_docs)]

pub mod comm;
pub mod config;
mod driver;
mod link;
pub mod procs;
mod rank;
pub mod report;
mod runtime;
pub mod serve;
pub mod shard;
pub mod supervisor;
mod trace;
mod wire;

pub use comm::{RingTuning, TpGroup};
pub use config::{RuntimeConfig, RuntimeError};
pub use procs::{run_worker, ProcsOptions, ProcsRuntime, WorkerArgs};
pub use rank::RankGrads;
pub use report::{PhaseTimers, RankReport, RuntimeReport};
pub use runtime::ThreadedRuntime;
pub use serve::{
    run_load, Arrival, LoadConfig, LoadReport, ServeBackend, ServeConfig, ServeEngine, ServeError,
    ServeHandle, ServeStats, Ticket,
};
pub use shard::ShardError;
pub use supervisor::{supervise, RecoveryEvent, RecoveryTrace, SuperviseOptions};
