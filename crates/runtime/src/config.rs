//! Configuration and the one typed error of both execution backends.

use crate::comm::RingTuning;
use crate::rank::Command;
use actcomp_check::collectives::resolved_ring_tuning;
use actcomp_check::ExperimentConfig;
use actcomp_mp::{MpConfig, MpConfigError};
use actcomp_net::TransportError;
use actcomp_nn::BertConfig;
use std::time::Duration;

/// Configuration of a threaded model-parallel run: the model-parallel
/// layout plus the GPipe micro-batch count.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RuntimeConfig {
    /// Model, parallel degrees, and compression plan (shared with the
    /// serial [`actcomp_mp::MpBert`] executor).
    pub mp: MpConfig,
    /// GPipe micro-batches per step. Must divide the batch size passed
    /// to `forward`. `1` reproduces the serial executor exactly.
    pub micro_batches: usize,
    /// Ring chunking/pipelining knobs for this engine instance — the
    /// only channel they travel by (the CLI's `--chunk-rows` /
    /// `--pipeline-depth` land here, and `procs` workers read them from
    /// the serialized config). `None` means [`RingTuning::default`].
    /// Optional in serialized form.
    pub tuning: Option<RingTuning>,
    /// Record every rank's comm events for conformance auditing against
    /// the static message-flow graph (`actcomp check --comm`). Off by
    /// default; tracing adds one vector push per send/recv.
    pub trace: bool,
}

impl RuntimeConfig {
    /// The engine configuration an experiment describes: its model,
    /// degrees and compression plan, `batch.micro_batch ×
    /// batch.seq` tokens a step, and the micro-batching, ring tuning
    /// and tracing of its run spec — the ring tuning resolved exactly
    /// as the static comm graph resolves it. `actcomp run`, `actcomp
    /// serve` and every `procs` worker derive their engine from this
    /// one function. `None` when the plan's spec label does not resolve
    /// (`AC0102`).
    pub fn of(cfg: &ExperimentConfig) -> Option<RuntimeConfig> {
        let spec = cfg.run_spec();
        let (chunk_rows, pipeline_depth) = resolved_ring_tuning(cfg);
        Some(RuntimeConfig {
            mp: MpConfig {
                bert: BertConfig {
                    vocab: cfg.model.vocab,
                    hidden: cfg.model.hidden,
                    layers: cfg.model.layers,
                    heads: cfg.model.heads,
                    ff_hidden: cfg.model.ff_hidden,
                    max_seq: cfg.model.max_seq,
                },
                tp: cfg.parallelism.tp,
                pp: cfg.parallelism.pp,
                plan: cfg.resolve_plan()?,
                tokens: cfg.batch.micro_batch * cfg.batch.seq,
                error_feedback: cfg.plan.error_feedback,
            },
            micro_batches: spec.micro_batches(),
            tuning: Some(RingTuning {
                chunk_rows,
                pipeline_depth,
            }),
            trace: spec.trace == Some(true),
        })
    }

    /// Validates the configuration.
    pub fn try_validate(&self) -> Result<(), RuntimeError> {
        self.mp.try_validate()?;
        if self.micro_batches == 0 {
            return Err(RuntimeError::ZeroMicroBatches);
        }
        if let Some(t) = &self.tuning {
            if t.chunk_rows == Some(0) {
                return Err(RuntimeError::ZeroChunkRows);
            }
            if t.pipeline_depth == 0 {
                return Err(RuntimeError::ZeroPipelineDepth);
            }
        }
        Ok(())
    }

    /// Total rank (thread) count: `tp · pp`.
    pub fn world(&self) -> usize {
        self.mp.tp * self.mp.pp
    }

    /// Checks a command's inputs before a driver dispatches it, so a bad
    /// input is a typed error instead of a dead rank. `outstanding` is
    /// the row count of the forward whose caches a backward consumes;
    /// returns the one after the command. An inference releases every
    /// cached activation, an outstanding forward's included.
    pub(crate) fn check_command(
        &self,
        cmd: &Command,
        outstanding: Option<usize>,
    ) -> Result<Option<usize>, RuntimeError> {
        match cmd {
            Command::Forward { ids, batch, seq } => {
                self.check_ids(ids, *batch, *seq)?;
                if !batch.is_multiple_of(self.micro_batches) {
                    return Err(RuntimeError::BatchNotDivisible {
                        batch: *batch,
                        micro_batches: self.micro_batches,
                    });
                }
                Ok(Some(batch * seq))
            }
            Command::Infer { micro: 0, .. } => Err(RuntimeError::ZeroMicroBatches),
            Command::Infer {
                ids, batch, seq, ..
            } => self.check_ids(ids, *batch, *seq).map(|_| None),
            Command::Backward { dhidden } => {
                let rows = outstanding.ok_or(RuntimeError::BackwardWithoutForward)?;
                let want = [rows, self.mp.bert.hidden];
                if dhidden.dims() != want {
                    return Err(RuntimeError::GradShapeMismatch {
                        got: dhidden.dims().to_vec(),
                        want,
                    });
                }
                Ok(None)
            }
            _ => Ok(outstanding),
        }
    }

    /// Checks one batch's token ids: exactly `batch · seq` of them, at
    /// most the model's `max_seq` a sequence, every id inside the
    /// vocabulary.
    pub(crate) fn check_ids(
        &self,
        ids: &[usize],
        batch: usize,
        seq: usize,
    ) -> Result<(), RuntimeError> {
        let (vocab, max_seq) = (self.mp.bert.vocab, self.mp.bert.max_seq);
        if ids.len() != batch * seq {
            return Err(RuntimeError::IdsLengthMismatch {
                len: ids.len(),
                batch,
                seq,
            });
        }
        if seq > max_seq {
            return Err(RuntimeError::SeqTooLong { seq, max_seq });
        }
        match ids.iter().find(|&&id| id >= vocab) {
            Some(&id) => Err(RuntimeError::TokenOutOfVocab { id, vocab }),
            None => Ok(()),
        }
    }
}

/// Errors constructing, launching or driving a runtime, on either
/// backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The underlying model-parallel configuration is invalid.
    Config(MpConfigError),
    /// `micro_batches` must be at least 1.
    ZeroMicroBatches,
    /// The forward batch is not divisible by the micro-batch count.
    BatchNotDivisible {
        /// Batch size passed to `forward`.
        batch: usize,
        /// Configured micro-batch count.
        micro_batches: usize,
    },
    /// The token-id slice passed to `forward` does not hold exactly
    /// `batch * seq` ids.
    IdsLengthMismatch {
        /// Length of the id slice.
        len: usize,
        /// Sequences in the batch.
        batch: usize,
        /// Tokens per sequence.
        seq: usize,
    },
    /// The sequence length exceeds the model's positional table.
    SeqTooLong {
        /// Requested tokens per sequence.
        seq: usize,
        /// The model's maximum sequence length.
        max_seq: usize,
    },
    /// A token id lies outside the model's vocabulary.
    TokenOutOfVocab {
        /// The first offending id.
        id: usize,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// A backward was requested with no forward outstanding.
    BackwardWithoutForward,
    /// The backward gradient is not the outstanding forward's
    /// `[rows, hidden]`.
    GradShapeMismatch {
        /// Dims of the gradient tensor.
        got: Vec<usize>,
        /// The outstanding forward's `[rows, hidden]`.
        want: [usize; 2],
    },
    /// A ring-collective chunk needs at least one row (`AC0501`).
    ZeroChunkRows,
    /// The ring pipeline needs at least one chunk in flight (`AC0502`).
    ZeroPipelineDepth,
    /// Opening transport links between ranks, or the control plane of
    /// a `procs` launch, failed.
    Transport(TransportError),
    /// A transport world was supplied whose size does not match
    /// `tp · pp`.
    WorldMismatch {
        /// Ranks the transports cover.
        got: usize,
        /// Ranks the configuration needs.
        need: usize,
    },
    /// The transport at position `index` of the set is another rank's.
    TransportRank {
        /// Position in the transport set.
        index: usize,
        /// The rank that transport belongs to.
        rank: usize,
    },
    /// A rank left the world: its thread or worker process stopped
    /// answering the driver, or a link to a peer failed under it
    /// mid-step. The world stays lost: every later operation returns
    /// the same error.
    RankLost {
        /// The lost rank.
        rank: usize,
        /// The transport failure that surfaced the loss.
        error: TransportError,
    },
    /// A rank could not write its checkpoint shard, or could not read or
    /// verify the one it was told to restore. Final: a relaunch would
    /// meet the same directory and the same shard.
    Checkpoint {
        /// The rank whose shard failed.
        rank: usize,
        /// The shard I/O or verification failure.
        detail: String,
    },
    /// A worker process went silent: its connection is still open, but
    /// neither a response nor a heartbeat arrived within the liveness
    /// window (or the step timeout expired with only heartbeats).
    RankTimeout {
        /// The silent rank.
        rank: usize,
        /// How long the driver waited before giving up.
        after: Duration,
    },
    /// Audit tracing needs in-process event cells; the `procs` backend
    /// rejects it up front (`actcomp check` reports this as `AC0705`).
    TraceUnsupported,
    /// `mpsc` cannot cross process boundaries.
    MpscUnsupported,
    /// Spawning a worker process failed.
    Spawn {
        /// Rank being spawned.
        rank: usize,
        /// OS error rendering.
        detail: String,
    },
    /// A control frame arrived that does not fit the protocol.
    Protocol {
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Config(e) => write!(f, "{e}"),
            RuntimeError::ZeroMicroBatches => {
                write!(f, "micro_batches must be at least 1")
            }
            RuntimeError::BatchNotDivisible {
                batch,
                micro_batches,
            } => write!(
                f,
                "batch {batch} not divisible by {micro_batches} micro-batches"
            ),
            RuntimeError::IdsLengthMismatch { len, batch, seq } => write!(
                f,
                "{len} token ids for batch {batch} x seq {seq} (need {})",
                batch * seq
            ),
            RuntimeError::SeqTooLong { seq, max_seq } => write!(
                f,
                "sequence length {seq} exceeds the model maximum of {max_seq}"
            ),
            RuntimeError::TokenOutOfVocab { id, vocab } => {
                write!(f, "token id {id} outside the vocabulary of {vocab}")
            }
            RuntimeError::BackwardWithoutForward => {
                write!(f, "backward with no forward outstanding")
            }
            RuntimeError::GradShapeMismatch { got, want } => write!(
                f,
                "gradient of shape {got:?} for a forward of shape {want:?}"
            ),
            RuntimeError::ZeroChunkRows => {
                write!(f, "chunk_rows must be at least 1")
            }
            RuntimeError::ZeroPipelineDepth => {
                write!(f, "pipeline_depth must be at least 1")
            }
            RuntimeError::Transport(e) => write!(f, "transport: {e}"),
            RuntimeError::WorldMismatch { got, need } => {
                write!(f, "transport world covers {got} ranks but tp x pp = {need}")
            }
            RuntimeError::TransportRank { index, rank } => write!(
                f,
                "transport {index} is rank {rank}; transports must be in rank order"
            ),
            RuntimeError::RankLost { rank, error } => write!(f, "rank {rank} lost: {error}"),
            RuntimeError::Checkpoint { rank, detail } => {
                write!(f, "rank {rank} checkpoint failed: {detail}")
            }
            RuntimeError::RankTimeout { rank, after } => write!(
                f,
                "rank {rank} timed out: silent for {:.1}s (no response, no heartbeat)",
                after.as_secs_f64()
            ),
            RuntimeError::TraceUnsupported => {
                write!(f, "comm tracing is not supported in procs mode")
            }
            RuntimeError::MpscUnsupported => {
                write!(f, "the mpsc transport cannot cross process boundaries")
            }
            RuntimeError::Spawn { rank, detail } => write!(f, "spawning worker {rank}: {detail}"),
            RuntimeError::Protocol { detail } => {
                write!(f, "control protocol violation: {detail}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Config(e) => Some(e),
            RuntimeError::Transport(e) | RuntimeError::RankLost { error: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<MpConfigError> for RuntimeError {
    fn from(e: MpConfigError) -> Self {
        RuntimeError::Config(e)
    }
}

impl From<TransportError> for RuntimeError {
    fn from(e: TransportError) -> Self {
        RuntimeError::Transport(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_compress::plan::CompressionPlan;

    fn cfg(tp: usize, pp: usize, micro_batches: usize) -> RuntimeConfig {
        RuntimeConfig {
            mp: MpConfig {
                bert: BertConfig {
                    vocab: 32,
                    hidden: 16,
                    layers: 4,
                    heads: 4,
                    ff_hidden: 32,
                    max_seq: 8,
                },
                tp,
                pp,
                plan: CompressionPlan::none(),
                tokens: 8,
                error_feedback: false,
            },
            micro_batches,
            tuning: None,
            trace: false,
        }
    }

    #[test]
    fn validates_micro_batches_and_world() {
        assert!(cfg(2, 2, 1).try_validate().is_ok());
        assert_eq!(cfg(2, 2, 1).world(), 4);
        assert_eq!(
            cfg(2, 2, 0).try_validate(),
            Err(RuntimeError::ZeroMicroBatches)
        );
        assert!(matches!(
            cfg(3, 1, 1).try_validate(),
            Err(RuntimeError::Config(_))
        ));
    }

    #[test]
    fn validates_explicit_tuning() {
        let mut c = cfg(2, 2, 1);
        c.tuning = Some(RingTuning {
            chunk_rows: Some(2),
            pipeline_depth: 1,
        });
        assert!(c.try_validate().is_ok());
        c.tuning = Some(RingTuning {
            chunk_rows: Some(0),
            pipeline_depth: 1,
        });
        assert_eq!(c.try_validate(), Err(RuntimeError::ZeroChunkRows));
        c.tuning = Some(RingTuning {
            chunk_rows: None,
            pipeline_depth: 0,
        });
        assert_eq!(c.try_validate(), Err(RuntimeError::ZeroPipelineDepth));
    }

    #[test]
    fn config_roundtrips_through_json() {
        let mut c = cfg(2, 2, 1);
        c.tuning = Some(RingTuning {
            chunk_rows: Some(3),
            pipeline_depth: 2,
        });
        c.trace = true;
        let json = serde_json::to_string(&c).expect("serialize");
        let back: RuntimeConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, c);
    }
}
