//! Typed errors for user-reachable model-parallel configuration paths.
//!
//! The panicking `validate`/`from_serial` entry points are kept for
//! ergonomic test code, but they are thin wrappers over the `try_*`
//! variants here, so embedding callers (the CLI, the threaded runtime)
//! can surface configuration mistakes as values instead of crashes. The
//! `Display` text is byte-identical to the historical panic messages.

use actcomp_nn::BertConfigError;

/// Why an [`crate::MpConfig`] cannot describe a runnable model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpConfigError {
    /// The underlying architecture is impossible.
    Bert(BertConfigError),
    /// `tp` or `pp` is zero.
    NonPositiveDegrees,
    /// Attention heads cannot be split evenly across TP workers.
    HeadsNotDivisibleByTp {
        /// Head count.
        heads: usize,
        /// Tensor-parallel degree.
        tp: usize,
    },
    /// Fewer layers than pipeline stages.
    TooFewLayersForPp {
        /// Encoder layer count.
        layers: usize,
        /// Pipeline-parallel degree.
        pp: usize,
    },
    /// The compression plan covers layers past the end of the model.
    PlanExceedsLayers,
}

impl std::fmt::Display for MpConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpConfigError::Bert(e) => e.fmt(f),
            MpConfigError::NonPositiveDegrees => f.write_str("parallel degrees must be positive"),
            MpConfigError::HeadsNotDivisibleByTp { heads, tp } => {
                write!(f, "{heads} heads not divisible by TP={tp}")
            }
            MpConfigError::TooFewLayersForPp { layers, pp } => {
                write!(f, "{layers} layers < PP={pp}")
            }
            MpConfigError::PlanExceedsLayers => f.write_str("compression plan exceeds layer count"),
        }
    }
}

impl std::error::Error for MpConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpConfigError::Bert(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BertConfigError> for MpConfigError {
    fn from(e: BertConfigError) -> Self {
        MpConfigError::Bert(e)
    }
}

/// Why a serial layer cannot be sharded across the requested workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// The requested shards are empty or reach past the last worker.
    ShardsOutOfRange {
        /// First requested shard.
        start: usize,
        /// One past the last requested shard.
        end: usize,
        /// Worker count.
        world: usize,
    },
    /// Attention heads cannot be split evenly across the workers.
    HeadsNotDivisible {
        /// Head count.
        heads: usize,
        /// Worker count.
        world: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::ShardsOutOfRange { start, end, world } => {
                write!(f, "shards {start}..{end} are not a part of 0..{world}")
            }
            ShardError::HeadsNotDivisible { heads, world } => {
                write!(f, "{heads} heads not divisible across {world} workers")
            }
        }
    }
}

impl std::error::Error for ShardError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_historical_panic_messages() {
        assert_eq!(
            MpConfigError::NonPositiveDegrees.to_string(),
            "parallel degrees must be positive"
        );
        assert_eq!(
            MpConfigError::HeadsNotDivisibleByTp { heads: 4, tp: 3 }.to_string(),
            "4 heads not divisible by TP=3"
        );
        assert_eq!(
            MpConfigError::TooFewLayersForPp { layers: 2, pp: 4 }.to_string(),
            "2 layers < PP=4"
        );
        assert_eq!(
            MpConfigError::PlanExceedsLayers.to_string(),
            "compression plan exceeds layer count"
        );
        assert_eq!(
            ShardError::ShardsOutOfRange {
                start: 2,
                end: 5,
                world: 4
            }
            .to_string(),
            "shards 2..5 are not a part of 0..4"
        );
        assert_eq!(
            ShardError::HeadsNotDivisible { heads: 4, world: 3 }.to_string(),
            "4 heads not divisible across 3 workers"
        );
    }
}
