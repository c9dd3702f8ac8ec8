//! The one description of a tensor-parallel ring collective: how a
//! dense tensor is split into row chunks ([`ring_chunk_plan`]; a
//! compressed reduce's code is one chunk), the order in which every
//! rank sends, receives and works on those chunks
//! ([`chunk_ring_steps`], [`gather_ring_steps`]), and the identities
//! its messages are known by ([`MsgId`]). The ring interpreter runs
//! these lists; `actcomp check --comm` maps the same lists to events and
//! proves matching, delivery order and deadlock-freedom on them.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Chunk count used when no explicit row count is configured.
pub const DEFAULT_CHUNKS: usize = 4;

/// Default reduce chunks rank 0 keeps in flight.
pub const DEFAULT_PIPELINE_DEPTH: usize = 4;

/// The chunk plan of a `rows`-row ring collective: greedy row tiling at
/// the configured chunk size, or an even four-way split when unset.
/// Depends only on its arguments, so every rank of a ring (and the
/// static analyzer) derives the same plan independently.
pub fn ring_chunk_plan(chunk_rows: Option<usize>, rows: usize) -> Vec<usize> {
    if rows == 0 {
        return vec![0];
    }
    let per = chunk_rows.unwrap_or(rows.div_ceil(DEFAULT_CHUNKS)).max(1);
    let mut plan = Vec::with_capacity(rows.div_ceil(per));
    let mut done = 0;
    while done < rows {
        let take = per.min(rows - done);
        plan.push(take);
        done += take;
    }
    plan
}

/// Chunking/pipelining knobs for ring collectives.
///
/// An engine takes them from `RuntimeConfig::tuning` (`None` means
/// [`RingTuning::default`]); a bare endpoint starts at the default and
/// callers may set its `tuning` field, as long as all endpoints of one
/// ring agree (the chunk plan must be identical on every rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingTuning {
    /// Rows per chunk; `None` picks `ceil(rows / 4)` per collective.
    pub chunk_rows: Option<usize>,
    /// Maximum reduce chunks rank 0 keeps in flight ahead of the
    /// broadcasts it has consumed (≥ 1).
    pub pipeline_depth: usize,
}

impl RingTuning {
    /// The per-chunk row counts for a `rows`-row collective
    /// ([`ring_chunk_plan`]). Depends only on `(self, rows)` — never on
    /// runtime state — so every rank of a ring derives the same plan
    /// independently.
    pub fn plan(&self, rows: usize) -> Vec<usize> {
        ring_chunk_plan(self.chunk_rows, rows)
    }
}

impl Default for RingTuning {
    fn default() -> Self {
        RingTuning {
            chunk_rows: None,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
        }
    }
}

/// Direction of a communication event, from the acting rank's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Dir {
    /// The rank enqueues a message.
    Send,
    /// The rank consumes a message (recorded at consumption, so a
    /// stashed chunk appears where the schedule uses it, not where it
    /// arrived).
    Recv,
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Dir::Send => "send",
            Dir::Recv => "recv",
        })
    }
}

/// The identity of one message on one channel. `(channel, msg)` is the
/// matching key between a send and its receive; the analyzer proves it
/// unique per direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MsgId {
    /// A ring chunk: collective ordinal `coll` (per stage ring, in
    /// program order), reduce (`bcast == false`) or broadcast leg, and
    /// chunk index. The ring's selective receive keys on
    /// `(bcast, idx)` only — the stash-interval analysis proves the
    /// shorter key is unambiguous at every instant.
    Chunk {
        /// Collective ordinal within the stage ring.
        coll: usize,
        /// Broadcast leg (`true`) or reduce leg (`false`).
        bcast: bool,
        /// Chunk index within the collective.
        idx: usize,
    },
    /// A gathered-reduce or grad-sync hop carrying rank `origin`'s
    /// contribution.
    Gather {
        /// Collective ordinal within the stage ring.
        coll: usize,
        /// Rank whose payload this hop carries.
        origin: usize,
    },
    /// Stage-input broadcast number `seq` (per rank, per step).
    Bcast {
        /// Broadcast ordinal within the step.
        seq: usize,
    },
    /// Forward boundary activation for micro-batch `mb`.
    Activation {
        /// Micro-batch index.
        mb: usize,
    },
    /// Backward boundary gradient for micro-batch `mb`.
    Grad {
        /// Micro-batch index.
        mb: usize,
    },
    /// End-of-step compressor-gradient sync message.
    GradSync,
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MsgId::Chunk { coll, bcast, idx } => {
                let leg = if bcast { "bcast" } else { "reduce" };
                write!(f, "chunk(coll {coll}, {leg}, idx {idx})")
            }
            MsgId::Gather { coll, origin } => write!(f, "gather(coll {coll}, origin {origin})"),
            MsgId::Bcast { seq } => write!(f, "bcast(seq {seq})"),
            MsgId::Activation { mb } => write!(f, "activation(mb {mb})"),
            MsgId::Grad { mb } => write!(f, "grad(mb {mb})"),
            MsgId::GradSync => f.write_str("grad-sync"),
        }
    }
}

/// One visit of chunk `idx` to a rank of a chain-reduce → ring-broadcast
/// collective: what the rank receives, the local work it does, and what
/// it sends on. "Reduce" messages travel the chain `0 → 1 → … → p−1`
/// accumulating the rank-order left fold; "broadcast" messages carry
/// the finished total `p−1 → 0 → … → p−2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingStep {
    /// Rank 0: make the own chunk and send it down the reduce chain.
    Originate {
        /// Chunk index.
        idx: usize,
    },
    /// Interior rank: make the own chunk, receive the partial sum, fold
    /// the own chunk into it, send it down the reduce chain.
    Relay {
        /// Chunk index.
        idx: usize,
    },
    /// Last rank: make the own chunk, receive the partial sum, fold —
    /// the result is the total — then consume it and send it as the
    /// first broadcast hop.
    Turn {
        /// Chunk index.
        idx: usize,
    },
    /// Receive the finished chunk on the broadcast leg and consume it;
    /// pass it on unless the next rank is where the broadcast ends.
    Deliver {
        /// Chunk index.
        idx: usize,
        /// Whether the chunk is forwarded to the next rank.
        forward: bool,
    },
}

impl RingStep {
    /// The step's wire events in program order — at most one receive,
    /// then at most one send — as `(direction, bcast, idx)`.
    pub fn wire(self) -> impl Iterator<Item = (Dir, bool, usize)> {
        let (idx, recv, send) = match self {
            RingStep::Originate { idx } => (idx, None, Some(false)),
            RingStep::Relay { idx } => (idx, Some(false), Some(false)),
            RingStep::Turn { idx } => (idx, Some(false), Some(true)),
            RingStep::Deliver { idx, forward } => (idx, Some(true), forward.then_some(true)),
        };
        let recv = recv.map(|bcast| (Dir::Recv, bcast, idx));
        let send = send.map(|bcast| (Dir::Send, bcast, idx));
        recv.into_iter().chain(send)
    }
}

/// Rank `rank`'s program for one chain-reduce → ring-broadcast
/// collective over `chunks` chunks in a ring of `world > 1` ranks.
///
/// Rank 0 paces the pipeline: it starts `min(depth, chunks)` reduce
/// chunks and then starts one more per broadcast it has consumed, so at
/// most `depth` chunks are in flight and memory stays bounded without
/// blocking sends. Every rank handles its reduce chunks, and then its
/// broadcast chunks, in index order, so each link's FIFO matches the
/// receiver's order up to the reduce/broadcast interleave (which the
/// receiver's `(bcast, idx)` stash absorbs).
pub fn chunk_ring_steps(rank: usize, world: usize, chunks: usize, depth: usize) -> Vec<RingStep> {
    debug_assert!(world > 1 && rank < world, "rank {rank} of {world}");
    // The broadcast ends at rank p−2, the last rank's predecessor.
    let deliver = |idx| RingStep::Deliver {
        idx,
        forward: rank + 2 != world,
    };
    if rank == 0 {
        let lookahead = depth.max(1).min(chunks);
        let mut steps: Vec<RingStep> = (0..lookahead)
            .map(|idx| RingStep::Originate { idx })
            .collect();
        for idx in 0..chunks {
            steps.push(deliver(idx));
            if idx + lookahead < chunks {
                steps.push(RingStep::Originate {
                    idx: idx + lookahead,
                });
            }
        }
        steps
    } else if rank + 1 < world {
        (0..chunks)
            .map(|idx| RingStep::Relay { idx })
            .chain((0..chunks).map(deliver))
            .collect()
    } else {
        (0..chunks).map(|idx| RingStep::Turn { idx }).collect()
    }
}

/// One event of a whole-message ring all-gather: a send to the next
/// rank or a receive from the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherHop {
    /// Send or receive.
    pub dir: Dir,
    /// Rank whose payload this hop carries.
    pub origin: usize,
}

/// Rank `rank`'s program for one ring all-gather in a ring of `world`
/// ranks: `world − 1` times, send a payload on (the own one first, then
/// each payload just received) and receive the previous rank's — after
/// which the rank has seen every rank's payload. Empty for a solo ring.
pub fn gather_ring_steps(rank: usize, world: usize) -> Vec<GatherHop> {
    (0..world - 1)
        .flat_map(|hop| {
            let sent = (rank + world - hop) % world;
            let received = (rank + world - 1 - hop) % world;
            [(Dir::Send, sent), (Dir::Recv, received)]
        })
        .map(|(dir, origin)| GatherHop { dir, origin })
        .collect()
}
