//! Ring-collective schedule and chunking checks (`AC0501`–`AC0502`).
//!
//! This module owns the *one* description of a tensor-parallel ring
//! collective: how a dense tensor is split into row chunks
//! ([`ring_chunk_plan`]; a compressed reduce's code is one chunk), and
//! the order in which every rank sends, receives and works on those
//! chunks ([`chunk_ring_steps`], [`gather_ring_steps`]). The runtime's
//! `TpGroup` *interprets* the step lists; the comm-protocol analyzer
//! ([`crate::comm_graph`]) maps the same lists to events and proves
//! matching, delivery order and deadlock-freedom on them — so the two
//! cannot drift apart.
//!
//! Both tuning knobs are "at least one" quantities: zero rows per chunk
//! or a zero-deep pipeline would make the schedule degenerate. The
//! check pass rejects `runtime.chunk_rows` = 0 (`AC0501`) and
//! `runtime.pipeline_depth` = 0 (`AC0502`).

use crate::codes;
use crate::comm_graph::Dir;
use crate::config::ExperimentConfig;
use crate::diagnostics::{Diagnostic, Diagnostics};

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

/// Resolves `(chunk_rows, pipeline_depth)` for a config: explicit
/// `runtime` fields, else automatic chunking and the default depth. The
/// CLI hands the engine exactly this pair (as `RuntimeConfig.tuning`),
/// so the static graph and the run agree by construction.
pub fn resolved_ring_tuning(cfg: &ExperimentConfig) -> (Option<usize>, usize) {
    let rt = cfg.runtime.as_ref();
    let chunk = rt.and_then(|r| r.chunk_rows);
    let depth = rt
        .and_then(|r| r.pipeline_depth)
        .unwrap_or(DEFAULT_PIPELINE_DEPTH);
    (chunk, depth)
}

/// The ring-collective pass: validates `runtime.chunk_rows` and
/// `runtime.pipeline_depth`.
pub fn check_collectives(cfg: &ExperimentConfig, diags: &mut Diagnostics) {
    if let Some(rt) = &cfg.runtime {
        check_chunk_rows_field(rt.chunk_rows, diags);
        check_pipeline_depth_field(rt.pipeline_depth, diags);
    }
}

/// Validates the `runtime.chunk_rows` field (`AC0501`).
fn check_chunk_rows_field(chunk_rows: Option<usize>, diags: &mut Diagnostics) {
    if chunk_rows == Some(0) {
        diags.push(
            Diagnostic::error(
                codes::CHUNK_ROWS_INVALID,
                "runtime.chunk_rows",
                "runtime.chunk_rows = 0: a ring collective chunk needs at least one row"
                    .to_string(),
            )
            .with_help("use a positive row count, or omit the field for automatic chunking"),
        );
    }
}

/// Validates the `runtime.pipeline_depth` field (`AC0502`).
fn check_pipeline_depth_field(pipeline_depth: Option<usize>, diags: &mut Diagnostics) {
    if pipeline_depth == Some(0) {
        diags.push(
            Diagnostic::error(
                codes::PIPELINE_DEPTH_INVALID,
                "runtime.pipeline_depth",
                "runtime.pipeline_depth = 0: the ring pipeline needs at least one chunk \
                 in flight"
                    .to_string(),
            )
            .with_help("use a positive depth, or omit the field for the default of 4"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunSpec;

    fn codes_of(diags: Diagnostics) -> Vec<&'static str> {
        diags.into_vec().iter().map(|d| d.code).collect()
    }

    #[test]
    fn distsim_chain_cost_is_the_busiest_rank_of_the_executed_schedule() {
        use actcomp_distsim::collective::chain_allreduce_egress;
        let chunk_bytes = 96;
        for p in [2usize, 3, 4, 8] {
            for chunks in [1usize, 4, 5] {
                let busiest = (0..p)
                    .map(|r| {
                        chunk_ring_steps(r, p, chunks, DEFAULT_PIPELINE_DEPTH)
                            .into_iter()
                            .flat_map(RingStep::wire)
                            .filter(|&(dir, ..)| dir == Dir::Send)
                            .count()
                    })
                    .max()
                    .expect("p ranks");
                assert_eq!(
                    (busiest * chunk_bytes) as f64,
                    chain_allreduce_egress(p, (chunks * chunk_bytes) as f64),
                    "p={p} chunks={chunks}"
                );
            }
        }
    }

    #[test]
    fn absent_fields_are_clean() {
        let mut diags = Diagnostics::new();
        check_chunk_rows_field(None, &mut diags);
        check_pipeline_depth_field(None, &mut diags);
        assert!(diags.into_vec().is_empty());
    }

    #[test]
    fn positive_fields_are_clean() {
        let mut diags = Diagnostics::new();
        check_chunk_rows_field(Some(16), &mut diags);
        check_pipeline_depth_field(Some(2), &mut diags);
        assert!(diags.into_vec().is_empty());
    }

    #[test]
    fn zero_fields_are_rejected() {
        let mut diags = Diagnostics::new();
        check_chunk_rows_field(Some(0), &mut diags);
        check_pipeline_depth_field(Some(0), &mut diags);
        assert_eq!(
            codes_of(diags),
            vec![codes::CHUNK_ROWS_INVALID, codes::PIPELINE_DEPTH_INVALID]
        );
    }

    #[test]
    fn config_section_feeds_the_pass() {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.runtime = Some(RunSpec {
            chunk_rows: Some(0),
            pipeline_depth: Some(0),
            ..RunSpec::default()
        });
        let mut diags = Diagnostics::new();
        check_collectives(&cfg, &mut diags);
        let got = codes_of(diags);
        assert!(got.contains(&codes::CHUNK_ROWS_INVALID));
        assert!(got.contains(&codes::PIPELINE_DEPTH_INVALID));
    }

    #[test]
    fn ring_chunk_plan_tiles_exactly() {
        assert_eq!(ring_chunk_plan(None, 0), vec![0]);
        assert_eq!(ring_chunk_plan(None, 8), vec![2, 2, 2, 2]);
        assert_eq!(ring_chunk_plan(None, 9), vec![3, 3, 3]);
        assert_eq!(ring_chunk_plan(Some(4), 10), vec![4, 4, 2]);
        assert_eq!(ring_chunk_plan(Some(100), 10), vec![10]);
        for rows in 1..64usize {
            for chunk in [None, Some(1), Some(3), Some(7), Some(64)] {
                let plan = ring_chunk_plan(chunk, rows);
                assert_eq!(plan.iter().sum::<usize>(), rows, "{chunk:?} rows={rows}");
                assert!(plan.iter().all(|&c| c > 0));
            }
        }
    }

    #[test]
    fn tuning_resolves_fields_before_defaults() {
        let mut cfg = ExperimentConfig::paper_default();
        assert_eq!(resolved_ring_tuning(&cfg), (None, DEFAULT_PIPELINE_DEPTH));
        cfg.runtime = Some(RunSpec {
            chunk_rows: Some(16),
            pipeline_depth: Some(2),
            ..RunSpec::default()
        });
        assert_eq!(resolved_ring_tuning(&cfg), (Some(16), 2));
    }

    #[test]
    fn rank_zero_lookahead_is_min_of_depth_and_chunks() {
        use RingStep::{Deliver, Originate};
        let d = |idx| Deliver {
            idx,
            forward: false,
        };
        assert_eq!(
            chunk_ring_steps(0, 2, 3, 2),
            vec![
                Originate { idx: 0 },
                Originate { idx: 1 },
                d(0),
                Originate { idx: 2 },
                d(1),
                d(2),
            ]
        );
        // A pipeline deeper than the collective starts every chunk up front.
        let steps = chunk_ring_steps(0, 2, 2, 5);
        assert_eq!(steps[..2], [Originate { idx: 0 }, Originate { idx: 1 }]);
        assert_eq!(steps.len(), 4);
    }

    #[test]
    fn gather_hops_carry_every_origin_once() {
        for world in 1..=5usize {
            for rank in 0..world {
                let steps = gather_ring_steps(rank, world);
                assert_eq!(steps.len(), 2 * (world - 1));
                let mut seen: Vec<usize> = steps
                    .iter()
                    .filter(|hop| hop.dir == Dir::Recv)
                    .map(|hop| hop.origin)
                    .collect();
                seen.push(rank);
                seen.sort_unstable();
                assert_eq!(seen, (0..world).collect::<Vec<_>>());
            }
        }
    }
}
