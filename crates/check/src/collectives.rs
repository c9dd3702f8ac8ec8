//! Ring-collective schedule and chunking checks (`AC0501`–`AC0502`).
//!
//! The *one* description of a tensor-parallel ring collective — the
//! chunk plan ([`ring_chunk_plan`]) and the order in which every rank
//! sends, receives and works on chunks ([`chunk_ring_steps`],
//! [`gather_ring_steps`]) — lives with its one interpreter in
//! [`actcomp_mp::ring`] and is re-exported here. Both executors run the
//! interpreter; the comm-protocol analyzer ([`crate::comm_graph`]) maps
//! the same lists to events and proves matching, delivery order and
//! deadlock-freedom on them — so the two cannot drift apart.
//!
//! Both tuning knobs are "at least one" quantities: zero rows per chunk
//! or a zero-deep pipeline would make the schedule degenerate. The
//! check pass rejects `runtime.chunk_rows` = 0 (`AC0501`) and
//! `runtime.pipeline_depth` = 0 (`AC0502`).

use crate::codes;
use crate::config::ExperimentConfig;
use crate::diagnostics::{Diagnostic, Diagnostics};

pub use actcomp_mp::ring::{
    chunk_ring_steps, gather_ring_steps, ring_chunk_plan, GatherHop, RingStep, DEFAULT_CHUNKS,
    DEFAULT_PIPELINE_DEPTH,
};

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
    use crate::comm_graph::Dir;
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
