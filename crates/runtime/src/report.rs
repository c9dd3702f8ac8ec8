//! Per-rank wall-clock accounting and the aggregated [`RuntimeReport`]
//! the engine emits as `BENCH_runtime.json`.

use actcomp_mp::CommBytes;
use std::time::Instant;

/// Wall-clock seconds a rank spent in each execution phase.
///
/// `wire` includes time blocked in channel receives, so it measures
/// synchronization stalls as well as message transfer — exactly the
/// quantity the paper's communication/computation overlap argument is
/// about. `compute` is everything else the rank did while servicing a
/// command (shard matmuls, layer norms, embedding lookups).
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PhaseTimers {
    /// Local tensor arithmetic (forward/backward shard math).
    pub compute_s: f64,
    /// Compressor forward (`compress`) and compressor backward passes.
    pub encode_s: f64,
    /// Channel sends/receives, including blocking waits on peers.
    pub wire_s: f64,
    /// Decompression and summation of gathered messages.
    pub decode_s: f64,
    /// Wall-clock time inside whole collectives (ring reduces and
    /// gathers), measured end to end. This *overlaps* the `encode_s` /
    /// `wire_s` / `decode_s` attribution of the same work — the chunked
    /// pipeline encodes chunk `i+1` while chunk `i` is on the wire — so
    /// it is excluded from [`PhaseTimers::total_s`]. Comparing
    /// `collective_s` against `encode_s + wire_s + decode_s` measures
    /// how much of the codec work the pipeline hides.
    pub collective_s: f64,
}

impl PhaseTimers {
    /// Accumulates another rank-phase breakdown.
    pub fn add(&mut self, other: &PhaseTimers) {
        self.compute_s += other.compute_s;
        self.encode_s += other.encode_s;
        self.wire_s += other.wire_s;
        self.decode_s += other.decode_s;
        self.collective_s += other.collective_s;
    }

    /// Total time across all phases.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.encode_s + self.wire_s + self.decode_s
    }
}

/// Times one closure and adds the elapsed seconds to `slot`.
pub(crate) fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_secs_f64();
    out
}

/// One rank's contribution to the runtime report.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RankReport {
    /// Global rank id (`stage * tp + tp_index`).
    pub rank: usize,
    /// Pipeline stage this rank belongs to.
    pub stage: usize,
    /// Tensor-parallel index within the stage.
    pub tp_index: usize,
    /// Phase breakdown.
    pub timers: PhaseTimers,
    /// Bytes this rank's tensor-parallel reduces moved.
    pub reduce_bytes: CommBytes,
    /// Ring-vs-gather traffic for this rank's collectives: `wire` is
    /// what the ring implementation actually sent, `dense` is what a
    /// whole-message all-gather would have sent.
    pub ring_bytes: CommBytes,
    /// Bytes the pipeline boundary this rank *sends* moved (zero unless
    /// the rank is a boundary owner, i.e. `tp_index == 0` on a
    /// non-final stage).
    pub boundary_bytes: CommBytes,
    /// Graphs this rank's workspace has compiled
    /// ([`actcomp_tensor::Workspace::plan_compiles`]): one per distinct
    /// layer graph and shape, so it stops growing after the first step or
    /// request of each shape. A count, the same on every machine.
    /// `None` only for a report written before the field existed (the
    /// vendored serde derive has no `#[serde(default)]`; a missing key
    /// reads as `None`).
    pub plan_compiles: Option<u64>,
}

/// Aggregated execution report for a threaded run, written to
/// `BENCH_runtime.json`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RuntimeReport {
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Pipeline-parallel degree.
    pub pp: usize,
    /// Micro-batches per step.
    pub micro_batches: usize,
    /// Per-rank breakdowns, indexed by rank id.
    pub ranks: Vec<RankReport>,
    /// Summed phase timers across all ranks.
    pub totals: PhaseTimers,
    /// Tensor-parallel reduce traffic, counted once per stage
    /// (`tp_index == 0`) so the total matches the serial `MpBert`
    /// byte accounting.
    pub reduce_bytes: CommBytes,
    /// Pipeline-boundary traffic summed over boundary owners.
    pub boundary_bytes: CommBytes,
    /// Ring-vs-gather collective traffic summed over *all* ranks:
    /// `wire` is what the ring collectives actually sent, `dense` the
    /// gather-equivalent baseline. `wire < dense` whenever a ring
    /// collective ran with `tp ≥ 3`.
    pub ring_bytes: CommBytes,
}

impl RuntimeReport {
    /// Aggregates per-rank reports (which must be sorted by rank id).
    pub fn from_ranks(tp: usize, pp: usize, micro_batches: usize, ranks: Vec<RankReport>) -> Self {
        let mut totals = PhaseTimers::default();
        let mut reduce_bytes = CommBytes::default();
        let mut boundary_bytes = CommBytes::default();
        let mut ring_bytes = CommBytes::default();
        for r in &ranks {
            totals.add(&r.timers);
            if r.tp_index == 0 {
                reduce_bytes.add(r.reduce_bytes);
            }
            boundary_bytes.add(r.boundary_bytes);
            ring_bytes.add(r.ring_bytes);
        }
        RuntimeReport {
            tp,
            pp,
            micro_batches,
            ranks,
            totals,
            reduce_bytes,
            boundary_bytes,
            ring_bytes,
        }
    }

    /// Serializes the report to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank(rank: usize, stage: usize, tp_index: usize, wire: usize) -> RankReport {
        RankReport {
            rank,
            stage,
            tp_index,
            timers: PhaseTimers {
                compute_s: 1.0,
                encode_s: 0.5,
                wire_s: 0.25,
                decode_s: 0.25,
                collective_s: 0.5,
            },
            reduce_bytes: CommBytes {
                wire,
                dense: 2 * wire,
            },
            ring_bytes: CommBytes {
                wire: wire / 2,
                dense: wire,
            },
            boundary_bytes: CommBytes::default(),
            plan_compiles: None,
        }
    }

    #[test]
    fn aggregation_counts_reduce_bytes_once_per_stage() {
        let ranks = vec![
            rank(0, 0, 0, 100),
            rank(1, 0, 1, 100),
            rank(2, 1, 0, 60),
            rank(3, 1, 1, 60),
        ];
        let report = RuntimeReport::from_ranks(2, 2, 1, ranks);
        assert_eq!(report.reduce_bytes.wire, 160);
        assert_eq!(report.reduce_bytes.dense, 320);
        // Ring traffic is summed over every rank, not once per stage.
        assert_eq!(report.ring_bytes.wire, 160);
        assert_eq!(report.ring_bytes.dense, 320);
        // collective_s overlaps the other phases, so it is tracked
        // (summed into totals) but excluded from total_s.
        assert!((report.totals.collective_s - 2.0).abs() < 1e-12);
        assert!((report.totals.total_s() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = RuntimeReport::from_ranks(1, 1, 2, vec![rank(0, 0, 0, 10)]);
        let json = report.to_json();
        let back: RuntimeReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.ranks.len(), 1);
        assert_eq!(back.reduce_bytes.wire, 10);
        assert_eq!(back.micro_batches, 2);
    }

    #[test]
    fn a_rank_report_written_before_plan_compiles_still_loads() {
        let mut old = rank(0, 0, 0, 10);
        old.plan_compiles = Some(3);
        let json = serde_json::to_string(&old).expect("serializes");
        let json = json.replace(",\"plan_compiles\":3", "");
        assert!(!json.contains("plan_compiles"), "{json}");
        let back: RankReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.plan_compiles, None);
    }
}
