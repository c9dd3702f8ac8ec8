//! Per-phase wall-clock accounting for one worker's share of a step.

use std::time::Instant;

/// Wall-clock seconds a worker spent in each execution phase.
///
/// `wire` includes time blocked in channel receives, so it measures
/// synchronization stalls as well as message transfer — exactly the
/// quantity the paper's communication/computation overlap argument is
/// about. `compute` is everything else the worker did while servicing a
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
    /// Accumulates another phase breakdown.
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
pub fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_secs_f64();
    out
}
