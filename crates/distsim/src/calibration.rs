//! Calibrated compute profiles, with provenance.
//!
//! The simulator predicts iteration times from first principles (FLOPs,
//! bytes, schedules), but the *achieved* FLOP rate of a V100 differs
//! between the paper's two regimes, so each gets its own profile:
//!
//! - **Fine-tuning** (b=32, s=512, classification head): the paper's
//!   `TP=1, PP=4` baseline runs 24 layers × `96Bsh² + 16Bs²h` = 4.29e13
//!   FLOPs in 592 ms (Table 2) → 1.38e-14 s/FLOP (~72 TFLOP/s achieved).
//!   Backward/forward compute ratio 1.62 from Table 4 after subtracting
//!   the measured communication (`(354−151)/(276−151)`).
//!
//! - **Pre-training** (b=128, s=128, MLM + NSP heads): Table 7's forward
//!   time implies ~3× more wall time per layer-FLOP, because the per-layer
//!   formula excludes the embedding and MLM-head work (a `h × 30522`
//!   projection) and the shorter sequences utilize the GPU worse →
//!   3.35e-14 s/FLOP, backward/forward 0.87 (Table 7: 419/467 after
//!   communication).
//!
//! Optimizer rates come from dividing the measured optimizer column by the
//! per-GPU parameter count.

use crate::collective::chain_allreduce_egress;
use crate::hardware::{GpuSpec, LinkSpec};

/// Effective per-round link latency implied by a measured tiny-payload
/// all-reduce.
///
/// A ring all-reduce over `p` ranks pays `2(p−1)` latency-bound rounds;
/// when the payload is small enough that the bandwidth term vanishes,
/// the measured per-op time *is* the per-message constant times the
/// round count. Mapping the measurement back through the model's round
/// count folds every real-world overhead a loopback socket hop carries
/// (syscalls, frame headers, token-bucket pacing, scheduler wakeups)
/// into an effective α the analytic prediction can reuse — replacing
/// the hand-guessed `LOOPBACK_LATENCY_S` constant the transport
/// cross-check originally shipped with (BENCH_net rel_error 0.32–0.54).
///
/// Returns zero for `p <= 1`, where no rounds occur.
pub fn round_latency_from_allreduce(p: usize, measured_s: f64) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    measured_s / (2.0 * (p as f64 - 1.0))
}

/// A copy of `link` with its latency replaced by a measured per-round
/// constant (see [`round_latency_from_allreduce`]).
pub fn calibrate_link_latency(link: &LinkSpec, measured_round_latency_s: f64) -> LinkSpec {
    LinkSpec {
        latency: measured_round_latency_s,
        ..*link
    }
}

/// Host-side effective bandwidth implied by an *unthrottled* loopback
/// all-reduce of `payload_bytes`.
///
/// On loopback there is no wire: the whole per-byte cost is the socket
/// stack (syscalls, kernel copies, framing) time-shared across the rank
/// threads. Subtracting the α term leaves the byte-proportional part;
/// dividing the bytes the busiest rank sent under the measured
/// collective's schedule ([`chain_allreduce_egress`] — the runtime's
/// chain-reduce → ring-broadcast) by it gives a bandwidth
/// [`chain_allreduce_time`](crate::collective::chain_allreduce_time)
/// can treat like any other link rate. Returns `INFINITY` when the
/// measurement is latency-dominated (nothing byte-proportional to
/// calibrate) or `p <= 1`.
pub fn host_bandwidth_from_allreduce(
    p: usize,
    payload_bytes: f64,
    measured_s: f64,
    round_latency_s: f64,
) -> f64 {
    if p <= 1 {
        return f64::INFINITY;
    }
    let byte_time = measured_s - 2.0 * (p as f64 - 1.0) * round_latency_s;
    if byte_time <= 0.0 {
        return f64::INFINITY;
    }
    chain_allreduce_egress(p, payload_bytes) / byte_time
}

/// Calibrated loopback link: measured per-round latency, and bandwidth
/// capped by the measured host copy rate.
///
/// A token-bucket throttle paces sends with sleeps, during which the
/// other rank threads keep copying — the two byte costs overlap rather
/// than add, so the slower of the nominal cap and the host rate governs
/// (min of bandwidths = max of times).
pub fn calibrate_loopback_link(
    link: &LinkSpec,
    round_latency_s: f64,
    host_bandwidth: f64,
) -> LinkSpec {
    LinkSpec {
        latency: round_latency_s,
        pair_bandwidth: link.pair_bandwidth.min(host_bandwidth),
        ..*link
    }
}

/// V100 profile for the fine-tuning regime (b=32, s=512).
pub fn v100_finetune() -> GpuSpec {
    GpuSpec {
        sec_per_flop: 1.38e-14,
        bwd_over_fwd: 1.62,
        // Table 4: 5.8 ms for 345M/4 params ≈ 6.7e-11 s/param.
        sec_per_param_update: 6.7e-11,
    }
}

/// V100 profile for the pre-training regime (b=128, s=128, MLM head).
pub fn v100_pretrain() -> GpuSpec {
    GpuSpec {
        sec_per_flop: 3.35e-14,
        bwd_over_fwd: 0.87,
        // Table 7: 7.4 ms for 345M/16 params ≈ 3.4e-10 s/param.
        sec_per_param_update: 3.4e-10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_latency_inverts_the_allreduce_alpha_term() {
        // With a negligible payload, allreduce_time(link, p, ~0) is pure
        // latency · 2(p−1); the calibration must recover that latency.
        let base = crate::hardware::LinkSpec {
            kind: crate::hardware::LinkKind::Ethernet,
            pair_bandwidth: 125e6,
            latency: 50e-6,
            scales_with_peers: false,
            compressed_collective_overhead: 0.0,
        };
        for p in [2usize, 4, 8] {
            let measured = crate::collective::allreduce_time(&base, p, 0);
            let alpha = round_latency_from_allreduce(p, measured);
            assert!((alpha - base.latency).abs() < 1e-12, "p={p}: {alpha}");
            let cal = calibrate_link_latency(&base, alpha);
            assert_eq!(cal.pair_bandwidth, base.pair_bandwidth);
            assert!((cal.latency - base.latency).abs() < 1e-12);
        }
        assert_eq!(round_latency_from_allreduce(1, 1.0), 0.0);
    }

    #[test]
    fn host_bandwidth_inverts_the_allreduce_beta_term() {
        let base = crate::hardware::LinkSpec {
            kind: crate::hardware::LinkKind::Ethernet,
            pair_bandwidth: 2e9,
            latency: 10e-6,
            scales_with_peers: false,
            compressed_collective_overhead: 0.0,
        };
        let (p, payload) = (4usize, 1e6);
        let measured = crate::collective::chain_allreduce_time(&base, p, payload as usize);
        let bw = host_bandwidth_from_allreduce(p, payload, measured, base.latency);
        assert!(
            (bw - base.pair_bandwidth).abs() / base.pair_bandwidth < 1e-9,
            "{bw}"
        );
        // Latency-dominated measurements have nothing to calibrate.
        assert_eq!(
            host_bandwidth_from_allreduce(p, payload, 1e-6, base.latency),
            f64::INFINITY
        );
        // The calibrated link takes the slower of cap and host rate.
        let cal = calibrate_loopback_link(&base, 20e-6, 1e9);
        assert_eq!(cal.pair_bandwidth, 1e9);
        assert_eq!(cal.latency, 20e-6);
        let cal2 = calibrate_loopback_link(&base, 20e-6, 5e9);
        assert_eq!(cal2.pair_bandwidth, base.pair_bandwidth);
    }

    #[test]
    fn profiles_are_plausible_v100_rates() {
        // Achieved rates must sit below the 125 TFLOP/s fp16 peak.
        for p in [v100_finetune(), v100_pretrain()] {
            let tflops = 1.0 / p.sec_per_flop / 1e12;
            assert!(tflops > 5.0 && tflops < 125.0, "{tflops} TFLOP/s");
        }
    }

    #[test]
    fn finetune_baseline_iteration_time() {
        // TP=1, PP=4 fine-tuning baseline: paper measures 591.96 ms.
        use crate::iteration::{simulate_iteration, TrainSetup};
        use crate::plan::CompressionPlan;
        use crate::topology::Parallelism;
        use crate::workload::ModelShape;
        use crate::ClusterSpec;
        use actcomp_compress::cost::CostModel;

        let setup = TrainSetup {
            model: ModelShape::bert_large(),
            seq: 512,
            micro_batch: 32,
            num_micro_batches: 1,
            parallelism: Parallelism::new(1, 4),
            cluster: ClusterSpec::p3_8xlarge(),
            gpu: v100_finetune(),
            plan: CompressionPlan::none(),
            cost: CostModel::v100(),
        };
        let b = simulate_iteration(&setup);
        assert!(
            (b.total_ms - 591.96).abs() / 591.96 < 0.10,
            "TP=1 PP=4 baseline {} vs paper 591.96",
            b.total_ms
        );
    }
}
