//! Cost models for the collectives model parallelism issues.
//!
//! Tensor parallelism issues ring all-reduces (or, for non-summable
//! compressed messages, all-gathers); pipeline parallelism issues
//! point-to-point sends. All models are the standard α–β forms:
//! `latency·rounds + bytes_moved / effective_bandwidth`.

use crate::hardware::LinkSpec;

/// Time of a ring all-reduce over `p` ranks of a `bytes`-sized buffer.
///
/// A ring moves `2·(p−1)/p · bytes` per rank across `2(p−1)` latency-bound
/// steps. `p == 1` costs nothing.
pub fn allreduce_time(link: &LinkSpec, p: usize, bytes: usize) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let moved = 2.0 * (p as f64 - 1.0) / p as f64 * bytes as f64;
    2.0 * (p as f64 - 1.0) * link.latency + moved / link.effective_bandwidth(p)
}

/// Bytes the busiest rank sends in the runtime's chain-reduce →
/// ring-broadcast all-reduce of a `bytes`-sized buffer.
///
/// That schedule keeps the rank-order fold a reduce-scatter cannot, at
/// the price of an uneven load: every rank sends the buffer once (down
/// the chain, or as the finished total), and ranks `0..p−2` send it a
/// second time when they pass the broadcast on. So rank 0 sends `2·bytes`
/// whenever `p ≥ 3` and `bytes` at `p = 2` — not the `2(p−1)/p · bytes`
/// of [`allreduce_time`]'s balanced ring, which the paper's tables keep.
pub fn chain_allreduce_egress(p: usize, bytes: f64) -> f64 {
    match p {
        0 | 1 => 0.0,
        2 => bytes,
        _ => 2.0 * bytes,
    }
}

/// Time of the runtime's chain-reduce → ring-broadcast all-reduce: the
/// same `2(p−1)` latency-bound hops as the ring, with the busiest
/// rank's egress ([`chain_allreduce_egress`]) through its link as the
/// bandwidth term.
pub fn chain_allreduce_time(link: &LinkSpec, p: usize, bytes: usize) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    2.0 * (p as f64 - 1.0) * link.latency
        + chain_allreduce_egress(p, bytes as f64) / link.effective_bandwidth(p)
}

/// Time of a ring all-gather over `p` ranks where each rank contributes
/// `bytes_per_rank`.
///
/// Every rank receives `(p−1)·bytes_per_rank` across `p−1` steps.
pub fn allgather_time(link: &LinkSpec, p: usize, bytes_per_rank: usize) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let moved = (p as f64 - 1.0) * bytes_per_rank as f64;
    (p as f64 - 1.0) * link.latency + moved / link.effective_bandwidth(p)
}

/// Time of a point-to-point transfer of `bytes`.
pub fn p2p_time(link: &LinkSpec, bytes: usize) -> f64 {
    link.latency + bytes as f64 / link.pair_bandwidth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::LinkSpec;

    const MB: usize = 1 << 20;

    #[test]
    fn single_rank_collectives_are_free() {
        let l = LinkSpec::nvlink();
        assert_eq!(allreduce_time(&l, 1, 100 * MB), 0.0);
        assert_eq!(allgather_time(&l, 1, 100 * MB), 0.0);
    }

    #[test]
    fn chain_allreduce_matches_the_ring_at_two_ranks_and_costs_more_beyond() {
        let l = LinkSpec::ethernet_10g();
        assert_eq!(chain_allreduce_time(&l, 1, MB), 0.0);
        assert_eq!(chain_allreduce_time(&l, 2, MB), allreduce_time(&l, 2, MB));
        for p in [3usize, 4, 8] {
            let mb = MB as f64;
            let ratio = chain_allreduce_egress(p, mb) / (2.0 * (p as f64 - 1.0) / p as f64 * mb);
            assert!((ratio - p as f64 / (p as f64 - 1.0)).abs() < 1e-12, "p={p}");
            assert!(chain_allreduce_time(&l, p, MB) > allreduce_time(&l, p, MB));
        }
    }

    #[test]
    fn allreduce_monotone_in_bytes() {
        let l = LinkSpec::pcie_shared();
        let t1 = allreduce_time(&l, 4, MB);
        let t2 = allreduce_time(&l, 4, 2 * MB);
        let t4 = allreduce_time(&l, 4, 4 * MB);
        assert!(t1 < t2 && t2 < t4);
        // Asymptotically linear in bytes.
        assert!((t4 - t2) / (t2 - t1) > 1.9);
    }

    #[test]
    fn shared_bridge_allreduce_grows_with_ranks() {
        // On a shared PCIe bridge, more ranks move more data through the
        // same pipe: TP=4 must be slower than TP=2 (paper Tables 13/14).
        let l = LinkSpec::pcie_shared();
        assert!(allreduce_time(&l, 4, 32 * MB) > allreduce_time(&l, 2, 32 * MB));
    }

    #[test]
    fn nvlink_mesh_allreduce_gets_cheaper_with_ranks() {
        // On an NVLink mesh, aggregate bandwidth grows with p faster than
        // the data volume does (paper Table 2: TP=4 beats TP=2 per layer).
        let l = LinkSpec::nvlink();
        assert!(allreduce_time(&l, 4, 32 * MB) < allreduce_time(&l, 2, 32 * MB));
    }

    #[test]
    fn paper_scale_allreduce_times() {
        // The paper's fine-tune all-reduce: 33.5 MB (32·512·1024 fp16).
        let bytes = 32 * 512 * 1024 * 2;
        // No NVLink, TP=2: Table 4's 150.72 ms over 48 forward
        // all-reduces implies ~3.14 ms per op.
        let t = allreduce_time(&LinkSpec::pcie_shared(), 2, bytes);
        assert!((t - 3.14e-3).abs() / 3.14e-3 < 0.15, "PCIe ar {t}");
        // NVLink, TP=2: ~1.5 ms (Table 2 vs compute budget).
        let t = allreduce_time(&LinkSpec::nvlink(), 2, bytes);
        assert!((t - 1.5e-3).abs() / 1.5e-3 < 0.25, "NVLink ar {t}");
    }

    #[test]
    fn p2p_dominated_by_latency_for_tiny_messages() {
        let l = LinkSpec::ethernet_10g();
        let tiny = p2p_time(&l, 16);
        assert!((tiny - l.latency) / l.latency < 0.01);
    }

    #[test]
    fn inter_node_p2p_matches_table9() {
        // Table 9: ~44 ms to move one 33.5 MB micro-batch activation one
        // way between pipeline stages on 10 Gbps.
        let bytes = 128 * 128 * 1024 * 2;
        let t = p2p_time(&LinkSpec::ethernet_10g(), bytes);
        assert!((t - 44.0e-3).abs() / 44.0e-3 < 0.15, "p2p {t}");
    }
}
