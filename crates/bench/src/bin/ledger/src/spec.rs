//! The benchmark's contract as data: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repo root is rendered
//! from these tables (`ledger --print-benchmark-json`) and a unit test
//! holds the two equal, so the bin can never emit a name the file lacks.

/// Directory (relative to the repo root) that holds the benchmark.
pub const BENCH_DIR: &str = "crates/bench/src/bin/ledger";

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "train_mpsc_dense",
        why: "tp=2 training steps over in-process channels, no compression, 8x64 tokens: compute-bound, so tensor/nn work shows here and transport work must not",
    },
    Workload {
        name: "train_uds_dense",
        why: "the same ranks over uncapped Unix sockets, 4x64 tokens: wire-bound chunked ring of medium frames, so CRC, copies and flush-per-frame show here",
    },
    Workload {
        name: "train_tcp_q2",
        why: "tp=2 over TCP capped at 200 Mbit/s with Q2 on the last two layers: the paper's regime, throttle wait dominates and bytes are the lever (unchunked all-gather frames)",
    },
    Workload {
        name: "serve_sat",
        why: "serving engine tp=1 pp=2 over Unix sockets, closed loop, one generator thread keeping 16 tickets outstanding: capacity under continuous batching, tiny frames so per-frame cost not bytes/s",
    },
    Workload {
        name: "serve_paced",
        why: "the same engine, open loop with Poisson arrivals at 1000 req/s (about a fifth of serve_sat capacity), timed from the due instant: latency with real queueing and small batches",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> EndToEnd {
    // One bound for all: this box's run-to-run noise, not the code, sets
    // it (see the README's A/A table).
    EndToEnd {
        name,
        unit,
        better,
        bound: 0.25,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("tokens_per_s", "tok/s", "higher"),
    e2e("op_p50_ms", "ms", "lower"),
    e2e("peak_rss_mb", "MB", "lower"),
    e2e("setup_s", "s", "lower"),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every per-layer metric, in layer order. A value of 0 on a workload
/// means "this layer is not on this workload's path" (see the README).
pub const PER_LAYER: &[PerLayer] = &[
    pl("op_p90_ms", "ms", "lower"),
    pl("tensor.gemm_ms_per_op", "ms", "lower"),
    pl("tensor.gemm_gflops", "GFLOP/s", "higher"),
    pl("tensor.gemm_flops_per_op", "count", "lower"),
    pl("tensor.plan_peak_ws_bytes", "B", "lower"),
    pl("nn.layer_fwd_ms", "ms", "lower"),
    pl("nn.layer_bwd_ms", "ms", "lower"),
    pl("mp.serial_step_ms", "ms", "lower"),
    pl("mp.scaling_eff", "ratio", "higher"),
    pl("compress.a2.encode_gbps", "GB/s", "higher"),
    pl("compress.a2.decode_gbps", "GB/s", "higher"),
    pl("compress.a2.wire_ratio", "count", "higher"),
    pl("compress.t2.encode_gbps", "GB/s", "higher"),
    pl("compress.t2.decode_gbps", "GB/s", "higher"),
    pl("compress.t2.wire_ratio", "count", "higher"),
    pl("compress.q2.encode_gbps", "GB/s", "higher"),
    pl("compress.q2.decode_gbps", "GB/s", "higher"),
    pl("compress.q2.wire_ratio", "count", "higher"),
    pl("compress.q2.roundtrip_rel_err", "count", "lower"),
    pl("net.crc32_gbps", "GB/s", "higher"),
    pl("net.frame_rtt_us", "us", "lower"),
    pl("net.stream_mbps", "Mbit/s", "higher"),
    pl("net.frames_per_op", "count", "lower"),
    pl("net.bytes_per_op", "B", "lower"),
    pl("net.send_busy_ms_per_op", "ms", "lower"),
    pl("net.recv_wait_ms_per_op", "ms", "lower"),
    pl("comm.allreduce_ms", "ms", "lower"),
    pl("comm.allreduce_calls_per_op", "count", "lower"),
    pl("comm.wire_bytes_per_op", "B", "lower"),
    pl("comm.dense_bytes_per_op", "B", "lower"),
    pl("runtime.forward_ms", "ms", "lower"),
    pl("runtime.backward_ms", "ms", "lower"),
    pl("runtime.optim_ms", "ms", "lower"),
    pl("runtime.compute_ms_per_op", "ms", "lower"),
    pl("runtime.encode_ms_per_op", "ms", "lower"),
    pl("runtime.wire_ms_per_op", "ms", "lower"),
    pl("runtime.decode_ms_per_op", "ms", "lower"),
    pl("runtime.collective_ms_per_op", "ms", "lower"),
    pl("runtime.compute_share", "ratio", "higher"),
    pl("runtime.wire_share", "ratio", "lower"),
    pl("runtime.residual_share", "ratio", "lower"),
    pl("runtime.pipeline_idle_share", "ratio", "lower"),
    pl("runtime.compress_speedup", "ratio", "higher"),
    pl("serve.op_p99_ms", "ms", "lower"),
    pl("serve.batch_mean", "count", "higher"),
    pl("serve.batches_per_s", "1/s", "higher"),
    pl("serve.service_ms_b1", "ms", "lower"),
    pl("serve.service_ms_bmax", "ms", "lower"),
    pl("serve.queue_wait_ms_p50", "ms", "lower"),
    pl("serve.backlog_end", "count", "lower"),
    pl("serve.gen_lag_ms_p99", "ms", "lower"),
    pl("distsim.allreduce_pred_rel_err", "ratio", "lower"),
    pl("trace_overhead_share", "ratio", "lower"),
];

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Renders `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        &format!("{BENCH_DIR}/Cargo.toml"),
        "--",
    ]
    .map(quote)
    .join(", ");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quote(BENCH_DIR),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(well_formed(n), "bad name {n}");
        }
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                !u.is_empty()
                    && u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {u}"
            );
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// Every name the bin can emit is in `BENCHMARK.json` and vice versa:
    /// the committed file is exactly the rendering of the tables.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let committed = include_str!("../../../../../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `ledger --print-benchmark-json > BENCHMARK.json`"
        );
    }
}
