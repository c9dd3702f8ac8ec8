//! Per-layer values by name, and the measurements every traced workload
//! reports the same way. Names are checked against the `spec` table when
//! the run prints them.

use crate::counting::Snapshot;
use crate::fabric::Wire;
use crate::layers::{self, LayerShape};
use crate::spans::Tracer;
use crate::stats::{percentile, sorted};
use crate::{spec, Measured};
use actcomp_compress::spec::CompressorSpec;
use actcomp_runtime::RuntimeReport;

#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// A recorded name the `spec` table does not list, if any.
    pub fn stray(&self) -> Option<&str> {
        self.0
            .iter()
            .map(|(n, _)| n.as_str())
            .find(|n| !spec::PER_LAYER.iter().any(|p| p.name == *n))
    }

    /// Marks every per-layer metric under `prefix` as not on this
    /// workload's path.
    pub fn zero_prefix(&mut self, prefix: &str) {
        for m in spec::PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with(prefix))
        {
            self.set(m.name, 0.0);
        }
    }

    /// What the traced window and the bare one after it say together:
    /// the pooled p90 (0 if the window holds too few ops), the price of
    /// tracing, and the plain single-worker baseline against the
    /// `world`-rank engine's wall per op.
    pub fn set_windows(
        &mut self,
        traced: &Measured,
        bare: &Measured,
        serial_ms: f64,
        world: usize,
    ) {
        let p90 = percentile(&sorted(traced.latencies_s()), 90.0);
        self.set("op_p90_ms", p90.map_or(0.0, |s| s * 1e3));
        self.set(
            "trace_overhead_share",
            1.0 - traced.tokens_per_s() / bare.tokens_per_s(),
        );
        self.set("mp.serial_step_ms", serial_ms);
        let bare_op_ms = bare.wall_s * 1e3 / bare.attempted as f64;
        self.set("mp.scaling_eff", serial_ms / (world as f64 * bare_op_ms));
    }

    /// `report()` deltas over the traced window, per op on the slowest
    /// rank, and their shares of the op wall. `collective_s` overlaps
    /// encode/wire/decode, so the residual does not sum it.
    pub fn set_phases(&mut self, before: &RuntimeReport, after: &RuntimeReport, traced: &Measured) {
        let ops = traced.attempted as f64;
        let phases = after
            .ranks
            .iter()
            .zip(&before.ranks)
            .map(|(a, b)| {
                let (a, b) = (&a.timers, &b.timers);
                [
                    (a.compute_s - b.compute_s) / ops,
                    (a.encode_s - b.encode_s) / ops,
                    (a.wire_s - b.wire_s) / ops,
                    (a.decode_s - b.decode_s) / ops,
                    (a.collective_s - b.collective_s) / ops,
                ]
            })
            .max_by(|x, y| x[..4].iter().sum::<f64>().total_cmp(&y[..4].iter().sum()))
            .unwrap_or([0.0; 5]);
        for (name, secs) in ["compute", "encode", "wire", "decode", "collective"]
            .iter()
            .zip(phases)
        {
            self.set(format!("runtime.{name}_ms_per_op"), secs * 1e3);
        }
        let op_wall = traced.wall_s / ops;
        self.set("runtime.compute_share", phases[0] / op_wall);
        self.set("runtime.wire_share", phases[2] / op_wall);
        self.set(
            "runtime.residual_share",
            1.0 - phases[..4].iter().sum::<f64>() / op_wall,
        );
    }

    /// `CountingTransport` totals over the traced window, per op.
    pub fn set_net_counts(&mut self, net: &Snapshot, ops: f64) {
        self.set("net.frames_per_op", net.frames as f64 / ops);
        self.set("net.bytes_per_op", net.bytes as f64 / ops);
        self.set("net.send_busy_ms_per_op", net.send_busy_s * 1e3 / ops);
        self.set("net.recv_wait_ms_per_op", net.recv_wait_s * 1e3 / ops);
    }

    /// The layer replays at the workload's shapes: GEMMs, planner
    /// workspace, encoder layer, the three paper codecs, and CRC / frame
    /// round trip / stream on `wire` with `frame_bytes` frames.
    pub fn set_layer_replays(
        &mut self,
        tracer: &mut Tracer,
        shape: &LayerShape,
        wire: Wire,
        frame_bytes: usize,
    ) {
        let gemm = tracer.scope("layer.tensor.gemm", None, 0, || layers::gemm_replay(shape));
        self.set("tensor.gemm_ms_per_op", gemm.ms_per_op);
        self.set("tensor.gemm_gflops", gemm.gflops);
        self.set("tensor.gemm_flops_per_op", gemm.flops_per_op);
        self.set(
            "tensor.plan_peak_ws_bytes",
            layers::plan_peak_ws_bytes(shape),
        );
        let (fwd, bwd) = tracer.scope("layer.nn.encoder", None, 0, || {
            layers::encoder_layer_ms(shape)
        });
        self.set("nn.layer_fwd_ms", fwd);
        self.set("nn.layer_bwd_ms", bwd);
        tracer.scope("layer.compress", None, 0, || {
            for (label, codec) in [
                ("a2", CompressorSpec::A2),
                ("t2", CompressorSpec::T2),
                ("q2", CompressorSpec::Q2),
            ] {
                let rates = layers::codec(codec, shape);
                self.set(format!("compress.{label}.encode_gbps"), rates.encode_gbps);
                self.set(format!("compress.{label}.decode_gbps"), rates.decode_gbps);
                self.set(format!("compress.{label}.wire_ratio"), rates.wire_ratio);
                if codec == CompressorSpec::Q2 {
                    self.set("compress.q2.roundtrip_rel_err", rates.roundtrip_rel_err);
                }
            }
        });
        tracer.scope("layer.net", None, 0, || {
            self.set("net.crc32_gbps", layers::crc32_gbps(frame_bytes));
            self.set("net.frame_rtt_us", layers::frame_rtt_us(wire));
            self.set("net.stream_mbps", layers::stream_mbps(wire, frame_bytes));
        });
    }
}
