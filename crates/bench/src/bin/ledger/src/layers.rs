//! Per-layer measurements for the `--trace` run: each function times
//! calls into one layer's public functions at the workload's shapes,
//! from here, outside the program. Every loop is bounded by
//! [`MICRO_BUDGET`] so a traced run stays within its window.

use crate::counting::Counters;
use crate::fabric::{self, Wire};
use crate::stats::{median, median_secs};
use actcomp_compress::spec::{CompressorSpec, DENSE_ELEM_BYTES};
use actcomp_compress::Compressor;
use actcomp_distsim::calibration;
use actcomp_distsim::collective::allreduce_time;
use actcomp_distsim::hardware::{LinkKind, LinkSpec};
use actcomp_net::Transport;
use actcomp_nn::EncoderLayer;
use actcomp_runtime::{PhaseTimers, TpGroup};
use actcomp_tensor::graph::Graph;
use actcomp_tensor::plan::FusePolicy;
use actcomp_tensor::{init, kernels, Tensor, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock budget of one microbenchmark loop.
pub const MICRO_BUDGET: Duration = Duration::from_millis(150);

/// The shapes one rank of a workload runs its layers at.
#[derive(Clone, Copy)]
pub struct LayerShape {
    /// Sequences and tokens per sequence in one micro-batch.
    pub batch: usize,
    pub seq: usize,
    pub hidden: usize,
    pub heads: usize,
    pub ff: usize,
    /// Encoder layers one rank owns.
    pub layers_per_rank: usize,
    pub tp: usize,
    /// Training replays the backward GEMMs too; serving is forward-only.
    pub train: bool,
}

impl LayerShape {
    pub fn tokens(&self) -> usize {
        self.batch * self.seq
    }

    /// Bytes of one activation `[tokens, hidden]` in f32.
    pub fn activation_bytes(&self) -> usize {
        self.tokens() * self.hidden * 4
    }
}

#[derive(Clone, Copy)]
enum Gemm {
    /// `a[m,k] @ b[k,n]`
    Nn(usize, usize, usize),
    /// `a[k,m]ᵀ @ b[k,n]` — weight gradients
    Tn(usize, usize, usize),
    /// `a[m,k] @ b[n,k]ᵀ` — input gradients
    Nt(usize, usize, usize),
}

/// The linear-layer GEMMs one rank runs per op: per encoder layer the
/// three QKV projections, the output projection and the two MLP
/// matmuls at the tensor-parallel shard widths, plus (training) the
/// weight- and input-gradient GEMM of each. The per-head score/context
/// GEMMs are left to `nn.layer_fwd_ms`.
fn gemm_calls(s: &LayerShape) -> Vec<Gemm> {
    let (t, h, hs, fs) = (s.tokens(), s.hidden, s.hidden / s.tp, s.ff / s.tp);
    let linears = [(h, hs), (h, hs), (h, hs), (hs, h), (h, fs), (fs, h)];
    let mut per_layer = Vec::new();
    for (fan_in, fan_out) in linears {
        per_layer.push(Gemm::Nn(t, fan_in, fan_out));
        if s.train {
            per_layer.push(Gemm::Tn(t, fan_in, fan_out));
            per_layer.push(Gemm::Nt(t, fan_out, fan_in));
        }
    }
    let mut calls = Vec::new();
    for _ in 0..s.layers_per_rank {
        calls.extend_from_slice(&per_layer);
    }
    calls
}

pub struct GemmReplay {
    pub ms_per_op: f64,
    pub gflops: f64,
    pub flops_per_op: f64,
}

/// Replays [`gemm_calls`] through `kernels::gemm_nn/tn/nt`.
pub fn gemm_replay(s: &LayerShape) -> GemmReplay {
    let calls = gemm_calls(s);
    let dims = |g: &Gemm| match *g {
        Gemm::Nn(m, k, n) | Gemm::Nt(m, k, n) => (m * k, k * n, m * n, 2 * m * k * n),
        Gemm::Tn(k, m, n) => (k * m, k * n, m * n, 2 * m * k * n),
    };
    let a_len = calls.iter().map(|g| dims(g).0).max().unwrap_or(0);
    let b_len = calls.iter().map(|g| dims(g).1).max().unwrap_or(0);
    let o_len = calls.iter().map(|g| dims(g).2).max().unwrap_or(0);
    let flops: usize = calls.iter().map(|g| dims(g).3).sum();
    let mut rng = ChaCha8Rng::seed_from_u64(0x6E77);
    let a = init::randn(&mut rng, [a_len], 0.1).into_vec();
    let b = init::randn(&mut rng, [b_len], 0.1).into_vec();
    let mut out = vec![0.0f32; o_len];
    let mut ws = Workspace::new();
    let (secs, _) = median_secs(MICRO_BUDGET, 3, || {
        for g in &calls {
            let (al, bl, ol, _) = dims(g);
            let (a, b, out) = (&a[..al], &b[..bl], &mut out[..ol]);
            match *g {
                Gemm::Nn(m, k, n) => kernels::gemm_nn(out, false, a, b, m, k, n, 1, &mut ws),
                Gemm::Tn(k, m, n) => kernels::gemm_tn(out, false, a, b, k, m, n, 1, &mut ws),
                Gemm::Nt(m, k, n) => kernels::gemm_nt(out, false, a, b, m, k, n, 1, &mut ws),
            }
        }
        black_box(&mut out);
    });
    GemmReplay {
        ms_per_op: secs * 1e3,
        gflops: flops as f64 / secs / 1e9,
        flops_per_op: flops as f64,
    }
}

/// Planner peak workspace of the shard's MLP forward graph (the largest
/// compiled plan on the step's path), from `CompiledPlan`.
pub fn plan_peak_ws_bytes(s: &LayerShape) -> f64 {
    let (m, h, ff) = (s.tokens(), s.hidden, s.ff / s.tp);
    let mut g = Graph::new();
    let x = g.input(m, h);
    let w1 = g.input(h, ff);
    let b1 = g.input_vec(ff);
    let w2 = g.input(ff, h);
    let y1 = g.matmul(x, w1);
    let h1 = g.bias_add(y1, b1);
    let a = g.gelu(h1);
    let y2 = g.matmul(a, w2);
    g.mark_output(y2);
    g.mark_output(h1);
    g.mark_output(a);
    let plan = g.compile(FusePolicy::Auto).expect("mlp forward graph");
    plan.peak_workspace_bytes() as f64
}

/// Median milliseconds of `EncoderLayer::forward` and `::backward` at
/// the workload's micro-batch shape (the unsharded layer).
pub fn encoder_layer_ms(s: &LayerShape) -> (f64, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1A7E);
    let mut layer = EncoderLayer::new(&mut rng, s.hidden, s.heads, s.ff);
    let x = init::randn(&mut rng, [s.tokens(), s.hidden], 1.0);
    let dy = init::randn(&mut rng, [s.tokens(), s.hidden], 1e-3);
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while fwd.len() < 3 || start.elapsed() < MICRO_BUDGET {
        let t0 = Instant::now();
        black_box(layer.forward(&x, s.batch, s.seq));
        let t1 = Instant::now();
        black_box(layer.backward(&dy));
        fwd.push((t1 - t0).as_secs_f64());
        bwd.push(t1.elapsed().as_secs_f64());
    }
    (median(&fwd) * 1e3, median(&bwd) * 1e3)
}

pub struct CodecRates {
    pub encode_gbps: f64,
    pub decode_gbps: f64,
    pub wire_ratio: f64,
    pub roundtrip_rel_err: f64,
}

/// Encode/decode throughput of one compressor at the workload's
/// activation shape, in dense f32 bytes per second; `wire_ratio` uses
/// the repo's fp16-equivalent accounting (`Compressed::ratio`).
pub fn codec(spec: CompressorSpec, s: &LayerShape) -> CodecRates {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0DE);
    let mut comp = spec.build(&mut rng, s.tokens() * s.hidden, s.hidden);
    let x = init::randn(&mut rng, [s.tokens(), s.hidden], 1.0);
    let budget = MICRO_BUDGET / 3;
    let (enc_s, _) = median_secs(budget, 3, || {
        black_box(comp.compress(&x));
    });
    let msg = comp.compress(&x);
    let (dec_s, _) = median_secs(budget, 3, || {
        black_box(comp.decompress(&msg));
    });
    let back = comp.decompress(&msg);
    let bytes = s.activation_bytes() as f64;
    CodecRates {
        encode_gbps: bytes / enc_s / 1e9,
        decode_gbps: bytes / dec_s / 1e9,
        wire_ratio: msg.ratio(DENSE_ELEM_BYTES),
        roundtrip_rel_err: f64::from(back.sub(&x).norm()) / f64::from(x.norm()),
    }
}

/// `frame::crc32` throughput on one ring-chunk-sized buffer.
pub fn crc32_gbps(chunk_bytes: usize) -> f64 {
    let buf: Vec<u8> = (0..chunk_bytes).map(|i| (i * 31 + 7) as u8).collect();
    let (secs, _) = median_secs(MICRO_BUDGET / 3, 3, || {
        black_box(actcomp_net::crc32(0, black_box(&buf)));
    });
    chunk_bytes as f64 / secs / 1e9
}

const PING_CHAN: u16 = 11;
const PONG_CHAN: u16 = 12;

/// Runs `f0` on endpoint 0 of a fresh two-rank world of `wire` while
/// `f1` runs on endpoint 1 in a second thread; both endpoints are shut
/// down afterwards.
fn on_pair<T: Send>(
    wire: Wire,
    counters: Option<&Arc<Counters>>,
    f0: impl FnOnce(&mut dyn Transport) -> T + Send,
    f1: impl FnOnce(&mut dyn Transport) -> T + Send,
) -> (T, T) {
    let mut world = fabric::world(wire, 2, counters);
    let mut t1 = world.pop().expect("rank 1");
    let mut t0 = world.pop().expect("rank 0");
    std::thread::scope(|s| {
        let peer = s.spawn(move || {
            let out = f1(t1.as_mut());
            t1.shutdown();
            out
        });
        let out0 = f0(t0.as_mut());
        let out1 = peer.join().expect("peer endpoint thread");
        t0.shutdown();
        (out0, out1)
    })
}

/// Median round trip of a 64-byte frame on `wire`, in microseconds.
pub fn frame_rtt_us(wire: Wire) -> f64 {
    const ROUNDS: usize = 600;
    let (rtts, _) = on_pair(
        wire,
        None,
        |t| {
            let mut tx = t.open_send(1, PING_CHAN).expect("ping tx");
            let mut rx = t.open_recv(1, PONG_CHAN).expect("pong rx");
            let payload = [0x5Au8; 64];
            let mut rtts = Vec::with_capacity(ROUNDS);
            for _ in 0..ROUNDS {
                let t0 = Instant::now();
                tx.send(&payload).expect("ping");
                black_box(rx.recv().expect("pong"));
                rtts.push(t0.elapsed().as_secs_f64());
            }
            rtts
        },
        |t| {
            let mut rx = t.open_recv(0, PING_CHAN).expect("ping rx");
            let mut tx = t.open_send(0, PONG_CHAN).expect("pong tx");
            for _ in 0..ROUNDS {
                let frame = rx.recv().expect("ping");
                tx.send(&frame).expect("pong");
            }
            Vec::new()
        },
    );
    // The first tenth covers connect, handshake and first-touch.
    median(&rtts[ROUNDS / 10..]) * 1e6
}

/// One-way throughput of ring-chunk-sized frames on `wire`, Mbit/s of
/// payload: `frames` frames out, one ack back.
pub fn stream_mbps(wire: Wire, chunk_bytes: usize) -> f64 {
    let frames = (2_000_000 / chunk_bytes.max(1)).clamp(8, 4096);
    let (secs, _) = on_pair(
        wire,
        None,
        |t| {
            let mut tx = t.open_send(1, PING_CHAN).expect("stream tx");
            let mut rx = t.open_recv(1, PONG_CHAN).expect("ack rx");
            let payload = vec![0xA5u8; chunk_bytes];
            // Connect, handshake and first-touch outside the window.
            tx.send(&payload).expect("warm frame");
            rx.recv().expect("warm ack");
            let t0 = Instant::now();
            for _ in 0..frames {
                tx.send(&payload).expect("frame");
            }
            rx.recv().expect("ack");
            t0.elapsed().as_secs_f64()
        },
        |t| {
            let mut rx = t.open_recv(0, PING_CHAN).expect("stream rx");
            let mut tx = t.open_send(0, PONG_CHAN).expect("ack tx");
            black_box(rx.recv().expect("warm frame"));
            tx.send(&[1]).expect("warm ack");
            for _ in 0..frames {
                black_box(rx.recv().expect("frame"));
            }
            tx.send(&[1]).expect("ack");
            0.0
        },
    );
    (frames * chunk_bytes) as f64 * 8.0 / secs / 1e6
}

pub struct AllReduce {
    /// Slowest rank's median seconds per collective.
    pub secs: f64,
    /// Payload bytes one rank put on the wire per collective.
    pub wire_bytes_per_rank: f64,
}

/// `iters` tensor-parallel all-reduces of a `[rows, width]` partial over
/// a fresh two-rank world: `TpGroup::dense_all_reduce`, or
/// `compressed_all_reduce` through `spec`'s compressor when given.
fn all_reduce_iters(
    wire: Wire,
    rows: usize,
    width: usize,
    spec: Option<CompressorSpec>,
    iters: usize,
) -> AllReduce {
    let counters = Arc::new(Counters::default());
    let rank = |t: &mut dyn Transport| {
        let mut g = TpGroup::over_transport(t).expect("ring links");
        let mut rng = ChaCha8Rng::seed_from_u64(0xA11 + t.rank() as u64);
        let part = init::randn(&mut rng, [rows, width], 1.0);
        // Both ranks seed the codec alike, as the engine's replicas are.
        let mut comp: Option<Box<dyn Compressor>> = spec.map(|s| {
            let mut crng = ChaCha8Rng::seed_from_u64(0xC0DEC);
            s.build(&mut crng, rows * width, width)
        });
        let mut timers = PhaseTimers::default();
        let mut ws = Workspace::new();
        let mut one = |g: &mut TpGroup| -> Tensor {
            match comp.as_mut() {
                Some(c) => g.compressed_all_reduce(c.as_mut(), &part, &mut timers, &mut ws),
                None => g.dense_all_reduce(&part, &mut timers, &mut ws),
            }
        };
        black_box(one(&mut g));
        let before = counters.snapshot();
        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t0 = Instant::now();
            black_box(one(&mut g));
            samples.push(t0.elapsed().as_secs_f64());
        }
        (median(&samples), counters.snapshot().since(&before).bytes)
    };
    let ((s0, _), (s1, bytes)) = on_pair(wire, Some(&counters), rank, rank);
    AllReduce {
        secs: s0.max(s1),
        // Rank 1 finishes last on the chain-reduce ring; by then both
        // ranks' sends of every timed collective are counted. A frame of
        // the peer's still in flight would be at most one collective's.
        wire_bytes_per_rank: bytes as f64 / (2 * iters) as f64,
    }
}

/// All-reduce time at the workload's payload over its wire, within
/// [`MICRO_BUDGET`]: a two-op probe sizes the iteration count.
pub fn all_reduce(
    wire: Wire,
    rows: usize,
    width: usize,
    spec: Option<CompressorSpec>,
) -> AllReduce {
    let probe = all_reduce_iters(wire, rows, width, spec, 2);
    let iters = (MICRO_BUDGET.as_secs_f64() / probe.secs.max(1e-6)) as usize;
    all_reduce_iters(wire, rows, width, spec, iters.clamp(3, 400))
}

/// Relative error of `distsim`'s α–β all-reduce prediction against the
/// measured collective on the capped TCP link. The link is calibrated
/// the way `bin/net.rs` does it: per-round latency from a tiny
/// all-reduce and host copy rate from a full-payload one, both on
/// uncapped TCP; only the token-bucket bandwidth is nominal.
pub fn distsim_rel_err(cap_mbps: f64, rows: usize, width: usize, measured: &AllReduce) -> f64 {
    let uncapped = Wire::Tcp { link_mbps: None };
    let tiny = all_reduce(uncapped, 1, 16, None);
    let full = all_reduce(uncapped, rows, width, None);
    let alpha = calibration::round_latency_from_allreduce(2, tiny.secs);
    let host_bw =
        calibration::host_bandwidth_from_allreduce(2, full.wire_bytes_per_rank, full.secs, alpha);
    let nominal = LinkSpec {
        kind: LinkKind::Ethernet,
        pair_bandwidth: cap_mbps * 1e6 / 8.0,
        latency: alpha,
        scales_with_peers: false,
        compressed_collective_overhead: 0.0,
    };
    let link = calibration::calibrate_loopback_link(&nominal, alpha, host_bw);
    let predicted = allreduce_time(&link, 2, measured.wire_bytes_per_rank as usize);
    (measured.secs - predicted).abs() / predicted
}
