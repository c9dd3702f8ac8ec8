//! Transport-layer benchmark (`BENCH_net.json`): what does moving the
//! rank fabric from in-process channels onto real sockets cost, and
//! when does activation compression start paying for itself on a
//! bandwidth-limited link?
//!
//! Three measurements:
//!
//! 1. **Collectives per transport** — the chunked chain-reduce +
//!    broadcast dense all-reduce over mpsc, Unix domain sockets, and
//!    loopback TCP (the TCP rows repeated under several `--link-mbps`
//!    token-bucket caps), reporting per-op time and effective GB/s.
//! 2. **Simulator cross-check** — the measured throttled-TCP collective
//!    time against `actcomp-distsim`'s α–β predictions for a link of
//!    the same nominal bandwidth: the balanced-ring form the paper
//!    tables use with a guessed α (`rel_error`), and the executed
//!    chain-reduce → ring-broadcast schedule's cost on the calibrated
//!    link (`calibrated_rel_error`).
//! 3. **Compression crossover** — full engine steps over throttled TCP
//!    with compression off vs. the T2 sparsifier, sweeping the cap
//!    downward until the compressed run wins; the crossover bandwidth
//!    is where the paper's trade-off flips (Takeaway 2: compression
//!    helps only once the wire, not the codec, is the bottleneck).

use actcomp_bench::util;
use actcomp_compress::plan::CompressionPlan;
use actcomp_compress::spec::CompressorSpec;
use actcomp_core::report::Table;
use actcomp_distsim::calibration;
use actcomp_distsim::collective::{allreduce_time, chain_allreduce_time};
use actcomp_distsim::hardware::{LinkKind, LinkSpec};
use actcomp_mp::MpConfig;
use actcomp_net::{mpsc_world, SocketOptions, SocketTransport, Transport, TransportKind};
use actcomp_nn::{BertConfig, BertEncoder};
use actcomp_runtime::{PhaseTimers, RuntimeConfig, ThreadedRuntime, TpGroup};
use actcomp_tensor::{init, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

/// Loopback round-trip budget for the prediction's α term: generous for
/// a kernel socket hop, far below any real NIC. Kept as the *uncalibrated*
/// reference point; the calibrated rows measure this instead of guessing.
const LOOPBACK_LATENCY_S: f64 = 50e-6;

#[derive(Serialize)]
struct CollectiveRow {
    transport: String,
    link_mbps: Option<f64>,
    payload_bytes: f64,
    per_op_ms: f64,
    wire_bytes_per_rank_per_op: f64,
    effective_gbps: f64,
}

#[derive(Serialize)]
struct DistsimRow {
    link_mbps: f64,
    measured_ms: f64,
    /// Prediction with the hand-guessed `LOOPBACK_LATENCY_S` α term.
    predicted_ms: f64,
    rel_error: f64,
    /// Per-round latency measured from a tiny-payload all-reduce on the
    /// same throttled transport (`calibration::round_latency_from_allreduce`).
    frame_latency_us: f64,
    /// Prediction of the executed schedule (`chain_allreduce_time`) on
    /// the link calibrated with the measured per-round constant and
    /// host copy rate.
    calibrated_ms: f64,
    calibrated_rel_error: f64,
}

#[derive(Serialize)]
struct CrossoverReport {
    caps_mbps: Vec<f64>,
    baseline_step_ms: Vec<f64>,
    compressed_step_ms: Vec<f64>,
    /// Estimated bandwidth below which the T2-compressed run beats the
    /// uncompressed one. `None` when compression never won in the sweep.
    crossover_mbps: Option<f64>,
}

#[derive(Serialize)]
struct NetBench {
    world: usize,
    collectives: Vec<CollectiveRow>,
    distsim: Vec<DistsimRow>,
    crossover: CrossoverReport,
}

/// Binds `world` socket endpoints and exchanges the peer table, as the
/// multi-process rendezvous would.
fn socket_world(
    kind: TransportKind,
    world: usize,
    link_mbps: Option<f64>,
) -> Vec<Box<dyn Transport>> {
    let opts = SocketOptions {
        link_mbps,
        ..SocketOptions::default()
    };
    let mut ts: Vec<SocketTransport> = (0..world)
        .map(|r| SocketTransport::bind(kind, r, world, 0xBE7C, opts).expect("bind"))
        .collect();
    let addrs: Vec<String> = ts.iter().map(|t| t.local_addr().to_string()).collect();
    for t in ts.iter_mut() {
        for (p, a) in addrs.iter().enumerate() {
            t.set_peer(p, a.clone());
        }
    }
    ts.into_iter()
        .map(|t| Box::new(t) as Box<dyn Transport>)
        .collect()
}

fn mpsc_boxed(world: usize) -> Vec<Box<dyn Transport>> {
    mpsc_world(world)
        .into_iter()
        .map(|t| Box::new(t) as Box<dyn Transport>)
        .collect()
}

/// Runs `iters` dense all-reduces on every rank of the given transports
/// (one thread per rank, after one warmup op) and returns the slowest
/// rank's per-op seconds plus the wire bytes one rank moved per op.
fn bench_collective(
    transports: Vec<Box<dyn Transport>>,
    rows: usize,
    width: usize,
    iters: usize,
) -> (f64, f64) {
    let handles: Vec<_> = transports
        .into_iter()
        .enumerate()
        .map(|(rank, mut t)| {
            std::thread::spawn(move || {
                let mut g = TpGroup::over_transport(t.as_mut()).expect("ring links");
                let mut rng = ChaCha8Rng::seed_from_u64(rank as u64);
                let part = init::randn(&mut rng, [rows, width], 1.0);
                let mut timers = PhaseTimers::default();
                let mut ws = Workspace::new();
                let _ = g.dense_all_reduce(&part, &mut timers, &mut ws);
                let wire0 = g.ring_bytes.wire;
                let t0 = Instant::now();
                for _ in 0..iters {
                    let _ = g.dense_all_reduce(&part, &mut timers, &mut ws);
                }
                let elapsed = t0.elapsed().as_secs_f64();
                let wire = g.ring_bytes.wire - wire0;
                t.shutdown();
                (elapsed / iters as f64, wire as f64 / iters as f64)
            })
        })
        .collect();
    let per_rank: Vec<(f64, f64)> = handles
        .into_iter()
        .map(|h| h.join().expect("rank thread"))
        .collect();
    let per_op = per_rank.iter().map(|r| r.0).fold(0.0, f64::max);
    let wire = per_rank.iter().map(|r| r.1).sum::<f64>() / per_rank.len() as f64;
    (per_op, wire)
}

fn engine_cfg(plan: CompressionPlan) -> (RuntimeConfig, Vec<usize>, usize, usize) {
    let bert = BertConfig {
        vocab: 64,
        hidden: 32,
        layers: 4,
        heads: 4,
        ff_hidden: 64,
        max_seq: 8,
    };
    let (batch, seq) = (4usize, 8usize);
    let cfg = RuntimeConfig {
        mp: MpConfig {
            bert,
            tp: 2,
            pp: 2,
            plan,
            tokens: batch * seq,
            error_feedback: false,
        },
        micro_batches: 2,
        tuning: None,
        trace: false,
    };
    let mut drng = ChaCha8Rng::seed_from_u64(5);
    let ids: Vec<usize> = (0..batch * seq)
        .map(|_| (rand::Rng::gen::<u64>(&mut drng) % 64) as usize)
        .collect();
    (cfg, ids, batch, seq)
}

/// Mean wall-clock seconds of one training step on the engine wired
/// over throttled TCP.
fn bench_engine_step(plan: CompressionPlan, link_mbps: f64, steps: usize) -> f64 {
    let (cfg, ids, batch, seq) = engine_cfg(plan);
    let world = cfg.world();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let serial = BertEncoder::new(&mut rng, cfg.mp.bert.clone());
    let mut rt_rng = ChaCha8Rng::seed_from_u64(11);
    let transports = socket_world(TransportKind::Tcp, world, Some(link_mbps));
    let mut rt =
        ThreadedRuntime::with_transports(&serial, cfg, &mut rt_rng, transports).expect("engine");
    let mut step = || {
        let y = rt.forward(&ids, batch, seq).expect("forward");
        rt.zero_grad();
        rt.backward(&y).expect("backward");
        rt.sgd_step(1e-2);
    };
    step(); // warmup: lazy connects, first-touch allocations
    let t0 = Instant::now();
    for _ in 0..steps {
        step();
    }
    t0.elapsed().as_secs_f64() / steps as f64
}

fn main() {
    let opts = util::Options::from_args();
    let world = 4usize;
    let (rows, width, iters) = if opts.quick {
        (64, 256, 8)
    } else {
        (256, 1024, 16)
    };
    // A dense element crosses the ring as bfloat16.
    let payload_bytes = (rows * width * 2) as f64;
    let tcp_caps: &[f64] = if opts.quick {
        &[1000.0, 200.0]
    } else {
        &[2000.0, 500.0, 100.0]
    };

    // 1. Collectives per transport.
    let mut collectives = Vec::new();
    let mut table = Table::new(
        "Dense all-reduce over the transport layer (4 ranks)",
        ["Transport", "Cap Mbit/s", "Per-op ms", "Effective GB/s"]
            .into_iter()
            .map(String::from)
            .collect(),
    );
    type Run = (String, Option<f64>, Vec<Box<dyn Transport>>);
    let mut runs: Vec<Run> = vec![
        ("mpsc".into(), None, mpsc_boxed(world)),
        (
            "uds".into(),
            None,
            socket_world(TransportKind::Uds, world, None),
        ),
        (
            "tcp".into(),
            None,
            socket_world(TransportKind::Tcp, world, None),
        ),
    ];
    for &cap in tcp_caps {
        runs.push((
            "tcp".into(),
            Some(cap),
            socket_world(TransportKind::Tcp, world, Some(cap)),
        ));
    }
    for (transport, cap, ts) in runs {
        let (per_op, wire) = bench_collective(ts, rows, width, iters);
        let gbps = wire / per_op / 1e9;
        table.push_row(vec![
            transport.clone(),
            cap.map_or("—".into(), |c| format!("{c:.0}")),
            format!("{:.3}", per_op * 1e3),
            format!("{gbps:.3}"),
        ]);
        collectives.push(CollectiveRow {
            transport,
            link_mbps: cap,
            payload_bytes,
            per_op_ms: per_op * 1e3,
            wire_bytes_per_rank_per_op: wire,
            effective_gbps: gbps,
        });
    }

    // 2. Simulator cross-check on the throttled TCP rows, where the
    // nominal bandwidth is known exactly (it is the token bucket's).
    //
    // Two predictions per row: the balanced ring with the hand-guessed
    // loopback α, and the schedule the runtime executes (whose busiest
    // rank sends the payload twice at p ≥ 3) on a link calibrated from
    // measured transport overhead. The calibration
    // takes two measurements on the *unthrottled* TCP transport: a
    // tiny-payload all-reduce, whose time is pure per-round overhead
    // (`round_latency_from_allreduce` maps it through the model's
    // `2(p−1)` round count), and the full-payload row from section 1,
    // whose remainder after the α term is the host-side socket-copy
    // rate (`host_bandwidth_from_allreduce`). Each throttled row is
    // then a genuine prediction: same constants, only the token-bucket
    // cap changes.
    let (tiny_s, _) = bench_collective(
        socket_world(TransportKind::Tcp, world, None),
        1,
        16,
        iters.max(16),
    );
    let alpha = calibration::round_latency_from_allreduce(world, tiny_s);
    let tcp_loopback = collectives
        .iter()
        .find(|r| r.transport == "tcp" && r.link_mbps.is_none())
        .expect("unthrottled tcp row measured above");
    let host_bw = calibration::host_bandwidth_from_allreduce(
        world,
        payload_bytes,
        tcp_loopback.per_op_ms / 1e3,
        alpha,
    );
    println!(
        "calibration (unthrottled tcp): α={:.1} µs/round, host copy rate {:.1} MB/s",
        alpha * 1e6,
        host_bw / 1e6
    );
    let mut distsim = Vec::new();
    for row in collectives.iter().filter(|r| r.link_mbps.is_some()) {
        let cap = row.link_mbps.expect("filtered");
        let link = LinkSpec {
            kind: LinkKind::Ethernet,
            pair_bandwidth: cap * 1e6 / 8.0,
            latency: LOOPBACK_LATENCY_S,
            scales_with_peers: false,
            compressed_collective_overhead: 0.0,
        };
        let calibrated_link = calibration::calibrate_loopback_link(&link, alpha, host_bw);
        let predicted = allreduce_time(&link, world, payload_bytes as usize);
        let calibrated = chain_allreduce_time(&calibrated_link, world, payload_bytes as usize);
        let measured = row.per_op_ms / 1e3;
        let rel_error = (measured - predicted) / predicted;
        let calibrated_rel_error = (measured - calibrated) / calibrated;
        distsim.push(DistsimRow {
            link_mbps: cap,
            measured_ms: measured * 1e3,
            predicted_ms: predicted * 1e3,
            rel_error,
            frame_latency_us: alpha * 1e6,
            calibrated_ms: calibrated * 1e3,
            calibrated_rel_error,
        });
    }

    // 3. Compression crossover: sweep the cap downward; the codec's
    // fixed cost loses on fast links and wins once the wire dominates.
    let sweep: &[f64] = if opts.quick {
        &[1000.0, 20.0]
    } else {
        &[2000.0, 200.0, 50.0, 20.0]
    };
    let steps = opts.steps.unwrap_or(if opts.quick { 1 } else { 3 });
    let mut baseline_ms = Vec::new();
    let mut compressed_ms = Vec::new();
    for &cap in sweep {
        let base = bench_engine_step(CompressionPlan::none(), cap, steps);
        let comp = bench_engine_step(
            CompressionPlan::last_layers(CompressorSpec::T2, 4, 2),
            cap,
            steps,
        );
        baseline_ms.push(base * 1e3);
        compressed_ms.push(comp * 1e3);
    }
    // The crossover estimate: the geometric mean of the last cap where
    // the baseline won and the first where compression did (the sweep
    // is sorted fastest link first).
    let mut crossover_mbps = None;
    for i in 0..sweep.len() {
        if compressed_ms[i] < baseline_ms[i] {
            crossover_mbps = Some(if i == 0 {
                sweep[0]
            } else {
                (sweep[i - 1] * sweep[i]).sqrt()
            });
            break;
        }
    }
    let mut xtable = Table::new(
        "Compression crossover on throttled TCP (tp=2 pp=2 engine step)",
        ["Cap Mbit/s", "w/o ms", "T2 ms", "Winner"]
            .into_iter()
            .map(String::from)
            .collect(),
    );
    for (i, &cap) in sweep.iter().enumerate() {
        xtable.push_row(vec![
            format!("{cap:.0}"),
            format!("{:.2}", baseline_ms[i]),
            format!("{:.2}", compressed_ms[i]),
            if compressed_ms[i] < baseline_ms[i] {
                "T2".into()
            } else {
                "w/o".into()
            },
        ]);
    }

    println!("{table}");
    for d in &distsim {
        println!(
            "distsim check @{:.0} Mbit/s: measured {:.3} ms vs predicted {:.3} ms ({:+.0}% error); \
             calibrated α={:.1} µs/round → {:.3} ms ({:+.0}% error)",
            d.link_mbps,
            d.measured_ms,
            d.predicted_ms,
            100.0 * d.rel_error,
            d.frame_latency_us,
            d.calibrated_ms,
            100.0 * d.calibrated_rel_error
        );
    }
    println!();
    println!("{xtable}");
    match crossover_mbps {
        Some(c) if c >= sweep[0] => {
            println!("compression crossover ≥ {c:.0} Mbit/s (T2 won at every tested cap)")
        }
        Some(c) => println!("compression crossover ≈ {c:.0} Mbit/s (T2 wins below this)"),
        None => println!("compression never won in this sweep (link too fast for the codec)"),
    }

    let bench = NetBench {
        world,
        collectives,
        distsim,
        crossover: CrossoverReport {
            caps_mbps: sweep.to_vec(),
            baseline_step_ms: baseline_ms,
            compressed_step_ms: compressed_ms,
            crossover_mbps,
        },
    };
    match serde_json::to_string_pretty(&bench) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_net.json", json) {
                eprintln!("warning: could not write BENCH_net.json: {e}");
            } else {
                println!("[measurements written to BENCH_net.json]");
            }
        }
        Err(e) => eprintln!("warning: could not serialize BENCH_net.json: {e}"),
    }
}
