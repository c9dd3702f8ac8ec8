//! Serving-engine conformance: continuous batching must change
//! throughput, never bits.
//!
//! Each request runs as its own micro-batch, so a batched forward's
//! per-request rows must be **bit-identical** to running each request
//! alone on an identical engine — across tp ∈ {1, 2} × pp ∈ {1, 2},
//! over the in-process mpsc transport and Unix-domain sockets, with
//! compression off and with a deterministic Top-K plan (with and
//! without error feedback: each boundary compressor sees the same call
//! sequence either way, so even stateful codecs stay in lockstep).

use actcomp_compress::plan::CompressionPlan;
use actcomp_compress::spec::CompressorSpec;
use actcomp_mp::MpConfig;
use actcomp_net::{SocketOptions, SocketTransport, Transport, TransportKind};
use actcomp_nn::{BertConfig, BertEncoder};
use actcomp_runtime::{
    RuntimeConfig, ServeBackend, ServeConfig, ServeEngine, ServeError, ServeStats, ThreadedRuntime,
};
use actcomp_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

const SEQ: usize = 8;
const NREQ: usize = 6;

fn tiny_bert() -> BertConfig {
    BertConfig {
        vocab: 32,
        hidden: 16,
        layers: 4,
        heads: 4,
        ff_hidden: 32,
        max_seq: SEQ,
    }
}

/// A forward-only serving config: one micro-batch of exactly one
/// request's tokens, so the compressors are sized per request.
fn cfg(tp: usize, pp: usize, plan: CompressionPlan, error_feedback: bool) -> RuntimeConfig {
    RuntimeConfig {
        mp: MpConfig {
            bert: tiny_bert(),
            tp,
            pp,
            plan,
            tokens: SEQ,
            error_feedback,
        },
        micro_batches: 1,
        tuning: None,
        trace: false,
    }
}

#[derive(Clone, Copy)]
enum Wiring {
    Mpsc,
    Uds,
}

impl Wiring {
    fn name(self) -> &'static str {
        match self {
            Wiring::Mpsc => "mpsc",
            Wiring::Uds => "uds",
        }
    }
}

fn socket_world(kind: TransportKind, world: usize) -> Vec<Box<dyn Transport>> {
    let mut ts: Vec<SocketTransport> = (0..world)
        .map(|r| {
            SocketTransport::bind(kind, r, world, 0x5E12, SocketOptions::default()).expect("bind")
        })
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

fn engine(c: RuntimeConfig, wiring: Wiring) -> ThreadedRuntime {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let serial = BertEncoder::new(&mut rng, tiny_bert());
    let mut rt_rng = ChaCha8Rng::seed_from_u64(13);
    let world = c.mp.tp * c.mp.pp;
    match wiring {
        Wiring::Mpsc => ThreadedRuntime::from_serial(&serial, c, &mut rt_rng),
        Wiring::Uds => ThreadedRuntime::with_transports(
            &serial,
            c,
            &mut rt_rng,
            socket_world(TransportKind::Uds, world),
        ),
    }
    .expect("valid engine")
}

fn requests() -> Vec<Vec<usize>> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF);
    (0..NREQ)
        .map(|_| {
            (0..SEQ)
                .map(|_| rand::Rng::gen_range(&mut rng, 0..32))
                .collect()
        })
        .collect()
}

fn grid(plan: fn() -> CompressionPlan, error_feedback: bool, wirings: &[Wiring]) {
    let reqs = requests();
    for tp in [1usize, 2] {
        for pp in [1usize, 2] {
            // Reference: each request alone, in arrival order, on one
            // resident engine.
            let mut serial = engine(cfg(tp, pp, plan(), error_feedback), Wiring::Mpsc);
            let want: Vec<Tensor> = reqs
                .iter()
                .map(|ids| serial.infer(ids, 1, SEQ).expect("serial infer"))
                .collect();

            for &wiring in wirings {
                let tag = format!("tp={tp} pp={pp} {}", wiring.name());
                let backend =
                    ServeBackend::Threads(engine(cfg(tp, pp, plan(), error_feedback), wiring));
                let serve = ServeEngine::start(
                    backend,
                    ServeConfig {
                        max_batch: 4,
                        batch_window: Duration::from_millis(2),
                        depth: 2,
                    },
                )
                .expect("engine starts");
                let handle = serve.handle();
                let tickets: Vec<_> = reqs.iter().map(|ids| handle.submit(ids.clone())).collect();
                for (j, t) in tickets.into_iter().enumerate() {
                    let got = t.wait().expect("request completes");
                    assert_eq!(got.dims(), &[SEQ, 16], "{tag}: request {j} shape");
                    assert_eq!(
                        got.as_slice(),
                        want[j].as_slice(),
                        "{tag}: request {j} must be bit-identical to its solo forward"
                    );
                }
                let (stats, report) = serve.finish();
                assert_eq!(stats.completed, NREQ, "{tag}: all requests complete");
                assert_eq!(stats.failed, 0, "{tag}: no failures");
                let batched: usize = stats
                    .batch_hist
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (i + 1) * n)
                    .sum();
                assert_eq!(batched, NREQ, "{tag}: histogram accounts for every request");
                assert!(report.is_some(), "{tag}: per-rank report survives serving");
            }
        }
    }
}

#[test]
fn batched_uncompressed_requests_are_bit_identical_to_solo() {
    grid(CompressionPlan::none, false, &[Wiring::Mpsc, Wiring::Uds]);
}

#[test]
fn batched_compressed_requests_are_bit_identical_to_solo() {
    fn plan() -> CompressionPlan {
        CompressionPlan::last_layers(CompressorSpec::T2, 4, 2)
    }
    grid(plan, false, &[Wiring::Mpsc]);
}

#[test]
fn batched_error_feedback_requests_are_bit_identical_to_solo() {
    // Error feedback makes the boundary compressors stateful; the
    // per-compressor call sequence is the arrival order in both modes,
    // so residuals stay in lockstep.
    fn plan() -> CompressionPlan {
        CompressionPlan::last_layers(CompressorSpec::T2, 4, 2)
    }
    grid(plan, true, &[Wiring::Mpsc]);
}

#[test]
fn malformed_requests_fail_typed_without_entering_the_queue() {
    let serve = ServeEngine::start(
        ServeBackend::Threads(engine(
            cfg(1, 1, CompressionPlan::none(), false),
            Wiring::Mpsc,
        )),
        ServeConfig::default(),
    )
    .expect("engine starts");
    let handle = serve.handle();
    let err = handle
        .submit(vec![1, 2, 3])
        .wait()
        .expect_err("wrong length");
    assert!(
        matches!(err, ServeError::BadRequest { .. }),
        "typed BadRequest, got {err}"
    );
    let err = (handle.submit(vec![999; SEQ]).wait()).expect_err("id outside the vocabulary");
    assert!(
        matches!(err, ServeError::BadRequest { .. }),
        "typed BadRequest, got {err}"
    );
    // A good request still flows afterwards.
    let ok = handle.submit(vec![1; SEQ]).wait().expect("good request");
    assert_eq!(ok.dims(), &[SEQ, 16]);
    let (stats, _) = serve.finish();
    assert_eq!(stats.completed, 1);
    // The malformed request never reached the dispatcher's counters.
    assert_eq!(stats.failed, 0);
}

#[test]
fn zero_batch_or_depth_is_rejected() {
    for (max_batch, depth) in [(0usize, 2usize), (8, 0)] {
        let err = ServeEngine::start(
            ServeBackend::Threads(engine(
                cfg(1, 1, CompressionPlan::none(), false),
                Wiring::Mpsc,
            )),
            ServeConfig {
                max_batch,
                batch_window: Duration::ZERO,
                depth,
            },
        )
        .err()
        .expect("invalid config rejected");
        assert!(matches!(err, ServeError::BadRequest { .. }));
    }
}

/// One thread holding `tickets` requests outstanding until `batches`
/// engine batches have gone out; the final counters.
fn closed_loop(depth: usize, tickets: usize, batches: usize) -> ServeStats {
    let serve = ServeEngine::start(
        ServeBackend::Threads(engine(
            cfg(1, 2, CompressionPlan::none(), false),
            Wiring::Mpsc,
        )),
        ServeConfig {
            max_batch: 4,
            // Long enough that a loaded box cannot miss it; a closed
            // loop fills the batch long before it runs out.
            batch_window: Duration::from_millis(5),
            depth,
        },
    )
    .expect("engine starts");
    let handle = serve.handle();
    let mut outstanding = std::collections::VecDeque::new();
    while serve.stats().batches < batches {
        while outstanding.len() < tickets {
            outstanding.push_back(handle.submit(vec![3; SEQ]));
        }
        let oldest = outstanding.pop_front().expect("window is full");
        oldest.wait().expect("request completes");
    }
    for t in outstanding {
        t.wait().expect("request completes");
    }
    serve.finish().0
}

#[test]
fn a_closed_loop_two_batches_wide_keeps_the_pipeline_two_deep() {
    let stats = closed_loop(2, 8, 100);
    assert!(stats.batches >= 100);
    assert!(
        stats.overlapped * 10 >= (stats.batches - 1) * 8,
        "{} of {} batches went out with another in flight",
        stats.overlapped,
        stats.batches
    );
    // The depth came from overlap, not from smaller batches.
    let full = stats.batch_hist.get(3).copied().unwrap_or(0);
    assert!(
        full * 10 >= stats.batches * 8,
        "batch sizes {:?}",
        stats.batch_hist
    );
}

#[test]
fn depth_one_never_overlaps_batches() {
    let stats = closed_loop(1, 8, 20);
    assert!(stats.batches >= 20);
    assert_eq!(stats.overlapped, 0);
}

/// An isolated request waits one batch window to fill and is then
/// retired as soon as it is computed: the free second slot does not
/// open another window on top of the first.
#[test]
fn a_lone_request_waits_one_window_not_two() {
    // Far above the service time of the tiny model (well under 10 ms
    // even on a loaded box), so two windows and one are 100 ms apart.
    let window = Duration::from_millis(100);
    let serve = ServeEngine::start(
        ServeBackend::Threads(engine(
            cfg(1, 2, CompressionPlan::none(), false),
            Wiring::Mpsc,
        )),
        ServeConfig {
            max_batch: 4,
            batch_window: window,
            depth: 2,
        },
    )
    .expect("engine starts");
    let t0 = std::time::Instant::now();
    let (_, done) = serve
        .handle()
        .submit(vec![3; SEQ])
        .wait_at()
        .expect("request completes");
    let latency = done - t0;
    assert!(latency >= window, "the batch waited to fill: {latency:?}");
    assert!(
        latency < window + window / 2,
        "a second window held the reply back: {latency:?}"
    );
}
