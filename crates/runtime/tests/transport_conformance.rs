//! Transport conformance: the threaded engine must produce **bitwise
//! identical** training steps no matter which wire carries its
//! messages — the in-process mpsc transport
//! ([`ThreadedRuntime::from_serial`]), Unix domain sockets, or loopback
//! TCP.
//!
//! This is the PR 2 invariant extended to `actcomp-net`: with
//! compression off (and, stronger, with a deterministic compressor on)
//! the forward output, every parameter gradient, and the byte counters
//! must agree across all three wirings for every tp × pp layout in the
//! grid tp ∈ {1, 2, 4} × pp ∈ {1, 2}.

use actcomp_compress::plan::CompressionPlan;
use actcomp_compress::spec::CompressorSpec;
use actcomp_mp::MpConfig;
use actcomp_net::{
    mpsc_world, FaultPlan, FaultyTransport, FrameRx, FrameTx, SocketOptions, SocketTransport,
    Transport, TransportError, TransportKind,
};
use actcomp_nn::{BertConfig, BertEncoder};
use actcomp_runtime::{RuntimeConfig, ThreadedRuntime};
use actcomp_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn tiny_bert() -> BertConfig {
    BertConfig {
        vocab: 32,
        hidden: 16,
        layers: 4,
        heads: 4,
        ff_hidden: 32,
        max_seq: 8,
    }
}

fn cfg(tp: usize, pp: usize, plan: CompressionPlan, micro_batches: usize) -> RuntimeConfig {
    RuntimeConfig {
        mp: MpConfig {
            bert: tiny_bert(),
            tp,
            pp,
            plan,
            tokens: 8,
            error_feedback: false,
        },
        micro_batches,
        tuning: None,
        trace: false,
    }
}

const IDS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Binds `world` socket endpoints of one kind in this process and
/// exchanges the peer table, exactly as the multi-process rendezvous
/// would.
fn socket_world(kind: TransportKind, world: usize) -> Vec<Box<dyn Transport>> {
    let mut ts: Vec<SocketTransport> = (0..world)
        .map(|r| {
            SocketTransport::bind(kind, r, world, 0xC0DE, SocketOptions::default()).expect("bind")
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

/// One training step + a second forward on a fresh engine over the
/// given links; returns everything conformance compares.
struct StepResult {
    forward: Tensor,
    grads: Vec<Tensor>,
    reduce_wire: usize,
    reduce_dense: usize,
    boundary_wire: usize,
    boundary_dense: usize,
    second_forward: Tensor,
}

fn run_engine(c: RuntimeConfig, transports: Option<Vec<Box<dyn Transport>>>) -> StepResult {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let serial = BertEncoder::new(&mut rng, tiny_bert());
    let mut rt_rng = ChaCha8Rng::seed_from_u64(13);
    let mut rt = match transports {
        None => ThreadedRuntime::from_serial(&serial, c, &mut rt_rng).expect("valid engine"),
        Some(ts) => {
            ThreadedRuntime::with_transports(&serial, c, &mut rt_rng, ts).expect("valid engine")
        }
    };
    let forward = rt.forward(&IDS, 2, 4).expect("forward");
    rt.zero_grad();
    rt.backward(&forward).expect("backward");
    let grads = rt.collect_grads();
    rt.sgd_step(1e-2);
    // A second forward proves optimizer state stayed in sync (the
    // deferred compressor-grad exchange runs between steps).
    let second_forward = rt.forward(&IDS, 2, 4).expect("second forward");
    let report = rt.report();
    StepResult {
        forward,
        grads,
        reduce_wire: report.reduce_bytes.wire,
        reduce_dense: report.reduce_bytes.dense,
        boundary_wire: report.boundary_bytes.wire,
        boundary_dense: report.boundary_bytes.dense,
        second_forward,
    }
}

fn assert_same(tag: &str, want: &StepResult, got: &StepResult) {
    assert_eq!(
        got.forward.as_slice(),
        want.forward.as_slice(),
        "{tag}: forward must be bit-identical"
    );
    assert_eq!(got.grads.len(), want.grads.len(), "{tag}: parameter count");
    for (i, (w, g)) in want.grads.iter().zip(&got.grads).enumerate() {
        assert_eq!(
            g.as_slice(),
            w.as_slice(),
            "{tag}: grad {i} must be bit-identical"
        );
    }
    assert_eq!(got.reduce_wire, want.reduce_wire, "{tag}: ring wire bytes");
    assert_eq!(
        got.reduce_dense, want.reduce_dense,
        "{tag}: ring dense bytes"
    );
    assert_eq!(
        got.boundary_wire, want.boundary_wire,
        "{tag}: boundary wire bytes"
    );
    assert_eq!(
        got.boundary_dense, want.boundary_dense,
        "{tag}: boundary dense bytes"
    );
    assert_eq!(
        got.second_forward.as_slice(),
        want.second_forward.as_slice(),
        "{tag}: post-SGD forward must be bit-identical"
    );
}

fn conformance_grid(plan: fn() -> CompressionPlan, micro_batches: usize) {
    for tp in [1usize, 2, 4] {
        for pp in [1usize, 2] {
            let world = tp * pp;
            let mpsc = run_engine(cfg(tp, pp, plan(), micro_batches), None);
            for kind in [TransportKind::Uds, TransportKind::Tcp] {
                let got = run_engine(
                    cfg(tp, pp, plan(), micro_batches),
                    Some(socket_world(kind, world)),
                );
                assert_same(&format!("tp={tp} pp={pp} {kind}"), &mpsc, &got);
            }
        }
    }
}

#[test]
fn uncompressed_steps_are_bit_identical_across_transports() {
    conformance_grid(CompressionPlan::none, 1);
}

#[test]
fn microbatched_compressed_steps_are_bit_identical_across_transports() {
    // Top-K is deterministic, so even a lossy plan must agree bit-for-
    // bit across wires; m = 2 additionally exercises the pipelined
    // boundary path (fill/drain order, deferred grad sync).
    fn plan() -> CompressionPlan {
        CompressionPlan::last_layers(CompressorSpec::T2, 4, 2)
    }
    conformance_grid(plan, 2);
}

/// A 2-rank socket world with rank 0's sends routed through a
/// [`FaultyTransport`] driven by `spec`; returns the faulty send end
/// and the honest receive end of one channel.
fn faulty_socket_pair(kind: TransportKind, spec: &str) -> (Box<dyn FrameTx>, Box<dyn FrameRx>) {
    let mut world = socket_world(kind, 2);
    let mut recv_side = world.pop().expect("rank 1");
    let send_side = world.pop().expect("rank 0");
    let plan = FaultPlan::parse(spec).expect("valid spec");
    let mut faulty = FaultyTransport::new(send_side, plan);
    let tx = faulty.open_send(1, 1).expect("send side");
    let rx = recv_side.open_recv(0, 1).expect("recv side");
    // Keep both transports (connections, socket files) alive for the
    // duration of the test.
    std::mem::forget(faulty);
    std::mem::forget(recv_side);
    (tx, rx)
}

/// The injection grid from the issue: drop / dup / corrupt × uds / tcp.
/// Every fault must surface as typed, bounded-time behaviour at the
/// honest receiver — never a hang, never a garbage decode.
#[test]
fn fault_injection_grid_surfaces_typed_errors_on_sockets() {
    use std::time::Duration;
    for kind in [TransportKind::Uds, TransportKind::Tcp] {
        // drop: the matched frame never arrives; the receiver's typed
        // timeout bounds the wait, and later frames still flow.
        let (mut tx, mut rx) = faulty_socket_pair(kind, "drop:frame=0");
        tx.send(b"swallowed").expect("send");
        assert!(
            matches!(
                rx.recv_timeout(Duration::from_millis(200)),
                Err(TransportError::Timeout { .. })
            ),
            "{kind}: dropped frame must surface as a typed timeout"
        );
        tx.send(b"after-drop").expect("send");
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10))
                .expect("later frame"),
            b"after-drop",
            "{kind}: the stream survives a dropped frame"
        );

        // dup: the matched frame arrives exactly twice, in order.
        let (mut tx, mut rx) = faulty_socket_pair(kind, "dup:frame=0");
        tx.send(b"twin").expect("send");
        tx.send(b"solo").expect("send");
        for want in [b"twin" as &[u8], b"twin", b"solo"] {
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(10)).expect("frame"),
                want,
                "{kind}: duplicate ordering"
            );
        }

        // corrupt: the CRC trailer catches it and the receiver reports
        // the typed FrameCorrupt — the stream is poisoned, not garbage.
        let (mut tx, mut rx) = faulty_socket_pair(kind, "corrupt:frame=0");
        tx.send(b"poisoned").expect("send");
        assert!(
            matches!(rx.recv(), Err(TransportError::FrameCorrupt { .. })),
            "{kind}: corruption must surface as FrameCorrupt"
        );
    }
}

#[test]
fn transport_world_mismatch_is_rejected() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let serial = BertEncoder::new(&mut rng, tiny_bert());
    let mut rt_rng = ChaCha8Rng::seed_from_u64(13);
    // tp=2, pp=2 needs 4 transports; hand it 2.
    let err = ThreadedRuntime::with_transports(
        &serial,
        cfg(2, 2, CompressionPlan::none(), 1),
        &mut rt_rng,
        mpsc_world(2)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect(),
    )
    .expect_err("a 2-transport world cannot drive 4 ranks");
    let msg = err.to_string();
    assert!(msg.contains("2") && msg.contains("4"), "{msg}");
}
