//! Ring-collective equivalence and byte-accounting tests.
//!
//! The chunked chain-reduce + broadcast collectives must reproduce the
//! serial executor's fold bit for bit for every group size, chunk plan
//! and wire — determinism is the runtime's core contract — and must
//! move strictly fewer bytes per rank than a whole-message gather once
//! the group has three or more ranks.

use actcomp_compress::Identity;
use actcomp_mp::{rank_order_sum, wire_sum, CommBytes};
use actcomp_net::{mpsc_world, SocketOptions, SocketTransport, Transport, TransportKind};
use actcomp_runtime::{PhaseTimers, RingTuning, TpGroup};
use actcomp_tensor::{init, Tensor, Workspace};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs one collective per rank of a default-tuned ring, each on its
/// own thread, and returns `(output, ring_bytes)` per rank in rank
/// order.
fn run_ranks<F>(world: usize, parts: &[Tensor], f: F) -> Vec<(Tensor, CommBytes)>
where
    F: Fn(&mut TpGroup, &Tensor, &mut PhaseTimers, &mut Workspace) -> Tensor
        + Send
        + Sync
        + Copy
        + 'static,
{
    let groups = TpGroup::ring(world);
    let handles: Vec<_> = groups
        .into_iter()
        .zip(parts.to_vec())
        .map(|(mut g, p)| {
            std::thread::spawn(move || {
                let mut timers = PhaseTimers::default();
                let mut ws = Workspace::new();
                let out = f(&mut g, &p, &mut timers, &mut ws);
                (out, g.ring_bytes)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("rank thread"))
        .collect()
}

/// What carries a ring's framed messages: the in-process mpsc
/// transport or Unix sockets.
#[derive(Debug, Clone, Copy)]
enum Wire {
    Mpsc,
    Uds,
}

/// Runs one dense all-reduce per rank over `wire`, each rank on its own
/// thread, and returns the outputs in rank order.
fn dense_over(wire: Wire, tuning: RingTuning, parts: &[Tensor]) -> Vec<Tensor> {
    let world = parts.len();
    let transports: Vec<Box<dyn Transport>> = match wire {
        Wire::Mpsc => (mpsc_world(world).into_iter())
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect(),
        Wire::Uds => {
            let mut ts: Vec<SocketTransport> = (0..world)
                .map(|r| {
                    let opts = SocketOptions::default();
                    SocketTransport::bind(TransportKind::Uds, r, world, 0xC0DE, opts).expect("bind")
                })
                .collect();
            let addrs: Vec<String> = ts.iter().map(|t| t.local_addr().to_string()).collect();
            for t in &mut ts {
                for (peer, addr) in addrs.iter().enumerate() {
                    t.set_peer(peer, addr.clone());
                }
            }
            ts.into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect()
        }
    };
    let handles: Vec<_> = (transports.into_iter().zip(parts.to_vec()))
        .map(|(mut t, p)| {
            std::thread::spawn(move || {
                let mut g = TpGroup::over_transport(t.as_mut()).expect("ring links");
                g.tuning = tuning;
                let mut timers = PhaseTimers::default();
                g.dense_all_reduce(&p, &mut timers, &mut Workspace::new())
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("rank thread"))
        .collect()
}

fn randn_parts(world: usize, rows: usize, width: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..world)
        .map(|_| init::randn(&mut rng, [rows, width], 1.0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The identity compressed reduce sums its codes exactly — the
    /// `f32` left fold `rank_order_sum` describes — bit for bit on every
    /// rank, for tp ∈ {1, 2, 4}.
    #[test]
    fn chunked_identity_reduce_matches_serial_fold(
        world_ix in 0usize..3,
        rows in 1usize..9,
        width in 1usize..12,
        seed in 1000u64..2000,
    ) {
        let world = [1, 2, 4][world_ix];
        let parts = randn_parts(world, rows, width, seed);
        let expect = rank_order_sum(parts.iter().cloned());
        let outs = run_ranks(world, &parts, |g, p, t, ws| {
            let mut comp = Identity::new();
            g.compressed_all_reduce(&mut comp, p, t, ws)
        });
        for (rank, (out, _)) in outs.iter().enumerate() {
            prop_assert!(bitwise_eq(out, &expect), "rank {rank} diverged from serial fold");
        }
    }

    /// On every wire, the dense ring is the serial executor's
    /// `wire_sum`, bit for bit, and every rank holds the same total —
    /// the last rank of the chain included — for p ∈ {1, 2, 3, 4} and
    /// arbitrary chunk plans.
    #[test]
    fn dense_ring_is_the_wire_sum_on_every_rank_and_wire(
        world in 1usize..5,
        wire in prop::sample::select(vec![Wire::Mpsc, Wire::Uds]),
        rows in 1usize..9,
        width in 1usize..12,
        chunk_sel in 0usize..5,
        depth in 1usize..5,
        seed in 2000u64..3000,
    ) {
        let parts = randn_parts(world, rows, width, seed);
        let expect = wire_sum(parts.iter().cloned());
        let chunk_rows = (chunk_sel > 0).then_some(chunk_sel);
        let tuning = RingTuning { chunk_rows, pipeline_depth: depth };
        for (rank, out) in dense_over(wire, tuning, &parts).iter().enumerate() {
            prop_assert!(bitwise_eq(out, &expect), "{wire:?}: rank {rank} diverged from wire_sum");
        }
    }
}

/// At tp = 4 every rank of a ring collective sends strictly fewer bytes
/// than a whole-message gather of the same collective (which ships
/// `(p−1)` full payloads per rank, the baseline `ring_bytes.dense`
/// records), for both the dense reduce and the summable compressed
/// reduce.
#[test]
fn ring_moves_fewer_bytes_per_rank_than_gather_at_tp4() {
    let world = 4;
    let parts = randn_parts(world, 8, 16, 9);

    let dense = run_ranks(world, &parts, |g, p, t, ws| g.dense_all_reduce(p, t, ws));
    let compressed = run_ranks(world, &parts, |g, p, t, ws| {
        let mut comp = Identity::new();
        g.compressed_all_reduce(&mut comp, p, t, ws)
    });
    for (what, ranks) in [("dense", &dense), ("compressed", &compressed)] {
        for (rank, (_, ring_bytes)) in ranks.iter().enumerate() {
            assert!(ring_bytes.dense > 0);
            assert!(
                ring_bytes.wire < ring_bytes.dense,
                "rank {rank}: {what} ring sent {} bytes, gather baseline {}",
                ring_bytes.wire,
                ring_bytes.dense
            );
        }
    }
    // And the ring totals beat the gather totals in aggregate too.
    let ring_total: usize = dense.iter().map(|(_, b)| b.wire).sum();
    let gather_total: usize = dense.iter().map(|(_, b)| b.dense).sum();
    assert!(ring_total < gather_total);
}
