//! Stress test for the channel collectives: four rank threads hammer the
//! ring with hundreds of mixed collectives and must neither deadlock nor
//! diverge — every rank sees the same reduced values and identical,
//! linearly-growing byte counters.

use actcomp_compress::{Compressor, Identity, TopK};
use actcomp_mp::{rank_order_sum, wire_sum};
use actcomp_runtime::{PhaseTimers, TpGroup};
use actcomp_tensor::{init, Tensor, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const WORLD: usize = 4;
const ITERS: usize = 100;

#[test]
fn hundred_collective_rounds_at_tp4_stay_consistent() {
    let groups = TpGroup::ring(WORLD);
    let handles: Vec<_> = groups
        .into_iter()
        .map(|mut g| {
            std::thread::spawn(move || {
                let rank = g.rank;
                // Every rank derives its partials from the shared seed +
                // its rank id, so peers can't accidentally agree; each
                // also replays its peers' streams to know the sums.
                let mut rngs: Vec<_> = (0..WORLD)
                    .map(|r| ChaCha8Rng::seed_from_u64(100 + r as u64))
                    .collect();
                let mut topk: Box<dyn Compressor> = Box::new(TopK::new(8));
                let mut ident: Box<dyn Compressor> = Box::new(Identity::new());
                let mut timers = PhaseTimers::default();
                let mut ws = Workspace::new();
                let mut sums = Vec::with_capacity(ITERS);
                let mut per_round_bytes = Vec::with_capacity(ITERS);
                for _ in 0..ITERS {
                    let parts: Vec<Tensor> = (rngs.iter_mut())
                        .map(|rng| init::randn(rng, [4, 16], 1.0))
                        .collect();
                    let part = &parts[rank];
                    let before = g.bytes;
                    let compressed =
                        g.compressed_all_reduce(topk.as_mut(), part, &mut timers, &mut ws);
                    let exact = g.compressed_all_reduce(ident.as_mut(), part, &mut timers, &mut ws);
                    let dense = g.dense_all_reduce(part, &mut timers, &mut ws);
                    // The identity code is summed exactly; dense rows
                    // travel as bfloat16 partial sums.
                    assert_eq!(exact, rank_order_sum(parts.iter().cloned()));
                    assert_eq!(dense, wire_sum(parts.into_iter()));
                    sums.push((compressed.sum(), dense.sum()));
                    per_round_bytes
                        .push((g.bytes.wire - before.wire, g.bytes.dense - before.dense));
                }
                (sums, per_round_bytes, g.bytes)
            })
        })
        .collect();

    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("rank thread must not deadlock or panic"))
        .collect();

    // All ranks reduced to identical values every round.
    let (ref_sums, ref_rounds, ref_bytes) = &results[0];
    for (sums, rounds, bytes) in &results[1..] {
        assert_eq!(sums, ref_sums, "ranks disagree on reduced values");
        assert_eq!(rounds, ref_rounds, "ranks disagree on per-round bytes");
        assert_eq!(bytes, ref_bytes, "ranks disagree on cumulative bytes");
    }
    // Byte accounting is stable: every round moves the same traffic.
    let (w0, d0) = ref_rounds[0];
    assert!(w0 > 0 && d0 > 0);
    for &(w, d) in ref_rounds {
        assert_eq!((w, d), (w0, d0), "per-round traffic must not drift");
    }
    assert_eq!(ref_bytes.wire, ITERS * w0);
    assert_eq!(ref_bytes.dense, ITERS * d0);
}

#[test]
fn grad_sync_converges_across_ranks() {
    // Auto-encoder parameter sync: each rank accumulates different
    // gradients; after sync every rank holds the rank-ordered sum.
    use actcomp_compress::AutoEncoder;
    let groups = TpGroup::ring(WORLD);
    let handles: Vec<_> = groups
        .into_iter()
        .map(|mut g| {
            std::thread::spawn(move || {
                let rank = g.rank;
                let mut wrng = ChaCha8Rng::seed_from_u64(7);
                let mut ae: Box<dyn Compressor> = Box::new(AutoEncoder::new(&mut wrng, 16, 4));
                let mut timers = PhaseTimers::default();
                let mut rng = ChaCha8Rng::seed_from_u64(200 + rank as u64);
                let x = init::randn(&mut rng, [4, 16], 1.0);
                let msg = ae.compress(&x);
                let _ = ae.decompress(&msg);
                let _ = ae.backward(&Tensor::ones([4, 16]), &x, &msg);
                g.sync_param_grads(ae.as_mut(), &mut timers);
                let mut grads = Vec::new();
                ae.visit_params(&mut |p| grads.push(p.grad.clone()));
                grads
            })
        })
        .collect();
    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("rank thread"))
        .collect();
    for grads in &results[1..] {
        assert_eq!(grads.len(), results[0].len());
        for (a, b) in grads.iter().zip(&results[0]) {
            assert_eq!(a.as_slice(), b.as_slice(), "synced grads must be identical");
        }
    }
    let mass: f32 = results[0].iter().map(|g| g.sq_norm()).sum();
    assert!(mass > 0.0, "sync must preserve gradient signal");
}
