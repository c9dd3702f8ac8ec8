//! Property-based tests of the model-parallel execution layer.

use actcomp_compress::{AutoEncoder, Compressor, Identity, Quantizer, TopK};
use actcomp_mp::{Block, CommBytes, InProcess, Reduce, SumPoint};
use actcomp_nn::EncoderLayer;
use actcomp_tensor::{init, Tensor, Workspace};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn identity_reduce(world: usize) -> InProcess {
    reduce_of((0..world).map(|_| Box::new(Identity::new()) as Box<dyn Compressor>))
}

/// The serial ring with one compressor per worker at both sums.
fn reduce_of(comps: impl Iterator<Item = Box<dyn Compressor>> + Clone) -> InProcess {
    InProcess::new(comps.clone().collect(), comps.collect())
}

/// One forward sum of `partials` through the ring, and its bytes.
fn forward(sums: &mut InProcess, partials: &[Tensor]) -> (Tensor, CommBytes) {
    let (out, _) = (sums.ring()).sum(
        SumPoint::Attention,
        &mut partials.to_vec(),
        &mut Workspace::new(),
    );
    (out, sums.bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// TP sharding is numerically transparent for any world that divides
    /// the head count, any batch/seq, any seed.
    #[test]
    fn tp_equals_serial_under_identity(
        seed in 0u64..1000,
        world in prop::sample::select(vec![1usize, 2, 4]),
        batch in 1usize..4,
        seq in 1usize..5,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut serial = EncoderLayer::new(&mut rng, 8, 4, 16);
        let mut tp = Block::new(&serial, world, 0..world).expect("world divides the heads");
        let mut sums = InProcess::dense(world);
        let x = init::randn(&mut rng, [batch * seq, 8], 1.0);
        let want = serial.forward(&x, batch, seq);
        let got = tp.forward(&x, batch, seq, &mut sums.ring(), &mut Workspace::new());
        // Two sums of `world` parts, every part's partial sum rounded to
        // bfloat16 (8 significant bits): at most 2⁻⁸ of the output's
        // scale per rounding.
        let diff = got.max_abs_diff(&want);
        let bound = (2 * world) as f32 * 2f32.powi(-8) * want.abs_max();
        prop_assert!(diff <= bound, "world {} diff {} > {}", world, diff, bound);
    }

    /// The identity reduce is an exact sum for any number of workers.
    #[test]
    fn identity_reduce_is_sum(seed in 0u64..1000, world in 1usize..6) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let partials: Vec<Tensor> =
            (0..world).map(|_| init::randn(&mut rng, [3, 8], 1.0)).collect();
        let mut reduce = identity_reduce(world);
        let (out, bytes) = forward(&mut reduce, &partials);
        let mut want = partials[0].clone();
        for p in &partials[1..] {
            want.add_assign(p);
        }
        prop_assert!(out.max_abs_diff(&want) < 1e-4);
        prop_assert_eq!(bytes.wire, bytes.dense);
    }

    /// Quantized reduces stay within the per-worker quantization error
    /// budget: |reduce(x) − Σx| ≤ Σ per-worker half-steps.
    #[test]
    fn quantized_reduce_error_bounded(seed in 0u64..500, world in 2usize..5) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let partials: Vec<Tensor> =
            (0..world).map(|_| init::randn(&mut rng, [4, 8], 1.0)).collect();
        let mut reduce =
            reduce_of((0..world).map(|_| Box::new(Quantizer::new(8)) as Box<dyn Compressor>));
        let (out, _) = forward(&mut reduce, &partials);
        let mut exact = partials[0].clone();
        for p in &partials[1..] {
            exact.add_assign(p);
        }
        let budget: f32 = partials
            .iter()
            .map(|p| (p.max() - p.min()) / 255.0 / 2.0 + 1e-5)
            .sum();
        prop_assert!(out.max_abs_diff(&exact) <= budget,
            "error {} > budget {}", out.max_abs_diff(&exact), budget);
    }

    /// Top-K reduce gradients are supported only on kept positions.
    #[test]
    fn topk_reduce_backward_support(seed in 0u64..500, k in 1usize..16) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut partials: Vec<Tensor> =
            (0..2).map(|_| init::randn(&mut rng, [2, 8], 1.0)).collect();
        let mut reduce = reduce_of((0..2).map(|_| Box::new(TopK::new(k)) as Box<dyn Compressor>));
        let (_, sent) = reduce.ring().sum(SumPoint::Attention, &mut partials, &mut Workspace::new());
        let dxs = reduce.ring().sum_backward(SumPoint::Attention, &Tensor::ones([2, 8]), &sent);
        for dx in &dxs {
            let nz = dx.as_slice().iter().filter(|v| **v != 0.0).count();
            prop_assert!(nz <= k.min(16));
        }
    }

    /// AE reduces commute with scaling (linearity survives the whole
    /// reduce path).
    #[test]
    fn ae_reduce_is_linear(seed in 0u64..500, scale in 0.1f32..3.0) {
        let mk = || {
            reduce_of((0..2).map(|_| {
                let mut r = ChaCha8Rng::seed_from_u64(99);
                Box::new(AutoEncoder::new(&mut r, 8, 3)) as Box<dyn Compressor>
            }))
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let partials: Vec<Tensor> =
            (0..2).map(|_| init::randn(&mut rng, [2, 8], 1.0)).collect();
        let scaled: Vec<Tensor> = partials.iter().map(|p| p.scale(scale)).collect();
        let (y1, _) = forward(&mut mk(), &scaled);
        let (y2, _) = forward(&mut mk(), &partials);
        prop_assert!(y1.max_abs_diff(&y2.scale(scale)) < 1e-2 * (1.0 + y1.abs_max()));
    }
}
