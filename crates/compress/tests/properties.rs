//! Property-based tests on compressor invariants.

use actcomp_compress::{
    spec::CompressorSpec, AutoEncoder, Compressed, Compressor, ErrorFeedback, Identity, LowRank,
    Quantizer, RandomK, TopK,
};
use actcomp_tensor::Tensor;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Every codec fits its own code and refuses the other payload kinds,
/// dense codes of other dims and quantized codes of another width.
/// Top-K and Random-K share the sparse kind.
#[test]
fn each_codec_fits_exactly_the_codes_it_can_decode() {
    let rng = &mut ChaCha8Rng::seed_from_u64(11);
    let x = actcomp_tensor::init::randn(rng, [4, 8], 1.0);
    let mut codecs: Vec<Box<dyn Compressor>> = vec![
        Box::new(Identity::new()),
        Box::new(AutoEncoder::new(rng, 8, 3)),
        Box::new(TopK::new(5)),
        Box::new(RandomK::new(5, 1)),
        Box::new(Quantizer::new(2)),
        Box::new(LowRank::new(2, 1)),
        Box::new(ErrorFeedback::new(Quantizer::new(4))),
    ];
    let msgs: Vec<Compressed> = codecs.iter_mut().map(|c| c.compress(&x)).collect();
    for (i, c) in codecs.iter().enumerate() {
        for (j, msg) in msgs.iter().enumerate() {
            let want = i == j || (2..4).contains(&i) && (2..4).contains(&j);
            let (codec, sender) = (c.name(), codecs[j].name());
            assert_eq!(c.fits(msg), want, "{codec} given {sender}'s code");
        }
    }
}

fn tensor_strategy(m: usize, n: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-100.0f32..100.0, m * n)
        .prop_map(move |v| Tensor::from_vec(v, [m, n]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn topk_keeps_largest_magnitudes(x in tensor_strategy(4, 8), k in 1usize..32) {
        let mut c = TopK::new(k);
        let y = c.round_trip(&x);
        let kept: Vec<f32> = y.as_slice().iter().copied().filter(|v| *v != 0.0).collect();
        // Every dropped |value| must be <= every kept |value| (modulo exact ties).
        let kept_min = kept.iter().map(|v| v.abs()).fold(f32::INFINITY, f32::min);
        for (&orig, &rec) in x.as_slice().iter().zip(y.as_slice()) {
            if rec == 0.0 && orig != 0.0 {
                prop_assert!(orig.abs() <= kept_min + 1e-6);
            }
        }
        prop_assert!(kept.len() <= k);
    }

    #[test]
    fn topk_round_trip_never_increases_norm(x in tensor_strategy(3, 9), k in 1usize..27) {
        let mut c = TopK::new(k);
        let y = c.round_trip(&x);
        prop_assert!(y.norm() <= x.norm() + 1e-4);
    }

    #[test]
    fn randk_support_size_and_values(x in tensor_strategy(4, 8), k in 1usize..32, seed in 0u64..1000) {
        let mut c = RandomK::new(k, seed);
        let y = c.round_trip(&x);
        let kept = y.as_slice().iter().filter(|v| **v != 0.0).count();
        prop_assert!(kept <= k.min(32));
        // Every kept value is an original value scaled by n/k.
        let scale = 32.0 / k.min(32) as f32;
        for (&orig, &rec) in x.as_slice().iter().zip(y.as_slice()) {
            if rec != 0.0 {
                prop_assert!((rec - orig * scale).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn quant_error_within_half_step(x in tensor_strategy(4, 8), bits in prop::sample::select(vec![2u8, 4, 8])) {
        let mut q = Quantizer::new(bits);
        let y = q.round_trip(&x);
        let step = (x.max() - x.min()) / ((1u32 << bits) - 1) as f32;
        prop_assert!(x.max_abs_diff(&y) <= step / 2.0 + 1e-4);
    }

    #[test]
    fn quant_preserves_min_max(x in tensor_strategy(2, 16)) {
        let mut q = Quantizer::new(8);
        let y = q.round_trip(&x);
        prop_assert!((y.min() - x.min()).abs() < 1e-4 * (1.0 + x.min().abs()));
        prop_assert!((y.max() - x.max()).abs() < 1e-4 * (1.0 + x.max().abs()));
    }

    #[test]
    fn ae_linearity(x in tensor_strategy(3, 16), s in -3.0f32..3.0) {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut ae = AutoEncoder::new(&mut rng, 16, 4);
        let y1 = ae.round_trip(&x.scale(s));
        let y2 = ae.round_trip(&x).scale(s);
        prop_assert!(y1.max_abs_diff(&y2) < 1e-2 * (1.0 + y2.abs_max()));
    }

    #[test]
    fn identity_is_lossless(x in tensor_strategy(4, 4)) {
        prop_assert_eq!(Identity::new().round_trip(&x), x);
    }

    #[test]
    fn error_feedback_residual_equals_error(x in tensor_strategy(2, 8), k in 1usize..16) {
        let mut ef = ErrorFeedback::new(TopK::new(k));
        let y = ef.round_trip(&x);
        let residual = ef.residual().unwrap().clone();
        // First step: residual == x - reconstruction exactly.
        prop_assert!(residual.max_abs_diff(&x.sub(&y)) < 1e-6);
    }

    #[test]
    fn spec_wire_bytes_match_built_compressor(rows in 1usize..6) {
        // Build each spec against a small-but-divisible geometry and verify
        // the spec's predicted wire bytes match the real message.
        let h = 1024;
        let n = rows * h;
        let x = Tensor::ones([rows, h]);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for spec in CompressorSpec::all() {
            let mut c = spec.build(&mut rng, n, h);
            let msg = c.compress(&x);
            let predicted = spec.wire_bytes(n, h);
            let actual = msg.wire_bytes(2);
            let denom = predicted.max(1) as f64;
            prop_assert!(
                ((predicted as f64 - actual as f64).abs() / denom) < 0.05,
                "{}: predicted {} vs actual {}", spec, predicted, actual
            );
        }
    }

    #[test]
    fn codec_round_trip_preserves_shape_and_wire_bytes(
        rows in prop::sample::select(vec![1usize, 2, 4]),
        seed in 0u64..64,
        v in proptest::collection::vec(-50.0f32..50.0, 4 * 1024),
    ) {
        // Encode → decode for every Table 1 spec: the reconstruction must
        // come back in the activation's shape, and the message's measured
        // wire size must match the spec's claimed byte arithmetic.
        let h = 1024;
        let n = rows * h;
        let x = Tensor::from_vec(v[..n].to_vec(), [rows, h]);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for spec in CompressorSpec::all() {
            let mut c = spec.build(&mut rng, n, h);
            let msg = c.compress(&x);
            let y = c.decompress(&msg);
            prop_assert_eq!(
                y.shape().dims(), x.shape().dims(),
                "{}: decode shape {:?} != input {:?}", spec, y.shape(), x.shape()
            );
            let predicted = spec.wire_bytes(n, h);
            let actual = msg.wire_bytes(2);
            let denom = predicted.max(1) as f64;
            prop_assert!(
                ((predicted as f64 - actual as f64).abs() / denom) < 0.05,
                "{}: claimed {} wire bytes, measured {}", spec, predicted, actual
            );
        }
    }

    #[test]
    fn compressed_is_never_larger_than_dense_for_real_specs(rows in 1usize..4) {
        let h = 1024;
        let n = rows * h;
        let dense = n * 2;
        for spec in CompressorSpec::all() {
            if matches!(spec, CompressorSpec::Baseline) {
                continue;
            }
            let bytes = spec.wire_bytes(n, h);
            prop_assert!(bytes < dense, "{}: {} >= {}", spec, bytes, dense);
        }
    }
}
