//! Pool-size invariance of the public codec API.
//!
//! The unit-level proptests pin down the internal chunked kernels; this
//! test exercises the *public* `Compressor` round trips under the real
//! process-wide pool configuration and asserts that pools of 1, 2, and
//! 8 workers produce bit-identical messages and reconstructions.
//!
//! Everything runs inside a single `#[test]` so the global
//! `pool::set_threads` never races a concurrently running test.

use actcomp_compress::{
    AutoEncoder, Compressed, Compressor, Identity, Payload, Quantizer, RandomK, TopK,
};
use actcomp_tensor::{init, pool, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Byte-exact equality of two compressed messages.
fn msg_eq(a: &Compressed, b: &Compressed) -> bool {
    if a.shape() != b.shape() {
        return false;
    }
    match (a.payload(), b.payload()) {
        (Payload::Dense(x), Payload::Dense(y)) => tensor_eq(x, y),
        (
            Payload::Sparse {
                values: va,
                indices: ia,
            },
            Payload::Sparse {
                values: vb,
                indices: ib,
            },
        ) => ia == ib && va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits()),
        (
            Payload::Quantized {
                codes: ca,
                bits: ba,
                scale: sa,
                zero: za,
            },
            Payload::Quantized {
                codes: cb,
                bits: bb,
                scale: sb,
                zero: zb,
            },
        ) => ca == cb && ba == bb && sa.to_bits() == sb.to_bits() && za.to_bits() == zb.to_bits(),
        _ => false,
    }
}

fn tensor_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Fresh codec instances per pool size, so stateful codecs (rng
/// streams, caches, error-feedback residuals) start from the same seed
/// every time.
fn codecs() -> Vec<(&'static str, Box<dyn Compressor>)> {
    let mut wrng = ChaCha8Rng::seed_from_u64(11);
    vec![
        ("identity", Box::new(Identity::new())),
        ("topk", Box::new(TopK::new(700))),
        ("randk", Box::new(RandomK::new(500, 5))),
        ("quant2", Box::new(Quantizer::new(2))),
        ("quant4", Box::new(Quantizer::new(4))),
        ("quant8", Box::new(Quantizer::new(8))),
        ("autoencoder", Box::new(AutoEncoder::new(&mut wrng, 64, 16))),
    ]
}

#[test]
fn public_codec_round_trips_are_pool_size_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    // 96 × 64 is large enough that every chunked kernel actually
    // splits at 8 workers (6144 elements, 96 rows).
    let x = init::randn(&mut rng, [96, 64], 1.5);
    let dy = init::randn(&mut rng, [96, 64], 0.7);

    // Reference pass on a single worker.
    pool::set_threads(1);
    let mut reference: Vec<(Compressed, Tensor, Tensor)> = Vec::new();
    for (_, mut c) in codecs() {
        let msg = c.compress(&x);
        let dec = c.decompress(&msg);
        let dx = c.backward(&dy, &x, &msg);
        reference.push((msg, dec, dx));
    }

    for threads in [2usize, 8] {
        pool::set_threads(threads);
        for ((name, mut c), (ref_msg, ref_dec, ref_dx)) in codecs().into_iter().zip(&reference) {
            let msg = c.compress(&x);
            assert!(
                msg_eq(&msg, ref_msg),
                "{name}: compress diverged at {threads} threads"
            );
            let dec = c.decompress(&msg);
            assert!(
                tensor_eq(&dec, ref_dec),
                "{name}: decompress diverged at {threads} threads"
            );
            let dx = c.backward(&dy, &x, &msg);
            assert!(
                tensor_eq(&dx, ref_dx),
                "{name}: backward diverged at {threads} threads"
            );
        }
    }
    pool::set_threads(1);
}
