//! Uniform quantization (2/4/8 bits) with bit packing.

use crate::{Compressed, Compressor, Payload};
use actcomp_tensor::{pool, Tensor};
use bytes::Bytes;

/// Minimum code bytes per pack/unpack chunk (a byte covers 1–4 elements).
const MIN_CHUNK_BYTES: usize = 1024;

/// Bit-packs `x` into `bits`-wide codes, chunked over `threads` workers.
///
/// Byte-major: each worker owns a contiguous span of output bytes and
/// quantizes the `8 / bits` elements behind each byte, so there is no
/// per-element `i / per_byte` division, no read-modify-write across
/// chunk boundaries, and every byte's value is independent of the chunk
/// plan — bit-identical to the serial element-major loop.
pub(crate) fn pack_uniform(
    x: &[f32],
    lo: f32,
    scale: f32,
    levels: u32,
    bits: usize,
    threads: usize,
) -> Vec<u8> {
    let per_byte = 8 / bits;
    let n = x.len();
    let mut codes = vec![0u8; n.div_ceil(per_byte)];
    let plan = pool::plan_unit_chunks(codes.len(), threads, MIN_CHUNK_BYTES);
    // Monomorphize per width so the per-byte inner loop fully unrolls
    // with constant shifts (the quantized value is the same either way).
    match per_byte {
        4 => pack_spans::<4>(x, lo, scale, levels, &mut codes, &plan),
        2 => pack_spans::<2>(x, lo, scale, levels, &mut codes, &plan),
        _ => pack_spans::<1>(x, lo, scale, levels, &mut codes, &plan),
    }
    codes
}

/// Byte-major packing over a chunk plan with a compile-time `PER`
/// (elements per byte; `bits = 8 / PER`).
fn pack_spans<const PER: usize>(
    x: &[f32],
    lo: f32,
    scale: f32,
    levels: u32,
    codes: &mut [u8],
    plan: &[usize],
) {
    let bits = 8 / PER;
    let n = x.len();
    pool::run_on_chunks(codes, plan, |byte0, chunk| {
        let quantize = |v: f32| (((v - lo) / scale).round() as u32).min(levels) as u8;
        let src = &x[byte0 * PER..n.min((byte0 + chunk.len()) * PER)];
        let full = src.len() / PER;
        for (byte, grp) in chunk.iter_mut().zip(src.chunks_exact(PER)) {
            let mut b = 0u8;
            for (s, &v) in grp.iter().enumerate() {
                b |= quantize(v) << (s * bits);
            }
            *byte = b;
        }
        if full < chunk.len() {
            let mut b = 0u8;
            for (s, &v) in src[full * PER..].iter().enumerate() {
                b |= quantize(v) << (s * bits);
            }
            chunk[full] = b;
        }
    });
}

/// Unpacks `bits`-wide codes into `out`, chunked over `threads` workers.
///
/// Chunk boundaries are byte-aligned (each code byte is read by exactly
/// one worker). Decoding goes through a 256-row table holding every
/// byte's `per_byte` reconstructed values, each precomputed with the
/// serial loop's exact `zero + code * scale` expression — so a byte
/// decodes as a short copy instead of per-element shift/mask/float
/// math, and the output stays bit-identical and chunk-plan independent.
pub(crate) fn unpack_uniform(
    codes: &[u8],
    zero: f32,
    scale: f32,
    bits: usize,
    out: &mut [f32],
    threads: usize,
) {
    let per_byte = 8 / bits;
    let n = out.len();
    let nbytes = n.div_ceil(per_byte);
    let bplan = pool::plan_unit_chunks(nbytes, threads, MIN_CHUNK_BYTES);
    let mut eplan: Vec<usize> = bplan.iter().map(|&b| b * per_byte).collect();
    if let Some(last) = eplan.last_mut() {
        *last -= nbytes * per_byte - n;
    }
    match per_byte {
        4 => unpack_spans::<4>(codes, zero, scale, out, &eplan),
        2 => unpack_spans::<2>(codes, zero, scale, out, &eplan),
        _ => unpack_spans::<1>(codes, zero, scale, out, &eplan),
    }
}

/// Table-driven unpacking over a chunk plan with a compile-time `PER`
/// (elements per byte; `bits = 8 / PER`): row `b` of the table holds
/// byte `b`'s `PER` reconstructed values, so a full byte decodes as one
/// constant-size copy.
fn unpack_spans<const PER: usize>(
    codes: &[u8],
    zero: f32,
    scale: f32,
    out: &mut [f32],
    eplan: &[usize],
) {
    let bits = 8 / PER;
    let mask = ((1u16 << bits) - 1) as u8;
    let mut table = [[0.0f32; PER]; 256];
    for (b, row) in table.iter_mut().enumerate() {
        for (s, slot) in row.iter_mut().enumerate() {
            let code = ((b as u8) >> (s * bits)) & mask;
            *slot = zero + code as f32 * scale;
        }
    }
    pool::run_on_chunks(out, eplan, |e0, chunk| {
        let mut bi = e0 / PER;
        let full = chunk.len() / PER * PER;
        let (head, tail) = chunk.split_at_mut(full);
        for dst in head.chunks_exact_mut(PER) {
            dst.copy_from_slice(&table[codes[bi] as usize]);
            bi += 1;
        }
        if !tail.is_empty() {
            tail.copy_from_slice(&table[codes[bi] as usize][..tail.len()]);
        }
    });
}

/// Per-tensor uniform affine quantization to `bits` bits, following the
/// scheme of Wang et al. 2022 that the paper's `Q1`/`Q2`/`Q3` settings use.
///
/// `code = round((x − min) / scale)` with
/// `scale = (max − min) / (2^bits − 1)`; codes are bit-packed
/// little-endian within each byte. The backward rule is the
/// straight-through estimator.
///
/// # Examples
///
/// ```
/// use actcomp_compress::{Compressor, Quantizer};
/// use actcomp_tensor::Tensor;
///
/// let mut q = Quantizer::new(8);
/// let x = Tensor::from_vec(vec![-1.0, 0.0, 0.5, 1.0], [4]);
/// let y = q.round_trip(&x);
/// assert!(x.max_abs_diff(&y) < 1.0 / 255.0 + 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Quantizer {
    bits: u8,
}

impl Quantizer {
    /// Creates a quantizer with the given code width.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is 2, 4, or 8 (the widths the paper sweeps).
    pub fn new(bits: u8) -> Self {
        assert!(
            matches!(bits, 2 | 4 | 8),
            "unsupported quantization width {bits} (expected 2, 4, or 8)"
        );
        Quantizer { bits }
    }

    /// Code width in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    fn levels(&self) -> u32 {
        (1u32 << self.bits) - 1
    }
}

impl Compressor for Quantizer {
    fn name(&self) -> &'static str {
        "quant"
    }

    fn compress(&mut self, x: &Tensor) -> Compressed {
        let lo = x.min();
        let hi = x.max();
        let levels = self.levels();
        let scale = if hi > lo {
            (hi - lo) / levels as f32
        } else {
            1.0 // constant tensor: all codes zero
        };
        let codes = pack_uniform(
            x.as_slice(),
            lo,
            scale,
            levels,
            self.bits as usize,
            pool::configured_threads(),
        );
        Compressed::new(
            Payload::Quantized {
                codes: Bytes::from(codes),
                bits: self.bits,
                scale,
                zero: lo,
            },
            x.shape().clone(),
        )
    }

    fn decompress(&self, msg: &Compressed) -> Tensor {
        match msg.payload() {
            Payload::Quantized {
                codes,
                bits,
                scale,
                zero,
            } => {
                let mut out = vec![0.0f32; msg.dense_len()];
                unpack_uniform(
                    codes,
                    *zero,
                    *scale,
                    *bits as usize,
                    &mut out,
                    pool::configured_threads(),
                );
                Tensor::from_vec(out, msg.shape().clone())
            }
            _ => panic!("Quantizer received a non-quantized message"),
        }
    }

    fn fits(&self, msg: &Compressed) -> bool {
        matches!(msg.payload(), Payload::Quantized { bits, .. } if *bits == self.bits)
    }

    // Straight-through backward inherited from the trait default.
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn round_trip_error_within_half_step() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let x = init::randn(&mut rng, [32, 32], 2.0);
        for bits in [2u8, 4, 8] {
            let mut q = Quantizer::new(bits);
            let y = q.round_trip(&x);
            let step = (x.max() - x.min()) / ((1u32 << bits) - 1) as f32;
            assert!(
                x.max_abs_diff(&y) <= step / 2.0 + 1e-5,
                "{bits}-bit error {} > step/2 {}",
                x.max_abs_diff(&y),
                step / 2.0
            );
        }
    }

    #[test]
    fn extremes_are_exact() {
        let x = Tensor::from_vec(vec![-3.0, 0.1, 0.2, 5.0], [4]);
        let mut q = Quantizer::new(4);
        let y = q.round_trip(&x);
        assert!((y[0] + 3.0).abs() < 1e-6);
        assert!((y[3] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn constant_tensor_round_trips() {
        let x = Tensor::full(2.5, [7]);
        let mut q = Quantizer::new(2);
        assert!(q.round_trip(&x).max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn wire_size_matches_bit_width() {
        let x = Tensor::ones([64]);
        // 64 elements at 2 bits = 16 bytes + 8 metadata.
        assert_eq!(Quantizer::new(2).compress(&x).wire_bytes(2), 24);
        assert_eq!(Quantizer::new(4).compress(&x).wire_bytes(2), 40);
        assert_eq!(Quantizer::new(8).compress(&x).wire_bytes(2), 72);
    }

    #[test]
    fn odd_length_packs_correctly() {
        let x = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0], [5]);
        let mut q = Quantizer::new(4);
        let y = q.round_trip(&x);
        assert!(x.max_abs_diff(&y) < 0.2);
    }

    #[test]
    fn straight_through_backward() {
        let mut q = Quantizer::new(8);
        let dy = Tensor::from_vec(vec![1.0, -2.0], [2]);
        let msg = q.compress(&dy);
        assert_eq!(q.backward(&dy, &dy, &msg), dy);
    }

    #[test]
    #[should_panic(expected = "unsupported quantization width")]
    fn rejects_bad_width() {
        Quantizer::new(3);
    }

    proptest::proptest! {
        /// Chunked pack/unpack is bit-identical for pools {1, 2, 8} — on
        /// lengths below and above the chunking threshold, including
        /// lengths that don't fill the last code byte.
        #[test]
        fn pack_unpack_is_pool_size_invariant(
            n in 1usize..20_000,
            bits_ix in 0usize..3,
            seed in 0u64..1000,
        ) {
            let bits = [2usize, 4, 8][bits_ix];
            let levels = (1u32 << bits) - 1;
            let data: Vec<f32> = (0..n)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed);
                    ((h >> 33) % 41) as f32 * 0.17 - 3.5
                })
                .collect();
            let lo = data.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let scale = if hi > lo { (hi - lo) / levels as f32 } else { 1.0 };
            let serial = pack_uniform(&data, lo, scale, levels, bits, 1);
            let mut out_serial = vec![0.0f32; n];
            unpack_uniform(&serial, lo, scale, bits, &mut out_serial, 1);
            for threads in [2usize, 8] {
                let pooled = pack_uniform(&data, lo, scale, levels, bits, threads);
                proptest::prop_assert_eq!(&pooled, &serial, "pack threads={}", threads);
                let mut out = vec![0.0f32; n];
                unpack_uniform(&pooled, lo, scale, bits, &mut out, threads);
                let same = out.iter().zip(&out_serial).all(|(a, b)| a.to_bits() == b.to_bits());
                proptest::prop_assert!(same, "unpack threads={}", threads);
            }
        }
    }

    #[test]
    fn quantization_error_shrinks_with_bits() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let x = init::randn(&mut rng, [64], 1.0);
        let e2 = Quantizer::new(2).round_trip(&x).sub(&x).norm();
        let e4 = Quantizer::new(4).round_trip(&x).sub(&x).norm();
        let e8 = Quantizer::new(8).round_trip(&x).sub(&x).norm();
        assert!(e2 > e4 && e4 > e8);
    }
}
