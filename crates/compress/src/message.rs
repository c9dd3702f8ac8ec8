//! Wire representation of compressed activations.

use actcomp_tensor::{Shape, Tensor};
use bytes::Bytes;

/// The encoded payload of a [`Compressed`] message.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A dense float tensor (identity, or the auto-encoder's code).
    Dense(Tensor),
    /// Sparse values plus their flat indices (Top-K / Random-K).
    Sparse {
        /// Kept values.
        values: Vec<f32>,
        /// Flat row-major indices of the kept values.
        indices: Vec<u32>,
    },
    /// Bit-packed uniform-quantized codes.
    Quantized {
        /// Packed codes, `bits` per element, little-endian within bytes.
        codes: Bytes,
        /// Bits per element (2, 4, or 8).
        bits: u8,
        /// Dequantization scale.
        scale: f32,
        /// Dequantization zero point (minimum value).
        zero: f32,
    },
}

/// A compressed activation message: payload plus the original dense shape.
#[derive(Debug, Clone)]
pub struct Compressed {
    payload: Payload,
    shape: Shape,
}

impl Compressed {
    /// Wraps a payload with the shape of the tensor it encodes.
    pub fn new(payload: Payload, shape: Shape) -> Self {
        Compressed { payload, shape }
    }

    /// The encoded payload.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Shape of the original dense activation.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements in the original dense activation.
    pub fn dense_len(&self) -> usize {
        self.shape.len()
    }

    /// Bytes this message occupies on the wire.
    ///
    /// `dense_elem_bytes` is the width of one dense float on the wire
    /// (2 for the fp16 training the paper uses, 4 for fp32). Sparse
    /// indices are 4 bytes; quantized metadata is 8 bytes.
    pub fn wire_bytes(&self, dense_elem_bytes: usize) -> usize {
        match &self.payload {
            Payload::Dense(t) => t.len() * dense_elem_bytes,
            Payload::Sparse { values, indices } => {
                values.len() * dense_elem_bytes + indices.len() * 4
            }
            Payload::Quantized { codes, .. } => codes.len() + 8,
        }
    }

    /// Compression ratio relative to sending the dense tensor at the same
    /// float width.
    pub fn ratio(&self, dense_elem_bytes: usize) -> f64 {
        let dense = (self.dense_len() * dense_elem_bytes) as f64;
        dense / self.wire_bytes(dense_elem_bytes).max(1) as f64
    }

    /// Elementwise sum of two *summable* messages (dense payloads only).
    ///
    /// This is the on-the-wire reduction an all-reduce performs on
    /// auto-encoder codes.
    ///
    /// # Panics
    ///
    /// Panics if either payload is not dense or shapes differ.
    pub fn sum(&self, other: &Compressed) -> Compressed {
        match (&self.payload, &other.payload) {
            (Payload::Dense(a), Payload::Dense(b)) => Compressed {
                payload: Payload::Dense(a.add(b)),
                shape: self.shape.clone(),
            },
            _ => panic!("sum requires dense (summable) payloads"),
        }
    }
}

/// The flat indices a sparse message kept: where a sparsifier's
/// backward lets the gradient through.
///
/// # Panics
///
/// Panics unless `msg` is sparse.
pub(crate) fn kept_indices(msg: &Compressed) -> &[u32] {
    match msg.payload() {
        Payload::Sparse { indices, .. } => indices,
        _ => panic!("a sparsifier's backward needs the sparse message it sent"),
    }
}

/// Reconstructs a dense tensor from a sparse payload.
///
/// When the index list is sorted (Top-K and Random-K both sort before
/// shipping) the scatter chunks over the kernel pool: each worker owns a
/// contiguous span of the *output* and binary-searches the index list for
/// its span's entries, so writes stay disjoint and the result is
/// chunk-plan independent. Unsorted indices fall back to the serial loop
/// (last write wins, as before).
pub(crate) fn scatter_sparse(values: &[f32], indices: &[u32], shape: &Shape) -> Tensor {
    let mut out = Tensor::zeros(shape.clone());
    let buf = out.as_mut_slice();
    let threads = actcomp_tensor::pool::configured_threads();
    if threads <= 1 || buf.len() < 4096 || !indices.windows(2).all(|w| w[0] <= w[1]) {
        for (&v, &i) in values.iter().zip(indices) {
            buf[i as usize] = v;
        }
        return out;
    }
    let plan = actcomp_tensor::pool::plan_unit_chunks(buf.len(), threads, 4096);
    actcomp_tensor::pool::run_on_chunks(buf, &plan, |start, chunk| {
        let end = start + chunk.len();
        let lo = indices.partition_point(|&i| (i as usize) < start);
        let hi = indices.partition_point(|&i| (i as usize) < end);
        for (&v, &i) in values[lo..hi].iter().zip(&indices[lo..hi]) {
            chunk[i as usize - start] = v;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_dense() {
        let t = Tensor::ones([4, 8]);
        let m = Compressed::new(Payload::Dense(t), Shape::new(vec![4, 8]));
        assert_eq!(m.wire_bytes(2), 64);
        assert_eq!(m.wire_bytes(4), 128);
        assert!((m.ratio(2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wire_bytes_sparse() {
        let m = Compressed::new(
            Payload::Sparse {
                values: vec![1.0, 2.0],
                indices: vec![3, 9],
            },
            Shape::new(vec![4, 8]),
        );
        assert_eq!(m.wire_bytes(2), 2 * 2 + 2 * 4);
        assert!(m.ratio(2) > 5.0);
    }

    #[test]
    fn wire_bytes_quantized() {
        let m = Compressed::new(
            Payload::Quantized {
                codes: Bytes::from(vec![0u8; 8]), // 32 elements at 2 bits
                bits: 2,
                scale: 0.1,
                zero: -1.0,
            },
            Shape::new(vec![32]),
        );
        assert_eq!(m.wire_bytes(2), 16);
        assert_eq!(m.ratio(2), 4.0);
    }

    #[test]
    fn sum_of_dense_messages() {
        let a = Compressed::new(Payload::Dense(Tensor::ones([2])), Shape::new(vec![4]));
        let b = Compressed::new(Payload::Dense(Tensor::ones([2])), Shape::new(vec![4]));
        match a.sum(&b).payload() {
            Payload::Dense(t) => assert_eq!(t.as_slice(), &[2.0, 2.0]),
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "summable")]
    fn sum_rejects_sparse() {
        let a = Compressed::new(
            Payload::Sparse {
                values: vec![],
                indices: vec![],
            },
            Shape::new(vec![4]),
        );
        let b = a.clone();
        a.sum(&b);
    }

    #[test]
    fn scatter_reconstructs() {
        let t = scatter_sparse(&[5.0, -2.0], &[1, 3], &Shape::new(vec![5]));
        assert_eq!(t.as_slice(), &[0.0, 5.0, 0.0, -2.0, 0.0]);
    }
}
