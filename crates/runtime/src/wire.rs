//! Bit-exact binary serialization for every message the runtime moves
//! over a framed transport.
//!
//! The codec is hand-rolled little-endian rather than JSON because the
//! transport-conformance invariant is *bitwise*: an `f32` must cross
//! the wire as its exact bit pattern (`to_le_bytes`/`from_le_bytes`),
//! never through a decimal round-trip. Layout is positional with a
//! one-byte tag for enums: the engine's message types, flattened.
//!
//! Decoding returns typed errors; the data-plane callers treat a
//! malformed frame the same way they treat a hung-up channel (the
//! worker aborts), while control-plane callers surface it.

use crate::rank::RankGrads;
use actcomp_compress::{Compressed, Payload};
use actcomp_mp::ring::{ChunkData, GatherPayload, RingMsg};
use actcomp_tensor::{Shape, Tensor};
use bytes::Bytes;

/// A decode failure: what was being parsed and why it stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What the decoder was reading.
    pub what: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire payload while decoding {}", self.what)
    }
}

impl std::error::Error for WireError {}

fn fail<T>(what: &'static str) -> Result<T, WireError> {
    Err(WireError { what })
}

/// Element count of `dims`, or `None` when the product overflows:
/// dims come off the wire, and `Shape::len` multiplies unchecked.
fn checked_len(dims: &[usize]) -> Option<usize> {
    dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
}

/// A cursor over a received payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn done(&self) -> bool {
        self.at == self.buf.len()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        // `n` comes off the wire: a prefix near `u64::MAX` must fail
        // here, not overflow the add.
        let end = self.at.checked_add(n).ok_or(WireError { what })?;
        let s = self.buf.get(self.at..end).ok_or(WireError { what })?;
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self, what: &'static str) -> Result<usize, WireError> {
        Ok(self.u64(what)? as usize)
    }

    fn f32(&mut self, what: &'static str) -> Result<f32, WireError> {
        let b = self.take(4, what)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let n = self.usize(what)?;
        Ok(self.take(n, what)?.to_vec())
    }

    /// A length-prefixed run of `W`-byte little-endian words. The count
    /// comes off the wire: `n · W` must not overflow.
    fn words<const W: usize, T>(
        &mut self,
        what: &'static str,
        word: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, WireError> {
        let n = self.usize(what)?;
        let raw = self.take(n.checked_mul(W).ok_or(WireError { what })?, what)?;
        Ok(raw
            .chunks_exact(W)
            .map(|c| word(c.try_into().expect("W-byte chunk")))
            .collect())
    }

    fn f32_vec(&mut self, what: &'static str) -> Result<Vec<f32>, WireError> {
        self.words(what, f32::from_le_bytes)
    }

    fn u32_vec(&mut self, what: &'static str) -> Result<Vec<u32>, WireError> {
        self.words(what, u32::from_le_bytes)
    }

    /// The inverse of [`put_bf16_slice`]: each value widened back to
    /// `f32` exactly.
    pub(crate) fn bf16_vec(&mut self, what: &'static str) -> Result<Vec<f32>, WireError> {
        self.words(what, |b| {
            f32::from_bits(u32::from(u16::from_le_bytes(b)) << 16)
        })
    }

    fn string(&mut self, what: &'static str) -> Result<String, WireError> {
        let raw = self.bytes(what)?;
        String::from_utf8(raw).or(fail(what))
    }
}

// ---------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

pub(crate) fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_usize(out, v.len());
    out.extend_from_slice(v);
}

// The two slice writers extend from an iterator of 4-byte words whose
// length is known up front: one reservation and a block fill, not a
// capacity check per element.
pub(crate) fn put_f32_slice(out: &mut Vec<u8>, v: &[f32]) {
    put_usize(out, v.len());
    out.extend(v.iter().flat_map(|x| x.to_le_bytes()));
}

pub(crate) fn put_u32_slice(out: &mut Vec<u8>, v: &[u32]) {
    put_usize(out, v.len());
    out.extend(v.iter().flat_map(|x| x.to_le_bytes()));
}

/// Each value as the `u64` [`put_usize`] writes.
pub(crate) fn put_usize_slice(out: &mut Vec<u8>, v: &[usize]) {
    put_usize(out, v.len());
    out.extend(v.iter().flat_map(|&x| (x as u64).to_le_bytes()));
}

/// Values already rounded to bfloat16 ([`actcomp_mp::wire_round`]), two
/// bytes each: the top half of every `f32`, whose dropped low half is
/// zero, so the round trip is exact.
pub(crate) fn put_bf16_slice(out: &mut Vec<u8>, v: &[f32]) {
    put_usize(out, v.len());
    out.extend(
        v.iter()
            .flat_map(|x| ((x.to_bits() >> 16) as u16).to_le_bytes()),
    );
}

pub(crate) fn put_string(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

/// A shape's wire form: its rank, then each dimension.
fn put_dims(out: &mut Vec<u8>, dims: &[usize]) {
    put_usize(out, dims.len());
    for &d in dims {
        put_usize(out, d);
    }
}

// ---------------------------------------------------------------------
// The message trait
// ---------------------------------------------------------------------

/// A message with a flat little-endian wire form. Encoding then
/// decoding yields a bitwise-identical value (f32 payloads included).
pub trait WireMsg: Sized + Send {
    /// Appends this value's wire form to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Parses one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encodes a full message into a fresh payload buffer.
pub fn encode_msg<T: WireMsg>(msg: &T) -> Vec<u8> {
    let mut out = Vec::new();
    msg.encode(&mut out);
    out
}

/// Decodes a full payload, requiring every byte to be consumed.
pub fn decode_msg<T: WireMsg>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(buf);
    let v = T::decode(&mut r)?;
    if !r.done() {
        return fail("trailing bytes");
    }
    Ok(v)
}

impl WireMsg for Tensor {
    fn encode(&self, out: &mut Vec<u8>) {
        put_dims(out, self.dims());
        put_f32_slice(out, self.as_slice());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let rank = r.usize("tensor rank")?;
        if rank > Shape::MAX_RANK {
            return fail("tensor rank");
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(r.usize("tensor dim")?);
        }
        if dims.contains(&0) {
            return fail("tensor dim");
        }
        let data = r.f32_vec("tensor data")?;
        if checked_len(&dims) != Some(data.len()) {
            return fail("tensor data length");
        }
        Ok(Tensor::from_vec(data, Shape::new(dims)))
    }
}

impl WireMsg for Vec<Tensor> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.len());
        for t in self {
            t.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.usize("tensor list length")?;
        if n > 1 << 24 {
            return fail("tensor list length");
        }
        (0..n).map(|_| Tensor::decode(r)).collect()
    }
}

impl WireMsg for Compressed {
    fn encode(&self, out: &mut Vec<u8>) {
        put_dims(out, self.shape().dims());
        match self.payload() {
            Payload::Dense(t) => {
                put_u8(out, 0);
                t.encode(out);
            }
            Payload::Sparse { values, indices } => {
                put_u8(out, 1);
                put_f32_slice(out, values);
                put_u32_slice(out, indices);
            }
            Payload::Quantized {
                codes,
                bits,
                scale,
                zero,
            } => {
                put_u8(out, 2);
                put_bytes(out, codes);
                put_u8(out, *bits);
                put_f32(out, *scale);
                put_f32(out, *zero);
            }
        }
    }

    /// Refuses a code a decoder could not use safely: a shape whose
    /// element count overflows, quantized codes of a width other than
    /// 2, 4 or 8 bits or not exactly `ceil(n·bits/8)` bytes long, and
    /// sparse values and indices of different counts or an index past
    /// the shape. A receive still checks the shape against what the
    /// rank holds, and asks its codec whether it
    /// [fits](actcomp_compress::Compressor::fits) the code, before
    /// decoding.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let rank = r.usize("compressed shape rank")?;
        if rank > Shape::MAX_RANK {
            return fail("compressed shape rank");
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(r.usize("compressed shape dim")?);
        }
        if dims.contains(&0) {
            return fail("compressed shape dim");
        }
        let n = checked_len(&dims).ok_or(WireError {
            what: "compressed shape size",
        })?;
        let payload = match r.u8("compressed payload tag")? {
            0 => Payload::Dense(Tensor::decode(r)?),
            1 => {
                let values = r.f32_vec("sparse values")?;
                let indices = r.u32_vec("sparse indices")?;
                if values.len() != indices.len() {
                    return fail("sparse index count");
                }
                if indices.iter().any(|&i| i as usize >= n) {
                    return fail("sparse index");
                }
                Payload::Sparse { values, indices }
            }
            2 => {
                let codes = r.bytes("quantized codes")?;
                let bits = r.u8("quantized bits")?;
                if ![2, 4, 8].contains(&bits) {
                    return fail("quantized bits");
                }
                if n.checked_mul(bits as usize).map(|b| b.div_ceil(8)) != Some(codes.len()) {
                    return fail("quantized code length");
                }
                Payload::Quantized {
                    codes: Bytes::from(codes),
                    bits,
                    scale: r.f32("quantized scale")?,
                    zero: r.f32("quantized zero")?,
                }
            }
            _ => return fail("compressed payload tag"),
        };
        Ok(Compressed::new(payload, Shape::new(dims)))
    }
}

impl WireMsg for RingMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RingMsg::Gather(origin, payload) => {
                put_u8(out, 0);
                put_usize(out, *origin);
                match payload {
                    GatherPayload::Code(c) => {
                        put_u8(out, 0);
                        c.encode(out);
                    }
                    GatherPayload::Grads(v) => {
                        put_u8(out, 1);
                        v.encode(out);
                    }
                }
            }
            RingMsg::Chunk { bcast, idx, data } => {
                put_u8(out, 1);
                put_u8(out, *bcast as u8);
                put_usize(out, *idx);
                match data {
                    ChunkData::Dense(rows) => {
                        put_u8(out, 0);
                        put_bf16_slice(out, rows);
                    }
                    ChunkData::Code(c) => {
                        put_u8(out, 1);
                        c.encode(out);
                    }
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8("ring message tag")? {
            0 => {
                let origin = r.read_usize("gather origin")?;
                let payload = match r.read_u8("gather payload tag")? {
                    0 => GatherPayload::Code(Compressed::decode(r)?),
                    1 => GatherPayload::Grads(Vec::<Tensor>::decode(r)?),
                    _ => return fail("gather payload tag"),
                };
                Ok(RingMsg::Gather(origin, payload))
            }
            1 => {
                let bcast = r.read_u8("chunk bcast flag")? != 0;
                let idx = r.read_usize("chunk index")?;
                let data = match r.read_u8("chunk data tag")? {
                    0 => ChunkData::Dense(r.bf16_vec("dense chunk rows")?),
                    1 => ChunkData::Code(Compressed::decode(r)?),
                    _ => return fail("chunk data tag"),
                };
                Ok(RingMsg::Chunk { bcast, idx, data })
            }
            _ => fail("ring message tag"),
        }
    }
}

impl WireMsg for RankGrads {
    fn encode(&self, out: &mut Vec<u8>) {
        self.embedding.encode(out);
        put_usize(out, self.layers.len());
        for (layer, comps) in self.layers.iter().zip(&self.compressors) {
            layer.encode(out);
            comps.iter().for_each(|c| c.encode(out));
        }
        self.boundary_comp.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let embedding = Vec::<Tensor>::decode(r)?;
        let n = r.usize("layer grads length")?;
        if n > 1 << 16 {
            return fail("layer grads length");
        }
        let mut layers = Vec::with_capacity(n);
        let mut compressors = Vec::with_capacity(n);
        for _ in 0..n {
            layers.push(Vec::<Tensor>::decode(r)?);
            compressors.push([Vec::<Tensor>::decode(r)?, Vec::<Tensor>::decode(r)?]);
        }
        let boundary_comp = Vec::<Tensor>::decode(r)?;
        Ok(RankGrads {
            embedding,
            layers,
            compressors,
            boundary_comp,
        })
    }
}

// Re-exported reader helpers for the control-plane codecs in
// `procs.rs` (Hello/PeerTable frames use strings and scalars).
impl Reader<'_> {
    /// Reads a length-prefixed UTF-8 string.
    pub fn read_string(&mut self, what: &'static str) -> Result<String, WireError> {
        self.string(what)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        self.u8(what)
    }

    /// Reads a `u64` length/count as `usize`.
    pub fn read_usize(&mut self, what: &'static str) -> Result<usize, WireError> {
        self.usize(what)
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        self.u64(what)
    }

    /// Reads a little-endian `f32`.
    pub fn read_f32(&mut self, what: &'static str) -> Result<f32, WireError> {
        self.f32(what)
    }

    /// Reads a length-prefixed list of `u64`s as `usize`s. Like the
    /// float lists, it takes the list's bytes before it allocates, so a
    /// count the frame cannot hold fails without a reservation.
    pub(crate) fn read_usize_vec(&mut self, what: &'static str) -> Result<Vec<usize>, WireError> {
        self.words(what, |b| u64::from_le_bytes(b) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireMsg + PartialEq + std::fmt::Debug>(v: &T) {
        let buf = encode_msg(v);
        let back: T = decode_msg(&buf).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn tensors_roundtrip_bitwise() {
        roundtrip(&Tensor::from_vec(
            vec![1.0f32, -0.0, f32::MIN_POSITIVE, 3.5e-39, 1.0e38],
            vec![5],
        ));
        roundtrip(&Tensor::from_vec(
            (0..24).map(|i| i as f32 * 0.1).collect(),
            vec![2, 3, 4],
        ));
    }

    #[test]
    fn compressed_payloads_roundtrip() {
        let dense = Compressed::new(
            Payload::Dense(Tensor::from_vec(vec![0.25f32, -1.5], vec![2])),
            Shape::new(vec![2]),
        );
        let buf = encode_msg(&dense);
        let back: Compressed = decode_msg(&buf).expect("decode");
        assert_eq!(back.shape(), dense.shape());
        match (back.payload(), dense.payload()) {
            (Payload::Dense(a), Payload::Dense(b)) => assert_eq!(a, b),
            _ => panic!("payload variant changed"),
        }

        let sparse = Compressed::new(
            Payload::Sparse {
                values: vec![1.0, 2.5],
                indices: vec![3, 7],
            },
            Shape::new(vec![4, 2]),
        );
        let back: Compressed = decode_msg(&encode_msg(&sparse)).expect("decode");
        match back.payload() {
            Payload::Sparse { values, indices } => {
                assert_eq!(values, &[1.0, 2.5]);
                assert_eq!(indices, &[3, 7]);
            }
            _ => panic!("payload variant changed"),
        }

        let quant = Compressed::new(
            Payload::Quantized {
                codes: Bytes::copy_from_slice(&[0xAB, 0xCD]),
                bits: 4,
                scale: 0.125,
                zero: -1.0,
            },
            Shape::new(vec![2, 2]),
        );
        let back: Compressed = decode_msg(&encode_msg(&quant)).expect("decode");
        match back.payload() {
            Payload::Quantized {
                codes,
                bits,
                scale,
                zero,
            } => {
                assert_eq!(codes.to_vec(), vec![0xAB, 0xCD]);
                assert_eq!(*bits, 4);
                assert_eq!(*scale, 0.125);
                assert_eq!(*zero, -1.0);
            }
            _ => panic!("payload variant changed"),
        }
    }

    #[test]
    fn truncated_payloads_are_typed_errors() {
        let t = Tensor::from_vec(vec![1.0f32; 6], vec![2, 3]);
        let buf = encode_msg(&t);
        assert!(decode_msg::<Tensor>(&buf[..buf.len() - 1]).is_err());
        let mut extra = buf.clone();
        extra.push(0);
        assert!(decode_msg::<Tensor>(&extra).is_err());
    }

    #[test]
    fn hostile_length_prefixes_are_typed_errors_never_panics() {
        // Every place a decoder reads a count off the wire, fed counts
        // whose `at + n` (or `n * 4`, or `n * 2`) overflows. A CRC-valid
        // frame from a peer can carry any of these; the answer is always
        // `Err`.
        type Build = fn(&mut Vec<u8>, usize);
        let tensor: Build = |out, n| {
            put_dims(out, &[4]);
            put_usize(out, n);
            out.extend_from_slice(&[0u8; 16]);
        };
        let tensor_dims: Build = |out, n| {
            put_dims(out, &[n, 4]);
            put_f32_slice(out, &[0.0; 4]);
        };
        let tensor_list: Build = |out, n| put_usize(out, n);
        let code_dense: Build = |out, n| {
            put_dims(out, &[4]);
            put_u8(out, 0);
            put_dims(out, &[4]);
            put_usize(out, n);
            out.extend_from_slice(&[0u8; 16]);
        };
        let code_sparse_values: Build = |out, n| {
            put_dims(out, &[4]);
            put_u8(out, 1);
            put_usize(out, n);
            out.extend_from_slice(&[0u8; 32]);
        };
        let code_sparse_indices: Build = |out, n| {
            put_dims(out, &[4]);
            put_u8(out, 1);
            put_f32_slice(out, &[1.0]);
            put_usize(out, n);
            out.extend_from_slice(&[0u8; 32]);
        };
        let code_quant: Build = |out, n| {
            put_dims(out, &[4]);
            put_u8(out, 2);
            put_usize(out, n);
            out.extend_from_slice(&[0u8; 32]);
        };
        // Two-byte dense rows: at `n = 2^63 + 4`, an unchecked `n * 2`
        // wraps to exactly the 8 bytes that follow.
        let dense_rows: Build = |out, n| {
            put_usize(out, n);
            out.extend_from_slice(&[0u8; 8]);
        };
        let codes = [
            code_dense,
            code_sparse_values,
            code_sparse_indices,
            code_quant,
        ];

        // What precedes the payload in a gather hop / a ring chunk.
        let gather = |tag: u8| {
            let mut p = vec![0u8];
            put_usize(&mut p, 1);
            put_u8(&mut p, tag);
            p
        };
        let chunk = |tag: u8| {
            let mut p = vec![1u8, 0];
            put_usize(&mut p, 0);
            put_u8(&mut p, tag);
            p
        };

        for n in [
            u64::MAX,
            u64::MAX / 2 + 1,
            u64::MAX / 4,
            1 << 62,
            (1 << 63) + 4,
        ] {
            let n = n as usize;
            let built = |build: Build, prefix: &[u8]| {
                let mut buf = prefix.to_vec();
                build(&mut buf, n);
                buf
            };
            for build in [tensor, tensor_dims] {
                assert!(decode_msg::<Tensor>(&built(build, &[])).is_err());
                assert!(decode_msg::<RingMsg>(&built(build, &gather(1))).is_err());
            }
            for build in codes {
                assert!(decode_msg::<Compressed>(&built(build, &[])).is_err());
                assert!(decode_msg::<RingMsg>(&built(build, &gather(0))).is_err());
                assert!(decode_msg::<RingMsg>(&built(build, &chunk(1))).is_err());
            }
            // Gather of gradients: the list length, then a tensor in it.
            assert!(decode_msg::<Vec<Tensor>>(&built(tensor_list, &[])).is_err());
            assert!(decode_msg::<RingMsg>(&built(tensor_list, &gather(2))).is_err());
            let mut one_grad = gather(2);
            put_usize(&mut one_grad, 1);
            assert!(decode_msg::<RingMsg>(&built(tensor, &one_grad)).is_err());
            // The dense-chunk length, and control-plane strings.
            assert!(decode_msg::<RingMsg>(&built(dense_rows, &chunk(0))).is_err());
            let hello = built(tensor_list, &[]);
            assert!(Reader::new(&hello).read_string("hello").is_err());
        }
    }

    /// A code whose shape is `dims` with `payload`, as the wire carries it.
    fn code_frame(dims: &[usize], payload: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        put_dims(&mut out, dims);
        payload(&mut out);
        out
    }

    #[test]
    fn codes_a_decoder_could_not_use_are_refused() {
        let sparse = |values: &[f32], indices: &[u32]| {
            let (values, indices) = (values.to_vec(), indices.to_vec());
            move |out: &mut Vec<u8>| {
                put_u8(out, 1);
                put_f32_slice(out, &values);
                put_u32_slice(out, &indices);
            }
        };
        let quant = |codes: usize, bits: u8| {
            move |out: &mut Vec<u8>| {
                put_u8(out, 2);
                put_bytes(out, &vec![0; codes]);
                put_u8(out, bits);
                put_f32(out, 1.0);
                put_f32(out, 0.0);
            }
        };
        let refused = |frame: Vec<u8>, what: &str| match decode_msg::<Compressed>(&frame) {
            Err(e) => assert_eq!(e.what, what),
            Ok(_) => panic!("accepted a code with a bad {what}"),
        };
        // Ten elements: 2-bit codes take 3 bytes, 4-bit 5, 8-bit 10.
        for (codes, bits) in [(3, 2), (5, 4), (10, 8)] {
            assert!(decode_msg::<Compressed>(&code_frame(&[2, 5], quant(codes, bits))).is_ok());
            refused(
                code_frame(&[2, 5], quant(codes + 1, bits)),
                "quantized code length",
            );
            refused(
                code_frame(&[2, 5], quant(codes - 1, bits)),
                "quantized code length",
            );
        }
        for bits in [0, 1, 3, 16] {
            refused(code_frame(&[2, 5], quant(10, bits)), "quantized bits");
        }
        assert!(decode_msg::<Compressed>(&code_frame(&[2, 5], sparse(&[1.0], &[9]))).is_ok());
        refused(code_frame(&[2, 5], sparse(&[1.0], &[10])), "sparse index");
        refused(
            code_frame(&[2, 5], sparse(&[1.0, 2.0], &[3])),
            "sparse index count",
        );
        refused(code_frame(&[2, 5], sparse(&[], &[3])), "sparse index count");
        // A shape whose element count overflows, with nothing to fill it.
        let huge = [1 << 32, 1 << 32];
        refused(code_frame(&huge, sparse(&[], &[])), "compressed shape size");
    }

    /// The codec and own code a receive checks a decoded code against.
    type Check = Option<(Box<dyn Compressor>, Compressed)>;

    /// Valid ring frames of every kind a ring carries, each with its
    /// check.
    fn valid_ring_frames() -> Vec<(Vec<u8>, Check)> {
        use actcomp_compress::spec::CompressorSpec;
        use actcomp_mp::ring::{ChunkData, GatherPayload, RingMsg};
        use rand::SeedableRng;
        let partial = actcomp_tensor::init::randn(
            &mut rand_chacha::ChaCha8Rng::seed_from_u64(3),
            [4, 8],
            1.0,
        );
        let coded = |spec: CompressorSpec| {
            let mut codec = spec.build(&mut rand_chacha::ChaCha8Rng::seed_from_u64(4), 32, 8);
            let code = codec.compress(&partial);
            (code.clone(), Some((codec, code)))
        };
        let chunk = |data| RingMsg::Chunk {
            bcast: true,
            idx: 2,
            data,
        };
        let mut rows = partial.as_slice()[..16].to_vec();
        actcomp_mp::wire_round(&mut rows);
        let mut frames = vec![(encode_msg(&chunk(ChunkData::Dense(rows))), None)];
        for spec in [
            CompressorSpec::A2,
            CompressorSpec::T2,
            CompressorSpec::R2,
            CompressorSpec::Q2,
        ] {
            let (code, check) = coded(spec);
            frames.push((encode_msg(&chunk(ChunkData::Code(code))), check));
        }
        let (code, check) = coded(CompressorSpec::Q2);
        frames.push((
            encode_msg(&RingMsg::Gather(1, GatherPayload::Code(code))),
            check,
        ));
        let grads = GatherPayload::Grads(vec![partial.clone(), Tensor::ones([8])]);
        frames.push((encode_msg(&RingMsg::Gather(0, grads)), None));
        frames
    }

    /// Decodes `bytes` as a ring frame; a code of `check`'s own code's
    /// shape that its codec fits, as a receive demands, must then decode
    /// under that codec.
    fn open_ring_frame(bytes: &[u8], check: &Check) -> bool {
        use actcomp_mp::ring::{ChunkData, GatherPayload, RingMsg};
        let Ok(msg) = decode_msg::<RingMsg>(bytes) else {
            return false;
        };
        if let (
            RingMsg::Chunk {
                data: ChunkData::Code(code),
                ..
            }
            | RingMsg::Gather(_, GatherPayload::Code(code)),
            Some((codec, own)),
        ) = (msg, check)
        {
            if code.shape() == own.shape() && codec.fits(&code) {
                assert_eq!(codec.decompress(&code).dims(), own.shape().dims());
            }
        }
        true
    }

    #[test]
    fn every_single_byte_corruption_of_a_ring_frame_decodes_or_fails() {
        for (frame, check) in &valid_ring_frames() {
            for at in 0..frame.len() {
                for byte in [0x00, 0xff, frame[at] ^ 0x01, frame[at] ^ 0x80] {
                    let mut bad = frame.clone();
                    bad[at] = byte;
                    open_ring_frame(&bad, check);
                }
            }
        }
    }

    /// Valid boundary frames: an activation under every payload kind a
    /// boundary codec emits (dense identity and auto-encoder codes,
    /// sparse, quantized), each with its check, and a grad sync.
    fn valid_boundary_frames() -> Vec<(Vec<u8>, Check)> {
        use crate::rank::FwdMsg;
        use actcomp_compress::spec::CompressorSpec;
        use rand::SeedableRng;
        let x = actcomp_tensor::init::randn(
            &mut rand_chacha::ChaCha8Rng::seed_from_u64(5),
            [4, 8],
            1.0,
        );
        let specs = [
            CompressorSpec::Baseline,
            CompressorSpec::A2,
            CompressorSpec::T2,
            CompressorSpec::Q2,
        ];
        let mut frames: Vec<(Vec<u8>, Check)> = (specs.into_iter())
            .map(|spec| {
                let mut codec = spec.build(&mut rand_chacha::ChaCha8Rng::seed_from_u64(6), 32, 8);
                let code = codec.compress(&x);
                let frame = encode_msg(&FwdMsg::Activation(code.clone()));
                (frame, Some((codec, code)))
            })
            .collect();
        let grads = FwdMsg::GradSync(vec![x.clone(), Tensor::ones([8])]);
        frames.push((encode_msg(&grads), None));
        frames
    }

    /// Decodes `bytes` as a boundary frame; an activation of `check`'s
    /// own code's shape that its codec fits must then decode under that
    /// codec.
    fn open_boundary_frame(bytes: &[u8], check: &Check) -> bool {
        use crate::rank::FwdMsg;
        let Ok(msg) = decode_msg::<FwdMsg>(bytes) else {
            return false;
        };
        if let (FwdMsg::Activation(code), Some((codec, own))) = (msg, check) {
            if code.shape() == own.shape() && codec.fits(&code) {
                assert_eq!(codec.decompress(&code).dims(), own.shape().dims());
            }
        }
        true
    }

    #[test]
    fn every_truncation_or_single_byte_corruption_of_a_boundary_frame_is_handled() {
        for (frame, check) in &valid_boundary_frames() {
            assert!(open_boundary_frame(frame, check), "a valid frame decodes");
            for n in 0..frame.len() {
                assert!(
                    !open_boundary_frame(&frame[..n], check),
                    "a truncated frame decodes"
                );
            }
            for at in 0..frame.len() {
                for byte in [0x00, 0xff, frame[at] ^ 0x01, frame[at] ^ 0x80] {
                    let mut bad = frame.clone();
                    bad[at] = byte;
                    open_boundary_frame(&bad, check);
                }
            }
        }
    }

    use actcomp_compress::Compressor;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A ring frame off the wire decodes or fails; it never panics,
        /// and nothing a receive admits panics its codec.
        #[test]
        fn hostile_ring_frames_decode_or_fail_but_never_panic(
            noise in collection::vec(0u8..=255, 0..160),
            which in 0usize..7,
            at in 0usize..1 << 16,
            byte in 0u8..=255,
        ) {
            let frames = valid_ring_frames();
            let (frame, check) = &frames[which];
            prop_assert!(open_ring_frame(frame, check), "a valid frame decodes");
            open_ring_frame(&noise, check);
            let mut spliced = frame[..at % frame.len()].to_vec();
            spliced.extend_from_slice(&noise);
            open_ring_frame(&spliced, check);
            for n in 0..frame.len() {
                prop_assert!(!open_ring_frame(&frame[..n], check), "a truncated frame decodes");
            }
            let mut bad = frame.clone();
            bad[at % frame.len()] = byte;
            open_ring_frame(&bad, check);
            for flip in [0x01, 0x80, 0xff] {
                bad[at % frame.len()] = frame[at % frame.len()] ^ flip;
                open_ring_frame(&bad, check);
            }
        }

        /// A boundary frame off the wire decodes or fails; it never
        /// panics, and no code its codec fits at the own code's shape
        /// panics the codec.
        #[test]
        fn hostile_boundary_frames_decode_or_fail_but_never_panic(
            noise in collection::vec(0u8..=255, 0..160),
            which in 0usize..5,
            at in 0usize..1 << 16,
            byte in 0u8..=255,
        ) {
            let frames = valid_boundary_frames();
            let (frame, check) = &frames[which];
            open_boundary_frame(&noise, check);
            let mut spliced = frame[..at % frame.len()].to_vec();
            spliced.extend_from_slice(&noise);
            open_boundary_frame(&spliced, check);
            let mut bad = frame.clone();
            bad[at % frame.len()] = byte;
            open_boundary_frame(&bad, check);
        }
    }
}
