//! What a ring link carries, and what a receive demands of it before
//! anything uses it.

use super::steps::MsgId;
use actcomp_compress::{Compressed, Compressor};
use actcomp_tensor::Tensor;

/// An item travelling a whole-message all-gather.
#[derive(Debug, Clone)]
pub enum GatherPayload {
    /// A compressed activation message (non-summable reduce).
    Code(Compressed),
    /// Compressor-parameter gradients (auto-encoder sync).
    Grads(Vec<Tensor>),
}

impl GatherPayload {
    /// fp16-equivalent bytes one hop of this payload is metered at;
    /// `None` for traffic the reduce accounting leaves out
    /// (compressor-parameter gradient sync).
    pub(super) fn metered(&self) -> Option<usize> {
        match self {
            GatherPayload::Code(code) => Some(code.wire_bytes(2)),
            GatherPayload::Grads(_) => None,
        }
    }

    /// Whether a peer's payload may be used where this rank's is `own`:
    /// a code of the own code's shape that this rank's `codec`
    /// [fits](Compressor::fits), or gradients of the same shapes. A ring
    /// receive checks this before anything decodes the code, which
    /// bounds every allocation a decode makes by a tensor the rank
    /// already holds.
    pub(super) fn fits(&self, own: &GatherPayload, codec: &dyn Compressor) -> bool {
        match (self, own) {
            (GatherPayload::Code(code), GatherPayload::Code(own)) => {
                code.shape() == own.shape() && codec.fits(code)
            }
            (GatherPayload::Grads(a), GatherPayload::Grads(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.dims() == b.dims())
            }
            _ => false,
        }
    }
}

/// One chunk of a chain-reduce / broadcast collective.
#[derive(Debug)]
pub enum ChunkData {
    /// Rows of a dense reduce, already rounded to bfloat16.
    Dense(Vec<f32>),
    /// The code of a summable compressed reduce.
    Code(Compressed),
}

/// Everything a ring link can carry.
#[derive(Debug)]
pub enum RingMsg {
    /// One hop of a whole-message gather: origin rank and payload.
    Gather(usize, GatherPayload),
    /// A chunk message: reduce-phase (`bcast = false`) or
    /// broadcast-phase.
    Chunk {
        /// Broadcast leg (`true`) or reduce leg (`false`).
        bcast: bool,
        /// Chunk index within the collective.
        idx: usize,
        /// The chunk.
        data: ChunkData,
    },
}

impl RingMsg {
    /// The identity the schedule knows this message by within
    /// collective `coll`. The wire carries no collective ordinal: a
    /// chunk is keyed on `(bcast, idx)` and a gather hop on its origin
    /// (the static analysis proves the shorter keys unambiguous).
    pub(super) fn id(&self, coll: usize) -> MsgId {
        match *self {
            RingMsg::Chunk { bcast, idx, .. } => MsgId::Chunk { coll, bcast, idx },
            RingMsg::Gather(origin, _) => MsgId::Gather { coll, origin },
        }
    }

    /// The kind of payload carried, for protocol-violation reports.
    pub fn kind(&self) -> &'static str {
        match self {
            RingMsg::Chunk {
                data: ChunkData::Dense(_),
                ..
            } => "dense rows",
            RingMsg::Chunk { .. } | RingMsg::Gather(_, GatherPayload::Code(_)) => "a code",
            RingMsg::Gather(_, GatherPayload::Grads(_)) => "parameter gradients",
        }
    }
}
