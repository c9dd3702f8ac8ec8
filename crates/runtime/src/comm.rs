//! Channel-based ring collectives for one tensor-parallel group.
//!
//! Each rank owns a [`TpGroup`] endpoint of a ring over framed
//! transport channels. Collectives run the same compressor
//! arithmetic as the serial [`actcomp_mp::CompressedAllReduce`], and a
//! dense sum the serial executor's [`actcomp_mp::wire_sum`], so a
//! threaded run is bit-identical to the serial executor.
//!
//! # Ring algorithm
//!
//! Dense reduces and summable-code reduces use a **pipelined chain
//! reduce plus ring broadcast** over chunks (row chunks of a dense
//! tensor; a code travels as one chunk):
//!
//! 1. *Chain reduce* (rank order `0 → 1 → … → p−1`): rank 0 ships each
//!    chunk of its partial; every rank in between adds its own rows to
//!    the buffer it received and forwards it. Dense rows are rounded to
//!    bfloat16 whenever they leave a rank ([`actcomp_mp::wire_sum`]),
//!    and the total is rounded before rank `p−1` consumes it, so the
//!    result is exactly the serial executor's rounded left fold in rank
//!    order — which is what keeps the threaded runtime, and every rank's
//!    copy of the total, bitwise equal to serial.
//! 2. *Broadcast* (`p−1 → 0 → 1 → … → p−2`): the root forwards each
//!    finished chunk around the ring; every rank copies it into its
//!    output.
//!
//! A textbook reduce-scatter + all-gather would be cheaper in maximum
//! per-rank traffic, but it reduces every chunk along a *different* rank
//! walk, so its floating-point association depends on the chunk's owner
//! — it cannot reproduce the serial left fold bit for bit. The chain
//! form keeps the fold while still moving at most `2N` elements per rank
//! (versus the gather-based `(p−1)N`, strictly fewer for `p ≥ 3`) and
//! `2(p−1)N` in aggregate across links, which is bandwidth-optimal for
//! an all-reduce.
//!
//! # One schedule, two readers
//!
//! The order in which every rank sends, receives and works on chunks is
//! not written here: it is the step list [`chunk_ring_steps`] (and
//! [`gather_ring_steps`] for whole-message gathers), defined in
//! `actcomp_check::collectives`. This module *interprets* those steps
//! — one interpreter, generic over what a chunk carries (dense rows or
//! a whole code) — and `actcomp check --comm` proves matching,
//! delivery order and deadlock-freedom on the very same lists.
//!
//! # Chunking and overlap
//!
//! Tensors are split into row chunks ([`RingTuning`]); chunk `i+1` is
//! being encoded/copied while chunk `i` is on the wire and chunk `i−1`
//! is being summed/decoded downstream. Rank 0 paces the pipeline: it
//! keeps at most `pipeline_depth` reduce chunks in flight beyond the
//! broadcasts it has consumed, so memory stays bounded without any
//! blocking sends (channels are unbounded; the lookahead cap is the only
//! back-pressure needed). Because every rank sends its reduce-phase
//! chunks in index order and broadcast forwards in index order, each
//! link's FIFO matches the receiver's processing order up to the
//! reduce/broadcast interleave, which a small stash absorbs.
//!
//! A summable codec's code is encoded once over the whole tensor and
//! chain-reduced as a single chunk with [`Compressed::sum`], preserving
//! whole-tensor semantics (the auto-encoder's weight gradients summed
//! over every row, error-feedback residuals); the tuning knobs shape
//! only the dense ring. Non-summable messages all-gather, but each
//! message is decoded as it arrives so decode overlaps the remaining
//! wire hops; the final summation stays in rank order.

use crate::link::{MsgRx, MsgTx, CHAN_RING};
use crate::report::{timed, PhaseTimers};
use crate::trace::TraceHandle;
use crate::wire::{put_bf16_slice, put_u8, put_usize, Reader, WireError, WireMsg};
use actcomp_check::collectives::{
    chunk_ring_steps, gather_ring_steps, ring_chunk_plan, GatherHop, RingStep,
    DEFAULT_PIPELINE_DEPTH,
};
use actcomp_check::{ChannelId, Dir, MsgId};
use actcomp_compress::{Compressed, Compressor};
use actcomp_mp::{rank_order_sum, wire_round, CommBytes};
use actcomp_net::{mpsc_world, Transport, TransportError};
use actcomp_tensor::{Tensor, Workspace};
use std::time::Instant;

/// Chunking/pipelining knobs for ring collectives.
///
/// They reach an engine through exactly one channel,
/// [`RuntimeConfig::tuning`](crate::RuntimeConfig) (`None` means
/// [`RingTuning::default`]); a bare [`TpGroup`] starts at the default
/// and callers may set its `tuning` field, as long as all endpoints of
/// one ring agree (the chunk plan must be identical on every rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RingTuning {
    /// Rows per chunk; `None` picks `ceil(rows / 4)` per collective.
    pub chunk_rows: Option<usize>,
    /// Maximum reduce chunks rank 0 keeps in flight ahead of the
    /// broadcasts it has consumed (≥ 1).
    pub pipeline_depth: usize,
}

impl RingTuning {
    /// The per-chunk row counts for a `rows`-row collective
    /// ([`ring_chunk_plan`]). Depends only on `(self, rows)` — never on
    /// runtime state — so every rank of a ring derives the same plan
    /// independently.
    pub fn plan(&self, rows: usize) -> Vec<usize> {
        ring_chunk_plan(self.chunk_rows, rows)
    }
}

impl Default for RingTuning {
    fn default() -> Self {
        RingTuning {
            chunk_rows: None,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
        }
    }
}

/// An item travelling a whole-message all-gather, tagged with origin.
#[derive(Debug, Clone)]
pub(crate) enum GatherPayload {
    /// A compressed activation message (non-summable reduce).
    Code(Compressed),
    /// Compressor-parameter gradients (auto-encoder sync).
    Grads(Vec<Tensor>),
}

/// One row chunk of a chain-reduce / broadcast collective.
#[derive(Debug)]
pub(crate) enum ChunkData {
    /// Rows of a dense reduce, already rounded to bfloat16 (owned,
    /// recycled via `Workspace`).
    Dense(Vec<f32>),
    /// The code of a summable compressed reduce.
    Code(Compressed),
}

impl ChunkData {
    /// Bytes this chunk's payload occupies on the wire: two a dense
    /// element, and the fp16-equivalent size of a code.
    fn wire_bytes(&self) -> usize {
        match self {
            ChunkData::Dense(v) => v.len() * 2,
            ChunkData::Code(c) => c.wire_bytes(2),
        }
    }
}

/// Everything a ring link can carry.
#[derive(Debug)]
pub(crate) enum RingMsg {
    /// One hop of a whole-message gather: origin rank and payload.
    Gather(usize, GatherPayload),
    /// A chunk message: reduce-phase (`bcast = false`) or
    /// broadcast-phase.
    Chunk {
        bcast: bool,
        idx: usize,
        data: ChunkData,
    },
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
                    _ => {
                        return Err(WireError {
                            what: "gather payload tag",
                        })
                    }
                };
                Ok(RingMsg::Gather(origin, payload))
            }
            1 => {
                let bcast = r.read_u8("chunk bcast flag")? != 0;
                let idx = r.read_usize("chunk index")?;
                let data = match r.read_u8("chunk data tag")? {
                    0 => ChunkData::Dense(r.bf16_vec("dense chunk rows")?),
                    1 => ChunkData::Code(Compressed::decode(r)?),
                    _ => {
                        return Err(WireError {
                            what: "chunk data tag",
                        })
                    }
                };
                Ok(RingMsg::Chunk { bcast, idx, data })
            }
            _ => Err(WireError {
                what: "ring message tag",
            }),
        }
    }
}

impl RingMsg {
    /// The identity the schedule knows this message by within
    /// collective `coll`. The wire carries no collective ordinal: a
    /// chunk is keyed on `(bcast, idx)` and a gather hop on its origin
    /// (the static analysis proves the shorter keys unambiguous).
    fn id(&self, coll: usize) -> MsgId {
        match *self {
            RingMsg::Chunk { bcast, idx, .. } => MsgId::Chunk { coll, bcast, idx },
            RingMsg::Gather(origin, _) => MsgId::Gather { coll, origin },
        }
    }

    /// The kind of payload carried, for protocol-violation reports.
    fn kind(&self) -> &'static str {
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

/// A payload type a ring message can be opened as. The receive site
/// has already matched the message's identity; this checks that it
/// carries the kind of payload the running collective moves.
trait FromRing: Sized {
    /// The payload, or the message back when it carries something else.
    fn from_ring(msg: RingMsg) -> Result<Self, RingMsg>;
}

impl FromRing for Vec<f32> {
    fn from_ring(msg: RingMsg) -> Result<Self, RingMsg> {
        match msg {
            RingMsg::Chunk {
                data: ChunkData::Dense(rows),
                ..
            } => Ok(rows),
            other => Err(other),
        }
    }
}

impl FromRing for Compressed {
    fn from_ring(msg: RingMsg) -> Result<Self, RingMsg> {
        match msg {
            RingMsg::Chunk {
                data: ChunkData::Code(code),
                ..
            }
            | RingMsg::Gather(_, GatherPayload::Code(code)) => Ok(code),
            other => Err(other),
        }
    }
}

impl FromRing for Vec<Tensor> {
    fn from_ring(msg: RingMsg) -> Result<Self, RingMsg> {
        match msg {
            RingMsg::Gather(_, GatherPayload::Grads(grads)) => Ok(grads),
            other => Err(other),
        }
    }
}

/// A value that can ride a whole-message gather.
trait GatherItem: FromRing + Clone {
    /// The value as a gather payload.
    fn wrap(self) -> GatherPayload;
    /// fp16-equivalent bytes one hop of this value is metered at;
    /// `None` for traffic the serial executor's accounting leaves out
    /// (compressor-parameter gradient sync).
    fn metered(&self) -> Option<usize>;
}

impl GatherItem for Compressed {
    fn wrap(self) -> GatherPayload {
        GatherPayload::Code(self)
    }
    fn metered(&self) -> Option<usize> {
        Some(self.wire_bytes(2))
    }
}

impl GatherItem for Vec<Tensor> {
    fn wrap(self) -> GatherPayload {
        GatherPayload::Grads(self)
    }
    fn metered(&self) -> Option<usize> {
        None
    }
}

/// What a chunk ring moves — dense rows or a whole code — as the
/// local operations the [`RingStep`]s of a collective call for: make
/// the own chunk, fold a received partial sum into it, consume a total.
trait RingPayload {
    /// A chunk as it travels the ring.
    type Chunk: FromRing + Clone;
    /// This rank's own contribution to one chunk.
    type Own;
    /// Whether the last rank ships a finished chunk *before* consuming
    /// it (at the price of a copy), so the peers' work on it overlaps
    /// its own.
    const SHIP_TOTAL_FIRST: bool;
    /// The chunk as wire data.
    fn wrap(chunk: Self::Chunk) -> ChunkData;
    /// Makes this rank's contribution to chunk `idx`. Called before the
    /// blocking receive of the same step, so an encode overlaps the
    /// upstream chain's work.
    fn make(&mut self, idx: usize, timers: &mut PhaseTimers) -> Self::Own;
    /// Rank 0: the own contribution as the chunk that starts the chain.
    fn ship(&mut self, own: Self::Own, ws: &mut Workspace) -> Self::Chunk;
    /// `acc + own`: one step of the rank-order left fold.
    fn fold(&mut self, acc: Self::Chunk, own: Self::Own, timers: &mut PhaseTimers) -> Self::Chunk;
    /// Writes the finished chunk `idx` into this rank's output.
    fn consume(&mut self, idx: usize, total: &Self::Chunk, timers: &mut PhaseTimers);
    /// Disposes of a chunk that travels no further.
    fn retire(&mut self, _chunk: Self::Chunk, _ws: &mut Workspace) {}
}

/// Treats any tensor as `[rows, width]` for chunking purposes (rank-1
/// tensors chunk per element).
fn rows_width(t: &Tensor) -> (usize, usize) {
    let len = t.len();
    if len == 0 {
        return (1, 0);
    }
    let rows = if t.rank() >= 1 { t.dims()[0].max(1) } else { 1 };
    (rows, len / rows)
}

/// The row-chunk geometry of one collective over a `[rows, width]`
/// tensor: each chunk's `(start, end)` rows.
struct RowChunks {
    rows: Vec<(usize, usize)>,
    width: usize,
}

impl RowChunks {
    fn new(plan: &[usize], width: usize) -> RowChunks {
        let mut at = 0;
        let rows = (plan.iter())
            .map(|&n| {
                at += n;
                (at - n, at)
            })
            .collect();
        RowChunks { rows, width }
    }

    /// The element range of chunk `idx`.
    fn elems(&self, idx: usize) -> std::ops::Range<usize> {
        let (r0, r1) = self.rows[idx];
        r0 * self.width..r1 * self.width
    }
}

/// Dense rows riding a chunk ring: every buffer that leaves a rank is
/// rounded to bfloat16 in place ([`wire_round`]); received buffers are
/// accumulated in place and forwarded without a copy, then recycled
/// into the workspace where they stop.
struct DenseRows<'a> {
    data: &'a [f32],
    chunks: RowChunks,
    out: Tensor,
}

impl<'a> RingPayload for DenseRows<'a> {
    type Chunk = Vec<f32>;
    type Own = &'a [f32];
    // The total lives in the buffer that is forwarded: copy it out,
    // then let the buffer go.
    const SHIP_TOTAL_FIRST: bool = false;

    fn wrap(chunk: Vec<f32>) -> ChunkData {
        ChunkData::Dense(chunk)
    }

    fn make(&mut self, idx: usize, _timers: &mut PhaseTimers) -> &'a [f32] {
        &self.data[self.chunks.elems(idx)]
    }

    fn ship(&mut self, own: &'a [f32], ws: &mut Workspace) -> Vec<f32> {
        let mut buf = ws.lease(own.len());
        buf.copy_from_slice(own);
        wire_round(&mut buf);
        buf
    }

    fn fold(&mut self, mut acc: Vec<f32>, own: &'a [f32], timers: &mut PhaseTimers) -> Vec<f32> {
        timed(&mut timers.decode_s, || {
            for (b, &v) in acc.iter_mut().zip(own) {
                *b += v;
            }
            wire_round(&mut acc);
        });
        acc
    }

    fn consume(&mut self, idx: usize, total: &Vec<f32>, timers: &mut PhaseTimers) {
        let range = self.chunks.elems(idx);
        timed(&mut timers.decode_s, || {
            self.out.as_mut_slice()[range].copy_from_slice(total);
        });
    }

    fn retire(&mut self, chunk: Vec<f32>, ws: &mut Workspace) {
        ws.recycle(chunk);
    }
}

/// The code of a summable compressor riding a chunk ring as its one
/// chunk: encoded once over the whole partial, decoded once.
struct WholeCode<'a> {
    comp: &'a mut dyn Compressor,
    partial: &'a Tensor,
    /// The decoded total, once consumed.
    out: Option<Tensor>,
    /// Wire bytes of the code this rank made.
    own_wire: usize,
}

impl RingPayload for WholeCode<'_> {
    type Chunk = Compressed;
    type Own = Compressed;
    // A code is cheap to copy and slow to decode: ship it first.
    const SHIP_TOTAL_FIRST: bool = true;

    fn wrap(chunk: Compressed) -> ChunkData {
        ChunkData::Code(chunk)
    }

    fn make(&mut self, _idx: usize, timers: &mut PhaseTimers) -> Compressed {
        let code = timed(&mut timers.encode_s, || self.comp.compress(self.partial));
        self.own_wire += code.wire_bytes(2);
        code
    }

    fn ship(&mut self, own: Compressed, _ws: &mut Workspace) -> Compressed {
        own
    }

    fn fold(&mut self, acc: Compressed, own: Compressed, timers: &mut PhaseTimers) -> Compressed {
        timed(&mut timers.decode_s, || acc.sum(&own))
    }

    fn consume(&mut self, _idx: usize, total: &Compressed, timers: &mut PhaseTimers) {
        self.out = Some(timed(&mut timers.decode_s, || self.comp.decompress(total)));
    }
}

/// One rank's endpoint of a tensor-parallel ring of `world` ranks.
///
/// All collectives are deterministic: reductions always fold in rank
/// order `0..world` with a chunk plan derived purely from shapes and
/// [`RingTuning`], so the result is independent of thread scheduling and
/// of the chunk plan itself.
pub struct TpGroup {
    /// This rank's index within the group.
    pub rank: usize,
    /// Group size.
    pub world: usize,
    next_tx: Option<MsgTx<RingMsg>>,
    prev_rx: Option<MsgRx<RingMsg>>,
    /// Cumulative reduce traffic (per-rank accounting, matching the
    /// serial executor's formulas — dense backward reduces count
    /// nothing here, exactly as in serial).
    pub bytes: CommBytes,
    /// Ring-vs-gather accounting: `wire` is the payload bytes this rank
    /// *actually sent* in collectives (two a dense element, codes at
    /// their fp16-equivalent size); `dense` is what a whole-message
    /// all-gather of the same collectives would have sent per rank.
    /// For gathered collectives the two are equal; for chunk-ring
    /// collectives `wire ≤ dense`, strictly less for `p ≥ 3`.
    pub ring_bytes: CommBytes,
    /// Chunking/pipelining knobs ([`RingTuning::default`] unless the
    /// engine's `RuntimeConfig::tuning` or a caller set them). All
    /// endpoints of one ring must agree.
    pub tuning: RingTuning,
    /// Audit-trace handle; `None` (the default) records nothing.
    trace: Option<TraceHandle>,
    /// Ordinal of the next collective on this ring, reset per step —
    /// the `coll` component of traced chunk/gather message identities.
    coll: usize,
    /// Ordinal of the collective currently in flight.
    active_coll: usize,
    /// Chunks that arrived ahead of the one being received (the
    /// reduce/broadcast interleave on a link can run at most
    /// `pipeline_depth` messages ahead); empty between collectives.
    stash: Vec<RingMsg>,
}

impl std::fmt::Debug for TpGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TpGroup({}/{})", self.rank, self.world)
    }
}

impl TpGroup {
    /// Builds the endpoints of a ring over `world` ranks, one per
    /// endpoint of an in-process [`mpsc_world`]
    /// ([`TpGroup::over_transport`]); endpoint `t` sends to
    /// `(t + 1) % world` and receives from `(t − 1) % world`.
    ///
    /// # Panics
    ///
    /// Panics if `world` is zero.
    pub fn ring(world: usize) -> Vec<TpGroup> {
        assert!(world > 0, "ring needs at least one rank");
        mpsc_world(world)
            .iter_mut()
            .map(|t| TpGroup::over_transport(t).expect("a fresh mpsc world opens every link"))
            .collect()
    }

    /// Builds one endpoint from pre-opened ring links. `tx`/`rx` must be
    /// `Some` whenever `world > 1`.
    pub(crate) fn from_links(
        rank: usize,
        world: usize,
        tx: Option<MsgTx<RingMsg>>,
        rx: Option<MsgRx<RingMsg>>,
    ) -> TpGroup {
        TpGroup {
            rank,
            world,
            next_tx: tx,
            prev_rx: rx,
            bytes: CommBytes::default(),
            ring_bytes: CommBytes::default(),
            tuning: RingTuning::default(),
            trace: None,
            coll: 0,
            active_coll: 0,
            stash: Vec::new(),
        }
    }

    /// Builds one endpoint of a ring spanning a transport's whole world:
    /// rank `r` sends to `(r + 1) % world` and receives from
    /// `(r − 1) % world` on the ring channel. Every rank of the
    /// transport's world must call this (the collectives benchmark's
    /// entry point for measuring rings over sockets).
    pub fn over_transport(transport: &mut dyn Transport) -> Result<TpGroup, TransportError> {
        let (rank, world) = (transport.rank(), transport.world());
        if world == 1 {
            return Ok(TpGroup::solo());
        }
        let tx = transport.open_send((rank + 1) % world, CHAN_RING)?;
        let rx = transport.open_recv((rank + world - 1) % world, CHAN_RING)?;
        Ok(TpGroup::from_links(
            rank,
            world,
            Some(MsgTx::new(tx)),
            Some(MsgRx::new(rx)),
        ))
    }

    /// A single-rank group: collectives degenerate to local arithmetic
    /// (matching the serial executor at `tp = 1`).
    pub fn solo() -> TpGroup {
        TpGroup::from_links(0, 1, None, None)
    }

    /// Attaches an audit-trace handle: every subsequent ring send/recv
    /// is recorded in the static analyzer's event vocabulary.
    pub(crate) fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Restarts collective numbering — the worker calls this at the top
    /// of each step so traced ordinals match the per-step static graph.
    pub(crate) fn reset_step(&mut self) {
        self.coll = 0;
    }

    /// Opens the next collective on this ring, fixing the ordinal that
    /// tags its traced messages.
    fn begin_collective(&mut self) {
        self.active_coll = self.coll;
        self.coll += 1;
    }

    /// Records one ring event when tracing is on: sends leave on this
    /// rank's link, receives arrive on the previous rank's.
    fn record(&self, dir: Dir, msg: MsgId, bytes: Option<usize>) {
        if let Some(trace) = &self.trace {
            let link = match dir {
                Dir::Send => self.rank,
                Dir::Recv => (self.rank + self.world - 1) % self.world,
            };
            let channel = ChannelId::Ring {
                stage: trace.stage(),
                link,
            };
            trace.record(dir, channel, msg, bytes);
        }
    }

    /// The one place a ring endpoint gives up on a peer that broke the
    /// protocol, naming this rank, the collective and message the
    /// schedule called for, and what arrived instead. Unreachable for
    /// any plan `actcomp check --comm` accepts.
    fn violation<T>(&self, want: MsgId, got: &RingMsg) -> ! {
        panic!(
            "ring protocol violation at tp rank {}/{}: expected {want} (payload type {}), \
             received {} carrying {}",
            self.rank,
            self.world,
            std::any::type_name::<T>(),
            got.id(self.active_coll),
            got.kind(),
        )
    }

    /// The one send site: meters, traces and ships `msg` to the next
    /// rank. The traced identity is read off the message itself, so the
    /// audit sees what is on the wire. Blocking time is charged to the
    /// `wire` phase.
    fn send(&mut self, msg: RingMsg, bytes: Option<usize>, timers: &mut PhaseTimers) {
        self.ring_bytes.wire += bytes.unwrap_or(0);
        self.record(Dir::Send, msg.id(self.active_coll), bytes);
        let tx = self.next_tx.as_mut().expect("ring sender");
        timed(&mut timers.wire_s, || {
            tx.send(&msg).expect("ring peer hung up");
        });
    }

    /// The one receive site: consumes the message the schedule names
    /// `want` from the previous rank, opened as the payload type the
    /// running collective moves. Chunk receives are selective: a chunk
    /// that arrives ahead of the wanted one is stashed. Anything else
    /// unexpected is a [protocol violation](TpGroup::violation).
    fn recv<T: FromRing>(&mut self, want: MsgId, timers: &mut PhaseTimers) -> T {
        // Consumption — not channel arrival — is the traced event, so
        // a stash hit records exactly like a direct receive.
        self.record(Dir::Recv, want, None);
        let coll = self.active_coll;
        let msg = match self.stash.iter().position(|m| m.id(coll) == want) {
            Some(pos) => self.stash.swap_remove(pos),
            None => loop {
                let rx = self.prev_rx.as_mut().expect("ring receiver");
                let msg = timed(&mut timers.wire_s, || rx.recv().expect("ring peer hung up"));
                if msg.id(coll) == want {
                    break msg;
                }
                match (want, msg) {
                    (MsgId::Chunk { .. }, early @ RingMsg::Chunk { .. }) => self.stash.push(early),
                    (_, other) => self.violation::<T>(want, &other),
                }
            },
        };
        T::from_ring(msg).unwrap_or_else(|other| self.violation::<T>(want, &other))
    }

    /// Sends one chunk of the collective in flight, metered at its
    /// actual wire bytes.
    fn send_chunk(&mut self, bcast: bool, idx: usize, data: ChunkData, timers: &mut PhaseTimers) {
        let bytes = data.wire_bytes();
        self.send(RingMsg::Chunk { bcast, idx, data }, Some(bytes), timers);
    }

    /// Receives chunk `(bcast, idx)` of the collective in flight.
    fn recv_chunk<C: FromRing>(&mut self, bcast: bool, idx: usize, timers: &mut PhaseTimers) -> C {
        let want = MsgId::Chunk {
            coll: self.active_coll,
            bcast,
            idx,
        };
        self.recv(want, timers)
    }

    /// The one chunk-ring interpreter: runs this rank's
    /// [`chunk_ring_steps`] for a chain-reduce → ring-broadcast
    /// collective over `chunks` chunks of `payload`.
    fn chunk_ring<P: RingPayload>(
        &mut self,
        payload: &mut P,
        chunks: usize,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) {
        self.begin_collective();
        let depth = self.tuning.pipeline_depth;
        for step in chunk_ring_steps(self.rank, self.world, chunks, depth) {
            match step {
                RingStep::Originate { idx } => {
                    let own = payload.make(idx, timers);
                    let chunk = payload.ship(own, ws);
                    self.send_chunk(false, idx, P::wrap(chunk), timers);
                }
                RingStep::Relay { idx } => {
                    let own = payload.make(idx, timers);
                    let acc = self.recv_chunk(false, idx, timers);
                    let sum = payload.fold(acc, own, timers);
                    self.send_chunk(false, idx, P::wrap(sum), timers);
                }
                RingStep::Turn { idx } => {
                    let own = payload.make(idx, timers);
                    let acc = self.recv_chunk(false, idx, timers);
                    let total = payload.fold(acc, own, timers);
                    if P::SHIP_TOTAL_FIRST {
                        self.send_chunk(true, idx, P::wrap(total.clone()), timers);
                        payload.consume(idx, &total, timers);
                        payload.retire(total, ws);
                    } else {
                        payload.consume(idx, &total, timers);
                        self.send_chunk(true, idx, P::wrap(total), timers);
                    }
                }
                RingStep::Deliver { idx, forward } => {
                    let total = self.recv_chunk(true, idx, timers);
                    payload.consume(idx, &total, timers);
                    if forward {
                        self.send_chunk(true, idx, P::wrap(total), timers);
                    } else {
                        payload.retire(total, ws);
                    }
                }
            }
        }
        debug_assert!(self.stash.is_empty(), "collective left chunks in the stash");
    }

    /// The one gather walk: passes one `own` payload per rank around
    /// the ring ([`gather_ring_steps`]) and hands every rank's payload
    /// — this rank's included — to `on_arrival(origin, payload, ..)`
    /// as soon as it needs no further forwarding, so the callback's
    /// work (a decode, say) overlaps the remaining wire hops. A gather
    /// is its own baseline: what it sends counts equally into both
    /// sides of [`TpGroup::ring_bytes`].
    fn gather_walk<T: GatherItem>(
        &mut self,
        own: T,
        timers: &mut PhaseTimers,
        mut on_arrival: impl FnMut(usize, T, &mut PhaseTimers),
    ) {
        self.begin_collective();
        let coll = self.active_coll;
        let sent_before = self.ring_bytes.wire;
        let mut held = (self.rank, own);
        for GatherHop { dir, origin } in gather_ring_steps(self.rank, self.world) {
            match dir {
                Dir::Send => {
                    let msg = RingMsg::Gather(origin, held.1.clone().wrap());
                    self.send(msg, held.1.metered(), timers);
                }
                Dir::Recv => {
                    on_arrival(held.0, held.1, timers);
                    held = (origin, self.recv(MsgId::Gather { coll, origin }, timers));
                }
            }
        }
        on_arrival(held.0, held.1, timers);
        self.ring_bytes.dense += self.ring_bytes.wire - sent_before;
    }

    /// All-gathers one payload per rank, returned indexed by origin.
    fn all_gather<T: GatherItem>(&mut self, own: T, timers: &mut PhaseTimers) -> Vec<T> {
        let mut slots: Vec<Option<T>> = (0..self.world).map(|_| None).collect();
        self.gather_walk(own, timers, |origin, item, _| slots[origin] = Some(item));
        slots
            .into_iter()
            .map(|s| s.expect("the gather walk visits every rank"))
            .collect()
    }

    /// Compressed all-reduce of this rank's `partial` with the partials
    /// the peer ranks are concurrently contributing.
    ///
    /// Mirrors the serial [`actcomp_mp::CompressedAllReduce`] bit for
    /// bit: a summable code is chain-reduced in rank order as one chunk
    /// and decoded once; non-summable messages are
    /// all-gathered, decoded as they arrive, and summed in rank order.
    /// Byte accounting uses the same formulas as the serial executor and
    /// accumulates into [`TpGroup::bytes`]; the whole call is also
    /// timed into `collective_s` (which overlaps the encode/wire/decode
    /// attribution rather than adding to it).
    pub fn compressed_all_reduce(
        &mut self,
        comp: &mut dyn Compressor,
        partial: &Tensor,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) -> Tensor {
        let t0 = Instant::now();
        let out = if self.world == 1 {
            // Solo: compress/decompress locally, zero bytes — identical
            // to the serial executor at tp = 1.
            let msg = timed(&mut timers.encode_s, || comp.compress(partial));
            timed(&mut timers.decode_s, || comp.decompress(&msg))
        } else if comp.summable() {
            self.summable_reduce(comp, partial, timers, ws)
        } else {
            self.gathered_reduce(comp, partial, timers)
        };
        timers.collective_s += t0.elapsed().as_secs_f64();
        out
    }

    /// Chain-reduce + broadcast of a summable compressor's code, as one
    /// chunk.
    fn summable_reduce(
        &mut self,
        comp: &mut dyn Compressor,
        partial: &Tensor,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) -> Tensor {
        let mut code = WholeCode {
            comp,
            partial,
            out: None,
            own_wire: 0,
        };
        self.chunk_ring(&mut code, 1, timers, ws);
        let WholeCode { out, own_wire, .. } = code;

        // Serial-matching accounting, and the gather-equivalent baseline
        // for the ring-vs-gather comparison.
        let p = self.world;
        (self.bytes).add(CommBytes::all_reduce(p, own_wire, partial.len() * 2));
        self.ring_bytes.dense += (p - 1) * own_wire;
        out.expect("every chunk was consumed")
    }

    /// All-gather reduce for non-summable codecs, decoding each message
    /// as it arrives so decode overlaps the remaining wire hops (the
    /// own decode runs while peers encode and ship).
    fn gathered_reduce(
        &mut self,
        comp: &mut dyn Compressor,
        partial: &Tensor,
        timers: &mut PhaseTimers,
    ) -> Tensor {
        let p = self.world;
        let msg = timed(&mut timers.encode_s, || comp.compress(partial));
        let mut gathered_bytes = 0;
        let mut decs: Vec<Option<Tensor>> = (0..p).map(|_| None).collect();
        self.gather_walk(msg, timers, |origin, code: Compressed, timers| {
            gathered_bytes += code.wire_bytes(2);
            decs[origin] = Some(timed(&mut timers.decode_s, || comp.decompress(&code)));
        });
        let out = timed(&mut timers.decode_s, || {
            rank_order_sum(
                decs.into_iter()
                    .map(|d| d.expect("gather visited every rank")),
            )
        });
        self.bytes.add(CommBytes {
            wire: gathered_bytes * (p - 1) / p,
            dense: 2 * (p - 1) * (partial.len() * 2) / p,
        });
        out
    }

    /// Dense (uncompressed) ring all-reduce over row chunks: the serial
    /// executor's [`actcomp_mp::wire_sum`], rank for rank and bit for bit, with every
    /// partial sum crossing the wire as bfloat16. Nothing is counted
    /// into [`TpGroup::bytes`] (callers meter what the serial executor
    /// meters); actual traffic lands in [`TpGroup::ring_bytes`].
    ///
    /// Received chunk buffers are reused in place along the chain (no
    /// full-tensor clone per hop) and recycled into `ws` when consumed.
    pub fn dense_all_reduce(
        &mut self,
        partial: &Tensor,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) -> Tensor {
        if self.world == 1 || partial.is_empty() {
            // Callers recycle the result into `ws`: hand out its buffer.
            return ws.lease_copy(partial);
        }
        let t0 = Instant::now();
        let (rows, width) = rows_width(partial);
        let plan = self.tuning.plan(rows);
        let mut dense = DenseRows {
            data: partial.as_slice(),
            chunks: RowChunks::new(&plan, width),
            out: ws.lease_tensor(partial.shape().clone()),
        };
        self.chunk_ring(&mut dense, plan.len(), timers, ws);
        timers.collective_s += t0.elapsed().as_secs_f64();
        self.ring_bytes.dense += (self.world - 1) * partial.len() * 2;
        dense.out
    }

    /// Runs the codec backward for a [`TpGroup::compressed_all_reduce`],
    /// once over the whole `dy`, as the reduce encoded the whole partial.
    pub fn compressed_backward(
        &self,
        comp: &mut dyn Compressor,
        dy: &Tensor,
        timers: &mut PhaseTimers,
    ) -> Tensor {
        timed(&mut timers.encode_s, || comp.backward(dy))
    }

    /// All-reduces `comp`'s parameter gradients across the group and
    /// installs the sum locally — the threaded counterpart of
    /// [`actcomp_mp::CompressedAllReduce::sync_param_grads`]. Summation
    /// runs in rank order, so replicated auto-encoder parameters stay
    /// bit-identical across ranks. A compressor without parameters
    /// returns at once: every rank of the group holds the same kind of
    /// compressor, so all skip the gather together.
    pub fn sync_param_grads(&mut self, comp: &mut dyn Compressor, timers: &mut PhaseTimers) {
        let mut own: Vec<Tensor> = Vec::new();
        comp.visit_params(&mut |p| own.push(p.grad.clone()));
        if own.is_empty() {
            return;
        }
        let gathered = self.all_gather(own, timers);
        let sums = timed(&mut timers.decode_s, || {
            let mut ranks = gathered.into_iter();
            let mut sums = ranks.next().expect("at least one rank");
            for grads in ranks {
                for (sum, grad) in sums.iter_mut().zip(&grads) {
                    sum.add_assign(grad);
                }
            }
            sums
        });
        let mut sums = sums.into_iter();
        comp.visit_params(&mut |p| p.grad = sums.next().expect("one sum per parameter"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_msg, encode_msg};
    use actcomp_compress::{Identity, TopK};
    use actcomp_mp::wire_sum;
    use actcomp_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn solo_reduce_matches_serial_single_worker() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let x = init::randn(&mut rng, [3, 8], 1.0);
        let mut g = TpGroup::solo();
        let mut comp = Identity::new();
        let mut timers = PhaseTimers::default();
        let mut ws = Workspace::new();
        let out = g.compressed_all_reduce(&mut comp, &x, &mut timers, &mut ws);
        assert_eq!(out, x);
        assert_eq!(g.bytes.wire, 0);
    }

    #[test]
    fn threaded_identity_reduce_sums_in_rank_order() {
        // The identity code is summed exactly; dense rows travel as
        // bfloat16 partial sums. Both folds run in rank order.
        let world = 4;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let parts: Vec<Tensor> = (0..world)
            .map(|_| init::randn(&mut rng, [2, 8], 1.0))
            .collect();
        let exact = rank_order_sum(parts.iter().cloned());
        let rounded = wire_sum(parts.iter().cloned());
        assert_ne!(exact, rounded, "the dense ring must round");
        let groups = TpGroup::ring(world);
        let handles: Vec<_> = groups
            .into_iter()
            .zip(parts)
            .map(|(mut g, p)| {
                std::thread::spawn(move || {
                    let mut comp = Identity::new();
                    let mut timers = PhaseTimers::default();
                    let mut ws = Workspace::new();
                    let code = g.compressed_all_reduce(&mut comp, &p, &mut timers, &mut ws);
                    let dense = g.dense_all_reduce(&p, &mut timers, &mut ws);
                    (code, dense, g.bytes)
                })
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("rank"))
            .collect();
        for (code, dense, bytes) in &results {
            assert_eq!(code, &exact, "exact rank-order sum");
            assert_eq!(dense, &rounded, "rounded rank-order sum");
            assert_eq!(bytes.wire, bytes.dense, "identity moves dense bytes");
        }
    }

    #[test]
    fn dense_chunks_travel_in_two_bytes_and_decode_exactly() {
        let mut rows: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) * 0.37 + 0.01).collect();
        wire_round(&mut rows);
        let frame = encode_msg(&RingMsg::Chunk {
            bcast: true,
            idx: 3,
            data: ChunkData::Dense(rows.clone()),
        });
        // Tag, flag, index, data tag and length, then two bytes a value.
        assert_eq!(frame.len(), 19 + 2 * rows.len());
        match decode_msg::<RingMsg>(&frame).expect("decode") {
            RingMsg::Chunk {
                data: ChunkData::Dense(back),
                ..
            } => assert!(back
                .iter()
                .zip(&rows)
                .all(|(a, b)| a.to_bits() == b.to_bits())),
            other => panic!("decoded {}", other.kind()),
        }
    }

    #[test]
    fn mismatched_collectives_report_one_protocol_violation() {
        // Rank 0 gathers a Top-K code while rank 1 runs a dense reduce:
        // rank 1 meets a gather hop where its schedule calls for a chunk.
        let x = Tensor::zeros(vec![2, 4]);
        let mut groups = TpGroup::ring(2);
        let mut g1 = groups.pop().expect("rank 1");
        let mut g0 = groups.pop().expect("rank 0");
        let y = x.clone();
        let peer = std::thread::spawn(move || {
            // Ends with "ring peer hung up" once rank 1 is gone.
            let mut comp = TopK::new(2);
            g0.compressed_all_reduce(
                &mut comp,
                &y,
                &mut PhaseTimers::default(),
                &mut Workspace::new(),
            )
        });
        let victim = std::thread::spawn(move || {
            g1.dense_all_reduce(&x, &mut PhaseTimers::default(), &mut Workspace::new())
        });
        let panic = victim
            .join()
            .expect_err("rank 1 must refuse the gather hop");
        let text = panic.downcast_ref::<String>().expect("formatted panic");
        for part in [
            "ring protocol violation at tp rank 1/2",
            "expected chunk(coll 0, reduce, idx 0)",
            "received gather(coll 0, origin 0) carrying a code",
        ] {
            assert!(text.contains(part), "missing {part:?} in {text:?}");
        }
        assert!(peer.join().is_err(), "rank 0 loses its peer");
    }

    #[test]
    fn ring_plan_tiles_rows_for_any_chunk_size() {
        for rows in [1usize, 3, 4, 7, 64, 65] {
            for chunk_rows in [None, Some(1), Some(3), Some(64), Some(1000)] {
                let tuning = RingTuning {
                    chunk_rows,
                    pipeline_depth: 4,
                };
                let plan = tuning.plan(rows);
                assert_eq!(plan.iter().sum::<usize>(), rows, "{rows} {chunk_rows:?}");
                assert!(plan.iter().all(|&c| c > 0));
            }
        }
    }
}
