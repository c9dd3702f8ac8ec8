//! Ring collectives for one tensor-parallel group, written once for
//! both executors.
//!
//! Each worker owns an [`Endpoint`] of a ring; endpoint `t` sends to
//! `(t + 1) % p` and receives from `(t − 1) % p` over a [`Link`]. One
//! interpreter runs every collective, and two drivers run the
//! interpreter: a runtime rank drives its own endpoint over transport
//! channels, blocking on each receive; the serial executor
//! ([`crate::InProcess`]) holds all `p` endpoints, linked by in-memory
//! [`Queue`]s, and runs them round-robin in one thread. Both therefore
//! perform the same arithmetic in the same order, and agree bit for bit
//! by construction.
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
//!    bfloat16 whenever they leave a rank, and the total is rounded
//!    before rank `p−1` consumes it, so the result is exactly
//!    [`wire_sum`](crate::wire_sum), the rounded left fold in rank order,
//!    on every rank.
//! 2. *Broadcast* (`p−1 → 0 → 1 → … → p−2`): the root forwards each
//!    finished chunk around the ring; every rank copies it into its
//!    output.
//!
//! A textbook reduce-scatter + all-gather would be cheaper in maximum
//! per-rank traffic, but it reduces every chunk along a *different* rank
//! walk, so its floating-point association depends on the chunk's owner.
//! The chain form keeps the fold while still moving at most `2N`
//! elements per rank (versus the gather-based `(p−1)N`, strictly fewer
//! for `p ≥ 3`) and `2(p−1)N` in aggregate across links, which is
//! bandwidth-optimal for an all-reduce.
//!
//! # One schedule, one interpreter, two drivers
//!
//! The order in which every rank sends, receives and works on chunks is
//! the step list [`chunk_ring_steps`] (and [`gather_ring_steps`] for
//! whole-message gathers). The interpreter runs an endpoint's list one
//! step at a time, generic over what a chunk carries (dense rows or a
//! whole code), until the list ends or the next step's message is
//! neither queued nor stashed; `actcomp check --comm` proves matching,
//! delivery order and deadlock-freedom on the very same lists.
//!
//! # Chunking and overlap
//!
//! Tensors are split into row chunks ([`RingTuning`]); chunk `i+1` is
//! being copied while chunk `i` is on the wire and chunk `i−1` is being
//! summed downstream. Rank 0 paces the pipeline: it keeps at most
//! `pipeline_depth` reduce chunks in flight beyond the broadcasts it has
//! consumed, so memory stays bounded without blocking sends. Because
//! every rank sends its reduce-phase chunks in index order and
//! broadcast forwards in index order, each link's FIFO matches the
//! receiver's processing order up to the reduce/broadcast interleave,
//! which a small stash absorbs.
//!
//! A summable codec's code is encoded once over the whole tensor and
//! chain-reduced as a single chunk with [`Compressed::sum`], preserving
//! whole-tensor semantics (the auto-encoder's weight gradients summed
//! over every row, error-feedback residuals). Non-summable messages
//! all-gather, each decoded as it arrives so decode overlaps the
//! remaining wire hops; the final summation stays in rank order.

mod msg;
mod steps;

pub use msg::{ChunkData, GatherPayload, RingMsg};
pub use steps::{
    chunk_ring_steps, gather_ring_steps, ring_chunk_plan, Dir, GatherHop, MsgId, RingStep,
    RingTuning, DEFAULT_CHUNKS, DEFAULT_PIPELINE_DEPTH,
};

use crate::reduce::{rank_order_sum, wire_round, CommBytes};
use crate::timers::{timed, PhaseTimers};
use actcomp_compress::{Compressed, Compressor};
use actcomp_tensor::{Tensor, Workspace};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

/// An endpoint's two ring links: to the next rank and from the
/// previous one.
pub trait Link {
    /// Ships `msg` to the next rank.
    fn send(&mut self, msg: RingMsg, timers: &mut PhaseTimers);
    /// The next message from the previous rank: `None` when nothing is
    /// queued. A link that blocks until a message arrives never returns
    /// `None`.
    fn recv(&mut self, timers: &mut PhaseTimers) -> Option<RingMsg>;
    /// Records one ring event for an audit trace: this endpoint sent
    /// `msg` (metered at `bytes`) or consumed it. Records nothing by
    /// default.
    fn record(&mut self, _dir: Dir, _msg: MsgId, _bytes: Option<usize>) {}
}

/// The serial executor's link: in-memory queues that pass each message
/// by move, with no wire encoding. Never blocks.
#[derive(Debug)]
pub struct Queue {
    tx: Sender<RingMsg>,
    rx: Receiver<RingMsg>,
}

impl Link for Queue {
    fn send(&mut self, msg: RingMsg, _: &mut PhaseTimers) {
        self.tx
            .send(msg)
            .expect("the serial ring holds every endpoint");
    }

    fn recv(&mut self, _: &mut PhaseTimers) -> Option<RingMsg> {
        self.rx.try_recv().ok()
    }
}

/// One worker's endpoint of a tensor-parallel ring of `world` workers.
///
/// All collectives are deterministic: reductions always fold in rank
/// order `0..world` with a chunk plan derived purely from shapes and
/// [`RingTuning`], so the result is independent of thread scheduling,
/// of the driver and of the chunk plan itself.
pub struct Endpoint<L> {
    /// This worker's index within the group.
    pub rank: usize,
    /// Group size.
    pub world: usize,
    /// Cumulative reduce traffic, per worker: a forward sum's ring
    /// all-reduce is metered at `2(p−1)/p` of its message, a gathered
    /// one at the `(p−1)/p` share of every worker's message; dense
    /// backward reduces count nothing.
    pub bytes: CommBytes,
    /// Ring-vs-gather accounting: `wire` is the payload bytes this
    /// worker *actually sent* in collectives (two a dense element, codes
    /// at their fp16-equivalent size); `dense` is what a whole-message
    /// all-gather of the same collectives would have sent per worker.
    /// For gathered collectives the two are equal; for chunk-ring
    /// collectives `wire ≤ dense`, strictly less for `p ≥ 3`.
    pub ring_bytes: CommBytes,
    /// Chunking/pipelining knobs ([`RingTuning::default`] unless set).
    /// All endpoints of one ring must agree.
    pub tuning: RingTuning,
    /// The endpoint's links to its ring neighbours.
    pub link: L,
    /// Whether this endpoint's caller reads a collective's result. The
    /// serial executor reads only endpoint 0's, so its others forward
    /// and keep their own codes but skip the copy-out and the decodes.
    pub(crate) output: bool,
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

impl<L> std::fmt::Debug for Endpoint<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Endpoint({}/{})", self.rank, self.world)
    }
}

impl Endpoint<Queue> {
    /// The endpoints of a ring over `world` workers in one thread,
    /// linked by in-memory queues: the serial executor's ring.
    pub(crate) fn serial_ring(world: usize) -> Vec<Endpoint<Queue>> {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..world).map(|_| channel()).unzip();
        (rxs.into_iter().enumerate())
            .map(|(r, rx)| {
                let tx = txs[(r + 1) % world].clone();
                Endpoint::new(r, world, Queue { tx, rx })
            })
            .collect()
    }
}

impl<L: Link> Endpoint<L> {
    /// Endpoint `rank` of a ring of `world` workers over `link`.
    pub fn new(rank: usize, world: usize, link: L) -> Self {
        Endpoint {
            rank,
            world,
            bytes: CommBytes::default(),
            ring_bytes: CommBytes::default(),
            tuning: RingTuning::default(),
            link,
            output: true,
            coll: 0,
            active_coll: 0,
            stash: Vec::new(),
        }
    }

    /// Restarts collective numbering: a rank calls this at the top of
    /// each step so traced ordinals match the per-step static graph.
    pub fn reset_step(&mut self) {
        self.coll = 0;
    }

    /// Compressed all-reduce of this endpoint's `partial` with the
    /// partials its peers are concurrently contributing: a summable
    /// code is chain-reduced in rank order as one chunk and decoded
    /// once; non-summable messages are all-gathered, decoded as they
    /// arrive, and summed in rank order. A received code is decoded
    /// only if it has the shape of this rank's own and `comp`
    /// [fits](Compressor::fits) it. Traffic accumulates into
    /// [`Endpoint::bytes`] and [`Endpoint::ring_bytes`]; the whole call
    /// is also timed into `collective_s`. The own code is dropped: a
    /// caller that runs the codec's backward sums through
    /// [`crate::Ring`], which keeps it.
    pub fn compressed_all_reduce(
        &mut self,
        comp: &mut dyn Compressor,
        partial: &Tensor,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) -> Tensor {
        let ring = std::slice::from_mut(self);
        let mut out =
            compressed_all_reduce(ring, vec![comp], std::slice::from_ref(partial), timers, ws);
        let sum = out.pop().expect("one endpoint").0;
        sum.expect("a standalone endpoint reads its sum")
    }

    /// Dense (uncompressed) ring all-reduce over row chunks:
    /// [`wire_sum`](crate::wire_sum) of the partials, rank for rank and
    /// bit for bit, with every partial sum crossing the wire as
    /// bfloat16. Nothing is counted into [`Endpoint::bytes`] (callers
    /// meter what they meter); actual traffic lands in
    /// [`Endpoint::ring_bytes`]. The result is leased from `ws`.
    pub fn dense_all_reduce(
        &mut self,
        partial: &Tensor,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) -> Tensor {
        let ring = std::slice::from_mut(self);
        let mut out = dense_all_reduce(ring, std::slice::from_ref(partial), timers, ws);
        let sum = out.pop().expect("one endpoint");
        sum.expect("a standalone endpoint reads its sum")
    }

    /// All-reduces `comp`'s parameter gradients across the group and
    /// installs the sum locally, in rank order, so replicated
    /// auto-encoder parameters stay bit-identical across workers.
    pub fn sync_param_grads(&mut self, comp: &mut dyn Compressor, timers: &mut PhaseTimers) {
        sync_param_grads(std::slice::from_mut(self), vec![comp], timers);
    }

    /// The one place an endpoint gives up on a peer that broke the
    /// protocol, naming this rank, the message the schedule called for
    /// and what arrived instead: another message, another payload kind,
    /// or a payload shaped unlike this rank's own. Unreachable for any
    /// plan `actcomp check --comm` accepts.
    fn violation(&self, want: MsgId, got: &RingMsg) -> ! {
        panic!(
            "ring protocol violation at tp rank {}/{}: expected {want} shaped like this \
             rank's own, received {} carrying {}",
            self.rank,
            self.world,
            got.id(self.active_coll),
            got.kind(),
        )
    }

    /// The one send site: meters, records and ships `msg` to the next
    /// rank. The recorded identity is read off the message itself.
    fn send(&mut self, msg: RingMsg, bytes: Option<usize>, timers: &mut PhaseTimers) {
        self.ring_bytes.wire += bytes.unwrap_or(0);
        self.link.record(Dir::Send, msg.id(self.active_coll), bytes);
        self.link.send(msg, timers);
    }

    /// Sends one chunk of the collective in flight, metered at its
    /// actual wire bytes: two a dense element, and the fp16-equivalent
    /// size of a code.
    fn send_chunk(&mut self, bcast: bool, idx: usize, data: ChunkData, timers: &mut PhaseTimers) {
        let bytes = match &data {
            ChunkData::Dense(rows) => rows.len() * 2,
            ChunkData::Code(code) => code.wire_bytes(2),
        };
        self.send(RingMsg::Chunk { bcast, idx, data }, Some(bytes), timers);
    }

    /// The one receive site: consumes the message the schedule names
    /// `want` from the previous rank, or returns `None` while it has not
    /// arrived. Chunk receives are selective: a chunk that arrives ahead
    /// of the wanted one is stashed. Anything else is a
    /// [violation](Endpoint::violation); so is a payload the caller's
    /// `open` refuses, before anything uses it.
    fn recv<T>(
        &mut self,
        want: MsgId,
        open: impl FnOnce(RingMsg) -> Result<T, RingMsg>,
        timers: &mut PhaseTimers,
    ) -> Option<T> {
        let coll = self.active_coll;
        let msg = match self.stash.iter().position(|m| m.id(coll) == want) {
            Some(pos) => self.stash.swap_remove(pos),
            None => loop {
                let msg = self.link.recv(timers)?;
                if msg.id(coll) == want {
                    break msg;
                }
                match (want, msg) {
                    (MsgId::Chunk { .. }, early @ RingMsg::Chunk { .. }) => self.stash.push(early),
                    (_, other) => self.violation(want, &other),
                }
            },
        };
        // Consumption — not channel arrival — is the recorded event, so
        // a stash hit records exactly like a direct receive.
        self.link.record(Dir::Recv, want, None);
        Some(open(msg).unwrap_or_else(|other| self.violation(want, &other)))
    }
}

/// What a chunk ring moves — dense rows or a whole code — as the
/// local operations the [`RingStep`]s of a collective call for: make
/// the own chunk, fold a received partial sum into it, consume a total.
trait RingPayload {
    /// A chunk as it travels the ring.
    type Chunk: Clone;
    /// This rank's own contribution to one chunk.
    type Own;
    /// Whether the last rank ships a finished chunk *before* consuming
    /// it (at the price of a copy), so the peers' work on it overlaps
    /// its own.
    const SHIP_TOTAL_FIRST: bool;
    /// The chunk as wire data.
    fn wrap(chunk: Self::Chunk) -> ChunkData;
    /// A received message as chunk `idx`, or the message back unless it
    /// carries this payload's kind at the size of this rank's own.
    fn open(&self, idx: usize, msg: RingMsg) -> Result<Self::Chunk, RingMsg>;
    /// Makes this rank's contribution to chunk `idx`. Called before the
    /// receive of the same step, so an encode overlaps the upstream
    /// chain's work.
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
    /// The total, copied out chunk by chunk; `None` on an endpoint whose
    /// result nobody reads.
    out: Option<Tensor>,
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

    fn open(&self, idx: usize, msg: RingMsg) -> Result<Vec<f32>, RingMsg> {
        match msg {
            RingMsg::Chunk {
                data: ChunkData::Dense(rows),
                ..
            } if rows.len() == self.chunks.elems(idx).len() => Ok(rows),
            other => Err(other),
        }
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
        if let Some(out) = self.out.as_mut() {
            timed(&mut timers.decode_s, || {
                out.as_mut_slice()[range].copy_from_slice(total);
            });
        }
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
    /// The code this rank made: every received code must have its
    /// shape, and the caller keeps it for the codec's backward.
    own: Option<Compressed>,
    /// Whether the total is decoded ([`Endpoint::output`]).
    decode: bool,
    /// The decoded total, once consumed.
    out: Option<Tensor>,
}

impl RingPayload for WholeCode<'_> {
    type Chunk = Compressed;
    type Own = Compressed;
    // A code is cheap to copy and slow to decode: ship it first.
    const SHIP_TOTAL_FIRST: bool = true;

    fn wrap(chunk: Compressed) -> ChunkData {
        ChunkData::Code(chunk)
    }

    fn open(&self, _idx: usize, msg: RingMsg) -> Result<Compressed, RingMsg> {
        let own = self
            .own
            .as_ref()
            .expect("a rank makes its code before receiving");
        match msg {
            RingMsg::Chunk {
                data: ChunkData::Code(code),
                ..
            } if code.shape() == own.shape() && self.comp.fits(&code) => Ok(code),
            other => Err(other),
        }
    }

    fn make(&mut self, _idx: usize, timers: &mut PhaseTimers) -> Compressed {
        let code = timed(&mut timers.encode_s, || self.comp.compress(self.partial));
        self.own = Some(code.clone());
        code
    }

    fn ship(&mut self, own: Compressed, _ws: &mut Workspace) -> Compressed {
        own
    }

    fn fold(&mut self, acc: Compressed, own: Compressed, timers: &mut PhaseTimers) -> Compressed {
        timed(&mut timers.decode_s, || acc.sum(&own))
    }

    fn consume(&mut self, _idx: usize, total: &Compressed, timers: &mut PhaseTimers) {
        if self.decode {
            self.out = Some(timed(&mut timers.decode_s, || self.comp.decompress(total)));
        }
    }
}

/// How far one endpoint's part of a collective got in one turn.
#[derive(Debug, PartialEq, Eq)]
enum Run {
    /// Its step list is finished.
    Done,
    /// Its next step's message has not arrived; `ran` says whether any
    /// step ran before it.
    Blocked { ran: bool },
}

/// One endpoint's part of a collective, run one step at a time.
trait Program {
    /// Runs steps on `ep` until the list ends or the next step's
    /// message is neither queued nor stashed.
    fn advance<L: Link>(
        &mut self,
        ep: &mut Endpoint<L>,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) -> Run;
}

/// Runs one collective: opens it on every endpoint, builds each one's
/// program from its input, and runs `progs[i]` on `eps[i]`
/// round-robin, each until it finishes or waits. A rank holds one
/// endpoint whose link blocks, so its program runs to the end in its
/// first turn; the serial executor holds all `p` and takes turns in one
/// thread. A full pass in which no endpoint runs a step would wait
/// forever: it panics, naming the blocked ranks. The comm-protocol
/// proof shows that never happens for the step lists the ring runs.
/// Returns the finished programs.
fn run<L: Link, P: Program, I>(
    eps: &mut [Endpoint<L>],
    inputs: impl IntoIterator<Item = I>,
    mut make: impl FnMut(&Endpoint<L>, I, &mut PhaseTimers, &mut Workspace) -> P,
    timers: &mut PhaseTimers,
    ws: &mut Workspace,
) -> Vec<P> {
    for ep in eps.iter_mut() {
        (ep.active_coll, ep.coll) = (ep.coll, ep.coll + 1);
    }
    let mut progs: Vec<P> = (eps.iter().zip(inputs))
        .map(|(ep, input)| make(ep, input, timers, ws))
        .collect();
    loop {
        let (mut waiting, mut ran) = (false, false);
        for (ep, prog) in eps.iter_mut().zip(progs.iter_mut()) {
            if let Run::Blocked { ran: r } = prog.advance(ep, timers, ws) {
                waiting = true;
                ran |= r;
            }
        }
        if !waiting {
            break;
        }
        if !ran {
            let blocked: Vec<usize> = (eps.iter_mut().zip(progs.iter_mut()))
                .filter_map(|(ep, prog)| {
                    (prog.advance(ep, timers, ws) != Run::Done).then_some(ep.rank)
                })
                .collect();
            panic!("ring stalled: tp ranks {blocked:?} wait for messages no rank will send");
        }
    }
    for ep in eps {
        debug_assert!(ep.stash.is_empty(), "collective left chunks in the stash");
    }
    progs
}

/// An endpoint's part of a chain-reduce → ring-broadcast collective:
/// its [`chunk_ring_steps`] over `payload`.
struct ChunkRing<P: RingPayload> {
    payload: P,
    steps: Vec<RingStep>,
    at: usize,
    /// The own contribution to the chunk the current step waits for.
    own: Option<P::Own>,
}

impl<P: RingPayload> ChunkRing<P> {
    fn new<L>(ep: &Endpoint<L>, payload: P, chunks: usize) -> Self {
        let depth = ep.tuning.pipeline_depth;
        let steps = chunk_ring_steps(ep.rank, ep.world, chunks, depth);
        ChunkRing {
            payload,
            steps,
            at: 0,
            own: None,
        }
    }
}

impl<P: RingPayload> Program for ChunkRing<P> {
    fn advance<L: Link>(
        &mut self,
        ep: &mut Endpoint<L>,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) -> Run {
        let mut ran = false;
        while let Some(&step) = self.steps.get(self.at) {
            let p = &mut self.payload;
            let coll = ep.active_coll;
            match step {
                RingStep::Originate { idx } => {
                    let own = p.make(idx, timers);
                    let chunk = p.ship(own, ws);
                    ep.send_chunk(false, idx, P::wrap(chunk), timers);
                }
                RingStep::Relay { idx } | RingStep::Turn { idx } => {
                    let own = match self.own.take() {
                        Some(own) => own,
                        None => p.make(idx, timers),
                    };
                    let want = MsgId::Chunk {
                        coll,
                        bcast: false,
                        idx,
                    };
                    let Some(acc) = ep.recv(want, |m| p.open(idx, m), timers) else {
                        self.own = Some(own);
                        return Run::Blocked { ran };
                    };
                    let total = p.fold(acc, own, timers);
                    if let RingStep::Relay { .. } = step {
                        ep.send_chunk(false, idx, P::wrap(total), timers);
                    } else if P::SHIP_TOTAL_FIRST {
                        ep.send_chunk(true, idx, P::wrap(total.clone()), timers);
                        p.consume(idx, &total, timers);
                        p.retire(total, ws);
                    } else {
                        p.consume(idx, &total, timers);
                        ep.send_chunk(true, idx, P::wrap(total), timers);
                    }
                }
                RingStep::Deliver { idx, forward } => {
                    let want = MsgId::Chunk {
                        coll,
                        bcast: true,
                        idx,
                    };
                    let Some(total) = ep.recv(want, |m| p.open(idx, m), timers) else {
                        return Run::Blocked { ran };
                    };
                    p.consume(idx, &total, timers);
                    if forward {
                        ep.send_chunk(true, idx, P::wrap(total), timers);
                    } else {
                        p.retire(total, ws);
                    }
                }
            }
            self.at += 1;
            ran = true;
        }
        Run::Done
    }
}

/// An endpoint's part of a whole-message all-gather: its
/// [`gather_ring_steps`], handing every rank's payload — its own
/// included — to `arrive(origin, payload, ..)` as soon as it needs no
/// further forwarding, so the callback's work (a decode, say) overlaps
/// the remaining wire hops. A gather is its own baseline: what it sends
/// counts equally into both sides of [`Endpoint::ring_bytes`].
struct GatherWalk<'c, F> {
    hops: Vec<GatherHop>,
    at: usize,
    /// The payload last received (the own one first) and its origin,
    /// handed to `arrive` at the next receive or at the end.
    held: Option<(usize, GatherPayload)>,
    /// A copy of the own payload, which every received one must
    /// [fit](GatherPayload::fits) under `codec`.
    own: GatherPayload,
    codec: &'c dyn Compressor,
    sent_before: usize,
    arrive: F,
}

impl<'c, F> GatherWalk<'c, F> {
    fn new<L>(ep: &Endpoint<L>, own: GatherPayload, codec: &'c dyn Compressor, arrive: F) -> Self {
        GatherWalk {
            hops: gather_ring_steps(ep.rank, ep.world),
            at: 0,
            held: Some((ep.rank, own.clone())),
            own,
            codec,
            sent_before: ep.ring_bytes.wire,
            arrive,
        }
    }
}

impl<F: FnMut(usize, GatherPayload, &mut PhaseTimers)> Program for GatherWalk<'_, F> {
    fn advance<L: Link>(
        &mut self,
        ep: &mut Endpoint<L>,
        timers: &mut PhaseTimers,
        _ws: &mut Workspace,
    ) -> Run {
        let mut ran = false;
        while let Some(&GatherHop { dir, origin }) = self.hops.get(self.at) {
            match dir {
                Dir::Send => {
                    let (_, item) = self.held.as_ref().expect("a gather forwards what it holds");
                    let bytes = item.metered();
                    ep.send(RingMsg::Gather(origin, item.clone()), bytes, timers);
                }
                Dir::Recv => {
                    if let Some((from, item)) = self.held.take() {
                        (self.arrive)(from, item, timers);
                    }
                    let (want, own, codec) = (
                        MsgId::Gather {
                            coll: ep.active_coll,
                            origin,
                        },
                        &self.own,
                        self.codec,
                    );
                    let open = |msg| match msg {
                        RingMsg::Gather(_, item) if item.fits(own, codec) => Ok(item),
                        other => Err(other),
                    };
                    let Some(item) = ep.recv(want, open, timers) else {
                        return Run::Blocked { ran };
                    };
                    self.held = Some((origin, item));
                }
            }
            self.at += 1;
            ran = true;
        }
        if let Some((from, item)) = self.held.take() {
            (self.arrive)(from, item, timers);
            ep.ring_bytes.dense += ep.ring_bytes.wire - self.sent_before;
        }
        Run::Done
    }
}

/// [`Endpoint::compressed_all_reduce`] on every endpoint of `eps`, each
/// with its own compressor and partial; returns each one's sum (`None`
/// where no one reads it, [`Endpoint::output`]) and the code it sent,
/// which the codec's backward reads.
pub(crate) fn compressed_all_reduce<'a, L: Link>(
    eps: &mut [Endpoint<L>],
    comps: Vec<&'a mut dyn Compressor>,
    partials: &'a [Tensor],
    timers: &mut PhaseTimers,
    ws: &mut Workspace,
) -> Vec<(Option<Tensor>, Compressed)> {
    let t0 = Instant::now();
    let p = eps[0].world;
    // A solo ring gathers its own code: compressed and decoded locally.
    let outs = if p > 1 && comps[0].summable() {
        let code = |ep: &Endpoint<L>, (comp, partial), _: &mut _, _: &mut _| {
            let (own, out, decode) = (None, None, ep.output);
            ChunkRing::new(
                ep,
                WholeCode {
                    comp,
                    partial,
                    own,
                    decode,
                    out,
                },
                1,
            )
        };
        let progs = run(eps, comps.into_iter().zip(partials), code, timers, ws);
        (eps.iter_mut().zip(progs))
            .map(|(ep, prog)| {
                let WholeCode {
                    own, out, partial, ..
                } = prog.payload;
                let own = own.expect("every rank made its code");
                let own_wire = own.wire_bytes(2);
                ep.bytes
                    .add(CommBytes::all_reduce(p, own_wire, partial.len() * 2));
                ep.ring_bytes.dense += (p - 1) * own_wire;
                (out, own)
            })
            .collect()
    } else {
        gathered_reduce(eps, comps, partials, timers, ws)
    };
    timers.collective_s += t0.elapsed().as_secs_f64();
    outs
}

/// All-gather reduce for non-summable codecs, decoding each message as
/// it arrives so decode overlaps the remaining wire hops (the own
/// decode runs while peers encode and ship). Returns each endpoint's
/// sum (`None`, and nothing decoded, where no one reads it) and own
/// code.
fn gathered_reduce<L: Link>(
    eps: &mut [Endpoint<L>],
    comps: Vec<&mut dyn Compressor>,
    partials: &[Tensor],
    timers: &mut PhaseTimers,
    ws: &mut Workspace,
) -> Vec<(Option<Tensor>, Compressed)> {
    let p = eps[0].world;
    let mut decoded: Vec<(Vec<Option<Tensor>>, usize)> = (eps.iter())
        .map(|_| ((0..p).map(|_| None).collect(), 0))
        .collect();
    let inputs = comps.into_iter().zip(partials).zip(decoded.iter_mut());
    let progs = run(
        eps,
        inputs,
        |ep, ((comp, partial), (decs, gathered)), t, _| {
            let own = GatherPayload::Code(timed(&mut t.encode_s, || comp.compress(partial)));
            let (comp, decode): (&dyn Compressor, _) = (comp, ep.output);
            GatherWalk::new(ep, own, comp, move |origin, item, t: &mut PhaseTimers| {
                let GatherPayload::Code(code) = item else {
                    unreachable!("a gathered payload fits the own code")
                };
                *gathered += code.wire_bytes(2);
                if decode {
                    decs[origin] = Some(timed(&mut t.decode_s, || comp.decompress(&code)));
                }
            })
        },
        timers,
        ws,
    );
    let owns = progs.into_iter().map(|prog| match prog.own {
        GatherPayload::Code(code) => code,
        GatherPayload::Grads(_) => unreachable!("a reduce gathers codes"),
    });
    let owns: Vec<Compressed> = owns.collect();
    (eps.iter_mut().zip(decoded).zip(partials).zip(owns))
        .map(|(((ep, (decs, gathered)), partial), own)| {
            ep.bytes.add(CommBytes {
                wire: gathered * (p - 1) / p,
                dense: 2 * (p - 1) * (partial.len() * 2) / p,
            });
            let sum = ep.output.then(|| {
                let decs = decs
                    .into_iter()
                    .map(|d| d.expect("gather visited every rank"));
                timed(&mut timers.decode_s, || rank_order_sum(decs))
            });
            (sum, own)
        })
        .collect()
}

/// [`Endpoint::dense_all_reduce`] on every endpoint of `eps`, each with
/// its own partial; returns each one's sum (`None` where no one reads
/// it, [`Endpoint::output`]).
pub(crate) fn dense_all_reduce<'a, L: Link>(
    eps: &mut [Endpoint<L>],
    partials: &'a [Tensor],
    timers: &mut PhaseTimers,
    ws: &mut Workspace,
) -> Vec<Option<Tensor>> {
    let (p, len) = (eps[0].world, partials[0].len());
    if p == 1 || len == 0 {
        // Callers recycle the result into `ws`: hand out its buffer.
        let copies = eps.iter().zip(partials);
        return copies
            .map(|(ep, t)| ep.output.then(|| ws.lease_copy(t)))
            .collect();
    }
    let t0 = Instant::now();
    // Every endpoint derives its chunk plan from its own partial and
    // tuning, as a rank does.
    let rows = |ep: &Endpoint<L>, t: &'a Tensor, _: &mut _, ws: &mut Workspace| {
        let (rows, width) = rows_width(t);
        let plan = ep.tuning.plan(rows);
        let (chunks, out) = (
            RowChunks::new(&plan, width),
            ep.output.then(|| ws.lease_tensor(t.shape().clone())),
        );
        ChunkRing::new(
            ep,
            DenseRows {
                data: t.as_slice(),
                chunks,
                out,
            },
            plan.len(),
        )
    };
    let progs = run(eps, partials, rows, timers, ws);
    timers.collective_s += t0.elapsed().as_secs_f64();
    (eps.iter_mut().zip(progs))
        .map(|(ep, prog)| {
            ep.ring_bytes.dense += (p - 1) * prog.payload.data.len() * 2;
            prog.payload.out
        })
        .collect()
}

/// [`Endpoint::sync_param_grads`] on every endpoint of `eps`, each with
/// its own compressor. A compressor without parameters returns at
/// once: every worker of a ring holds the same kind of compressor, so
/// all skip the gather together.
pub(crate) fn sync_param_grads<L: Link>(
    eps: &mut [Endpoint<L>],
    mut comps: Vec<&mut dyn Compressor>,
    timers: &mut PhaseTimers,
) {
    let owns: Vec<Vec<Tensor>> = (comps.iter_mut())
        .map(|comp| {
            let mut own = Vec::new();
            comp.visit_params(&mut |p| own.push(p.grad.clone()));
            own
        })
        .collect();
    if owns[0].is_empty() {
        return;
    }
    let p = eps[0].world;
    let mut slots: Vec<Vec<Option<Vec<Tensor>>>> = (eps.iter())
        .map(|_| (0..p).map(|_| None).collect())
        .collect();
    let inputs = owns.into_iter().zip(slots.iter_mut()).zip(comps.iter());
    // A gather leases nothing.
    let progs = run(
        eps,
        inputs,
        |ep, ((own, slots), comp), _, _| {
            let own = GatherPayload::Grads(own);
            GatherWalk::new(ep, own, &**comp, |origin, item, _: &mut _| {
                if let GatherPayload::Grads(grads) = item {
                    slots[origin] = Some(grads);
                }
            })
        },
        timers,
        &mut Workspace::new(),
    );
    drop(progs);
    for (comp, slots) in comps.iter_mut().zip(slots) {
        let sums = timed(&mut timers.decode_s, || {
            let mut ranks = slots
                .into_iter()
                .map(|s| s.expect("the gather walk visits every rank"));
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
    use actcomp_compress::{Identity, TopK};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The text of the panic `f` raises.
    fn panic_text(f: impl FnOnce()) -> String {
        let panic = catch_unwind(AssertUnwindSafe(f)).expect_err("a protocol failure");
        panic
            .downcast_ref::<String>()
            .expect("formatted panic")
            .clone()
    }

    fn assert_contains(text: &str, parts: &[&str]) {
        for part in parts {
            assert!(text.contains(part), "missing {part:?} in {text:?}");
        }
    }

    #[test]
    fn mismatched_collectives_report_one_protocol_violation() {
        // The serial counterpart of the threaded ring's test: rank 0
        // gathers a Top-K code while rank 1 runs a dense reduce.
        let x = Tensor::zeros(vec![2, 4]);
        let (t, ws) = (&mut PhaseTimers::default(), &mut Workspace::new());
        let mut eps = Endpoint::serial_ring(2);
        // Rank 0 ships its code, then waits for one nobody sends.
        let stalled = panic_text(|| {
            eps[0].compressed_all_reduce(&mut TopK::new(2), &x, t, ws);
        });
        assert_contains(&stalled, &["ring stalled: tp ranks [0]"]);
        // Rank 1 meets a gather hop where its schedule calls for a chunk.
        let refused = panic_text(|| {
            eps[1].dense_all_reduce(&x, t, ws);
        });
        assert_contains(
            &refused,
            &[
                "ring protocol violation at tp rank 1/2",
                "expected chunk(coll 0, reduce, idx 0)",
                "received gather(coll 0, origin 0) carrying a code",
            ],
        );
    }

    #[test]
    fn a_payload_shaped_unlike_the_own_is_a_protocol_violation() {
        let (t, ws) = (&mut PhaseTimers::default(), &mut Workspace::new());
        let parts = [Tensor::zeros(vec![2, 4]), Tensor::zeros(vec![3, 4])];
        // A summable code of another shape, refused before any decode.
        let text = panic_text(|| {
            let mut codecs = [Identity::new(), Identity::new()];
            let comps = codecs
                .iter_mut()
                .map(|c| c as &mut dyn Compressor)
                .collect();
            compressed_all_reduce(&mut Endpoint::serial_ring(2), comps, &parts, t, ws);
        });
        assert_contains(
            &text,
            &[
                "ring protocol violation at tp rank 1/2",
                "expected chunk(coll 0, reduce, idx 0) shaped like this rank's own",
                "received chunk(coll 0, reduce, idx 0) carrying a code",
            ],
        );
        // A gathered code of another shape, and dense rows of another
        // length.
        let text = panic_text(|| {
            let mut codecs = [TopK::new(2), TopK::new(2)];
            let comps = codecs
                .iter_mut()
                .map(|c| c as &mut dyn Compressor)
                .collect();
            compressed_all_reduce(&mut Endpoint::serial_ring(2), comps, &parts, t, ws);
        });
        assert_contains(&text, &["tp rank 1/2", "received gather(coll 0, origin 0)"]);
        let parts = [Tensor::zeros(vec![2, 4]), Tensor::zeros(vec![2, 6])];
        let text = panic_text(|| {
            dense_all_reduce(&mut Endpoint::serial_ring(2), &parts, t, ws);
        });
        assert_contains(&text, &["tp rank 1/2", "carrying dense rows"]);
    }
}
