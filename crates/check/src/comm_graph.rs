//! Comm-protocol static analysis (`AC0601`–`AC0606`).
//!
//! The threaded rank engine (`actcomp-runtime`) is a real concurrent
//! system: one OS thread per rank, chain-reduce → ring-broadcast
//! collectives over `mpsc` channels, GPipe boundary channels between
//! pipeline stages, and a stash-based selective receive keyed on
//! `(bcast, idx)`. Every send and receive that a `(tp, pp, codec,
//! chunk_rows, pipeline_depth, micro_batches)` plan will perform is
//! fully determined by the configuration — so the protocol can be
//! analyzed *before* a single thread spawns.
//!
//! [`build_comm_graph`] emits the complete static message-flow graph:
//! per rank, the ordered sequence of [`CommEvent`]s for one training
//! step, read off the lists the engine executes: each rank's step list
//! ([`crate::steps::rank_steps`]) orders its boundary messages, stage
//! broadcasts, collectives and grad syncs, and each ring collective
//! comes from its own step list ([`crate::collectives::chunk_ring_steps`]
//! / [`crate::collectives::gather_ring_steps`]). [`analyze`] then
//! proves, or refutes with an `AC06xx` diagnostic:
//!
//! * **send/recv matching** — every send has exactly one receive and
//!   vice versa (`AC0601` orphan send, `AC0602` starved recv,
//!   `AC0606` duplicate identity);
//! * **deadlock-freedom** — the blocking-dependency graph (per-rank
//!   program order, matched send→recv edges, and the driver's
//!   forward/backward phase barrier) is acyclic (`AC0603`, reported
//!   with the blocking cycle). Channels are unbounded, so sends never
//!   block and acyclicity is exactly deadlock-freedom — the rank-0
//!   `pipeline_depth` pacing enters as program-order structure;
//! * **delivery-order safety** — per-channel FIFO order agrees between
//!   sender and receiver wherever the engine receives non-selectively
//!   (gathers, boundary messages, broadcasts), and no two in-flight
//!   chunks can ever share a `(bcast, idx)` stash key (`AC0606`);
//! * **byte-accounting consistency** — the event-sum of wire bytes
//!   matches the closed-form `ring_bytes` / boundary counters the
//!   engine reports (`AC0604`).
//!
//! The same graph doubles as the reference for dynamic conformance
//! auditing: the runtime's trace mode records per-rank [`TraceEvent`]s
//! and [`audit_trace`] replays them against the static graph
//! (`AC0605`). Per-rank consumption order in the engine is
//! deterministic, so conformance is exact sequence equality.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use actcomp_compress::{Compressor, ErrorFeedback};
pub use actcomp_mp::ring::{Dir, MsgId};
use actcomp_mp::{stage_offsets, SumPoint};
use actcomp_tensor::Tensor;

use crate::codes;
use crate::collectives::{
    chunk_ring_steps, gather_ring_steps, resolved_ring_tuning, ring_chunk_plan,
};
use crate::config::ExperimentConfig;
use crate::diagnostics::Diagnostic;
use crate::runtime::uses_threads_backend;
use crate::steps::{rank_steps, Op, Sweep};

/// At most this many diagnostics are emitted per code before the
/// remainder is folded into one summary finding.
const MAX_PER_CODE: usize = 5;

/// One directed `mpsc` channel in the engine's plumbing. Every channel
/// has exactly one sender rank and one receiver rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ChannelId {
    /// Ring link `link` of stage `stage`: TP rank `link` sends to TP
    /// rank `(link + 1) % tp`.
    Ring {
        /// Pipeline stage owning the ring.
        stage: usize,
        /// Link index == sending TP rank.
        link: usize,
    },
    /// Stage-input broadcast from the stage's TP rank 0 to `peer`.
    Bcast {
        /// Pipeline stage.
        stage: usize,
        /// Receiving TP rank (`1..tp`).
        peer: usize,
    },
    /// Forward boundary `boundary`: stage `boundary` rank 0 to stage
    /// `boundary + 1` rank 0. Carries activations and the end-of-step
    /// compressor-gradient sync.
    BoundaryFwd {
        /// Boundary index (`0..pp-1`).
        boundary: usize,
    },
    /// Gradient boundary `boundary`: stage `boundary + 1` rank 0 back
    /// to stage `boundary` rank 0.
    BoundaryGrad {
        /// Boundary index (`0..pp-1`).
        boundary: usize,
    },
}

impl ChannelId {
    /// The unique sending rank (global rank id) for a world of `tp`
    /// TP ranks per stage.
    pub fn sender(&self, tp: usize) -> usize {
        match *self {
            ChannelId::Ring { stage, link } => stage * tp + link,
            ChannelId::Bcast { stage, .. } => stage * tp,
            ChannelId::BoundaryFwd { boundary } => boundary * tp,
            ChannelId::BoundaryGrad { boundary } => (boundary + 1) * tp,
        }
    }

    /// The unique receiving rank (global rank id).
    pub fn receiver(&self, tp: usize) -> usize {
        match *self {
            ChannelId::Ring { stage, link } => stage * tp + (link + 1) % tp,
            ChannelId::Bcast { stage, peer } => stage * tp + peer,
            ChannelId::BoundaryFwd { boundary } => (boundary + 1) * tp,
            ChannelId::BoundaryGrad { boundary } => boundary * tp,
        }
    }

    /// Whether this is a ring link (the only channel kind with
    /// selective receive).
    pub fn is_ring(&self) -> bool {
        matches!(self, ChannelId::Ring { .. })
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ChannelId::Ring { stage, link } => write!(f, "ring[stage {stage}, link {link}]"),
            ChannelId::Bcast { stage, peer } => write!(f, "bcast[stage {stage} -> peer {peer}]"),
            ChannelId::BoundaryFwd { boundary } => write!(f, "fwd-boundary[{boundary}]"),
            ChannelId::BoundaryGrad { boundary } => write!(f, "grad-boundary[{boundary}]"),
        }
    }
}

/// The driver-visible phase an event belongs to. The driver barriers
/// between the forward and backward commands; the compressor-gradient
/// sync runs inside the backward command (no barrier before it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Forward pass of micro-batch `mb`.
    Forward {
        /// Micro-batch index.
        mb: usize,
    },
    /// Backward pass of micro-batch `mb`.
    Backward {
        /// Micro-batch index.
        mb: usize,
    },
    /// End-of-step compressor-gradient synchronisation.
    Sync,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Phase::Forward { mb } => write!(f, "forward mb {mb}"),
            Phase::Backward { mb } => write!(f, "backward mb {mb}"),
            Phase::Sync => f.write_str("sync"),
        }
    }
}

/// One static send/recv event in a rank's per-step program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommEvent {
    /// Send or receive.
    pub dir: Dir,
    /// The channel acted on.
    pub channel: ChannelId,
    /// The message's matching identity.
    pub msg: MsgId,
    /// Wire bytes, on the sends the engine's byte counters meter
    /// (ring chunks, gather codes, boundary activations); `None` on
    /// receives and unmetered messages.
    pub bytes: Option<usize>,
    /// Driver phase, for the barrier edges and diagnostics.
    pub phase: Phase,
}

impl CommEvent {
    /// Projects the event to its runtime-observable form.
    pub fn to_trace(self) -> TraceEvent {
        TraceEvent {
            dir: self.dir,
            channel: self.channel,
            msg: self.msg,
            bytes: self.bytes,
        }
    }
}

impl fmt::Display for CommEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} on {} [{}]",
            self.dir, self.msg, self.channel, self.phase
        )
    }
}

/// One recorded runtime event — a [`CommEvent`] minus the phase, which
/// the runtime does not label. Receives are recorded at consumption,
/// matching the static graph's convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Send or receive.
    pub dir: Dir,
    /// The channel acted on.
    pub channel: ChannelId,
    /// The message's matching identity.
    pub msg: MsgId,
    /// Wire bytes on metered sends, `None` otherwise.
    pub bytes: Option<usize>,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} on {}", self.dir, self.msg, self.channel)
    }
}

/// Closed-form per-rank byte counters for one step, mirroring the
/// engine's `RankReport` fields. `AC0604` cross-checks these against
/// the event-sum of the graph's metered sends; the conformance tests
/// check both against the live engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpectedCounters {
    /// Reduce accounting, wire bytes (`actcomp_mp::Endpoint::bytes`,
    /// the same on every executor).
    pub reduce_wire: usize,
    /// Serial-matching reduce accounting, dense-equivalent bytes.
    pub reduce_dense: usize,
    /// Actual ring traffic, wire bytes
    /// (`actcomp_mp::Endpoint::ring_bytes`).
    pub ring_wire: usize,
    /// Gather-equivalent baseline for the ring comparison.
    pub ring_dense: usize,
    /// Boundary activation traffic, wire bytes (sender side only).
    pub boundary_wire: usize,
    /// Boundary activation traffic, dense bytes.
    pub boundary_dense: usize,
}

/// The complete static message-flow graph for one training step of a
/// threads-backend plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommGraph {
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Pipeline-parallel degree.
    pub pp: usize,
    /// Micro-batches per step.
    pub micro_batches: usize,
    /// Per-rank ordered event programs, indexed by global rank
    /// (`stage * tp + tp_index`).
    pub events: Vec<Vec<CommEvent>>,
    /// Per-rank expected byte counters for the step.
    pub expected: Vec<ExpectedCounters>,
}

impl CommGraph {
    /// Total rank count.
    pub fn world(&self) -> usize {
        self.tp * self.pp
    }

    /// Total send + recv events across all ranks.
    pub fn event_count(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }

    /// Number of distinct messages (send events).
    pub fn message_count(&self) -> usize {
        self.events
            .iter()
            .flatten()
            .filter(|e| e.dir == Dir::Send)
            .count()
    }

    /// Number of distinct channels touched.
    pub fn channel_count(&self) -> usize {
        self.events
            .iter()
            .flatten()
            .map(|e| e.channel)
            .collect::<BTreeSet<_>>()
            .len()
    }
}

/// Per-sum communication profile, read off the sum's actual codec.
enum LayerComm {
    /// Chain-reduce path: wire bytes per reduce/broadcast chunk (the
    /// dense ring's row chunks, or a summable codec's one code).
    Summable(Vec<usize>),
    /// Gathered: whole-message wire bytes.
    Gathered(usize),
}

/// Per-rank event generator: the events of the rank's step list
/// ([`crate::steps`]), whose blocks and codec gathers expand to the
/// ring step lists ([`crate::collectives`]) the engine interprets.
struct Gen {
    tp: usize,
    stage: usize,
    tpi: usize,
    depth: usize,
    /// Collective ordinal within this stage's ring; advances in the
    /// same order on every rank of the stage.
    coll: usize,
    phase: Phase,
    events: Vec<CommEvent>,
    exp: ExpectedCounters,
}

impl Gen {
    fn push(&mut self, dir: Dir, channel: ChannelId, msg: MsgId, bytes: Option<usize>) {
        self.events.push(CommEvent {
            dir,
            channel,
            msg,
            bytes,
            phase: self.phase,
        });
    }

    /// Pushes one ring event: sends leave on this rank's link carrying
    /// `bytes`; receives arrive on the previous rank's link, unmetered.
    fn ring_event(&mut self, dir: Dir, msg: MsgId, bytes: Option<usize>) {
        let (link, bytes) = match dir {
            Dir::Send => (self.tpi, bytes),
            Dir::Recv => ((self.tpi + self.tp - 1) % self.tp, None),
        };
        let channel = ChannelId::Ring {
            stage: self.stage,
            link,
        };
        self.push(dir, channel, msg, bytes);
    }

    /// Opens the next collective on this stage's ring.
    fn next_coll(&mut self) -> usize {
        self.coll += 1;
        self.coll - 1
    }

    /// A chain-reduce → ring-broadcast collective (a dense
    /// `dense_all_reduce` or a summable codec's): the wire events of the
    /// step list the engine interprets.
    fn chunk_ring(&mut self, chunk_bytes: &[usize]) {
        let (r, p) = (self.tpi, self.tp);
        if p == 1 {
            return;
        }
        let coll = self.next_coll();
        for step in chunk_ring_steps(r, p, chunk_bytes.len(), self.depth) {
            for (dir, bcast, idx) in step.wire() {
                let msg = MsgId::Chunk { coll, bcast, idx };
                self.ring_event(dir, msg, Some(chunk_bytes[idx]));
            }
        }
        // Closed-form wire bytes for this rank's sends (`AC0604`
        // cross-checks it against the event-sum above): every rank
        // sends each chunk once; all but the last two ranks also pass
        // its broadcast on.
        let own: usize = chunk_bytes.iter().sum();
        self.exp.ring_wire += if r + 2 < p { 2 * own } else { own };
        // The gather-equivalent baseline.
        self.exp.ring_dense += (p - 1) * own;
    }

    /// A whole-message ring all-gather (gathered reduce, grad sync):
    /// the engine's gather walk, metered (`Some(bytes)` per send) or
    /// not.
    fn gather_ring(&mut self, bytes: Option<usize>) {
        let coll = self.next_coll();
        for hop in gather_ring_steps(self.tpi, self.tp) {
            let origin = hop.origin;
            self.ring_event(hop.dir, MsgId::Gather { coll, origin }, bytes);
        }
    }

    /// An all-reduce over `[rows, hidden]` through the layer's codec
    /// (`compressed_all_reduce`) or, for a dense sum, the dense ring
    /// metered as the serial executor meters it.
    fn car(&mut self, lc: &LayerComm, len: usize) {
        let p = self.tp;
        if p == 1 {
            return;
        }
        match lc {
            LayerComm::Summable(chunk_bytes) => {
                self.chunk_ring(chunk_bytes);
                let own: usize = chunk_bytes.iter().sum();
                self.exp.reduce_wire += 2 * (p - 1) * own / p;
            }
            &LayerComm::Gathered(msg_bytes) => {
                self.gather_ring(Some(msg_bytes));
                let sent = (p - 1) * msg_bytes;
                self.exp.reduce_wire += p * msg_bytes * (p - 1) / p;
                self.exp.ring_wire += sent;
                self.exp.ring_dense += sent;
            }
        }
        self.exp.reduce_dense += 2 * (p - 1) * (len * 2) / p;
    }
}

/// Builds the static message-flow graph for one training step, or
/// `None` when the config does not select the threaded engine or is
/// too broken to model (those defects carry their own `AC0xxx` codes
/// from the earlier passes; run the full [`crate::check`] first).
pub fn build_comm_graph(cfg: &ExperimentConfig) -> Option<CommGraph> {
    if !uses_threads_backend(cfg) {
        return None;
    }
    let rt = cfg.runtime.as_ref()?;
    let tp = cfg.parallelism.tp;
    let pp = cfg.parallelism.pp;
    let layers = cfg.model.layers;
    let h = cfg.model.hidden;
    let m = rt.micro_batches();
    if tp == 0 || pp == 0 || h == 0 || m == 0 || layers < pp {
        return None;
    }
    let tokens = cfg.batch.micro_batch.checked_mul(cfg.batch.seq)?;
    if tokens == 0 || !tokens.is_multiple_of(m) {
        return None;
    }
    let plan = cfg.resolve_plan()?;
    let (chunk_rows, depth) = resolved_ring_tuning(cfg);
    if chunk_rows == Some(0) || depth == 0 {
        return None;
    }

    let world = tp * pp;
    let mb_tokens = tokens / m;
    let n = mb_tokens * h;
    // `stage_offsets` yields the pp start offsets; append the end
    // sentinel so `offsets[s]..offsets[s + 1]` is stage `s`'s range.
    let mut offsets = stage_offsets(layers, pp);
    offsets.push(layers);
    let ef = cfg.plan.error_feedback;

    // The plan's codec, built as the engine seeds it (message sizes are
    // data- and seed-independent) to size messages by compressing zero
    // tensors. A sum the plan leaves dense has no codec.
    let codec = || -> Box<dyn Compressor> {
        let c = plan.spec.build(&mut ChaCha8Rng::seed_from_u64(0), n, h);
        if ef {
            Box::new(ErrorFeedback::new(c))
        } else {
            c
        }
    };
    // Every compressed reduce moves its whole code as one message.
    let covered = {
        let mut comp = codec();
        let bytes = comp
            .compress(&Tensor::zeros(vec![mb_tokens, h]))
            .wire_bytes(2);
        if comp.summable() {
            LayerComm::Summable(vec![bytes])
        } else {
            LayerComm::Gathered(bytes)
        }
    };
    // A sum the plan leaves dense rides the dense ring's row chunks.
    let dense_chunks: Vec<usize> = (ring_chunk_plan(chunk_rows, mb_tokens).iter())
        .map(|&rows| rows * h * 2)
        .collect();
    let dense = LayerComm::Summable(dense_chunks.clone());
    let params = plan.spec.has_params();

    // Boundary codecs compress regardless of tp (they serve pipeline
    // parallelism); uncovered boundaries use the identity.
    let boundary_bytes: Vec<usize> = (0..pp.saturating_sub(1))
        .map(|b| {
            if plan.covers(offsets[b + 1]) {
                (codec().compress(&Tensor::zeros(vec![mb_tokens, h]))).wire_bytes(2)
            } else {
                mb_tokens * h * 2
            }
        })
        .collect();

    let mut events = Vec::with_capacity(world);
    let mut expected = Vec::with_capacity(world);
    for stage in 0..pp {
        let layers = offsets[stage]..offsets[stage + 1];
        for tpi in 0..tp {
            let mut g = Gen {
                tp,
                stage,
                tpi,
                depth,
                coll: 0,
                phase: Phase::Sync,
                events: Vec::new(),
                exp: ExpectedCounters::default(),
            };
            let steps = [Sweep::Forward, Sweep::Backward].map(|s| rank_steps(pp, m, stage, tpi, s));
            for step in steps.into_iter().flatten() {
                g.phase = step.phase;
                match (step.op, step.phase) {
                    (Op::Blocks, Phase::Forward { .. }) => {
                        for l in layers.clone() {
                            let lc = if plan.covers(l) { &covered } else { &dense };
                            for _at in SumPoint::ALL {
                                g.car(lc, n);
                            }
                        }
                    }
                    // Per layer, the feed-forward then the QKV input-grad
                    // dense sums (dQ/dK/dV folded on the rank).
                    (Op::Blocks, _) => {
                        (0..2 * layers.len()).for_each(|_| g.chunk_ring(&dense_chunks))
                    }
                    (Op::CodecGrads, _) => {
                        // Only a codec with parameters syncs their grads;
                        // a dense sum has no codec.
                        let synced = layers.clone().filter(|&l| params && plan.covers(l));
                        for _at in synced.flat_map(|_| SumPoint::ALL) {
                            g.gather_ring(None);
                        }
                    }
                    (op, phase) => {
                        // An activation is metered at its boundary's wire bytes.
                        let metered = op == Op::Send && matches!(phase, Phase::Forward { .. });
                        let bytes = metered.then(|| boundary_bytes[stage]);
                        if let Some(b) = bytes {
                            g.exp.boundary_wire += b;
                            g.exp.boundary_dense += n * 2;
                        }
                        for (dir, channel, msg) in step.wire(stage, tp, tpi) {
                            g.push(dir, channel, msg, bytes);
                        }
                    }
                }
            }
            events.push(g.events);
            expected.push(g.exp);
        }
    }

    Some(CommGraph {
        tp,
        pp,
        micro_batches: m,
        events,
        expected,
    })
}

/// Emits up to [`MAX_PER_CODE`] diagnostics from `items`, folding any
/// remainder into one summary finding with the same code.
fn capped(
    diags: &mut Vec<Diagnostic>,
    code: &'static str,
    span: &str,
    items: Vec<String>,
    help: &str,
) {
    let total = items.len();
    for msg in items.into_iter().take(MAX_PER_CODE) {
        diags.push(Diagnostic::error(code, span, msg).with_help(help.to_string()));
    }
    if total > MAX_PER_CODE {
        diags.push(Diagnostic::error(
            code,
            span,
            format!(
                "… and {} more finding(s) with this code (shown: {MAX_PER_CODE})",
                total - MAX_PER_CODE
            ),
        ));
    }
}

/// Analyzes a static message-flow graph, returning every protocol
/// violation as an `AC06xx` diagnostic. An empty vector is a proof —
/// under the blocking model documented on this module — that the plan
/// matches every send to exactly one receive, cannot deadlock, cannot
/// hit a mis-kinded or ambiguous receive, and meters exactly the bytes
/// its counters claim.
pub fn analyze(graph: &CommGraph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let world = graph.world();
    let mut base = vec![0usize; world + 1];
    for r in 0..world {
        base[r + 1] = base[r] + graph.events[r].len();
    }
    let n = base[world];
    let describe = |id: usize| -> String {
        let (r, i) = locate(&base, id);
        format!("rank {r} event {i}: {}", graph.events[r][i])
    };

    // --- send/recv matching (AC0601, AC0602, AC0606) -------------------
    let mut table: BTreeMap<(ChannelId, MsgId), (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (r, events) in graph.events.iter().enumerate() {
        for (i, e) in events.iter().enumerate() {
            let entry = table.entry((e.channel, e.msg)).or_default();
            match e.dir {
                Dir::Send => entry.0.push(base[r] + i),
                Dir::Recv => entry.1.push(base[r] + i),
            }
        }
    }
    let mut orphans = Vec::new();
    let mut starved = Vec::new();
    let mut dups = Vec::new();
    for ((ch, msg), (sends, recvs)) in &table {
        if sends.len() > 1 || recvs.len() > 1 {
            dups.push(format!(
                "message {msg} on {ch} has {} send(s) and {} recv(s); \
                 matching requires exactly one of each (first send: {})",
                sends.len(),
                recvs.len(),
                sends
                    .first()
                    .or_else(|| recvs.first())
                    .map(|&id| describe(id))
                    .unwrap_or_default(),
            ));
        } else if recvs.is_empty() {
            orphans.push(format!("{} is never received on {ch}", describe(sends[0])));
        } else if sends.is_empty() {
            starved.push(format!("{} is never sent on {ch}", describe(recvs[0])));
        }
    }
    let matching_clean = orphans.is_empty() && starved.is_empty() && dups.is_empty();
    capped(
        &mut diags,
        codes::COMM_ORPHAN_SEND,
        "comm.graph",
        orphans,
        "every send must have a matching receive on the same channel",
    );
    capped(
        &mut diags,
        codes::COMM_STARVED_RECV,
        "comm.graph",
        starved,
        "a receive with no matching send blocks its rank forever",
    );
    capped(
        &mut diags,
        codes::COMM_AMBIGUOUS_MESSAGE,
        "comm.graph",
        dups,
        "two messages sharing one identity make the selective receive ambiguous",
    );

    // --- blocking-dependency graph -------------------------------------
    // Edges: per-rank program order, matched send -> recv, and the
    // driver's phase barrier (every rank's last forward event precedes
    // every rank's first non-forward event). Channels are unbounded,
    // so sends never block: a cycle is exactly a deadlock.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for r in 0..world {
        for i in 1..graph.events[r].len() {
            succs[base[r] + i - 1].push(base[r] + i);
            preds[base[r] + i].push(base[r] + i - 1);
        }
    }
    for (sends, recvs) in table.values() {
        if sends.len() == 1 && recvs.len() == 1 {
            succs[sends[0]].push(recvs[0]);
            preds[recvs[0]].push(sends[0]);
        }
    }
    let is_fwd = |e: &CommEvent| matches!(e.phase, Phase::Forward { .. });
    for (r, events) in graph.events.iter().enumerate() {
        let Some(lf) = events.iter().rposition(is_fwd) else {
            continue;
        };
        for (q, other) in graph.events.iter().enumerate() {
            if let Some(fb) = other.iter().position(|e| !is_fwd(e)).filter(|_| q != r) {
                succs[base[r] + lf].push(base[q] + fb);
                preds[base[q] + fb].push(base[r] + lf);
            }
        }
    }

    // --- deadlock-freedom: canonical Kahn order (AC0603) ---------------
    let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut heap: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&i| indeg[i] == 0).map(Reverse).collect();
    let mut topo = vec![usize::MAX; n];
    let mut placed = 0usize;
    while let Some(Reverse(i)) = heap.pop() {
        topo[i] = placed;
        placed += 1;
        for &s in &succs[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                heap.push(Reverse(s));
            }
        }
    }
    if placed < n {
        // Extract one concrete cycle: every unplaced node retains an
        // unplaced predecessor, so walking predecessors must repeat.
        let start = (0..n)
            .find(|&i| topo[i] == usize::MAX)
            .expect("an unplaced node exists when placed < n");
        let mut path = vec![start];
        let mut cur = start;
        let cycle = loop {
            let p = preds[cur]
                .iter()
                .copied()
                .find(|&p| topo[p] == usize::MAX)
                .expect("unplaced node keeps an unplaced predecessor");
            if let Some(k) = path.iter().position(|&x| x == p) {
                let mut c: Vec<usize> = path[k..].to_vec();
                c.reverse(); // predecessor walk -> edge direction
                break c;
            }
            path.push(p);
            cur = p;
        };
        let shown: Vec<String> = cycle.iter().take(8).map(|&id| describe(id)).collect();
        let suffix = if cycle.len() > 8 {
            format!(" … ({} events total)", cycle.len())
        } else {
            String::new()
        };
        diags.push(
            Diagnostic::error(
                codes::COMM_DEADLOCK_CYCLE,
                "comm.graph",
                format!(
                    "blocking-dependency cycle ({} rank(s) would deadlock waiting on each \
                     other): {}{suffix}",
                    n - placed,
                    shown.join(" -> "),
                ),
            )
            .with_help(
                "each listed event waits (directly or through program order) on the next; \
                 adjust the plan so the dependency chain is acyclic",
            ),
        );
        // The FIFO/stash analyses need the canonical order; without
        // one, report the cycle and the byte check only.
        byte_check(graph, &mut diags);
        return diags;
    }

    // --- per-channel delivery order (AC0606) ---------------------------
    // Only meaningful once every message matches 1:1 — an unbalanced
    // channel already carries AC0601/AC0602/AC0606 findings above.
    if !matching_clean {
        byte_check(graph, &mut diags);
        return diags;
    }
    let mut order_faults = Vec::new();
    let mut chans: BTreeMap<ChannelId, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (r, events) in graph.events.iter().enumerate() {
        for (i, e) in events.iter().enumerate() {
            let entry = chans.entry(e.channel).or_default();
            match e.dir {
                Dir::Send => entry.0.push(base[r] + i),
                Dir::Recv => entry.1.push(base[r] + i),
            }
        }
    }
    for (ch, (sends, recvs)) in &chans {
        let msgs = |ids: &[usize]| -> Vec<MsgId> {
            ids.iter().map(|&id| ev_at(graph, &base, id).msg).collect()
        };
        let (s_msgs, r_msgs) = (msgs(sends), msgs(recvs));
        if !ch.is_ring() {
            // Non-ring receives are strictly FIFO (and panic on an
            // unexpected message kind): consumption order must equal
            // send order exactly.
            if s_msgs != r_msgs {
                let k = s_msgs
                    .iter()
                    .zip(&r_msgs)
                    .position(|(a, b)| a != b)
                    .unwrap_or(s_msgs.len().min(r_msgs.len()));
                let at = |msgs: &[MsgId]| msgs.get(k).map_or("nothing".into(), |m| m.to_string());
                order_faults.push(format!(
                    "FIFO order mismatch on {ch} at position {k}: sender enqueues {} but \
                     receiver consumes {}",
                    at(&s_msgs),
                    at(&r_msgs),
                ));
            }
            continue;
        }
        // Ring links: gathers are consumed FIFO, chunks selectively.
        let gathers = |msgs: &[MsgId]| -> Vec<MsgId> {
            let gathers = msgs.iter().filter(|m| matches!(m, MsgId::Gather { .. }));
            gathers.copied().collect()
        };
        if gathers(&s_msgs) != gathers(&r_msgs) {
            order_faults.push(format!(
                "gather delivery order on {ch} differs between sender and receiver; \
                 the non-selective gather receive would consume a wrong hop"
            ));
        }
        // Collectives must be interleave-free and processed in the
        // same order on both endpoints, or a chunk receive can meet a
        // gather at the head of the queue (a panic in the engine).
        let coll_seq = |msgs: &[MsgId]| -> Vec<usize> {
            let mut colls: Vec<usize> = (msgs.iter())
                .filter_map(|m| match *m {
                    MsgId::Chunk { coll, .. } | MsgId::Gather { coll, .. } => Some(coll),
                    _ => None,
                })
                .collect();
            colls.dedup();
            colls
        };
        if coll_seq(&s_msgs) != coll_seq(&r_msgs) {
            order_faults.push(format!(
                "collective order on {ch} differs between sender and receiver; \
                 a chunk receive could meet a message of the wrong kind"
            ));
        }
        // Stash-key uniqueness: the engine's selective receive keys on
        // (bcast, idx) only. For consecutive messages reusing a key,
        // the earlier receive must precede the later send in the
        // canonical order, so the two are never in flight together.
        let mut by_key: BTreeMap<(bool, usize), Vec<usize>> = BTreeMap::new();
        for &id in sends {
            if let MsgId::Chunk { bcast, idx, .. } = ev_at(graph, &base, id).msg {
                by_key.entry((bcast, idx)).or_default().push(id);
            }
        }
        for ids in by_key.values() {
            for w in ids.windows(2) {
                let (a, b) = (w[0], w[1]);
                let key = (*ch, ev_at(graph, &base, a).msg);
                let Some(&recv_a) = table.get(&key).and_then(|(_, rs)| rs.first()) else {
                    continue; // unmatched sends already carry AC0601
                };
                if topo[recv_a] >= topo[b] {
                    order_faults.push(format!(
                        "stash-key collision on {ch}: {} may still be in flight when {} \
                         is sent; the selective receive could consume the wrong chunk",
                        describe(a),
                        describe(b),
                    ));
                }
            }
        }
    }
    capped(
        &mut diags,
        codes::COMM_AMBIGUOUS_MESSAGE,
        "comm.graph",
        order_faults,
        "sender and receiver must agree on per-channel delivery order",
    );

    byte_check(graph, &mut diags);
    diags
}

/// Event lookup by flat node id.
fn ev_at<'g>(graph: &'g CommGraph, base: &[usize], id: usize) -> &'g CommEvent {
    let (r, i) = locate(base, id);
    &graph.events[r][i]
}

/// A flat node id's `(rank, event index)`.
fn locate(base: &[usize], id: usize) -> (usize, usize) {
    let r = base.partition_point(|&b| b <= id) - 1;
    (r, id - base[r])
}

/// Cross-checks the event-sum of metered sends against the closed-form
/// per-rank counters (`AC0604`).
fn byte_check(graph: &CommGraph, diags: &mut Vec<Diagnostic>) {
    let mut faults = Vec::new();
    for (r, (events, exp)) in graph.events.iter().zip(&graph.expected).enumerate() {
        let metered = |pred: &dyn Fn(&CommEvent) -> bool| -> usize {
            events
                .iter()
                .filter(|e| e.dir == Dir::Send && pred(e))
                .filter_map(|e| e.bytes)
                .sum()
        };
        let ring_sum = metered(&|e| e.channel.is_ring());
        if ring_sum != exp.ring_wire {
            faults.push(format!(
                "rank {r}: ring send events carry {ring_sum} wire bytes but the \
                 ring_bytes counter accounts {}",
                exp.ring_wire
            ));
        }
        let boundary_sum = metered(&|e| matches!(e.channel, ChannelId::BoundaryFwd { .. }));
        if boundary_sum != exp.boundary_wire {
            faults.push(format!(
                "rank {r}: boundary send events carry {boundary_sum} wire bytes but the \
                 boundary counter accounts {}",
                exp.boundary_wire
            ));
        }
    }
    capped(
        diags,
        codes::COMM_BYTE_MISMATCH,
        "comm.graph",
        faults,
        "the per-event wire bytes and the closed-form counters must agree",
    );
}

/// The comm-protocol pass entry point: builds the graph when the
/// config selects the threaded engine and analyzes it. Configs the
/// graph cannot model (no threads backend, or defects the earlier
/// passes already diagnose) return an empty vector.
pub fn check_comm_protocol(cfg: &ExperimentConfig) -> Vec<Diagnostic> {
    build_comm_graph(cfg)
        .map(|g| analyze(&g))
        .unwrap_or_default()
}

/// Replays a recorded per-rank runtime trace against the static graph
/// (`AC0605`). Per-rank consumption order in the engine is fully
/// deterministic, so conformance is exact sequence equality rank by
/// rank.
pub fn audit_trace(graph: &CommGraph, trace: &[Vec<TraceEvent>]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let world = graph.world();
    if trace.len() != world {
        diags.push(
            Diagnostic::error(
                codes::COMM_TRACE_NONCONFORMANT,
                "comm.trace",
                format!(
                    "trace covers {} rank(s) but the graph has {world}",
                    trace.len()
                ),
            )
            .with_help("record one event stream per rank, indexed by global rank id"),
        );
        return diags;
    }
    let mut faults = Vec::new();
    for (r, (expected, got)) in graph.events.iter().zip(trace).enumerate() {
        let div = expected
            .iter()
            .zip(got.iter())
            .position(|(e, g)| e.to_trace() != *g);
        match div {
            Some(i) => faults.push(format!(
                "rank {r} diverges at event {i}: static graph expects `{}`, trace \
                 records `{}`",
                expected[i].to_trace(),
                got[i],
            )),
            None => {
                if expected.len() != got.len() {
                    faults.push(format!(
                        "rank {r} trace has {} event(s) but the static graph expects {}",
                        got.len(),
                        expected.len(),
                    ));
                }
            }
        }
    }
    capped(
        &mut diags,
        codes::COMM_TRACE_NONCONFORMANT,
        "comm.trace",
        faults,
        "the engine must perform exactly the events the static graph predicts",
    );
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Backend, RunSpec};
    use actcomp_compress::spec::CompressorSpec;

    /// Tiny model so codec sizing stays cheap: 4 layers, hidden 16,
    /// 8 tokens per step.
    fn tiny_cfg(
        tp: usize,
        pp: usize,
        spec: &str,
        m: usize,
        chunk_rows: Option<usize>,
        depth: usize,
    ) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.model.layers = 4;
        cfg.model.hidden = 16;
        cfg.model.heads = 4;
        cfg.model.ff_hidden = 32;
        cfg.model.vocab = 32;
        cfg.model.max_seq = 8;
        cfg.parallelism.tp = tp;
        cfg.parallelism.pp = pp;
        cfg.batch.micro_batch = 2;
        cfg.batch.seq = 4;
        cfg.batch.num_micro_batches = 1;
        cfg.plan.spec = spec.to_string();
        cfg.runtime = Some(RunSpec {
            micro_batches: Some(m),
            chunk_rows,
            pipeline_depth: Some(depth),
            ..RunSpec::default()
        });
        cfg
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn determinism_grid_is_proved_deadlock_free() {
        // The tp x pp x chunk x depth x codec x micro-batch grid the
        // runtime determinism suite exercises: every point must come
        // back with a clean proof (matching, deadlock-freedom, FIFO
        // safety, byte consistency).
        for tp in [1, 2, 4] {
            for pp in [1, 2] {
                for chunk in [None, Some(1), Some(3)] {
                    for depth in [1, 2, 4] {
                        for spec in ["w/o", "T2"] {
                            for m in [1, 2] {
                                let cfg = tiny_cfg(tp, pp, spec, m, chunk, depth);
                                let graph = build_comm_graph(&cfg)
                                    .expect("threads-backend config must build a graph");
                                let diags = analyze(&graph);
                                assert!(
                                    diags.is_empty(),
                                    "tp={tp} pp={pp} chunk={chunk:?} depth={depth} \
                                     spec={spec} m={m}: {diags:#?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ring_schedules_are_proved_for_every_rank_count() {
        // The schedule-level proof, with no model and no threads. For
        // every ring size, chunk count and pipeline depth, the step
        // lists the engine interprets — a chunk ring, an (unmetered)
        // gather, and a second chunk ring reusing every `(bcast, idx)`
        // stash key — match every send to exactly one receive, agree
        // on per-link delivery order up to the stash key, never have
        // two chunks with one key in flight, block acyclically, and
        // carry the bytes the closed form claims.
        for world in 2..=6usize {
            for chunks in 1..=9usize {
                for depth in 1..=5usize {
                    let (events, expected): (Vec<_>, Vec<_>) = (0..world)
                        .map(|tpi| {
                            let mut g = Gen {
                                tp: world,
                                stage: 0,
                                tpi,
                                depth,
                                coll: 0,
                                phase: Phase::Forward { mb: 0 },
                                events: Vec::new(),
                                exp: ExpectedCounters::default(),
                            };
                            g.chunk_ring(&vec![2; chunks]);
                            g.gather_ring(None);
                            g.chunk_ring(&(1..=chunks).collect::<Vec<_>>());
                            (g.events, g.exp)
                        })
                        .unzip();
                    let graph = CommGraph {
                        tp: world,
                        pp: 1,
                        micro_batches: 1,
                        events,
                        expected,
                    };
                    let diags = analyze(&graph);
                    assert!(
                        diags.is_empty(),
                        "world={world} chunks={chunks} depth={depth}: {diags:#?}"
                    );
                    assert_eq!(graph.message_count() * 2, graph.event_count());
                }
            }
        }
    }

    #[test]
    fn graph_shape_is_sane() {
        let graph = build_comm_graph(&tiny_cfg(2, 2, "w/o", 2, None, 4)).expect("graph builds");
        assert_eq!(graph.world(), 4);
        assert_eq!(graph.events.len(), 4);
        assert_eq!(graph.expected.len(), 4);
        // Sends and receives balance globally and per channel.
        let mut per_chan: BTreeMap<ChannelId, (usize, usize)> = BTreeMap::new();
        for e in graph.events.iter().flatten() {
            let entry = per_chan.entry(e.channel).or_default();
            match e.dir {
                Dir::Send => entry.0 += 1,
                Dir::Recv => entry.1 += 1,
            }
        }
        for (ch, (s, r)) in &per_chan {
            assert_eq!(s, r, "unbalanced channel {ch}");
        }
        assert_eq!(per_chan.len(), graph.channel_count());
        assert_eq!(graph.message_count() * 2, graph.event_count());
        // A solo world has no communication at all.
        let solo = build_comm_graph(&tiny_cfg(1, 1, "w/o", 1, None, 4)).expect("solo graph");
        assert_eq!(solo.event_count(), 0);
        assert!(analyze(&solo).is_empty());
    }

    #[test]
    fn non_threads_configs_build_no_graph() {
        // No runtime section at all.
        assert!(build_comm_graph(&ExperimentConfig::paper_default()).is_none());
        // Serial backend.
        let mut cfg = tiny_cfg(2, 1, "w/o", 1, None, 4);
        if let Some(rt) = cfg.runtime.as_mut() {
            rt.backend = Backend::Serial;
        }
        assert!(build_comm_graph(&cfg).is_none());
        assert!(check_comm_protocol(&cfg).is_empty());
        // Degenerate tuning is left to the AC05xx pass.
        let mut cfg = tiny_cfg(2, 1, "w/o", 1, Some(0), 4);
        cfg.runtime.as_mut().expect("runtime").chunk_rows = Some(0);
        assert!(build_comm_graph(&cfg).is_none());
    }

    #[test]
    fn every_compressed_reduce_is_one_chunk_at_any_chunk_rows() {
        // The dense plan's forward reduces ride multi-chunk rings; under
        // every codec, with or without error feedback, each forward
        // reduce is one chunk at any `--chunk-rows`. Every layer is
        // compressed, so no dense reduce dilutes the signal.
        let forward_chunks = |spec: &str, error_feedback: bool, chunk_rows: Option<usize>| {
            let mut cfg = tiny_cfg(2, 1, spec, 1, chunk_rows, 4);
            cfg.plan.start_layer = Some(0);
            cfg.plan.num_layers = Some(4);
            cfg.plan.error_feedback = error_feedback;
            let g = build_comm_graph(&cfg).expect("graph");
            assert!(analyze(&g).is_empty(), "{spec}");
            g.events.iter().flatten().any(|e| {
                matches!(e.phase, Phase::Forward { .. })
                    && matches!(e.msg, MsgId::Chunk { idx, .. } if idx > 0)
            })
        };
        for chunk_rows in [None, Some(1), Some(3)] {
            assert!(
                forward_chunks("w/o", false, chunk_rows),
                "dense reduces should chunk"
            );
            for spec in &CompressorSpec::all()[1..] {
                for ef in [false, true] {
                    assert!(
                        !forward_chunks(spec.label(), ef, chunk_rows),
                        "{} (error feedback {ef}, chunk rows {chunk_rows:?}) chunked a forward reduce",
                        spec.label()
                    );
                }
            }
        }
    }

    fn event(dir: Dir, channel: ChannelId, msg: MsgId, bytes: Option<usize>) -> CommEvent {
        CommEvent {
            dir,
            channel,
            msg,
            bytes,
            phase: Phase::Forward { mb: 0 },
        }
    }

    fn two_rank_graph(r0: Vec<CommEvent>, r1: Vec<CommEvent>) -> CommGraph {
        CommGraph {
            tp: 2,
            pp: 1,
            micro_batches: 1,
            events: vec![r0, r1],
            expected: vec![ExpectedCounters::default(); 2],
        }
    }

    #[test]
    fn orphan_and_starved_events_are_reported() {
        let link0 = ChannelId::Ring { stage: 0, link: 0 };
        let chunk = MsgId::Chunk {
            coll: 0,
            bcast: false,
            idx: 0,
        };
        let mut g = two_rank_graph(vec![event(Dir::Send, link0, chunk, Some(4))], vec![]);
        g.expected[0].ring_wire = 4; // keep AC0604 out of the picture
        assert_eq!(codes_of(&analyze(&g)), vec![codes::COMM_ORPHAN_SEND]);

        let g = two_rank_graph(vec![], vec![event(Dir::Recv, link0, chunk, None)]);
        assert_eq!(codes_of(&analyze(&g)), vec![codes::COMM_STARVED_RECV]);
    }

    #[test]
    fn crossed_waits_are_reported_as_deadlock() {
        // rank 0 waits for a chunk from rank 1 before sending its own,
        // and vice versa: the canonical circular wait.
        let link0 = ChannelId::Ring { stage: 0, link: 0 }; // 0 -> 1
        let link1 = ChannelId::Ring { stage: 0, link: 1 }; // 1 -> 0
        let a = MsgId::Chunk {
            coll: 0,
            bcast: false,
            idx: 0,
        };
        let b = MsgId::Chunk {
            coll: 0,
            bcast: false,
            idx: 1,
        };
        let g = two_rank_graph(
            vec![
                event(Dir::Recv, link1, a, None),
                event(Dir::Send, link0, b, None),
            ],
            vec![
                event(Dir::Recv, link0, b, None),
                event(Dir::Send, link1, a, None),
            ],
        );
        let diags = analyze(&g);
        assert_eq!(codes_of(&diags), vec![codes::COMM_DEADLOCK_CYCLE]);
        assert!(diags[0].message.contains("rank 0"));
        assert!(diags[0].message.contains("rank 1"));
    }

    #[test]
    fn duplicate_identities_are_reported() {
        let link0 = ChannelId::Ring { stage: 0, link: 0 };
        let chunk = MsgId::Chunk {
            coll: 0,
            bcast: false,
            idx: 0,
        };
        let g = two_rank_graph(
            vec![
                event(Dir::Send, link0, chunk, None),
                event(Dir::Send, link0, chunk, None),
            ],
            vec![
                event(Dir::Recv, link0, chunk, None),
                event(Dir::Recv, link0, chunk, None),
            ],
        );
        assert_eq!(codes_of(&analyze(&g)), vec![codes::COMM_AMBIGUOUS_MESSAGE]);
    }

    #[test]
    fn fifo_order_mismatch_is_reported() {
        // Boundary channels are consumed strictly FIFO: consuming the
        // two micro-batch activations in swapped order is a protocol
        // violation even though every message matches.
        let ch = ChannelId::BoundaryFwd { boundary: 0 };
        let a0 = MsgId::Activation { mb: 0 };
        let a1 = MsgId::Activation { mb: 1 };
        let g = CommGraph {
            tp: 1,
            pp: 2,
            micro_batches: 2,
            events: vec![
                vec![
                    event(Dir::Send, ch, a0, None),
                    event(Dir::Send, ch, a1, None),
                ],
                vec![
                    event(Dir::Recv, ch, a1, None),
                    event(Dir::Recv, ch, a0, None),
                ],
            ],
            expected: vec![ExpectedCounters::default(); 2],
        };
        let diags = analyze(&g);
        assert!(
            codes_of(&diags).contains(&codes::COMM_AMBIGUOUS_MESSAGE),
            "{diags:#?}"
        );
    }

    #[test]
    fn tampered_counters_are_reported() {
        let mut graph = build_comm_graph(&tiny_cfg(2, 1, "T2", 1, None, 4)).expect("graph");
        assert!(analyze(&graph).is_empty());
        graph.expected[0].ring_wire += 1;
        assert_eq!(codes_of(&analyze(&graph)), vec![codes::COMM_BYTE_MISMATCH]);
    }

    #[test]
    fn conforming_traces_audit_clean() {
        let graph = build_comm_graph(&tiny_cfg(2, 2, "T2", 2, Some(3), 2)).expect("graph");
        let trace: Vec<Vec<TraceEvent>> = graph
            .events
            .iter()
            .map(|evs| evs.iter().map(|e| e.to_trace()).collect())
            .collect();
        assert!(audit_trace(&graph, &trace).is_empty());
    }

    #[test]
    fn deviant_traces_are_reported() {
        let graph = build_comm_graph(&tiny_cfg(2, 1, "w/o", 1, None, 4)).expect("graph");
        let mut trace: Vec<Vec<TraceEvent>> = graph
            .events
            .iter()
            .map(|evs| evs.iter().map(|e| e.to_trace()).collect())
            .collect();
        // Wrong world size.
        let short = trace[..1].to_vec();
        assert_eq!(
            codes_of(&audit_trace(&graph, &short)),
            vec![codes::COMM_TRACE_NONCONFORMANT]
        );
        // A dropped event.
        let cut = trace[0].len() - 1;
        let dropped = trace[0].split_off(cut);
        assert!(!dropped.is_empty());
        let diags = audit_trace(&graph, &trace);
        assert_eq!(codes_of(&diags), vec![codes::COMM_TRACE_NONCONFORMANT]);
        assert!(diags[0].message.contains("rank 0"));
    }

    #[test]
    fn trace_roundtrips_through_json() {
        let graph = build_comm_graph(&tiny_cfg(2, 1, "w/o", 1, None, 4)).expect("graph");
        let trace: Vec<Vec<TraceEvent>> = graph
            .events
            .iter()
            .map(|evs| evs.iter().map(|e| e.to_trace()).collect())
            .collect();
        let json = serde_json::to_string(&trace).expect("serialize");
        let back: Vec<Vec<TraceEvent>> = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(trace, back);
        assert!(audit_trace(&graph, &back).is_empty());
    }
}
