//! The threaded execution engine: spawns one OS thread per model-parallel
//! rank and drives them through the shared driver's command/response
//! channels.
//!
//! Rank `r` owns tensor-parallel shard `r % tp` of pipeline stage
//! `r / tp`: one [`Block`] per layer of its stage, over that shard
//! alone. Compressors come from the serial
//! [`MpBert`](actcomp_mp::MpBert) builder's own [`CompressorRecipe`], so
//! a threaded run and a serial run built from the same serial encoder and
//! seed hold bit-identical parameters.
//!
//! Every rank link is a channel of a
//! [`Transport`](actcomp_net::Transport) handed to
//! [`ThreadedRuntime::with_transports`]: the in-process mpsc transport
//! ([`ThreadedRuntime::from_serial`]), Unix domain sockets or loopback
//! TCP, with bitwise identical results.

use crate::comm::TpGroup;
use crate::config::{RuntimeConfig, RuntimeError};
use crate::driver::{Driver, Port};
use crate::link::{build_rank_links, RankLinks};
use crate::rank::{BoundaryReceiver, BoundarySender, Command, EmbeddingStage, RankWorker, Reply};
use crate::report::RuntimeReport;
use crate::trace::{TraceCell, TraceHandle};
use actcomp_check::TraceEvent;
use actcomp_compress::Compressor;
use actcomp_mp::{stage_offsets, Block, CompressorRecipe, SumPoint};
use actcomp_net::{mpsc_world, Transport};
use actcomp_nn::BertEncoder;
use actcomp_tensor::Tensor;
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Builds one rank's worker — shards, compressors, links — identically
/// whether the rank lives on a thread of this process (threads backend,
/// transport conformance harness) or is the sole rank of a worker
/// process (procs backend).
pub(crate) struct WorkerBuilder<'a> {
    serial: &'a BertEncoder,
    cfg: &'a RuntimeConfig,
    recipe: CompressorRecipe,
    offsets: Vec<usize>,
}

impl<'a> WorkerBuilder<'a> {
    /// `recipe` is drawn with the serial builder's draw order; process
    /// mode re-draws it in every worker from the shared run seed.
    pub(crate) fn new(
        serial: &'a BertEncoder,
        cfg: &'a RuntimeConfig,
        recipe: CompressorRecipe,
    ) -> Self {
        let offsets = stage_offsets(cfg.mp.bert.layers, cfg.mp.pp);
        WorkerBuilder {
            serial,
            cfg,
            recipe,
            offsets,
        }
    }

    /// Elements of one micro-batch's activation (at `m = 1`, the serial
    /// executor's size): what every compressor is sized for.
    fn n(&self) -> usize {
        (self.cfg.mp.tokens / self.cfg.micro_batches) * self.cfg.mp.bert.hidden
    }

    /// The compressor at boundary `b`. The boundary pair's two halves
    /// each build theirs, yielding the lockstep replica pair.
    fn boundary(&self, b: usize) -> Box<dyn Compressor> {
        self.recipe.boundary(&self.cfg.mp, b, self.n())
    }

    /// Spawns rank `rank`'s worker thread around its opened links:
    /// returns where to send its commands, where its replies arrive,
    /// and its handle.
    pub(crate) fn spawn(
        &self,
        rank: usize,
        links: RankLinks,
    ) -> (Sender<Command>, Receiver<Reply>, JoinHandle<()>) {
        let tp = self.cfg.mp.tp;
        let pp = self.cfg.mp.pp;
        let stage = rank / tp;
        let tpi = rank % tp;
        let lo = self.offsets[stage];
        let hi = self
            .offsets
            .get(stage + 1)
            .copied()
            .unwrap_or(self.cfg.mp.bert.layers);
        let layers = (lo..hi)
            .map(|l| {
                let block = Block::new(&self.serial.layers[l], tp, tpi..tpi + 1)
                    .expect("the runtime validated the config");
                let comps =
                    SumPoint::ALL.map(|at| self.recipe.reduce(&self.cfg.mp, l, at, self.n()));
                (block, comps)
            })
            .collect();
        let embedding = (stage == 0).then(|| {
            EmbeddingStage::new(
                self.serial.tok.clone(),
                self.serial.pos.clone(),
                self.serial.emb_ln.clone(),
            )
        });
        let mut ring_ep = TpGroup::from_links(tpi, tp, links.ring_tx, links.ring_rx);
        // Every rank is built from the same config, so all endpoints
        // of a ring derive identical chunk plans.
        ring_ep.tuning = self.cfg.tuning.unwrap_or_default();
        // One trace cell per rank, shared between its ring endpoint and
        // its worker so ring, broadcast, and boundary events interleave
        // in program order.
        let trace = self.cfg.trace.then(|| {
            let cell: TraceCell = Arc::new(Mutex::new(Vec::new()));
            TraceHandle::new(stage, cell)
        });
        if let Some(t) = &trace {
            ring_ep.set_trace(t.clone());
        }
        let send_b = links.fwd_tx.map(|fwd_tx| BoundarySender {
            comp: self.boundary(stage),
            bytes: actcomp_mp::CommBytes::default(),
            tx: fwd_tx,
            grad_rx: links.grad_rx.expect("sender links come in pairs"),
        });
        let recv_b = links.fwd_rx.map(|fwd_rx| BoundaryReceiver {
            replica: self.boundary(stage - 1),
            rx: fwd_rx,
            grad_tx: links.grad_tx.expect("receiver links come in pairs"),
        });
        let (cmd_tx, cmd_rx) = channel();
        let (resp_tx, resp_rx) = channel();
        let worker = RankWorker::new(
            rank,
            stage,
            tpi,
            pp,
            self.cfg.micro_batches,
            embedding,
            layers,
            ring_ep,
            links.bcast_tx,
            links.bcast_rx,
            send_b,
            recv_b,
            cmd_rx,
            resp_tx,
            trace,
        );
        let handle = std::thread::Builder::new()
            .name(format!("actcomp-rank-{rank}"))
            .spawn(move || worker.run())
            .expect("spawn rank thread");
        (cmd_tx, resp_rx, handle)
    }
}

/// A multi-threaded model-parallel execution engine: `tp · pp` OS
/// threads exchanging compressed activations over channels.
///
/// A rank that is lost mid-step — its thread gone, a link to a peer
/// failed — is a typed [`RuntimeError::RankLost`] from the fallible
/// operations, and the world stays lost; the infallible ones panic
/// with that error.
///
/// With compression off ([`CompressionPlan::none`]) a step is
/// bit-identical to the serial [`MpBert`](actcomp_mp::MpBert) executor
/// (test-enforced); with compression on, runs are deterministic given
/// the seed because every collective reduces in rank order.
///
/// [`CompressionPlan::none`]: actcomp_compress::plan::CompressionPlan::none
pub struct ThreadedRuntime {
    pub(crate) driver: Driver,
}

impl std::fmt::Debug for ThreadedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.config();
        write!(
            f,
            "ThreadedRuntime(tp={}, pp={}, m={})",
            c.mp.tp, c.mp.pp, c.micro_batches
        )
    }
}

impl ThreadedRuntime {
    /// Builds the engine from a fresh serial initialization (drawing the
    /// serial encoder from `rng` first, exactly like
    /// [`MpBert::new`](actcomp_mp::MpBert::new)).
    pub fn new(rng: &mut ChaCha8Rng, cfg: RuntimeConfig) -> Result<Self, RuntimeError> {
        cfg.try_validate()?;
        let serial = BertEncoder::new(rng, cfg.mp.bert.clone());
        Self::from_serial(&serial, cfg, rng)
    }

    /// Shards an existing serial encoder across `tp · pp` rank threads
    /// linked by the in-process mpsc transport ([`mpsc_world`]).
    ///
    /// `rng` is consumed with the same draw order as
    /// [`MpBert::from_serial`](actcomp_mp::MpBert::from_serial), so the
    /// two executors build identical compressor stacks from the same
    /// generator state.
    pub fn from_serial(
        serial: &BertEncoder,
        cfg: RuntimeConfig,
        rng: &mut ChaCha8Rng,
    ) -> Result<Self, RuntimeError> {
        let transports = (mpsc_world(cfg.world()).into_iter())
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect();
        Self::with_transports(serial, cfg, rng, transports)
    }

    /// Shards an existing serial encoder across `tp · pp` rank threads
    /// whose every inter-rank message crosses the given transports —
    /// one per rank, `transports[r].rank() == r`. The
    /// transport-conformance suite uses this to prove sockets and the
    /// in-process transport produce bitwise identical training steps.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorldMismatch`] unless the set holds one
    /// transport per rank of a `tp·pp` world;
    /// [`RuntimeError::TransportRank`] unless it is in rank order;
    /// [`RuntimeError::Transport`] if opening any link fails. Validation
    /// errors as in [`Self::new`].
    pub fn with_transports(
        serial: &BertEncoder,
        cfg: RuntimeConfig,
        rng: &mut ChaCha8Rng,
        mut transports: Vec<Box<dyn Transport>>,
    ) -> Result<Self, RuntimeError> {
        cfg.try_validate()?;
        let world = cfg.world();
        if transports.len() != world {
            return Err(RuntimeError::WorldMismatch {
                got: transports.len(),
                need: world,
            });
        }
        for (index, t) in transports.iter().enumerate() {
            if t.world() != world {
                return Err(RuntimeError::WorldMismatch {
                    got: t.world(),
                    need: world,
                });
            }
            if t.rank() != index {
                return Err(RuntimeError::TransportRank {
                    index,
                    rank: t.rank(),
                });
            }
        }
        let m = cfg.micro_batches;
        if !cfg.mp.tokens.is_multiple_of(m) {
            return Err(RuntimeError::BatchNotDivisible {
                batch: cfg.mp.tokens,
                micro_batches: m,
            });
        }
        let mut links = Vec::with_capacity(world);
        for t in transports.iter_mut() {
            links.push(build_rank_links(t.as_mut(), cfg.mp.tp, cfg.mp.pp)?);
        }
        let recipe = CompressorRecipe::draw(&cfg.mp, rng);
        let builder = WorkerBuilder::new(serial, &cfg, recipe);

        let ports = (links.into_iter().enumerate())
            .map(|(rank, rank_links)| {
                let (tx, rx, handle) = builder.spawn(rank, rank_links);
                Port::Thread { tx, rx, handle }
            })
            .collect();
        Ok(ThreadedRuntime {
            driver: Driver::new(cfg, ports, transports),
        })
    }

    /// The run configuration.
    pub fn config(&self) -> &RuntimeConfig {
        self.driver.config()
    }

    /// Total rank (thread) count.
    pub fn world(&self) -> usize {
        self.config().world()
    }

    /// Runs a pipelined forward pass over the whole batch, returning the
    /// final hidden states `[batch · seq, hidden]`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::IdsLengthMismatch`] if `ids.len() != batch * seq`,
    /// [`RuntimeError::SeqTooLong`] if `seq` exceeds the model maximum,
    /// [`RuntimeError::TokenOutOfVocab`] for an id outside the
    /// vocabulary, [`RuntimeError::BatchNotDivisible`] if `batch` is not
    /// divisible by the micro-batch count. Nothing is dispatched to the
    /// ranks on any of these. [`RuntimeError::RankLost`] if a rank is
    /// lost.
    pub fn forward(
        &mut self,
        ids: &[usize],
        batch: usize,
        seq: usize,
    ) -> Result<Tensor, RuntimeError> {
        self.driver.forward(ids, batch, seq)
    }

    /// Validates and dispatches a forward-only inference pass over a
    /// coalesced request batch of `nreq` requests of `seq` tokens each
    /// (`ids.len() == nreq * seq`, request-major) without waiting for
    /// the result. Each request runs as its own micro-batch, so the
    /// arithmetic per request is identical to submitting it alone —
    /// batching changes throughput, not bits.
    ///
    /// Pair every submit with exactly one [`Self::infer_wait`]. Because
    /// command channels buffer, a second batch can be submitted while
    /// the first computes: the ranks start it the moment their part of
    /// the previous batch retires, which is what keeps the pipeline full
    /// across batch boundaries (continuous batching).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ZeroMicroBatches`] if `nreq == 0`, and the
    /// errors of [`Self::forward`]. Nothing is dispatched on an input
    /// error.
    pub fn infer_submit(
        &mut self,
        ids: &[usize],
        nreq: usize,
        seq: usize,
    ) -> Result<(), RuntimeError> {
        self.driver.infer_submit(ids, nreq, seq)
    }

    /// Collects the result of the oldest outstanding
    /// [`Self::infer_submit`]: the final hidden states
    /// `[nreq · seq, hidden]`, request-major.
    pub fn infer_wait(&mut self) -> Result<Tensor, RuntimeError> {
        self.driver.infer_wait()
    }

    /// [`Self::infer_submit`] + [`Self::infer_wait`] in one call.
    pub fn infer(
        &mut self,
        ids: &[usize],
        nreq: usize,
        seq: usize,
    ) -> Result<Tensor, RuntimeError> {
        self.driver.infer(ids, nreq, seq)
    }

    /// Runs the pipelined backward pass from the gradient of the final
    /// hidden states.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BackwardWithoutForward`] if no forward is
    /// outstanding, [`RuntimeError::GradShapeMismatch`] unless the
    /// gradient is that forward's `[rows, hidden]`; nothing is
    /// dispatched. [`RuntimeError::RankLost`] if a rank is lost.
    pub fn backward(&mut self, dhidden: &Tensor) -> Result<(), RuntimeError> {
        self.driver.backward(dhidden)
    }

    /// Takes a checkpoint at `step`: every rank writes its parameter
    /// shard to `dir/rank-<r>.ckpt`, CRC-trailed and stamped with `tag`
    /// and the step.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Checkpoint`] naming the first rank whose shard
    /// could not be written; [`RuntimeError::RankLost`] if a rank is lost.
    pub fn checkpoint(&mut self, dir: &Path, step: usize, tag: u64) -> Result<(), RuntimeError> {
        self.driver.checkpoint(dir, step, tag)
    }

    /// Drains every rank's recorded comm events, ordered by rank —
    /// `None` when the engine was built without `trace`. Events
    /// accumulate until taken: drain once per step for sequences that
    /// conform to the per-step static graph
    /// ([`actcomp_check::audit_trace`]).
    pub fn take_trace(&mut self) -> Option<Vec<Vec<TraceEvent>>> {
        self.driver.take_trace().expect("every rank answers")
    }

    /// Zeroes every parameter gradient on every rank.
    pub fn zero_grad(&mut self) {
        self.driver.zero_grad().expect("every rank answers");
    }

    /// Applies one SGD step with learning rate `lr` on every rank.
    pub fn sgd_step(&mut self, lr: f32) {
        self.driver.sgd_step(lr).expect("every rank answers");
    }

    /// Gathers all parameter gradients, reassembled into the exact order
    /// [`MpBert::visit_all_params`](actcomp_mp::MpBert::visit_all_params)
    /// visits them — the bridge the determinism tests compare across
    /// executors.
    pub fn collect_grads(&mut self) -> Vec<Tensor> {
        self.driver.collect_grads().expect("every rank answers")
    }

    /// Gathers per-rank timers and byte counters into the aggregated
    /// report (the payload of `BENCH_runtime.json`).
    pub fn report(&mut self) -> RuntimeReport {
        self.driver.report().expect("every rank answers")
    }
}
