//! The per-rank worker: one OS thread owning one tensor-parallel shard
//! of one pipeline stage, driven by commands from the runtime and
//! exchanging activations/gradients with its peers over [`MsgTx`] /
//! [`MsgRx`] links (framed channels of the in-process mpsc transport in
//! the threads backend, of sockets otherwise). A forward,
//! inference or backward command executes the rank's step list
//! ([`rank_steps`]) — the same list the comm-protocol proof walks, so
//! the worker names no channel or message itself.

use crate::comm::TpGroup;
use crate::config::RuntimeError;
use crate::link::{MsgRx, MsgTx};
use crate::report::{timed, PhaseTimers, RankReport};
use crate::trace::TraceHandle;
use crate::wire::{put_f32, put_string, put_u8, put_usize, Reader, WireError, WireMsg};
use actcomp_check::steps::{rank_steps, Op, Step, Sweep};
use actcomp_check::{Phase, TraceEvent};
use actcomp_compress::{Compressed, Compressor};
use actcomp_mp::{Block, CommBytes, Ring};
use actcomp_net::TransportError;
use actcomp_nn::{Embedding, Layer, LayerNorm, LnCache, Parameter};
use actcomp_tensor::{Tensor, Workspace};
use std::path::Path;
use std::sync::mpsc::{Receiver, Sender};

/// Commands the runtime broadcasts to every rank.
#[derive(Debug, Clone)]
pub(crate) enum Command {
    /// Run the GPipe fill (all micro-batch forwards for this stage).
    Forward {
        /// Token ids for the whole batch (stage 0 slices micro-batches).
        ids: Vec<usize>,
        /// Sequences in the batch.
        batch: usize,
        /// Tokens per sequence.
        seq: usize,
    },
    /// Run the GPipe drain (all micro-batch backwards, reversed).
    Backward {
        /// Gradient of the final hidden states for the whole batch.
        dhidden: Tensor,
    },
    /// Zero every owned gradient.
    ZeroGrad,
    /// Apply one SGD step to every owned parameter.
    SgdStep {
        /// Learning rate.
        lr: f32,
    },
    /// Snapshot owned gradients for reassembly by the driver.
    CollectGrads,
    /// Snapshot timers and byte counters.
    Report,
    /// Drain the rank's recorded audit-trace events.
    TakeTrace,
    /// Exit the worker loop.
    Shutdown,
    /// Write this rank's parameter shard to `dir/rank-<r>.ckpt`,
    /// stamped with `step` and the run's config hash `tag`.
    Checkpoint {
        /// Checkpoint directory (shared by all ranks).
        dir: String,
        /// Training step the checkpoint captures.
        step: usize,
        /// Config hash stamped into the shard.
        tag: u64,
    },
    /// Load this rank's parameter shard back from a checkpoint; the
    /// shard must verify (CRC) and carry the expected `step` and `tag`.
    Restore {
        /// Checkpoint directory (shared by all ranks).
        dir: String,
        /// Training step the checkpoint was taken at.
        step: usize,
        /// Config hash the shard must carry.
        tag: u64,
    },
    /// Forward-only inference over a coalesced request batch: one
    /// micro-batch per request (`micro` of them, overriding the
    /// configured training micro-batch count), no caches retained.
    Infer {
        /// Token ids for the whole request batch, request-major.
        ids: Vec<usize>,
        /// Requests in the batch.
        batch: usize,
        /// Tokens per request.
        seq: usize,
        /// Micro-batch count for this batch (the request count: each
        /// request pipelines through the stages independently).
        micro: usize,
    },
}

impl WireMsg for Command {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Command::Forward { ids, batch, seq } => {
                put_u8(out, 0);
                put_usize(out, ids.len());
                for &id in ids {
                    put_usize(out, id);
                }
                put_usize(out, *batch);
                put_usize(out, *seq);
            }
            Command::Backward { dhidden } => {
                put_u8(out, 1);
                dhidden.encode(out);
            }
            Command::ZeroGrad => put_u8(out, 2),
            Command::SgdStep { lr } => {
                put_u8(out, 3);
                put_f32(out, *lr);
            }
            Command::CollectGrads => put_u8(out, 4),
            Command::Report => put_u8(out, 5),
            Command::TakeTrace => put_u8(out, 6),
            Command::Shutdown => put_u8(out, 7),
            Command::Checkpoint { dir, step, tag } => {
                put_u8(out, 8);
                put_string(out, dir);
                put_usize(out, *step);
                crate::wire::put_u64(out, *tag);
            }
            Command::Restore { dir, step, tag } => {
                put_u8(out, 9);
                put_string(out, dir);
                put_usize(out, *step);
                crate::wire::put_u64(out, *tag);
            }
            Command::Infer {
                ids,
                batch,
                seq,
                micro,
            } => {
                put_u8(out, 10);
                put_usize(out, ids.len());
                for &id in ids {
                    put_usize(out, id);
                }
                put_usize(out, *batch);
                put_usize(out, *seq);
                put_usize(out, *micro);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.read_u8("command tag")? {
            0 => {
                let n = r.read_usize("forward id count")?;
                if n > 1 << 28 {
                    return Err(WireError {
                        what: "forward id count",
                    });
                }
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(r.read_usize("forward id")?);
                }
                Command::Forward {
                    ids,
                    batch: r.read_usize("forward batch")?,
                    seq: r.read_usize("forward seq")?,
                }
            }
            1 => Command::Backward {
                dhidden: Tensor::decode(r)?,
            },
            2 => Command::ZeroGrad,
            3 => Command::SgdStep {
                lr: r.read_f32("sgd lr")?,
            },
            4 => Command::CollectGrads,
            5 => Command::Report,
            6 => Command::TakeTrace,
            7 => Command::Shutdown,
            8 => Command::Checkpoint {
                dir: r.read_string("checkpoint dir")?,
                step: r.read_usize("checkpoint step")?,
                tag: r.read_u64("checkpoint tag")?,
            },
            9 => Command::Restore {
                dir: r.read_string("restore dir")?,
                step: r.read_usize("restore step")?,
                tag: r.read_u64("restore tag")?,
            },
            10 => {
                let n = r.read_usize("infer id count")?;
                if n > 1 << 28 {
                    return Err(WireError {
                        what: "infer id count",
                    });
                }
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(r.read_usize("infer id")?);
                }
                Command::Infer {
                    ids,
                    batch: r.read_usize("infer batch")?,
                    seq: r.read_usize("infer seq")?,
                    micro: r.read_usize("infer micro")?,
                }
            }
            _ => {
                return Err(WireError {
                    what: "command tag",
                })
            }
        })
    }
}

/// A rank's answer to one command: its response, or the loss of a
/// link that ended it.
pub(crate) type Reply = Result<Response, RuntimeError>;

/// Responses ranks send back to the runtime.
pub(crate) enum Response {
    /// Command finished on this rank.
    Done,
    /// Final hidden states (sent by the last stage's rank 0 instead of
    /// `Done` for a forward command).
    Output { y: Tensor },
    /// Gradient snapshot.
    Grads { rank: usize, grads: RankGrads },
    /// Timer/byte snapshot.
    Report { report: Box<RankReport> },
    /// Recorded audit-trace events (empty when tracing is off).
    Trace {
        rank: usize,
        events: Vec<TraceEvent>,
    },
}

impl WireMsg for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Done => put_u8(out, 0),
            Response::Output { y } => {
                put_u8(out, 1);
                y.encode(out);
            }
            Response::Grads { rank, grads } => {
                put_u8(out, 2);
                put_usize(out, *rank);
                grads.encode(out);
            }
            Response::Report { report } => {
                put_u8(out, 3);
                // Timers carry no bit-exactness requirement; JSON keeps
                // the codec in one place with the report's disk format.
                put_string(
                    out,
                    &serde_json::to_string(report.as_ref()).expect("report serializes"),
                );
            }
            Response::Trace { rank, events } => {
                // Process mode rejects tracing up front (the audit needs
                // in-process program order), so events are always empty
                // on the wire.
                debug_assert!(events.is_empty(), "trace events cannot cross processes");
                put_u8(out, 4);
                put_usize(out, *rank);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.read_u8("response tag")? {
            0 => Response::Done,
            1 => Response::Output {
                y: Tensor::decode(r)?,
            },
            2 => Response::Grads {
                rank: r.read_usize("grads rank")?,
                grads: RankGrads::decode(r)?,
            },
            3 => {
                let json = r.read_string("report json")?;
                let report: RankReport = serde_json::from_str(&json).map_err(|_| WireError {
                    what: "report json",
                })?;
                Response::Report {
                    report: Box::new(report),
                }
            }
            4 => Response::Trace {
                rank: r.read_usize("trace rank")?,
                events: Vec::new(),
            },
            _ => {
                return Err(WireError {
                    what: "response tag",
                })
            }
        })
    }
}

/// A message crossing a pipeline boundary in the forward direction.
pub(crate) enum FwdMsg {
    /// A compressed micro-batch activation.
    Activation(Compressed),
    /// Boundary-compressor parameter gradients, sent after the drain so
    /// the receiver's decode replica applies the identical SGD step.
    GradSync(Vec<Tensor>),
}

impl WireMsg for FwdMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FwdMsg::Activation(c) => {
                put_u8(out, 0);
                c.encode(out);
            }
            FwdMsg::GradSync(v) => {
                put_u8(out, 1);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.read_u8("boundary message tag")? {
            0 => FwdMsg::Activation(Compressed::decode(r)?),
            1 => FwdMsg::GradSync(Vec::<Tensor>::decode(r)?),
            _ => {
                return Err(WireError {
                    what: "boundary message tag",
                })
            }
        })
    }
}

/// Sending half of a pipeline boundary (owned by `tp_index == 0` of
/// every non-final stage). Holds the authoritative compressor: it
/// compresses forward activations and runs the compressor backward on
/// the returning gradient, accumulating any compressor-parameter grads.
pub(crate) struct BoundarySender {
    pub comp: Box<dyn Compressor>,
    pub bytes: CommBytes,
    pub tx: MsgTx<FwdMsg>,
    pub grad_rx: MsgRx<Tensor>,
}

/// Receiving half of a pipeline boundary (owned by `tp_index == 0` of
/// every non-first stage). Holds a decode-only replica built from the
/// same seed as the sender's compressor and kept in lockstep via
/// [`FwdMsg::GradSync`].
pub(crate) struct BoundaryReceiver {
    pub replica: Box<dyn Compressor>,
    pub rx: MsgRx<FwdMsg>,
    pub grad_tx: MsgTx<Tensor>,
}

/// Replicated first-stage embeddings with per-micro-batch caches.
pub(crate) struct EmbeddingStage {
    pub tok: Embedding,
    pub pos: Embedding,
    pub emb_ln: LayerNorm,
    caches: Vec<(Vec<usize>, Vec<usize>, LnCache)>,
}

impl EmbeddingStage {
    pub fn new(tok: Embedding, pos: Embedding, emb_ln: LayerNorm) -> Self {
        EmbeddingStage {
            tok,
            pos,
            emb_ln,
            caches: Vec::new(),
        }
    }

    fn forward(
        &mut self,
        ids: &[usize],
        mb_batch: usize,
        seq: usize,
        ws: &mut Workspace,
    ) -> Tensor {
        let t = self.tok.forward_cached(ids);
        let pos_ids: Vec<usize> = (0..mb_batch).flat_map(|_| 0..seq).collect();
        let p = self.pos.forward_cached(&pos_ids);
        // Fused residual + LN plan: the token+position sum never leaves
        // the compiled segment.
        let (x, cache) = self.emb_ln.forward_residual_cached_ws(&t, &p, ws);
        ws.recycle_tensor(t);
        ws.recycle_tensor(p);
        self.caches.push((ids.to_vec(), pos_ids, cache));
        x
    }

    fn backward(&mut self, d: &Tensor, ws: &mut Workspace) {
        let (ids, pos_ids, cache) = self
            .caches
            .pop()
            .expect("embedding backward without forward");
        let demb = self.emb_ln.backward_cached_ws(d, cache, ws);
        self.tok.backward_ids(&ids, &demb);
        self.pos.backward_ids(&pos_ids, &demb);
        ws.recycle_tensor(demb);
    }

    /// Drops every cached forward without running backward — the
    /// forward-only serving path's per-batch cleanup. LN cache tensors
    /// go back to the arena.
    fn clear_caches(&mut self, ws: &mut Workspace) {
        for (_, _, cache) in self.caches.drain(..) {
            let (xhat, inv_std) = cache.into_parts();
            ws.recycle_tensor(xhat);
            ws.recycle_tensor(inv_std);
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.tok.visit_params(f);
        self.pos.visit_params(f);
        self.emb_ln.visit_params(f);
    }
}

/// One owned layer: this rank's block over its own shard, and its
/// compressors at the layer's two forward sums (`None` where the sum is
/// dense).
pub(crate) type OwnedLayer = (Block, [Option<Box<dyn Compressor>>; 2]);

/// The gradients `visit` hands its callback, in order.
fn grads_of(visit: impl FnOnce(&mut dyn FnMut(&mut Parameter))) -> Vec<Tensor> {
    let mut grads = Vec::new();
    visit(&mut |p| grads.push(p.grad.clone()));
    grads
}

/// One rank's gradient snapshot, reassembled by the driver into the
/// serial `MpBert::visit_all_params` order.
#[derive(Debug, Clone)]
pub struct RankGrads {
    /// `[tok, pos, emb_ln gain, emb_ln bias]` — stage-0 ranks only.
    pub embedding: Vec<Tensor>,
    /// Per owned layer, in stage order: its block's parameter visit list.
    pub layers: Vec<Vec<Tensor>>,
    /// Per owned layer, in stage order: its attention-sum then its
    /// MLP-sum compressor's parameter grads.
    pub compressors: Vec<[Vec<Tensor>; 2]>,
    /// Boundary-compressor parameter grads (boundary senders only).
    pub boundary_comp: Vec<Tensor>,
}

/// One model-parallel rank: an OS thread owning a TP shard of one
/// pipeline stage.
pub(crate) struct RankWorker {
    pub rank: usize,
    pub stage: usize,
    pub tpi: usize,
    pub pp: usize,
    pub micro_batches: usize,
    pub embedding: Option<EmbeddingStage>,
    pub layers: Vec<OwnedLayer>,
    pub tp: TpGroup,
    /// Intra-stage broadcast: stage rank 0 fans decoded boundary
    /// tensors out to its TP peers.
    pub bcast_tx: Vec<MsgTx<Tensor>>,
    pub bcast_rx: Option<MsgRx<Tensor>>,
    pub send_b: Option<BoundarySender>,
    pub recv_b: Option<BoundaryReceiver>,
    pub timers: PhaseTimers,
    pub cmd_rx: Receiver<Command>,
    pub resp_tx: Sender<Reply>,
    /// Audit-trace handle (same cell as this rank's `tp` group) for
    /// boundary and broadcast events; `None` records nothing.
    trace: Option<TraceHandle>,
    /// This rank's scratch arena: packing buffers, head blocks and
    /// gradient temporaries are reused across micro-batches and steps.
    ws: Workspace,
}

impl RankWorker {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rank: usize,
        stage: usize,
        tpi: usize,
        pp: usize,
        micro_batches: usize,
        embedding: Option<EmbeddingStage>,
        layers: Vec<OwnedLayer>,
        tp: TpGroup,
        bcast_tx: Vec<MsgTx<Tensor>>,
        bcast_rx: Option<MsgRx<Tensor>>,
        send_b: Option<BoundarySender>,
        recv_b: Option<BoundaryReceiver>,
        cmd_rx: Receiver<Command>,
        resp_tx: Sender<Reply>,
        trace: Option<TraceHandle>,
    ) -> Self {
        RankWorker {
            rank,
            stage,
            tpi,
            pp,
            micro_batches,
            embedding,
            layers,
            tp,
            bcast_tx,
            bcast_rx,
            send_b,
            recv_b,
            timers: PhaseTimers::default(),
            cmd_rx,
            resp_tx,
            trace,
            ws: Workspace::new(),
        }
    }

    /// The worker loop: block on commands until shutdown, answering
    /// each with one reply. A failed link is replied as
    /// [`RuntimeError::RankLost`] and ends the loop, so the rank's own
    /// links drop and every peer waiting on one fails in turn instead of
    /// blocking. A rank whose driver has gone exits too.
    pub fn run(mut self) {
        while let Ok(cmd) = self.cmd_rx.recv() {
            let reply = match cmd {
                cmd @ (Command::Forward { .. }
                | Command::Infer { .. }
                | Command::Backward { .. }) => {
                    self.execute(&cmd).map_err(|error| RuntimeError::RankLost {
                        rank: self.rank,
                        error,
                    })
                }
                Command::ZeroGrad => {
                    self.visit_owned_params(&mut |p| p.zero_grad());
                    Ok(Response::Done)
                }
                Command::SgdStep { lr } => {
                    self.visit_owned_params(&mut |p| p.value.axpy(-lr, &p.grad));
                    Ok(Response::Done)
                }
                Command::CollectGrads => Ok(self.collect_grads()),
                Command::Report => Ok(Response::Report {
                    report: Box::new(RankReport {
                        rank: self.rank,
                        stage: self.stage,
                        tp_index: self.tpi,
                        timers: self.timers,
                        reduce_bytes: self.tp.bytes,
                        ring_bytes: self.tp.ring_bytes,
                        boundary_bytes: self.send_b.as_ref().map(|b| b.bytes).unwrap_or_default(),
                        plan_compiles: Some(self.ws.plan_compiles()),
                    }),
                }),
                Command::TakeTrace => Ok(Response::Trace {
                    rank: self.rank,
                    events: self.trace.as_ref().map(|t| t.take()).unwrap_or_default(),
                }),
                Command::Shutdown => break,
                Command::Checkpoint { dir, step, tag } => {
                    (self.save_shard(Path::new(&dir), step, tag)).map(|()| Response::Done)
                }
                Command::Restore { dir, step, tag } => {
                    (self.load_shard(Path::new(&dir), step, tag)).map(|()| Response::Done)
                }
            };
            let failed = reply.is_err();
            if self.resp_tx.send(reply).is_err() || failed {
                break;
            }
        }
    }

    /// Writes every owned parameter, in visit order, as this rank's
    /// checkpoint shard. A failed write is a
    /// [`RuntimeError::Checkpoint`]: final, since a relaunch would write
    /// to the same place — better than acking a checkpoint that isn't
    /// there.
    fn save_shard(&mut self, dir: &Path, step: usize, tag: u64) -> Result<(), RuntimeError> {
        let mut tensors = Vec::new();
        self.visit_owned_params(&mut |p| tensors.push(p.value.clone()));
        crate::shard::write_shard(dir, self.rank, step, tag, &tensors)
            .map_err(|e| self.checkpoint_error(format!("writing {}: {e}", dir.display())))
    }

    /// Restores every owned parameter from this rank's shard, in the
    /// same visit order it was written. A shard that cannot be read or
    /// fails verification (CRC, run/step stamp, tensor count or shape)
    /// is a [`RuntimeError::Checkpoint`], and no parameter changes.
    fn load_shard(&mut self, dir: &Path, step: usize, tag: u64) -> Result<(), RuntimeError> {
        let tensors = crate::shard::read_shard(dir, self.rank, step, tag)
            .map_err(|e| self.checkpoint_error(format!("reading {}: {e}", dir.display())))?;
        let mut shapes = Vec::new();
        self.visit_owned_params(&mut |p| shapes.push(p.value.dims().to_vec()));
        if shapes.len() != tensors.len() {
            let (model, shard) = (shapes.len(), tensors.len());
            return Err(
                self.checkpoint_error(format!("shard holds {shard} tensors, the model {model}"))
            );
        }
        if let Some(i) = (0..shapes.len()).find(|&i| tensors[i].dims() != shapes[i]) {
            return Err(
                self.checkpoint_error(format!("shard tensor {i} shape disagrees with the model"))
            );
        }
        let mut tensors = tensors.into_iter();
        self.visit_owned_params(&mut |p| {
            p.value = tensors.next().expect("counted above");
            p.grad = Tensor::zeros_like(&p.value);
        });
        Ok(())
    }

    fn checkpoint_error(&self, detail: String) -> RuntimeError {
        RuntimeError::Checkpoint {
            rank: self.rank,
            detail,
        }
    }

    /// Runs a forward, inference or backward command: this rank's step
    /// list ([`rank_steps`]) in one loop carrying the current tensor
    /// from step to step. An inference runs the forward list over one
    /// micro-batch per request and releases each one's activation
    /// caches when it is done — no backward follows, so serving does
    /// not grow memory per request. Replies the last stage's output, or
    /// `Done`; a failed boundary or broadcast link is the error.
    fn execute(&mut self, cmd: &Command) -> Result<Response, TransportError> {
        let (sweep, m) = match *cmd {
            Command::Backward { .. } => (Sweep::Backward, self.micro_batches),
            Command::Infer { micro, .. } => (Sweep::Forward, micro),
            _ => (Sweep::Forward, self.micro_batches),
        };
        let (ids, seq) = match cmd {
            Command::Forward { ids, seq, .. } | Command::Infer { ids, seq, .. } => (&ids[..], *seq),
            _ => (&[][..], 1),
        };
        let keep_caches = !matches!(cmd, Command::Infer { .. });
        if sweep == Sweep::Forward {
            // A forward starts a new step: collective ordinals restart so
            // traces match the per-step static graph.
            self.tp.reset_step();
        }
        let mb_tokens = ids.len() / m;
        let mut cur: Option<Tensor> = None;
        let mut kept = Vec::new();
        let steps = rank_steps(self.pp, m, self.stage, self.tpi, sweep);
        for (i, &step) in steps.iter().enumerate() {
            let mb = match step.phase {
                Phase::Forward { mb } | Phase::Backward { mb } => mb,
                Phase::Sync => 0,
            };
            let mut bytes = None;
            match step.op {
                Op::Embed => {
                    let emb = self.embedding.as_mut().expect("stage 0 embeds");
                    let (ids, ws) = (&ids[mb * mb_tokens..(mb + 1) * mb_tokens], &mut self.ws);
                    let x = timed(&mut self.timers.compute_s, || {
                        emb.forward(ids, mb_tokens / seq, seq, ws)
                    });
                    cur = Some(x);
                }
                Op::OutputGrad => {
                    let Command::Backward { dhidden: d } = cmd else {
                        unreachable!("only a backward seeds the output gradient")
                    };
                    let rows = d.dims()[0] / m;
                    cur = Some(timed(&mut self.timers.compute_s, || {
                        d.slice_rows(mb * rows, (mb + 1) * rows)
                    }));
                }
                Op::Recv => cur = self.recv(step.phase)?,
                Op::Bcast { .. } => cur = Some(self.stage_broadcast(cur.take())?),
                Op::Blocks => {
                    let mut x = cur.take().expect("the step input precedes the blocks");
                    let backward = sweep == Sweep::Backward;
                    let n = self.layers.len();
                    for i in 0..n {
                        let (block, comps) = &mut self.layers[if backward { n - 1 - i } else { i }];
                        let ring = &mut Ring {
                            endpoints: std::slice::from_mut(&mut *self.tp),
                            comps: std::slice::from_mut(comps),
                            timers: &mut self.timers,
                        };
                        let y = if backward {
                            block.backward(&x, ring, &mut self.ws)
                        } else {
                            block.forward(&x, mb_tokens / seq, seq, ring, &mut self.ws)
                        };
                        self.ws.recycle_tensor(x);
                        x = y;
                    }
                    cur = Some(x);
                }
                Op::Send => bytes = self.send(step.phase, cur.take())?,
                Op::Keep => kept.extend(cur.take()),
                Op::EmbedBackward => {
                    let (emb, ws) = (self.embedding.as_mut().expect("stage 0"), &mut self.ws);
                    let d = cur.take().expect("the blocks' input gradient");
                    timed(&mut self.timers.compute_s, || emb.backward(&d, ws));
                }
                Op::CodecGrads => {
                    // A dense sum has no codec, and a codec without
                    // parameters (all but the auto-encoders) has nothing
                    // to sync.
                    for comp in self.layers.iter_mut().flat_map(|(_, c)| c).flatten() {
                        self.tp.sync_param_grads(comp, &mut self.timers);
                    }
                }
            }
            self.trace(step, bytes);
            // An inference frees a micro-batch's caches once it is out.
            let mb_done = steps.get(i + 1).is_none_or(|next| next.phase != step.phase);
            if !keep_caches && mb_done {
                self.release_caches();
            }
        }
        if kept.is_empty() {
            return Ok(Response::Done);
        }
        let parts: Vec<&Tensor> = kept.iter().collect();
        Ok(Response::Output {
            y: Tensor::concat_rows(&parts),
        })
    }

    /// Records a boundary or broadcast step's messages when tracing is
    /// on; `bytes` on a metered send.
    fn trace(&self, step: Step, bytes: Option<usize>) {
        if let Some(trace) = &self.trace {
            for (dir, channel, msg) in step.wire(self.stage, self.tp.world, self.tpi) {
                trace.record(dir, channel, msg, bytes);
            }
        }
    }

    /// Broadcasts a tensor decoded on stage rank 0 to all TP peers, or
    /// receives it on a peer rank.
    fn stage_broadcast(&mut self, t: Option<Tensor>) -> Result<Tensor, TransportError> {
        if self.tpi == 0 {
            let t = t.expect("stage rank 0 provides the broadcast value");
            timed(&mut self.timers.wire_s, || {
                (self.bcast_tx.iter_mut()).try_for_each(|tx| tx.send(&t))
            })?;
            Ok(t)
        } else {
            let rx = self.bcast_rx.as_mut().expect("peer broadcast receiver");
            timed(&mut self.timers.wire_s, || rx.recv())
        }
    }

    /// A boundary receive: the upstream activation decoded by the
    /// replica, the downstream gradient through the compressor backward,
    /// or — at sync — the upstream codec's parameter grads, loaded into
    /// the replica.
    fn recv(&mut self, phase: Phase) -> Result<Option<Tensor>, TransportError> {
        let t = &mut self.timers;
        if let Phase::Backward { .. } = phase {
            let b = self.send_b.as_mut().expect("non-final stage sender");
            let dy = timed(&mut t.wire_s, || b.grad_rx.recv())?;
            return Ok(Some(timed(&mut t.encode_s, || b.comp.backward(&dy))));
        }
        let b = self.recv_b.as_mut().expect("non-first stage receiver");
        let msg = timed(&mut t.wire_s, || b.rx.recv())?;
        Ok(match (msg, phase) {
            (FwdMsg::Activation(msg), Phase::Forward { .. }) => {
                Some(timed(&mut t.decode_s, || b.replica.decompress(&msg)))
            }
            (FwdMsg::GradSync(grads), Phase::Sync) => {
                let mut grads = grads.into_iter();
                b.replica
                    .visit_params(&mut |p| p.grad = grads.next().expect("one grad a parameter"));
                None
            }
            _ => panic!("boundary message out of step"),
        })
    }

    /// A boundary send: the activation compressed downstream (its wire
    /// bytes returned, as metered), the gradient dense upstream, or — at
    /// sync — the codec's parameter grads to the downstream replica.
    fn send(&mut self, phase: Phase, x: Option<Tensor>) -> Result<Option<usize>, TransportError> {
        let t = &mut self.timers;
        if let Phase::Backward { .. } = phase {
            let b = self.recv_b.as_mut().expect("non-first stage receiver");
            let d = x.expect("the blocks' input gradient");
            timed(&mut t.wire_s, || b.grad_tx.send(&d))?;
            return Ok(None);
        }
        let b = self.send_b.as_mut().expect("non-final stage sender");
        let (msg, wire) = match phase {
            Phase::Forward { .. } => {
                let x = x.expect("the blocks' output");
                let msg = timed(&mut t.encode_s, || b.comp.compress(&x));
                let wire = msg.wire_bytes(2);
                b.bytes.add(CommBytes {
                    wire,
                    dense: x.len() * 2,
                });
                (FwdMsg::Activation(msg), Some(wire))
            }
            _ => (FwdMsg::GradSync(grads_of(|f| b.comp.visit_params(f))), None),
        };
        timed(&mut t.wire_s, || b.tx.send(&msg))?;
        Ok(wire)
    }

    /// Recycles every cached forward activation into the arena.
    fn release_caches(&mut self) {
        for (block, _) in &mut self.layers {
            block.clear_caches(&mut self.ws);
        }
        if let Some(emb) = self.embedding.as_mut() {
            emb.clear_caches(&mut self.ws);
        }
    }

    /// Visits every parameter this rank owns and updates with SGD:
    /// embeddings (stage 0), layer shards and replicas, layer
    /// compressors, and both halves of adjacent pipeline boundaries.
    fn visit_owned_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        if let Some(emb) = self.embedding.as_mut() {
            emb.visit_params(f);
        }
        for (block, _) in &mut self.layers {
            block.visit_params(f);
        }
        for comp in self.layers.iter_mut().flat_map(|(_, c)| c).flatten() {
            comp.visit_params(f);
        }
        if let Some(b) = self.send_b.as_mut() {
            b.comp.visit_params(f);
        }
        if let Some(b) = self.recv_b.as_mut() {
            b.replica.visit_params(f);
        }
    }

    fn collect_grads(&mut self) -> Response {
        let grads = RankGrads {
            embedding: (self.embedding.as_mut())
                .map_or_else(Vec::new, |e| grads_of(|f| e.visit_params(f))),
            layers: (self.layers.iter_mut())
                .map(|(block, _)| grads_of(|f| block.visit_params(f)))
                .collect(),
            compressors: (self.layers.iter_mut())
                .map(|(_, comps)| {
                    comps
                        .each_mut()
                        .map(|c| grads_of(|f| c.iter_mut().for_each(|c| c.visit_params(f))))
                })
                .collect(),
            boundary_comp: (self.send_b.as_mut())
                .map_or_else(Vec::new, |b| grads_of(|f| b.comp.visit_params(f))),
        };
        Response::Grads {
            rank: self.rank,
            grads,
        }
    }
}
