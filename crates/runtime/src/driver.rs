//! The one driver behind both execution backends.
//!
//! It owns the run configuration, checks every forward, inference and
//! backward command's inputs ([`RuntimeConfig::check_command`]) and
//! reaches each rank through one command/response [`Port`]: a channel
//! pair to a rank thread of this process
//! ([`ThreadedRuntime`](crate::ThreadedRuntime)) or the control
//! connection to a worker process ([`ProcsRuntime`](crate::ProcsRuntime)).
//! Every step operation is written here once; the two engine handles
//! only build the ports.
//!
//! A lost rank — a closed channel or connection, a link that failed
//! under it, a silent worker — is a typed [`RuntimeError::RankLost`] or
//! [`RuntimeError::RankTimeout`], never a panic or a hang, and the world
//! stays lost: every later operation returns the same error without
//! dispatching anything.

use crate::config::{RuntimeConfig, RuntimeError};
use crate::procs::{recv_ctrl, send_ctrl, CtrlMsg};
use crate::rank::{Command, RankGrads, Reply, Response};
use crate::report::RuntimeReport;
use actcomp_check::TraceEvent;
use actcomp_mp::stage_offsets;
use actcomp_mp::tp::interleave;
use actcomp_net::{CtrlConn, Transport, TransportError};
use actcomp_tensor::Tensor;
use std::path::Path;
use std::process::Child;
use std::sync::mpsc::{Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How much total control-plane silence (no response, no heartbeat) the
/// driver tolerates from a worker process that owes it a reply.
/// Detection of a hung rank is bounded by this window, not the step
/// timeout.
const LIVENESS_WINDOW: Duration = Duration::from_secs(10);

/// The driver's end of one rank.
pub(crate) enum Port {
    /// A rank thread of this process. Its reply channel is FIFO in its
    /// own command order, so overlapped commands (the serving engine
    /// keeps several inference batches in flight) demux correctly.
    Thread {
        tx: Sender<Command>,
        rx: Receiver<Reply>,
        handle: JoinHandle<()>,
    },
    /// A worker process and its control connection. `step_timeout`
    /// bounds a reply backed by heartbeats; `data_addr` is where the
    /// worker said its data plane listens, a socket file to unlink once
    /// the process is reaped (a crashed or killed worker never did).
    Process {
        child: Child,
        ctrl: CtrlConn,
        step_timeout: Duration,
        data_addr: String,
    },
}

/// The loss of a rank whose channel closed under the driver.
fn closed(rank: usize, what: &str) -> RuntimeError {
    RuntimeError::RankLost {
        rank,
        error: TransportError::PeerClosed {
            rank: Some(rank),
            what: what.to_string(),
        },
    }
}

impl Port {
    fn send(&mut self, rank: usize, cmd: &Command) -> Result<(), RuntimeError> {
        match self {
            Port::Thread { tx, .. } => {
                (tx.send(cmd.clone())).map_err(|_| closed(rank, "sending a command"))
            }
            Port::Process { ctrl, .. } => send_ctrl(ctrl, &CtrlMsg::Cmd(cmd.clone()))
                .map_err(|error| RuntimeError::RankLost { rank, error }),
        }
    }

    /// The rank's reply to its oldest unanswered command. A worker
    /// process heartbeats while its rank thread computes, so the wait
    /// tolerates up to the step timeout of heartbeat-backed computation
    /// but only [`LIVENESS_WINDOW`] of silence.
    fn recv(&mut self, rank: usize) -> Result<Response, RuntimeError> {
        let (ctrl, step_timeout) = match self {
            Port::Thread { rx, .. } => {
                return rx
                    .recv()
                    .unwrap_or_else(|_| Err(closed(rank, "computing a reply")))
            }
            Port::Process {
                ctrl, step_timeout, ..
            } => (ctrl, *step_timeout),
        };
        let deadline = Instant::now() + step_timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(RuntimeError::RankTimeout {
                    rank,
                    after: step_timeout,
                });
            }
            let window = LIVENESS_WINDOW.min(deadline - now);
            match recv_ctrl(ctrl, window) {
                Ok(CtrlMsg::Heartbeat) => {}
                Ok(CtrlMsg::Resp(resp)) => return Ok(resp),
                Ok(CtrlMsg::CheckpointFailed { detail }) => {
                    return Err(RuntimeError::Checkpoint { rank, detail })
                }
                Ok(_) => {
                    return Err(RuntimeError::Protocol {
                        detail: format!("expected a response from rank {rank}"),
                    })
                }
                Err(RuntimeError::Transport(TransportError::Timeout { .. })) => {
                    return Err(RuntimeError::RankTimeout {
                        rank,
                        after: window,
                    })
                }
                Err(RuntimeError::Transport(error)) => {
                    return Err(RuntimeError::RankLost { rank, error })
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Drives a world of ranks, one [`Port`] each, indexed by rank.
pub(crate) struct Driver {
    cfg: RuntimeConfig,
    ports: Vec<Port>,
    /// Transports backing rank threads' links; kept alive (acceptor
    /// threads, sockets) until after the threads join.
    transports: Vec<Box<dyn Transport>>,
    /// Rows of the forward a backward would consume
    /// ([`RuntimeConfig::check_command`]).
    outstanding: Option<usize>,
    /// The first rank failure; once set, the world is lost.
    lost: Option<RuntimeError>,
}

impl Driver {
    pub fn new(cfg: RuntimeConfig, ports: Vec<Port>, transports: Vec<Box<dyn Transport>>) -> Self {
        Driver {
            cfg,
            ports,
            transports,
            outstanding: None,
            lost: None,
        }
    }

    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Remembers the first rank failure `r` carries: the world stays
    /// lost.
    fn mark<T>(&mut self, r: Result<T, RuntimeError>) -> Result<T, RuntimeError> {
        if let Err(e) = &r {
            self.lost.get_or_insert_with(|| e.clone());
        }
        r
    }

    /// Sends one command to every rank.
    fn send_all(&mut self, cmd: &Command) -> Result<(), RuntimeError> {
        if let Some(e) = &self.lost {
            return Err(e.clone());
        }
        let sent = (self.ports.iter_mut().enumerate()).try_for_each(|(rank, p)| p.send(rank, cmd));
        self.mark(sent)
    }

    /// One reply per rank, in rank order, for the oldest outstanding
    /// command. Per-rank ports keep this correct with several commands
    /// in flight: rank `r`'s next reply always answers its oldest
    /// unanswered command.
    fn collect(&mut self) -> Result<Vec<Response>, RuntimeError> {
        if let Some(e) = &self.lost {
            return Err(e.clone());
        }
        let replies = (self.ports.iter_mut().enumerate())
            .map(|(rank, p)| p.recv(rank))
            .collect();
        self.mark(replies)
    }

    /// Runs a command every rank answers with `Done`.
    fn run(&mut self, cmd: Command) -> Result<(), RuntimeError> {
        self.send_all(&cmd)?;
        self.collect().map(drop)
    }

    /// Runs `cmd` on every rank and unpacks each rank's reply with
    /// `take`, in rank order.
    fn gather<T>(
        &mut self,
        cmd: Command,
        take: impl Fn(Response) -> Option<T>,
    ) -> Result<Vec<T>, RuntimeError> {
        self.send_all(&cmd)?;
        (self.collect()?.into_iter())
            .map(|r| {
                take(r).ok_or_else(|| RuntimeError::Protocol {
                    detail: "a rank answered with the wrong reply".to_string(),
                })
            })
            .collect()
    }

    /// Checks a forward, inference or backward command's inputs
    /// ([`RuntimeConfig::check_command`]) and sends it to every rank;
    /// nothing is dispatched on an error.
    fn dispatch(&mut self, cmd: Command) -> Result<(), RuntimeError> {
        self.outstanding = self.cfg.check_command(&cmd, self.outstanding)?;
        self.send_all(&cmd)
    }

    /// The last stage's answer to the oldest outstanding forward or
    /// inference.
    fn output(&mut self) -> Result<Tensor, RuntimeError> {
        let y = (self.collect()?.into_iter()).find_map(|r| match r {
            Response::Output { y } => Some(y),
            _ => None,
        });
        y.ok_or_else(|| RuntimeError::Protocol {
            detail: "no rank produced an output".to_string(),
        })
    }

    pub fn forward(
        &mut self,
        ids: &[usize],
        batch: usize,
        seq: usize,
    ) -> Result<Tensor, RuntimeError> {
        self.dispatch(Command::Forward {
            ids: ids.to_vec(),
            batch,
            seq,
        })?;
        self.output()
    }

    pub fn infer_submit(
        &mut self,
        ids: &[usize],
        nreq: usize,
        seq: usize,
    ) -> Result<(), RuntimeError> {
        self.dispatch(Command::Infer {
            ids: ids.to_vec(),
            batch: nreq,
            seq,
            micro: nreq,
        })
    }

    pub fn infer_wait(&mut self) -> Result<Tensor, RuntimeError> {
        self.output()
    }

    pub fn infer(
        &mut self,
        ids: &[usize],
        nreq: usize,
        seq: usize,
    ) -> Result<Tensor, RuntimeError> {
        self.infer_submit(ids, nreq, seq)?;
        self.infer_wait()
    }

    pub fn backward(&mut self, dhidden: &Tensor) -> Result<(), RuntimeError> {
        self.dispatch(Command::Backward {
            dhidden: dhidden.clone(),
        })?;
        self.collect().map(drop)
    }

    pub fn zero_grad(&mut self) -> Result<(), RuntimeError> {
        self.run(Command::ZeroGrad)
    }

    pub fn sgd_step(&mut self, lr: f32) -> Result<(), RuntimeError> {
        self.run(Command::SgdStep { lr })
    }

    /// Every rank writes its parameter shard to `dir/rank-<r>.ckpt`,
    /// stamped with `step` and the run's config hash `tag`.
    pub fn checkpoint(&mut self, dir: &Path, step: usize, tag: u64) -> Result<(), RuntimeError> {
        let dir = dir.to_string_lossy().into_owned();
        self.run(Command::Checkpoint { dir, step, tag })
    }

    /// Every rank loads its shard back; it must verify and carry `step`
    /// and `tag`.
    pub fn restore(&mut self, dir: &Path, step: usize, tag: u64) -> Result<(), RuntimeError> {
        let dir = dir.to_string_lossy().into_owned();
        self.run(Command::Restore { dir, step, tag })
    }

    pub fn collect_grads(&mut self) -> Result<Vec<Tensor>, RuntimeError> {
        let grads = self.gather(Command::CollectGrads, |r| match r {
            Response::Grads { grads, .. } => Some(grads),
            _ => None,
        })?;
        Ok(assemble_grads(&self.cfg, &grads))
    }

    pub fn report(&mut self) -> Result<RuntimeReport, RuntimeError> {
        let ranks = self.gather(Command::Report, |r| match r {
            Response::Report { report } => Some(*report),
            _ => None,
        })?;
        let c = &self.cfg;
        Ok(RuntimeReport::from_ranks(
            c.mp.tp,
            c.mp.pp,
            c.micro_batches,
            ranks,
        ))
    }

    /// Every rank's recorded comm events, by rank — `None` when the
    /// world was built without `trace`.
    pub fn take_trace(&mut self) -> Result<Option<Vec<Vec<TraceEvent>>>, RuntimeError> {
        if !self.cfg.trace {
            return Ok(None);
        }
        self.gather(Command::TakeTrace, |r| match r {
            Response::Trace { events, .. } => Some(events),
            _ => None,
        })
        .map(Some)
    }

    /// Shuts every rank down and waits for it — joins each thread,
    /// reaps each process, killing it first when `kill` — then releases
    /// the transports. A second call finds nothing left to close.
    pub fn close(&mut self, kill: bool) {
        for (rank, port) in self.ports.iter_mut().enumerate() {
            // A rank that already exited has dropped its end; that is
            // fine during teardown.
            let _ = port.send(rank, &Command::Shutdown);
        }
        for (rank, port) in self.ports.drain(..).enumerate() {
            match port {
                Port::Thread { handle, .. } => {
                    let _ = handle.join();
                }
                Port::Process {
                    mut child,
                    data_addr,
                    ..
                } => {
                    if kill {
                        let _ = child.kill();
                    }
                    let _ = child.wait();
                    actcomp_net::remove_worker_socket(&data_addr, child.id(), rank);
                }
            }
        }
        for t in self.transports.iter_mut() {
            t.shutdown();
        }
    }
}

impl Drop for Driver {
    fn drop(&mut self) {
        self.close(true);
    }
}

/// Reassembles per-rank gradient snapshots (indexed by rank) into the
/// exact order
/// [`MpBert::visit_all_params`](actcomp_mp::MpBert::visit_all_params)
/// visits them.
fn assemble_grads(cfg: &RuntimeConfig, grads: &[RankGrads]) -> Vec<Tensor> {
    let (tp, layers) = (cfg.mp.tp, cfg.mp.bert.layers);
    let offsets = stage_offsets(layers, cfg.mp.pp);
    // Every layer in order, as its stage's ranks and its index there.
    let owners: Vec<(&[RankGrads], usize)> = (0..layers)
        .map(|l| {
            let stage = offsets
                .iter()
                .rposition(|&o| o <= l)
                .expect("layer 0 starts stage 0");
            (&grads[stage * tp..(stage + 1) * tp], l - offsets[stage])
        })
        .collect();
    let mut out = grads[0].embedding.clone();
    for &(ranks, li) in &owners {
        let lists: Vec<&[Tensor]> = ranks.iter().map(|g| g.layers[li].as_slice()).collect();
        out.extend(interleave(&lists).into_iter().cloned());
    }
    for &(ranks, li) in &owners {
        for point in 0..2 {
            for g in ranks {
                out.extend(g.compressors[li][point].iter().cloned());
            }
        }
    }
    for b in 0..cfg.mp.pp - 1 {
        out.extend(grads[b * tp].boundary_comp.iter().cloned());
    }
    out
}
