//! Multi-process execution: a launcher that spawns one OS process per
//! model-parallel rank and drives them over a control-plane connection,
//! plus the worker side that each spawned process runs.
//!
//! # Rendezvous protocol
//!
//! The launcher (rank 0's process, `actcomp run --backend procs`) binds
//! a [`CtrlListener`] and spawns `tp · pp` workers
//! (`actcomp worker --rank N --coord ADDR --transport KIND`: where to
//! dial, nothing else). Each worker then:
//!
//! 1. dials the coordinator and receives the `Launch` frame: the whole
//!    experiment, run spec included, plus the seed and the generation.
//!    It derives its engine configuration with [`RuntimeConfig::of`],
//!    the function the launcher used, binds its data-plane
//!    [`SocketTransport`] and sends `Hello { rank, data_addr }`;
//! 2. receives the full `PeerTable` once every worker has reported,
//!    opens its data links (`build_rank_links`), rebuilds the model
//!    from the shared seed with the exact RNG draw order of the
//!    threaded engine, and replies `Ready`;
//! 3. loops: receive a `Command` frame, hand it to its rank worker
//!    (an ordinary `RankWorker` on its own thread), and return the
//!    `Response` — until `Shutdown`.
//!
//! All processes derive the same `config_hash` (FNV-1a over the engine
//! configuration's JSON and the seed), which the data-plane handshake
//! verifies, so a stray worker from a different run is rejected with a
//! typed error. The fault plan and the generation are left out of it on
//! purpose: a respawned generation runs without the plan, and must
//! still restore the checkpoints its predecessor stamped.
//!
//! # Failure semantics
//!
//! A worker that dies mid-run closes its control connection and its
//! data connections. Data-plane peers observe
//! [`TransportError::PeerClosed`], fail their own step, and exit; the
//! launcher observes the control-plane close (or a timeout) and
//! surfaces [`RuntimeError::RankLost`] (or [`RuntimeError::RankTimeout`])
//! instead of hanging. Remaining children are killed on drop.
//!
//! The launcher drives its workers with the same driver, step for step,
//! as [`ThreadedRuntime`](crate::ThreadedRuntime) drives its rank
//! threads: only the port to each rank differs.

use crate::config::{RuntimeConfig, RuntimeError};
use crate::driver::{Driver, Port};
use crate::link::build_rank_links;
use crate::rank::{Command, Reply, Response};
use crate::report::RuntimeReport;
use crate::runtime::WorkerBuilder;
use crate::wire::{
    decode_msg, encode_msg, put_string, put_u8, put_usize, Reader, WireError, WireMsg,
};
use actcomp_check::ExperimentConfig;
use actcomp_net::{
    CtrlConn, CtrlListener, SocketOptions, SocketTransport, Transport, TransportError,
    TransportKind,
};
use actcomp_nn::BertEncoder;
use actcomp_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Default deadline for workers to dial in and report ready (covers
/// model construction in the workers). Override with the run spec's
/// `rendezvous_timeout_s`.
const DEFAULT_RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(120);
/// Default launcher-side deadline for a step response. Generous: a full
/// BERT-Large step on a loaded machine is minutes — a dead worker is
/// detected within the 10-second liveness window instead, by its
/// closed connection or its missing heartbeats. Override with the run
/// spec's `step_timeout_s`.
const DEFAULT_STEP_TIMEOUT: Duration = Duration::from_secs(600);
/// How long a worker waits for the coordinator and its launch frame.
const WORKER_DIAL_TIMEOUT: Duration = Duration::from_secs(30);
/// How often a worker pings the launcher while its rank thread is busy
/// computing a command, so a slow step is distinguishable from a dead
/// process.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// FNV-1a 64 over the engine configuration's JSON and the run seed —
/// the value every process must agree on for the data-plane handshake
/// to accept.
fn config_hash(cfg: &RuntimeConfig, seed: u64) -> u64 {
    let cfg_json = serde_json::to_string(cfg).expect("config serializes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in cfg_json.bytes().chain(seed.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A duration in seconds from a run spec, or `default` when it is
/// absent or not a valid duration (the checker's `AC0803` rejects those
/// before a launch).
fn secs_or(secs: Option<f64>, default: Duration) -> Duration {
    secs.and_then(|s| Duration::try_from_secs_f64(s).ok())
        .unwrap_or(default)
}

/// The engine configuration a procs run's experiment describes, refused
/// up front when it cannot run across processes. The launcher and every
/// worker derive it with this one function.
fn engine_config(exp: &ExperimentConfig) -> Result<RuntimeConfig, RuntimeError> {
    let cfg = RuntimeConfig::of(exp).ok_or_else(|| RuntimeError::Protocol {
        detail: format!("compressor spec `{}` does not resolve", exp.plan.spec),
    })?;
    cfg.try_validate()?;
    if cfg.trace {
        return Err(RuntimeError::TraceUnsupported);
    }
    Ok(cfg)
}

/// What the launcher ships every worker, as the first frame on its
/// control connection: the experiment (run spec included) and the
/// generation's launch parameters. Configuration reaches a worker by no
/// other channel.
#[derive(Serialize, Deserialize)]
struct Launch {
    cfg: ExperimentConfig,
    seed: u64,
    epoch: u32,
    /// Test hook: this rank exits right after rendezvous.
    fail_rank: Option<usize>,
}

/// Control-plane frames between launcher and workers.
pub(crate) enum CtrlMsg {
    /// Launcher → worker, first: a JSON [`Launch`].
    Launch(String),
    /// Worker → launcher: here I am, my data plane listens at `addr`.
    Hello { rank: usize, data_addr: String },
    /// Launcher → worker: every rank's data-plane address, by index.
    PeerTable { addrs: Vec<String> },
    /// Worker → launcher: links open, model built, command loop armed.
    Ready,
    /// Launcher → worker: one runtime command.
    Cmd(Command),
    /// Worker → launcher: the command's response.
    Resp(Response),
    /// Worker → launcher: still alive, still computing. Sent while a
    /// command runs so the launcher can bound failure detection by the
    /// liveness window instead of the step timeout.
    Heartbeat,
    /// Worker → launcher: the command failed with
    /// [`RuntimeError::Checkpoint`]; the worker exits after sending it.
    CheckpointFailed { detail: String },
}

impl WireMsg for CtrlMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CtrlMsg::Hello { rank, data_addr } => {
                put_u8(out, 1);
                put_usize(out, *rank);
                put_string(out, data_addr);
            }
            CtrlMsg::PeerTable { addrs } => {
                put_u8(out, 2);
                put_usize(out, addrs.len());
                for a in addrs {
                    put_string(out, a);
                }
            }
            CtrlMsg::Ready => put_u8(out, 3),
            CtrlMsg::Cmd(cmd) => {
                put_u8(out, 4);
                cmd.encode(out);
            }
            CtrlMsg::Resp(resp) => {
                put_u8(out, 5);
                resp.encode(out);
            }
            CtrlMsg::Heartbeat => put_u8(out, 6),
            CtrlMsg::Launch(json) => {
                put_u8(out, 7);
                put_string(out, json);
            }
            CtrlMsg::CheckpointFailed { detail } => {
                put_u8(out, 8);
                put_string(out, detail);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.read_u8("control tag")? {
            1 => CtrlMsg::Hello {
                rank: r.read_usize("hello rank")?,
                data_addr: r.read_string("hello addr")?,
            },
            2 => {
                let n = r.read_usize("peer table size")?;
                if n > 1 << 16 {
                    return Err(WireError {
                        what: "peer table size",
                    });
                }
                let mut addrs = Vec::with_capacity(n);
                for _ in 0..n {
                    addrs.push(r.read_string("peer address")?);
                }
                CtrlMsg::PeerTable { addrs }
            }
            3 => CtrlMsg::Ready,
            4 => CtrlMsg::Cmd(Command::decode(r)?),
            5 => CtrlMsg::Resp(Response::decode(r)?),
            6 => CtrlMsg::Heartbeat,
            7 => CtrlMsg::Launch(r.read_string("launch frame")?),
            8 => CtrlMsg::CheckpointFailed {
                detail: r.read_string("checkpoint failure")?,
            },
            _ => {
                return Err(WireError {
                    what: "control tag",
                })
            }
        })
    }
}

pub(crate) fn send_ctrl(conn: &mut CtrlConn, msg: &CtrlMsg) -> Result<(), TransportError> {
    conn.send(&encode_msg(msg))
}

pub(crate) fn recv_ctrl(conn: &mut CtrlConn, timeout: Duration) -> Result<CtrlMsg, RuntimeError> {
    decode_ctrl(&conn.recv(timeout)?)
}

fn decode_ctrl(frame: &[u8]) -> Result<CtrlMsg, RuntimeError> {
    decode_msg(frame).map_err(|e| RuntimeError::Protocol {
        detail: e.to_string(),
    })
}

/// How to launch a multi-process run.
#[derive(Clone)]
pub struct ProcsOptions {
    /// The experiment every worker runs, shipped to each whole. Its run
    /// spec sets the data-plane wire, the bandwidth cap, the step and
    /// rendezvous deadlines, the fault plan and the kernel pool size.
    pub cfg: ExperimentConfig,
    /// Seed for model and compressor construction; all processes draw
    /// the identical parameter and compressor state from it.
    pub seed: u64,
    /// The worker executable; `None` re-executes the current binary
    /// (the CLI's hidden `worker` subcommand).
    pub worker_exe: Option<PathBuf>,
    /// Test hook: this rank exits right after rendezvous, simulating a
    /// mid-run crash.
    pub fail_rank: Option<usize>,
    /// Restart generation: 0 for a fresh run, incremented by the
    /// supervisor on every relaunch after a worker loss. Carried in the
    /// data-plane handshake, so a fenced-off survivor of a previous
    /// generation is refused with a typed handshake error.
    pub epoch: u32,
}

impl ProcsOptions {
    /// Options for a first-generation run of `cfg`.
    pub fn new(cfg: ExperimentConfig, seed: u64) -> ProcsOptions {
        ProcsOptions {
            cfg,
            seed,
            worker_exe: None,
            fail_rank: None,
            epoch: 0,
        }
    }
}

/// Worker processes spawned but not yet handed to the driver, in rank
/// order, with each one's data-plane address once its hello has named
/// it: killed, reaped and their sockets unlinked if the launch fails.
struct Spawned {
    children: Vec<Child>,
    addrs: Vec<String>,
}

impl Drop for Spawned {
    fn drop(&mut self) {
        for (rank, c) in self.children.iter_mut().enumerate() {
            let _ = c.kill();
            let _ = c.wait();
            if let Some(addr) = self.addrs.get(rank) {
                actcomp_net::remove_worker_socket(addr, c.id(), rank);
            }
        }
    }
}

/// The launcher's handle on a multi-process run: the process-mode
/// equivalent of [`ThreadedRuntime`](crate::ThreadedRuntime), driving
/// the same step operations through the same driver, with every rank
/// in its own OS process.
pub struct ProcsRuntime {
    pub(crate) driver: Driver,
    /// The run's config hash — stamped into checkpoint shards so a
    /// restore from a different run is refused.
    tag: u64,
}

impl std::fmt::Debug for ProcsRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.config();
        write!(f, "ProcsRuntime(tp={}, pp={})", c.mp.tp, c.mp.pp)
    }
}

impl ProcsRuntime {
    /// Spawns the worker processes and runs the rendezvous to a fully
    /// connected, ready world.
    ///
    /// # Errors
    ///
    /// Typed errors for invalid configs (validation errors,
    /// [`RuntimeError::TraceUnsupported`],
    /// [`RuntimeError::MpscUnsupported`]), spawn failures, and any worker
    /// that dies or times out during rendezvous
    /// ([`RuntimeError::RankLost`]). Never hangs: every control-plane
    /// wait has a deadline.
    pub fn launch(opts: ProcsOptions) -> Result<ProcsRuntime, RuntimeError> {
        let cfg = engine_config(&opts.cfg)?;
        let spec = opts.cfg.run_spec();
        let kind = spec.transport();
        if kind == TransportKind::Mpsc {
            return Err(RuntimeError::MpscUnsupported);
        }
        let world = cfg.world();
        let tag = config_hash(&cfg, opts.seed);
        let launch = CtrlMsg::Launch(
            serde_json::to_string(&Launch {
                cfg: opts.cfg.clone(),
                seed: opts.seed,
                epoch: opts.epoch,
                fail_rank: opts.fail_rank,
            })
            .map_err(|e| RuntimeError::Protocol {
                detail: format!("launch frame: {e}"),
            })?,
        );
        let exe = match &opts.worker_exe {
            Some(p) => p.clone(),
            None => std::env::current_exe().map_err(|e| RuntimeError::Spawn {
                rank: 0,
                detail: format!("resolving the worker executable: {e}"),
            })?,
        };
        let listener = CtrlListener::bind(kind)?;

        // Spawn all workers, then rendezvous. `spawned` kills the
        // children started so far on any error path, and unlinks the
        // sockets their hellos named.
        let mut spawned = Spawned {
            children: Vec::with_capacity(world),
            addrs: vec![String::new(); world],
        };
        for rank in 0..world {
            let child = std::process::Command::new(&exe)
                .arg("worker")
                .arg("--rank")
                .arg(rank.to_string())
                .arg("--coord")
                .arg(listener.addr())
                .arg("--transport")
                .arg(kind.name())
                .spawn()
                .map_err(|e| RuntimeError::Spawn {
                    rank,
                    detail: e.to_string(),
                })?;
            spawned.children.push(child);
        }
        let rdv = secs_or(spec.rendezvous_timeout_s, DEFAULT_RENDEZVOUS_TIMEOUT);
        let conns = Self::rendezvous(&listener, rdv, &launch, &mut spawned.addrs)?;
        let step_timeout = secs_or(spec.step_timeout_s, DEFAULT_STEP_TIMEOUT);
        let ports = (std::mem::take(&mut spawned.children).into_iter())
            .zip(conns)
            .zip(std::mem::take(&mut spawned.addrs))
            .map(|((child, ctrl), data_addr)| Port::Process {
                child,
                ctrl,
                step_timeout,
                data_addr,
            })
            .collect();
        Ok(ProcsRuntime {
            driver: Driver::new(cfg, ports, Vec::new()),
            tag,
        })
    }

    /// Accepts every worker's dial-in and hands it the launch frame,
    /// distributes the peer table, and waits for all ranks to report
    /// ready. Returns the control connections in rank order; each
    /// rank's data-plane address lands in `addrs` as its hello arrives,
    /// so a failed launch can unlink the sockets already bound.
    fn rendezvous(
        listener: &CtrlListener,
        rdv: Duration,
        launch: &CtrlMsg,
        addrs: &mut [String],
    ) -> Result<Vec<CtrlConn>, RuntimeError> {
        let world = addrs.len();
        let mut conns: Vec<Option<CtrlConn>> = (0..world).map(|_| None).collect();
        for _ in 0..world {
            let mut conn = listener.accept(rdv)?;
            send_ctrl(&mut conn, launch)?;
            match recv_ctrl(&mut conn, rdv)? {
                CtrlMsg::Hello { rank, data_addr } => {
                    if rank >= world || conns[rank].is_some() {
                        return Err(RuntimeError::Protocol {
                            detail: format!("duplicate or out-of-range hello from rank {rank}"),
                        });
                    }
                    addrs[rank] = data_addr;
                    conns[rank] = Some(conn);
                }
                _ => {
                    return Err(RuntimeError::Protocol {
                        detail: "expected a hello frame".to_string(),
                    })
                }
            }
        }
        let mut conns: Vec<CtrlConn> = (conns.into_iter())
            .map(|c| c.expect("all ranks said hello"))
            .collect();
        let table = CtrlMsg::PeerTable {
            addrs: addrs.to_vec(),
        };
        for (rank, conn) in conns.iter_mut().enumerate() {
            send_ctrl(conn, &table).map_err(|error| RuntimeError::RankLost { rank, error })?;
        }
        for (rank, conn) in conns.iter_mut().enumerate() {
            match recv_ctrl(conn, rdv) {
                Ok(CtrlMsg::Ready) => {}
                Ok(_) => {
                    return Err(RuntimeError::Protocol {
                        detail: format!("expected ready from rank {rank}"),
                    })
                }
                Err(RuntimeError::Transport(error)) => {
                    return Err(RuntimeError::RankLost { rank, error })
                }
                Err(e) => return Err(e),
            }
        }
        Ok(conns)
    }

    /// The run configuration.
    pub fn config(&self) -> &RuntimeConfig {
        self.driver.config()
    }

    /// Total rank (process) count.
    pub fn world(&self) -> usize {
        self.config().world()
    }

    /// The run's config hash (the checkpoint/handshake stamp).
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// [`ThreadedRuntime::forward`](crate::ThreadedRuntime::forward),
    /// inputs checked the same way. A worker that dies or goes silent
    /// surfaces as [`RuntimeError::RankLost`] /
    /// [`RuntimeError::RankTimeout`] within the liveness window, here and
    /// in every other operation.
    pub fn forward(
        &mut self,
        ids: &[usize],
        batch: usize,
        seq: usize,
    ) -> Result<Tensor, RuntimeError> {
        self.driver.forward(ids, batch, seq)
    }

    /// [`ThreadedRuntime::infer_submit`](crate::ThreadedRuntime::infer_submit).
    pub fn infer_submit(
        &mut self,
        ids: &[usize],
        nreq: usize,
        seq: usize,
    ) -> Result<(), RuntimeError> {
        self.driver.infer_submit(ids, nreq, seq)
    }

    /// [`ThreadedRuntime::infer_wait`](crate::ThreadedRuntime::infer_wait).
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

    /// [`ThreadedRuntime::backward`](crate::ThreadedRuntime::backward).
    pub fn backward(&mut self, dhidden: &Tensor) -> Result<(), RuntimeError> {
        self.driver.backward(dhidden)
    }

    /// Zeroes every parameter gradient on every rank.
    pub fn zero_grad(&mut self) -> Result<(), RuntimeError> {
        self.driver.zero_grad()
    }

    /// Applies one SGD step with learning rate `lr` on every rank.
    pub fn sgd_step(&mut self, lr: f32) -> Result<(), RuntimeError> {
        self.driver.sgd_step(lr)
    }

    /// Takes a distributed checkpoint at `step`: every rank writes its
    /// parameter shard to `dir/rank-<r>.ckpt`, CRC-trailed and stamped
    /// with the run's config hash and the step, so a restore from the
    /// wrong run (or the wrong point) is refused instead of silently
    /// diverging.
    pub fn checkpoint(&mut self, dir: &Path, step: usize) -> Result<(), RuntimeError> {
        self.driver.checkpoint(dir, step, self.tag)
    }

    /// Restores every rank's parameter shard from the checkpoint taken
    /// at `step` in `dir`. Shards are CRC-verified and must carry this
    /// run's config hash and the requested step.
    pub fn restore(&mut self, dir: &Path, step: usize) -> Result<(), RuntimeError> {
        self.driver.restore(dir, step, self.tag)
    }

    /// Gathers all parameter gradients, reassembled into the serial
    /// executor's visit order — byte-for-byte the same list the threads
    /// backend returns (conformance-test enforced).
    pub fn collect_grads(&mut self) -> Result<Vec<Tensor>, RuntimeError> {
        self.driver.collect_grads()
    }

    /// Gathers per-rank timers and byte counters into the aggregated
    /// report.
    pub fn report(&mut self) -> Result<RuntimeReport, RuntimeError> {
        self.driver.report()
    }

    /// Graceful teardown: shuts every worker down and reaps it.
    pub fn shutdown(mut self) -> Result<(), RuntimeError> {
        self.driver.close(false);
        Ok(())
    }
}

/// Parsed `actcomp worker …` arguments (the hidden subcommand the
/// launcher spawns; not part of the user-facing CLI surface): where to
/// dial. Everything else arrives in the launch frame.
#[derive(Debug, Clone)]
pub struct WorkerArgs {
    /// This worker's rank.
    pub rank: usize,
    /// The launcher's control-plane address.
    pub coord: String,
    /// The wire both planes run over.
    pub kind: TransportKind,
}

/// The launch a worker's first control frame carries.
fn parse_launch(msg: CtrlMsg) -> Result<Launch, RuntimeError> {
    match msg {
        CtrlMsg::Launch(json) => serde_json::from_str(&json).map_err(|e| RuntimeError::Protocol {
            detail: format!("launch frame: {e}"),
        }),
        _ => Err(RuntimeError::Protocol {
            detail: "expected the launch frame".to_string(),
        }),
    }
}

/// The worker process body: rendezvous, rebuild the model, run the
/// command loop until shutdown. Returns typed errors so the CLI can
/// render them and exit nonzero; a clean shutdown returns `Ok`.
pub fn run_worker(args: WorkerArgs) -> Result<(), RuntimeError> {
    let mut ctrl = CtrlConn::connect(args.kind, &args.coord, WORKER_DIAL_TIMEOUT)?;
    let launch = parse_launch(recv_ctrl(&mut ctrl, WORKER_DIAL_TIMEOUT)?)?;
    let cfg = engine_config(&launch.cfg)?;
    let spec = launch.cfg.run_spec();
    let world = cfg.world();
    if args.rank >= world {
        return Err(RuntimeError::Protocol {
            detail: format!("rank {} outside a world of {world}", args.rank),
        });
    }
    if let Some(n) = spec.kernel_threads.filter(|&n| n > 0) {
        actcomp_tensor::pool::set_threads(n);
    }
    let plan = spec.fault.map(|f| f.plan().clone()).unwrap_or_default();

    let mut transport = SocketTransport::bind(
        args.kind,
        args.rank,
        world,
        config_hash(&cfg, launch.seed),
        SocketOptions {
            link_mbps: spec.link_mbps,
            epoch: launch.epoch,
            ..SocketOptions::default()
        },
    )?;
    send_ctrl(
        &mut ctrl,
        &CtrlMsg::Hello {
            rank: args.rank,
            data_addr: transport.local_addr().to_string(),
        },
    )?;
    let rdv = secs_or(spec.rendezvous_timeout_s, DEFAULT_RENDEZVOUS_TIMEOUT);
    let addrs = match recv_ctrl(&mut ctrl, rdv)? {
        CtrlMsg::PeerTable { addrs } => addrs,
        _ => {
            return Err(RuntimeError::Protocol {
                detail: "expected the peer table".to_string(),
            })
        }
    };
    if addrs.len() != world {
        return Err(RuntimeError::Protocol {
            detail: format!("peer table covers {} of {world} ranks", addrs.len()),
        });
    }
    for (peer, addr) in addrs.into_iter().enumerate() {
        transport.set_peer(peer, addr);
    }
    // Frame faults wrap the data plane only — the control plane must
    // stay honest or the launcher could not even learn of the chaos.
    let mut transport: Box<dyn Transport> = if plan.has_frame_faults(args.rank) {
        Box::new(actcomp_net::FaultyTransport::new(
            Box::new(transport),
            plan.clone(),
        ))
    } else {
        Box::new(transport)
    };
    let links = build_rank_links(transport.as_mut(), cfg.mp.tp, cfg.mp.pp)?;

    // Rebuild the identical model and compressor stack every process
    // shares: same seed, same draw order as the threaded engine.
    let mut rng = ChaCha8Rng::seed_from_u64(launch.seed);
    let serial = BertEncoder::new(&mut rng, cfg.mp.bert.clone());
    let recipe = actcomp_mp::CompressorRecipe::draw(&cfg.mp, &mut rng);
    let builder = WorkerBuilder::new(&serial, &cfg, recipe);
    let (cmd_tx, resp_rx, rank_thread) = builder.spawn(args.rank, links);

    send_ctrl(&mut ctrl, &CtrlMsg::Ready)?;
    if launch.fail_rank == Some(args.rank) {
        // Simulated crash for the failure-propagation tests: vanish
        // without shutdown, exactly like a SIGKILLed worker.
        std::process::exit(3);
    }

    let bridged = bridge(&mut ctrl, &cmd_tx, &resp_rx, plan.kill_at(args.rank));
    drop(cmd_tx);
    let _ = rank_thread.join();
    transport.shutdown();
    bridged
}

/// The worker's bridge loop: every command yields exactly one response,
/// except Shutdown which ends the run. While the rank thread computes,
/// the bridge pings the launcher so a slow step never reads as a death.
/// A rank that lost a data-plane link (a peer died) replies its typed
/// error, which ends the worker so the launcher sees the close.
fn bridge(
    ctrl: &mut CtrlConn,
    cmd_tx: &Sender<Command>,
    resp_rx: &Receiver<Reply>,
    kill_at: Option<usize>,
) -> Result<(), RuntimeError> {
    let mut forwards_seen: usize = 0;
    loop {
        let cmd = match decode_ctrl(&ctrl.recv_blocking()?)? {
            CtrlMsg::Cmd(cmd) => cmd,
            _ => {
                return Err(RuntimeError::Protocol {
                    detail: "expected a command frame".to_string(),
                })
            }
        };
        // Both step-starting commands count towards the kill-at fault:
        // training forwards and serving inference batches.
        if matches!(cmd, Command::Forward { .. } | Command::Infer { .. }) {
            if Some(forwards_seen) == kill_at {
                // The injected crash: vanish mid-step without any
                // shutdown, exactly like a SIGKILLed worker.
                std::process::exit(3);
            }
            forwards_seen += 1;
        }
        let shutdown = matches!(cmd, Command::Shutdown);
        cmd_tx.send(cmd).map_err(|_| RuntimeError::Protocol {
            detail: "rank worker exited unexpectedly".to_string(),
        })?;
        if shutdown {
            return Ok(());
        }
        let resp = loop {
            match resp_rx.recv_timeout(HEARTBEAT_INTERVAL) {
                Ok(Err(RuntimeError::Checkpoint { rank, detail })) => {
                    send_ctrl(
                        ctrl,
                        &CtrlMsg::CheckpointFailed {
                            detail: detail.clone(),
                        },
                    )?;
                    return Err(RuntimeError::Checkpoint { rank, detail });
                }
                Ok(reply) => break reply?,
                Err(RecvTimeoutError::Timeout) => send_ctrl(ctrl, &CtrlMsg::Heartbeat)?,
                // The rank thread panicked (a ring peer died).
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(RuntimeError::Protocol {
                        detail: "rank worker failed mid-command".to_string(),
                    })
                }
            }
        };
        send_ctrl(ctrl, &CtrlMsg::Resp(resp))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_check::{Backend, FaultSpec, RunSpec, Wire};

    fn tiny(spec: RunSpec) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.model.layers = 4;
        cfg.model.hidden = 16;
        cfg.model.heads = 4;
        cfg.model.ff_hidden = 32;
        cfg.model.vocab = 32;
        cfg.model.max_seq = 8;
        cfg.batch.micro_batch = 2;
        cfg.batch.seq = 4;
        cfg.plan.spec = "T2".to_string();
        cfg.runtime = Some(spec);
        cfg
    }

    fn launch_frame(json: &str) -> Vec<u8> {
        encode_msg(&CtrlMsg::Launch(json.to_string()))
    }

    #[test]
    fn workers_derive_the_launchers_engine_from_the_launch_frame() {
        let cfg = tiny(RunSpec {
            backend: Backend::Procs,
            transport: Some(Wire(TransportKind::Tcp)),
            link_mbps: Some(200.0),
            fault: Some(FaultSpec::parse("kill:rank=1@step=3").expect("parses")),
            kernel_threads: Some(1),
            chunk_rows: Some(1),
            micro_batches: Some(2),
            ..RunSpec::default()
        });
        let seed = u64::MAX - 3; // exact through JSON
        let json = serde_json::to_string(&Launch {
            cfg: cfg.clone(),
            seed,
            epoch: 2,
            fail_rank: Some(1),
        })
        .expect("serializes");
        let frame = launch_frame(&json);
        let got = parse_launch(decode_msg(&frame).expect("decodes")).expect("parses");
        assert_eq!(got.cfg, cfg);
        assert_eq!((got.seed, got.epoch, got.fail_rank), (seed, 2, Some(1)));
        let ours = engine_config(&cfg).expect("launcher engine");
        let theirs = engine_config(&got.cfg).expect("worker engine");
        assert_eq!(theirs, ours);
        assert_eq!(config_hash(&theirs, got.seed), config_hash(&ours, seed));
    }

    #[test]
    fn hostile_launch_frames_are_typed_errors() {
        let protocol = |r: Result<Launch, RuntimeError>| match r {
            Err(RuntimeError::Protocol { detail }) => detail,
            Err(e) => panic!("expected a protocol error, got {e}"),
            Ok(_) => panic!("expected a protocol error, got a launch"),
        };
        assert!(protocol(parse_launch(CtrlMsg::Ready)).contains("expected the launch"));
        assert!(protocol(parse_launch(CtrlMsg::Launch("{".to_string()))).contains("launch frame"));
        // A label that does not parse is refused with its code.
        let good = serde_json::to_string(&Launch {
            cfg: tiny(RunSpec::default()),
            seed: 7,
            epoch: 0,
            fail_rank: None,
        })
        .expect("serializes");
        let bad = good.replace(r#""backend":"threads""#, r#""backend":"mpi""#);
        assert_ne!(bad, good);
        let detail = protocol(parse_launch(
            decode_msg(&launch_frame(&bad)).expect("decodes"),
        ));
        assert!(detail.contains("AC0301"), "{detail}");
        // Truncated frames never reach the parser.
        let frame = launch_frame(&good);
        for cut in [1, 5, frame.len() - 1] {
            assert!(
                decode_msg::<CtrlMsg>(&frame[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // A spec that cannot run across processes is refused up front.
        let traced = tiny(RunSpec {
            trace: Some(true),
            ..RunSpec::default()
        });
        assert!(matches!(
            engine_config(&traced),
            Err(RuntimeError::TraceUnsupported)
        ));
    }
}
