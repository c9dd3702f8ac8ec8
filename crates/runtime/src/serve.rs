//! Forward-only inference serving with continuous request batching.
//!
//! The serving engine keeps the rank workers of a [`ThreadedRuntime`]
//! or [`ProcsRuntime`] resident across requests — no per-request spawn
//! or rendezvous — and puts an admission queue in front of them:
//!
//! - clients submit fixed-length requests through a cloneable
//!   [`ServeHandle`] and get back a [`Ticket`] they can wait on;
//! - a dispatcher thread coalesces queued requests into engine batches
//!   of up to [`ServeConfig::max_batch`] requests under one admission
//!   rule: every member of a batch is awaited until the
//!   [`ServeConfig::batch_window`] deadline, which opens at the batch's
//!   first arrival when nothing is in flight and the moment a slot frees
//!   when something is — so the window bounds both the fill time of a
//!   batch and the wait for the first member of the next one, and the
//!   dispatcher blocks indefinitely only on an idle engine. A batch that
//!   closes on its deadline has seen the queue empty, so the dispatcher
//!   retires next instead of opening another window: a lone request
//!   costs one window plus its service time, never two windows;
//! - each request runs as its **own micro-batch** of the GPipe fill, so
//!   the per-request arithmetic — every GEMM shape, every collective,
//!   every compressor call — is identical to running the request alone.
//!   Batching changes throughput, not bits (test-enforced);
//! - with [`ServeConfig::depth`] ≥ 2 the dispatcher submits the next
//!   batch while the current one computes (command channels buffer;
//!   [`ServeStats::overlapped`] counts how often it managed to), so
//!   stage 0 starts batch *N + 1* the moment its last micro-batch of
//!   batch *N* retires instead of waiting for the whole pipeline to
//!   drain — new arrivals enter at micro-batch boundaries, which is
//!   what makes the batching *continuous*.
//!
//! Failures are typed, never hangs: a lost or silent rank on either
//! backend surfaces from the driver as [`RuntimeError::RankLost`] /
//! [`RuntimeError::RankTimeout`] and fails every in-flight and queued
//! ticket with [`ServeError::Engine`] carrying that error.
//!
//! The module also ships the synthetic load generator behind
//! `actcomp serve`: closed-loop (a fixed set of clients, each
//! submitting its next request when the previous completes) and
//! open-loop (fixed-rate arrivals independent of completions, each
//! timed from the instant it was due) drivers that measure throughput
//! and p50/p95/p99 latency.
//!
//! One sharp edge worth stating: with error feedback enabled the
//! boundary compressors carry residual state across calls, so outputs
//! depend on the order requests reach the compressor — still
//! deterministic for a fixed arrival order, but not independent of
//! batching history the way stateless codecs are.

use crate::config::{RuntimeConfig, RuntimeError};
use crate::driver::Driver;
use crate::procs::ProcsRuntime;
use crate::report::RuntimeReport;
use crate::runtime::ThreadedRuntime;
use actcomp_check::RunSpec;
use actcomp_tensor::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The execution engine a [`ServeEngine`] dispatches to.
pub enum ServeBackend {
    /// Rank threads in this process, over any
    /// [`Transport`](actcomp_net::Transport) set (mpsc/uds/tcp).
    Threads(ThreadedRuntime),
    /// One OS process per rank (control-socket rendezvous, heartbeat
    /// liveness, typed worker-loss errors).
    Procs(ProcsRuntime),
}

impl ServeBackend {
    /// The driver behind either backend.
    fn driver(&mut self) -> &mut Driver {
        match self {
            ServeBackend::Threads(rt) => &mut rt.driver,
            ServeBackend::Procs(rt) => &mut rt.driver,
        }
    }
}

/// Typed serving failures. Cloneable so one engine failure can fail
/// every affected ticket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request itself is malformed (wrong token count).
    BadRequest {
        /// What was wrong.
        detail: String,
    },
    /// The engine has shut down (or died) and accepts no more requests.
    Stopped,
    /// The engine failed: a rank was lost
    /// ([`RuntimeError::RankLost`]), went silent
    /// ([`RuntimeError::RankTimeout`]), or the control plane broke.
    Engine(RuntimeError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::Stopped => write!(f, "serving engine stopped"),
            ServeError::Engine(e) => write!(f, "serving engine: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RuntimeError> for ServeError {
    fn from(e: RuntimeError) -> Self {
        ServeError::Engine(e)
    }
}

/// Admission-queue and batching knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Most requests coalesced into one engine batch.
    pub max_batch: usize,
    /// The admission deadline. With nothing in flight it opens at a
    /// batch's first arrival and bounds how long the batch waits to
    /// fill; with a batch in flight it opens the moment a slot frees and
    /// also bounds the wait for the next batch's first member — and so
    /// how long the retire of the oldest batch can be held back. A batch
    /// that closes on the deadline (the queue ran dry) is followed by a
    /// retire, not by a second window, so an isolated request waits one
    /// window plus its service time.
    ///
    /// Zero never waits: it dispatches whatever is already queued, up to
    /// `max_batch`. **Behaviour change:** before the one-rule dispatcher
    /// a zero window closed every batch after its first request (one
    /// request per batch however many were queued), which contradicted
    /// this sentence; callers that want one request per batch set
    /// `max_batch = 1`.
    pub batch_window: Duration,
    /// Engine batches in flight at once. `2` overlaps admission of the
    /// next batch with the current one (continuous batching); `1`
    /// drains each batch before dispatching the next — the
    /// one-batch-at-a-time baseline the bench compares against.
    pub depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            batch_window: Duration::from_micros(200),
            depth: 2,
        }
    }
}

impl ServeConfig {
    /// The serving knobs of a run spec, defaulted field by field.
    pub fn of(spec: &RunSpec) -> ServeConfig {
        let d = ServeConfig::default();
        ServeConfig {
            max_batch: spec.max_batch.unwrap_or(d.max_batch),
            batch_window: spec
                .batch_window_us
                .map_or(d.batch_window, Duration::from_micros),
            depth: spec.depth.unwrap_or(d.depth),
        }
    }
}

/// Counters the dispatcher keeps while serving.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct ServeStats {
    /// Requests completed successfully.
    pub completed: usize,
    /// Requests failed with a typed error.
    pub failed: usize,
    /// Engine batches dispatched.
    pub batches: usize,
    /// Batches dispatched while at least one other was still in flight:
    /// how often the engine actually ran more than one batch deep.
    pub overlapped: usize,
    /// `batch_hist[i]` = batches that coalesced exactly `i + 1`
    /// requests.
    pub batch_hist: Vec<usize>,
}

impl ServeStats {
    fn record_batch(&mut self, n: usize, overlapped: bool) {
        self.batches += 1;
        self.overlapped += usize::from(overlapped);
        if self.batch_hist.len() < n {
            self.batch_hist.resize(n, 0);
        }
        self.batch_hist[n - 1] += 1;
    }
}

/// One queued request.
struct Request {
    ids: Vec<usize>,
    reply: Sender<Result<(Tensor, Instant), ServeError>>,
}

/// What flows down the admission queue. `Stop` is the engine's own
/// shutdown sentinel: it lets [`ServeEngine::finish`] terminate the
/// dispatcher even while client [`ServeHandle`] clones are still alive
/// (requests enqueued before the sentinel are still served — the
/// channel is FIFO).
enum Msg {
    Req(Request),
    Stop,
}

/// A submitted request's receipt: wait on it for the final hidden
/// states `[seq, hidden]` or a typed error.
pub struct Ticket {
    rx: Receiver<Result<(Tensor, Instant), ServeError>>,
}

impl Ticket {
    /// Blocks until the request completes.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        self.wait_at().map(|(y, _)| y)
    }

    /// Blocks until the request completes, returning the instant the
    /// dispatcher finished it (latency measured at completion, not at
    /// whenever the caller got around to receiving).
    pub fn wait_at(self) -> Result<(Tensor, Instant), ServeError> {
        match self.rx.recv() {
            Ok(r) => r,
            // The dispatcher dropped the reply sender without answering
            // (engine torn down mid-request).
            Err(_) => Err(ServeError::Stopped),
        }
    }
}

/// A cloneable submission handle: many client threads can feed the same
/// admission queue.
#[derive(Clone)]
pub struct ServeHandle {
    tx: Sender<Msg>,
    seq: usize,
    cfg: Arc<RuntimeConfig>,
}

impl ServeHandle {
    /// Submits one request of exactly `seq` token ids, each inside the
    /// vocabulary; returns its ticket immediately. Malformed requests
    /// fail the ticket without touching the queue.
    pub fn submit(&self, ids: Vec<usize>) -> Ticket {
        let (reply, rx) = channel();
        if let Err(e) = self.cfg.check_ids(&ids, 1, self.seq) {
            let _ = reply.send(Err(ServeError::BadRequest {
                detail: e.to_string(),
            }));
        } else {
            // If the dispatcher is gone (engine finished or died) the
            // message — and with it the reply sender — is dropped, and
            // the ticket reads as Stopped.
            let _ = self.tx.send(Msg::Req(Request { ids, reply }));
        }
        Ticket { rx }
    }

    /// Tokens per request this engine serves.
    pub fn seq(&self) -> usize {
        self.seq
    }
}

/// The serving engine: resident rank workers behind an admission queue
/// with continuous request batching. See the module docs for the
/// queueing semantics.
pub struct ServeEngine {
    tx: Option<Sender<Msg>>,
    dispatcher: Option<JoinHandle<ServeBackend>>,
    stats: Arc<Mutex<ServeStats>>,
    seq: usize,
    cfg: Arc<RuntimeConfig>,
}

impl ServeEngine {
    /// Starts serving on `backend`. The backend should be built
    /// forward-only: `micro_batches = 1` and `tokens = seq`, so the
    /// boundary/collective compressors are sized for exactly one
    /// request's activation — the serving micro-batch.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a zero `max_batch` or `depth`.
    pub fn start(mut backend: ServeBackend, cfg: ServeConfig) -> Result<ServeEngine, ServeError> {
        if cfg.max_batch == 0 || cfg.depth == 0 {
            return Err(ServeError::BadRequest {
                detail: "max_batch and depth must be at least 1".to_string(),
            });
        }
        let rc = Arc::new(backend.driver().config().clone());
        let seq = rc.mp.tokens / rc.micro_batches;
        let stats = Arc::new(Mutex::new(ServeStats::default()));
        let (tx, rx) = channel::<Msg>();
        let stats2 = Arc::clone(&stats);
        let dispatcher = std::thread::Builder::new()
            .name("actcomp-serve".to_string())
            .spawn(move || dispatch(backend, cfg, seq, rx, stats2))
            .expect("spawn serve dispatcher");
        Ok(ServeEngine {
            tx: Some(tx),
            dispatcher: Some(dispatcher),
            stats,
            seq,
            cfg: rc,
        })
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            tx: self.tx.as_ref().expect("engine running").clone(),
            seq: self.seq,
            cfg: Arc::clone(&self.cfg),
        }
    }

    /// Tokens per request this engine serves.
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        self.stats.lock().expect("stats lock").clone()
    }

    /// Stops admission, drains every request queued before this call
    /// plus everything in flight, and returns the final counters plus
    /// the backend's per-rank phase report (`None` if a rank was lost or
    /// the dispatcher died). Outstanding
    /// `ServeHandle` clones keep working until their tickets resolve;
    /// submissions racing past `finish` read as [`ServeError::Stopped`].
    pub fn finish(mut self) -> (ServeStats, Option<RuntimeReport>) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(Msg::Stop);
        }
        let report = match self.dispatcher.take().expect("dispatcher running").join() {
            Ok(mut backend) => backend.driver().report().ok(),
            Err(_) => None,
        };
        let stats = self.stats.lock().expect("stats lock").clone();
        (stats, report)
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(Msg::Stop);
        }
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
    }
}

/// The dispatcher body: admit → submit → retire, keeping up to
/// `cfg.depth` engine batches in flight.
fn dispatch(
    mut backend: ServeBackend,
    cfg: ServeConfig,
    seq: usize,
    rx: Receiver<Msg>,
    stats: Arc<Mutex<ServeStats>>,
) -> ServeBackend {
    let mut inflight: VecDeque<Vec<Request>> = VecDeque::new();
    let mut closed = false;

    loop {
        // Admit while there is capacity. One rule for every member of a
        // batch: wait for it until the batch-window deadline. With work
        // in flight the window opens now, so a free slot never commits
        // to a blocking retire while the client it just answered is
        // still submitting, and a retire is never held back by more
        // than one window; with nothing in flight there is nothing to
        // retire, and the window opens at the first arrival.
        let mut ran_dry = false;
        while !closed && !ran_dry && inflight.len() < cfg.depth {
            let mut batch: Vec<Request> = Vec::new();
            let mut deadline = (!inflight.is_empty()).then(|| Instant::now() + cfg.batch_window);
            while batch.len() < cfg.max_batch && !closed {
                let msg = match deadline {
                    None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                    // A spent window still takes what is already queued.
                    Some(d) => rx.recv_timeout(d.saturating_duration_since(Instant::now())),
                };
                match msg {
                    Ok(Msg::Req(r)) => {
                        batch.push(r);
                        deadline.get_or_insert_with(|| Instant::now() + cfg.batch_window);
                    }
                    Ok(Msg::Stop) | Err(RecvTimeoutError::Disconnected) => closed = true,
                    // The queue was empty at the deadline: whatever was
                    // admitted goes out, and the next stop is the retire —
                    // a second window on top of this one would only hold
                    // back replies nobody is queueing behind.
                    Err(RecvTimeoutError::Timeout) => {
                        ran_dry = true;
                        break;
                    }
                }
            }
            if batch.is_empty() {
                break;
            }
            let ids: Vec<usize> = batch.iter().flat_map(|r| r.ids.iter().copied()).collect();
            match backend.driver().infer_submit(&ids, batch.len(), seq) {
                Ok(()) => {
                    stats
                        .lock()
                        .expect("stats lock")
                        .record_batch(batch.len(), !inflight.is_empty());
                    inflight.push_back(batch);
                }
                Err(e) => {
                    let e = ServeError::from(e);
                    fail_batch(batch, &e, &stats);
                    while let Some(b) = inflight.pop_front() {
                        let _ = backend.driver().infer_wait();
                        fail_batch(b, &e, &stats);
                    }
                    return answer_until_stop(rx, e, backend, &stats);
                }
            }
        }

        // Retire the oldest in-flight batch: split the request-major
        // output rows back onto the tickets.
        if let Some(batch) = inflight.pop_front() {
            match backend.driver().infer_wait() {
                Ok(y) => {
                    let done = Instant::now();
                    let mut st = stats.lock().expect("stats lock");
                    for (i, r) in batch.into_iter().enumerate() {
                        let rows = y.slice_rows(i * seq, (i + 1) * seq);
                        st.completed += 1;
                        let _ = r.reply.send(Ok((rows, done)));
                    }
                }
                Err(e) => {
                    // Everything else in flight shares the dead world.
                    let e = ServeError::from(e);
                    fail_batch(batch, &e, &stats);
                    while let Some(b) = inflight.pop_front() {
                        fail_batch(b, &e, &stats);
                    }
                    return answer_until_stop(rx, e, backend, &stats);
                }
            }
        } else if closed {
            return backend;
        }
    }
}

/// After a fatal backend error the dispatcher keeps answering incoming
/// requests with the typed error until the engine is told to stop (or
/// every handle is gone) — clients must never hang on a dead world.
fn answer_until_stop(
    rx: Receiver<Msg>,
    e: ServeError,
    backend: ServeBackend,
    stats: &Arc<Mutex<ServeStats>>,
) -> ServeBackend {
    loop {
        match rx.recv() {
            Ok(Msg::Req(r)) => {
                stats.lock().expect("stats lock").failed += 1;
                let _ = r.reply.send(Err(e.clone()));
            }
            Ok(Msg::Stop) | Err(_) => return backend,
        }
    }
}

fn fail_batch(batch: Vec<Request>, e: &ServeError, stats: &Arc<Mutex<ServeStats>>) {
    let mut st = stats.lock().expect("stats lock");
    for r in batch {
        st.failed += 1;
        let _ = r.reply.send(Err(e.clone()));
    }
}

// ---------------------------------------------------------------------
// Synthetic load generation
// ---------------------------------------------------------------------

/// Arrival process for the synthetic load generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// `clients` concurrent loops, each submitting its next request the
    /// moment the previous one completes — measures saturated
    /// throughput.
    Closed {
        /// Concurrent client loops.
        clients: usize,
    },
    /// Arrivals at a fixed rate (requests per second), independent of
    /// completions — measures latency under a target offered load.
    Open {
        /// Offered load in requests per second.
        rate: f64,
    },
}

/// One load-generation run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Total requests to issue.
    pub requests: usize,
    /// Arrival process.
    pub arrival: Arrival,
    /// Vocabulary size for the synthetic token ids.
    pub vocab: usize,
    /// Seed for the synthetic request streams.
    pub seed: u64,
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests completed successfully.
    pub completed: usize,
    /// Requests that failed with a typed error.
    pub failed: usize,
    /// First submission to last completion.
    pub elapsed_s: f64,
    /// Completed-request throughput.
    pub req_per_s: f64,
    /// Median request latency.
    pub p50_ms: f64,
    /// 95th-percentile request latency.
    pub p95_ms: f64,
    /// 99th-percentile request latency.
    pub p99_ms: f64,
    /// Mean request latency.
    pub mean_ms: f64,
    /// Slowest request.
    pub max_ms: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn summarize(latencies: &mut [f64], failed: usize, elapsed: Duration) -> LoadReport {
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let completed = latencies.len();
    let elapsed_s = elapsed.as_secs_f64();
    LoadReport {
        completed,
        failed,
        elapsed_s,
        req_per_s: if elapsed_s > 0.0 {
            completed as f64 / elapsed_s
        } else {
            0.0
        },
        p50_ms: percentile(latencies, 50.0) * 1e3,
        p95_ms: percentile(latencies, 95.0) * 1e3,
        p99_ms: percentile(latencies, 99.0) * 1e3,
        mean_ms: if completed > 0 {
            latencies.iter().sum::<f64>() / completed as f64 * 1e3
        } else {
            0.0
        },
        max_ms: latencies.last().copied().unwrap_or(0.0) * 1e3,
    }
}

fn synth_request(rng: &mut ChaCha8Rng, seq: usize, vocab: usize) -> Vec<usize> {
    (0..seq).map(|_| rng.gen_range(0..vocab)).collect()
}

/// The open loop's pacing: request `i` is due `i` gaps after the start
/// whether or not the submitter kept up, and goes to `sink` stamped
/// with that due instant — so a latency timed from it includes the
/// sleep's overshoot and any stall of `submit`, the wait a late request
/// really saw. A missed due time is never waited for: a stall is
/// followed by a burst. Stops early when `sink` returns `false`.
fn pace_open<T>(
    requests: usize,
    gap: Duration,
    mut submit: impl FnMut() -> T,
    mut sink: impl FnMut(Instant, T) -> bool,
) {
    let mut due = Instant::now();
    for _ in 0..requests {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if !sink(due, submit()) {
            break;
        }
        due += gap;
    }
}

/// Drives `engine` with synthetic traffic and measures throughput and
/// latency. Closed-loop mode spawns the client threads; open-loop mode
/// paces arrivals from a single submitter with a collector draining
/// completions behind it.
pub fn run_load(engine: &ServeEngine, lcfg: &LoadConfig) -> LoadReport {
    let seq = engine.seq();
    match lcfg.arrival {
        Arrival::Closed { clients } => {
            let clients = clients.max(1);
            let t0 = Instant::now();
            let mut latencies: Vec<f64> = Vec::with_capacity(lcfg.requests);
            let mut failed = 0usize;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let handle = engine.handle();
                        // Spread the remainder so exactly `requests` go out.
                        let n = lcfg.requests / clients + usize::from(c < lcfg.requests % clients);
                        let mut rng = ChaCha8Rng::seed_from_u64(lcfg.seed ^ (0x9e37 + c as u64));
                        s.spawn(move || {
                            let mut lats = Vec::with_capacity(n);
                            let mut fails = 0usize;
                            for _ in 0..n {
                                let ids = synth_request(&mut rng, seq, lcfg.vocab);
                                let start = Instant::now();
                                match handle.submit(ids).wait_at() {
                                    Ok((_, done)) => lats.push((done - start).as_secs_f64()),
                                    Err(_) => fails += 1,
                                }
                            }
                            (lats, fails)
                        })
                    })
                    .collect();
                for h in handles {
                    let (lats, fails) = h.join().expect("load client");
                    latencies.extend(lats);
                    failed += fails;
                }
            });
            summarize(&mut latencies, failed, t0.elapsed())
        }
        Arrival::Open { rate } => {
            let rate = rate.max(1e-3);
            let gap = Duration::from_secs_f64(1.0 / rate);
            let (tk_tx, tk_rx) = channel::<(Instant, Ticket)>();
            let t0 = Instant::now();
            let mut latencies: Vec<f64> = Vec::with_capacity(lcfg.requests);
            let mut failed = 0usize;
            std::thread::scope(|s| {
                let handle = engine.handle();
                let requests = lcfg.requests;
                let (seed, vocab) = (lcfg.seed, lcfg.vocab);
                s.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x09e1);
                    pace_open(
                        requests,
                        gap,
                        || handle.submit(synth_request(&mut rng, seq, vocab)),
                        |due, ticket| tk_tx.send((due, ticket)).is_ok(),
                    );
                });
                // Collector: completion instants come from the
                // dispatcher, so FIFO draining does not distort
                // latency.
                for (due, ticket) in tk_rx {
                    match ticket.wait_at() {
                        Ok((_, done)) => latencies.push((done - due).as_secs_f64()),
                        Err(_) => failed += 1,
                    }
                }
            });
            summarize(&mut latencies, failed, t0.elapsed())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_compress::plan::CompressionPlan;
    use actcomp_mp::MpConfig;
    use actcomp_nn::BertConfig;

    /// A submit step that stalls puts every request behind it late; a
    /// latency timed from the due instant says by how much. Each fake
    /// request completes the moment it is submitted, so its latency is
    /// exactly how far behind schedule it went out.
    #[test]
    fn open_loop_latencies_include_how_late_a_request_went_out() {
        let gap = Duration::from_millis(2);
        let stall = Duration::from_millis(40);
        let mut i = 0usize;
        let mut late: Vec<Duration> = Vec::new();
        pace_open(
            30,
            gap,
            || {
                if i == 3 {
                    std::thread::sleep(stall);
                }
                i += 1;
                Instant::now()
            },
            |due, done| {
                late.push(done.saturating_duration_since(due));
                true
            },
        );
        assert_eq!(late.len(), 30);
        // Requests 4.. were due during the stall and went out in a burst
        // after it: request 3 + k is still `stall − k · gap` behind.
        for k in 1..=4u32 {
            let behind = late[3 + k as usize];
            assert!(
                behind >= stall - gap * k,
                "request {} reports {behind:?} of a {stall:?} stall",
                3 + k
            );
        }
        // The schedule itself did not slip: the tail, due after the
        // stall ended, is back on time.
        assert!(late[29] < stall / 2, "schedule slipped: {:?}", late[29]);
    }

    /// `batch_window = 0` takes whatever is queued and never waits: a
    /// queue filled before the dispatcher runs drains in full batches.
    #[test]
    fn zero_window_drains_a_filled_queue_in_full_batches() {
        const SEQ: usize = 4;
        let cfg = ServeConfig {
            max_batch: 4,
            batch_window: Duration::ZERO,
            depth: 2,
        };
        let rc = RuntimeConfig {
            mp: MpConfig {
                bert: BertConfig {
                    vocab: 16,
                    hidden: 8,
                    layers: 2,
                    heads: 2,
                    ff_hidden: 16,
                    max_seq: SEQ,
                },
                tp: 1,
                pp: 2,
                plan: CompressionPlan::none(),
                tokens: SEQ,
                error_feedback: false,
            },
            micro_batches: 1,
            tuning: None,
            trace: false,
        };
        let rt =
            ThreadedRuntime::new(&mut ChaCha8Rng::seed_from_u64(5), rc.clone()).expect("engine");
        let (tx, rx) = channel::<Msg>();
        let handle = ServeHandle {
            tx,
            seq: SEQ,
            cfg: Arc::new(rc),
        };
        let tickets: Vec<Ticket> = (0..3 * cfg.max_batch + 1)
            .map(|i| handle.submit(vec![i % 16; SEQ]))
            .collect();
        handle.tx.send(Msg::Stop).expect("queue open");
        let stats = Arc::new(Mutex::new(ServeStats::default()));
        dispatch(ServeBackend::Threads(rt), cfg, SEQ, rx, Arc::clone(&stats));
        for t in tickets {
            t.wait().expect("request served");
        }
        let st = stats.lock().expect("stats lock");
        assert_eq!(
            st.batch_hist,
            vec![1, 0, 0, 3],
            "three full batches, one of 1"
        );
        assert_eq!((st.completed, st.failed), (13, 0));
    }
}
