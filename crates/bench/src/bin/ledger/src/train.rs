//! The three training workloads: tp=2 pp=1 steps of a 4-layer h128
//! encoder over mpsc, Unix sockets, and capped TCP with Q2.
//!
//! An op is one step `forward + zero_grad + backward + sgd_step`. The
//! objective is a fixed seeded regression target with a mean-scaled
//! gradient and a small learning rate, so the loss stays finite for any
//! number of steps (the CLI's `0.5‖y‖²` at lr 1e-2 is NaN by step 4); a
//! non-finite loss fails the op.

use crate::counting::Counters;
use crate::fabric::{self, Wire};
use crate::layers::{self, LayerShape};
use crate::spans::Tracer;
use crate::stats::median_secs;
use crate::{Measured, Metrics, RunArgs, Untraced};
use actcomp_check::MsgId;
use actcomp_compress::plan::CompressionPlan;
use actcomp_compress::spec::CompressorSpec;
use actcomp_mp::{MpBert, MpConfig};
use actcomp_nn::{BertConfig, BertEncoder};
use actcomp_runtime::{RuntimeConfig, RuntimeError, ThreadedRuntime};
use actcomp_tensor::{init, Tensor};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const HIDDEN: usize = 128;
const LAYERS: usize = 4;
const HEADS: usize = 4;
const FF: usize = 512;
const VOCAB: usize = 512;
const SEQ: usize = 64;
const TP: usize = 2;
/// Layers compressed on `train_tcp_q2`: the last half.
const Q2_LAYERS: usize = 2;
/// Token-bucket cap of `train_tcp_q2`, Mbit/s.
pub const TCP_CAP_MBPS: f64 = 200.0;

/// The model is part of the system under test, not of the input: its
/// seeds are fixed and `--seed` only draws token ids and the target.
const MODEL_SEED: u64 = 0x1ED6_E201;
const RUNTIME_SEED: u64 = 0x1ED6_E202;
const LEARNING_RATE: f32 = 0.05;
const WARMUP_STEPS: usize = 3;
/// An untraced window always holds enough ops for several slices, and a
/// traced one for a p90 with ten samples beyond it, however slow the
/// box: either runs on past its share of `--seconds` if it must.
const MIN_TIMED_OPS: u64 = 110;

pub struct TrainSpec {
    pub name: &'static str,
    wire: Wire,
    compress: bool,
    batch: usize,
}

pub const SPECS: &[TrainSpec] = &[
    TrainSpec {
        name: "train_mpsc_dense",
        wire: Wire::Mpsc,
        compress: false,
        batch: 8,
    },
    TrainSpec {
        name: "train_uds_dense",
        wire: Wire::Uds,
        compress: false,
        batch: 4,
    },
    TrainSpec {
        name: "train_tcp_q2",
        wire: Wire::Tcp {
            link_mbps: Some(TCP_CAP_MBPS),
        },
        compress: true,
        batch: 2,
    },
];

impl TrainSpec {
    fn tokens(&self) -> usize {
        self.batch * SEQ
    }

    fn plan(&self) -> CompressionPlan {
        if self.compress {
            CompressionPlan::last_layers(CompressorSpec::Q2, LAYERS, Q2_LAYERS)
        } else {
            CompressionPlan::none()
        }
    }

    fn mp_config(&self, tp: usize, plan: CompressionPlan) -> MpConfig {
        MpConfig {
            bert: BertConfig {
                vocab: VOCAB,
                hidden: HIDDEN,
                layers: LAYERS,
                heads: HEADS,
                ff_hidden: FF,
                max_seq: SEQ,
            },
            tp,
            pp: 1,
            plan,
            tokens: self.tokens(),
            error_feedback: false,
        }
    }

    fn layer_shape(&self) -> LayerShape {
        LayerShape {
            batch: self.batch,
            seq: SEQ,
            hidden: HIDDEN,
            heads: HEADS,
            ff: FF,
            layers_per_rank: LAYERS,
            tp: TP,
            train: true,
        }
    }
}

/// The seeded input of a run: one batch of token ids and the regression
/// target for the final hidden states.
struct Task {
    ids: Vec<usize>,
    target: Tensor,
}

impl Task {
    fn new(spec: &TrainSpec, seed: u64) -> Task {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ids = (0..spec.tokens())
            .map(|_| rng.gen_range(0..VOCAB))
            .collect();
        let target = init::randn(&mut rng, [spec.tokens(), HIDDEN], 1.0);
        Task { ids, target }
    }

    /// `0.5 · mean((y − target)²)` and its gradient `(y − target) / N`.
    fn objective(&self, y: &Tensor) -> (f32, Tensor) {
        let diff = y.sub(&self.target);
        let n = diff.len() as f32;
        (0.5 * diff.sq_norm() / n, diff.scale(1.0 / n))
    }
}

fn serial_encoder(spec: &TrainSpec) -> BertEncoder {
    let mut rng = ChaCha8Rng::seed_from_u64(MODEL_SEED);
    BertEncoder::new(&mut rng, spec.mp_config(TP, spec.plan()).bert)
}

/// Builds the workload's engine with `plan` over a fresh fabric of its
/// wire, every inter-rank message crossing it.
fn build(
    spec: &TrainSpec,
    plan: CompressionPlan,
    audit: bool,
    counters: Option<&Arc<Counters>>,
) -> ThreadedRuntime {
    let cfg = RuntimeConfig {
        mp: spec.mp_config(TP, plan),
        micro_batches: 1,
        tuning: None,
        trace: audit,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(RUNTIME_SEED);
    let transports = fabric::world(spec.wire, TP, counters);
    ThreadedRuntime::with_transports(&serial_encoder(spec), cfg, &mut rng, transports)
        .expect("workload engine")
}

/// One training step; the loss on success. `phase` is told each phase's
/// name and start as it ends (`optim` twice: `zero_grad`, `sgd_step`).
fn step(
    rt: &mut ThreadedRuntime,
    spec: &TrainSpec,
    task: &Task,
    mut phase: impl FnMut(&'static str, Instant),
) -> Result<f32, RuntimeError> {
    let t = Instant::now();
    let y = rt.forward(&task.ids, spec.batch, SEQ)?;
    phase("forward", t);
    let (loss, grad) = task.objective(&y);
    let t = Instant::now();
    rt.zero_grad();
    phase("optim", t);
    let t = Instant::now();
    rt.backward(&grad)?;
    phase("backward", t);
    let t = Instant::now();
    rt.sgd_step(LEARNING_RATE);
    phase("optim", t);
    Ok(loss)
}

fn untraced_step(
    rt: &mut ThreadedRuntime,
    spec: &TrainSpec,
    task: &Task,
) -> Result<f32, RuntimeError> {
    step(rt, spec, task, |_, _| {})
}

/// FNV-1a over every gradient's f32 bits, as `actcomp run --grad-hash`.
fn grads_fnv(grads: &[Tensor]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in grads
        .iter()
        .flat_map(|g| g.as_slice())
        .flat_map(|x| x.to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of the engine's step-1 gradients on a fresh engine.
fn engine_grad_hash(spec: &TrainSpec, task: &Task) -> u64 {
    let mut rt = build(spec, spec.plan(), false, None);
    let y = rt.forward(&task.ids, spec.batch, SEQ).expect("forward");
    let (_, grad) = task.objective(&y);
    rt.zero_grad();
    rt.backward(&grad).expect("backward");
    grads_fnv(&rt.collect_grads())
}

/// The output check. Dense workloads: the step-1 gradient hash equals
/// the serial `MpBert` reference built from the same encoder and seed
/// (the bit-identity contract). `train_tcp_q2`: two fresh engines of one
/// seed agree (lossy codecs stay deterministic).
fn check_outputs(spec: &TrainSpec, task: &Task) -> bool {
    let got = engine_grad_hash(spec, task);
    let want = if spec.compress {
        engine_grad_hash(spec, task)
    } else {
        let mut rng = ChaCha8Rng::seed_from_u64(RUNTIME_SEED);
        let mut mp = MpBert::from_serial(
            &serial_encoder(spec),
            spec.mp_config(TP, spec.plan()),
            &mut rng,
        );
        let y = mp.forward(&task.ids, spec.batch, SEQ);
        let (_, grad) = task.objective(&y);
        mp.zero_grad();
        mp.backward(&grad);
        let mut grads = Vec::new();
        mp.visit_all_params(&mut |p| grads.push(p.grad.clone()));
        grads_fnv(&grads)
    };
    let reference = if spec.compress {
        "second engine"
    } else {
        "serial MpBert"
    };
    println!("check: step-1 grad-hash {got:016x} vs {reference} {want:016x}");
    got == want
}

/// Steps until `window` has elapsed and `min_ops` are in. A step that
/// errors or whose loss is not finite is a failed op; spans are recorded
/// when `tracer` is given.
fn timed_steps(
    rt: &mut ThreadedRuntime,
    spec: &TrainSpec,
    task: &Task,
    window: Duration,
    min_ops: u64,
    mut tracer: Option<&mut Tracer>,
) -> Measured {
    let mut m = Measured::new(spec.tokens());
    let start = Instant::now();
    while start.elapsed() < window || m.attempted < min_ops {
        let t0 = Instant::now();
        let result = match tracer.as_deref_mut() {
            Some(tr) => {
                let (id, op) = (tr.open("op", m.attempted), m.attempted);
                let r = step(rt, spec, task, |name, start| {
                    tr.record(name, start, Instant::now(), Some(id), op);
                });
                tr.close(id);
                r
            }
            None => untraced_step(rt, spec, task),
        };
        let ok = matches!(result, Ok(loss) if loss.is_finite());
        m.record(t0.elapsed(), start.elapsed(), ok);
    }
    m.wall_s = start.elapsed().as_secs_f64();
    m
}

fn warm_engine(
    spec: &TrainSpec,
    task: &Task,
    plan: CompressionPlan,
    counters: Option<&Arc<Counters>>,
) -> ThreadedRuntime {
    let mut rt = build(spec, plan, false, counters);
    for _ in 0..WARMUP_STEPS {
        untraced_step(&mut rt, spec, task).expect("warm-up step");
    }
    rt
}

pub fn run_untraced(spec: &TrainSpec, args: &RunArgs) -> Untraced {
    let task = Task::new(spec, args.seed);
    let correct = check_outputs(spec, &task);
    let (mut rt, set_up) = crate::timed_setups(|| warm_engine(spec, &task, spec.plan(), None));
    let measured = timed_steps(&mut rt, spec, &task, args.window(), MIN_TIMED_OPS, None);
    Untraced {
        measured,
        set_up,
        correct,
    }
}

/// Ring collectives one rank runs per step, counted from the engine's
/// own audit trace of one step.
fn collectives_per_step(spec: &TrainSpec, task: &Task) -> f64 {
    let mut rt = build(spec, spec.plan(), true, None);
    untraced_step(&mut rt, spec, task).expect("audited step");
    let trace = rt.take_trace().expect("audit trace is on");
    let colls: BTreeSet<usize> = trace[0]
        .iter()
        .filter_map(|e| match e.msg {
            MsgId::Chunk { coll, .. } | MsgId::Gather { coll, .. } => Some(coll),
            _ => None,
        })
        .collect();
    colls.len() as f64
}

/// Median step of the plain baseline: the same task on a single-worker
/// `MpBert` (tp=1, pp=1, no compression).
fn serial_step_ms(spec: &TrainSpec, task: &Task) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(RUNTIME_SEED);
    let cfg = spec.mp_config(1, CompressionPlan::none());
    let mut mp = MpBert::from_serial(&serial_encoder(spec), cfg, &mut rng);
    let (secs, _) = median_secs(layers::MICRO_BUDGET * 2, 3, || {
        let y = mp.forward(&task.ids, spec.batch, SEQ);
        let (_, grad) = task.objective(&y);
        mp.zero_grad();
        mp.backward(&grad);
        mp.visit_all_params(&mut |p| p.value.axpy(-LEARNING_RATE, &p.grad));
    });
    secs * 1e3
}

pub fn run_traced(spec: &TrainSpec, args: &RunArgs, tracer: &mut Tracer) -> (Measured, Metrics) {
    let task = Task::new(spec, args.seed);
    let shape = spec.layer_shape();
    let mut out = Metrics::default();

    // The traced engine: counting transports and per-phase spans.
    let counters = Arc::new(Counters::default());
    let mut rt = warm_engine(spec, &task, spec.plan(), Some(&counters));
    let (report0, net0) = (rt.report(), counters.snapshot());
    let traced = timed_steps(
        &mut rt,
        spec,
        &task,
        args.window().mul_f64(0.4),
        MIN_TIMED_OPS,
        Some(tracer),
    );
    let (report1, net1) = (rt.report(), counters.snapshot().since(&net0));
    drop(rt);
    let ops = traced.attempted as f64;

    // The same engine bare, for the tracing overhead (and, on
    // `train_tcp_q2`, the compressed side of the paper's ratio).
    let mut bare = warm_engine(spec, &task, spec.plan(), None);
    let untraced = timed_steps(&mut bare, spec, &task, args.window().mul_f64(0.2), 1, None);
    drop(bare);
    let serial_ms = tracer.scope("layer.mp.serial", None, 0, || serial_step_ms(spec, &task));
    out.set_windows(&traced, &untraced, serial_ms, TP);

    for name in ["forward", "backward", "optim"] {
        out.set(format!("runtime.{name}_ms"), tracer.total_ms(name) / ops);
    }
    out.set_phases(&report0, &report1, &traced);
    out.set("runtime.pipeline_idle_share", 0.0);
    out.set_net_counts(&net1, ops);
    let ring_wire = report1.ring_bytes.wire - report0.ring_bytes.wire;
    let ring_dense = report1.ring_bytes.dense - report0.ring_bytes.dense;
    out.set("comm.wire_bytes_per_op", ring_wire as f64 / ops);
    out.set("comm.dense_bytes_per_op", ring_dense as f64 / ops);
    out.set(
        "comm.allreduce_calls_per_op",
        tracer.scope("layer.comm.audit", None, 0, || {
            collectives_per_step(spec, &task)
        }),
    );

    // A ring chunk is a quarter of the activation (`RingTuning` default).
    out.set_layer_replays(tracer, &shape, spec.wire, shape.activation_bytes() / 4);
    let codec = spec.compress.then_some(CompressorSpec::Q2);
    let reduce = tracer.scope("layer.comm.allreduce", None, 0, || {
        layers::all_reduce(spec.wire, spec.tokens(), HIDDEN, codec)
    });
    out.set("comm.allreduce_ms", reduce.secs * 1e3);

    if spec.compress {
        // The paper's headline ratio: the dense step over the Q2 step at
        // the same cap, both untraced.
        let dense = tracer.scope("layer.runtime.dense_twin", None, 0, || {
            let mut rt = warm_engine(spec, &task, CompressionPlan::none(), None);
            timed_steps(&mut rt, spec, &task, args.window().mul_f64(0.15), 1, None)
        });
        out.set(
            "runtime.compress_speedup",
            untraced.tokens_per_s() / dense.tokens_per_s(),
        );
        out.set(
            "distsim.allreduce_pred_rel_err",
            tracer.scope("layer.distsim", None, 0, || {
                layers::distsim_rel_err(TCP_CAP_MBPS, spec.tokens(), HIDDEN, &reduce)
            }),
        );
    } else {
        out.set("runtime.compress_speedup", 0.0);
        out.set("distsim.allreduce_pred_rel_err", 0.0);
    }
    out.zero_prefix("serve.");
    (traced, out)
}
