//! `actcomp` — command-line interface to the reproduction of *"Does
//! Compressing Activations Help Model Parallel Training?"* (MLSys 2024).
//!
//! ```text
//! actcomp check experiment.json
//! actcomp run --backend threads --tp 2 --pp 2 --spec T2 --steps 3
//! actcomp serve --bench --quick --tp 2 --pp 2 --spec T2
//! actcomp simulate --machine pcie --tp 2 --pp 2 --batch 32 --seq 512 --spec A1
//! actcomp pretrain-sim --tp 4 --pp 4 --spec A2
//! actcomp finetune --task cola --spec Q2 --steps 150
//! actcomp scaling
//! actcomp specs
//! ```

mod args;

use actcomp_check::{render_report, ExperimentConfig, RuntimeSection, Severity};
use actcomp_compress::spec::CompressorSpec;
use actcomp_core::throughput::{finetune_breakdown, pretrain_breakdown, Machine};
use actcomp_core::{accuracy, AccuracyConfig};
use actcomp_data::GlueTask;
use actcomp_distsim::IterationBreakdown;
use actcomp_perfmodel::scaling::{paper_bandwidth_elems, table10_configs};
use actcomp_perfmodel::{weak_scaling, PerfCoefficients};
use args::Args;

fn main() {
    let args = Args::from_env();
    match args.command.as_deref() {
        Some("check") => check(&args),
        Some("run") => run(&args),
        Some("serve") => serve(&args),
        Some("simulate") => simulate(&args),
        Some("pretrain-sim") => pretrain_sim(&args),
        Some("finetune") => finetune(&args),
        Some("scaling") => scaling(&args),
        Some("specs") => specs(),
        // Hidden: re-exec'd by `run --backend procs` for each rank.
        Some("worker") => worker(&args),
        Some(other) => {
            eprintln!("error: unknown command '{other}'\n");
            usage();
            std::process::exit(2);
        }
        None => usage(),
    }
}

fn usage() {
    println!(
        "actcomp — activation compression for model-parallel training (MLSys 2024 reproduction)

USAGE:
  actcomp check         <CONFIG.json> [--comm] | --print-default | --print-pretrain
  actcomp run           [--backend threads|serial|procs] [--tp N] [--pp N] [--spec ID] [--steps N]
                        [--batch N] [--seq N] [--layers N] [--hidden N] [--heads N] [--ff N]
                        [--vocab N] [--micro-batches N] [--kernel-threads N] [--chunk-rows N]
                        [--pipeline-depth N] [--error-feedback] [--audit] [--seed N] [--out PATH]
                        [--transport uds|tcp] [--link-mbps X] [--grad-hash]
                        [--fault SPEC] [--checkpoint-every N] [--checkpoint-dir PATH]
                        [--max-restarts N] [--step-timeout SECS] [--rendezvous-timeout SECS]
  actcomp serve         [--backend threads|procs] [--tp N] [--pp N] [--spec ID] [--seq N]
                        [--layers N] [--hidden N] [--heads N] [--ff N] [--vocab N]
                        [--max-batch N] [--batch-window-us N] [--depth N]
                        [--requests N] [--clients N] [--arrival closed|open] [--rate X]
                        [--bench] [--quick] [--seed N] [--out PATH]
                        [--transport uds|tcp] [--fault SPEC]
  actcomp simulate      [--machine nvlink|pcie] [--tp N] [--pp N] [--batch N] [--seq N] [--spec ID] [--json]
  actcomp pretrain-sim  [--tp N] [--pp N] [--spec ID] [--json]
  actcomp finetune      [--task NAME] [--spec ID] [--steps N] [--seed N]
  actcomp scaling       [--json]
  actcomp specs

Spec IDs follow the paper's Table 1: w/o A1 A2 T1-T4 R1-R4 Q1-Q3.
Tasks: mnli qqp sst2 mrpc cola qnli rte stsb.

Fault specs (--fault, procs backend): kill:rank=R@step=K, drop|dup|corrupt|sever:frame=N[,rank=R],
delay:frame=N,ms=M, <kind>:p=P[,seed=S]. With --checkpoint-every, a killed rank's generation is
fenced off and the world restarts from the last checkpoint (see DESIGN.md, Fault tolerance)."
    );
}

fn parse_spec(name: &str) -> CompressorSpec {
    CompressorSpec::all()
        .into_iter()
        .find(|s| s.label().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            eprintln!("error: unknown spec '{name}' (try `actcomp specs`)");
            std::process::exit(2);
        })
}

fn parse_task(name: &str) -> GlueTask {
    let target = name.to_ascii_lowercase().replace('-', "");
    GlueTask::all()
        .into_iter()
        .find(|t| t.name().to_ascii_lowercase().replace('-', "") == target)
        .unwrap_or_else(|| {
            eprintln!("error: unknown task '{name}'");
            std::process::exit(2);
        })
}

fn print_breakdown(b: &IterationBreakdown, json: bool) {
    if json {
        println!("{}", serde_json::to_string_pretty(b).expect("serialize"));
        return;
    }
    println!("total        {:>10.2} ms", b.total_ms);
    println!("  forward    {:>10.2} ms", b.forward_ms);
    println!("  backward   {:>10.2} ms", b.backward_ms);
    println!("  optimizer  {:>10.2} ms", b.optimizer_ms);
    println!("  wait & PP  {:>10.2} ms", b.wait_pp_ms);
    println!("  tensor enc {:>10.2} ms", b.tensor_enc_ms);
    println!("  tensor dec {:>10.2} ms", b.tensor_dec_ms);
    println!("  tensor comm{:>10.2} ms", b.tensor_comm_ms);
    if !b.boundary_per_mb_ms.is_empty() {
        let bounds: Vec<String> = b
            .boundary_per_mb_ms
            .iter()
            .map(|x| format!("{x:.1}"))
            .collect();
        println!("  boundaries [{}] ms/micro-batch", bounds.join(", "));
    }
}

/// `actcomp check <config.json>`: parse, validate, render the report, and
/// exit 0 (clean/warnings) or 1 (errors). With `--comm`, additionally
/// build the static message-flow graph for the threaded engine and prove
/// send/recv matching, byte accounting, and deadlock freedom (AC06xx).
fn check(args: &Args) {
    if args.flag("print-default") || args.flag("print-pretrain") {
        let cfg = if args.flag("print-pretrain") {
            ExperimentConfig::paper_pretrain()
        } else {
            ExperimentConfig::paper_default()
        };
        println!("{}", cfg.to_json());
        return;
    }
    // `--comm` is a bare flag, but the parser grammar hands it the next
    // token as a value — so `check --comm cfg.json` parks the path under
    // the flag. Accept both orders.
    let comm_val = args.raw("comm");
    let comm = comm_val.is_some();
    let positional = args.positionals.first().map(String::as_str);
    let Some(path) = positional.or_else(|| comm_val.filter(|v| *v != "true")) else {
        eprintln!("error: `actcomp check` needs a config path (or --print-default)");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let cfg = ExperimentConfig::from_json(&text).unwrap_or_else(|e| {
        eprintln!("error: {path} is not a valid experiment config: {e}");
        std::process::exit(2);
    });
    let diags = actcomp_check::check(&cfg);
    println!("{}", render_report(&diags));
    if diags.iter().any(|d| d.severity == Severity::Error) {
        std::process::exit(1);
    }
    if comm {
        comm_check(&cfg);
    }
}

/// The `--comm` half of `actcomp check`: static comm-protocol analysis.
fn comm_check(cfg: &ExperimentConfig) {
    let Some(graph) = actcomp_check::build_comm_graph(cfg) else {
        println!(
            "comm: skipped — protocol analysis applies to `runtime.backend = \"threads\"` plans"
        );
        return;
    };
    let diags = actcomp_check::analyze(&graph);
    if diags.is_empty() {
        println!(
            "comm: OK — {} ranks (tp={} pp={} m={}), {} events, {} messages over {} channels; \
             every send is received, byte accounting closes, and the blocking-dependency \
             graph is acyclic (deadlock-free).",
            graph.world(),
            graph.tp,
            graph.pp,
            graph.micro_batches,
            graph.event_count(),
            graph.message_count(),
            graph.channel_count()
        );
        // What each rank's collectives will send per step — the number a
        // run's `ring_bytes.wire` must equal (CI holds the smoke run to it).
        let ring_wire: Vec<usize> = graph.expected.iter().map(|e| e.ring_wire).collect();
        println!("comm: predicted ring wire bytes per step, by rank: {ring_wire:?}");
    } else {
        println!("{}", render_report(&diags));
        if diags.iter().any(|d| d.severity == Severity::Error) {
            std::process::exit(1);
        }
    }
}

/// `actcomp run`: execute real training steps on the threaded engine
/// (`--backend threads`, one OS thread per rank) or the serial executor
/// (`--backend serial`), print the measured per-phase breakdown, and —
/// for the threaded engine — write it as `BENCH_runtime.json`.
///
/// The defaults are a deliberately tiny transformer so the command
/// doubles as a fast smoke test; scale the shape flags up for real
/// measurements.
fn run(args: &Args) {
    use rand::{Rng, SeedableRng};

    let section = run_runtime_section(args);
    let backend = section.backend.clone();
    let tp = args.get_usize("tp", 2);
    let pp = args.get_usize("pp", 2);
    let layers = args.get_usize("layers", 4);
    let hidden = args.get_usize("hidden", 32);
    let heads = args.get_usize("heads", 4);
    let ff = args.get_usize("ff", 64);
    let vocab = args.get_usize("vocab", 64);
    let batch = args.get_usize("batch", 4);
    let seq = args.get_usize("seq", 8);
    let m = section.micro_batches();
    let steps = args.get_usize("steps", 2);
    let seed = args.get_usize("seed", 0) as u64;
    let out = args.get("out", "BENCH_runtime.json");
    let spec = parse_spec(args.get("spec", "w/o"));
    let audit = section.trace == Some(true);
    let grad_hash = args.flag("grad-hash");
    let lr = 1e-2;
    if audit && backend != "threads" {
        eprintln!("error: --audit requires --backend threads (it replays the rank engine's trace)");
        std::process::exit(2);
    }
    // Test hook: make one worker exit right after rendezvous so the
    // typed-failure path (`WorkerLost`, not a hang) can be exercised
    // end-to-end. Deliberately undocumented.
    let fail_rank = flag_value(args, "fail-rank", "a rank index");
    let checkpoint_dir = args.get("checkpoint-dir", "CKPT_actcomp").to_string();
    // Restarts default on (2) as soon as the run opts into the
    // fault-tolerance machinery; plain runs keep fail-fast semantics.
    let chaos = section.fault.is_some() || section.checkpoint_every.is_some();
    let max_restarts = section.max_restarts.unwrap_or(if chaos { 2 } else { 0 });

    // Static validation first — the same checker path as `actcomp check`,
    // including the AC03xx runtime pass — so a bad flag combination dies
    // with a diagnosis instead of a mid-run panic in a worker thread.
    let mut cfg = ExperimentConfig::paper_default();
    cfg.model.layers = layers;
    cfg.model.hidden = hidden;
    cfg.model.heads = heads;
    cfg.model.ff_hidden = ff;
    cfg.model.vocab = vocab;
    cfg.model.max_seq = seq;
    cfg.parallelism.tp = tp;
    cfg.parallelism.pp = pp;
    let world = tp * pp;
    if world > 4 {
        cfg.cluster.preset = "p3_cluster".to_string();
        cfg.cluster.nodes = world.div_ceil(4);
    }
    cfg.batch.micro_batch = batch;
    cfg.batch.seq = seq;
    cfg.batch.num_micro_batches = m;
    cfg.plan.spec = spec.label().to_string();
    cfg.plan.error_feedback = args.flag("error-feedback");
    cfg.runtime = Some(section.clone());
    validate_or_exit(&cfg);
    if let Some(n) = section.kernel_threads {
        actcomp_tensor::pool::set_threads(n);
    }

    let plan = cfg.resolve_plan().expect("validated spec resolves");
    let mp_cfg = actcomp_mp::MpConfig {
        bert: actcomp_nn::BertConfig {
            vocab,
            hidden,
            layers,
            heads,
            ff_hidden: ff,
            max_seq: seq,
        },
        tp,
        pp,
        plan,
        tokens: batch * seq,
        error_feedback: cfg.plan.error_feedback,
    };

    let mut drng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x1d5);
    let ids: Vec<usize> = (0..batch * seq)
        .map(|_| (drng.gen::<u64>() % vocab as u64) as usize)
        .collect();
    println!(
        "{backend}: {layers}L h{hidden} tp={tp} pp={pp} m={m} spec={} \
         batch={batch} seq={seq} steps={steps}",
        spec.label()
    );

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    match backend.as_str() {
        "threads" => {
            // With --audit the static graph is the reference the recorded
            // trace must replay exactly; it and the engine resolve the
            // ring tuning from the same validated config.
            let graph = audit.then(|| {
                actcomp_check::build_comm_graph(&cfg).unwrap_or_else(|| {
                    eprintln!("error: --audit: no static comm graph for this plan");
                    std::process::exit(1);
                })
            });
            let rt_cfg = run_runtime_config(&cfg, mp_cfg);
            let mut rt =
                actcomp_runtime::ThreadedRuntime::new(&mut rng, rt_cfg).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                });
            let mut last_trace = None;
            for step in 0..steps {
                let y = rt.forward(&ids, batch, seq).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                });
                let loss = 0.5 * y.sq_norm();
                println!("step {step}: loss {loss:.4}");
                rt.zero_grad();
                if let Err(e) = rt.backward(&y) {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
                rt.sgd_step(lr);
                if let Some(graph) = &graph {
                    let trace = rt.take_trace().expect("trace mode is on");
                    let diags = actcomp_check::audit_trace(graph, &trace);
                    if diags.is_empty() {
                        let events: usize = trace.iter().map(Vec::len).sum();
                        println!("step {step}: audit OK ({events} events conform)");
                    } else {
                        eprintln!("{}", render_report(&diags));
                        eprintln!("error: step {step} trace does not conform to the static graph");
                        std::process::exit(1);
                    }
                    last_trace = Some(trace);
                }
            }
            if let Some(trace) = last_trace {
                let path = "AUDIT_trace.json";
                match std::fs::write(
                    path,
                    serde_json::to_string_pretty(&trace).expect("serialize"),
                ) {
                    Ok(()) => println!("[audited trace written to {path}]"),
                    Err(e) => eprintln!("warning: could not write {path}: {e}"),
                }
            }
            if grad_hash {
                println!("grad-hash {:016x}", grads_fnv(&rt.collect_grads()));
            }
            let report = rt.report();
            print_phase_report(&report);
            match std::fs::write(out, report.to_json()) {
                Ok(()) => println!("[report written to {out}]"),
                Err(e) => eprintln!("warning: could not write {out}: {e}"),
            }
        }
        "procs" => {
            let kind =
                actcomp_net::TransportKind::parse(section.transport.as_deref().unwrap_or("uds"))
                    .unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    });
            let rt_cfg = run_runtime_config(&cfg, mp_cfg);
            let mut procs = actcomp_runtime::ProcsOptions::new(rt_cfg, seed, kind);
            procs.link_mbps = section.link_mbps;
            procs.fail_rank = fail_rank;
            procs.fault = section.fault.clone();
            if let Some(secs) = section.step_timeout_s {
                procs.step_timeout = std::time::Duration::from_secs_f64(secs);
            }
            if let Some(secs) = section.rendezvous_timeout_s {
                procs.rendezvous_timeout = std::time::Duration::from_secs_f64(secs);
            }
            let sup = actcomp_runtime::SuperviseOptions {
                procs,
                steps,
                lr,
                ids: ids.clone(),
                batch,
                seq,
                checkpoint_every: section.checkpoint_every,
                checkpoint_dir: std::path::PathBuf::from(&checkpoint_dir),
                max_restarts,
            };
            let (mut rt, recovery) = actcomp_runtime::supervise(sup, &mut |step, y| {
                let loss = 0.5 * y.sq_norm();
                println!("step {step}: loss {loss:.4}");
            })
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            for ev in &recovery.events {
                println!(
                    "recovery: epoch {} failed at step {} ({}); resumed from step {} \
                     after {} ms backoff",
                    ev.epoch, ev.step, ev.detail, ev.resumed_from, ev.backoff_ms
                );
            }
            if recovery.restarts > 0 {
                println!(
                    "recovery: run completed after {} restart(s)",
                    recovery.restarts
                );
            }
            if chaos {
                let path = "RECOVERY_trace.json";
                match std::fs::write(
                    path,
                    serde_json::to_string_pretty(&recovery).expect("serialize"),
                ) {
                    Ok(()) => println!("[recovery trace written to {path}]"),
                    Err(e) => eprintln!("warning: could not write {path}: {e}"),
                }
            }
            if grad_hash {
                let grads = rt.collect_grads().unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                });
                println!("grad-hash {:016x}", grads_fnv(&grads));
            }
            match rt.report() {
                Ok(report) => {
                    print_phase_report(&report);
                    match std::fs::write(out, report.to_json()) {
                        Ok(()) => println!("[report written to {out}]"),
                        Err(e) => eprintln!("warning: could not write {out}: {e}"),
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
            if let Err(e) = rt.shutdown() {
                eprintln!("warning: shutdown: {e}");
            }
        }
        "serial" => {
            if m > 1 {
                println!("note: the serial executor runs the whole batch per step (m ignored)");
            }
            let mut mp = actcomp_mp::MpBert::try_new(&mut rng, mp_cfg).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            let start = std::time::Instant::now();
            for step in 0..steps {
                let y = mp.forward(&ids, batch, seq);
                let loss = 0.5 * y.sq_norm();
                println!("step {step}: loss {loss:.4}");
                mp.zero_grad();
                mp.backward(&y);
                mp.visit_all_params(&mut |p| p.value.axpy(-lr, &p.grad));
            }
            let elapsed = start.elapsed().as_secs_f64();
            if grad_hash {
                let mut grads = Vec::new();
                mp.visit_all_params(&mut |p| grads.push(p.grad.clone()));
                println!("grad-hash {:016x}", grads_fnv(&grads));
            }
            let bytes = mp.bytes();
            println!("total          {:>10.3} ms (single thread)", elapsed * 1e3);
            println!(
                "tp reduces     {:>10} wire B {:>10} dense B ({:.2}x)",
                bytes.wire,
                bytes.dense,
                bytes.ratio()
            );
            println!("(per-phase timers require --backend threads; nothing written)");
        }
        // Unknown backends were already rejected by the AC0301 check.
        other => unreachable!("backend `{other}` passed validation"),
    }
}

/// The value of `--key`, when given; exits with a message when it does
/// not parse.
fn flag_value<T: std::str::FromStr>(args: &Args, key: &str, what: &str) -> Option<T> {
    args.raw(key).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("error: --{key} expects {what}, got '{v}'");
            std::process::exit(2);
        })
    })
}

/// The `runtime` section an `actcomp run` command line describes: what
/// the checker validates and what the engine (or the `procs` launcher)
/// is then configured from, so no flag reaches a rank by a side
/// channel.
fn run_runtime_section(args: &Args) -> RuntimeSection {
    let backend = args.get("backend", "threads").to_string();
    let count = |key: &str, what: &str| {
        args.raw(key).map(|v| {
            actcomp_tensor::pool::parse_count_spec(v, what).unwrap_or_else(|e| {
                eprintln!("error: --{key}: {e}");
                std::process::exit(2);
            })
        })
    };
    RuntimeSection {
        micro_batches: Some(args.get_usize("micro-batches", 1)),
        kernel_threads: args.raw("kernel-threads").map(|v| {
            actcomp_tensor::pool::parse_thread_spec(v).unwrap_or_else(|e| {
                eprintln!("error: --kernel-threads: {e}");
                std::process::exit(2);
            })
        }),
        chunk_rows: count("chunk-rows", "chunk row count"),
        pipeline_depth: count("pipeline-depth", "pipeline depth"),
        // Transport options only mean something for the multi-process
        // launcher; the checker (AC0702/AC0703) rejects stray uses.
        transport: match args.raw("transport") {
            Some(t) => Some(t.to_string()),
            None if backend == "procs" => Some("uds".to_string()),
            None => None,
        },
        link_mbps: flag_value(args, "link-mbps", "a number"),
        trace: Some(args.flag("audit")),
        // Fault-injection and recovery options (procs backend; the
        // checker's AC08xx pass rejects them elsewhere and validates
        // the values). Only explicit flags go through validation: the
        // CLI's default checkpoint directory and restart budget are not
        // config statements.
        step_timeout_s: flag_value(args, "step-timeout", "seconds"),
        rendezvous_timeout_s: flag_value(args, "rendezvous-timeout", "seconds"),
        fault: args.raw("fault").map(str::to_string),
        checkpoint_every: flag_value(args, "checkpoint-every", "a step count"),
        checkpoint_dir: args.raw("checkpoint-dir").map(str::to_string),
        max_restarts: flag_value(args, "max-restarts", "a count"),
        backend,
        ..RuntimeSection::threads_default()
    }
}

/// The engine configuration of an `actcomp run`, for the `threads`
/// engine and — serialized into `ACTCOMP_WORKER_CFG` — for every
/// `procs` worker alike: micro-batching, tracing and the ring tuning
/// all come from the validated `runtime` section, so `--chunk-rows` /
/// `--pipeline-depth` reach the ranks that run the collectives (and
/// `--audit` checks the engine against a graph built from the same
/// values).
fn run_runtime_config(
    cfg: &ExperimentConfig,
    mp: actcomp_mp::MpConfig,
) -> actcomp_runtime::RuntimeConfig {
    let rt = cfg.runtime.as_ref().expect("`run` sets a runtime section");
    let (chunk_rows, pipeline_depth) = actcomp_check::collectives::resolved_ring_tuning(cfg);
    actcomp_runtime::RuntimeConfig {
        mp,
        micro_batches: rt.micro_batches(),
        tuning: Some(actcomp_runtime::RingTuning {
            chunk_rows,
            pipeline_depth,
        }),
        trace: rt.trace == Some(true),
    }
}

/// An in-process framed transport world for the threads serving
/// backend: one transport per rank, every peer wired to every other.
fn serve_transports(label: &str, world: usize) -> Vec<Box<dyn actcomp_net::Transport>> {
    use actcomp_net::{mpsc_world, SocketOptions, SocketTransport, Transport, TransportKind};
    match label {
        "mpsc" => mpsc_world(world)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect(),
        "uds" | "tcp" => {
            let kind = TransportKind::parse(label).expect("known transport");
            let mut ts: Vec<SocketTransport> = (0..world)
                .map(|r| {
                    SocketTransport::bind(kind, r, world, 0x5EAF, SocketOptions::default())
                        .unwrap_or_else(|e| {
                            eprintln!("error: {e}");
                            std::process::exit(1);
                        })
                })
                .collect();
            let addrs: Vec<String> = ts.iter().map(|t| t.local_addr().to_string()).collect();
            for t in ts.iter_mut() {
                for (p, a) in addrs.iter().enumerate() {
                    t.set_peer(p, a.clone());
                }
            }
            ts.into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect()
        }
        other => {
            eprintln!("error: unknown serve transport '{other}' (typed|mpsc|uds|tcp)");
            std::process::exit(2);
        }
    }
}

/// `actcomp serve`: forward-only inference serving with continuous
/// request batching on resident rank workers (see DESIGN.md, Serving
/// engine).
///
/// Plain mode runs one synthetic load (closed- or open-loop) and
/// prints throughput, latency percentiles, and the per-rank phase
/// breakdown. `--bench` additionally measures the one-request-at-a-time
/// baseline (`max_batch = 1`, `depth = 1`) and a fixed-rate open-loop
/// run on identically-initialised engines and writes the comparison as
/// `BENCH_serve.json`.
fn serve(args: &Args) {
    use actcomp_runtime::{
        run_load, Arrival, LoadConfig, ProcsOptions, ProcsRuntime, ServeBackend, ServeConfig,
        ServeEngine, ThreadedRuntime,
    };
    use rand::SeedableRng;

    let backend = args.get("backend", "threads").to_string();
    let tp = args.get_usize("tp", 2);
    let pp = args.get_usize("pp", 2);
    let layers = args.get_usize("layers", 4);
    let hidden = args.get_usize("hidden", 32);
    let heads = args.get_usize("heads", 4);
    let ff = args.get_usize("ff", 64);
    let vocab = args.get_usize("vocab", 64);
    let seq = args.get_usize("seq", 8);
    let seed = args.get_usize("seed", 0) as u64;
    let spec = parse_spec(args.get("spec", "w/o"));
    let max_batch = args.get_usize("max-batch", 8);
    let window_us = args.get_usize("batch-window-us", 200) as u64;
    let depth = args.get_usize("depth", 2);
    let bench = args.flag("bench");
    let quick = args.flag("quick");
    let requests = args.get_usize("requests", if quick { 96 } else { 512 });
    let clients = args.get_usize("clients", 2 * max_batch);
    let out = args.get("out", "BENCH_serve.json").to_string();
    let rate = args.raw("rate").map(|v| {
        v.parse::<f64>().unwrap_or_else(|_| {
            eprintln!("error: --rate expects requests per second, got '{v}'");
            std::process::exit(2);
        })
    });
    let fault = args.raw("fault").map(str::to_string);
    let transport = match args.raw("transport") {
        Some(t) => Some(t.to_string()),
        None if backend == "procs" => Some("uds".to_string()),
        None => None,
    };

    // Static validation first — the AC03xx backend pass plus the AC10xx
    // serving pass — so a bad flag combination dies with a diagnosis,
    // not a panic in a worker.
    let mut cfg = ExperimentConfig::paper_default();
    cfg.model.layers = layers;
    cfg.model.hidden = hidden;
    cfg.model.heads = heads;
    cfg.model.ff_hidden = ff;
    cfg.model.vocab = vocab;
    cfg.model.max_seq = seq;
    cfg.parallelism.tp = tp;
    cfg.parallelism.pp = pp;
    let world = tp * pp;
    if world > 4 {
        cfg.cluster.preset = "p3_cluster".to_string();
        cfg.cluster.nodes = world.div_ceil(4);
    }
    // Serving is forward-only: one request = one micro-batch of `seq`
    // tokens, so the boundary/collective compressors are sized per
    // request.
    cfg.batch.micro_batch = 1;
    cfg.batch.seq = seq;
    cfg.batch.num_micro_batches = 1;
    cfg.plan.spec = spec.label().to_string();
    cfg.plan.error_feedback = args.flag("error-feedback");
    cfg.runtime = Some(RuntimeSection {
        backend: backend.clone(),
        micro_batches: Some(1),
        // For the threads backend `--transport` picks in-process wiring
        // (typed/mpsc/uds/tcp), which is not launcher configuration —
        // the AC07xx pass only validates the procs launcher's wire.
        transport: if backend == "procs" {
            transport.clone()
        } else {
            None
        },
        fault: fault.clone(),
        max_batch: Some(max_batch),
        batch_window_us: Some(window_us),
        ..RuntimeSection::threads_default()
    });
    validate_or_exit(&cfg);

    let plan = cfg.resolve_plan().expect("validated spec resolves");
    let make_cfg = || actcomp_runtime::RuntimeConfig {
        mp: actcomp_mp::MpConfig {
            bert: actcomp_nn::BertConfig {
                vocab,
                hidden,
                layers,
                heads,
                ff_hidden: ff,
                max_seq: seq,
            },
            tp,
            pp,
            plan,
            tokens: seq,
            error_feedback: cfg.plan.error_feedback,
        },
        micro_batches: 1,
        tuning: None,
        trace: false,
    };
    let make_backend = || -> ServeBackend {
        match backend.as_str() {
            "threads" => {
                // Reseeded per engine so every bench mode serves
                // identically-initialised weights. `--transport` picks
                // the in-process wire the rank threads frame over
                // (default: typed channels, no byte framing).
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                let rt = match transport.as_deref() {
                    None | Some("typed") => ThreadedRuntime::new(&mut rng, make_cfg()),
                    Some(label) => {
                        let c = make_cfg();
                        let serial = actcomp_nn::BertEncoder::new(&mut rng, c.mp.bert.clone());
                        let ts = serve_transports(label, world);
                        ThreadedRuntime::with_transports(&serial, c, &mut rng, ts)
                    }
                };
                ServeBackend::Threads(rt.unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }))
            }
            "procs" => {
                let kind = actcomp_net::TransportKind::parse(transport.as_deref().unwrap_or("uds"))
                    .unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    });
                let mut opts = ProcsOptions::new(make_cfg(), seed, kind);
                opts.fault = fault.clone();
                ServeBackend::Procs(ProcsRuntime::launch(opts).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }))
            }
            other => {
                eprintln!("error: `actcomp serve` needs --backend threads|procs, got '{other}'");
                std::process::exit(2);
            }
        }
    };

    println!(
        "serve: {backend} {layers}L h{hidden} tp={tp} pp={pp} spec={} seq={seq} \
         max_batch={max_batch} window={window_us}us depth={depth}",
        spec.label()
    );

    // One load run on a fresh engine; any failed request is a typed
    // serving error and exits non-zero (the dispatcher answers every
    // request on a dead world, so probing it recovers the error).
    let run_mode = |label: &str, scfg: ServeConfig, arrival: Arrival| {
        let engine = ServeEngine::start(make_backend(), scfg).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        let lcfg = LoadConfig {
            requests,
            arrival,
            vocab,
            seed: seed ^ 0x10ad,
        };
        let report = run_load(&engine, &lcfg);
        if report.failed > 0 {
            let probe = engine.handle().submit(vec![0; seq]).wait();
            match probe {
                Err(e) => eprintln!("error: {} request(s) failed: {e}", report.failed),
                Ok(_) => eprintln!("error: {} request(s) failed", report.failed),
            }
            drop(engine);
            std::process::exit(1);
        }
        println!(
            "{label:>8}: {:>8.1} req/s  p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms  \
             mean {:.2} ms  ({} reqs, {:.2} s)",
            report.req_per_s,
            report.p50_ms,
            report.p95_ms,
            report.p99_ms,
            report.mean_ms,
            report.completed,
            report.elapsed_s
        );
        let (stats, phase) = engine.finish();
        (report, stats, phase)
    };

    let batched_cfg = ServeConfig {
        max_batch,
        batch_window: std::time::Duration::from_micros(window_us),
        depth,
    };
    if !bench {
        let arrival = match args.get("arrival", "closed") {
            "closed" => Arrival::Closed { clients },
            "open" => Arrival::Open {
                rate: rate.unwrap_or_else(|| {
                    eprintln!("error: --arrival open needs --rate REQ_PER_S");
                    std::process::exit(2);
                }),
            },
            other => {
                eprintln!("error: unknown arrival process '{other}' (closed|open)");
                std::process::exit(2);
            }
        };
        let (_, stats, phase) = run_mode("load", batched_cfg, arrival);
        println!(
            "batches: {} dispatched ({} with another in flight), size histogram {:?}",
            stats.batches, stats.overlapped, stats.batch_hist
        );
        if let Some(phase) = &phase {
            print_phase_report(phase);
        }
        return;
    }

    // --bench: the one-request-at-a-time baseline — a single closed-loop
    // client against an unbatched engine (`max_batch = 1`, `depth = 1`),
    // so at most one request is anywhere in the system — vs continuous
    // batching under saturating closed-loop load, plus a fixed-rate
    // open-loop latency run.
    let serial_cfg = ServeConfig {
        max_batch: 1,
        batch_window: std::time::Duration::ZERO,
        depth: 1,
    };
    let (serial_lr, _, _) = run_mode("serial", serial_cfg, Arrival::Closed { clients: 1 });
    let (batched_lr, batched_stats, phase) =
        run_mode("batched", batched_cfg, Arrival::Closed { clients });
    // Default offered load: 70% of measured saturated throughput, so
    // the open-loop run measures latency below the knee.
    let open_rate = rate.unwrap_or(0.7 * batched_lr.req_per_s).max(1.0);
    let (open_lr, _, _) = run_mode("open", batched_cfg, Arrival::Open { rate: open_rate });
    let speedup = if serial_lr.req_per_s > 0.0 {
        batched_lr.req_per_s / serial_lr.req_per_s
    } else {
        0.0
    };
    println!(
        "speedup: {speedup:.2}x (continuous batching vs one-request-at-a-time), \
         {} of {} batches overlapped, batch histogram {:?}",
        batched_stats.overlapped, batched_stats.batches, batched_stats.batch_hist
    );
    #[derive(serde::Serialize)]
    struct BenchConfig {
        backend: String,
        transport: Option<String>,
        tp: usize,
        pp: usize,
        layers: usize,
        hidden: usize,
        heads: usize,
        ff: usize,
        vocab: usize,
        seq: usize,
        spec: String,
        max_batch: usize,
        batch_window_us: u64,
        depth: usize,
        requests: usize,
        clients: usize,
        open_rate_req_per_s: f64,
    }
    #[derive(serde::Serialize)]
    struct BenchDoc {
        config: BenchConfig,
        serial: actcomp_runtime::LoadReport,
        batched: actcomp_runtime::LoadReport,
        open: actcomp_runtime::LoadReport,
        speedup_batched_vs_serial: f64,
        batches: usize,
        overlapped: usize,
        batch_hist: Vec<usize>,
        report: Option<actcomp_runtime::RuntimeReport>,
    }
    let doc = BenchDoc {
        config: BenchConfig {
            backend: backend.clone(),
            transport: transport.clone(),
            tp,
            pp,
            layers,
            hidden,
            heads,
            ff,
            vocab,
            seq,
            spec: spec.label().to_string(),
            max_batch,
            batch_window_us: window_us,
            depth,
            requests,
            clients,
            open_rate_req_per_s: open_rate,
        },
        serial: serial_lr,
        batched: batched_lr,
        open: open_lr,
        speedup_batched_vs_serial: speedup,
        batches: batched_stats.batches,
        overlapped: batched_stats.overlapped,
        batch_hist: batched_stats.batch_hist.clone(),
        report: phase,
    };
    match std::fs::write(&out, serde_json::to_string_pretty(&doc).expect("serialize")) {
        Ok(()) => println!("[bench written to {out}]"),
        Err(e) => eprintln!("warning: could not write {out}: {e}"),
    }
}

/// FNV-1a 64 over the little-endian `f32` bytes of every gradient, in
/// the serial executor's parameter visit order.
///
/// Backends are conformance-tested to produce bit-identical gradients
/// with compression off, so printing this hash (`--grad-hash`) lets a
/// shell test compare a threads run against a multi-process run without
/// shipping full tensors through stdout.
fn grads_fnv(grads: &[actcomp_tensor::Tensor]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for g in grads {
        for x in g.as_slice() {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Hidden `actcomp worker` subcommand: one rank of a `--backend procs`
/// run. Spawned by the launcher (never by hand); the run configuration
/// arrives via the `ACTCOMP_WORKER_CFG` environment variable, the seed
/// and topology via flags so `u64` values never round-trip through JSON.
fn worker(args: &Args) {
    let required = |key: &str| -> &str {
        args.raw(key).unwrap_or_else(|| {
            eprintln!("error: worker needs --{key} (spawned by `run --backend procs`)");
            std::process::exit(2);
        })
    };
    let parse_usize = |key: &str| -> usize {
        required(key).parse().unwrap_or_else(|_| {
            eprintln!("error: --{key} expects an integer");
            std::process::exit(2);
        })
    };
    let rank = parse_usize("rank");
    let world = parse_usize("world");
    let coord = required("coord").to_string();
    let kind = actcomp_net::TransportKind::parse(required("transport")).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let seed: u64 = required("seed").parse().unwrap_or_else(|_| {
        eprintln!("error: --seed expects an unsigned integer");
        std::process::exit(2);
    });
    let link_mbps = args.raw("link-mbps").map(|v| {
        v.parse::<f64>().unwrap_or_else(|_| {
            eprintln!("error: --link-mbps expects a number");
            std::process::exit(2);
        })
    });
    let epoch: u32 = args
        .raw("epoch")
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("error: --epoch expects an unsigned integer");
                std::process::exit(2);
            })
        })
        .unwrap_or(0);
    let rendezvous_timeout = args
        .raw("rendezvous-timeout-ms")
        .map(|v| {
            let ms: u64 = v.parse().unwrap_or_else(|_| {
                eprintln!("error: --rendezvous-timeout-ms expects milliseconds");
                std::process::exit(2);
            });
            std::time::Duration::from_millis(ms)
        })
        .unwrap_or(actcomp_runtime::procs::DEFAULT_RENDEZVOUS_TIMEOUT);
    let worker_args = actcomp_runtime::WorkerArgs {
        rank,
        world,
        coord,
        kind,
        seed,
        link_mbps,
        fail_after_rendezvous: args.flag("fail-after-rendezvous"),
        epoch,
        fault: args.raw("fault").map(str::to_string),
        rendezvous_timeout,
    };
    if let Err(e) = actcomp_runtime::run_worker(worker_args) {
        eprintln!("worker rank {rank}: error: {e}");
        std::process::exit(1);
    }
}

/// Prints a [`RuntimeReport`](actcomp_runtime::RuntimeReport)'s aggregate
/// phase breakdown and traffic counters.
fn print_phase_report(report: &actcomp_runtime::RuntimeReport) {
    let t = &report.totals;
    let total = t.total_s();
    let pct = |x: f64| if total > 0.0 { 100.0 * x / total } else { 0.0 };
    println!(
        "phase breakdown ({} rank threads, summed wall-clock):",
        report.ranks.len()
    );
    println!(
        "  compute    {:>10.3} ms  ({:>5.1}%)",
        t.compute_s * 1e3,
        pct(t.compute_s)
    );
    println!(
        "  encode     {:>10.3} ms  ({:>5.1}%)",
        t.encode_s * 1e3,
        pct(t.encode_s)
    );
    println!(
        "  wire       {:>10.3} ms  ({:>5.1}%)",
        t.wire_s * 1e3,
        pct(t.wire_s)
    );
    println!(
        "  decode     {:>10.3} ms  ({:>5.1}%)",
        t.decode_s * 1e3,
        pct(t.decode_s)
    );
    println!(
        "tp reduces     {:>10} wire B {:>10} dense B ({:.2}x)",
        report.reduce_bytes.wire,
        report.reduce_bytes.dense,
        report.reduce_bytes.ratio()
    );
    println!(
        "pp boundaries  {:>10} wire B {:>10} dense B ({:.2}x)",
        report.boundary_bytes.wire,
        report.boundary_bytes.dense,
        report.boundary_bytes.ratio()
    );
}

/// Validates a config assembled from CLI flags before handing it to the
/// simulator; errors print the full report and exit, warnings print and
/// continue.
fn validate_or_exit(cfg: &ExperimentConfig) {
    match actcomp_check::validate(cfg) {
        Ok(warnings) => {
            if !warnings.is_empty() {
                eprintln!("{}", render_report(&warnings));
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn simulate(args: &Args) {
    let machine = match args.get("machine", "nvlink") {
        "nvlink" => Machine::AwsP3,
        "pcie" => Machine::LocalPcie,
        other => {
            eprintln!("error: unknown machine '{other}' (nvlink|pcie)");
            std::process::exit(2);
        }
    };
    let spec = parse_spec(args.get("spec", "w/o"));

    let mut cfg = ExperimentConfig::paper_default();
    cfg.cluster.preset = match machine {
        Machine::AwsP3 => "p3_8xlarge".to_string(),
        _ => "local_no_nvlink".to_string(),
    };
    cfg.parallelism.tp = args.get_usize("tp", 2);
    cfg.parallelism.pp = args.get_usize("pp", 2);
    cfg.batch.micro_batch = args.get_usize("batch", 32);
    cfg.batch.seq = args.get_usize("seq", 512);
    cfg.plan.spec = spec.label().to_string();
    validate_or_exit(&cfg);

    let b = finetune_breakdown(
        machine,
        args.get_usize("tp", 2),
        args.get_usize("pp", 2),
        args.get_usize("batch", 32),
        args.get_usize("seq", 512),
        spec,
    );
    print_breakdown(&b, args.flag("json"));
}

fn pretrain_sim(args: &Args) {
    let spec = parse_spec(args.get("spec", "w/o"));

    let mut cfg = ExperimentConfig::paper_pretrain();
    cfg.parallelism.tp = args.get_usize("tp", 4);
    cfg.parallelism.pp = args.get_usize("pp", 4);
    cfg.plan.spec = spec.label().to_string();
    validate_or_exit(&cfg);

    let b = pretrain_breakdown(cfg.parallelism.tp, cfg.parallelism.pp, spec);
    print_breakdown(&b, args.flag("json"));
}

fn finetune(args: &Args) {
    let task = parse_task(args.get("task", "sst2"));
    let mut cfg = AccuracyConfig::paper_default().with_spec(parse_spec(args.get("spec", "w/o")));
    cfg.steps = args.get_usize("steps", cfg.steps);
    cfg.seed = args.get_usize("seed", cfg.seed as usize) as u64;
    println!(
        "fine-tuning {} with {} for {} steps (TP={}, PP={})...",
        task.name(),
        cfg.spec.label(),
        cfg.steps,
        cfg.tp,
        cfg.pp
    );
    let r = accuracy::finetune(&cfg, task);
    println!(
        "{} score: {:.2}   (final train loss {:.3})",
        task.name(),
        r.score,
        r.final_loss
    );
}

fn scaling(args: &Args) {
    let rows = weak_scaling(
        &PerfCoefficients::paper(),
        &table10_configs(),
        paper_bandwidth_elems(),
    );
    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialize")
        );
        return;
    }
    println!(
        "{:>8} {:>7} {:>6} {:>7} {:>9}",
        "hidden", "layers", "nodes", "batch", "speedup"
    );
    for r in rows {
        println!(
            "{:>8} {:>7} {:>6} {:>7} {:>8.2}x",
            r.config.hidden, r.config.layers, r.config.nodes, r.config.batch, r.speedup
        );
    }
}

fn specs() {
    println!("{:6} {:14} meaning", "id", "family");
    for s in CompressorSpec::all() {
        let meaning = match s {
            CompressorSpec::Baseline => "no compression".to_string(),
            CompressorSpec::A1 | CompressorSpec::A2 => {
                format!("auto-encoder, code dim {} at h=1024", s.code_dim(1024))
            }
            CompressorSpec::T1 | CompressorSpec::T2 | CompressorSpec::R1 | CompressorSpec::R2 => {
                "sparsifier, same comm cost as the matching AE".to_string()
            }
            CompressorSpec::T3 | CompressorSpec::T4 | CompressorSpec::R3 | CompressorSpec::R4 => {
                "sparsifier, same compression ratio as the matching AE".to_string()
            }
            _ => format!("{}-bit uniform quantization", s.quant_bits()),
        };
        println!(
            "{:6} {:14} {}",
            s.label(),
            format!("{:?}", s.family()),
            meaning
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_runtime::{RingTuning, RuntimeConfig};

    /// The engine configuration `actcomp <command line>` builds.
    fn runtime_config_of(command_line: &str) -> RuntimeConfig {
        let args = Args::parse(command_line.split_whitespace().map(String::from));
        let mut cfg = ExperimentConfig::paper_default();
        cfg.runtime = Some(run_runtime_section(&args));
        let mp = actcomp_mp::MpConfig {
            bert: actcomp_nn::BertConfig {
                vocab: 64,
                hidden: 32,
                layers: 4,
                heads: 4,
                ff_hidden: 64,
                max_seq: 8,
            },
            tp: 2,
            pp: 2,
            plan: cfg.resolve_plan().expect("paper default resolves"),
            tokens: 32,
            error_feedback: false,
        };
        run_runtime_config(&cfg, mp)
    }

    #[test]
    fn ring_tuning_flags_reach_the_worker_config() {
        let tuned = RingTuning {
            chunk_rows: Some(1),
            pipeline_depth: 1,
        };
        for backend in ["threads", "procs"] {
            let cfg = runtime_config_of(&format!(
                "run --backend {backend} --chunk-rows 1 --pipeline-depth 1"
            ));
            assert_eq!(cfg.tuning, Some(tuned), "{backend}");
            // What the procs launcher puts into ACTCOMP_WORKER_CFG, and
            // what a worker reads back out of it.
            let json = serde_json::to_string(&cfg).expect("config serializes");
            assert!(
                json.contains(r#""tuning":{"chunk_rows":1,"pipeline_depth":1}"#),
                "{backend}: {json}"
            );
            let worker: RuntimeConfig = serde_json::from_str(&json).expect("worker parses");
            assert_eq!(worker.tuning, Some(tuned), "{backend}");
        }
        // Without the flags every rank still gets an explicit tuning:
        // the defaults, never its own environment.
        let plain = runtime_config_of("run --backend procs");
        assert_eq!(plain.tuning, Some(RingTuning::default()));
    }
}
