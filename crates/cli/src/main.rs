//! `actcomp` — command-line interface to the reproduction of *"Does
//! Compressing Activations Help Model Parallel Training?"* (MLSys 2024).
//!
//! ```text
//! actcomp check experiment.json
//! actcomp run --backend threads --tp 2 --pp 2 --spec T2 --steps 3
//! actcomp serve --tp 2 --pp 2 --spec T2 --requests 256
//! actcomp simulate --machine pcie --tp 2 --pp 2 --batch 32 --seq 512 --spec A1
//! actcomp pretrain-sim --tp 4 --pp 4 --spec A2
//! actcomp finetune --task cola --spec Q2 --steps 150
//! actcomp scaling
//! actcomp specs
//! ```

mod args;

use actcomp_check::{
    render_report, Backend, BatchSection, Diagnostic, ExperimentConfig, FaultSpec, ModelSection,
    ParallelismSection, RunSpec, Severity, Wire,
};
use actcomp_compress::spec::CompressorSpec;
use actcomp_core::throughput::{finetune_breakdown, pretrain_breakdown, Machine};
use actcomp_core::{accuracy, AccuracyConfig};
use actcomp_data::GlueTask;
use actcomp_distsim::IterationBreakdown;
use actcomp_net::TransportKind;
use actcomp_perfmodel::scaling::{paper_bandwidth_elems, table10_configs};
use actcomp_perfmodel::{weak_scaling, PerfCoefficients};
use actcomp_runtime::RuntimeConfig;
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
                        [--seed N] [--kernel-threads N]
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
/// (`--backend threads`, one OS thread per rank), one OS process per
/// rank (`--backend procs`) or the serial executor (`--backend
/// serial`), print the measured per-phase breakdown, and — for the
/// rank engines — write it as `BENCH_runtime.json`.
///
/// The defaults are a deliberately tiny transformer so the command
/// doubles as a fast smoke test; scale the shape flags up for real
/// measurements.
fn run(args: &Args) {
    use rand::{Rng, SeedableRng};

    let cfg = experiment(args, args.get_usize("batch", 4), run_spec(args));
    let spec = cfg.run_spec();
    let (batch, seq, vocab) = (cfg.batch.micro_batch, cfg.batch.seq, cfg.model.vocab);
    let m = spec.micro_batches();
    let steps = args.get_usize("steps", 2);
    let seed = args.get_usize("seed", 0) as u64;
    let out = args.get("out", "BENCH_runtime.json");
    let audit = spec.trace == Some(true);
    let grad_hash = args.flag("grad-hash");
    let lr = 1e-2;
    if audit && spec.backend != Backend::Threads {
        eprintln!("error: --audit requires --backend threads (it replays the rank engine's trace)");
        std::process::exit(2);
    }
    let rt_cfg = RuntimeConfig::of(&cfg).expect("validated spec resolves");

    let mut drng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x1d5);
    let ids: Vec<usize> = (0..batch * seq)
        .map(|_| (drng.gen::<u64>() % vocab as u64) as usize)
        .collect();
    println!(
        "{}: {}L h{} tp={} pp={} m={m} spec={} batch={batch} seq={seq} steps={steps}",
        spec.backend.name(),
        cfg.model.layers,
        cfg.model.hidden,
        cfg.parallelism.tp,
        cfg.parallelism.pp,
        cfg.plan.spec
    );

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    match spec.backend {
        Backend::Threads => {
            // With --audit the static graph is the reference the recorded
            // trace must replay exactly; it and the engine resolve the
            // ring tuning from the same validated config.
            let graph = audit.then(|| {
                actcomp_check::build_comm_graph(&cfg).unwrap_or_else(|| {
                    eprintln!("error: --audit: no static comm graph for this plan");
                    std::process::exit(1);
                })
            });
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
        Backend::Procs => {
            let mut procs = actcomp_runtime::ProcsOptions::new(cfg.clone(), seed);
            // Test hook: make one worker exit right after rendezvous so
            // the typed-failure path (`WorkerLost`, not a hang) can be
            // exercised end-to-end. Deliberately undocumented.
            procs.fail_rank = flag_value(args, "fail-rank", "a rank index");
            let sup = actcomp_runtime::SuperviseOptions {
                procs,
                steps,
                lr,
                ids: ids.clone(),
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
            if spec.fault_tolerant() {
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
        Backend::Serial => {
            if m > 1 {
                println!("note: the serial executor runs the whole batch per step (m ignored)");
            }
            let mut mp = actcomp_mp::MpBert::try_new(&mut rng, rt_cfg.mp).unwrap_or_else(|e| {
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

/// The typed value of a label flag (`--backend`, `--transport`,
/// `--fault`), when given; a label that does not parse adds its
/// diagnostic to `refused`.
fn label_flag<T>(
    args: &Args,
    key: &str,
    parse: fn(&str) -> Result<T, Diagnostic>,
    refused: &mut Vec<Diagnostic>,
) -> Option<T> {
    parse(args.raw(key)?).map_err(|d| refused.push(d)).ok()
}

/// The run spec an `actcomp run` / `serve` command line describes,
/// parsed once, here. Labels that do not parse are refused with their
/// codes; the values are validated with the rest of the experiment by
/// [`experiment`], exactly as `actcomp check` validates a config's
/// `runtime` section.
fn run_spec(args: &Args) -> RunSpec {
    let mut refused = Vec::new();
    let backend = label_flag(args, "backend", Backend::parse, &mut refused);
    let transport = label_flag(args, "transport", Wire::parse, &mut refused);
    let fault = label_flag(args, "fault", FaultSpec::parse, &mut refused);
    if !refused.is_empty() {
        eprintln!("{}", render_report(&refused));
        std::process::exit(1);
    }
    let count = |key: &str, what: &str| {
        args.raw(key).map(|v| {
            actcomp_tensor::pool::parse_count_spec(v, what).unwrap_or_else(|e| {
                eprintln!("error: --{key}: {e}");
                std::process::exit(2);
            })
        })
    };
    RunSpec {
        backend: backend.unwrap_or_default(),
        micro_batches: flag_value(args, "micro-batches", "a count"),
        kernel_threads: count("kernel-threads", "thread count"),
        chunk_rows: count("chunk-rows", "chunk row count"),
        pipeline_depth: count("pipeline-depth", "pipeline depth"),
        transport,
        link_mbps: flag_value(args, "link-mbps", "a number"),
        trace: args.flag("audit").then_some(true),
        step_timeout_s: flag_value(args, "step-timeout", "seconds"),
        rendezvous_timeout_s: flag_value(args, "rendezvous-timeout", "seconds"),
        fault,
        checkpoint_every: flag_value(args, "checkpoint-every", "a step count"),
        checkpoint_dir: args.raw("checkpoint-dir").map(str::to_string),
        max_restarts: flag_value(args, "max-restarts", "a count"),
        max_batch: flag_value(args, "max-batch", "a count"),
        batch_window_us: flag_value(args, "batch-window-us", "microseconds"),
        depth: flag_value(args, "depth", "a count"),
    }
}

/// The experiment an `actcomp run` / `serve` command line describes:
/// the shape and degree flags over the paper default, `batch` sequences
/// a step, and the run spec. Validated here by the checker — the same
/// passes as `actcomp check` — so a bad flag combination dies with a
/// diagnosis instead of a mid-run panic in a worker; then the kernel
/// pool is sized from the spec.
fn experiment(args: &Args, batch: usize, spec: RunSpec) -> ExperimentConfig {
    let seq = args.get_usize("seq", 8);
    let (tp, pp) = (args.get_usize("tp", 2), args.get_usize("pp", 2));
    let mut cfg = ExperimentConfig::paper_default();
    cfg.model = ModelSection {
        layers: args.get_usize("layers", 4),
        hidden: args.get_usize("hidden", 32),
        heads: args.get_usize("heads", 4),
        ff_hidden: args.get_usize("ff", 64),
        vocab: args.get_usize("vocab", 64),
        max_seq: seq,
    };
    cfg.parallelism = ParallelismSection { tp, pp };
    if tp * pp > 4 {
        cfg.cluster.preset = "p3_cluster".to_string();
        cfg.cluster.nodes = (tp * pp).div_ceil(4);
    }
    cfg.batch = BatchSection {
        micro_batch: batch,
        seq,
        num_micro_batches: spec.micro_batches(),
    };
    cfg.plan.spec = parse_spec(args.get("spec", "w/o")).label().to_string();
    cfg.plan.error_feedback = args.flag("error-feedback");
    let kernel_threads = spec.kernel_threads;
    cfg.runtime = Some(spec);
    validate_or_exit(&cfg);
    if let Some(n) = kernel_threads {
        actcomp_tensor::pool::set_threads(n);
    }
    cfg
}

/// `actcomp serve`: forward-only inference serving with continuous
/// request batching on resident rank workers (see DESIGN.md, Serving
/// engine).
///
/// Runs one synthetic load (closed- or open-loop) and prints
/// throughput, latency percentiles, the batch counters and the
/// per-rank phase breakdown. The repo's serving benchmark is the
/// ledger's `serve_sat` and `serve_paced` workloads.
fn serve(args: &Args) {
    use actcomp_runtime::{
        run_load, Arrival, LoadConfig, ProcsOptions, ProcsRuntime, ServeBackend, ServeConfig,
        ServeEngine, ThreadedRuntime,
    };
    use rand::SeedableRng;

    let mut spec = run_spec(args);
    // Serving always states its knobs, so the checker's AC10xx pass
    // sees them.
    let defaults = ServeConfig::of(&spec);
    spec.max_batch = Some(defaults.max_batch);
    spec.batch_window_us = Some(defaults.batch_window.as_micros() as u64);
    spec.depth = Some(defaults.depth);
    // Serving is forward-only: one request = one micro-batch of `seq`
    // tokens, so the boundary/collective compressors are sized per
    // request.
    let cfg = experiment(args, 1, spec);
    let spec = cfg.run_spec();
    let scfg = ServeConfig::of(&spec);
    let (seq, vocab) = (cfg.batch.seq, cfg.model.vocab);
    let seed = args.get_usize("seed", 0) as u64;
    let requests = args.get_usize("requests", 512);
    let clients = args.get_usize("clients", 2 * scfg.max_batch);
    let rate = flag_value::<f64>(args, "rate", "requests per second");
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

    println!(
        "serve: {} {}L h{} tp={} pp={} spec={} seq={seq} max_batch={} window={}us depth={}",
        spec.backend.name(),
        cfg.model.layers,
        cfg.model.hidden,
        cfg.parallelism.tp,
        cfg.parallelism.pp,
        cfg.plan.spec,
        scfg.max_batch,
        scfg.batch_window.as_micros(),
        scfg.depth
    );
    let backend = match spec.backend {
        Backend::Threads => {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let rt_cfg = RuntimeConfig::of(&cfg).expect("validated spec resolves");
            ThreadedRuntime::new(&mut rng, rt_cfg)
                .map(ServeBackend::Threads)
                .map_err(|e| e.to_string())
        }
        Backend::Procs => ProcsRuntime::launch(ProcsOptions::new(cfg, seed))
            .map(ServeBackend::Procs)
            .map_err(|e| e.to_string()),
        Backend::Serial => unreachable!("AC1002 refuses serving on the serial backend"),
    };

    let engine = backend
        .and_then(|b| ServeEngine::start(b, scfg).map_err(|e| e.to_string()))
        .unwrap_or_else(|e| {
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
    // Any failed request is a typed serving error and exits non-zero
    // (the dispatcher answers every request on a dead world, so probing
    // it recovers the error).
    if report.failed > 0 {
        match engine.handle().submit(vec![0; seq]).wait() {
            Err(e) => eprintln!("error: {} request(s) failed: {e}", report.failed),
            Ok(_) => eprintln!("error: {} request(s) failed", report.failed),
        }
        drop(engine);
        std::process::exit(1);
    }
    println!(
        "    load: {:>8.1} req/s  p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms  \
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
    println!(
        "batches: {} dispatched ({} with another in flight), size histogram {:?}",
        stats.batches, stats.overlapped, stats.batch_hist
    );
    if let Some(phase) = &phase {
        print_phase_report(phase);
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
/// run. Spawned by the launcher (never by hand) with where to dial; the
/// experiment, seed and generation arrive in the launch frame on the
/// control connection.
fn worker(args: &Args) {
    let required = |key: &str| -> &str {
        args.raw(key).unwrap_or_else(|| {
            eprintln!("error: worker needs --{key} (spawned by `run --backend procs`)");
            std::process::exit(2);
        })
    };
    let rank = required("rank").parse().unwrap_or_else(|_| {
        eprintln!("error: --rank expects an integer");
        std::process::exit(2);
    });
    let kind = TransportKind::parse(required("transport")).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let worker_args = actcomp_runtime::WorkerArgs {
        rank,
        coord: required("coord").to_string(),
        kind,
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
    use actcomp_runtime::RingTuning;

    /// The experiment `actcomp <command line>` runs.
    fn experiment_of(command_line: &str) -> ExperimentConfig {
        let args = Args::parse(command_line.split_whitespace().map(String::from));
        experiment(&args, 4, run_spec(&args))
    }

    #[test]
    fn ring_tuning_flags_reach_the_worker_config() {
        let tuned = RingTuning {
            chunk_rows: Some(1),
            pipeline_depth: 1,
        };
        for backend in ["threads", "procs"] {
            let exp = experiment_of(&format!(
                "run --backend {backend} --chunk-rows 1 --pipeline-depth 1"
            ));
            let cfg = RuntimeConfig::of(&exp).expect("resolves");
            assert_eq!(cfg.tuning, Some(tuned), "{backend}");
            // What the procs launcher ships every worker, and the engine
            // a worker derives from it.
            let json = serde_json::to_string(&exp).expect("config serializes");
            let shipped = ExperimentConfig::from_json(&json).expect("worker parses");
            assert_eq!(shipped, exp, "{backend}");
            assert_eq!(RuntimeConfig::of(&shipped), Some(cfg), "{backend}");
        }
        // Without the flags every rank still gets an explicit tuning:
        // the defaults, never its own environment.
        let plain = RuntimeConfig::of(&experiment_of("run --backend procs")).expect("resolves");
        assert_eq!(plain.tuning, Some(RingTuning::default()));
    }

    #[test]
    fn run_and_serve_parse_one_spec() {
        let exp = experiment_of(
            "run --backend procs --transport tcp --link-mbps 200 --fault kill:rank=1@step=3 \
             --checkpoint-every 2 --kernel-threads 1 --max-batch 4",
        );
        let spec = exp.run_spec();
        assert_eq!(spec.backend, Backend::Procs);
        assert_eq!(spec.transport(), TransportKind::Tcp);
        assert_eq!(spec.link_mbps, Some(200.0));
        assert_eq!(spec.kernel_threads, Some(1));
        assert_eq!(spec.max_batch, Some(4));
        assert_eq!(spec.max_restarts(), 2, "fault-tolerant runs restart");
        assert_eq!(
            spec.fault
                .as_ref()
                .and_then(|f| f.plan().kill())
                .map(|k| k.rank),
            Some(1)
        );
    }
}
