//! End-to-end tests for `actcomp run --backend procs`: real OS
//! processes, real sockets, compared against the threads backend via
//! `--grad-hash` (an FNV-1a over every gradient's bytes in serial
//! visit order — equal hashes mean bit-identical training state).

use std::process::{Command, Output};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_actcomp");

/// Shape flags small enough that a 4-process run finishes in seconds.
const SHAPE: &[&str] = &[
    "--tp",
    "2",
    "--pp",
    "2",
    "--layers",
    "4",
    "--hidden",
    "32",
    "--batch",
    "4",
    "--seq",
    "8",
    "--micro-batches",
    "2",
    "--steps",
    "2",
    "--seed",
    "7",
    "--grad-hash",
];

fn run(extra: &[&str], out_name: &str) -> Output {
    let dir = std::env::temp_dir();
    let out = dir.join(format!(
        "actcomp-e2e-{}-{out_name}.json",
        std::process::id()
    ));
    Command::new(BIN)
        .arg("run")
        .args(SHAPE)
        .args(extra)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn actcomp")
}

fn grad_hash(output: &Output) -> String {
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "run failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("grad-hash "))
        .unwrap_or_else(|| panic!("no grad-hash line in:\n{stdout}"))
        .to_string()
}

#[test]
fn procs_uds_and_tcp_match_threads_bitwise() {
    let threads = grad_hash(&run(&["--backend", "threads"], "threads"));
    let uds = grad_hash(&run(
        &["--backend", "procs", "--transport", "uds"],
        "procs-uds",
    ));
    let tcp = grad_hash(&run(
        &["--backend", "procs", "--transport", "tcp"],
        "procs-tcp",
    ));
    assert_eq!(threads, uds, "UDS workers must match the threads backend");
    assert_eq!(threads, tcp, "TCP workers must match the threads backend");
}

#[test]
fn ring_tuning_flags_run_the_chunked_path_across_processes() {
    // One-row chunks, one in flight: every dense collective takes the
    // multi-chunk paced path in each worker process (the flags travel in
    // the run spec of the launch frame). The dense ring reproduces the
    // rank-order fold at every chunk plan, and no lossy codec is ever
    // chunked, so the tuned procs run must equal the threads backend.
    // One kernel thread per rank rides along: the pool size is a speed
    // knob, never a bit.
    let tuned = [
        "--chunk-rows",
        "1",
        "--pipeline-depth",
        "1",
        "--kernel-threads",
        "1",
    ];
    let threads = grad_hash(&run(
        &[&["--backend", "threads"], &tuned[..]].concat(),
        "threads-tuned",
    ));
    let procs = grad_hash(&run(
        &[&["--backend", "procs", "--transport", "uds"], &tuned[..]].concat(),
        "procs-tuned",
    ));
    assert_eq!(
        threads, procs,
        "tuned workers must match the threads backend"
    );
}

#[test]
fn throttled_tcp_is_still_bit_identical() {
    let threads = grad_hash(&run(&["--backend", "threads"], "threads-thr"));
    let throttled = grad_hash(&run(
        &[
            "--backend",
            "procs",
            "--transport",
            "tcp",
            "--link-mbps",
            "50",
        ],
        "procs-tcp-thr",
    ));
    assert_eq!(threads, throttled, "a bandwidth cap must not change bits");
}

#[test]
fn killed_worker_surfaces_a_typed_error_not_a_hang() {
    let start = Instant::now();
    let output = run(
        &[
            "--backend",
            "procs",
            "--transport",
            "tcp",
            "--fail-rank",
            "1",
        ],
        "procs-kill",
    );
    let elapsed = start.elapsed();
    assert!(
        !output.status.success(),
        "a run with a dead worker must fail"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("lost") || stderr.contains("peer closed"),
        "stderr should carry the typed worker-loss error, got:\n{stderr}"
    );
    // Typed failure, not a timeout: well under the rendezvous/step
    // timeouts (the dead peer's sockets close immediately).
    assert!(
        elapsed < Duration::from_secs(60),
        "failure took {elapsed:?}; the launcher must not hang"
    );
}

#[test]
fn mpsc_transport_is_rejected_for_procs() {
    let output = run(&["--backend", "procs", "--transport", "mpsc"], "procs-mpsc");
    assert!(!output.status.success());
    let all = format!(
        "{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(all.contains("AC0701"), "checker should flag mpsc: {all}");
}

#[test]
fn procs_bad_inputs_are_typed_errors_and_the_workers_run_on() {
    use actcomp_check::{Backend, ExperimentConfig, RunSpec};
    use actcomp_runtime::{ProcsOptions, ProcsRuntime, RuntimeError};
    use actcomp_tensor::Tensor;

    let mut cfg = ExperimentConfig::paper_default();
    cfg.model.layers = 4;
    cfg.model.hidden = 16;
    cfg.model.heads = 4;
    cfg.model.ff_hidden = 32;
    cfg.model.vocab = 32;
    cfg.model.max_seq = 8;
    cfg.parallelism.tp = 2;
    cfg.parallelism.pp = 1;
    cfg.batch.micro_batch = 2;
    cfg.batch.seq = 4;
    cfg.runtime = Some(RunSpec {
        backend: Backend::Procs,
        micro_batches: Some(2),
        ..RunSpec::default()
    });
    let mut opts = ProcsOptions::new(cfg, 7);
    opts.worker_exe = Some(BIN.into());
    let mut rt = ProcsRuntime::launch(opts).expect("workers launch");
    let typed = |r: Result<(), RuntimeError>| match r {
        Err(e) => e,
        other => panic!("expected a typed input error, got {other:?}"),
    };
    // The threads engine's suite covers every case of the shared check;
    // here each driver entry point must route through it.
    let ids = [1, 2, 3, 4, 5, 6, 7, 8];
    let grad = Tensor::zeros(vec![8, 16]);
    let no_forward = RuntimeError::BackwardWithoutForward;
    assert_eq!(typed(rt.backward(&grad)), no_forward);
    let oov = RuntimeError::TokenOutOfVocab { id: 40, vocab: 32 };
    assert_eq!(typed(rt.forward(&[40; 8], 2, 4).map(drop)), oov);
    let too_long = RuntimeError::SeqTooLong { seq: 9, max_seq: 8 };
    assert_eq!(typed(rt.infer_submit(&[1; 9], 1, 9)), too_long);
    let y = rt.forward(&ids, 2, 4).expect("valid forward");
    let short = RuntimeError::GradShapeMismatch {
        got: vec![4, 16],
        want: [8, 16],
    };
    assert_eq!(typed(rt.backward(&y.slice_rows(0, 4))), short);
    rt.zero_grad().expect("zero grads");
    rt.backward(&y).expect("valid backward");
    rt.shutdown().expect("clean shutdown");
}
