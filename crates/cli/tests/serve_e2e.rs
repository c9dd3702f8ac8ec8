//! End-to-end tests for `actcomp serve`: resident rank workers (threads
//! and multi-process) behind the admission queue, the closed- and
//! open-loop load generator, and the typed-failure path when a worker
//! dies mid-request.

use std::process::{Command, Output};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_actcomp");

fn serve(extra: &[&str]) -> Output {
    Command::new(BIN)
        .arg("serve")
        .args([
            "--tp", "2", "--pp", "2", "--layers", "4", "--hidden", "32", "--seq", "8",
        ])
        .args(extra)
        .output()
        .expect("spawn actcomp")
}

#[test]
fn procs_workers_serve_requests_end_to_end() {
    let output = serve(&[
        "--backend",
        "procs",
        "--transport",
        "uds",
        "--requests",
        "16",
        "--clients",
        "4",
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "serve failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.contains("req/s"),
        "load report should print throughput:\n{stdout}"
    );
}

#[test]
fn killed_serve_worker_surfaces_a_typed_error_not_a_hang() {
    let start = Instant::now();
    // The fault plan kills rank 1 on its first inference command, so
    // every queued request must fail with the typed worker-loss error
    // from the PR 8 liveness machinery — and fast: the dead peer's
    // sockets close immediately, nothing waits out a timeout.
    let output = serve(&[
        "--backend",
        "procs",
        "--transport",
        "tcp",
        "--fault",
        "kill:rank=1@step=0",
        "--requests",
        "8",
        "--clients",
        "4",
    ]);
    let elapsed = start.elapsed();
    assert!(
        !output.status.success(),
        "serving on a dead world must exit non-zero"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("request(s) failed"),
        "stderr should count the failed requests, got:\n{stderr}"
    );
    assert!(
        stderr.contains("lost") || stderr.contains("timed out"),
        "stderr should carry the typed worker-loss error, got:\n{stderr}"
    );
    assert!(
        elapsed < Duration::from_secs(60),
        "failure took {elapsed:?}; serving must never hang on a dead rank"
    );
}

#[test]
fn threads_serve_answers_open_loop_load() {
    let output = serve(&[
        "--backend",
        "threads",
        "--arrival",
        "open",
        "--rate",
        "400",
        "--requests",
        "32",
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "serve failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    for line in ["req/s", "batches:"] {
        assert!(stdout.contains(line), "missing `{line}` in:\n{stdout}");
    }
}

#[test]
fn serve_rejects_serving_options_on_the_serial_backend() {
    let output = serve(&["--backend", "serial", "--requests", "4"]);
    assert!(!output.status.success());
    let all = format!(
        "{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        all.contains("AC1002"),
        "checker should flag serving options on serial: {all}"
    );
}

#[test]
fn procs_workers_serve_over_tcp() {
    // The tensor-parallel sums cross real sockets as two-byte dense rows.
    let output = serve(&[
        "--backend",
        "procs",
        "--transport",
        "tcp",
        "--requests",
        "8",
        "--clients",
        "2",
    ]);
    assert!(
        output.status.success(),
        "tcp procs serve failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}
