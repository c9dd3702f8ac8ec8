//! Chaos e2e for the procs backend: kill a worker mid-run with the
//! fault-injection layer, and assert the supervisor detects the loss,
//! respawns from the last distributed checkpoint, and finishes with a
//! grad hash **bit-identical** to the fault-free run.

use std::process::{Command, Output};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_actcomp");

/// Small 2-process tensor-parallel shape; six steps leave room for a
/// checkpoint at step 2 and a kill at step 3.
const SHAPE: &[&str] = &[
    "--backend",
    "procs",
    "--tp",
    "2",
    "--pp",
    "1",
    "--layers",
    "4",
    "--hidden",
    "32",
    "--batch",
    "4",
    "--seq",
    "8",
    "--steps",
    "6",
    "--seed",
    "7",
    "--grad-hash",
];

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("actcomp-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `actcomp run` with `cwd` as the working directory (chaos runs
/// drop a `RECOVERY_trace.json` there; pointing it at scratch keeps the
/// source tree clean).
fn run(extra: &[&str], out_name: &str, cwd: &std::path::Path) -> Output {
    let out = std::env::temp_dir().join(format!(
        "actcomp-recovery-{}-{out_name}.json",
        std::process::id()
    ));
    Command::new(BIN)
        .arg("run")
        .args(SHAPE)
        .args(extra)
        .arg("--out")
        .arg(&out)
        .current_dir(cwd)
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
fn killed_rank_recovers_from_checkpoint_bit_identically() {
    let work = scratch("work");
    let baseline = grad_hash(&run(&[], "baseline", &work));

    let ckpt = scratch("ckpt");
    let ckpt_flag = ckpt.to_str().expect("utf-8 temp dir");
    let start = Instant::now();
    let chaos = run(
        &[
            "--fault",
            "kill:rank=1@step=3",
            "--checkpoint-every",
            "2",
            "--checkpoint-dir",
            ckpt_flag,
        ],
        "chaos",
        &work,
    );
    let elapsed = start.elapsed();
    let hash = grad_hash(&chaos);
    let stdout = String::from_utf8_lossy(&chaos.stdout);

    // The supervisor must have actually recovered (not sailed through).
    assert!(
        stdout.contains("recovery: epoch"),
        "no recovery event in stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("recovery: run completed after"),
        "no recovery summary in stdout:\n{stdout}"
    );
    // Detection is heartbeat/socket-close driven, far below the step
    // timeout — the whole chaos run must stay interactive.
    assert!(
        elapsed < Duration::from_secs(120),
        "chaos run took {elapsed:?}; detection must not wait out a timeout"
    );
    // The acceptance bar: recovery is bitwise-lossless.
    assert_eq!(
        hash, baseline,
        "recovered run must match the fault-free grad hash bit-for-bit"
    );

    // The machine-readable trace rides along for CI artifact upload.
    let trace =
        std::fs::read_to_string(work.join("RECOVERY_trace.json")).expect("recovery trace written");
    assert!(
        trace.contains("\"restarts\""),
        "trace should carry the restart count: {trace}"
    );
}

#[test]
fn unrecovered_fault_fails_when_restarts_are_exhausted() {
    // max-restarts 0 turns the supervisor into fail-fast: the kill must
    // surface as a typed error, not a hang and not a silent success.
    let output = run(
        &["--fault", "kill:rank=1@step=1", "--max-restarts", "0"],
        "no-restarts",
        &scratch("no-restarts"),
    );
    assert!(
        !output.status.success(),
        "a kill with no restart budget must fail the run"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("lost") || stderr.contains("peer closed") || stderr.contains("timed out"),
        "stderr should carry the typed loss error:\n{stderr}"
    );
}

#[test]
fn an_unwritable_checkpoint_fails_once_and_names_the_io_error() {
    // A checkpoint directory under a regular file can never be created:
    // the run must stop with that I/O error, not relaunch the world to
    // meet it again.
    let work = scratch("bad-ckpt");
    let file = work.join("file");
    std::fs::write(&file, b"not a directory").expect("scratch file");
    let dir = file.join("ckpt");
    let start = Instant::now();
    let output = run(
        &[
            "--transport",
            "uds",
            "--checkpoint-every",
            "1",
            "--checkpoint-dir",
            dir.to_str().expect("utf-8 temp dir"),
        ],
        "bad-ckpt",
        &work,
    );
    let elapsed = start.elapsed();
    let (stdout, stderr) = (
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    assert!(
        !output.status.success(),
        "the run must fail\nstdout:\n{stdout}"
    );
    assert!(
        stderr.contains("checkpoint failed") && stderr.contains("Not a directory"),
        "the error must name the shard I/O failure:\n{stderr}"
    );
    // One generation: step 0 reported once, no restart.
    assert_eq!(stdout.matches("step 0:").count(), 1, "stdout:\n{stdout}");
    assert!(!stdout.contains("recovery:"), "stdout:\n{stdout}");
    assert!(elapsed < Duration::from_secs(60), "took {elapsed:?}");
}

#[test]
fn a_crashed_worker_leaves_no_socket_file() {
    // The launcher unlinks each reaped worker's data-plane socket, so a
    // worker that vanished without dropping its transport leaves nothing
    // in the temp dir the workers inherit.
    let tmp = scratch("sockets");
    let output = Command::new(BIN)
        .args([
            "run",
            "--backend",
            "procs",
            "--transport",
            "uds",
            "--tp",
            "2",
            "--pp",
            "1",
        ])
        .args(["--steps", "1", "--fail-rank", "1", "--out"])
        .arg(tmp.join("report.json"))
        .env("TMPDIR", &tmp)
        .current_dir(&tmp)
        .output()
        .expect("spawn actcomp");
    assert!(!output.status.success(), "a crashed rank must fail the run");
    let left: Vec<_> = (std::fs::read_dir(&tmp).expect("read temp dir"))
        .filter_map(|e| e.ok().map(|e| e.file_name()))
        .filter(|name| name.to_string_lossy().ends_with(".sock"))
        .collect();
    assert!(left.is_empty(), "socket files left behind: {left:?}");
}
