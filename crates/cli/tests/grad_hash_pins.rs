//! The seeded gradient hashes of nine training configurations, pinned.
//!
//! Every case trains the same small model for two steps from seed 7 and
//! prints `--grad-hash` (an FNV-1a over every gradient's bytes in serial
//! visit order). Serial ≡ threads ≡ procs is tested elsewhere as an
//! equality between backends; this file pins the value itself, so a
//! change that moves any bit of any gradient — in a kernel, a layer, a
//! collective or a codec — fails here. A change that alters numerics on
//! purpose updates the digests and says why.
//!
//! The digests depend on fused multiply-adds and on `f32` library
//! functions, so they are pinned for one platform: Linux on x86-64 with
//! FMA.
#![cfg(all(target_os = "linux", target_arch = "x86_64", target_feature = "fma"))]

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_actcomp");

const SHAPE: &[&str] = &[
    "--layers",
    "4",
    "--hidden",
    "32",
    "--batch",
    "4",
    "--seq",
    "8",
    "--steps",
    "2",
    "--seed",
    "7",
    "--grad-hash",
];

/// `(flags, digest)`.
const PINS: [(&str, &str); 9] = [
    (
        "--backend threads --tp 2 --pp 2 --micro-batches 2",
        "20b1482fb1ebb228",
    ),
    ("--backend serial", "3cf7dca5162582b5"),
    (
        "--backend threads --spec A2 --tp 4 --pp 1 --micro-batches 2",
        "a051ce9b773d9695",
    ),
    (
        "--backend threads --spec T2 --tp 2 --pp 2 --micro-batches 2",
        "2dbc4f79fcfe5d99",
    ),
    (
        "--backend threads --spec Q2 --error-feedback --tp 4 --pp 2 --micro-batches 2",
        "d1c9b5ffc7354ed6",
    ),
    (
        "--backend procs --transport tcp --spec Q2 --link-mbps 200 --micro-batches 2",
        "a5c5f383e27d5d00",
    ),
    // The serial executor's compressed path, which every accuracy table
    // trains on.
    (
        "--backend serial --spec A2 --tp 4 --pp 1",
        "527f53652313ac8e",
    ),
    (
        "--backend serial --spec T2 --tp 2 --pp 2",
        "0135ae5cfaabd6dc",
    ),
    (
        "--backend serial --spec Q2 --error-feedback --tp 4 --pp 2",
        "59acb7fe54b61401",
    ),
];

fn grad_hash(flags: &str, case: usize) -> String {
    let out = std::env::temp_dir().join(format!(
        "actcomp-grad-hash-pin-{}-{case}.json",
        std::process::id()
    ));
    let output = Command::new(BIN)
        .arg("run")
        .args(flags.split_whitespace())
        .args(SHAPE)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawn actcomp");
    let _ = std::fs::remove_file(&out);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "`{flags}` failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("grad-hash "))
        .unwrap_or_else(|| panic!("`{flags}`: no grad-hash line in:\n{stdout}"))
        .to_string()
}

#[test]
fn seeded_grad_hashes_match_their_pins() {
    let moved: Vec<String> = PINS
        .iter()
        .enumerate()
        .filter_map(|(case, &(flags, want))| {
            let got = grad_hash(flags, case);
            (got != want).then(|| format!("`{flags}`: {got}, pinned {want}"))
        })
        .collect();
    assert!(moved.is_empty(), "grad hashes moved:\n{}", moved.join("\n"));
}
