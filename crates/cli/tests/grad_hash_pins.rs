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
        "d47de0c32cf2bad7",
    ),
    ("--backend serial", "e75f9fa0200deffc"),
    (
        "--backend threads --spec A2 --tp 4 --pp 1 --micro-batches 2",
        "2cbc4d5340555e82",
    ),
    (
        "--backend threads --spec T2 --tp 2 --pp 2 --micro-batches 2",
        "61fca5f808f1742b",
    ),
    (
        "--backend threads --spec Q2 --error-feedback --tp 4 --pp 2 --micro-batches 2",
        "07b3a607e3129fb6",
    ),
    (
        "--backend procs --transport tcp --spec Q2 --link-mbps 200 --micro-batches 2",
        "6fd10a2c98079f20",
    ),
    // The serial executor's compressed path, which every accuracy table
    // trains on.
    (
        "--backend serial --spec A2 --tp 4 --pp 1",
        "6d92b81ee21b568b",
    ),
    (
        "--backend serial --spec T2 --tp 2 --pp 2",
        "d624432c59f88a55",
    ),
    (
        "--backend serial --spec Q2 --error-feedback --tp 4 --pp 2",
        "daa794b368e127ad",
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

#[test]
fn autoencoder_gradients_ignore_the_ring_chunking() {
    // The auto-encoder's weight gradients sum over every row of a
    // collective, so its codec runs unchunked: the ring's chunk size is a
    // speed knob and must not move a bit, and the engine must equal the
    // serial executor.
    let serial = grad_hash("--backend serial --spec A2 --tp 2 --pp 1", 100);
    for (case, chunking) in (101..).zip(["", "--chunk-rows 1", "--chunk-rows 1000"]) {
        let flags = format!("--backend threads --spec A2 --tp 2 --pp 1 {chunking}");
        assert_eq!(grad_hash(&flags, case), serial, "`{flags}`");
    }
}
