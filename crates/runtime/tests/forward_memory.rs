//! A training forward that no backward follows leaves nothing behind:
//! the next forward drops its caches, so forward-only use of the engine
//! (evaluation between steps, say) holds its memory flat.
//!
//! The process's peak resident set (`VmHWM`) after 50 forwards must
//! barely move over 450 more (4 layers, tp 2, pp 2, two micro-batches,
//! an auto-encoder plan). Forwards that stacked their caches until a
//! backward grew it by about 0.5 MB a forward. One test per binary: the
//! peak is the whole process's.
#![cfg(target_os = "linux")]

use actcomp_compress::plan::CompressionPlan;
use actcomp_compress::spec::CompressorSpec;
use actcomp_mp::MpConfig;
use actcomp_nn::BertConfig;
use actcomp_runtime::{RuntimeConfig, ThreadedRuntime};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// This process's peak resident set, in KiB.
fn peak_rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = (status.lines())
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .expect("a VmHWM line");
    let kib = line.trim().trim_end_matches("kB").trim();
    kib.parse().expect("VmHWM in kB")
}

#[test]
fn forwards_without_a_backward_do_not_grow_memory() {
    let bert = BertConfig {
        vocab: 64,
        hidden: 32,
        layers: 4,
        heads: 4,
        ff_hidden: 64,
        max_seq: 8,
    };
    let cfg = RuntimeConfig {
        mp: MpConfig {
            bert,
            tp: 2,
            pp: 2,
            plan: CompressionPlan::last_layers(CompressorSpec::A2, 4, 2),
            tokens: 16,
            error_feedback: false,
        },
        micro_batches: 2,
        tuning: None,
        trace: false,
    };
    let mut rt = ThreadedRuntime::new(&mut ChaCha8Rng::seed_from_u64(0), cfg).expect("valid");
    let ids: Vec<usize> = (0..32).map(|i| i * 7 % 64).collect();
    let mut forwards = |n| {
        for _ in 0..n {
            rt.forward(&ids, 4, 8).expect("forward");
        }
    };
    forwards(50);
    let warm = peak_rss_kib();
    forwards(450);
    let grown = peak_rss_kib() - warm;
    assert!(
        grown < 5 * 1024,
        "peak RSS grew {grown} KiB over 450 forwards"
    );
    // A backward still finds the last forward's caches.
    rt.backward(&actcomp_tensor::Tensor::ones([32, 32]))
        .expect("the last forward's backward");
}
