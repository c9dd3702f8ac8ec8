//! Serving holds its memory flat: a forward-only request leaves nothing
//! behind, in the blocks' caches or in a codec.
//!
//! The process's peak resident set (`VmHWM`) after a warm-up of 512
//! requests must barely move over 3 584 more through an auto-encoder
//! plan (the `actcomp serve --spec A2` engine: threads, 4 layers, tp 2,
//! pp 2). A codec that kept its input and code until a backward that
//! serving never runs grows it by about 10 KB a request. One test per
//! binary: the peak is the whole process's.
#![cfg(target_os = "linux")]

use actcomp_compress::plan::CompressionPlan;
use actcomp_compress::spec::CompressorSpec;
use actcomp_mp::MpConfig;
use actcomp_nn::BertConfig;
use actcomp_runtime::{
    run_load, Arrival, LoadConfig, RuntimeConfig, ServeBackend, ServeConfig, ServeEngine,
    ThreadedRuntime,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SEQ: usize = 8;
const VOCAB: usize = 64;

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
fn serving_through_an_auto_encoder_does_not_grow_memory_per_request() {
    let bert = BertConfig {
        vocab: VOCAB,
        hidden: 32,
        layers: 4,
        heads: 4,
        ff_hidden: 64,
        max_seq: SEQ,
    };
    let cfg = RuntimeConfig {
        mp: MpConfig {
            bert,
            tp: 2,
            pp: 2,
            plan: CompressionPlan::last_layers(CompressorSpec::A2, 4, 2),
            tokens: SEQ,
            error_feedback: false,
        },
        micro_batches: 1,
        tuning: None,
        trace: false,
    };
    let rt = ThreadedRuntime::new(&mut ChaCha8Rng::seed_from_u64(0), cfg).expect("valid config");
    let engine =
        ServeEngine::start(ServeBackend::Threads(rt), ServeConfig::default()).expect("starts");
    let load = |requests, seed| {
        let arrival = Arrival::Closed { clients: 16 };
        let report = run_load(
            &engine,
            &LoadConfig {
                requests,
                arrival,
                vocab: VOCAB,
                seed,
            },
        );
        assert_eq!(report.completed, requests, "every request completes");
    };
    load(512, 1);
    let warm = peak_rss_kib();
    load(3584, 2);
    let grown = peak_rss_kib() - warm;
    assert!(
        grown < 5 * 1024,
        "peak RSS grew {grown} KiB over 3584 forward-only requests"
    );
}
