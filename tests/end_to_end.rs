//! Cross-crate integration tests exercising the public API end to end at
//! test-friendly scales.

use actcomp::compress::plan::CompressionPlan;
use actcomp::compress::spec::CompressorSpec;
use actcomp::core::throughput::{finetune_breakdown, pretrain_breakdown, Machine};
use actcomp::core::{accuracy, AccuracyConfig};
use actcomp::data::GlueTask;
use actcomp::mp::{MpBert, MpConfig};
use actcomp::nn::{BertConfig, BertEncoder};
use actcomp::perfmodel::PerfCoefficients;
use actcomp::tensor::init;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A small config for fast integration-level training.
fn small_accuracy_config() -> AccuracyConfig {
    let mut cfg = AccuracyConfig::paper_default();
    cfg.bert.layers = 4;
    cfg.bert.hidden = 32;
    cfg.bert.ff_hidden = 128;
    cfg.steps = 60;
    cfg.lr = 5e-4;
    cfg.seq = 16;
    cfg
}

#[test]
fn quickstart_flow_compress_and_decompress() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let x = init::randn(&mut rng, [16, 1024], 1.0);
    for spec in CompressorSpec::all() {
        let mut c = spec.build(&mut rng, x.len(), 1024);
        let msg = c.compress(&x);
        let y = c.decompress(&msg);
        assert_eq!(y.dims(), x.dims(), "{spec}");
        assert!(y.all_finite(), "{spec}");
        if spec != CompressorSpec::Baseline {
            assert!(msg.wire_bytes(2) < x.len() * 2, "{spec} did not compress");
        }
    }
}

#[test]
fn throughput_headlines_reproduce() {
    // Takeaway 1 condensed: AE speeds up the PCIe machine, Random-K is
    // catastrophic everywhere, and nothing much helps on NVLink.
    let pcie_base = finetune_breakdown(Machine::LocalPcie, 2, 2, 32, 512, CompressorSpec::Baseline);
    let pcie_a1 = finetune_breakdown(Machine::LocalPcie, 2, 2, 32, 512, CompressorSpec::A1);
    assert!(pcie_base.total_ms / pcie_a1.total_ms > 1.05);

    let nv_base = finetune_breakdown(Machine::AwsP3, 4, 1, 32, 512, CompressorSpec::Baseline);
    let nv_a1 = finetune_breakdown(Machine::AwsP3, 4, 1, 32, 512, CompressorSpec::A1);
    assert!(nv_a1.total_ms >= nv_base.total_ms * 0.99);

    let r4 = finetune_breakdown(Machine::AwsP3, 2, 2, 32, 512, CompressorSpec::R4);
    assert!(r4.total_ms > 20.0 * nv_base.total_ms);
}

#[test]
fn pretrain_headlines_reproduce() {
    // Takeaways 3–4: AE and Top-K help pre-training; quantization hurts.
    let base = pretrain_breakdown(4, 4, CompressorSpec::Baseline);
    let a2 = pretrain_breakdown(4, 4, CompressorSpec::A2);
    let t1 = pretrain_breakdown(4, 4, CompressorSpec::T1);
    let q2 = pretrain_breakdown(4, 4, CompressorSpec::Q2);
    assert!(a2.total_ms < base.total_ms);
    assert!(t1.total_ms < base.total_ms);
    assert!(q2.total_ms > base.total_ms);
    // AE's gain is in the double digits (paper: ~14–16%).
    assert!(base.total_ms / a2.total_ms > 1.05);
}

#[test]
fn accuracy_training_learns_through_compressed_stack() {
    // A real fine-tune through TP=2/PP=2 with the AE in the loop must
    // still learn the easy task far above chance.
    let cfg = small_accuracy_config().with_spec(CompressorSpec::A2);
    let r = accuracy::finetune(&cfg, GlueTask::Sst2);
    assert!(r.score > 75.0, "A2 SST-2 score {}", r.score);

    // And the uncompressed baseline is at least as good.
    let base = accuracy::finetune(&small_accuracy_config(), GlueTask::Sst2);
    assert!(base.score > 80.0, "baseline SST-2 score {}", base.score);
}

#[test]
fn sparsification_hurts_accuracy_more_than_ae() {
    // Table 5's ordering on the fragile sequential task, at small scale:
    // baseline ≥ AE ≫ aggressive Top-K.
    let base = accuracy::finetune(&small_accuracy_config(), GlueTask::Sst2).score;
    let t1 = accuracy::finetune(
        &small_accuracy_config().with_spec(CompressorSpec::T1),
        GlueTask::Sst2,
    )
    .score;
    assert!(
        base - t1 > 5.0,
        "T1 should clearly degrade: baseline {base} vs T1 {t1}"
    );
}

#[test]
fn pretrain_then_finetune_round_trip() {
    let mut cfg = small_accuracy_config().with_spec(CompressorSpec::A2);
    cfg.lr = 5e-4;
    let checkpoint = accuracy::pretrain(&cfg, 40);
    // The checkpoint is a plain serial model (compressors stripped) and
    // can be fine-tuned under a different setting.
    let ft = small_accuracy_config();
    let r = accuracy::finetune_from(&ft, &checkpoint, GlueTask::Sst2);
    assert!(r.score > 60.0, "post-pretrain score {}", r.score);
}

#[test]
fn mp_model_statistics_match_serial() {
    let bert = BertConfig {
        vocab: 32,
        hidden: 16,
        layers: 4,
        heads: 4,
        ff_hidden: 32,
        max_seq: 8,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut serial = BertEncoder::new(&mut rng, bert.clone());
    let cfg = MpConfig {
        bert,
        tp: 2,
        pp: 2,
        plan: CompressionPlan::none(),
        tokens: 8,
        error_feedback: false,
    };
    let mut rng2 = ChaCha8Rng::seed_from_u64(6);
    let mut mp = MpBert::from_serial(&serial, cfg, &mut rng2);
    assert_eq!(mp.num_params(), serial.num_params());
    let ids = [1usize, 2, 3, 4, 5, 6, 7, 8];
    let want = serial.forward(&ids, 2, 4);
    let diff = mp.forward(&ids, 2, 4).max_abs_diff(&want);
    // Four layers, two sums of two parts each, every part's partial sum
    // rounded to bfloat16 (8 significant bits): at most 2⁻⁸ of the
    // output's scale per rounding.
    let bound = 16.0 * 2f32.powi(-8) * want.abs_max();
    assert!(diff <= bound, "serial/MP divergence {diff} > {bound}");
}

#[test]
fn perfmodel_consistent_with_simulator_trend() {
    // Both the analytical model and the simulator agree the AE's benefit
    // shrinks with hidden size on a fixed cluster.
    let m = PerfCoefficients::paper();
    let s_small = m.speedup(16, 128, 4096, 400);
    let s_large = m.speedup(16, 128, 16384, 1600);
    assert!(s_small > s_large);
}
