//! Measured vs. predicted phase breakdown: runs the threaded engine
//! (`actcomp-runtime`) on a scaled-down copy of the paper's Table 4
//! configuration (PCIe, TP=2 / PP=2, compression on the last half of the
//! layers) and compares each phase's *share* of the iteration against
//! `actcomp-distsim`'s prediction for the full-size setup.
//!
//! Absolute times cannot match — the engine measures CPU threads while
//! the simulator models V100s — so the comparison is over fractions:
//! compute / encode / wire / decode as a percentage of the iteration,
//! with the relative error per phase reported.

use actcomp_bench::util;
use actcomp_compress::cost::CostModel;
use actcomp_compress::plan::CompressionPlan;
use actcomp_compress::spec::CompressorSpec;
use actcomp_core::report::Table;
use actcomp_distsim::{calibration, simulate_iteration, ClusterSpec, Parallelism, TrainSetup};
use actcomp_mp::MpConfig;
use actcomp_nn::BertConfig;
use actcomp_runtime::{RuntimeConfig, ThreadedRuntime};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Four-phase share of an iteration, each in `[0, 1]`.
struct Shares {
    compute: f64,
    encode: f64,
    wire: f64,
    decode: f64,
}

impl Shares {
    fn rows(&self) -> [(&'static str, f64); 4] {
        [
            ("compute", self.compute),
            ("encode", self.encode),
            ("wire", self.wire),
            ("decode", self.decode),
        ]
    }
}

/// Predicted shares for the paper-scale Table 4 config (BERT-Large,
/// PCIe, TP=2 / PP=2, spec on the last 12 of 24 layers).
fn predicted(spec: CompressorSpec) -> Shares {
    let plan = match spec {
        CompressorSpec::Baseline => CompressionPlan::none(),
        s => CompressionPlan::last_layers(s, 24, 12),
    };
    let b = simulate_iteration(&TrainSetup {
        model: actcomp_distsim::workload::ModelShape::bert_large(),
        seq: 512,
        micro_batch: 32,
        num_micro_batches: 1,
        parallelism: Parallelism::new(2, 2),
        cluster: ClusterSpec::local_no_nvlink(),
        gpu: calibration::v100_finetune(),
        plan,
        cost: CostModel::v100(),
    });
    let boundary: f64 = b.boundary_per_mb_ms.iter().sum();
    let wire = b.tensor_comm_ms + boundary;
    let compute = (b.total_ms - b.tensor_enc_ms - b.tensor_dec_ms - wire).max(0.0);
    let total = b.total_ms;
    Shares {
        compute: compute / total,
        encode: b.tensor_enc_ms / total,
        wire: wire / total,
        decode: b.tensor_dec_ms / total,
    }
}

/// Measured shares from the threaded engine on a 1/6-depth, 1/16-width
/// replica of the same layout (TP=2, PP=2, spec on the last half).
fn measured(spec: CompressorSpec, steps: usize) -> Shares {
    let bert = BertConfig {
        vocab: 128,
        hidden: 64,
        layers: 4,
        heads: 4,
        ff_hidden: 256,
        max_seq: 32,
    };
    let plan = match spec {
        CompressorSpec::Baseline => CompressionPlan::none(),
        s => CompressionPlan::last_layers(s, bert.layers, bert.layers / 2),
    };
    let (batch, seq) = (8usize, 32usize);
    let cfg = RuntimeConfig {
        mp: MpConfig {
            bert,
            tp: 2,
            pp: 2,
            plan,
            tokens: batch * seq,
            error_feedback: false,
        },
        micro_batches: 1,
        tuning: None,
        trace: false,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let mut rt = ThreadedRuntime::new(&mut rng, cfg).expect("valid benchmark config");
    let mut drng = ChaCha8Rng::seed_from_u64(7);
    let ids: Vec<usize> = (0..batch * seq)
        .map(|_| (drng.gen::<u64>() % 128) as usize)
        .collect();
    for _ in 0..steps {
        let y = rt.forward(&ids, batch, seq).expect("valid benchmark step");
        rt.zero_grad();
        rt.backward(&y).expect("valid benchmark grad");
        rt.sgd_step(1e-2);
    }
    let t = rt.report().totals;
    let total = t.total_s().max(f64::MIN_POSITIVE);
    Shares {
        compute: t.compute_s / total,
        encode: t.encode_s / total,
        wire: t.wire_s / total,
        decode: t.decode_s / total,
    }
}

fn main() {
    let opts = util::Options::from_args();
    let steps = opts.steps.unwrap_or(if opts.quick { 1 } else { 3 });
    let specs = [
        CompressorSpec::Baseline,
        CompressorSpec::A1,
        CompressorSpec::T2,
        CompressorSpec::Q1,
    ];
    let mut table = Table::new(
        "Runtime vs. simulator — phase share of one iteration [measured (predicted)]",
        ["Spec", "Phase", "Measured %", "Predicted %", "Rel. err"]
            .into_iter()
            .map(String::from)
            .collect(),
    );
    let mut records = Vec::new();
    for spec in specs {
        let p = predicted(spec);
        let m = measured(spec, steps);
        for ((phase, mf), (_, pf)) in m.rows().into_iter().zip(p.rows()) {
            // Phases the simulator prices at (essentially) zero — e.g.
            // codec time of the uncompressed baseline — have no
            // meaningful relative error.
            let err = if pf > 1e-3 {
                format!("{:+.0}%", 100.0 * (mf - pf) / pf)
            } else {
                "—".to_string()
            };
            table.push_row(vec![
                spec.label().to_string(),
                phase.to_string(),
                format!("{:.1}", 100.0 * mf),
                format!("{:.1}", 100.0 * pf),
                err,
            ]);
            records.push(util::record(
                "runtime_vs_sim",
                format!("{} {phase} share", spec.label()),
                Some(100.0 * pf),
                100.0 * mf,
                "%",
            ));
        }
    }
    util::emit(&opts, "runtime_vs_sim", &table, &records);
    println!(
        "Caveat: measured shares come from CPU threads on a scaled-down model, \
         predicted shares from the V100 cost model at paper scale — compare \
         shapes (which phases dominate per spec), not digits."
    );
}
