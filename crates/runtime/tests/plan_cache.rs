//! After its first step (or first request of a shape) a rank compiles
//! nothing: every layer graph comes out of its workspace's plan cache.
//! The count is a plain counter on the rank's `Workspace`, reported per
//! rank as `RankReport::plan_compiles`.

use actcomp_compress::plan::CompressionPlan;
use actcomp_mp::MpConfig;
use actcomp_nn::BertConfig;
use actcomp_runtime::{RuntimeConfig, ThreadedRuntime};
use actcomp_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const IDS: [usize; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1];

fn cfg(tp: usize, pp: usize) -> RuntimeConfig {
    RuntimeConfig {
        mp: MpConfig {
            bert: BertConfig {
                vocab: 32,
                hidden: 16,
                layers: 4,
                heads: 4,
                ff_hidden: 32,
                max_seq: 8,
            },
            tp,
            pp,
            plan: CompressionPlan::none(),
            tokens: 8,
            error_feedback: false,
        },
        micro_batches: 2,
        tuning: None,
        trace: false,
    }
}

fn compiles(rt: &mut ThreadedRuntime) -> Vec<u64> {
    let ranks = rt.report().ranks;
    ranks
        .iter()
        .map(|r| r.plan_compiles.expect("this build reports the count"))
        .collect()
}

#[test]
fn steps_and_requests_after_the_first_compile_nothing() {
    for tp in [1usize, 2] {
        for pp in [1usize, 2] {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let mut rt = ThreadedRuntime::new(&mut rng, cfg(tp, pp)).expect("valid");
            let step = |rt: &mut ThreadedRuntime| {
                rt.forward(&IDS, 4, 4).expect("valid step");
                rt.zero_grad();
                rt.backward(&Tensor::ones([16, 16])).expect("valid grad");
                rt.sgd_step(0.01);
            };
            step(&mut rt);
            let warm = compiles(&mut rt);
            assert_eq!(warm.len(), tp * pp);
            assert!(
                warm.iter().all(|&c| c > 0),
                "tp={tp} pp={pp}: the first step compiles every rank's graphs: {warm:?}"
            );
            for _ in 0..3 {
                step(&mut rt);
            }
            assert_eq!(compiles(&mut rt), warm, "tp={tp} pp={pp}: training steps");

            // Serving runs every request as its own micro-batch, so one
            // request warms the shape for any batch of them.
            rt.infer(&IDS[..8], 1, 8).expect("valid request");
            let served = compiles(&mut rt);
            rt.infer(&IDS, 2, 8).expect("valid batch");
            rt.infer(&IDS[..8], 1, 8).expect("valid request");
            assert_eq!(
                compiles(&mut rt),
                served,
                "tp={tp} pp={pp}: served requests"
            );
        }
    }
}
