//! The serial executor's layers run on the model's own workspace, whose
//! plan cache makes every `MpBert` step after the first compile-free.

use actcomp_compress::plan::CompressionPlan;
use actcomp_mp::{MpBert, MpConfig};
use actcomp_nn::BertConfig;
use actcomp_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn mpbert_steps_after_the_first_compile_nothing() {
    let config = MpConfig {
        bert: BertConfig {
            vocab: 32,
            hidden: 16,
            layers: 4,
            heads: 4,
            ff_hidden: 32,
            max_seq: 8,
        },
        tp: 2,
        pp: 2,
        plan: CompressionPlan::none(),
        tokens: 8,
        error_feedback: false,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut mp = MpBert::new(&mut rng, config);
    let mut step = || {
        mp.forward(&[1, 2, 3, 4, 5, 6, 7, 8], 2, 4);
        mp.zero_grad();
        mp.backward(&Tensor::ones([8, 16]));
        mp.plan_compiles()
    };
    let warm = step();
    assert!(warm > 0, "the first step compiles the layer graphs");
    for _ in 0..3 {
        assert_eq!(step(), warm, "a later step compiled a graph again");
    }
}
