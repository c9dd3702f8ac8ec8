//! A bad input to the threaded engine is a typed error that dispatches
//! nothing: every rank stays alive, and the same engine then runs a
//! valid step bit-identical to a fresh engine's. A bad transport set is
//! a typed error before any rank starts.

use actcomp_compress::plan::CompressionPlan;
use actcomp_mp::MpConfig;
use actcomp_net::{mpsc_world, Transport};
use actcomp_nn::{BertConfig, BertEncoder};
use actcomp_runtime::{RuntimeConfig, RuntimeError, ThreadedRuntime};
use actcomp_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const IDS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

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

fn engine(tp: usize, pp: usize) -> ThreadedRuntime {
    ThreadedRuntime::new(&mut ChaCha8Rng::seed_from_u64(3), cfg(tp, pp)).expect("valid config")
}

/// One valid step's output and gradients.
fn step(rt: &mut ThreadedRuntime) -> (Tensor, Vec<Tensor>) {
    let y = rt.forward(&IDS, 2, 4).expect("valid forward");
    rt.zero_grad();
    rt.backward(&y).expect("valid backward");
    (y, rt.collect_grads())
}

#[test]
fn bad_inputs_are_typed_errors_and_the_engine_runs_on() {
    for (tp, pp) in [(2, 1), (1, 2), (2, 2)] {
        let mut rt = engine(tp, pp);
        let grad = |rows, cols| Tensor::zeros(vec![rows, cols]);
        assert_eq!(
            rt.backward(&grad(8, 16)),
            Err(RuntimeError::BackwardWithoutForward)
        );
        let forward_errors = [
            (
                &IDS[..7],
                2,
                4,
                RuntimeError::IdsLengthMismatch {
                    len: 7,
                    batch: 2,
                    seq: 4,
                },
            ),
            (
                &[1; 18][..],
                2,
                9,
                RuntimeError::SeqTooLong { seq: 9, max_seq: 8 },
            ),
            (
                &[1, 2, 3, 32, 4, 5, 6, 7][..],
                2,
                4,
                RuntimeError::TokenOutOfVocab { id: 32, vocab: 32 },
            ),
            (
                &IDS[..],
                1,
                8,
                RuntimeError::BatchNotDivisible {
                    batch: 1,
                    micro_batches: 2,
                },
            ),
        ];
        for (ids, batch, seq, want) in forward_errors {
            assert_eq!(rt.forward(ids, batch, seq).err(), Some(want));
        }
        assert_eq!(
            rt.infer(&[], 0, 4).err(),
            Some(RuntimeError::ZeroMicroBatches)
        );
        assert_eq!(
            rt.infer(&[0, 1, 2, 99], 1, 4).err(),
            Some(RuntimeError::TokenOutOfVocab { id: 99, vocab: 32 })
        );

        let y = rt.forward(&IDS, 2, 4).expect("valid forward");
        for bad in [grad(8, 7), grad(4, 16), Tensor::zeros(vec![8])] {
            let want = RuntimeError::GradShapeMismatch {
                got: bad.dims().to_vec(),
                want: [8, 16],
            };
            assert_eq!(rt.backward(&bad), Err(want));
        }
        rt.zero_grad();
        rt.backward(&y).expect("valid backward");
        // The drain consumed the forward, and an inference drops one.
        assert_eq!(rt.backward(&y), Err(RuntimeError::BackwardWithoutForward));
        rt.forward(&IDS, 2, 4).expect("valid forward");
        rt.infer(&IDS[..4], 1, 4).expect("valid inference");
        assert_eq!(rt.backward(&y), Err(RuntimeError::BackwardWithoutForward));

        // Nothing rejected reached a rank: the engine's next step equals
        // a fresh engine's first, bit for bit (no SGD step ran).
        let (want_y, want_grads) = step(&mut engine(tp, pp));
        let (got_y, got_grads) = step(&mut rt);
        assert_eq!(y.as_slice(), want_y.as_slice());
        assert_eq!(got_y.as_slice(), want_y.as_slice());
        assert_eq!(got_grads.len(), want_grads.len());
        for (got, want) in got_grads.iter().zip(&want_grads) {
            assert_eq!(got.as_slice(), want.as_slice());
        }
    }
}

#[test]
fn an_out_of_order_transport_set_names_the_misplaced_rank() {
    let c = cfg(2, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let serial = BertEncoder::new(&mut rng, c.mp.bert.clone());
    let reversed: Vec<Box<dyn Transport>> = (mpsc_world(2).into_iter().rev())
        .map(|t| Box::new(t) as Box<dyn Transport>)
        .collect();
    let err = ThreadedRuntime::with_transports(&serial, c, &mut rng, reversed)
        .expect_err("a reversed transport set");
    assert_eq!(err, RuntimeError::TransportRank { index: 0, rank: 1 });
    assert_eq!(
        err.to_string(),
        "transport 0 is rank 1; transports must be in rank order"
    );
}
