//! A rank whose link is cut mid-step is a typed `RankLost` from the
//! threads backend, within a deadline and without panicking the caller:
//! the failed rank replies its transport error and exits, so every peer
//! waiting on it fails in turn instead of blocking. A serving engine on
//! such a world fails its tickets with that error and still finishes.

use actcomp_compress::plan::CompressionPlan;
use actcomp_mp::MpConfig;
use actcomp_net::{mpsc_world, FaultPlan, FaultyTransport, Transport};
use actcomp_nn::{BertConfig, BertEncoder};
use actcomp_runtime::{
    RuntimeConfig, RuntimeError, ServeBackend, ServeConfig, ServeEngine, ServeError,
    ThreadedRuntime,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(60);

/// A `tp × pp` engine, one sequence of 4 tokens a micro-batch, whose
/// rank `cut` severs each of its outgoing streams at its first frame.
fn cut_world(tp: usize, pp: usize, cut: usize) -> ThreadedRuntime {
    let cfg = RuntimeConfig {
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
            tokens: 4,
            error_feedback: false,
        },
        micro_batches: 1,
        tuning: None,
        trace: false,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let serial = BertEncoder::new(&mut rng, cfg.mp.bert.clone());
    let plan = FaultPlan::parse("sever:frame=0").expect("fault spec");
    let world = (mpsc_world(tp * pp).into_iter().enumerate())
        .map(|(rank, t)| match rank == cut {
            true => Box::new(FaultyTransport::new(Box::new(t), plan.clone())) as Box<dyn Transport>,
            false => Box::new(t),
        })
        .collect();
    ThreadedRuntime::with_transports(&serial, cfg, &mut rng, world).expect("engine")
}

/// Runs `body` on its own thread and fails the test unless it returns,
/// without panicking, within the deadline.
fn within_deadline(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    finished
        .recv_timeout(DEADLINE)
        .expect("returned without panicking within the deadline");
}

fn assert_rank_lost(r: Result<impl Sized, RuntimeError>) -> RuntimeError {
    match r {
        Err(e @ RuntimeError::RankLost { .. }) => e,
        Err(e) => panic!("expected a lost rank, got {e}"),
        Ok(_) => panic!("expected a lost rank, got a result"),
    }
}

#[test]
fn a_cut_broadcast_link_fails_the_forward_and_the_world_stays_lost() {
    within_deadline(|| {
        // Rank 2 leads stage 1: its first frame out is the broadcast of
        // the boundary input to rank 3.
        let mut rt = cut_world(2, 2, 2);
        let e = assert_rank_lost(rt.forward(&[1, 2, 3, 4], 1, 4));
        assert!(matches!(e, RuntimeError::RankLost { rank: 2, .. }), "{e}");
        assert_eq!(rt.forward(&[1, 2, 3, 4], 1, 4).map(drop), Err(e));
    });
}

#[test]
fn a_cut_boundary_gradient_link_fails_the_backward() {
    within_deadline(|| {
        // Rank 1 (the last stage) sends nothing until the backward's
        // boundary gradient.
        let mut rt = cut_world(1, 2, 1);
        let y = rt
            .forward(&[1, 2, 3, 4], 1, 4)
            .expect("the forward crosses no cut");
        assert_rank_lost(rt.backward(&y));
    });
}

#[test]
fn serving_on_a_cut_world_fails_every_ticket_and_finishes() {
    within_deadline(|| {
        let backend = ServeBackend::Threads(cut_world(2, 2, 2));
        let engine = ServeEngine::start(backend, ServeConfig::default()).expect("serve config");
        let handle = engine.handle();
        let tickets: Vec<_> = (0..6).map(|i| handle.submit(vec![i; 4])).collect();
        for t in tickets {
            match t.wait() {
                Err(ServeError::Engine(RuntimeError::RankLost { .. })) => {}
                other => panic!("expected the engine's lost rank, got {:?}", other.err()),
            }
        }
        let (stats, report) = engine.finish();
        assert_eq!((stats.completed, stats.failed), (0, 6));
        assert!(report.is_none(), "a lost world has no report");
    });
}
