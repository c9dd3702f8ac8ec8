//! One ring interpreter, two drivers: the serial executor's endpoints,
//! run round-robin in one thread over in-memory queues, and the threaded
//! ranks' endpoints, each blocking on its transport channels, produce
//! the same bits — outputs, `bytes`, `ring_bytes` and synced
//! auto-encoder gradients — for every ring size, chunk plan, pipeline
//! depth and codec.

use actcomp_compress::spec::CompressorSpec;
use actcomp_compress::{Compressor, ErrorFeedback};
use actcomp_mp::{CommBytes, InProcess, Reduce, Ring, SumPoint};
use actcomp_runtime::{PhaseTimers, RingTuning, TpGroup};
use actcomp_tensor::{init, Tensor, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const ROWS: usize = 7;
const HIDDEN: usize = 8;
const STEPS: usize = 2;

/// The codec every worker holds at each sum, or `None` for a dense one.
type Codec = Option<(CompressorSpec, bool)>;

fn codec(c: (CompressorSpec, bool)) -> Box<dyn Compressor> {
    let (spec, error_feedback) = c;
    let inner = spec.build(&mut ChaCha8Rng::seed_from_u64(5), ROWS * HIDDEN, HIDDEN);
    if error_feedback {
        Box::new(ErrorFeedback::new(inner))
    } else {
        inner
    }
}

/// Worker `rank`'s input at `step`: a forward partial, a backward part
/// and — rank 0's is every worker's — the gradient of the sum.
fn inputs(rank: usize, step: usize) -> [Tensor; 3] {
    let mut rng = ChaCha8Rng::seed_from_u64((10 * rank + step) as u64);
    [(); 3].map(|_| init::randn(&mut rng, [ROWS, HIDDEN], 1.0))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// What one worker saw: per step the sum, the dense sum and its codec
/// gradient; then its meters and its synced codec parameter gradients.
#[derive(Debug, PartialEq)]
struct Seen {
    sums: Vec<[Vec<u32>; 3]>,
    bytes: CommBytes,
    ring_bytes: CommBytes,
    grads: Vec<Vec<u32>>,
}

/// The serial executor: every worker's endpoint in one thread.
fn serial(world: usize, tuning: RingTuning, c: Codec) -> Vec<Seen> {
    let workers = || (0..world).map(|_| codec(c.expect("a codec"))).collect();
    let mut sums = match c {
        Some(_) => InProcess::new(workers(), workers()),
        None => InProcess::dense(world),
    };
    sums.ring()
        .endpoints
        .iter_mut()
        .for_each(|ep| ep.tuning = tuning);
    let ws = &mut Workspace::new();
    let mut steps = Vec::new();
    for step in 0..STEPS {
        let [fwd, bwd, dy]: [Vec<Tensor>; 3] =
            [0, 1, 2].map(|i| (0..world).map(|r| inputs(r, step)[i].clone()).collect());
        let mut ring = sums.ring();
        let y = ring.sum(SumPoint::Attention, fwd, ws);
        let d = ring.dense_sum(bwd, ws);
        let dx = ring.sum_backward(SumPoint::Attention, &dy[0]);
        steps.push((bits(&y), bits(&d), dx.iter().map(bits).collect::<Vec<_>>()));
    }
    sums.sync_param_grads();
    let ring = sums.ring();
    (0..world)
        .map(|r| {
            let mut grads = Vec::new();
            for comp in ring.comps[r].iter_mut().flatten() {
                comp.visit_params(&mut |p| grads.push(bits(&p.grad)));
            }
            Seen {
                sums: (steps.iter())
                    .map(|(y, d, dx)| [y.clone(), d.clone(), dx[r].clone()])
                    .collect(),
                bytes: ring.endpoints[r].bytes,
                ring_bytes: ring.endpoints[r].ring_bytes,
                grads,
            }
        })
        .collect()
}

/// The threaded ranks: one endpoint each, on its own thread.
fn threaded(world: usize, tuning: RingTuning, c: Codec) -> Vec<Seen> {
    let handles: Vec<_> = (TpGroup::ring(world).into_iter().enumerate())
        .map(|(rank, mut g)| {
            std::thread::spawn(move || {
                g.tuning = tuning;
                let mut comps = [(); 2].map(|_| c.map(codec));
                let (timers, ws) = (&mut PhaseTimers::default(), &mut Workspace::new());
                let mut sums = Vec::new();
                for step in 0..STEPS {
                    let [fwd, bwd, _] = inputs(rank, step);
                    let [.., dy] = inputs(0, step);
                    let mut ring = Ring {
                        endpoints: std::slice::from_mut(&mut *g),
                        comps: std::slice::from_mut(&mut comps),
                        timers,
                    };
                    let y = ring.sum(SumPoint::Attention, vec![fwd], ws);
                    let d = ring.dense_sum(vec![bwd], ws);
                    let dx = ring.sum_backward(SumPoint::Attention, &dy);
                    sums.push([bits(&y), bits(&d), bits(&dx[0])]);
                }
                let mut grads = Vec::new();
                for comp in comps.iter_mut().flatten() {
                    g.sync_param_grads(comp.as_mut(), timers);
                    comp.visit_params(&mut |p| grads.push(bits(&p.grad)));
                }
                Seen {
                    sums,
                    bytes: g.bytes,
                    ring_bytes: g.ring_bytes,
                    grads,
                }
            })
        })
        .collect();
    (handles.into_iter())
        .map(|h| h.join().expect("rank thread"))
        .collect()
}

#[test]
fn the_serial_driver_matches_every_threaded_endpoint_bit_for_bit() {
    use CompressorSpec::*;
    let codecs: [Codec; 6] = [
        None,
        Some((A2, false)),
        Some((T2, false)),
        Some((R2, false)),
        Some((Q2, false)),
        Some((Q2, true)),
    ];
    for world in 1..=4 {
        for chunk_rows in [None, Some(1), Some(3)] {
            for pipeline_depth in [1, 4] {
                for c in codecs {
                    let tuning = RingTuning {
                        chunk_rows,
                        pipeline_depth,
                    };
                    let ctx = format!("world {world}, {tuning:?}, codec {c:?}");
                    let want = serial(world, tuning, c);
                    let got = threaded(world, tuning, c);
                    for (rank, (got, want)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(got, want, "{ctx}: rank {rank}");
                    }
                    if c.is_some_and(|(spec, _)| spec == A2) {
                        assert!(!want[0].grads.is_empty(), "{ctx}: the codec has parameters");
                    }
                }
            }
        }
    }
}
