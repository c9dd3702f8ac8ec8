//! Conformance of the live engine against the static comm-protocol
//! graph (`actcomp-check`'s AC06xx pass):
//!
//! 1. Every tp × pp × chunk × depth × spec × m grid point the
//!    determinism suite exercises gets a clean static proof (matching,
//!    byte accounting, deadlock freedom), and a recorded trace from a
//!    real engine step replays the graph exactly, rank by rank.
//! 2. The engine's per-rank byte counters equal the graph's closed-form
//!    expectations.
//! 3. Property: any flag combination the static checker accepts runs a
//!    full step to completion (no deadlock, no panic) with a finite
//!    output — the deadlock-freedom proof is load-bearing, not
//!    decorative.
//!
//! The ring collectives themselves need no pin between the two crates:
//! the engine interprets the step lists and chunk plans that
//! `actcomp_check::collectives` defines.

use actcomp_check::{analyze, audit_trace, build_comm_graph, ExperimentConfig, Phase, RunSpec};
use actcomp_runtime::{RuntimeConfig, ThreadedRuntime};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const IDS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// The determinism suite's tiny geometry as a checkable experiment
/// config: 4 layers, hidden 16, batch 2 × seq 4, threads backend.
fn experiment(
    tp: usize,
    pp: usize,
    spec: &str,
    m: usize,
    chunk_rows: Option<usize>,
    depth: usize,
) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default();
    cfg.model.layers = 4;
    cfg.model.hidden = 16;
    cfg.model.heads = 4;
    cfg.model.ff_hidden = 32;
    cfg.model.vocab = 32;
    cfg.model.max_seq = 8;
    cfg.parallelism.tp = tp;
    cfg.parallelism.pp = pp;
    let world = tp * pp;
    if world > 4 {
        cfg.cluster.preset = "p3_cluster".to_string();
        cfg.cluster.nodes = world.div_ceil(4);
    }
    cfg.batch.micro_batch = 2;
    cfg.batch.seq = 4;
    cfg.batch.num_micro_batches = 1;
    cfg.plan.spec = spec.to_string();
    cfg.runtime = Some(RunSpec {
        micro_batches: Some(m),
        chunk_rows,
        pipeline_depth: Some(depth),
        ..RunSpec::default()
    });
    cfg
}

/// The engine configuration `experiment(..)` describes — derived by the
/// function the CLI and every procs worker derive it with, the ring
/// tuning resolved as the static graph resolves it.
fn engine_cfg(cfg: &ExperimentConfig, trace: bool) -> RuntimeConfig {
    RuntimeConfig {
        trace,
        ..RuntimeConfig::of(cfg).expect("validated spec resolves")
    }
}

/// One grid point: static proof, one real traced step, exact replay,
/// and counter equality.
fn assert_conformant(
    tp: usize,
    pp: usize,
    spec: &str,
    m: usize,
    chunk: Option<usize>,
    depth: usize,
) {
    let ctx = format!("tp={tp} pp={pp} spec={spec} m={m} chunk={chunk:?} depth={depth}");
    let cfg = experiment(tp, pp, spec, m, chunk, depth);
    let graph = build_comm_graph(&cfg).expect("threads config builds a graph");
    let diags = analyze(&graph);
    assert!(diags.is_empty(), "{ctx}: static proof failed: {diags:#?}");

    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let mut rt = ThreadedRuntime::new(&mut rng, engine_cfg(&cfg, true)).expect("valid config");
    let y = rt.forward(&IDS, 2, 4).expect("valid step");
    rt.zero_grad();
    rt.backward(&y).expect("valid grad");

    let trace = rt.take_trace().expect("trace mode is on");
    let audit = audit_trace(&graph, &trace);
    assert!(audit.is_empty(), "{ctx}: trace nonconformant: {audit:#?}");

    // One step ran, so the per-rank counters must equal the graph's
    // closed-form per-step expectations exactly.
    let report = rt.report();
    for r in &report.ranks {
        let exp = &graph.expected[r.rank];
        assert_eq!(
            r.reduce_bytes.wire, exp.reduce_wire,
            "{ctx}: rank {} reduce wire",
            r.rank
        );
        assert_eq!(
            r.reduce_bytes.dense, exp.reduce_dense,
            "{ctx}: rank {} reduce dense",
            r.rank
        );
        assert_eq!(
            r.ring_bytes.wire, exp.ring_wire,
            "{ctx}: rank {} ring wire",
            r.rank
        );
        assert_eq!(
            r.ring_bytes.dense, exp.ring_dense,
            "{ctx}: rank {} ring dense",
            r.rank
        );
        assert_eq!(
            r.boundary_bytes.wire, exp.boundary_wire,
            "{ctx}: rank {} boundary wire",
            r.rank
        );
        assert_eq!(
            r.boundary_bytes.dense, exp.boundary_dense,
            "{ctx}: rank {} boundary dense",
            r.rank
        );
    }
}

#[test]
fn determinism_grid_traces_conform_to_the_static_graph() {
    for tp in [1usize, 2, 4] {
        for pp in [1usize, 2] {
            for chunk in [None, Some(1), Some(3)] {
                for depth in [1usize, 2, 4] {
                    for spec in ["w/o", "T2", "A2"] {
                        for m in [1usize, 2] {
                            assert_conformant(tp, pp, spec, m, chunk, depth);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn consecutive_steps_each_conform() {
    // The per-step ordinal reset: step 2's trace must replay the same
    // per-step graph as step 1, including the SGD update in between.
    let cfg = experiment(2, 2, "T2", 2, Some(1), 2);
    let graph = build_comm_graph(&cfg).expect("graph");
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut rt = ThreadedRuntime::new(&mut rng, engine_cfg(&cfg, true)).expect("valid config");
    for step in 0..3 {
        let y = rt.forward(&IDS, 2, 4).expect("valid step");
        rt.zero_grad();
        rt.backward(&y).expect("valid grad");
        rt.sgd_step(1e-2);
        let trace = rt.take_trace().expect("trace mode is on");
        let audit = audit_trace(&graph, &trace);
        assert!(audit.is_empty(), "step {step}: {audit:#?}");
    }
}

#[test]
fn untraced_runs_return_no_trace() {
    let cfg = experiment(2, 1, "w/o", 1, None, 4);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut rt = ThreadedRuntime::new(&mut rng, engine_cfg(&cfg, false)).expect("valid config");
    let y = rt.forward(&IDS, 2, 4).expect("valid step");
    rt.zero_grad();
    rt.backward(&y).expect("valid grad");
    assert!(rt.take_trace().is_none());
}

#[test]
fn inference_traces_conform_to_the_forward_half_of_the_static_graph() {
    // The serve path: an inference of `k` requests runs the forward half
    // of the step lists with one micro-batch a request, so its trace is
    // the graph's forward events at `micro_batches = k`.
    for tp in [1usize, 2, 4] {
        for pp in [1usize, 2] {
            for spec in ["w/o", "T2"] {
                let cfg = experiment(tp, pp, spec, 2, None, 4);
                let mut rng = ChaCha8Rng::seed_from_u64(21);
                let mut rt = ThreadedRuntime::new(&mut rng, engine_cfg(&cfg, true)).expect("valid");
                for k in [1usize, 2] {
                    let mut served = experiment(tp, pp, spec, k, None, 4);
                    served.batch.micro_batch = k;
                    let mut graph = build_comm_graph(&served).expect("graph");
                    for events in &mut graph.events {
                        events.retain(|e| matches!(e.phase, Phase::Forward { .. }));
                    }
                    rt.infer(&IDS[..4 * k], k, 4).expect("valid inference");
                    let trace = rt.take_trace().expect("trace mode is on");
                    let audit = audit_trace(&graph, &trace);
                    assert!(audit.is_empty(), "tp={tp} pp={pp} {spec} k={k}: {audit:#?}");
                }
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

    /// Deadlock-freedom is a *run* property: any grid point the static
    /// checker accepts must execute a full traced step to completion
    /// with a finite output and a conforming trace.
    #[test]
    fn accepted_plans_run_to_completion(
        tp_i in 0usize..3,
        pp in 1usize..3,
        chunk_i in 0usize..4,
        depth in 1usize..5,
        spec_i in 0usize..4,
        m in 1usize..3,
        seed in 0u64..1000,
    ) {
        let tp = [1usize, 2, 4][tp_i];
        let chunk = [None, Some(1), Some(2), Some(5)][chunk_i];
        let spec = ["w/o", "T2", "A2", "Q1"][spec_i];
        let cfg = experiment(tp, pp, spec, m, chunk, depth);
        // Only statically accepted plans carry the guarantee.
        proptest::prop_assume!(actcomp_check::validate(&cfg).is_ok());
        let graph = build_comm_graph(&cfg).expect("threads config builds a graph");
        proptest::prop_assert!(analyze(&graph).is_empty());

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rt = ThreadedRuntime::new(&mut rng, engine_cfg(&cfg, true)).expect("valid config");
        let y = rt.forward(&IDS, 2, 4).expect("valid step");
        proptest::prop_assert!(y.as_slice().iter().all(|v| v.is_finite()));
        rt.zero_grad();
        rt.backward(&y).expect("valid grad");
        let trace = rt.take_trace().expect("trace mode is on");
        proptest::prop_assert!(audit_trace(&graph, &trace).is_empty());
    }
}
