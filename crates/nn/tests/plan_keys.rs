//! Every layer-graph builder keys its plan by all of its arguments: a
//! change to any one of them yields a plan of a different graph (other
//! input or output shapes, or another constant), and equal arguments
//! return the very plan already cached, compiling nothing.

use actcomp_nn::graphs::{self, LnInput, Plan};
use actcomp_tensor::graph::{EwOp, NodeKind};
use actcomp_tensor::Workspace;
use std::sync::Arc;

/// A builder called with four argument words (unused ones ignored).
type Build = fn(&mut Workspace, [usize; 4]) -> Plan;

const INPUTS: [LnInput; 3] = [LnInput::Plain, LnInput::Residual, LnInput::BiasResidual];

fn eps(bits: usize) -> f32 {
    f32::from_bits(u32::try_from(bits).expect("an f32 bit pattern"))
}

/// What tells two compiled graphs apart from outside: the input and
/// output shapes in binding order, and every constant by bit pattern.
type Signature = (Vec<(usize, usize)>, Vec<(usize, usize)>, Vec<u32>);

fn signature(plan: &Plan) -> Signature {
    let g = plan.graph();
    let shapes = |ids: &[usize]| ids.iter().map(|&v| g.shape(v)).collect();
    let constants = (0..g.len())
        .filter_map(|v| match g.node_kind(v) {
            NodeKind::LnForward { eps, .. } => Some(eps.to_bits()),
            NodeKind::Ew {
                op: EwOp::Scale(s), ..
            } => Some(s.to_bits()),
            _ => None,
        })
        .collect();
    (shapes(g.input_ids()), shapes(g.output_ids()), constants)
}

/// A builder's name, the builder, its base arguments, and per argument
/// the other values it is tried with.
type Case = (&'static str, Build, [usize; 4], [Vec<usize>; 4]);

fn builders() -> Vec<Case> {
    let (m, k, n) = (8, 16, 24);
    let base = [m, k, n, 0];
    let dims = || [vec![m + 8], vec![k + 8], vec![n + 8], Vec::new()];
    let eps5 = 1e-5f32.to_bits() as usize;
    vec![
        (
            "linear_forward",
            |ws, a| graphs::linear_forward(ws, a[0], a[1], a[2]),
            base,
            dims(),
        ),
        (
            "linear_backward",
            |ws, a| graphs::linear_backward(ws, a[0], a[1], a[2]),
            base,
            dims(),
        ),
        (
            "matmul",
            |ws, a| graphs::matmul(ws, a[0], a[1], a[2]),
            base,
            dims(),
        ),
        (
            "matmul_backward",
            |ws, a| graphs::matmul_backward(ws, a[0], a[1], a[2]),
            base,
            dims(),
        ),
        (
            "qkv_forward",
            |ws, a| graphs::qkv_forward(ws, a[0], a[1], a[2]),
            base,
            dims(),
        ),
        (
            "qkv_backward",
            |ws, a| graphs::qkv_backward(ws, a[0], a[1], a[2]),
            base,
            dims(),
        ),
        (
            "mlp_up",
            |ws, a| graphs::mlp_up(ws, a[0], a[1], a[2]),
            base,
            dims(),
        ),
        (
            "mlp_down_backward",
            |ws, a| graphs::mlp_down_backward(ws, a[0], a[1], a[2]),
            base,
            dims(),
        ),
        (
            "ffn_forward",
            |ws, a| graphs::ffn_forward(ws, a[0], a[1], a[2]),
            base,
            dims(),
        ),
        (
            "ffn_backward",
            |ws, a| graphs::ffn_backward(ws, a[0], a[1], a[2]),
            base,
            dims(),
        ),
        (
            "layernorm",
            |ws, a| graphs::layernorm(ws, a[0], a[1], eps(a[2]), INPUTS[a[3]]),
            [m, n, eps5, 0],
            [
                vec![m + 8],
                vec![n + 8],
                vec![1e-6f32.to_bits() as usize, (-1e-5f32).to_bits() as usize],
                vec![1, 2],
            ],
        ),
        (
            "layernorm_backward",
            |ws, a| graphs::layernorm_backward(ws, a[0], a[1], a[2] == 1, a[3] == 1),
            [m, n, 0, 0],
            [vec![m + 8], vec![n + 8], vec![1], vec![1]],
        ),
    ]
}

#[test]
fn every_argument_of_every_builder_is_in_its_key() {
    let mut ws = Workspace::new();
    for (name, build, base, alternatives) in builders() {
        let plan = build(&mut ws, base);
        let want = signature(&plan);
        for (i, values) in alternatives.iter().enumerate() {
            for &v in values {
                let mut args = base;
                args[i] = v;
                let other = build(&mut ws, args);
                assert!(!Arc::ptr_eq(&plan, &other), "{name}: argument {i} = {v}");
                assert_ne!(signature(&other), want, "{name}: argument {i} = {v}");
            }
        }
    }
    // The LnInput variants differ from each other, not only from Plain.
    let [plain, residual, bias_residual] =
        INPUTS.map(|input| signature(&graphs::layernorm(&mut ws, 8, 16, 1e-5, input)));
    assert!(plain != residual && residual != bias_residual && plain != bias_residual);
}

#[test]
fn equal_arguments_return_the_cached_plan() {
    let mut ws = Workspace::new();
    let first: Vec<Plan> = (builders().into_iter())
        .map(|(_, build, base, _)| build(&mut ws, base))
        .collect();
    let compiles = ws.plan_compiles();
    assert_eq!(compiles, first.len() as u64, "one compile per builder");
    for ((name, build, base, _), plan) in builders().into_iter().zip(&first) {
        assert!(Arc::ptr_eq(plan, &build(&mut ws, base)), "{name}");
    }
    assert_eq!(ws.plan_compiles(), compiles, "a hit compiles nothing");
}
