//! Finite-difference gradient checking utilities.
//!
//! Used by this crate's own tests and by downstream crates (`actcomp-mp`)
//! to validate layers that embed compression operators.

use crate::Layer;
use actcomp_tensor::{init, Shape, Tensor, Workspace};
use rand::Rng;

/// Central finite-difference step. `f32` arithmetic limits how small this
/// can usefully be.
const FD_EPS: f32 = 1e-2;

/// Checks a layer's analytic gradients against central finite differences.
///
/// The scalar objective is `L = Σ (forward(x) ⊙ dy)` for a random cotangent
/// `dy`. Both the input gradient and every parameter gradient are checked
/// elementwise with mixed absolute/relative tolerance `tol`.
///
/// Only valid for deterministic layers (disable dropout first).
///
/// # Panics
///
/// Panics (test failure) when any gradient entry deviates by more than
/// `tol` in mixed absolute/relative terms.
pub fn grad_check_layer<L: Layer>(
    mut layer: L,
    input_shape: impl Into<Shape>,
    tol: f32,
    rng: &mut impl Rng,
) {
    let shape = input_shape.into();
    let x = init::randn(rng, shape, 1.0);
    let ws = &mut Workspace::new();
    let probe = layer.forward(&x, ws);
    let dy = init::randn(rng, probe.shape().clone(), 1.0);

    // Analytic gradients.
    layer.zero_grad();
    let _ = layer.forward(&x, ws);
    let dx = layer.backward(&dy, ws);

    // Input gradient check.
    for j in 0..x.len() {
        let fd = {
            let mut xp = x.clone();
            xp[j] += FD_EPS;
            let mut xm = x.clone();
            xm[j] -= FD_EPS;
            let lp = layer.forward(&xp, ws).mul(&dy).sum();
            // Discard the cached state from the probe forward.
            let _ = layer.backward(&Tensor::zeros_like(&dy), ws);
            let lm = layer.forward(&xm, ws).mul(&dy).sum();
            let _ = layer.backward(&Tensor::zeros_like(&dy), ws);
            (lp - lm) / (2.0 * FD_EPS)
        };
        assert_close(dx[j], fd, tol, &format!("input grad [{j}]"));
    }

    // Parameter gradient check. Re-run the analytic pass so accumulated
    // grads reflect exactly one backward.
    layer.zero_grad();
    let _ = layer.forward(&x, ws);
    let _ = layer.backward(&dy, ws);
    let mut analytic: Vec<Tensor> = Vec::new();
    layer.visit_params(&mut |p| analytic.push(p.grad.clone()));

    for (t, grads) in analytic.iter().enumerate() {
        for (j, &g) in grads.as_slice().iter().enumerate() {
            let fd = {
                perturb(&mut layer, t, j, FD_EPS);
                let lp = layer.forward(&x, ws).mul(&dy).sum();
                let _ = layer.backward(&Tensor::zeros_like(&dy), ws);
                perturb(&mut layer, t, j, -2.0 * FD_EPS);
                let lm = layer.forward(&x, ws).mul(&dy).sum();
                let _ = layer.backward(&Tensor::zeros_like(&dy), ws);
                perturb(&mut layer, t, j, FD_EPS);
                (lp - lm) / (2.0 * FD_EPS)
            };
            assert_close(g, fd, tol, &format!("param {t} grad [{j}]"));
        }
    }
}

/// Adds `delta` to element `j` of the `t`-th parameter tensor.
fn perturb<L: Layer>(layer: &mut L, t: usize, j: usize, delta: f32) {
    let mut idx = 0;
    layer.visit_params(&mut |p| {
        if idx == t {
            p.value[j] += delta;
        }
        idx += 1;
    });
}

/// Asserts `a ≈ b` under a mixed absolute/relative tolerance.
pub fn assert_close(a: f32, b: f32, tol: f32, what: &str) {
    let denom = 1.0f32.max(a.abs()).max(b.abs());
    assert!(
        (a - b).abs() / denom <= tol,
        "{what}: analytic {a} vs finite-difference {b} (tol {tol})"
    );
}
