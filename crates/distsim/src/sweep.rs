//! Parallel evaluation of sweep grids on the kernel pool.
//!
//! Every sweep in this workspace — the paper-table regenerators, the
//! transport cross-check, the planner searches — walks a grid of
//! independent `(tp, pp, spec, …)` points and calls
//! [`simulate_iteration`](crate::simulate_iteration) (or a wrapper) on
//! each. The points share no state, so they can be fanned out across
//! the same scoped-thread kernel pool the tensor crate uses for GEMM
//! row-tiles.
//!
//! [`par_map`] is deliberately order-preserving and deterministic: the
//! grid is split into contiguous chunks with
//! [`plan_unit_chunks`] and the
//! results land in pre-assigned slots, so the output is bit-identical
//! to a serial `items.iter().map(f)` regardless of the pool size or
//! scheduling order. The sweep tests assert exactly that.

use actcomp_tensor::pool::{configured_threads, plan_unit_chunks, run_on_chunks};

/// Maps `f` over `items` on the kernel pool, preserving input order.
///
/// Equivalent to `items.iter().map(f).collect()` but with grid points
/// evaluated concurrently on up to
/// [`configured_threads`]
/// scoped threads. `f` must be pure with respect to ordering for the
/// serial/parallel equivalence to hold; every sweep closure in this
/// workspace is (the simulator is a pure function of its `TrainSetup`).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let chunks = plan_unit_chunks(n, configured_threads(), 1);
    run_on_chunks(&mut out, &chunks, |start, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = Some(f(&items[start + i]));
        }
    });
    out.into_iter()
        .map(|r| r.expect("pool covered every grid point"))
        .collect()
}

/// Builds the cross product of two axes in row-major order and maps
/// `f` over it on the kernel pool.
///
/// Returns `(a, b, f(a, b))` triples in the same order a nested
/// `for a { for b { … } }` loop would visit them, so callers can swap
/// a serial double loop for this without reordering their output.
pub fn par_grid<A, B, R, F>(xs: &[A], ys: &[B], f: F) -> Vec<(A, B, R)>
where
    A: Copy + Sync + Send,
    B: Copy + Sync + Send,
    R: Send,
    F: Fn(A, B) -> R + Sync,
{
    let points: Vec<(A, B)> = xs
        .iter()
        .flat_map(|&a| ys.iter().map(move |&b| (a, b)))
        .collect();
    par_map(&points, |&(a, b)| f(a, b))
        .into_iter()
        .zip(points)
        .map(|(r, (a, b))| (a, b, r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_and_values() {
        let items: Vec<usize> = (0..37).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * x + 1).collect();
        assert_eq!(par_map(&items, |&x| x * x + 1), serial);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map::<usize, usize, _>(&[], |&x| x), Vec::<usize>::new());
        assert_eq!(par_map(&[7usize], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_grid_matches_nested_loop_order() {
        let xs = [1usize, 2, 3];
        let ys = [10usize, 20];
        let got = par_grid(&xs, &ys, |a, b| a * b);
        let mut want = Vec::new();
        for &a in &xs {
            for &b in &ys {
                want.push((a, b, a * b));
            }
        }
        assert_eq!(got, want);
    }
}
