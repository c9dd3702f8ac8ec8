//! One worker's shard of a tensor-parallel linear, and the fused plans
//! it runs.
//!
//! [`crate::tp::Block`] holds a contiguous range of these — every shard
//! in the serial executor, one per rank in the threaded runtime — so the
//! per-shard arithmetic, and therefore the floating-point result, exists
//! once. Every op takes the caller's [`Workspace`]: there is one entry
//! point per op. A worker's attention over its local heads is no shard
//! function: it is [`graphs::attention_forward`] /
//! [`graphs::attention_backward`], the serial layer's own, with the local
//! head count.

use actcomp_nn::{graphs, Linear, Parameter};
use actcomp_tensor::plan::OutBind;
use actcomp_tensor::{Tensor, Workspace};

/// Columns `i·w..(i+1)·w` of a `[rows, world·w]` matrix.
fn column_block(t: &Tensor, world: usize, i: usize) -> Tensor {
    let (rows, cols) = (t.dims()[0], t.dims()[1]);
    assert!(
        cols.is_multiple_of(world),
        "{cols} columns not divisible into {world} blocks"
    );
    let w = cols / world;
    let data = t
        .as_slice()
        .chunks(cols)
        .flat_map(|row| &row[i * w..(i + 1) * w])
        .copied()
        .collect();
    Tensor::from_vec(data, [rows, w])
}

/// One worker's shard of a column-parallel linear: full input, a
/// `[in, out/world]` weight slice and its `[out/world]` bias slice.
#[derive(Debug, Clone)]
pub struct ColumnShard {
    /// This worker's `[in, out/world]` weight columns.
    pub weight: Parameter,
    /// This worker's `[out/world]` bias slice.
    pub bias: Parameter,
}

impl ColumnShard {
    /// Worker `i`'s shard of `linear` split across `world` workers.
    ///
    /// # Panics
    ///
    /// Panics unless `world` divides the output width.
    pub fn of(linear: &Linear, world: usize, i: usize) -> ColumnShard {
        let bias = column_block(&linear.bias.value.reshaped([1, linear.fan_out()]), world, i);
        let width = bias.len();
        ColumnShard {
            weight: Parameter::new(column_block(&linear.weight.value, world, i)),
            bias: Parameter::new(bias.reshape([width])),
        }
    }

    /// Accumulates weight/bias gradients from `dout` against the forward
    /// input `x`, returning this worker's *partial* input gradient (the
    /// caller sums partials across workers). One plan
    /// ([`graphs::linear_backward`]) whose weight/bias gradient outputs
    /// accumulate in place (`grad += xᵀ dout`, no temporary).
    pub fn backward(&mut self, x: &Tensor, dout: &Tensor, ws: &mut Workspace) -> Tensor {
        let (m, kin) = (x.dims()[0], x.dims()[1]);
        let n = dout.dims()[1];
        let plan = graphs::linear_backward(ws, m, kin, n);
        let mut res = [
            OutBind::Acc(self.weight.grad.as_mut_slice()),
            OutBind::Acc(self.bias.grad.as_mut_slice()),
            OutBind::Lease,
        ];
        let inputs = [x.as_slice(), dout.as_slice(), self.weight.value.as_slice()];
        plan.run(&inputs, &mut res, ws);
        let [_, _, dx] = res;
        Tensor::from_vec(dx.leased(), [m, kin])
    }

    /// The MLP expansion with the activation fused into the GEMM
    /// epilogue: returns `(gelu(x·W + b), x·W + b)` from one plan
    /// ([`graphs::mlp_up`]), the pre-activation stashed out of the
    /// register tile for backward.
    pub fn mlp_up(&self, x: &Tensor, ws: &mut Workspace) -> (Tensor, Tensor) {
        let (m, kin) = (x.dims()[0], x.dims()[1]);
        let n = self.bias.value.len();
        let plan = graphs::mlp_up(ws, m, kin, n);
        let mut res = [OutBind::Lease, OutBind::Lease];
        let (w, b) = (&self.weight.value, &self.bias.value);
        plan.run(&[x.as_slice(), w.as_slice(), b.as_slice()], &mut res, ws);
        let [act, h] = res.map(|o| Tensor::from_vec(o.leased(), [m, n]));
        (act, h)
    }

    /// Visits the weight then the bias.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

/// One worker's column-parallel Q/K/V projections of the shared input
/// `x`, as the one [`graphs::qkv_forward`] plan the serial
/// `MultiHeadAttention` runs (each bias add in its GEMM's epilogue), so
/// at `world = 1` the result is the serial layer's.
pub fn qkv_forward(shards: [&ColumnShard; 3], x: &Tensor, ws: &mut Workspace) -> [Tensor; 3] {
    let (m, kin) = (x.dims()[0], x.dims()[1]);
    let n = shards[0].bias.value.len();
    let plan = graphs::qkv_forward(ws, m, kin, n);
    let [q, k, v] = shards.map(|s| [s.weight.value.as_slice(), s.bias.value.as_slice()]);
    let inputs = [x.as_slice(), q[0], q[1], k[0], k[1], v[0], v[1]];
    let mut res = [OutBind::Lease, OutBind::Lease, OutBind::Lease];
    plan.run(&inputs, &mut res, ws);
    res.map(|o| Tensor::from_vec(o.leased(), [m, n]))
}

/// Backward of one worker's column-parallel Q/K/V projections —
/// Megatron's `f` operator: accumulates the three shards' weight and
/// bias gradients against the shared input `x` and returns the worker's
/// whole local input gradient `(dq·Wqᵀ + dk·Wkᵀ) + dv·Wvᵀ`, folded inside
/// the last GEMM's epilogue. The caller sums that one tensor across
/// workers in rank order, so a layer reduces `n` here rather than `3n`.
/// The plan is [`graphs::qkv_backward`], the serial `MultiHeadAttention`'s
/// own, so at `world = 1` the result is the serial layer's.
pub fn qkv_backward(
    shards: [&mut ColumnShard; 3],
    x: &Tensor,
    douts: [&Tensor; 3],
    ws: &mut Workspace,
) -> Tensor {
    let (m, kin) = (x.dims()[0], x.dims()[1]);
    let n = douts[0].dims()[1];
    let plan = graphs::qkv_backward(ws, m, kin, n);
    let [dq, dk, dv] = douts.map(Tensor::as_slice);
    let [sq, sk, sv] = shards.map(|s| {
        (
            s.weight.value.as_slice(),
            &mut s.weight.grad,
            &mut s.bias.grad,
        )
    });
    let inputs = [x.as_slice(), dq, dk, dv, sq.0, sk.0, sv.0];
    let mut res = [
        OutBind::Acc(sq.1.as_mut_slice()),
        OutBind::Acc(sq.2.as_mut_slice()),
        OutBind::Acc(sk.1.as_mut_slice()),
        OutBind::Acc(sk.2.as_mut_slice()),
        OutBind::Acc(sv.1.as_mut_slice()),
        OutBind::Acc(sv.2.as_mut_slice()),
        OutBind::Lease,
    ];
    plan.run(&inputs, &mut res, ws);
    let [.., dx] = res;
    Tensor::from_vec(dx.leased(), [m, kin])
}

/// One worker's shard of a row-parallel linear: a `[in/world, out]`
/// weight slice producing a *partial* output that must be all-reduced.
///
/// The shared output bias is owned by the caller (it is added once,
/// after the reduce), so this type holds only the weight.
#[derive(Debug, Clone)]
pub struct RowShard {
    /// This worker's `[in/world, out]` weight rows.
    pub weight: Parameter,
}

impl RowShard {
    /// Worker `i`'s rows of a full `[in, out]` weight split across
    /// `world` workers.
    ///
    /// # Panics
    ///
    /// Panics unless `world` divides the input width.
    pub fn of(weight: &Tensor, world: usize, i: usize) -> RowShard {
        let rows = weight.dims()[0];
        assert!(
            rows.is_multiple_of(world),
            "{rows} rows not divisible into {world} blocks"
        );
        let h = rows / world;
        RowShard {
            weight: Parameter::new(weight.slice_rows(i * h, (i + 1) * h)),
        }
    }

    /// This worker's partial output `x · W` (pre-reduce, no bias).
    pub fn partial(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let (m, kin) = (x.dims()[0], x.dims()[1]);
        let n = self.weight.value.dims()[1];
        let plan = graphs::matmul(ws, m, kin, n);
        let mut res = [OutBind::Lease];
        plan.run(&[x.as_slice(), self.weight.value.as_slice()], &mut res, ws);
        let [y] = res.map(OutBind::leased);
        Tensor::from_vec(y, [m, n])
    }

    /// Accumulates the weight gradient from the (post-reduce) partial
    /// gradient `dpartial` against the forward input shard `x`, returning
    /// the input-shard gradient; one plan, weight gradient accumulating
    /// in place.
    pub fn backward(&mut self, x: &Tensor, dpartial: &Tensor, ws: &mut Workspace) -> Tensor {
        let (m, kin) = (x.dims()[0], x.dims()[1]);
        let n = dpartial.dims()[1];
        let plan = graphs::matmul_backward(ws, m, kin, n);
        let mut res = [
            OutBind::Acc(self.weight.grad.as_mut_slice()),
            OutBind::Lease,
        ];
        let inputs = [
            x.as_slice(),
            dpartial.as_slice(),
            self.weight.value.as_slice(),
        ];
        plan.run(&inputs, &mut res, ws);
        let [_, dx] = res;
        Tensor::from_vec(dx.leased(), [m, kin])
    }

    /// The MLP contraction's backward with the GELU derivative fused
    /// into the data-gradient GEMM's epilogue ([`graphs::mlp_down_backward`]):
    /// accumulates `dW += actᵀ·dp` straight into the shard's grad and
    /// returns `dh = (dp·Wᵀ) ⊙ gelu'(h)` without materializing `dp·Wᵀ`.
    pub fn backward_gelu(
        &mut self,
        act: &Tensor,
        dp: &Tensor,
        h: &Tensor,
        ws: &mut Workspace,
    ) -> Tensor {
        let (m, kin) = (act.dims()[0], act.dims()[1]);
        let n = dp.dims()[1];
        let plan = graphs::mlp_down_backward(ws, m, kin, n);
        let mut res = [
            OutBind::Acc(self.weight.grad.as_mut_slice()),
            OutBind::Lease,
        ];
        let w = self.weight.value.as_slice();
        plan.run(
            &[act.as_slice(), dp.as_slice(), w, h.as_slice()],
            &mut res,
            ws,
        );
        let [_, dh] = res;
        Tensor::from_vec(dh.leased(), [m, kin])
    }

    /// Visits the weight.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn column_shards_concat_to_full_output() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let linear = Linear::from_parts(
            init::randn(&mut rng, [4, 6], 1.0),
            init::randn(&mut rng, [6], 1.0),
        );
        let x = init::randn(&mut rng, [3, 4], 1.0);
        let ws = &mut Workspace::new();
        let full = linear.apply(&x, ws);
        // `mlp_up`'s second output is the pre-activation `x·W + b`.
        let outs: Vec<Tensor> = (0..3)
            .map(|i| ColumnShard::of(&linear, 3, i).mlp_up(&x, ws).1)
            .collect();
        let refs: Vec<&Tensor> = outs.iter().collect();
        assert!(Tensor::concat_cols(&refs).max_abs_diff(&full) < 1e-6);
    }

    #[test]
    fn row_shard_partials_sum_to_full_product() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let w = init::randn(&mut rng, [6, 4], 1.0);
        let x = init::randn(&mut rng, [3, 6], 1.0);
        let full = x.matmul(&w);
        let xs = x.split_cols(2);
        let ws = &mut Workspace::new();
        let mut sum = RowShard::of(&w, 2, 0).partial(&xs[0], ws);
        sum.add_assign(&RowShard::of(&w, 2, 1).partial(&xs[1], ws));
        assert!(sum.max_abs_diff(&full) < 1e-5);
    }
}
