//! The compressed all-reduce at the heart of the paper's §3.2.
//!
//! In Megatron tensor parallelism, each worker holds a *partial* activation
//! (its shard's contribution) and the workers sum them with an all-reduce.
//! The paper compresses each partial before the reduce:
//!
//! - the auto-encoder's codes are linear in the input, so codes can be
//!   summed on the wire and the result decoded once (true all-reduce);
//! - sparse/quantized messages cannot be summed, so they travel by
//!   all-gather and every worker decodes and sums the gathered messages.
//!
//! Both paths are executed here with real arithmetic, one compressor
//! instance per simulated worker, so accuracy experiments measure exactly
//! what the lossy reduce does to training. Every other sum is dense, and
//! its partial sums cross the wire as bfloat16, the 16-bit baseline the
//! paper measures against ([`wire_sum`]).

use crate::tp::{Reduce, SumPoint};
use actcomp_compress::Compressor;
use actcomp_nn::Parameter;
use actcomp_tensor::{Tensor, Workspace};

/// Sums one tensor per worker, left to right, in `f32`: the fold of
/// decoded messages, which never cross a wire as a partial sum.
///
/// # Panics
///
/// Panics if `parts` is empty or shapes disagree.
pub fn rank_order_sum(mut parts: impl Iterator<Item = Tensor>) -> Tensor {
    let mut acc = parts.next().expect("at least one worker");
    for part in parts {
        acc.add_assign(&part);
    }
    acc
}

/// Rounds every element to bfloat16 in place — the top 16 bits of the
/// `f32`, round to nearest, ties to even — the format a dense partial
/// sum crosses a wire in. A NaN stays a quiet NaN; overflow goes to
/// infinity. Branch-free, so the loop vectorises.
pub fn wire_round(xs: &mut [f32]) {
    for x in xs {
        let b = x.to_bits();
        // A NaN's payload may lie wholly in the dropped half: set the
        // quiet bit instead of rounding it into an infinity.
        let nan = (b & 0x7fff_ffff) > 0x7f80_0000;
        let rounded = b.wrapping_add(0x7fff + ((b >> 16) & 1));
        let kept = if nan { b | 0x0040_0000 } else { rounded };
        *x = f32::from_bits(kept & 0xffff_0000);
    }
}

/// Sums one tensor per worker in rank order, rounding each partial sum
/// as it leaves a worker: `s₀ = bf16(x₀)`, `sᵢ = bf16(sᵢ₋₁ + xᵢ)`. This
/// is *the* fold of every dense cross-worker sum — the serial executor
/// calls it directly and the runtime's chain reduce performs it hop by
/// hop, shipping each `sᵢ` in two bytes an element — which is what keeps
/// the executors, and every rank's copy of the total, bit-identical. A
/// single part never crosses a wire and is returned unrounded.
///
/// bfloat16 rather than binary16: the backward partials here fall below
/// binary16's smallest normal, and bfloat16 keeps 8 significant bits at
/// any `f32` magnitude without loss scaling.
///
/// # Panics
///
/// Panics if `parts` is empty or shapes disagree.
pub fn wire_sum(parts: impl Iterator<Item = Tensor>) -> Tensor {
    let mut parts = parts.peekable();
    let mut acc = parts.next().expect("at least one worker");
    if parts.peek().is_some() {
        wire_round(acc.as_mut_slice());
    }
    for part in parts {
        acc.add_assign(&part);
        wire_round(acc.as_mut_slice());
    }
    acc
}

/// Byte counters for the traffic a compressed reduce generates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CommBytes {
    /// Bytes this operation put on the wire.
    pub wire: usize,
    /// Bytes the equivalent uncompressed operation would have moved.
    pub dense: usize,
}

impl CommBytes {
    /// One worker's share of an all-reduce over `p ≥ 1` workers of a
    /// `wire`-byte message standing in for `dense` bytes: a ring moves
    /// `2(p−1)/p` of each per worker.
    pub fn all_reduce(p: usize, wire: usize, dense: usize) -> CommBytes {
        let per_rank = |bytes: usize| 2 * (p - 1) * bytes / p;
        CommBytes {
            wire: per_rank(wire),
            dense: per_rank(dense),
        }
    }

    /// Accumulates another operation's bytes.
    pub fn add(&mut self, other: CommBytes) {
        self.wire += other.wire;
        self.dense += other.dense;
    }

    /// Wire-level compression ratio achieved so far.
    pub fn ratio(&self) -> f64 {
        self.dense as f64 / self.wire.max(1) as f64
    }
}

/// A compressed sum-reduction across `world` simulated tensor-parallel
/// workers.
///
/// Holds one [`Compressor`] per worker (auto-encoder instances are
/// initialized identically and kept in sync by [`CompressedAllReduce::sync_param_grads`]).
pub struct CompressedAllReduce {
    workers: Vec<Box<dyn Compressor>>,
}

impl std::fmt::Debug for CompressedAllReduce {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompressedAllReduce({} x {})",
            self.workers.len(),
            self.workers.first().map(|w| w.name()).unwrap_or("?")
        )
    }
}

impl CompressedAllReduce {
    /// Builds a reduce over per-worker compressors.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is empty.
    pub fn new(workers: Vec<Box<dyn Compressor>>) -> Self {
        assert!(!workers.is_empty(), "reduce needs at least one worker");
        CompressedAllReduce { workers }
    }

    /// Number of participating workers.
    pub fn world(&self) -> usize {
        self.workers.len()
    }

    /// Reduces the per-worker partials into their (lossy) sum, returning
    /// the reduced tensor and the bytes moved.
    ///
    /// # Panics
    ///
    /// Panics if `partials.len()` differs from the world size or shapes
    /// disagree.
    pub fn forward(&mut self, partials: &[Tensor]) -> (Tensor, CommBytes) {
        assert_eq!(
            partials.len(),
            self.world(),
            "{} partials for {} workers",
            partials.len(),
            self.world()
        );
        // Per-rank byte accounting: a ring all-reduce moves 2(p−1)/p · S
        // per rank; an all-gather delivers (p−1) peer messages per rank.
        let p_world = self.world();
        let dense_bytes = partials[0].len() * 2;
        let summable = self.workers[0].summable();
        if summable {
            // Compress per worker, sum codes on the wire, decode once.
            let msgs: Vec<_> = self
                .workers
                .iter_mut()
                .zip(partials)
                .map(|(w, p)| w.compress(p))
                .collect();
            let mut total = msgs[0].clone();
            for m in &msgs[1..] {
                total = total.sum(m);
            }
            let out = self.workers[0].decompress(&total);
            let bytes = CommBytes::all_reduce(p_world, msgs[0].wire_bytes(2), dense_bytes);
            (out, bytes)
        } else {
            // All-gather messages; every worker decodes and sums locally.
            // (Simulated once — all workers produce the same sum.)
            let mut gathered = 0;
            let out = rank_order_sum(self.workers.iter_mut().zip(partials).map(|(w, p)| {
                let msg = w.compress(p);
                gathered += msg.wire_bytes(2);
                w.decompress(&msg)
            }));
            // Each rank receives the other (p−1) ranks' messages.
            let mut bytes = CommBytes::all_reduce(p_world, 0, dense_bytes);
            bytes.wire = gathered * (p_world - 1) / p_world;
            (out, bytes)
        }
    }

    /// Routes the gradient of the reduced output back to each worker's
    /// partial, accumulating any compressor-parameter gradients.
    ///
    /// The sum node's gradient fans out identically; each worker's
    /// compressor then applies its own backward rule (AE matmuls, sparse
    /// mask, straight-through).
    pub fn backward(&mut self, dy: &Tensor) -> Vec<Tensor> {
        self.workers.iter_mut().map(|w| w.backward(dy)).collect()
    }

    /// Sums compressor-parameter gradients across workers and installs the
    /// sum in every instance — the gradient all-reduce that keeps
    /// replicated auto-encoder parameters in sync.
    pub fn sync_param_grads(&mut self) {
        let mut sums: Vec<Tensor> = Vec::new();
        for w in &mut self.workers {
            let mut i = 0;
            w.visit_params(&mut |p| {
                if i == sums.len() {
                    sums.push(p.grad.clone());
                } else {
                    sums[i].add_assign(&p.grad);
                }
                i += 1;
            });
        }
        for w in &mut self.workers {
            let mut i = 0;
            w.visit_params(&mut |p| {
                p.grad = sums[i].clone();
                i += 1;
            });
        }
    }

    /// Visits every worker's compressor parameters (for the optimizer).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for w in &mut self.workers {
            w.visit_params(f);
        }
    }
}

/// The serial executor's [`Reduce`]: a block holding every shard sums
/// them in process — a forward sum through its compressed reduce where
/// the layer has one, every other sum with [`wire_sum`].
#[derive(Debug)]
pub struct InProcess {
    world: usize,
    /// The compressed reduces at the attention and MLP sums; `None`
    /// where the sum is dense.
    pub(crate) reduces: [Option<CompressedAllReduce>; 2],
    /// Bytes both forward sums have moved.
    pub(crate) bytes: CommBytes,
}

impl InProcess {
    /// Sums through `attn` after the attention output and `mlp` after
    /// the MLP.
    pub fn new(attn: CompressedAllReduce, mlp: CompressedAllReduce) -> Self {
        Self::with(attn.world(), [Some(attn), Some(mlp)])
    }

    /// Sums `world` workers' partials densely at both forward sums, as
    /// in a layer the compression plan does not cover.
    pub fn dense(world: usize) -> Self {
        Self::with(world, [None, None])
    }

    pub(crate) fn with(world: usize, reduces: [Option<CompressedAllReduce>; 2]) -> Self {
        InProcess {
            world,
            reduces,
            bytes: CommBytes::default(),
        }
    }
}

impl Reduce for InProcess {
    fn compute<T>(&mut self, f: impl FnOnce() -> T) -> T {
        f()
    }

    fn sum(&mut self, at: SumPoint, partials: Vec<Tensor>, ws: &mut Workspace) -> Tensor {
        let Some(reduce) = &mut self.reduces[at as usize] else {
            let n = partials[0].len() * 2;
            self.bytes.add(CommBytes::all_reduce(self.world, n, n));
            return self.dense_sum(partials, ws);
        };
        let (sum, bytes) = reduce.forward(&partials);
        self.bytes.add(bytes);
        partials.into_iter().for_each(|p| ws.recycle_tensor(p));
        sum
    }

    fn sum_backward(&mut self, at: SumPoint, dy: &Tensor) -> Vec<Tensor> {
        match &mut self.reduces[at as usize] {
            Some(reduce) => reduce.backward(dy),
            None => vec![dy.clone(); self.world],
        }
    }

    fn dense_sum(&mut self, parts: Vec<Tensor>, _: &mut Workspace) -> Tensor {
        wire_sum(parts.into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_compress::spec::CompressorSpec;
    use actcomp_compress::{AutoEncoder, Identity, TopK};
    use actcomp_tensor::init;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn partials(seed: u64, world: usize, rows: usize, h: usize) -> Vec<Tensor> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..world)
            .map(|_| init::randn(&mut rng, [rows, h], 1.0))
            .collect()
    }

    fn round(x: f32) -> f32 {
        let mut v = [x];
        wire_round(&mut v);
        v[0]
    }

    #[test]
    fn wire_round_ties_to_even_both_ways() {
        // bfloat16's spacing at 1 is 2⁻⁷: 1 + 2⁻⁸ is halfway between 1
        // (even) and 1 + 2⁻⁷ (odd) and goes down; 1 + 3·2⁻⁸ is halfway
        // between 1 + 2⁻⁷ (odd) and 1 + 2⁻⁶ (even) and goes up.
        assert_eq!(round(1.0 + 2f32.powi(-8)), 1.0);
        assert_eq!(round(1.0 + 3.0 * 2f32.powi(-8)), 1.0 + 2f32.powi(-6));
        assert_eq!(round(-(1.0 + 2f32.powi(-8))), -1.0);
        // Past the tie, the nearer neighbour wins either way.
        assert_eq!(
            round(1.0 + 2f32.powi(-8) + 2f32.powi(-20)),
            1.0 + 2f32.powi(-7)
        );
        assert_eq!(round(1.0 + 2f32.powi(-8) - 2f32.powi(-20)), 1.0);
    }

    #[test]
    fn wire_round_keeps_nan_infinities_and_overflows_to_infinity() {
        // Payloads in the dropped half, or all of it, stay NaN.
        for bits in [0x7fc0_0000u32, 0x7f80_0001, 0xffff_ffff, 0x7f80_8000] {
            assert!(round(f32::from_bits(bits)).is_nan(), "{bits:#x}");
        }
        assert_eq!(round(f32::INFINITY), f32::INFINITY);
        assert_eq!(round(f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert_eq!(round(f32::MAX), f32::INFINITY);
        assert_eq!(round(-f32::MAX), f32::NEG_INFINITY);
    }

    #[test]
    fn wire_round_handles_f32_subnormals() {
        let sub = |bits: u32| f32::from_bits(bits);
        // The smallest subnormal is under half a bfloat16 step: signed zero.
        assert_eq!(round(sub(1)).to_bits(), 0);
        assert_eq!(round(-sub(1)).to_bits(), (-0.0f32).to_bits());
        // The largest rounds up into the smallest normal.
        assert_eq!(round(sub(0x007f_ffff)), f32::MIN_POSITIVE);
        // A subnormal bfloat16 holds is kept.
        assert_eq!(round(sub(0x0001_0000)).to_bits(), 0x0001_0000);
    }

    #[test]
    fn wire_round_keeps_bf16_values_and_is_idempotent() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for _ in 0..100_000 {
            let x = f32::from_bits(rng.gen());
            let r = round(x);
            assert_eq!(r.to_bits() & 0xffff, 0, "{x:e} keeps a low half");
            let rr = round(r);
            assert!(
                rr.to_bits() == r.to_bits() || (rr.is_nan() && r.is_nan()),
                "{x:e}"
            );
        }
    }

    #[test]
    fn wire_round_error_is_at_most_half_an_ulp() {
        // 8 significant bits: |bf16(x) − x| ≤ 2⁻⁸ |x| for every normal x.
        let mut rng = ChaCha8Rng::seed_from_u64(18);
        for _ in 0..100_000 {
            let x: f32 = rng.gen_range(-1e30..1e30);
            if x.is_normal() {
                let err = ((round(x) - x) / x).abs();
                assert!(err <= 2f32.powi(-8), "{x:e}: relative error {err:e}");
            }
        }
    }

    #[test]
    fn wire_sum_rounds_every_partial_sum_but_a_lone_part() {
        let ps = partials(5, 3, 2, 8);
        let got = wire_sum(ps.iter().cloned());
        let mut want = ps[0].map(round);
        for p in &ps[1..] {
            want = want.add(p).map(round);
        }
        assert_eq!(got, want);
        let lone = wire_sum(std::iter::once(ps[0].clone()));
        assert_eq!(lone, ps[0], "one worker sends nothing");
    }

    #[test]
    fn identity_reduce_is_exact_sum() {
        let ps = partials(0, 4, 3, 8);
        let mut reduce = CompressedAllReduce::new(
            (0..4)
                .map(|_| Box::new(Identity::new()) as Box<dyn Compressor>)
                .collect(),
        );
        let (out, bytes) = reduce.forward(&ps);
        let mut expect = ps[0].clone();
        for p in &ps[1..] {
            expect.add_assign(p);
        }
        assert!(out.max_abs_diff(&expect) < 1e-5);
        assert_eq!(bytes.wire, bytes.dense);
    }

    #[test]
    fn ae_reduce_equals_decode_of_summed_codes() {
        // With identical AE weights, reduce(x_i) == dec(Σ enc(x_i))
        // == dec(enc(Σ x_i)) by linearity.
        let ps = partials(1, 2, 4, 16);
        let mk = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            Box::new(AutoEncoder::new(&mut rng, 16, 4)) as Box<dyn Compressor>
        };
        let mut reduce = CompressedAllReduce::new(vec![mk(7), mk(7)]);
        let (out, bytes) = reduce.forward(&ps);

        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut single = AutoEncoder::new(&mut rng, 16, 4);
        let direct = single.round_trip(&ps[0].add(&ps[1]));
        assert!(out.max_abs_diff(&direct) < 1e-4);
        assert!(bytes.wire < bytes.dense);
    }

    #[test]
    fn topk_reduce_sums_decoded_messages() {
        let ps = partials(2, 2, 2, 8);
        let mut reduce = CompressedAllReduce::new(vec![
            Box::new(TopK::new(4)) as Box<dyn Compressor>,
            Box::new(TopK::new(4)),
        ]);
        let (out, bytes) = reduce.forward(&ps);
        let mut t0 = TopK::new(4);
        let mut t1 = TopK::new(4);
        let expect = t0.round_trip(&ps[0]).add(&t1.round_trip(&ps[1]));
        assert!(out.max_abs_diff(&expect) < 1e-6);
        assert!(bytes.wire < bytes.dense);
    }

    #[test]
    fn backward_fans_out_per_worker() {
        let ps = partials(3, 2, 2, 8);
        let mut reduce = CompressedAllReduce::new(vec![
            Box::new(TopK::new(4)) as Box<dyn Compressor>,
            Box::new(TopK::new(4)),
        ]);
        let _ = reduce.forward(&ps);
        let dy = Tensor::ones([2, 8]);
        let dxs = reduce.backward(&dy);
        assert_eq!(dxs.len(), 2);
        // Each worker's gradient is masked to its own kept support.
        for (dx, p) in dxs.iter().zip(&ps) {
            let mut t = TopK::new(4);
            let kept = t.round_trip(p);
            for j in 0..dx.len() {
                if kept[j] == 0.0 && p[j] != 0.0 {
                    assert_eq!(dx[j], 0.0);
                }
            }
        }
    }

    #[test]
    fn ae_grads_sync_across_workers() {
        let ps = partials(4, 2, 4, 16);
        let spec = CompressorSpec::A2;
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 4 * 16;
        let w0 = spec.build(&mut rng, n, 16);
        let mut rng2 = ChaCha8Rng::seed_from_u64(9);
        let w1 = spec.build(&mut rng2, n, 16);
        let mut reduce = CompressedAllReduce::new(vec![w0, w1]);
        let _ = reduce.forward(&ps);
        let _ = reduce.backward(&Tensor::ones([4, 16]));
        reduce.sync_param_grads();
        // After sync, every worker's grads are identical.
        let mut all: Vec<Tensor> = Vec::new();
        reduce.visit_params(&mut |p| all.push(p.grad.clone()));
        let half = all.len() / 2;
        for i in 0..half {
            assert!(all[i].max_abs_diff(&all[half + i]) < 1e-6);
        }
    }
}
