//! The compressed all-reduce at the heart of the paper's §3.2, and the
//! one [`Reduce`] both executors sum a block's partials through.
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
//! Both paths run as ring collectives ([`crate::ring`]) with real
//! arithmetic, one compressor instance per worker, so accuracy
//! experiments measure exactly what the lossy reduce does to training.
//! [`Ring`] drives however many endpoints it holds: a runtime rank its
//! own, the serial executor ([`InProcess`]) every worker's in one
//! thread. Every other sum is dense, and its partial sums cross the wire
//! as bfloat16, the 16-bit baseline the paper measures against
//! ([`wire_sum`], the ring's dense fold written as one expression).

use crate::ring::{self, Endpoint, Link, Queue};
use crate::timers::{timed, PhaseTimers};
use crate::tp::{Reduce, Sent, SumPoint};
use actcomp_compress::Compressor;
use actcomp_nn::Parameter;
use actcomp_tensor::{Tensor, Workspace};

/// Sums one tensor per worker, left to right, in `f32`: the fold of
/// gathered, decoded messages, which never cross a wire as a partial
/// sum.
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
/// is *the* fold of every dense cross-worker sum, the one the ring's
/// chain reduce performs hop by hop, shipping each `sᵢ` in two bytes an
/// element; the tests hold the ring to it. A single part never crosses
/// a wire and is returned unrounded.
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

/// The one [`Reduce`]: a block's partials summed over ring endpoints —
/// a rank's own, or every worker's in the serial executor
/// ([`InProcess`]) — through the layer's compressors, with the block's
/// arithmetic charged to `timers.compute_s`.
pub struct Ring<'a, L> {
    /// The endpoints the block's shards sum over, one per shard.
    pub endpoints: &'a mut [Endpoint<L>],
    /// Per endpoint, its compressors at the attention and MLP sums;
    /// `None` where the sum is dense.
    pub comps: &'a mut [[Option<Box<dyn Compressor>>; 2]],
    /// Where the endpoints' time goes.
    pub timers: &'a mut PhaseTimers,
}

/// Every worker's compressor at the sum `at`.
fn codecs(
    comps: &mut [[Option<Box<dyn Compressor>>; 2]],
    at: SumPoint,
) -> Vec<&mut dyn Compressor> {
    (comps.iter_mut())
        .map(|c| -> &mut dyn Compressor {
            c[at as usize]
                .as_deref_mut()
                .expect("every worker holds the sum's codec")
        })
        .collect()
}

/// The one sum a block takes from its endpoints' equal results: the
/// first read one, any others recycled into `ws`.
fn first(outs: impl IntoIterator<Item = Option<Tensor>>, ws: &mut Workspace) -> Tensor {
    let mut outs = outs.into_iter().flatten();
    let sum = outs.next().expect("an endpoint reads the sum");
    outs.for_each(|t| ws.recycle_tensor(t));
    sum
}

impl<L: Link> Reduce for Ring<'_, L> {
    fn compute<T>(&mut self, f: impl FnOnce() -> T) -> T {
        timed(&mut self.timers.compute_s, f)
    }

    fn sum(
        &mut self,
        at: SumPoint,
        partials: &mut Vec<Tensor>,
        ws: &mut Workspace,
    ) -> (Tensor, Vec<Sent>) {
        assert_eq!(
            partials.len(),
            self.endpoints.len(),
            "one partial per endpoint"
        );
        if self.comps[0][at as usize].is_none() {
            // A dense forward sum is metered as the all-reduce it is.
            let (p, n) = (self.endpoints[0].world, partials[0].len() * 2);
            for ep in self.endpoints.iter_mut() {
                ep.bytes.add(CommBytes::all_reduce(p, n, n));
            }
            return (self.dense_sum_of(partials, ws), Vec::new());
        }
        let comps = codecs(self.comps, at);
        let outs = ring::compressed_all_reduce(self.endpoints, comps, partials, self.timers, ws);
        let (sums, codes): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
        (first(sums, ws), partials.drain(..).zip(codes).collect())
    }

    fn sum_backward(&mut self, at: SumPoint, dy: &Tensor, sent: &[Sent]) -> Vec<Tensor> {
        let (timers, mut sent) = (&mut *self.timers, sent.iter());
        (self.comps.iter_mut())
            .map(|c| match c[at as usize].as_deref_mut() {
                Some(comp) => {
                    let (x, msg) = sent.next().expect("one code per codec");
                    timed(&mut timers.encode_s, || comp.backward(dy, x, msg))
                }
                None => dy.clone(),
            })
            .collect()
    }

    fn dense_sum(&mut self, mut parts: Vec<Tensor>, ws: &mut Workspace) -> Tensor {
        self.dense_sum_of(&mut parts, ws)
    }
}

impl<L: Link> Ring<'_, L> {
    /// The dense sum of `parts`, drained.
    fn dense_sum_of(&mut self, parts: &mut Vec<Tensor>, ws: &mut Workspace) -> Tensor {
        assert_eq!(parts.len(), self.endpoints.len(), "one part per endpoint");
        if self.endpoints[0].world == 1 {
            // A lone worker's part is the sum: nothing crosses a wire.
            return parts.pop().expect("one part");
        }
        let outs = ring::dense_all_reduce(self.endpoints, parts, self.timers, ws);
        parts.drain(..).for_each(|t| ws.recycle_tensor(t));
        first(outs, ws)
    }
}

/// The serial executor's sums for one layer: every worker's ring
/// endpoint and compressors, driven in one thread through the one
/// [`Ring`] a rank drives its own endpoint through.
pub struct InProcess {
    endpoints: Vec<Endpoint<Queue>>,
    comps: Vec<[Option<Box<dyn Compressor>>; 2]>,
    timers: PhaseTimers,
}

impl std::fmt::Debug for InProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "InProcess({} workers)", self.endpoints.len())
    }
}

impl InProcess {
    /// Sums through per-worker compressors: worker `r` compresses with
    /// `attn[r]` after the attention output and `mlp[r]` after the MLP.
    ///
    /// # Panics
    ///
    /// Panics unless both lists hold one compressor per worker.
    pub fn new(attn: Vec<Box<dyn Compressor>>, mlp: Vec<Box<dyn Compressor>>) -> Self {
        assert_eq!(
            attn.len(),
            mlp.len(),
            "one compressor per worker at each sum"
        );
        Self::with(
            attn.into_iter()
                .zip(mlp)
                .map(|(a, m)| [Some(a), Some(m)])
                .collect(),
        )
    }

    /// Sums `world` workers' partials densely at both forward sums, as
    /// in a layer the compression plan does not cover.
    pub fn dense(world: usize) -> Self {
        Self::with((0..world).map(|_| [None, None]).collect())
    }

    /// Sums through per-worker compressors at the two forward sums.
    ///
    /// # Panics
    ///
    /// Panics if `comps` is empty.
    pub(crate) fn with(comps: Vec<[Option<Box<dyn Compressor>>; 2]>) -> Self {
        assert!(!comps.is_empty(), "a ring needs at least one worker");
        let mut endpoints = Endpoint::serial_ring(comps.len());
        // A block takes endpoint 0's sum (`first`): the others only
        // forward.
        endpoints[1..].iter_mut().for_each(|ep| ep.output = false);
        InProcess {
            endpoints,
            comps,
            timers: PhaseTimers::default(),
        }
    }

    /// The [`Reduce`] a block over every shard sums through.
    pub fn ring(&mut self) -> Ring<'_, Queue> {
        Ring {
            endpoints: &mut self.endpoints,
            comps: &mut self.comps,
            timers: &mut self.timers,
        }
    }

    /// Bytes this layer's forward sums moved per worker (every worker
    /// meters the same).
    pub fn bytes(&self) -> CommBytes {
        self.endpoints[0].bytes
    }

    /// Sums compressor-parameter gradients across workers and installs
    /// the sum in every instance — the gradient all-reduce that keeps
    /// replicated auto-encoder parameters in sync.
    pub fn sync_param_grads(&mut self) {
        for at in SumPoint::ALL {
            if self.comps[0][at as usize].is_some() {
                let comps = codecs(&mut self.comps, at);
                ring::sync_param_grads(&mut self.endpoints, comps, &mut self.timers);
            }
        }
    }

    /// Visits every worker's compressor parameters, sum by sum (for the
    /// optimizer).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for at in SumPoint::ALL {
            for comp in self
                .comps
                .iter_mut()
                .filter_map(|c| c[at as usize].as_mut())
            {
                comp.visit_params(f);
            }
        }
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

    /// A serial ring with worker `r` compressing through `comps[r]` at
    /// the attention sum.
    fn ring_of(comps: Vec<Box<dyn Compressor>>) -> InProcess {
        InProcess::with(comps.into_iter().map(|c| [Some(c), None]).collect())
    }

    /// The attention sum of `ps`, the bytes the ring has moved and what
    /// the sum's backward needs.
    fn reduce(sums: &mut InProcess, ps: &[Tensor]) -> (Tensor, CommBytes, Vec<Sent>) {
        let (out, sent) =
            (sums.ring()).sum(SumPoint::Attention, &mut ps.to_vec(), &mut Workspace::new());
        (out, sums.bytes(), sent)
    }

    #[test]
    fn identity_reduce_is_exact_sum() {
        let ps = partials(0, 4, 3, 8);
        let mut sums = ring_of(
            (0..4)
                .map(|_| Box::new(Identity::new()) as Box<dyn Compressor>)
                .collect(),
        );
        let (out, bytes, _) = reduce(&mut sums, &ps);
        assert_eq!(out, rank_order_sum(ps.into_iter()));
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
        let (out, bytes, _) = reduce(&mut ring_of(vec![mk(7), mk(7)]), &ps);

        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut single = AutoEncoder::new(&mut rng, 16, 4);
        let direct = single.round_trip(&ps[0].add(&ps[1]));
        assert!(out.max_abs_diff(&direct) < 1e-4);
        assert!(bytes.wire < bytes.dense);
    }

    #[test]
    fn topk_reduce_sums_decoded_messages() {
        let ps = partials(2, 2, 2, 8);
        let mut sums = ring_of(vec![Box::new(TopK::new(4)), Box::new(TopK::new(4))]);
        let (out, bytes, _) = reduce(&mut sums, &ps);
        let mut t0 = TopK::new(4);
        let mut t1 = TopK::new(4);
        let expect = t0.round_trip(&ps[0]).add(&t1.round_trip(&ps[1]));
        assert_eq!(out, expect, "decoded messages summed in rank order");
        assert!(bytes.wire < bytes.dense);
    }

    #[test]
    fn backward_fans_out_per_worker() {
        let ps = partials(3, 2, 2, 8);
        let mut sums = ring_of(vec![Box::new(TopK::new(4)), Box::new(TopK::new(4))]);
        let (_, _, sent) = reduce(&mut sums, &ps);
        let dy = Tensor::ones([2, 8]);
        let dxs = sums.ring().sum_backward(SumPoint::Attention, &dy, &sent);
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
        let mut sums = ring_of(vec![w0, w1]);
        let (_, _, sent) = reduce(&mut sums, &ps);
        let _ = sums
            .ring()
            .sum_backward(SumPoint::Attention, &Tensor::ones([4, 16]), &sent);
        sums.sync_param_grads();
        // After sync, every worker's grads are identical.
        let mut all: Vec<Tensor> = Vec::new();
        sums.visit_params(&mut |p| all.push(p.grad.clone()));
        let half = all.len() / 2;
        assert!(half > 0, "the auto-encoder has parameters");
        for i in 0..half {
            assert_eq!(all[i], all[half + i]);
        }
    }
}
