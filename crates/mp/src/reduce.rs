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
//! what the lossy reduce does to training.

use crate::tp::{Reduce, SumPoint};
use actcomp_compress::Compressor;
use actcomp_nn::Parameter;
use actcomp_tensor::{Tensor, Workspace};

/// Sums one tensor per worker, left to right. Handed tensors in rank
/// order this is *the* fold of every cross-worker sum — the serial
/// executor calls it directly and the runtime's chain reduce performs it
/// hop by hop — which is what keeps the executors bit-identical.
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

/// Byte counters for the traffic a compressed reduce generates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CommBytes {
    /// Bytes this operation put on the wire.
    pub wire: usize,
    /// Bytes the equivalent uncompressed operation would have moved.
    pub dense: usize,
}

impl CommBytes {
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
        let per_rank_ar = |bytes: usize| 2 * (p_world - 1) * bytes / p_world.max(1);
        let dense = per_rank_ar(partials[0].len() * 2);
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
            let wire = per_rank_ar(msgs[0].wire_bytes(2));
            let out = self.workers[0].decompress(&total);
            (out, CommBytes { wire, dense })
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
            let wire = gathered * (p_world - 1) / p_world.max(1);
            (out, CommBytes { wire, dense })
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
/// them in process, the forward sums through their compressed reduces
/// and the backward ones with [`rank_order_sum`].
#[derive(Debug)]
pub struct InProcess {
    /// The compressed reduces at the attention and MLP sums.
    pub(crate) reduces: [CompressedAllReduce; 2],
    /// Bytes both forward sums have moved.
    pub(crate) bytes: CommBytes,
}

impl InProcess {
    /// Sums through `attn` after the attention output and `mlp` after
    /// the MLP.
    pub fn new(attn: CompressedAllReduce, mlp: CompressedAllReduce) -> Self {
        InProcess {
            reduces: [attn, mlp],
            bytes: CommBytes::default(),
        }
    }
}

impl Reduce for InProcess {
    fn compute<T>(&mut self, f: impl FnOnce() -> T) -> T {
        f()
    }

    fn sum(&mut self, at: SumPoint, partials: Vec<Tensor>, ws: &mut Workspace) -> Tensor {
        let (sum, bytes) = self.reduces[at as usize].forward(&partials);
        self.bytes.add(bytes);
        partials.into_iter().for_each(|p| ws.recycle_tensor(p));
        sum
    }

    fn sum_backward(&mut self, at: SumPoint, dy: &Tensor) -> Vec<Tensor> {
        self.reduces[at as usize].backward(dy)
    }

    fn dense_sum(&mut self, parts: Vec<Tensor>, _: &mut Workspace) -> Tensor {
        rank_order_sum(parts.into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_compress::spec::CompressorSpec;
    use actcomp_compress::{AutoEncoder, Identity, TopK};
    use actcomp_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn partials(seed: u64, world: usize, rows: usize, h: usize) -> Vec<Tensor> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..world)
            .map(|_| init::randn(&mut rng, [rows, h], 1.0))
            .collect()
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
