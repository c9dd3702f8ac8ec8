//! Top-K sparsification.

use crate::message::{kept_indices, scatter_sparse};
use crate::{Compressed, Compressor, Payload};
use actcomp_tensor::{pool, Tensor};

/// Minimum elements per selection chunk; below `threads *` this, the
/// fork-join overhead of extra chunks outweighs the parallel select.
const MIN_CHUNK: usize = 2048;

/// Decides whether the chunked parallel selection is expected to beat a
/// single serial select for an `n`-element input keeping `k`.
///
/// After the parallel per-chunk selects, the pooled path pays a *serial*
/// merge over up to `chunks * k` candidate keys; once that merge
/// approaches the input size the chunking is pure overhead (measured
/// 0.77x against the serial loop at 8 threads and the paper's 5% keep
/// rate on 2^21 elements). The quarter-input bound the gate first
/// shipped with still left marginal keep rates on the pooled path for a
/// ~1.2x return that a noisy or oversubscribed pool erases, so the gate
/// now falls back earlier: it admits the pooled path only when the
/// candidate set stays under an *eighth* of the input and the planner
/// actually produces more than one chunk.
/// `tests::pooled_gate_admits_small_k_only` pins the routing.
///
/// Gating is a pure routing decision: the selection's total key order
/// makes both paths bit-identical (test-enforced), so this only ever
/// changes speed, never results.
pub fn pooled_select_beneficial(n: usize, k: usize, threads: usize) -> bool {
    if threads <= 1 || n < 2 * MIN_CHUNK {
        return false;
    }
    let chunks = pool::plan_unit_chunks(n, threads, MIN_CHUNK).len();
    chunks > 1 && chunks.saturating_mul(k.min(n)) <= n / 8
}

/// Selection key for element `i`: `(|v| bits, !i)` packed into a `u64`.
///
/// The IEEE bit pattern of `|v|` is monotone in `|v|` for non-negative
/// finite floats, so plain integer comparison orders by magnitude — no
/// `partial_cmp` Option plumbing in the hot comparator — and the inverted
/// index breaks magnitude ties toward the *smaller* index. Every key is
/// distinct, so "the k largest keys" is a unique set: the selection result
/// cannot depend on how the array was chunked or on `select_nth`'s
/// internal pivot choices.
#[inline]
fn sel_key(v: f32, i: usize) -> u64 {
    ((v.abs().to_bits() as u64) << 32) | u64::from(!(i as u32))
}

/// Returns the indices of the `k` largest-|value| elements of `data`
/// (ties toward the smaller index), sorted ascending, selecting over
/// `threads` row chunks. `keys` is a reusable scratch buffer.
///
/// Each chunk keeps its local top-`min(k, chunk_len)` as a candidate
/// prefix — any global top-k member that lives in a chunk is necessarily
/// in that chunk's local top-k — then one final select over the
/// concatenated candidates picks the global winners. Because the key
/// order is total, the result is bit-identical for every `threads`.
pub(crate) fn select_top_k(
    data: &[f32],
    k: usize,
    keys: &mut Vec<u64>,
    threads: usize,
) -> Vec<u32> {
    let n = data.len();
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    keys.clear();
    keys.resize(n, 0);
    // Route large-k selections to the single-chunk path: their candidate
    // merge would redo most of the work serially anyway.
    let threads = if pooled_select_beneficial(n, k, threads) {
        threads
    } else {
        1
    };
    let plan = pool::plan_unit_chunks(n, threads, MIN_CHUNK);
    pool::run_on_chunks(keys, &plan, |start, chunk| {
        for (j, slot) in chunk.iter_mut().enumerate() {
            let i = start + j;
            *slot = sel_key(data[i], i);
        }
        let kc = k.min(chunk.len());
        if kc < chunk.len() {
            chunk.select_nth_unstable_by(kc - 1, |a, b| b.cmp(a));
        }
    });
    let mut cands: Vec<u64> = Vec::with_capacity(plan.len() * k);
    let mut start = 0;
    for &len in &plan {
        cands.extend_from_slice(&keys[start..start + k.min(len)]);
        start += len;
    }
    if k < cands.len() {
        cands.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
    }
    let mut order: Vec<u32> = cands[..k].iter().map(|&key| !(key as u32)).collect();
    order.sort_unstable();
    order
}

/// Keeps the `k` entries of largest absolute value, zeroing the rest
/// (the paper's `torch.topk` baseline, §3.2).
///
/// Gradients flow only through the kept positions, which
/// [`Compressor::backward`] reads off the message it is handed; the
/// codec itself keeps only a selection scratch buffer.
///
/// # Examples
///
/// ```
/// use actcomp_compress::{Compressor, TopK};
/// use actcomp_tensor::Tensor;
///
/// let mut c = TopK::new(1);
/// let y = c.round_trip(&Tensor::from_vec(vec![1.0, -9.0, 3.0], [1, 3]));
/// assert_eq!(y.as_slice(), &[0.0, -9.0, 0.0]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// Reusable selection-key buffer; keeps its capacity across
    /// `compress` calls so steady-state selection allocates little.
    scratch: Vec<u64>,
}

impl TopK {
    /// Keeps `k` elements per tensor.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "TopK requires k > 0");
        TopK {
            k,
            scratch: Vec::new(),
        }
    }

    /// Keeps a `ratio` fraction of elements (e.g. `0.05` keeps 5%).
    ///
    /// The element count is resolved per tensor at compression time, with a
    /// minimum of one element.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ratio <= 1`.
    pub fn with_ratio(ratio: f64, n: usize) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio {ratio} not in (0, 1]");
        Self::new(((n as f64 * ratio) as usize).max(1))
    }

    /// The configured number of kept elements.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Compressor for TopK {
    fn name(&self) -> &'static str {
        "topk"
    }

    fn compress(&mut self, x: &Tensor) -> Compressed {
        // Chunked O(n) selection over the kernel pool; indices come back
        // sorted for a deterministic message layout. The O(n) key buffer
        // lives in `self.scratch` and is reused across calls.
        let data = x.as_slice();
        let order = select_top_k(data, self.k, &mut self.scratch, pool::configured_threads());
        let values: Vec<f32> = order.iter().map(|&i| data[i as usize]).collect();
        Compressed::new(
            Payload::Sparse {
                values,
                indices: order,
            },
            x.shape().clone(),
        )
    }

    fn decompress(&self, msg: &Compressed) -> Tensor {
        match msg.payload() {
            Payload::Sparse { values, indices } => scatter_sparse(values, indices, msg.shape()),
            _ => panic!("TopK received a non-sparse message"),
        }
    }

    fn fits(&self, msg: &Compressed) -> bool {
        matches!(msg.payload(), Payload::Sparse { .. })
    }

    fn backward(&mut self, dy: &Tensor, _x: &Tensor, msg: &Compressed) -> Tensor {
        let mut dx = Tensor::zeros_like(dy);
        for &i in kept_indices(msg) {
            dx[i as usize] = dy[i as usize];
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn keeps_true_top_k() {
        let x = Tensor::from_vec(vec![0.5, -3.0, 2.0, -0.1, 1.0], [5]);
        let mut c = TopK::new(2);
        let y = c.round_trip(&x);
        assert_eq!(y.as_slice(), &[0.0, -3.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn k_larger_than_tensor_is_identity() {
        let x = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let mut c = TopK::new(10);
        assert_eq!(c.round_trip(&x), x);
    }

    #[test]
    fn error_bounded_by_dropped_mass() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let x = init::randn(&mut rng, [16, 16], 1.0);
        let mut c = TopK::new(64);
        let y = c.round_trip(&x);
        // Reconstruction keeps the largest entries, so the residual's max
        // must not exceed the smallest kept magnitude.
        let kept_min = y
            .as_slice()
            .iter()
            .filter(|v| **v != 0.0)
            .map(|v| v.abs())
            .fold(f32::INFINITY, f32::min);
        let resid_max = x.sub(&y).abs_max();
        assert!(resid_max <= kept_min + 1e-6);
    }

    #[test]
    fn backward_masks_gradient() {
        let x = Tensor::from_vec(vec![5.0, 0.1, -4.0, 0.2], [4]);
        let mut c = TopK::new(2);
        let msg = c.compress(&x);
        let dy = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]);
        let dx = c.backward(&dy, &x, &msg);
        assert_eq!(dx.as_slice(), &[1.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn backward_pairs_each_message_with_its_own_mask() {
        // Two compresses, then backward with message 1 and then message
        // 0: each gradient keeps its own forward's support, in any order.
        let mut c = TopK::new(1);
        let xs = [vec![9.0, 0.1], vec![0.1, 7.0]].map(|v| Tensor::from_vec(v, [2]));
        let msgs = xs.each_ref().map(|x| c.compress(x));
        let dy = Tensor::ones([2]);
        assert_eq!(c.backward(&dy, &xs[1], &msgs[1]).as_slice(), &[0.0, 1.0]);
        assert_eq!(c.backward(&dy, &xs[0], &msgs[0]).as_slice(), &[1.0, 0.0]);
    }

    #[test]
    fn wire_size_counts_values_and_indices() {
        let x = Tensor::from_vec((0..100).map(|i| i as f32).collect(), [100]);
        let mut c = TopK::new(10);
        let msg = c.compress(&x);
        assert_eq!(msg.wire_bytes(2), 10 * 2 + 10 * 4);
    }

    #[test]
    fn with_ratio_resolves_k() {
        let c = TopK::with_ratio(0.05, 1000);
        assert_eq!(c.k(), 50);
        assert_eq!(TopK::with_ratio(0.0001, 10).k(), 1);
    }

    #[test]
    fn not_summable() {
        assert!(!TopK::new(1).summable());
    }

    #[test]
    fn pooled_gate_admits_small_k_only() {
        // One thread or sub-threshold inputs: never pooled.
        assert!(!pooled_select_beneficial(1 << 21, 100, 1));
        assert!(!pooled_select_beneficial(1000, 10, 8));
        let n = 1 << 21;
        // The measured losing case: 8 threads at the paper's 5% keep
        // rate (candidate merge = 40% of the input).
        assert!(!pooled_select_beneficial(n, n / 20, 8));
        // Marginal keep rates now fall back too: 8 chunks at 2% keep
        // put the merge at 16% of the input, over the eighth bound.
        assert!(!pooled_select_beneficial(n, n / 50, 8));
        // A sparse keep rate leaves the merge small: pooled admitted.
        assert!(pooled_select_beneficial(n, n / 1000, 8));
    }

    #[test]
    fn ties_break_toward_smaller_index() {
        // Four equal magnitudes: the total selection order must keep the
        // two smallest indices, for every pool size.
        let x = [2.0f32, -2.0, 2.0, -2.0, 0.5];
        let mut keys = Vec::new();
        for threads in [1, 2, 8] {
            assert_eq!(select_top_k(&x, 2, &mut keys, threads), vec![0, 1]);
        }
    }

    proptest::proptest! {
        /// The chunked selection is bit-identical for pools {1, 2, 8} and
        /// matches a brute-force sort under the same total order — on
        /// inputs both above and below the parallel chunking threshold,
        /// with tie-heavy value distributions.
        #[test]
        fn selection_is_pool_size_invariant(
            n in 1usize..6000,
            k in 1usize..600,
            seed in 0u64..1000,
        ) {
            let data: Vec<f32> = (0..n)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed);
                    ((h >> 33) % 23) as f32 - 11.0
                })
                .collect();
            let mut keys = Vec::new();
            let serial = select_top_k(&data, k, &mut keys, 1);
            for threads in [2usize, 8] {
                let pooled = select_top_k(&data, k, &mut keys, threads);
                proptest::prop_assert_eq!(&pooled, &serial, "threads={}", threads);
            }
            let mut idx: Vec<u32> = (0..n as u32).collect();
            idx.sort_by_key(|&i| std::cmp::Reverse(sel_key(data[i as usize], i as usize)));
            let mut want = idx[..k.min(n)].to_vec();
            want.sort_unstable();
            proptest::prop_assert_eq!(serial, want);
        }
    }
}
