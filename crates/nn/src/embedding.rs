//! Token and position embeddings.

use crate::Parameter;
use actcomp_tensor::{init, Tensor};
use rand::Rng;

/// A lookup table mapping token ids to dense vectors, with a scatter-add
/// backward pass.
///
/// Unlike [`crate::Layer`] implementations, the forward input is a slice of
/// token ids rather than a tensor, so `Embedding` exposes inherent methods.
///
/// # Examples
///
/// ```
/// use actcomp_nn::Embedding;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mut emb = Embedding::new(&mut rng, 10, 4);
/// let out = emb.forward(&[1, 2, 1]);
/// assert_eq!(out.dims(), &[3, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The `[vocab, dim]` table.
    pub table: Parameter,
    cache_ids: Option<Vec<usize>>,
}

impl Embedding {
    /// Creates a table of shape `[vocab, dim]` with `N(0, 0.02²)` entries
    /// (the BERT/Megatron initialization).
    pub fn new(rng: &mut impl Rng, vocab: usize, dim: usize) -> Self {
        Embedding {
            table: Parameter::new(init::randn(rng, [vocab, dim], 0.02)),
            cache_ids: None,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.value.dims()[0]
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.value.dims()[1]
    }

    /// Gathers rows for `ids`, returning `[ids.len(), dim]`.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of vocabulary.
    pub fn forward(&mut self, ids: &[usize]) -> Tensor {
        let out = self.forward_cached(ids);
        self.cache_ids = Some(ids.to_vec());
        out
    }

    /// Gathers rows for `ids` without storing backward state; pair with
    /// [`Embedding::backward_ids`] when several lookups are in flight
    /// (e.g. one per pipeline micro-batch).
    ///
    /// # Panics
    ///
    /// Panics if any id is out of vocabulary.
    pub fn forward_cached(&self, ids: &[usize]) -> Tensor {
        let (v, d) = (self.vocab(), self.dim());
        let mut out = Vec::with_capacity(ids.len() * d);
        for &id in ids {
            assert!(id < v, "token id {id} out of vocabulary (size {v})");
            out.extend_from_slice(&self.table.value.as_slice()[id * d..(id + 1) * d]);
        }
        Tensor::from_vec(out, [ids.len(), d])
    }

    /// Scatter-adds `dy` rows into the table gradient.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`Embedding::forward`] or if
    /// `dy` has the wrong shape.
    pub fn backward(&mut self, dy: &Tensor) {
        let ids = self
            .cache_ids
            .take()
            .expect("Embedding::backward called without forward");
        self.backward_ids(&ids, dy);
    }

    /// Scatter-adds `dy` rows into the table gradient for an explicit id
    /// list (the caller-held counterpart of [`Embedding::backward`]).
    ///
    /// # Panics
    ///
    /// Panics if `dy` has the wrong shape.
    pub fn backward_ids(&mut self, ids: &[usize], dy: &Tensor) {
        let d = self.dim();
        assert_eq!(dy.dims(), &[ids.len(), d], "embedding dy shape mismatch");
        let grad = self.table.grad.as_mut_slice();
        for (&id, drow) in ids.iter().zip(dy.as_slice().chunks_exact(d)) {
            for (g, &v) in grad[id * d..][..d].iter_mut().zip(drow) {
                *g += v;
            }
        }
    }

    /// Visits the embedding table parameter.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn gathers_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut emb = Embedding::new(&mut rng, 5, 3);
        let out = emb.forward(&[4, 0]);
        assert_eq!(&out.as_slice()[..3], &emb.table.value.as_slice()[12..15]);
        assert_eq!(&out.as_slice()[3..], &emb.table.value.as_slice()[..3]);
    }

    #[test]
    fn backward_scatter_adds_duplicates() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut emb = Embedding::new(&mut rng, 4, 2);
        emb.forward(&[1, 1, 2]);
        let dy = Tensor::ones([3, 2]);
        emb.backward(&dy);
        let g = emb.table.grad.as_slice();
        assert_eq!(&g[2..4], &[2.0, 2.0]); // id 1 appears twice
        assert_eq!(&g[4..6], &[1.0, 1.0]); // id 2 once
        assert_eq!(&g[0..2], &[0.0, 0.0]); // id 0 never
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn rejects_oov() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        Embedding::new(&mut rng, 3, 2).forward(&[3]);
    }
}
