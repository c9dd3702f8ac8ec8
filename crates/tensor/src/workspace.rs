//! Reusable scratch-buffer arena for hot kernel callers.
//!
//! The training loop calls the same matmuls with the same shapes every
//! step, so per-call `Vec` allocation is pure churn. A [`Workspace`] is a
//! freelist of previously-used buffers: [`Workspace::lease`] hands out a
//! zeroed `Vec<f32>` (recycled when one of sufficient capacity is
//! available), and [`Workspace::recycle`] returns it for the next call.
//!
//! Ownership rules (also documented in `DESIGN.md`):
//!
//! - A workspace is **per-owner, not shared**: each runtime rank thread
//!   owns its own `Workspace`; nothing is synchronized.
//! - Leased buffers are plain owned `Vec<f32>`s — forgetting to recycle
//!   one is a missed reuse, never unsoundness or a leak beyond that call.
//! - Buffers come back **zeroed**, so kernels can accumulate into them
//!   directly.
//! - Convenience [`Tensor`] wrappers ([`Workspace::lease_tensor`],
//!   [`Workspace::recycle_tensor`]) move the buffer in and out of tensor
//!   form without copying.
//!
//! - The arena also owns its rank's compiled plans ([`Workspace::plan`],
//!   see [`crate::plan`]): a layer's graphs are built and compiled the
//!   first time their builder sees a shape and looked up by key
//!   afterwards. Plans are handed out as
//!   `Arc`s because a rank's workspace is built by the launcher and moved
//!   into the rank's thread; [`Workspace::plan_compiles`] counts the
//!   misses.
//!
//! Plain `Tensor::matmul`-style methods that have no caller-provided
//! workspace use a thread-local one via [`with_thread_default`], so even
//! "workspace-oblivious" code stops allocating — and compiling — per call
//! after warm-up.

use crate::graph::GraphError;
use crate::plan::{CompiledPlan, PlanCache, PlanKey};
use crate::{Shape, Tensor};
use std::cell::RefCell;
use std::sync::Arc;

/// Retain at most this many free buffers; beyond that, drop the smallest.
const MAX_CACHED: usize = 32;

/// A freelist arena of reusable `f32` scratch buffers, plus the compiled
/// plans of the graphs its owner runs.
#[derive(Debug, Default)]
pub struct Workspace {
    free: Vec<Vec<f32>>,
    plans: PlanCache,
}

impl Workspace {
    /// Creates an empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the smallest cached buffer with room for `len` elements off
    /// the freelist, contents as recycled — the smallest, so big buffers
    /// stay available for big requests.
    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.free.iter().enumerate() {
            let cap = b.capacity();
            if cap >= len && best.is_none_or(|(_, bc)| cap < bc) {
                best = Some((i, cap));
            }
        }
        let (i, _) = best?;
        Some(self.free.swap_remove(i))
    }

    /// Leases a zeroed buffer of exactly `len` elements, reusing a cached
    /// allocation when one is large enough.
    #[must_use]
    pub fn lease(&mut self, len: usize) -> Vec<f32> {
        match self.take(len) {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Leases a buffer of exactly `len` elements whose contents are
    /// unspecified (whatever a recycled buffer last held, zero past
    /// that), for scratch its user writes before it reads: the GEMM
    /// kernels' staged panels, which would otherwise pay a zero fill of
    /// every element they are about to overwrite.
    #[must_use]
    pub fn lease_scratch(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len).unwrap_or_default();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to the freelist for later reuse.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        self.free.push(buf);
        if self.free.len() > MAX_CACHED {
            // Evict the smallest buffer: the large ones are the expensive
            // allocations worth keeping.
            if let Some((i, _)) = self
                .free
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
            {
                self.free.swap_remove(i);
            }
        }
    }

    /// Leases a zeroed [`Tensor`] with the given shape.
    #[must_use]
    pub fn lease_tensor(&mut self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let buf = self.lease(shape.len());
        Tensor::from_vec(buf, shape)
    }

    /// Leases a buffer holding a copy of `src` (no zero-fill first).
    #[must_use]
    pub fn lease_from(&mut self, src: &[f32]) -> Vec<f32> {
        let mut buf = self.take(src.len()).unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(src);
        buf
    }

    /// Leases a copy of `t`: a `clone` whose buffer comes from, and can
    /// go back to, the freelist.
    #[must_use]
    pub fn lease_copy(&mut self, t: &Tensor) -> Tensor {
        Tensor::from_vec(self.lease_from(t.as_slice()), t.shape().clone())
    }

    /// Recycles a tensor's backing buffer into the freelist.
    pub fn recycle_tensor(&mut self, t: Tensor) {
        self.recycle(t.into_vec());
    }

    /// Number of buffers currently cached (for tests and diagnostics).
    #[must_use]
    pub fn cached(&self) -> usize {
        self.free.len()
    }

    /// The plan cached under `key`, else the one `compile` returns, which
    /// this workspace then keeps (up to [`crate::plan::PLAN_CACHE_CAP`],
    /// least recently used out first). `compile` builds and compiles the
    /// graph (typically [`crate::graph::Graph::compile`]) and runs only
    /// on a miss, so a hit builds nothing and allocates nothing. The key
    /// is the caller's promise: equal keys must compile to the same plan
    /// ([`PlanKey`]).
    ///
    /// # Errors
    ///
    /// Whatever `compile` returns; a failed compile caches nothing.
    pub fn plan(
        &mut self,
        key: PlanKey,
        compile: impl FnOnce() -> Result<CompiledPlan, GraphError>,
    ) -> Result<Arc<CompiledPlan>, GraphError> {
        self.plans.get(key, compile)
    }

    /// How many times [`Workspace::plan`] had to compile: flat once every
    /// shape its owner runs has been seen.
    #[must_use]
    pub fn plan_compiles(&self) -> u64 {
        self.plans.compiles()
    }

    /// Number of plans currently cached (for tests and diagnostics).
    #[must_use]
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }
}

thread_local! {
    static THREAD_WS: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Runs `f` with this thread's default workspace.
///
/// Used by the entry points whose callers hold no workspace (the plain
/// `Tensor` GEMM methods, and in `actcomp-nn` the loss and the serial
/// model-level methods); every layer op takes the caller's workspace, so
/// ranks keep their scratch local.
///
/// Re-entrant calls (a plain method invoked while the thread default is
/// already borrowed) fall back to a fresh temporary workspace: correct,
/// just without reuse for that inner call.
pub fn with_thread_default<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    THREAD_WS.with(|ws| match ws.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut Workspace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_recycles_capacity() {
        let mut ws = Workspace::new();
        let mut a = ws.lease(100);
        a[0] = 7.0;
        let ptr = a.as_ptr();
        ws.recycle(a);
        let b = ws.lease(64);
        assert_eq!(b.as_ptr(), ptr, "smaller lease reuses cached buffer");
        assert!(b.iter().all(|&v| v == 0.0), "leased buffer is zeroed");
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn prefers_smallest_fitting_buffer() {
        let mut ws = Workspace::new();
        let big = ws.lease(1000);
        let small = ws.lease(10);
        let small_ptr = small.as_ptr();
        ws.recycle(big);
        ws.recycle(small);
        let got = ws.lease(8);
        assert_eq!(got.as_ptr(), small_ptr);
    }

    #[test]
    fn eviction_keeps_large_buffers() {
        let mut ws = Workspace::new();
        for i in 0..(MAX_CACHED + 5) {
            ws.recycle(vec![0.0; i + 1]);
        }
        assert_eq!(ws.cached(), MAX_CACHED);
        let max_cap = ws.free.iter().map(Vec::capacity).max().unwrap();
        assert!(max_cap >= MAX_CACHED + 5);
    }

    #[test]
    fn tensor_round_trip() {
        let mut ws = Workspace::new();
        let t = ws.lease_tensor([3, 4]);
        assert_eq!(t.dims(), &[3, 4]);
        ws.recycle_tensor(t);
        assert_eq!(ws.cached(), 1);
    }

    #[test]
    fn lease_copy_reuses_a_cached_buffer() {
        let mut ws = Workspace::new();
        let scratch = ws.lease(6);
        let ptr = scratch.as_ptr();
        ws.recycle(scratch);
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let copy = ws.lease_copy(&t);
        assert_eq!(copy, t);
        assert_eq!(copy.as_slice().as_ptr(), ptr);
        assert_eq!(ws.cached(), 0);
    }
}
