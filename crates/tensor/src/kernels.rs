//! Cache-blocked, register-tiled GEMM kernels with fusable epilogues.
//!
//! All three matmul variants (`A@B`, `Aᵀ@B`, `A@Bᵀ`) funnel into one
//! blocked core:
//!
//! - For `nn` and `nt`, `B` is **packed** into column panels of [`NR`]
//!   columns, laid out `[j_tile][p][NR]` and zero-padded on the ragged
//!   edge, so the inner loop always reads one contiguous `NR`-wide row
//!   per `k` step. Panels
//!   are 64-byte aligned inside their leased buffer — each panel row is
//!   a whole number of cache lines, so full-width vector loads never
//!   split a line (measured ≈10% on 512³).
//! - `A` is **streamed row-major** from the caller's tensor: the
//!   micro-kernel reads its [`MR`] multipliers from `MR` parallel row
//!   streams (`A[m,k]`). Only the ragged last row-tile (when
//!   `m % MR != 0`) is staged into a small zero-padded scratch tile.
//! - The `tn` variant (`Aᵀ@B` with `A[k,m]`, `B[k,n]` — the
//!   weight-gradient shape) **reads both k-major operands where they
//!   lie**: a `k` step's `MR` multipliers are already adjacent in
//!   `A[k,m]` and its `NR`-wide row already contiguous in `B[k,n]`, so a
//!   second micro-kernel takes them in place and nothing is transposed
//!   or packed. (Staging `Aᵀ` row-major first — what this replaced —
//!   cost `m·k` scalar stores at stride `k`: two thirds of the call at the
//!   128→64 shard shape, 34–68 GFLOP/s against `nn`'s 100.) What *is*
//!   copied, into the same `[tile][p][width]` panels the `nn` path packs
//!   `B` into: a ragged last tile, zero-padded; and every tile of an
//!   operand whose rows are longer than [`IN_PLACE_LD`], where walking
//!   `k` in place would put each step on its own page. The `k` loop is
//!   **blocked** in steps of [`KC`] so a tile's operand windows stay
//!   L1-sized and a sweep's L2-sized however many tokens `k` spans;
//!   between blocks a tile's partial sums travel through the output.
//! - The `j` dimension is **cache-blocked** in groups of [`NC_TILES`]
//!   panels: each thread sweeps all of its row tiles against one
//!   `k × NC` slab of packed `B` before moving to the next slab, so a
//!   slab is read once per row-chunk sweep instead of the whole packed
//!   `B` (up to several MB at FFN widths) being re-read per row tile.
//!
//! The micro-kernel keeps an `MR × NR` accumulator block in registers;
//! its inner loop is an explicit unrolled pass over one `NR`-wide panel
//! row with a constant trip count, which the autovectorizer reliably
//! turns into groups of 8-wide (AVX2/NEON) or 16-wide (AVX-512) SIMD
//! fmadds (see the private `fmadd` helper's cfg gate and
//! `.cargo/config.toml`'s `target-cpu=native`).
//!
//! # Epilogues
//!
//! Every kernel takes an [`Epilogue`]: a short chain of elementwise ops
//! ([`EpOp`] — bias add, GELU/tanh/ReLU, scale, residual add, dropout-mask
//! multiply, GELU-gradient multiply) applied to each accumulator tile
//! **while it is still in registers**, instead of writing the tile and
//! re-reading the whole output once per elementwise op. An optional
//! *stash* buffer receives the value after a chosen prefix of the chain
//! (e.g. the pre-activation of a fused `linear+bias+GELU`), so backward
//! passes that need the intermediate still get it in the same single
//! output pass. The op-graph fusion pass in [`crate::fuse`] decides which
//! chains are folded; the legality rules live there.
//!
//! # Determinism contract
//!
//! Every output element is one fused-multiply-add chain over `p = 0..k`
//! in strictly increasing order — within one micro-kernel call, or, when
//! the `k` loop is blocked, carried through `out` from one k-block's call
//! to the next, re-loaded as its starting accumulator (an accumulating
//! call keeps its addend aside and adds it after the last block, exactly
//! where the unblocked kernel does) — and the tile decomposition depends
//! only on the matrix shape, never on the thread count or runtime load.
//! Epilogue ops are pure per-element functions of
//! the accumulated value and the element's `(i, j)` coordinates, applied
//! in chain order after accumulation — exactly the value the unfused
//! path computes by running the same ops as separate output passes.
//! Results are therefore **bit-identical for every pool size** (1, 2,
//! 8, ...) *and* bit-identical between fused and unfused execution of
//! the same op chain. They are *not* bit-identical to the naive
//! reference kernels in [`reference`](mod@reference) on FMA hardware, because fused
//! multiply-adds round once instead of twice; tests compare against the
//! reference with a tolerance, across pool sizes exactly, and against an
//! oracle that *is* the increasing-`p` `mul_add` chain bit for bit
//! (`tests/kernel_props.rs`).

use crate::ops;
use crate::pool;
use crate::workspace::Workspace;
use std::ops::Range;

/// Rows per register tile of `A` / the output.
pub const MR: usize = 4;
/// Columns per packed panel of `B` / register tile of the output.
pub const NR: usize = 32;
/// Packed-`B` panels per cache block of the `j` loop: each thread sweeps
/// its whole row range against one `k × NC_TILES·NR` slab before moving
/// on, keeping the slab L2-resident (256 columns = 1&nbsp;KB per `k` step).
pub const NC_TILES: usize = 8;
/// `k` steps per block of the `tn` path. A tile's operand windows are
/// then `KC` rows of `NR` floats (32&nbsp;KB) and the `KC` cache lines its
/// `MR` multipliers lie in (16&nbsp;KB) — the 48&nbsp;KB L1 — and a row
/// sweep's working set, `KC` rows of `A`, of `NC_TILES` panels of `B` and
/// the output window, stays L2-resident however long `k` (tokens per
/// micro-batch) is. Per block a tile pays one accumulator reload and
/// store (≈ 55 cycles against `8·KC` of FMAs: 128 and below read slower).
pub const KC: usize = 256;
/// Longest row (in `f32`s) of a k-major operand that `tn` reads where it
/// lies: a `KC`-row window of 1&nbsp;KB rows is 64 pages and four L1 sets.
/// Longer rows (the BERT-base widths) put every `k` step on its own
/// page, and are staged like a ragged edge instead.
pub const IN_PLACE_LD: usize = 256;
/// `f32`s per 64-byte cache line; packed `B` panels are aligned to this.
const LINE_F32S: usize = 16;
/// Spawn threads only when each chunk gets at least this many flops.
const GRAIN_FLOPS: usize = 1 << 20;

/// One elementwise step of a GEMM epilogue, applied per output element
/// after accumulation (and after the `+= existing` add when the kernel
/// runs in accumulate mode).
///
/// Operand slices are row-major over the full `[m, n]` output for the
/// full-shape ops and length-`n` for the per-column ops; `apply` receives
/// the element's flat index `i·n + j` and column `j` so each op can
/// address its operand. Ops are `Copy` borrows — building an epilogue
/// allocates nothing.
#[derive(Clone, Copy)]
pub enum EpOp<'a> {
    /// `v + bias[j]` — per-output-column bias.
    BiasAdd(&'a [f32]),
    /// `v + other[i·n + j]` — residual add against a full `[m, n]` operand.
    ResidualAdd(&'a [f32]),
    /// `v · other[i·n + j]` — dropout-mask (or any elementwise) multiply.
    MaskMul(&'a [f32]),
    /// `v · s` — constant scale (attention `1/√d`).
    Scale(f32),
    /// `gelu(v)` (tanh approximation, [`ops::gelu`]).
    Gelu,
    /// `tanh(v)` ([`ops::fast_tanh`], the same scalar the unfused path uses).
    Tanh,
    /// `max(v, 0)`.
    Relu,
    /// `v · gelu'(other[i·n + j])` — the backward-GELU chain
    /// (`dh = da ⊙ gelu'(h)`, with `h` the stashed pre-activation) as a
    /// single op on the incoming gradient `v = da`.
    GeluGradMul(&'a [f32]),
}

impl EpOp<'_> {
    /// Applies this op to one value at flat index `idx = i·n + j`,
    /// column `j`.
    #[inline(always)]
    pub fn apply(&self, v: f32, idx: usize, j: usize) -> f32 {
        match *self {
            EpOp::BiasAdd(b) => v + b[j],
            EpOp::ResidualAdd(r) => v + r[idx],
            EpOp::MaskMul(m) => v * m[idx],
            EpOp::Scale(s) => v * s,
            EpOp::Gelu => ops::gelu(v),
            EpOp::Tanh => ops::fast_tanh(v),
            EpOp::Relu => v.max(0.0),
            EpOp::GeluGradMul(h) => v * ops::gelu_grad(h[idx]),
        }
    }
}

/// An epilogue chain plus an optional stash point.
///
/// `stash_after = Some(s)` writes the value after `ops[..s]` into the
/// kernel's stash buffer (same `[m, n]` layout as the output) — the hook
/// that lets a fused `linear+bias+GELU` still materialize its
/// pre-activation for the backward pass in the same output pass.
#[derive(Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// The op chain, applied in order.
    pub ops: &'a [EpOp<'a>],
    /// Prefix length after which the intermediate is stashed.
    pub stash_after: Option<usize>,
}

impl Epilogue<'_> {
    /// The empty epilogue: plain GEMM.
    pub const NONE: Epilogue<'static> = Epilogue {
        ops: &[],
        stash_after: None,
    };

    /// True when there is nothing to apply and nothing to stash.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.stash_after.is_none()
    }
}

/// Fused multiply-add where the hardware has it, plain `a * b + c`
/// elsewhere — `f32::mul_add` without an FMA unit lowers to a libm call,
/// which is catastrophically slow in an inner loop.
#[inline(always)]
fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(any(target_arch = "aarch64", target_feature = "fma"))]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(any(target_arch = "aarch64", target_feature = "fma")))]
    {
        a * b + c
    }
}

/// Accumulates one `MR × NR` output tile over the full `k` range, reading
/// `A` from `MR` parallel row streams starting at row `i0`.
///
/// Two codegen constraints shape this function, both found the hard way:
///
/// - The constant-trip inner loop must stay index-based over fixed-size
///   arrays: this exact shape is what LLVM's SLP vectorizer turns into
///   packed FMAs — iterator/`split_at` formulations of the same math
///   have been observed to compile to *scalar* fmadds (≈20× slower).
/// - The loop body must be **panic-free**. A single indexed access such
///   as `rows[r][p]` plants a bounds-check side exit in the hot loop, and
///   because `acc` is reachable through `&mut` on the unwind path, LLVM
///   then spills all `MR × NR / 8` accumulator registers to the stack
///   after *every* FMA (observed ≈3× slowdown). The `zip`s below iterate
///   all four row streams in lockstep with the panel without any
///   panicking operation, so the accumulators live in registers for the
///   whole `k` loop.
#[inline(always)]
fn micro_rows(k: usize, a: &[f32], i0: usize, b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    const { assert!(MR == 4, "the zip below streams exactly four rows") };
    let row = |r: usize| &a[(i0 + r) * k..][..k];
    let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
    let panels = b_panel.chunks_exact(NR);
    for ((((bp, &a0), &a1), &a2), &a3) in panels.zip(r0).zip(r1).zip(r2).zip(r3) {
        let av = [a0, a1, a2, a3];
        for r in 0..MR {
            for c in 0..NR {
                acc[r][c] = fmadd(av[r], bp[c], acc[r][c]);
            }
        }
    }
}

/// Continues one `MR × NR` output tile over a k-block whose operands are
/// both k-major, read where they lie: `a` holds whole rows of `A[k, lda]`
/// (the `tn` layout) with the step's `MR` multipliers at
/// `row[i0..i0 + MR]`, `b` whole rows of `B[k, ldb]` with the step's
/// `NR`-wide row at `row[j0..j0 + NR]`. A zero-padded ragged edge is the
/// same call on its staged copy (`lda = MR` / `ldb = NR`, offset 0).
///
/// Same two codegen constraints as [`micro_rows`]: flat index-form inner
/// loops, and a panic-free single-exit `k` loop — the `assert!` makes the
/// slice checks loop-invariant, so LLVM deletes them (an `else { break }`
/// on a short row instead spilled every accumulator after every FMA).
#[inline(always)]
fn micro_cols(
    (a, lda, i0): (&[f32], usize, usize),
    (b, ldb, j0): (&[f32], usize, usize),
    acc: &mut [[f32; NR]; MR],
) {
    assert!(i0 + MR <= lda && j0 + NR <= ldb, "tile outside its operand");
    for (arow, brow) in a.chunks_exact(lda).zip(b.chunks_exact(ldb)) {
        let (av, bp) = (&arow[i0..i0 + MR], &brow[j0..j0 + NR]);
        for r in 0..MR {
            for c in 0..NR {
                acc[r][c] = fmadd(av[r], bp[c], acc[r][c]);
            }
        }
    }
}

/// Writes (or adds) one accumulator row into the output, trimming the
/// ragged column edge — the fast path when the epilogue is empty.
#[inline(always)]
fn store_row(orow: &mut [f32], acc_row: &[f32; NR], accumulate: bool) {
    if accumulate {
        for (o, &v) in orow.iter_mut().zip(acc_row) {
            *o += v;
        }
    } else {
        for (o, &v) in orow.iter_mut().zip(acc_row) {
            *o = v;
        }
    }
}

/// Applies the epilogue chain (and the stash copy, when requested) to
/// one stored row segment of a row-tile × j-block window, after the
/// window's accumulator tiles have been stored. `base` is the segment's
/// flat index into the full `[m, n]` output (for the full-shape
/// operands), `jbase` its first column (for the per-column bias).
fn apply_ep_window(
    row: &mut [f32],
    base: usize,
    jbase: usize,
    ep: &Epilogue<'_>,
    mut stash_row: Option<&mut [f32]>,
) {
    if ep.stash_after == Some(0) {
        if let Some(s) = stash_row.take() {
            s.copy_from_slice(row);
        }
    }
    let mut applied = 0;
    for op in ep.ops {
        apply_ep_op(row, op, base, jbase);
        applied += 1;
        if ep.stash_after == Some(applied) {
            if let Some(s) = stash_row.take() {
                s.copy_from_slice(row);
            }
        }
    }
}

/// Applies one epilogue op across a row segment starting at flat output
/// index `base` (column `jbase`). Dispatches once per op, not per
/// element: each arm is a tight fixed-op loop the autovectorizer can
/// widen (a per-element `EpOp::apply` match blocks SIMD and costs the
/// fusion win). Every arm computes exactly `EpOp::apply` per element,
/// in the same order, so fused output stays bit-identical to running
/// the ops as separate passes.
#[inline(always)]
fn apply_ep_op(vals: &mut [f32], op: &EpOp<'_>, base: usize, jbase: usize) {
    let cols = vals.len();
    match *op {
        EpOp::BiasAdd(b) => {
            let bw = &b[jbase..jbase + cols];
            for (v, &bv) in vals.iter_mut().zip(bw) {
                *v += bv;
            }
        }
        EpOp::ResidualAdd(r) => {
            let rw = &r[base..base + cols];
            for (v, &rv) in vals.iter_mut().zip(rw) {
                *v += rv;
            }
        }
        EpOp::MaskMul(mk) => {
            let mw = &mk[base..base + cols];
            for (v, &mv) in vals.iter_mut().zip(mw) {
                *v *= mv;
            }
        }
        EpOp::Scale(s) => {
            for v in vals.iter_mut() {
                *v *= s;
            }
        }
        EpOp::Gelu => {
            for v in vals.iter_mut() {
                *v = ops::gelu(*v);
            }
        }
        EpOp::Tanh => {
            for v in vals.iter_mut() {
                *v = ops::fast_tanh(*v);
            }
        }
        EpOp::Relu => {
            for v in vals.iter_mut() {
                *v = v.max(0.0);
            }
        }
        EpOp::GeluGradMul(h) => {
            let hw = &h[base..base + cols];
            for (v, &hv) in vals.iter_mut().zip(hw) {
                *v *= ops::gelu_grad(hv);
            }
        }
    }
}

/// Leases a buffer with `len` usable elements starting at a 64-byte-aligned
/// offset; returns the buffer and that offset. Panel strides are whole
/// cache lines (`NR` is a multiple of [`LINE_F32S`]), so aligning the base
/// aligns every panel row.
fn lease_aligned(ws: &mut Workspace, len: usize) -> (Vec<f32>, usize) {
    let buf = ws.lease(len + LINE_F32S);
    let addr = buf.as_ptr() as usize;
    let off = (addr.wrapping_neg() % (LINE_F32S * 4)) / 4;
    (buf, off)
}

/// Packs column tiles `from..` of a k-major `x[k, ld]` into
/// `[tile][p][W]` panels (destination pre-zeroed, so a ragged last tile
/// comes out zero-padded). `pack_tiles::<NR>(bp, b, n, 0)` is the packed
/// `B` of the `nn` path.
fn pack_tiles<const W: usize>(dst: &mut [f32], x: &[f32], ld: usize, from: usize) {
    let k = x.len() / ld;
    for (p, row) in x.chunks_exact(ld).enumerate() {
        let (full, ragged) = row[from * W..].as_chunks::<W>();
        for (t, cols) in full.iter().enumerate() {
            dst[(t * k + p) * W..][..W].copy_from_slice(cols);
        }
        if !ragged.is_empty() {
            dst[(full.len() * k + p) * W..][..ragged.len()].copy_from_slice(ragged);
        }
    }
}

/// Packs `b[n, k]` (logical `Bᵀ`) into `[j_tile][p][NR]` panels
/// (destination pre-zeroed): every `[p][NR]` panel row is gathered from
/// the panel's `NR` source rows and written contiguously — not scattered
/// one `f32` per store at stride `NR`.
fn pack_b_nt(bp: &mut [f32], b: &[f32], n: usize, k: usize) {
    debug_assert_eq!(b.len(), n * k);
    for (panel, rows) in bp.chunks_exact_mut(k * NR).zip(b.chunks(NR * k)) {
        for (p, prow) in panel.chunks_exact_mut(NR).enumerate() {
            for (dst, brow) in prow.iter_mut().zip(rows.chunks_exact(k)) {
                *dst = brow[p];
            }
        }
    }
}

/// Stages the ragged last row-tile of a row-major `A[m, k]` (when
/// `m % MR != 0`) into a zero-padded `[MR][k]` row-major scratch tile the
/// row-stream micro-kernel can use directly.
fn pad_last_tile(ws: &mut Workspace, a: &[f32], m: usize, k: usize) -> Option<Vec<f32>> {
    let ragged = m % MR;
    if ragged == 0 {
        return None;
    }
    let i0 = m - ragged;
    let mut pad = ws.lease(MR * k);
    pad[..ragged * k].copy_from_slice(&a[i0 * k..][..ragged * k]);
    Some(pad)
}

/// A k-major operand `x[k, ld]` as [`micro_cols`] reads it, in tiles of
/// `W` columns: where it lies, except tiles `from..`, which are staged
/// `[tile][p][W]` by [`pack_tiles`] — the ragged last tile (zero-padded),
/// and every tile once rows are longer than [`IN_PLACE_LD`].
struct KMajor<'a, const W: usize> {
    x: &'a [f32],
    ld: usize,
    from: usize,
    staged: Vec<f32>,
    /// 64-byte-aligned start of the panels inside `staged`.
    off: usize,
}

impl<'a, const W: usize> KMajor<'a, W> {
    fn new(ws: &mut Workspace, x: &'a [f32], ld: usize) -> Self {
        let from = if ld > IN_PLACE_LD { 0 } else { ld / W };
        let len = (ld.div_ceil(W) - from) * (x.len() / ld) * W;
        let (mut staged, off) = lease_aligned(ws, len);
        pack_tiles::<W>(&mut staged[off..], x, ld, from);
        KMajor {
            x,
            ld,
            from,
            staged,
            off,
        }
    }

    /// Rows `p` of tile `t`, as [`micro_cols`]'s `(rows, ld, offset)`.
    #[inline(always)]
    fn window(&self, t: usize, p: Range<usize>) -> (&[f32], usize, usize) {
        let k = self.x.len() / self.ld;
        match t.checked_sub(self.from) {
            Some(s) => {
                let panel = &self.staged[self.off + s * k * W..][..k * W];
                (&panel[p.start * W..p.end * W], W, 0)
            }
            None => (&self.x[p.start * self.ld..p.end * self.ld], self.ld, t * W),
        }
    }
}

/// The blocked core: `out (+)= A @ B` (with the epilogue applied per
/// element), parallelized over i-tile chunks and blocked over `k` in
/// steps of `kc`. `micro` continues one accumulator tile over one
/// k-block — it is handed the tile's row-tile and panel index and the
/// block's `p` range. Between k-blocks a tile's partial sums travel
/// through `out` and are re-loaded as the next block's accumulator, so
/// every element stays one increasing-`p` FMA chain; an accumulating
/// multi-block call therefore takes its addend from a copy of the
/// original `out`, at the last block. `stash` (when the epilogue requests one) has the same
/// `[m, n]` layout as `out` and is chunked identically so every thread
/// writes only its own rows.
#[allow(clippy::too_many_arguments)]
fn gemm_core<M>(
    out: &mut [f32],
    accumulate: bool,
    micro: M,
    m: usize,
    k: usize,
    kc: usize,
    n: usize,
    threads: usize,
    ws: &mut Workspace,
    ep: &Epilogue<'_>,
    stash: Option<&mut [f32]>,
) where
    M: Fn(usize, usize, Range<usize>, &mut [[f32; NR]; MR]) + Sync,
{
    let addend = (accumulate && k > kc).then(|| ws.lease_from(out));
    let itiles = m.div_ceil(MR);
    let jtiles = n.div_ceil(NR);
    let last_rows = m - (itiles - 1) * MR;
    let tile_flops = 2 * MR * n * k;
    let min_tiles = (GRAIN_FLOPS / tile_flops.max(1)).max(1);
    let plan = pool::plan_chunks(itiles, MR, last_rows, threads, min_tiles);
    let plain = ep.is_empty();
    pool::run_row_chunks_pair(out, stash, n, &plan, |row0, chunk, mut stash_chunk| {
        let chunk_rows = chunk.len() / n;
        let ctiles = chunk_rows.div_ceil(MR);
        // j-blocked sweep: all row tiles of this chunk against one slab
        // of NC_TILES panels at a time, so the slab stays cached
        // across the whole row range instead of the full B being
        // re-read per row tile.
        for jb in (0..jtiles).step_by(NC_TILES) {
            let jb_end = (jb + NC_TILES).min(jtiles);
            for p0 in (0..k.max(1)).step_by(kc) {
                let p1 = (p0 + kc).min(k);
                let (first, last) = (p0 == 0, p1 == k);
                for t in 0..ctiles {
                    let i0 = row0 + t * MR;
                    let rows = MR.min(chunk_rows - t * MR);
                    for jt in jb..jb_end {
                        let cols = NR.min(n - jt * NR);
                        let mut acc = [[0.0f32; NR]; MR];
                        if !first {
                            for (r, acc_row) in acc.iter_mut().take(rows).enumerate() {
                                let orow = &chunk[(t * MR + r) * n + jt * NR..][..cols];
                                acc_row[..cols].copy_from_slice(orow);
                            }
                        }
                        micro(i0 / MR, jt, p0..p1, &mut acc);
                        for (r, acc_row) in acc.iter().take(rows).enumerate() {
                            let off = (t * MR + r) * n + jt * NR;
                            let orow = &mut chunk[off..][..cols];
                            match addend.as_deref() {
                                Some(add) if last => {
                                    let arow = &add[(i0 + r) * n + jt * NR..][..cols];
                                    for ((o, &e), &v) in orow.iter_mut().zip(arow).zip(acc_row) {
                                        *o = e + v;
                                    }
                                }
                                _ => store_row(orow, acc_row, last && accumulate),
                            }
                        }
                    }
                    if last && !plain {
                        // Epilogue over the whole row-tile × j-block window
                        // (≤ MR × NC_TILES·NR values, still L1-hot): the
                        // long per-row segments amortize vector startup that
                        // 32-wide per-tile application could not, while the
                        // values never make a round trip to DRAM.
                        let wj0 = jb * NR;
                        let wcols = (jb_end * NR).min(n) - wj0;
                        for r in 0..rows {
                            let off = (t * MR + r) * n + wj0;
                            let row = &mut chunk[off..][..wcols];
                            let srow = stash_chunk.as_deref_mut().map(|s| &mut s[off..][..wcols]);
                            apply_ep_window(row, (i0 + r) * n + wj0, wj0, ep, srow);
                        }
                    }
                }
            }
        }
    });
    if let Some(addend) = addend {
        ws.recycle(addend);
    }
}

/// The core for a row-major `A[m, k]` (`nn`, `nt`): `B` packed into
/// panels, the ragged last row tile staged zero-padded, one k-block, the
/// row-stream micro-kernel.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    out: &mut [f32],
    accumulate: bool,
    a: &[f32],
    pack: impl FnOnce(&mut [f32]),
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    ws: &mut Workspace,
    ep: &Epilogue<'_>,
    stash: Option<&mut [f32]>,
) {
    let blen = n.div_ceil(NR) * k * NR;
    let (mut bp, boff) = lease_aligned(ws, blen);
    pack(&mut bp[boff..boff + blen]);
    let pad = pad_last_tile(ws, a, m, k);
    let bp_ref = &bp[boff..boff + blen];
    let micro = |it: usize, jt: usize, _p: Range<usize>, acc: &mut _| {
        let panel = &bp_ref[jt * k * NR..][..k * NR];
        match pad.as_deref() {
            Some(pad) if it == m / MR => micro_rows(k, pad, 0, panel, acc),
            _ => micro_rows(k, a, it * MR, panel, acc),
        }
    };
    gemm_core(
        out,
        accumulate,
        micro,
        m,
        k,
        k.max(1),
        n,
        threads,
        ws,
        ep,
        stash,
    );
    if let Some(pad) = pad {
        ws.recycle(pad);
    }
    ws.recycle(bp);
}

/// Validates the operand lengths of an epilogue against the output shape
/// and its stash point against the chain length.
fn check_epilogue(ep: &Epilogue<'_>, m: usize, n: usize, stash: &Option<&mut [f32]>, what: &str) {
    for op in ep.ops {
        match *op {
            EpOp::BiasAdd(b) => assert_eq!(b.len(), n, "{what} bias len"),
            EpOp::ResidualAdd(o) | EpOp::MaskMul(o) | EpOp::GeluGradMul(o) => {
                assert_eq!(o.len(), m * n, "{what} epilogue operand len");
            }
            _ => {}
        }
    }
    if let Some(s) = ep.stash_after {
        assert!(s <= ep.ops.len(), "{what} stash point beyond chain");
        let stash = stash.as_ref().expect("stash requested without a buffer");
        assert_eq!(stash.len(), m * n, "{what} stash len");
    } else {
        assert!(stash.is_none(), "{what} stash buffer without a stash point");
    }
}

/// `out (+)= epilogue(a[m,k] @ b[k,n])` with `threads` workers; scratch
/// for the packed panels is leased from (and returned to) `ws`.
///
/// With `accumulate == false` every output element is overwritten; with
/// `true` the product is added to the existing contents (the epilogue
/// applies to the sum). `stash` receives the pre-suffix intermediate
/// when the epilogue requests one.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions or the
/// epilogue's operands/stash disagree with the output shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn_ep(
    out: &mut [f32],
    accumulate: bool,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    ws: &mut Workspace,
    ep: &Epilogue<'_>,
    stash: Option<&mut [f32]>,
) {
    assert_eq!(a.len(), m * k, "gemm_nn lhs len");
    assert_eq!(b.len(), k * n, "gemm_nn rhs len");
    assert_eq!(out.len(), m * n, "gemm_nn out len");
    check_epilogue(ep, m, n, &stash, "gemm_nn");
    gemm_rows(
        out,
        accumulate,
        a,
        |dst| pack_tiles::<NR>(dst, b, n, 0),
        m,
        k,
        n,
        threads,
        ws,
        ep,
        stash,
    );
}

/// `out (+)= a[m,k] @ b[k,n]` — [`gemm_nn_ep`] with the empty epilogue.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn(
    out: &mut [f32],
    accumulate: bool,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    ws: &mut Workspace,
) {
    gemm_nn_ep(
        out,
        accumulate,
        a,
        b,
        m,
        k,
        n,
        threads,
        ws,
        &Epilogue::NONE,
        None,
    );
}

/// `out (+)= epilogue(aᵀ @ b)` for `a[k,m]`, `b[k,n]` — the
/// weight-gradient shape. Both operands are read where they lie (see
/// `KMajor` for the two exceptions) by the shared core, k-blocked in
/// steps of [`KC`]; each element is still one increasing-`p` chain, so
/// results are bit-identical to `gemm_nn_ep` on the transposed input.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions or the
/// epilogue's operands/stash disagree with the output shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tn_ep(
    out: &mut [f32],
    accumulate: bool,
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    threads: usize,
    ws: &mut Workspace,
    ep: &Epilogue<'_>,
    stash: Option<&mut [f32]>,
) {
    assert_eq!(a.len(), k * m, "gemm_tn lhs len");
    assert_eq!(b.len(), k * n, "gemm_tn rhs len");
    assert_eq!(out.len(), m * n, "gemm_tn out len");
    check_epilogue(ep, m, n, &stash, "gemm_tn");
    let lhs = KMajor::<MR>::new(ws, a, m);
    let rhs = KMajor::<NR>::new(ws, b, n);
    let micro = |it: usize, jt: usize, p: Range<usize>, acc: &mut _| {
        micro_cols(lhs.window(it, p.clone()), rhs.window(jt, p), acc);
    };
    gemm_core(out, accumulate, micro, m, k, KC, n, threads, ws, ep, stash);
    ws.recycle(lhs.staged);
    ws.recycle(rhs.staged);
}

/// `out (+)= aᵀ @ b` — [`gemm_tn_ep`] with the empty epilogue.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tn(
    out: &mut [f32],
    accumulate: bool,
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    threads: usize,
    ws: &mut Workspace,
) {
    gemm_tn_ep(
        out,
        accumulate,
        a,
        b,
        k,
        m,
        n,
        threads,
        ws,
        &Epilogue::NONE,
        None,
    );
}

/// `out (+)= epilogue(a @ bᵀ)` for `a[m,k]`, `b[n,k]` — the
/// input-gradient and attention-score shape.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions or the
/// epilogue's operands/stash disagree with the output shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_ep(
    out: &mut [f32],
    accumulate: bool,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    ws: &mut Workspace,
    ep: &Epilogue<'_>,
    stash: Option<&mut [f32]>,
) {
    assert_eq!(a.len(), m * k, "gemm_nt lhs len");
    assert_eq!(b.len(), n * k, "gemm_nt rhs len");
    assert_eq!(out.len(), m * n, "gemm_nt out len");
    check_epilogue(ep, m, n, &stash, "gemm_nt");
    gemm_rows(
        out,
        accumulate,
        a,
        |dst| pack_b_nt(dst, b, n, k),
        m,
        k,
        n,
        threads,
        ws,
        ep,
        stash,
    );
}

/// `out (+)= a @ bᵀ` — [`gemm_nt_ep`] with the empty epilogue.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt(
    out: &mut [f32],
    accumulate: bool,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    ws: &mut Workspace,
) {
    gemm_nt_ep(
        out,
        accumulate,
        a,
        b,
        m,
        k,
        n,
        threads,
        ws,
        &Epilogue::NONE,
        None,
    );
}

/// Naive single-pass reference kernels, used by proptests and the kernel
/// benchmark as ground truth. Unlike the seed implementation these have
/// **no** `av == 0.0` skip branch (see the `matmul` module header).
pub mod reference {
    /// `a[m,k] @ b[k,n]` in plain `i-k-j` order.
    #[must_use]
    pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a[i * k..][..k];
            let orow = &mut out[i * n..][..n];
            for (p, &av) in arow.iter().enumerate() {
                let brow = &b[p * n..][..n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// `aᵀ @ b` for `a[k,m]`, `b[k,n]`.
    #[must_use]
    pub fn matmul_tn(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let arow = &a[p * m..][..m];
            let brow = &b[p * n..][..n];
            for (i, &av) in arow.iter().enumerate() {
                let orow = &mut out[i * n..][..n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// `a @ bᵀ` for `a[m,k]`, `b[n,k]`.
    #[must_use]
    pub fn matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a[i * k..][..k];
            for j in 0..n {
                let brow = &b[j * k..][..k];
                out[i * n + j] = arow.iter().zip(brow).map(|(&x, &y)| x * y).sum();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        // Deterministic non-trivial values; sign flips avoid all-positive
        // cancellation blind spots.
        (0..len)
            .map(|i| {
                let v = ((i * 7 + 3) % 23) as f32 - 11.0;
                v * scale
            })
            .collect()
    }

    fn assert_close(got: &[f32], want: &[f32], tol: f32) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= tol * (1.0 + w.abs()),
                "element {i}: got {g}, want {w}"
            );
        }
    }

    #[test]
    fn nn_matches_reference_on_ragged_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 16, 32), (5, 17, 33), (13, 9, 70)] {
            let a = seq(m * k, 0.25);
            let b = seq(k * n, 0.5);
            let want = reference::matmul(&a, &b, m, k, n);
            let mut ws = Workspace::new();
            let mut out = vec![0.0; m * n];
            gemm_nn(&mut out, false, &a, &b, m, k, n, 1, &mut ws);
            assert_close(&out, &want, 1e-5);
        }
    }

    #[test]
    fn wide_shapes_cross_jblock_boundaries() {
        // n > NC_TILES·NR exercises the j-blocked sweep, including a
        // ragged final block.
        for &(m, k, n) in &[(9, 7, NC_TILES * NR + 5), (4, 3, 2 * NC_TILES * NR)] {
            let a = seq(m * k, 0.25);
            let b = seq(k * n, 0.25);
            let want = reference::matmul(&a, &b, m, k, n);
            let mut ws = Workspace::new();
            let mut out = vec![0.0; m * n];
            gemm_nn(&mut out, false, &a, &b, m, k, n, 2, &mut ws);
            assert_close(&out, &want, 1e-5);
        }
    }

    #[test]
    fn tn_and_nt_match_reference() {
        let (m, k, n) = (11, 19, 37);
        let a_tn = seq(k * m, 0.25);
        let b = seq(k * n, 0.5);
        let mut ws = Workspace::new();
        let mut out = vec![0.0; m * n];
        gemm_tn(&mut out, false, &a_tn, &b, k, m, n, 2, &mut ws);
        assert_close(&out, &reference::matmul_tn(&a_tn, &b, k, m, n), 1e-5);

        let a = seq(m * k, 0.25);
        let b_nt = seq(n * k, 0.5);
        let mut out = vec![0.0; m * n];
        gemm_nt(&mut out, false, &a, &b_nt, m, k, n, 2, &mut ws);
        assert_close(&out, &reference::matmul_nt(&a, &b_nt, m, k, n), 1e-5);
    }

    #[test]
    fn results_bit_identical_across_pool_sizes() {
        let (m, k, n) = (37, 29, 53);
        let a = seq(m * k, 0.125);
        let b = seq(k * n, 0.375);
        let mut ws = Workspace::new();
        let mut serial = vec![0.0; m * n];
        gemm_nn(&mut serial, false, &a, &b, m, k, n, 1, &mut ws);
        for threads in [2, 3, 8] {
            let mut out = vec![0.0; m * n];
            gemm_nn(&mut out, false, &a, &b, m, k, n, threads, &mut ws);
            assert_eq!(
                serial, out,
                "threads={threads} must be bit-identical to serial"
            );
        }
    }

    #[test]
    fn accumulate_adds_to_existing_contents() {
        let (m, k, n) = (6, 10, 34);
        let a = seq(m * k, 0.5);
        let b = seq(k * n, 0.25);
        let mut ws = Workspace::new();
        let mut out = seq(m * n, 1.0);
        let base = out.clone();
        gemm_nn(&mut out, true, &a, &b, m, k, n, 1, &mut ws);
        let mut fresh = vec![0.0; m * n];
        gemm_nn(&mut fresh, false, &a, &b, m, k, n, 1, &mut ws);
        for i in 0..m * n {
            assert!((out[i] - (base[i] + fresh[i])).abs() < 1e-4);
        }
    }

    #[test]
    fn overwrite_clobbers_stale_contents() {
        let (m, k, n) = (5, 4, 9);
        let a = seq(m * k, 0.5);
        let b = seq(k * n, 0.5);
        let mut ws = Workspace::new();
        let mut out = vec![42.0; m * n];
        gemm_nn(&mut out, false, &a, &b, m, k, n, 1, &mut ws);
        assert_close(&out, &reference::matmul(&a, &b, m, k, n), 1e-5);
    }

    #[test]
    fn reused_workspace_stays_correct() {
        // Recycled (dirty) scratch must not leak into later results: the
        // zero-padded pad tile and panel edges are re-zeroed by `lease`.
        let mut ws = Workspace::new();
        for trial in 0..3 {
            let (m, k, n) = (7 + trial, 13, 35 + trial);
            let a = seq(m * k, 0.5);
            let b = seq(k * n, 0.25);
            let mut out = vec![0.0; m * n];
            gemm_nn(&mut out, false, &a, &b, m, k, n, 1, &mut ws);
            assert_close(&out, &reference::matmul(&a, &b, m, k, n), 1e-5);
        }
    }

    #[test]
    fn epilogue_matches_separate_passes_bitwise() {
        let (m, k, n) = (13, 9, 41);
        let a = seq(m * k, 0.25);
        let b = seq(k * n, 0.125);
        let bias = seq(n, 0.5);
        let res = seq(m * n, 0.0625);
        let mut ws = Workspace::new();

        // Unfused: plain gemm, then the same scalar ops as output passes.
        let mut want = vec![0.0; m * n];
        gemm_nn(&mut want, false, &a, &b, m, k, n, 1, &mut ws);
        for i in 0..m {
            for (j, &bj) in bias.iter().enumerate() {
                let idx = i * n + j;
                let v = want[idx] + bj;
                let v = crate::ops::gelu(v);
                want[idx] = v + res[idx];
            }
        }

        let ops = [EpOp::BiasAdd(&bias), EpOp::Gelu, EpOp::ResidualAdd(&res)];
        let ep = Epilogue {
            ops: &ops,
            stash_after: None,
        };
        for threads in [1, 2, 8] {
            let mut out = vec![0.0; m * n];
            gemm_nn_ep(
                &mut out, false, &a, &b, m, k, n, threads, &mut ws, &ep, None,
            );
            assert_eq!(out, want, "threads={threads}");
        }
    }

    #[test]
    fn stash_captures_pre_activation() {
        let (m, k, n) = (10, 6, 35);
        let a = seq(m * k, 0.25);
        let b = seq(k * n, 0.125);
        let bias = seq(n, 0.5);
        let mut ws = Workspace::new();

        let mut pre = vec![0.0; m * n];
        gemm_nn(&mut pre, false, &a, &b, m, k, n, 1, &mut ws);
        for i in 0..m {
            for j in 0..n {
                pre[i * n + j] += bias[j];
            }
        }
        let post: Vec<f32> = pre.iter().map(|&v| crate::ops::gelu(v)).collect();

        let ops = [EpOp::BiasAdd(&bias), EpOp::Gelu];
        let ep = Epilogue {
            ops: &ops,
            stash_after: Some(1),
        };
        for threads in [1, 3] {
            let mut out = vec![0.0; m * n];
            let mut stash = vec![0.0; m * n];
            gemm_nn_ep(
                &mut out,
                false,
                &a,
                &b,
                m,
                k,
                n,
                threads,
                &mut ws,
                &ep,
                Some(&mut stash),
            );
            assert_eq!(stash, pre, "threads={threads} stash");
            assert_eq!(out, post, "threads={threads} out");
        }
    }

    #[test]
    fn tn_staging_is_bit_identical_to_nn_on_transposed_input() {
        // gemm_tn(a) must equal gemm_nn(aᵀ) exactly, whichever way tn gets
        // at its operands — in place, a staged ragged edge, or fully
        // staged past IN_PLACE_LD — and across every k-block seam: each
        // element is the same increasing-p chain.
        let wide = IN_PLACE_LD + 4;
        let shapes = [(23, 45), (4, 32), (64, 16), (5, wide + 1), (wide, 33)];
        let mut ws = Workspace::new();
        for (m, n) in shapes {
            for k in [1, 17, KC - 1, KC, KC + 1, 3 * KC + 5] {
                let a_t = seq(k * m, 0.25); // [k, m]
                let b = seq(k * n, 0.5);
                let mut a = vec![0.0f32; m * k];
                for p in 0..k {
                    for i in 0..m {
                        a[i * k + p] = a_t[p * m + i];
                    }
                }
                for accumulate in [false, true] {
                    let mut out_tn = seq(m * n, 1.0);
                    gemm_tn(&mut out_tn, accumulate, &a_t, &b, k, m, n, 2, &mut ws);
                    let mut out_nn = seq(m * n, 1.0);
                    gemm_nn(&mut out_nn, accumulate, &a, &b, m, k, n, 2, &mut ws);
                    assert_eq!(out_tn, out_nn, "{m}x{k}x{n} accumulate={accumulate}");
                }
            }
        }
    }

    #[test]
    fn pack_b_nt_writes_the_bytes_the_scatter_wrote() {
        // The packing this replaced: one f32 per store at stride NR.
        fn scatter(bp: &mut [f32], b: &[f32], k: usize) {
            for (j, brow) in b.chunks_exact(k).enumerate() {
                let panel = &mut bp[(j / NR) * k * NR..][..k * NR];
                for (p, &v) in brow.iter().enumerate() {
                    panel[p * NR + j % NR] = v;
                }
            }
        }
        for (n, k) in [(1, 1), (31, 7), (32, 16), (33, 17), (70, 37), (128, 64)] {
            let b = seq(n * k, 0.5);
            let blen = n.div_ceil(NR) * k * NR;
            let (mut want, mut got) = (vec![0.0f32; blen], vec![0.0f32; blen]);
            scatter(&mut want, &b, k);
            pack_b_nt(&mut got, &b, n, k);
            assert_eq!(got, want, "n={n} k={k}");
        }
    }
}
