//! Cache-blocked, register-tiled GEMM kernels with fusable epilogues.
//!
//! All three matmul variants (`A@B`, `Aᵀ@B`, `A@Bᵀ`) funnel into one
//! blocked core, which blocks `j` in slabs of [`NC_TILES`] panels and `k`
//! in steps of [`KC`], and has each worker **stage** what the inner loop
//! reads into its own slice of one leased scratch buffer:
//!
//! - `B` is packed per (slab, k-block) into column panels of [`NR`]
//!   columns, laid out `[j_tile][p][NR]` and zero-padded on the ragged
//!   edge, so the inner loop reads one contiguous `NR`-wide row per `k`
//!   step. A slab's block is `KC × NC_TILES·NR` floats (128&nbsp;KB, L2),
//!   one panel's `KC × NR` (16&nbsp;KB, L1). `nn` and `tn` copy rows of a
//!   k-major `B[k,n]`; `nt` gathers them from `B[n,k]`. Panels are
//!   64-byte aligned — each panel row is a whole number of cache lines,
//!   so full-width vector loads never split a line (measured ≈10% on
//!   512³).
//! - A row-major `A` (`nn`, `nt`) is **streamed** where it lies: the
//!   micro-kernel reads its [`MR`] multipliers from `MR` parallel row
//!   streams (`A[m,k]`). A ragged last row-tile (when `m % MR != 0`)
//!   repeats its last row in the missing streams and stores only its own
//!   rows.
//! - A k-major `A` (`tn`, `A[k,m]`: the weight-gradient shape) is packed
//!   per row tile and k-block as `[p][MR]` (4&nbsp;KB, L1) before the
//!   tile's panels run. Reading both k-major operands in place instead
//!   — what this replaced — walks them at their power-of-two row
//!   strides (`4·m` and `4·n` bytes), so a k-block's rows share a few L1
//!   sets and evict each other: with zmm FMAs that `tn` read 64–73
//!   GFLOP/s against `nn`'s 93–129, and no choice of `KC` fixed every
//!   ledger shape. Staged a k-block ahead of use, each operand is copied
//!   once per slab and read contiguously from then on.
//! - Between k-blocks a tile's partial sums travel through the output.
//!   Each thread sweeps all of its row tiles against one slab before
//!   moving to the next, so the slab is staged once per row-chunk sweep.
//!
//! The micro-kernels keep an `MR × NR = 8 × 32` accumulator block in
//! registers: on AVX-512, 16 zmm accumulators of 32, two B loads and
//! eight broadcasts per 16 FMAs; on AVX2 the same code is 32 ymm
//! accumulators, which spill (see DESIGN.md "Kernel layer"). The inner
//! loops are explicit unrolled passes with constant trip counts, which
//! LLVM's SLP vectorizer turns into packed FMAs (see the private `fmadd`
//! helper's cfg gate). `.cargo/config.toml` builds for the host CPU and
//! lifts the SLP vectorizer's register cap to 512 bits
//! (`-slp-max-reg-size=512`): LLVM's x86 tuning otherwise caps it at 256
//! bits even on AVX-512 hosts, and these kernels ran on ymm registers at
//! half the machine's vector width.
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

/// Rows per register tile of `A` / the output. Eight rows of two
/// 16-lane vectors are 16 of AVX-512's 32 zmm registers, leaving room for
/// the two `B` vectors and a broadcast.
pub const MR: usize = 8;
/// Columns per staged panel of `B` / register tile of the output: two
/// zmm vectors, and a divisor of every ledger shard width (64, 128, 256).
pub const NR: usize = 32;
/// Staged-`B` panels per cache block of the `j` loop: each thread sweeps
/// its whole row range against one `KC × NC_TILES·NR` slab block before
/// moving on, keeping the block L2-resident (256 columns = 1&nbsp;KB per
/// `k` step).
pub const NC_TILES: usize = 8;
/// `k` steps per block. A tile's operand windows are then `KC` rows of
/// `NR` floats (16&nbsp;KB) and `KC` rows of `MR` (4&nbsp;KB) — well within
/// the 48&nbsp;KB L1 — and a slab block (`KC × NC_TILES·NR`, 128&nbsp;KB)
/// stays L2-resident however long `k` (tokens per micro-batch, for `tn`)
/// is. Per block a tile pays one accumulator reload and store. At the
/// ledger shapes 256 and 512 read the same, with a larger stage (a 256
/// block raised `train_uds_dense`'s peak RSS by ≈ 2&nbsp;MB).
pub const KC: usize = 128;
/// `f32`s per 64-byte cache line; staged `B` panels are aligned to this.
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

/// Continues one `MR × W` output tile over every row of `b`, reading `A`
/// from `MR` parallel row streams (each as long as `b` has rows) and `b`
/// as whole rows of `B[k, ldb]` with the step's `W`-wide row at
/// `row[j0..j0 + W]` — the staged panels of the GEMM core (`ldb = NR`,
/// offset 0) or an attention head's window where it lies.
/// `W` is [`NR`], or narrower for heads under `NR` lanes.
///
/// Three codegen constraints shape this function, all found the hard way:
///
/// - The constant-trip inner loop ([`fma_step`]) must stay index-based
///   over fixed-size arrays: this exact shape is what LLVM's SLP
///   vectorizer turns into packed FMAs — iterator/`split_at`
///   formulations of the same math have been observed to compile to
///   *scalar* fmadds (≈20× slower).
/// - The loop body must be **panic-free**. A single indexed access such
///   as `rows[r][p]` plants a bounds-check side exit in the hot loop
///   (with `acc` reachable on the unwind path, LLVM then spilled every
///   accumulator after every FMA, ≈3× slower). The `zip`s below iterate
///   all eight row streams in lockstep with `b` without any panicking
///   operation (the `assert!` makes the row slice's check
///   loop-invariant); the destructuring pins the stream count to `MR`.
/// - The `k` loop runs on a local copy of the accumulators, written back
///   once. Inlined into the core, `acc` is a stack array whose stores
///   LLVM did not sink out of the loop: every accumulator went to memory
///   after every step (≈3× slower).
#[inline(always)]
pub(crate) fn micro_rows<const W: usize>(
    a: [&[f32]; MR],
    (b, ldb, j0): (&[f32], usize, usize),
    acc: &mut [[f32; W]; MR],
) {
    assert!(j0 + W <= ldb, "tile outside its operand");
    let [r0, r1, r2, r3, r4, r5, r6, r7] = a;
    let streams = r0
        .iter()
        .zip(r1)
        .zip(r2)
        .zip(r3)
        .zip(r4)
        .zip(r5)
        .zip(r6)
        .zip(r7);
    let mut t = *acc;
    for (brow, (((((((&a0, &a1), &a2), &a3), &a4), &a5), &a6), &a7)) in
        b.chunks_exact(ldb).zip(streams)
    {
        fma_step(&mut t, &[a0, a1, a2, a3, a4, a5, a6, a7], &brow[j0..j0 + W]);
    }
    *acc = t;
}

/// Continues one `R × W` output tile over a k-block whose operands are
/// both k-major: `a` holds whole rows of `A[k, lda]` (the `tn` layout)
/// with the step's `R` multipliers at `row[i0..i0 + R]`, `b` whole rows
/// of `B[k, ldb]` with the step's `W`-wide row at `row[j0..j0 + W]`. The
/// `tn` GEMM calls it on staged panels (`lda = MR`, `ldb = NR`, offset
/// 0); attention calls it on heads where they lie, narrower than
/// `MR × NR` where a head is.
///
/// Same codegen constraints as [`micro_rows`]: flat index-form inner
/// loops, a panic-free single-exit `k` loop — the `assert!` makes the
/// slice checks loop-invariant, so LLVM deletes them (an `else { break }`
/// on a short row instead spilled every accumulator after every FMA) —
/// and a local accumulator copy.
#[inline(always)]
pub(crate) fn micro_cols<const R: usize, const W: usize>(
    (a, lda, i0): (&[f32], usize, usize),
    (b, ldb, j0): (&[f32], usize, usize),
    acc: &mut [[f32; W]; R],
) {
    assert!(i0 + R <= lda && j0 + W <= ldb, "tile outside its operand");
    let mut t = *acc;
    for (arow, brow) in a.chunks_exact(lda).zip(b.chunks_exact(ldb)) {
        fma_step(&mut t, &arow[i0..i0 + R], &brow[j0..j0 + W]);
    }
    *acc = t;
}

/// One `k` step of an `R × W` tile: `acc[r][c] = fma(av[r], bp[c],
/// acc[r][c])`. The rows run as two loops of `R / 2`: LLVM fully unrolls
/// a loop only up to a size budget, and one loop over all `MR × NR = 256`
/// products exceeds it — it then stays a loop over rows held in memory,
/// which the vectorizers turn into gathers and scatters (≈40× slower).
/// Two half-tile loops each fit; unrolled, the SLP vectorizer packs
/// every row into `W / 16` zmm FMAs.
#[inline(always)]
fn fma_step<const R: usize, const W: usize>(acc: &mut [[f32; W]; R], av: &[f32], bp: &[f32]) {
    let (lo, hi) = acc.split_at_mut(R / 2);
    let (alo, ahi) = av.split_at(R / 2);
    for (row, &a) in lo.iter_mut().zip(alo) {
        fma_row(row, a, bp);
    }
    for (row, &a) in hi.iter_mut().zip(ahi) {
        fma_row(row, a, bp);
    }
}

#[inline(always)]
fn fma_row<const W: usize>(row: &mut [f32; W], a: f32, bp: &[f32]) {
    for c in 0..W {
        row[c] = fmadd(a, bp[c], row[c]);
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

/// Leases a scratch buffer with `len` usable elements starting at a
/// 64-byte-aligned offset; returns the buffer and that offset. Its
/// contents are stale (see [`Workspace::lease_scratch`]): every stager
/// writes each element it covers, zero padding included. Panel strides
/// are whole cache lines (`NR` is a multiple of [`LINE_F32S`]), so
/// aligning the base aligns every panel row.
fn lease_aligned(ws: &mut Workspace, len: usize) -> (Vec<f32>, usize) {
    let buf = ws.lease_scratch(len + LINE_F32S);
    let addr = buf.as_ptr() as usize;
    let off = (addr.wrapping_neg() % (LINE_F32S * 4)) / 4;
    (buf, off)
}

/// Stages rows `p` of column tiles `panels` of a k-major `b[k, n]` (the
/// `B` of `nn` and `tn`) as `[tile][p][NR]` panels, zero-padding a
/// ragged last tile.
fn pack_b_nn(dst: &mut [f32], b: &[f32], n: usize, panels: Range<usize>, p: Range<usize>) {
    let pk = p.len();
    for (pp, row) in b[p.start * n..p.end * n].chunks_exact(n).enumerate() {
        for (s, jt) in panels.clone().enumerate() {
            let (d, cols) = (&mut dst[(s * pk + pp) * NR..][..NR], &row[jt * NR..]);
            if let Some(full) = cols.first_chunk::<NR>() {
                d.copy_from_slice(full);
            } else {
                d[..cols.len()].copy_from_slice(cols);
                d[cols.len()..].fill(0.0);
            }
        }
    }
}

/// Stages rows `p` of column tiles `panels` of `b[n, k]` (logical `Bᵀ`,
/// the `nt` operand) as `[tile][p][NR]` panels, zero-padding a ragged
/// last tile: every `[p][NR]` panel row is gathered from the tile's `NR`
/// source rows and written contiguously — not scattered one `f32` per
/// store at stride `NR`.
fn pack_b_nt(
    dst: &mut [f32],
    b: &[f32],
    (n, k): (usize, usize),
    panels: Range<usize>,
    p: Range<usize>,
) {
    let pk = p.len();
    for (s, jt) in panels.enumerate() {
        let w = NR.min(n - jt * NR);
        let rows = &b[jt * NR * k..][..w * k];
        let panel = &mut dst[s * pk * NR..][..pk * NR];
        for (pidx, prow) in p.clone().zip(panel.chunks_exact_mut(NR)) {
            for (d, brow) in prow.iter_mut().zip(rows.chunks_exact(k)) {
                *d = brow[pidx];
            }
            prow[w..].fill(0.0);
        }
    }
}

/// Stages rows `p` of the `MR`-wide row tile at column `i0` of a k-major
/// `a[k, m]` (the `tn` `A`) as `[p][MR]`, zero-padding a ragged tile.
fn pack_a_tn(dst: &mut [f32], a: &[f32], m: usize, i0: usize, p: Range<usize>) {
    let rows = a[p.start * m..p.end * m]
        .chunks_exact(m)
        .zip(dst.as_chunks_mut::<MR>().0);
    if i0 + MR <= m {
        for (row, d) in rows {
            d.copy_from_slice(&row[i0..i0 + MR]);
        }
    } else {
        for (row, d) in rows {
            let (head, pad) = d.split_at_mut(m - i0);
            head.copy_from_slice(&row[i0..]);
            pad.fill(0.0);
        }
    }
}

/// How the core reads `A`.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    /// `A[m, k]`, row-major (`nn`, `nt`): read where it lies, one stream
    /// per tile row; a ragged last tile repeats its last row in the
    /// missing streams and stores only its own rows.
    Rows(&'a [f32]),
    /// `A[k, m]`, k-major (`tn`): each row tile's k-block staged as
    /// `[p][MR]` by [`pack_a_tn`] before the tile's panels run.
    Cols(&'a [f32]),
}

/// The blocked core: `out (+)= A @ B` (with the epilogue applied per
/// element), parallelized over i-tile chunks, blocked over `j` in slabs
/// of [`NC_TILES`] panels and over `k` in steps of [`KC`].
///
/// Each worker stages what it reads into its own slice of one leased
/// scratch buffer: per (slab, k-block), `stage_b(dst, panels, p)` packs
/// `B` as `[tile][p][NR]` panels (L2-sized); per row tile and k-block, a
/// k-major `A` packs as `[p][MR]` (L1-sized). Both are contiguous, so no
/// operand is read at its own (often power-of-two) row stride inside the
/// `k` loop, and nothing is staged further than a k-block ahead of its
/// use. Between k-blocks a tile's partial sums travel through `out` and
/// are re-loaded as the next block's accumulator, so every element stays
/// one increasing-`p` FMA chain; an accumulating multi-block call
/// therefore takes its addend from a copy of the original `out`, at the
/// last block. `stash` (when the epilogue requests one) has the same
/// `[m, n]` layout as `out` and is chunked identically so every thread
/// writes only its own rows.
#[allow(clippy::too_many_arguments)]
fn gemm_core(
    out: &mut [f32],
    accumulate: bool,
    a: Lhs<'_>,
    stage_b: impl Fn(&mut [f32], Range<usize>, Range<usize>) + Sync,
    (m, k, n): (usize, usize, usize),
    threads: usize,
    ws: &mut Workspace,
    ep: &Epilogue<'_>,
    stash: Option<&mut [f32]>,
) {
    let kc = KC.min(k).max(1);
    let addend = (accumulate && k > kc).then(|| ws.lease_from(out));
    let itiles = m.div_ceil(MR);
    let jtiles = n.div_ceil(NR);
    let last_rows = m - (itiles - 1) * MR;
    let tile_flops = 2 * MR * n * k;
    let min_tiles = (GRAIN_FLOPS / tile_flops.max(1)).max(1);
    let plan = pool::plan_chunks(itiles, MR, last_rows, threads, min_tiles);
    let b_len = NC_TILES.min(jtiles) * kc * NR;
    let a_len = if matches!(a, Lhs::Cols(_)) {
        kc * MR
    } else {
        0
    };
    let per = (b_len + a_len).next_multiple_of(LINE_F32S);
    let (mut stage, off) = lease_aligned(ws, per * plan.chunks());
    let plain = ep.is_empty();
    let scratch = &mut stage[off..off + per * plan.chunks()];
    pool::run_row_chunks(
        out,
        stash,
        scratch,
        n,
        plan,
        |row0, chunk, mut stash_chunk, stage| {
            let (bstage, astage) = stage.split_at_mut(b_len);
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
                    let (first, last, pk) = (p0 == 0, p1 == k, p1 - p0);
                    stage_b(bstage, jb..jb_end, p0..p1);
                    for t in 0..ctiles {
                        let i0 = row0 + t * MR;
                        let rows = MR.min(chunk_rows - t * MR);
                        if let Lhs::Cols(a) = a {
                            pack_a_tn(astage, a, m, i0, p0..p1);
                        }
                        for jt in jb..jb_end {
                            let cols = NR.min(n - jt * NR);
                            let mut acc = [[0.0f32; NR]; MR];
                            if !first {
                                for (r, acc_row) in acc.iter_mut().take(rows).enumerate() {
                                    let orow = &chunk[(t * MR + r) * n + jt * NR..][..cols];
                                    acc_row[..cols].copy_from_slice(orow);
                                }
                            }
                            let panel = (&bstage[(jt - jb) * pk * NR..][..pk * NR], NR, 0);
                            match a {
                                Lhs::Rows(a) => {
                                    let rows = std::array::from_fn(|r| {
                                        &a[(i0 + r).min(m - 1) * k..][p0..p1]
                                    });
                                    micro_rows(rows, panel, &mut acc);
                                }
                                Lhs::Cols(_) => {
                                    micro_cols((&astage[..pk * MR], MR, 0), panel, &mut acc)
                                }
                            }
                            for (r, acc_row) in acc.iter().take(rows).enumerate() {
                                let off = (t * MR + r) * n + jt * NR;
                                let orow = &mut chunk[off..][..cols];
                                match addend.as_deref() {
                                    Some(add) if last => {
                                        let arow = &add[(i0 + r) * n + jt * NR..][..cols];
                                        for ((o, &e), &v) in orow.iter_mut().zip(arow).zip(acc_row)
                                        {
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
                                let srow =
                                    stash_chunk.as_deref_mut().map(|s| &mut s[off..][..wcols]);
                                apply_ep_window(row, (i0 + r) * n + wj0, wj0, ep, srow);
                            }
                        }
                    }
                }
            }
        },
    );
    ws.recycle(stage);
    if let Some(addend) = addend {
        ws.recycle(addend);
    }
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
/// for the staged panels is leased from (and returned to) `ws`.
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
    let stage_b = |dst: &mut [f32], js, p| pack_b_nn(dst, b, n, js, p);
    gemm_core(
        out,
        accumulate,
        Lhs::Rows(a),
        stage_b,
        (m, k, n),
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
/// weight-gradient shape. The shared core stages both operands a k-block
/// at a time (`A` per row tile, `B` per slab), k-blocked in steps of
/// [`KC`]; each element is still one increasing-`p` chain, so results
/// are bit-identical to `gemm_nn_ep` on the transposed input.
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
    let stage_b = |dst: &mut [f32], js, p| pack_b_nn(dst, b, n, js, p);
    gemm_core(
        out,
        accumulate,
        Lhs::Cols(a),
        stage_b,
        (m, k, n),
        threads,
        ws,
        ep,
        stash,
    );
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
    let stage_b = |dst: &mut [f32], js, p| pack_b_nt(dst, b, (n, k), js, p);
    gemm_core(
        out,
        accumulate,
        Lhs::Rows(a),
        stage_b,
        (m, k, n),
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
        // zero-padded panel edges are re-zeroed by `lease`.
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
        // gemm_tn(a) must equal gemm_nn(aᵀ) exactly, whatever tiles its
        // staged operands are cut into — ragged row and column tiles,
        // more than one j-slab — and across every k-block seam: each
        // element is the same increasing-p chain.
        let wide = NC_TILES * NR + 4;
        let shapes = [(23, 45), (MR, NR), (64, 16), (MR - 1, wide + 1), (wide, 33)];
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
        // The packing this replaced: one f32 per store at stride NR. The
        // destination starts as NaN, so a padding lane the stager left
        // stale fails the comparison.
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
            let (mut want, mut got) = (vec![0.0f32; blen], vec![f32::NAN; blen]);
            scatter(&mut want, &b, k);
            pack_b_nt(&mut got, &b, (n, k), 0..n.div_ceil(NR), 0..k);
            assert_eq!(got, want, "n={n} k={k}");
        }
    }
}
