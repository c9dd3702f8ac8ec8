//! Kernel thread-pool configuration and the chunked fork-join helper the
//! blocked kernels parallelize with.
//!
//! The "pool" is deliberately work-stealing-free: a parallel kernel call
//! splits its output rows into one contiguous chunk per worker, spawns
//! scoped OS threads (`std::thread::scope`) for every chunk but the first,
//! and computes the first chunk on the calling thread. Scoped threads make
//! the helper safe to call from anywhere — including from inside
//! `actcomp-runtime`'s per-rank threads — because borrowed tensor data
//! never has to be `'static` and no global queue is shared between ranks.
//!
//! The pool size comes from, in priority order:
//!
//! 1. [`set_threads`] (the CLI's `--kernel-threads` override),
//! 2. the `ACTCOMP_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Invalid `ACTCOMP_THREADS` values (zero, empty, non-numeric) fall back
//! to the default with a one-time warning; `actcomp check` rejects them
//! statically as `AC0402` before a run gets this far.
//!
//! Chunk boundaries are always aligned to kernel row-tile boundaries (the
//! caller passes tile-aligned chunk sizes), and every output element is
//! accumulated by exactly one thread in a thread-count-independent order,
//! so results are bit-identical for every pool size — the determinism
//! contract `actcomp-runtime`'s serial-vs-threads tests rely on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Explicit override (0 = unset); takes precedence over the environment.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Lazily-resolved environment/default pool size.
static ENV_DEFAULT: OnceLock<usize> = OnceLock::new();

/// Parses a thread-count spec (the `ACTCOMP_THREADS` format): a positive
/// decimal integer.
///
/// # Errors
///
/// Returns a description of the violation for zero, empty, or
/// non-numeric input — the same predicate `actcomp-check` uses for its
/// `AC0402` diagnostic.
pub fn parse_thread_spec(s: &str) -> Result<usize, String> {
    parse_count_spec(s, "thread count")
}

/// Parses a positive-decimal-integer spec, describing violations in
/// terms of `what` (e.g. `"thread count"`, `"chunk row count"`). The
/// shared predicate behind [`parse_thread_spec`] and the CLI's
/// `--chunk-rows` / `--pipeline-depth` flags.
///
/// # Errors
///
/// Returns a description of the violation for zero, empty, or
/// non-numeric input.
pub fn parse_count_spec(s: &str, what: &str) -> Result<usize, String> {
    let t = s.trim();
    if t.is_empty() {
        return Err(format!("{what} is empty"));
    }
    match t.parse::<usize>() {
        Ok(0) => Err(format!("{what} must be at least 1, got 0")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{what} `{t}` is not a positive integer")),
    }
}

/// The `ACTCOMP_THREADS` environment variable, when set. The one place
/// the variable is read: the pool sizes itself from it, and
/// `actcomp check` validates the same value.
pub fn env_thread_spec() -> Option<String> {
    std::env::var("ACTCOMP_THREADS").ok()
}

fn env_default() -> usize {
    let fallback = || std::thread::available_parallelism().map_or(1, |n| n.get());
    match env_thread_spec() {
        Some(v) => match parse_thread_spec(&v) {
            Ok(n) => n,
            Err(e) => {
                eprintln!(
                    "warning: ignoring invalid ACTCOMP_THREADS ({e}); \
                     using available parallelism"
                );
                fallback()
            }
        },
        None => fallback(),
    }
}

/// The kernel pool size currently in effect.
pub fn configured_threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => *ENV_DEFAULT.get_or_init(env_default),
        n => n,
    }
}

/// Overrides the kernel pool size for the rest of the process (the CLI's
/// `--kernel-threads` flag lands here after validation).
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn set_threads(threads: usize) {
    assert!(threads > 0, "kernel pool size must be at least 1");
    OVERRIDE.store(threads, Ordering::Relaxed);
}

/// Runs `f(first_index, chunk)` over contiguous chunks of `out`, one
/// scoped thread per chunk beyond the first (which runs on the calling
/// thread, so the caller is worker 0 instead of idling on the join).
///
/// `chunk_lens[i]` is the element length of chunk `i`; the caller
/// guarantees the lengths sum to `out.len()`. This is the generic
/// fork-join primitive behind the row-chunked kernels; `actcomp-compress`
/// uses it directly for byte- and index-typed codec buffers.
///
/// # Panics
///
/// Panics if the chunk lengths do not tile `out` exactly.
pub fn run_on_chunks<T, F>(out: &mut [T], chunk_lens: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert_eq!(
        chunk_lens.iter().sum::<usize>(),
        out.len(),
        "chunk plan does not tile the output"
    );
    if chunk_lens.len() <= 1 {
        f(0, out);
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut start = 0;
        let mut first: Option<(usize, &mut [T])> = None;
        for (ci, &len) in chunk_lens.iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut(len);
            rest = tail;
            if ci == 0 {
                first = Some((start, chunk));
            } else {
                let fr = &f;
                let at = start;
                scope.spawn(move || fr(at, chunk));
            }
            start += len;
        }
        let (at, chunk) = first.expect("at least one chunk");
        f(at, chunk);
    });
}

/// Runs `f(first_row, chunk, pair_chunk)` over the contiguous row chunks
/// of `out` (rows `row_width` elements wide) that `plan` describes, one
/// scoped thread per chunk beyond the first (which runs on the caller).
/// An optional second buffer of the same layout is split along the
/// identical boundaries, so each worker owns matching slices of both —
/// the GEMM epilogue stash: the output tile and its stashed
/// pre-activation tile are written by the same thread in the same pass.
/// A one-chunk plan hands `f` the whole buffers, allocating nothing.
///
/// # Panics
///
/// Panics if the plan does not tile `out` exactly, or if `pair` is
/// present with a length different from `out`.
pub(crate) fn run_row_chunks<F>(
    out: &mut [f32],
    pair: Option<&mut [f32]>,
    row_width: usize,
    plan: ChunkPlan,
    f: F,
) where
    F: Fn(usize, &mut [f32], Option<&mut [f32]>) + Sync,
{
    if let Some(p) = &pair {
        assert_eq!(p.len(), out.len(), "pair buffer must match the output");
    }
    if row_width == 0 {
        assert!(out.is_empty(), "chunk plan does not tile the output");
        return;
    }
    assert_eq!(
        plan.rows().sum::<usize>() * row_width,
        out.len(),
        "chunk plan does not tile the output"
    );
    if plan.chunks <= 1 {
        f(0, out, pair);
        return;
    }
    std::thread::scope(|scope| {
        let (mut rest, mut prest) = (out, pair);
        let mut first = None;
        let mut row0 = 0;
        for rows in plan.rows() {
            let len = rows * row_width;
            let (chunk, tail) = rest.split_at_mut(len);
            rest = tail;
            let pchunk = prest.take().map(|p| {
                let (pchunk, ptail) = p.split_at_mut(len);
                prest = Some(ptail);
                pchunk
            });
            if first.is_none() {
                first = Some((chunk, pchunk));
            } else {
                let fr = &f;
                scope.spawn(move || fr(row0, chunk, pchunk));
            }
            row0 += rows;
        }
        let (chunk, pchunk) = first.expect("at least one chunk");
        f(0, chunk, pchunk);
    });
}

/// Splits `units` work units into at most `threads` contiguous chunks of
/// at least `min_units` each, returning per-chunk unit counts. The split
/// depends only on the arguments — never on runtime load — so chunk
/// boundaries (and therefore any per-chunk computation order) are
/// reproducible for a given `(units, threads, min_units)`.
pub fn plan_unit_chunks(units: usize, threads: usize, min_units: usize) -> Vec<usize> {
    plan_chunks(units, 1, 1, threads, min_units)
        .rows()
        .collect()
}

/// A split of row tiles into contiguous chunks of whole tiles (see
/// [`plan_chunks`]); a value, so planning a call allocates nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkPlan {
    tiles: usize,
    tile_rows: usize,
    last_tile_rows: usize,
    /// Number of chunks (none for no tiles).
    chunks: usize,
}

impl ChunkPlan {
    /// Per-chunk *row* counts: `tile_rows` rows per full tile, the final
    /// tile possibly ragged at `last_tile_rows`; the first
    /// `tiles % chunks` chunks take one tile more than the rest.
    pub(crate) fn rows(&self) -> impl Iterator<Item = usize> {
        let ChunkPlan {
            tiles,
            tile_rows,
            last_tile_rows,
            chunks,
        } = *self;
        let (base, extra) = (tiles / chunks.max(1), tiles % chunks.max(1));
        let mut used = 0;
        (0..chunks).map(move |c| {
            let t = base + usize::from(c < extra);
            used += t;
            if used == tiles {
                (t - 1) * tile_rows + last_tile_rows
            } else {
                t * tile_rows
            }
        })
    }
}

/// Splits `tiles` row-tiles into at most `threads` contiguous chunks of
/// whole tiles, each chunk carrying at least `min_tiles` of work
/// (`tile_rows` rows per full tile, the final tile possibly ragged at
/// `last_tile_rows`).
///
/// The split depends only on `(tiles, threads, min_tiles)` — never on
/// runtime load — so the tile-to-chunk assignment is reproducible.
pub(crate) fn plan_chunks(
    tiles: usize,
    tile_rows: usize,
    last_tile_rows: usize,
    threads: usize,
    min_tiles: usize,
) -> ChunkPlan {
    let chunks = if tiles == 0 {
        0
    } else {
        threads
            .min(tiles.div_ceil(min_tiles.max(1)))
            .clamp(1, tiles)
    };
    ChunkPlan {
        tiles,
        tile_rows,
        last_tile_rows,
        chunks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_positive_integers() {
        assert_eq!(parse_thread_spec("1"), Ok(1));
        assert_eq!(parse_thread_spec(" 8 "), Ok(8));
        assert!(parse_thread_spec("0").is_err());
        assert!(parse_thread_spec("").is_err());
        assert!(parse_thread_spec("two").is_err());
        assert!(parse_thread_spec("-3").is_err());
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn chunk_plans_tile_exactly() {
        // 10 tiles of 4 rows, last tile ragged at 3 rows: 39 rows total.
        for threads in 1..=12 {
            let plan = plan_chunks(10, 4, 3, threads, 1);
            assert!(plan.chunks <= threads.min(10));
            assert_eq!(plan.rows().count(), plan.chunks);
            assert_eq!(plan.rows().sum::<usize>(), 39, "threads={threads}");
        }
        // min_tiles throttles the fan-out for small work.
        assert_eq!(plan_chunks(4, 4, 4, 8, 4).chunks, 1);
        assert_eq!(plan_chunks(0, 4, 4, 8, 1).chunks, 0);
        assert_eq!(plan_unit_chunks(10, 3, 1), vec![4, 3, 3]);
    }

    #[test]
    fn run_row_chunks_covers_every_row() {
        for threads in [1, 4] {
            let mut out = vec![0.0f32; 39 * 5];
            let mut pair = vec![0.0f32; 39 * 5];
            let plan = plan_chunks(13, 3, 3, threads, 1);
            run_row_chunks(&mut out, Some(&mut pair), 5, plan, |row0, chunk, pchunk| {
                let pchunk = pchunk.expect("pair chunk");
                for (r, (row, prow)) in chunk.chunks_mut(5).zip(pchunk.chunks_mut(5)).enumerate() {
                    row.fill((row0 + r) as f32);
                    prow.fill(-((row0 + r) as f32));
                }
            });
            for (r, (row, prow)) in out.chunks(5).zip(pair.chunks(5)).enumerate() {
                assert!(row.iter().all(|&v| v == r as f32), "row {r}");
                assert!(prow.iter().all(|&v| v == -(r as f32)), "pair row {r}");
            }
        }
    }
}
