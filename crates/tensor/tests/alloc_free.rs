//! A warm call on the serving path allocates nothing: a one-chunk GEMM
//! (every serving-shape GEMM, and every call at one kernel thread) and
//! the attention op at the serving head shape. Counted by a
//! `#[global_allocator]` that forwards to the system allocator and tallies
//! allocations per thread; the file is its own test binary so nothing
//! else shares that allocator. It is the one place `unsafe` is allowed
//! (the workspace denies `unsafe_code`): a global allocator cannot be
//! written without it.
#![allow(unsafe_code)]

use actcomp_tensor::attention::{attention_forward, Heads};
use actcomp_tensor::{kernels, Workspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

fn tally() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's `layout` contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by the second of two identical calls.
fn warm_allocs(ws: &mut Workspace, mut call: impl FnMut(&mut Workspace)) -> usize {
    call(ws);
    let before = allocs();
    call(ws);
    allocs() - before
}

#[test]
fn warm_gemm_calls_at_8x8x8_allocate_nothing() {
    let (m, k, n) = (8, 8, 8);
    let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.25).collect();
    let b: Vec<f32> = (0..k * n).map(|i| 1.0 - i as f32 * 0.125).collect();
    let mut out = vec![0.0f32; m * n];
    let mut ws = Workspace::new();
    // Eight threads still plan one chunk: the call is far below the grain.
    for threads in [1, 8] {
        let nn = warm_allocs(&mut ws, |ws| {
            kernels::gemm_nn(&mut out, false, &a, &b, m, k, n, threads, ws);
        });
        let tn = warm_allocs(&mut ws, |ws| {
            kernels::gemm_tn(&mut out, false, &a, &b, k, m, n, threads, ws);
        });
        let nt = warm_allocs(&mut ws, |ws| {
            kernels::gemm_nt(&mut out, true, &a, &b, m, k, n, threads, ws);
        });
        assert_eq!([nn, tn, nt], [0, 0, 0], "threads {threads}: nn, tn, nt");
    }
}

#[test]
fn warm_serve_shape_attention_allocates_nothing() {
    let at = Heads {
        batch: 8,
        heads: 4,
        seq: 8,
        d: 8,
    };
    let len = at.tokens() * at.width();
    let qkv: Vec<Vec<f32>> = (0..3)
        .map(|s| (0..len).map(|i| ((i * 7 + s) % 13) as f32 * 0.1).collect())
        .collect();
    let mut ctx = vec![0.0f32; len];
    let mut probs = vec![0.0f32; at.prob_rows() * at.seq];
    let mut ws = Workspace::new();
    let n = warm_allocs(&mut ws, |ws| {
        attention_forward([&qkv[0], &qkv[1], &qkv[2]], at, &mut ctx, &mut probs, ws);
    });
    assert_eq!(n, 0, "attention_forward at {at:?}");
}
