//! The attention op against the per-head path it replaced, bit for bit.
//!
//! The oracle is that path, kept here: per (sequence, head), copy the
//! head's Q/K/V (and context gradient) blocks out, run the four per-head
//! GEMM graphs — scaled scores (`nt`, the scale forced into its
//! epilogue), context (`nn`), context backward (`nt` + `tn`), scores
//! backward (scale, `nn` + `tn`) — with the softmax and its backward in
//! between, and copy the results back. `attention_forward` /
//! `attention_backward` must produce the same `ctx`, `probs`, `dq`, `dk`
//! and `dv` to the last bit, across head widths and sequence lengths on
//! both sides of the register tiles and for every kernel pool size (the
//! op itself dispatches nothing; the oracle's GEMMs do).

use actcomp_tensor::attention::{attention_backward, attention_forward, Heads};
use actcomp_tensor::graph::Graph;
use actcomp_tensor::kernels::MR;
use actcomp_tensor::plan::{CompiledPlan, FusePolicy, OutBind};
use actcomp_tensor::{init, ops, pool, Workspace};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const POOLS: [usize; 3] = [1, 2, 8];

/// The four per-head plans of the copy-then-GEMM path.
struct HeadPlans {
    scores: CompiledPlan,
    context: CompiledPlan,
    context_backward: CompiledPlan,
    scores_backward: CompiledPlan,
}

impl HeadPlans {
    fn new(seq: usize, d: usize) -> Self {
        let scale = 1.0 / (d as f32).sqrt();
        let mut g = Graph::new();
        let q = g.input(seq, d);
        let k = g.input(seq, d);
        let s = g.matmul_nt(q, k);
        let ss = g.scale(s, scale);
        g.mark_output(ss);
        let scores = g.compile(FusePolicy::Forced(vec![s])).expect("scores");

        let mut g = Graph::new();
        let p = g.input(seq, seq);
        let v = g.input(seq, d);
        let c = g.matmul(p, v);
        g.mark_output(c);
        let context = g.compile(FusePolicy::Auto).expect("context");

        let mut g = Graph::new();
        let dc = g.input(seq, d);
        let v = g.input(seq, d);
        let p = g.input(seq, seq);
        let dp = g.matmul_nt(dc, v);
        let dv = g.matmul_tn(p, dc);
        g.mark_output(dp);
        g.mark_output(dv);
        let context_backward = g.compile(FusePolicy::Auto).expect("context backward");

        let mut g = Graph::new();
        let ds = g.input(seq, seq);
        let k = g.input(seq, d);
        let q = g.input(seq, d);
        let dss = g.scale(ds, scale);
        let dq = g.matmul(dss, k);
        let dk = g.matmul_tn(dss, q);
        g.mark_output(dq);
        g.mark_output(dk);
        let scores_backward = g.compile(FusePolicy::Auto).expect("scores backward");

        HeadPlans {
            scores,
            context,
            context_backward,
            scores_backward,
        }
    }
}

/// The `[seq, d]` block of head `hd`, sequence `t`, copied out.
fn copy_head_out(x: &[f32], at: Heads, t: usize, hd: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(at.seq * at.d);
    for r in 0..at.seq {
        let row = (t * at.seq + r) * at.width() + hd * at.d;
        out.extend_from_slice(&x[row..row + at.d]);
    }
    out
}

/// Copies a `[seq, d]` block back into head `hd`, sequence `t`.
fn copy_head_in(out: &mut [f32], block: &[f32], at: Heads, t: usize, hd: usize) {
    for (r, b) in block.chunks_exact(at.d).enumerate() {
        let row = (t * at.seq + r) * at.width() + hd * at.d;
        out[row..row + at.d].copy_from_slice(b);
    }
}

struct Case {
    at: Heads,
    qkv: [Vec<f32>; 3],
    dctx: Vec<f32>,
}

impl Case {
    fn new(at: Heads, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let len = at.tokens() * at.width();
        let mut draw = || init::randn(&mut rng, [len], 1.5).into_vec();
        Case {
            at,
            qkv: [draw(), draw(), draw()],
            dctx: draw(),
        }
    }

    fn qkv(&self) -> [&[f32]; 3] {
        [&self.qkv[0], &self.qkv[1], &self.qkv[2]]
    }
}

/// The per-head path: `(ctx, probs, [dq, dk, dv])`.
fn oracle(c: &Case) -> (Vec<f32>, Vec<f32>, [Vec<f32>; 3]) {
    let at = c.at;
    let (seq, len) = (at.seq, at.tokens() * at.width());
    let plans = HeadPlans::new(seq, at.d);
    let mut ws = Workspace::new();
    let [q, k, v] = c.qkv();
    let mut ctx = vec![0.0; len];
    let mut probs = vec![0.0; at.prob_rows() * seq];
    let mut grads = [vec![0.0; len], vec![0.0; len], vec![0.0; len]];
    for t in 0..at.batch {
        for hd in 0..at.heads {
            let block = |x: &[f32]| copy_head_out(x, at, t, hd);
            let (qb, kb, vb, dc) = (block(q), block(k), block(v), block(&c.dctx));
            let p = &mut probs[(t * at.heads + hd) * seq * seq..][..seq * seq];
            plans
                .scores
                .run(&[&qb, &kb], vec![OutBind::Write(p)], &mut ws);
            ops::softmax_rows_in_place(p, seq);
            let res = plans.context.run(&[p, &vb], vec![OutBind::Lease], &mut ws);
            copy_head_in(&mut ctx, res[0].as_ref().expect("ctx"), at, t, hd);

            let leases = || vec![OutBind::Lease, OutBind::Lease];
            let mut res = plans
                .context_backward
                .run(&[&dc, &vb, p], leases(), &mut ws);
            let mut ds = res[0].take().expect("dp");
            let dvb = res[1].take().expect("dv");
            ops::softmax_rows_backward_in_place(p, &mut ds, seq);
            let res = plans
                .scores_backward
                .run(&[&ds, &kb, &qb], leases(), &mut ws);
            let [dq, dk, dv] = &mut grads;
            copy_head_in(dq, res[0].as_ref().expect("dq"), at, t, hd);
            copy_head_in(dk, res[1].as_ref().expect("dk"), at, t, hd);
            copy_head_in(dv, &dvb, at, t, hd);
        }
    }
    (ctx, probs, grads)
}

fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what} len");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}[{i}]: op {g:e} vs per-head {w:e}"
        );
    }
}

/// The op, on outputs pre-filled with NaN so an element it fails to
/// write cannot match, against the oracle at every pool size.
fn check(at: Heads, seed: u64) {
    let c = Case::new(at, seed);
    let len = at.tokens() * at.width();
    let mut ws = Workspace::new();
    let mut ctx = vec![f32::NAN; len];
    let mut probs = vec![f32::NAN; at.prob_rows() * at.seq];
    attention_forward(c.qkv(), at, &mut ctx, &mut probs, &mut ws);
    let mut grads = [
        vec![f32::NAN; len],
        vec![f32::NAN; len],
        vec![f32::NAN; len],
    ];
    let outs = grads.each_mut().map(Vec::as_mut_slice);
    attention_backward(c.qkv(), &probs, &c.dctx, at, outs, &mut ws);
    for threads in POOLS {
        pool::set_threads(threads);
        let (want_ctx, want_probs, want_grads) = oracle(&c);
        let what = format!("{at:?} pool {threads}");
        assert_same_bits(&ctx, &want_ctx, &format!("{what} ctx"));
        assert_same_bits(&probs, &want_probs, &format!("{what} probs"));
        for ((got, want), name) in grads.iter().zip(&want_grads).zip(["dq", "dk", "dv"]) {
            assert_same_bits(got, want, &format!("{what} {name}"));
        }
    }
}

/// Sequence lengths and head widths on both sides of the `MR` row tile
/// and the 8- and 32-lane register tiles, and the ledger's two head
/// shapes (`seq = d = 8` serving, `seq 64, d 32` training).
const SEQS: [usize; 7] = [1, 3, MR - 1, 8, MR + 1, 13, 64];
const DIMS: [usize; 5] = [1, 4, 8, 12, 32];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn op_equals_the_per_head_path_bitwise(
        seq in proptest::sample::select(SEQS.to_vec()),
        d in proptest::sample::select(DIMS.to_vec()),
        heads in 1usize..5,
        batch in 1usize..4,
        seed in 1u64..u64::MAX,
    ) {
        check(Heads { batch, heads, seq, d }, seed);
    }
}

#[test]
fn every_sequence_length_and_head_width_equals_the_per_head_path() {
    for (i, &seq) in SEQS.iter().enumerate() {
        for (j, &d) in DIMS.iter().enumerate() {
            let at = Heads {
                batch: 1 + (i + j) % 3,
                heads: 1 + (i * 5 + j) % 4,
                seq,
                d,
            };
            check(at, (i * 5 + j) as u64 + 1);
        }
    }
}
