//! A training step moves Megatron's traffic, and the operator that makes
//! that possible keeps the executors bit-identical.
//!
//! 1. Traffic: per layer and micro-batch a dense step runs four chunk
//!    rings of one activation each — attention and MLP forward, MLP
//!    input and QKV input backward. Counted here from the audit trace
//!    and `ring_bytes`, against the ring schedule itself rather than the
//!    checker's step graph, so re-splitting a reduce fails this suite
//!    even if the checker is edited to match.
//! 2. Bits: `qkv_backward_ws` at `world = 1` is the serial attention
//!    layer's backward, and at `world > 1` the rank-order sum of its
//!    per-rank results (what the ring reduces) is the serial executor's.

use actcomp_check::collectives::{chunk_ring_steps, ring_chunk_plan, DEFAULT_PIPELINE_DEPTH};
use actcomp_check::{Dir, MsgId};
use actcomp_compress::plan::CompressionPlan;
use actcomp_compress::{Compressor, Identity};
use actcomp_mp::shard::{attn_context_backward, attn_context_forward, qkv_backward_ws};
use actcomp_mp::{
    rank_order_sum, stage_offsets, ColumnShard, CompressedAllReduce, MpConfig, RowShard,
    TpAttention,
};
use actcomp_nn::{BertConfig, MultiHeadAttention};
use actcomp_runtime::{RuntimeConfig, ThreadedRuntime};
use actcomp_tensor::{init, Tensor, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

const LAYERS: usize = 4;
const HIDDEN: usize = 16;
const HEADS: usize = 4;
const TOKENS: usize = 8;
const IDS: [usize; TOKENS] = [1, 2, 3, 4, 5, 6, 7, 8];

/// fp16-equivalent bytes rank `r` of `p` sends in one chain-reduce →
/// ring-broadcast of a `[rows, HIDDEN]` tensor under the default tuning.
fn one_reduce_wire(r: usize, p: usize, rows: usize) -> usize {
    let plan = ring_chunk_plan(None, rows);
    chunk_ring_steps(r, p, plan.len(), DEFAULT_PIPELINE_DEPTH)
        .into_iter()
        .flat_map(|step| step.wire())
        .filter(|&(dir, ..)| dir == Dir::Send)
        .map(|(_, _, idx)| plan[idx] * HIDDEN * 2)
        .sum()
}

#[test]
fn a_dense_step_runs_four_one_activation_reduces_per_layer() {
    for tp in [2usize, 4] {
        for pp in [1usize, 2] {
            for m in [1usize, 2] {
                let ctx = format!("tp={tp} pp={pp} m={m}");
                let cfg = RuntimeConfig {
                    mp: MpConfig {
                        bert: BertConfig {
                            vocab: 32,
                            hidden: HIDDEN,
                            layers: LAYERS,
                            heads: HEADS,
                            ff_hidden: 32,
                            max_seq: 8,
                        },
                        tp,
                        pp,
                        plan: CompressionPlan::none(),
                        tokens: TOKENS,
                        error_feedback: false,
                    },
                    micro_batches: m,
                    tuning: None,
                    trace: true,
                };
                let mut rng = ChaCha8Rng::seed_from_u64(3);
                let mut rt = ThreadedRuntime::new(&mut rng, cfg).expect("valid config");
                let y = rt.forward(&IDS, 2, 4).expect("valid step");
                rt.zero_grad();
                rt.backward(&y).expect("valid grad");

                let mut offsets = stage_offsets(LAYERS, pp);
                offsets.push(LAYERS);
                let trace = rt.take_trace().expect("trace mode is on");
                let report = rt.report();
                for rank in &report.ranks {
                    let stage_layers = offsets[rank.stage + 1] - offsets[rank.stage];
                    let reduces = 4 * stage_layers * m;
                    let chunk_rings: BTreeSet<usize> = trace[rank.rank]
                        .iter()
                        .filter_map(|e| match e.msg {
                            MsgId::Chunk { coll, .. } => Some(coll),
                            _ => None,
                        })
                        .collect();
                    assert_eq!(chunk_rings.len(), reduces, "{ctx} rank {}", rank.rank);
                    assert_eq!(
                        rank.ring_bytes.wire,
                        reduces * one_reduce_wire(rank.tp_index, tp, TOKENS / m),
                        "{ctx} rank {}: ring wire bytes",
                        rank.rank
                    );
                    assert_eq!(
                        rank.ring_bytes.dense,
                        reduces * (tp - 1) * (TOKENS / m) * HIDDEN * 2,
                        "{ctx} rank {}: gather-equivalent bytes",
                        rank.rank
                    );
                }
            }
        }
    }
}

/// One worker's attention shard and the forward state its backward needs.
struct Worker {
    qkv: [ColumnShard; 3],
    wo: RowShard,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    ctx: Tensor,
    probs: Tensor,
}

/// Shards `attn` over `world` workers and runs each worker's forward up
/// to its attention context.
fn sharded_forward(
    attn: &MultiHeadAttention,
    world: usize,
    x: &Tensor,
    batch: usize,
    seq: usize,
) -> Vec<Worker> {
    let split = |l: &actcomp_nn::Linear| ColumnShard::split(&l.weight.value, &l.bias.value, world);
    let (lh, d) = (attn.heads() / world, attn.head_dim());
    split(&attn.wq)
        .into_iter()
        .zip(split(&attn.wk))
        .zip(split(&attn.wv))
        .zip(RowShard::split(&attn.wo.weight.value, world))
        .map(|(((wq, wk), wv), wo)| {
            let (q, k, v) = (wq.forward(x), wk.forward(x), wv.forward(x));
            let (ctx, probs) = attn_context_forward(&q, &k, &v, batch, seq, lh, d);
            Worker {
                qkv: [wq, wk, wv],
                wo,
                q,
                k,
                v,
                ctx,
                probs,
            }
        })
        .collect()
}

/// One worker's backward from the (identity-reduced) output gradient
/// `dy` to its local input gradient — what a rank hands the ring.
fn local_input_grad(
    w: &mut Worker,
    x: &Tensor,
    dy: &Tensor,
    batch: usize,
    seq: usize,
    d: usize,
) -> Tensor {
    let lh = w.q.dims()[1] / d;
    let dctx = w.wo.backward(&w.ctx, dy);
    let (dq, dk, dv) = attn_context_backward(&w.q, &w.k, &w.v, &w.probs, &dctx, batch, seq, lh, d);
    let [wq, wk, wv] = &mut w.qkv;
    qkv_backward_ws([wq, wk, wv], x, [&dq, &dk, &dv], &mut Workspace::new())
}

fn attention_case(seed: u64) -> (MultiHeadAttention, Tensor, Tensor) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let attn = MultiHeadAttention::new(&mut rng, HIDDEN, HEADS);
    let x = init::randn(&mut rng, [6, HIDDEN], 1.0); // batch 2, seq 3
    let dy = init::randn(&mut rng, [6, HIDDEN], 1.0);
    (attn, x, dy)
}

#[test]
fn at_world_one_the_shard_backward_is_the_serial_attention_backward() {
    let (mut attn, x, dy) = attention_case(21);
    let mut workers = sharded_forward(&attn, 1, &x, 2, 3);
    let dx = local_input_grad(&mut workers[0], &x, &dy, 2, 3, attn.head_dim());

    let _ = attn.forward(&x, 2, 3);
    let want = attn.backward_ws(&dy, &mut Workspace::new());
    assert_eq!(dx.as_slice(), want.as_slice(), "dx");
    let serial = [&attn.wq, &attn.wk, &attn.wv];
    for (shard, linear) in workers[0].qkv.iter().zip(serial) {
        assert_eq!(
            shard.weight.grad.as_slice(),
            linear.weight.grad.as_slice(),
            "weight grad"
        );
        assert_eq!(
            shard.bias.grad.as_slice(),
            linear.bias.grad.as_slice(),
            "bias grad"
        );
    }
}

#[test]
fn the_rank_order_sum_of_local_input_grads_is_the_serial_executor_backward() {
    for world in [2usize, 4] {
        let (attn, x, dy) = attention_case(22 + world as u64);
        let mut workers = sharded_forward(&attn, world, &x, 2, 3);
        let sum = rank_order_sum(
            workers
                .iter_mut()
                .map(|w| local_input_grad(w, &x, &dy, 2, 3, attn.head_dim())),
        );

        let identity = CompressedAllReduce::new(
            (0..world)
                .map(|_| Box::new(Identity::new()) as Box<dyn Compressor>)
                .collect(),
        );
        let mut tp = TpAttention::from_serial(&attn, world, identity);
        let _ = tp.forward(&x, 2, 3);
        let want = tp.backward(&dy);
        assert_eq!(sum.as_slice(), want.as_slice(), "world {world}: dx");

        let mut want_grads = Vec::new();
        tp.visit_params(&mut |p| want_grads.push(p.grad.clone()));
        // `TpAttention` visits wq, wk, wv (each: per worker weight, bias).
        for (proj, chunk) in want_grads.chunks(2 * world).take(3).enumerate() {
            for (w, pair) in chunk.chunks(2).enumerate() {
                let shard = &workers[w].qkv[proj];
                assert_eq!(shard.weight.grad.as_slice(), pair[0].as_slice());
                assert_eq!(shard.bias.grad.as_slice(), pair[1].as_slice());
            }
        }
    }
}
