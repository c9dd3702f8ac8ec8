//! A training step moves Megatron's traffic, and the operator that makes
//! that possible keeps the executors bit-identical.
//!
//! 1. Traffic: per layer and micro-batch a dense step runs four chunk
//!    rings of one activation each — attention and MLP forward, MLP
//!    input and QKV input backward. Counted here from the audit trace
//!    and `ring_bytes`, against the ring schedule itself rather than the
//!    checker's step graph, so re-splitting a reduce fails this suite
//!    even if the checker is edited to match.
//! 2. Bits: `qkv_backward` at `world = 1` is the serial attention
//!    layer's backward, and at `world > 1` a rank's single-shard block
//!    hands every sum its shard's operand of the serial executor's sum,
//!    so the rank-order fold the ring performs is the serial executor's.

use actcomp_check::collectives::{chunk_ring_steps, ring_chunk_plan, DEFAULT_PIPELINE_DEPTH};
use actcomp_check::{Dir, MsgId};
use actcomp_compress::plan::CompressionPlan;
use actcomp_compress::{Compressor, Identity};
use actcomp_mp::shard::{qkv_backward, qkv_forward};
use actcomp_mp::tp::interleave;
use actcomp_mp::{
    stage_offsets, Block, ColumnShard, InProcess, MpConfig, Reduce, RowShard, SumPoint,
};
use actcomp_nn::{graphs, BertConfig, EncoderLayer, MultiHeadAttention};
use actcomp_runtime::{RuntimeConfig, ThreadedRuntime};
use actcomp_tensor::attention::Heads;
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

#[test]
fn at_world_one_the_shard_backward_is_the_serial_attention_backward() {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let mut attn = MultiHeadAttention::new(&mut rng, HIDDEN, HEADS);
    let x = init::randn(&mut rng, [6, HIDDEN], 1.0); // batch 2, seq 3
    let dy = init::randn(&mut rng, [6, HIDDEN], 1.0);
    let at = Heads {
        batch: 2,
        heads: HEADS,
        seq: 3,
        d: attn.head_dim(),
    };
    let ws = &mut Workspace::new();
    let mut qkv = [&attn.wq, &attn.wk, &attn.wv].map(|l| ColumnShard::of(l, 1, 0));
    let mut wo = RowShard::of(&attn.wo.weight.value, 1, 0);
    let proj = qkv_forward(qkv.each_ref(), &x, ws);
    let (ctx, probs) = graphs::attention_forward(ws, proj.each_ref(), at);
    let dctx = wo.backward(&ctx, &dy, ws);
    let grads = graphs::attention_backward(ws, proj.each_ref(), &probs, &dctx, at);
    let dx = qkv_backward(qkv.each_mut(), &x, grads.each_ref(), ws);

    let _ = attn.forward(&x, 2, 3);
    let want = attn.backward_ws(&dy, &mut Workspace::new());
    assert_eq!(dx.as_slice(), want.as_slice(), "dx");
    let serial = [&attn.wq, &attn.wk, &attn.wv];
    for (shard, linear) in qkv.iter().zip(serial) {
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

/// The serial executor's sums, logging what every call was handed and
/// what it handed back.
struct Logged {
    sums: InProcess,
    /// Per call, in order: the per-shard operands (none for `g`'s
    /// backward) and the result(s).
    calls: Vec<(Vec<Tensor>, Vec<Tensor>)>,
}

impl Reduce for Logged {
    fn compute<T>(&mut self, f: impl FnOnce() -> T) -> T {
        f()
    }

    fn sum(&mut self, at: SumPoint, partials: Vec<Tensor>, ws: &mut Workspace) -> Tensor {
        let s = self.sums.ring().sum(at, partials.clone(), ws);
        self.calls.push((partials, vec![s.clone()]));
        s
    }

    fn sum_backward(&mut self, at: SumPoint, dy: &Tensor) -> Vec<Tensor> {
        let ds = self.sums.ring().sum_backward(at, dy);
        self.calls.push((Vec::new(), ds.clone()));
        ds
    }

    fn dense_sum(&mut self, parts: Vec<Tensor>, ws: &mut Workspace) -> Tensor {
        let s = self.sums.ring().dense_sum(parts.clone(), ws);
        self.calls.push((parts, vec![s.clone()]));
        s
    }
}

/// Rank `shard`'s sums, fed the serial executor's logged results in
/// place of its peers: each call checks the operand the rank hands in
/// is the serial executor's operand for that shard, bit for bit.
struct Replay<'a> {
    shard: usize,
    calls: std::slice::Iter<'a, (Vec<Tensor>, Vec<Tensor>)>,
}

impl Replay<'_> {
    fn check(&mut self, handed: &[Tensor]) -> &[Tensor] {
        let (operands, results) = self.calls.next().expect("the serial run made this call");
        if let [own] = handed {
            let want = &operands[self.shard];
            assert_eq!(own.as_slice(), want.as_slice(), "shard {}", self.shard);
        }
        results
    }
}

impl Reduce for Replay<'_> {
    fn compute<T>(&mut self, f: impl FnOnce() -> T) -> T {
        f()
    }

    fn sum(&mut self, _: SumPoint, partials: Vec<Tensor>, _: &mut Workspace) -> Tensor {
        self.check(&partials)[0].clone()
    }

    fn sum_backward(&mut self, _: SumPoint, _: &Tensor) -> Vec<Tensor> {
        let shard = self.shard;
        vec![self.check(&[])[shard].clone()]
    }

    fn dense_sum(&mut self, parts: Vec<Tensor>, _: &mut Workspace) -> Tensor {
        self.check(&parts)[0].clone()
    }
}

fn params(block: &mut Block) -> Vec<Tensor> {
    let mut grads = Vec::new();
    block.visit_params(&mut |p| grads.push(p.grad.clone()));
    grads
}

#[test]
fn the_rank_order_sum_of_local_input_grads_is_the_serial_executor_backward() {
    for world in [2usize, 4] {
        let mut rng = ChaCha8Rng::seed_from_u64(22 + world as u64);
        let layer = EncoderLayer::new(&mut rng, HIDDEN, HEADS, 32);
        let x = init::randn(&mut rng, [6, HIDDEN], 1.0); // batch 2, seq 3
        let dy = init::randn(&mut rng, [6, HIDDEN], 1.0);
        let identity = || {
            let comps = (0..world).map(|_| Box::new(Identity::new()) as Box<dyn Compressor>);
            comps.collect()
        };

        let mut serial = Block::new(&layer, world, 0..world).expect("valid shards");
        let mut log = Logged {
            sums: InProcess::new(identity(), identity()),
            calls: Vec::new(),
        };
        let ws = &mut Workspace::new();
        let y = serial.forward(&x, 2, 3, &mut log, ws);
        let dx = serial.backward(&dy, &mut log, ws);
        // Four sums and two `g` backwards per micro-batch.
        assert_eq!(log.calls.len(), 6);

        let mut rank_grads = Vec::new();
        for shard in 0..world {
            let mut rank = Block::new(&layer, world, shard..shard + 1).expect("valid shard");
            let mut replay = Replay {
                shard,
                calls: log.calls.iter(),
            };
            let ctx = format!("world {world} shard {shard}");
            assert_eq!(rank.forward(&x, 2, 3, &mut replay, ws), y, "{ctx}: y");
            assert_eq!(rank.backward(&dy, &mut replay, ws), dx, "{ctx}: dx");
            rank_grads.push(params(&mut rank));
        }
        let lists: Vec<&[Tensor]> = rank_grads.iter().map(Vec::as_slice).collect();
        let gathered: Vec<Tensor> = interleave(&lists).into_iter().cloned().collect();
        assert_eq!(
            gathered,
            params(&mut serial),
            "world {world}: gathered grads"
        );
    }
}
