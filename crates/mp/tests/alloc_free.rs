//! A warm served request's layer allocates nothing on its rank: one
//! `tp::Block::forward` at the serving shape (tp 1, 8 tokens of hidden
//! 32, 4 heads, MLP width 64) through a lone worker's `Ring`, its caches
//! cleared as a forward-only rank clears them. Counted by the tensor
//! crate's allocator module; the file is its own test binary so nothing
//! else shares that allocator.

#[path = "../../tensor/tests/counting/mod.rs"]
mod counting;

use actcomp_mp::{Block, InProcess};
use actcomp_nn::EncoderLayer;
use actcomp_tensor::{init, Workspace};
use counting::warm_allocs;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn a_warm_serve_shape_block_forward_allocates_nothing() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let layers = [(); 2].map(|()| EncoderLayer::new(&mut rng, 32, 4, 64));
    let mut blocks = layers
        .each_ref()
        .map(|l| Block::new(l, 1, 0..1).expect("one worker"));
    let mut sums = InProcess::dense(1);
    let x = init::randn(&mut rng, [8, 32], 1.0);
    let mut ws = Workspace::new();
    // One request through a two-layer stage, as a serving rank runs it.
    let n = warm_allocs(|| {
        let mut h = ws.lease_copy(&x);
        for block in &mut blocks {
            let y = block.forward(&h, 1, 8, &mut sums.ring(), &mut ws);
            ws.recycle_tensor(h);
            h = y;
        }
        ws.recycle_tensor(h);
        blocks.iter_mut().for_each(|b| b.clear_caches(&mut ws));
    });
    assert_eq!(n, 0, "allocations in a warm serve-shape forward");
}
