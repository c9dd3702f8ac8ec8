//! The per-rank step list: what one rank does for one command.
//!
//! [`rank_steps`] is the *one* description of a pipeline-parallel
//! rank's step, in the GPipe order of [`gpipe_order`]: where each
//! micro-batch comes from (the embedding, the output gradient or a
//! pipeline boundary), its broadcast across the stage, the stage's
//! blocks, where the result goes (across the next boundary or back to
//! the driver), and the synchronisation that closes a backward. The
//! runtime's rank worker executes the list; the comm-protocol analyzer
//! ([`crate::comm_graph`]) walks the same list, expanding the blocks to
//! their ring collectives ([`crate::collectives`]) and every boundary
//! or broadcast step to its messages through [`Step::wire`] — so the
//! engine and its proof cannot drift apart.

use actcomp_distsim::schedule::gpipe_order;

use crate::comm_graph::{ChannelId, Dir, MsgId, Phase};

/// The command a step list serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// A forward (training fill or inference): activations flow
    /// downstream.
    Forward,
    /// A backward (the drain): gradients flow upstream, then the
    /// end-of-step gradient synchronisation.
    Backward,
}

/// What a step does. Its [`Phase`] names the micro-batch and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Stage 0, forward: embed the micro-batch's token ids.
    Embed,
    /// Last stage, backward: the micro-batch's rows of the output
    /// gradient.
    OutputGrad,
    /// Stage rank 0 takes a message off a pipeline boundary: the
    /// upstream activation (forward), the downstream gradient
    /// (backward), or the upstream boundary codec's parameter gradients
    /// (sync).
    Recv,
    /// Stage-input broadcast number `seq` of the step, from stage rank
    /// 0 to its TP peers. The ordinal advances even when `tp == 1`.
    Bcast {
        /// Broadcast ordinal within the step.
        seq: usize,
    },
    /// The stage's blocks over the micro-batch, forward or backward.
    Blocks,
    /// Stage rank 0 sends across a pipeline boundary: the activation
    /// downstream (forward), the gradient upstream (backward), or the
    /// boundary codec's parameter gradients downstream (sync).
    Send,
    /// Last stage rank 0, forward: keep the micro-batch's output for
    /// the driver.
    Keep,
    /// Stage 0, backward: the embedding backward.
    EmbedBackward,
    /// Sync: the ring all-gathers of the stage's reduce-codec parameter
    /// gradients.
    CodecGrads,
}

/// One step of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The driver phase the step belongs to.
    pub phase: Phase,
    /// What the step does.
    pub op: Op,
}

impl Step {
    /// The boundary or broadcast messages this step moves on rank `tpi`
    /// of stage `stage` in a ring of `tp`, as `(direction, channel,
    /// message)` in program order. Compute steps move none, and the
    /// blocks' and codec gathers' ring messages come from their own
    /// step lists.
    pub fn wire(
        self,
        stage: usize,
        tp: usize,
        tpi: usize,
    ) -> impl Iterator<Item = (Dir, ChannelId, MsgId)> {
        let fwd = |boundary| ChannelId::BoundaryFwd { boundary };
        let grad = |boundary| ChannelId::BoundaryGrad { boundary };
        let boundary = match (self.op, self.phase) {
            (Op::Send, Phase::Forward { mb }) => {
                Some((Dir::Send, fwd(stage), MsgId::Activation { mb }))
            }
            (Op::Recv, Phase::Forward { mb }) => {
                Some((Dir::Recv, fwd(stage - 1), MsgId::Activation { mb }))
            }
            (Op::Send, Phase::Backward { mb }) => {
                Some((Dir::Send, grad(stage - 1), MsgId::Grad { mb }))
            }
            (Op::Recv, Phase::Backward { mb }) => {
                Some((Dir::Recv, grad(stage), MsgId::Grad { mb }))
            }
            (Op::Send, Phase::Sync) => Some((Dir::Send, fwd(stage), MsgId::GradSync)),
            (Op::Recv, Phase::Sync) => Some((Dir::Recv, fwd(stage - 1), MsgId::GradSync)),
            _ => None,
        };
        // Stage rank 0 sends a broadcast to every peer; a peer receives its own.
        let (dir, peers, seq) = match self.op {
            Op::Bcast { seq } if tpi == 0 => (Dir::Send, 1..tp, seq),
            Op::Bcast { seq } => (Dir::Recv, tpi..tpi + 1, seq),
            _ => (Dir::Send, 0..0, 0),
        };
        let bcast =
            peers.map(move |peer| (dir, ChannelId::Bcast { stage, peer }, MsgId::Bcast { seq }));
        boundary.into_iter().chain(bcast)
    }
}

/// Rank `tpi` of stage `stage`'s steps for one `sweep` command of `m`
/// micro-batches in a `pp`-stage pipeline, in execution order. Stage
/// rank 0 alone crosses the boundaries and answers the driver; its TP
/// peers take each boundary input from its broadcast.
pub fn rank_steps(pp: usize, m: usize, stage: usize, tpi: usize, sweep: Sweep) -> Vec<Step> {
    let (first, last, lead) = (stage == 0, stage + 1 == pp, tpi == 0);
    let mut steps = Vec::new();
    let mut push = |phase, ops: &[(bool, Op)]| {
        steps.extend(
            ops.iter()
                .filter(|s| s.0)
                .map(|&(_, op)| Step { phase, op }),
        );
    };
    // Broadcast ordinals run on through the step: a backward's first
    // follows its forward's last.
    let mut seq = 0;
    for o in gpipe_order(pp, m, stage) {
        let (mb, bwd) = (o.mb, o.backward);
        let (phase, from_boundary, to_boundary) = match bwd {
            false => (Phase::Forward { mb }, !first, !last),
            true => (Phase::Backward { mb }, !last, !first),
        };
        // (whether this rank takes the step, the step). Every stage-0
        // rank holds an embedding replica; only the lead keeps outputs.
        let ops = [
            (!from_boundary, if bwd { Op::OutputGrad } else { Op::Embed }),
            (from_boundary && lead, Op::Recv),
            (from_boundary, Op::Bcast { seq }),
            (true, Op::Blocks),
            (to_boundary && lead, Op::Send),
            (
                !to_boundary && (bwd || lead),
                if bwd { Op::EmbedBackward } else { Op::Keep },
            ),
        ];
        seq += usize::from(from_boundary);
        if bwd == (sweep == Sweep::Backward) {
            push(phase, &ops);
        }
    }
    if sweep == Sweep::Backward {
        // Reduce-codec gradients first, then the boundary replicas, in
        // the serial executor's order.
        let sync = [
            (true, Op::CodecGrads),
            (lead && !last, Op::Send),
            (lead && !first, Op::Recv),
        ];
        push(Phase::Sync, &sync);
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stage_crosses_only_the_boundaries_it_has() {
        let ops = |pp, stage, tpi, sweep| -> Vec<Op> {
            (rank_steps(pp, 2, stage, tpi, sweep).iter())
                .map(|s| s.op)
                .collect()
        };
        // A middle stage's lead relays each micro-batch, then syncs both
        // boundaries; a peer takes each input from the broadcast.
        let mb = |seq| [Op::Recv, Op::Bcast { seq }, Op::Blocks, Op::Send];
        let sync = [Op::CodecGrads, Op::Send, Op::Recv];
        assert_eq!(ops(3, 1, 0, Sweep::Forward), [mb(0), mb(1)].concat());
        assert_eq!(
            ops(3, 1, 0, Sweep::Backward),
            [&mb(2)[..], &mb(3), &sync].concat()
        );
        let peer = [mb(0)[1..3].to_vec(), mb(1)[1..3].to_vec()].concat();
        assert_eq!(ops(3, 1, 1, Sweep::Forward), peer);
        // A lone stage embeds, and its lead keeps the outputs.
        assert_eq!(
            ops(1, 0, 0, Sweep::Forward),
            [Op::Embed, Op::Blocks, Op::Keep].repeat(2)
        );
        assert_eq!(
            ops(1, 0, 1, Sweep::Forward),
            [Op::Embed, Op::Blocks].repeat(2)
        );
    }
}
