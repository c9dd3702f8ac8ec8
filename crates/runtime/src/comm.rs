//! A rank's endpoint of its tensor-parallel ring.
//!
//! The ring collectives — the step lists, their one interpreter, the
//! stash and the `bytes`/`ring_bytes` meters — are
//! [`actcomp_mp::ring`]'s, run by the serial executor too. This module
//! supplies what only a rank has: its [`Link`], the framed transport
//! channels to its ring neighbours, which encode every message, record
//! it for the audit trace and block on receive. A [`TpGroup`] is an
//! [`Endpoint`] over that link; its collectives
//! ([`Endpoint::compressed_all_reduce`], [`Endpoint::dense_all_reduce`],
//! [`Endpoint::sync_param_grads`]) are the endpoint's, reached through
//! `Deref`.

use crate::link::{MsgRx, MsgTx, CHAN_RING};
use crate::trace::TraceHandle;
use actcomp_check::ChannelId;
use actcomp_mp::ring::{Dir, Endpoint, Link, MsgId, RingMsg};
use actcomp_mp::{timed, PhaseTimers};
use actcomp_net::{mpsc_world, Transport, TransportError};
use std::ops::{Deref, DerefMut};

pub use actcomp_mp::RingTuning;

/// A rank's ring links: framed transport channels to the next TP rank
/// and from the previous one (`None` on a solo ring).
pub struct RankLink {
    rank: usize,
    world: usize,
    tx: Option<MsgTx<RingMsg>>,
    rx: Option<MsgRx<RingMsg>>,
    /// Audit-trace handle; `None` (the default) records nothing.
    trace: Option<TraceHandle>,
}

impl Link for RankLink {
    /// Encodes and ships `msg`; the time is charged to the `wire`
    /// phase.
    fn send(&mut self, msg: RingMsg, timers: &mut PhaseTimers) {
        let tx = self.tx.as_mut().expect("ring sender");
        timed(&mut timers.wire_s, || {
            tx.send(&msg).expect("ring peer hung up")
        });
    }

    /// Blocks for the next message, so it never returns `None`.
    fn recv(&mut self, timers: &mut PhaseTimers) -> Option<RingMsg> {
        let rx = self.rx.as_mut().expect("ring receiver");
        Some(timed(&mut timers.wire_s, || {
            rx.recv().expect("ring peer hung up")
        }))
    }

    /// Sends leave on this rank's link, receives arrive on the previous
    /// rank's.
    fn record(&mut self, dir: Dir, msg: MsgId, bytes: Option<usize>) {
        if let Some(trace) = &self.trace {
            let link = match dir {
                Dir::Send => self.rank,
                Dir::Recv => (self.rank + self.world - 1) % self.world,
            };
            let channel = ChannelId::Ring {
                stage: trace.stage(),
                link,
            };
            trace.record(dir, channel, msg, bytes);
        }
    }
}

/// One rank's endpoint of a tensor-parallel ring of `world` ranks.
#[derive(Debug)]
pub struct TpGroup(Endpoint<RankLink>);

impl Deref for TpGroup {
    type Target = Endpoint<RankLink>;

    fn deref(&self) -> &Endpoint<RankLink> {
        &self.0
    }
}

impl DerefMut for TpGroup {
    fn deref_mut(&mut self) -> &mut Endpoint<RankLink> {
        &mut self.0
    }
}

impl TpGroup {
    /// Builds the endpoints of a ring over `world` ranks, one per
    /// endpoint of an in-process [`mpsc_world`]
    /// ([`TpGroup::over_transport`]); endpoint `t` sends to
    /// `(t + 1) % world` and receives from `(t − 1) % world`.
    ///
    /// # Panics
    ///
    /// Panics if `world` is zero.
    pub fn ring(world: usize) -> Vec<TpGroup> {
        assert!(world > 0, "ring needs at least one rank");
        mpsc_world(world)
            .iter_mut()
            .map(|t| TpGroup::over_transport(t).expect("a fresh mpsc world opens every link"))
            .collect()
    }

    /// Builds one endpoint from pre-opened ring links. `tx`/`rx` must be
    /// `Some` whenever `world > 1`.
    pub(crate) fn from_links(
        rank: usize,
        world: usize,
        tx: Option<MsgTx<RingMsg>>,
        rx: Option<MsgRx<RingMsg>>,
    ) -> TpGroup {
        let link = RankLink {
            rank,
            world,
            tx,
            rx,
            trace: None,
        };
        TpGroup(Endpoint::new(rank, world, link))
    }

    /// Builds one endpoint of a ring spanning a transport's whole world:
    /// rank `r` sends to `(r + 1) % world` and receives from
    /// `(r − 1) % world` on the ring channel. Every rank of the
    /// transport's world must call this (the collectives benchmark's
    /// entry point for measuring rings over sockets).
    pub fn over_transport(transport: &mut dyn Transport) -> Result<TpGroup, TransportError> {
        let (rank, world) = (transport.rank(), transport.world());
        if world == 1 {
            return Ok(TpGroup::solo());
        }
        let tx = transport.open_send((rank + 1) % world, CHAN_RING)?;
        let rx = transport.open_recv((rank + world - 1) % world, CHAN_RING)?;
        Ok(TpGroup::from_links(
            rank,
            world,
            Some(MsgTx::new(tx)),
            Some(MsgRx::new(rx)),
        ))
    }

    /// A single-rank group: collectives degenerate to local arithmetic
    /// (matching the serial executor at `tp = 1`).
    pub fn solo() -> TpGroup {
        TpGroup::from_links(0, 1, None, None)
    }

    /// Attaches an audit-trace handle: every subsequent ring send/recv
    /// is recorded in the static analyzer's event vocabulary.
    pub(crate) fn set_trace(&mut self, trace: TraceHandle) {
        self.0.link.trace = Some(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_msg, encode_msg};
    use actcomp_compress::{Identity, TopK};
    use actcomp_mp::ring::ChunkData;
    use actcomp_mp::{rank_order_sum, wire_round, wire_sum};
    use actcomp_tensor::{init, Tensor, Workspace};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn solo_reduce_matches_serial_single_worker() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let x = init::randn(&mut rng, [3, 8], 1.0);
        let mut g = TpGroup::solo();
        let mut comp = Identity::new();
        let mut timers = PhaseTimers::default();
        let mut ws = Workspace::new();
        let out = g.compressed_all_reduce(&mut comp, &x, &mut timers, &mut ws);
        assert_eq!(out, x);
        assert_eq!(g.bytes.wire, 0);
    }

    #[test]
    fn threaded_identity_reduce_sums_in_rank_order() {
        // The identity code is summed exactly; dense rows travel as
        // bfloat16 partial sums. Both folds run in rank order.
        let world = 4;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let parts: Vec<Tensor> = (0..world)
            .map(|_| init::randn(&mut rng, [2, 8], 1.0))
            .collect();
        let exact = rank_order_sum(parts.iter().cloned());
        let rounded = wire_sum(parts.iter().cloned());
        assert_ne!(exact, rounded, "the dense ring must round");
        let groups = TpGroup::ring(world);
        let handles: Vec<_> = groups
            .into_iter()
            .zip(parts)
            .map(|(mut g, p)| {
                std::thread::spawn(move || {
                    let mut comp = Identity::new();
                    let mut timers = PhaseTimers::default();
                    let mut ws = Workspace::new();
                    let code = g.compressed_all_reduce(&mut comp, &p, &mut timers, &mut ws);
                    let dense = g.dense_all_reduce(&p, &mut timers, &mut ws);
                    (code, dense, g.bytes)
                })
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("rank"))
            .collect();
        for (code, dense, bytes) in &results {
            assert_eq!(code, &exact, "exact rank-order sum");
            assert_eq!(dense, &rounded, "rounded rank-order sum");
            assert_eq!(bytes.wire, bytes.dense, "identity moves dense bytes");
        }
    }

    #[test]
    fn dense_chunks_travel_in_two_bytes_and_decode_exactly() {
        let mut rows: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) * 0.37 + 0.01).collect();
        wire_round(&mut rows);
        let frame = encode_msg(&RingMsg::Chunk {
            bcast: true,
            idx: 3,
            data: ChunkData::Dense(rows.clone()),
        });
        // Tag, flag, index, data tag and length, then two bytes a value.
        assert_eq!(frame.len(), 19 + 2 * rows.len());
        match decode_msg::<RingMsg>(&frame).expect("decode") {
            RingMsg::Chunk {
                data: ChunkData::Dense(back),
                ..
            } => assert!(back
                .iter()
                .zip(&rows)
                .all(|(a, b)| a.to_bits() == b.to_bits())),
            other => panic!("decoded {}", other.kind()),
        }
    }

    #[test]
    fn mismatched_collectives_report_one_protocol_violation() {
        // Rank 0 gathers a Top-K code while rank 1 runs a dense reduce:
        // rank 1 meets a gather hop where its schedule calls for a chunk.
        let x = Tensor::zeros(vec![2, 4]);
        let mut groups = TpGroup::ring(2);
        let mut g1 = groups.pop().expect("rank 1");
        let mut g0 = groups.pop().expect("rank 0");
        let y = x.clone();
        let peer = std::thread::spawn(move || {
            // Ends with "ring peer hung up" once rank 1 is gone.
            let mut comp = TopK::new(2);
            g0.compressed_all_reduce(
                &mut comp,
                &y,
                &mut PhaseTimers::default(),
                &mut Workspace::new(),
            )
        });
        let victim = std::thread::spawn(move || {
            g1.dense_all_reduce(&x, &mut PhaseTimers::default(), &mut Workspace::new())
        });
        let panic = victim
            .join()
            .expect_err("rank 1 must refuse the gather hop");
        let text = panic.downcast_ref::<String>().expect("formatted panic");
        for part in [
            "ring protocol violation at tp rank 1/2",
            "expected chunk(coll 0, reduce, idx 0)",
            "received gather(coll 0, origin 0) carrying a code",
        ] {
            assert!(text.contains(part), "missing {part:?} in {text:?}");
        }
        assert!(peer.join().is_err(), "rank 0 loses its peer");
    }

    #[test]
    fn ring_plan_tiles_rows_for_any_chunk_size() {
        for rows in [1usize, 3, 4, 7, 64, 65] {
            for chunk_rows in [None, Some(1), Some(3), Some(64), Some(1000)] {
                let tuning = RingTuning {
                    chunk_rows,
                    pipeline_depth: 4,
                };
                let plan = tuning.plan(rows);
                assert_eq!(plan.iter().sum::<usize>(), rows, "{rows} {chunk_rows:?}");
                assert!(plan.iter().all(|&c| c > 0));
            }
        }
    }
}
