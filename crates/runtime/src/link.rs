//! Typed message links between rank workers over framed transport
//! channels.
//!
//! Every channel a rank worker uses — ring collectives, intra-stage
//! broadcast, pipeline-boundary activations and gradients — is a framed
//! [`Transport`](actcomp_net::Transport) channel carrying the message's
//! [`WireMsg`](crate::wire::WireMsg) encoding: the in-process mpsc
//! transport for the threads backend, Unix sockets or TCP otherwise.
//! Workers are written against [`MsgTx`] / [`MsgRx`], which encode and
//! decode at the link, so every backend runs the same worker code; the
//! transport-conformance suite holds them to *bitwise* identical
//! gradients.
//!
//! Channel ids are fixed per edge kind, so a directed rank pair uses a
//! distinct `(from, to, chan)` triple per logical link:
//!
//! | chan | edge |
//! |------|------|
//! | [`CHAN_RING`]  | ring link `t → (t+1) % tp` within a stage |
//! | [`CHAN_BCAST`] | stage rank 0 → each TP peer |
//! | [`CHAN_FWD`]   | boundary activations, stage `s` → `s+1` (rank 0s) |
//! | [`CHAN_GRAD`]  | boundary gradients, stage `s+1` → `s` (rank 0s) |

use crate::wire::{decode_msg, encode_msg, WireMsg};
use actcomp_net::{FrameRx, FrameTx, Transport, TransportError};
use std::marker::PhantomData;
use std::time::Duration;

/// Upper bound on one data-plane receive. A *dead* peer surfaces much
/// sooner as `PeerClosed` (its channel half drops, or the receiver
/// reading the socket sees EOF); this deadline only catches a peer that
/// is alive but silent — e.g. a dropped frame under fault injection —
/// turning an indefinite stall into a typed timeout that fails the step
/// instead of hanging the worker forever.
const RECV_DEADLINE: Duration = Duration::from_secs(600);

/// Ring-collective traffic between TP neighbours.
pub(crate) const CHAN_RING: u16 = 1;
/// Intra-stage broadcast fan-out from each stage's rank 0.
pub(crate) const CHAN_BCAST: u16 = 2;
/// Forward boundary activations (and post-drain grad sync).
pub(crate) const CHAN_FWD: u16 = 3;
/// Backward boundary gradients.
pub(crate) const CHAN_GRAD: u16 = 4;

/// Sending half of a worker link: messages of type `T` cross a framed
/// transport channel as their wire encoding.
pub(crate) struct MsgTx<T: WireMsg> {
    tx: Box<dyn FrameTx>,
    msg: PhantomData<fn(&T)>,
}

impl<T: WireMsg> MsgTx<T> {
    /// Wraps an opened frame sender.
    pub fn new(tx: Box<dyn FrameTx>) -> Self {
        MsgTx {
            tx,
            msg: PhantomData,
        }
    }

    /// Ships one message.
    pub fn send(&mut self, msg: &T) -> Result<(), TransportError> {
        self.tx.send(&encode_msg(msg))
    }
}

/// Receiving half of a worker link.
pub(crate) struct MsgRx<T: WireMsg> {
    rx: Box<dyn FrameRx>,
    msg: PhantomData<fn() -> T>,
}

impl<T: WireMsg> MsgRx<T> {
    /// Wraps an opened frame receiver.
    pub fn new(rx: Box<dyn FrameRx>) -> Self {
        MsgRx {
            rx,
            msg: PhantomData,
        }
    }

    /// Blocks for the next message. A frame that does not decode as a
    /// `T` is a [`TransportError::BadFrame`].
    pub fn recv(&mut self) -> Result<T, TransportError> {
        let buf = self.rx.recv_timeout(RECV_DEADLINE)?;
        decode_msg(&buf).map_err(|e| TransportError::BadFrame {
            what: e.to_string(),
        })
    }
}

/// Every peer link one rank worker holds, grouped by role. Halves are
/// `Option`s because most roles exist only on some ranks (ring links
/// need `tp > 1`, boundary halves belong to stage rank 0s, …).
#[derive(Default)]
pub(crate) struct RankLinks {
    /// Ring send to the next TP neighbour.
    pub ring_tx: Option<MsgTx<crate::comm::RingMsg>>,
    /// Ring receive from the previous TP neighbour.
    pub ring_rx: Option<MsgRx<crate::comm::RingMsg>>,
    /// Broadcast fan-out (stage rank 0 only), to peers `1..tp` in order.
    pub bcast_tx: Vec<MsgTx<actcomp_tensor::Tensor>>,
    /// Broadcast receive (stage peers only).
    pub bcast_rx: Option<MsgRx<actcomp_tensor::Tensor>>,
    /// Boundary activation send (rank 0 of every non-final stage).
    pub fwd_tx: Option<MsgTx<crate::rank::FwdMsg>>,
    /// Boundary gradient receive (same ranks as `fwd_tx`).
    pub grad_rx: Option<MsgRx<actcomp_tensor::Tensor>>,
    /// Boundary activation receive (rank 0 of every non-first stage).
    pub fwd_rx: Option<MsgRx<crate::rank::FwdMsg>>,
    /// Boundary gradient send (same ranks as `fwd_rx`).
    pub grad_tx: Option<MsgTx<actcomp_tensor::Tensor>>,
}

/// Opens every link rank `transport.rank()` needs for a `tp × pp` world
/// over the given transport: calling this on every rank's transport
/// yields a fully connected world.
pub(crate) fn build_rank_links(
    transport: &mut dyn Transport,
    tp: usize,
    pp: usize,
) -> Result<RankLinks, TransportError> {
    let rank = transport.rank();
    debug_assert_eq!(transport.world(), tp * pp, "transport world mismatch");
    let stage = rank / tp;
    let tpi = rank % tp;
    let mut links = RankLinks::default();

    if tp > 1 {
        let next = stage * tp + (tpi + 1) % tp;
        let prev = stage * tp + (tpi + tp - 1) % tp;
        links.ring_tx = Some(MsgTx::new(transport.open_send(next, CHAN_RING)?));
        links.ring_rx = Some(MsgRx::new(transport.open_recv(prev, CHAN_RING)?));
        if tpi == 0 {
            for peer in 1..tp {
                links.bcast_tx.push(MsgTx::new(
                    transport.open_send(stage * tp + peer, CHAN_BCAST)?,
                ));
            }
        } else {
            links.bcast_rx = Some(MsgRx::new(transport.open_recv(stage * tp, CHAN_BCAST)?));
        }
    }

    if tpi == 0 && stage + 1 < pp {
        let downstream = (stage + 1) * tp;
        links.fwd_tx = Some(MsgTx::new(transport.open_send(downstream, CHAN_FWD)?));
        links.grad_rx = Some(MsgRx::new(transport.open_recv(downstream, CHAN_GRAD)?));
    }
    if tpi == 0 && stage > 0 {
        let upstream = (stage - 1) * tp;
        links.fwd_rx = Some(MsgRx::new(transport.open_recv(upstream, CHAN_FWD)?));
        links.grad_tx = Some(MsgTx::new(transport.open_send(upstream, CHAN_GRAD)?));
    }
    Ok(links)
}
