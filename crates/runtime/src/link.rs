//! Transport-generic message links between rank workers.
//!
//! Every channel a rank worker uses — ring collectives, intra-stage
//! broadcast, pipeline-boundary activations and gradients — is either a
//! plain in-process `std::sync::mpsc` channel carrying the typed message
//! (the threads backend's zero-copy fast path) or a framed
//! [`Transport`](actcomp_net::Transport) channel carrying the message's
//! [`WireMsg`](crate::wire::WireMsg) encoding (Unix sockets, TCP, or the
//! trait-level mpsc backend). Workers are written against [`MsgTx`] /
//! [`MsgRx`] and cannot tell the difference; the transport-conformance
//! suite holds them to *bitwise* identical gradients either way.
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
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::Duration;

/// Upper bound on one framed data-plane receive. A *dead* peer surfaces
/// much sooner as `PeerClosed` (the receiver reading the socket sees
/// EOF); this deadline only catches a peer that is alive but silent —
/// e.g. a dropped frame under fault injection — turning an indefinite
/// stall into a typed timeout that fails the step instead of hanging
/// the worker forever.
const RECV_DEADLINE: Duration = Duration::from_secs(600);

/// Ring-collective traffic between TP neighbours.
pub(crate) const CHAN_RING: u16 = 1;
/// Intra-stage broadcast fan-out from each stage's rank 0.
pub(crate) const CHAN_BCAST: u16 = 2;
/// Forward boundary activations (and post-drain grad sync).
pub(crate) const CHAN_FWD: u16 = 3;
/// Backward boundary gradients.
pub(crate) const CHAN_GRAD: u16 = 4;

/// Why a link operation failed. Data-plane callers treat every variant
/// as a dead peer (the worker panics and the driver surfaces it);
/// control-plane callers keep the detail.
#[derive(Debug)]
pub(crate) enum LinkError {
    /// The in-process channel or connection was closed.
    Closed,
    /// The transport reported a typed failure.
    Transport(TransportError),
    /// A frame arrived but did not decode as the expected message.
    Decode(crate::wire::WireError),
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::Closed => write!(f, "peer channel closed"),
            LinkError::Transport(e) => write!(f, "{e}"),
            LinkError::Decode(e) => write!(f, "{e}"),
        }
    }
}

/// Sending half of a worker link: typed fast path or framed transport.
///
/// Methods take `&self` (the framed side locks internally) so workers
/// can hold a sender and receiver of the same group simultaneously,
/// exactly as they did with bare `mpsc` endpoints.
pub(crate) enum MsgTx<T: WireMsg> {
    /// In-process typed channel (threads backend).
    Typed(Sender<T>),
    /// Framed transport channel; messages cross as their wire encoding.
    Framed(Mutex<Box<dyn FrameTx>>),
}

impl<T: WireMsg> MsgTx<T> {
    /// Ships one message.
    pub fn send(&self, msg: T) -> Result<(), LinkError> {
        match self {
            MsgTx::Typed(tx) => tx.send(msg).map_err(|_| LinkError::Closed),
            MsgTx::Framed(tx) => {
                let buf = encode_msg(&msg);
                let mut tx = tx.lock().unwrap_or_else(|e| e.into_inner());
                tx.send(&buf).map_err(LinkError::Transport)
            }
        }
    }
}

/// Receiving half of a worker link.
pub(crate) enum MsgRx<T: WireMsg> {
    /// In-process typed channel (threads backend).
    Typed(Receiver<T>),
    /// Framed transport channel.
    Framed(Mutex<Box<dyn FrameRx>>),
}

impl<T: WireMsg> MsgRx<T> {
    /// Blocks for the next message.
    pub fn recv(&self) -> Result<T, LinkError> {
        match self {
            MsgRx::Typed(rx) => rx.recv().map_err(|_| LinkError::Closed),
            MsgRx::Framed(rx) => {
                let buf = {
                    let mut rx = rx.lock().unwrap_or_else(|e| e.into_inner());
                    rx.recv_timeout(RECV_DEADLINE)
                        .map_err(LinkError::Transport)?
                };
                decode_msg(&buf).map_err(LinkError::Decode)
            }
        }
    }
}

/// Builds a typed in-process channel pair wrapped as links.
pub(crate) fn typed_pair<T: WireMsg>() -> (MsgTx<T>, MsgRx<T>) {
    let (tx, rx) = channel();
    (MsgTx::Typed(tx), MsgRx::Typed(rx))
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
/// over the given transport. The channel topology is identical to the
/// typed-channel plumbing in [`ThreadedRuntime::from_serial`]
/// (`crate::ThreadedRuntime::from_serial`): calling this on every rank's
/// transport yields a fully connected world.
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
        links.ring_tx = Some(MsgTx::Framed(Mutex::new(
            transport.open_send(next, CHAN_RING)?,
        )));
        links.ring_rx = Some(MsgRx::Framed(Mutex::new(
            transport.open_recv(prev, CHAN_RING)?,
        )));
        if tpi == 0 {
            for peer in 1..tp {
                links.bcast_tx.push(MsgTx::Framed(Mutex::new(
                    transport.open_send(stage * tp + peer, CHAN_BCAST)?,
                )));
            }
        } else {
            links.bcast_rx = Some(MsgRx::Framed(Mutex::new(
                transport.open_recv(stage * tp, CHAN_BCAST)?,
            )));
        }
    }

    if tpi == 0 && stage + 1 < pp {
        let downstream = (stage + 1) * tp;
        links.fwd_tx = Some(MsgTx::Framed(Mutex::new(
            transport.open_send(downstream, CHAN_FWD)?,
        )));
        links.grad_rx = Some(MsgRx::Framed(Mutex::new(
            transport.open_recv(downstream, CHAN_GRAD)?,
        )));
    }
    if tpi == 0 && stage > 0 {
        let upstream = (stage - 1) * tp;
        links.fwd_rx = Some(MsgRx::Framed(Mutex::new(
            transport.open_recv(upstream, CHAN_FWD)?,
        )));
        links.grad_tx = Some(MsgTx::Framed(Mutex::new(
            transport.open_send(upstream, CHAN_GRAD)?,
        )));
    }
    Ok(links)
}

/// Builds the typed-channel link set for every rank of a `tp × pp`
/// world — the threads backend's plumbing, wrapped in [`MsgTx`] /
/// [`MsgRx`] so the worker code is shared with the transport path.
pub(crate) fn typed_world_links(tp: usize, pp: usize) -> Vec<RankLinks> {
    let world = tp * pp;
    let mut links: Vec<RankLinks> = (0..world).map(|_| RankLinks::default()).collect();
    for stage in 0..pp {
        if tp > 1 {
            // Ring link t → (t+1) % tp within the stage.
            for t in 0..tp {
                let (tx, rx) = typed_pair();
                links[stage * tp + t].ring_tx = Some(tx);
                links[stage * tp + (t + 1) % tp].ring_rx = Some(rx);
            }
            // Broadcast fan-out from stage rank 0.
            for peer in 1..tp {
                let (tx, rx) = typed_pair();
                links[stage * tp].bcast_tx.push(tx);
                links[stage * tp + peer].bcast_rx = Some(rx);
            }
        }
        // Pipeline boundary between this stage's and the next stage's
        // rank 0s.
        if stage + 1 < pp {
            let (fwd_tx, fwd_rx) = typed_pair();
            let (grad_tx, grad_rx) = typed_pair();
            links[stage * tp].fwd_tx = Some(fwd_tx);
            links[stage * tp].grad_rx = Some(grad_rx);
            links[(stage + 1) * tp].fwd_rx = Some(fwd_rx);
            links[(stage + 1) * tp].grad_tx = Some(grad_tx);
        }
    }
    links
}
