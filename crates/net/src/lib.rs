//! # actcomp-net
//!
//! The transport layer that lets the `actcomp-runtime` ranks live in
//! separate OS processes: a [`Transport`] trait moving length-prefixed
//! framed messages between ranks, with three backends —
//!
//! - [`MpscTransport`] — in-process `std::sync::mpsc` channels behind
//!   the same trait, so the threaded runtime and the socket runtimes
//!   share one code path;
//! - [`SocketTransport`] over **Unix domain sockets** — cheap local
//!   multi-process runs;
//! - [`SocketTransport`] over **TCP** (loopback or real NICs), with an
//!   optional token-bucket bandwidth throttle so the paper's
//!   slow-network regime can be measured instead of simulated.
//!
//! # Framing
//!
//! Every message on a socket is one frame:
//!
//! ```text
//! [chan: u16 LE][len: u32 LE][payload: len bytes][crc32: u32 LE]
//! ```
//!
//! `chan` multiplexes independent logical channels (ring link,
//! broadcast, pipeline boundary, …) over one connection per directed
//! rank pair. Channel `0xFFFF` is reserved for the handshake, `0xFFFE`
//! for the launcher's control plane, and `0` is illegal on the wire
//! (a frame claiming it is treated as corruption). The trailer is an
//! IEEE CRC32 over header and payload: a flipped bit anywhere in the
//! frame surfaces as a typed [`TransportError::FrameCorrupt`] instead
//! of a garbage decode, and a hostile length prefix is rejected before
//! any allocation.
//!
//! # Rendezvous and handshake
//!
//! Each rank binds one listener and learns its peers' addresses out of
//! band (the launcher's peer table). Data connections are opened
//! lazily by the *sender*; the first frame on a new connection is a
//! handshake carrying a magic number, protocol version, world size,
//! configuration hash, restart epoch, and the sender's rank. The
//! acceptor verifies all of it against its own run and replies with an
//! accept/reject frame, so two runs that differ in topology, config,
//! or generation fail fast with a typed [`TransportError`] instead of
//! corrupting each other. The epoch is the recovery fence: after a
//! worker loss the launcher relaunches the world under `epoch + 1`,
//! and anything a fenced-off survivor still says is refused at
//! handshake.
//!
//! # Failure semantics
//!
//! Every user-reachable connect/handshake/receive path returns a typed
//! [`TransportError`] — no panics on I/O. A peer that disappears turns
//! into [`TransportError::PeerClosed`] on the next receive once its
//! queued frames are delivered, a connection killed by a CRC
//! failure yields [`TransportError::FrameCorrupt`], and
//! handshake/receive timeouts surface as [`TransportError::Timeout`]
//! rather than hanging forever. Shutdown drains unsent frames while
//! their peer reads and gives up on one that has read nothing for the
//! handshake timeout.
//!
//! # Fault injection
//!
//! [`FaultyTransport`] wraps any [`Transport`] and applies a seeded,
//! deterministic [`FaultPlan`] (drop / duplicate / corrupt / delay /
//! sever specific frames) to outgoing traffic — the chaos-testing
//! entry point used by `actcomp run --fault <spec>`.

#![warn(missing_docs)]

mod ctrl;
mod error;
mod fault;
mod frame;
mod mpsc;
mod socket;
mod throttle;

pub use ctrl::{CtrlConn, CtrlListener};
pub use error::TransportError;
pub use fault::{FaultKind, FaultPlan, FaultTrigger, FaultyTransport, FrameFault, KillFault};
pub use frame::{crc32, Handshake, FRAME_OVERHEAD, HS_CHAN, PROTOCOL_VERSION};
pub use mpsc::{mpsc_world, MpscTransport};
pub use socket::{SocketOptions, SocketTransport};
pub use throttle::TokenBucket;

use std::time::Duration;

/// Which wire a [`Transport`] runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// In-process `std::sync::mpsc` channels (single-process runs).
    Mpsc,
    /// Unix domain sockets (multi-process, same host).
    Uds,
    /// TCP sockets (multi-process, loopback or real network).
    Tcp,
}

impl TransportKind {
    /// Parses a CLI spelling (`mpsc` | `uds` | `tcp`).
    pub fn parse(s: &str) -> Result<TransportKind, TransportError> {
        match s {
            "mpsc" => Ok(TransportKind::Mpsc),
            "uds" | "unix" => Ok(TransportKind::Uds),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(TransportError::UnknownTransport(other.to_string())),
        }
    }

    /// The canonical spelling.
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Mpsc => "mpsc",
            TransportKind::Uds => "uds",
            TransportKind::Tcp => "tcp",
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The sending end of one logical channel to one peer rank.
///
/// Frames sent on one `FrameTx` arrive on the matching receiver in
/// order; distinct channels to the same peer may interleave on the
/// wire but never reorder within a channel.
pub trait FrameTx: Send {
    /// Ships one frame. Blocks only for the bandwidth throttle, never
    /// for a matching receiver: a socket queues what its kernel buffer
    /// will not take.
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError>;

    /// Fault-injection hook: ships one frame whose integrity check
    /// fails at the receiver (a broken CRC trailer on the socket
    /// backends, a corrupt marker in-process), so the receive path's
    /// [`TransportError::FrameCorrupt`] handling can be exercised end
    /// to end. Backends without an integrity layer deliver the frame
    /// unchanged (the default).
    fn send_corrupt(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.send(payload)
    }

    /// Fault-injection hook: hard-closes the underlying connection, as
    /// a cut cable would — subsequent sends fail and the peer's
    /// receivers wake with [`TransportError::PeerClosed`]. Backends
    /// with nothing to cut do nothing (the default).
    fn sever(&mut self) -> Result<(), TransportError> {
        Ok(())
    }
}

/// The receiving end of one logical channel from one peer rank.
pub trait FrameRx: Send {
    /// Blocks until the next frame on this channel arrives.
    ///
    /// Returns [`TransportError::PeerClosed`] once the peer's
    /// connection is gone and every buffered frame has been drained.
    fn recv(&mut self) -> Result<Vec<u8>, TransportError>;

    /// Like [`FrameRx::recv`] but gives up after `timeout` with
    /// [`TransportError::Timeout`].
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError>;
}

/// One rank's endpoint of a fully-connected message fabric over
/// `world` ranks.
///
/// A channel is addressed by `(peer rank, chan id)`; opening the send
/// side on one rank and the receive side on the other yields an
/// ordered, reliable frame stream. Channel ids below [`HS_CHAN`] are
/// free for the application.
pub trait Transport: Send {
    /// The backend this endpoint runs over.
    fn kind(&self) -> TransportKind;

    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// Total ranks in the fabric.
    fn world(&self) -> usize;

    /// Opens the sending end of channel `chan` towards rank `to`,
    /// establishing (and handshaking) the underlying connection if
    /// this is the first channel to that peer.
    fn open_send(&mut self, to: usize, chan: u16) -> Result<Box<dyn FrameTx>, TransportError>;

    /// Opens the receiving end of channel `chan` from rank `from`.
    /// Frames that arrived before the channel was opened are buffered
    /// and delivered first.
    fn open_recv(&mut self, from: usize, chan: u16) -> Result<Box<dyn FrameRx>, TransportError>;

    /// Gracefully shuts the endpoint down: stops accepting, closes
    /// this side's connections, and releases OS resources (sockets,
    /// socket files). Idempotent; also runs on drop.
    fn shutdown(&mut self);
}
