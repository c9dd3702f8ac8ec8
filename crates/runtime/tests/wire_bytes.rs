//! A dense all-reduce puts on the socket exactly what the ring meters.
//!
//! `ring_bytes.wire` counts a dense element at two bytes, the paper's
//! 16-bit baseline. This taps every frame one dense all-reduce sends over
//! Unix sockets at p = 2 and holds each rank's payload bytes to its meter
//! plus one fixed header per chunk message.

use actcomp_net::{
    FrameRx, FrameTx, SocketOptions, SocketTransport, Transport, TransportError, TransportKind,
};
use actcomp_runtime::{PhaseTimers, TpGroup};
use actcomp_tensor::{init, Workspace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Ring message tag, broadcast flag, chunk index (`u64`), data tag and
/// element count (`u64`): what a dense chunk frame carries besides its
/// rows.
const CHUNK_HEADER: usize = 1 + 1 + 8 + 1 + 8;

/// Frames and payload bytes one rank has sent.
#[derive(Default)]
struct Sent {
    frames: AtomicUsize,
    bytes: AtomicUsize,
}

/// A transport whose send halves count what they send.
struct Tap {
    inner: Box<dyn Transport>,
    sent: Arc<Sent>,
}

struct TapTx {
    inner: Box<dyn FrameTx>,
    sent: Arc<Sent>,
}

impl FrameTx for TapTx {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.sent.frames.fetch_add(1, Ordering::Relaxed);
        self.sent.bytes.fetch_add(payload.len(), Ordering::Relaxed);
        self.inner.send(payload)
    }
}

impl Transport for Tap {
    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }

    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world(&self) -> usize {
        self.inner.world()
    }

    fn open_send(&mut self, to: usize, chan: u16) -> Result<Box<dyn FrameTx>, TransportError> {
        let inner = self.inner.open_send(to, chan)?;
        let sent = Arc::clone(&self.sent);
        Ok(Box::new(TapTx { inner, sent }))
    }

    fn open_recv(&mut self, from: usize, chan: u16) -> Result<Box<dyn FrameRx>, TransportError> {
        self.inner.open_recv(from, chan)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

#[test]
fn dense_all_reduce_frames_carry_the_metered_bytes() {
    let world = 2;
    let mut sockets: Vec<SocketTransport> = (0..world)
        .map(|r| {
            SocketTransport::bind(
                TransportKind::Uds,
                r,
                world,
                0xB16,
                SocketOptions::default(),
            )
            .expect("bind")
        })
        .collect();
    let addrs: Vec<String> = sockets.iter().map(|t| t.local_addr().to_string()).collect();
    for t in &mut sockets {
        for (peer, addr) in addrs.iter().enumerate() {
            t.set_peer(peer, addr.clone());
        }
    }
    let handles: Vec<_> = sockets
        .into_iter()
        .map(|socket| {
            std::thread::spawn(move || {
                let sent = Arc::new(Sent::default());
                let rank = socket.rank();
                let mut tap = Tap {
                    inner: Box::new(socket),
                    sent: Arc::clone(&sent),
                };
                let mut g = TpGroup::over_transport(&mut tap).expect("ring links");
                let mut rng = ChaCha8Rng::seed_from_u64(rank as u64);
                let part = init::randn(&mut rng, [64, 32], 1.0);
                let mut timers = PhaseTimers::default();
                g.dense_all_reduce(&part, &mut timers, &mut Workspace::new());
                let frames = sent.frames.load(Ordering::Relaxed);
                (
                    g.ring_bytes.wire,
                    sent.bytes.load(Ordering::Relaxed),
                    frames,
                )
            })
        })
        .collect();
    for (rank, h) in handles.into_iter().enumerate() {
        let (metered, sent, frames) = h.join().expect("rank thread");
        // At p = 2 a rank sends each of the four chunks once: rank 0 on
        // the reduce leg, rank 1 on the broadcast leg.
        assert_eq!(frames, 4, "rank {rank}");
        assert_eq!(metered, 64 * 32 * 2, "rank {rank}: two bytes an element");
        assert_eq!(sent, metered + frames * CHUNK_HEADER, "rank {rank}");
    }
}
