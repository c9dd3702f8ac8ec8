//! `CountingTransport`: a decorator over the public `Transport` /
//! `FrameTx` / `FrameRx` traits (the pattern of `FaultyTransport`) that
//! counts frames and bytes and times every send and receive. Used only
//! under `--trace`; the untraced run wires the engine to the bare
//! transports, and `trace_overhead_share` is the price of this wrapper
//! plus the spans.

use actcomp_net::{FrameRx, FrameTx, Transport, TransportError, TransportKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Totals over every endpoint sharing the counter. `Relaxed` throughout:
/// these are statistics read after the rank threads have been joined or
/// are idle, and publish no other data.
#[derive(Default)]
pub struct Counters {
    frames: AtomicU64,
    bytes: AtomicU64,
    send_busy_ns: AtomicU64,
    recv_wait_ns: AtomicU64,
}

/// A point-in-time copy of [`Counters`].
#[derive(Clone, Copy, Default)]
pub struct Snapshot {
    pub frames: u64,
    pub bytes: u64,
    pub send_busy_s: f64,
    pub recv_wait_s: f64,
}

impl Counters {
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            frames: self.frames.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            send_busy_s: self.send_busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            recv_wait_s: self.recv_wait_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

impl Snapshot {
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            frames: self.frames - earlier.frames,
            bytes: self.bytes - earlier.bytes,
            send_busy_s: self.send_busy_s - earlier.send_busy_s,
            recv_wait_s: self.recv_wait_s - earlier.recv_wait_s,
        }
    }
}

pub struct CountingTransport {
    inner: Box<dyn Transport>,
    counters: Arc<Counters>,
}

impl CountingTransport {
    pub fn new(inner: Box<dyn Transport>, counters: Arc<Counters>) -> Self {
        CountingTransport { inner, counters }
    }
}

impl Transport for CountingTransport {
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
        Ok(Box::new(CountingTx {
            inner,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn open_recv(&mut self, from: usize, chan: u16) -> Result<Box<dyn FrameRx>, TransportError> {
        let inner = self.inner.open_recv(from, chan)?;
        Ok(Box::new(CountingRx {
            inner,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

struct CountingTx {
    inner: Box<dyn FrameTx>,
    counters: Arc<Counters>,
}

impl FrameTx for CountingTx {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let t0 = Instant::now();
        let out = self.inner.send(payload);
        let c = &self.counters;
        c.send_busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c.frames.fetch_add(1, Ordering::Relaxed);
        c.bytes.fetch_add(payload.len() as u64, Ordering::Relaxed);
        out
    }

    fn send_corrupt(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.inner.send_corrupt(payload)
    }

    fn sever(&mut self) -> Result<(), TransportError> {
        self.inner.sever()
    }
}

struct CountingRx {
    inner: Box<dyn FrameRx>,
    counters: Arc<Counters>,
}

impl CountingRx {
    fn timed(
        &mut self,
        f: impl FnOnce(&mut dyn FrameRx) -> Result<Vec<u8>, TransportError>,
    ) -> Result<Vec<u8>, TransportError> {
        let t0 = Instant::now();
        let out = f(self.inner.as_mut());
        self.counters
            .recv_wait_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl FrameRx for CountingRx {
    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.timed(|rx| rx.recv())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.timed(|rx| rx.recv_timeout(timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_net::mpsc_world;

    #[test]
    fn counts_frames_and_bytes_and_passes_payloads_through() {
        let counters = Arc::new(Counters::default());
        let mut world: Vec<CountingTransport> = mpsc_world(2)
            .into_iter()
            .map(|t| CountingTransport::new(Box::new(t), Arc::clone(&counters)))
            .collect();
        let mut tx = world[0].open_send(1, 1).expect("send side");
        let mut rx = world[1].open_recv(0, 1).expect("recv side");
        tx.send(b"abc").expect("send");
        tx.send(b"de").expect("send");
        assert_eq!(rx.recv().expect("frame"), b"abc");
        assert_eq!(rx.recv().expect("frame"), b"de");
        let s = counters.snapshot();
        assert_eq!((s.frames, s.bytes), (2, 5));
        let later = counters.snapshot();
        assert_eq!(later.since(&s).frames, 0);
    }
}
