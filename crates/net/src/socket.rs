//! The socket backend: one implementation generic over TCP and Unix
//! domain sockets.
//!
//! Each rank binds one listener. Data connections are opened lazily by
//! the sender (one connection per directed rank pair, all channels
//! multiplexed over it). The acceptor verifies the handshake, installs
//! the inbound stream in the sending peer's [`Inbox`] and is done with
//! it: no thread sits on a connection. A receiver reads its peer's
//! connection on its own thread — whoever holds the stream reads it,
//! frames for other channels (opened yet or not) wait in per-channel
//! queues, and queued frames are delivered before a dead or corrupt
//! connection is reported as [`TransportError::PeerClosed`] or
//! [`TransportError::FrameCorrupt`]. A peer that reconnects (its last
//! handshake failed on its side) replaces its earlier connection.
//!
//! Sends never wait on the peer. Outbound streams are nonblocking: a
//! frame the kernel will not take whole goes, with every frame after
//! it, to an ordered backlog that a writer thread — spawned on the
//! connection's first overflow — drains. Two ranks writing to each
//! other before either reads therefore cannot deadlock, however large
//! the frames. Shutdown drains every backlog while its peer keeps
//! reading, and abandons one that has taken no byte for the handshake
//! timeout: a peer that stopped reading delays teardown, never hangs it.

use crate::error::TransportError;
use crate::frame::{
    read_frame, write_frame, write_frame_with, FrameError, FrameReader, Handshake, CTRL_CHAN,
    FRAME_OVERHEAD, HS_CHAN,
};
use crate::throttle::TokenBucket;
use crate::{FrameRx, FrameTx, Transport, TransportKind};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Timeouts and shaping knobs for a socket endpoint.
#[derive(Debug, Clone, Copy)]
pub struct SocketOptions {
    /// How long a lazy connect retries before giving up (covers peers
    /// that have not bound their listener yet).
    pub connect_timeout: Duration,
    /// How long either side of a handshake waits for the other.
    pub handshake_timeout: Duration,
    /// Outgoing bandwidth cap in megabits per second (TCP only; the
    /// checker rejects it elsewhere as `AC0703`). The cap models the
    /// rank's NIC: all connections of the endpoint share one bucket.
    pub link_mbps: Option<f64>,
    /// Restart generation of the run. Carried in every handshake and
    /// enforced by the acceptor, so a worker left over from a fenced
    /// generation cannot feed stale frames into a recovered run.
    pub epoch: u32,
}

impl Default for SocketOptions {
    fn default() -> Self {
        SocketOptions {
            connect_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(10),
            link_mbps: None,
            epoch: 0,
        }
    }
}

/// The longest one blocking read (or backlog write) on a peer's
/// connection lasts before its thread re-checks its own deadline.
const MAX_IO_WAIT: Duration = Duration::from_secs(1);

/// A listener of either flavor.
pub(crate) enum ListenerInner {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener),
}

/// A connected stream of either flavor.
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Stream::Uds(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(t),
            #[cfg(unix)]
            Stream::Uds(s) => s.set_write_timeout(t),
        }
    }

    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(on),
            #[cfg(unix)]
            Stream::Uds(s) => s.set_nonblocking(on),
        }
    }

    fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Uds(s) => s.try_clone().map(Stream::Uds),
        }
    }

    /// Hard-closes both directions — the fault-injection `sever` hook.
    fn shutdown_both(&self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            #[cfg(unix)]
            Stream::Uds(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.write(buf),
        }
    }

    /// Forwarded so a frame's three slices reach the kernel as one
    /// `writev` (the default would write only the first).
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            #[cfg(unix)]
            Stream::Uds(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Uds(s) => s.flush(),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One peer's inbound connection, shared by every receiver of that
/// peer's channels.
#[derive(Default)]
struct Inbox {
    state: Mutex<InboxState>,
    /// Wakes waiting receivers: a frame was queued, the connection was
    /// installed or handed back, or it died.
    ready: Condvar,
}

#[derive(Default)]
struct InboxState {
    /// How many connections the peer has had admitted; a receiver that
    /// reads an older one than the latest drops it.
    generation: u64,
    /// The connection, while no receiver is reading it.
    conn: Option<InConn>,
    /// Frames read for channels other than their reader's, in order.
    queues: HashMap<u16, VecDeque<Vec<u8>>>,
    /// Why the connection ended, once it has; reported after the queues
    /// drain.
    dead: Option<TransportError>,
    /// Receivers blocked on [`Inbox::ready`]; nobody is woken when zero.
    waiting: usize,
}

/// Every rank's inbox, indexed by the sending rank.
type Inboxes = Arc<[Inbox]>;

/// A handshaken inbound connection and the frame being read off it.
struct InConn {
    /// Buffered, so a frame's header and trailer — and whole runs of
    /// small frames — share a syscall; a payload larger than the buffer
    /// is read straight into its `Vec` once the buffer drains.
    stream: BufReader<Stream>,
    /// Keeps a frame a timeout interrupted, for the next reader.
    frame: FrameReader,
    /// The read timeout armed on the socket.
    timeout: Duration,
}

impl InConn {
    /// Reads the next frame, blocking at most about `wait` for bytes.
    fn read(&mut self, wait: Duration) -> Result<(u16, Vec<u8>), FrameError> {
        if self.timeout != wait {
            self.stream.get_ref().set_read_timeout(Some(wait))?;
            self.timeout = wait;
        }
        self.frame.read(&mut self.stream)
    }
}

/// Monotonic suffix for Unix socket paths within one process.
static UDS_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Owns a bound Unix-socket path and unlinks it on drop, so a worker
/// that panics (or a transport dropped on any error path) never leaks
/// a stale socket file for the next run to trip over.
struct UdsPathGuard(PathBuf);

impl Drop for UdsPathGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Binds a Unix listener at `path`, reclaiming a stale path left by an
/// abnormally killed process: if the bind hits `AddrInUse` but nobody
/// answers a probe connect, the file is a leftover — unlink and retry.
/// A live listener on the path keeps the original error.
#[cfg(unix)]
fn bind_uds(path: &std::path::Path) -> std::io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            match UnixStream::connect(path) {
                // Someone is actually listening: a genuine collision.
                Ok(_) => Err(e),
                Err(_) => {
                    std::fs::remove_file(path)?;
                    UnixListener::bind(path)
                }
            }
        }
        other => other,
    }
}

/// One rank's socket endpoint (TCP or Unix domain).
///
/// Build with [`SocketTransport::bind`], exchange addresses out of
/// band, install the peer table with [`SocketTransport::set_peer`],
/// then open channels through the [`Transport`] trait.
pub struct SocketTransport {
    kind: TransportKind,
    rank: usize,
    world: usize,
    config_hash: u64,
    opts: SocketOptions,
    addr: String,
    peers: Vec<Option<String>>,
    inboxes: Inboxes,
    conns: HashMap<usize, Arc<Outbound>>,
    bucket: Option<Arc<Mutex<TokenBucket>>>,
    accept_handle: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    uds_path: Option<UdsPathGuard>,
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SocketTransport({} rank {}/{} at {})",
            self.kind, self.rank, self.world, self.addr
        )
    }
}

impl SocketTransport {
    /// Binds this rank's listener (an ephemeral loopback port for TCP,
    /// a fresh temp-dir socket file for UDS) and starts accepting.
    ///
    /// `config_hash` must be identical on every rank of the run; the
    /// handshake enforces it.
    pub fn bind(
        kind: TransportKind,
        rank: usize,
        world: usize,
        config_hash: u64,
        opts: SocketOptions,
    ) -> Result<SocketTransport, TransportError> {
        let (listener, addr, uds_path) = match kind {
            TransportKind::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0")
                    .map_err(|e| TransportError::io("binding a loopback TCP listener", &e))?;
                let a = l
                    .local_addr()
                    .map_err(|e| TransportError::io("reading the bound TCP address", &e))?;
                (ListenerInner::Tcp(l), a.to_string(), None)
            }
            #[cfg(unix)]
            TransportKind::Uds => {
                let path = std::env::temp_dir().join(format!(
                    "actcomp-{}-{}-{}.sock",
                    std::process::id(),
                    rank,
                    UDS_COUNTER.fetch_add(1, Ordering::Relaxed),
                ));
                let l = bind_uds(&path).map_err(|e| {
                    TransportError::io(format!("binding unix socket {}", path.display()), &e)
                })?;
                let a = path.display().to_string();
                (ListenerInner::Uds(l), a, Some(UdsPathGuard(path)))
            }
            #[cfg(not(unix))]
            TransportKind::Uds => {
                return Err(TransportError::BadAddress {
                    addr: String::new(),
                    reason: "unix domain sockets are unavailable on this platform".to_string(),
                })
            }
            TransportKind::Mpsc => {
                return Err(TransportError::UnknownTransport(
                    "mpsc is not a socket transport; use actcomp_net::mpsc_world".to_string(),
                ))
            }
        };
        let inboxes: Inboxes = (0..world).map(|_| Inbox::default()).collect();
        let stop = Arc::new(AtomicBool::new(false));
        let accept_handle = spawn_acceptor(
            listener,
            Arc::clone(&inboxes),
            Arc::clone(&stop),
            config_hash,
            opts.epoch,
            opts.handshake_timeout,
        );
        Ok(SocketTransport {
            kind,
            rank,
            world,
            config_hash,
            opts,
            addr,
            peers: (0..world).map(|_| None).collect(),
            inboxes,
            conns: HashMap::new(),
            bucket: opts
                .link_mbps
                .map(|m| Arc::new(Mutex::new(TokenBucket::from_mbps(m)))),
            accept_handle: Some(accept_handle),
            stop,
            uds_path,
        })
    }

    /// The address peers connect to (host:port for TCP, a filesystem
    /// path for UDS).
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Records where rank `peer` listens; required before the first
    /// `open_send` to that rank.
    pub fn set_peer(&mut self, peer: usize, addr: String) {
        if peer < self.peers.len() {
            self.peers[peer] = Some(addr);
        }
    }

    /// Opens (or reuses) the data connection to `to`, performing the
    /// handshake on first use.
    fn ensure_conn(&mut self, to: usize) -> Result<Arc<Outbound>, TransportError> {
        if let Some(c) = self.conns.get(&to) {
            return Ok(Arc::clone(c));
        }
        let addr = self.peers.get(to).and_then(|a| a.clone()).ok_or_else(|| {
            TransportError::BadAddress {
                addr: String::new(),
                reason: format!("no address recorded for rank {to} (peer table not installed?)"),
            }
        })?;
        let mut stream = connect_retry(self.kind, &addr, to, self.opts.connect_timeout)?;
        // Handshake: prove both ends run the same world, config, and
        // restart generation.
        let hs = Handshake {
            world: self.world as u32,
            from: self.rank as u32,
            config_hash: self.config_hash,
            epoch: self.opts.epoch,
        };
        write_frame(&mut stream, HS_CHAN, &hs.encode())
            .map_err(|e| TransportError::io(format!("handshaking with rank {to}"), &e))?;
        stream
            .set_read_timeout(Some(self.opts.handshake_timeout))
            .map_err(|e| TransportError::io("arming the handshake timeout", &e))?;
        let (chan, ack) = read_frame(&mut stream).map_err(|e| match e {
            FrameError::Io(e) if is_timeout(&e) => TransportError::Timeout {
                what: format!("handshake ack from rank {to}"),
                after: self.opts.handshake_timeout,
            },
            FrameError::Io(e) => {
                TransportError::io(format!("reading handshake ack from rank {to}"), &e)
            }
            corrupt => corrupt.into_transport("reading a handshake ack"),
        })?;
        if chan != HS_CHAN || ack.is_empty() {
            return Err(TransportError::BadFrame {
                what: format!("handshake ack on channel {chan}"),
            });
        }
        if ack[0] != 0 {
            return Err(TransportError::HandshakeRejected {
                reason: String::from_utf8_lossy(&ack[1..]).into_owned(),
            });
        }
        stream
            .set_nonblocking(true)
            .map_err(|e| TransportError::io("making the data connection nonblocking", &e))?;
        let conn = Arc::new(Outbound {
            to,
            stall: self.opts.handshake_timeout,
            state: Mutex::new(OutState {
                stream,
                backlog: VecDeque::new(),
                draining: false,
                closing: false,
                failed: None,
                writer: None,
            }),
            work: Condvar::new(),
        });
        self.conns.insert(to, Arc::clone(&conn));
        Ok(conn)
    }
}

impl Transport for SocketTransport {
    fn kind(&self) -> TransportKind {
        self.kind
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn open_send(&mut self, to: usize, chan: u16) -> Result<Box<dyn FrameTx>, TransportError> {
        if chan >= CTRL_CHAN {
            return Err(TransportError::BadFrame {
                what: format!("application channel {chan} collides with a reserved channel"),
            });
        }
        if chan == 0 {
            return Err(TransportError::BadFrame {
                what: "channel 0 is reserved (corrupt-header sentinel)".to_string(),
            });
        }
        let out = self.ensure_conn(to)?;
        Ok(Box::new(SocketTx {
            out,
            chan,
            bucket: self.bucket.as_ref().map(Arc::clone),
        }))
    }

    fn open_recv(&mut self, from: usize, chan: u16) -> Result<Box<dyn FrameRx>, TransportError> {
        if from >= self.world {
            return Err(TransportError::BadAddress {
                addr: from.to_string(),
                reason: format!("rank out of range (world {})", self.world),
            });
        }
        Ok(Box::new(SocketRx {
            inboxes: Arc::clone(&self.inboxes),
            from,
            chan,
        }))
    }

    fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor with a throwaway connection; it checks the
        // stop flag after every accept.
        match self.kind {
            TransportKind::Tcp => {
                let _ = TcpStream::connect(&self.addr);
            }
            #[cfg(unix)]
            TransportKind::Uds => {
                let _ = UnixStream::connect(&self.addr);
            }
            _ => {}
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Whatever was sent still arrives while its peer reads: the
        // writers drain their backlogs side by side, each giving up once
        // its peer has taken no byte for `Outbound::stall`. Closing our
        // write sides then EOFs the peers' receivers; the path guard
        // unlinks the socket file.
        let writers: Vec<_> = self
            .conns
            .values()
            .filter_map(|out| {
                let writer = {
                    let mut st = lock(&out.state);
                    st.closing = true;
                    st.writer.take()
                };
                out.work.notify_one();
                writer
            })
            .collect();
        for w in writers {
            let _ = w.join();
        }
        self.conns.clear();
        self.uds_path = None;
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Whether an I/O error is a read-timeout expiry (platform-dependent
/// kind).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Connects to `addr`, retrying connection-refused / not-found with
/// bounded exponential backoff until the deadline (the peer may not
/// have bound its listener yet, or may be restarting after a fault).
fn connect_retry(
    kind: TransportKind,
    addr: &str,
    to: usize,
    timeout: Duration,
) -> Result<Stream, TransportError> {
    // `usize::MAX` is the control plane (no rank yet).
    let who = if to == usize::MAX {
        "the control endpoint".to_string()
    } else {
        format!("rank {to}")
    };
    let deadline = Instant::now() + timeout;
    let mut backoff = Duration::from_millis(2);
    loop {
        let attempt: std::io::Result<Stream> = match kind {
            TransportKind::Tcp => TcpStream::connect(addr).map(|s| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            #[cfg(unix)]
            TransportKind::Uds => UnixStream::connect(addr).map(Stream::Uds),
            _ => {
                return Err(TransportError::UnknownTransport(
                    "mpsc has no socket address".to_string(),
                ))
            }
        };
        match attempt {
            Ok(s) => return Ok(s),
            Err(e) => {
                let retryable = matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused
                        | std::io::ErrorKind::NotFound
                        | std::io::ErrorKind::ConnectionReset
                );
                if !retryable {
                    return Err(TransportError::io(
                        format!("connecting to {who} at {addr}"),
                        &e,
                    ));
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(TransportError::Timeout {
                        what: format!("connecting to {who} at {addr}"),
                        after: timeout,
                    });
                }
                // Bounded exponential backoff: fast while the peer is
                // milliseconds from binding, polite while it restarts.
                std::thread::sleep(backoff.min(deadline - now));
                backoff = (backoff * 2).min(Duration::from_millis(250));
            }
        }
    }
}

/// Spawns the accept loop. Each inbound connection gets a short-lived
/// thread that handshakes it (so a slow peer never stalls the accept
/// loop), installs it in the peer's inbox and exits.
fn spawn_acceptor(
    listener: ListenerInner,
    inboxes: Inboxes,
    stop: Arc<AtomicBool>,
    config_hash: u64,
    epoch: u32,
    handshake_timeout: Duration,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("actcomp-net-accept".to_string())
        .spawn(move || loop {
            let stream = match &listener {
                ListenerInner::Tcp(l) => l.accept().map(|(s, _)| {
                    let _ = s.set_nodelay(true);
                    Stream::Tcp(s)
                }),
                #[cfg(unix)]
                ListenerInner::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)),
            };
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => {
                    // Transient accept failure; don't spin.
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
            };
            let inboxes = Arc::clone(&inboxes);
            let _ = std::thread::Builder::new()
                .name("actcomp-net-handshake".to_string())
                .spawn(move || {
                    admit(stream, &inboxes, config_hash, epoch, handshake_timeout);
                });
        })
        .expect("spawn acceptor thread")
}

/// Handshakes one inbound connection and installs it in its peer's
/// inbox, where receivers read it.
fn admit(
    stream: Stream,
    inboxes: &[Inbox],
    config_hash: u64,
    epoch: u32,
    handshake_timeout: Duration,
) {
    // The buffer goes into the inbox with the stream: it may already
    // hold the first frames after the handshake.
    let mut conn = BufReader::new(stream);
    if conn
        .get_ref()
        .set_read_timeout(Some(handshake_timeout))
        .is_err()
    {
        return;
    }
    let from = match accept_handshake(&mut conn, inboxes.len(), config_hash, epoch) {
        Ok(from) => from,
        Err(reason) => {
            // Best-effort rejection; the connector surfaces it as
            // HandshakeRejected.
            let mut ack = vec![1u8];
            ack.extend_from_slice(reason.to_string().as_bytes());
            let _ = write_frame(conn.get_mut(), HS_CHAN, &ack);
            return;
        }
    };
    let Ok(mut ack) = conn.get_ref().try_clone() else {
        return;
    };
    // Installed before the ack, so the connector's first frame finds it.
    // A sender connects again only after its last handshake failed on
    // its side, so the connection this one replaces carried no frame.
    let inbox = &inboxes[from];
    {
        let mut st = lock(&inbox.state);
        st.generation += 1;
        st.conn = Some(InConn {
            stream: conn,
            frame: FrameReader::default(),
            timeout: handshake_timeout,
        });
        st.dead = None;
        inbox.ready.notify_all();
    }
    // A connector gone by now reports its own failure; its receivers
    // read the end of the connection.
    let _ = write_frame(&mut ack, HS_CHAN, &[0u8]);
}

/// Reads and validates the handshake frame, returning the peer rank.
fn accept_handshake(
    stream: &mut impl Read,
    world: usize,
    config_hash: u64,
    epoch: u32,
) -> Result<usize, TransportError> {
    let (chan, payload) =
        read_frame(stream).map_err(|e| e.into_transport("reading a handshake"))?;
    if chan != HS_CHAN {
        return Err(TransportError::BadFrame {
            what: format!("first frame on channel {chan} (expected the handshake channel)"),
        });
    }
    let hs = Handshake::decode(&payload)?;
    if hs.world as usize != world {
        return Err(TransportError::HandshakeMismatch {
            field: "world",
            ours: world as u64,
            theirs: u64::from(hs.world),
        });
    }
    if hs.config_hash != config_hash {
        return Err(TransportError::HandshakeMismatch {
            field: "config_hash",
            ours: config_hash,
            theirs: hs.config_hash,
        });
    }
    if hs.epoch != epoch {
        // The fencing check: a peer from another restart generation
        // (usually a stale worker the supervisor already replaced) is
        // refused before any of its frames can reach a receiver.
        return Err(TransportError::HandshakeMismatch {
            field: "epoch",
            ours: u64::from(epoch),
            theirs: u64::from(hs.epoch),
        });
    }
    if hs.from as usize >= world {
        return Err(TransportError::HandshakeMismatch {
            field: "rank",
            ours: world as u64,
            theirs: u64::from(hs.from),
        });
    }
    Ok(hs.from as usize)
}

fn peer_closed(rank: usize, what: &str) -> TransportError {
    TransportError::PeerClosed {
        rank: Some(rank),
        what: what.to_string(),
    }
}

/// A failed write, typed: a vanished peer is [`TransportError::PeerClosed`].
fn send_error(e: &std::io::Error, to: usize) -> TransportError {
    match e.kind() {
        std::io::ErrorKind::BrokenPipe
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::UnexpectedEof => peer_closed(to, "sending a frame"),
        _ => TransportError::io(format!("sending a frame to rank {to}"), e),
    }
}

/// One outbound connection, shared by every channel to its peer.
struct Outbound {
    to: usize,
    /// How long a closing endpoint's writer waits on a peer that takes
    /// no byte before it abandons the backlog.
    stall: Duration,
    state: Mutex<OutState>,
    /// Wakes the writer: the backlog grew, or the endpoint is closing.
    work: Condvar,
}

struct OutState {
    /// Nonblocking, except while the writer drains the backlog.
    stream: Stream,
    /// Frame bytes the kernel has not taken yet, in send order. While
    /// it is nonempty (or the writer is writing) every send queues
    /// behind it.
    backlog: VecDeque<Vec<u8>>,
    /// Whether the writer holds a buffer it took off the backlog.
    draining: bool,
    /// Set at shutdown: the writer exits once the backlog is empty, or
    /// once its peer has stalled for [`Outbound::stall`].
    closing: bool,
    /// Why the writer stopped; every later send reports it.
    failed: Option<TransportError>,
    /// Spawned on the first frame the kernel would not take whole.
    writer: Option<JoinHandle<()>>,
}

/// The writer thread: writes the backlog in order, with the stream in
/// blocking mode while there is one.
fn drain(out: &Outbound, mut stream: Stream) {
    let mut st = lock(&out.state);
    loop {
        let Some(buf) = st.backlog.pop_front() else {
            if st.closing {
                return;
            }
            st = out.work.wait(st).unwrap_or_else(|e| e.into_inner());
            continue;
        };
        st.draining = true;
        drop(st);
        // Senders queue while `draining` is set, so the mode can flip
        // outside the lock.
        let wrote = stream
            .set_nonblocking(false)
            .and_then(|()| write_while_taken(out, &mut stream, &buf));
        st = lock(&out.state);
        let wrote = wrote.and_then(|()| {
            if st.backlog.is_empty() {
                st.draining = false;
                stream.set_nonblocking(true)?;
            }
            Ok(())
        });
        if let Err(e) = wrote {
            st.failed = Some(if is_timeout(&e) {
                TransportError::Timeout {
                    what: format!("rank {} to read frames sent before shutdown", out.to),
                    after: out.stall,
                }
            } else {
                send_error(&e, out.to)
            });
            st.backlog.clear();
            st.draining = false;
            return;
        }
    }
}

/// Writes all of `buf` to a blocking stream whose writes time out after
/// [`MAX_IO_WAIT`]. Waits as long as the endpoint is open; once it is
/// closing, fails with a timeout when the peer has taken no byte for
/// [`Outbound::stall`].
fn write_while_taken(out: &Outbound, stream: &mut Stream, mut buf: &[u8]) -> std::io::Result<()> {
    let mut progress = Instant::now();
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                buf = &buf[n..];
                progress = Instant::now();
            }
            Err(e) if is_timeout(&e) => {
                if progress.elapsed() >= out.stall && lock(&out.state).closing {
                    return Err(e);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The sending end of one channel over a shared socket connection.
struct SocketTx {
    out: Arc<Outbound>,
    chan: u16,
    bucket: Option<Arc<Mutex<TokenBucket>>>,
}

impl SocketTx {
    /// Sends one frame, optionally with a deliberately broken CRC
    /// trailer (`crc_flip != 0` — the fault-injection path). Returns
    /// once the frame is in the kernel or in the backlog.
    fn send_with(&mut self, payload: &[u8], crc_flip: u32) -> Result<(), TransportError> {
        if let Some(bucket) = &self.bucket {
            // Debit under the lock, sleep outside it so concurrent
            // senders are shaped collectively without serializing.
            let wait = lock(bucket).debit(payload.len() + FRAME_OVERHEAD);
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
        let to = self.out.to;
        let mut st = lock(&self.out.state);
        if let Some(e) = &st.failed {
            return Err(e.clone());
        }
        let rest = if st.backlog.is_empty() && !st.draining {
            write_frame_with(&mut st.stream, self.chan, payload, crc_flip)
        } else {
            let mut frame = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
            write_frame_with(&mut frame, self.chan, payload, crc_flip).map(|_| Some(frame))
        };
        match rest.map_err(|e| send_error(&e, to))? {
            None => return Ok(()),
            Some(rest) => st.backlog.push_back(rest),
        }
        if st.writer.is_none() {
            // Each blocking write is bounded, so a stalled peer is noticed.
            let stream = (st.stream.try_clone())
                .and_then(|s| s.set_write_timeout(Some(MAX_IO_WAIT)).map(|()| s))
                .map_err(|e| TransportError::io(format!("cloning the link to rank {to}"), &e))?;
            let out = Arc::clone(&self.out);
            let writer = std::thread::Builder::new()
                .name("actcomp-net-write".to_string())
                .spawn(move || drain(&out, stream))
                .map_err(|e| TransportError::io("spawning a socket writer", &e))?;
            st.writer = Some(writer);
        }
        self.out.work.notify_one();
        Ok(())
    }
}

impl FrameTx for SocketTx {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.send_with(payload, 0)
    }

    fn send_corrupt(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.send_with(payload, 0xA5A5_A5A5)
    }

    fn sever(&mut self) -> Result<(), TransportError> {
        lock(&self.out.state).stream.shutdown_both().map_err(|e| {
            TransportError::io(format!("severing the link to rank {}", self.out.to), &e)
        })
    }
}

/// The receiving end of one channel: reads its peer's connection on
/// the calling thread whenever no other receiver of that peer is.
struct SocketRx {
    inboxes: Inboxes,
    from: usize,
    chan: u16,
}

impl SocketRx {
    /// The next frame on this channel, waiting until `deadline` (`None`:
    /// for ever); `timeout` only labels the error.
    fn recv_until(
        &mut self,
        deadline: Option<Instant>,
        timeout: Duration,
    ) -> Result<Vec<u8>, TransportError> {
        let inbox = &self.inboxes[self.from];
        let mut st = lock(&inbox.state);
        loop {
            if let Some(frame) = st.queues.get_mut(&self.chan).and_then(VecDeque::pop_front) {
                return Ok(frame);
            }
            if let Some(e) = &st.dead {
                return Err(e.clone());
            }
            let wait = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => MAX_IO_WAIT,
                Some(left) if left.is_zero() => {
                    return Err(TransportError::Timeout {
                        what: format!("a frame from rank {}", self.from),
                        after: timeout,
                    })
                }
                Some(left) => left.min(MAX_IO_WAIT),
            };
            let Some(mut conn) = st.conn.take() else {
                // Another receiver is reading, or the peer has not
                // connected yet: wait to be handed a frame or the stream.
                st.waiting += 1;
                st = (inbox.ready.wait_timeout(st, wait))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
                st.waiting -= 1;
                continue;
            };
            let generation = st.generation;
            drop(st);
            let read = conn.read(wait);
            st = lock(&inbox.state);
            // A reconnect while this thread read: the old link is done
            // with, and its end is no news.
            let current = st.generation == generation;
            match read {
                Ok((chan, frame)) => {
                    if current {
                        st.conn = Some(conn);
                    }
                    if chan == self.chan {
                        if st.waiting > 0 {
                            inbox.ready.notify_all();
                        }
                        return Ok(frame);
                    }
                    st.queues.entry(chan).or_default().push_back(frame);
                }
                // The frame reader keeps a partial frame for whoever
                // reads next.
                Err(_) if !current => {}
                Err(FrameError::Io(e)) if is_timeout(&e) => st.conn = Some(conn),
                Err(FrameError::Corrupt(what)) => {
                    // Frame alignment is lost; the connection is dead.
                    let _ = conn.stream.get_ref().shutdown_both();
                    st.dead = Some(TransportError::FrameCorrupt { what });
                }
                Err(FrameError::Io(_)) => {
                    st.dead = Some(peer_closed(self.from, "receiving a frame"));
                }
            }
            if st.waiting > 0 {
                inbox.ready.notify_all();
            }
        }
    }
}

impl FrameRx for SocketRx {
    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.recv_until(None, Duration::MAX)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.recv_until(Instant::now().checked_add(timeout), timeout)
    }
}

/// Stream/listener plumbing shared with the control plane
/// ([`crate::CtrlConn`]): same socket flavors, no demux.
pub(crate) mod ctrl_stream {
    use super::*;

    /// A control listener (nonblocking, polled with a deadline).
    pub(crate) struct CtrlListenerInner {
        listener: ListenerInner,
        /// Held only for its Drop (unlinks the socket file).
        _uds_path: Option<UdsPathGuard>,
    }

    impl CtrlListenerInner {
        /// Binds a listener for `kind`, returning it with its address.
        pub(crate) fn bind(kind: TransportKind) -> Result<(Self, String), TransportError> {
            let (listener, addr, uds_path) = match kind {
                TransportKind::Tcp => {
                    let l = TcpListener::bind("127.0.0.1:0")
                        .map_err(|e| TransportError::io("binding a control listener", &e))?;
                    let a = l
                        .local_addr()
                        .map_err(|e| TransportError::io("reading the control address", &e))?;
                    l.set_nonblocking(true)
                        .map_err(|e| TransportError::io("arming nonblocking accept", &e))?;
                    (ListenerInner::Tcp(l), a.to_string(), None)
                }
                #[cfg(unix)]
                TransportKind::Uds => {
                    let path = std::env::temp_dir().join(format!(
                        "actcomp-ctrl-{}-{}.sock",
                        std::process::id(),
                        UDS_COUNTER.fetch_add(1, Ordering::Relaxed),
                    ));
                    let l = bind_uds(&path).map_err(|e| {
                        TransportError::io(format!("binding control socket {}", path.display()), &e)
                    })?;
                    l.set_nonblocking(true)
                        .map_err(|e| TransportError::io("arming nonblocking accept", &e))?;
                    let a = path.display().to_string();
                    (ListenerInner::Uds(l), a, Some(UdsPathGuard(path)))
                }
                #[cfg(not(unix))]
                TransportKind::Uds => {
                    return Err(TransportError::BadAddress {
                        addr: String::new(),
                        reason: "unix domain sockets are unavailable on this platform".to_string(),
                    })
                }
                TransportKind::Mpsc => {
                    return Err(TransportError::UnknownTransport(
                        "mpsc has no control listener".to_string(),
                    ))
                }
            };
            Ok((
                CtrlListenerInner {
                    listener,
                    _uds_path: uds_path,
                },
                addr,
            ))
        }

        /// Polls for one inbound connection until `timeout`.
        pub(crate) fn accept(&self, timeout: Duration) -> Result<CtrlStream, TransportError> {
            let deadline = Instant::now() + timeout;
            loop {
                let attempt = match &self.listener {
                    ListenerInner::Tcp(l) => l.accept().map(|(s, _)| {
                        let _ = s.set_nodelay(true);
                        let _ = s.set_nonblocking(false);
                        Stream::Tcp(s)
                    }),
                    #[cfg(unix)]
                    ListenerInner::Uds(l) => l.accept().map(|(s, _)| {
                        let _ = s.set_nonblocking(false);
                        Stream::Uds(s)
                    }),
                };
                match attempt {
                    Ok(s) => return Ok(CtrlStream { stream: s }),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if Instant::now() >= deadline {
                            return Err(TransportError::Timeout {
                                what: "a control connection".to_string(),
                                after: timeout,
                            });
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => return Err(TransportError::io("accepting a control connection", &e)),
                }
            }
        }
    }

    // No Drop impl needed: the UdsPathGuard member unlinks the socket
    // file when the listener drops.

    /// One established control stream. Used strictly sequentially
    /// (send then receive from one thread), so a single stream serves
    /// both directions.
    pub(crate) struct CtrlStream {
        stream: Stream,
    }

    impl CtrlStream {
        /// Dials `addr`, retrying while the listener comes up.
        pub(crate) fn connect(
            kind: TransportKind,
            addr: &str,
            timeout: Duration,
        ) -> Result<CtrlStream, TransportError> {
            let stream = connect_retry(kind, addr, usize::MAX, timeout)?;
            Ok(CtrlStream { stream })
        }

        pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
            self.stream.set_read_timeout(t)
        }

        pub(crate) fn with_read<R>(&mut self, f: impl FnOnce(&mut Stream) -> R) -> R {
            f(&mut self.stream)
        }

        pub(crate) fn with_write<R>(
            &mut self,
            f: impl FnOnce(&mut Stream) -> std::io::Result<R>,
        ) -> std::io::Result<R> {
            f(&mut self.stream)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(kind: TransportKind) -> (SocketTransport, SocketTransport) {
        pair_with(
            kind,
            SocketOptions {
                connect_timeout: Duration::from_secs(5),
                handshake_timeout: Duration::from_secs(5),
                link_mbps: None,
                epoch: 0,
            },
        )
    }

    fn pair_with(kind: TransportKind, opts: SocketOptions) -> (SocketTransport, SocketTransport) {
        let mut a = SocketTransport::bind(kind, 0, 2, 42, opts).expect("bind rank 0");
        let mut b = SocketTransport::bind(kind, 1, 2, 42, opts).expect("bind rank 1");
        let (aa, ba) = (a.local_addr().to_string(), b.local_addr().to_string());
        a.set_peer(1, ba);
        b.set_peer(0, aa);
        (a, b)
    }

    fn frames_flow(kind: TransportKind) {
        let (mut a, mut b) = pair(kind);
        let mut tx = a.open_send(1, 3).expect("send side");
        tx.send(b"early").expect("send before open_recv");
        let mut rx = b.open_recv(0, 3).expect("recv side");
        assert_eq!(rx.recv().expect("buffered frame"), b"early");
        tx.send(b"late").expect("send");
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).expect("frame"),
            b"late"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn tcp_frames_flow_and_buffer() {
        frames_flow(TransportKind::Tcp);
    }

    #[cfg(unix)]
    #[test]
    fn uds_frames_flow_and_buffer() {
        frames_flow(TransportKind::Uds);
    }

    #[test]
    fn config_hash_mismatch_is_rejected() {
        let opts = SocketOptions::default();
        let mut a = SocketTransport::bind(TransportKind::Tcp, 0, 2, 1, opts).expect("bind");
        let b = SocketTransport::bind(TransportKind::Tcp, 1, 2, 2, opts).expect("bind");
        a.set_peer(1, b.local_addr().to_string());
        match a.open_send(1, 1) {
            Err(TransportError::HandshakeRejected { reason }) => {
                assert!(reason.contains("config_hash"), "reason: {reason}");
            }
            Err(other) => panic!("expected a handshake rejection, got {other:?}"),
            Ok(_) => panic!("expected a handshake rejection, got a connection"),
        }
    }

    #[test]
    fn epoch_mismatch_is_fenced_off() {
        // A "stale" epoch-0 endpoint dialing an epoch-1 world: the
        // acceptor must refuse at handshake so no stale frame can ever
        // reach the recovered generation.
        let stale = SocketOptions::default();
        let fresh = SocketOptions {
            epoch: 1,
            ..SocketOptions::default()
        };
        let mut a = SocketTransport::bind(TransportKind::Tcp, 0, 2, 42, stale).expect("bind");
        let b = SocketTransport::bind(TransportKind::Tcp, 1, 2, 42, fresh).expect("bind");
        a.set_peer(1, b.local_addr().to_string());
        match a.open_send(1, 1) {
            Err(TransportError::HandshakeRejected { reason }) => {
                assert!(reason.contains("epoch"), "reason: {reason}");
            }
            Err(other) => panic!("expected an epoch rejection, got {other:?}"),
            Ok(_) => panic!("expected an epoch rejection, got a connection"),
        }
    }

    #[test]
    fn reserved_channels_cannot_be_opened() {
        let (mut a, _b) = pair(TransportKind::Tcp);
        assert!(matches!(
            a.open_send(1, 0),
            Err(TransportError::BadFrame { .. })
        ));
        assert!(matches!(
            a.open_send(1, HS_CHAN),
            Err(TransportError::BadFrame { .. })
        ));
        assert!(matches!(
            a.open_send(1, CTRL_CHAN),
            Err(TransportError::BadFrame { .. })
        ));
    }

    fn corrupt_frames_are_typed(kind: TransportKind) {
        let (mut a, mut b) = pair(kind);
        let mut tx = a.open_send(1, 3).expect("send side");
        let mut rx = b.open_recv(0, 3).expect("recv side");
        tx.send(b"good").expect("send");
        assert_eq!(rx.recv().expect("good frame"), b"good");
        tx.send_corrupt(b"mangled").expect("send corrupt");
        let err = rx.recv_timeout(Duration::from_secs(10)).expect_err("bad");
        assert!(
            matches!(err, TransportError::FrameCorrupt { .. }),
            "got {err:?}"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn tcp_corrupt_frames_are_typed() {
        corrupt_frames_are_typed(TransportKind::Tcp);
    }

    #[cfg(unix)]
    #[test]
    fn uds_corrupt_frames_are_typed() {
        corrupt_frames_are_typed(TransportKind::Uds);
    }

    #[test]
    fn severed_connection_surfaces_as_peer_closed() {
        let (mut a, mut b) = pair(TransportKind::Tcp);
        let mut tx = a.open_send(1, 3).expect("send side");
        let mut rx = b.open_recv(0, 3).expect("recv side");
        tx.send(b"before").expect("send");
        assert_eq!(rx.recv().expect("frame"), b"before");
        tx.sever().expect("sever");
        let err = rx
            .recv_timeout(Duration::from_secs(10))
            .expect_err("severed");
        assert!(err.is_peer_closed(), "got {err:?}");
        a.shutdown();
        b.shutdown();
    }

    #[cfg(unix)]
    #[test]
    fn stale_uds_paths_are_reclaimed() {
        let path = std::env::temp_dir().join(format!(
            "actcomp-stale-{}-{}.sock",
            std::process::id(),
            UDS_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        // Bind and drop without unlinking — exactly what a SIGKILLed
        // worker leaves behind (std does not remove the file on drop).
        drop(UnixListener::bind(&path).expect("first bind"));
        assert!(path.exists(), "precondition: stale socket file remains");
        let reclaimed = bind_uds(&path).expect("stale path taken over");
        drop(reclaimed);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn uds_path_guard_unlinks_on_drop() {
        let path = std::env::temp_dir().join(format!(
            "actcomp-guard-{}-{}.sock",
            std::process::id(),
            UDS_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::write(&path, b"").expect("create");
        assert!(path.exists());
        drop(UdsPathGuard(path.clone()));
        assert!(!path.exists(), "guard must unlink the path");
    }

    #[test]
    fn dead_peer_surfaces_within_the_timeout() {
        let (mut a, mut b) = pair(TransportKind::Tcp);
        let mut tx = a.open_send(1, 1).expect("send side");
        tx.send(b"x").expect("send");
        let mut rx = b.open_recv(0, 1).expect("recv side");
        assert_eq!(rx.recv().expect("frame"), b"x");
        // Kill rank 0 entirely; rank 1's reader sees EOF and the
        // blocked receive wakes with PeerClosed, not a hang.
        drop(tx);
        a.shutdown();
        drop(a);
        let t0 = Instant::now();
        let err = rx
            .recv_timeout(Duration::from_secs(10))
            .expect_err("closed");
        assert!(err.is_peer_closed(), "got {err:?}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "took {:?}",
            t0.elapsed()
        );
        b.shutdown();
    }

    #[test]
    fn connect_to_absent_peer_times_out() {
        let opts = SocketOptions {
            connect_timeout: Duration::from_millis(50),
            ..SocketOptions::default()
        };
        let mut a = SocketTransport::bind(TransportKind::Tcp, 0, 2, 7, opts).expect("bind");
        // A loopback port nobody listens on: bind-then-drop reserves a
        // port that is closed by the time we connect.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").expect("probe bind");
            l.local_addr().expect("probe addr").to_string()
        };
        a.set_peer(1, dead);
        assert!(matches!(
            a.open_send(1, 1),
            Err(TransportError::Timeout { .. })
        ));
    }

    /// Frame `i` of the stream tagged `tag`, `len` bytes long.
    fn numbered(tag: u8, i: usize, len: usize) -> Vec<u8> {
        let mut p = vec![tag; len];
        p[..8].copy_from_slice(&(i as u64).to_le_bytes());
        p
    }

    /// Both ends send 16 MiB in 256 KiB frames before either receives:
    /// far past what the kernel buffers, so each send side must back
    /// its frames up rather than wait for the other to read.
    fn crossed_floods_finish(kind: TransportKind) {
        const FRAMES: usize = 64;
        const LEN: usize = 256 * 1024;
        let (a, b) = pair(kind);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for (mut me, peer, tag) in [(a, 1, 0xA_u8), (b, 0, 0xB)] {
            let done = done_tx.clone();
            std::thread::spawn(move || {
                let mut tx = me.open_send(peer, 5).expect("send side");
                let mut rx = me.open_recv(peer, 5).expect("recv side");
                for i in 0..FRAMES {
                    tx.send(&numbered(tag, i, LEN)).expect("send");
                }
                let theirs = tag ^ 0xA ^ 0xB;
                for i in 0..FRAMES {
                    let got = rx.recv_timeout(Duration::from_secs(30)).expect("frame");
                    assert!(
                        got == numbered(theirs, i, LEN),
                        "frame {i} lost or reordered"
                    );
                }
                drop(tx);
                me.shutdown();
                done.send(()).expect("report");
            });
        }
        drop(done_tx);
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("both directions finish");
        }
    }

    #[test]
    fn tcp_crossed_floods_cannot_deadlock() {
        crossed_floods_finish(TransportKind::Tcp);
    }

    #[cfg(unix)]
    #[test]
    fn uds_crossed_floods_cannot_deadlock() {
        crossed_floods_finish(TransportKind::Uds);
    }

    /// Shutdown delivers a backlog its peer is still reading, and gives
    /// up on one whose peer never reads: endpoints that each owe the
    /// other a backlog, shut down one after the other on one thread,
    /// both return and report the abandoned frames as a `Timeout`.
    fn shutdown_is_bounded(kind: TransportKind) {
        const FRAMES: usize = 32;
        const LEN: usize = 256 * 1024;
        let opts = SocketOptions {
            handshake_timeout: Duration::from_millis(300),
            ..SocketOptions::default()
        };
        let flood = |me: &mut SocketTransport, peer, tag| {
            let mut tx = me.open_send(peer, 5).expect("send side");
            for i in 0..FRAMES {
                tx.send(&numbered(tag, i, LEN)).expect("send");
            }
            tx
        };
        let (mut a, mut b) = pair_with(kind, opts);
        let _tx = flood(&mut a, 1, 0xA);
        let mut rx = b.open_recv(0, 5).expect("recv side");
        let closer = std::thread::spawn(move || a.shutdown());
        for i in 0..FRAMES {
            let got = rx.recv_timeout(Duration::from_secs(10)).expect("frame");
            assert!(got == numbered(0xA, i, LEN), "frame {i} lost or reordered");
        }
        closer.join().expect("draining a reading peer");
        let (mut c, mut d) = pair_with(kind, opts);
        let mut txs = [flood(&mut c, 1, 0xC), flood(&mut d, 0, 0xD)];
        for end in [&mut c, &mut d] {
            let t0 = Instant::now();
            end.shutdown();
            let took = t0.elapsed();
            assert!(took < Duration::from_secs(5), "shutdown took {took:?}");
        }
        for tx in &mut txs {
            let err = tx.send(b"late").expect_err("abandoned");
            assert!(matches!(err, TransportError::Timeout { .. }), "got {err:?}");
        }
        b.shutdown();
    }

    #[test]
    fn tcp_shutdown_is_bounded() {
        shutdown_is_bounded(TransportKind::Tcp);
    }

    #[cfg(unix)]
    #[test]
    fn uds_shutdown_is_bounded() {
        shutdown_is_bounded(TransportKind::Uds);
    }

    /// A handshaken link to `to`, posing as rank 0 of its world.
    fn raw_link(to: &SocketTransport) -> Stream {
        let mut s =
            connect_retry(to.kind, to.local_addr(), 1, Duration::from_secs(5)).expect("connect");
        let hs = Handshake {
            world: to.world as u32,
            from: 0,
            config_hash: to.config_hash,
            epoch: to.opts.epoch,
        };
        write_frame(&mut s, HS_CHAN, &hs.encode()).expect("handshake");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        assert_eq!(read_frame(&mut s).expect("ack"), (HS_CHAN, vec![0]));
        s
    }

    #[test]
    fn a_reconnect_replaces_an_abandoned_link() {
        // Links a sender gave up on after their handshake: the receiver
        // reads the newest, whether it was reading the old one when the
        // new one arrived or had already seen the old one close.
        let (mut a, mut b) = pair(TransportKind::Tcp);
        let abandoned = raw_link(&b);
        let mut rx = b.open_recv(0, 3).expect("recv side");
        let b = Arc::new(Mutex::new(b));
        let dialer = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(200));
                let mut s = raw_link(&lock(&b));
                write_frame(&mut s, 3, b"new").expect("send");
                s
            })
        };
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).expect("frame"),
            b"new"
        );
        drop((abandoned, dialer.join().expect("dialer")));
        assert!(rx.recv().expect_err("closed").is_peer_closed());
        let mut tx = a.open_send(1, 3).expect("reconnect");
        tx.send(b"after").expect("send");
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).expect("frame"),
            b"after"
        );
        a.shutdown();
        lock(&b).shutdown();
    }

    #[test]
    fn two_threads_receive_two_channels_of_one_peer() {
        let (mut a, mut b) = pair(TransportKind::Tcp);
        let mut txs = [3u16, 4].map(|chan| a.open_send(1, chan).expect("send side"));
        let readers: Vec<_> = [3u16, 4]
            .map(|chan| {
                let mut rx = b.open_recv(0, chan).expect("recv side");
                std::thread::spawn(move || {
                    for i in 0..500usize {
                        let got = rx.recv_timeout(Duration::from_secs(10)).expect("frame");
                        assert_eq!(got, numbered(chan as u8, i, 8 + i % 3000));
                    }
                })
            })
            .into();
        for i in 0..500usize {
            for (tx, chan) in txs.iter_mut().zip([3u8, 4]) {
                tx.send(&numbered(chan, i, 8 + i % 3000)).expect("send");
            }
        }
        for r in readers {
            r.join().expect("reader");
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn frames_wait_for_a_channel_opened_later() {
        let (mut a, mut b) = pair(TransportKind::Tcp);
        let mut early = a.open_send(1, 7).expect("send side");
        let mut late = a.open_send(1, 8).expect("send side");
        for i in 0..3 {
            early.send(&numbered(7, i, 16)).expect("send");
        }
        late.send(b"last").expect("send");
        // Reading channel 8 reads past channel 7's frames first.
        let mut rx8 = b.open_recv(0, 8).expect("recv side");
        assert_eq!(rx8.recv().expect("frame"), b"last");
        let mut rx7 = b.open_recv(0, 7).expect("recv side");
        for i in 0..3 {
            assert_eq!(rx7.recv().expect("queued frame"), numbered(7, i, 16));
        }
        // A closed peer reports after its queued frames, not before.
        early.send(b"parting").expect("send");
        drop((early, late));
        a.shutdown();
        let mut rx7 = b.open_recv(0, 7).expect("recv side");
        assert!(rx8.recv().expect_err("closed").is_peer_closed());
        assert_eq!(rx7.recv().expect("queued frame"), b"parting");
        assert!(rx7.recv().expect_err("closed").is_peer_closed());
        b.shutdown();
    }

    #[test]
    fn a_silent_peer_times_out_within_the_deadline() {
        let (mut a, mut b) = pair(TransportKind::Tcp);
        let deadline = Duration::from_millis(150);
        // Before the peer ever connects, then on a connected, quiet link.
        let mut rx = b.open_recv(0, 2).expect("recv side");
        for round in 0..2 {
            let t0 = Instant::now();
            let err = rx.recv_timeout(deadline).expect_err("silent");
            assert!(matches!(err, TransportError::Timeout { .. }), "got {err:?}");
            let took = t0.elapsed();
            assert!(
                took >= deadline && took < Duration::from_secs(2),
                "round {round}: {took:?}"
            );
            let _ = a.open_send(1, 2).expect("connect");
        }
        // The link still works after timing out.
        a.open_send(1, 2)
            .expect("send side")
            .send(b"hi")
            .expect("send");
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).expect("frame"),
            b"hi"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn throttled_sender_is_paced() {
        let opts = SocketOptions {
            link_mbps: Some(80.0), // 10 MB/s
            ..SocketOptions::default()
        };
        let mut a = SocketTransport::bind(TransportKind::Tcp, 0, 2, 9, opts).expect("bind");
        let mut b = SocketTransport::bind(TransportKind::Tcp, 1, 2, 9, SocketOptions::default())
            .expect("bind");
        a.set_peer(1, b.local_addr().to_string());
        b.set_peer(0, a.local_addr().to_string());
        let mut tx = a.open_send(1, 1).expect("send side");
        let mut rx = b.open_recv(0, 1).expect("recv side");
        let payload = vec![0u8; 256 * 1024];
        let t0 = Instant::now();
        for _ in 0..20 {
            tx.send(&payload).expect("send");
        }
        for _ in 0..20 {
            let _ = rx.recv().expect("frame");
        }
        // 5 MB at 10 MB/s ≈ 0.5 s minus the burst allowance.
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(elapsed > 0.3, "throttle not applied: {elapsed:.3}s");
        a.shutdown();
        b.shutdown();
    }
}
