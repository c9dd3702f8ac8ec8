//! The wire format: length-prefixed, CRC-trailed frames and the
//! connection handshake.
//!
//! Every frame carries a CRC32 trailer over its header and payload, so
//! wire corruption surfaces as a typed [`FrameError::Corrupt`] instead
//! of a garbage decode downstream. The header is validated *before*
//! any allocation: a hostile length prefix (over the 1 GiB cap) or a
//! frame on the reserved channel 0 is rejected without trusting it.

use crate::error::TransportError;
use std::io::{IoSlice, Read, Write};

/// The reserved handshake channel; application channels must be below
/// this.
pub const HS_CHAN: u16 = u16::MAX;

/// The reserved control-plane channel (launcher ↔ worker frames).
pub(crate) const CTRL_CHAN: u16 = u16::MAX - 1;

/// Wire protocol version carried in every handshake. Version 2 added
/// the CRC32 frame trailer and the generation `epoch` to the
/// handshake.
pub const PROTOCOL_VERSION: u16 = 2;

/// `"ACNT"` — first bytes of every handshake payload.
const MAGIC: u32 = 0x4143_4E54;

/// Upper bound on a frame payload (1 GiB): anything larger is treated
/// as stream corruption rather than an allocation request.
const MAX_FRAME: usize = 1 << 30;

/// The most payload capacity [`read_frame`] reserves on the word of a
/// frame header alone (1 MiB — above every frame the ring collectives
/// emit, so honest frames are allocated once, exactly).
const PAYLOAD_PREALLOC_CAP: usize = 1 << 20;

/// Bytes a frame adds around its payload: 6-byte header + 4-byte CRC
/// trailer.
pub const FRAME_OVERHEAD: usize = 10;

/// Reflected IEEE polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `CRC_TABLES[0]`
/// is the classic byte-at-a-time table; `CRC_TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes, which is what lets
/// eight input bytes fold into the state with eight independent loads.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// Buffers this long and longer are checksummed in four lanes.
const LANES_MIN: usize = 2048;

/// `X2N[k]` is `x^(2^k) mod P` in the reflected representation (bit 31
/// is `x^0`), built at compile time. Products of these entries shift a
/// CRC state past any number of zero bytes, which is how the four lanes
/// of [`crc32`] are joined.
static X2N: [u32; 64] = {
    let mut t = [0u32; 64];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 64 {
        t[k] = p;
        p = mulmod(p, p);
        k += 1;
    }
    t
};

/// `a · b mod P` over GF(2), both in the reflected representation.
const fn mulmod(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        b = (b >> 1) ^ (CRC_POLY & (b & 1).wrapping_neg());
        m >>= 1;
    }
    p
}

/// `x^(8n) mod P`: multiplying a CRC state by it feeds `n` zero bytes.
fn shift_bytes(n: usize) -> u32 {
    let mut bits = (n as u64) * 8;
    let mut p = 1u32 << 31; // x^0
    let mut k = 0;
    while bits != 0 {
        if bits & 1 != 0 {
            p = mulmod(X2N[k], p);
        }
        bits >>= 1;
        k += 1;
    }
    p
}

/// Folds eight bytes into a (non-inverted) CRC state.
#[inline(always)]
fn fold8(crc: u32, w: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Slicing-by-8 over `bytes`, from and to a non-inverted state.
fn crc_serial(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        crc = fold8(crc, w);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// Four slicing-by-8 streams over the four equal lanes of `bytes` (a
/// multiple of 32 long), interleaved so their table loads overlap. The
/// state is linear, so a lane run from zero continues the lanes before
/// it once their state is shifted past the lane's bytes.
fn crc_lanes(crc: u32, bytes: &[u8]) -> u32 {
    let lane = bytes.len() / 4;
    let (l0, rest) = bytes.split_at(lane);
    let (l1, rest) = rest.split_at(lane);
    let (l2, l3) = rest.split_at(lane);
    let mut c = [crc, 0, 0, 0];
    let words = (l0.chunks_exact(8).zip(l1.chunks_exact(8)))
        .zip(l2.chunks_exact(8).zip(l3.chunks_exact(8)));
    for ((w0, w1), (w2, w3)) in words {
        c[0] = fold8(c[0], w0);
        c[1] = fold8(c[1], w1);
        c[2] = fold8(c[2], w2);
        c[3] = fold8(c[3], w3);
    }
    let shift = shift_bytes(lane);
    c[1..].iter().fold(c[0], |acc, &ci| mulmod(acc, shift) ^ ci)
}

/// IEEE CRC32 (reflected, polynomial `0xEDB88320`) over `bytes`,
/// continuing from `seed` (start with `0` for a fresh checksum).
///
/// Table-driven slicing-by-8: every payload byte is checksummed on
/// send and again on receive, so this loop is on the per-frame hot
/// path. From 2048 bytes (`LANES_MIN`) on, the bulk runs as four
/// interleaved streams; the result is bit-identical either way.
/// Public so checkpoint shards can reuse the exact wire checksum.
pub fn crc32(seed: u32, bytes: &[u8]) -> u32 {
    let mut crc = !seed;
    let mut rest = bytes;
    if bytes.len() >= LANES_MIN {
        let (bulk, tail) = bytes.split_at(bytes.len() & !31);
        crc = crc_lanes(crc, bulk);
        rest = tail;
    }
    !crc_serial(crc, rest)
}

/// What can go wrong reading a frame: a plain I/O failure, or a frame
/// that fails validation (bad CRC, hostile length, reserved channel).
/// The distinction matters because corruption poisons the *stream*
/// (frame alignment is lost), not just the frame.
#[derive(Debug)]
pub(crate) enum FrameError {
    /// The underlying read failed (EOF, reset, timeout, …).
    Io(std::io::Error),
    /// The frame failed an integrity check; `what` says which.
    Corrupt(String),
}

impl FrameError {
    /// Converts into the public error type, tagging I/O failures with
    /// `context`.
    pub(crate) fn into_transport(self, context: &str) -> TransportError {
        match self {
            FrameError::Io(e) => TransportError::io(context, &e),
            FrameError::Corrupt(what) => TransportError::FrameCorrupt { what },
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one `[chan u16 LE][len u32 LE][payload][crc32 u32 LE]`
/// frame to a blocking writer. The CRC covers the header and the
/// payload.
pub(crate) fn write_frame(w: &mut impl Write, chan: u16, payload: &[u8]) -> std::io::Result<()> {
    match write_frame_with(w, chan, payload, 0)? {
        None => Ok(()),
        Some(_) => Err(std::io::ErrorKind::WouldBlock.into()),
    }
}

/// Writes one frame as far as `w` takes it, XORing `crc_flip` into the
/// trailer — the fault-injection hook that makes a receiver's CRC check
/// fail deterministically (pass `0` for an honest frame).
///
/// Header, payload and trailer leave in one vectored write (resumed on
/// a short count), so on a socket a frame costs one syscall — and one
/// segment under `TCP_NODELAY` — and the payload is never copied into
/// a staging buffer. Pass the raw stream, not a `BufWriter`. Returns
/// `None` once the whole frame is written, or — when a nonblocking `w`
/// refuses part-way — the bytes it has not taken, for the caller to
/// write later.
pub(crate) fn write_frame_with(
    w: &mut impl Write,
    chan: u16,
    payload: &[u8],
    crc_flip: u32,
) -> std::io::Result<Option<Vec<u8>>> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload over 4 GiB")
    })?;
    let mut hdr = [0u8; 6];
    hdr[..2].copy_from_slice(&chan.to_le_bytes());
    hdr[2..].copy_from_slice(&len.to_le_bytes());
    let trailer = (crc32(crc32(0, &hdr), payload) ^ crc_flip).to_le_bytes();
    let mut parts = [
        IoSlice::new(&hdr),
        IoSlice::new(payload),
        IoSlice::new(&trailer),
    ];
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write a whole frame",
                ))
            }
            // Drops the slices `n` covered (empty ones included) and
            // trims the first survivor.
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let mut left = Vec::with_capacity(rest.iter().map(|s| s.len()).sum());
                for s in rest.iter() {
                    left.extend_from_slice(s);
                }
                return Ok(Some(left));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Reads one frame, returning `(chan, payload)` — a [`FrameReader`]
/// used once, for streams whose read errors end the conversation.
pub(crate) fn read_frame(r: &mut impl Read) -> Result<(u16, Vec<u8>), FrameError> {
    FrameReader::default().read(r)
}

/// One frame being read off a stream. A read error — a read timeout
/// included — leaves the bytes already taken in here, so calling
/// [`FrameReader::read`] again resumes the frame where it stopped and
/// the stream keeps its frame alignment.
#[derive(Default)]
pub(crate) struct FrameReader {
    hdr: [u8; 6],
    hdr_got: usize,
    payload: Vec<u8>,
    trailer: [u8; 4],
    trailer_got: usize,
}

impl FrameReader {
    /// Reads the rest of the current frame, returning `(chan, payload)`.
    ///
    /// Hostile headers are rejected *before* the payload allocation: a
    /// length over the 1 GiB cap or a frame on the reserved channel 0
    /// (no honest sender emits either) is [`FrameError::Corrupt`]. A
    /// CRC trailer mismatch is equally `Corrupt` — the payload bytes
    /// are discarded, never handed to a decoder.
    ///
    /// Reads header, payload and trailer separately: hand it a
    /// buffered reader on a socket, so the 6- and 4-byte reads ride
    /// along with the payload's instead of costing a syscall each.
    pub(crate) fn read(&mut self, r: &mut impl Read) -> Result<(u16, Vec<u8>), FrameError> {
        read_part(r, &mut self.hdr, &mut self.hdr_got)?;
        let hdr = self.hdr;
        let chan = u16::from_le_bytes([hdr[0], hdr[1]]);
        let len = u32::from_le_bytes([hdr[2], hdr[3], hdr[4], hdr[5]]) as usize;
        if chan == 0 {
            return Err(FrameError::Corrupt(
                "frame on reserved channel 0 (corrupt or hostile header)".to_string(),
            ));
        }
        if len > MAX_FRAME {
            return Err(FrameError::Corrupt(format!(
                "frame length {len} exceeds the 1 GiB cap"
            )));
        }
        if self.payload.len() < len {
            // The header is unauthenticated until the trailer checks
            // out, so its length buys at most `PAYLOAD_PREALLOC_CAP`
            // bytes up front; past that the buffer grows only as payload
            // bytes actually arrive.
            if self.payload.capacity() == 0 {
                self.payload.reserve_exact(len.min(PAYLOAD_PREALLOC_CAP));
            }
            let want = (len - self.payload.len()) as u64;
            // On an error `read_to_end` keeps what it read.
            r.by_ref().take(want).read_to_end(&mut self.payload)?;
            if self.payload.len() < len {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!(
                        "stream ended {} bytes into a {len}-byte frame payload",
                        self.payload.len()
                    ),
                )));
            }
        }
        read_part(r, &mut self.trailer, &mut self.trailer_got)?;
        let payload = std::mem::take(&mut self.payload);
        (self.hdr_got, self.trailer_got) = (0, 0);
        let want = u32::from_le_bytes(self.trailer);
        let got = crc32(crc32(0, &hdr), &payload);
        if want != got {
            return Err(FrameError::Corrupt(format!(
                "CRC mismatch on channel {chan} ({len} bytes): computed {got:#010x}, trailer {want:#010x}"
            )));
        }
        Ok((chan, payload))
    }
}

/// Fills `buf[*got..]` from `r`, counting progress in `got` so a failed
/// read can be resumed.
fn read_part(r: &mut impl Read, buf: &mut [u8], got: &mut usize) -> std::io::Result<()> {
    while *got < buf.len() {
        match r.read(&mut buf[*got..]) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => *got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The first frame on every data connection: proves both ends belong
/// to the same run — and the same *generation* of it — before any
/// application frame moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handshake {
    /// Total ranks the connecting side believes are in the run.
    pub world: u32,
    /// The connecting side's rank.
    pub from: u32,
    /// Hash of the run configuration (computed by the launcher); both
    /// ends must agree.
    pub config_hash: u64,
    /// Restart generation of the run. The launcher bumps it on every
    /// recovery, so a stale worker from a fenced-off generation is
    /// rejected at handshake instead of feeding old frames into the
    /// new run.
    pub epoch: u32,
}

impl Handshake {
    /// Serializes to the fixed 26-byte handshake payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(26);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        out.extend_from_slice(&self.world.to_le_bytes());
        out.extend_from_slice(&self.from.to_le_bytes());
        out.extend_from_slice(&self.config_hash.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out
    }

    /// Parses and validates a handshake payload: magic and version
    /// must match this build; `world`/`config_hash`/`from`/`epoch` are
    /// returned for the acceptor to check against its own run.
    pub fn decode(buf: &[u8]) -> Result<Handshake, TransportError> {
        if buf.len() != 26 {
            return Err(TransportError::BadFrame {
                what: format!("handshake payload of {} bytes (expected 26)", buf.len()),
            });
        }
        let magic = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
        if magic != MAGIC {
            return Err(TransportError::HandshakeMismatch {
                field: "magic",
                ours: u64::from(MAGIC),
                theirs: u64::from(magic),
            });
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != PROTOCOL_VERSION {
            return Err(TransportError::HandshakeMismatch {
                field: "version",
                ours: u64::from(PROTOCOL_VERSION),
                theirs: u64::from(version),
            });
        }
        let world = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]);
        let from = u32::from_le_bytes([buf[10], buf[11], buf[12], buf[13]]);
        let config_hash = u64::from_le_bytes([
            buf[14], buf[15], buf[16], buf[17], buf[18], buf[19], buf[20], buf[21],
        ]);
        let epoch = u32::from_le_bytes([buf[22], buf[23], buf[24], buf[25]]);
        Ok(Handshake {
            world,
            from,
            config_hash,
            epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    /// The bit-at-a-time definition of the checksum: the oracle the
    /// table-driven [`crc32`] must equal on every input.
    fn crc32_bitwise(seed: u32, bytes: &[u8]) -> u32 {
        let mut crc = !seed;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, b""), 0);
        // Incremental == one-shot.
        assert_eq!(crc32(crc32(0, b"1234"), b"56789"), 0xCBF4_3926);
    }

    proptest! {
        /// Table-driven == bitwise for every length 0..=4096 drawn, at
        /// every alignment of the slice within its backing array (the
        /// 8-byte words must not care where the slice starts), from
        /// any seed.
        #[test]
        fn crc32_equals_the_bitwise_oracle(
            backing in collection::vec(0u8..=255, 8..4096 + 8 + 1),
            seed in 0u32..=u32::MAX,
        ) {
            let len = backing.len() - 8;
            for offset in 0..8 {
                let buf = &backing[offset..offset + len];
                prop_assert_eq!(crc32(seed, buf), crc32_bitwise(seed, buf));
            }
        }

        /// Chaining across any split equals one pass: the word loop and
        /// the byte tail hand the state over at every boundary.
        #[test]
        fn crc32_chains_across_every_split_point(
            buf in collection::vec(0u8..=255, 64usize),
            seed in 0u32..=u32::MAX,
        ) {
            let whole = crc32(seed, &buf);
            prop_assert_eq!(whole, crc32_bitwise(seed, &buf));
            for split in 0..=buf.len() {
                let (a, b) = buf.split_at(split);
                prop_assert_eq!(crc32(crc32(seed, a), b), whole, "split at {}", split);
            }
        }

        /// Around and past the four-lane threshold: odd lengths (a
        /// tail after the lanes), lengths just under it, and two-part
        /// chains whose halves fall on either side of it, all equal to
        /// the bitwise oracle.
        #[test]
        fn crc32_lanes_equal_the_bitwise_oracle(
            buf in collection::vec(0u8..=255, LANES_MIN - 40..3 * LANES_MIN + 40),
            seed in 0u32..=u32::MAX,
            split in 0usize..=1,
            cut in 0usize..=usize::MAX,
        ) {
            let want = crc32_bitwise(seed, &buf);
            prop_assert_eq!(crc32(seed, &buf), want, "len {}", buf.len());
            // Half the cases split right at the lane threshold or the
            // lane alignment; the rest anywhere.
            let at = if split == 0 {
                [LANES_MIN, buf.len() & !31, cut % 64][cut % 3].min(buf.len())
            } else {
                cut % (buf.len() + 1)
            };
            let (a, b) = buf.split_at(at);
            prop_assert_eq!(crc32(crc32(seed, a), b), want, "len {} split at {}", buf.len(), at);
        }
    }

    #[test]
    fn shifting_by_zero_bytes_is_feeding_zero_bytes() {
        for n in [0usize, 1, 7, 8, 511, 4096, 1 << 20] {
            let zeros = vec![0u8; n];
            for state in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
                assert_eq!(
                    mulmod(state, shift_bytes(n)),
                    crc_serial(state, &zeros),
                    "{n} zero bytes from {state:#x}"
                );
            }
        }
    }

    #[test]
    fn handshake_roundtrips() {
        let hs = Handshake {
            world: 4,
            from: 2,
            config_hash: 0xDEAD_BEEF_CAFE_F00D,
            epoch: 3,
        };
        let enc = hs.encode();
        assert_eq!(enc.len(), 26);
        assert_eq!(Handshake::decode(&enc).expect("decode"), hs);
    }

    #[test]
    fn handshake_rejects_bad_magic_and_version() {
        let hs = Handshake {
            world: 1,
            from: 0,
            config_hash: 1,
            epoch: 0,
        };
        let mut enc = hs.encode();
        enc[0] ^= 0xFF;
        assert!(matches!(
            Handshake::decode(&enc),
            Err(TransportError::HandshakeMismatch { field: "magic", .. })
        ));
        let mut enc = hs.encode();
        enc[4] ^= 0xFF;
        assert!(matches!(
            Handshake::decode(&enc),
            Err(TransportError::HandshakeMismatch {
                field: "version",
                ..
            })
        ));
        assert!(Handshake::decode(&enc[..10]).is_err());
    }

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello").expect("write");
        write_frame(&mut buf, 9, b"").expect("write");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("read"), (7, b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).expect("read"), (9, Vec::new()));
    }

    #[test]
    fn a_flipped_payload_bit_is_caught_by_the_crc() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello world").expect("write");
        // Flip one payload bit; the trailer no longer matches.
        buf[8] ^= 0x01;
        let mut r = &buf[..];
        match read_frame(&mut r) {
            Err(FrameError::Corrupt(what)) => assert!(what.contains("CRC"), "{what}"),
            other => panic!("expected a CRC failure, got {other:?}"),
        }
    }

    #[test]
    fn a_deliberately_miswritten_trailer_is_caught() {
        let mut buf = Vec::new();
        write_frame_with(&mut buf, 3, b"payload", 0xFFFF_FFFF).expect("write");
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocating() {
        // chan 1, len = u32::MAX: an honest peer never sends this; the
        // reader must refuse without attempting a 4 GiB allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &buf[..];
        match read_frame(&mut r) {
            Err(FrameError::Corrupt(what)) => assert!(what.contains("1 GiB"), "{what}"),
            other => panic!("expected a typed rejection, got {other:?}"),
        }
    }

    #[test]
    fn zero_channel_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(b"data");
        let mut r = &buf[..];
        match read_frame(&mut r) {
            Err(FrameError::Corrupt(what)) => assert!(what.contains("channel 0"), "{what}"),
            other => panic!("expected a typed rejection, got {other:?}"),
        }
    }

    #[test]
    fn truncated_streams_surface_as_io_errors() {
        let mut full = Vec::new();
        write_frame(&mut full, 5, b"truncate me").expect("write");
        // Every strict prefix must fail as EOF (I/O), never panic and
        // never return a partial frame.
        for cut in 0..full.len() {
            let mut r = &full[..cut];
            match read_frame(&mut r) {
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}")
                }
                other => panic!("cut {cut}: expected EOF, got {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_headers_never_decode_to_a_frame() {
        // Fuzz-style sweep over deterministic pseudo-random byte soups:
        // whatever the header claims, the reader must end in a typed
        // error (corrupt or EOF), not a successful decode of garbage.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..64 {
            let mut buf = vec![0u8; 32];
            for b in buf.iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (state >> 33) as u8;
            }
            let mut r = &buf[..];
            assert!(read_frame(&mut r).is_err(), "garbage decoded: {buf:?}");
        }
    }

    #[test]
    fn a_lying_length_prefix_allocates_only_for_bytes_that_arrive() {
        // A header claiming the full 1 GiB, ten payload bytes, then
        // EOF: a typed EOF, and the buffer never grew past what the
        // header alone is allowed to reserve.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&(MAX_FRAME as u32).to_le_bytes());
        buf.extend_from_slice(&[0xAB; 10]);
        let mut reader = FrameReader::default();
        match reader.read(&mut &buf[..]) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected EOF, got {other:?}"),
        }
        assert_eq!(reader.payload.len(), 10);
        assert!(
            reader.payload.capacity() <= PAYLOAD_PREALLOC_CAP,
            "capacity {} grew past the cap on a header's word",
            reader.payload.capacity()
        );
    }

    /// A sink that takes 1–7 bytes per call (cycling), and reports
    /// vectored writes just as partially — possibly ending mid-slice
    /// or spanning a slice boundary.
    struct TrickleWriter {
        out: Vec<u8>,
        calls: usize,
    }

    impl TrickleWriter {
        fn quota(&mut self) -> usize {
            self.calls += 1;
            1 + self.calls % 7
        }
    }

    impl Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = self.quota().min(buf.len());
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let mut left = self.quota();
            let mut wrote = 0;
            for b in bufs {
                let n = left.min(b.len());
                self.out.extend_from_slice(&b[..n]);
                wrote += n;
                left -= n;
            }
            Ok(wrote)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A source that yields one byte per `read` call.
    struct TrickleReader<'a>(&'a [u8]);

    impl Read for TrickleReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn frames_survive_short_writes_and_one_byte_reads() {
        let sizes = [0, 1, 8 * 1024 - 1, 8 * 1024, 8 * 1024 + 1, 1 << 20];
        let payloads: Vec<Vec<u8>> = sizes
            .iter()
            .map(|&n| (0..n).map(|i| (i * 31 + n) as u8).collect())
            .collect();
        let mut w = TrickleWriter {
            out: Vec::new(),
            calls: 0,
        };
        for (i, p) in payloads.iter().enumerate() {
            write_frame(&mut w, 1 + i as u16, p).expect("write");
        }
        // Last on the stream (it kills frame alignment): the fault
        // trailer, written through the same resume loop.
        write_frame_with(&mut w, 99, b"mangled", 0xA5A5_A5A5).expect("write");
        // Every byte arrived exactly once, in order.
        let mut honest = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            write_frame(&mut honest, 1 + i as u16, p).expect("write");
        }
        write_frame_with(&mut honest, 99, b"mangled", 0xA5A5_A5A5).expect("write");
        assert!(w.out == honest, "short writes reordered or lost bytes");

        // Read back one byte per call, through the same buffering
        // `serve_conn` uses.
        let mut r = BufReader::new(TrickleReader(&w.out));
        for (i, p) in payloads.iter().enumerate() {
            let (chan, got) = read_frame(&mut r).expect("read");
            assert_eq!(chan, 1 + i as u16);
            assert!(got == *p, "payload of {} bytes changed", p.len());
        }
        match read_frame(&mut r) {
            Err(FrameError::Corrupt(what)) => assert!(what.contains("CRC"), "{what}"),
            other => panic!("expected a CRC failure, got {other:?}"),
        }
    }

    /// A nonblocking sink with `room` bytes of space, then full.
    struct FullPipe {
        out: Vec<u8>,
        room: usize,
    }

    impl Write for FullPipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if self.room == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let mut wrote = 0;
            for b in bufs {
                let n = b.len().min(self.room);
                self.out.extend_from_slice(&b[..n]);
                self.room -= n;
                wrote += n;
            }
            Ok(wrote)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_refused_frame_returns_exactly_the_bytes_not_taken() {
        let payload: Vec<u8> = (0..5000).map(|i| (i * 13) as u8).collect();
        let mut whole = Vec::new();
        write_frame(&mut whole, 4, &payload).expect("write");
        for room in [0, 1, 5, 6, 7, 4000, 5005, 5006, 5009, 5010] {
            let mut pipe = FullPipe {
                out: Vec::new(),
                room,
            };
            let rest = write_frame_with(&mut pipe, 4, &payload, 0).expect("write");
            assert_eq!(rest.is_none(), room == whole.len(), "room {room}");
            pipe.out.extend_from_slice(&rest.unwrap_or_default());
            assert!(pipe.out == whole, "room {room}: bytes lost or repeated");
        }
    }

    /// A source that times out before every read, then yields up to
    /// 1000 bytes.
    struct StallingReader<'a> {
        bytes: &'a [u8],
        stalled: bool,
    }

    impl Read for StallingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.stalled = !self.stalled;
            if self.stalled {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.bytes.len()).min(1000);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_timed_out_read_resumes_mid_frame() {
        let payloads: Vec<Vec<u8>> = [0usize, 3, 5000, 70_000]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 7 + n) as u8).collect())
            .collect();
        let mut stream = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            write_frame(&mut stream, 1 + i as u16, p).expect("write");
        }
        let mut src = StallingReader {
            bytes: &stream,
            stalled: false,
        };
        let mut reader = FrameReader::default();
        let mut timeouts = 0;
        for (i, p) in payloads.iter().enumerate() {
            let (chan, got) = loop {
                match reader.read(&mut src) {
                    Ok(frame) => break frame,
                    Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        timeouts += 1
                    }
                    Err(e) => panic!("frame {i}: {e:?}"),
                }
            };
            assert_eq!(chan, 1 + i as u16);
            assert!(got == *p, "payload of {} bytes changed", p.len());
        }
        assert!(timeouts > 70, "only {timeouts} reads were interrupted");
    }
}
