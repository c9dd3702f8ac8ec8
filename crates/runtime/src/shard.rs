//! Per-rank checkpoint shards for the `procs` backend.
//!
//! A distributed checkpoint is one file per rank — `dir/rank-<r>.ckpt`
//! — holding exactly the tensors that rank's `visit_owned_params`
//! yields, in visit order. The file is self-verifying: a magic/version
//! header, the writing rank, the training step, and the run's config
//! hash are followed by the tensor payload and an IEEE CRC32 trailer
//! over everything before it (the same CRC the wire frames use). A
//! restore therefore refuses — with a typed [`ShardError`] — a truncated
//! or bit-flipped file, a shard from a different run, a shard taken at
//! a different step, or another rank's shard, instead of silently
//! resuming from the wrong weights.
//!
//! Writes are atomic (temp file + rename), so a worker killed mid-write
//! leaves the previous checkpoint intact.

use crate::wire::{put_u64, put_usize, Reader, WireMsg};
use actcomp_net::crc32;
use actcomp_tensor::Tensor;
use std::io::Write;
use std::path::{Path, PathBuf};

/// First bytes of every shard file: `ACKP`, little-endian.
const MAGIC: u32 = 0x4143_4B50;
/// Bumped on any layout change; restore rejects other versions.
const VERSION: u16 = 1;

/// Why a shard failed to load (or store).
#[derive(Debug)]
pub enum ShardError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file is not a shard, is truncated, or failed its CRC.
    Corrupt {
        /// What was wrong.
        what: String,
    },
    /// The shard is valid but belongs to a different run, step, or
    /// rank than the one restoring it.
    Mismatch {
        /// Which stamped field disagreed.
        field: &'static str,
        /// The value in the file.
        found: u64,
        /// The value this run expects.
        expected: u64,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard i/o: {e}"),
            ShardError::Corrupt { what } => write!(f, "corrupt shard: {what}"),
            ShardError::Mismatch {
                field,
                found,
                expected,
            } => write!(
                f,
                "shard {field} mismatch: file has {found:#x}, this run expects {expected:#x}"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// The canonical shard path for `rank` inside a checkpoint directory.
pub fn shard_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank-{rank}.ckpt"))
}

/// Serializes and atomically writes one rank's shard.
pub fn write_shard(
    dir: &Path,
    rank: usize,
    step: usize,
    tag: u64,
    tensors: &[Tensor],
) -> Result<(), ShardError> {
    std::fs::create_dir_all(dir)?;
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    put_usize(&mut buf, rank);
    put_usize(&mut buf, step);
    put_u64(&mut buf, tag);
    put_usize(&mut buf, tensors.len());
    for t in tensors {
        t.encode(&mut buf);
    }
    let crc = crc32(0, &buf);
    buf.extend_from_slice(&crc.to_le_bytes());

    // Temp-and-rename keeps the previous checkpoint intact if this
    // process dies mid-write (the exact failure recovery is for).
    let path = shard_path(dir, rank);
    let tmp = dir.join(format!("rank-{rank}.ckpt.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

/// Loads and verifies one rank's shard: CRC first, then the stamped
/// rank / step / config hash against what this run expects, then the
/// tensor list, which must end the file.
pub fn read_shard(
    dir: &Path,
    rank: usize,
    step: usize,
    tag: u64,
) -> Result<Vec<Tensor>, ShardError> {
    parse_shard(&std::fs::read(shard_path(dir, rank))?, rank, step, tag)
}

/// [`read_shard`]'s checks on a shard file's bytes.
fn parse_shard(buf: &[u8], rank: usize, step: usize, tag: u64) -> Result<Vec<Tensor>, ShardError> {
    if buf.len() < 4 + 2 + 4 {
        return Err(ShardError::Corrupt {
            what: format!("{} bytes is too short for a shard", buf.len()),
        });
    }
    let (body, trailer) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    if crc32(0, body) != stored {
        return Err(ShardError::Corrupt {
            what: "CRC32 trailer does not match the file contents".to_string(),
        });
    }
    let magic = u32::from_le_bytes(body[0..4].try_into().expect("magic"));
    if magic != MAGIC {
        return Err(ShardError::Corrupt {
            what: format!("bad magic {magic:#010x}"),
        });
    }
    let version = u16::from_le_bytes(body[4..6].try_into().expect("version"));
    if version != VERSION {
        return Err(ShardError::Corrupt {
            what: format!("unsupported shard version {version}"),
        });
    }
    let mut r = Reader::new(&body[6..]);
    let corrupt = |what: &'static str| ShardError::Corrupt {
        what: what.to_string(),
    };
    let file_rank = r.read_usize("shard rank").map_err(|_| corrupt("rank"))?;
    let file_step = r.read_usize("shard step").map_err(|_| corrupt("step"))?;
    let file_tag = r.read_u64("shard tag").map_err(|_| corrupt("tag"))?;
    for (field, found, expected) in [
        ("rank", file_rank as u64, rank as u64),
        ("step", file_step as u64, step as u64),
        ("config hash", file_tag, tag),
    ] {
        if found != expected {
            return Err(ShardError::Mismatch {
                field,
                found,
                expected,
            });
        }
    }
    let tensors = Vec::<Tensor>::decode(&mut r).map_err(|_| corrupt("tensor payload"))?;
    if !r.done() {
        return Err(corrupt("bytes after the last tensor"));
    }
    Ok(tensors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tensors() -> Vec<Tensor> {
        vec![
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]),
            Tensor::from_vec(vec![-0.5; 6], [3, 2]),
        ]
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("actcomp-shard-rt-{}", std::process::id()));
        let orig = tensors();
        write_shard(&dir, 1, 7, 0xDEAD_BEEF, &orig).expect("write");
        let back = read_shard(&dir, 1, 7, 0xDEAD_BEEF).expect("read");
        assert_eq!(back.len(), orig.len());
        for (a, b) in back.iter().zip(&orig) {
            assert_eq!(a.dims(), b.dims());
            assert_eq!(a.as_slice(), b.as_slice(), "bitwise identical payload");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_run_step_or_rank_is_refused() {
        let dir = std::env::temp_dir().join(format!("actcomp-shard-mm-{}", std::process::id()));
        write_shard(&dir, 0, 3, 42, &tensors()).expect("write");
        // A shard misplaced under another rank's name must be refused.
        std::fs::copy(shard_path(&dir, 0), shard_path(&dir, 1)).expect("copy");
        for (rank, step, tag, field) in [
            (1usize, 3usize, 42u64, "rank"),
            (0, 4, 42, "step"),
            (0, 3, 43, "config hash"),
        ] {
            match read_shard(&dir, rank, step, tag) {
                Err(ShardError::Mismatch { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected {field} mismatch, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_and_truncation_are_refused() {
        let dir = std::env::temp_dir().join(format!("actcomp-shard-crc-{}", std::process::id()));
        write_shard(&dir, 0, 0, 1, &tensors()).expect("write");
        let path = shard_path(&dir, 0);
        let mut bytes = std::fs::read(&path).expect("read back");
        bytes[10] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(
            read_shard(&dir, 0, 0, 1),
            Err(ShardError::Corrupt { .. })
        ));
        bytes[10] ^= 0x40;
        std::fs::write(&path, &bytes[..bytes.len() - 9]).expect("truncate");
        assert!(matches!(
            read_shard(&dir, 0, 0, 1),
            Err(ShardError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_shard_is_an_io_error() {
        let dir = std::env::temp_dir().join("actcomp-shard-none");
        assert!(matches!(read_shard(&dir, 5, 0, 0), Err(ShardError::Io(_))));
    }

    /// `write_shard(dir, 1, 7, 0xDEAD_BEEF, &tensors())` as the
    /// bit-at-a-time CRC stamped it before the table-driven rewrite.
    #[rustfmt::skip]
    const PINNED_SHARD: [u8; 146] = [
        0x50, 0x4b, 0x43, 0x41, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xef, 0xbe,
        0xad, 0xde, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x80, 0x3f, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x40, 0x40, 0x00, 0x00,
        0x80, 0x40, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0xbf, 0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00, 0xbf, 0x00, 0x00,
        0x00, 0xbf, 0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x00, 0xbf, 0xa4, 0xea,
        0x21, 0xb5,
    ];
    /// The trailer of [`PINNED_SHARD`].
    const PINNED_CRC: u32 = 0xB521_EAA4;

    #[test]
    fn a_shard_written_before_the_crc_rewrite_still_loads() {
        let dir = std::env::temp_dir().join(format!("actcomp-shard-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(shard_path(&dir, 1), PINNED_SHARD).expect("fixture");
        assert_eq!(crc32(0, &PINNED_SHARD[..142]), PINNED_CRC);
        let back = read_shard(&dir, 1, 7, 0xDEAD_BEEF).expect("old shard loads");
        for (a, b) in back.iter().zip(&tensors()) {
            assert_eq!(a.dims(), b.dims());
            assert_eq!(a.as_slice(), b.as_slice());
        }
        // And today's writer stamps the same bytes.
        write_shard(&dir, 1, 7, 0xDEAD_BEEF, &tensors()).expect("write");
        assert_eq!(
            std::fs::read(shard_path(&dir, 1)).expect("read"),
            PINNED_SHARD
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `body` as a shard file: the bytes, then their CRC trailer.
    fn stamped(body: &[u8]) -> Vec<u8> {
        let mut file = body.to_vec();
        file.extend_from_slice(&crc32(0, body).to_le_bytes());
        file
    }

    #[test]
    fn bytes_after_the_last_tensor_are_refused_under_a_good_crc() {
        let dir = std::env::temp_dir().join(format!("actcomp-shard-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("dir");
        let mut body = PINNED_SHARD[..142].to_vec();
        body.push(0);
        std::fs::write(shard_path(&dir, 1), stamped(&body)).expect("fixture");
        let read = read_shard(&dir, 1, 7, 0xDEAD_BEEF);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            matches!(read, Err(ShardError::Corrupt { .. })),
            "a trailing byte loads: {read:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Shard bytes load or fail with a typed error; they never
        /// panic. Truncations and corruptions of a valid shard carry a
        /// recomputed CRC, so the parser behind the CRC check sees them.
        #[test]
        fn hostile_shard_bytes_load_or_fail_but_never_panic(
            noise in collection::vec(0u8..=255, 0..200),
            at in 0usize..1 << 16,
            byte in 0u8..=255,
        ) {
            let parse = |file: &[u8]| parse_shard(file, 1, 7, 0xDEAD_BEEF);
            let body = &PINNED_SHARD[..142];
            prop_assert!(parse(&stamped(body)).is_ok(), "the valid shard loads");
            let _ = parse(&noise);
            let _ = parse(&stamped(&noise));
            for n in 0..body.len() {
                prop_assert!(parse(&stamped(&body[..n])).is_err(), "a truncated shard loads");
            }
            let mut spliced = body[..at % body.len()].to_vec();
            spliced.extend_from_slice(&noise);
            let _ = parse(&stamped(&spliced));
            let mut bad = body.to_vec();
            bad[at % body.len()] = byte;
            let _ = parse(&stamped(&bad));
        }
    }
}
