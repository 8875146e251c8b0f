//! WAL record codec and segment framing.
//!
//! A segment file is a flat sequence of CRC-framed records:
//!
//! ```text
//! segment := frame*
//! frame   := len:u32 crc:u32 body[len]     (crc = CRC-32/IEEE of body)
//! body    := tag:u8 payload
//! ```
//!
//! Framing is designed around the one failure a log must survive: a
//! torn tail. [`read_segment`] walks frames front to back and stops at
//! the first one that does not check out — header short, length past
//! the end of the file, CRC mismatch, or an undecodable body — and
//! reports how many bytes of *valid prefix* precede it. Recovery
//! truncates to that prefix and appends from there; a partial final
//! write (or any corruption) costs exactly the records at and after the
//! damage, never a panic and never a misparse.
//!
//! Record bodies reuse the wire protocol's little-endian primitives, so
//! the same [`WalRecord`] codec serves the on-disk log and the
//! `WAL_APPEND` replication frames.

use crate::protocol::{
    check_len, put_u32, put_u64, take_bytes, take_count32, take_point, take_u64, take_u8,
    ProtocolError, TenantConfig, WireError, MAX_FRAME,
};
use fairsw_metric::{Colored, EuclidPoint};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File extension of WAL segment files.
pub const SEGMENT_EXT: &str = "wal";

/// Frame header: `len:u32 crc:u32`.
pub const FRAME_HEADER: usize = 8;

// ---- CRC-32 (IEEE 802.3, reflected) ------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32/IEEE of `bytes` (the checksum in every record frame).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = u32::MAX;
    for b in bytes {
        c = CRC_TABLE[((c ^ *b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---- records ------------------------------------------------------------

const REC_CREATE: u8 = 1;
const REC_BATCH: u8 = 2;
const REC_SNAPSHOT: u8 = 3;
const REC_DELETE: u8 = 4;

/// One durable log record. `Create` and `Batch` are what shard threads
/// append to disk; `Snapshot` and `Delete` additionally travel on the
/// replication stream (a follower bootstraps every tenant from a fresh
/// snapshot instead of replaying its history, and hears deletions
/// live).
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// The tenant was created with this configuration. Always the first
    /// record of a tenant's log.
    Create(TenantConfig),
    /// One accepted ingest request (an `INSERT` logs a batch of one).
    Batch {
        /// The tenant's accepted-point count before this batch — the
        /// stream position of `points[0]`. Replay and replication use
        /// it to skip records already covered by a snapshot.
        start: u64,
        /// The accepted points, in stream order.
        points: Vec<Colored<EuclidPoint>>,
    },
    /// A full engine snapshot (replication bootstrap only; on disk
    /// snapshots live in the spool, not the log).
    Snapshot(Vec<u8>),
    /// The tenant was deleted (replication only; on disk a deletion
    /// removes the tenant's log directory).
    Delete,
}

impl WalRecord {
    /// Appends the record body (tag + payload) to `out`. Fails with
    /// [`ProtocolError::TooLarge`] when a value does not fit its wire
    /// field — unreachable for records built from wire-decoded requests
    /// (the wire bounds every length structurally), checked anyway so an
    /// in-process caller can never log a misparsing record.
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<(), ProtocolError> {
        match self {
            WalRecord::Create(config) => {
                out.push(REC_CREATE);
                config.encode(out)?;
            }
            WalRecord::Batch { start, points } => {
                out.extend_from_slice(&encode_batch_body(*start, points)?);
            }
            WalRecord::Snapshot(bytes) => {
                check_len("snapshot bytes", bytes.len(), u32::MAX as usize)?;
                out.push(REC_SNAPSHOT);
                put_u32(out, bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
            WalRecord::Delete => out.push(REC_DELETE),
        }
        Ok(())
    }

    /// Decodes one record body from the front of `input`, advancing it.
    pub fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match take_u8(input)? {
            REC_CREATE => WalRecord::Create(TenantConfig::decode(input)?),
            REC_BATCH => {
                let start = take_u64(input)?;
                // A point is at least color + dim = 6 bytes.
                let n = take_count32(input, 6)?;
                let mut points = Vec::with_capacity(n);
                for _ in 0..n {
                    points.push(take_point(input)?);
                }
                WalRecord::Batch { start, points }
            }
            REC_SNAPSHOT => {
                let n = take_count32(input, 1)?;
                WalRecord::Snapshot(take_bytes(input, n)?.to_vec())
            }
            REC_DELETE => WalRecord::Delete,
            other => return Err(WireError::Invalid(format!("unknown record tag {other}"))),
        })
    }
}

/// Encodes a `Batch` record body straight from a borrowed point slice —
/// the ingest hot path logs accepted batches without cloning them into
/// an owned [`WalRecord`] first.
pub fn encode_batch_body(
    start: u64,
    points: &[Colored<EuclidPoint>],
) -> Result<Vec<u8>, ProtocolError> {
    check_len("batch size", points.len(), u32::MAX as usize)?;
    let mut out = Vec::with_capacity(16 + points.len() * 24);
    out.push(REC_BATCH);
    put_u64(&mut out, start);
    put_u32(&mut out, points.len() as u32);
    for p in points {
        crate::protocol::put_point(&mut out, p)?;
    }
    Ok(out)
}

/// Encodes a `Create` record body.
pub fn encode_create_body(config: &TenantConfig) -> Result<Vec<u8>, ProtocolError> {
    let mut out = Vec::with_capacity(64);
    WalRecord::Create(config.clone()).encode(&mut out)?;
    Ok(out)
}

// ---- framing ------------------------------------------------------------

/// Wraps an encoded record body in its `len + crc` frame.
pub fn frame_record(body: &[u8]) -> Vec<u8> {
    debug_assert!(body.len() <= MAX_FRAME);
    let mut out = Vec::with_capacity(FRAME_HEADER + body.len());
    put_u32(&mut out, body.len() as u32);
    put_u32(&mut out, crc32(body));
    out.extend_from_slice(body);
    out
}

/// Walks one segment's bytes front to back, decoding every frame that
/// checks out. Returns the decoded records and the length of the valid
/// prefix — the byte offset of the first frame that is short, oversized,
/// CRC-damaged or undecodable (== `bytes.len()` for a clean segment).
/// Never panics: a corrupt length prefix is bounded by the bytes that
/// actually remain before anything is allocated.
pub fn read_segment(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > MAX_FRAME || len > bytes.len() - pos - FRAME_HEADER {
            break; // torn or corrupt tail: frame longer than the file
        }
        let body = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(body) != crc {
            break; // damaged record: the valid prefix ends here
        }
        let mut input = body;
        match WalRecord::decode(&mut input) {
            Ok(rec) if input.is_empty() => records.push(rec),
            // A CRC-clean but undecodable body (or trailing garbage)
            // still ends the valid prefix — never apply half a record.
            _ => break,
        }
        pos += FRAME_HEADER + len;
    }
    (records, pos)
}

// ---- durable filesystem helpers ----------------------------------------

/// fsyncs a directory so a just-created, renamed or removed entry is
/// durable (on Linux, file durability needs the *parent* synced too).
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Durable atomic file write: `tmp` + contents fsync + rename + parent
/// directory fsync. Shared by the snapshot spool (`CHECKPOINT`,
/// compaction) and anything else that must never leave a half-written
/// file behind a crash.
pub fn atomic_write(dir: &Path, file_name: &str, bytes: &[u8]) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{file_name}.tmp"));
    let dst = dir.join(file_name);
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, &dst)?;
    fsync_dir(dir)
}

/// The file name of segment `seq` (`00000042.wal`).
pub fn segment_name(seq: u64) -> String {
    format!("{seq:08}.{SEGMENT_EXT}")
}

/// Parses a segment file name back to its sequence number.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(&format!(".{SEGMENT_EXT}"))?;
    if stem.len() != 8 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

/// Lists a tenant log directory's segment files, sorted by sequence.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if let Some(seq) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(parse_segment_name)
        {
            out.push((seq, path));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireVariant;

    fn pt(x: f64, c: u32) -> Colored<EuclidPoint> {
        Colored::new(EuclidPoint::new(vec![x, 2.0 * x]), c)
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_roundtrip() {
        let records = vec![
            WalRecord::Create(TenantConfig::new(50, vec![2, 1], WireVariant::Oblivious)),
            WalRecord::Batch {
                start: 7,
                points: vec![pt(1.5, 0), pt(-3.25, 1)],
            },
            WalRecord::Batch {
                start: u64::MAX,
                points: vec![],
            },
            WalRecord::Snapshot(vec![1, 2, 3, 254]),
            WalRecord::Delete,
        ];
        for rec in records {
            let mut body = Vec::new();
            rec.encode(&mut body).unwrap();
            let mut input = body.as_slice();
            assert_eq!(WalRecord::decode(&mut input).unwrap(), rec);
            assert!(input.is_empty(), "{rec:?} left trailing bytes");
        }
    }

    #[test]
    fn segment_roundtrip_and_torn_tail() {
        let recs: Vec<WalRecord> = (0..5)
            .map(|i| WalRecord::Batch {
                start: i,
                points: vec![pt(i as f64, (i % 2) as u32)],
            })
            .collect();
        let mut seg = Vec::new();
        for r in &recs {
            let mut body = Vec::new();
            r.encode(&mut body).unwrap();
            seg.extend_from_slice(&frame_record(&body));
        }
        let (got, valid) = read_segment(&seg);
        assert_eq!(got, recs);
        assert_eq!(valid, seg.len());
        // Tear the tail: the last record is discarded, the prefix kept.
        let torn = &seg[..seg.len() - 3];
        let (got, valid) = read_segment(torn);
        assert_eq!(got, recs[..4]);
        assert!(valid <= torn.len());
        // Flip a byte in the middle: everything from that record on is
        // discarded, everything before survives.
        let mut corrupt = seg.clone();
        let hit = seg.len() / 2;
        corrupt[hit] ^= 0x40;
        let (got, _) = read_segment(&corrupt);
        assert!(got.len() < recs.len());
        assert_eq!(got[..], recs[..got.len()]);
    }

    #[test]
    fn segment_names_roundtrip_and_sort() {
        assert_eq!(segment_name(42), "00000042.wal");
        assert_eq!(parse_segment_name("00000042.wal"), Some(42));
        assert_eq!(parse_segment_name("42.wal"), None);
        assert_eq!(parse_segment_name("0000004x.wal"), None);
        assert_eq!(parse_segment_name("00000042.fsw2"), None);
    }

    #[test]
    fn atomic_write_replaces_and_survives() {
        let dir = std::env::temp_dir().join(format!("fairsw-aw-{}", std::process::id()));
        atomic_write(&dir, "x.fsw2", b"one").unwrap();
        atomic_write(&dir, "x.fsw2", b"two").unwrap();
        assert_eq!(std::fs::read(dir.join("x.fsw2")).unwrap(), b"two");
        assert!(!dir.join("x.fsw2.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
