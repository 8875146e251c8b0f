//! The per-tenant append path: segment files, group commit, rotation
//! and compaction.
//!
//! Each tenant owns one [`TenantWal`] — a directory of numbered segment
//! files (`00000001.wal`, `00000002.wal`, …) of which only the highest
//! is open for append. Shard threads append the framed record for every
//! accepted write *before* acking it, but do **not** fsync per record:
//! the shard's existing flush tick calls [`TenantWal::sync`] for all of
//! its tenants at once (group commit), so the sync cost is amortized
//! across every batch accepted in the tick window. A `kill -9` loses
//! nothing that reached the page cache; only power loss can take the
//! unsynced window, which `STATS` reports as `wal_unsynced_bytes`.
//!
//! When the open segment exceeds [`WalTuning::segment_bytes`] it is
//! rotated; when the tenant's total log exceeds
//! [`WalTuning::compact_bytes`] the shard snapshots the engine into the
//! spool and calls [`TenantWal::compact`], which starts a fresh segment
//! and deletes the old ones — recovery time and disk stay bounded by
//! the compaction threshold, not the tenant's lifetime.

use super::segment::{frame_record, fsync_dir, list_segments, segment_name};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Size thresholds steering rotation and compaction.
#[derive(Clone, Copy, Debug)]
pub struct WalTuning {
    /// Rotate the open segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// Fold the log into a spool snapshot once its total live bytes
    /// reach this threshold (servers with a spool only; every variant
    /// snapshots, so every tenant's log stays bounded).
    pub compact_bytes: u64,
}

impl Default for WalTuning {
    fn default() -> Self {
        WalTuning {
            segment_bytes: 1 << 20,
            compact_bytes: 4 << 20,
        }
    }
}

/// Where a replayed log's valid bytes end: the open segment's sequence
/// number and the length of its valid prefix. [`TenantWal::reopen`]
/// truncates the torn tail to exactly this point so disk and replayed
/// state agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogCut {
    /// Sequence number of the last valid segment (1 for an empty log).
    pub seq: u64,
    /// Valid bytes in that segment.
    pub offset: u64,
}

/// One tenant's append-only log: a directory of CRC-framed segment
/// files with the highest open for append.
#[derive(Debug)]
pub struct TenantWal {
    dir: PathBuf,
    file: File,
    seq: u64,
    /// Bytes in the open segment.
    seg_bytes: u64,
    /// Bytes across all closed (earlier) segments.
    base_bytes: u64,
    segments: u64,
    unsynced: u64,
    last_sync: Instant,
    tuning: WalTuning,
}

impl TenantWal {
    /// Starts a fresh log at `dir`, wiping whatever was there (used by
    /// `CREATE`, which begins a new tenant history).
    pub fn create(dir: &Path, tuning: WalTuning) -> io::Result<Self> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        if let Some(parent) = dir.parent() {
            fsync_dir(parent)?;
        }
        let file = open_segment(dir, 1)?;
        fsync_dir(dir)?;
        Ok(TenantWal {
            dir: dir.to_path_buf(),
            file,
            seq: 1,
            seg_bytes: 0,
            base_bytes: 0,
            segments: 1,
            unsynced: 0,
            last_sync: Instant::now(),
            tuning,
        })
    }

    /// Reopens an existing log after replay: truncates the last valid
    /// segment to `cut.offset` (discarding a torn tail for good, so a
    /// later replay cannot diverge from this one) and deletes any
    /// segments past it, then resumes appending.
    pub fn reopen(dir: &Path, tuning: WalTuning, cut: LogCut) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut base_bytes = 0u64;
        let mut segments = 0u64;
        for (seq, path) in list_segments(dir)? {
            if seq > cut.seq {
                std::fs::remove_file(&path)?;
            } else if seq < cut.seq {
                base_bytes += std::fs::metadata(&path)?.len();
                segments += 1;
            }
        }
        let file = open_segment(dir, cut.seq)?;
        file.set_len(cut.offset)?;
        file.sync_data()?;
        fsync_dir(dir)?;
        Ok(TenantWal {
            dir: dir.to_path_buf(),
            file,
            seq: cut.seq,
            seg_bytes: cut.offset,
            base_bytes,
            segments: segments + 1,
            unsynced: 0,
            last_sync: Instant::now(),
            tuning,
        })
    }

    /// Appends one framed record body to the open segment (rotating
    /// first if it is full). The bytes reach the page cache before this
    /// returns — and so before the write is acked — but are not fsynced
    /// until the next group-commit [`sync`](Self::sync).
    pub fn append(&mut self, body: &[u8]) -> io::Result<()> {
        if self.seg_bytes >= self.tuning.segment_bytes && self.seg_bytes > 0 {
            self.rotate()?;
        }
        let frame = frame_record(body);
        self.file.write_all(&frame)?;
        self.seg_bytes += frame.len() as u64;
        self.unsynced += frame.len() as u64;
        Ok(())
    }

    /// Group commit: fsyncs the open segment if anything was appended
    /// since the last sync. Called by the shard tick for all of its
    /// tenants at once.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Closes the open segment (fsynced) and opens the next one.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        self.last_sync = Instant::now();
        self.seq += 1;
        self.file = open_segment(&self.dir, self.seq)?;
        fsync_dir(&self.dir)?;
        self.base_bytes += self.seg_bytes;
        self.seg_bytes = 0;
        self.segments += 1;
        Ok(())
    }

    /// Folds the log into the snapshot the caller just spooled: starts
    /// a fresh segment and deletes every earlier one. Everything the
    /// deleted records described is covered by the snapshot, so the
    /// replayable history stays complete while disk and recovery time
    /// reset to near zero.
    pub fn compact(&mut self) -> io::Result<()> {
        self.rotate()?;
        for (seq, path) in list_segments(&self.dir)? {
            if seq < self.seq {
                std::fs::remove_file(&path)?;
            }
        }
        fsync_dir(&self.dir)?;
        self.base_bytes = 0;
        self.segments = 1;
        Ok(())
    }

    /// Whether the log has grown past the compaction threshold.
    pub fn wants_compaction(&self) -> bool {
        self.total_bytes() > self.tuning.compact_bytes
    }

    /// Live bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.base_bytes + self.seg_bytes
    }

    /// Live segment files.
    pub fn segments(&self) -> u64 {
        self.segments
    }

    /// Bytes appended since the last fsync — the power-loss window.
    pub fn unsynced_bytes(&self) -> u64 {
        self.unsynced
    }

    /// Microseconds since the last fsync while data is pending (0 when
    /// everything durable).
    pub fn fsync_lag_us(&self) -> f64 {
        if self.unsynced == 0 {
            0.0
        } else {
            self.last_sync.elapsed().as_micros() as f64
        }
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Removes a tenant's log directory entirely (tenant deletion).
    pub fn remove(dir: &Path) -> io::Result<()> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
            if let Some(parent) = dir.parent() {
                fsync_dir(parent)?;
            }
        }
        Ok(())
    }
}

fn open_segment(dir: &Path, seq: u64) -> io::Result<File> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(segment_name(seq)))
}

#[cfg(test)]
mod tests {
    use super::super::segment::read_segment;
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fairsw-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny() -> WalTuning {
        WalTuning {
            segment_bytes: 64,
            compact_bytes: 256,
        }
    }

    #[test]
    fn append_rotate_compact_lifecycle() {
        let dir = scratch("life");
        let mut wal = TenantWal::create(&dir, tiny()).unwrap();
        let body = vec![7u8; 40];
        for _ in 0..6 {
            wal.append(&body).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segments() > 1, "64-byte segments must have rotated");
        assert_eq!(wal.total_bytes(), 6 * (8 + 40));
        assert_eq!(wal.unsynced_bytes(), 0);
        let on_disk = list_segments(&dir).unwrap();
        assert_eq!(on_disk.len() as u64, wal.segments());
        wal.compact().unwrap();
        assert_eq!(wal.segments(), 1);
        assert_eq!(wal.total_bytes(), 0);
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        // The log keeps accepting appends after compaction.
        wal.append(&body).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.total_bytes(), 8 + 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_truncates_torn_tail_and_later_segments() {
        let dir = scratch("reopen");
        let mut wal = TenantWal::create(&dir, tiny()).unwrap();
        for _ in 0..6 {
            wal.append(&[1u8; 40]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() >= 3);
        // Pretend replay found segment 2 torn 8 bytes in: reopen must
        // truncate it and delete segment 3+.
        let cut = LogCut { seq: 2, offset: 8 };
        let wal = TenantWal::reopen(&dir, tiny(), cut).unwrap();
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.last().unwrap().0, 2);
        assert_eq!(std::fs::metadata(&segs.last().unwrap().1).unwrap().len(), 8);
        // Segment 1 kept whole (two 48-byte frames) + the 8-byte stub.
        assert_eq!(wal.total_bytes(), 96 + 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_hold_readable_frames() {
        let dir = scratch("frames");
        let mut wal = TenantWal::create(&dir, WalTuning::default()).unwrap();
        let body = super::super::segment::encode_batch_body(0, &[]).unwrap();
        wal.append(&body).unwrap();
        wal.append(&body).unwrap();
        wal.sync().unwrap();
        let bytes = std::fs::read(dir.join(segment_name(1))).unwrap();
        let (records, valid) = read_segment(&bytes);
        assert_eq!(valid, bytes.len());
        assert_eq!(records.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
