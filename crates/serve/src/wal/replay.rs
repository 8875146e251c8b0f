//! Startup recovery: turn a spool snapshot plus a WAL suffix back into
//! a live engine.
//!
//! [`read_log`] concatenates a tenant's segment files in sequence order
//! and stops at the first damaged frame *anywhere* — a torn segment
//! also invalidates every later segment (they were appended after the
//! tear, so nothing past it can be trusted). It reports a
//! [`LogCut`] that [`TenantWal::reopen`](super::TenantWal::reopen)
//! truncates to, so the disk converges on exactly the state this replay
//! produced and a second replay cannot diverge.
//!
//! [`build_tenant`] then replays the records on top of the spool
//! snapshot (if any). Batch records carry their stream position, so
//! records the snapshot already covers are skipped point-precisely —
//! the same logic lets a follower apply a live stream on top of a
//! bootstrap snapshot.
//!
//! Snapshots restore under the metric of the tenant's `Create` record
//! (kernel exactness and staging are not part of a snapshot), and may
//! carry the spool's projection header.

use super::segment::{list_segments, read_segment, WalRecord};
use super::writer::LogCut;
use crate::protocol::{TenantConfig, WireProjection};
use fairsw_core::{ParallelismSpec, SlidingWindowClustering, WindowEngine};
use fairsw_metric::{Euclidean, Relaxed};
use std::io;
use std::path::Path;

/// Magic prefixing the spool snapshot of a *projecting* tenant. The
/// engine holds already-projected points, so its snapshot carries no
/// trace of the projection — without the header a tenant restored
/// without its config would come back accepting raw high-dimensional
/// points unprojected. Non-projecting tenants keep the bare snapshot.
const SPOOL_PROJ_MAGIC: &[u8; 4] = b"FSWQ";

/// Wraps an engine snapshot in the spool format: a 21-byte projection
/// header (magic, sparse tag, `out_dim`, seed) when the tenant
/// projects, the bare snapshot otherwise. Spool files and bootstrap
/// `Snapshot` records both use it.
pub(crate) fn spool_encode(proj: Option<WireProjection>, snapshot: &[u8]) -> Vec<u8> {
    let Some(spec) = proj else {
        return snapshot.to_vec();
    };
    let mut out = Vec::with_capacity(21 + snapshot.len());
    out.extend_from_slice(SPOOL_PROJ_MAGIC);
    out.push(if spec.sparse { 2 } else { 1 });
    out.extend_from_slice(&(spec.out_dim as u64).to_le_bytes());
    out.extend_from_slice(&spec.seed.to_le_bytes());
    out.extend_from_slice(snapshot);
    out
}

/// Splits spool-format bytes into their optional projection spec and
/// the engine snapshot. Headerless bytes (non-projecting tenants, or
/// spools written before projections existed) pass through untouched.
fn spool_decode(bytes: &[u8]) -> Result<(Option<WireProjection>, &[u8]), String> {
    if !bytes.starts_with(SPOOL_PROJ_MAGIC) {
        return Ok((None, bytes));
    }
    if bytes.len() < 21 {
        return Err("truncated projection header".into());
    }
    let sparse = match bytes[4] {
        1 => false,
        2 => true,
        other => return Err(format!("unknown projection tag {other}")),
    };
    let out_dim = u64::from_le_bytes(bytes[5..13].try_into().unwrap()) as usize;
    if out_dim == 0 {
        return Err("projection dimension 0".into());
    }
    let seed = u64::from_le_bytes(bytes[13..21].try_into().unwrap());
    Ok((
        Some(WireProjection {
            out_dim,
            seed,
            sparse,
        }),
        &bytes[21..],
    ))
}

/// Restores an engine from spool-format bytes under `config`'s metric
/// (exact kernels when the config is unknown), returning the projection
/// the header names, if any.
pub(crate) fn restore_snapshot(
    bytes: &[u8],
    config: Option<&TenantConfig>,
    parallelism: ParallelismSpec,
) -> Result<(WindowEngine<Relaxed<Euclidean>>, Option<WireProjection>), String> {
    let (proj, payload) = spool_decode(bytes)?;
    let metric = config.map_or_else(|| Relaxed::exact(Euclidean), TenantConfig::metric);
    let engine = WindowEngine::restore(metric, payload).map_err(|e| e.to_string())?;
    Ok((engine.with_parallelism(parallelism), proj))
}

/// Reads a tenant's whole log: every record up to the first damaged
/// frame, plus the cut where the valid bytes end. An absent or empty
/// directory yields no records and a cut at the start of segment 1.
pub fn read_log(dir: &Path) -> io::Result<(Vec<WalRecord>, LogCut)> {
    let mut records = Vec::new();
    let mut cut = LogCut { seq: 1, offset: 0 };
    if !dir.is_dir() {
        return Ok((records, cut));
    }
    for (seq, path) in list_segments(dir)? {
        let bytes = std::fs::read(&path)?;
        let (mut recs, valid) = read_segment(&bytes);
        records.append(&mut recs);
        cut = LogCut {
            seq,
            offset: valid as u64,
        };
        if valid < bytes.len() {
            break; // torn tail: later segments postdate the damage
        }
    }
    Ok((records, cut))
}

/// A tenant reconstructed from durable state.
pub struct ReplayedTenant {
    /// The engine, caught up to the end of the valid log.
    pub engine: WindowEngine<Relaxed<Euclidean>>,
    /// The creating configuration, when a `Create` record survives.
    pub config: Option<TenantConfig>,
    /// The ingest projection: the config's, or — without a config — the
    /// one a snapshot's spool header names.
    pub projection: Option<WireProjection>,
}

/// Replays `records` on top of `snapshot` (if any) into a live engine.
///
/// The snapshot, when present, is authoritative for everything up to
/// its stream time; batch records are applied only from that point on,
/// using each record's `start` position to skip the covered prefix.
/// It may be bare or carry the spool's projection header, and it
/// restores under the metric of the log's first `Create` record:
/// compaction reseeds the log with it, so it is the snapshot's config.
/// Returns an error (never panics) when the log is unusable — no
/// snapshot and no `Create` record, a batch before either, or a
/// snapshot that does not decode.
pub fn build_tenant(
    snapshot: Option<&[u8]>,
    records: &[WalRecord],
    parallelism: ParallelismSpec,
) -> Result<ReplayedTenant, String> {
    let mut config = records
        .iter()
        .take_while(|r| !matches!(r, WalRecord::Delete))
        .find_map(|r| match r {
            WalRecord::Create(c) => Some(c.clone()),
            _ => None,
        });
    let mut engine = None;
    let mut projection = None;
    if let Some(bytes) = snapshot {
        let (e, p) = restore_snapshot(bytes, config.as_ref(), parallelism)?;
        (engine, projection) = (Some(e), p);
    }
    for rec in records {
        match rec {
            WalRecord::Create(c) => {
                if engine.is_none() {
                    engine = Some(
                        c.build_engine()
                            .map(|e| e.with_parallelism(parallelism))
                            .map_err(|e| e.to_string())?,
                    );
                }
                config = Some(c.clone());
            }
            WalRecord::Batch { start, points } => {
                let eng = engine
                    .as_mut()
                    .ok_or("batch record before any Create or snapshot")?;
                let skip = (eng.time().saturating_sub(*start)) as usize;
                if skip < points.len() {
                    eng.insert_batch(points[skip..].iter().cloned());
                }
            }
            WalRecord::Snapshot(bytes) => {
                let (e, p) = restore_snapshot(bytes, config.as_ref(), parallelism)?;
                (engine, projection) = (Some(e), p);
            }
            WalRecord::Delete => {
                (engine, config, projection) = (None, None, None);
            }
        }
    }
    let engine = engine.ok_or("log holds no Create record or snapshot")?;
    let projection = config.as_ref().map_or(projection, |c| c.projection);
    Ok(ReplayedTenant {
        engine,
        config,
        projection,
    })
}

#[cfg(test)]
mod tests {
    use super::super::segment::encode_batch_body;
    use super::super::writer::{TenantWal, WalTuning};
    use super::*;
    use crate::protocol::WireVariant;
    use fairsw_metric::{Colored, EuclidPoint};
    use std::path::PathBuf;

    fn pt(i: u64) -> Colored<EuclidPoint> {
        Colored::new(
            EuclidPoint::new(vec![i as f64, 0.5 * i as f64]),
            (i % 2) as u32,
        )
    }

    fn config() -> TenantConfig {
        TenantConfig::new(
            24,
            vec![2, 1],
            WireVariant::Fixed {
                dmin: 1e-3,
                dmax: 1e4,
            },
        )
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fairsw-replay-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Writes `Create` + `batches` through a real [`TenantWal`].
    fn write_log(dir: &Path, batches: &[(u64, Vec<Colored<EuclidPoint>>)]) {
        let mut wal = TenantWal::create(
            dir,
            WalTuning {
                segment_bytes: 256, // force rotation mid-log
                compact_bytes: u64::MAX,
            },
        )
        .unwrap();
        let mut body = Vec::new();
        WalRecord::Create(config()).encode(&mut body).unwrap();
        wal.append(&body).unwrap();
        for (start, points) in batches {
            wal.append(&encode_batch_body(*start, points).unwrap())
                .unwrap();
        }
        wal.sync().unwrap();
    }

    fn batches(n: u64, per: u64) -> Vec<(u64, Vec<Colored<EuclidPoint>>)> {
        (0..n)
            .map(|b| (b * per, (b * per..(b + 1) * per).map(pt).collect()))
            .collect()
    }

    #[test]
    fn replay_matches_direct_ingest_across_rotated_segments() {
        let dir = scratch("direct");
        let all = batches(12, 5);
        write_log(&dir, &all);
        let (records, cut) = read_log(&dir).unwrap();
        assert_eq!(records.len(), 13); // Create + 12 batches
        assert!(cut.seq > 1, "256-byte segments must have rotated");
        let replayed = build_tenant(None, &records, ParallelismSpec::Sequential).unwrap();
        let mut oracle = config().build_engine().unwrap();
        oracle.insert_batch(all.iter().flat_map(|(_, ps)| ps.iter().cloned()));
        let engine = replayed.engine;
        assert_eq!(engine.time(), 60);
        assert_eq!(replayed.config, Some(config()));
        assert_eq!(
            engine.query().unwrap().centers,
            oracle.query().unwrap().centers
        );
    }

    #[test]
    fn snapshot_plus_suffix_skips_the_covered_prefix() {
        // Snapshot after 35 points (mid-batch boundary 7 of 12), then
        // replay the *whole* log on top: the first 7 batches must be
        // skipped, the rest applied once.
        let all = batches(12, 5);
        let mut first = config().build_engine().unwrap();
        first.insert_batch(all[..7].iter().flat_map(|(_, ps)| ps.iter().cloned()));
        let snap = first.snapshot().expect("every variant snapshots");
        let records: Vec<WalRecord> = all
            .iter()
            .map(|(start, points)| WalRecord::Batch {
                start: *start,
                points: points.clone(),
            })
            .collect();
        let replayed = build_tenant(Some(&snap), &records, ParallelismSpec::Sequential).unwrap();
        let mut oracle = config().build_engine().unwrap();
        oracle.insert_batch(all.iter().flat_map(|(_, ps)| ps.iter().cloned()));
        let engine = replayed.engine;
        assert_eq!(engine.time(), 60);
        assert_eq!(
            engine.query().unwrap().centers,
            oracle.query().unwrap().centers
        );
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix_and_reopen_converges() {
        let dir = scratch("torn");
        write_log(&dir, &batches(12, 5));
        // Tear the *middle* segment: everything from it on is discarded.
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() >= 3);
        let victim = &segs[1];
        let bytes = std::fs::read(&victim.1).unwrap();
        std::fs::write(&victim.1, &bytes[..bytes.len() - 3]).unwrap();
        let (records, cut) = read_log(&dir).unwrap();
        assert_eq!(cut.seq, victim.0);
        let replayed = build_tenant(None, &records, ParallelismSpec::Sequential).unwrap();
        let n = replayed.engine.time();
        assert!(n > 0 && n < 60, "prefix only, got {n}");
        // Reopen truncates the tear; a second replay sees the same log.
        drop(TenantWal::reopen(&dir, WalTuning::default(), cut).unwrap());
        let (again, cut2) = read_log(&dir).unwrap();
        assert_eq!(again, records);
        assert_eq!(cut2, cut);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_logs_error_cleanly() {
        assert!(build_tenant(None, &[], ParallelismSpec::Sequential).is_err());
        let orphan = [WalRecord::Batch {
            start: 0,
            points: vec![pt(0)],
        }];
        assert!(build_tenant(None, &orphan, ParallelismSpec::Sequential).is_err());
        assert!(build_tenant(Some(b"garbage"), &[], ParallelismSpec::Sequential).is_err());
    }
}
