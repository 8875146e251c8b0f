//! Differential suite for the serving layer: every reply from the TCP
//! server must be **byte-identical** to the answer of an in-process
//! sequential oracle engine fed the same stream.
//!
//! Identity is enforced at the encoding level: two replies are compared
//! by their wire bytes, and the wire writes `f64`s as raw IEEE bits, so
//! byte equality *is* bit-identity of guesses, radii, centers and
//! extras. The suite covers all five variants, single and batched
//! ingest (with batch boundaries that do not align with the server's
//! flush threshold), several tenants concurrently across shard threads,
//! and the crash-recovery path: kill after `CHECKPOINT`, restart from
//! the spool, resume bit-identically.

use fairsw_core::{SlidingWindowClustering, WindowEngine};
use fairsw_metric::{Colored, EuclidPoint, Euclidean, Exactness, Relaxed};
use fairsw_serve::loadgen::Client;
use fairsw_serve::protocol::{ErrorKind, Reply, TenantConfig, WireStats, WireVariant};
use fairsw_serve::server::{ServeConfig, Server};
use fairsw_serve::WalTuning;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const WINDOW: usize = 40;
const DMIN: f64 = 1e-3;
const DMAX: f64 = 1e4;

/// A scratch directory unique to this test process + call.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fairsw-serve-test-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        // Small flush threshold so size-triggered flushes interleave
        // with tick-triggered ones mid-test.
        flush_batch: 16,
        queue_depth: 64,
        tick: Duration::from_millis(5),
        spool_dir: None,
        ..ServeConfig::default()
    }
}

fn cp(x: f64, c: u32) -> Colored<EuclidPoint> {
    Colored::new(EuclidPoint::new(vec![x, -0.5 * x]), c)
}

/// Three windows of two-cluster data with occasional far spikes (the
/// robust variant gets genuine outliers) and a drift phase.
fn stream() -> Vec<Colored<EuclidPoint>> {
    let n = WINDOW as u64;
    (0..3 * n)
        .map(|i| {
            if i % 37 == 0 {
                cp(6e3 + i as f64, (i % 3 == 0) as u32)
            } else {
                let base = if i % 2 == 0 { 0.0 } else { 300.0 };
                cp(
                    base + (i as f64 * 0.618_033_988_7).fract() * 4.0,
                    (i % 3 == 0) as u32,
                )
            }
        })
        .chain((0..n).map(|i| {
            cp(
                150.0 + (i as f64 * 0.324_717_957_2).fract() * 2.0,
                (i % 3 == 0) as u32,
            )
        }))
        .collect()
}

/// A high-dimensional embedding stream (unit-norm, drifting clusters,
/// two colors) for the projecting-tenant lanes. Same length as
/// [`stream`] so the two can be driven through shared chunk loops.
fn embedding_stream(dim: usize) -> Vec<Colored<EuclidPoint>> {
    let params = fairsw_datasets::EmbeddingDriftParams {
        num_colors: 2,
        sigma: 0.05,
        drift: std::f64::consts::TAU / 500.0,
    };
    fairsw_datasets::embedding_drift(4 * WINDOW, dim, params, 0xfa15).points
}

/// A fixed-variant config with a JL ingest projection (unit-norm
/// embeddings keep pairwise distances in (0, 2]; the guess range covers
/// the projected stream's distortion envelope comfortably).
fn projecting_config(out_dim: usize, sparse: bool) -> TenantConfig {
    TenantConfig::new(
        WINDOW,
        vec![2, 1],
        WireVariant::Fixed {
            dmin: 1e-4,
            dmax: 16.0,
        },
    )
    .with_projection(out_dim, 0x9e37_79b9, sparse)
}

/// A non-fixed tenant on approximate kernels with the `f32` staging
/// mirror. Snapshots do not record the metric, so every restore must
/// take it from the tenant's config; on [`approx_stream`] its replies
/// differ from an exact twin's, so a restore in exact mode shows.
fn approx_config() -> TenantConfig {
    let mut config = TenantConfig::new(
        WINDOW,
        vec![2, 1],
        WireVariant::Robust {
            z: 2,
            dmin: DMIN,
            dmax: DMAX,
        },
    );
    config.exactness = Exactness::Approx { epsilon: 0.05 };
    config.compact_mirror = true;
    config
}

/// Points along a golden-ratio sequence whose coordinates `f32`
/// rounds, so the mirror's staged distances move off the exact ones.
/// Same length as [`stream`].
fn approx_stream() -> Vec<Colored<EuclidPoint>> {
    (0..4 * WINDOW as u64)
        .map(|i| {
            let f = (i as f64 * 0.618_033_988_7).fract();
            Colored::new(
                EuclidPoint::new(vec![f * 100.0, (1.0 - f) * 77.7]),
                (i % 3 == 0) as u32,
            )
        })
        .collect()
}

#[test]
fn the_approx_tenant_answers_unlike_an_exact_twin() {
    // The durability lanes below rely on this to catch a restore that
    // drops the tenant's kernel mode.
    let mut exact = approx_config();
    exact.exactness = Exactness::Exact;
    exact.compact_mirror = false;
    let [mut approx, mut exact] = [oracle_for(&approx_config()), oracle_for(&exact)];
    approx.insert_batch(approx_stream());
    exact.insert_batch(approx_stream());
    assert_ne!(
        Reply::from_query(&approx.query()).encode().unwrap(),
        Reply::from_query(&exact.query()).encode().unwrap()
    );
}

fn variants() -> Vec<(&'static str, TenantConfig)> {
    let base = |variant| TenantConfig::new(WINDOW, vec![2, 1], variant);
    vec![
        (
            "fixed",
            base(WireVariant::Fixed {
                dmin: DMIN,
                dmax: DMAX,
            }),
        ),
        ("oblivious", base(WireVariant::Oblivious)),
        (
            "compact",
            base(WireVariant::Compact {
                dmin: DMIN,
                dmax: DMAX,
            }),
        ),
        (
            "robust",
            base(WireVariant::Robust {
                z: 2,
                dmin: DMIN,
                dmax: DMAX,
            }),
        ),
        (
            "matroid",
            base(WireVariant::Matroid {
                dmin: DMIN,
                dmax: DMAX,
            }),
        ),
    ]
}

/// Builds the sequential oracle for a tenant config. A projecting
/// config gets an *engine-level* projection: the server projects on the
/// shard before the WAL while the oracle projects inside the engine,
/// and the two must still agree bit-for-bit (same seed, same matrix,
/// same kernel).
fn oracle_for(config: &TenantConfig) -> WindowEngine<Relaxed<Euclidean>> {
    let engine = config.build_engine().expect("valid oracle config");
    match config.projection {
        Some(p) => engine.with_projection(p.out_dim, p.seed, p.sparse),
        None => engine,
    }
}

/// Byte-level reply comparison (wire bytes carry raw f64 bits, so this
/// is the bit-identity the acceptance criterion demands).
fn assert_reply_bytes(ctx: &str, got: &Reply, want: &Reply) {
    assert_eq!(
        got.encode().unwrap(),
        want.encode().unwrap(),
        "{ctx}: reply diverged from oracle\n got: {got:?}\nwant: {want:?}"
    );
}

/// The deterministic part of the stats the oracle predicts.
fn expected_stats(
    oracle: &WindowEngine<Relaxed<Euclidean>>,
    variant_code: u8,
    points_total: u64,
) -> WireStats {
    let mem = oracle.memory_stats();
    WireStats {
        time: oracle.time(),
        window: oracle.window_size() as u64,
        stored_points: mem.stored_points() as u64,
        unique_points: mem.unique_points as u64,
        payload_bytes: mem.payload_bytes as u64,
        resident_bytes: mem.resident_bytes() as u64,
        num_guesses: mem.num_guesses() as u64,
        variant: variant_code,
        points_total,
        buffered: 0,
        points_per_sec: 0.0,
        query_p50_us: 0.0,
        query_p90_us: 0.0,
        query_p99_us: 0.0,
        // Durability bookkeeping is service-side: blanked by
        // `deterministic()` on the server reply, zero in the oracle.
        wal_bytes: 0,
        wal_segments: 0,
        wal_unsynced_bytes: 0,
        wal_fsync_lag_us: 0.0,
        followers: 0,
        repl_lag: 0,
        query_cache_hits: 0,
        query_cache_misses: 0,
        conns_open: 0,
        conns_accepted: 0,
        conns_reaped: 0,
        // Filled from the oracle's engine-level projection when the
        // tenant projects (the timing field is always blanked).
        proj_in_dim: oracle
            .projection()
            .map_or(0, |p| p.in_dim().unwrap_or(0) as u64),
        proj_out_dim: oracle.projection().map_or(0, |p| p.out_dim() as u64),
        proj_ns_per_point: 0.0,
    }
}

fn check_stats(ctx: &str, client: &mut Client, tenant: &str, want: WireStats) {
    match client.stats(tenant).expect("stats reply") {
        Reply::Stats(got) => {
            assert_reply_bytes(
                &format!("{ctx}/stats"),
                &Reply::Stats(got.deterministic()),
                &Reply::Stats(want),
            );
        }
        other => panic!("{ctx}: unexpected stats reply {other:?}"),
    }
}

/// Drives one tenant against its oracle, comparing QUERY and STATS at
/// three mid-stream checkpoints plus the end. `batched = None` streams
/// per-point `INSERT`s; `Some(b)` uses `INSERT_BATCH` chunks of `b`
/// (chosen to misalign with the server's flush threshold).
fn drive_tenant(
    addr: std::net::SocketAddr,
    tenant: &str,
    config: &TenantConfig,
    points: &[Colored<EuclidPoint>],
    batched: Option<usize>,
) {
    let variant_code = config.variant.code();
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(
        client.create(tenant, config).expect("create reply"),
        Reply::Ok,
        "{tenant}: create"
    );
    let mut oracle = oracle_for(config);
    let checkpoints = [points.len() / 3, 2 * points.len() / 3, points.len()];
    let mut sent = 0usize;
    let chunks: Vec<&[Colored<EuclidPoint>]> = match batched {
        Some(b) => points.chunks(b).collect(),
        None => points.chunks(1).collect(),
    };
    for chunk in chunks {
        let reply = match (batched, chunk) {
            (None, [p]) => client.insert(tenant, p).expect("insert reply"),
            _ => client.insert_batch(tenant, chunk).expect("batch reply"),
        };
        assert_eq!(reply, Reply::Ok, "{tenant}: ingest ack at {sent}");
        for p in chunk {
            oracle.insert(p.clone());
        }
        sent += chunk.len();
        if checkpoints.contains(&sent) {
            let ctx = format!("{tenant} at t={sent}");
            let got = client.query(tenant).expect("query reply");
            assert_reply_bytes(&ctx, &got, &Reply::from_query(&oracle.query()));
            check_stats(
                &ctx,
                &mut client,
                tenant,
                expected_stats(&oracle, variant_code, sent as u64),
            );
        }
    }
}

#[test]
fn every_variant_single_and_batched_matches_the_oracle_bit_for_bit() {
    let handle = Server::start("127.0.0.1:0", serve_config()).expect("server starts");
    let addr = handle.local_addr();
    let points = stream();

    // 10 tenants (5 variants × {single, batched}) driven concurrently
    // from 10 connections across 2 shard threads. Batch size 17
    // deliberately misaligns with the server's flush threshold of 16.
    std::thread::scope(|scope| {
        for (name, config) in variants() {
            let points = &points;
            let single = format!("{name}-single");
            let batch = format!("{name}-batched");
            let cfg2 = config.clone();
            scope.spawn(move || drive_tenant(addr, &single, &config, points, None));
            scope.spawn(move || drive_tenant(addr, &batch, &cfg2, points, Some(17)));
        }
    });
    handle.shutdown();
}

#[test]
fn projecting_tenants_match_an_engine_level_oracle_bit_for_bit() {
    let handle = Server::start("127.0.0.1:0", serve_config()).expect("server starts");
    let addr = handle.local_addr();
    let points = embedding_stream(48);

    // Dense and sparse projections, single and batched ingest: the
    // shard projects before the WAL, the oracle projects inside the
    // engine, and every QUERY/STATS reply must still be byte-identical.
    std::thread::scope(|scope| {
        for (name, sparse) in [("dense", false), ("sparse", true)] {
            let points = &points;
            let config = projecting_config(6, sparse);
            let cfg2 = config.clone();
            let single = format!("proj-{name}-single");
            let batch = format!("proj-{name}-batched");
            scope.spawn(move || drive_tenant(addr, &single, &config, points, None));
            scope.spawn(move || drive_tenant(addr, &batch, &cfg2, points, Some(17)));
        }
    });

    // The raw STATS surface the projection dims and a live per-point
    // timing (the deterministic() comparison above blanks the latter).
    let mut client = Client::connect(addr).expect("connect");
    match client.stats("proj-dense-single").expect("stats reply") {
        Reply::Stats(s) => {
            assert_eq!(s.proj_in_dim, 48);
            assert_eq!(s.proj_out_dim, 6);
            assert!(s.proj_ns_per_point > 0.0, "projection timing must be live");
        }
        other => panic!("unexpected stats reply {other:?}"),
    }

    // A dimension change mid-stream is refused without touching state.
    let config = projecting_config(6, false);
    assert_eq!(client.create("proj-dim", &config).unwrap(), Reply::Ok);
    assert_eq!(
        client.insert_batch("proj-dim", &points[..3]).unwrap(),
        Reply::Ok
    );
    assert!(matches!(
        client.insert("proj-dim", &cp(1.0, 0)).unwrap(),
        Reply::Error(ErrorKind::BadRequest, _)
    ));
    handle.shutdown();
}

#[test]
fn checkpoint_kill_restart_resumes_bit_identically() {
    let spool = scratch_dir("spool");
    let mk_cfg = || ServeConfig {
        spool_dir: Some(spool.clone()),
        ..serve_config()
    };
    let points = stream();
    let half = points.len() / 2;
    // A projecting tenant and an approx-kernel tenant ride along: the
    // restart must keep projecting new ingest and keep the kernel mode.
    let emb = embedding_stream(32);
    let proj_config = projecting_config(5, true);
    let approx = approx_stream();

    // One tenant per variant, each with its own window, so no two
    // restored tenants could stand in for each other.
    let tenants: Vec<(String, TenantConfig)> = variants()
        .into_iter()
        .enumerate()
        .map(|(i, (name, mut config))| {
            config.window = WINDOW + 10 * i;
            (format!("ckpt-{name}"), config)
        })
        .collect();

    {
        let handle = Server::start("127.0.0.1:0", mk_cfg()).expect("server starts");
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        for (name, config) in &tenants {
            assert_eq!(client.create(name, config).unwrap(), Reply::Ok);
            assert_eq!(
                client.insert_batch(name, &points[..half]).unwrap(),
                Reply::Ok
            );
        }
        assert_eq!(client.create("ckpt-proj", &proj_config).unwrap(), Reply::Ok);
        assert_eq!(
            client.insert_batch("ckpt-proj", &emb[..half]).unwrap(),
            Reply::Ok
        );
        let approx_config = approx_config();
        assert_eq!(
            client.create("ckpt-approx", &approx_config).unwrap(),
            Reply::Ok
        );
        assert_eq!(
            client.insert_batch("ckpt-approx", &approx[..half]).unwrap(),
            Reply::Ok
        );
        // Checkpoint-all: every variant snapshots, nothing is skipped.
        match client.checkpoint("").unwrap() {
            Reply::Checkpointed { written, skipped } => {
                assert_eq!((written, skipped), (tenants.len() as u32 + 2, 0));
            }
            other => panic!("unexpected checkpoint reply {other:?}"),
        }
        // So does a per-tenant checkpoint, whatever the variant.
        for (name, _) in &tenants {
            assert_eq!(
                client.checkpoint(name).unwrap(),
                Reply::Checkpointed {
                    written: 1,
                    skipped: 0
                },
                "{name}: checkpoint"
            );
        }
        // Kill: no graceful per-tenant teardown, exactly like a crash
        // after the spool write.
        handle.shutdown();
    }

    // Restart from the spool; continue the second half and compare
    // against oracles that saw the whole stream uninterrupted. Every
    // tenant survives, restored from its snapshot (which names the
    // variant) and the Create record the spool keeps beside it.
    let handle = Server::start("127.0.0.1:0", mk_cfg()).expect("server restarts");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for (name, config) in &tenants {
        let mut oracle = oracle_for(config);
        for p in &points {
            oracle.insert(p.clone());
        }
        assert_eq!(
            client.insert_batch(name, &points[half..]).unwrap(),
            Reply::Ok,
            "{name}: resume ingest"
        );
        let got = client.query(name).expect("query reply");
        assert_reply_bytes(
            &format!("{name} after restart"),
            &got,
            &Reply::from_query(&oracle.query()),
        );
        check_stats(
            &format!("{name} after restart"),
            &mut client,
            name,
            // points_total restarts from the snapshot's arrival clock.
            expected_stats(&oracle, config.variant.code(), points.len() as u64),
        );
        // The restarted server's cache answers the repeat — still
        // byte-identical to the recompute above.
        let again = client.query(name).expect("repeat query reply");
        assert_reply_bytes(&format!("{name} cached repeat after restart"), &again, &got);
        // The restored engine knows its colors without a config.
        assert!(matches!(
            client.insert(name, &cp(1.0, 2)).unwrap(),
            Reply::Error(ErrorKind::BadRequest, _)
        ));
    }
    // The approx tenant resumes under its own kernels.
    {
        let mut oracle = oracle_for(&approx_config());
        oracle.insert_batch(approx.iter().cloned());
        assert_eq!(
            client.insert_batch("ckpt-approx", &approx[half..]).unwrap(),
            Reply::Ok
        );
        assert_reply_bytes(
            "ckpt-approx after restart",
            &client.query("ckpt-approx").expect("query reply"),
            &Reply::from_query(&oracle.query()),
        );
    }
    // The projecting tenant resumes from its spool snapshot and keeps
    // projecting the second half bit-identically.
    {
        let mut oracle = oracle_for(&proj_config);
        for p in &emb {
            oracle.insert(p.clone());
        }
        assert_eq!(
            client.insert_batch("ckpt-proj", &emb[half..]).unwrap(),
            Reply::Ok,
            "ckpt-proj: resume ingest"
        );
        let got = client.query("ckpt-proj").expect("query reply");
        assert_reply_bytes(
            "ckpt-proj after restart",
            &got,
            &Reply::from_query(&oracle.query()),
        );
        match client.stats("ckpt-proj").expect("stats reply") {
            Reply::Stats(s) => {
                assert_eq!(s.proj_in_dim, 32, "restored spec must keep projecting");
                assert_eq!(s.proj_out_dim, 5);
            }
            other => panic!("unexpected stats reply {other:?}"),
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn read_heavy_mix_hits_the_cache_and_stays_bit_identical() {
    // The result-cache lane: a 95/5 query/ingest mix over every variant.
    // Each insert chunk is followed by 19 repeat queries — the first
    // recomputes (cache miss), the rest are answered from the cache on
    // the connection threads — and every single one must be
    // byte-identical to a cold sequential oracle fed the same prefix.
    let handle = Server::start("127.0.0.1:0", serve_config()).expect("server starts");
    let addr = handle.local_addr();
    let points = stream();

    std::thread::scope(|scope| {
        for (name, config) in variants() {
            let points = &points;
            let tenant = format!("{name}-readheavy");
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                assert_eq!(
                    client.create(&tenant, &config).unwrap(),
                    Reply::Ok,
                    "{tenant}: create"
                );
                let mut oracle = oracle_for(&config);
                // Chunk size 8 stays under the flush threshold of 16, so
                // tick-driven flushes interleave with the queries.
                for (ci, chunk) in points.chunks(8).enumerate() {
                    assert_eq!(
                        client.insert_batch(&tenant, chunk).unwrap(),
                        Reply::Ok,
                        "{tenant}: ingest chunk {ci}"
                    );
                    for p in chunk {
                        oracle.insert(p.clone());
                    }
                    let want = Reply::from_query(&oracle.query());
                    for rep in 0..19 {
                        let got = client.query(&tenant).expect("query reply");
                        assert_reply_bytes(
                            &format!("{tenant} chunk {ci} repeat {rep}"),
                            &got,
                            &want,
                        );
                    }
                }
            });
        }
    });

    // The raw (non-deterministic()) STATS carry the cache counters: a
    // repeat-dominated mix must be served mostly from the cache.
    let mut client = Client::connect(addr).expect("connect");
    match client.stats("fixed-readheavy").expect("stats reply") {
        Reply::Stats(s) => {
            assert!(s.query_cache_misses > 0, "first queries must miss");
            assert!(
                s.query_cache_hits > s.query_cache_misses,
                "a 95/5 mix must be hit-dominated: {} hits, {} misses",
                s.query_cache_hits,
                s.query_cache_misses
            );
        }
        other => panic!("unexpected stats reply {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn delete_then_recreate_reuses_a_reset_engine_exactly() {
    let handle = Server::start("127.0.0.1:0", serve_config()).expect("server starts");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let points = stream();
    let (name, config) = &variants()[0]; // fixed
    let tenant = format!("reuse-{name}");

    // First life: stream everything, then delete (parks a reset engine).
    assert_eq!(client.create(&tenant, config).unwrap(), Reply::Ok);
    assert_eq!(client.insert_batch(&tenant, &points).unwrap(), Reply::Ok);
    assert_eq!(client.delete(&tenant).unwrap(), Reply::Ok);

    // Second life under the same config: must answer exactly like a
    // fresh engine fed only the new (shorter, different) stream.
    let second: Vec<_> = points.iter().take(70).cloned().collect();
    assert_eq!(client.create(&tenant, config).unwrap(), Reply::Ok);
    assert_eq!(client.insert_batch(&tenant, &second).unwrap(), Reply::Ok);
    let mut oracle = oracle_for(config);
    for p in &second {
        oracle.insert(p.clone());
    }
    let got = client.query(&tenant).expect("query reply");
    assert_reply_bytes(
        "reuse second life",
        &got,
        &Reply::from_query(&oracle.query()),
    );
    check_stats(
        "reuse second life",
        &mut client,
        &tenant,
        expected_stats(&oracle, config.variant.code(), second.len() as u64),
    );
    handle.shutdown();
}

/// The `Threads:` count of a live process.
#[cfg(target_os = "linux")]
fn os_threads(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Threads scale with shards, never with tenants: creating, feeding and
/// querying 64 tenants, then deleting them (which parks up to 8 reset
/// engines per shard), leaves the server's thread count where it
/// started. `FAIRSW_THREADS` is set to show that no engine reads it.
#[cfg(target_os = "linux")]
#[test]
fn server_threads_stay_flat_across_tenant_churn() {
    let dir = scratch_dir("threads");
    let (mut child, addr) = spawn_served(&dir, &[], &[("FAIRSW_THREADS", "4")]);
    let at_start = os_threads(child.id());
    let mut client = Client::connect(addr).expect("connect");
    let configs = variants();
    let points = stream();
    for i in 0..64 {
        let tenant = format!("churn-{i}");
        let (_, config) = &configs[i % configs.len()];
        assert_eq!(client.create(&tenant, config).unwrap(), Reply::Ok);
        assert_eq!(
            client.insert_batch(&tenant, &points[..20]).unwrap(),
            Reply::Ok
        );
        assert_eq!(client.insert(&tenant, &points[20]).unwrap(), Reply::Ok);
        match client.query(&tenant).unwrap() {
            Reply::Solution(_) => {}
            other => panic!("{tenant}: unexpected reply {other:?}"),
        }
    }
    let with_tenants = os_threads(child.id());
    for i in 0..64 {
        assert_eq!(client.delete(&format!("churn-{i}")).unwrap(), Reply::Ok);
    }
    let after_delete = os_threads(child.id());
    child.kill().expect("kill fairsw-served");
    child.wait().expect("reap fairsw-served");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        (with_tenants, after_delete),
        (at_start, at_start),
        "threads at start, with 64 tenants, after deleting them"
    );
}

// ---------------------------------------------------------------------------
// Durability lanes: kill -9 mid-ingest, restart from the WAL; kill the
// leader, promote a hot standby. Both enforce the durable-prefix
// contract — the survivor answers byte-identically to an oracle fed
// exactly the recovered prefix, and loses at most one unsynced batch.
// ---------------------------------------------------------------------------

/// Tiny WAL thresholds so a 160-point stream exercises segment
/// rotation *and* snapshot compaction mid-test.
const SEGMENT_BYTES: u64 = 512;
const COMPACT_BYTES: u64 = 2048;

/// Spawns a real `fairsw-served` subprocess (the thing we can
/// `SIGKILL`) on an ephemeral port and waits for its bound address.
fn spawn_served(
    dir: &Path,
    extra: &[String],
    envs: &[(&str, &str)],
) -> (std::process::Child, std::net::SocketAddr) {
    std::fs::create_dir_all(dir).expect("create served dir");
    let port_file = dir.join("addr.port");
    let _ = std::fs::remove_file(&port_file);
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_fairsw-served"))
        .args(["--addr", "127.0.0.1:0", "--shards", "2"])
        .args(["--flush-batch", "16", "--tick-ms", "5"])
        .arg("--port-file")
        .arg(&port_file)
        .args(extra)
        .envs(envs.iter().copied())
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn fairsw-served");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if let Ok(addr) = s.trim().parse() {
                return (child, addr);
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("fairsw-served exited before binding: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for fairsw-served to bind"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Durability flags for one server rooted at `dir`.
fn wal_args(dir: &Path) -> Vec<String> {
    vec![
        "--spool".into(),
        dir.join("spool").display().to_string(),
        "--wal".into(),
        dir.join("wal").display().to_string(),
        "--wal-segment-bytes".into(),
        SEGMENT_BYTES.to_string(),
        "--wal-compact-bytes".into(),
        COMPACT_BYTES.to_string(),
    ]
}

/// One tenant per variant plus one projecting tenant (its WAL and
/// snapshots hold projected points; recovery must keep projecting) and
/// one approx-kernel tenant (recovery must keep its kernel mode).
/// Every variant snapshots, so compaction folds every log into the
/// spool. Every tenant carries its own stream of identical length, so
/// the ingest loops chunk by index.
fn wal_tenants() -> Vec<(String, TenantConfig, Vec<Colored<EuclidPoint>>)> {
    variants()
        .into_iter()
        .map(|(name, config)| (format!("wal-{name}"), config, stream()))
        .chain([
            (
                "wal-proj".to_string(),
                projecting_config(4, false),
                embedding_stream(24),
            ),
            ("wal-approx".to_string(), approx_config(), approx_stream()),
        ])
        .collect()
}

/// Recovered point count for `tenant`, with the replay invariant that
/// nothing is left buffered.
fn durable_points(client: &mut Client, tenant: &str) -> usize {
    match client.stats(tenant).expect("stats reply") {
        Reply::Stats(s) => {
            assert_eq!(s.buffered, 0, "{tenant}: replay must leave no buffer");
            assert_eq!(s.time, s.points_total, "{tenant}: replay must be applied");
            s.points_total as usize
        }
        other => panic!("{tenant}: unexpected stats reply {other:?}"),
    }
}

/// Verifies the durable-prefix contract for one tenant on a recovered
/// server, then streams the rest of `points` and verifies full-stream
/// identity: the survivor keeps serving, bit-for-bit.
fn verify_recovered_tenant(
    client: &mut Client,
    tenant: &str,
    config: &TenantConfig,
    points: &[Colored<EuclidPoint>],
    acked: usize,
    batch: usize,
) {
    let durable = durable_points(client, tenant);
    assert!(
        durable >= acked,
        "{tenant}: lost acked points ({acked} acked, {durable} recovered)"
    );
    assert!(
        durable - acked <= batch,
        "{tenant}: recovered more than the one in-flight batch past the acks \
         ({acked} acked, {durable} recovered, batch {batch})"
    );
    assert!(durable <= points.len());
    let mut oracle = oracle_for(config);
    for p in &points[..durable] {
        oracle.insert(p.clone());
    }
    let got = client.query(tenant).expect("query reply");
    assert_reply_bytes(
        &format!("{tenant} durable prefix t={durable}"),
        &got,
        &Reply::from_query(&oracle.query()),
    );
    // A recovered server holds only already-projected WAL records, so it
    // rediscovers the projection input dimension from the next raw
    // insert; until then STATS report it as 0.
    let mut want = expected_stats(&oracle, config.variant.code(), durable as u64);
    want.proj_in_dim = 0;
    check_stats(&format!("{tenant} durable prefix"), client, tenant, want);
    // Resume the stream where the durable prefix ends.
    assert_eq!(
        client.insert_batch(tenant, &points[durable..]).unwrap(),
        Reply::Ok,
        "{tenant}: resume ingest"
    );
    for p in &points[durable..] {
        oracle.insert(p.clone());
    }
    let got = client.query(tenant).expect("query reply");
    assert_reply_bytes(
        &format!("{tenant} resumed to t={}", points.len()),
        &got,
        &Reply::from_query(&oracle.query()),
    );
    // The resumed raw inserts re-materialize the projector, so the
    // input dimension is live again (unless nothing was left to send).
    let mut want = expected_stats(&oracle, config.variant.code(), points.len() as u64);
    if durable == points.len() {
        want.proj_in_dim = 0;
    }
    check_stats(&format!("{tenant} resumed"), client, tenant, want);
    // No write intervened, so the repeat is served from the survivor's
    // result cache — and must still be byte-identical to the recompute.
    let again = client.query(tenant).expect("repeat query reply");
    assert_reply_bytes(&format!("{tenant} cached repeat"), &again, &got);
}

#[test]
fn wal_kill_nine_mid_ingest_loses_at_most_one_unsynced_batch() {
    const BATCH: usize = 7; // misaligned with the flush threshold of 16
    let dir = scratch_dir("wal-kill");
    let (child, addr) = spawn_served(&dir, &wal_args(&dir), &[]);
    let tenants = wal_tenants();
    let len = tenants[0].2.len();

    let mut client = Client::connect(addr).expect("connect");
    for (name, config, _) in &tenants {
        assert_eq!(client.create(name, config).unwrap(), Reply::Ok);
    }
    // Warm up a few guaranteed batches, then check the STATS durability
    // fields are live on a WAL-backed leader.
    let mut acked = vec![0usize; tenants.len()];
    let warmup = 3;
    for start in (0..len).step_by(BATCH).take(warmup) {
        let end = (start + BATCH).min(len);
        for (i, (name, _, pts)) in tenants.iter().enumerate() {
            assert_eq!(
                client.insert_batch(name, &pts[start..end]).unwrap(),
                Reply::Ok
            );
            acked[i] += end - start;
        }
    }
    match client.stats("wal-oblivious").unwrap() {
        Reply::Stats(s) => {
            assert!(s.wal_bytes > 0, "WAL bytes must be reported");
            assert!(s.wal_segments >= 1, "WAL segments must be reported");
        }
        other => panic!("unexpected stats reply {other:?}"),
    }
    // Checkpoint once, so every tenant recovers through a snapshot plus
    // a WAL suffix whenever the kill lands.
    assert!(matches!(
        client.checkpoint("").unwrap(),
        Reply::Checkpointed { skipped: 0, .. }
    ));

    // SIGKILL at a random moment while the rest of the stream is in
    // flight (seed printed so a failure can be replayed by pinning it).
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .subsec_nanos() as u64;
    let delay = Duration::from_millis(2 + seed % 60);
    println!("kill -9 scheduled {delay:?} into the tail ingest (seed {seed})");
    let killer = std::thread::spawn(move || {
        let mut child = child;
        std::thread::sleep(delay);
        child.kill().expect("SIGKILL fairsw-served");
        child.wait().expect("reap fairsw-served");
    });
    'ingest: for start in (0..len).step_by(BATCH).skip(warmup) {
        let end = (start + BATCH).min(len);
        for (i, (name, _, pts)) in tenants.iter().enumerate() {
            match client.insert_batch(name, &pts[start..end]) {
                Ok(Reply::Ok) => acked[i] += end - start,
                Ok(other) => panic!("unexpected ingest reply {other:?}"),
                // The kill landed: whatever was acked is the contract.
                Err(_) => break 'ingest,
            }
        }
        // Pace the stream so the random kill usually lands mid-ingest.
        std::thread::sleep(Duration::from_millis(1));
    }
    killer.join().expect("killer thread");

    // Restart in-process on the same spool + WAL and hold every reply
    // against an oracle fed exactly the recovered prefix.
    let cfg = ServeConfig {
        spool_dir: Some(dir.join("spool")),
        wal_dir: Some(dir.join("wal")),
        wal_tuning: WalTuning {
            segment_bytes: SEGMENT_BYTES,
            compact_bytes: COMPACT_BYTES,
        },
        ..serve_config()
    };
    let handle = Server::start("127.0.0.1:0", cfg).expect("server restarts from WAL");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for (i, (name, config, pts)) in tenants.iter().enumerate() {
        verify_recovered_tenant(&mut client, name, config, pts, acked[i], BATCH);
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The failover contract against a running leader: it takes two thirds
/// of every tenant's stream alone; a hot standby (durable under `dir`)
/// comes up and catches up through the bootstrap, then through the live
/// tail; `stop_leader` takes the leader down; the promoted standby must
/// hold exactly what was acknowledged and resume bit-identically. A
/// leader that already `held` the first points of every tenant (`0`: it
/// has no tenants yet) takes the rest of the two thirds.
fn failover_lane(
    leader_addr: std::net::SocketAddr,
    dir: &Path,
    held: usize,
    stop_leader: impl FnOnce(),
) {
    const BATCH: usize = 7;
    let tenants = wal_tenants();
    let len = tenants[0].2.len();
    let two_thirds = 2 * len / 3;

    // Phase 1: the leader takes the first two thirds alone — the
    // standby's bootstrap must carry all of it, as one snapshot per
    // tenant.
    let mut client = Client::connect(leader_addr).expect("connect leader");
    if held == 0 {
        for (name, config, _) in &tenants {
            assert_eq!(client.create(name, config).unwrap(), Reply::Ok);
        }
    }
    let mut sent = held;
    for start in (held..two_thirds).step_by(BATCH) {
        let end = (start + BATCH).min(two_thirds);
        for (name, _, pts) in &tenants {
            assert_eq!(
                client.insert_batch(name, &pts[start..end]).unwrap(),
                Reply::Ok
            );
        }
        sent += end - start;
    }

    // Phase 2: hot standby comes up, bootstraps, and follows.
    let follower_cfg = ServeConfig {
        spool_dir: Some(dir.join("f-spool")),
        wal_dir: Some(dir.join("f-wal")),
        wal_tuning: WalTuning {
            segment_bytes: SEGMENT_BYTES,
            compact_bytes: COMPACT_BYTES,
        },
        follow: Some(leader_addr.to_string()),
        ..serve_config()
    };
    let follower = Server::start("127.0.0.1:0", follower_cfg).expect("follower starts");
    assert!(follower.is_follower());
    let mut fclient = Client::connect(follower.local_addr()).expect("connect follower");
    let caught_up = |fclient: &mut Client, target: usize| {
        let deadline = Instant::now() + Duration::from_secs(30);
        for (name, _, _) in &tenants {
            loop {
                match fclient.stats(name) {
                    Ok(Reply::Stats(s)) if s.points_total >= target as u64 => break,
                    // Not bootstrapped yet (or mid-catch-up): retry.
                    Ok(_) => {}
                    Err(e) => panic!("{name}: follower stats failed: {e}"),
                }
                assert!(
                    Instant::now() < deadline,
                    "{name}: follower never caught up to t={target}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    caught_up(&mut fclient, sent);
    // A follower refuses writes until promoted.
    assert!(matches!(
        fclient
            .insert_batch(&tenants[0].0, &tenants[0].2[..1])
            .unwrap(),
        Reply::Error(ErrorKind::ReadOnly, _)
    ));

    // Phase 3: live tail — more leader ingest streams through the
    // subscription, not the bootstrap.
    for start in (two_thirds..len).step_by(BATCH).take(3) {
        let end = (start + BATCH).min(len);
        for (name, _, pts) in &tenants {
            assert_eq!(
                client.insert_batch(name, &pts[start..end]).unwrap(),
                Reply::Ok
            );
        }
        sent += end - start;
    }
    caught_up(&mut fclient, sent);

    // Phase 4: kill the leader, promote the standby, verify the durable
    // prefix (the catch-up barrier makes it exactly `sent`) and resume
    // the stream on the new leader.
    stop_leader();
    assert_eq!(fclient.promote().unwrap(), Reply::Ok);
    assert!(!follower.is_follower());
    assert!(matches!(
        fclient.promote().unwrap(),
        Reply::Error(ErrorKind::Unsupported, _)
    ));
    for (name, config, pts) in &tenants {
        verify_recovered_tenant(&mut fclient, name, config, pts, sent, BATCH);
    }
    follower.shutdown();
}

#[test]
fn leader_kill_follower_promote_resumes_bit_identically() {
    let dir = scratch_dir("failover");
    let (mut leader, leader_addr) =
        spawn_served(&dir.join("leader"), &wal_args(&dir.join("leader")), &[]);
    failover_lane(leader_addr, &dir, 0, move || {
        leader.kill().expect("SIGKILL leader");
        leader.wait().expect("reap leader");
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn follower_of_a_leader_without_a_wal_replicates_every_variant() {
    // The bootstrap ships one snapshot per tenant and the live tail is
    // fanned out as writes are accepted, so a leader with neither WAL
    // nor spool still brings a standby up to date.
    let dir = scratch_dir("failover-no-wal");
    let leader = Server::start("127.0.0.1:0", serve_config()).expect("leader starts");
    let leader_addr = leader.local_addr();
    failover_lane(leader_addr, &dir, 0, move || leader.shutdown());
    let _ = std::fs::remove_dir_all(&dir);

    // A leader with a spool but no WAL that restarted from its
    // checkpoints: the spool kept each tenant's Create record, so the
    // standby still receives every projection and kernel mode.
    let dir = scratch_dir("failover-spool");
    let cfg = ServeConfig {
        spool_dir: Some(dir.join("l-spool")),
        ..serve_config()
    };
    let held = WINDOW;
    let leader = Server::start("127.0.0.1:0", cfg.clone()).expect("leader starts");
    let mut client = Client::connect(leader.local_addr()).expect("connect leader");
    for (name, config, pts) in &wal_tenants() {
        assert_eq!(client.create(name, config).unwrap(), Reply::Ok);
        assert_eq!(client.insert_batch(name, &pts[..held]).unwrap(), Reply::Ok);
    }
    assert!(matches!(
        client.checkpoint("").unwrap(),
        Reply::Checkpointed { skipped: 0, .. }
    ));
    leader.shutdown();
    let leader = Server::start("127.0.0.1:0", cfg).expect("leader restarts from its spool");
    let leader_addr = leader.local_addr();
    failover_lane(leader_addr, &dir, held, move || leader.shutdown());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_follower_learns_the_projection_of_a_tenant_restored_without_its_config() {
    // A spool written before servers kept each tenant's Create record
    // beside its snapshot restores the tenant without a config. The
    // bootstrap snapshot travels in spool format, so its projection
    // header still tells the follower to project what it is sent after
    // promotion.
    let dir = scratch_dir("legacy-spool");
    let cfg = ServeConfig {
        spool_dir: Some(dir.clone()),
        ..serve_config()
    };
    let config = projecting_config(4, true);
    let emb = embedding_stream(24);
    let half = emb.len() / 2;
    let leader = Server::start("127.0.0.1:0", cfg.clone()).expect("leader starts");
    let mut client = Client::connect(leader.local_addr()).expect("connect leader");
    assert_eq!(client.create("legacy", &config).unwrap(), Reply::Ok);
    assert_eq!(
        client.insert_batch("legacy", &emb[..half]).unwrap(),
        Reply::Ok
    );
    assert!(matches!(
        client.checkpoint("legacy").unwrap(),
        Reply::Checkpointed { written: 1, .. }
    ));
    leader.shutdown();
    std::fs::remove_file(dir.join("legacy.create")).expect("remove the config file");

    let leader = Server::start("127.0.0.1:0", cfg).expect("leader restarts from its spool");
    let follower_cfg = ServeConfig {
        follow: Some(leader.local_addr().to_string()),
        ..serve_config()
    };
    let follower = Server::start("127.0.0.1:0", follower_cfg).expect("follower starts");
    let mut fclient = Client::connect(follower.local_addr()).expect("connect follower");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !matches!(fclient.stats("legacy"), Ok(Reply::Stats(s)) if s.points_total == half as u64) {
        assert!(Instant::now() < deadline, "follower never bootstrapped");
        std::thread::sleep(Duration::from_millis(5));
    }
    leader.shutdown();
    assert_eq!(fclient.promote().unwrap(), Reply::Ok);
    assert_eq!(
        fclient.insert_batch("legacy", &emb[half..]).unwrap(),
        Reply::Ok
    );
    let mut oracle = oracle_for(&config);
    oracle.insert_batch(emb.iter().cloned());
    assert_reply_bytes(
        "legacy after promotion",
        &fclient.query("legacy").expect("query reply"),
        &Reply::from_query(&oracle.query()),
    );
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_variants_wal_stays_bounded_by_compaction() {
    // The crash drill's resource gate: a long stream through every
    // variant with tiny thresholds. Compaction runs on the shard tick,
    // so after a tick each log is back under the threshold — it never
    // holds more than the threshold plus one segment.
    let dir = scratch_dir("wal-bound");
    let cfg = ServeConfig {
        spool_dir: Some(dir.join("spool")),
        wal_dir: Some(dir.join("wal")),
        wal_tuning: WalTuning {
            segment_bytes: SEGMENT_BYTES,
            compact_bytes: COMPACT_BYTES,
        },
        ..serve_config()
    };
    let tenants = variants();
    // Five streams back to back: every log crosses the threshold often.
    let points: Vec<_> = (0..5).flat_map(|_| stream()).collect();
    let handle = Server::start("127.0.0.1:0", cfg.clone()).expect("server starts");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for (name, config) in &tenants {
        assert_eq!(client.create(name, config).unwrap(), Reply::Ok);
    }
    // A log that shrank between two readings was compacted.
    let mut last = vec![0u64; tenants.len()];
    let mut compacted = vec![false; tenants.len()];
    for chunk in points.chunks(16) {
        for (name, _) in &tenants {
            assert_eq!(client.insert_batch(name, chunk).unwrap(), Reply::Ok);
        }
        // Let the shard ticks run.
        std::thread::sleep(Duration::from_millis(15));
        for (i, (name, _)) in tenants.iter().enumerate() {
            match client.stats(name).expect("stats reply") {
                Reply::Stats(s) => {
                    assert!(
                        s.wal_bytes <= COMPACT_BYTES + SEGMENT_BYTES,
                        "{name}: WAL holds {} bytes, threshold {COMPACT_BYTES}",
                        s.wal_bytes
                    );
                    compacted[i] |= s.wal_bytes < last[i];
                    last[i] = s.wal_bytes;
                }
                other => panic!("{name}: unexpected stats reply {other:?}"),
            }
        }
    }
    assert!(
        compacted.iter().all(|&c| c),
        "every log must have compacted"
    );
    handle.shutdown();
    // The bounded logs plus their snapshots still hold everything.
    let handle = Server::start("127.0.0.1:0", cfg).expect("server restarts");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for (name, config) in &tenants {
        let mut oracle = oracle_for(config);
        oracle.insert_batch(points.iter().cloned());
        assert_reply_bytes(
            &format!("{name} after the drill"),
            &client.query(name).expect("query reply"),
            &Reply::from_query(&oracle.query()),
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
