//! The multi-tenant TCP server: shard threads own the engines, the hot
//! path is lock-free, admission control is a bounded queue, and one
//! event-driven reactor thread fronts every connection.
//!
//! ## Architecture
//!
//! ```text
//! client ──▶ ┌───────────────┐  bounded try_send  ┌────────────────────┐
//! client ──▶ │ reactor       │ ──────────────────▶│ shard 0: {tenants} │
//!   ⋮        │ (one thread,  │     (OVERLOADED    │ shard 1: {tenants} │
//! client ──▶ │  nonblocking) │      when full)    └────────────────────┘
//!            └───────────────┘ ◀─── reply channel + waker ──┘
//! ```
//!
//! Tenants are hash-sharded by name across `shards` worker threads; each
//! shard **owns** its tenants' [`WindowEngine`]s outright — no mutex is
//! ever taken on the insert/query path; cross-thread communication is
//! exactly one bounded [`sync_channel`] per shard. When a shard's queue
//! is full, the reactor replies [`ErrorKind::Overloaded`] immediately
//! instead of buffering without bound — clients treat it as
//! back-pressure and retry.
//!
//! The connection front-end lives in [`crate::net`]: a single reactor
//! thread multiplexes every socket (nonblocking I/O over a hand-rolled
//! `poll(2)` binding), reassembles frames from arbitrary byte chunks,
//! pipelines any number of in-flight requests per connection with
//! replies kept in request order, and reaps stalled or idle
//! connections. Requests that need a shard are dispatched exactly as
//! before — the same bounded channels, the same `OVERLOADED` contract —
//! with the per-request reply channel wrapped in a `ReplyTx` that
//! pokes the reactor's waker on completion.
//!
//! Arriving points land in a per-tenant ingest buffer that flushes into
//! the engine's batched [`insert_batch`] path when it reaches
//! [`ServeConfig::flush_batch`] points or on the shard's idle tick, so
//! per-frame wire overhead amortizes into one engine call per batch.
//! `QUERY`/`STATS`/`CHECKPOINT` flush first, so replies always reflect
//! every acknowledged insert. Because the batched path is bit-identical
//! to per-point insertion (the PR 2 guarantee), the flush schedule never
//! shows up in answers.
//!
//! `CHECKPOINT` writes each tenant's engine snapshot atomically
//! (tmp + rename) to [`ServeConfig::spool_dir`]; [`Server::start`]
//! replays the spool, so a kill-and-restart resumes every checkpointed
//! tenant, whatever its variant — the snapshot names it. `DELETE`
//! resets the tenant's engine ([`WindowEngine::reset`]) and parks it
//! for reuse by the next `CREATE` with an identical configuration —
//! delete-and-recreate churn costs no reconstruction.
//!
//! [`insert_batch`]: fairsw_core::SlidingWindowClustering::insert_batch

use crate::net::conn::NetConfig;
use crate::net::reactor::{ConnStats, Reactor};
use crate::net::wake::{wake_pair, Waker};
use crate::protocol::{
    valid_tenant_name, write_frame, ErrorKind, Reply, Request, TenantConfig, WireProjection,
    WireStats,
};
use crate::wal::replay::{restore_snapshot, spool_encode};
use crate::wal::replicate::{follower_loop, subscription, Subscriber};
use crate::wal::segment::{encode_batch_body, encode_create_body};
use crate::wal::{atomic_write, build_tenant, read_log, TenantWal, WalRecord, WalTuning};
use fairsw_core::{ParallelismSpec, SlidingWindowClustering, WindowEngine};
use fairsw_metric::{Colored, EuclidPoint, Euclidean, Projectable, Projector, Relaxed};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Extension of spool files (one engine snapshot per tenant).
const SPOOL_EXT: &str = "fsw2";
/// Extension of the spool's per-tenant config file: the `Create` record
/// a server without a WAL keeps beside the snapshot.
const CONFIG_EXT: &str = "create";
/// Recent query latencies retained per tenant for the percentiles.
const LATENCY_WINDOW: usize = 512;
/// Reset engines parked per shard for delete-and-recreate reuse.
const PARK_CAP: usize = 8;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Shard threads (tenants are hash-partitioned across them).
    pub shards: usize,
    /// Ingest-buffer flush threshold in points.
    pub flush_batch: usize,
    /// Bounded per-shard queue depth (admission control).
    pub queue_depth: usize,
    /// Idle tick: buffered points older than one tick are flushed even
    /// if the buffer is short.
    pub tick: Duration,
    /// Snapshot spool directory (`CHECKPOINT` target, replayed on
    /// startup). `None` disables checkpointing.
    pub spool_dir: Option<PathBuf>,
    /// Write-ahead-log root (one subdirectory per tenant). `None`
    /// disables the WAL: only `CHECKPOINT`ed state survives a kill.
    /// With a WAL, every *acknowledged* write is replayed on restart
    /// (group-commit fsync on the tick; see [`crate::wal`]).
    pub wal_dir: Option<PathBuf>,
    /// WAL segment-rotation and compaction thresholds.
    pub wal_tuning: WalTuning,
    /// Start as a hot standby replicating from this leader address.
    /// The server is read-only (writes answer [`ErrorKind::ReadOnly`])
    /// until a `PROMOTE` request detaches it.
    pub follow: Option<String>,
    /// Reap a fully idle connection after this long without a byte
    /// from the peer (see [`crate::net`]).
    pub idle_timeout: Duration,
    /// Reap a connection stalled mid-frame after this long — the
    /// slowloris guard (see [`crate::net`]).
    pub header_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            flush_batch: 512,
            queue_depth: 128,
            tick: Duration::from_millis(20),
            spool_dir: None,
            wal_dir: None,
            wal_tuning: WalTuning::default(),
            follow: None,
            idle_timeout: NetConfig::default().idle_timeout,
            header_timeout: NetConfig::default().header_timeout,
        }
    }
}

impl ServeConfig {
    /// The WAL directory of one tenant (tenant names are validated to
    /// be path-safe).
    fn tenant_wal_dir(&self, tenant: &str) -> Option<PathBuf> {
        self.wal_dir.as_ref().map(|d| d.join(tenant))
    }

    /// The connection-level knobs, in the net layer's shape.
    fn net_config(&self) -> NetConfig {
        NetConfig {
            idle_timeout: self.idle_timeout,
            header_timeout: self.header_timeout,
            ..NetConfig::default()
        }
    }
}

/// One tenant's slot in the [`QueryCache`]: a version counter bumped by
/// every accepted state change, plus the `QUERY` reply recorded at that
/// version (when one was).
#[derive(Default)]
struct CacheEntry {
    version: u64,
    reply: Option<Reply>,
}

/// The serve-side `QUERY` result cache, shared by every connection
/// thread and every shard.
///
/// Each tenant carries a *version*: a counter bumped for every state
/// change — by the router when it dispatches a write (ingest, create,
/// delete), so a `QUERY` routed after it can no longer hit, and by the
/// shard for create, delete and every replicated record a follower
/// applies. Bumping clears the tenant's cached reply. A repeat `QUERY`
/// at an unchanged version is answered straight from the cache on the
/// connection thread, never touching the shard's engine; the first
/// query after a change recomputes and re-records. Because a cached
/// reply is the exact encoded reply a shard produced at a version no
/// write has moved since, cache answers are byte-identical to a
/// from-scratch recompute — the read-heavy differential lane enforces
/// this.
#[derive(Default)]
struct QueryCache {
    entries: Mutex<HashMap<String, CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl QueryCache {
    fn entries(&self) -> std::sync::MutexGuard<'_, HashMap<String, CacheEntry>> {
        // Every write under this lock replaces whole slots, so a holder
        // that panicked cannot leave a torn entry — a poisoned lock is
        // still safe to read through.
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Invalidates `tenant`: a state change was accepted for it.
    fn bump(&self, tenant: &str) {
        let mut entries = self.entries();
        let e = entries.entry(tenant.to_string()).or_default();
        e.version = e.version.wrapping_add(1);
        e.reply = None;
    }

    /// Cache lookup. A hit returns the recorded reply; a miss returns
    /// `None` plus the tenant's version at lookup time, which keys the
    /// subsequent [`store`](Self::store).
    fn begin_query(&self, tenant: &str) -> (Option<Reply>, u64) {
        let entries = self.entries();
        match entries.get(tenant) {
            Some(e) if e.reply.is_some() => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                (e.reply.clone(), e.version)
            }
            Some(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                (None, e.version)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                (None, 0)
            }
        }
    }

    /// Records a computed reply under the version observed before the
    /// query was dispatched. When a write raced the computation the
    /// version has moved and the store is refused — the reply may or
    /// may not reflect that write, so it must never be served again.
    /// Only deterministic outcomes (a solution, or the engine's own
    /// query error) are cacheable; admission-control and routing errors
    /// are transient.
    fn store(&self, tenant: &str, version: u64, reply: &Reply) {
        if !matches!(
            reply,
            Reply::Solution(_) | Reply::Error(ErrorKind::QueryFailed, _)
        ) {
            return;
        }
        let mut entries = self.entries();
        let e = entries.entry(tenant.to_string()).or_default();
        if e.version == version {
            e.reply = Some(reply.clone());
        }
    }

    fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// FNV-1a; stable tenant → shard assignment.
fn shard_of(tenant: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// The shard-side half of a tenant's JL ingest projection: the wire
/// spec plus the matrix, rematerialized from the seed once the first
/// point reveals the input dimensionality.
///
/// The shard projects accepted points *before* they reach
/// [`accept_batch`], so the WAL, the replication stream, the ingest
/// buffer, the engine, and every snapshot hold only `out_dim`-sized
/// payloads. Followers and WAL replay therefore apply already-projected
/// records verbatim — projection happens exactly once, on the accepting
/// leader, and recovery is bit-identical by construction.
struct TenantProjection {
    spec: WireProjection,
    projector: Option<Projector>,
    /// Accumulated projection wall time (ns) and points, for `STATS`.
    spent_ns: u64,
    points: u64,
}

impl TenantProjection {
    fn new(spec: WireProjection) -> Self {
        TenantProjection {
            spec,
            projector: None,
            spent_ns: 0,
            points: 0,
        }
    }

    /// Projects a batch in place. The tenant's first-ever point fixes
    /// the input dimensionality; every later point must match it. The
    /// whole batch is validated *before* anything is projected (or the
    /// matrix materialized), preserving the ingest path's all-or-nothing
    /// contract: a refused batch changes no state.
    #[allow(clippy::result_large_err)] // Err is the wire `Reply`; cold path
    fn apply(&mut self, points: &mut [Colored<EuclidPoint>]) -> Result<(), Reply> {
        if points.is_empty() {
            return Ok(());
        }
        let in_dim = match &self.projector {
            Some(pr) => pr.in_dim(),
            None => points[0].point.dim(),
        };
        if in_dim == 0 {
            return Err(Reply::Error(
                ErrorKind::BadRequest,
                "cannot project a zero-dimensional point".into(),
            ));
        }
        if let Some(bad) = points.iter().find(|p| p.point.dim() != in_dim) {
            return Err(Reply::Error(
                ErrorKind::BadRequest,
                format!(
                    "point dimension {} does not match the projection input dimension {in_dim}",
                    bad.point.dim()
                ),
            ));
        }
        let projector = self.projector.get_or_insert_with(|| {
            if self.spec.sparse {
                Projector::sparse(in_dim, self.spec.out_dim, self.spec.seed)
            } else {
                Projector::dense(in_dim, self.spec.out_dim, self.spec.seed)
            }
        });
        let t0 = Instant::now();
        for p in points.iter_mut() {
            *p = Colored::new(p.point.project_with(projector), p.color);
        }
        self.spent_ns += t0.elapsed().as_nanos() as u64;
        self.points += points.len() as u64;
        Ok(())
    }

    fn in_dim(&self) -> u64 {
        self.projector.as_ref().map_or(0, |p| p.in_dim() as u64)
    }

    fn ns_per_point(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.spent_ns as f64 / self.points as f64
        }
    }
}

/// One tenant: its engine plus ingest buffer and service counters.
struct Tenant {
    engine: WindowEngine<Relaxed<Euclidean>>,
    /// The creating config (None for a tenant restored without its
    /// `Create` record) — the key for delete-and-recreate engine reuse.
    config: Option<TenantConfig>,
    variant_code: u8,
    buffer: Vec<Colored<EuclidPoint>>,
    points_total: u64,
    created: Instant,
    latencies: Vec<Duration>,
    /// The tenant's write-ahead log (servers started with a WAL dir).
    wal: Option<TenantWal>,
    /// JL ingest projection (from the config, or a spool header).
    proj: Option<TenantProjection>,
}

impl Tenant {
    fn new(engine: WindowEngine<Relaxed<Euclidean>>, config: Option<TenantConfig>) -> Self {
        let variant_code = match engine.variant_name() {
            "fixed" => 0,
            "oblivious" => 1,
            "compact" => 2,
            "robust" => 3,
            _ => 4,
        };
        let proj = config
            .as_ref()
            .and_then(|c| c.projection)
            .map(TenantProjection::new);
        Tenant {
            engine,
            config,
            variant_code,
            buffer: Vec::new(),
            points_total: 0,
            created: Instant::now(),
            latencies: Vec::new(),
            wal: None,
            proj,
        }
    }

    fn with_wal(mut self, wal: Option<TenantWal>) -> Self {
        self.wal = wal;
        self
    }

    /// Attaches a projection spec recovered from a spool header (the
    /// config-less restore path).
    fn with_projection(mut self, spec: Option<WireProjection>) -> Self {
        if let Some(spec) = spec {
            self.proj = Some(TenantProjection::new(spec));
        }
        self
    }

    /// Rejects colors the engine's color-indexed tables cannot hold —
    /// they would panic the shard deep inside the engine otherwise. The
    /// engine knows its colors whether it was created or restored.
    #[allow(clippy::result_large_err)] // Err is the wire `Reply`; cold path
    fn check_colors<'a>(
        &self,
        points: impl IntoIterator<Item = &'a Colored<EuclidPoint>>,
    ) -> Result<(), Reply> {
        let ncolors = self.engine.num_colors();
        match points.into_iter().find(|p| p.color as usize >= ncolors) {
            None => Ok(()),
            Some(p) => Err(Reply::Error(
                ErrorKind::BadRequest,
                format!(
                    "color {} out of range (tenant has {ncolors} colors)",
                    p.color
                ),
            )),
        }
    }

    /// Applies the buffered points through the batched fast path.
    fn flush(&mut self) {
        if !self.buffer.is_empty() {
            self.engine.insert_batch(self.buffer.drain(..));
        }
    }

    fn record_latency(&mut self, d: Duration) {
        if self.latencies.len() == LATENCY_WINDOW {
            self.latencies.remove(0);
        }
        self.latencies.push(d);
    }

    fn stats(&self) -> WireStats {
        let mem = self.engine.memory_stats();
        let elapsed = self.created.elapsed().as_secs_f64().max(1e-9);
        let mut sorted: Vec<f64> = self
            .latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1e6)
            .collect();
        sorted.sort_by(f64::total_cmp);
        let pct = |q: f64| crate::percentile::percentile_sorted(&sorted, q);
        WireStats {
            time: self.engine.time(),
            window: self.engine.window_size() as u64,
            stored_points: mem.stored_points() as u64,
            unique_points: mem.unique_points as u64,
            payload_bytes: mem.payload_bytes as u64,
            resident_bytes: mem.resident_bytes() as u64,
            num_guesses: mem.num_guesses() as u64,
            variant: self.variant_code,
            points_total: self.points_total,
            buffered: self.buffer.len() as u64,
            points_per_sec: self.points_total as f64 / elapsed,
            query_p50_us: pct(0.50),
            query_p90_us: pct(0.90),
            query_p99_us: pct(0.99),
            wal_bytes: self.wal.as_ref().map_or(0, TenantWal::total_bytes),
            wal_segments: self.wal.as_ref().map_or(0, TenantWal::segments),
            wal_unsynced_bytes: self.wal.as_ref().map_or(0, TenantWal::unsynced_bytes),
            wal_fsync_lag_us: self.wal.as_ref().map_or(0.0, TenantWal::fsync_lag_us),
            // Shard- and server-level: filled in by the shard serving
            // the request.
            followers: 0,
            repl_lag: 0,
            query_cache_hits: 0,
            query_cache_misses: 0,
            conns_open: 0,
            conns_accepted: 0,
            conns_reaped: 0,
            proj_in_dim: self.proj.as_ref().map_or(0, TenantProjection::in_dim),
            proj_out_dim: self.proj.as_ref().map_or(0, |p| p.spec.out_dim as u64),
            proj_ns_per_point: self
                .proj
                .as_ref()
                .map_or(0.0, TenantProjection::ns_per_point),
        }
    }

    /// The engine snapshot (every variant checkpoints).
    fn snapshot(&self) -> Vec<u8> {
        self.engine.snapshot().expect("every variant snapshots")
    }

    /// The tenant's spool representation: the engine snapshot, prefixed
    /// with the projection spec when the tenant projects (see
    /// [`spool_encode`]).
    fn spool_bytes(&self) -> Vec<u8> {
        spool_encode(self.proj.as_ref().map(|p| p.spec), &self.snapshot())
    }
}

/// The reply half handed to a shard: a per-request channel sender plus
/// the reactor's waker, poked after a successful send so a parked
/// `poll` learns about the completed reply immediately instead of on
/// its next tick.
pub(crate) struct ReplyTx {
    tx: Sender<Reply>,
    waker: Waker,
}

impl ReplyTx {
    fn send(&self, reply: Reply) {
        if self.tx.send(reply).is_ok() {
            self.waker.wake();
        }
    }
}

/// A request routed to a shard. Replies go back on a per-request
/// channel so connections can interleave freely.
enum ShardMsg {
    Req {
        tenant: String,
        op: Op,
        reply: ReplyTx,
    },
    /// Checkpoint every tenant of this shard.
    CheckpointAll {
        reply: ReplyTx,
    },
    /// Attach a replication subscriber: bootstrap every tenant of this
    /// shard onto it, then add it to the live fan-out list.
    Subscribe {
        sub: Subscriber,
        reply: Sender<Reply>,
    },
    /// Follower side: apply one replicated record to this shard.
    Apply {
        tenant: String,
        record: WalRecord,
        reply: Sender<Result<(), String>>,
    },
    /// Test hook: occupy the shard thread so the bounded queue fills.
    #[allow(dead_code)]
    Stall(Duration),
    Shutdown,
}

/// Tenant-scoped operations (the shard-side view of a [`Request`]).
enum Op {
    Create(TenantConfig),
    /// `INSERT` and `INSERT_BATCH` alike: a single point arrives as a
    /// one-point batch, which is also how the log records it.
    InsertBatch(Vec<Colored<EuclidPoint>>),
    Query,
    Stats,
    Checkpoint,
    Delete,
}

/// One shard: owns a disjoint subset of tenants.
struct Shard {
    tenants: HashMap<String, Tenant>,
    /// Reset engines awaiting reuse, keyed by their creating config.
    parked: Vec<(TenantConfig, WindowEngine<Relaxed<Euclidean>>)>,
    /// Live replication subscribers (fan-out targets for every
    /// accepted write on this shard).
    subs: Vec<Subscriber>,
    /// The server-wide query-result cache: the shard bumps tenant
    /// versions on every accepted state change.
    cache: Arc<QueryCache>,
    /// Reactor-side connection counters, surfaced through `STATS`.
    conn_stats: Arc<ConnStats>,
    cfg: ServeConfig,
}

impl Shard {
    fn run(mut self, rx: Receiver<ShardMsg>) {
        let mut last_tick = Instant::now();
        loop {
            // Wake at the next tick boundary even while messages keep
            // arriving — the group-commit fsync must fire under
            // sustained load, not only when the shard goes idle.
            let timeout = self.cfg.tick.saturating_sub(last_tick.elapsed());
            match rx.recv_timeout(timeout) {
                Ok(ShardMsg::Req { tenant, op, reply }) => {
                    let r = self.handle(&tenant, op);
                    reply.send(r);
                }
                Ok(ShardMsg::CheckpointAll { reply }) => {
                    let r = self.checkpoint_all();
                    reply.send(r);
                }
                Ok(ShardMsg::Subscribe { sub, reply }) => {
                    let r = self.subscribe(sub);
                    let _ = reply.send(r);
                }
                Ok(ShardMsg::Apply {
                    tenant,
                    record,
                    reply,
                }) => {
                    let r = self.apply(&tenant, record);
                    let _ = reply.send(r);
                }
                Ok(ShardMsg::Stall(d)) => std::thread::sleep(d),
                Ok(ShardMsg::Shutdown) | Err(RecvTimeoutError::Disconnected) => {
                    // Clean shutdown: everything acknowledged is synced.
                    for t in self.tenants.values_mut() {
                        if let Some(wal) = &mut t.wal {
                            let _ = wal.sync();
                        }
                    }
                    return;
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
            if last_tick.elapsed() >= self.cfg.tick {
                self.tick();
                last_tick = Instant::now();
            }
        }
    }

    /// The periodic tick: age out ingest buffers, group-commit the
    /// WALs, and compact any log past its threshold.
    fn tick(&mut self) {
        for (name, t) in self.tenants.iter_mut() {
            t.flush();
            if let Some(wal) = &mut t.wal {
                if let Err(e) = wal.sync() {
                    eprintln!("fairsw-served: wal sync failed for {name:?}: {e}");
                }
            }
        }
        self.compact_due();
    }

    /// Folds every oversized WAL into a spool snapshot (servers with a
    /// spool only — without one the log *is* the durable history and
    /// must be kept whole).
    fn compact_due(&mut self) {
        let Some(dir) = self.cfg.spool_dir.clone() else {
            return;
        };
        for (name, t) in self.tenants.iter_mut() {
            if t.wal.as_ref().is_some_and(TenantWal::wants_compaction) {
                if let Err(e) = checkpoint(&dir, name, t) {
                    eprintln!("fairsw-served: compaction spool write for {name:?}: {e}");
                }
            }
        }
    }

    fn handle(&mut self, tenant: &str, op: Op) -> Reply {
        match op {
            Op::Create(config) => self.create(tenant, config),
            Op::InsertBatch(mut points) => match self.tenants.get_mut(tenant) {
                Some(t) => {
                    // All-or-nothing: a batch with any bad color is
                    // refused whole, so an error reply never leaves a
                    // partially applied batch behind.
                    if let Err(reply) = t.check_colors(&points) {
                        return reply;
                    }
                    // Project before the durability step: the WAL and
                    // every subscriber see the low-dimensional points.
                    if let Some(proj) = &mut t.proj {
                        if let Err(reply) = proj.apply(&mut points) {
                            return reply;
                        }
                    }
                    // The router bumped the tenant's cache version when
                    // it dispatched this write.
                    match accept_batch(&mut self.subs, tenant, t, points, self.cfg.flush_batch) {
                        Ok(()) => Reply::Ok,
                        Err(reply) => reply,
                    }
                }
                None => no_such_tenant(tenant),
            },
            Op::Query => match self.tenants.get_mut(tenant) {
                Some(t) => {
                    t.flush();
                    let t0 = Instant::now();
                    let result = t.engine.query();
                    t.record_latency(t0.elapsed());
                    Reply::from_query(&result)
                }
                None => no_such_tenant(tenant),
            },
            Op::Stats => match self.tenants.get_mut(tenant) {
                Some(t) => {
                    t.flush();
                    let mut stats = t.stats();
                    stats.followers = self.subs.len() as u64;
                    stats.repl_lag = self.subs.iter().map(Subscriber::lag).max().unwrap_or(0);
                    stats.query_cache_hits = self.cache.hit_count();
                    stats.query_cache_misses = self.cache.miss_count();
                    stats.conns_open = self.conn_stats.open.load(Ordering::Relaxed);
                    stats.conns_accepted = self.conn_stats.accepted.load(Ordering::Relaxed);
                    stats.conns_reaped = self.conn_stats.reaped.load(Ordering::Relaxed);
                    Reply::Stats(stats)
                }
                None => no_such_tenant(tenant),
            },
            Op::Checkpoint => {
                let Some(dir) = self.cfg.spool_dir.clone() else {
                    return Reply::Error(
                        ErrorKind::Unsupported,
                        "server started without a spool directory".into(),
                    );
                };
                match self.tenants.get_mut(tenant) {
                    Some(t) => match checkpoint(&dir, tenant, t) {
                        Ok(()) => Reply::Checkpointed {
                            written: 1,
                            skipped: 0,
                        },
                        Err(e) => {
                            Reply::Error(ErrorKind::Unsupported, format!("spool write failed: {e}"))
                        }
                    },
                    None => no_such_tenant(tenant),
                }
            }
            Op::Delete => match self.tenants.remove(tenant) {
                Some(mut t) => {
                    // A deleted tenant must stay deleted across a
                    // restart: drop its spool snapshot and WAL too.
                    self.spool_remove(tenant);
                    if let Some(wal) = t.wal.take() {
                        let dir = wal.dir().to_path_buf();
                        drop(wal); // close the open segment first
                        if let Err(e) = TenantWal::remove(&dir) {
                            eprintln!("fairsw-served: wal removal failed for {tenant:?}: {e}");
                        }
                    }
                    push_record(&mut self.subs, tenant, &encode_record(&WalRecord::Delete));
                    // A cached reply from the deleted life must never
                    // answer for a future tenant under the same name.
                    self.cache.bump(tenant);
                    // Park the reset engine for delete-and-recreate
                    // reuse: the next CREATE with the same config takes
                    // it instead of reconstructing.
                    if let Some(config) = t.config.take() {
                        if self.parked.len() < PARK_CAP {
                            t.engine.reset();
                            self.parked.push((config, t.engine));
                        }
                    }
                    Reply::Ok
                }
                None => no_such_tenant(tenant),
            },
        }
    }

    fn create(&mut self, tenant: &str, config: TenantConfig) -> Reply {
        if self.tenants.contains_key(tenant) {
            return Reply::Error(
                ErrorKind::TenantExists,
                format!("tenant {tenant:?} already exists"),
            );
        }
        let body = match encode_create_body(&config) {
            Ok(b) => b,
            Err(e) => {
                return Reply::Error(
                    ErrorKind::BadRequest,
                    format!("config too large for the log: {e}"),
                )
            }
        };
        let engine = match self.parked.iter().position(|(c, _)| *c == config) {
            Some(i) => self.parked.swap_remove(i).1,
            None => match config.build_engine() {
                Ok(e) => e,
                Err(e) => return Reply::Error(ErrorKind::BadRequest, e.to_string()),
            },
        };
        // A stale snapshot under this name (from a deleted or
        // pre-restart life) must not resurrect over the fresh tenant
        // if the server crashes before its first CHECKPOINT.
        self.spool_remove(tenant);
        // Start the tenant's log with its Create record — a fresh WAL
        // wipes any stale directory for the same reason. Without a WAL
        // the spool keeps the record beside the snapshot, so a restart
        // restores the tenant under its own config.
        let wal = match self.cfg.tenant_wal_dir(tenant) {
            Some(dir) => match TenantWal::create(&dir, self.cfg.wal_tuning)
                .and_then(|mut wal| wal.append(&body).and_then(|()| wal.sync()).map(|()| wal))
            {
                Ok(wal) => Some(wal),
                Err(e) => {
                    return Reply::Error(ErrorKind::Unsupported, format!("wal create failed: {e}"))
                }
            },
            None => {
                let written = self.cfg.spool_dir.as_ref().map_or(Ok(()), |dir| {
                    atomic_write(dir, &format!("{tenant}.{CONFIG_EXT}"), &body)
                });
                if let Err(e) = written {
                    return Reply::Error(
                        ErrorKind::Unsupported,
                        format!("spool write failed: {e}"),
                    );
                }
                None
            }
        };
        push_record(&mut self.subs, tenant, &body);
        self.tenants.insert(
            tenant.to_string(),
            Tenant::new(engine, Some(config)).with_wal(wal),
        );
        // A fresh tenant must not serve replies cached under a prior
        // life of the same name.
        self.cache.bump(tenant);
        Reply::Ok
    }

    /// Bootstraps `sub` with every tenant's current state — its
    /// `Create` record (when the config is known) and one fresh
    /// `Snapshot` record in spool format, so a projection reaches the
    /// follower even without a config — then adds it to the live
    /// fan-out list. The bootstrap costs O(engine state), whatever the
    /// tenant's history, and needs no WAL.
    fn subscribe(&mut self, sub: Subscriber) -> Reply {
        for (name, t) in self.tenants.iter_mut() {
            t.flush();
            let mut frames: Vec<Vec<u8>> = Vec::new();
            let records = t.config.clone().map(WalRecord::Create);
            for record in records
                .into_iter()
                .chain([WalRecord::Snapshot(t.spool_bytes())])
            {
                let mut body = Vec::new();
                if let Err(e) = record.encode(&mut body) {
                    return Reply::Error(
                        ErrorKind::Unsupported,
                        format!("bootstrap encode of {name:?} failed: {e}"),
                    );
                }
                frames.push(body);
            }
            for body in frames {
                // Blocking push: a bootstrap may exceed the queue
                // depth; the subscriber is actively draining.
                if !sub.push_blocking(Reply::wal_frame_bytes(name, &body)) {
                    return Reply::Error(ErrorKind::Unsupported, "subscriber hung up".into());
                }
            }
        }
        self.subs.push(sub);
        Reply::Ok
    }

    /// Applies one replicated record (the follower side). Errors make
    /// the follower drop the connection and resubscribe — the bootstrap
    /// is idempotent, so resync is always safe.
    fn apply(&mut self, tenant: &str, record: WalRecord) -> Result<(), String> {
        match record {
            WalRecord::Create(config) => {
                // A (re)connect bootstrap or a live re-create: either
                // way the leader's history restarts here, so any local
                // state under that name is stale.
                if self.tenants.contains_key(tenant) {
                    self.handle(tenant, Op::Delete);
                }
                match self.create(tenant, config) {
                    Reply::Ok => Ok(()),
                    Reply::Error(_, msg) => Err(msg),
                    other => Err(format!("unexpected create reply {other:?}")),
                }
            }
            WalRecord::Batch { start, mut points } => {
                let Some(t) = self.tenants.get_mut(tenant) else {
                    return Err(format!("batch for unknown tenant {tenant:?}"));
                };
                t.check_colors(&points)
                    .map_err(|r| format!("replicated batch refused: {r:?}"))?;
                // The leader's `start` is a position in its stream;
                // ours matches except across a reconnect, where the
                // bootstrap re-delivers what we already hold.
                let skip = (t.points_total.saturating_sub(start)) as usize;
                if skip >= points.len() {
                    return Ok(());
                }
                points.drain(..skip);
                if let Err(Reply::Error(_, msg)) =
                    accept_batch(&mut self.subs, tenant, t, points, self.cfg.flush_batch)
                {
                    return Err(msg);
                }
                // Replicated state moved: cached replies are stale.
                self.cache.bump(tenant);
                Ok(())
            }
            WalRecord::Snapshot(bytes) => {
                // The Create record before it (when the leader knows the
                // config) names the metric the snapshot restores under.
                let config = self.tenants.get(tenant).and_then(|t| t.config.clone());
                let (engine, proj) = restore_snapshot(&bytes, config.as_ref())
                    .map_err(|e| format!("bootstrap snapshot: {e}"))?;
                let mut fresh = Tenant::new(engine, config).with_projection(proj);
                fresh.points_total = fresh.engine.time();
                // Persist our own recovery point: the snapshot (already
                // in spool format) to the spool, WAL restarted past it.
                if let Some(dir) = &self.cfg.spool_dir {
                    if let Err(e) = spool_write(dir, tenant, &bytes) {
                        return Err(format!("bootstrap spool write: {e}"));
                    }
                }
                if let Some(dir) = self.cfg.tenant_wal_dir(tenant) {
                    let mut wal = TenantWal::create(&dir, self.cfg.wal_tuning)
                        .map_err(|e| format!("bootstrap wal: {e}"))?;
                    // Seed the fresh log so our own restart replays the
                    // same state: the config, and — when no spool holds
                    // the snapshot — the snapshot record itself.
                    let mut seed: Vec<Vec<u8>> = Vec::new();
                    if let Some(config) = &fresh.config {
                        seed.push(
                            encode_create_body(config)
                                .map_err(|e| format!("bootstrap wal: {e}"))?,
                        );
                    }
                    if self.cfg.spool_dir.is_none() {
                        seed.push(encode_record(&WalRecord::Snapshot(bytes)));
                    }
                    for body in &seed {
                        wal.append(body)
                            .map_err(|e| format!("bootstrap wal: {e}"))?;
                    }
                    wal.sync().map_err(|e| format!("bootstrap wal: {e}"))?;
                    fresh.wal = Some(wal);
                }
                self.tenants.insert(tenant.to_string(), fresh);
                self.cache.bump(tenant);
                Ok(())
            }
            WalRecord::Delete => {
                if self.tenants.contains_key(tenant) {
                    self.handle(tenant, Op::Delete);
                }
                Ok(())
            }
        }
    }

    /// Best-effort removal of a tenant's spool files (the shard owns
    /// its tenants' spool files; nothing else writes them).
    fn spool_remove(&self, tenant: &str) {
        if let Some(dir) = &self.cfg.spool_dir {
            for ext in [SPOOL_EXT, CONFIG_EXT] {
                let _ = std::fs::remove_file(dir.join(format!("{tenant}.{ext}")));
            }
        }
    }

    fn checkpoint_all(&mut self) -> Reply {
        let Some(dir) = self.cfg.spool_dir.clone() else {
            return Reply::Error(
                ErrorKind::Unsupported,
                "server started without a spool directory".into(),
            );
        };
        for (name, t) in self.tenants.iter_mut() {
            if let Err(e) = checkpoint(&dir, name, t) {
                return Reply::Error(
                    ErrorKind::Unsupported,
                    format!("spool write failed for {name:?}: {e}"),
                );
            }
        }
        Reply::Checkpointed {
            written: self.tenants.len() as u32,
            skipped: 0,
        }
    }
}

/// Encodes one record body. Every record reaching here was decoded from
/// a wire or disk frame — i.e. it already round-tripped the format — so
/// re-encoding cannot exceed the size caps.
fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut body = Vec::new();
    record
        .encode(&mut body)
        .expect("previously framed record re-encodes");
    body
}

/// The accept path shared by leader ingest and follower apply. The
/// durability step comes first: encode the batch at the tenant's
/// current stream position, append it to the WAL (ack only after), and
/// fan it out to every live subscriber. Subscribers that are gone or
/// too slow are dropped — replication must never block or fail the hot
/// path. Then the points advance the stream position, join the ingest
/// buffer, and a full buffer flushes into the engine.
#[allow(clippy::result_large_err)] // Err is the wire `Reply`; cold path
fn accept_batch(
    subs: &mut Vec<Subscriber>,
    name: &str,
    t: &mut Tenant,
    points: Vec<Colored<EuclidPoint>>,
    flush_batch: usize,
) -> Result<(), Reply> {
    if t.wal.is_some() || !subs.is_empty() {
        let body = encode_batch_body(t.points_total, &points).map_err(|e| {
            Reply::Error(
                ErrorKind::BadRequest,
                format!("batch too large for the log: {e}"),
            )
        })?;
        if let Some(wal) = &mut t.wal {
            wal.append(&body).map_err(|e| {
                Reply::Error(ErrorKind::Unsupported, format!("wal append failed: {e}"))
            })?;
        }
        push_record(subs, name, &body);
    }
    t.points_total += points.len() as u64;
    t.buffer.extend(points);
    if t.buffer.len() >= flush_batch {
        t.flush();
    }
    Ok(())
}

/// Checkpoints one tenant: flushes its buffer, writes its snapshot to
/// the spool, then folds its log away — compacted to a fresh segment
/// reseeded with the tenant's `Create` record, so a compacted log stays
/// self-describing (config included) across restarts. A failed
/// compaction only leaves the log longer; the error returned is the
/// spool write's. Purely local — subscribers see nothing.
fn checkpoint(dir: &std::path::Path, name: &str, t: &mut Tenant) -> io::Result<()> {
    t.flush();
    spool_write(dir, name, &t.spool_bytes())?;
    let Some(wal) = &mut t.wal else {
        return Ok(());
    };
    let compacted = wal.compact().and_then(|()| match &t.config {
        Some(config) => {
            wal.append(&encode_create_body(config)?)?;
            wal.sync()
        }
        None => Ok(()),
    });
    if let Err(e) = compacted {
        eprintln!("fairsw-served: wal compaction failed for {name:?}: {e}");
    }
    Ok(())
}

/// Non-blocking fan-out of one encoded record to every subscriber.
fn push_record(subs: &mut Vec<Subscriber>, name: &str, body: &[u8]) {
    if subs.is_empty() {
        return;
    }
    let frame = Reply::wal_frame_bytes(name, body);
    subs.retain(|s| s.push(frame.clone()));
}

fn no_such_tenant(tenant: &str) -> Reply {
    Reply::Error(ErrorKind::NoSuchTenant, format!("no tenant {tenant:?}"))
}

/// Atomic snapshot write — the WAL's fsync'd `tmp + rename` helper, so
/// the spool gets the same durability (including the parent-directory
/// fsync the pre-WAL spool skipped).
fn spool_write(dir: &std::path::Path, tenant: &str, bytes: &[u8]) -> io::Result<()> {
    atomic_write(dir, &format!("{tenant}.{SPOOL_EXT}"), bytes)
}

/// Recovers every tenant from durable state — each tenant with a spool
/// snapshot or a WAL directory. Damaged tenants are skipped with a note:
/// recovery of one tenant must not keep the service down.
fn replay_all(cfg: &ServeConfig) -> Vec<(String, Tenant)> {
    let listing = |dir: &Option<PathBuf>| -> Vec<PathBuf> {
        let entries = dir.iter().filter_map(|d| std::fs::read_dir(d).ok());
        entries
            .flat_map(|e| e.flatten().map(|e| e.path()))
            .collect()
    };
    let text = |s: Option<&std::ffi::OsStr>| s?.to_str().map(String::from);
    let spooled = listing(&cfg.spool_dir).into_iter().filter_map(|p| {
        (p.extension().and_then(|e| e.to_str()) == Some(SPOOL_EXT)).then(|| text(p.file_stem()))?
    });
    let logged = listing(&cfg.wal_dir)
        .into_iter()
        .filter_map(|p| p.is_dir().then(|| text(p.file_name()))?);
    let names: std::collections::BTreeSet<String> = spooled.chain(logged).collect();
    let mut out = Vec::new();
    for name in names.into_iter().filter(|n| valid_tenant_name(n)) {
        match replay_tenant(cfg, &name) {
            Ok(tenant) => out.push((name, tenant)),
            Err(e) => eprintln!("fairsw-served: skipping tenant {name:?}: {e}"),
        }
    }
    out
}

/// Rebuilds one tenant from its spool snapshot plus its log. With a WAL
/// the log is the valid WAL suffix, and the WAL is reopened at the
/// replayed cut (truncating any torn tail for good); without one the
/// snapshot is the whole state and the `Create` record kept beside it
/// names the config.
fn replay_tenant(cfg: &ServeConfig, name: &str) -> Result<Tenant, String> {
    let spooled = |ext: &str| {
        let dir = cfg.spool_dir.as_ref()?;
        std::fs::read(dir.join(format!("{name}.{ext}"))).ok()
    };
    let snapshot = spooled(SPOOL_EXT);
    let (records, reopen) = match cfg.tenant_wal_dir(name) {
        Some(dir) => {
            let (records, cut) = read_log(&dir).map_err(|e| format!("wal read failed: {e}"))?;
            (records, Some((dir, cut)))
        }
        None => {
            snapshot.as_ref().ok_or("spool snapshot unreadable")?;
            let create = spooled(CONFIG_EXT).map(|b| WalRecord::decode(&mut b.as_slice()));
            let create = create.transpose().map_err(|e| format!("config: {e}"))?;
            (create.into_iter().collect(), None)
        }
    };
    let replayed = build_tenant(snapshot.as_deref(), &records, ParallelismSpec::Sequential)?;
    let wal = reopen
        .map(|(dir, cut)| TenantWal::reopen(&dir, cfg.wal_tuning, cut))
        .transpose()
        .map_err(|e| format!("wal reopen: {e}"))?;
    let mut tenant = Tenant::new(replayed.engine, replayed.config)
        .with_projection(replayed.projection)
        .with_wal(wal);
    tenant.points_total = tenant.engine.time();
    Ok(tenant)
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`shutdown`](Self::shutdown) or [`wait`](Self::wait).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    is_follower: Arc<AtomicBool>,
    shard_txs: Vec<SyncSender<ShardMsg>>,
    listener: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
    follower: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the server is (still) a read-only follower. Starts
    /// `true` for `--follow` servers, drops to `false` on `PROMOTE`.
    pub fn is_follower(&self) -> bool {
        self.is_follower.load(Ordering::SeqCst)
    }

    /// Stops accepting, drains the shard queues and joins every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.join_all();
    }

    /// Blocks until a client's `SHUTDOWN` request (or a local
    /// [`shutdown`](Self::shutdown) from another handle clone) stops the
    /// server, then joins every thread.
    pub fn wait(mut self) {
        while !self.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        // Connection threads observe the stop flag via their read
        // timeout; join them before the shards so no request can race a
        // closing queue.
        // A connection thread that panicked poisons this lock; shutdown
        // must still join the survivors.
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|p| p.into_inner()));
        for c in conns {
            let _ = c.join();
        }
        // The replication thread polls the stop flag too; join it
        // before the shards so no Apply can race a closing queue.
        if let Some(follower) = self.follower.take() {
            let _ = follower.join();
        }
        for tx in self.shard_txs.drain(..) {
            let _ = tx.send(ShardMsg::Shutdown);
        }
        for s in self.shards.drain(..) {
            let _ = s.join();
        }
    }

    /// Test hook: occupies one shard thread so its bounded queue can be
    /// filled deterministically.
    #[cfg(test)]
    fn stall_shard(&self, shard: usize, d: Duration) {
        self.shard_txs[shard]
            .send(ShardMsg::Stall(d))
            .expect("shard alive");
    }
}

/// The server entry point.
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), replays
    /// the durable state (snapshot spool + WAL suffix), spawns the
    /// shard, listener and — with [`ServeConfig::follow`] — replication
    /// threads, and returns a handle.
    pub fn start(addr: impl ToSocketAddrs, cfg: ServeConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let is_follower = Arc::new(AtomicBool::new(cfg.follow.is_some()));
        let nshards = cfg.shards.max(1);

        let mut initial: Vec<HashMap<String, Tenant>> =
            (0..nshards).map(|_| HashMap::new()).collect();
        for (name, tenant) in replay_all(&cfg) {
            initial[shard_of(&name, nshards)].insert(name, tenant);
        }

        let cache = Arc::new(QueryCache::default());
        let conn_stats = Arc::new(ConnStats::default());
        let mut shard_txs = Vec::with_capacity(nshards);
        let mut shards = Vec::with_capacity(nshards);
        for tenants in initial {
            let (tx, rx) = sync_channel(cfg.queue_depth.max(1));
            let shard = Shard {
                tenants,
                parked: Vec::new(),
                subs: Vec::new(),
                cache: Arc::clone(&cache),
                conn_stats: Arc::clone(&conn_stats),
                cfg: cfg.clone(),
            };
            shard_txs.push(tx);
            shards.push(std::thread::spawn(move || shard.run(rx)));
        }

        let follower = cfg.follow.clone().map(|leader| {
            let stop = Arc::clone(&stop);
            let is_follower = Arc::clone(&is_follower);
            let txs = shard_txs.clone();
            std::thread::spawn(move || {
                follower_loop(&leader, &stop, &is_follower, |tenant, record| {
                    let tx = &txs[shard_of(&tenant, txs.len())];
                    let (rtx, rrx) = mpsc::channel();
                    tx.send(ShardMsg::Apply {
                        tenant,
                        record,
                        reply: rtx,
                    })
                    .map_err(|_| "shard stopped".to_string())?;
                    rrx.recv().map_err(|_| "shard stopped".to_string())?
                })
            })
        });

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let (waker, wake_rx) = wake_pair()?;
        let router = Router {
            shard_txs: shard_txs.clone(),
            stop: Arc::clone(&stop),
            is_follower: Arc::clone(&is_follower),
            cache: Arc::clone(&cache),
            waker,
            conns: Arc::clone(&conns),
        };
        let reactor = Reactor::new(
            listener,
            wake_rx,
            router,
            Arc::clone(&stop),
            Arc::clone(&conn_stats),
            cfg.net_config(),
        );
        let listener_handle = std::thread::spawn(move || reactor.run());

        Ok(ServerHandle {
            addr,
            stop,
            is_follower,
            shard_txs,
            listener: Some(listener_handle),
            shards,
            follower,
            conns,
        })
    }
}

/// Outcome of a polled exact read.
pub(crate) enum PolledRead {
    /// The buffer was filled.
    Done,
    /// Clean EOF at a frame boundary.
    Eof,
    /// The stop predicate fired while waiting.
    Stopped,
}

/// `read_exact` that survives the socket's read timeout: partial
/// progress is kept across `WouldBlock`/`TimedOut` (a stall in the
/// middle of a large frame must not desynchronize the framing), and the
/// timeout only serves to poll `should_stop` (the server's stop flag —
/// or, on a follower's replication socket, "stopped or promoted").
/// `eof_ok` marks a frame boundary, where a clean peer close is a
/// normal end of conversation.
pub(crate) fn read_exact_polled(
    r: &mut impl io::Read,
    buf: &mut [u8],
    should_stop: impl Fn() -> bool,
    eof_ok: bool,
) -> io::Result<PolledRead> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 && eof_ok => return Ok(PolledRead::Eof),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame",
                ))
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // The connection is closing anyway once stopped;
                // abandoning a partial frame then is fine.
                if should_stop() {
                    return Ok(PolledRead::Stopped);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(PolledRead::Done)
}

/// The outcome of routing one decoded frame, as seen by the reactor's
/// connection state machine.
pub(crate) enum Routed {
    /// The reply is known now (cache hit, validation error, admission
    /// rejection, control request): queue it in request order.
    Ready(Reply),
    /// The request went to a shard; poll [`PendingReply::try_poll`]
    /// until the reply lands.
    Pending(PendingReply),
    /// `WAL_SUBSCRIBE`: drain the connection, then hand its stream to a
    /// blocking subscription thread.
    Handoff,
}

/// A deferred cache store for an in-flight `QUERY`: the version
/// snapshot was taken *before* dispatch, so a write racing the
/// computation moves the version and the store is refused.
pub(crate) struct QueryStore {
    cache: Arc<QueryCache>,
    tenant: String,
    version: u64,
}

/// A reply still in flight on a shard channel. Polled (never waited
/// on) by the reactor, so one slow shard cannot stall unrelated
/// connections.
pub(crate) enum PendingReply {
    /// One tenant-scoped request on one shard.
    Shard {
        rx: Receiver<Reply>,
        store: Option<QueryStore>,
    },
    /// A broadcast checkpoint: one `CheckpointAll` per shard, counts
    /// summed in shard order, first error reply wins — exactly the
    /// sequential semantics of the blocking path.
    Broadcast {
        rxs: VecDeque<Receiver<Reply>>,
        written: u32,
        skipped: u32,
    },
}

impl PendingReply {
    /// Checks for the completed reply without blocking.
    pub(crate) fn try_poll(&mut self) -> Option<Reply> {
        match self {
            PendingReply::Shard { rx, store } => match rx.try_recv() {
                Ok(reply) => {
                    if let Some(store) = store.take() {
                        store.cache.store(&store.tenant, store.version, &reply);
                    }
                    Some(reply)
                }
                Err(mpsc::TryRecvError::Empty) => None,
                Err(mpsc::TryRecvError::Disconnected) => Some(Reply::Error(
                    ErrorKind::ShuttingDown,
                    "shard stopped".into(),
                )),
            },
            PendingReply::Broadcast {
                rxs,
                written,
                skipped,
            } => {
                while let Some(rx) = rxs.front() {
                    match rx.try_recv() {
                        Ok(Reply::Checkpointed {
                            written: w,
                            skipped: s,
                        }) => {
                            *written += w;
                            *skipped += s;
                            rxs.pop_front();
                        }
                        Ok(other) => return Some(other), // first error wins
                        Err(mpsc::TryRecvError::Empty) => return None,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            return Some(Reply::Error(
                                ErrorKind::ShuttingDown,
                                "shard stopped".into(),
                            ))
                        }
                    }
                }
                Some(Reply::Checkpointed {
                    written: *written,
                    skipped: *skipped,
                })
            }
        }
    }
}

/// The request router the reactor carries: decodes frames, answers what
/// it can inline (control requests, cache hits, validation errors,
/// admission rejections) and dispatches the rest to the shards without
/// ever blocking.
pub(crate) struct Router {
    shard_txs: Vec<SyncSender<ShardMsg>>,
    stop: Arc<AtomicBool>,
    /// Still replicating from a leader: writes answer `READ_ONLY`
    /// until `PROMOTE` clears this.
    is_follower: Arc<AtomicBool>,
    cache: Arc<QueryCache>,
    /// Cloned into every [`ReplyTx`] so shards can nudge the reactor.
    waker: Waker,
    /// Live subscription threads, joined at shutdown.
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Router {
    /// Decodes one frame body and routes the request. Decode errors are
    /// ordinary `BAD_REQUEST` replies, exactly like the blocking path.
    pub(crate) fn route_frame(&self, body: &[u8]) -> Routed {
        match Request::decode(body) {
            Ok(req) => self.route(req),
            Err(e) => Routed::Ready(Reply::Error(ErrorKind::BadRequest, e.to_string())),
        }
    }

    fn route(&self, req: Request) -> Routed {
        if self.stop.load(Ordering::SeqCst) {
            return Routed::Ready(Reply::Error(
                ErrorKind::ShuttingDown,
                "server is shutting down".into(),
            ));
        }
        // A not-yet-promoted follower serves reads from replicated
        // state; writes must go to the leader (or wait for PROMOTE).
        if self.is_follower.load(Ordering::SeqCst)
            && matches!(
                req,
                Request::Create { .. }
                    | Request::Insert { .. }
                    | Request::InsertBatch { .. }
                    | Request::Delete { .. }
                    | Request::Checkpoint { .. }
            )
        {
            return Routed::Ready(Reply::Error(
                ErrorKind::ReadOnly,
                "follower is read-only until PROMOTE".into(),
            ));
        }
        let (op, tenant) = match req {
            Request::Promote => {
                return Routed::Ready(if self.is_follower.swap(false, Ordering::SeqCst) {
                    // The replication thread sees the flag and detaches.
                    Reply::Ok
                } else {
                    Reply::Error(ErrorKind::Unsupported, "server is not a follower".into())
                });
            }
            Request::WalSubscribe => return Routed::Handoff,
            Request::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                // Ack; the reactor observes the flag, drains queued
                // replies (this ack included) and exits.
                return Routed::Ready(Reply::Ok);
            }
            Request::Checkpoint { tenant } if tenant.is_empty() => {
                // Broadcast: every shard checkpoints its tenants. All
                // dispatches go out up front; the replies aggregate in
                // shard order as they complete.
                let mut rxs = VecDeque::with_capacity(self.shard_txs.len());
                for tx in &self.shard_txs {
                    let (rtx, rrx) = mpsc::channel();
                    match tx.try_send(ShardMsg::CheckpointAll {
                        reply: self.reply_tx(rtx),
                    }) {
                        Ok(()) => rxs.push_back(rrx),
                        Err(TrySendError::Full(_)) => {
                            return Routed::Ready(Reply::Error(
                                ErrorKind::Overloaded,
                                "shard queue full, retry".into(),
                            ))
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            return Routed::Ready(Reply::Error(
                                ErrorKind::ShuttingDown,
                                "shard stopped".into(),
                            ))
                        }
                    }
                }
                return Routed::Pending(PendingReply::Broadcast {
                    rxs,
                    written: 0,
                    skipped: 0,
                });
            }
            Request::Create { tenant, config } => {
                if !valid_tenant_name(&tenant) {
                    return Routed::Ready(Reply::Error(
                        ErrorKind::BadRequest,
                        format!("invalid tenant name {tenant:?} (want [A-Za-z0-9._-]{{1,64}})"),
                    ));
                }
                (Op::Create(config), tenant)
            }
            Request::Insert { tenant, point } => (Op::InsertBatch(vec![point]), tenant),
            Request::InsertBatch { tenant, points } => (Op::InsertBatch(points), tenant),
            Request::Query { tenant } => {
                // A repeat query at an unchanged tenant version is
                // answered straight from the cache — neither the shard
                // nor the pipeline sees it. Writes bump the version as
                // they are dispatched (below), so a query pipelined
                // behind a write the shard has not applied yet misses
                // and queues behind it. On a miss, the deferred store
                // rides along with the pending reply.
                let (hit, version) = self.cache.begin_query(&tenant);
                if let Some(reply) = hit {
                    return Routed::Ready(reply);
                }
                let store = QueryStore {
                    cache: Arc::clone(&self.cache),
                    tenant: tenant.clone(),
                    version,
                };
                return self.dispatch(tenant, Op::Query, Some(store));
            }
            Request::Stats { tenant } => (Op::Stats, tenant),
            Request::Checkpoint { tenant } => (Op::Checkpoint, tenant),
            Request::Delete { tenant } => (Op::Delete, tenant),
        };
        if matches!(op, Op::Create(_) | Op::InsertBatch(_) | Op::Delete) {
            self.cache.bump(&tenant);
        }
        self.dispatch(tenant, op, None)
    }

    /// Sends one tenant-scoped op to its shard (bounded, non-blocking).
    /// A full queue answers `OVERLOADED` immediately — the admission
    /// contract is unchanged.
    fn dispatch(&self, tenant: String, op: Op, store: Option<QueryStore>) -> Routed {
        let tx = &self.shard_txs[shard_of(&tenant, self.shard_txs.len())];
        let (rtx, rrx) = mpsc::channel();
        match tx.try_send(ShardMsg::Req {
            tenant,
            op,
            reply: self.reply_tx(rtx),
        }) {
            Ok(()) => Routed::Pending(PendingReply::Shard { rx: rrx, store }),
            Err(TrySendError::Full(_)) => Routed::Ready(Reply::Error(
                ErrorKind::Overloaded,
                "shard queue full, retry".into(),
            )),
            Err(TrySendError::Disconnected(_)) => Routed::Ready(Reply::Error(
                ErrorKind::ShuttingDown,
                "shard stopped".into(),
            )),
        }
    }

    fn reply_tx(&self, tx: Sender<Reply>) -> ReplyTx {
        ReplyTx {
            tx,
            waker: self.waker.clone(),
        }
    }

    /// Converts a drained `WAL_SUBSCRIBE` connection into a dedicated
    /// blocking subscription thread: replication is a long-lived
    /// one-way stream and has no business on the reactor. The handle
    /// joins with the other connection threads at shutdown.
    pub(crate) fn spawn_subscription(&self, stream: TcpStream) {
        let txs = self.shard_txs.clone();
        let stop = Arc::clone(&self.stop);
        let handle = std::thread::spawn(move || {
            if stream.set_nonblocking(false).is_err() {
                return;
            }
            let mut writer = io::BufWriter::new(stream);
            serve_subscription(&mut writer, &txs, &stop);
        });
        let mut conns = self.conns.lock().unwrap_or_else(|p| p.into_inner());
        // Reap finished subscriptions so the handle list tracks live
        // streams, not the server's whole history.
        let mut i = 0;
        while i < conns.len() {
            if conns[i].is_finished() {
                let _ = conns.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        conns.push(handle);
    }
}

/// Handles a `WAL_SUBSCRIBE` connection: bootstrap every shard onto a
/// fresh subscription, ack, then drain queued `WAL_APPEND` frames onto
/// the socket until the subscriber hangs up or the server stops. The
/// bootstrap ships snapshots and the live tail is fanned out at accept
/// time, so a leader needs no WAL of its own to replicate.
fn serve_subscription(
    writer: &mut impl io::Write,
    shard_txs: &[SyncSender<ShardMsg>],
    stop: &AtomicBool,
) {
    let (sub, rx) = subscription();
    for tx in shard_txs {
        let (rtx, rrx) = mpsc::channel();
        // Blocking send: a subscription is rare and may wait out a busy
        // queue rather than bounce like the hot path does.
        if tx
            .send(ShardMsg::Subscribe {
                sub: sub.clone(),
                reply: rtx,
            })
            .is_err()
        {
            let _ = write_frame(
                writer,
                &reply_bytes(&Reply::Error(
                    ErrorKind::ShuttingDown,
                    "shard stopped".into(),
                )),
            );
            return;
        }
        match rrx.recv() {
            Ok(Reply::Ok) => {}
            Ok(other) => {
                let _ = write_frame(writer, &reply_bytes(&other));
                return;
            }
            Err(_) => {
                let _ = write_frame(
                    writer,
                    &reply_bytes(&Reply::Error(
                        ErrorKind::ShuttingDown,
                        "shard stopped".into(),
                    )),
                );
                return;
            }
        }
    }
    if write_frame(writer, &reply_bytes(&Reply::Ok)).is_err() {
        return;
    }
    while !stop.load(Ordering::SeqCst) {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(frame) => {
                if write_frame(writer, &frame).is_err() {
                    return; // subscriber hung up; shards drop the sub on next push
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Encodes a reply for the wire, downgrading an unencodable reply into
/// an error reply (error replies truncate their message, so they always
/// encode).
pub(crate) fn reply_bytes(reply: &Reply) -> Vec<u8> {
    reply.encode().unwrap_or_else(|e| {
        Reply::Error(ErrorKind::BadRequest, format!("reply unencodable: {e}"))
            .encode()
            .expect("error replies always encode")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::Client;
    use crate::protocol::WireVariant;

    fn pt(x: f64, c: u32) -> Colored<EuclidPoint> {
        Colored::new(EuclidPoint::new(vec![x]), c)
    }

    fn cfg_fixed(window: usize) -> TenantConfig {
        TenantConfig::new(
            window,
            vec![1, 1],
            WireVariant::Fixed {
                dmin: 0.01,
                dmax: 1e4,
            },
        )
    }

    #[test]
    fn create_insert_query_delete_lifecycle() {
        let handle = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut c = Client::connect(handle.local_addr()).unwrap();
        assert_eq!(c.create("t1", &cfg_fixed(20)).unwrap(), Reply::Ok);
        assert!(matches!(
            c.create("t1", &cfg_fixed(20)).unwrap(),
            Reply::Error(ErrorKind::TenantExists, _)
        ));
        for i in 0..30 {
            assert_eq!(
                c.insert("t1", &pt(i as f64, (i % 2) as u32)).unwrap(),
                Reply::Ok
            );
        }
        match c.query("t1").unwrap() {
            Reply::Solution(sol) => assert!(!sol.centers.is_empty()),
            other => panic!("unexpected query reply {other:?}"),
        }
        match c.stats("t1").unwrap() {
            Reply::Stats(s) => {
                assert_eq!(s.time, 30);
                assert_eq!(s.points_total, 30);
                assert_eq!(s.buffered, 0, "stats flushes first");
                assert!(s.resident_bytes > 0);
                assert!(s.query_p50_us > 0.0);
            }
            other => panic!("unexpected stats reply {other:?}"),
        }
        assert_eq!(c.delete("t1").unwrap(), Reply::Ok);
        assert!(matches!(
            c.query("t1").unwrap(),
            Reply::Error(ErrorKind::NoSuchTenant, _)
        ));
        // Recreate with the identical config: served from the parked
        // (reset) engine, and behaves like a fresh tenant.
        assert_eq!(c.create("t1", &cfg_fixed(20)).unwrap(), Reply::Ok);
        match c.stats("t1").unwrap() {
            Reply::Stats(s) => assert_eq!((s.time, s.stored_points), (0, 0)),
            other => panic!("unexpected stats reply {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn out_of_range_colors_are_rejected_before_the_engine_sees_them() {
        let handle = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut c = Client::connect(handle.local_addr()).unwrap();
        assert_eq!(c.create("t", &cfg_fixed(20)).unwrap(), Reply::Ok); // 2 colors
        assert!(matches!(
            c.insert("t", &pt(1.0, 5)).unwrap(),
            Reply::Error(ErrorKind::BadRequest, _)
        ));
        // A batch with one bad color is refused whole — nothing applied,
        // nothing buffered, and the shard survives to serve the retry.
        let batch = vec![pt(1.0, 0), pt(2.0, 1), pt(3.0, 2)];
        assert!(matches!(
            c.insert_batch("t", &batch).unwrap(),
            Reply::Error(ErrorKind::BadRequest, _)
        ));
        match c.stats("t").unwrap() {
            Reply::Stats(s) => assert_eq!((s.time, s.points_total, s.buffered), (0, 0, 0)),
            other => panic!("unexpected stats reply {other:?}"),
        }
        assert_eq!(c.insert("t", &pt(1.0, 1)).unwrap(), Reply::Ok);
        handle.shutdown();
    }

    #[test]
    fn huge_multibyte_tenant_name_gets_an_error_reply_not_a_hangup() {
        // The error message is truncated to the str16 cap on a char
        // boundary; the reply must arrive instead of the connection
        // thread panicking mid-slice.
        let handle = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut c = Client::connect(handle.local_addr()).unwrap();
        // 65 529 bytes of 3-byte chars: encodable as str16, but the
        // `no tenant "..."` error message overflows the 64 KiB cap with
        // the cut landing mid-char.
        let name = "€".repeat(21_843);
        assert!(matches!(
            c.insert(&name, &pt(1.0, 0)).unwrap(),
            Reply::Error(ErrorKind::NoSuchTenant, _)
        ));
        // The connection is still healthy.
        assert_eq!(c.create("ok", &cfg_fixed(10)).unwrap(), Reply::Ok);
        handle.shutdown();
    }

    #[test]
    fn delete_removes_the_spool_snapshot() {
        let spool = std::env::temp_dir().join(format!("fairsw-del-spool-{}", std::process::id()));
        let cfg = ServeConfig {
            spool_dir: Some(spool.clone()),
            ..ServeConfig::default()
        };
        {
            let handle = Server::start("127.0.0.1:0", cfg.clone()).unwrap();
            let mut c = Client::connect(handle.local_addr()).unwrap();
            assert_eq!(c.create("gone", &cfg_fixed(20)).unwrap(), Reply::Ok);
            c.insert("gone", &pt(1.0, 0)).unwrap();
            assert!(matches!(
                c.checkpoint("gone").unwrap(),
                Reply::Checkpointed { written: 1, .. }
            ));
            assert!(spool.join("gone.fsw2").exists());
            assert_eq!(c.delete("gone").unwrap(), Reply::Ok);
            assert!(
                !spool.join("gone.fsw2").exists(),
                "spool file survived DELETE"
            );
            handle.shutdown();
        }
        // A restart must not resurrect the deleted tenant.
        let handle = Server::start("127.0.0.1:0", cfg).unwrap();
        let mut c = Client::connect(handle.local_addr()).unwrap();
        assert!(matches!(
            c.query("gone").unwrap(),
            Reply::Error(ErrorKind::NoSuchTenant, _)
        ));
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn unknown_tenant_and_bad_names_are_rejected() {
        let handle = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut c = Client::connect(handle.local_addr()).unwrap();
        assert!(matches!(
            c.insert("ghost", &pt(1.0, 0)).unwrap(),
            Reply::Error(ErrorKind::NoSuchTenant, _)
        ));
        assert!(matches!(
            c.create("../evil", &cfg_fixed(10)).unwrap(),
            Reply::Error(ErrorKind::BadRequest, _)
        ));
        assert!(matches!(
            c.create("ok", &TenantConfig::new(0, vec![1], WireVariant::Oblivious))
                .unwrap(),
            Reply::Error(ErrorKind::BadRequest, _)
        ));
        handle.shutdown();
    }

    #[test]
    fn full_shard_queue_returns_overloaded() {
        let cfg = ServeConfig {
            shards: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        };
        let handle = Server::start("127.0.0.1:0", cfg).unwrap();
        let mut c1 = Client::connect(handle.local_addr()).unwrap();
        assert_eq!(c1.create("t", &cfg_fixed(10)).unwrap(), Reply::Ok);
        // Occupy the single shard thread, then fill its depth-1 queue
        // from one connection while a second connection gets bounced.
        handle.stall_shard(0, Duration::from_millis(400));
        std::thread::sleep(Duration::from_millis(50)); // stall picked up
        let t1 = std::thread::spawn(move || {
            // Occupies the one queue slot until the stall ends.
            c1.insert("t", &pt(1.0, 0)).unwrap()
        });
        std::thread::sleep(Duration::from_millis(50)); // slot occupied
        let mut c2 = Client::connect(handle.local_addr()).unwrap();
        let r2 = c2.insert("t", &pt(2.0, 0)).unwrap();
        assert!(
            matches!(r2, Reply::Error(ErrorKind::Overloaded, _)),
            "expected OVERLOADED, got {r2:?}"
        );
        assert_eq!(t1.join().unwrap(), Reply::Ok, "queued insert completes");
        handle.shutdown();
    }

    #[test]
    fn client_shutdown_request_stops_the_server() {
        let handle = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = handle.local_addr();
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(c.shutdown().unwrap(), Reply::Ok);
        handle.wait(); // returns because the flag is set
        assert!(
            Client::connect(addr).is_err() || {
                // The OS may accept briefly; a request must not be served.
                let mut c2 = Client::connect(addr).unwrap();
                c2.stats("x").is_err()
            }
        );
    }

    #[test]
    fn shard_assignment_is_stable_and_spread() {
        let a = shard_of("tenant-a", 4);
        assert_eq!(a, shard_of("tenant-a", 4));
        let hit: std::collections::HashSet<usize> =
            (0..64).map(|i| shard_of(&format!("t{i}"), 4)).collect();
        assert!(hit.len() > 1, "all tenants on one shard");
    }

    /// Raw frame bytes of one request (length prefix + body).
    fn raw_frame(req: &Request) -> Vec<u8> {
        let body = req.encode().unwrap();
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        frame
    }

    /// Reads one reply frame from a raw (blocking) socket.
    fn read_reply(stream: &mut TcpStream) -> Reply {
        use std::io::Read;
        let mut header = [0u8; 4];
        stream.read_exact(&mut header).unwrap();
        let mut body = vec![0u8; u32::from_le_bytes(header) as usize];
        stream.read_exact(&mut body).unwrap();
        Reply::decode(&body).unwrap()
    }

    #[test]
    fn pipelined_requests_on_one_socket_get_ordered_replies() {
        use std::io::Write;
        let handle = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();

        // One write carrying the whole conversation back-to-back: the
        // replies must come back in request order.
        let mut batch = Vec::new();
        batch.extend_from_slice(&raw_frame(&Request::Create {
            tenant: "pipe".into(),
            config: cfg_fixed(50),
        }));
        for i in 0..20 {
            batch.extend_from_slice(&raw_frame(&Request::Insert {
                tenant: "pipe".into(),
                point: pt(i as f64, (i % 2) as u32),
            }));
        }
        batch.extend_from_slice(&raw_frame(&Request::Stats {
            tenant: "pipe".into(),
        }));
        batch.extend_from_slice(&raw_frame(&Request::Query {
            tenant: "pipe".into(),
        }));
        stream.write_all(&batch).unwrap();

        assert_eq!(read_reply(&mut stream), Reply::Ok, "create");
        for i in 0..20 {
            assert_eq!(read_reply(&mut stream), Reply::Ok, "insert {i}");
        }
        match read_reply(&mut stream) {
            Reply::Stats(s) => assert_eq!(s.points_total, 20),
            other => panic!("unexpected stats reply {other:?}"),
        }
        assert!(matches!(read_reply(&mut stream), Reply::Solution(_)));
        handle.shutdown();
    }

    #[test]
    fn pipelined_query_behind_an_unapplied_insert_sees_the_insert() {
        use std::io::Write;
        let cfg = ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        };
        let handle = Server::start("127.0.0.1:0", cfg).unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let tenant = || "stale".to_string();
        let first: Vec<_> = (0..30).map(|i| pt(i as f64, (i % 2) as u32)).collect();
        let second: Vec<_> = (0..30)
            .map(|i| pt(5000.0 + 7.0 * i as f64, (i % 2) as u32))
            .collect();
        // Warm the cache: the repeat query is answered from it.
        for req in [
            Request::Create {
                tenant: tenant(),
                config: cfg_fixed(40),
            },
            Request::InsertBatch {
                tenant: tenant(),
                points: first.clone(),
            },
            Request::Query { tenant: tenant() },
            Request::Query { tenant: tenant() },
        ] {
            stream.write_all(&raw_frame(&req)).unwrap();
            assert!(!matches!(read_reply(&mut stream), Reply::Error(..)));
        }
        // Hold the shard, so the router sees the query while the write
        // ahead of it on the same connection is still queued.
        handle.stall_shard(0, Duration::from_millis(200));
        std::thread::sleep(Duration::from_millis(20));
        let mut frames = raw_frame(&Request::InsertBatch {
            tenant: tenant(),
            points: second.clone(),
        });
        frames.extend(raw_frame(&Request::Query { tenant: tenant() }));
        stream.write_all(&frames).unwrap();
        assert_eq!(read_reply(&mut stream), Reply::Ok);
        let got = read_reply(&mut stream);
        let mut oracle = cfg_fixed(40).build_engine().unwrap();
        oracle.insert_batch(first.into_iter().chain(second));
        assert_eq!(
            got.encode().unwrap(),
            Reply::from_query(&oracle.query()).encode().unwrap(),
            "pipelined QUERY answered from before the INSERT_BATCH ahead of it"
        );
        handle.shutdown();
    }

    #[test]
    fn one_byte_chunked_frames_still_decode() {
        use std::io::Write;
        let handle = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let frame = raw_frame(&Request::Create {
            tenant: "drip".into(),
            config: cfg_fixed(10),
        });
        for b in &frame {
            stream.write_all(std::slice::from_ref(b)).unwrap();
        }
        assert_eq!(read_reply(&mut stream), Reply::Ok);
        handle.shutdown();
    }

    #[test]
    fn idle_and_stalled_connections_are_reaped_and_counted() {
        use std::io::{Read, Write};
        let cfg = ServeConfig {
            idle_timeout: Duration::from_millis(150),
            header_timeout: Duration::from_millis(150),
            ..ServeConfig::default()
        };
        let handle = Server::start("127.0.0.1:0", cfg).unwrap();

        // One idle connection, one stalled mid-header (the slowloris).
        let mut idle = TcpStream::connect(handle.local_addr()).unwrap();
        let mut slow = TcpStream::connect(handle.local_addr()).unwrap();
        slow.write_all(&[0x03, 0x00]).unwrap(); // half a length prefix

        // Both must be closed by the reaper: the reads see EOF.
        let deadline = Instant::now() + Duration::from_secs(5);
        for (name, s) in [("idle", &mut idle), ("slow", &mut slow)] {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut buf = [0u8; 1];
            match s.read(&mut buf) {
                Ok(0) => {}
                other => panic!("{name} connection not reaped: {other:?}"),
            }
            assert!(Instant::now() < deadline, "reaper too slow");
        }

        // A fresh (active) connection keeps working and sees the reap
        // counters.
        let mut c = Client::connect(handle.local_addr()).unwrap();
        assert_eq!(c.create("t", &cfg_fixed(10)).unwrap(), Reply::Ok);
        match c.stats("t").unwrap() {
            Reply::Stats(s) => {
                assert_eq!(s.conns_reaped, 2, "idle + slowloris");
                assert!(s.conns_accepted >= 3);
                assert!(s.conns_open >= 1);
            }
            other => panic!("unexpected stats reply {other:?}"),
        }
        handle.shutdown();
    }
}
