//! A small blocking client plus a multi-tenant load generator — the
//! same code path the integration tests, the CI smoke test and the
//! `serve_throughput` bench lane drive the server through.
//!
//! [`Client`] speaks the framed protocol over one TCP connection,
//! strictly request/reply; concurrency comes from one client per
//! thread. [`run_burst`] spins up one thread per tenant, streams a
//! synthetic two-cluster workload through `INSERT_BATCH`, retries on
//! [`ErrorKind::Overloaded`] (back-pressure is a signal, not a failure)
//! and finishes each tenant with a `QUERY`, returning aggregate
//! throughput.

use crate::protocol::{
    read_frame, write_frame, ErrorKind, Reply, Request, TenantConfig, WireError, WireStats,
    WireVariant,
};
use fairsw_datasets::rng::{seeded, SeededRng};
use fairsw_metric::{Colored, EuclidPoint};
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Errors a client call can report.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The peer sent a frame the protocol cannot decode.
    Wire(WireError),
    /// The connection closed mid-conversation.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: io::BufReader<TcpStream>,
    writer: io::BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: io::BufReader::new(stream.try_clone()?),
            writer: io::BufWriter::new(stream),
        })
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, req: &Request) -> Result<Reply, ClientError> {
        let body = req.encode().map_err(io::Error::from)?;
        write_frame(&mut self.writer, &body)?;
        match read_frame(&mut self.reader)? {
            Some(body) => Ok(Reply::decode(&body)?),
            None => Err(ClientError::Disconnected),
        }
    }

    /// `CREATE tenant` with the given engine configuration.
    pub fn create(&mut self, tenant: &str, config: &TenantConfig) -> Result<Reply, ClientError> {
        self.call(&Request::Create {
            tenant: tenant.into(),
            config: config.clone(),
        })
    }

    /// `INSERT` one point.
    pub fn insert(
        &mut self,
        tenant: &str,
        point: &Colored<EuclidPoint>,
    ) -> Result<Reply, ClientError> {
        self.call(&Request::Insert {
            tenant: tenant.into(),
            point: point.clone(),
        })
    }

    /// `INSERT_BATCH` a slice of points in stream order.
    pub fn insert_batch(
        &mut self,
        tenant: &str,
        points: &[Colored<EuclidPoint>],
    ) -> Result<Reply, ClientError> {
        self.call(&Request::InsertBatch {
            tenant: tenant.into(),
            points: points.to_vec(),
        })
    }

    /// `QUERY` the tenant's current window.
    pub fn query(&mut self, tenant: &str) -> Result<Reply, ClientError> {
        self.call(&Request::Query {
            tenant: tenant.into(),
        })
    }

    /// `STATS` for the tenant.
    pub fn stats(&mut self, tenant: &str) -> Result<Reply, ClientError> {
        self.call(&Request::Stats {
            tenant: tenant.into(),
        })
    }

    /// `CHECKPOINT` one tenant, or every tenant when `tenant` is empty.
    pub fn checkpoint(&mut self, tenant: &str) -> Result<Reply, ClientError> {
        self.call(&Request::Checkpoint {
            tenant: tenant.into(),
        })
    }

    /// `DELETE` the tenant.
    pub fn delete(&mut self, tenant: &str) -> Result<Reply, ClientError> {
        self.call(&Request::Delete {
            tenant: tenant.into(),
        })
    }

    /// Asks the server to shut down.
    pub fn shutdown(&mut self) -> Result<Reply, ClientError> {
        self.call(&Request::Shutdown)
    }

    /// `PROMOTE` — detaches a follower from its leader and lifts its
    /// read-only gate. Errors with `UNSUPPORTED` on a non-follower.
    pub fn promote(&mut self) -> Result<Reply, ClientError> {
        self.call(&Request::Promote)
    }

    /// Like [`insert_batch`](Self::insert_batch), but treats
    /// `OVERLOADED` as back-pressure: sleeps briefly and retries until
    /// accepted. Returns the number of retries.
    pub fn insert_batch_backoff(
        &mut self,
        tenant: &str,
        points: &[Colored<EuclidPoint>],
    ) -> Result<u64, ClientError> {
        let mut retries = 0;
        loop {
            match self.insert_batch(tenant, points)? {
                Reply::Ok => return Ok(retries),
                Reply::Error(ErrorKind::Overloaded, _) => {
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(1 << retries.min(6)));
                }
                other => {
                    return Err(ClientError::Wire(WireError::Invalid(format!(
                        "unexpected ingest reply {other:?}"
                    ))))
                }
            }
        }
    }
}

/// The request mix a [`run_burst`] worker drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// The original write-dominated burst: batched ingest with interim
    /// queries (`opts.queries` per tenant, plus one final).
    Ingest,
    /// A 95/5 query/ingest mix after a warmup ingest, with a Zipf-like
    /// skew across tenants (tenant `i` issues ~`1/(i+1)` of tenant 0's
    /// operations) — repeat queries against an often-unchanged window,
    /// the result cache's target workload.
    ReadHeavy,
}

impl std::str::FromStr for Mix {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ingest" => Ok(Mix::Ingest),
            "read-heavy" => Ok(Mix::ReadHeavy),
            other => Err(format!("unknown mix {other:?} (want ingest|read-heavy)")),
        }
    }
}

/// Parameters of a [`run_burst`] load-generation run.
#[derive(Clone, Debug)]
pub struct BurstOptions {
    /// Concurrent tenants (one connection + thread each).
    pub tenants: usize,
    /// Points streamed per tenant.
    pub points: usize,
    /// `INSERT_BATCH` size.
    pub batch: usize,
    /// Window length of each tenant's engine.
    pub window: usize,
    /// Interim `QUERY`s issued per tenant, evenly spaced through the
    /// ingest (each tenant always issues one final query on top). Their
    /// client-side latencies feed the burst percentiles.
    pub queries: usize,
    /// Delete the tenants afterwards (leave them for inspection when
    /// `false`).
    pub cleanup: bool,
    /// The request mix each worker drives.
    pub mix: Mix,
    /// Stream the unit-norm embedding-drift workload in this dimension
    /// instead of the classic 2-D drift (`--dim D --embeddings`).
    pub embed_dim: Option<usize>,
    /// Ask the server to JL-project every ingested point to
    /// `(out_dim, sparse)` — the per-tenant projection rides in the
    /// `CREATE` config, so this exercises the full wide-dim wire path.
    pub project: Option<(usize, bool)>,
}

impl Default for BurstOptions {
    fn default() -> Self {
        BurstOptions {
            tenants: 4,
            points: 4_000,
            batch: 128,
            window: 500,
            queries: 4,
            cleanup: true,
            mix: Mix::Ingest,
            embed_dim: None,
            project: None,
        }
    }
}

/// Aggregate outcome of a [`run_burst`] run.
#[derive(Clone, Debug)]
pub struct BurstReport {
    /// Total points accepted across all tenants.
    pub points_sent: u64,
    /// Wall-clock time of the whole burst.
    pub elapsed: Duration,
    /// `points_sent / elapsed`.
    pub points_per_sec: f64,
    /// `OVERLOADED` replies absorbed by back-off (back-pressure events).
    pub overloaded_retries: u64,
    /// Tenants whose every `QUERY` (interim and final) answered with a
    /// solution.
    pub queries_ok: usize,
    /// Total `QUERY`s issued across all tenants.
    pub queries_total: usize,
    /// Client-side query-latency percentiles over every issued `QUERY`
    /// — wall-clock from request write to reply decode, so they include
    /// framing, the network and server-side queueing, complementing the
    /// server-side compute percentiles in `STATS`.
    pub query_p50: Duration,
    /// 95th percentile (same measurement).
    pub query_p95: Duration,
    /// 99th percentile (same measurement).
    pub query_p99: Duration,
    /// Projection input dimension the server reported in `STATS`
    /// (0 when no tenant projects).
    pub proj_in_dim: u64,
    /// Projection output dimension from `STATS` (0 when not projecting).
    pub proj_out_dim: u64,
    /// Mean server-side projection cost in ns/point across the tenants
    /// that reported one.
    pub proj_ns_per_point: f64,
}

/// Nearest-rank percentile over a sorted latency list (`Duration::ZERO`
/// when empty) — the same [`crate::percentile`] rank the server's
/// `STATS` percentiles use, so the two reporters agree at any sample
/// size.
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    crate::percentile::nearest_rank(sorted.len(), q).map_or(Duration::ZERO, |i| sorted[i])
}

/// The deterministic synthetic workload every load-generation lane
/// streams: three drifting clusters, two colors, golden-ratio jitter
/// (matches the style of the repo's dataset generators; no RNG state).
pub fn workload(points: usize, seed: u64) -> Vec<Colored<EuclidPoint>> {
    (0..points)
        .map(|i| {
            let i = i as u64 + seed;
            let base = (i % 3) as f64 * 120.0;
            let x = base + ((i as f64) * 0.618_033_988_7).fract() * 4.0;
            let y = ((i as f64) * 0.324_717_957_2).fract() * 4.0;
            Colored::new(EuclidPoint::new(vec![x, y]), (i % 2) as u32)
        })
        .collect()
}

/// The unit-norm embedding-drift workload ([`BurstOptions::embed_dim`]):
/// the dataset generator's drifting great-circle clusters, two colors so
/// the [`burst_config`] caps apply unchanged.
pub fn embedding_workload(points: usize, dim: usize, seed: u64) -> Vec<Colored<EuclidPoint>> {
    fairsw_datasets::embedding_drift(
        points,
        dim,
        fairsw_datasets::EmbeddingDriftParams {
            num_colors: 2,
            ..fairsw_datasets::EmbeddingDriftParams::default()
        },
        seed,
    )
    .points
}

/// Seed of the projection [`run_burst`] requests when
/// [`BurstOptions::project`] is set — fixed, so repeated runs against a
/// durable server agree on the matrix.
pub const PROJECT_SEED: u64 = 0xfa15_c0de;

/// The tenant configuration [`run_burst`] creates: the fixed-lattice
/// main algorithm with bounds spanning [`workload`]'s scales.
pub fn burst_config(window: usize) -> TenantConfig {
    TenantConfig::new(
        window,
        vec![2, 2],
        WireVariant::Fixed {
            dmin: 1e-3,
            dmax: 1e4,
        },
    )
}

/// Per-tenant outcome of one burst worker.
struct TenantOutcome {
    points: u64,
    retries: u64,
    all_queries_ok: bool,
    query_latencies: Vec<Duration>,
    stats: Option<WireStats>,
}

/// Drives `opts.tenants` concurrent tenants through create → batched
/// ingest (with overload back-off, interleaved interim queries) → final
/// query (→ delete), one thread and connection per tenant, and reports
/// aggregate throughput plus client-side query-latency percentiles.
pub fn run_burst(
    addr: impl ToSocketAddrs + Clone + Send + 'static,
    opts: &BurstOptions,
) -> Result<BurstReport, String> {
    let t0 = Instant::now();
    let results: Vec<TenantOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.tenants)
            .map(|i| {
                let addr = addr.clone();
                let opts = opts.clone();
                scope.spawn(move || -> Result<TenantOutcome, String> {
                    let tenant = format!("burst-{i}");
                    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
                    let mut config = burst_config(opts.window);
                    if let Some((out_dim, sparse)) = opts.project {
                        config = config.with_projection(out_dim, PROJECT_SEED, sparse);
                    }
                    match c.create(&tenant, &config).map_err(|e| e.to_string())? {
                        Reply::Ok => {}
                        other => return Err(format!("{tenant}: create failed: {other:?}")),
                    }
                    let stream = match opts.embed_dim {
                        Some(dim) => embedding_workload(opts.points, dim, i as u64 * 7919),
                        None => workload(opts.points, i as u64 * 7919),
                    };
                    let nchunks = stream.chunks(opts.batch.max(1)).count();
                    // Interim queries every `stride` chunks (client-side
                    // latency samples from mid-burst, under ingest load).
                    let stride = (nchunks / (opts.queries + 1)).max(1);
                    let mut outcome = TenantOutcome {
                        points: 0,
                        retries: 0,
                        all_queries_ok: true,
                        query_latencies: Vec::with_capacity(opts.queries + 1),
                        stats: None,
                    };
                    // Like ingest, a query answered `OVERLOADED` is
                    // back-pressure, not a failure: back off and retry,
                    // recording the latency of the accepted attempt.
                    let timed_query = |c: &mut Client,
                                       outcome: &mut TenantOutcome|
                     -> Result<(), String> {
                        loop {
                            let q0 = Instant::now();
                            match c.query(&tenant).map_err(|e| e.to_string())? {
                                Reply::Error(ErrorKind::Overloaded, _) => {
                                    outcome.retries += 1;
                                    std::thread::sleep(Duration::from_millis(2));
                                }
                                reply => {
                                    outcome.query_latencies.push(q0.elapsed());
                                    outcome.all_queries_ok &= matches!(reply, Reply::Solution(_));
                                    return Ok(());
                                }
                            }
                        }
                    };
                    match opts.mix {
                        Mix::Ingest => {
                            for (ci, chunk) in stream.chunks(opts.batch.max(1)).enumerate() {
                                outcome.retries += c
                                    .insert_batch_backoff(&tenant, chunk)
                                    .map_err(|e| e.to_string())?;
                                outcome.points += chunk.len() as u64;
                                if opts.queries > 0
                                    && (ci + 1) % stride == 0
                                    && outcome.query_latencies.len() < opts.queries
                                {
                                    timed_query(&mut c, &mut outcome)?;
                                }
                            }
                        }
                        Mix::ReadHeavy => {
                            // Warmup: a quarter of the stream lands
                            // first, so the op mix queries a populated
                            // window.
                            let warmup =
                                (stream.len() / 4).max(opts.batch.max(1)).min(stream.len());
                            for chunk in stream[..warmup].chunks(opts.batch.max(1)) {
                                outcome.retries += c
                                    .insert_batch_backoff(&tenant, chunk)
                                    .map_err(|e| e.to_string())?;
                                outcome.points += chunk.len() as u64;
                            }
                            // Zipf-like skew: tenant i runs ~1/(i+1) of
                            // tenant 0's operations, so a few hot
                            // tenants dominate — repeat queries between
                            // writes. One op in twenty ingests a batch
                            // (5%); the rest query (95%).
                            let ops = (opts.points / (i + 1)).max(40);
                            let mut chunks = stream[warmup..].chunks(opts.batch.max(1));
                            for j in 0..ops {
                                if j % 20 == 19 {
                                    if let Some(chunk) = chunks.next() {
                                        outcome.retries += c
                                            .insert_batch_backoff(&tenant, chunk)
                                            .map_err(|e| e.to_string())?;
                                        outcome.points += chunk.len() as u64;
                                    }
                                } else {
                                    timed_query(&mut c, &mut outcome)?;
                                }
                            }
                        }
                    }
                    timed_query(&mut c, &mut outcome)?;
                    // Grab the server-side view before the tenant goes
                    // away — the report surfaces its projection fields.
                    if let Reply::Stats(s) = c.stats(&tenant).map_err(|e| e.to_string())? {
                        outcome.stats = Some(s);
                    }
                    if opts.cleanup {
                        c.delete(&tenant).map_err(|e| e.to_string())?;
                    }
                    Ok(outcome)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst worker panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let elapsed = t0.elapsed();
    let points_sent: u64 = results.iter().map(|r| r.points).sum();
    let mut latencies: Vec<Duration> = results
        .iter()
        .flat_map(|r| r.query_latencies.iter().copied())
        .collect();
    latencies.sort();
    let projecting: Vec<&WireStats> = results
        .iter()
        .filter_map(|r| r.stats.as_ref())
        .filter(|s| s.proj_out_dim > 0)
        .collect();
    Ok(BurstReport {
        points_sent,
        elapsed,
        points_per_sec: points_sent as f64 / elapsed.as_secs_f64().max(1e-9),
        overloaded_retries: results.iter().map(|r| r.retries).sum(),
        queries_ok: results.iter().filter(|r| r.all_queries_ok).count(),
        queries_total: latencies.len(),
        query_p50: percentile(&latencies, 0.50),
        query_p95: percentile(&latencies, 0.95),
        query_p99: percentile(&latencies, 0.99),
        proj_in_dim: projecting.iter().map(|s| s.proj_in_dim).max().unwrap_or(0),
        proj_out_dim: projecting.iter().map(|s| s.proj_out_dim).max().unwrap_or(0),
        proj_ns_per_point: if projecting.is_empty() {
            0.0
        } else {
            projecting.iter().map(|s| s.proj_ns_per_point).sum::<f64>() / projecting.len() as f64
        },
    })
}

/// Parameters of a [`run_connections`] high-concurrency sweep.
#[derive(Clone, Debug)]
pub struct ConnOptions {
    /// Open connections held for the whole run — mostly idle at any
    /// instant, the reactor's target regime.
    pub connections: usize,
    /// Driving threads; each owns an equal slice of the connection
    /// pool and round-robins requests over it by PRNG pick.
    pub workers: usize,
    /// Tenant pool the connections are assigned over with a Zipf-like
    /// skew (tenant `i` attracts ~`1/(i+1)` of tenant 0's connections).
    pub tenants: usize,
    /// Window length of each tenant's engine.
    pub window: usize,
    /// Points warmed into every tenant before the measured phase, so
    /// queries answer over a populated window.
    pub warmup_points: usize,
    /// Requests issued across all workers during the measured phase.
    pub requests: usize,
    /// Churn rate: the chance (`0..=1`) that a connection is closed
    /// and reopened right after serving a request.
    pub churn: f64,
    /// PRNG seed (tenant assignment, op picks, churn).
    pub seed: u64,
    /// Delete the tenants afterwards.
    pub cleanup: bool,
}

impl Default for ConnOptions {
    fn default() -> Self {
        ConnOptions {
            connections: 256,
            workers: 8,
            tenants: 8,
            window: 500,
            warmup_points: 1_000,
            requests: 5_000,
            churn: 0.0,
            seed: 0x5eed,
            cleanup: true,
        }
    }
}

/// Aggregate outcome of a [`run_connections`] sweep.
#[derive(Clone, Debug)]
pub struct ConnReport {
    /// Connections held open (as configured, after worker split).
    pub connections: usize,
    /// Requests issued during the measured phase.
    pub requests: u64,
    /// Connections churned (closed and reopened) along the way.
    pub reconnects: u64,
    /// `OVERLOADED` replies absorbed (back-pressure, not failures).
    pub overloaded: u64,
    /// Wall-clock time of the measured phase.
    pub elapsed: Duration,
    /// `requests / elapsed`.
    pub requests_per_sec: f64,
    /// Client-side request-latency percentiles (request write to reply
    /// decode) over every accepted request.
    pub p50: Duration,
    /// 95th percentile (same measurement).
    pub p95: Duration,
    /// 99th percentile (same measurement).
    pub p99: Duration,
}

/// Zipf-like pick over `n` tenants: weight `1/(i+1)`.
pub fn zipf_pick(n: usize, rng: &mut SeededRng) -> usize {
    let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut u = rng.random::<f64>() * h;
    for i in 0..n {
        u -= 1.0 / (i + 1) as f64;
        if u <= 0.0 {
            return i;
        }
    }
    n - 1
}

fn conn_tenant(i: usize) -> String {
    format!("conn-{i}")
}

/// Per-worker outcome of one connection sweep.
struct ConnOutcome {
    issued: u64,
    reconnects: u64,
    overloaded: u64,
    latencies: Vec<Duration>,
}

/// One sweep worker: owns `connections/workers` open sockets, issues
/// its share of the requests against PRNG-picked connections (~1 in 16
/// inserts a point, the rest query), and churns connections at the
/// configured rate.
fn conn_worker(
    addr: impl ToSocketAddrs + Clone,
    opts: &ConnOptions,
    w: usize,
    connections: usize,
    workers: usize,
    tenants: usize,
) -> Result<ConnOutcome, String> {
    let lo = w * connections / workers;
    let hi = (w + 1) * connections / workers;
    let mut rng = seeded(opts.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut pool: Vec<(Client, usize)> = Vec::with_capacity(hi - lo);
    for _ in lo..hi {
        let tenant = zipf_pick(tenants, &mut rng);
        let c = Client::connect(addr.clone()).map_err(|e| e.to_string())?;
        pool.push((c, tenant));
    }
    let my_requests = (w + 1) * opts.requests / workers - w * opts.requests / workers;
    let mut outcome = ConnOutcome {
        issued: 0,
        reconnects: 0,
        overloaded: 0,
        latencies: Vec::with_capacity(my_requests),
    };
    for _ in 0..my_requests {
        let slot = (rng.next_u64() as usize) % pool.len().max(1);
        let (c, tenant) = &mut pool[slot];
        let name = conn_tenant(*tenant);
        let write = rng.next_u64().is_multiple_of(16);
        let q0 = Instant::now();
        let reply = if write {
            let k = rng.next_u64();
            let x = (k % 3) as f64 * 120.0 + ((k >> 8) % 1000) as f64 * 0.004;
            let y = ((k >> 18) % 1000) as f64 * 0.004;
            c.insert(
                &name,
                &Colored::new(EuclidPoint::new(vec![x, y]), (k % 2) as u32),
            )
        } else {
            c.query(&name)
        }
        .map_err(|e| e.to_string())?;
        outcome.issued += 1;
        match reply {
            Reply::Ok | Reply::Solution(_) => outcome.latencies.push(q0.elapsed()),
            Reply::Error(ErrorKind::Overloaded, _) => outcome.overloaded += 1,
            other => return Err(format!("{name}: unexpected reply {other:?}")),
        }
        let roll = rng.random::<f64>();
        if opts.churn > 0.0 && roll < opts.churn {
            let tenant = *tenant;
            pool[slot] = (
                Client::connect(addr.clone()).map_err(|e| e.to_string())?,
                tenant,
            );
            outcome.reconnects += 1;
        }
    }
    Ok(outcome)
}

/// Holds `opts.connections` sockets open against a running server —
/// the overwhelming majority idle at any instant — while `opts.workers`
/// threads issue a Zipf-skewed query-dominated request mix over
/// PRNG-picked connections, optionally churning connections as they
/// go. Reports client-side latency percentiles; raises the fd rlimit
/// first.
pub fn run_connections(
    addr: impl ToSocketAddrs + Clone + Send + 'static,
    opts: &ConnOptions,
) -> Result<ConnReport, String> {
    let connections = opts.connections.max(1);
    let workers = opts.workers.clamp(1, connections);
    let tenants = opts.tenants.max(1);
    let limit = crate::net::raise_fd_limit(connections as u64 + 64);
    if limit < connections as u64 + 16 {
        return Err(format!(
            "open-file limit {limit} too low for {connections} connections \
             (raise `ulimit -n`)"
        ));
    }

    // Setup: create and warm the tenant pool over one ordinary client.
    let mut setup = Client::connect(addr.clone()).map_err(|e| e.to_string())?;
    for t in 0..tenants {
        let name = conn_tenant(t);
        match setup
            .create(&name, &burst_config(opts.window))
            .map_err(|e| e.to_string())?
        {
            Reply::Ok => {}
            other => return Err(format!("{name}: create failed: {other:?}")),
        }
        let stream = workload(opts.warmup_points, t as u64 * 104_729);
        for chunk in stream.chunks(256) {
            setup
                .insert_batch_backoff(&name, chunk)
                .map_err(|e| e.to_string())?;
        }
    }

    let t0 = Instant::now();
    let results: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let addr = addr.clone();
                let opts = opts.clone();
                scope.spawn(move || conn_worker(addr, &opts, w, connections, workers, tenants))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection worker panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let elapsed = t0.elapsed();

    if opts.cleanup {
        for t in 0..tenants {
            setup.delete(&conn_tenant(t)).map_err(|e| e.to_string())?;
        }
    }

    let issued: u64 = results.iter().map(|r| r.issued).sum();
    let mut latencies: Vec<Duration> = results
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    latencies.sort();
    Ok(ConnReport {
        connections,
        requests: issued,
        reconnects: results.iter().map(|r| r.reconnects).sum(),
        overloaded: results.iter().map(|r| r.overloaded).sum(),
        elapsed,
        requests_per_sec: issued as f64 / elapsed.as_secs_f64().max(1e-9),
        p50: percentile(&latencies, 0.50),
        p95: percentile(&latencies, 0.95),
        p99: percentile(&latencies, 0.99),
    })
}

/// Parameters of a [`run_crash_drill`] durability drill.
#[derive(Clone, Debug)]
pub struct DrillOptions {
    /// Path to the `fairsw-served` binary to spawn and kill.
    pub served_bin: PathBuf,
    /// Scratch directory for spools, WALs and port files (wiped).
    pub dir: PathBuf,
    /// Total points in the drill stream.
    pub points: usize,
    /// `INSERT_BATCH` size.
    pub batch: usize,
    /// Tenant window length.
    pub window: usize,
    /// Points to ingest before the `SIGKILL`.
    pub kill_after: usize,
    /// Recover by promoting a hot standby instead of restarting the
    /// killed leader from its WAL.
    pub failover: bool,
}

impl Default for DrillOptions {
    fn default() -> Self {
        DrillOptions {
            served_bin: PathBuf::from("fairsw-served"),
            dir: std::env::temp_dir().join("fairsw-crash-drill"),
            points: 4_000,
            batch: 64,
            window: 500,
            kill_after: 2_000,
            failover: false,
        }
    }
}

/// Outcome of one [`run_crash_drill`] run.
#[derive(Clone, Debug)]
pub struct DrillReport {
    /// Points the server acked before the `SIGKILL`.
    pub accepted: u64,
    /// Points the survivor (restart or promoted standby) recovered.
    pub durable: u64,
    /// `accepted - durable` — the durability contract bounds this by
    /// one batch.
    pub lost: u64,
    /// Wall-clock from the kill to the survivor answering `STATS`.
    pub recovery: Duration,
    /// How the drill recovered.
    pub failover: bool,
}

/// A spawned `fairsw-served` that is `SIGKILL`ed when dropped, so a
/// failed drill never leaks server processes.
struct ServedChild(Option<Child>);

impl ServedChild {
    /// `SIGKILL` now (`Child::kill` sends `SIGKILL` on Unix) — the
    /// crash under test, not a shutdown handshake.
    fn kill_now(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for ServedChild {
    fn drop(&mut self) {
        self.kill_now();
    }
}

/// Polls `path` until the spawned server writes its bound address
/// there, failing fast if the child exits first.
fn wait_for_addr(path: &Path, child: &mut Child) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(s) = std::fs::read_to_string(path) {
            let s = s.trim();
            if !s.is_empty() {
                return Ok(s.to_string());
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("fairsw-served exited before binding: {status}"));
        }
        if Instant::now() > deadline {
            return Err(format!(
                "timed out waiting for port file {}",
                path.display()
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Spawns one `fairsw-served` with an ephemeral port and waits for its
/// bound address.
fn spawn_served(
    bin: &Path,
    dir: &Path,
    tag: &str,
    extra: &[String],
) -> Result<(ServedChild, String), String> {
    let port_file = dir.join(format!("{tag}.port"));
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(bin)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--port-file")
        .arg(&port_file)
        .arg("--flush-batch")
        .arg("32")
        .arg("--tick-ms")
        .arg("5")
        .args(extra)
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let mut guard = ServedChild(Some(child));
    let addr = wait_for_addr(&port_file, guard.0.as_mut().expect("child present"))?;
    Ok((guard, addr))
}

/// `STATS` the tenant, reporting `None` while the server is unreachable
/// or the tenant is not there yet (mid-bootstrap / mid-replay).
fn poll_stats(addr: &str, tenant: &str) -> Option<crate::protocol::WireStats> {
    let mut c = Client::connect(addr).ok()?;
    match c.stats(tenant) {
        Ok(Reply::Stats(s)) => Some(s),
        _ => None,
    }
}

/// Drives the crash/recovery scenario end to end: boot a WAL-backed
/// leader (plus a hot standby when `failover`), ingest `kill_after`
/// points, `SIGKILL` the leader mid-stream, recover — restart from the
/// WAL, or `PROMOTE` the standby — and verify the durable prefix lost
/// at most one batch before streaming the remainder through the
/// survivor. Returns the measured recovery time.
pub fn run_crash_drill(opts: &DrillOptions) -> Result<DrillReport, String> {
    let dir = &opts.dir;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let leader_args = vec![
        "--spool".to_string(),
        dir.join("leader-spool").display().to_string(),
        "--wal".to_string(),
        dir.join("leader-wal").display().to_string(),
    ];
    let (mut leader, leader_addr) = spawn_served(&opts.served_bin, dir, "leader", &leader_args)?;

    let mut standby: Option<(ServedChild, String)> = None;
    if opts.failover {
        let follower_args = vec![
            "--spool".to_string(),
            dir.join("follower-spool").display().to_string(),
            "--wal".to_string(),
            dir.join("follower-wal").display().to_string(),
            "--follow".to_string(),
            leader_addr.clone(),
        ];
        standby = Some(spawn_served(
            &opts.served_bin,
            dir,
            "follower",
            &follower_args,
        )?);
    }

    let tenant = "drill";
    let stream = workload(opts.points, 0);
    let kill_after = opts.kill_after.clamp(1, stream.len());
    let mut c = Client::connect(leader_addr.as_str()).map_err(|e| e.to_string())?;
    match c
        .create(tenant, &burst_config(opts.window))
        .map_err(|e| e.to_string())?
    {
        Reply::Ok => {}
        other => return Err(format!("create failed: {other:?}")),
    }
    let mut accepted = 0u64;
    for chunk in stream[..kill_after].chunks(opts.batch.max(1)) {
        c.insert_batch_backoff(tenant, chunk)
            .map_err(|e| e.to_string())?;
        accepted += chunk.len() as u64;
    }

    if let Some((_, follower_addr)) = &standby {
        // The drill measures recovery, not replication lag: let the
        // standby catch up before pulling the plug.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if poll_stats(follower_addr, tenant).is_some_and(|s| s.points_total >= accepted) {
                break;
            }
            if Instant::now() > deadline {
                return Err("standby never caught up to the leader".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    leader.kill_now();
    let t_kill = Instant::now();

    let (survivor, survivor_addr) = match standby {
        Some((guard, follower_addr)) => {
            let mut fc = Client::connect(follower_addr.as_str()).map_err(|e| e.to_string())?;
            match fc.promote().map_err(|e| e.to_string())? {
                Reply::Ok => {}
                other => return Err(format!("promote failed: {other:?}")),
            }
            (guard, follower_addr)
        }
        None => spawn_served(&opts.served_bin, dir, "restart", &leader_args)?,
    };
    let durable = {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(s) = poll_stats(&survivor_addr, tenant) {
                break s.points_total;
            }
            if Instant::now() > deadline {
                return Err("survivor never answered STATS after recovery".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let recovery = t_kill.elapsed();

    let lost = accepted.saturating_sub(durable);
    if lost > opts.batch as u64 {
        return Err(format!(
            "durability contract broken: {accepted} acked, {durable} recovered \
             ({lost} lost > one batch of {})",
            opts.batch
        ));
    }

    // Resume the stream from the durable prefix and finish cleanly —
    // the survivor must take writes and answer queries.
    let mut c = Client::connect(survivor_addr.as_str()).map_err(|e| e.to_string())?;
    for chunk in stream[durable as usize..].chunks(opts.batch.max(1)) {
        c.insert_batch_backoff(tenant, chunk)
            .map_err(|e| e.to_string())?;
    }
    match c.query(tenant).map_err(|e| e.to_string())? {
        Reply::Solution(_) => {}
        other => return Err(format!("post-recovery query failed: {other:?}")),
    }
    match c.shutdown().map_err(|e| e.to_string())? {
        Reply::Ok => {}
        other => return Err(format!("survivor shutdown failed: {other:?}")),
    }
    drop(survivor);
    Ok(DrillReport {
        accepted,
        durable,
        lost,
        recovery,
        failover: opts.failover,
    })
}
