//! The traced replay: the request sequence a traced run sent to the
//! server, replayed in-process through each layer's public functions
//! with spans around every call, and turned into per-layer metrics.

use crate::drive::{insert_body, query_body, Ctx, Kind, Run};
use crate::gen::{Class, Inputs, Tenant};
use crate::stats::{mean, percentile};
use crate::trace::{self_times, span_cost_ns, Counting, MetricCounters, Timed, Tracer};
use fairsw_core::{
    CompactFairSlidingWindow, EngineBuilder, FairSWConfig, FairSlidingWindow,
    ObliviousFairSlidingWindow, ParallelismSpec, QueryError, SlidingWindowClustering, Solution,
    VariantSpec, WindowEngine,
};
use fairsw_matroid::PartitionMatroid;
use fairsw_metric::{Colored, EuclidPoint, Euclidean, Projectable, Projector, Relaxed};
use fairsw_sequential::Jones;
use fairsw_serve::protocol::{Reply, Request, WireVariant};
use fairsw_serve::wal::segment::encode_batch_body;
use fairsw_serve::wal::{build_tenant, read_log, TenantWal, WalTuning};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

type M = Counting<Relaxed<Euclidean>>;

/// A tenant's engine in the replay. The three variants whose query takes
/// a solver are held as their own types, so a timing solver can be
/// passed to their public `query_with`.
enum Engine {
    Fixed(Box<FairSlidingWindow<M>>),
    Oblivious(Box<ObliviousFairSlidingWindow<M>>),
    Compact(Box<CompactFairSlidingWindow<M>>),
    Other(WindowEngine<M>),
}

/// A query's outcome, as the engines return it.
type Answer = Result<Solution<EuclidPoint>, QueryError>;

macro_rules! each {
    ($e:expr, $inner:ident => $body:expr) => {
        match $e {
            Engine::Fixed($inner) => $body,
            Engine::Oblivious($inner) => $body,
            Engine::Compact($inner) => $body,
            Engine::Other($inner) => $body,
        }
    };
}

impl Engine {
    fn new(t: &Tenant, metric: M) -> Engine {
        let c = &t.config;
        let cfg = || {
            FairSWConfig::builder()
                .window_size(c.window)
                .capacities(c.caps.clone())
                .beta(c.beta)
                .delta(c.delta)
                .build()
                .expect("benchmark tenant configs are valid")
        };
        let built = match c.variant {
            WireVariant::Fixed { dmin, dmax } => FairSlidingWindow::new(cfg(), metric, dmin, dmax)
                .map(|e| Engine::Fixed(Box::new(e))),
            WireVariant::Oblivious => ObliviousFairSlidingWindow::new(cfg(), metric)
                .map(|e| Engine::Oblivious(Box::new(e))),
            WireVariant::Compact { dmin, dmax } => {
                CompactFairSlidingWindow::new(cfg(), metric, dmin, dmax)
                    .map(|e| Engine::Compact(Box::new(e)))
            }
            WireVariant::Robust { z, dmin, dmax } => EngineBuilder::new()
                .window_size(c.window)
                .capacities(c.caps.clone())
                .beta(c.beta)
                .delta(c.delta)
                .variant(VariantSpec::Robust { z, dmin, dmax })
                .build(metric)
                .map(Engine::Other),
            WireVariant::Matroid { dmin, dmax } => EngineBuilder::new()
                .window_size(c.window)
                .capacities(c.caps.clone())
                .beta(c.beta)
                .delta(c.delta)
                .variant(VariantSpec::Matroid {
                    matroid: PartitionMatroid::new(c.caps.clone())
                        .expect("benchmark caps are positive")
                        .into(),
                    dmin,
                    dmax,
                })
                .build(metric)
                .map(Engine::Other),
        };
        built.expect("benchmark tenant configs are valid")
    }

    fn insert_batch(&mut self, pts: Vec<Colored<EuclidPoint>>) {
        each!(self, e => e.insert_batch(pts))
    }

    /// The server's `QUERY` path at a fresh engine time.
    fn query(&self) -> Answer {
        each!(self, e => e.query())
    }

    /// A cold query; the solver's intervals come back for the three
    /// variants that take one.
    fn cold_query(&self, clock: &Tracer) -> (Answer, Vec<(u64, u64)>) {
        let solver = Timed::new(Jones, clock);
        let res = match self {
            Engine::Fixed(e) => e.query_with(&solver),
            Engine::Oblivious(e) => e.query_with(&solver),
            Engine::Compact(e) => e.query_with(&solver),
            Engine::Other(e) => e.query(),
        };
        (res, solver.take())
    }

    /// Whether `cold_query` bypassed the whole-answer memo, so a later
    /// warm query needs it filled first.
    fn takes_solver(&self) -> bool {
        !matches!(self, Engine::Other(_))
    }

    fn stored_and_resident(&self) -> (usize, usize) {
        let m = each!(self, e => e.memory_stats());
        (m.stored_points(), m.resident_bytes())
    }
}

/// Per-layer metrics, by name, with their units.
pub type LayerMetrics = BTreeMap<String, (f64, &'static str)>;

/// Every per-layer metric this benchmark defines, with its unit — the
/// traced run reports all of them on every workload (0 where the
/// workload does not exercise that layer or variant).
pub fn layer_metric_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: String, u| out.push((n, u));
    for v in Class::VARIANTS {
        add(
            format!("metric.dist_evals_per_query.{}", v.label()),
            "count",
        );
        add(format!("metric.busy_us_per_query.{}", v.label()), "us");
        add(format!("core.query_us.{}", v.label()), "us");
    }
    for v in &Class::VARIANTS[..3] {
        add(format!("sequential.solve_us.{}", v.label()), "us");
        add(format!("core.query_self_us.{}", v.label()), "us");
    }
    for c in Class::ALL {
        add(format!("core.insert_us_per_point.{}", c.label()), "us");
        add(format!("core.stored_points.{}", c.label()), "count");
        add(format!("wal.bytes_at_end.{}", c.label()), "bytes");
    }
    for (n, u) in [
        ("metric.dist_evals_per_point", "count"),
        ("metric.busy_share_insert", "share"),
        ("metric.project_ns_per_point", "ns"),
        ("core.warm_query_us", "us"),
        ("core.resident_bytes", "bytes"),
        ("core.snapshot_us", "us"),
        ("core.snapshot_capable_share", "share"),
        ("protocol.decode_us_per_batch", "us"),
        ("protocol.bytes_per_point", "bytes"),
        ("protocol.encode_us_per_reply", "us"),
        ("wal.append_us_per_batch", "us"),
        ("wal.sync_us", "us"),
        ("wal.segments", "count"),
        ("wal.replay_s", "s"),
        ("serve.cache_hit_ratio", "share"),
        ("serve.overloaded_share", "share"),
        ("serve.overhead_us.insert_batch", "us"),
        ("serve.overhead_us.cold_query", "us"),
        ("serve.overhead_us.warm_query", "us"),
        ("server.threads", "count"),
        ("server.rss_peak_mb", "MB"),
        ("gen.late_us_p99", "us"),
        ("trace.client_p50_us", "us"),
        ("trace.span_cost_ns", "ns"),
        ("trace.spans", "count"),
        ("trace.overhead_share", "share"),
        ("trace.unattributed_share", "share"),
    ] {
        add(n.to_string(), u);
    }
    out
}

/// Group-commit period the replay uses for `TenantWal::sync`, the
/// server's default flush tick.
const SYNC_EVERY: Duration = Duration::from_millis(20);
/// Wall time after which the replay skips the rest of the run's requests.
const REPLAY_BUDGET: Duration = Duration::from_secs(10);
/// The server's default `--flush-batch`: an insert that fills a tenant's
/// ingest buffer to this size applies the buffer before it is acked.
const FLUSH_BATCH: usize = 512;

/// Per-class sums the replay accumulates.
#[derive(Default)]
struct Acc {
    insert_ns: f64,
    insert_points: f64,
    query_ns: Vec<f64>,
    query_self_ns: Vec<f64>,
    solve_ns: Vec<f64>,
    query_evals: Vec<f64>,
    query_busy_ns: Vec<f64>,
}

/// Workload-wide sums the replay accumulates.
#[derive(Default)]
struct Sums {
    by_class: BTreeMap<Class, Acc>,
    insert_evals: f64,
    insert_busy_ns: f64,
    insert_span_ns: f64,
    insert_points: f64,
    project_ns: f64,
    projected: f64,
    body_bytes: f64,
    decode_ns: Vec<f64>,
    encode_ns: Vec<f64>,
    warm_ns: Vec<f64>,
    append_ns: Vec<f64>,
    sync_ns: Vec<f64>,
    /// Client round trip minus in-process time, per request kind.
    overhead: BTreeMap<&'static str, Vec<f64>>,
    roots: Vec<usize>,
}

/// In-process stand-ins for the server's per-tenant state, driven the
/// way a shard drives them: decode, project, log, buffer, flush, query,
/// encode.
struct Replayer<'a> {
    inp: &'a Inputs,
    counters: Arc<MetricCounters>,
    engines: Vec<Engine>,
    buffers: Vec<Vec<Colored<EuclidPoint>>>,
    projectors: Vec<Option<Projector>>,
    wals: Vec<TenantWal>,
    positions: Vec<u64>,
    last_sync: Instant,
    tr: Tracer,
    sums: Sums,
}

impl Replayer<'_> {
    /// Applies tenant `ti`'s buffered points to its engine.
    fn flush(&mut self, ti: usize, req: u64) {
        if self.buffers[ti].is_empty() {
            return;
        }
        let points = std::mem::take(&mut self.buffers[ti]);
        let n = points.len() as f64;
        let before = self.counters.tally();
        let engine = &mut self.engines[ti];
        let (_, id) = self
            .tr
            .span("core.insert_batch", req, |_| engine.insert_batch(points));
        let used = self.counters.tally() - before;
        let ns = self.tr.ns(id);
        let s = &mut self.sums;
        s.insert_evals += used.evals as f64;
        s.insert_busy_ns += used.busy_ns as f64;
        s.insert_span_ns += ns;
        s.insert_points += n;
        let a = s.by_class.entry(self.inp.tenants[ti].class).or_default();
        a.insert_ns += ns;
        a.insert_points += n;
    }

    /// The group commit a shard runs on its tick, outside any request.
    fn sync_if_due(&mut self, req: u64) -> Result<(), String> {
        if self.last_sync.elapsed() < SYNC_EVERY {
            return Ok(());
        }
        for w in self.wals.iter_mut() {
            let (res, id) = self.tr.span("wal.sync", req, |_| w.sync());
            res.map_err(|e| format!("WAL sync: {e}"))?;
            self.sums.sync_ns.push(self.tr.ns(id));
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    fn insert(
        &mut self,
        ti: usize,
        req: u64,
        points: Vec<Colored<EuclidPoint>>,
    ) -> Result<(), String> {
        let points = match &self.projectors[ti] {
            Some(pr) => {
                let (pts, id) = self.tr.span("metric.project", req, |_| {
                    points
                        .iter()
                        .map(|p| Colored::new(p.point.project_with(pr), p.color))
                        .collect::<Vec<_>>()
                });
                self.sums.project_ns += self.tr.ns(id);
                self.sums.projected += pts.len() as f64;
                pts
            }
            None => points,
        };
        let rec = encode_batch_body(self.positions[ti], &points).expect("batch encodes");
        self.positions[ti] += points.len() as u64;
        let wal = &mut self.wals[ti];
        let (res, id) = self.tr.span("wal.append", req, |_| wal.append(&rec));
        res.map_err(|e| format!("WAL append: {e}"))?;
        self.sums.append_ns.push(self.tr.ns(id));
        self.buffers[ti].extend(points);
        if self.buffers[ti].len() >= FLUSH_BATCH {
            self.flush(ti, req);
        }
        self.tr
            .span("protocol.encode", req, |_| Reply::Ok.encode())
            .0
            .expect("an ack encodes");
        Ok(())
    }

    fn query(&mut self, ti: usize, req: u64, kind: Kind) {
        self.flush(ti, req);
        let engine = &self.engines[ti];
        let res = if kind == Kind::ColdQuery {
            let before = self.counters.tally();
            let ((res, solves), qid) = self.tr.span("core.query", req, |tr| engine.cold_query(tr));
            let used = self.counters.tally() - before;
            for &(s, e) in &solves {
                self.tr.record("sequential.solve", req, Some(qid), s, e);
            }
            let q = self.tr.ns(qid);
            let solve: f64 = solves.iter().map(|(s, e)| (e - s) as f64).sum();
            let a = self
                .sums
                .by_class
                .entry(self.inp.tenants[ti].class.variant())
                .or_default();
            a.query_ns.push(q);
            a.query_self_ns.push(q - solve);
            a.solve_ns.push(solve);
            a.query_evals.push(used.evals as f64);
            a.query_busy_ns.push(used.busy_ns as f64);
            res
        } else {
            let (res, id) = self.tr.span("core.warm_query", req, |_| engine.query());
            self.sums.warm_ns.push(self.tr.ns(id));
            res
        };
        let (_, id) = self
            .tr
            .span("protocol.encode", req, |_| Reply::from_query(&res).encode());
        self.sums.encode_ns.push(self.tr.ns(id));
    }

    /// One request, under a root span covering everything the server
    /// does for it before replying.
    fn request(
        &mut self,
        kind: Kind,
        ti: usize,
        batch: Option<(usize, usize)>,
        req: u64,
    ) -> Result<usize, String> {
        let body = match batch {
            Some((start, len)) => insert_body(self.inp, ti, start, len),
            None => query_body(self.inp, ti),
        };
        let root = self.tr.open(
            match kind {
                Kind::Insert => "inproc.insert_batch",
                Kind::ColdQuery => "inproc.cold_query",
                Kind::WarmQuery => "inproc.warm_query",
            },
            req,
        );
        let (decoded, id) = self
            .tr
            .span("protocol.decode", req, |_| Request::decode(&body));
        let decoded = decoded.map_err(|e| format!("decoding the benchmark's own request: {e}"))?;
        match (kind, decoded) {
            (Kind::Insert, Request::InsertBatch { points, .. }) => {
                self.sums.decode_ns.push(self.tr.ns(id));
                self.sums.body_bytes += body.len() as f64;
                self.insert(ti, req, points)?;
            }
            (Kind::ColdQuery | Kind::WarmQuery, Request::Query { .. }) => self.query(ti, req, kind),
            (kind, other) => return Err(format!("{kind:?} decoded as {other:?}")),
        }
        self.tr.close(root);
        self.sums.roots.push(root);
        if kind == Kind::ColdQuery && self.engines[ti].takes_solver() {
            // Fill the whole-answer memo the way the server's QUERY does,
            // outside any span, so the next warm query is a memo hit.
            let _ = self.engines[ti].query();
        }
        Ok(root)
    }
}

/// Replays `run`'s requests in-process and computes every per-layer
/// metric. Spans are written to `spans_path` at the end.
pub fn replay(
    ctx: &Ctx,
    inp: &Inputs,
    run: &Run,
    spans_path: &Path,
) -> Result<LayerMetrics, String> {
    let counters = Arc::new(MetricCounters::calibrated());
    let metric = Counting::new(Relaxed::exact(Euclidean), counters.clone());
    let wal_root = ctx.work.join("replay-wal");
    let wals = inp
        .tenants
        .iter()
        .map(|t| TenantWal::create(&wal_root.join(&t.name), WalTuning::default()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("replay WAL: {e}"))?;
    let mut rp = Replayer {
        inp,
        counters,
        engines: inp
            .tenants
            .iter()
            .map(|t| Engine::new(t, metric.clone()))
            .collect(),
        buffers: vec![Vec::new(); inp.tenants.len()],
        projectors: inp.tenants.iter().map(|t| t.projector()).collect(),
        wals,
        positions: vec![0; inp.tenants.len()],
        last_sync: Instant::now(),
        tr: Tracer::new(),
        sums: Sums::default(),
    };

    // The requests (a prefix of them, once the replay has run for
    // REPLAY_BUDGET: the per-layer figures are per point, per batch or
    // per query), then one cold and one warm query per tenant so every
    // workload reports both query paths.
    let started = Instant::now();
    let timed = run.sent.len();
    let tail = (0..inp.tenants.len()).flat_map(|t| [(Kind::ColdQuery, t), (Kind::WarmQuery, t)]);
    let requests = run
        .sent
        .iter()
        .map(|s| (s.kind, s.tenant, s.batch, s.rtt_us))
        .chain(tail.map(|(k, t)| (k, t, None, None)));
    for (req, (kind, ti, batch, rtt)) in requests.enumerate() {
        if req < timed && started.elapsed() > REPLAY_BUDGET {
            continue;
        }
        let req = req as u64;
        if kind == Kind::Insert && batch.is_none() {
            continue; // refused by the server
        }
        let root = rp.request(kind, ti, batch, req)?;
        if let Some(rtt) = rtt {
            let key = match kind {
                Kind::Insert => "insert_batch",
                Kind::ColdQuery => "cold_query",
                Kind::WarmQuery => "warm_query",
            };
            let inproc_us = rp.tr.ns(root) / 1e3;
            rp.sums
                .overhead
                .entry(key)
                .or_default()
                .push(rtt - inproc_us);
        }
        rp.sync_if_due(req)?;
    }
    let replay_ns = rp.tr.now_ns() as f64;
    let Replayer {
        engines,
        wals,
        tr,
        sums,
        ..
    } = rp;
    let Sums {
        by_class: acc,
        insert_evals,
        insert_busy_ns,
        insert_span_ns,
        insert_points,
        project_ns,
        projected,
        body_bytes,
        decode_ns,
        encode_ns,
        warm_ns,
        append_ns,
        sync_ns,
        overhead,
        roots,
    } = sums;
    drop(wals);
    let _ = std::fs::remove_dir_all(&wal_root);

    let mut m = LayerMetrics::new();
    for (name, unit) in layer_metric_names() {
        m.insert(name, (0.0, unit));
    }
    let mut set = |name: String, v: f64| {
        let slot = m
            .get_mut(&name)
            .unwrap_or_else(|| panic!("undeclared layer metric {name}"));
        slot.0 = if v.is_finite() { v } else { 0.0 };
    };
    let us = |ns: &[f64]| mean(ns) / 1e3;
    for (class, a) in &acc {
        let l = class.label();
        if a.insert_points > 0.0 {
            set(
                format!("core.insert_us_per_point.{l}"),
                a.insert_ns / a.insert_points / 1e3,
            );
        }
        if !a.query_ns.is_empty() {
            set(
                format!("metric.dist_evals_per_query.{l}"),
                mean(&a.query_evals),
            );
            set(
                format!("metric.busy_us_per_query.{l}"),
                us(&a.query_busy_ns),
            );
            set(format!("core.query_us.{l}"), us(&a.query_ns));
            if matches!(class, Class::Fixed | Class::Oblivious | Class::Compact) {
                set(format!("sequential.solve_us.{l}"), us(&a.solve_ns));
                set(format!("core.query_self_us.{l}"), us(&a.query_self_ns));
            }
        }
    }
    for c in Class::ALL {
        let of: Vec<usize> = (0..inp.tenants.len())
            .filter(|&i| inp.tenants[i].class == c)
            .collect();
        if of.is_empty() {
            continue;
        }
        let stored: Vec<f64> = of
            .iter()
            .map(|&i| engines[i].stored_and_resident().0 as f64)
            .collect();
        set(format!("core.stored_points.{}", c.label()), mean(&stored));
        let wal: Vec<f64> = of.iter().map(|&i| run.stats[i].wal_bytes as f64).collect();
        set(format!("wal.bytes_at_end.{}", c.label()), mean(&wal));
    }
    if insert_points > 0.0 {
        set(
            "metric.dist_evals_per_point".into(),
            insert_evals / insert_points,
        );
        set(
            "metric.busy_share_insert".into(),
            insert_busy_ns / insert_span_ns,
        );
        set(
            "protocol.bytes_per_point".into(),
            body_bytes / insert_points,
        );
    }
    if projected > 0.0 {
        set("metric.project_ns_per_point".into(), project_ns / projected);
    }
    set("core.warm_query_us".into(), us(&warm_ns));
    let resident: usize = engines.iter().map(|e| e.stored_and_resident().1).sum();
    set("core.resident_bytes".into(), resident as f64);
    set("core.snapshot_us".into(), mean(&run.snapshot_us));
    set(
        "core.snapshot_capable_share".into(),
        run.snapshot_capable as f64 / inp.tenants.len() as f64,
    );
    set("protocol.decode_us_per_batch".into(), us(&decode_ns));
    set("protocol.encode_us_per_reply".into(), us(&encode_ns));
    set("wal.append_us_per_batch".into(), us(&append_ns));
    set("wal.sync_us".into(), us(&sync_ns));
    set(
        "wal.segments".into(),
        run.stats.iter().map(|s| s.wal_segments as f64).sum(),
    );
    if let Some(dirs) = &run.dirs {
        set(
            "wal.replay_s".into(),
            replay_wal(inp, &dirs.wal, &dirs.spool)?,
        );
    }
    if let Some(s) = run.stats.first() {
        let lookups = (s.query_cache_hits + s.query_cache_misses) as f64;
        if lookups > 0.0 {
            set(
                "serve.cache_hit_ratio".into(),
                s.query_cache_hits as f64 / lookups,
            );
        }
    }
    set(
        "serve.overloaded_share".into(),
        run.overloaded as f64 / run.attempted.max(1) as f64,
    );
    for (key, mut diffs) in overhead {
        set(
            format!("serve.overhead_us.{key}"),
            percentile(&mut diffs, 0.5).unwrap_or(0.0),
        );
    }
    if let Some(p) = run.proc {
        set("server.threads".into(), p.threads as f64);
        set("server.rss_peak_mb".into(), p.vm_hwm_mb);
    }
    set(
        "gen.late_us_p99".into(),
        percentile(&mut run.late_us.clone(), 0.99).unwrap_or(0.0),
    );
    set(
        "trace.client_p50_us".into(),
        percentile(&mut run.latency_us.clone(), 0.5).unwrap_or(0.0),
    );
    let span_ns = span_cost_ns(100_000);
    set("trace.span_cost_ns".into(), span_ns);
    set("trace.spans".into(), tr.spans().len() as f64);
    set(
        "trace.overhead_share".into(),
        span_ns * tr.spans().len() as f64 / replay_ns.max(1.0),
    );
    let selfs = self_times(tr.spans());
    let root_total: f64 = roots.iter().map(|&r| tr.spans()[r].dur_ns() as f64).sum();
    let root_self: f64 = roots.iter().map(|&r| selfs[r] as f64).sum();
    set(
        "trace.unattributed_share".into(),
        root_self / root_total.max(1.0),
    );

    tr.write_tsv(spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    Ok(m)
}

/// Startup recovery as the server does it, timed: each tenant's spool
/// snapshot (if compaction wrote one) plus `read_log` and `build_tenant`
/// over a copy of the killed server's WAL.
fn replay_wal(inp: &Inputs, wal: &Path, spool: &Path) -> Result<f64, String> {
    let copy = wal.with_file_name("wal-copy");
    let mut total = 0.0;
    for t in &inp.tenants {
        let src = wal.join(&t.name);
        let dst = copy.join(&t.name);
        std::fs::create_dir_all(&dst).map_err(|e| format!("{}: {e}", dst.display()))?;
        for entry in std::fs::read_dir(&src).map_err(|e| format!("{}: {e}", src.display()))? {
            let p = entry.map_err(|e| e.to_string())?.path();
            std::fs::copy(&p, dst.join(p.file_name().expect("segment file name")))
                .map_err(|e| format!("{}: {e}", p.display()))?;
        }
        let spooled = std::fs::read(spool.join(format!("{}.fsw2", t.name))).ok();
        let t0 = Instant::now();
        // A projecting tenant's spool file starts with a 21-byte header
        // naming its projection; the engine snapshot follows it.
        let snapshot = spooled
            .as_deref()
            .map(|b| if b.starts_with(b"FSWQ") { &b[21..] } else { b });
        let (records, _) = read_log(&dst).map_err(|e| format!("read_log {}: {e}", t.name))?;
        build_tenant(snapshot, &records, ParallelismSpec::Sequential)
            .map_err(|e| format!("build_tenant {}: {e}", t.name))?;
        total += t0.elapsed().as_secs_f64();
    }
    let _ = std::fs::remove_dir_all(&copy);
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_metric_names_are_unique_and_bounded() {
        let names = layer_metric_names();
        let mut seen = std::collections::BTreeSet::new();
        for (n, _) in &names {
            assert!(seen.insert(n.clone()), "duplicate {n}");
            assert!(n.len() <= 64);
        }
        assert!(names.len() <= 128);
    }
}
