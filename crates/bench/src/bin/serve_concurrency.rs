//! Serving-layer bench lane — tail latency of `fairsw-serve` under a
//! high, mostly idle connection count.
//!
//! The event-driven reactor's whole reason to exist is that thousands
//! of open connections must not cost thousands of threads — and must
//! not cost tail latency either. This lane measures exactly that:
//!
//! * boots an in-process server on an ephemeral port,
//! * holds **16 / 256 / 1024 connections** open (Zipf-assigned over a
//!   small tenant pool, the overwhelming majority idle at any instant),
//! * drives the *same* fixed request count through each lane with a
//!   query-dominated mix (~1 in 16 requests appends a point), and
//! * records client-side p50/p95/p99 request latency — request write to
//!   reply decode, so framing, the readiness loop and server queueing
//!   are all inside the measurement.
//!
//! Every lane is **answer-checked**: tenant writes come from a single
//! deterministic writer each, so after the sweep every tenant's `QUERY`
//! reply must be byte-identical to a sequential in-process oracle fed
//! the same stream prefix — a lane that got faster by dropping or
//! reordering points fails loudly.
//!
//! **Gate**: outside smoke mode (`FAIRSW_BENCH_SMOKE=1`) the p99 at the
//! largest lane (≥1k connections) must stay within **2×** the 16-
//! connection p99 — idle connections are allowed to cost a poll-set
//! scan, not a regime change. Violations exit non-zero.
//!
//! Results land in the `serve_concurrency` section of
//! `BENCH_serve.json` (beside `serve_throughput`'s ingest sweep).
//! Scaling knobs: `FAIRSW_WINDOW`, `FAIRSW_SERVE_REQUESTS`,
//! `FAIRSW_SERVE_TENANTS`, `FAIRSW_SERVE_SHARDS`.

use fairsw_bench::{env_usize, fmt_duration, merge_json_section};
use fairsw_core::SlidingWindowClustering;
use fairsw_datasets::rng::seeded;
use fairsw_serve::loadgen::{burst_config, percentile, workload, zipf_pick, Client};
use fairsw_serve::net::raise_fd_limit;
use fairsw_serve::protocol::{ErrorKind, Reply};
use fairsw_serve::server::{ServeConfig, Server};
use std::time::{Duration, Instant};

struct LaneReport {
    connections: usize,
    requests: u64,
    inserts: u64,
    overloaded: u64,
    elapsed: Duration,
    requests_per_sec: f64,
    p50: Duration,
    p95: Duration,
    p99: Duration,
}

fn tenant_name(t: usize) -> String {
    format!("lane-{t}")
}

fn tenant_seed(t: usize) -> u64 {
    t as u64 * 104_729
}

/// What one worker brings back from the measured phase.
struct WorkerOutcome {
    latencies: Vec<Duration>,
    overloaded: u64,
    inserts: u64,
    /// Wall-clock time of this worker's request loop (pool connects and
    /// the start barrier excluded).
    elapsed: Duration,
    /// `(tenant, points appended)` for every tenant this worker wrote —
    /// each tenant has exactly one writer, so the oracle can replay the
    /// applied prefix deterministically.
    applied: Vec<(usize, usize)>,
}

/// One sweep worker: owns an equal slice of the connection pool, issues
/// its share of the requests over PRNG-picked connections (~1 in 16
/// appends a point to one of the tenants this worker is the designated
/// writer for; the rest query the picked connection's tenant).
#[allow(clippy::too_many_arguments)]
fn lane_worker(
    addr: std::net::SocketAddr,
    w: usize,
    workers: usize,
    connections: usize,
    tenants: usize,
    warm: usize,
    requests: usize,
    start: &std::sync::Barrier,
) -> WorkerOutcome {
    let lo = w * connections / workers;
    let hi = (w + 1) * connections / workers;
    let mut rng = seeded(0x5eed_u64 ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut pool: Vec<(Client, usize)> = (lo..hi)
        .map(|_| {
            let tenant = zipf_pick(tenants, &mut rng);
            (Client::connect(addr).expect("connect"), tenant)
        })
        .collect();

    // Tenants this worker is the sole writer for, with their streams
    // pre-generated past the warmup so appends continue the exact
    // sequence the oracle will replay.
    let owned: Vec<usize> = (0..tenants).filter(|t| t % workers == w).collect();
    let mut streams: Vec<(usize, Vec<_>, usize)> = owned
        .iter()
        .map(|&t| (t, workload(warm + requests, tenant_seed(t)), warm))
        .collect();
    let mut write_rr = 0usize;

    let my_requests = (w + 1) * requests / workers - w * requests / workers;
    let mut out = WorkerOutcome {
        latencies: Vec::with_capacity(my_requests),
        overloaded: 0,
        inserts: 0,
        elapsed: Duration::ZERO,
        applied: Vec::new(),
    };
    // Rendezvous #1: every pool is connected. The main thread then
    // waits for the reactor to finish accepting/registering the whole
    // pool (connect returns at handshake time, before accept), and
    // rendezvous #2 starts the measured steady-state phase.
    start.wait();
    start.wait();
    let loop0 = Instant::now();
    for _ in 0..my_requests {
        let write = !streams.is_empty() && rng.next_u64().is_multiple_of(16);
        let slot = (rng.next_u64() as usize) % pool.len().max(1);
        if write {
            let pick = write_rr % streams.len();
            let (t, stream, next) = &mut streams[pick];
            write_rr += 1;
            let name = tenant_name(*t);
            let t0 = Instant::now();
            match pool[slot].0.insert(&name, &stream[*next]).expect("insert") {
                Reply::Ok => {
                    out.latencies.push(t0.elapsed());
                    out.inserts += 1;
                    *next += 1;
                }
                // Not applied: the stream index stays put, so the
                // oracle prefix still matches.
                Reply::Error(ErrorKind::Overloaded, _) => out.overloaded += 1,
                other => panic!("{name}: unexpected insert reply {other:?}"),
            }
        } else {
            let (c, t) = &mut pool[slot];
            let name = tenant_name(*t);
            let t0 = Instant::now();
            match c.query(&name).expect("query") {
                Reply::Solution(_) => out.latencies.push(t0.elapsed()),
                Reply::Error(ErrorKind::Overloaded, _) => out.overloaded += 1,
                other => panic!("{name}: unexpected query reply {other:?}"),
            }
        }
    }
    out.elapsed = loop0.elapsed();
    out.applied = streams
        .iter()
        .map(|(t, _, next)| (*t, next - warm))
        .collect();
    out
}

/// Runs one connection-count lane against a fresh server and answer-
/// checks every tenant against a sequential oracle.
fn run_lane(
    connections: usize,
    tenants: usize,
    window: usize,
    warm: usize,
    requests: usize,
    workers: usize,
    shards: usize,
) -> LaneReport {
    let cfg = ServeConfig {
        shards,
        ..ServeConfig::default()
    };
    let handle = Server::start("127.0.0.1:0", cfg).expect("server starts");
    let addr = handle.local_addr();
    let workers = workers.clamp(1, connections);

    // Create and warm the tenant pool over one ordinary client.
    let mut setup = Client::connect(addr).expect("connect setup");
    for t in 0..tenants {
        let name = tenant_name(t);
        match setup.create(&name, &burst_config(window)).expect("create") {
            Reply::Ok => {}
            other => panic!("{name}: create failed: {other:?}"),
        }
        for chunk in workload(warm, tenant_seed(t)).chunks(256) {
            setup.insert_batch_backoff(&name, chunk).expect("warmup");
        }
    }

    let start = std::sync::Barrier::new(workers + 1);
    let results: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let start = &start;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    lane_worker(
                        addr,
                        w,
                        workers,
                        connections,
                        tenants,
                        warm,
                        requests,
                        start,
                    )
                })
            })
            .collect();
        // Rendezvous #1: pools connected. Hold the workers until the
        // reactor has accepted and registered the whole pool (plus the
        // setup client), so the measured phase is steady state and not
        // the accept storm.
        start.wait();
        let accept_deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match setup.stats(&tenant_name(0)).expect("stats") {
                Reply::Stats(s) if s.conns_open as usize > connections => break,
                Reply::Stats(_) => {}
                other => panic!("unexpected stats reply {other:?}"),
            }
            assert!(
                Instant::now() < accept_deadline,
                "reactor did not register {connections} connections in time"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // Rendezvous #2: go.
        start.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane worker panicked"))
            .collect()
    });
    // Measured phase: every pool already connected (the barrier gates
    // the request loops); the lane time is the slowest worker's loop.
    let elapsed = results.iter().map(|r| r.elapsed).max().unwrap_or_default();

    // Answer check: each tenant saw its warmup plus the applied prefix
    // of its single writer's stream; the reply must be byte-identical
    // to a sequential oracle over exactly those points.
    let mut checker = Client::connect(addr).expect("connect checker");
    for r in &results {
        for &(t, applied) in &r.applied {
            let name = tenant_name(t);
            let mut oracle = burst_config(window).build_engine().expect("oracle config");
            for p in workload(warm + applied, tenant_seed(t)) {
                oracle.insert(p);
            }
            let got = checker.query(&name).expect("checker query");
            let want = Reply::from_query(&oracle.query());
            assert_eq!(
                got.encode().unwrap(),
                want.encode().unwrap(),
                "lane connections={connections}: tenant {t} diverged from oracle \
                 ({applied} appended points)"
            );
        }
    }
    handle.shutdown();

    let mut latencies: Vec<Duration> = results
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    latencies.sort();
    let issued = latencies.len() as u64 + results.iter().map(|r| r.overloaded).sum::<u64>();
    LaneReport {
        connections,
        requests: issued,
        inserts: results.iter().map(|r| r.inserts).sum(),
        overloaded: results.iter().map(|r| r.overloaded).sum(),
        elapsed,
        requests_per_sec: issued as f64 / elapsed.as_secs_f64().max(1e-9),
        p50: percentile(&latencies, 0.50),
        p95: percentile(&latencies, 0.95),
        p99: percentile(&latencies, 0.99),
    }
}

fn main() {
    let smoke = std::env::var("FAIRSW_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let window = env_usize("FAIRSW_WINDOW", 500);
    let warm = window + window / 5;
    let requests = env_usize("FAIRSW_SERVE_REQUESTS", if smoke { 400 } else { 8_000 });
    let tenants = env_usize("FAIRSW_SERVE_TENANTS", if smoke { 4 } else { 8 });
    let shards = env_usize("FAIRSW_SERVE_SHARDS", 2);
    let workers = if smoke { 4 } else { 8 };
    let sweep: &[usize] = if smoke { &[4, 16] } else { &[16, 256, 1024] };

    let max_conns = *sweep.iter().max().unwrap();
    let limit = raise_fd_limit(2 * max_conns as u64 + 128);
    assert!(
        limit >= 2 * max_conns as u64 + 64,
        "open-file limit {limit} too low for {max_conns} in-process connections \
         (raise `ulimit -n`)"
    );

    println!(
        "Serve concurrency: window={window} requests/lane={requests} tenants={tenants} \
         shards={shards} workers={workers}{}",
        if smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:>12} {:>9} {:>8} {:>10} {:>11} {:>10} {:>10} {:>10}",
        "connections", "requests", "inserts", "elapsed", "req/s", "p50", "p95", "p99"
    );

    let mut lanes: Vec<LaneReport> = Vec::new();
    for &connections in sweep {
        let lane = run_lane(
            connections,
            tenants,
            window,
            warm,
            requests,
            workers,
            shards,
        );
        println!(
            "{:>12} {:>9} {:>8} {:>10} {:>11.0} {:>10} {:>10} {:>10}",
            lane.connections,
            lane.requests,
            lane.inserts,
            fmt_duration(lane.elapsed),
            lane.requests_per_sec,
            fmt_duration(lane.p50),
            fmt_duration(lane.p95),
            fmt_duration(lane.p99),
        );
        lanes.push(lane);
    }

    // Tail-latency gate: the largest lane's p99 within 2x of the
    // smallest lane's — idle connections must not change the regime.
    let base = lanes.first().expect("at least one lane");
    let top = lanes.last().expect("at least one lane");
    let ratio = top.p99.as_secs_f64() / base.p99.as_secs_f64().max(1e-9);
    println!(
        "p99 scaling: {} conns {} -> {} conns {} ({ratio:.2}x)",
        base.connections,
        fmt_duration(base.p99),
        top.connections,
        fmt_duration(top.p99),
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"window\": {window},\n  \"requests_per_lane\": {requests},\n  \"tenants\": {tenants},\n  \"shards\": {shards},\n  \"workers\": {workers},\n  \"host_cores\": {},\n  \"answer_checked\": true,\n  \"smoke\": {smoke},\n  \"lanes\": [\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    ));
    for (i, l) in lanes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"connections\": {}, \"requests\": {}, \"inserts\": {}, \"overloaded\": {}, \"elapsed_secs\": {:.6}, \"requests_per_sec\": {:.1}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}}}{}\n",
            l.connections,
            l.requests,
            l.inserts,
            l.overloaded,
            l.elapsed.as_secs_f64(),
            l.requests_per_sec,
            l.p50.as_secs_f64() * 1e6,
            l.p95.as_secs_f64() * 1e6,
            l.p99.as_secs_f64() * 1e6,
            if i + 1 < lanes.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"p99_gate\": {{\"baseline_connections\": {}, \"max_connections\": {}, \"ratio\": {ratio:.3}, \"limit\": 2.0, \"enforced\": {}}}\n}}",
        base.connections,
        top.connections,
        !smoke
    ));
    let path = "BENCH_serve.json";
    match merge_json_section(path, "serve_concurrency", &json) {
        Ok(()) => println!("wrote the serve_concurrency section of {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    if !smoke && ratio > 2.0 {
        eprintln!(
            "FAIL: p99 at {} connections is {ratio:.2}x the {}-connection p99 (limit 2.0x)",
            top.connections, base.connections
        );
        std::process::exit(1);
    }
}
