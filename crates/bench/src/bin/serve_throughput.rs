//! Serving-layer bench lane — end-to-end ingest throughput of
//! `fairsw-serve` across batch sizes and tenant counts.
//!
//! Boots an in-process server on an ephemeral port and sweeps:
//!
//! * **batch size** (1 / 64 / 1024) — how much wire overhead the
//!   per-tenant ingest buffers and `INSERT_BATCH` amortize away;
//! * **tenants** (1 / 4 / 16) — concurrent connections, hash-sharded
//!   across the server's shard threads.
//!
//! Every lane is **answer-checked**: after the ingest, each tenant's
//! `QUERY` reply must be byte-identical (the wire carries raw `f64`
//! bits) to an in-process sequential oracle engine fed the same stream
//! — exactly the `memory_footprint` discipline, so a lane that got
//! faster by dropping or reordering points fails loudly.
//!
//! Results land in the `serve_throughput` section of
//! `BENCH_serve.json` (beside `serve_concurrency`'s connection sweep),
//! including `host_cores` so multicore readers can judge the
//! thread-scaling headroom. Scaling knobs: `FAIRSW_STREAM` (points per
//! tenant), `FAIRSW_WINDOW`, `FAIRSW_SERVE_SHARDS`.

use fairsw_bench::{env_usize, fmt_duration, merge_json_section};
use fairsw_core::SlidingWindowClustering;
use fairsw_serve::loadgen::{burst_config, workload, Client};
use fairsw_serve::protocol::Reply;
use fairsw_serve::server::{ServeConfig, Server};
use std::time::{Duration, Instant};

struct LaneReport {
    tenants: usize,
    batch: usize,
    points_total: u64,
    elapsed: Duration,
    points_per_sec: f64,
    overloaded_retries: u64,
}

fn main() {
    let window = env_usize("FAIRSW_WINDOW", 1_000);
    let points = env_usize("FAIRSW_STREAM", window * 4);
    let shards = env_usize("FAIRSW_SERVE_SHARDS", 2);
    let batches = [1usize, 64, 1024];
    let tenant_counts = [1usize, 4, 16];

    println!(
        "Serve throughput: window={window} points/tenant={points} shards={shards} \
         (host cores: {})",
        host_cores()
    );
    println!(
        "{:>8} {:>7} {:>12} {:>10} {:>14} {:>9}",
        "tenants", "batch", "points", "elapsed", "points/s", "retries"
    );

    let mut reports: Vec<LaneReport> = Vec::new();
    for &tenants in &tenant_counts {
        for &batch in &batches {
            // Fresh server per lane so lanes do not warm each other.
            let cfg = ServeConfig {
                shards,
                ..ServeConfig::default()
            };
            let handle = Server::start("127.0.0.1:0", cfg).expect("server starts");
            let addr = handle.local_addr();

            let t0 = Instant::now();
            let retries: u64 = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..tenants)
                    .map(|i| {
                        scope.spawn(move || {
                            let tenant = format!("lane-{i}");
                            let mut c = Client::connect(addr).expect("connect");
                            match c.create(&tenant, &burst_config(window)).expect("create") {
                                Reply::Ok => {}
                                other => panic!("{tenant}: create failed: {other:?}"),
                            }
                            let stream = workload(points, i as u64 * 7919);
                            let mut retries = 0;
                            for chunk in stream.chunks(batch) {
                                retries += c
                                    .insert_batch_backoff(&tenant, chunk)
                                    .expect("ingest accepted");
                            }
                            retries
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("lane worker"))
                    .sum()
            });
            let elapsed = t0.elapsed();

            // Answer check: every tenant's reply must be byte-identical
            // to a sequential oracle over the same stream.
            let mut checker = Client::connect(addr).expect("connect checker");
            for i in 0..tenants {
                let tenant = format!("lane-{i}");
                let mut oracle = burst_config(window).build_engine().expect("oracle config");
                for p in workload(points, i as u64 * 7919) {
                    oracle.insert(p);
                }
                let got = checker.query(&tenant).expect("query reply");
                let want = Reply::from_query(&oracle.query());
                assert_eq!(
                    got.encode().unwrap(),
                    want.encode().unwrap(),
                    "lane tenants={tenants} batch={batch}: tenant {i} diverged from oracle"
                );
            }
            handle.shutdown();

            let points_total = (tenants * points) as u64;
            let points_per_sec = points_total as f64 / elapsed.as_secs_f64().max(1e-9);
            println!(
                "{:>8} {:>7} {:>12} {:>10} {:>14.0} {:>9}",
                tenants,
                batch,
                points_total,
                fmt_duration(elapsed),
                points_per_sec,
                retries
            );
            reports.push(LaneReport {
                tenants,
                batch,
                points_total,
                elapsed,
                points_per_sec,
                overloaded_retries: retries,
            });
        }
    }

    // Batching headroom: within each tenant count, the biggest batch
    // should beat per-point framing.
    for &tenants in &tenant_counts {
        let of = |b: usize| {
            reports
                .iter()
                .find(|r| r.tenants == tenants && r.batch == b)
                .map(|r| r.points_per_sec)
                .unwrap_or(0.0)
        };
        println!(
            "tenants={tenants}: batch-1024 over batch-1 amortization {:.2}x",
            of(1024) / of(1).max(1e-9)
        );
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"window\": {window},\n  \"points_per_tenant\": {points},\n  \"shards\": {shards},\n  \"host_cores\": {},\n  \"answer_checked\": true,\n  \"lanes\": [\n",
        host_cores()
    ));
    for (i, r) in reports.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tenants\": {}, \"batch\": {}, \"points\": {}, \"elapsed_secs\": {:.6}, \"points_per_sec\": {:.1}, \"overloaded_retries\": {}}}{}\n",
            r.tenants,
            r.batch,
            r.points_total,
            r.elapsed.as_secs_f64(),
            r.points_per_sec,
            r.overloaded_retries,
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}");
    let path = "BENCH_serve.json";
    match merge_json_section(path, "serve_throughput", &json) {
        Ok(()) => println!("wrote the serve_throughput section of {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
