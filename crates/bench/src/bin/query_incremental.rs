//! Incremental-query bench lane — cold vs warm `QUERY` latency through
//! the serve-side result cache, per variant.
//!
//! Boots an in-process server, ingests a stream into one tenant per
//! variant, then measures two query regimes over the same connection:
//!
//! * **cold** — every query is preceded by a single-point `INSERT`, so
//!   the tenant's version moves and the reply is recomputed on the
//!   shard (engine query + encode + wire);
//! * **warm** — repeat queries with no intervening write, answered from
//!   the serve-side result cache on the connection thread (wire only).
//!
//! Every warm reply is **answer-checked** byte-identical to the last
//! cold recompute — a cache that got fast by serving stale bytes fails
//! loudly. Results land in `BENCH_query.json` with the p50 of both
//! regimes and the speedup per variant, plus `host_cores` and the kernel
//! `isa`; outside smoke mode the lane enforces warm ≥ 10× faster than
//! cold, and a run that fails it prints each failure, writes nothing and
//! exits 1.
//!
//! `FAIRSW_BENCH_SMOKE=1` shrinks everything for a CI bitrot check
//! (timing informational, identity still enforced). Scaling knobs:
//! `FAIRSW_WINDOW`, `FAIRSW_STREAM`, `FAIRSW_QUERY_REPS`, `FAIRSW_DIM`.

use fairsw_bench::{env_usize, exit_if_gates_failed, fmt_duration};
use fairsw_metric::{active_isa, Colored, EuclidPoint};
use fairsw_serve::loadgen::{workload, Client};
use fairsw_serve::percentile::nearest_rank;
use fairsw_serve::protocol::{Reply, TenantConfig, WireVariant};
use fairsw_serve::server::{ServeConfig, Server};
use std::io::Write as _;
use std::time::{Duration, Instant};

const DMIN: f64 = 1e-3;
const DMAX: f64 = 1e4;

fn variants(window: usize, cap: usize) -> Vec<(&'static str, TenantConfig)> {
    let base = |v| TenantConfig::new(window, vec![cap, cap], v);
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

struct LaneReport {
    variant: &'static str,
    cold_p50: Duration,
    warm_p50: Duration,
    speedup: f64,
}

fn p50(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    nearest_rank(samples.len(), 0.5).map_or(Duration::ZERO, |i| samples[i])
}

/// Lifts the 2-D loadgen stream to `dim` coordinates by tiling them, so
/// every distance evaluation in the recompute path pays the full
/// `dim`-wide cost while the cluster structure (and the `DMIN`/`DMAX`
/// band, up to a `sqrt(dim / 2)` scale well inside it) is preserved.
/// The full-size lane uses wide points so "cold" reflects a realistic
/// recompute, not a toy 2-D scan.
fn lift(stream: Vec<Colored<EuclidPoint>>, dim: usize) -> Vec<Colored<EuclidPoint>> {
    stream
        .into_iter()
        .map(|c| {
            let base = c.point.coords();
            let coords: Vec<f64> = (0..dim).map(|j| base[j % base.len()]).collect();
            Colored::new(EuclidPoint::new(coords), c.color)
        })
        .collect()
}

fn main() {
    let smoke = std::env::var("FAIRSW_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let window = env_usize("FAIRSW_WINDOW", if smoke { 200 } else { 1_000 });
    let points = env_usize("FAIRSW_STREAM", window * 4);
    let reps = env_usize("FAIRSW_QUERY_REPS", if smoke { 10 } else { 50 });
    let dim = env_usize("FAIRSW_DIM", if smoke { 2 } else { 64 });
    // Per-color capacity: k = 2 * cap centers. The full-size lane uses a
    // wider instance so the recompute path carries a realistic amount of
    // packing-scan work per query.
    let cap = env_usize("FAIRSW_CAP", if smoke { 2 } else { 8 });

    println!("Incremental queries: cold (recompute) vs warm (result cache) p50 per variant");
    println!("window={window} stream={points} reps={reps} dim={dim} cap={cap} smoke={smoke}");
    println!(
        "{:<10} {:>12} {:>12} {:>9}",
        "variant", "cold p50", "warm p50", "speedup"
    );

    let handle = Server::start("127.0.0.1:0", ServeConfig::default()).expect("server starts");
    let addr = handle.local_addr();
    let stream = lift(workload(points + reps, 7), dim);

    let mut reports: Vec<LaneReport> = Vec::new();
    for (name, config) in variants(window, cap) {
        let mut c = Client::connect(addr).expect("connect");
        match c.create(name, &config).expect("create reply") {
            Reply::Ok => {}
            other => panic!("{name}: create failed: {other:?}"),
        }
        for chunk in stream[..points].chunks(128) {
            c.insert_batch_backoff(name, chunk)
                .expect("ingest accepted");
        }

        // Cold: each rep moves the tenant version with one insert, so
        // the timed query recomputes on the shard.
        let mut cold = Vec::with_capacity(reps);
        let mut last = None;
        for p in &stream[points..points + reps] {
            match c.insert(name, p).expect("insert reply") {
                Reply::Ok => {}
                other => panic!("{name}: insert failed: {other:?}"),
            }
            let t0 = Instant::now();
            let reply = c.query(name).expect("query reply");
            cold.push(t0.elapsed());
            assert!(
                matches!(reply, Reply::Solution(_)),
                "{name}: cold query failed: {reply:?}"
            );
            last = Some(reply);
        }
        let want = last.expect("at least one cold rep").encode().unwrap();

        // Warm: no writes intervene, so every rep is a cache hit — and
        // must return exactly the bytes of the last recompute.
        let mut warm = Vec::with_capacity(reps);
        for rep in 0..reps {
            let t0 = Instant::now();
            let reply = c.query(name).expect("query reply");
            warm.push(t0.elapsed());
            assert_eq!(
                reply.encode().unwrap(),
                want,
                "{name}: warm rep {rep} diverged from the cold recompute"
            );
        }

        let (cold_p50, warm_p50) = (p50(cold), p50(warm));
        let speedup = cold_p50.as_secs_f64() / warm_p50.as_secs_f64().max(1e-9);
        println!(
            "{:<10} {:>12} {:>12} {:>8.1}x",
            name,
            fmt_duration(cold_p50),
            fmt_duration(warm_p50),
            speedup
        );
        reports.push(LaneReport {
            variant: name,
            cold_p50,
            warm_p50,
            speedup,
        });
    }
    handle.shutdown();

    // A cache hit skips the shard round-trip and the whole recompute;
    // at real sizes that is well over an order of magnitude. Smoke runs
    // use sizes too small for stable timing, so there the ratio is
    // informational only (identity above is always enforced). A failed
    // gate writes nothing.
    if !smoke {
        let failures: Vec<String> = reports
            .iter()
            .filter(|r| r.speedup < 10.0)
            .map(|r| {
                format!(
                    "{}: warm p50 only {:.1}x faster than cold (want >= 10x)",
                    r.variant, r.speedup
                )
            })
            .collect();
        exit_if_gates_failed(&failures);
        println!("warm >= 10x cold: ok on every variant");
    }

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"query_incremental\",\n  \"window\": {window},\n  \"stream\": {points},\n  \"reps\": {reps},\n  \"dim\": {dim},\n  \"cap\": {cap},\n  \"host_cores\": {host_cores},\n  \"smoke\": {smoke},\n  \"isa\": \"{}\",\n  \"answer_checked\": true,\n  \"lanes\": [\n",
        active_isa().name()
    ));
    for (i, r) in reports.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"variant\": \"{}\", \"cold_p50_us\": {:.1}, \"warm_p50_us\": {:.1}, \"speedup\": {:.2}}}{}\n",
            r.variant,
            r.cold_p50.as_secs_f64() * 1e6,
            r.warm_p50.as_secs_f64() * 1e6,
            r.speedup,
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_query.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
