//! JL-projection bench lane — wide-dim embedding streams, raw vs
//! projected, answer-checked in the *original* space.
//!
//! For each raw dimension in {256, 1024} the lane streams the synthetic
//! embedding-drift workload into a fixed-lattice engine twice: once raw,
//! once through `EngineBuilder::project` at each projected dimension in
//! {32, 64, 128}. Repeated queries are timed (best of three rounds) on
//! both, and quality is **answer-checked where it counts**: every
//! projected center is mapped back to its raw preimage (bit-exact match
//! of its projected coordinates against the projected stream — a center
//! that is not a real projected stream point fails loudly), then the
//! true coverage radius of both solutions is evaluated over the raw
//! window points with raw-dimension distances. The quality figure is
//! `projected-centers radius / raw-centers radius` in that original
//! space, not a comparison of two incommensurate coreset bounds.
//!
//! Results land in `BENCH_jl.json` (section `jl_highdim` via
//! [`merge_json_section`]). Outside smoke mode the 1024→64 lane gates:
//! projected queries ≥ 3× faster than raw, radius ratio ≤ 1.25. A run
//! that fails a gate writes nothing.
//!
//! `FAIRSW_BENCH_SMOKE=1` shrinks everything for a CI bitrot check
//! (timing and ratio informational, the preimage answer-check still
//! binds). Scaling knobs: `FAIRSW_WINDOW`, `FAIRSW_STREAM`,
//! `FAIRSW_QUERY_REPS`.

use fairsw_bench::{caps_for, env_usize, exit_if_gates_failed, fmt_duration, merge_json_section};
use fairsw_core::{EngineBuilder, SlidingWindowClustering, WindowEngine};
use fairsw_datasets::{embedding_drift, Dataset, EmbeddingDriftParams};
use fairsw_metric::{
    active_isa, sampled_extremes, Colored, EuclidPoint, Euclidean, Metric, Projector,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Seed of every projection in the sweep (the matrix rematerializes
/// from it; see `fairsw_metric::project`).
const SEED: u64 = 0xfa15_c0de;

/// One timed lane: a raw baseline (`proj_dim == None`) or a projected
/// run, plus its raw-space quality relative to the baseline.
struct Lane {
    raw_dim: usize,
    proj_dim: Option<usize>,
    query: Duration,
    /// True coverage radius of the lane's centers over the raw window.
    radius: f64,
    /// `radius / baseline radius` (1.0 for the baseline itself).
    ratio: f64,
    /// `baseline query time / this lane's query time`.
    speedup: f64,
}

/// Streams `ds` (all but the last `reps` points) into a fixed-lattice
/// engine (projected when `proj_dim` is set), then measures `reps`
/// *cold* queries: each one is preceded by a single-point insert so the
/// window version moves and the engine's query memo cannot answer from
/// cache — only the `query()` calls themselves are timed. Returns the
/// summed query time and the final solution.
fn run_lane(
    ds: &Dataset,
    caps: &[usize],
    window: usize,
    proj_dim: Option<usize>,
    sparse: bool,
    reps: usize,
) -> (Duration, fairsw_core::Solution<EuclidPoint>) {
    // Scale estimation must happen in the space the engine clusters in.
    let raw: Vec<EuclidPoint> = match proj_dim {
        Some(out_dim) => {
            let projector = if sparse {
                Projector::sparse(ds.points[0].point.dim(), out_dim, SEED)
            } else {
                Projector::dense(ds.points[0].point.dim(), out_dim, SEED)
            };
            ds.points
                .iter()
                .map(|p| projector.project_point(&p.point))
                .collect()
        }
        None => ds.points.iter().map(|p| p.point.clone()).collect(),
    };
    let ext = sampled_extremes(&Euclidean, &raw, 256).expect("non-degenerate dataset");
    let builder = EngineBuilder::new()
        .window_size(window)
        .capacities(caps.to_vec())
        .beta(2.0)
        .delta(0.5)
        .fixed(ext.dmin, ext.dmax);
    let builder = match (proj_dim, sparse) {
        (Some(d), false) => builder.project(d, SEED),
        (Some(d), true) => builder.project_sparse(d, SEED),
        (None, _) => builder,
    };
    let mut engine: WindowEngine<Euclidean> = builder.build(Euclidean).expect("valid bench config");
    let reps = reps.max(1).min(ds.points.len() - 1);
    let (warmup, probes) = ds.points.split_at(ds.points.len() - reps);
    for chunk in warmup.chunks(512) {
        engine.insert_batch(chunk.iter().cloned());
    }
    let mut total = Duration::ZERO;
    let mut sol = engine.query().expect("bench query answers");
    for p in probes {
        engine.insert(p.clone());
        let t0 = Instant::now();
        sol = engine.query().expect("bench query answers");
        total += t0.elapsed();
    }
    (total, sol)
}

/// Bit-exact key of a point's coordinates (projection is deterministic,
/// so a projected center matches its stream preimage to the bit).
fn bits(p: &EuclidPoint) -> Vec<u64> {
    p.coords().iter().map(|c| c.to_bits()).collect()
}

/// Maps each center back to a raw-space point. Raw-lane centers are raw
/// stream points already; projected centers are looked up by the bits
/// of their projected coordinates — the answer check that the solution
/// is made of real (projected) stream points.
fn raw_centers(
    centers: &[Colored<EuclidPoint>],
    ds: &Dataset,
    proj: Option<&Projector>,
) -> Vec<EuclidPoint> {
    match proj {
        None => centers.iter().map(|c| c.point.clone()).collect(),
        Some(projector) => {
            let mut preimage: HashMap<Vec<u64>, &EuclidPoint> = HashMap::new();
            for p in &ds.points {
                preimage
                    .entry(bits(&projector.project_point(&p.point)))
                    .or_insert(&p.point);
            }
            centers
                .iter()
                .map(|c| {
                    (*preimage
                        .get(&bits(&c.point))
                        .expect("projected center has no stream preimage"))
                    .clone()
                })
                .collect()
        }
    }
}

/// True coverage radius of `centers` over the last `window` raw points:
/// max over window points of the distance to the nearest center.
fn coverage_radius(ds: &Dataset, window: usize, centers: &[EuclidPoint]) -> f64 {
    let tail = &ds.points[ds.points.len().saturating_sub(window)..];
    tail.iter()
        .map(|p| {
            centers
                .iter()
                .map(|c| Euclidean.dist(&p.point, c))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0, f64::max)
}

fn main() {
    let smoke = std::env::var("FAIRSW_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let window = env_usize("FAIRSW_WINDOW", if smoke { 200 } else { 1_500 });
    let stream = env_usize("FAIRSW_STREAM", window * 2);
    let reps = env_usize("FAIRSW_QUERY_REPS", if smoke { 2 } else { 12 });
    let raw_dims: &[usize] = if smoke { &[256] } else { &[256, 1024] };
    let proj_dims: &[usize] = if smoke { &[32] } else { &[32, 64, 128] };

    println!("JL projection: raw vs projected queries over embedding streams");
    println!(
        "window={window} stream={stream} reps={reps} smoke={smoke} isa={}",
        active_isa().name()
    );
    println!(
        "\n{:<10} {:>6} {:>12} {:>9} {:>12} {:>9}",
        "lane", "dim", "query", "speedup", "radius", "ratio"
    );

    let mut lanes: Vec<Lane> = Vec::new();
    for &raw_dim in raw_dims {
        // `reps` extra points: one consumed before each timed cold query.
        let ds = embedding_drift(
            stream + reps,
            raw_dim,
            EmbeddingDriftParams::default(),
            0xed8e ^ raw_dim as u64,
        );
        let caps = caps_for(&ds, 14);

        let (t_raw, sol_raw) = run_lane(&ds, &caps, window, None, false, reps);
        let base_centers = raw_centers(&sol_raw.centers, &ds, None);
        let base_radius = coverage_radius(&ds, window, &base_centers);
        println!(
            "{:<10} {:>6} {:>12} {:>8.2}x {:>12.4} {:>9.3}",
            "raw",
            raw_dim,
            fmt_duration(t_raw / reps.max(1) as u32),
            1.0,
            base_radius,
            1.0
        );
        lanes.push(Lane {
            raw_dim,
            proj_dim: None,
            query: t_raw,
            radius: base_radius,
            ratio: 1.0,
            speedup: 1.0,
        });

        for &proj_dim in proj_dims {
            let (t_proj, sol_proj) = run_lane(&ds, &caps, window, Some(proj_dim), false, reps);
            let projector = Projector::dense(raw_dim, proj_dim, SEED);
            let centers = raw_centers(&sol_proj.centers, &ds, Some(&projector));
            let radius = coverage_radius(&ds, window, &centers);
            let ratio = radius / base_radius.max(1e-12);
            let speedup = t_raw.as_secs_f64() / t_proj.as_secs_f64().max(1e-12);
            println!(
                "{:<10} {:>6} {:>12} {:>8.2}x {:>12.4} {:>9.3}",
                format!("proj-{proj_dim}"),
                raw_dim,
                fmt_duration(t_proj / reps.max(1) as u32),
                speedup,
                radius,
                ratio
            );
            lanes.push(Lane {
                raw_dim,
                proj_dim: Some(proj_dim),
                query: t_proj,
                radius,
                ratio,
                speedup,
            });
        }
    }

    // The acceptance gate: at 1024→64 the projected queries must be at
    // least 3x cheaper while the raw-space radius stays within 1.25x.
    if !smoke {
        let gate = lanes
            .iter()
            .find(|l| l.raw_dim == 1024 && l.proj_dim == Some(64))
            .expect("1024->64 lane present outside smoke");
        let mut failures = Vec::new();
        if gate.speedup < 3.0 {
            failures.push(format!(
                "1024->64 query speedup {:.2}x below the 3x target",
                gate.speedup
            ));
        }
        if gate.ratio > 1.25 {
            failures.push(format!(
                "1024->64 radius ratio {:.3} above the 1.25 limit",
                gate.ratio
            ));
        }
        exit_if_gates_failed(&failures);
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"jl_highdim\",\n  \"window\": {window},\n  \"stream\": {stream},\n  \"query_reps\": {reps},\n  \"smoke\": {smoke},\n  \"isa\": \"{}\",\n  \"speedup_target\": 3.0,\n  \"radius_ratio_limit\": 1.25,\n  \"lanes\": [\n",
        active_isa().name()
    ));
    for (i, l) in lanes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"raw_dim\": {}, \"proj_dim\": {}, \"query_ns\": {}, \"radius\": {:.6}, \"radius_ratio\": {:.4}, \"speedup\": {:.3}}}{}\n",
            l.raw_dim,
            l.proj_dim.map_or("null".to_string(), |d| d.to_string()),
            l.query.as_nanos(),
            l.radius,
            l.ratio,
            l.speedup,
            if i + 1 < lanes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}");
    let path = "BENCH_jl.json";
    match merge_json_section(path, "jl_highdim", &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
