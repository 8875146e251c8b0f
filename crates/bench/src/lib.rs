//! Experiment harness: the shared driver behind the per-figure binaries.
//!
//! Each `fig*` and `ablation_*` binary in `src/bin/` regenerates one
//! figure or ablation of the paper's evaluation; its module docs name
//! the figure and the shape to compare against the paper. The driver
//! here streams a dataset through every configured algorithm, issues
//! queries at a fixed cadence once the window has filled, and reports
//! the paper's four metrics:
//!
//! * **memory** — points stored by the algorithm (baselines store the
//!   whole window);
//! * **update time** — average per-arrival cost;
//! * **query time** — average per-query cost;
//! * **approximation ratio** — solution radius over the window divided by
//!   the best radius any sequential baseline found on the same window
//!   (the paper's definition).
//!
//! Every streaming lane is a [`WindowEngine`] driven exclusively through
//! the [`SlidingWindowClustering`] trait — the harness has no per-variant
//! code paths, so adding a lane is adding a [`VariantSpec`].
//!
//! Scales default to laptop-size and grow via environment variables
//! (`FAIRSW_STREAM`, `FAIRSW_WINDOW`, `FAIRSW_QUERIES`); shape, not
//! absolute numbers, is the reproduction target.

use fairsw_core::{FairSWConfig, SlidingWindowClustering, VariantSpec, WindowEngine};
use fairsw_datasets::Dataset;
use fairsw_metric::{sampled_extremes, Colored, EuclidPoint, Euclidean};
use fairsw_sequential::{ChenEtAl, FairCenterSolver, Instance, Jones};
use fairsw_stream::ExactWindow;
use std::time::{Duration, Instant};

/// Which algorithm a lane runs.
#[derive(Clone, Debug)]
pub enum AlgoSpec {
    /// The paper's main algorithm with the given `δ` (knows dmin/dmax).
    Ours {
        /// Coreset precision δ.
        delta: f64,
    },
    /// The aspect-ratio-oblivious variant with the given `δ`.
    OursOblivious {
        /// Coreset precision δ.
        delta: f64,
    },
    /// The Corollary 2 compact variant.
    Compact,
    /// The robust variant with the given outlier budget `z` (δ = 1).
    Robust {
        /// Tolerated outliers per window.
        z: usize,
    },
    /// Jones run on the full window at query time.
    BaselineJones,
    /// ChenEtAl run on the full window at query time (with a per-query
    /// time budget standing in for the paper's 24 h timeout).
    BaselineChen,
}

impl AlgoSpec {
    /// Display name, matching the paper's legend.
    pub fn name(&self) -> String {
        match self {
            AlgoSpec::Ours { delta } => format!("Ours(δ={delta})"),
            AlgoSpec::OursOblivious { delta } => format!("OursObl(δ={delta})"),
            AlgoSpec::Compact => "Compact".to_string(),
            AlgoSpec::Robust { z } => format!("Robust(z={z})"),
            AlgoSpec::BaselineJones => "Jones".to_string(),
            AlgoSpec::BaselineChen => "ChenEtAl".to_string(),
        }
    }

    /// Whether this lane is a full-window sequential baseline.
    pub fn is_baseline(&self) -> bool {
        matches!(self, AlgoSpec::BaselineJones | AlgoSpec::BaselineChen)
    }

    /// The engine spec of a streaming lane (`None` for baselines).
    /// `delta` rides in the shared config, so the spec only carries the
    /// variant selector and the scale bounds.
    fn variant(&self, dmin: f64, dmax: f64) -> Option<VariantSpec> {
        match self {
            AlgoSpec::Ours { .. } => Some(VariantSpec::Fixed { dmin, dmax }),
            AlgoSpec::OursOblivious { .. } => Some(VariantSpec::Oblivious),
            AlgoSpec::Compact => Some(VariantSpec::Compact { dmin, dmax }),
            AlgoSpec::Robust { z } => Some(VariantSpec::Robust { z: *z, dmin, dmax }),
            AlgoSpec::BaselineJones | AlgoSpec::BaselineChen => None,
        }
    }

    /// The coreset precision the lane's config should carry.
    fn delta(&self) -> f64 {
        match self {
            AlgoSpec::Ours { delta } | AlgoSpec::OursOblivious { delta } => *delta,
            _ => 1.0,
        }
    }
}

/// One lane's aggregated measurements.
#[derive(Clone, Debug)]
pub struct LaneResult {
    /// Algorithm display name.
    pub algo: String,
    /// Average stored points at query times.
    pub avg_memory: f64,
    /// Average per-arrival update time.
    pub avg_update: Duration,
    /// Average per-query time.
    pub avg_query: Duration,
    /// Average radius over the true window.
    pub avg_radius: f64,
    /// Average ratio to the best baseline radius per query
    /// (`NaN` when no baseline lane was configured).
    pub avg_ratio: f64,
    /// Completed queries (a lane that hits its time budget stops early).
    pub queries_done: usize,
    /// Whether the lane stopped answering queries due to the budget.
    pub timed_out: bool,
}

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct ExperimentParams {
    /// Window length `n`.
    pub window: usize,
    /// Number of queries (spread over the post-fill stream suffix).
    pub queries: usize,
    /// Per-query time budget for baselines (paper: 24 h; ours: seconds).
    pub query_budget: Duration,
    /// Guess parameter β (paper: 2).
    pub beta: f64,
    /// Total budget Σ k_i (paper: 14); split proportionally to color
    /// frequencies as in the paper.
    pub total_k: usize,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            window: env_usize("FAIRSW_WINDOW", 2_000),
            queries: env_usize("FAIRSW_QUERIES", 10),
            query_budget: Duration::from_secs(env_usize("FAIRSW_BUDGET_SECS", 30) as u64),
            beta: 2.0,
            total_k: 14,
        }
    }
}

/// Reads a usize from the environment with a default (harness scaling).
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Checks a bench binary's gates before it writes its results: when
/// any failed, prints each failure and exits with status 1, so a
/// failing run never replaces a committed `BENCH_*.json`.
pub fn exit_if_gates_failed(failures: &[String]) {
    if failures.is_empty() {
        return;
    }
    for f in failures {
        eprintln!("{f}");
    }
    eprintln!("{} gate(s) failed; no results written", failures.len());
    std::process::exit(1);
}

/// Merges `section` — a JSON value, typically an object literal — into
/// the top-level JSON object stored at `path` under `key`, creating the
/// file as `{"key": section}` when it is missing and replacing any
/// existing entry of the same name. Lets independent bench binaries
/// (e.g. `serve_throughput` and `serve_concurrency`) share one results
/// file without clobbering each other's sections.
///
/// The scanner tracks strings, escapes and brace depth — enough to
/// split the well-formed JSON these binaries emit; it is not a general
/// JSON parser. A file whose top level is not an object is rewritten.
pub fn merge_json_section(path: &str, key: &str, section: &str) -> std::io::Result<()> {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => split_top_level(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let section = section.trim().to_string();
    match entries.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = section,
        None => entries.push((key.to_string(), section)),
    }
    let mut out = String::from("{\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        out.push_str(&format!("\"{k}\": {v}"));
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    std::fs::write(path, out)
}

/// Splits the top-level object of `text` into `(key, raw value)` pairs.
/// Returns an empty list when `text` holds no top-level object.
fn split_top_level(text: &str) -> Vec<(String, String)> {
    let Some(open) = text.find('{') else {
        return Vec::new();
    };
    let inner = &text[open + 1..];
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    let mut entries = Vec::new();
    let mut start = 0usize;
    let mut end = None;
    for (i, c) in inner.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' if depth > 0 => depth -= 1,
            ',' if depth == 0 => {
                entries.push(&inner[start..i]);
                start = i + 1;
            }
            '}' => {
                end = Some(i);
                break;
            }
            _ => {}
        }
    }
    if let Some(end) = end {
        entries.push(&inner[start..end]);
    }
    entries
        .into_iter()
        .filter_map(|entry| {
            let colon = top_level_colon(entry)?;
            let key = entry[..colon].trim();
            let key = key.strip_prefix('"')?.strip_suffix('"')?;
            Some((key.to_string(), entry[colon + 1..].trim().to_string()))
        })
        .collect()
}

/// Byte offset of the key/value colon of one top-level entry — the
/// first `:` outside the key string.
fn top_level_colon(entry: &str) -> Option<usize> {
    let (mut in_string, mut escaped) = (false, false);
    for (i, c) in entry.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            ':' => return Some(i),
            _ => {}
        }
    }
    None
}

/// A lane under measurement: a streaming engine, or a sequential
/// baseline answering from the shared exact window.
enum Lane {
    Engine(Box<WindowEngine<Euclidean>>),
    Baseline(&'static str),
}

struct LaneState {
    spec: AlgoSpec,
    lane: Lane,
    update_total: Duration,
    query_total: Duration,
    memory_total: f64,
    radius_total: f64,
    ratio_total: f64,
    queries_done: usize,
    timed_out: bool,
}

/// Runs one experiment: streams `dataset` through all `algos`, querying
/// `params.queries` times after the window fills. Returns one result per
/// lane, in the order given.
pub fn run_experiment(
    dataset: &Dataset,
    caps: &[usize],
    params: &ExperimentParams,
    algos: &[AlgoSpec],
) -> Vec<LaneResult> {
    let metric = Euclidean;
    let n = params.window;
    assert!(
        dataset.points.len() > n,
        "stream shorter than the window ({} <= {n})",
        dataset.points.len()
    );

    // Scale bounds for the non-oblivious lanes, estimated from the data
    // (the paper's Ours "has knowledge of dmin and dmax").
    let raw: Vec<EuclidPoint> = dataset.points.iter().map(|c| c.point.clone()).collect();
    let ext = sampled_extremes(&metric, &raw, 256).expect("non-degenerate dataset");

    let mut lanes: Vec<LaneState> = algos
        .iter()
        .map(|spec| {
            let lane = match spec {
                AlgoSpec::BaselineJones => Lane::Baseline("jones"),
                AlgoSpec::BaselineChen => Lane::Baseline("chen"),
                streaming => {
                    let variant = streaming
                        .variant(ext.dmin, ext.dmax)
                        .expect("non-baseline specs map to a VariantSpec");
                    let cfg = FairSWConfig::builder()
                        .window_size(n)
                        .capacities(caps.to_vec())
                        .beta(params.beta)
                        .delta(streaming.delta())
                        .build()
                        .expect("valid experiment config");
                    Lane::Engine(Box::new(
                        WindowEngine::build(cfg, variant, metric).expect("valid engine spec"),
                    ))
                }
            };
            LaneState {
                spec: spec.clone(),
                lane,
                update_total: Duration::ZERO,
                query_total: Duration::ZERO,
                memory_total: 0.0,
                radius_total: 0.0,
                ratio_total: 0.0,
                queries_done: 0,
                timed_out: false,
            }
        })
        .collect();

    // Query schedule: `queries` evenly spaced times in (n, stream_len].
    let len = dataset.points.len();
    let span = len - n;
    let stride = (span / params.queries.max(1)).max(1);
    let query_times: Vec<usize> = (1..=params.queries)
        .map(|i| n + i * stride)
        .filter(|&t| t <= len)
        .collect();

    let jones = Jones::new();
    let chen = ChenEtAl::new();
    let mut window = ExactWindow::new(n);
    let mut qi = 0usize;

    for (idx, p) in dataset.points.iter().enumerate() {
        let t = idx + 1;
        window.push(p.clone());
        for lane in &mut lanes {
            let start = Instant::now();
            match &mut lane.lane {
                Lane::Engine(e) => e.insert(p.clone()),
                Lane::Baseline(_) => {} // the shared ExactWindow is their store
            }
            lane.update_total += start.elapsed();
        }

        if qi < query_times.len() && t == query_times[qi] {
            qi += 1;
            run_queries(&mut lanes, &window, caps, params, &jones, &chen);
        }
    }

    let updates = len as f64;
    lanes
        .into_iter()
        .map(|l| {
            let q = l.queries_done.max(1) as f64;
            LaneResult {
                algo: l.spec.name(),
                avg_memory: l.memory_total / q,
                avg_update: l.update_total.div_f64(updates),
                avg_query: l.query_total.div_f64(q),
                avg_radius: l.radius_total / q,
                avg_ratio: l.ratio_total / q,
                queries_done: l.queries_done,
                timed_out: l.timed_out,
            }
        })
        .collect()
}

fn run_queries(
    lanes: &mut [LaneState],
    window: &ExactWindow<EuclidPoint>,
    caps: &[usize],
    params: &ExperimentParams,
    jones: &Jones,
    chen: &ChenEtAl,
) {
    let metric = Euclidean;
    let pts = window.to_vec();
    let inst = Instance::new(&metric, &pts, caps);

    // Radius of a center set over the true window.
    let radius_of = |centers: &[Colored<EuclidPoint>]| inst.radius_of(centers);

    let mut radii: Vec<Option<f64>> = Vec::with_capacity(lanes.len());
    let mut best_baseline = f64::INFINITY;

    for lane in lanes.iter_mut() {
        if lane.timed_out {
            radii.push(None);
            continue;
        }
        let start = Instant::now();
        let result: Option<Vec<Colored<EuclidPoint>>> = match &lane.lane {
            Lane::Engine(e) => e.query().ok().map(|s| s.centers),
            Lane::Baseline("jones") => jones.solve(&inst).ok().map(|s| s.centers),
            Lane::Baseline(_) => chen.solve(&inst).ok().map(|s| s.centers),
        };
        let elapsed = start.elapsed();
        if elapsed > params.query_budget {
            // Mirror the paper's 24 h cap: this lane stops answering.
            lane.timed_out = true;
        }
        match result {
            Some(centers) => {
                let r = radius_of(&centers);
                if lane.spec.is_baseline() && r < best_baseline {
                    best_baseline = r;
                }
                lane.query_total += elapsed;
                lane.queries_done += 1;
                lane.memory_total += match &lane.lane {
                    Lane::Engine(e) => e.stored_points() as f64,
                    Lane::Baseline(_) => window.len() as f64,
                };
                lane.radius_total += r;
                radii.push(Some(r));
            }
            None => radii.push(None),
        }
    }

    // Second pass: accumulate ratios against the best baseline radius.
    if best_baseline.is_finite() {
        for (lane, r) in lanes.iter_mut().zip(&radii) {
            if let Some(r) = r {
                lane.ratio_total += r / best_baseline;
            }
        }
    } else {
        // No baseline lane configured: ratio is meaningless; record 1.
        for (lane, r) in lanes.iter_mut().zip(&radii) {
            if r.is_some() {
                lane.ratio_total += 1.0;
            }
        }
    }
}

/// Prints a results table (one row per lane) with a caption.
pub fn print_table(caption: &str, extra_cols: &[(&str, &str)], results: &[LaneResult]) {
    println!("\n== {caption} ==");
    let extras: String = extra_cols
        .iter()
        .map(|(k, v)| format!("{k}={v} "))
        .collect();
    if !extras.is_empty() {
        println!("   {extras}");
    }
    println!(
        "{:<18} {:>10} {:>12} {:>12} {:>10} {:>8} {:>8}",
        "algo", "memory", "update", "query", "radius", "ratio", "queries"
    );
    for r in results {
        println!(
            "{:<18} {:>10.1} {:>12} {:>12} {:>10.4} {:>8.3} {:>7}{}",
            r.algo,
            r.avg_memory,
            fmt_duration(r.avg_update),
            fmt_duration(r.avg_query),
            r.avg_radius,
            r.avg_ratio,
            r.queries_done,
            if r.timed_out { " (timeout)" } else { "" },
        );
    }
}

/// Human-scale duration formatting (µs / ms / s).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.1}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{:.2}s", us / 1e6)
    }
}

/// The paper's δ sweep.
pub const DELTA_SWEEP: [f64; 8] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];

/// Builds the three UCI stand-in datasets at a given stream length.
pub fn standard_datasets(stream_len: usize, seed: u64) -> Vec<Dataset> {
    vec![
        fairsw_datasets::phones_like(stream_len, seed),
        fairsw_datasets::higgs_like(stream_len, seed + 1),
        fairsw_datasets::covtype_like(stream_len, seed + 2),
    ]
}

/// The paper's capacity rule for a dataset: Σ k_i = total_k, proportional
/// to color frequencies.
pub fn caps_for(dataset: &Dataset, total_k: usize) -> Vec<usize> {
    let freq = fairsw_datasets::color_frequencies(&dataset.points, dataset.num_colors);
    fairsw_datasets::proportional_capacities(&freq, total_k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_json_section_roundtrips() {
        let path = std::env::temp_dir().join(format!("fairsw-merge-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        // Creating from scratch yields a one-section object.
        merge_json_section(path, "alpha", "{\n  \"x\": 1,\n  \"s\": \"a,b:{c}\"\n}").unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"alpha\""), "{text}");

        // A second section lands beside the first.
        merge_json_section(path, "beta", "{\"lanes\": [1, 2, {\"n\": 3}]}").unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(
            text.contains("\"alpha\"") && text.contains("\"beta\""),
            "{text}"
        );
        assert!(
            text.contains("a,b:{c}"),
            "braces in strings survive: {text}"
        );

        // Re-merging a section replaces it without duplicating the key.
        merge_json_section(path, "alpha", "{\"x\": 2}").unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text.matches("\"alpha\"").count(), 1, "{text}");
        assert!(
            text.contains("\"x\": 2") && !text.contains("\"x\": 1"),
            "{text}"
        );
        assert!(text.contains("\"beta\""), "other sections survive: {text}");

        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn driver_end_to_end_small() {
        let ds = fairsw_datasets::blobs(600, 2, fairsw_datasets::BlobsParams::default(), 3);
        let caps = caps_for(&ds, 14);
        let params = ExperimentParams {
            window: 200,
            queries: 3,
            query_budget: Duration::from_secs(10),
            beta: 2.0,
            total_k: 14,
        };
        let algos = [
            AlgoSpec::Ours { delta: 1.0 },
            AlgoSpec::OursOblivious { delta: 1.0 },
            AlgoSpec::Compact,
            AlgoSpec::BaselineJones,
        ];
        let res = run_experiment(&ds, &caps, &params, &algos);
        assert_eq!(res.len(), 4);
        for r in &res {
            assert_eq!(r.queries_done, 3, "{} missed queries", r.algo);
            assert!(r.avg_radius.is_finite() && r.avg_radius > 0.0);
            assert!(r.avg_ratio > 0.0);
        }
        // Sanity on memory accounting (the paper's memory *advantage*
        // needs realistic window sizes; see the integration tests and
        // the fig1/fig3 harness for that shape check).
        let jones_mem = res[3].avg_memory;
        assert!(
            (jones_mem - 200.0).abs() < 1.0,
            "baseline stores the window"
        );
        assert!(res[0].avg_memory > 0.0 && res[0].avg_memory.is_finite());
        // Quality within the theory bound (loose sanity band).
        assert!(res[0].avg_ratio < 4.0, "ratio {}", res[0].avg_ratio);
        assert!(res[1].avg_ratio < 4.0, "ratio {}", res[1].avg_ratio);
    }

    #[test]
    fn robust_lane_through_the_engine() {
        let ds = fairsw_datasets::blobs(500, 2, fairsw_datasets::BlobsParams::default(), 7);
        let caps = caps_for(&ds, 7);
        let params = ExperimentParams {
            window: 150,
            queries: 2,
            query_budget: Duration::from_secs(10),
            beta: 2.0,
            total_k: 7,
        };
        let res = run_experiment(
            &ds,
            &caps,
            &params,
            &[AlgoSpec::Robust { z: 2 }, AlgoSpec::BaselineJones],
        );
        assert_eq!(res[0].queries_done, 2);
        assert!(res[0].avg_radius.is_finite() && res[0].avg_radius > 0.0);
    }

    #[test]
    fn caps_rule_matches_paper() {
        let ds = fairsw_datasets::covtype_like(3000, 1);
        let caps = caps_for(&ds, 14);
        assert_eq!(caps.len(), 7);
        assert_eq!(caps.iter().sum::<usize>(), 14);
        assert!(caps.iter().all(|&c| c >= 1));
    }

    #[test]
    fn env_override_parses() {
        assert_eq!(env_usize("FAIRSW_DOES_NOT_EXIST_XYZ", 7), 7);
    }
}
