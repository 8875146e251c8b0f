//! `fairsw-cli` — stream a CSV point file through the sliding-window
//! fair-center algorithm and print periodic solutions.
//!
//! ```text
//! USAGE:
//!   fairsw-cli --input points.csv --window 10000 --caps 2,2,4 [OPTIONS]
//!
//! INPUT FORMAT:
//!   One point per line: x_1,...,x_d,color  (color = integer in 0..ℓ).
//!   Lines starting with '#' are skipped.
//!
//! OPTIONS:
//!   --input PATH        CSV file (default: built-in demo stream)
//!   --embeddings DIM    replace the input with the synthetic
//!                       embedding-drift stream (unit-norm vectors in
//!                       DIM dimensions, 3x window points)
//!   --window N          window length (default 10000)
//!   --caps a,b,c        per-color budgets k_i (default: 2 per color seen)
//!   --delta F           coreset precision δ in (0,4] (default 1.0)
//!   --beta F            guess progression β (default 2.0)
//!   --metric NAME       distance oracle: euclidean (default), manhattan,
//!                       chebyshev or angular — every variant and the
//!                       scale estimation run under the chosen metric
//!   --query-every N     query cadence in arrivals (default: window)
//!   --oblivious         estimate distance scales on the fly
//!   --compact           Corollary 2 variant (dimension-free space)
//!   --robust Z          tolerate Z outliers per window
//!   --threads N         spread per-guess work over N worker threads
//!                       (default: FAIRSW_THREADS env var, else 1);
//!                       answers are bit-identical at any thread count
//!   --approx EPS        allow the runtime-dispatched SIMD kernels
//!                       (answers stay within the paper's (1+ε) radius
//!                       envelope; default: exact scalar kernels).
//!                       FAIRSW_SIMD={auto,force,off} picks the ISA
//!   --compact-mirror    with --approx: stage candidate scans as the
//!                       compact f32 mirror (half the staged bytes);
//!                       final radii are re-ranked in exact f64
//!   --project DIM       JL-project every point to DIM dimensions at
//!                       ingest (scale estimation, clustering, memory
//!                       and snapshots all live in the projected space)
//!   --project-seed S    seed of the projection matrix (default
//!                       0xfa15c0de); the matrix is rematerialized from
//!                       the seed, never stored
//!   --project-sparse    use the sparse Achlioptas ±1/0 matrix instead
//!                       of the dense Gaussian one
//!   --snapshot-out PATH write an engine snapshot after the stream ends
//!                       (any variant)
//!   --snapshot-in PATH  resume from an engine snapshot instead of
//!                       building a fresh engine (the snapshot carries
//!                       the variant and the window/caps/beta/delta
//!                       configuration)
//!   --quiet             suppress per-center output
//! ```
//!
//! Every variant is constructed and driven through the unified
//! [`WindowEngine`] facade — the streaming loop below contains no
//! per-variant code.

use fairsw::core::{
    ParallelismSpec, SlidingWindowClustering, SolutionExtras, VariantSpec, WindowEngine,
};
use fairsw::datasets::read_csv_points;
use fairsw::metric::{
    sampled_extremes, Angular, Chebyshev, Colored, EuclidPoint, Euclidean, Exactness, Manhattan,
    Metric, Projector, Relaxed,
};
use fairsw_core::FairSWConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Which distance oracle to cluster under (`--metric`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum MetricChoice {
    #[default]
    Euclidean,
    Manhattan,
    Chebyshev,
    Angular,
}

impl MetricChoice {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "euclidean" | "l2" => Ok(MetricChoice::Euclidean),
            "manhattan" | "l1" => Ok(MetricChoice::Manhattan),
            "chebyshev" | "linf" => Ok(MetricChoice::Chebyshev),
            "angular" | "cosine" => Ok(MetricChoice::Angular),
            other => Err(format!(
                "--metric: unknown metric {other:?} \
                 (expected euclidean|manhattan|chebyshev|angular)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            MetricChoice::Euclidean => "euclidean",
            MetricChoice::Manhattan => "manhattan",
            MetricChoice::Chebyshev => "chebyshev",
            MetricChoice::Angular => "angular",
        }
    }
}

#[derive(Debug)]
struct Args {
    input: Option<PathBuf>,
    embeddings: Option<usize>,
    window: usize,
    caps: Option<Vec<usize>>,
    delta: f64,
    beta: f64,
    metric: MetricChoice,
    query_every: Option<usize>,
    oblivious: bool,
    compact: bool,
    robust: Option<usize>,
    threads: Option<usize>,
    approx: Option<f64>,
    compact_mirror: bool,
    project: Option<usize>,
    project_seed: u64,
    project_sparse: bool,
    snapshot_out: Option<PathBuf>,
    snapshot_in: Option<PathBuf>,
    quiet: bool,
}

/// Default `--project-seed`: arbitrary but fixed, so two runs (or a run
/// and its snapshot resume) agree without spelling the seed out.
const DEFAULT_PROJECT_SEED: u64 = 0xfa15_c0de;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: None,
        embeddings: None,
        window: 10_000,
        caps: None,
        delta: 1.0,
        beta: 2.0,
        metric: MetricChoice::default(),
        query_every: None,
        oblivious: false,
        compact: false,
        robust: None,
        threads: None,
        approx: None,
        compact_mirror: false,
        project: None,
        project_seed: DEFAULT_PROJECT_SEED,
        project_sparse: false,
        snapshot_out: None,
        snapshot_in: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--input" => args.input = Some(PathBuf::from(value("--input")?)),
            "--embeddings" => {
                let dim: usize = value("--embeddings")?
                    .parse()
                    .map_err(|e| format!("--embeddings: {e}"))?;
                if dim < 4 {
                    return Err("--embeddings: dimension must be at least 4".into());
                }
                args.embeddings = Some(dim);
            }
            "--window" => {
                args.window = value("--window")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?
            }
            "--caps" => {
                let caps: Result<Vec<usize>, _> =
                    value("--caps")?.split(',').map(str::parse).collect();
                args.caps = Some(caps.map_err(|e| format!("--caps: {e}"))?);
            }
            "--delta" => {
                args.delta = value("--delta")?
                    .parse()
                    .map_err(|e| format!("--delta: {e}"))?
            }
            "--beta" => {
                args.beta = value("--beta")?
                    .parse()
                    .map_err(|e| format!("--beta: {e}"))?
            }
            "--metric" => args.metric = MetricChoice::parse(&value("--metric")?)?,
            "--query-every" => {
                args.query_every = Some(
                    value("--query-every")?
                        .parse()
                        .map_err(|e| format!("--query-every: {e}"))?,
                )
            }
            "--oblivious" => args.oblivious = true,
            "--compact" => args.compact = true,
            "--robust" => {
                args.robust = Some(
                    value("--robust")?
                        .parse()
                        .map_err(|e| format!("--robust: {e}"))?,
                )
            }
            "--threads" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--approx" => {
                let eps: f64 = value("--approx")?
                    .parse()
                    .map_err(|e| format!("--approx: {e}"))?;
                if !eps.is_finite() || eps < 0.0 {
                    return Err("--approx: epsilon must be a finite non-negative number".into());
                }
                args.approx = Some(eps);
            }
            "--compact-mirror" => args.compact_mirror = true,
            "--project" => {
                let dim: usize = value("--project")?
                    .parse()
                    .map_err(|e| format!("--project: {e}"))?;
                if dim == 0 {
                    return Err("--project: dimension must be positive".into());
                }
                args.project = Some(dim);
            }
            "--project-seed" => {
                args.project_seed = value("--project-seed")?
                    .parse()
                    .map_err(|e| format!("--project-seed: {e}"))?
            }
            "--project-sparse" => args.project_sparse = true,
            "--snapshot-out" => args.snapshot_out = Some(PathBuf::from(value("--snapshot-out")?)),
            "--snapshot-in" => args.snapshot_in = Some(PathBuf::from(value("--snapshot-in")?)),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                print!("{}", USAGE);
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

const USAGE: &str = "\
fairsw-cli: sliding-window fair k-center over a CSV stream

USAGE:
  fairsw-cli --input points.csv --window 10000 --caps 2,2,4 [OPTIONS]

OPTIONS:
  --input PATH     CSV file: x_1,...,x_d,color per line (default: demo)
  --embeddings DIM replace the input with the synthetic embedding-drift
                   stream: unit-norm vectors in DIM dimensions drifting
                   along great circles, 3x window points
  --window N       window length (default 10000)
  --caps a,b,c     per-color budgets (default: 2 per color present)
  --delta F        coreset precision in (0,4] (default 1.0)
  --beta F         guess progression (default 2.0)
  --metric NAME    distance oracle: euclidean (default), manhattan,
                   chebyshev or angular (aliases: l2, l1, linf, cosine)
  --query-every N  query cadence in arrivals (default: window)
  --oblivious      estimate distance scales on the fly
  --compact        Corollary 2 variant (dimension-free space)
  --robust Z       tolerate Z outliers per window
  --threads N      per-guess worker threads (default: FAIRSW_THREADS,
                   else sequential); answers are bit-identical
  --approx EPS     allow SIMD kernels (answers stay inside the (1+ε)
                   radius envelope; default: exact scalar kernels);
                   the ISA is picked at startup, override with
                   FAIRSW_SIMD={auto,force,off}
  --compact-mirror with --approx: stage candidate scans as the compact
                   f32 mirror; final radii re-rank in exact f64
  --project DIM    JL-project every point to DIM dimensions at ingest:
                   scale estimation, clustering, memory and snapshots
                   all live in the projected space (distances are
                   preserved within the JL (1±ε) envelope)
  --project-seed S projection-matrix seed, decimal (default 4195729630
                   = 0xfa15c0de); the matrix rematerializes from the
                   seed and is never stored
  --project-sparse sparse Achlioptas ±1/0 matrix instead of dense
                   Gaussian (cheaper to apply, same guarantee)
  --snapshot-out PATH  write an engine snapshot after the stream ends
                   (any variant); the same format fairsw-served spools
                   on CHECKPOINT
  --snapshot-in PATH   resume from an engine snapshot instead of building
                   a fresh engine (it carries the variant and
                   window/caps/beta/delta; the variant flags conflict,
                   --window/--caps/--delta/--beta are then ignored.
                   Snapshots do not record the metric: pass the same
                   --metric the snapshot was written with)
  --quiet          suppress per-center output
";

fn demo_stream(n: usize) -> Vec<Colored<EuclidPoint>> {
    (0..n)
        .map(|i| {
            let base = (i % 3) as f64 * 50.0;
            let x = base + ((i as f64) * 0.618_033_988_7).fract() * 5.0;
            let y = ((i as f64) * 0.324_717_957_2).fract() * 5.0;
            Colored::new(EuclidPoint::new(vec![x, y]), (i % 3) as u32)
        })
        .collect()
}

/// Picks the variant spec the flags describe (scale bounds estimated from
/// the data *under the selected metric* for the non-oblivious variants).
fn variant_for<M: Metric<Point = EuclidPoint>>(
    metric: &M,
    args: &Args,
    points: &[Colored<EuclidPoint>],
) -> Result<VariantSpec, String> {
    let exclusive = [args.oblivious, args.compact, args.robust.is_some()];
    if exclusive.iter().filter(|&&f| f).count() > 1 {
        return Err("--oblivious, --compact and --robust are mutually exclusive".into());
    }
    if args.oblivious {
        return Ok(VariantSpec::Oblivious);
    }
    let raw: Vec<EuclidPoint> = points.iter().map(|p| p.point.clone()).collect();
    let ext =
        sampled_extremes(metric, &raw, 512).ok_or("degenerate input (all points coincide)")?;
    Ok(match args.robust {
        Some(z) => VariantSpec::Robust {
            z,
            dmin: ext.dmin,
            dmax: ext.dmax,
        },
        None if args.compact => VariantSpec::Compact {
            dmin: ext.dmin,
            dmax: ext.dmax,
        },
        None => VariantSpec::Fixed {
            dmin: ext.dmin,
            dmax: ext.dmax,
        },
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    if args.input.is_some() && args.embeddings.is_some() {
        return Err("--input and --embeddings are mutually exclusive".into());
    }
    let points = match (&args.input, args.embeddings) {
        (Some(path), _) => read_csv_points(path).map_err(|e| format!("reading input: {e}"))?,
        (None, Some(dim)) => {
            let data = fairsw::datasets::embedding_drift(
                args.window * 3,
                dim,
                fairsw::datasets::EmbeddingDriftParams::default(),
                DEFAULT_PROJECT_SEED,
            );
            eprintln!("generated {} ({} points)", data.name, data.points.len());
            data.points
        }
        (None, None) => {
            eprintln!("no --input given: running on a built-in demo stream");
            demo_stream(args.window * 3)
        }
    };
    if points.is_empty() {
        return Err("input contains no points".into());
    }
    let ncolors = points.iter().map(|p| p.color).max().unwrap_or(0) as usize + 1;
    let caps = match &args.caps {
        Some(c) => {
            if c.len() < ncolors {
                return Err(format!(
                    "--caps has {} entries but the data uses {} colors",
                    c.len(),
                    ncolors
                ));
            }
            c.clone()
        }
        None => vec![2; ncolors],
    };

    if args.compact_mirror && args.approx.is_none() {
        return Err("--compact-mirror requires --approx".into());
    }
    let exactness = match args.approx {
        Some(epsilon) => Exactness::Approx { epsilon },
        None => Exactness::Exact,
    };
    macro_rules! wrap {
        ($m:expr) => {
            Relaxed::new($m, exactness).with_compact_staging(args.compact_mirror)
        };
    }

    // One generic streaming body, instantiated per distance oracle: the
    // whole pipeline below (engine construction, snapshot resume, the
    // insert/query loop) is metric-polymorphic through `WindowEngine`.
    // Every oracle rides in a `Relaxed` wrapper carrying the kernel
    // exactness policy; the default `Exact` answers bit-identically to
    // the bare metric.
    match args.metric {
        MetricChoice::Euclidean => drive(wrap!(Euclidean), &args, &points, &caps),
        MetricChoice::Manhattan => drive(wrap!(Manhattan), &args, &points, &caps),
        MetricChoice::Chebyshev => drive(wrap!(Chebyshev), &args, &points, &caps),
        MetricChoice::Angular => drive(wrap!(Angular), &args, &points, &caps),
    }
}

/// Streams `points` through the configured engine under `metric` and
/// prints periodic solutions.
fn drive<M>(
    metric: M,
    args: &Args,
    points: &[Colored<EuclidPoint>],
    caps: &[usize],
) -> Result<(), String>
where
    M: Metric<Point = EuclidPoint> + Sync,
{
    let par = match args.threads {
        Some(n) => ParallelismSpec::Threads(n),
        None => ParallelismSpec::Auto, // honors FAIRSW_THREADS
    };
    let mut engine = match &args.snapshot_in {
        Some(path) => {
            // Resume: the snapshot carries the full configuration, so
            // the config/variant flags are superseded.
            if args.oblivious || args.compact || args.robust.is_some() {
                return Err(
                    "--snapshot-in resumes the variant its snapshot names; it conflicts \
                     with --oblivious/--compact/--robust"
                        .into(),
                );
            }
            if args.project.is_some() {
                return Err(
                    "--snapshot-in conflicts with --project: a snapshot carries its own \
                     projection (seed and dimensions) and restores it automatically"
                        .into(),
                );
            }
            let bytes = std::fs::read(path).map_err(|e| format!("reading {path:?}: {e}"))?;
            let engine = WindowEngine::restore(metric, &bytes)
                .map_err(|e| format!("restoring {path:?}: {e}"))?
                .with_parallelism(par);
            // Snapshots carry no metric identifier: the guess
            // lattice and coresets inside were computed under whatever
            // metric wrote them, so resuming under a different one
            // silently voids the approximation guarantees.
            eprintln!(
                "note: snapshots do not record the metric — resuming under \
                 `{}`; supply the same --metric the snapshot was written with",
                args.metric.name()
            );
            eprintln!(
                "resumed from {path:?} at t={} (window {}, {} stored points)",
                engine.time(),
                engine.window_size(),
                engine.stored_points()
            );
            engine
        }
        None => {
            let cfg = FairSWConfig::builder()
                .window_size(args.window)
                .capacities(caps.to_vec())
                .beta(args.beta)
                .delta(args.delta)
                .build()
                .map_err(|e| format!("configuration: {e}"))?;
            // The engine clusters projected payloads, so when --project
            // is on the scale estimation must sample distances in the
            // projected space — dmin/dmax under the raw dimensionality
            // would mis-seed the guess lattice.
            let spec = match args.project {
                Some(out_dim) => {
                    let in_dim = points[0].point.dim();
                    if in_dim == 0 {
                        return Err("--project: input points are zero-dimensional".into());
                    }
                    let projector = if args.project_sparse {
                        Projector::sparse(in_dim, out_dim, args.project_seed)
                    } else {
                        Projector::dense(in_dim, out_dim, args.project_seed)
                    };
                    let projected: Vec<Colored<EuclidPoint>> = points
                        .iter()
                        .map(|p| projector.project_colored(p))
                        .collect();
                    variant_for(&metric, args, &projected)?
                }
                None => variant_for(&metric, args, points)?,
            };
            let engine = WindowEngine::build(cfg, spec, metric)
                .map_err(|e| format!("configuration: {e}"))?
                .with_parallelism(par);
            match args.project {
                Some(out_dim) => {
                    engine.with_projection(out_dim, args.project_seed, args.project_sparse)
                }
                None => engine,
            }
        }
    };
    eprintln!(
        "variant: {} / {} metric ({} thread{})",
        engine.variant_name(),
        args.metric.name(),
        engine.threads(),
        if engine.threads() == 1 { "" } else { "s" }
    );
    if let Some(proj) = engine.projection() {
        eprintln!(
            "projection: {} JL to {} dims (seed {:#x})",
            if proj.sparse() { "sparse" } else { "dense" },
            proj.out_dim(),
            proj.seed(),
        );
    }

    let cadence = args.query_every.unwrap_or(args.window).max(1);
    let t0 = Instant::now();
    let mut queries = 0usize;

    for (i, p) in points.iter().enumerate() {
        engine.insert(p.clone());
        if (i + 1) % cadence == 0 {
            queries += 1;
            let s = engine.query().map_err(|e| e.to_string())?;
            let extra = match &s.extras {
                SolutionExtras::Robust { outliers } => {
                    format!("  outliers={}", outliers.len())
                }
                _ => String::new(),
            };
            println!(
                "t={:>9}  centers={:<2} radius={:<12.4} γ̂={:<10.4} coreset={:<5} stored={:<6}{extra}",
                i + 1,
                s.centers.len(),
                s.coreset_radius,
                s.guess,
                s.coreset_size,
                engine.stored_points(),
            );
            if !args.quiet {
                for c in &s.centers {
                    let coords: Vec<String> =
                        c.point.coords().iter().map(|v| format!("{v:.3}")).collect();
                    println!("    color {} @ ({})", c.color, coords.join(", "));
                }
            }
        }
    }
    if let Some(path) = &args.snapshot_out {
        let bytes = engine.snapshot().expect("every variant snapshots");
        std::fs::write(path, &bytes).map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!(
            "wrote snapshot {path:?} ({} bytes at t={})",
            bytes.len(),
            engine.time()
        );
    }
    let elapsed = t0.elapsed();
    eprintln!(
        "processed {} points, {queries} queries in {elapsed:.2?} \
         ({:.0} points/s on {} thread{})",
        points.len(),
        points.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        engine.threads(),
        if engine.threads() == 1 { "" } else { "s" }
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
