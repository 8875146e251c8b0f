//! `perfbench` — the end-to-end benchmark of `fairsw-served`.
//!
//! ```text
//! perfbench --served PATH --workload ingest_wal|query_cold|read_mix
//!           --seed N --seconds S --trace 0|1 [--perturb-oracle]
//! ```
//!
//! Spawns the server as its own process, drives one workload over
//! loopback TCP, checks every answer, and prints one JSON line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of an
//! in-process replay with `--trace 1`. See `perfbench/README.md`.

mod check;
mod drive;
mod gen;
mod layers;
mod served;
mod stats;
mod trace;

use drive::{Ctx, Run, WorkDir};
use gen::{inputs, Inputs, Workload};
use stats::{geo_mean, mean, median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every untraced run reports, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("recovery_s", "s"),
    ("server_rss_mb", "MB"),
    ("radius_ratio", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    served: PathBuf,
    perturb_oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut served, mut perturb_oracle) =
        (0, 10.0, false, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload =
                    Some(Workload::parse(&w).ok_or_else(|| format!("unknown workload {w:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--served" => served = Some(PathBuf::from(value()?)),
            "--perturb-oracle" => perturb_oracle = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        served: served.ok_or("--served is required")?,
        perturb_oracle,
    })
}

/// A JSON number with all its digits (non-finite values cannot occur
/// in a result; they are refused before printing).
fn num(v: f64) -> String {
    format!("{v:?}")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// How each workload turns its samples into the three request metrics,
/// as recorded in the provenance header.
fn aggregation(workload: Workload) -> &'static str {
    match workload {
        Workload::IngestWal => {
            "INSERT_BATCH acks per second of the timed phase: points/s, p50 and p95 (about 200 acks/s, \
             too few for a p99), median over the seconds"
        }
        Workload::QueryCold => {
            "per variant, then the geometric mean over the five (each variant weighs the same): \
             1/mean round trip, p50, p90"
        }
        Workload::ReadMix => {
            "replies/s; latency from each request's due time, p50 and p99 per second of the schedule, \
             median over the seconds"
        }
    }
}

/// The median over the whole seconds of the timed phase of `f` applied
/// to each second's latency samples, so a single stall (a slow `fsync`
/// on a shared disk) cannot set the run's figure.
fn per_second(run: &Run, seconds: f64, f: impl Fn(&mut Vec<f64>) -> Option<f64>) -> Option<f64> {
    let mut by_second = vec![Vec::new(); seconds as usize];
    for (&sec, &us) in run.second.iter().zip(&run.latency_us) {
        if let Some(w) = by_second.get_mut(sec as usize) {
            w.push(us);
        }
    }
    let v: Vec<f64> = by_second.iter_mut().filter_map(f).collect();
    median(&v)
}

/// Throughput, p50 and tail latency of the timed phase, with the sample
/// count behind them.
fn request_metrics(
    workload: Workload,
    run: &Run,
    seconds: f64,
    batch: usize,
) -> (Option<f64>, Option<f64>, Option<f64>, usize) {
    let n = run.latency_us.len();
    match workload {
        Workload::QueryCold => {
            let per = |f: &dyn Fn(&mut Vec<f64>) -> Option<f64>| {
                let vals: Option<Vec<f64>> = run
                    .latency_by_variant
                    .values()
                    .map(|v| f(&mut v.clone()))
                    .collect();
                vals.and_then(|v| geo_mean(&v))
            };
            let mean_rtt = per(&|v| Some(mean(v)));
            (
                mean_rtt.map(|us| 1e6 / us),
                per(&|v| percentile(v, 0.5)),
                per(&|v| percentile(v, 0.9)),
                n,
            )
        }
        Workload::IngestWal => (
            per_second(run, seconds, |w| {
                (!w.is_empty()).then(|| (w.len() * batch) as f64)
            }),
            per_second(run, seconds, |w| percentile(w, 0.5)),
            per_second(run, seconds, |w| percentile(w, 0.95)),
            n,
        ),
        Workload::ReadMix => (
            Some(n as f64 / run.elapsed_s),
            per_second(run, seconds, |w| percentile(w, 0.5)),
            per_second(run, seconds, |w| percentile(w, 0.99)),
            n,
        ),
    }
}

/// The end-to-end metrics of an untraced run, with the sample count
/// behind each.
fn end_to_end(
    args: &Args,
    inp: &Inputs,
    run: &Run,
) -> Result<BTreeMap<&'static str, (f64, usize)>, String> {
    let (throughput, p50, tail, n) = request_metrics(args.workload, run, args.seconds, inp.batch);
    let v = [
        ("setup_s", median(&run.setup_s), run.setup_s.len()),
        ("throughput_per_s", throughput, n),
        ("latency_p50_us", p50, n),
        ("latency_tail_us", tail, n),
        ("recovery_s", median(&run.recovery_s), run.recovery_s.len()),
        ("server_rss_mb", median(&run.rss_mb), run.rss_mb.len()),
        ("radius_ratio", geo_mean(&run.ratios), run.ratios.len()),
    ];
    v.into_iter()
        .map(|(name, value, samples)| match value {
            Some(x) if x.is_finite() && x > 0.0 => Ok((name, (x, samples))),
            _ => Err(format!("{name} was not measured")),
        })
        .collect()
}

fn run(args: &Args) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = WorkDir::create(&root.join(".perfbench_work"), args.workload.name())?;
    let ctx = Ctx {
        served_bin: args.served.clone(),
        work: work.0.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        perturb_oracle: args.perturb_oracle,
    };
    let inp = inputs(args.workload, args.seed);
    let run = drive::drive(&ctx, &inp)?;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut samples = String::new();
    if args.trace {
        let out_dir = root.join(".perfbench_out");
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let spans = out_dir.join(format!(
            "{}-seed{}.spans.tsv",
            args.workload.name(),
            args.seed
        ));
        for (name, (v, unit)) in layers::replay(&ctx, &inp, &run, &spans)? {
            metrics.push((name, v, unit));
        }
        let _ = write!(
            samples,
            "{}: {}",
            json_str("requests_replayed"),
            run.sent.len()
        );
    } else {
        let e2e = end_to_end(args, &inp, &run)?;
        for (name, unit) in END_TO_END {
            let (v, n) = e2e[name];
            metrics.push((name.to_string(), v, unit));
            if !samples.is_empty() {
                samples.push_str(", ");
            }
            let _ = write!(samples, "{}: {n}", json_str(name));
        }
    }

    let attempted = run.attempted + run.verdict.checks;
    let failed = run.failed + run.verdict.wrong;
    let correct = failed == 0;
    let problems: Vec<String> = run
        .problems
        .iter()
        .chain(run.verdict.first_problem.iter())
        .map(|p| json_str(p))
        .collect();
    let env: Vec<String> = served::SERVER_ENV
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \
         \"nproc\": {}, \"isa\": {}, \"profile\": {}, \"server_env\": {{{}}}, \"shards\": {}, \"aggregation\": {}, \"server_rss_peak_mb\": {}, \"samples\": {{{samples}}}, \
         \"overloaded\": {}, \"error_share\": {}, \"problems\": [{}]}}}}",
        json_str(args.workload.name()),
        args.seed,
        num(args.seconds),
        args.trace,
        json_str(&git_rev()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(&format!("{:?}", fairsw_metric::active_isa())),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        env.join(", "),
        served::SHARDS,
        json_str(aggregation(args.workload)),
        num(run.proc.map_or(0.0, |p| p.vm_hwm_mb)),
        run.overloaded,
        num(failed as f64 / attempted.max(1) as f64),
        problems.join(", "),
    );
    for (name, v, unit) in &metrics {
        eprintln!("{:<40} {:>16.4} {unit}", name, v);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    // The in-process oracle and replay run under the same settings as
    // the spawned server (see `served::SERVER_ENV`).
    for (k, v) in served::SERVER_ENV {
        std::env::set_var(k, v);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
