//! Fleet bench lane — [`run_fleet`] against driving the same engines one
//! after another.
//!
//! An engine runs its per-guess loops on the calling thread; more cores
//! pay off across engines. This lane streams one dataset into a fleet of
//! five engines (fixed, oblivious, compact, robust and a second fixed
//! tenant), first serially — each engine ingests the whole stream and
//! answers a query before the next one starts — then through
//! [`run_fleet`], one scoped thread per engine. Results land in
//! `BENCH_parallel.json` next to the working directory.
//!
//! The lane is answer-checked: every `run_fleet` reply must be
//! bit-identical to the serial reply of the same engine, so a fleet that
//! got faster by being wrong fails loudly.
//!
//! Scaling knobs: `FAIRSW_STREAM`, `FAIRSW_WINDOW`.

use fairsw_bench::{caps_for, env_usize, fmt_duration};
use fairsw_core::{run_fleet, EngineBuilder, SlidingWindowClustering, WindowEngine};
use fairsw_metric::{active_isa, sampled_extremes, EuclidPoint, Euclidean};
use std::io::Write as _;
use std::time::Instant;

fn main() {
    let window = env_usize("FAIRSW_WINDOW", 1_000);
    let stream = env_usize("FAIRSW_STREAM", window * 8);

    let ds = fairsw_datasets::phones_like(stream, 0xFA12);
    let caps = caps_for(&ds, 14);
    let raw: Vec<EuclidPoint> = ds.points.iter().map(|c| c.point.clone()).collect();
    let ext = sampled_extremes(&Euclidean, &raw, 256).expect("non-degenerate dataset");
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let isa = active_isa().name();

    println!(
        "Fleet throughput: 5 engines, window={window} stream={stream} \
         (host cores: {host_cores}, isa: {isa})"
    );

    let fleet = || -> Vec<WindowEngine<Euclidean>> {
        let base = || {
            EngineBuilder::new()
                .window_size(window)
                .capacities(caps.to_vec())
        };
        vec![
            base().fixed(ext.dmin, ext.dmax).build(Euclidean).unwrap(),
            base().oblivious().build(Euclidean).unwrap(),
            base().compact(ext.dmin, ext.dmax).build(Euclidean).unwrap(),
            base()
                .robust(2, ext.dmin, ext.dmax)
                .build(Euclidean)
                .unwrap(),
            base().fixed(ext.dmin, ext.dmax).build(Euclidean).unwrap(),
        ]
    };
    let t0 = Instant::now();
    let mut alone = fleet();
    let serial: Vec<_> = alone
        .iter_mut()
        .map(|e| {
            e.insert_batch(ds.points.iter().cloned());
            e.query()
        })
        .collect();
    let serial_total = t0.elapsed();
    let t0 = Instant::now();
    let mut together = fleet();
    let concurrent = run_fleet(&mut together, &ds.points);
    let fleet_total = t0.elapsed();

    // `{:?}` prints every `f64` in its shortest round-trip form, so equal
    // strings mean bit-identical replies.
    for ((engine, a), b) in alone.iter().zip(&serial).zip(&concurrent) {
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{}: run_fleet answer diverged from the serial one",
            engine.variant_name()
        );
    }
    let speedup = serial_total.as_secs_f64() / fleet_total.as_secs_f64();
    println!(
        "serial {} vs run_fleet {} ({speedup:.2}x); answers bit-identical",
        fmt_duration(serial_total),
        fmt_duration(fleet_total)
    );

    let json = format!(
        "{{\n  \"bench\": \"parallel_throughput\",\n  \"window\": {window},\n  \"stream\": {stream},\n  \"host_cores\": {host_cores},\n  \"isa\": \"{isa}\",\n  \"answers_bit_identical\": true,\n  \"fleet\": {{\"engines\": 5, \"serial_secs\": {:.6}, \"run_fleet_secs\": {:.6}, \"speedup\": {speedup:.3}}}\n}}\n",
        serial_total.as_secs_f64(),
        fleet_total.as_secs_f64(),
    );
    let path = "BENCH_parallel.json";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
