//! Quickstart: maintain a fair k-center summary over a sliding window.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! We stream two drifting clusters of "users" from two demographic groups
//! and, every so often, extract at most two centers per group that
//! summarize the *recent* data. The whole point of the data structure:
//! per-arrival cost and memory do not depend on the window length.
//!
//! Everything goes through the unified [`WindowEngine`] API — swap
//! `.fixed(..)` for `.oblivious()`, `.robust(..)` or `.matroid(..)` and
//! the rest of this program stays identical.

use fairsw::prelude::*;

fn main() {
    // Window of the 5 000 most recent points; at most 2 centers of each
    // of the 2 colors (a partition-matroid constraint with k = 4). The
    // stream's distance scales are known here (coordinates in [0, ~220],
    // finest spacing ~0.01), so we pick the scale-aware main algorithm;
    // drop the `.fixed(..)` line to get the oblivious variant instead.
    let mut engine = EngineBuilder::new()
        .window_size(5_000)
        .capacities(vec![2, 2])
        .beta(2.0) // radius guesses progress as 3^i
        .delta(1.0) // coreset precision: smaller = larger coreset, better quality
        .fixed(0.01, 400.0)
        .build(Euclidean)
        .expect("valid configuration");

    println!("streaming 20 000 points through a 5 000-point window...");
    for i in 0..20_000u64 {
        // Two clusters that drift to the right over time; colors are
        // assigned 50/50.
        let color = (i % 2) as u32;
        let cluster_base = if color == 0 { 0.0 } else { 100.0 };
        let drift = i as f64 * 0.005;
        let jitter = ((i as f64) * 0.618_033_988_7).fract() * 3.0;
        let x = cluster_base + drift + jitter;
        let y = ((i as f64) * 0.324_717_957_2).fract() * 3.0;
        engine.insert(Colored::new(EuclidPoint::new(vec![x, y]), color));

        if i % 5_000 == 4_999 {
            // Query at any time: runs the Jones 3-approximation on the
            // small coreset, never on the window.
            let sol = engine.query().expect("window is non-empty");
            let mem = engine.memory_stats();
            println!(
                "t={:>6}  centers={}  guess γ̂={:<10.4} coreset={:>4} pts  stored={:>5} pts in {} guesses",
                i + 1,
                sol.centers.len(),
                sol.guess,
                sol.coreset_size,
                mem.stored_points(),
                mem.num_guesses(),
            );
            for c in &sol.centers {
                println!(
                    "          color {} at ({:.1}, {:.1})",
                    c.color,
                    c.point.coords()[0],
                    c.point.coords()[1]
                );
            }
        }
    }
    println!(
        "\nDone. Note the stored-point count stayed flat while 4 windows' \
         worth of data streamed past — that is the paper's headline property."
    );

    // Fleet bonus round: each engine runs sequentially, and run_fleet
    // drives many windows concurrently (one thread per engine) — the
    // multi-tenant serving shape; see README "Parallelism".
    let mut fleet = vec![
        EngineBuilder::new()
            .window_size(5_000)
            .capacities(vec![2, 2])
            .fixed(0.01, 400.0)
            .build(Euclidean)
            .expect("valid configuration"),
        EngineBuilder::new()
            .window_size(1_000) // a second tenant with a shorter memory
            .capacities(vec![1, 1])
            .build(Euclidean)
            .expect("valid configuration"),
    ];
    let batch: Vec<_> = (0..6_000u64)
        .map(|i| {
            let color = (i % 2) as u32;
            let x = if color == 0 { 0.0 } else { 100.0 };
            Colored::new(
                EuclidPoint::new(vec![x + (i as f64 * 0.618).fract() * 3.0, 0.0]),
                color,
            )
        })
        .collect();
    let results = run_fleet(&mut fleet, &batch);
    for (engine, result) in fleet.iter().zip(results) {
        let sol = result.expect("fleet windows are non-empty");
        println!(
            "fleet tenant (window {:>5}): {} centers at guess {:.3}",
            engine.window_size(),
            sol.centers.len(),
            sol.guess,
        );
    }
}
