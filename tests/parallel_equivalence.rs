//! Differential-testing harness for the two ways of feeding engines:
//! batched ingest and concurrent fleets.
//!
//! The per-guess states of every variant are mutually independent, so
//! replaying a batch guess by guess must be **bit-identical** to
//! inserting its points one at a time — not "close", identical: same
//! winning guess, same centers, same radius bits, same extras, same
//! per-guess memory accounting. This suite enforces that for all five
//! variants across the fill/slide/drift scenario matrix. A final
//! battery checks that [`run_fleet`], which drives one engine per
//! thread, answers exactly like driving each engine alone.

use fairsw::prelude::*;

const WINDOW: usize = 48;
const CAPS: [usize; 2] = [2, 1];
const DMIN: f64 = 1e-4;
const DMAX: f64 = 1e4;

/// Builds every variant.
fn variants() -> Vec<(&'static str, WindowEngine<Euclidean>)> {
    let base = || {
        EngineBuilder::new()
            .window_size(WINDOW)
            .capacities(CAPS.to_vec())
            .beta(2.0)
            .delta(1.0)
    };
    vec![
        (
            "fixed",
            base().fixed(DMIN, DMAX).build(Euclidean).expect("valid"),
        ),
        (
            "oblivious",
            base().oblivious().build(Euclidean).expect("valid"),
        ),
        (
            "compact",
            base().compact(DMIN, DMAX).build(Euclidean).expect("valid"),
        ),
        (
            "robust",
            base()
                .robust(2, DMIN, DMAX)
                .build(Euclidean)
                .expect("valid"),
        ),
        (
            "matroid",
            base()
                .matroid(
                    PartitionMatroid::new(CAPS.to_vec()).expect("valid caps"),
                    DMIN,
                    DMAX,
                )
                .build(Euclidean)
                .expect("valid"),
        ),
    ]
}

fn cp(x: f64, c: u32) -> Colored<EuclidPoint> {
    Colored::new(EuclidPoint::new(vec![x]), c)
}

/// The scenario matrix: name → point stream.
fn scenarios() -> Vec<(&'static str, Vec<Colored<EuclidPoint>>)> {
    let n = WINDOW as u64;
    // Fill: only half a window of two-cluster data.
    let fill: Vec<_> = (0..n / 2)
        .map(|i| {
            let base = if i % 2 == 0 { 0.0 } else { 100.0 };
            cp(
                base + (i as f64 * 0.618_033_988_7).fract() * 2.0,
                (i % 3 == 0) as u32,
            )
        })
        .collect();
    // Slide: five windows of steady two-cluster data with a few spikes
    // (so the robust variant has genuine outliers to price out).
    let slide: Vec<_> = (0..5 * n)
        .map(|i| {
            if i % 71 == 0 {
                cp(5e3 + i as f64, (i % 3 == 0) as u32)
            } else {
                let base = if i % 2 == 0 { 0.0 } else { 250.0 };
                cp(
                    base + (i as f64 * 0.324_717_957_2).fract() * 3.0,
                    (i % 3 == 0) as u32,
                )
            }
        })
        .collect();
    // Drift: coarse scale, then everything collapses to a fine scale —
    // exercises the oblivious variant's guess spawn/retire.
    let drift: Vec<_> = (0..2 * n)
        .map(|i| {
            let base = (i % 3) as f64 * 800.0;
            cp(
                base + (i as f64 * 0.445_041_867_9).fract() * 5.0,
                (i % 3 == 0) as u32,
            )
        })
        .chain((0..3 * n).map(|i| {
            cp(
                500.0 + (i as f64 * 0.618_033_988_7).fract() * 1.5,
                (i % 3 == 0) as u32,
            )
        }))
        .collect();
    vec![("fill", fill), ("slide", slide), ("drift", drift)]
}

/// Bit-level equality of two solutions.
fn assert_solutions_identical(ctx: &str, a: &Solution<EuclidPoint>, b: &Solution<EuclidPoint>) {
    assert_eq!(
        a.guess.to_bits(),
        b.guess.to_bits(),
        "{ctx}: winning guess diverged ({} vs {})",
        a.guess,
        b.guess
    );
    assert_eq!(a.coreset_size, b.coreset_size, "{ctx}: coreset size");
    assert_eq!(
        a.coreset_radius.to_bits(),
        b.coreset_radius.to_bits(),
        "{ctx}: radius bits diverged ({} vs {})",
        a.coreset_radius,
        b.coreset_radius
    );
    assert_centers_identical(ctx, "centers", &a.centers, &b.centers);
    match (&a.extras, &b.extras) {
        (SolutionExtras::None, SolutionExtras::None) => {}
        (SolutionExtras::Robust { outliers: oa }, SolutionExtras::Robust { outliers: ob }) => {
            assert_centers_identical(ctx, "outliers", oa, ob)
        }
        (
            SolutionExtras::Oblivious {
                mature: ma,
                fallback: fa,
                guess_range: ra,
            },
            SolutionExtras::Oblivious {
                mature: mb,
                fallback: fb,
                guess_range: rb,
            },
        ) => {
            assert_eq!(ma, mb, "{ctx}: maturity flag diverged");
            assert_eq!(fa, fb, "{ctx}: fallback flag diverged");
            assert_eq!(
                ra.map(|(lo, hi)| (lo.to_bits(), hi.to_bits())),
                rb.map(|(lo, hi)| (lo.to_bits(), hi.to_bits())),
                "{ctx}: guess range diverged"
            );
        }
        (ea, eb) => panic!("{ctx}: extras kind diverged ({ea:?} vs {eb:?})"),
    }
}

fn assert_centers_identical(
    ctx: &str,
    what: &str,
    a: &[Colored<EuclidPoint>],
    b: &[Colored<EuclidPoint>],
) {
    assert_eq!(a.len(), b.len(), "{ctx}: {what} count diverged");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.color, y.color, "{ctx}: {what}[{i}] color diverged");
        assert_eq!(
            x.point.coords(),
            y.point.coords(),
            "{ctx}: {what}[{i}] coordinates diverged"
        );
    }
}

/// Bit-level equality of the memory accounting (handle entries and the
/// interned arena's deduplicated payload side).
fn assert_memory_identical(ctx: &str, a: &MemoryStats, b: &MemoryStats) {
    assert_eq!(a.auxiliary, b.auxiliary, "{ctx}: auxiliary storage");
    assert_eq!(
        a.unique_points, b.unique_points,
        "{ctx}: arena payload count diverged"
    );
    assert_eq!(
        a.payload_bytes, b.payload_bytes,
        "{ctx}: arena payload bytes diverged"
    );
    assert_eq!(
        a.per_guess.len(),
        b.per_guess.len(),
        "{ctx}: materialized guess count diverged"
    );
    for (ga, gb) in a.per_guess.iter().zip(&b.per_guess) {
        assert_eq!(
            ga.gamma.to_bits(),
            gb.gamma.to_bits(),
            "{ctx}: guess set diverged (γ {} vs {})",
            ga.gamma,
            gb.gamma
        );
        assert_eq!(
            ga.points, gb.points,
            "{ctx}: per-guess memory diverged at γ = {}",
            ga.gamma
        );
    }
}

/// Compares the two engines' full observable state.
fn assert_engines_agree(ctx: &str, a: &WindowEngine<Euclidean>, b: &WindowEngine<Euclidean>) {
    assert_eq!(a.time(), b.time(), "{ctx}: arrival counter");
    assert_eq!(a.stored_points(), b.stored_points(), "{ctx}: memory");
    assert_memory_identical(ctx, &a.memory_stats(), &b.memory_stats());
    match (a.query(), b.query()) {
        (Ok(a), Ok(b)) => assert_solutions_identical(ctx, &a, &b),
        (Err(ea), Err(eb)) => assert_eq!(
            format!("{ea}"),
            format!("{eb}"),
            "{ctx}: error kinds diverged"
        ),
        (a, b) => panic!("{ctx}: outcome kind diverged ({a:?} vs {b:?})"),
    }
}

#[test]
fn batched_parallel_inserts_match_sequential_per_point_inserts() {
    for (scenario, stream) in scenarios() {
        for ((name, mut single), (_, mut batched)) in variants().into_iter().zip(variants()) {
            for p in &stream {
                single.insert(p.clone());
            }
            // Uneven batch sizes so batch boundaries cross window edges.
            for chunk in stream.chunks(WINDOW / 3 + 1) {
                batched.insert_batch(chunk.iter().cloned());
            }
            let ctx = format!("{name}/{scenario} (batched)");
            assert_engines_agree(&ctx, &single, &batched);
            batched
                .check_invariants()
                .unwrap_or_else(|e| panic!("{ctx}: invariant violated: {e}"));
        }
    }
}

#[test]
fn run_fleet_matches_driving_each_engine_alone() {
    let (_, stream) = scenarios().remove(1); // slide: the longest stream
    let mut alone: Vec<WindowEngine<Euclidean>> = variants().into_iter().map(|(_, e)| e).collect();
    let mut fleet: Vec<WindowEngine<Euclidean>> = variants().into_iter().map(|(_, e)| e).collect();

    let solo: Vec<_> = alone
        .iter_mut()
        .map(|e| {
            e.insert_batch(stream.iter().cloned());
            e.query()
        })
        .collect();
    let together = run_fleet(&mut fleet, &stream);

    assert_eq!(solo.len(), together.len());
    for ((a, b), (alone_e, fleet_e)) in solo.iter().zip(&together).zip(alone.iter().zip(&fleet)) {
        let ctx = format!("fleet/{}", alone_e.variant_name());
        match (a, b) {
            (Ok(a), Ok(b)) => assert_solutions_identical(&ctx, a, b),
            (a, b) => panic!("{ctx}: outcome kind diverged ({a:?} vs {b:?})"),
        }
        assert_memory_identical(&ctx, &alone_e.memory_stats(), &fleet_e.memory_stats());
    }
}

#[test]
fn explicit_solver_queries_agree_too() {
    // query_with (explicit Jones) through the concrete types: the
    // batched engine must pick the same guess as the per-point one.
    let cfg = FairSWConfig::builder()
        .window_size(WINDOW)
        .capacities(CAPS.to_vec())
        .build()
        .expect("valid");
    let mut single = FairSlidingWindow::new(cfg.clone(), Euclidean, DMIN, DMAX).expect("valid");
    let mut batched = FairSlidingWindow::new(cfg, Euclidean, DMIN, DMAX).expect("valid");
    for (_, stream) in scenarios() {
        for p in &stream {
            single.insert(p.clone());
        }
        batched.insert_batch(stream);
        let (a, b) = (
            single.query_with(&Jones).expect("answer"),
            batched.query_with(&Jones).expect("answer"),
        );
        assert_solutions_identical("fixed/query_with", &a, &b);
    }
}
