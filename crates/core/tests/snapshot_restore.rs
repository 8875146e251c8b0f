//! Restore-then-continue identity for every variant, and compatibility
//! with fixed-variant snapshots written by earlier releases.
//!
//! A restored engine must answer, and keep evolving, exactly like an
//! uninterrupted twin: every reply, every `MemoryStats`, and in the end
//! the whole re-encoded state are compared. `Debug` output of `f64`s is
//! the shortest round-trip form, so equal strings mean equal bits.

use fairsw_core::{EngineBuilder, SlidingWindowClustering, VariantSpec, WindowEngine};
use fairsw_matroid::{Group, LaminarMatroid, PartitionMatroid};
use fairsw_metric::{Colored, EuclidPoint, Euclidean};

fn point(i: u64, dim: usize) -> Colored<EuclidPoint> {
    let coords: Vec<f64> = (0..dim)
        .map(|d| ((i * dim as u64 + d as u64) as f64 * 0.618_033_988_7).fract() * 100.0)
        .collect();
    Colored::new(EuclidPoint::new(coords), (i % 2) as u32)
}

/// A drifting two-color stream with a far outlier every 29 arrivals.
fn drifting(i: u64) -> Colored<EuclidPoint> {
    let mut p = point(i, 3);
    if i.is_multiple_of(29) {
        p = Colored::new(EuclidPoint::new(vec![5e3 + i as f64, 0.0, 1.0]), p.color);
    } else if i > 150 {
        let shifted: Vec<f64> = p.point.coords().iter().map(|c| c * 0.05 + 40.0).collect();
        p = Colored::new(EuclidPoint::new(shifted), p.color);
    }
    p
}

fn variants() -> Vec<(&'static str, VariantSpec)> {
    let laminar = LaminarMatroid::new(vec![Group::new(vec![0], 1), Group::new(vec![0, 1], 2)])
        .expect("laminar family");
    vec![
        (
            "fixed",
            VariantSpec::Fixed {
                dmin: 1e-3,
                dmax: 1e5,
            },
        ),
        ("oblivious", VariantSpec::Oblivious),
        (
            "compact",
            VariantSpec::Compact {
                dmin: 1e-3,
                dmax: 1e5,
            },
        ),
        (
            "robust",
            VariantSpec::Robust {
                z: 2,
                dmin: 1e-3,
                dmax: 1e5,
            },
        ),
        (
            "matroid-partition",
            VariantSpec::Matroid {
                matroid: PartitionMatroid::new(vec![2, 1]).unwrap().into(),
                dmin: 1e-3,
                dmax: 1e5,
            },
        ),
        (
            "matroid-laminar",
            VariantSpec::Matroid {
                matroid: laminar.into(),
                dmin: 1e-3,
                dmax: 1e5,
            },
        ),
    ]
}

fn engine(spec: VariantSpec) -> WindowEngine<Euclidean> {
    EngineBuilder::new()
        .window_size(60)
        .capacities(vec![2, 1])
        .variant(spec)
        .build(Euclidean)
        .expect("valid engine")
}

fn assert_twins(ctx: &str, a: &WindowEngine<Euclidean>, b: &WindowEngine<Euclidean>) {
    assert_eq!(a.time(), b.time(), "{ctx}: time");
    assert_eq!(
        format!("{:?}", a.query()),
        format!("{:?}", b.query()),
        "{ctx}: reply"
    );
    assert_eq!(
        format!("{:?}", a.memory_stats()),
        format!("{:?}", b.memory_stats()),
        "{ctx}: memory stats"
    );
}

#[test]
fn every_variant_restores_then_continues_like_its_twin() {
    for (name, spec) in variants() {
        let mut twin = engine(spec);
        twin.insert_batch((0..130).map(drifting));
        let bytes = twin.snapshot().expect("every variant snapshots");
        let mut restored = WindowEngine::restore(Euclidean, &bytes)
            .unwrap_or_else(|e| panic!("{name}: restore failed: {e}"));
        assert_eq!(restored.variant_name(), twin.variant_name(), "{name}");
        assert_twins(&format!("{name} at restore"), &twin, &restored);
        // Continue through expiry, cleanup and (oblivious) range
        // changes, alternating single and batched inserts.
        for (round, start) in (130..330).step_by(25).enumerate() {
            let chunk: Vec<_> = (start..start + 25).map(drifting).collect();
            if round % 2 == 0 {
                twin.insert_batch(chunk.iter().cloned());
                restored.insert_batch(chunk);
            } else {
                for p in chunk {
                    twin.insert(p.clone());
                    restored.insert(p);
                }
            }
            assert_twins(&format!("{name} round {round}"), &twin, &restored);
        }
        restored.check_invariants().unwrap();
        assert_eq!(
            restored.snapshot(),
            twin.snapshot(),
            "{name}: continued states diverged"
        );
    }
}

/// The stream the fixtures were written from: 75 arrivals of `dim`
/// coordinates into a window of 30, budgets `[2, 1]`, `[0.01, 1e3]`.
fn fixture_engine(project: bool) -> WindowEngine<Euclidean> {
    let builder = EngineBuilder::new()
        .window_size(30)
        .capacities(vec![2, 1])
        .fixed(0.01, 1e3);
    let (builder, dim) = if project {
        (builder.project(3, 0xfa15), 8)
    } else {
        (builder, 2)
    };
    let mut e = builder.build(Euclidean).unwrap();
    e.insert_batch((0..75).map(|i| point(i, dim)));
    e
}

#[test]
fn fixed_snapshots_from_earlier_releases_still_restore() {
    for (file, project) in [("fixed.fsw2", false), ("fixed-projected.fswp", true)] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(file);
        let bytes = std::fs::read(&path).expect("fixture present");
        let mut restored = WindowEngine::restore(Euclidean, &bytes)
            .unwrap_or_else(|e| panic!("{file}: restore failed: {e}"));
        let mut rebuilt = fixture_engine(project);
        assert_eq!(restored.variant_name(), "fixed");
        assert_eq!(
            restored
                .projection()
                .map(|p| (p.out_dim(), p.seed(), p.in_dim())),
            rebuilt
                .projection()
                .map(|p| (p.out_dim(), p.seed(), p.in_dim())),
            "{file}: projection"
        );
        assert_twins(file, &rebuilt, &restored);
        let dim = if project { 8 } else { 2 };
        restored.insert_batch((75..120).map(|i| point(i, dim)));
        rebuilt.insert_batch((75..120).map(|i| point(i, dim)));
        assert_twins(&format!("{file} continued"), &rebuilt, &restored);
        assert_eq!(restored.snapshot(), rebuilt.snapshot(), "{file}: state");
    }
}
