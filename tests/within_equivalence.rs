//! Engine-level check that the staged radius scans change nothing.
//!
//! The sliding-window Update tests every arrival against the attractors
//! of every guess. It asks [`Metric::within`] about each v-attractor,
//! and [`Metric::scan_within`] about the c-attractors, which each guess
//! keeps in an [`ArrivalBlock`] that stages every attractor's first 16
//! coordinates ([`Metric::block_coords`]). [`Euclidean`] overrides all
//! three: `within` with a partial-distance scan that may stop after any
//! 8-coordinate chunk, and `scan_within` with a tile kernel that decides
//! a row from its staged head and reads the arena only for rows the
//! head does not settle. `DistOnly` forwards `dist` alone, so it keeps
//! every default: its blocks stage nothing, its scan calls `within` row
//! by row, and its `within` is `dist(a, b) <= r`. Both must drive every
//! variant to the same state.
//!
//! The suite streams points of 3, 8, 9, 16, 17, 32 and 54 coordinates
//! into all five variants under each metric, per point, in batches, and
//! through a snapshot and restore, and compares snapshot bytes and
//! query replies at several checkpoints. Points of at most 8 coordinates
//! are decided from their first staged chunk, and points of at most 16
//! from both; longer ones can exit early after either chunk or continue
//! on the payload. The 32-coordinate drift stream runs a
//! window long enough that the smallest guesses hold hundreds of
//! c-attractors, dozens of tiles, so window expiry retires tiles as it
//! goes. The other differential suites compare two engines that both
//! run the overrides; this one has an independent reference.

use fairsw::datasets::{blobs, covtype_like, embedding_drift, BlobsParams, EmbeddingDriftParams};
use fairsw::prelude::*;

const DMIN: f64 = 0.5;
const DMAX: f64 = 1e4;

/// Euclidean distance with every other trait method left at its
/// default — `within`, `block_coords` and `scan_within` included.
#[derive(Clone, Copy, Debug, Default)]
struct DistOnly;

impl Metric for DistOnly {
    type Point = EuclidPoint;

    fn dist(&self, a: &EuclidPoint, b: &EuclidPoint) -> f64 {
        Euclidean.dist(a, b)
    }
}

/// A stream under test.
struct Stream {
    name: &'static str,
    window: usize,
    points: Vec<Colored<EuclidPoint>>,
    caps: Vec<usize>,
}

fn streams() -> Vec<Stream> {
    const WINDOW: usize = 64;
    let blob = |name, dim: usize, seed: u64| {
        let params = BlobsParams {
            components: 5,
            sigma: 2.0,
            num_colors: 3,
            center_box: 100.0,
        };
        Stream {
            name,
            window: WINDOW,
            points: blobs(4 * WINDOW, dim, params, seed).points,
            caps: vec![2, 1, 1],
        }
    };
    let covtype = covtype_like(4 * WINDOW, 54);
    // Unit-norm 32-D embeddings: at the smallest guesses almost every
    // point repels its neighbours, so `A` holds most of the window.
    const DRIFT_WINDOW: usize = 320;
    let drift = embedding_drift(3 * DRIFT_WINDOW, 32, EmbeddingDriftParams::default(), 32);
    vec![
        blob("blobs-d3", 3, 3),
        blob("blobs-d8", 8, 8),
        blob("blobs-d9", 9, 9),
        blob("blobs-d16", 16, 16),
        blob("blobs-d17", 17, 17),
        Stream {
            name: "covtype-d54",
            window: WINDOW,
            caps: vec![1; covtype.num_colors],
            points: covtype.points,
        },
        Stream {
            name: "drift-d32",
            window: DRIFT_WINDOW,
            caps: vec![1; drift.num_colors],
            points: drift.points,
        },
    ]
}

/// Every variant under `metric`.
fn variants<M>(metric: M, s: &Stream) -> Vec<WindowEngine<M>>
where
    M: Metric<Point = EuclidPoint>,
{
    let base = || {
        EngineBuilder::new()
            .window_size(s.window)
            .capacities(s.caps.clone())
            .beta(2.0)
            .delta(1.0)
    };
    let partition = PartitionMatroid::new(s.caps.clone()).expect("valid caps");
    [
        base().fixed(DMIN, DMAX),
        base().oblivious(),
        base().compact(DMIN, DMAX),
        base().robust(2, DMIN, DMAX),
        base().matroid(partition, DMIN, DMAX),
    ]
    .into_iter()
    .map(|b| b.build(metric.clone()).expect("valid config"))
    .collect()
}

/// Asserts byte-identical snapshots and identical query replies. `{:?}`
/// prints every `f64` in its shortest round-trip form, so equal strings
/// mean equal bits for the non-NaN values a reply carries.
fn assert_same_state(
    ctx: &str,
    fast: &WindowEngine<Euclidean>,
    reference: &WindowEngine<DistOnly>,
) {
    let ctx = format!("{ctx} {} at t={}", fast.variant_name(), fast.time());
    assert_eq!(fast.time(), reference.time(), "{ctx}: arrival counter");
    assert!(
        fast.snapshot() == reference.snapshot(),
        "{ctx}: snapshot bytes diverged"
    );
    assert_eq!(
        format!("{:?}", fast.query()),
        format!("{:?}", reference.query()),
        "{ctx}: query replies diverged"
    );
}

#[test]
fn per_point_updates_match_the_default_within() {
    for s in streams() {
        let mut fast = variants(Euclidean, &s);
        let mut reference = variants(DistOnly, &s);
        let n = s.points.len();
        let checkpoints = [n / 3, 2 * n / 3, n];
        for (i, p) in s.points.iter().enumerate() {
            for (f, r) in fast.iter_mut().zip(&mut reference) {
                f.insert(p.clone());
                r.insert(p.clone());
            }
            if checkpoints.contains(&(i + 1)) {
                for (f, r) in fast.iter().zip(&reference) {
                    assert_same_state(s.name, f, r);
                }
            }
        }
    }
}

#[test]
fn batched_updates_match_the_default_within() {
    for s in streams() {
        let mut fast = variants(Euclidean, &s);
        let mut reference = variants(DistOnly, &s);
        // Uneven batch sizes so batch boundaries cross window edges.
        for chunk in s.points.chunks(s.window / 3 + 1) {
            for (f, r) in fast.iter_mut().zip(&mut reference) {
                f.insert_batch(chunk.iter().cloned());
                r.insert_batch(chunk.iter().cloned());
            }
            for (f, r) in fast.iter().zip(&reference) {
                assert_same_state(&format!("{} batched", s.name), f, r);
            }
        }
        // The staged side holds `min(dim, 16)` coordinates beside the
        // handles of each c-attractor; the reference stages none. The
        // drift stream keeps more than 24 tiles of 8 rows.
        let row_bytes = s.points[0].point.dim().min(16) * 8;
        for (f, r) in fast.iter().zip(&reference) {
            let staged = f.memory_stats().staged_bytes;
            assert_eq!(r.memory_stats().staged_bytes, 0, "{}", s.name);
            assert_eq!(
                staged % row_bytes,
                0,
                "{} {}: {staged} bytes is no whole number of rows",
                s.name,
                f.variant_name()
            );
            if f.variant_name() != "compact" {
                assert!(
                    staged > 0,
                    "{} {}: nothing staged",
                    s.name,
                    f.variant_name()
                );
            }
            if s.name == "drift-d32" && f.variant_name() == "fixed" {
                assert!(
                    staged > 24 * 8 * row_bytes,
                    "drift stream staged only {staged} bytes"
                );
            }
        }
    }
}

/// A restored engine re-stages its blocks from the snapshot and must
/// go on exactly like the reference that never stopped.
#[test]
fn restored_engines_continue_like_the_default_within() {
    for s in streams() {
        let mut fast = variants(Euclidean, &s);
        let mut reference = variants(DistOnly, &s);
        let (before, after) = s.points.split_at(s.points.len() / 2 + 7);
        for (f, r) in fast.iter_mut().zip(&mut reference) {
            f.insert_batch(before.iter().cloned());
            r.insert_batch(before.iter().cloned());
        }
        let mut restored: Vec<WindowEngine<Euclidean>> = fast
            .iter()
            .map(|f| {
                let bytes = f.snapshot().expect("every variant snapshots");
                let r = WindowEngine::restore(Euclidean, &bytes).expect("snapshot restores");
                assert_eq!(
                    r.memory_stats().staged_bytes,
                    f.memory_stats().staged_bytes,
                    "{} {}: restore staged other heads",
                    s.name,
                    f.variant_name()
                );
                r
            })
            .collect();
        for chunk in after.chunks(s.window / 4 + 1) {
            for (f, r) in restored.iter_mut().zip(&mut reference) {
                f.insert_batch(chunk.iter().cloned());
                r.insert_batch(chunk.iter().cloned());
            }
            for (f, r) in restored.iter().zip(&reference) {
                assert_same_state(&format!("{} restored", s.name), f, r);
            }
        }
    }
}
