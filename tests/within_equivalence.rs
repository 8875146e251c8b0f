//! Engine-level check that the early-exit radius test changes nothing.
//!
//! The sliding-window Update asks [`Metric::within`] whether an arrival
//! lies within a radius of each attractor it scans. [`Euclidean`]
//! overrides it with a partial-distance scan that may stop after any
//! 8-coordinate chunk; `DistOnly` forwards `dist` alone, so its
//! `within` is the trait default `dist(a, b) <= r`. Both must drive
//! every variant to the same state.
//!
//! The suite streams points of 9, 17 and 54 coordinates — more than one
//! chunk, so the early exit can fire — into all five variants under
//! each metric, per point and in batches, and compares snapshot bytes
//! and query replies at several checkpoints.
//! The other differential suites stream at most 8 coordinates, where
//! `within` never exits early, or compare two engines that both run the
//! override; this one has an independent reference above the cutoff.

use fairsw::datasets::{blobs, covtype_like, BlobsParams};
use fairsw::prelude::*;

const WINDOW: usize = 64;
const STREAM: usize = 4 * WINDOW;
const DMIN: f64 = 0.5;
const DMAX: f64 = 1e4;

/// Euclidean distance with every other trait method left at its
/// default — `within` included, so it is the plain comparison.
#[derive(Clone, Copy, Debug, Default)]
struct DistOnly;

impl Metric for DistOnly {
    type Point = EuclidPoint;

    fn dist(&self, a: &EuclidPoint, b: &EuclidPoint) -> f64 {
        Euclidean.dist(a, b)
    }
}

/// A stream under test: name, points, per-color capacities.
type Stream = (&'static str, Vec<Colored<EuclidPoint>>, Vec<usize>);

fn streams() -> Vec<Stream> {
    let blob = |dim: usize, seed: u64| {
        let params = BlobsParams {
            components: 5,
            sigma: 2.0,
            num_colors: 3,
            center_box: 100.0,
        };
        blobs(STREAM, dim, params, seed).points
    };
    let covtype = covtype_like(STREAM, 54);
    let covtype_caps = vec![1; covtype.num_colors];
    vec![
        ("blobs-d9", blob(9, 9), vec![2, 1, 1]),
        ("blobs-d17", blob(17, 17), vec![2, 1, 1]),
        ("covtype-d54", covtype.points, covtype_caps),
    ]
}

/// Every variant under `metric`.
fn variants<M>(metric: M, caps: &[usize]) -> Vec<WindowEngine<M>>
where
    M: Metric<Point = EuclidPoint>,
{
    let base = || {
        EngineBuilder::new()
            .window_size(WINDOW)
            .capacities(caps.to_vec())
            .beta(2.0)
            .delta(1.0)
    };
    let partition = PartitionMatroid::new(caps.to_vec()).expect("valid caps");
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
    for (name, stream, caps) in streams() {
        let mut fast = variants(Euclidean, &caps);
        let mut reference = variants(DistOnly, &caps);
        let checkpoints = [STREAM / 3, 2 * STREAM / 3, STREAM];
        for (i, p) in stream.iter().enumerate() {
            for (f, r) in fast.iter_mut().zip(&mut reference) {
                f.insert(p.clone());
                r.insert(p.clone());
            }
            if checkpoints.contains(&(i + 1)) {
                for (f, r) in fast.iter().zip(&reference) {
                    assert_same_state(name, f, r);
                }
            }
        }
    }
}

#[test]
fn batched_updates_match_the_default_within() {
    for (name, stream, caps) in streams() {
        let mut fast = variants(Euclidean, &caps);
        let mut reference = variants(DistOnly, &caps);
        // Uneven batch sizes so batch boundaries cross window edges.
        for chunk in stream.chunks(WINDOW / 3 + 1) {
            for (f, r) in fast.iter_mut().zip(&mut reference) {
                f.insert_batch(chunk.iter().cloned());
                r.insert_batch(chunk.iter().cloned());
            }
            for (f, r) in fast.iter().zip(&reference) {
                assert_same_state(&format!("{name} batched"), f, r);
            }
        }
    }
}
