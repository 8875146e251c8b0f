//! Integration: solution quality of the streaming algorithms against the
//! sequential baselines run on the exact window — the paper's
//! approximation-ratio experiment in miniature.

use fairsw::prelude::*;
use fairsw_datasets::{color_frequencies, higgs_like, phones_like, proportional_capacities};
use fairsw_metric::sampled_extremes;

struct Setup {
    ds: fairsw_datasets::Dataset,
    caps: Vec<usize>,
    dmin: f64,
    dmax: f64,
}

fn setup(ds: fairsw_datasets::Dataset) -> Setup {
    let caps = proportional_capacities(&color_frequencies(&ds.points, ds.num_colors), 14);
    let raw: Vec<EuclidPoint> = ds.points.iter().map(|p| p.point.clone()).collect();
    let ext = sampled_extremes(&Euclidean, &raw, 200).expect("non-degenerate");
    Setup {
        ds,
        caps,
        dmin: ext.dmin,
        dmax: ext.dmax,
    }
}

/// Streams through `Ours`, queries at several times, and asserts the
/// radius over the true window stays within `bound` × the Jones baseline.
fn quality_run(s: &Setup, delta: f64, window: usize, bound: f64) {
    let cfg = FairSWConfig::builder()
        .window_size(window)
        .capacities(s.caps.clone())
        .beta(2.0)
        .delta(delta)
        .build()
        .expect("valid");
    let mut sw = FairSlidingWindow::new(cfg, Euclidean, s.dmin, s.dmax).expect("valid");
    let mut exact = ExactWindow::new(window);

    let len = s.ds.points.len();
    let query_at: Vec<usize> = vec![window + (len - window) / 3, len - 1];
    for (i, p) in s.ds.points.iter().enumerate() {
        sw.insert(p.clone());
        exact.push(p.clone());
        if query_at.contains(&i) {
            let win = exact.to_vec();
            let inst = Instance::new(&Euclidean, &win, &s.caps);
            let sol = sw.query().expect("query succeeds");
            assert!(inst.is_fair(&sol.centers), "unfair streaming solution");
            let streaming_radius = inst.radius_of(&sol.centers);
            let baseline = Jones.solve(&inst).expect("baseline succeeds");
            assert!(
                streaming_radius <= bound * baseline.radius + 1e-9,
                "t={}: streaming {} vs baseline {} (δ={delta})",
                i + 1,
                streaming_radius,
                baseline.radius
            );
        }
    }
}

#[test]
fn phones_quality_fine_delta() {
    let s = setup(phones_like(3_000, 11));
    // Theory: (3+ε) vs the 3-approx baseline; the paper observes ratios
    // near 1 at small δ. We assert a conservative 2.5×.
    quality_run(&s, 0.5, 800, 2.5);
}

#[test]
fn phones_quality_coarse_delta() {
    let s = setup(phones_like(3_000, 12));
    // δ = 4: paper reports within 2× of baselines; allow 3× slack for the
    // small window.
    quality_run(&s, 4.0, 800, 3.0);
}

#[test]
fn higgs_quality() {
    let s = setup(higgs_like(2_500, 13));
    quality_run(&s, 1.0, 600, 2.5);
}

#[test]
fn oblivious_matches_ours_quality() {
    let s = setup(phones_like(3_000, 14));
    let window = 700usize;
    let mk = |delta: f64| {
        FairSWConfig::builder()
            .window_size(window)
            .capacities(s.caps.clone())
            .beta(2.0)
            .delta(delta)
            .build()
            .expect("valid")
    };
    let mut ours = FairSlidingWindow::new(mk(1.0), Euclidean, s.dmin, s.dmax).expect("valid");
    let mut obl = ObliviousFairSlidingWindow::new(mk(1.0), Euclidean).expect("valid");
    let mut exact = ExactWindow::new(window);
    for p in &s.ds.points {
        ours.insert(p.clone());
        obl.insert(p.clone());
        exact.push(p.clone());
    }
    let win = exact.to_vec();
    let inst = Instance::new(&Euclidean, &win, &s.caps);
    let r_ours = inst.radius_of(&ours.query().expect("ok").centers);
    let r_obl = inst.radius_of(&obl.query().expect("ok").centers);
    // The paper finds the two variants of comparable quality.
    assert!(
        r_obl <= 2.0 * r_ours + 1e-9 && r_ours <= 2.0 * r_obl + 1e-9,
        "divergent quality: ours {r_ours} vs oblivious {r_obl}"
    );
}

#[test]
fn compact_variant_quality_band() {
    let s = setup(phones_like(2_500, 15));
    let window = 600usize;
    let cfg = FairSWConfig::builder()
        .window_size(window)
        .capacities(s.caps.clone())
        .beta(2.0)
        .build()
        .expect("valid");
    let mut sw = CompactFairSlidingWindow::new(cfg, Euclidean, s.dmin, s.dmax).expect("valid");
    let mut exact = ExactWindow::new(window);
    for p in &s.ds.points {
        sw.insert(p.clone());
        exact.push(p.clone());
    }
    let win = exact.to_vec();
    let inst = Instance::new(&Euclidean, &win, &s.caps);
    let sol = sw.query().expect("ok");
    assert!(inst.is_fair(&sol.centers));
    let r = inst.radius_of(&sol.centers);
    let baseline = Jones.solve(&inst).expect("ok").radius;
    // Corollary 2's guarantee is 31+O(ε); in practice the paper observes
    // (δ=4 regime) within ~2× of the baselines. Assert the *guarantee*
    // band; the `ablation_compact` bench reports the practical one.
    assert!(
        r <= 31.0 * baseline + 1e-9,
        "compact radius {r} vs baseline {baseline}"
    );
}
