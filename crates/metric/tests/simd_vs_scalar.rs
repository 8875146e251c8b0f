//! Property tests for the runtime-dispatched SIMD kernels and the
//! compact payload mirrors, against the scalar reference kernels.
//!
//! ### What must hold, per ISA
//!
//! The vertical SIMD kernels keep one accumulator *per point lane*, so
//! they replay the scalar per-point accumulation order exactly:
//!
//! * **L1 / L∞** are bit-identical to scalar on every ISA — `|x|` via
//!   sign-mask `andnot`, `add`/`max` lane-wise, no reassociation and no
//!   contraction.
//! * **L2** is bit-identical wherever the ISA multiplies and adds in
//!   two rounded steps (the scalar fallback, SSE2); with FMA (AVX2,
//!   NEON) each `d·d + acc` rounds once instead of twice, so the
//!   squared sum may drift by one ulp per dimension. The documented
//!   bound checked here: relative error `≤ dim · 2⁻⁵⁰` on the distance.
//! * **Angular** adds a division and `atan2`; the AVX2 path also
//!   Kahan-compensates the cross terms, so only a small absolute/
//!   relative envelope is asserted — except *zero-norm masking*, which
//!   must be exact: any row whose staged block norm is zero reports
//!   distance exactly `0.0` on every path.
//!
//! All assertions hold under every `FAIRSW_SIMD` setting — with the
//! SIMD kernels disabled both sides are the same scalar code and every
//! check degenerates to bit-identity.
//!
//! The quantized mirror's contract is different: `Q8Euclidean` answers
//! are *exactly* reproducible (its batched exact kernel re-ranks
//! bit-identically to its scalar `dist`), and they stay within the
//! `(1+ε)` envelope of the original `f64` distances for
//! `ε = √dim · (step_a + step_b) / (2·d)` (the per-point quantization
//! steps), which is what lets an `Approx` engine scan compactly and
//! re-rank survivors exactly.
//!
//! The Update radius test `Metric::within(a, b, r)` has no tolerance at
//! all: under every bundled metric it must decide exactly as
//! `dist(a, b) <= r`, including the Euclidean early exit on these same
//! overflowing and subnormal coordinates. The block scan
//! `Metric::scan_within` over an `ArrivalBlock` must report exactly the
//! rows `within` accepts, in order, whatever the block's push and pop
//! history.

use fairsw_metric::{
    Angular, ArrivalBlock, Chebyshev, CompactEuclidean, CompactPoint, CoresetView, EuclidPoint,
    Euclidean, Exactness, Manhattan, Metric, PointId, PointStore, Q8Euclidean, Q8Point, Relaxed,
};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Dimensions covering every tile shape: sub-lane, exact-lane, lane+1,
/// and wide blocks with and without a padded tail (LANES = 8).
const DIMS: [usize; 12] = [1, 2, 7, 8, 9, 16, 17, 63, 64, 129, 256, 1024];

/// Coordinate strategy: mostly well-scaled values, with a ~25% sprinkle
/// of subnormal and extreme-magnitude outliers (squares that underflow
/// to 0 or overflow to ∞ must do so identically on both paths).
fn coord() -> impl Strategy<Value = f64> {
    (0u32..20, -1e3..1e3f64).prop_map(|(sel, x)| match sel {
        0 => 1e-310,
        1 => -2.5e-308,
        2 => 0.0,
        3 => 1e160,
        4 => -3e160,
        _ => x,
    })
}

fn points(dim: usize, n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(coord(), dim), 1..n + 1)
}

/// Stages `rows` twice — exact mode and SIMD (`Approx`) mode — and
/// returns both `dist_one_to_many` outputs for `metric`.
fn both_modes<M>(metric: M, rows: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>)
where
    M: Metric<Point = EuclidPoint> + Copy,
{
    let pts: Vec<EuclidPoint> = rows.iter().map(|r| EuclidPoint::new(r.clone())).collect();
    let q = pts[0].clone();
    let mut exact_view = CoresetView::new();
    exact_view.gather(&metric, pts.iter());
    let mut exact = vec![0.0; pts.len()];
    metric.dist_one_to_many(&q, &exact_view, &mut exact);

    let relaxed = Relaxed::new(metric, Exactness::Approx { epsilon: 0.0 });
    let mut simd_view = CoresetView::new();
    simd_view.gather(&relaxed, pts.iter());
    let mut simd = vec![0.0; pts.len()];
    relaxed.dist_one_to_many(&q, &simd_view, &mut simd);
    (exact, simd)
}

fn dims() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // L1 and L∞ SIMD kernels are bit-identical to scalar on every ISA.
    #[test]
    fn l1_linf_simd_bit_identical(rows in dims().prop_flat_map(|d| points(d, 20))) {
        for metric_out in [both_modes(Manhattan, &rows), both_modes(Chebyshev, &rows)] {
            let (exact, simd) = metric_out;
            for (i, (a, b)) in exact.iter().zip(&simd).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "row {}: {} vs {}", i, a, b);
            }
        }
    }

    // L2 under SIMD stays within the documented FMA ulp bound of the
    // scalar kernel (and handles ±∞ results identically).
    #[test]
    fn l2_simd_within_ulp_bound(rows in dims().prop_flat_map(|d| points(d, 20))) {
        let dim = rows[0].len();
        let (exact, simd) = both_modes(Euclidean, &rows);
        for (i, (&a, &b)) in exact.iter().zip(&simd).enumerate() {
            if !a.is_finite() || !b.is_finite() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "row {}: nonfinite mismatch", i);
                continue;
            }
            let tol = a.abs() * (dim as f64) * f64::powi(2.0, -50);
            prop_assert!((a - b).abs() <= tol, "row {}: {} vs {} (tol {})", i, a, b, tol);
        }
    }

    // Angular under SIMD: zero-norm rows mask to exactly 0.0; all other
    // rows stay within a small envelope of the scalar kernel.
    #[test]
    fn angular_simd_masks_and_bounds(rows in dims().prop_flat_map(|d| points(d, 16)), zero_at in 0usize..16) {
        let mut rows = rows;
        let dim = rows[0].len();
        let n = rows.len();
        rows[zero_at % n] = vec![0.0; dim];
        let (exact, simd) = both_modes(Angular, &rows);
        for (i, (&a, &b)) in exact.iter().zip(&simd).enumerate() {
            if i == zero_at % n {
                prop_assert_eq!(b.to_bits(), 0.0f64.to_bits(), "zero-norm row must mask to 0.0");
                prop_assert_eq!(a.to_bits(), 0.0f64.to_bits());
                continue;
            }
            if !a.is_finite() || !b.is_finite() {
                continue; // overflowed norms: angle undefined either way
            }
            prop_assert!((a - b).abs() <= 1e-9 + a.abs() * 1e-9, "row {}: {} vs {}", i, a, b);
        }
    }

    // The compact f32 mirror's exact batched kernel re-ranks
    // bit-identically to its scalar `dist` (and the same for q8).
    #[test]
    fn compact_exact_kernels_bit_identical(rows in dims().prop_flat_map(|d| points(d, 16))) {
        let f32_pts: Vec<CompactPoint> = rows.iter().map(|r| CompactPoint::from_f64(r)).collect();
        let q8_pts: Vec<Q8Point> = rows.iter().map(|r| Q8Point::quantize(r)).collect();

        let mut view = CoresetView::new();
        view.gather(&CompactEuclidean, f32_pts.iter());
        prop_assert!(view.soa32().is_some(), "compact metric must stage the f32 block");
        let mut out = vec![0.0; f32_pts.len()];
        CompactEuclidean.dist_one_to_many_exact(&f32_pts[0], &view, &mut out);
        for (i, (p, &d)) in f32_pts.iter().zip(&out).enumerate() {
            prop_assert_eq!(d.to_bits(), CompactEuclidean.dist(&f32_pts[0], p).to_bits(), "f32 row {}", i);
        }

        let mut view = CoresetView::new();
        view.gather(&Q8Euclidean, q8_pts.iter());
        let mut out = vec![0.0; q8_pts.len()];
        Q8Euclidean.dist_one_to_many_exact(&q8_pts[0], &view, &mut out);
        for (i, (p, &d)) in q8_pts.iter().zip(&out).enumerate() {
            prop_assert_eq!(d.to_bits(), Q8Euclidean.dist(&q8_pts[0], p).to_bits(), "q8 row {}", i);
        }
    }

    // Quantized-mirror distances stay within the analytic (1+ε)
    // envelope of the original f64 distances: each coordinate is off
    // by at most step/2, so each distance moves by at most
    // √dim · (step_a + step_b)/2.
    #[test]
    fn q8_within_envelope_of_f64(rows in dims().prop_flat_map(|d| points(d, 12))) {
        // Quantization degrades gracefully only on finite, same-scale
        // data; clamp the extreme outliers the other tests exercise.
        let rows: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|x| x.clamp(-1e3, 1e3)).collect())
            .collect();
        let dim = rows[0].len();
        let f64_pts: Vec<EuclidPoint> = rows.iter().map(|r| EuclidPoint::new(r.clone())).collect();
        let q8_pts: Vec<Q8Point> = f64_pts.iter().map(Q8Point::from).collect();
        let q = &q8_pts[0];
        for (i, (p64, p8)) in f64_pts.iter().zip(&q8_pts).enumerate() {
            let d_true = Euclidean.dist(&f64_pts[0], p64);
            let d_q8 = Q8Euclidean.dist(q, p8);
            let step = |r: &[f64]| {
                let (lo, hi) = r.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)));
                ((hi - lo) / 255.0).max(0.0)
            };
            let eps = (dim as f64).sqrt() * (step(&rows[0]) + step(&rows[i])) / 2.0;
            // Slack covers the f32 decode rounding on top of the step
            // bound.
            prop_assert!(
                (d_true - d_q8).abs() <= eps + 1e-3 + d_true * 1e-6,
                "row {}: |{} - {}| > {}",
                i, d_true, d_q8, eps
            );
        }
    }
}

/// Asserts `within(a, b, r) == (dist(a, b) <= r)` for radii at, just
/// around, well inside and well outside `d = dist(a, b)`, for the
/// degenerate radii, and for the two `random` ones.
fn within_matches_dist<M: Metric<Point = EuclidPoint>>(
    metric: &M,
    a: &EuclidPoint,
    b: &EuclidPoint,
    random: [f64; 2],
) -> Result<(), TestCaseError> {
    let d = metric.dist(a, b);
    let radii = [
        d,
        d.next_up(),
        d.next_down(),
        d / 2.0,
        2.0 * d,
        0.0,
        -0.0,
        -1.0,
        f64::INFINITY,
        f64::NAN,
        random[0],
        random[1],
    ];
    for r in radii {
        prop_assert_eq!(
            metric.within(a, b, r),
            d <= r,
            "dim {}: within(r = {:e}) disagrees with dist = {:e}",
            a.dim(),
            r,
            d
        );
    }
    Ok(())
}

/// [`within_matches_dist`] under every bundled coordinate metric: the
/// Euclidean early exit, its `Relaxed` forwarding in both modes, and
/// the trait default that the other three keep.
fn all_metrics_within_match_dist(
    a: &EuclidPoint,
    b: &EuclidPoint,
    random: [f64; 2],
) -> Result<(), TestCaseError> {
    within_matches_dist(&Euclidean, a, b, random)?;
    within_matches_dist(&Relaxed::exact(Euclidean), a, b, random)?;
    within_matches_dist(
        &Relaxed::new(Euclidean, Exactness::Approx { epsilon: 0.05 }),
        a,
        b,
        random,
    )?;
    within_matches_dist(&Manhattan, a, b, random)?;
    within_matches_dist(&Chebyshev, a, b, random)?;
    within_matches_dist(&Angular, a, b, random)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // `within` decides exactly as `dist(a, b) <= r`, with squares that
    // overflow mid-sum, subnormals, and a NaN coordinate placed inside
    // and after the first 8-coordinate chunk (the early exit checks
    // after each full chunk of 8).
    #[test]
    fn within_is_dist_le_r(
        rows in dims().prop_flat_map(|d| points(d, 8)),
        factor in 0.0..2.0f64,
        raw in coord(),
        nan_at in (0usize..8, 0usize..1024),
    ) {
        let pts: Vec<EuclidPoint> = rows.iter().map(|r| EuclidPoint::new(r.clone())).collect();
        let a = &pts[0];
        let dim = a.dim();
        for b in &pts {
            let random = [factor * Euclidean.dist(a, b), raw];
            all_metrics_within_match_dist(a, b, random)?;

            let (inside, after) = nan_at;
            let mut slots = vec![inside % dim];
            if dim > 8 {
                slots.push(8 + after % (dim - 8));
            }
            for slot in slots {
                let mut coords = rows[0].clone();
                coords[slot] = f64::NAN;
                let a_nan = EuclidPoint::new(coords);
                all_metrics_within_match_dist(&a_nan, b, random)?;
                all_metrics_within_match_dist(b, &a_nan, random)?;
            }
        }
    }
}

// Release builds skip `within`'s dimension `debug_assert`, so a
// mismatched pair must truncate exactly as `dist`'s `zip` does — on
// both sides of the one-chunk cutoff, with and without an early exit.
#[cfg(not(debug_assertions))]
#[test]
fn within_truncates_mismatched_dimensions_like_dist() {
    for (la, lb) in [(9, 17), (17, 9), (16, 54), (54, 25), (3, 20), (8, 9)] {
        let a = EuclidPoint::new((0..la).map(|i| i as f64 * 0.75).collect::<Vec<f64>>());
        let b = EuclidPoint::new((0..lb).map(|i| 40.0 - i as f64).collect::<Vec<f64>>());
        let d = Euclidean.dist(&a, &b);
        for r in [d, d.next_up(), d.next_down(), d / 2.0, 2.0 * d] {
            assert_eq!(
                Euclidean.within(&a, &b, r),
                d <= r,
                "dims {la}/{lb}: within(r = {r:e}) disagrees with dist = {d:e}"
            );
        }
    }
}

/// Euclidean distance with every other method at its default: `within`
/// is `dist <= r`, and its blocks stage nothing, so its scan is the
/// per-row reference path.
#[derive(Clone, Copy, Debug, Default)]
struct DefaultOnly;

impl Metric for DefaultOnly {
    type Point = EuclidPoint;

    fn dist(&self, a: &EuclidPoint, b: &EuclidPoint) -> f64 {
        Euclidean.dist(a, b)
    }
}

/// One step of a block's history.
#[derive(Clone, Copy, Debug)]
enum BlockOp {
    /// Append the next point.
    Push,
    /// Window expiry of the oldest row.
    Expire,
    /// Cleanup: drop every row older than the one at this position.
    DropBefore(usize),
}

fn block_ops() -> impl Strategy<Value = Vec<BlockOp>> {
    // The vendored proptest shim's prop_oneof is unweighted; skew toward
    // pushes by repeating them, so blocks grow across several tiles.
    let op = prop_oneof![
        Just(BlockOp::Push),
        Just(BlockOp::Push),
        Just(BlockOp::Push),
        Just(BlockOp::Push),
        Just(BlockOp::Expire),
        (0usize..24).prop_map(BlockOp::DropBefore),
    ];
    proptest::collection::vec(op, 1..64)
}

/// [`coord`] plus NaN and both infinities, for rows of `dim`
/// coordinates. A row of more than 16 coordinates resumes on the arena
/// payload only if its distance is finite and the two staged chunks do
/// not rule it out, so there every outlier is twenty times rarer (a
/// coordinate is NaN, infinite or overflowing once in about 115 draws
/// instead of once in six): most such rows stay finite, and the radii
/// around row distances make many of them resume.
fn block_coord(dim: usize) -> impl Strategy<Value = f64> {
    let rare = if dim > 16 { 20 } else { 1 };
    (0u32..40 * rare, 0u32..20 * rare, -1e3..1e3f64).prop_map(|(sel, sub, x)| match (sel, sub) {
        (0, _) => f64::NAN,
        (1, _) => f64::INFINITY,
        (2, _) => f64::NEG_INFINITY,
        (_, 0) => 1e-310,
        (_, 1) => -2.5e-308,
        (_, 2) => 0.0,
        (_, 3) => 1e160,
        (_, 4) => -3e160,
        _ => x,
    })
}

/// Dimensions 1–64, with the chunk edges 8, 9, 16 and 17 and the
/// three-chunk points 24 and 25 each drawn as often as the whole range.
fn block_dims() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..65,
        Just(8usize),
        Just(9usize),
        Just(16usize),
        Just(17usize),
        Just(24usize),
        Just(25usize)
    ]
}

/// Asserts that `metric.scan_within` over `block` reports exactly the
/// rows `within` accepts, in order, for `within_is_dist_le_r`'s radii
/// around the distance to the oldest, middle and newest rows.
fn scan_matches_within<M: Metric<Point = EuclidPoint>>(
    metric: &M,
    block: &ArrivalBlock,
    store: &PointStore<EuclidPoint>,
    p: &EuclidPoint,
) -> Result<(), TestCaseError> {
    let res = store.resolver();
    let mut radii = vec![0.0, -0.0, -1.0, f64::INFINITY, f64::NAN];
    if !block.is_empty() {
        for row in [0, block.len() / 2, block.len() - 1] {
            let d = metric.dist(p, res.get(block.id(row)));
            radii.extend([d, d.next_up(), d.next_down(), d / 2.0, 2.0 * d]);
        }
    }
    for r in radii {
        let mut hits = Vec::new();
        metric.scan_within(p, block, res, r, |row| hits.push(row));
        let expected: Vec<usize> = (0..block.len())
            .filter(|&row| metric.within(p, res.get(block.id(row)), r))
            .collect();
        prop_assert_eq!(
            &hits,
            &expected,
            "dim {}, {} rows, r = {:e}",
            p.dim(),
            block.len(),
            r
        );
    }
    Ok(())
}

/// Replays `ops` on a block staged for `metric` and on a plain model of
/// its rows, checking the rows and the scan after every step.
fn drive_block<M: Metric<Point = EuclidPoint>>(
    metric: &M,
    ops: &[BlockOp],
    rows: &[Vec<f64>],
    p: &EuclidPoint,
) -> Result<(), TestCaseError> {
    let mut store = PointStore::new();
    let mut block = ArrivalBlock::new();
    let mut model: VecDeque<(u64, PointId)> = VecDeque::new();
    let mut next = 0usize;
    for &op in ops {
        match op {
            BlockOp::Push => {
                let t = next as u64 + 1;
                let point = EuclidPoint::new(rows[next % rows.len()].clone());
                next += 1;
                let id = store.insert(t, point);
                block.push(t, id, metric.block_coords(store.get(id)));
                model.push_back((t, id));
            }
            BlockOp::Expire => {
                if let Some(&(t, id)) = model.front() {
                    prop_assert_eq!(block.remove_front(t), Some(id));
                    model.pop_front();
                }
            }
            BlockOp::DropBefore(at) => {
                let cut = model.get(at).map_or(u64::MAX, |&(t, _)| t);
                let mut dropped = Vec::new();
                block.drop_before(cut, |t, id| dropped.push((t, id)));
                let kept = model.iter().take_while(|&&(t, _)| t < cut).count();
                let expected: Vec<(u64, PointId)> = model.drain(..kept).collect();
                prop_assert_eq!(dropped, expected);
            }
        }
        prop_assert!(
            block.iter().eq(model.iter().copied()),
            "rows diverged from the model"
        );
        scan_matches_within(metric, &block, &store, p)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The block scan reports exactly the rows `within` accepts, in
    // arrival order, across pushes, expiries and prefix drops that cross
    // tile boundaries, for the Euclidean tile kernel, its `Relaxed`
    // forwarding in both modes, and the default per-row scan.
    #[test]
    fn scan_within_is_within_per_row(
        case in block_dims().prop_flat_map(|d| (
            proptest::collection::vec(proptest::collection::vec(block_coord(d), d), 1..48),
            proptest::collection::vec(block_coord(d), d),
        )),
        ops in block_ops(),
    ) {
        let (rows, p) = case;
        let p = EuclidPoint::new(p);
        drive_block(&Euclidean, &ops, &rows, &p)?;
        drive_block(&Relaxed::exact(Euclidean), &ops, &rows, &p)?;
        drive_block(&Relaxed::new(Euclidean, Exactness::Approx { epsilon: 0.05 }), &ops, &rows, &p)?;
        drive_block(&DefaultOnly, &ops, &rows, &p)?;
    }
}

// A tile buffer grown for 7-coordinate rows and then emptied keeps a
// capacity of 56 lane groups, no multiple of 16, so a ring of at most 16
// wider rows wraps inside a tile of 16 lane groups (the block's unit
// test `a_wide_tile_straddles_the_ring_wrap` checks that this recipe
// does). The scan must read such a tile whole, on every leg.
#[test]
fn scan_within_reads_wide_tiles_across_the_ring_wrap() -> Result<(), TestCaseError> {
    let coord = |i: usize, d: usize| match (i * 7 + d * 3) % 97 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        _ => ((i * 31 + d * 17) as f64 * 0.618_033_988_7).fract() * 4.0,
    };
    for dim in [16, 17, 24, 25, 54] {
        let mut store = PointStore::new();
        let mut block = ArrivalBlock::new();
        for t in 1..=64 {
            let id = store.insert(t, EuclidPoint::new(vec![t as f64; 7]));
            block.push(t, id, Euclidean.block_coords(store.get(id)));
        }
        block.drop_before(u64::MAX, |_, _| {});
        let p = EuclidPoint::new((0..dim).map(|d| coord(1000, d)).collect::<Vec<f64>>());
        for i in 64..200 {
            let t = i as u64 + 1;
            let point = EuclidPoint::new((0..dim).map(|d| coord(i, d)).collect::<Vec<f64>>());
            let id = store.insert(t, point);
            block.push(t, id, Euclidean.block_coords(store.get(id)));
            if block.len() > 16 {
                block.remove_front(block.time(0));
            }
            scan_matches_within(&Euclidean, &block, &store, &p)?;
            scan_matches_within(&Relaxed::exact(Euclidean), &block, &store, &p)?;
        }
    }
    Ok(())
}

// Release builds skip `within`'s dimension `debug_assert`, so a block
// scan must also decide mismatched dimensions exactly as `within`: an
// arrival of another dimension than the staged rows', and a block whose
// rows disagree, both go through `within` row by row.
#[cfg(not(debug_assertions))]
#[test]
fn scan_within_truncates_mismatched_dimensions_like_within() {
    let point = |dim: usize, scale: f64| {
        EuclidPoint::new((0..dim).map(|i| scale * i as f64).collect::<Vec<f64>>())
    };
    for (rows, arrival) in [
        (vec![9, 9, 9], 17),
        (vec![17; 12], 9),
        (vec![54; 20], 25),
        (vec![3, 3], 20),
        (vec![8; 10], 9),
        (vec![9, 16, 9, 54], 16),
        (vec![20, 3, 20], 3),
    ] {
        let mut store = PointStore::new();
        let mut block = ArrivalBlock::new();
        for (i, &dim) in rows.iter().enumerate() {
            let id = store.insert(i as u64 + 1, point(dim, 40.0 - i as f64));
            block.push(i as u64 + 1, id, Euclidean.block_coords(store.get(id)));
        }
        let p = point(arrival, 0.75);
        let res = store.resolver();
        for row in 0..block.len() {
            let d = Euclidean.dist(&p, res.get(block.id(row)));
            for r in [d, d.next_up(), d.next_down(), d / 2.0, 2.0 * d] {
                let mut hits = Vec::new();
                Euclidean.scan_within(&p, &block, res, r, |row| hits.push(row));
                let expected: Vec<usize> = (0..block.len())
                    .filter(|&i| Euclidean.within(&p, res.get(block.id(i)), r))
                    .collect();
                assert_eq!(
                    hits, expected,
                    "rows {rows:?}, arrival {arrival}, r = {r:e}"
                );
            }
        }
    }
}
