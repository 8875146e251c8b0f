//! Robust (outlier-tolerant) center selection — the paper's declared
//! future work ("the extension of our algorithms to the robust variant of
//! fair center, tolerating a fixed number of outliers").
//!
//! Two solvers:
//!
//! * [`robust_kcenter`] — unconstrained k-center with `z` outliers, the
//!   classical greedy of Charikar–Khuller–Mount–Narasimhan (SODA 2001):
//!   for a radius guess `r`, repeatedly pick the point whose `r`-ball
//!   covers the most uncovered points and mark its expanded `3r`-ball
//!   covered; after `k` picks, `r` is feasible iff at most `z` points
//!   remain. The CKMN lemma guarantees feasibility for **every**
//!   `r ≥ OPT_z`, so binary search over the pairwise distances never
//!   overshoots the first candidate above `OPT_z` and the result is a
//!   3-approximation of the optimal radius excluding the `z` worst
//!   points.
//! * [`RobustFair`] — fair center with `z` outliers, structured like the
//!   Jones algorithm so that each search stage is *monotone* (a naive
//!   joint radius search is not — the color matching can fail on a band
//!   of mid-range radii while succeeding below and above it):
//!   1. heads and outliers come from `robust_kcenter` (sound by CKMN);
//!   2. the smallest threshold `τ` such that the heads admit a perfect
//!      capacitated color matching using *inlier* witnesses within `τ`
//!      of each head — the adjacency grows with `τ`, so perfect-matching
//!      feasibility is monotone, and the last entry of
//!      [`prefix_thresholds`] is that `τ`; one matching at `τ` then
//!      picks the witnesses;
//!   3. each head is replaced by its matched witness. Inliers covered
//!      within `3r` of a head are then within `3r + τ` of a center.
//!
//! If even `τ = ∞` admits no perfect matching (a color class is absent
//! among the inliers), unmatched heads are dropped: the answer stays
//! fair and feasible, with coverage degrading gracefully. Fairness is
//! exact and at most `z` points are excluded; the radius guarantee is
//! bicriteria in the spirit of Amagata (AISTATS 2024) — the
//! exact-constant LP machinery is out of scope.
//!
//! Cost: the head search keeps the `n × n` pairwise matrix from the pass
//! that builds its candidate radii, so the metric runs `n²` times plus one
//! kernel row per head for the witnesses and the inlier radius, and each
//! of the ~`log₂(n²/2)` probes costs `O(n²)` comparisons. The matrix and
//! the `n²/2` sorted candidates peak at `1.5·n²` `f64`s: 3 MB at
//! `n = 500`. Bounding this for much larger instances is out of scope.
//! In an `Approx` mode the coverage counts come from the relaxed kernel
//! rows; the reported radius is re-ranked exactly.

use crate::{validate, FairCenterSolver, FairSolution, Instance, SolveError};
use fairsw_matching::{max_capacitated_matching, prefix_thresholds};
use fairsw_metric::{Colored, CoresetView, Metric};

/// Result of a robust (outlier-tolerant) clustering call.
#[derive(Clone, Debug)]
pub struct RobustSolution<P> {
    /// The selected centers.
    pub centers: Vec<Colored<P>>,
    /// The covering radius over the *inliers* (all points except the
    /// `outliers` listed below).
    pub radius: f64,
    /// Indices (into the instance's points) the solution declares
    /// outliers; at most the requested `z`.
    pub outliers: Vec<usize>,
}

/// For a radius guess `r`: greedy max-coverage disk selection over the
/// symmetric `n × n` pairwise matrix `dist` (row-major). Returns (head
/// indices, uncovered indices): each round picks the point whose `r`-ball
/// covers the most uncovered points (the lowest index wins ties) and
/// marks its expanded `3r`-ball covered; the uncovered list stays in
/// ascending order.
///
/// `cnt[i]` holds the number of uncovered points within `r` of `i`. It is
/// counted once per probe, then kept current: when `j` becomes covered,
/// every `i` within `r` of `j` loses one. That update reads row `j` as
/// column `j`, which is why the matrix must be symmetric bit for bit.
fn greedy_disks(
    dist: &[f64],
    n: usize,
    k: usize,
    r: f64,
    cnt: &mut Vec<usize>,
) -> (Vec<usize>, Vec<usize>) {
    cnt.clear();
    cnt.extend(
        dist.chunks_exact(n)
            .map(|row| row.iter().filter(|&&d| d <= r).count()),
    );
    let mut heads = Vec::with_capacity(k);
    let mut uncovered: Vec<usize> = (0..n).collect();
    for _ in 0..k {
        let (mut head, mut gain) = (0, 0);
        for (i, &c) in cnt.iter().enumerate() {
            if c > gain {
                (head, gain) = (i, c);
            }
        }
        if gain == 0 {
            break; // every remaining point is isolated beyond r
        }
        heads.push(head);
        // Expanded ball: mark everything within 3r of the head covered.
        let near = &dist[head * n..(head + 1) * n];
        uncovered.retain(|&j| {
            if near[j] > 3.0 * r {
                return true;
            }
            for (c, &d) in cnt.iter_mut().zip(&dist[j * n..(j + 1) * n]) {
                *c -= usize::from(d <= r);
            }
            false
        });
    }
    (heads, uncovered)
}

/// Unconstrained k-center with `z` outliers (Charikar et al. greedy,
/// 3-approximation). Returns the chosen center indices, the radius over
/// the inliers, and the declared outliers.
///
/// # Panics
/// Panics on an empty input (callers check emptiness; for the library
/// entry point use [`RobustFair`] which returns a `SolveError`).
pub fn robust_kcenter<M: Metric>(
    metric: &M,
    points: &[Colored<M::Point>],
    k: usize,
    z: usize,
) -> RobustSolution<M::Point> {
    assert!(!points.is_empty(), "robust_kcenter on empty input");
    let mut view = CoresetView::new();
    view.gather_colored(metric, points.iter());
    let (heads, outliers, _) = robust_heads(metric, &view, k, z);
    let centers: Vec<Colored<M::Point>> = heads.iter().map(|&i| points[i].clone()).collect();
    let radius = inlier_radius(
        metric,
        &view,
        &centers,
        &outlier_mask(view.len(), &outliers),
    );
    RobustSolution {
        centers,
        radius,
        outliers,
    }
}

/// The shared head-selection stage over a staged view: binary search the
/// smallest feasible radius, returning (heads, outliers, radius).
///
/// The candidate pass keeps its kernel rows as the `n × n` matrix that
/// answers every probe. The matrix is symmetric by construction (the
/// upper triangle of row `i` is mirrored into column `i`), because
/// [`Metric`] does not promise bitwise-symmetric kernel rows.
fn robust_heads<M: Metric>(
    metric: &M,
    view: &CoresetView<M::Point>,
    k: usize,
    z: usize,
) -> (Vec<usize>, Vec<usize>, f64) {
    let n = view.len();
    let mut dist = vec![0.0f64; n * n];
    let cands = crate::candidate_radii(metric, view, |i, row| {
        dist[i * n + i..(i + 1) * n].copy_from_slice(&row[i..]);
        for (j, &d) in row.iter().enumerate().skip(i + 1) {
            dist[j * n + i] = d;
        }
    });

    // The count buffer is shared across every feasibility test.
    let mut cnt = Vec::with_capacity(n);
    let mut feasible = |r: f64| -> Option<(Vec<usize>, Vec<usize>)> {
        let (heads, uncovered) = greedy_disks(&dist, n, k, r, &mut cnt);
        (uncovered.len() <= z).then_some((heads, uncovered))
    };

    let (mut lo, mut hi) = (0usize, cands.len() - 1);
    debug_assert!(feasible(cands[hi]).is_some(), "r = dmax must be feasible");
    let mut last_feasible = None;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if let Some(found) = feasible(cands[mid]) {
            hi = mid;
            last_feasible = Some(found);
        } else {
            lo = mid + 1;
        }
    }
    // The last feasible probe ran at cands[hi]; none ran when hi never moved.
    let (heads, outliers) =
        last_feasible.unwrap_or_else(|| feasible(cands[hi]).expect("r = dmax is feasible"));
    (heads, outliers, cands[lo])
}

/// `is_out[i]` iff staged point `i` is listed in `outliers`.
fn outlier_mask(n: usize, outliers: &[usize]) -> Vec<bool> {
    let mut is_out = vec![false; n];
    for &i in outliers {
        is_out[i] = true;
    }
    is_out
}

/// Covering radius over the staged points not marked in `is_out`: one
/// kernel call per center merged into running minima, then a maximum
/// over the inlier rows.
fn inlier_radius<M: Metric>(
    metric: &M,
    view: &CoresetView<M::Point>,
    centers: &[Colored<M::Point>],
    is_out: &[bool],
) -> f64 {
    let (mut dbuf, mut mind) = (Vec::new(), Vec::new());
    crate::min_over_centers(
        metric,
        view,
        centers.iter().map(|c| &c.point),
        &mut dbuf,
        &mut mind,
    );
    let mut r: f64 = 0.0;
    for (&d, &out) in mind.iter().zip(is_out) {
        if !out && d > r {
            r = d;
        }
    }
    r
}

/// Fair center with `z` outliers (robust heads + monotone color-matching
/// threshold search).
#[derive(Clone, Copy, Debug)]
pub struct RobustFair {
    /// Number of tolerated outliers.
    pub z: usize,
}

impl RobustFair {
    /// Creates a solver tolerating `z` outliers.
    pub fn new(z: usize) -> Self {
        RobustFair { z }
    }

    /// [`solve_robust`](Self::solve_robust) over colored arena handles —
    /// the sliding-window `Query` entry point. Payloads are resolved out
    /// of the point store once, here; the returned outlier indices still
    /// index into `ids`.
    pub fn solve_robust_ids<M: Metric>(
        &self,
        metric: &M,
        res: fairsw_metric::Resolver<'_, M::Point>,
        ids: &[fairsw_metric::ColoredId],
        caps: &[usize],
    ) -> Result<RobustSolution<M::Point>, SolveError> {
        let points: Vec<Colored<M::Point>> = ids
            .iter()
            .map(|c| Colored::new(res.get(c.point).clone(), c.color))
            .collect();
        self.solve_robust(&Instance::new(metric, &points, caps))
    }

    /// Solves the robust fair instance, reporting centers, inlier radius
    /// and the declared outliers.
    pub fn solve_robust<M: Metric>(
        &self,
        inst: &Instance<'_, M>,
    ) -> Result<RobustSolution<M::Point>, SolveError> {
        validate(inst)?;
        let k = inst.k();
        let ncolors = inst.num_colors();
        // Stage the instance once; head selection, witness tables and
        // the inlier radius all run batched kernels over this view.
        let mut view = CoresetView::new();
        view.gather_colored(inst.metric, inst.points.iter());

        // Stage 1: robust heads + outliers (CKMN, sound binary search).
        let (heads, outliers, _r) = robust_heads(inst.metric, &view, k, self.z);
        if heads.is_empty() {
            // Degenerate: k = 0 or everything isolated; one center
            // (first point) is the best fair answer available here.
            return Ok(RobustSolution {
                centers: vec![inst.points[0].clone()],
                radius: inst.radius_of(std::slice::from_ref(&inst.points[0])),
                outliers: Vec::new(),
            });
        }
        let is_out = outlier_mask(view.len(), &outliers);

        // Stage 2: nearest *inlier* witness of each color per head —
        // one kernel call per head, outliers skipped in the merge, with
        // the scalar scan's ascending-index tie-break per (head, color).
        let mut mind = vec![vec![(f64::INFINITY, usize::MAX); ncolors]; heads.len()];
        let mut dbuf = vec![0.0f64; view.len()];
        for (hi, &h) in heads.iter().enumerate() {
            inst.metric
                .dist_one_to_many(view.point(h), &view, &mut dbuf);
            for (qi, q) in inst.points.iter().enumerate() {
                if is_out[qi] {
                    continue;
                }
                let d = dbuf[qi];
                let slot = &mut mind[hi][q.color as usize];
                if d < slot.0 {
                    *slot = (d, qi);
                }
            }
        }

        // The smallest threshold at which every head matches; perfect
        // matching is monotone in τ. If none does, the loosest threshold
        // admits every finite witness (as the largest finite distance
        // would), and stage 3 drops the heads left unmatched.
        let taus = prefix_thresholds(inst.caps, heads.len(), |h, c| mind[h][c].0);
        let tau = if taus.len() == heads.len() {
            taus[taus.len() - 1]
        } else {
            f64::MAX
        };
        let adj: Vec<Vec<usize>> = mind
            .iter()
            .map(|row| (0..ncolors).filter(|&c| row[c].0 <= tau).collect())
            .collect();
        let matching = max_capacitated_matching(inst.caps, &adj);

        // Stage 3: replace heads by witnesses; drop unmatched heads when
        // no perfect matching exists at any threshold.
        let mut seen = std::collections::HashSet::new();
        let centers: Vec<Colored<M::Point>> = matching
            .assigned
            .iter()
            .enumerate()
            .filter_map(|(h, a)| a.map(|c| mind[h][c].1))
            .filter(|&w| w != usize::MAX && seen.insert(w))
            .map(|w| inst.points[w].clone())
            .collect();
        if centers.is_empty() {
            // All inlier colors missing (everything is an outlier?):
            // return the first point, declaring no outliers.
            return Ok(RobustSolution {
                centers: vec![inst.points[0].clone()],
                radius: inst.radius_of(std::slice::from_ref(&inst.points[0])),
                outliers: Vec::new(),
            });
        }
        let radius = inlier_radius(inst.metric, &view, &centers, &is_out);
        Ok(RobustSolution {
            centers,
            radius,
            outliers,
        })
    }
}

impl<M: Metric> FairCenterSolver<M> for RobustFair {
    fn name(&self) -> &'static str {
        "RobustFair"
    }

    /// Solves and reports the *inlier* radius (the `FairSolution` shape
    /// has no outlier slot; use [`RobustFair::solve_robust`] for them).
    fn solve(&self, inst: &Instance<'_, M>) -> Result<FairSolution<M::Point>, SolveError> {
        let sol = self.solve_robust(inst)?;
        Ok(FairSolution {
            centers: sol.centers,
            radius: sol.radius,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{center_bits, pts1d};
    use fairsw_metric::{
        Angular, Chebyshev, EuclidPoint, Euclidean, Exactness, Manhattan, Relaxed,
    };
    use proptest::prelude::*;

    /// Earlier versions kept verbatim as oracles: head selection without
    /// the pairwise matrix (kernel rows per probe, scalar distances once
    /// most points are covered), which [`super::robust_heads`] must
    /// reproduce, and the stage-2 threshold search by binary search with
    /// a rebuilt adjacency per probe and a hash set of outliers, which
    /// [`RobustFair::solve_robust`] must reproduce. Each probe there asks
    /// the full matching whether it is left-perfect.
    mod reference {
        use crate::{validate, Instance, RobustSolution, SolveError};
        use fairsw_matching::max_capacitated_matching;
        use fairsw_metric::{Colored, CoresetView, Metric};

        fn greedy_disks<M: Metric>(
            metric: &M,
            view: &CoresetView<M::Point>,
            k: usize,
            r: f64,
            dbuf: &mut Vec<f64>,
        ) -> (Vec<usize>, Vec<usize>) {
            let n = view.len();
            let mut covered = vec![false; n];
            let mut heads = Vec::with_capacity(k);
            let mut uncovered: Vec<usize> = (0..n).collect();
            dbuf.clear();
            dbuf.resize(n, 0.0);
            for _ in 0..k {
                // Pick the point whose r-ball covers the most uncovered points.
                // A full kernel row per candidate only pays while a decent
                // fraction of points is still uncovered; past that, scalar
                // distances to the uncovered set cost strictly less.
                let dense = uncovered.len() * 4 >= n;
                let mut best = (usize::MAX, 0usize);
                for i in 0..n {
                    let cnt = if dense {
                        metric.dist_one_to_many(view.point(i), view, dbuf);
                        uncovered.iter().filter(|&&j| dbuf[j] <= r).count()
                    } else {
                        let p = view.point(i);
                        uncovered
                            .iter()
                            .filter(|&&j| metric.dist(p, view.point(j)) <= r)
                            .count()
                    };
                    if best.0 == usize::MAX || cnt > best.1 {
                        best = (i, cnt);
                    }
                }
                let (head, gain) = best;
                if gain == 0 {
                    break; // every remaining point is isolated beyond r
                }
                heads.push(head);
                // Expanded ball: mark everything within 3r of the head covered.
                metric.dist_one_to_many(view.point(head), view, dbuf);
                uncovered.retain(|&j| {
                    let keep = dbuf[j] > 3.0 * r;
                    if !keep {
                        covered[j] = true;
                    }
                    keep
                });
            }
            (heads, uncovered)
        }

        pub(super) fn robust_heads<M: Metric>(
            metric: &M,
            view: &CoresetView<M::Point>,
            k: usize,
            z: usize,
        ) -> (Vec<usize>, Vec<usize>, f64) {
            let n = view.len();
            let mut cands = vec![0.0f64];
            let mut dbuf = vec![0.0f64; n];
            for i in 0..n {
                metric.dist_one_to_many(view.point(i), view, &mut dbuf);
                cands.extend_from_slice(&dbuf[(i + 1)..]);
            }
            cands.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            cands.dedup();

            // The probe buffer is shared across every feasibility test.
            let mut feasible = |r: f64| -> Option<(Vec<usize>, Vec<usize>)> {
                let (heads, uncovered) = greedy_disks(metric, view, k, r, &mut dbuf);
                (uncovered.len() <= z).then_some((heads, uncovered))
            };

            let (mut lo, mut hi) = (0usize, cands.len() - 1);
            debug_assert!(feasible(cands[hi]).is_some(), "r = dmax must be feasible");
            while lo < hi {
                let mid = (lo + hi) / 2;
                if feasible(cands[mid]).is_some() {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            let (heads, outliers) = feasible(cands[lo]).expect("lo feasible");
            (heads, outliers, cands[lo])
        }

        fn inlier_radius<M: Metric>(
            metric: &M,
            view: &CoresetView<M::Point>,
            centers: &[Colored<M::Point>],
            outliers: &[usize],
        ) -> f64 {
            let out: std::collections::HashSet<usize> = outliers.iter().copied().collect();
            let (mut dbuf, mut mind) = (Vec::new(), Vec::new());
            crate::min_over_centers(
                metric,
                view,
                centers.iter().map(|c| &c.point),
                &mut dbuf,
                &mut mind,
            );
            let mut r: f64 = 0.0;
            for (i, &d) in mind.iter().enumerate() {
                if out.contains(&i) {
                    continue;
                }
                if d > r {
                    r = d;
                }
            }
            r
        }

        pub(super) fn solve_robust<M: Metric>(
            z: usize,
            inst: &Instance<'_, M>,
        ) -> Result<RobustSolution<M::Point>, SolveError> {
            validate(inst)?;
            let k = inst.k();
            let ncolors = inst.num_colors();
            let mut view = CoresetView::new();
            view.gather_colored(inst.metric, inst.points.iter());

            let (heads, outliers, _r) = super::super::robust_heads(inst.metric, &view, k, z);
            if heads.is_empty() {
                return Ok(RobustSolution {
                    centers: vec![inst.points[0].clone()],
                    radius: inst.radius_of(std::slice::from_ref(&inst.points[0])),
                    outliers: Vec::new(),
                });
            }
            let out_set: std::collections::HashSet<usize> = outliers.iter().copied().collect();

            let mut mind = vec![vec![(f64::INFINITY, usize::MAX); ncolors]; heads.len()];
            let mut dbuf = vec![0.0f64; view.len()];
            for (hi, &h) in heads.iter().enumerate() {
                inst.metric
                    .dist_one_to_many(view.point(h), &view, &mut dbuf);
                for (qi, q) in inst.points.iter().enumerate() {
                    if out_set.contains(&qi) {
                        continue;
                    }
                    let d = dbuf[qi];
                    let slot = &mut mind[hi][q.color as usize];
                    if d < slot.0 {
                        *slot = (d, qi);
                    }
                }
            }

            let mut taus: Vec<f64> = mind
                .iter()
                .flat_map(|row| row.iter().map(|&(d, _)| d))
                .filter(|d| d.is_finite())
                .collect();
            taus.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            taus.dedup();

            let adj_at = |tau: f64| -> Vec<Vec<usize>> {
                mind.iter()
                    .map(|row| {
                        row.iter()
                            .enumerate()
                            .filter(|(_, &(d, _))| d <= tau)
                            .map(|(c, _)| c)
                            .collect()
                    })
                    .collect()
            };
            let feasible =
                |tau: f64| max_capacitated_matching(inst.caps, &adj_at(tau)).is_left_perfect();
            let matching_at = |tau: f64| max_capacitated_matching(inst.caps, &adj_at(tau));

            let assignment = if taus.is_empty() {
                None
            } else if feasible(*taus.last().expect("non-empty")) {
                let (mut lo, mut hi) = (0usize, taus.len() - 1);
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if feasible(taus[mid]) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                Some(matching_at(taus[lo]))
            } else {
                None
            };

            let matching =
                assignment.unwrap_or_else(|| matching_at(taus.last().copied().unwrap_or(0.0)));
            let mut seen = std::collections::HashSet::new();
            let centers: Vec<Colored<M::Point>> = matching
                .assigned
                .iter()
                .enumerate()
                .filter_map(|(h, a)| a.map(|c| mind[h][c].1))
                .filter(|&w| w != usize::MAX && seen.insert(w))
                .map(|w| inst.points[w].clone())
                .collect();
            if centers.is_empty() {
                return Ok(RobustSolution {
                    centers: vec![inst.points[0].clone()],
                    radius: inst.radius_of(std::slice::from_ref(&inst.points[0])),
                    outliers: Vec::new(),
                });
            }
            let radius = inlier_radius(inst.metric, &view, &centers, &outliers);
            Ok(RobustSolution {
                centers,
                radius,
                outliers,
            })
        }
    }

    /// `RobustFair` and the reference agree on the centers (order, colors
    /// and coordinates), the radius bits and the outliers, or fail alike.
    fn robust_fair_matches_reference<M: Metric<Point = EuclidPoint>>(
        metric: &M,
        pts: &[Colored<EuclidPoint>],
        caps: &[usize],
        z: usize,
    ) -> Result<(), TestCaseError> {
        let inst = Instance::new(metric, pts, caps);
        match (
            RobustFair::new(z).solve_robust(&inst),
            reference::solve_robust(z, &inst),
        ) {
            (Ok(got), Ok(want)) => {
                prop_assert_eq!(center_bits(&got.centers), center_bits(&want.centers));
                prop_assert_eq!(got.radius.to_bits(), want.radius.to_bits());
                prop_assert_eq!(got.outliers, want.outliers);
            }
            (got, want) => prop_assert_eq!(got.err(), want.err()),
        }
        Ok(())
    }

    /// Both head selections over the same staged points must agree index
    /// for index, radius included.
    fn heads_match_reference<M: Metric<Point = EuclidPoint>>(
        metric: &M,
        pts: &[EuclidPoint],
        k: usize,
        z: usize,
    ) -> Result<(), TestCaseError> {
        let mut view = CoresetView::new();
        view.gather(metric, pts.iter());
        let (heads, outliers, r) = robust_heads(metric, &view, k, z);
        let (want_heads, want_outliers, want_r) = reference::robust_heads(metric, &view, k, z);
        prop_assert_eq!(heads, want_heads);
        prop_assert_eq!(outliers, want_outliers);
        prop_assert_eq!(r.to_bits(), want_r.to_bits());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn stage_two_matches_the_reference(
            dim in 1usize..4,
            raw in collection::vec(
                (prop_oneof![(0u32..4).prop_map(f64::from), -3.0..3.0f64], 0u32..5),
                1..90,
            ),
            caps in collection::vec(1usize..4, 1..6),
            // Colors at or above `present` miss from the instance, so no
            // threshold matches every head and the fallback runs.
            present in 1u32..6,
            z in 0usize..30,
        ) {
            let pts: Vec<Colored<EuclidPoint>> = raw
                .chunks_exact(dim)
                .map(|c| {
                    let coords: Vec<f64> = c.iter().map(|&(x, _)| x).collect();
                    let color = c[0].1 % present.min(caps.len() as u32);
                    Colored::new(EuclidPoint::new(coords), color)
                })
                .collect();
            if !pts.is_empty() {
                robust_fair_matches_reference(&Euclidean, &pts, &caps, z)?;
                robust_fair_matches_reference(&Chebyshev, &pts, &caps, z)?;
            }
        }

        #[test]
        fn matrix_heads_match_the_reference_in_exact_mode(
            dim in 1usize..4,
            // Grid coordinates make duplicate points, zero distances and
            // tied counts; the continuous ones make general position.
            coords in collection::vec(
                prop_oneof![(0u32..4).prop_map(f64::from), -3.0..3.0f64],
                1..90,
            ),
            k in 1usize..12,
            z in 0usize..40,
        ) {
            let pts: Vec<EuclidPoint> = coords
                .chunks_exact(dim)
                .map(|c| EuclidPoint::new(c.to_vec()))
                .collect();
            if !pts.is_empty() {
                heads_match_reference(&Euclidean, &pts, k, z)?;
                heads_match_reference(&Manhattan, &pts, k, z)?;
                heads_match_reference(&Chebyshev, &pts, k, z)?;
                heads_match_reference(&Angular, &pts, k, z)?;
            }
        }
    }

    /// Kernel rows that are not bitwise symmetric: each column's distance
    /// is scaled by up to 3 ulps, as per-lane rounding might do.
    #[derive(Clone, Copy, Debug)]
    struct Lopsided;

    impl Metric for Lopsided {
        type Point = EuclidPoint;

        fn dist(&self, a: &EuclidPoint, b: &EuclidPoint) -> f64 {
            Euclidean.dist(a, b)
        }

        fn dist_one_to_many(
            &self,
            q: &EuclidPoint,
            view: &CoresetView<EuclidPoint>,
            out: &mut [f64],
        ) {
            for (j, (o, p)) in out.iter_mut().zip(view.points()).enumerate() {
                *o = Euclidean.dist(q, p) * (1.0 + f64::EPSILON * (j % 4) as f64);
            }
        }
    }

    #[test]
    fn asymmetric_kernel_rows_never_underflow_a_count() {
        // Read raw, row j and column j of these rows disagree near a
        // probe radius, and a covered point would decrement counts it
        // never added (a panic under debug assertions).
        let golden = 0.618_033_988_749_895_f64;
        let pts = pts1d(
            &(0..60u32)
                .map(|i| ((f64::from(i) * golden).fract() * 10.0, 0))
                .collect::<Vec<_>>(),
        );
        for k in 1..5 {
            for z in [0usize, 3, 10] {
                assert!(robust_kcenter(&Lopsided, &pts, k, z).outliers.len() <= z);
            }
        }
    }

    #[test]
    fn approx_mirror_robust_fair_stays_fair_and_within_budget() {
        // Under the f32 mirror the staged kernels disagree with scalar
        // `dist` on most pairs; the solver counts from its symmetric
        // matrix alone, so no coverage count can underflow (that would
        // panic here, under debug assertions).
        let metric =
            Relaxed::new(Euclidean, Exactness::Approx { epsilon: 0.05 }).with_compact_staging(true);
        let golden = 0.618_033_988_749_895_f64;
        let pts: Vec<Colored<EuclidPoint>> = (0..300u32)
            .map(|i| {
                let t = f64::from(i);
                let p = EuclidPoint::new(vec![
                    (t * golden).fract() * 97.0,
                    (t * golden * golden).fract() * 89.0,
                ]);
                Colored::new(p, i % 3)
            })
            .collect();
        let caps = [2usize, 2, 1];
        let inst = Instance::new(&metric, &pts, &caps);
        for z in [0usize, 7, 40] {
            let sol = RobustFair::new(z).solve_robust(&inst).unwrap();
            assert!(!sol.centers.is_empty());
            assert!(inst.is_fair(&sol.centers), "z = {z}: unfair centers");
            assert!(
                sol.outliers.len() <= z,
                "z = {z}: {} outliers",
                sol.outliers.len()
            );
        }
    }

    #[test]
    fn robust_kcenter_ignores_planted_outliers() {
        // Two tight clusters plus 2 far outliers. k=2, z=2: the radius
        // must reflect the clusters (1.0), not the outliers.
        let pts = pts1d(&[
            (0.0, 0),
            (1.0, 0),
            (100.0, 0),
            (101.0, 0),
            (1e6, 0),
            (-1e6, 0),
        ]);
        let sol = robust_kcenter(&Euclidean, &pts, 2, 2);
        assert!(sol.radius <= 3.0, "radius {}", sol.radius);
        assert!(sol.outliers.len() <= 2);
        // Without outlier tolerance the radius explodes.
        let strict = robust_kcenter(&Euclidean, &pts, 2, 0);
        assert!(strict.radius > 1e5);
    }

    #[test]
    fn robust_kcenter_zero_z_equals_plain_flavor() {
        let pts = pts1d(&[(0.0, 0), (10.0, 0), (20.0, 0)]);
        let sol = robust_kcenter(&Euclidean, &pts, 3, 0);
        assert_eq!(sol.radius, 0.0);
        assert!(sol.outliers.is_empty());
    }

    #[test]
    fn robust_fair_respects_budgets_and_drops_outliers() {
        // Clusters: color 0 at ~0, color 1 at ~100; outlier far away.
        let pts = pts1d(&[
            (0.0, 0),
            (0.5, 0),
            (1.0, 1),
            (100.0, 1),
            (100.5, 1),
            (101.0, 0),
            (5e5, 0),
        ]);
        let caps = [1usize, 1];
        let inst = Instance::new(&Euclidean, &pts, &caps);
        let sol = RobustFair::new(1).solve_robust(&inst).unwrap();
        assert!(inst.is_fair(&sol.centers), "unfair robust solution");
        assert!(sol.outliers.len() <= 1);
        assert!(sol.radius <= 3.5, "radius {}", sol.radius);
    }

    #[test]
    fn robust_fair_survives_mid_band_matching_failures() {
        // The regression that motivated the two-stage design: two
        // single-color sites plus a far glitch cluster whose points
        // alternate colors. A joint radius search gets stuck above the
        // glitch spacing; the two-stage solver must return the site
        // geometry (radius ≈ site spread, not ≈ glitch spacing).
        let mut pts = Vec::new();
        for i in 0..40u64 {
            let c = (i % 2) as u32;
            let base = if c == 0 { 0.0 } else { 120.0 };
            pts.push(fairsw_metric::Colored::new(
                fairsw_metric::EuclidPoint::new(vec![base + (i as f64 * 0.618).fract() * 5.0, 0.0]),
                c,
            ));
        }
        for g in 0..9u64 {
            pts.push(fairsw_metric::Colored::new(
                fairsw_metric::EuclidPoint::new(vec![9e5 + 211.0 * g as f64, -7e5]),
                (g % 2) as u32,
            ));
        }
        let caps = [2usize, 2];
        let inst = Instance::new(&Euclidean, &pts, &caps);
        let sol = RobustFair::new(12).solve_robust(&inst).unwrap();
        assert!(inst.is_fair(&sol.centers));
        assert!(
            sol.radius <= 20.0,
            "mid-band failure: radius {} should reflect the 5-wide sites",
            sol.radius
        );
    }

    #[test]
    fn robust_fair_zero_outliers_close_to_jones() {
        let pts = crate::testutil::scatter(80, 2, 3);
        let caps = [2usize, 1, 1];
        let inst = Instance::new(&Euclidean, &pts, &caps);
        let robust = RobustFair::new(0).solve_robust(&inst).unwrap();
        let jones = crate::Jones.solve(&inst).unwrap();
        assert!(inst.is_fair(&robust.centers));
        // Both are constant-factor approximations of the same optimum.
        assert!(robust.radius <= 4.0 * jones.radius + 1e-9);
        assert!(jones.radius <= 4.0 * robust.radius + 1e-9);
    }

    #[test]
    fn robust_fair_via_trait() {
        let pts = pts1d(&[(0.0, 0), (1.0, 1), (2.0, 0), (1e4, 1)]);
        let caps = [1usize, 1];
        let inst = Instance::new(&Euclidean, &pts, &caps);
        let sol =
            <RobustFair as FairCenterSolver<Euclidean>>::solve(&RobustFair::new(1), &inst).unwrap();
        assert!(inst.is_fair(&sol.centers));
        assert!(sol.radius <= 2.0, "inlier radius {}", sol.radius);
    }

    #[test]
    fn missing_color_class_degrades_gracefully() {
        // Budgets for two colors but only color 0 exists: unmatched heads
        // are dropped; the result is fair and non-empty.
        let pts = pts1d(&[(0.0, 0), (50.0, 0), (100.0, 0)]);
        let caps = [1usize, 2];
        let inst = Instance::new(&Euclidean, &pts, &caps);
        let sol = RobustFair::new(0).solve_robust(&inst).unwrap();
        assert!(!sol.centers.is_empty());
        assert!(inst.is_fair(&sol.centers));
    }

    #[test]
    fn empty_instance_errors() {
        let pts = pts1d(&[]);
        let inst = Instance::new(&Euclidean, &pts, &[1]);
        assert!(RobustFair::new(1).solve_robust(&inst).is_err());
    }
}
