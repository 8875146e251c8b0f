//! The Jones–Nguyen–Nguyen fair k-center algorithm ("Fair k-Centers via
//! Maximum Matching", ICML 2020) — a 3-approximation in `O(nk)`-ish time.
//!
//! Outline (as implemented here):
//!
//! 1. Run Gonzalez for `k` pivots, recording the coverage radius of every
//!    prefix `P_j` (`coverage[j-1]` = clustering radius of `P_j`).
//! 2. Precompute `mind[p][i]` = distance from pivot `p` to the nearest
//!    point of color `i` (`O(nk)` total).
//! 3. For each prefix length `j`, find the smallest threshold `τ(j)`
//!    (over the candidate values `mind[p][i]`, `p < j`) such that the
//!    capacitated matching "pivot `p` may take color `i` iff
//!    `mind[p][i] ≤ τ`" assigns a color to *every* pivot of `P_j`.
//!    Replacing each pivot by its matched witness point yields a fair
//!    solution of radius at most `coverage[j-1] + τ(j)`. One incremental
//!    pass ([`prefix_thresholds`]) finds every `τ(j)`: it grows a single
//!    matching a pivot at a time and raises the threshold only while the
//!    new pivot finds no augmenting path.
//! 4. Take the first prefix with the best bound, match it once at its
//!    `τ(j)` for the witnesses, and evaluate the true radius over the
//!    instance (which can only be smaller).
//!
//! Why 3-approximate: let `r*` be the fair optimum and `j*` the largest
//! prefix whose pivots are pairwise `> 2r*` apart. Each pivot of `P_{j*}`
//! then lies within `r*` of a *distinct* optimal center, so assigning each
//! pivot its optimal center's color is a feasible matching with
//! `τ ≤ r*`; and the next Gonzalez pivot was within `2r*` of `P_{j*}`
//! (otherwise `P_{j*+1}` would still be pairwise `> 2r*`), hence
//! `coverage[j*-1] ≤ 2r*`. The returned minimum is therefore at most
//! `coverage + τ ≤ 3r*`.

use crate::{gonzalez_view, validate, FairCenterSolver, FairSolution, Instance, SolveError};
use fairsw_matching::{max_capacitated_matching, prefix_thresholds};
use fairsw_metric::{Colored, CoresetView, Metric};

/// The Jones fair-center solver (α = 3). Stateless; construct freely.
#[derive(Clone, Copy, Debug, Default)]
pub struct Jones;

impl Jones {
    /// Creates a new solver.
    pub fn new() -> Self {
        Jones
    }

    /// The algorithm proper, over an already-staged view (points +
    /// colors). Both entry points below land here: `solve` stages the
    /// instance slice, `solve_ids` gathers straight out of the arena —
    /// either way every candidate distance flows through the batched
    /// kernels and no intermediate point copies are materialized.
    fn solve_on_view<M: Metric>(
        &self,
        metric: &M,
        view: &CoresetView<M::Point>,
        caps: &[usize],
    ) -> Result<FairSolution<M::Point>, SolveError> {
        if view.is_empty() {
            return Err(SolveError::EmptyInstance);
        }
        if caps.is_empty() || caps.contains(&0) {
            return Err(SolveError::BadBudgets);
        }
        let k: usize = caps.iter().sum();
        let ncolors = caps.len();
        let colors = view.colors();
        debug_assert!(
            colors.iter().all(|&c| (c as usize) < ncolors),
            "point color out of range"
        );
        let g = gonzalez_view(metric, view, k);
        let npiv = g.pivots.len();

        // mind[p * ncolors + i] = (distance, witness index) of the
        // nearest point of color i to pivot p, flattened row-major into a
        // single allocation. One kernel call per pivot replaces the
        // pointwise O(nk) scan; the per-color argmin keeps the same
        // ascending-index tie-break.
        let mut mind = vec![(f64::INFINITY, usize::MAX); npiv * ncolors];
        let mut dbuf = vec![0.0f64; view.len()];
        let mut mind_buf: Vec<f64> = Vec::new();
        for (pi, &pividx) in g.pivots.iter().enumerate() {
            metric.dist_one_to_many(view.point(pividx), view, &mut dbuf);
            let row = &mut mind[pi * ncolors..(pi + 1) * ncolors];
            for (qi, &color) in colors.iter().enumerate() {
                let d = dbuf[qi];
                let slot = &mut row[color as usize];
                if d < slot.0 {
                    *slot = (d, qi);
                }
            }
        }

        // τ(j) for every prefix that some threshold matches perfectly,
        // then the first prefix with the smallest bound.
        let taus = prefix_thresholds(caps, npiv.min(k), |p, c| mind[p * ncolors + c].0);
        let mut best: Option<(f64, usize)> = None; // (bound, prefix length)
        for (j, &tau) in (1..).zip(&taus) {
            let bound = g.coverage[j - 1] + tau;
            if best.is_none_or(|(b, _)| bound < b) {
                best = Some((bound, j));
            }
        }
        let (_, j) = best.ok_or(SolveError::EmptyInstance)?;

        // The witnesses: one matching of the winning prefix at τ(j).
        // Distinct pivots can share a witness point (the same point may be
        // the closest representative of one color to two pivots); dedup by
        // index to keep the center set a set.
        let tau = taus[j - 1];
        let adj: Vec<Vec<usize>> = mind
            .chunks_exact(ncolors)
            .take(j)
            .map(|row| (0..ncolors).filter(|&c| row[c].0 <= tau).collect())
            .collect();
        let mut seen = std::collections::HashSet::new();
        let centers: Vec<Colored<M::Point>> = max_capacitated_matching(caps, &adj)
            .assigned
            .iter()
            .enumerate()
            .map(|(p, a)| mind[p * ncolors + a.expect("perfect")].1)
            .filter(|&i| seen.insert(i))
            .map(|i| Colored::new(view.point(i).clone(), colors[i]))
            .collect();

        // Radius over the already-staged view — no re-gather.
        crate::min_over_centers(
            metric,
            view,
            centers.iter().map(|c| &c.point),
            &mut dbuf,
            &mut mind_buf,
        );
        let mut radius: f64 = 0.0;
        for &d in &mind_buf {
            if d > radius {
                radius = d;
            }
        }
        Ok(FairSolution { centers, radius })
    }
}

impl<M: Metric> FairCenterSolver<M> for Jones {
    fn name(&self) -> &'static str {
        "Jones"
    }

    fn solve(&self, inst: &Instance<'_, M>) -> Result<FairSolution<M::Point>, SolveError> {
        validate(inst)?;
        // Stage the instance once; everything downstream runs on batched
        // kernels over this view.
        let mut view = CoresetView::new();
        view.gather_colored(inst.metric, inst.points.iter());
        self.solve_on_view(inst.metric, &view, inst.caps)
    }

    /// Gathers the coreset straight out of the arena into a staged view
    /// — one resolver pass, no intermediate `Vec<Colored<_>>` — and
    /// solves on it.
    fn solve_ids(
        &self,
        metric: &M,
        res: fairsw_metric::Resolver<'_, M::Point>,
        ids: &[fairsw_metric::ColoredId],
        caps: &[usize],
    ) -> Result<FairSolution<M::Point>, SolveError> {
        let mut view = CoresetView::new();
        view.gather_colored_ids(metric, res, ids.iter().copied());
        self.solve_on_view(metric, &view, caps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::exact_fair_center;
    use crate::testutil::{center_bits, pts1d, scatter};
    use fairsw_metric::{EuclidPoint, Euclidean, Manhattan};
    use proptest::prelude::*;

    /// The per-prefix threshold search that `solve_on_view` replaced: a
    /// binary search with from-scratch matchings for every prefix, and a
    /// witness matching for every improving one. Kept verbatim as the
    /// oracle, except that each probe asks the full matching whether it
    /// is left-perfect.
    mod reference {
        use crate::{gonzalez_view, FairSolution, SolveError};
        use fairsw_matching::max_capacitated_matching;
        use fairsw_metric::{Colored, CoresetView, Metric};

        pub(super) fn solve_on_view<M: Metric>(
            metric: &M,
            view: &CoresetView<M::Point>,
            caps: &[usize],
        ) -> Result<FairSolution<M::Point>, SolveError> {
            if view.is_empty() {
                return Err(SolveError::EmptyInstance);
            }
            if caps.is_empty() || caps.contains(&0) {
                return Err(SolveError::BadBudgets);
            }
            let k: usize = caps.iter().sum();
            let ncolors = caps.len();
            let colors = view.colors();
            let g = gonzalez_view(metric, view, k);
            let npiv = g.pivots.len();

            let mut mind = vec![(f64::INFINITY, usize::MAX); npiv * ncolors];
            let mut dbuf = vec![0.0f64; view.len()];
            let mut mind_buf: Vec<f64> = Vec::new();
            for (pi, &pividx) in g.pivots.iter().enumerate() {
                metric.dist_one_to_many(view.point(pividx), view, &mut dbuf);
                let row = &mut mind[pi * ncolors..(pi + 1) * ncolors];
                for (qi, &color) in colors.iter().enumerate() {
                    let d = dbuf[qi];
                    let slot = &mut row[color as usize];
                    if d < slot.0 {
                        *slot = (d, qi);
                    }
                }
            }

            let mut best: Option<(f64, Vec<usize>)> = None; // (bound, witness indices)
            let mut cands: Vec<f64> = Vec::new();
            let mut adj: Vec<Vec<usize>> = Vec::new();
            adj.resize_with(npiv, Vec::new);

            for j in 1..=npiv {
                if j > k {
                    break;
                }
                cands.extend(
                    mind[(j - 1) * ncolors..j * ncolors]
                        .iter()
                        .map(|&(d, _)| d)
                        .filter(|d| d.is_finite()),
                );
                cands.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                cands.dedup();
                if cands.is_empty() {
                    continue;
                }

                let mind = &mind;
                let feasible = |tau: f64, adj: &mut Vec<Vec<usize>>| -> bool {
                    for (p, row) in adj[..j].iter_mut().enumerate() {
                        row.clear();
                        row.extend(
                            mind[p * ncolors..(p + 1) * ncolors]
                                .iter()
                                .enumerate()
                                .filter(|(_, &(d, _))| d <= tau)
                                .map(|(c, _)| c),
                        );
                    }
                    max_capacitated_matching(caps, &adj[..j]).is_left_perfect()
                };

                if !feasible(*cands.last().expect("non-empty"), &mut adj) {
                    continue;
                }
                let (mut lo, mut hi) = (0usize, cands.len() - 1);
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if feasible(cands[mid], &mut adj) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                let tau = cands[lo];
                let cover = g.coverage[j - 1];
                let bound = cover + tau;
                if best.as_ref().is_none_or(|(b, _)| bound < *b) {
                    assert!(feasible(tau, &mut adj), "lo is feasible");
                    let m = max_capacitated_matching(caps, &adj[..j]);
                    let witnesses: Vec<usize> = m
                        .assigned
                        .iter()
                        .enumerate()
                        .map(|(p, a)| mind[p * ncolors + a.expect("perfect")].1)
                        .collect();
                    best = Some((bound, witnesses));
                }
            }

            let (_, witnesses) = best.ok_or(SolveError::EmptyInstance)?;
            let mut seen = std::collections::HashSet::new();
            let centers: Vec<Colored<M::Point>> = witnesses
                .iter()
                .filter(|&&i| seen.insert(i))
                .map(|&i| Colored::new(view.point(i).clone(), colors[i]))
                .collect();

            crate::min_over_centers(
                metric,
                view,
                centers.iter().map(|c| &c.point),
                &mut dbuf,
                &mut mind_buf,
            );
            let mut radius: f64 = 0.0;
            for &d in &mind_buf {
                if d > radius {
                    radius = d;
                }
            }
            Ok(FairSolution { centers, radius })
        }
    }

    /// `Jones` and the reference agree on the centers (order, colors and
    /// coordinates) and the radius bits, or fail alike.
    fn jones_matches_reference<M: Metric<Point = EuclidPoint>>(
        metric: &M,
        pts: &[Colored<EuclidPoint>],
        caps: &[usize],
    ) -> Result<(), TestCaseError> {
        let mut view = CoresetView::new();
        view.gather_colored(metric, pts.iter());
        let got = Jones.solve(&Instance::new(metric, pts, caps));
        let want = reference::solve_on_view(metric, &view, caps);
        match (got, want) {
            (Ok(got), Ok(want)) => {
                prop_assert_eq!(center_bits(&got.centers), center_bits(&want.centers));
                prop_assert_eq!(got.radius.to_bits(), want.radius.to_bits());
            }
            (got, want) => prop_assert_eq!(got.err(), want.err()),
        }
        Ok(())
    }

    #[test]
    fn trivial_single_point() {
        let pts = pts1d(&[(3.0, 0)]);
        let inst = Instance::new(&Euclidean, &pts, &[1]);
        let sol = Jones.solve(&inst).unwrap();
        assert_eq!(sol.centers.len(), 1);
        assert_eq!(sol.radius, 0.0);
    }

    #[test]
    fn respects_budgets() {
        let pts = scatter(120, 2, 3);
        let caps = [2usize, 1, 1];
        let inst = Instance::new(&Euclidean, &pts, &caps);
        let sol = Jones.solve(&inst).unwrap();
        assert!(inst.is_fair(&sol.centers), "unfair solution");
        assert!(sol.centers.len() <= 4);
        assert!(sol.radius.is_finite());
    }

    #[test]
    fn color_forced_substitution() {
        // Cluster at 0 has only color 0; cluster at 100 only color 1.
        // caps [1,1]: one center per cluster forced by colors; radius 1.
        let pts = pts1d(&[(0.0, 0), (1.0, 0), (100.0, 1), (101.0, 1)]);
        let inst = Instance::new(&Euclidean, &pts, &[1, 1]);
        let sol = Jones.solve(&inst).unwrap();
        assert!(sol.radius <= 1.0 + 1e-9, "radius {}", sol.radius);
    }

    #[test]
    fn missing_color_is_fine() {
        // Budget exists for color 1 but no color-1 points: solver must
        // still return a valid color-0-only solution.
        let pts = pts1d(&[(0.0, 0), (5.0, 0), (10.0, 0)]);
        let inst = Instance::new(&Euclidean, &pts, &[2, 5]);
        let sol = Jones.solve(&inst).unwrap();
        assert!(inst.is_fair(&sol.centers));
        assert!(sol.radius <= 5.0 + 1e-9);
    }

    #[test]
    fn empty_instance_errors() {
        let pts = pts1d(&[]);
        let inst = Instance::new(&Euclidean, &pts, &[1]);
        assert!(Jones.solve(&inst).is_err());
    }

    proptest! {
        // Enough cases to reach tied bounds, where the first prefix
        // must win.
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prefix_search_matches_the_reference(
            dim in 1usize..4,
            // Grid coordinates make duplicate points, zero distances and
            // tied thresholds; the continuous ones make general position.
            raw in proptest::collection::vec(
                (prop_oneof![(0u32..4).prop_map(f64::from), -3.0..3.0f64], 0u32..5),
                1..120,
            ),
            caps in proptest::collection::vec(1usize..4, 1..6),
            // Colors at or above `present` miss from the instance.
            present in 1u32..6,
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
                jones_matches_reference(&Euclidean, &pts, &caps)?;
                jones_matches_reference(&Manhattan, &pts, &caps)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn three_approximation(
            coords in proptest::collection::vec((-30.0..30.0f64, 0u32..3), 2..11),
            caps in proptest::collection::vec(1usize..3, 3),
        ) {
            let pts = pts1d(
                &coords.iter().map(|&(x, c)| (x, c)).collect::<Vec<_>>());
            let inst = Instance::new(&Euclidean, &pts, &caps);
            let sol = Jones.solve(&inst).unwrap();
            prop_assert!(inst.is_fair(&sol.centers));
            let opt = exact_fair_center(&inst).unwrap();
            prop_assert!(
                sol.radius <= 3.0 * opt.radius + 1e-9,
                "jones {} vs opt {}", sol.radius, opt.radius
            );
        }
    }
}
