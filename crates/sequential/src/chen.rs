//! The Chen–Li–Liang–Wang matroid-center algorithm (Algorithmica 2016)
//! specialised to the partition matroid — a 3-approximation.
//!
//! For a radius guess `r` the classical construction is:
//!
//! 1. scan the points, keeping a greedy set of **heads** pairwise `> 2r`
//!    (every point is within `2r` of some head by maximality); if more
//!    than `k` heads emerge, `r < OPT` and the guess is infeasible;
//! 2. ask whether each head's ball `B(head, r)` can be served by a point
//!    of a distinct color slot — a capacitated matching between heads and
//!    colors (for the partition matroid, matroid intersection degenerates
//!    to exactly this);
//! 3. if the matching covers every head, the witness points form a fair
//!    solution of radius `≤ 2r + r = 3r`; and for any `r ≥ OPT` the
//!    matching is guaranteed to exist (each head is within `OPT ≤ r` of a
//!    distinct optimal center).
//!
//! The minimal feasible `r` is found by binary search. Following the
//! original paper we search the exact candidate set of all pairwise
//! distances when the instance is small; for larger instances
//! materialising the `O(n²)` distances is prohibitive (at the paper's
//! 500k-point windows it would be terabytes), so we binary-search radius
//! *values* to a relative tolerance instead. This solver is
//! deliberately the slow, high-quality baseline of the evaluation.

use crate::{validate, FairCenterSolver, FairSolution, Instance, SolveError};
use fairsw_matching::max_capacitated_matching;
use fairsw_metric::{Colored, CoresetView, Metric};

/// The ChenEtAl matroid-center solver (α = 3).
#[derive(Clone, Copy, Debug)]
pub struct ChenEtAl {
    /// Up to this many points the binary search runs over the exact set
    /// of pairwise distances; above it, over radius values.
    pub exact_threshold: usize,
    /// Relative tolerance of the value binary search.
    pub value_tolerance: f64,
}

impl Default for ChenEtAl {
    fn default() -> Self {
        ChenEtAl {
            exact_threshold: 2048,
            value_tolerance: 1e-6,
        }
    }
}

impl ChenEtAl {
    /// Creates a solver with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tests feasibility of radius `r`; on success returns the witness
    /// center indices. Distances are staged through `view` (the
    /// instance's points, gathered once by `solve`, which also owns the
    /// `dbuf`/`mind` working buffers shared across probes).
    fn feasible<M: Metric>(
        &self,
        inst: &Instance<'_, M>,
        view: &CoresetView<M::Point>,
        r: f64,
        dbuf: &mut Vec<f64>,
        mind: &mut Vec<f64>,
    ) -> Option<Vec<usize>> {
        let k = inst.k();
        // Greedy 2r-separated heads: the running minimum to the packed
        // heads replaces the per-candidate `any` scan (a candidate is
        // close iff its min head distance is ≤ 2r), with one kernel
        // call per accepted head.
        let n = inst.points.len();
        let mut heads: Vec<usize> = Vec::new();
        dbuf.clear();
        dbuf.resize(n, 0.0);
        mind.clear();
        mind.resize(n, f64::INFINITY);
        for i in 0..n {
            if mind[i] > 2.0 * r {
                heads.push(i);
                if heads.len() > k {
                    return None; // certificate that r < OPT
                }
                inst.metric.dist_one_to_many(view.point(i), view, dbuf);
                for j in (i + 1)..n {
                    if dbuf[j] < mind[j] {
                        mind[j] = dbuf[j];
                    }
                }
            }
        }
        // Nearest point of each color within distance r of each head:
        // one kernel call per head, merged per color with the same
        // ascending-index tie-break as the pointwise scan.
        let ncolors = inst.num_colors();
        let mut witness = vec![vec![(f64::INFINITY, usize::MAX); ncolors]; heads.len()];
        for (hi, &h) in heads.iter().enumerate() {
            inst.metric.dist_one_to_many(view.point(h), view, dbuf);
            for (qi, q) in inst.points.iter().enumerate() {
                let d = dbuf[qi];
                if d <= r {
                    let slot = &mut witness[hi][q.color as usize];
                    if d < slot.0 {
                        *slot = (d, qi);
                    }
                }
            }
        }
        let adj: Vec<Vec<usize>> = witness
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .filter(|(_, &(d, _))| d.is_finite())
                    .map(|(c, _)| c)
                    .collect()
            })
            .collect();
        let m = max_capacitated_matching(inst.caps, &adj);
        if m.is_left_perfect() {
            Some(
                m.assigned
                    .iter()
                    .enumerate()
                    .map(|(h, a)| witness[h][a.expect("perfect")].1)
                    .collect(),
            )
        } else {
            None
        }
    }
}

impl<M: Metric> FairCenterSolver<M> for ChenEtAl {
    fn name(&self) -> &'static str {
        "ChenEtAl"
    }

    fn solve(&self, inst: &Instance<'_, M>) -> Result<FairSolution<M::Point>, SolveError> {
        validate(inst)?;
        let n = inst.points.len();
        // Stage the instance once; every feasibility test and candidate
        // sweep below runs batched kernels over this view.
        let mut view = CoresetView::new();
        view.gather_colored(inst.metric, inst.points.iter());
        let mut dbuf = vec![0.0f64; n];
        let mut mind: Vec<f64> = Vec::new();

        let witnesses: Vec<usize> = if n <= self.exact_threshold {
            // Exact mode: binary search over all pairwise distances
            // (including 0: with n ≤ k every point can be its own center),
            // one kernel row per point.
            let cands = crate::candidate_radii(inst.metric, &view, |_, _| {});
            let (mut lo, mut hi) = (0usize, cands.len() - 1);
            debug_assert!(
                self.feasible(inst, &view, cands[hi], &mut dbuf, &mut mind)
                    .is_some(),
                "r = dmax must be feasible"
            );
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self
                    .feasible(inst, &view, cands[mid], &mut dbuf, &mut mind)
                    .is_some()
                {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            self.feasible(inst, &view, cands[lo], &mut dbuf, &mut mind)
                .expect("binary search ended on a feasible radius")
        } else {
            // Value mode: [0, dmax_estimate] to relative tolerance. The
            // Gonzalez-style double sweep is two kernel calls.
            let mut dmax: f64 = 0.0;
            let mut far = 0usize;
            inst.metric
                .dist_one_to_many(view.point(0), &view, &mut dbuf);
            for (i, &d) in dbuf.iter().enumerate() {
                if d > dmax {
                    dmax = d;
                    far = i;
                }
            }
            inst.metric
                .dist_one_to_many(view.point(far), &view, &mut dbuf);
            for &d in &dbuf {
                if d > dmax {
                    dmax = d;
                }
            }
            if dmax == 0.0 {
                // All points coincide: the first point alone is optimal.
                let centers = vec![inst.points[0].clone()];
                return Ok(FairSolution {
                    centers,
                    radius: 0.0,
                });
            }
            let (mut lo, mut hi) = (0.0f64, dmax);
            let mut best = self
                .feasible(inst, &view, hi, &mut dbuf, &mut mind)
                .expect("r = diameter estimate must be feasible");
            while hi - lo > self.value_tolerance * dmax {
                let mid = 0.5 * (lo + hi);
                match self.feasible(inst, &view, mid, &mut dbuf, &mut mind) {
                    Some(w) => {
                        best = w;
                        hi = mid;
                    }
                    None => lo = mid,
                }
            }
            best
        };

        let mut seen = std::collections::HashSet::new();
        let centers: Vec<Colored<M::Point>> = witnesses
            .into_iter()
            .filter(|i| seen.insert(*i))
            .map(|i| inst.points[i].clone())
            .collect();
        // Radius over the already-staged view — no re-gather.
        let mut mind = Vec::new();
        crate::min_over_centers(
            inst.metric,
            &view,
            centers.iter().map(|c| &c.point),
            &mut dbuf,
            &mut mind,
        );
        let mut radius: f64 = 0.0;
        for &d in &mind {
            if d > radius {
                radius = d;
            }
        }
        Ok(FairSolution { centers, radius })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::exact_fair_center;
    use crate::testutil::{pts1d, scatter};
    use fairsw_metric::Euclidean;
    use proptest::prelude::*;

    #[test]
    fn single_point() {
        let pts = pts1d(&[(1.0, 0)]);
        let inst = Instance::new(&Euclidean, &pts, &[1]);
        let sol = ChenEtAl::new().solve(&inst).unwrap();
        assert_eq!(sol.radius, 0.0);
        assert_eq!(sol.centers.len(), 1);
    }

    #[test]
    fn coincident_points_value_mode() {
        let pts = pts1d(&[(2.0, 0); 5]);
        let solver = ChenEtAl {
            exact_threshold: 0,
            value_tolerance: 1e-6,
        };
        let inst = Instance::new(&Euclidean, &pts, &[1]);
        let sol = solver.solve(&inst).unwrap();
        assert_eq!(sol.radius, 0.0);
    }

    #[test]
    fn respects_budgets_and_beats_3opt() {
        let pts = pts1d(&[
            (0.0, 0),
            (1.0, 1),
            (2.0, 0),
            (50.0, 1),
            (51.0, 1),
            (100.0, 0),
        ]);
        let caps = [1usize, 2];
        let inst = Instance::new(&Euclidean, &pts, &caps);
        let sol = ChenEtAl::new().solve(&inst).unwrap();
        assert!(inst.is_fair(&sol.centers));
        let opt = exact_fair_center(&inst).unwrap();
        assert!(sol.radius <= 3.0 * opt.radius + 1e-9);
    }

    #[test]
    fn value_mode_matches_exact_mode_closely() {
        let pts = scatter(150, 2, 3);
        let caps = [2usize, 2, 1];
        let inst = Instance::new(&Euclidean, &pts, &caps);
        let exact = ChenEtAl::new().solve(&inst).unwrap();
        let value = ChenEtAl {
            exact_threshold: 0,
            value_tolerance: 1e-6,
        }
        .solve(&inst)
        .unwrap();
        // Both are 3-approximations; value mode's radius can differ but
        // only within the tolerance-perturbed guess lattice.
        assert!(value.radius <= exact.radius * 1.5 + 1e-9);
        assert!(inst.is_fair(&value.centers));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(30))]

        #[test]
        fn three_approximation(
            coords in proptest::collection::vec((-30.0..30.0f64, 0u32..2), 2..10),
            caps in proptest::collection::vec(1usize..3, 2),
        ) {
            let pts = pts1d(
                &coords.iter().map(|&(x, c)| (x, c)).collect::<Vec<_>>());
            let inst = Instance::new(&Euclidean, &pts, &caps);
            let sol = ChenEtAl::new().solve(&inst).unwrap();
            prop_assert!(inst.is_fair(&sol.centers));
            let opt = exact_fair_center(&inst).unwrap();
            prop_assert!(
                sol.radius <= 3.0 * opt.radius + 1e-9,
                "chen {} vs opt {}", sol.radius, opt.radius
            );
        }
    }
}
