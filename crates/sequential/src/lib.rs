//! Sequential (offline) algorithms for k-center, fair center and matroid
//! center.
//!
//! These play two roles in the reproduction:
//!
//! 1. **Baselines** — the paper evaluates its streaming algorithm against
//!    [`ChenEtAl`] (matroid center, Chen-Li-Liang-Wang,
//!    Algorithmica 2016, specialised to the partition matroid) and
//!    [`Jones`] (fair k-center via maximum matching, Jones-
//!    Nguyen-Nguyen, ICML 2020) run on the *entire window*;
//! 2. **The coreset solver `A`** — `Query` extracts a coreset and runs a
//!    sequential fair-center algorithm on it; the paper uses Jones
//!    (`α = 3`), and so do we by default.
//!
//! [`fn@gonzalez`] provides the classical greedy 2-approximation for
//! unconstrained k-center (Gonzalez 1985), used inside Jones and widely in
//! tests; [`brute`] holds exponential-time exact solvers for tiny
//! instances, backing the approximation-factor property tests.

pub mod brute;
pub mod chen;
pub mod gonzalez;
pub mod jones;
pub mod kleindessner;
pub mod matroid_center;
pub mod robust;

pub use brute::ExactSolver;
pub use chen::ChenEtAl;
pub use gonzalez::{gonzalez, gonzalez_view, GonzalezResult};
pub use jones::Jones;
pub use kleindessner::Kleindessner;
pub use matroid_center::{
    matroid_center, matroid_center_ids, MatroidCenterSolution, MatroidInstance,
};
pub use robust::{robust_kcenter, RobustFair, RobustSolution};

use fairsw_metric::{Colored, ColoredId, CoresetView, Metric, Resolver};
use std::fmt;

/// Batched distance-to-set: fills `min_dist[i]` with the distance of
/// `view[i]` to the closest of `centers` (`+∞` when `centers` is empty)
/// — one [`dist_one_to_many_exact`](Metric::dist_one_to_many_exact)
/// kernel call per center, merged into running minima. Produces the same
/// values as a per-point `dist_to_set` scan because the minimum of a
/// fixed set of non-negative distances is order-independent. Every call
/// site is a *final-radius* computation, so this deliberately uses the
/// exact kernel: even when the view was staged in an `Approx` mode, the
/// reported radii are full-`f64` re-ranks of the surviving candidates.
pub(crate) fn min_over_centers<'a, M: Metric>(
    metric: &M,
    view: &CoresetView<M::Point>,
    centers: impl IntoIterator<Item = &'a M::Point>,
    dbuf: &mut Vec<f64>,
    min_dist: &mut Vec<f64>,
) where
    M::Point: 'a,
{
    let n = view.len();
    min_dist.clear();
    min_dist.resize(n, f64::INFINITY);
    dbuf.clear();
    dbuf.resize(n, 0.0);
    for c in centers {
        metric.dist_one_to_many_exact(c, view, dbuf);
        for (m, &d) in min_dist.iter_mut().zip(dbuf.iter()) {
            if d < *m {
                *m = d;
            }
        }
    }
}

/// The candidate radii of a binary search over pairwise distances: `0`
/// and every `d(i, j)`, `i < j`, of the staged view, ascending and
/// without duplicates. Computes one kernel row per point and hands each
/// full row to `keep(i, row)`, so a caller can retain the matrix.
pub(crate) fn candidate_radii<M: Metric>(
    metric: &M,
    view: &CoresetView<M::Point>,
    mut keep: impl FnMut(usize, &[f64]),
) -> Vec<f64> {
    let n = view.len();
    let mut row = vec![0.0f64; n];
    let mut cands = Vec::with_capacity(n * n.saturating_sub(1) / 2 + 1);
    cands.push(0.0);
    for i in 0..n {
        metric.dist_one_to_many(view.point(i), view, &mut row);
        cands.extend_from_slice(&row[(i + 1)..]);
        keep(i, &row);
    }
    sort_dedup_radii(&mut cands);
    cands
}

/// Sorts distances ascending and drops duplicates, in place. Non-negative
/// floats order like their bit patterns, and an unstable sort on the bits
/// needs no scratch buffer (a stable sort allocates one as long as the
/// input). `-0.0` is folded into `0.0` first, since its bits sort last.
fn sort_dedup_radii(cands: &mut Vec<f64>) {
    for d in cands.iter_mut() {
        assert!(*d >= 0.0, "distances must be finite and non-negative");
        if *d == 0.0 {
            *d = 0.0;
        }
    }
    cands.sort_unstable_by_key(|d| d.to_bits());
    cands.dedup();
}

/// A fair-center problem instance: colored points, a metric, and the
/// per-color budgets `k_1..k_ℓ` of the partition matroid.
#[derive(Clone, Copy)]
pub struct Instance<'a, M: Metric> {
    /// The distance oracle.
    pub metric: &'a M,
    /// The points to cluster, each tagged with its color in `0..ℓ`.
    pub points: &'a [Colored<M::Point>],
    /// Per-color budgets; `caps.len() = ℓ`, all entries positive.
    pub caps: &'a [usize],
}

impl<'a, M: Metric> Instance<'a, M> {
    /// Builds an instance. The caller guarantees colors are `< caps.len()`
    /// (checked in debug builds).
    pub fn new(metric: &'a M, points: &'a [Colored<M::Point>], caps: &'a [usize]) -> Self {
        debug_assert!(
            points.iter().all(|p| (p.color as usize) < caps.len()),
            "point color out of range"
        );
        Instance {
            metric,
            points,
            caps,
        }
    }

    /// Total budget `k = Σ k_i`.
    pub fn k(&self) -> usize {
        self.caps.iter().sum()
    }

    /// Number of colors `ℓ`.
    pub fn num_colors(&self) -> usize {
        self.caps.len()
    }

    /// The clustering radius of `centers` over this instance's points:
    /// `max_p min_c d(p, c)`; `f64::INFINITY` when `centers` is empty and
    /// points are not. Stages the points once and evaluates one batched
    /// kernel call per center.
    pub fn radius_of(&self, centers: &[Colored<M::Point>]) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        if centers.is_empty() {
            return f64::INFINITY;
        }
        let mut view = CoresetView::new();
        view.gather_colored(self.metric, self.points.iter());
        let (mut dbuf, mut mind) = (Vec::new(), Vec::new());
        min_over_centers(
            self.metric,
            &view,
            centers.iter().map(|c| &c.point),
            &mut dbuf,
            &mut mind,
        );
        let mut r: f64 = 0.0;
        for &d in &mind {
            if d > r {
                r = d;
            }
        }
        r
    }

    /// Whether `centers` satisfies the fairness constraint (at most `k_i`
    /// centers of color `i`).
    pub fn is_fair(&self, centers: &[Colored<M::Point>]) -> bool {
        let mut counts = vec![0usize; self.caps.len()];
        for c in centers {
            let idx = c.color as usize;
            if idx >= counts.len() {
                return false;
            }
            counts[idx] += 1;
            if counts[idx] > self.caps[idx] {
                return false;
            }
        }
        true
    }
}

/// A fair-center solution: the chosen centers (a subset of the instance's
/// points) and their clustering radius over the instance.
#[derive(Clone, Debug)]
pub struct FairSolution<P> {
    /// Selected centers with their colors; satisfies the budgets.
    pub centers: Vec<Colored<P>>,
    /// `max_p min_c d(p, c)` over the instance points.
    pub radius: f64,
}

/// Errors a sequential solver can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The instance has no points.
    EmptyInstance,
    /// The budgets are malformed (empty or containing zeros).
    BadBudgets,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::EmptyInstance => write!(f, "instance has no points"),
            SolveError::BadBudgets => write!(f, "budgets must be non-empty and positive"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A sequential fair-center algorithm, usable both as a full-window
/// baseline and as the coreset solver `A` inside the streaming `Query`.
pub trait FairCenterSolver<M: Metric> {
    /// Short display name (used by the experiment harness).
    fn name(&self) -> &'static str;

    /// Solves the instance, returning fair centers and their radius.
    fn solve(&self, inst: &Instance<'_, M>) -> Result<FairSolution<M::Point>, SolveError>;

    /// Solves an instance given as colored arena handles — the entry
    /// point the sliding-window `Query` uses. Payloads are resolved out
    /// of the [`PointStore`](fairsw_metric::PointStore) exactly once,
    /// here; `solve` then stages them into a [`CoresetView`] so every
    /// candidate distance flows through the batched [`Metric`] kernels.
    /// The streaming structures above never materialize point copies.
    fn solve_ids(
        &self,
        metric: &M,
        res: Resolver<'_, M::Point>,
        ids: &[ColoredId],
        caps: &[usize],
    ) -> Result<FairSolution<M::Point>, SolveError> {
        let points: Vec<Colored<M::Point>> = ids
            .iter()
            .map(|c| Colored::new(res.get(c.point).clone(), c.color))
            .collect();
        self.solve(&Instance::new(metric, &points, caps))
    }
}

/// Validates instance preconditions shared by all solvers.
pub(crate) fn validate<M: Metric>(inst: &Instance<'_, M>) -> Result<(), SolveError> {
    if inst.points.is_empty() {
        return Err(SolveError::EmptyInstance);
    }
    if inst.caps.is_empty() || inst.caps.contains(&0) {
        return Err(SolveError::BadBudgets);
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod testutil {
    use fairsw_metric::{Colored, EuclidPoint};

    /// 1-D colored points from `(coordinate, color)` pairs.
    pub fn pts1d(vals: &[(f64, u32)]) -> Vec<Colored<EuclidPoint>> {
        vals.iter()
            .map(|&(x, c)| Colored::new(EuclidPoint::new(vec![x]), c))
            .collect()
    }

    /// Deterministic scatter of `n` colored points in `dim` dimensions
    /// with `ncolors` colors (quasi-random, no rand dependency).
    pub fn scatter(n: usize, dim: usize, ncolors: u32) -> Vec<Colored<EuclidPoint>> {
        let primes = [2.0f64, 3.0, 5.0, 7.0, 11.0, 13.0];
        (0..n)
            .map(|i| {
                let coords: Vec<f64> = (0..dim)
                    .map(|j| (((i + 1) as f64) * primes[j % primes.len()].sqrt()).fract() * 10.0)
                    .collect();
                Colored::new(EuclidPoint::new(coords), (i as u32 * 7 + 3) % ncolors)
            })
            .collect()
    }

    /// Each center's color and coordinate bits, in order: the form in
    /// which the reference-copy tests compare solutions.
    pub fn center_bits(centers: &[Colored<EuclidPoint>]) -> Vec<(u32, Vec<u64>)> {
        centers
            .iter()
            .map(|c| {
                (
                    c.color,
                    c.point.coords().iter().map(|x| x.to_bits()).collect(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::pts1d;
    use super::*;
    use fairsw_metric::Euclidean;
    use proptest::prelude::*;

    #[test]
    fn radius_of_basic() {
        let pts = pts1d(&[(0.0, 0), (10.0, 1), (4.0, 0)]);
        let inst = Instance::new(&Euclidean, &pts, &[1, 1]);
        let centers = vec![pts[0].clone()];
        assert!((inst.radius_of(&centers) - 10.0).abs() < 1e-12);
        let centers2 = vec![pts[0].clone(), pts[1].clone()];
        assert!((inst.radius_of(&centers2) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn radius_of_empty_center_set() {
        let pts = pts1d(&[(0.0, 0)]);
        let inst = Instance::new(&Euclidean, &pts, &[1]);
        assert_eq!(inst.radius_of(&[]), f64::INFINITY);
    }

    #[test]
    fn fairness_check() {
        let pts = pts1d(&[(0.0, 0), (1.0, 0), (2.0, 1)]);
        let inst = Instance::new(&Euclidean, &pts, &[1, 2]);
        assert!(inst.is_fair(&[pts[0].clone(), pts[2].clone()]));
        assert!(!inst.is_fair(&[pts[0].clone(), pts[1].clone()]));
    }

    #[test]
    fn validate_rejects_bad_inputs() {
        let pts = pts1d(&[]);
        let inst = Instance::new(&Euclidean, &pts, &[1]);
        assert_eq!(validate(&inst), Err(SolveError::EmptyInstance));
        let pts = pts1d(&[(0.0, 0)]);
        let inst = Instance::new(&Euclidean, &pts, &[0, 1]);
        assert_eq!(validate(&inst), Err(SolveError::BadBudgets));
    }

    #[test]
    fn k_and_colors() {
        let pts = pts1d(&[(0.0, 0)]);
        let inst = Instance::new(&Euclidean, &pts, &[2, 3, 1]);
        assert_eq!(inst.k(), 6);
        assert_eq!(inst.num_colors(), 3);
    }

    /// The reference order for [`sort_dedup_radii`]: a stable comparison
    /// sort, then `dedup`.
    fn partial_cmp_sorted(mut v: Vec<f64>) -> Vec<f64> {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v.dedup();
        v
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn candidate_sort_panics_on_nan() {
        sort_dedup_radii(&mut vec![0.0, 1.0, f64::NAN]);
    }

    #[test]
    fn candidate_sort_folds_negative_zero_into_zero() {
        // By bits alone, -0.0 would sort after every positive value.
        for input in [
            vec![0.0, 2.0, -0.0, 1.0, -0.0],
            vec![3.0, -0.0, f64::INFINITY, 1e-300],
        ] {
            let mut v = input.clone();
            sort_dedup_radii(&mut v);
            assert_eq!(v, partial_cmp_sorted(input));
            assert_eq!(v[0].to_bits(), 0.0f64.to_bits(), "{v:?}");
        }
    }

    #[test]
    fn candidate_radii_cover_the_upper_triangle() {
        let pts = pts1d(&[(0.0, 0), (3.0, 0), (1.0, 0), (3.0, 0)]);
        let mut view = CoresetView::new();
        view.gather_colored(&Euclidean, pts.iter());
        let mut rows = Vec::new();
        let cands = candidate_radii(&Euclidean, &view, |i, row| rows.push((i, row.to_vec())));
        assert_eq!(cands, [0.0, 1.0, 2.0, 3.0]);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[2], (2, vec![1.0, 2.0, 0.0, 2.0]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn candidate_sort_matches_the_comparison_sort(
            v in collection::vec(
                prop_oneof![
                    0.0..10.0f64,
                    (0u32..4).prop_map(f64::from),
                    Just(-0.0f64),
                    Just(f64::INFINITY),
                    (0u32..3).prop_map(|e| f64::MIN_POSITIVE * f64::from(e)),
                ],
                0..200,
            )
        ) {
            let mut got = v.clone();
            sort_dedup_radii(&mut got);
            prop_assert_eq!(&got, &partial_cmp_sorted(v));
            prop_assert!(got.iter().all(|d| d.is_sign_positive()), "-0.0 survived: {got:?}");
        }
    }
}
