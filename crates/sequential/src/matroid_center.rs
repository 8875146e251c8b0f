//! The generic matroid-center solver — Chen, Li, Liang, Wang
//! (Algorithmica 2016) in full generality.
//!
//! Fair center is matroid center under a partition matroid; the
//! [`crate::ChenEtAl`] and [`crate::Jones`] solvers exploit that special
//! structure (capacitated bipartite matching). This module implements the
//! *actual* Chen et al. algorithm for an **arbitrary matroid** given by
//! an independence oracle over point indices:
//!
//! 1. binary search the radius `r` over the pairwise distances;
//! 2. greedily collect heads pairwise `> 2r` (at most `rank(M)` of them,
//!    else `r < OPT`);
//! 3. the balls `B(head, r)` are disjoint; ask for a common independent
//!    set of the constraint matroid and the balls' partition matroid that
//!    hits every ball — **matroid intersection**
//!    ([`fairsw_matroid::max_common_independent`]);
//! 4. a full hit at radius `r` yields a solution of radius `≤ 3r`, and
//!    any `r ≥ OPT` admits one (each head is within `OPT` of a distinct
//!    point of the optimal independent set), so the minimal feasible `r`
//!    gives a 3-approximation.
//!
//! This is the most general — and slowest — solver in the crate. The
//! binary search sorts all `n²/2` pairwise distances once; each
//! feasibility test then computes one kernel row per head (at most
//! `rank + 1`) and runs matroid intersection, in which every point
//! outside the balls is a loop and drops out. With `m` points inside
//! the balls and `h` heads, one augmenting search makes `O(m·h)` oracle
//! calls. The kernel rows are recomputed per test rather than kept as a
//! matrix: the metric is a small share of this solver's time.
//! Use it for laminar/transversal constraints or any custom matroid;
//! stick to `Jones`/`ChenEtAl` for plain per-color budgets.

use crate::SolveError;
use fairsw_matroid::{max_common_independent, with_buffer, Matroid};
use fairsw_metric::{CoresetView, Metric};

/// A matroid-center instance: raw points plus an independence oracle over
/// point indices.
pub struct MatroidInstance<'a, M: Metric, Mat: Matroid<usize>> {
    /// The distance oracle.
    pub metric: &'a M,
    /// The points to cluster.
    pub points: &'a [M::Point],
    /// The constraint matroid over indices `0..points.len()`.
    pub matroid: &'a Mat,
}

/// A matroid-center solution: selected point indices and their radius.
#[derive(Clone, Debug)]
pub struct MatroidCenterSolution {
    /// Indices of the chosen centers (an independent set).
    pub centers: Vec<usize>,
    /// Covering radius over all points.
    pub radius: f64,
}

/// The partition matroid induced by disjoint balls: each element belongs
/// to at most one ball (`ball_of[i]`); an index set is independent iff it
/// selects at most one element per ball and nothing outside every ball.
struct BallMatroid {
    ball_of: Vec<Option<usize>>,
    num_balls: usize,
}

impl Matroid<usize> for BallMatroid {
    /// Allocation-free up to [`INLINE_LEN`](fairsw_matroid::INLINE_LEN) balls.
    fn is_independent(&self, set: &[usize]) -> bool {
        with_buffer(self.num_balls, |used: &mut [bool]| {
            set.iter()
                .all(|&e| match self.ball_of.get(e).copied().flatten() {
                    None => false, // outside every ball: a loop
                    Some(b) => !std::mem::replace(&mut used[b], true),
                })
        })
    }

    fn rank(&self) -> usize {
        self.num_balls
    }
}

/// [`matroid_center`] over arena handles — the sliding-window `Query`
/// entry point. Payloads are resolved out of the point store once, here,
/// at solution-assembly time; the returned center indices index into
/// `ids`.
pub fn matroid_center_ids<M: Metric, Mat: Matroid<usize>>(
    metric: &M,
    res: fairsw_metric::Resolver<'_, M::Point>,
    ids: &[fairsw_metric::PointId],
    matroid: &Mat,
) -> Result<MatroidCenterSolution, SolveError> {
    let points: Vec<M::Point> = ids.iter().map(|&id| res.get(id).clone()).collect();
    matroid_center(&MatroidInstance {
        metric,
        points: &points,
        matroid,
    })
}

/// Solves matroid center to a 3-approximation. See the module docs.
pub fn matroid_center<M: Metric, Mat: Matroid<usize>>(
    inst: &MatroidInstance<'_, M, Mat>,
) -> Result<MatroidCenterSolution, SolveError> {
    if inst.points.is_empty() {
        return Err(SolveError::EmptyInstance);
    }
    let n = inst.points.len();
    let rank = inst.matroid.rank();
    // Stage the instance once; the candidate sweep and every
    // feasibility test below run batched kernels over this view.
    let mut view = CoresetView::new();
    view.gather(inst.metric, inst.points.iter());

    let cands = crate::candidate_radii(inst.metric, &view, |_, _| {});

    // Working buffers shared across every feasibility probe.
    let (mut dbuf, mut mind): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut feasible = |r: f64| -> Option<Vec<usize>> {
        // Greedy heads pairwise > 2r: running minimum to the packed
        // heads (one kernel call per accepted head) replaces the
        // per-candidate `any` scan — identical decisions.
        let mut heads: Vec<usize> = Vec::new();
        dbuf.clear();
        dbuf.resize(n, 0.0);
        mind.clear();
        mind.resize(n, f64::INFINITY);
        for i in 0..n {
            if mind[i] > 2.0 * r {
                heads.push(i);
                if heads.len() > rank {
                    return None; // certificate that r < OPT
                }
                inst.metric
                    .dist_one_to_many(view.point(i), &view, &mut dbuf);
                for j in (i + 1)..n {
                    if dbuf[j] < mind[j] {
                        mind[j] = dbuf[j];
                    }
                }
            }
        }
        // Ball membership (balls are disjoint because heads are > 2r
        // apart and balls have radius r); one kernel call per head.
        let mut ball_of = vec![None; n];
        for (bi, &h) in heads.iter().enumerate() {
            inst.metric
                .dist_one_to_many(view.point(h), &view, &mut dbuf);
            for (i, bo) in ball_of.iter_mut().enumerate() {
                if dbuf[i] <= r {
                    debug_assert!(bo.is_none(), "balls must be disjoint");
                    *bo = Some(bi);
                }
            }
        }
        let balls = BallMatroid {
            ball_of,
            num_balls: heads.len(),
        };
        let common = max_common_independent(n, inst.matroid, &balls);
        (common.len() == heads.len()).then_some(common)
    };

    let (mut lo, mut hi) = (0usize, cands.len() - 1);
    // `centers` keeps the outcome of the last feasible probe.
    let Some(mut centers) = feasible(cands[hi]) else {
        // Even at r = dmax there is no independent hit. With a loop-free
        // matroid of positive rank this cannot happen (a single head is
        // hit by any non-loop element); surface a best-effort singleton
        // using any independent element.
        let single = (0..n).find(|&i| inst.matroid.is_independent(&[i]));
        return match single {
            Some(i) => {
                let centers = vec![i];
                let radius = radius_of(inst.metric, &view, &centers);
                Ok(MatroidCenterSolution { centers, radius })
            }
            // Every element is a loop: only the empty set is independent.
            None => Err(SolveError::BadBudgets),
        };
    };
    while lo < hi {
        let mid = (lo + hi) / 2;
        if let Some(found) = feasible(cands[mid]) {
            hi = mid;
            centers = found;
        } else {
            lo = mid + 1;
        }
    }
    let radius = radius_of(inst.metric, &view, &centers);
    Ok(MatroidCenterSolution { centers, radius })
}

/// Covering radius of the staged points `centers` over the whole view.
fn radius_of<M: Metric>(metric: &M, view: &CoresetView<M::Point>, centers: &[usize]) -> f64 {
    let (mut dbuf, mut mind) = (Vec::new(), Vec::new());
    crate::min_over_centers(
        metric,
        view,
        centers.iter().map(|&i| view.point(i)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use fairsw_matroid::{
        Group, LaminarMatroid, PartitionMatroid, TransversalMatroid, UniformMatroid,
    };
    use fairsw_metric::{EuclidPoint, Euclidean};
    use proptest::prelude::{Just, Strategy};

    fn pts(vals: &[f64]) -> Vec<EuclidPoint> {
        vals.iter().map(|&v| EuclidPoint::new(vec![v])).collect()
    }

    #[test]
    fn uniform_matroid_recovers_kcenter() {
        let points = pts(&[0.0, 1.0, 10.0, 11.0]);
        let m = UniformMatroid::new(2);
        let inst = MatroidInstance {
            metric: &Euclidean,
            points: &points,
            matroid: &m,
        };
        let sol = matroid_center(&inst).unwrap();
        // OPT = 1.0 (one center per cluster); 3-approx bound.
        assert!(sol.radius <= 3.0 + 1e-9, "radius {}", sol.radius);
        assert!(sol.centers.len() <= 2);
    }

    #[test]
    fn partition_constraint_agrees_with_fair_solvers() {
        let points = pts(&[0.0, 0.6, 1.0, 100.0, 100.5, 101.0]);
        let colors = [0u32, 1, 0, 1, 0, 1];
        let inner = PartitionMatroid::new(vec![1, 1]).unwrap();
        let m = fairsw_matroid::OverColors::new(&colors, &inner);
        let inst = MatroidInstance {
            metric: &Euclidean,
            points: &points,
            matroid: &m,
        };
        let sol = matroid_center(&inst).unwrap();
        // Fairness: at most one of each color.
        let c0 = sol.centers.iter().filter(|&&i| colors[i] == 0).count();
        let c1 = sol.centers.iter().filter(|&&i| colors[i] == 1).count();
        assert!(c0 <= 1 && c1 <= 1);
        // Two clusters of spread 1: 3-approx of OPT=1 means ≤ 3.
        assert!(sol.radius <= 3.0 + 1e-9, "radius {}", sol.radius);
    }

    #[test]
    fn laminar_constraint_is_enforced() {
        // Three clusters, colors 0/1/2; laminar: ≤1 of color 0, ≤1 of
        // {0,1} combined, ≤3 overall. Cluster colors force trade-offs.
        let points = pts(&[0.0, 0.4, 50.0, 50.4, 100.0, 100.4]);
        let colors = [0u32, 1, 0, 1, 2, 2];
        let inner = LaminarMatroid::new(vec![
            Group::new(vec![0], 1),
            Group::new(vec![0, 1], 1),
            Group::new(vec![0, 1, 2], 3),
        ])
        .unwrap();
        let m = fairsw_matroid::OverColors::new(&colors, &inner);
        let inst = MatroidInstance {
            metric: &Euclidean,
            points: &points,
            matroid: &m,
        };
        let sol = matroid_center(&inst).unwrap();
        // Only one center from colors {0,1} allowed: one of the first two
        // clusters must be served remotely → OPT = 50.4-ish, and the
        // constraint must hold on our answer.
        let c01 = sol
            .centers
            .iter()
            .filter(|&&i| colors[i] == 0 || colors[i] == 1)
            .count();
        assert!(c01 <= 1, "laminar cap violated");
        assert!(sol.radius >= 49.0, "radius {} impossibly good", sol.radius);
        assert!(sol.radius <= 3.0 * 50.4 + 1e-9);
    }

    #[test]
    fn transversal_constraint() {
        // Two clusters; slots: committee member 0 endorses points 0..3,
        // member 1 endorses points 2..6 — at most 2 centers total, each
        // with a distinct endorser.
        let points = pts(&[0.0, 0.5, 1.0, 100.0, 100.5, 101.0]);
        let adj: Vec<Vec<usize>> = (0..6)
            .map(|i| {
                let mut slots = Vec::new();
                if i <= 3 {
                    slots.push(0);
                }
                if i >= 2 {
                    slots.push(1);
                }
                slots
            })
            .collect();
        let m = TransversalMatroid::new(adj, 2);
        let inst = MatroidInstance {
            metric: &Euclidean,
            points: &points,
            matroid: &m,
        };
        let sol = matroid_center(&inst).unwrap();
        assert!(m.is_independent(&sol.centers));
        assert!(sol.centers.len() <= 2);
        // One endorsable center per cluster exists: OPT = 1.
        assert!(sol.radius <= 3.0 + 1e-9, "radius {}", sol.radius);
    }

    #[test]
    fn all_loops_is_an_error() {
        let points = pts(&[0.0, 1.0]);
        // Transversal matroid with no slots: every element is a loop.
        let m = TransversalMatroid::new(vec![vec![], vec![]], 0);
        let inst = MatroidInstance {
            metric: &Euclidean,
            points: &points,
            matroid: &m,
        };
        assert!(matroid_center(&inst).is_err());
    }

    /// The allocating ball oracle: one fresh `used` vector per call.
    fn ball_reference(balls: &BallMatroid, set: &[usize]) -> bool {
        let mut used = vec![false; balls.num_balls];
        for &e in set {
            match balls.ball_of.get(e).copied().flatten() {
                None => return false,
                Some(b) => {
                    if used[b] {
                        return false;
                    }
                    used[b] = true;
                }
            }
        }
        true
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn ball_oracle_matches_the_allocating_reference(
            case in (1usize..2 * fairsw_matroid::INLINE_LEN + 8).prop_flat_map(|balls| {
                (
                    Just(balls),
                    proptest::collection::vec(0usize..balls + balls / 4 + 1, 1..160),
                    proptest::collection::vec(0usize..170, 0..2 * fairsw_matroid::INLINE_LEN + 8),
                )
            }),
        ) {
            // Sizes on both sides of the inline bound; a drawn ball past
            // `num_balls` leaves its element outside every ball, and the
            // random set reaches past the ground set. `first` takes the
            // first element of each ball, independent by construction;
            // one more element makes it dependent.
            let (num_balls, raw, random) = case;
            let balls = BallMatroid {
                ball_of: raw.iter().map(|&b| (b < num_balls).then_some(b)).collect(),
                num_balls,
            };
            let mut seen = vec![false; num_balls];
            let first: Vec<usize> = (0..raw.len())
                .filter(|&e| raw[e] < num_balls && !std::mem::replace(&mut seen[raw[e]], true))
                .collect();
            let mut extended = first.clone();
            extended.push(random.first().copied().unwrap_or(0));
            for set in [random, first, extended] {
                proptest::prop_assert_eq!(balls.is_independent(&set), ball_reference(&balls, &set));
            }
        }
    }

    #[test]
    fn empty_instance_errors() {
        let points: Vec<EuclidPoint> = vec![];
        let m = UniformMatroid::new(1);
        let inst = MatroidInstance {
            metric: &Euclidean,
            points: &points,
            matroid: &m,
        };
        assert!(matroid_center(&inst).is_err());
    }
}
