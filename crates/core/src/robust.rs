//! Robust fair center in sliding windows — the extension the paper's
//! conclusions sketch ("good approximations for robust fair center in
//! sliding windows may be attained by building on previous work for
//! robust unconstrained k-center, matroid and fair center"), built
//! exactly that way:
//!
//! * **Validation side** (from the robust unconstrained treatment of
//!   Pellizzoni et al. \[9\]): with `z` tolerated outliers, `k+z+1` window
//!   points pairwise `> 2γ` certify that the *robust* optimum exceeds
//!   `γ` (discarding any `z` of them still leaves two separated points
//!   sharing a center). So the v-attractor cap becomes `k+z+1` and the
//!   Query packing test accepts up to `k+z` points.
//! * **Coreset side** (from the robust matroid-center coresets of
//!   Ceccarello et al. \[4\]): each c-attractor keeps up to `k_i + z`
//!   representatives per color, so that after adversarially deleting any
//!   `z` points a maximal independent set w.r.t. the surviving cluster is
//!   still present.
//! * **Query** runs the greedy-disk robust fair solver
//!   ([`fairsw_sequential::RobustFair`]) on the coreset with the original
//!   budgets.
//!
//! Caveat, stated plainly: outliers are handled *unweighted* — a coreset
//! point declared an outlier may represent several window points when the
//! outliers are clustered together. For isolated outliers (the regime the
//! robust k-center literature targets, and what the tests plant) each
//! outlier is its own c-attractor and representative, and the accounting
//! is exact. A weighted-coreset refinement is the natural next step; it
//! is not implemented.

use crate::api::{MemoryStats, QueryError, SlidingWindowClustering, Solution, SolutionExtras};
use crate::config::{ConfigError, FairSWConfig};
use crate::guess::{Budgets, GuessState};
use crate::guess_set::{query_over_guesses, GuessSet, QueryScratch};
use crate::memo::QueryMemo;
use fairsw_metric::{Colored, Metric};
use fairsw_sequential::RobustFair;
use fairsw_stream::Lattice;

/// Sliding-window fair center tolerating up to `z` outliers per window.
#[derive(Clone, Debug)]
pub struct RobustFairSlidingWindow<M: Metric> {
    pub(crate) metric: M,
    pub(crate) cfg: FairSWConfig,
    /// Original budgets (the solution constraint).
    pub(crate) k: usize,
    /// Tolerated outliers.
    pub(crate) z: usize,
    /// Inflated per-color caps `k_i + z` maintained in the coreset.
    pub(crate) inflated_caps: Vec<usize>,
    pub(crate) set: GuessSet<GuessState, M::Point>,
    pub(crate) t: u64,
    pub(crate) scratch: QueryScratch<M::Point>,
    pub(crate) memo: QueryMemo<M::Point>,
}

impl<M: Metric> RobustFairSlidingWindow<M> {
    /// Creates the robust algorithm for a stream with distances in
    /// `[dmin, dmax]`, tolerating `z` outliers per window.
    pub fn new(
        cfg: FairSWConfig,
        z: usize,
        metric: M,
        dmin: f64,
        dmax: f64,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let set = GuessSet::new(Lattice::new(cfg.beta), dmin, dmax, GuessState::new)?;
        let k = cfg.k();
        let inflated_caps = cfg.capacities.iter().map(|&c| c + z).collect();
        Ok(RobustFairSlidingWindow {
            metric,
            cfg,
            k,
            z,
            inflated_caps,
            set,
            t: 0,
            scratch: QueryScratch::default(),
            memo: QueryMemo::default(),
        })
    }

    /// The tolerated outlier count `z`.
    pub fn outlier_budget(&self) -> usize {
        self.z
    }

    /// Drops every streamed point and rebuilds empty structures from the
    /// retained configuration (same guess lattice, same inflated budgets)
    /// — the delete-and-recreate reuse path of serving layers.
    pub fn reset(&mut self) {
        self.set.reset(GuessState::new);
        self.t = 0;
        self.memo.clear();
    }
}

impl<M> SlidingWindowClustering<M> for RobustFairSlidingWindow<M>
where
    M: Metric + Sync,
    M::Point: Send + Sync,
{
    /// Batch arrivals through the shared arrival protocol: the batch is
    /// interned once, then each guess replays it in stream order with
    /// the robustified budgets.
    fn insert_batch<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = Colored<M::Point>>,
    {
        // Validation structures certify the *robust* optimum: cap k+z.
        let metric = &self.metric;
        let budgets = Budgets {
            caps: &self.inflated_caps,
            k: self.k + self.z,
            delta: self.cfg.delta,
        };
        let n = self.cfg.window_size as u64;
        self.t = self.set.arrive(batch, self.t, n, |g, res, t, cid| {
            g.update(metric, res, t, cid.point, cid.color, budgets);
        });
    }

    /// Queries: the shared Algorithm 3 scan with the `k+z` packing
    /// threshold, then the robust fair solver on the coreset with the
    /// *original* budgets. The discarded outliers ride in
    /// [`SolutionExtras::Robust`]. Memoized like every variant's
    /// default-solver query.
    fn query(&self) -> Result<Solution<M::Point>, QueryError> {
        let solver = RobustFair::new(self.z);
        let res = self.set.store.resolver();
        let solve = |g: &GuessState| {
            let ids = g.coreset_ids();
            let sol = solver
                .solve_robust_ids(&self.metric, res, &ids, &self.cfg.capacities)
                .map_err(QueryError::Solver)?;
            let outliers = sol
                .outliers
                .iter()
                .map(|&i| res.colored(ids[i]).map(Clone::clone))
                .collect();
            Ok(Solution {
                centers: sol.centers,
                guess: g.gamma,
                coreset_size: ids.len(),
                coreset_radius: sol.radius,
                extras: SolutionExtras::Robust { outliers },
            })
        };
        let k_eff = self.k + self.z;
        let scan = |guesses: &[GuessState]| {
            query_over_guesses(&self.scratch, &self.metric, res, guesses, k_eff, solve)
        };
        self.memo
            .query(self.t, || self.memo.scan(self.t, &self.set.guesses, scan))
    }

    fn time(&self) -> u64 {
        self.t
    }

    fn window_size(&self) -> usize {
        self.cfg.window_size
    }

    fn memory_stats(&self) -> MemoryStats {
        self.set.memory_stats()
    }

    fn stored_points(&self) -> usize {
        self.set.stored_points()
    }

    fn num_guesses(&self) -> usize {
        self.set.guesses.len()
    }

    /// Verifies per-guess invariants (test helper).
    fn check_invariants(&self) -> Result<(), String> {
        let res = self.set.store.resolver();
        for g in &self.set.guesses {
            g.check_invariants(
                &self.metric,
                res,
                self.t,
                self.cfg.window_size as u64,
                Budgets {
                    caps: &self.inflated_caps,
                    k: self.k + self.z,
                    delta: self.cfg.delta,
                },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsw_metric::{EuclidPoint, Euclidean};

    fn cfg(n: usize, caps: Vec<usize>, delta: f64) -> FairSWConfig {
        FairSWConfig::builder()
            .window_size(n)
            .capacities(caps)
            .beta(2.0)
            .delta(delta)
            .build()
            .unwrap()
    }

    fn cp(x: f64, c: u32) -> Colored<EuclidPoint> {
        Colored::new(EuclidPoint::new(vec![x]), c)
    }

    #[test]
    fn ignores_planted_outliers() {
        // Two tight clusters plus occasional far-away glitch readings.
        let mut sw =
            RobustFairSlidingWindow::new(cfg(200, vec![1, 1], 1.0), 2, Euclidean, 0.001, 1e7)
                .unwrap();
        for i in 0..400u64 {
            let p = if i % 97 == 0 {
                cp(1e6 + i as f64, (i % 2) as u32) // glitch
            } else {
                let base = if i % 2 == 0 { 0.0 } else { 100.0 };
                cp(base + (i as f64 * 0.618).fract(), (i % 2) as u32)
            };
            sw.insert(p);
        }
        sw.check_invariants().unwrap();
        let sol = sw.query().unwrap();
        assert!(sol.outliers().len() <= 2);
        // Inlier radius reflects the clusters, not the glitches.
        assert!(
            sol.coreset_radius < 200.0,
            "radius {} polluted by outliers",
            sol.coreset_radius
        );
        // The glitch points should be the declared outliers.
        for o in sol.outliers() {
            assert!(o.point.coords()[0] > 1e5, "non-glitch declared outlier");
        }
    }

    #[test]
    fn zero_outliers_matches_plain_variant_quality() {
        let mut robust =
            RobustFairSlidingWindow::new(cfg(100, vec![1, 1], 1.0), 0, Euclidean, 0.01, 1e4)
                .unwrap();
        let mut plain =
            crate::FairSlidingWindow::new(cfg(100, vec![1, 1], 1.0), Euclidean, 0.01, 1e4).unwrap();
        for i in 0..250u64 {
            let base = if i % 2 == 0 { 0.0 } else { 500.0 };
            let p = cp(base + (i as f64 * 0.33).fract() * 5.0, (i % 2) as u32);
            robust.insert(p.clone());
            plain.insert(p);
        }
        let rs = robust.query().unwrap();
        let ps = plain.query().unwrap();
        assert!(rs.outliers().is_empty());
        // Same ballpark quality (both constant-factor on the same window).
        assert!(rs.coreset_radius <= 3.0 * ps.coreset_radius + 1e-6);
    }

    #[test]
    fn fairness_respected_with_outliers() {
        let mut sw =
            RobustFairSlidingWindow::new(cfg(150, vec![2, 1], 1.0), 3, Euclidean, 0.001, 1e7)
                .unwrap();
        for i in 0..300u64 {
            let x = (i as f64 * 0.445).fract() * 400.0 + if i % 83 == 0 { 1e6 } else { 0.0 };
            sw.insert(cp(x, (i % 3 == 0) as u32));
        }
        let sol = sw.query().unwrap();
        let c0 = sol.centers.iter().filter(|c| c.color == 0).count();
        let c1 = sol.centers.iter().filter(|c| c.color == 1).count();
        assert!(c0 <= 2 && c1 <= 1, "budgets violated");
    }

    #[test]
    fn memory_scales_with_z() {
        // The robustified coreset keeps k_i + z reps per color: memory
        // must grow with z but stay bounded.
        let build = |z: usize| {
            let mut sw =
                RobustFairSlidingWindow::new(cfg(300, vec![1, 1], 1.0), z, Euclidean, 0.01, 1e4)
                    .unwrap();
            for i in 0..600u64 {
                let x = (i as f64 * 0.618_033_988_7).fract() * 100.0;
                sw.insert(cp(x, (i % 2) as u32));
            }
            sw.stored_points()
        };
        let m0 = build(0);
        let m5 = build(5);
        assert!(m5 > m0, "z=5 should store more than z=0 ({m5} vs {m0})");
        assert!(m5 < 40 * m0.max(1), "memory exploded with z");
    }

    #[test]
    fn empty_query_errors() {
        let sw =
            RobustFairSlidingWindow::new(cfg(10, vec![1], 1.0), 1, Euclidean, 0.1, 10.0).unwrap();
        assert!(matches!(sw.query(), Err(QueryError::EmptyWindow)));
    }
}
