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
//! is exact. A weighted-coreset refinement is the natural next step and
//! is listed in DESIGN.md.

use crate::algorithm::QueryScratch;
use crate::api::{MemoryStats, QueryError, SlidingWindowClustering, Solution, SolutionExtras};
use crate::config::{validate_scale, ConfigError, FairSWConfig};
use crate::guess::{Budgets, GuessState};
use crate::guess_set::{replay_batch, GuessSet};
use crate::memo::{prefix_for, QueryMemo};
use fairsw_metric::{packing_scan, Colored, ColoredId, Metric};
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
        validate_scale(dmin, dmax)?;
        let lattice = Lattice::new(cfg.beta);
        let guesses = lattice
            .span(dmin, dmax)
            .map(|lvl| GuessState::new(lattice.value(lvl)))
            .collect();
        let k = cfg.k();
        let inflated_caps = cfg.capacities.iter().map(|&c| c + z).collect();
        Ok(RobustFairSlidingWindow {
            metric,
            cfg,
            k,
            z,
            inflated_caps,
            set: GuessSet::new(guesses),
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
        let gammas: Vec<f64> = self.set.guesses.iter().map(|g| g.gamma).collect();
        self.set = GuessSet::new(gammas.into_iter().map(GuessState::new).collect());
        self.t = 0;
        self.memo.clear();
    }
}

impl<M> SlidingWindowClustering<M> for RobustFairSlidingWindow<M>
where
    M: Metric + Sync,
    M::Point: Send + Sync,
{
    /// Handles one arrival (interned once, then Update on every guess
    /// with the robustified budgets).
    fn insert(&mut self, p: Colored<M::Point>) {
        self.t += 1;
        let t = self.t;
        let te = t.checked_sub(self.cfg.window_size as u64);
        let id = self.set.store.insert(t, p.point);
        // Validation structures certify the *robust* optimum: cap k+z.
        let metric = &self.metric;
        let budgets = Budgets {
            caps: &self.inflated_caps,
            k: self.k + self.z,
            delta: self.cfg.delta,
        };
        let res = self.set.store.resolver();
        for g in &mut self.set.guesses {
            if let Some(te) = te {
                g.expire(res, te);
            }
            g.update(metric, res, t, id, p.color, budgets);
        }
        self.set.finish_arrival(te);
    }

    /// Batch arrivals: the batch is interned up front and each guess
    /// replays it locally (identical evolution to repeated insert).
    fn insert_batch<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = Colored<M::Point>>,
    {
        let n = self.cfg.window_size as u64;
        let ids: Vec<ColoredId> = batch
            .into_iter()
            .enumerate()
            .map(|(j, p)| {
                let t = self.t + 1 + j as u64;
                Colored::new(self.set.store.insert(t, p.point), p.color)
            })
            .collect();
        let metric = &self.metric;
        let budgets = Budgets {
            caps: &self.inflated_caps,
            k: self.k + self.z,
            delta: self.cfg.delta,
        };
        let res = self.set.store.resolver();
        self.t = replay_batch(&mut self.set.guesses, &ids, self.t, n, |g, t, te, cid| {
            if let Some(te) = te {
                g.expire(res, te);
            }
            g.update(metric, res, t, cid.point, cid.color, budgets);
        });
        self.set.finish_arrival(self.t.checked_sub(n));
    }

    /// Queries: guess selection with the `k+z` packing threshold, then
    /// the robust fair solver on the coreset with the *original* budgets.
    /// The discarded outliers ride in [`SolutionExtras::Robust`].
    fn query(&self) -> Result<Solution<M::Point>, QueryError> {
        if self.t == 0 {
            return Err(QueryError::EmptyWindow);
        }
        // Memoized on the engine time (inserts are the only mutation),
        // with the solver-independent non-qualifying prefix skipped.
        if let Some(hit) = self.memo.cached(self.t) {
            return hit;
        }
        let pairs: Vec<(f64, u64)> = self
            .set
            .guesses
            .iter()
            .map(|g| (g.gamma(), g.rev()))
            .collect();
        let skip = self.memo.skip_count(pairs.iter().copied());
        let k_eff = self.k + self.z;
        let solver = RobustFair::new(self.z);
        let res = self.set.store.resolver();
        let result = self
            .scratch
            .with(|s| {
                self.set.guesses[skip..].iter().find_map(|g| {
                    if g.av_len() > k_eff {
                        return None;
                    }
                    // Batched 2γ-packing with the robust `k+z` threshold.
                    s.view.gather_ids(&self.metric, res, g.rv_ids());
                    packing_scan(
                        &self.metric,
                        &s.view,
                        2.0 * g.gamma(),
                        k_eff,
                        &mut s.dist,
                        &mut s.min_dist,
                        &mut s.packed,
                    )?;
                    let ids = g.coreset_ids();
                    Some(
                        solver
                            .solve_robust_ids(&self.metric, res, &ids, &self.cfg.capacities)
                            .map_err(QueryError::Solver)
                            .map(|sol| {
                                let outliers = sol
                                    .outliers
                                    .iter()
                                    .map(|&i| res.colored(ids[i]).map(Clone::clone))
                                    .collect();
                                Solution {
                                    centers: sol.centers,
                                    guess: g.gamma(),
                                    coreset_size: ids.len(),
                                    coreset_radius: sol.radius,
                                    extras: SolutionExtras::Robust { outliers },
                                }
                            }),
                    )
                })
            })
            .unwrap_or(Err(QueryError::NoValidGuess));
        self.memo
            .record_prefix(self.t, prefix_for(pairs.iter().copied(), &result));
        self.memo.record_result(self.t, &result);
        result
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
