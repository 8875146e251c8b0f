//! The main sliding-window algorithm ("Ours" in the paper's experiments):
//! a fixed guess lattice spanning the stream's `[dmin, dmax]`, one
//! [`GuessState`] per guess, `Update` on every arrival and `Query` on
//! demand.
//!
//! Each arriving point is interned once in the algorithm's shared
//! [`PointStore`](fairsw_metric::PointStore) arena; the per-guess
//! structures hold 8-byte handles, and the query path resolves payloads
//! only at solution-assembly time (the `guess_set` module documents the
//! arrival protocol).

use crate::api::{MemoryStats, QueryError, SlidingWindowClustering, Solution, SolutionExtras};
use crate::config::{ConfigError, FairSWConfig};
use crate::guess::{Budgets, GuessState};
use crate::guess_set::{query_over_guesses, GuessSet, QueryScratch};
use crate::memo::QueryMemo;
use fairsw_metric::{Colored, ColoredId, Metric, Resolver};
use fairsw_sequential::{FairCenterSolver, Jones};
use fairsw_stream::Lattice;

/// The sliding-window fair-center algorithm with a fixed guess range
/// (requires `dmin`/`dmax` of the stream up front; see
/// [`ObliviousFairSlidingWindow`](crate::ObliviousFairSlidingWindow) for
/// the estimate-as-you-go variant).
#[derive(Clone, Debug)]
pub struct FairSlidingWindow<M: Metric> {
    pub(crate) metric: M,
    pub(crate) cfg: FairSWConfig,
    pub(crate) k: usize,
    pub(crate) lattice: Lattice,
    pub(crate) set: GuessSet<GuessState, M::Point>,
    pub(crate) t: u64,
    pub(crate) scratch: QueryScratch<M::Point>,
    pub(crate) memo: QueryMemo<M::Point>,
}

impl<M: Metric> FairSlidingWindow<M> {
    /// Creates the algorithm for a stream whose pairwise distances fall in
    /// `[dmin, dmax]`. The guess lattice is
    /// `Γ = {(1+β)^i : ⌊log dmin⌋ ≤ i ≤ ⌈log dmax⌉}` exactly as in the
    /// paper.
    pub fn new(cfg: FairSWConfig, metric: M, dmin: f64, dmax: f64) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let lattice = Lattice::new(cfg.beta);
        let set = GuessSet::new(lattice, dmin, dmax, GuessState::new)?;
        let k = cfg.k();
        Ok(FairSlidingWindow {
            metric,
            cfg,
            k,
            lattice,
            set,
            t: 0,
            scratch: QueryScratch::default(),
            memo: QueryMemo::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &FairSWConfig {
        &self.cfg
    }

    /// Drops every streamed point and rebuilds empty structures from the
    /// retained configuration: same guess lattice, same budgets.
    /// Equivalent to (but much cheaper than) reconstructing
    /// through [`new`](Self::new) — the delete-and-recreate reuse path of
    /// multi-tenant serving layers.
    pub fn reset(&mut self) {
        self.set.reset(GuessState::new);
        self.t = 0;
        self.memo.clear();
    }

    /// `Query` (Algorithm 3) with an explicit coreset solver: find the
    /// smallest guess that (a) is valid (`|AV| ≤ k`) and (b) admits a
    /// `≤ k`-point greedy `2γ`-packing of `RV`, then run `solver` on its
    /// coreset `R`. The trait-level
    /// [`query`](SlidingWindowClustering::query) uses the paper's default
    /// solver (Jones, `α = 3`).
    pub fn query_with<S>(&self, solver: &S) -> Result<Solution<M::Point>, QueryError>
    where
        S: FairCenterSolver<M> + Sync,
        M: Sync,
        M::Point: Send + Sync,
    {
        let res = self.set.store.resolver();
        self.memo.scan(self.t, &self.set.guesses, |guesses| {
            query_over_guesses(&self.scratch, &self.metric, res, guesses, self.k, |g| {
                let caps = &self.cfg.capacities;
                solve_fair(solver, &self.metric, res, &g.coreset_ids(), caps, g.gamma)
            })
        })
    }

    /// Iterates the guesses (used by tests and diagnostics).
    pub fn guesses(&self) -> impl Iterator<Item = &GuessState> {
        self.set.guesses.iter()
    }

    /// A resolver over the algorithm's interned arena (resolves the
    /// handles exposed by [`guesses`](Self::guesses)).
    pub fn resolver(&self) -> Resolver<'_, M::Point> {
        self.set.store.resolver()
    }

    /// The guess lattice.
    pub fn lattice(&self) -> Lattice {
        self.lattice
    }
}

impl<M> SlidingWindowClustering<M> for FairSlidingWindow<M>
where
    M: Metric + Sync,
    M::Point: Send + Sync,
{
    /// Batch arrivals through the shared arrival protocol (the
    /// `guess_set` module docs): the batch is interned once, then each
    /// guess replays it in stream order — expiry of the outgoing point
    /// plus Update (Algorithm 1) per arrival.
    fn insert_batch<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = Colored<M::Point>>,
    {
        let metric = &self.metric;
        let budgets = Budgets {
            caps: &self.cfg.capacities,
            k: self.k,
            delta: self.cfg.delta,
        };
        let n = self.cfg.window_size as u64;
        self.t = self.set.arrive(batch, self.t, n, |g, res, t, cid| {
            g.update(metric, res, t, cid.point, cid.color, budgets);
        });
    }

    /// `Query` with the paper's default solver, memoized: repeat queries
    /// at an unchanged engine time return the recorded result.
    fn query(&self) -> Result<Solution<M::Point>, QueryError> {
        self.memo.query(self.t, || self.query_with(&Jones))
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

    /// Verifies every guess's structural invariants (test helper).
    fn check_invariants(&self) -> Result<(), String> {
        let res = self.set.store.resolver();
        for g in &self.set.guesses {
            g.check_invariants(
                &self.metric,
                res,
                self.t,
                self.cfg.window_size as u64,
                Budgets {
                    caps: &self.cfg.capacities,
                    k: self.k,
                    delta: self.cfg.delta,
                },
            )?;
        }
        Ok(())
    }
}

/// Algorithm 3's solve step for the partition solvers: `solver` on the
/// winning guess's coreset `ids` (`R`, or `RV` for the compact variant)
/// at guess `gamma`. Payload copies are materialized only inside the
/// solver's id-slice entry point, at solution-assembly time.
pub(crate) fn solve_fair<M, S>(
    solver: &S,
    metric: &M,
    res: Resolver<'_, M::Point>,
    ids: &[ColoredId],
    caps: &[usize],
    gamma: f64,
) -> Result<Solution<M::Point>, QueryError>
where
    M: Metric,
    S: FairCenterSolver<M>,
{
    let sol = solver.solve_ids(metric, res, ids, caps)?;
    Ok(Solution {
        centers: sol.centers,
        guess: gamma,
        coreset_size: ids.len(),
        coreset_radius: sol.radius,
        extras: SolutionExtras::None,
    })
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
    fn empty_query_errors() {
        let sw = FairSlidingWindow::new(cfg(10, vec![1], 1.0), Euclidean, 0.1, 100.0).unwrap();
        assert!(matches!(sw.query(), Err(QueryError::EmptyWindow)));
    }

    #[test]
    fn bad_scale_bounds_rejected() {
        for (dmin, dmax) in [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (f64::NAN, 1.0)] {
            assert!(
                matches!(
                    FairSlidingWindow::new(cfg(10, vec![1], 1.0), Euclidean, dmin, dmax),
                    Err(ConfigError::BadScaleBounds { .. })
                ),
                "({dmin}, {dmax}) accepted"
            );
        }
    }

    #[test]
    fn single_point_roundtrip() {
        let mut sw = FairSlidingWindow::new(cfg(10, vec![1], 1.0), Euclidean, 0.1, 100.0).unwrap();
        sw.insert(cp(5.0, 0));
        let sol = sw.query().unwrap();
        assert_eq!(sol.centers.len(), 1);
        assert_eq!(sol.centers[0].point.coords(), &[5.0]);
        assert!(matches!(sol.extras, SolutionExtras::None));
        sw.check_invariants().unwrap();
        // One arrival: one payload in the arena, many handles.
        assert_eq!(sw.memory_stats().unique_points, 1);
    }

    #[test]
    fn two_clusters_two_centers() {
        let mut sw =
            FairSlidingWindow::new(cfg(100, vec![1, 1], 0.5), Euclidean, 0.5, 200.0).unwrap();
        for i in 0..50 {
            sw.insert(cp(i as f64 * 0.01, 0));
            sw.insert(cp(100.0 + i as f64 * 0.01, 1));
        }
        sw.check_invariants().unwrap();
        let sol = sw.query().unwrap();
        assert!(sol.centers.len() <= 2);
        // Solution must have one center near each cluster: check the
        // coreset radius is far below the cluster separation.
        assert!(sol.coreset_radius < 50.0, "radius {}", sol.coreset_radius);
    }

    #[test]
    fn memory_stays_bounded_as_window_slides() {
        let mut sw =
            FairSlidingWindow::new(cfg(50, vec![1, 1], 1.0), Euclidean, 0.01, 1000.0).unwrap();
        let mut peak_during_fill = 0usize;
        for i in 0..500u64 {
            let x = (i as f64 * 0.618_033_988_7).fract() * 100.0;
            sw.insert(cp(x, (i % 2) as u32));
            if i < 50 {
                peak_during_fill = peak_during_fill.max(sw.stored_points());
            }
        }
        sw.check_invariants().unwrap();
        // Memory after 500 arrivals must not exceed a small multiple of
        // the peak reached while the first window filled — i.e. it is
        // governed by the window content, not the stream length.
        assert!(
            sw.stored_points() <= 2 * peak_during_fill + 64,
            "memory grew with stream length: {} vs fill-peak {}",
            sw.stored_points(),
            peak_during_fill
        );
    }

    #[test]
    fn memory_stats_breakdown_consistent() {
        let mut sw =
            FairSlidingWindow::new(cfg(30, vec![1, 1], 1.0), Euclidean, 0.01, 1000.0).unwrap();
        for i in 0..90u64 {
            let x = (i as f64 * 0.618_033_988_7).fract() * 100.0;
            sw.insert(cp(x, (i % 2) as u32));
        }
        let stats = sw.memory_stats();
        assert_eq!(stats.num_guesses(), sw.guesses().count());
        assert_eq!(stats.auxiliary, 0);
        assert_eq!(
            stats.stored_points(),
            sw.guesses().map(GuessState::stored_points).sum::<usize>()
        );
        // Ascending-γ order.
        for pair in stats.per_guess.windows(2) {
            assert!(pair[0].gamma < pair[1].gamma);
        }
        // The arena dedup: payloads never exceed entries, and entries
        // reference at least one payload each.
        assert!(stats.unique_points <= stats.stored_points());
        assert!(stats.unique_points > 0);
        assert!(stats.payload_bytes > 0);
        // No payload exceeds the window: the arena never outlives expiry.
        assert!(stats.unique_points <= sw.window_size());
    }

    #[test]
    fn fairness_constraint_respected() {
        let mut sw =
            FairSlidingWindow::new(cfg(60, vec![2, 1], 1.0), Euclidean, 0.05, 500.0).unwrap();
        for i in 0..200u64 {
            let x = (i as f64 * 0.324_717_957_2).fract() * 250.0;
            sw.insert(cp(x, (i % 5 == 0) as u32));
        }
        let sol = sw.query().unwrap();
        let c0 = sol.centers.iter().filter(|c| c.color == 0).count();
        let c1 = sol.centers.iter().filter(|c| c.color == 1).count();
        assert!(c0 <= 2 && c1 <= 1, "budgets violated: {c0}, {c1}");
    }

    #[test]
    fn query_uses_small_guess_for_tight_window() {
        // All window points nearly coincide: the selected guess should be
        // near the bottom of the lattice, and the coreset tiny.
        let mut sw = FairSlidingWindow::new(cfg(20, vec![2], 1.0), Euclidean, 0.1, 1000.0).unwrap();
        for i in 0..40u64 {
            sw.insert(cp(500.0 + (i % 3) as f64 * 0.05, 0));
        }
        let sol = sw.query().unwrap();
        assert!(sol.guess <= 1.0, "guess {} too large", sol.guess);
    }

    #[test]
    fn memoized_queries_bit_identical_to_cold_engine() {
        // `warm` queries after every insert (exercising the memo and the
        // prefix skip); `cold` queries once at the end. Answers must be
        // bit-identical — the memo may only skip work, never change it.
        let mk = || FairSlidingWindow::new(cfg(50, vec![2, 1], 1.0), Euclidean, 1e-3, 1e4).unwrap();
        let (mut warm, mut cold) = (mk(), mk());
        for i in 0..200u64 {
            let x = (i as f64 * 0.618_033_988_7).fract() * 500.0;
            let p = cp(x, (i % 3 == 0) as u32);
            warm.insert(p.clone());
            cold.insert(p);
            let _ = warm.query();
        }
        let (a, b) = (warm.query().unwrap(), cold.query().unwrap());
        assert_eq!(a.guess.to_bits(), b.guess.to_bits());
        assert_eq!(a.coreset_size, b.coreset_size);
        assert_eq!(a.coreset_radius.to_bits(), b.coreset_radius.to_bits());
        assert_eq!(a.centers.len(), b.centers.len());
        for (ca, cb) in a.centers.iter().zip(&b.centers) {
            assert_eq!(ca.color, cb.color);
            let (xa, xb) = (ca.point.coords(), cb.point.coords());
            assert_eq!(xa.len(), xb.len());
            for (va, vb) in xa.iter().zip(xb) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
        // Repeat query at the same t hits the memo and stays identical.
        let again = warm.query().unwrap();
        assert_eq!(again.guess.to_bits(), a.guess.to_bits());
        // Reset clears the memo along with the state.
        warm.reset();
        assert!(matches!(warm.query(), Err(QueryError::EmptyWindow)));
    }

    #[test]
    fn arena_dedup_beats_per_guess_copies() {
        // Many guesses over a drifting stream: handle entries must
        // outnumber resident payloads by a wide margin — the whole point
        // of the interned arena.
        let mut sw =
            FairSlidingWindow::new(cfg(200, vec![2, 2], 1.0), Euclidean, 1e-3, 1e4).unwrap();
        for i in 0..600u64 {
            let x = (i as f64 * 0.618_033_988_7).fract() * 1000.0 + i as f64 * 0.3;
            sw.insert(cp(x, (i % 2) as u32));
        }
        let stats = sw.memory_stats();
        assert!(
            stats.stored_points() >= 3 * stats.unique_points,
            "expected entries ≫ payloads, got {} entries vs {} payloads",
            stats.stored_points(),
            stats.unique_points
        );
    }
}
