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
use crate::config::{validate_scale, ConfigError, FairSWConfig};
use crate::guess::{Budgets, GuessState};
use crate::guess_set::{replay_batch, GuessSet};
use crate::memo::{prefix_for, QueryMemo};
use fairsw_metric::{packing_scan, Colored, ColoredId, DistScratch, Metric, Resolver, ScratchPool};
use fairsw_sequential::{FairCenterSolver, Jones};
use fairsw_stream::Lattice;

/// The per-algorithm pool of reusable distance-staging buffers: each
/// query checks a [`DistScratch`] out for its guess scan and returns it,
/// so concurrent `&self` queries each stage into their own buffers and
/// steady-state queries gather and stage coresets without allocating.
/// Never semantic state — clones start empty, snapshots skip it.
pub(crate) type QueryScratch<P> = ScratchPool<DistScratch<P>>;

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
        validate_scale(dmin, dmax)?;
        let lattice = Lattice::new(cfg.beta);
        let span = lattice.span(dmin, dmax);
        let guesses = span
            .clone()
            .map(|lvl| GuessState::new(lattice.value(lvl)))
            .collect();
        let k = cfg.k();
        Ok(FairSlidingWindow {
            metric,
            cfg,
            k,
            lattice,
            set: GuessSet::new(guesses),
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
        let gammas: Vec<f64> = self.set.guesses.iter().map(|g| g.gamma).collect();
        self.set = GuessSet::new(gammas.into_iter().map(GuessState::new).collect());
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
        if self.t == 0 {
            return Err(QueryError::EmptyWindow);
        }
        // Skip the leading guesses a previous scan proved non-qualifying
        // at an identical `(γ, rev)` state — qualification is
        // solver-independent, so the skip is sound for any `solver`.
        let pairs: Vec<(f64, u64)> = self
            .set
            .guesses
            .iter()
            .map(|g| (g.gamma(), g.rev()))
            .collect();
        let skip = self.memo.skip_count(pairs.iter().copied());
        let guesses: Vec<(&GuessState, ())> =
            self.set.guesses[skip..].iter().map(|g| (g, ())).collect();
        let result = query_over_guesses(
            &self.scratch,
            &self.metric,
            self.set.store.resolver(),
            &guesses,
            self.k,
            &self.cfg.capacities,
            solver,
        )
        .map(|(sol, ())| sol);
        self.memo
            .record_prefix(self.t, prefix_for(pairs.iter().copied(), &result));
        result
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
    /// Handles one arrival: the point is interned once, then expiry of
    /// the outgoing point plus Update on every guess (Algorithm 1).
    fn insert(&mut self, p: Colored<M::Point>) {
        self.t += 1;
        let t = self.t;
        let te = t.checked_sub(self.cfg.window_size as u64);
        let id = self.set.store.insert(t, p.point);
        let metric = &self.metric;
        let budgets = Budgets {
            caps: &self.cfg.capacities,
            k: self.k,
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

    /// Batch arrivals: the whole batch is interned up front, then each
    /// guess replays it locally. Per-guess evolution is identical to
    /// repeated [`insert`](SlidingWindowClustering::insert) because
    /// guesses are mutually independent; payloads released mid-batch are
    /// reclaimed in the epilogue, so the arena transiently holds up to
    /// one batch of extra points.
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
            caps: &self.cfg.capacities,
            k: self.k,
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

    /// `Query` with the paper's default solver, memoized: repeat queries
    /// at an unchanged engine time return the recorded result (inserts
    /// are the only mutation, so equal `t` means equal state).
    fn query(&self) -> Result<Solution<M::Point>, QueryError> {
        if let Some(hit) = self.memo.cached(self.t) {
            return hit;
        }
        let result = self.query_with(&Jones);
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

/// Shared Query logic: scans `(guess, tag)` pairs in ascending-γ order,
/// applies the validation packing test, and solves on the first
/// qualifying coreset. Returns the tag with the solution so callers can
/// report which guess won. Used by the fixed and oblivious variants.
///
/// Per guess, `RV` is gathered out of the arena **once** into the
/// query's [`DistScratch`] view and the `2γ`-packing runs as a batched
/// minimum-distance scan ([`packing_scan`]) — one kernel call per packed
/// point instead of a pointwise `dist_to_set` per representative.
/// Payload copies are materialized only inside the solver's id-slice
/// entry point, at solution-assembly time.
#[allow(clippy::too_many_arguments)] // internal; mirrors the query's parameter list
pub(crate) fn query_over_guesses<M, S, T>(
    scratch: &QueryScratch<M::Point>,
    metric: &M,
    res: Resolver<'_, M::Point>,
    guesses: &[(&GuessState, T)],
    k: usize,
    caps: &[usize],
    solver: &S,
) -> Result<(Solution<M::Point>, T), QueryError>
where
    M: Metric + Sync,
    M::Point: Send + Sync,
    S: FairCenterSolver<M> + Sync,
    T: Copy + Send + Sync,
{
    scratch
        .with(|s| {
            guesses.iter().find_map(|&(g, tag)| {
                if g.av_len() > k {
                    return None; // invalid guess: γ is a lower bound on OPT
                }
                // Greedy 2γ-packing over RV (Algorithm 3 inner loop), staged.
                s.view.gather_ids(metric, res, g.rv_ids());
                packing_scan(
                    metric,
                    &s.view,
                    2.0 * g.gamma(),
                    k,
                    &mut s.dist,
                    &mut s.min_dist,
                    &mut s.packed,
                )?; // packing overflow: guess not qualified

                // Qualifying guess: solve on the coreset R. A solver error
                // on the winning guess is the query's outcome.
                let ids = g.coreset_ids();
                Some(
                    solver
                        .solve_ids(metric, res, &ids, caps)
                        .map_err(QueryError::from)
                        .map(|sol| {
                            (
                                Solution {
                                    centers: sol.centers,
                                    guess: g.gamma(),
                                    coreset_size: ids.len(),
                                    coreset_radius: sol.radius,
                                    extras: SolutionExtras::None,
                                },
                                tag,
                            )
                        }),
                )
            })
        })
        .unwrap_or(Err(QueryError::NoValidGuess))
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
