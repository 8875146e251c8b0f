//! The aspect-ratio-oblivious variant ("OursOblivious").
//!
//! The main algorithm needs `dmin`/`dmax` of the stream to lay out its
//! guess lattice. This variant estimates the relevant scale range *of the
//! current window* on the fly, maintaining guesses only inside it
//! (cf. the techniques of Pellizzoni et al. \[8\] adopted by the paper;
//! the `fairsw_stream::diameter` module documents our estimator):
//!
//! * the **upper** cutoff comes from a sliding-window diameter estimator
//!   (rotating anchors, lattice-quantized windowed maxima): guesses above
//!   the window diameter are redundant — the one just above it already
//!   yields a single cluster;
//! * the **lower** cutoff is the *invalidity frontier*: if a guess `γ` is
//!   invalid (`|AV| = k+1` points pairwise `> 2γ`), every smaller guess
//!   is invalid too (the same witness separates further), so guesses well
//!   below the largest invalid level are dead weight and are dropped,
//!   keeping one buffer level;
//! * when no materialized guess is invalid the range is extended
//!   downward a level at a time, bounded below by the windowed minimum of
//!   consecutive-arrival distances (a cheap `dmin` proxy; descent also
//!   stops as soon as a level turns invalid).
//!
//! Freshly materialized guesses have missed older window points, so they
//! cannot certify validity yet: a guess born at time `b` is **mature**
//! once it has processed every arrival of the current window
//! (`b + n - 1 ≤ t`, or `b = 1`). `Query` prefers mature guesses and
//! falls back to immature ones (best effort) only when no mature guess
//! qualifies — in the experiments this only happens during stream warm-up.
//! The returned [`Solution`] records that provenance in its
//! [`SolutionExtras::Oblivious`] annotation.

use crate::algorithm::solve_fair;
use crate::api::{MemoryStats, QueryError, SlidingWindowClustering, Solution, SolutionExtras};
use crate::config::{ConfigError, FairSWConfig};
use crate::guess::{Budgets, GuessState};
use crate::guess_set::{arena_stats, finish_arrival, query_over_guesses, QueryScratch};
use crate::memo::QueryMemo;
use fairsw_metric::{Colored, Metric, PointFootprint, PointStore};
use fairsw_sequential::{FairCenterSolver, Jones};
use fairsw_stream::{DiameterEstimator, Lattice, WindowedMinLattice};
use std::collections::BTreeMap;

/// A materialized guess plus its birth time (for maturity tracking).
#[derive(Clone, Debug)]
pub(crate) struct BornGuess {
    pub(crate) state: GuessState,
    pub(crate) born: u64,
}

/// The oblivious sliding-window algorithm: no prior scale knowledge.
#[derive(Clone, Debug)]
pub struct ObliviousFairSlidingWindow<M: Metric> {
    pub(crate) metric: M,
    pub(crate) cfg: FairSWConfig,
    pub(crate) k: usize,
    pub(crate) lattice: Lattice,
    /// Materialized guesses keyed by lattice level (ascending).
    pub(crate) guesses: BTreeMap<i32, BornGuess>,
    /// The shared interned arena the guesses' handles point into.
    pub(crate) store: PointStore<M::Point>,
    pub(crate) diam: DiameterEstimator<M>,
    /// Windowed minimum of consecutive-arrival distances: the descent
    /// floor for the lower cutoff.
    pub(crate) consec_min: WindowedMinLattice,
    /// Last arrival: the previous point of the consecutive-distance
    /// estimate, and the fallback for degenerate all-coincident windows.
    pub(crate) last: Option<Colored<M::Point>>,
    pub(crate) t: u64,
    pub(crate) scratch: QueryScratch<M::Point>,
    /// Same-`t` result memo only: the guess set is dynamic (levels are
    /// materialized and retired between arrivals), so no cross-arrival
    /// prefix skipping is attempted for this variant.
    pub(crate) memo: QueryMemo<M::Point>,
}

/// How many levels to keep below the invalidity frontier.
const LOWER_BUFFER: i32 = 1;
/// How many levels to keep above the diameter cutoff (hysteresis so a
/// flickering estimate does not churn guesses).
const UPPER_BUFFER: i32 = 2;
/// Extra levels allowed below the consecutive-distance floor.
const FLOOR_MARGIN: i32 = 3;

impl<M: Metric> ObliviousFairSlidingWindow<M> {
    /// Creates the oblivious algorithm (same configuration as the main
    /// one; no `dmin`/`dmax` needed).
    pub fn new(cfg: FairSWConfig, metric: M) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let lattice = Lattice::new(cfg.beta);
        let k = cfg.k();
        let n = cfg.window_size as u64;
        Ok(ObliviousFairSlidingWindow {
            diam: DiameterEstimator::new(metric.clone(), lattice, n),
            consec_min: WindowedMinLattice::new(lattice, n.max(2) - 1),
            metric,
            cfg,
            k,
            lattice,
            guesses: BTreeMap::new(),
            store: PointStore::new(),
            last: None,
            t: 0,
            scratch: QueryScratch::default(),
            memo: QueryMemo::default(),
        })
    }

    /// Drops every streamed point, all materialized guesses and both
    /// scale estimators, rebuilding the empty adaptive state from the
    /// retained configuration — the delete-and-recreate reuse path of
    /// serving layers.
    pub fn reset(&mut self) {
        let n = self.cfg.window_size as u64;
        self.guesses.clear();
        self.store = PointStore::new();
        self.diam = DiameterEstimator::new(self.metric.clone(), self.lattice, n);
        self.consec_min = WindowedMinLattice::new(self.lattice, n.max(2) - 1);
        self.last = None;
        self.t = 0;
        self.memo.clear();
    }

    /// Materializes / drops levels according to the current estimates.
    fn adjust_range(&mut self) {
        let upper = self.diam.upper().filter(|&u| u > 0.0);
        let Some(upper) = upper else {
            return; // no scale information yet (≤ 1 distinct point)
        };
        let hi = self.lattice.level_above(upper);

        // Materialize upward to hi (and keep UPPER_BUFFER hysteresis
        // before dropping anything above).
        let cur_hi = self.guesses.keys().next_back().copied();
        let start = match cur_hi {
            // Also bootstrap a few levels below the first estimate so the
            // query has a fine guess available quickly.
            None => hi - 6,
            Some(h) => h + 1,
        };
        for lvl in start..=hi {
            self.materialize(lvl);
        }
        // Drop far-above levels (returning their arena references).
        let too_high: Vec<i32> = self
            .guesses
            .keys()
            .copied()
            .filter(|&l| l > hi + UPPER_BUFFER)
            .collect();
        for l in too_high {
            self.retire(l);
        }

        // Lower cutoff: invalidity frontier among mature guesses.
        let n = self.cfg.window_size as u64;
        let mature = |g: &BornGuess| g.born == 1 || g.born + n - 1 <= self.t;
        let frontier = self
            .guesses
            .iter()
            .filter(|(_, g)| mature(g) && g.state.av_len() > self.k)
            .map(|(&l, _)| l)
            .next_back();
        match frontier {
            Some(f) => {
                // Guesses below an invalid level are invalid too: drop
                // everything below the buffer.
                let too_low: Vec<i32> = self
                    .guesses
                    .keys()
                    .copied()
                    .filter(|&l| l < f - LOWER_BUFFER)
                    .collect();
                for l in too_low {
                    self.retire(l);
                }
            }
            None => {
                // Everything valid: extend downward (one level per
                // arrival) until the floor.
                let floor = self
                    .consec_min
                    .min()
                    .map(|m| self.lattice.level_below(m) - FLOOR_MARGIN);
                if let (Some(&lo), Some(floor)) = (self.guesses.keys().next(), floor) {
                    if lo > floor {
                        self.materialize(lo - 1);
                    }
                }
            }
        }
    }

    fn materialize(&mut self, lvl: i32) {
        let gamma = self.lattice.value(lvl);
        let born = self.t;
        self.guesses.entry(lvl).or_insert_with(|| BornGuess {
            state: GuessState::new(gamma),
            born,
        });
    }

    /// Drops a materialized level, returning every arena reference its
    /// families held (owner-side; payloads referenced by no other guess
    /// are reclaimed immediately).
    fn retire(&mut self, lvl: i32) {
        if let Some(g) = self.guesses.remove(&lvl) {
            g.state.release_all(&mut self.store);
        }
    }

    /// Handles one arrival: scale estimation, guess-range maintenance,
    /// then Update on every materialized guess.
    fn arrive(&mut self, p: Colored<M::Point>) {
        self.t += 1;
        let t = self.t;
        let n = self.cfg.window_size as u64;
        let te = t.checked_sub(n);

        // Scale estimators.
        self.diam.push(t, &p.point);
        if let Some(prev) = &self.last {
            let d = self.metric.dist(&prev.point, &p.point);
            self.consec_min.push(t, d);
        } else {
            self.consec_min.expire(t);
        }
        self.last = Some(p.clone());

        self.adjust_range();

        let color = p.color;
        let id = self.store.insert(t, p.point);
        let metric = &self.metric;
        let budgets = Budgets {
            caps: &self.cfg.capacities,
            k: self.k,
            delta: self.cfg.delta,
        };
        let res = self.store.resolver();
        for g in self.guesses.values_mut() {
            if let Some(te) = te {
                g.state.expire(res, te);
            }
            g.state.update(metric, res, t, id, color, budgets);
        }
        let guesses = self.guesses.values_mut().map(|g| &mut g.state);
        finish_arrival(&mut self.store, guesses, te);
    }

    /// Queries the current window with an explicit coreset solver.
    /// Prefers mature guesses; falls back to immature ones, then to the
    /// newest point (degenerate windows where no scale information
    /// exists). The returned solution's `extras` records which path won.
    pub fn query_with<S>(&self, solver: &S) -> Result<Solution<M::Point>, QueryError>
    where
        S: FairCenterSolver<M> + Sync,
        M: Sync,
        M::Point: Send + Sync,
    {
        if self.t == 0 {
            return Err(QueryError::EmptyWindow);
        }
        let n = self.cfg.window_size as u64;
        let mature = |g: &BornGuess| g.born == 1 || g.born + n - 1 <= self.t;
        let res = self.store.resolver();

        let solve = |g: &GuessState| {
            let caps = &self.cfg.capacities;
            solve_fair(solver, &self.metric, res, &g.coreset_ids(), caps, g.gamma)
        };
        // Mature guesses first; immature ones (best effort) only when no
        // mature guess qualified.
        let attempt = |want_mature: bool| {
            let guesses = self.guesses.values().filter(|g| mature(g) == want_mature);
            let states = guesses.map(|g| &g.state);
            query_over_guesses(&self.scratch, &self.metric, res, states, self.k, &solve)
        };

        let annotated = |mut sol: Solution<M::Point>, mature: bool, fallback: bool| {
            sol.extras = SolutionExtras::Oblivious {
                mature,
                fallback,
                guess_range: self.guess_range(),
            };
            sol
        };

        match attempt(true) {
            Ok(sol) => Ok(annotated(sol, true, false)),
            Err(QueryError::NoValidGuess) => match attempt(false) {
                Ok(sol) => Ok(annotated(sol, false, false)),
                Err(QueryError::NoValidGuess) => {
                    // No guesses at all (e.g. all window points coincide):
                    // the newest point is an optimal center.
                    let last = self.last.clone().ok_or(QueryError::EmptyWindow)?;
                    Ok(annotated(
                        Solution {
                            centers: vec![last],
                            guess: 0.0,
                            coreset_size: 1,
                            coreset_radius: 0.0,
                            extras: SolutionExtras::None,
                        },
                        false,
                        true,
                    ))
                }
                Err(e) => Err(e),
            },
            Err(e) => Err(e),
        }
    }

    /// The materialized guess range `(γ_min, γ_max)`, if any — shows how
    /// the range tracks the current window's scale.
    pub fn guess_range(&self) -> Option<(f64, f64)> {
        let lo = self.guesses.keys().next()?;
        let hi = self.guesses.keys().next_back()?;
        Some((self.lattice.value(*lo), self.lattice.value(*hi)))
    }
}

impl<M> SlidingWindowClustering<M> for ObliviousFairSlidingWindow<M>
where
    M: Metric + Sync,
    M::Point: Send + Sync,
{
    /// Batch arrivals, one at a time in stream order: the scale
    /// estimators and the materialized guess range change between
    /// arrivals, so a batch cannot be replayed guess by guess.
    fn insert_batch<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = Colored<M::Point>>,
    {
        for p in batch {
            self.arrive(p);
        }
    }

    /// Query with the default solver, memoized on the engine time
    /// (repeat queries at unchanged `t` return the recorded result).
    fn query(&self) -> Result<Solution<M::Point>, QueryError> {
        self.memo.query(self.t, || self.query_with(&Jones))
    }

    fn time(&self) -> u64 {
        self.t
    }

    fn window_size(&self) -> usize {
        self.cfg.window_size
    }

    /// Per-guess counts plus the estimator anchors and the newest-point
    /// fallback as auxiliary storage. The payload-byte accounting folds
    /// in the auxiliary owned points (they live outside the arena).
    fn memory_stats(&self) -> MemoryStats {
        let aux_bytes = self.diam.payload_bytes()
            + self
                .last
                .as_ref()
                .map(|c| c.point.payload_bytes())
                .unwrap_or(0);
        arena_stats(self.guesses.values().map(|g| &g.state), &self.store)
            .with_auxiliary(self.diam.stored_points() + self.last.is_some() as usize)
            .with_extra_payload_bytes(aux_bytes)
    }

    fn stored_points(&self) -> usize {
        self.guesses
            .values()
            .map(|g| g.state.stored_points())
            .sum::<usize>()
            + self.diam.stored_points()
            + self.last.is_some() as usize
    }

    fn num_guesses(&self) -> usize {
        self.guesses.len()
    }

    /// Verifies per-guess invariants (test helper).
    fn check_invariants(&self) -> Result<(), String> {
        let res = self.store.resolver();
        for g in self.guesses.values() {
            g.state.check_invariants(
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
        let sw = ObliviousFairSlidingWindow::new(cfg(10, vec![1], 1.0), Euclidean).unwrap();
        assert!(matches!(sw.query(), Err(QueryError::EmptyWindow)));
    }

    #[test]
    fn single_point_fallback() {
        let mut sw = ObliviousFairSlidingWindow::new(cfg(10, vec![1], 1.0), Euclidean).unwrap();
        sw.insert(cp(3.0, 0));
        let sol = sw.query().unwrap();
        assert_eq!(sol.centers.len(), 1);
        assert_eq!(sol.coreset_radius, 0.0);
        assert!(matches!(
            sol.extras,
            SolutionExtras::Oblivious { fallback: true, .. }
        ));
    }

    #[test]
    fn coincident_points_fallback() {
        let mut sw = ObliviousFairSlidingWindow::new(cfg(10, vec![1], 1.0), Euclidean).unwrap();
        for _ in 0..30 {
            sw.insert(cp(7.0, 0));
        }
        let sol = sw.query().unwrap();
        assert_eq!(sol.centers.len(), 1);
        assert_eq!(sol.centers[0].point.coords(), &[7.0]);
    }

    #[test]
    fn tracks_two_clusters() {
        let mut sw = ObliviousFairSlidingWindow::new(cfg(60, vec![1, 1], 0.5), Euclidean).unwrap();
        for i in 0..240u64 {
            let base = if i % 2 == 0 { 0.0 } else { 100.0 };
            let x = base + ((i as f64) * 0.618_033_988_7).fract();
            sw.insert(cp(x, (i % 2) as u32));
            if i % 25 == 0 {
                sw.check_invariants().unwrap();
            }
        }
        let sol = sw.query().unwrap();
        assert!(sol.centers.len() <= 2);
        assert!(sol.coreset_radius < 50.0);
        // Past warm-up the winning guess must be mature, not a fallback.
        assert!(matches!(
            sol.extras,
            SolutionExtras::Oblivious {
                mature: true,
                fallback: false,
                ..
            }
        ));
    }

    #[test]
    fn guess_range_follows_window_scale() {
        // Phase 1: wide scatter. Phase 2: tight cluster. After phase 2
        // fills the window, high guesses must be dropped.
        let mut sw = ObliviousFairSlidingWindow::new(cfg(50, vec![1, 1], 1.0), Euclidean).unwrap();
        for i in 0..100u64 {
            let x = (i as f64 * 0.324_717_957_2).fract() * 1000.0;
            sw.insert(cp(x, (i % 2) as u32));
        }
        let (_, wide_hi) = sw.guess_range().unwrap();
        for i in 0..300u64 {
            let x = 500.0 + (i as f64 * 0.618_033_988_7).fract();
            sw.insert(cp(x, (i % 2) as u32));
        }
        sw.check_invariants().unwrap();
        let (tight_lo, tight_hi) = sw.guess_range().unwrap();
        assert!(
            tight_hi < wide_hi,
            "guess ceiling failed to shrink: {tight_hi} vs {wide_hi}"
        );
        assert!(
            tight_lo < 1.0,
            "guess floor {tight_lo} did not follow the fine scale"
        );
        let sol = sw.query().unwrap();
        // Window spread is < 1.0: the coreset radius must reflect that.
        assert!(sol.coreset_radius < 10.0);
    }

    #[test]
    fn memory_independent_of_stream_length() {
        let mut sw = ObliviousFairSlidingWindow::new(cfg(40, vec![1, 1], 1.0), Euclidean).unwrap();
        let mut peak_early = 0usize;
        for i in 0..800u64 {
            let x = (i as f64 * 0.445_041_867_9).fract() * 100.0;
            sw.insert(cp(x, (i % 2) as u32));
            if i < 80 {
                peak_early = peak_early.max(sw.stored_points());
            }
        }
        assert!(
            sw.stored_points() <= 2 * peak_early + 64,
            "memory grew with stream length"
        );
    }

    #[test]
    fn memory_stats_accounts_for_estimators() {
        let mut sw = ObliviousFairSlidingWindow::new(cfg(20, vec![1, 1], 1.0), Euclidean).unwrap();
        for i in 0..60u64 {
            sw.insert(cp((i as f64 * 0.618).fract() * 50.0, (i % 2) as u32));
        }
        let stats = sw.memory_stats();
        assert!(stats.auxiliary > 0, "estimator anchors not accounted");
        assert_eq!(stats.num_guesses(), sw.num_guesses());
        assert_eq!(stats.stored_points(), sw.stored_points());
    }
}
