//! Sliding-window **matroid** center: the paper's algorithm generalized
//! from partition-matroid fairness to arbitrary matroid constraints over
//! colors (laminar hierarchies, transversal slot systems, …).
//!
//! The paper observes (§2) that its fairness constraint is the partition-
//! matroid case of matroid center, and that its coreset construction
//! "can be immediately specialised" from matroid machinery. This module
//! walks the implication in the other direction: the per-attractor
//! representative maintenance generalizes from "≤ k_i per color, evict
//! the oldest of the same color" to "keep an independent set, and when
//! adding the newcomer creates a circuit, evict the **oldest element of
//! that circuit**" — for partition matroids the circuit is exactly the
//! over-capacity color class, recovering Algorithm 1 line 19 verbatim.
//! The matroid exchange property guarantees the rep set stays a maximal
//! independent set of its cluster's most recent points, which is all
//! Lemma 3 needs; Theorem 1's mapping argument then goes through with
//! `k = rank(M)`.
//!
//! The per-guess state is the shared [`GuessState`]: the validation
//! families, expiry, Cleanup and Update's validation side are those of
//! Algorithm 1 for every variant. Only the representative table differs:
//! each c-attractor keeps one list of times (`GuessState<Vec<u64>>`)
//! instead of one deque per color, and this module holds the coreset
//! rule that maintains it.
//!
//! `Query` selects the guess with the shared Algorithm 3 scan
//! (`k = rank`), then runs the generic Chen-et-al matroid-center solver
//! ([`fn@fairsw_sequential::matroid_center`], matroid-intersection based,
//! `α = 3`) on the coreset, resolved out of the shared arena only at
//! solution-assembly time
//! ([`fairsw_sequential::matroid_center_ids`]).
//!
//! Complexity note: circuit-eviction costs `O(|R_a|)` independence-oracle
//! calls per arrival and the generic query solver is much slower than the
//! matching-based partition solvers — use [`crate::FairSlidingWindow`]
//! when the constraint is a plain partition matroid.

use crate::api::{MemoryStats, QueryError, SlidingWindowClustering, Solution, SolutionExtras};
use crate::config::ConfigError;
use crate::guess::{CoresetEntry, GuessState};
use crate::guess_set::{query_over_guesses, GuessSet, QueryScratch};
use crate::memo::QueryMemo;
use fairsw_matroid::{with_buffer, Matroid, OverColors};
use fairsw_metric::{Colored, Metric, PointId, Resolver};
use fairsw_sequential::matroid_center_ids;
use fairsw_stream::Lattice;
use std::collections::BTreeMap;

/// Whether the colors of the representatives at `times` (without the
/// one at position `skip`) plus `color` are independent. The colors go
/// in a buffer that stays inline up to
/// [`INLINE_LEN`](fairsw_matroid::INLINE_LEN) elements, so the Update
/// allocates nothing for them.
fn independent_with<Mat: Matroid<u32>>(
    matroid: &Mat,
    r: &BTreeMap<u64, CoresetEntry>,
    times: &[u64],
    skip: Option<usize>,
    color: u32,
) -> bool {
    let len = times.len() + 1 - usize::from(skip.is_some());
    with_buffer(len, |cols: &mut [u32]| {
        let kept = (0..times.len()).filter(|&j| Some(j) != skip);
        let reps = kept.map(|j| r[&times[j]].color);
        for (slot, c) in cols.iter_mut().zip(reps.chain([color])) {
            *slot = c;
        }
        matroid.is_independent(cols)
    })
}

/// The matroid rule's coreset side: one list of representative times
/// per c-attractor, kept independent via circuit eviction.
impl GuessState<Vec<u64>> {
    /// Algorithm 1's per-guess body under a matroid constraint of rank
    /// `k`: the shared validation side, then the coreset side with
    /// circuit eviction.
    #[allow(clippy::too_many_arguments)] // internal; mirrors Algorithm 1's parameter list
    fn update<M: Metric, Mat: Matroid<u32>>(
        &mut self,
        metric: &M,
        res: Resolver<'_, M::Point>,
        t: u64,
        id: PointId,
        color: u32,
        matroid: &Mat,
        k: usize,
        delta: f64,
    ) {
        self.update_validation(metric, res, t, id, k);

        // Coreset side with circuit eviction.
        let p = res.get(id);
        let attach = delta * self.gamma / 2.0;
        // Prefer an attractor whose rep set accepts the newcomer without
        // eviction; fall back to the one with the smallest rep set (the
        // generalization of the paper's per-color argmin balancing).
        let mut no_evict: Option<u64> = None;
        let mut smallest: Option<(usize, u64)> = None;
        metric.scan_within(p, &self.a, res, attach, |row| {
            let ta = self.a.time(row);
            let times = self.reps.get(&ta).map(Vec::as_slice).unwrap_or(&[]);
            if no_evict.is_none() && independent_with(matroid, &self.r, times, None, color) {
                no_evict = Some(ta);
            }
            if smallest.is_none_or(|(len, _)| times.len() < len) {
                smallest = Some((times.len(), ta));
            }
        });
        match no_evict.or(smallest.map(|(_, ta)| ta)) {
            None => {
                // New c-attractor. A loop color (never independent even
                // alone) is still stored as an attractor (it must repel
                // nearby points) but cannot serve as a representative —
                // nevertheless we keep it in R for coverage accounting if
                // independent alone.
                self.a.push(t, id, metric.block_coords(p));
                res.acquire(id);
                if matroid.is_independent(&[color]) {
                    self.reps.insert(t, vec![t]);
                    self.r.insert(
                        t,
                        CoresetEntry {
                            id,
                            color,
                            attractor: t,
                        },
                    );
                    res.acquire(id);
                } else {
                    self.reps.insert(t, Vec::new());
                }
            }
            Some(ta) => {
                let times = self.reps.get_mut(&ta).expect("live attractor");
                let entry = CoresetEntry {
                    id,
                    color,
                    attractor: ta,
                };
                if independent_with(matroid, &self.r, times, None, color) {
                    times.push(t);
                    self.r.insert(t, entry);
                    res.acquire(id);
                } else {
                    // Circuit eviction: drop the oldest element whose
                    // removal restores independence (for partition
                    // matroids: the oldest same-color rep). If none does,
                    // the newcomer is itself a loop — skip it.
                    let evict = (0..times.len())
                        .find(|&i| independent_with(matroid, &self.r, times, Some(i), color));
                    if let Some(i) = evict {
                        let dead_t = times.remove(i);
                        if let Some(e) = self.r.remove(&dead_t) {
                            self.dead.release(res, e.id);
                        }
                        times.push(t);
                        self.r.insert(t, entry);
                        res.acquire(id);
                    }
                }
            }
        }
    }

    /// Structural invariants (test helper): the shared ones (with
    /// `k = rank`), then each live attractor's representatives sit in
    /// `R` under it and their colors are independent.
    fn check_invariants<M: Metric, Mat: Matroid<u32>>(
        &self,
        metric: &M,
        res: Resolver<'_, M::Point>,
        t: u64,
        n: u64,
        matroid: &Mat,
        delta: f64,
    ) -> Result<(), String> {
        self.check_shared(metric, res, t, n, matroid.rank(), delta)?;
        for (&a, times) in &self.reps {
            let colors = times
                .iter()
                .map(|&time| Ok(self.check_rep(metric, res, delta, a, time)?.color))
                .collect::<Result<Vec<u32>, String>>()?;
            if !matroid.is_independent(&colors) {
                return Err(format!("rep colors of attractor {a} not independent"));
            }
        }
        Ok(())
    }
}

/// Sliding-window matroid center under an arbitrary matroid over colors.
#[derive(Clone, Debug)]
pub struct MatroidSlidingWindow<M: Metric, Mat: Matroid<u32>> {
    pub(crate) metric: M,
    pub(crate) matroid: Mat,
    pub(crate) window_size: usize,
    pub(crate) delta: f64,
    pub(crate) k: usize,
    pub(crate) set: GuessSet<GuessState<Vec<u64>>, M::Point>,
    pub(crate) t: u64,
    pub(crate) scratch: QueryScratch<M::Point>,
    pub(crate) memo: QueryMemo<M::Point>,
}

impl<M: Metric, Mat: Matroid<u32>> MatroidSlidingWindow<M, Mat> {
    /// Creates the algorithm for a stream with pairwise distances in
    /// `[dmin, dmax]`, window length `window_size`, guess parameter
    /// `beta` and coreset precision `delta`, under `matroid` (over
    /// colors; its rank plays the role of `k`).
    pub fn new(
        metric: M,
        matroid: Mat,
        window_size: usize,
        beta: f64,
        delta: f64,
        dmin: f64,
        dmax: f64,
    ) -> Result<Self, ConfigError> {
        if window_size == 0 {
            return Err(ConfigError::ZeroWindow);
        }
        if !(beta.is_finite() && beta > 0.0) {
            return Err(ConfigError::BadBeta(beta));
        }
        if !(delta.is_finite() && delta > 0.0 && delta <= 4.0) {
            return Err(ConfigError::BadDelta(delta));
        }
        let set = GuessSet::new(Lattice::new(beta), dmin, dmax, GuessState::new)?;
        // A rank-0 constraint admits no center, so no query could ever
        // succeed — the matroid analogue of an all-zero budget.
        let k = matroid.rank();
        if k == 0 {
            return Err(ConfigError::NoCapacities);
        }
        Ok(MatroidSlidingWindow {
            metric,
            matroid,
            window_size,
            delta,
            k,
            set,
            t: 0,
            scratch: QueryScratch::default(),
            memo: QueryMemo::default(),
        })
    }

    /// The constraint's rank (plays the role of `k`).
    pub fn rank(&self) -> usize {
        self.k
    }

    /// Drops every streamed point and rebuilds empty structures from the
    /// retained configuration (same guess lattice, same matroid) — the
    /// delete-and-recreate reuse path of serving layers.
    pub fn reset(&mut self) {
        self.set.reset(GuessState::new);
        self.t = 0;
        self.memo.clear();
    }
}

impl<M, Mat> SlidingWindowClustering<M> for MatroidSlidingWindow<M, Mat>
where
    M: Metric + Sync,
    M::Point: Send + Sync,
    Mat: Matroid<u32> + Sync,
{
    /// Batch arrivals through the shared arrival protocol: the batch is
    /// interned once, then each guess replays it in stream order (the
    /// matroid oracle is shared read-only).
    fn insert_batch<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = Colored<M::Point>>,
    {
        let metric = &self.metric;
        let matroid = &self.matroid;
        let (k, delta) = (self.k, self.delta);
        let n = self.window_size as u64;
        self.t = self.set.arrive(batch, self.t, n, |g, res, t, cid| {
            g.update(metric, res, t, cid.point, cid.color, matroid, k, delta);
        });
    }

    /// Queries: the shared Algorithm 3 scan (`k = rank`), then the
    /// generic matroid-center solver on the coreset (resolved from the
    /// arena inside [`matroid_center_ids`] at solution assembly).
    /// Memoized like every variant's default-solver query.
    fn query(&self) -> Result<Solution<M::Point>, QueryError> {
        let res = self.set.store.resolver();
        let solve = |g: &GuessState<Vec<u64>>| {
            let ids: Vec<PointId> = g.r.values().map(|e| e.id).collect();
            let colors: Vec<u32> = g.r.values().map(|e| e.color).collect();
            let idx_matroid = OverColors::new(&colors, &self.matroid);
            let sol = matroid_center_ids(&self.metric, res, &ids, &idx_matroid)
                .map_err(QueryError::Solver)?;
            let centers = sol
                .centers
                .iter()
                .map(|&i| Colored::new(res.get(ids[i]).clone(), colors[i]))
                .collect();
            Ok(Solution {
                centers,
                guess: g.gamma,
                coreset_size: ids.len(),
                coreset_radius: sol.radius,
                extras: SolutionExtras::None,
            })
        };
        let scan = |guesses: &[GuessState<Vec<u64>>]| {
            query_over_guesses(&self.scratch, &self.metric, res, guesses, self.k, solve)
        };
        self.memo
            .query(self.t, || self.memo.scan(self.t, &self.set.guesses, scan))
    }

    fn time(&self) -> u64 {
        self.t
    }

    fn window_size(&self) -> usize {
        self.window_size
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
                self.window_size as u64,
                &self.matroid,
                self.delta,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsw_matroid::{Group, LaminarMatroid, PartitionMatroid};
    use fairsw_metric::{EuclidPoint, Euclidean};

    fn cp(x: f64, c: u32) -> Colored<EuclidPoint> {
        Colored::new(EuclidPoint::new(vec![x]), c)
    }

    #[test]
    fn partition_case_matches_fair_sliding_window() {
        // Same stream through both implementations; the matroid variant
        // under a partition matroid must deliver comparable quality.
        let caps = vec![1usize, 1];
        let part = PartitionMatroid::new(caps.clone()).unwrap();
        let mut generic =
            MatroidSlidingWindow::new(Euclidean, part, 80, 2.0, 1.0, 0.01, 1e4).unwrap();
        let cfg = crate::FairSWConfig::builder()
            .window_size(80)
            .capacities(caps)
            .beta(2.0)
            .delta(1.0)
            .build()
            .unwrap();
        let mut special = crate::FairSlidingWindow::new(cfg, Euclidean, 0.01, 1e4).unwrap();
        for i in 0..200u64 {
            let base = if i % 2 == 0 { 0.0 } else { 500.0 };
            let p = cp(base + (i as f64 * 0.618).fract() * 3.0, (i % 2) as u32);
            generic.insert(p.clone());
            special.insert(p);
        }
        let gs = generic.query().unwrap();
        let ss = special.query().unwrap();
        assert!(gs.centers.len() <= 2);
        // Same two-cluster geometry: both must land at cluster scale.
        assert!(
            gs.coreset_radius < 50.0,
            "generic radius {}",
            gs.coreset_radius
        );
        assert!(ss.coreset_radius < 50.0);
    }

    #[test]
    fn laminar_constraint_respected_over_stream() {
        // ≤1 center of color 0, ≤2 of {0,1} combined, ≤3 total.
        let lam = LaminarMatroid::new(vec![
            Group::new(vec![0], 1),
            Group::new(vec![0, 1], 2),
            Group::new(vec![0, 1, 2], 3),
        ])
        .unwrap();
        let mut sw =
            MatroidSlidingWindow::new(Euclidean, lam.clone(), 100, 2.0, 1.0, 0.01, 1e4).unwrap();
        for i in 0..300u64 {
            let base = (i % 3) as f64 * 400.0;
            sw.insert(cp(base + (i as f64 * 0.33).fract() * 4.0, (i % 3) as u32));
        }
        let sol = sw.query().unwrap();
        let cols: Vec<u32> = sol.centers.iter().map(|c| c.color).collect();
        assert!(
            lam.colors_independent(cols.iter().copied()),
            "laminar constraint violated: {cols:?}"
        );
        assert!(sol.centers.len() <= 3);
        // Three far clusters, ≤3 centers: covering radius stays at
        // cluster scale only if each cluster got a center.
        assert!(sol.coreset_radius < 200.0, "radius {}", sol.coreset_radius);
    }

    #[test]
    fn circuit_eviction_keeps_newest() {
        // One attractor; caps [1] with extra total group cap 1: each new
        // same-color point must replace the previous rep.
        let part = PartitionMatroid::new(vec![1]).unwrap();
        let mut sw = MatroidSlidingWindow::new(Euclidean, part, 50, 2.0, 4.0, 0.01, 100.0).unwrap();
        for i in 0..10u64 {
            sw.insert(cp(0.1 * i as f64, 0));
        }
        // Every guess's coreset holds at most rank-many points per
        // attractor; the newest point must be present somewhere.
        let sol = sw.query().unwrap();
        assert_eq!(sol.centers.len(), 1);
        assert!(sol.coreset_radius < 2.0);
    }

    #[test]
    fn memory_stays_bounded() {
        let part = PartitionMatroid::new(vec![1, 1]).unwrap();
        let mut sw = MatroidSlidingWindow::new(Euclidean, part, 60, 2.0, 1.0, 0.01, 1e4).unwrap();
        let mut peak_early = 0usize;
        for i in 0..600u64 {
            let x = (i as f64 * 0.445).fract() * 900.0;
            sw.insert(cp(x, (i % 2) as u32));
            if i < 120 {
                peak_early = peak_early.max(sw.stored_points());
            }
        }
        assert!(
            sw.stored_points() <= 2 * peak_early + 64,
            "memory grew with stream length"
        );
        // Arena payloads are the deduplicated union, never more than the
        // handle entries.
        let stats = sw.memory_stats();
        assert!(stats.unique_points <= stats.stored_points());
    }

    #[test]
    fn invariant_checker_covers_the_validation_families() {
        // A live matroid guess whose rep(·) loses a live v-attractor's
        // slot, or points it at a time missing from RV, must be reported.
        let part = PartitionMatroid::new(vec![1, 1]).unwrap();
        let mut sw = MatroidSlidingWindow::new(Euclidean, part, 60, 2.0, 1.0, 0.01, 1e4).unwrap();
        for i in 0..150u64 {
            sw.insert(cp((i as f64 * 0.445).fract() * 900.0, (i % 2) as u32));
        }
        sw.check_invariants().unwrap();
        for (missing_slot, expected) in
            [(true, "lacks a representative"), (false, "missing from RV")]
        {
            let mut bad = sw.clone();
            let g = bad.set.guesses.iter_mut().find(|g| !g.av.is_empty());
            let g = g.expect("a guess with a live v-attractor");
            let v = *g.av.keys().next().unwrap();
            if missing_slot {
                g.rep_of.remove(&v);
            } else {
                g.rep_of.insert(v, u64::MAX);
            }
            let err = bad.check_invariants().expect_err(expected);
            assert!(err.contains(expected), "{expected}: got {err}");
        }
    }

    #[test]
    fn empty_query_errors() {
        let part = PartitionMatroid::new(vec![1]).unwrap();
        let sw = MatroidSlidingWindow::new(Euclidean, part, 10, 2.0, 1.0, 0.1, 10.0).unwrap();
        assert!(matches!(sw.query(), Err(QueryError::EmptyWindow)));
    }

    #[test]
    fn config_validation() {
        let part = PartitionMatroid::new(vec![1]).unwrap();
        assert!(matches!(
            MatroidSlidingWindow::new(Euclidean, part.clone(), 0, 2.0, 1.0, 0.1, 1.0),
            Err(ConfigError::ZeroWindow)
        ));
        assert!(matches!(
            MatroidSlidingWindow::new(Euclidean, part.clone(), 5, -1.0, 1.0, 0.1, 1.0),
            Err(ConfigError::BadBeta(_))
        ));
        assert!(matches!(
            MatroidSlidingWindow::new(Euclidean, part, 5, 2.0, 9.0, 0.1, 1.0),
            Err(ConfigError::BadDelta(_))
        ));
    }
}
