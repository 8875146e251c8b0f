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
//! `Query` runs the generic Chen-et-al matroid-center solver
//! ([`fn@fairsw_sequential::matroid_center`], matroid-intersection based,
//! `α = 3`) on the coreset, resolved out of the shared arena only at
//! solution-assembly time
//! ([`fairsw_sequential::matroid_center_ids`]).
//!
//! Complexity note: circuit-eviction costs `O(|R_a|)` independence-oracle
//! calls per arrival and the generic query solver is much slower than the
//! matching-based partition solvers — use [`crate::FairSlidingWindow`]
//! when the constraint is a plain partition matroid.

use crate::algorithm::QueryScratch;
use crate::api::{MemoryStats, QueryError, SlidingWindowClustering, Solution, SolutionExtras};
use crate::config::{validate_scale, ConfigError};
use crate::guess::CoresetEntry;
use crate::guess_set::{replay_batch, DeadList, GuessSet, GuessSlot};
use crate::memo::{prefix_for, QueryMemo};
use fairsw_matroid::{Matroid, OverColors};
use fairsw_metric::{packing_scan, Colored, ColoredId, Metric, PointId, Resolver};
use fairsw_sequential::matroid_center_ids;
use fairsw_stream::Lattice;
use std::collections::{BTreeMap, HashMap};

/// Per-guess state of the matroid variant (validation families identical
/// to the partition algorithm; coreset rep sets kept independent via
/// circuit eviction). All families hold arena handles.
#[derive(Clone, Debug)]
pub(crate) struct MatroidGuess {
    pub(crate) gamma: f64,
    pub(crate) av: BTreeMap<u64, PointId>,
    pub(crate) rep_of: HashMap<u64, u64>,
    pub(crate) rv: BTreeMap<u64, PointId>,
    pub(crate) a: BTreeMap<u64, PointId>,
    /// Per-attractor representative arrival times, sorted (push-back).
    pub(crate) reps: HashMap<u64, Vec<u64>>,
    /// Coreset entries: handle, color, attractor.
    pub(crate) r: BTreeMap<u64, CoresetEntry>,
    /// Arena ids observed crossing refcount zero (owner drains).
    pub(crate) dead: DeadList,
    /// Revision counter for the query memo (bumps on family mutation).
    pub(crate) rev: u64,
}

impl GuessSlot for MatroidGuess {
    fn gamma(&self) -> f64 {
        self.gamma
    }
    fn entries(&self) -> usize {
        self.stored_points()
    }
    fn drain_dead(&mut self, into: &mut Vec<PointId>) {
        self.dead.drain_into(into);
    }
    fn rev(&self) -> u64 {
        self.rev
    }
}

impl MatroidGuess {
    pub(crate) fn new(gamma: f64) -> Self {
        MatroidGuess {
            gamma,
            av: BTreeMap::new(),
            rep_of: HashMap::new(),
            rv: BTreeMap::new(),
            a: BTreeMap::new(),
            reps: HashMap::new(),
            r: BTreeMap::new(),
            dead: DeadList::default(),
            rev: 0,
        }
    }

    fn stored_points(&self) -> usize {
        self.av.len() + self.rv.len() + self.a.len() + self.r.len()
    }

    fn expire<P>(&mut self, res: Resolver<'_, P>, te: u64) {
        let mut removed = false;
        if let Some(id) = self.av.remove(&te) {
            self.rep_of.remove(&te);
            self.dead.release(res, id);
            removed = true;
        }
        if let Some(id) = self.rv.remove(&te) {
            self.dead.release(res, id);
            removed = true;
        }
        if let Some(id) = self.a.remove(&te) {
            self.reps.remove(&te);
            self.dead.release(res, id);
            removed = true;
        }
        // Timing invariant (same as the partition variant): an expiring
        // representative's attractor is at least as old, hence already
        // gone — no live rep list needs fixing.
        if let Some(e) = self.r.remove(&te) {
            self.dead.release(res, e.id);
            removed = true;
        }
        if removed {
            self.rev = self.rev.wrapping_add(1);
        }
    }

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
        // Both validation branches insert into RV, so every arrival
        // mutates this guess.
        self.rev = self.rev.wrapping_add(1);
        let p = res.get(id);
        let two_gamma = 2.0 * self.gamma;

        // Validation side: identical to Algorithm 1.
        let psi = self
            .av
            .iter()
            .find(|(_, &v)| metric.within(p, res.get(v), two_gamma))
            .map(|(&tv, _)| tv);
        match psi {
            None => {
                self.av.insert(t, id);
                res.acquire(id);
                self.rep_of.insert(t, t);
                self.rv.insert(t, id);
                res.acquire(id);
                self.cleanup(res, k);
            }
            Some(v) => {
                let old = self
                    .rep_of
                    .insert(v, t)
                    .expect("live v-attractor has a representative");
                if let Some(oid) = self.rv.remove(&old) {
                    self.dead.release(res, oid);
                }
                self.rv.insert(t, id);
                res.acquire(id);
            }
        }

        // Coreset side with circuit eviction.
        let attach = delta * self.gamma / 2.0;
        // Prefer an attractor whose rep set accepts the newcomer without
        // eviction; fall back to the one with the smallest rep set (the
        // generalization of the paper's per-color argmin balancing).
        let mut no_evict: Option<u64> = None;
        let mut smallest: Option<(usize, u64)> = None;
        for (&ta, &q) in &self.a {
            if !metric.within(p, res.get(q), attach) {
                continue;
            }
            let times = self.reps.get(&ta).map(Vec::as_slice).unwrap_or(&[]);
            let mut colors: Vec<u32> = times.iter().map(|tt| self.r[tt].color).collect();
            colors.push(color);
            if no_evict.is_none() && matroid.is_independent(&colors) {
                no_evict = Some(ta);
            }
            if smallest.is_none_or(|(len, _)| times.len() < len) {
                smallest = Some((times.len(), ta));
            }
        }
        match no_evict.or(smallest.map(|(_, ta)| ta)) {
            None => {
                // New c-attractor. A loop color (never independent even
                // alone) is still stored as an attractor (it must repel
                // nearby points) but cannot serve as a representative —
                // nevertheless we keep it in R for coverage accounting if
                // independent alone.
                self.a.insert(t, id);
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
                let mut colors: Vec<u32> = times.iter().map(|tt| self.r[tt].color).collect();
                colors.push(color);
                let entry = CoresetEntry {
                    id,
                    color,
                    attractor: ta,
                };
                if matroid.is_independent(&colors) {
                    times.push(t);
                    self.r.insert(t, entry);
                    res.acquire(id);
                } else {
                    // Circuit eviction: drop the oldest element whose
                    // removal restores independence (for partition
                    // matroids: the oldest same-color rep). If none does,
                    // the newcomer is itself a loop — skip it.
                    let mut evict: Option<usize> = None;
                    for i in 0..times.len() {
                        let cols: Vec<u32> = times
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| *j != i)
                            .map(|(_, tt)| self.r[tt].color)
                            .chain(std::iter::once(color))
                            .collect();
                        if matroid.is_independent(&cols) {
                            evict = Some(i);
                            break;
                        }
                    }
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

    fn cleanup<P>(&mut self, res: Resolver<'_, P>, k: usize) {
        if self.av.len() == k + 2 {
            let oldest = *self.av.keys().next().expect("non-empty");
            if let Some(id) = self.av.remove(&oldest) {
                self.dead.release(res, id);
            }
            self.rep_of.remove(&oldest);
        }
        if self.av.len() == k + 1 {
            let tmin = *self.av.keys().next().expect("non-empty");
            let keep_a = self.a.split_off(&tmin);
            for (dead_t, id) in std::mem::replace(&mut self.a, keep_a) {
                self.reps.remove(&dead_t);
                self.dead.release(res, id);
            }
            let keep_rv = self.rv.split_off(&tmin);
            for (_, id) in std::mem::replace(&mut self.rv, keep_rv) {
                self.dead.release(res, id);
            }
            let keep_r = self.r.split_off(&tmin);
            for (_, e) in std::mem::replace(&mut self.r, keep_r) {
                self.dead.release(res, e.id);
            }
        }
    }

    /// Structural invariants (test helper): liveness of every stored
    /// time, the `2γ` separation of `AV`, the `δγ/2` separation of `A`,
    /// and independence of every live attractor's representative colors.
    #[allow(clippy::too_many_arguments)] // internal checker; mirrors update's list
    fn check_invariants<M: Metric, Mat: Matroid<u32>>(
        &self,
        metric: &M,
        res: Resolver<'_, M::Point>,
        t: u64,
        n: u64,
        matroid: &Mat,
        k: usize,
        delta: f64,
    ) -> Result<(), String> {
        let live = |time: u64| time + n > t;
        for &time in self
            .av
            .keys()
            .chain(self.rv.keys())
            .chain(self.a.keys())
            .chain(self.r.keys())
        {
            if !live(time) {
                return Err(format!("expired entry {time} at t={t}"));
            }
        }
        for &id in self
            .av
            .values()
            .chain(self.rv.values())
            .chain(self.a.values())
        {
            if res.try_get(id).is_none() {
                return Err("entry holds a collected arena id".into());
            }
        }
        if self.av.len() > k + 1 {
            return Err(format!("|AV| = {} > rank+1", self.av.len()));
        }
        let avs: Vec<_> = self.av.iter().collect();
        for i in 0..avs.len() {
            for j in (i + 1)..avs.len() {
                if metric.dist(res.get(*avs[i].1), res.get(*avs[j].1)) <= 2.0 * self.gamma {
                    return Err(format!(
                        "v-attractors {} and {} within 2γ",
                        avs[i].0, avs[j].0
                    ));
                }
            }
        }
        let cas: Vec<_> = self.a.iter().collect();
        for i in 0..cas.len() {
            for j in (i + 1)..cas.len() {
                if metric.dist(res.get(*cas[i].1), res.get(*cas[j].1)) <= delta * self.gamma / 2.0 {
                    return Err(format!(
                        "c-attractors {} and {} within δγ/2",
                        cas[i].0, cas[j].0
                    ));
                }
            }
        }
        for (&a, times) in &self.reps {
            if !self.a.contains_key(&a) {
                return Err(format!("rep set for dead attractor {a}"));
            }
            let mut colors = Vec::with_capacity(times.len());
            for &time in times {
                match self.r.get(&time) {
                    None => return Err(format!("tracked rep {time} missing from R")),
                    Some(e) => {
                        if e.attractor != a {
                            return Err(format!("R entry {time} attractor mismatch"));
                        }
                        let Some(rp) = res.try_get(e.id) else {
                            return Err(format!("R entry {time} holds a collected id"));
                        };
                        let d = metric.dist(rp, res.get(self.a[&a]));
                        if d > delta * self.gamma / 2.0 + 1e-9 {
                            return Err(format!(
                                "rep {time} at distance {d} > δγ/2 from attractor {a}"
                            ));
                        }
                        colors.push(e.color);
                    }
                }
            }
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
    pub(crate) set: GuessSet<MatroidGuess, M::Point>,
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
        validate_scale(dmin, dmax)?;
        // A rank-0 constraint admits no center, so no query could ever
        // succeed — the matroid analogue of an all-zero budget.
        let k = matroid.rank();
        if k == 0 {
            return Err(ConfigError::NoCapacities);
        }
        let lattice = Lattice::new(beta);
        let guesses = lattice
            .span(dmin, dmax)
            .map(|lvl| MatroidGuess::new(lattice.value(lvl)))
            .collect();
        Ok(MatroidSlidingWindow {
            metric,
            matroid,
            window_size,
            delta,
            k,
            set: GuessSet::new(guesses),
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
        let gammas: Vec<f64> = self.set.guesses.iter().map(|g| g.gamma).collect();
        self.set = GuessSet::new(gammas.into_iter().map(MatroidGuess::new).collect());
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
    /// Handles one arrival (interned once, then Update on every guess;
    /// the matroid oracle is shared read-only).
    fn insert(&mut self, p: Colored<M::Point>) {
        self.t += 1;
        let t = self.t;
        let te = t.checked_sub(self.window_size as u64);
        let id = self.set.store.insert(t, p.point);
        let metric = &self.metric;
        let matroid = &self.matroid;
        let (k, delta) = (self.k, self.delta);
        let res = self.set.store.resolver();
        for g in &mut self.set.guesses {
            if let Some(te) = te {
                g.expire(res, te);
            }
            g.update(metric, res, t, id, p.color, matroid, k, delta);
        }
        self.set.finish_arrival(te);
    }

    /// Batch arrivals: the batch is interned up front and each guess
    /// replays it locally (identical evolution to repeated insert).
    fn insert_batch<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = Colored<M::Point>>,
    {
        let n = self.window_size as u64;
        let ids: Vec<ColoredId> = batch
            .into_iter()
            .enumerate()
            .map(|(j, p)| {
                let t = self.t + 1 + j as u64;
                Colored::new(self.set.store.insert(t, p.point), p.color)
            })
            .collect();
        let metric = &self.metric;
        let matroid = &self.matroid;
        let (k, delta) = (self.k, self.delta);
        let res = self.set.store.resolver();
        self.t = replay_batch(&mut self.set.guesses, &ids, self.t, n, |g, t, te, cid| {
            if let Some(te) = te {
                g.expire(res, te);
            }
            g.update(metric, res, t, cid.point, cid.color, matroid, k, delta);
        });
        self.set.finish_arrival(self.t.checked_sub(n));
    }

    /// Queries: validation packing as in Algorithm 3 (`k = rank`), then
    /// the generic matroid-center solver on the coreset (resolved from
    /// the arena inside [`matroid_center_ids`] at solution assembly).
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
            .map(|g| (GuessSlot::gamma(g), GuessSlot::rev(g)))
            .collect();
        let skip = self.memo.skip_count(pairs.iter().copied());
        let res = self.set.store.resolver();
        let result = self
            .scratch
            .with(|s| {
                self.set.guesses[skip..].iter().find_map(|g| {
                    if g.av.len() > self.k {
                        return None;
                    }
                    // Batched 2γ-packing over RV (k = rank).
                    s.view.gather_ids(&self.metric, res, g.rv.values().copied());
                    packing_scan(
                        &self.metric,
                        &s.view,
                        2.0 * g.gamma,
                        self.k,
                        &mut s.dist,
                        &mut s.min_dist,
                        &mut s.packed,
                    )?;
                    let ids: Vec<PointId> = g.r.values().map(|e| e.id).collect();
                    let colors: Vec<u32> = g.r.values().map(|e| e.color).collect();
                    let idx_matroid = OverColors::new(&colors, &self.matroid);
                    Some(
                        matroid_center_ids(&self.metric, res, &ids, &idx_matroid)
                            .map_err(QueryError::Solver)
                            .map(|sol| {
                                let centers = sol
                                    .centers
                                    .iter()
                                    .map(|&i| Colored::new(res.get(ids[i]).clone(), colors[i]))
                                    .collect();
                                Solution {
                                    centers,
                                    guess: g.gamma,
                                    coreset_size: ids.len(),
                                    coreset_radius: sol.radius,
                                    extras: SolutionExtras::None,
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
                self.k,
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
