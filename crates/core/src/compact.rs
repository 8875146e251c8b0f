//! The Corollary 2 variant: dimension-independent space.
//!
//! The coreset families (`A`, `repsC`, `R`) are dropped entirely; instead
//! each v-attractor's single representative is upgraded to a *maximal
//! independent set* of the most recent points it attracted (at most `k_i`
//! per color). `Query` selects the guess exactly as before and runs the
//! sequential algorithm on `RV` itself. This costs a weaker — but still
//! constant — approximation factor (`31 + O(ε)` with `β = ε`), in
//! exchange for `O(k² log Δ / ε)` space with **no** `(c/ε)^D` term: the
//! per-guess memory is at most a factor `k` larger than the plain
//! validation structures, regardless of the data's doubling dimension.
//!
//! The paper notes that running the main algorithm with `δ = 4` produces
//! a coreset "comparable in size to the validation set", i.e. this
//! variant; we implement it explicitly so the ablation benchmark can
//! compare the two (`ablation_compact`).
//!
//! Like every variant, the per-guess families hold arena handles; the
//! point payloads live once in the shared
//! [`PointStore`](fairsw_metric::PointStore).

use crate::algorithm::solve_fair;
use crate::api::{MemoryStats, QueryError, SlidingWindowClustering, Solution};
use crate::config::{ConfigError, FairSWConfig};
use crate::guess::CoresetEntry;
use crate::guess_set::{query_over_guesses, DeadList, GuessSet, GuessSlot, QueryScratch};
use crate::memo::QueryMemo;
use fairsw_metric::{Colored, ColoredId, Metric, PointId, Resolver};
use fairsw_sequential::{FairCenterSolver, Jones};
use fairsw_stream::Lattice;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Per-guess state of the compact variant. An `RV` entry has the shape
/// of a coreset entry: handle, color, and the v-attractor that
/// attracted it.
#[derive(Clone, Debug)]
pub(crate) struct CompactGuess {
    pub(crate) gamma: f64,
    /// v-attractors, pairwise `> 2γ`, at most `k+1` after Update.
    pub(crate) av: BTreeMap<u64, PointId>,
    /// Per-attractor, per-color representative times (sorted deques).
    pub(crate) reps_v: HashMap<u64, Vec<VecDeque<u64>>>,
    /// All representatives (current + orphans of dead attractors).
    pub(crate) rv: BTreeMap<u64, CoresetEntry>,
    /// Arena ids observed crossing refcount zero (owner drains).
    pub(crate) dead: DeadList,
    /// Revision counter for the query memo (bumps on family mutation).
    pub(crate) rev: u64,
}

impl GuessSlot for CompactGuess {
    fn gamma(&self) -> f64 {
        self.gamma
    }
    fn entries(&self) -> usize {
        self.stored_points()
    }
    fn expire<P>(&mut self, res: Resolver<'_, P>, te: u64) {
        let mut removed = false;
        if let Some(id) = self.av.remove(&te) {
            // Representatives are orphaned, not removed (same timing
            // invariant as the main algorithm: reps are never older than
            // their attractor, so an expiring rep's attractor is gone).
            self.reps_v.remove(&te);
            self.dead.release(res, id);
            removed = true;
        }
        if let Some(e) = self.rv.remove(&te) {
            self.dead.release(res, e.id);
            removed = true;
        }
        if removed {
            self.rev = self.rev.wrapping_add(1);
        }
    }
    fn drain_dead(&mut self, into: &mut Vec<PointId>) {
        self.dead.drain_into(into);
    }
    fn rev(&self) -> u64 {
        self.rev
    }
    fn av_len(&self) -> usize {
        self.av.len()
    }
    /// The packing never reads colors: handles only.
    fn rv_ids(&self) -> impl Iterator<Item = PointId> + '_ {
        self.rv.values().map(|e| e.id)
    }
}

impl CompactGuess {
    pub(crate) fn new(gamma: f64) -> Self {
        CompactGuess {
            gamma,
            av: BTreeMap::new(),
            reps_v: HashMap::new(),
            rv: BTreeMap::new(),
            dead: DeadList::default(),
            rev: 0,
        }
    }

    fn stored_points(&self) -> usize {
        self.av.len() + self.rv.len()
    }

    #[allow(clippy::too_many_arguments)] // internal; mirrors Algorithm 1's parameter list
    fn update<M: Metric>(
        &mut self,
        metric: &M,
        res: Resolver<'_, M::Point>,
        t: u64,
        id: PointId,
        color: u32,
        caps: &[usize],
        k: usize,
    ) {
        // Both branches insert into RV, so every arrival mutates.
        self.rev = self.rev.wrapping_add(1);
        let p = res.get(id);
        let two_gamma = 2.0 * self.gamma;
        let ci = color as usize;
        // ψ = attractor within 2γ with the fewest same-color reps (the
        // analog of the coreset side's balancing rule, which is what
        // keeps each attractor's rep set maximal w.r.t. its cluster).
        let psi = self
            .av
            .iter()
            .filter(|(_, &v)| metric.within(p, res.get(v), two_gamma))
            .min_by_key(|(&tv, _)| self.reps_v.get(&tv).map(|per| per[ci].len()).unwrap_or(0))
            .map(|(&tv, _)| tv);
        match psi {
            None => {
                self.av.insert(t, id);
                res.acquire(id);
                let mut per = vec![VecDeque::new(); caps.len()];
                per[ci].push_back(t);
                self.reps_v.insert(t, per);
                self.rv.insert(
                    t,
                    CoresetEntry {
                        id,
                        color,
                        attractor: t,
                    },
                );
                res.acquire(id);
                self.cleanup(res, k);
            }
            Some(v) => {
                let per = self.reps_v.get_mut(&v).expect("live attractor");
                per[ci].push_back(t);
                self.rv.insert(
                    t,
                    CoresetEntry {
                        id,
                        color,
                        attractor: v,
                    },
                );
                res.acquire(id);
                if per[ci].len() > caps[ci] {
                    let orem = per[ci].pop_front().expect("over cap");
                    if let Some(e) = self.rv.remove(&orem) {
                        self.dead.release(res, e.id);
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
            self.reps_v.remove(&oldest);
        }
        if self.av.len() == k + 1 {
            let tmin = *self.av.keys().next().expect("non-empty");
            // Prefix prune: only orphans can be below tmin (reps of live
            // attractors are younger than their attractor ≥ tmin).
            let keep = self.rv.split_off(&tmin);
            for (_, e) in std::mem::replace(&mut self.rv, keep) {
                self.dead.release(res, e.id);
            }
        }
    }

    /// Structural invariants (test helper).
    fn check_invariants<M: Metric>(
        &self,
        metric: &M,
        res: Resolver<'_, M::Point>,
        t: u64,
        n: u64,
        caps: &[usize],
        k: usize,
    ) -> Result<(), String> {
        let live = |time: u64| time + n > t;
        if self.av.len() > k + 1 {
            return Err(format!("|AV| = {} > k+1", self.av.len()));
        }
        let avs: Vec<_> = self.av.iter().collect();
        for i in 0..avs.len() {
            if !live(*avs[i].0) {
                return Err(format!("expired attractor {}", avs[i].0));
            }
            if res.try_get(*avs[i].1).is_none() {
                return Err(format!("attractor {} holds a collected id", avs[i].0));
            }
            for j in (i + 1)..avs.len() {
                if metric.dist(res.get(*avs[i].1), res.get(*avs[j].1)) <= 2.0 * self.gamma {
                    return Err("attractors within 2γ".into());
                }
            }
        }
        for (&time, e) in &self.rv {
            if !live(time) {
                return Err(format!("expired rv {time}"));
            }
            if res.try_get(e.id).is_none() {
                return Err(format!("rv {time} holds a collected id"));
            }
            if let Some(per) = self.reps_v.get(&e.attractor) {
                if !per[e.color as usize].contains(&time) {
                    return Err(format!("rv {time} untracked by live attractor"));
                }
                let d = metric.dist(res.get(e.id), res.get(self.av[&e.attractor]));
                if d > 2.0 * self.gamma + 1e-9 {
                    return Err(format!("rep {time} outside 2γ of attractor"));
                }
            }
        }
        for (&a, per) in &self.reps_v {
            if !self.av.contains_key(&a) {
                return Err(format!("reps_v for dead attractor {a}"));
            }
            for (ci, dq) in per.iter().enumerate() {
                if dq.len() > caps[ci] {
                    return Err(format!("reps_v^{ci}({a}) over capacity"));
                }
                for &time in dq {
                    if !self.rv.contains_key(&time) {
                        return Err(format!("tracked rep {time} missing from rv"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The Corollary 2 algorithm: validation-only structures, `O(1)`
/// approximation, space free of the doubling dimension.
#[derive(Clone, Debug)]
pub struct CompactFairSlidingWindow<M: Metric> {
    pub(crate) metric: M,
    pub(crate) cfg: FairSWConfig,
    pub(crate) k: usize,
    pub(crate) set: GuessSet<CompactGuess, M::Point>,
    pub(crate) t: u64,
    pub(crate) scratch: QueryScratch<M::Point>,
    pub(crate) memo: QueryMemo<M::Point>,
}

impl<M: Metric> CompactFairSlidingWindow<M> {
    /// Creates the compact algorithm for a stream with distances in
    /// `[dmin, dmax]`. Corollary 2 suggests `β = ε`; any positive `β`
    /// works, trading guesses for accuracy. The config's `delta` is
    /// ignored (there is no coreset side).
    pub fn new(cfg: FairSWConfig, metric: M, dmin: f64, dmax: f64) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let set = GuessSet::new(Lattice::new(cfg.beta), dmin, dmax, CompactGuess::new)?;
        Ok(CompactFairSlidingWindow {
            metric,
            k: cfg.k(),
            cfg,
            set,
            t: 0,
            scratch: QueryScratch::default(),
            memo: QueryMemo::default(),
        })
    }

    /// Drops every streamed point and rebuilds empty structures from the
    /// retained configuration (same guess lattice) — the
    /// delete-and-recreate reuse path of serving layers.
    pub fn reset(&mut self) {
        self.set.reset(CompactGuess::new);
        self.t = 0;
        self.memo.clear();
    }

    /// Queries with an explicit solver: the shared Algorithm 3 scan
    /// selects the guess exactly as in the main algorithm, then the
    /// sequential solver runs on `RV` directly (payload copies
    /// materialize only inside the solver's id-slice entry point).
    pub fn query_with<S>(&self, solver: &S) -> Result<Solution<M::Point>, QueryError>
    where
        S: FairCenterSolver<M> + Sync,
        M: Sync,
        M::Point: Send + Sync,
    {
        let res = self.set.store.resolver();
        self.memo.scan(self.t, &self.set.guesses, |guesses| {
            query_over_guesses(&self.scratch, &self.metric, res, guesses, self.k, |g| {
                let ids: Vec<ColoredId> =
                    g.rv.values().map(|e| Colored::new(e.id, e.color)).collect();
                let caps = &self.cfg.capacities;
                solve_fair(solver, &self.metric, res, &ids, caps, g.gamma)
            })
        })
    }
}

impl<M> SlidingWindowClustering<M> for CompactFairSlidingWindow<M>
where
    M: Metric + Sync,
    M::Point: Send + Sync,
{
    /// Batch arrivals through the shared arrival protocol: the batch is
    /// interned once, then each guess replays it in stream order.
    fn insert_batch<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = Colored<M::Point>>,
    {
        let metric = &self.metric;
        let caps = &self.cfg.capacities;
        let k = self.k;
        let n = self.cfg.window_size as u64;
        self.t = self.set.arrive(batch, self.t, n, |g, res, t, cid| {
            g.update(metric, res, t, cid.point, cid.color, caps, k);
        });
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
                &self.cfg.capacities,
                self.k,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsw_metric::{EuclidPoint, Euclidean};
    fn cfg(n: usize, caps: Vec<usize>) -> FairSWConfig {
        FairSWConfig::builder()
            .window_size(n)
            .capacities(caps)
            .beta(2.0)
            .build()
            .unwrap()
    }

    fn cp(x: f64, c: u32) -> Colored<EuclidPoint> {
        Colored::new(EuclidPoint::new(vec![x]), c)
    }

    #[test]
    fn roundtrip_and_invariants() {
        let mut sw =
            CompactFairSlidingWindow::new(cfg(40, vec![1, 1]), Euclidean, 0.05, 500.0).unwrap();
        for i in 0..150u64 {
            let x = (i as f64 * 0.618_033_988_7).fract() * 200.0;
            sw.insert(cp(x, (i % 2) as u32));
            if i % 10 == 0 {
                sw.check_invariants().unwrap();
            }
        }
        let sol = sw.query().unwrap();
        assert!(!sol.centers.is_empty());
        assert!(sol.centers.len() <= 2);
    }

    #[test]
    fn memory_at_most_k_times_validation() {
        // Per guess: |AV| ≤ k+1 and |RV| ≤ (k+1)·k + orphan slack; the
        // whole structure stays small even with a large window.
        let mut sw =
            CompactFairSlidingWindow::new(cfg(1000, vec![2, 2]), Euclidean, 0.05, 500.0).unwrap();
        for i in 0..3000u64 {
            let x = (i as f64 * 0.324_717_957_2).fract() * 300.0;
            sw.insert(cp(x, (i % 2) as u32));
        }
        let per_guess = sw.stored_points() / sw.num_guesses().max(1);
        assert!(
            per_guess <= 4 * (sw.k + 1) * (sw.k + 1),
            "per-guess memory {per_guess} too large"
        );
        assert!(
            sw.stored_points() < 1000,
            "compact variant beats the window"
        );
        // The arena holds each referenced point once: resident payloads
        // are bounded by the deduplicated union, far below the window.
        let stats = sw.memory_stats();
        assert!(stats.unique_points <= stats.stored_points());
        assert!(stats.unique_points < 1000);
    }

    #[test]
    fn empty_query_errors() {
        let sw = CompactFairSlidingWindow::new(cfg(10, vec![1]), Euclidean, 0.1, 10.0).unwrap();
        assert!(matches!(sw.query(), Err(QueryError::EmptyWindow)));
    }

    #[test]
    fn fairness_respected() {
        let mut sw =
            CompactFairSlidingWindow::new(cfg(50, vec![1, 2]), Euclidean, 0.05, 500.0).unwrap();
        for i in 0..200u64 {
            let x = (i as f64 * 0.445_041_867_9).fract() * 400.0;
            sw.insert(cp(x, (i % 3 == 0) as u32));
        }
        let sol = sw.query().unwrap();
        let c0 = sol.centers.iter().filter(|c| c.color == 0).count();
        let c1 = sol.centers.iter().filter(|c| c.color == 1).count();
        assert!(c0 <= 1 && c1 <= 2);
    }
}
