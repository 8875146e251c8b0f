//! Per-guess state: validation points (`AV`, `RV`) and coreset points
//! (`A`, the representative tables, `R`) with the `Update` / `Cleanup`
//! logic of Algorithms 1–2 of the paper.
//!
//! One [`GuessState`] serves the fixed, oblivious, robust and matroid
//! variants. Only the representative table each c-attractor keeps
//! differs, and it is the type parameter:
//!
//! * the partition rule (the default, `Vec<VecDeque<u64>>`) keeps one
//!   deque of times per color (`repsC`): φ is the attractor with the
//!   fewest same-color representatives, and an overflow evicts that
//!   color's oldest one (Algorithm 1 lines 16–19);
//! * the matroid rule (`Vec<u64>`, in [`crate::matroid_window`]) keeps
//!   one list of times, independent under the constraint, repaired by
//!   circuit eviction.
//!
//! Expiry, Cleanup, Update's validation side and the invariants both
//! rules keep are written once, for any table. Query's guess selection
//! is one scan for every variant, `guess_set::query_over_guesses`.
//!
//! Every family is keyed by arrival time, which makes the three removal
//! patterns of the algorithm cheap and obviously correct:
//!
//! * **natural expiry** removes the single key `t - n`;
//! * **Cleanup's age filter** ("remove everything with TTL below the
//!   oldest v-attractor's") removes a *prefix* of keys;
//! * **min-TTL evictions** (oldest v-attractor, oldest same-color
//!   c-representative) pop the smallest key / the deque front.
//!
//! `AV`, `RV` and `R` are `BTreeMap`s. The c-attractors `A`, which every
//! arrival scans and which only the doubling dimension bounds, live in
//! an [`ArrivalBlock`]: new attractors arrive at the current time, so
//! the family is a ring appended at the back and trimmed at the front,
//! and the block stages each attractor's leading coordinates in tiles
//! that [`Metric::scan_within`] streams.
//!
//! Two timing invariants keep the bookkeeping free of back-references
//! (proved in the comments where they are used):
//!
//! 1. a representative never *precedes* its attractor (`t(rep) ≥
//!    t(attractor)`), so when a representative expires its attractor is
//!    already gone — natural expiry never has to fix a live attractor's
//!    representative table;
//! 2. Cleanup's age filter only ever removes *orphaned* representatives
//!    (reps of already-removed attractors), because live attractors are
//!    at least as old as the filter threshold and their reps are younger
//!    still.
//!
//! ## Interned storage
//!
//! Family entries hold 4-byte [`PointId`] handles into the algorithm's
//! shared [`PointStore`] arena rather than owned points: one resident
//! payload per live window point, however many
//! guesses and families reference it. Every entry holds one arena
//! reference — insertions `acquire`, removals `release` — and a release
//! that drops a point's count to zero records the id in this guess's
//! [`dead`](GuessState) scratch list, which the owning algorithm drains
//! once every guess has seen the arrival, to reclaim payloads the
//! moment no guess needs them.

use crate::guess_set::DeadList;
use fairsw_metric::{ArrivalBlock, Colored, ColoredId, Metric, PointId, PointStore, Resolver};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// The per-algorithm parameters threaded into every `Update`: the color
/// budgets `k_i`, their sum `k`, and the coreset precision `δ`.
#[derive(Clone, Copy, Debug)]
pub struct Budgets<'a> {
    /// Per-color budgets `k_1..k_ℓ`.
    pub caps: &'a [usize],
    /// Total budget `k = Σ k_i`.
    pub k: usize,
    /// Coreset precision `δ` (c-attractors are pairwise `> δγ/2`).
    pub delta: f64,
}

/// A coreset entry in `R`: handle, color, and the c-attractor it was
/// attracted by (used only for diagnostics/invariant checking — the
/// algorithm itself never follows the back-pointer, per invariant 1).
#[derive(Clone, Copy, Debug)]
pub(crate) struct CoresetEntry {
    pub id: PointId,
    pub color: u32,
    pub attractor: u64,
}

/// The state maintained for a single radius guess `γ`, with
/// representative tables of type `T` (module docs).
///
/// Points live in the algorithm's shared arena; the families below store
/// handles only, so the struct's footprint is independent of the point
/// dimensionality.
#[derive(Clone, Debug)]
pub struct GuessState<T = Vec<VecDeque<u64>>> {
    /// The guess value `γ`. (Fields are `pub(crate)` so the snapshot
    /// codec in [`crate::snapshot`] can serialize them directly.)
    pub(crate) gamma: f64,
    /// v-attractors `AV`: pairwise `> 2γ`, at most `k+1` after Update.
    pub(crate) av: BTreeMap<u64, PointId>,
    /// Current representative time of each live v-attractor.
    pub(crate) rep_of: HashMap<u64, u64>,
    /// v-representatives `RV` (current reps + orphans of dead attractors).
    pub(crate) rv: BTreeMap<u64, PointId>,
    /// c-attractors `A`: pairwise `> δγ/2`; size bounded by the doubling
    /// dimension (Theorem 2, Fact 2), not by an explicit cap. Rows in
    /// arrival order, with the metric's staged leading coordinates.
    pub(crate) a: ArrivalBlock,
    /// Each live c-attractor's representative times (`repsC` for the
    /// partition rule). Every list is sorted by arrival (the newest is
    /// always pushed last), so the oldest is at the front.
    pub(crate) reps: HashMap<u64, T>,
    /// Coreset `R`: union of the representative tables plus orphans.
    pub(crate) r: BTreeMap<u64, CoresetEntry>,
    /// Arena ids whose refcount this guess observed crossing zero —
    /// drained by the owner's reclaim pass after each arrival. Never
    /// observable between arrivals.
    pub(crate) dead: DeadList,
    /// Revision counter: bumps whenever a family mutates (`update`
    /// always inserts; `expire` bumps only when it removed something).
    /// Queries compare `(γ, rev)` pairs to skip re-scanning unchanged
    /// guesses. Not serialized — restored states restart at 0, which is
    /// safe because memos start empty too.
    pub(crate) rev: u64,
}

impl<T> GuessState<T> {
    /// Creates empty state for guess `gamma`.
    pub fn new(gamma: f64) -> Self {
        GuessState {
            gamma,
            av: BTreeMap::new(),
            rep_of: HashMap::new(),
            rv: BTreeMap::new(),
            a: ArrivalBlock::new(),
            reps: HashMap::new(),
            r: BTreeMap::new(),
            dead: DeadList::default(),
            rev: 0,
        }
    }

    /// The guess value `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The revision counter (bumps on every family mutation).
    pub fn rev(&self) -> u64 {
        self.rev
    }

    /// `|AV|` — the validity test: the guess is *valid* iff `|AV| ≤ k`.
    pub fn av_len(&self) -> usize {
        self.av.len()
    }

    /// Iterates the v-representative handles in arrival order (the set
    /// the Query validation packing runs on).
    pub fn rv_ids(&self) -> impl Iterator<Item = PointId> + '_ {
        self.rv.values().copied()
    }

    /// Resolves the v-representatives `RV` in arrival order.
    pub fn rv_points<'a, P>(&'a self, res: Resolver<'a, P>) -> impl Iterator<Item = &'a P> + 'a {
        self.rv.values().map(move |&id| res.get(id))
    }

    /// The coreset `R` as colored handles (what the id-slice solver entry
    /// points consume; no payloads are touched).
    pub fn coreset_ids(&self) -> Vec<ColoredId> {
        self.r
            .values()
            .map(|e| Colored::new(e.id, e.color))
            .collect()
    }

    /// Materializes the coreset `R` as owned colored points (tests and
    /// diagnostics; the query path stays on handles until solution
    /// assembly).
    pub fn coreset<P: Clone>(&self, res: Resolver<'_, P>) -> Vec<Colored<P>> {
        self.r
            .values()
            .map(|e| Colored::new(res.get(e.id).clone(), e.color))
            .collect()
    }

    /// `|R|` without materializing.
    pub fn coreset_len(&self) -> usize {
        self.r.len()
    }

    /// Total entries stored by this guess (`|AV| + |RV| + |A| + |R|`) —
    /// the paper's memory metric counts stored points across all sets.
    /// With the arena these are 8-byte handles, not payload copies.
    pub fn stored_points(&self) -> usize {
        self.av.len() + self.rv.len() + self.a.len() + self.r.len()
    }

    /// Releases every reference this guess holds (owner-side; used when a
    /// guess is retired wholesale, e.g. by the oblivious range
    /// adjustment).
    pub(crate) fn release_all<P>(&self, store: &mut PointStore<P>) {
        for &id in self.av.values().chain(self.rv.values()) {
            store.release_owned(id);
        }
        for (_, id) in self.a.iter() {
            store.release_owned(id);
        }
        for e in self.r.values() {
            store.release_owned(e.id);
        }
    }

    /// Removes the point that expires at time `te` from every family
    /// (Algorithm 1, first step). Call once per arrival with
    /// `te = t - n` before inserting the new point.
    pub fn expire<P>(&mut self, res: Resolver<'_, P>, te: u64) {
        let mut removed = false;
        if let Some(id) = self.av.remove(&te) {
            // The attractor dies; its current representative becomes an
            // orphan and stays in RV until it expires or Cleanup drops it.
            self.rep_of.remove(&te);
            self.dead.release(res, id);
            removed = true;
        }
        // Invariant 1: if rv contains te as the *current* rep of a live
        // attractor v, then t(v) ≤ te, so v expired at te or earlier —
        // i.e. this entry is an orphan (or v == te, handled above).
        if let Some(id) = self.rv.remove(&te) {
            self.dead.release(res, id);
            removed = true;
        }
        if let Some(id) = self.a.remove_front(te) {
            // Its representatives become orphans in R.
            self.reps.remove(&te);
            self.dead.release(res, id);
            removed = true;
        }
        // Same invariant on the coreset side: an expiring representative
        // cannot belong to a live c-attractor, so no table fix-up needed.
        if let Some(e) = self.r.remove(&te) {
            self.dead.release(res, e.id);
            removed = true;
        }
        if removed {
            self.rev = self.rev.wrapping_add(1);
        }
    }

    /// Update's validation side (Algorithm 1, lines 1, 3–10) for the
    /// arrival `id` at time `t`, the same under both coreset rules. Both
    /// of its branches insert into `RV`, so every arrival bumps the
    /// revision here.
    #[inline]
    pub(crate) fn update_validation<M: Metric>(
        &mut self,
        metric: &M,
        res: Resolver<'_, M::Point>,
        t: u64,
        id: PointId,
        k: usize,
    ) {
        self.rev = self.rev.wrapping_add(1);
        let p = res.get(id);
        let two_gamma = 2.0 * self.gamma;
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
    }

    /// `Cleanup` (Algorithm 2), invoked after a new v-attractor arrival.
    fn cleanup<P>(&mut self, res: Resolver<'_, P>, k: usize) {
        if self.av.len() == k + 2 {
            // Remove the v-attractor with minimum TTL (oldest arrival);
            // its representative is orphaned but stays in RV.
            let oldest = *self.av.keys().next().expect("non-empty");
            if let Some(id) = self.av.remove(&oldest) {
                self.dead.release(res, id);
            }
            self.rep_of.remove(&oldest);
        }
        if self.av.len() == k + 1 {
            // AV certifies the guess invalid until its oldest attractor
            // expires; anything older than that attractor is dead weight.
            let tmin = *self.av.keys().next().expect("non-empty");
            // Prefix removals (strictly below tmin). Invariant 2: every
            // removed rv/r entry is an orphan — live attractors have
            // arrival ≥ tmin and reps are younger than their attractor.
            let (reps, dead) = (&mut self.reps, &mut self.dead);
            self.a.drop_before(tmin, |ta, id| {
                reps.remove(&ta);
                dead.release(res, id);
            });
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

    /// Verifies the invariants both coreset rules keep at time `t` for
    /// window length `n`, validation threshold `k` and precision
    /// `delta`: every stored time is live and every handle resolves,
    /// `AV` holds at most `k + 1` attractors pairwise `> 2γ`, `A` is
    /// pairwise `> δγ/2`, `rep(·)` maps exactly the live v-attractors to
    /// `RV` entries no older than them, and every representative table
    /// belongs to a live c-attractor. Returns the first violation found.
    pub(crate) fn check_shared<M: Metric>(
        &self,
        metric: &M,
        res: Resolver<'_, M::Point>,
        t: u64,
        n: u64,
        k: usize,
        delta: f64,
    ) -> Result<(), String> {
        let live = |time: u64| time + n > t;
        // All stored times are active and all handles resolve.
        let av = self.av.iter().map(|(&t, &id)| (t, id));
        let rv = self.rv.iter().map(|(&t, &id)| (t, id));
        let r = self.r.iter().map(|(&t, e)| (t, e.id));
        for (time, id) in av.chain(self.a.iter()).chain(rv).chain(r) {
            if !live(time) {
                return Err(format!("expired entry {time} at t={t}"));
            }
            if res.try_get(id).is_none() {
                return Err(format!("entry {time} holds a collected arena id"));
            }
        }
        // AV bounded and pairwise > 2γ.
        if self.av.len() > k + 1 {
            return Err(format!("|AV| = {} > k+1", self.av.len()));
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
        // A pairwise > δγ/2.
        let cas: Vec<_> = self.a.iter().collect();
        for i in 0..cas.len() {
            for j in (i + 1)..cas.len() {
                if metric.dist(res.get(cas[i].1), res.get(cas[j].1)) <= delta * self.gamma / 2.0 {
                    return Err(format!(
                        "c-attractors {} and {} within δγ/2",
                        cas[i].0, cas[j].0
                    ));
                }
            }
        }
        // rep_of maps live attractors to live rv entries.
        for (&v, &rep) in &self.rep_of {
            if !self.av.contains_key(&v) {
                return Err(format!("rep_of references dead attractor {v}"));
            }
            if !self.rv.contains_key(&rep) {
                return Err(format!("rep_of[{v}] = {rep} missing from RV"));
            }
            if rep < v {
                return Err(format!("rep {rep} older than attractor {v}"));
            }
        }
        for &v in self.av.keys() {
            if !self.rep_of.contains_key(&v) {
                return Err(format!("live attractor {v} lacks a representative"));
            }
        }
        match self.reps.keys().find(|&&a| self.a.get(a).is_none()) {
            Some(a) => Err(format!("representative table for dead attractor {a}")),
            None => Ok(()),
        }
    }

    /// Checks that `time`, tracked as a representative of the live
    /// c-attractor `a`, sits in `R` under `a` within `δγ/2` of it, and
    /// returns its entry.
    pub(crate) fn check_rep<M: Metric>(
        &self,
        metric: &M,
        res: Resolver<'_, M::Point>,
        delta: f64,
        a: u64,
        time: u64,
    ) -> Result<&CoresetEntry, String> {
        let e = self
            .r
            .get(&time)
            .ok_or_else(|| format!("representative {time} missing from R"))?;
        if e.attractor != a {
            return Err(format!("R entry {time} attractor mismatch"));
        }
        let attractor = self
            .a
            .get(a)
            .ok_or_else(|| format!("representative table for dead attractor {a}"))?;
        let d = metric.dist(res.get(e.id), res.get(attractor));
        if d > delta * self.gamma / 2.0 + 1e-9 {
            return Err(format!(
                "rep {time} at distance {d} > δγ/2 from attractor {a}"
            ));
        }
        Ok(e)
    }
}

/// The partition rule's coreset side: per-color representative deques.
impl GuessState<Vec<VecDeque<u64>>> {
    /// Handles the arrival of the point behind `id` (color `color`) at
    /// time `t` — Algorithm 1's per-guess body (validation + coreset
    /// sides). The id must already be interned in the arena `res` views.
    pub fn update<M: Metric>(
        &mut self,
        metric: &M,
        res: Resolver<'_, M::Point>,
        t: u64,
        id: PointId,
        color: u32,
        b: Budgets<'_>,
    ) {
        let Budgets { caps, k, delta } = b;
        self.update_validation(metric, res, t, id, k);

        // ---- coreset side (Algorithm 1, lines 2, 11–20) ----------------------
        let p = res.get(id);
        let attach = delta * self.gamma / 2.0;
        let ci = color as usize;
        // φ = c-attractor within δγ/2 of p minimising |repsC^i| (line 16);
        // the first (oldest) one on ties.
        let mut phi: Option<(usize, u64)> = None;
        metric.scan_within(p, &self.a, res, attach, |row| {
            let ta = self.a.time(row);
            let reps = self.reps.get(&ta).map_or(0, |per| per[ci].len());
            if phi.is_none_or(|(fewest, _)| reps < fewest) {
                phi = Some((reps, ta));
            }
        });
        match phi.map(|(_, ta)| ta) {
            None => {
                // p becomes a new c-attractor with itself as its only rep.
                self.a.push(t, id, metric.block_coords(p));
                res.acquire(id);
                let mut per = vec![VecDeque::new(); caps.len()];
                per[ci].push_back(t);
                self.reps.insert(t, per);
                self.r.insert(
                    t,
                    CoresetEntry {
                        id,
                        color,
                        attractor: t,
                    },
                );
                res.acquire(id);
            }
            Some(a) => {
                let per = self
                    .reps
                    .get_mut(&a)
                    .expect("live c-attractor has a repsC table");
                per[ci].push_back(t);
                self.r.insert(
                    t,
                    CoresetEntry {
                        id,
                        color,
                        attractor: a,
                    },
                );
                res.acquire(id);
                if per[ci].len() > caps[ci] {
                    // Evict the same-color representative with minimum
                    // TTL = earliest arrival = deque front.
                    let orem = per[ci].pop_front().expect("len > cap ≥ 1");
                    if let Some(e) = self.r.remove(&orem) {
                        self.dead.release(res, e.id);
                    }
                }
            }
        }
    }

    /// Verifies the structural invariants of this guess at time `t` for
    /// window length `n`: the shared ones, then per-color caps, sorted
    /// deques, and `R` entries of the right color tracked by their live
    /// attractor. Used by tests and debug assertions; returns a
    /// description of the first violation found.
    pub fn check_invariants<M: Metric>(
        &self,
        metric: &M,
        res: Resolver<'_, M::Point>,
        t: u64,
        n: u64,
        b: Budgets<'_>,
    ) -> Result<(), String> {
        let Budgets { caps, k, delta } = b;
        self.check_shared(metric, res, t, n, k, delta)?;
        for (&a, per) in &self.reps {
            if per.len() != caps.len() {
                return Err("repsC color arity mismatch".into());
            }
            for (ci, dq) in per.iter().enumerate() {
                if dq.len() > caps[ci] {
                    return Err(format!("repsC^{ci}({a}) over capacity"));
                }
                if !dq.iter().is_sorted() {
                    return Err(format!("repsC deque of {a} unsorted"));
                }
                for &time in dq {
                    if self.check_rep(metric, res, delta, a, time)?.color as usize != ci {
                        return Err(format!("R entry {time} metadata mismatch"));
                    }
                }
            }
        }
        // Every R entry whose attractor is live must be listed in repsC.
        for (&time, e) in &self.r {
            if let Some(per) = self.reps.get(&e.attractor) {
                if !per[e.color as usize].contains(&time) {
                    return Err(format!("R entry {time} not tracked by its live attractor"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsw_metric::{EuclidPoint, Euclidean};

    fn p(x: f64) -> EuclidPoint {
        EuclidPoint::new(vec![x])
    }

    /// A guess plus its arena, driven in lockstep the way the algorithms
    /// drive them (expire → update → reclaim → epoch sweep).
    struct Harness {
        store: PointStore<EuclidPoint>,
        g: GuessState,
    }

    impl Harness {
        fn new(gamma: f64) -> Self {
            Harness {
                store: PointStore::new(),
                g: GuessState::new(gamma),
            }
        }

        fn step(&mut self, t: u64, n: u64, x: f64, color: u32, caps: &[usize], delta: f64) {
            let k: usize = caps.iter().sum();
            let te = t.checked_sub(n);
            let id = self.store.insert(t, p(x));
            let res = self.store.resolver();
            if let Some(te) = te {
                self.g.expire(res, te);
            }
            self.g
                .update(&Euclidean, res, t, id, color, Budgets { caps, k, delta });
            let mut dead = Vec::new();
            self.g.dead.drain_into(&mut dead);
            for id in dead {
                self.store.free_if_dead(id);
            }
            if let Some(te) = te {
                self.store.expire(te);
            }
        }

        fn check(&self, t: u64, n: u64, caps: &[usize], delta: f64) {
            let k: usize = caps.iter().sum();
            self.g
                .check_invariants(
                    &Euclidean,
                    self.store.resolver(),
                    t,
                    n,
                    Budgets { caps, k, delta },
                )
                .unwrap_or_else(|e| panic!("t={t}: {e}"));
        }
    }

    /// Drives a guess state over a 1-D stream with full checks.
    fn drive(gamma: f64, delta: f64, caps: &[usize], n: u64, xs: &[f64]) -> Harness {
        let mut h = Harness::new(gamma);
        for (i, &x) in xs.iter().enumerate() {
            let t = i as u64 + 1;
            let color = (i % caps.len()) as u32;
            h.step(t, n, x, color, caps, delta);
            h.check(t, n, caps, delta);
        }
        h
    }

    #[test]
    fn single_point_everywhere() {
        let h = drive(1.0, 1.0, &[1], 10, &[5.0]);
        assert_eq!(h.g.av_len(), 1);
        assert_eq!(h.g.coreset_len(), 1);
        assert_eq!(h.g.stored_points(), 4); // av + rv + a + r
        assert_eq!(h.store.live_points(), 1, "one payload behind 4 handles");
    }

    #[test]
    fn close_points_share_attractors() {
        // All points within 2γ of the first: one v-attractor; within
        // δγ/2: one c-attractor.
        let h = drive(10.0, 1.0, &[2], 100, &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(h.g.av_len(), 1);
        assert_eq!(h.g.a.len(), 1);
        // caps[0] = 2: coreset keeps the 2 newest.
        assert_eq!(h.g.coreset_len(), 2);
        let times: Vec<u64> = h.g.r.keys().copied().collect();
        assert_eq!(times, vec![3, 4]);
    }

    #[test]
    fn rv_keeps_latest_rep_per_attractor() {
        let h = drive(10.0, 1.0, &[1], 100, &[0.0, 1.0, 2.0]);
        // One attractor (t=1); rep replaced twice; RV = {newest}.
        assert_eq!(h.g.rv.len(), 1);
        assert!(h.g.rv.contains_key(&3));
    }

    #[test]
    fn cleanup_caps_av_at_k_plus_one() {
        // γ small: every distinct point is its own v-attractor. k = 1:
        // av must stay at ≤ 2 entries (k+1) after updates.
        let xs: Vec<f64> = (0..10).map(|i| i as f64 * 100.0).collect();
        let h = drive(1.0, 1.0, &[1], 100, &xs);
        assert_eq!(h.g.av_len(), 2);
        // The two newest attractors survive.
        assert!(h.g.av.contains_key(&9) && h.g.av.contains_key(&10));
    }

    #[test]
    fn cleanup_prunes_older_than_oldest_attractor() {
        // Same far-apart stream; after cleanup, coreset entries older
        // than the oldest v-attractor (t=9) must be gone — and their
        // payloads reclaimed from the arena, not just their handles.
        let xs: Vec<f64> = (0..10).map(|i| i as f64 * 100.0).collect();
        let h = drive(1.0, 1.0, &[1], 100, &xs);
        assert!(h.g.r.keys().all(|&t| t >= 9));
        assert!(h.g.a.times().all(|t| t >= 9));
        assert!(h.g.rv.keys().all(|&t| t >= 9));
        assert_eq!(
            h.store.live_points(),
            2,
            "cleanup must reclaim evicted payloads"
        );
    }

    #[test]
    fn expiry_removes_all_traces() {
        let xs: Vec<f64> = (0..8).map(|i| i as f64).collect();
        // n = 3: by t=8 only arrivals 6..8 are active.
        let h = drive(0.2, 1.0, &[1, 1], 3, &xs);
        assert!(h.g.av.keys().all(|&t| t >= 6));
        assert!(h.g.r.keys().all(|&t| t >= 6));
        assert!(h.g.stored_points() <= 4 * 3);
        assert!(h.store.live_points() <= 3, "arena bounded by the window");
    }

    #[test]
    fn orphaned_reps_survive_attractor_expiry() {
        // γ large: first point is the only v-attractor; n = 3.
        // t=1: attractor born. t=2,3: reps replace each other.
        // t=4: attractor (t=1) expires; the newest orphan rep must still
        // be in RV afterwards.
        let mut h = Harness::new(1000.0);
        let caps = [1usize];
        for t in 1..=4u64 {
            h.step(t, 3, t as f64, 0, &caps, 1.0);
            h.check(t, 3, &caps, 1.0);
        }
        // At t=4 the original attractor (t=1) expired. The arrival at
        // t=4 found no live attractor (t=1 was removed first), so it
        // became a new attractor. The orphan rep from t=3 must survive.
        assert!(h.g.rv.contains_key(&3), "orphan rep evicted too early");
        assert!(h.g.av.contains_key(&4));
    }

    #[test]
    fn per_color_caps_evict_oldest_of_that_color() {
        // One c-attractor; colors alternate 0,1; caps [1,2].
        let mut h = Harness::new(10.0);
        let caps = [1usize, 2];
        let xs = [0.0, 0.1, 0.2, 0.3, 0.4];
        for (i, &x) in xs.iter().enumerate() {
            let t = i as u64 + 1;
            h.step(t, 100, x, (i % 2) as u32, &caps, 1.0);
        }
        // Arrivals: t1 c0, t2 c1, t3 c0, t4 c1, t5 c0.
        // Color 0 cap 1: keeps t5. Color 1 cap 2: keeps t2, t4.
        let times: Vec<u64> = h.g.r.keys().copied().collect();
        assert_eq!(times, vec![2, 4, 5]);
        h.check(5, 100, &caps, 1.0);
    }

    #[test]
    fn invariant_checker_detects_corruption() {
        let mut h = drive(10.0, 1.0, &[1], 100, &[0.0, 1.0]);
        // Corrupt: inject a duplicate v-attractor within 2γ.
        let fake = h.store.insert(99, p(0.5));
        h.g.av.insert(99, fake);
        h.g.rep_of.insert(99, 99);
        h.g.rv.insert(99, fake);
        assert!(h
            .g
            .check_invariants(
                &Euclidean,
                h.store.resolver(),
                99,
                1000,
                Budgets {
                    caps: &[1],
                    k: 1,
                    delta: 1.0
                }
            )
            .is_err());
    }

    #[test]
    fn release_all_returns_every_reference() {
        let mut h = drive(10.0, 1.0, &[2, 2], 100, &[0.0, 1.0, 30.0, 31.0]);
        h.g.release_all(&mut h.store);
        assert_eq!(h.store.live_points(), 0, "retired guess leaked payloads");
    }
}
