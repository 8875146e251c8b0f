//! The shared guess-collection scaffolding: one arena, many guesses.
//!
//! Every sliding-window variant maintains a set of per-guess states over
//! one interned [`PointStore`]. The memory accounting, the handle-reclaim
//! pass, the epoch sweep and Query's guess selection are identical
//! across variants — they drifted apart as copy-paste in earlier
//! revisions; this module states them once:
//!
//! * [`GuessSlot`] — what a per-guess state must expose (its `γ`, its
//!   entry count, its dead-id scratch, `|AV|` and `RV`) for the shared
//!   helpers to work. Two types implement it: the
//!   [`GuessState`](crate::guess::GuessState) that serves the fixed,
//!   oblivious, robust and matroid variants (only its representative
//!   table differs between the partition and matroid rules), and the
//!   compact variant's validation-only guess;
//! * [`GuessSet`] — the `Vec`-of-guesses + arena pair used by the fixed,
//!   compact, robust and matroid variants, with the uniform
//!   lattice construction, `memory_stats` / `stored_points` / arrival /
//!   `reset` implementations;
//! * [`finish_arrival`] / [`arena_stats`] — the same helpers over an
//!   arbitrary guess iterator, for the oblivious variant whose guesses
//!   live in a level-keyed map;
//! * [`query_over_guesses`] — Algorithm 3's guess selection, the one
//!   scan every variant's query runs; only the solve step differs.
//!
//! ## The arrival protocol
//!
//! Arrivals come in batches: a single `insert` is a one-point batch.
//! [`GuessSet::arrive`] runs the one owner-side sequence for a batch:
//!
//! 1. intern the batch's points ([`PointStore::insert`]);
//! 2. replay the batch guess by guess in stream order: each guess runs
//!    `expire` + `update` for every arrival before the next guess starts
//!    — guesses acquire/release arena references and record
//!    zero-crossings in their scratch lists;
//! 3. drain the scratch lists and free dead payloads, then run the
//!    window-expiry epoch sweep ([`finish_arrival`]).
//!
//! Guesses never read each other's state, so every guess evolves
//! exactly as under one-point batches, whatever the batch split. Step 3
//! is what keeps resident payloads at `O(Σ coreset sizes)`: a point
//! evicted from every guess is reclaimed at the end of the batch that
//! evicted it, long before it would leave the window.

use crate::api::{MemoryStats, QueryError, Solution};
use crate::config::{validate_scale, ConfigError};
use crate::guess::GuessState;
use fairsw_metric::{
    packing_scan, Colored, ColoredId, DistScratch, Metric, PointFootprint, PointId, PointStore,
    Resolver, ScratchPool,
};
use fairsw_stream::Lattice;

/// The per-algorithm pool of reusable distance-staging buffers: each
/// query checks a [`DistScratch`] out for its guess scan and returns it,
/// so concurrent `&self` queries each stage into their own buffers and
/// steady-state queries gather and stage coresets without allocating.
/// Never semantic state — clones start empty, snapshots skip it.
pub(crate) type QueryScratch<P> = ScratchPool<DistScratch<P>>;

/// The record-on-zero-crossing scratch every per-guess state carries:
/// releasing an arena reference through it records ids whose count
/// crossed zero, for the owner's [`reclaim_dead`] pass after the
/// dispatch. A plain field (not a `&mut self` method on the guess) so
/// call sites holding another family borrowed mutably can still release
/// — field borrows stay disjoint.
#[derive(Clone, Debug, Default)]
pub(crate) struct DeadList(Vec<PointId>);

impl DeadList {
    /// Releases one reference to `id`, recording the zero-crossing.
    #[inline]
    pub fn release<P>(&mut self, res: Resolver<'_, P>, id: PointId) {
        if res.release(id) {
            self.0.push(id);
        }
    }

    /// Moves the recorded ids into `into` (owner-side reclaim).
    pub fn drain_into(&mut self, into: &mut Vec<PointId>) {
        into.append(&mut self.0);
    }
}

/// The surface a per-guess state exposes to the shared collection
/// helpers and the guess-selection scan. Implemented by every variant's
/// guess type.
pub(crate) trait GuessSlot {
    /// The guess value `γ`.
    fn gamma(&self) -> f64;
    /// Stored handle entries across all families (the paper's per-guess
    /// memory metric).
    fn entries(&self) -> usize;
    /// Removes the point that expires at time `te` from every family.
    fn expire<P>(&mut self, res: Resolver<'_, P>, te: u64);
    /// Drains the ids whose refcount this guess observed crossing zero.
    fn drain_dead(&mut self, into: &mut Vec<PointId>);
    /// Revision counter for the query memo: bumps whenever a family
    /// mutates. The reclaim pass ([`finish_arrival`]) frees *payloads*
    /// only — family contents are untouched — so it never bumps this.
    fn rev(&self) -> u64;
    /// Bytes of coordinates staged beside the handles (the c-attractor
    /// block's heads); zero for guesses that stage none.
    fn staged_bytes(&self) -> usize {
        0
    }
    /// `|AV|`: the guess is valid iff it is at most `k`.
    fn av_len(&self) -> usize;
    /// The v-representative handles `RV` in arrival order (the set the
    /// validation packing runs on).
    fn rv_ids(&self) -> impl Iterator<Item = PointId> + '_;
}

impl<T> GuessSlot for GuessState<T> {
    fn gamma(&self) -> f64 {
        self.gamma
    }
    fn entries(&self) -> usize {
        self.stored_points()
    }
    fn expire<P>(&mut self, res: Resolver<'_, P>, te: u64) {
        GuessState::expire(self, res, te);
    }
    fn drain_dead(&mut self, into: &mut Vec<PointId>) {
        self.dead.drain_into(into);
    }
    fn rev(&self) -> u64 {
        self.rev
    }
    fn staged_bytes(&self) -> usize {
        self.a.staged_bytes()
    }
    fn av_len(&self) -> usize {
        self.av.len()
    }
    fn rv_ids(&self) -> impl Iterator<Item = PointId> + '_ {
        self.rv.values().copied()
    }
}

/// A variant's guesses plus the arena they intern into. The fixed,
/// compact, robust and matroid variants embed one of these; the shared
/// trait-impl plumbing (`memory_stats`, `stored_points`, the arrival
/// protocol, `reset`) lives here instead of being repeated per variant.
#[derive(Clone, Debug)]
pub(crate) struct GuessSet<G, P> {
    /// Per-guess states in ascending-γ order.
    pub guesses: Vec<G>,
    /// The shared interned point arena.
    pub store: PointStore<P>,
}

impl<G: GuessSlot, P> GuessSet<G, P> {
    /// One empty guess `fresh(γ)` per level of `lattice` spanning the
    /// stream's `[dmin, dmax]` (refused unless `0 < dmin ≤ dmax`, both
    /// finite), around an empty arena.
    pub fn new(
        lattice: Lattice,
        dmin: f64,
        dmax: f64,
        fresh: impl Fn(f64) -> G,
    ) -> Result<Self, ConfigError> {
        validate_scale(dmin, dmax)?;
        Ok(GuessSet {
            guesses: lattice
                .span(dmin, dmax)
                .map(|lvl| fresh(lattice.value(lvl)))
                .collect(),
            store: PointStore::new(),
        })
    }

    /// The uniform memory breakdown: per-guess handle-entry counts and
    /// staged coordinates plus the arena's deduplicated payload
    /// accounting.
    pub fn memory_stats(&self) -> MemoryStats
    where
        P: PointFootprint,
    {
        arena_stats(&self.guesses, &self.store)
    }

    /// Total stored entries (the paper's memory metric), allocation-free.
    pub fn stored_points(&self) -> usize {
        self.guesses.iter().map(G::entries).sum()
    }

    /// Drops every guess's state and the arena, keeping the guesses'
    /// `γ` values: `fresh(γ)` builds each empty guess.
    pub fn reset(&mut self, fresh: impl Fn(f64) -> G) {
        for g in &mut self.guesses {
            *g = fresh(g.gamma());
        }
        self.store = PointStore::new();
    }

    /// Runs the arrival protocol (module docs) for one batch: arrival
    /// `j` of the batch gets time `t0 + 1 + j`; guess `g` first expires
    /// the point that arrival pushes out of a window of length `window`,
    /// then `step(g, res, t, id)` runs the variant's Update for the
    /// arrival `id` at time `t`. Returns the post-batch clock. Payloads
    /// released mid-batch are reclaimed at the end, so the arena
    /// transiently holds up to one batch of extra points.
    pub fn arrive(
        &mut self,
        batch: impl IntoIterator<Item = Colored<P>>,
        t0: u64,
        window: u64,
        step: impl Fn(&mut G, Resolver<'_, P>, u64, ColoredId),
    ) -> u64 {
        let ids: Vec<ColoredId> = batch
            .into_iter()
            .enumerate()
            .map(|(j, p)| Colored::new(self.store.insert(t0 + 1 + j as u64, p.point), p.color))
            .collect();
        let res = self.store.resolver();
        for g in &mut self.guesses {
            for (j, &id) in ids.iter().enumerate() {
                let t = t0 + 1 + j as u64;
                if let Some(te) = t.checked_sub(window) {
                    g.expire(res, te);
                }
                step(g, res, t, id);
            }
        }
        let t = t0 + ids.len() as u64;
        finish_arrival(
            &mut self.store,
            self.guesses.iter_mut(),
            t.checked_sub(window),
        );
        t
    }
}

/// The arrival epilogue, run once every guess has seen the arrival:
/// drain every guess's dead-id scratch and free the payloads whose
/// refcount is (still) zero, then sweep the epoch that expired at `te`.
pub(crate) fn finish_arrival<'a, G, P>(
    store: &mut PointStore<P>,
    guesses: impl Iterator<Item = &'a mut G>,
    te: Option<u64>,
) where
    G: GuessSlot + 'a,
{
    let mut dead = Vec::new();
    for g in guesses {
        g.drain_dead(&mut dead);
    }
    for id in dead {
        store.free_if_dead(id);
    }
    if let Some(te) = te {
        store.expire(te);
    }
}

/// Query's guess selection (Algorithm 3), the one scan of every variant:
/// in ascending-γ order, skip guesses with `|AV| > k`, run the greedy
/// `2γ`-packing of `RV`, and hand the first guess whose packing stays
/// within `k` points to `solve`. `k` is the validation threshold (`k`,
/// a matroid's rank, or `k + z` for the robust variant). A solver error
/// on the winning guess is the query's outcome; no qualifying guess is
/// [`QueryError::NoValidGuess`].
///
/// Per guess, `RV` is gathered out of the arena **once** into the
/// query's [`DistScratch`] view and the packing runs as a batched
/// minimum-distance scan ([`packing_scan`]) — one kernel call per packed
/// point instead of a pointwise `dist_to_set` per representative.
pub(crate) fn query_over_guesses<'g, M, G>(
    scratch: &QueryScratch<M::Point>,
    metric: &M,
    res: Resolver<'_, M::Point>,
    guesses: impl IntoIterator<Item = &'g G>,
    k: usize,
    mut solve: impl FnMut(&'g G) -> Result<Solution<M::Point>, QueryError>,
) -> Result<Solution<M::Point>, QueryError>
where
    M: Metric,
    G: GuessSlot + 'g,
{
    scratch
        .with(|s| {
            guesses.into_iter().find_map(|g| {
                if g.av_len() > k {
                    return None; // invalid guess: γ is a lower bound on OPT
                }
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
                Some(solve(g))
            })
        })
        .unwrap_or(Err(QueryError::NoValidGuess))
}

/// Builds the uniform [`MemoryStats`] from the guesses' `(γ, entries)`
/// and staged coordinates plus the arena's deduplicated payload
/// accounting.
pub(crate) fn arena_stats<'a, G, P>(
    guesses: impl IntoIterator<Item = &'a G>,
    store: &PointStore<P>,
) -> MemoryStats
where
    G: GuessSlot + 'a,
    P: PointFootprint,
{
    let mut staged = 0;
    let stats = MemoryStats::from_guesses(guesses.into_iter().map(|g| {
        staged += g.staged_bytes();
        (g.gamma(), g.entries())
    }));
    stats
        .with_arena(store.live_points(), store.payload_bytes())
        .with_staged_bytes(staged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsw_metric::EuclidPoint;

    #[test]
    fn set_aggregates_entries_and_arena() {
        let mut set: GuessSet<GuessState, EuclidPoint> = GuessSet {
            guesses: vec![GuessState::new(1.0), GuessState::new(2.0)],
            store: PointStore::new(),
        };
        let id = set.store.insert(1, EuclidPoint::new(vec![1.0, 2.0]));
        // Simulate one guess storing the point in two families.
        set.store.resolver().acquire(id);
        set.store.resolver().acquire(id);
        set.guesses[0].av.insert(1, id);
        set.guesses[0].rv.insert(1, id);
        set.guesses[0].rep_of.insert(1, 1);
        assert_eq!(set.stored_points(), 2);
        let stats = set.memory_stats();
        assert_eq!(stats.num_guesses(), 2);
        assert_eq!(stats.unique_points, 1, "two handles, one payload");
        assert!(stats.payload_bytes > 0);
        // Epoch sweep after the refs are gone reclaims the payload.
        set.store.release_owned(id);
        set.guesses[0].av.clear();
        set.store.release_owned(id);
        set.guesses[0].rv.clear();
        finish_arrival(&mut set.store, set.guesses.iter_mut(), Some(1));
        assert_eq!(set.memory_stats().unique_points, 0);
    }
}
