//! The shared guess-collection scaffolding: one arena, many guesses.
//!
//! Every sliding-window variant maintains a set of per-guess states over
//! one interned [`PointStore`]. The memory accounting, the handle-reclaim
//! pass and the epoch sweep are identical across variants — they drifted
//! apart as copy-paste in earlier revisions; this module states them
//! once:
//!
//! * [`GuessSlot`] — what a per-guess state must expose (its `γ`, its
//!   entry count, its dead-id scratch) for the shared helpers to work;
//! * [`GuessSet`] — the `Vec`-of-guesses + arena pair used by the fixed,
//!   compact, robust and matroid variants, with the uniform
//!   `memory_stats` / `stored_points` / arrival-epilogue implementations;
//! * [`reclaim_dead`] / [`arena_stats`] — the same helpers over an
//!   arbitrary guess iterator, for the oblivious variant whose guesses
//!   live in a level-keyed map.
//!
//! ## The arrival protocol
//!
//! Each arrival follows one owner-side sequence, shared by the single
//! and batched insert paths of every variant:
//!
//! 1. intern the arriving point(s) ([`PointStore::insert`]);
//! 2. run per-guess `expire` + `update` — guesses acquire/release arena
//!    references and record zero-crossings in their scratch lists;
//! 3. [`GuessSet::finish_arrival`]: drain the scratch lists and free
//!    dead payloads, then run the window-expiry epoch sweep.
//!
//! Step 3 is what keeps resident payloads at `O(Σ coreset sizes)`: a
//! point evicted from every guess is reclaimed on the arrival that
//! evicted it, long before it would leave the window.

use crate::api::MemoryStats;
use fairsw_metric::{PointFootprint, PointId, PointStore, Resolver};

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
/// helpers. Implemented by every variant's guess type.
pub(crate) trait GuessSlot {
    /// The guess value `γ`.
    fn gamma(&self) -> f64;
    /// Stored handle entries across all families (the paper's per-guess
    /// memory metric).
    fn entries(&self) -> usize;
    /// Drains the ids whose refcount this guess observed crossing zero.
    fn drain_dead(&mut self, into: &mut Vec<PointId>);
    /// Revision counter for the query memo: bumps whenever a family
    /// mutates. The reclaim pass ([`reclaim_dead`]) frees *payloads*
    /// only — family contents are untouched — so it never bumps this.
    fn rev(&self) -> u64;
}

impl GuessSlot for crate::guess::GuessState {
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

/// A variant's guesses plus the arena they intern into. The fixed,
/// compact, robust and matroid variants embed one of these; the shared
/// trait-impl plumbing (`memory_stats`, `stored_points`, the arrival
/// epilogue) lives here instead of being repeated per variant.
#[derive(Clone, Debug)]
pub(crate) struct GuessSet<G, P> {
    /// Per-guess states in ascending-γ order.
    pub guesses: Vec<G>,
    /// The shared interned point arena.
    pub store: PointStore<P>,
}

impl<G: GuessSlot, P> GuessSet<G, P> {
    /// Wraps freshly constructed guesses around an empty arena.
    pub fn new(guesses: Vec<G>) -> Self {
        GuessSet {
            guesses,
            store: PointStore::new(),
        }
    }

    /// The uniform memory breakdown: per-guess handle-entry counts plus
    /// the arena's deduplicated payload accounting.
    pub fn memory_stats(&self) -> MemoryStats
    where
        P: PointFootprint,
    {
        arena_stats(
            self.guesses.iter().map(|g| (g.gamma(), g.entries())),
            &self.store,
        )
    }

    /// Total stored entries (the paper's memory metric), allocation-free.
    pub fn stored_points(&self) -> usize {
        self.guesses.iter().map(G::entries).sum()
    }

    /// The owner-side arrival epilogue: reclaim payloads the guesses
    /// released during the dispatch, then sweep the expired epoch.
    pub fn finish_arrival(&mut self, te: Option<u64>) {
        reclaim_dead(&mut self.store, self.guesses.iter_mut());
        if let Some(te) = te {
            self.store.expire(te);
        }
    }
}

/// Replays one batch over every guess: guess `g` sees arrival `j` of
/// the batch at time `t0 + 1 + j`, with the expiry threshold for a
/// window of length `window`. Returns the post-batch clock. Guesses
/// never read each other's state, so each one evolves exactly as under
/// repeated single inserts — the shared scaffolding behind every
/// `insert_batch` of the fixed, compact, robust and matroid variants.
pub(crate) fn replay_batch<G, P>(
    guesses: &mut [G],
    batch: &[P],
    t0: u64,
    window: u64,
    f: impl Fn(&mut G, u64, Option<u64>, &P),
) -> u64 {
    for g in guesses {
        for (j, p) in batch.iter().enumerate() {
            let t = t0 + 1 + j as u64;
            f(g, t, t.checked_sub(window), p);
        }
    }
    t0 + batch.len() as u64
}

/// Drains every guess's dead-id scratch and frees the payloads whose
/// refcount is (still) zero. Runs after every guess has seen the
/// arrival.
pub(crate) fn reclaim_dead<'a, G, P>(
    store: &mut PointStore<P>,
    guesses: impl Iterator<Item = &'a mut G>,
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
}

/// Builds the uniform [`MemoryStats`] from per-guess `(γ, entries)`
/// pairs plus the arena's deduplicated payload accounting.
pub(crate) fn arena_stats<P: PointFootprint>(
    per_guess: impl IntoIterator<Item = (f64, usize)>,
    store: &PointStore<P>,
) -> MemoryStats {
    MemoryStats::from_guesses(per_guess).with_arena(store.live_points(), store.payload_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guess::GuessState;
    use fairsw_metric::EuclidPoint;

    #[test]
    fn set_aggregates_entries_and_arena() {
        let mut set: GuessSet<GuessState, EuclidPoint> =
            GuessSet::new(vec![GuessState::new(1.0), GuessState::new(2.0)]);
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
        set.finish_arrival(Some(1));
        assert_eq!(set.memory_stats().unique_points, 0);
    }
}
