//! Query memoization: reuse work between queries when nothing changed.
//!
//! Every state change funnels through the insert/expire choke points in
//! [`guess`](crate::guess), so each per-guess state carries a revision
//! counter that bumps exactly when one of its families mutates. A query
//! records, alongside its result, the engine time it answered for and
//! the `(γ, rev)` prefix of guesses it proved *not* qualifying (too many
//! attractors, or no `≤ k` packing). The next query then
//!
//! * returns the memoized [`Solution`] outright when the engine time is
//!   unchanged (nothing was inserted, so nothing expired either), and
//! * skips re-scanning the leading guesses whose `(γ, rev)` pair still
//!   matches — their families are bit-for-bit the state already scanned.
//!
//! Both reuse paths return exactly the bytes the from-scratch scan would
//! produce; the differential suite enforces this.
//! The memo is interior-mutable (queries take `&self`) behind a `Mutex`,
//! and — like [`ScratchPool`](fairsw_metric::ScratchPool) — clones start
//! empty: a memo is never semantic state.
//!
//! Every variant drives the memo through two calls:
//! [`QueryMemo::scan`] wraps a guess scan (skip the proven prefix, scan
//! the rest, record the prefix the outcome proves), and
//! [`QueryMemo::query`] wraps the default-solver query (return the
//! result recorded at this time, or compute and record it). Only
//! `query` records a result: a result names its solver, so a
//! `query_with(solver)` scan records just the solver-independent prefix.

use crate::api::{QueryError, Solution};
use crate::guess_set::GuessSlot;
use std::fmt;
use std::sync::Mutex;

/// A memoized query result plus the qualification prefix it proved.
struct MemoInner<P> {
    /// Engine time the memo answers for.
    t: u64,
    /// The full result at `t`, when one was recorded.
    result: Option<Result<Solution<P>, QueryError>>,
    /// `(γ bits, rev)` of the leading guesses proven non-qualifying at
    /// `t` — still skippable later while both components match.
    prefix: Vec<(u64, u64)>,
}

/// Interior-mutable query memo carried by every variant (queries take
/// `&self`). Cleared on `reset`; never serialized; clones start empty.
pub(crate) struct QueryMemo<P> {
    inner: Mutex<MemoInner<P>>,
}

impl<P> Default for QueryMemo<P> {
    fn default() -> Self {
        QueryMemo {
            inner: Mutex::new(MemoInner {
                t: 0,
                result: None,
                prefix: Vec::new(),
            }),
        }
    }
}

/// Clones start empty — a memo is cached work, never semantic state.
impl<P> Clone for QueryMemo<P> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<P> fmt::Debug for QueryMemo<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryMemo").finish_non_exhaustive()
    }
}

impl<P: Clone> QueryMemo<P> {
    /// Runs a guess scan at engine time `t` over `guesses` (ascending
    /// `γ`): an empty engine (`t = 0`) answers
    /// [`QueryError::EmptyWindow`] without scanning; otherwise `scan`
    /// runs on the guesses after the prefix a previous scan proved
    /// non-qualifying at an identical `(γ, rev)` state, and the prefix
    /// this outcome proves is recorded. Qualification is
    /// solver-independent, so the skip is sound whatever solver `scan`
    /// runs.
    pub fn scan<G: GuessSlot>(
        &self,
        t: u64,
        guesses: &[G],
        scan: impl FnOnce(&[G]) -> Result<Solution<P>, QueryError>,
    ) -> Result<Solution<P>, QueryError> {
        if t == 0 {
            return Err(QueryError::EmptyWindow);
        }
        let pairs = || guesses.iter().map(|g| (g.gamma(), g.rev()));
        let result = scan(&guesses[self.skip_count(pairs())..]);
        self.record_prefix(t, prefix_for(pairs(), &result));
        result
    }

    /// The default-solver query at engine time `t`: the result recorded
    /// at `t` when there is one (inserts are the only mutation, so equal
    /// `t` means equal state), else `compute()`, recorded for the next
    /// query at `t`.
    pub fn query(
        &self,
        t: u64,
        compute: impl FnOnce() -> Result<Solution<P>, QueryError>,
    ) -> Result<Solution<P>, QueryError> {
        if let Some(hit) = self.cached(t) {
            return hit;
        }
        let result = compute();
        self.record_result(t, &result);
        result
    }

    /// The memoized result, when one was recorded at exactly time `t`.
    fn cached(&self, t: u64) -> Option<Result<Solution<P>, QueryError>> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.t == t {
            inner.result.clone()
        } else {
            None
        }
    }

    /// How many leading guesses of `guesses` (as `(γ, rev)` pairs, in
    /// scan order) the recorded prefix still covers — each was proven
    /// non-qualifying at an identical family state, so the scan may
    /// start after them.
    fn skip_count(&self, guesses: impl Iterator<Item = (f64, u64)>) -> usize {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        guesses
            .zip(inner.prefix.iter())
            .take_while(|((gamma, rev), (pg, pr))| gamma.to_bits() == *pg && *rev == *pr)
            .count()
    }

    /// Records the non-qualifying `(γ bits, rev)` prefix a scan proved
    /// at time `t`. Qualification (attractor count, packing fit) is
    /// solver-independent, so this is safe to record from
    /// a `query_with(solver)` scan for *any* solver; the full result is
    /// not (it names a solver), so this drops any memoized result.
    fn record_prefix(&self, t: u64, prefix: Vec<(u64, u64)>) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.t = t;
        inner.result = None;
        inner.prefix = prefix;
    }

    /// Records the default-solver result at time `t` (the same-`t` fast
    /// path for [`cached`](Self::cached)). Keeps a prefix already
    /// recorded at the same `t`; discards one recorded at another time.
    fn record_result(&self, t: u64, result: &Result<Solution<P>, QueryError>) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.t != t {
            inner.t = t;
            inner.prefix.clear();
        }
        inner.result = Some(result.clone());
    }

    /// Forgets everything (used by `reset`).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.t = 0;
        inner.result = None;
        inner.prefix.clear();
    }
}

/// Builds the non-qualifying prefix to record for a scan outcome over
/// `guesses` (ascending-γ `(γ, rev)` pairs): every guess strictly below
/// the winning `γ̂` for a solution, every guess when no guess qualified,
/// and nothing when the solver itself failed (the scan stopped early).
fn prefix_for<P>(
    guesses: impl Iterator<Item = (f64, u64)>,
    result: &Result<Solution<P>, QueryError>,
) -> Vec<(u64, u64)> {
    match result {
        Ok(sol) => guesses
            .take_while(|(gamma, _)| *gamma < sol.guess)
            .map(|(gamma, rev)| (gamma.to_bits(), rev))
            .collect(),
        Err(QueryError::NoValidGuess) => {
            guesses.map(|(gamma, rev)| (gamma.to_bits(), rev)).collect()
        }
        Err(_) => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SolutionExtras;
    use fairsw_metric::{Colored, EuclidPoint};

    fn sol(guess: f64) -> Solution<EuclidPoint> {
        Solution {
            centers: vec![Colored::new(EuclidPoint::new(vec![0.0]), 0)],
            guess,
            coreset_size: 1,
            coreset_radius: 0.0,
            extras: SolutionExtras::None,
        }
    }

    #[test]
    fn cached_hits_only_at_the_recorded_time() {
        let memo: QueryMemo<EuclidPoint> = QueryMemo::default();
        assert!(memo.cached(0).is_none(), "empty memo never hits");
        memo.record_result(7, &Ok(sol(2.0)));
        assert!(memo.cached(6).is_none());
        assert!(memo.cached(8).is_none());
        let hit = memo.cached(7).expect("hit at recorded t");
        assert_eq!(hit.unwrap().guess, 2.0);
        memo.clear();
        assert!(memo.cached(7).is_none(), "cleared memo misses");
    }

    #[test]
    fn prefix_and_result_keep_independent_lifetimes() {
        let memo: QueryMemo<EuclidPoint> = QueryMemo::default();
        memo.record_prefix(4, vec![(1.0f64.to_bits(), 1)]);
        memo.record_result(4, &Ok(sol(2.0)));
        assert!(memo.cached(4).is_some());
        assert_eq!(memo.skip_count([(1.0, 1u64)].iter().copied()), 1);
        // A prefix recorded at a new time drops the stale result…
        memo.record_prefix(5, vec![(1.0f64.to_bits(), 2)]);
        assert!(memo.cached(4).is_none());
        assert!(memo.cached(5).is_none());
        // …and a result at a new time drops the stale prefix.
        memo.record_result(6, &Ok(sol(2.0)));
        assert_eq!(memo.skip_count([(1.0, 2u64)].iter().copied()), 0);
    }

    #[test]
    fn skip_count_requires_matching_gamma_and_rev() {
        let memo: QueryMemo<EuclidPoint> = QueryMemo::default();
        memo.record_prefix(3, vec![(1.0f64.to_bits(), 5), (2.0f64.to_bits(), 9)]);
        let same = [(1.0, 5u64), (2.0, 9u64), (4.0, 1u64)];
        assert_eq!(memo.skip_count(same.iter().copied()), 2);
        let bumped = [(1.0, 5u64), (2.0, 10u64), (4.0, 1u64)];
        assert_eq!(
            memo.skip_count(bumped.iter().copied()),
            1,
            "rev mismatch stops the prefix"
        );
        let shifted = [(0.5, 5u64), (2.0, 9u64)];
        assert_eq!(
            memo.skip_count(shifted.iter().copied()),
            0,
            "γ mismatch stops the prefix"
        );
    }

    #[test]
    fn prefix_covers_losers_below_the_winner() {
        let guesses = [(1.0, 1u64), (2.0, 2u64), (4.0, 3u64), (8.0, 4u64)];
        let p = prefix_for(guesses.iter().copied(), &Ok(sol(4.0)));
        assert_eq!(p, vec![(1.0f64.to_bits(), 1), (2.0f64.to_bits(), 2)]);
        let all =
            prefix_for::<EuclidPoint>(guesses.iter().copied(), &Err(QueryError::NoValidGuess));
        assert_eq!(all.len(), 4, "no winner ⇒ every guess proven out");
        let none =
            prefix_for::<EuclidPoint>(guesses.iter().copied(), &Err(QueryError::EmptyWindow));
        assert!(none.is_empty(), "other errors record nothing");
    }

    #[test]
    fn scan_skips_the_proven_prefix_and_never_records_a_result() {
        use crate::guess::GuessState;
        let memo: QueryMemo<EuclidPoint> = QueryMemo::default();
        let guesses: Vec<GuessState> = [1.0, 2.0, 4.0].map(GuessState::new).into();
        let empty = memo.scan(0, &guesses, |_| unreachable!("t = 0 never scans"));
        assert!(matches!(empty, Err(QueryError::EmptyWindow)));
        // γ = 4 wins, proving γ = 1 and 2 out at unchanged revisions…
        let won = memo.scan(5, &guesses, |gs| {
            assert_eq!(gs.len(), 3);
            Ok(sol(4.0))
        });
        assert_eq!(won.unwrap().guess, 4.0);
        // …so a later scan starts at γ = 4.
        let _ = memo.scan(6, &guesses, |gs| {
            assert_eq!(gs.len(), 1);
            Ok(sol(4.0))
        });
        // The scan at t = 6 recorded no result: the first default-solver
        // query there computes, and only a repeat hits.
        let mut computed = 0;
        for _ in 0..2 {
            let r = memo.query(6, || {
                computed += 1;
                Ok(sol(4.0))
            });
            assert_eq!(r.unwrap().guess, 4.0);
        }
        assert_eq!(computed, 1);
    }
}
