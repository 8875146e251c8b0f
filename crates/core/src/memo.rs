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

use crate::api::{QueryError, Solution};
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
    /// The memoized result, when one was recorded at exactly time `t`.
    pub fn cached(&self, t: u64) -> Option<Result<Solution<P>, QueryError>> {
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
    pub fn skip_count(&self, guesses: impl Iterator<Item = (f64, u64)>) -> usize {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        guesses
            .zip(inner.prefix.iter())
            .take_while(|((gamma, rev), (pg, pr))| gamma.to_bits() == *pg && *rev == *pr)
            .count()
    }

    /// Records the non-qualifying `(γ bits, rev)` prefix a scan proved
    /// at time `t`. Qualification (attractor count, packing fit) is
    /// solver-independent, so this is safe to record from
    /// `query_with(solver)` for *any* solver; the full result is not
    /// (it names a solver), so this drops any memoized result.
    pub fn record_prefix(&self, t: u64, prefix: Vec<(u64, u64)>) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.t = t;
        inner.result = None;
        inner.prefix = prefix;
    }

    /// Records the default-solver result at time `t` (the same-`t` fast
    /// path for [`cached`](Self::cached)). Keeps a prefix already
    /// recorded at the same `t`; discards one recorded at another time.
    pub fn record_result(&self, t: u64, result: &Result<Solution<P>, QueryError>) {
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
pub(crate) fn prefix_for<P>(
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
}
