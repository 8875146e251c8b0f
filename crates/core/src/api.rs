//! The unified streaming-clustering API.
//!
//! The paper defines one Update/Query contract that every variant shares:
//! points arrive one at a time, and at any moment the structure can be
//! asked for a constrained center set covering the current window. This
//! module states that contract once — the [`SlidingWindowClustering`]
//! trait — together with the common [`Solution`] answer type and the
//! uniform [`MemoryStats`] accounting, so that callers (the CLI, the
//! experiment harness, the examples, the serving layer) can drive
//! any variant through one polymorphic surface. The five implementors:
//!
//! * [`FairSlidingWindow`](crate::FairSlidingWindow) — "Ours";
//! * [`ObliviousFairSlidingWindow`](crate::ObliviousFairSlidingWindow) —
//!   "OursOblivious";
//! * [`CompactFairSlidingWindow`](crate::CompactFairSlidingWindow) — the
//!   Corollary 2 variant;
//! * [`RobustFairSlidingWindow`](crate::RobustFairSlidingWindow) — the
//!   outlier-tolerant extension;
//! * [`MatroidSlidingWindow`](crate::MatroidSlidingWindow) — arbitrary
//!   matroid constraints over colors.
//!
//! [`WindowEngine`](crate::WindowEngine) packages the five behind one
//! enum-dispatched value for heterogeneous collections.

use fairsw_metric::{Colored, Metric};
use fairsw_sequential::SolveError;
use std::fmt;

/// Errors a query can report.
#[derive(Clone, Debug)]
pub enum QueryError {
    /// No point has been inserted yet.
    EmptyWindow,
    /// No guess passed the validation test — with a properly spanned
    /// lattice this cannot happen; with an oblivious/truncated lattice it
    /// signals the structures are still warming up.
    NoValidGuess,
    /// The sequential solver failed on the coreset.
    Solver(SolveError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EmptyWindow => write!(f, "no points inserted yet"),
            QueryError::NoValidGuess => write!(f, "no guess passed validation"),
            QueryError::Solver(e) => write!(f, "coreset solver failed: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<SolveError> for QueryError {
    fn from(e: SolveError) -> Self {
        QueryError::Solver(e)
    }
}

/// Variant-specific annotations riding on a [`Solution`].
#[derive(Clone, Debug, Default)]
pub enum SolutionExtras<P> {
    /// Nothing beyond the common fields (fixed-lattice variants).
    #[default]
    None,
    /// The robust variant's outlier report.
    Robust {
        /// Coreset points the solver priced out (≤ `z`).
        outliers: Vec<Colored<P>>,
    },
    /// Provenance from the oblivious variant's adaptive guess range.
    Oblivious {
        /// Whether the winning guess had processed the whole window
        /// (immature guesses answer best-effort during warm-up).
        mature: bool,
        /// Whether the answer fell back to the newest point because no
        /// materialized guess existed (degenerate all-coincident window).
        fallback: bool,
        /// The materialized guess range `(γ_min, γ_max)` at query time.
        guess_range: Option<(f64, f64)>,
    },
}

/// A solution extracted from any sliding-window variant.
///
/// Subsumes the per-variant answer types: the common fields cover the
/// fixed, oblivious, compact and matroid variants; [`SolutionExtras`]
/// carries the robust variant's outliers and the oblivious variant's
/// provenance.
#[derive(Clone, Debug)]
pub struct Solution<P> {
    /// The selected centers (they satisfy the variant's constraint: at
    /// most `k_i` of color `i`, or an independent color set).
    pub centers: Vec<Colored<P>>,
    /// The guess `γ̂` whose structures produced the solution.
    pub guess: f64,
    /// Size of the point set handed to the sequential solver.
    pub coreset_size: usize,
    /// The solver-reported radius *over the coreset* (the radius over the
    /// full window is at most `coreset radius + δγ̂` by Lemma 2 P2; the
    /// harness measures the true window radius externally). For the
    /// robust variant this is the radius over the coreset *inliers*.
    pub coreset_radius: f64,
    /// Variant-specific annotations.
    pub extras: SolutionExtras<P>,
}

impl<P> Solution<P> {
    /// The outliers discarded by the robust variant (empty for others).
    pub fn outliers(&self) -> &[Colored<P>] {
        match &self.extras {
            SolutionExtras::Robust { outliers } => outliers,
            _ => &[],
        }
    }

    /// `outliers().len()` without borrowing gymnastics at call sites.
    pub fn num_outliers(&self) -> usize {
        self.outliers().len()
    }
}

/// Memory accounting of one radius guess.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GuessMemory {
    /// The guess value `γ`.
    pub gamma: f64,
    /// Entries stored by this guess's families (the paper counts stored
    /// points across `AV ∪ RV ∪ A ∪ R`). With the interned arena each
    /// entry is an 8-byte handle, not a point copy.
    pub points: usize,
}

/// Bytes of one guess-family entry: a 4-byte `PointId` handle plus a
/// 4-byte color tag. (Map keys and per-family overhead are excluded —
/// this is the paper's "stored points" metric priced in handle units.)
pub const HANDLE_ENTRY_BYTES: usize = 8;

/// Uniform memory breakdown reported by every variant.
///
/// Two axes are reported since the interned-arena refactor:
///
/// * **entries** ([`stored_points`](Self::stored_points), per-guess in
///   [`per_guess`]) — the paper's memory metric: how many family slots
///   the guesses occupy. Each is an 8-byte handle.
/// * **payloads** ([`unique_points`](Self::unique_points),
///   [`payload_bytes`](Self::payload_bytes)) — the deduplicated arena
///   side: how many distinct points are resident and what their
///   coordinate buffers weigh. Before the arena, every entry *was* a
///   payload copy; the ratio `stored_points / unique_points` is the
///   copy-reduction the arena delivers.
///
/// [`resident_bytes`](Self::resident_bytes) adds the coordinates staged
/// for the Update's radius scan ([`staged_bytes`](Self::staged_bytes)).
///
/// [`per_guess`]: Self::per_guess
#[derive(Clone, Debug, Default)]
pub struct MemoryStats {
    /// Per-guess handle-entry counts, in ascending-γ order.
    pub per_guess: Vec<GuessMemory>,
    /// Points stored outside the guess structures (the oblivious
    /// variant's diameter-estimator anchors and newest-point fallback;
    /// zero for the fixed-lattice variants). These are owned payloads,
    /// not arena handles.
    pub auxiliary: usize,
    /// Distinct live payloads in the interned arena.
    pub unique_points: usize,
    /// Heap bytes of those payloads (plus any auxiliary owned points a
    /// variant folds in).
    pub payload_bytes: usize,
    /// Bytes of coordinates staged beside the handles: each
    /// c-attractor's first `min(dim, 16)` coordinates, which the Update's
    /// radius scan streams instead of resolving the arena (zero for
    /// metrics that stage none).
    pub staged_bytes: usize,
}

impl MemoryStats {
    /// Builds the stats from per-guess `(γ, points)` pairs in
    /// ascending-γ order (the shape every variant reports).
    pub fn from_guesses<I>(guesses: I) -> Self
    where
        I: IntoIterator<Item = (f64, usize)>,
    {
        MemoryStats {
            per_guess: guesses
                .into_iter()
                .map(|(gamma, points)| GuessMemory { gamma, points })
                .collect(),
            auxiliary: 0,
            unique_points: 0,
            payload_bytes: 0,
            staged_bytes: 0,
        }
    }

    /// Adds points stored outside the guess structures.
    pub fn with_auxiliary(mut self, auxiliary: usize) -> Self {
        self.auxiliary = auxiliary;
        self
    }

    /// Records the interned arena's deduplicated payload accounting.
    pub fn with_arena(mut self, unique_points: usize, payload_bytes: usize) -> Self {
        self.unique_points = unique_points;
        self.payload_bytes = payload_bytes;
        self
    }

    /// Records the coordinates the guesses stage beside their handles.
    pub fn with_staged_bytes(mut self, bytes: usize) -> Self {
        self.staged_bytes = bytes;
        self
    }

    /// Adds payload bytes held outside the arena (auxiliary owned
    /// points).
    pub fn with_extra_payload_bytes(mut self, bytes: usize) -> Self {
        self.payload_bytes += bytes;
        self
    }

    /// Total stored points — the paper's memory metric.
    pub fn stored_points(&self) -> usize {
        self.per_guess.iter().map(|g| g.points).sum::<usize>() + self.auxiliary
    }

    /// Bytes spent on guess-family handle entries
    /// (`stored_points × 8`, auxiliary owned points excluded).
    pub fn handle_bytes(&self) -> usize {
        self.per_guess.iter().map(|g| g.points).sum::<usize>() * HANDLE_ENTRY_BYTES
    }

    /// Total resident bytes: handles, deduplicated payloads and staged
    /// coordinates.
    pub fn resident_bytes(&self) -> usize {
        self.handle_bytes() + self.payload_bytes + self.staged_bytes
    }

    /// Number of (materialized) guesses `|Γ|`.
    pub fn num_guesses(&self) -> usize {
        self.per_guess.len()
    }
}

/// The Update/Query contract shared by all five sliding-window variants.
///
/// Generic code written against this trait (plus the enum-dispatched
/// [`WindowEngine`](crate::WindowEngine) facade) drives any variant:
///
/// ```
/// use fairsw_core::{Solution, SlidingWindowClustering, QueryError};
/// use fairsw_metric::{Colored, Metric};
///
/// fn drain<M: Metric, A: SlidingWindowClustering<M>>(
///     algo: &mut A,
///     stream: impl IntoIterator<Item = Colored<M::Point>>,
/// ) -> Result<Solution<M::Point>, QueryError> {
///     algo.insert_batch(stream);
///     algo.query()
/// }
/// ```
pub trait SlidingWindowClustering<M: Metric> {
    /// Handles a batch of arrivals in stream order: per arrival, expiry
    /// of the outgoing point plus `Update` on every guess (Algorithm 1).
    /// This is the one arrival path — [`insert`](Self::insert) is a
    /// one-point batch. The fixed, compact, robust and matroid variants
    /// replay a batch guess by guess in stream order, which gives the
    /// same state as one-point batches because guesses never read each
    /// other's state; the oblivious variant, whose guess range moves
    /// between arrivals, runs a batch one arrival at a time.
    fn insert_batch<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = Colored<M::Point>>,
        Self: Sized;

    /// Handles one arrival: a one-point
    /// [`insert_batch`](Self::insert_batch).
    fn insert(&mut self, p: Colored<M::Point>)
    where
        Self: Sized,
    {
        self.insert_batch(std::iter::once(p));
    }

    /// Answers for the current window (`Query` — Algorithm 3): selects
    /// the best certified guess and runs the variant's sequential solver
    /// on its stored point set.
    fn query(&self) -> Result<Solution<M::Point>, QueryError>;

    /// The arrival counter (number of points inserted so far).
    fn time(&self) -> u64;

    /// The window length `n`.
    fn window_size(&self) -> usize;

    /// Uniform memory accounting: per-guess breakdown plus auxiliary
    /// storage.
    fn memory_stats(&self) -> MemoryStats;

    /// Verifies the variant's structural invariants (test/diagnostic
    /// helper); returns a description of the first violation found.
    fn check_invariants(&self) -> Result<(), String>;

    /// Total stored points (the paper's memory metric). The default
    /// derives it from [`memory_stats`](Self::memory_stats); implementors
    /// override it with an allocation-free sum.
    fn stored_points(&self) -> usize {
        self.memory_stats().stored_points()
    }

    /// Number of (materialized) guesses.
    fn num_guesses(&self) -> usize {
        self.memory_stats().num_guesses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsw_metric::EuclidPoint;

    #[test]
    fn memory_stats_totals() {
        let stats = MemoryStats::from_guesses([(1.0, 4), (2.0, 6)])
            .with_auxiliary(3)
            .with_arena(5, 400);
        assert_eq!(stats.stored_points(), 13);
        assert_eq!(stats.num_guesses(), 2);
        assert_eq!(stats.unique_points, 5);
        assert_eq!(stats.handle_bytes(), 10 * HANDLE_ENTRY_BYTES);
        assert_eq!(stats.resident_bytes(), 10 * HANDLE_ENTRY_BYTES + 400);
        assert_eq!(MemoryStats::default().stored_points(), 0);
        assert_eq!(MemoryStats::default().resident_bytes(), 0);
    }

    #[test]
    fn solution_outlier_accessors() {
        let plain: Solution<EuclidPoint> = Solution {
            centers: vec![],
            guess: 1.0,
            coreset_size: 0,
            coreset_radius: 0.0,
            extras: SolutionExtras::None,
        };
        assert!(plain.outliers().is_empty());
        let robust: Solution<EuclidPoint> = Solution {
            extras: SolutionExtras::Robust {
                outliers: vec![Colored::new(EuclidPoint::new(vec![1.0]), 0)],
            },
            ..plain
        };
        assert_eq!(robust.num_outliers(), 1);
    }
}
