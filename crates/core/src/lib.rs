//! # fairsw-core — fair center clustering in sliding windows
//!
//! Implementation of the sliding-window fair-center algorithm of
//! Ceccarello, Pietracaprina, Pucci and Visonà (*Fair Center Clustering
//! in Sliding Windows*, EDBT 2026): the first streaming algorithm that,
//! at any time `t`, returns an `(α+ε)`-approximate fair k-center solution
//! for the window `W_t` of the last `n` points using space and time
//! **independent of `n`**.
//!
//! ## One API, five variants
//!
//! Every variant implements the [`SlidingWindowClustering`] trait — the
//! paper's Update/Query contract — and returns the same [`Solution`]
//! type; the [`WindowEngine`] facade constructs any of them from one
//! [`FairSWConfig`]-derived builder and dispatches without generics:
//!
//! * [`FairSlidingWindow`] — the main algorithm ("Ours"): one set of
//!   validation/coreset structures per radius guess
//!   `γ ∈ Γ = {(1+β)^i}` spanning the stream's `[dmin, dmax]`;
//! * [`ObliviousFairSlidingWindow`] — "OursOblivious": no prior knowledge
//!   of `dmin`/`dmax`; the guess range adapts to the *current window*
//!   using a sliding-window diameter estimator plus the invalidity
//!   frontier of the validation structures;
//! * [`CompactFairSlidingWindow`] — the Corollary 2 variant: coreset
//!   structures are dropped and the per-attractor representative becomes a
//!   maximal independent set, trading the approximation factor for space
//!   `O(k² log Δ / ε)` with **no** dependence on the doubling dimension;
//! * [`RobustFairSlidingWindow`] — the outlier-tolerant extension the
//!   paper's conclusions sketch: up to `z` outliers per window;
//! * [`MatroidSlidingWindow`] — the fairness constraint generalized to
//!   arbitrary matroids over colors (laminar hierarchies, …).
//!
//! ## Quick start
//!
//! ```
//! use fairsw_core::{EngineBuilder, SlidingWindowClustering};
//! use fairsw_metric::{Colored, Euclidean, EuclidPoint};
//!
//! // Window of the last 100 points, at most 2 centers per color; the
//! // oblivious variant needs no distance bounds up front.
//! let mut engine = EngineBuilder::new()
//!     .window_size(100)
//!     .capacities(vec![2, 2])
//!     .build(Euclidean)
//!     .unwrap();
//! engine.insert_batch((0..500u32).map(|i| {
//!     let x = (i % 97) as f64;
//!     Colored::new(EuclidPoint::new(vec![x]), i % 2)
//! }));
//! let sol = engine.query().unwrap();
//! assert!(!sol.centers.is_empty());
//! assert!(engine.stored_points() < 500); // far below the stream length
//! ```
//!
//! When the stream's distance scales are known, pick the main algorithm
//! (`.fixed(dmin, dmax)`); add `.robust(z, ..)` for outlier tolerance or
//! `.matroid(..)` for hierarchical constraints — construction is
//! fallible ([`ConfigError`]), never panicking on bad parameters.
//!
//! Each engine runs its per-guess loops on the calling thread. To use
//! more cores, run more engines at once: [`run_fleet`] drives a fleet
//! concurrently, one scoped thread per engine, and a serving layer
//! shards its tenants across threads (see the README's "Parallelism").
//!
//! ## Memory model
//!
//! Arriving points are interned once per algorithm in a shared
//! [`PointStore`](fairsw_metric::PointStore) arena; every per-guess
//! family entry is an 8-byte handle (id + color), acquired and released
//! against the arena's reference counts, with window expiry as the
//! epoch-GC backstop. Resident payloads therefore track the
//! *deduplicated union* of the coresets — `O(Σ coreset sizes)` instead
//! of `guesses × window` copies. [`MemoryStats`] reports both the entry
//! counts (the paper's metric) and the arena's `unique_points` /
//! `payload_bytes`; the query path resolves payloads only at
//! solution-assembly time, so a [`Solution`] still owns its points. See
//! the README's "Memory model" section for the full story.

#![forbid(unsafe_code)]

pub mod algorithm;
pub mod api;
pub mod compact;
pub mod config;
pub mod engine;
pub mod guess;
mod guess_set;
pub mod matroid_window;
mod memo;
pub mod oblivious;
pub mod robust;
pub mod snapshot;

pub use algorithm::FairSlidingWindow;
pub use api::{
    GuessMemory, MemoryStats, QueryError, SlidingWindowClustering, Solution, SolutionExtras,
    HANDLE_ENTRY_BYTES,
};
pub use compact::CompactFairSlidingWindow;
pub use config::{validate_scale, ConfigError, FairSWConfig, FairSWConfigBuilder};
pub use engine::{
    run_fleet, EngineBuilder, EngineKind, EngineProjection, VariantSpec, WindowEngine,
};
pub use matroid_window::MatroidSlidingWindow;
pub use oblivious::ObliviousFairSlidingWindow;
pub use robust::RobustFairSlidingWindow;
pub use snapshot::{PointCodec, SnapshotError};

/// Compatibility shim: engines always run sequentially, and this enum
/// has no other variant. It stays only because the benchmark under
/// `perfbench/` still names `ParallelismSpec::Sequential` in its call to
/// `fairsw_serve::wal::build_tenant`; the next change to the benchmark
/// drops that argument, and this type with it.
#[derive(Clone, Copy, Debug)]
pub enum ParallelismSpec {
    /// Sequential execution on the calling thread.
    Sequential,
}
