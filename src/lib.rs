//! # fairsw — Fair Center Clustering in Sliding Windows
//!
//! A Rust implementation of the sliding-window fair k-center algorithm of
//! Ceccarello, Pietracaprina, Pucci and Visonà (EDBT 2026), together with
//! every substrate it rests on: metric spaces, matroids (partition,
//! laminar, …), bipartite matching, the sequential baselines (Gonzalez,
//! ChenEtAl, Jones), sliding-window scale estimation, dataset generators
//! and a benchmark harness regenerating the paper's figures.
//!
//! ## The problem
//!
//! Points arrive on a stream; each belongs to a demographic category
//! ("color"). At any time you may ask for at most `k_i` centers of color
//! `i` minimizing the maximum distance from any point *of the last `n`
//! arrivals* to its closest center — fair summarization under concept
//! drift. This crate maintains that ability in space and time independent
//! of `n`, with an `(α+ε)` approximation guarantee (`α = 3` via the
//! bundled Jones solver).
//!
//! ## One API, five variants
//!
//! Every sliding-window variant — the paper's main algorithm, its
//! scale-oblivious and compact versions, and the robust and matroid
//! extensions — implements [`core::SlidingWindowClustering`] and answers
//! with the same [`core::Solution`] type. The [`core::WindowEngine`]
//! facade builds any of them from one configuration:
//!
//! ```
//! use fairsw::prelude::*;
//!
//! let mut engine = EngineBuilder::new()
//!     .window_size(1_000)          // summarize the last 1 000 points
//!     .capacities(vec![2, 2])      // at most 2 centers per color
//!     .build(Euclidean)            // oblivious variant by default
//!     .unwrap();
//! engine.insert_batch((0..5_000u32).map(|i| {
//!     Colored::new(EuclidPoint::new(vec![(i % 97) as f64]), i % 2)
//! }));
//! let sol = engine.query().unwrap();
//! assert!(!sol.centers.is_empty());
//! ```
//!
//! Want a specific variant? `.fixed(dmin, dmax)`, `.compact(dmin, dmax)`,
//! `.robust(z, dmin, dmax)` or `.matroid(constraint, dmin, dmax)` on the
//! builder — or construct the concrete types in [`core`] directly.
//!
//! ## Entry points
//!
//! * [`core::WindowEngine`] / [`core::EngineBuilder`] — any variant
//!   behind one enum-dispatched facade;
//! * [`core::SlidingWindowClustering`] — the Update/Query trait for
//!   generic streaming code;
//! * [`core::FairSlidingWindow`] and siblings — the concrete algorithms;
//! * [`sequential::Jones`], [`sequential::ChenEtAl`] — offline solvers;
//! * [`datasets`] — synthetic data, CSV loading.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use fairsw_core as core;
pub use fairsw_datasets as datasets;
pub use fairsw_matching as matching;
pub use fairsw_matroid as matroid;
pub use fairsw_metric as metric;
pub use fairsw_sequential as sequential;
pub use fairsw_stream as stream;

/// One-stop imports for typical use.
pub mod prelude {
    pub use fairsw_core::{
        run_fleet, CompactFairSlidingWindow, EngineBuilder, FairSWConfig, FairSlidingWindow,
        GuessMemory, MatroidSlidingWindow, MemoryStats, ObliviousFairSlidingWindow, QueryError,
        RobustFairSlidingWindow, SlidingWindowClustering, Solution, SolutionExtras, VariantSpec,
        WindowEngine,
    };
    pub use fairsw_matroid::{AnyMatroid, Group, LaminarMatroid, Matroid, PartitionMatroid};
    pub use fairsw_metric::{
        Angular, Colored, ColoredId, EuclidPoint, Euclidean, Metric, PointFootprint, PointId,
        PointStore, Resolver,
    };
    pub use fairsw_sequential::{
        ChenEtAl, ExactSolver, FairCenterSolver, FairSolution, Instance, Jones, Kleindessner,
        RobustFair,
    };
    pub use fairsw_stream::ExactWindow;
}
