//! Metric-space substrate for the `fairsw` workspace.
//!
//! The paper ("Fair Center Clustering in Sliding Windows") is stated for
//! *general* metric spaces: the algorithms only ever interact with the
//! input through a pairwise distance function, a color label per point and
//! the arrival order. This crate provides:
//!
//! * [`Metric`] — the distance-oracle trait every algorithm in the
//!   workspace is generic over;
//! * [`EuclidPoint`] plus the concrete [`Euclidean`], [`Manhattan`] and
//!   [`Chebyshev`] metrics used by the experiments;
//! * [`Colored`] — a point tagged with its fairness category;
//! * [`stats`] — exact and sampled estimates of the minimum/maximum
//!   pairwise distance and the aspect ratio `Δ = dmax/dmin` that define
//!   the guess set `Γ`;
//! * [`doubling`] — an empirical doubling-dimension estimator used by the
//!   experiment harness to relate coreset sizes to intrinsic
//!   dimensionality (the algorithm itself never needs it, per the paper);
//! * [`store`] — the interned [`PointStore`] arena: each live window
//!   point stored once, addressed by copyable 4-byte [`PointId`] handles
//!   with refcounted early reclaim plus window-expiry epoch GC;
//! * [`project`] — seeded Johnson–Lindenstrauss random projection
//!   ([`Projector`], dense Gaussian or sparse Achlioptas) that maps
//!   wide embedding streams to a compact dimension at ingest,
//!   bit-identically across SIMD ISAs;
//! * [`kernel`] — the batched distance layer: [`CoresetView`] gathers a
//!   candidate set once into a columnar (structure-of-arrays) block,
//!   [`DistScratch`]/[`ScratchPool`] make steady-state queries
//!   allocation-free, and the [`Metric`] block kernels
//!   ([`Metric::dist_one_to_many`], [`Metric::dist_many_to_many`])
//!   evaluate distances over the staged block bit-identically to scalar
//!   [`Metric::dist`];
//! * [`block`] — the [`ArrivalBlock`] that holds a guess's c-attractors
//!   in arrival order with their leading coordinates staged in tiles, so
//!   [`Metric::scan_within`] streams the Update's radius tests instead
//!   of resolving every attractor through the arena.

pub mod block;
pub mod compact;
pub mod doubling;
pub mod kernel;
pub mod metric;
pub mod point;
pub mod project;
pub mod simd;
pub mod stats;
pub mod store;

pub use block::ArrivalBlock;
pub use compact::{CompactEuclidean, CompactPoint, Q8Euclidean, Q8Point};
pub use kernel::{
    packing_scan, CoresetView, DistScratch, KernelMode, ScratchPool, SoaBlock, SoaBlock32, LANES,
};
pub use metric::{Angular, Chebyshev, Euclidean, Exactness, Manhattan, Metric, Relaxed};
pub use point::{Colored, Coords, EuclidPoint};
pub use project::{Projectable, Projector, ProjectorKind};
pub use simd::{active_isa, Isa};
pub use stats::{aspect_ratio, pairwise_extremes, sampled_extremes, PairwiseExtremes};
pub use store::{ColoredId, PointFootprint, PointId, PointStore, Resolver};
