//! `WindowEngine` — one enum-dispatched facade over all five
//! sliding-window variants.
//!
//! The trait [`SlidingWindowClustering`] unifies the variants
//! *generically*; this module unifies them as a
//! *value*: a [`VariantSpec`] names a variant plus its extra parameters
//! (scale bounds, outlier budget, matroid constraint), and
//! [`WindowEngine::build`] constructs the corresponding algorithm from a
//! shared [`FairSWConfig`]. Because `WindowEngine` itself implements the
//! trait, heterogeneous fleets — e.g. `Vec<WindowEngine<M>>`, or the
//! tenants of the `fairsw-serve` multi-tenant service — drive every
//! variant through identical code:
//!
//! ```
//! use fairsw_core::{EngineBuilder, SlidingWindowClustering, VariantSpec, WindowEngine};
//! use fairsw_metric::{Colored, Euclidean, EuclidPoint};
//!
//! let mut fleet: Vec<WindowEngine<Euclidean>> = vec![
//!     EngineBuilder::new()
//!         .window_size(100)
//!         .capacities(vec![2, 2])
//!         .variant(VariantSpec::Fixed { dmin: 0.1, dmax: 100.0 })
//!         .build(Euclidean)
//!         .unwrap(),
//!     EngineBuilder::new()
//!         .window_size(100)
//!         .capacities(vec![2, 2])
//!         .build(Euclidean) // defaults to the oblivious variant
//!         .unwrap(),
//! ];
//! for i in 0..300u32 {
//!     let p = Colored::new(EuclidPoint::new(vec![(i % 97) as f64]), i % 2);
//!     for engine in &mut fleet {
//!         engine.insert(p.clone());
//!     }
//! }
//! for engine in &fleet {
//!     let sol = engine.query().unwrap();
//!     assert!(!sol.centers.is_empty());
//! }
//! ```
//!
//! ## Fleets
//!
//! An engine runs its per-guess loops on the calling thread. More cores
//! pay off across engines instead: [`run_fleet`] drives a whole fleet
//! concurrently over one shared batch — the multi-tenant serving shape —
//! and every answer is bit-identical to driving each engine alone:
//!
//! ```
//! use fairsw_core::{run_fleet, EngineBuilder, SlidingWindowClustering};
//! use fairsw_metric::{Colored, Euclidean, EuclidPoint};
//!
//! // Two tenants: one knows its distance scales, one is oblivious.
//! let mut fleet = vec![
//!     EngineBuilder::new()
//!         .window_size(100)
//!         .capacities(vec![2, 2])
//!         .fixed(0.1, 1e3)
//!         .build(Euclidean)
//!         .unwrap(),
//!     EngineBuilder::new()
//!         .window_size(100)
//!         .capacities(vec![2, 2])
//!         .build(Euclidean)
//!         .unwrap(),
//! ];
//! let batch: Vec<_> = (0..300u32)
//!     .map(|i| Colored::new(EuclidPoint::new(vec![(i % 97) as f64]), i % 2))
//!     .collect();
//! for sol in run_fleet(&mut fleet, &batch) {
//!     assert!(!sol.unwrap().centers.is_empty());
//! }
//! ```

use crate::algorithm::FairSlidingWindow;
use crate::api::{MemoryStats, QueryError, SlidingWindowClustering, Solution};
use crate::compact::CompactFairSlidingWindow;
use crate::config::{ConfigError, FairSWConfig, FairSWConfigBuilder};
use crate::matroid_window::MatroidSlidingWindow;
use crate::oblivious::ObliviousFairSlidingWindow;
use crate::robust::RobustFairSlidingWindow;
use fairsw_matroid::AnyMatroid;
use fairsw_metric::{Colored, Exactness, Metric, Projectable, Projector, ProjectorKind, Relaxed};

/// Which sliding-window variant to construct, plus its extra parameters.
///
/// The shared parameters (window length, budgets, `β`, `δ`) live in
/// [`FairSWConfig`]; a spec carries only what distinguishes the variant.
#[derive(Clone, Debug)]
pub enum VariantSpec {
    /// The main algorithm ("Ours"): fixed guess lattice spanning
    /// `[dmin, dmax]`.
    Fixed {
        /// Lower bound on the stream's pairwise distances.
        dmin: f64,
        /// Upper bound on the stream's pairwise distances.
        dmax: f64,
    },
    /// The scale-oblivious variant ("OursOblivious"): no prior bounds.
    Oblivious,
    /// The Corollary 2 variant: validation-only structures,
    /// dimension-free space.
    Compact {
        /// Lower bound on the stream's pairwise distances.
        dmin: f64,
        /// Upper bound on the stream's pairwise distances.
        dmax: f64,
    },
    /// The outlier-tolerant extension: up to `z` outliers per window.
    Robust {
        /// Tolerated outliers per window.
        z: usize,
        /// Lower bound on the stream's pairwise distances.
        dmin: f64,
        /// Upper bound on the stream's pairwise distances.
        dmax: f64,
    },
    /// Arbitrary matroid constraint over colors (the config's
    /// per-color capacities are ignored; the constraint is the matroid).
    Matroid {
        /// The color constraint.
        matroid: AnyMatroid,
        /// Lower bound on the stream's pairwise distances.
        dmin: f64,
        /// Upper bound on the stream's pairwise distances.
        dmax: f64,
    },
}

/// Any sliding-window variant behind one enum-dispatched value.
///
/// Variants are boxed so the enum itself stays pointer-sized — a
/// heterogeneous `Vec<WindowEngine<M>>` moves cheaply regardless of how
/// much per-guess state each algorithm carries.
#[derive(Clone, Debug)]
pub enum EngineKind<M: Metric> {
    /// [`FairSlidingWindow`] — "Ours".
    Fixed(Box<FairSlidingWindow<M>>),
    /// [`ObliviousFairSlidingWindow`] — "OursOblivious".
    Oblivious(Box<ObliviousFairSlidingWindow<M>>),
    /// [`CompactFairSlidingWindow`] — Corollary 2.
    Compact(Box<CompactFairSlidingWindow<M>>),
    /// [`RobustFairSlidingWindow`] — outlier tolerant.
    Robust(Box<RobustFairSlidingWindow<M>>),
    /// [`MatroidSlidingWindow`] under a type-erased [`AnyMatroid`].
    Matroid(Box<MatroidSlidingWindow<M, AnyMatroid>>),
}

/// A seeded Johnson–Lindenstrauss ingest transform attached ahead of an
/// engine: every inserted point is projected to `out_dim` dimensions
/// before it reaches the window, so the interned [`fairsw_metric::PointStore`]
/// — and with it every coreset byte, kernel mirror, and snapshot — only
/// ever holds projected payloads.
///
/// The matrix is materialized lazily from the first inserted point's
/// dimension (see the seed contract in [`fairsw_metric::project`]), so
/// the spec itself is a few words and clones freely.
#[derive(Clone, Debug)]
pub struct EngineProjection {
    out_dim: usize,
    seed: u64,
    sparse: bool,
    /// The input dimension, once known: from the first point, or from a
    /// snapshot. The matrix itself is built on the next projection.
    in_dim: Option<usize>,
    projector: Option<Projector>,
}

impl EngineProjection {
    fn new(out_dim: usize, seed: u64, sparse: bool) -> Self {
        EngineProjection {
            out_dim,
            seed,
            sparse,
            in_dim: None,
            projector: None,
        }
    }

    /// Target dimension of the projection.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The seed the matrix is rematerialized from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the sparse (Achlioptas ±1/0) construction is used.
    pub fn sparse(&self) -> bool {
        self.sparse
    }

    /// Input dimension, once the first point (or a restored snapshot)
    /// fixed it.
    pub fn in_dim(&self) -> Option<usize> {
        self.in_dim
    }

    /// Projects one colored point, materializing the matrix from the
    /// first point's dimension. Later points of a different dimension
    /// panic (the projection matrix is fixed once data arrived).
    fn apply<P: Projectable>(&mut self, p: Colored<P>) -> Colored<P> {
        let width = p.point.width();
        let in_dim = *self.in_dim.get_or_insert(width);
        // Checked before the matrix is built, so a mismatch never
        // allocates an `in_dim × out_dim` matrix first.
        assert_eq!(width, in_dim, "projector input dimension mismatch");
        let (out_dim, seed) = (self.out_dim, self.seed);
        let kind = if self.sparse {
            ProjectorKind::Sparse
        } else {
            ProjectorKind::Dense
        };
        let projector = self
            .projector
            .get_or_insert_with(|| Projector::build(in_dim, out_dim, seed, kind));
        Colored::new(p.point.project_with(projector), p.color)
    }
}

/// One sliding-window variant plus an optional JL ingest projection.
///
/// The variant dispatch lives in [`EngineKind`]; this wrapper threads
/// every insert through [`EngineProjection`] when one is configured
/// (see [`EngineBuilder::project`]) and otherwise forwards untouched.
#[derive(Clone, Debug)]
pub struct WindowEngine<M: Metric> {
    kind: EngineKind<M>,
    proj: Option<EngineProjection>,
}

/// Dispatches a method call to whichever variant the engine holds.
macro_rules! dispatch {
    ($kind:expr, $inner:ident => $body:expr) => {
        match $kind {
            EngineKind::Fixed($inner) => $body,
            EngineKind::Oblivious($inner) => $body,
            EngineKind::Compact($inner) => $body,
            EngineKind::Robust($inner) => $body,
            EngineKind::Matroid($inner) => $body,
        }
    };
}

impl<M: Metric> WindowEngine<M> {
    /// Constructs the variant described by `spec` from a shared
    /// configuration. All parameter validation is fallible — no variant
    /// panics on bad input.
    pub fn build(cfg: FairSWConfig, spec: VariantSpec, metric: M) -> Result<Self, ConfigError> {
        let kind = match spec {
            VariantSpec::Fixed { dmin, dmax } => {
                EngineKind::Fixed(Box::new(FairSlidingWindow::new(cfg, metric, dmin, dmax)?))
            }
            VariantSpec::Oblivious => {
                EngineKind::Oblivious(Box::new(ObliviousFairSlidingWindow::new(cfg, metric)?))
            }
            VariantSpec::Compact { dmin, dmax } => EngineKind::Compact(Box::new(
                CompactFairSlidingWindow::new(cfg, metric, dmin, dmax)?,
            )),
            VariantSpec::Robust { z, dmin, dmax } => EngineKind::Robust(Box::new(
                RobustFairSlidingWindow::new(cfg, z, metric, dmin, dmax)?,
            )),
            VariantSpec::Matroid {
                matroid,
                dmin,
                dmax,
            } => {
                // The matroid is the constraint: the config's capacities
                // are documented as ignored here, so only the parameters
                // the variant consumes are validated (by its constructor).
                EngineKind::Matroid(Box::new(MatroidSlidingWindow::new(
                    metric,
                    matroid,
                    cfg.window_size,
                    cfg.beta,
                    cfg.delta,
                    dmin,
                    dmax,
                )?))
            }
        };
        Ok(WindowEngine { kind, proj: None })
    }

    /// Attaches a seeded JL ingest projection: every subsequent insert
    /// is mapped to `out_dim` dimensions (dense Gaussian, or sparse
    /// Achlioptas when `sparse`) before it reaches the window. The
    /// matrix materializes from the first inserted point's dimension;
    /// see [`fairsw_metric::project`] for the seed/recovery contract.
    pub fn with_projection(mut self, out_dim: usize, seed: u64, sparse: bool) -> Self {
        self.proj = Some(EngineProjection::new(out_dim, seed, sparse));
        self
    }

    /// The configured ingest projection, if any.
    pub fn projection(&self) -> Option<&EngineProjection> {
        self.proj.as_ref()
    }

    /// Short stable identifier of the variant this engine runs.
    pub fn variant_name(&self) -> &'static str {
        match &self.kind {
            EngineKind::Fixed(_) => "fixed",
            EngineKind::Oblivious(_) => "oblivious",
            EngineKind::Compact(_) => "compact",
            EngineKind::Robust(_) => "robust",
            EngineKind::Matroid(_) => "matroid",
        }
    }

    /// The number of colors the engine accepts (`0..num_colors()`):
    /// the configuration's capacity count, or the colors the matroid
    /// variant's constraint names (see [`AnyMatroid::num_colors`]).
    /// Serving layers validate ingest against it, including for tenants
    /// restored from a snapshot alone.
    pub fn num_colors(&self) -> usize {
        match &self.kind {
            EngineKind::Fixed(e) => e.cfg.num_colors(),
            EngineKind::Oblivious(e) => e.cfg.num_colors(),
            EngineKind::Compact(e) => e.cfg.num_colors(),
            EngineKind::Robust(e) => e.cfg.num_colors(),
            EngineKind::Matroid(e) => e.matroid.num_colors(),
        }
    }

    /// Drops all streamed state and rebuilds the empty structures from
    /// the retained configuration — same variant, same guess lattice.
    /// Much cheaper than reconstructing through
    /// [`EngineBuilder`]; this is the tenant delete-and-recreate reuse
    /// path of serving layers. A configured projection keeps its spec
    /// but drops the materialized matrix — the next stream's first
    /// point redetermines the input dimension.
    pub fn reset(&mut self) {
        if let Some(proj) = &mut self.proj {
            proj.in_dim = None;
            proj.projector = None;
        }
        dispatch!(&mut self.kind, e => e.reset())
    }
}

/// Magic tag prefixed to a variant snapshot when the engine carries an
/// ingest projection: the variant's bytes follow a 21-byte header
/// (`"FSWP"`, `out_dim: u32`, `seed: u64`, `sparse: u8`, `in_dim: u32`,
/// little-endian; `in_dim = 0` while no point has fixed the input
/// dimension).
/// Stored window payloads are already projected, so restore reprojects
/// nothing — it only rebuilds the matrix for *future* inserts.
const PROJ_SNAPSHOT_MAGIC: &[u8; 4] = b"FSWP";

impl<M: Metric> WindowEngine<M>
where
    M::Point: crate::snapshot::PointCodec + Projectable,
{
    /// Serializes the engine's complete state as a self-contained
    /// snapshot in its variant's layout (see [`crate::snapshot`]). Every
    /// variant checkpoints, so this is always `Some`. An ingest
    /// projection rides as a tiny parameter header — per the seed
    /// contract the matrix itself is never serialized.
    pub fn snapshot(&self) -> Option<Vec<u8>> {
        let inner = dispatch!(&self.kind, e => e.snapshot());
        Some(match &self.proj {
            None => inner,
            Some(p) => {
                let mut out = Vec::with_capacity(21 + inner.len());
                out.extend_from_slice(PROJ_SNAPSHOT_MAGIC);
                out.extend_from_slice(&(p.out_dim as u32).to_le_bytes());
                out.extend_from_slice(&p.seed.to_le_bytes());
                out.push(p.sparse as u8);
                let in_dim = p.in_dim().unwrap_or(0) as u32;
                out.extend_from_slice(&in_dim.to_le_bytes());
                out.extend_from_slice(&inner);
                out
            }
        })
    }

    /// Reconstructs an engine from a snapshot produced by
    /// [`snapshot`](Self::snapshot): the variant is read from the
    /// snapshot's magic, and a carried projection is rematerialized from
    /// its seed, bit-identical to the original.
    pub fn restore(metric: M, bytes: &[u8]) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::{
            SnapshotError, COMPACT_MAGIC, FIXED_MAGIC, MATROID_MAGIC, OBLIVIOUS_MAGIC, ROBUST_MAGIC,
        };
        let (proj, inner) = if bytes.starts_with(PROJ_SNAPSHOT_MAGIC) {
            if bytes.len() < 21 {
                return Err(SnapshotError::Truncated);
            }
            let out_dim = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
            let seed = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
            let sparse = match bytes[16] {
                0 => false,
                1 => true,
                other => {
                    return Err(SnapshotError::Invalid(format!(
                        "projection sparse flag {other} (expected 0 or 1)"
                    )))
                }
            };
            let in_dim = u32::from_le_bytes(bytes[17..21].try_into().expect("4 bytes")) as usize;
            if out_dim == 0 {
                return Err(SnapshotError::Invalid(
                    "projection out_dim must be positive".into(),
                ));
            }
            // The same bound as a decoded point's dimension; the matrix
            // is only built by the next insert.
            if in_dim > 1 << 24 {
                return Err(SnapshotError::Invalid(format!(
                    "absurd projection input dimension {in_dim}"
                )));
            }
            let mut proj = EngineProjection::new(out_dim, seed, sparse);
            proj.in_dim = (in_dim > 0).then_some(in_dim);
            (Some(proj), &bytes[21..])
        } else {
            (None, bytes)
        };
        let magic = inner.get(..4).ok_or(SnapshotError::Truncated)?;
        let kind = if magic == FIXED_MAGIC {
            EngineKind::Fixed(Box::new(FairSlidingWindow::restore(metric, inner)?))
        } else if magic == ROBUST_MAGIC {
            EngineKind::Robust(Box::new(RobustFairSlidingWindow::restore(metric, inner)?))
        } else if magic == COMPACT_MAGIC {
            EngineKind::Compact(Box::new(CompactFairSlidingWindow::restore(metric, inner)?))
        } else if magic == OBLIVIOUS_MAGIC {
            EngineKind::Oblivious(Box::new(ObliviousFairSlidingWindow::restore(
                metric, inner,
            )?))
        } else if magic == MATROID_MAGIC {
            EngineKind::Matroid(Box::new(MatroidSlidingWindow::restore(metric, inner)?))
        } else {
            return Err(SnapshotError::BadMagic);
        };
        // Stored payloads are already projected: a header naming another
        // `out_dim` would mix dimensions in one window.
        if let Some(p) = &proj {
            let store = match &kind {
                EngineKind::Fixed(e) => &e.set.store,
                EngineKind::Oblivious(e) => &e.store,
                EngineKind::Compact(e) => &e.set.store,
                EngineKind::Robust(e) => &e.set.store,
                EngineKind::Matroid(e) => &e.set.store,
            };
            if let Some((_, _, q)) = store.iter().find(|(_, _, q)| q.width() != p.out_dim) {
                return Err(SnapshotError::Invalid(format!(
                    "stored point of dimension {} under a projection to {}",
                    q.width(),
                    p.out_dim
                )));
            }
        }
        Ok(WindowEngine { kind, proj })
    }
}

/// Drives a heterogeneous fleet of engines over one shared batch,
/// concurrently (one scoped thread per engine), then queries each —
/// the multi-tenant serving shape: many windows, one arrival stream.
///
/// This is how an application puts more cores to work: each engine runs
/// sequentially, so the fleet spreads over as many threads as it has
/// engines. Results are returned in engine order and are identical to
/// driving each engine alone.
pub fn run_fleet<M>(
    engines: &mut [WindowEngine<M>],
    batch: &[Colored<M::Point>],
) -> Vec<Result<Solution<M::Point>, QueryError>>
where
    M: Metric + Send + Sync,
    M::Point: Projectable + Send + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = engines
            .iter_mut()
            .map(|engine| {
                scope.spawn(move || {
                    engine.insert_batch(batch.iter().cloned());
                    engine.query()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    })
}

impl<M> SlidingWindowClustering<M> for WindowEngine<M>
where
    M: Metric + Sync,
    M::Point: Projectable + Send + Sync,
{
    /// Projects the batch (when a projection is configured) on its way
    /// into the variant's batched path.
    fn insert_batch<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = Colored<M::Point>>,
    {
        let WindowEngine { kind, proj } = self;
        match proj {
            Some(proj) => {
                dispatch!(kind, e => e.insert_batch(batch.into_iter().map(|p| proj.apply(p))))
            }
            None => dispatch!(kind, e => e.insert_batch(batch)),
        }
    }

    fn query(&self) -> Result<Solution<M::Point>, QueryError> {
        dispatch!(&self.kind, e => e.query())
    }

    fn time(&self) -> u64 {
        dispatch!(&self.kind, e => e.time())
    }

    fn window_size(&self) -> usize {
        dispatch!(&self.kind, e => e.window_size())
    }

    fn memory_stats(&self) -> MemoryStats {
        dispatch!(&self.kind, e => e.memory_stats())
    }

    fn check_invariants(&self) -> Result<(), String> {
        dispatch!(&self.kind, e => e.check_invariants())
    }

    fn stored_points(&self) -> usize {
        dispatch!(&self.kind, e => e.stored_points())
    }

    fn num_guesses(&self) -> usize {
        dispatch!(&self.kind, e => e.num_guesses())
    }
}

/// Fluent construction of a [`WindowEngine`]: the [`FairSWConfig`]
/// parameters plus a [`VariantSpec`], defaulting to the oblivious
/// variant (the only one needing no scale bounds).
#[derive(Clone, Debug, Default)]
pub struct EngineBuilder {
    cfg: FairSWConfigBuilder,
    spec: Option<VariantSpec>,
    exactness: Exactness,
    compact_mirror: bool,
    project: Option<(usize, u64, bool)>,
}

impl EngineBuilder {
    /// Starts a builder with the paper's defaults (`β = 2`, `δ = 1`,
    /// oblivious variant).
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Sets the window length `n`.
    pub fn window_size(mut self, n: usize) -> Self {
        self.cfg = self.cfg.window_size(n);
        self
    }

    /// Sets the per-color budgets `k_i` (ignored by the matroid variant,
    /// whose constraint is its matroid).
    pub fn capacities(mut self, caps: Vec<usize>) -> Self {
        self.cfg = self.cfg.capacities(caps);
        self
    }

    /// Sets the guess parameter `β` (default 2, as in the paper).
    pub fn beta(mut self, beta: f64) -> Self {
        self.cfg = self.cfg.beta(beta);
        self
    }

    /// Sets the coreset precision `δ` (default 1). Overrides any earlier
    /// [`epsilon`](Self::epsilon).
    pub fn delta(mut self, delta: f64) -> Self {
        self.cfg = self.cfg.delta(delta);
        self
    }

    /// Sets `δ` from a target `ε` per Theorem 1 (`α = 3`, Jones),
    /// evaluated with the final `β` at [`build`](Self::build) time.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.cfg = self.cfg.epsilon(epsilon);
        self
    }

    /// Selects the variant to construct.
    pub fn variant(mut self, spec: VariantSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Shorthand for [`VariantSpec::Fixed`].
    pub fn fixed(self, dmin: f64, dmax: f64) -> Self {
        self.variant(VariantSpec::Fixed { dmin, dmax })
    }

    /// Shorthand for [`VariantSpec::Oblivious`] (the default).
    pub fn oblivious(self) -> Self {
        self.variant(VariantSpec::Oblivious)
    }

    /// Shorthand for [`VariantSpec::Compact`].
    pub fn compact(self, dmin: f64, dmax: f64) -> Self {
        self.variant(VariantSpec::Compact { dmin, dmax })
    }

    /// Shorthand for [`VariantSpec::Robust`].
    pub fn robust(self, z: usize, dmin: f64, dmax: f64) -> Self {
        self.variant(VariantSpec::Robust { z, dmin, dmax })
    }

    /// Shorthand for [`VariantSpec::Matroid`].
    pub fn matroid(self, matroid: impl Into<AnyMatroid>, dmin: f64, dmax: f64) -> Self {
        self.variant(VariantSpec::Matroid {
            matroid: matroid.into(),
            dmin,
            dmax,
        })
    }

    /// Sets the kernel exactness contract for
    /// [`build_relaxed`](Self::build_relaxed): [`Exactness::Exact`]
    /// (the default) keeps every distance bit-identical to the scalar
    /// reference kernels, [`Exactness::Approx`] lets staged views run the
    /// runtime-dispatched SIMD kernels (whose FMA contraction may differ
    /// from scalar by ulps — well inside the paper's `(1+ε)` radius
    /// envelope). Ignored by [`build`](Self::build), which constructs the
    /// engine over the bare metric.
    pub fn exactness(mut self, exactness: Exactness) -> Self {
        self.exactness = exactness;
        self
    }

    /// In [`Exactness::Approx`] mode, additionally stages coreset views
    /// as the compact `f32` mirror (about half the staged bytes; distance
    /// error bounded by `f32` rounding of the coordinates). Final radii
    /// are still re-ranked with the exact `f64` kernel. No effect in
    /// exact mode.
    pub fn compact_mirror(mut self, on: bool) -> Self {
        self.compact_mirror = on;
        self
    }

    /// Projects every ingested point to `out_dim` dimensions through a
    /// seeded dense JL transform before anything is interned — the
    /// window, its kernels, mirrors, and snapshots only ever see
    /// projected payloads. The matrix materializes from the first
    /// inserted point's dimension and is rematerialized from `seed`
    /// anywhere (see [`fairsw_metric::project`]); pick
    /// `out_dim = O(ε⁻² log n)` below the stream dimension.
    pub fn project(mut self, out_dim: usize, seed: u64) -> Self {
        self.project = Some((out_dim, seed, false));
        self
    }

    /// Like [`project`](Self::project) with the sparse (Achlioptas
    /// ±1/0) construction: same distortion guarantee, two thirds of
    /// the matrix entries are exact zeros.
    pub fn project_sparse(mut self, out_dim: usize, seed: u64) -> Self {
        self.project = Some((out_dim, seed, true));
        self
    }

    /// Like [`build`](Self::build), but wraps the metric in
    /// [`Relaxed`] carrying the configured
    /// [`exactness`](Self::exactness) /
    /// [`compact_mirror`](Self::compact_mirror) policy. With the default
    /// `Exactness::Exact` the engine is bit-identical to
    /// `build(metric)` — the serving layer always constructs through
    /// this path and lets per-tenant configuration pick the mode.
    pub fn build_relaxed<M: Metric>(
        self,
        metric: M,
    ) -> Result<WindowEngine<Relaxed<M>>, ConfigError> {
        let relaxed =
            Relaxed::new(metric, self.exactness).with_compact_staging(self.compact_mirror);
        self.build(relaxed)
    }

    /// Validates the configuration and constructs the engine.
    pub fn build<M: Metric>(self, metric: M) -> Result<WindowEngine<M>, ConfigError> {
        let spec = self.spec.unwrap_or(VariantSpec::Oblivious);
        // The matroid variant takes its constraint from the matroid, not
        // from per-color capacities, so it skips the capacity checks of
        // `FairSWConfig` (its constructor validates the rest); the other
        // variants get the fully validated configuration.
        let cfg = match spec {
            VariantSpec::Matroid { .. } => self.cfg.build_raw(),
            _ => self.cfg.build()?,
        };
        let mut engine = WindowEngine::build(cfg, spec, metric)?;
        if let Some((out_dim, seed, sparse)) = self.project {
            engine = engine.with_projection(out_dim, seed, sparse);
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SolutionExtras;
    use fairsw_matroid::{Group, LaminarMatroid, PartitionMatroid};
    use fairsw_metric::{Colored, EuclidPoint, Euclidean};

    fn cp(x: f64, c: u32) -> Colored<EuclidPoint> {
        Colored::new(EuclidPoint::new(vec![x]), c)
    }

    fn base() -> EngineBuilder {
        EngineBuilder::new().window_size(40).capacities(vec![1, 1])
    }

    #[test]
    fn builds_every_variant_from_one_config() {
        let engines: Vec<WindowEngine<Euclidean>> = vec![
            base().fixed(0.01, 1e4).build(Euclidean).unwrap(),
            base().oblivious().build(Euclidean).unwrap(),
            base().compact(0.01, 1e4).build(Euclidean).unwrap(),
            base().robust(2, 0.01, 1e4).build(Euclidean).unwrap(),
            base()
                .matroid(PartitionMatroid::new(vec![1, 1]).unwrap(), 0.01, 1e4)
                .build(Euclidean)
                .unwrap(),
        ];
        let names: Vec<_> = engines.iter().map(WindowEngine::variant_name).collect();
        assert_eq!(
            names,
            ["fixed", "oblivious", "compact", "robust", "matroid"]
        );
    }

    #[test]
    fn heterogeneous_fleet_runs_through_the_trait() {
        let mut fleet: Vec<WindowEngine<Euclidean>> = vec![
            base().fixed(0.01, 1e4).build(Euclidean).unwrap(),
            base().oblivious().build(Euclidean).unwrap(),
            base().compact(0.01, 1e4).build(Euclidean).unwrap(),
            base().robust(1, 0.01, 1e4).build(Euclidean).unwrap(),
            base()
                .matroid(
                    LaminarMatroid::new(vec![Group::new(vec![0], 1), Group::new(vec![0, 1], 2)])
                        .unwrap(),
                    0.01,
                    1e4,
                )
                .build(Euclidean)
                .unwrap(),
        ];
        for i in 0..120u64 {
            let base_x = if i % 2 == 0 { 0.0 } else { 500.0 };
            let p = cp(base_x + (i as f64 * 0.618).fract() * 3.0, (i % 2) as u32);
            for e in &mut fleet {
                e.insert(p.clone());
            }
        }
        for e in &fleet {
            assert_eq!(e.time(), 120);
            assert_eq!(e.window_size(), 40);
            e.check_invariants().unwrap();
            let sol = e
                .query()
                .unwrap_or_else(|err| panic!("{} failed to answer: {err}", e.variant_name()));
            assert!(!sol.centers.is_empty());
            assert!(sol.centers.len() <= 2);
            assert!(
                sol.coreset_radius < 50.0,
                "{}: radius {}",
                e.variant_name(),
                sol.coreset_radius
            );
            assert!(e.stored_points() > 0);
            assert_eq!(e.memory_stats().stored_points(), e.stored_points());
            match (e.variant_name(), &sol.extras) {
                ("robust", SolutionExtras::Robust { .. }) => {}
                ("oblivious", SolutionExtras::Oblivious { .. }) => {}
                ("fixed" | "compact" | "matroid", SolutionExtras::None) => {}
                (name, extras) => panic!("{name}: unexpected extras {extras:?}"),
            }
        }
    }

    #[test]
    fn build_reports_config_errors_instead_of_panicking() {
        assert!(matches!(
            base().fixed(0.0, 1e4).build(Euclidean),
            Err(ConfigError::BadScaleBounds { .. })
        ));
        assert!(matches!(
            base().robust(1, 5.0, 1.0).build(Euclidean),
            Err(ConfigError::BadScaleBounds { .. })
        ));
        assert!(matches!(
            EngineBuilder::new()
                .capacities(vec![1])
                .fixed(0.1, 1.0)
                .build(Euclidean),
            Err(ConfigError::ZeroWindow)
        ));
        assert!(matches!(
            base()
                .matroid(PartitionMatroid::new(vec![1]).unwrap(), f64::NAN, 1.0)
                .build(Euclidean),
            Err(ConfigError::BadScaleBounds { .. })
        ));
    }

    #[test]
    fn matroid_path_ignores_capacities_on_both_construction_routes() {
        // The matroid carries the constraint; per-color capacities are
        // documented as ignored, so both construction paths must accept
        // a capacity-less configuration.
        let via_builder = EngineBuilder::new()
            .window_size(10)
            .matroid(PartitionMatroid::new(vec![1]).unwrap(), 0.1, 10.0)
            .build(Euclidean);
        assert!(via_builder.is_ok());
        let cfg = FairSWConfig {
            window_size: 10,
            capacities: Vec::new(),
            beta: 2.0,
            delta: 1.0,
        };
        let via_build = WindowEngine::build(
            cfg,
            VariantSpec::Matroid {
                matroid: PartitionMatroid::new(vec![1]).unwrap().into(),
                dmin: 0.1,
                dmax: 10.0,
            },
            Euclidean,
        );
        assert!(via_build.is_ok());
    }

    #[test]
    fn reset_engine_replays_like_a_fresh_one() {
        // Every variant: stream, reset, re-stream a different prefix —
        // answers and memory accounting must equal a fresh engine's.
        let mk_all = || -> Vec<WindowEngine<Euclidean>> {
            vec![
                base().fixed(0.01, 1e4).build(Euclidean).unwrap(),
                base().oblivious().build(Euclidean).unwrap(),
                base().compact(0.01, 1e4).build(Euclidean).unwrap(),
                base().robust(1, 0.01, 1e4).build(Euclidean).unwrap(),
                base()
                    .matroid(PartitionMatroid::new(vec![1, 1]).unwrap(), 0.01, 1e4)
                    .build(Euclidean)
                    .unwrap(),
            ]
        };
        let first: Vec<_> = (0..90u64)
            .map(|i| cp((i as f64 * 0.618_033_988_7).fract() * 300.0, (i % 2) as u32))
            .collect();
        let second: Vec<_> = (0..70u64)
            .map(|i| cp((i as f64 * 0.324_717_957_2).fract() * 40.0, (i % 2) as u32))
            .collect();
        let mut reused = mk_all();
        for e in &mut reused {
            e.insert_batch(first.iter().cloned());
            e.reset();
            assert_eq!(e.time(), 0, "{}: reset kept the clock", e.variant_name());
            assert_eq!(
                e.stored_points(),
                0,
                "{}: reset kept points",
                e.variant_name()
            );
            assert_eq!(
                e.memory_stats().unique_points,
                0,
                "{}: reset kept arena payloads",
                e.variant_name()
            );
            e.insert_batch(second.iter().cloned());
        }
        let mut fresh = mk_all();
        for e in &mut fresh {
            e.insert_batch(second.iter().cloned());
        }
        for (r, f) in reused.iter().zip(&fresh) {
            let name = r.variant_name();
            r.check_invariants().unwrap();
            assert_eq!(r.time(), f.time(), "{name}: time");
            assert_eq!(r.stored_points(), f.stored_points(), "{name}: memory");
            let (a, b) = (r.query().unwrap(), f.query().unwrap());
            assert_eq!(a.guess.to_bits(), b.guess.to_bits(), "{name}: guess");
            assert_eq!(
                a.coreset_radius.to_bits(),
                b.coreset_radius.to_bits(),
                "{name}: radius"
            );
            assert_eq!(a.centers.len(), b.centers.len(), "{name}: centers");
        }
    }

    #[test]
    fn engine_snapshot_roundtrips_every_variant() {
        let laminar =
            LaminarMatroid::new(vec![Group::new(vec![0], 1), Group::new(vec![0, 1], 2)]).unwrap();
        let mut fleet: Vec<WindowEngine<Euclidean>> = vec![
            base().fixed(0.01, 1e4).build(Euclidean).unwrap(),
            base().oblivious().build(Euclidean).unwrap(),
            base().compact(0.01, 1e4).build(Euclidean).unwrap(),
            base().robust(1, 0.01, 1e4).build(Euclidean).unwrap(),
            base().matroid(laminar, 0.01, 1e4).build(Euclidean).unwrap(),
        ];
        for i in 0..60u64 {
            let p = cp((i as f64 * 0.618_033_988_7).fract() * 200.0, (i % 2) as u32);
            for e in &mut fleet {
                e.insert(p.clone());
            }
        }
        for e in &fleet {
            let name = e.variant_name();
            let bytes = e.snapshot().expect("every variant snapshots");
            let restored = WindowEngine::restore(Euclidean, &bytes).unwrap();
            assert_eq!(restored.variant_name(), name);
            assert_eq!(restored.time(), e.time(), "{name}");
            assert_eq!(restored.num_colors(), 2, "{name}");
            let (a, b) = (e.query().unwrap(), restored.query().unwrap());
            assert_eq!(a.guess.to_bits(), b.guess.to_bits(), "{name}");
            assert_eq!(
                a.coreset_radius.to_bits(),
                b.coreset_radius.to_bits(),
                "{name}"
            );
        }
    }

    fn wide(i: u64, dim: usize) -> Colored<EuclidPoint> {
        let coords: Vec<f64> = (0..dim)
            .map(|d| ((i * dim as u64 + d as u64) as f64 * 0.37).sin())
            .collect();
        Colored::new(EuclidPoint::new(coords), (i % 2) as u32)
    }

    #[test]
    fn projected_engine_stores_low_dim_payloads() {
        for sparse in [false, true] {
            let builder = base().fixed(1e-4, 1e3);
            let builder = if sparse {
                builder.project_sparse(8, 7)
            } else {
                builder.project(8, 7)
            };
            let mut eng = builder.build(Euclidean).unwrap();
            for i in 0..50 {
                eng.insert(wide(i, 64));
            }
            let sol = eng.query().unwrap();
            assert!(
                sol.centers.iter().all(|c| c.point.dim() == 8),
                "sparse={sparse}: centers kept the raw dimension"
            );
            let proj = eng.projection().expect("projection configured");
            assert_eq!(proj.in_dim(), Some(64));
            assert_eq!(proj.out_dim(), 8);
            assert_eq!(proj.sparse(), sparse);
        }
    }

    #[test]
    fn projected_snapshot_roundtrips_bit_identically() {
        let mut orig = base()
            .fixed(1e-4, 1e3)
            .project(8, 1234)
            .build(Euclidean)
            .unwrap();
        for i in 0..60 {
            orig.insert(wide(i, 96));
        }
        let bytes = orig.snapshot().expect("every variant snapshots");
        let mut restored = WindowEngine::restore(Euclidean, &bytes).unwrap();
        let rp = restored.projection().expect("projection restored");
        assert_eq!((rp.out_dim(), rp.seed(), rp.sparse()), (8, 1234, false));
        assert_eq!(rp.in_dim(), Some(96), "matrix not rematerialized");
        // Both engines continue the stream: the rematerialized matrix
        // must be bit-identical, so the answers must be too.
        for i in 60..100 {
            orig.insert(wide(i, 96));
            restored.insert(wide(i, 96));
        }
        let (a, b) = (orig.query().unwrap(), restored.query().unwrap());
        assert_eq!(a.guess.to_bits(), b.guess.to_bits());
        assert_eq!(a.coreset_radius.to_bits(), b.coreset_radius.to_bits());
        assert_eq!(a.centers.len(), b.centers.len());
    }

    #[test]
    fn reset_keeps_projection_spec_but_redetermines_in_dim() {
        let mut eng = base()
            .fixed(1e-4, 1e3)
            .project(4, 9)
            .build(Euclidean)
            .unwrap();
        eng.insert(wide(0, 32));
        assert_eq!(eng.projection().unwrap().in_dim(), Some(32));
        eng.reset();
        assert_eq!(eng.projection().unwrap().in_dim(), None);
        eng.insert(wide(0, 16));
        assert_eq!(eng.projection().unwrap().in_dim(), Some(16));
        assert_eq!(eng.projection().unwrap().out_dim(), 4);
    }

    #[test]
    fn insert_batch_matches_repeated_insert() {
        let stream: Vec<_> = (0..90u64)
            .map(|i| cp((i as f64 * 0.324_717_957_2).fract() * 200.0, (i % 2) as u32))
            .collect();
        let mut one = base().fixed(0.01, 1e4).build(Euclidean).unwrap();
        let mut batch = base().fixed(0.01, 1e4).build(Euclidean).unwrap();
        for p in &stream {
            one.insert(p.clone());
        }
        batch.insert_batch(stream);
        assert_eq!(one.time(), batch.time());
        assert_eq!(one.stored_points(), batch.stored_points());
        let (a, b) = (one.query().unwrap(), batch.query().unwrap());
        assert_eq!(a.guess, b.guess);
        assert_eq!(a.coreset_size, b.coreset_size);
        assert_eq!(a.centers.len(), b.centers.len());
    }
}
