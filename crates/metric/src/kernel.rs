//! Batched, cache-friendly distance staging: the columnar coreset view
//! and the reusable scratch behind the [`Metric`] block kernels.
//!
//! The query path of every sliding-window variant is distance-dominated:
//! the `2γ`-packing test and the coreset solvers evaluate `O(n·k)`
//! pairwise distances per guess, and before this layer each evaluation
//! chased an `Arc<[f64]>` pointer per point (the classic
//! array-of-structures bottleneck). This module turns those scattered
//! evaluations into block operations:
//!
//! * [`CoresetView`] gathers a candidate set **once** — from a point
//!   slice, a colored slice, or straight out of a
//!   [`PointStore`](crate::PointStore) [`Resolver`] — and asks the metric
//!   to *stage* it ([`Metric::stage`]). The bundled coordinate metrics
//!   stage a contiguous structure-of-arrays mirror ([`SoaBlock`]) so
//!   their hand-tuned kernels stream columns instead of chasing
//!   pointers; metrics without a columnar form keep the row clones and
//!   fall back to per-pair scalar [`Metric::dist`].
//! * [`DistScratch`] bundles the view with the reusable `f64` buffers
//!   (kernel output, running minima) a query needs, so steady-state
//!   queries stage distances without allocating.
//! * [`ScratchPool`] checks scratches out and back in, which is how
//!   concurrent `&self` queries on one `fairsw-core` engine each get
//!   their own reusable buffers.
//!
//! ## Bit-identity contract
//!
//! Every kernel must produce **exactly** the scalar result:
//! `dist_one_to_many(q, view, out)` writes `out[i] == dist(q, view[i])`
//! bit for bit. The hand-tuned implementations keep the scalar
//! accumulation order per point (coordinates ascending, same operations)
//! and only interleave independent points, so no floating-point
//! reassociation occurs. Property tests in this crate compare every
//! kernel against scalar `dist` across dimensions 1–64, including empty
//! and singleton blocks.
//!
//! One caveat for custom metrics: the batched call sites fix which
//! operand plays the `q` role (e.g. a packing scan evaluates
//! member→candidates where the scalar loop evaluated
//! candidate→members), so exact replay of a pre-batching scalar scan
//! additionally assumes `dist(a, b)` and `dist(b, a)` agree **to the
//! bit**. All four bundled metrics do (their per-coordinate terms are
//! exactly symmetric); a custom metric that is symmetric only up to
//! rounding keeps the mathematical guarantees but may break ties
//! differently than a pointwise scan would.

use crate::metric::Metric;
use crate::point::Colored;
use crate::store::{ColoredId, PointId, Resolver};
use std::sync::Mutex;

/// Points per register tile of the columnar layout and kernels: one
/// cache line of `f64`s, small enough for per-lane accumulators to live
/// in SIMD registers.
pub const LANES: usize = 8;

/// One `f64` lane group: the [`LANES`] values a kernel folds per
/// (tile, dimension) step. `align(64)` pins every group — and therefore
/// every tile — to a cache-line boundary, so vector loads are aligned
/// and a group never straddles two lines.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C, align(64))]
struct Lane64([f64; LANES]);

/// One `f32` lane group ([`LANES`] values, 32 bytes — exactly one
/// 256-bit vector register), aligned to its own size.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C, align(32))]
struct Lane32([f32; LANES]);

/// A tiled columnar (structure-of-arrays) coordinate block: points are
/// grouped into tiles of [`LANES`], and within a tile the layout is
/// dimension-major (`tile[d * LANES + lane]`). A kernel therefore
/// streams the whole block **linearly** — one contiguous lane group per
/// (tile, dimension) — while keeping per-lane accumulators in
/// registers; a flat dimension-major layout would instead stride by the
/// block length and collide in the cache. (This "array of structures of
/// arrays" tiling is the layout under the hand-tuned kernels of the
/// bundled metrics.) The trailing partial tile is zero-padded; kernels
/// compute the padding lanes and discard them.
///
/// The backing storage is a vector of 64-byte-aligned lane groups, so
/// every (tile, dimension) group starts on a cache-line boundary and
/// the SIMD kernels of [`crate::simd`] always hit aligned loads.
#[derive(Clone, Debug, Default)]
pub struct SoaBlock {
    /// `ceil(len / LANES) * dim` lane groups, tile-major.
    cols: Vec<Lane64>,
    dim: usize,
    len: usize,
}

impl SoaBlock {
    /// Number of staged points (padding excluded).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the staged points.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of [`LANES`]-wide tiles (the last may be padded).
    #[inline]
    pub fn tiles(&self) -> usize {
        self.len.div_ceil(LANES)
    }

    /// The staged values as one flat slice (tile-major, dimension-major
    /// within a tile).
    #[inline]
    fn flat(&self) -> &[f64] {
        // SAFETY: `Lane64` is `repr(C)` over `[f64; LANES]` with size 64
        // and no padding, so a `Lane64` slice reinterprets soundly as a
        // `f64` slice of `LANES ×` the length.
        unsafe { std::slice::from_raw_parts(self.cols.as_ptr().cast(), self.cols.len() * LANES) }
    }

    #[inline]
    fn flat_mut(&mut self) -> &mut [f64] {
        // SAFETY: as in `flat`.
        unsafe {
            std::slice::from_raw_parts_mut(self.cols.as_mut_ptr().cast(), self.cols.len() * LANES)
        }
    }

    /// The `t`-th tile: `dim * LANES` values, dimension-major
    /// (`tile[d * LANES + lane]`), 64-byte aligned.
    #[inline]
    pub fn tile(&self, t: usize) -> &[f64] {
        let w = self.dim * LANES;
        &self.flat()[t * w..(t + 1) * w]
    }

    /// Coordinate `d` of point `i` (tests, diagnostics — kernels walk
    /// tiles directly).
    #[inline]
    pub fn coord(&self, d: usize, i: usize) -> f64 {
        self.flat()[(i / LANES) * self.dim * LANES + d * LANES + (i % LANES)]
    }

    /// Drops the staged columns, keeping the allocation.
    pub fn clear(&mut self) {
        self.cols.clear();
        self.dim = 0;
        self.len = 0;
    }

    /// Stages `rows` (one coordinate slice per point, all of equal
    /// dimension) into the tiled layout. Reuses the existing allocation.
    pub fn stage_rows<'a, I>(&mut self, dim: usize, rows: I)
    where
        I: IntoIterator<Item = &'a [f64]>,
        I::IntoIter: ExactSizeIterator,
    {
        let rows = rows.into_iter();
        let len = rows.len();
        self.dim = dim;
        self.len = len;
        self.cols.clear();
        self.cols
            .resize(len.div_ceil(LANES) * dim, Lane64::default());
        let flat = self.flat_mut();
        for (i, row) in rows.enumerate() {
            debug_assert_eq!(row.len(), dim, "ragged rows staged into SoaBlock");
            let base = (i / LANES) * dim * LANES + (i % LANES);
            for (d, &x) in row.iter().enumerate() {
                flat[base + d * LANES] = x;
            }
        }
    }
}

/// The `f32` twin of [`SoaBlock`]: same [`LANES`]-wide AoSoA tiling,
/// half the bytes per coordinate, so one 256-bit register holds a whole
/// lane group. Staged by the compact payload mirror (the
/// [`Approx`](crate::Exactness::Approx) compact-staging mode of
/// [`Relaxed`](crate::Relaxed) and the
/// [`CompactEuclidean`](crate::CompactEuclidean) /
/// [`Q8Euclidean`](crate::Q8Euclidean) metrics) and consumed by the
/// `f32` kernels of [`crate::simd`]. Exact-mode kernels widen each
/// stored `f32` to `f64` and accumulate in `f64`, which reproduces the
/// compact metrics' scalar `dist` bit for bit; approximate-mode kernels
/// accumulate natively in `f32`.
#[derive(Clone, Debug, Default)]
pub struct SoaBlock32 {
    /// `ceil(len / LANES) * dim` lane groups, tile-major.
    cols: Vec<Lane32>,
    dim: usize,
    len: usize,
}

impl SoaBlock32 {
    /// Number of staged points (padding excluded).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the staged points.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of [`LANES`]-wide tiles (the last may be padded).
    #[inline]
    pub fn tiles(&self) -> usize {
        self.len.div_ceil(LANES)
    }

    #[inline]
    fn flat(&self) -> &[f32] {
        // SAFETY: `Lane32` is `repr(C)` over `[f32; LANES]` with size 32
        // and no padding.
        unsafe { std::slice::from_raw_parts(self.cols.as_ptr().cast(), self.cols.len() * LANES) }
    }

    #[inline]
    fn flat_mut(&mut self) -> &mut [f32] {
        // SAFETY: as in `flat`.
        unsafe {
            std::slice::from_raw_parts_mut(self.cols.as_mut_ptr().cast(), self.cols.len() * LANES)
        }
    }

    /// The `t`-th tile: `dim * LANES` values, dimension-major
    /// (`tile[d * LANES + lane]`), 32-byte aligned.
    #[inline]
    pub fn tile(&self, t: usize) -> &[f32] {
        let w = self.dim * LANES;
        &self.flat()[t * w..(t + 1) * w]
    }

    /// Coordinate `d` of point `i` (tests, diagnostics).
    #[inline]
    pub fn coord(&self, d: usize, i: usize) -> f32 {
        self.flat()[(i / LANES) * self.dim * LANES + d * LANES + (i % LANES)]
    }

    /// Drops the staged columns, keeping the allocation.
    pub fn clear(&mut self) {
        self.cols.clear();
        self.dim = 0;
        self.len = 0;
    }

    /// Stages `rows` (one `f32` value iterator per point, all of equal
    /// dimension) into the tiled layout. Reuses the existing allocation.
    /// The per-row iterator shape lets callers stage narrowed `f64`
    /// coordinates, native `f32` coordinates, or decoded quantized codes
    /// without materializing intermediate rows.
    pub fn stage_rows<I, R>(&mut self, dim: usize, rows: I)
    where
        I: IntoIterator<Item = R>,
        I::IntoIter: ExactSizeIterator,
        R: IntoIterator<Item = f32>,
    {
        let rows = rows.into_iter();
        let len = rows.len();
        self.dim = dim;
        self.len = len;
        self.cols.clear();
        self.cols
            .resize(len.div_ceil(LANES) * dim, Lane32::default());
        let flat = self.flat_mut();
        for (i, row) in rows.enumerate() {
            let base = (i / LANES) * dim * LANES + (i % LANES);
            let mut staged = 0usize;
            for (d, x) in row.into_iter().enumerate() {
                flat[base + d * LANES] = x;
                staged += 1;
            }
            debug_assert_eq!(staged, dim, "ragged rows staged into SoaBlock32");
        }
    }
}

/// How a [`CoresetView`]'s batched kernels are allowed to compute —
/// stamped onto the view at [`Metric::stage`] time (the
/// [`Relaxed`](crate::Relaxed) wrapper sets it from its
/// [`Exactness`](crate::Exactness); plain metrics leave the default).
///
/// * [`Exact`](KernelMode::Exact) — scalar tiled kernels only,
///   bit-identical to per-pair [`Metric::dist`]. The default; every
///   differential suite that asserts byte equality runs here.
/// * [`Simd`](KernelMode::Simd) — the runtime-dispatched `f64` SIMD
///   kernels of [`crate::simd`] may run. FMA contraction changes L2 /
///   angular rounding by an ulp-scale amount.
/// * [`SimdF32`](KernelMode::SimdF32) — staging uses the compact `f32`
///   mirror ([`SoaBlock32`]) and kernels accumulate in `f32`; final
///   answers are expected to be re-ranked through
///   [`Metric::dist_one_to_many_exact`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelMode {
    /// Scalar tiled kernels, bit-identical to scalar `dist`.
    #[default]
    Exact,
    /// `f64` SIMD kernels allowed (ulp-scale FMA divergence).
    Simd,
    /// Compact `f32` staging and arithmetic (re-rank exact).
    SimdF32,
}

/// A staged set of candidate points for batched distance evaluation.
///
/// The view always owns row clones of the gathered points (cheap for the
/// `Arc`-backed [`EuclidPoint`](crate::EuclidPoint)) plus their colors
/// when gathered from colored sources; [`Metric::stage`] may additionally
/// fill the columnar [`SoaBlock`] mirror its kernels read. Gathering
/// through a [`Resolver`] touches the [`PointStore`](crate::PointStore)
/// exactly once per point — downstream kernel calls never go back to the
/// arena.
///
/// All buffers are retained across [`clear`](Self::clear)/regather
/// cycles, so a view embedded in a [`DistScratch`] reaches a steady
/// state where gathering allocates nothing.
#[derive(Clone, Debug)]
pub struct CoresetView<P> {
    points: Vec<P>,
    colors: Vec<u32>,
    soa: SoaBlock,
    soa32: SoaBlock32,
    mode: KernelMode,
}

impl<P> Default for CoresetView<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> CoresetView<P> {
    /// An empty view.
    pub fn new() -> Self {
        CoresetView {
            points: Vec::new(),
            colors: Vec::new(),
            soa: SoaBlock::default(),
            soa32: SoaBlock32::default(),
            mode: KernelMode::Exact,
        }
    }

    /// Number of staged points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the view holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The staged points (row order = gather order).
    #[inline]
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// The `i`-th staged point.
    #[inline]
    pub fn point(&self, i: usize) -> &P {
        &self.points[i]
    }

    /// The colors gathered alongside the points (empty when the view was
    /// gathered from an uncolored source).
    #[inline]
    pub fn colors(&self) -> &[u32] {
        &self.colors
    }

    /// The columnar mirror, when the metric staged one (`None` for
    /// metrics relying on the scalar fallback, and for empty views).
    #[inline]
    pub fn soa(&self) -> Option<&SoaBlock> {
        (self.soa.len() == self.points.len() && !self.points.is_empty()).then_some(&self.soa)
    }

    /// Mutable access to the columnar mirror — what [`Metric::stage`]
    /// implementations fill.
    #[inline]
    pub fn soa_mut(&mut self) -> &mut SoaBlock {
        &mut self.soa
    }

    /// The compact `f32` columnar mirror, when the metric staged one
    /// (`None` unless staging ran in a compact mode, and for empty
    /// views).
    #[inline]
    pub fn soa32(&self) -> Option<&SoaBlock32> {
        (self.soa32.len() == self.points.len() && !self.points.is_empty()).then_some(&self.soa32)
    }

    /// Mutable access to the compact `f32` mirror — what compact-mode
    /// [`Metric::stage`] implementations fill.
    #[inline]
    pub fn soa32_mut(&mut self) -> &mut SoaBlock32 {
        &mut self.soa32
    }

    /// The kernel mode stamped onto this view at staging time
    /// ([`KernelMode::Exact`] unless a relaxed metric staged it).
    #[inline]
    pub fn mode(&self) -> KernelMode {
        self.mode
    }

    /// Stamps the kernel mode — called by [`Metric::stage`]
    /// implementations (the [`Relaxed`](crate::Relaxed) wrapper) before
    /// filling the columnar mirrors.
    #[inline]
    pub fn set_mode(&mut self, mode: KernelMode) {
        self.mode = mode;
    }

    /// Drops the staged points, keeping every allocation. Resets the
    /// kernel mode to [`KernelMode::Exact`]; the next staging metric
    /// re-stamps it.
    pub fn clear(&mut self) {
        self.points.clear();
        self.colors.clear();
        self.soa.clear();
        self.soa32.clear();
        self.mode = KernelMode::Exact;
    }

    /// Gathers clones of `points` (no colors) and stages them for
    /// `metric`'s kernels.
    pub fn gather<'a, M>(&mut self, metric: &M, points: impl IntoIterator<Item = &'a P>)
    where
        M: Metric<Point = P>,
        P: Clone + 'a,
    {
        self.clear();
        self.points.extend(points.into_iter().cloned());
        metric.stage(self);
    }

    /// Gathers clones of `points` with their colors and stages them.
    pub fn gather_colored<'a, M>(
        &mut self,
        metric: &M,
        points: impl IntoIterator<Item = &'a Colored<P>>,
    ) where
        M: Metric<Point = P>,
        P: Clone + 'a,
    {
        self.clear();
        for c in points {
            self.points.push(c.point.clone());
            self.colors.push(c.color);
        }
        metric.stage(self);
    }

    /// Gathers the payloads behind `ids` out of the arena — one resolver
    /// pass — and stages them.
    pub fn gather_ids<M>(
        &mut self,
        metric: &M,
        res: Resolver<'_, P>,
        ids: impl IntoIterator<Item = PointId>,
    ) where
        M: Metric<Point = P>,
        P: Clone,
    {
        self.clear();
        self.points
            .extend(ids.into_iter().map(|id| res.get(id).clone()));
        metric.stage(self);
    }

    /// Gathers the payloads behind colored `ids` — one resolver pass —
    /// recording their colors, and stages them.
    pub fn gather_colored_ids<M>(
        &mut self,
        metric: &M,
        res: Resolver<'_, P>,
        ids: impl IntoIterator<Item = ColoredId>,
    ) where
        M: Metric<Point = P>,
        P: Clone,
    {
        self.clear();
        for c in ids {
            self.points.push(res.get(c.point).clone());
            self.colors.push(c.color);
        }
        metric.stage(self);
    }
}

/// The reusable buffers a batched query needs: a staged
/// [`CoresetView`] plus the `f64` working arrays the kernel call sites
/// share. Clearing retains capacity, so a scratch that has seen one
/// query stages the next without allocating.
#[derive(Clone, Debug)]
pub struct DistScratch<P> {
    /// The staged candidate set (regathered per query).
    pub view: CoresetView<P>,
    /// Kernel output buffer (one distance per staged point).
    pub dist: Vec<f64>,
    /// Running minima (distance-to-set scans).
    pub min_dist: Vec<f64>,
    /// Packed row indices ([`packing_scan`]).
    pub packed: Vec<usize>,
}

impl<P> Default for DistScratch<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> DistScratch<P> {
    /// An empty scratch.
    pub fn new() -> Self {
        DistScratch {
            view: CoresetView::new(),
            dist: Vec::new(),
            min_dist: Vec::new(),
            packed: Vec::new(),
        }
    }
}

/// A check-out/check-in pool of scratches shared by an engine's
/// queries: each query borrows one scratch for the duration of its scan
/// and returns it, so buffers warm up once and are reused across guesses
/// *and* across queries, while concurrent `&self` queries never share
/// one. Cloning an owner produces
/// a fresh empty pool — scratch contents are never semantic state.
pub struct ScratchPool<S> {
    pool: Mutex<Vec<S>>,
}

impl<S> Default for ScratchPool<S> {
    fn default() -> Self {
        ScratchPool {
            pool: Mutex::new(Vec::new()),
        }
    }
}

impl<S> Clone for ScratchPool<S> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<S> std::fmt::Debug for ScratchPool<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("idle", &self.pool.lock().map(|p| p.len()).unwrap_or(0))
            .finish()
    }
}

impl<S: Default> ScratchPool<S> {
    /// Borrows a scratch (a warmed-up idle one when available, a fresh
    /// one otherwise), runs `f`, and returns the scratch to the pool.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let mut scratch = self
            .pool
            .lock()
            .ok()
            .and_then(|mut p| p.pop())
            .unwrap_or_default();
        let out = f(&mut scratch);
        if let Ok(mut p) = self.pool.lock() {
            p.push(scratch);
        }
        out
    }
}

/// Shared greedy-packing scan over a staged view: visits points in row
/// order, adding every point farther than `threshold` from all
/// previously added ones (the `2γ`-packing of Algorithm 3 and the head
/// selection of the Chen-style solvers). Returns `None` as soon as more
/// than `cap` points are packed; otherwise the number packed, with the
/// packed row indices left in the caller-owned `packed` buffer (part of
/// [`DistScratch`], so steady-state scans allocate nothing).
///
/// Decision-identical to the scalar loop
/// `if dist_to_set(p, packing) > threshold { push }`: the running
/// minimum in `scratch_min` equals `dist_to_set` at every visit
/// because each packed point batch-updates the minima of all later rows.
pub fn packing_scan<M: Metric>(
    metric: &M,
    view: &CoresetView<M::Point>,
    threshold: f64,
    cap: usize,
    scratch_dist: &mut Vec<f64>,
    scratch_min: &mut Vec<f64>,
    packed: &mut Vec<usize>,
) -> Option<usize> {
    let n = view.len();
    scratch_min.clear();
    scratch_min.resize(n, f64::INFINITY);
    scratch_dist.clear();
    scratch_dist.resize(n, 0.0);
    packed.clear();
    for i in 0..n {
        if scratch_min[i] > threshold {
            packed.push(i);
            if packed.len() > cap {
                return None;
            }
            metric.dist_one_to_many(view.point(i), view, scratch_dist);
            for j in (i + 1)..n {
                if scratch_dist[j] < scratch_min[j] {
                    scratch_min[j] = scratch_dist[j];
                }
            }
        }
    }
    Some(packed.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Euclidean;
    use crate::point::EuclidPoint;
    use crate::store::PointStore;

    fn pts(vals: &[f64]) -> Vec<EuclidPoint> {
        vals.iter().map(|&v| EuclidPoint::new(vec![v])).collect()
    }

    #[test]
    fn soa_block_stages_tiled_columns() {
        let mut soa = SoaBlock::default();
        // Cross a tile boundary so the padded trailing tile is covered.
        let rows: Vec<Vec<f64>> = (0..LANES + 3)
            .map(|i| vec![i as f64, -(i as f64)])
            .collect();
        soa.stage_rows(2, rows.iter().map(Vec::as_slice));
        assert_eq!(soa.len(), LANES + 3);
        assert_eq!(soa.dim(), 2);
        assert_eq!(soa.tiles(), 2);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(soa.coord(0, i), row[0]);
            assert_eq!(soa.coord(1, i), row[1]);
        }
        // Lane groups are contiguous per (tile, dimension).
        assert_eq!(&soa.tile(0)[..4], &[0.0, 1.0, 2.0, 3.0]);
        soa.clear();
        assert!(soa.is_empty());
    }

    #[test]
    fn view_gathers_and_stages_for_euclidean() {
        let points = pts(&[1.0, 2.0, 3.0]);
        let mut view = CoresetView::new();
        view.gather(&Euclidean, points.iter());
        assert_eq!(view.len(), 3);
        let soa = view.soa().expect("Euclidean stages columns");
        assert_eq!(
            [soa.coord(0, 0), soa.coord(0, 1), soa.coord(0, 2)],
            [1.0, 2.0, 3.0]
        );
        // Regathering reuses buffers and replaces contents.
        view.gather(&Euclidean, points[..1].iter());
        assert_eq!(view.len(), 1);
        assert_eq!(view.soa().unwrap().coord(0, 0), 1.0);
    }

    #[test]
    fn view_gathers_from_the_arena_once() {
        let mut store = PointStore::new();
        let a = store.insert(1, EuclidPoint::new(vec![1.0, 0.0]));
        let b = store.insert(2, EuclidPoint::new(vec![0.0, 1.0]));
        let mut view = CoresetView::new();
        view.gather_colored_ids(
            &Euclidean,
            store.resolver(),
            [Colored::new(a, 0), Colored::new(b, 1)],
        );
        assert_eq!(view.len(), 2);
        assert_eq!(view.colors(), &[0, 1]);
        let soa = view.soa().unwrap();
        assert_eq!([soa.coord(1, 0), soa.coord(1, 1)], [0.0, 1.0]);
    }

    #[test]
    fn empty_view_has_no_soa() {
        let mut view: CoresetView<EuclidPoint> = CoresetView::new();
        view.gather(&Euclidean, std::iter::empty());
        assert!(view.is_empty());
        assert!(view.soa().is_none());
    }

    #[test]
    fn scratch_pool_recycles() {
        let pool: ScratchPool<DistScratch<EuclidPoint>> = ScratchPool::default();
        pool.with(|s| {
            s.dist.resize(16, 0.0);
        });
        // The returned scratch is reused: its buffer capacity survives.
        pool.with(|s| {
            assert!(s.dist.capacity() >= 16, "scratch not recycled");
        });
    }

    mod bit_identity {
        use super::super::*;
        use crate::metric::{Angular, Chebyshev, Euclidean, Manhattan};
        use crate::point::EuclidPoint;
        use proptest::prelude::*;

        /// A block of same-dimension points: dims 1–64, 0–40 points,
        /// coordinates spanning signs, magnitudes and exact zeros (the
        /// angular kernel's zero-norm mask).
        fn arb_block() -> impl Strategy<Value = (Vec<EuclidPoint>, EuclidPoint)> {
            (1usize..65).prop_flat_map(|dim| {
                let coord = prop_oneof![Just(0.0f64), -1e3..1e3f64, -1e-3..1e-3f64];
                let point = proptest::collection::vec(coord, dim).prop_map(EuclidPoint::new);
                proptest::collection::vec(point, 1..41).prop_map(|mut pts| {
                    let q = pts.pop().expect("at least one point generated");
                    (pts, q)
                })
            })
        }

        /// Asserts both kernels equal scalar `dist`, bit for bit, on the
        /// staged view — and that the unstaged (scalar-fallback) view
        /// agrees too.
        fn check_kernels<M: Metric<Point = EuclidPoint>>(
            metric: &M,
            block: &[EuclidPoint],
            q: &EuclidPoint,
        ) -> Result<(), TestCaseError> {
            let mut view = CoresetView::new();
            view.gather(metric, block.iter());
            let mut out = vec![f64::NAN; block.len()];
            metric.dist_one_to_many(q, &view, &mut out);
            for (i, p) in block.iter().enumerate() {
                let scalar = metric.dist(q, p);
                prop_assert_eq!(
                    out[i].to_bits(),
                    scalar.to_bits(),
                    "one_to_many[{}] = {} != scalar {}",
                    i,
                    out[i],
                    scalar
                );
            }
            // Unstaged view: same answers through the scalar fallback.
            let mut raw: CoresetView<EuclidPoint> = CoresetView::new();
            raw.clear();
            for p in block {
                raw.points.push(p.clone());
            }
            let mut out_raw = vec![f64::NAN; block.len()];
            metric.dist_one_to_many(q, &raw, &mut out_raw);
            for i in 0..block.len() {
                prop_assert_eq!(out_raw[i].to_bits(), out[i].to_bits());
            }
            // Many-to-many: the full matrix against per-pair scalar.
            let mut mat = vec![f64::NAN; block.len() * block.len()];
            metric.dist_many_to_many(&view, &view, &mut mat);
            for (i, a) in block.iter().enumerate() {
                for (j, b) in block.iter().enumerate() {
                    let scalar = metric.dist(a, b);
                    prop_assert_eq!(
                        mat[i * block.len() + j].to_bits(),
                        scalar.to_bits(),
                        "many_to_many[{},{}] diverged",
                        i,
                        j
                    );
                }
            }
            Ok(())
        }

        macro_rules! kernel_identity_tests {
            ($name:ident, $metric:expr) => {
                mod $name {
                    use super::*;

                    proptest! {
                        #![proptest_config(ProptestConfig::with_cases(48))]

                        #[test]
                        fn kernels_match_scalar(case in arb_block()) {
                            let (block, q) = case;
                            check_kernels(&$metric, &block, &q)?;
                        }
                    }

                    #[test]
                    fn empty_and_singleton_blocks() {
                        let m = $metric;
                        let q = EuclidPoint::new(vec![1.0, -2.0, 3.0]);
                        check_kernels::<_>(&m, &[], &q).unwrap();
                        let single = [EuclidPoint::new(vec![0.5, 0.0, -4.0])];
                        check_kernels::<_>(&m, &single, &q).unwrap();
                        // Zero vectors exercise the angular convention.
                        let zeros = [
                            EuclidPoint::new(vec![0.0, 0.0, 0.0]),
                            EuclidPoint::new(vec![1.0, 1.0, 1.0]),
                        ];
                        check_kernels::<_>(&m, &zeros, &q).unwrap();
                        check_kernels::<_>(&m, &zeros, &EuclidPoint::new(vec![0.0, 0.0, 0.0]))
                            .unwrap();
                    }

                    #[test]
                    fn chunk_boundaries() {
                        // Cross the kernel chunk width so the chunked
                        // angular path sees full and partial chunks.
                        let m = $metric;
                        let block: Vec<EuclidPoint> = (0..300)
                            .map(|i| {
                                let x = (i as f64 * 0.618_033_988_7).fract() * 10.0 - 5.0;
                                EuclidPoint::new(vec![x, -x, x * 0.5])
                            })
                            .collect();
                        let q = EuclidPoint::new(vec![0.3, 4.0, -1.0]);
                        check_kernels::<_>(&m, &block, &q).unwrap();
                    }
                }
            };
        }

        kernel_identity_tests!(euclidean, Euclidean);
        kernel_identity_tests!(manhattan, Manhattan);
        kernel_identity_tests!(chebyshev, Chebyshev);
        kernel_identity_tests!(angular, Angular);
    }

    #[test]
    fn packing_scan_matches_scalar_greedy() {
        let points = pts(&[0.0, 0.5, 3.0, 3.4, 10.0, 10.1, 20.0]);
        let mut view = CoresetView::new();
        view.gather(&Euclidean, points.iter());
        let (mut d, mut m, mut packed) = (Vec::new(), Vec::new(), Vec::new());
        let count = packing_scan(&Euclidean, &view, 2.0, 10, &mut d, &mut m, &mut packed).unwrap();
        // Scalar reference.
        let mut reference: Vec<usize> = Vec::new();
        for (i, p) in points.iter().enumerate() {
            let dmin = Euclidean.dist_to_set(p, reference.iter().map(|&j| &points[j]));
            if dmin > 2.0 {
                reference.push(i);
            }
        }
        assert_eq!(count, reference.len());
        assert_eq!(packed, reference);
        // Cap overflow bails.
        assert!(packing_scan(&Euclidean, &view, 2.0, 2, &mut d, &mut m, &mut packed).is_none());
    }
}
