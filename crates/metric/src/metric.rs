//! The distance-oracle trait and the concrete metrics used in the
//! experiments.

use crate::block::ArrivalBlock;
use crate::kernel::{CoresetView, KernelMode, SoaBlock32};
use crate::point::EuclidPoint;
use crate::store::Resolver;

/// A metric space: a point type plus a distance oracle.
///
/// All algorithms in the workspace — the sequential baselines of
/// `fairsw-sequential` and the sliding-window algorithm of `fairsw-core` —
/// are generic over this trait, mirroring the paper's generality ("general
/// metric spaces"). Implementations must satisfy the metric axioms
/// (non-negativity, identity, symmetry, triangle inequality); the property
/// tests in this crate spot-check them for the bundled metrics.
///
/// Every method but [`dist`](Self::dist) has a default. Of the bundled
/// metrics, [`Euclidean`] overrides the Update radius tests:
/// [`within`](Self::within) with an early-exit scan,
/// [`block_coords`](Self::block_coords) to stage its leading
/// coordinates in an [`ArrivalBlock`], and
/// [`scan_within`](Self::scan_within) with a tile kernel over them.
/// [`Relaxed`] forwards all three to the wrapped metric. `Manhattan`,
/// `Chebyshev`, `Angular` and the compact point metrics keep the three
/// defaults. The four coordinate metrics and the compact ones override
/// [`stage`](Self::stage) and the batched kernels
/// ([`dist_one_to_many`](Self::dist_one_to_many),
/// [`dist_one_to_many_exact`](Self::dist_one_to_many_exact)).
pub trait Metric: Clone {
    /// The point type of the space. The [`PointFootprint`] bound feeds
    /// the byte-level memory accounting; its default implementation
    /// (inline size only) makes custom point types a one-line impl.
    ///
    /// [`PointFootprint`]: crate::store::PointFootprint
    type Point: Clone + std::fmt::Debug + crate::store::PointFootprint;

    /// The distance between two points. Must be finite and `>= 0`.
    fn dist(&self, a: &Self::Point, b: &Self::Point) -> f64;

    /// Whether `a` and `b` lie within distance `r` of each other:
    /// exactly `self.dist(a, b) <= r`, for every input — NaN or infinite
    /// coordinates and a negative or NaN `r` included. This is the
    /// radius test of the sliding-window Update, which fails for almost
    /// every pair it tries, so an override may stop reading coordinates
    /// once the answer is settled, but it must never decide differently
    /// from that comparison.
    ///
    /// The default is the comparison itself.
    #[inline]
    fn within(&self, a: &Self::Point, b: &Self::Point, r: f64) -> bool {
        self.dist(a, b) <= r
    }

    /// The coordinates an [`ArrivalBlock`] row stages for `p`, or `None`
    /// to stage nothing. The block keeps the first 16 of them (two
    /// early-exit chunks of [`Euclidean::within`]) for
    /// [`scan_within`](Self::scan_within) to stream; it stages only rows
    /// of one dimension.
    ///
    /// The default stages nothing, so a block holds arrival times and
    /// arena ids only, and the default scan never reads a head.
    #[inline]
    fn block_coords<'p>(&self, p: &'p Self::Point) -> Option<&'p [f64]> {
        let _ = p;
        None
    }

    /// Calls `hit(row)`, oldest row first, for every row of `block`
    /// whose point lies within `r` of `p`: exactly the rows for which
    /// `self.within(p, q, r)` holds, where `q` is the payload behind the
    /// row's arena id in `res`. This is the Update's scan of a guess's
    /// c-attractors, and the same contract as `within` binds it: an
    /// override may decide a row from its staged head, but never
    /// differently from `within`.
    ///
    /// The default calls `within` once per row through the resolver.
    #[inline]
    fn scan_within(
        &self,
        p: &Self::Point,
        block: &ArrivalBlock,
        res: Resolver<'_, Self::Point>,
        r: f64,
        hit: impl FnMut(usize),
    ) {
        scan_each(self, p, block, res, r, hit);
    }

    /// Distance from `p` to the closest of `set`, or `f64::INFINITY` when
    /// `set` is empty. Convenience used by every clustering routine.
    fn dist_to_set<'a, I>(&self, p: &Self::Point, set: I) -> f64
    where
        I: IntoIterator<Item = &'a Self::Point>,
        Self::Point: 'a,
    {
        let mut best = f64::INFINITY;
        for q in set {
            let d = self.dist(p, q);
            if d < best {
                best = d;
            }
        }
        best
    }

    /// Stages a freshly gathered [`CoresetView`] into whatever block
    /// layout this metric's batched kernels consume.
    ///
    /// The default stages nothing: the kernels then fall back to per-row
    /// scalar [`dist`](Self::dist) calls over the view's point clones.
    /// The bundled coordinate metrics override this to fill the view's
    /// columnar [`SoaBlock`](crate::SoaBlock) mirror, which their
    /// hand-tuned kernels stream with unit stride.
    #[inline]
    fn stage(&self, view: &mut CoresetView<Self::Point>) {
        let _ = view;
    }

    /// Batched one-to-many distances: writes
    /// `out[i] = dist(q, view[i])` for every staged point, **bit
    /// identical** to the scalar [`dist`](Self::dist) — same accumulation
    /// order per point, no squared-distance shortcuts. `out` is caller
    /// owned and must hold exactly `view.len()` slots.
    ///
    /// The default is the scalar fallback (one `dist` call per row);
    /// the bundled metrics override it with columnar kernels when the
    /// view carries a staged [`SoaBlock`](crate::SoaBlock).
    #[inline]
    fn dist_one_to_many(&self, q: &Self::Point, view: &CoresetView<Self::Point>, out: &mut [f64]) {
        debug_assert_eq!(out.len(), view.len(), "output block size mismatch");
        for (o, p) in out.iter_mut().zip(view.points()) {
            *o = self.dist(q, p);
        }
    }

    /// Batched many-to-many distances: writes the row-major matrix
    /// `out[i * cols.len() + j] = dist(rows[i], cols[j])`, bit-identical
    /// to scalar [`dist`](Self::dist) per pair. `out` is caller owned
    /// and must hold exactly `rows.len() * cols.len()` slots.
    ///
    /// The default forwards each row through
    /// [`dist_one_to_many`](Self::dist_one_to_many), which is already the
    /// cache-friendly shape when that kernel is columnar.
    #[inline]
    fn dist_many_to_many(
        &self,
        rows: &CoresetView<Self::Point>,
        cols: &CoresetView<Self::Point>,
        out: &mut [f64],
    ) {
        debug_assert_eq!(
            out.len(),
            rows.len() * cols.len(),
            "output block size mismatch"
        );
        let width = cols.len();
        for (i, q) in rows.points().iter().enumerate() {
            self.dist_one_to_many(q, cols, &mut out[i * width..(i + 1) * width]);
        }
    }

    /// Like [`dist_one_to_many`](Self::dist_one_to_many) but **always**
    /// bit-identical to scalar [`dist`](Self::dist), regardless of the
    /// view's staged [`KernelMode`]. This is the exact re-rank hook:
    /// when a query ran its candidate scans in a relaxed mode (SIMD or
    /// the compact `f32` mirror), the final radius over the surviving
    /// candidate set is recomputed through this method, so reported
    /// radii always carry full `f64` semantics.
    ///
    /// The default is the scalar per-row fallback; the bundled metrics
    /// override it to use their exact tiled kernels whenever the `f64`
    /// columnar mirror is staged.
    #[inline]
    fn dist_one_to_many_exact(
        &self,
        q: &Self::Point,
        view: &CoresetView<Self::Point>,
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), view.len(), "output block size mismatch");
        for (o, p) in out.iter_mut().zip(view.points()) {
            *o = self.dist(q, p);
        }
    }
}

/// Per-engine answer-precision contract, plumbed from
/// [`EngineBuilder`](https://docs.rs/fairsw-core) / the serve tenant
/// config down to the kernels via the [`Relaxed`] metric wrapper.
///
/// * [`Exact`](Exactness::Exact) (the default): only the scalar tiled
///   kernels run; every answer is bit-identical to the pre-SIMD seed
///   semantics. All differential suites assert under this mode.
/// * [`Approx`](Exactness::Approx): the runtime-dispatched SIMD kernels
///   (and optionally the compact `f32` staging mirror) may run. The
///   engine's answers must stay within the paper's `(1+ε)` radius
///   envelope — candidate *selection* may tie-break differently, but
///   the final radius is re-ranked exactly
///   ([`Metric::dist_one_to_many_exact`]) and the reported guess/radius
///   stay within `(1+ε)` of the exact-mode answer. The `epsilon` field
///   records the envelope the caller promises to tolerate; it is a
///   contract parameter (checked by the quality-delta suites), not a
///   kernel input.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Exactness {
    /// Bit-identical scalar kernels (the default everywhere).
    #[default]
    Exact,
    /// SIMD kernels allowed; answers within the `(1+ε)` envelope.
    Approx {
        /// The tolerated relative radius slack.
        epsilon: f64,
    },
}

impl Exactness {
    /// Whether this is the bit-identical mode.
    #[inline]
    pub fn is_exact(self) -> bool {
        matches!(self, Exactness::Exact)
    }

    /// The tolerated relative slack (`0.0` in exact mode).
    #[inline]
    pub fn epsilon(self) -> f64 {
        match self {
            Exactness::Exact => 0.0,
            Exactness::Approx { epsilon } => epsilon,
        }
    }
}

/// A metric wrapper carrying the engine's [`Exactness`] mode down to
/// the kernels.
///
/// Every staging site in the workspace funnels through
/// [`Metric::stage`] (the `CoresetView::gather*` family calls it after
/// collecting rows), so stamping the mode there propagates it to every
/// solver and query path with no per-call-site plumbing: `stage` sets
/// the view's [`KernelMode`] and then delegates to the inner metric,
/// whose kernels dispatch on the stamped mode. A plain (unwrapped)
/// metric never stamps anything, so existing code stays on the exact
/// path untouched.
///
/// With [`compact staging`](Self::with_compact_staging) enabled (and an
/// `Approx` mode), the bundled coordinate metrics stage the `f32`
/// mirror [`SoaBlock32`] *instead of* the `f64` block — halving staged
/// coreset bytes and doubling lanes per vector register — and the
/// `f32` kernels run; exact `f64` re-rank still flows through
/// [`Metric::dist_one_to_many_exact`] over the row clones.
#[derive(Clone, Copy, Debug, Default)]
pub struct Relaxed<M> {
    inner: M,
    mode: Exactness,
    compact: bool,
}

impl<M> Relaxed<M> {
    /// Wraps `inner` with the given exactness mode (no compact
    /// staging).
    pub fn new(inner: M, mode: Exactness) -> Self {
        Relaxed {
            inner,
            mode,
            compact: false,
        }
    }

    /// Wraps `inner` in exact mode — behaviorally identical to the bare
    /// metric; useful where an engine type is fixed to `Relaxed<M>`.
    pub fn exact(inner: M) -> Self {
        Self::new(inner, Exactness::Exact)
    }

    /// Enables (or disables) the compact `f32` staging mirror. Only
    /// takes effect in `Approx` mode; exact mode always stages `f64`.
    pub fn with_compact_staging(mut self, compact: bool) -> Self {
        self.compact = compact;
        self
    }

    /// The wrapped metric.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The exactness mode this wrapper stamps at staging time.
    pub fn exactness(&self) -> Exactness {
        self.mode
    }

    /// Whether compact `f32` staging is enabled.
    pub fn compact_staging(&self) -> bool {
        self.compact
    }
}

impl<M: Metric> Metric for Relaxed<M> {
    type Point = M::Point;

    #[inline]
    fn dist(&self, a: &M::Point, b: &M::Point) -> f64 {
        self.inner.dist(a, b)
    }

    #[inline]
    fn within(&self, a: &M::Point, b: &M::Point, r: f64) -> bool {
        self.inner.within(a, b, r)
    }

    #[inline]
    fn block_coords<'p>(&self, p: &'p M::Point) -> Option<&'p [f64]> {
        self.inner.block_coords(p)
    }

    #[inline]
    fn scan_within(
        &self,
        p: &M::Point,
        block: &ArrivalBlock,
        res: Resolver<'_, M::Point>,
        r: f64,
        hit: impl FnMut(usize),
    ) {
        self.inner.scan_within(p, block, res, r, hit);
    }

    #[inline]
    fn dist_to_set<'a, I>(&self, p: &M::Point, set: I) -> f64
    where
        I: IntoIterator<Item = &'a M::Point>,
        M::Point: 'a,
    {
        self.inner.dist_to_set(p, set)
    }

    #[inline]
    fn stage(&self, view: &mut CoresetView<M::Point>) {
        view.set_mode(match (self.mode, self.compact) {
            (Exactness::Exact, _) => KernelMode::Exact,
            (Exactness::Approx { .. }, false) => KernelMode::Simd,
            (Exactness::Approx { .. }, true) => KernelMode::SimdF32,
        });
        self.inner.stage(view);
    }

    #[inline]
    fn dist_one_to_many(&self, q: &M::Point, view: &CoresetView<M::Point>, out: &mut [f64]) {
        // The view carries the stamped mode; the inner metric's kernels
        // dispatch on it.
        self.inner.dist_one_to_many(q, view, out);
    }

    #[inline]
    fn dist_many_to_many(
        &self,
        rows: &CoresetView<M::Point>,
        cols: &CoresetView<M::Point>,
        out: &mut [f64],
    ) {
        self.inner.dist_many_to_many(rows, cols, out);
    }

    #[inline]
    fn dist_one_to_many_exact(&self, q: &M::Point, view: &CoresetView<M::Point>, out: &mut [f64]) {
        self.inner.dist_one_to_many_exact(q, view, out);
    }
}

/// Stages the coordinate columns of a view of [`EuclidPoint`]s — the
/// shared [`Metric::stage`] body of the four bundled metrics. Views with
/// ragged dimensions are left unstaged (the kernels then use the scalar
/// fallback, whose per-pair `debug_assert` reports the mismatch).
///
/// In the compact [`KernelMode::SimdF32`] mode the `f32` mirror is
/// staged *instead of* the `f64` block — half the staged bytes; the
/// exact re-rank path then falls back to the row clones.
fn stage_euclid(view: &mut CoresetView<EuclidPoint>) {
    let Some(first) = view.points().first() else {
        return;
    };
    let dim = first.dim();
    if view.points().iter().any(|p| p.dim() != dim) {
        return;
    }
    // Move the block out to appease the borrow checker: `stage_rows`
    // reads the rows while writing the columns.
    if view.mode() == KernelMode::SimdF32 {
        let mut soa32 = std::mem::take(view.soa32_mut());
        soa32.stage_rows(
            dim,
            view.points()
                .iter()
                .map(|p| p.coords().iter().map(|&x| x as f32)),
        );
        *view.soa32_mut() = soa32;
    } else {
        let mut soa = std::mem::take(view.soa_mut());
        soa.stage_rows(dim, view.points().iter().map(EuclidPoint::coords));
        *view.soa_mut() = soa;
    }
}

use crate::kernel::{Lane64, LANES};

/// The scalar fallback body shared by the hand-tuned kernels for views
/// the metric did not stage (ragged dimensions).
pub(crate) fn scalar_one_to_many<M: Metric>(
    metric: &M,
    q: &M::Point,
    view: &CoresetView<M::Point>,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), view.len(), "output block size mismatch");
    for (o, p) in out.iter_mut().zip(view.points()) {
        *o = metric.dist(q, p);
    }
}

/// Register-tiled columnar reduction shared by the L1/L2/L∞ kernels:
/// for each [`LANES`]-wide tile, `step` folds coordinate `d` of every
/// lane into its accumulator (ascending-dimension order per point —
/// exactly the scalar loop, so no floating-point reassociation), then
/// `finish` post-processes the accumulator. The tile walk is one linear
/// pass over the staged buffer; padding lanes are computed and
/// discarded.
#[inline(always)]
fn tiled_kernel(
    q: &[f64],
    soa: &crate::kernel::SoaBlock,
    out: &mut [f64],
    init: f64,
    step: impl Fn(f64, f64, f64) -> f64,
    finish: impl Fn(f64) -> f64,
) {
    debug_assert_eq!(q.len(), soa.dim(), "dimension mismatch");
    let n = soa.len();
    for t in 0..soa.tiles() {
        let tile = soa.tile(t);
        let mut acc = [init; LANES];
        for (d, &qd) in q.iter().enumerate() {
            let lanes = &tile[d * LANES..(d + 1) * LANES];
            for (a, &x) in acc.iter_mut().zip(lanes) {
                *a = step(*a, qd, x);
            }
        }
        let start = t * LANES;
        let w = LANES.min(n - start);
        for (o, &a) in out[start..start + w].iter_mut().zip(&acc) {
            *o = finish(a);
        }
    }
}

/// Columnar L2 kernel: squared differences accumulate per point in
/// ascending-dimension order, then one square root — bit-identical to
/// the scalar loop.
pub(crate) fn l2_kernel(q: &[f64], soa: &crate::kernel::SoaBlock, out: &mut [f64]) {
    tiled_kernel(
        q,
        soa,
        out,
        0.0,
        |acc, qd, x| {
            let diff = qd - x;
            acc + diff * diff
        },
        f64::sqrt,
    );
}

/// Columnar L1 kernel (absolute differences summed in
/// ascending-dimension order).
pub(crate) fn l1_kernel(q: &[f64], soa: &crate::kernel::SoaBlock, out: &mut [f64]) {
    tiled_kernel(q, soa, out, 0.0, |acc, qd, x| acc + (qd - x).abs(), |a| a);
}

/// Columnar L∞ kernel (running maximum per point, ascending-dimension
/// order with the same `max(acc, |diff|)` argument order as the scalar
/// fold).
pub(crate) fn linf_kernel(q: &[f64], soa: &crate::kernel::SoaBlock, out: &mut [f64]) {
    tiled_kernel(
        q,
        soa,
        out,
        0.0,
        |acc, qd, x| f64::max(acc, (qd - x).abs()),
        |a| a,
    );
}

/// Tiled columnar angular kernel. Per tile, one pass accumulates the
/// candidate norms, a second accumulates the Kahan angle's `‖â−b̂‖²` /
/// `‖â+b̂‖²` sums (the tile stays resident in L1 between the passes).
/// All per-point accumulation runs in ascending-dimension order with
/// the exact scalar operations (including the `x / ‖a‖` normalizing
/// divisions), so results are bit-identical; zero-norm candidates are
/// masked to the scalar path's `0.0` convention.
pub(crate) fn angular_kernel(q: &[f64], soa: &crate::kernel::SoaBlock, out: &mut [f64]) {
    debug_assert_eq!(q.len(), soa.dim(), "dimension mismatch");
    let mut na = 0.0;
    for &x in q {
        na += x * x;
    }
    if na == 0.0 {
        out.fill(0.0);
        return;
    }
    let na = na.sqrt();
    let n = soa.len();
    for t in 0..soa.tiles() {
        let tile = soa.tile(t);
        let mut nb_sq = [0.0f64; LANES];
        for d in 0..soa.dim() {
            let lanes = &tile[d * LANES..(d + 1) * LANES];
            for (acc, &y) in nb_sq.iter_mut().zip(lanes) {
                *acc += y * y;
            }
        }
        let mut nb = [0.0f64; LANES];
        for (b, &sq) in nb.iter_mut().zip(&nb_sq) {
            *b = sq.sqrt();
        }
        let mut diff = [0.0f64; LANES];
        let mut sum = [0.0f64; LANES];
        for (d, &qd) in q.iter().enumerate() {
            let u = qd / na;
            let lanes = &tile[d * LANES..(d + 1) * LANES];
            for j in 0..LANES {
                // Zero-norm candidates (and padding lanes) divide 0/0
                // here; the NaNs are masked below, matching the scalar
                // convention.
                let v = lanes[j] / nb[j];
                let dv = u - v;
                let sv = u + v;
                diff[j] += dv * dv;
                sum[j] += sv * sv;
            }
        }
        let start = t * LANES;
        let w = LANES.min(n - start);
        for j in 0..w {
            out[start + j] = if nb_sq[j] == 0.0 {
                0.0
            } else {
                2.0 * diff[j].sqrt().atan2(sum[j].sqrt()) / std::f64::consts::PI
            };
        }
    }
}

/// The shared `dist_one_to_many` dispatch of the four bundled metrics:
/// the view's stamped [`KernelMode`] picks the kernel family — exact
/// tiled, runtime-dispatched `f64` SIMD, or compact `f32` — and views
/// without the matching staged mirror fall back to the scalar per-row
/// loop.
#[inline(always)]
fn euclid_dispatch<M: Metric<Point = EuclidPoint>>(
    metric: &M,
    q: &EuclidPoint,
    view: &CoresetView<EuclidPoint>,
    out: &mut [f64],
    exact: fn(&[f64], &crate::kernel::SoaBlock, &mut [f64]),
    simd: fn(&[f64], &crate::kernel::SoaBlock, &mut [f64]),
    simd32: fn(&[f32], &SoaBlock32, &mut [f64]),
) {
    debug_assert_eq!(out.len(), view.len(), "output block size mismatch");
    match view.mode() {
        KernelMode::Exact => match view.soa() {
            Some(soa) => exact(q.coords(), soa, out),
            None => scalar_one_to_many(metric, q, view, out),
        },
        KernelMode::Simd => match view.soa() {
            Some(soa) => simd(q.coords(), soa, out),
            None => scalar_one_to_many(metric, q, view, out),
        },
        KernelMode::SimdF32 => match view.soa32() {
            Some(b) => {
                crate::simd::with_q32(q.coords().iter().map(|&x| x as f32), |q32| {
                    simd32(q32, b, out)
                });
            }
            None => scalar_one_to_many(metric, q, view, out),
        },
    }
}

/// The shared `dist_one_to_many_exact` body of the four bundled
/// metrics: the exact tiled kernel when the `f64` mirror is staged, the
/// scalar per-row loop otherwise (compact-staged or unstaged views).
#[inline(always)]
fn euclid_exact<M: Metric<Point = EuclidPoint>>(
    metric: &M,
    q: &EuclidPoint,
    view: &CoresetView<EuclidPoint>,
    out: &mut [f64],
    exact: fn(&[f64], &crate::kernel::SoaBlock, &mut [f64]),
) {
    debug_assert_eq!(out.len(), view.len(), "output block size mismatch");
    match view.soa() {
        Some(soa) => exact(q.coords(), soa, out),
        None => scalar_one_to_many(metric, q, view, out),
    }
}

/// Coordinates between two early-exit checks of [`Euclidean`]'s
/// [`Metric::within`]: one 64-byte cache line of `f64`s.
pub(crate) const WITHIN_CHUNK: usize = 8;

/// Coordinates an [`ArrivalBlock`] stages per row, and so the most
/// [`Euclidean`]'s block scan decides from a row's head: `within`'s
/// first two chunks. One chunk leaves a fifth to a quarter of a 32-D
/// stream's rows open; a third gains nothing measurable.
pub(crate) const STAGED: usize = 2 * WITHIN_CHUNK;

/// The default [`Metric::scan_within`]: one [`Metric::within`] per row,
/// resolved through the arena.
fn scan_each<M: Metric>(
    metric: &M,
    p: &M::Point,
    block: &ArrivalBlock,
    res: Resolver<'_, M::Point>,
    r: f64,
    mut hit: impl FnMut(usize),
) {
    for (row, (_, id)) in block.iter().enumerate() {
        if metric.within(p, res.get(id), r) {
            hit(row);
        }
    }
}

/// The root tests of [`Euclidean`]'s block scan as plain comparisons of
/// a sum of squares `acc` (`+0.0` or more, `+∞`, or NaN) with bounds
/// computed once per radius `r`.
///
/// A correctly rounded `sqrt` is monotone, so the `acc >= 0` with
/// `sqrt(acc) <= r` form a prefix `[0, le]` of the non-negative doubles
/// and `+∞`. [`new`](Self::new) finds `le`, the largest such double, by
/// stepping from `r * r` (within a few ulps of it) until `sqrt(le) <=
/// r < sqrt(le.next_up())`, and sets it to `-∞` when the prefix is empty
/// (a negative or NaN `r`; `-0.0` keeps `acc = 0`). Then, for every
/// `acc`:
///
/// * `sqrt(acc) <= r` iff `acc <= le`: both fail for a NaN `acc`;
///   otherwise this is the definition of `le`.
/// * `acc > r * r && sqrt(acc) > r`, `within`'s exit test, iff `acc >
///   exit` with `exit = max(r * r, le)`, or NaN for a NaN `r`: for a
///   NaN `acc` or a NaN `r` both sides fail; otherwise `sqrt(acc) > r`
///   is `!(acc <= le)`, that is `acc > le`.
///
/// The unit tests check both equivalences at the bounds and their
/// neighbours for radii across the whole range of doubles.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SqrtBounds {
    pub(crate) le: f64,
    pub(crate) exit: f64,
}

impl SqrtBounds {
    fn new(r: f64) -> Self {
        let le = if r.is_nan() || r < 0.0 {
            f64::NEG_INFINITY
        } else if r == f64::INFINITY {
            f64::INFINITY
        } else {
            let mut le = r * r;
            while le.sqrt() > r {
                le = le.next_down();
            }
            while le.next_up().sqrt() <= r {
                le = le.next_up();
            }
            le
        };
        let exit = if r.is_nan() {
            f64::NAN
        } else {
            (r * r).max(le)
        };
        SqrtBounds { le, exit }
    }

    /// `acc.sqrt() <= r`.
    #[inline(always)]
    fn root_le(self, acc: f64) -> bool {
        acc <= self.le
    }

    /// `acc > r * r && acc.sqrt() > r`.
    #[inline(always)]
    fn exits(self, acc: f64) -> bool {
        acc > self.exit
    }

    /// The lanes of `acc` whose row may still be a hit, as a bit mask:
    /// after the point's `last` chunk those with `sqrt <= r`, after an
    /// earlier one those `within`'s exit test keeps. [`scan_tiles`]'s
    /// reference step.
    #[inline(always)]
    pub(crate) fn open_lanes(acc: &[f64; LANES], bounds: SqrtBounds, last: bool) -> u32 {
        let mut mask = 0u32;
        for (j, &a) in acc.iter().enumerate() {
            let open = if last {
                bounds.root_le(a)
            } else {
                !bounds.exits(a)
            };
            mask |= (open as u32) << j;
        }
        mask
    }
}

/// [`Euclidean`]'s `within` scan over `xs` and `ys`, truncated to the
/// shorter and longer than one chunk, resumed at coordinate `start` (a
/// chunk boundary no later than the last checked one) from the partial
/// sum `acc` of the coordinates before it. Every chunk before the last
/// may end the scan; the last (possibly partial) one always runs to the
/// final comparison.
fn within_from(xs: &[f64], ys: &[f64], start: usize, mut acc: f64, r: f64) -> bool {
    let n = xs.len().min(ys.len());
    let checked = (n - 1) / WITHIN_CHUNK * WITHIN_CHUNK;
    let (head_x, tail_x) = xs[start..n].split_at(checked - start);
    let (head_y, tail_y) = ys[start..n].split_at(checked - start);
    let r2 = r * r;
    for (cx, cy) in head_x
        .chunks_exact(WITHIN_CHUNK)
        .zip(head_y.chunks_exact(WITHIN_CHUNK))
    {
        for (x, y) in cx.iter().zip(cy) {
            let d = x - y;
            acc += d * d;
        }
        if acc > r2 && acc.sqrt() > r {
            return false;
        }
    }
    for (x, y) in tail_x.iter().zip(tail_y) {
        let d = x - y;
        acc += d * d;
    }
    acc.sqrt() <= r
}

/// [`Euclidean`]'s block scan: calls `hit(row)`, oldest first, for
/// every row of `block` whose payload `y` has `within(q, y, r)`, or
/// returns `false`, deciding nothing, when `block` stages no rows of
/// `q`'s dimension `n`.
///
/// Each row's staged head holds its first `min(n, 16)` coordinates,
/// bit copies of the payload's. The kernel sums their squared
/// differences from `q`'s in [`dist`](Metric::dist)'s order (`d = q_i -
/// y_i`, `acc += d * d`, ascending `i`, from `0.0`), one accumulator per
/// lane of a tile, with no fused or reassociated operation, so after
/// each 8-coordinate chunk a lane holds the bits `within` holds there,
/// and the row is decided as `within` decides it:
///
/// * `n <= 8`: the row is a hit iff `sqrt(acc) <= r` after chunk 1,
///   which is `dist(q, y) <= r`;
/// * `8 < n <= 16`: `within`'s exit test (`acc > r * r && sqrt(acc) >
///   r`) after chunk 1 rules the row out; otherwise it is a hit iff
///   `sqrt(acc) <= r` after chunk 2, the last;
/// * `n > 16`: the exit test after chunk 1 and after chunk 2 rules the
///   row out, since `within` exits after every chunk but the last, and
///   every row still open resumes `within`'s scan on the arena payload
///   at coordinate 16 with its partial sum.
///
/// Chunk 2 is read only for tiles with a lane still open after chunk 1.
/// Both tests compare `acc` with bounds computed once per scan
/// ([`SqrtBounds`]) instead of taking a root per lane; they decide
/// every `acc` as the root does, and a NaN sum neither exits nor hits.
/// Lanes without a row are computed and discarded.
///
/// The lane work is two steps, passed in so that each ISA brings its
/// own: `add_squares(acc, q, groups)` adds `(q_d - x)^2` to each lane's
/// sum for every lane group `d` of `groups`, in ascending `d`, and
/// `open_lanes(acc, bounds, last)` is [`SqrtBounds::open_lanes`]. The
/// plain loops [`add_squares`] and [`SqrtBounds::open_lanes`] are the
/// reference; a vector step must perform each lane's operations in
/// their order, with no fused multiply-add. Always inlined, with its
/// per-tile closure, so each leg compiles all of it for its ISA.
#[inline(always)]
pub(crate) fn scan_tiles(
    q: &[f64],
    block: &ArrivalBlock,
    res: Resolver<'_, EuclidPoint>,
    r: f64,
    mut hit: impl FnMut(usize),
    add_squares: impl Fn(&mut [f64; LANES], &[f64], &[Lane64]),
    open_lanes: impl Fn(&[f64; LANES], SqrtBounds, bool) -> u32,
) -> bool {
    let n = q.len();
    let bounds = SqrtBounds::new(r);
    block.for_each_tile(
        n,
        #[inline(always)]
        |lanes, row, groups| {
            let (first, second) = groups.split_at(groups.len().min(WITHIN_CHUNK));
            let mut acc = [0.0f64; LANES];
            add_squares(&mut acc, q, first);
            // Bit `j` set: lane `j` holds a row that may be a hit.
            let live = (1u32 << lanes.end) - (1u32 << lanes.start);
            let mut open = live & open_lanes(&acc, bounds, n <= WITHIN_CHUNK);
            if n > WITHIN_CHUNK && open != 0 {
                add_squares(&mut acc, &q[WITHIN_CHUNK..], second);
                open &= open_lanes(&acc, bounds, n <= STAGED);
            }
            while open != 0 {
                let lane = open.trailing_zeros() as usize;
                open &= open - 1;
                let row = row + lane - lanes.start;
                if n <= STAGED
                    || within_from(q, res.get(block.id(row)).coords(), STAGED, acc[lane], r)
                {
                    hit(row);
                }
            }
        },
    )
}

/// Adds `(q_d - x)^2` to each lane's sum for every lane group `d` of
/// `groups`, in ascending `d`: [`scan_tiles`]'s reference step.
#[inline(always)]
pub(crate) fn add_squares(acc: &mut [f64; LANES], q: &[f64], groups: &[Lane64]) {
    for (&qd, group) in q.iter().zip(groups) {
        for (a, &x) in acc.iter_mut().zip(&group.0) {
            let d = qd - x;
            *a += d * d;
        }
    }
}

/// The Euclidean (L2) metric on [`EuclidPoint`]s. Used by every experiment
/// in the paper.
#[derive(Clone, Copy, Debug, Default)]
pub struct Euclidean;

impl Metric for Euclidean {
    type Point = EuclidPoint;

    #[inline]
    fn dist(&self, a: &EuclidPoint, b: &EuclidPoint) -> f64 {
        let (xs, ys) = (a.coords(), b.coords());
        debug_assert_eq!(xs.len(), ys.len(), "dimension mismatch");
        let mut acc = 0.0;
        for (x, y) in xs.iter().zip(ys) {
            let d = x - y;
            acc += d * d;
        }
        acc.sqrt()
    }

    /// Partial distance search (Bei & Gray, 1985): the squared
    /// differences accumulate in [`dist`](Metric::dist)'s order, and
    /// after every 8-coordinate chunk but the last the test returns
    /// `false` as soon as the partial root exceeds `r`.
    ///
    /// The exit is exact. Each term `d·d` is non-negative or NaN.
    /// Adding a non-negative term never lowers a round-to-nearest sum,
    /// so the full sum is at least the partial one, or NaN, which fails
    /// `<= r` as well. A correctly rounded `sqrt` is monotone, so once
    /// the partial root exceeds `r` the full root does too. The partial
    /// sum is compared with `r * r` only as a cheap filter; the exit is
    /// confirmed with one `sqrt`, so no decision depends on how `r * r`
    /// rounds, and a NaN `r` never confirms one. The last chunk ends in
    /// the plain comparison of `dist`'s value with `r`. Points of at
    /// most one chunk go straight to `dist`, and mismatched dimensions
    /// truncate as `dist`'s `zip` does.
    #[inline]
    fn within(&self, a: &EuclidPoint, b: &EuclidPoint, r: f64) -> bool {
        let (xs, ys) = (a.coords(), b.coords());
        debug_assert_eq!(xs.len(), ys.len(), "dimension mismatch");
        if xs.len().min(ys.len()) <= WITHIN_CHUNK {
            return self.dist(a, b) <= r;
        }
        within_from(xs, ys, 0, 0.0, r)
    }

    #[inline]
    fn block_coords<'p>(&self, p: &'p EuclidPoint) -> Option<&'p [f64]> {
        Some(p.coords())
    }

    /// [`within`](Metric::within) over a whole block, a tile of 8 rows
    /// at a time, by a tile kernel built for the active ISA (AVX2 where
    /// detected) that decides each row exactly as `within` does, mostly
    /// from the row's staged first 16 coordinates (see `scan_tiles`). A
    /// block that stages nothing, or rows of another dimension than
    /// `p`'s, takes the default per-row path, which calls `within` and so
    /// truncates mismatched dimensions as `dist` does.
    fn scan_within(
        &self,
        p: &EuclidPoint,
        block: &ArrivalBlock,
        res: Resolver<'_, EuclidPoint>,
        r: f64,
        mut hit: impl FnMut(usize),
    ) {
        if !crate::simd::scan_within(p.coords(), block, res, r, &mut hit) {
            scan_each(self, p, block, res, r, hit);
        }
    }

    #[inline]
    fn stage(&self, view: &mut CoresetView<EuclidPoint>) {
        stage_euclid(view);
    }

    /// Columnar L2 kernel over the staged mirror: bit-identical to
    /// per-pair [`dist`](Metric::dist) on exact-mode views, the
    /// runtime-dispatched SIMD / compact kernels on relaxed views.
    fn dist_one_to_many(&self, q: &EuclidPoint, view: &CoresetView<EuclidPoint>, out: &mut [f64]) {
        euclid_dispatch(
            self,
            q,
            view,
            out,
            l2_kernel,
            crate::simd::l2_f64,
            crate::simd::l2_f32,
        );
    }

    fn dist_one_to_many_exact(
        &self,
        q: &EuclidPoint,
        view: &CoresetView<EuclidPoint>,
        out: &mut [f64],
    ) {
        euclid_exact(self, q, view, out, l2_kernel);
    }
}

/// The Manhattan (L1) metric on [`EuclidPoint`]s.
#[derive(Clone, Copy, Debug, Default)]
pub struct Manhattan;

impl Metric for Manhattan {
    type Point = EuclidPoint;

    #[inline]
    fn dist(&self, a: &EuclidPoint, b: &EuclidPoint) -> f64 {
        let (xs, ys) = (a.coords(), b.coords());
        debug_assert_eq!(xs.len(), ys.len(), "dimension mismatch");
        xs.iter().zip(ys).map(|(x, y)| (x - y).abs()).sum()
    }

    #[inline]
    fn stage(&self, view: &mut CoresetView<EuclidPoint>) {
        stage_euclid(view);
    }

    /// Columnar L1 kernel over the staged mirror (the `f64` SIMD
    /// variant stays bit-identical even in relaxed mode — add/abs have
    /// no fused rounding).
    fn dist_one_to_many(&self, q: &EuclidPoint, view: &CoresetView<EuclidPoint>, out: &mut [f64]) {
        euclid_dispatch(
            self,
            q,
            view,
            out,
            l1_kernel,
            crate::simd::l1_f64,
            crate::simd::l1_f32,
        );
    }

    fn dist_one_to_many_exact(
        &self,
        q: &EuclidPoint,
        view: &CoresetView<EuclidPoint>,
        out: &mut [f64],
    ) {
        euclid_exact(self, q, view, out, l1_kernel);
    }
}

/// The Chebyshev (L∞) metric on [`EuclidPoint`]s.
#[derive(Clone, Copy, Debug, Default)]
pub struct Chebyshev;

impl Metric for Chebyshev {
    type Point = EuclidPoint;

    #[inline]
    fn dist(&self, a: &EuclidPoint, b: &EuclidPoint) -> f64 {
        let (xs, ys) = (a.coords(), b.coords());
        debug_assert_eq!(xs.len(), ys.len(), "dimension mismatch");
        xs.iter()
            .zip(ys)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[inline]
    fn stage(&self, view: &mut CoresetView<EuclidPoint>) {
        stage_euclid(view);
    }

    /// Columnar L∞ kernel over the staged mirror (the `f64` SIMD
    /// variant stays bit-identical even in relaxed mode — abs/max have
    /// no fused rounding).
    fn dist_one_to_many(&self, q: &EuclidPoint, view: &CoresetView<EuclidPoint>, out: &mut [f64]) {
        euclid_dispatch(
            self,
            q,
            view,
            out,
            linf_kernel,
            crate::simd::linf_f64,
            crate::simd::linf_f32,
        );
    }

    fn dist_one_to_many_exact(
        &self,
        q: &EuclidPoint,
        view: &CoresetView<EuclidPoint>,
        out: &mut [f64],
    ) {
        euclid_exact(self, q, view, out, linf_kernel);
    }
}

/// The angular (normalized cosine) metric on [`EuclidPoint`]s:
/// `d(a, b) = arccos(⟨a,b⟩ / (‖a‖‖b‖)) / π ∈ [0, 1]`.
///
/// Unlike raw "cosine distance" (`1 - cos`), the angle itself satisfies
/// the triangle inequality on the unit sphere, so this is a genuine
/// metric and safe for every algorithm in the workspace. Zero vectors are
/// treated as at angle 0 from everything (a documented convention; feed
/// non-degenerate data for meaningful results).
#[derive(Clone, Copy, Debug, Default)]
pub struct Angular;

impl Metric for Angular {
    type Point = EuclidPoint;

    #[inline]
    fn dist(&self, a: &EuclidPoint, b: &EuclidPoint) -> f64 {
        let (xs, ys) = (a.coords(), b.coords());
        debug_assert_eq!(xs.len(), ys.len(), "dimension mismatch");
        let mut na = 0.0;
        let mut nb = 0.0;
        for (x, y) in xs.iter().zip(ys) {
            na += x * x;
            nb += y * y;
        }
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        // Kahan's stable angle: 2·atan2(‖â−b̂‖, ‖â+b̂‖) over the unit-
        // normalized vectors. Exactly 0 for identical inputs and accurate
        // for tiny angles, unlike acos of a clamped cosine.
        let (na, nb) = (na.sqrt(), nb.sqrt());
        let mut diff = 0.0;
        let mut sum = 0.0;
        for (x, y) in xs.iter().zip(ys) {
            let (u, v) = (x / na, y / nb);
            diff += (u - v) * (u - v);
            sum += (u + v) * (u + v);
        }
        2.0 * diff.sqrt().atan2(sum.sqrt()) / std::f64::consts::PI
    }

    #[inline]
    fn stage(&self, view: &mut CoresetView<EuclidPoint>) {
        stage_euclid(view);
    }

    /// Tiled columnar angle kernel over the staged mirror; exact-mode
    /// views reproduce per-pair [`dist`](Metric::dist) bit for bit,
    /// including the zero-vector convention (which the relaxed kernels
    /// preserve too).
    fn dist_one_to_many(&self, q: &EuclidPoint, view: &CoresetView<EuclidPoint>, out: &mut [f64]) {
        euclid_dispatch(
            self,
            q,
            view,
            out,
            angular_kernel,
            crate::simd::angular_f64,
            crate::simd::angular_f32,
        );
    }

    fn dist_one_to_many_exact(
        &self,
        q: &EuclidPoint,
        view: &CoresetView<EuclidPoint>,
        out: &mut [f64],
    ) {
        euclid_exact(self, q, view, out, angular_kernel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(v: &[f64]) -> EuclidPoint {
        EuclidPoint::new(v.to_vec())
    }

    #[test]
    fn euclidean_345() {
        let m = Euclidean;
        assert!((m.dist(&p(&[0.0, 0.0]), &p(&[3.0, 4.0])) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn manhattan_and_chebyshev() {
        let a = p(&[0.0, 0.0]);
        let b = p(&[3.0, -4.0]);
        assert!((Manhattan.dist(&a, &b) - 7.0).abs() < 1e-12);
        assert!((Chebyshev.dist(&a, &b) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn angular_basics() {
        let m = Angular;
        let e1 = p(&[1.0, 0.0]);
        let e2 = p(&[0.0, 1.0]);
        let neg = p(&[-1.0, 0.0]);
        let scaled = p(&[5.0, 0.0]);
        assert!((m.dist(&e1, &e2) - 0.5).abs() < 1e-12, "orthogonal = 1/2");
        assert!((m.dist(&e1, &neg) - 1.0).abs() < 1e-12, "opposite = 1");
        assert_eq!(m.dist(&e1, &scaled), 0.0, "scale invariant");
        let zero = p(&[0.0, 0.0]);
        assert_eq!(m.dist(&zero, &e1), 0.0, "zero-vector convention");
    }

    #[test]
    fn dist_to_set_empty_is_infinite() {
        let m = Euclidean;
        let a = p(&[0.0]);
        assert_eq!(m.dist_to_set(&a, std::iter::empty()), f64::INFINITY);
    }

    #[test]
    fn dist_to_set_picks_minimum() {
        let m = Euclidean;
        let a = p(&[0.0]);
        let set = [p(&[5.0]), p(&[2.0]), p(&[-1.0])];
        assert!((m.dist_to_set(&a, set.iter()) - 1.0).abs() < 1e-12);
    }

    fn arb_point(dim: usize) -> impl Strategy<Value = EuclidPoint> {
        proptest::collection::vec(-1e3..1e3f64, dim).prop_map(EuclidPoint::new)
    }

    /// `n` random points sharing one random dimension in 1..16 — the
    /// axiom tests run across dimensionalities, not just a fixed one.
    fn arb_points_same_dim(n: usize) -> impl Strategy<Value = Vec<EuclidPoint>> {
        (1usize..16).prop_flat_map(move |dim| proptest::collection::vec(arb_point(dim), n))
    }

    macro_rules! metric_axiom_tests {
        ($name:ident, $metric:expr) => {
            mod $name {
                use super::*;

                proptest! {
                    #[test]
                    fn symmetry(pts in arb_points_same_dim(2)) {
                        let m = $metric;
                        let (a, b) = (&pts[0], &pts[1]);
                        prop_assert!((m.dist(a, b) - m.dist(b, a)).abs() < 1e-9);
                    }

                    #[test]
                    fn identity(pts in arb_points_same_dim(1)) {
                        // ≤ 1e-9 rather than == 0: Angular goes through
                        // acos, which can leave a few ulps of residue.
                        let m = $metric;
                        prop_assert!(m.dist(&pts[0], &pts[0]) <= 1e-9);
                    }

                    #[test]
                    fn non_negative(pts in arb_points_same_dim(2)) {
                        let m = $metric;
                        prop_assert!(m.dist(&pts[0], &pts[1]) >= 0.0);
                    }

                    #[test]
                    fn triangle(pts in arb_points_same_dim(3)) {
                        let m = $metric;
                        let (a, b, c) = (&pts[0], &pts[1], &pts[2]);
                        prop_assert!(m.dist(a, c) <= m.dist(a, b) + m.dist(b, c) + 1e-7);
                    }
                }
            }
        };
    }

    metric_axiom_tests!(euclidean_axioms, Euclidean);
    metric_axiom_tests!(angular_axioms, Angular);
    metric_axiom_tests!(manhattan_axioms, Manhattan);
    metric_axiom_tests!(chebyshev_axioms, Chebyshev);

    /// Asserts that [`SqrtBounds`] decides `acc` as the roots do, for
    /// sums of squares at and around both bounds and `r * r`.
    fn check_sqrt_bounds(r: f64) {
        let b = SqrtBounds::new(r);
        let mut accs = vec![
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for x in [b.le, b.exit, r * r, r.abs()] {
            accs.extend([x, x.next_up(), x.next_down()]);
        }
        for acc in accs.into_iter().filter(|a| a.is_nan() || *a >= 0.0) {
            assert_eq!(b.root_le(acc), acc.sqrt() <= r, "r = {r:e}, acc = {acc:e}");
            assert_eq!(
                b.exits(acc),
                acc > r * r && acc.sqrt() > r,
                "r = {r:e}, acc = {acc:e}"
            );
        }
    }

    #[test]
    fn sqrt_bounds_decide_like_the_root_at_the_edges() {
        for r in [
            0.0,
            -0.0,
            5e-324,
            1e-200,
            1e-160,
            f64::MIN_POSITIVE,
            0.1,
            0.5,
            1.0,
            2.0,
            3.0,
            1e10,
            1.340_780_792_994_259_6e154,
            1e200,
            f64::MAX,
            f64::INFINITY,
            -5e-324,
            -1.0,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            check_sqrt_bounds(r);
        }
    }

    proptest! {
        #[test]
        fn sqrt_bounds_decide_like_the_root(mantissa in 1.0..2.0f64, exp in -1074i32..1024) {
            check_sqrt_bounds(mantissa * 2f64.powi(exp));
        }

        #[test]
        fn norm_ordering(a in arb_point(6), b in arb_point(6)) {
            // L∞ ≤ L2 ≤ L1 for any pair of points.
            let linf = Chebyshev.dist(&a, &b);
            let l2 = Euclidean.dist(&a, &b);
            let l1 = Manhattan.dist(&a, &b);
            prop_assert!(linf <= l2 + 1e-9);
            prop_assert!(l2 <= l1 + 1e-9);
        }
    }
}
