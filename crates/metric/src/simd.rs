//! Runtime-dispatched SIMD distance kernels.
//!
//! The scalar tiled kernels of [`crate::metric`] keep the per-point
//! accumulation order of scalar [`dist`](crate::Metric::dist) and are
//! therefore bit-identical to it — that contract is what every
//! differential suite in the workspace asserts, and it survives here as
//! the always-compiled fallback and oracle. This module adds explicitly
//! vectorized variants on top, selected **once per process** by a
//! dispatch ladder:
//!
//! 1. `FAIRSW_SIMD=off` → [`Isa::Scalar`] (the exact tiled kernels);
//! 2. `FAIRSW_SIMD=force` → the detected vector ISA, panicking if the
//!    host offers none (CI uses this to make a silent scalar fallback
//!    impossible);
//! 3. `FAIRSW_SIMD=auto` (or unset) → runtime feature detection:
//!    AVX2+FMA, else the SSE2 x86-64 baseline; NEON on aarch64; scalar
//!    elsewhere.
//!
//! The selection is cached in a [`OnceLock`], so a process never mixes
//! ISAs mid-run and results stay deterministic per process.
//!
//! ## What stays bit-identical, and what does not
//!
//! The AoSoA tiling gives every point its own accumulator lane, so
//! vertical SIMD performs *exactly* the scalar operation sequence — no
//! horizontal reductions, no reassociation. Concretely:
//!
//! * **L1 / L∞** (`f64`): add/abs/max are single-rounded IEEE ops in
//!   both scalar and vector form — bit-identical on every ISA.
//! * **L2 / angular on SSE2**: multiply-then-add, same as scalar —
//!   bit-identical.
//! * **The Update's block scan** (`scan_within`, behind
//!   [`Euclidean::scan_within`](crate::Euclidean)): its AVX2 leg
//!   subtracts, multiplies, then adds, and never fuses, so each lane's
//!   sum has the bits of scalar `dist`'s and every row is decided
//!   exactly as `within` decides it. It is the one vector kernel that
//!   also runs in [`Exact`](crate::Exactness::Exact) mode, wherever AVX2
//!   is detected; elsewhere the same body runs with plain loops.
//! * **L2 / angular on AVX2+FMA and NEON**: the fused multiply-add
//!   rounds once where the scalar kernel rounds twice, so results can
//!   differ by ~1 ulp per accumulation step (relative error around
//!   `dim · 2⁻⁵²`). This is why the vector kernels only run for views
//!   staged in a relaxed [`KernelMode`](crate::kernel::KernelMode) —
//!   the engine-level `Approx(ε)` contract absorbs the divergence.
//! * **`f32` kernels** (compact mirror): arithmetic is `f32` end to
//!   end (relative error around `dim · 2⁻²³`); callers re-rank
//!   surviving candidates through
//!   [`dist_one_to_many_exact`](crate::Metric::dist_one_to_many_exact).
//!
//! Padding lanes of a partial tile are computed and discarded, exactly
//! as in the scalar kernels; the angular kernels mask zero-norm
//! candidates to the scalar `0.0` convention.

use crate::block::ArrivalBlock;
use crate::kernel::{SoaBlock, SoaBlock32, LANES};
use crate::point::EuclidPoint;
use crate::store::Resolver;
use std::sync::OnceLock;

/// The instruction-set path the process-wide kernel dispatch selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// x86-64 AVX2 with FMA: 4-wide `f64`, 8-wide `f32`, fused
    /// multiply-add (L2/angular differ from scalar by ulps).
    Avx2Fma,
    /// x86-64 SSE2 baseline: 2-wide `f64`, 4-wide `f32`, separate
    /// multiply and add (bit-identical to the scalar kernels).
    Sse2,
    /// aarch64 NEON: 2-wide `f64`, 4-wide `f32`, fused multiply-add.
    Neon,
    /// The scalar tiled kernels (no vector ISA, or `FAIRSW_SIMD=off`).
    Scalar,
}

impl Isa {
    /// Stable lowercase name, recorded by the bench harness (`isa`
    /// field of `BENCH_kernels.json`).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Avx2Fma => "avx2+fma",
            Isa::Sse2 => "sse2",
            Isa::Neon => "neon",
            Isa::Scalar => "scalar",
        }
    }
}

fn detect() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            Isa::Avx2Fma
        } else {
            // SSE2 is part of the x86-64 baseline: always present.
            Isa::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            Isa::Neon
        } else {
            Isa::Scalar
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Isa::Scalar
    }
}

fn select(var: Option<&str>) -> Isa {
    match var.map(str::trim) {
        None | Some("") | Some("auto") => detect(),
        Some("off") => Isa::Scalar,
        Some("force") => match detect() {
            Isa::Scalar => panic!(
                "FAIRSW_SIMD=force, but no vector ISA is available on this host \
                 (build target has neither x86-64 nor aarch64 vector support)"
            ),
            isa => isa,
        },
        Some(other) => panic!("invalid FAIRSW_SIMD value {other:?} (expected auto, force or off)"),
    }
}

/// The ISA the relaxed kernels run on, selected once per process from
/// runtime feature detection and the `FAIRSW_SIMD` override
/// (`auto`/`force`/`off`; invalid values panic rather than silently
/// degrading).
pub fn active_isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| select(std::env::var("FAIRSW_SIMD").ok().as_deref()))
}

/// Borrows a thread-local `f32` scratch row for the query side of the
/// `f32` kernels (the candidates are already staged in `f32`; the query
/// is narrowed once per kernel call, not once per tile).
pub(crate) fn with_q32<R>(q: impl IntoIterator<Item = f32>, f: impl FnOnce(&[f32]) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static QBUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }
    QBUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        buf.extend(q);
        f(&buf)
    })
}

// ---------------------------------------------------------------------
// Scalar f32 fallbacks (FAIRSW_SIMD=off with compact staging): native
// f32 accumulation, mirroring the vector kernels' precision rather than
// the exact widened kernels'.
// ---------------------------------------------------------------------

#[inline(always)]
fn tiled_kernel_f32(
    q: &[f32],
    b: &SoaBlock32,
    out: &mut [f64],
    init: f32,
    step: impl Fn(f32, f32, f32) -> f32,
    finish: impl Fn(f32) -> f32,
) {
    debug_assert_eq!(q.len(), b.dim(), "dimension mismatch");
    let n = b.len();
    for t in 0..b.tiles() {
        let tile = b.tile(t);
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
            *o = finish(a) as f64;
        }
    }
}

fn l2_f32_scalar(q: &[f32], b: &SoaBlock32, out: &mut [f64]) {
    tiled_kernel_f32(
        q,
        b,
        out,
        0.0,
        |acc, qd, x| {
            let diff = qd - x;
            acc + diff * diff
        },
        f32::sqrt,
    );
}

fn l1_f32_scalar(q: &[f32], b: &SoaBlock32, out: &mut [f64]) {
    tiled_kernel_f32(q, b, out, 0.0, |acc, qd, x| acc + (qd - x).abs(), |a| a);
}

fn linf_f32_scalar(q: &[f32], b: &SoaBlock32, out: &mut [f64]) {
    tiled_kernel_f32(
        q,
        b,
        out,
        0.0,
        |acc, qd, x| f32::max(acc, (qd - x).abs()),
        |a| a,
    );
}

fn angular_f32_scalar(q: &[f32], b: &SoaBlock32, out: &mut [f64]) {
    debug_assert_eq!(q.len(), b.dim(), "dimension mismatch");
    let mut na = 0.0f32;
    for &x in q {
        na += x * x;
    }
    if na == 0.0 {
        out.fill(0.0);
        return;
    }
    let na = na.sqrt();
    let n = b.len();
    for t in 0..b.tiles() {
        let tile = b.tile(t);
        let mut nb_sq = [0.0f32; LANES];
        for d in 0..b.dim() {
            let lanes = &tile[d * LANES..(d + 1) * LANES];
            for (acc, &y) in nb_sq.iter_mut().zip(lanes) {
                *acc += y * y;
            }
        }
        let mut nb = [0.0f32; LANES];
        for (v, &sq) in nb.iter_mut().zip(&nb_sq) {
            *v = sq.sqrt();
        }
        let mut diff = [0.0f32; LANES];
        let mut sum = [0.0f32; LANES];
        for (d, &qd) in q.iter().enumerate() {
            let u = qd / na;
            let lanes = &tile[d * LANES..(d + 1) * LANES];
            for j in 0..LANES {
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
                (2.0 * diff[j].sqrt().atan2(sum[j].sqrt()) / std::f32::consts::PI) as f64
            };
        }
    }
}

// ---------------------------------------------------------------------
// x86-64 kernels.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{ArrivalBlock, EuclidPoint, Resolver, SoaBlock, SoaBlock32, LANES};
    use crate::kernel::Lane64;
    use crate::metric::SqrtBounds;
    use core::arch::x86_64::*;

    /// The exact block scan [`crate::metric::scan_tiles`], compiled for
    /// AVX2 with its two lane steps in 4-wide `f64` vectors.
    ///
    /// # Safety
    /// Caller must run with AVX2 available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_within(
        q: &[f64],
        block: &ArrivalBlock,
        res: Resolver<'_, EuclidPoint>,
        r: f64,
        hit: impl FnMut(usize),
    ) -> bool {
        // Closures, since a `#[target_feature]` function is no `Fn`;
        // defined here, they inherit AVX2.
        crate::metric::scan_tiles(
            q,
            block,
            res,
            r,
            hit,
            |acc, q, groups| add_squares(acc, q, groups),
            |acc, bounds, last| open_lanes(acc, bounds, last),
        )
    }

    /// [`crate::metric::add_squares`] two lane halves at a time: per
    /// lane `d = q_d - x`, then `acc + d * d` with a separate multiply
    /// and add. `fma` stays off, so each lane rounds as `dist` does.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_squares(acc: &mut [f64; LANES], q: &[f64], groups: &[Lane64]) {
        let p = acc.as_mut_ptr();
        // SAFETY: `acc` holds `LANES` = 8 `f64`s.
        let (mut a0, mut a1) = unsafe { (_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4))) };
        for (&qd, group) in q.iter().zip(groups) {
            let qv = _mm256_set1_pd(qd);
            let x = group.0.as_ptr();
            // SAFETY: a lane group is 64-byte aligned and holds 8 `f64`s.
            let (x0, x1) = unsafe { (_mm256_load_pd(x), _mm256_load_pd(x.add(4))) };
            let (d0, d1) = (_mm256_sub_pd(qv, x0), _mm256_sub_pd(qv, x1));
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
            a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
        }
        // SAFETY: as for the loads.
        unsafe {
            _mm256_storeu_pd(p, a0);
            _mm256_storeu_pd(p.add(4), a1);
        }
    }

    /// [`SqrtBounds::open_lanes`] with vector compares of the same
    /// predicates: `acc <= le` ordered, so NaN fails, and `!(acc >
    /// exit)` unordered, so NaN passes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn open_lanes(acc: &[f64; LANES], bounds: SqrtBounds, last: bool) -> u32 {
        // SAFETY: `acc` holds `LANES` = 8 `f64`s.
        let (a0, a1) = unsafe {
            (
                _mm256_loadu_pd(acc.as_ptr()),
                _mm256_loadu_pd(acc.as_ptr().add(4)),
            )
        };
        let (m0, m1) = if last {
            let le = _mm256_set1_pd(bounds.le);
            (
                _mm256_cmp_pd::<_CMP_LE_OQ>(a0, le),
                _mm256_cmp_pd::<_CMP_LE_OQ>(a1, le),
            )
        } else {
            let exit = _mm256_set1_pd(bounds.exit);
            (
                _mm256_cmp_pd::<_CMP_NGT_UQ>(a0, exit),
                _mm256_cmp_pd::<_CMP_NGT_UQ>(a1, exit),
            )
        };
        (_mm256_movemask_pd(m0) | _mm256_movemask_pd(m1) << 4) as u32
    }

    /// Stores one 8-lane f64 tile result (`r0` = lanes 0–3, `r1` =
    /// lanes 4–7), truncating the padded tail of the last tile.
    ///
    /// # Safety
    /// Caller must run with AVX2 available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_f64(out: &mut [f64], start: usize, n: usize, r0: __m256d, r1: __m256d) {
        let w = LANES.min(n - start);
        if w == LANES {
            unsafe {
                _mm256_storeu_pd(out.as_mut_ptr().add(start), r0);
                _mm256_storeu_pd(out.as_mut_ptr().add(start + 4), r1);
            }
        } else {
            let mut buf = [0.0f64; LANES];
            unsafe {
                _mm256_storeu_pd(buf.as_mut_ptr(), r0);
                _mm256_storeu_pd(buf.as_mut_ptr().add(4), r1);
            }
            out[start..start + w].copy_from_slice(&buf[..w]);
        }
    }

    macro_rules! avx2_fold_kernel {
        ($name:ident, $init:expr, $fold:expr, $finish:expr) => {
            /// # Safety
            /// Caller must run with AVX2 and FMA available.
            #[target_feature(enable = "avx2", enable = "fma")]
            pub(super) unsafe fn $name(q: &[f64], soa: &SoaBlock, out: &mut [f64]) {
                debug_assert_eq!(q.len(), soa.dim(), "dimension mismatch");
                let n = soa.len();
                for t in 0..soa.tiles() {
                    let tile = soa.tile(t);
                    let p = tile.as_ptr();
                    let mut a0 = $init();
                    let mut a1 = $init();
                    for (d, &qd) in q.iter().enumerate() {
                        let qv = _mm256_set1_pd(qd);
                        let (x0, x1) = unsafe {
                            (
                                _mm256_load_pd(p.add(d * LANES)),
                                _mm256_load_pd(p.add(d * LANES + 4)),
                            )
                        };
                        a0 = $fold(a0, qv, x0);
                        a1 = $fold(a1, qv, x1);
                    }
                    unsafe { store_f64(out, t * LANES, n, $finish(a0), $finish(a1)) };
                }
            }
        };
    }

    avx2_fold_kernel!(
        l2_f64,
        || _mm256_setzero_pd(),
        |acc, qv, x| {
            let d = _mm256_sub_pd(qv, x);
            _mm256_fmadd_pd(d, d, acc)
        },
        |acc| _mm256_sqrt_pd(acc)
    );

    // Projection matvec: separate multiply and add even though FMA is
    // available — the projection contract is bit-identity across every
    // ISA (see `crate::project`), so no contraction is allowed here.
    avx2_fold_kernel!(
        matvec_f64,
        || _mm256_setzero_pd(),
        |acc, qv, x| _mm256_add_pd(acc, _mm256_mul_pd(qv, x)),
        |acc| acc
    );

    avx2_fold_kernel!(
        l1_f64,
        || _mm256_setzero_pd(),
        |acc, qv, x| {
            let sign = _mm256_set1_pd(-0.0);
            _mm256_add_pd(acc, _mm256_andnot_pd(sign, _mm256_sub_pd(qv, x)))
        },
        |acc| acc
    );

    avx2_fold_kernel!(
        linf_f64,
        || _mm256_setzero_pd(),
        |acc, qv, x| {
            let sign = _mm256_set1_pd(-0.0);
            _mm256_max_pd(acc, _mm256_andnot_pd(sign, _mm256_sub_pd(qv, x)))
        },
        |acc| acc
    );

    /// # Safety
    /// Caller must run with AVX2 and FMA available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn angular_f64(q: &[f64], soa: &SoaBlock, out: &mut [f64]) {
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
            let p = tile.as_ptr();
            // Pass 1: candidate squared norms.
            let mut s0 = _mm256_setzero_pd();
            let mut s1 = _mm256_setzero_pd();
            for d in 0..soa.dim() {
                let (y0, y1) = unsafe {
                    (
                        _mm256_load_pd(p.add(d * LANES)),
                        _mm256_load_pd(p.add(d * LANES + 4)),
                    )
                };
                s0 = _mm256_fmadd_pd(y0, y0, s0);
                s1 = _mm256_fmadd_pd(y1, y1, s1);
            }
            let nb0 = _mm256_sqrt_pd(s0);
            let nb1 = _mm256_sqrt_pd(s1);
            // Pass 2: Kahan angle sums over the unit-normalized vectors.
            // Zero-norm candidates and padding lanes divide 0/0 and are
            // masked in the scalar finish below.
            let mut diff0 = _mm256_setzero_pd();
            let mut diff1 = _mm256_setzero_pd();
            let mut sum0 = _mm256_setzero_pd();
            let mut sum1 = _mm256_setzero_pd();
            for (d, &qd) in q.iter().enumerate() {
                let u = _mm256_set1_pd(qd / na);
                let (y0, y1) = unsafe {
                    (
                        _mm256_load_pd(p.add(d * LANES)),
                        _mm256_load_pd(p.add(d * LANES + 4)),
                    )
                };
                let v0 = _mm256_div_pd(y0, nb0);
                let v1 = _mm256_div_pd(y1, nb1);
                let dv0 = _mm256_sub_pd(u, v0);
                let dv1 = _mm256_sub_pd(u, v1);
                diff0 = _mm256_fmadd_pd(dv0, dv0, diff0);
                diff1 = _mm256_fmadd_pd(dv1, dv1, diff1);
                let sv0 = _mm256_add_pd(u, v0);
                let sv1 = _mm256_add_pd(u, v1);
                sum0 = _mm256_fmadd_pd(sv0, sv0, sum0);
                sum1 = _mm256_fmadd_pd(sv1, sv1, sum1);
            }
            let mut nbsq = [0.0f64; LANES];
            let mut df = [0.0f64; LANES];
            let mut sm = [0.0f64; LANES];
            unsafe {
                _mm256_storeu_pd(nbsq.as_mut_ptr(), s0);
                _mm256_storeu_pd(nbsq.as_mut_ptr().add(4), s1);
                _mm256_storeu_pd(df.as_mut_ptr(), _mm256_sqrt_pd(diff0));
                _mm256_storeu_pd(df.as_mut_ptr().add(4), _mm256_sqrt_pd(diff1));
                _mm256_storeu_pd(sm.as_mut_ptr(), _mm256_sqrt_pd(sum0));
                _mm256_storeu_pd(sm.as_mut_ptr().add(4), _mm256_sqrt_pd(sum1));
            }
            let start = t * LANES;
            let w = LANES.min(n - start);
            for j in 0..w {
                out[start + j] = if nbsq[j] == 0.0 {
                    0.0
                } else {
                    2.0 * df[j].atan2(sm[j]) / std::f64::consts::PI
                };
            }
        }
    }

    /// Stores one 8-lane f32 tile result, widening to the `f64` output.
    ///
    /// # Safety
    /// Caller must run with AVX2 available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_f32(out: &mut [f64], start: usize, n: usize, r: __m256) {
        let w = LANES.min(n - start);
        let mut buf = [0.0f32; LANES];
        unsafe { _mm256_storeu_ps(buf.as_mut_ptr(), r) };
        for (o, &x) in out[start..start + w].iter_mut().zip(&buf) {
            *o = x as f64;
        }
    }

    macro_rules! avx2_fold_kernel_f32 {
        ($name:ident, $fold:expr, $finish:expr) => {
            /// # Safety
            /// Caller must run with AVX2 and FMA available.
            #[target_feature(enable = "avx2", enable = "fma")]
            pub(super) unsafe fn $name(q: &[f32], b: &SoaBlock32, out: &mut [f64]) {
                debug_assert_eq!(q.len(), b.dim(), "dimension mismatch");
                let n = b.len();
                for t in 0..b.tiles() {
                    let tile = b.tile(t);
                    let p = tile.as_ptr();
                    let mut acc = _mm256_setzero_ps();
                    for (d, &qd) in q.iter().enumerate() {
                        let qv = _mm256_set1_ps(qd);
                        let x = unsafe { _mm256_load_ps(p.add(d * LANES)) };
                        acc = $fold(acc, qv, x);
                    }
                    unsafe { store_f32(out, t * LANES, n, $finish(acc)) };
                }
            }
        };
    }

    avx2_fold_kernel_f32!(
        l2_f32,
        |acc, qv, x| {
            let d = _mm256_sub_ps(qv, x);
            _mm256_fmadd_ps(d, d, acc)
        },
        |acc| _mm256_sqrt_ps(acc)
    );

    avx2_fold_kernel_f32!(
        l1_f32,
        |acc, qv, x| {
            let sign = _mm256_set1_ps(-0.0);
            _mm256_add_ps(acc, _mm256_andnot_ps(sign, _mm256_sub_ps(qv, x)))
        },
        |acc| acc
    );

    avx2_fold_kernel_f32!(
        linf_f32,
        |acc, qv, x| {
            let sign = _mm256_set1_ps(-0.0);
            _mm256_max_ps(acc, _mm256_andnot_ps(sign, _mm256_sub_ps(qv, x)))
        },
        |acc| acc
    );

    /// # Safety
    /// Caller must run with AVX2 and FMA available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn angular_f32(q: &[f32], b: &SoaBlock32, out: &mut [f64]) {
        debug_assert_eq!(q.len(), b.dim(), "dimension mismatch");
        let mut na = 0.0f32;
        for &x in q {
            na += x * x;
        }
        if na == 0.0 {
            out.fill(0.0);
            return;
        }
        let na = na.sqrt();
        let n = b.len();
        for t in 0..b.tiles() {
            let tile = b.tile(t);
            let p = tile.as_ptr();
            let mut sq = _mm256_setzero_ps();
            for d in 0..b.dim() {
                let y = unsafe { _mm256_load_ps(p.add(d * LANES)) };
                sq = _mm256_fmadd_ps(y, y, sq);
            }
            let nb = _mm256_sqrt_ps(sq);
            let mut diff = _mm256_setzero_ps();
            let mut sum = _mm256_setzero_ps();
            for (d, &qd) in q.iter().enumerate() {
                let u = _mm256_set1_ps(qd / na);
                let y = unsafe { _mm256_load_ps(p.add(d * LANES)) };
                let v = _mm256_div_ps(y, nb);
                let dv = _mm256_sub_ps(u, v);
                diff = _mm256_fmadd_ps(dv, dv, diff);
                let sv = _mm256_add_ps(u, v);
                sum = _mm256_fmadd_ps(sv, sv, sum);
            }
            let mut nbsq = [0.0f32; LANES];
            let mut df = [0.0f32; LANES];
            let mut sm = [0.0f32; LANES];
            unsafe {
                _mm256_storeu_ps(nbsq.as_mut_ptr(), sq);
                _mm256_storeu_ps(df.as_mut_ptr(), _mm256_sqrt_ps(diff));
                _mm256_storeu_ps(sm.as_mut_ptr(), _mm256_sqrt_ps(sum));
            }
            let start = t * LANES;
            let w = LANES.min(n - start);
            for j in 0..w {
                out[start + j] = if nbsq[j] == 0.0 {
                    0.0
                } else {
                    (2.0 * df[j].atan2(sm[j]) / std::f32::consts::PI) as f64
                };
            }
        }
    }

    // SSE2: part of the x86-64 baseline, no detection or target_feature
    // gate needed. Multiply-then-add keeps these kernels bit-identical
    // to the scalar tiled kernels (no FMA contraction: Rust never
    // contracts float expressions, and the intrinsics are explicit).

    macro_rules! sse2_fold_kernel {
        ($name:ident, $fold:expr, $finish:expr) => {
            pub(super) fn $name(q: &[f64], soa: &SoaBlock, out: &mut [f64]) {
                debug_assert_eq!(q.len(), soa.dim(), "dimension mismatch");
                let n = soa.len();
                for t in 0..soa.tiles() {
                    let tile = soa.tile(t);
                    let p = tile.as_ptr();
                    let mut acc = [unsafe { _mm_setzero_pd() }; LANES / 2];
                    for (d, &qd) in q.iter().enumerate() {
                        let qv = unsafe { _mm_set1_pd(qd) };
                        for (j, a) in acc.iter_mut().enumerate() {
                            let x = unsafe { _mm_loadu_pd(p.add(d * LANES + 2 * j)) };
                            *a = $fold(*a, qv, x);
                        }
                    }
                    let mut buf = [0.0f64; LANES];
                    for (j, &a) in acc.iter().enumerate() {
                        let r = $finish(a);
                        unsafe { _mm_storeu_pd(buf.as_mut_ptr().add(2 * j), r) };
                    }
                    let start = t * LANES;
                    let w = LANES.min(n - start);
                    out[start..start + w].copy_from_slice(&buf[..w]);
                }
            }
        };
    }

    sse2_fold_kernel!(
        l2_f64_sse2,
        |acc, qv, x| unsafe {
            let d = _mm_sub_pd(qv, x);
            _mm_add_pd(acc, _mm_mul_pd(d, d))
        },
        |acc| unsafe { _mm_sqrt_pd(acc) }
    );

    sse2_fold_kernel!(
        matvec_f64_sse2,
        |acc, qv, x| unsafe { _mm_add_pd(acc, _mm_mul_pd(qv, x)) },
        |acc| acc
    );

    sse2_fold_kernel!(
        l1_f64_sse2,
        |acc, qv, x| unsafe {
            let sign = _mm_set1_pd(-0.0);
            _mm_add_pd(acc, _mm_andnot_pd(sign, _mm_sub_pd(qv, x)))
        },
        |acc| acc
    );

    sse2_fold_kernel!(
        linf_f64_sse2,
        |acc, qv, x| unsafe {
            let sign = _mm_set1_pd(-0.0);
            _mm_max_pd(acc, _mm_andnot_pd(sign, _mm_sub_pd(qv, x)))
        },
        |acc| acc
    );

    macro_rules! sse2_fold_kernel_f32 {
        ($name:ident, $fold:expr, $finish:expr) => {
            pub(super) fn $name(q: &[f32], b: &SoaBlock32, out: &mut [f64]) {
                debug_assert_eq!(q.len(), b.dim(), "dimension mismatch");
                let n = b.len();
                for t in 0..b.tiles() {
                    let tile = b.tile(t);
                    let p = tile.as_ptr();
                    let mut acc = [unsafe { _mm_setzero_ps() }; LANES / 4];
                    for (d, &qd) in q.iter().enumerate() {
                        let qv = unsafe { _mm_set1_ps(qd) };
                        for (j, a) in acc.iter_mut().enumerate() {
                            let x = unsafe { _mm_loadu_ps(p.add(d * LANES + 4 * j)) };
                            *a = $fold(*a, qv, x);
                        }
                    }
                    let mut buf = [0.0f32; LANES];
                    for (j, &a) in acc.iter().enumerate() {
                        let r = $finish(a);
                        unsafe { _mm_storeu_ps(buf.as_mut_ptr().add(4 * j), r) };
                    }
                    let start = t * LANES;
                    let w = LANES.min(n - start);
                    for (o, &x) in out[start..start + w].iter_mut().zip(&buf) {
                        *o = x as f64;
                    }
                }
            }
        };
    }

    sse2_fold_kernel_f32!(
        l2_f32_sse2,
        |acc, qv, x| unsafe {
            let d = _mm_sub_ps(qv, x);
            _mm_add_ps(acc, _mm_mul_ps(d, d))
        },
        |acc| unsafe { _mm_sqrt_ps(acc) }
    );

    sse2_fold_kernel_f32!(
        l1_f32_sse2,
        |acc, qv, x| unsafe {
            let sign = _mm_set1_ps(-0.0);
            _mm_add_ps(acc, _mm_andnot_ps(sign, _mm_sub_ps(qv, x)))
        },
        |acc| acc
    );

    sse2_fold_kernel_f32!(
        linf_f32_sse2,
        |acc, qv, x| unsafe {
            let sign = _mm_set1_ps(-0.0);
            _mm_max_ps(acc, _mm_andnot_ps(sign, _mm_sub_ps(qv, x)))
        },
        |acc| acc
    );
}

// ---------------------------------------------------------------------
// aarch64 NEON kernels (2-wide f64 / 4-wide f32, fused multiply-add).
// NEON is baseline on aarch64, so no per-call feature gate is needed —
// the detection in `detect()` is belt and braces.
// ---------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{SoaBlock, SoaBlock32, LANES};
    use core::arch::aarch64::*;

    macro_rules! neon_fold_kernel {
        ($name:ident, $fold:expr, $finish:expr) => {
            pub(super) fn $name(q: &[f64], soa: &SoaBlock, out: &mut [f64]) {
                debug_assert_eq!(q.len(), soa.dim(), "dimension mismatch");
                let n = soa.len();
                for t in 0..soa.tiles() {
                    let tile = soa.tile(t);
                    let p = tile.as_ptr();
                    let mut acc = [unsafe { vdupq_n_f64(0.0) }; LANES / 2];
                    for (d, &qd) in q.iter().enumerate() {
                        let qv = unsafe { vdupq_n_f64(qd) };
                        for (j, a) in acc.iter_mut().enumerate() {
                            let x = unsafe { vld1q_f64(p.add(d * LANES + 2 * j)) };
                            *a = $fold(*a, qv, x);
                        }
                    }
                    let mut buf = [0.0f64; LANES];
                    for (j, &a) in acc.iter().enumerate() {
                        let r = $finish(a);
                        unsafe { vst1q_f64(buf.as_mut_ptr().add(2 * j), r) };
                    }
                    let start = t * LANES;
                    let w = LANES.min(n - start);
                    out[start..start + w].copy_from_slice(&buf[..w]);
                }
            }
        };
    }

    neon_fold_kernel!(
        l2_f64_neon,
        |acc, qv, x| unsafe {
            let d = vsubq_f64(qv, x);
            vfmaq_f64(acc, d, d)
        },
        |acc| unsafe { vsqrtq_f64(acc) }
    );

    // Multiply-then-add (no `vfmaq`): the projection matvec must stay
    // bit-identical to the scalar oracle on every ISA.
    neon_fold_kernel!(
        matvec_f64_neon,
        |acc, qv, x| unsafe { vaddq_f64(acc, vmulq_f64(qv, x)) },
        |acc| acc
    );

    neon_fold_kernel!(
        l1_f64_neon,
        |acc, qv, x| unsafe { vaddq_f64(acc, vabsq_f64(vsubq_f64(qv, x))) },
        |acc| acc
    );

    neon_fold_kernel!(
        linf_f64_neon,
        |acc, qv, x| unsafe { vmaxq_f64(acc, vabsq_f64(vsubq_f64(qv, x))) },
        |acc| acc
    );

    macro_rules! neon_fold_kernel_f32 {
        ($name:ident, $fold:expr, $finish:expr) => {
            pub(super) fn $name(q: &[f32], b: &SoaBlock32, out: &mut [f64]) {
                debug_assert_eq!(q.len(), b.dim(), "dimension mismatch");
                let n = b.len();
                for t in 0..b.tiles() {
                    let tile = b.tile(t);
                    let p = tile.as_ptr();
                    let mut acc = [unsafe { vdupq_n_f32(0.0) }; LANES / 4];
                    for (d, &qd) in q.iter().enumerate() {
                        let qv = unsafe { vdupq_n_f32(qd) };
                        for (j, a) in acc.iter_mut().enumerate() {
                            let x = unsafe { vld1q_f32(p.add(d * LANES + 4 * j)) };
                            *a = $fold(*a, qv, x);
                        }
                    }
                    let mut buf = [0.0f32; LANES];
                    for (j, &a) in acc.iter().enumerate() {
                        let r = $finish(a);
                        unsafe { vst1q_f32(buf.as_mut_ptr().add(4 * j), r) };
                    }
                    let start = t * LANES;
                    let w = LANES.min(n - start);
                    for (o, &x) in out[start..start + w].iter_mut().zip(&buf) {
                        *o = x as f64;
                    }
                }
            }
        };
    }

    neon_fold_kernel_f32!(
        l2_f32_neon,
        |acc, qv, x| unsafe {
            let d = vsubq_f32(qv, x);
            vfmaq_f32(acc, d, d)
        },
        |acc| unsafe { vsqrtq_f32(acc) }
    );

    neon_fold_kernel_f32!(
        l1_f32_neon,
        |acc, qv, x| unsafe { vaddq_f32(acc, vabsq_f32(vsubq_f32(qv, x))) },
        |acc| acc
    );

    neon_fold_kernel_f32!(
        linf_f32_neon,
        |acc, qv, x| unsafe { vmaxq_f32(acc, vabsq_f32(vsubq_f32(qv, x))) },
        |acc| acc
    );
}

// ---------------------------------------------------------------------
// Dispatchers: one per (metric, element width), selecting the active
// ISA once per call (the OnceLock read is a relaxed atomic load).
// ---------------------------------------------------------------------

macro_rules! dispatch_f64 {
    ($name:ident, $avx:ident, $sse:ident, $neon:ident, $exact:path) => {
        /// Runtime-dispatched relaxed kernel; falls back to the exact
        /// scalar tiled kernel on [`Isa::Scalar`].
        pub(crate) fn $name(q: &[f64], soa: &SoaBlock, out: &mut [f64]) {
            match active_isa() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `active_isa` only returns `Avx2Fma` when
                // runtime detection confirmed AVX2 and FMA.
                Isa::Avx2Fma => unsafe { x86::$avx(q, soa, out) },
                #[cfg(target_arch = "x86_64")]
                Isa::Sse2 => x86::$sse(q, soa, out),
                #[cfg(target_arch = "aarch64")]
                Isa::Neon => neon::$neon(q, soa, out),
                _ => $exact(q, soa, out),
            }
        }
    };
}

dispatch_f64!(
    l2_f64,
    l2_f64,
    l2_f64_sse2,
    l2_f64_neon,
    crate::metric::l2_kernel
);
dispatch_f64!(
    l1_f64,
    l1_f64,
    l1_f64_sse2,
    l1_f64_neon,
    crate::metric::l1_kernel
);
dispatch_f64!(
    linf_f64,
    linf_f64,
    linf_f64_sse2,
    linf_f64_neon,
    crate::metric::linf_kernel
);
// The JL projection matvec (`y[r] = Σ_d M[r][d]·x[d]`, rows staged as
// AoSoA "points"). Every leg — AVX2 included — uses separate multiply
// and add, so all four paths are bit-identical and projected payloads
// reproduce exactly across hosts and `FAIRSW_SIMD` settings.
dispatch_f64!(
    matvec_f64,
    matvec_f64,
    matvec_f64_sse2,
    matvec_f64_neon,
    crate::project::matvec_kernel
);

/// [`Euclidean::scan_within`](crate::Euclidean)'s exact tile kernel
/// ([`crate::metric::scan_tiles`]) built for the active ISA: AVX2 where
/// it was detected, the x86-64 or aarch64 baseline otherwise. Every leg
/// decides each row exactly as `within`, so it runs in
/// [`Exact`](crate::Exactness::Exact) mode too.
pub(crate) fn scan_within(
    q: &[f64],
    block: &ArrivalBlock,
    res: Resolver<'_, EuclidPoint>,
    r: f64,
    hit: impl FnMut(usize),
) -> bool {
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_isa` returns `Isa::Avx2Fma` only after runtime
        // detection confirmed AVX2; this leg needs nothing else.
        Isa::Avx2Fma => unsafe { x86::scan_within(q, block, res, r, hit) },
        _ => crate::metric::scan_tiles(
            q,
            block,
            res,
            r,
            hit,
            crate::metric::add_squares,
            crate::metric::SqrtBounds::open_lanes,
        ),
    }
}

/// Runtime-dispatched relaxed angular kernel. NEON and SSE2 hosts use
/// the exact scalar kernel (the angular distance is dominated by the
/// divides and `atan2`, so the narrow-vector win does not justify a
/// third variant).
pub(crate) fn angular_f64(q: &[f64], soa: &SoaBlock, out: &mut [f64]) {
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_isa` only returns `Avx2Fma` when runtime
        // detection confirmed AVX2 and FMA.
        Isa::Avx2Fma => unsafe { x86::angular_f64(q, soa, out) },
        _ => crate::metric::angular_kernel(q, soa, out),
    }
}

macro_rules! dispatch_f32 {
    ($name:ident, $avx:ident, $sse:ident, $neon:ident, $scalar:ident) => {
        /// Runtime-dispatched compact (`f32`) kernel; the scalar
        /// fallback accumulates in `f32` like the vector paths.
        pub(crate) fn $name(q: &[f32], b: &SoaBlock32, out: &mut [f64]) {
            match active_isa() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `active_isa` only returns `Avx2Fma` when
                // runtime detection confirmed AVX2 and FMA.
                Isa::Avx2Fma => unsafe { x86::$avx(q, b, out) },
                #[cfg(target_arch = "x86_64")]
                Isa::Sse2 => x86::$sse(q, b, out),
                #[cfg(target_arch = "aarch64")]
                Isa::Neon => neon::$neon(q, b, out),
                _ => $scalar(q, b, out),
            }
        }
    };
}

dispatch_f32!(l2_f32, l2_f32, l2_f32_sse2, l2_f32_neon, l2_f32_scalar);
dispatch_f32!(l1_f32, l1_f32, l1_f32_sse2, l1_f32_neon, l1_f32_scalar);
dispatch_f32!(
    linf_f32,
    linf_f32,
    linf_f32_sse2,
    linf_f32_neon,
    linf_f32_scalar
);

/// Runtime-dispatched compact angular kernel (AVX2+FMA or the `f32`
/// scalar fallback; see [`angular_f64`] for why there is no narrow
/// vector variant).
pub(crate) fn angular_f32(q: &[f32], b: &SoaBlock32, out: &mut [f64]) {
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_isa` only returns `Avx2Fma` when runtime
        // detection confirmed AVX2 and FMA.
        Isa::Avx2Fma => unsafe { x86::angular_f32(q, b, out) },
        _ => angular_f32_scalar(q, b, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Euclidean, Metric, PointStore};
    use proptest::prelude::*;

    /// Well-scaled coordinates with a sprinkle of NaN, both infinities,
    /// and values whose squares overflow or underflow: rare enough that
    /// most rows of 25 coordinates stay finite, so the scans past the
    /// staged chunks see hits to get right.
    fn coord() -> impl Strategy<Value = f64> {
        (0u32..200, -1e3..1e3f64).prop_map(|(sel, x)| match sel {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 1e200,
            4 => 1e-310,
            _ => x,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // `active_isa` is fixed for the life of a process, so dispatch
        // reaches one leg of the block scan per test run. This calls
        // the baseline leg and, where AVX2 is detected, the AVX2 leg
        // directly, on blocks whose oldest rows left (so tiles start
        // mid-lane), around the one- and two-chunk edges.
        #[test]
        fn scan_legs_agree_with_within(
            case in prop_oneof![
                1usize..65,
                Just(8usize),
                Just(9usize),
                Just(16usize),
                Just(17usize),
                Just(24usize),
                Just(25usize)
            ]
            .prop_flat_map(|d| (
                proptest::collection::vec(proptest::collection::vec(coord(), d), 1..60),
                proptest::collection::vec(coord(), d),
                0usize..12,
            )),
        ) {
            let (rows, q, expired) = case;
            let mut store = PointStore::new();
            let mut block = ArrivalBlock::new();
            for (i, row) in rows.into_iter().enumerate() {
                let id = store.insert(i as u64 + 1, EuclidPoint::new(row));
                block.push(i as u64 + 1, id, Euclidean.block_coords(store.get(id)));
            }
            for _ in 0..expired.min(block.len() - 1) {
                block.remove_front(block.time(0));
            }
            let res = store.resolver();
            let p = EuclidPoint::new(q.clone());
            let mut radii = vec![0.0, -0.0, -1.0, f64::INFINITY, f64::NAN];
            for row in [0, block.len() / 2, block.len() - 1] {
                let d = Euclidean.dist(&p, res.get(block.id(row)));
                radii.extend([d, d.next_up(), d.next_down(), d / 2.0, 2.0 * d]);
            }
            for r in radii {
                let expected: Vec<usize> = (0..block.len())
                    .filter(|&row| Euclidean.within(&p, res.get(block.id(row)), r))
                    .collect();
                let mut hits = Vec::new();
                prop_assert!(crate::metric::scan_tiles(
                    &q,
                    &block,
                    res,
                    r,
                    |row| hits.push(row),
                    crate::metric::add_squares,
                    crate::metric::SqrtBounds::open_lanes,
                ));
                prop_assert_eq!(&hits, &expected, "baseline leg, dim {}, r = {:e}", q.len(), r);
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut hits = Vec::new();
                    // SAFETY: AVX2 was detected just above.
                    let staged = unsafe { x86::scan_within(&q, &block, res, r, |row| hits.push(row)) };
                    prop_assert!(staged);
                    prop_assert_eq!(&hits, &expected, "AVX2 leg, dim {}, r = {:e}", q.len(), r);
                }
            }
        }
    }

    #[test]
    fn select_honors_overrides() {
        assert_eq!(select(Some("off")), Isa::Scalar);
        assert_eq!(select(Some(" off ")), Isa::Scalar);
        assert_eq!(select(None), detect());
        assert_eq!(select(Some("auto")), detect());
        assert_eq!(select(Some("")), detect());
    }

    #[test]
    fn select_rejects_garbage() {
        assert!(std::panic::catch_unwind(|| select(Some("fast"))).is_err());
    }

    #[test]
    fn force_matches_detection_when_vector_isa_present() {
        // On hosts with a vector ISA, force == auto; on scalar-only
        // hosts it must panic rather than silently fall back.
        match detect() {
            Isa::Scalar => assert!(std::panic::catch_unwind(|| select(Some("force"))).is_err()),
            isa => assert_eq!(select(Some("force")), isa),
        }
    }

    #[test]
    fn isa_names_are_stable() {
        assert_eq!(Isa::Avx2Fma.name(), "avx2+fma");
        assert_eq!(Isa::Sse2.name(), "sse2");
        assert_eq!(Isa::Neon.name(), "neon");
        assert_eq!(Isa::Scalar.name(), "scalar");
    }
}
