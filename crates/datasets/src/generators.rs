//! Synthetic dataset generators.
//!
//! * [`blobs`] and [`rotated`] reproduce the paper's §4.3 synthetic
//!   families exactly as described;
//! * [`phones_like`], [`higgs_like`] and [`covtype_like`] are the
//!   offline stand-ins for the three UCI datasets: they
//!   match the originals' dimensionality, number of colors, color skew,
//!   and order-of-magnitude aspect ratio, which are the only data
//!   properties the algorithms observe.

use crate::rng::{gaussian, gaussian_vec, laplace, seeded, unit_vec};
use crate::rotation::random_rotation;
use fairsw_metric::{Colored, EuclidPoint};

/// A named colored dataset, ready to stream.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Display name (harness output).
    pub name: String,
    /// The points in stream order.
    pub points: Vec<Colored<EuclidPoint>>,
    /// Number of colors `ℓ`.
    pub num_colors: usize,
}

impl Dataset {
    /// Dimensionality of the points (0 for an empty dataset).
    pub fn dim(&self) -> usize {
        self.points.first().map(|p| p.point.dim()).unwrap_or(0)
    }
}

/// Parameters of the `blobs` family (paper defaults baked in).
#[derive(Clone, Copy, Debug)]
pub struct BlobsParams {
    /// Number of Gaussian components (paper: 21).
    pub components: usize,
    /// Component standard deviation (paper: σ = 2).
    pub sigma: f64,
    /// Number of colors, assigned uniformly (paper: 7).
    pub num_colors: usize,
    /// Side of the cube the component centers are drawn from.
    pub center_box: f64,
}

impl Default for BlobsParams {
    fn default() -> Self {
        BlobsParams {
            components: 21,
            sigma: 2.0,
            num_colors: 7,
            center_box: 100.0,
        }
    }
}

/// The `blobs` datasets of §4.3: a mixture of `components` isotropic
/// `d`-dimensional Gaussians with σ = 2; each point gets a uniformly
/// random color out of 7. Used by Figure 4 (dimensionality sweep,
/// `2 ≤ d ≤ 10`).
pub fn blobs(n: usize, d: usize, params: BlobsParams, seed: u64) -> Dataset {
    assert!(d > 0 && params.components > 0 && params.num_colors > 0);
    let mut rng = seeded(seed);
    let centers: Vec<Vec<f64>> = (0..params.components)
        .map(|_| {
            (0..d)
                .map(|_| rng.random_range(0.0..params.center_box))
                .collect()
        })
        .collect();
    let points = (0..n)
        .map(|_| {
            let c = rng.random_range(0..params.components);
            let coords = gaussian_vec(&mut rng, &centers[c], params.sigma);
            let color = rng.random_range(0..params.num_colors) as u32;
            Colored::new(EuclidPoint::new(coords), color)
        })
        .collect();
    Dataset {
        name: format!("blobs-d{d}"),
        points,
        num_colors: params.num_colors,
    }
}

/// The `rotated` datasets of §4.3: intrinsically 3-dimensional data
/// (the PHONES stand-in) zero-padded to `ambient_dim` coordinates and
/// rigidly rotated. All distances are exactly those of the 3-d original;
/// only the coordinate count changes. Used by Figure 5.
pub fn rotated(n: usize, ambient_dim: usize, seed: u64) -> Dataset {
    assert!(ambient_dim >= 3, "ambient dimension must be ≥ 3");
    let base = phones_like(n, seed);
    let rot = random_rotation(ambient_dim, seed ^ 0x5eed_0000_0000_0001);
    let points = base
        .points
        .into_iter()
        .map(|cp| {
            let mut padded = vec![0.0; ambient_dim];
            padded[..3].copy_from_slice(cp.point.coords());
            Colored::new(EuclidPoint::new(rot.apply(&padded)), cp.color)
        })
        .collect();
    Dataset {
        name: format!("rotated-d{ambient_dim}"),
        points,
        num_colors: base.num_colors,
    }
}

/// PHONES stand-in: 3-d sensor trajectories with 7 activity colors.
///
/// The original is accelerometer positions labelled with user actions
/// (stand, sit, walk, bike, stairs up/down, null) and aspect ratio
/// ≈ 6.4·10⁵. We emulate it with a piecewise random walk: activities
/// switch in segments; each activity has its own step scale and jitter,
/// spanning several orders of magnitude so the global aspect ratio lands
/// near the original's. Activity frequencies are skewed like real usage.
pub fn phones_like(n: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    // (step scale, jitter) per activity; "null" is nearly static, "bike"
    // moves fast — spreading the distance scales widely.
    let profiles: [(f64, f64); 7] = [
        (0.002, 0.001),   // stand
        (0.001, 0.001),   // sit
        (0.4, 0.05),      // walk
        (3.0, 0.3),       // bike
        (0.25, 0.05),     // stairs up
        (0.3, 0.05),      // stairs down
        (0.0005, 0.0005), // null
    ];
    // Skewed activity frequencies (walk/stand dominate).
    let weights = [22u32, 18, 28, 10, 8, 8, 6];
    let wsum: u32 = weights.iter().sum();

    let mut pos = [0.0f64; 3];
    let mut dir = unit_vec(&mut rng, 3);
    let mut activity = 0usize;
    let mut segment_left = 0usize;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        if segment_left == 0 {
            // New activity segment.
            let mut pick = rng.random_range(0..wsum);
            activity = 0;
            for (i, &w) in weights.iter().enumerate() {
                if pick < w {
                    activity = i;
                    break;
                }
                pick -= w;
            }
            segment_left = rng.random_range(80..400usize);
            dir = unit_vec(&mut rng, 3);
        }
        segment_left -= 1;
        let (step, jitter) = profiles[activity];
        // Slowly turning heading keeps trajectories realistic.
        let turn = unit_vec(&mut rng, 3);
        for i in 0..3 {
            dir[i] = 0.95 * dir[i] + 0.05 * turn[i];
        }
        let norm: f64 = dir.iter().map(|x| x * x).sum::<f64>().sqrt();
        for d in dir.iter_mut() {
            *d /= norm.max(1e-12);
        }
        let coords: Vec<f64> = (0..3)
            .map(|i| {
                pos[i] += step * dir[i] + jitter * gaussian(&mut rng);
                pos[i]
            })
            .collect();
        points.push(Colored::new(EuclidPoint::new(coords), activity as u32));
    }
    Dataset {
        name: "phones".to_string(),
        points,
        num_colors: 7,
    }
}

/// HIGGS stand-in: 7-d particle features with 2 colors (signal/noise).
///
/// The original has 11M 7-dimensional points, a near-balanced binary
/// label and aspect ratio ≈ 2.3·10⁴. Its seven *derived* physics features
/// are strongly correlated — the data occupies a low-dimensional manifold
/// inside the 7 coordinates — so we emulate it with a **latent factor
/// model**: a 3-dimensional latent vector per point (heavy Laplace tails
/// produce the rare far outliers behind the aspect ratio), linearly
/// embedded into 7 coordinates via a fixed mixing matrix, plus small
/// ambient noise. Rare near-duplicate readouts pin `dmin` to the scale
/// the 11M-point original reaches through sheer density.
pub fn higgs_like(n: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let d = 7usize;
    let latent = 3usize;
    // Fixed mixing matrix (rows = features, cols = latent factors).
    let mix: Vec<Vec<f64>> = (0..d)
        .map(|_| (0..latent).map(|_| gaussian(&mut rng)).collect())
        .collect();
    // Latent class centers for signal and noise.
    let signal_z = [1.2f64, -0.8, 0.5];
    let noise_z = [-0.6f64, 0.4, -0.9];
    let mut prev: Option<Vec<f64>> = None;
    let points = (0..n)
        .map(|_| {
            let is_signal = rng.random::<f64>() < 0.53; // slight skew, as in HIGGS
                                                        // Rare near-duplicate measurements (repeated detector
                                                        // readouts) give the dataset its tiny dmin, hence its large
                                                        // aspect ratio, mirroring the density of the 11M-point
                                                        // original that a laptop-scale sample cannot reach.
            if let Some(p) = &prev {
                if rng.random::<f64>() < 0.02 {
                    let coords: Vec<f64> =
                        p.iter().map(|&c| c + 5e-4 * gaussian(&mut rng)).collect();
                    prev = Some(coords.clone());
                    return Colored::new(EuclidPoint::new(coords), is_signal as u32);
                }
            }
            let center = if is_signal { &signal_z } else { &noise_z };
            let z: Vec<f64> = center
                .iter()
                .map(|&c| c + 0.7 * gaussian(&mut rng) + laplace(&mut rng, 0.35))
                .collect();
            let coords: Vec<f64> = mix
                .iter()
                .map(|row| {
                    let embedded: f64 = row.iter().zip(&z).map(|(m, zz)| m * zz).sum();
                    embedded + 0.05 * gaussian(&mut rng)
                })
                .collect();
            prev = Some(coords.clone());
            Colored::new(EuclidPoint::new(coords), is_signal as u32)
        })
        .collect();
    Dataset {
        name: "higgs".to_string(),
        points,
        num_colors: 2,
    }
}

/// COVTYPE stand-in: 54-d cartographic features with 7 cover-type colors.
///
/// The original's class distribution is heavily skewed (two types cover
/// ~85% of observations) and its aspect ratio is ≈ 3.1·10³. We emulate
/// it with 7 anisotropic Gaussian clusters in 54 dimensions whose mean
/// separations and in-cluster spreads reproduce that ratio and skew.
pub fn covtype_like(n: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let d = 54usize;
    let ncolors = 7usize;
    // Skewed class weights modeled on COVTYPE (%): 36.5, 48.8, 6.2, 0.5,
    // 1.6, 3.0, 3.5.
    let weights = [365u32, 488, 62, 5, 16, 30, 35];
    let wsum: u32 = weights.iter().sum();
    let centers: Vec<Vec<f64>> = (0..ncolors)
        .map(|_| (0..d).map(|_| 150.0 * gaussian(&mut rng)).collect())
        .collect();
    // Per-class anisotropy: some features vary widely (elevation-like),
    // some are almost binary (soil-type-like).
    let scales: Vec<Vec<f64>> = (0..ncolors)
        .map(|_| (0..d).map(|j| if j < 10 { 8.0 } else { 0.5 }).collect())
        .collect();
    let points = (0..n)
        .map(|_| {
            let mut pick = rng.random_range(0..wsum);
            let mut class = 0usize;
            for (i, &w) in weights.iter().enumerate() {
                if pick < w {
                    class = i;
                    break;
                }
                pick -= w;
            }
            // Cartographic variables are integer-valued in the original;
            // quantizing pins dmin to the unit grid (distinct points are
            // at distance ≥ 1), reproducing COVTYPE's ≈ 3.1e3 aspect
            // ratio without relying on sample density.
            let coords: Vec<f64> = centers[class]
                .iter()
                .zip(&scales[class])
                .map(|(&c, &s)| (c + s * gaussian(&mut rng)).round())
                .collect();
            Colored::new(EuclidPoint::new(coords), class as u32)
        })
        .collect();
    Dataset {
        name: "covtype".to_string(),
        points,
        num_colors: ncolors,
    }
}

/// Parameters of the [`embedding_drift`] family.
#[derive(Clone, Copy, Debug)]
pub struct EmbeddingDriftParams {
    /// Number of colors (one drifting cluster per color).
    pub num_colors: usize,
    /// Tangential Gaussian noise before renormalization.
    pub sigma: f64,
    /// Base angular drift per arriving point (radians along the great
    /// circle); each color drifts at its own multiple of this rate.
    pub drift: f64,
}

impl Default for EmbeddingDriftParams {
    fn default() -> Self {
        EmbeddingDriftParams {
            num_colors: 4,
            sigma: 0.05,
            drift: std::f64::consts::TAU / 8192.0,
        }
    }
}

/// Synthetic embedding stream: unit-norm points from per-color Gaussian
/// clusters whose centers walk along great circles of the unit sphere.
///
/// Models the high-dimensional embedding workloads the projection
/// pipeline targets (`256 ≤ dim ≤ 1024` in the benchmarks): text/image
/// encoders emit L2-normalized vectors whose topic distribution drifts
/// over time. Each color `c` owns an orthonormal pair `(u_c, v_c)`
/// spanning a random 2-plane; its cluster center at stream position `t`
/// is `cos(φ_c(t))·u_c + sin(φ_c(t))·v_c` with the phase advancing at a
/// color-specific rate (`(1 + c) ×` the base drift — drift is
/// *correlated with color*, so windows see colors at different spread).
/// Points add isotropic Gaussian noise `σ` and are renormalized to unit
/// norm. Deterministic given the seed.
pub fn embedding_drift(n: usize, dim: usize, params: EmbeddingDriftParams, seed: u64) -> Dataset {
    assert!(dim >= 4, "embedding dimension must be ≥ 4");
    assert!(params.num_colors > 0, "need at least one color");
    let mut rng = seeded(seed);
    // Per-color orthonormal 2-plane (u, v) via Gram–Schmidt.
    let planes: Vec<(Vec<f64>, Vec<f64>)> = (0..params.num_colors)
        .map(|_| {
            let u = unit_vec(&mut rng, dim);
            loop {
                let w = unit_vec(&mut rng, dim);
                let dot: f64 = u.iter().zip(&w).map(|(a, b)| a * b).sum();
                let v: Vec<f64> = w.iter().zip(&u).map(|(wi, ui)| wi - dot * ui).collect();
                let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                if norm > 1e-9 {
                    return (u, v.into_iter().map(|x| x / norm).collect());
                }
            }
        })
        .collect();
    let mut phases: Vec<f64> = (0..params.num_colors)
        .map(|_| rng.random_range(0.0..std::f64::consts::TAU))
        .collect();
    let points = (0..n)
        .map(|_| {
            let c = rng.random_range(0..params.num_colors);
            // Color-correlated drift: higher colors wander faster.
            phases[c] += params.drift * (1.0 + c as f64);
            let (u, v) = &planes[c];
            let (s, co) = phases[c].sin_cos();
            let mut coords: Vec<f64> = u
                .iter()
                .zip(v)
                .map(|(ui, vi)| co * ui + s * vi + params.sigma * gaussian(&mut rng))
                .collect();
            let norm: f64 = coords.iter().map(|x| x * x).sum::<f64>().sqrt();
            for x in coords.iter_mut() {
                *x /= norm.max(1e-12);
            }
            Colored::new(EuclidPoint::new(coords), c as u32)
        })
        .collect();
    Dataset {
        name: format!("embeddings-d{dim}"),
        points,
        num_colors: params.num_colors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsw_metric::{sampled_extremes, Euclidean, Metric};

    fn raw(ds: &Dataset) -> Vec<EuclidPoint> {
        ds.points.iter().map(|c| c.point.clone()).collect()
    }

    #[test]
    fn blobs_shape() {
        let ds = blobs(2000, 5, BlobsParams::default(), 1);
        assert_eq!(ds.points.len(), 2000);
        assert_eq!(ds.dim(), 5);
        let freq = crate::color_frequencies(&ds.points, 7);
        assert!(
            freq.iter().all(|&f| f > 150),
            "colors not uniform: {freq:?}"
        );
    }

    #[test]
    fn blobs_deterministic() {
        let a = blobs(50, 3, BlobsParams::default(), 9);
        let b = blobs(50, 3, BlobsParams::default(), 9);
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.point.coords(), y.point.coords());
            assert_eq!(x.color, y.color);
        }
    }

    #[test]
    fn rotated_preserves_distances_and_pads() {
        let base = phones_like(300, 4);
        let rot = rotated(300, 12, 4);
        assert_eq!(rot.dim(), 12);
        let m = Euclidean;
        for i in (0..290).step_by(37) {
            let d0 = m.dist(&base.points[i].point, &base.points[i + 7].point);
            let d1 = m.dist(&rot.points[i].point, &rot.points[i + 7].point);
            assert!((d0 - d1).abs() < 1e-9, "distance changed under rotation");
            assert_eq!(base.points[i].color, rot.points[i].color);
        }
    }

    #[test]
    fn phones_aspect_ratio_order_of_magnitude() {
        let ds = phones_like(30_000, 2);
        let e = sampled_extremes(&Euclidean, &raw(&ds), 200).unwrap();
        let ar = e.aspect_ratio();
        // Target ≈ 6.4e5; accept the right order-of-magnitude band.
        assert!(ar > 1e4 && ar < 1e8, "phones aspect ratio {ar:.3e}");
        assert_eq!(ds.num_colors, 7);
        let freq = crate::color_frequencies(&ds.points, 7);
        assert!(freq.iter().all(|&f| f > 0), "missing activity: {freq:?}");
    }

    #[test]
    fn higgs_aspect_ratio_and_balance() {
        let ds = higgs_like(20_000, 3);
        assert_eq!(ds.dim(), 7);
        let e = sampled_extremes(&Euclidean, &raw(&ds), 200).unwrap();
        let ar = e.aspect_ratio();
        assert!(ar > 1e3 && ar < 1e7, "higgs aspect ratio {ar:.3e}");
        let freq = crate::color_frequencies(&ds.points, 2);
        let ratio = freq[1] as f64 / ds.points.len() as f64;
        assert!(ratio > 0.45 && ratio < 0.6, "signal share {ratio}");
    }

    #[test]
    fn embedding_drift_unit_norm_and_deterministic() {
        let p = EmbeddingDriftParams::default();
        let a = embedding_drift(400, 256, p, 77);
        let b = embedding_drift(400, 256, p, 77);
        assert_eq!(a.dim(), 256);
        assert_eq!(a.num_colors, 4);
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.point.coords(), y.point.coords());
            assert_eq!(x.color, y.color);
        }
        for cp in &a.points {
            let norm: f64 = cp.point.coords().iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
        }
        let freq = crate::color_frequencies(&a.points, 4);
        assert!(freq.iter().all(|&f| f > 0), "missing color: {freq:?}");
    }

    #[test]
    fn embedding_drift_centers_actually_drift() {
        // With a brisk drift rate, the early and late per-color means
        // must be far apart on the sphere.
        let p = EmbeddingDriftParams {
            num_colors: 2,
            sigma: 0.02,
            drift: std::f64::consts::TAU / 2000.0,
        };
        let ds = embedding_drift(4000, 64, p, 5);
        let mean = |slice: &[Colored<EuclidPoint>], color: u32| -> Vec<f64> {
            let mut acc = vec![0.0f64; 64];
            let mut cnt = 0usize;
            for cp in slice.iter().filter(|cp| cp.color == color) {
                for (a, &x) in acc.iter_mut().zip(cp.point.coords()) {
                    *a += x;
                }
                cnt += 1;
            }
            acc.into_iter().map(|a| a / cnt.max(1) as f64).collect()
        };
        let early = mean(&ds.points[..800], 1);
        let late = mean(&ds.points[3200..], 1);
        let gap: f64 = early
            .iter()
            .zip(&late)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(gap > 0.3, "cluster did not drift: gap {gap}");
    }

    #[test]
    fn covtype_skew_and_scale() {
        let ds = covtype_like(20_000, 5);
        assert_eq!(ds.dim(), 54);
        let freq = crate::color_frequencies(&ds.points, 7);
        // The two dominant classes must cover most of the data.
        let top2 = freq[0] + freq[1];
        assert!(top2 * 10 > ds.points.len() * 7, "skew lost: {freq:?}");
        assert!(freq.iter().all(|&f| f > 0), "empty class: {freq:?}");
        let e = sampled_extremes(&Euclidean, &raw(&ds), 200).unwrap();
        let ar = e.aspect_ratio();
        assert!(ar > 1e2 && ar < 1e6, "covtype aspect ratio {ar:.3e}");
    }
}
