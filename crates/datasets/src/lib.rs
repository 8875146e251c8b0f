//! Dataset substrate: synthetic generators and loaders for the
//! experiments.
//!
//! The paper evaluates on three UCI datasets (PHONES, HIGGS, COVTYPE) and
//! two synthetic families (`blobs`, `rotated`). This environment has no
//! network access, so the UCI datasets are replaced by synthetic
//! stand-ins that match their dimensionality, number of colors, color
//! skew and target aspect ratio — the only properties the algorithms
//! observe (they interact with data solely through pairwise distances,
//! colors and arrival order), so matching those properties is what the
//! substitution needs. Real data can be supplied through
//! [`io::read_csv_points`].
//!
//! All generators are deterministic given a seed.

pub mod generators;
pub mod io;
pub mod rng;
pub mod rotation;

pub use generators::{
    blobs, covtype_like, embedding_drift, higgs_like, phones_like, rotated, BlobsParams, Dataset,
    EmbeddingDriftParams,
};
pub use io::read_csv_points;
pub use rotation::random_rotation;

use fairsw_metric::{Colored, EuclidPoint};

/// Per-color frequencies of a colored dataset (indexed by color).
pub fn color_frequencies(points: &[Colored<EuclidPoint>], num_colors: usize) -> Vec<usize> {
    let mut freq = vec![0usize; num_colors];
    for p in points {
        let c = p.color as usize;
        if c < num_colors {
            freq[c] += 1;
        }
    }
    freq
}

/// The paper's budget rule: `Σ k_i = total_k` with `k_i` proportional to
/// the frequency of color `i` in the dataset, every color getting at
/// least one slot. (The experiments use `total_k = 14` so balanced color
/// distributions get ≥ 2 slots per color.)
///
/// # Panics
/// Panics if `total_k < num_colors` (cannot give every color a slot).
pub fn proportional_capacities(freq: &[usize], total_k: usize) -> Vec<usize> {
    let ncolors = freq.len();
    assert!(ncolors > 0, "need at least one color");
    assert!(
        total_k >= ncolors,
        "total_k {total_k} < number of colors {ncolors}"
    );
    let total: usize = freq.iter().sum();
    if total == 0 {
        // No data: spread evenly.
        let base = total_k / ncolors;
        let mut caps = vec![base; ncolors];
        for item in caps.iter_mut().take(total_k - base * ncolors) {
            *item += 1;
        }
        return caps;
    }
    // Start with floor(share), minimum 1; distribute the remainder to the
    // colors with the largest fractional parts.
    let mut caps: Vec<usize> = freq
        .iter()
        .map(|&f| (((f as f64) / (total as f64)) * total_k as f64).floor() as usize)
        .map(|c| c.max(1))
        .collect();
    // Adjust the sum to exactly total_k.
    loop {
        let s: usize = caps.iter().sum();
        use std::cmp::Ordering;
        match s.cmp(&total_k) {
            Ordering::Equal => break,
            Ordering::Less => {
                // Give to the most under-served color (largest freq/cap).
                let i = (0..ncolors)
                    .max_by(|&a, &b| {
                        let ra = freq[a] as f64 / caps[a] as f64;
                        let rb = freq[b] as f64 / caps[b] as f64;
                        ra.partial_cmp(&rb).expect("finite")
                    })
                    .expect("non-empty");
                caps[i] += 1;
            }
            Ordering::Greater => {
                // Take from the most over-served color with cap > 1.
                let i = (0..ncolors)
                    .filter(|&i| caps[i] > 1)
                    .min_by(|&a, &b| {
                        let ra = freq[a] as f64 / caps[a] as f64;
                        let rb = freq[b] as f64 / caps[b] as f64;
                        ra.partial_cmp(&rb).expect("finite")
                    })
                    .expect("total_k >= ncolors guarantees a donor");
                caps[i] -= 1;
            }
        }
    }
    caps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequencies_count_colors() {
        let pts = vec![
            Colored::new(EuclidPoint::new(vec![0.0]), 0),
            Colored::new(EuclidPoint::new(vec![1.0]), 1),
            Colored::new(EuclidPoint::new(vec![2.0]), 1),
        ];
        assert_eq!(color_frequencies(&pts, 3), vec![1, 2, 0]);
    }

    #[test]
    fn proportional_caps_sum_and_minimum() {
        let caps = proportional_capacities(&[700, 200, 100], 14);
        assert_eq!(caps.iter().sum::<usize>(), 14);
        assert!(caps.iter().all(|&c| c >= 1));
        assert!(caps[0] > caps[1] && caps[1] >= caps[2]);
    }

    #[test]
    fn proportional_caps_rare_color_gets_slot() {
        let caps = proportional_capacities(&[10_000, 1], 14);
        assert_eq!(caps.iter().sum::<usize>(), 14);
        assert_eq!(caps[1], 1);
    }

    #[test]
    fn proportional_caps_empty_data() {
        let caps = proportional_capacities(&[0, 0, 0], 7);
        assert_eq!(caps.iter().sum::<usize>(), 7);
        assert!(caps.iter().all(|&c| c >= 2));
    }

    #[test]
    #[should_panic(expected = "total_k")]
    fn proportional_caps_rejects_small_k() {
        let _ = proportional_capacities(&[1, 1, 1], 2);
    }

    #[test]
    fn balanced_14_over_7_gives_two_each() {
        // The paper chooses 14 so balanced datasets get ≥ 2 per color.
        let caps = proportional_capacities(&[100; 7], 14);
        assert_eq!(caps, vec![2; 7]);
    }
}
