//! Summaries of measured samples.
//!
//! Percentiles use the server's own nearest-rank definition
//! ([`fairsw_serve::percentile::nearest_rank`]), so the benchmark and the
//! server's `STATS` agree on what "p99" means at any sample size.

use fairsw_serve::percentile::nearest_rank;

/// Nearest-rank `q`-th percentile of `samples` (sorted in place);
/// `None` when empty.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    nearest_rank(samples.len(), q).map(|i| samples[i])
}

/// The median of `values` without reordering the caller's slice.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&mut values.to_vec(), 0.5)
}

/// Arithmetic mean; 0 for an empty slice (a layer that did no work).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values; `None` when there are none.
pub fn geo_mean(values: &[f64]) -> Option<f64> {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        None
    } else {
        Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_the_servers_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), Some(50.0));
        assert_eq!(percentile(&mut v, 0.99), Some(99.0));
        assert_eq!(percentile(&mut v, 1.0), Some(100.0));
        // Two samples: nearest rank picks the smaller one for p50.
        assert_eq!(percentile(&mut [9.0, 1.0], 0.5), Some(1.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn median_leaves_the_input_alone() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(median(&v), Some(2.0));
        assert_eq!(v, [3.0, 1.0, 2.0]);
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        let g = geo_mean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[0.0]), None);
    }
}
