//! Order statistics for latency samples.

/// A percentile needs at least this many samples ranked above it;
/// otherwise it would rest on a handful of outliers and is withheld.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by the nearest-rank
/// method, or `None` when fewer than [`MIN_BEYOND`] samples rank above it.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    // Nearest rank, 1-based: the smallest r with r >= q * n.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the middle pair when even).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(110), 0.9), Some(99.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled = ramp(40);
        shuffled.swap(0, 39);
        shuffled.swap(5, 17);
        assert_eq!(percentile(&shuffled, 0.5), Some(20.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
