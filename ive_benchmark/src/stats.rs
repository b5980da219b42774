//! Order statistics over timing samples.

/// The percentile ladder a report may quote.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples beyond a percentile that make it worth quoting.
const MIN_BEYOND: f64 = 10.0;

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it; the median when the sample is too small for any tail figure.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    LADDER
        .into_iter()
        .rev()
        // In hundredths of a sample, with slack for 100 − 99.9 in binary.
        .find(|p| samples as f64 * (100.0 - p) >= MIN_BEYOND * 100.0 - 1e-6)
        .unwrap_or(LADDER[0])
}

/// Median of unsorted values (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of the values.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// An ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v[..1], 99.0), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(5), 50.0);
        assert_eq!(highest_supported_percentile(39), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(99), 75.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }
}
