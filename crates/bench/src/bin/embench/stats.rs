//! Order statistics every embench metric is reported with. All of them go
//! through `linalg::stats::quantile` (linear interpolation, NaN sorts
//! last), so the benchmark has exactly one percentile definition.

use linalg::stats::quantile;

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// First and third quartile of a non-empty sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    (quantile(xs, 0.25), quantile(xs, 0.75))
}

/// Tail percentiles a report may use, lowest first.
const TAIL_LADDER: [f64; 4] = [0.9, 0.99, 0.999, 0.9999];

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: f64 = 10.0;

/// The highest percentile of [`TAIL_LADDER`] that has at least ten of `n`
/// samples beyond it, or `None` when even p90 has fewer.
pub fn tail_q(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n as f64 * (1.0 - q) >= MIN_BEYOND - 1e-6)
}

/// `(q, value)` of the highest supported tail percentile of `xs`.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    tail_q(xs.len()).map(|q| (q, quantile(xs, q)))
}

/// `(q, value)` of the highest supported tail percentile of `xs`, or of
/// the upper quartile when the sample supports none.
pub fn tail_or_q3(xs: &[f64]) -> (f64, f64) {
    tail(xs).unwrap_or_else(|| (0.75, quartiles(xs).1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_q(8), None);
        assert_eq!(tail_q(99), None);
        assert_eq!(tail_q(100), Some(0.9));
        assert_eq!(tail_q(1000), Some(0.99));
        assert_eq!(tail_q(1500), Some(0.99));
        assert_eq!(tail_q(20_000), Some(0.999));
        assert_eq!(tail_q(100_000), Some(0.9999));
    }

    #[test]
    fn tail_reads_the_interpolated_quantile() {
        let (q, v) = tail(&ramp(1500)).unwrap();
        assert_eq!(q, 0.99);
        assert!((v - 0.99 * 1499.0).abs() < 1e-9, "{v}");
        assert!(tail(&ramp(8)).is_none());
        assert_eq!(tail_or_q3(&ramp(9)), (0.75, 6.0));
    }

    #[test]
    fn median_and_quartiles() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quartiles(&xs), (2.0, 4.0));
    }
}
