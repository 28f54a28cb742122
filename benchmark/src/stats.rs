//! Order statistics. Everything the benchmark reports as a percentile is
//! an exact order statistic over the samples it kept, never an
//! interpolation over histogram buckets.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// The percentiles tried, highest first, when picking a tail to report.
const LADDER: [f64; 6] = [99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it among `n` — a tail read off fewer samples than that
/// is one outlier, not a percentile. The median when even p75 has not.
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .into_iter()
        .find(|&p| n >= rank(n.max(1), p) + 10)
        .unwrap_or(50.0)
}

/// Median of the samples (mean of the two middle ones for an even
/// count). Sorts `v`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_an_order_statistic() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 99.9), 100);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        // Never interpolates: the answer is always one of the samples.
        let w = [10u64, 1_000, 1_000_000];
        assert_eq!(percentile(&w, 50.0), 1_000);
        assert_eq!(percentile(&w, 67.0), 1_000_000);
        assert_eq!(percentile(&[7u64], 99.0), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 10_000 requests: p99 has 100 beyond, p99.9 (not on the ladder)
        // would have exactly 10.
        assert_eq!(tail_percentile(10_000), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        // 999 samples: p99 is rank 990, 9 beyond -> p95.
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(120), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 80.0);
        assert_eq!(tail_percentile(60), 80.0);
        assert_eq!(tail_percentile(50), 80.0);
        assert_eq!(tail_percentile(49), 75.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [5.0]), 5.0);
    }
}
