//! Order statistics for timings: medians and the tail-percentile rule.

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The `p`-th percentile of sorted `xs` by nearest rank: the smallest
/// sample with at least `p`% of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // In integer permille, so 99.9% of 10 000 is exactly rank 9990.
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// How many samples lie beyond the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it, or `None` when there are too few samples for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| n > 0 && beyond(n, p) >= 10)
}

/// Sorts a copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Seconds to microseconds, for printing short timings.
pub fn to_us(seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| s * 1e6).collect()
}

/// Median of `xs` (mean of the middle two for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(xs, n=4)` (the exclusive method); 0 for
/// fewer than two samples.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / med
    }
}

/// A timing series summarised the way the run record prints it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` of the tail rule, when the series is long
    /// enough for one.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(xs: &[f64]) -> Summary {
    let v = sorted(xs);
    let tail = tail_percentile(v.len()).map(|p| (p, nearest_rank(&v, p)));
    Summary { n: v.len(), p50: median(&v), tail }
}

impl Summary {
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!("n={} p50={:.3}{unit} p{p}={:.3}{unit}", self.n, self.p50, v),
            None => format!("n={} p50={:.3}{unit} (too few samples for a tail)", self.n, self.p50),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn the_tail_has_ten_samples_strictly_above_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(xs.iter().filter(|&&x| x > 990.0).count(), 10);
        assert_eq!(s.p50, 500.5);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([2, 4, 9], n=4) == [2.0, 4.0, 9.0]
        assert!((quartile_spread(&[9.0, 2.0, 4.0]) - 7.0 / 4.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[2.0, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
