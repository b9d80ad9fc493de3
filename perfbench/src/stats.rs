//! Order statistics over timing samples.
//!
//! Percentiles are *nearest-rank*: the p-th percentile of `n` sorted
//! samples is the sample at 1-based rank `ceil(p/100 · n)`, so every
//! reported value is one that was actually measured. [`Summary`] keeps the
//! sample count next to the percentiles, because a p99 over fewer than a
//! thousand samples has fewer than ten samples beyond it.

/// Nearest-rank percentile of `samples` (any order). `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median (nearest-rank p50; for an even count, the lower middle sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// A timing distribution reduced to the figures the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Samples strictly above the p99 value.
    pub beyond_p99: usize,
}

impl Summary {
    /// Summarizes `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let p50 = median(samples)?;
        let p99 = percentile(samples, 99.0)?;
        Some(Summary {
            count: samples.len(),
            p50,
            p99,
            beyond_p99: samples.iter().filter(|&&s| s > p99).count(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 91.0), Some(10.0));
        assert_eq!(percentile(&xs, 99.0), Some(10.0));
        assert_eq!(
            percentile(&xs, 0.0),
            Some(1.0),
            "rank clamps to the first sample"
        );
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let xs = [7.0, 1.0, 3.0, 9.0, 5.0];
        assert_eq!(median(&xs), Some(5.0));
        assert_eq!(percentile(&xs, 20.0), Some(1.0));
        assert_eq!(percentile(&xs, 21.0), Some(3.0));
    }

    #[test]
    fn even_count_median_is_the_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn summary_counts_samples_beyond_p99() {
        // 1000 samples 1..=1000: p99 is rank 990, ten samples lie beyond it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.beyond_p99, 10);
        // 50 samples: p99 is the maximum, nothing lies beyond it.
        let few: Vec<f64> = (1..=50).map(f64::from).collect();
        let s = Summary::of(&few).unwrap();
        assert_eq!((s.p99, s.beyond_p99), (50.0, 0));
        assert_eq!(Summary::of(&[]), None);
    }
}
