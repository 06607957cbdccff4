//! Exact order statistics over raw samples.
//!
//! Every percentile is read from the sorted samples themselves (nearest
//! rank), never from a bucketed histogram: power-of-two buckets collapse
//! neighbouring percentiles onto one bucket edge.

/// Samples sorted once, queried many times.
#[derive(Debug, Clone)]
pub(crate) struct Sorted(Vec<f64>);

impl Sorted {
    /// Sort `samples` (NaN-free by construction: they are durations,
    /// counts and sizes).
    pub(crate) fn new(mut samples: Vec<f64>) -> Sorted {
        samples.sort_by(f64::total_cmp);
        Sorted(samples)
    }

    /// Number of samples.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile, `p` in `[0, 100]`; 0 when empty.
    pub(crate) fn pct(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let n = self.0.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.0[rank.clamp(1, n) - 1]
    }

    /// The highest percentile that still has at least ten samples above
    /// it, capped at p99 (reached at 1000 samples). Returns
    /// `(percentile, value)`; with ten samples or fewer it is the maximum.
    pub(crate) fn tail(&self) -> (f64, f64) {
        let n = self.0.len();
        if n <= 10 {
            return (100.0, self.0.last().copied().unwrap_or(0.0));
        }
        if n >= 1000 {
            return (99.0, self.pct(99.0));
        }
        // Ten samples beyond index n-11.
        ((n - 10) as f64 / n as f64 * 100.0, self.0[n - 11])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Sorted::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.pct(50.0), 50.0);
        assert_eq!(s.pct(95.0), 95.0);
        assert_eq!(s.pct(99.0), 99.0);
        assert_eq!(s.pct(100.0), 100.0);
        assert_eq!(s.pct(0.0), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s = Sorted::new((1..=40).map(f64::from).collect());
        assert_eq!(s.tail(), (75.0, 30.0));
        let big = Sorted::new((1..=2000).map(f64::from).collect());
        assert_eq!(big.tail(), (99.0, 1980.0));
        let small = Sorted::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(small.tail(), (100.0, 3.0));
    }
}
