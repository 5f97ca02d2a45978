//! Percentiles computed from raw per-operation samples.
//!
//! The platform's own histograms have power-of-two buckets, so their
//! percentiles can be off by up to 2x; every latency the benchmark
//! reports comes from the samples it took itself.

/// Linearly interpolated quantile of an ascending slice: `q = 0` is the
/// minimum, `q = 1` the maximum (Python's `statistics.quantiles` with
/// `method="inclusive"`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest quantile with at least ten of `n` samples beyond it,
/// capped at p99 and never below the median.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Median, tail and sample count of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The quantile `tail` sits at (see [`tail_quantile`]).
    pub tail_q: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarise unsorted samples; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(sorted.len());
        Some(Summary {
            n: sorted.len(),
            p50: quantile(&sorted, 0.5),
            tail_q,
            tail: quantile(&sorted, tail_q),
        })
    }

    /// `p50=… p99=… (n=…)` with the tail labelled by its quantile.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50={:.3}{unit} p{}={:.3}{unit} (n={})",
            self.p50,
            (self.tail_q * 1000.0).round() / 10.0,
            self.tail,
            self.n
        )
    }
}

/// Median of unsorted values; `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| s.p50)
}

/// Quantile `q` of unsorted values; 0 when there are none.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, q)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert!(close(quantile(&s, 0.0), 1.0));
        assert!(close(quantile(&s, 1.0), 4.0));
        assert!(close(quantile(&s, 0.5), 2.5));
        assert!(close(quantile(&s, 0.25), 1.75));
        assert!(close(quantile(&[7.0], 0.99), 7.0));
    }

    #[test]
    fn quantile_matches_python_inclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4, method="inclusive")
        // == [3.25, 5.5, 7.75]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(quantile(&s, 0.25), 3.25));
        assert!(close(quantile(&s, 0.50), 5.5));
        assert!(close(quantile(&s, 0.75), 7.75));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert!(close(tail_quantile(5), 0.5));
        assert!(close(tail_quantile(20), 0.5));
        assert!(close(tail_quantile(100), 0.9));
        assert!(close(tail_quantile(200), 0.95));
        assert!(close(tail_quantile(1_000), 0.99));
        assert!(close(tail_quantile(1_000_000), 0.99));
        for n in [20usize, 37, 100, 250, 999, 1_000, 5_000] {
            let q = tail_quantile(n);
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = quantile(&sorted, q);
            let beyond = sorted.iter().filter(|&&v| v > t).count();
            assert!(beyond >= 10, "n={n}: only {beyond} samples beyond p{q}");
        }
    }

    #[test]
    fn summary_of_known_samples() {
        let samples: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 1_000);
        assert!(close(s.p50, 500.5));
        assert!(close(s.tail_q, 0.99));
        assert!(close(s.tail, 990.01));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn geomean_and_mean() {
        assert!(close(geomean(&[1.0, 100.0]), 10.0));
        assert!(close(geomean(&[5.0]), 5.0));
        assert!(close(mean(&[1.0, 2.0, 6.0]), 3.0));
        assert!(close(mean(&[]), 0.0));
    }
}
