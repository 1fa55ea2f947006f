//! Order statistics for the ledger: median, quartiles, the highest
//! percentile the sample supports, geometric mean.

/// The `q`-quantile (`0.0..=1.0`) of an ascending-sorted, non-empty
/// sample, linearly interpolated between closest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted, non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The highest percentile (as a fraction) that still has ten samples
/// beyond it, or `None` when the sample is too small to have one above
/// the median.
pub fn tail_fraction(n: usize) -> Option<f64> {
    (n >= 21).then(|| 1.0 - 10.0 / n as f64)
}

/// What the ledger records for one timing: sample count, median,
/// quartiles, and the highest percentile with ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(fraction, value)`, e.g. `(0.75, …)` for 40 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise an unsorted, non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            tail: tail_fraction(sorted.len()).map(|f| (f, quantile(&sorted, f))),
        }
    }

    /// `n=… q1=… q3=… p…=…` for the human-readable metric line.
    pub fn detail(&self) -> String {
        let mut s = format!("n={} q1={:.6} q3={:.6}", self.n, self.q1, self.q3);
        if let Some((f, v)) = self.tail {
            s.push_str(&format!(" p{:.0}={:.6}", f * 100.0, v));
        }
        s
    }
}

/// Geometric mean of positive values (empty → 0).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_a_known_sample() {
        // 1..=9: median 5, quartiles 3 and 7 (closest-rank interpolation).
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.median, s.q1, s.q3), (9, 5.0, 3.0, 7.0));
        assert_eq!(s.tail, None, "nine samples support no tail percentile");
        // Even count interpolates; input order is irrelevant.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[10.0], 0.9), 10.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_fraction(20), None);
        assert_eq!(tail_fraction(40), Some(0.75));
        assert_eq!(tail_fraction(100), Some(0.9));
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        let (f, value) = Summary::of(&v).tail.unwrap();
        assert!((f - (1.0 - 10.0 / 101.0)).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
