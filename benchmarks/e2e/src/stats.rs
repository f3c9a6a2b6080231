//! Latency samples, the percentile rule, and the spread measure the
//! acceptance check uses.

/// A percentile is *supported* when at least this many samples lie beyond
/// it; below that it is a statement about a handful of outliers.
pub const MIN_BEYOND: f64 = 10.0;

/// Percentiles the harness may report, lowest first.
pub const CANDIDATES: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// True when `n` samples leave at least [`MIN_BEYOND`] beyond quantile `q`.
pub fn supported(n: usize, q: f64) -> bool {
    // The epsilon absorbs `1.0 - 0.9 < 0.1`: exactly ten beyond counts.
    n as f64 * (1.0 - q) >= MIN_BEYOND - 1e-9
}

/// The highest of [`CANDIDATES`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    CANDIDATES.iter().copied().rfind(|&q| supported(n, q))
}

/// Latency (or any scalar) samples of one op class.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    v: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, x: f64) {
        self.v.push(x);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.v.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile (`q` in 0..=1); 0.0 when there are no samples.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        self.sort();
        let rank = (q * self.v.len() as f64).ceil() as usize;
        self.v[rank.clamp(1, self.v.len()) - 1]
    }

    /// Median: mean of the two middle samples when the count is even.
    pub fn median(&mut self) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        self.sort();
        let n = self.v.len();
        if n % 2 == 1 {
            self.v[n / 2]
        } else {
            (self.v[n / 2 - 1] + self.v[n / 2]) / 2.0
        }
    }

    pub fn min(&mut self) -> f64 {
        self.quantile(0.0)
    }

    pub fn max(&mut self) -> f64 {
        self.quantile(1.0)
    }
}

/// Median of a slice (convenience for the few places that hold plain
/// vectors).
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    values.iter().for_each(|&x| s.push(x));
    s.median()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method) — the same arithmetic the acceptance check runs
/// over ten seeds. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = 4usize;
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        out[i - 1] = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(199), Some(0.90));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(999), Some(0.95));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert!(supported(270, 0.95) && !supported(270, 0.99));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut s = Samples::new();
        (1..=100).rev().for_each(|x| s.push(x as f64));
        assert_eq!(s.quantile(0.95), 95.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.median(), 50.5);
        let mut odd = Samples::new();
        [3.0, 1.0, 2.0].iter().for_each(|&x| odd.push(x));
        assert_eq!(odd.median(), 2.0);
        assert_eq!(Samples::new().quantile(0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
