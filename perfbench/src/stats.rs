//! Sample summaries: medians, nearest-rank percentiles, and the tail
//! rule every latency metric uses.

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Samples a tail must leave above it.
const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest percentile that leaves at
/// least ten samples beyond it, i.e. the eleventh-largest value, at
/// percentile `100 (n - 10) / n`; the maximum when there are ten or
/// fewer. Returns `(percentile, value)`; `(0, 0)` when empty. The
/// percentile moves smoothly with the sample count, so runs that differ
/// by a few samples report comparable tails.
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return (100.0, v[n - 1]);
    }
    (100.0 * (n - TAIL_BEYOND) as f64 / n as f64, v[n - TAIL_BEYOND - 1])
}

/// The tail of timed samples `(t, value)` with `t` in `[0, window)`: the
/// window is cut into `slices` equal parts, [`tail`] is taken in each,
/// and the median of those is reported, so one burst of host noise
/// moves one slice rather than the whole figure. Returns the median
/// slice percentile and value; one slice is plain [`tail`].
pub fn sliced_tail(samples: &[(f64, f64)], window: f64, slices: usize) -> (f64, f64) {
    let slices = slices.max(1);
    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(t, v) in samples {
        let k = ((t / window.max(f64::MIN_POSITIVE)) * slices as f64).floor();
        parts[(k.max(0.0) as usize).min(slices - 1)].push(v);
    }
    let tails: Vec<(f64, f64)> = parts.iter().filter(|p| !p.is_empty()).map(|p| tail(p)).collect();
    let pct: Vec<f64> = tails.iter().map(|t| t.0).collect();
    let val: Vec<f64> = tails.iter().map(|t| t.1).collect();
    (median(&pct), median(&val))
}

/// Fraction of `values` at or below `limit`, counting `misses` extra
/// samples (failed or refused operations) as above it.
pub fn frac_within(values: &[f64], limit: f64, misses: usize) -> f64 {
    let total = values.len() + misses;
    if total == 0 {
        return 0.0;
    }
    values.iter().filter(|&&v| v <= limit).count() as f64 / total as f64
}

/// SplitMix64: the benchmark's own seeded stream for choosing update
/// edges, weights and query kinds.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v), (100.0, 10.0));
    }

    #[test]
    fn sliced_tail_ignores_one_bad_slice() {
        let mut v: Vec<(f64, f64)> =
            (0..400).map(|i| (i as f64 / 100.0, 1.0 + (i % 100) as f64)).collect();
        // A burst in the last quarter.
        for s in v.iter_mut().filter(|s| s.0 >= 3.0) {
            s.1 += 1000.0;
        }
        let (pct, val) = sliced_tail(&v, 4.0, 4);
        assert_eq!(pct, 90.0);
        assert_eq!(val, 90.0);
    }

    #[test]
    fn median_and_fraction() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[4.0, 1.0, 1.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(frac_within(&[1.0, 2.0, 3.0], 2.0, 1), 0.5);
    }
}
