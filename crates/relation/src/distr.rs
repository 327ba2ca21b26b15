//! Probability distributions used for data and workload generation.
//!
//! Implemented from scratch (Box–Muller for the normal, inverse-CDF with a
//! precomputed table for Zipf, alias-free histogram sampling) because the
//! sanctioned dependency set includes only the `rand` core crate.

use rand::{Rng, RngExt};

/// Draw a standard-normal sample via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0,1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draw from N(mean, std).
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

/// Standard normal cumulative distribution function Φ(x), via the
/// Abramowitz–Stegun 7.1.26 rational approximation of erf (|error| < 1.5e-7).
pub fn normal_cdf(x: f64, mean: f64, std: f64) -> f64 {
    if std <= 0.0 {
        return if x < mean { 0.0 } else { 1.0 };
    }
    let z = (x - mean) / (std * std::f64::consts::SQRT_2);
    0.5 * (1.0 + erf(z))
}

/// Error function approximation (Abramowitz & Stegun 7.1.26).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// A Zipf distribution over ranks `1..=n` with exponent `s`, sampled by
/// binary search over the precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf(n, s) sampler.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s.is_finite(), "Zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draw a rank in `1..=n`. Rank 1 is the most frequent.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

/// A discrete sampler over weighted buckets (used to draw values following an
/// SDSS-like hit histogram).
#[derive(Debug, Clone)]
pub struct WeightedBuckets {
    /// Inclusive value ranges per bucket.
    ranges: Vec<(i64, i64)>,
    cdf: Vec<f64>,
}

impl WeightedBuckets {
    /// Build from `(low, high, weight)` bucket descriptions.
    ///
    /// # Panics
    /// Panics if empty, if any weight is negative or all are zero, or if any
    /// bucket has `low > high`.
    pub fn new(buckets: &[(i64, i64, f64)]) -> Self {
        assert!(!buckets.is_empty(), "need at least one bucket");
        let mut ranges = Vec::with_capacity(buckets.len());
        let mut cdf = Vec::with_capacity(buckets.len());
        let mut acc = 0.0;
        for &(lo, hi, w) in buckets {
            assert!(lo <= hi, "bucket bounds inverted");
            assert!(w >= 0.0, "negative weight");
            ranges.push((lo, hi));
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "all weights zero");
        for c in &mut cdf {
            *c /= acc;
        }
        Self { ranges, cdf }
    }

    /// The smallest and the largest value a draw can give.
    pub(crate) fn bounds(&self) -> (i64, i64) {
        (self.ranges.iter()).fold((i64::MAX, i64::MIN), |(lo, hi), &(l, h)| {
            (lo.min(l), hi.max(h))
        })
    }

    /// Draw a value: pick a bucket by weight, then uniform within it.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        let u: f64 = rng.random();
        let i = match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => i.min(self.ranges.len() - 1),
        };
        let (lo, hi) = self.ranges[i];
        rng.random_range(lo..=hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_roughly_right() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.3, "var={var}");
    }

    #[test]
    fn cdf_matches_known_points() {
        assert!((normal_cdf(0.0, 0.0, 1.0) - 0.5).abs() < 1e-6);
        assert!((normal_cdf(1.96, 0.0, 1.0) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96, 0.0, 1.0) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(100.0, 0.0, 1.0) > 0.999999);
    }

    #[test]
    fn cdf_degenerate_std_is_step() {
        assert_eq!(normal_cdf(-0.1, 0.0, 0.0), 0.0);
        assert_eq!(normal_cdf(0.1, 0.0, 0.0), 1.0);
    }

    #[test]
    fn zipf_rank1_most_frequent() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 101];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        assert!(counts[0] == 0, "rank 0 never drawn");
    }

    #[test]
    fn zipf_s0_is_uniformish() {
        let z = Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 11];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate().skip(1) {
            let frac = count as f64 / 50_000.0;
            assert!((frac - 0.1).abs() < 0.01, "rank {k} frac {frac}");
        }
    }

    #[test]
    fn weighted_buckets_respect_weights() {
        let wb = WeightedBuckets::new(&[(0, 9, 9.0), (10, 19, 1.0)]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut low = 0;
        for _ in 0..10_000 {
            if wb.sample(&mut rng) < 10 {
                low += 1;
            }
        }
        let frac = low as f64 / 10_000.0;
        assert!((frac - 0.9).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn weighted_buckets_values_in_range() {
        let wb = WeightedBuckets::new(&[(5, 5, 1.0)]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(wb.sample(&mut rng), 5);
        }
    }

    #[test]
    #[should_panic(expected = "all weights zero")]
    fn zero_weights_rejected() {
        WeightedBuckets::new(&[(0, 1, 0.0)]);
    }
}
