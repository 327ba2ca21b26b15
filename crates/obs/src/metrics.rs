//! The typed metrics registry: monotonic counters and fixed log-bucket
//! histograms with percentile estimation.
//!
//! Every metric is addressed by a `&'static str` name plus an optional
//! label (a view or fragment identifier). Label cardinality is bounded per
//! metric: once a metric has [`MAX_LABELS_PER_METRIC`] distinct labels,
//! further *new* labels collapse into [`OVERFLOW_LABEL`] — existing
//! labels keep updating. This is the standard defence against unbounded
//! time-series growth when fragment churn mints new identifiers.

use std::collections::BTreeMap;

/// The label that absorbs updates once a metric's cardinality limit is hit.
pub const OVERFLOW_LABEL: &str = "__other__";

/// Per-metric label cardinality budget; the unlabeled series counts too.
pub const MAX_LABELS_PER_METRIC: usize = 256;

/// Number of histogram buckets: underflow + 62 log₂ buckets + overflow.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Exponent of the smallest bucket's upper bound: bucket 0 holds
/// `v ≤ 2^MIN_EXP` (including zero and negatives).
pub const MIN_EXP: i32 = -20;

/// A fixed log₂-bucket histogram.
///
/// Bucket layout over a value `v`:
/// - bucket `0`: `v ≤ 2^MIN_EXP` (underflow — also zero/negative/NaN),
/// - bucket `i` (1 ≤ i ≤ 62): `2^(MIN_EXP+i−1) < v ≤ 2^(MIN_EXP+i)`,
/// - bucket `63`: `v > 2^(MIN_EXP+62)` (overflow).
///
/// Exact powers of two land in the bucket whose *upper bound* they equal
/// (inclusive upper bounds, like Prometheus `le` buckets).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-bucket observation counts.
    pub counts: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
        }
    }
}

/// Map a value to its bucket index.
pub fn bucket_of(v: f64) -> usize {
    let lowest = (MIN_EXP as f64).exp2();
    if v.partial_cmp(&lowest) != Some(std::cmp::Ordering::Greater) {
        // NaN, negatives, zero and tiny values all land in the underflow
        // bucket (`partial_cmp` returns `None` for NaN, routing it here too).
        return 0;
    }
    // v ≤ 2^e, v > 2^(e−1). `+∞` saturates `e` to `i32::MAX`, so the
    // subtraction saturates too and keeps `+∞` in the overflow bucket.
    let e = v.log2().ceil() as i32;
    let idx = e.saturating_sub(MIN_EXP);
    (idx.max(1) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Upper bound of bucket `i` (`+∞` for the overflow bucket).
pub fn bucket_upper_bound(i: usize) -> f64 {
    if i >= HISTOGRAM_BUCKETS - 1 {
        f64::INFINITY
    } else {
        ((MIN_EXP + i as i32) as f64).exp2()
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Estimate the `q`-quantile (`0 < q ≤ 1`) as the upper bound of the
    /// first bucket whose cumulative count reaches `⌈q·count⌉`. Returns
    /// `None` on an empty histogram. The estimate is exact when all
    /// observations in the deciding bucket sit on its upper bound, and
    /// otherwise overestimates by at most one bucket width (a factor of 2).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(bucket_upper_bound(i));
            }
        }
        Some(f64::INFINITY)
    }

    /// p50 / p95 / p99 in one call (`None` when empty).
    pub fn percentiles(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.95)?,
            self.quantile(0.99)?,
        ))
    }
}

/// One metric's per-label series. `None` is the unlabeled series.
pub type Series<T> = BTreeMap<Option<String>, T>;

/// The registry: two metric families, each `name → label → value`.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    /// Monotonic counters.
    pub counters: BTreeMap<&'static str, Series<u64>>,
    /// Log-bucket histograms.
    pub histograms: BTreeMap<&'static str, Series<Histogram>>,
}

impl MetricsRegistry {
    fn slot<'a, T: Default>(series: &'a mut Series<T>, label: Option<&str>) -> &'a mut T {
        let key = match label {
            None => None,
            Some(l) => {
                let owned = Some(l.to_string());
                if series.contains_key(&owned) || series.len() < MAX_LABELS_PER_METRIC {
                    owned
                } else {
                    Some(OVERFLOW_LABEL.to_string())
                }
            }
        };
        series.entry(key).or_default()
    }

    /// Add to a counter.
    pub fn counter_add(&mut self, name: &'static str, label: Option<&str>, delta: u64) {
        *Self::slot(self.counters.entry(name).or_default(), label) += delta;
    }

    /// Record a histogram observation.
    pub fn observe(&mut self, name: &'static str, label: Option<&str>, v: f64) {
        Self::slot(self.histograms.entry(name).or_default(), label).observe(v);
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, name: &str, label: Option<&str>) -> u64 {
        self.counters
            .get(name)
            .and_then(|s| s.get(&label.map(String::from)))
            .copied()
            .unwrap_or(0)
    }

    /// Read a histogram.
    pub fn histogram(&self, name: &str, label: Option<&str>) -> Option<&Histogram> {
        self.histograms
            .get(name)
            .and_then(|s| s.get(&label.map(String::from)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_upper() {
        // Exact powers of two land in the bucket they bound.
        for e in [-5i32, 0, 1, 10] {
            let v = (e as f64).exp2();
            let b = bucket_of(v);
            assert_eq!(
                bucket_upper_bound(b),
                v,
                "2^{e} must land on its own upper bound"
            );
            // Nudging above moves exactly one bucket up.
            assert_eq!(bucket_of(v * 1.0001), b + 1, "just above 2^{e}");
        }
    }

    #[test]
    fn underflow_and_overflow_buckets() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(-3.0), 0);
        assert_eq!(bucket_of(f64::NAN), 0);
        assert_eq!(
            bucket_of((MIN_EXP as f64).exp2()),
            0,
            "≤ 2^MIN_EXP underflows"
        );
        assert_eq!(bucket_of(f64::MAX), HISTOGRAM_BUCKETS - 1);
        assert!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1).is_infinite());
    }

    #[test]
    fn infinity_lands_in_the_overflow_bucket() {
        assert_eq!(bucket_of(f64::INFINITY), HISTOGRAM_BUCKETS - 1);
        let mut h = Histogram::default();
        h.observe(1.0);
        h.observe(f64::INFINITY);
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
        let mut m = MetricsRegistry::default();
        m.observe("lat", None, 1.0);
        m.observe("lat", None, f64::INFINITY);
        let text = crate::prometheus::render_prometheus(&m);
        let samples = crate::prometheus::parse_prometheus(&text).unwrap();
        let value = |name: &str, le: Option<&str>| {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && le.is_none_or(|le| s.labels == [("le".to_string(), le.to_string())])
                })
                .unwrap_or_else(|| panic!("missing {name} {le:?}"))
                .value
        };
        assert_eq!(value("lat_sum", None), f64::INFINITY);
        assert_eq!(value("lat_bucket", Some("+Inf")), 2.0);
        // The finite observation stays in its own bucket, below `+Inf`.
        assert_eq!(value("lat_bucket", Some("1")), 1.0);
    }

    #[test]
    fn every_finite_bucket_has_doubling_bounds() {
        for i in 1..HISTOGRAM_BUCKETS - 2 {
            assert_eq!(bucket_upper_bound(i + 1), bucket_upper_bound(i) * 2.0);
        }
    }

    #[test]
    fn quantiles_at_bucket_edges() {
        let mut h = Histogram::default();
        // 50 observations at exactly 1.0 (bucket upper bound), 50 at 100.0.
        for _ in 0..50 {
            h.observe(1.0);
        }
        for _ in 0..50 {
            h.observe(100.0);
        }
        // p50's deciding observation is the 50th — still in the 1.0 bucket,
        // whose upper bound is exactly 1.0.
        assert_eq!(h.quantile(0.50), Some(1.0));
        // p95/p99 land in 100.0's bucket: (64, 128].
        assert_eq!(h.quantile(0.95), Some(128.0));
        assert_eq!(h.quantile(0.99), Some(128.0));
        let (p50, p95, p99) = h.percentiles().unwrap();
        assert_eq!((p50, p95, p99), (1.0, 128.0, 128.0));
    }

    #[test]
    fn quantile_edge_cases() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), None, "empty histogram");
        h.observe(8.0);
        // A single observation decides every quantile.
        assert_eq!(h.quantile(0.01), Some(8.0));
        assert_eq!(h.quantile(1.0), Some(8.0));
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 8.0);
    }

    #[test]
    fn quantile_monotone_in_q() {
        let mut h = Histogram::default();
        for i in 1..=1000u32 {
            h.observe(i as f64);
        }
        let qs = [0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0];
        let vals: Vec<f64> = qs.iter().map(|&q| h.quantile(q).unwrap()).collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]), "{vals:?}");
        // The p50 estimate must bracket the true median within one bucket.
        let p50 = h.quantile(0.5).unwrap();
        assert!((500.0..=1024.0).contains(&p50), "{p50}");
    }

    #[test]
    fn counter_basics() {
        let mut m = MetricsRegistry::default();
        m.counter_add("q_total", None, 1);
        m.counter_add("q_total", None, 2);
        m.counter_add("hits", Some("V1"), 5);
        assert_eq!(m.counter("q_total", None), 3);
        assert_eq!(m.counter("hits", Some("V1")), 5);
        assert_eq!(m.counter("hits", Some("V2")), 0);
    }

    #[test]
    fn label_cardinality_collapses_to_overflow() {
        let mut m = MetricsRegistry::default();
        for i in 0..MAX_LABELS_PER_METRIC + 7 {
            m.counter_add("hits", Some(&format!("V{i}")), 1);
        }
        // The budget's real labels + the overflow series.
        assert_eq!(series_len(&m, "hits"), MAX_LABELS_PER_METRIC + 1);
        assert_eq!(m.counter("hits", Some(OVERFLOW_LABEL)), 7);
        // Existing labels keep updating after the limit is hit.
        m.counter_add("hits", Some("V0"), 10);
        assert_eq!(m.counter("hits", Some("V0")), 11);
        assert_eq!(series_len(&m, "hits"), MAX_LABELS_PER_METRIC + 1);
        // Histograms share the rule.
        let mut h = MetricsRegistry::default();
        for i in 0..MAX_LABELS_PER_METRIC + 1 {
            h.observe("h", Some(&format!("V{i}")), 1.0);
        }
        assert_eq!(h.histogram("h", Some(OVERFLOW_LABEL)).unwrap().count, 1);
    }

    #[test]
    fn each_metric_has_its_own_label_budget() {
        let mut m = MetricsRegistry::default();
        for i in 0..MAX_LABELS_PER_METRIC + 1 {
            m.counter_add("a", Some(&format!("V{i}")), 1);
        }
        assert_eq!(m.counter("a", Some(OVERFLOW_LABEL)), 1);
        // A full counter leaves another counter's and a same-named
        // histogram's budgets untouched.
        m.counter_add("b", Some("V256"), 1);
        m.observe("a", Some("V256"), 1.0);
        assert_eq!(m.counter("b", Some("V256")), 1);
        assert_eq!(m.histogram("a", Some("V256")).unwrap().count, 1);
        assert_eq!(m.counter("b", Some(OVERFLOW_LABEL)), 0);
    }

    fn series_len(m: &MetricsRegistry, name: &str) -> usize {
        m.counters[name].len()
    }

    #[test]
    fn unlabeled_series_shares_the_budget() {
        let mut m = MetricsRegistry::default();
        m.counter_add("c", None, 1);
        for i in 0..MAX_LABELS_PER_METRIC {
            m.counter_add("c", Some(&format!("V{i}")), 1);
        }
        // None + the first budget − 1 labels + overflow(the last): the
        // unlabeled slot consumed one budget entry (documented behaviour:
        // the limit bounds total series).
        assert_eq!(m.counter("c", None), 1);
        assert_eq!(m.counter("c", Some("V0")), 1);
        assert_eq!(m.counter("c", Some(OVERFLOW_LABEL)), 1);
        assert_eq!(series_len(&m, "c"), MAX_LABELS_PER_METRIC + 1);
    }
}
