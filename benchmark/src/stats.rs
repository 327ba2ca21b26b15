//! The estimators: nearest-rank percentiles and the per-op minimum across
//! passes. Everything the gated wall metrics are made of lives here so the
//! unit tests can pin it.

/// Nearest-rank percentile of an unsorted series: the smallest value with at
/// least `p` of the samples at or below it. `p` in `(0, 1]`; 0 for an empty
/// series.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// [`percentile`] over nanosecond samples.
pub fn percentile_ns(values: &[u64], p: f64) -> f64 {
    let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    percentile(&as_f64, p)
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Fold one pass into the running per-op minimum: `best[i] = min(best[i],
/// pass[i])`. Every pass replays the identical op sequence, so index `i` is
/// the same work in every pass and the minimum filters out whatever
/// disturbed it. An empty `best` adopts the pass.
///
/// # Panics
/// If the pass has a different number of ops — the passes are not replays
/// of each other and the minimum would be meaningless.
pub fn merge_min(best: &mut Vec<u64>, pass: &[u64]) {
    if best.is_empty() {
        best.extend_from_slice(pass);
        return;
    }
    assert_eq!(
        best.len(),
        pass.len(),
        "passes must replay the same op sequence"
    );
    for (b, &p) in best.iter_mut().zip(pass) {
        *b = (*b).min(p);
    }
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) — the
/// spread `--selfcheck` reports per metric.
pub fn iqr_share(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let pos = q * (n + 1) as f64;
        let below = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - below as f64).clamp(0.0, 1.0);
        sorted[below - 1] + frac * (sorted[below] - sorted[below - 1])
    };
    let mid = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    if mid == 0.0 {
        return 0.0;
    }
    (quantile(0.75) - quantile(0.25)) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile_ns(&[30, 10, 20], 0.5), 20.0);
    }

    #[test]
    fn merge_min_keeps_the_fastest_sample_per_op() {
        let mut best = Vec::new();
        merge_min(&mut best, &[5, 9, 7]);
        assert_eq!(best, [5, 9, 7]);
        merge_min(&mut best, &[6, 3, 7]);
        merge_min(&mut best, &[9, 9, 1]);
        assert_eq!(best, [5, 3, 1]);
    }

    #[test]
    #[should_panic(expected = "same op sequence")]
    fn merge_min_rejects_a_pass_of_another_shape() {
        let mut best = vec![1, 2, 3];
        merge_min(&mut best, &[1, 2]);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert!((iqr_share(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[4.0]), 0.0);
    }
}
