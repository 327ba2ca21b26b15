//! View and fragment selection (§7.2–7.3) and materialization layout
//! helpers.
//!
//! Selection ranks `ALLCAND = Vsel ∪ Psel ∪ {materialized fragments}` by
//! value `Φ` and keeps the longest prefix that fits in `Smax`. Anything
//! materialized that falls outside the prefix is evicted; anything new inside
//! the prefix is materialized during the current query's execution.

use crate::filter_tree::ViewId;
use crate::fragment::FragmentId;
use crate::interval::Interval;

/// What a ranked candidate refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidateKind {
    /// A whole (unpartitioned) view.
    WholeView(ViewId),
    /// One fragment of a partition `P(view, attr)`.
    Fragment(ViewId, String, FragmentId),
}

/// One entry of `ALLCAND`.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedItem {
    /// What this entry is.
    pub kind: CandidateKind,
    /// Its value `Φ`.
    pub phi: f64,
    /// Its (estimated or actual) size in simulated bytes.
    pub size: u64,
    /// Whether it is currently materialized in the pool.
    pub materialized: bool,
}

/// Outcome of the greedy selection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectionResult {
    /// Entries to materialize (currently unmaterialized, selected).
    pub to_create: Vec<RankedItem>,
    /// Entries to evict (currently materialized, not selected).
    pub to_evict: Vec<RankedItem>,
    /// Entries that stay as they are.
    pub to_keep: Vec<RankedItem>,
}

/// Greedy Φ-ranked prefix selection under `smax` (§7.3):
///
/// ```text
/// Ci+1 = { ALLCAND[i] | i ≤ argmax_j Σ_{i≤j} S(ALLCAND[i]) ≤ Smax }
/// ```
///
/// Ties are broken in favor of already-materialized entries (avoids gratuitous
/// churn when Φ values are equal).
pub fn select_configuration(mut items: Vec<RankedItem>, smax: Option<u64>) -> SelectionResult {
    items.sort_by(|a, b| {
        b.phi
            .total_cmp(&a.phi)
            .then_with(|| b.materialized.cmp(&a.materialized))
    });
    let mut result = SelectionResult::default();
    let mut used: u64 = 0;
    let mut full = false;
    for item in items {
        // A running total beyond `u64` is beyond any limit.
        let fits = match smax {
            Some(limit) => match used.checked_add(item.size) {
                Some(total) if !full && total <= limit => {
                    used = total;
                    true
                }
                _ => false,
            },
            None => true,
        };
        if fits {
            if item.materialized {
                result.to_keep.push(item);
            } else {
                result.to_create.push(item);
            }
        } else {
            // The paper keeps the maximal *prefix*: once an item does not
            // fit, everything ranked below is excluded too.
            full = true;
            if item.materialized {
                result.to_evict.push(item);
            }
        }
    }
    result
}

/// Whether entries of these sizes all fit in a pool of `smax` bytes. Then the
/// §7.3 prefix is the whole list whatever the Φ ranking: the materialized
/// entries stay, nothing is evicted or rejected, and Φ decides only the order
/// in which the others are created — [`select_configuration`] need not run,
/// and nobody's Φ but theirs be known. A total beyond `u64` fits no pool.
pub fn all_fit(sizes: impl IntoIterator<Item = u64>, smax: Option<u64>) -> bool {
    let Some(smax) = smax else { return true };
    sizes
        .into_iter()
        .try_fold(0u64, |total, size| total.checked_add(size))
        .is_some_and(|total| total <= smax)
}

/// Apply the §9 fragment-size bounds to a prospective set of materialization
/// intervals: chop fragments larger than `φ·view_size` into equal pieces and
/// merge fragments smaller than `min_bytes` into their left neighbor.
/// Interval sizes are estimated width-proportionally from `view_size`.
pub fn apply_size_bounds(
    intervals: &[Interval],
    domain: &Interval,
    view_size: u64,
    min_bytes: u64,
    phi_max_fraction: Option<f64>,
) -> Vec<Interval> {
    let bytes_of = |iv: &Interval| -> u64 {
        ((iv.width() as f64 / domain.width() as f64) * view_size as f64).round() as u64
    };
    // Upper bound: chop oversized fragments.
    let mut chopped: Vec<Interval> = Vec::with_capacity(intervals.len());
    for iv in intervals {
        match phi_max_fraction {
            Some(phi) if phi > 0.0 => {
                let limit = (phi * view_size as f64).max(1.0);
                let size = bytes_of(iv) as f64;
                if size > limit {
                    let k = (size / limit).ceil() as usize;
                    chopped.extend(iv.chop(k));
                } else {
                    chopped.push(*iv);
                }
            }
            _ => chopped.push(*iv),
        }
    }
    // Lower bound: merge undersized fragments into the previous one (or the
    // next, for a leading runt).
    let mut merged: Vec<Interval> = Vec::with_capacity(chopped.len());
    for iv in chopped {
        let too_small = bytes_of(&iv) < min_bytes;
        match merged.last_mut() {
            Some(prev) if too_small && prev.hi + 1 == iv.lo => {
                *prev = Interval::new(prev.lo, iv.hi);
            }
            _ => merged.push(iv),
        }
    }
    // A leading runt merges forward.
    if merged.len() >= 2 && bytes_of(&merged[0]) < min_bytes && merged[0].hi + 1 == merged[1].lo {
        let combined = Interval::new(merged[0].lo, merged[1].hi);
        merged.splice(0..2, [combined]);
    }
    merged
}

/// Value-range boundaries for equi-depth partitioning: split the (sorted)
/// attribute values of the view into `k` near-equal-count runs and return the
/// contiguous intervals covering `domain`.
pub fn equi_depth_intervals(sorted_values: &[i64], k: usize, domain: &Interval) -> Vec<Interval> {
    assert!(k > 0, "need at least one fragment");
    if sorted_values.is_empty() || k == 1 {
        return vec![*domain];
    }
    debug_assert!(sorted_values.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted_values.len();
    let mut bounds: Vec<i64> = Vec::with_capacity(k - 1);
    for i in 1..k {
        let idx = i * n / k;
        let b = sorted_values[idx.min(n - 1)];
        // Boundary is the first value of the next run; must be a valid split
        // point inside the domain and strictly increasing.
        if b > domain.lo && b <= domain.hi && bounds.last().is_none_or(|&p| b > p) {
            bounds.push(b);
        }
    }
    let mut out = Vec::with_capacity(bounds.len() + 1);
    let mut lo = domain.lo;
    for b in bounds {
        out.push(Interval::new(lo, b - 1));
        lo = b;
    }
    out.push(Interval::new(lo, domain.hi));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::is_horizontal_partition;

    fn item(phi: f64, size: u64, materialized: bool, tag: u64) -> RankedItem {
        RankedItem {
            kind: CandidateKind::WholeView(ViewId(tag)),
            phi,
            size,
            materialized,
        }
    }

    #[test]
    fn unbounded_takes_everything() {
        let r = select_configuration(
            vec![item(1.0, 100, false, 0), item(0.5, 100, true, 1)],
            None,
        );
        assert_eq!(r.to_create.len(), 1);
        assert_eq!(r.to_keep.len(), 1);
        assert!(r.to_evict.is_empty());
    }

    #[test]
    fn the_first_misfit_closes_the_prefix() {
        // Ranked: #2 (Φ 3, kept), #0 (Φ 2, created), then #1 does not fit
        // and closes the prefix, so #3 is out although it would fit.
        let items = vec![
            item(2.0, 50, false, 0),
            item(1.5, 60, true, 1),
            item(3.0, 40, true, 2),
            item(1.0, 5, false, 3),
        ];
        let r = select_configuration(items, Some(100));
        let tags = |items: &[RankedItem]| -> Vec<CandidateKind> {
            items.iter().map(|i| i.kind.clone()).collect()
        };
        assert_eq!(tags(&r.to_keep), [CandidateKind::WholeView(ViewId(2))]);
        assert_eq!(tags(&r.to_create), [CandidateKind::WholeView(ViewId(0))]);
        assert_eq!(tags(&r.to_evict), [CandidateKind::WholeView(ViewId(1))]);
    }

    #[test]
    fn greedy_prefix_respects_smax() {
        let items = vec![
            item(3.0, 60, true, 0),
            item(2.0, 60, false, 1),
            item(1.0, 10, true, 2),
        ];
        let r = select_configuration(items, Some(100));
        // Prefix: first item (60) fits; second (60) would exceed 100 → stop.
        // Third (size 10) is NOT taken (prefix semantics), and being
        // materialized it is evicted.
        assert_eq!(r.to_keep.len(), 1);
        assert!(r.to_create.is_empty());
        assert_eq!(r.to_evict.len(), 1);
        assert_eq!(r.to_evict[0].kind, CandidateKind::WholeView(ViewId(2)));
    }

    #[test]
    fn higher_phi_wins_slot() {
        let items = vec![item(1.0, 80, true, 0), item(5.0, 80, false, 1)];
        let r = select_configuration(items, Some(100));
        assert_eq!(r.to_create.len(), 1);
        assert_eq!(r.to_create[0].kind, CandidateKind::WholeView(ViewId(1)));
        assert_eq!(r.to_evict.len(), 1, "old item evicted to make space");
    }

    #[test]
    fn tie_prefers_materialized() {
        let items = vec![item(1.0, 80, false, 0), item(1.0, 80, true, 1)];
        let r = select_configuration(items, Some(100));
        assert_eq!(r.to_keep.len(), 1);
        assert_eq!(r.to_keep[0].kind, CandidateKind::WholeView(ViewId(1)));
        assert!(r.to_create.is_empty());
    }

    #[test]
    fn zero_phi_items_still_fit_in_unlimited_pool() {
        let r = select_configuration(vec![item(0.0, 10, false, 0)], None);
        assert_eq!(r.to_create.len(), 1);
    }

    #[test]
    fn equi_depth_uniform_values_near_equal_widths() {
        let values: Vec<i64> = (0..1000).collect();
        let domain = Interval::new(0, 999);
        let parts = equi_depth_intervals(&values, 4, &domain);
        assert_eq!(parts.len(), 4);
        assert!(is_horizontal_partition(&parts, &domain));
        for p in &parts {
            assert!((p.width() as i64 - 250).abs() <= 1, "{p}");
        }
    }

    #[test]
    fn equi_depth_skewed_values_make_small_hot_fragments() {
        // 90% of values in [0,99], 10% in [100,999].
        let mut values: Vec<i64> = (0..900).map(|i| i % 100).collect();
        values.extend((0..100).map(|i| 100 + i * 9));
        values.sort_unstable();
        let domain = Interval::new(0, 999);
        let parts = equi_depth_intervals(&values, 4, &domain);
        assert!(is_horizontal_partition(&parts, &domain));
        // The hot region is covered by narrow fragments.
        assert!(parts[0].width() < 100);
        // The cold tail is one wide fragment.
        assert!(parts.last().unwrap().width() > 500);
    }

    #[test]
    fn equi_depth_duplicate_heavy_values_dedupe_bounds() {
        let values = vec![5; 100];
        let domain = Interval::new(0, 9);
        let parts = equi_depth_intervals(&values, 4, &domain);
        assert!(is_horizontal_partition(&parts, &domain));
        assert!(parts.len() <= 2, "all mass at one value: {parts:?}");
    }

    #[test]
    fn equi_depth_empty_or_k1() {
        let domain = Interval::new(0, 9);
        assert_eq!(equi_depth_intervals(&[], 4, &domain), vec![domain]);
        assert_eq!(equi_depth_intervals(&[1, 2, 3], 1, &domain), vec![domain]);
    }

    #[test]
    fn size_bounds_chop_oversized() {
        let domain = Interval::new(0, 99);
        let out = apply_size_bounds(&[domain], &domain, 1000, 1, Some(0.25));
        assert_eq!(out.len(), 4, "φ=0.25 chops the whole domain in 4");
        assert!(is_horizontal_partition(&out, &domain));
    }

    #[test]
    fn size_bounds_merge_undersized() {
        let domain = Interval::new(0, 99);
        let tiny = vec![
            Interval::new(0, 49),
            Interval::new(50, 51), // ~2% of view: below min
            Interval::new(52, 99),
        ];
        // view_size 1000 → sizes 500, 20, 480; min 100 merges the middle left.
        let out = apply_size_bounds(&tiny, &domain, 1000, 100, None);
        assert_eq!(out, vec![Interval::new(0, 51), Interval::new(52, 99)]);
    }

    #[test]
    fn size_bounds_leading_runt_merges_forward() {
        let domain = Interval::new(0, 99);
        let ivs = vec![Interval::new(0, 1), Interval::new(2, 99)];
        let out = apply_size_bounds(&ivs, &domain, 1000, 100, None);
        assert_eq!(out, vec![Interval::new(0, 99)]);
    }

    #[test]
    fn size_bounds_noop_when_unbounded() {
        let domain = Interval::new(0, 99);
        let ivs = vec![Interval::new(0, 49), Interval::new(50, 99)];
        let out = apply_size_bounds(&ivs, &domain, 1000, 1, None);
        assert_eq!(out, ivs);
    }
}
