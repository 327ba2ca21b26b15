//! Property-based tests over the core invariants of the paper's algorithms.

use deepsea::core::candidates::{candidates_for_interval, partition_candidates};
use deepsea::core::fragment::FragmentId;
use deepsea::core::interval::{covers, is_horizontal_partition, pairwise_disjoint, Interval};
use deepsea::core::matching::partition_matching;
use deepsea::core::mle::{adjusted_hits, fit_normal};
use deepsea::core::selection::{
    all_fit, apply_size_bounds, equi_depth_intervals, select_configuration, select_with_verdicts,
    CandidateKind, RankedItem, Verdict,
};
use deepsea::relation::distr::normal_cdf;
use proptest::prelude::*;

/// Strategy: a non-empty interval inside [0, 10_000].
fn interval() -> impl Strategy<Value = Interval> {
    (0i64..10_000, 0i64..10_000).prop_map(|(a, b)| Interval::new(a.min(b), a.max(b)))
}

/// Strategy: an interval strictly inside the given domain.
fn interval_in(domain: Interval) -> impl Strategy<Value = Interval> {
    (domain.lo..=domain.hi, domain.lo..=domain.hi)
        .prop_map(|(a, b)| Interval::new(a.min(b), a.max(b)))
}

proptest! {
    /// Splitting never loses or duplicates points.
    #[test]
    fn split_preserves_width(iv in interval(), p in 0i64..10_000) {
        if let Some((l, r)) = iv.split_at(p) {
            prop_assert_eq!(l.width() + r.width(), iv.width());
            prop_assert!(l.hi < r.lo);
            prop_assert!(is_horizontal_partition(&[l, r], &iv));
        }
    }

    /// `chop(k)` is a horizontal partition of the interval.
    #[test]
    fn chop_is_horizontal_partition(iv in interval(), k in 1usize..20) {
        let parts = iv.chop(k);
        prop_assert!(is_horizontal_partition(&parts, &iv));
        prop_assert_eq!(parts.iter().map(Interval::width).sum::<u64>(), iv.width());
    }

    /// Intersection is commutative and contained in both operands.
    #[test]
    fn intersect_algebra(a in interval(), b in interval()) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        if let Some(c) = a.intersect(&b) {
            prop_assert!(a.contains(&c) && b.contains(&c));
            prop_assert!(a.overlaps(&b));
        } else {
            prop_assert!(!a.overlaps(&b));
        }
    }

    /// Definition 7: the split pieces of one overlapped interval reunite to
    /// exactly that interval (no data loss in repartitioning).
    #[test]
    fn def7_candidates_partition_the_source(existing in interval(), query in interval()) {
        let cands = candidates_for_interval(&existing, &query);
        if !cands.is_empty() {
            prop_assert!(is_horizontal_partition(&cands, &existing));
        }
    }

    /// Splitting the whole domain at a query's endpoints always yields a
    /// horizontal partition of the domain.
    #[test]
    fn def7_initialization_covers_domain(query_raw in interval()) {
        let domain = Interval::new(0, 10_000);
        let query = query_raw.intersect(&domain).unwrap();
        let cands = partition_candidates(&[], &domain, &query);
        if cands.is_empty() {
            // Case 2: the query covered the whole domain.
            prop_assert_eq!(query, domain);
        } else {
            prop_assert!(is_horizontal_partition(&cands, &domain));
        }
    }

    /// Algorithm 2 finds a cover whenever the fragments form a partition of
    /// the domain, and every returned cover actually covers the range.
    #[test]
    fn algorithm2_covers_partitions(
        bounds in proptest::collection::vec(1i64..10_000, 0..6),
        q in interval_in(Interval::new(0, 10_000)),
    ) {
        // Build a horizontal partition of [0, 10_000] from random boundaries.
        let mut bs: Vec<i64> = bounds;
        bs.sort_unstable();
        bs.dedup();
        let mut frags = Vec::new();
        let mut lo = 0i64;
        for (i, b) in bs.iter().enumerate() {
            frags.push((FragmentId(i as u64), Interval::new(lo, b - 1)));
            lo = *b;
        }
        frags.push((FragmentId(bs.len() as u64), Interval::new(lo, 10_000)));

        let cover = partition_matching(&q, &frags).expect("partition always covers");
        let ivs: Vec<Interval> = cover
            .iter()
            .map(|(id, _)| frags.iter().find(|(f, _)| f == id).unwrap().1)
            .collect();
        prop_assert!(covers(&ivs, &q), "cover {ivs:?} must cover {q}");
        // Disjoint fragments => the cover is minimal (each fragment needed).
        for skip in 0..ivs.len() {
            let rest: Vec<Interval> = ivs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, iv)| *iv)
                .collect();
            prop_assert!(!covers(&rest, &q), "cover must be minimal");
        }
    }

    /// Algorithm 2's cover plan over arbitrary *overlapping* fragments: the
    /// pieces are pairwise disjoint, each lies inside the fragment it is
    /// taken from, and their union is exactly the query range — so taking
    /// only its piece from each fragment delivers every point once.
    #[test]
    fn algorithm2_pieces_tile_the_range(
        ivs in proptest::collection::vec(interval_in(Interval::new(0, 1_000)), 1..12),
        q in interval_in(Interval::new(0, 1_000)),
    ) {
        let frags: Vec<(FragmentId, Interval)> = ivs
            .iter()
            .enumerate()
            .map(|(i, iv)| (FragmentId(i as u64), *iv))
            .collect();
        let cover = partition_matching(&q, &frags);
        prop_assert_eq!(cover.is_some(), covers(&ivs, &q), "a cover exists iff one is possible");
        let cover = cover.unwrap_or_default();
        let pieces: Vec<Interval> = cover.iter().map(|(_, piece)| *piece).collect();
        prop_assert!(
            pieces.is_empty() || is_horizontal_partition(&pieces, &q),
            "{pieces:?} must tile {q}"
        );
        for (id, piece) in &cover {
            prop_assert!(q.contains(piece), "{piece} outside {q}");
            prop_assert!(ivs[id.0 as usize].contains(piece), "{piece} outside its fragment");
        }
    }

    /// Algorithm 2 never fabricates coverage: with a gap, it returns None.
    #[test]
    fn algorithm2_detects_gaps(q in interval_in(Interval::new(0, 1_000))) {
        // Fragments leave [400, 600] uncovered.
        let frags = vec![
            (FragmentId(0), Interval::new(0, 399)),
            (FragmentId(1), Interval::new(601, 1_000)),
        ];
        let result = partition_matching(&q, &frags);
        let needs_gap = q.overlaps(&Interval::new(400, 600));
        prop_assert_eq!(result.is_some(), !needs_gap);
    }

    /// The greedy selection never exceeds Smax (estimated sizes).
    #[test]
    fn selection_respects_smax(
        sizes in proptest::collection::vec(1u64..1_000, 1..20),
        phis in proptest::collection::vec(0.0f64..100.0, 1..20),
        smax in 1u64..5_000,
    ) {
        let items: Vec<RankedItem> = sizes
            .iter()
            .zip(phis.iter().cycle())
            .enumerate()
            .map(|(i, (s, p))| RankedItem {
                kind: CandidateKind::WholeView(deepsea::core::filter_tree::ViewId(i as u64)),
                phi: *p,
                size: *s,
                materialized: i % 2 == 0,
            })
            .collect();
        let r = select_configuration(items, Some(smax));
        let kept: u64 = r.to_keep.iter().chain(&r.to_create).map(|i| i.size).sum();
        prop_assert!(kept <= smax, "kept {kept} > smax {smax}");
    }

    /// The premise of valuation on demand: `ALLCAND` fits under `Smax`
    /// exactly when the ranked selection cuts nothing, and then what it
    /// creates is the unmaterialized subsequence stable-sorted by Φ — so
    /// nobody's Φ but theirs is needed. Sizes include 0 and a pair whose sum
    /// overflows `u64`; Φ repeats, so materialized and unmaterialized
    /// entries tie; `smax` lands on, just under and just over the total.
    #[test]
    fn selection_cuts_nothing_iff_everything_fits(
        raw in proptest::collection::vec(
            (
                prop_oneof![Just(0u64), 1u64..1_000, Just(u64::MAX / 2 + 1)],
                prop_oneof![Just(1.0f64), Just(2.0f64), 0.0f64..4.0],
                any::<bool>(),
            ),
            0..12,
        ),
        slack in -2i64..3,
    ) {
        let items: Vec<RankedItem> = raw
            .iter()
            .enumerate()
            .map(|(i, &(size, phi, materialized))| RankedItem {
                kind: CandidateKind::WholeView(deepsea::core::filter_tree::ViewId(i as u64)),
                phi,
                size,
                materialized,
            })
            .collect();
        let total = items.iter().try_fold(0u64, |t, i| t.checked_add(i.size));
        let smax = total.map_or(u64::MAX, |t| t.saturating_add_signed(slack));
        let fits = all_fit(items.iter().map(|i| i.size), Some(smax));
        prop_assert_eq!(fits, total.is_some_and(|t| t <= smax));
        prop_assert!(all_fit(items.iter().map(|i| i.size), None));

        let (r, verdicts) = select_with_verdicts(items.clone(), Some(smax));
        let cut = verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Evict | Verdict::Reject));
        prop_assert_eq!(fits, !cut, "total {total:?}, smax {smax}: {verdicts:?}");
        if fits {
            let mut expected: Vec<RankedItem> =
                items.iter().filter(|i| !i.materialized).cloned().collect();
            expected.sort_by(|a, b| b.phi.total_cmp(&a.phi));
            prop_assert_eq!(&r.to_create, &expected);
            prop_assert_eq!(r.to_keep.len(), items.len() - expected.len());
            prop_assert!(r.to_evict.is_empty());
        }
        let (unlimited, verdicts) = select_with_verdicts(items, None);
        prop_assert!(!verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Evict | Verdict::Reject)));
        if fits {
            prop_assert_eq!(&unlimited, &r);
        }
    }

    /// Equi-depth intervals always form a horizontal partition of the domain.
    #[test]
    fn equi_depth_partitions_domain(
        mut values in proptest::collection::vec(0i64..1_000, 1..300),
        k in 1usize..12,
    ) {
        values.sort_unstable();
        let domain = Interval::new(0, 999);
        let parts = equi_depth_intervals(&values, k, &domain);
        prop_assert!(is_horizontal_partition(&parts, &domain));
        prop_assert!(parts.len() <= k);
    }

    /// Size bounding keeps coverage and disjointness of a partition.
    #[test]
    fn size_bounds_preserve_partition(
        bounds in proptest::collection::vec(1i64..1_000, 0..5),
        min_bytes in 1u64..200,
    ) {
        let domain = Interval::new(0, 1_000);
        let mut bs = bounds;
        bs.sort_unstable();
        bs.dedup();
        let mut parts = Vec::new();
        let mut lo = 0;
        for b in &bs {
            parts.push(Interval::new(lo, b - 1));
            lo = *b;
        }
        parts.push(Interval::new(lo, 1_000));
        let out = apply_size_bounds(&parts, &domain, 1_000, min_bytes, Some(0.3));
        prop_assert!(covers(&out, &domain), "{out:?}");
        prop_assert!(pairwise_disjoint(&out), "{out:?}");
    }

    /// The MLE fit is well-defined and adjusted hits are conserved (never
    /// exceed the total) for any hit distribution.
    #[test]
    fn mle_adjusted_hits_bounded(
        hits in proptest::collection::vec(0.0f64..100.0, 1..10),
    ) {
        let frags: Vec<(Interval, f64)> = hits
            .iter()
            .enumerate()
            .map(|(i, h)| (Interval::new(i as i64 * 10, i as i64 * 10 + 9), *h))
            .collect();
        let total: f64 = hits.iter().sum();
        if let Some(fit) = fit_normal(&frags) {
            prop_assert!(fit.mean.is_finite());
            prop_assert!(fit.std > 0.0);
            let sum: f64 = frags.iter().map(|(iv, _)| adjusted_hits(total, &fit, iv)).sum();
            prop_assert!(sum <= total + 1e-6, "adjusted {sum} > total {total}");
        } else {
            prop_assert!(total <= f64::EPSILON);
        }
    }

    /// The normal CDF is monotone and bounded — the backbone of HA(I).
    #[test]
    fn normal_cdf_monotone(x in -1e4f64..1e4, y in -1e4f64..1e4, mean in -100f64..100.0, std in 0.1f64..100.0) {
        let (a, b) = if x <= y { (x, y) } else { (y, x) };
        let ca = normal_cdf(a, mean, std);
        let cb = normal_cdf(b, mean, std);
        prop_assert!((0.0..=1.0).contains(&ca));
        prop_assert!((0.0..=1.0).contains(&cb));
        prop_assert!(ca <= cb + 1e-9);
    }
}
