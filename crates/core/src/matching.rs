//! Partition matching — Algorithm 2 of the paper.
//!
//! Given the selection range `θ` a query places on the partition attribute
//! and the set of *materialized* fragments (which may overlap), find a subset
//! of fragments whose union covers `θ`. Exact minimum set cover is
//! intractable; the paper's greedy heuristic walks left to right, always
//! picking the fragment that covers the current frontier and reaches
//! furthest... (the paper picks the candidate with the largest *lower* bound
//! among those covering the frontier; we additionally break ties by furthest
//! upper bound, which never covers less).

use crate::fragment::FragmentId;
use crate::interval::Interval;

/// Greedily select fragments covering `theta`.
///
/// Returns the cover *plan* in left-to-right order — each chosen fragment
/// with the piece of `theta` it contributes: from the first point its
/// predecessors left uncovered to its own (or `theta`'s) upper bound. The
/// pieces are pairwise disjoint, each lies inside its fragment, and their
/// union is exactly `theta`, so a consumer that takes only its piece from
/// each fragment sees every row once even when the fragments overlap.
/// `None` when the materialized fragments cannot cover the range (a gap —
/// the view partition cannot answer this query and the base plan must be
/// used).
pub fn partition_matching(
    theta: &Interval,
    fragments: &[(FragmentId, Interval)],
) -> Option<Vec<(FragmentId, Interval)>> {
    let mut chosen = Vec::new();
    // `ucovered` is the first *uncovered* point.
    let mut ucovered = theta.lo;
    loop {
        // Candidates: fragments covering the frontier point. Rank by largest
        // lower bound (Algorithm 2's argmax over I̲ — the tightest start);
        // among ties, a fragment that already reaches the end of `theta` with
        // the least width wins (cheapest completion), otherwise the furthest
        // reach wins (fewest fragments).
        let rank = |iv: &Interval| -> (i64, bool, i64) {
            let completes = iv.hi >= theta.hi;
            let tail_rank = if completes {
                -(iv.width() as i64)
            } else {
                iv.hi
            };
            (iv.lo, completes, tail_rank)
        };
        let mut best: Option<(FragmentId, Interval)> = None;
        for &(id, iv) in fragments {
            if iv.lo <= ucovered && iv.hi >= ucovered {
                let better = match &best {
                    None => true,
                    Some((_, b)) => rank(&iv) > rank(b),
                };
                if better {
                    best = Some((id, iv));
                }
            }
        }
        let (id, iv) = best?;
        chosen.push((id, Interval::new(ucovered, iv.hi.min(theta.hi))));
        if iv.hi >= theta.hi {
            return Some(chosen);
        }
        ucovered = iv.hi + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(id: u64, lo: i64, hi: i64) -> (FragmentId, Interval) {
        (FragmentId(id), Interval::new(lo, hi))
    }

    /// The chosen fragment ids of a cover plan, in order.
    fn ids(cover: &[(FragmentId, Interval)]) -> Vec<FragmentId> {
        cover.iter().map(|(id, _)| *id).collect()
    }

    #[test]
    fn exact_cover_with_disjoint_fragments() {
        let frags = vec![f(1, 0, 9), f(2, 10, 19), f(3, 20, 29)];
        let cover = partition_matching(&Interval::new(5, 25), &frags).unwrap();
        // Each piece is the fragment clamped to the query range.
        assert_eq!(cover, vec![f(1, 5, 9), f(2, 10, 19), f(3, 20, 25)]);
        let cover2 = partition_matching(&Interval::new(10, 19), &frags).unwrap();
        assert_eq!(cover2, vec![f(2, 10, 19)]);
    }

    #[test]
    fn gap_returns_none() {
        let frags = vec![f(1, 0, 9), f(3, 20, 29)];
        assert!(partition_matching(&Interval::new(5, 25), &frags).is_none());
        assert!(partition_matching(&Interval::new(30, 40), &frags).is_none());
    }

    #[test]
    fn overlapping_prefers_tightest_start() {
        // A big fragment [0,100] and a small hot fragment [40,60]:
        // a query inside the small one should use it alone.
        let frags = vec![f(1, 0, 100), f(2, 40, 60)];
        let cover = partition_matching(&Interval::new(45, 55), &frags).unwrap();
        assert_eq!(ids(&cover), vec![FragmentId(2)]);
        // A query exceeding the small fragment still needs the big one.
        let wide = partition_matching(&Interval::new(45, 80), &frags).unwrap();
        assert!(ids(&wide).contains(&FragmentId(1)));
    }

    #[test]
    fn frontier_advances_past_each_pick() {
        // Overlapping chain: [0,50], [40,80], [70,100].
        let frags = vec![f(1, 0, 50), f(2, 40, 80), f(3, 70, 100)];
        let cover = partition_matching(&Interval::new(0, 100), &frags).unwrap();
        // Each later fragment contributes only what its predecessors left
        // uncovered: the overlaps [40,50] and [70,80] are taken once.
        assert_eq!(cover, vec![f(1, 0, 50), f(2, 51, 80), f(3, 81, 100)]);
    }

    #[test]
    fn tie_on_lower_bound_takes_furthest_reach() {
        let frags = vec![f(1, 0, 10), f(2, 0, 50)];
        let cover = partition_matching(&Interval::new(0, 40), &frags).unwrap();
        assert_eq!(cover, vec![f(2, 0, 40)]);
    }

    #[test]
    fn completion_prefers_small_fragment_over_huge_tail() {
        // A sliver [11,20] and a huge tail [11,1000] both cover the frontier
        // after [0,10]; for a query ending at 18 the sliver completes the
        // range and must win (reading the tail would be needlessly costly).
        let frags = vec![f(1, 0, 10), f(2, 11, 20), f(3, 11, 1000)];
        let cover = partition_matching(&Interval::new(5, 18), &frags).unwrap();
        assert_eq!(ids(&cover), vec![FragmentId(1), FragmentId(2)]);
        // But a query ending past the sliver needs the tail.
        let cover2 = partition_matching(&Interval::new(5, 500), &frags).unwrap();
        assert_eq!(ids(&cover2), vec![FragmentId(1), FragmentId(3)]);
    }

    #[test]
    fn single_point_range() {
        let frags = vec![f(1, 0, 9)];
        let cover = partition_matching(&Interval::new(9, 9), &frags).unwrap();
        assert_eq!(cover, vec![f(1, 9, 9)]);
    }

    #[test]
    fn empty_fragment_set_cannot_cover() {
        assert!(partition_matching(&Interval::new(0, 1), &[]).is_none());
    }
}
