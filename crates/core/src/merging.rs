//! Fragment merging — the first short-term extension §11 proposes:
//! "considering how to merge consecutive fragments that are mostly accessed
//! together".
//!
//! Progressive splitting leaves partitions littered with small adjacent
//! fragments that queries almost always read as a unit (their hit sets
//! coincide). Each extra file costs a map task and a commit; merging them
//! back recovers the overhead without losing selectivity the workload ever
//! exploits.
//!
//! A pair of **adjacent, materialized, non-overlapping** fragments is merged
//! when their (decayed) hit counts agree within `cohit_tolerance` — hits that
//! always arrive together produce equal counts — and both have been hit at
//! all. Merging reads both fragments and writes their union, so the driver
//! charges it like any repartitioning job.

use crate::fragment::{FragmentId, FragmentMeta};
use crate::interval::Interval;
use crate::registry::PartitionState;
use crate::stats::LogicalTime;

/// A proposed merge of two adjacent fragments.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeCandidate {
    /// Left fragment.
    pub left: FragmentId,
    /// Right fragment (immediately adjacent).
    pub right: FragmentId,
    /// The merged interval.
    pub merged: Interval,
    /// Combined size in simulated bytes.
    pub bytes: u64,
}

/// Find mergeable pairs in one partition.
///
/// `cohit_tolerance` is the maximum allowed relative difference between the
/// two fragments' decayed hit counts (0.0 = identical, 0.2 = within 20%).
/// `max_merged_bytes` bounds the result size so merging never rebuilds the
/// monolith progressive partitioning just split.
pub fn merge_candidates(
    partition: &PartitionState,
    tnow: LogicalTime,
    tmax: LogicalTime,
    cohit_tolerance: f64,
    max_merged_bytes: u64,
) -> Vec<MergeCandidate> {
    let mut mats: Vec<&FragmentMeta> = partition
        .fragments
        .iter()
        .filter(|f| f.is_materialized())
        .map(|f| &**f)
        .collect();
    mats.sort_by_key(|f| (f.interval.lo, f.interval.hi));
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < mats.len() {
        let a = mats[i];
        let b = mats[i + 1];
        let adjacent = a.interval.hi + 1 == b.interval.lo;
        if adjacent && is_cohit(a, b, tnow, tmax, cohit_tolerance) {
            let bytes = a.size + b.size;
            if bytes <= max_merged_bytes {
                out.push(MergeCandidate {
                    left: a.id,
                    right: b.id,
                    merged: Interval::new(a.interval.lo, b.interval.hi),
                    bytes,
                });
                i += 2; // don't chain a fragment into two merges at once
                continue;
            }
        }
        i += 1;
    }
    out
}

fn is_cohit(
    a: &FragmentMeta,
    b: &FragmentMeta,
    tnow: LogicalTime,
    tmax: LogicalTime,
    tolerance: f64,
) -> bool {
    let ha = a.stats.decayed_hits(tnow, tmax);
    let hb = b.stats.decayed_hits(tnow, tmax);
    if ha <= 0.0 || hb <= 0.0 {
        return false; // merging cold fragments has no evidence behind it
    }
    let rel = (ha - hb).abs() / ha.max(hb);
    rel <= tolerance
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsea_storage::FileId;
    use std::sync::Arc;

    /// Partition with materialized fragments [0,9][10,19][20,29][40,49]
    /// (note the gap before the last one).
    fn partition(hits: &[&[LogicalTime]]) -> PartitionState {
        let mut p = PartitionState::new("a.k", Interval::new(0, 49));
        for (i, (lo, hi)) in [(0, 9), (10, 19), (20, 29), (40, 49)].iter().enumerate() {
            let f = Arc::make_mut(p.track(Interval::new(*lo, *hi), 100).0);
            f.file = Some(FileId(i as u64));
            for &t in hits[i] {
                f.stats.record_hit(t);
            }
        }
        p
    }

    #[test]
    fn cohit_adjacent_fragments_merge() {
        // First two fragments always hit together; third rarely; fourth never.
        let p = partition(&[&[1, 2, 3], &[1, 2, 3], &[2], &[]]);
        let c = merge_candidates(&p, 3, 100, 0.1, 1_000);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].merged, Interval::new(0, 19));
        assert_eq!(c[0].bytes, 200);
    }

    #[test]
    fn differing_hit_counts_do_not_merge() {
        let p = partition(&[&[1, 2, 3], &[3], &[], &[]]);
        assert!(merge_candidates(&p, 3, 100, 0.1, 1_000).is_empty());
        // …unless the tolerance allows it.
        let loose = merge_candidates(&p, 3, 100, 0.9, 1_000);
        assert_eq!(loose.len(), 1);
    }

    #[test]
    fn cold_fragments_never_merge() {
        let p = partition(&[&[], &[], &[], &[]]);
        assert!(merge_candidates(&p, 3, 100, 1.0, 1_000).is_empty());
    }

    #[test]
    fn gap_blocks_merge() {
        // [20,29] and [40,49] co-hit but are not adjacent.
        let p = partition(&[&[], &[], &[1, 2], &[1, 2]]);
        assert!(merge_candidates(&p, 2, 100, 0.1, 1_000).is_empty());
    }

    #[test]
    fn size_cap_blocks_merge() {
        let p = partition(&[&[1], &[1], &[], &[]]);
        assert!(merge_candidates(&p, 1, 100, 0.1, 150).is_empty());
        assert_eq!(merge_candidates(&p, 1, 100, 0.1, 200).len(), 1);
    }

    #[test]
    fn no_fragment_participates_twice() {
        // Three consecutive co-hit fragments: only one pair merges per pass.
        let p = partition(&[&[1], &[1], &[1], &[]]);
        let c = merge_candidates(&p, 1, 100, 0.1, 1_000);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].merged, Interval::new(0, 19));
    }
}
