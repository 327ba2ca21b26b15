//! Fragment metadata.

use deepsea_storage::FileId;

use crate::interval::Interval;

/// Identifier of a fragment within one partition (stable across splits of
/// *other* fragments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FragmentId(pub u64);

/// A fragment of a partitioned view — either materialized (has a file in the
/// pool) or a tracked candidate (per Definition 5's PSTAT). Its hit
/// statistics are the writer's, in the registry's
/// [`StatsLedger`](crate::stats::StatsLedger).
#[derive(Debug, Clone)]
pub struct FragmentMeta {
    /// Identifier within the partition.
    pub id: FragmentId,
    /// The interval of partition-key values this fragment holds.
    pub interval: Interval,
    /// Backing file while materialized.
    pub file: Option<FileId>,
    /// Simulated size in bytes: actual while materialized, estimated
    /// otherwise (§7.2's overlap-weighted estimate).
    pub size: u64,
}

impl FragmentMeta {
    /// A new (not yet materialized) fragment record.
    pub fn candidate(id: FragmentId, interval: Interval, est_size: u64) -> Self {
        Self {
            id,
            interval,
            file: None,
            size: est_size,
        }
    }

    /// Is the fragment currently materialized in the pool?
    pub fn is_materialized(&self) -> bool {
        self.file.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_starts_unmaterialized() {
        let f = FragmentMeta::candidate(FragmentId(1), Interval::new(0, 9), 100);
        assert!(!f.is_materialized());
        assert_eq!(f.size, 100);
    }
}
