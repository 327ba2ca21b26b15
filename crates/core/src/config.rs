//! DeepSea configuration.

use deepsea_storage::BlockConfig;

use crate::policy::{PartitionPolicy, ValueModel};
use crate::retry::RetryPolicy;
use crate::stats::LogicalTime;

/// Configuration of a DeepSea instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeepSeaConfig {
    /// Pool size limit `Smax` in simulated bytes (`None` = unbounded).
    pub smax: Option<u64>,
    /// Decay cutoff `tmax` in logical time (queries); benefits older than
    /// this contribute nothing (§7.1).
    pub tmax: LogicalTime,
    /// Selection strategy.
    pub value_model: ValueModel,
    /// Physical layout policy.
    pub partition_policy: PartitionPolicy,
    /// Lower bound on fragment size — "we use the file system's block size
    /// as the lower bound for fragment size" (§9). Fragments smaller than
    /// this are merged with a neighbor at materialization time.
    pub min_fragment_bytes: u64,
    /// Optional upper bound φ on a fragment's size *relative to its view*
    /// (§9 "Bounding Fragment Size"): fragments larger than `φ · S(V)` are
    /// chopped into equal pieces at materialization time. The headline
    /// partitioning experiments of §10.2 run with this unset.
    pub phi_max_fraction: Option<f64>,
    /// The one retry policy: limits and backoff for every transient I/O
    /// failure the driver absorbs — plan executions that can read views (a
    /// snapshot read's and a commit's), fragment reads and creates, and
    /// journal appends. Each operation retries on its own; nothing is
    /// budgeted across a query.
    pub retry: RetryPolicy,
    /// When a catalog journal is attached, emit a statistics checkpoint
    /// record every this many queries (benefit events and fragment hits are
    /// too chatty to journal individually; a crash loses at most this many
    /// queries' worth of statistics, never structural state).
    pub journal_checkpoint_every: LogicalTime,
    /// When a catalog journal is attached, install a full-state snapshot
    /// (truncating the record log) every this many queries.
    pub journal_snapshot_every: LogicalTime,
}

impl Default for DeepSeaConfig {
    fn default() -> Self {
        Self {
            smax: None,
            tmax: 500,
            value_model: ValueModel::DeepSea { use_mle: true },
            partition_policy: PartitionPolicy::Progressive {
                overlapping: true,
                repartition: true,
            },
            min_fragment_bytes: BlockConfig::default().block_bytes,
            phi_max_fraction: None,
            retry: RetryPolicy::default(),
            journal_checkpoint_every: 10,
            journal_snapshot_every: 25,
        }
    }
}

impl DeepSeaConfig {
    /// Builder-style: set the pool limit.
    pub fn with_smax(mut self, smax: u64) -> Self {
        self.smax = Some(smax);
        self
    }

    /// Builder-style: set the value model.
    pub fn with_value_model(mut self, vm: ValueModel) -> Self {
        self.value_model = vm;
        self
    }

    /// Builder-style: set the partition policy.
    pub fn with_policy(mut self, p: PartitionPolicy) -> Self {
        self.partition_policy = p;
        self
    }

    /// Builder-style: set the decay cutoff.
    pub fn with_tmax(mut self, tmax: LogicalTime) -> Self {
        self.tmax = tmax;
        self
    }

    /// Builder-style: set the φ fragment-size bound.
    pub fn with_phi(mut self, phi: f64) -> Self {
        self.phi_max_fraction = Some(phi);
        self
    }

    /// Builder-style: disable the φ fragment-size bound (§10.2: "we do not
    /// bound the size of the largest fragment").
    pub fn without_phi(mut self) -> Self {
        self.phi_max_fraction = None;
        self
    }

    /// Builder-style: set the minimum fragment size.
    pub fn with_min_fragment_bytes(mut self, b: u64) -> Self {
        self.min_fragment_bytes = b;
        self
    }

    /// Builder-style: set the transient-I/O retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder-style: set the journal checkpoint and snapshot cadence
    /// (in queries).
    pub fn with_journal_cadence(
        mut self,
        checkpoint_every: LogicalTime,
        snapshot_every: LogicalTime,
    ) -> Self {
        self.journal_checkpoint_every = checkpoint_every;
        self.journal_snapshot_every = snapshot_every;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_deepsea() {
        let c = DeepSeaConfig::default();
        assert_eq!(c.smax, None);
        assert!(c.partition_policy.partitions());
        assert!(c.partition_policy.repartitions());
        assert!(c.partition_policy.overlapping());
        assert_eq!(c.value_model, ValueModel::DeepSea { use_mle: true });
        assert!(c.phi_max_fraction.is_none());
    }

    #[test]
    fn builders_compose() {
        let retry = RetryPolicy {
            max_retries: 5,
            base_backoff_secs: 0.1,
            backoff_multiplier: 3.0,
            max_total_backoff_secs: 120.0,
        };
        let c = DeepSeaConfig::default()
            .with_smax(1_000)
            .with_tmax(77)
            .with_phi(0.25)
            .with_min_fragment_bytes(64)
            .with_value_model(ValueModel::Nectar)
            .with_policy(PartitionPolicy::NoPartition)
            .with_retry(retry)
            .with_journal_cadence(5, 20);
        assert_eq!(c.smax, Some(1_000));
        assert_eq!(c.tmax, 77);
        assert_eq!(c.phi_max_fraction, Some(0.25));
        assert_eq!(c.min_fragment_bytes, 64);
        assert_eq!(c.value_model, ValueModel::Nectar);
        assert_eq!(c.partition_policy, PartitionPolicy::NoPartition);
        assert_eq!(c.retry, retry);
        assert_eq!(c.journal_checkpoint_every, 5);
        assert_eq!(c.journal_snapshot_every, 20);
    }
}
