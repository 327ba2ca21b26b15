//! Value models (selection strategies) and partitioning policies.
//!
//! The value model decides *what stays in the pool* (DeepSea's decayed Φ vs
//! the Nectar/Nectar+ baselines of §10.1); the partition policy decides *how
//! views are laid out* (progressive/overlapping vs equi-depth vs none). The
//! two axes are orthogonal, exactly as in the paper's experiments.

use crate::mle::{adjusted_hits, fit_normal, FittedNormal};
use crate::registry::PartitionState;
use crate::stats::{FragStats, LogicalTime, ViewStats};

/// How views and fragments are valued for admission/eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueModel {
    /// The paper's model: `Φ = COST · B / S` with the decay function, and
    /// (optionally) MLE-adjusted fragment hits (§7.1).
    DeepSea {
        /// Use the probabilistic fragment-benefit model (fragment
        /// correlations). Disable for the "DS-noMLE" ablation.
        use_mle: bool,
    },
    /// Nectar [Gunda et al., OSDI'10] as characterized in §10.1: value
    /// divides by the time since last access and does **not** accumulate
    /// benefit (only the most recent saving counts).
    Nectar,
    /// Nectar+ (§10.1): Nectar extended with accumulated (undecayed) benefit:
    /// `N+ = COST(V)·N(V) / (S(V)·ΔT)`.
    NectarPlus,
}

impl ValueModel {
    /// Value of a view at `tnow`.
    pub fn view_value(&self, stats: &ViewStats, tnow: LogicalTime, tmax: LogicalTime) -> f64 {
        if stats.size == 0 {
            return 0.0;
        }
        let s = stats.size as f64;
        match self {
            ValueModel::DeepSea { .. } => stats.phi(tnow, tmax),
            ValueModel::Nectar => {
                let dt = delta_t(stats.last_use(), tnow);
                stats.cost * stats.last_saving() / (s * dt)
            }
            ValueModel::NectarPlus => {
                let dt = delta_t(stats.last_use(), tnow);
                stats.cost * stats.undecayed_benefit() / (s * dt)
            }
        }
    }

    /// Benefit of a view at `tnow` under this model's accounting — used for
    /// the §7.2 admission filter `COST(V) ≤ B(V, tnow)`.
    pub fn view_benefit(&self, stats: &ViewStats, tnow: LogicalTime, tmax: LogicalTime) -> f64 {
        match self {
            ValueModel::DeepSea { .. } => stats.benefit(tnow, tmax),
            ValueModel::Nectar => stats.last_saving(),
            ValueModel::NectarPlus => stats.undecayed_benefit(),
        }
    }

    /// Values for every fragment of a partition at `tnow`, keyed by position
    /// in `partition.fragments`.
    ///
    /// For `DeepSea { use_mle: true }` the decayed hits of the whole
    /// partition are first smoothed through the MLE normal fit and each
    /// fragment is revalued by its adjusted hits `HA(I)` — this is the
    /// mechanism that keeps cold neighbors of hot spots alive (Figure 8).
    pub fn fragment_values(
        &self,
        partition: &PartitionState,
        view_size: u64,
        view_cost: f64,
        tnow: LogicalTime,
        tmax: LogicalTime,
    ) -> Vec<f64> {
        self.value_fragments(partition, view_size, view_cost, tnow, tmax)
            .values
    }

    /// [`ValueModel::fragment_values`] together with the MLE fit it went
    /// through, so that one pass over the hit lists per partition and commit
    /// serves the ranking and the audit log.
    pub fn value_fragments(
        &self,
        partition: &PartitionState,
        view_size: u64,
        view_cost: f64,
        tnow: LogicalTime,
        tmax: LogicalTime,
    ) -> PartitionValues {
        match self {
            ValueModel::DeepSea { use_mle } => {
                let (decayed_hits, fit) = decayed_hits_and_fit(partition, *use_mle, tnow, tmax);
                let values = partition
                    .fragments
                    .iter()
                    .zip(&decayed_hits)
                    .map(|(f, &h)| {
                        let ha = match &fit {
                            Some(fit) => adjusted_hits(fit.total_hits, &fit.normal, &f.interval),
                            None => h,
                        };
                        FragStats::phi_with_hits(ha, f.size, view_size, view_cost)
                    })
                    .collect();
                PartitionValues { values, fit }
            }
            ValueModel::Nectar | ValueModel::NectarPlus => {
                let values = partition
                    .fragments
                    .iter()
                    .map(|f| {
                        if f.size == 0 || view_size == 0 {
                            return 0.0;
                        }
                        let dt = delta_t(f.stats.last_hit(), tnow);
                        let per_hit = (f.size as f64 / view_size as f64) * view_cost;
                        let benefit = match self {
                            // Nectar: only the most recent hit counts.
                            ValueModel::Nectar => {
                                if f.stats.raw_hits() > 0 {
                                    per_hit
                                } else {
                                    0.0
                                }
                            }
                            // Nectar+: accumulated, undecayed.
                            _ => per_hit * f.stats.raw_hits() as f64,
                        };
                        view_cost * benefit / (f.size as f64 * dt)
                    })
                    .collect();
                PartitionValues { values, fit: None }
            }
        }
    }

    /// The per-fragment hit counts `HA(I)` this model's [`fragment_values`]
    /// weighs benefit by — MLE-adjusted where the fit is active, decayed
    /// hits otherwise (Nectar: 1 iff ever hit; Nectar+: raw hits). Exposed
    /// so the decision audit log can report the exact hits a fragment's Φ
    /// was derived from.
    ///
    /// [`fragment_values`]: ValueModel::fragment_values
    pub fn fragment_adjusted_hits(
        &self,
        partition: &PartitionState,
        tnow: LogicalTime,
        tmax: LogicalTime,
    ) -> Vec<f64> {
        match self {
            ValueModel::DeepSea { use_mle } => {
                let (decayed_hits, fit) = decayed_hits_and_fit(partition, *use_mle, tnow, tmax);
                match fit {
                    Some(fit) => partition
                        .fragments
                        .iter()
                        .map(|f| adjusted_hits(fit.total_hits, &fit.normal, &f.interval))
                        .collect(),
                    None => decayed_hits,
                }
            }
            ValueModel::Nectar => partition
                .fragments
                .iter()
                .map(|f| if f.stats.raw_hits() > 0 { 1.0 } else { 0.0 })
                .collect(),
            ValueModel::NectarPlus => partition
                .fragments
                .iter()
                .map(|f| f.stats.raw_hits() as f64)
                .collect(),
        }
    }
}

/// The MLE normal fit of one partition's decayed hits (§7.1) and the total
/// it redistributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionFit {
    /// The fitted distribution.
    pub normal: FittedNormal,
    /// `Σ H(I)` over the partition's fragments.
    pub total_hits: f64,
}

/// What [`ValueModel::value_fragments`] computed for one partition.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionValues {
    /// `Φ(I, tnow)` per fragment, keyed by position in `partition.fragments`.
    pub values: Vec<f64>,
    /// The MLE fit the values were smoothed through, when one was active.
    pub fit: Option<PartitionFit>,
}

/// `H(I)` for every fragment of a partition, and the MLE fit over them when
/// the model smooths and the hits carry a signal.
fn decayed_hits_and_fit(
    partition: &PartitionState,
    use_mle: bool,
    tnow: LogicalTime,
    tmax: LogicalTime,
) -> (Vec<f64>, Option<PartitionFit>) {
    let weighted: Vec<_> = partition
        .fragments
        .iter()
        .map(|f| (f.interval, f.stats.decayed_hits(tnow, tmax)))
        .collect();
    let fit = if use_mle {
        let total_hits: f64 = weighted.iter().map(|(_, h)| h).sum();
        fit_normal(&weighted).map(|normal| PartitionFit { normal, total_hits })
    } else {
        None
    };
    (weighted.into_iter().map(|(_, h)| h).collect(), fit)
}

/// Time since last access, floored at 1 so "used this query" divides by one.
pub(crate) fn delta_t(last: Option<LogicalTime>, tnow: LogicalTime) -> f64 {
    match last {
        Some(t) => ((tnow - t) as f64).max(1.0),
        None => tnow as f64,
    }
}

/// How materialized views are physically laid out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionPolicy {
    /// No materialization at all — vanilla Hive (the `H` baseline).
    NoMaterialization,
    /// Materialize whole views, never partition (the `NP` baseline, akin to
    /// ReStore with logical matching).
    NoPartition,
    /// Non-adaptive equi-depth partitioning into a fixed number of fragments
    /// (the `E-k` baselines of §10.2).
    EquiDepth {
        /// Number of fragments per partitioned view.
        fragments: usize,
    },
    /// The paper's progressive workload-aware partitioning.
    Progressive {
        /// Allow overlapping fragments (§3/§10.4); when false every
        /// refinement splits fragments to keep the partition horizontal.
        overlapping: bool,
        /// Refine partitions as the workload evolves; when false the initial
        /// partitioning is final (the `NR` baseline of §10.4).
        repartition: bool,
    },
}

impl PartitionPolicy {
    /// Does this policy materialize anything?
    pub fn materializes(&self) -> bool {
        !matches!(self, PartitionPolicy::NoMaterialization)
    }

    /// Does this policy partition views?
    pub fn partitions(&self) -> bool {
        matches!(
            self,
            PartitionPolicy::EquiDepth { .. } | PartitionPolicy::Progressive { .. }
        )
    }

    /// Does this policy refine partitions after creation?
    pub fn repartitions(&self) -> bool {
        matches!(
            self,
            PartitionPolicy::Progressive {
                repartition: true,
                ..
            }
        )
    }

    /// May fragments overlap?
    pub fn overlapping(&self) -> bool {
        matches!(
            self,
            PartitionPolicy::Progressive {
                overlapping: true,
                ..
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use deepsea_storage::FileId;
    use std::sync::Arc;

    fn stats_with_uses(uses: &[(LogicalTime, f64)]) -> ViewStats {
        let mut s = ViewStats::estimated(1000, 10.0);
        for &(t, v) in uses {
            s.record_use(t, v);
        }
        s
    }

    #[test]
    fn deepsea_accumulates_nectar_does_not() {
        let s = stats_with_uses(&[(1, 100.0), (2, 100.0), (3, 100.0)]);
        let tnow = 3;
        let ds = ValueModel::DeepSea { use_mle: true }.view_value(&s, tnow, 1000);
        let n = ValueModel::Nectar.view_value(&s, tnow, 1000);
        let np = ValueModel::NectarPlus.view_value(&s, tnow, 1000);
        assert!(ds > n, "DeepSea counts all three uses");
        assert!(np > n, "Nectar+ counts all three uses");
    }

    #[test]
    fn nectar_value_decays_with_idle_time() {
        let s = stats_with_uses(&[(10, 100.0)]);
        let soon = ValueModel::Nectar.view_value(&s, 11, 1000);
        let later = ValueModel::Nectar.view_value(&s, 100, 1000);
        assert!(soon > later);
    }

    #[test]
    fn deepsea_benefit_times_out_after_tmax() {
        let s = stats_with_uses(&[(10, 100.0)]);
        let b = ValueModel::DeepSea { use_mle: false }.view_benefit(&s, 200, 50);
        assert_eq!(b, 0.0);
        let b2 = ValueModel::NectarPlus.view_benefit(&s, 200, 50);
        assert!(b2 > 0.0, "Nectar+ never times out");
    }

    fn partition_with_hits() -> PartitionState {
        // Three fragments; the left one is hot, the other two cold.
        let mut p = PartitionState::new("a.k", Interval::new(0, 29));
        for (lo, hi) in [(0, 9), (10, 19), (20, 29)] {
            let f = Arc::make_mut(p.track(Interval::new(lo, hi), 100).0);
            f.file = Some(FileId(f.id.0));
        }
        for _ in 0..20 {
            p.frag_mut(crate::fragment::FragmentId(0))
                .unwrap()
                .stats
                .record_hit(10);
        }
        p
    }

    #[test]
    fn mle_gives_hot_neighbor_more_value_than_distant() {
        let p = partition_with_hits();
        let vals = ValueModel::DeepSea { use_mle: true }.fragment_values(&p, 300, 50.0, 10, 100);
        assert!(vals[0] > vals[1], "hot beats neighbor");
        assert!(
            vals[1] > vals[2],
            "neighbor of hot spot beats distant: {vals:?}"
        );
        assert!(vals[2] >= 0.0);
    }

    #[test]
    fn without_mle_cold_fragments_are_equal() {
        let p = partition_with_hits();
        let vals = ValueModel::DeepSea { use_mle: false }.fragment_values(&p, 300, 50.0, 10, 100);
        assert!(vals[0] > vals[1]);
        assert_eq!(vals[1], 0.0);
        assert_eq!(vals[2], 0.0, "no correlation smoothing without MLE");
    }

    #[test]
    fn nectar_fragments_ignore_correlation_and_accumulation() {
        let p = partition_with_hits();
        let n = ValueModel::Nectar.fragment_values(&p, 300, 50.0, 10, 100);
        let nplus = ValueModel::NectarPlus.fragment_values(&p, 300, 50.0, 10, 100);
        assert_eq!(n[1], 0.0);
        assert_eq!(n[2], 0.0);
        assert!(nplus[0] > n[0], "N+ accumulates the 20 hits");
    }

    #[test]
    fn adjusted_hits_reconstruct_fragment_values() {
        // The audit log derives a fragment's Φ breakdown from
        // `fragment_adjusted_hits`; that reconstruction must agree with the
        // values the selection policy actually ranks by.
        let p = partition_with_hits();
        for vm in [
            ValueModel::DeepSea { use_mle: true },
            ValueModel::DeepSea { use_mle: false },
        ] {
            let vals = vm.fragment_values(&p, 300, 50.0, 10, 100);
            let ha = vm.fragment_adjusted_hits(&p, 10, 100);
            assert_eq!(vals.len(), ha.len());
            for (i, f) in p.fragments.iter().enumerate() {
                let rebuilt = FragStats::phi_with_hits(ha[i], f.size, 300, 50.0);
                assert_eq!(vals[i], rebuilt, "{vm:?} fragment {i}");
            }
        }
    }

    #[test]
    fn empty_partition_values() {
        let p = PartitionState::new("a.k", Interval::new(0, 9));
        let vals = ValueModel::DeepSea { use_mle: true }.fragment_values(&p, 100, 1.0, 1, 10);
        assert!(vals.is_empty());
    }

    #[test]
    fn policy_flags() {
        assert!(!PartitionPolicy::NoMaterialization.materializes());
        assert!(PartitionPolicy::NoPartition.materializes());
        assert!(!PartitionPolicy::NoPartition.partitions());
        assert!(PartitionPolicy::EquiDepth { fragments: 6 }.partitions());
        assert!(!PartitionPolicy::EquiDepth { fragments: 6 }.repartitions());
        let ds = PartitionPolicy::Progressive {
            overlapping: true,
            repartition: true,
        };
        assert!(ds.partitions() && ds.repartitions() && ds.overlapping());
        let nr = PartitionPolicy::Progressive {
            overlapping: true,
            repartition: false,
        };
        assert!(!nr.repartitions());
    }
}
