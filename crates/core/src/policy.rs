//! Value models (selection strategies) and partitioning policies.
//!
//! The value model decides *what stays in the pool* (DeepSea's decayed Φ vs
//! the Nectar/Nectar+ baselines of §10.1); the partition policy decides *how
//! views are laid out* (progressive/overlapping vs equi-depth vs none). The
//! two axes are orthogonal, exactly as in the paper's experiments.

use std::borrow::Cow;

use deepsea_engine::catalog::Catalog;
use deepsea_engine::optimize::push_down_selections;
use deepsea_engine::plan::LogicalPlan;

use crate::mle::{adjusted_hits, fit_normal, FittedNormal};
use crate::registry::PartitionState;
use crate::stats::{FragStats, LogicalTime, PartitionHits, ViewStats, ViewUses};

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
    /// Value at `tnow` of a view with statistics `stats` and uses `uses`.
    pub fn view_value(
        &self,
        stats: &ViewStats,
        uses: &ViewUses,
        tnow: LogicalTime,
        tmax: LogicalTime,
    ) -> f64 {
        if stats.size == 0 {
            return 0.0;
        }
        let s = stats.size as f64;
        match self {
            ValueModel::DeepSea { .. } => stats.phi(uses, tnow, tmax),
            ValueModel::Nectar => {
                let dt = delta_t(uses.last_use(), tnow);
                stats.cost * uses.last_saving() / (s * dt)
            }
            ValueModel::NectarPlus => {
                let dt = delta_t(uses.last_use(), tnow);
                stats.cost * uses.undecayed_benefit() / (s * dt)
            }
        }
    }

    /// Benefit at `tnow` of a view with uses `uses` under this model's
    /// accounting — used for the §7.2 admission filter `COST(V) ≤ B(V, tnow)`.
    pub fn view_benefit(&self, uses: &ViewUses, tnow: LogicalTime, tmax: LogicalTime) -> f64 {
        match self {
            ValueModel::DeepSea { .. } => uses.benefit(tnow, tmax),
            ValueModel::Nectar => uses.last_saving(),
            ValueModel::NectarPlus => uses.undecayed_benefit(),
        }
    }

    /// Values for every fragment of a partition at `tnow`, keyed by position
    /// in `partition.fragments`, with the adjusted hits each was weighed by
    /// and the MLE fit they went through, so that one pass over the hit
    /// lists per partition and commit serves the ranking and the audit log;
    /// `hits` are the partition's statistics.
    ///
    /// For `DeepSea { use_mle: true }` the decayed hits of the whole
    /// partition are first smoothed through the MLE normal fit and each
    /// fragment is revalued by its adjusted hits `HA(I)` — this is the
    /// mechanism that keeps cold neighbors of hot spots alive (Figure 8).
    pub fn value_fragments(
        &self,
        partition: &PartitionState,
        hits: PartitionHits,
        view_size: u64,
        view_cost: f64,
        tnow: LogicalTime,
        tmax: LogicalTime,
    ) -> PartitionValues {
        let (adjusted_hits, fit) = self.adjusted_hits_and_fit(partition, hits, tnow, tmax);
        let values = partition
            .fragments()
            .iter()
            .zip(&adjusted_hits)
            .map(|(f, &ha)| match self {
                ValueModel::DeepSea { .. } => {
                    FragStats::phi_with_hits(ha, f.size, view_size, view_cost)
                }
                ValueModel::Nectar | ValueModel::NectarPlus => {
                    if f.size == 0 || view_size == 0 {
                        return 0.0;
                    }
                    let dt = delta_t(hits.of(f.id).last_hit(), tnow);
                    let per_hit = (f.size as f64 / view_size as f64) * view_cost;
                    view_cost * (per_hit * ha) / (f.size as f64 * dt)
                }
            })
            .collect();
        PartitionValues {
            values,
            adjusted_hits,
            fit,
        }
    }

    /// The per-fragment hit counts `HA(I)` this model weighs benefit by —
    /// MLE-adjusted where the fit is active, decayed hits otherwise. Nectar
    /// counts only the most recent hit (1 iff ever hit); Nectar+ accumulates
    /// raw hits, undecayed.
    fn adjusted_hits_and_fit(
        &self,
        partition: &PartitionState,
        hits: PartitionHits,
        tnow: LogicalTime,
        tmax: LogicalTime,
    ) -> (Vec<f64>, Option<PartitionFit>) {
        match self {
            ValueModel::DeepSea { use_mle } => {
                let (decayed_hits, fit) =
                    decayed_hits_and_fit(partition, hits, *use_mle, tnow, tmax);
                let ha = match &fit {
                    Some(fit) => partition
                        .fragments()
                        .iter()
                        .map(|f| adjusted_hits(fit.total_hits, &fit.normal, &f.interval))
                        .collect(),
                    None => decayed_hits,
                };
                (ha, fit)
            }
            ValueModel::Nectar | ValueModel::NectarPlus => {
                let ha = partition.fragments().iter().map(|f| {
                    let raw = hits.of(f.id).raw_hits();
                    match self {
                        ValueModel::Nectar if raw > 0 => 1.0,
                        ValueModel::Nectar => 0.0,
                        _ => raw as f64,
                    }
                });
                (ha.collect(), None)
            }
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
    /// `HA(I)` per fragment, the hits each value was weighed by.
    pub adjusted_hits: Vec<f64>,
    /// The MLE fit the values were smoothed through, when one was active.
    pub fit: Option<PartitionFit>,
}

/// `H(I)` for every fragment of a partition, and the MLE fit over them when
/// the model smooths and the hits carry a signal.
fn decayed_hits_and_fit(
    partition: &PartitionState,
    hits: PartitionHits,
    use_mle: bool,
    tnow: LogicalTime,
    tmax: LogicalTime,
) -> (Vec<f64>, Option<PartitionFit>) {
    let weighted: Vec<_> = partition
        .fragments()
        .iter()
        .map(|f| (f.interval, hits.of(f.id).decayed_hits(tnow, tmax)))
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

    /// The plan this policy executes for `plan`, on the writer and on every
    /// snapshot reader alike. A policy that materializes runs `plan` as it
    /// is: its selections stay above joins, so the joins remain view
    /// candidates. The Hive baseline pushes selections down, as "most
    /// optimizers" do (§10.2).
    pub fn executed_plan<'p>(
        &self,
        plan: &'p LogicalPlan,
        catalog: &Catalog,
    ) -> Cow<'p, LogicalPlan> {
        match self.materializes() {
            true => Cow::Borrowed(plan),
            false => Cow::Owned(push_down_selections(plan, catalog)),
        }
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

    fn uses(uses: &[(LogicalTime, f64)]) -> ViewUses {
        let mut u = ViewUses::default();
        for &(t, v) in uses {
            u.record_use(t, v);
        }
        u
    }

    #[test]
    fn deepsea_accumulates_nectar_does_not() {
        let s = ViewStats::estimated(1000, 10.0);
        let u = uses(&[(1, 100.0), (2, 100.0), (3, 100.0)]);
        let tnow = 3;
        let ds = ValueModel::DeepSea { use_mle: true }.view_value(&s, &u, tnow, 1000);
        let n = ValueModel::Nectar.view_value(&s, &u, tnow, 1000);
        let np = ValueModel::NectarPlus.view_value(&s, &u, tnow, 1000);
        assert!(ds > n, "DeepSea counts all three uses");
        assert!(np > n, "Nectar+ counts all three uses");
    }

    #[test]
    fn nectar_value_decays_with_idle_time() {
        let s = ViewStats::estimated(1000, 10.0);
        let u = uses(&[(10, 100.0)]);
        let soon = ValueModel::Nectar.view_value(&s, &u, 11, 1000);
        let later = ValueModel::Nectar.view_value(&s, &u, 100, 1000);
        assert!(soon > later);
    }

    #[test]
    fn deepsea_benefit_times_out_after_tmax() {
        let u = uses(&[(10, 100.0)]);
        let b = ValueModel::DeepSea { use_mle: false }.view_benefit(&u, 200, 50);
        assert_eq!(b, 0.0);
        let b2 = ValueModel::NectarPlus.view_benefit(&u, 200, 50);
        assert!(b2 > 0.0, "Nectar+ never times out");
    }

    /// Three fragments and their hits by slot; the left one is hot, the
    /// other two cold.
    fn partition_with_hits() -> (PartitionState, Vec<FragStats>) {
        let mut p = PartitionState::new("a.k", Interval::new(0, 29));
        for (file, (lo, hi)) in [(0, 9), (10, 19), (20, 29)].into_iter().enumerate() {
            p.materialize(Interval::new(lo, hi), FileId(file as u64), 100);
        }
        let mut hits = vec![FragStats::default(); 3];
        for _ in 0..20 {
            hits[0].record_hit(10);
        }
        (p, hits)
    }

    #[test]
    fn mle_gives_hot_neighbor_more_value_than_distant() {
        let (p, hits) = partition_with_hits();
        let hits = PartitionHits::new(&hits);
        let vals = ValueModel::DeepSea { use_mle: true }
            .value_fragments(&p, hits, 300, 50.0, 10, 100)
            .values;
        assert!(vals[0] > vals[1], "hot beats neighbor");
        assert!(
            vals[1] > vals[2],
            "neighbor of hot spot beats distant: {vals:?}"
        );
        assert!(vals[2] >= 0.0);
    }

    #[test]
    fn without_mle_cold_fragments_are_equal() {
        let (p, hits) = partition_with_hits();
        let hits = PartitionHits::new(&hits);
        let vals = ValueModel::DeepSea { use_mle: false }
            .value_fragments(&p, hits, 300, 50.0, 10, 100)
            .values;
        assert!(vals[0] > vals[1]);
        assert_eq!(vals[1], 0.0);
        assert_eq!(vals[2], 0.0, "no correlation smoothing without MLE");
    }

    #[test]
    fn nectar_fragments_ignore_correlation_and_accumulation() {
        let (p, hits) = partition_with_hits();
        let hits = PartitionHits::new(&hits);
        let n = ValueModel::Nectar
            .value_fragments(&p, hits, 300, 50.0, 10, 100)
            .values;
        let nplus = ValueModel::NectarPlus
            .value_fragments(&p, hits, 300, 50.0, 10, 100)
            .values;
        assert_eq!(n[1], 0.0);
        assert_eq!(n[2], 0.0);
        assert!(nplus[0] > n[0], "N+ accumulates the 20 hits");
    }

    #[test]
    fn adjusted_hits_reconstruct_fragment_values() {
        // The audit log reads a fragment's Φ breakdown off the adjusted hits
        // `value_fragments` weighed it by; that reconstruction must agree
        // with the values the selection policy actually ranks by.
        let (p, hits) = partition_with_hits();
        let hits = PartitionHits::new(&hits);
        for vm in [
            ValueModel::DeepSea { use_mle: true },
            ValueModel::DeepSea { use_mle: false },
            ValueModel::Nectar,
            ValueModel::NectarPlus,
        ] {
            let valued = vm.value_fragments(&p, hits, 300, 50.0, 10, 100);
            let (vals, ha) = (&valued.values, &valued.adjusted_hits);
            assert_eq!(vals.len(), ha.len());
            for (i, f) in p.fragments().iter().enumerate() {
                let benefit = (f.size as f64 / 300.0) * 50.0 * ha[i];
                let rebuilt = match vm {
                    ValueModel::DeepSea { .. } => 50.0 * benefit / f.size as f64,
                    _ => {
                        let dt = delta_t(hits.of(f.id).last_hit(), 10);
                        50.0 * benefit / (f.size as f64 * dt)
                    }
                };
                assert_eq!(vals[i].to_bits(), rebuilt.to_bits(), "{vm:?} fragment {i}");
            }
        }
        let ha = |vm: ValueModel| {
            vm.value_fragments(&p, hits, 300, 50.0, 10, 100)
                .adjusted_hits
        };
        assert_eq!(ha(ValueModel::Nectar), [1.0, 0.0, 0.0], "only the last hit");
        assert_eq!(
            ha(ValueModel::NectarPlus),
            [20.0, 0.0, 0.0],
            "raw, undecayed"
        );
    }

    #[test]
    fn empty_partition_values() {
        let p = PartitionState::new("a.k", Interval::new(0, 9));
        let valued = ValueModel::DeepSea { use_mle: true }.value_fragments(
            &p,
            PartitionHits::default(),
            100,
            1.0,
            1,
            10,
        );
        assert!(valued.values.is_empty() && valued.adjusted_hits.is_empty());
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
