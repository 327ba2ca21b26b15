//! The pre-incremental `build_allcand`, kept verbatim as the reference the
//! demand-driven one is checked against, and the workloads that drive the
//! check. In this crate's unit tests every [`AllCand`] built — every commit
//! and every `enforce_limit` re-rank — is asserted equal to the reference's
//! `Vec<RankedItem>`: kind, size, `materialized` and order of every member,
//! Φ by bit pattern of every member the build valued, and then — with the
//! remaining partitions demanded — Φ of the rest, so a partition valued late
//! is proven equal to one valued eagerly. The reference evaluates every
//! candidate from scratch through the old `fragment_values` (also verbatim,
//! below), so it shares neither the per-partition scratch nor the rejection
//! memo with what it checks.

use std::collections::BTreeSet;

use crate::filter_tree::ViewId;
use crate::matching::partition_matching;
use crate::mle::{adjusted_hits, fit_normal};
use crate::policy::{delta_t, PartitionPolicy, ValueModel};
use crate::registry::PartitionState;
use crate::selection::{CandidateKind, RankedItem};
use crate::stats::{FragStats, LogicalTime};

use super::super::DeepSea;
use super::selection::AllCand;

impl DeepSea {
    /// Panic unless `all` is what the reference loop builds right now.
    pub(crate) fn assert_matches_reference(
        &self,
        new_cands: &[ViewId],
        tnow: LogicalTime,
        all: &mut AllCand,
    ) {
        let reference = self.reference_allcand(new_cands, tnow);
        let shape = |items: &[RankedItem]| -> Vec<(CandidateKind, u64, bool)> {
            items
                .iter()
                .map(|i| (i.kind.clone(), i.size, i.materialized))
                .collect()
        };
        let bits =
            |items: &[RankedItem]| -> Vec<u64> { items.iter().map(|i| i.phi.to_bits()).collect() };
        let early = all.valued();
        let items = all.items();
        assert_eq!(
            shape(&items),
            shape(&reference),
            "ALLCAND membership diverged from the reference at tnow = {tnow}"
        );
        for (i, phi) in early.iter().enumerate() {
            if let Some(phi) = phi {
                assert_eq!(
                    phi.to_bits(),
                    reference[i].phi.to_bits(),
                    "Φ of member {i} ({:?}), valued by the build, diverged from the \
                     reference at tnow = {tnow}",
                    reference[i].kind
                );
            }
        }
        assert_eq!(
            bits(&items),
            bits(&reference),
            "Φ valued on demand diverged from the reference at tnow = {tnow}"
        );
    }

    /// `ALLCAND` as the pre-incremental loop built it.
    pub(crate) fn reference_allcand(
        &self,
        new_cands: &[ViewId],
        tnow: LogicalTime,
    ) -> Vec<RankedItem> {
        let tmax = self.config.tmax;
        let vm = self.config.value_model;
        let mut items = Vec::new();
        let mut included: BTreeSet<ViewId> = BTreeSet::new();

        // Vsel: this query's unmaterialized view candidates passing COST ≤ B.
        for &vid in new_cands {
            if !included.insert(vid) {
                continue;
            }
            let view = self.registry.view(vid);
            if view.is_materialized() {
                continue;
            }
            let benefit = vm.view_benefit(&view.stats, tnow, tmax);
            if view.creation_overhead > benefit {
                continue;
            }
            // Under the progressive policy a new partitioned view's *initial
            // fragments* are admitted individually — "candidate views and
            // fragments are treated alike" (§7.3). A pool far smaller than
            // the view can still admit its hot fragments.
            let progressive = matches!(
                self.config.partition_policy,
                PartitionPolicy::Progressive { .. }
            );
            let hinted = view
                .partitions
                .values()
                .max_by_key(|p| (p.boundaries.len(), p.fragments.len()))
                .filter(|p| !p.fragments.is_empty());
            match hinted {
                Some(ps) if progressive => {
                    let values = reference_fragment_values(
                        vm,
                        ps,
                        view.stats.size,
                        view.stats.cost,
                        tnow,
                        tmax,
                    );
                    // Tracked candidates can overlap (pieces from different
                    // queries' splits); the initial materialization keeps a
                    // greedy Φ-ranked *disjoint* subset so the view is not
                    // written multiple times over.
                    let mut ranked: Vec<(&crate::fragment::FragmentMeta, f64)> =
                        ps.fragments.iter().map(|f| &**f).zip(values).collect();
                    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
                    let mut taken: Vec<crate::interval::Interval> = Vec::new();
                    for (frag, phi) in ranked {
                        if taken.iter().any(|iv| iv.overlaps(&frag.interval)) {
                            continue;
                        }
                        taken.push(frag.interval);
                        items.push(RankedItem {
                            kind: CandidateKind::Fragment(view.id, ps.attr.clone(), frag.id),
                            phi,
                            size: frag.size,
                            materialized: false,
                        });
                    }
                }
                _ => items.push(RankedItem {
                    kind: CandidateKind::WholeView(vid),
                    phi: vm.view_value(&view.stats, tnow, tmax),
                    size: view.stats.size,
                    materialized: false,
                }),
            }
        }

        for view in self.registry.iter() {
            // Materialized whole views partake (needed for NP-style pools).
            if view.whole_file.is_some() {
                items.push(RankedItem {
                    kind: CandidateKind::WholeView(view.id),
                    phi: vm.view_value(&view.stats, tnow, tmax),
                    size: view.stats.size,
                    materialized: true,
                });
            }
            for ps in view.partitions.values() {
                if !ps.any_materialized() {
                    continue;
                }
                let values =
                    reference_fragment_values(vm, ps, view.stats.size, view.stats.cost, tnow, tmax);
                for (frag, phi) in ps.fragments.iter().zip(values) {
                    if frag.is_materialized() {
                        items.push(RankedItem {
                            kind: CandidateKind::Fragment(view.id, ps.attr.clone(), frag.id),
                            phi,
                            size: frag.size,
                            materialized: true,
                        });
                    } else if self.config.partition_policy.repartitions() {
                        // Psel: refinement candidates passing COST(Icand) ≤ B(I)
                        // (§7.2 — only for partitions already in the pool).
                        // A candidate that is already covered nearly as
                        // cheaply by materialized fragments brings no marginal
                        // benefit — skip it (the cost-based refinement
                        // decision of §2).
                        let block = self.fs.block_config().block_bytes;
                        let mats = ps.materialized();
                        let cover_bytes = partition_matching(&frag.interval, &mats).map(|cover| {
                            cover
                                .iter()
                                .filter_map(|(id, _)| ps.frag(*id))
                                .map(|f| f.size)
                                .sum::<u64>()
                        });
                        if let Some(cb) = cover_bytes {
                            if cb <= frag.size.saturating_mul(5) / 4 {
                                continue;
                            }
                        }
                        // COST(Icand) = wwrite·S(Icand) + Σ wread·S(I), here at
                        // cluster-effective rates so the units match benefits.
                        let read_bytes: u64 = ps
                            .fragments
                            .iter()
                            .filter(|f| f.is_materialized() && f.interval.overlaps(&frag.interval))
                            .map(|f| f.size)
                            .sum();
                        let create_cost = if read_bytes == 0 {
                            // Nothing materialized overlaps: the fragment must
                            // be rebuilt by recomputing the view (§7.1: the
                            // fragment's cost is its view's creation cost).
                            view.stats.cost
                        } else {
                            self.backend
                                .write_secs(frag.size, frag.size.div_ceil(block).max(1))
                                + self.backend.scan_secs(read_bytes, block)
                        };
                        // Admission benefit: what each (decayed) hit actually
                        // saves over today's best access to this range — the
                        // cover read (or a full recompute when uncovered)
                        // versus reading just this fragment. A sharper proxy
                        // for B(I) than the size-share formula, which is kept
                        // for the eviction ranking Φ above.
                        let per_hit_saving = match cover_bytes {
                            Some(cb) => (self.backend.scan_secs(cb, block)
                                - self.backend.scan_secs(frag.size, block))
                            .max(0.0),
                            None => (view.stats.cost - self.backend.scan_secs(frag.size, block))
                                .max(0.0),
                        };
                        let benefit = per_hit_saving * frag.stats.decayed_hits(tnow, tmax);
                        if create_cost <= benefit {
                            items.push(RankedItem {
                                kind: CandidateKind::Fragment(view.id, ps.attr.clone(), frag.id),
                                phi,
                                size: frag.size,
                                materialized: false,
                            });
                        }
                    }
                }
            }
        }
        items
    }
}

/// `ValueModel::fragment_values` as it was before the valuation was split
/// into reusable intermediates.
fn reference_fragment_values(
    vm: ValueModel,
    partition: &PartitionState,
    view_size: u64,
    view_cost: f64,
    tnow: LogicalTime,
    tmax: LogicalTime,
) -> Vec<f64> {
    match vm {
        ValueModel::DeepSea { use_mle } => {
            if use_mle {
                let weighted: Vec<_> = partition
                    .fragments
                    .iter()
                    .map(|f| (f.interval, f.stats.decayed_hits(tnow, tmax)))
                    .collect();
                let total: f64 = weighted.iter().map(|(_, h)| h).sum();
                if let Some(fit) = fit_normal(&weighted) {
                    return partition
                        .fragments
                        .iter()
                        .map(|f| {
                            let ha = adjusted_hits(total, &fit, &f.interval);
                            FragStats::phi_with_hits(ha, f.size, view_size, view_cost)
                        })
                        .collect();
                }
            }
            partition
                .fragments
                .iter()
                .map(|f| f.stats.phi(f.size, view_size, view_cost, tnow, tmax))
                .collect()
        }
        ValueModel::Nectar | ValueModel::NectarPlus => partition
            .fragments
            .iter()
            .map(|f| {
                if f.size == 0 || view_size == 0 {
                    return 0.0;
                }
                let dt = delta_t(f.stats.last_hit(), tnow);
                let per_hit = (f.size as f64 / view_size as f64) * view_cost;
                let benefit = match vm {
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
            .collect(),
    }
}

mod workloads {
    use std::sync::Arc;

    use deepsea_engine::{
        Catalog, ClusterSim, LogicalPlan, RetryPolicy, RetryingBackend, SimBackend,
    };
    use deepsea_relation::Table;
    use deepsea_storage::{BlockConfig, FaultConfig, FaultInjector, SimFs};
    use deepsea_workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
    use deepsea_workload::sdss::sdss_like_histogram;
    use deepsea_workload::sequences::{fig5_workload, item_domain};

    use crate::baselines;
    use crate::config::DeepSeaConfig;
    use crate::driver::write_path::selection::AllCand;
    use crate::driver::{DeepSea, QueryOutcome};
    use crate::durability::CatalogJournal;
    use crate::filter_tree::ViewId;
    use crate::selection::CandidateKind;

    /// The 100 GB BigBench-like instance the wall-clock benchmark runs on.
    fn data(seed: u64) -> Arc<Catalog> {
        let (lo, hi) = item_domain();
        let dist = ItemDistribution::Histogram(sdss_like_histogram(lo, hi));
        Arc::new(BigBenchData::generate(InstanceSize::Gb100, &dist, seed).catalog)
    }

    /// The first `n` queries of the 600-query SDSS-shaped log.
    fn log(n: usize) -> Vec<LogicalPlan> {
        let mut plans = fig5_workload(600, 42);
        plans.truncate(n);
        plans
    }

    fn fresh_fs() -> Arc<SimFs<Table>> {
        let cluster = ClusterSim::paper_default();
        Arc::new(SimFs::new(BlockConfig::default(), cluster.weights))
    }

    fn driver(catalog: &Arc<Catalog>, fs: &Arc<SimFs<Table>>, config: DeepSeaConfig) -> DeepSea {
        DeepSea::with_parts(
            Arc::clone(catalog),
            Arc::clone(fs),
            ClusterSim::paper_default(),
            config,
        )
    }

    /// Commit `plans`; the reference check runs inside every one.
    fn replay(ds: &mut DeepSea, plans: &[LogicalPlan]) -> Vec<QueryOutcome> {
        plans
            .iter()
            .map(|p| ds.process_query(p).expect("fault-free commit"))
            .collect()
    }

    fn steady() -> DeepSeaConfig {
        baselines::deepsea().with_phi(0.05)
    }

    #[test]
    fn steady_log_matches_reference_on_three_instances() {
        let plans = log(600);
        for seed in [1, 2, 3] {
            let mut ds = driver(&data(seed), &fresh_fs(), steady());
            let outcomes = replay(&mut ds, &plans);
            let refinements: u64 = outcomes
                .iter()
                .map(|o| o.trace.materialization.fragments_covered)
                .sum();
            assert!(
                refinements > 0,
                "seed {seed}: no Psel candidate was admitted"
            );
            assert!(
                ds.psel_memo.len() > 100,
                "seed {seed}: the rejection memo was not exercised"
            );
            // The pool is unlimited: a re-rank asks for the Φ of what it
            // would create and of nothing else.
            let mut all = AllCand::build(
                &ds.registry,
                &mut ds.psel_memo,
                ds.backend.as_ref(),
                &ds.config,
                ds.fs.block_config().block_bytes,
                &[],
                ds.clock,
            );
            assert!(all.len() > 100 && all.fits(ds.config.smax));
            all.creations();
            let valued = all.valued();
            let items = all.items();
            let creates_in = |partition: (ViewId, &str)| {
                items.iter().any(|i| match &i.kind {
                    CandidateKind::Fragment(v, a, _) => {
                        (*v, a.as_str()) == partition && !i.materialized
                    }
                    CandidateKind::WholeView(_) => false,
                })
            };
            for (item, phi) in items.iter().zip(&valued) {
                if let CandidateKind::Fragment(view, attr, _) = &item.kind {
                    assert_eq!(phi.is_some(), creates_in((*view, attr)), "{item:?}");
                }
            }
            assert!(
                valued.iter().filter(|phi| phi.is_none()).count() > 100,
                "seed {seed}: nothing was left unvalued"
            );
        }
    }

    #[test]
    fn churn_log_with_journal_and_merges_matches_reference() {
        let plans = log(600);
        for seed in [1, 2, 3] {
            let catalog = data(seed);
            let config = steady().with_smax(catalog.total_base_bytes() / 40);
            let mut ds =
                driver(&catalog, &fresh_fs(), config).with_journal(Arc::new(CatalogJournal::new()));
            let (mut evicted, mut forced, mut merged) = (0, 0, 0);
            for chunk in plans.chunks(50) {
                for o in replay(&mut ds, chunk) {
                    evicted += o.trace.eviction.selected;
                    forced += o.trace.eviction.limit_forced;
                }
                // Merges rewrite the materialized layout behind the memo.
                let (_, merges) = ds
                    .merge_cohit_fragments(0.5, 0.5)
                    .expect("fault-free merge");
                merged += merges.len();
            }
            assert!(evicted > 0, "seed {seed}: selection evicted nothing");
            assert!(forced > 0, "seed {seed}: the limit forced no eviction");
            assert!(merged > 0, "seed {seed}: nothing was merged");
        }
    }

    #[test]
    fn other_policies_match_reference() {
        let plans = log(150);
        let catalog = data(1);
        for config in [
            baselines::no_repartitioning(),
            baselines::horizontal_only(),
            baselines::equi_depth(6),
            baselines::nectar_plus(),
        ] {
            let smax = catalog.total_base_bytes() / 10;
            let mut ds = driver(&catalog, &fresh_fs(), config.with_smax(smax));
            let outcomes = replay(&mut ds, &plans);
            assert!(
                outcomes.iter().any(|o| !o.materialized.is_empty()),
                "{config:?} materialized nothing"
            );
        }
    }

    #[test]
    fn chaos_schedule_with_quarantine_and_readmission_matches_reference() {
        let plans = log(150);
        let catalog = data(1);
        let cluster = ClusterSim::paper_default();
        let faults = FaultConfig::seeded(7)
            .with_transient_reads(0.12)
            .with_permanent_loss(0.05)
            .with_transient_writes(0.05)
            .with_latency_spikes(0.05, 2.0);
        let fs = Arc::new(SimFs::with_faults(
            BlockConfig::default(),
            cluster.weights,
            FaultInjector::new(faults),
        ));
        let policy = RetryPolicy::default();
        let backend = Box::new(RetryingBackend::new(SimBackend::new(cluster), policy));
        let mut ds = DeepSea::with_backend(catalog, fs, backend, steady().with_retry(policy));
        let mut quarantined: Vec<String> = Vec::new();
        let mut readmitted = false;
        for o in replay(&mut ds, &plans) {
            readmitted |= o.materialized.iter().any(|m| {
                quarantined
                    .iter()
                    .any(|q| m == q || m.starts_with(&format!("{q}.")))
            });
            quarantined.extend(o.quarantined);
        }
        assert!(!quarantined.is_empty(), "the schedule quarantined no view");
        assert!(readmitted, "no quarantined view was materialized again");
    }

    /// A crash loses the memo, never a decision: the recovered instance has
    /// the live catalog, an empty memo, and commits on exactly like a twin
    /// that never crashed.
    #[test]
    fn recovery_starts_with_an_empty_memo_and_rejoins_its_twin() {
        let plans = log(120);
        let catalog = data(1);
        let config = steady().with_smax(catalog.total_base_bytes() / 40);
        let run = |crash: bool| {
            let fs = fresh_fs();
            let journal = Arc::new(CatalogJournal::new());
            let mut ds = driver(&catalog, &fs, config).with_journal(Arc::clone(&journal));
            // 100 is a statistics checkpoint, so the journal holds all of it.
            replay(&mut ds, &plans[..100]);
            assert!(ds.psel_memo.len() > 0, "nothing to lose");
            if crash {
                let digest = ds.registry().state_digest();
                let backend = Box::new(SimBackend::new(ClusterSim::paper_default()));
                let (recovered, _) =
                    DeepSea::recover(Arc::clone(&catalog), fs, backend, config, journal);
                assert_eq!(recovered.registry().state_digest(), digest);
                assert_eq!(recovered.psel_memo.len(), 0);
                ds = recovered;
            }
            let tail: Vec<(u64, Vec<String>, u64)> = plans[100..]
                .iter()
                .map(|p| {
                    let o = ds.process_query(p).expect("fault-free commit");
                    (
                        o.elapsed_secs.to_bits(),
                        o.result.fingerprint(),
                        ds.registry().state_digest(),
                    )
                })
                .collect();
            tail
        };
        assert_eq!(run(true), run(false));
    }
}
