//! End-to-end tests of the staged query-lifecycle pipeline.

use super::context::QueryContext;
use super::*;
use crate::interval::Interval;
use crate::policy::{PartitionPolicy, ValueModel};
use deepsea_engine::exec::ExecError;
use deepsea_engine::plan::AggExpr;
use deepsea_engine::plan::LogicalPlan;
use deepsea_relation::generate::{ColumnGen, TableGen};
use deepsea_relation::{DataType, Field, Predicate, Schema};

/// A small star schema: fact(k ∈ [0,999], v) ⋈ dim(k, label).
fn catalog(rows: usize) -> Catalog {
    let mut c = Catalog::new();
    let fact = TableGen::new(
        Schema::new(vec![
            Field::new("fact.k", DataType::Int),
            Field::new("fact.v", DataType::Float),
        ]),
        vec![
            ColumnGen::UniformInt { low: 0, high: 999 },
            ColumnGen::UniformFloat {
                low: 0.0,
                high: 100.0,
            },
        ],
        // Simulated bytes per row: rows=2000 → ~40GB, i.e. cluster-scale
        // data where fragment-level savings clear the fixed MapReduce
        // stage overheads.
        20_000_000,
        42,
    )
    .generate(rows);
    let dim = TableGen::new(
        Schema::new(vec![
            Field::new("dim.k", DataType::Int),
            Field::new("dim.label", DataType::Str),
        ]),
        vec![
            ColumnGen::Serial { start: 0 },
            ColumnGen::Label {
                prefix: "l",
                card: 10,
            },
        ],
        10_000,
        43,
    )
    .generate(1000);
    c.register("fact", fact);
    c.register("dim", dim);
    c
}

fn query(lo: i64, hi: i64) -> LogicalPlan {
    LogicalPlan::scan("fact")
        .join(LogicalPlan::scan("dim"), vec![("fact.k", "dim.k")])
        .select(Predicate::range("fact.k", lo, hi))
        .aggregate(vec!["dim.label"], vec![AggExpr::count("cnt")])
}

fn ds(config: DeepSeaConfig) -> DeepSea {
    DeepSea::new(catalog(2000), config)
}

/// The first view with a materialized partition (the join view, in these
/// tests — the aggregate view is materialized whole).
fn partitioned_view(d: &DeepSea) -> &crate::registry::ViewMeta {
    d.registry()
        .iter()
        .find(|v| v.partitions.values().any(|p| p.any_materialized()))
        .expect("a partitioned view exists")
}

#[test]
fn hive_baseline_never_materializes() {
    let mut d = ds(DeepSeaConfig::default().with_policy(PartitionPolicy::NoMaterialization));
    for i in 0..3 {
        let out = d.process_query(&query(i * 10, i * 10 + 50)).unwrap();
        assert!(out.materialized.is_empty());
        assert!(out.used_view.is_none());
        assert_eq!(out.creation_secs, 0.0);
    }
    assert_eq!(d.pool_bytes(), 0);
    assert_eq!(d.registry().len(), 0);
}

#[test]
fn np_materializes_whole_view_and_reuses_it() {
    let mut d = ds(DeepSeaConfig::default().with_policy(PartitionPolicy::NoPartition));
    let out1 = d.process_query(&query(100, 150)).unwrap();
    assert!(
        !out1.materialized.is_empty(),
        "first query materializes: {out1:?}"
    );
    assert!(d.pool_bytes() > 0);
    // Distinct ranges so only logical (not exact) matching can help.
    let mut reused = false;
    let mut reuse_secs = f64::MAX;
    for i in 0..6 {
        let out = d.process_query(&query(200 + i, 260 + i)).unwrap();
        if out.used_view.is_some() {
            reused = true;
            reuse_secs = reuse_secs.min(out.query_secs);
        }
    }
    assert!(reused, "later queries reuse the whole view");
    assert!(
        reuse_secs < out1.query_secs,
        "reuse must be faster: {reuse_secs} vs {}",
        out1.query_secs
    );
}

#[test]
fn rewritten_results_match_hive_results() {
    let mut d_ds = ds(DeepSeaConfig::default());
    let mut d_h = ds(DeepSeaConfig::default().with_policy(PartitionPolicy::NoMaterialization));
    for (lo, hi) in [(100, 200), (120, 180), (150, 420), (0, 999), (130, 170)] {
        let q = query(lo, hi);
        let a = d_ds.process_query(&q).unwrap();
        let b = d_h.process_query(&q).unwrap();
        assert_eq!(
            a.result.fingerprint(),
            b.result.fingerprint(),
            "range [{lo},{hi}] must return identical results"
        );
    }
}

#[test]
fn deepsea_creates_partitioned_view_with_query_boundaries() {
    let mut d = ds(DeepSeaConfig::default().with_min_fragment_bytes(1));
    let out = d.process_query(&query(400, 600)).unwrap();
    assert!(
        out.materialized.len() >= 2,
        "partitioned into fragments: {out:?}"
    );
    // Find the join view and its partition.
    let view = partitioned_view(&d);
    let ps = view
        .partitions
        .values()
        .find(|p| p.any_materialized())
        .expect("partitioned");
    let mats = ps.materialized();
    assert!(mats.len() >= 3, "boundary partition has ≥3 fragments");
    let ivs: Vec<Interval> = mats.iter().map(|(_, iv)| *iv).collect();
    assert!(crate::interval::covers(&ivs, &ps.domain));
}

#[test]
fn partitioned_reuse_reads_less_than_whole_view() {
    let mut d = ds(DeepSeaConfig::default().with_min_fragment_bytes(1));
    d.process_query(&query(400, 600)).unwrap();
    // Narrow query inside the hot fragment.
    let out = d.process_query(&query(450, 550)).unwrap();
    assert!(out.used_view.is_some());
    let view = partitioned_view(&d);
    assert!(
        out.metrics.bytes_read < view.stats.size,
        "fragment read {} must be below whole view {}",
        out.metrics.bytes_read,
        view.stats.size
    );
}

#[test]
fn progressive_refinement_creates_new_fragments() {
    let mut d = ds(DeepSeaConfig::default()
        .with_min_fragment_bytes(1)
        .without_phi());
    d.process_query(&query(400, 600)).unwrap();
    // A query carving a sub-range of the cold left fragment [0,399]:
    // candidates [0,99],[100,200],[201,399] are generated; after enough
    // hits the refinement materializes.
    let mut refined = false;
    for _ in 0..20 {
        let out = d.process_query(&query(100, 200)).unwrap();
        if out.materialized.iter().any(|m| m.contains("[100, 200]")) {
            refined = true;
        }
    }
    assert!(refined, "repeated hits must refine the cold fragment");
    // And the refined fragment is then used.
    let out = d.process_query(&query(120, 180)).unwrap();
    assert!(out.used_view.is_some());
}

#[test]
fn no_repartition_policy_never_refines() {
    let cfg = DeepSeaConfig::default()
        .with_policy(PartitionPolicy::Progressive {
            overlapping: true,
            repartition: false,
        })
        .with_min_fragment_bytes(1);
    let mut d = ds(cfg);
    d.process_query(&query(400, 600)).unwrap();
    let frag_count = |d: &DeepSea| {
        d.registry()
            .iter()
            .flat_map(|v| v.partitions.values())
            .map(|p| p.materialized().len())
            .sum::<usize>()
    };
    let initial = frag_count(&d);
    for _ in 0..10 {
        d.process_query(&query(100, 200)).unwrap();
    }
    assert_eq!(frag_count(&d), initial, "NR must not add fragments");
}

#[test]
fn equi_depth_policy_creates_k_fragments() {
    let cfg = DeepSeaConfig::default()
        .with_policy(PartitionPolicy::EquiDepth { fragments: 6 })
        .with_min_fragment_bytes(1);
    let mut d = ds(cfg);
    d.process_query(&query(400, 600)).unwrap();
    let view = partitioned_view(&d);
    let ps = view
        .partitions
        .values()
        .find(|p| p.any_materialized())
        .expect("partitioned");
    assert_eq!(ps.materialized().len(), 6);
}

#[test]
fn pool_limit_is_respected() {
    // Tiny pool: force eviction churn but never exceed the limit.
    let smax = 60_000_000_000; // far below the ~80GB of candidate views
    let cfg = DeepSeaConfig::default()
        .with_smax(smax)
        .with_min_fragment_bytes(1);
    let mut d = ds(cfg);
    for i in 0..6 {
        let lo = (i * 150) % 800;
        d.process_query(&query(lo, lo + 100)).unwrap();
        assert!(
            d.pool_bytes() <= smax,
            "pool {} exceeds Smax {smax}",
            d.pool_bytes()
        );
    }
}

#[test]
fn eviction_reports_names() {
    let cfg = DeepSeaConfig::default()
        .with_smax(1) // pathological: nothing fits
        .with_min_fragment_bytes(1);
    let mut d = ds(cfg);
    let out = d.process_query(&query(400, 600)).unwrap();
    // Nothing can be admitted into a 1-byte pool...
    assert_eq!(d.pool_bytes(), 0, "{out:?}");
}

#[test]
fn overlapping_mode_keeps_big_fragment() {
    // φ disabled so a large cold fragment survives initial partitioning.
    let cfg = DeepSeaConfig::default()
        .with_min_fragment_bytes(1)
        .without_phi();
    let mut d = ds(cfg);
    d.process_query(&query(400, 600)).unwrap();
    for _ in 0..20 {
        d.process_query(&query(100, 200)).unwrap();
    }
    let view = partitioned_view(&d);
    let ps = view
        .partitions
        .values()
        .find(|p| p.any_materialized())
        .unwrap();
    let mats: Vec<Interval> = ps.materialized().iter().map(|(_, iv)| *iv).collect();
    // The original [0,399] fragment must still be materialized alongside
    // the refined [100,200] — overlap allowed.
    let has_big = mats
        .iter()
        .any(|iv| iv.contains(&Interval::new(100, 200)) && iv.width() > 101);
    let has_small = mats.iter().any(|iv| *iv == Interval::new(100, 200));
    assert!(has_small, "refined fragment exists: {mats:?}");
    assert!(has_big, "big fragment kept in overlapping mode: {mats:?}");
}

#[test]
fn horizontal_mode_splits_big_fragment() {
    let cfg = DeepSeaConfig::default()
        .with_policy(PartitionPolicy::Progressive {
            overlapping: false,
            repartition: true,
        })
        .with_min_fragment_bytes(1)
        .without_phi();
    let mut d = ds(cfg);
    d.process_query(&query(400, 600)).unwrap();
    for _ in 0..20 {
        d.process_query(&query(100, 200)).unwrap();
    }
    let view = partitioned_view(&d);
    let ps = view
        .partitions
        .values()
        .find(|p| p.any_materialized())
        .unwrap();
    let mats: Vec<Interval> = ps.materialized().iter().map(|(_, iv)| *iv).collect();
    assert!(
        crate::interval::pairwise_disjoint(&mats),
        "horizontal partitioning must stay disjoint: {mats:?}"
    );
    assert!(crate::interval::covers(&mats, &ps.domain));
}

#[test]
fn nectar_value_model_runs_end_to_end() {
    let cfg = DeepSeaConfig::default()
        .with_value_model(ValueModel::Nectar)
        .with_min_fragment_bytes(1)
        .with_smax(4_000_000_000);
    let mut d = ds(cfg);
    for i in 0..5 {
        let lo = (i * 100) % 700;
        let out = d.process_query(&query(lo, lo + 80)).unwrap();
        assert!(out.elapsed_secs > 0.0);
    }
}

#[test]
fn clock_advances_per_query() {
    let mut d = ds(DeepSeaConfig::default());
    assert_eq!(d.clock(), 0);
    d.process_query(&query(0, 10)).unwrap();
    d.process_query(&query(0, 10)).unwrap();
    assert_eq!(d.clock(), 2);
}

#[test]
fn trace_reflects_pipeline_activity() {
    let mut d = ds(DeepSeaConfig::default().with_min_fragment_bytes(1));
    // First query: no views exist yet, so no matches — but candidates are
    // derived, selected and materialized.
    let first = d.process_query(&query(400, 600)).unwrap();
    let t = first.trace;
    assert!(t.matching.roots > 0, "query exposes match roots");
    assert_eq!(t.matching.hits, 0, "empty registry yields no hits");
    assert!(t.candidates.view_candidates > 0);
    assert_eq!(
        t.candidates.new_views as usize,
        d.registry().len(),
        "every candidate was new on the first query"
    );
    assert!(t.selection.considered > 0);
    // One planned WholeView creation can expand into many written fragments.
    assert!(t.selection.planned_creations > 0);
    assert!(!first.materialized.is_empty());
    assert!(t.execution.query_secs > 0.0);
    assert!(t.materialization.bytes_written > 0);
    assert!(t.materialization.files_written >= first.materialized.len() as u64);
    assert_eq!(t.materialization.creation_secs, first.creation_secs);

    // Second query over the same range: matching now finds the views.
    let second = d.process_query(&query(450, 550)).unwrap();
    let t2 = second.trace;
    assert!(t2.matching.hits > 0, "registered views now match");
    assert!(t2.matching.materialized_hits > 0);
    assert!(t2.matching.views_updated > 0);
    assert!(t2.rewriting.rewrites_costed > 0);
    assert!(
        t2.rewriting.best_cost_secs <= t2.rewriting.base_cost_secs,
        "chosen plan is never costlier than the base plan"
    );
}

#[test]
fn trace_records_evictions_under_pressure() {
    let cfg = DeepSeaConfig::default()
        .with_smax(5_000_000_000)
        .with_min_fragment_bytes(1);
    let mut d = ds(cfg);
    let mut selected = 0u64;
    let mut forced = 0u64;
    let mut evicted_total = 0usize;
    for i in 0..12 {
        let lo = (i * 150) % 800;
        let out = d.process_query(&query(lo, lo + 100)).unwrap();
        selected += out.trace.eviction.selected;
        forced += out.trace.eviction.limit_forced;
        evicted_total += out.evicted.len();
    }
    assert_eq!((selected + forced) as usize, evicted_total);
    assert!(evicted_total > 0, "pool pressure must trigger evictions");
}

#[test]
fn baseline_trace_is_execution_only() {
    let mut d = ds(DeepSeaConfig::default().with_policy(PartitionPolicy::NoMaterialization));
    let out = d.process_query(&query(0, 100)).unwrap();
    let t = out.trace;
    assert!(t.execution.query_secs > 0.0);
    assert_eq!(t.matching, MatchingTrace::default());
    assert_eq!(t.candidates, CandidatesTrace::default());
    assert_eq!(t.selection, SelectionTrace::default());
    assert_eq!(t.materialization, MaterializationTrace::default());
    assert_eq!(t.eviction, EvictionTrace::default());
}

/// The read path records the recovery slice it promises: a snapshot read
/// that absorbed transient retries reports them in its trace, exactly as the
/// commit path does.
#[test]
fn snapshot_reads_report_their_retries_in_the_recovery_trace() {
    use deepsea_engine::{RetryPolicy, RetryingBackend};
    use deepsea_storage::{FaultConfig, FaultInjector};

    let cluster = ClusterSim::paper_default();
    let fs = Arc::new(SimFs::with_faults(
        BlockConfig::default(),
        cluster.weights,
        FaultInjector::new(FaultConfig::seeded(7).with_transient_reads(0.2)),
    ));
    let policy = RetryPolicy::default();
    let backend = Box::new(RetryingBackend::new(SimBackend::new(cluster), policy));
    let config = DeepSeaConfig::default()
        .with_min_fragment_bytes(1)
        .with_retry(policy);
    let mut d = DeepSea::with_backend(Arc::new(catalog(2000)), fs, backend, config);
    d.process_query(&query(400, 600)).unwrap();
    d.process_query(&query(450, 550)).unwrap();

    let snapshot = d.publish_snapshot().expect("the retrying backend forks");
    let (mut retried, mut view_reads) = (0, 0);
    for _ in 0..20 {
        let a = snapshot.answer(&query(450, 550)).unwrap();
        assert_eq!(a.trace.recovery.retries, a.metrics.retries);
        assert_eq!(
            a.trace.recovery.penalty_secs.to_bits(),
            a.metrics.penalty_secs.to_bits()
        );
        retried += a.metrics.retries;
        view_reads += u64::from(a.used_view.is_some());
    }
    assert!(view_reads > 0, "precondition: the reads go through a view");
    assert!(retried > 0, "precondition: the schedule made a read retry");
}

/// Every file currently backing a materialized view or fragment.
fn all_view_files(d: &DeepSea) -> Vec<deepsea_storage::FileId> {
    d.registry()
        .iter()
        .flat_map(|v| {
            v.whole_file.into_iter().chain(
                v.partitions
                    .values()
                    .flat_map(|p| p.fragments.iter().filter_map(|f| f.file)),
            )
        })
        .collect()
}

#[test]
fn lost_fragments_fall_back_to_base_tables_and_quarantine() {
    let mut d = ds(DeepSeaConfig::default().with_min_fragment_bytes(1));
    let mut hive = ds(DeepSeaConfig::default().with_policy(PartitionPolicy::NoMaterialization));
    d.process_query(&query(400, 600)).unwrap();
    let reused = d.process_query(&query(450, 550)).unwrap();
    assert!(reused.used_view.is_some(), "precondition: rewriting in use");

    // Lose every materialized file behind the driver's back — no injector
    // needed; this is the permanent-loss end state.
    for f in all_view_files(&d) {
        d.fs().delete(f);
    }

    let out = d.process_query(&query(450, 550)).unwrap();
    let want = hive.process_query(&query(450, 550)).unwrap();
    assert_eq!(
        out.result.fingerprint(),
        want.result.fingerprint(),
        "fallback must still answer the query correctly"
    );
    assert!(
        out.used_view.is_none(),
        "the broken rewriting was abandoned"
    );
    assert_eq!(out.trace.recovery.base_table_fallbacks, 1);
    assert!(out.trace.recovery.quarantined_views >= 1, "{out:?}");
    assert!(!out.quarantined.is_empty());
    for name in &out.quarantined {
        let vid = d.registry().by_name(name).expect("quarantined view exists");
        let view = d.registry().view(vid);
        assert!(view.is_quarantined());
        assert_eq!(view.pool_bytes(), 0, "quarantine released the pool bytes");
    }
}

#[test]
fn quarantined_views_rematerialize_when_hot() {
    let mut d = ds(DeepSeaConfig::default().with_min_fragment_bytes(1));
    d.process_query(&query(400, 600)).unwrap();
    d.process_query(&query(450, 550)).unwrap();
    for f in all_view_files(&d) {
        d.fs().delete(f);
    }
    let broken = d.process_query(&query(450, 550)).unwrap();
    assert!(broken.trace.recovery.quarantined_views >= 1, "{broken:?}");

    // The workload stays hot on the same shape: candidate registration
    // re-admits the quarantined view, selection re-materializes it, and the
    // rewriting comes back — no manual repair step.
    let mut rematerialized = false;
    let mut reused_again = false;
    for _ in 0..6 {
        let out = d.process_query(&query(450, 550)).unwrap();
        if broken
            .quarantined
            .iter()
            .any(|q| out.materialized.iter().any(|m| m.starts_with(q.as_str())))
        {
            rematerialized = true;
        }
        if out.used_view.is_some() {
            reused_again = true;
        }
    }
    assert!(rematerialized, "hot quarantined views must be rebuilt");
    assert!(reused_again, "rebuilt views must serve rewritings again");
}

#[test]
fn custom_backend_is_used_for_execution() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A SimBackend wrapper that counts executions — proves the driver goes
    /// through the trait object, not the free `execute` function.
    struct CountingBackend {
        inner: SimBackend,
        calls: Arc<AtomicUsize>,
    }

    impl ExecutionBackend for CountingBackend {
        fn execute(
            &self,
            plan: &LogicalPlan,
            catalog: &Catalog,
            fs: &SimFs<Table>,
        ) -> Result<(Table, ExecMetrics), ExecError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.inner.execute(plan, catalog, fs)
        }
        fn elapsed_secs(&self, metrics: &ExecMetrics) -> f64 {
            self.inner.elapsed_secs(metrics)
        }
        fn scan_secs(&self, bytes: u64, block_bytes: u64) -> f64 {
            self.inner.scan_secs(bytes, block_bytes)
        }
        fn write_secs(&self, bytes: u64, files: u64) -> f64 {
            self.inner.write_secs(bytes, files)
        }
        fn cluster(&self) -> &ClusterSim {
            self.inner.cluster()
        }
    }

    let cluster = ClusterSim::paper_default();
    let fs = Arc::new(SimFs::new(BlockConfig::default(), cluster.weights));
    let calls = Arc::new(AtomicUsize::new(0));
    let backend = Box::new(CountingBackend {
        inner: SimBackend::new(cluster),
        calls: Arc::clone(&calls),
    });
    let mut d = DeepSea::with_backend(
        Arc::new(catalog(2000)),
        fs,
        backend,
        DeepSeaConfig::default().with_min_fragment_bytes(1),
    );
    let out = d.process_query(&query(400, 600)).unwrap();
    assert!(!out.materialized.is_empty());
    // The first materializing query executes the chosen plan plus at least
    // one view computation — all through the trait object.
    assert!(
        calls.load(Ordering::SeqCst) >= 2,
        "driver must execute via the backend: {} calls",
        calls.load(Ordering::SeqCst)
    );
}

#[test]
fn forced_eviction_event_logs_the_policy_phi() {
    use crate::selection::RankedItem;
    use deepsea_obs::{DecisionEvent, ObsConfig};

    let obs = Observer::new(ObsConfig::on());
    let mut d = ds(DeepSeaConfig::default()).with_observer(obs.clone());
    for i in 0..8 {
        d.process_query(&query(i * 40, i * 40 + 100)).unwrap();
    }
    assert!(d.pool_bytes() > 0, "the pool holds something to evict");
    let tnow = d.clock();

    // Rank the pool exactly as stage 7 will: same ALLCAND, same tnow.
    let items: Vec<RankedItem> = d
        .ranked_allcand(tnow)
        .into_iter()
        .filter(|i| i.materialized)
        .collect();
    let expected = items
        .iter()
        .min_by(|a, b| a.phi.total_cmp(&b.phi))
        .cloned()
        .unwrap();
    let expected_desc = d.describe_item(&expected.kind);
    let expected_runner_up = items
        .iter()
        .filter(|i| i.kind != expected.kind)
        .min_by(|a, b| a.phi.total_cmp(&b.phi))
        .cloned();

    // Force the limit below current usage and enforce it.
    d.config.smax = Some(d.pool_bytes() - 1);
    let before = obs.events_snapshot().len();
    let mut ctx = QueryContext::new(&query(0, 10), tnow);
    d.stage_enforce_limit(&mut ctx);
    assert!(
        !ctx.evicted.is_empty(),
        "limit enforcement evicted something"
    );

    let events = obs.events_snapshot();
    let (victim, breakdown, runner_up, runner_up_phi, forced) = events[before..]
        .iter()
        .find_map(|r| match &r.event {
            DecisionEvent::Eviction {
                victim,
                breakdown,
                runner_up,
                runner_up_phi,
                forced,
            } => Some((
                victim.clone(),
                breakdown.clone(),
                runner_up.clone(),
                *runner_up_phi,
                *forced,
            )),
            _ => None,
        })
        .expect("the eviction logged an audit event");

    // The logged victim and Φ are exactly what the policy ranked by.
    assert_eq!(victim, expected_desc);
    assert_eq!(
        breakdown.phi.to_bits(),
        expected.phi.to_bits(),
        "logged Φ {} != policy Φ {}",
        breakdown.phi,
        expected.phi
    );
    assert!(forced, "stage-7 evictions are Smax-forced");
    assert_eq!(breakdown.size, expected.size);
    // The breakdown's components reconstruct Φ = COST·B/S.
    let rebuilt = breakdown.cost * breakdown.benefit / breakdown.size as f64;
    assert!(
        (breakdown.phi - rebuilt).abs() <= 1e-9 * rebuilt.abs().max(1e-12),
        "Φ {} != COST·B/S {} for {breakdown:?}",
        breakdown.phi,
        rebuilt
    );
    // Runner-up is the second-weakest item still in the pool.
    match expected_runner_up {
        Some(r) => {
            assert_eq!(
                runner_up.as_deref(),
                Some(d.describe_item(&r.kind).as_str())
            );
            assert_eq!(runner_up_phi.unwrap().to_bits(), r.phi.to_bits());
        }
        None => assert!(runner_up.is_none()),
    }
}

#[test]
fn every_eviction_produces_an_audit_event() {
    use deepsea_obs::{DecisionEvent, ObsConfig};

    let obs = Observer::new(ObsConfig::on());
    let mut d = ds(DeepSeaConfig::default().with_smax(5_000_000_000)).with_observer(obs.clone());
    let mut evicted_total = 0usize;
    for i in 0..20 {
        let out = d.process_query(&query(i * 30, i * 30 + 120)).unwrap();
        evicted_total += out.evicted.len();
    }
    assert!(evicted_total > 0, "pool pressure must trigger evictions");

    let events = obs.events_snapshot();
    let evictions: Vec<_> = events
        .iter()
        .filter_map(|r| match &r.event {
            DecisionEvent::Eviction {
                victim, breakdown, ..
            } => Some((victim, breakdown)),
            _ => None,
        })
        .collect();
    assert_eq!(
        evictions.len(),
        evicted_total,
        "one audit event per evicted item"
    );
    for (victim, b) in evictions {
        assert!(b.size > 0, "{victim}: victims were materialized");
        let rebuilt = b.cost * b.benefit / b.size as f64;
        assert!(
            (b.phi - rebuilt).abs() <= 1e-9 * rebuilt.abs().max(1e-12),
            "{victim}: Φ {} != COST·B/S {} ({b:?})",
            b.phi,
            rebuilt
        );
    }
}

#[test]
fn selection_verdicts_cover_every_allcand_item() {
    use deepsea_obs::{DecisionEvent, ObsConfig};

    let obs = Observer::new(ObsConfig::on());
    let mut d = ds(DeepSeaConfig::default()).with_observer(obs.clone());
    let mut considered_total = 0u64;
    for i in 0..6 {
        let out = d.process_query(&query(i * 50, i * 50 + 150)).unwrap();
        considered_total += out.trace.selection.considered;
    }
    let verdicts: Vec<&'static str> = obs
        .events_snapshot()
        .iter()
        .filter_map(|r| match &r.event {
            DecisionEvent::SelectionVerdict { verdict, .. } => Some(*verdict),
            _ => None,
        })
        .collect();
    assert_eq!(verdicts.len() as u64, considered_total);
    assert!(verdicts.contains(&"create"));
    for v in verdicts {
        assert!(matches!(v, "create" | "evict" | "keep" | "reject"));
    }
}

/// Cold-start replay skips a record naming a view the registry does not
/// know (`durability::tests::torn_records_for_unknown_views_are_skipped`: a
/// torn tail must never panic). On the live path the same record would leave
/// the journal and the registry disagreeing, so `commit` refuses it before
/// anything is journaled.
#[test]
fn commit_refuses_a_record_naming_an_unknown_view() {
    let journal = Arc::new(CatalogJournal::new());
    let mut d = ds(DeepSeaConfig::default()).with_journal(Arc::clone(&journal));
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        d.commit(CatalogRecord::ViewEvicted {
            view: "nope".into(),
        })
    }));
    let message = *refused
        .expect_err("commit must refuse")
        .downcast::<String>()
        .expect("an assert message");
    assert!(message.starts_with("invariant: "), "{message}");
    assert_eq!(journal.record_count(), 0, "nothing reached the journal");
}
