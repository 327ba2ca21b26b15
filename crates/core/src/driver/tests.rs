//! End-to-end tests of the staged query-lifecycle pipeline.

use super::context::QueryContext;
use super::*;
use crate::filter_tree::ViewId;
use crate::interval::Interval;
use crate::policy::{PartitionPolicy, ValueModel};
use deepsea_engine::exec::ExecError;
use deepsea_engine::plan::AggExpr;
use deepsea_engine::plan::LogicalPlan;
use deepsea_obs::DecisionEvent;
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
    use deepsea_storage::{FaultConfig, FaultInjector};

    let cluster = ClusterSim::paper_default();
    let fs = Arc::new(SimFs::with_faults(
        BlockConfig::default(),
        cluster.weights,
        FaultInjector::new(FaultConfig::seeded(7).with_transient_reads(0.2)),
    ));
    let backend = Box::new(SimBackend::new(cluster));
    let config = DeepSeaConfig::default().with_min_fragment_bytes(1);
    let mut d = DeepSea::with_backend(Arc::new(catalog(2000)), fs, backend, config);
    d.process_query(&query(400, 600)).unwrap();
    d.process_query(&query(450, 550)).unwrap();

    let snapshot = d.publish_snapshot().expect("the simulated backend forks");
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
                    .flat_map(|p| p.fragments().iter().filter_map(|f| f.file)),
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

/// One call a [`RecordingBackend`] served.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    /// `execute(plan)`.
    Execute(LogicalPlan),
    /// `execute_slice(plan, pred)`.
    Slice(LogicalPlan, Predicate),
}

/// A SimBackend wrapper that records every plan it executes or slices —
/// proves the driver goes through the trait object, not the free
/// functions, and shows which plans it runs.
struct RecordingBackend {
    inner: SimBackend,
    calls: Arc<std::sync::Mutex<Vec<Call>>>,
}

impl RecordingBackend {
    /// A fresh backend over the paper's cluster, and its log of calls.
    fn new() -> (Self, Arc<std::sync::Mutex<Vec<Call>>>) {
        let calls = Arc::default();
        let inner = SimBackend::new(ClusterSim::paper_default());
        let log = Arc::clone(&calls);
        (Self { inner, calls }, log)
    }
}

impl ExecutionBackend for RecordingBackend {
    fn execute(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        fs: &SimFs<Table>,
    ) -> Result<(Table, ExecMetrics), ExecError> {
        self.calls.lock().unwrap().push(Call::Execute(plan.clone()));
        self.inner.execute(plan, catalog, fs)
    }
    fn execute_slice(
        &self,
        plan: &LogicalPlan,
        pred: &Predicate,
        catalog: &Catalog,
        fs: &SimFs<Table>,
    ) -> Result<(Table, u64), ExecError> {
        (self.calls.lock().unwrap()).push(Call::Slice(plan.clone(), pred.clone()));
        self.inner.execute_slice(plan, pred, catalog, fs)
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

#[test]
fn custom_backend_is_used_for_execution() {
    let (backend, calls) = RecordingBackend::new();
    let fs = Arc::new(SimFs::new(
        BlockConfig::default(),
        backend.cluster().weights,
    ));
    let mut d = DeepSea::with_backend(
        Arc::new(catalog(2000)),
        fs,
        Box::new(backend),
        DeepSeaConfig::default().with_min_fragment_bytes(1),
    );
    let out = d.process_query(&query(400, 600)).unwrap();
    assert!(!out.materialized.is_empty());
    // The first materializing query executes the chosen plan, then
    // computes a view below it — all through the trait object.
    let calls = calls.lock().unwrap();
    assert!(
        matches!(calls.as_slice(), [Call::Execute(_), _, ..]),
        "driver must execute and compute views via the backend: {calls:?}"
    );
}

/// The golden scenario of `deepsea-bench::golden`: its seeded 100 GB
/// instance and 50-query log.
fn golden() -> &'static (Arc<Catalog>, Vec<LogicalPlan>) {
    use deepsea_workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
    use deepsea_workload::sequences::fig5_workload;
    static GOLDEN: std::sync::OnceLock<(Arc<Catalog>, Vec<LogicalPlan>)> =
        std::sync::OnceLock::new();
    GOLDEN.get_or_init(|| {
        let data = BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Uniform, 7);
        (Arc::new(data.catalog), fig5_workload(50, 7))
    })
}

/// How [`stored_views_equal_their_plans`] found a run's views computed.
#[derive(Debug, Default)]
struct Computed {
    /// Views stored from the executed plan's result.
    reused: usize,
    /// Views executed whole.
    executed: usize,
    /// Views whose statistics were measured from a slice.
    measured: usize,
    /// Slices that kept fewer rows than their view holds.
    narrow: usize,
}

/// A commit computes only what it stores (§7.2's "by-product of the
/// instrumented query"): per commit, the backend executes the executed plan
/// once; a view equal to it is stored from that result; any other view is
/// executed once when it is stored whole, or sliced once per partition
/// attribute over the fragments the commit builds from its plan. Every file
/// written holds what executing the view returns, restricted to its
/// interval, and a view measured from a slice has the size, cost and
/// overhead of the whole view. Run over the golden log under `config`.
fn stored_views_equal_their_plans(config: DeepSeaConfig) -> Computed {
    use deepsea_obs::ObsConfig;

    let (catalog, log) = golden();
    let (backend, calls) = RecordingBackend::new();
    let fs = Arc::new(SimFs::new(
        BlockConfig::default(),
        backend.cluster().weights,
    ));
    // The observer's refinement events tell fragments built from
    // materialized sources, which compute nothing, from the rest.
    let obs = Observer::new(ObsConfig::on());
    let mut d = DeepSea::with_backend(
        Arc::clone(catalog),
        Arc::clone(&fs),
        Box::new(backend),
        config,
    )
    .with_observer(obs.clone());
    let mut seen = Computed::default();
    for (i, plan) in log.iter().enumerate() {
        let measured_before: Vec<String> = (d.registry().iter())
            .filter(|v| v.schema.is_some())
            .map(|v| v.key.to_string())
            .collect();
        let out = d.process_query(plan).unwrap();
        let calls = std::mem::take(&mut *calls.lock().unwrap());
        let Some((Call::Execute(executed), view_calls)) = calls.split_first() else {
            panic!("query {i}: a commit executes its plan first: {calls:?}");
        };
        let refined: Vec<String> = obs
            .events_snapshot()
            .into_iter()
            .filter(|r| r.tnow == d.clock())
            .filter_map(|r| match r.event {
                DecisionEvent::FragmentSplit {
                    view, attr, target, ..
                }
                | DecisionEvent::OverlapKept {
                    view, attr, target, ..
                } => Some(format!("{view}.{attr}{target}")),
                _ => None,
            })
            .collect();
        let mut computed: Vec<ViewId> = out
            .materialized
            .iter()
            .filter(|written| !refined.contains(written))
            .filter_map(|written| d.registry().by_name(written.split('.').next()?))
            .collect();
        computed.sort_unstable();
        computed.dedup();
        let registry = d.registry();
        let other: Vec<ViewId> = (computed.iter().copied())
            .filter(|&v| *registry.view(v).plan != *executed)
            .collect();
        seen.reused += computed.len() - other.len();
        // Each other view is executed once or sliced once per attribute,
        // and nothing else runs.
        let mut sliced: Vec<ViewId> = Vec::new();
        for vid in &other {
            let view = registry.view(*vid);
            let runs: Vec<&Call> = (view_calls.iter())
                .filter(|c| match c {
                    Call::Execute(p) | Call::Slice(p, _) => *p == *view.plan,
                })
                .collect();
            let mut attrs: Vec<&str> = (runs.iter())
                .filter_map(|c| match c {
                    Call::Slice(_, Predicate::Range { col, .. }) => Some(col.as_str()),
                    _ => None,
                })
                .collect();
            let slices = attrs.len();
            attrs.sort_unstable();
            attrs.dedup();
            assert!(
                matches!(runs.as_slice(), [Call::Execute(_)])
                    || (slices == runs.len() && slices == attrs.len() && slices > 0),
                "query {i}: {} is computed by {runs:?}",
                view.name
            );
            assert!(
                attrs.iter().all(|a| view.partitions.contains_key(*a)),
                "query {i}: {} is sliced on a partition attribute",
                view.name
            );
            if slices > 0 {
                sliced.push(*vid);
            } else {
                seen.executed += 1;
            }
        }
        for call in view_calls {
            if let Call::Slice(p, pred) = call {
                let (rows, whole) =
                    deepsea_engine::exec::execute_slice(p, pred, catalog, &fs).unwrap();
                seen.narrow += usize::from((rows.len() as u64) < whole);
            }
        }
        assert!(
            view_calls.iter().all(|c| match c {
                Call::Execute(p) | Call::Slice(p, _) =>
                    other.iter().any(|&v| *registry.view(v).plan == *p),
            }),
            "query {i}: a call computes no view the commit stores: {view_calls:?}"
        );
        for vid in computed {
            let view = registry.view(vid);
            let (want, _) = deepsea_engine::exec::execute(&view.plan, catalog, &fs).unwrap();
            if let Some(file) = view.whole_file {
                assert_eq!(
                    *fs.try_read(file).unwrap().value,
                    want,
                    "query {i}: {}",
                    view.name
                );
            }
            for ps in view.partitions.values() {
                let col = want.schema.index_of(&ps.attr).unwrap();
                for f in ps.materialized_fragments() {
                    let name = format!("{}.{}{}", view.name, ps.attr, f.interval);
                    if !out.materialized.contains(&name) {
                        continue;
                    }
                    let rows = want
                        .column(col)
                        .int_range_rows(f.interval.lo, f.interval.hi);
                    let file = f.file.unwrap();
                    assert_eq!(
                        *fs.try_read(file).unwrap().value,
                        want.take(&rows),
                        "query {i}: {name}"
                    );
                }
            }
            if sliced.contains(&vid) && !measured_before.contains(&view.key.to_string()) {
                let size = want.sim_bytes();
                let overhead = d.backend.write_secs(size, 1);
                let cost = d.estimator().estimated_secs(&view.plan) + overhead;
                seen.measured += 1;
                assert_eq!(view.stats.size, size, "query {i}: {}", view.name);
                assert_eq!(
                    (view.stats.cost.to_bits(), view.creation_overhead.to_bits()),
                    (cost.to_bits(), overhead.to_bits()),
                    "query {i}: {}",
                    view.name
                );
            }
        }
    }
    seen
}

/// Under a generous pool the fragments a commit builds from a plan span
/// its domain, so a slice keeps the whole view; under the small pool of
/// `sdss_churn` (`Smax` = base / 40) they are admitted one by one, and a
/// slice keeps a few of its view's rows.
#[test]
fn views_equal_to_the_executed_plan_are_stored_from_its_result() {
    let seen = stored_views_equal_their_plans(crate::baselines::deepsea().with_phi(0.05));
    assert!(
        seen.reused > 0,
        "no view was stored from the executed result: {seen:?}"
    );
    assert!(seen.executed > 0, "no view was executed whole: {seen:?}");
    assert!(
        seen.measured > 0,
        "no view was measured from a slice: {seen:?}"
    );
    let smax = golden().0.total_base_bytes() / 40;
    let seen =
        stored_views_equal_their_plans(crate::baselines::deepsea().with_phi(0.05).with_smax(smax));
    assert!(
        seen.narrow > 0,
        "no slice kept fewer rows than its view: {seen:?}"
    );
    assert!(
        seen.measured > 0,
        "no view was measured from a slice: {seen:?}"
    );
}

/// A partitioned join view's fragments hold row indices into the base
/// tables, not copies of their columns (DESIGN.md, "Execution model"):
/// after the golden log, every column of every fragment of the
/// store_sales ⋈ item ⋈ customer view reads its catalog column's values
/// (`Arc::ptr_eq`), and the columns of one base table read them through one
/// index vector, so a fragment costs 4 B per row per base table.
#[test]
fn fragments_of_a_join_view_index_the_catalog_columns() {
    let (catalog, log) = golden();
    let mut d = DeepSea::new((**catalog).clone(), crate::baselines::deepsea());
    for plan in log {
        d.process_query(plan).unwrap();
    }
    let tables = ["store_sales", "item", "customer"];
    let view = (d.registry().iter())
        .find(|v| {
            v.schema.as_ref().is_some_and(|s| {
                let from =
                    |t: &str| (s.fields().iter()).any(|f| f.name.starts_with(&format!("{t}.")));
                tables.iter().all(|t| from(t)) && s.len() == 9
            }) && v.partitions.values().any(|p| p.any_materialized())
        })
        .expect("the golden log partitions the store_sales ⋈ item ⋈ customer view");
    let mut files = 0;
    for ps in view.partitions.values() {
        for f in ps.materialized_fragments() {
            let fragment = d.fs.try_read(f.file.unwrap()).unwrap().value;
            files += 1;
            let mut index_of: Vec<(&str, &deepsea_relation::Rows)> = Vec::new();
            for (field, col) in fragment.schema.fields().iter().zip(fragment.columns()) {
                let (table, _) = field.name.split_once('.').unwrap();
                let base = catalog.get(table).unwrap();
                let at = base.schema.index_of(&field.name).unwrap();
                assert!(
                    Arc::ptr_eq(col.data(), base.column(at).data()),
                    "{}: {} shares its catalog column",
                    view.name,
                    field.name
                );
                let idx = col.idx().expect("a fragment reads some rows");
                match index_of.iter().find(|(t, _)| *t == table) {
                    Some((_, first)) => assert!(
                        Arc::ptr_eq(first, idx),
                        "{}: {} reads {table}'s one index",
                        view.name,
                        field.name
                    ),
                    None => index_of.push((table, idx)),
                }
            }
            assert_eq!(index_of.len(), 3, "one index per base table");
        }
    }
    assert!(files > 1, "{} has {files} fragment files", view.name);
}

/// Under the Hive baseline a snapshot reader executes the plan the writer
/// does — selections pushed down — so its answer is bit-identical to the
/// writer's at that epoch.
#[test]
fn hive_snapshot_answers_equal_the_writers() {
    let (catalog, log) = golden();
    let cluster = ClusterSim::paper_default();
    let fs = Arc::new(SimFs::new(BlockConfig::default(), cluster.weights));
    let mut d = DeepSea::with_parts(Arc::clone(catalog), fs, cluster, crate::baselines::hive());
    for (i, plan) in log.iter().enumerate() {
        let snapshot = d
            .publish_snapshot()
            .expect("the simulated backend forks readers");
        let read = snapshot.answer(plan).unwrap();
        let commit = d.process_query(plan).unwrap();
        assert_eq!(
            read.query_secs.to_bits(),
            commit.query_secs.to_bits(),
            "query {i}"
        );
        assert_eq!(read.metrics, commit.metrics, "query {i}");
        assert_eq!(
            read.result.fingerprint(),
            commit.result.fingerprint(),
            "query {i}"
        );
    }
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

/// The audit log holds decisions only: per commit, one `selection_verdict`
/// per planned creation and per planned eviction — nothing for what stays or
/// what selection turned down.
#[test]
fn selection_verdicts_are_the_planned_decisions() {
    use deepsea_obs::{DecisionEvent, ObsConfig};

    let base = catalog(2000).total_base_bytes();
    for smax in [None, Some(base / 40)] {
        let obs = Observer::new(ObsConfig::on());
        let config = DeepSeaConfig {
            smax,
            ..DeepSeaConfig::default()
        };
        let mut d = ds(config).with_observer(obs.clone());
        let planned: Vec<(u64, u64)> = (0..20)
            .map(|i| {
                let out = d.process_query(&query(i * 30, i * 30 + 120)).unwrap();
                let s = &out.trace.selection;
                (s.planned_creations, s.planned_evictions)
            })
            .collect();
        let mut logged = vec![(0u64, 0u64); planned.len()];
        for record in obs.events_snapshot() {
            if let DecisionEvent::SelectionVerdict { verdict, .. } = record.event {
                let commit = &mut logged[record.tnow as usize - 1];
                match verdict {
                    "create" => commit.0 += 1,
                    "evict" => commit.1 += 1,
                    other => panic!("{smax:?}: verdict {other:?} is not a decision"),
                }
            }
        }
        assert_eq!(logged, planned, "Smax {smax:?}");
        assert!(planned.iter().any(|&(c, _)| c > 0), "{smax:?}: no creation");
        if smax.is_some() {
            assert!(planned.iter().any(|&(_, e)| e > 0), "no planned eviction");
        }
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

/// A commit adopts the matching and rewriting its read stored — exactly
/// what it would compute — and only in the world the read computed them
/// in: after a record is applied or a file deleted it computes afresh.
/// Baseline reads store nothing.
#[test]
fn a_commit_adopts_its_reads_rewriting_only_in_that_world() {
    let mut d = ds(DeepSeaConfig::default());
    for i in 0..6 {
        d.process_query(&query(i * 40, i * 40 + 100)).unwrap();
    }
    let plan = query(100, 200);
    let adopted = |d: &DeepSea| {
        let mut ctx = QueryContext::new(&plan, d.clock() + 1);
        d.rewritings
            .adopt(&plan, d.read_view().world(), &mut ctx, &d.obs)
            .then_some(ctx)
    };
    assert!(adopted(&d).is_none(), "nothing was read");
    let read = d.publish_snapshot().unwrap().answer(&plan).unwrap();
    assert!(read.used_view.is_some(), "the read used no view");
    let ctx = adopted(&d).expect("the read's world is the writer's");
    let mut computed = QueryContext::new(&plan, d.clock() + 1);
    d.read_view().compute_rewritings(&plan, &mut computed);
    d.read_view().select_rewriting(&plan, &mut computed);
    assert_eq!(ctx.trace, computed.trace);
    assert_eq!(
        (&ctx.qbest, &ctx.used_view),
        (&computed.qbest, &computed.used_view)
    );
    assert_eq!(ctx.hits.len(), computed.hits.len());

    d.commit(CatalogRecord::QueryCommitted { tnow: d.clock() });
    assert!(adopted(&d).is_none(), "a record was applied since the read");
    d.publish_snapshot().unwrap().answer(&plan).unwrap();
    assert!(adopted(&d).is_some());
    let file = partitioned_view(&d).files().next().unwrap();
    d.fs.delete(file);
    assert!(adopted(&d).is_none(), "a file was deleted since the read");

    let mut hive = ds(crate::baselines::hive());
    hive.process_query(&plan).unwrap();
    hive.publish_snapshot().unwrap().answer(&plan).unwrap();
    assert!(hive.rewritings.is_empty());
}

// ── The execution retry ladder ───────────────────────────────────────────

mod retry_ladder {
    use super::*;
    use crate::driver::read_path::ReadView;
    use crate::retry::{backoff_secs, retry_io, MAX_RETRIES};
    use deepsea_engine::plan::ViewScanInfo;
    use deepsea_relation::Value;
    use deepsea_storage::{
        CostWeights, FaultConfig, FaultInjector, FileId, IoError, NodeConfig, NodeSet,
    };

    /// A base table `t` and a one-fragment view scan over `fs`.
    fn world(fs: &SimFs<Table>, nodes: &[NodeId]) -> (Catalog, LogicalPlan, FileId) {
        let mut catalog = Catalog::new();
        let t = TableGen::new(
            Schema::new(vec![Field::new("t.a", DataType::Int)]),
            vec![ColumnGen::UniformInt { low: 0, high: 9 }],
            1_000,
            1,
        )
        .generate(100);
        catalog.register("t", t);
        let schema = Schema::new(vec![Field::new("v.a", DataType::Int)]);
        let frag = Table::from_rows(schema.clone(), vec![vec![Value::Int(1)]], 500);
        let id = fs
            .try_create_placed("frag", frag.sim_bytes(), frag, nodes)
            .expect("writes are not faulted")
            .value;
        let plan = LogicalPlan::ViewScan(ViewScanInfo {
            view_name: "v".into(),
            files: vec![id],
            schema,
            clip: None,
        });
        (catalog, plan, id)
    }

    fn faulty_fs(cfg: FaultConfig) -> SimFs<Table> {
        SimFs::with_faults(
            BlockConfig::default(),
            CostWeights::default(),
            FaultInjector::new(cfg),
        )
    }

    /// Run `f` against a read view of `catalog` over `fs`.
    fn with_view<R>(
        catalog: &Catalog,
        fs: &SimFs<Table>,
        backend: &SimBackend,
        obs: &Observer,
        f: impl FnOnce(&ReadView<'_>) -> R,
    ) -> R {
        let registry = ViewRegistry::new();
        f(&ReadView {
            registry: &registry,
            catalog,
            fs,
            backend,
            obs,
            rewritings: None,
        })
    }

    /// The backoff of retries `0..n`, summed from 0.0 in order.
    fn ladder_secs(n: u32) -> f64 {
        (0..n).fold(0.0, |secs, a| secs + backoff_secs(a))
    }

    #[test]
    fn transients_are_retried_to_success_with_the_backoff_in_penalty_secs() {
        // ~50% transient failures: each execution in this fixed schedule
        // either succeeds, most after retries, or exhausts the ladder.
        let fs = faulty_fs(FaultConfig::seeded(11).with_transient_reads(0.5));
        let (catalog, plan, _) = world(&fs, &[]);
        let backend = SimBackend::paper_default();
        let (mut total_retries, mut exhausted) = (0, 0);
        with_view(&catalog, &fs, &backend, &Observer::off(), |view| {
            for _ in 0..20 {
                let mut ctx = QueryContext::new(&plan, 1);
                let (t, m) = match view.execute_retrying(&mut ctx) {
                    Ok(out) => out,
                    Err((err, debt)) => {
                        assert!(err.is_transient());
                        assert_eq!(debt.0, u64::from(MAX_RETRIES));
                        assert_eq!(debt.1.to_bits(), 3.5f64.to_bits());
                        exhausted += 1;
                        continue;
                    }
                };
                assert_eq!(t.len(), 1, "retried result is the real result");
                total_retries += m.retries;
                assert_eq!(ctx.retry_attempts.len() as u64, m.retries);
                assert_eq!(
                    m.penalty_secs.to_bits(),
                    ladder_secs(m.retries as u32).to_bits(),
                    "no spikes: the penalty is the ladder's backoff"
                );
                // Backoff is charged into elapsed time.
                let base = backend.cluster().elapsed_secs(&m);
                assert_eq!(
                    backend.elapsed_secs(&m).to_bits(),
                    (base + m.penalty_secs).to_bits()
                );
            }
        });
        assert!(total_retries > 0, "seed 11 must retry to success");
        assert!(exhausted > 0, "seed 11 must exhaust a ladder");
    }

    #[test]
    fn an_exhausted_ladder_charges_its_debt_to_the_fallback() {
        let fs = faulty_fs(FaultConfig::seeded(1).with_transient_reads(1.0));
        let (catalog, plan, id) = world(&fs, &[]);
        let backend = SimBackend::paper_default();
        let expected = ladder_secs(MAX_RETRIES);
        assert_eq!(expected, 3.5, "0.5 + 1 + 2");
        with_view(&catalog, &fs, &backend, &Observer::off(), |view| {
            let mut ctx = QueryContext::new(&plan, 1);
            let (err, debt) = view.execute_retrying(&mut ctx).unwrap_err();
            assert_eq!(err, ExecError::TransientIo(IoError::TransientRead(id)));
            assert_eq!(debt.0, u64::from(MAX_RETRIES));
            assert_eq!(debt.1.to_bits(), expected.to_bits());
            // The base re-answer reads no view, so it pays exactly the debt.
            let (_, m) = view
                .fall_back(&LogicalPlan::scan("t"), &mut ctx, debt)
                .expect("base tables are durable");
            assert_eq!(m.retries, debt.0);
            assert_eq!(m.penalty_secs.to_bits(), expected.to_bits());
            assert_eq!(ctx.trace.recovery.retries, debt.0);
            assert_eq!(
                ctx.trace.recovery.penalty_secs.to_bits(),
                expected.to_bits()
            );
            assert_eq!(ctx.trace.recovery.base_table_fallbacks, 1);
        });
        // The fragment I/O ladder stops at the same three retries.
        let (mut retries, mut secs) = (0, 0.0);
        let out: Result<(), IoError> =
            retry_io(&mut retries, &mut secs, || Err(IoError::TransientRead(id)));
        assert!(out.is_err());
        assert_eq!(retries, u64::from(MAX_RETRIES));
        assert_eq!(secs.to_bits(), expected.to_bits());
    }

    #[test]
    fn a_whole_node_outage_is_not_retried() {
        let fs = SimFs::with_cluster(
            BlockConfig::default(),
            CostWeights::default(),
            FaultInjector::disabled(),
            NodeSet::new(NodeConfig::new(2, 1)),
        );
        let (catalog, plan, id) = world(&fs, &[NodeId(0)]);
        fs.set_node_down(NodeId(0));
        let backend = SimBackend::paper_default();
        with_view(&catalog, &fs, &backend, &Observer::off(), |view| {
            let mut ctx = QueryContext::new(&plan, 1);
            let (err, debt) = view.execute_retrying(&mut ctx).unwrap_err();
            assert!(
                err.is_transient(),
                "an outage is transient (node may return)"
            );
            assert_eq!(err.file(), Some(id));
            assert_eq!(debt, (0, 0.0), "no retry spent against a whole-node outage");
            assert!(ctx.retry_attempts.is_empty());
            // Once the node returns, the same plan executes cleanly.
            fs.set_node_up(NodeId(0));
            let (t, m) = view.execute_retrying(&mut ctx).expect("node is back");
            assert_eq!(t.len(), 1);
            assert_eq!(m.retries, 0);
        });
    }

    #[test]
    fn permanent_failures_are_not_retried() {
        let fs = faulty_fs(FaultConfig::seeded(1).with_permanent_loss(1.0));
        let (catalog, plan, id) = world(&fs, &[]);
        let backend = SimBackend::paper_default();
        with_view(&catalog, &fs, &backend, &Observer::off(), |view| {
            let mut ctx = QueryContext::new(&plan, 1);
            let (err, debt) = view.execute_retrying(&mut ctx).unwrap_err();
            assert!(!err.is_transient());
            assert_eq!(err.file(), Some(id));
            assert_eq!(debt, (0, 0.0), "permanent failures spend no retries");
        });
    }

    #[test]
    fn recorded_attempts_are_the_ladder_and_tracing_changes_no_decision() {
        let run = |obs: Observer| {
            let fs = faulty_fs(FaultConfig::seeded(1).with_transient_reads(1.0));
            let (catalog, plan, id) = world(&fs, &[]);
            let backend = SimBackend::paper_default();
            let root = obs.record_span(1, "query", None, deepsea_obs::SpanCtx::root(1), 0.0, 9.0);
            let out = with_view(&catalog, &fs, &backend, &obs, |view| {
                let mut ctx = QueryContext::new(&plan, 1).in_span(root, 0.0);
                let (_, debt) = view.execute_retrying(&mut ctx).unwrap_err();
                view.fall_back(&LogicalPlan::scan("t"), &mut ctx, debt)
                    .expect("base tables are durable");
                view.trace_execute_span(&ctx, Some("base_fallback"));
                (debt, ctx.retry_attempts, ctx.query_secs.to_bits())
            });
            (out, id, obs.spans_snapshot())
        };
        let ((debt, steps, secs), id, spans) = run(Observer::new(deepsea_obs::ObsConfig::on()));
        let (untraced, _, none) = run(Observer::off());
        assert_eq!((debt, steps.clone(), secs), untraced);
        assert!(none.is_empty());
        assert_eq!(steps.len() as u64, debt.0);
        for (i, s) in steps.iter().enumerate() {
            assert_eq!(s.attempt, i as u32);
            assert_eq!(s.file, Some(id));
            assert_eq!(s.backoff_secs.to_bits(), backoff_secs(s.attempt).to_bits());
        }
        let waits = spans.iter().filter(|s| s.name == "retry_wait").count();
        assert_eq!(waits as u64, debt.0, "one retry_wait span per retry");
    }

    #[test]
    fn the_ladder_is_transparent_without_faults() {
        let fs = SimFs::new(BlockConfig::default(), CostWeights::default());
        let (catalog, _, _) = world(&fs, &[]);
        let plan = LogicalPlan::scan("t");
        let backend = SimBackend::paper_default();
        let direct = backend.execute(&plan, &catalog, &fs).unwrap();
        with_view(&catalog, &fs, &backend, &Observer::off(), |view| {
            let mut ctx = QueryContext::new(&plan, 1);
            let (t, m) = view.execute_retrying(&mut ctx).unwrap();
            assert_eq!(t.fingerprint(), direct.0.fingerprint());
            assert_eq!(m, direct.1);
            assert!(ctx.retry_attempts.is_empty());
        });
    }
}
