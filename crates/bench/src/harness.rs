//! Workload runner: execute a query sequence under a system variant and
//! collect per-query statistics.

use std::sync::Arc;

use deepsea_core::{DeepSea, DeepSeaConfig, Observer, QueryTrace};
use deepsea_engine::{Catalog, ClusterSim, LogicalPlan};
use deepsea_storage::{BlockConfig, SimFs};

/// Per-query measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Total simulated seconds charged to the query (execution + creation).
    pub elapsed: f64,
    /// Execution-only seconds.
    pub query: f64,
    /// Materialization/repartition overhead seconds.
    pub creation: f64,
    /// Map tasks launched by the chosen plan.
    pub map_tasks: u64,
    /// The name of the view that answered the query, if one did.
    pub used_view: Option<String>,
    /// Number of views/fragments materialized during this query.
    pub materialized: usize,
    /// Number of evictions performed during this query.
    pub evicted: usize,
    /// Per-stage pipeline counters and simulated costs.
    pub trace: QueryTrace,
}

/// The result of running one workload under one variant.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Variant label (`H`, `NP`, `DS`, …).
    pub label: String,
    /// Per-query records in submission order.
    pub per_query: Vec<QueryRecord>,
    /// Pool bytes at the end of the run.
    pub final_pool_bytes: u64,
    /// Largest pool footprint observed at any query boundary.
    pub pool_high_water: u64,
}

impl RunResult {
    /// Total simulated elapsed seconds.
    pub fn total_secs(&self) -> f64 {
        self.per_query.iter().map(|r| r.elapsed).sum()
    }

    /// Cumulative elapsed series (one point per query).
    pub fn cumulative(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.per_query
            .iter()
            .map(|r| {
                acc += r.elapsed;
                acc
            })
            .collect()
    }

    /// Total map tasks over a range of queries.
    pub fn map_tasks(&self, range: std::ops::Range<usize>) -> u64 {
        self.per_query[range].iter().map(|r| r.map_tasks).sum()
    }

    /// The run's totals: the per-query traces summed, in query order — the
    /// input to [`crate::report::stage_breakdown`].
    pub fn stage_totals(&self) -> QueryTrace {
        let mut total = QueryTrace::default();
        for q in &self.per_query {
            total += q.trace;
        }
        total
    }

    /// Projected total time for `n` queries (§9 "Simulator" / Figure 7a):
    /// the measured cumulative time plus the *steady-state* per-query rate
    /// (mean over the second half of the workload, after view creation and
    /// progressive refinement have settled) extrapolated to `n`.
    pub fn projected_total(&self, n: usize) -> f64 {
        let cum = self.cumulative();
        let m = cum.len();
        if m == 0 {
            return 0.0;
        }
        if n <= m {
            return cum[n - 1];
        }
        let half = m / 2;
        let steady = if half == 0 {
            cum[m - 1] / m as f64
        } else {
            (cum[m - 1] - cum[half - 1]) / (m - half) as f64
        };
        cum[m - 1] + steady * (n - m) as f64
    }
}

/// Index (1-based) of the first query where `variant`'s cumulative time drops
/// to or below `baseline`'s — the "queries needed to recoup materialization
/// cost" of Figure 7b. `None` if it never recoups within the workload.
pub fn recoup_point(variant: &RunResult, baseline: &RunResult) -> Option<usize> {
    let v = variant.cumulative();
    let b = baseline.cumulative();
    v.iter().zip(&b).position(|(x, y)| x <= y).map(|i| i + 1)
}

/// Run one workload under one variant configuration. Every variant gets a
/// fresh simulated file system (its own pool); the catalog is shared.
pub fn run_workload(
    label: impl Into<String>,
    catalog: &Arc<Catalog>,
    config: DeepSeaConfig,
    plans: &[LogicalPlan],
) -> RunResult {
    run_workload_observed(label, catalog, config, plans, Observer::off())
}

/// Like [`run_workload`], but with an attached [`Observer`]: metrics, spans
/// and decision events accumulate in `obs` (shared via its internal `Arc`,
/// so the caller's handle sees everything after the run). The observed run
/// must be bit-identical to the unobserved one — `tests/obs_transparency.rs`
/// enforces this against the golden workload.
pub fn run_workload_observed(
    label: impl Into<String>,
    catalog: &Arc<Catalog>,
    config: DeepSeaConfig,
    plans: &[LogicalPlan],
    obs: Observer,
) -> RunResult {
    let cluster = ClusterSim::paper_default();
    let fs = Arc::new(SimFs::new(BlockConfig::default(), cluster.weights));
    let mut ds = DeepSea::with_parts(Arc::clone(catalog), fs, cluster, config).with_observer(obs);
    let mut per_query = Vec::with_capacity(plans.len());
    let mut pool_high_water = 0u64;
    for plan in plans {
        let out = ds
            .process_query(plan)
            .unwrap_or_else(|e| panic!("query failed under {:?}: {e}", config));
        pool_high_water = pool_high_water.max(ds.pool_bytes());
        per_query.push(QueryRecord {
            elapsed: out.elapsed_secs,
            query: out.query_secs,
            creation: out.creation_secs,
            map_tasks: out.metrics.map_tasks,
            used_view: out.used_view,
            materialized: out.materialized.len(),
            evicted: out.evicted.len(),
            trace: out.trace,
        });
    }
    RunResult {
        label: label.into(),
        per_query,
        final_pool_bytes: ds.pool_bytes(),
        pool_high_water,
    }
}

/// Run the same workload under several variants in parallel (one thread per
/// variant; each has an independent pool).
pub fn run_variants(
    catalog: &Arc<Catalog>,
    variants: &[(&str, DeepSeaConfig)],
    plans: &[LogicalPlan],
) -> Vec<RunResult> {
    let mut results: Vec<Option<RunResult>> = Vec::new();
    results.resize_with(variants.len(), || None);
    std::thread::scope(|s| {
        for (slot, (label, cfg)) in results.iter_mut().zip(variants) {
            let catalog = Arc::clone(catalog);
            s.spawn(move || {
                *slot = Some(run_workload(*label, &catalog, *cfg, plans));
            });
        }
    });
    results.into_iter().map(|r| r.expect("filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsea_core::baselines;
    use deepsea_workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
    use deepsea_workload::sequences::fixed_template_workload;
    use deepsea_workload::{Selectivity, Skew, TemplateId};

    fn small_setup() -> (Arc<Catalog>, Vec<LogicalPlan>) {
        let data = BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Uniform, 11);
        let plans =
            fixed_template_workload(TemplateId::Q30, 6, Selectivity::Medium, Skew::Heavy, 11);
        (Arc::new(data.catalog), plans)
    }

    #[test]
    fn hive_vs_deepsea_ordering() {
        let (catalog, plans) = small_setup();
        let h = run_workload("H", &catalog, baselines::hive(), &plans);
        let ds = run_workload("DS", &catalog, baselines::deepsea(), &plans);
        assert_eq!(h.per_query.len(), 6);
        assert!(
            ds.total_secs() < h.total_secs(),
            "DeepSea must beat Hive on a reuse-friendly workload: {} vs {}",
            ds.total_secs(),
            h.total_secs()
        );
        assert!(ds.final_pool_bytes > 0);
        assert_eq!(h.final_pool_bytes, 0);
    }

    #[test]
    fn run_variants_parallel_matches_serial() {
        let (catalog, plans) = small_setup();
        let serial = run_workload("DS", &catalog, baselines::deepsea(), &plans);
        let par = run_variants(
            &catalog,
            &[("H", baselines::hive()), ("DS", baselines::deepsea())],
            &plans,
        );
        assert_eq!(par.len(), 2);
        assert_eq!(par[1].label, "DS");
        // Determinism: simulated times are identical run to run.
        assert_eq!(serial.total_secs(), par[1].total_secs());
    }

    #[test]
    fn cumulative_is_monotone() {
        let (catalog, plans) = small_setup();
        let ds = run_workload("DS", &catalog, baselines::deepsea(), &plans);
        let c = ds.cumulative();
        assert!(c.windows(2).all(|w| w[1] >= w[0]));
        assert!((c.last().unwrap() - ds.total_secs()).abs() < 1e-9);
    }

    #[test]
    fn recoup_point_detects_crossover() {
        let mk = |elapsed: Vec<f64>| RunResult {
            label: "x".into(),
            per_query: elapsed
                .into_iter()
                .map(|e| QueryRecord {
                    elapsed: e,
                    query: e,
                    creation: 0.0,
                    map_tasks: 0,
                    used_view: None,
                    materialized: 0,
                    evicted: 0,
                    trace: QueryTrace::default(),
                })
                .collect(),
            final_pool_bytes: 0,
            pool_high_water: 0,
        };
        // Variant pays 30 up front then 1/query; baseline pays 10/query.
        let variant = mk(vec![30.0, 1.0, 1.0, 1.0, 1.0]);
        let base = mk(vec![10.0, 10.0, 10.0, 10.0, 10.0]);
        assert_eq!(recoup_point(&variant, &base), Some(4));
        let never = mk(vec![100.0; 5]);
        assert_eq!(recoup_point(&never, &base), None);
    }

    #[test]
    fn stage_totals_sum_per_query_traces() {
        let (catalog, plans) = small_setup();
        let ds = run_workload("DS", &catalog, baselines::deepsea(), &plans);
        let t = ds.stage_totals();
        assert!(t.matching.roots > 0);
        assert!(
            t.matching.hits > 0,
            "repeated template must rehit its views"
        );
        assert!(t.candidates.view_candidates > 0);
        assert!(t.selection.considered > 0);
        assert!(t.selection.planned_creations > 0);
        assert!(t.materialization.bytes_written > 0);
        // The per-stage costs must agree with the coarse per-query sums.
        let exec: f64 = ds.per_query.iter().map(|q| q.query).sum();
        let creation: f64 = ds.per_query.iter().map(|q| q.creation).sum();
        assert!((t.execution.query_secs - exec).abs() < 1e-9);
        assert!((t.materialization.creation_secs - creation).abs() < 1e-9);
        // Hive never enters the pipeline: everything but execution stays 0.
        let h = run_workload("H", &catalog, baselines::hive(), &plans);
        let mut ht = h.stage_totals();
        assert!(ht.execution.query_secs > 0.0);
        ht.execution.query_secs = 0.0;
        assert_eq!(ht, QueryTrace::default());
    }

    #[test]
    fn pool_high_water_bounds_final_pool() {
        let (catalog, plans) = small_setup();
        let ds = run_workload("DS", &catalog, baselines::deepsea(), &plans);
        assert!(ds.pool_high_water >= ds.final_pool_bytes);
        assert!(ds.pool_high_water > 0);
        let h = run_workload("H", &catalog, baselines::hive(), &plans);
        assert_eq!(h.pool_high_water, 0);
    }

    #[test]
    fn observed_run_matches_unobserved_and_collects_metrics() {
        let (catalog, plans) = small_setup();
        let plain = run_workload("DS", &catalog, baselines::deepsea(), &plans);
        let obs = Observer::new(deepsea_core::ObsConfig::on());
        let observed =
            run_workload_observed("DS", &catalog, baselines::deepsea(), &plans, obs.clone());
        for (a, b) in plain.per_query.iter().zip(&observed.per_query) {
            assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits());
            assert_eq!(a.materialized, b.materialized);
            assert_eq!(a.evicted, b.evicted);
        }
        assert_eq!(plain.final_pool_bytes, observed.final_pool_bytes);
        let snap = obs.metrics_snapshot();
        assert_eq!(
            snap.counter("deepsea_queries_total", None),
            plans.len() as u64
        );
    }

    #[test]
    fn avg_and_map_tasks_ranges() {
        let (catalog, plans) = small_setup();
        let ds = run_workload("DS", &catalog, baselines::deepsea(), &plans);
        assert!(ds.map_tasks(0..ds.per_query.len()) > 0);
    }
}
