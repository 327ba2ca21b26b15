//! Analytic plan cost estimation.
//!
//! DeepSea needs cost and size estimates for view candidates *before* they
//! are first materialized (§7.1: "initially estimated when we first see this
//! view as a candidate. The creation cost is replaced with the actual cost
//! once the first query containing the view as a subquery has been
//! executed"). This module provides those initial estimates; they are crude
//! by design and are superseded by measurements.

use deepsea_relation::{Predicate, Table};
use deepsea_storage::SimFs;

use crate::catalog::Catalog;
use crate::cluster::ClusterSim;
use crate::exec::ExecMetrics;
use crate::plan::LogicalPlan;

/// Estimated properties of a plan's output and execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated output rows.
    pub out_rows: f64,
    /// Estimated output size in simulated bytes.
    pub out_bytes: f64,
    /// Estimated execution metrics.
    pub metrics: ExecMetrics,
}

/// Default selectivity for equality predicates with no statistics.
const EQ_SELECTIVITY: f64 = 0.1;
/// Default selectivity when nothing is known.
const UNKNOWN_SELECTIVITY: f64 = 0.33;
/// Row-count reduction factor assumed for group-by aggregation.
const AGG_REDUCTION: f64 = 0.2;

/// Plan cost/size estimator.
pub struct CostEstimator<'a> {
    catalog: &'a Catalog,
    fs: &'a SimFs<Table>,
    cluster: &'a ClusterSim,
}

impl<'a> CostEstimator<'a> {
    /// Create an estimator over the given catalog, storage and cluster.
    pub fn new(catalog: &'a Catalog, fs: &'a SimFs<Table>, cluster: &'a ClusterSim) -> Self {
        Self {
            catalog,
            fs,
            cluster,
        }
    }

    /// Estimate a plan bottom-up.
    pub fn estimate(&self, plan: &LogicalPlan) -> Estimate {
        match plan {
            LogicalPlan::Scan { table } => {
                let (rows, bytes) = match self.catalog.get(table) {
                    Some(t) => (t.len() as f64, t.sim_bytes() as f64),
                    None => (0.0, 0.0),
                };
                let tasks = self.fs.block_config().blocks_for(bytes as u64);
                Estimate {
                    out_rows: rows,
                    out_bytes: bytes,
                    metrics: ExecMetrics {
                        bytes_read: bytes as u64,
                        rows_processed: rows as u64,
                        map_tasks: tasks,
                        stages: 1,
                        ..Default::default()
                    },
                }
            }
            LogicalPlan::ViewScan(v) => {
                let mut bytes = 0u64;
                for &fid in &v.files {
                    if let Some((_, b)) = self.fs.stat(fid) {
                        bytes += b;
                    }
                }
                let tasks = v
                    .files
                    .iter()
                    .map(|&fid| {
                        self.fs
                            .stat(fid)
                            .map(|(_, b)| self.fs.block_config().blocks_for(b))
                            .unwrap_or(0)
                    })
                    .sum();
                // Rows unknown without reading; approximate via bytes at an
                // assumed width (only used for CPU, a minor term).
                let rows = bytes as f64 / 1000.0;
                Estimate {
                    out_rows: rows,
                    out_bytes: bytes as f64,
                    metrics: ExecMetrics {
                        bytes_read: bytes,
                        rows_processed: rows as u64,
                        map_tasks: tasks,
                        stages: 1,
                        ..Default::default()
                    },
                }
            }
            LogicalPlan::Select { pred, input } => {
                let mut e = self.estimate(input);
                let sel = self.selectivity(pred, input);
                e.metrics.rows_processed += e.out_rows as u64;
                e.out_rows *= sel;
                e.out_bytes *= sel;
                e
            }
            LogicalPlan::Project { cols, input } => {
                let mut e = self.estimate(input);
                // Assume equal column widths.
                let in_cols = plan_arity(input, self.catalog).max(1);
                let frac = (cols.len() as f64 / in_cols as f64).min(1.0);
                e.metrics.rows_processed += e.out_rows as u64;
                e.out_bytes *= frac;
                e
            }
            LogicalPlan::Join { left, right, .. } => {
                let l = self.estimate(left);
                let r = self.estimate(right);
                let mut m = l.metrics;
                m.absorb(&r.metrics);
                // Foreign-key join assumption: output cardinality matches the
                // larger (fact) side.
                let out_rows = l.out_rows.max(r.out_rows);
                let width = safe_div(l.out_bytes, l.out_rows) + safe_div(r.out_bytes, r.out_rows);
                let out_bytes = out_rows * width;
                m.shuffle_bytes += (l.out_bytes + r.out_bytes) as u64;
                m.stages += 1;
                m.rows_processed += (l.out_rows + r.out_rows + out_rows) as u64;
                Estimate {
                    out_rows,
                    out_bytes,
                    metrics: m,
                }
            }
            LogicalPlan::Aggregate {
                group_by, input, ..
            } => {
                let e = self.estimate(input);
                let mut m = e.metrics;
                m.shuffle_bytes += e.out_bytes as u64;
                m.stages += 1;
                m.rows_processed += e.out_rows as u64;
                let out_rows = if group_by.is_empty() {
                    1.0
                } else {
                    (e.out_rows * AGG_REDUCTION).max(1.0)
                };
                let width = safe_div(e.out_bytes, e.out_rows).max(16.0);
                Estimate {
                    out_rows,
                    out_bytes: out_rows * width,
                    metrics: m,
                }
            }
        }
    }

    /// Estimated execution time in seconds.
    pub fn estimated_secs(&self, plan: &LogicalPlan) -> f64 {
        self.cluster.elapsed_secs(&self.estimate(plan).metrics)
    }

    /// Estimated selectivity of a predicate over the input plan.
    fn selectivity(&self, pred: &Predicate, input: &LogicalPlan) -> f64 {
        match pred {
            Predicate::True => 1.0,
            Predicate::And(ps) => ps.iter().map(|p| self.selectivity(p, input)).product(),
            Predicate::Eq { .. } => EQ_SELECTIVITY,
            Predicate::Range { col, low, high } => {
                if high < low {
                    return 0.0;
                }
                // Find stats for this column on any base table underneath.
                for t in input.base_tables() {
                    if let Some(s) = self.catalog.column_stats(t, col) {
                        let dom = (s.max - s.min) as f64 + 1.0;
                        let lo = (*low).max(s.min);
                        let hi = (*high).min(s.max);
                        if hi < lo {
                            return 0.0;
                        }
                        return (((hi - lo) as f64 + 1.0) / dom).clamp(0.0, 1.0);
                    }
                }
                UNKNOWN_SELECTIVITY
            }
        }
    }
}

fn safe_div(a: f64, b: f64) -> f64 {
    if b <= 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Output arity of a plan (column count), best effort.
fn plan_arity(plan: &LogicalPlan, catalog: &Catalog) -> usize {
    match plan {
        LogicalPlan::Scan { table } => catalog.get(table).map(|t| t.schema.len()).unwrap_or(1),
        LogicalPlan::ViewScan(v) => v.schema.len(),
        LogicalPlan::Select { input, .. } => plan_arity(input, catalog),
        LogicalPlan::Project { cols, .. } => cols.len(),
        LogicalPlan::Join { left, right, .. } => {
            plan_arity(left, catalog) + plan_arity(right, catalog)
        }
        LogicalPlan::Aggregate { group_by, aggs, .. } => group_by.len() + aggs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsea_relation::{DataType, Field, Schema, Value};
    use deepsea_storage::{BlockConfig, CostWeights};

    fn fixture() -> (Catalog, SimFs<Table>, ClusterSim) {
        let mut c = Catalog::new();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
            .collect();
        let t = Table::from_rows(
            Schema::new(vec![
                Field::new("t.k", DataType::Int),
                Field::new("t.v", DataType::Float),
            ]),
            rows,
            1000,
        );
        c.register("t", t);
        (
            c,
            SimFs::new(BlockConfig::new(1 << 20), CostWeights::default()),
            ClusterSim::paper_default(),
        )
    }

    #[test]
    fn scan_estimate_matches_table() {
        let (c, fs, cl) = fixture();
        let est = CostEstimator::new(&c, &fs, &cl);
        let e = est.estimate(&LogicalPlan::scan("t"));
        assert_eq!(e.out_rows, 100.0);
        assert_eq!(e.out_bytes, 100_000.0);
    }

    #[test]
    fn range_selectivity_uses_stats() {
        let (c, fs, cl) = fixture();
        let est = CostEstimator::new(&c, &fs, &cl);
        // domain of t.k is [0,99]; range [0,24] is 25%
        let q = LogicalPlan::scan("t").select(Predicate::range("t.k", 0, 24));
        let e = est.estimate(&q);
        assert!((e.out_rows - 25.0).abs() < 1e-9, "rows={}", e.out_rows);
        // empty range
        let q2 = LogicalPlan::scan("t").select(Predicate::range("t.k", 500, 600));
        assert_eq!(est.estimate(&q2).out_rows, 0.0);
    }

    #[test]
    fn narrower_selection_cheaper_output_not_cost() {
        let (c, fs, cl) = fixture();
        let est = CostEstimator::new(&c, &fs, &cl);
        let wide = LogicalPlan::scan("t").select(Predicate::range("t.k", 0, 99));
        let narrow = LogicalPlan::scan("t").select(Predicate::range("t.k", 0, 9));
        // Selection over a base table reads everything either way…
        assert_eq!(
            est.estimate(&wide).metrics.bytes_read,
            est.estimate(&narrow).metrics.bytes_read
        );
        // …but yields less output.
        assert!(est.estimate(&narrow).out_bytes < est.estimate(&wide).out_bytes);
    }

    #[test]
    fn join_estimate_adds_shuffle_and_stage() {
        let (c, fs, cl) = fixture();
        let est = CostEstimator::new(&c, &fs, &cl);
        let j = LogicalPlan::scan("t").join(LogicalPlan::scan("t"), vec![("t.k", "t.k")]);
        let e = est.estimate(&j);
        assert!(e.metrics.shuffle_bytes > 0);
        assert_eq!(e.metrics.stages, 3); // two scans + one shuffle stage
        assert_eq!(e.out_rows, 100.0);
    }

    #[test]
    fn aggregate_reduces_rows() {
        let (c, fs, cl) = fixture();
        let est = CostEstimator::new(&c, &fs, &cl);
        let a = LogicalPlan::scan("t").aggregate(vec!["t.k"], vec![]);
        assert!(est.estimate(&a).out_rows < 100.0);
        let g = LogicalPlan::scan("t").aggregate(Vec::<String>::new(), vec![]);
        assert_eq!(est.estimate(&g).out_rows, 1.0);
    }

    #[test]
    fn estimated_secs_positive_and_monotone_in_size() {
        let (c, fs, cl) = fixture();
        let est = CostEstimator::new(&c, &fs, &cl);
        let q = LogicalPlan::scan("t");
        assert!(est.estimated_secs(&q) > 0.0);
    }
}
