//! `EXPLAIN`-style plan rendering: a multi-line operator tree with per-node
//! cost estimates, for examples, logs and debugging rewritings.

use crate::catalog::Catalog;
use crate::cluster::ClusterSim;
use crate::cost::CostEstimator;
use crate::plan::LogicalPlan;
use deepsea_relation::Table;
use deepsea_storage::SimFs;

/// Render a plan as an indented operator tree.
pub fn explain(plan: &LogicalPlan) -> String {
    let mut out = String::new();
    render(plan, 0, &mut out, None);
    out
}

/// Render a plan with estimated output rows/bytes per node.
pub fn explain_with_estimates(
    plan: &LogicalPlan,
    catalog: &Catalog,
    fs: &SimFs<Table>,
    cluster: &ClusterSim,
) -> String {
    let est = CostEstimator::new(catalog, fs, cluster);
    let mut out = String::new();
    render(plan, 0, &mut out, Some(&est));
    out
}

fn render(plan: &LogicalPlan, depth: usize, out: &mut String, est: Option<&CostEstimator<'_>>) {
    let pad = "  ".repeat(depth);
    let label = match plan {
        LogicalPlan::Scan { table } => format!("Scan {table}"),
        LogicalPlan::ViewScan(v) => {
            format!("ViewScan {} ({} fragments)", v.view_name, v.files.len())
        }
        LogicalPlan::Select { pred, .. } => format!("Select {pred:?}"),
        LogicalPlan::Project { cols, .. } => format!("Project [{}]", cols.join(", ")),
        LogicalPlan::Join { on, .. } => {
            let conds: Vec<String> = on.iter().map(|(a, b)| format!("{a} = {b}")).collect();
            format!("HashJoin on {}", conds.join(" AND "))
        }
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            let a: Vec<String> = aggs.iter().map(|x| x.canonical()).collect();
            format!(
                "Aggregate [{}] group by [{}]",
                a.join(", "),
                group_by.join(", ")
            )
        }
    };
    out.push_str(&pad);
    out.push_str(&label);
    if let Some(e) = est {
        let est = e.estimate(plan);
        out.push_str(&format!(
            "  (~{:.0} rows, ~{:.1} MB)",
            est.out_rows,
            est.out_bytes / 1e6
        ));
    }
    out.push('\n');
    for c in plan.children() {
        render(c, depth + 1, out, est);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggExpr;
    use deepsea_relation::{DataType, Field, Predicate, Schema, Value};
    use deepsea_storage::{BlockConfig, CostWeights};

    fn plan() -> LogicalPlan {
        LogicalPlan::scan("fact")
            .join(LogicalPlan::scan("dim"), vec![("fact.k", "dim.k")])
            .select(Predicate::range("fact.k", 0, 9))
            .aggregate(vec!["dim.label"], vec![AggExpr::count("cnt")])
    }

    #[test]
    fn tree_structure_and_indentation() {
        let text = explain(&plan());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("Aggregate [count(*)] group by [dim.label]"));
        assert!(lines[1].starts_with("  Select"));
        assert!(lines[2].starts_with("    HashJoin on fact.k = dim.k"));
        assert!(lines[3].starts_with("      Scan fact"));
        assert!(lines[4].starts_with("      Scan dim"));
    }

    #[test]
    fn estimates_appear_per_node() {
        let mut c = Catalog::new();
        c.register(
            "fact",
            Table::from_rows(
                Schema::new(vec![
                    Field::new("fact.k", DataType::Int),
                    Field::new("fact.v", DataType::Float),
                ]),
                (0..50)
                    .map(|i| vec![Value::Int(i), Value::Float(0.0)])
                    .collect(),
                1000,
            ),
        );
        c.register(
            "dim",
            Table::from_rows(
                Schema::new(vec![
                    Field::new("dim.k", DataType::Int),
                    Field::new("dim.label", DataType::Str),
                ]),
                (0..50)
                    .map(|i| vec![Value::Int(i), Value::str("x")])
                    .collect(),
                100,
            ),
        );
        let fs = SimFs::new(BlockConfig::default(), CostWeights::default());
        let cluster = ClusterSim::paper_default();
        let text = explain_with_estimates(&plan(), &c, &fs, &cluster);
        assert!(text.contains("rows"), "{text}");
        assert!(text.contains("MB"), "{text}");
        assert!(text.lines().count() == 5);
    }
}
