//! `EXPLAIN`-style plan rendering: a multi-line operator tree, for
//! examples, logs and debugging rewritings.

use crate::plan::LogicalPlan;

/// Render a plan as an indented operator tree.
pub fn explain(plan: &LogicalPlan) -> String {
    let mut out = String::new();
    render(plan, 0, &mut out);
    out
}

fn render(plan: &LogicalPlan, depth: usize, out: &mut String) {
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
    out.push('\n');
    for c in plan.children() {
        render(c, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggExpr, ViewScanInfo};
    use deepsea_relation::{DataType, Field, Predicate, Schema};
    use deepsea_storage::FileId;

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

    /// A rewritten plan: a projection over a partitioned view's fragments
    /// renders one line per node, the scan a leaf naming its file count.
    #[test]
    fn view_scans_and_projections_are_labelled() {
        let scan = LogicalPlan::ViewScan(ViewScanInfo {
            view_name: "V3".into(),
            files: vec![FileId(4), FileId(9), FileId(11)],
            schema: Schema::new(vec![
                Field::new("fact.k", DataType::Int),
                Field::new("dim.label", DataType::Str),
            ]),
            clip: None,
        });
        let text = explain(&scan.project(vec!["dim.label", "fact.k"]));
        assert_eq!(
            text,
            "Project [dim.label, fact.k]\n  ViewScan V3 (3 fragments)\n"
        );
    }
}
