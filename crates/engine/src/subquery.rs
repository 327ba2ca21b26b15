//! Subquery enumeration and plan-tree addressing.

use crate::catalog::Catalog;
use crate::plan::LogicalPlan;

/// A path from the root to a subplan: child indices at each step.
pub type PlanPath = Vec<usize>;

/// Enumerate all subplans with their paths, root first (pre-order).
pub fn all_subplans(plan: &LogicalPlan) -> Vec<(PlanPath, &LogicalPlan)> {
    let mut out = Vec::new();
    fn walk<'a>(
        p: &'a LogicalPlan,
        path: &mut PlanPath,
        out: &mut Vec<(PlanPath, &'a LogicalPlan)>,
    ) {
        out.push((path.clone(), p));
        for (i, c) in p.children().into_iter().enumerate() {
            path.push(i);
            walk(c, path, out);
            path.pop();
        }
    }
    walk(plan, &mut Vec::new(), &mut out);
    out
}

/// View-candidate subqueries per Definition 6 of the paper: subplans of the
/// form `γ(Q1)`, `Q1 ⋈ Q2`, or `π(Q1)`. Selections and base scans are
/// excluded ("materializing the input of the selection and partitioning it on
/// the attribute used in the selection is usually more effective").
///
/// Larger (outer) candidates are returned before the subplans they contain.
pub fn view_candidate_subplans(plan: &LogicalPlan) -> Vec<(PlanPath, &LogicalPlan)> {
    all_subplans(plan)
        .into_iter()
        .filter(|(_, p)| {
            matches!(
                p,
                LogicalPlan::Aggregate { .. }
                    | LogicalPlan::Join { .. }
                    | LogicalPlan::Project { .. }
            )
        })
        .collect()
}

/// The subplan at `path`.
pub fn subplan_at<'a>(plan: &'a LogicalPlan, path: &[usize]) -> Option<&'a LogicalPlan> {
    let mut cur = plan;
    for &i in path {
        cur = *cur.children().get(i)?;
    }
    Some(cur)
}

/// A copy of `plan` with the subplan at `path` replaced by `replacement`;
/// `None` if the path names a child a node does not have.
pub fn replace_at(
    plan: &LogicalPlan,
    path: &[usize],
    replacement: LogicalPlan,
) -> Option<LogicalPlan> {
    let Some((&head, rest)) = path.split_first() else {
        return Some(replacement);
    };
    let sub = |p: &LogicalPlan| replace_at(p, rest, replacement).map(Box::new);
    Some(match (plan, head) {
        (LogicalPlan::Select { pred, input }, 0) => LogicalPlan::Select {
            pred: pred.clone(),
            input: sub(input)?,
        },
        (LogicalPlan::Project { cols, input }, 0) => LogicalPlan::Project {
            cols: cols.clone(),
            input: sub(input)?,
        },
        (
            LogicalPlan::Aggregate {
                group_by,
                aggs,
                input,
            },
            0,
        ) => LogicalPlan::Aggregate {
            group_by: group_by.clone(),
            aggs: aggs.clone(),
            input: sub(input)?,
        },
        (LogicalPlan::Join { left, right, on }, 0) => LogicalPlan::Join {
            left: sub(left)?,
            right: right.clone(),
            on: on.clone(),
        },
        (LogicalPlan::Join { left, right, on }, 1) => LogicalPlan::Join {
            left: left.clone(),
            right: sub(right)?,
            on: on.clone(),
        },
        _ => return None,
    })
}

/// The output column names of a plan, in order, without executing it.
/// `None` if a referenced table/column cannot be resolved.
pub fn output_columns(plan: &LogicalPlan, catalog: &Catalog) -> Option<Vec<String>> {
    match plan {
        LogicalPlan::Scan { table } => Some(
            catalog
                .get(table)?
                .schema
                .fields()
                .iter()
                .map(|f| f.name.clone())
                .collect(),
        ),
        LogicalPlan::ViewScan(v) => {
            Some(v.schema.fields().iter().map(|f| f.name.clone()).collect())
        }
        LogicalPlan::Select { input, .. } => output_columns(input, catalog),
        LogicalPlan::Project { cols, .. } => Some(cols.clone()),
        LogicalPlan::Join { left, right, .. } => {
            let mut l = output_columns(left, catalog)?;
            l.extend(output_columns(right, catalog)?);
            Some(l)
        }
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            let mut out = group_by.clone();
            out.extend(aggs.iter().map(|a| a.alias.clone()));
            Some(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggExpr;
    use deepsea_relation::Predicate;

    fn q() -> LogicalPlan {
        LogicalPlan::scan("a")
            .join(LogicalPlan::scan("b"), vec![("a.k", "b.k")])
            .select(Predicate::range("a.k", 0, 9))
            .aggregate(vec!["a.k"], vec![AggExpr::count("cnt")])
    }

    #[test]
    fn all_subplans_preorder() {
        let plan = q();
        let subs = all_subplans(&plan);
        assert_eq!(subs.len(), 5);
        assert!(subs[0].0.is_empty());
        assert!(matches!(subs[0].1, LogicalPlan::Aggregate { .. }));
        assert!(matches!(subs.last().unwrap().1, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn candidates_exclude_select_and_scan() {
        let plan = q();
        let cands = view_candidate_subplans(&plan);
        // aggregate (root) and join
        assert_eq!(cands.len(), 2);
        assert!(matches!(cands[0].1, LogicalPlan::Aggregate { .. }));
        assert!(matches!(cands[1].1, LogicalPlan::Join { .. }));
        // outer candidate comes first
        assert!(cands[0].0.len() < cands[1].0.len());
    }

    #[test]
    fn subplan_at_resolves_paths() {
        let plan = q();
        assert!(matches!(
            subplan_at(&plan, &[0, 0, 1]),
            Some(LogicalPlan::Scan { table }) if table == "b"
        ));
        assert!(subplan_at(&plan, &[0, 0, 5]).is_none());
    }

    #[test]
    fn replace_at_swaps_subtree() {
        let plan = q();
        let rewritten = replace_at(&plan, &[0, 0, 1], LogicalPlan::scan("c")).unwrap();
        assert_eq!(rewritten.base_tables(), vec!["a", "c"]);
        assert_eq!(plan.base_tables(), vec!["a", "b"], "original untouched");
        // Replacing at the root returns the replacement itself.
        let root = replace_at(&plan, &[], LogicalPlan::scan("x"));
        assert_eq!(root, Some(LogicalPlan::scan("x")));
    }

    #[test]
    fn replace_at_below_a_leaf_is_none() {
        assert_eq!(
            replace_at(&q(), &[0, 0, 1, 0], LogicalPlan::scan("c")),
            None
        );
    }

    #[test]
    fn replace_at_a_third_join_child_is_none() {
        assert_eq!(replace_at(&q(), &[0, 0, 2], LogicalPlan::scan("c")), None);
        assert_eq!(
            replace_at(&q(), &[1], LogicalPlan::scan("c")),
            None,
            "γ has one child"
        );
    }

    #[test]
    fn output_columns_for_each_shape() {
        use deepsea_relation::{DataType, Field, Schema, Table};
        let mut cat = Catalog::new();
        cat.register(
            "a",
            Table::empty(
                Schema::new(vec![
                    Field::new("a.k", DataType::Int),
                    Field::new("a.v", DataType::Int),
                ]),
                8,
            ),
        );
        cat.register(
            "b",
            Table::empty(Schema::new(vec![Field::new("b.k", DataType::Int)]), 8),
        );
        let plan = q();
        assert_eq!(
            output_columns(&plan, &cat),
            Some(vec!["a.k".into(), "cnt".into()])
        );
        let join = LogicalPlan::scan("a").join(LogicalPlan::scan("b"), vec![("a.k", "b.k")]);
        assert_eq!(
            output_columns(&join, &cat),
            Some(vec!["a.k".into(), "a.v".into(), "b.k".into()])
        );
        assert_eq!(output_columns(&LogicalPlan::scan("zzz"), &cat), None);
    }
}
