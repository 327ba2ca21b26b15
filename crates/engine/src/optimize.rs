//! Plan optimization passes.
//!
//! The only rewrite the reproduction needs is **predicate pushdown**: §10.2
//! notes that "most optimizers will push down selections for reducing the
//! size of intermediate results. Our materialization strategy requires that
//! selections are not pushed down and hence we incur a performance hit
//! initially." The vanilla-Hive baseline therefore runs *with* pushdown,
//! while DeepSea's instrumented plans keep selections above the
//! materialization point.

use deepsea_relation::Predicate;

use crate::catalog::Catalog;
use crate::plan::LogicalPlan;

/// Push selection conjuncts as far down the plan as their column references
/// allow. Conjuncts whose columns all come from one side of a join move below
/// it; the rest stay in place. Idempotent.
pub fn push_down_selections(plan: &LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    match plan {
        LogicalPlan::Select { pred, input } => {
            let inner = push_down_selections(input, catalog);
            let conjuncts: Vec<Predicate> = pred.conjuncts().into_iter().cloned().collect();
            push_conjuncts(inner, conjuncts, catalog)
        }
        LogicalPlan::Project { cols, input } => LogicalPlan::Project {
            cols: cols.clone(),
            input: Box::new(push_down_selections(input, catalog)),
        },
        LogicalPlan::Aggregate {
            group_by,
            aggs,
            input,
        } => LogicalPlan::Aggregate {
            group_by: group_by.clone(),
            aggs: aggs.clone(),
            input: Box::new(push_down_selections(input, catalog)),
        },
        LogicalPlan::Join { left, right, on } => LogicalPlan::Join {
            left: Box::new(push_down_selections(left, catalog)),
            right: Box::new(push_down_selections(right, catalog)),
            on: on.clone(),
        },
        leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::ViewScan(_)) => leaf.clone(),
    }
}

/// Place each conjunct at the deepest node of `plan` that provides all its
/// columns.
fn push_conjuncts(plan: LogicalPlan, conjuncts: Vec<Predicate>, catalog: &Catalog) -> LogicalPlan {
    match plan {
        LogicalPlan::Join { left, right, on } => {
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut stay = Vec::new();
            for c in conjuncts {
                if covers_columns(&left, &c, catalog) {
                    to_left.push(c);
                } else if covers_columns(&right, &c, catalog) {
                    to_right.push(c);
                } else {
                    stay.push(c);
                }
            }
            let new_left = push_conjuncts(*left, to_left, catalog);
            let new_right = push_conjuncts(*right, to_right, catalog);
            LogicalPlan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                on,
            }
            .select(Predicate::and(stay))
        }
        // Selections merge; anything else receives the filter on top.
        LogicalPlan::Select { pred, input } => {
            let mut all = conjuncts;
            all.extend(pred.conjuncts().into_iter().cloned());
            push_conjuncts(*input, all, catalog)
        }
        other => other.select(Predicate::and(conjuncts)),
    }
}

/// Does `plan` provide every column the predicate references?
fn covers_columns(plan: &LogicalPlan, pred: &Predicate, catalog: &Catalog) -> bool {
    let provided = crate::subquery::output_columns(plan, catalog);
    let Some(provided) = provided else {
        return false;
    };
    pred.columns().iter().all(|c| {
        provided
            .iter()
            .any(|p| p == c || p.rsplit('.').next() == c.rsplit('.').next())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use deepsea_relation::{DataType, Field, Schema, Table, Value};
    use deepsea_storage::{BlockConfig, CostWeights, SimFs};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "fact",
            Table::from_rows(
                Schema::new(vec![
                    Field::new("fact.k", DataType::Int),
                    Field::new("fact.v", DataType::Float),
                ]),
                (0..100)
                    .map(|i| vec![Value::Int(i % 20), Value::Float(i as f64)])
                    .collect(),
                100,
            ),
        );
        c.register(
            "dim",
            Table::from_rows(
                Schema::new(vec![
                    Field::new("dim.k", DataType::Int),
                    Field::new("dim.label", DataType::Str),
                ]),
                (0..20)
                    .map(|i| vec![Value::Int(i), Value::str(format!("l{i}"))])
                    .collect(),
                10,
            ),
        );
        c
    }

    fn q() -> LogicalPlan {
        LogicalPlan::scan("fact")
            .join(LogicalPlan::scan("dim"), vec![("fact.k", "dim.k")])
            .select(Predicate::and(vec![
                Predicate::range("fact.k", 3, 8),
                Predicate::eq("dim.label", "l5"),
            ]))
    }

    #[test]
    fn pushdown_moves_single_side_conjuncts_below_join() {
        let cat = catalog();
        let optimized = push_down_selections(&q(), &cat);
        // Both conjuncts sink: the root is the join itself.
        let LogicalPlan::Join { left, right, .. } = &optimized else {
            panic!("expected join at root, got {optimized:?}");
        };
        assert!(matches!(&**left, LogicalPlan::Select { .. }));
        assert!(matches!(&**right, LogicalPlan::Select { .. }));
    }

    #[test]
    fn pushdown_preserves_results() {
        let cat = catalog();
        let fs: SimFs<Table> = SimFs::new(BlockConfig::new(1024), CostWeights::default());
        let (plain, plain_m) = execute(&q(), &cat, &fs).unwrap();
        let optimized = push_down_selections(&q(), &cat);
        let (opt, opt_m) = execute(&optimized, &cat, &fs).unwrap();
        assert_eq!(plain.fingerprint(), opt.fingerprint());
        // Pushdown shrinks the join inputs → fewer shuffled bytes.
        assert!(opt_m.shuffle_bytes < plain_m.shuffle_bytes);
    }

    #[test]
    fn pushdown_is_idempotent() {
        let cat = catalog();
        let once = push_down_selections(&q(), &cat);
        let twice = push_down_selections(&once, &cat);
        assert_eq!(once, twice);
    }

    #[test]
    fn cross_side_predicates_stay_above_the_join() {
        let cat = catalog();
        // A predicate referencing columns from both sides cannot sink.
        // (Use an Eq on a column from each side via an And.)
        let plan = LogicalPlan::scan("fact")
            .join(LogicalPlan::scan("dim"), vec![("fact.k", "dim.k")])
            .select(Predicate::eq("nonexistent.col", 1));
        let optimized = push_down_selections(&plan, &cat);
        assert!(
            matches!(optimized, LogicalPlan::Select { .. }),
            "unresolvable predicate stays put: {optimized:?}"
        );
    }

    #[test]
    fn pushdown_through_aggregate_input() {
        let cat = catalog();
        let plan = q().aggregate(vec!["dim.label"], vec![crate::plan::AggExpr::count("c")]);
        let optimized = push_down_selections(&plan, &cat);
        let LogicalPlan::Aggregate { input, .. } = &optimized else {
            panic!()
        };
        assert!(matches!(&**input, LogicalPlan::Join { .. }));
        let fs: SimFs<Table> = SimFs::new(BlockConfig::new(1024), CostWeights::default());
        let (a, _) = execute(&plan, &cat, &fs).unwrap();
        let (b, _) = execute(&optimized, &cat, &fs).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
