//! Compensation-based query rewriting against matched views.

use crate::catalog::Catalog;
use crate::plan::{LogicalPlan, ViewScanInfo};
use crate::signature::Compensation;
use crate::subquery::{output_columns, replace_at, subplan_at};

/// Build the plan fragment that computes the subquery from a view scan:
/// `π_order(σ_comp(ViewScan))`.
///
/// `original_columns` — the output columns (in order) of the subquery being
/// replaced — restores the exact schema the enclosing operators expect, which
/// the view may present in a different column order (e.g. after join-order
/// normalization).
pub fn compensated_view_scan(
    info: ViewScanInfo,
    comp: &Compensation,
    original_columns: &[String],
) -> LogicalPlan {
    let scan = LogicalPlan::ViewScan(info);
    let filtered = scan.select(comp.predicate());
    filtered.project(original_columns.to_vec())
}

/// Rewrite `plan` by replacing the subquery at `path` with a compensated scan
/// of the given view. Returns `None` if the path is invalid or the subquery's
/// output schema cannot be resolved.
pub fn rewrite_with_view(
    plan: &LogicalPlan,
    path: &[usize],
    info: ViewScanInfo,
    comp: &Compensation,
    catalog: &Catalog,
) -> Option<LogicalPlan> {
    let sub = subplan_at(plan, path)?;
    let cols = output_columns(sub, catalog)?;
    let replacement = compensated_view_scan(info, comp, &cols);
    Some(replace_at(plan, path, replacement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::plan::AggExpr;
    use crate::signature::{matches, Signature};
    use crate::subquery::view_candidate_subplans;
    use deepsea_relation::{DataType, Field, Predicate, Schema, Table, Value};
    use deepsea_storage::{BlockConfig, CostWeights, SimFs};

    fn fixture() -> (Catalog, SimFs<Table>) {
        let mut c = Catalog::new();
        let sales = Table::from_rows(
            Schema::new(vec![
                Field::new("s.item", DataType::Int),
                Field::new("s.amount", DataType::Float),
            ]),
            (0..50)
                .map(|i| vec![Value::Int(i % 10), Value::Float(i as f64)])
                .collect(),
            1000,
        );
        let item = Table::from_rows(
            Schema::new(vec![
                Field::new("i.item", DataType::Int),
                Field::new("i.cat", DataType::Str),
            ]),
            (0..10)
                .map(|i| vec![Value::Int(i), Value::str(format!("c{}", i % 3))])
                .collect(),
            100,
        );
        c.register("sales", sales);
        c.register("item", item);
        (
            c,
            SimFs::new(BlockConfig::new(4096), CostWeights::default()),
        )
    }

    /// End-to-end: materialize the join result as a view, rewrite a more
    /// selective query against it, and check the rewritten query returns the
    /// same rows as the original.
    #[test]
    fn rewritten_query_is_equivalent() {
        let (catalog, fs) = fixture();
        let join =
            LogicalPlan::scan("sales").join(LogicalPlan::scan("item"), vec![("s.item", "i.item")]);
        // Materialize the join result.
        let (view_table, _) = execute(&join, &catalog, &fs).unwrap();
        let schema = view_table.schema.clone();
        let bytes = view_table.sim_bytes();
        let (fid, _) = fs.create("v_join", bytes, view_table);

        // A narrower query on top of the same join.
        let query = join
            .clone()
            .select(Predicate::range("i.item", 2, 5))
            .aggregate(vec!["i.cat"], vec![AggExpr::count("cnt")]);

        // Find the join subquery and match it against the view.
        let vsig = Signature::of(&join).unwrap();
        let cands = view_candidate_subplans(&query);
        let (path, sub) = cands
            .iter()
            .find(|(_, p)| matches!(p, LogicalPlan::Join { .. }))
            .unwrap();
        let qsig = Signature::of(sub).unwrap();
        let comp = matches(&vsig, &qsig).expect("view matches join subquery");
        assert!(comp.is_exact(), "join subquery equals the view");

        let info = ViewScanInfo {
            view_name: "v_join".into(),
            files: vec![fid],
            schema,
            clip: None,
        };
        let rewritten = rewrite_with_view(&query, path, info, &comp, &catalog).unwrap();

        let (orig, orig_m) = execute(&query, &catalog, &fs).unwrap();
        let (rew, rew_m) = execute(&rewritten, &catalog, &fs).unwrap();
        assert_eq!(orig.fingerprint(), rew.fingerprint());
        // The rewritten query reads the (wider) view rows instead of both
        // base tables; here the view is bigger than `item` but the engine
        // still executes correctly. What matters for DeepSea is that the
        // elapsed-time accounting can now see fragment-level reads.
        assert!(rew_m.bytes_read > 0);
        assert!(orig_m.bytes_read > 0);
    }

    /// Rewriting the *whole* query (root path) against a view of itself.
    #[test]
    fn rewrite_at_root_with_compensation() {
        let (catalog, fs) = fixture();
        let wide = LogicalPlan::scan("sales")
            .join(LogicalPlan::scan("item"), vec![("s.item", "i.item")])
            .select(Predicate::range("i.item", 0, 8));
        let narrow = LogicalPlan::scan("sales")
            .join(LogicalPlan::scan("item"), vec![("s.item", "i.item")])
            .select(Predicate::range("i.item", 3, 4));

        let (vt, _) = execute(&wide, &catalog, &fs).unwrap();
        let schema = vt.schema.clone();
        let (fid, _) = fs.create("v_wide", vt.sim_bytes(), vt);

        let comp = matches(
            &Signature::of(&wide).unwrap(),
            &Signature::of(&narrow).unwrap(),
        )
        .expect("wider view matches");
        assert_eq!(comp.ranges.len(), 1);

        let info = ViewScanInfo {
            view_name: "v_wide".into(),
            files: vec![fid],
            schema,
            clip: None,
        };
        let rewritten = rewrite_with_view(&narrow, &[], info, &comp, &catalog).unwrap();
        let (orig, _) = execute(&narrow, &catalog, &fs).unwrap();
        let (rew, _) = execute(&rewritten, &catalog, &fs).unwrap();
        assert_eq!(orig.fingerprint(), rew.fingerprint());
        assert_eq!(
            orig.schema.fields().len(),
            rew.schema.fields().len(),
            "column order restored by the compensating projection"
        );
    }

    #[test]
    fn invalid_path_returns_none() {
        let (catalog, _fs) = fixture();
        let q = LogicalPlan::scan("sales");
        let info = ViewScanInfo {
            view_name: "v".into(),
            files: vec![],
            schema: Schema::default(),
            clip: None,
        };
        assert!(rewrite_with_view(&q, &[3], info, &Compensation::default(), &catalog).is_none());
    }
}
