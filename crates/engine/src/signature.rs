//! Query signatures and the sufficient matching condition.
//!
//! Following Goldstein & Larson ("Optimizing queries using materialized
//! views: a practical, scalable solution", SIGMOD 2001) — the technique §8.1
//! of the DeepSea paper adopts — a query's *signature* abstracts away syntax
//! (in particular join order) and records:
//!
//! - the multiset of base relations accessed,
//! - normalized equality join pairs (attribute equivalence classes),
//! - per-attribute range restrictions (intersected),
//! - remaining (equality) predicates,
//! - the projection column set,
//! - group-by columns and aggregate expressions.
//!
//! A view `V` can answer a query `Q` (logical matching) when `V` is *weaker*
//! on every filter and *wider* on every output: same relations and join
//! pairs, `V`'s ranges contain `Q`'s, `V`'s residuals are a subset of `Q`'s,
//! and `V` outputs every column `Q` needs. The difference becomes the
//! *compensation* applied on top of the view scan.

use std::collections::{BTreeMap, BTreeSet};

use deepsea_relation::{Predicate, Value};

use crate::plan::{AggExpr, LogicalPlan};

/// A per-attribute inclusive range restriction.
pub type RangeMap = BTreeMap<String, (i64, i64)>;

/// A query/view signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Base relations and their access counts.
    pub relations: BTreeMap<String, usize>,
    /// Normalized join equality pairs.
    pub join_pairs: BTreeSet<(String, String)>,
    /// Intersected range restrictions per attribute.
    pub ranges: RangeMap,
    /// Equality predicates `(column, value)` not absorbed into ranges.
    pub residuals: BTreeSet<(String, Value)>,
    /// Output columns (`None` = all columns of the join result).
    pub projection: Option<BTreeSet<String>>,
    /// Group-by columns, if the plan aggregates (sorted).
    pub group_by: Option<Vec<String>>,
    /// Canonical aggregate expressions, if the plan aggregates.
    pub aggs: Option<BTreeSet<String>>,
}

impl Signature {
    /// Compute the signature of a plan. Returns `None` for plan shapes the
    /// matcher does not support (nested aggregation, plans already using
    /// views).
    pub fn of(plan: &LogicalPlan) -> Option<Signature> {
        match plan {
            LogicalPlan::Scan { table } => Some(Signature {
                relations: BTreeMap::from([(table.clone(), 1)]),
                join_pairs: BTreeSet::new(),
                ranges: RangeMap::new(),
                residuals: BTreeSet::new(),
                projection: None,
                group_by: None,
                aggs: None,
            }),
            LogicalPlan::ViewScan(_) => None,
            LogicalPlan::Select { pred, input } => {
                let mut sig = Signature::of(input)?;
                sig.absorb_predicate(pred);
                Some(sig)
            }
            LogicalPlan::Project { cols, input } => {
                let mut sig = Signature::of(input)?;
                let set: BTreeSet<String> = cols.iter().cloned().collect();
                // Outer projections narrow inner ones.
                sig.projection = Some(match sig.projection {
                    None => set,
                    Some(prev) => prev.intersection(&set).cloned().collect(),
                });
                Some(sig)
            }
            LogicalPlan::Join { left, right, on } => {
                let l = Signature::of(left)?;
                let r = Signature::of(right)?;
                if l.group_by.is_some() || r.group_by.is_some() {
                    return None; // joins over aggregates unsupported
                }
                let mut relations = l.relations;
                for (t, n) in r.relations {
                    *relations.entry(t).or_insert(0) += n;
                }
                let mut join_pairs = l.join_pairs;
                join_pairs.extend(r.join_pairs);
                for (a, b) in on {
                    join_pairs.insert(normalize_pair(a, b));
                }
                let mut ranges = l.ranges;
                for (c, iv) in r.ranges {
                    merge_range(&mut ranges, c, iv);
                }
                let mut residuals = l.residuals;
                residuals.extend(r.residuals);
                // A projection below a join is unusual in our templates; give
                // up on tracking it precisely and treat output as "all".
                Some(Signature {
                    relations,
                    join_pairs,
                    ranges,
                    residuals,
                    projection: None,
                    group_by: None,
                    aggs: None,
                })
            }
            LogicalPlan::Aggregate {
                group_by,
                aggs,
                input,
            } => {
                let mut sig = Signature::of(input)?;
                if sig.group_by.is_some() {
                    return None; // nested aggregation unsupported
                }
                let mut gb = group_by.clone();
                gb.sort_unstable();
                sig.group_by = Some(gb);
                sig.aggs = Some(aggs.iter().map(AggExpr::canonical).collect());
                // Aggregate output = group-by columns + aggregate aliases.
                let mut out: BTreeSet<String> = group_by.iter().cloned().collect();
                out.extend(aggs.iter().map(|a| a.alias.clone()));
                sig.projection = Some(out);
                Some(sig)
            }
        }
    }

    fn absorb_predicate(&mut self, pred: &Predicate) {
        match pred {
            Predicate::True => {}
            Predicate::Range { col, low, high } => {
                merge_range(&mut self.ranges, col.clone(), (*low, *high));
            }
            Predicate::Eq { col, value } => {
                self.residuals.insert((col.clone(), value.clone()));
            }
            Predicate::And(ps) => {
                for p in ps {
                    self.absorb_predicate(p);
                }
            }
        }
    }

    /// The range restriction this signature places on `attr` (qualified or
    /// bare), if any. Used for partition matching (§8.2).
    pub fn range_on_attr(&self, attr: &str) -> Option<(i64, i64)> {
        if let Some(iv) = self.ranges.get(attr) {
            return Some(*iv);
        }
        let bare = short(attr);
        let mut found = None;
        for (c, iv) in &self.ranges {
            if short(c) == bare {
                if found.is_some() {
                    return None; // ambiguous
                }
                found = Some(*iv);
            }
        }
        found
    }

    /// Attributes with range restrictions, as written in the plan.
    pub fn range_attrs(&self) -> impl Iterator<Item = &str> {
        self.ranges.keys().map(String::as_str)
    }

    /// A stable, canonical key identifying the *view shape* of this
    /// signature: relations, join pairs, projection, grouping and aggregates,
    /// plus any residual/range predicates. Two plans with the same key
    /// compute the same result.
    pub fn canonical_key(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (t, n) in &self.relations {
            let _ = write!(s, "R:{t}*{n};");
        }
        for (a, b) in &self.join_pairs {
            let _ = write!(s, "J:{a}={b};");
        }
        for (c, (l, h)) in &self.ranges {
            let _ = write!(s, "S:{l}<={c}<={h};");
        }
        for (c, v) in &self.residuals {
            let _ = write!(s, "E:{c}={v};");
        }
        match &self.projection {
            None => s.push_str("P:*;"),
            Some(cols) => {
                let _ = write!(
                    s,
                    "P:{};",
                    cols.iter().cloned().collect::<Vec<_>>().join(",")
                );
            }
        }
        if let Some(gb) = &self.group_by {
            let _ = write!(s, "G:{};", gb.join(","));
        }
        if let Some(aggs) = &self.aggs {
            let _ = write!(
                s,
                "A:{};",
                aggs.iter().cloned().collect::<Vec<_>>().join(",")
            );
        }
        s
    }
}

/// What must be applied on top of a view scan to answer the query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Compensation {
    /// Range predicates to re-apply.
    pub ranges: Vec<(String, i64, i64)>,
    /// Equality predicates to re-apply.
    pub residuals: Vec<(String, Value)>,
    /// Columns to project (in sorted order), if narrowing is needed.
    pub projection: Option<Vec<String>>,
}

impl Compensation {
    /// True if the view answers the query with no further filtering.
    pub fn is_exact(&self) -> bool {
        self.ranges.is_empty() && self.residuals.is_empty() && self.projection.is_none()
    }

    /// Build the compensating predicate.
    pub fn predicate(&self) -> Predicate {
        let mut ps: Vec<Predicate> = self
            .ranges
            .iter()
            .map(|(c, l, h)| Predicate::range(c.clone(), *l, *h))
            .collect();
        ps.extend(
            self.residuals
                .iter()
                .map(|(c, v)| Predicate::eq(c.clone(), v.clone())),
        );
        Predicate::and(ps)
    }
}

/// Check the sufficient matching condition: can a view with signature `view`
/// be used to answer a (sub)query with signature `query`? On success returns
/// the compensation to apply on top of the view scan.
pub fn matches(view: &Signature, query: &Signature) -> Option<Compensation> {
    // 1. Same base relations (with multiplicity) and join structure.
    if view.relations != query.relations || view.join_pairs != query.join_pairs {
        return None;
    }
    // 2. Aggregation must line up exactly (no roll-up reasoning).
    if view.group_by != query.group_by || view.aggs != query.aggs {
        return None;
    }
    // 3. View predicates must be weaker.
    //    Every view range must contain the query's range on that attribute.
    let mut comp_ranges: Vec<(String, i64, i64)> = Vec::new();
    for (col, (vl, vh)) in &view.ranges {
        match lookup_range(&query.ranges, col) {
            Some((ql, qh)) if vl <= &ql && &qh <= vh => {}
            _ => return None,
        }
    }
    //    Query ranges not fully enforced by the view become compensation.
    for (col, (ql, qh)) in &query.ranges {
        let enforced = lookup_range(&view.ranges, col)
            .map(|(vl, vh)| vl == *ql && vh == *qh)
            .unwrap_or(false);
        if !enforced {
            comp_ranges.push((col.clone(), *ql, *qh));
        }
    }
    //    View residuals ⊆ query residuals; the difference is compensation.
    if !view.residuals.is_subset(&query.residuals) {
        return None;
    }
    let comp_residuals: Vec<(String, Value)> = query
        .residuals
        .difference(&view.residuals)
        .cloned()
        .collect();
    // 4. The view must output every column the query needs: the query's
    //    projection plus all compensation columns.
    let mut needed: BTreeSet<String> = match &query.projection {
        Some(cols) => cols.clone(),
        None => BTreeSet::new(),
    };
    let needs_all = query.projection.is_none();
    for (c, _, _) in &comp_ranges {
        needed.insert(c.clone());
    }
    for (c, _) in &comp_residuals {
        needed.insert(c.clone());
    }
    match &view.projection {
        None => {} // view keeps all columns
        Some(vcols) => {
            if needs_all && view.group_by.is_none() {
                // Query needs every column but the view dropped some. Only
                // safe if the view projection is exactly the query's (both
                // aggregates handled above).
                return None;
            }
            for n in &needed {
                if !set_contains_attr(vcols, n) {
                    return None;
                }
            }
        }
    }
    // 5. For aggregated views, compensation predicates must be over group-by
    //    columns (selection only commutes with γ on grouping attributes).
    if let Some(gb) = &view.group_by {
        let on_group = |c: &str| gb.iter().any(|g| g == c || short(g) == short(c));
        if !comp_ranges.iter().all(|(c, _, _)| on_group(c))
            || !comp_residuals.iter().all(|(c, _)| on_group(c))
        {
            return None;
        }
    }
    // Projection compensation: narrow only when the query wants fewer
    // columns than the view provides.
    let projection = match (&query.projection, &view.projection) {
        (Some(q), Some(v)) if q != v => Some(q.iter().cloned().collect()),
        (Some(q), None) => Some(q.iter().cloned().collect()),
        _ => None,
    };
    Some(Compensation {
        ranges: comp_ranges,
        residuals: comp_residuals,
        projection,
    })
}

fn normalize_pair(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

fn merge_range(ranges: &mut RangeMap, col: String, (low, high): (i64, i64)) {
    ranges
        .entry(col)
        .and_modify(|(l, h)| {
            *l = (*l).max(low);
            *h = (*h).min(high);
        })
        .or_insert((low, high));
}

fn short(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or(name)
}

fn lookup_range(ranges: &RangeMap, col: &str) -> Option<(i64, i64)> {
    if let Some(iv) = ranges.get(col) {
        return Some(*iv);
    }
    let bare = short(col);
    let mut found = None;
    for (c, iv) in ranges {
        if short(c) == bare {
            if found.is_some() {
                return None;
            }
            found = Some(*iv);
        }
    }
    found
}

fn set_contains_attr(set: &BTreeSet<String>, attr: &str) -> bool {
    set.contains(attr) || set.iter().any(|c| short(c) == short(attr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggExpr;

    fn base_join() -> LogicalPlan {
        LogicalPlan::scan("sales").join(LogicalPlan::scan("item"), vec![("s.item", "i.item")])
    }

    #[test]
    fn join_order_invariant() {
        let a = base_join();
        let b =
            LogicalPlan::scan("item").join(LogicalPlan::scan("sales"), vec![("i.item", "s.item")]);
        assert_eq!(
            Signature::of(&a).unwrap().canonical_key(),
            Signature::of(&b).unwrap().canonical_key()
        );
    }

    #[test]
    fn select_ranges_intersect() {
        let p = base_join()
            .select(Predicate::range("i.item", 0, 100))
            .select(Predicate::range("i.item", 50, 200));
        let sig = Signature::of(&p).unwrap();
        assert_eq!(sig.ranges.get("i.item"), Some(&(50, 100)));
        assert_eq!(sig.range_on_attr("item"), Some((50, 100)));
    }

    #[test]
    fn unrestricted_view_matches_restricted_query() {
        let v = Signature::of(&base_join()).unwrap();
        let q = Signature::of(&base_join().select(Predicate::range("i.item", 10, 20))).unwrap();
        let comp = matches(&v, &q).expect("should match");
        assert_eq!(comp.ranges, vec![("i.item".to_string(), 10, 20)]);
        assert!(!comp.is_exact());
    }

    #[test]
    fn restricted_view_rejects_wider_query() {
        let v = Signature::of(&base_join().select(Predicate::range("i.item", 10, 20))).unwrap();
        let q = Signature::of(&base_join().select(Predicate::range("i.item", 0, 100))).unwrap();
        assert!(matches(&v, &q).is_none());
    }

    #[test]
    fn restricted_view_matches_contained_query() {
        let v = Signature::of(&base_join().select(Predicate::range("i.item", 0, 100))).unwrap();
        let q = Signature::of(&base_join().select(Predicate::range("i.item", 10, 20))).unwrap();
        let comp = matches(&v, &q).expect("contained range matches");
        assert_eq!(comp.ranges, vec![("i.item".to_string(), 10, 20)]);
    }

    #[test]
    fn exact_match_has_no_compensation() {
        let p = base_join().select(Predicate::range("i.item", 10, 20));
        let v = Signature::of(&p).unwrap();
        let q = Signature::of(&p).unwrap();
        let comp = matches(&v, &q).expect("identical match");
        assert!(comp.is_exact(), "{comp:?}");
    }

    #[test]
    fn different_relations_reject() {
        let v = Signature::of(&LogicalPlan::scan("sales")).unwrap();
        let q = Signature::of(&LogicalPlan::scan("item")).unwrap();
        assert!(matches(&v, &q).is_none());
    }

    #[test]
    fn self_join_multiplicity_matters() {
        let one = Signature::of(&LogicalPlan::scan("t")).unwrap();
        let two =
            Signature::of(&LogicalPlan::scan("t").join(LogicalPlan::scan("t"), vec![("a", "b")]))
                .unwrap();
        assert!(matches(&one, &two).is_none());
        assert_eq!(two.relations.get("t"), Some(&2));
    }

    #[test]
    fn aggregate_must_match_exactly() {
        let qplan = base_join().aggregate(vec!["i.cat"], vec![AggExpr::count("cnt")]);
        let v = Signature::of(&qplan).unwrap();
        let q = Signature::of(&qplan).unwrap();
        assert!(matches(&v, &q).is_some());
        let other = base_join().aggregate(vec!["i.cat"], vec![AggExpr::count("n")]);
        // Same canonical aggregate but a different output alias: rejected
        // (conservatively — the rewriter resolves columns by name, and our
        // workload templates use fixed aliases so this never loses a reuse).
        assert!(matches(&Signature::of(&other).unwrap(), &q).is_none());
        let diff = base_join().aggregate(vec!["s.item"], vec![AggExpr::count("cnt")]);
        assert!(matches(&Signature::of(&diff).unwrap(), &q).is_none());
    }

    #[test]
    fn aggregated_view_takes_group_by_compensation_only() {
        let view_plan = base_join().aggregate(vec!["i.item"], vec![AggExpr::count("cnt")]);
        let v = Signature::of(&view_plan).unwrap();
        // Selection on the group-by column: OK.
        let q1 = Signature::of(
            &base_join()
                .select(Predicate::range("i.item", 0, 5))
                .aggregate(vec!["i.item"], vec![AggExpr::count("cnt")]),
        )
        .unwrap();
        assert!(matches(&v, &q1).is_some());
        // Selection on a non-grouping column: must reject.
        let q2 = Signature::of(
            &base_join()
                .select(Predicate::range("s.price", 0, 5))
                .aggregate(vec!["i.item"], vec![AggExpr::count("cnt")]),
        )
        .unwrap();
        assert!(matches(&v, &q2).is_none());
    }

    #[test]
    fn residual_eq_subset_rule() {
        let v = Signature::of(&base_join().select(Predicate::eq("i.cat", "a"))).unwrap();
        let q = Signature::of(&base_join().select(Predicate::and(vec![
            Predicate::eq("i.cat", "a"),
            Predicate::eq("i.brand", "b"),
        ])))
        .unwrap();
        let comp = matches(&v, &q).expect("subset residuals match");
        assert_eq!(comp.residuals.len(), 1);
        assert!(matches(&q, &v).is_none(), "superset residuals don't");
    }

    #[test]
    fn projection_view_must_cover_query_columns() {
        let v = Signature::of(&base_join().project(vec!["i.item", "s.amount"])).unwrap();
        let q_ok = Signature::of(&base_join().project(vec!["i.item"])).unwrap();
        assert!(matches(&v, &q_ok).is_some());
        let q_more = Signature::of(&base_join().project(vec!["i.cat"])).unwrap();
        assert!(matches(&v, &q_more).is_none());
        // Query needing all columns can't use a projected view.
        let q_all = Signature::of(&base_join()).unwrap();
        assert!(matches(&v, &q_all).is_none());
    }

    #[test]
    fn view_scan_plans_have_no_signature() {
        let p = LogicalPlan::ViewScan(crate::plan::ViewScanInfo {
            view_name: "v".into(),
            files: vec![],
            schema: deepsea_relation::Schema::default(),
            clip: None,
        });
        assert!(Signature::of(&p).is_none());
    }

    #[test]
    fn canonical_key_distinguishes_ranges() {
        let a = Signature::of(&base_join().select(Predicate::range("i.item", 0, 1))).unwrap();
        let b = Signature::of(&base_join().select(Predicate::range("i.item", 0, 2))).unwrap();
        assert_ne!(a.canonical_key(), b.canonical_key());
    }
}
