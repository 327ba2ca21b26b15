//! Logical plan algebra.

use std::fmt;

use deepsea_relation::{Predicate, Schema, Value};
use deepsea_storage::FileId;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)`.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)`.
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        };
        f.write_str(s)
    }
}

/// One aggregate expression, e.g. `SUM(ss.net_paid) AS total`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Input column; `None` only for `COUNT(*)`.
    pub col: Option<String>,
    /// Output column name.
    pub alias: String,
}

impl AggExpr {
    /// `COUNT(*) AS alias`.
    pub fn count(alias: impl Into<String>) -> Self {
        Self {
            func: AggFunc::Count,
            col: None,
            alias: alias.into(),
        }
    }

    /// `func(col) AS alias`.
    pub fn of(func: AggFunc, col: impl Into<String>, alias: impl Into<String>) -> Self {
        Self {
            func,
            col: Some(col.into()),
            alias: alias.into(),
        }
    }

    /// Canonical string, e.g. `sum(ss.net_paid)`.
    pub fn canonical(&self) -> String {
        match &self.col {
            Some(c) => format!("{}({})", self.func, c),
            None => format!("{}(*)", self.func),
        }
    }
}

/// How to scan a cover of *overlapping* fragments without returning a row
/// twice: every file after the first skips the values an earlier file of the
/// cover already delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapClip {
    /// The partition attribute the fragments were cut on.
    pub attr: String,
    /// Per entry of [`ViewScanInfo::files`]: take only the rows whose `attr`
    /// is at least this; `None` takes the whole file.
    pub from: Vec<Option<i64>>,
}

/// Information needed to scan a materialized (possibly partitioned) view:
/// the fragment files to read and the view's schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewScanInfo {
    /// Name of the view (for reports).
    pub view_name: String,
    /// Fragment files to read, in domain order.
    pub files: Vec<FileId>,
    /// Schema of the view output.
    pub schema: Schema,
    /// Set when fragments in `files` overlap. Every file is still read (and
    /// charged) whole — that is what the paper's cost model prices — but the
    /// rows in an overlap are taken from one file only. Boxed: it is rare,
    /// and every plan node is as large as its largest variant.
    pub clip: Option<Box<OverlapClip>>,
}

/// A logical query plan.
///
/// The algebra covers exactly the query class the paper's evaluation uses:
/// select-project-join-aggregate with conjunctive range/equality selections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicalPlan {
    /// Scan of a base table by catalog name.
    Scan {
        /// Catalog table name.
        table: String,
    },
    /// Selection.
    Select {
        /// Filter predicate.
        pred: Predicate,
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Projection onto named columns.
    Project {
        /// Output columns, in order.
        cols: Vec<String>,
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Inner equi-join.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Equality pairs `(left_col, right_col)`.
        on: Vec<(String, String)>,
    },
    /// Hash aggregation.
    Aggregate {
        /// Group-by columns (empty = global aggregate).
        group_by: Vec<String>,
        /// Aggregate expressions.
        aggs: Vec<AggExpr>,
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Scan of a materialized view's fragments.
    ViewScan(ViewScanInfo),
}

impl LogicalPlan {
    /// Scan builder.
    pub fn scan(table: impl Into<String>) -> Self {
        LogicalPlan::Scan {
            table: table.into(),
        }
    }

    /// Selection builder (drops `Predicate::True`).
    pub fn select(self, pred: Predicate) -> Self {
        if pred == Predicate::True {
            return self;
        }
        LogicalPlan::Select {
            pred,
            input: Box::new(self),
        }
    }

    /// Projection builder.
    pub fn project(self, cols: Vec<impl Into<String>>) -> Self {
        LogicalPlan::Project {
            cols: cols.into_iter().map(Into::into).collect(),
            input: Box::new(self),
        }
    }

    /// Join builder.
    pub fn join(self, right: LogicalPlan, on: Vec<(impl Into<String>, impl Into<String>)>) -> Self {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on: on.into_iter().map(|(l, r)| (l.into(), r.into())).collect(),
        }
    }

    /// Aggregation builder.
    pub fn aggregate(self, group_by: Vec<impl Into<String>>, aggs: Vec<AggExpr>) -> Self {
        LogicalPlan::Aggregate {
            group_by: group_by.into_iter().map(Into::into).collect(),
            aggs,
            input: Box::new(self),
        }
    }

    /// Direct children of this node.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::ViewScan(_) => vec![],
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Base tables referenced, sorted and deduplicated.
    pub fn base_tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        fn walk<'a>(p: &'a LogicalPlan, out: &mut Vec<&'a str>) {
            if let LogicalPlan::Scan { table } = p {
                out.push(table.as_str());
            }
            for c in p.children() {
                walk(c, out);
            }
        }
        walk(self, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of operator nodes.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// The plan written out whole, each literal with its type: two plans
    /// have one key exactly when they are the same plan. `==` is coarser:
    /// it takes `Int(2^53 + 1)` for `Float(2^53)`, though the two keep
    /// different rows of an integer column.
    pub fn exact_key(&self) -> Vec<u8> {
        let mut key = Vec::with_capacity(256);
        write_key(self, &mut key);
        key
    }

    /// One-line plan rendering for logs and reports.
    pub fn display_compact(&self) -> String {
        match self {
            LogicalPlan::Scan { table } => table.clone(),
            LogicalPlan::ViewScan(v) => format!("view:{}[{}]", v.view_name, v.files.len()),
            LogicalPlan::Select { pred, input } => {
                format!("σ[{:?}]({})", pred_summary(pred), input.display_compact())
            }
            LogicalPlan::Project { cols, input } => {
                format!("π[{}]({})", cols.len(), input.display_compact())
            }
            LogicalPlan::Join { left, right, .. } => {
                format!("({} ⋈ {})", left.display_compact(), right.display_compact())
            }
            LogicalPlan::Aggregate {
                group_by, input, ..
            } => {
                format!("γ[{}]({})", group_by.join(","), input.display_compact())
            }
        }
    }
}

/// Append `plan` to `out`: each node and literal behind a tag, each
/// variable-length part behind its length, so a key decodes one way only.
fn write_key(plan: &LogicalPlan, out: &mut Vec<u8>) {
    match plan {
        LogicalPlan::Scan { table } => {
            out.push(0);
            key_str(out, table);
        }
        LogicalPlan::Select { pred, input } => {
            out.push(1);
            key_pred(out, pred);
            write_key(input, out);
        }
        LogicalPlan::Project { cols, input } => {
            out.push(2);
            key_num(out, cols.len() as u64);
            cols.iter().for_each(|c| key_str(out, c));
            write_key(input, out);
        }
        LogicalPlan::Join { left, right, on } => {
            out.push(3);
            key_num(out, on.len() as u64);
            for (a, b) in on {
                key_str(out, a);
                key_str(out, b);
            }
            write_key(left, out);
            write_key(right, out);
        }
        LogicalPlan::Aggregate {
            group_by,
            aggs,
            input,
        } => {
            out.push(4);
            key_num(out, group_by.len() as u64);
            group_by.iter().for_each(|g| key_str(out, g));
            key_num(out, aggs.len() as u64);
            for a in aggs {
                out.push(a.func as u8);
                key_opt(out, a.col.as_ref(), |out, c| key_str(out, c));
                key_str(out, &a.alias);
            }
            write_key(input, out);
        }
        LogicalPlan::ViewScan(v) => {
            out.push(5);
            key_str(out, &v.view_name);
            key_num(out, v.files.len() as u64);
            v.files.iter().for_each(|f| key_num(out, f.0));
            key_num(out, v.schema.len() as u64);
            for f in v.schema.fields() {
                key_str(out, &f.name);
                out.push(f.dtype as u8);
            }
            key_opt(out, v.clip.as_deref(), |out, c| {
                key_str(out, &c.attr);
                key_num(out, c.from.len() as u64);
                for from in &c.from {
                    key_opt(out, from.as_ref(), |out, &x| key_num(out, x as u64));
                }
            });
        }
    }
}

fn key_pred(out: &mut Vec<u8>, p: &Predicate) {
    match p {
        Predicate::True => out.push(0),
        Predicate::Range { col, low, high } => {
            out.push(1);
            key_str(out, col);
            key_num(out, *low as u64);
            key_num(out, *high as u64);
        }
        Predicate::Eq { col, value } => {
            out.push(2);
            key_str(out, col);
            match value {
                Value::Null => out.push(0),
                Value::Int(i) => {
                    out.push(1);
                    key_num(out, *i as u64);
                }
                Value::Float(x) => {
                    out.push(2);
                    key_num(out, x.to_bits());
                }
                Value::Str(s) => {
                    out.push(3);
                    key_str(out, s);
                }
            }
        }
        Predicate::And(ps) => {
            out.push(3);
            key_num(out, ps.len() as u64);
            ps.iter().for_each(|p| key_pred(out, p));
        }
    }
}

fn key_num(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn key_str(out: &mut Vec<u8>, s: &str) {
    key_num(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn key_opt<T>(out: &mut Vec<u8>, x: Option<T>, some: impl FnOnce(&mut Vec<u8>, T)) {
    match x {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            some(out, x);
        }
    }
}

fn pred_summary(p: &Predicate) -> String {
    match p {
        Predicate::Range { col, low, high } => format!("{low}≤{col}≤{high}"),
        Predicate::Eq { col, value } => format!("{col}={value}"),
        Predicate::And(ps) => ps.iter().map(pred_summary).collect::<Vec<_>>().join("∧"),
        Predicate::True => "⊤".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> LogicalPlan {
        LogicalPlan::scan("store_sales")
            .join(LogicalPlan::scan("item"), vec![("ss.item_sk", "i.item_sk")])
            .select(Predicate::range("i.item_sk", 10, 20))
            .aggregate(vec!["i.category"], vec![AggExpr::count("cnt")])
    }

    #[test]
    fn base_tables_sorted_unique() {
        assert_eq!(q().base_tables(), vec!["item", "store_sales"]);
        let self_join = LogicalPlan::scan("t").join(LogicalPlan::scan("t"), vec![("a", "b")]);
        assert_eq!(self_join.base_tables(), vec!["t"]);
    }

    #[test]
    fn node_count() {
        // scan, scan, join, select, aggregate
        assert_eq!(q().node_count(), 5);
    }

    #[test]
    fn select_true_is_identity() {
        let s = LogicalPlan::scan("t").select(Predicate::True);
        assert_eq!(s, LogicalPlan::scan("t"));
    }

    #[test]
    fn agg_canonical() {
        assert_eq!(AggExpr::count("c").canonical(), "count(*)");
        assert_eq!(AggExpr::of(AggFunc::Sum, "x", "s").canonical(), "sum(x)");
    }

    #[test]
    fn display_compact_mentions_shape() {
        let d = q().display_compact();
        assert!(d.contains('⋈'));
        assert!(d.contains('γ'));
    }
}
