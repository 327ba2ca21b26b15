//! Base-table catalog.

use std::collections::BTreeMap;
use std::sync::Arc;

use deepsea_relation::{Col, Table};
use deepsea_storage::Stamp;

/// Per-column statistics the cost estimator uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    /// Minimum integer value (for ordered columns), if any.
    pub min: i64,
    /// Maximum integer value.
    pub max: i64,
}

/// A registered table and what [`Catalog::register`] learned of its columns
/// (tables are immutable behind their `Arc`, so it stays true).
#[derive(Debug, Clone)]
struct Entry {
    table: Arc<Table>,
    /// Integer min/max of each column, in schema order.
    stats: Vec<Option<ColumnStats>>,
    /// Per column, in schema order, `Some(first)` for a surrogate key: row
    /// `r` holds `first + r` and no row is NULL.
    keys: Vec<Option<i64>>,
}

/// Named base tables plus lightweight statistics.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Entry>,
    /// Names these tables: fresh on construction and on every
    /// registration, kept by a clone, which holds the same tables.
    stamp: Stamp,
}

/// One pass over `col`: its integer min/max, NULLs ignored, and, when it is
/// a surrogate key — no NULL, row `r` holding `min + r` — `Some(min)`. Both
/// are `None` for a column of another type and for one without a value.
fn scan_column(col: &Col) -> (Option<ColumnStats>, Option<i64>) {
    let mut stats: Option<ColumnStats> = None;
    let mut serial = true;
    let mut start = None;
    col.for_each_int(col.len(), |r, x| {
        let Some(x) = x else {
            serial = false;
            return;
        };
        // Checked until the first row that breaks the rule; `checked_add`
        // fails a run that would pass `i64::MAX`.
        serial = serial && start.get_or_insert(x).checked_add(r as i64) == Some(x);
        stats = Some(match stats {
            None => ColumnStats { min: x, max: x },
            Some(s) => ColumnStats {
                min: s.min.min(x),
                max: s.max.max(x),
            },
        });
    });
    (stats, stats.filter(|_| serial).map(|s| s.min))
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table under `name`, scanning each column once for the
    /// statistics [`Catalog::column_stats`] serves and for whether it is a
    /// surrogate key, which the executor's joins address by position.
    pub fn register(&mut self, name: impl Into<String>, table: Table) {
        let (stats, keys) = table.columns().iter().map(scan_column).unzip();
        let table = Arc::new(table);
        self.tables
            .insert(name.into(), Entry { table, stats, keys });
        self.stamp = Stamp::fresh();
    }

    /// The stamp naming this catalog's current tables: two catalogs with
    /// one stamp hold the same tables under the same names.
    pub fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// Look up a table.
    pub fn get(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(name).map(|e| &e.table)
    }

    /// A table and, per column in schema order, `Some(first)` for a
    /// surrogate key: row `r` holds `first + r` and no row is NULL.
    pub(crate) fn get_with_keys(&self, name: &str) -> Option<(&Arc<Table>, &[Option<i64>])> {
        self.tables.get(name).map(|e| (&e.table, e.keys.as_slice()))
    }

    /// Iterate over `(name, table)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<Table>)> {
        self.tables.iter().map(|(n, e)| (n.as_str(), &e.table))
    }

    /// Total simulated bytes across all base tables (the paper expresses pool
    /// sizes as a percentage of this).
    pub fn total_base_bytes(&self) -> u64 {
        self.tables.values().map(|e| e.table.sim_bytes()).sum()
    }

    /// Integer min/max stats for `table.column`, if it has integer values.
    pub fn column_stats(&self, table: &str, column: &str) -> Option<ColumnStats> {
        let e = self.tables.get(table)?;
        e.stats[e.table.schema.index_of(column)?]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsea_relation::{DataType, Field, Schema, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![Field::new("t.a", DataType::Int)]);
        Table::from_rows(schema, vec![vec![Value::Int(5)], vec![Value::Int(-1)]], 100)
    }

    #[test]
    fn register_and_get() {
        let mut c = Catalog::new();
        c.register("t", table());
        assert!(c.get("t").is_some());
        assert!(c.get("u").is_none());
        assert_eq!(c.total_base_bytes(), 200);
    }

    #[test]
    fn column_stats() {
        let mut c = Catalog::new();
        c.register("t", table());
        let s = c.column_stats("t", "t.a").unwrap();
        assert_eq!((s.min, s.max), (-1, 5));
        assert_eq!(c.column_stats("t", "a").map(|s| s.max), Some(5));
        assert!(c.column_stats("t", "zz").is_none());
        assert!(c.column_stats("zz", "a").is_none());
    }

    /// The surrogate-key start `register` records for a one-column table of
    /// `values`, and its min/max.
    fn key_of(dtype: DataType, values: &[Value]) -> (Option<i64>, Option<(i64, i64)>) {
        let schema = Schema::new(vec![Field::new("t.k", dtype)]);
        let rows = values.iter().map(|v| vec![v.clone()]).collect();
        let mut c = Catalog::new();
        c.register("t", Table::from_rows(schema, rows, 8));
        let (_, keys) = c.get_with_keys("t").unwrap();
        let stats = c.column_stats("t", "t.k").map(|s| (s.min, s.max));
        (keys[0], stats)
    }

    fn ints(keys: &[i64]) -> (Option<i64>, Option<(i64, i64)>) {
        let values: Vec<Value> = keys.iter().map(|&k| Value::Int(k)).collect();
        key_of(DataType::Int, &values)
    }

    #[test]
    fn surrogate_keys_are_runs_of_consecutive_integers_from_row_zero() {
        assert_eq!(ints(&[7, 8, 9, 10]), (Some(7), Some((7, 10))));
        assert_eq!(ints(&[-3, -2, -1, 0, 1]).0, Some(-3));
        assert_eq!(ints(&[42]), (Some(42), Some((42, 42))), "one row");
        let top = [i64::MAX - 2, i64::MAX - 1, i64::MAX];
        assert_eq!(ints(&top).0, Some(i64::MAX - 2), "a run ending at MAX");

        assert_eq!(ints(&[]), (None, None), "empty");
        assert_eq!(ints(&[0, 1, 3, 4]), (None, Some((0, 4))), "a gap");
        assert_eq!(ints(&[0, 1, 1, 2]).0, None, "a duplicate");
        assert_eq!(ints(&[3, 2, 1, 0]), (None, Some((0, 3))), "descending");
        assert_eq!(ints(&[1, 0, 2, 3]).0, None, "the minimum not first");
        // `first + r` passes i64::MAX: no run, whatever the wrapped value.
        assert_eq!(ints(&[i64::MAX, i64::MIN]).0, None, "overflow");
        assert_eq!(ints(&[i64::MAX - 1, i64::MAX, i64::MIN]).0, None);

        // A NULL breaks a run; min/max skip it (its slot holds 0).
        let null = [Value::Int(5), Value::Null, Value::Int(2)];
        assert_eq!(key_of(DataType::Int, &null), (None, Some((2, 5))), "NULL");
        assert_eq!(key_of(DataType::Int, &[Value::Null, Value::Int(1)]).0, None);
        assert_eq!(key_of(DataType::Int, &[Value::Null]), (None, None));
        let floats = [Value::Float(0.0), Value::Float(1.0)];
        assert_eq!(
            key_of(DataType::Float, &floats),
            (None, None),
            "not integers"
        );
    }
}
