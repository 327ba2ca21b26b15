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
}

/// Named base tables plus lightweight statistics.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Entry>,
    /// Names these tables: fresh on construction and on every
    /// registration, kept by a clone, which holds the same tables.
    stamp: Stamp,
}

/// One pass over `col`: its integer min/max, NULLs ignored; `None` for a
/// column of another type and for one without a value.
fn scan_column(col: &Col) -> Option<ColumnStats> {
    let mut stats: Option<ColumnStats> = None;
    col.for_each_int(col.len(), |_, x| {
        let Some(x) = x else {
            return;
        };
        stats = Some(match stats {
            None => ColumnStats { min: x, max: x },
            Some(s) => ColumnStats {
                min: s.min.min(x),
                max: s.max.max(x),
            },
        });
    });
    stats
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table under `name`, scanning each column once for the
    /// statistics [`Catalog::column_stats`] serves. Whether a column is a
    /// surrogate key, which the executor's joins address by position, is
    /// the column's own answer (`Col::surrogate_first`), worked out when a
    /// join first asks.
    pub fn register(&mut self, name: impl Into<String>, table: Table) {
        let stats = table.columns().iter().map(scan_column).collect();
        let table = Arc::new(table);
        self.tables.insert(name.into(), Entry { table, stats });
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
        // NULLs are skipped (their slots hold 0); other types have none.
        let schema = Schema::new(vec![
            Field::new("u.k", DataType::Int),
            Field::new("u.f", DataType::Float),
        ]);
        let rows = [Value::Int(5), Value::Null, Value::Int(2)].map(|k| vec![k, Value::Float(1.0)]);
        c.register("u", Table::from_rows(schema, rows.to_vec(), 8));
        assert_eq!(
            c.column_stats("u", "u.k"),
            Some(ColumnStats { min: 2, max: 5 })
        );
        assert!(c.column_stats("u", "u.f").is_none());

        // Min and max of a one-column table of `values`.
        let mut stats = |values: &[Value]| {
            let schema = Schema::new(vec![Field::new("v.k", DataType::Int)]);
            let rows = values.iter().map(|v| vec![v.clone()]).collect();
            c.register("v", Table::from_rows(schema, rows, 8));
            c.column_stats("v", "v.k").map(|s| (s.min, s.max))
        };
        let ints = |keys: &[i64]| keys.iter().map(|&k| Value::Int(k)).collect::<Vec<_>>();
        assert_eq!(stats(&ints(&[7, 8, 9, 10])), Some((7, 10)));
        assert_eq!(stats(&ints(&[42])), Some((42, 42)), "one row");
        assert_eq!(stats(&ints(&[0, 1, 3, 4])), Some((0, 4)), "a gap");
        assert_eq!(stats(&ints(&[3, 2, 1, 0])), Some((0, 3)), "descending");
        assert_eq!(stats(&[]), None, "empty");
        assert_eq!(stats(&[Value::Null]), None, "all NULL");
    }
}
