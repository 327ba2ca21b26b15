//! Base-table catalog.

use std::collections::BTreeMap;
use std::sync::Arc;

use deepsea_relation::Table;

/// Per-column statistics the cost estimator uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    /// Minimum integer value (for ordered columns), if any.
    pub min: i64,
    /// Maximum integer value.
    pub max: i64,
}

/// A registered table and the per-column statistics taken when it was
/// registered (tables are immutable behind their `Arc`, so they stay true).
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
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table under `name`, scanning its columns once for the
    /// statistics [`Catalog::column_stats`] serves.
    pub fn register(&mut self, name: impl Into<String>, table: Table) {
        let stats = (0..table.schema.len())
            .map(|c| {
                table
                    .int_min_max(c)
                    .map(|(min, max)| ColumnStats { min, max })
            })
            .collect();
        let table = Arc::new(table);
        self.tables.insert(name.into(), Entry { table, stats });
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
    }
}
