//! In-memory columnar tables with simulated on-disk sizes.

use std::sync::Arc;

use crate::column::Column;
use crate::row::Row;
use crate::schema::Schema;

/// An in-memory table: one typed [`Column`] per schema field, each behind an
/// `Arc` so scans, projections and fragment reads share them without copying.
///
/// `bytes_per_row` is the *simulated* on-disk width of one row. Experiments
/// run on scaled-down row counts while cost accounting happens in simulated
/// bytes, so a "100 GB" instance is a table with, say, 200 000 rows and
/// `bytes_per_row = 500 000`.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The table's schema.
    pub schema: Schema,
    columns: Vec<Arc<Column>>,
    len: usize,
    /// Simulated on-disk bytes per row.
    pub bytes_per_row: u64,
}

impl Table {
    /// Create a table from its columns.
    ///
    /// # Panics
    /// Panics if the columns do not match the schema in number or type, or
    /// differ in length.
    pub fn new(schema: Schema, columns: Vec<Arc<Column>>, bytes_per_row: u64) -> Self {
        assert_eq!(columns.len(), schema.len(), "one column per schema field");
        let len = columns.first().map_or(0, |c| c.len());
        for (c, f) in columns.iter().zip(schema.fields()) {
            assert_eq!(
                c.dtype(),
                f.dtype,
                "column {:?} must match its field",
                f.name
            );
            assert_eq!(c.len(), len, "columns must be equally long");
        }
        Self::build(schema, columns, len, bytes_per_row)
    }

    /// Rows are addressed by `u32` selection vectors throughout.
    fn build(schema: Schema, columns: Vec<Arc<Column>>, len: usize, bytes_per_row: u64) -> Self {
        assert!(
            u32::try_from(len).is_ok(),
            "a table holds at most u32::MAX rows"
        );
        Self {
            schema,
            columns,
            len,
            bytes_per_row,
        }
    }

    /// Create a table from rows (constructor for tests and small fixtures).
    ///
    /// # Panics
    /// Panics if a row's arity differs from the schema's or a value's type
    /// from its column's.
    pub fn from_rows(schema: Schema, rows: Vec<Row>, bytes_per_row: u64) -> Self {
        let mut columns: Vec<Column> = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.dtype, rows.len()))
            .collect();
        let len = rows.len();
        for row in rows {
            assert_eq!(row.len(), columns.len(), "row arity must match schema");
            for (c, v) in columns.iter_mut().zip(row) {
                c.push(v);
            }
        }
        let columns = columns.into_iter().map(Arc::new).collect();
        Self::build(schema, columns, len, bytes_per_row)
    }

    /// An empty table with the given schema.
    pub fn empty(schema: Schema, bytes_per_row: u64) -> Self {
        Self::from_rows(schema, Vec::new(), bytes_per_row)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Simulated on-disk size in bytes.
    pub fn sim_bytes(&self) -> u64 {
        self.len as u64 * self.bytes_per_row
    }

    /// The columns, in schema order.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// The column at `col`.
    pub fn column(&self, col: usize) -> &Arc<Column> {
        &self.columns[col]
    }

    /// Row `i` as values (test and display convenience; operators work on
    /// the columns).
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Every row, in order (test convenience).
    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// The rows at `sel`, in that order, as a new table.
    pub fn take(&self, sel: &[u32]) -> Table {
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.gather(sel)))
            .collect();
        Self::build(self.schema.clone(), columns, sel.len(), self.bytes_per_row)
    }

    /// Concatenate `parts` — each a table and, optionally, the rows to take
    /// from it — under `schema`.
    ///
    /// # Panics
    /// Panics if a part's column types differ from the schema's.
    pub fn concat(schema: Schema, parts: &[(&Table, Option<&[u32]>)], bytes_per_row: u64) -> Table {
        let len: usize = parts
            .iter()
            .map(|(t, sel)| sel.map_or(t.len, <[u32]>::len))
            .sum();
        let columns = schema
            .fields()
            .iter()
            .enumerate()
            .map(|(c, f)| {
                let mut col = Column::with_capacity(f.dtype, len);
                for (t, sel) in parts {
                    col.extend_from(&t.columns[c], *sel);
                }
                Arc::new(col)
            })
            .collect();
        Self::build(schema, columns, len, bytes_per_row)
    }

    /// A canonical fingerprint of the table's contents, independent of row
    /// order. Used by tests to check that rewritten queries produce the same
    /// multiset of rows as the original.
    pub fn fingerprint(&self) -> Vec<String> {
        let mut keys: Vec<String> = (0..self.len)
            .map(|i| {
                let mut s = String::with_capacity(self.columns.len() * 12);
                for c in &self.columns {
                    c.write_canonical(i, &mut s);
                    s.push('\u{1}');
                }
                s
            })
            .collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::{DataType, Value};

    fn t() -> Table {
        let schema = Schema::new(vec![
            Field::new("t.a", DataType::Int),
            Field::new("t.b", DataType::Str),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::Int(3), Value::str("x")],
                vec![Value::Int(1), Value::str("y")],
                vec![Value::Null, Value::str("z")],
            ],
            100,
        )
    }

    #[test]
    fn sim_bytes_scales_with_rows() {
        assert_eq!(t().sim_bytes(), 300);
        assert_eq!(Table::empty(t().schema, 100).sim_bytes(), 0);
    }

    #[test]
    fn fingerprint_order_independent() {
        let t2 = t().take(&[2, 1, 0]);
        assert_eq!(t().fingerprint(), t2.fingerprint());
    }

    #[test]
    fn fingerprint_detects_multiset_difference() {
        let t2 = t().take(&[0, 1, 2, 0]); // duplicate row
        assert_ne!(t().fingerprint(), t2.fingerprint());
    }

    /// The fingerprint text is a contract (golden files and the benchmark's
    /// oracle hash it): `{:.6}` floats, `s:` strings, `∅` NULLs, each value
    /// followed by `\u{1}`, lines sorted.
    #[test]
    fn fingerprint_text_is_pinned() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Float),
            Field::new("c", DataType::Str),
        ]);
        let t = Table::from_rows(
            schema,
            vec![
                vec![Value::Int(7), Value::Float(1.5), Value::str("x y")],
                vec![Value::Int(-12), Value::Float(2.0 / 3.0), Value::Null],
                vec![Value::Null, Value::Null, Value::str("")],
                vec![Value::Int(7), Value::Float(-0.0000004), Value::str("∅")],
            ],
            8,
        );
        assert_eq!(
            t.fingerprint(),
            vec![
                "-12\u{1}0.666667\u{1}∅\u{1}",
                "7\u{1}-0.000000\u{1}s:∅\u{1}",
                "7\u{1}1.500000\u{1}s:x y\u{1}",
                "∅\u{1}∅\u{1}s:\u{1}",
            ]
        );
    }

    #[test]
    fn take_and_concat_share_nothing_but_values() {
        let a = t();
        let b = a.take(&[2, 0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(0), vec![Value::Null, Value::str("z")]);
        let sel: &[u32] = &[1];
        let c = Table::concat(a.schema.clone(), &[(&a, None), (&b, Some(sel))], 7);
        assert_eq!(c.len(), 4);
        assert_eq!(c.bytes_per_row, 7);
        assert_eq!(c.row(3), vec![Value::Int(3), Value::str("x")]);
        assert_eq!(c.rows().count(), 4);
    }

    #[test]
    #[should_panic(expected = "must match its field")]
    fn new_rejects_mistyped_columns() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let floats = Column::with_capacity(DataType::Float, 0);
        Table::new(schema, vec![Arc::new(floats)], 1);
    }
}
