//! In-memory columnar tables with simulated on-disk sizes.

// deepsea-lint: allow(layering) -- a table's write-once fingerprint: one OnceLock its clones share, no guard is ever held
use std::sync::{Arc, OnceLock};

use crate::column::{Col, Column, Rows};
use crate::row::Row;
use crate::schema::Schema;

/// An in-memory table: one [`Col`] per schema field — shared values and,
/// when the table holds only some of their rows, a shared row index — so
/// scans, projections, selections, joins and stored fragments share values
/// without copying them.
///
/// `bytes_per_row` is the *simulated* on-disk width of one row. Experiments
/// run on scaled-down row counts while cost accounting happens in simulated
/// bytes, so a "100 GB" instance is a table with, say, 200 000 rows and
/// `bytes_per_row = 500 000`.
///
/// A table and its clones share one [`Table::fingerprint`], computed on the
/// first ask; `==` and `Debug` do not look at it.
#[derive(Clone)]
pub struct Table {
    /// The table's schema.
    pub schema: Schema,
    columns: Vec<Col>,
    len: usize,
    /// Simulated on-disk bytes per row.
    pub bytes_per_row: u64,
    /// The fingerprint, once asked for: a function of `columns` and `len`,
    /// which no method changes after construction.
    fingerprint: Arc<OnceLock<Arc<[String]>>>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        let Table {
            schema,
            columns,
            len,
            bytes_per_row,
            fingerprint: _,
        } = self;
        *schema == other.schema
            && *columns == other.columns
            && *len == other.len
            && *bytes_per_row == other.bytes_per_row
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Table {
            schema,
            columns,
            len,
            bytes_per_row,
            fingerprint: _,
        } = self;
        f.debug_struct("Table")
            .field("schema", schema)
            .field("columns", columns)
            .field("len", len)
            .field("bytes_per_row", bytes_per_row)
            .finish()
    }
}

impl Table {
    /// Create a table from its columns (a [`Column`] converts into a
    /// [`Col`] of all its rows).
    ///
    /// # Panics
    /// Panics if the columns do not match the schema in number or type, or
    /// differ in length.
    pub fn new(schema: Schema, columns: Vec<Col>, bytes_per_row: u64) -> Self {
        assert_eq!(columns.len(), schema.len(), "one column per schema field");
        let len = columns.first().map_or(0, Col::len);
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

    /// Rows are addressed by `u32` selection vectors throughout; each
    /// column keeps its range order.
    fn build(schema: Schema, columns: Vec<Col>, len: usize, bytes_per_row: u64) -> Self {
        assert!(
            u32::try_from(len).is_ok(),
            "a table holds at most u32::MAX rows"
        );
        Self {
            schema,
            columns: columns.into_iter().map(Col::kept).collect(),
            len,
            bytes_per_row,
            fingerprint: Arc::default(),
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
        let columns = columns.into_iter().map(Col::from).collect();
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
    pub fn columns(&self) -> &[Col] {
        &self.columns
    }

    /// The column at `col`.
    pub fn column(&self, col: usize) -> &Col {
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

    /// The rows at `sel`, in that order, as a new table sharing this one's
    /// values: each column's index is composed with `sel`
    /// ([`Col::take_all`]), and no value is copied.
    pub fn take(&self, sel: &[u32]) -> Table {
        let sel = Arc::new(sel.to_vec());
        let columns = Col::take_all(&self.columns, &sel).collect();
        Self::build(self.schema.clone(), columns, sel.len(), self.bytes_per_row)
    }

    /// Concatenate `parts` — each a table and, optionally, the rows to take
    /// from it — under `schema`.
    ///
    /// A column whose every part reads one `Column` reads it through the
    /// parts' indices concatenated, one vector shared by the columns whose
    /// parts read through the same indices; only a column whose parts read
    /// different `Column`s is gathered into a new one.
    ///
    /// # Panics
    /// Panics if a part's column types differ from the schema's.
    pub fn concat(schema: Schema, parts: &[(&Table, Option<&[u32]>)], bytes_per_row: u64) -> Table {
        let len: usize = parts
            .iter()
            .map(|(t, sel)| sel.map_or(t.len, <[u32]>::len))
            .sum();
        let mut made: Vec<(Vec<Option<&Rows>>, Rows)> = Vec::new();
        let columns = schema
            .fields()
            .iter()
            .enumerate()
            .map(|(c, f)| {
                let cols: Vec<&Col> = parts.iter().map(|(t, _)| &t.columns[c]).collect();
                let shared = cols.split_first().filter(|(first, rest)| {
                    rest.iter().all(|x| Arc::ptr_eq(x.data(), first.data()))
                });
                let Some((first, _)) = shared else {
                    let mut col = Column::with_capacity(f.dtype, len);
                    for (x, (t, sel)) in cols.iter().zip(parts) {
                        let mut at = Vec::new();
                        positions(&mut at, x, *sel, t.len);
                        col.extend_from(x.data(), Some(&at));
                    }
                    return Col::from(col);
                };
                assert_eq!(first.dtype(), f.dtype, "column types must match");
                let key: Vec<Option<&Rows>> = cols.iter().map(|x| x.idx()).collect();
                let same = |k: &[Option<&Rows>]| {
                    k.iter().zip(&key).all(|(a, b)| match (a, b) {
                        (None, None) => true,
                        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                        _ => false,
                    })
                };
                let idx = match made.iter().find(|(k, _)| same(k)) {
                    Some((_, idx)) => Arc::clone(idx),
                    None => {
                        let mut idx = Vec::with_capacity(len);
                        for (x, (t, sel)) in cols.iter().zip(parts) {
                            positions(&mut idx, x, *sel, t.len);
                        }
                        let idx = Arc::new(idx);
                        made.push((key, Arc::clone(&idx)));
                        idx
                    }
                };
                Col::indexed(Arc::clone(first.data()), idx)
            })
            .collect();
        Self::build(schema, columns, len, bytes_per_row)
    }

    /// A canonical fingerprint of the table's contents, independent of row
    /// order: one line per row, sorted. Used by tests to check that
    /// rewritten queries produce the same multiset of rows as the original,
    /// and by the serving layer to compare a read with its commit. Computed
    /// once and shared with every clone, before or after the first call.
    pub fn fingerprint(&self) -> Arc<[String]> {
        let lines = self.fingerprint.get_or_init(|| {
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
            keys.into()
        });
        Arc::clone(lines)
    }
}

/// Append to `out` the positions in `c`'s values of its rows at `sel` (of
/// all its `n` rows when `None`).
fn positions(out: &mut Vec<u32>, c: &Col, sel: Option<&[u32]>, n: usize) {
    match (c.idx(), sel) {
        (None, None) => out.extend(0..n as u32),
        (None, Some(sel)) => out.extend_from_slice(sel),
        (Some(ix), None) => out.extend_from_slice(ix),
        (Some(ix), Some(sel)) => out.extend(sel.iter().map(|&r| ix[r as usize])),
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
            *t.fingerprint(),
            vec![
                "-12\u{1}0.666667\u{1}∅\u{1}",
                "7\u{1}-0.000000\u{1}s:∅\u{1}",
                "7\u{1}1.500000\u{1}s:x y\u{1}",
                "∅\u{1}∅\u{1}s:\u{1}",
            ]
        );
    }

    /// A clone shares its original's fingerprint, computed before or after
    /// the clone; `new`, `from_rows`, `take` and `concat` start a table of
    /// their own. Neither `==` nor `Debug` sees whether it was computed.
    #[test]
    fn clones_share_one_fingerprint() {
        let a = t();
        let (debug, before) = (format!("{a:?}"), a.clone());
        let early = a.clone();
        let fp = a.fingerprint();
        assert!(Arc::ptr_eq(&fp, &early.fingerprint()));
        assert!(Arc::ptr_eq(&fp, &a.clone().fingerprint()));
        assert_eq!((format!("{a:?}"), &a), (debug, &before));
        assert_eq!(before, t(), "a computed fingerprint is not compared");

        let fresh = |b: &Table| {
            assert_eq!(b.fingerprint(), fp);
            assert!(!Arc::ptr_eq(&b.fingerprint(), &fp));
        };
        fresh(&a.take(&[0, 1, 2]));
        fresh(&Table::concat(a.schema.clone(), &[(&a, None)], 100));
        fresh(&Table::new(a.schema.clone(), a.columns().to_vec(), 100));
        fresh(&Table::from_rows(a.schema.clone(), a.rows().collect(), 100));
    }

    #[test]
    fn take_and_concat_share_values_through_indices() {
        let a = t();
        let b = a.take(&[2, 0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(0), vec![Value::Null, Value::str("z")]);
        // Both columns read `a`'s values through one index.
        let (b0, b1) = (b.column(0), b.column(1));
        assert!(Arc::ptr_eq(b0.data(), a.column(0).data()));
        assert!(Arc::ptr_eq(b0.idx().unwrap(), b1.idx().unwrap()));
        // A take of a take composes the index, once for both columns.
        let c = b.take(&[1, 1]);
        assert_eq!(**c.column(0).idx().unwrap(), [0, 0]);
        assert!(Arc::ptr_eq(
            c.column(0).idx().unwrap(),
            c.column(1).idx().unwrap()
        ));

        let sel: &[u32] = &[1];
        let c = Table::concat(a.schema.clone(), &[(&a, None), (&b, Some(sel))], 7);
        assert_eq!(c.len(), 4);
        assert_eq!(c.bytes_per_row, 7);
        assert_eq!(c.row(3), vec![Value::Int(3), Value::str("x")]);
        assert_eq!(c.rows().count(), 4);
        // Parts reading one column concatenate their positions.
        assert!(Arc::ptr_eq(c.column(0).data(), a.column(0).data()));
        assert_eq!(**c.column(0).idx().unwrap(), [0, 1, 2, 0]);
        assert!(Arc::ptr_eq(
            c.column(0).idx().unwrap(),
            c.column(1).idx().unwrap()
        ));
        // Parts reading two columns are gathered.
        let other = t();
        let d = Table::concat(a.schema.clone(), &[(&other, Some(sel)), (&b, None)], 7);
        assert!(d.columns().iter().all(|c| c.idx().is_none()));
        assert_eq!(d.rows().collect::<Vec<_>>(), [a.row(1), a.row(2), a.row(0)]);
        assert_eq!(
            d,
            Table::concat(a.schema.clone(), &[(&a, Some(&[1, 2, 0]))], 7)
        );
    }

    #[test]
    #[should_panic(expected = "must match its field")]
    fn new_rejects_mistyped_columns() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let floats = Column::with_capacity(DataType::Float, 0);
        Table::new(schema, vec![floats.into()], 1);
    }
}
