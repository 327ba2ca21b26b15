//! Typed column vectors.
//!
//! A [`Column`] holds every value of one table column in a typed vector plus
//! a null mask. Tables share columns behind `Arc`s, so scans, projections and
//! single-fragment view reads hand columns on without copying; operators
//! address rows through `u32` index vectors (selection vectors) and only
//! [`Column::gather`] materializes a new vector.

use std::cmp::Ordering;
use std::fmt::Write;
use std::sync::Arc;

use crate::value::{DataType, Value};

/// The typed payload of a column. A NULL slot holds the type's default
/// (`0`, `0.0`, `""`); only the mask says it is NULL.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Shared strings.
    Str(Vec<Arc<str>>),
}

/// One column: typed values plus a null mask (empty when nothing is NULL).
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    nulls: Vec<bool>,
}

impl Column {
    /// An empty column of the given type with room for `cap` values.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        let data = match dtype {
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Str => ColumnData::Str(Vec::with_capacity(cap)),
        };
        Self {
            data,
            nulls: Vec::new(),
        }
    }

    /// An integer column without NULLs.
    pub fn from_ints(values: Vec<i64>) -> Self {
        Self {
            data: ColumnData::Int(values),
            nulls: Vec::new(),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's type.
    pub fn dtype(&self) -> DataType {
        match &self.data {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str(_) => DataType::Str,
        }
    }

    /// The typed values (NULL slots hold the type's default).
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Whether any value is NULL.
    pub fn has_nulls(&self) -> bool {
        !self.nulls.is_empty()
    }

    /// Whether the value at `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        !self.nulls.is_empty() && self.nulls[i]
    }

    fn push_null(&mut self) {
        if self.nulls.is_empty() {
            self.nulls = vec![false; self.len()];
        }
        self.nulls.push(true);
        match &mut self.data {
            ColumnData::Int(v) => v.push(0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Str(v) => v.push(Arc::from("")),
        }
    }

    /// Append a value.
    ///
    /// # Panics
    /// Panics if the value is neither NULL nor of the column's type: a
    /// column is typed, and a mismatch is a bug in the caller.
    pub fn push(&mut self, value: Value) {
        let Some(dtype) = value.data_type() else {
            return self.push_null();
        };
        assert_eq!(dtype, self.dtype(), "value type must match column type");
        match (&mut self.data, value) {
            (ColumnData::Int(v), Value::Int(x)) => v.push(x),
            (ColumnData::Float(v), Value::Float(x)) => v.push(x),
            (ColumnData::Str(v), Value::Str(x)) => v.push(x),
            _ => {} // excluded by the assertion above
        }
        if !self.nulls.is_empty() {
            self.nulls.push(false);
        }
    }

    /// The value at `i`.
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str(v) => Value::Str(Arc::clone(&v[i])),
        }
    }

    /// Integer payload at `i`; `None` for NULL and for non-integer columns.
    #[inline]
    pub fn int_at(&self, i: usize) -> Option<i64> {
        match &self.data {
            ColumnData::Int(v) if !self.is_null(i) => Some(v[i]),
            _ => None,
        }
    }

    /// Serialized width of the value at `i` (see [`Value::width`]).
    #[inline]
    pub fn width_at(&self, i: usize) -> u64 {
        if self.is_null(i) {
            return 1;
        }
        match &self.data {
            ColumnData::Int(_) | ColumnData::Float(_) => 8,
            ColumnData::Str(v) => v[i].len() as u64,
        }
    }

    /// Order of the values at `i` and `j` — [`Value::cmp`] restricted to one
    /// column: NULL first, then the type's total order.
    pub fn cmp_at(&self, i: usize, j: usize) -> Ordering {
        match (self.is_null(i), self.is_null(j)) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {}
        }
        match &self.data {
            ColumnData::Int(v) => v[i].cmp(&v[j]),
            ColumnData::Float(v) => v[i].total_cmp(&v[j]),
            ColumnData::Str(v) => v[i].cmp(&v[j]),
        }
    }

    /// A new column holding the values at `idx`, in that order.
    pub fn gather(&self, idx: &[u32]) -> Column {
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Float(v) => ColumnData::Float(idx.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Str(v) => {
                ColumnData::Str(idx.iter().map(|&i| Arc::clone(&v[i as usize])).collect())
            }
        };
        let nulls = if self.nulls.is_empty() {
            Vec::new()
        } else {
            idx.iter().map(|&i| self.nulls[i as usize]).collect()
        };
        Column { data, nulls }
    }

    /// Append the values of `other` at `idx` (all of `other` when `None`).
    ///
    /// # Panics
    /// Panics if the two columns differ in type.
    pub fn extend_from(&mut self, other: &Column, idx: Option<&[u32]>) {
        assert_eq!(self.dtype(), other.dtype(), "column types must match");
        let before = self.len();
        match (&mut self.data, &other.data, idx) {
            (ColumnData::Int(d), ColumnData::Int(s), None) => d.extend_from_slice(s),
            (ColumnData::Int(d), ColumnData::Int(s), Some(ix)) => {
                d.extend(ix.iter().map(|&i| s[i as usize]))
            }
            (ColumnData::Float(d), ColumnData::Float(s), None) => d.extend_from_slice(s),
            (ColumnData::Float(d), ColumnData::Float(s), Some(ix)) => {
                d.extend(ix.iter().map(|&i| s[i as usize]))
            }
            (ColumnData::Str(d), ColumnData::Str(s), None) => d.extend_from_slice(s),
            (ColumnData::Str(d), ColumnData::Str(s), Some(ix)) => {
                d.extend(ix.iter().map(|&i| Arc::clone(&s[i as usize])))
            }
            _ => {} // excluded by the assertion above
        }
        if self.nulls.is_empty() && other.nulls.is_empty() {
            return;
        }
        if self.nulls.is_empty() {
            self.nulls = vec![false; before];
        }
        match idx {
            _ if other.nulls.is_empty() => self.nulls.resize(self.len(), false),
            None => self.nulls.extend_from_slice(&other.nulls),
            Some(ix) => self
                .nulls
                .extend(ix.iter().map(|&i| other.nulls[i as usize])),
        }
    }

    /// Min and max of an integer column, ignoring NULLs. `None` if the column
    /// is not an integer column or has no non-null value.
    pub fn int_min_max(&self) -> Option<(i64, i64)> {
        let ColumnData::Int(v) = &self.data else {
            return None;
        };
        let mut mm: Option<(i64, i64)> = None;
        for (i, &x) in v.iter().enumerate() {
            if !self.is_null(i) {
                mm = Some(match mm {
                    None => (x, x),
                    Some((lo, hi)) => (lo.min(x), hi.max(x)),
                });
            }
        }
        mm
    }

    /// Rows whose integer value lies in `[low, high]`, in ascending order.
    /// NULLs and non-integer columns select nothing.
    pub fn int_range_rows(&self, low: i64, high: i64) -> Vec<u32> {
        self.int_partition_rows(&[(low, high)])
            .pop()
            .unwrap_or_default()
    }

    /// One pass over an integer column that splits its rows among inclusive
    /// `ranges`, which must be ascending and disjoint: per range, the rows
    /// whose value lies in it, in ascending order. NULLs, values in no range
    /// and non-integer columns go nowhere.
    pub fn int_partition_rows(&self, ranges: &[(i64, i64)]) -> Vec<Vec<u32>> {
        debug_assert!(ranges.windows(2).all(|w| w[0].1 < w[1].0));
        let mut parts = vec![Vec::new(); ranges.len()];
        let ColumnData::Int(v) = &self.data else {
            return parts;
        };
        for (i, &x) in v.iter().enumerate() {
            let k = ranges.partition_point(|&(_, high)| high < x);
            if k < ranges.len() && ranges[k].0 <= x && !self.is_null(i) {
                parts[k].push(i as u32);
            }
        }
        parts
    }

    /// Append the canonical fingerprint text of the value at `i`.
    pub(crate) fn write_canonical(&self, i: usize, out: &mut String) {
        if self.is_null(i) {
            out.push('∅');
            return;
        }
        // Writing into a `String` cannot fail.
        let _ = match &self.data {
            // Print floats with enough precision to distinguish values but
            // tolerate the last few bits of summation-order noise.
            ColumnData::Float(v) => write!(out, "{:.6}", v[i]),
            ColumnData::Int(v) => write!(out, "{}", v[i]),
            ColumnData::Str(v) => write!(out, "s:{}", v[i]),
        };
    }
}

/// Value equality: same type, same NULLs, same values (floats by bits, like
/// [`Value`]'s `total_cmp`-based equality).
impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        let n = self.len();
        if n != other.len() || (0..n).any(|i| self.is_null(i) != other.is_null(i)) {
            return false;
        }
        match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a == b,
            (ColumnData::Float(a), ColumnData::Float(b)) => {
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (ColumnData::Str(a), ColumnData::Str(b)) => a == b,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn floats() -> Column {
        let mut c = Column::with_capacity(DataType::Float, 1);
        c.push(Value::Float(1.0));
        c
    }

    fn ints_with_null() -> Column {
        let mut c = Column::with_capacity(DataType::Int, 4);
        c.push(Value::Int(3));
        c.push(Value::Null);
        c.push(Value::Int(-1));
        c
    }

    #[test]
    fn push_and_read_back() {
        let c = ints_with_null();
        assert_eq!(c.len(), 3);
        assert!(c.has_nulls());
        assert_eq!(c.value(0), Value::Int(3));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.int_at(1), None);
        assert_eq!(c.int_at(2), Some(-1));
        assert_eq!(c.width_at(0), 8);
        assert_eq!(c.width_at(1), 1);
    }

    #[test]
    #[should_panic(expected = "value type must match column type")]
    fn push_of_wrong_type_panics() {
        Column::with_capacity(DataType::Int, 1).push(Value::Float(1.0));
    }

    #[test]
    fn gather_keeps_order_and_nulls() {
        let g = ints_with_null().gather(&[2, 1, 1, 0]);
        assert_eq!(
            (0..4).map(|i| g.value(i)).collect::<Vec<_>>(),
            vec![Value::Int(-1), Value::Null, Value::Null, Value::Int(3)]
        );
        let dense = ints_with_null().gather(&[0, 2]);
        assert_eq!(
            dense,
            Column::from_ints(vec![3, -1]),
            "all-false mask equals no mask"
        );
    }

    #[test]
    fn extend_back_fills_the_mask() {
        let mut c = Column::from_ints(vec![7]);
        c.extend_from(&ints_with_null(), None);
        c.extend_from(&ints_with_null(), Some(&[1, 0]));
        c.extend_from(&Column::from_ints(vec![9]), None);
        let got: Vec<Value> = (0..c.len()).map(|i| c.value(i)).collect();
        assert_eq!(
            got,
            vec![
                Value::Int(7),
                Value::Int(3),
                Value::Null,
                Value::Int(-1),
                Value::Null,
                Value::Int(3),
                Value::Int(9)
            ]
        );
    }

    #[test]
    fn min_max_and_range_rows_skip_nulls() {
        let c = ints_with_null();
        assert_eq!(c.int_min_max(), Some((-1, 3)));
        assert_eq!(c.int_range_rows(-5, 5), vec![0, 2]);
        assert_eq!(c.int_range_rows(0, 5), vec![0]);
        assert_eq!(floats().int_min_max(), None);
        assert!(floats().int_range_rows(0, 2).is_empty());
    }

    #[test]
    fn partition_rows_routes_each_row_once() {
        let mut c = Column::from_ints(vec![5, 0, 9, 3, 4, 12]);
        c.push_null();
        let parts = c.int_partition_rows(&[(0, 3), (4, 5), (10, 20)]);
        assert_eq!(parts, vec![vec![1, 3], vec![0, 4], vec![5]]);
    }

    #[test]
    fn cmp_at_puts_null_first() {
        let c = ints_with_null();
        assert_eq!(c.cmp_at(1, 2), Ordering::Less);
        assert_eq!(c.cmp_at(0, 2), Ordering::Greater);
        assert_eq!(c.cmp_at(1, 1), Ordering::Equal);
    }
}
