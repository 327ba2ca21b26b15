//! Typed column vectors.
//!
//! A [`Column`] holds every value of one table column in a typed vector plus
//! a null mask. Tables share columns behind `Arc`s, so scans, projections and
//! single-fragment view reads hand columns on without copying; operators
//! address rows through `u32` index vectors (selection vectors) and only
//! [`Column::gather`] materializes a new vector. A string column's vector
//! holds codes into a [`Dict`] that every column gathered from it shares.
//! An integer column that is range-selected a second time sorts its rows by
//! value once ([`Column::int_range_rows`]), so later ranges cost what they
//! keep, and one asked which of its rows name a row of a surrogate key keeps
//! the answer as a bitmap ([`Column::key_bits`]).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::{self, Write};
// deepsea-lint: allow(layering) -- a column's write-once range order and key bitmap: one flag and two OnceLocks, no guard is ever held
use std::sync::{atomic::AtomicBool, atomic::Ordering::Relaxed, Arc, OnceLock};

use crate::value::{DataType, Value};

/// The distinct strings of a string column, each once, numbered in
/// first-seen order; code 0 is `""`, which NULL slots hold. Two codes of one
/// dictionary are equal exactly when their strings are; codes of two
/// dictionaries are not comparable.
#[derive(Debug, Clone)]
pub struct Dict {
    strs: Vec<Arc<str>>,
    codes: BTreeMap<Arc<str>, u32>,
}

impl Dict {
    pub(crate) fn new() -> Self {
        let empty: Arc<str> = Arc::from("");
        Self {
            codes: BTreeMap::from([(Arc::clone(&empty), 0)]),
            strs: vec![empty],
        }
    }

    /// The strings, indexed by code.
    pub fn strs(&self) -> &[Arc<str>] {
        &self.strs
    }

    /// The code of `s`, if the dictionary holds it.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.codes.get(s).copied()
    }

    /// The code of `s`, the next free one if it is new.
    pub(crate) fn intern(&mut self, s: &Arc<str>) -> u32 {
        let next = self.strs.len() as u32;
        let code = *self.codes.entry(Arc::clone(s)).or_insert(next);
        if code == next {
            self.strs.push(Arc::clone(s));
        }
        code
    }
}

/// The typed payload of a column. A NULL slot holds the type's default
/// (`0`, `0.0`, the code of `""`); only the mask says it is NULL.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Strings: per row, a code into the dictionary.
    Str { codes: Vec<u32>, dict: Arc<Dict> },
}

/// Append the values of `s` at `idx` (all of `s` when `None`) to `d`.
fn extend<T: Copy>(d: &mut Vec<T>, s: &[T], idx: Option<&[u32]>) {
    match idx {
        None => d.extend_from_slice(s),
        Some(ix) => d.extend(ix.iter().map(|&i| s[i as usize])),
    }
}

/// The density rule, the one place that chooses direct addressing — a
/// table of one cell per value — over hashing or sorting: values from `min`
/// to `max` qualify when `max − min < 4·n + 64` over `n` rows, so the cells
/// cost a few `u32` writes per row at most. The span, when they do; `None`
/// when they do not, including for a span that overflows `i64`.
#[inline]
pub fn dense_span(min: i64, max: i64, n: usize) -> Option<usize> {
    let span = u64::try_from(max.checked_sub(min)?).ok()?;
    (span < 4 * n as u64 + 64).then_some(span as usize)
}

/// An integer column's range order, built on its second range selection
/// ([`Column::int_range_rows`]) and kept until the column changes. A clone
/// starts without one.
#[derive(Default)]
struct RangeOrder {
    /// Set by the first range selection.
    ranged: AtomicBool,
    /// The non-NULL rows sorted by (value, row).
    rows: OnceLock<Vec<u32>>,
}

/// An integer column's key bitmap for one `(first, len)`: bit `r % 64` of
/// word `r / 64` is set when row `r` holds a non-NULL value in
/// `[first, first + len)`. Built on the first request
/// ([`Column::key_bits`]) and kept until the column changes. A clone starts
/// without one.
struct KeyBits {
    first: i64,
    len: usize,
    words: Vec<u64>,
}

/// One column: typed values plus a null mask (empty when nothing is NULL).
pub struct Column {
    data: ColumnData,
    nulls: Vec<bool>,
    order: RangeOrder,
    keys: OnceLock<KeyBits>,
}

/// The values and the mask; the range order and the key bitmap are the
/// column's own caches.
impl Clone for Column {
    fn clone(&self) -> Self {
        Self::new(self.data.clone(), self.nulls.clone())
    }
}

/// The values and the mask, as a derived `Debug` prints them.
impl fmt::Debug for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Column")
            .field("data", &self.data)
            .field("nulls", &self.nulls)
            .finish()
    }
}

impl Column {
    pub(crate) fn new(data: ColumnData, nulls: Vec<bool>) -> Self {
        Self {
            data,
            nulls,
            order: RangeOrder::default(),
            keys: OnceLock::new(),
        }
    }

    /// Drop the range order and the key bitmap: the column is about to
    /// change.
    fn forget_caches(&mut self) {
        self.order = RangeOrder::default();
        self.keys = OnceLock::new();
    }

    /// An empty column of the given type with room for `cap` values.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        let data = match dtype {
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Str => ColumnData::Str {
                codes: Vec::with_capacity(cap),
                dict: Arc::new(Dict::new()),
            },
        };
        Self::new(data, Vec::new())
    }

    /// An integer column without NULLs.
    pub fn from_ints(values: Vec<i64>) -> Self {
        Self::new(ColumnData::Int(values), Vec::new())
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
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
            ColumnData::Str { .. } => DataType::Str,
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
        self.forget_caches();
        if self.nulls.is_empty() {
            self.nulls = vec![false; self.len()];
        }
        self.nulls.push(true);
        match &mut self.data {
            ColumnData::Int(v) => v.push(0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Str { codes, .. } => codes.push(0),
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
        self.forget_caches();
        match (&mut self.data, value) {
            (ColumnData::Int(v), Value::Int(x)) => v.push(x),
            (ColumnData::Float(v), Value::Float(x)) => v.push(x),
            (ColumnData::Str { codes, dict }, Value::Str(x)) => {
                codes.push(Arc::make_mut(dict).intern(&x))
            }
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
            ColumnData::Str { codes, dict } => Value::Str(dict.strs[codes[i] as usize].clone()),
        }
    }

    /// The string at `i` of a string column (`""` for NULL and other types).
    fn str_at(&self, i: usize) -> &str {
        match &self.data {
            ColumnData::Str { codes, dict } => &dict.strs[codes[i] as usize],
            _ => "",
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
            ColumnData::Str { .. } => self.str_at(i).len() as u64,
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
            ColumnData::Str { .. } => self.str_at(i).cmp(self.str_at(j)),
        }
    }

    /// A new column holding the values at `idx`, in that order; a string
    /// column's shares its dictionary.
    pub fn gather(&self, idx: &[u32]) -> Column {
        fn pick<T: Copy>(v: &[T], idx: &[u32]) -> Vec<T> {
            idx.iter().map(|&i| v[i as usize]).collect()
        }
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(pick(v, idx)),
            ColumnData::Float(v) => ColumnData::Float(pick(v, idx)),
            ColumnData::Str { codes, dict } => ColumnData::Str {
                codes: pick(codes, idx),
                dict: Arc::clone(dict),
            },
        };
        let nulls = if self.nulls.is_empty() {
            Vec::new()
        } else {
            pick(&self.nulls, idx)
        };
        Column::new(data, nulls)
    }

    /// [`Column::gather`], except that an index of [`u32::MAX`] gives NULL.
    pub fn gather_or_null(&self, idx: &[u32]) -> Column {
        let mut out = self.gather(&[]);
        idx.iter().for_each(|&i| match i {
            u32::MAX => out.push_null(),
            i => out.extend_from(self, Some(&[i])),
        });
        out
    }

    /// Append the values of `other` at `idx` (all of `other` when `None`).
    /// Strings copy their codes when the two columns share a dictionary, as
    /// an empty column does once it adopts `other`'s; otherwise `other`'s
    /// dictionary is merged into this one, each entry looked up once.
    ///
    /// # Panics
    /// Panics if the two columns differ in type.
    pub fn extend_from(&mut self, other: &Column, idx: Option<&[u32]>) {
        assert_eq!(self.dtype(), other.dtype(), "column types must match");
        self.forget_caches();
        let before = self.len();
        match (&mut self.data, &other.data) {
            (ColumnData::Int(d), ColumnData::Int(s)) => extend(d, s, idx),
            (ColumnData::Float(d), ColumnData::Float(s)) => extend(d, s, idx),
            (ColumnData::Str { codes, dict }, ColumnData::Str { codes: s, dict: d }) => {
                if codes.is_empty() {
                    *dict = Arc::clone(d);
                }
                extend(codes, s, idx);
                if !Arc::ptr_eq(dict, d) {
                    let to = Arc::make_mut(dict);
                    let map: Vec<u32> = d.strs.iter().map(|s| to.intern(s)).collect();
                    codes[before..]
                        .iter_mut()
                        .for_each(|c| *c = map[*c as usize]);
                }
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
            _ => extend(&mut self.nulls, &other.nulls, idx),
        }
    }

    /// Rows whose integer value lies in `[low, high]`, in ascending order.
    /// NULLs and non-integer columns select nothing.
    ///
    /// The column's first range selection scans it. Its second sorts the
    /// non-NULL rows by (value, row) once — a counting sort when the values
    /// are dense ([`dense_span`]), a stable sort otherwise — and from then
    /// on a range is two binary searches in that order plus one pass over a
    /// bitmap of the rows found, which puts them back in row order. A range
    /// that keeps more than a quarter of the rows scans instead. Either way
    /// the rows are the same.
    pub fn int_range_rows(&self, low: i64, high: i64) -> Vec<u32> {
        let ColumnData::Int(v) = &self.data else {
            return Vec::new();
        };
        let order = match self.order.rows.get() {
            Some(order) => order,
            None if self.order.ranged.swap(true, Relaxed) => {
                self.order.rows.get_or_init(|| self.range_order(v))
            }
            None => return self.scan_range(v, low, high),
        };
        ordered_range(v, order, low, high).unwrap_or_else(|| self.scan_range(v, low, high))
    }

    /// The non-NULL rows whose value in `v` lies in `[low, high]`, by one
    /// pass that writes every row and advances past it only if it passes:
    /// no branch depends on the data.
    fn scan_range(&self, v: &[i64], low: i64, high: i64) -> Vec<u32> {
        let mut out = vec![0u32; v.len()];
        let mut k = 0;
        let within = |x: i64| (low <= x) & (x <= high);
        if self.nulls.is_empty() {
            for (r, &x) in v.iter().enumerate() {
                out[k] = r as u32;
                k += usize::from(within(x));
            }
        } else {
            for (r, (&x, &null)) in v.iter().zip(&self.nulls).enumerate() {
                out[k] = r as u32;
                k += usize::from(within(x) & !null);
            }
        }
        out.truncate(k);
        out
    }

    /// The non-NULL rows of values `v`, sorted by (value, row). NULL slots
    /// hold 0 and are sorted with the rest, then dropped.
    fn range_order(&self, v: &[i64]) -> Vec<u32> {
        let (min, max) = v
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let mut order = match dense_span(min, max, v.len()) {
            // Counting sort: each value's first slot, then the rows in order.
            Some(span) => {
                let mut next = vec![0u32; span + 2];
                v.iter().for_each(|&x| next[(x - min) as usize + 1] += 1);
                for s in 1..next.len() {
                    next[s] += next[s - 1];
                }
                let mut order = vec![0u32; v.len()];
                for (r, &x) in v.iter().enumerate() {
                    let s = &mut next[(x - min) as usize];
                    order[*s as usize] = r as u32;
                    *s += 1;
                }
                order
            }
            None => {
                let mut order: Vec<u32> = (0..v.len() as u32).collect();
                order.sort_by_key(|&r| v[r as usize]);
                order
            }
        };
        if self.has_nulls() {
            order.retain(|&r| !self.nulls[r as usize]);
        }
        order
    }

    /// The rows whose non-NULL integer value lies in `[first, first + len)`
    /// — `first + len − 1` not passing `i64::MAX` — as a bitmap of
    /// `len()`.div_ceil(64) words: bit `r % 64` of word `r / 64` is row `r`.
    /// A non-integer column sets no bit.
    ///
    /// The first request is kept with the column, so asking again for the
    /// same `(first, len)` costs nothing; a request for another pair is
    /// computed and not kept. Either way the bits are the same.
    pub fn key_bits(&self, first: i64, len: usize) -> Cow<'_, [u64]> {
        let kept = self.keys.get_or_init(|| KeyBits {
            first,
            len,
            words: self.compute_key_bits(first, len),
        });
        if (kept.first, kept.len) == (first, len) {
            Cow::Borrowed(&kept.words)
        } else {
            Cow::Owned(self.compute_key_bits(first, len))
        }
    }

    /// [`Column::key_bits`], computed: 64 rows a word, each row's bit set
    /// with no branch on the data.
    fn compute_key_bits(&self, first: i64, len: usize) -> Vec<u64> {
        let mut words = vec![0u64; self.len().div_ceil(64)];
        let ColumnData::Int(v) = &self.data else {
            return words;
        };
        let hit = |x: i64| (x.wrapping_sub(first) as u64) < len as u64;
        for (w, chunk) in words.iter_mut().zip(v.chunks(64)) {
            *w = (chunk.iter().enumerate()).fold(0, |acc, (b, &x)| acc | u64::from(hit(x)) << b);
        }
        if self.has_nulls() {
            for (w, chunk) in words.iter_mut().zip(self.nulls.chunks(64)) {
                *w &= !(chunk.iter().enumerate()).fold(0, |acc, (b, &n)| acc | u64::from(n) << b);
            }
        }
        words
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
            ColumnData::Str { .. } => write!(out, "s:{}", self.str_at(i)),
        };
    }
}

/// The rows of values `v` that lie in `[low, high]`, ascending, found in
/// `order` (the non-NULL rows sorted by (value, row)); `None` when they are
/// more than a quarter of `v`, which a scan serves better.
fn ordered_range(v: &[i64], order: &[u32], low: i64, high: i64) -> Option<Vec<u32>> {
    let from = order.partition_point(|&r| v[r as usize] < low);
    let hits = &order[from..];
    let hits = &hits[..hits.partition_point(|&r| v[r as usize] <= high)];
    if hits.len() > v.len() / 4 {
        return None;
    }
    let mut bits = vec![0u64; v.len().div_ceil(64)];
    hits.iter()
        .for_each(|&r| bits[r as usize / 64] |= 1 << (r % 64));
    let mut rows = Vec::with_capacity(hits.len());
    for (w, &word) in bits.iter().enumerate() {
        let mut b = word;
        while b != 0 {
            rows.push((w * 64) as u32 + b.trailing_zeros());
            b &= b - 1;
        }
    }
    Some(rows)
}

/// Value equality: same type, same NULLs, same values (floats by bits, like
/// [`Value`]'s `total_cmp`-based equality; strings by their text, whatever
/// their dictionaries).
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
            (ColumnData::Str { .. }, ColumnData::Str { .. }) => {
                (0..n).all(|i| self.str_at(i) == other.str_at(i))
            }
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
    fn range_rows_skip_nulls() {
        let c = ints_with_null();
        assert_eq!(c.int_range_rows(-5, 5), vec![0, 2]);
        assert_eq!(c.int_range_rows(0, 5), vec![0]);
        assert!(floats().int_range_rows(0, 2).is_empty());
    }

    /// A column whose second range selection has built its order.
    fn ordered(values: &[i64]) -> Column {
        let c = Column::from_ints(values.to_vec());
        c.int_range_rows(0, -1);
        c.int_range_rows(0, -1);
        assert!(c.order.rows.get().is_some());
        c
    }

    fn unordered(c: &Column) -> bool {
        c.order.rows.get().is_none() && !c.order.ranged.load(Relaxed)
    }

    #[test]
    fn second_range_selection_sorts_the_rows_by_value_then_row() {
        let mut c = ints_with_null();
        c.extend_from(&Column::from_ints(vec![3, 7, -1, 3]), None);
        assert_eq!(c.int_range_rows(3, 3), vec![0, 3, 6], "the first scans");
        assert!(c.order.rows.get().is_none());
        assert_eq!(c.int_range_rows(7, 7), vec![4], "the second sorts");
        assert_eq!(c.order.rows.get(), Some(&vec![2, 5, 0, 3, 6, 4]));
        assert_eq!(c.int_range_rows(-1, -1), vec![2, 5]);
        assert_eq!(c.int_range_rows(-5, 5), vec![0, 2, 3, 5, 6], "wide: a scan");
        // Sparse values are sorted, not counted, into the same order.
        let sparse = ordered(&[i64::MAX, 5, i64::MIN, 5, 0]);
        assert_eq!(sparse.order.rows.get(), Some(&vec![2, 4, 1, 3, 0]));
        assert_eq!(sparse.int_range_rows(i64::MAX, i64::MAX), vec![0]);
    }

    #[test]
    fn mutation_forgets_the_range_order() {
        let values: Vec<i64> = (0..16).map(|i| i * 10).collect();
        let mut c = ordered(&values);
        c.push(Value::Int(25));
        assert!(unordered(&c), "push");
        for call in 0..3 {
            assert_eq!(c.int_range_rows(21, 29), vec![16], "call {call} after push");
        }
        let mut c = ordered(&values);
        c.push_null();
        assert!(unordered(&c), "push_null");
        let mut c = ordered(&values);
        c.push(c.value(3));
        assert!(unordered(&c), "push of a copy");
        for call in 0..3 {
            assert_eq!(
                c.int_range_rows(30, 30),
                vec![3, 16],
                "call {call} after push of a copy"
            );
        }
        let mut c = ordered(&values);
        c.extend_from(&Column::from_ints(vec![35, 5]), Some(&[1]));
        assert!(unordered(&c), "extend_from");
        for call in 0..3 {
            assert_eq!(
                c.int_range_rows(1, 9),
                vec![16],
                "call {call} after extend_from"
            );
        }
    }

    #[test]
    fn debug_clone_and_equality_ignore_the_range_order() {
        let c = ordered(&[4, 2]);
        assert_eq!(format!("{c:?}"), "Column { data: Int([4, 2]), nulls: [] }");
        assert_eq!(
            format!("{:?}", ints_with_null()),
            "Column { data: Int([3, 0, -1]), nulls: [false, true, false] }"
        );
        let copy = c.clone();
        assert!(unordered(&copy), "a clone starts without an order");
        assert_eq!(copy, c);
        assert_eq!(copy, Column::from_ints(vec![4, 2]));
    }

    /// Row `r`'s bit of a key bitmap.
    fn bit(words: &[u64], r: usize) -> bool {
        words[r / 64] >> (r % 64) & 1 == 1
    }

    #[test]
    fn key_bits_mark_non_null_values_in_range() {
        let mut c = Column::from_ints((-70..70).collect());
        c.push_null();
        c.push(Value::Int(i64::MAX));
        let want = |first: i64, len: usize| -> Vec<bool> {
            (0..c.len())
                .map(|r| {
                    c.int_at(r).is_some_and(|x| {
                        (0..len as i128).contains(&(i128::from(x) - i128::from(first)))
                    })
                })
                .collect()
        };
        for (first, len) in [
            (-70, 140),
            (-3, 10),
            (5, 0),
            (0, 1),
            (69, 64),
            (i64::MIN, 3),
        ] {
            let words = c.key_bits(first, len);
            assert_eq!(words.len(), c.len().div_ceil(64));
            let got: Vec<bool> = (0..c.len()).map(|r| bit(&words, r)).collect();
            assert_eq!(got, want(first, len), "({first}, {len})");
        }
        assert!(floats().key_bits(0, 5).iter().all(|&w| w == 0));
    }

    #[test]
    fn the_first_key_bitmap_is_kept_until_the_column_changes() {
        let kept = |c: &Column| c.keys.get().map(|k| (k.first, k.len));
        let c = Column::from_ints(vec![4, 2, 9]);
        assert_eq!(kept(&c), None);
        c.key_bits(2, 3);
        assert_eq!(kept(&c), Some((2, 3)), "the first request is kept");
        assert!(matches!(c.key_bits(2, 3), Cow::Borrowed(_)), "asked again");
        let other = c.key_bits(0, 5);
        assert!(matches!(other, Cow::Owned(_)), "a second pair is not kept");
        assert!(bit(&other, 0) && bit(&other, 1) && !bit(&other, 2));
        assert_eq!(kept(&c), Some((2, 3)));
        assert_eq!(kept(&c.clone()), None, "a clone starts without one");
        let mutations: [fn(&mut Column); 4] = [
            |c| c.push(Value::Int(3)),
            |c| c.push_null(),
            |c| c.push(c.value(1)),
            |c| c.extend_from(&Column::from_ints(vec![3]), None),
        ];
        for (i, mutate) in mutations.into_iter().enumerate() {
            let mut c = Column::from_ints(vec![4, 2, 9]);
            c.key_bits(2, 3);
            mutate(&mut c);
            assert_eq!(kept(&c), None, "mutation {i}");
            assert_eq!(bit(&c.key_bits(2, 3), 3), i != 1, "mutation {i}: row 3");
        }
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

    fn strs(values: &[Option<&str>]) -> Column {
        let mut c = Column::with_capacity(DataType::Str, values.len());
        values
            .iter()
            .for_each(|v| c.push(v.map_or(Value::Null, Value::str)));
        c
    }

    fn dict(c: &Column) -> &Arc<Dict> {
        match c.data() {
            ColumnData::Str { dict, .. } => dict,
            _ => panic!("a string column"),
        }
    }

    fn values(c: &Column) -> Vec<Value> {
        (0..c.len()).map(|i| c.value(i)).collect()
    }

    #[test]
    fn gather_shares_the_dictionary() {
        let c = strs(&[Some("b"), None, Some("a"), Some("b")]);
        let g = c.gather(&[3, 2, 1]);
        assert!(Arc::ptr_eq(dict(&c), dict(&g)));
        assert_eq!(
            values(&g),
            vec![Value::str("b"), Value::str("a"), Value::Null]
        );
        assert_eq!(dict(&c).strs().len(), 3, "\"\", then b and a once each");
        let h = c.gather_or_null(&[u32::MAX, 2]);
        assert!(Arc::ptr_eq(dict(&c), dict(&h)));
        assert_eq!(values(&h), vec![Value::Null, Value::str("a")]);
    }

    #[test]
    fn extend_across_dictionaries_and_onto_an_empty_column() {
        let (x, y) = (
            strs(&[Some("x"), Some("y")]),
            strs(&[Some("y"), None, Some("z")]),
        );
        let mut c = Column::with_capacity(DataType::Str, 0);
        c.extend_from(&x, None);
        assert!(
            Arc::ptr_eq(dict(&c), dict(&x)),
            "adopted from the first part"
        );
        c.extend_from(&x, Some(&[1]));
        assert!(
            Arc::ptr_eq(dict(&c), dict(&x)),
            "kept for a part sharing it"
        );
        c.extend_from(&y, Some(&[2, 1, 0]));
        let want = ["x", "y", "y", "z"].map(Value::str);
        assert_eq!(values(&c)[..4], want);
        assert_eq!(values(&c)[4..], [Value::Null, Value::str("y")]);
        assert_eq!(dict(&c).strs().len(), 4, "y is entered once");
        assert_eq!(
            dict(&x).strs().len(),
            3,
            "the shared dictionary is untouched"
        );
    }

    #[test]
    fn equality_and_order_read_strings_across_dictionaries() {
        let a = strs(&[Some("p"), Some("q"), None]);
        let b = strs(&[Some("q"), Some("p"), None]).gather(&[1, 0, 2]);
        assert!(!Arc::ptr_eq(dict(&a), dict(&b)));
        assert_eq!(a, b);
        assert_ne!(a, strs(&[Some("p"), Some("p"), None]));
        assert_eq!(b.cmp_at(0, 1), Ordering::Less, "by text, not by code");
        assert_eq!(b.cmp_at(2, 0), Ordering::Less);
    }

    #[test]
    fn null_string_slot_is_one_byte_and_prints_as_empty_set() {
        let c = strs(&[None, Some("")]);
        assert_eq!((c.width_at(0), c.width_at(1)), (1, 0));
        let mut out = String::new();
        c.write_canonical(0, &mut out);
        c.write_canonical(1, &mut out);
        assert_eq!(out, "∅s:");
    }
}
