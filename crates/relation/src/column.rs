//! Typed column vectors, and the columns tables hold.
//!
//! A [`Column`] holds values of one table column in a typed vector plus a
//! null mask. A table holds each of its columns as a [`Col`]: a shared
//! `Column` and, when the table keeps only some of its rows (or some twice),
//! a shared `u32` row index saying which. Scans, projections, selections,
//! joins and stored view fragments hand columns on without copying values:
//! a selection or a join composes index vectors, and every column taken
//! from one input shares one. A string column's vector holds codes into a
//! [`Dict`] that every column gathered from it shares. An integer column
//! stores each value as a `u32` offset from a base of its own when every
//! value lies within 2³² of it, and as an `i64` otherwise ([`Ints`]); this
//! module alone names the two words, and every reader here is generic over
//! them, compiled once per word (`words!`). A [`Col`] that is
//! range-selected a second time sorts its rows by value once
//! ([`Col::int_range_rows`]), so later ranges cost what they keep, and a
//! column asked which of its rows name a row of a surrogate key keeps the
//! answer as a bitmap ([`Column::key_bits`]).
//!
//! This module alone decides two things the executor asks of a column:
//! whether it is a surrogate key ([`Col::surrogate_first`], worked out on
//! the first ask and kept with the `Column`), and which rows pass a
//! filter ([`Col::keep_ints`], [`Col::keep_floats`], [`Col::keep_codes`]:
//! one branch-free loop, the index and NULLs settled once per call).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::{self, Write};
use std::mem::size_of_val;
// deepsea-lint: allow(layering) -- a column's write-once range order, key bitmap and surrogate-key answer: one flag and three OnceLocks, no guard is ever held
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

/// A storage word of an integer column ([`Ints`]): the value itself, or
/// its offset from the column's base. Readers are generic over it.
trait Word: Copy {
    /// The value this word stores over `base`.
    fn value(self, base: i64) -> i64;
}

/// The wide word: the value, whatever the base (always 0).
impl Word for i64 {
    #[inline]
    fn value(self, _: i64) -> i64 {
        self
    }
}

/// The narrow word: the offset from the base.
impl Word for u32 {
    #[inline]
    fn value(self, base: i64) -> i64 {
        base.wrapping_add(i64::from(self))
    }
}

/// The narrow word storing `x` over `base`, if `x` lies within 2³² above it.
#[inline]
fn offset(x: i64, base: i64) -> Option<u32> {
    let offset = x.wrapping_sub(base) as u64;
    (x >= base && offset <= u64::from(u32::MAX)).then_some(offset as u32)
}

/// An integer column's values, stored in the word the values allow where
/// the column is built: `u32` offsets from a base when every value lies
/// within 2³² of it, `i64` otherwise. A value that does not fit a narrow
/// column's base widens it. Readers see the values through the `Col`
/// methods, each compiled once per word.
#[derive(Clone)]
pub struct Ints(Words);

#[derive(Clone)]
enum Words {
    Wide(Vec<i64>),
    Narrow(i64, Vec<u32>),
}

/// `$body` with `$v` bound to the `IntSlice` of `$ints`' values in their
/// word: one arm per word, each compiled for its own.
macro_rules! words {
    ($ints:expr, |$v:ident| $body:expr) => {
        match &$ints.0 {
            Words::Wide(w) => {
                let $v = IntSlice {
                    base: 0,
                    words: w.as_slice(),
                };
                $body
            }
            Words::Narrow(base, w) => {
                let $v = IntSlice {
                    base: *base,
                    words: w.as_slice(),
                };
                $body
            }
        }
    };
}

/// An integer column's values as stored in word `W`: value `p` is word `p`
/// over `base`.
#[derive(Clone, Copy)]
struct IntSlice<'a, W> {
    base: i64,
    words: &'a [W],
}

impl<'a, W: Word> IntSlice<'a, W> {
    /// The value at `p`.
    #[inline]
    fn at(self, p: usize) -> i64 {
        self.words[p].value(self.base)
    }

    fn len(self) -> usize {
        self.words.len()
    }

    /// The values, in order.
    fn iter(self) -> impl Iterator<Item = i64> + Clone + 'a {
        let base = self.base;
        self.words.iter().map(move |w| w.value(base))
    }
}

impl Ints {
    /// An empty column for values in `[low, high]` with room for `cap`:
    /// narrow over `low` when the span fits the narrow word.
    pub(crate) fn spanning(low: i64, high: i64, cap: usize) -> Self {
        Self(match offset(high, low) {
            Some(_) => Words::Narrow(low, Vec::with_capacity(cap)),
            None => Words::Wide(Vec::with_capacity(cap)),
        })
    }

    /// `values`, narrow over their minimum when they allow it.
    fn from_vec(values: Vec<i64>) -> Self {
        let (min, max) =
            (values.iter()).fold((i64::MAX, i64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        Self(match offset(max, min) {
            Some(_) => Words::Narrow(
                min,
                values.iter().map(|&x| x.wrapping_sub(min) as u32).collect(),
            ),
            None => Words::Wide(values),
        })
    }

    fn len(&self) -> usize {
        words!(self, |v| v.len())
    }

    /// The value at `i`.
    #[inline]
    fn get(&self, i: usize) -> i64 {
        words!(self, |v| v.at(i))
    }

    /// Bytes the words take.
    fn bytes(&self) -> usize {
        words!(self, |v| size_of_val(v.words))
    }

    /// Make the column wide.
    fn widen(&mut self) {
        if let Words::Narrow(base, w) = &self.0 {
            self.0 = Words::Wide(w.iter().map(|x| x.value(*base)).collect());
        }
    }

    /// Append `x`, widening a narrow column it does not fit.
    #[inline]
    pub(crate) fn push(&mut self, x: i64) {
        if let Words::Narrow(base, w) = &mut self.0 {
            match offset(x, *base) {
                Some(offset) => return w.push(offset),
                None => self.widen(),
            }
        }
        if let Words::Wide(w) = &mut self.0 {
            w.push(x);
        }
    }

    /// Append a NULL slot: the word 0.
    #[inline]
    fn push_slot(&mut self) {
        match &mut self.0 {
            Words::Wide(w) => w.push(0),
            Words::Narrow(_, w) => w.push(0),
        }
    }

    /// Append `other`'s values at `idx` (all of them when `None`), widening
    /// a narrow column that one of them does not fit.
    fn extend(&mut self, other: &Ints, idx: Option<&[u32]>) {
        words!(other, |v| match idx {
            None => self.extend_values(v.iter()),
            Some(ix) => self.extend_values(ix.iter().map(|&p| v.at(p as usize))),
        })
    }

    fn extend_values(&mut self, values: impl Iterator<Item = i64> + Clone) {
        if let Words::Narrow(base, _) = self.0 {
            if !values.clone().all(|x| offset(x, base).is_some()) {
                self.widen();
            }
        }
        match &mut self.0 {
            Words::Wide(w) => w.extend(values),
            Words::Narrow(base, w) => {
                let base = *base;
                w.extend(values.map(|x| x.wrapping_sub(base) as u32));
            }
        }
    }

    /// The words at `idx`, in that order, over the same base; an index of
    /// [`u32::MAX`] gives the word 0.
    fn pick(&self, idx: &[u32]) -> Ints {
        Ints(match &self.0 {
            Words::Wide(w) => Words::Wide(pick(w, idx)),
            Words::Narrow(base, w) => Words::Narrow(*base, pick(w, idx)),
        })
    }
}

/// The values, as a list.
impl fmt::Debug for Ints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        words!(self, |v| f.debug_list().entries(v.iter()).finish())
    }
}

/// The typed payload of a column. A NULL slot holds the type's default
/// (an integer column's word 0, `0.0`, the code of `""`); only the mask
/// says it is NULL.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Ints),
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

/// The values of `v` at `idx`, in that order; an index of [`u32::MAX`]
/// gives the default.
fn pick<T: Copy + Default>(v: &[T], idx: &[u32]) -> Vec<T> {
    (idx.iter())
        .map(|&i| match i {
            u32::MAX => T::default(),
            i => v[i as usize],
        })
        .collect()
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

/// An integer [`Col`]'s range order, built on its second range selection
/// ([`Col::int_range_rows`]) and shared by the `Col`'s clones, which read
/// the same rows. A `Col` never changes, so neither does its order.
#[derive(Default)]
struct RangeOrder {
    /// Set by the first range selection.
    ranged: AtomicBool,
    /// The rows with a non-NULL value, sorted by (value, row).
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
    keys: OnceLock<KeyBits>,
    /// [`Column::surrogate_first`], once asked.
    surrogate: OnceLock<Option<i64>>,
}

/// The values and the mask; the key bitmap and the surrogate-key answer
/// are the column's own caches.
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
            keys: OnceLock::new(),
            surrogate: OnceLock::new(),
        }
    }

    /// Drop the key bitmap and the surrogate-key answer: the column is
    /// about to change.
    fn forget_caches(&mut self) {
        self.keys = OnceLock::new();
        self.surrogate = OnceLock::new();
    }

    /// An empty column of the given type with room for `cap` values. An
    /// integer one is narrow over 0 until a value outside `[0, 2³²)`
    /// widens it.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        let data = match dtype {
            DataType::Int => ColumnData::Int(Ints::spanning(0, u32::MAX.into(), cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Str => ColumnData::Str {
                codes: Vec::with_capacity(cap),
                dict: Arc::new(Dict::new()),
            },
        };
        Self::new(data, Vec::new())
    }

    /// An integer column without NULLs, narrow when its values allow.
    pub fn from_ints(values: Vec<i64>) -> Self {
        Self::new(ColumnData::Int(Ints::from_vec(values)), Vec::new())
    }

    /// An integer column without NULLs, wide whatever its values: for
    /// tests that hold the two words against each other.
    #[doc(hidden)]
    pub fn from_ints_wide(values: Vec<i64>) -> Self {
        Self::new(ColumnData::Int(Ints(Words::Wide(values))), Vec::new())
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

    /// Bytes the values take in memory: the words, floats or codes, and
    /// the NULL mask. A string column's dictionary, shared, is not counted.
    pub fn value_bytes(&self) -> usize {
        let values = match &self.data {
            ColumnData::Int(v) => v.bytes(),
            ColumnData::Float(v) => size_of_val(v.as_slice()),
            ColumnData::Str { codes, .. } => size_of_val(codes.as_slice()),
        };
        values + size_of_val(self.nulls.as_slice())
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
            ColumnData::Int(v) => v.push_slot(),
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
            ColumnData::Int(v) => Value::Int(v.get(i)),
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
            ColumnData::Int(v) if !self.is_null(i) => Some(v.get(i)),
            _ => None,
        }
    }

    /// Serialized width of the value at `i` (see [`Value::width`]): 8 bytes
    /// for any number, whatever its word.
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
            ColumnData::Int(v) => words!(v, |v| v.at(i).cmp(&v.at(j))),
            ColumnData::Float(v) => v[i].total_cmp(&v[j]),
            ColumnData::Str { .. } => self.str_at(i).cmp(self.str_at(j)),
        }
    }

    /// A new column holding the values at `idx`, in that order, where an
    /// index of [`u32::MAX`] gives NULL: one pass, in this column's type
    /// and word; a string column's shares its dictionary.
    pub fn gather_or_null(&self, idx: &[u32]) -> Column {
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(v.pick(idx)),
            ColumnData::Float(v) => ColumnData::Float(pick(v, idx)),
            ColumnData::Str { codes, dict } => ColumnData::Str {
                codes: pick(codes, idx),
                dict: Arc::clone(dict),
            },
        };
        let null = |i: u32| i == u32::MAX || self.is_null(i as usize);
        let nulls = match idx.iter().any(|&i| null(i)) {
            true => idx.iter().map(|&i| null(i)).collect(),
            false => Vec::new(),
        };
        Column::new(data, nulls)
    }

    /// Append the values of `other` at `idx` (all of `other` when `None`).
    /// Integers keep a narrow column narrow while they fit its base.
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
            (ColumnData::Int(d), ColumnData::Int(s)) => d.extend(s, idx),
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

    /// `Some(first)` when the column is a surrogate key: an integer column
    /// with at least one row and no NULL whose row `r` holds `first + r`,
    /// no run passing `i64::MAX`. Worked out on the first ask, by a pass
    /// that stops at the first row breaking the rule, and kept until the
    /// column changes; a clone asks again.
    pub fn surrogate_first(&self) -> Option<i64> {
        *self.surrogate.get_or_init(|| {
            let ColumnData::Int(v) = &self.data else {
                return None;
            };
            if v.len() == 0 || self.nulls.contains(&true) {
                return None;
            }
            words!(v, |v| {
                let first = v.at(0);
                let serial = (v.iter().zip(0..)).all(|(x, r)| first.checked_add(r) == Some(x));
                serial.then_some(first)
            })
        })
    }

    /// [`Column::key_bits`], computed: 64 rows a word, each row's bit set
    /// with no branch on the data.
    fn compute_key_bits(&self, first: i64, len: usize) -> Vec<u64> {
        let mut bits = vec![0u64; self.len().div_ceil(64)];
        let ColumnData::Int(v) = &self.data else {
            return bits;
        };
        let hit = |x: i64| (x.wrapping_sub(first) as u64) < len as u64;
        words!(v, |v| {
            for (w, chunk) in bits.iter_mut().zip(v.words.chunks(64)) {
                *w = (chunk.iter().enumerate())
                    .fold(0, |acc, (b, &x)| acc | u64::from(hit(x.value(v.base))) << b);
            }
        });
        if self.has_nulls() {
            for (w, chunk) in bits.iter_mut().zip(self.nulls.chunks(64)) {
                *w &= !(chunk.iter().enumerate()).fold(0, |acc, (b, &n)| acc | u64::from(n) << b);
            }
        }
        bits
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
            ColumnData::Int(v) => write!(out, "{}", v.get(i)),
            ColumnData::Str { .. } => write!(out, "s:{}", self.str_at(i)),
        };
    }

    /// Whether the value at `i` equals `other`'s at `j`: both NULL, or the
    /// same type and value (floats by bits, like [`Value`]'s
    /// `total_cmp`-based equality; strings by their text, whatever their
    /// dictionaries; integers by value, whatever their words).
    pub fn same_at(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self.is_null(i), other.is_null(j)) {
            (true, true) => return true,
            (false, false) => {}
            _ => return false,
        }
        match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a.get(i) == b.get(j),
            (ColumnData::Float(a), ColumnData::Float(b)) => a[i].to_bits() == b[j].to_bits(),
            (ColumnData::Str { .. }, ColumnData::Str { .. }) => self.str_at(i) == other.str_at(j),
            _ => false,
        }
    }
}

/// Whether `a`'s value at `pa(r)` equals `b`'s at `pb(r)` for every row
/// `r < n` ([`Column::same_at`]); two integer columns compare in their
/// words, each settled once.
fn same_rows(
    a: &Column,
    pa: impl Fn(usize) -> usize,
    b: &Column,
    pb: impl Fn(usize) -> usize,
    n: usize,
) -> bool {
    let (ColumnData::Int(x), ColumnData::Int(y)) = (&a.data, &b.data) else {
        return (0..n).all(|r| a.same_at(pa(r), b, pb(r)));
    };
    words!(x, |x| words!(y, |y| (0..n).all(|r| {
        let (i, j) = (pa(r), pb(r));
        match (a.is_null(i), b.is_null(j)) {
            (false, false) => x.at(i) == y.at(j),
            (a_null, b_null) => a_null == b_null,
        }
    })))
}

/// Value equality, value by value ([`Column::same_at`]).
impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && same_rows(self, |i| i, other, |i| i, self.len())
    }
}

/// Row positions in a column, shared by every [`Col`] that reads through
/// them.
pub type Rows = Arc<Vec<u32>>;

/// One column of a table: shared values and, when the table holds only
/// some of them (or some twice), a shared row index saying which. Row `r`
/// is the value at `idx[r]`, or at `r` without an index ([`Col::phys`]).
///
/// A `Col` never changes. A table's column keeps its range order
/// ([`Col::int_range_rows`]) with it, indexed or not, shared by its clones.
#[derive(Clone)]
pub struct Col {
    data: Arc<Column>,
    idx: Option<Rows>,
    /// `None` for the intermediate columns of an operator
    /// ([`Col::take_all`]), whose rows are read once: every range scans
    /// them. A table's columns have one ([`Col::kept`]).
    order: Option<Arc<RangeOrder>>,
}

/// The values and the index, as a derived `Debug` prints them.
impl fmt::Debug for Col {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Col")
            .field("data", &self.data)
            .field("idx", &self.idx)
            .finish()
    }
}

impl From<Column> for Col {
    fn from(data: Column) -> Self {
        Self::whole(Arc::new(data))
    }
}

impl Col {
    /// Every row of `data`, in order.
    pub fn whole(data: Arc<Column>) -> Self {
        Self {
            data,
            idx: None,
            order: Some(Arc::default()),
        }
    }

    /// The rows of `data` at `idx`, in that order.
    ///
    /// # Panics
    /// Panics (in debug builds) if a position is past `data`'s end.
    pub fn indexed(data: Arc<Column>, idx: Rows) -> Self {
        debug_assert!(
            idx.iter().all(|&p| (p as usize) < data.len()),
            "an index names rows of its column"
        );
        Self {
            data,
            idx: Some(idx),
            order: Some(Arc::default()),
        }
    }

    /// This column, with a range order to keep if it had none: what a
    /// table holds.
    pub(crate) fn kept(mut self) -> Self {
        self.order.get_or_insert_with(Arc::default);
        self
    }

    /// The shared values.
    #[inline]
    pub fn data(&self) -> &Arc<Column> {
        &self.data
    }

    /// The shared row index; `None` when every row is read in place.
    #[inline]
    pub fn idx(&self) -> Option<&Rows> {
        self.idx.as_ref()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.idx.as_ref().map_or(self.data.len(), |ix| ix.len())
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's type.
    pub fn dtype(&self) -> DataType {
        self.data.dtype()
    }

    /// Position in [`Col::data`] of row `r`.
    #[inline]
    pub fn phys(&self, r: usize) -> usize {
        match &self.idx {
            Some(ix) => ix[r] as usize,
            None => r,
        }
    }

    /// The value of row `r`.
    pub fn value(&self, r: usize) -> Value {
        self.data.value(self.phys(r))
    }

    /// Integer payload of row `r`; `None` for NULL and for non-integer
    /// columns.
    #[inline]
    pub fn int_at(&self, r: usize) -> Option<i64> {
        self.data.int_at(self.phys(r))
    }

    /// Whether row `r` is NULL.
    #[inline]
    pub fn is_null(&self, r: usize) -> bool {
        self.data.is_null(self.phys(r))
    }

    /// Whether the two read the very same rows of the very same values:
    /// one `Column` and one index vector (`Arc::ptr_eq`), or both no index.
    pub fn shares(&self, other: &Col) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
            && match (&self.idx, &other.idx) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }

    /// Append the canonical fingerprint text of row `r`.
    pub(crate) fn write_canonical(&self, r: usize, out: &mut String) {
        self.data.write_canonical(self.phys(r), out);
    }

    /// [`Column::surrogate_first`] of a column read in place; `None` for one
    /// read through an index, whose rows are never taken for a surrogate
    /// key — so a take, a join's output or an aggregate's keys never are.
    /// Any column read in place qualifies: a base column, one a keep-all
    /// selection left in place, and a fresh one (an aggregate's values, a
    /// concatenation's gathered parts), which is checked again on each
    /// query because it is new each time.
    pub fn surrogate_first(&self) -> Option<i64> {
        match self.idx {
            None => self.data.surrogate_first(),
            Some(_) => None,
        }
    }

    /// `f(r, x)` for each of the first `n` rows `r`, in order: `x` the
    /// row's integer value, `None` when it is NULL. A non-integer column
    /// calls nothing. The word, the index and whether a value can be NULL
    /// are settled once, before the loop.
    #[inline]
    pub fn for_each_int(&self, n: usize, f: impl FnMut(usize, Option<i64>)) {
        if let ColumnData::Int(v) = &self.data.data {
            words!(v, |v| self.each_row(v.words, n, |w| w.value(v.base), f))
        }
    }

    /// [`Col::for_each_int`], where a string column also gives each row's
    /// code into its dictionary: the column's keys read as integers. A
    /// float column calls nothing.
    #[inline]
    pub fn for_each_key(&self, n: usize, f: impl FnMut(usize, Option<i64>)) {
        match &self.data.data {
            ColumnData::Int(_) => self.for_each_int(n, f),
            ColumnData::Str { codes, .. } => self.each_row(codes, n, i64::from, f),
            ColumnData::Float(_) => {}
        }
    }

    /// `f(r, x)` for each of the first `n` rows `r` with a non-NULL number
    /// `x` (integers coerced), in order. Strings are not numbers. As in
    /// [`Col::for_each_int`], the index and NULLs are settled once.
    #[inline]
    pub fn for_each_float(&self, n: usize, mut f: impl FnMut(usize, f64)) {
        let some = |r, x: Option<f64>| {
            if let Some(x) = x {
                f(r, x)
            }
        };
        match &self.data.data {
            ColumnData::Int(v) => words!(v, |v| self.each_row(
                v.words,
                n,
                |w| w.value(v.base) as f64,
                some
            )),
            ColumnData::Float(v) => self.each_row(v, n, |x| x, some),
            ColumnData::Str { .. } => {}
        }
    }

    /// `f(r, x)` for each of the first `n` rows, `x` the value of `read`
    /// over the row's slot of `slots` (the column's values), or `None` for
    /// NULL; index and NULLs settled once.
    #[inline]
    fn each_row<S: Copy, T>(
        &self,
        slots: &[S],
        n: usize,
        read: impl Fn(S) -> T,
        mut f: impl FnMut(usize, Option<T>),
    ) {
        let nulls = &self.data.nulls;
        match (&self.idx, nulls.is_empty()) {
            (None, true) => (slots[..n].iter())
                .enumerate()
                .for_each(|(r, &s)| f(r, Some(read(s)))),
            (None, false) => (slots[..n].iter().zip(nulls))
                .enumerate()
                .for_each(|(r, (&s, &null))| f(r, (!null).then(|| read(s)))),
            (Some(ix), true) => (ix[..n].iter())
                .enumerate()
                .for_each(|(r, &p)| f(r, Some(read(slots[p as usize])))),
            (Some(ix), false) => (ix[..n].iter()).enumerate().for_each(|(r, &p)| {
                let p = p as usize;
                f(r, (!nulls[p]).then(|| read(slots[p])))
            }),
        }
    }

    /// The rows of `sel` (of every row when `None`; ascending either way)
    /// whose value is not NULL and whose slot in `slots` — the column's own
    /// values: its integer words, its floats or its codes — passes `test`.
    /// Whether the column is indexed and can hold a NULL is settled once,
    /// so the loop only does what its column needs, and it has no branch
    /// on the data.
    fn keep<S: Copy>(
        &self,
        sel: Option<Vec<u32>>,
        slots: &[S],
        test: impl Fn(S) -> bool,
    ) -> Vec<u32> {
        debug_assert_eq!(slots.len(), self.data.len(), "not the column's values");
        let (n, nulls) = (self.len(), &self.data.nulls);
        // In place, the slices are cut to `n`, which proves the loop's reads
        // in bounds: uncut, `select_40k_range` read 7–15 % slower (2-core
        // Xeon).
        match (&self.idx, nulls.is_empty()) {
            (None, true) => {
                let slots = &slots[..n];
                compact(n, sel, |r| test(slots[r]))
            }
            (None, false) => {
                let (slots, nulls) = (&slots[..n], &nulls[..n]);
                compact(n, sel, |r| test(slots[r]) & !nulls[r])
            }
            (Some(ix), true) => compact(n, sel, |r| test(slots[ix[r] as usize])),
            (Some(ix), false) => compact(n, sel, |r| {
                let p = ix[r] as usize;
                test(slots[p]) & !nulls[p]
            }),
        }
    }

    /// The rows of `sel` (of every row when `None`; ascending either way)
    /// whose integer value is not NULL and passes `test`, compiled once per
    /// storage word; a non-integer column keeps nothing. Whether the column
    /// is indexed and can hold a NULL is settled once, so the loop only
    /// does what its column needs, and it has no branch on the data.
    pub fn keep_ints(&self, sel: Option<Vec<u32>>, test: impl Fn(i64) -> bool) -> Vec<u32> {
        let ColumnData::Int(v) = &self.data.data else {
            return Vec::new();
        };
        words!(v, |v| self.keep(sel, v.words, |w| test(w.value(v.base))))
    }

    /// [`Col::keep_ints`] over a float column; a column of another type
    /// keeps nothing.
    pub fn keep_floats(&self, sel: Option<Vec<u32>>, test: impl Fn(f64) -> bool) -> Vec<u32> {
        match &self.data.data {
            ColumnData::Float(v) => self.keep(sel, v, test),
            _ => Vec::new(),
        }
    }

    /// [`Col::keep_ints`] over a string column, `test` given each row's
    /// code into its [`Dict`]; a column of another type keeps nothing.
    pub fn keep_codes(&self, sel: Option<Vec<u32>>, test: impl Fn(u32) -> bool) -> Vec<u32> {
        match &self.data.data {
            ColumnData::Str { codes, .. } => self.keep(sel, codes, test),
            _ => Vec::new(),
        }
    }

    /// Rows whose integer value lies in `[low, high]`, in ascending order.
    /// NULLs and non-integer columns select nothing.
    ///
    /// The column's first range selection scans it. Its second sorts the
    /// rows with a value by (value, row) once — a counting sort when the
    /// values are dense ([`dense_span`]), a stable sort otherwise — and from
    /// then on a range is two binary searches in that order plus one pass
    /// over a bitmap of the rows found, which puts them back in row order.
    /// A column read in place scans a range that keeps more than a quarter
    /// of its rows instead; one read through an index never does, as a
    /// scan would read every row through the index. Either way the rows
    /// are the same, and an indexed column's are its own rows, not its
    /// values' positions.
    pub fn int_range_rows(&self, low: i64, high: i64) -> Vec<u32> {
        let ColumnData::Int(v) = &self.data.data else {
            return Vec::new();
        };
        words!(v, |v| self.range_rows(v, low, high))
    }

    /// [`Col::int_range_rows`] over the column's values `v`.
    fn range_rows<W: Word>(&self, v: IntSlice<'_, W>, low: i64, high: i64) -> Vec<u32> {
        let within = |w: W| (low <= w.value(v.base)) & (w.value(v.base) <= high);
        let scan = || self.keep(None, v.words, within);
        let Some(kept) = &self.order else {
            return scan();
        };
        let order = match kept.rows.get() {
            Some(order) => order,
            None if kept.ranged.swap(true, Relaxed) => {
                kept.rows.get_or_init(|| self.range_order(v))
            }
            None => return scan(),
        };
        let n = self.len();
        let ordered = match &self.idx {
            None => ordered_range(n, |r| v.at(r as usize), order, low, high, n / 4),
            Some(ix) => ordered_range(n, |r| v.at(ix[r as usize] as usize), order, low, high, n),
        };
        ordered.unwrap_or_else(scan)
    }

    /// The rows with a non-NULL value in `v` (the column's values), sorted
    /// by (value, row). NULL slots are sorted with the rest, then dropped.
    fn range_order<W: Word>(&self, v: IntSlice<'_, W>) -> Vec<u32> {
        let rows: Cow<'_, [W]> = match &self.idx {
            None => Cow::Borrowed(v.words),
            Some(ix) => Cow::Owned(ix.iter().map(|&p| v.words[p as usize]).collect()),
        };
        let v = IntSlice {
            base: v.base,
            words: &rows,
        };
        let (min, max) = v
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), x| (lo.min(x), hi.max(x)));
        let mut order = match dense_span(min, max, v.len()) {
            // Counting sort: each value's first slot, then the rows in order.
            Some(span) => {
                let mut next = vec![0u32; span + 2];
                v.iter().for_each(|x| next[(x - min) as usize + 1] += 1);
                for s in 1..next.len() {
                    next[s] += next[s - 1];
                }
                let mut order = vec![0u32; v.len()];
                for (r, x) in v.iter().enumerate() {
                    let s = &mut next[(x - min) as usize];
                    order[*s as usize] = r as u32;
                    *s += 1;
                }
                order
            }
            None => {
                let mut order: Vec<u32> = (0..v.len() as u32).collect();
                order.sort_by_key(|&r| v.at(r as usize));
                order
            }
        };
        if self.data.has_nulls() {
            order.retain(|&r| !self.is_null(r as usize));
        }
        order
    }

    /// One pass over an integer column that splits its rows among inclusive
    /// `ranges`, which must be ascending and disjoint: per range, the rows
    /// whose value lies in it, in ascending order. NULLs, values in no range
    /// and non-integer columns go nowhere.
    pub fn int_partition_rows(&self, ranges: &[(i64, i64)]) -> Vec<Vec<u32>> {
        debug_assert!(ranges.windows(2).all(|w| w[0].1 < w[1].0));
        let mut parts = vec![Vec::new(); ranges.len()];
        self.for_each_int(self.len(), |r, x| {
            let Some(x) = x else {
                return;
            };
            let k = ranges.partition_point(|&(_, high)| high < x);
            if k < ranges.len() && ranges[k].0 <= x {
                parts[k].push(r as u32);
            }
        });
        parts
    }

    /// The columns `cols` restricted to rows `sel`, in that order: a column
    /// read in place reads `sel` itself, and the columns that share an
    /// index vector share the one composed from it — one new vector per
    /// distinct old one. No value is copied, and the columns keep no range
    /// order until a table holds them.
    pub fn take_all<'a>(
        cols: impl IntoIterator<Item = &'a Col> + 'a,
        sel: &'a Rows,
    ) -> impl Iterator<Item = Col> + 'a {
        let mut composed: Vec<(&Rows, Rows)> = Vec::new();
        cols.into_iter().map(move |c| {
            let idx = match &c.idx {
                None => Arc::clone(sel),
                Some(old) => match composed.iter().find(|(o, _)| Arc::ptr_eq(o, old)) {
                    Some((_, new)) => Arc::clone(new),
                    None => {
                        let new: Rows = Arc::new(sel.iter().map(|&s| old[s as usize]).collect());
                        composed.push((old, Arc::clone(&new)));
                        new
                    }
                },
            };
            Col {
                data: Arc::clone(&c.data),
                idx: Some(idx),
                order: None,
            }
        })
    }
}

/// Value equality, row by row ([`Column::same_at`] through each index).
impl PartialEq for Col {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (self.shares(other)
                || same_rows(
                    &self.data,
                    |r| self.phys(r),
                    &other.data,
                    |r| other.phys(r),
                    self.len(),
                ))
    }
}

/// The rows of `sel` (of `0..n` when `None`) that `pass`, in order. Every
/// row is written to the output and the output only advances past it if it
/// passed: no branch depends on the data.
fn compact(n: usize, sel: Option<Vec<u32>>, pass: impl Fn(usize) -> bool) -> Vec<u32> {
    let mut k = 0;
    let mut rows = match sel {
        None => {
            let mut out = vec![0u32; n];
            for r in 0..n {
                out[k] = r as u32;
                k += usize::from(pass(r));
            }
            out
        }
        Some(mut rows) => {
            for i in 0..rows.len() {
                let r = rows[i];
                rows[k] = r;
                k += usize::from(pass(r as usize));
            }
            rows
        }
    };
    rows.truncate(k);
    rows
}

/// The rows of an `n`-row column whose value (`value(row)`) lies in
/// `[low, high]`, ascending, found in `order` (the rows with a non-NULL
/// value sorted by (value, row)); `None` when they are more than `most`.
fn ordered_range(
    n: usize,
    value: impl Fn(u32) -> i64,
    order: &[u32],
    low: i64,
    high: i64,
    most: usize,
) -> Option<Vec<u32>> {
    let from = order.partition_point(|&r| value(r) < low);
    let hits = &order[from..];
    let hits = &hits[..hits.partition_point(|&r| value(r) <= high)];
    if hits.len() > most {
        return None;
    }
    let mut bits = vec![0u64; n.div_ceil(64)];
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
    fn gather_or_null_and_take_all_keep_order_and_nulls() {
        let want = vec![Value::Int(-1), Value::Null, Value::Null, Value::Int(3)];
        let g = ints_with_null().gather_or_null(&[2, 1, 1, 0]);
        assert_eq!((0..4).map(|i| g.value(i)).collect::<Vec<_>>(), want);
        let sel = Arc::new(vec![2, 1, 1, 0]);
        let t = Col::take_all([&Col::from(ints_with_null())], &sel)
            .next()
            .unwrap();
        assert_eq!((0..4).map(|r| t.value(r)).collect::<Vec<_>>(), want);
        let dense = ints_with_null().gather_or_null(&[0, 2]);
        assert!(!dense.has_nulls(), "no NULL picked, no mask");
        assert_eq!(dense, Column::from_ints(vec![3, -1]));
        let sel = Arc::new(vec![0, 2]);
        let t = Col::take_all([&Col::from(ints_with_null())], &sel)
            .next()
            .unwrap();
        assert_eq!(
            t,
            Col::from(Column::from_ints(vec![3, -1])),
            "all-false mask equals no mask"
        );
        let with_null = Column::from_ints(vec![5, 6]).gather_or_null(&[u32::MAX, 1]);
        assert_eq!(values(&with_null), [Value::Null, Value::Int(6)]);
    }

    #[test]
    fn a_column_is_narrow_while_its_values_fit_and_widens_once_one_does_not() {
        let narrow = Column::from_ints(vec![7, 7 + i64::from(u32::MAX)]);
        assert_eq!(narrow.value_bytes(), 8, "two offsets from 7");
        assert_eq!(
            Column::from_ints(vec![i64::MIN, i64::MAX]).value_bytes(),
            16
        );
        let mut c = Column::with_capacity(DataType::Int, 3);
        c.push(Value::Int(4));
        c.push(Value::Null);
        assert_eq!(c.value_bytes(), 4 * 2 + 2, "words and mask");
        c.push(Value::Int(-1));
        assert_eq!(c.value_bytes(), 8 * 3 + 3, "widened by -1");
        assert_eq!(values(&c), [Value::Int(4), Value::Null, Value::Int(-1)]);
        let mut wide = Column::from_ints_wide(vec![1, 2]);
        wide.extend_from(&narrow, Some(&[1]));
        assert_eq!(wide, Column::from_ints(vec![1, 2, 7 + i64::from(u32::MAX)]));
        let mut n = Column::from_ints(vec![1, 2]);
        n.extend_from(&Column::from_ints_wide(vec![3]), None);
        assert_eq!(n.value_bytes(), 12, "3 fits over 1: still narrow");
        assert_eq!(n, Column::from_ints_wide(vec![1, 2, 3]));
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
        let c = Col::from(ints_with_null());
        assert_eq!(c.int_range_rows(-5, 5), vec![0, 2]);
        assert_eq!(c.int_range_rows(0, 5), vec![0]);
        assert!(Col::from(floats()).int_range_rows(0, 2).is_empty());
    }

    /// A column whose second range selection has built its order.
    fn ordered(values: &[i64]) -> Col {
        let c = Col::from(Column::from_ints(values.to_vec()));
        c.int_range_rows(0, -1);
        c.int_range_rows(0, -1);
        assert!(kept(&c).is_some());
        c
    }

    /// The range order `c` keeps, once built.
    fn kept(c: &Col) -> Option<&Vec<u32>> {
        c.order.as_ref().and_then(|o| o.rows.get())
    }

    fn unordered(c: &Col) -> bool {
        c.order
            .as_ref()
            .is_some_and(|o| o.rows.get().is_none() && !o.ranged.load(Relaxed))
    }

    #[test]
    fn second_range_selection_sorts_the_rows_by_value_then_row() {
        let mut data = ints_with_null();
        data.extend_from(&Column::from_ints(vec![3, 7, -1, 3]), None);
        let c = Col::from(data);
        assert_eq!(c.int_range_rows(3, 3), vec![0, 3, 6], "the first scans");
        assert!(kept(&c).is_none());
        assert_eq!(c.int_range_rows(7, 7), vec![4], "the second sorts");
        assert_eq!(kept(&c), Some(&vec![2, 5, 0, 3, 6, 4]));
        assert_eq!(c.int_range_rows(-1, -1), vec![2, 5]);
        assert_eq!(c.int_range_rows(-5, 5), vec![0, 2, 3, 5, 6], "wide: a scan");
        // Sparse values are sorted, not counted, into the same order.
        let sparse = ordered(&[i64::MAX, 5, i64::MIN, 5, 0]);
        assert_eq!(kept(&sparse), Some(&vec![2, 4, 1, 3, 0]));
        assert_eq!(sparse.int_range_rows(i64::MAX, i64::MAX), vec![0]);
    }

    #[test]
    fn an_indexed_column_orders_its_own_rows() {
        // Rows 0..6 read positions 6, 1, 0, 6, 2, 4: values -1, NULL, 3, -1, 7, 3.
        let mut data = ints_with_null();
        data.extend_from(&Column::from_ints(vec![3, 7, -1, 3]), None);
        let c = Col::indexed(Arc::new(data), Arc::new(vec![5, 1, 0, 5, 4, 6]));
        assert_eq!(c.len(), 6);
        assert_eq!(c.int_range_rows(-1, -1), vec![0, 3], "the first scans");
        assert_eq!(c.int_range_rows(3, 3), vec![2, 5], "the second sorts");
        assert_eq!(kept(&c), Some(&vec![0, 3, 2, 5, 4]));
        assert_eq!(c.int_range_rows(7, 7), vec![4]);
        assert_eq!(c.int_range_rows(-5, 5), vec![0, 2, 3, 5], "wide: a scan");
        let clone = c.clone();
        assert!(!unordered(&clone), "a clone shares the order");
        assert_eq!(
            c.int_partition_rows(&[(-1, 0), (3, 7)]),
            [vec![0, 3], vec![2, 4, 5]]
        );
        // An operator's intermediate column keeps no order: it scans.
        let sel = Arc::new(vec![3, 2, 0]);
        let taken: Vec<Col> = Col::take_all([&c], &sel).collect();
        assert!(taken[0].order.is_none());
        for _ in 0..3 {
            assert_eq!(taken[0].int_range_rows(-1, 3), vec![0, 1, 2]);
        }
        assert!(taken[0].clone().kept().order.is_some(), "a table's does");
    }

    #[test]
    fn mutation_forgets_the_range_order() {
        // A Col never changes: a changed column is read through a new Col,
        // which starts without an order and answers from the new values.
        let values: Vec<i64> = (0..16).map(|i| i * 10).collect();
        type Change = (&'static str, fn(&mut Column), (i64, i64), Vec<u32>);
        let changes: [Change; 4] = [
            ("push", |c| c.push(Value::Int(25)), (21, 29), vec![16]),
            ("push_null", |c| c.push_null(), (0, 0), vec![0]),
            (
                "push of a copy",
                |c| c.push(c.value(3)),
                (30, 30),
                vec![3, 16],
            ),
            (
                "extend_from",
                |c| c.extend_from(&Column::from_ints(vec![35, 5]), Some(&[1])),
                (1, 9),
                vec![16],
            ),
        ];
        for (what, change, (low, high), want) in changes {
            let c = ordered(&values);
            let mut data = (**c.data()).clone();
            change(&mut data);
            let c = Col::from(data);
            assert!(unordered(&c), "{what}");
            for call in 0..3 {
                assert_eq!(
                    c.int_range_rows(low, high),
                    want,
                    "call {call} after {what}"
                );
            }
        }
    }

    #[test]
    fn debug_clone_and_equality_ignore_the_range_order() {
        let c = ordered(&[4, 2]);
        assert_eq!(
            format!("{c:?}"),
            "Col { data: Column { data: Int([4, 2]), nulls: [] }, idx: None }"
        );
        assert_eq!(
            format!("{:?}", ints_with_null()),
            "Column { data: Int([3, 0, -1]), nulls: [false, true, false] }"
        );
        let copy = Col::from((**c.data()).clone());
        assert!(
            unordered(&copy),
            "a copy of the values starts without an order"
        );
        assert_eq!(copy, c);
        assert_eq!(copy, Col::from(Column::from_ints(vec![4, 2])));
        let reversed = Col::indexed(
            Arc::new(Column::from_ints(vec![2, 4])),
            Arc::new(vec![1, 0]),
        );
        assert_eq!(reversed, c, "equal rows, read through an index");
        let sel = Arc::new(vec![0, 0]);
        let twice = Col::take_all([&copy], &sel).next().unwrap();
        assert_ne!(reversed, twice);
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

    /// [`Column::surrogate_first`] of a column of `values`, built by `push`.
    fn first_of(dtype: DataType, values: &[Value]) -> Option<i64> {
        let mut c = Column::with_capacity(dtype, values.len());
        values.iter().for_each(|v| c.push(v.clone()));
        c.surrogate_first()
    }

    fn ints(keys: &[i64]) -> Option<i64> {
        let values: Vec<Value> = keys.iter().map(|&k| Value::Int(k)).collect();
        let first = first_of(DataType::Int, &values);
        // A narrow and a wide column with the same values answer alike.
        assert_eq!(Column::from_ints(keys.to_vec()).surrogate_first(), first);
        assert_eq!(
            Column::from_ints_wide(keys.to_vec()).surrogate_first(),
            first
        );
        first
    }

    #[test]
    fn surrogate_keys_are_runs_of_consecutive_integers_from_row_zero() {
        assert_eq!(ints(&[7, 8, 9, 10]), Some(7));
        assert_eq!(ints(&[-3, -2, -1, 0, 1]), Some(-3));
        assert_eq!(ints(&[42]), Some(42), "one row");
        let top = [i64::MAX - 2, i64::MAX - 1, i64::MAX];
        assert_eq!(ints(&top), Some(i64::MAX - 2), "a run ending at MAX");

        assert_eq!(ints(&[]), None, "empty");
        assert_eq!(ints(&[0, 1, 3, 4]), None, "a gap");
        assert_eq!(ints(&[0, 1, 1, 2]), None, "a duplicate");
        assert_eq!(ints(&[3, 2, 1, 0]), None, "descending");
        assert_eq!(ints(&[1, 0, 2, 3]), None, "the minimum not first");
        // `first + r` passes i64::MAX: no run, whatever the wrapped value.
        assert_eq!(ints(&[i64::MAX, i64::MIN]), None, "overflow");
        assert_eq!(ints(&[i64::MAX - 1, i64::MAX, i64::MIN]), None);

        // A NULL breaks a run, its slot's 0 included.
        let null = [Value::Int(5), Value::Null, Value::Int(2)];
        assert_eq!(first_of(DataType::Int, &null), None, "NULL");
        assert_eq!(first_of(DataType::Int, &[Value::Null, Value::Int(1)]), None);
        assert_eq!(first_of(DataType::Int, &[Value::Null]), None);
        let floats = [Value::Float(0.0), Value::Float(1.0)];
        assert_eq!(first_of(DataType::Float, &floats), None, "not integers");

        // Only a column read in place is one: not through an index, even
        // one naming every row in order.
        let serial = Arc::new(Column::from_ints(vec![4, 5, 6]));
        assert_eq!(Col::whole(Arc::clone(&serial)).surrogate_first(), Some(4));
        let identity = Col::indexed(serial, Arc::new(vec![0, 1, 2]));
        assert_eq!(identity.surrogate_first(), None);

        // The answer is kept until the column changes; a push forgets it.
        let mut c = Column::from_ints(vec![4, 5, 6]);
        assert_eq!(c.surrogate.get(), None);
        assert_eq!(c.surrogate_first(), Some(4));
        assert_eq!(c.surrogate.get(), Some(&Some(4)));
        assert_eq!(c.clone().surrogate.get(), None, "a clone asks again");
        c.push(Value::Int(7));
        assert_eq!(c.surrogate.get(), None, "forgotten");
        assert_eq!(c.surrogate_first(), Some(4), "still a run");
        c.push(Value::Int(9));
        assert_eq!(c.surrogate_first(), None, "a gap now");
    }

    #[test]
    fn partition_rows_routes_each_row_once() {
        let mut c = Column::from_ints(vec![5, 0, 9, 3, 4, 12]);
        c.push_null();
        let c = Col::from(c);
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
    fn gather_or_null_shares_the_dictionary() {
        let c = strs(&[Some("b"), None, Some("a"), Some("b")]);
        let g = c.gather_or_null(&[3, 2, 1]);
        assert!(Arc::ptr_eq(dict(&c), dict(&g)));
        let sel = Arc::new(vec![3, 2, 1]);
        let t = Col::take_all([&Col::from(c.clone())], &sel).next().unwrap();
        assert_eq!(t, Col::from(g.clone()));
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
        let b = strs(&[Some("q"), Some("p"), None]).gather_or_null(&[1, 0, 2]);
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
