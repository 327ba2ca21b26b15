//! Typed values with a total order.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Data types supported by the engine.
///
/// DeepSea only partitions on *ordered* attributes; all three types are
/// totally ordered here (floats via IEEE `total_cmp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (the partition-key type in all experiments).
    Int,
    /// 64-bit float (measures).
    Float,
    /// Interned UTF-8 string (dimension labels).
    Str,
}

/// A single value. `Null` sorts before everything.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// String value; an `Arc`, shared with the dictionary it was read from.
    Str(Arc<str>),
}

impl Value {
    /// The value's type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float payload, coercing ints.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// String payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Approximate serialized width in bytes, used for shuffle sizing.
    pub fn width(&self) -> u64 {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => s.len() as u64,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            // Cross-type: numbers sort before strings (arbitrary but total).
            (Int(_) | Float(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_) | Float(_)) => Ordering::Greater,
        }
    }
}

/// Consistent with `Eq`: `a == b` implies equal hashes. A number hashes its
/// `f64` image under one tag, since `Int(1) == Float(1.0)`; an `f64` is
/// equal under `total_cmp` exactly when its bits are, so `-0.0` and `0.0`,
/// or two NaNs of different bits, are distinct values and may hash apart.
/// Distinct integers past 2^53 share an image and collide, as they may.
impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(_) | Value::Float(_) => {
                1u8.hash(state);
                self.as_float().map(f64::to_bits).hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::str(""));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn numeric_cross_type_compare() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn strings_sort_after_numbers() {
        assert!(Value::Int(1_000_000) < Value::str("a"));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Null.as_int(), None);
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Float(1.0).data_type(), Some(DataType::Float));
    }

    #[test]
    fn widths() {
        assert_eq!(Value::Int(1).width(), 8);
        assert_eq!(Value::str("abc").width(), 3);
        assert_eq!(Value::Null.width(), 1);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn hash_consistent_with_eq_for_ints() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Value::Int(1));
        assert!(s.contains(&Value::Int(1)));
        assert!(!s.contains(&Value::Int(2)));
    }
}
