//! Selection predicates.
//!
//! DeepSea's partitioning logic reasons about conjunctions of *range*
//! conditions `l <= A <= u` over ordered attributes (§6.2 of the paper), with
//! arbitrary extra equality conditions treated as residual predicates. This
//! module is that predicate language.

use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;

/// A selection predicate over named columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Always true (the empty conjunction).
    True,
    /// Inclusive range condition `low <= col <= high` on an integer column.
    Range {
        /// Column name (qualified or unambiguous bare name).
        col: String,
        /// Inclusive lower bound.
        low: i64,
        /// Inclusive upper bound.
        high: i64,
    },
    /// Equality condition `col = value`.
    Eq {
        /// Column name.
        col: String,
        /// Value compared against.
        value: Value,
    },
    /// Conjunction of predicates.
    And(Vec<Predicate>),
}

impl Predicate {
    /// `low <= col <= high`.
    pub fn range(col: impl Into<String>, low: i64, high: i64) -> Self {
        Predicate::Range {
            col: col.into(),
            low,
            high,
        }
    }

    /// `col = value`.
    pub fn eq(col: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Eq {
            col: col.into(),
            value: value.into(),
        }
    }

    /// Conjunction; flattens nested `And`s and drops `True`s.
    pub fn and(preds: Vec<Predicate>) -> Self {
        let mut flat = Vec::new();
        fn push(p: Predicate, out: &mut Vec<Predicate>) {
            match p {
                Predicate::True => {}
                Predicate::And(ps) => {
                    for q in ps {
                        push(q, out);
                    }
                }
                other => out.push(other),
            }
        }
        for p in preds {
            push(p, &mut flat);
        }
        match flat.len() {
            0 => Predicate::True,
            1 => flat.swap_remove(0),
            _ => Predicate::And(flat),
        }
    }

    /// Evaluate against a row. Unknown columns and NULLs make the conjunct
    /// false (SQL three-valued logic collapsed to false at the top level).
    pub fn eval(&self, schema: &Schema, row: &Row) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Range { col, low, high } => match schema.index_of(col) {
                Some(i) => match row[i].as_int() {
                    Some(v) => *low <= v && v <= *high,
                    None => false,
                },
                None => false,
            },
            Predicate::Eq { col, value } => match schema.index_of(col) {
                Some(i) => row[i] != Value::Null && row[i] == *value,
                None => false,
            },
            Predicate::And(ps) => ps.iter().all(|p| p.eval(schema, row)),
        }
    }

    /// The conjuncts of this predicate (itself if not an `And`).
    pub fn conjuncts(&self) -> Vec<&Predicate> {
        match self {
            Predicate::True => vec![],
            Predicate::And(ps) => ps.iter().flat_map(|p| p.conjuncts()).collect(),
            other => vec![other],
        }
    }

    /// The (intersected) range restriction this predicate places on `col`,
    /// if any conjunct is a range over it.
    pub fn range_on(&self, col: &str) -> Option<(i64, i64)> {
        let mut acc: Option<(i64, i64)> = None;
        for c in self.conjuncts() {
            if let Predicate::Range { col: c2, low, high } = c {
                if col_matches(c2, col) {
                    acc = Some(match acc {
                        None => (*low, *high),
                        Some((l, h)) => (l.max(*low), h.min(*high)),
                    });
                }
            }
        }
        acc
    }

    /// All columns this predicate mentions.
    pub fn columns(&self) -> Vec<&str> {
        let mut cols: Vec<&str> = self
            .conjuncts()
            .into_iter()
            .filter_map(|c| match c {
                Predicate::Range { col, .. } | Predicate::Eq { col, .. } => Some(col.as_str()),
                _ => None,
            })
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

/// Does predicate column name `pred_col` refer to attribute `attr`?
/// Either may be qualified (`t.c`) or bare (`c`).
fn col_matches(pred_col: &str, attr: &str) -> bool {
    if pred_col == attr {
        return true;
    }
    let pc = pred_col.rsplit('.').next().unwrap_or(pred_col);
    let ac = attr.rsplit('.').next().unwrap_or(attr);
    pc == ac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("t.a", DataType::Int),
            Field::new("t.b", DataType::Str),
        ])
    }

    #[test]
    fn range_eval_inclusive() {
        let p = Predicate::range("t.a", 1, 3);
        let s = schema();
        assert!(p.eval(&s, &vec![Value::Int(1), Value::Null]));
        assert!(p.eval(&s, &vec![Value::Int(3), Value::Null]));
        assert!(!p.eval(&s, &vec![Value::Int(4), Value::Null]));
        assert!(!p.eval(&s, &vec![Value::Int(0), Value::Null]));
        assert!(!p.eval(&s, &vec![Value::Null, Value::Null]), "NULL fails");
    }

    #[test]
    fn eq_eval() {
        let p = Predicate::eq("t.b", "x");
        let s = schema();
        assert!(p.eval(&s, &vec![Value::Int(0), Value::str("x")]));
        assert!(!p.eval(&s, &vec![Value::Int(0), Value::str("y")]));
    }

    #[test]
    fn and_flattens_and_drops_true() {
        let p = Predicate::and(vec![
            Predicate::True,
            Predicate::and(vec![Predicate::range("a", 0, 1), Predicate::True]),
        ]);
        assert_eq!(p, Predicate::range("a", 0, 1));
        assert_eq!(Predicate::and(vec![]), Predicate::True);
        let q = Predicate::and(vec![Predicate::range("a", 0, 1), Predicate::eq("b", "x")]);
        assert_eq!(q.conjuncts().len(), 2);
    }

    #[test]
    fn range_on_intersects_multiple() {
        let p = Predicate::and(vec![
            Predicate::range("t.a", 0, 10),
            Predicate::range("a", 5, 20),
        ]);
        assert_eq!(p.range_on("t.a"), Some((5, 10)));
        assert_eq!(p.range_on("a"), Some((5, 10)), "bare name matches");
        assert_eq!(p.range_on("zz"), None);
    }

    #[test]
    fn unknown_column_fails_closed() {
        let p = Predicate::range("nope", 0, 10);
        assert!(!p.eval(&schema(), &vec![Value::Int(5), Value::Null]));
    }

    #[test]
    fn columns_sorted_deduped() {
        let p = Predicate::and(vec![
            Predicate::range("b", 0, 1),
            Predicate::eq("a", 1),
            Predicate::range("a", 0, 1),
        ]);
        assert_eq!(p.columns(), vec!["a", "b"]);
    }
}
