//! Schemas: ordered lists of named, typed fields.

use std::sync::Arc;

use crate::value::DataType;

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Qualified name, conventionally `table.column`.
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Self {
            name: name.into(),
            dtype,
        }
    }

    /// The part after the last `.` (the bare column name).
    pub fn short_name(&self) -> &str {
        self.name.rsplit('.').next().unwrap_or(&self.name)
    }
}

/// An ordered list of fields. The list sits behind an `Arc`: every table,
/// fragment file and plan node carries a schema, and cloning one is a
/// reference-count bump.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Arc<[Field]>,
}

impl Schema {
    /// Build a schema from fields.
    ///
    /// # Panics
    /// Panics if two fields share the same qualified name.
    pub fn new(fields: Vec<Field>) -> Self {
        for (i, f) in fields.iter().enumerate() {
            for g in &fields[i + 1..] {
                assert_ne!(f.name, g.name, "duplicate field name {:?}", f.name);
            }
        }
        Self {
            fields: fields.into(),
        }
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if there are no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the column with the given name. Accepts either the qualified
    /// name (`t.c`) or, when unambiguous, the bare column name (`c`).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        if let Some(i) = self.fields.iter().position(|f| f.name == name) {
            return Some(i);
        }
        let mut found = None;
        for (i, f) in self.fields.iter().enumerate() {
            if f.short_name() == name {
                if found.is_some() {
                    return None; // ambiguous
                }
                found = Some(i);
            }
        }
        found
    }

    /// Field at `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// A new schema containing the named columns in the given order.
    ///
    /// # Panics
    /// Panics if any name is unknown.
    pub fn project(&self, names: &[&str]) -> (Schema, Vec<usize>) {
        let mut fields = Vec::with_capacity(names.len());
        let mut idxs = Vec::with_capacity(names.len());
        for n in names {
            let i = self
                .index_of(n)
                .unwrap_or_else(|| panic!("unknown column {n:?}"));
            fields.push(self.fields[i].clone());
            idxs.push(i);
        }
        (Schema::new(fields), idxs)
    }

    /// Concatenate two schemas (for join results).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.to_vec();
        fields.extend(other.fields.iter().cloned());
        Schema::new(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s() -> Schema {
        Schema::new(vec![
            Field::new("t.a", DataType::Int),
            Field::new("t.b", DataType::Str),
            Field::new("u.a", DataType::Int),
        ])
    }

    #[test]
    fn index_by_qualified_name() {
        assert_eq!(s().index_of("t.b"), Some(1));
        assert_eq!(s().index_of("u.a"), Some(2));
    }

    #[test]
    fn bare_name_when_unambiguous() {
        assert_eq!(s().index_of("b"), Some(1));
        assert_eq!(s().index_of("a"), None, "ambiguous bare name");
        assert_eq!(s().index_of("zzz"), None);
    }

    #[test]
    fn project_reorders() {
        let (p, idxs) = s().project(&["u.a", "t.b"]);
        assert_eq!(idxs, vec![2, 1]);
        assert_eq!(p.field(0).name, "u.a");
        assert_eq!(p.len(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn project_unknown_panics() {
        s().project(&["nope"]);
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn duplicates_rejected() {
        Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("x", DataType::Int),
        ]);
    }

    #[test]
    fn concat_joins_schemas() {
        let a = Schema::new(vec![Field::new("t.a", DataType::Int)]);
        let b = Schema::new(vec![Field::new("u.b", DataType::Int)]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 2);
        assert_eq!(c.field(1).name, "u.b");
    }

    #[test]
    fn short_name() {
        assert_eq!(Field::new("t.a", DataType::Int).short_name(), "a");
        assert_eq!(Field::new("plain", DataType::Int).short_name(), "plain");
    }
}
