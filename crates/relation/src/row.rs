//! Rows.

use crate::value::Value;

/// A row is an ordered list of values, positionally aligned with a
/// [`crate::Schema`]. Tables store columns; rows exist to build small tables
/// ([`crate::Table::from_rows`]) and to look at one ([`crate::Table::row`]).
pub type Row = Vec<Value>;
