//! # deepsea-relation
//!
//! The relational data model underneath DeepSea's execution engine: typed
//! values, schemas, columnar in-memory tables with simulated on-disk sizes, and
//! the predicate language (conjunctions of range and equality conditions —
//! exactly the class of selections DeepSea's partitioning reasons about).
//!
//! Also hosts the synthetic column generators (uniform / normal / Zipf /
//! histogram-driven) used to rebuild the paper's BigBench-with-SDSS-skew
//! datasets.

pub mod column;
pub mod distr;
pub mod generate;
pub mod predicate;
pub mod row;
pub mod schema;
pub mod table;
pub mod value;

pub use column::{Col, Column, ColumnData, Dict, Ints, Rows};
pub use predicate::Predicate;
pub use row::Row;
pub use schema::{Field, Schema};
pub use table::Table;
pub use value::{DataType, Value};
