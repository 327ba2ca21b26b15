//! Synthetic column/table generation.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::column::Column;
use crate::distr::{normal, WeightedBuckets, Zipf};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;

/// How to generate the values of one column.
#[derive(Debug, Clone)]
pub enum ColumnGen {
    /// Sequential ids starting at `start` (primary keys).
    Serial {
        /// First id.
        start: i64,
    },
    /// Uniform integers in `[low, high]`.
    UniformInt {
        /// Inclusive lower bound.
        low: i64,
        /// Inclusive upper bound.
        high: i64,
    },
    /// Normal(mean, std) rounded and clamped to `[low, high]`.
    NormalInt {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std: f64,
        /// Clamp lower bound.
        low: i64,
        /// Clamp upper bound.
        high: i64,
    },
    /// Zipf-ranked values mapped onto `[low, low + n)`.
    ZipfInt {
        /// Number of distinct values.
        n: usize,
        /// Zipf exponent.
        s: f64,
        /// Value of rank 1.
        low: i64,
    },
    /// Values drawn from a weighted-bucket histogram (SDSS-style skew).
    Histogram(WeightedBuckets),
    /// Uniform floats in `[low, high)`.
    UniformFloat {
        /// Lower bound.
        low: f64,
        /// Upper bound.
        high: f64,
    },
    /// Strings `"{prefix}{k}"` with `k` uniform in `[0, card)`.
    Label {
        /// Prefix of every label.
        prefix: &'static str,
        /// Number of distinct labels.
        card: usize,
    },
}

/// Draws one column's value for a row from the shared RNG stream.
type Sampler<'a> = Box<dyn FnMut(&mut StdRng, usize) -> Value + 'a>;

impl ColumnGen {
    /// The column's sampler. It owns what is expensive to rebuild per value:
    /// the Zipf CDF, and the labels already handed out (one `Arc<str>` per
    /// distinct label, not per row).
    fn sampler(&self) -> Sampler<'_> {
        match self {
            ColumnGen::Serial { start } => Box::new(move |_, row| Value::Int(start + row as i64)),
            ColumnGen::UniformInt { low, high } => {
                Box::new(move |rng, _| Value::Int(rng.random_range(*low..=*high)))
            }
            ColumnGen::NormalInt {
                mean,
                std,
                low,
                high,
            } => Box::new(move |rng, _| {
                let v = normal(rng, *mean, *std).round() as i64;
                Value::Int(v.clamp(*low, *high))
            }),
            ColumnGen::ZipfInt { n, s, low } => {
                let z = Zipf::new(*n, *s);
                Box::new(move |rng, _| Value::Int(low + (z.sample(rng) as i64 - 1)))
            }
            ColumnGen::Histogram(wb) => Box::new(move |rng, _| Value::Int(wb.sample(rng))),
            ColumnGen::UniformFloat { low, high } => {
                Box::new(move |rng, _| Value::Float(low + (high - low) * rng.random::<f64>()))
            }
            ColumnGen::Label { prefix, card } => {
                let mut labels: Vec<Option<Arc<str>>> = vec![None; *card];
                Box::new(move |rng, _| {
                    let k = rng.random_range(0..*card);
                    let label = labels[k].get_or_insert_with(|| Arc::from(format!("{prefix}{k}")));
                    Value::Str(Arc::clone(label))
                })
            }
        }
    }
}

/// Deterministic table generator.
#[derive(Debug, Clone)]
pub struct TableGen {
    schema: Schema,
    gens: Vec<ColumnGen>,
    bytes_per_row: u64,
    seed: u64,
}

impl TableGen {
    /// Create a generator; one `ColumnGen` per schema column.
    ///
    /// # Panics
    /// Panics if arities differ.
    pub fn new(schema: Schema, gens: Vec<ColumnGen>, bytes_per_row: u64, seed: u64) -> Self {
        assert_eq!(schema.len(), gens.len(), "one generator per column");
        Self {
            schema,
            gens,
            bytes_per_row,
            seed,
        }
    }

    /// Generate `rows` rows. Same seed ⇒ same table.
    ///
    /// Values are drawn row by row, column by column within a row — the
    /// order the RNG stream has always been consumed in — and appended to
    /// one typed column each.
    ///
    /// # Panics
    /// Panics if a generator yields values of another type than its column.
    pub fn generate(&self, rows: usize) -> Table {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut samplers: Vec<Sampler<'_>> = self.gens.iter().map(ColumnGen::sampler).collect();
        let mut columns: Vec<Column> = self
            .schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.dtype, rows))
            .collect();
        for r in 0..rows {
            for (sample, col) in samplers.iter_mut().zip(&mut columns) {
                col.push(sample(&mut rng, r));
            }
        }
        Table::new(
            self.schema.clone(),
            columns.into_iter().map(Arc::new).collect(),
            self.bytes_per_row,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    fn gen_table(rows: usize, seed: u64) -> Table {
        let schema = Schema::new(vec![
            Field::new("t.id", DataType::Int),
            Field::new("t.k", DataType::Int),
            Field::new("t.m", DataType::Float),
            Field::new("t.l", DataType::Str),
        ]);
        TableGen::new(
            schema,
            vec![
                ColumnGen::Serial { start: 1 },
                ColumnGen::UniformInt { low: 0, high: 99 },
                ColumnGen::UniformFloat {
                    low: 0.0,
                    high: 1.0,
                },
                ColumnGen::Label {
                    prefix: "c",
                    card: 5,
                },
            ],
            64,
            seed,
        )
        .generate(rows)
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(gen_table(50, 1), gen_table(50, 1));
        assert_ne!(gen_table(50, 1), gen_table(50, 2));
    }

    #[test]
    fn serial_is_sequential() {
        let t = gen_table(10, 1);
        for (i, r) in t.rows().enumerate() {
            assert_eq!(r[0].as_int(), Some(1 + i as i64));
        }
    }

    #[test]
    fn uniform_in_bounds() {
        let t = gen_table(500, 3);
        for r in t.rows() {
            let k = r[1].as_int().unwrap();
            assert!((0..=99).contains(&k));
            let m = r[2].as_float().unwrap();
            assert!((0.0..1.0).contains(&m));
        }
    }

    #[test]
    fn normal_gen_clamped() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let t = TableGen::new(
            schema,
            vec![ColumnGen::NormalInt {
                mean: 50.0,
                std: 100.0,
                low: 0,
                high: 100,
            }],
            8,
            9,
        )
        .generate(1000);
        for r in t.rows() {
            let v = r[0].as_int().unwrap();
            assert!((0..=100).contains(&v));
        }
    }

    #[test]
    fn zipf_gen_skews_to_low() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let t = TableGen::new(
            schema,
            vec![ColumnGen::ZipfInt {
                n: 1000,
                s: 1.2,
                low: 0,
            }],
            8,
            11,
        )
        .generate(5000);
        let zeros = t.rows().filter(|r| r[0].as_int() == Some(0)).count();
        assert!(zeros > 100, "rank-1 value should dominate, got {zeros}");
    }
}
