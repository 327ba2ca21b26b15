//! Synthetic column/table generation.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::column::{Column, ColumnData, Dict, Ints};
use crate::distr::{normal, WeightedBuckets, Zipf};
use crate::schema::Schema;
use crate::table::Table;

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

/// How an integer column draws a value; the Zipf CDF is built once.
enum IntDraw<'a> {
    Serial(i64),
    Uniform(i64, i64),
    Normal {
        mean: f64,
        std: f64,
        low: i64,
        high: i64,
    },
    Zipf(Zipf, i64),
    Histogram(&'a WeightedBuckets),
}

impl IntDraw<'_> {
    /// The smallest and the largest value a column of `rows` rows draws.
    fn bounds(&self, rows: usize) -> (i64, i64) {
        match *self {
            IntDraw::Serial(start) => (start, start.saturating_add(rows as i64)),
            IntDraw::Uniform(low, high) | IntDraw::Normal { low, high, .. } => (low, high),
            IntDraw::Zipf(ref z, low) => (low, low.saturating_add(z.n() as i64 - 1)),
            IntDraw::Histogram(wb) => wb.bounds(),
        }
    }

    /// The value of row `row`.
    fn draw(&self, rng: &mut StdRng, row: usize) -> i64 {
        match self {
            IntDraw::Serial(start) => start + row as i64,
            IntDraw::Uniform(low, high) => rng.random_range(*low..=*high),
            IntDraw::Normal {
                mean,
                std,
                low,
                high,
            } => (normal(rng, *mean, *std).round() as i64).clamp(*low, *high),
            IntDraw::Zipf(z, low) => low + (z.sample(rng) as i64 - 1),
            IntDraw::Histogram(wb) => wb.sample(rng),
        }
    }
}

/// One column being generated: the typed values drawn so far and what the
/// next draw needs.
enum Fill<'a> {
    /// Integers, stored from the first draw in the word the generator's
    /// bounds allow: offsets from its lower bound when they fit.
    Int(Ints, IntDraw<'a>),
    /// Uniform floats in `[low, high)`.
    Float(Vec<f64>, f64, f64),
    /// Labels `"{prefix}{k}"`: per row a code into `dict`, which label `k`
    /// enters on the first row that draws it; `code_of[k]` is that code.
    Label {
        codes: Vec<u32>,
        dict: Dict,
        code_of: Vec<Option<u32>>,
        prefix: &'static str,
    },
}

impl<'a> Fill<'a> {
    fn new(gen: &'a ColumnGen, rows: usize) -> Self {
        let int = |draw: IntDraw<'a>| {
            let (low, high) = draw.bounds(rows);
            Fill::Int(Ints::spanning(low, high, rows), draw)
        };
        match *gen {
            ColumnGen::Serial { start } => int(IntDraw::Serial(start)),
            ColumnGen::UniformInt { low, high } => int(IntDraw::Uniform(low, high)),
            ColumnGen::NormalInt {
                mean,
                std,
                low,
                high,
            } => int(IntDraw::Normal {
                mean,
                std,
                low,
                high,
            }),
            ColumnGen::ZipfInt { n, s, low } => int(IntDraw::Zipf(Zipf::new(n, s), low)),
            ColumnGen::Histogram(ref wb) => int(IntDraw::Histogram(wb)),
            ColumnGen::UniformFloat { low, high } => {
                Fill::Float(Vec::with_capacity(rows), low, high)
            }
            ColumnGen::Label { prefix, card } => Fill::Label {
                codes: Vec::with_capacity(rows),
                dict: Dict::new(),
                code_of: vec![None; card],
                prefix,
            },
        }
    }

    /// Draw row `row`'s value from `rng` and append it.
    fn draw(&mut self, rng: &mut StdRng, row: usize) {
        match self {
            Fill::Int(values, draw) => values.push(draw.draw(rng, row)),
            Fill::Float(values, low, high) => {
                values.push(*low + (*high - *low) * rng.random::<f64>())
            }
            Fill::Label {
                codes,
                dict,
                code_of,
                prefix,
            } => {
                let k = rng.random_range(0..code_of.len());
                let code = *code_of[k]
                    .get_or_insert_with(|| dict.intern(&Arc::from(format!("{prefix}{k}"))));
                codes.push(code);
            }
        }
    }

    /// The column of the values drawn.
    fn finish(self) -> Column {
        let data = match self {
            Fill::Int(values, _) => ColumnData::Int(values),
            Fill::Float(values, ..) => ColumnData::Float(values),
            Fill::Label { codes, dict, .. } => ColumnData::Str {
                codes,
                dict: Arc::new(dict),
            },
        };
        Column::new(data, Vec::new())
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
    /// order the RNG stream has always been consumed in — into one typed
    /// vector per column, and each column is built once at the end.
    ///
    /// # Panics
    /// Panics if a generator yields values of another type than its column.
    pub fn generate(&self, rows: usize) -> Table {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut fills: Vec<Fill<'_>> = self.gens.iter().map(|g| Fill::new(g, rows)).collect();
        for r in 0..rows {
            for fill in &mut fills {
                fill.draw(&mut rng, r);
            }
        }
        Table::new(
            self.schema.clone(),
            fills.into_iter().map(|f| f.finish().into()).collect(),
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

    /// Label `k` enters the dictionary on the first row that draws it, and
    /// every later row keeps that row's code: the columns, dictionaries
    /// included, are the ones appending each row's values builds.
    #[test]
    fn columns_equal_the_columns_appending_each_row_builds() {
        let t = gen_table(200, 5);
        let appended = Table::from_rows(t.schema.clone(), t.rows().collect(), 64);
        for (got, want) in t.columns().iter().zip(appended.columns()) {
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
        let ColumnData::Str { codes, dict } = t.column(3).data().data() else {
            panic!("a string column");
        };
        assert_eq!(dict.strs().len(), 6, "\"\", then each of the 5 labels once");
        let mut first_seen = Vec::new();
        for &code in codes {
            if !first_seen.contains(&code) {
                first_seen.push(code);
            }
        }
        assert_eq!(first_seen, [1, 2, 3, 4, 5], "codes in first-seen order");
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
