//! The BigBench-like retail star schema and its data generator.
//!
//! The paper generates BigBench instances of 100 GB and 500 GB and, for the
//! real-workload experiment, re-samples every `item_sk` column from the SDSS
//! `PhotoPrimary.ra` histogram. We reproduce that: every fact table has an
//! `item_sk` foreign key whose distribution is pluggable.
//!
//! Instances are scaled down in *row count* but keep cluster-scale *simulated
//! bytes* (each table knows its simulated bytes-per-row), so the cost model
//! sees 100 GB while memory holds tens of thousands of rows.

use deepsea_engine::Catalog;
use deepsea_relation::distr::WeightedBuckets;
use deepsea_relation::generate::{ColumnGen, TableGen};
use deepsea_relation::{DataType, Field, Schema};

/// Domain of `item_sk`: `[0, ITEM_DOMAIN - 1]`. The paper's Figure 9 quotes a
/// selection-attribute domain of `[0, 400 000]`; we keep 40 000 distinct items
/// (1:10 scale) so dimension tables stay memory-friendly.
pub const ITEM_DOMAIN: i64 = 40_000;

/// Instance sizes used in the evaluation (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceSize {
    /// "100 GB" instance.
    Gb100,
    /// "500 GB" instance.
    Gb500,
}

impl InstanceSize {
    /// Total simulated bytes of the instance.
    pub fn total_bytes(&self) -> u64 {
        match self {
            InstanceSize::Gb100 => 100 * 1_000_000_000,
            InstanceSize::Gb500 => 500 * 1_000_000_000,
        }
    }

    /// In-memory rows of the biggest fact table.
    pub fn fact_rows(&self) -> usize {
        match self {
            InstanceSize::Gb100 => 40_000,
            InstanceSize::Gb500 => 80_000,
        }
    }
}

/// How `item_sk` values are distributed in the fact tables.
#[derive(Debug, Clone)]
pub enum ItemDistribution {
    /// Uniform over the item domain (the synthetic-workload instances).
    Uniform,
    /// Histogram-driven (the SDSS-shaped instances of §10.1).
    Histogram(WeightedBuckets),
}

impl ItemDistribution {
    fn item_gen(&self) -> ColumnGen {
        match self {
            ItemDistribution::Uniform => ColumnGen::UniformInt {
                low: 0,
                high: ITEM_DOMAIN - 1,
            },
            ItemDistribution::Histogram(wb) => ColumnGen::Histogram(wb.clone()),
        }
    }
}

/// A generated BigBench-like instance.
pub struct BigBenchData {
    /// The catalog holding every table.
    pub catalog: Catalog,
    /// The instance size it was generated at.
    pub size: InstanceSize,
}

impl BigBenchData {
    /// Generate an instance. Deterministic per seed.
    pub fn generate(size: InstanceSize, dist: &ItemDistribution, seed: u64) -> Self {
        let total = size.total_bytes() as f64;
        let fact_rows = size.fact_rows();
        let mut catalog = Catalog::new();

        // Byte budget per table (fractions sum to 1.0):
        //   store_sales 45%, web_clickstreams 25%, web_sales 15%,
        //   store_returns 5%, product_reviews 4%, item 3%, customer 3%.
        let bpr = |fraction: f64, rows: usize| -> u64 {
            ((total * fraction) / rows as f64).max(1.0) as u64
        };

        let store_sales = TableGen::new(
            Schema::new(vec![
                Field::new("store_sales.ss_item_sk", DataType::Int),
                Field::new("store_sales.ss_customer_sk", DataType::Int),
                Field::new("store_sales.ss_quantity", DataType::Int),
                Field::new("store_sales.ss_net_paid", DataType::Float),
            ]),
            vec![
                dist.item_gen(),
                ColumnGen::UniformInt {
                    low: 0,
                    high: 9_999,
                },
                ColumnGen::UniformInt { low: 1, high: 100 },
                ColumnGen::UniformFloat {
                    low: 0.5,
                    high: 500.0,
                },
            ],
            bpr(0.45, fact_rows),
            seed ^ 0x5355,
        )
        .generate(fact_rows);
        catalog.register("store_sales", store_sales);

        let wcs_rows = fact_rows * 3 / 4;
        let web_clickstreams = TableGen::new(
            Schema::new(vec![
                Field::new("web_clickstreams.wcs_item_sk", DataType::Int),
                Field::new("web_clickstreams.wcs_user_sk", DataType::Int),
                Field::new("web_clickstreams.wcs_click_date_sk", DataType::Int),
            ]),
            vec![
                dist.item_gen(),
                ColumnGen::UniformInt {
                    low: 0,
                    high: 9_999,
                },
                ColumnGen::UniformInt { low: 0, high: 364 },
            ],
            bpr(0.25, wcs_rows),
            seed ^ 0x5743,
        )
        .generate(wcs_rows);
        catalog.register("web_clickstreams", web_clickstreams);

        let ws_rows = fact_rows / 2;
        let web_sales = TableGen::new(
            Schema::new(vec![
                Field::new("web_sales.ws_item_sk", DataType::Int),
                Field::new("web_sales.ws_customer_sk", DataType::Int),
                Field::new("web_sales.ws_net_paid", DataType::Float),
            ]),
            vec![
                dist.item_gen(),
                ColumnGen::UniformInt {
                    low: 0,
                    high: 9_999,
                },
                ColumnGen::UniformFloat {
                    low: 0.5,
                    high: 500.0,
                },
            ],
            bpr(0.15, ws_rows),
            seed ^ 0x5753,
        )
        .generate(ws_rows);
        catalog.register("web_sales", web_sales);

        let sr_rows = fact_rows / 8;
        let store_returns = TableGen::new(
            Schema::new(vec![
                Field::new("store_returns.sr_item_sk", DataType::Int),
                Field::new("store_returns.sr_return_amt", DataType::Float),
            ]),
            vec![
                dist.item_gen(),
                ColumnGen::UniformFloat {
                    low: 0.5,
                    high: 500.0,
                },
            ],
            bpr(0.05, sr_rows),
            seed ^ 0x5352,
        )
        .generate(sr_rows);
        catalog.register("store_returns", store_returns);

        let pr_rows = fact_rows / 10;
        let product_reviews = TableGen::new(
            Schema::new(vec![
                Field::new("product_reviews.pr_item_sk", DataType::Int),
                Field::new("product_reviews.pr_rating", DataType::Int),
            ]),
            vec![dist.item_gen(), ColumnGen::UniformInt { low: 1, high: 5 }],
            bpr(0.04, pr_rows),
            seed ^ 0x5052,
        )
        .generate(pr_rows);
        catalog.register("product_reviews", product_reviews);

        let item_rows = ITEM_DOMAIN as usize;
        let item = TableGen::new(
            Schema::new(vec![
                Field::new("item.i_item_sk", DataType::Int),
                Field::new("item.i_category", DataType::Str),
                Field::new("item.i_price", DataType::Float),
            ]),
            vec![
                ColumnGen::Serial { start: 0 },
                ColumnGen::Label {
                    prefix: "cat",
                    card: 20,
                },
                ColumnGen::UniformFloat {
                    low: 0.5,
                    high: 500.0,
                },
            ],
            bpr(0.03, item_rows),
            seed ^ 0x4954,
        )
        .generate(item_rows);
        catalog.register("item", item);

        let cust_rows = 10_000;
        let customer = TableGen::new(
            Schema::new(vec![
                Field::new("customer.c_customer_sk", DataType::Int),
                Field::new("customer.c_age_group", DataType::Str),
            ]),
            vec![
                ColumnGen::Serial { start: 0 },
                ColumnGen::Label {
                    prefix: "age",
                    card: 7,
                },
            ],
            bpr(0.03, cust_rows),
            seed ^ 0x4355,
        )
        .generate(cust_rows);
        catalog.register("customer", customer);

        Self { catalog, size }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_totals_roughly_match_label() {
        let d = BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Uniform, 1);
        let total = d.catalog.total_base_bytes();
        let label = InstanceSize::Gb100.total_bytes();
        let ratio = total as f64 / label as f64;
        assert!((0.9..1.1).contains(&ratio), "total={total} ratio={ratio}");
    }

    #[test]
    fn gb500_is_bigger_than_gb100() {
        let a = BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Uniform, 1);
        let b = BigBenchData::generate(InstanceSize::Gb500, &ItemDistribution::Uniform, 1);
        assert!(b.catalog.total_base_bytes() > 4 * a.catalog.total_base_bytes());
    }

    #[test]
    fn all_tables_registered() {
        let d = BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Uniform, 1);
        for t in [
            "store_sales",
            "web_clickstreams",
            "web_sales",
            "store_returns",
            "product_reviews",
            "item",
            "customer",
        ] {
            assert!(d.catalog.get(t).is_some(), "missing table {t}");
        }
    }

    #[test]
    fn item_sk_domain_stats() {
        let d = BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Uniform, 1);
        let s = d
            .catalog
            .column_stats("item", "item.i_item_sk")
            .expect("item stats");
        assert_eq!(s.min, 0);
        assert_eq!(s.max, ITEM_DOMAIN - 1);
        let f = d
            .catalog
            .column_stats("store_sales", "ss_item_sk")
            .expect("fact stats by bare name");
        assert!(f.min >= 0 && f.max < ITEM_DOMAIN);
    }

    #[test]
    fn histogram_distribution_skews_items() {
        let wb = WeightedBuckets::new(&[(0, 999, 9.0), (1_000, ITEM_DOMAIN - 1, 1.0)]);
        let d = BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Histogram(wb), 1);
        let t = d.catalog.get("store_sales").unwrap();
        let idx = t.schema.index_of("ss_item_sk").unwrap();
        let hot = t.column(idx).int_range_rows(i64::MIN, 999).len();
        let frac = hot as f64 / t.len() as f64;
        assert!(frac > 0.8, "hot fraction {frac}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Uniform, 7);
        let b = BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Uniform, 7);
        assert_eq!(
            a.catalog.get("store_sales").unwrap(),
            b.catalog.get("store_sales").unwrap()
        );
    }

    /// FNV-1a over every table's name and fingerprint lines, in name order.
    fn instance_hash(seed: u64) -> u64 {
        let wb = crate::sdss::sdss_like_histogram(0, ITEM_DOMAIN - 1);
        let d = BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Histogram(wb), seed);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (name, t) in d.catalog.iter() {
            for line in std::iter::once(name.to_string()).chain(t.fingerprint().iter().cloned()) {
                for b in line.bytes().chain(std::iter::once(b'\n')) {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Generator identity: the benchmark's instances, hashed on the commit
    /// before tables went columnar. Filling columns must draw from the RNG in
    /// the row-major order the row generator did, or every golden file,
    /// digest and benchmark trajectory moves.
    #[test]
    fn generated_instances_are_pinned() {
        assert_eq!(instance_hash(7), 0x19c4_86c2_f38d_3a49);
        assert_eq!(instance_hash(42), 0xd13c_f6a8_b9e6_2efa);
    }

    /// Every generated integer column spans less than 2³² values, so each
    /// stores 4-byte offsets: 313 000 integers, 1 252 000 bytes, beside
    /// 1 040 000 bytes of floats and string codes. (With 8-byte integers
    /// the catalog held 3 544 000 bytes.)
    #[test]
    fn the_benchmark_catalog_stores_integers_as_offsets() {
        let wb = crate::sdss::sdss_like_histogram(0, ITEM_DOMAIN - 1);
        let d = BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Histogram(wb), 42);
        let bytes: usize = (d.catalog.iter())
            .flat_map(|(_, t)| t.columns())
            .map(|c| c.data().value_bytes())
            .sum();
        assert_eq!(bytes, 2_292_000);
    }
}
