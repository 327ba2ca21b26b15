//! Integration tests for the extension features: the SQL front end driving
//! the full stack and predicate pushdown in the Hive baseline.

use deepsea::core::{baselines, driver::DeepSea};
use deepsea::engine::sql::parse;
use deepsea::workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea::workload::TemplateId;

fn ds(config: deepsea::core::DeepSeaConfig, seed: u64) -> DeepSea {
    let data = BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Uniform, seed);
    DeepSea::new(data.catalog, config)
}

/// SQL-sourced plans flow through matching/materialization/rewriting exactly
/// like builder-sourced plans — and views created by one are reused by the
/// other (logical matching is syntax-independent).
#[test]
fn sql_and_builder_plans_share_views() {
    let mut sys = ds(baselines::deepsea(), 81);
    // Builder query creates the store_sales ⋈ item view…
    let built = TemplateId::Q30.instantiate(5_000, 5_400);
    sys.process_query(&built).unwrap();
    // …and the SQL-sourced version of a *different* range reuses it.
    let sql = TemplateId::Q30.sql(5_050, 5_350);
    let plan = parse(&sql).expect("template SQL parses");
    let out = sys.process_query(&plan).unwrap();
    assert!(
        out.used_view.is_some(),
        "SQL query must reuse the builder-created view: {out:?}"
    );
    // And the answers agree with vanilla execution.
    let mut hive = ds(baselines::hive(), 81);
    hive.process_query(&built).unwrap();
    let want = hive.process_query(&plan).unwrap();
    assert_eq!(out.result.fingerprint(), want.result.fingerprint());
}

/// The Hive baseline pushes selections down; DeepSea does not. Both answer
/// identically, and pushdown must not make Hive *slower*.
#[test]
fn hive_pushdown_preserves_answers() {
    let mut hive = ds(baselines::hive(), 82);
    for t in [TemplateId::Q7, TemplateId::Q30] {
        let plan = t.instantiate(2_000, 4_000);
        let out = hive.process_query(&plan).unwrap();
        assert!(!out.result.is_empty());
        // The pushed-down plan reads the same base bytes (scans dominate) —
        // this is a smoke check that optimization happened without breaking
        // metrics accounting.
        assert!(out.metrics.bytes_read > 0);
    }
}

/// Multiple partitions on different attributes of the same view coexist
/// (the paper permits one partition per attribute).
#[test]
fn multi_attribute_partitions_coexist() {
    let mut sys = ds(baselines::deepsea(), 85);
    // Q26 selects on ss_item_sk but joins customer — its view is
    // store_sales ⋈ customer partitioned on ss_item_sk…
    sys.process_query(&TemplateId::Q26.instantiate(1_000, 1_500))
        .unwrap();
    // …while a manual query selects the same join on the customer key.
    let plan = parse(
        "SELECT customer.c_age_group, SUM(store_sales.ss_quantity) AS qty \
         FROM store_sales JOIN customer \
         ON store_sales.ss_customer_sk = customer.c_customer_sk \
         WHERE store_sales.ss_customer_sk BETWEEN 100 AND 400 \
         GROUP BY customer.c_age_group",
    )
    .unwrap();
    sys.process_query(&plan).unwrap();
    sys.process_query(&plan).unwrap();
    let view = sys
        .registry()
        .iter()
        .find(|v| v.partitions.len() >= 2)
        .expect("a view tracked partitions on two attributes");
    let attrs: Vec<&str> = view.partitions.keys().map(String::as_str).collect();
    assert!(attrs.iter().any(|a| a.contains("ss_item_sk")), "{attrs:?}");
    assert!(
        attrs.iter().any(|a| a.contains("ss_customer_sk")),
        "{attrs:?}"
    );
}
