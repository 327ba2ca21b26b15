//! Quickstart: create a BigBench-like instance, run a handful of queries
//! through DeepSea, and watch views get materialized, partitioned, and
//! reused.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use deepsea::core::{baselines, driver::DeepSea};
use deepsea::workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea::workload::TemplateId;

fn main() {
    // A "100 GB" instance: scaled-down rows, cluster-scale simulated bytes.
    let data = BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Uniform, 42);
    println!(
        "instance: {:.0} GB simulated across {} tables\n",
        data.catalog.total_base_bytes() as f64 / 1e9,
        data.catalog.iter().count()
    );

    let mut ds = DeepSea::new(data.catalog, baselines::deepsea());

    // Ten Q30 queries ("revenue per category for items in a range"): a hot
    // range queried repeatedly, with one exploratory poke at query 6.
    for i in 0..10 {
        let (lo, hi) = if i == 5 {
            (7_600, 8_900) // exploratory, wider
        } else {
            (8_000, 8_400) // the hot range
        };
        let plan = TemplateId::Q30.instantiate(lo, hi);
        let out = ds.process_query(&plan).expect("query runs");
        println!(
            "Q30_{:<2} [{lo:>5},{hi:>5}]  {:>7.1}s (exec {:>6.1}s + create {:>5.1}s)  \
             rows={:<3} via={}  +{} new, -{} evicted",
            i + 1,
            out.elapsed_secs,
            out.query_secs,
            out.creation_secs,
            out.result.len(),
            out.used_view.as_deref().unwrap_or("base tables"),
            out.materialized.len(),
            out.evicted.len(),
        );
    }

    println!("\npool: {:.2} GB simulated", ds.pool_bytes() as f64 / 1e9);
    for view in ds.registry().iter().filter(|v| v.is_materialized()) {
        println!(
            "  {}: {:.2} GB, benefit events {}, partitions: {}",
            view.name,
            view.stats.size as f64 / 1e9,
            ds.registry().ledger().uses(view.id).events.len(),
            view.partitions
                .values()
                .map(|p| format!(
                    "{} [{} fragments, {} materialized]",
                    p.attr,
                    p.fragments().len(),
                    p.materialized().len()
                ))
                .collect::<Vec<_>>()
                .join("; "),
        );
    }
}
