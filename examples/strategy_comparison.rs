//! Run the same workload under every system variant of the paper and print a
//! comparative table — a miniature of the whole evaluation.
//!
//! ```sh
//! cargo run --release --example strategy_comparison
//! ```

use std::sync::Arc;

use deepsea::bench::harness::run_variants;
use deepsea::bench::report::table;
use deepsea::core::baselines;
use deepsea::workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea::workload::sequences::fixed_template_workload;
use deepsea::workload::{Selectivity, Skew, TemplateId};

fn main() {
    let data = BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Uniform, 99);
    let catalog = Arc::new(data.catalog);
    let plans = fixed_template_workload(TemplateId::Q30, 15, Selectivity::Small, Skew::Heavy, 99);

    let variants = [
        ("H  (vanilla Hive)", baselines::hive()),
        ("NP (views, no partitioning)", baselines::non_partitioned()),
        ("E-15 (equi-depth)", baselines::equi_depth(15)),
        ("N  (Nectar selection)", baselines::nectar()),
        ("N+ (Nectar + accumulation)", baselines::nectar_plus()),
        ("NR (no repartitioning)", baselines::no_repartitioning()),
        ("DS (DeepSea)", baselines::deepsea()),
    ];
    let runs = run_variants(&catalog, &variants, &plans);

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let reused = r.per_query.iter().filter(|q| q.used_view.is_some()).count();
            vec![
                r.label.clone(),
                format!("{:.1}", r.total_secs()),
                format!("{:.1}", r.per_query.iter().map(|q| q.creation).sum::<f64>()),
                format!("{reused}/{}", r.per_query.len()),
                format!("{:.2}", r.final_pool_bytes as f64 / 1e9),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "variant",
                "total (s)",
                "creation (s)",
                "reused",
                "pool (GB)"
            ],
            &rows
        )
    );
    let h = runs[0].total_secs();
    let ds = runs.last().unwrap().total_secs();
    println!(
        "DeepSea runs this workload in {:.0}% of Hive's time.",
        100.0 * ds / h
    );
}
