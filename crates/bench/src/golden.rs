//! The fixed golden scenario shared by `tests/golden_pipeline.rs` (in the
//! root package) and the `golden_capture` example.
//!
//! A 50-query Figure-5-style workload on a seeded 100 GB instance, replayed
//! under three variants chosen to exercise every stage of the query
//! lifecycle: whole-view materialization and reuse (`NP`), progressive
//! fragment refinement (`DS`), and pool-pressure eviction (`DS-tight`).
//! The golden test asserts bit-exact `elapsed_secs` plus `materialized` /
//! `evicted` counts per query, so any behavioural drift in the driver
//! pipeline — however small — fails loudly.
//!
//! To regenerate the expected sequences after an *intentional* behaviour
//! change: `cargo run --release --example golden_capture` and paste its
//! output into `tests/golden_pipeline.rs`.

use std::sync::Arc;

use deepsea_core::{baselines, DeepSeaConfig};
use deepsea_engine::{Catalog, LogicalPlan};
use deepsea_workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea_workload::sequences::fig5_workload;

/// Seed for both the data generator and the workload sampler.
pub const GOLDEN_SEED: u64 = 7;

/// Number of queries in the replayed workload.
pub const GOLDEN_QUERIES: usize = 50;

/// The seeded instance the golden workload runs against.
pub fn golden_catalog() -> Arc<Catalog> {
    Arc::new(
        BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Uniform, GOLDEN_SEED)
            .catalog,
    )
}

/// The seeds a sweep suite replays: the comma-separated `u64`s in the
/// environment variable `var`, or `default` when it is unset — so a sweep
/// needs no rebuild (`CHAOS_SEEDS=1,7,42 cargo test -q --test chaos`).
pub fn seeds_from_env(var: &str, default: &str) -> Vec<u64> {
    std::env::var(var)
        .unwrap_or_else(|_| default.into())
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| panic!("{var} must be comma-separated u64s"))
        })
        .collect()
}

/// Minimal deterministic generator for the sweep suites' schedules (Knuth
/// LCG, high bits only).
pub struct Lcg(u64);

impl Lcg {
    /// The generator a suite draws seed `seed`'s schedule from.
    pub fn seeded(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }

    /// The next draw, in `0..2^31`.
    pub fn draw(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// The fixed 50-query plan sequence.
pub fn golden_plans() -> Vec<LogicalPlan> {
    fig5_workload(GOLDEN_QUERIES, GOLDEN_SEED)
}

/// The three variants the sequences are recorded under.
pub fn golden_variants(catalog: &Catalog) -> Vec<(&'static str, DeepSeaConfig)> {
    vec![
        ("DS", baselines::deepsea().with_phi(0.05)),
        (
            "DS-tight",
            baselines::deepsea()
                .with_phi(0.05)
                .with_smax(catalog.total_base_bytes() / 40),
        ),
        ("NP", baselines::non_partitioned()),
    ]
}
