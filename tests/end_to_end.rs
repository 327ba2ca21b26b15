//! Cross-crate integration tests: the whole DeepSea stack (workload →
//! engine → core) must produce correct query answers under every policy, and
//! the pool must obey its invariants on realistic workloads.

use std::sync::Arc;

use deepsea::bench::harness::{run_variants, run_workload};
use deepsea::core::{baselines, driver::DeepSea};
use deepsea::engine::Catalog;
use deepsea::workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea::workload::sequences::{fig5_workload, fixed_template_workload};
use deepsea::workload::{Selectivity, Skew, TemplateId};

fn catalog(seed: u64) -> Catalog {
    BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Uniform, seed).catalog
}

/// Every template, several ranges, answered by DeepSea (with all the
/// materialization and rewriting machinery) must return exactly what vanilla
/// execution returns.
#[test]
fn deepsea_answers_equal_hive_answers_for_every_template() {
    let mut ds = DeepSea::new(catalog(21), baselines::deepsea());
    let mut hive = DeepSea::new(catalog(21), baselines::hive());
    for t in TemplateId::all() {
        for (lo, hi) in [(1_000, 3_000), (1_500, 2_500), (900, 3_100), (0, 39_999)] {
            let plan = t.instantiate(lo, hi);
            let a = ds.process_query(&plan).expect("deepsea run");
            let b = hive.process_query(&plan).expect("hive run");
            assert_eq!(
                a.result.fingerprint(),
                b.result.fingerprint(),
                "{t:?} [{lo},{hi}] must match vanilla execution (used_view={:?})",
                a.used_view
            );
        }
    }
    // The workload above repeats ranges per template, so reuse must happen.
    assert!(ds.pool_bytes() > 0, "DeepSea materialized something");
}

/// The recorded SDSS-like log far enough for overlapping fragments to build
/// up: around query 459 partition matching first answers from a cover whose
/// fragments overlap, and a scan that concatenated them whole counted the
/// rows in the overlap twice (a `SUM` of 2005 where the base tables give
/// 1024). Every answer must equal the Hive baseline's.
#[test]
fn overlapping_fragment_covers_count_each_row_once() {
    use deepsea::workload::sdss::sdss_like_histogram;
    let catalog = |seed| {
        let dist = ItemDistribution::Histogram(sdss_like_histogram(0, 39_999));
        BigBenchData::generate(InstanceSize::Gb100, &dist, seed).catalog
    };
    let mut ds = DeepSea::new(catalog(42), baselines::deepsea().with_phi(0.05));
    let mut hive = DeepSea::new(catalog(42), baselines::hive());
    for (i, plan) in fig5_workload(470, 42).iter().enumerate() {
        let got = ds.process_query(plan).expect("deepsea run");
        let want = hive.process_query(plan).expect("hive run");
        assert_eq!(
            got.result.fingerprint(),
            want.result.fingerprint(),
            "query {i} (used_view={:?})",
            got.used_view
        );
    }
}

/// Same equivalence under the equi-depth and Nectar baselines, and under
/// strictly horizontal repartitioning.
#[test]
fn all_policies_preserve_query_answers() {
    let configs = [
        baselines::non_partitioned(),
        baselines::equi_depth(7),
        baselines::nectar(),
        baselines::nectar_plus(),
        baselines::no_repartitioning(),
        baselines::horizontal_only(),
        baselines::deepsea_no_mle(),
    ];
    let plans = fixed_template_workload(TemplateId::Q30, 8, Selectivity::Medium, Skew::Heavy, 31);
    let mut hive = DeepSea::new(catalog(31), baselines::hive());
    let expected: Vec<_> = plans
        .iter()
        .map(|p| hive.process_query(p).unwrap().result.fingerprint())
        .collect();
    for cfg in configs {
        let mut sys = DeepSea::new(catalog(31), cfg);
        for (plan, want) in plans.iter().zip(&expected) {
            let got = sys.process_query(plan).expect("query runs");
            assert_eq!(
                &got.result.fingerprint(),
                want,
                "policy {cfg:?} changed a query answer"
            );
        }
    }
}

/// The pool never exceeds `Smax`, across a mixed workload with eviction
/// churn.
#[test]
fn pool_limit_invariant_on_mixed_workload() {
    let cat = catalog(41);
    let smax = cat.total_base_bytes() / 20; // 5% — heavy pressure
    let cfg = baselines::deepsea().with_phi(0.05).with_smax(smax);
    let mut ds = DeepSea::new(cat, cfg);
    for plan in fig5_workload(40, 41) {
        ds.process_query(&plan).expect("query runs");
        assert!(
            ds.pool_bytes() <= smax,
            "pool {} exceeded Smax {smax}",
            ds.pool_bytes()
        );
    }
}

/// Simulated-time orderings the paper reports must hold end to end:
/// DS < NP < H on a reuse-friendly skewed workload.
#[test]
fn baseline_ordering_ds_np_hive() {
    let cat = Arc::new(catalog(51));
    let plans = fixed_template_workload(TemplateId::Q30, 12, Selectivity::Small, Skew::Heavy, 51);
    let runs = run_variants(
        &cat,
        &[
            ("H", baselines::hive()),
            ("NP", baselines::non_partitioned()),
            ("DS", baselines::deepsea()),
        ],
        &plans,
    );
    let h = runs[0].total_secs();
    let np = runs[1].total_secs();
    let ds = runs[2].total_secs();
    assert!(np < h, "NP {np} must beat Hive {h}");
    assert!(ds < np, "DS {ds} must beat NP {np}");
}

/// Simulated times are deterministic: two identical runs agree exactly.
#[test]
fn runs_are_deterministic() {
    let cat = Arc::new(catalog(61));
    let plans = fixed_template_workload(TemplateId::Q9, 6, Selectivity::Medium, Skew::Light, 61);
    let a = run_workload("DS", &cat, baselines::deepsea(), &plans);
    let b = run_workload("DS", &cat, baselines::deepsea(), &plans);
    assert_eq!(a.per_query, b.per_query);
}

/// Evicted fragments really disappear from the simulated FS (no leaks), and
/// the registry's pool accounting matches the FS contents.
#[test]
fn registry_accounting_matches_fs() {
    let cat = catalog(71);
    let smax = cat.total_base_bytes() / 10;
    let cfg = baselines::deepsea().with_phi(0.05).with_smax(smax);
    let mut ds = DeepSea::new(cat, cfg);
    for plan in fig5_workload(30, 71) {
        ds.process_query(&plan).expect("query runs");
        assert_eq!(
            ds.pool_bytes(),
            ds.fs().total_bytes(),
            "registry bytes must equal FS bytes"
        );
    }
}
