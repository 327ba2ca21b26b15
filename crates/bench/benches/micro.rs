//! Microbenchmarks for DeepSea's hot per-query operations: the matching,
//! candidate-generation, statistics, and selection code that runs for every
//! query of a workload (Algorithm 1's non-execution overhead), and the batch
//! executor's join, group-by and selection kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use deepsea_core::candidates::partition_candidates;
use deepsea_core::filter_tree::{FilterTree, ViewId};
use deepsea_core::fragment::FragmentId;
use deepsea_core::interval::Interval;
use deepsea_core::matching::partition_matching;
use deepsea_core::mle::{adjusted_hits, fit_normal};
use deepsea_core::selection::{select_configuration, CandidateKind, RankedItem};
use deepsea_core::{baselines, DeepSea};
use deepsea_engine::plan::AggExpr;
use deepsea_engine::signature::{matches, Signature};
use deepsea_engine::{execute, Catalog, LogicalPlan};
use deepsea_relation::{Column, ColumnData, DataType, Field, Predicate, Schema, Table};
use deepsea_storage::{BlockConfig, CostWeights, SimFs};
use deepsea_workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea_workload::sdss::sdss_like_histogram;
use deepsea_workload::sequences::{fig5_workload, item_domain};

fn bench_signature(c: &mut Criterion) {
    let plan = LogicalPlan::scan("store_sales")
        .join(LogicalPlan::scan("item"), vec![("ss_item_sk", "i_item_sk")])
        .join(
            LogicalPlan::scan("customer"),
            vec![("ss_customer_sk", "c_customer_sk")],
        )
        .select(Predicate::range("ss_item_sk", 100, 500))
        .aggregate(vec!["i_category"], vec![AggExpr::count("cnt")]);
    c.bench_function("signature_of_3way_join", |b| {
        b.iter(|| Signature::of(black_box(&plan)))
    });
    let vsig = Signature::of(&plan).unwrap();
    let qsig = Signature::of(
        &LogicalPlan::scan("store_sales")
            .join(LogicalPlan::scan("item"), vec![("ss_item_sk", "i_item_sk")])
            .join(
                LogicalPlan::scan("customer"),
                vec![("ss_customer_sk", "c_customer_sk")],
            )
            .select(Predicate::range("ss_item_sk", 200, 400))
            .aggregate(vec!["i_category"], vec![AggExpr::count("cnt")]),
    )
    .unwrap();
    c.bench_function("sufficient_condition_match", |b| {
        b.iter(|| matches(black_box(&vsig), black_box(&qsig)))
    });
}

fn bench_filter_tree(c: &mut Criterion) {
    let mut ft = FilterTree::new();
    for i in 0..200 {
        let plan =
            LogicalPlan::scan(format!("t{i}")).join(LogicalPlan::scan("item"), vec![("a", "b")]);
        ft.insert(&Signature::of(&plan).unwrap(), ViewId(i));
    }
    let probe =
        Signature::of(&LogicalPlan::scan("t100").join(LogicalPlan::scan("item"), vec![("a", "b")]))
            .unwrap();
    c.bench_function("filter_tree_lookup_200_views", |b| {
        b.iter(|| ft.lookup(black_box(&probe)))
    });
}

fn bench_partition_ops(c: &mut Criterion) {
    // 64 fragments over [0, 400_000].
    let domain = Interval::new(0, 400_000);
    let frags: Vec<Interval> = domain.chop(64);
    let pairs: Vec<(FragmentId, Interval)> = frags
        .iter()
        .enumerate()
        .map(|(i, iv)| (FragmentId(i as u64), *iv))
        .collect();
    let theta = Interval::new(123_456, 234_567);
    c.bench_function("algorithm2_cover_64_fragments", |b| {
        b.iter(|| partition_matching(black_box(&theta), black_box(&pairs)))
    });
    c.bench_function("def7_candidates_64_fragments", |b| {
        b.iter(|| partition_candidates(black_box(&frags), &domain, black_box(&theta)))
    });
}

fn bench_mle(c: &mut Criterion) {
    let frags: Vec<(Interval, f64)> = (0..64)
        .map(|i| {
            let iv = Interval::new(i * 1_000, i * 1_000 + 999);
            let d = (i - 32) as f64;
            (iv, 1_000.0 * (-d * d / 50.0).exp())
        })
        .collect();
    c.bench_function("mle_fit_64_fragments", |b| {
        b.iter(|| fit_normal(black_box(&frags)))
    });
    let fit = fit_normal(&frags).unwrap();
    c.bench_function("mle_adjusted_hits", |b| {
        b.iter(|| adjusted_hits(1_000.0, black_box(&fit), &Interval::new(30_000, 31_000)))
    });
}

fn bench_selection(c: &mut Criterion) {
    let items: Vec<RankedItem> = (0..500)
        .map(|i| RankedItem {
            kind: CandidateKind::WholeView(ViewId(i)),
            phi: (i as f64 * 37.0) % 101.0,
            size: 1_000 + (i % 97) * 13,
            materialized: i % 3 == 0,
        })
        .collect();
    c.bench_function("greedy_knapsack_500_items", |b| {
        b.iter(|| select_configuration(black_box(items.clone()), Some(100_000)))
    });
}

/// The two per-commit costs that grow with everything the registry has ever
/// tracked, on the registry the wall-clock benchmark's `sdss_steady` ends
/// with: 400 queries of the SDSS-shaped log, ~1.9k tracked fragments.
fn bench_commit_bookkeeping(c: &mut Criterion) {
    let (lo, hi) = item_domain();
    let dist = ItemDistribution::Histogram(sdss_like_histogram(lo, hi));
    let catalog = BigBenchData::generate(InstanceSize::Gb100, &dist, 42).catalog;
    let mut ds = DeepSea::new(catalog, baselines::deepsea().with_phi(0.05));
    for plan in fig5_workload(600, 42).iter().take(400) {
        ds.process_query(plan).expect("fault-free replay");
    }
    let tracked: usize = ds
        .registry()
        .iter()
        .flat_map(|v| v.partitions.values())
        .map(|ps| ps.fragments.len())
        .sum();
    assert!(tracked > 1_500, "the log tracks ~1.9k fragments: {tracked}");
    c.bench_function("build_allcand_2k_tracked", |b| b.iter(|| ds.allcand()));
    // A reader holds the previous epoch while the next is published, as in
    // the serving loop.
    let _held = ds.publish_snapshot().expect("the simulated backend forks");
    c.bench_function("publish_snapshot_2k_tracked", |b| {
        b.iter(|| ds.publish_snapshot())
    });
}

/// The executor's kernels on the wall-clock benchmark's instance, one plan
/// each; divide by the rows named to get ns per row. Joins and the selection
/// end in a global COUNT, so that no 40k-row result is copied out.
fn bench_exec_kernels(c: &mut Criterion) {
    let (lo, hi) = item_domain();
    let dist = ItemDistribution::Histogram(sdss_like_histogram(lo, hi));
    let mut catalog = BigBenchData::generate(InstanceSize::Gb100, &dist, 42).catalog;
    // The fact and dimension keys spread out by a prime stride: the same
    // join, but no table of 4·rows cells spans the keys.
    for (name, table, col) in [
        ("sparse_sales", "store_sales", "store_sales.ss_item_sk"),
        ("sparse_item", "item", "item.i_item_sk"),
    ] {
        let keys = int_column(&catalog, table, col).into_iter();
        let keys = Column::from_ints(keys.map(|k| k * 1_000_003).collect());
        let schema = Schema::new(vec![Field::new(format!("{name}.k"), DataType::Int)]);
        catalog.register(name, Table::new(schema, vec![keys.into()], 8));
    }
    let median = {
        let mut keys = int_column(&catalog, "store_sales", "store_sales.ss_item_sk");
        keys.sort_unstable();
        keys[keys.len() / 2]
    };
    let fs: SimFs<Table> = SimFs::new(BlockConfig::default(), CostWeights::default());
    let count = |plan: LogicalPlan| plan.aggregate(Vec::<String>::new(), vec![AggExpr::count("n")]);
    let scan = LogicalPlan::scan;
    let plans = [
        // 40k + 40k input rows.
        (
            "join_40k_int_dense",
            count(scan("store_sales").join(
                scan("item"),
                vec![("store_sales.ss_item_sk", "item.i_item_sk")],
            )),
        ),
        (
            "join_40k_int_sparse",
            count(scan("sparse_sales").join(
                scan("sparse_item"),
                vec![("sparse_sales.k", "sparse_item.k")],
            )),
        ),
        // 40k input rows each; the integer one also sorts its ~19k groups.
        (
            "group_40k_str",
            scan("item").aggregate(vec!["item.i_category"], vec![AggExpr::count("n")]),
        ),
        (
            "group_40k_int",
            scan("store_sales")
                .aggregate(vec!["store_sales.ss_item_sk"], vec![AggExpr::count("n")]),
        ),
        // Half of 40k rows pass, in no order a branch predictor could learn.
        (
            "select_40k_range",
            count(scan("store_sales").select(Predicate::range(
                "store_sales.ss_item_sk",
                lo,
                median,
            ))),
        ),
    ];
    for (name, plan) in &plans {
        c.bench_function(name, |b| {
            b.iter(|| execute(black_box(plan), &catalog, &fs).expect("base tables only"))
        });
    }
}

fn int_column(catalog: &Catalog, table: &str, col: &str) -> Vec<i64> {
    let t = catalog.get(table).expect("a BigBench table");
    let i = t.schema.index_of(col).expect("its key column");
    match t.column(i).data() {
        ColumnData::Int(v) => v.clone(),
        _ => panic!("{col} is an integer column"),
    }
}

criterion_group!(
    name = micro;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_signature, bench_filter_tree, bench_partition_ops, bench_mle, bench_selection,
        bench_commit_bookkeeping, bench_exec_kernels
);
criterion_main!(micro);
