//! Microbenchmarks for DeepSea's hot per-query operations: the matching,
//! candidate-generation, statistics, and selection code that runs for every
//! query of a workload (Algorithm 1's non-execution overhead), and the batch
//! executor's join, group-by and selection kernels.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use deepsea_core::candidates::partition_candidates;
use deepsea_core::filter_tree::{FilterTree, ViewId};
use deepsea_core::fragment::FragmentId;
use deepsea_core::interval::Interval;
use deepsea_core::matching::partition_matching;
use deepsea_core::mle::{adjusted_hits, fit_normal};
use deepsea_core::selection::{select_configuration, CandidateKind, RankedItem};
use deepsea_core::{baselines, DeepSea};
use deepsea_engine::plan::{AggExpr, AggFunc, ViewScanInfo};
use deepsea_engine::signature::{matches, Signature};
use deepsea_engine::{execute, Catalog, LogicalPlan};
use deepsea_relation::{Col, Column, DataType, Field, Predicate, Schema, Table};
use deepsea_storage::{BlockConfig, CostWeights, SimFs};
use deepsea_workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea_workload::sdss::sdss_like_histogram;
use deepsea_workload::sequences::{fig5_workload, item_domain};
use deepsea_workload::TemplateId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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
        .map(|ps| ps.fragments().len())
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

/// One steady-state commit as history grows: a `Q30` log of random narrow
/// ranges keeps tracking fragments in one partition (`store_sales ⋈ item`
/// on `ss_item_sk`); once that partition tracks 2k, and again once it
/// tracks 8k, time the commit of a query the log already ran. A commit
/// whose work is proportional to its query costs the same at both.
/// `commit_2k_tracked_held` times that commit as the serving loop runs it:
/// the epoch published before it is held across it, so every registry node
/// the commit writes is copied (and freed when the snapshot is dropped).
fn bench_commit_scaling(c: &mut Criterion) {
    let (lo, hi) = item_domain();
    let dist = ItemDistribution::Histogram(sdss_like_histogram(lo, hi));
    let catalog = BigBenchData::generate(InstanceSize::Gb100, &dist, 42).catalog;
    let mut ds = DeepSea::new(catalog, baselines::deepsea().with_phi(0.05));
    let largest = |ds: &DeepSea| {
        ds.registry()
            .iter()
            .flat_map(|v| v.partitions.values())
            .map(|ps| ps.fragments().len())
            .max()
            .unwrap_or(0)
    };
    let mut rng = StdRng::seed_from_u64(42);
    let repeat = TemplateId::Q30.instantiate(20_000, 20_300);
    for (name, tracked) in [("commit_2k_tracked", 2_000), ("commit_8k_tracked", 8_000)] {
        while largest(&ds) < tracked {
            let from = rng.random_range(lo..hi - 400);
            let plan = TemplateId::Q30.instantiate(from, from + rng.random_range(20i64..400));
            ds.process_query(&plan).expect("fault-free log");
        }
        ds.process_query(&repeat).expect("fault-free log");
        c.bench_function(name, |b| b.iter(|| ds.process_query(&repeat)));
        if tracked == 2_000 {
            c.bench_function("commit_2k_tracked_held", |b| {
                b.iter(|| {
                    let _held = ds.publish_snapshot();
                    ds.process_query(&repeat)
                })
            });
        }
    }
}

/// The executor's kernels on the wall-clock benchmark's instance, one plan
/// each; divide by the rows named to get ns per row. Joins and the selection
/// end in a global COUNT, so that no 40k-row result is copied out — except
/// `join_40k_table`, whose result becomes a `Table`, as a view stored from
/// the executed plan does.
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
    // The top of the first 7 % of sales by item: a range keeping about 7 %.
    let narrow = {
        let mut keys = int_column(&catalog, "store_sales", "store_sales.ss_item_sk");
        keys.sort_unstable();
        keys[keys.len() * 7 / 100]
    };
    let fs: SimFs<Table> = SimFs::new(BlockConfig::default(), CostWeights::default());
    let count = |plan: LogicalPlan| plan.aggregate(Vec::<String>::new(), vec![AggExpr::count("n")]);
    let scan = LogicalPlan::scan;
    let ss_item = || {
        scan("store_sales").join(
            scan("item"),
            vec![("store_sales.ss_item_sk", "item.i_item_sk")],
        )
    };
    let ss_customer = || {
        scan("store_sales").join(
            scan("customer"),
            vec![("store_sales.ss_customer_sk", "customer.c_customer_sk")],
        )
    };
    let item_range = |lo, hi| Predicate::range("store_sales.ss_item_sk", lo, hi);
    let plans = [
        // 40k + 40k input rows.
        ("join_40k_int_dense", count(ss_item())),
        // The same join gathered into a 40k-row table, `i_category` included.
        ("join_40k_table", ss_item()),
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
        // The same over about 7 % of the rows: past its second iteration the
        // column's range order serves it.
        (
            "select_40k_range_narrow",
            count(scan("store_sales").select(item_range(lo, narrow))),
        ),
        // Q1's selection above its join, as instrumented plans keep it: a
        // 400-item range of the fact side, filtered before pairing.
        (
            "select_join_40k_narrow",
            count(ss_item().select(item_range(lo, lo + 399))),
        ),
        // The same over the 400 items around the median sale: a hot spot.
        (
            "select_join_40k_hot",
            count(ss_item().select(item_range(median - 200, median + 199))),
        ),
        // The same over the whole item domain: σ keeps every fact row.
        (
            "select_join_40k_wide",
            count(ss_item().select(item_range(lo, hi))),
        ),
        // Q26's shape: σ over ss ⋈ customer, whose surrogate key is the
        // build side, the selection on the probe side.
        (
            "select_join_40k_customer",
            count(ss_customer().select(item_range(lo, lo + 399))),
        ),
        // Q7's shape: the selection sits above a second join, and runs at
        // the fact leaf of both.
        (
            "select_join3_40k",
            count(
                ss_item()
                    .join(
                        scan("customer"),
                        vec![("store_sales.ss_customer_sk", "customer.c_customer_sk")],
                    )
                    .select(item_range(lo, lo + 399)),
            ),
        ),
        // The Hive baseline's pushed-down plan: σ over 400 items of the fact
        // side, then ⋈ item, whose surrogate key is the probe side.
        (
            "pushed_join_40k",
            count(scan("store_sales").select(item_range(lo, lo + 399)).join(
                scan("item"),
                vec![("store_sales.ss_item_sk", "item.i_item_sk")],
            )),
        ),
        // 40k fact rows against 10k customers, the surrogate key the build side.
        ("join_40k_customer", count(ss_customer())),
        // σ on the dimension side, and σ above a join that meets no
        // surrogate key: no leaf takes either, so the join is built whole
        // and then filtered.
        (
            "select_dim_join_40k",
            count(ss_item().select(Predicate::eq("item.i_category", "cat3"))),
        ),
        (
            "select_sparse_join_40k",
            count(
                scan("sparse_sales")
                    .join(
                        scan("sparse_item"),
                        vec![("sparse_sales.k", "sparse_item.k")],
                    )
                    .select(Predicate::range(
                        "sparse_sales.k",
                        lo * 1_000_003,
                        (lo + 399) * 1_000_003,
                    )),
            ),
        ),
    ];
    for (name, plan) in &plans {
        c.bench_function(name, |b| {
            b.iter(|| execute(black_box(plan), &catalog, &fs).expect("base tables only"))
        });
    }
    // The narrow range on a fresh `Col` over the key column's values, which
    // has no range order: its first selection scans, its second sorts the
    // rows.
    let sales = catalog.get("store_sales").expect("a BigBench table");
    let key = sales.column(
        sales
            .schema
            .index_of("store_sales.ss_item_sk")
            .expect("its key"),
    );
    let fresh = || Col::whole(Arc::clone(key.data()));
    c.bench_function("select_40k_range_cold", |b| {
        b.iter_batched(
            fresh,
            |col| col.int_range_rows(lo, narrow),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("range_order_build_40k", |b| {
        b.iter_batched(
            || {
                let col = fresh();
                col.int_range_rows(lo, narrow);
                col
            },
            |col| col.int_range_rows(lo, narrow),
            BatchSize::SmallInput,
        )
    });
}

/// What every benchmark run, experiment and test starts with: generating
/// the 100 GB instance (seven tables, 40k fact rows), and the canonical
/// fingerprint of a query result holding integers, floats and strings
/// (store_sales ⋈ item, 40k rows of seven columns).
fn bench_instances(c: &mut Criterion) {
    let (lo, hi) = item_domain();
    let dist = ItemDistribution::Histogram(sdss_like_histogram(lo, hi));
    c.bench_function("generate_gb100_instance", |b| {
        b.iter(|| BigBenchData::generate(InstanceSize::Gb100, black_box(&dist), 42))
    });
    let catalog = BigBenchData::generate(InstanceSize::Gb100, &dist, 42).catalog;
    let fs: SimFs<Table> = SimFs::new(BlockConfig::default(), CostWeights::default());
    let join = LogicalPlan::scan("store_sales").join(
        LogicalPlan::scan("item"),
        vec![("store_sales.ss_item_sk", "item.i_item_sk")],
    );
    let (result, _) = execute(&join, &catalog, &fs).expect("base tables only");
    c.bench_function("fingerprint_40k_join", |b| {
        b.iter(|| black_box(&result).fingerprint())
    });
}

/// A stored view's life on the 100 GB instance: Q7's join (store_sales ⋈
/// item ⋈ customer, 40k rows of nine columns) cut into 22 fragments by
/// `ss_item_sk`, as `materialize_view` partitions a view; and that view
/// stored as one file and read back under Q7's 7 % item range and its
/// aggregate, as a single-file rewrite reads it. Past the second iteration
/// the stored column's range order serves the range.
fn bench_view_fragments(c: &mut Criterion) {
    let (lo, hi) = item_domain();
    let dist = ItemDistribution::Histogram(sdss_like_histogram(lo, hi));
    let catalog = BigBenchData::generate(InstanceSize::Gb100, &dist, 42).catalog;
    let fs: SimFs<Table> = SimFs::new(BlockConfig::default(), CostWeights::default());
    let q7 = LogicalPlan::scan("store_sales")
        .join(
            LogicalPlan::scan("item"),
            vec![("store_sales.ss_item_sk", "item.i_item_sk")],
        )
        .join(
            LogicalPlan::scan("customer"),
            vec![("store_sales.ss_customer_sk", "customer.c_customer_sk")],
        );
    let (view, _) = execute(&q7, &catalog, &fs).expect("base tables only");
    let key = view
        .schema
        .index_of("store_sales.ss_item_sk")
        .expect("the partition attribute");
    let width = (hi - lo + 22) / 22;
    let ranges: Vec<(i64, i64)> = (0..22)
        .map(|k| (lo + k * width, (lo + (k + 1) * width - 1).min(hi)))
        .collect();
    c.bench_function("materialize_partitioned_join_view", |b| {
        b.iter(|| {
            let parts = view.column(key).int_partition_rows(black_box(&ranges));
            parts.iter().map(|rows| view.take(rows)).collect::<Vec<_>>()
        })
    });
    let narrow = {
        let mut keys = int_column(&catalog, "store_sales", "store_sales.ss_item_sk");
        keys.sort_unstable();
        keys[keys.len() * 7 / 100]
    };
    let schema = view.schema.clone();
    let (file, _) = fs.create("q7", view.sim_bytes(), view);
    let read = LogicalPlan::ViewScan(ViewScanInfo {
        view_name: "q7".into(),
        files: vec![file],
        schema,
        clip: None,
    })
    .select(Predicate::range("store_sales.ss_item_sk", lo, narrow))
    .aggregate(
        vec!["customer.c_age_group"],
        vec![AggExpr::of(AggFunc::Sum, "store_sales.ss_net_paid", "paid")],
    );
    c.bench_function("viewscan_select_whole_view_40k", |b| {
        b.iter(|| execute(black_box(&read), &catalog, &fs).expect("a stored file"))
    });
}

fn int_column(catalog: &Catalog, table: &str, col: &str) -> Vec<i64> {
    let t = catalog.get(table).expect("a BigBench table");
    let i = t.schema.index_of(col).expect("its key column");
    let c = t.column(i);
    (0..c.len())
        .map(|r| c.int_at(r).expect("a non-NULL integer key"))
        .collect()
}

criterion_group!(
    name = micro;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_signature, bench_filter_tree, bench_partition_ops, bench_mle, bench_selection,
        bench_commit_bookkeeping, bench_commit_scaling, bench_exec_kernels, bench_instances,
        bench_view_fragments
);
criterion_main!(micro);
