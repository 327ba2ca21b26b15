//! Figure-by-figure reproduction of the paper's evaluation (§10).
//!
//! Each function regenerates one table/figure: it builds the exact workload
//! the paper describes, runs it under the paper's system variants, and
//! renders the same rows/series the paper plots. Absolute numbers come from
//! the cluster simulator, so only the *shape* (orderings, rough factors,
//! crossover points) is expected to match the paper.
//!
//! [`REGISTRY`] is the one list of experiments: the `experiments` binary
//! looks ids up in it and the `bench` gate regenerates its `gated` rows. A
//! new experiment is one more row.

use std::sync::Arc;

use deepsea_core::{baselines, DeepSeaConfig, ObsConfig, Observer};
use deepsea_engine::Catalog;
use deepsea_workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea_workload::sdss::{sdss_like_histogram, SdssTrace};
use deepsea_workload::sequences::{
    fig10_workload, fig5_workload, fig6_workload, fig7_workload, fig8a_workload, fig8b_workload,
    fig9_workload, item_domain,
};
use deepsea_workload::{Selectivity, Skew};
use serde::ObjectBuilder;

use crate::harness::{recoup_point, run_variants, run_workload, run_workload_observed, RunResult};
use crate::pressure;
use crate::report::{bar_chart, pct, secs, series, stage_breakdown, table, top_n_table};

/// How much work to do: `Quick` for criterion benches and smoke runs,
/// `Paper` for the full experiment suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down runs (fewer queries, smaller instance).
    Quick,
    /// Paper-scale runs.
    Paper,
}

impl Scale {
    /// The `"scale"` leaf of every `BENCH*.json`.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }

    pub(crate) fn fig5_queries(&self) -> usize {
        match self {
            Scale::Quick => 60,
            Scale::Paper => 1000,
        }
    }

    pub(crate) fn instance(&self) -> InstanceSize {
        match self {
            Scale::Quick => InstanceSize::Gb100,
            Scale::Paper => InstanceSize::Gb500,
        }
    }
}

/// What running one experiment produces: the rendered report, plus — for
/// the traced experiments — the machine-readable summary and the observer
/// that watched the run.
pub struct Run {
    /// Human title.
    pub title: String,
    /// Rendered body (tables/series).
    pub body: String,
    /// The `BENCH*.json` document, written to the row's
    /// [`Experiment::bench_file`].
    pub bench_json: Option<String>,
    /// The observer that watched the run (metrics, spans, events) — the
    /// source of `--metrics-out` / `--events-out` / `--trace-out`.
    pub observer: Option<Observer>,
}

impl Run {
    pub(crate) fn new(title: &str, body: String) -> Self {
        Self {
            title: title.to_string(),
            body,
            bench_json: None,
            observer: None,
        }
    }

    /// Attach the traced side products.
    pub(crate) fn traced(mut self, bench_json: String, observer: Observer) -> Self {
        self.bench_json = Some(bench_json);
        self.observer = Some(observer);
        self
    }
}

/// One row of the experiment table.
pub struct Experiment {
    /// The id the `experiments` binary takes on its command line.
    pub id: &'static str,
    /// Where the run's `bench_json` is written.
    pub bench_file: Option<&'static str>,
    /// Whether `bench_file` is checked in at the repository root as the
    /// baseline `bench report` diffs a fresh quick-scale run against.
    pub gated: bool,
    /// Run the experiment at the given scale.
    pub run: fn(Scale) -> Run,
}

/// Every experiment, in the order `experiments all` runs them: the paper's
/// §10 figures, then this repository's three serving scenarios.
/// `BENCH_pressure.json` is a side product: written, never checked in.
#[rustfmt::skip]
pub static REGISTRY: [Experiment; 15] = [
    Experiment { id: "fig1", bench_file: None, gated: false, run: fig1 },
    Experiment { id: "fig2", bench_file: None, gated: false, run: fig2 },
    Experiment { id: "table1", bench_file: None, gated: false, run: table1 },
    Experiment { id: "fig5a", bench_file: Some("BENCH.json"), gated: true, run: fig5a },
    Experiment { id: "fig5b", bench_file: None, gated: false, run: fig5b },
    Experiment { id: "fig6", bench_file: None, gated: false, run: fig6 },
    Experiment { id: "fig7", bench_file: None, gated: false, run: fig7 },
    Experiment { id: "fig8a", bench_file: None, gated: false, run: fig8a },
    Experiment { id: "fig8b", bench_file: None, gated: false, run: fig8b },
    Experiment { id: "fig9", bench_file: None, gated: false, run: fig9 },
    Experiment { id: "fig10", bench_file: None, gated: false, run: fig10 },
    Experiment { id: "ablations", bench_file: None, gated: false, run: ablations },
    Experiment { id: "pressure", bench_file: Some("BENCH_pressure.json"), gated: false, run: pressure::pressure },
    Experiment { id: "node-failure", bench_file: Some("BENCH_node_failure.json"), gated: true, run: pressure::node_failure },
    Experiment { id: "overload", bench_file: Some("BENCH_overload.json"), gated: true, run: pressure::overload },
];

/// The row whose observer feeds `experiments --metrics-out` / `--events-out`.
pub const METRICS_SOURCE: &str = "fig5a";

/// Traced rows in the order `experiments --trace-out` prefers them.
pub const TRACE_SOURCES: [&str; 4] = ["overload", "pressure", "node-failure", "fig5a"];

/// The head of every `BENCH*.json`: experiment, scale, query count.
pub(crate) fn bench_head(experiment: &str, scale: Scale, queries: usize) -> ObjectBuilder {
    ObjectBuilder::new()
        .field("experiment", experiment)
        .field("scale", scale.name())
        .field("queries", queries as u64)
}

pub(crate) const SEED: u64 = 0xDEE9_5EA0;

pub(crate) fn sdss_catalog(size: InstanceSize) -> Arc<Catalog> {
    let (lo, hi) = item_domain();
    let hist = sdss_like_histogram(lo, hi);
    Arc::new(BigBenchData::generate(size, &ItemDistribution::Histogram(hist), SEED).catalog)
}

/// `config` with the mixed-workload fragment-size bound (§9) under a pool
/// limit of `smax` bytes.
fn pooled(config: DeepSeaConfig, smax: u64) -> DeepSeaConfig {
    config.with_phi(0.05).with_smax(smax)
}

fn uniform_catalog(size: InstanceSize) -> Arc<Catalog> {
    Arc::new(BigBenchData::generate(size, &ItemDistribution::Uniform, SEED).catalog)
}

/// Figure 1: histogram of selection ranges on the SDSS-like trace.
pub fn fig1(_scale: Scale) -> Run {
    let (lo, hi) = item_domain();
    let trace = SdssTrace::new(lo, hi);
    let ranges = trace.generate(10_000, SEED);
    let hist = trace.hit_histogram(&ranges, 28);
    let items: Vec<(String, f64)> = hist
        .iter()
        .map(|(b, h)| (format!("{b:>6}"), *h as f64))
        .collect();
    Run::new(
        "Histogram of selection ranges (SDSS-like trace, 10 000 queries)",
        bar_chart(&items, "hits"),
    )
}

/// Figure 2: evolution of selection ranges over the query sequence.
pub fn fig2(_scale: Scale) -> Run {
    let (lo, hi) = item_domain();
    let trace = SdssTrace::new(lo, hi);
    let ranges = trace.generate(10_000, SEED);
    let mut body = String::from("  query#     lo .. hi (every 500th query)\n");
    for (i, (l, h)) in ranges.iter().enumerate().step_by(500) {
        body.push_str(&format!("{:>8}  {l:>6} .. {h:<6}\n", i + 1));
    }
    // Phase means make the shift explicit.
    let mid = |r: &(i64, i64)| (r.0 + r.1) / 2;
    let n = ranges.len();
    let early: i64 = ranges[..n / 3].iter().map(mid).sum::<i64>() / (n / 3) as i64;
    let late: i64 = ranges[n / 3..].iter().map(mid).sum::<i64>() / (n - n / 3) as i64;
    body.push_str(&format!(
        "\nmean midpoint, first third: {early};  rest: {late} (access pattern shifts)\n"
    ));
    Run::new("Evolution of selection ranges", body)
}

/// Pool cap for the `DS-tight` fig5a companion run, as a divisor of the
/// base-table bytes. Tight enough that the Φ-ranked knapsack (§7.3) must
/// evict under decay as the SDSS access pattern shifts — the same squeeze
/// the `pressure` serving scenario applies.
const FIG5A_TIGHT_DIVISOR: u64 = 40;

/// Figure 5a: DS vs NP vs H on the SDSS-mapped workload, unlimited pool.
///
/// The DS variant runs under an attached [`Observer`] (bit-transparent, so
/// the numbers match an unobserved run exactly); the observer feeds the
/// hot-views table, the `BENCH.json` document (per-variant totals, query
/// count, DS stage totals, pool high-water mark), and — via the
/// `experiments` binary's `--metrics-out` / `--events-out` flags — the raw
/// metric/event dumps.
pub fn fig5a(scale: Scale) -> Run {
    let catalog = sdss_catalog(scale.instance());
    let plans = fig5_workload(scale.fig5_queries(), SEED);
    let baselines_runs = run_variants(
        &catalog,
        &[
            ("H", baselines::hive()),
            ("NP", baselines::non_partitioned()),
        ],
        &plans,
    );
    let obs = Observer::new(ObsConfig::on());
    // Mixed-template SDSS workload: fragment-size bounding on (§9).
    let ds_run = run_workload_observed(
        "DS",
        &catalog,
        baselines::deepsea().with_phi(0.05),
        &plans,
        obs.clone(),
    );
    // The §7.3 companion: the identical workload under a pool cap so tight
    // that Φ-ranked, decay-driven eviction must fire. Its stage totals ride
    // along in `BENCH.json` so the eviction path is tracked release to
    // release alongside the unlimited-pool headline.
    let smax = catalog.total_base_bytes() / FIG5A_TIGHT_DIVISOR;
    let ds_tight_run = run_workload(
        "DS-tight",
        &catalog,
        pooled(baselines::deepsea(), smax),
        &plans,
    );
    let runs = [&baselines_runs[0], &baselines_runs[1], &ds_run];
    let items: Vec<(String, f64)> = runs
        .iter()
        .map(|r| (r.label.clone(), r.total_secs()))
        .collect();
    let h = items[0].1;
    let np = items[1].1;
    let ds = items[2].1;
    let mut body = bar_chart(&items, "s");
    body.push_str(&format!(
        "\nNP/H = {}   DS/NP = {}   DS/H = {}\n(paper: NP ≈ 65.6% of H; DS ≈ 64.2% of NP)\n",
        pct(np / h),
        pct(ds / np),
        pct(ds / h)
    ));
    // Where DS spent its time and effort, stage by stage.
    body.push('\n');
    body.push_str(&stage_breakdown(&ds_run.label, &ds_run.stage_totals()));
    let tight_totals = ds_tight_run.stage_totals();
    body.push_str(&format!(
        "\nDS-tight (Smax = base/{FIG5A_TIGHT_DIVISOR}): total {}, \
         evictions {} selected + {} forced, pool high-water {} B\n",
        secs(ds_tight_run.total_secs()),
        tight_totals.eviction.selected,
        tight_totals.eviction.limit_forced,
        ds_tight_run.pool_high_water,
    ));
    // The views DS leaned on hardest, straight from the metrics registry.
    let hot = obs
        .metrics_snapshot()
        .top_counters("deepsea_view_hits_total", 5);
    if !hot.is_empty() {
        body.push('\n');
        body.push_str(&top_n_table("hottest views (DS)", "hits", &hot));
    }
    let bench_json = fig5a_bench_json(scale, &runs, &ds_run, &ds_tight_run, smax);
    Run::new(
        &format!(
            "Workload simulating SDSS ({} queries, {:?}): DS vs NP vs H",
            plans.len(),
            scale.instance()
        ),
        body,
    )
    .traced(bench_json, obs)
}

/// Render the `BENCH.json` document for a fig5a run: one deterministic JSON
/// object with the variant totals, the query count, the DS run's stage
/// totals plus pool high-water mark, and the pool-constrained `DS-tight`
/// companion's eviction profile.
fn fig5a_bench_json(
    scale: Scale,
    runs: &[&RunResult],
    ds: &RunResult,
    ds_tight: &RunResult,
    tight_smax: u64,
) -> String {
    let mut variants = ObjectBuilder::new();
    for r in runs {
        variants = variants.field(&r.label, r.total_secs());
    }
    let mut totals = ObjectBuilder::new();
    for (name, v) in ds.stage_totals().fields() {
        totals = totals.field(name, v);
    }
    let tight = ds_tight.stage_totals();
    bench_head("fig5a", scale, ds.per_query.len())
        .field("total_secs", variants.build())
        .field(
            "ds",
            ObjectBuilder::new()
                .field("total_secs", ds.total_secs())
                .field("final_pool_bytes", ds.final_pool_bytes)
                .field("pool_high_water_bytes", ds.pool_high_water)
                .field("stage_totals", totals.build())
                .build(),
        )
        .field(
            "ds_tight",
            ObjectBuilder::new()
                .field("smax_bytes", tight_smax)
                .field("total_secs", ds_tight.total_secs())
                .field("final_pool_bytes", ds_tight.final_pool_bytes)
                .field("pool_high_water_bytes", ds_tight.pool_high_water)
                .field("evictions_selected", tight.eviction.selected)
                .field("evictions_forced", tight.eviction.limit_forced)
                .field("planned_evictions", tight.selection.planned_evictions)
                .build(),
        )
        .build()
        .to_json()
}

/// Figure 5b: selection strategies N / N+ / DS across pool-size limits.
pub fn fig5b(scale: Scale) -> Run {
    let catalog = sdss_catalog(scale.instance());
    let plans = fig5_workload(scale.fig5_queries(), SEED);
    let base_bytes = catalog.total_base_bytes();
    let mut rows = Vec::new();
    for frac in [0.10, 0.25, 0.50, 1.00] {
        let smax = (base_bytes as f64 * frac) as u64;
        let runs = run_variants(
            &catalog,
            &[
                ("N", pooled(baselines::nectar(), smax)),
                ("N+", pooled(baselines::nectar_plus(), smax)),
                ("DS", pooled(baselines::deepsea(), smax)),
            ],
            &plans,
        );
        rows.push(vec![
            pct(frac),
            secs(runs[0].total_secs()),
            secs(runs[1].total_secs()),
            secs(runs[2].total_secs()),
        ]);
    }
    let body = table(&["pool size", "N (s)", "N+ (s)", "DS (s)"], &rows);
    Run::new(
        "Selection strategies across pool sizes (% of base tables)",
        body,
    )
}

/// Figure 6 (+ the §10.2 cluster-utilization analysis): DS vs equi-depth.
pub fn fig6(_scale: Scale) -> Run {
    let catalog = uniform_catalog(InstanceSize::Gb100);
    let plans = fig6_workload(SEED);
    let variants = [
        ("DS", baselines::deepsea()),
        ("E-6", baselines::equi_depth(6)),
        ("E-15", baselines::equi_depth(15)),
        ("E-30", baselines::equi_depth(30)),
        ("E-60", baselines::equi_depth(60)),
    ];
    let runs = run_variants(&catalog, &variants, &plans);
    let n = plans.len();
    let mut rows = Vec::new();
    for r in &runs {
        // Figure 6b plots the *rewritten query* time (execution only); the
        // refinement overhead DS pays while converging shows up in the
        // cumulative column instead.
        let exec_avg = r.per_query[1..n].iter().map(|q| q.query).sum::<f64>() / (n - 1) as f64;
        let last3 = r.per_query[n - 3..n].iter().map(|q| q.query).sum::<f64>() / 3.0;
        rows.push(vec![
            r.label.clone(),
            secs(r.per_query[0].elapsed),
            secs(exec_avg),
            secs(last3),
            secs(r.total_secs()),
            r.map_tasks(1..n).to_string(),
        ]);
    }
    let body = table(
        &[
            "variant",
            "Q30_1 (s)",
            "avg exec Q30_2..10 (s)",
            "avg exec last 3 (s)",
            "cumulative (s)",
            "map tasks (reuse)",
        ],
        &rows,
    );
    Run::new(
        "Equi-depth vs adaptive partitioning (Q30 ×10, small sel., heavy skew, 100GB)",
        body,
    )
}

/// Figure 7a/7b: selectivity × skew grid — projected time (% of Hive) for 100
/// queries and the number of queries needed to recoup materialization cost.
pub fn fig7(scale: Scale) -> Run {
    let catalog = uniform_catalog(scale.instance());
    let mut rows_a = Vec::new();
    let mut rows_b = Vec::new();
    for sel in [Selectivity::Big, Selectivity::Medium, Selectivity::Small] {
        for skew in [Skew::Uniform, Skew::Light, Skew::Heavy] {
            let setting = format!("{}{}", sel.abbrev(), skew.abbrev());
            let plans = fig7_workload(sel, skew, SEED);
            let runs = run_variants(
                &catalog,
                &[
                    ("H", baselines::hive()),
                    ("NP", baselines::non_partitioned()),
                    ("E", baselines::equi_depth(15)),
                    // "we use the same number of fragments for DeepSea and
                    // equi-depth" (§10.2): φ = 1/15 caps DS at 15 fragments'
                    // worth of size.
                    ("DS", baselines::deepsea().with_phi(1.0 / 15.0)),
                ],
                &plans,
            );
            let h100 = runs[0].projected_total(100).max(1e-9);
            rows_a.push(vec![
                setting.clone(),
                pct(runs[1].projected_total(100) / h100),
                pct(runs[2].projected_total(100) / h100),
                pct(runs[3].projected_total(100) / h100),
            ]);
            let rp = |r: &RunResult| {
                recoup_point(r, &runs[0])
                    .map(|q| q.to_string())
                    .unwrap_or_else(|| format!(">{}", plans.len()))
            };
            rows_b.push(vec![setting, rp(&runs[1]), rp(&runs[2]), rp(&runs[3])]);
        }
    }
    let mut body = String::from("(a) projected elapsed time for 100 queries, % of Hive\n");
    body.push_str(&table(&["setting", "NP", "E-15", "DS"], &rows_a));
    body.push_str("\n(b) queries needed to recoup materialization cost\n");
    body.push_str(&table(&["setting", "NP", "E-15", "DS"], &rows_b));
    Run::new(
        &format!("Varying selectivity and skew (Q30, {:?})", scale.instance()),
        body,
    )
}

/// Figure 8a: fragment-correlation exploitation — N vs DS, normal hits,
/// small pool.
pub fn fig8a(_scale: Scale) -> Run {
    // Pinned to the 100 GB instance: the paper's 7 GB pool holds a useful
    // number of *our* fragments at that scale (its views are smaller relative
    // to its base tables than ours).
    let catalog = uniform_catalog(InstanceSize::Gb100);
    let plans = fig8a_workload(SEED);
    let smax = 7_000_000_000; // the paper's 7 GB pool
    let runs = run_variants(
        &catalog,
        &[
            ("N", pooled(baselines::nectar(), smax)),
            ("DS", pooled(baselines::deepsea(), smax)),
        ],
        &plans,
    );
    let mut body = String::new();
    for r in &runs {
        let cum = r.cumulative();
        let pts: Vec<(usize, f64)> = cum
            .iter()
            .enumerate()
            .step_by(4)
            .map(|(i, c)| (i + 1, *c))
            .collect();
        body.push_str(&format!(
            "{}:\n{}",
            r.label,
            series(&pts, "query", "cumulative (s)")
        ));
    }
    body.push_str(&format!(
        "\ntotals: N = {} s, DS = {} s (paper: DS below N under normal-distributed hits)\n",
        secs(runs[0].total_secs()),
        secs(runs[1].total_secs())
    ));
    Run::new(
        "Fragment correlations, normal hits (Q30 ×20, pool 7GB)",
        body,
    )
}

/// Figure 8b: Zipf robustness — N vs DS across small pool sizes.
pub fn fig8b(_scale: Scale) -> Run {
    let catalog = uniform_catalog(InstanceSize::Gb100);
    let plans = fig8b_workload(20, SEED);
    let mut rows = Vec::new();
    for gb in [4u64, 8, 25] {
        let smax = gb * 1_000_000_000;
        let runs = run_variants(
            &catalog,
            &[
                ("N", pooled(baselines::nectar(), smax)),
                ("DS", pooled(baselines::deepsea(), smax)),
            ],
            &plans,
        );
        rows.push(vec![
            format!("{gb} GB"),
            secs(runs[0].total_secs()),
            secs(runs[1].total_secs()),
        ]);
    }
    let body = table(&["pool", "N (s)", "DS (s)"], &rows);
    Run::new(
        "Zipf-distributed selection ranges across pool sizes (paper: DS not worse than N)",
        body,
    )
}

/// Figure 9: overlapping vs strictly horizontal partitioning under a
/// three-phase midpoint shift.
pub fn fig9(_scale: Scale) -> Run {
    let catalog = uniform_catalog(InstanceSize::Gb100);
    let plans = fig9_workload(SEED);
    let runs = run_variants(
        &catalog,
        &[
            ("Horizontal", baselines::horizontal_only()),
            ("Overlapping", baselines::deepsea()),
        ],
        &plans,
    );
    let mut body = String::new();
    let checkpoints = [0usize, 10, 20, 29];
    let mut rows = Vec::new();
    for r in &runs {
        let cum = r.cumulative();
        rows.push(vec![
            r.label.clone(),
            secs(cum[checkpoints[0]]),
            secs(cum[checkpoints[1]]),
            secs(cum[checkpoints[2]]),
            secs(cum[checkpoints[3]]),
        ]);
    }
    body.push_str(&table(
        &["variant", "Q30_1", "Q30_11", "Q30_21", "Q30_30"],
        &rows,
    ));
    body.push_str(
        "\n(cumulative seconds; paper: overlapping stays below horizontal after each shift)\n",
    );
    Run::new(
        "Overlapping partitioning (Q30 ×30, midpoints shift every 10 queries)",
        body,
    )
}

/// Figure 10a/10b: adaptation to a workload change.
pub fn fig10(_scale: Scale) -> Run {
    let catalog = uniform_catalog(InstanceSize::Gb100);
    let plans = fig10_workload(SEED);
    let runs = run_variants(
        &catalog,
        &[
            ("NP", baselines::non_partitioned()),
            ("E-5", baselines::equi_depth(5)),
            ("NR", baselines::no_repartitioning()),
            ("DS", baselines::deepsea()),
        ],
        &plans,
    );
    // (a) elapsed over the post-shift half, Q5_101..200.
    let post = 100..plans.len();
    let items: Vec<(String, f64)> = runs
        .iter()
        .map(|r| {
            (
                r.label.clone(),
                r.per_query[post.clone()].iter().map(|q| q.elapsed).sum(),
            )
        })
        .collect();
    let mut body = String::from("(a) elapsed time, Q5_101..Q5_200\n");
    body.push_str(&bar_chart(&items, "s"));
    // (b) cumulative ratio DS/NR from query 101.
    let nr = &runs[2];
    let ds = &runs[3];
    let mut pts = Vec::new();
    let mut cum_nr = 0.0;
    let mut cum_ds = 0.0;
    for i in 100..plans.len() {
        cum_nr += nr.per_query[i].elapsed;
        cum_ds += ds.per_query[i].elapsed;
        if (i - 100) % 10 == 0 || i == plans.len() - 1 {
            pts.push((i + 1, cum_ds / cum_nr));
        }
    }
    body.push_str("\n(b) cumulative-time ratio DS/NR from Q5_101 (paper: >1 during repartitioning, then amortizes)\n");
    for (q, ratio) in &pts {
        body.push_str(&format!("{q:>8}  {ratio:.3}\n"));
    }
    Run::new(
        "Adaptation to workload changes (Q5 ×200, distribution shift at 100, 100GB)",
        body,
    )
}

/// Ablation study over DeepSea's design choices (DESIGN.md §5): disable one
/// mechanism at a time and run the workload that exercises it.
pub fn ablations(_scale: Scale) -> Run {
    let uniform = uniform_catalog(InstanceSize::Gb100);
    let sdss = sdss_catalog(InstanceSize::Gb100);
    let ds = baselines::deepsea;
    let fig5 = fig5_workload(60, SEED);
    let quarter = sdss.total_base_bytes() / 4;
    // (mechanism, workload, catalog, plans, full DS, DS with the mechanism off)
    let arms = [
        // MLE fragment-correlation smoothing under a tight pool.
        (
            "MLE smoothing",
            "fig8a workload, 7GB pool",
            &uniform,
            fig8a_workload(SEED),
            pooled(ds(), 7_000_000_000),
            pooled(baselines::deepsea_no_mle(), 7_000_000_000),
        ),
        (
            "overlapping fragments",
            "fig9 workload",
            &uniform,
            fig9_workload(SEED),
            ds(),
            baselines::horizontal_only(),
        ),
        (
            "repartitioning",
            "fig10 workload",
            &uniform,
            fig10_workload(SEED),
            ds(),
            baselines::no_repartitioning(),
        ),
        (
            "φ size bound",
            "fig5 workload (60q)",
            &sdss,
            fig5.clone(),
            ds().with_phi(0.05),
            ds(),
        ),
        // DS vs Nectar+ isolates exactly the decay function (§10.1), on the
        // drifting SDSS workload under a bounded pool.
        (
            "benefit decay",
            "fig5 workload, 25% pool",
            &sdss,
            fig5,
            pooled(ds(), quarter),
            pooled(baselines::nectar_plus(), quarter),
        ),
    ];
    let rows: Vec<Vec<String>> = arms
        .iter()
        .map(|(mechanism, workload, catalog, plans, with, without)| {
            let runs = run_variants(catalog, &[("with", *with), ("without", *without)], plans);
            vec![
                mechanism.to_string(),
                secs(runs[0].total_secs()),
                secs(runs[1].total_secs()),
                workload.to_string(),
            ]
        })
        .collect();
    let body = table(&["mechanism", "with (s)", "without (s)", "workload"], &rows);
    Run::new(
        "Design-choice ablations (each mechanism toggled off against full DS)",
        body,
    )
}

/// Table 1 is the parameter grid itself; render it for completeness.
pub fn table1(_scale: Scale) -> Run {
    let body = table(
        &["parameter", "values (default bold)"],
        &[
            vec!["Instance size".into(), "100GB, *500GB*".into()],
            vec!["Pool size".into(), "50GB, 125GB, *250GB*, 500GB, ∞".into()],
            vec![
                "Query selectivity".into(),
                "1% (S), *5% (M)*, 25% (B)".into(),
            ],
            vec!["Query skew".into(), "Uniform, Light, *Heavy*".into()],
        ],
    );
    Run::new("Parameters and their values", body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_report_has_hot_and_cold_buckets() {
        let r = fig1(Scale::Quick);
        assert!(r.body.lines().count() >= 20);
        assert!(r.body.contains('█'));
    }

    #[test]
    fn fig2_shows_shift() {
        let r = fig2(Scale::Quick);
        assert!(r.body.contains("shifts"));
    }

    #[test]
    fn table1_renders() {
        let r = table1(Scale::Quick);
        assert!(r.body.contains("Query skew"));
    }

    #[test]
    fn fig6_quick_ordering() {
        let r = fig6(Scale::Quick);
        // DS row exists and the table has all five variants.
        for v in ["DS", "E-6", "E-15", "E-30", "E-60"] {
            assert!(r.body.contains(v), "missing {v} in:\n{}", r.body);
        }
    }

    #[test]
    fn fig5a_tight_companion_actually_evicts() {
        let run = fig5a(Scale::Quick);
        let bench_json = run.bench_json.expect("fig5a writes BENCH.json");
        // The DS-tight arm must hit the pool cap and run the Φ-ranked
        // eviction path; a cap nobody hits would silently stop guarding it.
        assert!(
            bench_json.contains("\"ds_tight\""),
            "missing ds_tight in:\n{bench_json}"
        );
        let evictions: u64 = bench_json
            .split("\"evictions_selected\":")
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|s| s.parse().ok())
            .expect("evictions_selected present");
        assert!(evictions > 0, "tight Smax should evict:\n{bench_json}");
        assert!(run.body.contains("DS-tight"));
    }

    #[test]
    fn fig5a_bench_json_has_expected_shape() {
        let catalog = uniform_catalog(InstanceSize::Gb100);
        let plans = fig6_workload(SEED);
        let h = run_workload("H", &catalog, baselines::hive(), &plans);
        let ds = run_workload("DS", &catalog, baselines::deepsea(), &plans);
        let smax = catalog.total_base_bytes() / FIG5A_TIGHT_DIVISOR;
        let tight = run_workload(
            "DS-tight",
            &catalog,
            baselines::deepsea().with_smax(smax),
            &plans,
        );
        let json = fig5a_bench_json(Scale::Quick, &[&h, &ds], &ds, &tight, smax);
        for key in [
            "\"experiment\":\"fig5a\"",
            "\"scale\":\"quick\"",
            "\"queries\":10",
            "\"total_secs\"",
            "\"pool_high_water_bytes\"",
            "\"stage_totals\"",
            "\"matching.roots\"",
            "\"durability.snapshots\"",
            "\"ds_tight\"",
            "\"smax_bytes\"",
            "\"evictions_selected\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn fig9_quick_runs() {
        let r = fig9(Scale::Quick);
        assert!(r.body.contains("Overlapping"));
        assert!(r.body.contains("Horizontal"));
    }
}
