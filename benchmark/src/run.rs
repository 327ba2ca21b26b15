//! One run of one workload: set-up timing, the answer oracle, a warm-up
//! pass, measured passes until `--seconds` is used up, the correctness
//! gate, and the metrics.
//!
//! Estimator rules (see README for the evidence behind them):
//! 1. the work of a pass is a function of `(workload, seed)` only — the
//!    clock decides how many passes are measured, never what a pass does;
//! 2. every pass replays the identical op sequence against freshly built
//!    state, and must reproduce the warm-up pass's simulated total and
//!    registry digest bit for bit;
//! 3. wall numbers are per-op minima across passes (`t_i = min_k t_ik`),
//!    so a disturbance has to hit the same op in every pass to show;
//! 4. nothing is normalised by a reference kernel.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use deepsea_core::{baselines, DeepSea, ObsConfig, Observer, QueryOutcome, SnapshotAnswer};
use deepsea_engine::optimize::push_down_selections;
use deepsea_engine::{ClusterSim, LogicalPlan};
use deepsea_obs::TraceForest;
use deepsea_storage::{BlockConfig, SimFs};
use serde::ObjectBuilder;

use crate::report::{Metric, RunReport, Values, END_TO_END, PER_LAYER, TAIL};
use crate::spans::{self, Recorder, Span};
use crate::stats::{median, merge_min, percentile, percentile_ns};
use crate::workload::{backend, build, generate_data, generate_plans, Inputs, Workload};

/// In-process repeats of the whole set-up; `setup_s` is the fastest.
const SETUP_REPEATS: usize = 25;

/// Measured passes a run makes at least, however short `--seconds` is: one
/// of each kind in a traced run.
const MIN_PASSES: usize = 3;

/// Hard cap on measured passes, so a wrong `--seconds` cannot run away.
const MAX_PASSES: usize = 64;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measure passes until this many seconds have been spent on them.
    pub seconds: f64,
    /// Record layer spans and report per-layer metrics.
    pub trace: bool,
    /// Queries per pass: `workload.ops()` except in tests.
    pub ops: usize,
}

impl RunConfig {
    /// A run of `workload` at its fixed size.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            ops: workload.ops(),
        }
    }
}

/// How a pass is instrumented. An untraced run makes only `Plain` passes; a
/// traced run cycles through all three so each is measured under the same
/// conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Plain `SimBackend`, one root span per op.
    Plain,
    /// `TimedBackend` and a span around every call into a layer.
    Traced,
    /// Like `Plain`, with the program's own observer switched on.
    Observed,
}

/// What one pass produced.
#[derive(Default)]
struct Pass {
    spans: Vec<Span>,
    /// Simulated seconds per query (per ticket: client latency).
    sim_series: Vec<f64>,
    sim_total: f64,
    digest: u64,
    pool_high_water: u64,
    failed: u64,
    counts: Values,
    observer: Option<Observer>,
}

impl Pass {
    /// Wall nanoseconds spent inside op spans.
    fn wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == spans::OP)
            .map(Span::duration_ns)
            .sum()
    }
}

/// The per-span minimum over the passes of one kind.
#[derive(Default)]
struct MinPass {
    shape: Vec<Span>,
    ns: Vec<u64>,
    walls_ns: Vec<u64>,
}

impl MinPass {
    fn fold(&mut self, pass: &Pass) {
        if self.shape.is_empty() {
            self.shape = pass.spans.clone();
        } else {
            let key = |s: &Span| (s.name, s.op, s.parent);
            assert!(
                self.shape.iter().map(key).eq(pass.spans.iter().map(key)),
                "passes must record the same span tree"
            );
        }
        let ns: Vec<u64> = pass.spans.iter().map(Span::duration_ns).collect();
        merge_min(&mut self.ns, &ns);
        self.walls_ns.push(pass.wall_ns());
    }

    /// The span tree with every duration replaced by its minimum (spans
    /// start at 0; only durations are meaningful).
    fn spans(&self) -> Vec<Span> {
        self.shape
            .iter()
            .zip(&self.ns)
            .map(|(s, &ns)| Span {
                start_ns: 0,
                end_ns: ns,
                ..s.clone()
            })
            .collect()
    }

    /// Minimum durations of the spans called `name`, in recording order.
    fn of(&self, name: &str) -> Vec<u64> {
        self.shape
            .iter()
            .zip(&self.ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns)
            .collect()
    }

    /// `n / Σ t_i` over the op minima.
    fn queries_per_s(&self, queries: usize) -> f64 {
        let total: u64 = self.of(spans::OP).iter().sum();
        queries as f64 / (total as f64 / 1e9)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn sum_ms(ns: &[u64]) -> f64 {
    ms(ns.iter().sum())
}

fn fingerprint_hash(fingerprint: &[String]) -> u64 {
    let mut h = DefaultHasher::new();
    fingerprint.hash(&mut h);
    h.finish()
}

/// On-CPU nanoseconds of this thread, from `/proc/thread-self/schedstat`.
fn thread_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-repeat set-up times.
struct SetupTimes {
    total_ns: Vec<u64>,
    generate_ns: Vec<u64>,
    plans_ns: Vec<u64>,
}

/// Set up [`SETUP_REPEATS`] times — generate data and plans, build the
/// file system, driver, journal or server, publish the first snapshot —
/// and keep the inputs of the last repeat.
fn time_setup(cfg: &RunConfig) -> (Inputs, SetupTimes) {
    let mut times = SetupTimes {
        total_ns: Vec::new(),
        generate_ns: Vec::new(),
        plans_ns: Vec::new(),
    };
    let rec = Recorder::new(cfg.trace);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let catalog = generate_data(cfg.seed);
        let t1 = Instant::now();
        let plans = generate_plans(cfg.ops, cfg.seed);
        let t2 = Instant::now();
        let inputs = Inputs { catalog, plans };
        let world = build(cfg.workload, &inputs, &rec, None);
        // `ViewServer::new` has already published once for `serve_tail`.
        let first = world.ds.as_ref().map(|ds| ds.publish_snapshot());
        let t3 = Instant::now();
        times.total_ns.push((t3 - t0).as_nanos() as u64);
        times.generate_ns.push((t1 - t0).as_nanos() as u64);
        times.plans_ns.push((t2 - t1).as_nanos() as u64);
        drop((first, world));
        kept = Some(inputs);
    }
    (kept.expect("SETUP_REPEATS > 0"), times)
}

/// The base-table answer of every query, as a fingerprint hash: what the
/// Hive baseline (no views, pushed-down plan on base tables) returns. Built
/// once, outside all timing. Also returns the number of distinct plans and
/// the nanoseconds each `Table::fingerprint` took.
fn oracle(inputs: &Inputs) -> (Vec<u64>, usize, Vec<u64>) {
    let cluster = ClusterSim::paper_default();
    let fs = Arc::new(SimFs::new(BlockConfig::default(), cluster.weights));
    let mut hive = DeepSea::with_parts(Arc::clone(&inputs.catalog), fs, cluster, baselines::hive());
    let mut distinct: Vec<(&LogicalPlan, u64)> = Vec::new();
    let mut fingerprint_ns = Vec::new();
    let hashes = inputs
        .plans
        .iter()
        .map(|plan| {
            if let Some((_, h)) = distinct.iter().find(|(p, _)| *p == plan) {
                return *h;
            }
            let out = hive
                .process_query(plan)
                .expect("the base-table oracle runs on fault-free storage");
            let t0 = Instant::now();
            let fingerprint = out.result.fingerprint();
            fingerprint_ns.push(t0.elapsed().as_nanos() as u64);
            let h = fingerprint_hash(&fingerprint);
            distinct.push((plan, h));
            h
        })
        .collect();
    (hashes, distinct.len(), fingerprint_ns)
}

fn count_read_path(counts: &mut Values, ans: &SnapshotAnswer) {
    let t = &ans.trace;
    counts.add("core.read_path.matching.roots", t.matching.roots as f64);
    counts.add("core.read_path.matching.hits", t.matching.hits as f64);
    counts.add(
        "core.read_path.matching.materialized_hits",
        t.matching.materialized_hits as f64,
    );
    counts.add(
        "core.read_path.rewriting.rewrites_costed",
        t.rewriting.rewrites_costed as f64,
    );
    counts.add(
        "core.read_path.view_hit_ratio",
        f64::from(u8::from(ans.used_view.is_some())),
    );
}

fn count_write_path(counts: &mut Values, out: &QueryOutcome) {
    let t = &out.trace;
    counts.add("engine.exec.bytes_read", out.metrics.bytes_read as f64);
    counts.add("engine.exec.map_tasks", out.metrics.map_tasks as f64);
    for (name, v) in [
        (
            "core.write_path.candidates.new_views",
            t.candidates.new_views as f64,
        ),
        (
            "core.write_path.candidates.new_fragments",
            t.candidates.new_fragments as f64,
        ),
        (
            "core.write_path.selection.considered",
            t.selection.considered as f64,
        ),
        (
            "core.write_path.selection.planned_creations",
            t.selection.planned_creations as f64,
        ),
        (
            "core.write_path.selection.planned_evictions",
            t.selection.planned_evictions as f64,
        ),
        (
            "core.write_path.materialization.bytes_written",
            t.materialization.bytes_written as f64,
        ),
        (
            "core.write_path.materialization.files_written",
            t.materialization.files_written as f64,
        ),
        (
            "core.write_path.materialization.fragments_covered",
            t.materialization.fragments_covered as f64,
        ),
        (
            "core.write_path.eviction.selected",
            t.eviction.selected as f64,
        ),
        (
            "core.write_path.eviction.limit_forced",
            t.eviction.limit_forced as f64,
        ),
        (
            "core.durability.journal_appends",
            t.durability.journal_appends as f64,
        ),
        ("core.durability.snapshots", t.durability.snapshots as f64),
    ] {
        counts.add(name, v);
    }
}

fn count_storage(counts: &mut Values, world: &crate::workload::World, ds: &DeepSea) {
    let ledger = world.fs.ledger();
    let faults = world.fs.fault_stats();
    counts.set("storage.fs.files_read", ledger.files_read as f64);
    counts.set("storage.fs.files_written", ledger.files_written as f64);
    counts.set("storage.fs.files_deleted", ledger.files_deleted as f64);
    counts.set("storage.fs.read_bytes", ledger.read_bytes as f64);
    counts.set("storage.fs.write_bytes", ledger.write_bytes as f64);
    counts.set("storage.fs.hedges_issued", faults.hedges_issued as f64);
    counts.set("storage.fs.hedges_won", faults.hedges_won as f64);
    counts.set("storage.fs.hedge_extra_secs", world.fs.hedge_extra_secs());
    counts.set(
        "storage.pool.violations",
        ds.pool_accountant().violations() as f64,
    );
}

/// One closed-loop pass: per query, answer it from the current snapshot,
/// commit it through the driver, publish the next snapshot — the ticket
/// protocol of `ViewServer`, driven through public calls so each is timed.
fn serial_pass(
    cfg: &RunConfig,
    inputs: &Inputs,
    oracle: &[u64],
    rec: &Recorder,
    obs: Option<Observer>,
) -> Pass {
    let mut world = build(cfg.workload, inputs, rec, obs.clone());
    let mut ds = world.ds.take().expect("serial workloads keep the driver");
    let smax = world.config.smax;
    let mut snapshot = ds
        .publish_snapshot()
        .expect("the simulated backend forks readers");
    let mut pass = Pass {
        observer: obs,
        ..Pass::default()
    };
    for (i, plan) in inputs.plans.iter().enumerate() {
        let (ans, out) = rec.time_op(i as u32, || {
            let ans = rec.time(spans::ANSWER, || snapshot.answer(plan));
            let out = rec.time(spans::COMMIT, || ds.process_query(plan));
            let next = rec
                .time(spans::PUBLISH, || ds.publish_snapshot())
                .expect("a backend that forked once forks again");
            let old = std::mem::replace(&mut snapshot, next);
            rec.time(spans::DROP, || drop(old));
            (ans, out)
        });
        // Checks run between ops, outside every span.
        let pool = ds.pool_bytes();
        pass.pool_high_water = pass.pool_high_water.max(pool);
        let mut ok = smax.is_none_or(|limit| pool <= limit);
        match (&ans, &out) {
            (Ok(ans), Ok(out)) => {
                ok &= fingerprint_hash(&ans.result.fingerprint()) == oracle[i]
                    && fingerprint_hash(&out.result.fingerprint()) == oracle[i];
                count_read_path(&mut pass.counts, ans);
                count_write_path(&mut pass.counts, out);
                pass.sim_series.push(out.elapsed_secs);
            }
            _ => {
                ok = false;
                pass.sim_series.push(0.0);
            }
        }
        pass.failed += u64::from(!ok);
    }
    pass.sim_total = pass.sim_series.iter().sum();
    pass.digest = ds.registry().state_digest();
    count_storage(&mut pass.counts, &world, &ds);

    // `sdss_churn` ends with a cold start from the journal, which must
    // arrive at the live catalog. Statistics are journaled as a checkpoint
    // every `journal_checkpoint_every` queries, so the digests can only
    // agree when the pass ends on a checkpoint.
    if let Some(journal) = &world.journal {
        assert_eq!(
            inputs.plans.len() as u64 % world.config.journal_checkpoint_every,
            0,
            "a journaled pass must end on a statistics checkpoint"
        );
        let (recovered, fsck) = rec.time(spans::RECOVER, || {
            DeepSea::recover(
                Arc::clone(&inputs.catalog),
                Arc::clone(&world.fs),
                backend(rec),
                world.config,
                Arc::clone(journal),
            )
        });
        pass.counts.set(
            "core.durability.replayed_records",
            fsck.replayed_records as f64,
        );
        let same = recovered.registry().state_digest() == pass.digest
            && recovered.pool_bytes() == ds.pool_bytes();
        pass.failed += u64::from(!same);
    }
    pass.spans = rec.drain();
    pass
}

/// One open-loop pass: every ticket through one `ViewServer::run`.
fn serve_pass(
    cfg: &RunConfig,
    inputs: &Inputs,
    oracle: &[u64],
    rec: &Recorder,
    obs: Option<Observer>,
) -> Pass {
    let mut world = build(cfg.workload, inputs, rec, obs.clone());
    let mut server = world.server.take().expect("serve_tail builds a server");
    let mut pass = Pass {
        observer: obs,
        ..Pass::default()
    };
    let served = rec.time_op(0, || rec.time(spans::SERVE, || server.run(&inputs.plans)));
    pass.spans = rec.drain();
    let ds = server.driver();
    pass.pool_high_water = ds.pool_bytes();
    count_storage(&mut pass.counts, &world, ds);
    let Ok(report) = served else {
        pass.failed = inputs.plans.len() as u64;
        return pass;
    };
    for r in &report.records {
        // A shed ticket is served from a stale snapshot at its deadline and
        // must still carry the exact answer; only a refusal or a wrong
        // answer fails.
        let refused = r.shed.is_some_and(|(policy, _)| policy == "reject");
        let ok = !refused
            && r.read_fingerprint == r.committed_fingerprint
            && fingerprint_hash(&r.committed_fingerprint) == oracle[r.ticket];
        pass.failed += u64::from(!ok);
        pass.counts.add(
            "core.read_path.view_hit_ratio",
            f64::from(u8::from(r.read_used_view.is_some())),
        );
    }
    pass.sim_series = report.latencies_secs();
    pass.sim_total = report.committed_query_secs().iter().sum();
    pass.digest = report.state_digest;
    let c = &mut pass.counts;
    c.set("core.server.shed_reads", report.shed_reads as f64);
    c.set("core.server.divergent_reads", report.divergent_reads as f64);
    c.set("core.server.degraded_reads", report.degraded_reads as f64);
    c.set("core.server.max_epoch_lag", report.max_epoch_lag as f64);
    pass
}

fn run_pass(cfg: &RunConfig, inputs: &Inputs, oracle: &[u64], kind: Kind) -> Pass {
    let rec = Recorder::new(kind == Kind::Traced);
    let obs = (kind == Kind::Observed).then(|| Observer::new(ObsConfig::on()));
    if cfg.workload.served() {
        serve_pass(cfg, inputs, oracle, &rec, obs)
    } else {
        serial_pass(cfg, inputs, oracle, &rec, obs)
    }
}

/// Run one workload and report.
///
/// Returns the report and, for a traced run, the spans of every traced
/// pass as JSONL.
pub fn run(cfg: &RunConfig) -> (RunReport, String) {
    let (inputs, setup) = time_setup(cfg);
    let (oracle, distinct_plans, fingerprint_ns) = oracle(&inputs);

    // Warm-up: fills caches and allocator pools, and fixes the trajectory
    // every measured pass must reproduce.
    let reference = run_pass(cfg, &inputs, &oracle, Kind::Plain);

    let kinds: &[Kind] = if cfg.trace {
        &[Kind::Traced, Kind::Plain, Kind::Observed]
    } else {
        &[Kind::Plain]
    };
    let mut plain = MinPass::default();
    let mut traced = MinPass::default();
    let mut observed = MinPass::default();
    let mut jsonl = String::new();
    let mut last_traced: Option<Pass> = None;
    let (mut forest_ms, mut prom_ms) = (f64::INFINITY, f64::INFINITY);
    let (mut obs_spans, mut obs_events) = (0usize, 0usize);
    let (mut passes, mut attempted, mut failed, mut breaks) = (0usize, 0u64, 0u64, 0u64);
    let mut same_trajectory = true;
    let mut coverage = 0.0f64;

    let cpu0 = thread_cpu_ns();
    let started = Instant::now();
    while passes < MAX_PASSES
        && (passes < MIN_PASSES || started.elapsed().as_secs_f64() < cfg.seconds)
    {
        let kind = kinds[passes % kinds.len()];
        let pass = run_pass(cfg, &inputs, &oracle, kind);
        passes += 1;
        attempted += cfg.ops as u64;
        failed += pass.failed;
        let repeats = pass.sim_total.to_bits() == reference.sim_total.to_bits()
            && pass.digest == reference.digest
            && pass.pool_high_water == reference.pool_high_water;
        breaks += u64::from(!repeats);
        match kind {
            Kind::Plain => plain.fold(&pass),
            Kind::Traced => {
                same_trajectory &= repeats;
                traced.fold(&pass);
                // The best pass: a preemption between two child spans is
                // the box's doing, not a gap in the instrumentation.
                coverage = coverage.max(spans::coverage_min(&pass.spans));
                spans::to_jsonl(passes, &pass.spans, &mut jsonl);
                last_traced = Some(pass);
            }
            Kind::Observed => {
                observed.fold(&pass);
                let obs = pass.observer.as_ref().expect("observed pass has one");
                let t0 = Instant::now();
                let logged = obs.spans_snapshot();
                std::hint::black_box(TraceForest::from_spans(&logged));
                forest_ms = forest_ms.min(ms(t0.elapsed().as_nanos() as u64));
                let t1 = Instant::now();
                std::hint::black_box(obs.render_prometheus());
                prom_ms = prom_ms.min(ms(t1.elapsed().as_nanos() as u64));
                obs_spans = logged.len();
                obs_events = obs.events_snapshot().len();
            }
        }
    }
    let measured_wall_ns = started.elapsed().as_nanos() as u64;
    let cpu_wall_ratio = match (cpu0, thread_cpu_ns()) {
        (Some(a), Some(b)) => (b - a) as f64 / measured_wall_ns as f64,
        _ => 0.0,
    };

    // A warm-up failure is a failure of the run even though its ops are not
    // among the attempted ones; so is a pass that left the trajectory.
    let failed = failed + reference.failed + breaks;

    let t = plain.of(spans::OP);
    let t_f64: Vec<f64> = t.iter().map(|&ns| ns as f64).collect();
    let qps = plain.queries_per_s(cfg.ops);
    let mut sorted_walls = plain.walls_ns.clone();
    sorted_walls.sort_unstable();
    let pass_spread_ratio = sorted_walls
        .get(sorted_walls.len() / 2)
        .map_or(0.0, |&m| m as f64 / sorted_walls[0] as f64);
    let converged = sorted_walls.len() >= 2
        && (sorted_walls[1] - sorted_walls[0]) as f64 <= 0.02 * sorted_walls[0] as f64;
    let base_bytes = inputs.catalog.total_base_bytes();
    let setup_f64: Vec<f64> = setup.total_ns.iter().map(|&ns| ns as f64).collect();

    // `ViewServer::run` cannot be timed per ticket from outside, so
    // `serve_tail` reports its mean wall per ticket at every percentile.
    let wall_ms_per_query = |p: f64| -> f64 {
        if cfg.workload.served() {
            1e3 / qps
        } else {
            percentile(&t_f64, p) / 1e6
        }
    };

    let mut v = Values::default();
    if !cfg.trace {
        // The fastest repeat, like every other wall number here: the median
        // of 25 flipped between 10.7 and 17.9 ms from run to run on the
        // reference box while the fastest stayed within 10.2–12.6 ms.
        v.set(
            "setup_s",
            *setup.total_ns.iter().min().expect("repeats") as f64 / 1e9,
        );
        v.set("queries_per_s", qps);
        v.set("sim_total_s", reference.sim_total);
        v.set("sim_latency_s_p50", percentile(&reference.sim_series, 0.5));
        v.set("sim_latency_s_p90", percentile(&reference.sim_series, TAIL));
        v.set(
            "stored_bytes_per_base_byte",
            (base_bytes + reference.pool_high_water) as f64 / base_bytes as f64,
        );
        v.set("peak_rss_mb", peak_rss_mb());
        v.set("wall_ms_per_query_p50", wall_ms_per_query(0.5));
    } else {
        let last = last_traced.expect("a traced run makes a traced pass");
        layer_metrics(cfg, &inputs, &traced, &last, &mut v);
        v.set(
            "workload.generate_ms",
            ms(*setup.generate_ns.iter().min().expect("repeats")),
        );
        v.set(
            "workload.plans_ms",
            ms(*setup.plans_ns.iter().min().expect("repeats")),
        );
        v.set("workload.distinct_plans", distinct_plans as f64);
        v.set(
            "relation.fingerprint_us_p50",
            us(percentile_ns(&fingerprint_ns, 0.5)),
        );
        v.set(
            "obs.on_overhead_ratio",
            qps / observed.queries_per_s(cfg.ops),
        );
        v.set("obs.trace_forest_build_ms", forest_ms);
        v.set("obs.prometheus_render_ms", prom_ms);
        v.set("obs.spans_recorded", obs_spans as f64);
        v.set("obs.events_recorded", obs_events as f64);
        // Reported, not gated: the slowest tenth of the queries is what a
        // slow phase of the host hits hardest (+30 % on `base_scan` where
        // the median moved +14 %), too much for any allowed bound.
        v.set("bench.wall_ms_per_query_p90", wall_ms_per_query(TAIL));
        v.set(
            "bench.trace_overhead_ratio",
            traced.queries_per_s(cfg.ops) / qps,
        );
        v.set("bench.span_coverage_min", coverage);
        v.set("bench.pass_spread_ratio", pass_spread_ratio);
        v.set("bench.cpu_wall_ratio", cpu_wall_ratio);
        v.set("bench.passes_run", passes as f64);
        v.set(
            "bench.same_trajectory",
            f64::from(u8::from(same_trajectory)),
        );
    }
    let metrics: Vec<Metric> = v.collect(if cfg.trace { PER_LAYER } else { END_TO_END });

    let walls_ms = |m: &MinPass| -> Vec<f64> { m.walls_ns.iter().map(|&ns| ms(ns)).collect() };
    let detail = ObjectBuilder::new()
        .field("workload", cfg.workload.name())
        .field("seed", cfg.seed)
        .field("ops_per_pass", cfg.ops)
        .field("passes", passes)
        .field("plain_pass_wall_ms", walls_ms(&plain))
        .field("traced_pass_wall_ms", walls_ms(&traced))
        .field("observed_pass_wall_ms", walls_ms(&observed))
        .field("two_fastest_within_2pct", converged)
        .field("pass_spread_ratio", pass_spread_ratio)
        .field("cpu_wall_ratio", cpu_wall_ratio)
        .field("plain_op_min_ms_sum", sum_ms(&t))
        .field("traced_op_min_ms_sum", sum_ms(&traced.of(spans::OP)))
        .field("op_min_ms_p25", percentile(&t_f64, 0.25) / 1e6)
        .field("op_min_ms_p50", percentile(&t_f64, 0.5) / 1e6)
        .field("op_min_ms_p75", percentile(&t_f64, 0.75) / 1e6)
        .field("op_min_ms_p90", percentile(&t_f64, TAIL) / 1e6)
        .field("setup_ms_p50", median(&setup_f64) / 1e6)
        .field("setup_ms_p75", percentile(&setup_f64, 0.75) / 1e6)
        .field("sim_total_s", reference.sim_total)
        .field("state_digest", format!("{:016x}", reference.digest))
        .field("shed_reads", reference.counts.get("core.server.shed_reads"))
        .field("warmup_failed", reference.failed)
        .field("passes_off_trajectory", breaks)
        .build();

    let report = RunReport {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    };
    (report, jsonl)
}

/// Per-layer times from the traced minimum pass, per-layer counts from the
/// last traced pass (counts repeat exactly, so any pass will do).
fn layer_metrics(cfg: &RunConfig, inputs: &Inputs, traced: &MinPass, last: &Pass, v: &mut Values) {
    // Counts first; every name a workload does not touch stays 0.
    for (name, _) in PER_LAYER {
        v.set(name, last.counts.get(name));
    }
    v.set(
        "core.read_path.view_hit_ratio",
        last.counts.get("core.read_path.view_hit_ratio") / cfg.ops as f64,
    );
    let creations = last
        .counts
        .get("core.write_path.selection.planned_creations");
    v.set(
        "core.write_path.selection.considered_per_creation",
        if creations > 0.0 {
            last.counts.get("core.write_path.selection.considered") / creations
        } else {
            0.0
        },
    );
    v.set("storage.pool.high_water_bytes", last.pool_high_water as f64);

    let merged = traced.spans();
    let own = spans::self_times_ns(&merged);
    let self_ms = |name: &str| -> f64 {
        merged
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(own[s.id as usize]))
            .sum()
    };

    let exec = traced.of(spans::EXECUTE);
    v.set("engine.execute_calls", exec.len() as f64);
    v.set("engine.execute_ms_sum", sum_ms(&exec));
    v.set("engine.execute_ms_p50", percentile_ns(&exec, 0.5) / 1e6);
    v.set("engine.execute_ms_p90", percentile_ns(&exec, TAIL) / 1e6);
    let optimize_ns: Vec<u64> = inputs
        .plans
        .iter()
        .map(|plan| {
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(push_down_selections(plan, &inputs.catalog));
                    t0.elapsed().as_nanos() as u64
                })
                .min()
                .expect("three repeats")
        })
        .collect();
    v.set(
        "engine.optimize_us_p50",
        us(percentile_ns(&optimize_ns, 0.5)),
    );

    let answer = traced.of(spans::ANSWER);
    v.set("core.read_path.answer_ms_sum", sum_ms(&answer));
    v.set(
        "core.read_path.answer_ms_p50",
        percentile_ns(&answer, 0.5) / 1e6,
    );
    v.set(
        "core.read_path.answer_ms_p90",
        percentile_ns(&answer, TAIL) / 1e6,
    );
    v.set("core.read_path.self_ms_sum", self_ms(spans::ANSWER));

    let commit = traced.of(spans::COMMIT);
    v.set("core.write_path.commit_ms_sum", sum_ms(&commit));
    v.set(
        "core.write_path.commit_ms_p50",
        percentile_ns(&commit, 0.5) / 1e6,
    );
    v.set(
        "core.write_path.commit_ms_p90",
        percentile_ns(&commit, TAIL) / 1e6,
    );
    v.set(
        "core.write_path.commit_ms_max",
        percentile_ns(&commit, 1.0) / 1e6,
    );
    v.set("core.write_path.self_ms_sum", self_ms(spans::COMMIT));

    let publish = traced.of(spans::PUBLISH);
    v.set("core.snapshot.publish_ms_sum", sum_ms(&publish));
    v.set(
        "core.snapshot.publish_us_p50",
        us(percentile_ns(&publish, 0.5)),
    );
    v.set(
        "core.snapshot.publish_us_p90",
        us(percentile_ns(&publish, TAIL)),
    );
    v.set(
        "core.snapshot.publish_us_final",
        us(publish.last().copied().unwrap_or(0) as f64),
    );
    v.set(
        "core.snapshot.drop_us_p50",
        us(percentile_ns(&traced.of(spans::DROP), 0.5)),
    );

    v.set(
        "core.durability.recover_ms",
        sum_ms(&traced.of(spans::RECOVER)),
    );
    v.set("core.server.run_ms", sum_ms(&traced.of(spans::SERVE)));
    v.set("core.server.overhead_ms_sum", self_ms(spans::SERVE));
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// Twenty queries: a multiple of the journal's checkpoint cadence, as
    /// the recovery check needs.
    fn tiny(workload: Workload, trace: bool) -> RunConfig {
        RunConfig {
            ops: 20,
            ..RunConfig::new(workload, 42, 0.0, trace)
        }
    }

    #[test]
    fn every_workload_runs_correct_and_prints_the_promised_names() {
        for workload in Workload::ALL {
            for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
                let (report, jsonl) = run(&tiny(workload, trace));
                assert!(report.correct, "{} trace={trace}", workload.name());
                assert_eq!(report.failed, 0);
                assert_eq!(report.attempted, 20 * MIN_PASSES as u64);
                let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
                let promised: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
                assert_eq!(names, promised);
                assert_eq!(jsonl.is_empty(), !trace);
                if !trace {
                    assert!(
                        report.metrics.iter().all(|m| m.value > 0.0),
                        "end-to-end metrics are never 0: {:?}",
                        report.metrics
                    );
                }
            }
        }
    }

    #[test]
    fn simulated_metrics_repeat_bit_for_bit_and_follow_the_seed() {
        let sim = |seed: u64| -> Vec<u64> {
            let cfg = RunConfig {
                seed,
                ..tiny(Workload::SdssChurn, false)
            };
            run(&cfg)
                .0
                .metrics
                .iter()
                .filter(|m| m.unit == "sim_s" || m.unit == "ratio")
                .map(|m| m.value.to_bits())
                .collect()
        };
        assert_eq!(sim(42), sim(42));
        assert_ne!(sim(42), sim(7));
    }

    #[test]
    fn traced_run_is_transparent_and_covers_the_op() {
        let (report, jsonl) = run(&tiny(Workload::SdssSteady, true));
        let get = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name}"))
                .value
        };
        assert_eq!(get("bench.same_trajectory"), 1.0);
        assert!(get("bench.span_coverage_min") > 0.9);
        assert!(get("engine.execute_calls") >= 40.0);
        assert_eq!(get("core.server.overhead_ms_sum"), 0.0);
        // Self times never exceed the inclusive time they are part of.
        assert!(get("core.read_path.self_ms_sum") <= get("core.read_path.answer_ms_sum"));
        let first = serde::from_str(jsonl.lines().next().expect("spans")).expect("JSON");
        assert_eq!(first.get("name").and_then(Value::as_str), Some(spans::OP));
    }

    #[test]
    fn a_wrong_oracle_fails_the_ops() {
        let cfg = tiny(Workload::BaseScan, false);
        let inputs = Inputs {
            catalog: generate_data(cfg.seed),
            plans: generate_plans(cfg.ops, cfg.seed),
        };
        let (mut hashes, _, _) = oracle(&inputs);
        let good = run_pass(&cfg, &inputs, &hashes, Kind::Plain);
        assert_eq!(good.failed, 0);
        hashes[3] ^= 1;
        let bad = run_pass(&cfg, &inputs, &hashes, Kind::Plain);
        assert_eq!(bad.failed, 1);
    }
}
