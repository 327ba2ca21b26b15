//! The serving scenarios: the fig5 workload served to concurrent clients
//! through [`ViewServer`], under three kinds of stress.
//!
//! - [`pressure`] — eviction pressure: a tight `Smax` keeps the writer
//!   materializing and evicting, so snapshot readers routinely race epoch
//!   churn — the regime where client-visible latency separates from the
//!   writer's serialized pipeline.
//! - [`node_failure`] — the same squeeze on a sharded FS under a rolling
//!   one-node outage, at replication 1 and 2.
//! - [`overload`] — rolling gray slowness with deadlines, a bounded queue
//!   and stale-serving shedding, hedged replica reads off vs on.
//!
//! Each is a [`Scenario`] value handed to the one world builder, [`serve`],
//! plus the table and `BENCH_*.json` document it renders from the result.

use std::sync::Arc;

use deepsea_core::{
    baselines, ClientRecord, DeepSea, NodeAction, ObsConfig, Observer, ServeReport, ServerConfig,
    ShedPolicy, ViewServer,
};
use deepsea_engine::ClusterSim;
use deepsea_obs::MetricsRegistry;
use deepsea_storage::{
    BlockConfig, FaultInjector, FaultStats, HedgeConfig, NodeConfig, NodeSet, SimFs,
};
use serde::ObjectBuilder;

use crate::experiments::{bench_head, sdss_catalog, Run, Scale};
use crate::report::{secs, table};

/// Divisor applied to the catalog's base bytes to get the tight pool
/// limit: small enough that the knapsack is forced to evict throughout
/// the run, matching the DS-tight variant of the concurrency suite.
const TIGHT_SMAX_DIVISOR: u64 = 40;

/// Logical clients hammering the server in every scenario.
const PRESSURE_CLIENTS: usize = 4;

/// Seed for the scheduler's arrival/interleaving LCG.
const PRESSURE_SEED: u64 = 42;

/// Mean open-loop inter-arrival gap in simulated seconds — short enough
/// that reads overlap commits and each other.
const PRESSURE_GAP_SECS: f64 = 5.0;

/// Datanodes in the sharded scenarios' simulated cluster.
const NODE_FAILURE_NODES: u32 = 4;

/// Commits each node spends down in the rolling outage (one node is down at
/// any time; the outage hops to the next node every window).
const NODE_OUTAGE_WINDOW: usize = 5;

/// Commits each gray-slow window lasts in the overload scenario (the
/// slowness hops to the next node every window, like the rolling outage).
const OVERLOAD_SLOW_WINDOW: usize = 5;

/// Latency multiplier a gray-failed node serves reads at.
const OVERLOAD_SLOW_MULT: f64 = 8.0;

/// Mean client think time between queries in the overload scenario. Wider
/// than the eviction-pressure gap so the scenario sits at moderate overload
/// — enough queueing that deadlines bite, not so much that nearly every
/// ticket sheds.
const OVERLOAD_GAP_SECS: f64 = 30.0;

/// Mean per-ticket deadline (simulated seconds after arrival) for the
/// deadline-aware shedder. Calibrated so gray-failure-amplified reads blow
/// their deadlines (the hedging-off arm sheds heavily) while hedged reads
/// comfortably make them — the headline is that hedging turns deadline
/// misses back into served answers.
const OVERLOAD_DEADLINE_SECS: f64 = 400.0;

/// Bounded admission queue depth for the overload scenario.
const OVERLOAD_QUEUE: usize = 6;

/// Hedge threshold: a primary view read projected past this many simulated
/// seconds races the next live replica. Sits above a healthy per-file read
/// but far below one amplified [`OVERLOAD_SLOW_MULT`]×, so hedges fire on
/// gray-failed nodes and stay bit-transparent on healthy ones.
const OVERLOAD_HEDGE_AFTER_SECS: f64 = 1.0;

/// The sharded file system of a scenario and what happens to its nodes.
#[derive(Clone, Copy)]
struct Cluster {
    nodes: u32,
    replication: u32,
    /// Rolling one-node outage hopping every this many commits.
    outage_window: Option<usize>,
    /// Rolling gray slowness: `(window in commits, latency multiplier)`.
    slow: Option<(usize, f64)>,
    /// Hedged replica reads past this many simulated seconds.
    hedge_after_secs: Option<f64>,
}

/// Everything that distinguishes one serving scenario's world from
/// another's. Workload (fig5), client count and seed are common to all.
#[derive(Clone, Copy)]
struct Scenario {
    /// Pool limit as a divisor of the base-table bytes; `None` = unlimited.
    pool_divisor: Option<u64>,
    /// `None` = the unsharded file system.
    cluster: Option<Cluster>,
    deadline_secs: Option<f64>,
    max_queue: Option<usize>,
    shed_policy: ShedPolicy,
    mean_gap_secs: f64,
}

/// Eviction pressure: tight pool, unsharded, nothing shed.
const PRESSURE: Scenario = Scenario {
    pool_divisor: Some(TIGHT_SMAX_DIVISOR),
    cluster: None,
    deadline_secs: None,
    max_queue: None,
    shed_policy: ShedPolicy::Reject,
    mean_gap_secs: PRESSURE_GAP_SECS,
};

/// The pressure world on a sharded FS under a rolling one-node outage.
fn node_failure_scenario(replication: u32) -> Scenario {
    Scenario {
        cluster: Some(Cluster {
            nodes: NODE_FAILURE_NODES,
            replication,
            outage_window: Some(NODE_OUTAGE_WINDOW),
            slow: None,
            hedge_after_secs: None,
        }),
        ..PRESSURE
    }
}

/// One arm of the overload scenario: hedging on or off, everything else
/// (workload, schedule, seed, shedding policy) held identical.
fn overload_scenario(hedging: bool) -> Scenario {
    Scenario {
        // Unlimited pool: the more reads are view-backed, the more surface
        // the rolling gray slowness (and therefore hedging) actually touches.
        pool_divisor: None,
        cluster: Some(Cluster {
            nodes: NODE_FAILURE_NODES,
            replication: 2,
            outage_window: None,
            slow: Some((OVERLOAD_SLOW_WINDOW, OVERLOAD_SLOW_MULT)),
            hedge_after_secs: hedging.then_some(OVERLOAD_HEDGE_AFTER_SECS),
        }),
        deadline_secs: Some(OVERLOAD_DEADLINE_SECS),
        max_queue: Some(OVERLOAD_QUEUE),
        shed_policy: ShedPolicy::ServeStale,
        mean_gap_secs: OVERLOAD_GAP_SECS,
    }
}

/// The rolling one-node-at-a-time schedule over `n` commits: node
/// `w % nodes` gets `on` at commit `w * window` and `off` at commit
/// `(w + 1) * window`, where the next node's turn begins. The `off` precedes
/// the `on` at each boundary, so exactly one node is affected at any instant.
fn rolling<A: Copy>(n: usize, window: usize, nodes: u32, on: A, off: A) -> Vec<(usize, u32, A)> {
    let node = |w: usize| (w % nodes as usize) as u32;
    let mut schedule = Vec::new();
    for w in 0..n.div_ceil(window) {
        if w > 0 {
            schedule.push((w * window, node(w - 1), off));
        }
        schedule.push((w * window, node(w), on));
    }
    schedule
}

/// One served scenario: the server's report plus what the tables read off
/// the observer and the file system afterwards.
struct Served {
    report: ServeReport,
    observer: Observer,
    metrics: MetricsRegistry,
    queries: usize,
    smax: Option<u64>,
    fault_stats: FaultStats,
    hedge_extra_secs: f64,
}

/// Build the scenario's world — catalog, file system, driver, server — and
/// serve the fig5 workload through it, the instance and the query log
/// generated from `seed`.
fn serve(sc: &Scenario, scale: Scale, seed: u64) -> Served {
    let catalog = sdss_catalog(scale.instance(), seed);
    let plans = deepsea_workload::sequences::fig5_workload(scale.fig5_queries(), seed);
    let smax = sc.pool_divisor.map(|d| catalog.total_base_bytes() / d);
    let mut config = baselines::deepsea().with_phi(0.05);
    if let Some(smax) = smax {
        config = config.with_smax(smax);
    }

    let observer = Observer::new(ObsConfig::on());
    let cluster = ClusterSim::paper_default();
    let (block, weights) = (BlockConfig::default(), cluster.weights);
    let mut server_config = ServerConfig {
        clients: PRESSURE_CLIENTS,
        seed: PRESSURE_SEED,
        mean_gap_secs: sc.mean_gap_secs,
        deadline_secs: sc.deadline_secs,
        max_queue: sc.max_queue,
        shed_policy: sc.shed_policy,
        ..ServerConfig::default()
    };
    let fs = match sc.cluster {
        None => SimFs::new(block, weights),
        Some(c) => {
            let n = plans.len();
            if let Some(window) = c.outage_window {
                server_config.node_schedule =
                    rolling(n, window, c.nodes, NodeAction::Down, NodeAction::Up);
            }
            if let Some((window, mult)) = c.slow {
                server_config.slow_schedule = rolling(n, window, c.nodes, mult, 1.0);
            }
            let nodes = NodeSet::new(NodeConfig::new(c.nodes, c.replication));
            let fs = SimFs::with_cluster(block, weights, FaultInjector::disabled(), nodes);
            fs.set_hedge(c.hedge_after_secs.map(HedgeConfig::after_secs));
            fs
        }
    };
    let fs = Arc::new(fs);
    let ds = DeepSea::with_parts(Arc::clone(&catalog), Arc::clone(&fs), cluster, config)
        .with_observer(observer.clone());
    let report = ViewServer::new(ds, server_config)
        .run(&plans)
        .unwrap_or_else(|e| panic!("serving scenario failed: {e}"));
    Served {
        report,
        metrics: observer.metrics_snapshot(),
        observer,
        queries: plans.len(),
        smax,
        fault_stats: fs.fault_stats(),
        hedge_extra_secs: fs.hedge_extra_secs(),
    }
}

impl Served {
    /// Client latency (p50, p95, p99) from the observer's histogram —
    /// bucket-quantized — overall or for one `clientK` label.
    fn histogram_percentiles(&self, client: Option<&str>) -> Option<(f64, f64, f64)> {
        self.metrics
            .histogram("deepsea_client_latency_secs", client)
            .and_then(|h| h.percentiles())
    }

    /// Exact nearest-rank (p50, p95, p99) over every client-visible latency
    /// (shed tickets included — a rejection is an answer too), for where
    /// the histogram's power-of-two buckets are too coarse.
    fn ticket_percentiles(&self) -> (f64, f64, f64) {
        let p = |q| self.report.latency_percentile(q);
        (p(0.50), p(0.95), p(0.99))
    }

    fn commits(&self) -> u64 {
        self.metrics.counter("deepsea_server_commits_total", None)
    }

    /// Correctness audit: every answer actually handed to a client (served
    /// or stale-shed; rejects hand back nothing) must equal the committed
    /// one. Rewritings, hedged replica reads and degraded modes are all
    /// semantically transparent, so this count must be zero.
    fn incorrect_answers(&self) -> u64 {
        self.report
            .records
            .iter()
            .filter(|r| {
                !r.read_fingerprint.is_empty() && r.read_fingerprint != r.committed_fingerprint
            })
            .count() as u64
    }

    /// The ticket behind the exact p99; its causal trace id is `ticket + 1`.
    fn p99_exemplar(&self) -> &ClientRecord {
        self.report
            .percentile_exemplar(0.99)
            .expect("invariant: a scenario serves at least one ticket")
    }
}

/// The leading cells of a latency table row: label, p50, p95, p99.
fn percentile_row(label: String, (p50, p95, p99): (f64, f64, f64)) -> Vec<String> {
    vec![label, secs(p50), secs(p95), secs(p99)]
}

/// The `p50_secs` / `p95_secs` / `p99_secs` leaves of a `BENCH_*.json` arm.
fn percentile_fields(obj: ObjectBuilder, (p50, p95, p99): (f64, f64, f64)) -> ObjectBuilder {
    obj.field("p50_secs", p50)
        .field("p95_secs", p95)
        .field("p99_secs", p99)
}

/// The leaves every arm ends with: commit count, makespan, state digest.
fn outcome_fields(obj: ObjectBuilder, s: &Served) -> ObjectBuilder {
    obj.field("commits", s.commits())
        .field("makespan_secs", s.report.makespan_secs)
        .field("state_digest", s.report.state_digest)
}

/// The tail linkage: the ticket (and causal trace) behind the exact p99 and
/// the number of occupied latency buckets.
fn exemplar_fields(obj: ObjectBuilder, s: &Served) -> ObjectBuilder {
    let ex = s.p99_exemplar();
    obj.field(
        "p99_exemplar",
        ObjectBuilder::new()
            .field("ticket", ex.ticket as u64)
            .field("trace_id", ex.ticket as u64 + 1)
            .field("latency_secs", ex.latency_secs)
            .build(),
    )
    .field("tail_buckets", s.report.latency_exemplars().len() as u64)
}

/// The scheduler parameters every `BENCH_*.json` carries.
fn scheduler_fields(obj: ObjectBuilder, mean_gap_secs: f64) -> ObjectBuilder {
    obj.field("clients", PRESSURE_CLIENTS as u64)
        .field("seed", PRESSURE_SEED)
        .field("mean_gap_secs", mean_gap_secs)
}

/// Run the eviction-pressure serving scenario: client latency percentiles
/// (overall and per client) straight from the observer's histograms, plus
/// the epoch-lag and divergence counters the serving layer emits.
pub fn pressure(scale: Scale, seed: u64) -> Run {
    let served = serve(&PRESSURE, scale, seed);
    let overall = served
        .histogram_percentiles(None)
        .unwrap_or((0.0, 0.0, 0.0));

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut clients_json = ObjectBuilder::new();
    for k in 0..PRESSURE_CLIENTS {
        let label = format!("client{k}");
        if let Some(p) = served.histogram_percentiles(Some(&label)) {
            rows.push(percentile_row(label.clone(), p));
            clients_json =
                clients_json.field(&label, percentile_fields(ObjectBuilder::new(), p).build());
        }
    }
    rows.push(percentile_row("all".to_string(), overall));

    let commits = served.commits();
    let divergent = served
        .metrics
        .counter("deepsea_server_divergent_reads_total", None);
    let p99_ex = served.p99_exemplar();
    let tail_buckets = served.report.latency_exemplars().len();

    let mut body = table(&["client", "p50", "p95", "p99"], &rows);
    body.push_str(&format!(
        "\npool limit Smax = base/{TIGHT_SMAX_DIVISOR}; {PRESSURE_CLIENTS} clients, \
         mean gap {PRESSURE_GAP_SECS}s, seed {PRESSURE_SEED}\n\
         commits: {commits}   divergent reads: {divergent}   \
         max epoch lag: {}   makespan: {}\n\
         p99 exemplar: ticket {} (trace {}, {}); {tail_buckets} occupied latency buckets\n",
        served.report.max_epoch_lag,
        secs(served.report.makespan_secs),
        p99_ex.ticket,
        p99_ex.ticket as u64 + 1,
        secs(p99_ex.latency_secs),
    ));

    let bench = scheduler_fields(
        bench_head("pressure", scale, served.queries),
        PRESSURE_GAP_SECS,
    )
    .field("smax_bytes", served.smax)
    .field(
        "latency_secs",
        ObjectBuilder::new()
            .field("p50", overall.0)
            .field("p95", overall.1)
            .field("p99", overall.2)
            .field("per_client", clients_json.build())
            .build(),
    )
    .field("commits", commits)
    .field("divergent_reads", divergent)
    .field("max_epoch_lag", served.report.max_epoch_lag)
    .field("makespan_secs", served.report.makespan_secs)
    .field("state_digest", served.report.state_digest);
    let bench_json = exemplar_fields(bench, &served).build().to_json();

    Run::new(
        &format!(
            "Eviction pressure under concurrency ({} queries, {} clients, Smax = base/{})",
            served.queries, PRESSURE_CLIENTS, TIGHT_SMAX_DIVISOR
        ),
        body,
    )
    .traced(bench_json, served.observer)
}

/// Run the node-failure serving scenario: the pressure workload on a
/// 4-node sharded FS under a rolling one-node outage, once at replication 1
/// (fragment-level base-table patching shows up as degraded reads) and once
/// at replication 2 (failover to the surviving replica is free — the
/// degraded-read rate must be zero). `BENCH_node_failure.json` carries
/// latency percentiles and the degraded-read rate for both.
pub fn node_failure(scale: Scale, seed: u64) -> Run {
    let r1 = serve(&node_failure_scenario(1), scale, seed);
    let r2 = serve(&node_failure_scenario(2), scale, seed);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut repl_json = ObjectBuilder::new();
    for (replication, s) in [(1u64, &r1), (2, &r2)] {
        let p = s.histogram_percentiles(None).unwrap_or((0.0, 0.0, 0.0));
        let degraded_rate = s.report.degraded_reads as f64 / s.queries as f64;
        let mut row = percentile_row(format!("r={replication}"), p);
        row.push(format!("{:.1}%", degraded_rate * 100.0));
        rows.push(row);
        let arm = percentile_fields(ObjectBuilder::new().field("replication", replication), p)
            .field("degraded_reads", s.report.degraded_reads)
            .field("degraded_rate", degraded_rate);
        repl_json = repl_json.field(&format!("r{replication}"), outcome_fields(arm, s).build());
    }

    let mut body = table(&["replication", "p50", "p95", "p99", "degraded"], &rows);
    body.push_str(&format!(
        "\n{NODE_FAILURE_NODES}-node cluster, rolling one-node outage every \
         {NODE_OUTAGE_WINDOW} commits; Smax = base/{TIGHT_SMAX_DIVISOR}, \
         {PRESSURE_CLIENTS} clients, mean gap {PRESSURE_GAP_SECS}s, seed {PRESSURE_SEED}\n\
         degraded reads r=1: {}   r=2: {}\n",
        r1.report.degraded_reads, r2.report.degraded_reads,
    ));

    let head = bench_head("node_failure", scale, r1.queries)
        .field("nodes", NODE_FAILURE_NODES as u64)
        .field("outage_window", NODE_OUTAGE_WINDOW as u64);
    let bench_json = scheduler_fields(head, PRESSURE_GAP_SECS)
        .field("by_replication", repl_json.build())
        .build()
        .to_json();

    Run::new(
        &format!(
            "Serving under a rolling one-node outage ({NODE_FAILURE_NODES} nodes, \
             replication 1 vs 2, window {NODE_OUTAGE_WINDOW} commits)"
        ),
        body,
    )
    .traced(bench_json, r1.observer)
}

/// Run the overload serving scenario: the pressure workload on a 4-node
/// sharded FS (replication 2) under a rolling gray failure — one node at a
/// time serving reads [`OVERLOAD_SLOW_MULT`]× slower — with per-ticket
/// deadlines, a bounded admission queue, and stale-serving load shedding.
/// Runs once with hedged replica reads off and once on; everything else is
/// bit-identical. `BENCH_overload.json` carries latency percentiles, the
/// shed rate, hedge counters and the incorrect-answer audit (always zero)
/// for both arms — the headline being hedging's simulated p99 cut.
pub fn overload(scale: Scale, seed: u64) -> Run {
    let off = serve(&overload_scenario(false), scale, seed);
    let on = serve(&overload_scenario(true), scale, seed);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut arms_json = ObjectBuilder::new();
    for (name, key, s) in [
        ("hedging off", "hedging_off", &off),
        ("hedging on", "hedging_on", &on),
    ] {
        let p = s.ticket_percentiles();
        let shed_rate = s.report.shed_reads as f64 / s.queries as f64;
        let mut row = percentile_row(name.to_string(), p);
        row.push(format!("{:.1}%", shed_rate * 100.0));
        row.push(s.fault_stats.hedges_won.to_string());
        rows.push(row);
        let arm = percentile_fields(ObjectBuilder::new(), p)
            .field("shed_reads", s.report.shed_reads)
            .field("shed_rate", shed_rate)
            .field("hedges_issued", s.fault_stats.hedges_issued)
            .field("hedges_won", s.fault_stats.hedges_won)
            .field("hedges_cancelled", s.fault_stats.hedges_cancelled)
            .field("hedge_extra_secs", s.hedge_extra_secs)
            .field("incorrect_answers", s.incorrect_answers());
        arms_json = arms_json.field(key, exemplar_fields(outcome_fields(arm, s), s).build());
    }

    let mut body = table(&["arm", "p50", "p95", "p99", "shed", "hedge wins"], &rows);
    let (off_ex, on_ex) = (off.p99_exemplar(), on.p99_exemplar());
    body.push_str(&format!(
        "\nrolling {OVERLOAD_SLOW_MULT}x gray slowness every {OVERLOAD_SLOW_WINDOW} commits \
         ({NODE_FAILURE_NODES} nodes, replication 2); deadline {OVERLOAD_DEADLINE_SECS}s, \
         queue {OVERLOAD_QUEUE}, serve-stale shedding; {PRESSURE_CLIENTS} clients, \
         mean gap {OVERLOAD_GAP_SECS}s, seed {PRESSURE_SEED}\n\
         p99 hedging off: {}  on: {}   incorrect answers: {}\n\
         p99 exemplar off: ticket {} (trace {})  on: ticket {} (trace {})\n",
        secs(off_ex.latency_secs),
        secs(on_ex.latency_secs),
        off.incorrect_answers() + on.incorrect_answers(),
        off_ex.ticket,
        off_ex.ticket as u64 + 1,
        on_ex.ticket,
        on_ex.ticket as u64 + 1,
    ));

    let head = bench_head("overload", scale, off.queries)
        .field("nodes", NODE_FAILURE_NODES as u64)
        .field("replication", 2u64)
        .field("slow_window", OVERLOAD_SLOW_WINDOW as u64)
        .field("slow_multiplier", OVERLOAD_SLOW_MULT)
        .field("deadline_secs", OVERLOAD_DEADLINE_SECS)
        .field("max_queue", OVERLOAD_QUEUE as u64)
        .field("shed_policy", ShedPolicy::ServeStale.name())
        .field("hedge_after_secs", OVERLOAD_HEDGE_AFTER_SECS);
    let bench_json = scheduler_fields(head, OVERLOAD_GAP_SECS)
        .field("by_hedging", arms_json.build())
        .build()
        .to_json();

    Run::new(
        &format!(
            "Serving under rolling gray slowness ({NODE_FAILURE_NODES} nodes, \
             {OVERLOAD_SLOW_MULT}x, deadline shedding, hedging off vs on)"
        ),
        body,
    )
    .traced(bench_json, on.observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;
    use deepsea_obs::{chrome_trace_json, parse_prometheus, TraceForest};

    #[test]
    fn pressure_quick_reports_percentiles_and_pressure() {
        let run = pressure(Scale::Quick, DEFAULT_SEED);
        let bench_json = run.bench_json.expect("pressure writes BENCH_pressure.json");
        assert!(bench_json.contains("\"experiment\":\"pressure\""));
        assert!(bench_json.contains("\"p99\""));
        let snap = run.observer.expect("pressure is traced").metrics_snapshot();
        // Every query commits, and the tight pool must actually evict.
        assert_eq!(snap.counter("deepsea_server_commits_total", None), 60);
        let (p50, p95, p99) = snap
            .histogram("deepsea_client_latency_secs", None)
            .and_then(|h| h.percentiles())
            .expect("latency histogram populated");
        assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99);
        assert!(
            snap.counter("deepsea_evictions_total", None) > 0,
            "tight Smax should evict during the run"
        );
    }

    #[test]
    fn pressure_is_deterministic() {
        let a = pressure(Scale::Quick, DEFAULT_SEED);
        let b = pressure(Scale::Quick, DEFAULT_SEED);
        assert_eq!(a.bench_json, b.bench_json);
    }

    #[test]
    fn rolling_outage_keeps_one_node_down() {
        let schedule = rolling(
            60,
            NODE_OUTAGE_WINDOW,
            NODE_FAILURE_NODES,
            NodeAction::Down,
            NodeAction::Up,
        );
        // Replay the schedule: exactly one node down after each boundary.
        let mut down: Vec<u32> = Vec::new();
        let mut boundary = 0usize;
        for &(when, node, action) in &schedule {
            assert!(when >= boundary, "schedule must be in ticket order");
            boundary = when;
            match action {
                NodeAction::Down => down.push(node),
                NodeAction::Up => down.retain(|&n| n != node),
                NodeAction::Kill => unreachable!("rolling outage never kills"),
            }
            if matches!(action, NodeAction::Down) {
                assert_eq!(down.len(), 1, "exactly one node down at a time");
            }
        }
    }

    #[test]
    fn node_failure_quick_degrades_only_unreplicated() {
        let run = node_failure(Scale::Quick, DEFAULT_SEED);
        let bench_json = run.bench_json.expect("node-failure writes its BENCH file");
        assert!(bench_json.contains("\"experiment\":\"node_failure\""));
        let r1 = serve(&node_failure_scenario(1), Scale::Quick, DEFAULT_SEED);
        let r2 = serve(&node_failure_scenario(2), Scale::Quick, DEFAULT_SEED);
        assert_eq!(r1.commits(), 60);
        assert_eq!(r2.commits(), 60);
        assert!(
            r1.report.degraded_reads > 0,
            "replication 1 under a rolling outage must hit degraded reads"
        );
        assert_eq!(
            r2.report.degraded_reads, 0,
            "replication 2 fails over to the surviving replica — no degradation"
        );
    }

    #[test]
    fn node_failure_is_deterministic() {
        let a = node_failure(Scale::Quick, DEFAULT_SEED);
        let b = node_failure(Scale::Quick, DEFAULT_SEED);
        assert_eq!(a.bench_json, b.bench_json);
    }

    #[test]
    fn rolling_slowness_keeps_one_node_slow() {
        let schedule = rolling(
            60,
            OVERLOAD_SLOW_WINDOW,
            NODE_FAILURE_NODES,
            OVERLOAD_SLOW_MULT,
            1.0,
        );
        let mut slow: Vec<u32> = Vec::new();
        let mut boundary = 0usize;
        for &(when, node, mult) in &schedule {
            assert!(when >= boundary, "schedule must be in ticket order");
            boundary = when;
            if mult > 1.0 {
                slow.push(node);
                assert_eq!(slow.len(), 1, "exactly one node slow at a time");
            } else {
                slow.retain(|&n| n != node);
            }
        }
    }

    #[test]
    fn overload_quick_hedging_cuts_p99_without_wrong_answers() {
        let off = serve(&overload_scenario(false), Scale::Quick, DEFAULT_SEED);
        let on = serve(&overload_scenario(true), Scale::Quick, DEFAULT_SEED);
        assert_eq!(off.commits(), 60);
        assert_eq!(on.commits(), 60);
        // Gray slowness never changes an answer, with or without hedging.
        assert_eq!(off.incorrect_answers(), 0);
        assert_eq!(on.incorrect_answers(), 0);
        // Both arms commit the identical state trajectory: slowness and
        // hedging shape cost, never catalog decisions.
        assert_eq!(off.report.state_digest, on.report.state_digest);
        // The shedder fires deterministically where the gray tail bites —
        // and hedging wins back deadline misses, so it never sheds more.
        assert!(
            off.report.shed_reads > 0,
            "overload must shed without hedging"
        );
        assert!(
            on.report.shed_reads <= off.report.shed_reads,
            "hedging must not increase sheds: on {} > off {}",
            on.report.shed_reads,
            off.report.shed_reads
        );
        // Hedging actually fires and actually wins against the slow node…
        assert!(
            on.fault_stats.hedges_issued > 0,
            "slow reads must trigger hedges"
        );
        assert!(
            on.fault_stats.hedges_won > 0,
            "some hedge must beat the slow primary"
        );
        assert_eq!(
            off.fault_stats.hedges_issued, 0,
            "hedging off must not hedge"
        );
        // …and the tail comes down for it.
        let (on_p99, off_p99) = (on.ticket_percentiles().2, off.ticket_percentiles().2);
        assert!(
            on_p99 < off_p99,
            "hedging must cut the simulated p99: on {on_p99} >= off {off_p99}"
        );
    }

    #[test]
    fn overload_is_deterministic() {
        let a = overload(Scale::Quick, DEFAULT_SEED);
        let b = overload(Scale::Quick, DEFAULT_SEED);
        assert_eq!(a.bench_json, b.bench_json);
    }

    /// Assert the causal-trace contract over one overload arm: every shed
    /// or hedged ticket's spans hang off its ticket root, and the critical
    /// path's self times telescope to exactly the reported latency.
    /// Returns `(shed_checked, hedged_checked)`.
    fn check_arm_traces(o: &Served) -> (usize, usize) {
        let spans = o.observer.spans_snapshot();
        let forest = TraceForest::from_spans(&spans);
        let (mut shed_checked, mut hedged_checked) = (0, 0);
        for r in &o.report.records {
            let tid = r.ticket as u64 + 1;
            let hedged = spans
                .iter()
                .any(|s| s.trace_id == tid && s.name.starts_with("hedge_"));
            if r.shed.is_none() && !hedged {
                continue;
            }
            shed_checked += usize::from(r.shed.is_some());
            hedged_checked += usize::from(hedged);
            assert!(
                forest.all_reachable_from_root(tid),
                "ticket {}: orphaned spans in its trace",
                r.ticket
            );
            let path = forest.critical_path(tid);
            let root = path
                .first()
                .unwrap_or_else(|| panic!("ticket {}: trace has no root span", r.ticket));
            assert_eq!(root.name, "ticket");
            let total: f64 = path.iter().map(|s| s.self_secs).sum();
            assert!(
                (total - r.latency_secs).abs() < 1e-6,
                "ticket {}: critical-path self times {} != latency {}",
                r.ticket,
                total,
                r.latency_secs
            );
        }
        (shed_checked, hedged_checked)
    }

    #[test]
    fn overload_traces_link_shed_and_hedged_tickets() {
        let off = serve(&overload_scenario(false), Scale::Quick, DEFAULT_SEED);
        let on = serve(&overload_scenario(true), Scale::Quick, DEFAULT_SEED);
        let (off_shed, _) = check_arm_traces(&off);
        let (_, on_hedged) = check_arm_traces(&on);
        assert!(off_shed > 0, "hedging-off arm must shed traced tickets");
        assert!(on_hedged > 0, "hedging-on arm must hedge traced tickets");
        // The span stream renders as valid, deterministic Chrome trace
        // events — one complete event per span.
        let spans = on.observer.spans_snapshot();
        let json = chrome_trace_json(&spans);
        let v = serde::from_str(&json).expect("chrome trace renders valid JSON");
        match v.get("traceEvents") {
            Some(serde::Value::Array(events)) => assert_eq!(events.len(), spans.len()),
            other => panic!("traceEvents must be an array, got {other:?}"),
        }
    }

    #[test]
    fn overload_p99_exemplar_links_to_its_trace_and_metrics_are_pinned() {
        let on = serve(&overload_scenario(true), Scale::Quick, DEFAULT_SEED);
        let ex = on.p99_exemplar();
        // Same nearest-rank math as the bench percentiles.
        assert_eq!(ex.latency_secs, on.ticket_percentiles().2);
        // The exemplar links to a real, rooted trace whose root span *is*
        // the reported latency.
        let forest = TraceForest::from_spans(&on.observer.spans_snapshot());
        let tid = ex.ticket as u64 + 1;
        assert!(forest.all_reachable_from_root(tid));
        let root = forest.root(tid).expect("exemplar trace has a root");
        assert!((root.duration_secs() - ex.latency_secs).abs() < 1e-9);
        // Bucket exemplars cover every ticket exactly once, ascending.
        let exs = on.report.latency_exemplars();
        let total: u64 = exs.iter().map(|e| e.count).sum();
        assert_eq!(total as usize, on.report.records.len());
        assert!(exs.windows(2).all(|w| w[0].le_secs < w[1].le_secs));
        for e in &exs {
            assert_eq!(e.trace_id, e.ticket as u64 + 1);
            assert!(e.latency_secs <= e.le_secs);
        }
        // Tail-layer counters export under pinned Prometheus names/labels.
        let samples =
            parse_prometheus(&on.observer.render_prometheus()).expect("prometheus output parses");
        let val = |name: &str, label: Option<&str>| {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && match label {
                            Some(l) => s.labels.iter().any(|(k, v)| k == "view" && v == l),
                            None => s.labels.is_empty(),
                        }
                })
                .map(|s| s.value)
        };
        // The metric scopes hedges to served reads (commit-side hedges are
        // the writer's business), so it is bounded by the FS-wide counters.
        let issued = val("deepsea_hedges_total", Some("issued")).expect("issued series present");
        assert!(issued > 0.0 && issued <= on.fault_stats.hedges_issued as f64);
        let won = val("deepsea_hedges_total", Some("won")).expect("won series present");
        assert!(won > 0.0 && won <= on.fault_stats.hedges_won as f64);
        let cancelled =
            val("deepsea_hedges_total", Some("cancelled")).expect("cancelled series present");
        assert!(cancelled <= on.fault_stats.hedges_cancelled as f64);
        if on.report.shed_reads > 0 {
            assert_eq!(
                val("deepsea_shed_reads_total", None),
                Some(on.report.shed_reads as f64)
            );
        }
    }

    /// A synthetic record with everything but ticket and latency zeroed —
    /// enough for the percentile/exemplar math, which reads nothing else.
    fn rec(ticket: usize, latency: f64) -> deepsea_core::ClientRecord {
        deepsea_core::ClientRecord {
            ticket,
            client: 0,
            arrival_secs: 0.0,
            read_start_secs: 0.0,
            read_done_secs: latency,
            commit_done_secs: latency,
            latency_secs: latency,
            read_epoch: 0,
            epoch_lag: 0,
            read_fingerprint: Vec::new(),
            committed_fingerprint: Vec::new(),
            read_query_secs: latency,
            committed_query_secs: latency,
            committed_creation_secs: 0.0,
            read_used_view: None,
            committed_used_view: None,
            divergent: false,
            degraded: false,
            deadline_secs: None,
            shed: None,
        }
    }

    fn synth_report(latencies: &[f64]) -> ServeReport {
        ServeReport {
            records: latencies
                .iter()
                .enumerate()
                .map(|(i, &l)| rec(i, l))
                .collect(),
            state_digest: 0,
            divergent_reads: 0,
            degraded_reads: 0,
            max_epoch_lag: 0,
            makespan_secs: 0.0,
            shed_reads: 0,
        }
    }

    #[test]
    fn serve_report_percentiles_match_exact_nearest_rank() {
        // 50 distinct latencies, shuffled by a multiplicative permutation.
        let lat: Vec<f64> = (0..50).map(|i| ((i * 17) % 50) as f64 + 1.0).collect();
        let report = synth_report(&lat);
        // The reference: nearest rank over the sorted latencies.
        let mut sorted = lat.clone();
        sorted.sort_by(f64::total_cmp);
        for p in [0.50, 0.95, 0.99] {
            let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
            assert_eq!(report.latency_percentile(p), sorted[rank]);
        }
        // With 50 tickets, nearest-rank p99 rounds to the last order
        // statistic: the exemplar provably *is* the slowest ticket.
        let slowest = lat
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty");
        let ex = report.percentile_exemplar(0.99).expect("non-empty");
        assert_eq!(ex.ticket, slowest);
        assert_eq!(ex.latency_secs, 50.0);
    }

    #[test]
    fn percentile_exemplar_breaks_ties_deterministically() {
        // Tickets 0 and 1 tie at the median value; the exemplar must be the
        // lower ticket, every run.
        let report = synth_report(&[5.0, 5.0, 1.0]);
        let ex = report.percentile_exemplar(0.50).expect("non-empty");
        assert_eq!(ex.ticket, 0);
        assert_eq!(ex.latency_secs, 5.0);
        assert!(report.percentile_exemplar(0.0).expect("non-empty").ticket == 2);
    }

    #[test]
    fn latency_exemplars_pick_slowest_ticket_per_bucket() {
        use deepsea_obs::metrics::bucket_of;
        let lat = [0.3, 0.4, 3.0, 2.5, 40.0];
        let report = synth_report(&lat);
        let exs = report.latency_exemplars();
        let total: u64 = exs.iter().map(|e| e.count).sum();
        assert_eq!(total as usize, lat.len());
        for e in &exs {
            // The exemplar is the slowest latency among its bucket's members.
            let bucket_max = lat
                .iter()
                .copied()
                .filter(|&l| bucket_of(l) == bucket_of(e.latency_secs))
                .fold(0.0_f64, f64::max);
            assert_eq!(e.latency_secs, bucket_max);
            assert_eq!(e.trace_id, e.ticket as u64 + 1);
        }
        // 0.3 and 0.4 share a bucket: count 2, exemplar ticket 1 (0.4).
        let shared = exs
            .iter()
            .find(|e| e.count == 2)
            .expect("0.3 and 0.4 share a log2 bucket");
        assert_eq!(shared.ticket, 1);
    }
}
