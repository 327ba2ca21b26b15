//! The four workloads: what they run, how their inputs come from the seed,
//! and how the program under test is put together for one pass.
//!
//! All four replay one recorded query log against a generated BigBench
//! instance, the way the paper replays the SDSS log (§10.1). The log's
//! *shape* — template per query, which queries re-submit an earlier one,
//! range widths, the arrival schedule of `serve_tail` — is fixed
//! ([`TRACE_SEED`]); `--seed` draws the database instance and shifts every
//! fresh selection range by a few items. Seeding the shape as well made
//! runs incomparable: over ten seeds `fig5_workload(800, seed)` moved
//! simulated total time by 5 % (quartile distance) and wall time by 19 %,
//! and a seeded arrival schedule moved `serve_tail` sheds between 1 and 170
//! of 600 tickets. With the shape fixed the same ten seeds stay within
//! 0.5 % on simulated time.

use std::sync::Arc;

use deepsea_core::{
    baselines, CatalogJournal, DeepSea, DeepSeaConfig, Observer, ServerConfig, ShedPolicy,
    ViewServer,
};
use deepsea_engine::{Catalog, ClusterSim, ExecutionBackend, LogicalPlan, SimBackend};
use deepsea_relation::Table;
use deepsea_storage::{BlockConfig, FaultInjector, HedgeConfig, NodeConfig, NodeSet, SimFs};
use deepsea_workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea_workload::sdss::{sdss_like_histogram, SdssTrace};
use deepsea_workload::sequences::item_domain;
use deepsea_workload::TemplateId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::backend::TimedBackend;
use crate::spans::Recorder;

/// Seed of the recorded log's shape and of the `serve_tail` arrival
/// schedule. Not an input: changing it defines a different benchmark.
pub const TRACE_SEED: u64 = 42;

/// Largest shift, in `item_sk` values, that `--seed` applies to a fresh
/// selection range (0.1 % of the 40 000-item domain: enough that no two
/// seeds issue the same predicates, too little to move a range out of its
/// hot spot).
pub const RANGE_JITTER: i64 = 40;

/// Length the recorded log is generated at. The SDSS-like trace moves its
/// hot spot after 30 % of its length, so the log has to be generated at one
/// fixed length for every workload to replay a prefix of the same log.
pub const LOG_LEN: usize = 600;

/// Pool limit of `sdss_churn`: base bytes over this, the DS-tight variant
/// of `crates/bench/src/pressure.rs`.
const CHURN_SMAX_DIVISOR: u64 = 40;

/// `serve_tail` scheduler parameters — the hedging-on arm of the `overload`
/// experiment in `crates/bench/src/pressure.rs`, with a shorter arrival gap
/// so the admission policy has work to do.
const SERVE_NODES: u32 = 4;
const SERVE_REPLICATION: u32 = 2;
const SERVE_CLIENTS: usize = 4;
const SERVE_SLOW_WINDOW: usize = 5;
const SERVE_SLOW_MULT: f64 = 8.0;
const SERVE_HEDGE_AFTER_SECS: f64 = 1.0;
const SERVE_DEADLINE_SECS: f64 = 400.0;
const SERVE_QUEUE: usize = 6;
/// Mean arrival gap in simulated seconds, tuned once so that about a tenth
/// of the 400 tickets is shed (45 at seed 42). The cliff is steep: 6.5 s
/// sheds 360, 7.0 s 61, 7.25 s 18, 7.5 s 2.
const SERVE_GAP_SECS: f64 = 7.1;

/// One of the four fixed workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm views, unlimited pool: read path and snapshot publication.
    SdssSteady,
    /// Pool far smaller than the view working set, journal attached:
    /// selection, materialisation, eviction, journal appends.
    SdssChurn,
    /// Hive baseline: no views, the engine is all of the time.
    BaseScan,
    /// Open-loop tickets through `ViewServer::run` under gray failure.
    ServeTail,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::SdssSteady,
        Workload::SdssChurn,
        Workload::BaseScan,
        Workload::ServeTail,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SdssSteady => "sdss_steady",
            Workload::SdssChurn => "sdss_churn",
            Workload::BaseScan => "base_scan",
            Workload::ServeTail => "serve_tail",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Queries (tickets) in one pass. Constants: the work of a run is a
    /// function of `(workload, seed)` only, never of a clock. Sized so a
    /// pass takes 2–3.5 s on the 2-vCPU reference box and a run fits six or
    /// more passes; the tail percentile is p90 so that the smallest
    /// workload still has ten samples beyond it.
    ///
    /// The two view-backed workloads stop at 400 queries because the program
    /// answers query 459 of the log wrongly (and up to five later ones,
    /// depending on the seed; none earlier on 57 seeds): a cover made of overlapping fragments is read
    /// without clipping, so rows in the overlap are counted twice. The
    /// oracle catches it; the workloads stay short of it so that no
    /// operation fails. Grow them once that defect is fixed.
    pub fn ops(self) -> usize {
        match self {
            Workload::SdssSteady => 400,
            Workload::SdssChurn => 100,
            Workload::BaseScan => 150,
            Workload::ServeTail => 400,
        }
    }

    /// Whether a pass is one `ViewServer::run` (no per-query wall clock
    /// from outside) instead of a closed loop of timed calls.
    pub fn served(self) -> bool {
        self == Workload::ServeTail
    }

    fn config(self, catalog: &Catalog) -> DeepSeaConfig {
        match self {
            Workload::SdssSteady | Workload::ServeTail => baselines::deepsea().with_phi(0.05),
            Workload::SdssChurn => baselines::deepsea()
                .with_phi(0.05)
                .with_smax(catalog.total_base_bytes() / CHURN_SMAX_DIVISOR),
            Workload::BaseScan => baselines::hive(),
        }
    }
}

/// Generate the database instance for `seed`: the 100 GB BigBench-like
/// schema with `item_sk` drawn from the SDSS-shaped histogram.
pub fn generate_data(seed: u64) -> Arc<Catalog> {
    let (lo, hi) = item_domain();
    let dist = ItemDistribution::Histogram(sdss_like_histogram(lo, hi));
    Arc::new(BigBenchData::generate(InstanceSize::Gb100, &dist, seed).catalog)
}

/// The first `n` queries of the recorded log, with every fresh selection
/// range shifted by a `seed`-drawn offset in `[-RANGE_JITTER, RANGE_JITTER]`.
pub fn generate_plans(n: usize, seed: u64) -> Vec<LogicalPlan> {
    recorded_log(n, seed, RANGE_JITTER)
}

/// The first `n` queries of
/// `deepsea_workload::sequences::fig5_workload(LOG_LEN, TRACE_SEED)` with a
/// seeded shift of each fresh range; `jitter == 0` reproduces them exactly
/// (pinned by a test). Re-submissions copy the earlier, already shifted
/// query, so they stay exact repeats.
fn recorded_log(n: usize, seed: u64, jitter: i64) -> Vec<LogicalPlan> {
    assert!(n <= LOG_LEN, "the recorded log has {LOG_LEN} queries");
    let (lo, hi) = item_domain();
    let mut trace = SdssTrace::new(lo, hi);
    let repeat_prob = trace.repeat_prob;
    trace.repeat_prob = 0.0;
    let mut ranges = trace.generate(LOG_LEN, TRACE_SEED);
    ranges.truncate(n);
    let mut shape = StdRng::seed_from_u64(TRACE_SEED ^ 0xF165);
    let mut shift = StdRng::seed_from_u64(seed);
    let templates = TemplateId::all();
    let mut out: Vec<LogicalPlan> = Vec::with_capacity(n);
    for (l, h) in ranges {
        if !out.is_empty() && shape.random::<f64>() < repeat_prob {
            let window = out.len().min(50);
            let pick = out.len() - 1 - shape.random_range(0..window);
            out.push(out[pick].clone());
            continue;
        }
        let template = templates[shape.random_range(0..templates.len())];
        let full_domain = l == lo && h == hi;
        let d = if jitter > 0 && !full_domain {
            shift.random_range(0..(2 * jitter + 1) as usize) as i64 - jitter
        } else {
            0
        };
        let l = (l + d).clamp(lo, hi);
        let h = (h + d).clamp(l, hi);
        out.push(template.instantiate(l, h));
    }
    out
}

/// The generated inputs of one run.
pub struct Inputs {
    /// Base tables.
    pub catalog: Arc<Catalog>,
    /// The query log, in submission order.
    pub plans: Vec<LogicalPlan>,
}

/// The program under test, assembled for one pass.
pub struct World {
    /// The driver (`None` once moved into `server`).
    pub ds: Option<DeepSea>,
    /// The serving layer, for `serve_tail`.
    pub server: Option<ViewServer>,
    /// The driver's file system.
    pub fs: Arc<SimFs<Table>>,
    /// The catalog journal, for `sdss_churn`.
    pub journal: Option<Arc<CatalogJournal>>,
    /// The configuration in force.
    pub config: DeepSeaConfig,
}

/// The execution backend of a pass: the plain simulated backend, wrapped in
/// a [`TimedBackend`] only when layer spans are being recorded.
pub fn backend(rec: &Recorder) -> Box<dyn ExecutionBackend> {
    let sim = SimBackend::new(ClusterSim::paper_default());
    if rec.layers() {
        Box::new(TimedBackend::new(sim, rec.clone()))
    } else {
        Box::new(sim)
    }
}

/// The rolling gray failure of the `overload` experiment: one node at a
/// time serves reads [`SERVE_SLOW_MULT`]× slower, hopping every
/// [`SERVE_SLOW_WINDOW`] commits.
fn rolling_slowness(n: usize) -> Vec<(usize, u32, f64)> {
    let mut schedule = Vec::new();
    for w in 0..n.div_ceil(SERVE_SLOW_WINDOW) {
        if w > 0 {
            let prev = ((w - 1) % SERVE_NODES as usize) as u32;
            schedule.push((w * SERVE_SLOW_WINDOW, prev, 1.0));
        }
        let node = (w % SERVE_NODES as usize) as u32;
        schedule.push((w * SERVE_SLOW_WINDOW, node, SERVE_SLOW_MULT));
    }
    schedule
}

/// Build fresh state for one pass of `workload`: file system, driver,
/// journal or server. `obs` attaches an observer (the `obs.*` probe only).
pub fn build(workload: Workload, inputs: &Inputs, rec: &Recorder, obs: Option<Observer>) -> World {
    let cluster = ClusterSim::paper_default();
    let config = workload.config(&inputs.catalog);
    let fs = if workload.served() {
        let fs = SimFs::with_cluster(
            BlockConfig::default(),
            cluster.weights,
            FaultInjector::disabled(),
            NodeSet::new(NodeConfig::new(SERVE_NODES, SERVE_REPLICATION)),
        );
        fs.set_hedge(Some(HedgeConfig::after_secs(SERVE_HEDGE_AFTER_SECS)));
        Arc::new(fs)
    } else {
        Arc::new(SimFs::new(BlockConfig::default(), cluster.weights))
    };
    let mut ds = DeepSea::with_backend(
        Arc::clone(&inputs.catalog),
        Arc::clone(&fs),
        backend(rec),
        config,
    );
    if let Some(obs) = obs {
        ds = ds.with_observer(obs);
    }
    let journal = (workload == Workload::SdssChurn).then(|| Arc::new(CatalogJournal::new()));
    if let Some(journal) = &journal {
        ds = ds.with_journal(Arc::clone(journal));
    }
    let mut world = World {
        ds: None,
        server: None,
        fs,
        journal,
        config,
    };
    if workload.served() {
        let cfg = ServerConfig {
            clients: SERVE_CLIENTS,
            seed: TRACE_SEED,
            mean_gap_secs: SERVE_GAP_SECS,
            slow_schedule: rolling_slowness(inputs.plans.len()),
            deadline_secs: Some(SERVE_DEADLINE_SECS),
            max_queue: Some(SERVE_QUEUE),
            shed_policy: ShedPolicy::ServeStale,
            ..ServerConfig::default()
        };
        world.server = Some(ViewServer::new(ds, cfg));
    } else {
        world.ds = Some(ds);
    }
    world
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsea_workload::sequences::fig5_workload;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn unshifted_log_is_the_fig5_workload() {
        let log = fig5_workload(LOG_LEN, TRACE_SEED);
        assert_eq!(recorded_log(LOG_LEN, 7, 0), log);
        assert_eq!(recorded_log(120, 7, 0), log[..120]);
    }

    #[test]
    fn same_seed_same_plans_other_seed_other_plans() {
        let a = generate_plans(200, 42);
        assert_eq!(a, generate_plans(200, 42));
        let b = generate_plans(200, 7);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
        // The shape is shared: a query re-submits an earlier one under one
        // seed exactly when it does under the other.
        let repeats = |plans: &[LogicalPlan]| -> Vec<Option<usize>> {
            plans
                .iter()
                .enumerate()
                .map(|(i, p)| plans[..i].iter().rposition(|q| q == p))
                .collect()
        };
        assert_eq!(repeats(&a), repeats(&b));
    }

    #[test]
    fn data_follows_the_seed() {
        let a = generate_data(42);
        let b = generate_data(42);
        let c = generate_data(7);
        let rows = |cat: &Catalog| cat.get("store_sales").expect("fact table").fingerprint();
        assert_eq!(rows(&a), rows(&b));
        assert_ne!(rows(&a), rows(&c));
        assert_eq!(a.total_base_bytes(), c.total_base_bytes());
    }

    #[test]
    fn slowness_schedule_keeps_one_node_slow() {
        let mut slow: Vec<u32> = Vec::new();
        for (_, node, mult) in rolling_slowness(60) {
            if mult > 1.0 {
                slow.push(node);
                assert_eq!(slow.len(), 1);
            } else {
                slow.retain(|&n| n != node);
            }
        }
    }
}
