//! Tail-tolerance suite: replay the golden workload under **gray-failure**
//! schedules — nodes that stay live but serve reads a multiplier slower —
//! and assert the tail-tolerance machinery (hedged replica reads, circuit
//! breakers, retry budgets, deadline-aware load shedding) never changes an
//! answer or the committed state trajectory.
//!
//! The invariants, in decreasing strength:
//!
//! - **Replication ≥ 2 + any slow-node schedule + hedging** ⇒ answers and
//!   the final registry digest are bit-identical to the zero-schedule run:
//!   slowness shapes *cost*, never *content*, and every catalog decision
//!   flows through the cost estimator rather than measured latencies.
//! - **All schedules empty + hedging armed** ⇒ the whole run (fingerprints,
//!   per-query elapsed bits, registry digest) is bit-identical to hedging
//!   off: a hedge whose primary wins returns the primary's cost unchanged.
//! - **Same seed ⇒ same decision stream**: the shed / hedge / slow-node
//!   events the server journals replay bit-for-bit.
//! - **Shedding is honest**: rejected tickets still commit (the writer's
//!   Algorithm-1 trajectory never depends on admission control), and served
//!   shed modes return exact answers.
//!
//! Schedules are generated from `TAIL_CHAOS_SEEDS` (comma-separated,
//! default `3,11`), so CI can sweep without a rebuild:
//! `TAIL_CHAOS_SEEDS=3,11 cargo test -q --test tail_chaos`.

use std::sync::{Arc, OnceLock};

use deepsea::bench::golden::{golden_catalog, golden_plans};
use deepsea::core::{
    baselines, BreakerConfig, CatalogJournal, DeepSea, DeepSeaConfig, ObsConfig, Observer,
    ServerConfig, ShedPolicy, ViewServer,
};
use deepsea::engine::{Catalog, ClusterSim, LogicalPlan, RetryPolicy, RetryingBackend, SimBackend};
use deepsea::storage::{
    BlockConfig, FaultConfig, FaultInjector, HedgeConfig, NodeConfig, NodeId, NodeSet, SimFs,
};

/// Datanodes in every test topology.
const NODES: u32 = 4;

/// Queries per gray-failure window: the node turns slow one query into the
/// window and recovers one query before it ends.
const WINDOW: usize = 5;

fn chaos_config() -> DeepSeaConfig {
    baselines::deepsea().with_phi(0.05)
}

fn setup() -> (&'static Arc<Catalog>, &'static Vec<LogicalPlan>) {
    static S: OnceLock<(Arc<Catalog>, Vec<LogicalPlan>)> = OnceLock::new();
    let s = S.get_or_init(|| (golden_catalog(), golden_plans()));
    (&s.0, &s.1)
}

fn tail_chaos_seeds() -> Vec<u64> {
    std::env::var("TAIL_CHAOS_SEEDS")
        .unwrap_or_else(|_| "3,11".into())
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .expect("TAIL_CHAOS_SEEDS must be comma-separated u64s")
        })
        .collect()
}

/// Knuth LCG (high bits) for schedule generation.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// `(query index, node, latency multiplier)` — applied immediately before
/// that query; a multiplier of 1.0 clears the slowdown.
type SlowSchedule = Vec<(usize, u32, f64)>;

/// A seeded gray-failure schedule: in each window one LCG-chosen node slows
/// by an LCG-chosen multiplier (2×–5×), recovering before the window ends,
/// so the final window leaves every node at full speed.
fn slow_node_schedule(seed: u64, n: usize) -> SlowSchedule {
    let mut lcg = Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1);
    let mut schedule = Vec::new();
    for w in 0..n / WINDOW {
        let node = (lcg.next() % u64::from(NODES)) as u32;
        let multiplier = 2.0 + (lcg.next() % 4) as f64;
        schedule.push((w * WINDOW + 1, node, multiplier));
        schedule.push((w * WINDOW + WINDOW - 1, node, 1.0));
    }
    schedule
}

/// What one sharded replay observed.
#[derive(Debug)]
struct TailRun {
    fingerprints: Vec<Vec<String>>,
    elapsed_bits: Vec<u64>,
    state_digest: u64,
    hedges_issued: u64,
    hedges_won: u64,
    node_slows: u64,
    short_circuits: u64,
}

fn build_sharded(
    replication: u32,
    faults: FaultInjector,
    config: DeepSeaConfig,
    journal: Option<Arc<CatalogJournal>>,
) -> (DeepSea, Arc<SimFs<deepsea::relation::Table>>) {
    let (catalog, _) = setup();
    let cluster = ClusterSim::paper_default();
    let fs = Arc::new(SimFs::with_cluster(
        BlockConfig::default(),
        cluster.weights,
        faults,
        NodeSet::new(NodeConfig::new(NODES, replication)),
    ));
    let policy = RetryPolicy::default();
    let mut ds = DeepSea::with_backend(
        Arc::clone(catalog),
        Arc::clone(&fs),
        Box::new(RetryingBackend::new(SimBackend::new(cluster), policy)),
        config.with_retry(policy),
    );
    if let Some(journal) = journal {
        ds = ds.with_journal(journal);
    }
    (ds, fs)
}

/// Replay the golden queries serially, applying `schedule` through the FS's
/// public slow-node API between queries, with hedging optionally armed.
fn run_tail(
    (mut ds, fs): (DeepSea, Arc<SimFs<deepsea::relation::Table>>),
    schedule: &SlowSchedule,
    hedge: Option<HedgeConfig>,
) -> TailRun {
    let (_, plans) = setup();
    fs.set_hedge(hedge);
    let mut out = TailRun {
        fingerprints: Vec::new(),
        elapsed_bits: Vec::new(),
        state_digest: 0,
        hedges_issued: 0,
        hedges_won: 0,
        node_slows: 0,
        short_circuits: 0,
    };
    for (i, plan) in plans.iter().enumerate() {
        // Recoveries before slowdowns, so a boundary that moves the slow
        // window to another node never has two slow nodes at once.
        for &(when, node, mult) in schedule {
            if when == i && mult <= 1.0 {
                fs.clear_node_slow(NodeId(node));
            }
        }
        for &(when, node, mult) in schedule {
            if when == i && mult > 1.0 {
                fs.set_node_slow(NodeId(node), mult);
            }
        }
        let o = ds
            .process_query(plan)
            .unwrap_or_else(|e| panic!("query {i}: gray failures must never surface: {e}"));
        out.fingerprints.push(o.result.fingerprint());
        out.elapsed_bits.push(o.elapsed_secs.to_bits());
        out.short_circuits += o.trace.recovery.breaker_short_circuits;
    }
    let stats = fs.fault_stats();
    out.hedges_issued = stats.hedges_issued;
    out.hedges_won = stats.hedges_won;
    out.node_slows = stats.node_slows;
    out.state_digest = ds.registry().state_digest();
    out
}

fn run_tail_default(
    replication: u32,
    schedule: &SlowSchedule,
    hedge: Option<HedgeConfig>,
) -> TailRun {
    run_tail(
        build_sharded(replication, FaultInjector::disabled(), chaos_config(), None),
        schedule,
        hedge,
    )
}

/// Zero-schedule, hedging-off baseline at replication 2.
fn tail_baseline() -> &'static TailRun {
    static R: OnceLock<TailRun> = OnceLock::new();
    R.get_or_init(|| run_tail_default(2, &Vec::new(), None))
}

/// The headline invariant: at replication 2, any slow-node schedule with
/// hedging armed changes *cost only* — answers and the final registry
/// digest are bit-identical to the zero-schedule run, because every catalog
/// decision flows through the cost estimator, never measured latencies.
#[test]
fn slow_schedules_with_hedging_preserve_answers_and_state() {
    let golden = tail_baseline();
    let (_, plans) = setup();
    let mut saw_hedge_wins = false;
    for seed in tail_chaos_seeds() {
        let schedule = slow_node_schedule(seed, plans.len());
        assert!(!schedule.is_empty(), "seed {seed}: empty schedule");
        let run = run_tail_default(2, &schedule, Some(HedgeConfig::after_secs(0.01)));
        assert_eq!(
            run.fingerprints, golden.fingerprints,
            "seed {seed}: answers diverged under gray failures"
        );
        assert_eq!(
            run.state_digest, golden.state_digest,
            "seed {seed}: committed state diverged under gray failures"
        );
        assert!(run.node_slows > 0, "seed {seed}: schedule never slowed");
        saw_hedge_wins |= run.hedges_won > 0;
    }
    assert!(
        saw_hedge_wins,
        "no schedule ever produced a winning hedge — the hedge path is dead"
    );
}

/// Hedging is bit-transparent when nothing is slow: with every schedule
/// empty, arming hedged reads reproduces the hedging-off run exactly —
/// fingerprints, per-query elapsed bits, and the registry digest — because
/// a hedge whose primary wins returns the primary's cost unchanged.
#[test]
fn hedging_is_bit_transparent_without_slow_nodes() {
    let golden = tail_baseline();
    let run = run_tail_default(2, &Vec::new(), Some(HedgeConfig::after_secs(0.01)));
    assert_eq!(run.fingerprints, golden.fingerprints);
    assert_eq!(
        run.elapsed_bits, golden.elapsed_bits,
        "hedging with healthy replicas must not move a single bit of cost"
    );
    assert_eq!(run.state_digest, golden.state_digest);
    assert_eq!(
        run.hedges_won, 0,
        "a healthy replica must never win a hedge"
    );
}

/// Same-seed reproducibility of the full tail-tolerance decision stream:
/// two servers with identical configs replay identical shed / hedge /
/// slow-node event sequences and identical per-ticket latencies, and a
/// different seed produces a different schedule (the stream is seeded, not
/// constant).
#[test]
fn same_seed_reproduces_shed_and_hedge_decision_stream() {
    let (_, plans) = setup();
    let serve = |seed: u64| {
        let obs = Observer::new(ObsConfig::on());
        let (ds, fs) = build_sharded(2, FaultInjector::disabled(), chaos_config(), None);
        fs.set_hedge(Some(HedgeConfig::after_secs(0.01)));
        let cfg = ServerConfig {
            clients: 3,
            seed,
            mean_gap_secs: 0.05,
            slow_schedule: vec![(2, 1, 4.0), (20, 1, 1.0), (25, 2, 3.0), (40, 2, 1.0)],
            deadline_secs: Some(2.0),
            max_queue: Some(8),
            shed_policy: ShedPolicy::ServeStale,
            ..ServerConfig::default()
        };
        let mut server = ViewServer::new(ds.with_observer(obs.clone()), cfg);
        let report = server
            .run(plans)
            .expect("serving must absorb gray failures");
        let decisions: Vec<_> = obs
            .events_snapshot()
            .into_iter()
            .filter(|e| {
                matches!(
                    e.event.kind(),
                    "shed" | "hedged_read" | "node_slow" | "node_slow_cleared"
                )
            })
            .collect();
        (report, decisions)
    };

    let (r1, d1) = serve(7);
    let (r2, d2) = serve(7);
    assert!(!d1.is_empty(), "overloaded serve produced no decisions");
    assert!(
        d1.iter().any(|e| e.event.kind() == "shed"),
        "deadline 2.0s under 0.05s arrivals must shed"
    );
    assert_eq!(d1, d2, "same seed must replay the exact decision stream");
    assert_eq!(
        r1.latencies_secs()
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
        r2.latencies_secs()
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
        "same seed must replay identical latencies"
    );
    assert_eq!(r1.shed_reads, r2.shed_reads);
    assert_eq!(r1.state_digest, r2.state_digest);

    let (_, d3) = serve(8);
    assert_ne!(d1, d3, "different seeds must produce different schedules");
}

/// Shedding is honest: every shed ticket carries its policy and reason,
/// rejected tickets still commit (the committed fingerprint series is the
/// serial one, complete), and served shed modes return exact answers.
#[test]
fn shed_tickets_still_commit_and_served_sheds_stay_exact() {
    let (_, plans) = setup();
    let golden = tail_baseline();
    for policy in [
        ShedPolicy::Reject,
        ShedPolicy::ServeStale,
        ShedPolicy::DegradeBase,
    ] {
        let (ds, _fs) = build_sharded(2, FaultInjector::disabled(), chaos_config(), None);
        let cfg = ServerConfig {
            clients: 2,
            seed: 5,
            mean_gap_secs: 0.05,
            deadline_secs: Some(1.5),
            max_queue: Some(4),
            shed_policy: policy,
            ..ServerConfig::default()
        };
        let mut server = ViewServer::new(ds, cfg);
        let report = server.run(plans).expect("shedding must never error");
        assert!(
            report.shed_reads > 0,
            "{policy:?}: overload produced no shedding"
        );
        assert_eq!(
            report.committed_fingerprints(),
            golden.fingerprints,
            "{policy:?}: shedding leaked into the committed trajectory"
        );
        for rec in &report.records {
            if let Some((p, reason)) = rec.shed {
                assert_eq!(p, policy.name());
                assert!(
                    matches!(
                        reason,
                        "deadline_passed" | "queue_full" | "projected_overrun"
                    ),
                    "unknown shed reason {reason}"
                );
                match policy {
                    ShedPolicy::Reject => {
                        assert!(rec.read_fingerprint.is_empty());
                        assert_eq!(rec.read_query_secs, 0.0);
                    }
                    // Served shed modes return the exact committed answer.
                    ShedPolicy::ServeStale | ShedPolicy::DegradeBase => {
                        assert_eq!(
                            rec.read_fingerprint, rec.committed_fingerprint,
                            "{policy:?}: served a wrong answer while shedding"
                        );
                    }
                }
            }
        }
    }
}

/// Circuit breakers on the snapshot read path, where they earn their keep:
/// the writer patches the catalog around failures and matching routes
/// around hard outages, but *gray* slowness — a node serving reads at 100×
/// — is invisible to the namenode, so a frozen reader would pay it on
/// every access. The latency trip records slow successes as failures,
/// opens the breaker, later reads short-circuit straight to base tables
/// (answers unchanged), and once the node speeds up the deterministic
/// probes close every breaker again.
#[test]
fn breaker_opens_short_circuits_and_recloses_around_an_outage() {
    let (_, plans) = setup();
    // Measure the healthy cost envelope on the same topology, breakers off.
    let (mut probe, _) = build_sharded(1, FaultInjector::disabled(), chaos_config(), None);
    let mut healthy_max = 0.0f64;
    for (i, plan) in plans.iter().enumerate() {
        let o = probe
            .process_query(plan)
            .unwrap_or_else(|e| panic!("query {i} failed while probing: {e}"));
        healthy_max = healthy_max.max(o.query_secs);
    }
    drop(probe);
    let trip = healthy_max * 4.0;

    let (ds, fs) = build_sharded(
        1,
        FaultInjector::disabled(),
        chaos_config().with_breaker(BreakerConfig::after_failures(2, 2).with_latency_trip(trip)),
        None,
    );
    // Watch the run so the breaker's state changes land on the exported
    // transition counter (pinned below) as well as the event journal.
    let obs = Observer::new(ObsConfig::on());
    let mut ds = ds.with_observer(obs.clone());
    // Materialize views through the writer, then freeze an epoch.
    for (i, plan) in plans.iter().enumerate() {
        ds.process_query(plan)
            .unwrap_or_else(|e| panic!("query {i} failed while warming: {e}"));
    }
    let snapshot = ds
        .publish_snapshot()
        .expect("retrying backend must fork readers");
    let replay = |snapshot: &deepsea::core::ReadSnapshot| {
        let mut fingerprints = Vec::new();
        let mut short_circuits = 0u64;
        let mut slowest = 0.0f64;
        for (i, plan) in plans.iter().enumerate() {
            let a = snapshot
                .answer(plan)
                .unwrap_or_else(|e| panic!("read {i}: gray slowness must never error: {e}"));
            fingerprints.push(a.result.fingerprint());
            short_circuits += a.trace.recovery.breaker_short_circuits;
            slowest = slowest.max(a.query_secs);
        }
        (fingerprints, short_circuits, slowest)
    };

    let (healthy, sc0, _) = replay(&snapshot);
    assert_eq!(sc0, 0, "healthy snapshot reads must not trip breakers");

    // Gray failure: every node crawls at 100×, but nothing ever *fails*.
    for n in 0..NODES {
        fs.set_node_slow(NodeId(n), 100.0);
    }
    let (pass1, sc1, slowest1) = replay(&snapshot);
    let (pass2, sc2, _) = replay(&snapshot);
    assert_eq!(pass1, healthy, "slow reads changed an answer");
    assert_eq!(pass2, healthy, "short-circuited reads changed an answer");
    assert!(
        slowest1 > trip,
        "100× slowness never exceeded the trip threshold ({slowest1} <= {trip})"
    );
    assert!(
        sc1 + sc2 > 0,
        "latency trips never opened a breaker into short-circuiting"
    );
    assert!(
        !ds.breakers().open_breakers().is_empty(),
        "mid-gray-failure, some breaker must be open"
    );

    for n in 0..NODES {
        fs.clear_node_slow(NodeId(n));
    }
    // Each open breaker needs probe_after = 2 accesses to reach its probe
    // and a fast success to close; a view used once per pass may need two
    // passes to get there, plus one to verify quiescence.
    let (pass3, _, _) = replay(&snapshot);
    let (pass4, _, _) = replay(&snapshot);
    let (pass5, sc5, _) = replay(&snapshot);
    assert_eq!(pass3, healthy);
    assert_eq!(pass4, healthy);
    assert_eq!(pass5, healthy);
    assert_eq!(sc5, 0, "nodes fast again: no more short-circuits");
    assert!(
        ds.breakers().open_breakers().is_empty(),
        "breakers stayed open after the slowness cleared and probes succeeded: {:?}",
        ds.breakers().open_breakers()
    );

    // The full open -> half_open -> closed cycle is exported under the
    // pinned Prometheus name, one series per target state.
    let samples =
        deepsea::obs::parse_prometheus(&obs.render_prometheus()).expect("prometheus output parses");
    for state in ["open", "half_open", "closed"] {
        let count = samples
            .iter()
            .find(|s| {
                s.name == "deepsea_breaker_transitions_total"
                    && s.labels.iter().any(|(k, v)| k == "view" && v == state)
            })
            .map(|s| s.value)
            .unwrap_or_else(|| panic!("missing breaker transition series for {state:?}"));
        assert!(count > 0.0, "no transitions into {state:?} recorded");
    }
}

/// The combined-schedule crash test: node outage + seeded I/O faults + a
/// gray-slow window all active when the process dies mid-outage. Recovery
/// rebuilds the catalog, resets breaker state (a health cache, deliberately
/// not journaled), and a second recovery from the same journal is
/// idempotent; the resumed run still answers every query exactly.
#[test]
fn crash_mid_outage_with_slow_window_recovers_idempotently() {
    let (catalog, plans) = setup();
    let journal = Arc::new(CatalogJournal::new());
    let config = chaos_config().with_breaker(BreakerConfig::after_failures(2, 2));
    let faults = FaultInjector::new(FaultConfig::seeded(13).with_transient_reads(0.05));
    let (mut ds, fs) = build_sharded(2, faults, config, Some(Arc::clone(&journal)));
    fs.set_hedge(Some(HedgeConfig::after_secs(0.01)));

    let half = plans.len() / 2;
    for (i, plan) in plans.iter().take(half).enumerate() {
        ds.process_query(plan)
            .unwrap_or_else(|e| panic!("query {i} failed pre-crash: {e}"));
    }
    // Outage + gray slowness both active at the crash point.
    fs.set_node_down(NodeId(1));
    fs.set_node_slow(NodeId(2), 3.0);
    for (i, plan) in plans.iter().enumerate().take(half + 3).skip(half) {
        ds.process_query(plan)
            .unwrap_or_else(|e| panic!("query {i} failed mid-outage: {e}"));
    }
    drop(ds); // crash: fs, journal, and the injected chaos survive

    let policy = RetryPolicy::default();
    let recover = || {
        DeepSea::recover(
            Arc::clone(catalog),
            Arc::clone(&fs),
            Box::new(RetryingBackend::new(
                SimBackend::new(ClusterSim::paper_default()),
                policy,
            )),
            chaos_config()
                .with_breaker(BreakerConfig::after_failures(2, 2))
                .with_retry(policy),
            Arc::clone(&journal),
        )
    };
    let (recovered, fsck1) = recover();
    let digest1 = recovered.registry().state_digest();
    assert!(
        recovered.breakers().open_breakers().is_empty(),
        "recovery must reset breaker state (fail-safe health cache)"
    );
    drop(recovered);

    // Second recovery from the same (post-fsck-compacted) journal.
    let (mut recovered, fsck2) = recover();
    assert_eq!(
        recovered.registry().state_digest(),
        digest1,
        "double recovery diverged"
    );
    assert_eq!(
        fsck2.replayed_records, 0,
        "first recovery's snapshot must have compacted the journal: {fsck1:?}"
    );

    // The resumed run rides out the still-active outage and slow window.
    fs.set_node_up(NodeId(1));
    fs.clear_node_slow(NodeId(2));
    for (i, plan) in plans.iter().enumerate().skip(half + 3) {
        let o = recovered
            .process_query(plan)
            .unwrap_or_else(|e| panic!("query {i} failed post-recovery: {e}"));
        assert!(
            !o.result.fingerprint().is_empty() || o.result.is_empty(),
            "query {i}: malformed answer post-recovery"
        );
    }
}

/// A per-query retry budget bounds tail retries without changing answers:
/// under a flaky-read fault stream, the budgeted run answers every query
/// exactly like the unbudgeted one (fallbacks are exact), while never
/// charging more backoff to a query than the budget allows.
#[test]
fn retry_budget_bounds_tail_without_changing_answers() {
    let (_, plans) = setup();
    let run_with = |budget: Option<f64>| {
        let mut config = chaos_config();
        if let Some(b) = budget {
            config = config.with_retry_budget(b);
        }
        let faults = FaultInjector::new(FaultConfig::seeded(17).with_transient_reads(0.05));
        let (mut ds, _fs) = build_sharded(2, faults, config, None);
        let mut fingerprints = Vec::new();
        let mut max_penalty = 0.0f64;
        for (i, plan) in plans.iter().enumerate() {
            let o = ds
                .process_query(plan)
                .unwrap_or_else(|e| panic!("query {i} failed: {e}"));
            fingerprints.push(o.result.fingerprint());
            max_penalty = max_penalty.max(o.trace.recovery.penalty_secs);
        }
        (fingerprints, max_penalty)
    };
    let (unbudgeted, _) = run_with(None);
    let budget = 2.0;
    let (budgeted, max_penalty) = run_with(Some(budget));
    assert_eq!(
        budgeted, unbudgeted,
        "a retry budget changed an answer instead of a latency"
    );
    assert!(
        max_penalty <= budget + f64::EPSILON,
        "a query was charged {max_penalty}s of backoff against a {budget}s budget"
    );
}
