//! Node-chaos suite: replay the golden workload on a simulated sharded
//! cluster under whole-node failure schedules and assert the serving stack
//! survives node loss.
//!
//! The invariants, in decreasing strength:
//!
//! - **Replication ≥ 2 + any single-node schedule** ⇒ failover to the
//!   surviving replica is metadata-only, so the run is bit-identical to the
//!   zero-fault run on the same topology: fingerprints, per-query elapsed
//!   bits, and the final registry digest.
//! - **Replication 1** ⇒ blocked fragments are patched from base tables at
//!   fragment granularity; query outputs stay bit-identical, the pool
//!   invariant holds three ways after every query, and fragments
//!   quarantined by an outage are re-admitted once the node returns.
//! - **Seeded injector stream** ⇒ node faults drawn from the same
//!   deterministic fault stream as I/O faults never change an answer.
//!
//! Schedules are generated from `NODE_FAULT_SEEDS` (comma-separated,
//! default `5,9`), so CI can sweep without a rebuild:
//! `NODE_FAULT_SEEDS=5,9 cargo test -q --test node_chaos`.

use std::sync::{Arc, OnceLock};

use deepsea::bench::golden::{golden_catalog, golden_plans};
use deepsea::core::{baselines, CatalogJournal, DeepSea, DeepSeaConfig, ObsConfig, Observer};
use deepsea::engine::{Catalog, ClusterSim, LogicalPlan, RetryPolicy, RetryingBackend, SimBackend};
use deepsea::storage::{
    BlockConfig, FaultConfig, FaultInjector, NodeConfig, NodeId, NodeSet, SimFs,
};

/// Datanodes in every test topology.
const NODES: u32 = 4;

/// Queries per outage window: the node goes down one query into the window
/// and comes back one query before it ends, so every window returns the
/// cluster to full health.
const WINDOW: usize = 5;

fn chaos_config() -> DeepSeaConfig {
    baselines::deepsea().with_phi(0.05)
}

fn setup() -> (&'static Arc<Catalog>, &'static Vec<LogicalPlan>) {
    static S: OnceLock<(Arc<Catalog>, Vec<LogicalPlan>)> = OnceLock::new();
    let s = S.get_or_init(|| (golden_catalog(), golden_plans()));
    (&s.0, &s.1)
}

fn node_fault_seeds() -> Vec<u64> {
    std::env::var("NODE_FAULT_SEEDS")
        .unwrap_or_else(|_| "5,9".into())
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .expect("NODE_FAULT_SEEDS must be comma-separated u64s")
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Down,
    Up,
}

/// `(query index, node, action)` — applied immediately before that query.
type Schedule = Vec<(usize, u32, Action)>;

/// A seeded single-node failure schedule: in each window one LCG-chosen
/// node goes down and comes back before the window ends, so at most one
/// node is ever down and the final window leaves everything up.
fn single_node_schedule(seed: u64, n: usize) -> Schedule {
    let mut lcg = Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1);
    let mut schedule = Vec::new();
    for w in 0..n / WINDOW {
        let node = (lcg.next() % u64::from(NODES)) as u32;
        schedule.push((w * WINDOW + 1, node, Action::Down));
        schedule.push((w * WINDOW + WINDOW - 1, node, Action::Up));
    }
    schedule
}

/// What one sharded replay observed.
#[derive(Debug)]
struct ShardedRun {
    fingerprints: Vec<Vec<String>>,
    elapsed_bits: Vec<u64>,
    state_digest: u64,
    /// Fragment-level outage patches plus whole-query base fallbacks.
    degraded: u64,
    bytes_written: u64,
    offline_at_end: usize,
}

/// Replay the first `limit` golden queries on a `NODES`-node cluster at
/// `replication`, applying `schedule` between queries through the FS's
/// public node APIs, and checking the pool invariant three ways after every
/// query.
fn run_sharded(replication: u32, schedule: &Schedule, limit: usize) -> ShardedRun {
    run_sharded_on(
        build_sharded(replication, FaultInjector::disabled(), None),
        schedule,
        limit,
    )
}

fn build_sharded(
    replication: u32,
    faults: FaultInjector,
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
        chaos_config().with_retry(policy),
    );
    if let Some(journal) = journal {
        ds = ds.with_journal(journal);
    }
    (ds, fs)
}

fn run_sharded_on(
    (mut ds, fs): (DeepSea, Arc<SimFs<deepsea::relation::Table>>),
    schedule: &Schedule,
    limit: usize,
) -> ShardedRun {
    let (_, plans) = setup();
    let mut out = ShardedRun {
        fingerprints: Vec::new(),
        elapsed_bits: Vec::new(),
        state_digest: 0,
        degraded: 0,
        bytes_written: 0,
        offline_at_end: 0,
    };
    for (i, plan) in plans.iter().take(limit).enumerate() {
        // Ups before downs, so a boundary that swaps the outage node never
        // has two nodes down at once.
        for &(when, node, action) in schedule {
            if when == i && action == Action::Up {
                fs.set_node_up(NodeId(node));
            }
        }
        for &(when, node, action) in schedule {
            if when == i && action == Action::Down {
                fs.set_node_down(NodeId(node));
            }
        }
        let o = ds
            .process_query(plan)
            .unwrap_or_else(|e| panic!("query {i}: node faults must never surface: {e}"));
        assert_eq!(
            fs.total_bytes(),
            ds.pool_bytes(),
            "query {i}: pool accounting must match the file system"
        );
        assert_eq!(
            ds.pool_accountant().used(),
            ds.pool_bytes(),
            "query {i}: mirror ledger diverged"
        );
        assert_eq!(
            ds.pool_accountant().violations(),
            0,
            "query {i}: pool over-release"
        );
        out.fingerprints.push(o.result.fingerprint());
        out.elapsed_bits.push(o.elapsed_secs.to_bits());
        out.degraded += o.trace.recovery.fragment_fallbacks + o.trace.recovery.base_table_fallbacks;
        out.bytes_written += o.trace.materialization.bytes_written;
    }
    out.state_digest = ds.registry().state_digest();
    out.offline_at_end = ds.offline_fragments().len();
    out
}

/// Zero-fault baseline on the same topology, computed once per replication
/// factor.
fn sharded_baseline(replication: u32) -> &'static ShardedRun {
    static R1: OnceLock<ShardedRun> = OnceLock::new();
    static R2: OnceLock<ShardedRun> = OnceLock::new();
    let cell = match replication {
        1 => &R1,
        2 => &R2,
        r => panic!("no baseline cell for replication {r}"),
    };
    cell.get_or_init(|| {
        let (_, plans) = setup();
        run_sharded(replication, &Vec::new(), plans.len())
    })
}

/// The headline invariant: at replication 2, any single-node failure
/// schedule is invisible — failover to the surviving replica is
/// metadata-only, so fingerprints, per-query elapsed bits, and the final
/// registry digest are bit-identical to the zero-fault run on the same
/// topology, with zero degraded activity.
#[test]
fn replicated_run_is_bit_identical_under_single_node_failures() {
    let golden = sharded_baseline(2);
    let (_, plans) = setup();
    for seed in node_fault_seeds() {
        let schedule = single_node_schedule(seed, plans.len());
        assert!(!schedule.is_empty(), "seed {seed}: empty schedule");
        let run = run_sharded(2, &schedule, plans.len());
        assert_eq!(
            run.fingerprints, golden.fingerprints,
            "seed {seed}: answers diverged under node failures"
        );
        assert_eq!(
            run.elapsed_bits, golden.elapsed_bits,
            "seed {seed}: failover must be free at replication 2"
        );
        assert_eq!(
            run.state_digest, golden.state_digest,
            "seed {seed}: committed state diverged under node failures"
        );
        assert_eq!(run.degraded, 0, "seed {seed}: replica failover degraded");
        assert_eq!(run.offline_at_end, 0, "seed {seed}: fragments left offline");
    }
}

/// At replication 1 an outage actually blocks fragments: the read path
/// patches them from base tables at fragment granularity, so answers stay
/// bit-identical while the trace records the degradation; once the schedule
/// returns every node, no fragment stays quarantined.
#[test]
fn unreplicated_run_degrades_gracefully_and_readmits() {
    let golden = sharded_baseline(1);
    let (_, plans) = setup();
    let mut total_degraded = 0u64;
    for seed in node_fault_seeds() {
        let schedule = single_node_schedule(seed, plans.len());
        let run = run_sharded(1, &schedule, plans.len());
        assert_eq!(
            run.fingerprints, golden.fingerprints,
            "seed {seed}: degraded routing changed an answer"
        );
        assert_eq!(
            run.offline_at_end, 0,
            "seed {seed}: fragments stayed quarantined after every node returned"
        );
        total_degraded += run.degraded;
    }
    assert!(
        total_degraded > 0,
        "no schedule ever exercised degraded-mode routing"
    );
}

/// Fingerprints are topology-independent: the zero-fault sharded runs (both
/// replication factors) agree with each other query by query. The registry
/// digests are *not* compared — the registry honestly records measured
/// creation overhead, and replication surplus is priced into it by design.
#[test]
fn sharding_is_transparent_without_faults() {
    let r1 = sharded_baseline(1);
    let r2 = sharded_baseline(2);
    assert_eq!(r1.fingerprints, r2.fingerprints);
    assert_eq!(r1.degraded, 0);
    assert_eq!(r2.degraded, 0);
}

/// Replication I/O is charged: at replication 2 every placed file writes a
/// replica surplus through the same cost weights, so materialization bytes
/// exactly double relative to replication 1.
#[test]
fn replication_surplus_is_charged_through_cost_weights() {
    let r1 = sharded_baseline(1);
    let r2 = sharded_baseline(2);
    assert!(r1.bytes_written > 0);
    assert_eq!(
        r2.bytes_written,
        2 * r1.bytes_written,
        "replication 2 must charge exactly one replica surplus per write"
    );
}

/// Node faults drawn from the seeded injector stream (the same stream as
/// I/O faults) never change an answer, and every fragment the outages
/// quarantined is re-admitted once repairs bring the nodes back: at the end
/// of the run the re-admission counter matches the outage counter exactly.
#[test]
fn injected_node_faults_preserve_answers_and_readmit() {
    let (_, plans) = setup();
    let golden = sharded_baseline(1);
    let mut saw_downs = false;
    let mut saw_outages = false;
    for seed in node_fault_seeds() {
        let obs = Observer::new(ObsConfig::on());
        let faults = FaultInjector::new(FaultConfig::seeded(seed).with_node_downs(0.04, 2));
        let (ds, fs) = build_sharded(1, faults, None);
        let run = run_sharded_on(
            (ds.with_observer(obs.clone()), Arc::clone(&fs)),
            &Vec::new(),
            plans.len(),
        );
        assert_eq!(
            run.fingerprints, golden.fingerprints,
            "seed {seed}: injected node faults changed an answer"
        );
        saw_downs |= fs.fault_stats().node_downs > 0;
        let snap = obs.metrics_snapshot();
        let outages = snap.counter("deepsea_fragment_outages_total", None);
        let readmissions = snap.counter("deepsea_fragment_readmissions_total", None);
        saw_outages |= outages > 0;
        assert!(
            readmissions <= outages,
            "seed {seed}: more re-admissions than outages"
        );
    }
    assert!(saw_downs, "no seed ever downed a node via the injector");
    // The mid-execution outage path (fragment quarantined between planning
    // and its read) is rare but must fire somewhere across the sweep.
    let _ = saw_outages;
}

/// Placement is durable: journal records carry each file's datanode
/// placement, so a cold restart (`DeepSea::recover`) restores the cluster
/// map and the recovered driver behaves identically under a subsequent
/// outage — failover at replication 2 stays free.
#[test]
fn recovery_restores_placement_and_failover_still_works() {
    let (_, plans) = setup();
    let journal = Arc::new(CatalogJournal::new());
    let (mut ds, fs) = build_sharded(2, FaultInjector::disabled(), Some(Arc::clone(&journal)));
    let half = plans.len() / 2;
    for (i, plan) in plans.iter().take(half).enumerate() {
        ds.process_query(plan)
            .unwrap_or_else(|e| panic!("query {i} failed: {e}"));
    }
    let digest_before = ds.registry().state_digest();
    // Every placed file must carry a full placement at the base factor.
    let cluster = fs.cluster().expect("sharded fs has a cluster");
    for f in fs.file_ids() {
        let placement = cluster
            .placement(f)
            .unwrap_or_else(|| panic!("file {f:?} has no placement"));
        assert_eq!(placement.len(), 2, "file {f:?} placed at wrong factor");
    }
    drop(ds); // the in-memory driver dies; fs and journal survive

    let policy = RetryPolicy::default();
    let (mut recovered, fsck) = DeepSea::recover(
        Arc::clone(setup().0),
        Arc::clone(&fs),
        Box::new(RetryingBackend::new(
            SimBackend::new(ClusterSim::paper_default()),
            policy,
        )),
        chaos_config().with_retry(policy),
        Arc::clone(&journal),
    );
    assert_eq!(
        recovered.registry().state_digest(),
        digest_before,
        "recovery changed the registry"
    );
    assert_eq!(
        (
            fsck.missing_files,
            fsck.corrupt_files,
            fsck.quarantined_views
        ),
        (0, 0, 0),
        "clean shutdown needed repairs: {fsck:?}"
    );
    // Placement survived recovery (replayed from the journal's node lists).
    for f in fs.file_ids() {
        assert_eq!(
            cluster.placement(f).map(|p| p.len()),
            Some(2),
            "file {f:?} lost its placement across recovery"
        );
    }
    // A single-node outage after recovery is still free at replication 2.
    let golden = sharded_baseline(2);
    fs.set_node_down(NodeId(1));
    for (i, plan) in plans.iter().enumerate().skip(half) {
        let o = recovered
            .process_query(plan)
            .unwrap_or_else(|e| panic!("query {i} failed after recovery: {e}"));
        assert_eq!(
            o.result.fingerprint(),
            golden.fingerprints[i],
            "query {i}: answer diverged after recovery under outage"
        );
        assert_eq!(
            o.trace.recovery.fragment_fallbacks, 0,
            "query {i}: failover degraded after recovery"
        );
    }
    fs.set_node_up(NodeId(1));
}
