//! Live state equals replayed state, after every commit.
//!
//! The write path changes the catalog only by applying the record it
//! journals (`DeepSea::commit`), so at any commit point a cold-start replay
//! of the journal must rebuild exactly the live registry. The chaos suites
//! check that once per crash; here it is checked after *every* query, with a
//! statistics checkpoint per query so that the directly-written statistics
//! are in the journal too, under three regimes that between them send every
//! record kind through `commit`. Replay goes one record at a time, and
//! after each the partitions of the view it names must keep an index equal
//! to one recomputed from their fragments; so must every partition of the
//! live registry after every query. With checkpoints further apart, replay
//! must rebuild the live statistics ledger at every checkpoint — and only
//! there, once a query since has recorded statistics. Replay of a damaged
//! log (torn, with a duplicated record, with two records swapped) must
//! return, and return the same state every time.

use std::collections::HashSet;
use std::mem::{discriminant, Discriminant};
use std::sync::{Arc, OnceLock};

use deepsea_core::durability::{replay_catalog, CatalogSnapshot};
use deepsea_core::registry::ViewRegistry;
use deepsea_core::stats::LogicalTime;
use deepsea_core::{
    baselines, CatalogJournal, CatalogRecord, DeepSea, DeepSeaConfig, ObsConfig, Observer,
};
use deepsea_engine::{Catalog, ClusterSim, LogicalPlan, SimBackend};
use deepsea_relation::Table;
use deepsea_storage::{BlockConfig, FaultConfig, FaultInjector, Lsn, NodeConfig, NodeSet, SimFs};
use deepsea_workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea_workload::sdss::sdss_like_histogram;
use deepsea_workload::sequences::{fig5_workload, item_domain};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

type Kinds = HashSet<Discriminant<CatalogRecord>>;

/// The 100 GB BigBench-like instance the wall-clock benchmark runs on.
fn data() -> Arc<Catalog> {
    let (lo, hi) = item_domain();
    let dist = ItemDistribution::Histogram(sdss_like_histogram(lo, hi));
    Arc::new(BigBenchData::generate(InstanceSize::Gb100, &dist, 1).catalog)
}

/// Commit `plans` one by one on a journaled driver, and after every query
/// assert that replaying the journal rebuilds the live registry and that the
/// mirror pool ledger agrees with it. Returns the record kinds journaled.
fn commit_and_replay(
    catalog: &Arc<Catalog>,
    fs: Arc<SimFs<Table>>,
    config: DeepSeaConfig,
    obs: Observer,
    plans: &[LogicalPlan],
) -> Kinds {
    let journal = Arc::new(CatalogJournal::new());
    let backend = SimBackend::new(ClusterSim::paper_default());
    // A checkpoint per query; a snapshot every 40, so replay starts from a
    // snapshot as often as from an empty registry.
    let config = config.with_journal_cadence(1, 40);
    let mut ds = DeepSea::with_backend(Arc::clone(catalog), fs, Box::new(backend), config)
        .with_journal(Arc::clone(&journal))
        .with_observer(obs);
    let mut kinds = Kinds::new();
    for (i, plan) in plans.iter().enumerate() {
        ds.process_query(plan)
            .unwrap_or_else(|e| panic!("query {i}: views never gate an answer: {e}"));
        let (snapshot, records) = journal.replay();
        kinds.extend(records.iter().map(|(_, r)| discriminant(r)));
        let (replayed, clock) = replay_checking_indexes(snapshot.map(|(_, s)| s), &records);
        assert_indexes_consistent(ds.registry(), None, &format!("query {i}, live"));
        assert_eq!(clock, ds.clock(), "query {i}: replayed clock");
        assert_eq!(
            replayed.state_digest(),
            ds.registry().state_digest(),
            "query {i}: replaying the journal does not rebuild the live registry"
        );
        assert_eq!(
            ds.pool_accountant().used(),
            ds.pool_bytes(),
            "query {i}: mirror ledger diverged"
        );
        assert_eq!(ds.pool_accountant().violations(), 0, "query {i}");
    }
    kinds
}

/// [`replay_catalog`] one record at a time, asserting after each that the
/// partitions of the view it names keep a consistent index.
fn replay_checking_indexes(
    snapshot: Option<CatalogSnapshot>,
    records: &[(Lsn, CatalogRecord)],
) -> (ViewRegistry, LogicalTime) {
    let (mut registry, mut clock) =
        snapshot.map_or((ViewRegistry::new(), 0), |s| (s.registry, s.clock));
    for entry in records {
        (registry, clock) = replay_catalog(
            Some(CatalogSnapshot { registry, clock }),
            std::slice::from_ref(entry),
        );
        let (lsn, record) = entry;
        let view = match record {
            CatalogRecord::ViewRegistered { sig, .. } => Some(sig.canonical_key()),
            CatalogRecord::PartitionTracked { view, .. }
            | CatalogRecord::BoundaryAdded { view, .. }
            | CatalogRecord::FragmentTracked { view, .. }
            | CatalogRecord::ViewMaterialized { view, .. }
            | CatalogRecord::FragmentMaterialized { view, .. }
            | CatalogRecord::ViewStatsMeasured { view, .. }
            | CatalogRecord::ViewEvicted { view }
            | CatalogRecord::FragmentEvicted { view, .. }
            | CatalogRecord::ViewQuarantined { view, .. } => Some(view.clone()),
            CatalogRecord::StatsCheckpoint { .. } | CatalogRecord::QueryCommitted { .. } => None,
        };
        if let Some(vid) = view.and_then(|key| registry.by_key(&key)) {
            assert_indexes_consistent(&registry, Some(vid), &format!("after {lsn:?}: {record:?}"));
        }
    }
    (registry, clock)
}

/// Every partition of `view` — of every view when `None` — keeps an index
/// equal to one recomputed from its fragments.
fn assert_indexes_consistent(
    registry: &ViewRegistry,
    view: Option<deepsea_core::filter_tree::ViewId>,
    at: &str,
) {
    let views = registry.iter().filter(|v| view.is_none_or(|id| v.id == id));
    for v in views {
        for ps in v.partitions.values() {
            assert!(
                ps.index_is_consistent(),
                "{at}: the index of {}.{} drifted from its fragments",
                v.name,
                ps.attr
            );
        }
    }
}

fn plain_fs() -> Arc<SimFs<Table>> {
    let cluster = ClusterSim::paper_default();
    Arc::new(SimFs::new(BlockConfig::default(), cluster.weights))
}

#[test]
fn replay_rebuilds_the_live_registry_after_every_commit() {
    let catalog = data();
    let plans = fig5_workload(600, 42);
    let base = catalog.total_base_bytes();
    let mut kinds = Kinds::new();

    // (a) Progressive DS under pool pressure: tracking,
    // partitioned materialization, refinement, planned and forced eviction.
    let churn = baselines::deepsea().with_phi(0.05).with_smax(base / 40);
    kinds.extend(commit_and_replay(
        &catalog,
        plain_fs(),
        churn,
        Observer::off(),
        &plans[..150],
    ));

    // (b) NP: whole-view materialization and eviction.
    let np = baselines::non_partitioned().with_smax(base / 4);
    kinds.extend(commit_and_replay(
        &catalog,
        plain_fs(),
        np,
        Observer::off(),
        &plans[..100],
    ));

    // (c) Horizontal refinement on an unreplicated cluster under seeded I/O
    // faults: split remainders, whole-view quarantines and re-admissions,
    // and fragments lost with their last replica.
    let cluster = ClusterSim::paper_default();
    let faults = FaultConfig::seeded(7)
        .with_transient_reads(0.12)
        .with_permanent_loss(0.05)
        .with_transient_writes(0.10)
        .with_latency_spikes(0.05, 2.0);
    let fs = Arc::new(SimFs::with_cluster(
        BlockConfig::default(),
        cluster.weights,
        FaultInjector::new(faults),
        NodeSet::new(NodeConfig::new(4, 1)),
    ));
    let obs = Observer::new(ObsConfig::on());
    let faulted = baselines::horizontal_only()
        .with_phi(0.05)
        .with_smax(base / 10);
    kinds.extend(commit_and_replay(
        &catalog,
        fs,
        faulted,
        obs.clone(),
        &plans[..150],
    ));
    let counters = obs.metrics_snapshot();
    assert!(
        counters.counter("deepsea_quarantines_total", None) > 0,
        "the fault schedule quarantined no view"
    );
    assert!(
        counters.counter("deepsea_fragment_losses_total", None) > 0,
        "the fault schedule lost no single fragment"
    );

    assert_eq!(kinds.len(), 12, "a record kind never reached `commit`");
}

/// The statistics every query records live only in the writer's ledger
/// until a checkpoint journals them. With a checkpoint every fifth query,
/// replaying the journal rebuilds the live registry — ledger included,
/// compared through `state_digest` — right after each checkpoint, and
/// falls short of it after a query since that recorded statistics: the
/// digest sees the ledger.
#[test]
fn replay_reproduces_the_live_ledger_at_every_checkpoint() {
    let catalog = data();
    let base = catalog.total_base_bytes();
    let config = baselines::deepsea()
        .with_phi(0.05)
        .with_smax(base / 40)
        .with_journal_cadence(5, 40);
    let journal = Arc::new(CatalogJournal::new());
    let backend = SimBackend::new(ClusterSim::paper_default());
    let mut ds = DeepSea::with_backend(Arc::clone(&catalog), plain_fs(), Box::new(backend), config)
        .with_journal(Arc::clone(&journal));
    let (mut checkpoints, mut behind) = (0, 0);
    let mut recorded_since_checkpoint = false;
    for (i, plan) in fig5_workload(600, 42)[..150].iter().enumerate() {
        let out = ds
            .process_query(plan)
            .unwrap_or_else(|e| panic!("query {i}: views never gate an answer: {e}"));
        let (snapshot, records) = journal.replay();
        let (replayed, _) = replay_catalog(snapshot.map(|(_, s)| s), &records);
        let live = ds.registry().state_digest();
        if ds.clock().is_multiple_of(5) {
            checkpoints += 1;
            recorded_since_checkpoint = false;
            assert_eq!(
                replayed.state_digest(),
                live,
                "query {i}: replay at a checkpoint does not rebuild the live ledger"
            );
        } else {
            recorded_since_checkpoint |= out.trace.matching.views_updated > 0;
            if recorded_since_checkpoint {
                behind += 1;
                assert_ne!(
                    replayed.state_digest(),
                    live,
                    "query {i}: statistics recorded since the checkpoint are not in the digest"
                );
            }
        }
    }
    assert_eq!(checkpoints, 30);
    assert!(behind > 50, "only {behind} queries recorded statistics");
}

type Log = Vec<(Lsn, CatalogRecord)>;

/// The whole journal of one 100-query run under pool pressure: a checkpoint
/// per query and no snapshot, so the log holds every record from the first.
fn recorded_log() -> &'static Log {
    static LOG: OnceLock<Log> = OnceLock::new();
    LOG.get_or_init(|| {
        let catalog = data();
        let base = catalog.total_base_bytes();
        let config = baselines::deepsea()
            .with_phi(0.05)
            .with_smax(base / 40)
            .with_journal_cadence(1, 1000);
        let journal = Arc::new(CatalogJournal::new());
        let backend = SimBackend::new(ClusterSim::paper_default());
        let mut ds = DeepSea::with_backend(catalog, plain_fs(), Box::new(backend), config)
            .with_journal(Arc::clone(&journal));
        for (i, plan) in fig5_workload(100, 42).iter().enumerate() {
            ds.process_query(plan)
                .unwrap_or_else(|e| panic!("query {i}: views never gate an answer: {e}"));
        }
        let (snapshot, records) = journal.replay();
        assert!(snapshot.is_none(), "a snapshot truncated the log");
        records
    })
}

/// Replay 200 logs, each `damage` applied to the recorded one with a fresh
/// random index: every replay returns, and replaying the same damaged log
/// twice gives one state.
fn replay_damaged(seed: u64, damage: impl Fn(&mut Log, &mut StdRng) -> String) {
    let log = recorded_log();
    assert!(
        log.len() > 200,
        "the run journaled only {} records",
        log.len()
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..200 {
        let mut damaged = log.clone();
        let what = damage(&mut damaged, &mut rng);
        let (first, clock) = replay_catalog(None, &damaged);
        let (second, clock_again) = replay_catalog(None, &damaged);
        assert_eq!(clock, clock_again, "{what}");
        assert_eq!(first.state_digest(), second.state_digest(), "{what}");
    }
}

#[test]
fn replay_of_a_torn_log_returns_one_state() {
    replay_damaged(1, |log, rng| {
        let cut = rng.random_range(0..=log.len());
        log.truncate(cut);
        format!("log torn after {cut} records")
    });
}

#[test]
fn replay_of_a_log_with_a_duplicated_record_returns_one_state() {
    replay_damaged(2, |log, rng| {
        let i = rng.random_range(0..log.len());
        log.insert(i + 1, log[i].clone());
        format!("record {i} duplicated")
    });
}

#[test]
fn replay_of_a_log_with_swapped_neighbours_returns_one_state() {
    replay_damaged(3, |log, rng| {
        let i = rng.random_range(0..log.len() - 1);
        log.swap(i, i + 1);
        format!("records {i} and {} swapped", i + 1)
    });
}
