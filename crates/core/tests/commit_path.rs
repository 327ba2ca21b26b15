//! Live state equals replayed state, after every commit.
//!
//! The write path changes the catalog only by applying the record it
//! journals (`DeepSea::commit`), so at any commit point a cold-start replay
//! of the journal must rebuild exactly the live registry. The chaos suites
//! check that once per crash; here it is checked after *every* query, with a
//! statistics checkpoint per query so that the directly-written statistics
//! are in the journal too, under three regimes that between them send every
//! record kind through `commit`.

use std::collections::HashSet;
use std::mem::{discriminant, Discriminant};
use std::sync::Arc;

use deepsea_core::durability::replay_catalog;
use deepsea_core::{
    baselines, CatalogJournal, CatalogRecord, DeepSea, DeepSeaConfig, ObsConfig, Observer,
};
use deepsea_engine::{Catalog, ClusterSim, LogicalPlan, RetryPolicy, RetryingBackend, SimBackend};
use deepsea_relation::Table;
use deepsea_storage::{BlockConfig, FaultConfig, FaultInjector, NodeConfig, NodeSet, SimFs};
use deepsea_workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea_workload::sdss::sdss_like_histogram;
use deepsea_workload::sequences::{fig5_workload, item_domain};

type Kinds = HashSet<Discriminant<CatalogRecord>>;

/// The 100 GB BigBench-like instance the wall-clock benchmark runs on.
fn data() -> Arc<Catalog> {
    let (lo, hi) = item_domain();
    let dist = ItemDistribution::Histogram(sdss_like_histogram(lo, hi));
    Arc::new(BigBenchData::generate(InstanceSize::Gb100, &dist, 1).catalog)
}

/// Commit `plans` one by one on a journaled driver — running the §11 merge
/// pass every `merge_every` queries (0 = never) — and after every query
/// assert that replaying the journal rebuilds the live registry and that the
/// mirror pool ledger agrees with it. Returns the record kinds journaled.
fn commit_and_replay(
    catalog: &Arc<Catalog>,
    fs: Arc<SimFs<Table>>,
    config: DeepSeaConfig,
    obs: Observer,
    plans: &[LogicalPlan],
    merge_every: usize,
) -> Kinds {
    let journal = Arc::new(CatalogJournal::new());
    let policy = RetryPolicy::default();
    let backend = RetryingBackend::new(SimBackend::new(ClusterSim::paper_default()), policy);
    // A checkpoint per query; a snapshot every 40, so replay starts from a
    // snapshot as often as from an empty registry.
    let config = config.with_retry(policy).with_journal_cadence(1, 40);
    let mut ds = DeepSea::with_backend(Arc::clone(catalog), fs, Box::new(backend), config)
        .with_journal(Arc::clone(&journal))
        .with_observer(obs);
    let mut kinds = Kinds::new();
    for (i, plan) in plans.iter().enumerate() {
        ds.process_query(plan)
            .unwrap_or_else(|e| panic!("query {i}: views never gate an answer: {e}"));
        let (snapshot, records) = journal.replay();
        kinds.extend(records.iter().map(|(_, r)| discriminant(r)));
        let (replayed, clock) = replay_catalog(snapshot.map(|(_, s)| s), &records);
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
        if merge_every > 0 && (i + 1) % merge_every == 0 {
            ds.merge_cohit_fragments(0.5, 0.5).expect("merge pass");
        }
    }
    kinds
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

    // (a) Progressive DS under pool pressure, with merges: tracking,
    // partitioned materialization, refinement, planned and forced eviction.
    let churn = baselines::deepsea().with_phi(0.05).with_smax(base / 40);
    kinds.extend(commit_and_replay(
        &catalog,
        plain_fs(),
        churn,
        Observer::off(),
        &plans[..150],
        25,
    ));

    // (b) NP: whole-view materialization and eviction.
    let np = baselines::non_partitioned().with_smax(base / 4);
    kinds.extend(commit_and_replay(
        &catalog,
        plain_fs(),
        np,
        Observer::off(),
        &plans[..100],
        0,
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
        25,
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
