//! One computation per plan: a commit finds its read's execution in the
//! backend's memo, and its read's matching and rewriting in the driver's.
//!
//! Under the ticket protocol a query is read from the published snapshot
//! (`ReadSnapshot::answer`) and then committed (`DeepSea::process_query`).
//! The snapshot's backend is a fork of the driver's, and the simulated
//! backend's forks share one memo of executed plans, so the commit of the
//! plan its read ran replays that plan's reads instead of computing it.
//! Here every committed outcome, the final state digest and the journal
//! stream of that protocol are checked bit for bit against commits with no
//! read at all, on a plain file system and on a sharded one behind an
//! enabled fault injector, and the commit's result is checked to be the
//! read's, column for column. A query whose view lost its files is
//! answered by the one base-table fallback the read and the commit share;
//! that path is checked on the snapshot, the serial commit, both servers
//! and the span trace. The commit adopts its read's rewriting only in the
//! world the read computed it in: with a node downed between the two, after
//! a read on a stale snapshot, and after a read that lost a file for good,
//! the commit still equals one made with no read at all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use deepsea_core::{
    baselines, CatalogJournal, DeepSea, DeepSeaConfig, ObsConfig, Observer, QueryOutcome,
    ReadSnapshot, ServerConfig, ShedPolicy, SnapshotAnswer, ViewServer,
};
use deepsea_engine::exec::{ExecError, ExecMetrics};
use deepsea_engine::{Catalog, ClusterSim, ExecutionBackend, LogicalPlan, SimBackend};
use deepsea_relation::Table;
use deepsea_storage::{
    BlockConfig, FaultConfig, FaultInjector, FileId, HedgeConfig, NodeConfig, NodeId, NodeSet,
    NodeState, SimFs,
};
use deepsea_workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea_workload::sdss::sdss_like_histogram;
use deepsea_workload::sequences::{fig5_workload, item_domain};

/// Counts `execute` calls of a backend and of every reader forked from it
/// on one shared counter; everything else is forwarded unchanged.
struct CountingBackend {
    inner: Box<dyn ExecutionBackend>,
    calls: Arc<AtomicU64>,
}

impl ExecutionBackend for CountingBackend {
    fn execute(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        fs: &SimFs<Table>,
    ) -> Result<(Table, ExecMetrics), ExecError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.execute(plan, catalog, fs)
    }

    fn elapsed_secs(&self, metrics: &ExecMetrics) -> f64 {
        self.inner.elapsed_secs(metrics)
    }

    fn scan_secs(&self, bytes: u64, block_bytes: u64) -> f64 {
        self.inner.scan_secs(bytes, block_bytes)
    }

    fn write_secs(&self, bytes: u64, files: u64) -> f64 {
        self.inner.write_secs(bytes, files)
    }

    fn cluster(&self) -> &ClusterSim {
        self.inner.cluster()
    }

    fn fork_reader(&self) -> Option<Box<dyn ExecutionBackend>> {
        Some(Box::new(CountingBackend {
            inner: self.inner.fork_reader()?,
            calls: Arc::clone(&self.calls),
        }))
    }
}

/// The 100 GB BigBench-like instance the wall-clock benchmark runs on.
fn data() -> Arc<Catalog> {
    let (lo, hi) = item_domain();
    let dist = ItemDistribution::Histogram(sdss_like_histogram(lo, hi));
    Arc::new(BigBenchData::generate(InstanceSize::Gb100, &dist, 1).catalog)
}

fn plain_fs() -> Arc<SimFs<Table>> {
    let cluster = ClusterSim::paper_default();
    Arc::new(SimFs::new(BlockConfig::default(), cluster.weights))
}

/// Everything a committed outcome reports, bit for bit: floats by their
/// bits, the result by its fingerprint, the trace by its `Debug`.
fn pin(out: &QueryOutcome) -> String {
    format!(
        "{:?}",
        (
            out.result.fingerprint(),
            out.elapsed_secs.to_bits(),
            out.query_secs.to_bits(),
            out.creation_secs.to_bits(),
            &out.used_view,
            &out.materialized,
            &out.evicted,
            &out.quarantined,
            out.metrics,
            out.metrics.penalty_secs.to_bits(),
            &out.trace,
        )
    )
}

/// A driver over a counting backend.
struct Rig {
    ds: DeepSea,
    calls: Arc<AtomicU64>,
    journal: Option<Arc<CatalogJournal>>,
}

impl Rig {
    fn new(
        catalog: &Arc<Catalog>,
        fs: Arc<SimFs<Table>>,
        config: DeepSeaConfig,
        journaled: bool,
    ) -> Self {
        let calls = Arc::new(AtomicU64::new(0));
        let backend = CountingBackend {
            inner: Box::new(SimBackend::new(ClusterSim::paper_default())),
            calls: Arc::clone(&calls),
        };
        let mut ds = DeepSea::with_backend(Arc::clone(catalog), fs, Box::new(backend), config);
        let journal = journaled.then(|| Arc::new(CatalogJournal::new()));
        if let Some(journal) = &journal {
            ds = ds.with_journal(Arc::clone(journal));
        }
        Self { ds, calls, journal }
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Commit `plan`; returns the backend calls the commit made and its
    /// pinned outcome.
    fn commit(&mut self, plan: &LogicalPlan) -> (u64, String) {
        let before = self.calls();
        let out = self.ds.process_query(plan).expect("fault-free commit");
        (self.calls() - before, pin(&out))
    }

    /// Read `plan` from a freshly published snapshot, then commit it.
    fn read_then_commit(&mut self, plan: &LogicalPlan) -> (u64, String) {
        let snapshot = self.ds.publish_snapshot().expect("the backend forks");
        let answer = snapshot.answer(plan).expect("fault-free read");
        let (calls, pinned) = self.commit(plan);
        assert!(
            pinned.starts_with(&format!("({:?}", answer.result.fingerprint())),
            "the read and its commit disagree on the answer"
        );
        (calls, pinned)
    }

    fn journal_stream(&self) -> Vec<String> {
        let Some(journal) = &self.journal else {
            return Vec::new();
        };
        let (snapshot, records) = journal.replay();
        assert!(snapshot.is_none(), "a snapshot truncated the stream");
        records.iter().map(|(_, r)| format!("{r:?}")).collect()
    }
}

/// Commits `plans` alone on one driver and read-then-commit on another,
/// both over a file system `fs()` builds, and checks every outcome, the
/// backend calls of every commit, the final state and the journal stream.
/// Returns the driver that read.
fn check_read_then_commit(
    name: &str,
    catalog: &Arc<Catalog>,
    plans: &[LogicalPlan],
    fs: &dyn Fn() -> Arc<SimFs<Table>>,
    config: DeepSeaConfig,
    journaled: bool,
) -> Rig {
    let mut solo = Rig::new(catalog, fs(), config, journaled);
    let mut ticket = Rig::new(catalog, fs(), config, journaled);
    for (i, plan) in plans.iter().enumerate() {
        let (solo_calls, solo_out) = solo.commit(plan);
        let (ticket_calls, ticket_out) = ticket.read_then_commit(plan);
        assert_eq!(solo_out, ticket_out, "{name}, query {i}: outcomes differ");
        assert_eq!(
            ticket_calls, solo_calls,
            "{name}, query {i}: the read changed its commit's backend calls"
        );
    }
    assert_eq!(
        solo.ds.registry().state_digest(),
        ticket.ds.registry().state_digest(),
        "{name}: final state"
    );
    assert_eq!(
        solo.journal_stream(),
        ticket.journal_stream(),
        "{name}: journal stream"
    );
    if journaled {
        assert!(!solo.journal_stream().is_empty());
    }
    ticket
}

#[test]
fn read_then_commit_is_bit_identical_to_commit_alone() {
    let catalog = data();
    let plans = fig5_workload(120, 42);
    let base = catalog.total_base_bytes();
    let configs = [
        ("hive", baselines::hive(), false),
        ("deepsea", baselines::deepsea().with_phi(0.05), false),
        (
            "deepsea smax=base/40, journaled",
            baselines::deepsea()
                .with_phi(0.05)
                .with_smax(base / 40)
                .with_journal_cadence(1, u64::MAX),
            true,
        ),
    ];
    for (name, config, journaled) in configs {
        check_read_then_commit(name, &catalog, &plans, &plain_fs, config, journaled);
    }
}

/// What changes both worlds between a read and the commits — see
/// [`check_commits_after_reads`].
type Between<'a> = dyn FnMut(&SnapshotAnswer, &[FileId], &Rig, &Rig) -> bool + 'a;

/// Two drivers over file systems `fs()` builds commit `plans`: `solo`
/// alone, `ticket` after reading each plan from the snapshot it published
/// `lag` commits earlier. Between that read and the commits,
/// `between(read, lost, solo, ticket)` changes both worlds alike — `lost`
/// are the files the read lost — and reports whether it changed anything.
/// Every outcome, every commit's backend calls, the final state and the
/// journal stream (a checkpoint per query, no snapshot) must agree.
/// Returns how many commits followed a change.
fn check_commits_after_reads(
    name: &str,
    catalog: &Arc<Catalog>,
    plans: &[LogicalPlan],
    fs: &dyn Fn() -> Arc<SimFs<Table>>,
    config: DeepSeaConfig,
    lag: usize,
    between: &mut Between,
) -> usize {
    let config = config.with_journal_cadence(1, u64::MAX);
    let mut solo = Rig::new(catalog, fs(), config, true);
    let mut ticket = Rig::new(catalog, fs(), config, true);
    let mut published: Vec<ReadSnapshot> = Vec::new();
    let mut changed = 0;
    for (i, plan) in plans.iter().enumerate() {
        published.push(ticket.ds.publish_snapshot().expect("the backend forks"));
        let snapshot = &published[published.len().saturating_sub(lag + 1)];
        let before = ticket.ds.fs().file_ids();
        let read = snapshot.answer(plan).expect("base tables answer");
        let after = ticket.ds.fs().file_ids();
        let lost: Vec<FileId> = before.into_iter().filter(|f| !after.contains(f)).collect();
        changed += usize::from(between(&read, &lost, &solo, &ticket));
        let (solo_calls, solo_out) = solo.commit(plan);
        let (ticket_calls, ticket_out) = ticket.commit(plan);
        assert_eq!(solo_out, ticket_out, "{name}, query {i}: outcomes differ");
        assert_eq!(
            ticket_calls, solo_calls,
            "{name}, query {i}: the read changed its commit's backend calls"
        );
    }
    assert_eq!(
        solo.ds.registry().state_digest(),
        ticket.ds.registry().state_digest(),
        "{name}: final state"
    );
    assert_eq!(
        solo.journal_stream(),
        ticket.journal_stream(),
        "{name}: journal stream"
    );
    changed
}

/// A cluster of four unreplicated nodes, no injected faults.
fn unreplicated_fs() -> Arc<SimFs<Table>> {
    let cluster = ClusterSim::paper_default();
    Arc::new(SimFs::with_cluster(
        BlockConfig::default(),
        cluster.weights,
        FaultInjector::disabled(),
        NodeSet::new(NodeConfig::new(4, 1)),
    ))
}

/// A live node holding a file of the view a read used, if it used one.
fn node_of_used_view(read: &SnapshotAnswer, rig: &Rig) -> Option<NodeId> {
    let registry = rig.ds.registry();
    let view = registry.view(registry.by_name(read.used_view.as_deref()?)?);
    let cluster = rig.ds.fs().cluster()?;
    view.files()
        .filter_map(|file| cluster.placement(file)?.first().copied())
        .find(|&node| cluster.node_state(node) == Some(NodeState::Up))
}

/// A node downed between a read that used a view on it and the commit: the
/// commit matches around the outage as it would with no read, and the node
/// is back before the next ticket.
#[test]
fn a_node_downed_between_read_and_commit_is_matched_around() {
    let catalog = data();
    let plans = fig5_workload(80, 42);
    let mut downed: Option<NodeId> = None;
    let mut between = |read: &SnapshotAnswer, _: &[FileId], solo: &Rig, ticket: &Rig| {
        for rig in [solo, ticket] {
            if let Some(node) = downed {
                rig.ds.fs().set_node_up(node);
            }
        }
        downed = node_of_used_view(read, ticket);
        let Some(node) = downed else {
            return false;
        };
        assert!(solo.ds.fs().set_node_down(node) && ticket.ds.fs().set_node_down(node));
        true
    };
    let config = baselines::deepsea().with_phi(0.05);
    let changed = check_commits_after_reads(
        "node down",
        &catalog,
        &plans,
        &unreplicated_fs,
        config,
        0,
        &mut between,
    );
    assert!(changed > 5, "only {changed} reads used a view");
}

/// Reads on a snapshot three commits old. Under a pool that admits
/// nothing the file system never changes, so only the registry's structure
/// tells the stale read's world from its commit's.
#[test]
fn a_read_on_a_stale_snapshot_is_not_adopted() {
    let catalog = data();
    let plans = fig5_workload(60, 42);
    for (name, config) in [
        ("stale", baselines::deepsea().with_phi(0.05)),
        (
            "stale, empty pool",
            baselines::deepsea().with_phi(0.05).with_smax(1),
        ),
    ] {
        let mut nothing = |_: &SnapshotAnswer, _: &[FileId], _: &Rig, _: &Rig| false;
        check_commits_after_reads(name, &catalog, &plans, &plain_fs, config, 3, &mut nothing);
    }
}

/// Every view read loses its file for good: the read falls back to base
/// tables, and the commit runs in a world without the file — the world
/// a driver that never read is put in by deleting the same files.
#[test]
fn a_read_that_lost_a_file_is_not_adopted() {
    let catalog = data();
    let plans = fig5_workload(60, 42);
    let lossy = || {
        let cluster = ClusterSim::paper_default();
        let faults = FaultConfig::seeded(3).with_permanent_loss(1.0);
        Arc::new(SimFs::with_faults(
            BlockConfig::default(),
            cluster.weights,
            FaultInjector::new(faults),
        ))
    };
    let mut between = |_: &SnapshotAnswer, lost: &[FileId], solo: &Rig, _: &Rig| {
        for &file in lost {
            solo.ds
                .fs()
                .delete(file)
                .expect("the same file, not yet lost");
        }
        !lost.is_empty()
    };
    let config = baselines::deepsea().with_phi(0.05);
    let changed =
        check_commits_after_reads("lost", &catalog, &plans, &lossy, config, 0, &mut between);
    assert!(changed > 3, "only {changed} reads lost a file");
}

/// A sharded file system with a slow node and hedged reads, behind a
/// seeded fault injector that is enabled but whose rate never fires on
/// these reads: a read's draws cannot move its commit's faults, and every
/// replayed read is routed, hedged and slowed like a fresh one.
#[test]
fn read_then_commit_is_bit_identical_on_a_sharded_faulty_file_system() {
    let catalog = data();
    let plans = fig5_workload(60, 42);
    let sharded = || {
        let cluster = ClusterSim::paper_default();
        let faults = FaultConfig::seeded(7).with_latency_spikes(1e-12, 1.0);
        let fs = SimFs::with_cluster(
            BlockConfig::default(),
            cluster.weights,
            FaultInjector::new(faults),
            NodeSet::new(NodeConfig::new(4, 2)),
        );
        fs.set_node_slow(NodeId(1), 4.0);
        fs.set_hedge(Some(HedgeConfig::after_secs(1.0)));
        Arc::new(fs)
    };
    let config = baselines::deepsea().with_phi(0.05);
    let ticket = check_read_then_commit("sharded", &catalog, &plans, &sharded, config, false);
    let fs = ticket.ds.fs();
    assert!(fs.ledger().files_read > 0, "no view was read");
    assert!(fs.fault_stats().hedges_issued > 0, "no read hedged");
}

/// The commit of an aggregate its read computed returns the read's
/// columns: a computation would have allocated its own.
#[test]
fn a_commit_returns_the_columns_its_read_computed() {
    let catalog = data();
    let plans = fig5_workload(40, 42);
    for config in [baselines::hive(), baselines::deepsea().with_phi(0.05)] {
        let mut rig = Rig::new(&catalog, plain_fs(), config, false);
        let mut aggregates = 0;
        for (i, plan) in plans.iter().enumerate() {
            let snapshot = rig.ds.publish_snapshot().expect("the backend forks");
            let read = snapshot.answer(plan).expect("fault-free read");
            let commit = rig.ds.process_query(plan).expect("fault-free commit");
            if !matches!(plan, LogicalPlan::Aggregate { .. }) {
                continue;
            }
            aggregates += 1;
            let (r, c) = (read.result.columns(), commit.result.columns());
            assert_eq!(r.len(), c.len());
            for (a, b) in r.iter().zip(c) {
                assert!(a.shares(b), "query {i}: the commit computed again");
            }
        }
        assert!(aggregates > 10, "{aggregates} aggregates");
    }
}

/// The first of `plans` a view answers, found on a driver of its own: the
/// query's index and the view's name.
fn first_view_answer(
    catalog: &Arc<Catalog>,
    plans: &[LogicalPlan],
    config: DeepSeaConfig,
) -> (usize, String) {
    let mut probe = Rig::new(catalog, plain_fs(), config, false);
    plans
        .iter()
        .enumerate()
        .find_map(|(k, plan)| {
            let snapshot = probe.ds.publish_snapshot().expect("the backend forks");
            let used = snapshot.answer(plan).expect("fault-free read").used_view;
            probe.commit(plan);
            Some((k, used?))
        })
        .expect("some query is answered from a view")
}

/// A fresh driver that has committed `plans[..k]` and then lost every file
/// of `view`: the view is still registered, but reading it fails.
fn lose_view(
    catalog: &Arc<Catalog>,
    plans: &[LogicalPlan],
    k: usize,
    view: &str,
    config: DeepSeaConfig,
) -> Rig {
    let mut rig = Rig::new(catalog, plain_fs(), config, false);
    for plan in &plans[..k] {
        rig.commit(plan);
    }
    let registry = rig.ds.registry();
    let vid = registry.by_name(view).expect("the view is registered");
    let files: Vec<FileId> = registry.view(vid).files().collect();
    assert!(!files.is_empty());
    for f in files {
        rig.ds.fs().delete(f);
    }
    rig
}

#[test]
fn a_commit_executes_when_its_read_fell_back_to_base_tables() {
    let catalog = data();
    let plans = fig5_workload(120, 42);
    let config = baselines::deepsea().with_phi(0.05);
    let (k, view) = first_view_answer(&catalog, &plans, config);

    // Commit the query whose view lost its files — alone, or after a read
    // that falls back to base tables.
    let run = |read: bool| {
        let mut rig = lose_view(&catalog, &plans, k, &view, config);
        if read {
            let snapshot = rig.ds.publish_snapshot().expect("the backend forks");
            let ans = snapshot.answer(&plans[k]).expect("base tables answer");
            assert_eq!(ans.trace.recovery.base_table_fallbacks, 1);
        }
        let before = rig.calls();
        let out = rig.ds.process_query(&plans[k]).expect("base tables answer");
        (rig.calls() - before, out)
    };
    let (alone_calls, alone) = run(false);
    let (calls, after_read) = run(true);
    assert_eq!(alone.quarantined, vec![view.clone()]);
    assert_eq!((calls, pin(&after_read)), (alone_calls, pin(&alone)));
}

/// A read that falls back to base tables changes no catalog state; the
/// commit of the same plan at that epoch is what quarantines the view.
/// Both answer with the base plan's result.
#[test]
fn a_fallback_read_leaves_the_quarantine_to_its_commit() {
    let catalog = data();
    let plans = fig5_workload(120, 42);
    let config = baselines::deepsea().with_phi(0.05);
    let (k, view) = first_view_answer(&catalog, &plans, config);
    let mut rig = lose_view(&catalog, &plans, k, &view, config);
    let vid = rig
        .ds
        .registry()
        .by_name(&view)
        .expect("the view is registered");
    let digest = rig.ds.registry().state_digest();

    let snapshot = rig.ds.publish_snapshot().expect("the backend forks");
    let read = snapshot.answer(&plans[k]).expect("base tables answer");
    assert_eq!(read.used_view, None);
    assert_eq!(read.trace.recovery.base_table_fallbacks, 1);
    assert_eq!(read.trace.recovery.quarantined_views, 0);
    assert_eq!(
        rig.ds.registry().state_digest(),
        digest,
        "the read changed the catalog"
    );
    assert!(!rig.ds.registry().view(vid).is_quarantined());

    let commit = rig.ds.process_query(&plans[k]).expect("base tables answer");
    assert_eq!(commit.quarantined, vec![view]);
    assert!(rig.ds.registry().view(vid).is_quarantined());

    let (base, _) = SimBackend::new(ClusterSim::paper_default())
        .execute(&plans[k], &catalog, &plain_fs())
        .expect("base tables answer");
    assert_eq!(read.result.fingerprint(), base.fingerprint());
    assert_eq!(commit.result.fingerprint(), base.fingerprint());
}

/// The serving layer on a plain file system answers a ticket whose view
/// lost its files from base tables: the read is flagged and counted as
/// degraded, and its answer is the committed one.
#[test]
fn a_served_read_of_a_lost_view_is_degraded_and_exact() {
    let catalog = data();
    let plans = fig5_workload(120, 42);
    let config = baselines::deepsea().with_phi(0.05);
    let (k, view) = first_view_answer(&catalog, &plans, config);
    let rig = lose_view(&catalog, &plans, k, &view, config);

    let mut server = ViewServer::new(rig.ds, ServerConfig::default());
    let report = server.run(&plans[k..k + 3]).expect("base tables answer");
    let first = &report.records[0];
    assert!(first.degraded, "the lost view's ticket was not degraded");
    assert_eq!(first.read_used_view, None);
    let degraded = report.records.iter().filter(|r| r.degraded).count();
    assert_eq!(report.degraded_reads, degraded as u64);
    for (i, rec) in report.records.iter().enumerate() {
        assert_eq!(
            rec.read_fingerprint, rec.committed_fingerprint,
            "ticket {i}: the read and its commit disagree"
        );
    }
}

/// The read and the commit recover through one base-table fallback: on the
/// same lost view at the same epoch both charge the same simulated seconds,
/// report the same metrics and answer with the same result.
#[test]
fn a_fallback_read_and_its_commit_charge_the_same_base_execution() {
    let catalog = data();
    let plans = fig5_workload(120, 42);
    let config = baselines::deepsea().with_phi(0.05);
    let (k, view) = first_view_answer(&catalog, &plans, config);
    let mut rig = lose_view(&catalog, &plans, k, &view, config);

    let snapshot = rig.ds.publish_snapshot().expect("the backend forks");
    let read = snapshot.answer(&plans[k]).expect("base tables answer");
    let commit = rig.ds.process_query(&plans[k]).expect("base tables answer");
    assert_eq!(commit.quarantined, vec![view]);
    assert_eq!((&read.used_view, &commit.used_view), (&None, &None));
    assert_eq!(read.result.fingerprint(), commit.result.fingerprint());
    assert_eq!(read.query_secs.to_bits(), commit.query_secs.to_bits());
    assert_eq!(read.metrics, commit.metrics);
    assert_eq!(
        read.metrics.penalty_secs.to_bits(),
        commit.metrics.penalty_secs.to_bits()
    );
    assert_eq!(read.trace.recovery.base_table_fallbacks, 1);
    assert_eq!(commit.trace.recovery.base_table_fallbacks, 1);
}

/// A fallback read is a pure function of its snapshot: the same snapshot,
/// or a clone of it, answers the lost view's query with the same result,
/// seconds, metrics and trace every time, each read makes exactly two
/// backend calls (the failed rewriting, then the base plan), and none of
/// them changes the catalog.
#[test]
fn a_fallback_read_is_repeatable_from_one_snapshot() {
    let catalog = data();
    let plans = fig5_workload(120, 42);
    let config = baselines::deepsea().with_phi(0.05);
    let (k, view) = first_view_answer(&catalog, &plans, config);
    let rig = lose_view(&catalog, &plans, k, &view, config);
    let digest = rig.ds.registry().state_digest();

    let snapshot = rig.ds.publish_snapshot().expect("the backend forks");
    let clone = snapshot.clone();
    let mut pinned = Vec::new();
    for reader in [&snapshot, &snapshot, &clone] {
        let before = rig.calls();
        let ans = reader.answer(&plans[k]).expect("base tables answer");
        assert_eq!(rig.calls() - before, 2, "a fallback read's backend calls");
        assert_eq!(ans.trace.recovery.base_table_fallbacks, 1);
        pinned.push(format!(
            "{:?}",
            (
                ans.result.fingerprint(),
                ans.query_secs.to_bits(),
                &ans.used_view,
                ans.metrics,
                &ans.trace,
                ans.epoch,
            )
        ));
    }
    assert_eq!(pinned[0], pinned[1], "a second read of one snapshot");
    assert_eq!(pinned[0], pinned[2], "a read of a cloned snapshot");
    assert_eq!(rig.ds.registry().state_digest(), digest);
}

/// Once the commit has quarantined the lost view, the next snapshot routes
/// around it: the same query is answered with no fallback at all, and with
/// the base plan's result.
#[test]
fn after_the_quarantine_a_read_needs_no_fallback() {
    let catalog = data();
    let plans = fig5_workload(120, 42);
    let config = baselines::deepsea().with_phi(0.05);
    let (k, view) = first_view_answer(&catalog, &plans, config);
    let mut rig = lose_view(&catalog, &plans, k, &view, config);
    let commit = rig.ds.process_query(&plans[k]).expect("base tables answer");
    assert_eq!(commit.quarantined, vec![view.clone()]);

    let snapshot = rig.ds.publish_snapshot().expect("the backend forks");
    let before = rig.calls();
    let read = snapshot.answer(&plans[k]).expect("a fault-free read");
    assert_eq!(rig.calls() - before, 1, "the read executed more than once");
    assert_eq!(read.trace.recovery.base_table_fallbacks, 0);
    assert_ne!(read.used_view.as_deref(), Some(view.as_str()));
    assert_eq!(read.result.fingerprint(), commit.result.fingerprint());
}

/// Under real reader threads a ticket whose view lost its files is still
/// answered exactly, and the committed trajectory is the serial one.
#[test]
fn a_threaded_read_of_a_lost_view_is_exact() {
    let catalog = data();
    let plans = fig5_workload(120, 42);
    let config = baselines::deepsea().with_phi(0.05);
    let (k, view) = first_view_answer(&catalog, &plans, config);
    let tickets = &plans[k..k + 4];

    let mut serial = lose_view(&catalog, &plans, k, &view, config);
    for plan in tickets {
        serial.ds.process_query(plan).expect("base tables answer");
    }

    let rig = lose_view(&catalog, &plans, k, &view, config);
    let cfg = ServerConfig {
        clients: 2,
        ..ServerConfig::default()
    };
    let mut server = ViewServer::new(rig.ds, cfg);
    let report = server.run_threaded(tickets).expect("base tables answer");
    assert_eq!(report.records.len(), tickets.len());
    for rec in &report.records {
        assert_eq!(
            rec.read_fingerprint, rec.committed_fingerprint,
            "ticket {}: the read and its commit disagree",
            rec.ticket
        );
    }
    assert_eq!(report.state_digest, serial.ds.registry().state_digest());
}

/// A traced served read that falls back marks it: one `base_fallback`
/// marker, zero-width, a child of that ticket's read span.
#[test]
fn a_traced_fallback_read_marks_its_base_fallback() {
    let catalog = data();
    let plans = fig5_workload(120, 42);
    let config = baselines::deepsea().with_phi(0.05);
    let (k, view) = first_view_answer(&catalog, &plans, config);
    let rig = lose_view(&catalog, &plans, k, &view, config);

    let obs = Observer::new(ObsConfig::on());
    let mut server = ViewServer::new(rig.ds.with_observer(obs.clone()), ServerConfig::default());
    let report = server.run(&plans[k..k + 1]).expect("base tables answer");
    assert!(report.records[0].degraded);

    let spans = obs.spans_snapshot();
    let markers: Vec<_> = spans.iter().filter(|s| s.name == "base_fallback").collect();
    assert_eq!(markers.len(), 1, "base_fallback markers");
    let marker = markers[0];
    assert_eq!(marker.duration_secs(), 0.0);
    let parent = spans
        .iter()
        .find(|s| s.span_id == marker.parent_id)
        .expect("the marker has a parent span");
    assert_eq!(parent.name, "read");
    assert_eq!(parent.trace_id, marker.trace_id);
}

/// A read shed under `ServeStale` still executes, so a shed ticket whose
/// view lost its files falls back like any other: it is flagged degraded,
/// carries its shed verdict, and serves the exact committed answer. A
/// first ticket is never shed, so a query that reads no view goes first.
#[test]
fn a_stale_served_read_of_a_lost_view_falls_back_exactly() {
    let catalog = data();
    let plans = fig5_workload(120, 42);
    let config = baselines::deepsea().with_phi(0.05);
    let (k, view) = first_view_answer(&catalog, &plans, config);
    let rig = lose_view(&catalog, &plans, k, &view, config);
    let snapshot = rig.ds.publish_snapshot().expect("the backend forks");
    let warm = plans[k + 1..]
        .iter()
        .find(|plan| {
            let ans = snapshot.answer(plan).expect("a fault-free read");
            ans.used_view.is_none() && ans.trace.recovery.base_table_fallbacks == 0
        })
        .expect("some query reads no view");
    let tickets = [warm.clone(), plans[k].clone()];

    let deadline = 1e-6;
    let cfg = ServerConfig {
        clients: 1,
        deadline_secs: Some(deadline),
        shed_policy: ShedPolicy::ServeStale,
        ..ServerConfig::default()
    };
    let mut server = ViewServer::new(rig.ds, cfg);
    let report = server.run(&tickets).expect("base tables answer");
    assert_eq!(report.records[0].shed, None);
    assert!(!report.records[0].degraded);
    let lost = &report.records[1];
    assert!(lost.degraded, "the lost view's ticket was not degraded");
    let (policy, _) = lost.shed.expect("a ticket past its deadline is shed");
    assert_eq!(policy, ShedPolicy::ServeStale.name());
    assert_eq!(lost.read_used_view, None);
    assert_eq!(lost.committed_used_view, None);
    for (i, rec) in report.records.iter().enumerate() {
        assert_eq!(
            rec.read_fingerprint, rec.committed_fingerprint,
            "ticket {i}: the read and its commit disagree"
        );
    }
}
