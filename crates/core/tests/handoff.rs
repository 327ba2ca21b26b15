//! One execution per ticket: a commit adopts its read's execution.
//!
//! Under the ticket protocol a query is read from the published snapshot
//! (`ReadSnapshot::answer`) and then committed (`DeepSea::process_query`).
//! When the read ran the plan the commit is about to run, at the epoch the
//! commit starts from, on a file system that neither shards nor injects
//! faults, the commit takes the read's result and metrics instead of
//! executing again. Here every committed outcome, the final state digest
//! and the journal stream of that protocol are checked bit for bit against
//! commits with no read at all, the backend calls saved are counted, and
//! each condition that must make the commit execute is exercised alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use deepsea_core::{
    baselines, BreakerConfig, CatalogJournal, DeepSea, DeepSeaConfig, QueryOutcome,
};
use deepsea_engine::exec::{ExecError, ExecMetrics};
use deepsea_engine::{
    Catalog, ClusterSim, ExecutionBackend, LogicalPlan, RetryAttempt, SimBackend,
};
use deepsea_relation::Table;
use deepsea_storage::{
    BlockConfig, FaultConfig, FaultInjector, FileId, NodeConfig, NodeSet, SimFs,
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

    fn drain_retry_debt(&self) -> (u64, f64) {
        self.inner.drain_retry_debt()
    }

    fn fork_reader(&self) -> Option<Box<dyn ExecutionBackend>> {
        Some(Box::new(CountingBackend {
            inner: self.inner.fork_reader()?,
            calls: Arc::clone(&self.calls),
        }))
    }

    fn reset_retry_budget(&self, budget_secs: Option<f64>) {
        self.inner.reset_retry_budget(budget_secs)
    }

    fn set_attempt_trace(&self, enabled: bool) {
        self.inner.set_attempt_trace(enabled)
    }

    fn drain_retry_attempts(&self) -> Vec<RetryAttempt> {
        self.inner.drain_retry_attempts()
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

#[test]
fn adopted_commits_are_bit_identical_and_execute_once_less() {
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
        let mut solo = Rig::new(&catalog, plain_fs(), config, journaled);
        let mut ticket = Rig::new(&catalog, plain_fs(), config, journaled);
        for (i, plan) in plans.iter().enumerate() {
            let (solo_calls, solo_out) = solo.commit(plan);
            let (ticket_calls, ticket_out) = ticket.read_then_commit(plan);
            assert_eq!(solo_out, ticket_out, "{name}, query {i}: outcomes differ");
            // Fault-free, every read ran the plan its commit runs.
            assert_eq!(
                ticket_calls + 1,
                solo_calls,
                "{name}, query {i}: the commit did not adopt its read"
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
    }
}

fn answer(rig: &Rig, plan: &LogicalPlan) {
    let snapshot = rig.ds.publish_snapshot().expect("the backend forks");
    snapshot.answer(plan).expect("fault-free read");
}

#[test]
fn a_commit_executes_when_its_read_cannot_be_adopted() {
    let catalog = data();
    let plans = fig5_workload(40, 42);
    assert_ne!(plans[1], plans[2]);

    // A fresh Hive driver over `fs`: `before` runs, then `plans[1]` is
    // committed; returns that commit's calls and outcome.
    let run = |fs: Arc<SimFs<Table>>, before: &dyn Fn(&mut Rig)| {
        let mut rig = Rig::new(&catalog, fs, baselines::hive(), false);
        before(&mut rig);
        rig.commit(&plans[1])
    };
    let commit_then_read = |rig: &mut Rig| {
        rig.commit(&plans[0]);
        answer(rig, &plans[1]);
    };

    // The reference: no read at all, and a clean read the commit adopts.
    let alone = run(plain_fs(), &|rig| {
        rig.commit(&plans[0]);
    });
    let adopted = run(plain_fs(), &commit_then_read);
    assert_eq!(alone.0, 1, "the Hive baseline executes once per commit");
    assert_eq!(adopted, (0, alone.1.clone()));

    let cluster = ClusterSim::paper_default();
    // Enabled, at a rate that never fires on these few reads.
    let faults = FaultConfig::seeded(7).with_latency_spikes(1e-12, 1.0);
    let faulty = SimFs::with_faults(
        BlockConfig::default(),
        cluster.weights,
        FaultInjector::new(faults),
    );
    let sharded = SimFs::with_cluster(
        BlockConfig::default(),
        cluster.weights,
        FaultInjector::disabled(),
        NodeSet::new(NodeConfig::new(4, 2)),
    );
    let refused = [
        (
            "a read one epoch stale",
            run(plain_fs(), &|rig| {
                let stale = rig.ds.publish_snapshot().expect("the backend forks");
                rig.commit(&plans[0]);
                stale.answer(&plans[1]).expect("fault-free read");
            }),
        ),
        (
            "a read of another plan",
            run(plain_fs(), &|rig| {
                rig.commit(&plans[0]);
                answer(rig, &plans[2]);
            }),
        ),
        (
            "a read through an enabled fault injector",
            run(Arc::new(faulty), &commit_then_read),
        ),
        (
            "a read on a sharded file system",
            run(Arc::new(sharded), &commit_then_read),
        ),
    ];
    for (case, got) in refused {
        assert_eq!(got, (adopted.0 + 1, alone.1.clone()), "{case}");
    }
}

#[test]
fn a_commit_executes_when_its_read_fell_back_to_base_tables() {
    let catalog = data();
    let plans = fig5_workload(120, 42);
    let config = baselines::deepsea().with_phi(0.05);

    // The first query a view answers, found on a driver of its own.
    let mut probe = Rig::new(&catalog, plain_fs(), config, false);
    let (k, view) = plans
        .iter()
        .enumerate()
        .find_map(|(k, plan)| {
            let snapshot = probe.ds.publish_snapshot().expect("the backend forks");
            let used = snapshot.answer(plan).expect("fault-free read").used_view;
            probe.commit(plan);
            Some((k, used?))
        })
        .expect("some query is answered from a view");

    // Lose every file of that view, then commit the query — alone, or
    // after a read that falls back to base tables.
    let run = |config: DeepSeaConfig, read: bool| {
        let mut rig = Rig::new(&catalog, plain_fs(), config, false);
        for plan in &plans[..k] {
            rig.commit(plan);
        }
        let registry = rig.ds.registry();
        let vid = registry.by_name(&view).expect("the view is registered");
        let files: Vec<FileId> = registry.view(vid).files().collect();
        assert!(!files.is_empty());
        for f in files {
            rig.ds.fs().delete(f);
        }
        if read {
            let snapshot = rig.ds.publish_snapshot().expect("the backend forks");
            let ans = snapshot.answer(&plans[k]).expect("base tables answer");
            assert_eq!(ans.trace.recovery.base_table_fallbacks, 1);
        }
        let before = rig.calls();
        let out = rig.ds.process_query(&plans[k]).expect("base tables answer");
        (rig.calls() - before, out)
    };
    let (alone_calls, alone) = run(config, false);
    let (calls, after_read) = run(config, true);
    assert_eq!(alone.quarantined, vec![view.clone()]);
    assert_eq!((calls, pin(&after_read)), (alone_calls, pin(&alone)));

    // A breaker the read trips sends the commit straight to the base plan
    // the read fell back to — the same plan at the same epoch, which the
    // commit must still execute.
    let tripped = config.with_breaker(BreakerConfig::after_failures(1, 100));
    let (calls, after_read) = run(tripped, true);
    assert_eq!(after_read.used_view, None);
    assert_eq!(calls, 1, "the commit adopted a fallback read");
    assert_eq!(after_read.result.fingerprint(), alone.result.fingerprint());
}
