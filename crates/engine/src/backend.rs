//! The execution backend abstraction: how the driver runs plans and prices
//! simulated I/O.
//!
//! `deepsea-core` never calls [`crate::exec::execute`] or a cluster model
//! directly — it holds a `Box<dyn ExecutionBackend>` and goes through this
//! trait for every plan execution and every scan/write charge. [`SimBackend`]
//! is the in-process implementation backing all tests and experiments: the
//! real executor over [`SimFs`] plus the paper's [`ClusterSim`] time model.
//! A distributed deployment would implement the same trait against an actual
//! cluster.
//!
//! A backend does not retry: an execution's transient error goes back to
//! the driver, whose one retry ladder re-runs it at most three times, after
//! 0.5, 1 and 2 simulated seconds, and charges the backoff to the query.

// deepsea-lint: allow(layering) -- the plan memo shared with forked readers; one lock at a time, never held across an execution
use std::sync::{Arc, Mutex};

use deepsea_relation::{Predicate, Table};
use deepsea_storage::{FileId, SimFs, Stamp};

use crate::catalog::Catalog;
use crate::cluster::ClusterSim;
use crate::exec::{self, ExecError, ExecMetrics};
use crate::plan::LogicalPlan;

/// Executes plans and converts I/O volumes into simulated elapsed seconds.
///
/// The three pricing methods mirror [`ClusterSim`]: `elapsed_secs` for a full
/// metric set, `scan_secs`/`write_secs` for the pure read/write jobs the
/// driver charges when estimating savings and materialization overheads.
pub trait ExecutionBackend: Send + Sync {
    /// Execute a plan against the catalog and pool, returning the result
    /// table and the instrumented execution metrics.
    fn execute(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        fs: &SimFs<Table>,
    ) -> Result<(Table, ExecMetrics), ExecError>;

    /// The rows of `σ_pred(plan)` and the number of rows of `plan` itself
    /// ([`exec::execute_slice`]), for a commit that stores part of a view
    /// its query's plan holds. Nothing is charged, so the provided method
    /// runs the executor directly; a backend wrapping another forwards it.
    fn execute_slice(
        &self,
        plan: &LogicalPlan,
        pred: &Predicate,
        catalog: &Catalog,
        fs: &SimFs<Table>,
    ) -> Result<(Table, u64), ExecError> {
        exec::execute_slice(plan, pred, catalog, fs)
    }

    /// Wall-clock seconds for one execution's metrics.
    fn elapsed_secs(&self, metrics: &ExecMetrics) -> f64;

    /// Seconds for a pure scan of `bytes` split into `block_bytes` blocks.
    fn scan_secs(&self, bytes: u64, block_bytes: u64) -> f64;

    /// Seconds for writing `bytes` into `files` output files.
    fn write_secs(&self, bytes: u64, files: u64) -> f64;

    /// The cluster model driving the cost estimator — the analytic side of
    /// the same pricing this backend applies to real executions.
    fn cluster(&self) -> &ClusterSim;

    /// A read-only clone of this backend for a concurrent snapshot reader,
    /// pricing I/O identically (same cluster model, bit for bit). `None`
    /// (the default) means the backend cannot be shared across readers.
    fn fork_reader(&self) -> Option<Box<dyn ExecutionBackend>> {
        None
    }

    /// Retry cost of failed executions, from when backends retried. No
    /// caller in this workspace; delete when `benchmark/` follows `crates/`
    /// (ROADMAP item 0).
    fn drain_retry_debt(&self) -> (u64, f64) {
        (0, 0.0)
    }

    /// A per-query retry budget, from when backends retried. No caller in
    /// this workspace; delete when `benchmark/` follows `crates/` (ROADMAP
    /// item 0).
    fn reset_retry_budget(&self, _budget_secs: Option<f64>) {}

    /// The gate of a backend's retry-attempt log. No caller in this
    /// workspace; delete when `benchmark/` follows `crates/` (ROADMAP item
    /// 0).
    fn set_attempt_trace(&self, _enabled: bool) {}

    /// A backend's retry-attempt log. No caller in this workspace; delete
    /// when `benchmark/` follows `crates/` (ROADMAP item 0).
    fn drain_retry_attempts(&self) -> Vec<RetryAttempt> {
        Vec::new()
    }
}

/// One step of a retry ladder: the driver's execution ladder records one
/// per retry in the query's context, and the observability layer renders
/// each backoff wait as a `retry_wait` span. Purely descriptive: the retry
/// decision was already made when this is recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryAttempt {
    /// 0-based retry index within its ladder.
    pub attempt: u32,
    /// Simulated seconds this step waited before re-running.
    pub backoff_secs: f64,
    /// The file whose transient failure triggered the retry, if known.
    pub file: Option<FileId>,
}

impl ExecutionBackend for Box<dyn ExecutionBackend> {
    fn execute(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        fs: &SimFs<Table>,
    ) -> Result<(Table, ExecMetrics), ExecError> {
        (**self).execute(plan, catalog, fs)
    }

    fn execute_slice(
        &self,
        plan: &LogicalPlan,
        pred: &Predicate,
        catalog: &Catalog,
        fs: &SimFs<Table>,
    ) -> Result<(Table, u64), ExecError> {
        (**self).execute_slice(plan, pred, catalog, fs)
    }

    fn elapsed_secs(&self, metrics: &ExecMetrics) -> f64 {
        (**self).elapsed_secs(metrics)
    }

    fn scan_secs(&self, bytes: u64, block_bytes: u64) -> f64 {
        (**self).scan_secs(bytes, block_bytes)
    }

    fn write_secs(&self, bytes: u64, files: u64) -> f64 {
        (**self).write_secs(bytes, files)
    }

    fn cluster(&self) -> &ClusterSim {
        (**self).cluster()
    }

    fn fork_reader(&self) -> Option<Box<dyn ExecutionBackend>> {
        (**self).fork_reader()
    }
}

/// The simulated backend: the in-memory executor timed by [`ClusterSim`],
/// remembering the results of its last [`MEMO_PLANS`] plans.
///
/// A plan's rows and its fault-free metrics depend only on the plan, the
/// catalog and the write-once files it reads, so a plan executed again in
/// the same world — the same [`Catalog::stamp`] and [`SimFs::stamp`] — is
/// not recomputed. The file system still sees every execution: a repeat
/// re-issues the plan's fragment reads through [`SimFs::try_read`] in the
/// order the executor issues them (`exec::replay_reads`), so its fault
/// draws, node routing, hedges, checksum checks, I/O ledger, errors and
/// [`ExecMetrics::penalty_secs`] are those of a fresh execution, bit for
/// bit. Readers forked from the backend share its memo.
#[derive(Debug)]
pub struct SimBackend {
    cluster: ClusterSim,
    memo: Arc<Mutex<Memo>>,
}

/// How many distinct plans a [`SimBackend`] remembers. The SDSS-like log
/// re-submits one of its last 50 queries, and on the benchmark's four
/// workloads a memo of 64 hits every repeat an unbounded one hits; the
/// bound keeps the memo's memory flat over any run length.
pub const MEMO_PLANS: usize = 64;

/// One remembered execution.
struct Executed {
    /// The plan's [`LogicalPlan::exact_key`], and [`key_hash`] of it.
    key: Vec<u8>,
    hash: u64,
    /// The file system's and the catalog's stamps.
    world: (Stamp, Stamp),
    table: Table,
    /// The metrics less the spike seconds, which every repeat draws anew.
    metrics: ExecMetrics,
    /// The memo's clock when the entry was last stored or recalled; set
    /// by [`Memo::remember`].
    used: u64,
}

/// Remembered executions, at most [`MEMO_PLANS`], and a clock that ticks
/// once per lookup so the least recently used entry is the one to go.
#[derive(Default)]
struct Memo {
    entries: Vec<Executed>,
    clock: u64,
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Memo({} plans)", self.entries.len())
    }
}

impl Memo {
    /// The entry for `key` in `world`, marked used now.
    fn find(&mut self, hash: u64, world: (Stamp, Stamp), key: &[u8]) -> Option<&mut Executed> {
        self.clock += 1;
        let clock = self.clock;
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.hash == hash && e.world == world && e.key == key)?;
        e.used = clock;
        Some(e)
    }

    /// Store `e`, in place of the least recently used entry when full. A
    /// reader sharing the memo may have stored the same plan meanwhile:
    /// then the two are one execution, and the entry stays.
    fn remember(&mut self, e: Executed) {
        if self.find(e.hash, e.world, &e.key).is_some() {
            return;
        }
        let e = Executed {
            used: self.clock,
            ..e
        };
        if self.entries.len() < MEMO_PLANS {
            self.entries.push(e);
        } else if let Some(lru) = self.entries.iter_mut().min_by_key(|e| e.used) {
            *lru = e;
        }
    }
}

/// FxHash's word step (rustc's hasher) over a key, for the memos keyed by
/// [`LogicalPlan::exact_key`]: a collision costs one comparison of keys.
pub fn key_hash(key: &[u8]) -> u64 {
    key.chunks(8).fold(0, |h: u64, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    })
}

impl SimBackend {
    /// Wrap a cluster model, with an empty memo.
    pub fn new(cluster: ClusterSim) -> Self {
        Self {
            cluster,
            memo: Arc::default(),
        }
    }

    /// The paper's evaluation cluster.
    pub fn paper_default() -> Self {
        Self::new(ClusterSim::paper_default())
    }

    fn memo(&self) -> std::sync::MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl ExecutionBackend for SimBackend {
    fn execute(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        fs: &SimFs<Table>,
    ) -> Result<(Table, ExecMetrics), ExecError> {
        let key = plan.exact_key();
        let (hash, world) = (key_hash(&key), (fs.stamp(), catalog.stamp()));
        // The guard drops with this statement: a hit replays unlocked.
        let hit = self
            .memo()
            .find(hash, world, &key)
            .map(|e| (e.table.clone(), e.metrics));
        if let Some((table, mut metrics)) = hit {
            exec::replay_reads(plan, fs, &mut metrics.penalty_secs)?;
            return Ok((table, metrics));
        }
        let (table, metrics) = exec::execute(plan, catalog, fs)?;
        self.memo().remember(Executed {
            key,
            hash,
            world,
            table: table.clone(),
            metrics: ExecMetrics {
                penalty_secs: 0.0,
                ..metrics
            },
            used: 0,
        });
        Ok((table, metrics))
    }

    fn elapsed_secs(&self, metrics: &ExecMetrics) -> f64 {
        // Injected latency spikes and retry backoff are simulated wall time
        // the cluster model knows nothing about; fault-free metrics carry a
        // penalty of exactly +0.0, which leaves the sum bit-identical.
        self.cluster.elapsed_secs(metrics) + metrics.penalty_secs
    }

    fn scan_secs(&self, bytes: u64, block_bytes: u64) -> f64 {
        self.cluster.scan_secs(bytes, block_bytes)
    }

    fn write_secs(&self, bytes: u64, files: u64) -> f64 {
        self.cluster.write_secs(bytes, files)
    }

    fn cluster(&self) -> &ClusterSim {
        &self.cluster
    }

    fn fork_reader(&self) -> Option<Box<dyn ExecutionBackend>> {
        // The cluster model is `Copy`, so a fork prices and executes
        // identically; it shares the memo, so a commit finds its read's
        // execution there.
        Some(Box::new(SimBackend {
            cluster: self.cluster,
            memo: Arc::clone(&self.memo),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsea_storage::BlockConfig;

    fn backend_and_world() -> (SimBackend, Catalog, SimFs<Table>) {
        use deepsea_relation::generate::{ColumnGen, TableGen};
        use deepsea_relation::{DataType, Field, Schema};
        let mut catalog = Catalog::new();
        let t = TableGen::new(
            Schema::new(vec![Field::new("t.a", DataType::Int)]),
            vec![ColumnGen::UniformInt { low: 0, high: 9 }],
            1_000,
            1,
        )
        .generate(100);
        catalog.register("t", t);
        let cluster = ClusterSim::paper_default();
        let fs = SimFs::new(BlockConfig::default(), cluster.weights);
        (SimBackend::new(cluster), catalog, fs)
    }

    #[test]
    fn sim_backend_matches_direct_execution() {
        let (backend, catalog, fs) = backend_and_world();
        let plan = LogicalPlan::scan("t");
        let (via_trait, m1) = backend.execute(&plan, &catalog, &fs).unwrap();
        let (direct, m2) = exec::execute(&plan, &catalog, &fs).unwrap();
        assert_eq!(via_trait.fingerprint(), direct.fingerprint());
        assert_eq!(m1, m2);
        assert_eq!(
            backend.elapsed_secs(&m1).to_bits(),
            backend.cluster().elapsed_secs(&m2).to_bits()
        );
    }

    #[test]
    fn pricing_delegates_to_cluster() {
        let backend = SimBackend::paper_default();
        let c = ClusterSim::paper_default();
        let block = 128 * 1024 * 1024;
        assert_eq!(
            backend.scan_secs(1_000_000_000, block).to_bits(),
            c.scan_secs(1_000_000_000, block).to_bits()
        );
        assert_eq!(
            backend.write_secs(1_000_000_000, 8).to_bits(),
            c.write_secs(1_000_000_000, 8).to_bits()
        );
    }

    #[test]
    fn backend_is_object_safe() {
        let boxed: Box<dyn ExecutionBackend> = Box::new(SimBackend::paper_default());
        assert!(boxed.scan_secs(0, 1) > 0.0, "even empty scans pay overhead");
    }

    use deepsea_relation::{DataType, Field, Schema, Value};
    use deepsea_storage::{CostWeights, FaultConfig, FaultInjector, FileId};

    // ── The plan memo ────────────────────────────────────────────────────

    use crate::plan::{AggExpr, ViewScanInfo};
    use deepsea_storage::{HedgeConfig, NodeConfig, NodeId, NodeSet};

    const FRAG_BYTES: u64 = 64 << 20;

    /// One world of the replay test: a base table `t`, and eight fragment
    /// files of two views placed two-way on four nodes, under every
    /// per-file fault, node downs, hedging and a slow node 1. Built the same
    /// way twice, two worlds draw the same faults for the same reads.
    fn chaos_world() -> (Catalog, SimFs<Table>, Vec<LogicalPlan>) {
        let mut catalog = Catalog::new();
        let t_schema = Schema::new(vec![
            Field::new("t.k", DataType::Int),
            Field::new("t.g", DataType::Int),
        ]);
        let rows = (0..40)
            .map(|i| vec![Value::Int(i % 8), Value::Int(i % 3)])
            .collect();
        catalog.register("t", Table::from_rows(t_schema, rows, 1_000));
        let faults = FaultConfig::seeded(29)
            .with_transient_reads(0.08)
            .with_permanent_loss(0.002)
            .with_corruption(0.002)
            .with_latency_spikes(0.3, 2.5)
            .with_node_downs(0.02, 6);
        let cluster = ClusterSim::paper_default();
        let fs = SimFs::with_cluster(
            BlockConfig::default(),
            cluster.weights,
            FaultInjector::new(faults),
            NodeSet::new(NodeConfig::new(4, 2)),
        );
        fs.set_node_slow(NodeId(1), 4.0);
        let base = fs.weights().read_cost(FRAG_BYTES);
        fs.set_hedge(Some(HedgeConfig::after_secs(1.5 * base)));
        fs.set_io_trace(true);
        let mut views = Vec::new();
        for name in ["v", "w"] {
            let schema = Schema::new(vec![
                Field::new(format!("{name}.k"), DataType::Int),
                Field::new(format!("{name}.x"), DataType::Int),
            ]);
            let files: Vec<FileId> = (0..6)
                .map(|f| {
                    let rows = (0..10)
                        .map(|r| vec![Value::Int(2 * f + r % 2), Value::Int(10 * f + r)])
                        .collect();
                    let frag = Table::from_rows(schema.clone(), rows, FRAG_BYTES / 10);
                    let (id, _) = fs.create(format!("{name}{f}"), FRAG_BYTES, frag);
                    let n = id.0 as u32;
                    fs.place(id, &[NodeId(n % 4), NodeId((n + 1) % 4)]);
                    id
                })
                .collect();
            views.push((name, schema, files));
        }
        let scan = |k: usize, files: &[usize]| {
            let (name, schema, ids) = &views[k];
            LogicalPlan::ViewScan(ViewScanInfo {
                view_name: name.to_string(),
                files: files.iter().map(|&f| ids[f]).collect(),
                schema: schema.clone(),
                clip: None,
            })
        };
        let plans = vec![
            scan(0, &[0, 1, 2]),
            scan(1, &[3]),
            scan(0, &[3, 4]),
            scan(1, &[5, 1]),
            scan(0, &[5]),
            scan(0, &[1, 2]).join(scan(1, &[0, 2]), vec![("v.k", "w.k")]),
            scan(1, &[4]).join(scan(0, &[4]), vec![("w.k", "v.k")]),
            LogicalPlan::scan("t")
                .join(scan(1, &[1, 3]), vec![("t.k", "w.k")])
                .select(Predicate::range("w.x", 5, 35))
                .aggregate(vec!["t.g"], vec![AggExpr::count("n")]),
            scan(1, &[2, 0]).join(scan(0, &[0]), vec![("w.k", "v.k")]),
        ];
        (catalog, fs, plans)
    }

    /// What one execution showed the caller and the file system: the
    /// result's fingerprint, the metrics with the penalty's bits, the error
    /// (it names its file), the ledger, the fault counters and the hedge
    /// races drained.
    fn observed(out: Result<(Table, ExecMetrics), ExecError>, fs: &SimFs<Table>) -> String {
        let out = out.map(|(t, m)| (t.fingerprint(), m, m.penalty_secs.to_bits()));
        format!(
            "{out:?} {:?} {:?} {:?}",
            fs.ledger(),
            fs.fault_stats(),
            fs.drain_hedge_traces()
        )
    }

    #[test]
    fn a_remembered_execution_replays_the_reads_of_a_fresh_one() {
        let (cat_a, fs_a, plans) = chaos_world();
        let (cat_b, fs_b, _) = chaos_world();
        let backend = SimBackend::paper_default();
        let mut seen = vec![false; plans.len()];
        let (mut repeats, mut errors, mut spiked) = (0, 0, 0);
        for call in 0..240usize {
            let k = (call * 7 + call / 5) % plans.len();
            let plan = &plans[k];
            let via_memo = backend.execute(plan, &cat_a, &fs_a);
            let direct = exec::execute(plan, &cat_b, &fs_b);
            match &direct {
                Ok((_, m)) => {
                    repeats += usize::from(seen[k]);
                    spiked += usize::from(m.penalty_secs > 0.0);
                    seen[k] = true;
                }
                Err(_) => errors += 1,
            }
            assert_eq!(
                observed(via_memo, &fs_a),
                observed(direct, &fs_b),
                "call {call}, plan {k}"
            );
        }
        let stats = fs_b.fault_stats();
        assert!(
            repeats > 50 && errors > 50 && spiked > 50,
            "{repeats} {errors} {spiked}"
        );
        assert!(stats.transient_reads > 0 && stats.corruptions > 0 && stats.permanent_losses > 0);
        assert!(stats.hedges_issued > 0 && stats.node_downs > 0, "{stats:?}");
    }

    /// `t.a` holds 2^53 and 2^53 + 1, which are one `f64`.
    fn big_ints() -> Catalog {
        let schema = Schema::new(vec![Field::new("t.a", DataType::Int)]);
        let rows = vec![vec![Value::Int(1 << 53)], vec![Value::Int((1 << 53) + 1)]];
        let mut catalog = Catalog::new();
        catalog.register("t", Table::from_rows(schema, rows, 8));
        catalog
    }

    #[test]
    fn plans_equal_across_literal_types_are_remembered_apart() {
        let catalog = big_ints();
        let fs = SimFs::new(BlockConfig::default(), CostWeights::default());
        let int = LogicalPlan::scan("t").select(Predicate::eq("t.a", Value::Int((1 << 53) + 1)));
        let float =
            LogicalPlan::scan("t").select(Predicate::eq("t.a", Value::Float(2f64.powi(53))));
        assert_eq!(int, float, "PartialEq takes one for the other");
        let backend = SimBackend::paper_default();
        for _ in 0..2 {
            for plan in [&int, &float] {
                let (got, _) = backend.execute(plan, &catalog, &fs).unwrap();
                let (want, _) = exec::execute(plan, &catalog, &fs).unwrap();
                assert_eq!(got.fingerprint(), want.fingerprint(), "{plan:?}");
            }
        }
        let rows = |plan| backend.execute(plan, &catalog, &fs).unwrap().0.len();
        assert_eq!((rows(&int), rows(&float)), (1, 2));
    }

    #[test]
    fn remembered_executions_are_scoped_to_their_file_system_and_catalog() {
        let backend = SimBackend::paper_default();
        let schema = Schema::new(vec![Field::new("v.a", DataType::Int)]);
        let scan = LogicalPlan::ViewScan(ViewScanInfo {
            view_name: "v".into(),
            files: vec![FileId(0)],
            schema: schema.clone(),
            clip: None,
        });
        let empty = Catalog::new();
        for a in [1, 2, 1] {
            let fs = SimFs::new(BlockConfig::default(), CostWeights::default());
            let frag = Table::from_rows(schema.clone(), vec![vec![Value::Int(a)]], 8);
            assert_eq!(fs.create("f", 8, frag).0, FileId(0));
            let (t, _) = backend.execute(&scan, &empty, &fs).unwrap();
            assert_eq!(t.row(0)[0], Value::Int(a), "file system {a}");
        }

        let fs = SimFs::new(BlockConfig::default(), CostWeights::default());
        let one = |a: i64| {
            let mut catalog = Catalog::new();
            let row = vec![vec![Value::Int(a)]];
            catalog.register("t", Table::from_rows(schema.clone(), row, 8));
            catalog
        };
        let mut second = one(2);
        for (catalog, a) in [(one(1), 1), (second.clone(), 2), (one(1), 1)] {
            let (t, _) = backend
                .execute(&LogicalPlan::scan("t"), &catalog, &fs)
                .unwrap();
            assert_eq!(t.row(0)[0], Value::Int(a), "catalog {a}");
        }
        // Registering anew, even the same name, is another catalog state.
        let row = vec![vec![Value::Int(3)]];
        second.register("t", Table::from_rows(schema.clone(), row, 8));
        let (t, _) = backend
            .execute(&LogicalPlan::scan("t"), &second, &fs)
            .unwrap();
        assert_eq!(t.row(0)[0], Value::Int(3));
    }

    #[test]
    fn the_memo_forgets_the_least_recently_used_plan() {
        let catalog = big_ints();
        let fs = SimFs::new(BlockConfig::default(), CostWeights::default());
        let backend = SimBackend::paper_default();
        let plan = |i: i64| LogicalPlan::scan("t").select(Predicate::range("t.a", i, i));
        let held = |i: i64| {
            let key = plan(i).exact_key();
            backend.memo().entries.iter().any(|e| e.key == key)
        };
        for i in 0..MEMO_PLANS as i64 {
            backend.execute(&plan(i), &catalog, &fs).unwrap();
        }
        assert!((0..MEMO_PLANS as i64).all(held));
        // Plan 0 used again: plan 1 is now the least recently used.
        backend.execute(&plan(0), &catalog, &fs).unwrap();
        backend
            .execute(&plan(MEMO_PLANS as i64), &catalog, &fs)
            .unwrap();
        assert_eq!(backend.memo().entries.len(), MEMO_PLANS);
        assert!(!held(1), "the least recently used plan is dropped");
        assert!(held(0) && held(2) && held(MEMO_PLANS as i64));
    }

    #[test]
    fn a_forked_reader_shares_the_memo() {
        let catalog = big_ints();
        let fs = SimFs::new(BlockConfig::default(), CostWeights::default());
        let backend = SimBackend::paper_default();
        let plan =
            LogicalPlan::scan("t").aggregate(Vec::<String>::new(), vec![AggExpr::count("n")]);
        let (read, _) = backend
            .fork_reader()
            .expect("forks")
            .execute(&plan, &catalog, &fs)
            .unwrap();
        let (commit, _) = backend.execute(&plan, &catalog, &fs).unwrap();
        assert!(read.column(0).shares(commit.column(0)), "computed twice");
    }
}
