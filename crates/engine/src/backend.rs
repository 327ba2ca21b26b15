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

// deepsea-lint: allow(lock_discipline) -- backend instrumentation counter cell; single lock, held for a field update only
use std::sync::Mutex;

use deepsea_relation::Table;
use deepsea_storage::{FileId, SimFs};

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

    /// Wall-clock seconds for one execution's metrics.
    fn elapsed_secs(&self, metrics: &ExecMetrics) -> f64;

    /// Seconds for a pure scan of `bytes` split into `block_bytes` blocks.
    fn scan_secs(&self, bytes: u64, block_bytes: u64) -> f64;

    /// Seconds for writing `bytes` into `files` output files.
    fn write_secs(&self, bytes: u64, files: u64) -> f64;

    /// The cluster model driving the cost estimator — the analytic side of
    /// the same pricing this backend applies to real executions.
    fn cluster(&self) -> &ClusterSim;

    /// Take (and reset) the retry cost of executions that ultimately
    /// *failed*: `(retries, backoff_secs)` spent before giving up. A backend
    /// that retries cannot report this through `ExecMetrics` — there is no
    /// success to attach it to — so the driver drains it here and charges it
    /// to whatever recovery path it takes next. Non-retrying backends owe
    /// nothing.
    fn drain_retry_debt(&self) -> (u64, f64) {
        (0, 0.0)
    }

    /// A read-only clone of this backend for a concurrent snapshot reader,
    /// pricing I/O identically (same cluster model, bit for bit). `None`
    /// (the default) means the backend cannot be shared across readers —
    /// e.g. it carries retry debt or other mutable bookkeeping that must
    /// stay attributed to the single writer.
    fn fork_reader(&self) -> Option<Box<dyn ExecutionBackend>> {
        None
    }

    /// Arm (or disarm, with `None`) a per-query retry *budget*: a token
    /// bucket of simulated backoff seconds shared across every operation of
    /// the query. While armed, a retry is only taken if its backoff still
    /// fits in the remaining budget, so retry debt cannot amplify under
    /// overload. The driver calls this at the start of each query;
    /// non-retrying backends ignore it.
    fn reset_retry_budget(&self, _budget_secs: Option<f64>) {}

    /// Enable or disable the drainable retry-attempt trace (see
    /// [`RetryAttempt`]). Off by default; enabling it records metadata only
    /// and never changes a retry decision, a backoff charge, or a result.
    /// Non-retrying backends ignore it.
    fn set_attempt_trace(&self, _enabled: bool) {}

    /// Drain the retry-ladder steps recorded since the last drain (always
    /// empty unless [`ExecutionBackend::set_attempt_trace`] enabled the
    /// trace). The tracing layer above converts these into spans.
    fn drain_retry_attempts(&self) -> Vec<RetryAttempt> {
        Vec::new()
    }
}

/// One step of a retry ladder, recorded by the attempt trace so the
/// observability layer can render each backoff wait as a span. Purely
/// descriptive: the retry decision was already made when this is recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryAttempt {
    /// 0-based retry index within its ladder.
    pub attempt: u32,
    /// Simulated seconds this step waited before re-running.
    pub backoff_secs: f64,
    /// The file whose transient failure triggered the retry, if known.
    pub file: Option<FileId>,
}

/// Retry budget and exponential-backoff schedule for transient I/O failures.
///
/// Backoff is charged in *simulated* seconds so reported elapsed times
/// reflect retry cost honestly; attempt `n` (0-based) waits
/// `base_backoff_secs * backoff_multiplier^n` before re-running.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of re-executions after the first failure.
    pub max_retries: u32,
    /// Simulated seconds waited before the first retry.
    pub base_backoff_secs: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_multiplier: f64,
    /// Hard cap on the *total* simulated backoff one operation may accrue,
    /// whatever `max_retries` says. Exponential backoff is unbounded in the
    /// retry count; this bounds it in seconds, so a pathological policy (or
    /// a permanently failing op under a generous retry count) cannot charge
    /// more than the cap to elapsed time or retry debt.
    pub max_total_backoff_secs: f64,
}

impl RetryPolicy {
    /// Simulated backoff before retry number `attempt` (0-based).
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        self.base_backoff_secs * self.backoff_multiplier.powi(attempt as i32)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff_secs: 0.5,
            backoff_multiplier: 2.0,
            max_total_backoff_secs: 600.0,
        }
    }
}

/// Decorator adding transient-failure retry with exponential backoff to any
/// [`ExecutionBackend`].
///
/// Transient errors re-run the whole plan (executions are deterministic, so
/// a retried success is bit-identical to an undisturbed one); permanent
/// errors and non-I/O errors propagate immediately. Backoff and retry counts
/// for *successful* executions ride along in the returned
/// [`ExecMetrics::penalty_secs`] / [`ExecMetrics::retries`]; the cost of
/// executions that exhausted the budget accumulates as debt the driver
/// drains via [`ExecutionBackend::drain_retry_debt`].
#[derive(Debug)]
pub struct RetryingBackend<B> {
    inner: B,
    policy: RetryPolicy,
    /// `(retries, backoff_secs)` spent on executions that ultimately failed.
    debt: Mutex<(u64, f64)>,
    /// Remaining per-query retry budget in simulated seconds, when armed
    /// (see [`ExecutionBackend::reset_retry_budget`]). `None` = unbudgeted:
    /// only `max_retries` and `max_total_backoff_secs` bound retries.
    budget: Mutex<Option<f64>>,
    /// Drainable retry-ladder steps; `None` = attempt trace disabled.
    attempts_log: Mutex<Option<Vec<RetryAttempt>>>,
}

impl<B> RetryingBackend<B> {
    /// Wrap a backend with a retry policy.
    pub fn new(inner: B, policy: RetryPolicy) -> Self {
        Self {
            inner,
            policy,
            debt: Mutex::new((0, 0.0)),
            budget: Mutex::new(None),
            attempts_log: Mutex::new(None),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Remaining simulated seconds in the armed retry budget, if any.
    pub fn retry_budget_remaining(&self) -> Option<f64> {
        *self.budget.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Whether the next retry's backoff fits both the per-op cap and the
    /// per-query budget; deducts from the budget when it does. `spent` is
    /// the backoff already accrued by this operation.
    fn take_backoff_token(&self, spent: f64, attempt: u32) -> bool {
        let next = self.policy.backoff_secs(attempt);
        if spent + next > self.policy.max_total_backoff_secs {
            return false;
        }
        let mut budget = self.budget.lock().unwrap_or_else(|p| p.into_inner());
        match budget.as_mut() {
            None => true,
            Some(remaining) if next <= *remaining => {
                *remaining -= next;
                true
            }
            Some(_) => false,
        }
    }
}

impl<B: ExecutionBackend> ExecutionBackend for RetryingBackend<B> {
    fn execute(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        fs: &SimFs<Table>,
    ) -> Result<(Table, ExecMetrics), ExecError> {
        let mut attempts = 0u32;
        let mut backoff = 0.0f64;
        loop {
            match self.inner.execute(plan, catalog, fs) {
                Ok((table, mut m)) => {
                    m.retries += attempts as u64;
                    m.penalty_secs += backoff;
                    return Ok((table, m));
                }
                // Don't burn the retry budget against a whole-node outage:
                // when every replica of the failing file is down, the
                // namenode already knows a retry cannot succeed until a node
                // returns, so the error propagates immediately and the
                // driver's degraded path takes over. Only ever true on a
                // cluster-sharded FS, so plain fault schedules keep their
                // exact retry timings.
                Err(e)
                    if e.is_transient()
                        && attempts < self.policy.max_retries
                        && !e.file().is_some_and(|f| fs.outage_blocked(f))
                        && self.take_backoff_token(backoff, attempts) =>
                {
                    let wait = self.policy.backoff_secs(attempts);
                    let mut log = self.attempts_log.lock().unwrap_or_else(|p| p.into_inner());
                    if let Some(log) = log.as_mut() {
                        log.push(RetryAttempt {
                            attempt: attempts,
                            backoff_secs: wait,
                            file: e.file(),
                        });
                    }
                    drop(log);
                    backoff += wait;
                    attempts += 1;
                }
                Err(e) => {
                    if attempts > 0 {
                        let mut debt = self.debt.lock().unwrap_or_else(|p| p.into_inner());
                        debt.0 += attempts as u64;
                        debt.1 += backoff;
                    }
                    return Err(e);
                }
            }
        }
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
        let mut debt = self.debt.lock().unwrap_or_else(|p| p.into_inner());
        std::mem::take(&mut *debt)
    }

    fn reset_retry_budget(&self, budget_secs: Option<f64>) {
        *self.budget.lock().unwrap_or_else(|p| p.into_inner()) = budget_secs;
    }

    fn fork_reader(&self) -> Option<Box<dyn ExecutionBackend>> {
        // A forked reader retries under the same policy but owns *fresh*
        // debt and budget cells: retry cost stays attributed to the reader
        // that paid it, and one reader's budget can never starve another's.
        // The attempt-trace gate is inherited so reader-side retry ladders
        // keep tracing (their spans are no longer orphaned).
        let inner = self.inner.fork_reader()?;
        let fork = RetryingBackend::new(inner, self.policy);
        if self
            .attempts_log
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_some()
        {
            fork.set_attempt_trace(true);
        }
        Some(Box::new(fork))
    }

    fn set_attempt_trace(&self, enabled: bool) {
        *self.attempts_log.lock().unwrap_or_else(|p| p.into_inner()) =
            if enabled { Some(Vec::new()) } else { None };
    }

    fn drain_retry_attempts(&self) -> Vec<RetryAttempt> {
        self.attempts_log
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }
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

    fn drain_retry_debt(&self) -> (u64, f64) {
        (**self).drain_retry_debt()
    }

    fn fork_reader(&self) -> Option<Box<dyn ExecutionBackend>> {
        (**self).fork_reader()
    }

    fn reset_retry_budget(&self, budget_secs: Option<f64>) {
        (**self).reset_retry_budget(budget_secs)
    }

    fn set_attempt_trace(&self, enabled: bool) {
        (**self).set_attempt_trace(enabled)
    }

    fn drain_retry_attempts(&self) -> Vec<RetryAttempt> {
        (**self).drain_retry_attempts()
    }
}

/// The simulated backend: the in-memory executor timed by [`ClusterSim`].
#[derive(Debug, Clone, Copy)]
pub struct SimBackend {
    cluster: ClusterSim,
}

impl SimBackend {
    /// Wrap a cluster model.
    pub fn new(cluster: ClusterSim) -> Self {
        Self { cluster }
    }

    /// The paper's evaluation cluster.
    pub fn paper_default() -> Self {
        Self::new(ClusterSim::paper_default())
    }
}

impl ExecutionBackend for SimBackend {
    fn execute(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        fs: &SimFs<Table>,
    ) -> Result<(Table, ExecMetrics), ExecError> {
        exec::execute(plan, catalog, fs)
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
        // Stateless (the cluster model is `Copy`): a fork prices and
        // executes identically to the original.
        Some(Box::new(*self))
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
        assert_eq!(boxed.drain_retry_debt(), (0, 0.0), "sim backend owes none");
    }

    use deepsea_relation::{DataType, Field, Schema, Value};
    use deepsea_storage::{CostWeights, FaultConfig, FaultInjector, FileId};

    /// A one-fragment view scan over a fault-injecting FS.
    fn faulty_view_world(cfg: FaultConfig) -> (Catalog, SimFs<Table>, LogicalPlan, FileId) {
        let catalog = Catalog::new();
        let fs = SimFs::with_faults(
            BlockConfig::default(),
            CostWeights::default(),
            FaultInjector::new(cfg),
        );
        let schema = Schema::new(vec![Field::new("v.a", DataType::Int)]);
        let frag = Table::from_rows(schema.clone(), vec![vec![Value::Int(1)]], 500);
        let (id, _) = fs.create("frag", frag.sim_bytes(), frag);
        let plan = LogicalPlan::ViewScan(crate::plan::ViewScanInfo {
            view_name: "v".into(),
            files: vec![id],
            schema,
            clip: None,
        });
        (catalog, fs, plan, id)
    }

    #[test]
    fn retrying_backend_retries_transients_to_success() {
        // ~50% transient failures against a deep retry budget: every
        // execution in this fixed schedule succeeds, most after retries.
        let cfg = FaultConfig::seeded(11).with_transient_reads(0.5);
        let (catalog, fs, plan, _) = faulty_view_world(cfg);
        let policy = RetryPolicy {
            max_retries: 16,
            ..RetryPolicy::default()
        };
        let backend = RetryingBackend::new(SimBackend::paper_default(), policy);
        let mut total_retries = 0;
        let mut saw_backoff = false;
        for _ in 0..20 {
            let (t, m) = backend
                .execute(&plan, &catalog, &fs)
                .expect("within budget");
            assert_eq!(t.len(), 1, "retried result is the real result");
            total_retries += m.retries;
            saw_backoff |= m.penalty_secs > 0.0;
            // Backoff is charged into elapsed time.
            let base = backend.inner().elapsed_secs(&ExecMetrics {
                penalty_secs: 0.0,
                ..m
            });
            assert_eq!(
                backend.elapsed_secs(&m).to_bits(),
                (base + m.penalty_secs).to_bits()
            );
        }
        assert!(total_retries > 0, "seed 11 must exercise retries");
        assert!(saw_backoff, "retries charge simulated backoff");
        assert_eq!(backend.drain_retry_debt(), (0, 0.0), "no failed executions");
    }

    #[test]
    fn retrying_backend_gives_up_and_records_debt() {
        let cfg = FaultConfig::seeded(1).with_transient_reads(1.0);
        let (catalog, fs, plan, id) = faulty_view_world(cfg);
        let policy = RetryPolicy::default();
        let backend = RetryingBackend::new(SimBackend::paper_default(), policy);
        let err = backend.execute(&plan, &catalog, &fs).unwrap_err();
        assert_eq!(
            err,
            ExecError::TransientIo(deepsea_storage::IoError::TransientRead(id))
        );
        let (retries, secs) = backend.drain_retry_debt();
        assert_eq!(retries, policy.max_retries as u64);
        let expected: f64 = (0..policy.max_retries)
            .map(|a| policy.backoff_secs(a))
            .sum();
        assert_eq!(secs.to_bits(), expected.to_bits());
        assert_eq!(
            backend.drain_retry_debt(),
            (0, 0.0),
            "drain resets the debt"
        );
    }

    #[test]
    fn retrying_backend_short_circuits_node_outages() {
        use deepsea_storage::{NodeConfig, NodeId, NodeSet};
        let catalog = Catalog::new();
        let fs = SimFs::with_cluster(
            BlockConfig::default(),
            CostWeights::default(),
            FaultInjector::disabled(),
            NodeSet::new(NodeConfig::new(2, 1)),
        );
        let schema = Schema::new(vec![Field::new("v.a", DataType::Int)]);
        let frag = Table::from_rows(schema.clone(), vec![vec![Value::Int(1)]], 500);
        let out = fs
            .try_create_placed("frag", frag.sim_bytes(), frag, &[NodeId(0)])
            .expect("no faults");
        let id = out.value;
        let plan = LogicalPlan::ViewScan(crate::plan::ViewScanInfo {
            view_name: "v".into(),
            files: vec![id],
            schema,
            clip: None,
        });
        fs.set_node_down(NodeId(0));
        let backend = RetryingBackend::new(SimBackend::paper_default(), RetryPolicy::default());
        let err = backend.execute(&plan, &catalog, &fs).unwrap_err();
        assert!(
            err.is_transient(),
            "an outage is transient (node may return)"
        );
        assert_eq!(err.file(), Some(id));
        assert_eq!(
            backend.drain_retry_debt(),
            (0, 0.0),
            "no retry budget burned against a whole-node outage"
        );
        // Once the node returns, the same plan executes cleanly.
        fs.set_node_up(NodeId(0));
        let (t, m) = backend.execute(&plan, &catalog, &fs).expect("node is back");
        assert_eq!(t.len(), 1);
        assert_eq!(m.retries, 0);
    }

    #[test]
    fn total_backoff_is_capped_even_outside_budget_mode() {
        // Regression: a permanently-failing op under a pathological policy
        // (deep retry count, no budget armed) must not accrue more backoff
        // than `max_total_backoff_secs` in simulated seconds.
        let cfg = FaultConfig::seeded(1).with_transient_reads(1.0);
        let (catalog, fs, plan, _) = faulty_view_world(cfg);
        let policy = RetryPolicy {
            max_retries: 64,
            max_total_backoff_secs: 100.0,
            ..RetryPolicy::default()
        };
        let backend = RetryingBackend::new(SimBackend::paper_default(), policy);
        let err = backend.execute(&plan, &catalog, &fs).unwrap_err();
        assert!(err.is_transient());
        let (retries, secs) = backend.drain_retry_debt();
        assert!(secs <= 100.0, "debt capped at the policy ceiling: {secs}");
        // 0.5 * (2^8 - 1) = 127.5 > 100 > 63.5: exactly 7 retries fit.
        assert_eq!(retries, 7);
        let expected: f64 = (0..7).map(|a| policy.backoff_secs(a)).sum();
        assert_eq!(secs.to_bits(), expected.to_bits());
        assert_eq!(backend.drain_retry_debt(), (0, 0.0), "drain resets");
    }

    #[test]
    fn retry_budget_bounds_backoff_across_ops_of_a_query() {
        let cfg = FaultConfig::seeded(1).with_transient_reads(1.0);
        let (catalog, fs, plan, _) = faulty_view_world(cfg);
        let policy = RetryPolicy {
            max_retries: 16,
            ..RetryPolicy::default()
        };
        let backend = RetryingBackend::new(SimBackend::paper_default(), policy);
        // Budget of 2.0 simulated seconds: backoffs 0.5 + 1.0 fit, the next
        // (2.0 > 0.5 remaining) does not — two retries, then give up.
        backend.reset_retry_budget(Some(2.0));
        let err = backend.execute(&plan, &catalog, &fs).unwrap_err();
        assert!(err.is_transient());
        let (retries, secs) = backend.drain_retry_debt();
        assert_eq!(retries, 2);
        assert_eq!(secs.to_bits(), 1.5f64.to_bits());
        // The budget is shared across ops: a second failing op of the same
        // query finds the bucket nearly empty and takes a single retry.
        let err = backend.execute(&plan, &catalog, &fs).unwrap_err();
        assert!(err.is_transient());
        let (retries, secs) = backend.drain_retry_debt();
        assert_eq!(retries, 1);
        assert_eq!(secs.to_bits(), 0.5f64.to_bits());
        assert_eq!(backend.retry_budget_remaining(), Some(0.0));
        // Re-arming restores the full bucket; disarming removes the bound.
        backend.reset_retry_budget(Some(2.0));
        assert_eq!(backend.retry_budget_remaining(), Some(2.0));
        backend.reset_retry_budget(None);
        let _ = backend.execute(&plan, &catalog, &fs).unwrap_err();
        let (retries, _) = backend.drain_retry_debt();
        // Unbudgeted again: only the per-op cap binds now. With the default
        // 600 s ceiling and 0.5 · 2^n backoff, 10 retries fit (511.5 s).
        assert_eq!(retries, 10, "unbudgeted again, capped per-op");
    }

    #[test]
    fn attempt_trace_records_ladder_steps_without_changing_decisions() {
        let cfg = FaultConfig::seeded(1).with_transient_reads(1.0);
        let (catalog, fs, plan, id) = faulty_view_world(cfg);
        let policy = RetryPolicy::default();
        let backend = RetryingBackend::new(SimBackend::paper_default(), policy);
        // Trace off (the default): the ladder runs, nothing is recorded.
        let _ = backend.execute(&plan, &catalog, &fs).unwrap_err();
        assert!(backend.drain_retry_attempts().is_empty());
        let (untraced_retries, untraced_secs) = backend.drain_retry_debt();
        // Trace on: identical ladder, every step recorded.
        backend.set_attempt_trace(true);
        let _ = backend.execute(&plan, &catalog, &fs).unwrap_err();
        let steps = backend.drain_retry_attempts();
        assert_eq!(steps.len(), untraced_retries as usize);
        let total: f64 = steps.iter().map(|s| s.backoff_secs).sum();
        assert_eq!(total.to_bits(), untraced_secs.to_bits());
        for (i, s) in steps.iter().enumerate() {
            assert_eq!(s.attempt, i as u32);
            assert_eq!(s.file, Some(id));
            assert_eq!(
                s.backoff_secs.to_bits(),
                policy.backoff_secs(s.attempt).to_bits()
            );
        }
        assert!(backend.drain_retry_attempts().is_empty(), "drain resets");
        // A forked reader inherits the gate.
        let fork = backend.fork_reader().expect("sim backend forks");
        let _ = fork.execute(&plan, &catalog, &fs).unwrap_err();
        assert!(!fork.drain_retry_attempts().is_empty());
        backend.set_attempt_trace(false);
        assert!(backend
            .fork_reader()
            .expect("forks")
            .drain_retry_attempts()
            .is_empty());
    }

    #[test]
    fn retrying_backend_does_not_retry_permanent_failures() {
        let cfg = FaultConfig::seeded(1).with_permanent_loss(1.0);
        let (catalog, fs, plan, id) = faulty_view_world(cfg);
        let backend = RetryingBackend::new(SimBackend::paper_default(), RetryPolicy::default());
        let err = backend.execute(&plan, &catalog, &fs).unwrap_err();
        assert!(!err.is_transient());
        assert_eq!(err.file(), Some(id));
        assert_eq!(
            backend.drain_retry_debt(),
            (0, 0.0),
            "permanent failures spend no retry budget"
        );
    }

    #[test]
    fn retrying_backend_is_transparent_without_faults() {
        let (inner, catalog, fs) = backend_and_world();
        let backend = RetryingBackend::new(inner, RetryPolicy::default());
        let plan = LogicalPlan::scan("t");
        let (t1, m1) = backend.execute(&plan, &catalog, &fs).unwrap();
        let (t2, m2) = inner.execute(&plan, &catalog, &fs).unwrap();
        assert_eq!(t1.fingerprint(), t2.fingerprint());
        assert_eq!(m1, m2);
        assert_eq!(
            backend.elapsed_secs(&m1).to_bits(),
            inner.elapsed_secs(&m2).to_bits()
        );
    }
}
