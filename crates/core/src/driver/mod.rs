//! The online driver — Algorithm 1 (`ProcessQuery`) of the paper, as a
//! staged query-lifecycle pipeline split along the read/write axis:
//!
//! - [`read_path`] — the stages that only *consult* catalog state
//!   (signature matching, rewriting selection, execution of the chosen
//!   plan), expressed over an immutable [`read_path::ReadView`] so they can
//!   run against either the writer's live state or a published
//!   [`crate::snapshot::ReadSnapshot`];
//! - [`write_path`] — the stages that *mutate* it (statistics updates,
//!   candidate registration, Φ-selection, materialization, eviction, `Smax`
//!   enforcement, the durable commit point), serialized behind `&mut self`.
//!
//! Each stage communicates through a [`context::QueryContext`] threaded down
//! the pipeline and fills its slice of the per-query [`QueryTrace`] exposed
//! on [`QueryOutcome`]. [`DeepSea::process_query`] (in [`write_path`])
//! remains the single serialized entry point; the concurrent serving layer
//! on top of it lives in [`crate::server`].

pub(crate) mod context;
pub(crate) mod read_path;
pub(crate) mod write_path;

use std::collections::BTreeSet;
use std::sync::Arc;

use deepsea_engine::catalog::Catalog;
use deepsea_engine::cost::CostEstimator;
use deepsea_engine::exec::ExecMetrics;
use deepsea_engine::{ClusterSim, ExecutionBackend, RetryAttempt, SimBackend};
use deepsea_obs::{DecisionEvent, Observer, SpanCtx};
use deepsea_relation::Table;
use deepsea_storage::{BlockConfig, FaultStats, FileId, HedgeTrace, NodeId, PoolAccountant, SimFs};

use crate::config::DeepSeaConfig;
use crate::durability::{
    replay_catalog, CatalogJournal, CatalogRecord, CatalogSnapshot, FsckReport,
};
use crate::registry::ViewRegistry;
use crate::stats::LogicalTime;

pub use context::{
    CandidatesTrace, DurabilityTrace, EvictionTrace, ExecutionTrace, MatchingTrace,
    MaterializationTrace, QueryTrace, RecoveryTrace, RewritingTrace, SelectionTrace,
};

/// The result of processing one query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The query's result table.
    pub result: Table,
    /// Total simulated elapsed seconds charged to this query
    /// (`query_secs + creation_secs`).
    pub elapsed_secs: f64,
    /// Execution time of the (possibly rewritten) query.
    pub query_secs: f64,
    /// Overhead of materialization / repartitioning performed by this query.
    pub creation_secs: f64,
    /// Name of the view used to answer the query, if any.
    pub used_view: Option<String>,
    /// Human-readable descriptions of views/fragments materialized.
    pub materialized: Vec<String>,
    /// Human-readable descriptions of views/fragments evicted.
    pub evicted: Vec<String>,
    /// Names of views quarantined after permanent I/O failures while this
    /// query was processed.
    pub quarantined: Vec<String>,
    /// Execution metrics of the chosen plan.
    pub metrics: ExecMetrics,
    /// Per-stage counters and simulated costs for this query.
    pub trace: QueryTrace,
}

/// Journal-append debt accumulated since the last drain: retried transient
/// failures and their simulated backoff seconds, charged to the query (or
/// maintenance action) that performed the appends.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct JournalDebt {
    pub(crate) appends: u64,
    pub(crate) retries: u64,
    pub(crate) penalty_secs: f64,
}

/// A DeepSea instance: the materialized-view pool manager wrapped around a
/// catalog, a simulated file system and an execution backend.
pub struct DeepSea {
    pub(crate) config: DeepSeaConfig,
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) fs: Arc<SimFs<Table>>,
    pub(crate) backend: Box<dyn ExecutionBackend>,
    pub(crate) registry: ViewRegistry,
    pub(crate) clock: LogicalTime,
    /// Optional catalog journal; when attached every registry mutation is
    /// recorded at its commit point and the instance can be rebuilt by
    /// [`DeepSea::recover`]. When absent, journaling has zero overhead.
    pub(crate) journal: Option<Arc<CatalogJournal>>,
    /// Mirror ledger of pool usage, moved only by `commit` (from what
    /// applying each record reports) so crash recovery can assert the
    /// three-way invariant
    /// `pool.used == registry.pool_bytes() == fs.total_bytes()`. Unbounded:
    /// `Smax` is enforced by selection and `enforce_limit`, not here.
    pub(crate) pool: PoolAccountant,
    pub(crate) journal_debt: JournalDebt,
    /// Observability handle. Disabled (the default) it is a no-op; enabled it
    /// only ever *reads* driver state — decisions are identical either way
    /// (enforced by `tests/obs_transparency.rs`).
    pub(crate) obs: Observer,
    /// Cumulative simulated seconds across all processed queries — the span
    /// clock. Advanced unconditionally so attaching an observer mid-run
    /// cannot shift later timestamps.
    pub(crate) sim_elapsed: f64,
    /// Journal records appended since the last installed snapshot; reported
    /// in the `journal_snapshot` audit event.
    pub(crate) appends_since_snapshot: u64,
    /// Fragment files currently unreachable because every replica sits on a
    /// down node. Bookkeeping only — routing consults the cluster map
    /// directly — so quarantined-by-outage fragments can be re-admitted (and
    /// audited) the moment their node returns.
    pub(crate) offline: BTreeSet<FileId>,
    /// Fault counters at the last `observe_query`, so per-kind deltas can be
    /// surfaced as `deepsea_faults_total{kind=...}` without double counting.
    pub(crate) last_fault_stats: FaultStats,
    /// Per-(view, node) circuit breakers guarding the read path. Shared with
    /// every published snapshot (`Arc`): a failure observed by any reader
    /// protects all of them. Deliberately *not* journaled — breaker state is
    /// a health cache, so [`DeepSea::recover`] starts with every breaker
    /// closed (fail-safe).
    pub(crate) breakers: Arc<crate::breaker::BreakerSet>,
    /// Parent span + anchor the *next* `process_query` attaches its
    /// write-path spans under — armed by [`DeepSea::begin_ticket_span`] so
    /// the serving layer can pull a commit into its ticket's causal trace.
    /// Consumed (taken) by `observe_query`; `None` means the query starts
    /// its own trace on the driver's span clock.
    pub(crate) pending_span: Option<(SpanCtx, f64)>,
    /// Refinement candidates selection rejected and need not test again —
    /// see [`write_path::selection::PselMemo`].
    pub(crate) psel_memo: write_path::selection::PselMemo,
}

impl DeepSea {
    /// Create an instance with the paper-default cluster and block size.
    pub fn new(catalog: Catalog, config: DeepSeaConfig) -> Self {
        let cluster = ClusterSim::paper_default();
        let fs = SimFs::new(BlockConfig::default(), cluster.weights);
        Self::with_parts(Arc::new(catalog), Arc::new(fs), cluster, config)
    }

    /// Create an instance over existing substrates, simulated by `cluster`.
    pub fn with_parts(
        catalog: Arc<Catalog>,
        fs: Arc<SimFs<Table>>,
        cluster: ClusterSim,
        config: DeepSeaConfig,
    ) -> Self {
        Self::with_backend(catalog, fs, Box::new(SimBackend::new(cluster)), config)
    }

    /// Create an instance over an arbitrary execution backend — the only
    /// interface through which the driver runs plans and prices I/O.
    pub fn with_backend(
        catalog: Arc<Catalog>,
        fs: Arc<SimFs<Table>>,
        backend: Box<dyn ExecutionBackend>,
        config: DeepSeaConfig,
    ) -> Self {
        let breakers = Arc::new(crate::breaker::BreakerSet::new(config.breaker));
        Self {
            config,
            catalog,
            fs,
            backend,
            registry: ViewRegistry::new(),
            clock: 0,
            journal: None,
            pool: PoolAccountant::unbounded(),
            journal_debt: JournalDebt::default(),
            obs: Observer::off(),
            sim_elapsed: 0.0,
            appends_since_snapshot: 0,
            offline: BTreeSet::new(),
            last_fault_stats: FaultStats::default(),
            breakers,
            pending_span: None,
            psel_memo: Default::default(),
        }
    }

    /// Builder-style: attach an observability handle. The disabled handle
    /// (`Observer::off()`) keeps every instrumentation site a no-op.
    ///
    /// When the handle records spans, the storage/engine detail buffers
    /// (hedge-race and retry-ladder traces) are switched on so the driver
    /// can convert them into causal spans. The buffers are record-only:
    /// enabling them is bit-transparent to every decision and cost, pinned
    /// by tests in `deepsea-storage` and `deepsea-engine`.
    pub fn with_observer(mut self, obs: Observer) -> Self {
        let trace = obs.spans_enabled();
        self.fs.set_io_trace(trace);
        self.backend.set_attempt_trace(trace);
        self.obs = obs;
        self
    }

    /// Arm the causal parent for the next `process_query`: its write-path
    /// spans (commit, materialize, journal) are attached under `parent`,
    /// anchored at `anchor_secs` on the caller's timeline. One-shot —
    /// consumed by the next processed query.
    pub fn begin_ticket_span(&mut self, parent: SpanCtx, anchor_secs: f64) {
        self.pending_span = Some((parent, anchor_secs));
    }

    /// The attached observability handle.
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// Builder-style: attach a catalog journal. Every registry mutation from
    /// here on is recorded at its commit point; `DeepSea::recover` can then
    /// rebuild this instance from the journal after a crash.
    pub fn with_journal(mut self, journal: Arc<CatalogJournal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Rebuild an instance from its catalog journal after a crash: load the
    /// latest snapshot, replay the record suffix, then run an **fsck sweep**
    /// reconciling the recovered catalog against the file system — orphaned
    /// files (created but never recorded) are deleted, catalog entries whose
    /// backing files are missing or corrupt are quarantined, and the pool
    /// ledger is re-derived and asserted consistent. Finally a recovery
    /// checkpoint (full snapshot) is installed so a second crash recovers
    /// from the reconciled state — which is what makes recovery idempotent.
    pub fn recover(
        catalog: Arc<Catalog>,
        fs: Arc<SimFs<Table>>,
        backend: Box<dyn ExecutionBackend>,
        config: DeepSeaConfig,
        journal: Arc<CatalogJournal>,
    ) -> (Self, FsckReport) {
        let (snapshot, records) = journal.replay();
        let replayed_records = records.len() as u64;
        let snapshot_lsn = snapshot.as_ref().map(|(lsn, _)| *lsn);
        let (registry, clock) = replay_catalog(snapshot.map(|(_, s)| s), &records);

        let mut ds = Self::with_backend(catalog, fs, backend, config).with_journal(journal);
        ds.registry = registry;
        ds.clock = clock;

        // Restore the cluster placement map from the replayed record suffix
        // (files covered by the snapshot keep their placement in the
        // surviving namenode, i.e. the SimFs cluster map). Idempotent:
        // re-placing the same list is a no-op.
        if ds.fs.cluster().is_some() {
            for (_, record) in &records {
                if let CatalogRecord::ViewMaterialized { file, nodes, .. }
                | CatalogRecord::FragmentMaterialized { file, nodes, .. } = record
                {
                    let nodes: Vec<NodeId> = nodes.iter().map(|n| NodeId(*n)).collect();
                    ds.fs.place(*file, &nodes);
                }
            }
        }

        let mut report = ds.fsck();
        report.replayed_records = replayed_records;
        report.snapshot_lsn = snapshot_lsn;

        // Compact the journal to the reconciled post-fsck state so fsck's own
        // quarantines (and any pre-crash record tail) can never be re-applied
        // against a file system that has since moved on.
        if let Some(journal) = &ds.journal {
            journal.install_snapshot(CatalogSnapshot {
                registry: ds.registry.clone(),
                clock: ds.clock,
            });
        }
        (ds, report)
    }

    /// [`DeepSea::recover`] with an observer attached from the start: the
    /// fsck outcome is recorded as counters and an `fsck` audit event.
    pub fn recover_with_observer(
        catalog: Arc<Catalog>,
        fs: Arc<SimFs<Table>>,
        backend: Box<dyn ExecutionBackend>,
        config: DeepSeaConfig,
        journal: Arc<CatalogJournal>,
        obs: Observer,
    ) -> (Self, FsckReport) {
        let (ds, report) = Self::recover(catalog, fs, backend, config, journal);
        let ds = ds.with_observer(obs);
        ds.observe_fsck(&report);
        (ds, report)
    }

    /// Record a completed fsck sweep. Pure observation of the report.
    fn observe_fsck(&self, report: &FsckReport) {
        if !self.obs.enabled() {
            return;
        }
        self.obs.counter_add(
            "deepsea_fsck_replayed_records_total",
            None,
            report.replayed_records,
        );
        self.obs.counter_add(
            "deepsea_fsck_orphan_files_total",
            None,
            report.orphan_files as u64,
        );
        self.obs.counter_add(
            "deepsea_fsck_quarantined_views_total",
            None,
            report.quarantined_views as u64,
        );
        self.obs.event(
            self.clock,
            DecisionEvent::Fsck {
                missing_files: report.missing_files as u64,
                corrupt_files: report.corrupt_files as u64,
                orphan_files: report.orphan_files as u64,
                quarantined_views: report.quarantined_views as u64,
                replayed_records: report.replayed_records,
            },
        );
    }

    /// The configuration in force.
    pub fn config(&self) -> &DeepSeaConfig {
        &self.config
    }

    /// The statistics registry (views, partitions, fragments).
    pub fn registry(&self) -> &ViewRegistry {
        &self.registry
    }

    /// Current logical time (number of queries processed).
    pub fn clock(&self) -> LogicalTime {
        self.clock
    }

    /// Simulated bytes currently held by the pool.
    pub fn pool_bytes(&self) -> u64 {
        self.registry.pool_bytes()
    }

    /// The underlying simulated file system.
    pub fn fs(&self) -> &SimFs<Table> {
        &self.fs
    }

    /// The attached catalog journal, if any.
    pub fn journal(&self) -> Option<&Arc<CatalogJournal>> {
        self.journal.as_ref()
    }

    /// The mirror pool ledger (used bytes + over-release violations).
    pub fn pool_accountant(&self) -> &PoolAccountant {
        &self.pool
    }

    /// The cluster model of the execution backend.
    pub fn cluster(&self) -> &ClusterSim {
        self.backend.cluster()
    }

    /// Fragment files currently unreachable due to a node outage (temporarily
    /// quarantined at fragment granularity, auto re-admitted on node return).
    pub fn offline_fragments(&self) -> Vec<FileId> {
        self.offline.iter().copied().collect()
    }

    /// The read-path circuit breakers (shared with every published snapshot).
    pub fn breakers(&self) -> &crate::breaker::BreakerSet {
        &self.breakers
    }

    /// A cost estimator over the backend's cluster model.
    pub(crate) fn estimator(&self) -> CostEstimator<'_> {
        CostEstimator::new(&self.catalog, &self.fs, self.backend.cluster())
    }

    /// Record the per-query metrics and spans from the finished outcome.
    /// Reads only — no decision depends on anything done here.
    pub(crate) fn observe_query(&mut self, outcome: &QueryOutcome) {
        let start = self.sim_elapsed;
        // Advance the span clock even when disabled, so enabling observation
        // mid-run cannot shift later span timestamps. The armed ticket span
        // is one-shot either way.
        self.sim_elapsed += outcome.elapsed_secs;
        let pending = self.pending_span.take();
        if !self.obs.enabled() {
            return;
        }
        let tnow = self.clock;
        self.obs.counter_inc("deepsea_queries_total", None);
        self.obs
            .observe("deepsea_query_secs", None, outcome.query_secs);
        if outcome.creation_secs > 0.0 {
            self.obs
                .observe("deepsea_creation_secs", None, outcome.creation_secs);
        }
        // Scope the I/O detail buffers to this query regardless of what gets
        // emitted: an undrained buffer would misattribute this query's
        // retries/hedges to a later traced query.
        let attempts = self.backend.drain_retry_attempts();
        let hedges = self.fs.drain_hedge_traces();
        match pending {
            // A serving-layer commit: attach the write path to its ticket's
            // trace. Only the writer-occupying work (creation + journal) is
            // spanned — the canonical re-execution's cost is client-invisible
            // (the read already carries the execute spans).
            Some((parent, anchor)) => {
                let end = anchor + outcome.creation_secs;
                let commit = self.obs.record_span(
                    tnow,
                    "commit",
                    outcome.used_view.as_deref(),
                    parent,
                    anchor,
                    end,
                );
                let journal_secs = outcome.trace.durability.journal_penalty_secs;
                let mat_end = end - journal_secs;
                if mat_end > anchor {
                    self.obs
                        .record_span(tnow, "materialize", None, commit, anchor, mat_end);
                }
                if journal_secs > 0.0 {
                    self.obs
                        .record_span(tnow, "journal", None, commit, mat_end, end);
                }
            }
            // The serial path: the query roots its own trace on the driver's
            // span clock, with execute/materialize (and the drained I/O
            // detail) as causal children.
            None => {
                let root = self.obs.record_span(
                    tnow,
                    "query",
                    None,
                    SpanCtx::root(tnow),
                    start,
                    start + outcome.elapsed_secs,
                );
                let exec = self.obs.record_span(
                    tnow,
                    "execute",
                    outcome.used_view.as_deref(),
                    root,
                    start,
                    start + outcome.query_secs,
                );
                emit_io_detail_spans(
                    &self.obs,
                    tnow,
                    exec,
                    start,
                    start + outcome.query_secs,
                    &attempts,
                    &hedges,
                );
                if outcome.creation_secs > 0.0 {
                    self.obs.record_span(
                        tnow,
                        "materialize",
                        None,
                        root,
                        start + outcome.query_secs,
                        start + outcome.elapsed_secs,
                    );
                }
            }
        }
        if let Some(view) = &outcome.used_view {
            self.obs.counter_inc("deepsea_view_hits_total", Some(view));
        }
        self.obs.counter_add(
            "deepsea_exec_bytes_read_total",
            outcome.used_view.as_deref(),
            outcome.metrics.bytes_read,
        );
        self.obs.counter_add(
            "deepsea_exec_map_tasks_total",
            None,
            outcome.metrics.map_tasks,
        );
        self.obs.counter_add(
            "deepsea_evictions_total",
            None,
            outcome.evicted.len() as u64,
        );
        self.obs.counter_add(
            "deepsea_quarantines_total",
            None,
            outcome.quarantined.len() as u64,
        );
        self.obs
            .gauge_set("deepsea_pool_bytes", None, self.pool_bytes() as f64);
        self.observe_fault_deltas();
    }

    /// Surface the file system's fault counters as per-kind
    /// `deepsea_faults_total{kind=...}` deltas since the last query. Reads
    /// only — the counters are cumulative on the FS side.
    fn observe_fault_deltas(&mut self) {
        let now = self.fs.fault_stats();
        let last = self.last_fault_stats;
        self.last_fault_stats = now;
        let kinds: [(&str, u64, u64); 12] = [
            ("transient_read", now.transient_reads, last.transient_reads),
            (
                "permanent_loss",
                now.permanent_losses,
                last.permanent_losses,
            ),
            (
                "transient_write",
                now.transient_writes,
                last.transient_writes,
            ),
            ("latency_spike", now.latency_spikes, last.latency_spikes),
            ("corruption", now.corruptions, last.corruptions),
            ("node_down", now.node_downs, last.node_downs),
            ("node_up", now.node_ups, last.node_ups),
            ("node_kill", now.node_kills, last.node_kills),
            ("node_slow", now.node_slows, last.node_slows),
            ("hedge_issued", now.hedges_issued, last.hedges_issued),
            ("hedge_won", now.hedges_won, last.hedges_won),
            (
                "hedge_cancelled",
                now.hedges_cancelled,
                last.hedges_cancelled,
            ),
        ];
        for (kind, now, last) in kinds {
            let delta = now.saturating_sub(last);
            if delta > 0 {
                self.obs
                    .counter_add("deepsea_faults_total", Some(kind), delta);
            }
        }
    }
}

/// Lay the drained I/O detail — retry-ladder waits and hedge races — as
/// children of an `execute` span covering `[start, end]`.
///
/// The simulator prices an execution as one analytic total, so the detail
/// offsets are deterministic *reconstructions*: events are laid end to end
/// from the execute start (retries first, then each hedge race), clamped so
/// a child never escapes its parent. Within one hedge race both arms start
/// at the primary read; the replica arm is issued after the hedge threshold
/// and both arms end when the winner returns (the loser is cancelled at
/// that instant), so winner/loser and the node each arm read from are
/// visible on the trace.
pub(crate) fn emit_io_detail_spans(
    obs: &Observer,
    tnow: LogicalTime,
    exec: SpanCtx,
    start: f64,
    end: f64,
    attempts: &[RetryAttempt],
    hedges: &[HedgeTrace],
) {
    if exec.is_none() || (attempts.is_empty() && hedges.is_empty()) {
        return;
    }
    let clamp = |v: f64| v.min(end).max(start);
    let mut cursor = start;
    for a in attempts {
        let label = match a.file {
            Some(f) => format!("attempt{} file{}", a.attempt, f.0),
            None => format!("attempt{}", a.attempt),
        };
        obs.record_span(
            tnow,
            "retry_wait",
            Some(&label),
            exec,
            clamp(cursor),
            clamp(cursor + a.backoff_secs),
        );
        cursor += a.backoff_secs;
    }
    for h in hedges {
        let total = if h.winner_replica {
            h.replica_secs
        } else {
            h.primary_secs
        };
        let primary_label = format!(
            "node{} {}",
            h.primary.0,
            if h.winner_replica { "cancelled" } else { "win" }
        );
        let replica_label = format!(
            "node{} {}",
            h.replica.0,
            if h.winner_replica { "win" } else { "cancelled" }
        );
        obs.record_span(
            tnow,
            "hedge_primary",
            Some(&primary_label),
            exec,
            clamp(cursor),
            clamp(cursor + total),
        );
        obs.record_span(
            tnow,
            "hedge_replica",
            Some(&replica_label),
            exec,
            clamp(cursor + h.threshold_secs.min(total)),
            clamp(cursor + total),
        );
        cursor += total;
    }
}

#[cfg(test)]
mod tests;
