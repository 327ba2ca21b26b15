//! Immutable catalog snapshots for concurrent readers.
//!
//! A [`ReadSnapshot`] is what the single writer *publishes* after each
//! committed query: the view registry as of that commit (and, transitively,
//! its filter tree and statistics) plus `Arc` handles on the shared
//! substrates, stamped with the epoch it was taken at. Readers answer
//! queries against a snapshot through the same read-path code the serial
//! driver uses ([`crate::driver`]'s `ReadView`), so a query answered from a
//! snapshot is bit-identical to the same query answered by the writer at
//! that epoch.
//!
//! Nothing is deep-copied at publication: the registry is copy-on-write
//! (see [`crate::registry`]), so a snapshot takes one reference per view and
//! the writer's *next* commit copies only the views, partitions and
//! fragments it changes — consecutive epochs share everything else. Each
//! epoch's registry is immutable once published, so any number of readers
//! share it and the writer never waits for them.

use std::sync::Arc;

use deepsea_engine::catalog::Catalog;
use deepsea_engine::exec::{ExecError, ExecMetrics};
use deepsea_engine::plan::LogicalPlan;
use deepsea_engine::ExecutionBackend;
use deepsea_obs::{Observer, SpanCtx};
use deepsea_relation::Table;
use deepsea_storage::SimFs;

use crate::breaker::BreakerSet;
use crate::config::DeepSeaConfig;
use crate::driver::context::QueryContext;
use crate::driver::read_path::ReadView;
use crate::driver::{DeepSea, QueryTrace};
use crate::registry::ViewRegistry;

/// A frozen, shareable view of everything the read path consults, stamped
/// with the epoch (committed-query count) it was published at.
pub struct ReadSnapshot {
    /// The epoch this snapshot captures — equal to the writer's logical
    /// clock (number of committed queries) at publication time.
    epoch: u64,
    registry: Arc<ViewRegistry>,
    catalog: Arc<Catalog>,
    fs: Arc<SimFs<Table>>,
    backend: Box<dyn ExecutionBackend>,
    config: DeepSeaConfig,
    obs: Observer,
    /// Shared with the writer (`Arc`), not frozen: breaker state is a live
    /// health cache, so a failure observed through any snapshot immediately
    /// protects every other reader and the writer itself.
    breakers: Arc<BreakerSet>,
}

/// The result of answering one query from a snapshot: no catalog mutation,
/// so there is nothing to report but the answer and its read-path trace.
#[derive(Debug, Clone)]
pub struct SnapshotAnswer {
    /// The query's result table.
    pub result: Table,
    /// Execution time of the (possibly rewritten) query, simulated seconds.
    pub query_secs: f64,
    /// Name of the view used to answer the query, if any.
    pub used_view: Option<String>,
    /// Execution metrics of the chosen plan.
    pub metrics: ExecMetrics,
    /// Read-path slices of the per-query trace (matching, rewriting,
    /// execution, recovery); the write-path slices stay zero.
    pub trace: QueryTrace,
    /// The epoch the answer was computed against.
    pub epoch: u64,
}

impl DeepSea {
    /// Publish a snapshot of the current catalog state for concurrent
    /// readers. Fails (returns `None`) only if the execution backend cannot
    /// be forked for read-only use (see
    /// [`ExecutionBackend::fork_reader`]).
    pub fn publish_snapshot(&self) -> Option<ReadSnapshot> {
        Some(ReadSnapshot {
            epoch: self.clock(),
            registry: Arc::new(self.registry().clone()),
            catalog: Arc::clone(&self.catalog),
            fs: Arc::clone(&self.fs),
            backend: self.backend.fork_reader()?,
            config: self.config,
            obs: self.obs.clone(),
            breakers: Arc::clone(&self.breakers),
        })
    }
}

impl ReadSnapshot {
    /// The epoch (committed-query count) this snapshot captures.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen registry (views, partitions, fragments, statistics).
    pub fn registry(&self) -> &ViewRegistry {
        &self.registry
    }

    /// The configuration the snapshot was published under.
    pub fn config(&self) -> &DeepSeaConfig {
        &self.config
    }

    /// Borrow the frozen state as a read view — the concurrent path.
    pub(crate) fn read_view(&self) -> ReadView<'_> {
        ReadView {
            registry: &self.registry,
            catalog: &self.catalog,
            fs: &self.fs,
            backend: self.backend.as_ref(),
            obs: &self.obs,
            breakers: &self.breakers,
        }
    }

    /// Answer one query against this frozen epoch: matching, rewriting
    /// selection, execution — the full read path, with zero catalog
    /// mutation. Many readers may call this concurrently on clones of the
    /// same snapshot.
    pub fn answer(&self, plan: &LogicalPlan) -> Result<SnapshotAnswer, ExecError> {
        self.answer_in_span(plan, SpanCtx::NONE, 0.0)
    }

    /// [`ReadSnapshot::answer`] with the read attached to a causal trace:
    /// every read-path span — matching, rewriting, breaker verdict,
    /// execution, retry waits, hedge arms — is recorded as a child of
    /// `parent`, anchored at `anchor_secs` on the caller's simulated
    /// timeline. A [`SpanCtx::NONE`] parent records nothing; reader-side
    /// spans are never orphaned because the forked backend and the shared
    /// file system carry their detail-trace gates across
    /// [`ExecutionBackend::fork_reader`].
    pub fn answer_in_span(
        &self,
        plan: &LogicalPlan,
        parent: SpanCtx,
        anchor_secs: f64,
    ) -> Result<SnapshotAnswer, ExecError> {
        self.read(plan, parent, anchor_secs, false)
    }

    /// Answer one query straight from durable base tables, skipping view
    /// matching and rewriting entirely — the degraded serving mode the load
    /// shedder falls back to. Exact answer (the base plan *defines* the
    /// answer), typically at a higher execution cost, never touching a
    /// materialized view a sick node could be gating.
    pub fn answer_base(&self, plan: &LogicalPlan) -> Result<SnapshotAnswer, ExecError> {
        self.answer_base_in_span(plan, SpanCtx::NONE, 0.0)
    }

    /// [`ReadSnapshot::answer_base`] attached to a causal trace, like
    /// [`ReadSnapshot::answer_in_span`].
    pub fn answer_base_in_span(
        &self,
        plan: &LogicalPlan,
        parent: SpanCtx,
        anchor_secs: f64,
    ) -> Result<SnapshotAnswer, ExecError> {
        self.read(plan, parent, anchor_secs, true)
    }

    /// One read against this epoch: a fresh retry budget and query context,
    /// the read path (or, `base_only`, just the base plan) run on the read
    /// view, and the answer assembled from what it left in the context.
    fn read(
        &self,
        plan: &LogicalPlan,
        parent: SpanCtx,
        anchor_secs: f64,
        base_only: bool,
    ) -> Result<SnapshotAnswer, ExecError> {
        self.backend
            .reset_retry_budget(self.config.retry_budget_secs);
        let mut ctx = QueryContext::new(plan, self.epoch).in_span(parent, anchor_secs);
        let view = self.read_view();
        let (result, metrics) = if base_only {
            view.answer_base(plan, &mut ctx)?
        } else {
            view.answer(plan, &mut ctx)?
        };
        Ok(SnapshotAnswer {
            result,
            query_secs: ctx.query_secs,
            used_view: ctx.used_view,
            metrics,
            trace: ctx.trace,
            epoch: self.epoch,
        })
    }
}

impl Clone for ReadSnapshot {
    fn clone(&self) -> Self {
        Self {
            epoch: self.epoch,
            registry: Arc::clone(&self.registry),
            catalog: Arc::clone(&self.catalog),
            fs: Arc::clone(&self.fs),
            backend: self
                .backend
                .fork_reader()
                .expect("invariant: a backend that forked once forks again"),
            config: self.config,
            obs: self.obs.clone(),
            breakers: Arc::clone(&self.breakers),
        }
    }
}

impl std::fmt::Debug for ReadSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadSnapshot")
            .field("epoch", &self.epoch)
            .field("views", &self.registry.len())
            .finish()
    }
}
