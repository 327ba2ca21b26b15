//! Immutable catalog snapshots for concurrent readers.
//!
//! A [`ReadSnapshot`] is what the single writer *publishes* after each
//! committed query: the view registry's structure as of that commit (views,
//! partitions, fragments, files, sizes and the filter tree — not the
//! statistics ledger, which no read consults) plus `Arc` handles on the
//! shared substrates, stamped with the epoch it was taken at. Readers answer
//! queries against a snapshot through the same read-path code the serial
//! driver uses ([`crate::driver`]'s `ReadView`), so a query answered from a
//! snapshot is bit-identical to the same query answered by the writer at
//! that epoch.
//!
//! Nothing is deep-copied at publication: the registry is copy-on-write
//! (see [`crate::registry`]), so a snapshot takes one reference per view and
//! the writer's *next* commit copies only the views, partitions and
//! fragments its structural records change — the statistics it records go
//! to the ledger, in place — and consecutive epochs share everything else. Each
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

use crate::config::DeepSeaConfig;
use crate::driver::context::QueryContext;
use crate::driver::read_path::{ReadView, RewritingMemo};
use crate::driver::{DeepSea, QueryTrace};
use crate::registry::ViewRegistry;

/// A frozen, shareable view of everything the read path consults, stamped
/// with the epoch (committed-query count) it was published at.
///
/// The read path is pure by type: a snapshot hands out no `&mut` to the
/// registry, the catalog or the pool — every field sits behind an `Arc` or
/// is reached through `&self` — and it holds no journal handle, so nothing
/// answered from it can write a catalog record. The borrow checker enforces
/// this; the two twins below pin it. They differ only in the borrow: a
/// `&mut ViewRegistry` may call [`ViewRegistry::view_mut`] …
///
/// ```no_run
/// use deepsea_core::filter_tree::ViewId;
/// use deepsea_core::registry::ViewRegistry;
/// use deepsea_core::ReadSnapshot;
///
/// fn touch(snapshot: &ReadSnapshot, registry: &mut ViewRegistry, id: ViewId) {
///     let _epoch = snapshot.epoch();
///     registry.view_mut(id);
/// }
/// ```
///
/// … and the same call through [`ReadSnapshot::registry`] does not compile.
///
/// ```compile_fail
/// use deepsea_core::filter_tree::ViewId;
/// use deepsea_core::registry::ViewRegistry;
/// use deepsea_core::ReadSnapshot;
///
/// fn touch(snapshot: &ReadSnapshot, registry: &mut ViewRegistry, id: ViewId) {
///     let _epoch = snapshot.epoch();
///     snapshot.registry().view_mut(id);
/// }
/// ```
///
/// What no type rules out is a read through the shared `SimFs`, whose
/// mutators take `&self`; `tests/snapshot_isolation.rs` checks that a read
/// creates and deletes no file and writes no byte.
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
    /// The driver's memo of read rewritings, shared.
    rewritings: Arc<RewritingMemo>,
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
            registry: Arc::new(self.registry().structure()),
            catalog: Arc::clone(&self.catalog),
            fs: Arc::clone(&self.fs),
            backend: self.backend.fork_reader()?,
            config: self.config,
            obs: self.obs.clone(),
            rewritings: Arc::clone(&self.rewritings),
        })
    }
}

impl ReadSnapshot {
    /// The epoch (committed-query count) this snapshot captures.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen registry: views, partitions, fragments, files and sizes.
    /// Its statistics ledger is empty; the statistics are the writer's
    /// ([`DeepSea::registry`]).
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
            // Baseline reads run nothing a commit would adopt.
            rewritings: self
                .config
                .partition_policy
                .materializes()
                .then_some(&*self.rewritings),
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
    /// every read-path span — matching, rewriting, execution, retry waits,
    /// hedge arms — is recorded as a child of `parent`, anchored at
    /// `anchor_secs` on the caller's simulated timeline. A [`SpanCtx::NONE`]
    /// parent records nothing. The retry waits are the read's own (its
    /// context records each step of its execution's retry ladder); the
    /// shared file system carries its hedge-trace gate to every reader.
    ///
    /// Each read runs the read path over the plan the writer's policy would
    /// execute, on the driver's retry ladder (`retry.rs`). The forked backend
    /// shares the writer's memo of executed plans, so a commit of the plan
    /// this read ran does not compute it again (`SimBackend`).
    pub fn answer_in_span(
        &self,
        plan: &LogicalPlan,
        parent: SpanCtx,
        anchor_secs: f64,
    ) -> Result<SnapshotAnswer, ExecError> {
        let plan = self
            .config
            .partition_policy
            .executed_plan(plan, &self.catalog);
        let mut ctx = QueryContext::new(&plan, self.epoch).in_span(parent, anchor_secs);
        let (result, metrics) = self.read_view().answer(&plan, &mut ctx)?;
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
            rewritings: Arc::clone(&self.rewritings),
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
