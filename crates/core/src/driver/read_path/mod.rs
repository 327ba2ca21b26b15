//! The **read side** of the driver: everything a query needs to be
//! *answered* — signature matching, rewriting selection, and execution —
//! expressed over an immutable [`ReadView`] instead of the driver itself.
//!
//! The split is what makes a concurrent serving layer possible: a
//! [`ReadView`] borrows only shared state (registry, catalog, file system,
//! backend, config, observer), so the whole read path is `&self` end-to-end
//! and can run against either
//!
//! - the writer's live state (the serial `process_query` path — borrow via
//!   [`super::DeepSea::read_view`]), or
//! - a published [`crate::snapshot::ReadSnapshot`] (the concurrent path —
//!   many clients answering queries against the same frozen epoch while the
//!   single writer commits mutations behind them).
//!
//! Nothing in this module takes `&mut` anything except the per-query
//! [`QueryContext`], which is where all trace state accumulates.

pub(crate) mod matching;
pub(crate) mod memo;
pub(crate) mod rewriting;

use deepsea_engine::catalog::Catalog;
use deepsea_engine::cost::CostEstimator;
use deepsea_engine::exec::{ExecError, ExecMetrics};
use deepsea_engine::plan::LogicalPlan;
use deepsea_engine::{ExecutionBackend, RetryAttempt};
use deepsea_obs::Observer;
use deepsea_relation::Table;
use deepsea_storage::SimFs;

use crate::interval::Interval;
use crate::registry::ViewRegistry;
use crate::retry::{retry_transient, RetryPolicy};

use super::context::QueryContext;
use super::DeepSea;

pub(crate) use matching::MatchHit;
pub(crate) use memo::RewritingMemo;

/// An immutable borrow of everything the read path consults.
///
/// Cheap to construct (six references and a policy), impossible to mutate
/// through: the read path sees one consistent catalog state for the
/// duration of a query, whether that state is the writer's live registry or
/// a frozen snapshot.
pub(crate) struct ReadView<'a> {
    pub(crate) registry: &'a ViewRegistry,
    pub(crate) catalog: &'a Catalog,
    pub(crate) fs: &'a SimFs<Table>,
    pub(crate) backend: &'a dyn ExecutionBackend,
    pub(crate) obs: &'a Observer,
    /// The retry policy executions run under: [`RetryPolicy::default`],
    /// except in the retry ladder's own tests.
    pub(crate) retry: RetryPolicy,
    /// Where [`ReadView::answer`] leaves its matching and rewriting for the
    /// commit of the same plan: a snapshot's reads under a policy that
    /// materializes; `None` for the writer's own view.
    pub(crate) rewritings: Option<&'a RewritingMemo>,
}

impl DeepSea {
    /// Borrow the writer's live state as a read view — the serial path.
    pub(crate) fn read_view(&self) -> ReadView<'_> {
        ReadView {
            registry: &self.registry,
            catalog: &self.catalog,
            fs: &self.fs,
            backend: self.backend.as_ref(),
            obs: &self.obs,
            retry: RetryPolicy::default(),
            rewritings: None,
        }
    }
}

impl<'a> ReadView<'a> {
    /// A cost estimator over this view's catalog, pool, and cluster model.
    pub(crate) fn estimator(&self) -> CostEstimator<'a> {
        CostEstimator::new(self.catalog, self.fs, self.backend.cluster())
    }

    /// The domain `D(A)` of an attribute, from base-table statistics.
    pub(crate) fn attr_domain(&self, plan: &LogicalPlan, col: &str) -> Option<Interval> {
        for t in plan.base_tables() {
            if let Some(s) = self.catalog.column_stats(t, col) {
                return Some(Interval::new(s.min, s.max));
            }
        }
        None
    }

    /// Answer one query against this view: matching, rewriting selection,
    /// then execution of the chosen plan — the full client-facing read path,
    /// with no catalog mutation anywhere.
    ///
    /// If the chosen rewriting fails mid-read (a view's files lost, or a
    /// fragment evicted between snapshot publication and the actual file
    /// read under the real-thread server, where file GC is not
    /// epoch-deferred), the query is re-answered from durable base tables
    /// by [`ReadView::fall_back`]: views accelerate, never gate, an answer.
    /// The fallback is reported in the context's recovery trace, not hidden.
    ///
    /// `ctx` must be fresh: what matching and rewriting leave in it is
    /// remembered, before execution, for the commit of the same plan.
    pub(crate) fn answer(
        &self,
        plan: &LogicalPlan,
        ctx: &mut QueryContext,
    ) -> Result<(Table, ExecMetrics), ExecError> {
        // The world is taken first: a change while the stages run makes
        // the entry one no later world can meet.
        let world = self.rewritings.map(|_| self.world());
        self.compute_rewritings(plan, ctx);
        self.select_rewriting(plan, ctx);
        if let (Some(memo), Some(world)) = (self.rewritings, world) {
            memo.remember(plan, world, ctx);
        }
        self.trace_plan_stages(ctx);
        match self.execute_retrying(ctx) {
            Ok((result, mut metrics)) => {
                ctx.record_execution(self.backend, &mut metrics, (0, 0.0));
                self.trace_execute_span(ctx, None);
                Ok((result, metrics))
            }
            Err((_, debt)) if ctx.used_view.is_some() => {
                let answer = self.fall_back(plan, ctx, debt)?;
                self.trace_execute_span(ctx, Some("base_fallback"));
                Ok(answer)
            }
            Err((e, _)) => Err(e),
        }
    }

    /// Execute `ctx.qbest` on the driver's retry ladder. A transient error
    /// is re-run unless every replica of its file is on a down node: no
    /// retry can succeed before the node returns, so the caller patches
    /// around the file or falls back at once. Each retry is pushed onto
    /// `ctx.retry_attempts`. A success carries the ladder's retries and
    /// summed backoff in its metrics; a failure returns them, as the debt
    /// `(retries, seconds)` its fallback is charged.
    pub(crate) fn execute_retrying(
        &self,
        ctx: &mut QueryContext,
    ) -> Result<(Table, ExecMetrics), (ExecError, (u64, f64))> {
        let attempts = &mut ctx.retry_attempts;
        let (out, spent) = retry_transient(
            self.retry,
            |e: &ExecError| {
                e.is_transient() && !e.file().is_some_and(|f| self.fs.outage_blocked(f))
            },
            |attempt, backoff_secs, e| {
                attempts.push(RetryAttempt {
                    attempt,
                    backoff_secs,
                    file: e.file(),
                })
            },
            || self.backend.execute(&ctx.qbest, self.catalog, self.fs),
        );
        let retries = u64::from(spent.retries);
        match out {
            Ok((result, mut metrics)) => {
                metrics.retries += retries;
                metrics.penalty_secs += spent.backoff_secs;
                Ok((result, metrics))
            }
            Err(e) => Err((e, (retries, spent.backoff_secs))),
        }
    }

    /// Re-answer `plan` from durable base tables after its rewriting
    /// failed — the one fallback the read and the commit share. The failed
    /// attempts' `debt` (retries, simulated seconds) is charged to the base
    /// execution, which reads no view and so cannot hit a fragment fault.
    pub(crate) fn fall_back(
        &self,
        plan: &LogicalPlan,
        ctx: &mut QueryContext,
        debt: (u64, f64),
    ) -> Result<(Table, ExecMetrics), ExecError> {
        ctx.trace.recovery.base_table_fallbacks += 1;
        ctx.used_view = None;
        ctx.qbest = plan.clone();
        let (result, mut metrics) = self.backend.execute(plan, self.catalog, self.fs)?;
        ctx.record_execution(self.backend, &mut metrics, debt);
        Ok((result, metrics))
    }

    /// Emit the pre-execution read-path stages (matching, rewriting) as
    /// zero-width children of the query's span context. Both stages are
    /// costless in the simulator — the spans document *causality* (what was
    /// matched, which rewriting won), not duration.
    fn trace_plan_stages(&self, ctx: &QueryContext) {
        if ctx.span.is_none() {
            return;
        }
        let t = ctx.span_anchor_secs;
        let hits = format!("hits{}", ctx.trace.matching.hits);
        self.obs
            .record_span(ctx.tnow, "match", Some(&hits), ctx.span, t, t);
        self.obs.record_span(
            ctx.tnow,
            "rewrite",
            ctx.used_view.as_deref(),
            ctx.span,
            t,
            t,
        );
    }

    /// Emit the execution span `[anchor, anchor + query_secs]` with the
    /// I/O detail (the query's retry-ladder waits, the drained hedge races)
    /// as children, plus zero-width markers for any fallback the execution
    /// absorbed.
    ///
    /// The hedge buffer is drained even when the query carries no span
    /// context, so a traced neighbour can never inherit this execution's
    /// hedges — the drain is the scoping mechanism.
    pub(crate) fn trace_execute_span(&self, ctx: &QueryContext, fallback: Option<&'static str>) {
        let hedges = self.fs.drain_hedge_traces();
        if ctx.span.is_none() {
            return;
        }
        let start = ctx.span_anchor_secs;
        let end = start + ctx.query_secs;
        if let Some(marker) = fallback {
            self.obs
                .record_span(ctx.tnow, marker, None, ctx.span, start, start);
        }
        if ctx.trace.recovery.fragment_fallbacks > 0 {
            let label = format!("x{}", ctx.trace.recovery.fragment_fallbacks);
            self.obs.record_span(
                ctx.tnow,
                "fragment_fallback",
                Some(&label),
                ctx.span,
                start,
                start,
            );
        }
        let label = ctx.used_view.as_deref().unwrap_or("base");
        let exec = self
            .obs
            .record_span(ctx.tnow, "execute", Some(label), ctx.span, start, end);
        super::emit_io_detail_spans(
            self.obs,
            ctx.tnow,
            exec,
            start,
            end,
            &ctx.retry_attempts,
            &hedges,
        );
    }
}
