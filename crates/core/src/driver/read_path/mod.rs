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
pub(crate) mod rewriting;

use deepsea_engine::catalog::Catalog;
use deepsea_engine::cost::CostEstimator;
use deepsea_engine::exec::{ExecError, ExecMetrics};
use deepsea_engine::plan::LogicalPlan;
use deepsea_engine::ExecutionBackend;
use deepsea_obs::{DecisionEvent, Observer};
use deepsea_relation::Table;
use deepsea_storage::SimFs;

use crate::breaker::{BreakerDecision, BreakerSet, BreakerTransition, NODE_UNKNOWN};
use crate::interval::Interval;
use crate::registry::ViewRegistry;
use crate::stats::LogicalTime;

use super::context::QueryContext;
use super::DeepSea;

pub(crate) use matching::MatchHit;

/// An immutable borrow of everything the read path consults.
///
/// Cheap to construct (six references), impossible to mutate through: the
/// read path sees one consistent catalog state for the duration of a query,
/// whether that state is the writer's live registry or a frozen snapshot.
pub(crate) struct ReadView<'a> {
    pub(crate) registry: &'a ViewRegistry,
    pub(crate) catalog: &'a Catalog,
    pub(crate) fs: &'a SimFs<Table>,
    pub(crate) backend: &'a dyn ExecutionBackend,
    pub(crate) obs: &'a Observer,
    pub(crate) breakers: &'a BreakerSet,
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
            breakers: &self.breakers,
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
    /// If the chosen rewriting fails mid-read (a fragment evicted between
    /// snapshot publication and the actual file read — possible only under
    /// the real-thread server, where file GC is not epoch-deferred), the
    /// query is re-answered from durable base tables: views accelerate,
    /// never gate, an answer. The fallback is reported in the context's
    /// recovery trace, not hidden.
    pub(crate) fn answer(
        &self,
        plan: &LogicalPlan,
        ctx: &mut QueryContext,
    ) -> Result<(Table, ExecMetrics), ExecError> {
        self.compute_rewritings(plan, ctx);
        self.select_rewriting(plan, ctx);
        self.trace_plan_stages(ctx);
        self.breaker_guard(plan, ctx);
        match self.backend.execute(&ctx.qbest, self.catalog, self.fs) {
            Ok((result, mut metrics)) => {
                ctx.record_execution(self.backend, &mut metrics, (0, 0.0));
                self.breaker_record_success(ctx);
                self.trace_execute_span(ctx, None);
                Ok((result, metrics))
            }
            Err(e) if ctx.used_view.is_some() => {
                self.breaker_record_failure(&e, ctx);
                let debt = self.backend.drain_retry_debt();
                ctx.trace.recovery.base_table_fallbacks += 1;
                ctx.used_view = None;
                ctx.qbest = plan.clone();
                let (result, mut metrics) = self.backend.execute(plan, self.catalog, self.fs)?;
                ctx.record_execution(self.backend, &mut metrics, debt);
                self.trace_execute_span(ctx, Some("base_fallback"));
                Ok((result, metrics))
            }
            Err(e) => Err(e),
        }
    }

    /// Answer one query straight from durable base tables, skipping
    /// matching and rewriting entirely — the degraded serving mode.
    pub(crate) fn answer_base(
        &self,
        plan: &LogicalPlan,
        ctx: &mut QueryContext,
    ) -> Result<(Table, ExecMetrics), ExecError> {
        let (result, mut metrics) = self.backend.execute(plan, self.catalog, self.fs)?;
        ctx.record_execution(self.backend, &mut metrics, (0, 0.0));
        self.trace_execute_span(ctx, None);
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
    /// drained I/O detail (retry-ladder waits, hedge races) as children, plus
    /// zero-width markers for any fallback the execution absorbed.
    ///
    /// The detail buffers are drained even when the query carries no span
    /// context, so a traced neighbour can never inherit this execution's
    /// retries or hedges — the drain is the scoping mechanism.
    pub(crate) fn trace_execute_span(&self, ctx: &QueryContext, fallback: Option<&'static str>) {
        let attempts = self.backend.drain_retry_attempts();
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
        super::emit_io_detail_spans(self.obs, ctx.tnow, exec, start, end, &attempts, &hedges);
    }

    /// Consult the circuit breakers guarding the rewriting's chosen view.
    /// An open breaker rewrites the decision *before* any I/O is spent: the
    /// query is reset to its base plan (the exact fallback a failure would
    /// have reached), the skip is traced, and no retry budget is burned on a
    /// view a sick node has made useless. Disabled breakers make this a
    /// no-op, keeping every pre-breaker schedule bit-identical.
    pub(crate) fn breaker_guard(&self, plan: &LogicalPlan, ctx: &mut QueryContext) {
        let Some(view) = ctx.used_view.clone() else {
            return;
        };
        let (decision, transitions) = self.breakers.check(&view);
        self.emit_breaker_transitions(ctx.tnow, transitions);
        if !ctx.span.is_none() {
            let verdict = if decision == BreakerDecision::ShortCircuit {
                "short_circuit"
            } else {
                "pass"
            };
            let t = ctx.span_anchor_secs;
            self.obs
                .record_span(ctx.tnow, "breaker_check", Some(verdict), ctx.span, t, t);
        }
        if decision == BreakerDecision::ShortCircuit {
            ctx.trace.recovery.breaker_short_circuits += 1;
            ctx.used_view = None;
            ctx.qbest = plan.clone();
            if self.obs.events_enabled() {
                self.obs
                    .event(ctx.tnow, DecisionEvent::BreakerShortCircuit { view });
            }
        }
    }

    /// Feed a successful view-backed execution to the breakers: closes a
    /// half-open probe, resets failure streaks — unless the read was slow
    /// enough to trip the latency threshold, in which case the success
    /// *counts as a failure* (gray-failure detection; untraceable to a node,
    /// so keyed to [`NODE_UNKNOWN`]).
    pub(crate) fn breaker_record_success(&self, ctx: &QueryContext) {
        let Some(view) = ctx.used_view.as_deref() else {
            return;
        };
        let transitions = if self.breakers.config().trips_on_latency(ctx.query_secs) {
            self.breakers.record_failure(view, NODE_UNKNOWN)
        } else {
            self.breakers.record_success(view)
        };
        self.emit_breaker_transitions(ctx.tnow, transitions);
    }

    /// Feed a failed view-backed execution to the breakers, traced to the
    /// primary replica of the file the error names (the node whose fault the
    /// failure most plausibly is), or [`NODE_UNKNOWN`] when the error names
    /// no file or no cluster is attached.
    pub(crate) fn breaker_record_failure(&self, e: &ExecError, ctx: &QueryContext) {
        let Some(view) = ctx.used_view.as_deref() else {
            return;
        };
        if !self.breakers.config().enabled() {
            return;
        }
        let node = e
            .file()
            .and_then(|f| self.fs.cluster().and_then(|c| c.placement(f)))
            .and_then(|nodes| nodes.first().copied())
            .map_or(NODE_UNKNOWN, |n| n.0);
        let transitions = self.breakers.record_failure(view, node);
        self.emit_breaker_transitions(ctx.tnow, transitions);
    }

    /// Surface breaker state changes as typed decision events (the journal of
    /// record for the tail-chaos replay tests).
    fn emit_breaker_transitions(&self, tnow: LogicalTime, transitions: Vec<BreakerTransition>) {
        if !self.obs.enabled() {
            return;
        }
        for t in transitions {
            self.obs
                .counter_inc("deepsea_breaker_transitions_total", Some(t.to));
            self.obs.event(
                tnow,
                DecisionEvent::BreakerTransition {
                    view: t.view,
                    node: t.node as u64,
                    from: t.from,
                    to: t.to,
                },
            );
        }
    }
}
