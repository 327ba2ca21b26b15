//! Per-query pipeline state ([`QueryContext`]) and the public per-stage
//! instrumentation ([`QueryTrace`]) every [`super::QueryOutcome`] carries.

use std::sync::Arc;

use deepsea_engine::exec::ExecMetrics;
use deepsea_engine::plan::LogicalPlan;
use deepsea_engine::{ExecutionBackend, RetryAttempt};
use deepsea_relation::Table;
use serde::{ObjectBuilder, Serialize, Value};

use crate::filter_tree::ViewId;
use crate::selection::SelectionResult;
use crate::stats::LogicalTime;

use super::read_path::MatchHit;
use super::QueryOutcome;

/// The trace schema: every stage of the per-query trace and every leaf in
/// it, declared once. The single invocation below generates the stage
/// structs, [`QueryTrace`], its flattening to `"stage.field"` names (the
/// order here *is* the order of `BENCH.json: ds.stage_totals`), the nested
/// JSON rendering and `+=` — so a run total is a `QueryTrace` too.
///
/// To add a leaf: one line in the table, one write site in the driver (and
/// its slot in `bench::report::stage_breakdown`'s text).
macro_rules! trace_schema {
    // One struct with its JSON object rendering and field-wise `+=`; serves
    // the stage structs (numeric leaves) and the trace (stage fields) alike.
    (@record $(#[$doc:meta])* $Name:ident { $($(#[$fdoc:meta])* $field:ident: $ty:ty,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct $Name {
            $($(#[$fdoc])* pub $field: $ty,)+
        }

        impl Serialize for $Name {
            fn to_value(&self) -> Value {
                ObjectBuilder::new()
                    $(.field(stringify!($field), self.$field))+
                    .build()
            }
        }

        impl std::ops::AddAssign for $Name {
            fn add_assign(&mut self, rhs: Self) {
                $(self.$field += rhs.$field;)+
            }
        }
    };
    (
        $(#[$doc:meta])*
        $Trace:ident {
            $(
                $(#[$sdoc:meta])*
                $stage:ident: $Stage:ident {
                    $($(#[$ldoc:meta])* $leaf:ident: $ty:ty,)+
                }
            )+
        }
    ) => {
        $(trace_schema!(@record $(#[$sdoc])* $Stage { $($(#[$ldoc])* $leaf: $ty,)+ });)+
        trace_schema!(@record $(#[$doc])* $Trace { $($(#[$sdoc])* $stage: $Stage,)+ });

        impl $Trace {
            /// Every leaf, flattened to `("stage.field", value)` pairs in
            /// schema order.
            pub fn fields(&self) -> Vec<(&'static str, f64)> {
                vec![$($((
                    concat!(stringify!($stage), ".", stringify!($leaf)),
                    self.$stage.$leaf as f64,
                ),)+)+]
            }

            /// The inverse of [`Self::fields`]: build a trace by asking `f`
            /// for each leaf's value, in schema order (integer leaves
            /// truncate).
            pub fn from_fields(mut f: impl FnMut(&'static str) -> f64) -> Self {
                Self {
                    $($stage: $Stage {
                        $($leaf: f(concat!(stringify!($stage), ".", stringify!($leaf))) as $ty,)+
                    },)+
                }
            }
        }
    };
}

trace_schema! {
    /// Wall-clock-free per-stage instrumentation of one `process_query` call.
    ///
    /// Counters are cheap to fill (no timers — the simulator's notion of cost
    /// is already deterministic seconds) and let the bench harness attribute
    /// a run's behaviour to pipeline stages: how much matching happened,
    /// whether rewritings won, how much candidate churn selection saw, and
    /// where the simulated seconds went. Traces add (`+=`, stage by stage,
    /// leaf by leaf), so the totals of a run are the same type.
    QueryTrace {
        /// Stages 1–2 (Algorithm 1 lines 1–2): signature matching and
        /// statistics updates.
        matching: MatchingTrace {
            /// Definition-6-shaped subplans the query exposed for matching.
            roots: u64,
            /// (subquery, view) signature matches found.
            hits: u64,
            /// Matches backed by materialized data (whole file or fragment
            /// cover).
            materialized_hits: u64,
            /// Distinct views whose statistics recorded a benefit event.
            views_updated: u64,
        }
        /// Stage 3 (line 3): rewriting selection.
        rewriting: RewritingTrace {
            /// Rewritten plans that were actually costed against the base
            /// plan.
            rewrites_costed: u64,
            /// Estimated cost of the original plan (simulated seconds).
            base_cost_secs: f64,
            /// Estimated cost of the chosen plan (equals `base_cost_secs`
            /// when no rewriting won).
            best_cost_secs: f64,
        }
        /// Stage 4 (line 4): candidate derivation, Definitions 6 and 7.
        candidates: CandidatesTrace {
            /// View candidates registered from the chosen plan's subqueries.
            view_candidates: u64,
            /// How many of those were first seen by this query.
            new_views: u64,
            /// Range selections that produced partition-candidate work.
            partition_selections: u64,
            /// Candidate fragments newly tracked by this query.
            new_fragments: u64,
        }
        /// Stage 5 (line 5): Φ-ranked greedy selection.
        selection: SelectionTrace {
            /// `|ALLCAND|` — items the knapsack considered.
            considered: u64,
            /// Unmaterialized items chosen for creation.
            planned_creations: u64,
            /// Materialized items chosen for eviction.
            planned_evictions: u64,
        }
        /// Stage 6 (line 6): execution — the only stage with a real
        /// simulated cost on the query path.
        execution: ExecutionTrace {
            /// Simulated seconds of the chosen plan's execution.
            query_secs: f64,
        }
        /// Stage 6 (line 6, by-product writes; §7.2): materialization.
        materialization: MaterializationTrace {
            /// Bytes read back for repartitioning (fragment covers, splits).
            bytes_read: u64,
            /// Bytes written for new views/fragments.
            bytes_written: u64,
            /// Output files committed.
            files_written: u64,
            /// Materialized source fragments covered while building new
            /// fragments.
            fragments_covered: u64,
            /// Simulated seconds charged for the combined instrumented job.
            creation_secs: f64,
        }
        /// Stages 5/7: evictions applied (line 5's plan, plus `Smax`
        /// enforcement).
        eviction: EvictionTrace {
            /// Evictions planned by selection and actually performed.
            selected: u64,
            /// Additional evictions forced by `enforce_limit` (actual sizes
            /// exceeded the estimates selection planned with).
            limit_forced: u64,
        }
        /// Fault recovery: retries absorbed, views quarantined after
        /// permanent losses, and base-table fallbacks. All zero on a
        /// fault-free run.
        recovery: RecoveryTrace {
            /// Transient-failure retries absorbed (execution and
            /// materialization).
            retries: u64,
            /// Simulated seconds of retry backoff and latency spikes charged
            /// to this query's elapsed time.
            penalty_secs: f64,
            /// Views quarantined after a permanent I/O failure.
            quarantined_views: u64,
            /// Pool bytes released by those quarantines.
            quarantined_bytes: u64,
            /// Rewritten plans that failed and were re-answered from base
            /// tables.
            base_table_fallbacks: u64,
            /// Fragment reads blocked by a node outage and patched at
            /// fragment granularity (re-planned around the offline fragment
            /// rather than abandoning the whole view).
            fragment_fallbacks: u64,
            /// Fragment reads that failed checksum verification (corruption
            /// detected on read, never served). Each routes through the
            /// quarantine path.
            corrupt_fragments: u64,
        }
        /// Catalog journaling: appends, retries, snapshots. All zero when no
        /// journal is attached — a journal-less run is bit-transparent.
        durability: DurabilityTrace {
            /// Journal records appended while processing this query.
            journal_appends: u64,
            /// Transient journal-write failures retried.
            journal_retries: u64,
            /// Simulated seconds of journal-retry backoff charged to this
            /// query.
            journal_penalty_secs: f64,
            /// Full-state snapshots installed (truncating the record log).
            snapshots: u64,
        }
    }
}

/// Accumulated I/O of the materializations a query performs; converted to
/// seconds once per query (all writes of one query run as a single
/// instrumented MapReduce job).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CreationCharge {
    pub(crate) read_bytes: u64,
    pub(crate) write_bytes: u64,
    pub(crate) files: u64,
    /// Source fragments read through Algorithm-2 covers (trace only — does
    /// not affect the charged seconds).
    pub(crate) cover_reads: u64,
    /// Transient-failure retries absorbed by materialization I/O.
    pub(crate) retries: u64,
    /// Simulated backoff/spike seconds those retries cost (charged into
    /// `creation_secs`).
    pub(crate) penalty_secs: f64,
}

impl CreationCharge {
    pub(crate) fn absorb(&mut self, other: CreationCharge) {
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.files += other.files;
        self.cover_reads += other.cover_reads;
        self.retries += other.retries;
        self.penalty_secs += other.penalty_secs;
    }
}

/// Mutable state threaded through the stages of one `process_query` call.
///
/// Every stage reads what earlier stages produced and records its own
/// contribution; `process_query` folds the final state into a
/// [`super::QueryOutcome`].
pub(crate) struct QueryContext {
    /// Logical timestamp of this query (the advanced clock).
    pub(crate) tnow: LogicalTime,
    /// The plan to execute — the original until rewriting replaces it.
    pub(crate) qbest: LogicalPlan,
    /// Name of the view the chosen rewriting reads, if any.
    pub(crate) used_view: Option<String>,
    /// Signature matches found by the matching stage.
    pub(crate) hits: Arc<[MatchHit]>,
    /// View candidates relevant to this query (Definition 6).
    pub(crate) new_cands: Vec<ViewId>,
    /// The materialization/eviction plan chosen by selection.
    pub(crate) selection: SelectionResult,
    /// Accumulated I/O of performed materializations.
    pub(crate) charge: CreationCharge,
    /// Simulated execution seconds of `qbest`.
    pub(crate) query_secs: f64,
    /// Simulated seconds of the combined creation job.
    pub(crate) creation_secs: f64,
    /// Descriptions of views/fragments written.
    pub(crate) materialized: Vec<String>,
    /// Descriptions of views/fragments dropped.
    pub(crate) evicted: Vec<String>,
    /// Names of views quarantined while processing this query.
    pub(crate) quarantined: Vec<String>,
    /// Per-stage instrumentation, exposed on the outcome.
    pub(crate) trace: QueryTrace,
    /// Every step the execution ladder took, in order: the `retry_wait`
    /// spans under this query's `execute` span.
    pub(crate) retry_attempts: Vec<RetryAttempt>,
    /// Causal span parent this query's read-path spans attach under.
    /// [`deepsea_obs::SpanCtx::NONE`] (the default) keeps the read path
    /// span-free — exactly the pre-tracing behaviour.
    pub(crate) span: deepsea_obs::SpanCtx,
    /// Cumulative sim-seconds (on the *caller's* timeline — the server's
    /// schedule or the driver's span clock) this query's spans anchor at.
    pub(crate) span_anchor_secs: f64,
}

impl QueryContext {
    pub(crate) fn new(plan: &LogicalPlan, tnow: LogicalTime) -> Self {
        Self {
            tnow,
            qbest: plan.clone(),
            used_view: None,
            hits: Arc::from([]),
            new_cands: Vec::new(),
            selection: SelectionResult::default(),
            charge: CreationCharge::default(),
            query_secs: 0.0,
            creation_secs: 0.0,
            materialized: Vec::new(),
            evicted: Vec::new(),
            quarantined: Vec::new(),
            trace: QueryTrace::default(),
            retry_attempts: Vec::new(),
            span: deepsea_obs::SpanCtx::NONE,
            span_anchor_secs: 0.0,
        }
    }

    /// Attach this query to a causal trace: read-path spans become children
    /// of `parent`, anchored at `anchor_secs` on the caller's timeline.
    pub(crate) fn in_span(mut self, parent: deepsea_obs::SpanCtx, anchor_secs: f64) -> Self {
        self.span = parent;
        self.span_anchor_secs = anchor_secs;
        self
    }

    /// The epilogue of every successful execution, on either path: add the
    /// retry `debt` failed earlier attempts left behind to `metrics`, price
    /// the run, and record it in the execution and recovery slices.
    pub(crate) fn record_execution(
        &mut self,
        backend: &dyn ExecutionBackend,
        metrics: &mut ExecMetrics,
        (debt_retries, debt_secs): (u64, f64),
    ) {
        metrics.retries += debt_retries;
        metrics.penalty_secs += debt_secs;
        self.trace.recovery.retries += metrics.retries;
        self.trace.recovery.penalty_secs += metrics.penalty_secs;
        self.query_secs = backend.elapsed_secs(metrics);
        self.trace.execution.query_secs = self.query_secs;
    }

    /// Fold the final state of a committed query into its outcome.
    pub(crate) fn into_outcome(self, result: Table, metrics: ExecMetrics) -> QueryOutcome {
        QueryOutcome {
            result,
            elapsed_secs: self.query_secs + self.creation_secs,
            query_secs: self.query_secs,
            creation_secs: self.creation_secs,
            used_view: self.used_view,
            materialized: self.materialized,
            evicted: self.evicted,
            quarantined: self.quarantined,
            metrics,
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creation_charge_absorbs_componentwise() {
        let mut a = CreationCharge {
            read_bytes: 1,
            write_bytes: 2,
            files: 3,
            cover_reads: 4,
            retries: 5,
            penalty_secs: 6.0,
        };
        a.absorb(CreationCharge {
            read_bytes: 10,
            write_bytes: 20,
            files: 30,
            cover_reads: 40,
            retries: 50,
            penalty_secs: 60.0,
        });
        assert_eq!(a.read_bytes, 11);
        assert_eq!(a.write_bytes, 22);
        assert_eq!(a.files, 33);
        assert_eq!(a.cover_reads, 44);
        assert_eq!(a.retries, 55);
        assert_eq!(a.penalty_secs, 66.0);
    }

    /// The flattened leaf names in `BENCH.json: ds.stage_totals` order. A
    /// schema edit that renames, reorders or drops a gated leaf fails here
    /// (a new leaf extends this list).
    const LEAVES: [&str; 33] = [
        "matching.roots",
        "matching.hits",
        "matching.materialized_hits",
        "matching.views_updated",
        "rewriting.rewrites_costed",
        "rewriting.base_cost_secs",
        "rewriting.best_cost_secs",
        "candidates.view_candidates",
        "candidates.new_views",
        "candidates.partition_selections",
        "candidates.new_fragments",
        "selection.considered",
        "selection.planned_creations",
        "selection.planned_evictions",
        "execution.query_secs",
        "materialization.bytes_read",
        "materialization.bytes_written",
        "materialization.files_written",
        "materialization.fragments_covered",
        "materialization.creation_secs",
        "eviction.selected",
        "eviction.limit_forced",
        "recovery.retries",
        "recovery.penalty_secs",
        "recovery.quarantined_views",
        "recovery.quarantined_bytes",
        "recovery.base_table_fallbacks",
        "recovery.fragment_fallbacks",
        "recovery.corrupt_fragments",
        "durability.journal_appends",
        "durability.journal_retries",
        "durability.journal_penalty_secs",
        "durability.snapshots",
    ];

    /// Leaf `i` (schema order) holds `scale * (i + 1)`, plus a half on the
    /// `f64` leaves (integer leaves truncate it away).
    fn sentinel_trace(scale: f64) -> QueryTrace {
        let mut i = 0.0;
        QueryTrace::from_fields(|_| {
            i += 1.0;
            scale * i + 0.5
        })
    }

    #[test]
    fn flattened_names_are_the_bench_json_leaves_in_order() {
        let mut asked = Vec::new();
        let trace = QueryTrace::from_fields(|name| {
            asked.push(name);
            0.0
        });
        assert_eq!(asked, LEAVES);
        let names: Vec<&str> = trace.fields().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, LEAVES);
    }

    #[test]
    fn serialization_is_the_nested_stage_objects() {
        // The string the hand-written impls this schema replaced produced.
        assert_eq!(
            serde::to_string(&sentinel_trace(1.0)),
            concat!(
                r#"{"matching":{"roots":1,"hits":2,"materialized_hits":3,"views_updated":4},"#,
                r#""rewriting":{"rewrites_costed":5,"base_cost_secs":6.5,"best_cost_secs":7.5},"#,
                r#""candidates":{"view_candidates":8,"new_views":9,"partition_selections":10,"#,
                r#""new_fragments":11},"#,
                r#""selection":{"considered":12,"planned_creations":13,"planned_evictions":14},"#,
                r#""execution":{"query_secs":15.5},"#,
                r#""materialization":{"bytes_read":16,"bytes_written":17,"files_written":18,"#,
                r#""fragments_covered":19,"creation_secs":20.5},"#,
                r#""eviction":{"selected":21,"limit_forced":22},"#,
                r#""recovery":{"retries":23,"penalty_secs":24.5,"quarantined_views":25,"#,
                r#""quarantined_bytes":26,"base_table_fallbacks":27,"fragment_fallbacks":28,"#,
                r#""corrupt_fragments":29},"#,
                r#""durability":{"journal_appends":30,"journal_retries":31,"#,
                r#""journal_penalty_secs":32.5,"snapshots":33}}"#,
            )
        );
    }

    #[test]
    fn add_assign_sums_leaf_by_leaf() {
        let (a, b) = (sentinel_trace(1.0), sentinel_trace(100.0));
        let mut sum = a;
        sum += b;
        let expected: Vec<(&str, f64)> = a
            .fields()
            .into_iter()
            .zip(b.fields())
            .map(|((name, x), (_, y))| (name, x + y))
            .collect();
        assert_eq!(sum.fields(), expected);
        assert_ne!(sum, a);
    }

    #[test]
    fn fresh_context_starts_with_the_original_plan() {
        let plan = LogicalPlan::scan("t");
        let ctx = QueryContext::new(&plan, 7);
        assert_eq!(ctx.tnow, 7);
        assert_eq!(ctx.qbest, plan);
        assert!(ctx.used_view.is_none());
        assert_eq!(ctx.trace, QueryTrace::default());
    }
}
