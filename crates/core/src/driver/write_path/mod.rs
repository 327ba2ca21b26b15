//! The **write side** of the driver: every stage that mutates the catalog,
//! the pool, or the journal — statistics updates, candidate registration,
//! Φ-selection, materialization, eviction, `Smax` enforcement, and the
//! durable commit point.
//!
//! Structural catalog state changes in one place, [`DeepSea::commit`]: file
//! system first, then the journal record, applied to the live registry by
//! the function replay uses. Only statistics (stage 2's hits, which reach the
//! journal by value in `StatsCheckpoint`s) are written directly, into the
//! registry's ledger.
//!
//! All of it runs behind the single writer (`&mut DeepSea`), one query at a
//! time, in ticket order. [`DeepSea::process_query`] is the serialized
//! commit: it matches and rewrites against the writer's *live* state (so
//! the committed decision never acts on a stale snapshot) — adopting what
//! the ticket's read computed when no record those stages can see landed
//! since —
//! executes the chosen plan — a plan the ticket's read already ran is
//! remembered by the backend, which replays its reads instead of computing
//! it again — then
//! applies the chosen configuration and publishes the next catalog epoch.
//! Concurrent readers meanwhile answer queries from the last published
//! [`crate::snapshot::ReadSnapshot`]; see [`crate::server`].

pub(crate) mod candidates;
pub(crate) mod evict;
pub(crate) mod materialize;
pub(crate) mod recover;
pub(crate) mod selection;
#[cfg(test)]
mod selection_tests;
pub(crate) mod stats;

use deepsea_engine::exec::{ExecError, ExecMetrics};
use deepsea_engine::plan::LogicalPlan;
use deepsea_obs::DecisionEvent;
use deepsea_relation::Table;
use deepsea_storage::FileId;

use crate::durability::{apply_record, stats_checkpoint, Applied, CatalogRecord, CatalogSnapshot};
use crate::retry::retry_io;

use super::context::QueryContext;
use super::{DeepSea, JournalDebt, QueryOutcome};

/// Upper bound on fragment-granularity re-plan rounds within one execution.
/// Each round removes at least one blocked file from consideration, so the
/// loop terminates regardless; the cap is belt-and-braces against a
/// pathological schedule downing nodes faster than re-planning drains them.
const MAX_DEGRADED_ROUNDS: u32 = 8;

impl DeepSea {
    /// The **single commit path**: every structural catalog change the live
    /// driver makes goes through here, as the record it journals. The record
    /// is applied by the same [`apply_record`] cold-start replay uses, the
    /// mirror pool ledger is moved by what that application reports, and
    /// only then is the record appended — so the live registry and a replay
    /// of the journal cannot drift apart. Call sites mutate the file system
    /// first and commit after (see `durability`'s module doc).
    pub(crate) fn commit(&mut self, record: CatalogRecord) -> Applied {
        let applied = apply_record(&mut self.registry, &mut self.clock, &record);
        // Replay skips a record naming an unknown entry (torn tail); here it
        // would leave the journal and the registry disagreeing.
        assert!(
            applied.applied,
            "invariant: the driver commits only records naming entries it just read: {record:?}"
        );
        debug_assert!(
            applied.files.iter().all(|f| self.fs.verify(*f).is_none()),
            "fs-first: {record:?} unlinked a file the file system still holds"
        );
        self.pool.reserve(applied.reserved);
        let _ = self.pool.release(applied.released);
        self.journal_emit(record);
        applied
    }

    /// Append one record to the attached journal (no-op without one).
    /// Transient journal-write failures are retried on the retry ladder,
    /// accumulating backoff seconds into the journal debt; a record is
    /// never dropped (out of retries, the write is forced —
    /// modelling a synchronous fsync path). An armed simulated crash fires
    /// from inside the append and propagates as a panic — exactly the
    /// torn-state semantics the crash harness exercises.
    pub(crate) fn journal_emit(&mut self, record: CatalogRecord) {
        let Some(journal) = &self.journal else {
            return;
        };
        self.journal_debt.appends += 1;
        self.appends_since_snapshot += 1;
        let debt = &mut self.journal_debt;
        let appended = retry_io(&mut debt.retries, &mut debt.penalty_secs, || {
            journal.append(record.clone())
        });
        if appended.is_err() {
            journal.append_infallible(record);
        }
    }

    /// Take the journal debt accumulated since the last drain.
    pub(crate) fn drain_journal_debt(&mut self) -> JournalDebt {
        std::mem::take(&mut self.journal_debt)
    }

    /// The commit point of one processed query: record the clock advance,
    /// emit a statistics checkpoint / install a snapshot at the configured
    /// cadence, and charge the accumulated journal debt to the query.
    pub(crate) fn journal_commit(&mut self, ctx: &mut QueryContext) {
        if self.journal.is_some() {
            let tnow = ctx.tnow;
            if tnow.is_multiple_of(self.config.journal_checkpoint_every.max(1)) {
                // Statistics are written directly (stage 2) and journaled by
                // value here: the checkpoint is read off the live registry,
                // so applying it back would change nothing.
                let ckpt = stats_checkpoint(&self.registry, tnow);
                self.journal_emit(ckpt);
            }
            self.commit(CatalogRecord::QueryCommitted { tnow });
            if tnow.is_multiple_of(self.config.journal_snapshot_every.max(1)) {
                if let Some(journal) = &self.journal {
                    journal.install_snapshot(CatalogSnapshot {
                        registry: self.registry.clone(),
                        clock: tnow,
                    });
                    ctx.trace.durability.snapshots += 1;
                    self.obs.event(
                        tnow,
                        DecisionEvent::JournalSnapshot {
                            appended_since_last: self.appends_since_snapshot,
                        },
                    );
                    self.appends_since_snapshot = 0;
                }
            }
        }
        let debt = self.drain_journal_debt();
        ctx.trace.durability.journal_appends += debt.appends;
        ctx.trace.durability.journal_retries += debt.retries;
        ctx.trace.durability.journal_penalty_secs += debt.penalty_secs;
        ctx.creation_secs += debt.penalty_secs;
        self.obs
            .counter_add("deepsea_journal_appends_total", None, debt.appends);
    }

    /// Process one query — Algorithm 1, as a linear sequence of stages over
    /// a per-query `QueryContext`.
    ///
    /// This is the **serialized commit**: stages 1 and 3 are pure read-path
    /// code run against the writer's live state (via
    /// `DeepSea::read_view`); everything else mutates the catalog and must
    /// hold the writer. Under the concurrent server this method is invoked
    /// once per ticket, in ticket order, and its committed outcome is
    /// bit-identical to the single-client serial run by construction. When
    /// a read computed stages 1 and 3 of the plan in a world they cannot
    /// tell from the live one, the commit adopts them (`read_path::memo`);
    /// when it already ran stage 6's
    /// plan, the backend returns its remembered rows after replaying the
    /// plan's reads, bit for bit.
    pub fn process_query(&mut self, plan: &LogicalPlan) -> Result<QueryOutcome, ExecError> {
        self.clock += 1;
        let tnow = self.clock;
        self.readmit_offline(tnow);

        let mut ctx = QueryContext::new(plan, tnow);
        if !self.config.partition_policy.materializes() {
            return self.run_baseline(plan, ctx);
        }
        // ── 1 + 3. A read computed them in this world ─────────────────────
        let world = self.read_view().world();
        let key = super::read_path::PlanKey::of(plan);
        let adopted = self.rewritings.adopt(&key, world, &mut ctx, &self.obs);
        // ── 1. COMPUTEREWRITINGS (read path, live state) ─────────────────
        if !adopted {
            self.read_view().compute_rewritings(plan, &mut ctx);
        }
        // ── 2. UPDATESTATS for every (potential) match ───────────────────
        self.stage_update_stats(plan, &mut ctx);
        // ── 3. SELECTREWRITING (read path, live state) ───────────────────
        if !adopted {
            self.read_view().select_rewriting(plan, &mut ctx);
        }
        // ── 4. COMPUTEVIEWCAND / ADDCANDIDATES ───────────────────────────
        self.stage_register_candidates(&mut ctx);
        // ── 5. VIEWSELECTION ─────────────────────────────────────────────
        self.stage_select_configuration(&mut ctx);
        // ── 6. INSTRUMENT + EXECUTE, apply the chosen configuration ──────
        let (result, metrics) = self.stage_execute(plan, &mut ctx)?;
        self.stage_apply_evictions(&mut ctx);
        self.stage_materialize(&mut ctx, &result)?;
        self.stage_charge_creation(&mut ctx);
        // ── 7. Enforce Smax with measured sizes ──────────────────────────
        self.stage_enforce_limit(&mut ctx);
        // ── 8. Durable commit point ──────────────────────────────────────
        Ok(self.finish_query(ctx, result, metrics))
    }

    /// The durable commit point and the outcome every query ends in —
    /// pipeline or baseline.
    fn finish_query(
        &mut self,
        mut ctx: QueryContext,
        result: Table,
        metrics: ExecMetrics,
    ) -> QueryOutcome {
        self.journal_commit(&mut ctx);
        let attempts = std::mem::take(&mut ctx.retry_attempts);
        let outcome = ctx.into_outcome(result, metrics);
        self.observe_query(&outcome, &attempts);
        outcome
    }

    /// The Hive baseline: no matching, no materialization — and, unlike
    /// DeepSea's instrumented plans, full predicate pushdown (see
    /// [`crate::policy::PartitionPolicy::executed_plan`]).
    fn run_baseline(
        &mut self,
        plan: &LogicalPlan,
        mut ctx: QueryContext,
    ) -> Result<QueryOutcome, ExecError> {
        let executed = self
            .config
            .partition_policy
            .executed_plan(plan, &self.catalog);
        let (result, mut metrics) = self.backend.execute(&executed, &self.catalog, &self.fs)?;
        ctx.record_execution(self.backend.as_ref(), &mut metrics, (0, 0.0));
        Ok(self.finish_query(ctx, result, metrics))
    }

    /// Execute the chosen plan on the retry ladder
    /// ([`super::read_path::ReadView::execute_retrying`]), with graceful
    /// degradation: if a rewritten plan fails (transient retries exhausted or
    /// a fragment permanently lost), quarantine the broken view and re-answer
    /// the query from base tables within the same call. Base tables are
    /// durable in this model — views only ever accelerate, never gate, an
    /// answer.
    ///
    /// Under a sharded FS failures are first patched at **fragment
    /// granularity**: a file unreachable because every replica is on a down
    /// node — scheduled, or downed by the injector while this execution
    /// ran — is marked offline (auto re-admitted when the node returns), and
    /// a permanently lost file has just its fragment evicted. In both cases
    /// the query is re-planned around the gap and retried, so one bad
    /// fragment never costs the whole view. Without a cluster the first
    /// failure goes straight to whole-view quarantine and the base-table
    /// fallback.
    fn stage_execute(
        &mut self,
        plan: &LogicalPlan,
        ctx: &mut QueryContext,
    ) -> Result<(Table, ExecMetrics), ExecError> {
        // Simulated time burned on failed attempts (exhausted retries,
        // backoff) accumulates across rounds and is charged to the query.
        let mut debt = (0u64, 0.0f64);
        let mut rounds = 0u32;
        loop {
            match self.read_view().execute_retrying(ctx) {
                Ok((result, mut metrics)) => {
                    ctx.record_execution(self.backend.as_ref(), &mut metrics, debt);
                    return Ok((result, metrics));
                }
                Err((e, (r, s))) => {
                    debt.0 += r;
                    debt.1 += s;

                    // Fragment-granularity patching, sharded FS only.
                    if self.fs.cluster().is_some() && rounds < MAX_DEGRADED_ROUNDS {
                        let patched = match (&e, e.file()) {
                            (ExecError::TransientIo(_), Some(f)) if self.fs.outage_blocked(f) => {
                                self.mark_fragment_offline(f, ctx);
                                true
                            }
                            (ExecError::PermanentIo(_), Some(f)) => {
                                self.evict_lost_fragment(f, ctx)
                            }
                            _ => false,
                        };
                        if patched {
                            rounds += 1;
                            // Re-plan around the gap: matching now routes
                            // around offline/evicted fragments, falling back
                            // to base tables only for the affected region.
                            ctx.used_view = None;
                            ctx.qbest = plan.clone();
                            self.read_view().compute_rewritings(plan, ctx);
                            self.read_view().select_rewriting(plan, ctx);
                            continue;
                        }
                    }

                    if matches!(e, ExecError::CorruptIo(_)) {
                        ctx.trace.recovery.corrupt_fragments += 1;
                    }
                    // Attribute the failure to a view: the file the error
                    // names, or failing that the view the rewriting chose.
                    let vid = e
                        .file()
                        .and_then(|f| self.registry.view_owning_file(f))
                        .or_else(|| {
                            ctx.used_view
                                .as_deref()
                                .and_then(|name| self.registry.by_name(name))
                        });
                    let Some(vid) = vid else {
                        // No view involved — the base plan itself failed,
                        // which this model cannot recover from.
                        return Err(e);
                    };
                    self.quarantine_into_ctx(vid, ctx);
                    return self.read_view().fall_back(plan, ctx, debt);
                }
            }
        }
    }

    /// Record a file as offline (every replica on a down node): a temporary,
    /// fragment-granularity quarantine. The catalog is untouched — routing
    /// skips the file via the cluster map — so re-admission on node return
    /// is free.
    fn mark_fragment_offline(&mut self, file: FileId, ctx: &mut QueryContext) {
        if !self.offline.insert(file) {
            return;
        }
        self.obs.counter_inc("deepsea_fragment_outages_total", None);
        if self.obs.enabled() {
            let view = self
                .registry
                .view_owning_file(file)
                .map(|vid| self.registry.view(vid).name.to_string());
            self.obs.event(
                ctx.tnow,
                DecisionEvent::FragmentOutage { file: file.0, view },
            );
        }
    }

    /// Evict exactly the fragment backed by a permanently lost file (the
    /// fault injector's per-file loss), leaving the rest of the view
    /// serving. Returns `false`
    /// when the file backs a whole-view copy or no fragment — the caller
    /// then takes the whole-view quarantine path.
    fn evict_lost_fragment(&mut self, file: FileId, ctx: &mut QueryContext) -> bool {
        let Some(vid) = self.registry.view_owning_file(file) else {
            return false;
        };
        let v = self.registry.view(vid);
        let Some((attr, frag)) = v.partitions.values().find_map(|ps| {
            let frag = ps.materialized_fragments().find(|f| f.file == Some(file))?;
            Some((ps.attr.clone(), frag))
        }) else {
            return false;
        };
        let (name, size) = (v.name.to_string(), frag.size);
        let record = CatalogRecord::FragmentEvicted {
            view: v.key.to_string(),
            attr,
            interval: frag.interval,
        };
        // The read that failed already dropped the file from the FS.
        self.commit(record);
        self.offline.remove(&file);
        ctx.trace.recovery.quarantined_bytes += size;
        self.obs.counter_inc("deepsea_fragment_losses_total", None);
        if self.obs.enabled() {
            self.obs.event(
                ctx.tnow,
                DecisionEvent::Quarantine {
                    view: name,
                    files: 1,
                    bytes: size,
                    fragments: 1,
                },
            );
        }
        true
    }

    /// Re-admit offline fragments whose nodes have returned, auditing each.
    /// Polled at the top of every `process_query` — the logical analogue of
    /// the namenode's block reports.
    fn readmit_offline(&mut self, tnow: crate::stats::LogicalTime) {
        if self.offline.is_empty() {
            return;
        }
        let back: Vec<FileId> = self
            .offline
            .iter()
            .copied()
            .filter(|f| !self.fs.outage_blocked(*f))
            .collect();
        for f in back {
            self.offline.remove(&f);
            self.obs
                .counter_inc("deepsea_fragment_readmissions_total", None);
            if self.obs.enabled() {
                self.obs
                    .event(tnow, DecisionEvent::FragmentReadmitted { file: f.0 });
            }
        }
    }
}
