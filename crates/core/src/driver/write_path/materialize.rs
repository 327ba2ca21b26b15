//! Stage 6 of Algorithm 1, write side: materialize the views and fragments
//! selection chose, as a by-product of the running query. Only the
//! write/repartition overhead is charged to the query (§7.2), as one
//! combined instrumented MapReduce job.

use std::collections::BTreeMap;
use std::sync::Arc;

use deepsea_engine::exec::ExecError;
use deepsea_obs::DecisionEvent;
use deepsea_relation::{Schema, Table};
use deepsea_storage::FileId;

use crate::durability::CatalogRecord;
use crate::filter_tree::ViewId;
use crate::fragment::FragmentId;
use crate::interval::Interval;
use crate::matching::partition_matching;
use crate::policy::PartitionPolicy;
use crate::registry::PartitionState;
use crate::selection::{apply_size_bounds, equi_depth_intervals, CandidateKind};
use crate::stats::LogicalTime;

use super::super::context::{CreationCharge, QueryContext};
use super::super::DeepSea;

/// A materialized source fragment: id, interval, file.
type SourceFrag = (FragmentId, Interval, FileId);

/// Split `table`'s rows among `intervals` (ascending and disjoint, as every
/// partition layout is) by the integer column `col`: one selection vector
/// per interval. Rows with a NULL or uncovered value go to none.
fn partition_rows(table: &Table, col: usize, intervals: &[Interval]) -> Vec<Vec<u32>> {
    let ranges: Vec<(i64, i64)> = intervals.iter().map(|iv| (iv.lo, iv.hi)).collect();
    table.column(col).int_partition_rows(&ranges)
}

impl DeepSea {
    /// Materialize everything selection planned, accumulating the I/O into
    /// `ctx.charge` and the written names into `ctx.materialized`.
    pub(crate) fn stage_materialize(&mut self, ctx: &mut QueryContext) -> Result<(), ExecError> {
        // Views computed once per query for multi-fragment materialization.
        // BTreeMap (not HashMap): this cache sits on the decision path, and
        // the D1 lint bans hash collections there — any future iteration
        // would depend on hash order and break bit-identical replay.
        let mut view_cache: BTreeMap<ViewId, Arc<Table>> = BTreeMap::new();
        let to_create = std::mem::take(&mut ctx.selection.to_create);
        for item in &to_create {
            let (CandidateKind::WholeView(vid) | CandidateKind::Fragment(vid, _, _)) = &item.kind;
            let vid = *vid;
            // A view quarantined earlier in this query (e.g. by the execution
            // fallback) has nothing trustworthy to build on.
            if self.registry.view(vid).is_quarantined() {
                continue;
            }
            let res = match &item.kind {
                CandidateKind::WholeView(vid) => self.materialize_view(*vid, ctx.tnow),
                CandidateKind::Fragment(vid, attr, fid) => self
                    .materialize_fragment(*vid, attr, *fid, &mut view_cache)
                    .map(|opt| match opt {
                        Some((c, desc)) => (c, vec![desc]),
                        None => (CreationCharge::default(), Vec::new()),
                    }),
            };
            match res {
                Ok((c, descs)) => {
                    ctx.charge.absorb(c);
                    ctx.materialized.extend(descs);
                }
                Err(
                    e @ (ExecError::TransientIo(_)
                    | ExecError::PermanentIo(_)
                    | ExecError::CorruptIo(_)),
                ) => {
                    // A source fragment died (after retries) or failed its
                    // checksum while we were building on it. Nothing was
                    // written — the fallible reads all happen before any
                    // create — so quarantine the view and keep materializing
                    // the rest of the plan.
                    if matches!(e, ExecError::CorruptIo(_)) {
                        ctx.trace.recovery.corrupt_fragments += 1;
                    }
                    self.quarantine_into_ctx(vid, ctx);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Convert the accumulated I/O into this query's creation seconds — one
    /// combined instrumented job: reads for repartitioning, writes for all
    /// new views/fragments.
    pub(crate) fn stage_charge_creation(&self, ctx: &mut QueryContext) {
        let block = self.fs.block_config().block_bytes;
        let charge = ctx.charge;
        let mut creation_secs = 0.0;
        if charge.read_bytes > 0 {
            creation_secs += self.backend.scan_secs(charge.read_bytes, block);
        }
        if charge.files > 0 {
            creation_secs += self.backend.write_secs(charge.write_bytes, charge.files);
        }
        // Retry backoff and latency spikes absorbed by materialization I/O
        // are real simulated time (+0.0 on a fault-free run).
        creation_secs += charge.penalty_secs;
        ctx.creation_secs = creation_secs;
        ctx.trace.materialization.bytes_read = charge.read_bytes;
        ctx.trace.materialization.bytes_written = charge.write_bytes;
        ctx.trace.materialization.files_written = charge.files;
        ctx.trace.materialization.fragments_covered = charge.cover_reads;
        ctx.trace.materialization.creation_secs = creation_secs;
        ctx.trace.recovery.retries += charge.retries;
        ctx.trace.recovery.penalty_secs += charge.penalty_secs;
    }

    /// Materialize a view (whole or initially partitioned). Returns the
    /// creation overhead in seconds and descriptions of what was written.
    fn materialize_view(
        &mut self,
        vid: ViewId,
        _tnow: LogicalTime,
    ) -> Result<(CreationCharge, Vec<String>), ExecError> {
        let (plan, name, key) = {
            let v = self.registry.view(vid);
            if v.is_materialized() {
                return Ok((CreationCharge::default(), Vec::new()));
            }
            (Arc::clone(&v.plan), Arc::clone(&v.name), v.key.to_string())
        };
        // Compute the view's content. In the real system this is a by-product
        // of the instrumented query's execution, so only the *write* side is
        // charged below.
        let (table, _compute_metrics) = self.backend.execute(&plan, &self.catalog, &self.fs)?;
        let actual_size = table.sim_bytes();
        let schema = table.schema.clone();

        // Choose a partition layout.
        let attr_choice: Option<(String, Interval, Vec<Interval>)> = {
            let v = self.registry.view(vid);
            self.choose_layout(v.partitions.values().map(|ps| &**ps), actual_size, &table)
        };

        let mut descs = Vec::new();
        let mut charge = CreationCharge::default();
        let mut whole = None;
        match attr_choice {
            Some((attr, _domain, intervals)) if self.config.partition_policy.partitions() => {
                let col_idx = schema
                    .index_of(&attr)
                    .ok_or_else(|| ExecError::UnknownColumn(attr.clone()))?;
                // One pass routes every row to its fragment.
                let parts = partition_rows(&table, col_idx, &intervals);
                for (iv, rows) in intervals.iter().zip(&parts) {
                    let record = self.write_fragment(
                        vid,
                        &attr,
                        *iv,
                        table.take(rows),
                        Some(schema.clone()),
                        &mut charge,
                    );
                    self.commit(record);
                    descs.push(format!("{name}.{attr}{iv}"));
                }
            }
            _ => {
                let replicas = self.replicas_for(vid);
                whole = Some(self.create_placed(
                    name.to_string(),
                    actual_size,
                    table,
                    &mut charge,
                    replicas,
                ));
                charge.write_bytes += actual_size;
                charge.files += 1;
                descs.push(name.to_string());
            }
        }
        let secs = self.backend.write_secs(charge.write_bytes, charge.files);
        let recompute = self.estimator().estimated_secs(&plan) + secs;
        self.commit(match whole {
            Some((file, nodes)) => CatalogRecord::ViewMaterialized {
                view: key,
                file,
                size: actual_size,
                cost: recompute,
                overhead: secs,
                schema,
                nodes,
            },
            None => CatalogRecord::ViewStatsMeasured {
                view: key,
                size: actual_size,
                cost: recompute,
                overhead: secs,
                schema,
            },
        });
        self.obs.counter_add(
            "deepsea_mat_bytes_written_total",
            Some(&name),
            charge.write_bytes,
        );
        Ok((charge, descs))
    }

    /// Pick the partition attribute and initial intervals for a new view.
    fn choose_layout<'a>(
        &self,
        partitions: impl Iterator<Item = &'a PartitionState>,
        view_size: u64,
        table: &Table,
    ) -> Option<(String, Interval, Vec<Interval>)> {
        // Prefer the partition with the most recorded boundaries (the
        // attribute the workload actually selects on).
        let ps = partitions.max_by_key(|p| (p.boundaries.len(), p.fragments.len()))?;
        let intervals = match self.config.partition_policy {
            PartitionPolicy::EquiDepth { fragments } => {
                let col = table.schema.index_of(&ps.attr)?;
                let col = table.column(col);
                let mut values: Vec<i64> = (0..table.len()).filter_map(|i| col.int_at(i)).collect();
                values.sort_unstable();
                equi_depth_intervals(&values, fragments, &ps.domain)
            }
            PartitionPolicy::Progressive { .. } => apply_size_bounds(
                &ps.boundary_partition(),
                &ps.domain,
                view_size,
                self.config.min_fragment_bytes,
                self.config.phi_max_fraction,
            ),
            _ => return None,
        };
        Some((ps.attr.clone(), ps.domain, intervals))
    }

    /// Materialize one refinement fragment on an existing partition.
    /// Charges `wread` for every overlapping materialized fragment read and
    /// `wwrite` for everything written (§7.2). Under horizontal (non-
    /// overlapping) partitioning, split fragments are rewritten and dropped;
    /// under overlapping partitioning the originals are kept.
    fn materialize_fragment(
        &mut self,
        vid: ViewId,
        attr: &str,
        fid: FragmentId,
        view_cache: &mut BTreeMap<ViewId, Arc<Table>>,
    ) -> Result<Option<(CreationCharge, String)>, ExecError> {
        let overlapping_mode = self.config.partition_policy.overlapping();
        let (name, key, schema, target, sources): (Arc<str>, String, _, Interval, Vec<SourceFrag>) = {
            let view = self.registry.view(vid);
            let Some(ps) = view.partitions.get(attr) else {
                return Ok(None);
            };
            let Some(frag) = ps.frag(fid) else {
                return Ok(None);
            };
            if frag.is_materialized() {
                return Ok(None);
            }
            let target = frag.interval;
            let sources = ps
                .fragments
                .iter()
                .filter(|f| f.is_materialized() && f.interval.overlaps(&target))
                .map(|f| {
                    let file = f
                        .file
                        .expect("invariant: is_materialized() checked in the filter above");
                    (f.id, f.interval, file)
                })
                .collect::<Vec<_>>();
            let schema = view.schema.clone();
            match schema {
                Some(s) if !sources.is_empty() => (
                    Arc::clone(&view.name),
                    view.key.to_string(),
                    s,
                    target,
                    sources,
                ),
                // No materialized source covers the target (fresh view, or a
                // fully-evicted region): build the fragment from the view's
                // plan instead.
                _ => return self.materialize_fragment_from_plan(vid, attr, fid, view_cache),
            }
        };

        let col_idx = schema
            .index_of(attr)
            .ok_or_else(|| ExecError::UnknownColumn(attr.to_string()))?;

        // Use an Algorithm-2 cover so each row is taken exactly once even
        // when materialized source fragments overlap each other.
        let cover = partition_matching(
            &target,
            &sources
                .iter()
                .map(|(id, iv, _)| (*id, *iv))
                .collect::<Vec<_>>(),
        );
        let Some(cover) = cover else { return Ok(None) };
        let mut charge = CreationCharge {
            cover_reads: cover.len() as u64,
            ..CreationCharge::default()
        };

        // Every fallible read happens before any create: a fragment lost
        // mid-repartition must surface as an error with *nothing* written,
        // never as a silently incomplete fragment.
        let mut taken: Vec<Vec<u32>> = Vec::new();
        let mut source_tables = Vec::new();
        for (fid2, take) in &cover {
            let (_, _, file) = sources
                .iter()
                .find(|(id, ..)| id == fid2)
                .expect("invariant: partition_matching covers only from the given sources");
            let (payload, bytes) = self
                .read_retrying(*file, &mut charge)
                .map_err(ExecError::from)?;
            charge.read_bytes += bytes;
            taken.push(payload.column(col_idx).int_range_rows(take.lo, take.hi));
            source_tables.push((*fid2, payload));
        }

        // Horizontal mode: rewrite the remainders of every split fragment and
        // drop the originals. Overlapping mode: keep them (§10.4). Sources
        // that overlapped the target but were not in the cover are read here,
        // still ahead of any write.
        let split_work: &[SourceFrag] = if overlapping_mode { &[] } else { &sources };
        // BTreeMap for the same D1 reason as `view_cache` above.
        let mut extra_payloads: BTreeMap<FragmentId, Arc<Table>> = BTreeMap::new();
        for (sid, _, file) in split_work {
            if source_tables.iter().any(|(id, _)| id == sid) {
                continue;
            }
            let (p, bytes) = self
                .read_retrying(*file, &mut charge)
                .map_err(ExecError::from)?;
            charge.read_bytes += bytes;
            extra_payloads.insert(*sid, p);
        }

        let bytes_per_row = source_tables
            .first()
            .map(|(_, t)| t.bytes_per_row)
            .unwrap_or(1);
        let parts: Vec<(&Table, Option<&[u32]>)> = source_tables
            .iter()
            .zip(&taken)
            .map(|((_, t), rows)| (&**t, Some(rows.as_slice())))
            .collect();
        let frag_table = Table::concat(schema.clone(), &parts, bytes_per_row);
        // Every file of the refinement is written (and every dropped source
        // deleted) before its first record is committed.
        let mut records =
            vec![self.write_fragment(vid, attr, target, frag_table, None, &mut charge)];

        // Audit the refinement decision: in overlapping mode the sources
        // stay; in horizontal mode they are split and rewritten.
        if overlapping_mode && self.obs.events_enabled() {
            self.obs.event(
                self.clock,
                DecisionEvent::OverlapKept {
                    view: name.to_string(),
                    attr: attr.to_string(),
                    target: target.to_string(),
                    sources: sources.len() as u64,
                },
            );
        }

        let mut remainders: Vec<CatalogRecord> = Vec::new();
        for (sid, iv, ..) in split_work {
            // Remainder pieces of iv not covered by target.
            let mut pieces = Vec::new();
            if iv.lo < target.lo {
                pieces.push(Interval::new(iv.lo, target.lo - 1));
            }
            if iv.hi > target.hi {
                pieces.push(Interval::new(target.hi + 1, iv.hi));
            }
            let payload = source_tables
                .iter()
                .find(|(id, _)| id == sid)
                .map(|(_, t)| Arc::clone(t))
                .or_else(|| extra_payloads.get(sid).cloned())
                .expect("invariant: every split source was read above");
            let parts = partition_rows(&payload, col_idx, &pieces);
            for (piece, rows) in pieces.into_iter().zip(&parts) {
                let t = Table::concat(
                    schema.clone(),
                    &[(&*payload, Some(rows.as_slice()))],
                    payload.bytes_per_row,
                );
                remainders.push(self.write_fragment(vid, attr, piece, t, None, &mut charge));
            }
        }
        if !overlapping_mode && self.obs.events_enabled() {
            self.obs.event(
                self.clock,
                DecisionEvent::FragmentSplit {
                    view: name.to_string(),
                    attr: attr.to_string(),
                    target: target.to_string(),
                    sources: cover.len() as u64,
                    remainders: remainders.len() as u64,
                },
            );
        }
        for (_, interval, file) in split_work {
            if let Some((_, secs)) = self.fs.delete_costed(*file) {
                charge.penalty_secs += secs;
            }
            records.push(CatalogRecord::FragmentEvicted {
                view: key.clone(),
                attr: attr.to_string(),
                interval: *interval,
            });
        }
        records.extend(remainders);
        for record in records {
            self.commit(record);
        }

        self.obs.counter_add(
            "deepsea_mat_bytes_read_total",
            Some(&name),
            charge.read_bytes,
        );
        self.obs.counter_add(
            "deepsea_mat_bytes_written_total",
            Some(&name),
            charge.write_bytes,
        );
        Ok(Some((charge, format!("{name}.{attr}{target}"))))
    }

    /// Build a fragment by computing the view's plan (used for initial
    /// partitioned materialization and for regions whose sources were
    /// evicted). As with whole-view materialization, the computation happens
    /// as a by-product of the running query, so only the write is charged.
    fn materialize_fragment_from_plan(
        &mut self,
        vid: ViewId,
        attr: &str,
        fid: FragmentId,
        view_cache: &mut BTreeMap<ViewId, Arc<Table>>,
    ) -> Result<Option<(CreationCharge, String)>, ExecError> {
        let (plan, name, key, target) = {
            let view = self.registry.view(vid);
            let Some(ps) = view.partitions.get(attr) else {
                return Ok(None);
            };
            let Some(frag) = ps.frag(fid) else {
                return Ok(None);
            };
            (
                Arc::clone(&view.plan),
                Arc::clone(&view.name),
                view.key.to_string(),
                frag.interval,
            )
        };
        let table = match view_cache.get(&vid) {
            Some(t) => Arc::clone(t),
            None => {
                let (t, _metrics) = self.backend.execute(&plan, &self.catalog, &self.fs)?;
                let t = Arc::new(t);
                view_cache.insert(vid, Arc::clone(&t));
                t
            }
        };
        let schema = table.schema.clone();
        let Some(col_idx) = schema.index_of(attr) else {
            return Ok(None);
        };
        let full_size = table.sim_bytes();
        let frag_table = table.take(&table.column(col_idx).int_range_rows(target.lo, target.hi));
        let mut charge = CreationCharge::default();
        let record = self.write_fragment(
            vid,
            attr,
            target,
            frag_table,
            Some(schema.clone()),
            &mut charge,
        );
        if self.registry.view(vid).schema.is_none() {
            let overhead = self.backend.write_secs(full_size, 1);
            let recompute = self.estimator().estimated_secs(&plan);
            self.commit(CatalogRecord::ViewStatsMeasured {
                view: key,
                size: full_size,
                cost: recompute + overhead,
                overhead,
                schema,
            });
        }
        self.commit(record);
        self.obs.counter_add(
            "deepsea_mat_bytes_written_total",
            Some(&name),
            charge.write_bytes,
        );
        Ok(Some((charge, format!("{name}.{attr}{target}"))))
    }

    /// The file-system half of materializing one fragment of view `vid`:
    /// write `table` as the file of `P(V, attr)`'s `interval`, charge the
    /// write, and build the [`CatalogRecord::FragmentMaterialized`] for the
    /// caller to `commit` — at once, or after the rest of a multi-file
    /// refinement is on disk. `schema` rides along until the view has one.
    pub(crate) fn write_fragment(
        &self,
        vid: ViewId,
        attr: &str,
        interval: Interval,
        table: Table,
        schema: Option<Schema>,
        charge: &mut CreationCharge,
    ) -> CatalogRecord {
        let view = self.registry.view(vid);
        let size = table.sim_bytes();
        let (file, nodes) = self.create_placed(
            format!("{}.{attr}{interval}", view.name),
            size,
            table,
            charge,
            self.replicas_for(vid),
        );
        charge.write_bytes += size;
        charge.files += 1;
        CatalogRecord::FragmentMaterialized {
            view: view.key.to_string(),
            attr: attr.to_string(),
            interval,
            file,
            size,
            schema,
            nodes,
        }
    }
}
