//! Fault recovery: retrying fragment I/O on the driver's retry ladder
//! (`retry.rs`: three retries, 3.5 s of backoff in all) and quarantining
//! views whose backing data is permanently lost.
//!
//! The contract that makes all of this safe is the paper's framing of views
//! as *opportunistic accelerators*: base tables are durable and can always
//! answer the query, so the worst a lost fragment can cost is time — never
//! correctness. Quarantine therefore only has to (a) release the lost data
//! from pool accounting, (b) stop the view from matching until it is rebuilt,
//! and (c) leave statistics intact so a hot view earns re-materialization
//! quickly once a later query re-registers its shape.

use std::collections::BTreeSet;
use std::sync::Arc;

use deepsea_relation::Table;
use deepsea_storage::{placement_key, FileId, IoError};

use crate::durability::{CatalogRecord, FsckReport};
use crate::filter_tree::ViewId;
use crate::retry::retry_io;
use crate::stats::LogicalTime;

use super::super::context::{CreationCharge, QueryContext};
use super::super::DeepSea;

impl DeepSea {
    /// Read a fragment file, retrying transient failures on the retry
    /// ladder. Retry counts and backoff/spike seconds accumulate into
    /// `charge`. A permanent loss or an exhausted ladder returns the error.
    pub(crate) fn read_retrying(
        &self,
        file: FileId,
        charge: &mut CreationCharge,
    ) -> Result<(Arc<Table>, u64), IoError> {
        let out = retry_io(&mut charge.retries, &mut charge.penalty_secs, || {
            self.fs.try_read(file)
        })?;
        charge.penalty_secs += out.spike_secs;
        Ok((out.value, out.sim_bytes))
    }

    /// Create a file on the datanodes its name hashes to (deterministic per
    /// view/fragment — the name encodes `(view, attr, interval)`), as many as
    /// the cluster's replication factor (no nodes without a cluster),
    /// retrying transient write failures on the retry ladder. Writes never
    /// lose data: the payload is in memory, so once the ladder is exhausted
    /// (e.g. the whole placement is down) the write is forced through and
    /// the placement recorded — the queued write lands once the nodes
    /// return. The surplus replica bytes are added to `charge.write_bytes`
    /// so replication I/O is priced through the same `CostWeights` as any
    /// other write; callers still add the base size themselves. Returns the
    /// file and its placement.
    pub(crate) fn create_placed(
        &self,
        name: String,
        sim_bytes: u64,
        payload: Table,
        charge: &mut CreationCharge,
    ) -> (FileId, Vec<u32>) {
        let nodes = match self.fs.cluster() {
            Some(cluster) => {
                cluster.placement_for(placement_key(name.as_bytes()), cluster.config().replication)
            }
            None => Vec::new(),
        };
        let created = retry_io(&mut charge.retries, &mut charge.penalty_secs, || {
            self.fs
                .try_create_placed(name.clone(), sim_bytes, payload.clone(), &nodes)
        });
        let id = match created {
            Ok(out) => {
                charge.penalty_secs += out.spike_secs;
                out.value
            }
            Err(_) => {
                let (id, _) = self.fs.create(name, sim_bytes, payload);
                self.fs.place(id, &nodes);
                id
            }
        };
        charge.write_bytes += sim_bytes * (nodes.len() as u64).saturating_sub(1);
        (id, nodes.iter().map(|n| n.0).collect())
    }

    /// Quarantine a view: drop whatever backing files still exist, then
    /// commit the quarantine (marking its data lost, releasing its pool
    /// bytes and stripping it from the filter tree). Returns the view's name
    /// and the pool bytes released; a no-op on an already-quarantined view.
    pub(crate) fn quarantine_view(&mut self, vid: ViewId, tnow: LogicalTime) -> (String, u64) {
        let view = self.registry.view(vid);
        let name = view.name.to_string();
        if view.is_quarantined() {
            return (name, 0);
        }
        let record = CatalogRecord::ViewQuarantined {
            view: view.key.to_string(),
            at: tnow,
        };
        let had_whole = view.whole_file.is_some();
        for file in view.files() {
            // The file that triggered the failure is usually already gone
            // from the FS; deleting the survivors is metadata-only.
            self.fs.delete(file);
        }
        let applied = self.commit(record);
        self.obs
            .counter_inc("deepsea_quarantined_views_total", Some(&name));
        if self.obs.enabled() {
            let files = applied.files.len() as u64;
            self.obs.event(
                tnow,
                deepsea_obs::DecisionEvent::Quarantine {
                    view: name.clone(),
                    files,
                    bytes: applied.released,
                    fragments: files - u64::from(had_whole),
                },
            );
        }
        (name, applied.released)
    }

    /// Quarantine a view during query processing, recording the event in the
    /// query's trace. No-op if the view is already quarantined (a query can
    /// hit the same broken view from several stages).
    pub(crate) fn quarantine_into_ctx(&mut self, vid: ViewId, ctx: &mut QueryContext) {
        if self.registry.view(vid).is_quarantined() {
            return;
        }
        let (name, bytes) = self.quarantine_view(vid, ctx.tnow);
        ctx.trace.recovery.quarantined_views += 1;
        ctx.trace.recovery.quarantined_bytes += bytes;
        ctx.quarantined.push(name);
    }

    /// The post-replay **fsck sweep** of `DeepSea::recover`: reconcile the
    /// recovered catalog against the file system.
    ///
    /// The *fs-first, journal-after* commit convention bounds what a crash
    /// can tear to exactly two shapes, and fsck repairs both:
    ///
    /// 1. **Orphans** — a file was created but the crash hit before its
    ///    record was journaled. No catalog entry references it: delete it
    ///    (releasing its simulated bytes; a delete costs no time).
    /// 2. **Dangling entries** — the journal references a file the FS no
    ///    longer has (deleted pre-crash, its eviction record lost), or one
    ///    whose checksum no longer verifies. The owning view is quarantined;
    ///    its statistics survive for re-materialization.
    ///
    /// Afterwards the pool ledger is re-derived from the reconciled catalog
    /// and the three-way invariant `pool.used == registry.pool_bytes() ==
    /// fs.total_bytes()` is asserted.
    pub(crate) fn fsck(&mut self) -> FsckReport {
        let mut report = FsckReport::default();
        let tnow = self.clock;

        // Pass 1: verify every catalog-referenced file; collect damaged views.
        let mut damaged: Vec<ViewId> = Vec::new();
        for view in self.registry.iter() {
            let mut broken = false;
            for f in view.files() {
                match self.fs.verify(f) {
                    None => {
                        report.missing_files += 1;
                        broken = true;
                    }
                    Some(false) => {
                        report.corrupt_files += 1;
                        broken = true;
                    }
                    Some(true) => {}
                }
            }
            if broken {
                damaged.push(view.id);
            }
        }
        for vid in damaged {
            let (_, bytes) = self.quarantine_view(vid, tnow);
            report.quarantined_views += 1;
            report.quarantined_bytes += bytes;
        }

        // Pass 2: delete files no live catalog entry references (orphans of
        // a crash between create and journal append, plus whatever the
        // quarantines above just unlinked from the catalog).
        let referenced: BTreeSet<FileId> = self.registry.iter().flat_map(|v| v.files()).collect();
        for f in self.fs.file_ids() {
            if !referenced.contains(&f) {
                if let Some(bytes) = self.fs.delete(f) {
                    report.orphan_files += 1;
                    report.orphan_bytes += bytes;
                }
            }
        }

        // Reconcile the pool ledger and assert the recovery invariant.
        let live = self.registry.pool_bytes();
        self.pool.set_used(live);
        report.pool_used = live;
        assert_eq!(
            live,
            self.fs.total_bytes(),
            "fsck: catalog bytes and file-system bytes disagree"
        );
        assert_eq!(self.pool.used(), live, "fsck: pool ledger disagrees");

        let debt = self.drain_journal_debt();
        report.journal_retries = debt.retries;
        report.journal_penalty_secs = debt.penalty_secs;
        report
    }
}
