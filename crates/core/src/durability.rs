//! Crash-restart durability for the catalog: journal records, snapshots, and
//! cold-start replay.
//!
//! Every catalog mutation the driver performs — registering a view, tracking
//! a partition or fragment, materializing, evicting, quarantining — is
//! appended to a [`CatalogJournal`] at its commit point. The convention is
//! *file-system mutation first, journal record after*: a crash between the
//! two leaves either an orphaned file (created but never recorded — the fsck
//! sweep garbage-collects it) or a dangling catalog entry (deleted but the
//! delete record lost — the fsck sweep quarantines its view). See
//! `DeepSea::recover` for the cold-start path.
//!
//! `apply_record` is the only implementation of those mutations: replay
//! folds it over the journal, and the live `DeepSea::commit` applies each
//! record with it before appending it, so live and replayed state agree.
//!
//! Statistics that accrue on *every* query (benefit events, fragment hits —
//! the registry's ledger) are too chatty to journal per event; they ride in
//! periodic [`CatalogRecord::StatsCheckpoint`] records instead. Statistics recorded
//! after the last checkpoint are lost in a crash — which can only make
//! recovered views look slightly colder, never change an answer, because
//! views accelerate queries but never gate them.

use std::sync::Arc;

use deepsea_engine::{LogicalPlan, Signature};
use deepsea_relation::Schema;
use deepsea_storage::{FileId, Journal, Lsn};

use crate::interval::Interval;
use crate::registry::{PartitionState, ViewMeta, ViewRegistry};
use crate::stats::{LogicalTime, StatsWithUses, ViewStats, ViewUses};

/// The journal the driver appends [`CatalogRecord`]s to, snapshotting full
/// [`CatalogSnapshot`]s at the configured cadence.
pub type CatalogJournal = Journal<CatalogRecord, CatalogSnapshot>;

/// A full-state checkpoint: replay starts from the latest snapshot and
/// applies only the record suffix after it.
#[derive(Debug, Clone)]
pub struct CatalogSnapshot {
    /// The registry (views, partitions, fragments, filter tree, and the
    /// statistics ledger).
    pub registry: ViewRegistry,
    /// The logical clock at snapshot time.
    pub clock: LogicalTime,
}

/// Per-view statistics captured by a [`CatalogRecord::StatsCheckpoint`].
#[derive(Clone)]
pub struct ViewStatsEntry {
    /// The view's canonical signature key.
    pub view: String,
    /// Its `(S, COST)` statistics.
    pub stats: ViewStats,
    /// Its benefit events `(T, B)`.
    pub uses: ViewUses,
    /// Fragment hit timestamps, as `(attribute, interval, hits)`.
    pub fragment_hits: Vec<(String, Interval, Vec<LogicalTime>)>,
}

/// `stats` and `uses` print as the one `ViewStats` they were before the uses
/// moved to the ledger, so the journal's `Debug` stream is unchanged.
impl std::fmt::Debug for ViewStatsEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ViewStatsEntry {
            view,
            stats,
            uses,
            fragment_hits,
        } = self;
        f.debug_struct("ViewStatsEntry")
            .field("view", view)
            .field("stats", &StatsWithUses(stats, uses))
            .field("fragment_hits", fragment_hits)
            .finish()
    }
}

/// One durable catalog mutation. Views are identified by their canonical
/// signature key and fragments by `(attribute, interval)` — both stable
/// across replay, unlike ids assigned at runtime (which replay reproduces
/// deterministically by applying records in LSN order).
#[derive(Debug, Clone)]
pub enum CatalogRecord {
    /// A view candidate entered the registry (or a quarantined view's shape
    /// reappeared and was re-admitted). `first_use` carries the first-query
    /// benefit event recorded for brand-new views.
    ViewRegistered {
        /// The view's defining plan.
        plan: LogicalPlan,
        /// Its signature.
        sig: Signature,
        /// Estimated size in simulated bytes.
        est_size: u64,
        /// Estimated recreation cost in seconds.
        est_cost: f64,
        /// Estimated by-product materialization overhead in seconds.
        est_overhead: f64,
        /// `(t, saving)` of the registering query's own use, for new views.
        first_use: Option<(LogicalTime, f64)>,
    },
    /// A partition `P(V, A)` started being tracked.
    PartitionTracked {
        /// Owning view's canonical key.
        view: String,
        /// Partition attribute.
        attr: String,
        /// The attribute's domain.
        domain: Interval,
    },
    /// A split point was recorded for initial partitioning.
    BoundaryAdded {
        /// Owning view's canonical key.
        view: String,
        /// Partition attribute.
        attr: String,
        /// The boundary point.
        point: i64,
    },
    /// A candidate fragment started being tracked (Definition 7).
    FragmentTracked {
        /// Owning view's canonical key.
        view: String,
        /// Partition attribute.
        attr: String,
        /// The fragment's interval.
        interval: Interval,
        /// Estimated size in simulated bytes.
        est_size: u64,
        /// Hit recorded at tracking time, when the tracking query's range
        /// contained the fragment.
        hit: Option<LogicalTime>,
    },
    /// A view was materialized whole (un-partitioned) into `file`.
    ViewMaterialized {
        /// The view's canonical key.
        view: String,
        /// Backing file.
        file: FileId,
        /// Measured size in simulated bytes.
        size: u64,
        /// Measured recreation cost in seconds.
        cost: f64,
        /// Measured creation overhead in seconds.
        overhead: f64,
        /// Output schema.
        schema: Schema,
        /// Datanodes the file was placed on (primary first). Empty when the
        /// FS is not sharded. Replayed into the cluster map by
        /// `DeepSea::recover` so routing survives a crash.
        nodes: Vec<u32>,
    },
    /// A fragment was materialized into `file` — the per-fragment commit
    /// point of partitioned materialization and repartitioning.
    FragmentMaterialized {
        /// Owning view's canonical key.
        view: String,
        /// Partition attribute.
        attr: String,
        /// The fragment's interval.
        interval: Interval,
        /// Backing file.
        file: FileId,
        /// Measured size in simulated bytes.
        size: u64,
        /// Output schema, carried until the view has one.
        schema: Option<Schema>,
        /// Datanodes the file was placed on (primary first). Empty when the
        /// FS is not sharded.
        nodes: Vec<u32>,
    },
    /// A view's measured statistics replaced its estimates (the end of a
    /// partitioned materialization).
    ViewStatsMeasured {
        /// The view's canonical key.
        view: String,
        /// Measured size in simulated bytes.
        size: u64,
        /// Measured recreation cost in seconds.
        cost: f64,
        /// Measured creation overhead in seconds.
        overhead: f64,
        /// Output schema.
        schema: Schema,
    },
    /// A view's whole-file copy was evicted.
    ViewEvicted {
        /// The view's canonical key.
        view: String,
    },
    /// A materialized fragment was evicted (or dropped by a split).
    FragmentEvicted {
        /// Owning view's canonical key.
        view: String,
        /// Partition attribute.
        attr: String,
        /// The fragment's interval.
        interval: Interval,
    },
    /// A view was quarantined after a permanent I/O failure.
    ViewQuarantined {
        /// The view's canonical key.
        view: String,
        /// Logical time of the quarantine.
        at: LogicalTime,
    },
    /// Periodic statistics checkpoint: benefit events and fragment hits for
    /// every tracked view. Replay overwrites statistics with these values but
    /// never touches structural state (materialization, quarantine, the
    /// filter tree).
    StatsCheckpoint {
        /// Logical time of the checkpoint.
        at: LogicalTime,
        /// Per-view statistics.
        views: Vec<ViewStatsEntry>,
    },
    /// A query finished processing; recovers the logical clock.
    QueryCommitted {
        /// The committed query's logical time.
        tnow: LogicalTime,
    },
}

/// Build a [`CatalogRecord::StatsCheckpoint`] from the registry's current
/// statistics.
pub fn stats_checkpoint(registry: &ViewRegistry, at: LogicalTime) -> CatalogRecord {
    let ledger = registry.ledger();
    let views = registry
        .iter()
        .map(|v| ViewStatsEntry {
            view: v.key.to_string(),
            stats: v.stats.clone(),
            uses: ledger.uses(v.id).clone(),
            fragment_hits: v
                .partitions
                .values()
                .flat_map(|ps| {
                    let hits = ledger.hits(v.id, &ps.attr);
                    ps.fragments()
                        .iter()
                        .map(move |f| (ps.attr.clone(), f.interval, hits.of(f.id).hits.clone()))
                })
                .collect(),
        })
        .collect();
    CatalogRecord::StatsCheckpoint { at, views }
}

/// Rebuild the registry and logical clock from a snapshot and the record
/// suffix after it — the read-only half of cold-start recovery. Applying the
/// same `(snapshot, records)` twice yields identical state, which is what
/// makes recovery idempotent.
pub fn replay_catalog(
    snapshot: Option<CatalogSnapshot>,
    records: &[(Lsn, CatalogRecord)],
) -> (ViewRegistry, LogicalTime) {
    let (mut registry, mut clock) = match snapshot {
        Some(s) => (s.registry, s.clock),
        None => (ViewRegistry::new(), 0),
    };
    for (_, record) in records {
        apply_record(&mut registry, &mut clock, record);
    }
    (registry, clock)
}

/// What applying one record did to the catalog — everything the live commit
/// path needs to keep the pool ledger in step without looking at the registry
/// a second time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Applied {
    /// The record found the view / partition / fragment it names. `false`
    /// leaves the registry untouched: replay skips such a record (a torn
    /// tail must never panic), the live path treats it as a broken invariant.
    pub applied: bool,
    /// Pool bytes the record started accounting for.
    pub reserved: u64,
    /// Pool bytes the record stopped accounting for.
    pub released: u64,
    /// Backing files the record unlinked from the catalog.
    pub files: Vec<FileId>,
}

impl Applied {
    /// The record applied, moving these pool bytes and unlinking `files`.
    fn moved(reserved: u64, released: u64, files: Vec<FileId>) -> Self {
        Self {
            applied: true,
            reserved,
            released,
            files,
        }
    }

    /// The record applied and moved no pool bytes.
    fn no_bytes() -> Self {
        Self::moved(0, 0, Vec::new())
    }
}

/// Apply one record to the registry — the one implementation of every
/// structural catalog mutation, shared by cold-start replay and the live
/// `DeepSea::commit`. A record naming an unknown view, partition or fragment
/// changes nothing and reports `applied: false`. An applied record renews
/// [`ViewRegistry::version`] when it is [`read_visible`].
pub(crate) fn apply_record(
    registry: &mut ViewRegistry,
    clock: &mut LogicalTime,
    record: &CatalogRecord,
) -> Applied {
    let applied = try_apply(registry, clock, record).unwrap_or_default();
    if applied.applied && read_visible(record) {
        registry.renew_version();
    }
    applied
}

/// Whether `record` can change what matching and rewriting (stages 1 and 3
/// of Algorithm 1) read of the registry: the filter tree, and per view its
/// signature, schema, whole-file copy and size, and each partition's
/// materialized fragments with their files and sizes. Every other record
/// keeps [`ViewRegistry::version`], so a rewriting remembered before it is
/// still the one those stages would compute after it.
fn read_visible(record: &CatalogRecord) -> bool {
    match record {
        CatalogRecord::ViewRegistered { .. }
        | CatalogRecord::ViewMaterialized { .. }
        | CatalogRecord::FragmentMaterialized { .. }
        | CatalogRecord::ViewStatsMeasured { .. }
        | CatalogRecord::ViewEvicted { .. }
        | CatalogRecord::FragmentEvicted { .. }
        | CatalogRecord::ViewQuarantined { .. } => true,
        // A new partition holds no materialized fragment, and matching
        // (`find_access`) skips a partition with none.
        CatalogRecord::PartitionTracked { .. } => false,
        // Boundaries feed Definition 7's candidates, stage 4, alone.
        CatalogRecord::BoundaryAdded { .. } => false,
        // A candidate has no file: matching reads a partition's
        // `materialized()` slots only, and a candidate is appended, so no
        // slot moves. Its hit goes to the ledger.
        CatalogRecord::FragmentTracked { .. } => false,
        // Benefit events and fragment hits go to the ledger, which no read
        // sees. The one view field it may copy, `stats` after a lost
        // record, renews the version in `try_apply` itself.
        CatalogRecord::StatsCheckpoint { .. } => false,
        // Only the logical clock moves.
        CatalogRecord::QueryCommitted { .. } => false,
    }
}

/// [`apply_record`], with `None` for a record naming an unknown entry.
fn try_apply(
    registry: &mut ViewRegistry,
    clock: &mut LogicalTime,
    record: &CatalogRecord,
) -> Option<Applied> {
    Some(match record {
        CatalogRecord::ViewRegistered {
            plan,
            sig,
            est_size,
            est_cost,
            est_overhead,
            first_use,
        } => {
            let is_new = registry.by_key(&sig.canonical_key()).is_none();
            let vid = registry.register(
                plan.clone(),
                sig.clone(),
                *est_size,
                *est_cost,
                *est_overhead,
            );
            if is_new {
                if let Some((t, saving)) = first_use {
                    registry.ledger_mut().uses_mut(vid).record_use(*t, *saving);
                }
            }
            Applied::no_bytes()
        }
        CatalogRecord::PartitionTracked { view, attr, domain } => {
            view_mut(registry, view)?.partition_or_track(attr, *domain);
            Applied::no_bytes()
        }
        CatalogRecord::BoundaryAdded { view, attr, point } => {
            partition_mut(registry, view, attr)?.add_boundary(*point);
            Applied::no_bytes()
        }
        CatalogRecord::FragmentTracked {
            view,
            attr,
            interval,
            est_size,
            hit,
        } => {
            let vid = registry.by_key(view)?;
            let (id, is_new) = partition_mut(registry, view, attr)?.track(*interval, *est_size);
            if let (true, Some(t)) = (is_new, hit) {
                registry.ledger_mut().hits_mut(vid, attr, id).record_hit(*t);
            }
            Applied::no_bytes()
        }
        CatalogRecord::ViewMaterialized {
            view,
            file,
            size,
            cost,
            overhead,
            schema,
            // Placement is namenode state, not catalog state: `recover`
            // replays it into the cluster map, never into the registry.
            nodes: _,
        } => {
            let v = view_mut(registry, view)?;
            let released = v.whole_bytes();
            let old = v.whole_file.replace(*file);
            v.schema = Some(schema.clone());
            v.stats.set_measured(*size, *cost);
            v.creation_overhead = *overhead;
            Applied::moved(
                *size,
                released,
                old.into_iter().filter(|f| f != file).collect(),
            )
        }
        CatalogRecord::FragmentMaterialized {
            view,
            attr,
            interval,
            file,
            size,
            schema,
            nodes: _,
        } => {
            let v = view_mut(registry, view)?;
            let ps = v.partitions.get_mut(attr)?;
            if v.schema.is_none() {
                v.schema = schema.clone();
            }
            let (released, old) = Arc::make_mut(ps).materialize(*interval, *file, *size);
            Applied::moved(
                *size,
                released,
                old.into_iter().filter(|f| f != file).collect(),
            )
        }
        CatalogRecord::ViewStatsMeasured {
            view,
            size,
            cost,
            overhead,
            schema,
        } => {
            let v = view_mut(registry, view)?;
            let released = v.whole_bytes();
            v.schema = Some(schema.clone());
            v.stats.set_measured(*size, *cost);
            v.creation_overhead = *overhead;
            Applied::moved(v.whole_bytes(), released, Vec::new())
        }
        CatalogRecord::ViewEvicted { view } => {
            let v = view_mut(registry, view)?;
            let released = v.whole_bytes();
            Applied::moved(0, released, v.whole_file.take().into_iter().collect())
        }
        CatalogRecord::FragmentEvicted {
            view,
            attr,
            interval,
        } => {
            let (released, file) = partition_mut(registry, view, attr)?.evict(interval)?;
            Applied::moved(0, released, file.into_iter().collect())
        }
        CatalogRecord::ViewQuarantined { view, at } => {
            let report = registry.quarantine(registry.by_key(view)?, *at);
            Applied::moved(0, report.bytes, report.files)
        }
        CatalogRecord::StatsCheckpoint { at: _, views } => {
            for entry in views {
                let Some(vid) = registry.by_key(&entry.view) else {
                    continue;
                };
                // Size and cost equal the checkpoint's unless a record
                // before it was lost: copy the view only then. Matching
                // reads the size, so the version moves with it.
                if registry.view(vid).stats != entry.stats {
                    registry.view_mut(vid).stats = entry.stats.clone();
                    registry.renew_version();
                }
                *registry.ledger_mut().uses_mut(vid) = entry.uses.clone();
                for (attr, interval, hits) in &entry.fragment_hits {
                    let partition = registry.view(vid).partitions.get(attr);
                    if let Some(frag) = partition.and_then(|ps| ps.find(interval)) {
                        let id = frag.id;
                        registry.ledger_mut().hits_mut(vid, attr, id).hits = hits.clone();
                    }
                }
            }
            Applied::no_bytes()
        }
        CatalogRecord::QueryCommitted { tnow } => {
            *clock = *tnow;
            Applied::no_bytes()
        }
    })
}

fn view_mut<'a>(registry: &'a mut ViewRegistry, view: &str) -> Option<&'a mut ViewMeta> {
    let vid = registry.by_key(view)?;
    Some(registry.view_mut(vid))
}

fn partition_mut<'a>(
    registry: &'a mut ViewRegistry,
    view: &str,
    attr: &str,
) -> Option<&'a mut PartitionState> {
    view_mut(registry, view)?.partition_mut(attr)
}

/// What the fsck sweep of `DeepSea::recover` found and repaired, plus replay
/// provenance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FsckReport {
    /// Journal records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// The LSN the loaded snapshot covered up to, if one existed.
    pub snapshot_lsn: Option<Lsn>,
    /// Files in the FS referenced by no live catalog entry, deleted.
    pub orphan_files: u32,
    /// Simulated bytes those orphans held.
    pub orphan_bytes: u64,
    /// Catalog-referenced files missing from the FS.
    pub missing_files: u32,
    /// Catalog-referenced files failing checksum verification.
    pub corrupt_files: u32,
    /// Views quarantined because their backing files were missing/corrupt.
    pub quarantined_views: u32,
    /// Pool bytes those quarantines released.
    pub quarantined_bytes: u64,
    /// Journal-append retries absorbed while journaling fsck quarantines.
    pub journal_retries: u64,
    /// Simulated seconds of backoff those retries cost.
    pub journal_penalty_secs: f64,
    /// Reconciled pool usage after the sweep.
    pub pool_used: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsea_storage::FaultConfig;
    use deepsea_storage::FaultInjector;

    fn join_plan() -> (LogicalPlan, Signature) {
        let plan = LogicalPlan::scan("a").join(LogicalPlan::scan("b"), vec![("a.k", "b.k")]);
        let sig = Signature::of(&plan).unwrap();
        (plan, sig)
    }

    fn registered(sig: &Signature, plan: &LogicalPlan) -> CatalogRecord {
        CatalogRecord::ViewRegistered {
            plan: plan.clone(),
            sig: sig.clone(),
            est_size: 1000,
            est_cost: 10.0,
            est_overhead: 2.0,
            first_use: Some((1, 5.0)),
        }
    }

    #[test]
    fn replay_rebuilds_structure_and_stats() {
        let (plan, sig) = join_plan();
        let key = sig.canonical_key();
        let j: CatalogJournal = Journal::new();
        j.append(registered(&sig, &plan)).unwrap();
        j.append(CatalogRecord::PartitionTracked {
            view: key.clone(),
            attr: "a.k".into(),
            domain: Interval::new(0, 99),
        })
        .unwrap();
        j.append(CatalogRecord::BoundaryAdded {
            view: key.clone(),
            attr: "a.k".into(),
            point: 50,
        })
        .unwrap();
        j.append(CatalogRecord::FragmentTracked {
            view: key.clone(),
            attr: "a.k".into(),
            interval: Interval::new(0, 49),
            est_size: 500,
            hit: Some(1),
        })
        .unwrap();
        j.append(CatalogRecord::FragmentMaterialized {
            view: key.clone(),
            attr: "a.k".into(),
            interval: Interval::new(0, 49),
            file: FileId(3),
            size: 480,
            schema: None,
            nodes: vec![1, 2],
        })
        .unwrap();
        j.append(CatalogRecord::QueryCommitted { tnow: 1 }).unwrap();

        let (snap, records) = j.replay();
        let (reg, clock) = replay_catalog(snap.map(|(_, s)| s), &records);
        assert_eq!(clock, 1);
        let vid = reg.by_key(&key).expect("view replayed");
        let v = reg.view(vid);
        let uses = reg.ledger().uses(vid);
        assert_eq!(uses.events.len(), 1, "first-use event replayed");
        let ps = v.partitions.get("a.k").expect("partition replayed");
        assert_eq!(ps.boundaries, vec![50]);
        let f = ps.find(&Interval::new(0, 49)).expect("fragment replayed");
        assert_eq!(f.file, Some(FileId(3)));
        assert_eq!(f.size, 480);
        assert_eq!(reg.ledger().hits(vid, "a.k").of(f.id).raw_hits(), 1);
        assert_eq!(reg.pool_bytes(), 480);

        // Idempotent: replaying the same journal again yields identical state.
        let (snap2, records2) = j.replay();
        let (reg2, _) = replay_catalog(snap2.map(|(_, s)| s), &records2);
        assert_eq!(reg.state_digest(), reg2.state_digest());
    }

    #[test]
    fn replay_applies_evictions_and_quarantine() {
        let (plan, sig) = join_plan();
        let key = sig.canonical_key();
        let j: CatalogJournal = Journal::new();
        j.append(registered(&sig, &plan)).unwrap();
        j.append(CatalogRecord::ViewMaterialized {
            view: key.clone(),
            file: FileId(9),
            size: 1200,
            cost: 11.0,
            overhead: 3.0,
            schema: Schema::new(vec![]),
            nodes: Vec::new(),
        })
        .unwrap();
        j.append(CatalogRecord::ViewEvicted { view: key.clone() })
            .unwrap();
        j.append(CatalogRecord::ViewQuarantined {
            view: key.clone(),
            at: 7,
        })
        .unwrap();
        let (snap, records) = j.replay();
        let (reg, _) = replay_catalog(snap.map(|(_, s)| s), &records);
        let v = reg.view(reg.by_key(&key).unwrap());
        assert_eq!(v.whole_file, None);
        assert!(v.is_quarantined());
        assert_eq!(v.quarantined_at, Some(7));
        assert!(v.stats.measured, "measured stats survive quarantine");
        assert_eq!(v.stats.size, 1200);
        assert_eq!(reg.pool_bytes(), 0);
    }

    #[test]
    fn stats_checkpoint_overwrites_stats_but_not_structure() {
        let (plan, sig) = join_plan();
        let key = sig.canonical_key();
        let mut live = ViewRegistry::new();
        let vid = live.register(plan.clone(), sig.clone(), 1000, 10.0, 2.0);
        live.ledger_mut().uses_mut(vid).record_use(3, 40.0);
        live.ledger_mut().uses_mut(vid).record_use(4, 41.0);
        live.quarantine(vid, 5);
        let ckpt = stats_checkpoint(&live, 5);

        // Replay onto a registry that knows the view but has stale stats and
        // is *not* quarantined: the checkpoint must refresh statistics
        // without quarantining (structure is journaled by its own records).
        let j: CatalogJournal = Journal::new();
        j.append(registered(&sig, &plan)).unwrap();
        j.append(ckpt).unwrap();
        let (snap, records) = j.replay();
        let (reg, _) = replay_catalog(snap.map(|(_, s)| s), &records);
        let rid = reg.by_key(&key).unwrap();
        let v = reg.view(rid);
        assert_eq!(
            reg.ledger().uses(rid).events.len(),
            2,
            "checkpoint stats replayed"
        );
        assert!(!v.is_quarantined(), "checkpoint never touches quarantine");
    }

    #[test]
    fn snapshot_plus_suffix_replays_from_snapshot() {
        let (plan, sig) = join_plan();
        let key = sig.canonical_key();
        let mut reg = ViewRegistry::new();
        reg.register(plan.clone(), sig.clone(), 1000, 10.0, 2.0);
        let j: CatalogJournal = Journal::new();
        j.install_snapshot(CatalogSnapshot {
            registry: reg.clone(),
            clock: 3,
        });
        j.append(CatalogRecord::QueryCommitted { tnow: 4 }).unwrap();
        let (snap, records) = j.replay();
        assert_eq!(records.len(), 1);
        let (rec, clock) = replay_catalog(snap.map(|(_, s)| s), &records);
        assert_eq!(clock, 4);
        assert!(rec.by_key(&key).is_some());
    }

    #[test]
    fn torn_records_for_unknown_views_are_skipped() {
        let records = vec![
            (
                Lsn(0),
                CatalogRecord::ViewEvicted {
                    view: "nope".into(),
                },
            ),
            (
                Lsn(1),
                CatalogRecord::FragmentEvicted {
                    view: "nope".into(),
                    attr: "a".into(),
                    interval: Interval::new(0, 1),
                },
            ),
            (Lsn(2), CatalogRecord::QueryCommitted { tnow: 2 }),
        ];
        let (reg, clock) = replay_catalog(None, &records);
        assert!(reg.is_empty());
        assert_eq!(clock, 2);
    }

    /// Every record kind, applied in sequence to one small registry: what
    /// each reports it did — including the idempotent re-applies — and that
    /// the report is exactly the registry's change in pool bytes.
    #[test]
    fn applied_reports_what_each_record_kind_did() {
        let (plan, sig) = join_plan();
        let key = sig.canonical_key();
        let (left, right) = (Interval::new(0, 49), Interval::new(50, 99));
        let fragment =
            |interval: Interval, file: u64, size: u64| CatalogRecord::FragmentMaterialized {
                view: key.clone(),
                attr: "a.k".into(),
                interval,
                file: FileId(file),
                size,
                schema: None,
                nodes: Vec::new(),
            };
        let whole = |file: u64, size: u64| CatalogRecord::ViewMaterialized {
            view: key.clone(),
            file: FileId(file),
            size,
            cost: 11.0,
            overhead: 3.0,
            schema: Schema::new(vec![]),
            nodes: Vec::new(),
        };
        let evict_fragment = || CatalogRecord::FragmentEvicted {
            view: key.clone(),
            attr: "a.k".into(),
            interval: left,
        };
        let quarantine = |at| CatalogRecord::ViewQuarantined {
            view: key.clone(),
            at,
        };
        // (record, reserved, released, files unlinked)
        let table: Vec<(CatalogRecord, u64, u64, Vec<u64>)> = vec![
            (registered(&sig, &plan), 0, 0, vec![]),
            // Re-registering a live view is a no-op.
            (registered(&sig, &plan), 0, 0, vec![]),
            (
                CatalogRecord::PartitionTracked {
                    view: key.clone(),
                    attr: "a.k".into(),
                    domain: Interval::new(0, 99),
                },
                0,
                0,
                vec![],
            ),
            (
                CatalogRecord::BoundaryAdded {
                    view: key.clone(),
                    attr: "a.k".into(),
                    point: 50,
                },
                0,
                0,
                vec![],
            ),
            (
                CatalogRecord::FragmentTracked {
                    view: key.clone(),
                    attr: "a.k".into(),
                    interval: left,
                    est_size: 500,
                    hit: Some(1),
                },
                0,
                0,
                vec![],
            ),
            (fragment(left, 3, 480), 480, 0, vec![]),
            // Re-applied, it swaps the fragment's bytes for themselves.
            (fragment(left, 3, 480), 480, 480, vec![]),
            // Measured stats move no bytes while there is no whole file …
            (
                CatalogRecord::ViewStatsMeasured {
                    view: key.clone(),
                    size: 900,
                    cost: 9.0,
                    overhead: 2.0,
                    schema: Schema::new(vec![]),
                },
                0,
                0,
                vec![],
            ),
            (whole(9, 1200), 1200, 0, vec![]),
            // … and re-price the whole file when there is one.
            (
                CatalogRecord::ViewStatsMeasured {
                    view: key.clone(),
                    size: 1100,
                    cost: 9.0,
                    overhead: 2.0,
                    schema: Schema::new(vec![]),
                },
                1100,
                1200,
                vec![],
            ),
            (
                CatalogRecord::ViewEvicted { view: key.clone() },
                0,
                1100,
                vec![9],
            ),
            (
                CatalogRecord::ViewEvicted { view: key.clone() },
                0,
                0,
                vec![],
            ),
            (evict_fragment(), 0, 480, vec![3]),
            (evict_fragment(), 0, 0, vec![]),
            // An untracked interval is tracked by its materialization.
            (fragment(right, 4, 300), 300, 0, vec![]),
            (whole(10, 1000), 1000, 0, vec![]),
            (quarantine(7), 0, 1300, vec![10, 4]),
            (quarantine(8), 0, 0, vec![]),
            // Re-registering a quarantined view re-admits it.
            (registered(&sig, &plan), 0, 0, vec![]),
            (
                CatalogRecord::StatsCheckpoint {
                    at: 9,
                    views: Vec::new(),
                },
                0,
                0,
                vec![],
            ),
            (CatalogRecord::QueryCommitted { tnow: 9 }, 0, 0, vec![]),
        ];
        let kinds: std::collections::HashSet<_> = table
            .iter()
            .map(|(r, ..)| std::mem::discriminant(r))
            .collect();
        assert_eq!(kinds.len(), 12, "the table covers every record kind");

        let mut reg = ViewRegistry::new();
        let mut clock = 0;
        for (step, (record, reserved, released, files)) in table.into_iter().enumerate() {
            let before = reg.pool_bytes();
            let was_quarantined = reg
                .by_key(&key)
                .is_some_and(|v| reg.view(v).is_quarantined());
            let applied = apply_record(&mut reg, &mut clock, &record);
            let expected = Applied {
                applied: true,
                reserved,
                released,
                files: files.into_iter().map(FileId).collect(),
            };
            assert_eq!(applied, expected, "step {step}: {record:?}");
            assert_eq!(
                reg.pool_bytes(),
                before + reserved - released,
                "step {step}: the report is the change in pool bytes"
            );
            if matches!(record, CatalogRecord::ViewRegistered { .. }) {
                let vid = reg.by_key(&key).expect("registered");
                assert!(
                    !reg.view(vid).is_quarantined(),
                    "step {step}: registered or re-admitted"
                );
                assert_eq!(
                    reg.ledger().uses(vid).events.len(),
                    1,
                    "step {step}: first use recorded once"
                );
                assert_eq!(reg.lookup_bucket(&sig).len(), 1, "step {step}: matchable");
            } else {
                let v = reg.view(reg.by_key(&key).expect("registered"));
                let quarantines = matches!(record, CatalogRecord::ViewQuarantined { .. });
                assert_eq!(v.is_quarantined(), was_quarantined || quarantines);
            }
        }
        assert_eq!(clock, 9);
        let v = reg.view(reg.by_key(&key).expect("registered"));
        assert_eq!(v.quarantined_at, None);
        assert_eq!(v.partitions["a.k"].fragments().len(), 2);
    }

    /// A record naming an entry the registry does not know reports
    /// `applied: false` and changes nothing, whatever its kind.
    #[test]
    fn a_record_naming_an_unknown_entry_is_not_applied() {
        let (plan, sig) = join_plan();
        let key = sig.canonical_key();
        let mut reg = ViewRegistry::new();
        let mut clock = 0;
        apply_record(&mut reg, &mut clock, &registered(&sig, &plan));
        apply_record(
            &mut reg,
            &mut clock,
            &CatalogRecord::PartitionTracked {
                view: key.clone(),
                attr: "a.k".into(),
                domain: Interval::new(0, 99),
            },
        );
        let digest = reg.state_digest();
        let iv = Interval::new(0, 49);
        let schema = Schema::new(vec![]);
        let mut unknown = Vec::new();
        for (view, attr) in [("nope", "a.k"), (key.as_str(), "a.v")] {
            let (view, attr) = (view.to_string(), attr.to_string());
            unknown.extend([
                CatalogRecord::BoundaryAdded {
                    view: view.clone(),
                    attr: attr.clone(),
                    point: 5,
                },
                CatalogRecord::FragmentTracked {
                    view: view.clone(),
                    attr: attr.clone(),
                    interval: iv,
                    est_size: 1,
                    hit: None,
                },
                CatalogRecord::FragmentMaterialized {
                    view: view.clone(),
                    attr: attr.clone(),
                    interval: iv,
                    file: FileId(1),
                    size: 1,
                    schema: Some(schema.clone()),
                    nodes: Vec::new(),
                },
                CatalogRecord::FragmentEvicted {
                    view,
                    attr,
                    interval: iv,
                },
            ]);
        }
        let nope = || "nope".to_string();
        unknown.extend([
            // Known view and partition, unknown fragment.
            CatalogRecord::FragmentEvicted {
                view: key.clone(),
                attr: "a.k".into(),
                interval: iv,
            },
            CatalogRecord::PartitionTracked {
                view: nope(),
                attr: "a.k".into(),
                domain: iv,
            },
            CatalogRecord::ViewMaterialized {
                view: nope(),
                file: FileId(1),
                size: 1,
                cost: 1.0,
                overhead: 1.0,
                schema: schema.clone(),
                nodes: Vec::new(),
            },
            CatalogRecord::ViewStatsMeasured {
                view: nope(),
                size: 1,
                cost: 1.0,
                overhead: 1.0,
                schema,
            },
            CatalogRecord::ViewEvicted { view: nope() },
            CatalogRecord::ViewQuarantined {
                view: nope(),
                at: 1,
            },
        ]);
        for record in &unknown {
            let applied = apply_record(&mut reg, &mut clock, record);
            assert_eq!(applied, Applied::default(), "{record:?}");
            assert_eq!(
                reg.state_digest(),
                digest,
                "{record:?} changed the registry"
            );
        }
    }

    /// Seeded random record sequences over 2 views × 1 attribute × 4
    /// intervals, checked after every record against a reference map from
    /// each stored piece (a whole view, or one fragment) to its bytes: the
    /// `Applied` ledger and the registry's pool bytes both equal the
    /// reference total, and a record naming an unknown entry changes nothing.
    #[test]
    fn apply_record_keeps_the_ledger_of_a_reference_model() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use std::collections::{BTreeMap, BTreeSet};

        let views: Vec<(LogicalPlan, Signature)> = ["b", "c"]
            .into_iter()
            .map(|t| {
                let plan = LogicalPlan::scan("a").join(
                    LogicalPlan::scan(t),
                    vec![("a.k", format!("{t}.k").as_str())],
                );
                let sig = Signature::of(&plan).unwrap();
                (plan, sig)
            })
            .collect();
        let keys: Vec<String> = views.iter().map(|(_, s)| s.canonical_key()).collect();
        let intervals: Vec<Interval> = (0..4).map(|k| Interval::new(25 * k, 25 * k + 24)).collect();
        let attr = || "a.k".to_string();

        let mut rng = StdRng::seed_from_u64(11);
        let mut next_file = 0;
        for sequence in 0..50 {
            let (mut reg, mut clock) = (ViewRegistry::new(), 0);
            let (mut reserved, mut released) = (0u64, 0u64);
            // The reference: what is registered, tracked and stored.
            let mut known = [false; 2];
            let mut partitioned = [false; 2];
            let mut tracked: BTreeSet<(usize, usize)> = BTreeSet::new();
            let mut stored: BTreeMap<(usize, Option<usize>), u64> = BTreeMap::new();
            for step in 0..60 {
                let v = rng.random_range(0..2usize);
                let k = rng.random_range(0..4usize);
                let size = rng.random_range(1..1000u64);
                next_file += 1;
                let (view, interval, file) = (keys[v].clone(), intervals[k], FileId(next_file));
                let (record, applies) = match rng.random_range(0..8) {
                    0 => {
                        known[v] = true;
                        (registered(&views[v].1, &views[v].0), true)
                    }
                    1 => {
                        partitioned[v] |= known[v];
                        let record = CatalogRecord::PartitionTracked {
                            view,
                            attr: attr(),
                            domain: Interval::new(0, 99),
                        };
                        (record, known[v])
                    }
                    2 => {
                        if partitioned[v] {
                            tracked.insert((v, k));
                        }
                        let record = CatalogRecord::FragmentTracked {
                            view,
                            attr: attr(),
                            interval,
                            est_size: size,
                            hit: None,
                        };
                        (record, partitioned[v])
                    }
                    3 => {
                        if known[v] {
                            stored.insert((v, None), size);
                        }
                        let record = CatalogRecord::ViewMaterialized {
                            view,
                            file,
                            size,
                            cost: 1.0,
                            overhead: 1.0,
                            schema: Schema::new(vec![]),
                            nodes: vec![],
                        };
                        (record, known[v])
                    }
                    4 => {
                        if partitioned[v] {
                            tracked.insert((v, k));
                            stored.insert((v, Some(k)), size);
                        }
                        let record = CatalogRecord::FragmentMaterialized {
                            view,
                            attr: attr(),
                            interval,
                            file,
                            size,
                            schema: None,
                            nodes: vec![],
                        };
                        (record, partitioned[v])
                    }
                    5 => {
                        stored.remove(&(v, None));
                        (CatalogRecord::ViewEvicted { view }, known[v])
                    }
                    6 => {
                        stored.remove(&(v, Some(k)));
                        let record = CatalogRecord::FragmentEvicted {
                            view,
                            attr: attr(),
                            interval,
                        };
                        (record, tracked.contains(&(v, k)))
                    }
                    _ => {
                        stored.retain(|&(w, _), _| w != v);
                        (CatalogRecord::ViewQuarantined { view, at: step }, known[v])
                    }
                };
                let digest = reg.state_digest();
                let applied = apply_record(&mut reg, &mut clock, &record);
                let at = format!("sequence {sequence} step {step}: {record:?}");
                assert_eq!(applied.applied, applies, "{at}");
                if !applies {
                    assert_eq!(applied, Applied::default(), "{at}");
                    assert_eq!(reg.state_digest(), digest, "{at} changed the registry");
                }
                reserved += applied.reserved;
                released += applied.released;
                let total: u64 = stored.values().sum();
                assert_eq!(reserved - released, total, "{at}: the Applied ledger");
                assert_eq!(reg.pool_bytes(), total, "{at}: the registry's pool bytes");
            }
        }
    }

    #[test]
    fn journal_faults_do_not_lose_forced_records() {
        let j: CatalogJournal = Journal::with_faults(FaultInjector::new(
            FaultConfig::seeded(5).with_transient_writes(1.0),
        ));
        assert!(j.append(CatalogRecord::QueryCommitted { tnow: 1 }).is_err());
        j.append_infallible(CatalogRecord::QueryCommitted { tnow: 1 });
        let (_, records) = j.replay();
        assert_eq!(records.len(), 1);
    }
}
