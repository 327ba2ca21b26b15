//! Copy-on-write snapshots: a published [`ReadSnapshot`] shares the live
//! registry's views, partitions and fragments instead of copying them, and
//! carries none of the writer's statistics, so these tests pin the three
//! parts of that contract —
//!
//! - **isolation**: nothing a later commit does (materialization, eviction,
//!   quarantine) is visible through an older snapshot;
//! - **no statistics**: a snapshot is the writer's structure, with an empty
//!   statistics ledger, while the writer's own hits keep growing;
//! - **sharing**: a registry node is copied exactly when a structural
//!   record of the commit in between touched it — recording statistics
//!   copies nothing;
//! - **no writes**: a read answered from a snapshot creates, deletes and
//!   writes no file.

use std::collections::BTreeSet;
use std::sync::Arc;

use deepsea::bench::golden::{golden_catalog, golden_plans, golden_variants};
use deepsea::core::filter_tree::ViewId;
use deepsea::core::{baselines, CatalogJournal, CatalogRecord, DeepSea, Interval, ReadSnapshot};
use deepsea::engine::{Catalog, ClusterSim, LogicalPlan};
use deepsea::relation::Table;
use deepsea::storage::{
    BlockConfig, FaultInjector, HedgeConfig, NodeConfig, NodeId, NodeSet, SimFs,
};
use deepsea::workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea::workload::sdss::sdss_like_histogram;
use deepsea::workload::sequences::{fig5_workload, item_domain};
use deepsea::workload::TemplateId;

fn data() -> Arc<Catalog> {
    let (lo, hi) = item_domain();
    let dist = ItemDistribution::Histogram(sdss_like_histogram(lo, hi));
    Arc::new(BigBenchData::generate(InstanceSize::Gb100, &dist, 1).catalog)
}

fn driver(catalog: &Arc<Catalog>, smax: Option<u64>) -> DeepSea {
    let cluster = ClusterSim::paper_default();
    let fs = Arc::new(SimFs::new(BlockConfig::default(), cluster.weights));
    // Were a journal attached, it would keep every record.
    let mut config = baselines::deepsea()
        .with_phi(0.05)
        .with_journal_cadence(u64::MAX, u64::MAX);
    config.smax = smax;
    DeepSea::with_parts(Arc::clone(catalog), fs, cluster, config)
}

fn publish(ds: &DeepSea) -> ReadSnapshot {
    ds.publish_snapshot()
        .expect("the simulated backend forks readers")
}

/// A snapshot taken at epoch `e` keeps reporting the epoch-`e` catalog and
/// keeps answering from it, bit for bit, while the writer goes on to record
/// hits on the very fragments the snapshot reads, materialize, evict and
/// quarantine. Neither it nor any later snapshot holds a statistic.
#[test]
fn a_snapshot_is_isolated_from_fifty_later_commits() {
    let catalog = data();
    let mut ds = driver(&catalog, Some(catalog.total_base_bytes() / 8));
    // One range of web_clickstreams ⋈ item stays hot throughout; the churn
    // happens on store_sales ⋈ item, whose ranges keep moving. The probe is
    // a sub-range nobody commits, so it is answered from the hot fragments.
    let hot = TemplateId::Q5.instantiate(20_000, 21_000);
    let probe = TemplateId::Q5.instantiate(20_200, 20_800);
    let churn = |i: i64| TemplateId::Q30.instantiate(1_000 + 700 * i, 1_600 + 700 * i);
    for i in 0..12 {
        ds.process_query(&hot).unwrap();
        ds.process_query(&churn(i)).unwrap();
    }

    let snapshot = publish(&ds);
    let epoch = snapshot.epoch();
    let digest = snapshot.registry().state_digest();
    assert_eq!(digest, ds.registry().structure().state_digest());
    assert!(
        snapshot.registry().ledger().is_empty(),
        "a snapshot exposes no statistics"
    );
    let before = snapshot.answer(&probe).unwrap();
    let probed = before
        .used_view
        .as_deref()
        .and_then(|name| ds.registry().by_name(name))
        .expect("the probe reads a view");
    assert!(
        ds.registry()
            .view(probed)
            .partitions
            .values()
            .any(|ps| ps.any_materialized()),
        "the probe reads fragments"
    );
    let hits_before = fragment_hits(&ds, probed);

    let (mut materialized, mut evicted, mut quarantined) = (0, 0, 0);
    for i in 0..50i64 {
        if i == 40 {
            // Lose the files of the churning view: its next reader
            // quarantines it.
            let lost: Vec<_> = ds
                .registry()
                .iter()
                .filter(|v| v.id != probed)
                .flat_map(|v| {
                    let fragments = v.partitions.values().flat_map(|ps| ps.fragments().iter());
                    v.whole_file
                        .into_iter()
                        .chain(fragments.filter_map(|f| f.file))
                })
                .collect();
            assert!(!lost.is_empty(), "the churning view holds files");
            for file in lost {
                ds.fs().delete(file);
            }
        }
        let plan = match i {
            _ if i % 2 == 0 => hot.clone(),
            // Read the fragments query 39 created, now that they are gone.
            41 => churn(12 + 39 / 2),
            _ => churn(12 + i / 2),
        };
        let out = ds.process_query(&plan).unwrap();
        materialized += out.materialized.len();
        evicted += out.evicted.len();
        quarantined += out.quarantined.len();
    }
    assert!(materialized > 0, "nothing was materialized");
    assert!(evicted > 0, "nothing was evicted");
    assert!(quarantined > 0, "nothing was quarantined");
    assert_ne!(ds.registry().state_digest(), digest, "the writer moved on");
    assert!(
        fragment_hits(&ds, probed) > hits_before,
        "the writer's hits on the probed fragments did not grow"
    );
    assert!(snapshot.registry().ledger().is_empty());
    assert!(publish(&ds).registry().ledger().is_empty());

    assert_eq!(snapshot.epoch(), epoch);
    assert_eq!(snapshot.registry().state_digest(), digest);
    let after = snapshot.answer(&probe).unwrap();
    assert_eq!(after.result.fingerprint(), before.result.fingerprint());
    assert_eq!(after.query_secs.to_bits(), before.query_secs.to_bits());
    assert_eq!(after.used_view, before.used_view);
}

/// Hits the writer holds on the fragments of `view`.
fn fragment_hits(ds: &DeepSea, view: ViewId) -> usize {
    let registry = ds.registry();
    let partitions = registry.view(view).partitions.values();
    partitions
        .flat_map(|ps| {
            let hits = registry.ledger().hits(view, &ps.attr);
            ps.fragments().iter().map(move |f| hits.of(f.id).raw_hits())
        })
        .sum()
}

/// The registry nodes a commit's structural records touch, by view key.
#[derive(Default)]
struct Touched {
    views: BTreeSet<String>,
    partitions: BTreeSet<(String, String)>,
    fragments: BTreeSet<(String, String, Interval)>,
    /// Views quarantined: every materialized fragment of theirs is touched.
    quarantined: BTreeSet<String>,
}

impl Touched {
    fn of(records: &[CatalogRecord]) -> Self {
        let mut touched = Touched::default();
        for record in records {
            let (view, attr, interval) = match record {
                CatalogRecord::ViewRegistered { sig, .. } => (sig.canonical_key(), None, None),
                CatalogRecord::PartitionTracked { view, .. }
                | CatalogRecord::ViewMaterialized { view, .. }
                | CatalogRecord::ViewStatsMeasured { view, .. }
                | CatalogRecord::ViewEvicted { view } => (view.clone(), None, None),
                CatalogRecord::ViewQuarantined { view, .. } => {
                    touched.quarantined.insert(view.clone());
                    (view.clone(), None, None)
                }
                CatalogRecord::BoundaryAdded { view, attr, .. }
                | CatalogRecord::FragmentTracked { view, attr, .. } => {
                    (view.clone(), Some(attr), None)
                }
                CatalogRecord::FragmentMaterialized {
                    view,
                    attr,
                    interval,
                    ..
                }
                | CatalogRecord::FragmentEvicted {
                    view,
                    attr,
                    interval,
                } => (view.clone(), Some(attr), Some(*interval)),
                CatalogRecord::StatsCheckpoint { .. } | CatalogRecord::QueryCommitted { .. } => {
                    continue
                }
            };
            if let Some(attr) = attr {
                touched.partitions.insert((view.clone(), attr.clone()));
                if let Some(interval) = interval {
                    touched
                        .fragments
                        .insert((view.clone(), attr.clone(), interval));
                }
            }
            touched.views.insert(view);
        }
        touched
    }

    fn is_empty(&self) -> bool {
        self.views.is_empty()
    }
}

/// Across two consecutive publishes, a view, partition or fragment is the
/// same allocation unless a structural record of the commit in between
/// touched it, and a copy otherwise. Stage 2's hits, recorded by every
/// commit, copy nothing: a commit that records statistics and no structure
/// shares every node.
#[test]
fn consecutive_snapshots_share_what_the_commit_did_not_touch() {
    let catalog = data();
    let journal = Arc::new(CatalogJournal::new());
    let mut ds = driver(&catalog, None).with_journal(Arc::clone(&journal));
    let plans: Vec<LogicalPlan> = fig5_workload(600, 42).into_iter().take(120).collect();
    let mut prev = publish(&ds);
    let mut journaled = 0;
    let (mut shared, mut copied, mut stats_only) = (0usize, 0usize, 0usize);
    for plan in &plans {
        let tnow = ds.clock() + 1;
        let out = ds.process_query(plan).unwrap();
        let next = publish(&ds);
        assert!(
            next.registry().ledger().is_empty(),
            "a snapshot exposes no statistics"
        );
        let (_, records) = journal.replay();
        let records: Vec<CatalogRecord> = records[journaled..]
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        journaled += records.len();
        let touched = Touched::of(&records);
        if touched.is_empty() && out.trace.matching.views_updated > 0 {
            stats_only += 1;
        }
        // Views, partitions and fragments are only ever added, so every node
        // of the older snapshot has its successor at the same place.
        for (v_old, v_new) in prev.registry().iter().zip(next.registry().iter()) {
            let key = v_old.key.to_string();
            let quarantined = touched.quarantined.contains(&key);
            for (attr, ps_old) in &v_old.partitions {
                let ps_new = &v_new.partitions[attr];
                let released = quarantined && ps_old.any_materialized();
                let partition_touched =
                    released || touched.partitions.contains(&(key.clone(), attr.clone()));
                for (f_old, f_new) in ps_old.fragments().iter().zip(ps_new.fragments()) {
                    let frag = (key.clone(), attr.clone(), f_old.interval);
                    let touched =
                        touched.fragments.contains(&frag) || (released && f_old.is_materialized());
                    assert_eq!(
                        Arc::ptr_eq(f_old, f_new),
                        !touched,
                        "{}.{attr}{} at commit {tnow}",
                        v_new.name,
                        f_new.interval
                    );
                    shared += usize::from(!touched);
                    copied += usize::from(touched);
                }
                assert_eq!(
                    Arc::ptr_eq(ps_old, ps_new),
                    !partition_touched,
                    "{}.{attr} at commit {tnow}",
                    v_new.name
                );
                shared += usize::from(!partition_touched);
            }
            let view_touched = touched.views.contains(&key);
            assert_eq!(
                std::ptr::eq(v_old, v_new),
                !view_touched,
                "{} at commit {tnow}",
                v_new.name
            );
            shared += usize::from(!view_touched);
            // The immutable parts of a view are shared even when it is copied.
            assert!(Arc::ptr_eq(&v_old.plan, &v_new.plan));
            assert!(Arc::ptr_eq(&v_old.sig, &v_new.sig));
            assert!(Arc::ptr_eq(&v_old.key, &v_new.key));
            assert!(Arc::ptr_eq(&v_old.name, &v_new.name));
        }
        prev = next;
    }
    assert!(copied > 0, "no commit materialized a fragment");
    assert!(stats_only > 0, "no commit recorded statistics alone");
    assert!(
        shared > 10 * copied,
        "sharing is the rule: {shared} nodes shared, {copied} fragments copied"
    );
}

/// Types keep a snapshot from mutating the registry, catalog or pool (see
/// [`ReadSnapshot`]), but not the file system: every `SimFs` mutator takes
/// `&self`. So replay the golden 50-query workload on a fault-free file
/// system, answer each query from a snapshot held across its commit, and
/// check the read changes neither the file set nor the bytes and files the
/// ledger counts as written or deleted.
#[test]
fn a_snapshot_read_writes_nothing_to_the_file_system() {
    reads_write_nothing(|| SimFs::new(BlockConfig::default(), ClusterSim::paper_default().weights));
}

/// The same on the routing paths a read takes on a cluster: four replicated
/// nodes with hedged reads, one node slow and, from query 25, one down.
#[test]
fn a_snapshot_read_on_a_degraded_cluster_writes_nothing() {
    reads_write_nothing(|| {
        let fs = SimFs::with_cluster(
            BlockConfig::default(),
            ClusterSim::paper_default().weights,
            FaultInjector::disabled(),
            NodeSet::new(NodeConfig::new(4, 2)),
        );
        fs.set_hedge(Some(HedgeConfig::after_secs(0.01)));
        fs.set_node_slow(NodeId(0), 8.0);
        fs
    });
}

/// Replay the golden workload under each golden variant on a fresh file
/// system from `make` (node 1 goes down before query 25, a no-op without a
/// cluster) and check every snapshot read leaves the files and the write
/// ledger as they were.
fn reads_write_nothing(make: impl Fn() -> SimFs<Table>) {
    let catalog = golden_catalog();
    let plans = golden_plans();
    let written = |fs: &SimFs<Table>| {
        let l = fs.ledger();
        (l.write_bytes, l.files_written, l.files_deleted)
    };
    for (label, config) in golden_variants(&catalog) {
        let fs = Arc::new(make());
        let cluster = ClusterSim::paper_default();
        let mut ds = DeepSea::with_parts(Arc::clone(&catalog), Arc::clone(&fs), cluster, config);
        for (i, plan) in plans.iter().enumerate() {
            if i == 25 {
                fs.set_node_down(NodeId(1));
            }
            let snapshot = publish(&ds);
            let (files, before) = (fs.file_ids(), written(&fs));
            snapshot.answer(plan).expect("a fault-free read answers");
            assert_eq!(
                fs.file_ids(),
                files,
                "{label} query {i}: the read changed the files"
            );
            assert_eq!(written(&fs), before, "{label} query {i}: the read wrote");
            ds.process_query(plan)
                .expect("a fault-free commit succeeds");
        }
        if label != "NP" {
            assert!(written(&fs).1 > 0, "{label}: no commit wrote a file");
        }
    }
}
