//! Copy-on-write snapshots: a published [`ReadSnapshot`] shares the live
//! registry's views, partitions and fragments instead of copying them, so
//! these tests pin the two halves of that contract —
//!
//! - **isolation**: nothing a later commit does (hits, materialization,
//!   eviction, merging, quarantine) is visible through an older snapshot;
//! - **sharing**: what a commit did not touch is the *same allocation* in
//!   consecutive snapshots, and what it touched is not.

use std::sync::Arc;

use deepsea::core::filter_tree::ViewId;
use deepsea::core::{baselines, DeepSea, ReadSnapshot};
use deepsea::engine::{Catalog, ClusterSim, LogicalPlan};
use deepsea::storage::{BlockConfig, SimFs};
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
    let mut config = baselines::deepsea().with_phi(0.05);
    config.smax = smax;
    DeepSea::with_parts(Arc::clone(catalog), fs, cluster, config)
}

fn publish(ds: &DeepSea) -> ReadSnapshot {
    ds.publish_snapshot()
        .expect("the simulated backend forks readers")
}

/// A snapshot taken at epoch `e` keeps reporting the epoch-`e` catalog and
/// keeps answering from it, bit for bit, while the writer goes on to record
/// hits on the very fragments the snapshot reads, materialize, evict, merge
/// and quarantine.
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
    // Merge what is mergeable now, so the later merge pass has no reason to
    // rewrite a file the probe reads.
    ds.merge_cohit_fragments(1.0, 1.0).unwrap();

    let snapshot = publish(&ds);
    let epoch = snapshot.epoch();
    let digest = snapshot.registry().state_digest();
    assert_eq!(digest, ds.registry().state_digest());
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
    let hits_before = fragment_hits(&snapshot, probed);

    let (mut materialized, mut evicted, mut merged, mut quarantined) = (0, 0, 0, 0);
    for i in 0..50i64 {
        if i == 30 {
            merged += ds.merge_cohit_fragments(1.0, 1.0).unwrap().1.len();
        }
        if i == 40 {
            // Lose the files of the churning view: its next reader
            // quarantines it.
            let lost: Vec<_> = ds
                .registry()
                .iter()
                .filter(|v| v.id != probed)
                .flat_map(|v| {
                    let fragments = v.partitions.values().flat_map(|ps| ps.fragments.iter());
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
    assert!(merged > 0, "nothing was merged");
    assert!(quarantined > 0, "nothing was quarantined");
    assert_ne!(ds.registry().state_digest(), digest, "the writer moved on");
    assert!(
        fragment_hits(&publish(&ds), probed) > hits_before,
        "the probed fragments took no hit"
    );
    assert_eq!(fragment_hits(&snapshot, probed), hits_before);

    assert_eq!(snapshot.epoch(), epoch);
    assert_eq!(snapshot.registry().state_digest(), digest);
    let after = snapshot.answer(&probe).unwrap();
    assert_eq!(after.result.fingerprint(), before.result.fingerprint());
    assert_eq!(after.query_secs.to_bits(), before.query_secs.to_bits());
    assert_eq!(after.used_view, before.used_view);
}

/// Hits recorded on the fragments of `view`, as `snapshot` sees them.
fn fragment_hits(snapshot: &ReadSnapshot, view: ViewId) -> usize {
    let partitions = snapshot.registry().view(view).partitions.values();
    partitions
        .flat_map(|ps| ps.fragments.iter())
        .map(|f| f.stats.raw_hits())
        .sum()
}

/// Across two consecutive publishes, the nodes the commit in between left
/// alone are shared, and the path to every fragment it hit is copied.
#[test]
fn consecutive_snapshots_share_what_the_commit_did_not_touch() {
    let catalog = data();
    let mut ds = driver(&catalog, None);
    let plans: Vec<LogicalPlan> = fig5_workload(600, 42).into_iter().take(120).collect();
    let mut prev = publish(&ds);
    let (mut shared, mut copied) = (0usize, 0usize);
    for plan in &plans {
        let tnow = ds.clock() + 1;
        ds.process_query(plan).unwrap();
        let next = publish(&ds);
        // Views, partitions and fragments are only ever added, so every node
        // of the older snapshot has its successor at the same place.
        for (v_old, v_new) in prev.registry().iter().zip(next.registry().iter()) {
            let mut view_touched = v_old.stats != v_new.stats
                || v_old.whole_file != v_new.whole_file
                || v_old.partitions.len() != v_new.partitions.len();
            for (attr, ps_old) in &v_old.partitions {
                let ps_new = &v_new.partitions[attr];
                let mut partition_touched = ps_old.fragments.len() != ps_new.fragments.len()
                    || ps_old.boundaries != ps_new.boundaries;
                for (f_old, f_new) in ps_old.fragments.iter().zip(&ps_new.fragments) {
                    let touched = f_old.stats != f_new.stats
                        || f_old.file != f_new.file
                        || f_old.size != f_new.size;
                    assert_eq!(
                        Arc::ptr_eq(f_old, f_new),
                        !touched,
                        "{}.{attr}{} at commit {tnow}",
                        v_new.name,
                        f_new.interval
                    );
                    // The older snapshot never sees this commit's hit.
                    assert_ne!(f_old.stats.last_hit(), Some(tnow));
                    partition_touched |= touched;
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
                view_touched |= partition_touched;
            }
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
    assert!(copied > 0, "no commit recorded a hit");
    assert!(
        shared > 10 * copied,
        "sharing is the rule: {shared} nodes shared, {copied} fragments copied"
    );
}
