//! Node-chaos suite: replay the golden workload on a simulated sharded
//! cluster under whole-node failure schedules and assert the serving stack
//! survives node loss.
//!
//! The invariants, in decreasing strength:
//!
//! - **Replication ≥ 2 + any single-node schedule** ⇒ failover to the
//!   surviving replica is metadata-only, so the run is bit-identical to the
//!   zero-fault run on the same topology: fingerprints, per-query elapsed
//!   bits, and the final registry digest.
//! - **Replication 1** ⇒ blocked fragments are patched from base tables at
//!   fragment granularity; query outputs stay bit-identical, the pool
//!   invariant holds three ways after every query, and fragments
//!   quarantined by an outage are re-admitted once the node returns.
//! - **Seeded injector stream** ⇒ node faults drawn from the same
//!   deterministic fault stream as I/O faults never change an answer.
//!
//! Every run goes through the shared fault world (`golden::FaultPlan`),
//! whose oracle checks answers and the pool after every query. Schedules
//! are generated from `NODE_FAULT_SEEDS` (comma-separated, default `5,9`),
//! so CI can sweep without a rebuild:
//! `NODE_FAULT_SEEDS=5,9 cargo test -q --test node_chaos`.

use deepsea::bench::golden::{fault_free, seeds_from_env, FaultPlan, Run, GOLDEN_QUERIES, NODES};
use deepsea::core::{NodeAction, ObsConfig, Observer};
use deepsea::storage::FaultConfig;

fn node_fault_seeds() -> Vec<u64> {
    seeds_from_env("NODE_FAULT_SEEDS", "5,9")
}

/// Fragment-level outage patches plus whole-query base fallbacks.
fn degraded(run: &Run) -> u64 {
    run.trace.recovery.fragment_fallbacks + run.trace.recovery.base_table_fallbacks
}

/// The headline invariant: at replication 2, any single-node failure
/// schedule is invisible — failover to the surviving replica is
/// metadata-only, so fingerprints, per-query elapsed bits, and the final
/// registry digest are bit-identical to the zero-fault run on the same
/// topology, with zero degraded activity.
#[test]
fn replicated_run_is_bit_identical_under_single_node_failures() {
    let golden = fault_free(Some((NODES, 2)));
    for seed in node_fault_seeds() {
        let plan = FaultPlan::single_node_schedule(seed, 2);
        assert!(!plan.nodes.is_empty(), "seed {seed}: empty schedule");
        let run = plan.run(GOLDEN_QUERIES);
        assert_eq!(
            run.fingerprints, golden.fingerprints,
            "seed {seed}: answers diverged under node failures"
        );
        assert_eq!(
            run.elapsed_bits, golden.elapsed_bits,
            "seed {seed}: failover must be free at replication 2"
        );
        assert_eq!(
            run.state_digest, golden.state_digest,
            "seed {seed}: committed state diverged under node failures"
        );
        assert_eq!(degraded(&run), 0, "seed {seed}: replica failover degraded");
        assert_eq!(run.offline_at_end, 0, "seed {seed}: fragments left offline");
    }
}

/// At replication 1 an outage actually blocks fragments: the read path
/// patches them from base tables at fragment granularity, so answers stay
/// bit-identical while the trace records the degradation; once the schedule
/// returns every node, no fragment stays quarantined.
#[test]
fn unreplicated_run_degrades_gracefully_and_readmits() {
    let golden = fault_free(Some((NODES, 1)));
    let mut total_degraded = 0u64;
    for seed in node_fault_seeds() {
        let run = FaultPlan::single_node_schedule(seed, 1).run(GOLDEN_QUERIES);
        assert_eq!(
            run.fingerprints, golden.fingerprints,
            "seed {seed}: degraded routing changed an answer"
        );
        assert_eq!(
            run.offline_at_end, 0,
            "seed {seed}: fragments stayed quarantined after every node returned"
        );
        total_degraded += degraded(&run);
    }
    assert!(
        total_degraded > 0,
        "no schedule ever exercised degraded-mode routing"
    );
}

/// Fingerprints are topology-independent: the zero-fault sharded runs (both
/// replication factors) agree with each other query by query. The registry
/// digests are *not* compared — the registry honestly records measured
/// creation overhead, and replication surplus is priced into it by design.
#[test]
fn sharding_is_transparent_without_faults() {
    let r1 = fault_free(Some((NODES, 1)));
    let r2 = fault_free(Some((NODES, 2)));
    assert_eq!(r1.fingerprints, r2.fingerprints);
    assert_eq!(degraded(r1), 0);
    assert_eq!(degraded(r2), 0);
}

/// Replication I/O is charged: at replication 2 every placed file writes a
/// replica surplus through the same cost weights, so materialization bytes
/// exactly double relative to replication 1.
#[test]
fn replication_surplus_is_charged_through_cost_weights() {
    let r1 = fault_free(Some((NODES, 1)))
        .trace
        .materialization
        .bytes_written;
    let r2 = fault_free(Some((NODES, 2)))
        .trace
        .materialization
        .bytes_written;
    assert!(r1 > 0);
    assert_eq!(
        r2,
        2 * r1,
        "replication 2 must charge exactly one replica surplus per write"
    );
}

/// Node faults drawn from the seeded injector stream (the same stream as
/// I/O faults) never change an answer, and every fragment the outages
/// quarantined is re-admitted once repairs bring the nodes back: at the end
/// of the run the re-admission counter matches the outage counter exactly.
#[test]
fn injected_node_faults_preserve_answers_and_readmit() {
    let golden = fault_free(Some((NODES, 1)));
    let mut saw_downs = false;
    for seed in node_fault_seeds() {
        let obs = Observer::new(ObsConfig::on());
        let mut world = FaultPlan {
            faults: FaultConfig::seeded(seed).with_node_downs(0.04, 2),
            ..FaultPlan::sharded(1)
        }
        .build();
        world.ds = world.ds.with_observer(obs.clone());
        let run = world.replay(0..GOLDEN_QUERIES);
        assert_eq!(
            run.fingerprints, golden.fingerprints,
            "seed {seed}: injected node faults changed an answer"
        );
        saw_downs |= run.faults.node_downs > 0;
        let snap = obs.metrics_snapshot();
        let outages = snap.counter("deepsea_fragment_outages_total", None);
        let readmissions = snap.counter("deepsea_fragment_readmissions_total", None);
        assert_eq!(
            readmissions, outages,
            "seed {seed}: re-admissions must match outages"
        );
    }
    assert!(saw_downs, "no seed ever downed a node via the injector");
}

/// Placement is durable: journal records carry each file's datanode
/// placement, so a cold restart (`DeepSea::recover`) restores the cluster
/// map and the recovered driver behaves identically under a subsequent
/// outage — failover at replication 2 stays free.
#[test]
fn recovery_restores_placement_and_failover_still_works() {
    let half = GOLDEN_QUERIES / 2;
    let mut world = FaultPlan {
        journal: true,
        ..FaultPlan::sharded(2)
    }
    .build();
    world.replay(0..half);
    let digest_before = world.ds.registry().state_digest();
    // Every placed file must carry a full placement at the base factor.
    let cluster = world.fs.cluster().expect("sharded fs has a cluster");
    for f in world.fs.file_ids() {
        let placement = cluster
            .placement(f)
            .unwrap_or_else(|| panic!("file {f:?} has no placement"));
        assert_eq!(placement.len(), 2, "file {f:?} placed at wrong factor");
    }

    // The in-memory driver dies; the file system and the journal survive.
    let (recovered, fsck) = world.recover();
    world.ds = recovered;
    assert_eq!(
        world.ds.registry().state_digest(),
        digest_before,
        "recovery changed the registry"
    );
    assert_eq!(
        (
            fsck.missing_files,
            fsck.corrupt_files,
            fsck.quarantined_views
        ),
        (0, 0, 0),
        "clean shutdown needed repairs: {fsck:?}"
    );
    // Placement survived recovery (replayed from the journal's node lists).
    for f in world.fs.file_ids() {
        assert_eq!(
            cluster.placement(f).map(|p| p.len()),
            Some(2),
            "file {f:?} lost its placement across recovery"
        );
    }
    // A single-node outage after recovery is still free at replication 2.
    world.plan.nodes = vec![(half, 1, NodeAction::Down)];
    let run = world.replay(half..GOLDEN_QUERIES);
    assert_eq!(
        run.fingerprints,
        fault_free(Some((NODES, 2))).fingerprints[half..],
        "answers diverged after recovery under outage"
    );
    assert_eq!(
        run.trace.recovery.fragment_fallbacks, 0,
        "failover degraded after recovery"
    );
}
