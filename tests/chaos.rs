//! Chaos suite: replay the golden 50-query workload (see
//! `deepsea-bench::golden`) under seeded fault schedules — transient read
//! failures, permanent fragment loss, latency spikes, corruption, crashes —
//! and assert the client-visible answers are bit-identical to the
//! fault-free run.
//!
//! Views are opportunistic accelerators over durable base tables, so faults
//! may cost simulated time (retries, backoff, base-table fallbacks) but must
//! never change a result, leak pool accounting, or surface an error. The
//! shared fault world (`golden::FaultPlan`, `golden::World`) checks that
//! oracle after every query; the tests here add what each schedule must
//! exercise.
//!
//! The seeds replayed by the main test come from `CHAOS_SEEDS`
//! (comma-separated, default `1,7,42`), so CI can sweep schedules without a
//! rebuild: `CHAOS_SEEDS=1,7,42 cargo test -q --test chaos`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use deepsea::bench::golden::{
    fault_free, golden_inputs, seeds_from_env, FaultPlan, Run, GOLDEN_QUERIES,
};
use deepsea::bench::harness::run_workload;
use deepsea::core::{NodeAction, ObsConfig, Observer};
use deepsea::storage::FaultConfig;
use proptest::prelude::*;

fn chaos_seeds() -> Vec<u64> {
    seeds_from_env("CHAOS_SEEDS", "1,7,42")
}

/// The fault-free answers every schedule must reproduce.
fn golden() -> &'static [Vec<String>] {
    &fault_free(None).fingerprints
}

#[test]
fn chaos_replay_is_bit_identical_to_fault_free() {
    for seed in chaos_seeds() {
        let run = FaultPlan::headline_faults(seed).run(GOLDEN_QUERIES);
        assert_eq!(
            run.fingerprints,
            golden(),
            "seed {seed}: answers diverged under faults"
        );
        // The schedule must actually exercise the recovery machinery, and
        // its cost must be visible in the trace.
        assert!(
            run.trace.recovery.retries >= 1,
            "seed {seed}: no transient was retried"
        );
        assert!(
            run.trace.recovery.penalty_secs > 0.0,
            "seed {seed}: recovery charged no simulated time"
        );
        assert!(
            run.trace.recovery.quarantined_views >= 1,
            "seed {seed}: no view was quarantined: {run:?}"
        );
        assert!(
            run.trace.recovery.base_table_fallbacks >= 1,
            "seed {seed}: no base-table fallback happened: {run:?}"
        );
        assert!(
            run.rematerialized,
            "seed {seed}: no quarantined-but-hot view was re-materialized: {run:?}"
        );
    }
}

/// `run`'s per-query elapsed seconds are bit-identical to the plain
/// harness's (no injector, no journal).
fn assert_timing_is_plain(run: &Run, what: &str) {
    let (catalog, plans) = golden_inputs();
    let plain = run_workload("DS", catalog, FaultPlan::default().config, plans);
    assert_eq!(run.elapsed_bits.len(), plain.per_query.len());
    for (i, (a, b)) in run.elapsed_bits.iter().zip(&plain.per_query).enumerate() {
        assert_eq!(
            *a,
            b.elapsed.to_bits(),
            "query {i}: {what} must not perturb timing ({} vs {})",
            f64::from_bits(*a),
            b.elapsed
        );
    }
}

/// With the injector disabled, the whole fault layer — `try_read` and the
/// driver's retry ladder — must be bit-transparent:
/// identical elapsed seconds to the plain harness, and zero recovery
/// activity.
#[test]
fn zero_fault_schedule_is_bit_transparent() {
    let chaos = fault_free(None);
    assert_timing_is_plain(chaos, "a disabled injector");
    assert_eq!(chaos.trace.recovery.retries, 0);
    assert_eq!(chaos.trace.recovery.penalty_secs, 0.0);
    assert_eq!(chaos.trace.recovery.quarantined_views, 0);
    assert_eq!(chaos.trace.recovery.base_table_fallbacks, 0);
}

/// Seeds for the crash-restart sweep, from `CRASH_SEEDS` (comma-separated,
/// default `3,11`): `CRASH_SEEDS=3,11 cargo test -q --test chaos`.
fn crash_seeds() -> Vec<u64> {
    seeds_from_env("CRASH_SEEDS", "3,11")
}

/// The durability headline: kill the driver at seeded journal-record
/// boundaries mid-query, cold-start it from the journal (`DeepSea::recover`),
/// and replay the interrupted query. The shared replay asserts, per seed:
///
/// - every answer is bit-identical to the fault-free golden run,
/// - recovery is idempotent (recovering twice from the same journal yields
///   the same registry digest and clock, and a second fsck with nothing to
///   repair),
/// - the pool invariant `fs == registry == ledger` holds after every query
///   and after every recovery, with zero over-release violations.
#[test]
fn crash_restart_replay_is_bit_identical_and_recovery_idempotent() {
    for seed in crash_seeds() {
        let mut world = FaultPlan::default().with_seeded_crashes(seed).build();
        let run = world.replay(0..GOLDEN_QUERIES);
        assert!(
            run.crashes >= 1,
            "seed {seed}: the schedule never crashed the driver"
        );
        assert_eq!(
            world.ds.journal().expect("journaled").stats().crashes,
            u64::from(run.crashes),
            "seed {seed}: journal crash counter disagrees with the harness"
        );
    }
}

/// Crash × node failure: the driver crashes mid-query while a node is
/// down, on an unreplicated 4-node cluster (so the outage genuinely blocks
/// fragments). Asserts:
///
/// - recovery works with the node still down (fsck verifies checksums, not
///   liveness, so the outage cannot fake data loss),
/// - double recovery from the same journal is idempotent (same digest,
///   second fsck clean),
/// - answers stay bit-identical to the fault-free golden run throughout,
/// - once the node returns, the run finishes clean and no fragment stays
///   quarantined.
#[test]
fn crash_during_node_outage_recovers_and_readmits() {
    // Healthy prefix, then node 1 is down for queries 10..20 and the crash
    // lands a few records into query 10; the second crash point follows
    // the first restart.
    let mut world = FaultPlan {
        nodes: vec![(10, 1, NodeAction::Down), (20, 1, NodeAction::Up)],
        journal: true,
        crash_at: 10,
        crashes: vec![3, 10],
        ..FaultPlan::sharded(1)
    }
    .build();
    let outage = world.replay(0..20);
    assert!(
        outage.crashes >= 1,
        "the schedule never crashed the driver during the outage"
    );
    let rest = world.replay(20..GOLDEN_QUERIES);
    assert_eq!(rest.crashes, 0, "a crash point outlived the outage");
    assert_eq!(
        rest.offline_at_end, 0,
        "fragments stayed quarantined after the node returned"
    );
}

/// A journaled run that never crashes must be bit-transparent: attaching the
/// journal adds appends, checkpoints, and snapshots, but with no faults it
/// charges zero simulated seconds, so per-query elapsed times are
/// bit-identical to the plain (journal-free) harness.
#[test]
fn journaled_zero_crash_run_is_bit_transparent() {
    let mut world = FaultPlan {
        journal: true,
        ..FaultPlan::default()
    }
    .build();
    let run = world.replay(0..GOLDEN_QUERIES);
    assert_timing_is_plain(&run, "journaling");
    assert_eq!(run.fingerprints, golden(), "journaling changed an answer");
    assert!(
        run.trace.durability.journal_appends > 0,
        "no records were journaled: {run:?}"
    );
    assert!(
        run.trace.durability.snapshots >= 1,
        "no snapshot was installed: {run:?}"
    );
    assert_eq!(
        run.trace.durability.journal_penalty_secs, 0.0,
        "a fault-free journal charged time"
    );
    let journal = world.ds.journal().expect("journaled");
    assert!(journal.stats().appends > 0);
    assert!(journal.stats().snapshots >= 1);
}

/// A journaled run under the headline schedule — quarantines and base-table
/// fallbacks, after which the commit materializes from the fallback's result
/// — journals what a cold start replays to the live catalog, and the same
/// stream on a second run.
#[test]
fn fallback_runs_journal_what_replay_reaches() {
    let seed = chaos_seeds()[0];
    let plan = FaultPlan {
        config: FaultPlan::default()
            .config
            .with_journal_cadence(10, u64::MAX),
        journal: true,
        ..FaultPlan::headline_faults(seed)
    };
    let run = || {
        let mut world = plan.build();
        let run = world.replay(0..GOLDEN_QUERIES);
        let journal = world.ds.journal().expect("journaled");
        let stream: Vec<String> = journal
            .replay()
            .1
            .iter()
            .map(|record| format!("{record:?}"))
            .collect();
        let (recovered, _) = world.recover();
        let digests = (run.state_digest, recovered.registry().state_digest());
        (run.trace, stream, digests)
    };
    let (trace, stream, (live, replayed)) = run();
    assert!(
        trace.recovery.base_table_fallbacks >= 1,
        "seed {seed}: no base-table fallback happened"
    );
    assert!(trace.materialization.files_written >= 1);
    assert_eq!(
        live, replayed,
        "seed {seed}: replay diverged from the live catalog"
    );
    let (_, again, _) = run();
    assert_eq!(
        stream, again,
        "seed {seed}: the journal stream is not deterministic"
    );
}

/// Checksummed fragments: under a seeded corruption schedule every corrupt
/// read is detected on read (the trace counts it), the owning view is
/// quarantined, and the corrupt bytes are never served — answers stay
/// bit-identical to the fault-free run.
#[test]
fn corrupt_reads_are_detected_quarantined_and_never_served() {
    for seed in chaos_seeds() {
        let run = FaultPlan {
            faults: FaultConfig::seeded(seed).with_corruption(0.10),
            ..FaultPlan::default()
        }
        .run(GOLDEN_QUERIES);
        assert_eq!(
            run.fingerprints,
            golden(),
            "seed {seed}: corrupt data reached the client"
        );
        assert!(
            run.faults.corruptions >= 1,
            "seed {seed}: the schedule injected no corruption: {run:?}"
        );
        assert!(
            run.trace.recovery.corrupt_fragments >= 1,
            "seed {seed}: no corrupt read was detected: {run:?}"
        );
        assert!(
            run.trace.recovery.quarantined_views >= 1,
            "seed {seed}: corruption did not quarantine the view: {run:?}"
        );
    }
}

/// The composed sweep: each seed puts every fault kind on one schedule
/// (`FaultPlan::composed`) — per-file faults, injected node downs, a hedged
/// slow window, replication 1 or 2, and either a journal with up to three
/// crash points or a multi-client interleaving — checked by the one oracle.
/// A failing seed prints its plan, which replays it exactly. Across the
/// sweep, the mid-execution outage path (a fragment found offline between
/// planning and its read) must fire.
#[test]
fn composed_fault_schedules_never_change_answers() {
    let mut outages = 0;
    for seed in 1..=32 {
        let plan = FaultPlan::composed(seed);
        let obs = Observer::new(ObsConfig::on());
        let checked = catch_unwind(AssertUnwindSafe(|| {
            let mut world = plan.build();
            world.ds = world.ds.with_observer(obs.clone());
            if let Some(cfg) = plan.serve.clone() {
                world.serve(cfg, GOLDEN_QUERIES);
                return;
            }
            let run = world.replay(0..GOLDEN_QUERIES);
            let journal = world.ds.journal().expect("journaled");
            assert_eq!(journal.stats().crashes, u64::from(run.crashes));
        }));
        if let Err(panic) = checked {
            eprintln!("composed seed {seed} failed; FaultPlan::composed({seed}) is {plan:#?}");
            resume_unwind(panic);
        }
        outages += obs
            .metrics_snapshot()
            .counter("deepsea_fragment_outages_total", None);
    }
    assert!(
        outages > 0,
        "the mid-execution outage path never fired across the sweep"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, max_shrink_iters: 0 })]

    /// Any fault schedule — arbitrary seed and rates — leaves a workload
    /// prefix's answers untouched and the pool accounting consistent (the
    /// oracle checks both after every query).
    #[test]
    fn arbitrary_fault_schedules_never_change_answers(
        seed in 0u64..1_000_000,
        transient in 0.0f64..0.30,
        permanent in 0.0f64..0.05,
        spike in 0.0f64..0.10,
        prefix in 8usize..14,
    ) {
        let faults = FaultConfig::seeded(seed)
            .with_transient_reads(transient)
            .with_permanent_loss(permanent)
            .with_transient_writes(transient / 2.0)
            .with_latency_spikes(spike, 1.5);
        let run = FaultPlan { faults, ..FaultPlan::default() }.run(prefix);
        prop_assert_eq!(run.fingerprints.len(), prefix);
        prop_assert_eq!(&run.fingerprints[..], &golden()[..prefix], "seed {}: answer diverged", seed);
    }
}
