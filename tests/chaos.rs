//! Chaos suite: replay the golden 50-query workload (see
//! `deepsea-bench::golden`) under seeded fault schedules — transient read
//! failures, permanent fragment loss, latency spikes — and assert the
//! client-visible answers are bit-identical to the fault-free run.
//!
//! Views are opportunistic accelerators over durable base tables, so faults
//! may cost simulated time (retries, backoff, base-table fallbacks) but must
//! never change a result, leak pool accounting, or surface an error.
//!
//! The seeds replayed by the main test come from `CHAOS_SEEDS`
//! (comma-separated, default `1,7,42`), so CI can sweep schedules without a
//! rebuild: `CHAOS_SEEDS=1,7,42 cargo test -q --test chaos`.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use deepsea::bench::golden::{golden_catalog, golden_plans, seeds_from_env, Lcg};
use deepsea::bench::harness::run_workload;
use deepsea::core::baselines;
use deepsea::core::{CatalogJournal, DeepSea, DeepSeaConfig, QueryTrace};
use deepsea::engine::{Catalog, ClusterSim, LogicalPlan, SimBackend};
use deepsea::storage::{
    BlockConfig, FaultConfig, FaultInjector, Lsn, NodeConfig, NodeId, NodeSet, SimFs,
    SimulatedCrash,
};
use proptest::prelude::*;

/// The DS variant of the golden scenario (progressive partitioning, φ bound).
fn chaos_config() -> DeepSeaConfig {
    baselines::deepsea().with_phi(0.05)
}

fn setup() -> (&'static Arc<Catalog>, &'static Vec<LogicalPlan>) {
    static S: OnceLock<(Arc<Catalog>, Vec<LogicalPlan>)> = OnceLock::new();
    let s = S.get_or_init(|| (golden_catalog(), golden_plans()));
    (&s.0, &s.1)
}

/// What one replay under a fault schedule observed.
#[derive(Debug, Default)]
struct ChaosOutcome {
    /// Per-query result fingerprints (order-independent content hashes).
    fingerprints: Vec<Vec<String>>,
    /// Per-query elapsed simulated seconds.
    elapsed: Vec<f64>,
    /// The per-query traces summed over the run (recovery and durability
    /// are the slices the assertions read).
    trace: QueryTrace,
    /// A view quarantined earlier in the run was materialized again later.
    rematerialized: bool,
    /// Corruptions the injector actually introduced.
    injected_corruptions: u64,
}

/// Replay the first `limit` golden queries under `faults`, checking the
/// pool-accounting invariant after every query.
fn run_chaos(faults: FaultConfig, limit: usize) -> ChaosOutcome {
    run_chaos_with(faults, limit, None)
}

/// [`run_chaos`], optionally with a catalog journal attached to the driver.
fn run_chaos_with(
    faults: FaultConfig,
    limit: usize,
    journal: Option<Arc<CatalogJournal>>,
) -> ChaosOutcome {
    let (catalog, plans) = setup();
    let cluster = ClusterSim::paper_default();
    let fs = Arc::new(SimFs::with_faults(
        BlockConfig::default(),
        cluster.weights,
        FaultInjector::new(faults),
    ));
    let backend = Box::new(SimBackend::new(cluster));
    let mut ds = DeepSea::with_backend(
        Arc::clone(catalog),
        Arc::clone(&fs),
        backend,
        chaos_config(),
    );
    if let Some(journal) = journal {
        ds = ds.with_journal(journal);
    }
    let mut out = ChaosOutcome::default();
    let mut quarantined_names: HashSet<String> = HashSet::new();
    for (i, plan) in plans.iter().take(limit).enumerate() {
        let o = ds
            .process_query(plan)
            .unwrap_or_else(|e| panic!("query {i}: faults must never surface to the client: {e}"));
        assert_eq!(
            fs.total_bytes(),
            ds.pool_bytes(),
            "query {i}: pool accounting must match the file system"
        );
        out.fingerprints.push(o.result.fingerprint());
        out.elapsed.push(o.elapsed_secs);
        out.trace += o.trace;
        if o.materialized.iter().any(|m| {
            quarantined_names
                .iter()
                .any(|q| m == q || m.starts_with(&format!("{q}.")))
        }) {
            out.rematerialized = true;
        }
        quarantined_names.extend(o.quarantined.iter().cloned());
    }
    out.injected_corruptions = fs.fault_stats().corruptions;
    out
}

/// Fault-free per-query fingerprints — the equality baseline for every
/// schedule, computed once.
fn fault_free_fingerprints() -> &'static Vec<Vec<String>> {
    static GOLDEN: OnceLock<Vec<Vec<String>>> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let (_, plans) = setup();
        run_chaos(FaultConfig::disabled(), plans.len()).fingerprints
    })
}

fn chaos_seeds() -> Vec<u64> {
    seeds_from_env("CHAOS_SEEDS", "1,7,42")
}

/// The headline schedule: 12% transient reads, 5% permanent loss, 5%
/// transient writes, 5% latency spikes — harsh enough that every seed sees
/// quarantines and base-table fallbacks within 50 queries.
fn headline_faults(seed: u64) -> FaultConfig {
    FaultConfig::seeded(seed)
        .with_transient_reads(0.12)
        .with_permanent_loss(0.05)
        .with_transient_writes(0.05)
        .with_latency_spikes(0.05, 2.0)
}

#[test]
fn chaos_replay_is_bit_identical_to_fault_free() {
    let golden = fault_free_fingerprints();
    for seed in chaos_seeds() {
        let run = run_chaos(headline_faults(seed), golden.len());
        assert_eq!(run.fingerprints.len(), golden.len(), "seed {seed}");
        for (i, (got, want)) in run.fingerprints.iter().zip(golden).enumerate() {
            assert_eq!(
                got, want,
                "seed {seed}, query {i}: answer diverged under faults"
            );
        }
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

/// With the injector disabled, the whole fault layer — `try_read` and the
/// driver's retry ladder — must be bit-transparent:
/// identical elapsed seconds to the plain harness, and zero recovery
/// activity.
#[test]
fn zero_fault_schedule_is_bit_transparent() {
    let (catalog, plans) = setup();
    let chaos = run_chaos(FaultConfig::disabled(), plans.len());
    let plain = run_workload("DS", catalog, chaos_config(), plans);
    assert_eq!(chaos.elapsed.len(), plain.per_query.len());
    for (i, (a, b)) in chaos.elapsed.iter().zip(&plain.per_query).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.elapsed.to_bits(),
            "query {i}: disabled injector must not perturb timing ({a} vs {})",
            b.elapsed
        );
    }
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

/// Suppress panic output for [`SimulatedCrash`] payloads: the crash harness
/// throws and catches them by design, and the default hook would spam the
/// test log. Every other panic keeps the default hook.
fn silence_simulated_crashes() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimulatedCrash>().is_none() {
                prev(info);
            }
        }));
    });
}

/// The durability headline: kill the driver at seeded journal-record
/// boundaries mid-query, cold-start it from the journal (`DeepSea::recover`),
/// and replay the interrupted query. Asserts, per seed:
///
/// - every answer is bit-identical to the fault-free golden run,
/// - recovery is idempotent (recovering twice from the same journal yields
///   the same registry digest and a second fsck with nothing to repair),
/// - the pool invariant `fs == registry == ledger` holds after every query
///   and after every recovery, with zero over-release violations.
#[test]
fn crash_restart_replay_is_bit_identical_and_recovery_idempotent() {
    silence_simulated_crashes();
    let golden = fault_free_fingerprints();
    let (catalog, plans) = setup();
    for seed in crash_seeds() {
        let cluster = ClusterSim::paper_default();
        let fs = Arc::new(SimFs::with_faults(
            BlockConfig::default(),
            cluster.weights,
            FaultInjector::disabled(),
        ));
        let journal = Arc::new(CatalogJournal::new());
        let mut ds = DeepSea::with_backend(
            Arc::clone(catalog),
            Arc::clone(&fs),
            Box::new(SimBackend::new(cluster)),
            chaos_config(),
        )
        .with_journal(Arc::clone(&journal));

        let mut rng = Lcg::seeded(seed);
        let mut crashes = 0u32;
        // Arm the first crash a few records out so it lands inside an early
        // query; later crashes are spread wider so the run makes progress.
        journal.arm_crash(Lsn(journal.next_lsn().0 + 1 + rng.draw() % 8));

        let mut i = 0;
        while i < plans.len() {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ds.process_query(&plans[i])
            })) {
                Ok(res) => {
                    let o = res.unwrap_or_else(|e| {
                        panic!("seed {seed}, query {i}: fault-free query failed: {e}")
                    });
                    assert_eq!(
                        o.result.fingerprint(),
                        golden[i],
                        "seed {seed}, query {i}: answer diverged across crash-restarts"
                    );
                    assert_eq!(
                        fs.total_bytes(),
                        ds.pool_bytes(),
                        "seed {seed}, query {i}: pool accounting must match the file system"
                    );
                    assert_eq!(
                        ds.pool_accountant().used(),
                        ds.pool_bytes(),
                        "seed {seed}, query {i}: mirror ledger diverged"
                    );
                    assert_eq!(
                        ds.pool_accountant().violations(),
                        0,
                        "seed {seed}, query {i}: pool over-release"
                    );
                    i += 1;
                }
                Err(payload) => {
                    payload.downcast::<SimulatedCrash>().unwrap_or_else(|p| {
                        std::panic::resume_unwind(p); // a real bug, not a crash point
                    });
                    crashes += 1;
                    // The disk (SimFs) and the journal survive the crash; the
                    // in-memory driver is gone. Recover twice from the same
                    // journal: both restarts must converge on the same state,
                    // and the second fsck must find nothing left to repair.
                    let (first, _) = DeepSea::recover(
                        Arc::clone(catalog),
                        Arc::clone(&fs),
                        Box::new(SimBackend::new(ClusterSim::paper_default())),
                        chaos_config(),
                        Arc::clone(&journal),
                    );
                    let (second, refsck) = DeepSea::recover(
                        Arc::clone(catalog),
                        Arc::clone(&fs),
                        Box::new(SimBackend::new(ClusterSim::paper_default())),
                        chaos_config(),
                        Arc::clone(&journal),
                    );
                    assert_eq!(
                        first.registry().state_digest(),
                        second.registry().state_digest(),
                        "seed {seed}, crash {crashes}: recovery is not idempotent"
                    );
                    assert_eq!(
                        first.clock(),
                        second.clock(),
                        "seed {seed}, crash {crashes}: recovered clocks diverged"
                    );
                    assert_eq!(
                        (
                            refsck.orphan_files,
                            refsck.missing_files,
                            refsck.corrupt_files,
                            refsck.quarantined_views,
                        ),
                        (0, 0, 0, 0),
                        "seed {seed}, crash {crashes}: second fsck found repairs: {refsck:?}"
                    );
                    ds = second;
                    assert_eq!(
                        fs.total_bytes(),
                        ds.pool_bytes(),
                        "seed {seed}, crash {crashes}: fsck left the pool inconsistent"
                    );
                    if crashes < 4 {
                        journal.arm_crash(Lsn(journal.next_lsn().0 + 1 + rng.draw() % 40));
                    }
                    // Replay the interrupted query (same index, no advance).
                }
            }
        }
        assert!(
            crashes >= 1,
            "seed {seed}: the schedule never crashed the driver"
        );
        assert_eq!(
            journal.stats().crashes,
            u64::from(crashes),
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
    silence_simulated_crashes();
    let golden = fault_free_fingerprints();
    let (catalog, plans) = setup();
    let cluster = ClusterSim::paper_default();
    let fs = Arc::new(SimFs::with_cluster(
        BlockConfig::default(),
        cluster.weights,
        FaultInjector::disabled(),
        NodeSet::new(NodeConfig::new(4, 1)),
    ));
    let journal = Arc::new(CatalogJournal::new());
    let mut ds = DeepSea::with_backend(
        Arc::clone(catalog),
        Arc::clone(&fs),
        Box::new(SimBackend::new(cluster)),
        chaos_config(),
    )
    .with_journal(Arc::clone(&journal));

    let check = |ds: &DeepSea, i: usize, fp: &[String]| {
        assert_eq!(fp, golden[i], "query {i}: answer diverged");
        assert_eq!(
            fs.total_bytes(),
            ds.pool_bytes(),
            "query {i}: pool accounting must match the file system"
        );
        assert_eq!(
            ds.pool_accountant().violations(),
            0,
            "query {i}: pool over-release"
        );
    };

    // Phase 1: healthy prefix — views materialize, placements journal.
    for (i, plan) in plans.iter().enumerate().take(10) {
        let o = ds.process_query(plan).expect("healthy prefix");
        check(&ds, i, &o.result.fingerprint());
    }

    // Phase 2: node 1 goes down; serving continues (degraded where the
    // outage blocks fragments), then the crash lands mid-query with the
    // node still down.
    fs.set_node_down(NodeId(1));
    journal.arm_crash(Lsn(journal.next_lsn().0 + 3));
    let mut crashes = 0u32;
    let mut i = 10;
    while i < 20 {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ds.process_query(&plans[i])))
        {
            Ok(res) => {
                let o = res.unwrap_or_else(|e| panic!("query {i} failed under outage: {e}"));
                check(&ds, i, &o.result.fingerprint());
                i += 1;
            }
            Err(payload) => {
                payload.downcast::<SimulatedCrash>().unwrap_or_else(|p| {
                    std::panic::resume_unwind(p);
                });
                crashes += 1;
                // Recover twice from the same journal, node still down: the
                // restarts must converge and the second fsck must be clean —
                // an outage is not data loss, so fsck must not quarantine.
                let (first, _) = DeepSea::recover(
                    Arc::clone(catalog),
                    Arc::clone(&fs),
                    Box::new(SimBackend::new(ClusterSim::paper_default())),
                    chaos_config(),
                    Arc::clone(&journal),
                );
                let (second, refsck) = DeepSea::recover(
                    Arc::clone(catalog),
                    Arc::clone(&fs),
                    Box::new(SimBackend::new(ClusterSim::paper_default())),
                    chaos_config(),
                    Arc::clone(&journal),
                );
                assert_eq!(
                    first.registry().state_digest(),
                    second.registry().state_digest(),
                    "crash {crashes}: recovery under outage is not idempotent"
                );
                assert_eq!(
                    (
                        refsck.orphan_files,
                        refsck.missing_files,
                        refsck.corrupt_files,
                        refsck.quarantined_views,
                    ),
                    (0, 0, 0, 0),
                    "crash {crashes}: second fsck under outage found repairs: {refsck:?}"
                );
                ds = second;
                if crashes < 2 {
                    journal.arm_crash(Lsn(journal.next_lsn().0 + 10));
                }
            }
        }
    }
    assert!(
        crashes >= 1,
        "the schedule never crashed the driver during the outage"
    );

    // Phase 3: the node returns; the rest of the run is clean and every
    // fragment the outage quarantined is re-admitted.
    fs.set_node_up(NodeId(1));
    for (i, plan) in plans.iter().enumerate().skip(20) {
        let o = ds
            .process_query(plan)
            .unwrap_or_else(|e| panic!("query {i} failed after the node returned: {e}"));
        check(&ds, i, &o.result.fingerprint());
    }
    assert!(
        ds.offline_fragments().is_empty(),
        "fragments stayed quarantined after the node returned"
    );
}

/// A journaled run that never crashes must be bit-transparent: attaching the
/// journal adds appends, checkpoints, and snapshots, but with no faults it
/// charges zero simulated seconds, so per-query elapsed times are
/// bit-identical to the plain (journal-free) harness.
#[test]
fn journaled_zero_crash_run_is_bit_transparent() {
    let (catalog, plans) = setup();
    let journal = Arc::new(CatalogJournal::new());
    let run = run_chaos_with(
        FaultConfig::disabled(),
        plans.len(),
        Some(Arc::clone(&journal)),
    );
    let plain = run_workload("DS", catalog, chaos_config(), plans);
    assert_eq!(run.elapsed.len(), plain.per_query.len());
    for (i, (a, b)) in run.elapsed.iter().zip(&plain.per_query).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.elapsed.to_bits(),
            "query {i}: journaling must not perturb timing ({a} vs {})",
            b.elapsed
        );
    }
    for (i, (got, want)) in run
        .fingerprints
        .iter()
        .zip(fault_free_fingerprints())
        .enumerate()
    {
        assert_eq!(got, want, "query {i}: journaling changed an answer");
    }
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
    assert!(journal.stats().appends > 0);
    assert!(journal.stats().snapshots >= 1);
}

/// A journaled run under the headline schedule — quarantines and base-table
/// fallbacks, after which the commit materializes from the fallback's result
/// — journals what a cold start replays to the live catalog, and the same
/// stream on a second run.
#[test]
fn fallback_runs_journal_what_replay_reaches() {
    let (catalog, plans) = setup();
    let seed = chaos_seeds()[0];
    let run = || {
        let cluster = ClusterSim::paper_default();
        let fs = Arc::new(SimFs::with_faults(
            BlockConfig::default(),
            cluster.weights,
            FaultInjector::new(headline_faults(seed)),
        ));
        let journal = Arc::new(CatalogJournal::new());
        let backend = Box::new(SimBackend::new(cluster));
        let config = chaos_config().with_journal_cadence(10, u64::MAX);
        let mut ds = DeepSea::with_backend(Arc::clone(catalog), Arc::clone(&fs), backend, config)
            .with_journal(Arc::clone(&journal));
        let mut trace = QueryTrace::default();
        for plan in plans {
            trace += ds.process_query(plan).expect("faults never surface").trace;
        }
        let stream: Vec<String> = journal
            .replay()
            .1
            .iter()
            .map(|record| format!("{record:?}"))
            .collect();
        let (recovered, _) = DeepSea::recover(
            Arc::clone(catalog),
            fs,
            Box::new(SimBackend::new(ClusterSim::paper_default())),
            config,
            journal,
        );
        let digests = (
            ds.registry().state_digest(),
            recovered.registry().state_digest(),
        );
        (trace, stream, digests)
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
    let golden = fault_free_fingerprints();
    for seed in chaos_seeds() {
        let run = run_chaos(
            FaultConfig::seeded(seed).with_corruption(0.10),
            golden.len(),
        );
        for (i, (got, want)) in run.fingerprints.iter().zip(golden).enumerate() {
            assert_eq!(
                got, want,
                "seed {seed}, query {i}: corrupt data reached the client"
            );
        }
        assert!(
            run.injected_corruptions >= 1,
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, max_shrink_iters: 0 })]

    /// Any fault schedule — arbitrary seed and rates — leaves a workload
    /// prefix's answers untouched and the pool accounting consistent (the
    /// invariant is asserted inside `run_chaos` after every query).
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
        let golden = fault_free_fingerprints();
        let run = run_chaos(faults, prefix);
        prop_assert_eq!(run.fingerprints.len(), prefix);
        for (i, (got, want)) in run.fingerprints.iter().zip(golden.iter().take(prefix)).enumerate() {
            prop_assert_eq!(got, want, "seed {}, query {}: answer diverged", seed, i);
        }
    }
}
