//! Tail-tolerance suite: replay the golden workload under **gray-failure**
//! schedules — nodes that stay live but serve reads a multiplier slower —
//! and assert the tail-tolerance machinery (hedged replica reads,
//! deadline-aware load shedding) never changes an answer or the committed
//! state trajectory.
//!
//! The invariants, in decreasing strength:
//!
//! - **Replication ≥ 2 + any slow-node schedule + hedging** ⇒ answers and
//!   the final registry digest are bit-identical to the zero-schedule run:
//!   slowness shapes *cost*, never *content*, and every catalog decision
//!   flows through the cost estimator rather than measured latencies.
//! - **All schedules empty + hedging armed** ⇒ the whole run (fingerprints,
//!   per-query elapsed bits, registry digest) is bit-identical to hedging
//!   off: a hedge whose primary wins returns the primary's cost unchanged.
//! - **Same seed ⇒ same decision stream**: the shed / hedge / slow-node
//!   events the server journals replay bit-for-bit.
//! - **Shedding is honest**: shed tickets still commit (the writer's
//!   Algorithm-1 trajectory never depends on admission control), and
//!   stale-served sheds return exact answers.
//!
//! Schedules are generated from `TAIL_CHAOS_SEEDS` (comma-separated,
//! default `3,11`), so CI can sweep without a rebuild:
//! `TAIL_CHAOS_SEEDS=3,11 cargo test -q --test tail_chaos`.

use deepsea::bench::golden::{fault_free, seeds_from_env, FaultPlan, GOLDEN_QUERIES, NODES};
use deepsea::core::{NodeAction, ObsConfig, Observer, ServerConfig, ShedPolicy};
use deepsea::storage::FaultConfig;

fn tail_chaos_seeds() -> Vec<u64> {
    seeds_from_env("TAIL_CHAOS_SEEDS", "3,11")
}

/// Replication 2 with hedged reads after 10 ms, nothing slow.
fn hedged() -> FaultPlan {
    FaultPlan {
        hedge: Some(0.01),
        ..FaultPlan::sharded(2)
    }
}

/// The headline invariant: at replication 2, any slow-node schedule with
/// hedging armed changes *cost only* — answers and the final registry
/// digest are bit-identical to the zero-schedule run, because every catalog
/// decision flows through the cost estimator, never measured latencies.
#[test]
fn slow_schedules_with_hedging_preserve_answers_and_state() {
    let golden = fault_free(Some((NODES, 2)));
    let mut saw_hedge_wins = false;
    for seed in tail_chaos_seeds() {
        let plan = FaultPlan::slow_node_schedule(seed);
        assert!(!plan.slow.is_empty(), "seed {seed}: empty schedule");
        let run = plan.run(GOLDEN_QUERIES);
        assert_eq!(
            run.fingerprints, golden.fingerprints,
            "seed {seed}: answers diverged under gray failures"
        );
        assert_eq!(
            run.state_digest, golden.state_digest,
            "seed {seed}: committed state diverged under gray failures"
        );
        assert!(
            run.faults.node_slows > 0,
            "seed {seed}: schedule never slowed"
        );
        saw_hedge_wins |= run.faults.hedges_won > 0;
    }
    assert!(
        saw_hedge_wins,
        "no schedule ever produced a winning hedge — the hedge path is dead"
    );
}

/// Hedging is bit-transparent when nothing is slow: with every schedule
/// empty, arming hedged reads reproduces the hedging-off run exactly —
/// fingerprints, per-query elapsed bits, and the registry digest — because
/// a hedge whose primary wins returns the primary's cost unchanged.
#[test]
fn hedging_is_bit_transparent_without_slow_nodes() {
    let golden = fault_free(Some((NODES, 2)));
    let run = hedged().run(GOLDEN_QUERIES);
    assert_eq!(run.fingerprints, golden.fingerprints);
    assert_eq!(
        run.elapsed_bits, golden.elapsed_bits,
        "hedging with healthy replicas must not move a single bit of cost"
    );
    assert_eq!(run.state_digest, golden.state_digest);
    assert_eq!(
        run.faults.hedges_won, 0,
        "a healthy replica must never win a hedge"
    );
}

/// Same-seed reproducibility of the full tail-tolerance decision stream:
/// two servers with identical configs replay identical shed / hedge /
/// slow-node event sequences and identical per-ticket latencies, and a
/// different seed produces a different schedule (the stream is seeded, not
/// constant).
#[test]
fn same_seed_reproduces_shed_and_hedge_decision_stream() {
    let serve = |seed: u64| {
        let obs = Observer::new(ObsConfig::on());
        let mut world = hedged().build();
        world.ds = world.ds.with_observer(obs.clone());
        let cfg = ServerConfig {
            clients: 3,
            seed,
            mean_gap_secs: 0.05,
            slow_schedule: vec![(2, 1, 4.0), (20, 1, 1.0), (25, 2, 3.0), (40, 2, 1.0)],
            deadline_secs: Some(2.0),
            max_queue: Some(8),
            shed_policy: ShedPolicy::ServeStale,
            ..ServerConfig::default()
        };
        let report = world.serve(cfg, GOLDEN_QUERIES);
        let decisions: Vec<_> = obs
            .events_snapshot()
            .into_iter()
            .filter(|e| {
                matches!(
                    e.event.kind(),
                    "shed" | "hedged_read" | "node_slow" | "node_slow_cleared"
                )
            })
            .collect();
        (report, decisions)
    };

    let (r1, d1) = serve(7);
    let (r2, d2) = serve(7);
    assert!(!d1.is_empty(), "overloaded serve produced no decisions");
    assert!(
        d1.iter().any(|e| e.event.kind() == "shed"),
        "deadline 2.0s under 0.05s arrivals must shed"
    );
    assert_eq!(d1, d2, "same seed must replay the exact decision stream");
    assert_eq!(
        r1.latencies_secs()
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
        r2.latencies_secs()
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
        "same seed must replay identical latencies"
    );
    assert_eq!(r1.shed_reads, r2.shed_reads);
    assert_eq!(r1.state_digest, r2.state_digest);

    let (_, d3) = serve(8);
    assert_ne!(d1, d3, "different seeds must produce different schedules");
}

/// Shedding is honest: every shed ticket carries its policy and reason,
/// shed tickets still commit (the committed fingerprint series is the
/// serial one, complete), and stale-served sheds return exact answers.
#[test]
fn shed_tickets_still_commit_and_served_sheds_stay_exact() {
    let golden = fault_free(Some((NODES, 2)));
    let cfg = ServerConfig {
        clients: 2,
        seed: 5,
        mean_gap_secs: 0.05,
        deadline_secs: Some(1.5),
        max_queue: Some(4),
        ..ServerConfig::default()
    };
    let report = FaultPlan::sharded(2).build().serve(cfg, GOLDEN_QUERIES);
    assert!(report.shed_reads > 0, "overload produced no shedding");
    assert_eq!(
        report.committed_fingerprints(),
        golden.fingerprints,
        "shedding leaked into the committed trajectory"
    );
    for rec in &report.records {
        if let Some((p, reason)) = rec.shed {
            assert_eq!(p, ShedPolicy::ServeStale.name());
            assert!(
                matches!(
                    reason,
                    "deadline_passed" | "queue_full" | "projected_overrun"
                ),
                "unknown shed reason {reason}"
            );
            // A stale-served read returns the exact committed answer.
            assert_eq!(
                rec.read_fingerprint, rec.committed_fingerprint,
                "served a wrong answer while shedding"
            );
        }
    }
}

/// The combined-schedule crash test: node outage + seeded I/O faults + a
/// gray-slow window all active when the process dies mid-outage. Recovery
/// rebuilds the catalog, a second recovery from the same journal is
/// idempotent and replays nothing, and every query — before the crash,
/// during the outage and after the restart — answers exactly.
#[test]
fn crash_mid_outage_with_slow_window_recovers_idempotently() {
    let half = GOLDEN_QUERIES / 2;
    let mut world = FaultPlan {
        faults: FaultConfig::seeded(13).with_transient_reads(0.05),
        nodes: vec![(half, 1, NodeAction::Down), (half + 3, 1, NodeAction::Up)],
        slow: vec![(half, 2, 3.0), (half + 3, 2, 1.0)],
        journal: true,
        ..hedged()
    }
    .build();
    // Outage + gray slowness both active at the crash point.
    world.replay(0..half + 3);
    // Crash: the file system, the journal and the injected chaos survive.
    let fsck = world.restart();
    assert_eq!(
        fsck.replayed_records, 0,
        "first recovery's snapshot must have compacted the journal"
    );
    // The resumed run rides out the end of the outage and slow window.
    world.replay(half + 3..GOLDEN_QUERIES);
}
