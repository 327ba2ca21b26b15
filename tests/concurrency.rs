//! Concurrency suite: replay the golden 50-query workload as K clients over
//! seeded interleaving sweeps and assert the serialized-commit series is
//! bit-identical to the single-client serial run — same result
//! fingerprints, same per-query execution seconds (to the bit), same
//! registry `state_digest` after the schedule drains.
//!
//! The serving layer's determinism contract (see `deepsea-core::server`):
//! interleavings move client latencies and snapshot epochs, never committed
//! state. Replaying the same seed reproduces every arrival, interleaving,
//! latency and epoch bit for bit.
//!
//! Every served run goes through the shared fault world
//! (`golden::World::serve`), whose oracle checks one record per ticket and
//! every committed and read answer against the fault-free serial run
//! (`golden::fault_free`); the tests here add costs, end state and the
//! schedule itself.
//!
//! The seeds swept by the main tests come from `INTERLEAVE_SEEDS`
//! (comma-separated, default `1,7,42`), so CI can sweep schedules without a
//! rebuild: `INTERLEAVE_SEEDS=5,6 cargo test -q --test concurrency`.

use deepsea::bench::golden::{
    fault_free, golden_inputs, seeds_from_env, FaultPlan, Run, GOLDEN_QUERIES,
};
use deepsea::core::{ServeReport, ServerConfig, ViewServer};
use proptest::prelude::*;

/// `clients` logical clients with arrivals seeded by `seed`.
fn schedule(clients: usize, seed: u64, mean_gap_secs: f64) -> ServerConfig {
    ServerConfig {
        clients,
        seed,
        mean_gap_secs,
        ..ServerConfig::default()
    }
}

/// Serve the first `limit` golden queries on a fresh fault-free world.
fn serve(server: ServerConfig, limit: usize) -> ServeReport {
    FaultPlan::default().build().serve(server, limit)
}

fn interleave_seeds() -> Vec<u64> {
    seeds_from_env("INTERLEAVE_SEEDS", "1,7,42")
}

/// Committed costs and end state match `serial` bit for bit. (Committed
/// answers, and epoch-independence — a read against any, possibly stale,
/// snapshot returns the committed rows — are the oracle's.)
fn assert_commits_match_serial(report: &ServeReport, serial: &Run, what: &str) {
    for rec in &report.records {
        assert_eq!(
            rec.committed_query_secs.to_bits(),
            serial.query_secs_bits[rec.ticket],
            "{what}, ticket {}: committed cost diverged",
            rec.ticket
        );
    }
    assert_eq!(
        report.state_digest, serial.state_digest,
        "{what}: registry state diverged after drain"
    );
}

#[test]
fn concurrent_commits_bit_identical_to_serial() {
    for &clients in &[2usize, 3, 5] {
        for seed in interleave_seeds() {
            let report = serve(schedule(clients, seed, 30.0), GOLDEN_QUERIES);
            let what = format!("seed {seed}, K={clients}");
            assert_commits_match_serial(&report, fault_free(None), &what);
        }
    }
}

#[test]
fn single_client_schedule_matches_serial_too() {
    // K=1 degenerates to the serial order with arrival jitter; committed
    // state must still match exactly.
    for seed in interleave_seeds() {
        let report = serve(schedule(1, seed, 30.0), GOLDEN_QUERIES);
        assert_commits_match_serial(&report, fault_free(None), &format!("seed {seed}, K=1"));
    }
}

#[test]
fn same_seed_replays_bit_identically() {
    let a = serve(schedule(3, 7, 30.0), GOLDEN_QUERIES);
    let b = serve(schedule(3, 7, 30.0), GOLDEN_QUERIES);
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(
            ra.client, rb.client,
            "ticket {}: client assignment",
            ra.ticket
        );
        assert_eq!(ra.read_epoch, rb.read_epoch, "ticket {}: epoch", ra.ticket);
        assert_eq!(
            ra.arrival_secs.to_bits(),
            rb.arrival_secs.to_bits(),
            "ticket {}: arrival",
            ra.ticket
        );
        assert_eq!(
            ra.latency_secs.to_bits(),
            rb.latency_secs.to_bits(),
            "ticket {}: latency",
            ra.ticket
        );
        assert_eq!(
            ra.commit_done_secs.to_bits(),
            rb.commit_done_secs.to_bits(),
            "ticket {}: commit time",
            ra.ticket
        );
        assert_eq!(
            ra.divergent, rb.divergent,
            "ticket {}: divergence",
            ra.ticket
        );
    }
    assert_eq!(a.state_digest, b.state_digest);
    assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
}

#[test]
fn the_bounded_queue_counts_every_waiting_ticket_for_either_gap_sign() {
    // A read is shed `queue_full` iff more than `q` later tickets arrived
    // by its start — checked against that definition for increasing,
    // constant and (negative gap) decreasing arrivals.
    let (n, q) = (20, 4);
    for gap in [-30.0, -0.05, 0.0, 0.05] {
        let cfg = ServerConfig {
            max_queue: Some(q),
            ..schedule(2, 7, gap)
        };
        let report = serve(cfg, n);
        let records = &report.records;
        let mut sheds = 0;
        for (i, r) in records.iter().enumerate() {
            let waiting = records[i + 1..]
                .iter()
                .filter(|later| later.arrival_secs <= r.read_start_secs)
                .count();
            let shed = r.shed.is_some_and(|(_, reason)| reason == "queue_full");
            assert_eq!(shed, waiting > q, "gap {gap}, ticket {i}");
            sheds += usize::from(shed);
        }
        if gap <= 0.0 {
            // Every later ticket has arrived by each read's start.
            assert_eq!(sheds, n - 1 - q, "gap {gap}");
        }
    }
}

#[test]
fn interleavings_actually_overlap_and_lag() {
    // A tight arrival process on several clients must produce genuinely
    // stale reads (epoch lag > 0) — otherwise the suite proves nothing —
    // and yet every committed outcome stays canonical (checked above; here
    // we check the schedule itself shifted).
    let report = serve(schedule(4, 42, 5.0), GOLDEN_QUERIES);
    assert!(
        report.max_epoch_lag > 0,
        "tight schedule never produced a stale read: {report:?}"
    );
    let clients_used: std::collections::HashSet<usize> =
        report.records.iter().map(|r| r.client).collect();
    assert!(
        clients_used.len() > 1,
        "schedule never used a second client"
    );
    // Different seeds shift the schedule (arrivals differ), not the commits.
    let other = serve(schedule(4, 43, 5.0), GOLDEN_QUERIES);
    assert_ne!(
        report.records[0].arrival_secs.to_bits(),
        other.records[0].arrival_secs.to_bits(),
        "different seeds must draw different arrivals"
    );
}

#[test]
fn eviction_pressure_under_concurrency_stays_canonical() {
    // DS-tight: Smax at 1/40 of the base data forces the Φ/decay eviction
    // path; the committed trajectory must still replay bit-identically
    // against its own serial baseline.
    let (catalog, _) = golden_inputs();
    let plan = FaultPlan {
        config: FaultPlan::default()
            .config
            .with_smax(catalog.total_base_bytes() / 40),
        ..FaultPlan::default()
    };
    let serial = plan.run(GOLDEN_QUERIES);
    let report = plan.build().serve(schedule(3, 7, 10.0), GOLDEN_QUERIES);
    assert_commits_match_serial(&report, &serial, "under pressure");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, max_shrink_iters: 0 })]

    /// Arbitrary interleavings — any seed, client count and arrival rate —
    /// leave a workload prefix's committed series and end state
    /// bit-identical to the serial run of the same prefix.
    #[test]
    fn arbitrary_interleavings_never_change_commits(
        seed in 0u64..1_000_000,
        clients in 1usize..6,
        mean_gap in 1.0f64..120.0,
        prefix in 8usize..14,
    ) {
        let serial = FaultPlan::default().run(prefix);
        let report = serve(schedule(clients, seed, mean_gap), prefix);
        prop_assert_eq!(report.records.len(), prefix);
        assert_commits_match_serial(&report, &serial, &format!("seed {seed}, K {clients}"));
    }
}

/// Real worker threads: reads race with publication under genuine OS
/// preemption, yet the committed series and end state stay bit-identical to
/// the serial run, and every racing read returns the canonical rows.
#[test]
fn real_threads_commits_bit_identical_to_serial() {
    let (_, plans) = golden_inputs();
    let serial = fault_free(None);
    for &clients in &[2usize, 4] {
        let mut srv = ViewServer::new(FaultPlan::default().build().ds, schedule(clients, 7, 30.0));
        let report = srv.run_threaded(plans).expect("fault-free run");
        assert_eq!(report.records.len(), serial.fingerprints.len());
        for rec in &report.records {
            assert_eq!(
                &rec.committed_fingerprint[..],
                &serial.fingerprints[rec.ticket][..],
                "K={clients}, ticket {}: committed answer diverged",
                rec.ticket
            );
            assert_eq!(
                rec.committed_query_secs.to_bits(),
                serial.query_secs_bits[rec.ticket],
                "K={clients}, ticket {}: committed cost diverged",
                rec.ticket
            );
            assert_eq!(
                &rec.read_fingerprint, &rec.committed_fingerprint,
                "K={clients}, ticket {}: racing read returned different rows",
                rec.ticket
            );
        }
        assert_eq!(report.state_digest, serial.state_digest, "K={clients}");
    }
}
