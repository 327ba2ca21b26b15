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
//! The seeds swept by the main tests come from `INTERLEAVE_SEEDS`
//! (comma-separated, default `1,7,42`), so CI can sweep schedules without a
//! rebuild: `INTERLEAVE_SEEDS=5,6 cargo test -q --test concurrency`.

use std::sync::{Arc, OnceLock};

use deepsea::bench::golden::{golden_catalog, golden_plans};
use deepsea::core::baselines;
use deepsea::core::{DeepSea, DeepSeaConfig, ServeReport, ServerConfig, ViewServer};
use deepsea::engine::{Catalog, ClusterSim, LogicalPlan};
use deepsea::storage::{BlockConfig, SimFs};
use proptest::prelude::*;

/// The DS variant of the golden scenario (progressive partitioning, φ bound).
fn ds_config() -> DeepSeaConfig {
    baselines::deepsea().with_phi(0.05)
}

fn setup() -> (&'static Arc<Catalog>, &'static Vec<LogicalPlan>) {
    static S: OnceLock<(Arc<Catalog>, Vec<LogicalPlan>)> = OnceLock::new();
    let s = S.get_or_init(|| (golden_catalog(), golden_plans()));
    (&s.0, &s.1)
}

fn fresh_driver(config: DeepSeaConfig) -> DeepSea {
    let (catalog, _) = setup();
    let cluster = ClusterSim::paper_default();
    let fs = Arc::new(SimFs::new(BlockConfig::default(), cluster.weights));
    DeepSea::with_parts(Arc::clone(catalog), fs, cluster, config)
}

/// What the single-client serial run committed, captured once per config.
struct SerialBaseline {
    fingerprints: Vec<Vec<String>>,
    query_secs_bits: Vec<u64>,
    state_digest: u64,
}

fn serial_baseline(config: DeepSeaConfig, limit: usize) -> SerialBaseline {
    let (_, plans) = setup();
    let mut ds = fresh_driver(config);
    let mut fingerprints = Vec::with_capacity(limit);
    let mut query_secs_bits = Vec::with_capacity(limit);
    for plan in plans.iter().take(limit) {
        let out = ds.process_query(plan).expect("fault-free run");
        fingerprints.push(out.result.fingerprint());
        query_secs_bits.push(out.query_secs.to_bits());
    }
    SerialBaseline {
        fingerprints,
        query_secs_bits,
        state_digest: ds.registry().state_digest(),
    }
}

fn ds_serial() -> &'static SerialBaseline {
    static S: OnceLock<SerialBaseline> = OnceLock::new();
    S.get_or_init(|| {
        let (_, plans) = setup();
        serial_baseline(ds_config(), plans.len())
    })
}

fn serve(config: DeepSeaConfig, server: ServerConfig, limit: usize) -> ServeReport {
    let (_, plans) = setup();
    let mut srv = ViewServer::new(fresh_driver(config), server);
    srv.run(&plans[..limit]).expect("fault-free schedule")
}

fn interleave_seeds() -> Vec<u64> {
    std::env::var("INTERLEAVE_SEEDS")
        .unwrap_or_else(|_| "1,7,42".into())
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .expect("INTERLEAVE_SEEDS must be comma-separated u64s")
        })
        .collect()
}

/// Committed series and end state must match the serial run bit for bit,
/// for every seed and client count swept.
fn assert_commits_match_serial(report: &ServeReport, seed: u64, clients: usize) {
    let serial = ds_serial();
    assert_eq!(
        report.records.len(),
        serial.fingerprints.len(),
        "seed {seed}, K={clients}: ticket count"
    );
    for rec in &report.records {
        let i = rec.ticket;
        assert_eq!(
            &rec.committed_fingerprint, &serial.fingerprints[i],
            "seed {seed}, K={clients}, ticket {i}: committed answer diverged"
        );
        assert_eq!(
            rec.committed_query_secs.to_bits(),
            serial.query_secs_bits[i],
            "seed {seed}, K={clients}, ticket {i}: committed cost diverged"
        );
        // Epoch-independence: a read against any (possibly stale) snapshot
        // returns the same rows the committed execution returns.
        assert_eq!(
            &rec.read_fingerprint, &rec.committed_fingerprint,
            "seed {seed}, K={clients}, ticket {i}: snapshot read returned different rows"
        );
    }
    assert_eq!(
        report.state_digest, serial.state_digest,
        "seed {seed}, K={clients}: registry state diverged after drain"
    );
}

#[test]
fn concurrent_commits_bit_identical_to_serial() {
    for &clients in &[2usize, 3, 5] {
        for seed in interleave_seeds() {
            let report = serve(
                ds_config(),
                ServerConfig {
                    clients,
                    seed,
                    mean_gap_secs: 30.0,
                    ..ServerConfig::default()
                },
                ds_serial().fingerprints.len(),
            );
            assert_commits_match_serial(&report, seed, clients);
        }
    }
}

#[test]
fn single_client_schedule_matches_serial_too() {
    // K=1 degenerates to the serial order with arrival jitter; committed
    // state must still match exactly.
    for seed in interleave_seeds() {
        let report = serve(
            ds_config(),
            ServerConfig {
                clients: 1,
                seed,
                mean_gap_secs: 30.0,
                ..ServerConfig::default()
            },
            ds_serial().fingerprints.len(),
        );
        assert_commits_match_serial(&report, seed, 1);
    }
}

#[test]
fn same_seed_replays_bit_identically() {
    let cfg = ServerConfig {
        clients: 3,
        seed: 7,
        mean_gap_secs: 30.0,
        ..ServerConfig::default()
    };
    let n = ds_serial().fingerprints.len();
    let a = serve(ds_config(), cfg.clone(), n);
    let b = serve(ds_config(), cfg, n);
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
fn interleavings_actually_overlap_and_lag() {
    // A tight arrival process on several clients must produce genuinely
    // stale reads (epoch lag > 0) — otherwise the suite proves nothing —
    // and yet every committed outcome stays canonical (checked above; here
    // we check the schedule itself shifted).
    let report = serve(
        ds_config(),
        ServerConfig {
            clients: 4,
            seed: 42,
            mean_gap_secs: 5.0,
            ..ServerConfig::default()
        },
        ds_serial().fingerprints.len(),
    );
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
    let other = serve(
        ds_config(),
        ServerConfig {
            clients: 4,
            seed: 43,
            mean_gap_secs: 5.0,
            ..ServerConfig::default()
        },
        ds_serial().fingerprints.len(),
    );
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
    let (catalog, plans) = setup();
    let tight = baselines::deepsea()
        .with_phi(0.05)
        .with_smax(catalog.total_base_bytes() / 40);
    let serial = serial_baseline(tight, plans.len());
    let report = serve(
        tight,
        ServerConfig {
            clients: 3,
            seed: 7,
            mean_gap_secs: 10.0,
            ..ServerConfig::default()
        },
        plans.len(),
    );
    for rec in &report.records {
        assert_eq!(
            &rec.committed_fingerprint, &serial.fingerprints[rec.ticket],
            "ticket {}: answer diverged under pressure",
            rec.ticket
        );
        assert_eq!(
            rec.committed_query_secs.to_bits(),
            serial.query_secs_bits[rec.ticket],
            "ticket {}: cost diverged under pressure",
            rec.ticket
        );
    }
    assert_eq!(report.state_digest, serial.state_digest);
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
        let serial = serial_baseline(ds_config(), prefix);
        let report = serve(
            ds_config(),
            ServerConfig {
                clients,
                seed,
                mean_gap_secs: mean_gap,                ..ServerConfig::default()
            },
            prefix,
        );
        prop_assert_eq!(report.records.len(), prefix);
        for rec in &report.records {
            prop_assert_eq!(
                &rec.committed_fingerprint,
                &serial.fingerprints[rec.ticket],
                "seed {}, K {}, ticket {}: committed answer diverged",
                seed, clients, rec.ticket
            );
            prop_assert_eq!(
                rec.committed_query_secs.to_bits(),
                serial.query_secs_bits[rec.ticket],
                "seed {}, K {}, ticket {}: committed cost diverged",
                seed, clients, rec.ticket
            );
            prop_assert_eq!(
                &rec.read_fingerprint,
                &rec.committed_fingerprint,
                "seed {}, K {}, ticket {}: stale read returned different rows",
                seed, clients, rec.ticket
            );
        }
        prop_assert_eq!(report.state_digest, serial.state_digest);
    }
}

/// Real worker threads: reads race with publication under genuine OS
/// preemption, yet the committed series and end state stay bit-identical to
/// the serial run, and every racing read returns the canonical rows.
#[test]
fn real_threads_commits_bit_identical_to_serial() {
    let (_, plans) = setup();
    let serial = ds_serial();
    for &clients in &[2usize, 4] {
        let mut srv = ViewServer::new(
            fresh_driver(ds_config()),
            ServerConfig {
                clients,
                seed: 7,
                mean_gap_secs: 30.0,
                ..ServerConfig::default()
            },
        );
        let report = srv.run_threaded(plans).expect("fault-free run");
        assert_eq!(report.records.len(), serial.fingerprints.len());
        for rec in &report.records {
            assert_eq!(
                &rec.committed_fingerprint, &serial.fingerprints[rec.ticket],
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
