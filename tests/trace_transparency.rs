//! Causal-trace bit-transparency: serving the golden workload with span
//! tracing enabled must be indistinguishable — bit for bit — from the
//! untraced run.
//!
//! This is the serving-layer extension of `obs_transparency`: the span
//! contexts threaded through admission, snapshot reads, retry ladders,
//! hedge races and commits are derived from scheduler state, never an
//! input to it.

use std::sync::Arc;

use deepsea::bench::golden::{golden_catalog, golden_plans, GOLDEN_QUERIES};
use deepsea::core::{
    baselines, DeepSea, ObsConfig, Observer, ServeReport, ServerConfig, ViewServer,
};
use deepsea::engine::ClusterSim;
use deepsea::obs::TraceForest;
use deepsea::storage::{BlockConfig, SimFs};

fn serve_with(obs: Observer) -> ServeReport {
    let catalog = golden_catalog();
    let plans = golden_plans();
    let cluster = ClusterSim::paper_default();
    let fs = Arc::new(SimFs::new(BlockConfig::default(), cluster.weights));
    let ds = DeepSea::with_parts(catalog, fs, cluster, baselines::deepsea().with_phi(0.05))
        .with_observer(obs);
    let mut server = ViewServer::new(
        ds,
        ServerConfig {
            clients: 3,
            seed: 7,
            mean_gap_secs: 5.0,
            ..ServerConfig::default()
        },
    );
    server.run(&plans).expect("golden serve failed")
}

struct Fingerprint {
    latency_bits: Vec<u64>,
    read_fingerprints: Vec<Vec<String>>,
    committed_fingerprints: Vec<Vec<String>>,
    state_digest: u64,
    makespan_bits: u64,
}

fn fingerprint(report: &ServeReport) -> Fingerprint {
    Fingerprint {
        latency_bits: report
            .records
            .iter()
            .map(|r| r.latency_secs.to_bits())
            .collect(),
        read_fingerprints: report
            .records
            .iter()
            .map(|r| r.read_fingerprint.clone())
            .collect(),
        committed_fingerprints: report.committed_fingerprints(),
        state_digest: report.state_digest,
        makespan_bits: report.makespan_secs.to_bits(),
    }
}

fn assert_identical(a: &Fingerprint, b: &Fingerprint, what: &str) {
    assert_eq!(a.latency_bits, b.latency_bits, "{what}: latency bits");
    assert_eq!(
        a.read_fingerprints, b.read_fingerprints,
        "{what}: read answers"
    );
    assert_eq!(
        a.committed_fingerprints, b.committed_fingerprints,
        "{what}: committed answers"
    );
    assert_eq!(a.state_digest, b.state_digest, "{what}: state digest");
    assert_eq!(a.makespan_bits, b.makespan_bits, "{what}: makespan");
}

#[test]
fn tracing_is_bit_transparent_on_the_served_golden_workload() {
    let untraced = fingerprint(&serve_with(Observer::off()));

    let obs = Observer::new(ObsConfig::on());
    let traced_report = serve_with(obs.clone());
    let traced = fingerprint(&traced_report);

    assert_identical(&untraced, &traced, "traced vs untraced");

    // Transparency must not come from inactivity: every ticket has a
    // rooted causal trace whose root span *is* its reported latency.
    let spans = obs.spans_snapshot();
    assert!(!spans.is_empty(), "traced run recorded no spans");
    let forest = TraceForest::from_spans(&spans);
    assert_eq!(traced_report.records.len(), GOLDEN_QUERIES);
    for r in &traced_report.records {
        let tid = r.ticket as u64 + 1;
        let root = forest
            .root(tid)
            .unwrap_or_else(|| panic!("ticket {} has no trace root", r.ticket));
        assert_eq!(root.name, "ticket");
        assert!(
            (root.duration_secs() - r.latency_secs).abs() < 1e-9,
            "ticket {}: root span duration != reported latency",
            r.ticket
        );
        assert!(
            forest.all_reachable_from_root(tid),
            "ticket {}: orphaned spans",
            r.ticket
        );
    }
}
