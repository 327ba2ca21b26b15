//! Causal-trace bit-transparency: serving the golden workload with span
//! tracing enabled must be indistinguishable — bit for bit — from the
//! untraced run.
//!
//! This is the serving-layer extension of `obs_transparency`: the span
//! contexts threaded through admission, snapshot reads, retry ladders,
//! hedge races and commits are derived from scheduler state, never an
//! input to it. The last test pins the `retry_wait` spans the driver's
//! retry ladder leaves under each `execute` span.

use std::sync::Arc;

use deepsea::bench::golden::{golden_catalog, golden_plans, GOLDEN_QUERIES};
use deepsea::core::{
    baselines, DeepSea, ObsConfig, Observer, ServeReport, ServerConfig, ViewServer,
};
use deepsea::engine::{ClusterSim, ExecMetrics, SimBackend};
use deepsea::obs::{SpanCtx, SpanRecord, TraceForest};
use deepsea::storage::{BlockConfig, FaultConfig, FaultInjector, SimFs};

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

/// The golden driver over a flat file system failing 20 % of reads
/// transiently, with `obs` attached.
fn flaky_driver(obs: Observer) -> DeepSea {
    let cluster = ClusterSim::paper_default();
    let fs = Arc::new(SimFs::with_faults(
        BlockConfig::default(),
        cluster.weights,
        FaultInjector::new(FaultConfig::seeded(7).with_transient_reads(0.2)),
    ));
    DeepSea::with_backend(
        golden_catalog(),
        fs,
        Box::new(SimBackend::new(cluster)),
        baselines::deepsea().with_phi(0.05),
    )
    .with_observer(obs)
}

/// The `retry_wait` children of the one `execute` span `is_exec` picks:
/// one per retry of that execution, their widths summing to its backoff
/// (the whole penalty: this schedule injects no latency spikes).
fn check_retry_waits(
    spans: &[SpanRecord],
    is_exec: impl Fn(&SpanRecord) -> bool,
    metrics: &ExecMetrics,
    what: &str,
) {
    let execs: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "execute" && is_exec(s))
        .collect();
    assert_eq!(execs.len(), 1, "{what}: one execute span");
    let waits: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "retry_wait" && s.parent_id == execs[0].span_id)
        .collect();
    assert_eq!(
        waits.len() as u64,
        metrics.retries,
        "{what}: a span per retry"
    );
    let width: f64 = waits
        .iter()
        .map(|s| s.end_sim_secs - s.start_sim_secs)
        .sum();
    assert!(
        (width - metrics.penalty_secs).abs() < 1e-9,
        "{what}: waits span {width}s of a {}s backoff",
        metrics.penalty_secs
    );
}

/// A serial pass and then snapshot reads of every golden plan: each
/// outcome's observable bits, each execution's metrics, each read's span
/// root, and the spans each part recorded.
#[derive(Default)]
struct Pass {
    outcomes: Vec<String>,
    serial_metrics: Vec<ExecMetrics>,
    read_metrics: Vec<ExecMetrics>,
    roots: Vec<SpanCtx>,
    serial_spans: Vec<SpanRecord>,
    read_spans: Vec<SpanRecord>,
}

fn serial_then_snapshot_reads(obs: &Observer) -> Pass {
    let plans = golden_plans();
    let mut ds = flaky_driver(obs.clone());
    let mut pass = Pass::default();
    for plan in &plans {
        let o = ds.process_query(plan).expect("faults never surface");
        pass.outcomes.push(format!(
            "{:?} {:x} {:?} {:?}",
            o.result.fingerprint(),
            o.elapsed_secs.to_bits(),
            o.metrics,
            o.trace.recovery
        ));
        pass.serial_metrics.push(o.metrics);
    }
    pass.serial_spans = obs.spans_snapshot();
    let snapshot = ds.publish_snapshot().expect("the simulated backend forks");
    for (i, plan) in plans.iter().enumerate() {
        let root = obs.alloc_span(SpanCtx::root(10_000 + i as u64));
        let a = snapshot
            .answer_in_span(plan, root, 0.0)
            .expect("views never gate an answer");
        pass.outcomes.push(format!(
            "{:?} {:x} {:?} {:?}",
            a.result.fingerprint(),
            a.query_secs.to_bits(),
            a.metrics,
            a.trace.recovery
        ));
        pass.read_metrics.push(a.metrics);
        pass.roots.push(root);
    }
    pass.read_spans = obs.spans_snapshot()[pass.serial_spans.len()..].to_vec();
    pass
}

/// The execution ladder's waits are on the trace, end to end: a serial
/// `process_query` pass and snapshot `answer_in_span` reads under flaky
/// reads each record one `retry_wait` span per execution retry, under that
/// execution's `execute` span, their widths summing to its backoff — and
/// the untraced twin runs return the same outcomes, bit for bit.
#[test]
fn retry_waits_are_spans_under_their_execution() {
    let traced = serial_then_snapshot_reads(&Observer::new(ObsConfig::on()));
    let untraced = serial_then_snapshot_reads(&Observer::off());
    assert!(untraced.serial_spans.is_empty());
    assert_eq!(
        traced.outcomes, untraced.outcomes,
        "tracing changed an outcome"
    );

    // Serial: each query's `execute` span is the one at its logical time.
    for (i, m) in traced.serial_metrics.iter().enumerate() {
        let t = i as u64 + 1;
        check_retry_waits(
            &traced.serial_spans,
            |s| s.tnow == t,
            m,
            &format!("query {t}"),
        );
    }
    // Snapshot reads: each read's `execute` span hangs off its own root.
    for (i, (m, root)) in traced.read_metrics.iter().zip(&traced.roots).enumerate() {
        check_retry_waits(
            &traced.read_spans,
            |s| s.parent_id == root.span_id,
            m,
            &format!("read {i}"),
        );
    }
    for (part, metrics) in [
        ("serial", &traced.serial_metrics),
        ("snapshot", &traced.read_metrics),
    ] {
        let retries: u64 = metrics.iter().map(|m| m.retries).sum();
        assert!(retries > 0, "precondition: a {part} execution retried");
    }
}
