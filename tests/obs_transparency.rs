//! Observer bit-transparency: replaying the golden 50-query workload with
//! observability fully enabled must be indistinguishable — bit for bit —
//! from the unobserved run.
//!
//! This is the contract that makes `deepsea-obs` safe to leave attached in
//! every experiment: metrics, spans, and decision events are *derived* from
//! driver state, never an input to it. Each golden variant runs twice (obs
//! off vs `ObsConfig::on()`) and the test asserts identical per-query
//! `elapsed_secs` bits, `materialized`/`evicted` counts, pool bytes, and
//! registry `state_digest()` — while also checking the observer actually
//! collected a full record of the run, so transparency is never achieved by
//! simply not observing.
//!
//! Since selection values `ALLCAND` on demand this is also the test that the
//! demand changes nothing: the unobserved run values only what the §7.3
//! prefix cut can reach, the observed one everything. The variants cover a
//! pool that never fills and one that is saturated; the second test pins
//! `Smax` to one commit's `ALLCAND` total, the boundary between the two.

use std::sync::Arc;

use deepsea::bench::golden::{golden_catalog, golden_plans, golden_variants, GOLDEN_QUERIES};
use deepsea::core::driver::DeepSea;
use deepsea::core::{DeepSeaConfig, ObsConfig, Observer};
use deepsea::engine::{ClusterSim, LogicalPlan};
use deepsea::obs::DecisionEvent;
use deepsea::relation::Table;
use deepsea::storage::{BlockConfig, SimFs};

struct Fingerprint {
    elapsed_bits: Vec<u64>,
    materialized: Vec<usize>,
    evicted: Vec<usize>,
    pool_bytes: u64,
    state_digest: u64,
}

fn replay(cfg: DeepSeaConfig, plans: &[LogicalPlan], obs: Observer) -> Fingerprint {
    let catalog = golden_catalog();
    let cluster = ClusterSim::paper_default();
    let fs = Arc::new(SimFs::<Table>::new(BlockConfig::default(), cluster.weights));
    let mut ds = DeepSea::with_parts(catalog, fs, cluster, cfg).with_observer(obs);
    let mut fp = Fingerprint {
        elapsed_bits: Vec::with_capacity(plans.len()),
        materialized: Vec::with_capacity(plans.len()),
        evicted: Vec::with_capacity(plans.len()),
        pool_bytes: 0,
        state_digest: 0,
    };
    for plan in plans {
        let out = ds.process_query(plan).expect("golden query failed");
        fp.elapsed_bits.push(out.elapsed_secs.to_bits());
        fp.materialized.push(out.materialized.len());
        fp.evicted.push(out.evicted.len());
    }
    fp.pool_bytes = ds.pool_bytes();
    fp.state_digest = ds.registry().state_digest();
    fp
}

/// Replay `plans` under `cfg` unobserved and with `ObsConfig::on()`, assert
/// the two runs indistinguishable, and return the observer of the second.
fn assert_transparent(label: &str, cfg: DeepSeaConfig, plans: &[LogicalPlan]) -> Observer {
    let off = replay(cfg, plans, Observer::off());
    let obs = Observer::new(ObsConfig::on());
    let on = replay(cfg, plans, obs.clone());

    assert_eq!(
        off.elapsed_bits, on.elapsed_bits,
        "{label}: per-query elapsed bits diverge with observability on"
    );
    assert_eq!(off.materialized, on.materialized, "{label}: materialized");
    assert_eq!(off.evicted, on.evicted, "{label}: evicted");
    assert_eq!(off.pool_bytes, on.pool_bytes, "{label}: pool bytes");
    assert_eq!(
        off.state_digest, on.state_digest,
        "{label}: registry state_digest diverges with observability on"
    );

    // Transparency must not come from inactivity: the enabled observer
    // saw every query and (on variants that evict) every eviction.
    let snap = obs.metrics_snapshot();
    assert_eq!(
        snap.counter("deepsea_queries_total", None),
        GOLDEN_QUERIES as u64,
        "{label}: observer missed queries"
    );
    let total_evicted: u64 = on.evicted.iter().map(|&e| e as u64).sum();
    assert_eq!(
        snap.counter("deepsea_evictions_total", None),
        total_evicted,
        "{label}: observer missed evictions"
    );
    let eviction_events = obs
        .events_snapshot()
        .iter()
        .filter(|r| r.event.kind() == "eviction")
        .count() as u64;
    assert_eq!(
        eviction_events, total_evicted,
        "{label}: every eviction must carry an audit event"
    );
    obs
}

#[test]
fn observer_is_bit_transparent_on_the_golden_workload() {
    let catalog = golden_catalog();
    let plans = golden_plans();
    assert_eq!(plans.len(), GOLDEN_QUERIES);

    for (label, cfg) in golden_variants(&catalog) {
        assert_transparent(label, cfg, &plans);
    }
}

/// One commit's `ALLCAND` as the audit log reports it: `Σ size`, and how
/// many items were created, kept, and cut (evicted or rejected).
#[derive(Debug, Default, Clone, Copy)]
struct Commit {
    total: u64,
    created: usize,
    kept: usize,
    cut: usize,
}

fn commits(obs: &Observer) -> Vec<Commit> {
    let mut commits = vec![Commit::default(); GOLDEN_QUERIES];
    for record in obs.events_snapshot() {
        if let DecisionEvent::SelectionVerdict { size, verdict, .. } = record.event {
            let commit = &mut commits[record.tnow as usize - 1];
            commit.total += size;
            match verdict {
                "create" => commit.created += 1,
                "keep" => commit.kept += 1,
                _ => commit.cut += 1,
            }
        }
    }
    commits
}

/// The unobserved driver values only what selection can cut or create, the
/// observed one everything (the audit log reports every Φ): the two must
/// agree on the boundary itself. `Smax` is set to the `ALLCAND` total of one
/// commit of the unlimited run — one that keeps and creates, that no earlier
/// commit exceeds and a later one does — so the same replay fits with room,
/// fits exactly, and is cut.
#[test]
fn observer_is_bit_transparent_where_allcand_exactly_fills_the_pool() {
    let catalog = golden_catalog();
    let plans = golden_plans();
    let unlimited = golden_variants(&catalog)[0].1;
    assert_eq!(unlimited.smax, None);
    let free = commits(&assert_transparent("DS", unlimited, &plans));
    let (at, smax) = (0..free.len())
        .rev()
        .find(|&t| {
            let total = free[t].total;
            free[t].created > 0
                && free[t].kept > 0
                && free[..t].iter().all(|c| c.total <= total)
                && free[t..].iter().any(|c| c.total > total)
        })
        .map(|t| (t, free[t].total))
        .expect("a commit of the unlimited run to pin Smax to");

    let bounded = commits(&assert_transparent(
        "DS-boundary",
        unlimited.with_smax(smax),
        &plans,
    ));
    assert!(
        bounded[..at].iter().all(|c| c.total <= smax && c.cut == 0),
        "commits before #{at} fit with room"
    );
    assert_eq!(
        bounded[at].total, smax,
        "commit #{at} fills the pool exactly"
    );
    assert_eq!(bounded[at].cut, 0, "and is not cut");
    assert_eq!(
        (bounded[at].created, bounded[at].kept),
        (free[at].created, free[at].kept)
    );
    assert!(
        bounded[at..].iter().any(|c| c.total > smax && c.cut > 0),
        "a later commit is"
    );
}
