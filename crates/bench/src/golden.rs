//! The golden workload, and the one fault world every sweep suite runs it in.
//!
//! **The golden scenario.** A 50-query Figure-5-style workload on a seeded
//! 100 GB instance. `tests/golden_pipeline.rs` and the `golden_capture`
//! example replay it under three variants chosen to exercise every stage of
//! the query lifecycle: whole-view materialization and reuse (`NP`),
//! progressive fragment refinement (`DS`), and pool-pressure eviction
//! (`DS-tight`). The golden test asserts bit-exact `elapsed_secs` plus
//! `materialized` / `evicted` counts per query, so any behavioural drift in
//! the driver pipeline — however small — fails loudly. To regenerate the
//! expected sequences after an *intentional* behaviour change:
//! `cargo run --release --example golden_capture` and paste its output into
//! `tests/golden_pipeline.rs`.
//!
//! **The fault world.** The sweep suites (`tests/chaos.rs`, `node_chaos.rs`,
//! `tail_chaos.rs`, `concurrency.rs`) and the serving scenarios of
//! [`crate::pressure`] describe every world as one [`FaultPlan`]: per-file
//! faults, a topology, node and slow events keyed by query, hedging, a
//! journal and seeded crash points. [`FaultPlan::build`] makes the driver
//! and its file system. [`World::replay`] runs the golden queries serially:
//! it applies the plan's events before each query, recovers twice at every
//! simulated crash ([`World::restart`]), and after every query checks one
//! oracle — the answer equals the fault-free one ([`fault_free`]), the file
//! system, the registry and the pool ledger agree on the pool's bytes, and
//! nothing was over-released. [`World::serve`] checks the same oracle on a
//! [`ViewServer`] interleaving. A plan's `Debug` is all a failing run needs
//! to replay exactly; every oracle message prints it.

use std::fmt::Display;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use deepsea_core::{
    baselines, CatalogJournal, DeepSea, DeepSeaConfig, FsckReport, NodeAction, QueryTrace,
    ServeReport, ServerConfig, ViewServer,
};
use deepsea_engine::{Catalog, ClusterSim, LogicalPlan, SimBackend};
use deepsea_relation::Table;
use deepsea_storage::{
    BlockConfig, FaultConfig, FaultInjector, FaultStats, HedgeConfig, Lsn, NodeConfig, NodeId,
    NodeSet, SimFs, SimulatedCrash,
};
use deepsea_workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea_workload::sequences::fig5_workload;

/// Seed for both the data generator and the workload sampler.
pub const GOLDEN_SEED: u64 = 7;

/// Number of queries in the replayed workload.
pub const GOLDEN_QUERIES: usize = 50;

/// Datanodes in every sharded fault world.
pub const NODES: u32 = 4;

/// Queries per window of the named node and slow schedules: the fault
/// starts one query into the window and ends one query before it closes,
/// so every window returns the cluster to full health.
const WINDOW: usize = 5;

/// The seeded instance the golden workload runs against.
pub fn golden_catalog() -> Arc<Catalog> {
    Arc::new(
        BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Uniform, GOLDEN_SEED)
            .catalog,
    )
}

/// The fixed 50-query plan sequence.
pub fn golden_plans() -> Vec<LogicalPlan> {
    fig5_workload(GOLDEN_QUERIES, GOLDEN_SEED)
}

/// The golden catalog and plans, generated once per process.
pub fn golden_inputs() -> (&'static Arc<Catalog>, &'static [LogicalPlan]) {
    static S: OnceLock<(Arc<Catalog>, Vec<LogicalPlan>)> = OnceLock::new();
    let s = S.get_or_init(|| (golden_catalog(), golden_plans()));
    (&s.0, &s.1)
}

/// The three variants the sequences are recorded under.
pub fn golden_variants(catalog: &Catalog) -> Vec<(&'static str, DeepSeaConfig)> {
    vec![
        ("DS", baselines::deepsea().with_phi(0.05)),
        (
            "DS-tight",
            baselines::deepsea()
                .with_phi(0.05)
                .with_smax(catalog.total_base_bytes() / 40),
        ),
        ("NP", baselines::non_partitioned()),
    ]
}

/// The seeds a sweep suite replays: the comma-separated `u64`s in the
/// environment variable `var`, or `default` when it is unset — so a sweep
/// needs no rebuild (`CHAOS_SEEDS=1,7,42 cargo test -q --test chaos`).
pub fn seeds_from_env(var: &str, default: &str) -> Vec<u64> {
    std::env::var(var)
        .unwrap_or_else(|_| default.into())
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| panic!("{var} must be comma-separated u64s"))
        })
        .collect()
}

/// Minimal deterministic generator for the sweep suites' schedules (Knuth
/// LCG, high bits only).
pub struct Lcg(u64);

impl Lcg {
    /// The generator a suite draws seed `seed`'s schedule from.
    pub fn seeded(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }

    /// The next draw, in `0..2^31`.
    pub fn draw(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One seeded fault world: everything that happens to a run, and when.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The driver's configuration, journal cadence included.
    pub config: DeepSeaConfig,
    /// Per-file faults (and injector-drawn node downs) of the file system.
    pub faults: FaultConfig,
    /// `Some((nodes, replication))` shards the file system; `None` keeps it
    /// flat.
    pub topology: Option<(u32, u32)>,
    /// `(query, node, action)`, applied just before that query, ups before
    /// downs.
    pub nodes: Vec<(usize, u32, NodeAction)>,
    /// `(query, node, latency multiplier)`, applied just before that query;
    /// a multiplier ≤ 1.0 clears the node's slowness, and clears go first.
    pub slow: Vec<(usize, u32, f64)>,
    /// Hedged replica reads past this many simulated seconds.
    pub hedge: Option<f64>,
    /// A catalog journal is attached.
    pub journal: bool,
    /// The query just before which the first crash point is armed.
    pub crash_at: usize,
    /// Crash points, each counted in journal records past the next LSN
    /// when it is armed: the first at `crash_at`, each later one right
    /// after the previous crash's restart.
    pub crashes: Vec<u64>,
    /// Serve the workload through a [`ViewServer`] with this config in
    /// place of the serial replay (see [`World::serve`]).
    pub serve: Option<ServerConfig>,
}

impl Default for FaultPlan {
    /// The golden DS variant on a flat, fault-free file system.
    fn default() -> Self {
        Self {
            config: baselines::deepsea().with_phi(0.05),
            faults: FaultConfig::disabled(),
            topology: None,
            nodes: Vec::new(),
            slow: Vec::new(),
            hedge: None,
            journal: false,
            crash_at: 0,
            crashes: Vec::new(),
            serve: None,
        }
    }
}

impl FaultPlan {
    /// The fault-free world on [`NODES`] datanodes at `replication`.
    pub fn sharded(replication: u32) -> Self {
        Self {
            topology: Some((NODES, replication)),
            ..Self::default()
        }
    }

    /// The chaos suite's headline schedule on the flat file system: 12%
    /// transient reads, 5% permanent loss, 5% transient writes, 5% latency
    /// spikes — harsh enough that every seed sees quarantines and
    /// base-table fallbacks within 50 queries.
    pub fn headline_faults(seed: u64) -> Self {
        let faults = FaultConfig::seeded(seed)
            .with_transient_reads(0.12)
            .with_permanent_loss(0.05)
            .with_transient_writes(0.05)
            .with_latency_spikes(0.05, 2.0);
        Self {
            faults,
            ..Self::default()
        }
    }

    /// A seeded single-node failure schedule at `replication`: in each
    /// five-query window one `Lcg`-chosen node goes down and comes back,
    /// so at most one node is ever down and the run ends with every node
    /// up.
    pub fn single_node_schedule(seed: u64, replication: u32) -> Self {
        Self {
            nodes: per_window(seed, |_| NodeAction::Down, NodeAction::Up),
            ..Self::sharded(replication)
        }
    }

    /// A seeded gray-failure schedule at replication 2, hedging after 10 ms:
    /// in each five-query window one `Lcg`-chosen node slows by an
    /// `Lcg`-chosen 2×–5× and recovers, so the run ends with every node at
    /// full speed.
    pub fn slow_node_schedule(seed: u64) -> Self {
        Self {
            slow: per_window(seed, |lcg| 2.0 + (lcg.draw() % 4) as f64, 1.0),
            hedge: Some(0.01),
            ..Self::sharded(2)
        }
    }

    /// This plan with a journal and four seeded crash points: the first a
    /// few records into the run, so it lands inside an early query, the
    /// later ones spread wider so the run makes progress.
    pub fn with_seeded_crashes(self, seed: u64) -> Self {
        let mut lcg = Lcg::seeded(seed);
        let mut crashes = vec![1 + lcg.draw() % 8];
        crashes.extend((0..3).map(|_| 1 + lcg.draw() % 40));
        Self {
            journal: true,
            crash_at: 0,
            crashes,
            ..self
        }
    }

    /// The composed sweep's world for `seed`, every fault kind at once:
    /// per-file transient reads and writes, permanent loss, latency spikes
    /// and corruption; injector-drawn node downs; replication 1 or 2; one
    /// slow window with hedging; a journal. One seed in four is served to
    /// two to four clients; the others replay serially with up to three
    /// crash points.
    pub fn composed(seed: u64) -> Self {
        let mut lcg = Lcg::seeded(seed);
        let mut pct = |max: u64| (lcg.draw() % (max + 1)) as f64 / 100.0;
        let faults = FaultConfig::seeded(seed)
            .with_transient_reads(pct(12))
            .with_transient_writes(pct(5))
            .with_permanent_loss(pct(5))
            .with_latency_spikes(pct(5), 2.0)
            .with_corruption(pct(5))
            .with_node_downs(pct(4), 2);
        let node = (lcg.draw() % u64::from(NODES)) as u32;
        let from = (lcg.draw() % (GOLDEN_QUERIES - WINDOW) as u64) as usize;
        let multiplier = 2.0 + (lcg.draw() % 4) as f64;
        let replication = 1 + (lcg.draw() % 2) as u32;
        let serve = lcg.draw().is_multiple_of(4).then(|| ServerConfig {
            clients: 2 + (lcg.draw() % 3) as usize,
            seed,
            mean_gap_secs: 5.0,
            ..ServerConfig::default()
        });
        let crash_count = if serve.is_some() { 0 } else { lcg.draw() % 4 };
        Self {
            faults,
            slow: vec![(from, node, multiplier), (from + WINDOW, node, 1.0)],
            hedge: Some(0.01),
            journal: true,
            crash_at: (lcg.draw() % GOLDEN_QUERIES as u64) as usize,
            crashes: (0..crash_count).map(|_| 1 + lcg.draw() % 40).collect(),
            serve,
            ..Self::sharded(replication)
        }
    }

    /// The plan's file system: flat or sharded, consulting the plan's fault
    /// injector, hedging as planned.
    pub fn file_system(&self) -> SimFs<Table> {
        let (block, weights) = (BlockConfig::default(), ClusterSim::paper_default().weights);
        let faults = FaultInjector::new(self.faults);
        let fs = match self.topology {
            None => SimFs::with_faults(block, weights, faults),
            Some((nodes, replication)) => SimFs::with_cluster(
                block,
                weights,
                faults,
                NodeSet::new(NodeConfig::new(nodes, replication)),
            ),
        };
        fs.set_hedge(self.hedge.map(HedgeConfig::after_secs));
        fs
    }

    /// The plan's world over the golden catalog.
    pub fn build(&self) -> World {
        self.build_over(Arc::clone(golden_inputs().0))
    }

    /// The plan's world over `catalog`: its file system, and a driver on the
    /// paper's cluster with the plan's config and, if planned, a journal.
    pub fn build_over(&self, catalog: Arc<Catalog>) -> World {
        let fs = Arc::new(self.file_system());
        let cluster = ClusterSim::paper_default();
        let mut ds =
            DeepSea::with_parts(Arc::clone(&catalog), Arc::clone(&fs), cluster, self.config);
        if self.journal {
            ds = ds.with_journal(Arc::new(CatalogJournal::new()));
        }
        World {
            plan: self.clone(),
            catalog,
            ds,
            fs,
        }
    }

    /// Build the world and replay the first `limit` golden queries.
    pub fn run(&self, limit: usize) -> Run {
        self.build().replay(0..limit)
    }
}

/// One `Lcg`-chosen node per `WINDOW` of the golden workload, hit by
/// `on` one query into the window and by `off` one query before it closes.
fn per_window<A: Copy>(
    seed: u64,
    mut on: impl FnMut(&mut Lcg) -> A,
    off: A,
) -> Vec<(usize, u32, A)> {
    let mut lcg = Lcg::seeded(seed);
    let mut events = Vec::new();
    for w in 0..GOLDEN_QUERIES / WINDOW {
        let node = (lcg.draw() % u64::from(NODES)) as u32;
        events.push((w * WINDOW + 1, node, on(&mut lcg)));
        events.push((w * WINDOW + WINDOW - 1, node, off));
    }
    events
}

/// What one serial replay observed.
#[derive(Debug, Default)]
pub struct Run {
    /// Per-query answer fingerprints.
    pub fingerprints: Vec<Vec<String>>,
    /// Per-query `elapsed_secs`, as bits.
    pub elapsed_bits: Vec<u64>,
    /// Per-query `query_secs`, as bits.
    pub query_secs_bits: Vec<u64>,
    /// The per-query traces, summed.
    pub trace: QueryTrace,
    /// The file system's fault counters at the end.
    pub faults: FaultStats,
    /// The registry's `state_digest` at the end.
    pub state_digest: u64,
    /// Simulated crashes the replay restarted from.
    pub crashes: u32,
    /// A view quarantined earlier was materialized again later.
    pub rematerialized: bool,
    /// Fragments still offline (every replica on a down node) at the end.
    pub offline_at_end: usize,
}

/// The fault-free serial run of the golden workload on `topology` (`None`,
/// or [`NODES`] nodes at replication 1 or 2), computed once per process.
/// The flat run's answers are the oracle's.
pub fn fault_free(topology: Option<(u32, u32)>) -> &'static Run {
    static RUNS: [OnceLock<Run>; 3] = [const { OnceLock::new() }; 3];
    let slot = match topology {
        None => 0,
        Some((NODES, r @ 1..=2)) => r as usize,
        Some(t) => panic!("no fault-free run is kept for topology {t:?}"),
    };
    RUNS[slot].get_or_init(|| {
        let want = topology.map(|_| fault_free(None).fingerprints.as_slice());
        let mut world = FaultPlan {
            topology,
            ..FaultPlan::default()
        }
        .build();
        world.replay_against(0..GOLDEN_QUERIES, want)
    })
}

/// A built [`FaultPlan`]: the driver and its file system.
pub struct World {
    /// The plan the world was built from.
    pub plan: FaultPlan,
    catalog: Arc<Catalog>,
    /// The driver; a restart replaces it.
    pub ds: DeepSea,
    /// The file system, which outlives every restart.
    pub fs: Arc<SimFs<Table>>,
}

impl World {
    /// Replay the golden `queries` serially under the plan, checking the
    /// oracle after every query.
    pub fn replay(&mut self, queries: Range<usize>) -> Run {
        self.replay_against(queries, Some(&fault_free(None).fingerprints))
    }

    fn replay_against(&mut self, queries: Range<usize>, want: Option<&[Vec<String>]>) -> Run {
        let plans = golden_inputs().1;
        if !self.plan.crashes.is_empty() {
            silence_simulated_crashes();
        }
        let mut run = Run::default();
        let mut quarantined: Vec<String> = Vec::new();
        for i in queries {
            self.apply_events(i);
            if i == self.plan.crash_at {
                self.arm_crash(0);
            }
            let o = loop {
                match catch_unwind(AssertUnwindSafe(|| self.ds.process_query(&plans[i]))) {
                    Ok(o) => {
                        break o.unwrap_or_else(|e| {
                            panic!("query {i}: faults must never surface: {e}\n{:?}", self.plan)
                        })
                    }
                    Err(payload) if payload.is::<SimulatedCrash>() => {
                        // The disk and the journal survive; the driver is
                        // gone. Replay the interrupted query after restart.
                        run.crashes += 1;
                        self.restart();
                        self.arm_crash(run.crashes as usize);
                    }
                    Err(payload) => resume_unwind(payload),
                }
            };
            let answer = o.result.fingerprint().to_vec();
            if let Some(want) = want {
                assert_eq!(
                    answer, want[i],
                    "query {i}: answer diverged from the fault-free run\n{:?}",
                    self.plan
                );
            }
            self.check_pool(&format_args!("query {i}"));
            run.rematerialized |= o.materialized.iter().any(|m| {
                quarantined.iter().any(|q| {
                    m.strip_prefix(q.as_str())
                        .is_some_and(|r| r.is_empty() || r.starts_with('.'))
                })
            });
            quarantined.extend(o.quarantined.iter().cloned());
            run.fingerprints.push(answer);
            run.elapsed_bits.push(o.elapsed_secs.to_bits());
            run.query_secs_bits.push(o.query_secs.to_bits());
            run.trace += o.trace;
        }
        run.faults = self.fs.fault_stats();
        run.state_digest = self.ds.registry().state_digest();
        run.offline_at_end = self.ds.offline_fragments().len();
        run
    }

    /// Apply the plan's events keyed to query `i`: ups before downs, so a
    /// boundary that moves an outage never has two nodes down, and clears
    /// before slows, likewise.
    fn apply_events(&self, i: usize) {
        let plan = &self.plan;
        for action in [NodeAction::Up, NodeAction::Down] {
            for &(_, node, _) in plan.nodes.iter().filter(|e| e.0 == i && e.2 == action) {
                match action {
                    NodeAction::Up => self.fs.set_node_up(NodeId(node)),
                    NodeAction::Down => self.fs.set_node_down(NodeId(node)),
                };
            }
        }
        for &(_, node, _) in plan.slow.iter().filter(|e| e.0 == i && e.2 <= 1.0) {
            self.fs.clear_node_slow(NodeId(node));
        }
        for &(_, node, mult) in plan.slow.iter().filter(|e| e.0 == i && e.2 > 1.0) {
            self.fs.set_node_slow(NodeId(node), mult);
        }
    }

    /// Arm the plan's `k`-th crash point, if it has one.
    fn arm_crash(&self, k: usize) {
        if let (Some(journal), Some(&after)) = (self.ds.journal(), self.plan.crashes.get(k)) {
            journal.arm_crash(Lsn(journal.next_lsn().0 + after));
        }
    }

    /// The oracle's pool half: the file system, the registry and the pool
    /// ledger agree on the pool's bytes, and nothing was over-released.
    fn check_pool(&self, at: &dyn Display) {
        let fs = self.fs.total_bytes();
        let registry = self.ds.pool_bytes();
        let ledger = self.ds.pool_accountant().used();
        assert!(
            fs == registry && registry == ledger,
            "{at}: pool accounting diverged (fs {fs}, registry {registry}, ledger {ledger})\n{:?}",
            self.plan
        );
        assert_eq!(
            self.ds.pool_accountant().violations(),
            0,
            "{at}: pool over-release\n{:?}",
            self.plan
        );
    }

    /// Restart the driver as a crashed process would: recover twice from
    /// the journal. Both recoveries must reach the same registry and clock,
    /// the second must replay no record (the first compacted the journal)
    /// and find nothing to repair, and the pool must check out. The second
    /// driver, given the dead one's observer, replaces it; its fsck report
    /// is returned.
    pub fn restart(&mut self) -> FsckReport {
        let (first, _) = self.recover();
        let (second, fsck) = self.recover();
        let plan = &self.plan;
        assert_eq!(
            first.registry().state_digest(),
            second.registry().state_digest(),
            "recovery is not idempotent\n{plan:?}"
        );
        assert_eq!(
            first.clock(),
            second.clock(),
            "recovered clocks diverged\n{plan:?}"
        );
        let repairs = (
            fsck.replayed_records,
            fsck.orphan_files,
            fsck.missing_files,
            fsck.corrupt_files,
            fsck.quarantined_views,
        );
        assert_eq!(
            repairs,
            (0, 0, 0, 0, 0),
            "the second recovery found work: {fsck:?}\n{plan:?}"
        );
        self.ds = second.with_observer(self.ds.observer().clone());
        self.check_pool(&"after recovery");
        fsck
    }

    /// One cold start from the world's journal, on its file system as it
    /// stands.
    pub fn recover(&self) -> (DeepSea, FsckReport) {
        let journal = self.ds.journal().expect("a restarted world has a journal");
        DeepSea::recover(
            Arc::clone(&self.catalog),
            Arc::clone(&self.fs),
            Box::new(SimBackend::new(ClusterSim::paper_default())),
            self.plan.config,
            Arc::clone(journal),
        )
    }

    /// Serve the first `limit` golden queries through a [`ViewServer`]
    /// configured by `cfg`, the plan's node and slow events joining its
    /// schedules (keyed by commit), and check the oracle: one record per
    /// query, every committed and every read answer equal to the fault-free
    /// one, and the drained driver's pool in order.
    pub fn serve(mut self, mut cfg: ServerConfig, limit: usize) -> ServeReport {
        cfg.node_schedule.extend(self.plan.nodes.iter().copied());
        cfg.slow_schedule.extend(self.plan.slow.iter().copied());
        let mut server = ViewServer::new(self.ds, cfg);
        let report = server
            .run(&golden_inputs().1[..limit])
            .unwrap_or_else(|e| panic!("serving must absorb every fault: {e}\n{:?}", self.plan));
        let want = &fault_free(None).fingerprints;
        assert_eq!(report.records.len(), limit, "ticket count\n{:?}", self.plan);
        for rec in &report.records {
            let t = rec.ticket;
            for (what, got) in [
                ("committed", &rec.committed_fingerprint),
                ("read", &rec.read_fingerprint),
            ] {
                assert_eq!(
                    &got[..],
                    &want[t][..],
                    "ticket {t}: {what} answer diverged from the fault-free run\n{:?}",
                    self.plan
                );
            }
        }
        self.ds = server.into_inner();
        self.check_pool(&"the drained server");
        report
    }
}

/// Keep [`SimulatedCrash`] payloads out of the panic log: the replay throws
/// and catches them by design. Every other panic keeps the default hook.
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
