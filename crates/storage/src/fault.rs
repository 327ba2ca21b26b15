//! Deterministic fault injection for the simulated file system.
//!
//! DeepSea treats materialized views as opportunistic accelerators: the base
//! tables can always answer a query, so losing a fragment must never lose an
//! answer. To exercise that property the file system can be configured with a
//! [`FaultInjector`] that perturbs I/O with three independent failure modes:
//!
//! * **Transient read/write failures** — the operation fails but the file is
//!   intact; a retry may succeed (a flaky datanode, a timed-out RPC).
//! * **Permanent fragment loss** — the file is gone for good (all replicas
//!   lost); retries cannot help and the caller must degrade gracefully.
//! * **Latency spikes** — the operation succeeds but costs extra simulated
//!   seconds (a straggling datanode).
//! * **Corruption** — the file's payload is intact but its checksum no longer
//!   matches (bit rot, a torn write surviving a crash); the read detects the
//!   mismatch and fails instead of serving bad data. Corruption is sticky:
//!   once a file is corrupted, every subsequent read fails until the file is
//!   quarantined or deleted.
//!
//! The injector is seed-driven (xoshiro256++) and consumes exactly one random
//! draw per consulted operation, so a fault schedule is a pure function of
//! `(seed, operation sequence)` — replays are bit-reproducible. A disabled
//! injector consumes no draws and adds no branches beyond one rate check, so
//! the zero-fault path stays behaviour-identical to a build without faults.

use std::error::Error;
use std::fmt;
// deepsea-lint: allow(layering) -- fault-injector RNG cell; single lock, no nested acquisition
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::file::FileId;

/// Rates and magnitudes for each injected failure mode.
///
/// All per-file rates are probabilities in `[0, 1]` evaluated independently
/// per operation; their sum must not exceed 1 (they partition a single
/// uniform draw). The one node-scoped mode, the outage rate, takes its own
/// draw per consulted operation on a sharded file system; a slow node is
/// only ever scheduled, never drawn. The default is fully disabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the injector's private PRNG stream.
    pub seed: u64,
    /// Probability a read fails transiently (file intact, retry may succeed).
    pub transient_read_rate: f64,
    /// Probability a read discovers the file permanently lost (file removed).
    pub permanent_loss_rate: f64,
    /// Probability a write (create) fails transiently (nothing written).
    pub transient_write_rate: f64,
    /// Probability an otherwise-successful operation straggles.
    pub latency_spike_rate: f64,
    /// Extra simulated seconds charged by a latency spike.
    pub latency_spike_secs: f64,
    /// Probability a read discovers the file corrupt (payload intact,
    /// checksum mismatch). Corruption is sticky: the file stays corrupt.
    pub corruption_rate: f64,
    /// Probability a consulted operation takes a whole node down
    /// (temporarily); the victim is derived from the same draw. Only
    /// consulted when the file system has a cluster attached.
    pub node_down_rate: f64,
    /// Consulted operations after which an injector-downed node returns
    /// (the repair countdown; see `NodeSet::tick_repairs`).
    pub node_repair_ops: u64,
}

impl FaultConfig {
    /// A configuration that injects nothing (all rates zero).
    pub fn disabled() -> Self {
        Self {
            seed: 0,
            transient_read_rate: 0.0,
            permanent_loss_rate: 0.0,
            transient_write_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike_secs: 0.0,
            corruption_rate: 0.0,
            node_down_rate: 0.0,
            node_repair_ops: 0,
        }
    }

    /// A zeroed configuration with the given seed; set rates via the
    /// `with_*` builders.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::disabled()
        }
    }

    /// Set the transient read-failure rate.
    pub fn with_transient_reads(mut self, rate: f64) -> Self {
        self.transient_read_rate = rate;
        self
    }

    /// Set the permanent fragment-loss rate.
    pub fn with_permanent_loss(mut self, rate: f64) -> Self {
        self.permanent_loss_rate = rate;
        self
    }

    /// Set the transient write-failure rate.
    pub fn with_transient_writes(mut self, rate: f64) -> Self {
        self.transient_write_rate = rate;
        self
    }

    /// Set the latency-spike rate and magnitude.
    pub fn with_latency_spikes(mut self, rate: f64, secs: f64) -> Self {
        self.latency_spike_rate = rate;
        self.latency_spike_secs = secs;
        self
    }

    /// Set the checksum-corruption rate.
    pub fn with_corruption(mut self, rate: f64) -> Self {
        self.corruption_rate = rate;
        self
    }

    /// Set the node-outage rate and the repair countdown (consulted
    /// operations until an injector-downed node returns).
    pub fn with_node_downs(mut self, rate: f64, repair_ops: u64) -> Self {
        self.node_down_rate = rate;
        self.node_repair_ops = repair_ops;
        self
    }

    /// Whether any per-file failure mode has a non-zero rate. Node-scoped
    /// rates are deliberately excluded: they gate their own draw (consulted
    /// only when a cluster is attached), so configs without node rates keep
    /// exactly the per-file fault schedule they had before node faults
    /// existed.
    pub fn enabled(&self) -> bool {
        self.transient_read_rate > 0.0
            || self.permanent_loss_rate > 0.0
            || self.transient_write_rate > 0.0
            || self.latency_spike_rate > 0.0
            || self.corruption_rate > 0.0
    }

    /// Whether injected node outages are active.
    pub fn node_enabled(&self) -> bool {
        self.node_down_rate > 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Counters for faults actually injected, for harness assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reads that failed transiently.
    pub transient_reads: u64,
    /// Reads that discovered a permanently lost file.
    pub permanent_losses: u64,
    /// Writes that failed transiently.
    pub transient_writes: u64,
    /// Operations that straggled.
    pub latency_spikes: u64,
    /// Reads that discovered a corrupt file (checksum mismatch).
    pub corruptions: u64,
    /// Whole nodes taken down (temporarily).
    pub node_downs: u64,
    /// Whole nodes restored after an outage.
    pub node_ups: u64,
    /// Slow-node (gray failure) windows opened.
    pub node_slows: u64,
    /// Hedged reads issued (primary exceeded the hedge threshold with a
    /// second live replica available).
    pub hedges_issued: u64,
    /// Hedges where the replica finished first (the hedge paid off).
    pub hedges_won: u64,
    /// Hedges cancelled because the primary finished first anyway.
    pub hedges_cancelled: u64,
}

/// Verdict for a single read operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ReadFault {
    /// Proceed normally.
    None,
    /// Fail transiently; file intact.
    Transient,
    /// The file is lost; remove it.
    Permanent,
    /// The file's checksum no longer matches; mark it corrupt.
    Corrupt,
    /// Succeed, but charge extra seconds.
    Spike(f64),
}

/// Verdict for a single write operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum WriteFault {
    /// Proceed normally.
    None,
    /// Fail transiently; nothing written.
    Transient,
    /// Succeed, but charge extra seconds.
    Spike(f64),
}

/// A deterministic, seed-driven source of injected I/O faults.
///
/// Each consulted operation consumes exactly one uniform draw from a private
/// xoshiro256++ stream and maps it onto the configured failure modes via
/// cumulative thresholds (permanent, then transient, then latency spike), so
/// the schedule depends only on the seed and the sequence of operations.
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    state: Mutex<State>,
}

#[derive(Debug)]
struct State {
    rng: StdRng,
    stats: FaultStats,
}

impl FaultInjector {
    /// Build an injector from a configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        Self {
            state: Mutex::new(State {
                rng: StdRng::seed_from_u64(cfg.seed),
                stats: FaultStats::default(),
            }),
            cfg,
        }
    }

    /// An injector that never injects and never draws.
    pub fn disabled() -> Self {
        Self::new(FaultConfig::disabled())
    }

    /// The configuration in force.
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    /// Whether any failure mode is active.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// Snapshot of the faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).stats
    }

    /// Decide the fate of a read. Disabled injectors consume no draws.
    pub(crate) fn decide_read(&self) -> ReadFault {
        if !self.enabled() {
            return ReadFault::None;
        }
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let u: f64 = st.rng.random();
        let c = &self.cfg;
        let mut edge = c.permanent_loss_rate;
        if u < edge {
            st.stats.permanent_losses += 1;
            return ReadFault::Permanent;
        }
        edge += c.transient_read_rate;
        if u < edge {
            st.stats.transient_reads += 1;
            return ReadFault::Transient;
        }
        edge += c.corruption_rate;
        if u < edge {
            st.stats.corruptions += 1;
            return ReadFault::Corrupt;
        }
        edge += c.latency_spike_rate;
        if u < edge {
            st.stats.latency_spikes += 1;
            return ReadFault::Spike(c.latency_spike_secs);
        }
        ReadFault::None
    }

    /// Decide whether a node outage fires for this consulted operation,
    /// and which of `nodes` it takes down (returning after
    /// `FaultConfig::node_repair_ops`). Consumes one draw from the same
    /// seeded stream as the per-file modes — but only when the outage rate
    /// is set (otherwise zero draws, preserving existing schedules). The
    /// victim is derived by scaling the draw within the outage band, so one
    /// uniform decides both the event and the node.
    pub(crate) fn decide_node(&self, nodes: u32) -> Option<u32> {
        if !self.cfg.node_enabled() || nodes == 0 {
            return None;
        }
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let u: f64 = st.rng.random();
        let rate = self.cfg.node_down_rate;
        (u < rate).then(|| {
            let frac = (u / rate).clamp(0.0, 1.0 - f64::EPSILON);
            (frac * nodes as f64) as u32
        })
    }

    /// Decide the fate of a write. Disabled injectors consume no draws.
    pub(crate) fn decide_write(&self) -> WriteFault {
        if !self.enabled() {
            return WriteFault::None;
        }
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let u: f64 = st.rng.random();
        let c = &self.cfg;
        let mut edge = c.transient_write_rate;
        if u < edge {
            st.stats.transient_writes += 1;
            return WriteFault::Transient;
        }
        edge += c.latency_spike_rate;
        if u < edge {
            st.stats.latency_spikes += 1;
            return WriteFault::Spike(c.latency_spike_secs);
        }
        WriteFault::None
    }
}

/// Why a fallible I/O operation failed.
///
/// The transient/permanent split is the contract the retry layer depends on:
/// transient failures are worth retrying, permanent ones never are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoError {
    /// A read failed but the file is intact; a retry may succeed.
    TransientRead(FileId),
    /// A write failed and nothing was persisted; a retry may succeed.
    TransientWrite,
    /// The file is gone — either never existed, was deleted, or all replicas
    /// were lost. Retries cannot help.
    PermanentLoss(FileId),
    /// The file exists but its checksum no longer matches its contents.
    /// Corruption is sticky, so retries cannot help; the file must never be
    /// served and should be quarantined or deleted.
    Corrupt(FileId),
}

impl IoError {
    /// Whether retrying the operation could succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, Self::TransientRead(_) | Self::TransientWrite)
    }

    /// The file involved, when the operation names one.
    pub fn file(&self) -> Option<FileId> {
        match self {
            Self::TransientRead(id) | Self::PermanentLoss(id) | Self::Corrupt(id) => Some(*id),
            Self::TransientWrite => None,
        }
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TransientRead(id) => write!(f, "transient read failure on file {id}"),
            Self::TransientWrite => write!(f, "transient write failure"),
            Self::PermanentLoss(id) => write!(f, "file {id} permanently lost"),
            Self::Corrupt(id) => write!(f, "file {id} corrupt (checksum mismatch)"),
        }
    }
}

impl Error for IoError {}

/// A successful fallible I/O operation, with its cost breakdown.
#[derive(Debug, Clone)]
pub struct IoOutcome<T> {
    /// The operation's result (payload for reads, file id for writes).
    pub value: T,
    /// Simulated bytes moved.
    pub sim_bytes: u64,
    /// Base simulated cost of the operation in seconds.
    pub cost_secs: f64,
    /// Extra seconds from an injected latency spike (zero when none fired).
    pub spike_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_faults() {
        let inj = FaultInjector::disabled();
        for _ in 0..100 {
            assert_eq!(inj.decide_read(), ReadFault::None);
            assert_eq!(inj.decide_write(), WriteFault::None);
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let cfg = FaultConfig::seeded(42)
            .with_transient_reads(0.3)
            .with_permanent_loss(0.1)
            .with_latency_spikes(0.2, 1.5);
        let run = |cfg: FaultConfig| {
            let inj = FaultInjector::new(cfg);
            (0..64).map(|_| inj.decide_read()).collect::<Vec<_>>()
        };
        assert_eq!(run(cfg), run(cfg));
        let other = run(FaultConfig { seed: 43, ..cfg });
        assert_ne!(run(cfg), other, "different seeds give different schedules");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let cfg = FaultConfig::seeded(7)
            .with_transient_reads(0.2)
            .with_permanent_loss(0.05);
        let inj = FaultInjector::new(cfg);
        let n = 20_000;
        for _ in 0..n {
            inj.decide_read();
        }
        let s = inj.stats();
        let frac = |c: u64| c as f64 / n as f64;
        assert!((frac(s.transient_reads) - 0.2).abs() < 0.02);
        assert!((frac(s.permanent_losses) - 0.05).abs() < 0.01);
        assert_eq!(s.latency_spikes, 0);
    }

    #[test]
    fn write_faults_only_draw_from_write_modes() {
        let cfg = FaultConfig::seeded(3).with_permanent_loss(1.0);
        let inj = FaultInjector::new(cfg);
        // Permanent loss is a read-side mode; writes must be unaffected.
        for _ in 0..32 {
            assert_eq!(inj.decide_write(), WriteFault::None);
        }
    }

    #[test]
    fn io_error_classification() {
        let f = FileId(3);
        assert!(IoError::TransientRead(f).is_transient());
        assert!(IoError::TransientWrite.is_transient());
        assert!(!IoError::PermanentLoss(f).is_transient());
        assert!(!IoError::Corrupt(f).is_transient(), "corruption is sticky");
        assert_eq!(IoError::TransientRead(f).file(), Some(f));
        assert_eq!(IoError::PermanentLoss(f).file(), Some(f));
        assert_eq!(IoError::Corrupt(f).file(), Some(f));
        assert_eq!(IoError::TransientWrite.file(), None);
        assert!(IoError::PermanentLoss(f).to_string().contains("lost"));
        assert!(IoError::Corrupt(f).to_string().contains("checksum"));
    }

    #[test]
    fn node_faults_draw_nothing_unless_configured() {
        // Per-file modes active, node rates zero: decide_node must not
        // consume a draw, so the read schedule is identical with and
        // without interleaved decide_node calls.
        let cfg = FaultConfig::seeded(42).with_transient_reads(0.3);
        let plain = FaultInjector::new(cfg);
        let mixed = FaultInjector::new(cfg);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..32 {
            a.push(plain.decide_read());
            assert_eq!(mixed.decide_node(4), None);
            b.push(mixed.decide_read());
        }
        assert_eq!(a, b);
    }

    #[test]
    fn node_faults_fire_deterministically_and_pick_in_range() {
        let cfg = FaultConfig::seeded(9).with_node_downs(0.3, 5);
        assert!(cfg.node_enabled());
        assert!(!cfg.enabled(), "node rates alone leave per-file modes off");
        let run = || {
            let inj = FaultInjector::new(cfg);
            (0..256).map(|_| inj.decide_node(4)).collect::<Vec<_>>()
        };
        let events = run();
        assert_eq!(events, run(), "same seed, same node schedule");
        let downs: Vec<u32> = events.iter().flatten().copied().collect();
        assert!(!downs.is_empty() && downs.len() < events.len());
        assert!(
            downs.iter().all(|&n| n < 4),
            "victim index scaled into the topology"
        );
    }

    #[test]
    fn one_draw_decides_both_the_outage_and_its_victim() {
        // Same seed, so the same uniform `u` per call. At rate 0.5 a call
        // fires iff `u < 0.5` and hits node `floor(8u)`; at rate 1.0 every
        // call fires and hits node `floor(4u)`, which is the half-rate
        // victim halved, and node 2 or 3 where the half-rate call missed.
        let run = |rate: f64| {
            let inj = FaultInjector::new(FaultConfig::seeded(11).with_node_downs(rate, 3));
            (0..256).map(|_| inj.decide_node(4)).collect::<Vec<_>>()
        };
        let (half, full) = (run(0.5), run(1.0));
        let mut seen = [false; 4];
        for (h, f) in half.iter().zip(&full) {
            let f = f.expect("a full band fires on every call");
            seen[f as usize] = true;
            match h {
                Some(v) => assert_eq!(f, v / 2, "victim scales with the band"),
                None => assert!(f >= 2, "a miss at 0.5 is a draw in [0.5, 1)"),
            }
        }
        assert_eq!(seen, [true; 4], "every node is a possible victim");
    }

    #[test]
    fn an_empty_topology_takes_no_node_draw() {
        // With no nodes there is no victim: the call returns before the
        // draw, so the stream that follows is a fresh injector's.
        let cfg = FaultConfig::seeded(13).with_node_downs(1.0, 2);
        let probed = FaultInjector::new(cfg);
        let fresh = FaultInjector::new(cfg);
        for _ in 0..8 {
            assert_eq!(probed.decide_node(0), None);
        }
        let a: Vec<_> = (0..32).map(|_| probed.decide_node(5)).collect();
        let b: Vec<_> = (0..32).map(|_| fresh.decide_node(5)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn corruption_rate_fires_and_counts() {
        let inj = FaultInjector::new(FaultConfig::seeded(5).with_corruption(1.0));
        assert_eq!(inj.decide_read(), ReadFault::Corrupt);
        assert_eq!(inj.stats().corruptions, 1);
        // Corruption is a read-side mode; writes are unaffected.
        assert_eq!(inj.decide_write(), WriteFault::None);
    }
}
