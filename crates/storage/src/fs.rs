//! The simulated distributed file system.

use std::collections::BTreeMap;
// deepsea-lint: allow(lock_discipline) -- the SimFs inner state is the one sanctioned shared-state hub below sync.rs
use std::sync::{Arc, Mutex, MutexGuard};

use crate::block::BlockConfig;
use crate::fault::{
    FaultInjector, FaultStats, IoError, IoOutcome, NodeFault, ReadFault, WriteFault,
};
use crate::file::{FileId, StoredFile};
use crate::ledger::CostLedger;
use crate::node::{NodeId, NodeSet, NodeState, Route};
use crate::weights::CostWeights;

/// A simulated HDFS-like file system.
///
/// Thread-safe: the experiment harness runs independent system variants in
/// parallel, each with its own `SimFs`, but a single variant may also be
/// driven from multiple threads.
///
/// Every read/write is charged to an internal [`CostLedger`]; the cost in
/// abstract units (seconds) is returned to the caller so the execution engine
/// can fold it into a query's elapsed time.
///
/// A `SimFs` may optionally be *sharded* over a simulated cluster (see
/// [`SimFs::with_cluster`] and the [`ShardedFs`] alias): files are placed on
/// [`NodeSet`] datanodes, reads fail over to the first live replica, a down
/// node makes its un-replicated files fail as transient, and a dead node
/// converts them to permanent loss. Without a cluster every behaviour is
/// bit-identical to before the cluster layer existed.
///
/// **Gray failure and hedging.** A cluster node can also be *slow* (alive
/// but degraded, [`NodeSet::set_node_slow`]): reads it serves cost its
/// latency multiplier times their base simulated seconds, folded into
/// `spike_secs`. When a [`HedgeConfig`] is set, a read whose serving replica
/// would exceed the hedge threshold issues a *hedged read* to the next live
/// replica and takes the faster result — deterministically, with no extra
/// random draws (the replica's cost is the same base cost scaled by *its*
/// multiplier). Both ops' work is accounted honestly: the winner's latency
/// lands in the returned `IoOutcome`, the loser's cancelled work accumulates
/// in [`SimFs::hedge_extra_secs`].
pub struct SimFs<P> {
    inner: Mutex<Inner<P>>,
    block: BlockConfig,
    weights: CostWeights,
    faults: FaultInjector,
    cluster: Option<NodeSet>,
}

/// Drainable per-race hedge details, recorded only when the I/O trace is
/// enabled (see [`SimFs::set_io_trace`]). The storage layer cannot see the
/// observer, so the tracing layer above drains these and converts them to
/// spans — the same pattern as the retry-debt drain in the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeTrace {
    /// The file whose read hedged.
    pub file: FileId,
    /// The replica that was serving the read (the slow arm's node).
    pub primary: NodeId,
    /// The replica the hedge raced against it.
    pub replica: NodeId,
    /// The primary arm's uncancelled finish line, seconds from read start.
    pub primary_secs: f64,
    /// The hedge arm's finish line (launched at the threshold), seconds
    /// from read start.
    pub replica_secs: f64,
    /// The hedge launch offset, seconds from read start.
    pub threshold_secs: f64,
    /// True when the hedge (replica) arm won the race.
    pub winner_replica: bool,
}

/// Gate plus buffer for the drainable I/O trace. Disabled (the default) it
/// is a single `bool` check per hedge — no allocation, no recording — so
/// untraced runs stay bit-and-cost identical.
#[derive(Debug, Default)]
struct IoTraceState {
    enabled: bool,
    hedges: Vec<HedgeTrace>,
}

/// Hedged-read policy: when a read's serving replica would exceed
/// `threshold_secs` of simulated latency, hedge to the next live replica and
/// take the faster result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Simulated seconds after which a read is hedged to the next replica.
    pub threshold_secs: f64,
}

impl HedgeConfig {
    /// Hedge reads slower than `threshold_secs` simulated seconds.
    pub fn after_secs(threshold_secs: f64) -> Self {
        Self { threshold_secs }
    }
}

/// Hedged-read accounting, kept outside [`FaultStats`] because the wasted
/// work is an `f64` (FaultStats stays `Eq`); the integer counters are merged
/// into [`SimFs::fault_stats`].
#[derive(Debug, Clone, Copy, Default)]
struct HedgeCounters {
    issued: u64,
    won: u64,
    cancelled: u64,
    extra_secs: f64,
}

/// A cluster-attached [`SimFs`]: same type, sharded semantics. Build one
/// with [`SimFs::with_cluster`].
pub type ShardedFs<P> = SimFs<P>;

struct Inner<P> {
    files: BTreeMap<FileId, StoredFile<P>>,
    next_id: u64,
    ledger: CostLedger,
    hedge: Option<HedgeConfig>,
    hedge_stats: HedgeCounters,
    io_trace: IoTraceState,
}

impl<P> SimFs<P> {
    /// Lock the interior state. Poisoning is ignored (parking_lot semantics):
    /// the ledger, file map and hedge accounting stay consistent under panic
    /// because every mutation is a single insert/remove/record call.
    fn locked(&self) -> MutexGuard<'_, Inner<P>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Create an empty file system with no fault injection.
    pub fn new(block: BlockConfig, weights: CostWeights) -> Self {
        Self::with_faults(block, weights, FaultInjector::disabled())
    }

    /// Create an empty file system whose fallible I/O (`try_read` /
    /// `try_create`) consults the given fault injector. The infallible APIs
    /// (`read` / `create`) never consult it and remain the zero-fault fast
    /// path.
    pub fn with_faults(block: BlockConfig, weights: CostWeights, faults: FaultInjector) -> Self {
        Self {
            inner: Mutex::new(Inner {
                files: BTreeMap::new(),
                next_id: 0,
                ledger: CostLedger::new(),
                hedge: None,
                hedge_stats: HedgeCounters::default(),
                io_trace: IoTraceState::default(),
            }),
            block,
            weights,
            faults,
            cluster: None,
        }
    }

    /// Shard the file system over a simulated cluster. Files placed via
    /// [`SimFs::place`] (or [`SimFs::try_create_placed`]) are then routed
    /// through the cluster's liveness state: reads fail over to the first
    /// live replica, an outage (every replica down) fails as transient, and
    /// total replica death converts the file to permanent loss.
    pub fn with_cluster(
        block: BlockConfig,
        weights: CostWeights,
        faults: FaultInjector,
        cluster: NodeSet,
    ) -> Self {
        Self {
            cluster: Some(cluster),
            ..Self::with_faults(block, weights, faults)
        }
    }

    /// The attached cluster, when the file system is sharded.
    pub fn cluster(&self) -> Option<&NodeSet> {
        self.cluster.as_ref()
    }

    /// The block configuration in force.
    pub fn block_config(&self) -> BlockConfig {
        self.block
    }

    /// The cost weights in force.
    pub fn weights(&self) -> CostWeights {
        self.weights
    }

    /// Write a new file; returns its id and the simulated cost of the write.
    pub fn create(&self, name: impl Into<String>, sim_bytes: u64, payload: P) -> (FileId, f64) {
        let mut inner = self.locked();
        let id = FileId(inner.next_id);
        inner.next_id += 1;
        inner
            .files
            .insert(id, StoredFile::new(name, sim_bytes, payload));
        inner.ledger.record_write(sim_bytes);
        (id, self.weights.write_cost(sim_bytes))
    }

    /// Read a file; returns the payload, its simulated size, and the cost of
    /// the read. Returns `None` for an unknown id — or for a corrupt file:
    /// checksums are verified on every read and corrupt data is never served.
    /// (Files only become corrupt through fault injection or
    /// [`SimFs::corrupt_file`], so the zero-fault path is unaffected.)
    pub fn read(&self, id: FileId) -> Option<(Arc<P>, u64, f64)> {
        let mut inner = self.locked();
        let file = inner.files.get(&id)?;
        if !file.verify() {
            return None;
        }
        let bytes = file.sim_bytes;
        let payload = Arc::clone(&file.payload);
        inner.ledger.record_read(bytes);
        Some((payload, bytes, self.weights.read_cost(bytes)))
    }

    /// Read a file through the fault injector.
    ///
    /// This is the fallible twin of [`SimFs::read`]: with fault injection
    /// disabled it behaves identically (same ledger charges, same cost) and
    /// consumes no random draws. With faults enabled an operation may fail
    /// transiently (file intact, nothing charged to the ledger), discover the
    /// file permanently lost (file removed; deletion is metadata-only, so no
    /// ledger charge either), or straggle (success plus `spike_secs`).
    pub fn try_read(&self, id: FileId) -> Result<IoOutcome<Arc<P>>, IoError> {
        self.drive_node_faults();
        let mut inner = self.locked();
        let (bytes, payload) = match inner.files.get(&id) {
            None => return Err(IoError::PermanentLoss(id)),
            // Corruption is sticky: a file that failed verification once
            // keeps failing, without consuming further fault draws.
            Some(f) if !f.verify() => return Err(IoError::Corrupt(id)),
            Some(f) => (f.sim_bytes, Arc::clone(&f.payload)),
        };
        // Cluster routing: failover to the first live replica is free
        // (metadata-only), an outage fails transient without consuming a
        // per-file draw, and total replica death removes the file.
        let serving = if let Some(cluster) = &self.cluster {
            match cluster.route(id) {
                Route::Live(n) => Some(n),
                Route::Outage => return Err(IoError::TransientRead(id)),
                Route::Lost => {
                    inner.files.remove(&id);
                    cluster.forget(id);
                    return Err(IoError::PermanentLoss(id));
                }
            }
        } else {
            None
        };
        let spike_secs = match self.faults.decide_read() {
            ReadFault::None => 0.0,
            ReadFault::Transient => return Err(IoError::TransientRead(id)),
            ReadFault::Permanent => {
                inner.files.remove(&id);
                return Err(IoError::PermanentLoss(id));
            }
            ReadFault::Corrupt => {
                if let Some(f) = inner.files.get_mut(&id) {
                    f.corrupt();
                }
                return Err(IoError::Corrupt(id));
            }
            ReadFault::Spike(secs) => secs,
        };
        inner.ledger.record_read(bytes);
        let cost_secs = self.weights.read_cost(bytes);
        let spike_secs = self.shaped_spike_secs(&mut inner, id, serving, cost_secs, spike_secs);
        Ok(IoOutcome {
            value: payload,
            sim_bytes: bytes,
            cost_secs,
            spike_secs,
        })
    }

    /// Apply gray-failure shaping to a successful read: scale by the serving
    /// replica's latency multiplier, then hedge to the next live replica when
    /// the total exceeds the hedge threshold. Returns the final `spike_secs`
    /// (total latency minus base cost). Bit-identical passthrough when the
    /// serving node is healthy and no hedge fires — the multiplier `1.0`
    /// path performs no float arithmetic on `spike`.
    fn shaped_spike_secs(
        &self,
        inner: &mut Inner<P>,
        id: FileId,
        serving: Option<NodeId>,
        base_secs: f64,
        spike: f64,
    ) -> f64 {
        let (Some(cluster), Some(node)) = (&self.cluster, serving) else {
            return spike;
        };
        let mut spike = spike;
        let mult = cluster.latency_multiplier(node);
        if mult > 1.0 {
            spike += base_secs * (mult - 1.0);
        }
        let Some(hedge) = inner.hedge else {
            return spike;
        };
        let primary_total = base_secs + spike;
        if primary_total <= hedge.threshold_secs {
            return spike;
        }
        // Next live replica in failover order (the serving node is the
        // first); no replica, no hedge.
        let Some(replica) = cluster.placement(id).and_then(|nodes| {
            nodes
                .into_iter()
                .find(|&n| n != node && cluster.node_state(n) == Some(NodeState::Up))
        }) else {
            return spike;
        };
        // The hedge launches at the threshold and costs the same base read
        // scaled by the *replica's* multiplier — no extra random draws, so
        // "faster" is a pure function of cluster state.
        let replica_total = hedge.threshold_secs + base_secs * cluster.latency_multiplier(replica);
        if inner.io_trace.enabled {
            inner.io_trace.hedges.push(HedgeTrace {
                file: id,
                primary: node,
                replica,
                primary_secs: primary_total,
                replica_secs: replica_total,
                threshold_secs: hedge.threshold_secs,
                winner_replica: replica_total < primary_total,
            });
        }
        let hs = &mut inner.hedge_stats;
        hs.issued += 1;
        if replica_total < primary_total {
            // Hedge won: the primary is cancelled at the winner's finish
            // line; everything it burned until then is wasted work.
            hs.won += 1;
            hs.extra_secs += replica_total;
            replica_total - base_secs
        } else {
            // Primary won: the hedge is cancelled after running from the
            // threshold to the primary's finish. Latency is untouched —
            // the primary's path stays bit-identical to hedging off.
            hs.cancelled += 1;
            hs.extra_secs += primary_total - hedge.threshold_secs;
            spike
        }
    }

    /// Write a new file through the fault injector.
    ///
    /// The fallible twin of [`SimFs::create`]: identical when fault injection
    /// is disabled. A transient write failure persists nothing and charges
    /// nothing; the caller may retry.
    pub fn try_create(
        &self,
        name: impl Into<String>,
        sim_bytes: u64,
        payload: P,
    ) -> Result<IoOutcome<FileId>, IoError> {
        self.drive_node_faults();
        self.faulted_create(name, sim_bytes, payload)
    }

    /// Write a new file onto specific cluster nodes. Behaves like
    /// [`SimFs::try_create`], but fails transiently when *every* target node
    /// is unavailable (writes to a partially-down placement succeed: the
    /// live nodes take the data and re-replication is implied, metadata-only,
    /// when the others return). On success the file's placement is recorded.
    pub fn try_create_placed(
        &self,
        name: impl Into<String>,
        sim_bytes: u64,
        payload: P,
        nodes: &[NodeId],
    ) -> Result<IoOutcome<FileId>, IoError> {
        self.drive_node_faults();
        if let Some(cluster) = &self.cluster {
            if !nodes.is_empty()
                && nodes
                    .iter()
                    .all(|&n| cluster.node_state(n) != Some(NodeState::Up))
            {
                return Err(IoError::TransientWrite);
            }
        }
        let out = self.faulted_create(name, sim_bytes, payload)?;
        if let Some(cluster) = &self.cluster {
            cluster.place(out.value, nodes);
        }
        Ok(out)
    }

    /// The shared tail of the fallible creates: one write draw, then the
    /// infallible create.
    fn faulted_create(
        &self,
        name: impl Into<String>,
        sim_bytes: u64,
        payload: P,
    ) -> Result<IoOutcome<FileId>, IoError> {
        let spike_secs = match self.faults.decide_write() {
            WriteFault::None => 0.0,
            WriteFault::Transient => return Err(IoError::TransientWrite),
            WriteFault::Spike(secs) => secs,
        };
        let (id, cost_secs) = self.create(name, sim_bytes, payload);
        Ok(IoOutcome {
            value: id,
            sim_bytes,
            cost_secs,
            spike_secs,
        })
    }

    /// Advance the node-fault machinery by one consulted operation: tick
    /// pending repair countdowns, then let the injector fire a node event.
    /// Zero draws and zero work unless a cluster is attached *and* a node
    /// rate is configured.
    fn drive_node_faults(&self) {
        let Some(cluster) = &self.cluster else { return };
        let cfg = self.faults.config();
        if !cfg.node_enabled() {
            return;
        }
        cluster.tick_repairs();
        match self.faults.decide_node(cluster.num_nodes()) {
            NodeFault::None => {}
            NodeFault::Down(i) => {
                cluster.set_node_down_for(NodeId(i), cfg.node_repair_ops.max(1));
            }
            NodeFault::Kill(i) => {
                cluster.kill_node(NodeId(i));
            }
            NodeFault::Slow(i) => {
                cluster.set_node_slow_for(
                    NodeId(i),
                    cfg.node_slow_factor,
                    cfg.node_slow_ops.max(1),
                );
            }
        }
    }

    /// Record where a file lives (idempotent; no-op without a cluster).
    /// Recovery uses this to restore the cluster map from journal records.
    pub fn place(&self, id: FileId, nodes: &[NodeId]) {
        if let Some(cluster) = &self.cluster {
            cluster.place(id, nodes);
        }
    }

    /// Whether every replica of the file is currently unavailable. A
    /// metadata probe — no draws, no ledger charge — so planners and retry
    /// layers can route around outages deterministically. Always `false`
    /// without a cluster.
    pub fn outage_blocked(&self, id: FileId) -> bool {
        self.cluster.as_ref().is_some_and(|c| c.outage_blocked(id))
    }

    /// Take a node down (temporary outage). Returns whether the state
    /// changed. No-op without a cluster.
    pub fn set_node_down(&self, node: NodeId) -> bool {
        self.cluster.as_ref().is_some_and(|c| c.set_node_down(node))
    }

    /// Restore a down node. Returns whether the state changed.
    pub fn set_node_up(&self, node: NodeId) -> bool {
        self.cluster.as_ref().is_some_and(|c| c.set_node_up(node))
    }

    /// Permanently kill a node. Returns whether the state changed.
    pub fn kill_node(&self, node: NodeId) -> bool {
        self.cluster.as_ref().is_some_and(|c| c.kill_node(node))
    }

    /// Open (or widen) a gray-failure window on a node: reads it serves cost
    /// `multiplier ×` their base seconds until cleared. `multiplier <= 1.0`
    /// clears the window. Returns whether a new window opened. No-op
    /// without a cluster.
    pub fn set_node_slow(&self, node: NodeId, multiplier: f64) -> bool {
        self.cluster
            .as_ref()
            .is_some_and(|c| c.set_node_slow(node, multiplier))
    }

    /// Clear a node's gray-failure window. Returns whether one was open.
    pub fn clear_node_slow(&self, node: NodeId) -> bool {
        self.cluster
            .as_ref()
            .is_some_and(|c| c.clear_node_slow(node))
    }

    /// Install (or remove, with `None`) the hedged-read policy. Hedging only
    /// has an effect on a cluster-attached file system with replicated
    /// placements.
    pub fn set_hedge(&self, hedge: Option<HedgeConfig>) {
        self.locked().hedge = hedge;
    }

    /// The hedged-read policy in force, if any.
    pub fn hedge_config(&self) -> Option<HedgeConfig> {
        self.locked().hedge
    }

    /// Enable or disable the drainable I/O trace (per-race hedge details).
    /// Off by default; enabling it records metadata only and never changes
    /// an outcome, a cost, or a random draw.
    pub fn set_io_trace(&self, enabled: bool) {
        let tr = &mut self.locked().io_trace;
        tr.enabled = enabled;
        if !enabled {
            tr.hedges.clear();
        }
    }

    /// True when the drainable I/O trace is recording.
    pub fn io_trace_enabled(&self) -> bool {
        self.locked().io_trace.enabled
    }

    /// Drain the hedge races recorded since the last drain (empty unless
    /// [`SimFs::set_io_trace`] enabled tracing).
    pub fn drain_hedge_traces(&self) -> Vec<HedgeTrace> {
        std::mem::take(&mut self.locked().io_trace.hedges)
    }

    /// Simulated seconds of cancelled (wasted) work across all hedged reads:
    /// the loser's burn, charged honestly but off the latency path.
    pub fn hedge_extra_secs(&self) -> f64 {
        self.locked().hedge_stats.extra_secs
    }

    /// Snapshot of the faults injected so far; with a cluster attached the
    /// node-transition counters (manual and injected alike) are merged in,
    /// as are the hedged-read counters.
    pub fn fault_stats(&self) -> FaultStats {
        let mut stats = self.faults.stats();
        if let Some(cluster) = &self.cluster {
            let n = cluster.stats();
            stats.node_downs = n.node_downs;
            stats.node_ups = n.node_ups;
            stats.node_kills = n.node_kills;
            stats.node_slows = n.node_slows;
        }
        let hs = self.locked().hedge_stats;
        stats.hedges_issued = hs.issued;
        stats.hedges_won = hs.won;
        stats.hedges_cancelled = hs.cancelled;
        stats
    }

    /// Look at a file's metadata without charging a read.
    pub fn stat(&self, id: FileId) -> Option<(String, u64)> {
        let inner = self.locked();
        inner.files.get(&id).map(|f| (f.name.clone(), f.sim_bytes))
    }

    /// Verify a file's checksum without charging a read (an fsck probe).
    /// Returns `None` for an unknown id.
    pub fn verify(&self, id: FileId) -> Option<bool> {
        let inner = self.locked();
        inner.files.get(&id).map(StoredFile::verify)
    }

    /// Corrupt a file in place: payload intact, checksum mismatch. Every
    /// subsequent read fails until the file is deleted. Returns whether the
    /// file existed. Deterministic corruption hook for crash/fsck tests; the
    /// seeded path is [`FaultConfig::with_corruption`].
    ///
    /// [`FaultConfig::with_corruption`]: crate::fault::FaultConfig::with_corruption
    pub fn corrupt_file(&self, id: FileId) -> bool {
        let mut inner = self.locked();
        match inner.files.get_mut(&id) {
            Some(f) => {
                f.corrupt();
                true
            }
            None => false,
        }
    }

    /// Delete a file (eviction). Returns the freed simulated bytes and the
    /// simulated cost of the delete (`CostWeights::wdelete`, zero by default
    /// to match HDFS metadata-only semantics), or `None` if absent.
    pub fn delete_costed(&self, id: FileId) -> Option<(u64, f64)> {
        let mut inner = self.locked();
        let file = inner.files.remove(&id)?;
        inner.ledger.record_delete();
        if let Some(cluster) = &self.cluster {
            cluster.forget(id);
        }
        Some((file.sim_bytes, self.weights.delete_cost()))
    }

    /// Delete a file, discarding the delete cost. See [`SimFs::delete_costed`].
    pub fn delete(&self, id: FileId) -> Option<u64> {
        self.delete_costed(id).map(|(bytes, _)| bytes)
    }

    /// Number of map tasks a scan of the given files launches.
    pub fn scan_tasks<I: IntoIterator<Item = FileId>>(&self, ids: I) -> u64 {
        let inner = self.locked();
        let sizes: Vec<u64> = ids
            .into_iter()
            .filter_map(|id| inner.files.get(&id).map(|f| f.sim_bytes))
            .collect();
        self.block.tasks_for_files(sizes)
    }

    /// Snapshot of the accumulated ledger.
    pub fn ledger(&self) -> CostLedger {
        self.locked().ledger
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.locked().files.len()
    }

    /// Ids of all live files, in id order (an fsck directory listing).
    pub fn file_ids(&self) -> Vec<FileId> {
        self.locked().files.keys().copied().collect()
    }

    /// Total simulated bytes across live files.
    pub fn total_bytes(&self) -> u64 {
        self.locked().files.values().map(|f| f.sim_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> SimFs<Vec<u32>> {
        SimFs::new(BlockConfig::new(100), CostWeights::default())
    }

    #[test]
    fn create_read_roundtrip() {
        let fs = fs();
        let (id, wcost) = fs.create("frag", 250, vec![1, 2, 3]);
        assert!(wcost > 0.0);
        let (payload, bytes, rcost) = fs.read(id).expect("file exists");
        assert_eq!(*payload, vec![1, 2, 3]);
        assert_eq!(bytes, 250);
        assert!(rcost > 0.0);
        assert!(wcost > rcost, "writes are more expensive than reads");
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let fs = fs();
        let (a, _) = fs.create("a", 1, vec![]);
        let (b, _) = fs.create("b", 1, vec![]);
        assert!(b > a);
    }

    #[test]
    fn delete_frees_and_read_fails_after() {
        let fs = fs();
        let (id, _) = fs.create("x", 500, vec![9]);
        assert_eq!(fs.total_bytes(), 500);
        assert_eq!(fs.delete(id), Some(500));
        assert_eq!(fs.total_bytes(), 0);
        assert!(fs.read(id).is_none());
        assert!(fs.delete(id).is_none());
    }

    #[test]
    fn ledger_tracks_io() {
        let fs = fs();
        let (id, _) = fs.create("x", 500, vec![9]);
        fs.read(id);
        fs.read(id);
        let l = fs.ledger();
        assert_eq!(l.write_bytes, 500);
        assert_eq!(l.read_bytes, 1000);
        assert_eq!(l.files_read, 2);
    }

    #[test]
    fn scan_tasks_counts_blocks_per_file() {
        let fs = fs();
        let (a, _) = fs.create("a", 250, vec![]); // 3 blocks of 100
        let (b, _) = fs.create("b", 90, vec![]); // 1 block
        assert_eq!(fs.scan_tasks([a, b]), 4);
        assert_eq!(fs.scan_tasks([a]), 3);
        // unknown ids are skipped
        assert_eq!(fs.scan_tasks([FileId(999)]), 0);
    }

    #[test]
    fn stat_does_not_charge_read() {
        let fs = fs();
        let (id, _) = fs.create("x", 500, vec![]);
        let before = fs.ledger();
        assert_eq!(fs.stat(id), Some(("x".to_string(), 500)));
        assert_eq!(fs.ledger().read_bytes, before.read_bytes);
    }

    use crate::fault::{FaultConfig, FaultInjector, IoError};

    fn faulty_fs(cfg: FaultConfig) -> SimFs<Vec<u32>> {
        SimFs::with_faults(
            BlockConfig::new(100),
            CostWeights::default(),
            FaultInjector::new(cfg),
        )
    }

    #[test]
    fn try_read_without_faults_matches_read() {
        let fs = fs();
        let (id, _) = fs.create("frag", 250, vec![1, 2, 3]);
        let out = fs.try_read(id).expect("no faults configured");
        assert_eq!(*out.value, vec![1, 2, 3]);
        assert_eq!(out.sim_bytes, 250);
        assert_eq!(out.spike_secs, 0.0);
        let (_, bytes, cost) = fs.read(id).expect("file exists");
        assert_eq!(out.sim_bytes, bytes);
        assert_eq!(out.cost_secs.to_bits(), cost.to_bits());
        assert_eq!(fs.ledger().files_read, 2, "both paths charge the ledger");
    }

    #[test]
    fn try_read_unknown_id_is_permanent() {
        let fs = fs();
        assert_eq!(
            fs.try_read(FileId(99)).unwrap_err(),
            IoError::PermanentLoss(FileId(99))
        );
    }

    #[test]
    fn failed_read_records_nothing_in_ledger() {
        // Regression: a transient failure must not charge read bytes.
        let fs = faulty_fs(FaultConfig::seeded(1).with_transient_reads(1.0));
        let (id, _) = fs.create("frag", 250, vec![7]);
        let before = fs.ledger();
        assert_eq!(fs.try_read(id).unwrap_err(), IoError::TransientRead(id));
        assert_eq!(fs.ledger(), before, "failed read must not touch the ledger");
        // The file is intact: an infallible read (fast path) still works.
        assert!(fs.read(id).is_some());
    }

    #[test]
    fn permanent_loss_removes_file_without_ledger_delete() {
        let fs = faulty_fs(FaultConfig::seeded(1).with_permanent_loss(1.0));
        let (id, _) = fs.create("frag", 250, vec![7]);
        let before = fs.ledger();
        assert_eq!(fs.try_read(id).unwrap_err(), IoError::PermanentLoss(id));
        assert_eq!(fs.total_bytes(), 0, "lost file no longer counts");
        let after = fs.ledger();
        assert_eq!(after.read_bytes, before.read_bytes);
        assert_eq!(
            after.files_deleted, before.files_deleted,
            "loss is not an eviction"
        );
        assert_eq!(fs.fault_stats().permanent_losses, 1);
    }

    #[test]
    fn latency_spike_charges_extra_secs_on_success() {
        let fs = faulty_fs(FaultConfig::seeded(1).with_latency_spikes(1.0, 2.5));
        let (id, _) = fs.create("frag", 250, vec![7]);
        let out = fs.try_read(id).expect("spikes still succeed");
        assert_eq!(out.spike_secs, 2.5);
        assert_eq!(fs.ledger().files_read, 1, "spiked read still charges");
    }

    #[test]
    fn transient_create_persists_nothing() {
        let fs = faulty_fs(FaultConfig::seeded(1).with_transient_writes(1.0));
        let before = fs.ledger();
        assert_eq!(
            fs.try_create("frag", 250, vec![7]).unwrap_err(),
            IoError::TransientWrite
        );
        assert_eq!(fs.file_count(), 0);
        assert_eq!(
            fs.ledger(),
            before,
            "failed write must not touch the ledger"
        );
        // The infallible path bypasses the injector entirely.
        let (id, _) = fs.create("frag", 250, vec![7]);
        assert!(fs.stat(id).is_some());
    }

    #[test]
    fn corrupt_file_is_never_served() {
        let fs = fs();
        let (id, _) = fs.create("frag", 250, vec![7]);
        assert_eq!(fs.verify(id), Some(true));
        assert!(fs.corrupt_file(id));
        assert_eq!(fs.verify(id), Some(false));
        let before = fs.ledger();
        assert!(
            fs.read(id).is_none(),
            "infallible read refuses corrupt data"
        );
        assert_eq!(fs.try_read(id).unwrap_err(), IoError::Corrupt(id));
        assert_eq!(fs.ledger(), before, "corrupt reads charge nothing");
        // The file still exists and still counts against storage: detection
        // is the caller's cue to quarantine, not an implicit delete.
        assert_eq!(fs.total_bytes(), 250);
        assert_eq!(fs.delete(id), Some(250));
    }

    #[test]
    fn injected_corruption_is_sticky() {
        let fs = faulty_fs(FaultConfig::seeded(5).with_corruption(1.0));
        let (id, _) = fs.create("frag", 250, vec![7]);
        assert_eq!(fs.try_read(id).unwrap_err(), IoError::Corrupt(id));
        assert_eq!(fs.fault_stats().corruptions, 1);
        // Subsequent reads keep failing without consuming more draws.
        assert_eq!(fs.try_read(id).unwrap_err(), IoError::Corrupt(id));
        assert_eq!(fs.fault_stats().corruptions, 1);
        assert_eq!(fs.verify(id), Some(false));
    }

    #[test]
    fn delete_costed_charges_wdelete() {
        let weights = CostWeights {
            wdelete: 0.25,
            ..CostWeights::default()
        };
        let costed: SimFs<Vec<u32>> = SimFs::new(BlockConfig::new(100), weights);
        let (id, _) = costed.create("x", 500, vec![]);
        assert_eq!(costed.delete_costed(id), Some((500, 0.25)));
        assert_eq!(costed.delete_costed(id), None);
        // Default weights keep deletion free (metadata-only HDFS semantics).
        let free = fs();
        let (id, _) = free.create("x", 500, vec![]);
        assert_eq!(free.delete_costed(id), Some((500, 0.0)));
    }

    #[test]
    fn file_ids_lists_live_files_in_order() {
        let fs = fs();
        let (a, _) = fs.create("a", 1, vec![]);
        let (b, _) = fs.create("b", 1, vec![]);
        let (c, _) = fs.create("c", 1, vec![]);
        fs.delete(b);
        assert_eq!(fs.file_ids(), vec![a, c]);
    }

    use crate::node::{NodeConfig, NodeId, NodeSet};

    fn sharded(nodes: u32, replication: u32) -> SimFs<Vec<u32>> {
        SimFs::with_cluster(
            BlockConfig::new(100),
            CostWeights::default(),
            FaultInjector::disabled(),
            NodeSet::new(NodeConfig::new(nodes, replication)),
        )
    }

    #[test]
    fn sharded_read_fails_over_to_replica_at_identical_cost() {
        let fs = sharded(3, 2);
        let nodes = [NodeId(0), NodeId(1)];
        let out = fs
            .try_create_placed("frag", 250, vec![7], &nodes)
            .expect("no faults");
        let id = out.value;
        let healthy = fs.try_read(id).expect("all nodes up");
        assert!(fs.set_node_down(NodeId(0)));
        let failover = fs.try_read(id).expect("replica on node1 serves");
        assert_eq!(
            healthy.cost_secs.to_bits(),
            failover.cost_secs.to_bits(),
            "failover is metadata-only: same cost either replica"
        );
        assert_eq!(*failover.value, vec![7]);
    }

    #[test]
    fn outage_blocks_unreplicated_file_as_transient_then_readmits() {
        let fs = sharded(3, 1);
        let out = fs
            .try_create_placed("frag", 250, vec![7], &[NodeId(2)])
            .expect("no faults");
        let id = out.value;
        assert!(fs.set_node_down(NodeId(2)));
        assert!(fs.outage_blocked(id));
        let before = fs.ledger();
        assert_eq!(fs.try_read(id).unwrap_err(), IoError::TransientRead(id));
        assert_eq!(fs.ledger(), before, "blocked read charges nothing");
        assert_eq!(fs.total_bytes(), 250, "file survives the outage");
        assert!(fs.set_node_up(NodeId(2)));
        assert!(!fs.outage_blocked(id));
        assert!(fs.try_read(id).is_ok());
        let s = fs.fault_stats();
        assert_eq!((s.node_downs, s.node_ups), (1, 1));
    }

    #[test]
    fn dead_node_converts_unreplicated_file_to_permanent_loss() {
        let fs = sharded(2, 1);
        let out = fs
            .try_create_placed("frag", 250, vec![7], &[NodeId(1)])
            .expect("no faults");
        let id = out.value;
        assert!(fs.kill_node(NodeId(1)));
        assert_eq!(fs.try_read(id).unwrap_err(), IoError::PermanentLoss(id));
        assert_eq!(fs.total_bytes(), 0, "lost file no longer counts");
        assert_eq!(fs.fault_stats().node_kills, 1);
    }

    #[test]
    fn write_to_fully_down_placement_is_transient() {
        let fs = sharded(3, 2);
        fs.set_node_down(NodeId(0));
        fs.set_node_down(NodeId(1));
        let nodes = [NodeId(0), NodeId(1)];
        assert_eq!(
            fs.try_create_placed("frag", 100, vec![], &nodes)
                .unwrap_err(),
            IoError::TransientWrite
        );
        assert_eq!(fs.file_count(), 0);
        // One live target suffices; the down replica is re-replicated later
        // (metadata-only), so placement still records both nodes.
        fs.set_node_up(NodeId(1));
        let out = fs
            .try_create_placed("frag", 100, vec![], &nodes)
            .expect("node1 is live");
        assert_eq!(
            fs.cluster().and_then(|c| c.placement(out.value)),
            Some(nodes.to_vec())
        );
    }

    #[test]
    fn injected_node_outage_heals_after_repair_ops() {
        let cfg = FaultConfig::seeded(11).with_node_downs(0.3, 2);
        let fs: SimFs<Vec<u32>> = SimFs::with_cluster(
            BlockConfig::new(100),
            CostWeights::default(),
            FaultInjector::new(cfg),
            NodeSet::new(NodeConfig::new(1, 1)),
        );
        let (id, _) = fs.create("frag", 100, vec![1]);
        fs.place(id, &[NodeId(0)]);
        // Drive consulted ops: the seeded stream must eventually down the
        // only node (blocking the read as transient) and, two consulted ops
        // after each down, the repair countdown must restore it (letting a
        // read succeed again). Both transitions are asserted via the merged
        // fault counters, which only move through the injector here.
        let mut blocked = 0;
        let mut served = 0;
        for _ in 0..64 {
            match fs.try_read(id) {
                Ok(_) => served += 1,
                Err(IoError::TransientRead(_)) => blocked += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let s = fs.fault_stats();
        assert!(s.node_downs >= 1, "seeded stream must down the node");
        assert!(s.node_ups >= 1, "repair countdown must restore the node");
        assert!(blocked >= 1 && served >= 1, "reads both block and heal");
    }

    #[test]
    fn slow_replica_scales_read_latency_not_base_cost() {
        let fs = sharded(3, 1);
        let out = fs
            .try_create_placed("frag", 250, vec![7], &[NodeId(1)])
            .expect("no faults");
        let id = out.value;
        let healthy = fs.try_read(id).expect("up");
        assert_eq!(healthy.spike_secs, 0.0);
        assert!(fs.set_node_slow(NodeId(1), 4.0));
        let slow = fs.try_read(id).expect("slow is not down");
        assert_eq!(
            slow.cost_secs.to_bits(),
            healthy.cost_secs.to_bits(),
            "base cost untouched; slowness is a latency effect"
        );
        assert_eq!(slow.spike_secs, healthy.cost_secs * 3.0, "4x total");
        assert_eq!(fs.fault_stats().node_slows, 1);
        assert!(fs.clear_node_slow(NodeId(1)));
        let again = fs.try_read(id).expect("healthy again");
        assert_eq!(again.spike_secs, 0.0);
        // Other nodes' windows don't touch this file.
        fs.set_node_slow(NodeId(0), 9.0);
        assert_eq!(fs.try_read(id).expect("up").spike_secs, 0.0);
    }

    #[test]
    fn hedged_read_takes_faster_replica_and_counts_waste() {
        let fs = sharded(3, 2);
        let nodes = [NodeId(0), NodeId(1)];
        let out = fs
            .try_create_placed("frag", 250, vec![7], &nodes)
            .expect("no faults");
        let id = out.value;
        let base = fs.try_read(id).expect("healthy").cost_secs;

        // Slow primary, healthy replica, threshold below the slow total:
        // the hedge wins and caps latency at threshold + replica cost.
        fs.set_node_slow(NodeId(0), 8.0);
        let threshold = base * 2.0;
        fs.set_hedge(Some(HedgeConfig::after_secs(threshold)));
        let hedged = fs.try_read(id).expect("hedge serves");
        // Mirror the implementation's arithmetic exactly for bit equality.
        let replica_total = threshold + base * 1.0;
        let expect_spike = replica_total - base;
        assert_eq!(hedged.cost_secs.to_bits(), base.to_bits());
        assert_eq!(hedged.spike_secs.to_bits(), expect_spike.to_bits());
        assert!(
            hedged.spike_secs < base * 7.0,
            "hedging beats the slow primary"
        );
        let s = fs.fault_stats();
        assert_eq!(
            (s.hedges_issued, s.hedges_won, s.hedges_cancelled),
            (1, 1, 0)
        );
        assert_eq!(
            fs.hedge_extra_secs().to_bits(),
            replica_total.to_bits(),
            "cancelled primary burned until the winner finished"
        );

        // Slow replica too (worse than the primary): the hedge is issued
        // but cancelled, and latency stays the primary's, bit-identical to
        // hedging off.
        fs.set_node_slow(NodeId(1), 16.0);
        let cancelled = fs.try_read(id).expect("primary serves");
        assert_eq!(cancelled.spike_secs.to_bits(), (base * 7.0).to_bits());
        let s = fs.fault_stats();
        assert_eq!(
            (s.hedges_issued, s.hedges_won, s.hedges_cancelled),
            (2, 1, 1)
        );

        // Below the threshold: no hedge at all.
        fs.clear_node_slow(NodeId(0));
        fs.clear_node_slow(NodeId(1));
        let quiet = fs.try_read(id).expect("healthy");
        assert_eq!(quiet.spike_secs, 0.0);
        assert_eq!(fs.fault_stats().hedges_issued, 2);

        // Hedging off again: bit-identical to the plain path.
        fs.set_hedge(None);
        assert!(fs.hedge_config().is_none());
    }

    #[test]
    fn io_trace_records_hedge_races_only_when_enabled() {
        let fs = sharded(3, 2);
        let nodes = [NodeId(0), NodeId(1)];
        let out = fs
            .try_create_placed("frag", 250, vec![7], &nodes)
            .expect("no faults");
        let id = out.value;
        let base = fs.try_read(id).expect("healthy").cost_secs;
        fs.set_node_slow(NodeId(0), 8.0);
        let threshold = base * 2.0;
        fs.set_hedge(Some(HedgeConfig::after_secs(threshold)));

        // Trace off (the default): the hedge fires but records nothing.
        let untraced = fs.try_read(id).expect("hedge serves");
        assert!(fs.drain_hedge_traces().is_empty());

        // Trace on: the identical read records one race, bit-identical.
        fs.set_io_trace(true);
        assert!(fs.io_trace_enabled());
        let traced = fs.try_read(id).expect("hedge serves");
        assert_eq!(traced.spike_secs.to_bits(), untraced.spike_secs.to_bits());
        let races = fs.drain_hedge_traces();
        assert_eq!(races.len(), 1);
        let r = races[0];
        assert_eq!((r.file, r.primary, r.replica), (id, NodeId(0), NodeId(1)));
        assert!(r.winner_replica, "healthy replica beats the 8x primary");
        assert_eq!(r.threshold_secs.to_bits(), threshold.to_bits());
        assert_eq!(r.primary_secs.to_bits(), (base * 8.0).to_bits());
        assert_eq!(r.replica_secs.to_bits(), (threshold + base).to_bits());
        // Draining empties the buffer; disabling clears any residue.
        assert!(fs.drain_hedge_traces().is_empty());
        fs.try_read(id).expect("hedge serves");
        fs.set_io_trace(false);
        assert!(fs.drain_hedge_traces().is_empty());
    }

    #[test]
    fn hedge_without_live_replica_does_nothing() {
        let fs = sharded(2, 2);
        let nodes = [NodeId(0), NodeId(1)];
        let out = fs
            .try_create_placed("frag", 250, vec![7], &nodes)
            .expect("no faults");
        let id = out.value;
        let base = fs.try_read(id).expect("healthy").cost_secs;
        fs.set_hedge(Some(HedgeConfig::after_secs(base * 2.0)));
        fs.set_node_slow(NodeId(0), 8.0);
        fs.set_node_down(NodeId(1));
        let out = fs.try_read(id).expect("slow primary still serves");
        assert_eq!(
            out.spike_secs.to_bits(),
            (base * 7.0).to_bits(),
            "no live second replica: the slow primary runs to completion"
        );
        assert_eq!(fs.fault_stats().hedges_issued, 0);
        assert_eq!(fs.hedge_extra_secs(), 0.0);
    }

    #[test]
    fn unsharded_fs_ignores_cluster_apis() {
        let fs = fs();
        let (id, _) = fs.create("x", 10, vec![]);
        assert!(!fs.outage_blocked(id));
        assert!(!fs.set_node_down(NodeId(0)));
        assert!(!fs.set_node_up(NodeId(0)));
        assert!(!fs.kill_node(NodeId(0)));
        fs.place(id, &[NodeId(0)]);
        assert!(fs.cluster().is_none());
        assert!(fs.try_read(id).is_ok());
    }
}
