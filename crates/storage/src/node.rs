//! Simulated cluster topology: nodes, deterministic placement, replication,
//! and whole-node outages.
//!
//! DeepSea's fragments live on an HDFS-like cluster of datanodes. This module
//! models the minimum the serving stack needs to survive node loss:
//!
//! * **Deterministic partition-aware placement** — every file is assigned to
//!   a primary node by hashing its placement key (the fragment's
//!   `(attr, interval)` or the view's name) modulo the node count, with
//!   replicas on the consecutive ring successors. Placement is a pure
//!   function of `(key, replicas, node count)` — it never depends on which
//!   nodes happen to be up, so a faulted run and a zero-fault run place every
//!   file identically (the bit-identity invariant of `tests/node_chaos.rs`
//!   depends on this).
//! * **Replica failover** — a read routes to the first *live* node in the
//!   file's placement list: the primary first, then the replicas in
//!   ascending node id. Failover is metadata-only (the namenode redirects the
//!   client), so a read costs the same whichever replica serves it.
//! * **Whole-node outages** — a node is up or [`NodeState::Down`]: a down
//!   node's files fail as transient until it returns, by a scheduled
//!   [`NodeSet::set_node_up`] or when an injected outage's repair countdown
//!   runs out. Nodes never die: a lost file is the fault injector's
//!   per-file verdict, not a node's.
//! * **Gray failure** — an up node can be slow ([`NodeSet::set_node_slow`]):
//!   it keeps serving, at a latency multiplier, until the window is
//!   cleared.
//!
//! The cluster keeps its own transition counters so the harness can assert
//! on injected-vs-manual outages uniformly; [`crate::fs::SimFs`] merges them
//! into [`crate::fault::FaultStats`].

use std::collections::BTreeMap;
use std::fmt;
// deepsea-lint: allow(layering) -- cluster-map cell mutated by fault schedules; single lock
use std::sync::{Mutex, MutexGuard};

use crate::file::FileId;

/// Identifier of a simulated cluster node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Static cluster parameters: topology size and replication factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeConfig {
    /// Number of datanodes in the cluster (≥ 1).
    pub nodes: u32,
    /// Replication factor for every placed file (≥ 1).
    pub replication: u32,
}

impl NodeConfig {
    /// A cluster of `nodes` datanodes with replication `replication`.
    pub fn new(nodes: u32, replication: u32) -> Self {
        let nodes = nodes.max(1);
        Self {
            nodes,
            replication: replication.clamp(1, nodes),
        }
    }
}

/// Liveness of a single node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Serving reads and writes.
    Up,
    /// Temporarily unreachable; its files fail as transient until it
    /// returns.
    Down,
}

/// Routing verdict for one file under the current node states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// A live replica can serve the file (failover order: primary first,
    /// then replicas ascending by node id).
    Live(NodeId),
    /// Every replica is on a down node: fail transient.
    Outage,
}

/// Cluster transition counters (injected and manual alike).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Nodes taken down (temporarily).
    pub node_downs: u64,
    /// Nodes restored.
    pub node_ups: u64,
    /// Slow-node windows opened (gray failure: degraded but alive).
    pub node_slows: u64,
}

#[derive(Debug)]
struct ClusterState {
    states: Vec<NodeState>,
    /// Remaining consulted-op countdowns for injector-downed nodes; the node
    /// comes back up when its countdown reaches zero.
    repair_in: Vec<u64>,
    /// Per-node latency multiplier (gray failure). `1.0` = healthy; reads
    /// served by a node with multiplier `m > 1` cost `m×` their base
    /// simulated seconds. Orthogonal to liveness: a slow node is still Up.
    slow: Vec<f64>,
    placement: BTreeMap<FileId, Vec<NodeId>>,
    stats: NodeStats,
}

/// A set of simulated datanodes with placement and liveness tracking.
///
/// Thread-safe for the same reason [`crate::fs::SimFs`] is: the serving
/// layer may consult it from snapshot readers while the writer mutates it.
#[derive(Debug)]
pub struct NodeSet {
    cfg: NodeConfig,
    state: Mutex<ClusterState>,
}

impl NodeSet {
    /// Build a cluster with every node up and nothing placed.
    pub fn new(cfg: NodeConfig) -> Self {
        Self {
            state: Mutex::new(ClusterState {
                states: vec![NodeState::Up; cfg.nodes as usize],
                repair_in: vec![0; cfg.nodes as usize],
                slow: vec![1.0; cfg.nodes as usize],
                placement: BTreeMap::new(),
                stats: NodeStats::default(),
            }),
            cfg,
        }
    }

    fn locked(&self) -> MutexGuard<'_, ClusterState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The static cluster parameters.
    pub fn config(&self) -> NodeConfig {
        self.cfg
    }

    /// Number of nodes in the topology.
    pub fn num_nodes(&self) -> u32 {
        self.cfg.nodes
    }

    /// Deterministic placement for a key: primary at `key mod nodes`, then
    /// `replicas - 1` ring successors, the tail sorted ascending by node id
    /// (the failover order). Pure in `(key, replicas, nodes)` — node
    /// liveness never influences placement.
    pub fn placement_for(&self, key: u64, replicas: u32) -> Vec<NodeId> {
        let n = self.cfg.nodes as u64;
        let r = replicas.clamp(1, self.cfg.nodes) as u64;
        let primary = key % n;
        let mut tail: Vec<NodeId> = (1..r).map(|i| NodeId(((primary + i) % n) as u32)).collect();
        tail.sort();
        let mut nodes = Vec::with_capacity(r as usize);
        nodes.push(NodeId(primary as u32));
        nodes.extend(tail);
        nodes
    }

    /// Record where a file lives. Idempotent: re-placing with the same list
    /// (journal replay during recovery) is a no-op; re-placing with a
    /// different list overwrites (re-replication).
    pub fn place(&self, file: FileId, nodes: &[NodeId]) {
        if nodes.is_empty() {
            return;
        }
        self.locked().placement.insert(file, nodes.to_vec());
    }

    /// The recorded placement of a file, if any.
    pub fn placement(&self, file: FileId) -> Option<Vec<NodeId>> {
        self.locked().placement.get(&file).cloned()
    }

    /// Forget a deleted file's placement.
    pub fn forget(&self, file: FileId) {
        self.locked().placement.remove(&file);
    }

    /// Route a read/write for `file`. Files without a recorded placement are
    /// node-agnostic (namenode-resident metadata) and always route live.
    pub fn route(&self, file: FileId) -> Route {
        let st = self.locked();
        let Some(nodes) = st.placement.get(&file) else {
            return Route::Live(NodeId(0));
        };
        nodes
            .iter()
            .find(|n| st.states[n.0 as usize] == NodeState::Up)
            .map_or(Route::Outage, |&n| Route::Live(n))
    }

    /// Whether every replica of the file is currently down. Metadata probe:
    /// no draws, no cost.
    pub fn outage_blocked(&self, file: FileId) -> bool {
        !matches!(self.route(file), Route::Live(_))
    }

    /// The state of one node (`None` for an out-of-range id).
    pub fn node_state(&self, node: NodeId) -> Option<NodeState> {
        self.locked().states.get(node.0 as usize).copied()
    }

    /// Take a node down (temporary outage). Returns whether the state
    /// changed.
    pub fn set_node_down(&self, node: NodeId) -> bool {
        let mut st = self.locked();
        match st.states.get(node.0 as usize).copied() {
            Some(NodeState::Up) => {
                st.states[node.0 as usize] = NodeState::Down;
                st.stats.node_downs += 1;
                true
            }
            _ => false,
        }
    }

    /// Like [`NodeSet::set_node_down`] with an automatic repair countdown:
    /// the node returns after `repair_ops` further consulted operations
    /// (see [`NodeSet::tick_repairs`]).
    pub fn set_node_down_for(&self, node: NodeId, repair_ops: u64) -> bool {
        let changed = self.set_node_down(node);
        if changed {
            self.locked().repair_in[node.0 as usize] = repair_ops;
        }
        changed
    }

    /// Restore a down node. Returns whether the state changed.
    pub fn set_node_up(&self, node: NodeId) -> bool {
        let mut st = self.locked();
        match st.states.get(node.0 as usize).copied() {
            Some(NodeState::Down) => {
                st.states[node.0 as usize] = NodeState::Up;
                st.repair_in[node.0 as usize] = 0;
                st.stats.node_ups += 1;
                true
            }
            _ => false,
        }
    }

    /// Mark a node as slow: reads it serves cost `multiplier ×` their base
    /// simulated seconds until cleared. Returns whether a new slow window
    /// opened (`multiplier > 1` on a node that was healthy).
    pub fn set_node_slow(&self, node: NodeId, multiplier: f64) -> bool {
        if multiplier <= 1.0 {
            self.clear_node_slow(node);
            return false;
        }
        let mut st = self.locked();
        let Some(slow) = st.slow.get_mut(node.0 as usize) else {
            return false;
        };
        let opened = *slow <= 1.0;
        *slow = multiplier;
        if opened {
            st.stats.node_slows += 1;
        }
        opened
    }

    /// Clear a node's slow window (multiplier back to `1.0`). Returns
    /// whether a window was actually open.
    pub fn clear_node_slow(&self, node: NodeId) -> bool {
        let mut st = self.locked();
        match st.slow.get(node.0 as usize).copied() {
            Some(m) if m > 1.0 => {
                st.slow[node.0 as usize] = 1.0;
                true
            }
            _ => false,
        }
    }

    /// The current latency multiplier of a node (`1.0` for healthy or
    /// out-of-range ids). Metadata probe: no draws, no cost.
    pub fn latency_multiplier(&self, node: NodeId) -> f64 {
        self.locked()
            .slow
            .get(node.0 as usize)
            .copied()
            .unwrap_or(1.0)
    }

    /// Advance every pending repair countdown by one consulted operation,
    /// restoring nodes whose countdown expires. Returns the restored nodes
    /// in ascending id order.
    pub fn tick_repairs(&self) -> Vec<NodeId> {
        let mut st = self.locked();
        let mut restored = Vec::new();
        for i in 0..st.states.len() {
            if st.states[i] == NodeState::Down && st.repair_in[i] > 0 {
                st.repair_in[i] -= 1;
                if st.repair_in[i] == 0 {
                    st.states[i] = NodeState::Up;
                    st.stats.node_ups += 1;
                    restored.push(NodeId(i as u32));
                }
            }
        }
        restored
    }

    /// Snapshot of the cluster transition counters.
    pub fn stats(&self) -> NodeStats {
        self.locked().stats
    }
}

/// FNV-1a over a byte stream: the placement hash. Stable across platforms
/// and runs — placement keys must never depend on ambient state.
pub fn placement_key(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(nodes: u32, replication: u32) -> NodeSet {
        NodeSet::new(NodeConfig::new(nodes, replication))
    }

    #[test]
    fn placement_is_deterministic_and_ring_shaped() {
        let c = cluster(5, 3);
        let p = c.placement_for(7, 3);
        assert_eq!(p[0], NodeId(2), "primary = key mod nodes");
        assert_eq!(p.len(), 3);
        assert_eq!(p, c.placement_for(7, 3), "pure function of the key");
        // Replicas are ring successors, tail sorted ascending.
        assert_eq!(p[1..], [NodeId(3), NodeId(4)]);
        // Wrap-around keeps the tail sorted by id, not ring order.
        let q = c.placement_for(4, 3);
        assert_eq!(q[0], NodeId(4));
        assert_eq!(q[1..], [NodeId(0), NodeId(1)]);
    }

    #[test]
    fn placement_ignores_liveness() {
        let c = cluster(4, 2);
        let before = c.placement_for(10, 2);
        c.set_node_down(NodeId(2));
        assert_eq!(c.placement_for(10, 2), before);
    }

    #[test]
    fn route_fails_over_to_first_live_replica() {
        let c = cluster(4, 2);
        let f = FileId(1);
        c.place(f, &[NodeId(1), NodeId(2)]);
        assert_eq!(c.route(f), Route::Live(NodeId(1)));
        c.set_node_down(NodeId(1));
        assert_eq!(c.route(f), Route::Live(NodeId(2)), "failover to replica");
        c.set_node_down(NodeId(2));
        assert_eq!(c.route(f), Route::Outage);
        assert!(c.outage_blocked(f));
        c.set_node_up(NodeId(2));
        assert_eq!(c.route(f), Route::Live(NodeId(2)));
        assert!(!c.outage_blocked(f));
    }

    #[test]
    fn unplaced_files_always_route_live() {
        let c = cluster(2, 1);
        c.set_node_down(NodeId(0));
        c.set_node_down(NodeId(1));
        assert_eq!(c.route(FileId(9)), Route::Live(NodeId(0)));
        assert!(!c.outage_blocked(FileId(9)));
    }

    #[test]
    fn repair_countdown_restores_node() {
        let c = cluster(2, 1);
        assert!(c.set_node_down_for(NodeId(1), 2));
        assert_eq!(c.node_state(NodeId(1)), Some(NodeState::Down));
        assert!(c.tick_repairs().is_empty());
        assert_eq!(c.tick_repairs(), vec![NodeId(1)]);
        assert_eq!(c.node_state(NodeId(1)), Some(NodeState::Up));
        let s = c.stats();
        assert_eq!((s.node_downs, s.node_ups), (1, 1));
    }

    #[test]
    fn transition_counters_and_idempotence() {
        let c = cluster(3, 1);
        assert!(c.set_node_down(NodeId(0)));
        assert!(!c.set_node_down(NodeId(0)), "already down");
        assert!(c.set_node_up(NodeId(0)));
        assert!(!c.set_node_up(NodeId(0)), "already up");
        let s = c.stats();
        assert_eq!((s.node_downs, s.node_ups), (1, 1));
        let states: Vec<_> = (0..3).map(|n| c.node_state(NodeId(n))).collect();
        assert!(!states.contains(&Some(NodeState::Down)), "{states:?}");
    }

    #[test]
    fn place_is_idempotent_and_forgettable() {
        let c = cluster(4, 2);
        let f = FileId(3);
        c.place(f, &[NodeId(0), NodeId(1)]);
        c.place(f, &[NodeId(0), NodeId(1)]);
        assert_eq!(c.placement(f), Some(vec![NodeId(0), NodeId(1)]));
        c.place(f, &[NodeId(2)]);
        assert_eq!(c.placement(f), Some(vec![NodeId(2)]), "re-replication");
        c.forget(f);
        assert_eq!(c.placement(f), None);
    }

    #[test]
    fn slow_windows_track_multiplier_and_clear() {
        let c = cluster(3, 1);
        assert_eq!(c.latency_multiplier(NodeId(0)), 1.0);
        assert!(c.set_node_slow(NodeId(0), 4.0));
        assert!(!c.set_node_slow(NodeId(0), 8.0), "re-slow widens in place");
        assert_eq!(c.latency_multiplier(NodeId(0)), 8.0);
        assert_eq!(c.latency_multiplier(NodeId(1)), 1.0, "only node 0 is slow");
        assert!(c.clear_node_slow(NodeId(0)));
        assert!(!c.clear_node_slow(NodeId(0)), "already healthy");
        assert_eq!(c.latency_multiplier(NodeId(0)), 1.0);
        assert_eq!(c.stats().node_slows, 1);

        // multiplier <= 1.0 is a clear, not a window.
        assert!(c.set_node_slow(NodeId(2), 2.0));
        assert!(!c.set_node_slow(NodeId(2), 1.0));
        assert_eq!(c.latency_multiplier(NodeId(2)), 1.0);

        // Out-of-range is a no-op.
        assert!(!c.set_node_slow(NodeId(9), 5.0));
        assert_eq!(c.latency_multiplier(NodeId(9)), 1.0);
    }

    #[test]
    fn slow_windows_outlast_outages_and_repair_ticks() {
        // Slowness is orthogonal to liveness and has no countdown: a node
        // slowed while down comes back slow, and only a clear ends it.
        let c = cluster(2, 1);
        assert!(c.set_node_down_for(NodeId(0), 1));
        assert!(c.set_node_slow(NodeId(0), 4.0), "a down node can be slowed");
        assert_eq!(c.node_state(NodeId(0)), Some(NodeState::Down));
        assert_eq!(c.tick_repairs(), vec![NodeId(0)]);
        assert_eq!(c.node_state(NodeId(0)), Some(NodeState::Up));
        for _ in 0..16 {
            assert!(c.tick_repairs().is_empty());
        }
        assert_eq!(c.latency_multiplier(NodeId(0)), 4.0, "still slow");
        assert!(c.set_node_down(NodeId(0)) && c.set_node_up(NodeId(0)));
        assert_eq!(c.latency_multiplier(NodeId(0)), 4.0, "outages keep it");
        assert!(c.clear_node_slow(NodeId(0)));
        assert_eq!(c.latency_multiplier(NodeId(0)), 1.0);
        assert_eq!(c.stats().node_slows, 1);
    }

    #[test]
    fn slow_windows_do_not_affect_routing() {
        let c = cluster(2, 2);
        let f = FileId(1);
        c.place(f, &[NodeId(0), NodeId(1)]);
        c.set_node_slow(NodeId(0), 16.0);
        assert_eq!(
            c.route(f),
            Route::Live(NodeId(0)),
            "slow is not down: the primary still serves"
        );
        assert!(!c.outage_blocked(f));
    }

    #[test]
    fn placement_key_is_stable() {
        assert_eq!(placement_key(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(placement_key(b"ra[0,10)"), placement_key(b"ra[0,10)"));
        assert_ne!(placement_key(b"ra[0,10)"), placement_key(b"ra[10,20)"));
    }

    #[test]
    fn placement_for_clamps_replicas_to_topology() {
        let c = cluster(3, 1);
        let all = c.placement_for(5, 9);
        assert_eq!(all, vec![NodeId(2), NodeId(0), NodeId(1)]);
        assert_eq!(c.placement_for(5, 0), vec![NodeId(2)], "at least one node");
    }

    #[test]
    fn config_clamps_replication_to_topology() {
        let cfg = NodeConfig::new(3, 9);
        assert_eq!(cfg.replication, 3);
    }
}
