//! # deepsea-core
//!
//! The primary contribution of *"DeepSea: Progressive Workload-Aware
//! Partitioning of Materialized Views in Scalable Data Analytics"*
//! (Du, Glavic, Tan, Miller — EDBT 2017), implemented over the
//! `deepsea-engine` / `deepsea-storage` substrates:
//!
//! - **Interval & fragment algebra** ([`interval`], [`fragment`]) —
//!   horizontal and *overlapping* partitionings (Definitions 1–2),
//! - **Candidate generation** ([`candidates`]) — view candidates
//!   (Definition 6) and the five-case partition-candidate rules
//!   (Definition 7),
//! - **Partition matching** ([`matching`]) — the greedy fragment set-cover
//!   (Algorithm 2),
//! - **Signature index** ([`filter_tree`]) — a filter-tree over view
//!   signatures for fast candidate pruning (§8.3),
//! - **Statistics & cost–benefit model** ([`stats`]) — decay function,
//!   accumulated benefit `B`, value `Φ = COST·B/S` for views and fragments
//!   (§7.1),
//! - **Probabilistic fragment-benefit model** ([`mle`]) — maximum-likelihood
//!   normal fit over quantized fragment hits and adjusted hits `HA` (§7.1),
//! - **Selection** ([`selection`]) — candidate filtering (`COST ≤ B`) and
//!   greedy `Φ`-ranked knapsack under the pool limit `Smax` (§7.2–7.3),
//! - **The online driver** ([`driver`]) — Algorithm 1 `ProcessQuery` as a
//!   staged pipeline (matching → rewriting → candidates → selection →
//!   execute/materialize → evict), each stage its own submodule, with
//!   per-stage [`driver::QueryTrace`] instrumentation and a pluggable
//!   execution backend,
//! - **Crash-restart durability** ([`durability`]) — a catalog journal of
//!   every registry mutation with periodic snapshots, cold-start replay
//!   (`DeepSea::recover`), and an fsck sweep reconciling the catalog with
//!   the file system (orphan GC, missing/corrupt-file quarantine),
//! - **Baselines** ([`policy`], [`baselines`]) — vanilla Hive (H),
//!   non-partitioned materialization (NP), Nectar (N), Nectar+ (N+),
//!   equi-depth partitioning (E-k), and DeepSea without repartitioning (NR),
//! - **Serving layer** ([`snapshot`], [`server`]) — immutable catalog
//!   snapshots published per committed epoch, a deterministic multi-client
//!   scheduler replaying seeded interleavings bit-identically, and real
//!   `std::thread` workers (`ViewServer::run_threaded`).

pub mod baselines;
pub mod candidates;
pub mod config;
pub mod driver;
pub mod durability;
pub mod filter_tree;
pub mod fragment;
pub mod interval;
pub mod matching;
pub mod mle;
pub mod policy;
pub mod registry;
mod retry;
pub mod selection;
pub mod server;
pub mod snapshot;
pub mod stats;

pub use config::DeepSeaConfig;
pub use deepsea_obs::{DecisionEvent, EventRecord, ObsConfig, Observer, PhiBreakdown, SpanCtx};
pub use driver::{DeepSea, QueryOutcome, QueryTrace, RecoveryTrace};
pub use durability::{CatalogJournal, CatalogRecord, CatalogSnapshot, FsckReport};
pub use interval::Interval;
pub use policy::{PartitionPolicy, ValueModel};
pub use server::{
    ClientRecord, LatencyExemplar, NodeAction, ServeReport, ServerConfig, ShedPolicy, ViewServer,
};
pub use snapshot::{ReadSnapshot, SnapshotAnswer};
