//! # deepsea-storage
//!
//! A simulated distributed file system substrate for DeepSea, standing in for
//! HDFS in the original paper. It models the three storage properties the
//! DeepSea algorithms depend on:
//!
//! 1. **Block-oriented files** — a file of `n` bytes occupies
//!    `ceil(n / block_size)` blocks, and reading it spawns one map task per
//!    block (see [`BlockConfig`]). This drives the paper's observation that
//!    equi-depth partitioning issues 40–50% more map tasks than DeepSea, and
//!    its rule that a fragment should never be smaller than one block.
//! 2. **Asymmetric read/write cost** — writing to the (replicated) FS is much
//!    more expensive per byte than reading (`wwrite ≫ wread`, §7.2 of the
//!    paper). See [`CostWeights`].
//! 3. **A bounded materialized-view pool** — total view/fragment storage must
//!    stay below `Smax` ([`PoolAccountant`]).
//!
//! For robustness testing the FS can also inject deterministic, seed-driven
//! faults — transient read/write failures, permanent fragment loss, checksum
//! corruption, and latency spikes — via [`FaultInjector`]; see the [`fault`]
//! module. Every stored file carries a checksum verified on read, so corrupt
//! data is detected rather than served.
//!
//! The FS can further be sharded over a simulated cluster ([`NodeSet`], see
//! the [`node`] module): files are placed on datanodes by a deterministic
//! partition-aware hash, reads fail over to the first live replica, and
//! whole-node outages — scheduled or drawn from the injector's seeded stream,
//! and always temporary — make a file whose every replica is down fail as
//! transient until a replica's node returns. A node can also be slow: it
//! keeps serving, at a latency multiplier, and hedged reads route around it.
//!
//! For crash-restart durability the crate provides an append-only,
//! snapshot-truncated [`Journal`] with monotonic LSNs and an armable crash
//! latch ([`SimulatedCrash`]); DeepSea journals catalog mutations through it
//! and replays them on cold start.
//!
//! Files carry an arbitrary in-memory payload (the actual rows of a view
//! fragment) *and* a simulated byte size, so the same object supports real
//! query execution and cluster-scale cost accounting.

pub mod block;
pub mod fault;
pub mod file;
pub mod fs;
pub mod journal;
pub mod ledger;
pub mod node;
pub mod pool;
pub mod sync;
pub mod weights;

pub use block::BlockConfig;
pub use fault::{FaultConfig, FaultInjector, FaultStats, IoError, IoOutcome};
pub use file::{FileId, StoredFile};
pub use fs::{HedgeConfig, HedgeTrace, SimFs};
pub use journal::{Journal, JournalStats, Lsn, ReplayedLog, SimulatedCrash};
pub use ledger::CostLedger;
pub use node::{placement_key, NodeConfig, NodeId, NodeSet, NodeState, NodeStats, Route};
pub use pool::{PoolAccountant, PoolError};
pub use sync::{EpochCell, Stamp};
pub use weights::CostWeights;
