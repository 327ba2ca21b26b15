//! # deepsea-engine
//!
//! A miniature SQL-on-MapReduce execution engine standing in for Hive in the
//! DeepSea reproduction. It provides:
//!
//! - a logical plan algebra ([`plan::LogicalPlan`]: scan / select / project /
//!   join / aggregate / view-scan) mirroring the operator trees Hive builds,
//! - a real executor ([`exec`]) over in-memory tables that also charges all
//!   simulated I/O to the storage layer and reports [`exec::ExecMetrics`],
//! - a pluggable **execution backend** ([`backend::ExecutionBackend`]) — the
//!   only interface through which `deepsea-core` runs plans and prices I/O;
//!   [`backend::SimBackend`] pairs the executor with the cluster simulator,
//! - a MapReduce **cluster simulator** ([`cluster::ClusterSim`]) converting
//!   metrics into elapsed seconds using task waves over a fixed slot count —
//!   the quantity every figure of the paper plots,
//! - an analytic **cost estimator** ([`cost`]) used for the initial
//!   cost/size estimates of view candidates before they are first executed,
//! - a **SQL front end** ([`sql`]) covering the select-project-join-aggregate
//!   class the evaluation uses (the role of Hive's parser in Figure 4),
//! - a predicate-**pushdown optimizer** ([`optimize`]) used by the
//!   vanilla-Hive baseline (§10.2 contrasts DeepSea's no-pushdown plans
//!   against it),
//! - Goldstein–Larson style **query signatures** ([`signature`]) and the
//!   sufficient matching condition DeepSea uses for logical view matching,
//! - compensation-based **rewriting** ([`rewrite`]) of a query against a
//!   matched view, and subquery enumeration ([`subquery`], Definition 6).

pub mod backend;
pub mod catalog;
pub mod cluster;
pub mod cost;
pub mod exec;
pub mod explain;
pub mod optimize;
pub mod plan;
pub mod rewrite;
pub mod signature;
pub mod sql;
pub mod subquery;

pub use backend::{ExecutionBackend, RetryAttempt, SimBackend};
pub use catalog::Catalog;
pub use cluster::ClusterSim;
pub use exec::{execute, ExecError, ExecMetrics};
pub use plan::{AggExpr, AggFunc, LogicalPlan, OverlapClip, ViewScanInfo};
pub use signature::Signature;
