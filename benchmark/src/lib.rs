//! # deepsea-benchmark
//!
//! The repository's performance rail: four fixed workloads measured on two
//! clocks — the simulated cluster seconds the paper reports and the real
//! wall time of this implementation — with per-layer spans recorded from
//! outside the program. See `README.md` for the rationale of every
//! workload, estimator and metric.

pub mod backend;
pub mod report;
pub mod run;
pub mod selfcheck;
pub mod spans;
pub mod stats;
pub mod workload;
