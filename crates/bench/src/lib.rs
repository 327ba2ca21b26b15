//! # deepsea-bench
//!
//! The experiment harness that regenerates **every table and figure** of the
//! DeepSea paper's evaluation (§10). [`harness`] runs a workload under one or
//! more system variants and collects per-query simulated elapsed times;
//! [`report`] renders paper-style tables and series; [`experiments`] wires
//! both into the figure-by-figure reproductions driven by the `experiments`
//! binary, the `bench` gate and the criterion benches.

pub mod experiments;
pub mod gate;
pub mod golden;
pub mod harness;
pub mod pressure;
pub mod report;

pub use harness::{run_variants, run_workload, run_workload_observed, QueryRecord, RunResult};

/// The value following `name` on a command line — how both binaries read
/// their `--flag VALUE` options.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).cloned()
}
