//! `--selfcheck`: does the benchmark agree with itself?
//!
//! Two interleaved sets of end-to-end runs per workload (A, B, A, B, …) on
//! the same seeds. Per metric, the two set medians must not differ by more
//! than the bound `BENCHMARK.json` gives it, each set's spread must stay
//! within that bound (`setup_s` excepted, as in the driver's rule), and
//! the simulated metrics of a seed must be bit-identical in both sets.

use std::process::Command;

use serde::Value;

use crate::stats::{iqr_share, median};
use crate::workload::Workload;

/// Runs per set.
const RUNS_PER_SET: usize = 5;

/// `BENCHMARK.json`, next to this package's directory.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// One end-to-end metric's gate, read from `BENCHMARK.json`.
struct Gate {
    name: String,
    bound: f64,
}

fn gates(doc: &Value) -> Result<Vec<Gate>, String> {
    let Some(Value::Array(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json: end_to_end must be an array".into());
    };
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, bound) {
                (Some(name), Some(bound)) => Ok(Gate {
                    name: name.to_string(),
                    bound,
                }),
                _ => Err("BENCHMARK.json: a metric needs a name and a bound".into()),
            }
        })
        .collect()
}

/// This binary again, as the child process of one run: every run gets a
/// process of its own so that none inherits another's heap or caches.
pub fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    Ok(cmd)
}

/// Run one end-to-end child process and parse its result line.
fn child_run(workload: Workload, seed: u64, seconds: f64) -> Result<Value, String> {
    let out = child(workload, seed, seconds, false)?
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", workload.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let result = serde::from_str(last).map_err(|e| format!("result line: {e}"))?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{} seed {seed}: correct is not true",
            workload.name()
        ));
    }
    Ok(result)
}

fn value_of(result: &Value, metric: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("result has no metric {metric}"))
}

/// Run the self-check; `Ok(true)` when every row passed.
pub fn selfcheck(first_seed: u64, seconds: Option<f64>) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let doc = serde::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let gates = gates(&doc)?;
    let seconds = match seconds {
        Some(s) => s,
        None => doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: run_seconds")?,
    };

    let mut all_ok = true;
    println!(
        "{:<12} {:<28} {:>14} {:>14} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "diff %", "iqr A %", "iqr B %", "bound %"
    );
    for workload in Workload::ALL {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..RUNS_PER_SET as u64 {
            a.push(child_run(workload, first_seed + i, seconds)?);
            b.push(child_run(workload, first_seed + i, seconds)?);
        }
        for gate in &gates {
            let series = |set: &[Value]| -> Result<Vec<f64>, String> {
                set.iter().map(|r| value_of(r, &gate.name)).collect()
            };
            let (va, vb) = (series(&a)?, series(&b)?);
            let (ma, mb) = (median(&va), median(&vb));
            let diff = (ma - mb).abs() / ma.min(mb);
            let (sa, sb) = (iqr_share(&va), iqr_share(&vb));
            let simulated =
                gate.name.starts_with("sim_") || gate.name == "stored_bytes_per_base_byte";
            let verdict =
                if simulated && va.iter().zip(&vb).any(|(x, y)| x.to_bits() != y.to_bits()) {
                    "FAIL: simulated metric not bit-identical"
                } else if diff > gate.bound {
                    "FAIL: medians differ by more than the bound"
                } else if gate.name != "setup_s" && sa.max(sb) > gate.bound {
                    "FAIL: spread over bound"
                } else {
                    "ok"
                };
            all_ok &= verdict == "ok";
            println!(
                "{:<12} {:<28} {:>14.6} {:>14.6} {:>8.2} {:>8.2} {:>8.2} {:>7.1}  {verdict}",
                workload.name(),
                gate.name,
                ma,
                mb,
                diff * 100.0,
                sa * 100.0,
                sb * 100.0,
                gate.bound * 100.0
            );
        }
    }
    Ok(all_ok)
}
