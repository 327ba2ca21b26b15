//! The bench-trajectory gate.
//!
//! ```text
//! bench report [--check] [--threshold PCT] [--dir PATH]
//! ```
//!
//! `report` regenerates, at quick scale, every `gated` row of
//! `deepsea_bench::experiments::REGISTRY` (fig5a, node-failure, overload —
//! the ones whose `BENCH*.json` is checked into the repository) and diffs
//! each against its checked-in file in `--dir` (default: the current
//! directory). Missing baselines are skipped with a note, so the gate works
//! on partial checkouts.
//!
//! The simulator is deterministic: on an unchanged tree every metric is
//! bit-identical and the diff is empty. `--check` turns regressions into a
//! nonzero exit: any *cost-like* metric (simulated seconds, latency
//! percentiles, shed/eviction/fallback counts) that grew more than
//! `--threshold` percent (default 2%) over its checked-in baseline fails
//! the gate. Improvements and non-cost changes are reported but pass —
//! refresh the snapshots with `experiments --quick` when they are
//! intentional.

use deepsea_bench::experiments::{Scale, REGISTRY};
use deepsea_bench::flag_value;
use deepsea_bench::gate::compare_snapshots;
use serde::ObjectBuilder;

/// Run `deepsea-lint` over the workspace and snapshot its wall time and
/// per-rule hit counts, so linter slowdowns and rule regressions ride the
/// same trajectory gate as the simulator metrics (`violations.*` keys are
/// cost-like; `wall_ms` is informational — it is nondeterministic).
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
fn lint_snapshot() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let root = deepsea_lint::find_workspace_root(&cwd)?;
    // deepsea-lint: allow(wall_clock) -- measures the linter's own wall time
    // for the trajectory snapshot; feeds no simulated cost or decision.
    let start = std::time::Instant::now();
    let run = deepsea_lint::lint_workspace(&root).ok()?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut by_rule = ObjectBuilder::new();
    for rule in deepsea_lint::RuleId::all() {
        let n = run.violations.iter().filter(|v| v.rule == rule).count() as u64;
        by_rule = by_rule.field(rule.code(), n);
    }
    let obj = ObjectBuilder::new()
        .field("experiment", "lint")
        .field("scale", "quick")
        .field("files_scanned", run.files.len() as u64)
        .field("wall_ms", wall_ms)
        .field("violations_total", run.violations.len() as u64)
        .field("violations", by_rule.build())
        .build();
    Some(serde::to_string(&obj))
}

/// Default regression threshold, percent.
const DEFAULT_THRESHOLD_PCT: f64 = 2.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("report") {
        eprintln!("usage: bench report [--check] [--threshold PCT] [--dir PATH]");
        std::process::exit(2);
    }
    let check = args.iter().any(|a| a == "--check");
    let threshold_pct = flag_value(&args, "--threshold")
        .map(|v| {
            v.parse::<f64>().unwrap_or_else(|_| {
                eprintln!("--threshold wants a number (percent), got {v:?}");
                std::process::exit(2);
            })
        })
        .unwrap_or(DEFAULT_THRESHOLD_PCT);
    let threshold = threshold_pct / 100.0;
    let dir = flag_value(&args, "--dir").unwrap_or_else(|| ".".to_string());

    // (snapshot file, fresh quick-scale regeneration) for every registry
    // row the repository pins.
    let mut snapshots: Vec<(&str, String)> = REGISTRY
        .iter()
        .filter(|e| e.gated)
        .map(|e| {
            let file = e.bench_file.expect("invariant: a gated row names its file");
            let json = (e.run)(Scale::Quick).bench_json;
            (
                file,
                json.expect("invariant: a gated row renders its document"),
            )
        })
        .collect();
    match lint_snapshot() {
        Some(json) => snapshots.push(("BENCH_lint.json", json)),
        None => println!("BENCH_lint.json: no workspace root found, lint snapshot skipped"),
    }

    let mut failed = false;
    for (file, fresh) in &snapshots {
        let path = format!("{dir}/{file}");
        let baseline = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(_) => {
                println!("{file}: no baseline at {path}, skipped");
                continue;
            }
        };
        let report = match compare_snapshots(&baseline, fresh) {
            Ok(r) => r,
            Err(e) => {
                println!("{file}: FAILED to diff: {e}");
                failed = true;
                continue;
            }
        };
        let regressions = report.regressions(threshold);
        if report.changed().is_empty() && report.missing.is_empty() && report.added.is_empty() {
            println!("{file}: unchanged ({} metrics)", report.deltas.len());
        } else {
            println!("{file}:");
            print!("{}", report.render(threshold));
        }
        if !regressions.is_empty() {
            println!(
                "{file}: {} regression(s) past {threshold_pct}% threshold",
                regressions.len()
            );
            failed = true;
        }
    }

    if failed && check {
        eprintln!("bench gate FAILED");
        std::process::exit(1);
    }
    if failed {
        eprintln!("regressions found (informational; use --check to fail)");
    }
}
