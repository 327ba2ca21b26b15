//! The bench-trajectory gate.
//!
//! ```text
//! bench report [--check] [--threshold PCT] [--dir PATH]
//! ```
//!
//! `report` regenerates, at quick scale, every `gated` row of
//! `deepsea_bench::experiments::REGISTRY` (fig5a, node-failure, overload —
//! the ones whose `BENCH*.json` is checked into the repository) and a lint
//! run, and diffs each against its checked-in file in `--dir` (default: the
//! current directory). Missing baselines are skipped with a note, so the
//! gate works on partial checkouts.
//!
//! The simulator is deterministic: on an unchanged tree every metric is
//! bit-identical and the diff is empty. Plain `report` then rewrites every
//! file it diffed with the fresh run, `BENCH_lint.json` included, so an
//! intentional change refreshes the snapshots in one step; review the diff
//! it printed before committing them. `--check` writes nothing and turns
//! regressions into a nonzero exit: any *cost-like* metric (simulated
//! seconds, latency percentiles, shed/eviction/fallback counts) that grew
//! more than `--threshold` percent (default 2%) over its checked-in
//! baseline fails the gate. Improvements and non-cost changes are reported
//! but pass.

use std::path::Path;

use deepsea_bench::experiments::{Scale, DEFAULT_SEED, REGISTRY};
use deepsea_bench::flag_value;
use deepsea_bench::gate::report_dir;
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
    let dir = flag_value(&args, "--dir").unwrap_or_else(|| ".".to_string());

    // (snapshot file, fresh quick-scale regeneration) for every registry
    // row the repository pins.
    let mut snapshots: Vec<(&str, String)> = REGISTRY
        .iter()
        .filter(|e| e.gated)
        .map(|e| {
            let file = e.bench_file.expect("invariant: a gated row names its file");
            let json = (e.run)(Scale::Quick, DEFAULT_SEED).bench_json;
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

    let (text, failed) = report_dir(Path::new(&dir), &snapshots, threshold_pct, check)
        .unwrap_or_else(|e| {
            eprintln!("cannot write the snapshots in {dir}: {e}");
            std::process::exit(2);
        });
    print!("{text}");

    if failed && check {
        eprintln!("bench gate FAILED");
        std::process::exit(1);
    }
    if failed {
        eprintln!("regressions found (informational; use --check to fail)");
    }
}
