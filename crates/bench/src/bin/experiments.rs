//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--seed N] [--metrics-out PATH] [--events-out PATH] [--trace-out PATH]
//!             [all|fig1|fig2|table1|fig5a|fig5b|fig6|fig7|fig8a|fig8b|fig9|fig10|ablations|pressure|node-failure|overload]...
//! ```
//!
//! The ids are the rows of [`deepsea_bench::experiments::REGISTRY`]. With no
//! experiment arguments, runs every row. `--quick` scales workloads down
//! (used by CI/smoke runs); the default is paper scale. `--seed N` (decimal)
//! generates every instance and query log from `N` instead of
//! [`deepsea_bench::experiments::DEFAULT_SEED`] (3739836064), the seed of
//! the checked-in `BENCH*.json` snapshots; the serving scenarios' scheduler
//! seed stays fixed.
//!
//! A row with a `bench_file` writes its machine-readable summary there, in
//! the current directory: `fig5a` →
//! `BENCH.json` (variant totals, DS stage totals), `pressure` →
//! `BENCH_pressure.json` (client latency percentiles under eviction
//! pressure), `node-failure` → `BENCH_node_failure.json` (latency and
//! degraded-read rate at replication 1 and 2), `overload` →
//! `BENCH_overload.json` (latency, shed rate and hedge counters under
//! rolling gray slowness, hedging off vs on).
//!
//! The serving scenarios always run under an attached observer; fig5a's DS
//! run does only when a dump flag below asks for one.
//! `--metrics-out` dumps the fig5a observer's metrics in Prometheus text
//! format and `--events-out` its decision-event audit log as JSONL.
//! `--trace-out PATH` writes the causal span log of the richest traced run
//! (overload if it ran, else pressure, node-failure, or fig5a) as
//! deterministic Chrome-trace-event JSON — loadable in Perfetto or
//! `chrome://tracing` — and prints a text top-down critical-path profile of
//! the slowest tickets to stdout.

use std::io::Write;

use deepsea_bench::experiments::{
    fig5a_observed, Experiment, Run, Scale, DEFAULT_SEED, METRICS_SOURCE, REGISTRY, TRACE_SOURCES,
};
use deepsea_bench::flag_value;
use deepsea_core::Observer;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Paper };
    let metrics_out = flag_value(&args, "--metrics-out");
    let events_out = flag_value(&args, "--events-out");
    let trace_out = flag_value(&args, "--trace-out");
    let seed_arg = flag_value(&args, "--seed");
    let seed = seed_arg.as_ref().map_or(DEFAULT_SEED, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--seed wants an unsigned integer, got {v:?}");
            std::process::exit(2);
        })
    });
    let flag_values: Vec<&String> = [&metrics_out, &events_out, &trace_out, &seed_arg]
        .iter()
        .filter_map(|o| o.as_ref())
        .collect();
    let wanted: Vec<&String> = args
        .iter()
        .filter(|a| !a.starts_with("--") && !flag_values.contains(a))
        .collect();

    let rows: Vec<&Experiment> = if wanted.is_empty() || wanted.iter().any(|w| *w == "all") {
        REGISTRY.iter().collect()
    } else {
        wanted
            .iter()
            .map(|w| {
                REGISTRY
                    .iter()
                    .find(|e| e.id == w.as_str())
                    .unwrap_or_else(|| {
                        eprintln!("unknown experiment {w:?}");
                        std::process::exit(2);
                    })
            })
            .collect()
    };
    let dumps = metrics_out.is_some() || events_out.is_some() || trace_out.is_some();
    let runs: Vec<(&Experiment, Run)> = rows
        .iter()
        .map(|e| {
            let run = if dumps && e.id == METRICS_SOURCE {
                fig5a_observed(scale, seed)
            } else {
                (e.run)(scale, seed)
            };
            assert_eq!(
                e.bench_file.is_some(),
                run.bench_json.is_some(),
                "{}: a row has a bench_file exactly when its run renders the document",
                e.id
            );
            (*e, run)
        })
        .collect();

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (e, r) in &runs {
        writeln!(out, "## {} — {}\n", e.id, r.title).unwrap();
        writeln!(out, "{}", r.body).unwrap();
    }
    drop(out);

    // The (last) run of a row, and its observer if that row ran traced.
    let run_of = |id: &str| -> Option<&Run> {
        let (_, run) = runs.iter().rev().find(|(e, _)| e.id == id)?;
        Some(run)
    };
    let observer_of = |id: &str| -> Option<&Observer> { run_of(id)?.observer.as_ref() };

    let metrics_obs = observer_of(METRICS_SOURCE);
    if metrics_obs.is_none() && (metrics_out.is_some() || events_out.is_some()) {
        eprintln!("--metrics-out/--events-out require {METRICS_SOURCE} (or all) to run");
        std::process::exit(2);
    }

    for e in &REGISTRY {
        let json = run_of(e.id).and_then(|run| run.bench_json.as_ref());
        if let (Some(file), Some(json)) = (e.bench_file, json) {
            std::fs::write(file, format!("{json}\n"))
                .unwrap_or_else(|err| panic!("write {file}: {err}"));
            eprintln!("wrote {file}");
        }
    }

    if let Some(obs) = metrics_obs {
        if let Some(path) = &metrics_out {
            std::fs::write(path, obs.render_prometheus()).expect("write metrics");
            eprintln!("wrote {path}");
        }
        if let Some(path) = &events_out {
            std::fs::write(path, obs.events_jsonl()).expect("write events");
            eprintln!("wrote {path}");
        }
    }

    if let Some(path) = &trace_out {
        let Some(obs) = TRACE_SOURCES.iter().find_map(|id| observer_of(id)) else {
            eprintln!(
                "--trace-out requires a traced experiment (fig5a, pressure, \
                 node-failure or overload) to run"
            );
            std::process::exit(2);
        };
        let spans = obs.spans_snapshot();
        std::fs::write(path, deepsea_obs::chrome_trace_json(&spans)).expect("write trace");
        let forest = deepsea_obs::TraceForest::from_spans(&spans);
        let tickets: Vec<u64> = forest.trace_ids().into_iter().filter(|&t| t != 0).collect();
        println!("{}", deepsea_obs::render_text_profile(&forest, &tickets, 5));
        eprintln!("wrote {path}");
    }
}
