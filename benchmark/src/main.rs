//! Command line of the benchmark.
//!
//! ```text
//! deepsea-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last line of standard output is the result object
//! deepsea-benchmark [--seed <n>] [--seconds <s>]
//!     every workload, each in its own process, untraced then traced
//! deepsea-benchmark --selfcheck [--seed <n>] [--seconds <s>]
//!     two interleaved sets of runs compared against BENCHMARK.json's bounds
//! ```

use std::process::ExitCode;

use deepsea_benchmark::run::{run, RunConfig};
use deepsea_benchmark::selfcheck::{child, selfcheck};
use deepsea_benchmark::workload::Workload;

/// Seed and duration of a run started without `--seed` / `--seconds`.
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 20.0;

/// Where traced runs leave their spans.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/target/traces");

#[derive(Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    selfcheck: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One run in this process.
fn run_one(cfg: &RunConfig) -> ExitCode {
    let (report, jsonl) = run(cfg);
    if cfg.trace {
        let file = format!("{TRACE_DIR}/{}-seed{}.jsonl", cfg.workload.name(), cfg.seed);
        match std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&file, jsonl)) {
            Ok(()) => println!("spans written to {file}"),
            Err(e) => eprintln!("could not write {file}: {e}"),
        }
    }
    print!("{}", report.render());
    ExitCode::SUCCESS
}

/// Every workload in its own process, untraced then traced.
fn run_all(seed: u64, seconds: f64) -> Result<ExitCode, String> {
    for workload in Workload::ALL {
        for trace in [false, true] {
            println!("== {} --trace {}", workload.name(), u8::from(trace));
            let status = child(workload, seed, seconds, trace)?
                .status()
                .map_err(|e| format!("spawn: {e}"))?;
            if !status.success() {
                return Err(format!("{} exited with {status}", workload.name()));
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("deepsea-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let outcome = if args.selfcheck {
        selfcheck(seed, args.seconds).map(|ok| {
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        })
    } else if let Some(workload) = args.workload {
        let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
        Ok(run_one(&RunConfig::new(
            workload, seed, seconds, args.trace,
        )))
    } else {
        run_all(seed, args.seconds.unwrap_or(DEFAULT_SECONDS))
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("deepsea-benchmark: {e}");
        ExitCode::FAILURE
    })
}
