//! CLI entry point.
//!
//! ```text
//! deepsea-lint --workspace [--root DIR] [--baseline FILE] [--json FILE]
//!              [--graph-out FILE] [--write-baseline] [paths…]
//! ```
//!
//! Exit codes: `0` clean (or all violations grandfathered), `1` new
//! violations / baseline count regressions, `2` usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use deepsea_lint::{baseline::Baseline, report, LintRun};

struct Args {
    workspace: bool,
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    json: Option<PathBuf>,
    graph_out: Option<PathBuf>,
    write_baseline: bool,
    paths: Vec<PathBuf>,
}

const USAGE: &str = "usage: deepsea-lint [--workspace] [--root DIR] \
                     [--baseline FILE] [--json FILE] [--graph-out FILE] \
                     [--write-baseline] [paths...]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: None,
        baseline: None,
        json: None,
        graph_out: None,
        write_baseline: false,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let path_arg = |it: &mut dyn Iterator<Item = String>| {
            it.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{a} requires a value"))
        };
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--write-baseline" => args.write_baseline = true,
            "--root" => args.root = Some(path_arg(&mut it)?),
            "--baseline" => args.baseline = Some(path_arg(&mut it)?),
            "--json" => args.json = Some(path_arg(&mut it)?),
            "--graph-out" => args.graph_out = Some(path_arg(&mut it)?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            p if !p.starts_with('-') => args.paths.push(PathBuf::from(p)),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if !args.workspace && args.paths.is_empty() {
        return Err(format!("nothing to lint\n{USAGE}"));
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = match &args.root {
        Some(r) => r.clone(),
        None => deepsea_lint::find_workspace_root(&cwd)
            .ok_or("no workspace root found (no Cargo.toml with [workspace] above cwd)")?,
    };

    let run: LintRun = if args.workspace {
        deepsea_lint::lint_workspace(&root).map_err(|e| format!("scan failed: {e}"))?
    } else {
        let mut files = Vec::new();
        for p in &args.paths {
            let abs = if p.is_absolute() {
                p.clone()
            } else {
                cwd.join(p)
            };
            if abs.is_dir() {
                deepsea_lint::collect_rs_files(&abs, &mut files)
                    .map_err(|e| format!("{}: {e}", abs.display()))?;
            } else {
                files.push(abs);
            }
        }
        files.sort();
        deepsea_lint::lint_files(&root, &files).map_err(|e| format!("lint failed: {e}"))?
    };

    // Resolve the baseline path relative to the workspace root, so the tool
    // behaves the same from any working directory.
    let baseline_path = args.baseline.as_ref().map(|p| {
        if p.is_absolute() {
            p.clone()
        } else if cwd.join(p).is_file() {
            cwd.join(p)
        } else {
            root.join(p)
        }
    });

    if args.write_baseline {
        let pinned = match &baseline_path {
            Some(p) if p.is_file() => {
                let text = std::fs::read_to_string(p).map_err(|e| e.to_string())?;
                Baseline::parse(&text)?
            }
            _ => Baseline::default(),
        };
        let b = Baseline::from_violations(&run.violations, &pinned);
        let out_path = baseline_path
            .clone()
            .unwrap_or_else(|| root.join("lint-baseline.json"));
        std::fs::write(&out_path, b.render()).map_err(|e| e.to_string())?;
        eprintln!("wrote baseline to {}", out_path.display());
        return Ok(true);
    }

    let (text, ratchet) = match &baseline_path {
        Some(p) => {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read baseline {}: {e}", p.display()))?;
            let b = Baseline::parse(&text)?;
            let ratchet = deepsea_lint::compare(&b, &run.violations);
            (
                report::render_ratcheted(&run.violations, &ratchet, run.files.len()),
                Some(ratchet),
            )
        }
        None => (report::render_plain(&run.violations, run.files.len()), None),
    };
    print!("{text}");

    if let Some(json_path) = &args.json {
        let json = report::render_json(&run.violations, ratchet.as_ref(), run.files.len());
        std::fs::write(json_path, json).map_err(|e| e.to_string())?;
    }

    if let Some(graph_path) = &args.graph_out {
        std::fs::write(graph_path, run.graph.to_json()).map_err(|e| e.to_string())?;
        eprintln!("wrote call graph to {}", graph_path.display());
    }

    let ok = match &ratchet {
        Some(r) => !r.failed(),
        None => run.violations.is_empty(),
    };
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("deepsea-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
