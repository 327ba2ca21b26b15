//! CLI entry point.
//!
//! ```text
//! deepsea-lint --workspace [--root DIR] [--json FILE] [paths…]
//! ```
//!
//! Exit codes: `0` clean, `1` any violation, `2` usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use deepsea_lint::{report, LintRun};

struct Args {
    workspace: bool,
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

const USAGE: &str = "usage: deepsea-lint [--workspace] [--root DIR] \
                     [--json FILE] [paths...]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: None,
        json: None,
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
            "--root" => args.root = Some(path_arg(&mut it)?),
            "--json" => args.json = Some(path_arg(&mut it)?),
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

    print!("{}", report::render_plain(&run.violations, run.files.len()));
    if let Some(json_path) = &args.json {
        let json = report::render_json(&run.violations, run.files.len());
        std::fs::write(json_path, json).map_err(|e| e.to_string())?;
    }
    Ok(run.violations.is_empty())
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
