//! # deepsea-lint
//!
//! A project-invariant linter for the DeepSea workspace. The repo's core
//! guarantees — bit-identical golden replay, observability transparency,
//! crash-recovery idempotency — are determinism properties: one stray
//! `HashMap` iteration in an eviction tie-break or one `Instant::now()` in
//! a costed path silently breaks replay in ways that are miserable to
//! bisect. This crate enforces those invariants statically, over a
//! hand-rolled token stream (no rustc plumbing, std-only), with a
//! checked-in, *ratcheted* baseline so pre-existing violations are burned
//! down over time instead of blocking the build.
//!
//! See [`rules`] for the rule catalog, [`baseline`] for ratchet semantics,
//! and DESIGN.md §10 for the rationale tied to each guarantee.

pub mod baseline;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;

pub use baseline::{compare, Baseline, Ratchet};
pub use graph::CallGraph;
pub use rules::{lint_source, RuleId, Violation};

use std::io;
use std::path::{Path, PathBuf};

/// Result of linting a file set.
pub struct LintRun {
    /// All unsuppressed violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Workspace-relative paths scanned, sorted.
    pub files: Vec<String>,
    /// The cross-crate call graph the R1 corpus pass ran over (exported by
    /// `--graph-out`).
    pub graph: CallGraph,
}

/// Directories scanned by `--workspace`, relative to the workspace root.
const WORKSPACE_DIRS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Walk the workspace rooted at `root` and lint every `.rs` file under the
/// standard source dirs (`target/` is never entered). File order — and so
/// report order — is sorted and fully deterministic.
pub fn lint_workspace(root: &Path) -> io::Result<LintRun> {
    let mut files = Vec::new();
    for dir in WORKSPACE_DIRS {
        let d = root.join(dir);
        if d.is_dir() {
            collect_rs_files(&d, &mut files)?;
        }
    }
    files.sort();
    lint_files(root, &files)
}

/// Lint an explicit list of absolute file paths, relativizing against
/// `root` for scoping and reporting.
pub fn lint_files(root: &Path, files: &[PathBuf]) -> io::Result<LintRun> {
    let mut violations = Vec::new();
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let rel = relative_to(root, path);
        let src = std::fs::read_to_string(path)?;
        violations.extend(lint_source(&rel, &src));
        sources.push((rel, src));
    }
    // Corpus pass: R1 read-path purity is a reachability property of the
    // whole call graph, so it runs over the file set, not per file. Allow
    // markers still apply at the flagged call site.
    let graph = build_graph(&sources);
    let r1 = graph.read_path_purity_violations();
    for (rel, src) in &sources {
        let mut mine: Vec<Violation> = r1.iter().filter(|v| &v.file == rel).cloned().collect();
        if mine.is_empty() {
            continue;
        }
        rules::apply_markers(rel, src, &mut mine);
        violations.extend(mine);
    }
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(LintRun {
        violations,
        files: sources.into_iter().map(|(rel, _)| rel).collect(),
        graph,
    })
}

/// Build the cross-crate call graph over `(rel, source)` pairs. Test-scoped
/// files and vendored shim crates are excluded from the corpus.
pub fn build_graph(sources: &[(String, String)]) -> CallGraph {
    let parsed: Vec<items::FileItems> = sources
        .iter()
        .filter(|(rel, _)| rules::in_graph_corpus(rel))
        .map(|(rel, src)| items::parse_file(rel, src))
        .collect();
    CallGraph::build(&parsed)
}

/// Workspace-relative path with `/` separators (falls back to the full
/// path when `path` is outside `root`).
fn relative_to(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Append every `.rs` file under `dir` to `out`, depth-first in sorted
/// order; `target/` and dot-directories are never entered.
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Find the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
