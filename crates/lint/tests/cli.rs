//! The `deepsea-lint` binary's contract: its exit code is the CI gate, so
//! each code is pinned on a tree written to disk.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A method calling a helper, with no violation.
const CLEAN: &str = "pub struct ReadSnapshot;\n\
                     impl ReadSnapshot {\n\
                     \x20   pub fn answer(&self) -> u32 {\n\
                     \x20       self.step().unwrap_or(0)\n\
                     \x20   }\n\
                     \x20   fn step(&self) -> Option<u32> {\n\
                     \x20       None\n\
                     \x20   }\n\
                     }\n";

/// A fresh tree whose only file is `crates/core/src/lib.rs` holding `src`.
fn tree(name: &str, src: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cli")
        .join(name);
    let dir = root.join("crates/core/src");
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&dir).expect("create the tree");
    fs::write(dir.join("lib.rs"), src).expect("write the file");
    root
}

/// Run the binary over the workspace at `root` with extra `args`.
fn lint(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_deepsea-lint"))
        .arg("--workspace")
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("run deepsea-lint")
}

#[test]
fn a_clean_tree_exits_zero() {
    let out = lint(&tree("clean", CLEAN), &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn an_unwrap_exits_one_and_names_its_line() {
    let src = format!("{CLEAN}fn f(x: Option<u32>) -> u32 {{ x.unwrap() }}\n");
    let out = lint(&tree("unwrap", &src), &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/core/src/lib.rs:10: [P1 panic]"),
        "{stdout}"
    );
}

#[test]
fn the_removed_baseline_flag_is_a_usage_error() {
    let out = lint(&tree("baseline-flag", CLEAN), &["--baseline", "x"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--baseline`"));
}

#[test]
fn the_removed_graph_out_flag_is_a_usage_error() {
    let out = lint(&tree("graph-out-flag", CLEAN), &["--graph-out", "x"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--graph-out`"));
}

#[test]
fn the_json_report_has_no_ratchet() {
    let root = tree("json", CLEAN);
    let path = root.join("report.json");
    let out = lint(&root, &["--json", path.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = fs::read_to_string(&path).expect("report written");
    assert_eq!(
        json,
        "{\"files_scanned\":1,\"violations\":[],\"totals\":{}}\n"
    );
}

#[test]
fn the_json_report_lists_each_violation_under_its_code() {
    let src =
        format!("{CLEAN}fn f(j: &Journal) {{ let _ = j.append(1); }}\nuse std::sync::Mutex;\n");
    let root = tree("json-hits", &src);
    let path = root.join("report.json");
    let out = lint(&root, &["--json", path.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let json = fs::read_to_string(&path).expect("report written");
    for site in [
        "\"rule\":\"R3\",\"slug\":\"cost_flow\",\"file\":\"crates/core/src/lib.rs\",\"line\":10",
        "\"rule\":\"L1\",\"slug\":\"layering\",\"file\":\"crates/core/src/lib.rs\",\"line\":11",
        "\"totals\":{\"L1\":1,\"R3\":1}",
    ] {
        assert!(json.contains(site), "{site} not in {json}");
    }
}

#[test]
fn explicit_paths_lint_only_those_files() {
    let root = tree("paths", CLEAN);
    let other = root.join("crates/engine/src/lib.rs");
    fs::create_dir_all(other.parent().expect("a parent")).expect("mkdir");
    fs::write(&other, "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n").expect("write");
    let run = |path: &Path| {
        Command::new(env!("CARGO_BIN_EXE_deepsea-lint"))
            .arg("--root")
            .arg(&root)
            .arg(path)
            .output()
            .expect("run deepsea-lint")
    };
    let out = run(&root.join("crates/core"));
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 files scanned"));
    let out = run(&other);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("crates/engine/src/lib.rs:1: [P1 panic]"));
}

#[test]
fn nothing_to_lint_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_deepsea-lint"))
        .output()
        .expect("run deepsea-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("nothing to lint"));
}

#[test]
fn an_unreadable_path_is_an_io_error() {
    let root = tree("missing", CLEAN);
    let out = Command::new(env!("CARGO_BIN_EXE_deepsea-lint"))
        .arg("--root")
        .arg(&root)
        .arg(root.join("crates/core/src/gone.rs"))
        .output()
        .expect("run deepsea-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("lint failed"));
}

#[test]
fn the_workspace_walk_skips_target_and_dot_dirs() {
    let root = tree("walk", CLEAN);
    let bad = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    for rel in [
        "crates/core/target/gen.rs",
        "crates/core/.cache/gen.rs",
        "benchmark/src/main.rs",
    ] {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("a parent")).expect("mkdir");
        fs::write(&path, bad).expect("write");
    }
    let out = lint(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 files scanned"));
}
