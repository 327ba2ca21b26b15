//! The `deepsea-lint` binary's contract: its exit code is the CI gate, so
//! each code is pinned on a tree written to disk.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A read-path root calling a helper, with no violation.
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
fn graph_out_is_byte_identical_across_runs() {
    let root = tree("graph", CLEAN);
    let graphs: Vec<Vec<u8>> = ["a.json", "b.json"]
        .iter()
        .map(|name| {
            let path = root.join(name);
            let out = lint(&root, &["--graph-out", path.to_str().expect("utf-8 path")]);
            assert_eq!(out.status.code(), Some(0), "{out:?}");
            fs::read(&path).expect("graph written")
        })
        .collect();
    assert_eq!(graphs[0], graphs[1]);
    assert!(String::from_utf8_lossy(&graphs[0]).contains("\"read_root\": true"));
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
