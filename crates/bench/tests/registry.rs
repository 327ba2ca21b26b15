//! The experiment registry is the one list both binaries iterate: pin its
//! shape, its link to the checked-in `BENCH*.json` baselines, and the
//! `experiments` binary's handling of an id that is not in it.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use deepsea_bench::experiments::{METRICS_SOURCE, REGISTRY, TRACE_SOURCES};

#[test]
fn ids_and_bench_files_are_unique() {
    let ids: BTreeSet<&str> = REGISTRY.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), REGISTRY.len(), "duplicate experiment id");
    let files: Vec<&str> = REGISTRY.iter().filter_map(|e| e.bench_file).collect();
    let distinct: BTreeSet<&str> = files.iter().copied().collect();
    assert_eq!(distinct.len(), files.len(), "two rows write one file");
}

#[test]
fn gated_rows_are_exactly_the_checked_in_baselines() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = |gated: bool| -> Vec<&str> {
        REGISTRY
            .iter()
            .filter(|e| e.gated == gated)
            .filter_map(|e| e.bench_file)
            .collect()
    };
    assert_eq!(
        files(true),
        [
            "BENCH.json",
            "BENCH_node_failure.json",
            "BENCH_overload.json"
        ]
    );
    for file in files(true) {
        assert!(root.join(file).is_file(), "{file} must be checked in");
    }
    // The one row that writes a file `bench report` does not gate.
    assert_eq!(files(false), ["BENCH_pressure.json"]);
    // A gated row without a file would be silently ungated.
    assert!(REGISTRY.iter().all(|e| !e.gated || e.bench_file.is_some()));
}

#[test]
fn trace_and_metrics_sources_are_traced_registry_rows() {
    for id in TRACE_SOURCES.iter().chain([&METRICS_SOURCE]) {
        let row = REGISTRY.iter().find(|e| e.id == *id);
        let row = row.unwrap_or_else(|| panic!("{id} is not a registry id"));
        assert!(row.bench_file.is_some(), "{id} does not run traced");
    }
}

#[test]
fn unknown_id_exits_2_and_names_it() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "fig99"])
        .output()
        .expect("run experiments");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment \"fig99\""),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run before the id check");
}

#[test]
fn a_seed_that_is_not_a_number_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--seed", "0xDEE95EA0", "table1"])
        .output()
        .expect("run experiments");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--seed wants"), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "nothing may run before the flag check"
    );
}
