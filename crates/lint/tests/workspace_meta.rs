//! Meta-test: the linter runs over the real workspace and the checked-in
//! `lint-baseline.json` holds. This is the same gate CI runs; keeping it in
//! the test suite means `cargo test` alone catches a lint regression.

use std::path::Path;

use deepsea_lint::{compare, lint_source, lint_workspace, Baseline, RuleId};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

fn checked_in_baseline() -> Baseline {
    let path = workspace_root().join("lint-baseline.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Baseline::parse(&text).expect("lint-baseline.json parses")
}

#[test]
fn workspace_is_clean_against_checked_in_baseline() {
    let root = workspace_root();
    let run = lint_workspace(root).expect("workspace scan");
    assert!(
        run.files.len() > 50,
        "scan looks truncated: {} files",
        run.files.len()
    );
    let ratchet = compare(&checked_in_baseline(), &run.violations);
    let mut msg = String::new();
    for v in &ratchet.new_violations {
        msg.push_str(&format!(
            "\n  {}:{}: [{}] {}",
            v.file,
            v.line,
            v.rule.code(),
            v.message
        ));
    }
    assert!(
        !ratchet.failed(),
        "lint ratchet failed — fix the sites or justify with a marker:{msg}"
    );
}

#[test]
fn driver_hot_files_are_pinned_clean() {
    // The PR that introduced the linter burned these to zero; the explicit
    // 0 entries in the baseline keep them there. The serving-layer files
    // were born clean and are pinned so they stay that way.
    let b = checked_in_baseline();
    for file in [
        "crates/core/src/driver/write_path/evict.rs",
        "crates/core/src/driver/read_path/matching.rs",
        "crates/core/src/driver/write_path/selection.rs",
        "crates/core/src/server/mod.rs",
        "crates/core/src/server/workers.rs",
        "crates/core/src/snapshot.rs",
        "crates/storage/src/sync.rs",
    ] {
        assert!(
            b.counts["P1"].contains_key(file),
            "{file} lost its explicit P1 pin"
        );
        assert_eq!(b.allowed("P1", file), 0, "{file} must stay panic-free");
    }
    assert_eq!(
        b.allowed("D1", "crates/core/src/driver/write_path/materialize.rs"),
        0,
        "materialize.rs must stay free of hash collections"
    );
}

#[test]
fn injected_violation_fails_the_ratchet() {
    // Take a real, pinned-clean source file, append a violation, and check
    // the whole chain (lexer → rules → ratchet) reports it as a failure.
    let root = workspace_root();
    let rel = "crates/core/src/driver/write_path/selection.rs";
    let mut src = std::fs::read_to_string(root.join(rel)).expect("read selection.rs");
    assert!(
        lint_source(rel, &src).is_empty(),
        "selection.rs should currently be clean"
    );
    src.push_str("\nfn injected(x: Option<u32>) -> u32 { x.unwrap() }\n");
    let vs = lint_source(rel, &src);
    assert!(
        vs.iter().any(|v| v.rule == RuleId::Panic),
        "injected unwrap not caught: {vs:?}"
    );
    let ratchet = compare(&checked_in_baseline(), &vs);
    assert!(
        ratchet.failed(),
        "pinned-zero file did not fail the ratchet"
    );
    assert!(ratchet
        .new_violations
        .iter()
        .any(|v| v.file == rel && v.rule == RuleId::Panic));
}

#[test]
fn grandfathered_counts_are_exact() {
    // The baseline is a ratchet, not a budget: if someone fixes a
    // grandfathered site, the next --write-baseline must shrink. This test
    // nags by failing the moment the workspace count drops below an
    // allowance, so stale slack never accumulates.
    let root = workspace_root();
    let run = lint_workspace(root).expect("workspace scan");
    let ratchet = compare(&checked_in_baseline(), &run.violations);
    assert!(
        ratchet.improvements.is_empty(),
        "baseline has slack — ratchet it down with --write-baseline: {:?}",
        ratchet.improvements
    );
}

#[test]
fn real_read_path_is_pure() {
    // The headline claim of the call-graph pass: nothing reachable from a
    // read-path entry mutates registry/catalog/pool state, appends to the
    // journal, or crosses into write_path. The baseline pins this at zero;
    // this test states it directly so a future R1 hit names itself even if
    // someone regenerates the baseline without looking.
    let root = workspace_root();
    let run = lint_workspace(root).expect("workspace scan");
    let r1: Vec<_> = run
        .violations
        .iter()
        .filter(|v| v.rule == RuleId::ReadPurity)
        .collect();
    assert!(r1.is_empty(), "read path is impure: {r1:?}");
}

#[test]
fn injected_read_path_mutation_is_caught_by_the_graph() {
    // Drive the whole corpus pass on an in-memory tree: a read-path entry
    // that reaches an `&mut self` registry method — via one hop of
    // indirection — must produce an R1 violation at the call site, and an
    // allow-marker on that site must suppress it.
    let read = "crates/core/src/driver/read_path/mod.rs";
    let sources = vec![
        (
            read.to_string(),
            "impl ReadView {\n\
             fn answer(&self, registry: &ViewRegistry) {\n\
             refresh_stats(registry);\n\
             } }\n"
                .to_string(),
        ),
        (
            "crates/core/src/driver/mod.rs".to_string(),
            "pub fn refresh_stats(registry: &ViewRegistry) {\n\
             registry.rebalance(0);\n\
             }\n"
            .to_string(),
        ),
        (
            "crates/core/src/registry.rs".to_string(),
            "impl ViewRegistry { pub fn rebalance(&mut self, v: u64) {} }".to_string(),
        ),
    ];
    let g = deepsea_lint::build_graph(&sources);
    let vs = g.read_path_purity_violations();
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].rule, RuleId::ReadPurity);
    assert_eq!(vs[0].file, "crates/core/src/driver/mod.rs");
    assert_eq!(vs[0].line, 2);
    assert!(
        vs[0].message.contains("rebalance") && vs[0].message.contains("answer"),
        "message should name both the sink and the entry: {}",
        vs[0].message
    );
}

#[test]
fn graph_export_covers_the_real_tree() {
    // `--graph-out` JSON must parse and contain the read-path roots the
    // purity rule walks from — an empty or root-less export would make R1
    // pass vacuously.
    let root = workspace_root();
    let run = lint_workspace(root).expect("workspace scan");
    let json = run.graph.to_json();
    let v = serde_json_like_root_count(&json);
    assert!(v > 0, "no read-path roots in the exported graph");
}

/// Count `"read_root":true` markers in the export without a JSON parser
/// (the lint crate is dependency-free by design).
fn serde_json_like_root_count(json: &str) -> usize {
    json.matches("\"read_root\": true").count()
}
