//! Meta-test: the linter runs over the real workspace and finds nothing.
//! This is the same gate CI runs; keeping it in the test suite means
//! `cargo test` alone catches a lint regression.

use std::path::Path;

use deepsea_lint::{lint_source, lint_workspace, RuleId};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
}

#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    let run = lint_workspace(root).expect("workspace scan");
    assert!(
        run.files.len() > 50,
        "scan looks truncated: {} files",
        run.files.len()
    );
    let mut msg = String::new();
    for v in &run.violations {
        msg.push_str(&format!(
            "\n  {}:{}: [{}] {}",
            v.file,
            v.line,
            v.rule.code(),
            v.message
        ));
    }
    assert!(
        run.violations.is_empty(),
        "lint found violations — fix the sites or justify with a marker:{msg}"
    );
}

/// One trigger per rule: (rule, real file it is appended to, one line of
/// source that breaks that rule and no other).
const TRIGGERS: [(RuleId, &str, &str); 8] = [
    (
        RuleId::HashIter,
        SELECTION,
        "fn injected(m: &HashMap<u32, u32>) -> usize { m.len() }",
    ),
    (
        RuleId::WallClock,
        SELECTION,
        "fn injected() { let _t = Instant::now(); }",
    ),
    (
        RuleId::Panic,
        SELECTION,
        "fn injected(x: Option<u32>) -> u32 { x.unwrap() }",
    ),
    (RuleId::Layering, SELECTION, "use std::fs;"),
    (RuleId::Layering, SELECTION, "use std::sync::Mutex;"),
    (
        RuleId::LockDiscipline,
        "crates/core/src/server/workers.rs",
        "fn injected(a: &Lock, b: &Lock) { let _g = a.lock(); let _h = b.lock(); }",
    ),
    (
        RuleId::CostFlow,
        SELECTION,
        "fn injected(j: &Journal) { let _ = j.append(1); }",
    ),
    (
        RuleId::ObsGated,
        SELECTION,
        "fn injected(&self) { self.obs.event(DecisionEvent::Shed { q: 1 }); }",
    ),
];

const SELECTION: &str = "crates/core/src/driver/write_path/selection.rs";

#[test]
fn injected_violation_is_caught() {
    // Take a real, clean source file, append one rule's trigger, and check
    // the chain (lexer → rules) reports it at the injected line under that
    // rule's code, and nothing else.
    let root = workspace_root();
    for (rule, rel, trigger) in TRIGGERS {
        let mut src = std::fs::read_to_string(root.join(rel)).expect("read the file");
        assert!(lint_source(rel, &src).is_empty(), "{rel} should be clean");
        src.push_str(&format!("\n{trigger}\n"));
        let line = src.lines().count() as u32;
        let got: Vec<(&str, u32)> = lint_source(rel, &src)
            .iter()
            .map(|v| (v.rule.code(), v.line))
            .collect();
        assert_eq!(got, vec![(rule.code(), line)], "{trigger}");
    }
}
