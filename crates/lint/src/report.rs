//! Diagnostic rendering: human-readable text for terminals and CI logs,
//! plus a machine-readable JSON report through the vendored serde shim.

use serde::{ObjectBuilder, Value};

use crate::rules::{RuleId, Violation};

/// One `path:line: [CODE slug] message` diagnostic line.
pub fn render_violation(v: &Violation) -> String {
    format!(
        "{}:{}: [{} {}] {}",
        v.file,
        v.line,
        v.rule.code(),
        v.rule.slug(),
        v.message
    )
}

/// Human-readable report: every violation, then a per-rule summary.
pub fn render_plain(violations: &[Violation], files_scanned: usize) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&render_violation(v));
        out.push('\n');
    }
    out.push_str(&summary_line(violations, files_scanned));
    out
}

fn summary_line(violations: &[Violation], files_scanned: usize) -> String {
    let mut per_rule = String::new();
    for rule in RuleId::all() {
        let n = violations.iter().filter(|v| v.rule == rule).count();
        if n > 0 {
            if !per_rule.is_empty() {
                per_rule.push_str(", ");
            }
            per_rule.push_str(&format!("{} {}", rule.code(), n));
        }
    }
    if per_rule.is_empty() {
        per_rule.push_str("none");
    }
    format!(
        "deepsea-lint: {files_scanned} files scanned, {} violation{} ({per_rule})\n",
        violations.len(),
        if violations.len() == 1 { "" } else { "s" },
    )
}

/// Machine-readable JSON report: all violations and per-rule totals.
pub fn render_json(violations: &[Violation], files_scanned: usize) -> String {
    let vio_values: Vec<Value> = violations
        .iter()
        .map(|v| {
            ObjectBuilder::new()
                .field("rule", v.rule.code())
                .field("slug", v.rule.slug())
                .field("file", v.file.as_str())
                .field("line", u64::from(v.line))
                .field("message", v.message.as_str())
                .build()
        })
        .collect();
    let mut totals = ObjectBuilder::new();
    for rule in RuleId::all() {
        let n = violations.iter().filter(|v| v.rule == rule).count();
        if n > 0 {
            totals = totals.field(rule.code(), n as u64);
        }
    }
    let root = ObjectBuilder::new()
        .field("files_scanned", files_scanned as u64)
        .field("violations", Value::Array(vio_values))
        .field("totals", totals.build())
        .build();
    let mut s = serde::to_string(&root);
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: RuleId, file: &str, line: u32) -> Violation {
        Violation {
            rule,
            file: file.to_string(),
            line,
            message: "msg".to_string(),
        }
    }

    #[test]
    fn diagnostic_names_rule_file_and_line() {
        let d = render_violation(&v(RuleId::Panic, "crates/core/src/x.rs", 7));
        assert_eq!(d, "crates/core/src/x.rs:7: [P1 panic] msg");
    }

    #[test]
    fn json_report_is_valid_and_complete() {
        let vs = vec![v(RuleId::Panic, "a.rs", 1), v(RuleId::HashIter, "b.rs", 2)];
        let json = render_json(&vs, 10);
        assert!(json.contains("\"files_scanned\":10"));
        assert!(json.contains("\"rule\":\"P1\""));
        assert!(json.contains("\"rule\":\"D1\""));
        assert!(json.contains("\"totals\":{\"D1\":1,\"P1\":1}"));
    }

    #[test]
    fn summary_counts_per_rule() {
        let vs = vec![v(RuleId::Panic, "a.rs", 1), v(RuleId::Panic, "a.rs", 2)];
        let text = render_plain(&vs, 3);
        assert!(
            text.contains("3 files scanned, 2 violations (P1 2)"),
            "{text}"
        );
    }
}
