//! The ratcheted baseline: pre-existing violations are grandfathered
//! per-(rule, file) with counts that may only decrease.
//!
//! `lint-baseline.json` format (rendered and parsed through the vendored
//! serde shim):
//!
//! ```json
//! {
//!   "version": 1,
//!   "rules": {
//!     "P1": { "crates/engine/src/sql.rs": 4, "crates/core/src/driver/evict.rs": 0 }
//!   }
//! }
//! ```
//!
//! Ratchet semantics per (rule, file):
//! - current > baselined count (or no entry) → **hard failure**, every
//!   violation at that key is reported with file:line diagnostics;
//! - current < baselined count → **improvement**: the run stays green but
//!   suggests ratcheting the baseline down (`--write-baseline`);
//! - an explicit `0` entry pins a file clean — any new violation there fails.

use std::collections::BTreeMap;

use serde::{ObjectBuilder, Serialize, Value};

use crate::rules::Violation;

/// Grandfathered violation counts, keyed rule code → file → count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// rule code (e.g. `"P1"`) → workspace-relative file → allowed count.
    pub counts: BTreeMap<String, BTreeMap<String, u64>>,
}

impl Serialize for Baseline {
    fn to_value(&self) -> Value {
        let mut rules = ObjectBuilder::new();
        for (rule, files) in &self.counts {
            let mut obj = ObjectBuilder::new();
            for (file, n) in files {
                obj = obj.field(file, *n);
            }
            rules = rules.field(rule, obj.build());
        }
        ObjectBuilder::new()
            .field("version", 1u64)
            .field("rules", rules.build())
            .build()
    }
}

impl Baseline {
    /// Aggregate current violations into baseline counts (zero-count entries
    /// from `pin_zero` — files that must *stay* clean — are preserved).
    pub fn from_violations(violations: &[Violation], pin_zero: &Baseline) -> Baseline {
        let mut counts: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
        for (rule, files) in &pin_zero.counts {
            for (file, n) in files {
                if *n == 0 {
                    counts
                        .entry(rule.clone())
                        .or_default()
                        .insert(file.clone(), 0);
                }
            }
        }
        for v in violations {
            *counts
                .entry(v.rule.code().to_string())
                .or_default()
                .entry(v.file.clone())
                .or_insert(0) += 1;
        }
        Baseline { counts }
    }

    /// Allowed count for a (rule code, file) pair; absent keys allow zero.
    pub fn allowed(&self, rule: &str, file: &str) -> u64 {
        self.counts
            .get(rule)
            .and_then(|f| f.get(file))
            .copied()
            .unwrap_or(0)
    }

    /// Render as pretty, stable JSON (rule codes and files sorted).
    pub fn render(&self) -> String {
        // The serde shim renders compactly; re-indent for a reviewable diff.
        let mut out = String::from("{\n  \"version\": 1,\n  \"rules\": {\n");
        let mut first_rule = true;
        for (rule, files) in &self.counts {
            if !first_rule {
                out.push_str(",\n");
            }
            first_rule = false;
            out.push_str(&format!("    {}: {{\n", Value::Str(rule.clone()).to_json()));
            let mut first_file = true;
            for (file, n) in files {
                if !first_file {
                    out.push_str(",\n");
                }
                first_file = false;
                out.push_str(&format!(
                    "      {}: {n}",
                    Value::Str(file.clone()).to_json()
                ));
            }
            out.push_str("\n    }");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parse the baseline JSON written by [`Baseline::render`].
    pub fn parse(json: &str) -> Result<Baseline, String> {
        let value = serde::from_str(json)?;
        let rules = value
            .get("rules")
            .ok_or_else(|| "baseline: missing `rules` object".to_string())?;
        let Value::Object(rule_fields) = rules else {
            return Err("baseline: `rules` is not an object".to_string());
        };
        let mut counts: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
        for (rule, files) in rule_fields {
            let Value::Object(file_fields) = files else {
                return Err(format!("baseline: rule `{rule}` is not an object"));
            };
            let mut m = BTreeMap::new();
            for (file, n) in file_fields {
                let n = match n {
                    Value::U64(n) => *n,
                    other => {
                        return Err(format!(
                            "baseline: count for `{file}` is not a non-negative \
                             integer (got {})",
                            other.to_json()
                        ));
                    }
                };
                m.insert(file.clone(), n);
            }
            counts.insert(rule.clone(), m);
        }
        Ok(Baseline { counts })
    }
}

/// One (rule, file) key whose count moved against or under the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountDelta {
    /// Rule code.
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// Count recorded in the baseline.
    pub baselined: u64,
    /// Count observed in this run.
    pub current: u64,
}

/// Outcome of comparing a lint run against the baseline.
#[derive(Debug, Default)]
pub struct Ratchet {
    /// Violations at keys over their allowance — each is a hard failure.
    pub new_violations: Vec<Violation>,
    /// Keys whose count exceeds the baseline (summarized).
    pub regressions: Vec<CountDelta>,
    /// Keys whose count dropped below the baseline — ratchet candidates.
    pub improvements: Vec<CountDelta>,
}

impl Ratchet {
    /// Does this run fail the ratchet?
    pub fn failed(&self) -> bool {
        !self.regressions.is_empty()
    }
}

/// Compare a run's violations against the baseline.
pub fn compare(baseline: &Baseline, violations: &[Violation]) -> Ratchet {
    let mut current: BTreeMap<(String, String), Vec<&Violation>> = BTreeMap::new();
    for v in violations {
        current
            .entry((v.rule.code().to_string(), v.file.clone()))
            .or_default()
            .push(v);
    }
    let mut out = Ratchet::default();
    for ((rule, file), vs) in &current {
        let allowed = baseline.allowed(rule, file);
        let n = vs.len() as u64;
        if n > allowed {
            out.regressions.push(CountDelta {
                rule: rule.clone(),
                file: file.clone(),
                baselined: allowed,
                current: n,
            });
            out.new_violations.extend(vs.iter().map(|v| (*v).clone()));
        } else if n < allowed {
            out.improvements.push(CountDelta {
                rule: rule.clone(),
                file: file.clone(),
                baselined: allowed,
                current: n,
            });
        }
    }
    // Baseline keys with no current violations at all are improvements too.
    for (rule, files) in &baseline.counts {
        for (file, &allowed) in files {
            if allowed > 0 && !current.contains_key(&(rule.clone(), file.clone())) {
                out.improvements.push(CountDelta {
                    rule: rule.clone(),
                    file: file.clone(),
                    baselined: allowed,
                    current: 0,
                });
            }
        }
    }
    out.improvements
        .sort_by(|a, b| (&a.rule, &a.file).cmp(&(&b.rule, &b.file)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let mut b = Baseline::default();
        b.counts
            .entry("P1".into())
            .or_default()
            .insert("crates/core/src/a.rs".into(), 3);
        b.counts
            .entry("P1".into())
            .or_default()
            .insert("crates/core/src/b.rs".into(), 0);
        b.counts
            .entry("D1".into())
            .or_default()
            .insert("crates/engine/src/exec.rs".into(), 2);
        let text = b.render();
        let parsed = Baseline::parse(&text).expect("roundtrip parse");
        assert_eq!(parsed, b);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Baseline::parse("{").is_err());
        assert!(Baseline::parse("{\"rules\": 3}").is_err());
        assert!(Baseline::parse("{\"rules\": {\"P1\": {\"f\": \"x\"}}}").is_err());
        assert!(Baseline::parse("{\"version\": 1}").is_err());
        assert!(Baseline::parse("{\"version\": 1, \"rules\": {}} junk").is_err());
    }

    #[test]
    fn escaped_keys_roundtrip() {
        let mut b = Baseline::default();
        b.counts
            .entry("P1".into())
            .or_default()
            .insert("odd\"name\\file.rs".into(), 1);
        let parsed = Baseline::parse(&b.render()).expect("parse escaped");
        assert_eq!(parsed, b);
    }
}
