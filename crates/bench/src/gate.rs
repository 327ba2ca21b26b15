//! The bench-trajectory regression gate: diff a checked-in `BENCH*.json`
//! snapshot against a freshly regenerated run of the same experiment.
//!
//! The simulator is deterministic, so on an unchanged tree every metric
//! matches bit-for-bit and the gate is silent. When a change shifts a
//! *cost-like* metric — simulated seconds, latency percentiles, shed /
//! eviction / fallback counts — past the configured threshold, the gate
//! reports the regression and (under `--check`) fails, turning the
//! checked-in snapshots into a ratchet on the performance trajectory.
//!
//! Snapshots are compared as flattened numeric leaves: nested objects
//! become dotted keys (`by_hedging.hedging_on.p99_secs`), everything
//! non-numeric is ignored. Added or removed keys are reported but are not
//! regressions — schema evolution is an expected PR side effect.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use serde::Value;

/// One metric present in both snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Dotted flattened key.
    pub key: String,
    /// Value in the checked-in baseline.
    pub base: f64,
    /// Value in the fresh run.
    pub fresh: f64,
}

impl MetricDelta {
    /// Relative change `(fresh − base) / base`; ±∞ when the baseline is
    /// zero and the fresh value isn't.
    pub fn rel_change(&self) -> f64 {
        if self.base == 0.0 {
            if self.fresh == 0.0 {
                0.0
            } else {
                f64::INFINITY * self.fresh.signum()
            }
        } else {
            (self.fresh - self.base) / self.base
        }
    }

    /// True when this key measures a cost (larger = worse): simulated
    /// seconds, latency percentiles, a degradation counter, or a lint
    /// rule-hit count (`violations.R3` etc. — the lint snapshot rides the
    /// same ratchet).
    pub fn is_cost_like(&self) -> bool {
        if self.key.contains("violations") {
            return true;
        }
        let last = self.key.rsplit('.').next().unwrap_or(&self.key);
        last.ends_with("_secs")
            || matches!(last, "p50" | "p95" | "p99")
            || last.contains("shed")
            || last.contains("eviction")
            || last.contains("degraded")
            || last.contains("divergent")
            || last.contains("incorrect")
            || last.contains("fallback")
            || last.contains("dropped")
    }

    /// True when this delta is a regression at `threshold` (a fraction:
    /// `0.05` = 5%): a cost-like metric grew past `base · (1 + threshold)`.
    /// A zero baseline regresses on any growth — there is no budget to
    /// hide in.
    pub fn is_regression(&self, threshold: f64) -> bool {
        if !self.is_cost_like() || self.fresh <= self.base {
            return false;
        }
        if self.base == 0.0 {
            return self.fresh > 0.0;
        }
        self.fresh > self.base * (1.0 + threshold)
    }
}

/// The outcome of diffing one snapshot pair.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Every key present in both snapshots, in key order.
    pub deltas: Vec<MetricDelta>,
    /// Keys only in the baseline (removed by the fresh run).
    pub missing: Vec<String>,
    /// Keys only in the fresh run (added since the baseline).
    pub added: Vec<String>,
}

impl GateReport {
    /// The deltas that regress past `threshold`, in key order.
    pub fn regressions(&self, threshold: f64) -> Vec<&MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| d.is_regression(threshold))
            .collect()
    }

    /// The deltas whose values changed at all (any direction, any key).
    pub fn changed(&self) -> Vec<&MetricDelta> {
        self.deltas.iter().filter(|d| d.base != d.fresh).collect()
    }

    /// Render the human-readable diff: changed metrics with relative
    /// deltas, then schema additions/removals. Empty string when nothing
    /// changed.
    pub fn render(&self, threshold: f64) -> String {
        let mut out = String::new();
        for d in self.changed() {
            let marker = if d.is_regression(threshold) {
                "REGRESSION"
            } else if d.is_cost_like() && d.fresh < d.base {
                "improved"
            } else {
                "changed"
            };
            out.push_str(&format!(
                "  {marker:>10}  {}  {} -> {}  ({:+.2}%)\n",
                d.key,
                d.base,
                d.fresh,
                d.rel_change() * 100.0,
            ));
        }
        for k in &self.missing {
            out.push_str(&format!("     removed  {k}\n"));
        }
        for k in &self.added {
            out.push_str(&format!("       added  {k}\n"));
        }
        out
    }
}

/// Flatten a parsed JSON value into `dotted.key -> f64` for every numeric
/// leaf. Arrays index as `key.0`, `key.1`, …; non-numeric leaves (strings,
/// bools, nulls) are skipped.
pub fn flatten_numeric(value: &Value, prefix: &str, out: &mut BTreeMap<String, f64>) {
    let key = |k: &str| {
        if prefix.is_empty() {
            k.to_string()
        } else {
            format!("{prefix}.{k}")
        }
    };
    match value {
        Value::Object(fields) => {
            for (k, v) in fields {
                flatten_numeric(v, &key(k), out);
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten_numeric(v, &key(&i.to_string()), out);
            }
        }
        other => {
            if let Some(n) = other.as_f64() {
                out.insert(prefix.to_string(), n);
            }
        }
    }
}

/// Diff two snapshot JSON documents. Returns `Err` on malformed JSON or
/// when the baseline was captured at a different scale than the fresh run
/// (a paper-scale baseline diffed against a quick run would regress on
/// everything, meaninglessly).
pub fn compare_snapshots(baseline: &str, fresh: &str) -> Result<GateReport, String> {
    let base_v = serde::from_str(baseline).map_err(|e| format!("baseline: {e}"))?;
    let fresh_v = serde::from_str(fresh).map_err(|e| format!("fresh: {e}"))?;
    let scale = |v: &Value| v.get("scale").and_then(|s| s.as_str().map(str::to_string));
    if let (Some(b), Some(f)) = (scale(&base_v), scale(&fresh_v)) {
        if b != f {
            return Err(format!("scale mismatch: baseline {b:?} vs fresh {f:?}"));
        }
    }
    let mut base_flat = BTreeMap::new();
    let mut fresh_flat = BTreeMap::new();
    flatten_numeric(&base_v, "", &mut base_flat);
    flatten_numeric(&fresh_v, "", &mut fresh_flat);

    let mut report = GateReport::default();
    for (k, &b) in &base_flat {
        match fresh_flat.get(k) {
            Some(&f) => report.deltas.push(MetricDelta {
                key: k.clone(),
                base: b,
                fresh: f,
            }),
            None => report.missing.push(k.clone()),
        }
    }
    for k in fresh_flat.keys() {
        if !base_flat.contains_key(k) {
            report.added.push(k.clone());
        }
    }
    Ok(report)
}

/// Diff each fresh `(file, json)` snapshot against its checked-in copy in
/// `dir`, and describe the outcome, one block per file. Unless `check`,
/// every file that was diffed is then replaced by its fresh run, written as
/// `experiments` writes it, so a plain report leaves the snapshots current
/// and `check` only gates. A file with no baseline, or one that fails to
/// diff, is never written. Returns the text and whether any snapshot
/// regressed past `threshold_pct` percent or failed to diff.
pub fn report_dir(
    dir: &Path,
    snapshots: &[(&str, String)],
    threshold_pct: f64,
    check: bool,
) -> io::Result<(String, bool)> {
    let threshold = threshold_pct / 100.0;
    let mut out = String::new();
    let mut failed = false;
    for (file, fresh) in snapshots {
        let path = dir.join(file);
        let Ok(baseline) = std::fs::read_to_string(&path) else {
            out.push_str(&format!(
                "{file}: no baseline at {}, skipped\n",
                path.display()
            ));
            continue;
        };
        let report = match compare_snapshots(&baseline, fresh) {
            Ok(r) => r,
            Err(e) => {
                out.push_str(&format!("{file}: FAILED to diff: {e}\n"));
                failed = true;
                continue;
            }
        };
        if report.changed().is_empty() && report.missing.is_empty() && report.added.is_empty() {
            out.push_str(&format!(
                "{file}: unchanged ({} metrics)\n",
                report.deltas.len()
            ));
        } else {
            out.push_str(&format!("{file}:\n{}", report.render(threshold)));
        }
        let regressions = report.regressions(threshold).len();
        if regressions > 0 {
            out.push_str(&format!(
                "{file}: {regressions} regression(s) past {threshold_pct}% threshold\n"
            ));
            failed = true;
        }
        if !check {
            std::fs::write(&path, format!("{fresh}\n"))?;
            out.push_str(&format!("{file}: wrote {}\n", path.display()));
        }
    }
    Ok((out, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_dots_nested_objects_and_arrays() {
        let v =
            serde::from_str(r#"{"a":1,"b":{"c":2.5,"d":{"e":3}},"f":[10,20],"s":"skip","n":null}"#)
                .expect("valid json");
        let mut flat = BTreeMap::new();
        flatten_numeric(&v, "", &mut flat);
        assert_eq!(flat.get("a"), Some(&1.0));
        assert_eq!(flat.get("b.c"), Some(&2.5));
        assert_eq!(flat.get("b.d.e"), Some(&3.0));
        assert_eq!(flat.get("f.0"), Some(&10.0));
        assert_eq!(flat.get("f.1"), Some(&20.0));
        assert_eq!(flat.len(), 5, "strings and nulls are not leaves");
    }

    #[test]
    fn identical_snapshots_produce_no_changes() {
        let s = r#"{"scale":"quick","p99_secs":4.5,"commits":60}"#;
        let report = compare_snapshots(s, s).expect("parses");
        assert!(report.changed().is_empty());
        assert!(report.regressions(0.0).is_empty());
        assert!(report.missing.is_empty() && report.added.is_empty());
    }

    #[test]
    fn cost_regression_past_threshold_is_flagged() {
        let base = r#"{"scale":"quick","total_secs":100.0,"queries":60}"#;
        let fresh = r#"{"scale":"quick","total_secs":104.0,"queries":60}"#;
        let report = compare_snapshots(base, fresh).expect("parses");
        // 4% over: passes a 5% gate, fails a 2% gate.
        assert!(report.regressions(0.05).is_empty());
        let regs = report.regressions(0.02);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "total_secs");
        assert!(report.render(0.02).contains("REGRESSION"));
    }

    #[test]
    fn improvements_and_count_changes_are_not_regressions() {
        let base = r#"{"scale":"quick","p99_secs":10.0,"queries":60,"hits":5}"#;
        // p99 improved; a non-cost count changed: neither regresses.
        let fresh = r#"{"scale":"quick","p99_secs":2.0,"queries":60,"hits":9}"#;
        let report = compare_snapshots(base, fresh).expect("parses");
        assert!(report.regressions(0.0).is_empty());
        assert_eq!(report.changed().len(), 2);
        assert!(report.render(0.0).contains("improved"));
    }

    #[test]
    fn lint_rule_hit_counts_are_cost_like() {
        let base = r#"{"scale":"quick","violations":{"P1":9,"R3":0},"wall_ms":12.0}"#;
        let fresh = r#"{"scale":"quick","violations":{"P1":9,"R3":1},"wall_ms":90.0}"#;
        let report = compare_snapshots(base, fresh).expect("parses");
        // A new rule hit regresses even off a zero baseline; wall time is
        // informational (nondeterministic), never a regression.
        let regs = report.regressions(0.5);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "violations.R3");
    }

    #[test]
    fn zero_baseline_regresses_on_any_growth() {
        let base = r#"{"shed_reads":0}"#;
        let fresh = r#"{"shed_reads":1}"#;
        let report = compare_snapshots(base, fresh).expect("parses");
        assert_eq!(report.regressions(0.5).len(), 1);
    }

    #[test]
    fn schema_changes_are_reported_not_failed() {
        let base = r#"{"scale":"quick","old_secs":1.0}"#;
        let fresh = r#"{"scale":"quick","new_secs":1.0}"#;
        let report = compare_snapshots(base, fresh).expect("parses");
        assert_eq!(report.missing, vec!["old_secs".to_string()]);
        assert_eq!(report.added, vec!["new_secs".to_string()]);
        assert!(report.regressions(0.0).is_empty());
    }

    #[test]
    fn scale_mismatch_is_an_error() {
        let base = r#"{"scale":"paper","total_secs":1.0}"#;
        let fresh = r#"{"scale":"quick","total_secs":1.0}"#;
        assert!(compare_snapshots(base, fresh).is_err());
    }

    /// A scratch directory holding `files`, unique to `name`.
    fn scratch_dir(name: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("deepsea-gate-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        for (file, body) in files {
            std::fs::write(dir.join(file), body).expect("write baseline");
        }
        dir
    }

    /// Every file in `dir` with its bytes, by name.
    fn contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .expect("read scratch dir")
            .map(|e| {
                let e = e.expect("dir entry");
                let bytes = std::fs::read(e.path()).expect("read file");
                (e.file_name().to_string_lossy().into_owned(), bytes)
            })
            .collect()
    }

    const STALE: &str = "{\"scale\":\"quick\",\"total_secs\":100.0}\n";
    const FRESH: &str = r#"{"scale":"quick","total_secs":110.0}"#;

    #[test]
    fn a_plain_report_replaces_a_stale_snapshot() {
        let dir = scratch_dir("plain", &[("BENCH.json", STALE)]);
        let snapshots = [
            ("BENCH.json", FRESH.to_string()),
            ("BENCH_new.json", FRESH.to_string()),
        ];
        let (text, failed) = report_dir(&dir, &snapshots, 2.0, false).expect("report");
        assert!(failed, "a 10% rise in seconds regresses: {text}");
        let after = contents(&dir);
        assert_eq!(after["BENCH.json"], format!("{FRESH}\n").into_bytes());
        assert_eq!(after.len(), 1, "a snapshot with no baseline is not written");
        // Rewritten, the snapshot now diffs clean.
        let (text, failed) = report_dir(&dir, &snapshots[..1], 2.0, true).expect("report");
        assert!(
            !failed && text.starts_with("BENCH.json: unchanged"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }

    /// A baseline the fresh snapshot cannot be diffed against fails the
    /// report and is left as it was, so the failure stays reproducible; the
    /// snapshot that diffs is still rewritten.
    #[test]
    fn a_plain_report_leaves_an_undiffable_baseline_alone() {
        let paper = "{\"scale\":\"paper\",\"total_secs\":1.0}\n";
        let files = [
            ("BENCH.json", STALE),
            ("BENCH_lint.json", "not json"),
            ("BENCH_overload.json", paper),
        ];
        let dir = scratch_dir("undiffable", &files);
        let snapshots = files.map(|(file, _)| (file, FRESH.to_string()));
        let (text, failed) = report_dir(&dir, &snapshots, 50.0, false).expect("report");
        assert!(failed, "{text}");
        assert!(text.contains("BENCH_lint.json: FAILED to diff"), "{text}");
        assert!(
            text.contains("BENCH_overload.json: FAILED to diff"),
            "{text}"
        );
        assert!(!text.contains("BENCH_lint.json: wrote"), "{text}");
        let after = contents(&dir);
        assert_eq!(after["BENCH_lint.json"], b"not json");
        assert_eq!(after["BENCH_overload.json"], paper.as_bytes());
        assert_eq!(after["BENCH.json"], format!("{FRESH}\n").into_bytes());
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }

    #[test]
    fn a_checking_report_writes_nothing() {
        let files = [("BENCH.json", STALE), ("BENCH_lint.json", "not json")];
        let dir = scratch_dir("check", &files);
        let before = contents(&dir);
        let snapshots = [
            ("BENCH.json", FRESH.to_string()),
            ("BENCH_lint.json", FRESH.to_string()),
        ];
        let (text, failed) = report_dir(&dir, &snapshots, 2.0, true).expect("report");
        assert!(
            failed && text.contains("regression(s) past 2% threshold"),
            "{text}"
        );
        assert!(text.contains("BENCH_lint.json: FAILED to diff"), "{text}");
        assert_eq!(contents(&dir), before, "--check changed the directory");
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}
