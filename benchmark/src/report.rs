//! The metric tables — every name the benchmark prints, with its unit — and
//! the output format. `BENCHMARK.json` lists the same names; a test keeps
//! the two in step.

use std::collections::BTreeMap;

use serde::{ObjectBuilder, Value};

/// The percentile reported as "tail": the highest one that still has ten
/// samples beyond it on the smallest workload (`sdss_churn`, 100 queries).
pub const TAIL: f64 = 0.90;

/// End-to-end metrics, printed by `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("sim_total_s", "sim_s"),
    ("sim_latency_s_p50", "sim_s"),
    ("sim_latency_s_p90", "sim_s"),
    ("stored_bytes_per_base_byte", "ratio"),
    ("peak_rss_mb", "MB"),
    ("wall_ms_per_query_p50", "ms"),
];

/// Per-layer metrics, printed by `--trace 1`: `(name, unit)`. The prefix is
/// the crate or module the number belongs to.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_ms", "ms"),
    ("workload.plans_ms", "ms"),
    ("workload.distinct_plans", "count"),
    ("engine.execute_calls", "count"),
    ("engine.execute_ms_sum", "ms"),
    ("engine.execute_ms_p50", "ms"),
    ("engine.execute_ms_p90", "ms"),
    ("engine.exec.bytes_read", "bytes"),
    ("engine.exec.map_tasks", "count"),
    ("engine.optimize_us_p50", "us"),
    ("core.read_path.answer_ms_sum", "ms"),
    ("core.read_path.answer_ms_p50", "ms"),
    ("core.read_path.answer_ms_p90", "ms"),
    ("core.read_path.self_ms_sum", "ms"),
    ("core.read_path.matching.roots", "count"),
    ("core.read_path.matching.hits", "count"),
    ("core.read_path.matching.materialized_hits", "count"),
    ("core.read_path.rewriting.rewrites_costed", "count"),
    ("core.read_path.view_hit_ratio", "ratio"),
    ("core.write_path.commit_ms_sum", "ms"),
    ("core.write_path.commit_ms_p50", "ms"),
    ("core.write_path.commit_ms_p90", "ms"),
    ("core.write_path.commit_ms_max", "ms"),
    ("core.write_path.self_ms_sum", "ms"),
    ("core.write_path.candidates.new_views", "count"),
    ("core.write_path.candidates.new_fragments", "count"),
    ("core.write_path.selection.considered", "count"),
    ("core.write_path.selection.considered_per_creation", "ratio"),
    ("core.write_path.selection.planned_creations", "count"),
    ("core.write_path.selection.planned_evictions", "count"),
    ("core.write_path.materialization.bytes_written", "bytes"),
    ("core.write_path.materialization.files_written", "count"),
    ("core.write_path.materialization.fragments_covered", "count"),
    ("core.write_path.eviction.selected", "count"),
    ("core.write_path.eviction.limit_forced", "count"),
    ("core.snapshot.publish_ms_sum", "ms"),
    ("core.snapshot.publish_us_p50", "us"),
    ("core.snapshot.publish_us_p90", "us"),
    ("core.snapshot.publish_us_final", "us"),
    ("core.snapshot.drop_us_p50", "us"),
    ("core.durability.journal_appends", "count"),
    ("core.durability.snapshots", "count"),
    ("core.durability.recover_ms", "ms"),
    ("core.durability.replayed_records", "count"),
    ("core.server.run_ms", "ms"),
    ("core.server.overhead_ms_sum", "ms"),
    ("core.server.shed_reads", "count"),
    ("core.server.divergent_reads", "count"),
    ("core.server.degraded_reads", "count"),
    ("core.server.max_epoch_lag", "count"),
    ("storage.fs.files_read", "count"),
    ("storage.fs.files_written", "count"),
    ("storage.fs.files_deleted", "count"),
    ("storage.fs.read_bytes", "bytes"),
    ("storage.fs.write_bytes", "bytes"),
    ("storage.fs.hedges_issued", "count"),
    ("storage.fs.hedges_won", "count"),
    ("storage.fs.hedge_extra_secs", "sim_s"),
    ("storage.pool.high_water_bytes", "bytes"),
    ("storage.pool.violations", "count"),
    ("obs.on_overhead_ratio", "ratio"),
    ("obs.trace_forest_build_ms", "ms"),
    ("obs.prometheus_render_ms", "ms"),
    ("obs.spans_recorded", "count"),
    ("obs.events_recorded", "count"),
    ("relation.fingerprint_us_p50", "us"),
    ("bench.wall_ms_per_query_p90", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.span_coverage_min", "ratio"),
    ("bench.pass_spread_ratio", "ratio"),
    ("bench.cpu_wall_ratio", "ratio"),
    ("bench.passes_run", "count"),
    ("bench.same_trajectory", "count"),
];

/// Values gathered during a run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set a metric. Non-finite values (an empty series, a zero divisor)
    /// are stored as 0 so the output stays valid JSON, and the `-0` an empty
    /// float sum yields as plain 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.insert(name, value);
    }

    /// Add to a metric, starting from 0.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// The current value, 0 if never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The values of `table`'s names, in table order.
    ///
    /// # Panics
    /// If a name of the table was never set — a metric the benchmark
    /// promises but forgot to measure.
    pub fn collect(&self, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
        table
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: *self
                    .0
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was never measured")),
                unit,
            })
            .collect()
    }
}

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunReport {
    /// No op failed and every pass repeated the first one bit for bit.
    pub correct: bool,
    /// Ops in the measured passes.
    pub attempted: u64,
    /// Ops that failed a check, plus one per pass that broke determinism.
    pub failed: u64,
    /// End-to-end or per-layer metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Diagnostics that are not gated: per-pass walls, medians, quartiles.
    pub detail: Value,
}

impl RunReport {
    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    let entry = ObjectBuilder::new()
                        .field("value", m.value)
                        .field("unit", m.unit)
                        .build();
                    (m.name.to_string(), entry)
                })
                .collect(),
        );
        ObjectBuilder::new()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
            .build()
            .to_json()
    }

    /// Everything a person reads: one `name value unit` row per metric, the
    /// `detail` object, then the result line last.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("{:<52} {:>20} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!("detail {}\n", self.detail.to_json()));
        out.push_str(&self.result_line());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` must promise exactly what the binary prints.
    #[test]
    fn benchmark_json_lists_the_same_names_and_units() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Array(listed)) = doc.get(key) else {
                panic!("{key} must be an array");
            };
            let listed: Vec<(&str, &str)> = listed
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Value::as_str).expect("name"),
                        m.get("unit").and_then(Value::as_str).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(listed, table, "{key}");
            for (name, _) in &listed {
                assert!(valid_name(name), "{name}");
            }
        }
        let Some(Value::Array(workloads)) = doc.get("workloads") else {
            panic!("workloads must be an array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = RunReport {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.0125,
                unit: "s",
            }],
            detail: Value::Null,
        };
        assert_eq!(
            report.result_line(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.0125,\"unit\":\"s\"}}}"
        );
        assert_eq!(report.render().lines().last(), Some(&*report.result_line()));
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn collect_refuses_a_missing_metric() {
        Values::default().collect(END_TO_END);
    }
}
