//! Prometheus text-exposition rendering of a [`MetricsRegistry`], plus a
//! small line parser used by tests (and by anyone who wants to consume the
//! dump without a real Prometheus server).
//!
//! Rendering rules:
//! - counters: `# TYPE name counter` then `name{view="V1"} 5` per series,
//! - histograms: `# TYPE name histogram` with cumulative `name_bucket`
//!   lines (`le` inclusive upper bounds, `+Inf` last), `name_sum`,
//!   `name_count`, and estimated `name_p50/_p95/_p99` gauges.
//!
//! Output order is fully deterministic: metric families alphabetically
//! (`BTreeMap` iteration), series by label within each family.

use crate::metrics::{bucket_upper_bound, Histogram, MetricsRegistry};
use std::fmt::Write as _;

fn write_name(out: &mut String, name: &str, suffix: &str, label: Option<&str>) {
    out.push_str(name);
    out.push_str(suffix);
    if let Some(l) = label {
        let escaped = l.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(out, "{{view=\"{escaped}\"}}");
    }
    out.push(' ');
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v}");
    }
    out.push('\n');
}

fn write_histogram(out: &mut String, name: &str, label: Option<&str>, h: &Histogram) {
    let mut cum = 0u64;
    for (i, c) in h.counts.iter().enumerate() {
        cum += c;
        if *c == 0 && i + 1 < h.counts.len() {
            continue; // keep the dump readable; +Inf is always emitted
        }
        let le = bucket_upper_bound(i);
        let le_txt = if le.is_infinite() {
            "+Inf".to_string()
        } else {
            format!("{le}")
        };
        if let Some(l) = label {
            let escaped = l.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = writeln!(
                out,
                "{name}_bucket{{view=\"{escaped}\",le=\"{le_txt}\"}} {cum}"
            );
        } else {
            let _ = writeln!(out, "{name}_bucket{{le=\"{le_txt}\"}} {cum}");
        }
    }
    write_name(out, name, "_sum", label);
    write_f64(out, h.sum);
    write_name(out, name, "_count", label);
    let _ = writeln!(out, "{}", h.count);
    if let Some((p50, p95, p99)) = h.percentiles() {
        for (suffix, v) in [("_p50", p50), ("_p95", p95), ("_p99", p99)] {
            write_name(out, name, suffix, label);
            write_f64(out, v);
        }
    }
}

/// Render the registry in Prometheus text exposition format.
pub fn render_prometheus(m: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, series) in &m.counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        for (label, v) in series {
            write_name(&mut out, name, "", label.as_deref());
            let _ = writeln!(out, "{v}");
        }
    }
    for (name, series) in &m.histograms {
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (label, h) in series {
            write_histogram(&mut out, name, label.as_deref(), h);
        }
    }
    out
}

/// One parsed sample line: metric name, `(key, value)` label pairs in
/// order, and the sample value.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (including `_bucket` / `_sum` / … suffixes).
    pub name: String,
    /// Label pairs, in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parse Prometheus text exposition format, returning every sample line.
/// Comment (`#`) and blank lines are skipped. Returns `Err` with the
/// offending line on malformed input.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, value_txt) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("no value separator: {line}"))?;
        let value = match value_txt {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v.parse().map_err(|_| format!("bad value: {line}"))?,
        };
        let (name, labels) = match head.split_once('{') {
            None => (head.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("unterminated labels: {line}"))?;
                let mut labels = Vec::new();
                for pair in split_label_pairs(body) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("bad label pair: {line}"))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| format!("unquoted label value: {line}"))?;
                    labels.push((k.to_string(), v.replace("\\\"", "\"").replace("\\\\", "\\")));
                }
                (name.to_string(), labels)
            }
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("bad metric name: {line}"));
        }
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

/// Split `a="x",b="y"` on commas outside quotes.
fn split_label_pairs(body: &str) -> Vec<String> {
    let mut pairs = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for c in body.chars() {
        if escaped {
            cur.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => {
                cur.push(c);
                escaped = true;
            }
            '"' => {
                cur.push(c);
                in_quotes = !in_quotes;
            }
            ',' if !in_quotes => {
                pairs.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        pairs.push(cur);
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_roundtrip() {
        let mut m = MetricsRegistry::default();
        m.counter_add("deepsea_queries_total", None, 42);
        m.counter_add("deepsea_view_hits_total", Some("V1"), 5);
        m.counter_add("deepsea_view_hits_total", Some("V2"), 9);
        m.observe("deepsea_query_secs", None, 2.0);
        m.observe("deepsea_query_secs", None, 300.0);

        let text = render_prometheus(&m);
        let samples = parse_prometheus(&text).expect("render output must parse");

        let find = |name: &str, label: Option<(&str, &str)>| -> f64 {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && match label {
                            None => s.labels.is_empty(),
                            Some((k, v)) => s.labels.iter().any(|(lk, lv)| lk == k && lv == v),
                        }
                })
                .unwrap_or_else(|| panic!("missing {name} {label:?}"))
                .value
        };
        assert_eq!(find("deepsea_queries_total", None), 42.0);
        assert_eq!(find("deepsea_view_hits_total", Some(("view", "V1"))), 5.0);
        assert_eq!(find("deepsea_view_hits_total", Some(("view", "V2"))), 9.0);
        assert_eq!(find("deepsea_query_secs_count", None), 2.0);
        assert_eq!(find("deepsea_query_secs_sum", None), 302.0);
        // Cumulative +Inf bucket covers everything.
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "deepsea_query_secs_bucket" && s.labels.iter().any(|(_, v)| v == "+Inf")
            })
            .unwrap();
        assert_eq!(inf.value, 2.0);
        // Every sample line parsed with a well-formed name.
        assert!(samples.iter().all(|s| !s.name.is_empty()));
    }

    #[test]
    fn type_lines_precede_samples() {
        let mut m = MetricsRegistry::default();
        m.counter_add("c_total", None, 1);
        let text = render_prometheus(&m);
        assert!(text.starts_with("# TYPE c_total counter\nc_total 1\n"));
    }

    #[test]
    fn label_values_are_escaped_and_unescaped() {
        let mut m = MetricsRegistry::default();
        m.counter_add("c", Some("V\"odd\\name"), 7);
        let text = render_prometheus(&m);
        let samples = parse_prometheus(&text).unwrap();
        assert_eq!(
            samples[0].labels[0],
            ("view".to_string(), "V\"odd\\name".to_string())
        );
        assert_eq!(samples[0].value, 7.0);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("name_only").is_err());
        assert!(parse_prometheus("name{unclosed 3").is_err());
        assert!(parse_prometheus("name{k=v} 3").is_err(), "unquoted value");
        assert!(parse_prometheus("bad name 3").is_err());
        assert!(parse_prometheus("ok 3\n# comment\n\n").is_ok());
    }

    #[test]
    fn histograms_emit_percentile_gauges() {
        let mut m = MetricsRegistry::default();
        for _ in 0..100 {
            m.observe("lat", Some("V1"), 4.0);
        }
        let text = render_prometheus(&m);
        let samples = parse_prometheus(&text).unwrap();
        for p in ["lat_p50", "lat_p95", "lat_p99"] {
            let s = samples.iter().find(|s| s.name == p).unwrap();
            assert_eq!(s.value, 4.0, "{p}");
            assert_eq!(s.labels, vec![("view".to_string(), "V1".to_string())]);
        }
    }
}
