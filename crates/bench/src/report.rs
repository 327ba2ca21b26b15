//! Paper-style table and series rendering for experiment reports.

use deepsea_core::QueryTrace;

/// Render an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{c:>width$}", width = widths[i]));
        }
        line
    };
    let hcells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&hcells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Render labeled values as an ASCII bar chart (largest bar = 40 chars).
pub fn bar_chart(items: &[(String, f64)], unit: &str) -> String {
    let max = items.iter().map(|(_, v)| *v).fold(0.0_f64, f64::max);
    let lw = items.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, v) in items {
        let bar = if max > 0.0 {
            "█".repeat(
                ((v / max) * 40.0)
                    .round()
                    .max(if *v > 0.0 { 1.0 } else { 0.0 }) as usize,
            )
        } else {
            String::new()
        };
        out.push_str(&format!("{label:<lw$}  {bar} {v:.1} {unit}\n"));
    }
    out
}

/// Render an `(x, y)` series, one point per line.
pub fn series(points: &[(usize, f64)], x_label: &str, y_label: &str) -> String {
    let mut out = format!("{x_label:>10}  {y_label}\n");
    for (x, y) in points {
        out.push_str(&format!("{x:>10}  {y:.1}\n"));
    }
    out
}

/// Format seconds compactly.
pub fn secs(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a byte count compactly (GB above 1e9, MB above 1e6, else bytes).
pub fn bytes(v: u64) -> String {
    if v >= 1_000_000_000 {
        format!("{:.1} GB", v as f64 / 1e9)
    } else if v >= 1_000_000 {
        format!("{:.1} MB", v as f64 / 1e6)
    } else {
        format!("{v} B")
    }
}

/// Render the per-stage pipeline breakdown of one run: what each stage of
/// Algorithm 1 did over the whole workload, and where the simulated seconds
/// went (execution vs creation — the two components of elapsed time).
pub fn stage_breakdown(label: &str, t: &QueryTrace) -> String {
    let (m, r, c, s) = (&t.matching, &t.rewriting, &t.candidates, &t.selection);
    let (mat, ev, rec, dur) = (&t.materialization, &t.eviction, &t.recovery, &t.durability);
    let rows = vec![
        vec![
            "matching".into(),
            format!(
                "{} roots, {} hits ({} on materialized data), {} views updated",
                m.roots, m.hits, m.materialized_hits, m.views_updated
            ),
            "-".into(),
        ],
        vec![
            "rewriting".into(),
            format!(
                "{} rewritings costed (base {}s, best {}s)",
                r.rewrites_costed,
                secs(r.base_cost_secs),
                secs(r.best_cost_secs)
            ),
            "-".into(),
        ],
        vec![
            "candidates".into(),
            format!(
                "{} view ({} new), {} partition selections ({} new fragments)",
                c.view_candidates, c.new_views, c.partition_selections, c.new_fragments
            ),
            "-".into(),
        ],
        vec![
            "selection".into(),
            format!(
                "{} considered, {} creations, {} evictions planned",
                s.considered, s.planned_creations, s.planned_evictions
            ),
            "-".into(),
        ],
        vec!["execution".into(), "-".into(), secs(t.execution.query_secs)],
        vec![
            "materialization".into(),
            format!(
                "{} read, {} written ({} files, {} fragments covered)",
                bytes(mat.bytes_read),
                bytes(mat.bytes_written),
                mat.files_written,
                mat.fragments_covered
            ),
            secs(mat.creation_secs),
        ],
        vec![
            "eviction".into(),
            format!(
                "{} selected, {} forced by Smax",
                ev.selected, ev.limit_forced
            ),
            "-".into(),
        ],
        vec![
            "recovery".into(),
            format!(
                "{} retries, {} quarantined ({}), {} base-table fallbacks, \
                 {} fragment fallbacks, {} corrupt",
                rec.retries,
                rec.quarantined_views,
                bytes(rec.quarantined_bytes),
                rec.base_table_fallbacks,
                rec.fragment_fallbacks,
                rec.corrupt_fragments
            ),
            secs(rec.penalty_secs),
        ],
        vec![
            "durability".into(),
            format!(
                "{} journal records, {} snapshots, {} retries",
                dur.journal_appends, dur.snapshots, dur.journal_retries
            ),
            secs(dur.journal_penalty_secs),
        ],
    ];
    format!(
        "per-stage breakdown, {label}:\n{}",
        table(&["stage", "activity", "sim (s)"], &rows)
    )
}

/// Format a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

/// Render a top-N ranking (e.g. fig5a's hottest views by hit count) as a
/// two-column table with 1-based ranks.
pub fn top_n_table(title: &str, value_header: &str, rows: &[(String, u64)]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(i, (label, v))| vec![format!("{}", i + 1), label.clone(), v.to_string()])
        .collect();
    format!("{title}:\n{}", table(&["#", "name", value_header], &body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "secs"],
            &[
                vec!["H".into(), "1000.0".into()],
                vec!["DS".into(), "64.2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1000.0"));
        assert!(lines[3].ends_with("64.2"));
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let c = bar_chart(
            &[("H".into(), 100.0), ("DS".into(), 50.0), ("Z".into(), 0.0)],
            "s",
        );
        let lines: Vec<&str> = c.lines().collect();
        let bars: Vec<usize> = lines.iter().map(|l| l.matches('█').count()).collect();
        assert_eq!(bars[0], 40);
        assert_eq!(bars[1], 20);
        assert_eq!(bars[2], 0);
    }

    #[test]
    fn series_prints_points() {
        let s = series(&[(1, 10.0), (2, 20.5)], "query", "cumulative");
        assert!(s.contains("query"));
        assert!(s.contains("20.5"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(1.26), "1.3");
        assert_eq!(pct(0.642), "64%");
        assert_eq!(bytes(512), "512 B");
        assert_eq!(bytes(2_500_000), "2.5 MB");
        assert_eq!(bytes(3_200_000_000), "3.2 GB");
    }

    /// Every leaf of the trace schema must surface in the rendered
    /// breakdown, in its stage's row. The fixture is filled through the
    /// schema — leaf `i` holds `101 + i`, plus a half on the seconds — so a
    /// new leaf fails here until `stage_breakdown` prints it, and a dropped
    /// or swapped `format!` argument is caught by the pinned sentences.
    #[test]
    fn stage_breakdown_prints_every_leaf() {
        let mut next = 100.0;
        let t = QueryTrace::from_fields(|_| {
            next += 1.0;
            next + 0.5
        });
        let s = stage_breakdown("DS", &t);
        assert!(s.starts_with("per-stage breakdown, DS:"));
        for (name, v) in t.fields() {
            let stage = name.split('.').next().expect("stage.leaf");
            let row = s
                .lines()
                .find(|l| l.trim_start().starts_with(stage))
                .unwrap_or_else(|| panic!("no {stage} row in:\n{s}"));
            let as_int = format!("{}", v as u64);
            assert!(
                row.contains(&as_int) || row.contains(&secs(v)),
                "leaf {name} (= {v}) is not printed in its row:\n{s}"
            );
        }
        for sentence in [
            "101 roots, 102 hits (103 on materialized data), 104 views updated",
            "105 rewritings costed (base 106.5s, best 107.5s)",
            "108 view (109 new), 110 partition selections (111 new fragments)",
            "112 considered, 113 creations, 114 evictions planned",
            "116 B read, 117 B written (118 files, 119 fragments covered)",
            "121 selected, 122 forced by Smax",
            "123 retries, 125 quarantined (126 B), 127 base-table fallbacks, \
             128 fragment fallbacks, 129 corrupt",
            "130 journal records, 133 snapshots, 131 retries",
        ] {
            assert!(s.contains(sentence), "missing {sentence:?} in:\n{s}");
        }
    }

    #[test]
    fn top_n_table_ranks_rows() {
        let s = top_n_table(
            "hottest views",
            "hits",
            &[("store_sales.q30".into(), 42), ("web_clicks.q5".into(), 7)],
        );
        assert!(s.starts_with("hottest views:"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[3].contains('1') && lines[3].contains("store_sales.q30"));
        assert!(lines[4].ends_with('7'));
    }
}
