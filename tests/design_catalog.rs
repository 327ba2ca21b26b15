//! DESIGN.md §9 names what the code emits. Its metric table lists every
//! metric family the product code writes, and no other; its decision-event
//! list names every `DecisionEvent` kind, and no other. Both sides are read
//! from the source, so a family or kind added, renamed or deleted without
//! its row fails here instead of drifting out of the catalog.
//!
//! The verify skill quotes counts that CI pins at seed 7; each is read from
//! both files and compared, so a re-pin in one and not the other fails.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// DESIGN.md's §9, up to the next top-level section.
fn section_9() -> String {
    let design = fs::read_to_string(root().join("DESIGN.md")).expect("read DESIGN.md");
    let start = design
        .find("\n## 9. Observability")
        .expect("DESIGN.md has a §9");
    let rest = &design[start + 1..];
    let end = rest[3..].find("\n## ").map_or(rest.len(), |e| e + 3);
    rest[..end].to_string()
}

/// The lines of `text` from the heading `### {title}` to the next heading.
fn subsection<'a>(text: &'a str, title: &str) -> Vec<&'a str> {
    text.lines()
        .skip_while(|l| *l != format!("### {title}"))
        .skip(1)
        .take_while(|l| !l.starts_with('#'))
        .collect()
}

/// The backquoted words of `text`, in order.
fn quoted(text: &str) -> Vec<&str> {
    text.split('`').skip(1).step_by(2).collect()
}

/// Every `.rs` file under `dir` but the unit-test files, each cut at its
/// `mod tests` line.
fn product_sources(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    for entry in fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            product_sources(&path, out);
        } else if name.ends_with(".rs") && name != "tests.rs" && !name.ends_with("_tests.rs") {
            let text = fs::read_to_string(&path).expect("read source");
            let product = text
                .lines()
                .take_while(|l| !l.trim_start().starts_with("mod tests"))
                .collect::<Vec<_>>()
                .join("\n");
            out.push((path, product));
        }
    }
}

/// The metric families §9's table lists: the first cell of each row, where
/// a `/ _suffix` shorthand stands for the first name's `deepsea_<word>`
/// prefix plus the suffix (`deepsea_mat_bytes_read_total` /
/// `_bytes_written_total`).
fn catalogued_families() -> BTreeSet<String> {
    let section = section_9();
    let mut families = BTreeSet::new();
    for row in subsection(&section, "Metric catalog") {
        let Some(cells) = row.strip_prefix("| `") else {
            continue;
        };
        let first = &row[2..2 + cells.find('|').map_or(cells.len(), |e| e + 1)];
        let names = quoted(first);
        let prefix = names[0]
            .splitn(3, '_')
            .take(2)
            .collect::<Vec<_>>()
            .join("_");
        for name in names {
            families.insert(if name.starts_with('_') {
                format!("{prefix}{name}")
            } else {
                name.to_string()
            });
        }
    }
    families
}

/// The `"deepsea_…"` string literals of the workspace's product code.
fn emitted_families() -> BTreeSet<String> {
    let mut sources = Vec::new();
    for entry in fs::read_dir(root().join("crates")).expect("read crates") {
        let src = entry.expect("crate entry").path().join("src");
        if src.is_dir() {
            product_sources(&src, &mut sources);
        }
    }
    let mut families = BTreeSet::new();
    for (_, text) in &sources {
        for literal in text.split("\"deepsea_").skip(1) {
            let name: String = literal
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
                .collect();
            if literal[name.len()..].starts_with('"') {
                families.insert(format!("deepsea_{name}"));
            }
        }
    }
    families
}

#[test]
fn the_metric_table_lists_exactly_the_families_the_code_writes() {
    let catalogued = catalogued_families();
    let emitted = emitted_families();
    assert!(
        emitted.contains("deepsea_queries_total") && emitted.contains("deepsea_shed_reads_total"),
        "the scan missed families the driver and the server write: {emitted:?}"
    );
    let undocumented: Vec<_> = emitted.difference(&catalogued).collect();
    assert!(
        undocumented.is_empty(),
        "written but not in DESIGN §9: {undocumented:?}"
    );
}

#[test]
fn every_catalogued_family_is_written_somewhere() {
    let catalogued = catalogued_families();
    assert!(catalogued.contains("deepsea_mat_bytes_written_total"));
    assert!(catalogued.contains("deepsea_fragment_readmissions_total"));
    let emitted = emitted_families();
    let unwritten: Vec<_> = catalogued.difference(&emitted).collect();
    assert!(
        unwritten.is_empty(),
        "in DESIGN §9 but written nowhere: {unwritten:?}"
    );
}

#[test]
fn the_event_list_names_exactly_the_decision_event_kinds() {
    let events = fs::read_to_string(root().join("crates/obs/src/events.rs")).expect("read events");
    let body = events
        .split("pub fn kind(&self)")
        .nth(1)
        .expect("DecisionEvent::kind")
        .split("\n    }\n")
        .next()
        .unwrap_or("");
    let kinds: BTreeSet<&str> = body
        .lines()
        .filter_map(|l| l.split("=> \"").nth(1))
        .filter_map(|l| l.strip_suffix("\","))
        .collect();
    assert!(kinds.contains("fragment_split") && kinds.contains("shed"));

    // A bullet is `- `kind` / `kind` — what it records`, possibly wrapped.
    let section = section_9();
    let mut bullets: Vec<String> = Vec::new();
    for line in subsection(&section, "Decision events") {
        if let Some(bullet) = line.strip_prefix("- ") {
            bullets.push(bullet.to_string());
        } else if let (Some(last), Some(more)) = (bullets.last_mut(), line.strip_prefix("  ")) {
            last.push(' ');
            last.push_str(more);
        }
    }
    let listed: BTreeSet<&str> = bullets
        .iter()
        .flat_map(|b| quoted(b.split(" — ").next().unwrap_or("")))
        .collect();
    assert_eq!(
        listed, kinds,
        "DESIGN §9's event kinds vs `DecisionEvent::kind`"
    );
}

/// The number `words` start with, read as one when spaces split its digits
/// into groups (`4 163`): up to the first word that is not digits or that
/// ends in punctuation.
fn number(words: &[&str]) -> u64 {
    let mut digits = String::new();
    for w in words {
        let d = w.trim_end_matches([',', '.', ';', ')']);
        if d.is_empty() || !d.bytes().all(|b| b.is_ascii_digit()) {
            break;
        }
        digits.push_str(d);
        if d.len() < w.len() {
            break;
        }
    }
    digits
        .parse()
        .unwrap_or_else(|_| panic!("a number at {words:?}"))
}

/// The words of `text` after the first run of words equal to `marker`'s.
fn after<'a>(text: &[&'a str], marker: &str) -> Vec<&'a str> {
    let marker: Vec<&str> = marker.split_whitespace().collect();
    let at = (0..text.len())
        .find(|&i| text[i..].starts_with(&marker))
        .unwrap_or_else(|| panic!("the verify skill says {marker:?}"));
    text[at + marker.len()..].to_vec()
}

/// The value `ci.yml` greps for in `metric` of the traced `workload` run.
fn ci_pin(ci: &str, workload: &str, metric: &str) -> u64 {
    let needle = format!("{workload}_traced.out | grep -q '\"{metric}\":{{\"value\":");
    let at = ci
        .find(&needle)
        .unwrap_or_else(|| panic!("ci.yml pins {metric} of {workload}"));
    let value = &ci[at + needle.len()..];
    value[..value.find(',').unwrap_or(0)]
        .parse()
        .unwrap_or_else(|_| panic!("a number in ci.yml's {metric} pin of {workload}"))
}

#[test]
fn the_counts_the_verify_skill_quotes_are_the_ones_ci_pins() {
    let read = |path: &str| fs::read_to_string(root().join(path)).expect(path);
    let ci = read(".github/workflows/ci.yml");
    let skill = read(".claude/skills/verify/SKILL.md");
    let words: Vec<&str> = skill.split_whitespace().collect();

    // "`engine.execute_calls` on `--trace 1` at seed 7 is 300 for
    // `base_scan`, 801 for `sdss_steady`, …"
    let calls = after(&words, "`engine.execute_calls` on `--trace 1` at seed 7 is");
    for workload in ["base_scan", "sdss_steady", "sdss_churn", "serve_tail"] {
        let name = format!("`{workload}`");
        let at = (calls.iter().take(20))
            .position(|w| w.trim_end_matches([',', '.']) == name)
            .unwrap_or_else(|| panic!("the verify skill quotes {workload}'s calls"));
        assert_eq!(
            number(&calls[at - 2..at]),
            ci_pin(&ci, workload, "engine.execute_calls"),
            "engine.execute_calls of {workload}: verify skill vs ci.yml"
        );
    }

    // "A traced `sdss_steady` pass at seed 7 logs 145 events"
    let events = after(&words, "A traced `sdss_steady` pass at seed 7 logs");
    assert_eq!(
        number(&events),
        ci_pin(&ci, "sdss_steady", "obs.events_recorded"),
        "events of sdss_steady: verify skill vs ci.yml"
    );

    // "The traced `sdss_churn` step also pins `candidates.new_views` 69, …"
    let quoted = after(&words, "The traced `sdss_churn` step also pins");
    for metric in [
        "core.write_path.candidates.new_views",
        "core.write_path.candidates.new_fragments",
        "core.write_path.selection.considered",
        "core.durability.journal_appends",
    ] {
        // Quoted by its last two parts.
        let last: Vec<&str> = metric.rsplitn(3, '.').collect();
        let value = after(&quoted, &format!("`{}.{}`", last[1], last[0]));
        assert_eq!(
            number(&value),
            ci_pin(&ci, "sdss_churn", metric),
            "{metric} of sdss_churn: verify skill vs ci.yml"
        );
    }
}
