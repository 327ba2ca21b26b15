//! The invariant rules, evaluated over the token stream of one file.
//!
//! Rule catalog (see DESIGN.md §10 for the rationale tied to each
//! determinism guarantee):
//!
//! - **D1 `hash_iter`** — no `HashMap`/`HashSet` in decision-path crates
//!   (`core`, `engine`, `storage`, `workload`): both binding one and
//!   iterating one (`iter`/`keys`/`values`/`into_iter`/`drain`/for-loops)
//!   are flagged, because iteration order feeds nondeterminism into replay.
//! - **D2 `wall_clock`** — no wall-clock or ambient entropy (`Instant`,
//!   `SystemTime`, `thread_rng`, …) outside the `criterion` shim.
//! - **P1 `panic`** — no `unwrap()` / `panic!` / `unreachable!` / `todo!` /
//!   `unimplemented!` in non-test product code; `expect("invariant: …")` is
//!   the only sanctioned escape.
//! - **E1 `discard`** — no `let _ =` discarding a call matching fallible
//!   name patterns (`try_*`, `*_costed`, `append`, `write!`/`writeln!`),
//!   except `write!`/`writeln!` into a `String` (infallible by contract).
//! - **L1 `layering`** — no `std::fs` / `std::net` / `std::thread` outside
//!   `crates/storage` and the bench harness: core I/O goes through
//!   `ExecutionBackend` / `SimFs` only.
//! - **R1 `read_path_purity`** — (corpus-level, see [`crate::graph`]) no fn
//!   reachable from a `driver/read_path` entry point or a fn taking
//!   `&ReadSnapshot` may call `&mut self` methods on registry/catalog/pool
//!   types, `Journal::append`, or anything in `driver/write_path`.
//! - **R2 `lock_discipline`** — in the sanctioned concurrency files
//!   (`server/workers.rs`, `storage/sync.rs`): no nested guard acquisition
//!   and no backend/journal call under a held guard; `std::sync` primitives
//!   nowhere else.
//! - **R3 `cost_flow`** — cost components returned by `try_*` / `*_costed`
//!   / `drain_retry_*` calls must not be silently dropped (discarded tuple
//!   components, unconsumed statements, or the cost-dropping
//!   `SimFs::delete` wrapper in core).
//! - **R4 `obs_gated`** — Observer derived computation (`DecisionEvent`
//!   construction, `format!`-built labels feeding sinks) must sit under an
//!   `enabled()` / `events_enabled()` / span-presence guard.
//!
//! Any site may be exempted with a justified marker on the same line or the
//! line directly above:
//!
//! ```text
//! // deepsea-lint: allow(hash_iter) -- drained via sort_unstable, order-free
//! ```
//!
//! A marker without a `-- justification` (or naming an unknown rule) is
//! itself a violation (**M0 `marker`**). Test code — files under `tests/`,
//! `benches/` or `examples/`, and `#[cfg(test)]` / `#[test]` items — is
//! exempt from every rule.

use crate::lexer::{lex, TokKind, Token};

/// Typed rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// D1: hash-collection binding/iteration in a decision-path crate.
    HashIter,
    /// D2: wall-clock or ambient entropy outside the criterion shim.
    WallClock,
    /// P1: panic paths in non-test product code.
    Panic,
    /// E1: `let _ =` discarding a fallible call.
    Discard,
    /// L1: direct `std::fs`/`std::net`/`std::thread` outside storage/bench.
    Layering,
    /// M0: malformed or unjustified allow-marker.
    Marker,
    /// R1: read-path reachability into catalog mutation (corpus-level).
    ReadPurity,
    /// R2: lock guard shape in sanctioned files; sync primitives elsewhere.
    LockDiscipline,
    /// R3: silently dropped simulated-cost components.
    CostFlow,
    /// R4: ungated Observer derived computation.
    ObsGated,
}

impl RuleId {
    /// Short code used in reports and the baseline file.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::HashIter => "D1",
            RuleId::WallClock => "D2",
            RuleId::Panic => "P1",
            RuleId::Discard => "E1",
            RuleId::Layering => "L1",
            RuleId::Marker => "M0",
            RuleId::ReadPurity => "R1",
            RuleId::LockDiscipline => "R2",
            RuleId::CostFlow => "R3",
            RuleId::ObsGated => "R4",
        }
    }

    /// The slug accepted by `allow(...)` markers.
    pub fn slug(self) -> &'static str {
        match self {
            RuleId::HashIter => "hash_iter",
            RuleId::WallClock => "wall_clock",
            RuleId::Panic => "panic",
            RuleId::Discard => "discard",
            RuleId::Layering => "layering",
            RuleId::Marker => "marker",
            RuleId::ReadPurity => "read_path_purity",
            RuleId::LockDiscipline => "lock_discipline",
            RuleId::CostFlow => "cost_flow",
            RuleId::ObsGated => "obs_gated",
        }
    }

    /// Parse a marker slug (M0 itself is not allowable).
    pub fn from_slug(s: &str) -> Option<RuleId> {
        match s {
            "hash_iter" => Some(RuleId::HashIter),
            "wall_clock" => Some(RuleId::WallClock),
            "panic" => Some(RuleId::Panic),
            "discard" => Some(RuleId::Discard),
            "layering" => Some(RuleId::Layering),
            "read_path_purity" => Some(RuleId::ReadPurity),
            "lock_discipline" => Some(RuleId::LockDiscipline),
            "cost_flow" => Some(RuleId::CostFlow),
            "obs_gated" => Some(RuleId::ObsGated),
            _ => None,
        }
    }

    /// Every reportable rule, in code order.
    pub fn all() -> [RuleId; 10] {
        [
            RuleId::HashIter,
            RuleId::WallClock,
            RuleId::Panic,
            RuleId::Discard,
            RuleId::Layering,
            RuleId::Marker,
            RuleId::ReadPurity,
            RuleId::LockDiscipline,
            RuleId::CostFlow,
            RuleId::ObsGated,
        ]
    }
}

/// One diagnostic: a rule violated at `file:line`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The rule violated.
    pub rule: RuleId,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the specific site.
    pub message: String,
}

/// Crates whose control flow decides what gets materialized, evicted,
/// journaled or replayed — any iteration-order dependence here breaks
/// bit-identical replay.
const DECISION_CRATES: [&str; 4] = ["core", "engine", "storage", "workload"];

/// Crates holding product code held to panic-freedom (P1) and discard (E1).
const PRODUCT_CRATES: [&str; 6] = ["core", "engine", "storage", "workload", "obs", "relation"];

/// Vendored stand-ins for registry crates; exempt from product rules.
const SHIM_CRATES: [&str; 4] = ["rand", "proptest", "criterion", "serde"];

/// Identifiers that reach for wall-clock time or ambient entropy.
const WALL_CLOCK_IDENTS: [&str; 5] = [
    "Instant",
    "SystemTime",
    "RandomState",
    "thread_rng",
    "from_entropy",
];

/// Hash-collection iteration methods whose order is nondeterministic.
const HASH_ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

/// `std::` modules that touch the outside world; only `crates/storage` (the
/// simulated filesystem boundary) and the bench harness may name them.
const LAYERING_MODULES: [&str; 3] = ["fs", "net", "thread"];

/// The sanctioned concurrency surface: the one file outside the exempt
/// crates allowed to name `std::thread` — the feature-gated real-thread
/// serving layer, which routes all cross-thread state through
/// `deepsea_storage::sync::EpochCell`. `fs`/`net` stay forbidden there, and
/// `thread` stays forbidden everywhere else; growing this list is a
/// design decision, not a convenience.
const SANCTIONED_CONCURRENCY: [&str; 1] = ["crates/core/src/server/workers.rs"];

/// R2's sanctioned files: the only places allowed to *hold* lock guards,
/// and therefore the only places whose guard shape is checked instead of
/// their imports.
const R2_SANCTIONED: [&str; 2] = [
    "crates/core/src/server/workers.rs",
    "crates/storage/src/sync.rs",
];

/// `std::sync` primitive type/module names R2 bans outside the sanctioned
/// files (`Arc` is shared ownership, not a lock — allowed; `Atomic*` is
/// matched by prefix).
const SYNC_PRIMITIVES: [&str; 9] = [
    "Mutex", "RwLock", "Condvar", "Barrier", "Once", "OnceLock", "LazyLock", "mpsc", "atomic",
];

/// Guard-acquiring method names on `std::sync` lock types.
const LOCK_ACQUIRE_METHODS: [&str; 6] =
    ["lock", "try_lock", "read", "try_read", "write", "try_write"];

/// Observer sink methods; a `format!`-built label flowing into one of
/// these is derived computation R4 requires a guard around.
const OBS_SINKS: [&str; 6] = [
    "event",
    "observe",
    "record_span",
    "counter_inc",
    "counter_add",
    "gauge_set",
];

/// The crate a workspace-relative path belongs to (`crates/<name>/…`), or a
/// pseudo-crate for top-level dirs (`src/` → `deepsea`, `tests/` → `tests`).
fn crate_of(rel: &str) -> &str {
    if let Some(rest) = rel.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("")
    } else {
        rel.split('/').next().unwrap_or("")
    }
}

/// Whole-file test/bench/example scope: nothing in these files is linted.
/// Covers `tests/`, `benches/` and `examples/` dirs, plus module files named
/// `tests.rs` / `*_tests.rs` (their `#[cfg(test)]` lives on the `mod`
/// declaration in the parent file, out of this file's token stream).
fn is_test_path(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.contains(&"tests") || parts.contains(&"benches") || parts.contains(&"examples") {
        return true;
    }
    let file = parts.last().copied().unwrap_or("");
    file == "tests.rs" || file.ends_with("_tests.rs")
}

/// Should `rel` participate in the cross-crate call-graph corpus (R1)?
/// Test-scoped files and the vendored shim crates are excluded — shims
/// re-use common method names and would only add resolver ambiguity.
pub(crate) fn in_graph_corpus(rel: &str) -> bool {
    !is_test_path(rel) && !SHIM_CRATES.contains(&crate_of(rel))
}

/// Does `rule` apply to the file at `rel` at all?
fn rule_enabled(rule: RuleId, rel: &str) -> bool {
    let c = crate_of(rel);
    let shim = SHIM_CRATES.contains(&c);
    match rule {
        RuleId::HashIter => DECISION_CRATES.contains(&c),
        RuleId::WallClock => c != "criterion",
        RuleId::Panic | RuleId::Discard => PRODUCT_CRATES.contains(&c),
        RuleId::Layering => !matches!(c, "storage" | "bench" | "lint") && !shim,
        RuleId::Marker => true,
        // R1 is evaluated over the whole corpus (graph reachability), not
        // per file; this arm only scopes marker applicability.
        RuleId::ReadPurity => !shim,
        RuleId::LockDiscipline => matches!(
            c,
            "core" | "engine" | "storage" | "workload" | "relation" | "obs"
        ),
        RuleId::CostFlow => DECISION_CRATES.contains(&c),
        RuleId::ObsGated => PRODUCT_CRATES.contains(&c) && c != "obs",
    }
}

/// A parsed `// deepsea-lint: allow(slug[, slug]) -- justification` marker.
struct Marker {
    line: u32,
    rules: Vec<RuleId>,
}

/// Lint one file's source. `rel` is the workspace-relative path (used for
/// crate scoping); returns violations sorted by line.
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    if is_test_path(rel) {
        return Vec::new();
    }
    let all = lex(src);
    let (src_toks, comments): (Vec<Token>, Vec<Token>) = all
        .into_iter()
        .partition(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment));

    let mut out = Vec::new();
    let (markers, marker_violations) = collect_markers(rel, &comments);
    out.extend(marker_violations);

    let test_spans = test_item_spans(&src_toks);
    let in_test = |idx: usize| test_spans.iter().any(|&(a, b)| idx >= a && idx < b);

    let hash_idents = collect_typed_idents(&src_toks, &["HashMap", "HashSet"]);
    let string_idents = collect_typed_idents(&src_toks, &["String"]);

    let t = &src_toks;
    for i in 0..t.len() {
        if in_test(i) {
            continue;
        }
        rule_hash(rel, t, i, &hash_idents, &mut out);
        rule_wall_clock(rel, t, i, &mut out);
        rule_panic(rel, t, i, &mut out);
        rule_discard(rel, t, i, &string_idents, &mut out);
        rule_layering(rel, t, i, &mut out);
    }
    if rule_enabled(RuleId::LockDiscipline, rel) {
        rule_lock_discipline(rel, t, &in_test, &mut out);
    }
    if rule_enabled(RuleId::CostFlow, rel) {
        rule_cost_flow(rel, t, &in_test, &mut out);
    }
    if rule_enabled(RuleId::ObsGated, rel) {
        rule_obs_gated(rel, t, &in_test, &mut out);
    }

    retain_unsuppressed(&markers, t, &mut out);
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

/// Drop the violations an allow-marker covers: a marker suppresses matching
/// violations on its own line and on the next line holding a source token.
/// Marker-rule (M0) diagnostics are never suppressed.
fn retain_unsuppressed(markers: &[Marker], src_toks: &[Token], v: &mut Vec<Violation>) {
    let suppressed = |vi: &Violation| {
        markers.iter().any(|m| {
            if !m.rules.contains(&vi.rule) {
                return false;
            }
            if vi.line == m.line {
                return true;
            }
            let next = src_toks.iter().map(|tok| tok.line).find(|&l| l > m.line);
            next == Some(vi.line)
        })
    };
    v.retain(|vi| vi.rule == RuleId::Marker || !suppressed(vi));
}

/// Extract allow-markers from line comments; malformed ones are violations.
fn collect_markers(rel: &str, comments: &[Token]) -> (Vec<Marker>, Vec<Violation>) {
    let mut markers = Vec::new();
    let mut violations = Vec::new();
    for c in comments {
        if c.kind != TokKind::LineComment {
            continue;
        }
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("deepsea-lint:") else {
            continue;
        };
        let mut bad = |why: &str| {
            violations.push(Violation {
                rule: RuleId::Marker,
                file: rel.to_string(),
                line: c.line,
                message: format!("malformed deepsea-lint marker: {why}"),
            });
        };
        let rest = rest.trim();
        let Some(args) = rest.strip_prefix("allow(") else {
            bad("expected `allow(<rule>)`");
            continue;
        };
        let Some(close) = args.find(')') else {
            bad("unterminated `allow(`");
            continue;
        };
        let (slugs, tail) = args.split_at(close);
        let tail = tail[1..].trim();
        let justified = tail
            .strip_prefix("--")
            .is_some_and(|j| !j.trim().is_empty());
        if !justified {
            bad("missing `-- <justification>`");
            continue;
        }
        let mut rules = Vec::new();
        let mut unknown = None;
        for slug in slugs.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match RuleId::from_slug(slug) {
                Some(r) => rules.push(r),
                None => unknown = Some(slug.to_string()),
            }
        }
        if let Some(u) = unknown {
            bad(&format!("unknown rule `{u}`"));
            continue;
        }
        if rules.is_empty() {
            bad("empty rule list");
            continue;
        }
        markers.push(Marker {
            line: c.line,
            rules,
        });
    }
    (markers, violations)
}

/// Token-index spans of `#[cfg(test)]` / `#[test]` items (the attribute up
/// to the end of the item's brace block or terminating `;`).
fn test_item_spans(t: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if t[i].is_punct('#') && t.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            let (attr_end, is_test) = scan_attribute(t, i + 1);
            if is_test {
                let mut j = attr_end;
                // Skip any stacked attributes (`#[cfg(test)] #[allow(...)]`).
                while j < t.len()
                    && t[j].is_punct('#')
                    && t.get(j + 1).is_some_and(|n| n.is_punct('['))
                {
                    let (e, _) = scan_attribute(t, j + 1);
                    j = e;
                }
                let end = scan_item_end(t, j);
                spans.push((i, end));
                i = end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    spans
}

/// Scan a `[...]` attribute starting at its `[`; returns (index past `]`,
/// whether it marks test-only code). `#[test]`, `#[cfg(test)]` and any
/// `cfg(...)` whose argument list mentions `test` qualify.
fn scan_attribute(t: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut idents = Vec::new();
    let mut j = open;
    while j < t.len() {
        let tok = &t[j];
        if tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                j += 1;
                break;
            }
        } else if tok.kind == TokKind::Ident {
            idents.push(tok.text.as_str().to_string());
        }
        j += 1;
    }
    let first = idents.first().map(String::as_str);
    let is_test =
        first == Some("test") || (first == Some("cfg") && idents.iter().any(|s| s == "test"));
    (j, is_test)
}

/// From the first token of an item, find the index just past its end: the
/// matching `}` of its first depth-0 brace block, or a depth-0 `;`.
fn scan_item_end(t: &[Token], start: usize) -> usize {
    let mut j = start;
    let mut depth = 0i32; // (), [] nesting inside the signature
    while j < t.len() {
        let tok = &t[j];
        if tok.is_punct('(') || tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') {
            depth -= 1;
        } else if tok.is_punct(';') && depth <= 0 {
            return j + 1;
        } else if tok.is_punct('{') && depth <= 0 {
            let mut braces = 1i32;
            j += 1;
            while j < t.len() && braces > 0 {
                if t[j].is_punct('{') {
                    braces += 1;
                } else if t[j].is_punct('}') {
                    braces -= 1;
                }
                j += 1;
            }
            return j;
        }
        j += 1;
    }
    j
}

/// Names of identifiers bound with one of `type_names` in this file:
/// `x: [&][mut] T`, `let [mut] x = T::...`, struct fields, fn params.
fn collect_typed_idents(t: &[Token], type_names: &[&str]) -> Vec<String> {
    let mut found: Vec<String> = Vec::new();
    for i in 0..t.len() {
        if t[i].kind != TokKind::Ident || !type_names.contains(&t[i].text.as_str()) {
            continue;
        }
        // Walk back over `&` and `mut` to the binding shape.
        let mut k = i;
        while k > 0 && (t[k - 1].is_punct('&') || t[k - 1].is_ident("mut")) {
            k -= 1;
        }
        if k >= 2 && t[k - 1].is_punct(':') && t[k - 2].kind == TokKind::Ident {
            push_unique(&mut found, &t[k - 2].text);
            continue;
        }
        // `let [mut] x = T::new()` — walk back from `=` to the binding.
        if k >= 2 && t[k - 1].is_punct('=') {
            let mut m = k - 1;
            while m > 0 {
                let p = &t[m - 1];
                if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
                    break;
                }
                if p.is_ident("let") {
                    // Binding ident is the first ident after `let`/`let mut`.
                    let mut b = m;
                    if t.get(b).is_some_and(|x| x.is_ident("mut")) {
                        b += 1;
                    }
                    if let Some(x) = t.get(b) {
                        if x.kind == TokKind::Ident {
                            push_unique(&mut found, &x.text);
                        }
                    }
                    break;
                }
                m -= 1;
            }
        }
    }
    found
}

fn push_unique(v: &mut Vec<String>, s: &str) {
    if !v.iter().any(|x| x == s) {
        v.push(s.to_string());
    }
}

/// Is token `i` inside a `use` declaration? (Statement scan back to the
/// nearest `;`/`{`/`}`, then look for a leading `use`.)
fn in_use_stmt(t: &[Token], i: usize) -> bool {
    let mut k = i;
    while k > 0 {
        let p = &t[k - 1];
        if p.is_punct(';') || p.is_punct('}') {
            break;
        }
        // `{` only ends the scan when it opens a block, not a use-group
        // (`use std::{fs, io}`); a use-group brace is preceded by `::`.
        if p.is_punct('{') && !(k >= 3 && t[k - 2].is_punct(':') && t[k - 3].is_punct(':')) {
            break;
        }
        if p.is_ident("use") {
            return true;
        }
        k -= 1;
    }
    false
}

fn violation(out: &mut Vec<Violation>, rule: RuleId, rel: &str, line: u32, msg: String) {
    out.push(Violation {
        rule,
        file: rel.to_string(),
        line,
        message: msg,
    });
}

/// D1 — hash collections in decision-path crates: flag the binding site of
/// any `HashMap`/`HashSet` (outside `use`), iteration-method calls on a
/// known hash binding, and `for … in` loops over one.
fn rule_hash(rel: &str, t: &[Token], i: usize, hash_idents: &[String], out: &mut Vec<Violation>) {
    if !rule_enabled(RuleId::HashIter, rel) {
        return;
    }
    let tok = &t[i];
    if tok.kind != TokKind::Ident {
        return;
    }
    if (tok.text == "HashMap" || tok.text == "HashSet") && !in_use_stmt(t, i) {
        // Don't double-report the constructor of an annotated binding
        // (`let m: HashMap<..> = HashMap::new()` → one diagnostic).
        let constructor = t.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && t.get(i + 2).is_some_and(|n| n.is_punct(':'));
        let annotated = i >= 1 && {
            let mut k = i;
            while k > 0 && (t[k - 1].is_punct('&') || t[k - 1].is_ident("mut")) {
                k -= 1;
            }
            k >= 1 && t[k - 1].is_punct('=')
        };
        if !(constructor && annotated) {
            violation(
                out,
                RuleId::HashIter,
                rel,
                tok.line,
                format!(
                    "`{}` in a decision-path crate: iteration order is \
                     nondeterministic; use `BTreeMap`/`BTreeSet` or justify with \
                     `// deepsea-lint: allow(hash_iter) -- <why>`",
                    tok.text
                ),
            );
        }
        return;
    }
    if !hash_idents.iter().any(|h| h == &tok.text) {
        return;
    }
    // `name.iter()` and friends.
    if t.get(i + 1).is_some_and(|n| n.is_punct('.')) {
        if let Some(m) = t.get(i + 2) {
            if m.kind == TokKind::Ident
                && HASH_ITER_METHODS.contains(&m.text.as_str())
                && t.get(i + 3).is_some_and(|n| n.is_punct('('))
            {
                violation(
                    out,
                    RuleId::HashIter,
                    rel,
                    tok.line,
                    format!(
                        "iteration `{}.{}()` over a hash collection — order is \
                         nondeterministic",
                        tok.text, m.text
                    ),
                );
            }
        }
    }
    // `for x in [&][mut] name {` — direct loop over the collection.
    if t.get(i + 1).is_some_and(|n| n.is_punct('{')) {
        let mut k = i;
        while k > 0 && (t[k - 1].is_punct('&') || t[k - 1].is_ident("mut")) {
            k -= 1;
        }
        if k >= 1 && t[k - 1].is_ident("in") {
            violation(
                out,
                RuleId::HashIter,
                rel,
                tok.line,
                format!(
                    "`for … in {}` iterates a hash collection — order is \
                     nondeterministic",
                    tok.text
                ),
            );
        }
    }
}

/// D2 — wall-clock / ambient entropy identifiers.
fn rule_wall_clock(rel: &str, t: &[Token], i: usize, out: &mut Vec<Violation>) {
    if !rule_enabled(RuleId::WallClock, rel) {
        return;
    }
    let tok = &t[i];
    if tok.kind == TokKind::Ident && WALL_CLOCK_IDENTS.contains(&tok.text.as_str()) {
        violation(
            out,
            RuleId::WallClock,
            rel,
            tok.line,
            format!(
                "`{}` is wall-clock/ambient entropy — all time and randomness \
                 must flow from the simulated clock or an explicit seed",
                tok.text
            ),
        );
    }
}

/// P1 — panic paths: `.unwrap()`, panic-family macros, and `.expect(msg)`
/// whose message does not start with `invariant: `.
fn rule_panic(rel: &str, t: &[Token], i: usize, out: &mut Vec<Violation>) {
    if !rule_enabled(RuleId::Panic, rel) {
        return;
    }
    let tok = &t[i];
    if tok.kind != TokKind::Ident {
        return;
    }
    let after_dot = i >= 1 && t[i - 1].is_punct('.');
    let called = t.get(i + 1).is_some_and(|n| n.is_punct('('));
    if tok.text == "unwrap" && after_dot && called {
        violation(
            out,
            RuleId::Panic,
            rel,
            tok.line,
            "`.unwrap()` in product code — propagate with `?` or use \
             `.expect(\"invariant: …\")`"
                .to_string(),
        );
        return;
    }
    if tok.text == "expect" && after_dot && called {
        let arg = t.get(i + 2);
        let sanctioned = arg.is_some_and(|a| {
            matches!(a.kind, TokKind::Str | TokKind::RawStr) && a.text.starts_with("invariant: ")
        });
        if !sanctioned {
            violation(
                out,
                RuleId::Panic,
                rel,
                tok.line,
                "`.expect(…)` message must be a literal starting with \
                 `invariant: ` (documenting why the invariant holds)"
                    .to_string(),
            );
        }
        return;
    }
    if matches!(
        tok.text.as_str(),
        "panic" | "unreachable" | "todo" | "unimplemented"
    ) && t.get(i + 1).is_some_and(|n| n.is_punct('!'))
    {
        violation(
            out,
            RuleId::Panic,
            rel,
            tok.line,
            format!("`{}!` in product code — return an error instead", tok.text),
        );
    }
}

/// E1 — `let _ = <expr>;` discarding a fallible call. The `write!`/
/// `writeln!` exemption for `String` receivers is encoded here directly:
/// `fmt::Write` into a `String` cannot fail, so discarding its `Result` is
/// the idiomatic pattern and needs no marker.
fn rule_discard(
    rel: &str,
    t: &[Token],
    i: usize,
    string_idents: &[String],
    out: &mut Vec<Violation>,
) {
    if !rule_enabled(RuleId::Discard, rel) {
        return;
    }
    if !(t[i].is_ident("let")
        && t.get(i + 1).is_some_and(|n| n.is_ident("_"))
        && t.get(i + 2).is_some_and(|n| n.is_punct('=')))
    {
        return;
    }
    // Scan the discarded expression up to the statement's `;`.
    let mut depth = 0i32;
    let mut j = i + 3;
    while let Some(tok) = t.get(j) {
        if tok.is_punct('(') || tok.is_punct('[') || tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') || tok.is_punct('}') {
            depth -= 1;
        } else if tok.is_punct(';') && depth <= 0 {
            break;
        } else if tok.kind == TokKind::Ident {
            let name = tok.text.as_str();
            // `write!(recv, …)` / `writeln!(recv, …)`.
            if (name == "write" || name == "writeln")
                && t.get(j + 1).is_some_and(|n| n.is_punct('!'))
                && t.get(j + 2).is_some_and(|n| n.is_punct('('))
            {
                let mut a = j + 3;
                while t
                    .get(a)
                    .is_some_and(|n| n.is_punct('&') || n.is_ident("mut"))
                {
                    a += 1;
                }
                let recv_is_string = t.get(a).is_some_and(|r| {
                    r.kind == TokKind::Ident && string_idents.iter().any(|s| s == &r.text)
                });
                if !recv_is_string {
                    violation(
                        out,
                        RuleId::Discard,
                        rel,
                        tok.line,
                        format!(
                            "`let _ = {name}!(…)` discards an I/O write result — \
                             only `fmt::Write` into a `String` is infallible"
                        ),
                    );
                }
                return;
            }
            let fallible =
                name.starts_with("try_") || name.ends_with("_costed") || name == "append";
            if fallible && (t.get(j + 1).is_some_and(|n| n.is_punct('('))) {
                violation(
                    out,
                    RuleId::Discard,
                    rel,
                    tok.line,
                    format!(
                        "`let _ =` discards the result of fallible `{name}(…)` — \
                         handle or propagate the error"
                    ),
                );
                return;
            }
        }
        j += 1;
    }
}

/// L1 — `std::fs` / `std::net` / `std::thread` outside the storage crate
/// and bench harness, in both path and `use std::{…}` group form.
fn rule_layering(rel: &str, t: &[Token], i: usize, out: &mut Vec<Violation>) {
    if !rule_enabled(RuleId::Layering, rel) {
        return;
    }
    let tok = &t[i];
    if !(tok.is_ident("std")
        && t.get(i + 1).is_some_and(|n| n.is_punct(':'))
        && t.get(i + 2).is_some_and(|n| n.is_punct(':')))
    {
        return;
    }
    let mut flag = |name: &str, line: u32| {
        // The sanctioned concurrency surface may name `thread` (and only
        // `thread`): the epoch handoff is built on `EpochCell`, and the
        // file is part of the audited serving layer.
        if name == "thread" && SANCTIONED_CONCURRENCY.contains(&rel) {
            return;
        }
        violation(
            out,
            RuleId::Layering,
            rel,
            line,
            format!(
                "`std::{name}` outside `crates/storage`/bench — real I/O and \
                 threads go through `ExecutionBackend`/`SimFs` only"
            ),
        );
    };
    if let Some(m) = t.get(i + 3) {
        if m.kind == TokKind::Ident && LAYERING_MODULES.contains(&m.text.as_str()) {
            flag(&m.text.clone(), m.line);
            return;
        }
        // `use std::{fs, io::Write}` group form.
        if m.is_punct('{') {
            let mut depth = 1i32;
            let mut j = i + 4;
            while let Some(g) = t.get(j) {
                if g.is_punct('{') {
                    depth += 1;
                } else if g.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth == 1
                    && g.kind == TokKind::Ident
                    && LAYERING_MODULES.contains(&g.text.as_str())
                {
                    flag(&g.text.clone(), g.line);
                }
                j += 1;
            }
        }
    }
}

/// Statement spans `(start, end, terminator)` over the token stream, split
/// at every `;`, `{` and `}` regardless of nesting. Struct literals and
/// match arms over-segment under this definition, which is safe for the
/// pattern checks built on it: adjacency-based matches stay intact, and a
/// split can only *narrow* what a statement is blamed for.
fn statements(t: &[Token]) -> Vec<(usize, usize, Option<char>)> {
    let mut out = Vec::new();
    let mut s = 0usize;
    for i in 0..=t.len() {
        let term = if i == t.len() {
            None
        } else if t[i].is_punct(';') {
            Some(';')
        } else if t[i].is_punct('{') {
            Some('{')
        } else if t[i].is_punct('}') {
            Some('}')
        } else {
            continue;
        };
        if i > s {
            out.push((s, i, term));
        }
        s = i + 1;
    }
    out
}

/// Does the statement window contain a `…enabled(…)` guard call?
fn has_enabled_call(t: &[Token], s: usize, e: usize) -> bool {
    (s..e).any(|k| {
        t[k].kind == TokKind::Ident
            && t[k].text.ends_with("enabled")
            && t.get(k + 1).is_some_and(|n| n.is_punct('('))
    })
}

/// Walk back from `i` to the start of its statement looking for `let`.
fn stmt_has_let(t: &[Token], i: usize) -> bool {
    let mut k = i;
    while k > 0 {
        let p = &t[k - 1];
        if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
            return false;
        }
        if p.is_ident("let") {
            return true;
        }
        k -= 1;
    }
    false
}

/// R2 — lock discipline. In the sanctioned concurrency files the *shape*
/// of guard usage is checked: no acquisition while another guard is held,
/// and no `execute`/`append` call under a held guard (a lock held across a
/// backend or journal call serializes the one path that must stay
/// concurrent, and is the classic deadlock feeder). Everywhere else in the
/// product crates, naming a `std::sync` primitive at all is the violation —
/// cross-thread state goes through `deepsea_storage::sync::EpochCell`.
fn rule_lock_discipline(
    rel: &str,
    t: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    if !R2_SANCTIONED.contains(&rel) {
        for i in 0..t.len() {
            if in_test(i) || t[i].kind != TokKind::Ident {
                continue;
            }
            let name = t[i].text.as_str();
            let is_primitive = SYNC_PRIMITIVES.contains(&name) || name.starts_with("Atomic");
            if !is_primitive {
                continue;
            }
            let qualified = i >= 3
                && t[i - 1].is_punct(':')
                && t[i - 2].is_punct(':')
                && (t[i - 3].is_ident("sync") || t[i - 3].is_ident("atomic"));
            let imported = in_use_stmt(t, i) && {
                let mut k = i;
                let mut saw_sync = false;
                while k > 0 {
                    let p = &t[k - 1];
                    if p.is_punct(';') || p.is_punct('}') {
                        break;
                    }
                    if p.is_ident("sync") {
                        saw_sync = true;
                        break;
                    }
                    k -= 1;
                }
                saw_sync
            };
            if qualified || imported {
                violation(
                    out,
                    RuleId::LockDiscipline,
                    rel,
                    t[i].line,
                    format!(
                        "`{name}` (std::sync primitive) outside the sanctioned \
                         concurrency files — cross-thread state goes through \
                         `EpochCell`, locks live in server/workers.rs and \
                         storage/sync.rs only"
                    ),
                );
            }
        }
        return;
    }
    // Sanctioned file: guard-shape scan. A `let`-bound guard lives until
    // its enclosing brace block closes; a temporary guard dies at the
    // statement's `;`.
    struct Guard {
        depth: i32,
        stmt: bool,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    for i in 0..t.len() {
        let tok = &t[i];
        if tok.is_punct('{') {
            depth += 1;
            continue;
        }
        if tok.is_punct('}') {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
            continue;
        }
        if tok.is_punct(';') {
            guards.retain(|g| !(g.stmt && g.depth >= depth));
            continue;
        }
        if in_test(i) || tok.kind != TokKind::Ident {
            continue;
        }
        let after_dot = i >= 1 && t[i - 1].is_punct('.');
        let called = t.get(i + 1).is_some_and(|n| n.is_punct('('));
        if !(after_dot && called) {
            continue;
        }
        if LOCK_ACQUIRE_METHODS.contains(&tok.text.as_str()) {
            if !guards.is_empty() {
                violation(
                    out,
                    RuleId::LockDiscipline,
                    rel,
                    tok.line,
                    format!(
                        "`.{}()` acquires a guard while another lock guard is \
                         already held — nested acquisition is a deadlock shape",
                        tok.text
                    ),
                );
            }
            guards.push(Guard {
                depth,
                stmt: !stmt_has_let(t, i),
            });
        } else if !guards.is_empty()
            && matches!(
                tok.text.as_str(),
                "execute" | "append" | "append_infallible"
            )
        {
            violation(
                out,
                RuleId::LockDiscipline,
                rel,
                tok.line,
                format!(
                    "`.{}()` called while a lock guard is held — backend and \
                     journal calls must not run under a guard's brace scope",
                    tok.text
                ),
            );
        }
    }
}

/// R3 — cost flow. The complement of "every charged simulated second lands
/// in a trace field": flag the places a cost component is visibly dropped —
/// a `_` in a tuple `let` binding whose RHS calls a cost source, a bare
/// statement discarding a cost source's whole result, and (in core) the
/// cost-dropping `SimFs::delete` convenience wrapper. Flows the scan cannot
/// follow (closures, re-bindings) are left to the dynamic suites —
/// conservatism here means no false alarms, not perfect coverage.
fn rule_cost_flow(
    rel: &str,
    t: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    let is_source =
        |s: &str| s.starts_with("try_") || s.ends_with("_costed") || s.starts_with("drain_retry_");
    // `self.fs.delete(…)` / `.fs().delete(…)` — the wrapper that maps the
    // cost away. Core-path callers must use `delete_costed` and account
    // the seconds.
    for i in 0..t.len() {
        if in_test(i) || !t[i].is_ident("delete") {
            continue;
        }
        if !t.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let via_field = i >= 2 && t[i - 1].is_punct('.') && t[i - 2].is_ident("fs");
        let via_method = i >= 4
            && t[i - 1].is_punct('.')
            && t[i - 2].is_punct(')')
            && t[i - 3].is_punct('(')
            && t[i - 4].is_ident("fs");
        if via_field || via_method {
            violation(
                out,
                RuleId::CostFlow,
                rel,
                t[i].line,
                "`SimFs::delete` drops the delete's simulated cost — call \
                 `delete_costed` and account the seconds in a trace field"
                    .to_string(),
            );
        }
    }
    for (s, e, term) in statements(t) {
        if in_test(s) {
            continue;
        }
        let stmt = &t[s..e];
        let source_at = |from: usize| {
            let mut depth = 0i32;
            for k in from..stmt.len() {
                let tok = &stmt[k];
                if tok.is_punct('(') || tok.is_punct('[') {
                    depth += 1;
                } else if tok.is_punct(')') || tok.is_punct(']') {
                    depth -= 1;
                } else if depth == 0
                    && tok.kind == TokKind::Ident
                    && is_source(&tok.text)
                    && stmt.get(k + 1).is_some_and(|n| n.is_punct('('))
                {
                    return Some(k);
                }
            }
            None
        };
        if stmt.first().is_some_and(|f| f.is_ident("let")) {
            // Tuple pattern with a discarded component.
            let Some(eq) = stmt.iter().position(|x| x.is_punct('=')) else {
                continue;
            };
            let pat = &stmt[1..eq];
            let has_tuple = pat.iter().any(|x| x.is_punct('('));
            let dropped: Vec<&str> = pat
                .iter()
                .filter(|x| x.kind == TokKind::Ident && x.text.starts_with('_'))
                .map(|x| x.text.as_str())
                .collect();
            // Bare `let _ =` is E1's; R3 owns partial tuple discards.
            if !has_tuple || dropped.is_empty() {
                continue;
            }
            let rhs_off = eq + 1;
            if let Some(k) = source_at(rhs_off) {
                let src_name = stmt[k].text.clone();
                violation(
                    out,
                    RuleId::CostFlow,
                    rel,
                    stmt[k].line,
                    format!(
                        "cost component `{}` from `{src_name}(…)` is discarded — \
                         flow it into a trace/accountant sink or return it",
                        dropped.join("`, `"),
                    ),
                );
            }
        } else {
            // Bare statement discarding the whole result.
            if term != Some(';') {
                continue;
            }
            let first = stmt.first().map(|x| x.text.as_str()).unwrap_or("");
            if matches!(
                first,
                "if" | "else" | "match" | "while" | "for" | "return" | "break" | "continue"
            ) {
                continue;
            }
            // Assignments and `?`-propagation consume the value.
            let mut depth = 0i32;
            let mut consumed = false;
            for x in stmt.iter() {
                if x.is_punct('(') || x.is_punct('[') {
                    depth += 1;
                } else if x.is_punct(')') || x.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && (x.is_punct('=') || x.is_punct('?')) {
                    consumed = true;
                }
            }
            if consumed {
                continue;
            }
            if let Some(k) = source_at(0) {
                violation(
                    out,
                    RuleId::CostFlow,
                    rel,
                    stmt[k].line,
                    format!(
                        "result of `{}(…)` carries simulated cost but this \
                         statement discards it",
                        stmt[k].text
                    ),
                );
            }
        }
    }
}

/// R4 — obs gating. Flags derived observability computation that runs even
/// when observability is off: `DecisionEvent` construction and
/// `format!`-built labels feeding Observer sinks, unless dominated by an
/// `enabled()`-family guard. Guard recognition covers the codebase's
/// idioms: early-return blocks (`if !obs.enabled() { return; }`),
/// guard-positive blocks (`if obs.events_enabled() { … }`), span-presence
/// checks (`.is_none()` / `.is_some()`), guard-local booleans
/// (`let spans_on = obs.spans_enabled();`), and statements that contain
/// the guard call themselves (`events_enabled().then(|| …)`).
fn rule_obs_gated(
    rel: &str,
    t: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    // Pass 1: guard-local idents, to a fixpoint (a binding whose statement
    // contains a guard call — or another guard-local — is itself a guard).
    let stmts = statements(t);
    let mut guard_locals: Vec<String> = Vec::new();
    loop {
        let mut changed = false;
        for &(s, e, _) in &stmts {
            if !t[s].is_ident("let") {
                continue;
            }
            let guardish = has_enabled_call(t, s, e)
                || (s..e).any(|k| {
                    t[k].kind == TokKind::Ident && guard_locals.iter().any(|g| g == &t[k].text)
                });
            if !guardish {
                continue;
            }
            let Some(eq) = (s..e).position(|k| t[k].is_punct('=')) else {
                continue;
            };
            for tok in &t[s + 1..s + eq] {
                if tok.kind == TokKind::Ident
                    && !matches!(tok.text.as_str(), "mut" | "Some" | "Ok" | "None" | "ref")
                    && !guard_locals.contains(&tok.text)
                {
                    guard_locals.push(tok.text.clone());
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let stmt_guard = |s: usize, e: usize| {
        has_enabled_call(t, s, e)
            || (s..e).any(|k| {
                let tok = &t[k];
                (tok.kind == TokKind::Ident && guard_locals.iter().any(|g| g == &tok.text))
                    || ((tok.is_ident("is_none") || tok.is_ident("is_some"))
                        && k >= 1
                        && t[k - 1].is_punct('.')
                        && t.get(k + 1).is_some_and(|n| n.is_punct('(')))
            })
    };
    let stmt_negated_guard = |s: usize, e: usize| {
        ((s..e).any(|k| t[k].is_punct('!')) && has_enabled_call(t, s, e))
            || (s..e)
                .any(|k| t[k].is_ident("is_none") && t.get(k + 1).is_some_and(|n| n.is_punct('(')))
    };

    // Pass 2: frame-tracked scan.
    struct Frame {
        guarded: bool,
        own_guard: bool,
        negated_guard: bool,
        saw_return: bool,
    }
    let mut frames = vec![Frame {
        guarded: false,
        own_guard: false,
        negated_guard: false,
        saw_return: false,
    }];
    // `format!`-built labels bound without a guard: (name, frame depth).
    let mut fmt_bound: Vec<(String, usize)> = Vec::new();
    let mut stmt_start = 0usize;
    let mut pending_else_guard = false;

    let mut eval_stmt =
        |s: usize, e: usize, frames: &Vec<Frame>, fmt_bound: &mut Vec<(String, usize)>| {
            if s >= e || in_test(s) {
                return;
            }
            let guarded = frames.last().is_some_and(|f| f.guarded) || stmt_guard(s, e);
            if guarded {
                return;
            }
            for k in s..e {
                if t[k].is_ident("DecisionEvent")
                    && t.get(k + 1).is_some_and(|n| n.is_punct(':'))
                    && t.get(k + 2).is_some_and(|n| n.is_punct(':'))
                {
                    violation(
                        out,
                        RuleId::ObsGated,
                        rel,
                        t[k].line,
                        "`DecisionEvent` constructed without an `enabled()`/\
                     `events_enabled()` guard — event assembly must be free \
                     when observability is off"
                            .to_string(),
                    );
                }
            }
            let fmt_at = (s..e).find(|&k| {
                t[k].is_ident("format") && t.get(k + 1).is_some_and(|n| n.is_punct('!'))
            });
            let sink_at = (s..e).find(|&k| {
                t[k].kind == TokKind::Ident
                    && OBS_SINKS.contains(&t[k].text.as_str())
                    && k >= 1
                    && t[k - 1].is_punct('.')
                    && t.get(k + 1).is_some_and(|n| n.is_punct('('))
            });
            match (fmt_at, sink_at) {
                (Some(f), Some(_)) => violation(
                    out,
                    RuleId::ObsGated,
                    rel,
                    t[f].line,
                    "`format!` builds an Observer label without an `enabled()` \
                 guard — label formatting must be free when observability \
                 is off"
                        .to_string(),
                ),
                (Some(_), None) if t[s].is_ident("let") => {
                    // Remember the unguarded binding; flag it if it later
                    // reaches a sink.
                    let mut k = s + 1;
                    if t.get(k).is_some_and(|x| x.is_ident("mut")) {
                        k += 1;
                    }
                    if let Some(n) = t.get(k).filter(|x| x.kind == TokKind::Ident) {
                        fmt_bound.push((n.text.clone(), frames.len()));
                    }
                }
                (None, Some(sk)) => {
                    if let Some((name, _)) = fmt_bound
                        .iter()
                        .find(|(n, _)| (s..e).any(|k| t[k].is_ident(n)))
                    {
                        violation(
                            out,
                            RuleId::ObsGated,
                            rel,
                            t[sk].line,
                            format!(
                                "Observer sink consumes label `{name}` built by an \
                             unguarded `format!` — gate the label computation \
                             with `enabled()`"
                            ),
                        );
                    }
                }
                _ => {}
            }
        };

    for i in 0..t.len() {
        let tok = &t[i];
        if tok.is_punct('{') {
            let sg = stmt_guard(stmt_start, i) || pending_else_guard;
            let neg = {
                let first = t.get(stmt_start).map(|x| x.text.as_str()).unwrap_or("");
                matches!(first, "if" | "else" | "while") && stmt_negated_guard(stmt_start, i)
            };
            eval_stmt(stmt_start, i, &frames, &mut fmt_bound);
            let parent = frames.last().is_some_and(|f| f.guarded);
            frames.push(Frame {
                guarded: parent || sg,
                own_guard: sg,
                negated_guard: neg,
                saw_return: false,
            });
            pending_else_guard = false;
            stmt_start = i + 1;
            continue;
        }
        if tok.is_punct('}') {
            eval_stmt(stmt_start, i, &frames, &mut fmt_bound);
            if frames.len() > 1 {
                let f = frames.pop().expect("invariant: len checked above");
                if f.negated_guard && f.saw_return {
                    if let Some(top) = frames.last_mut() {
                        top.guarded = true;
                    }
                }
                let d = frames.len();
                fmt_bound.retain(|&(_, fd)| fd <= d);
                if t.get(i + 1).is_some_and(|n| n.is_ident("else")) {
                    pending_else_guard = f.own_guard;
                }
            }
            stmt_start = i + 1;
            continue;
        }
        if tok.is_punct(';') {
            eval_stmt(stmt_start, i, &frames, &mut fmt_bound);
            stmt_start = i + 1;
            continue;
        }
        if tok.is_ident("return") {
            if let Some(top) = frames.last_mut() {
                top.saw_return = true;
            }
        }
    }
    eval_stmt(stmt_start, t.len(), &frames, &mut fmt_bound);
}

/// Apply a file's allow-markers to corpus-level violations (R1 runs outside
/// [`lint_source`], so its results pass through here before reporting).
/// Marker-rule (M0) diagnostics are `lint_source`'s job and are not
/// re-evaluated.
pub(crate) fn apply_markers(rel: &str, src: &str, v: &mut Vec<Violation>) {
    let all = lex(src);
    let (src_toks, comments): (Vec<Token>, Vec<Token>) = all
        .into_iter()
        .partition(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment));
    let (markers, _) = collect_markers(rel, &comments);
    retain_unsuppressed(&markers, &src_toks, v);
}
