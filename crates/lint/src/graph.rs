//! Best-effort cross-crate call-graph over the item parse ([`crate::items`]),
//! plus the one rule that needs whole-corpus reachability: **R1
//! `read_path_purity`**.
//!
//! Resolution strategy (documented in DESIGN.md §10):
//!
//! - **Free/path calls** resolve by path suffix: the last segment must match
//!   the fn name; a penultimate segment, when present, must match the
//!   candidate's owner type, enclosing module, file stem or crate.
//! - **Method calls** resolve by name plus a receiver-type hint recovered
//!   from `self`, `self.field` (through struct field types), params, or
//!   `let` annotations. A hint that names a trait expands to every impl of
//!   that trait.
//! - **Ambiguity is resolved conservatively for the corpus rules**: an
//!   unhinted method name resolves only when the corpus has exactly one
//!   candidate and the name is not a ubiquitous std method; everything else
//!   is recorded as unresolved rather than guessed. The `--graph-out`
//!   export carries the unresolved count so the blind spot is measurable.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{Callee, FileItems, FnItem, Hint, Receiver};
use crate::rules::{RuleId, Violation};

/// Method names so ubiquitous on std types that an unhinted unique-name
/// match would be noise, not signal.
const COMMON_METHODS: [&str; 96] = [
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "clone",
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "drain",
    "retain",
    "entry",
    "clear",
    "extend",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "dedup",
    "first",
    "last",
    "next",
    "peek",
    "map",
    "and_then",
    "filter",
    "find",
    "position",
    "any",
    "all",
    "fold",
    "sum",
    "count",
    "collect",
    "chain",
    "zip",
    "rev",
    "take",
    "skip",
    "flat_map",
    "flatten",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_deref",
    "to_string",
    "to_owned",
    "to_vec",
    "into",
    "from",
    "parse",
    "split",
    "join",
    "trim",
    "starts_with",
    "ends_with",
    "replace",
    "chars",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "min",
    "max",
    "abs",
    "floor",
    "round",
    "clamp",
    "copied",
    "cloned",
    "then",
    "swap",
    "truncate",
    "windows",
    "max_by_key",
    "min_by_key",
];

/// Types holding shared catalog/registry/pool state: a `&mut self` method
/// on one of these is a mutation the read path must never reach.
const MUT_STATE_TYPES: [&str; 8] = [
    "ViewRegistry",
    "ViewMeta",
    "PartitionState",
    "Catalog",
    "PoolAccountant",
    "SimFs",
    "DeepSea",
    "Journal",
];

/// Journal methods that commit durable state even through `&self`.
const JOURNAL_APPENDS: [&str; 3] = ["append", "append_infallible", "install_snapshot"];

/// The resolved call graph.
pub struct CallGraph {
    /// Every fn item, flattened across files; indices are node ids.
    pub fns: Vec<FnItem>,
    /// Resolved edges per fn: `(callee index, call line)`.
    pub adj: Vec<Vec<(usize, u32)>>,
    /// Method calls the resolver declined to guess (no/ambiguous hint).
    pub unresolved_methods: usize,
    fields: BTreeMap<String, BTreeMap<String, String>>,
    trait_impls: BTreeMap<String, Vec<String>>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_owner_name: BTreeMap<(String, String), Vec<usize>>,
}

impl CallGraph {
    /// Build the graph over a parsed corpus.
    pub fn build(files: &[FileItems]) -> CallGraph {
        let mut fns: Vec<FnItem> = Vec::new();
        let mut fields: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
        let mut trait_impls: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for f in files {
            fns.extend(f.fns.iter().cloned());
            for s in &f.structs {
                let e = fields.entry(s.name.clone()).or_default();
                for (n, t) in &s.fields {
                    e.insert(n.clone(), t.clone());
                }
            }
            for im in &f.impls {
                if let Some(tr) = &im.trait_name {
                    let owners = trait_impls.entry(tr.clone()).or_default();
                    if !owners.contains(&im.owner) {
                        owners.push(im.owner.clone());
                    }
                }
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_owner_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
            if let Some(o) = &f.owner {
                by_owner_name
                    .entry((o.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
            }
        }
        let mut g = CallGraph {
            adj: vec![Vec::new(); fns.len()],
            fns,
            unresolved_methods: 0,
            fields,
            trait_impls,
            by_name,
            by_owner_name,
        };
        for i in 0..g.fns.len() {
            let mut edges: Vec<(usize, u32)> = Vec::new();
            let calls = g.fns[i].calls.clone();
            for c in &calls {
                for to in g.resolve(i, &c.callee) {
                    if !edges.contains(&(to, c.line)) {
                        edges.push((to, c.line));
                    }
                }
            }
            g.adj[i] = edges;
        }
        g
    }

    /// Resolve one call from `caller` to candidate node indices.
    fn resolve(&mut self, caller: usize, callee: &Callee) -> Vec<usize> {
        match callee {
            Callee::Method { name, hint } => {
                let ty = match hint {
                    Hint::Type(t) => Some(t.clone()),
                    Hint::SelfField(f) => self.fns[caller]
                        .owner
                        .as_ref()
                        .and_then(|o| self.fields.get(o))
                        .and_then(|fs| fs.get(f))
                        .cloned(),
                    Hint::None => None,
                };
                match ty {
                    Some(t) => {
                        let direct = self
                            .by_owner_name
                            .get(&(t.clone(), name.clone()))
                            .cloned()
                            .unwrap_or_default();
                        if !direct.is_empty() {
                            return direct;
                        }
                        // A trait hint expands to every implementing type.
                        if let Some(owners) = self.trait_impls.get(&t).cloned() {
                            let mut out = Vec::new();
                            for o in owners {
                                if let Some(c) = self.by_owner_name.get(&(o, name.clone())) {
                                    out.extend(c.iter().copied());
                                }
                            }
                            if !out.is_empty() {
                                return out;
                            }
                        }
                        // Hinted but unknown: a std/external type, not a guess.
                        Vec::new()
                    }
                    None => {
                        if COMMON_METHODS.contains(&name.as_str()) {
                            return Vec::new();
                        }
                        let cands: Vec<usize> = self
                            .by_name
                            .get(name)
                            .map(|v| {
                                v.iter()
                                    .copied()
                                    .filter(|&i| self.fns[i].owner.is_some())
                                    .collect()
                            })
                            .unwrap_or_default();
                        match cands.len() {
                            0 => Vec::new(),
                            1 => cands,
                            _ => {
                                self.unresolved_methods += 1;
                                Vec::new()
                            }
                        }
                    }
                }
            }
            Callee::Path(segs) => {
                let name = segs.last().cloned().unwrap_or_default();
                let cands: Vec<usize> = self.by_name.get(&name).cloned().unwrap_or_default();
                if cands.is_empty() {
                    return Vec::new();
                }
                if segs.len() >= 2 {
                    let qual = &segs[segs.len() - 2];
                    // `Type::assoc` / `module::f` — the qualifier must match
                    // the candidate's owner, module, file stem, or crate.
                    return cands
                        .into_iter()
                        .filter(|&i| {
                            let f = &self.fns[i];
                            f.owner.as_deref() == Some(qual.as_str())
                                || f.module.iter().any(|m| m == qual)
                                || file_stem(&f.file) == qual.as_str()
                                || crate_name(&f.file) == qual.as_str()
                                || f.file.contains(&format!("/{qual}/"))
                                || f.file.ends_with(&format!("/{qual}.rs"))
                        })
                        .collect();
                }
                // Bare `f(…)`: free fns only; prefer same file, then same
                // crate, before accepting cross-crate candidates.
                let free: Vec<usize> = cands
                    .into_iter()
                    .filter(|&i| self.fns[i].owner.is_none())
                    .collect();
                let caller_file = self.fns[caller].file.clone();
                let same_file: Vec<usize> = free
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].file == caller_file)
                    .collect();
                if !same_file.is_empty() {
                    return same_file;
                }
                let caller_crate = crate_name(&caller_file).to_string();
                let same_crate: Vec<usize> = free
                    .iter()
                    .copied()
                    .filter(|&i| crate_name(&self.fns[i].file) == caller_crate)
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
                free
            }
        }
    }

    /// Is this fn an R1 root — an entry into the snapshot read path?
    fn is_read_root(&self, i: usize) -> bool {
        let f = &self.fns[i];
        if f.is_test {
            return false;
        }
        f.file.contains("driver/read_path")
            || f.owner.as_deref() == Some("ReadSnapshot")
            || f.params.iter().any(|(_, t)| t == "ReadSnapshot")
    }

    /// If calling into this fn from the read path is forbidden, say why.
    fn forbidden_reason(&self, i: usize) -> Option<String> {
        let f = &self.fns[i];
        if f.is_test {
            return None;
        }
        if f.file.contains("driver/write_path") {
            return Some(format!(
                "`{}` is a write-path function ({})",
                qualified(f),
                f.file
            ));
        }
        if let Some(o) = f.owner.as_deref() {
            if f.receiver == Receiver::RefMut && MUT_STATE_TYPES.contains(&o) {
                return Some(format!(
                    "`{}` takes `&mut self` on shared catalog state",
                    qualified(f)
                ));
            }
            if o == "Journal" && JOURNAL_APPENDS.contains(&f.name.as_str()) {
                return Some(format!("`{}` commits durable journal state", qualified(f)));
            }
        }
        None
    }

    /// **R1 `read_path_purity`** — BFS from every read-path root; any edge
    /// into a forbidden fn is a violation at the call site.
    pub fn read_path_purity_violations(&self) -> Vec<Violation> {
        let mut out: Vec<Violation> = Vec::new();
        let mut seen_site: BTreeSet<(String, u32, String)> = BTreeSet::new();
        let mut visited = vec![false; self.fns.len()];
        let mut queue: Vec<(usize, usize)> = Vec::new(); // (node, root)
        for (i, seen) in visited.iter_mut().enumerate() {
            if self.is_read_root(i) && self.forbidden_reason(i).is_none() {
                *seen = true;
                queue.push((i, i));
            }
        }
        let mut qi = 0usize;
        while qi < queue.len() {
            let (node, root) = queue[qi];
            qi += 1;
            for &(to, line) in &self.adj[node] {
                if self.fns[to].is_test {
                    continue;
                }
                if let Some(reason) = self.forbidden_reason(to) {
                    let caller = &self.fns[node];
                    let key = (caller.file.clone(), line, qualified(&self.fns[to]));
                    if seen_site.insert(key) {
                        out.push(Violation {
                            rule: RuleId::ReadPurity,
                            file: caller.file.clone(),
                            line,
                            message: format!(
                                "read path is impure: `{}` (reachable from read-path \
                                 entry `{}`) calls {reason}",
                                qualified(caller),
                                qualified(&self.fns[root]),
                            ),
                        });
                    }
                    continue;
                }
                if !visited[to] {
                    visited[to] = true;
                    queue.push((to, root));
                }
            }
        }
        out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        out
    }

    /// Serialize the graph as JSON for `--graph-out`: node table with
    /// resolved edges, plus the unresolved-call count. Hand-rolled through
    /// a `String` so the export needs no serializer support.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"fns\": [\n");
        for (i, f) in self.fns.iter().enumerate() {
            let recv = match f.receiver {
                Receiver::Free => "free",
                Receiver::Ref => "ref",
                Receiver::RefMut => "ref_mut",
                Receiver::Owned => "owned",
            };
            s.push_str(&format!(
                "    {{\"id\": {i}, \"name\": {}, \"owner\": {}, \"file\": {}, \
                 \"line\": {}, \"receiver\": \"{recv}\", \"is_test\": {}, \
                 \"read_root\": {}, \"forbidden\": {}, \"calls\": [",
                json_str(&f.name),
                f.owner.as_deref().map_or("null".to_string(), json_str),
                json_str(&f.file),
                f.line,
                f.is_test,
                self.is_read_root(i),
                self.forbidden_reason(i).is_some(),
            ));
            for (k, &(to, line)) in self.adj[i].iter().enumerate() {
                if k > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("{{\"to\": {to}, \"line\": {line}}}"));
            }
            s.push_str("]}");
            s.push_str(if i + 1 < self.fns.len() { ",\n" } else { "\n" });
        }
        s.push_str(&format!(
            "  ],\n  \"unresolved_method_calls\": {}\n}}\n",
            self.unresolved_methods
        ));
        s
    }
}

/// `Owner::name` or bare `name`.
fn qualified(f: &FnItem) -> String {
    match &f.owner {
        Some(o) => format!("{o}::{}", f.name),
        None => f.name.clone(),
    }
}

fn file_stem(rel: &str) -> &str {
    rel.rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("")
}

fn crate_name(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse;
    use crate::rules::SourceFile;

    fn corpus(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<FileItems> = files
            .iter()
            .map(|(rel, src)| parse(&SourceFile::new(rel, src)))
            .collect();
        CallGraph::build(&parsed)
    }

    const READ: &str = "crates/core/src/driver/read_path/mod.rs";
    const WRITE: &str = "crates/core/src/driver/write_path/mod.rs";

    #[test]
    fn read_path_calling_mut_registry_is_flagged() {
        let g = corpus(&[
            (
                READ,
                "impl ReadView { fn answer(&self, registry: &ViewRegistry) {\n\
                 registry.quarantine(1);\n} }",
            ),
            (
                "crates/core/src/registry.rs",
                "impl ViewRegistry { pub fn quarantine(&mut self, v: u64) {} }",
            ),
        ]);
        let v = g.read_path_purity_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].file, READ);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("quarantine"), "{}", v[0].message);
    }

    #[test]
    fn transitive_reach_into_write_path_is_flagged() {
        let g = corpus(&[
            (
                READ,
                "impl ReadView { fn answer(&self) { helper_step(); } }",
            ),
            (
                "crates/core/src/driver/mod.rs",
                "pub fn helper_step() { crate::write_path::commit_now(); }",
            ),
            (WRITE, "pub fn commit_now() {}"),
        ]);
        let v = g.read_path_purity_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].file, "crates/core/src/driver/mod.rs");
        assert!(v[0].message.contains("write-path"), "{}", v[0].message);
    }

    #[test]
    fn read_path_calling_shared_ref_methods_is_clean() {
        let g = corpus(&[
            (
                READ,
                "impl ReadView { fn answer(&self, registry: &ViewRegistry) {\n\
                 registry.view(1); self.trace();\n} fn trace(&self) {} }",
            ),
            (
                "crates/core/src/registry.rs",
                "impl ViewRegistry { pub fn view(&self, v: u64) {} \
                 pub fn quarantine(&mut self, v: u64) {} }",
            ),
        ]);
        assert!(g.read_path_purity_violations().is_empty());
    }

    #[test]
    fn ambiguous_unhinted_method_does_not_edge() {
        // Two `refresh` methods exist; an unhinted receiver must not guess
        // either (and must count as unresolved).
        let g = corpus(&[
            (
                READ,
                "impl ReadView { fn answer(&self, x: &UnknownExternal) { x.refresh(); } }",
            ),
            (
                "crates/core/src/registry.rs",
                "impl ViewRegistry { pub fn refresh(&mut self) {} }\n\
                 impl Catalog { pub fn refresh(&mut self) {} }",
            ),
        ]);
        // `x` is hinted to UnknownExternal (not in corpus) — no edge, and no
        // false violation.
        assert!(g.read_path_purity_violations().is_empty());

        let g2 = corpus(&[
            (
                READ,
                "impl ReadView { fn answer(&self) { let x = make(); x.refresh(); } }",
            ),
            (
                "crates/core/src/registry.rs",
                "impl ViewRegistry { pub fn refresh(&mut self) {} }\n\
                 impl Catalog { pub fn refresh(&mut self) {} }",
            ),
        ]);
        assert!(g2.read_path_purity_violations().is_empty());
        assert_eq!(g2.unresolved_methods, 1);
    }

    #[test]
    fn unique_unhinted_method_resolves() {
        // Exactly one candidate and an uncommon name: the conservative
        // resolver still takes the only possible target (no false negative).
        let g = corpus(&[
            (
                READ,
                "impl ReadView { fn answer(&self) { let x = make(); x.quarantine_view(); } }",
            ),
            (
                "crates/core/src/registry.rs",
                "impl ViewRegistry { pub fn quarantine_view(&mut self) {} }",
            ),
        ]);
        assert_eq!(g.read_path_purity_violations().len(), 1);
    }

    #[test]
    fn self_field_hint_resolves_through_struct_fields() {
        let g = corpus(&[
            (
                READ,
                "struct ReadView { journal: Arc<Journal<R, S>> }\n\
                 impl ReadView { fn answer(&self) { self.journal.append(1); } }",
            ),
            (
                "crates/storage/src/journal.rs",
                "impl Journal { pub fn append(&self, r: u64) {} }",
            ),
        ]);
        let v = g.read_path_purity_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("journal"), "{}", v[0].message);
    }

    #[test]
    fn snapshot_param_fns_are_roots() {
        let g = corpus(&[
            (
                "crates/core/src/server/mod.rs",
                "pub fn serve(snap: &ReadSnapshot) { snap.mutate_all(); }\n\
                 impl ReadSnapshot { pub fn mutate_all(&self) { crate::write_path::commit(); } }",
            ),
            ("crates/core/src/snapshot.rs", "pub struct ReadSnapshot {}"),
            (WRITE, "pub fn commit() {}"),
        ]);
        let v = g.read_path_purity_violations();
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn test_fns_are_neither_roots_nor_targets() {
        let g = corpus(&[
            (
                READ,
                "#[cfg(test)]\nmod tests {\n fn t(r: &mut ViewRegistry) { r.track(1); } }\n\
             impl ReadView { fn answer(&self) {} }",
            ),
            (
                "crates/core/src/registry.rs",
                "impl ViewRegistry { pub fn track(&mut self, v: u64) {} }",
            ),
        ]);
        assert!(g.read_path_purity_violations().is_empty());
    }

    #[test]
    fn graph_json_exports_nodes_and_edges() {
        let g = corpus(&[(
            READ,
            "impl ReadView { fn a(&self) { self.b(); } fn b(&self) {} }",
        )]);
        let j = g.to_json();
        assert!(j.contains("\"name\": \"a\""));
        assert!(j.contains("\"read_root\": true"));
        assert!(j.contains("\"to\": 1"));
        assert!(j.contains("unresolved_method_calls"));
    }
}
