//! Fixture self-tests for the rule catalog: every rule gets a positive case
//! (the violation is caught, at the right line), a negative case (idiomatic
//! code passes), and an allow-marker case (a justified marker suppresses
//! exactly the marked site).

use deepsea_lint::{lint_source, RuleId, Violation};

/// Lint `src` as if it lived at `path`, returning `(rule, line)` pairs.
fn at(path: &str, src: &str) -> Vec<(RuleId, u32)> {
    lint_source(path, src)
        .into_iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

fn assert_clean(path: &str, src: &str) {
    let vs: Vec<Violation> = lint_source(path, src);
    assert!(vs.is_empty(), "expected clean, got: {vs:?}");
}

const CORE: &str = "crates/core/src/fixture.rs";

// ---------------------------------------------------------------- D1 hash_iter

#[test]
fn d1_flags_binding_and_iteration() {
    let src = "use std::collections::HashMap;\n\
               fn f(m: &HashMap<u32, u32>) -> usize {\n\
               \x20   m.iter().count()\n\
               }\n";
    let got = at(CORE, src);
    // Line 1 (`use`) is exempt; line 2 flags the binding, line 3 the iteration.
    assert_eq!(got, vec![(RuleId::HashIter, 2), (RuleId::HashIter, 3)]);
}

#[test]
fn d1_flags_for_loop_over_hash_binding() {
    // The ident tracker follows unqualified type annotations (`set: &HashSet`,
    // the idiomatic form after a `use`); fully-qualified paths fall back to
    // being caught at the binding site only.
    let src = "use std::collections::HashSet;\n\
               fn f(set: &HashSet<u32>) {\n\
               \x20   for _x in set {\n\
               \x20   }\n\
               }\n";
    let got = at(CORE, src);
    assert!(
        got.contains(&(RuleId::HashIter, 3)),
        "for-loop over hash binding not flagged: {got:?}"
    );
}

#[test]
fn d1_annotated_constructor_reports_once() {
    let src = "fn f() {\n\
               \x20   let m: std::collections::HashMap<u32, u32> = HashMap::new();\n\
               \x20   m.insert(1, 2);\n\
               }\n";
    let got = at(CORE, src);
    // One diagnostic for the binding, not a second for the constructor;
    // `insert` is a point operation and never flagged.
    assert_eq!(got, vec![(RuleId::HashIter, 2)]);
}

#[test]
fn d1_ignores_btree_and_point_lookups() {
    assert_clean(
        CORE,
        "use std::collections::BTreeMap;\n\
         fn f(m: &BTreeMap<u32, u32>) -> usize {\n\
         \x20   m.iter().count()\n\
         }\n",
    );
}

#[test]
fn d1_scoped_to_decision_crates() {
    let src = "fn f(m: &std::collections::HashMap<u32, u32>) -> usize {\n\
               \x20   m.iter().count()\n\
               }\n";
    assert_clean("crates/obs/src/fixture.rs", src);
    assert_clean("crates/lint/src/fixture.rs", src);
    assert!(!at("crates/workload/src/fixture.rs", src).is_empty());
}

#[test]
fn d1_allow_marker_suppresses_marked_line_only() {
    let src = "fn f(m: &std::collections::HashMap<u32, u32>) -> usize {\n\
               \x20   // deepsea-lint: allow(hash_iter) -- fixture: order-free count\n\
               \x20   m.iter().count()\n\
               }\n";
    let got = at(CORE, src);
    // The binding on line 1 still violates; the iteration on line 3 is allowed.
    assert_eq!(got, vec![(RuleId::HashIter, 1)]);
}

#[test]
fn d1_marker_spanning_comment_lines_still_covers_next_source_line() {
    // A justification wrapped over two comment lines must still cover the
    // first *source* line after the marker (comments are not source tokens).
    let src = "struct S {\n\
               \x20   // deepsea-lint: allow(hash_iter) -- point-lookup index,\n\
               \x20   // never iterated (fixture)\n\
               \x20   by_key: std::collections::HashMap<u32, u32>,\n\
               }\n";
    assert_clean(CORE, src);
}

// --------------------------------------------------------------- D2 wall_clock

#[test]
fn d2_flags_instant_and_system_time() {
    let src = "fn f() {\n\
               \x20   let _t = std::time::Instant::now();\n\
               \x20   let _s = std::time::SystemTime::now();\n\
               }\n";
    let got = at(CORE, src);
    assert_eq!(got, vec![(RuleId::WallClock, 2), (RuleId::WallClock, 3)]);
}

#[test]
fn d2_flags_ambient_entropy() {
    let got = at(CORE, "fn f() { let _r = thread_rng(); }\n");
    assert_eq!(got, vec![(RuleId::WallClock, 1)]);
}

#[test]
fn d2_exempts_criterion_shim_only() {
    let src = "fn f() { let _t = std::time::Instant::now(); }\n";
    assert_clean("crates/criterion/src/lib.rs", src);
    assert!(!at("crates/rand/src/lib.rs", src).is_empty());
}

#[test]
fn d2_allow_marker() {
    assert_clean(
        CORE,
        "// deepsea-lint: allow(wall_clock) -- fixture: display-only timestamp\n\
         fn f() { let _t = std::time::Instant::now(); }\n",
    );
}

// -------------------------------------------------------------------- P1 panic

#[test]
fn p1_flags_unwrap_and_panic_macros() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               \x20   if x.is_none() { panic!(\"boom\"); }\n\
               \x20   x.unwrap()\n\
               }\n";
    let got = at(CORE, src);
    assert_eq!(got, vec![(RuleId::Panic, 2), (RuleId::Panic, 3)]);
}

#[test]
fn p1_flags_unreachable_todo_unimplemented() {
    let src = "fn f(k: u32) {\n\
               \x20   match k {\n\
               \x20       0 => todo!(),\n\
               \x20       1 => unimplemented!(),\n\
               \x20       _ => unreachable!(),\n\
               \x20   }\n\
               }\n";
    let got = at(CORE, src);
    assert_eq!(
        got,
        vec![(RuleId::Panic, 3), (RuleId::Panic, 4), (RuleId::Panic, 5)]
    );
}

#[test]
fn p1_expect_requires_invariant_prefix() {
    // A bare reason is not enough…
    let got = at(
        CORE,
        "fn f(x: Option<u32>) -> u32 { x.expect(\"tracked\") }\n",
    );
    assert_eq!(got, vec![(RuleId::Panic, 1)]);
    // …a non-literal message is not enough…
    let got = at(
        CORE,
        "fn f(x: Option<u32>, m: &str) -> u32 { x.expect(m) }\n",
    );
    assert_eq!(got, vec![(RuleId::Panic, 1)]);
    // …the sanctioned escape is a literal documenting the invariant.
    assert_clean(
        CORE,
        "fn f(x: Option<u32>) -> u32 { x.expect(\"invariant: tracked above\") }\n",
    );
}

#[test]
fn p1_exempts_test_code() {
    // `#[test]` item span.
    assert_clean(
        CORE,
        "#[test]\n\
         fn t() { Some(1).unwrap(); }\n",
    );
    // `#[cfg(test)]` module span.
    assert_clean(
        CORE,
        "#[cfg(test)]\n\
         mod tests {\n\
         \x20   fn helper(x: Option<u32>) -> u32 { x.unwrap() }\n\
         }\n",
    );
    // Whole-file scopes: tests/ dirs and `tests.rs` module files (their
    // `#[cfg(test)]` lives on the `mod` declaration in the parent file).
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_clean("crates/core/tests/golden.rs", src);
    assert_clean("crates/core/src/driver/tests.rs", src);
    assert_clean("crates/core/src/driver/evict_tests.rs", src);
    assert_clean("crates/core/benches/bench.rs", src);
}

#[test]
fn p1_allow_marker() {
    assert_clean(
        CORE,
        "// deepsea-lint: allow(panic) -- fixture: documented poison path\n\
         fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
}

// ----------------------------------------------------------------- L1 layering

#[test]
fn l1_flags_direct_io_modules() {
    let src = "use std::fs;\n\
               fn f() {\n\
               \x20   std::thread::spawn(|| {});\n\
               }\n";
    let got = at(CORE, src);
    assert_eq!(got, vec![(RuleId::Layering, 1), (RuleId::Layering, 3)]);
}

#[test]
fn l1_flags_use_group_form() {
    let got = at(CORE, "use std::{fs, io::Read, net};\n");
    assert_eq!(got, vec![(RuleId::Layering, 1), (RuleId::Layering, 1)]);
}

#[test]
fn l1_exempts_storage_and_harness_crates() {
    let src = "use std::fs;\n";
    assert_clean("crates/storage/src/fs.rs", src);
    assert_clean("crates/lint/src/lib.rs", src);
    assert_clean("crates/criterion/src/lib.rs", src);
    // `std::io` alone is fine anywhere: only fs/net/thread are walled off.
    assert_clean(CORE, "use std::io::Read;\n");
}

#[test]
fn l1_sanctioned_concurrency_allows_thread_only() {
    const WORKERS: &str = "crates/core/src/server/workers.rs";
    // The sanctioned serving-layer file may name std::thread, in both
    // path and use-group form.
    assert_clean(WORKERS, "fn f() { std::thread::scope(|_s| {}); }\n");
    assert_clean(WORKERS, "use std::{thread, sync::mpsc};\n");
    // fs/net stay forbidden even there.
    let got = at(
        WORKERS,
        "use std::fs;\nfn f() { std::thread::yield_now(); }\n",
    );
    assert_eq!(got, vec![(RuleId::Layering, 1)]);
    let got = at(WORKERS, "use std::{thread, net};\n");
    assert_eq!(got, vec![(RuleId::Layering, 1)]);
}

#[test]
fn l1_thread_stays_forbidden_outside_sanctioned_surface() {
    // A neighboring server file does not inherit the allowance…
    let got = at(
        "crates/core/src/server/mod.rs",
        "fn f() { std::thread::spawn(|| {}); }\n",
    );
    assert_eq!(got, vec![(RuleId::Layering, 1)]);
    // …and neither does any other core/engine file.
    let got = at(CORE, "use std::thread;\n");
    assert_eq!(got, vec![(RuleId::Layering, 1)]);
    let got = at("crates/engine/src/backend.rs", "use std::{thread};\n");
    assert_eq!(got, vec![(RuleId::Layering, 1)]);
}

#[test]
fn l1_allow_marker() {
    assert_clean(
        CORE,
        "// deepsea-lint: allow(layering) -- fixture: documented boundary hole\n\
         use std::fs;\n",
    );
    assert_clean(
        CORE,
        "// deepsea-lint: allow(layering) -- fixture: documented hole\n\
         use std::sync::Mutex;\n",
    );
}

#[test]
fn l1_flags_sync_primitives_outside_sanctioned_files() {
    // Qualified path form and `use`-import form are both caught.
    let got = at(CORE, "fn f() { let m = std::sync::Mutex::new(0u32); }\n");
    assert_eq!(got, vec![(RuleId::Layering, 1)]);
    let got = at(CORE, "use std::sync::RwLock;\n");
    assert_eq!(got, vec![(RuleId::Layering, 1)]);
    let got = at(
        "crates/engine/src/fixture.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};\n",
    );
    assert!(
        got.iter().all(|&(r, _)| r == RuleId::Layering) && !got.is_empty(),
        "atomics are primitives too: {got:?}"
    );
    // A path headed by an imported `sync` or `atomic` module is read as
    // one below `std::sync`; a crate's own `sync` module names no primitive.
    let got = at(
        CORE,
        "use std::sync;\nfn f() { let m = sync::Mutex::new(0u32); }\n",
    );
    assert_eq!(got, vec![(RuleId::Layering, 2)]);
    assert_clean(CORE, "pub use sync::{EpochCell, Stamp};\n");
    assert_clean(CORE, "fn f(c: &deepsea_storage::sync::EpochCell<u32>) {}\n");
    // Each primitive on a qualified path reports: the `atomic` module and
    // the type below it.
    let got = at(
        CORE,
        "fn f() -> u64 { std::sync::atomic::AtomicU64::new(0).into_inner() }\n",
    );
    assert_eq!(got, vec![(RuleId::Layering, 1), (RuleId::Layering, 1)]);
}

#[test]
fn l1_allows_arc_and_nonsync_idents() {
    // `Arc` is shared ownership, not a lock; a local type that happens to
    // be named `Mutex` without a sync qualifier/import is out of scope.
    assert_clean(CORE, "use std::sync::Arc;\n");
    assert_clean(CORE, "fn f(m: &my::Mutex) { m.poke(); }\n");
}

#[test]
fn l1_walks_nested_groups_and_renames() {
    // One path scanner: `std::{…}` groups nest, each walled name is
    // reported at its own line, and `as` renames do not end the group.
    let src = "use std::{\n\
               \x20   io::Read,\n\
               \x20   sync::{Arc, Mutex as Lock},\n\
               \x20   thread,\n\
               };\n";
    assert_eq!(
        at(CORE, src),
        vec![(RuleId::Layering, 3), (RuleId::Layering, 4)]
    );
    // `MutexGuard` names no primitive of its own; `std::sync` alone is the
    // module, not a primitive.
    assert_clean(
        CORE,
        "fn f(g: std::sync::MutexGuard<'_, u32>) {}\nuse std::sync;\n",
    );
}

#[test]
fn l1_sync_row_covers_storage_but_not_the_root_facade() {
    // The storage crate may do real I/O, but locks stay in its sync.rs.
    assert_clean("crates/storage/src/fs.rs", "use std::fs;\n");
    assert_eq!(
        at("crates/storage/src/fs.rs", "use std::sync::Mutex;\n"),
        vec![(RuleId::Layering, 1)]
    );
    assert_clean(
        "crates/storage/src/sync.rs",
        "use std::sync::{Arc, RwLock};\n",
    );
    assert_clean("src/lib.rs", "use std::sync::Mutex;\n");
    assert_eq!(
        at("src/lib.rs", "use std::fs;\n"),
        vec![(RuleId::Layering, 1)]
    );
}

// ------------------------------------------------------------------- M0 marker

#[test]
fn m0_flags_unjustified_marker() {
    let got = at(CORE, "// deepsea-lint: allow(hash_iter)\nfn f() {}\n");
    assert_eq!(got, vec![(RuleId::Marker, 1)]);
}

#[test]
fn m0_flags_unknown_rule() {
    let got = at(
        CORE,
        "// deepsea-lint: allow(no_such_rule) -- because\nfn f() {}\n",
    );
    assert_eq!(got, vec![(RuleId::Marker, 1)]);
}

#[test]
fn m0_flags_the_slugs_of_removed_rules() {
    // No aliases: a marker naming a rule that no longer exists is unknown.
    for slug in ["discard", "read_path_purity"] {
        let src = format!(
            "// deepsea-lint: allow({slug}) -- fixture\n\
             fn f(j: &Journal) {{ let _ = j.append(1); }}\n"
        );
        assert_eq!(
            at(CORE, &src),
            vec![(RuleId::Marker, 1), (RuleId::CostFlow, 2)],
            "{slug}"
        );
    }
}

#[test]
fn every_rule_keeps_its_code_and_slug() {
    let codes: Vec<&str> = RuleId::all().iter().map(|r| r.code()).collect();
    assert_eq!(codes, ["D1", "D2", "P1", "L1", "M0", "R2", "R3", "R4"]);
    for rule in RuleId::all() {
        let parsed = RuleId::from_slug(rule.slug());
        let expected = (rule != RuleId::Marker).then_some(rule);
        assert_eq!(parsed, expected, "{}", rule.slug());
    }
}

#[test]
fn m0_flags_malformed_shapes() {
    for src in [
        "// deepsea-lint: disallow(panic) -- nope\n",
        "// deepsea-lint: allow(panic -- unterminated\n",
        "// deepsea-lint: allow() -- empty\n",
        "// deepsea-lint: allow(panic) --\n",
    ] {
        let got = at(CORE, src);
        assert_eq!(got, vec![(RuleId::Marker, 1)], "not flagged: {src:?}");
    }
}

#[test]
fn m0_cannot_be_self_suppressed() {
    // An unjustified marker stays a violation even when another marker
    // sits above it; `marker` is not an allowable slug.
    let src = "// deepsea-lint: allow(marker) -- nice try\n\
               // deepsea-lint: allow(hash_iter)\n\
               fn f() {}\n";
    let got = at(CORE, src);
    assert_eq!(got, vec![(RuleId::Marker, 1), (RuleId::Marker, 2)]);
}

#[test]
fn m0_multi_rule_marker_suppresses_each_listed_rule() {
    assert_clean(
        CORE,
        "// deepsea-lint: allow(panic, wall_clock) -- fixture: both on one line\n\
         fn f(x: Option<u32>) -> u32 { let _t = Instant::now(); x.unwrap() }\n",
    );
}

#[test]
fn marker_does_not_suppress_other_rules() {
    let src = "// deepsea-lint: allow(wall_clock) -- wrong slug for this site\n\
               fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let got = at(CORE, src);
    assert_eq!(got, vec![(RuleId::Panic, 2)]);
}

// ---------------------------------------------------------- R2 lock_discipline

#[test]
fn r2_sanctioned_files_check_guard_shape_not_imports() {
    const WORKERS: &str = "crates/core/src/server/workers.rs";
    // Imports are the sanctioned files' whole point.
    assert_clean(WORKERS, "use std::sync::{Mutex, Condvar};\n");
    // A single guard, used and dropped, is fine.
    assert_clean(
        WORKERS,
        "fn f(q: &std::sync::Mutex<Vec<u32>>) {\n\
         \x20   let mut g = q.lock();\n\
         \x20   g.push(1);\n\
         }\n",
    );
}

#[test]
fn r2_flags_nested_guard_acquisition() {
    const WORKERS: &str = "crates/core/src/server/workers.rs";
    let src = "fn f(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {\n\
               \x20   let g = a.lock();\n\
               \x20   let h = b.lock();\n\
               }\n";
    assert_eq!(at(WORKERS, src), vec![(RuleId::LockDiscipline, 3)]);
    // Scoped drop of the first guard clears the shape.
    let src = "fn f(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {\n\
               \x20   { let g = a.lock(); }\n\
               \x20   let h = b.lock();\n\
               }\n";
    assert_clean(WORKERS, src);
}

#[test]
fn r2_flags_backend_calls_under_guard() {
    const SYNC: &str = "crates/storage/src/sync.rs";
    let src = "fn f(&self) {\n\
               \x20   let g = self.inner.lock();\n\
               \x20   self.backend.execute(&g);\n\
               }\n";
    assert_eq!(at(SYNC, src), vec![(RuleId::LockDiscipline, 3)]);
    // A temporary guard dies at its own `;` — the next statement is free.
    let src = "fn f(&self) {\n\
               \x20   self.inner.lock().poke();\n\
               \x20   self.journal.append(1)?;\n\
               }\n";
    assert_clean(SYNC, src);
}

#[test]
fn r2_allow_marker() {
    assert_clean(
        "crates/core/src/server/workers.rs",
        "fn f(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {\n\
         \x20   let g = a.lock();\n\
         \x20   // deepsea-lint: allow(lock_discipline) -- fixture: fixed lock order\n\
         \x20   let h = b.lock();\n\
         }\n",
    );
}

#[test]
fn r2_checks_only_the_sanctioned_files() {
    // Outside them L1 already forbids naming a lock, so no guard exists
    // whose shape could be checked.
    let src = "fn f(a: &A, b: &B) {\n\
               \x20   let g = a.lock();\n\
               \x20   let h = b.lock();\n\
               }\n";
    assert_clean(CORE, src);
    assert_eq!(
        at("crates/storage/src/sync.rs", src),
        vec![(RuleId::LockDiscipline, 3)]
    );
}

// --------------------------------------------------------------- R3 cost_flow

#[test]
fn r3_flags_tuple_discard_of_cost_component() {
    let src = "fn f(&mut self, id: u64) {\n\
               \x20   let (bytes, _secs) = self.fs.delete_costed(id);\n\
               \x20   self.stats.bytes += bytes;\n\
               }\n";
    let got = at(CORE, src);
    assert_eq!(got, vec![(RuleId::CostFlow, 2)], "{got:?}");
}

#[test]
fn r3_flags_bare_discard_of_cost_source() {
    let src = "fn f(&mut self, n: usize) {\n\
               \x20   self.pool.try_reserve(n);\n\
               }\n";
    let got = at(CORE, src);
    assert!(
        got.contains(&(RuleId::CostFlow, 2)),
        "bare discard not flagged: {got:?}"
    );
}

#[test]
fn r3_plain_delete_is_clean() {
    // A delete costs no simulated time, so dropping its result drops no cost.
    assert_clean(CORE, "fn f(&mut self, id: u64) { self.fs.delete(id); }\n");
}

#[test]
fn r3_consumed_results_are_clean() {
    // Named tuple components, `?`-propagation, and assignment all consume
    // the cost; closure-internal flows are out of scope by design.
    assert_clean(
        CORE,
        "fn f(&mut self, id: u64) -> u64 {\n\
         \x20   let (bytes, secs) = self.fs.delete_costed(id);\n\
         \x20   self.acct.charge(secs);\n\
         \x20   bytes\n\
         }\n",
    );
    assert_clean(
        CORE,
        "fn f(&mut self, n: usize) -> Result<(), Full> {\n\
         \x20   self.pool.try_reserve(n)?;\n\
         \x20   Ok(())\n\
         }\n",
    );
    assert_clean(
        CORE,
        "fn f(&mut self) { self.total += self.drain_retry_budget(3); }\n",
    );
    assert_clean(
        CORE,
        "fn f(&mut self, n: usize) -> Result<(), Full> {\n\
         \x20   if self.pool.try_reserve(1).is_err() { return Ok(()); }\n\
         \x20   return self.pool.try_reserve(n);\n\
         }\n",
    );
}

#[test]
fn r3_a_costed_call_inside_another_call_is_consumed_by_it() {
    // Only a call at the statement's top paren level is dropped with the
    // statement; one passed as an argument is its caller's to consume.
    assert_clean(CORE, "fn f(j: &Journal) { let _ = log(j.append(1)); }\n");
    assert_eq!(
        at(CORE, "fn f(j: &Journal) { let _ = j.append(1).is_ok(); }\n"),
        vec![(RuleId::CostFlow, 1)]
    );
}

#[test]
fn r3_flags_let_underscore_discards() {
    let src = "fn f(j: &mut Journal) {\n\
               \x20   let _ = j.append(b\"rec\");\n\
               \x20   let _ = try_reserve(16);\n\
               }\n";
    let got = at(CORE, src);
    assert_eq!(got, vec![(RuleId::CostFlow, 2), (RuleId::CostFlow, 3)]);
}

#[test]
fn r3_flags_discarded_io_write() {
    let src = "fn f(sink: &mut Sink) {\n\
               \x20   let _ = write!(sink, \"x\");\n\
               }\n";
    let got = at(CORE, src);
    assert_eq!(got, vec![(RuleId::CostFlow, 2)]);
}

/// `fmt::Write` into a `String` cannot fail, so discarding its `Result` is
/// idiomatic and needs no marker. These two shapes mirror the real call
/// sites in `crates/obs/src/prometheus.rs` (`out: &mut String` parameter)
/// and `crates/engine/src/signature.rs` (`let mut s = String::new()` local).
#[test]
fn r3_string_fmt_write_is_exempt() {
    assert_clean(
        "crates/obs/src/fixture.rs",
        "fn render(out: &mut String) {\n\
         \x20   let _ = write!(out, \"metric {}\", 1);\n\
         \x20   let _ = writeln!(out, \"eol\");\n\
         \x20   writeln!(out, \"unconsumed\");\n\
         }\n",
    );
    assert_clean(
        "crates/engine/src/fixture.rs",
        "fn sig() -> String {\n\
         \x20   let mut s = String::new();\n\
         \x20   let _ = write!(&mut s, \"k={}\", 2);\n\
         \x20   s\n\
         }\n",
    );
}

/// A `String` binding exempts a `write!` only inside the fn that binds it:
/// `flush`'s `out` is a `Stderr`, whatever `render` calls its `String`.
#[test]
fn r3_string_exemption_is_scoped_to_the_enclosing_fn() {
    let src = "fn render(out: &mut String) {\n\
               \x20   let _ = write!(out, \"x\");\n\
               }\n\
               fn flush(out: &mut std::io::Stderr) {\n\
               \x20   let _ = write!(out, \"y\");\n\
               }\n";
    let got: Vec<_> = at("crates/obs/src/fixture.rs", src)
        .into_iter()
        .filter(|(rule, _)| *rule == RuleId::CostFlow)
        .collect();
    assert_eq!(got, vec![(RuleId::CostFlow, 5)]);
}

#[test]
fn r3_ignores_infallible_discards() {
    assert_clean(CORE, "fn f(x: u32) { let _ = compute(x); }\n");
}

#[test]
fn r3_one_predicate_across_the_three_shapes() {
    // Each callee name counts in each dropping shape, and the scope covers
    // every product crate.
    let src = "fn f(&mut self, j: &Journal, w: &mut Sink) {\n\
               \x20   let _ = self.drain_retry_budget(3);\n\
               \x20   j.append(1);\n\
               \x20   writeln!(w, \"x\");\n\
               \x20   let (lsn, _) = j.append(2);\n\
               }\n";
    for path in [
        CORE,
        "crates/obs/src/fixture.rs",
        "crates/relation/src/fixture.rs",
    ] {
        let got = at(path, src);
        assert_eq!(
            got,
            vec![
                (RuleId::CostFlow, 2),
                (RuleId::CostFlow, 3),
                (RuleId::CostFlow, 4),
                (RuleId::CostFlow, 5)
            ],
            "{path}"
        );
    }
    assert_clean("crates/bench/src/fixture.rs", src);
}

#[test]
fn r3_allow_marker_on_a_let_underscore() {
    assert_clean(
        CORE,
        "fn f(j: &mut Journal) {\n\
         \x20   // deepsea-lint: allow(cost_flow) -- fixture: best-effort append\n\
         \x20   let _ = j.append(b\"rec\");\n\
         }\n",
    );
}

#[test]
fn r3_exempts_test_code() {
    let body = "fn f(&mut self, j: &Journal) {\n\
                \x20   let _ = j.append(1);\n\
                \x20   self.pool.try_reserve(1);\n\
                }\n";
    assert_eq!(at(CORE, body).len(), 2);
    assert_clean(CORE, &format!("#[cfg(test)]\nmod tests {{\n{body}}}\n"));
    assert_clean(CORE, &format!("#[test]\n{body}"));
}

#[test]
fn r3_allow_marker() {
    assert_clean(
        CORE,
        "// deepsea-lint: allow(cost_flow) -- fixture: failure path, uncharged by design\n\
         fn f(&mut self, n: usize) { self.pool.try_reserve(n); }\n",
    );
}

// --------------------------------------------------------------- R4 obs_gated

#[test]
fn r4_flags_ungated_decision_event() {
    let src = "fn f(&self, q: u64) {\n\
               \x20   self.obs.event(DecisionEvent::Shed { q });\n\
               }\n";
    let got = at(CORE, src);
    assert_eq!(got, vec![(RuleId::ObsGated, 2)], "{got:?}");
}

#[test]
fn r4_flags_unguarded_format_label_reaching_a_sink() {
    // Same-statement flow…
    let src = "fn f(&self, q: u64) {\n\
               \x20   self.obs.counter_inc(&format!(\"q{q}\"), 1);\n\
               }\n";
    assert_eq!(at(CORE, src), vec![(RuleId::ObsGated, 2)]);
    // …and the bind-then-sink flow, flagged at the sink.
    let src = "fn f(&self, q: u64) {\n\
               \x20   let label = format!(\"q{q}\");\n\
               \x20   self.obs.counter_inc(&label, 1);\n\
               }\n";
    assert_eq!(at(CORE, src), vec![(RuleId::ObsGated, 3)]);
}

#[test]
fn r4_guard_idioms_are_clean() {
    // Guard-positive block.
    assert_clean(
        CORE,
        "fn f(&self, q: u64) {\n\
         \x20   if self.obs.events_enabled() {\n\
         \x20       self.obs.event(DecisionEvent::Shed { q });\n\
         \x20   }\n\
         }\n",
    );
    // Early-return on the negated guard dominates the rest of the fn.
    assert_clean(
        CORE,
        "fn f(&self, q: u64) {\n\
         \x20   if !self.obs.enabled() {\n\
         \x20       return;\n\
         \x20   }\n\
         \x20   self.obs.event(DecisionEvent::Shed { q });\n\
         }\n",
    );
    // Guard-local boolean.
    assert_clean(
        CORE,
        "fn f(&self, q: u64) {\n\
         \x20   let on = self.obs.events_enabled();\n\
         \x20   if on {\n\
         \x20       self.obs.event(DecisionEvent::Shed { q });\n\
         \x20   }\n\
         }\n",
    );
    // The statement carries its own guard call.
    assert_clean(
        CORE,
        "fn f(&self, q: u64) {\n\
         \x20   if self.obs.events_enabled() && q > 0 {\n\
         \x20       self.obs.event(DecisionEvent::Shed { q });\n\
         \x20   }\n\
         }\n",
    );
    // Plain-label sinks need no guard — the Observer gates internally.
    assert_clean(CORE, "fn f(&self) { self.obs.counter_inc(\"shed\", 1); }\n");
}

#[test]
fn r4_allow_marker() {
    assert_clean(
        CORE,
        "fn f(&self, q: u64) {\n\
         \x20   // deepsea-lint: allow(obs_gated) -- fixture: cold error path\n\
         \x20   self.obs.event(DecisionEvent::Shed { q });\n\
         }\n",
    );
}

// ----------------------------------------------- lexer regression pins (v2)

#[test]
fn lexer_byte_and_raw_byte_strings_are_opaque() {
    // Rule-triggering text inside b"…" / br#"…"# literals must not lint:
    // the v1 lexer treated the `b`/`br` prefix as an ident and lexed the
    // quote as a string start one byte late.
    assert_clean(
        CORE,
        "fn f() -> &'static [u8] { b\"format!(unwrap) std::thread\" }\n",
    );
    assert_clean(
        CORE,
        "fn g() -> &'static [u8] { br#\"std::fs::File \"quoted\" panic!\"# }\n",
    );
}

#[test]
fn lexer_lifetimes_and_char_literals_disambiguate() {
    // `'x'` after a comparison is a char literal, not a lifetime; `'a` in a
    // turbofish is a lifetime, not an unterminated char. Either confusion
    // makes the rest of the file lint as string garbage.
    assert_clean(CORE, "fn f(c: char) -> bool { c < 'x' && c != '\\'' }\n");
    assert_clean(
        CORE,
        "fn g<'a>(xs: &'a [u64]) -> std::slice::Iter::<'a, u64> { xs.iter() }\n",
    );
}

// ------------------------------------------------------------- test scope

#[test]
fn statement_level_cfg_test_block_is_exempt_and_ends_at_its_brace() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               \x20   #[cfg(test)]\n\
               \x20   {\n\
               \x20       x.unwrap();\n\
               \x20   }\n\
               \x20   x.unwrap()\n\
               }\n";
    assert_eq!(at(CORE, src), vec![(RuleId::Panic, 6)]);
}

#[test]
fn cfg_test_use_and_const_items_are_exempt() {
    let items = "use std::collections::HashMap;\n\
                 use std::sync::Mutex;\n\
                 const EMPTY: Option<HashSet<u32>> = None;\n";
    let gated: String = items
        .lines()
        .map(|l| format!("#[cfg(test)] {l}\n"))
        .collect();
    assert_clean(CORE, &gated);
    // The same items outside test scope are flagged, so the exemption is
    // what keeps them clean.
    assert_eq!(
        at(CORE, items),
        vec![(RuleId::Layering, 2), (RuleId::HashIter, 3)]
    );
}

#[test]
fn stacked_attributes_keep_a_test_fn_exempt() {
    for attrs in [
        "#[cfg(test)]\n#[allow(dead_code)]\n",
        "#[allow(dead_code)]\n#[cfg(test)]\n",
    ] {
        let src = format!("{attrs}fn helper(x: Option<u32>) -> u32 {{ x.unwrap() }}\n");
        assert_clean(CORE, &src);
    }
    assert_eq!(
        at(
            CORE,
            "#[allow(dead_code)]\nfn helper(x: Option<u32>) -> u32 { x.unwrap() }\n"
        ),
        vec![(RuleId::Panic, 2)]
    );
}

/// Write `files` under a fresh directory and return its absolute paths.
fn write_tree(name: &str, files: &[(&str, &str)]) -> (std::path::PathBuf, Vec<std::path::PathBuf>) {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&root);
    let paths = files
        .iter()
        .map(|(rel, src)| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
            std::fs::write(&path, src).expect("write fixture");
            path
        })
        .collect();
    (root, paths)
}

#[test]
fn allow_marker_suppresses_a_hit_through_lint_files() {
    let run = |name: &str, marker: &str| {
        let driver = format!(
            "pub fn refresh(j: &Journal) {{\n\
             {marker}let _ = j.append(0);\n\
             }}\n"
        );
        let (root, paths) = write_tree(
            name,
            &[
                ("crates/core/src/driver/mod.rs", driver.as_str()),
                (
                    "crates/core/tests/driver.rs",
                    "fn t() { let _ = j.append(0); }\n",
                ),
            ],
        );
        deepsea_lint::lint_files(&root, &paths).expect("lint the tree")
    };
    let hit = run("r3-no-marker", "");
    let got: Vec<_> = hit.violations.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(got, vec![(RuleId::CostFlow, 2)], "{:?}", hit.violations);
    assert_eq!(hit.violations[0].file, "crates/core/src/driver/mod.rs");
    assert_eq!(hit.files.len(), 2, "test files are read but never linted");

    let marked = run(
        "r3-marker",
        "// deepsea-lint: allow(cost_flow) -- fixture: audited\n",
    );
    assert!(marked.violations.is_empty(), "{:?}", marked.violations);
}

#[test]
fn lint_files_reports_by_file_then_line() {
    let two = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nuse std::fs;\n";
    let (root, mut paths) = write_tree(
        "report-order",
        &[
            ("crates/engine/src/b.rs", two),
            ("crates/core/src/a.rs", two),
        ],
    );
    paths.reverse();
    let run = deepsea_lint::lint_files(&root, &paths).expect("lint the tree");
    let got: Vec<(&str, u32, &str)> = run
        .violations
        .iter()
        .map(|v| (v.file.as_str(), v.line, v.rule.code()))
        .collect();
    assert_eq!(
        got,
        [
            ("crates/core/src/a.rs", 1, "P1"),
            ("crates/core/src/a.rs", 2, "L1"),
            ("crates/engine/src/b.rs", 1, "P1"),
            ("crates/engine/src/b.rs", 2, "L1"),
        ]
    );
}
