//! Property tests for the engine: executor semantics, signature matching
//! soundness, SQL parser robustness, and optimizer equivalence.

use deepsea_engine::catalog::Catalog;
use deepsea_engine::exec::{execute, execute_slice, ExecMetrics};
use deepsea_engine::optimize::push_down_selections;
use deepsea_engine::plan::{AggExpr, AggFunc, LogicalPlan};
use deepsea_engine::signature::{matches, Signature};
use deepsea_engine::sql;
use deepsea_relation::{DataType, Field, Predicate, Row, Schema, Table, Value};
use deepsea_storage::{BlockConfig, CostWeights, SimFs};
use proptest::prelude::*;

fn catalog(fact_rows: i64) -> Catalog {
    let mut c = Catalog::new();
    c.register(
        "fact",
        Table::from_rows(
            Schema::new(vec![
                Field::new("fact.k", DataType::Int),
                Field::new("fact.v", DataType::Float),
            ]),
            (0..fact_rows)
                .map(|i| vec![Value::Int(i % 50), Value::Float((i * 7 % 13) as f64)])
                .collect(),
            1_000,
        ),
    );
    c.register(
        "dim",
        Table::from_rows(
            Schema::new(vec![
                Field::new("dim.k", DataType::Int),
                Field::new("dim.label", DataType::Str),
            ]),
            (0..50)
                .map(|i| vec![Value::Int(i), Value::str(format!("l{}", i % 5))])
                .collect(),
            100,
        ),
    );
    c
}

fn fs() -> SimFs<Table> {
    SimFs::new(BlockConfig::new(4096), CostWeights::default())
}

/// Row-at-a-time reference semantics of the executor, kept here only: what
/// every operator returns (rows in order, simulated width) and charges,
/// written the obvious way over `Vec<Row>`. The batch executor must equal it.
fn reference(p: &LogicalPlan, cat: &Catalog, fs: &SimFs<Table>, m: &mut ExecMetrics) -> RefOut {
    fn width(rows: &[Row]) -> f64 {
        let n = rows.len().min(128);
        let total: u64 = rows[..n].iter().flatten().map(Value::width).sum();
        if n == 0 {
            8.0
        } else {
            (total as f64 / n as f64).max(1.0)
        }
    }
    let scaled = |bpr: u64, out: &[Row], inp: &[Row]| {
        ((bpr as f64) * (width(out) / width(inp))).round().max(1.0) as u64
    };
    let idx = |s: &Schema, n: &str| s.index_of(n).unwrap_or_else(|| panic!("column {n}"));
    match p {
        LogicalPlan::Scan { table } => {
            let t = cat.get(table).unwrap();
            m.bytes_read += t.sim_bytes();
            m.map_tasks += fs.block_config().blocks_for(t.sim_bytes());
            m.stages += 1;
            m.rows_processed += t.len() as u64;
            (t.schema.clone(), t.rows().collect(), t.bytes_per_row)
        }
        LogicalPlan::Select { pred, input } => {
            let (s, mut rows, bpr) = reference(input, cat, fs, m);
            m.rows_processed += rows.len() as u64;
            rows.retain(|r| pred.eval(&s, r));
            (s, rows, bpr)
        }
        LogicalPlan::Project { cols, input } => {
            let (s, rows, bpr) = reference(input, cat, fs, m);
            m.rows_processed += rows.len() as u64;
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            let (schema, at) = s.project(&names).expect("projected columns exist");
            let out: Vec<Row> = rows
                .iter()
                .map(|r| at.iter().map(|&i| r[i].clone()).collect())
                .collect();
            let bpr = scaled(bpr, &out, &rows);
            (schema, out, bpr)
        }
        LogicalPlan::Join { left, right, on } => {
            let ((ls, l, lb), (rs, r, rb)) =
                (reference(left, cat, fs, m), reference(right, cat, fs, m));
            m.shuffle_bytes += (l.len() as u64) * lb + (r.len() as u64) * rb;
            m.stages += 1;
            m.rows_processed += (l.len() + r.len()) as u64;
            let keys: Vec<(usize, usize)> = on
                .iter()
                .map(|(a, b)| match (ls.index_of(a), rs.index_of(b)) {
                    (Some(x), Some(y)) => (x, y),
                    _ => (idx(&ls, b), idx(&rs, a)),
                })
                .collect();
            let joins = |x: &Row, y: &Row| {
                keys.iter()
                    .all(|&(i, j)| x[i] != Value::Null && x[i] == y[j])
            };
            let pair = |x: &Row, y: &Row| x.iter().chain(y).cloned().collect::<Row>();
            // Probe side outer, build side (the smaller; left on a tie) inner.
            let out: Vec<Row> = if l.len() <= r.len() {
                r.iter()
                    .flat_map(|y| {
                        l.iter()
                            .filter(|x| joins(x, y))
                            .map(|x| pair(x, y))
                            .collect::<Vec<_>>()
                    })
                    .collect()
            } else {
                l.iter()
                    .flat_map(|x| {
                        r.iter()
                            .filter(|y| joins(x, y))
                            .map(|y| pair(x, y))
                            .collect::<Vec<_>>()
                    })
                    .collect()
            };
            m.rows_processed += out.len() as u64;
            (ls.concat(&rs), out, lb + rb)
        }
        LogicalPlan::Aggregate {
            group_by,
            aggs,
            input,
        } => {
            let (s, rows, bpr) = reference(input, cat, fs, m);
            m.shuffle_bytes += rows.len() as u64 * bpr;
            m.stages += 1;
            m.rows_processed += rows.len() as u64;
            let gidx: Vec<usize> = group_by.iter().map(|g| idx(&s, g)).collect();
            let aidx: Vec<Option<usize>> = aggs
                .iter()
                .map(|a| a.col.as_ref().map(|c| idx(&s, c)))
                .collect();
            let mut groups: Vec<(Row, Vec<&Row>)> = Vec::new();
            for r in &rows {
                let key: Row = gidx.iter().map(|&i| r[i].clone()).collect();
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, members)) => members.push(r),
                    None => groups.push((key, vec![r])),
                }
            }
            if gidx.is_empty() && groups.is_empty() {
                groups.push((Vec::new(), Vec::new()));
            }
            let mut out: Vec<Row> = groups
                .into_iter()
                .map(|(mut key, members)| {
                    for (a, i) in aggs.iter().zip(&aidx) {
                        let vals = || {
                            members
                                .iter()
                                .filter_map(|r| i.map(|i| &r[i]))
                                .filter(|v| **v != Value::Null)
                        };
                        let nums: Vec<f64> = vals().filter_map(Value::as_float).collect();
                        let sum = nums.iter().fold(0.0, |s, x| s + x);
                        key.push(match a.func {
                            AggFunc::Count => Value::Int(members.len() as i64),
                            AggFunc::Sum if !nums.is_empty() => Value::Float(sum),
                            AggFunc::Avg if !nums.is_empty() => {
                                Value::Float(sum / nums.len() as f64)
                            }
                            AggFunc::Min => vals().min().cloned().unwrap_or(Value::Null),
                            AggFunc::Max => vals().max().cloned().unwrap_or(Value::Null),
                            _ => Value::Null,
                        });
                    }
                    key
                })
                .collect();
            out.sort();
            m.rows_processed += out.len() as u64;
            let mut fields: Vec<Field> = gidx.iter().map(|&i| s.field(i).clone()).collect();
            fields.extend(
                aggs.iter()
                    .map(|a| Field::new(a.alias.clone(), DataType::Int)),
            );
            let bpr = scaled(bpr, &out, &rows);
            (Schema::new(fields), out, bpr)
        }
        LogicalPlan::ViewScan(_) => panic!("the reference reads base tables only"),
    }
}
type RefOut = (Schema, Vec<Row>, u64);

/// Two small random tables: NULLs in keys and arguments, duplicate join keys
/// on both sides, a float column `b.x` holding whole numbers so that it
/// joins the integer `a.k`. Either may be empty, either may be the smaller.
///
/// Integer keys come in three spreads, drawn per catalog, so that both key
/// indexes of the executor see them: all within `0..4` (dense); some up to
/// 600, which is dense or sparse depending on the row counts (the rule's
/// bound, `4·rows + 64`, runs from 64 to 700 here); some at the ends of the
/// domain, whose span overflows `i64`.
///
/// Each table is built by its own `Table::from_rows`, so each string column
/// has its own dictionary, numbered in the order its rows first hold each
/// string: equal strings carry unrelated codes in two tables, and each table
/// holds one string no other does (`"sa"`, `"sb"`, `"sc"`). A join on
/// strings must translate one side's codes into the other's dictionary.
/// `""`, the string a NULL slot holds, is also a label.
///
/// Three more tables, the dimensions `d`, `e` and `g`, each have a key
/// running `first..first + n`, `first` one of 0, −3, 7 and `i64::MAX − n`,
/// `n` up to 40: a surrogate key, which joins address by position. Or, per
/// dimension, one of its twins, which are not: one key skipped, or one key
/// repeated. `a` and `b` meet `e` through a second integer key, `j`.
fn random_catalog(rows_a: usize, rows_b: usize, seed: u64) -> Catalog {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut draw = move |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    const FAR: [i64; 6] = [
        i64::MIN,
        i64::MAX,
        -1_000_000_000_000,
        1_000_000_000_000,
        i64::MIN + 1,
        i64::MAX - 1,
    ];
    let spread = draw(3);
    let mut value = |kind: DataType, own: &str| match (draw(5), kind) {
        (0, _) => Value::Null,
        (_, DataType::Int) => Value::Int(match (spread, draw(6)) {
            (1, 0) => draw(600) as i64,
            (2, 0) => FAR[draw(6) as usize],
            _ => draw(4) as i64,
        }),
        (_, DataType::Float) => Value::Float(draw(8) as f64 / 2.0),
        (_, DataType::Str) => Value::str(["s0", "s1", "s2", "", own][draw(5) as usize]),
    };
    let mut table = |name: &str, cols: &[(&str, DataType)], rows: usize, bpr: u64| {
        let fields = cols
            .iter()
            .map(|(c, t)| Field::new(format!("{name}.{c}"), *t));
        let own = format!("s{name}");
        let data = (0..rows).map(|_| cols.iter().map(|(_, t)| value(*t, &own)).collect());
        Table::from_rows(Schema::new(fields.collect()), data.collect(), bpr)
    };
    use DataType::{Float, Int, Str};
    let mut c = Catalog::new();
    c.register(
        "a",
        table(
            "a",
            &[("k", Int), ("f", Float), ("s", Str), ("j", Int)],
            rows_a,
            700,
        ),
    );
    c.register(
        "b",
        table(
            "b",
            &[("k", Int), ("x", Float), ("s", Str), ("j", Int)],
            rows_b,
            90,
        ),
    );
    // A third table, small, for a join of three.
    let rows_c = (seed % 6) as usize;
    c.register("c", table("c", &[("k", Int), ("s", Str)], rows_c, 40));

    for (name, bpr) in [("d", 50), ("e", 30), ("g", 20)] {
        let n = draw(41) as i64;
        let first = [0, -3, 7, i64::MAX - n][draw(4) as usize];
        // A twin's keys shift by one from row `at` on, 1 ≤ at < n (given n ≥ 2).
        let at = 1 + draw(n.max(2) as u64 - 1) as i64;
        let twin = draw(6); // 1 and 2 a twin, else a surrogate key
        let rows: Vec<Row> = (0..n)
            .map(|r| {
                let k = match twin {
                    1 if r >= at => first + r + 1,
                    2 if r >= at => first + r - 1,
                    _ => first + r,
                };
                let s = ["s0", "s1", "s2", "", "sd"][draw(5) as usize];
                vec![Value::Int(k), Value::str(s)]
            })
            .collect();
        let fields = vec![
            Field::new(format!("{name}.k"), Int),
            Field::new(format!("{name}.s"), Str),
        ];
        c.register(name, Table::from_rows(Schema::new(fields), rows, bpr));
    }
    c
}

/// A plan over [`random_catalog`]: a scan or one of seventeen joins, then
/// optionally a selection, then a projection or one of four aggregates.
///
/// A selection right above a join runs at a leaf before any pair is built
/// when all its conditions read that leaf and every join from it up meets
/// a surrogate key through it; any other runs after the join, built whole.
/// The selections below reach a leaf from either input of a join with a
/// dimension, and run after the join through an ambiguous or unknown
/// column, conditions on both inputs, on a dimension or on the three-table
/// join's inner join (which holds all of `a` and `b`), and joins that meet
/// no surrogate key.
///
/// `a` and `b` meet the dimension `d` from either side; being the smaller
/// input or not, it is the build or the probe side of the join. `b`'s join
/// with it carries the selection itself, and then meets `a`.
///
/// Joins 12–17 nest: `x ⋈ d` (`x` being `a` or `b`) meets `e` on `x.j`,
/// from either side, and then, in 16, `g` on `a.k`. A selection on `x`
/// alone runs at `x` when every dimension on the way is a surrogate key,
/// each join charged the full tree's lengths; with a twin, on a leaf of
/// 17's (whose outer key is `d.k`), on `d` or `e`, or on two leaves, it
/// runs after the join. Selections 12–17 keep none or all of `x`'s rows
/// and put conditions on `e`, on two leaves, and on `b` alone.
fn random_plan(join: u8, select: u8, shape: u8, lo: i64) -> LogicalPlan {
    let scan = LogicalPlan::scan;
    let (a, b, d, e) = (|| scan("a"), || scan("b"), || scan("d"), || scan("e"));
    let select = |plan: LogicalPlan| match select {
        0 => plan,
        1 => plan.select(Predicate::range("a.k", lo, lo + 1)),
        2 => plan.select(Predicate::and(vec![
            Predicate::range("k", lo, 3), // bare name: ambiguous above a join
            Predicate::eq("a.s", "s1"),
        ])),
        3 => plan.select(Predicate::eq("a.f", 1)), // Float column = Int value
        4 => plan.select(Predicate::range("a.f", 0, 9)), // range over floats: nothing
        5 => plan.select(Predicate::eq("a.k", Value::Null)),
        6 => plan.select(Predicate::range("b.k", lo, lo + 2)), // the right input
        7 => plan.select(Predicate::eq("b.s", "s2")),
        8 => plan.select(Predicate::eq("a.s", "sb")), // a string `a` never holds
        9 => plan.select(Predicate::and(vec![
            Predicate::range("a.k", lo, 3), // one condition per input
            Predicate::eq("b.s", "s0"),
        ])),
        10 => plan.select(Predicate::range("d.k", lo - 3, lo + 1)),
        11 => plan.select(Predicate::eq("d.s", "s1")),
        12 => plan.select(Predicate::range("a.j", i64::MIN, i64::MAX)), // all but NULL
        13 => plan.select(Predicate::range("a.k", lo + 1, lo)),         // none
        14 => plan.select(Predicate::eq("e.s", "s2")),
        15 => plan.select(Predicate::and(vec![
            Predicate::range("a.j", lo, 3), // two leaves of one input
            Predicate::eq("d.s", "s0"),
        ])),
        16 => plan.select(Predicate::range("b.j", lo, lo + 1)),
        _ => plan.select(Predicate::and(vec![
            Predicate::range("b.k", 0, lo + 1),
            Predicate::eq("b.s", "s1"),
        ])),
    };
    let with_a = |plan: LogicalPlan| a().join(plan, vec![("a.s", "b.s")]);
    let a_d = || a().join(d(), vec![("a.k", "d.k")]);
    let d_b = || d().join(b(), vec![("d.k", "b.k")]);
    let plan = match join {
        0 => select(a()),
        1 => select(a().join(b(), vec![("a.k", "b.k")])),
        2 => select(a().join(b(), vec![("a.k", "b.x")])), // Int = Float
        3 => select(a().join(b(), vec![("a.k", "b.k"), ("a.s", "b.s")])),
        4 => select(b().join(a(), vec![("a.k", "b.k")])), // pairs named right-to-left
        5 => select(a().join(b(), vec![("a.s", "b.s")])),
        6 => select(a().join(b(), vec![("a.s", "b.k")])), // Str = Int: never equal
        7 => select(
            a().join(b(), vec![("a.k", "b.k")])
                .join(scan("c"), vec![("c.s", "b.s")]),
        ),
        8 => select(a().join(d(), vec![("a.k", "d.k")])),
        9 => select(d().join(a(), vec![("d.k", "a.k")])),
        10 => with_a(select(b().join(d(), vec![("b.k", "d.k")]))),
        11 => with_a(select(d().join(b(), vec![("d.k", "b.k")]))),
        12 => select(a_d().join(e(), vec![("a.j", "e.k")])),
        13 => select(e().join(a_d(), vec![("e.k", "a.j")])),
        14 => with_a(select(d_b().join(e(), vec![("b.j", "e.k")]))),
        15 => with_a(select(e().join(d_b(), vec![("b.j", "e.k")]))),
        16 => select(
            a_d()
                .join(e(), vec![("a.j", "e.k")])
                .join(scan("g"), vec![("a.k", "g.k")]),
        ),
        _ => select(a_d().join(e(), vec![("d.k", "e.k")])), // the key of a non-leaf side
    };
    let of = AggExpr::of;
    match shape {
        0 => plan,
        1 => plan.project(vec!["a.s", "a.k"]),
        2 => plan.aggregate(
            vec!["a.s"],
            vec![
                AggExpr::count("n"),
                of(AggFunc::Sum, "a.f", "sum"),
                of(AggFunc::Avg, "a.f", "avg"),
                of(AggFunc::Min, "a.f", "lo"),
                of(AggFunc::Max, "a.f", "hi"),
            ],
        ),
        3 => plan.aggregate(
            Vec::<String>::new(),
            vec![
                AggExpr::count("n"),
                of(AggFunc::Sum, "a.k", "sum"),
                of(AggFunc::Min, "a.s", "first"),
                of(AggFunc::Avg, "a.s", "avg_of_strings"),
            ],
        ),
        4 => plan.aggregate(
            vec!["a.k", "a.f"],
            vec![
                of(AggFunc::Max, "a.s", "last"),
                of(AggFunc::Avg, "a.k", "avg"),
            ],
        ),
        _ => plan.aggregate(
            vec!["a.k"],
            vec![AggExpr::count("n"), of(AggFunc::Min, "a.s", "first")],
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 600, ..ProptestConfig::default() })]

    /// The batch executor equals the row-at-a-time reference: same rows in
    /// the same order, same simulated width, same charge in every metric.
    #[test]
    fn batch_executor_equals_row_reference(
        rows_a in 0usize..80, rows_b in 0usize..80, seed in any::<u64>(),
        join in 0u8..18, select in 0u8..18, shape in 0u8..6, lo in 0i64..4,
    ) {
        check_against_reference(rows_a, rows_b, seed, random_plan(join, select, shape, lo));
    }

    /// The same for the nested joins alone, with every selection, their
    /// rows in order.
    #[test]
    fn nested_selections_equal_row_reference(
        rows_a in 0usize..80, rows_b in 0usize..80, seed in any::<u64>(),
        join in 12u8..18, select in 0u8..18, shape in 0u8..2, lo in 0i64..4,
    ) {
        check_against_reference(rows_a, rows_b, seed, random_plan(join, select, shape, lo));
    }
}

/// `plan` over a [`random_catalog`] gives the reference's rows, in order,
/// its width and its charge in every metric — on its first run over the
/// catalog, which scans each ranged column, its second, which sorts them,
/// and its third, which reads their range orders. A selection on top is
/// also run as a slice of the plan below it, which gives the same rows at
/// the same width and that plan's length.
fn check_against_reference(rows_a: usize, rows_b: usize, seed: u64, plan: LogicalPlan) {
    let cat = random_catalog(rows_a, rows_b, seed);
    let fs = fs();
    let mut want_m = ExecMetrics::default();
    let (schema, rows, bpr) = reference(&plan, &cat, &fs, &mut want_m);
    let names = |s: &Schema| {
        s.fields()
            .iter()
            .map(|f| f.name.clone())
            .collect::<Vec<_>>()
    };
    for run in 1..=3 {
        let (got, got_m) = execute(&plan, &cat, &fs).unwrap();
        prop_assert_eq!(names(&got.schema), names(&schema));
        prop_assert_eq!(got.rows().collect::<Vec<_>>(), rows, "run {}", run);
        prop_assert_eq!(got.bytes_per_row, bpr, "run {}", run);
        prop_assert_eq!(got_m, want_m, "run {}", run);
    }
    if let LogicalPlan::Select { pred, input } = &plan {
        let (_, whole, _) = reference(input, &cat, &fs, &mut ExecMetrics::default());
        let (got, len) = execute_slice(input, pred, &cat, &fs).unwrap();
        prop_assert_eq!(got.rows().collect::<Vec<_>>(), rows, "slice");
        prop_assert_eq!(got.bytes_per_row, bpr, "slice");
        prop_assert_eq!(len, whole.len() as u64, "slice");
    }
}

proptest! {
    /// Selection result = brute-force filter of the unselected result.
    #[test]
    fn select_is_a_filter(lo in 0i64..60, width in 0i64..60) {
        let cat = catalog(200);
        let fs = fs();
        let hi = lo + width;
        let base = LogicalPlan::scan("fact");
        let (all, _) = execute(&base, &cat, &fs).unwrap();
        let (sel, _) = execute(
            &base.select(Predicate::range("fact.k", lo, hi)),
            &cat,
            &fs,
        )
        .unwrap();
        let expected = all
            .rows()
            .filter(|r| r[0].as_int().map(|k| lo <= k && k <= hi).unwrap_or(false))
            .count();
        prop_assert_eq!(sel.len(), expected);
    }

    /// Join-order invariance: fact ⋈ dim and dim ⋈ fact return the same
    /// multiset once projected to a common column order.
    #[test]
    fn join_order_invariance(lo in 0i64..50, width in 0i64..20) {
        let cat = catalog(150);
        let fs = fs();
        let hi = lo + width;
        let cols = vec!["fact.k", "fact.v", "dim.label"];
        let a = LogicalPlan::scan("fact")
            .join(LogicalPlan::scan("dim"), vec![("fact.k", "dim.k")])
            .select(Predicate::range("fact.k", lo, hi))
            .project(cols.clone());
        let b = LogicalPlan::scan("dim")
            .join(LogicalPlan::scan("fact"), vec![("dim.k", "fact.k")])
            .select(Predicate::range("fact.k", lo, hi))
            .project(cols);
        let (ra, _) = execute(&a, &cat, &fs).unwrap();
        let (rb, _) = execute(&b, &cat, &fs).unwrap();
        prop_assert_eq!(ra.fingerprint(), rb.fingerprint());
        // And their signatures collide into one view identity.
        prop_assert_eq!(
            Signature::of(&a).unwrap().canonical_key(),
            Signature::of(&b).unwrap().canonical_key()
        );
    }

    /// Matching soundness on ranges: a view restricted to [vl, vh] matches a
    /// query restricted to [ql, qh] iff the query range is contained.
    #[test]
    fn matching_respects_range_containment(
        vl in 0i64..100, vw in 0i64..100,
        ql in 0i64..100, qw in 0i64..100,
    ) {
        let (vh, qh) = (vl + vw, ql + qw);
        let base = || LogicalPlan::scan("fact")
            .join(LogicalPlan::scan("dim"), vec![("fact.k", "dim.k")]);
        let v = Signature::of(&base().select(Predicate::range("fact.k", vl, vh))).unwrap();
        let q = Signature::of(&base().select(Predicate::range("fact.k", ql, qh))).unwrap();
        let contained = vl <= ql && qh <= vh;
        prop_assert_eq!(matches(&v, &q).is_some(), contained);
    }

    /// COUNT over a group equals the number of rows in that group.
    #[test]
    fn aggregate_count_is_consistent(lo in 0i64..50, width in 0i64..30) {
        let cat = catalog(200);
        let fs = fs();
        let hi = lo + width;
        let plan = LogicalPlan::scan("fact")
            .select(Predicate::range("fact.k", lo, hi))
            .aggregate(vec!["fact.k"], vec![AggExpr::count("cnt")]);
        let (agg, _) = execute(&plan, &cat, &fs).unwrap();
        let total: i64 = agg.rows().map(|r| r[1].as_int().unwrap()).sum();
        let (raw, _) = execute(
            &LogicalPlan::scan("fact").select(Predicate::range("fact.k", lo, hi)),
            &cat,
            &fs,
        )
        .unwrap();
        prop_assert_eq!(total as usize, raw.len());
        // SUM via AVG×COUNT cross-check on one group.
        let plan2 = LogicalPlan::scan("fact")
            .select(Predicate::range("fact.k", lo, hi))
            .aggregate(
                vec!["fact.k"],
                vec![
                    AggExpr::count("cnt"),
                    AggExpr::of(AggFunc::Sum, "fact.v", "s"),
                    AggExpr::of(AggFunc::Avg, "fact.v", "a"),
                ],
            );
        let (agg2, _) = execute(&plan2, &cat, &fs).unwrap();
        for row in agg2.rows() {
            let cnt = row[1].as_int().unwrap() as f64;
            let sum = row[2].as_float().unwrap();
            let avg = row[3].as_float().unwrap();
            prop_assert!((sum - avg * cnt).abs() < 1e-6);
        }
    }

    /// Predicate pushdown never changes answers, for arbitrary conjunctions.
    #[test]
    fn pushdown_equivalence(
        lo in 0i64..50, width in 0i64..30,
        label in 0usize..5,
    ) {
        let cat = catalog(150);
        let fs = fs();
        let plan = LogicalPlan::scan("fact")
            .join(LogicalPlan::scan("dim"), vec![("fact.k", "dim.k")])
            .select(Predicate::and(vec![
                Predicate::range("fact.k", lo, lo + width),
                Predicate::eq("dim.label", format!("l{label}").as_str()),
            ]))
            .aggregate(vec!["dim.label"], vec![AggExpr::count("cnt")]);
        let optimized = push_down_selections(&plan, &cat);
        let (a, _) = execute(&plan, &cat, &fs).unwrap();
        let (b, _) = execute(&optimized, &cat, &fs).unwrap();
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// The SQL parser never panics on template-shaped inputs and round-trips
    /// ranges faithfully.
    #[test]
    fn sql_parser_roundtrips_ranges(lo in -1_000i64..1_000, width in 0i64..1_000) {
        let hi = lo + width;
        let text = format!(
            "SELECT dim.label, COUNT(*) AS cnt FROM fact \
             JOIN dim ON fact.k = dim.k \
             WHERE fact.k BETWEEN {lo} AND {hi} GROUP BY dim.label"
        );
        let plan = sql::parse(&text).unwrap();
        let sig = Signature::of(&plan).unwrap();
        prop_assert_eq!(sig.range_on_attr("fact.k"), Some((lo, hi)));
    }

    /// Garbage input never panics the parser — it errors.
    #[test]
    fn sql_parser_total_on_garbage(input in "[a-zA-Z0-9<>=,.*()' ]{0,60}") {
        let _ = sql::parse(&input); // must not panic
    }

    /// The parser returns on any text, whatever the width of its characters:
    /// ASCII, 2-byte whitespace and letters, a 3- and a 4-byte character.
    #[test]
    fn sql_parser_returns_on_any_characters(picks in proptest::collection::vec(0usize..16, 0..40)) {
        const ALPHABET: [&str; 16] = [
            "SELECT", "FROM", "t", "a", "*", " ", ".", "=", "'", "1", "-",
            "\u{A0}", "é", "∅", "\u{1F600}", "_",
        ];
        let input: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        let _ = sql::parse(&input); // must return, and not panic
    }
}
