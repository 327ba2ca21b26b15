//! Property tests for the relational layer: value ordering, predicate
//! semantics, generator guarantees, integer range selection, and tables
//! read through row indices.

use deepsea_relation::distr::{normal_cdf, WeightedBuckets, Zipf};
use deepsea_relation::generate::{ColumnGen, TableGen};
use std::sync::Arc;

use deepsea_relation::{Col, Column, DataType, Field, Predicate, Schema, Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn any_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-z]{0,8}".prop_map(Value::str),
    ]
}

/// Numbers where `Eq` and the bits part: the neighbours of 2^53 as `Int`
/// and as `Float`, the zeros, NaNs of three bit patterns, and any `i64`.
fn edge_number() -> impl Strategy<Value = Value> {
    let two53 = 1i64 << 53;
    prop_oneof![
        (-3i64..=3).prop_map(move |d| Value::Int(two53 + d)),
        (-3i64..=3).prop_map(move |d| Value::Float((two53 + d) as f64)),
        (-2i64..=2).prop_map(move |d| {
            Value::Float(f64::from_bits(((two53 as f64).to_bits() as i64 + d) as u64))
        }),
        Just(Value::Int(0)),
        Just(Value::Float(0.0)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-f64::NAN)),
        Just(Value::Float(f64::from_bits(0x7ff8_0000_0000_0001))),
        any::<i64>().prop_map(Value::Int),
    ]
}

fn hash_of(v: &Value) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

#[test]
fn equal_numbers_of_either_type_hash_alike() {
    assert_eq!(hash_of(&Value::Int(1)), hash_of(&Value::Float(1.0)));
    let (int, float) = (Value::Int((1 << 53) + 1), Value::Float(2f64.powi(53)));
    assert_eq!(int, float);
    assert_eq!(hash_of(&int), hash_of(&float));
}

/// The fingerprint text of `v` in a one-column table of its type, without
/// the value separator.
fn canonical(v: Value) -> String {
    let dtype = v.data_type().expect("a non-NULL value");
    let schema = Schema::new(vec![Field::new("c", dtype)]);
    let lines = Table::from_rows(schema, vec![vec![v]], 8).fingerprint();
    let [line] = &*lines else { panic!("one row") };
    line.strip_suffix('\u{1}').expect("a separator").to_string()
}

fn assert_float_text(x: f64) {
    assert_eq!(
        canonical(Value::Float(x)),
        format!("{x:.6}"),
        "{x:e} ({:#x})",
        x.to_bits()
    );
}

/// Floats whose `{:.6}` text is hard to get right: any bit pattern;
/// normal numbers from 2⁻³⁰ to 2¹²⁰; subnormals; magnitudes of 2⁵⁴ and up;
/// exact halves of a millionth (`n + odd/128`, which round to even); and
/// the neighbours of those halves and of `±0.0000005`.
fn fixed6_float() -> impl Strategy<Value = f64> {
    let ulps = |x: f64, d: i64| f64::from_bits((x.to_bits() as i64 + d) as u64);
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (any::<u64>(), 993u64..1143)
            .prop_map(|(b, e)| f64::from_bits(b & !(0x7ff << 52) | e << 52)),
        any::<u64>().prop_map(|b| f64::from_bits(b & !(0x7ff << 52))),
        (1u64..1 << 53, 2i32..70).prop_map(|(m, e)| m as f64 * 2f64.powi(e)),
        (0i64..1 << 40, 0i64..64, any::<bool>()).prop_map(|(n, j, neg)| {
            let x = n as f64 + (2 * j + 1) as f64 / 128.0;
            if neg {
                -x
            } else {
                x
            }
        }),
        (0i64..1 << 20, 0i64..64, -2i64..=2)
            .prop_map(move |(n, j, d)| { ulps(n as f64 + (2 * j + 1) as f64 / 128.0, d) }),
        (-3i64..=3, any::<bool>())
            .prop_map(move |(d, neg)| { ulps(if neg { -0.5e-6 } else { 0.5e-6 }, d) }),
    ]
}

/// The canonical text the golden files and the serving records hash is
/// what `core::fmt` prints: `{:.6}` for a float, `{}` for an integer.
#[test]
fn canonical_text_of_edge_values_is_what_fmt_prints() {
    for x in [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits((1 << 52) - 1),
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        2f64.powi(54),
        2f64.powi(107),
        2f64.powi(108),
        2f64.powi(109),
        u64::MAX as f64,
        1.0 / 128.0,
        3.0 / 128.0,
        -5.0 / 128.0,
        -0.0000004,
        2.0 / 3.0,
        1.5,
    ] {
        assert_float_text(x);
    }
    for i in [0, 1, -1, 9, 10, -10, i64::MAX, i64::MIN, i64::MIN + 1] {
        assert_eq!(canonical(Value::Int(i)), format!("{i}"));
    }
    assert_eq!(canonical(Value::str("x y")), "s:x y");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

    #[test]
    fn canonical_float_text_is_what_fmt_prints(x in fixed6_float()) {
        assert_float_text(x);
    }

    #[test]
    fn canonical_int_text_is_what_fmt_prints(i in any::<i64>()) {
        prop_assert_eq!(canonical(Value::Int(i)), format!("{i}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

    /// `Value`'s `Hash` agrees with its `Eq`: equal values hash alike.
    #[test]
    fn equal_values_hash_alike(a in edge_number(), b in edge_number()) {
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b), "{:?} == {:?}", a, b);
        }
    }
}

proptest! {
    /// The Value ordering is a total order: antisymmetric and transitive on
    /// sampled triples, and consistent with equality.
    #[test]
    fn value_ordering_is_total(a in any_value(), b in any_value(), c in any_value()) {
        use std::cmp::Ordering::*;
        // Antisymmetry.
        match a.cmp(&b) {
            Less => prop_assert_eq!(b.cmp(&a), Greater),
            Greater => prop_assert_eq!(b.cmp(&a), Less),
            Equal => prop_assert_eq!(b.cmp(&a), Equal),
        }
        // Transitivity.
        if a.cmp(&b) != Greater && b.cmp(&c) != Greater {
            prop_assert_ne!(a.cmp(&c), Greater);
        }
        // Eq consistency.
        prop_assert_eq!(a == b, a.cmp(&b) == Equal);
    }

    /// Predicate::and is order-insensitive in evaluation.
    #[test]
    fn conjunction_commutes(
        k in -100i64..100,
        lo1 in -100i64..100, w1 in 0i64..100,
        lo2 in -100i64..100, w2 in 0i64..100,
    ) {
        let schema = Schema::new(vec![Field::new("t.a", DataType::Int)]);
        let row = vec![Value::Int(k)];
        let p1 = Predicate::range("t.a", lo1, lo1 + w1);
        let p2 = Predicate::range("t.a", lo2, lo2 + w2);
        let ab = Predicate::and(vec![p1.clone(), p2.clone()]);
        let ba = Predicate::and(vec![p2, p1]);
        prop_assert_eq!(ab.eval(&schema, &row), ba.eval(&schema, &row));
        // And equals the intersection semantics of range_on.
        let both = ab.eval(&schema, &row);
        let manual = (lo1..=lo1 + w1).contains(&k) && (lo2..=lo2 + w2).contains(&k);
        prop_assert_eq!(both, manual);
    }

    /// range_on returns exactly the interval a single Range predicate encodes.
    #[test]
    fn range_on_matches_eval(lo in -1000i64..1000, w in 0i64..1000, probe in -1100i64..1100) {
        let schema = Schema::new(vec![Field::new("t.a", DataType::Int)]);
        let p = Predicate::range("t.a", lo, lo + w);
        let (l, h) = p.range_on("t.a").unwrap();
        let in_range = l <= probe && probe <= h;
        prop_assert_eq!(p.eval(&schema, &vec![Value::Int(probe)]), in_range);
    }

    /// Generated tables honor their declared bounds and sizes.
    #[test]
    fn generator_bounds(rows in 1usize..200, lo in -50i64..0, hi in 1i64..50, seed in 0u64..500) {
        let schema = Schema::new(vec![
            Field::new("t.id", DataType::Int),
            Field::new("t.k", DataType::Int),
        ]);
        let t = TableGen::new(
            schema,
            vec![
                ColumnGen::Serial { start: 0 },
                ColumnGen::UniformInt { low: lo, high: hi },
            ],
            64,
            seed,
        )
        .generate(rows);
        prop_assert_eq!(t.len(), rows);
        prop_assert_eq!(t.sim_bytes(), rows as u64 * 64);
        for (i, r) in t.rows().enumerate() {
            prop_assert_eq!(r[0].as_int(), Some(i as i64));
            let k = r[1].as_int().unwrap();
            prop_assert!(lo <= k && k <= hi);
        }
    }

    /// Zipf samples stay in range for any parameters.
    #[test]
    fn zipf_in_range(n in 1usize..200, s in 0.0f64..3.0, seed in 0u64..100) {
        let z = Zipf::new(n, s);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let r = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&r));
        }
    }

    /// Weighted buckets only emit values from their declared ranges.
    #[test]
    fn weighted_buckets_in_range(seed in 0u64..200) {
        let wb = WeightedBuckets::new(&[(0, 9, 1.0), (100, 109, 2.0), (50, 59, 0.5)]);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            let v = wb.sample(&mut rng);
            prop_assert!(
                (0..=9).contains(&v) || (100..=109).contains(&v) || (50..=59).contains(&v),
                "{v} escaped its buckets"
            );
        }
    }

    /// The CDF approximation obeys symmetry: Φ(μ+x) + Φ(μ−x) = 1.
    #[test]
    fn normal_cdf_symmetry(x in 0.0f64..10.0, mean in -50.0f64..50.0, std in 0.1f64..20.0) {
        let hi = normal_cdf(mean + x * std, mean, std);
        let lo = normal_cdf(mean - x * std, mean, std);
        prop_assert!((hi + lo - 1.0).abs() < 1e-6, "hi={hi} lo={lo}");
    }
}

/// `x` (in `0..=50`) placed in one of five integer columns: dense near 0,
/// sparse, the two ends of the domain among small values (a span that
/// overflows `i64`), dense just under `i64::MAX` and just over `i64::MIN`.
fn spread(kind: u8, x: i64) -> i64 {
    match kind {
        0 => x,
        1 => x * 1_000_003 - 20_000_000,
        2 => match x % 5 {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => x,
        },
        3 => i64::MAX - 50 + x,
        _ => i64::MIN + x,
    }
}

/// A range bound: a placed value, or one just past the smallest or largest.
fn bound(kind: u8, x: i64) -> i64 {
    match x {
        ..=-1 => spread(kind, 0).saturating_sub(1),
        51.. => spread(kind, 50).saturating_add(1),
        _ => spread(kind, x),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 800, ..ProptestConfig::default() })]

    /// `int_range_rows` equals a row-by-row filter on a column's first call
    /// (a scan), its second (which sorts the rows) and its third (which
    /// reads that order): NULLs, duplicates and empty columns; dense and
    /// sparse spans; `low > high`, ranges past every value, and ranges wide
    /// enough to scan.
    #[test]
    fn int_range_rows_is_a_filter_on_every_call(
        cells in proptest::collection::vec((0u8..10, 0i64..=50), 0..150),
        nulls in 0u8..11,
        kind in 0u8..5,
        ranges in proptest::collection::vec((-1i64..=51, -3i64..=52, 0u8..4), 3..4),
    ) {
        let mut col = Column::with_capacity(DataType::Int, cells.len());
        for &(p, x) in &cells {
            col.push(match p < nulls {
                true => Value::Null,
                false => Value::Int(spread(kind, x)),
            });
        }
        let col = Col::from(col);
        for (call, &(from, width, open)) in ranges.iter().enumerate() {
            let low = if open & 1 == 1 { i64::MIN } else { bound(kind, from) };
            let high = if open & 2 == 2 { i64::MAX } else { bound(kind, from + width) };
            let want: Vec<u32> = (0..col.len())
                .filter(|&r| col.int_at(r).is_some_and(|x| low <= x && x <= high))
                .map(|r| r as u32)
                .collect();
            prop_assert_eq!(col.int_range_rows(low, high), want, "call {} of [{}, {}]", call + 1, low, high);
        }
    }
}

/// Each row of a random three-column table: an integer, a float and a
/// string, any of them NULL.
fn any_row() -> impl Strategy<Value = Vec<Value>> {
    let int =
        (0u8..8, -20i64..20).prop_map(|(n, x)| if n == 0 { Value::Null } else { Value::Int(x) });
    let float = (0u8..8, -4i64..4).prop_map(|(n, x)| match n {
        0 => Value::Null,
        _ => Value::Float(x as f64 / 4.0),
    });
    let string = (0u8..8, 0u8..5).prop_map(|(n, x)| match n {
        0 => Value::Null,
        _ => Value::str(format!("s{x}")),
    });
    (int, float, string).prop_map(|(a, b, c)| vec![a, b, c])
}

fn three_columns() -> Schema {
    Schema::new(vec![
        Field::new("t.i", DataType::Int),
        Field::new("t.f", DataType::Float),
        Field::new("t.s", DataType::Str),
    ])
}

/// Row positions into `n` rows: none, every row in order, or `picks`
/// (each taken modulo `n`), which repeat some rows and skip others.
fn index_of(kind: u8, picks: &[u32], n: usize) -> Vec<u32> {
    match (kind, n) {
        (0, _) | (_, 0) => Vec::new(),
        (1, _) => (0..n as u32).collect(),
        _ => picks.iter().map(|&p| p % n as u32).collect(),
    }
}

/// The parts of a [`Table::concat`].
type Parts<'a> = Vec<(&'a Table, Option<&'a [u32]>)>;

/// The table of `base`'s rows at `idx`, values copied: what a gathered
/// copy of `base.take(idx)` holds.
fn gathered(base: &Table, idx: &[u32]) -> Table {
    let rows = idx.iter().map(|&r| base.row(r as usize)).collect();
    Table::from_rows(base.schema.clone(), rows, base.bytes_per_row)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    /// A table read through row indices equals its gathered copy under
    /// `row`, `fingerprint`, `==`, `take`, `concat` and integer range and
    /// partition selections: NULLs and strings, empty, identity and
    /// repeating indices, and concat parts that mix indexed and plain
    /// columns, one base table and two.
    #[test]
    fn an_indexed_table_equals_its_gathered_copy(
        rows in proptest::collection::vec(any_row(), 0..30),
        (kind, picks) in (0u8..4, proptest::collection::vec(0u32..1000, 0..40)),
        (sel, ranges) in (
            proptest::collection::vec(0u32..1000, 0..20),
            proptest::collection::vec((-22i64..22, 0i64..12), 3..4),
        ),
    ) {
        let base = Table::from_rows(three_columns(), rows, 40);
        let idx = index_of(kind, &picks, base.len());
        let indexed = base.take(&idx);
        let copy = gathered(&base, &idx);
        prop_assert!(indexed.columns().iter().all(|c| c.idx().is_some()));
        prop_assert!(copy.columns().iter().all(|c| c.idx().is_none()));
        prop_assert_eq!(indexed.len(), copy.len());
        for r in 0..copy.len() {
            prop_assert_eq!(indexed.row(r), copy.row(r));
        }
        prop_assert_eq!(indexed.fingerprint(), copy.fingerprint());
        prop_assert_eq!(&indexed, &copy);
        prop_assert_eq!(&copy, &indexed);

        // A take of each: one composed index against a fresh selection.
        let sel = index_of(2, &sel, indexed.len());
        prop_assert_eq!(indexed.take(&sel), gathered(&copy, &sel));
        prop_assert_eq!(indexed.take(&sel).fingerprint(), copy.take(&sel).fingerprint());

        // Concat: indexed and plain parts over one base, then a second,
        // distinct base, with and without row selections.
        let mut reversed: Vec<Vec<Value>> = copy.rows().collect();
        reversed.reverse();
        let other = Table::from_rows(three_columns(), reversed, 40);
        let some: &[u32] = &sel;
        let mixes: [Parts<'_>; 4] = [
            vec![(&indexed, None), (&base, None), (&indexed, Some(some))],
            vec![(&base, Some(&idx)), (&indexed, None)],
            vec![(&indexed, None), (&copy, Some(some)), (&other, None)],
            vec![],
        ];
        for parts in &mixes {
            let want: Vec<Vec<Value>> = parts
                .iter()
                .flat_map(|&(t, sel)| match sel {
                    Some(sel) => sel.iter().map(|&r| t.row(r as usize)).collect::<Vec<_>>(),
                    None => t.rows().collect(),
                })
                .collect();
            let got = Table::concat(three_columns(), parts, 40);
            prop_assert_eq!(got.rows().collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(got, Table::from_rows(three_columns(), want, 40));
        }

        // Integer ranges, three calls each (a scan, the sort, the order),
        // and a partition, on the integer column.
        let (a, b) = (indexed.column(0), copy.column(0));
        for &(low, width) in &ranges {
            for call in 0..3 {
                prop_assert_eq!(
                    a.int_range_rows(low, low + width),
                    b.int_range_rows(low, low + width),
                    "call {} of [{}, {}]", call + 1, low, low + width
                );
            }
        }
        let mut bounds: Vec<(i64, i64)> = ranges.iter().map(|&(low, width)| (low, low + width)).collect();
        bounds.sort_unstable();
        bounds.dedup_by(|next, kept| next.0 <= kept.1);
        prop_assert_eq!(a.int_partition_rows(&bounds), b.int_partition_rows(&bounds));
    }
}

#[test]
fn one_index_serves_every_column_of_a_take() {
    let base = Table::from_rows(
        three_columns(),
        vec![vec![Value::Int(1), Value::Null, Value::str("a")]; 3],
        8,
    );
    let t = base.take(&[2, 2, 0]);
    let idx = t.column(0).idx().expect("an indexed column");
    for (c, b) in t.columns().iter().zip(base.columns()) {
        assert!(Arc::ptr_eq(c.data(), b.data()), "values are shared");
        assert!(Arc::ptr_eq(c.idx().unwrap(), idx), "one index for all");
    }
}

/// `cells` in one integer column, wide whatever the values.
fn wide(cells: &[Option<i64>]) -> Column {
    let mut c = Column::from_ints_wide(Vec::new());
    cells
        .iter()
        .for_each(|x| c.push(x.map_or(Value::Null, Value::Int)));
    c
}

/// `cells` in one integer column narrow over `base` while they fit it: a
/// column of `base` alone, the cells appended, `base` dropped.
fn narrow(cells: &[Option<i64>], base: i64) -> Column {
    let mut c = Column::from_ints(vec![base]);
    cells
        .iter()
        .for_each(|x| c.push(x.map_or(Value::Null, Value::Int)));
    c.gather_or_null(&(1..=cells.len() as u32).collect::<Vec<_>>())
}

/// Whether every value lies within 2³² of `base`, at or above it.
fn fits(cells: &[Option<i64>], base: i64) -> bool {
    (cells.iter().flatten())
        .all(|&x| (0..1i128 << 32).contains(&(i128::from(x) - i128::from(base))))
}

/// Integer cells, any of them NULL, over one of three spans: a narrow one
/// anywhere, one of exactly 2³² − 1 (its ends always drawn), and the whole
/// of `i64`.
fn int_cells() -> impl Strategy<Value = (Vec<Option<i64>>, i64)> {
    let span = u32::MAX as i64;
    (
        (0u8..3, any::<i64>()),
        proptest::collection::vec((0u8..6, any::<u32>()), 0..40),
        0i64..3,
    )
        .prop_map(move |((kind, origin), cells, slack)| {
            let origin = match kind {
                0 => origin.clamp(i64::MIN + 3, i64::MAX - 60),
                1 => origin.clamp(i64::MIN + 3, i64::MAX - span),
                _ => 0,
            };
            let mut cells: Vec<Option<i64>> = (cells.into_iter())
                .map(|(null, x)| {
                    (null > 0).then(|| match kind {
                        0 => origin + i64::from(x % 50),
                        1 => origin + i64::from(x),
                        _ => i64::from(x as i32) << 32 | i64::from(x),
                    })
                })
                .collect();
            match kind {
                1 => cells.extend([Some(origin), Some(origin + span)]),
                2 => cells.extend([Some(i64::MIN), Some(i64::MAX)]),
                _ => {}
            }
            let min = cells.iter().flatten().min().copied().unwrap_or(origin);
            (cells, min.saturating_sub(slack))
        })
}

/// The fingerprint of `c` as a one-column table.
fn text(c: &Column) -> Arc<[String]> {
    Table::new(
        Schema::new(vec![Field::new("x", DataType::Int)]),
        vec![c.clone().into()],
        8,
    )
    .fingerprint()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    /// A column of values built wide and the same values built narrow
    /// agree under every reader: value by value, pair by pair, as text and
    /// under `==`; every range on its first three calls, in place and
    /// through an index; partitions and key bitmaps; takes, and concatenations
    /// of narrow and wide parts over different bases. A span that fits the
    /// narrow word is stored in it.
    #[test]
    fn a_narrow_column_reads_as_its_wide_twin(
        (cells, base) in int_cells(),
        (more, more_base) in int_cells(),
        picks in proptest::collection::vec(any::<u32>(), 0..30),
        probes in proptest::collection::vec((any::<u32>(), any::<u32>()), 3),
    ) {
        let (w, n) = (wide(&cells), narrow(&cells, base));
        let len = cells.len();
        let words = if fits(&cells, base) { 4 } else { 8 };
        let mask = if n.has_nulls() { len } else { 0 };
        prop_assert_eq!(n.value_bytes(), words * len + mask);
        prop_assert_eq!(w.value_bytes(), 8 * len + mask);
        for i in 0..len {
            prop_assert_eq!(n.value(i), w.value(i));
            prop_assert_eq!(n.int_at(i), w.int_at(i));
            for j in 0..len {
                prop_assert_eq!(n.cmp_at(i, j), w.cmp_at(i, j));
                prop_assert_eq!(n.same_at(i, &w, j), w.same_at(i, &w, j));
                prop_assert_eq!(w.same_at(i, &n, j), w.same_at(i, &w, j));
            }
        }
        prop_assert_eq!(text(&n), text(&w));
        prop_assert_eq!(&n, &w);
        prop_assert_eq!(&w, &n);
        prop_assert_eq!(n != wide(&more), w != wide(&more));

        // Range selections, in place and read through an index.
        let idx: Vec<u32> = match len {
            0 => Vec::new(),
            _ => picks.iter().map(|&p| p % len as u32).collect(),
        };
        let cols = [
            (Col::from(n.clone()), Col::from(w.clone())),
            (
                Col::indexed(Arc::new(n.clone()), Arc::new(idx.clone())),
                Col::indexed(Arc::new(w.clone()), Arc::new(idx.clone())),
            ),
        ];
        let values: Vec<i64> = cells.iter().flatten().copied().collect();
        let at = |k: u32| values.get(k as usize % values.len().max(1)).copied().unwrap_or(0);
        for (nc, wc) in &cols {
            prop_assert!(nc == wc);
            // A float twin read through the same index, holding each row's
            // position where the integer column holds a value.
            let mut f = Column::with_capacity(DataType::Float, len);
            for p in 0..len {
                f.push(if n.is_null(p) { Value::Null } else { Value::Float(p as f64) });
            }
            let fc = match nc.idx() {
                None => Col::from(f),
                Some(ix) => Col::indexed(Arc::new(f), Arc::clone(ix)),
            };
            for (call, &(a, b)) in probes.iter().enumerate() {
                let (low, high) = (at(a).min(at(b)), at(a).max(at(b)));
                let want: Vec<u32> = (0..wc.len())
                    .filter(|&r| wc.int_at(r).is_some_and(|x| low <= x && x <= high))
                    .map(|r| r as u32)
                    .collect();
                prop_assert_eq!(nc.int_range_rows(low, high), want.clone(), "call {}", call + 1);
                prop_assert_eq!(wc.int_range_rows(low, high), want);
                let ranges = [(i64::MIN, low.saturating_sub(1)), (low, high)];
                let ranges = if low == i64::MIN { &ranges[1..] } else { &ranges[..] };
                prop_assert_eq!(nc.int_partition_rows(ranges), wc.int_partition_rows(ranges));
                // The filter, over every row and over an ascending selection.
                let within = |x: i64| low <= x && x <= high;
                for sel in [None, Some((0..wc.len() as u32).step_by(2).collect::<Vec<_>>())] {
                    let rows = sel.clone().unwrap_or_else(|| (0..wc.len() as u32).collect());
                    let want: Vec<u32> = (rows.into_iter())
                        .filter(|&r| wc.int_at(r as usize).is_some_and(within))
                        .collect();
                    prop_assert_eq!(nc.keep_ints(sel.clone(), within), want.clone());
                    prop_assert_eq!(wc.keep_ints(sel.clone(), within), want.clone());
                    let passes = |p: f64| nc.data().int_at(p as usize).is_some_and(within);
                    prop_assert_eq!(fc.keep_floats(sel.clone(), passes), want);
                    prop_assert!(nc.keep_floats(sel.clone(), passes).is_empty());
                    prop_assert!(nc.keep_codes(sel, |_| true).is_empty());
                }
            }
        }
        for &(first, span) in &[(base, 40usize), (at(probes[0].0), 3), (i64::MIN, 2)] {
            prop_assert_eq!(n.key_bits(first, span), w.key_bits(first, span));
        }
        prop_assert_eq!(n.surrogate_first(), w.surrogate_first());

        // Takes share the values; concatenations gather parts over two
        // columns, narrow and wide, under their different bases.
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let table = |c: Column| Table::new(schema.clone(), vec![c.into()], 8);
        let (tn, tw) = (table(n.clone()), table(w.clone()));
        prop_assert_eq!(tn.take(&idx), tw.take(&idx));
        let (mn, mw) = (table(narrow(&more, more_base)), table(wide(&more)));
        let sel: &[u32] = &idx;
        let mixed = Table::concat(schema.clone(), &[(&tn, Some(sel)), (&mw, None), (&mn, None)], 8);
        let all = Table::concat(schema.clone(), &[(&tw, Some(sel)), (&mw, None), (&mw, None)], 8);
        prop_assert_eq!(&mixed, &all);
        let want: Vec<Value> = (idx.iter().map(|&p| w.value(p as usize)))
            .chain((0..2 * more.len()).map(|i| wide(&more).value(i % more.len().max(1))))
            .collect();
        prop_assert_eq!(mixed.rows().map(|r| r[0].clone()).collect::<Vec<_>>(), want);
    }
}
