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
    let mut lines = Table::from_rows(schema, vec![vec![v]], 8).fingerprint();
    let line = lines.pop().expect("one row");
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
