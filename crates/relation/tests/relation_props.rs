//! Property tests for the relational layer: value ordering, predicate
//! semantics, and generator guarantees.

use deepsea_relation::distr::{normal_cdf, WeightedBuckets, Zipf};
use deepsea_relation::generate::{ColumnGen, TableGen};
use deepsea_relation::{DataType, Field, Predicate, Schema, Value};
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
        prop_assert_eq!(t.int_min_max(0), Some((0, rows as i64 - 1)));
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
