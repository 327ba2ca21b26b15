//! Property tests for DeepSea's statistics and policy layers.

use deepsea_core::policy::ValueModel;
use deepsea_core::registry::PartitionState;
use deepsea_core::stats::{decay, FragStats, ViewStats};
use deepsea_core::Interval;
use deepsea_storage::FileId;
use proptest::prelude::*;

proptest! {
    /// DEC is within [0,1], monotone in event recency, and zero past tmax.
    #[test]
    fn decay_bounds_and_monotonicity(
        tnow in 1u64..10_000,
        t1 in 1u64..10_000,
        t2 in 1u64..10_000,
        tmax in 1u64..10_000,
    ) {
        let (t1, t2) = (t1.min(tnow), t2.min(tnow));
        let d1 = decay(tnow, t1, tmax);
        let d2 = decay(tnow, t2, tmax);
        prop_assert!((0.0..=1.0).contains(&d1));
        if t1 <= t2 {
            // Older events never decay less... unless t1 already timed out.
            prop_assert!(d1 <= d2 + 1e-12);
        }
        if tnow - t1 > tmax {
            prop_assert_eq!(d1, 0.0);
        }
    }

    /// View benefit is monotone in recorded events: adding a use never
    /// lowers B or Φ.
    #[test]
    fn benefit_monotone_in_events(
        savings in proptest::collection::vec(0.0f64..1_000.0, 1..20),
        tmax in 1u64..1_000,
    ) {
        let mut s = ViewStats::estimated(1_000, 10.0);
        let mut prev_b = 0.0;
        for (i, sv) in savings.iter().enumerate() {
            let t = (i + 1) as u64;
            s.record_use(t, *sv);
            let b = s.benefit(t, tmax);
            // At the same tnow a new event adds sv·1.0, so B grows by sv —
            // but earlier events decayed; compare against the *recomputed*
            // value with one fewer event at this tnow.
            let mut without = s.clone();
            without.events.pop();
            prop_assert!(b + 1e-9 >= without.benefit(t, tmax));
            prev_b = b;
        }
        prop_assert!(prev_b >= 0.0);
    }

    /// Fragment Φ is scale-consistent: doubling view cost doubles benefit
    /// per hit and quadruples Φ (cost appears twice in the formula).
    #[test]
    fn fragment_phi_scales_with_view_cost(
        hits in proptest::collection::vec(1u64..100, 1..10),
        cost in 1.0f64..1_000.0,
        frag_size in 1u64..1_000,
        view_size in 1_000u64..100_000,
    ) {
        let mut f = FragStats::default();
        let tnow = 100;
        for h in &hits {
            f.record_hit(*h);
        }
        let phi1 = f.phi(frag_size, view_size, cost, tnow, 1_000);
        let phi2 = f.phi(frag_size, view_size, cost * 2.0, tnow, 1_000);
        prop_assert!((phi2 - 4.0 * phi1).abs() <= 1e-6 * phi1.abs().max(1.0));
    }

    /// Across all value models: a fragment with strictly more (and more
    /// recent) hits never ranks below an identical fragment with fewer hits.
    #[test]
    fn hotter_fragment_never_ranks_lower(
        base_hits in 1usize..10,
        extra in 1usize..10,
        tnow in 20u64..100,
    ) {
        for vm in [
            ValueModel::DeepSea { use_mle: false },
            ValueModel::DeepSea { use_mle: true },
            ValueModel::Nectar,
            ValueModel::NectarPlus,
        ] {
            let mut p = PartitionState::new("a.k", Interval::new(0, 199));
            let cold = p.track(Interval::new(0, 99), 500).0.id;
            let hot = p.track(Interval::new(100, 199), 500).0.id;
            for (id, n) in [(cold, base_hits), (hot, base_hits + extra)] {
                let f = p.frag_mut(id).unwrap();
                f.file = Some(FileId(id.0));
                for i in 0..n {
                    // hot gets its extra hits later (more recent)
                    f.stats.record_hit(tnow - (n - i) as u64);
                }
            }
            let values = vm.fragment_values(&p, 1_000, 50.0, tnow, 1_000);
            prop_assert!(
                values[1] + 1e-9 >= values[0],
                "{vm:?}: hot {} < cold {}",
                values[1],
                values[0]
            );
        }
    }

    /// Boundary partitions from arbitrary split points always cover the
    /// domain disjointly, and estimate_size is conserved across them.
    #[test]
    fn boundary_partition_conserves_size(
        points in proptest::collection::vec(1i64..10_000, 0..20),
        view_size in 1_000u64..1_000_000,
    ) {
        let mut p = PartitionState::new("a.k", Interval::new(0, 10_000));
        for pt in points {
            p.add_boundary(pt);
        }
        let parts = p.boundary_partition();
        prop_assert!(deepsea_core::interval::is_horizontal_partition(
            &parts,
            &Interval::new(0, 10_000)
        ));
        let total: u64 = parts.iter().map(|iv| p.estimate_size(iv, view_size)).sum();
        // Width-proportional estimates round per fragment; conservation holds
        // within one byte per fragment.
        let slack = parts.len() as u64;
        prop_assert!(
            total >= view_size.saturating_sub(slack) && total <= view_size + slack,
            "estimated {total} vs view {view_size}"
        );
    }
}
