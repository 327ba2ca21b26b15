//! Closed integer intervals and the fragmentation algebra of Definitions 1–2.
//!
//! The paper works over ordered attribute domains and mixes open/closed
//! interval endpoints (`[l', l)`, `(u, u']`, …). Every partition attribute in
//! the evaluation is an integer (`item_sk`, quantized `ra`), so we normalize
//! all intervals to **closed integer intervals** — `(a, b]` becomes
//! `[a+1, b]` — which makes disjointness and coverage checks exact.

use std::fmt;

/// A non-empty closed integer interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl Interval {
    /// Create `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi` (empty intervals are represented by `Option`).
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// Width (number of integer points).
    pub fn width(&self) -> u64 {
        (self.hi - self.lo) as u64 + 1
    }

    /// Midpoint (rounded down).
    pub fn midpoint(&self) -> i64 {
        self.lo + (self.hi - self.lo) / 2
    }

    /// Does the interval fully contain `other`?
    pub fn contains(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Do the intervals share at least one point?
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Intersection, if non-empty.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then(|| Interval::new(lo, hi))
    }

    /// The smallest interval holding both.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Fraction of this interval covered by `other` (for size estimation,
    /// §7.2: `‖Icand ∩ I‖ / ‖I‖`).
    pub fn overlap_fraction(&self, other: &Interval) -> f64 {
        match self.intersect(other) {
            Some(iv) => iv.width() as f64 / self.width() as f64,
            None => 0.0,
        }
    }

    /// Split at an interior point: `[lo, p-1]` and `[p, hi]`.
    /// Returns `None` when `p` is not an interior split point (`p <= lo` or
    /// `p > hi`), in which case no split is possible.
    pub fn split_at(&self, p: i64) -> Option<(Interval, Interval)> {
        if p <= self.lo || p > self.hi {
            return None;
        }
        Some((Interval::new(self.lo, p - 1), Interval::new(p, self.hi)))
    }

    /// Chop into `k` near-equal-width pieces (used by the φ fragment-size
    /// bound, §9 "Bounding Fragment Size").
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn chop(&self, k: usize) -> Vec<Interval> {
        assert!(k > 0);
        let k = (k as u64).min(self.width()) as i64;
        let width = self.width() as i64;
        let base = width / k;
        let rem = width % k;
        let mut out = Vec::with_capacity(k as usize);
        let mut lo = self.lo;
        for i in 0..k {
            let w = base + i64::from(i < rem);
            out.push(Interval::new(lo, lo + w - 1));
            lo += w;
        }
        out
    }
}

/// Is the fragmentation a **horizontal partition** of `domain`
/// (Definition 1): intervals pairwise disjoint and covering the domain?
pub fn is_horizontal_partition(intervals: &[Interval], domain: &Interval) -> bool {
    covers(intervals, domain) && pairwise_disjoint(intervals)
}

/// Is the fragmentation an **overlapping partitioning** of `domain`
/// (Definition 2): union of intervals equals the domain (overlap allowed)?
pub fn is_overlapping_partitioning(intervals: &[Interval], domain: &Interval) -> bool {
    covers(intervals, domain)
}

/// Do the intervals jointly cover every point of `domain`?
pub fn covers(intervals: &[Interval], domain: &Interval) -> bool {
    let mut ivs: Vec<&Interval> = intervals.iter().filter(|iv| iv.overlaps(domain)).collect();
    ivs.sort_by_key(|iv| (iv.lo, iv.hi));
    let mut covered_to = domain.lo - 1;
    for iv in ivs {
        if iv.lo > covered_to + 1 {
            return false; // gap
        }
        covered_to = covered_to.max(iv.hi);
        if covered_to >= domain.hi {
            return true;
        }
    }
    covered_to >= domain.hi
}

/// Are the intervals pairwise disjoint?
pub fn pairwise_disjoint(intervals: &[Interval]) -> bool {
    let mut sorted: Vec<&Interval> = intervals.iter().collect();
    sorted.sort_by_key(|iv| (iv.lo, iv.hi));
    sorted.windows(2).all(|w| w[0].hi < w[1].lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_and_midpoint() {
        assert_eq!(Interval::new(0, 0).width(), 1);
        assert_eq!(Interval::new(-5, 4).width(), 10);
        assert_eq!(Interval::new(0, 10).midpoint(), 5);
        assert_eq!(Interval::new(0, 11).midpoint(), 5);
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn empty_rejected() {
        Interval::new(3, 2);
    }

    #[test]
    fn containment_and_overlap() {
        let a = Interval::new(0, 10);
        let b = Interval::new(3, 7);
        assert!(a.contains(&b));
        assert!(!b.contains(&a));
        assert!(a.overlaps(&b));
        assert!(a.overlaps(&Interval::new(10, 20)), "shared endpoint");
        assert!(!a.overlaps(&Interval::new(11, 20)));
        let point = |p| Interval::new(p, p);
        assert!(a.contains(&point(0)) && a.contains(&point(10)) && !a.contains(&point(11)));
    }

    #[test]
    fn intersect_cases() {
        let a = Interval::new(0, 10);
        assert_eq!(
            a.intersect(&Interval::new(5, 15)),
            Some(Interval::new(5, 10))
        );
        assert_eq!(a.intersect(&Interval::new(20, 30)), None);
        assert_eq!(a.intersect(&a), Some(a));
    }

    #[test]
    fn overlap_fraction() {
        let a = Interval::new(0, 9); // width 10
        assert!((a.overlap_fraction(&Interval::new(5, 100)) - 0.5).abs() < 1e-12);
        assert_eq!(a.overlap_fraction(&Interval::new(50, 60)), 0.0);
        assert_eq!(a.overlap_fraction(&a), 1.0);
    }

    #[test]
    fn split_at_interior() {
        let a = Interval::new(0, 10);
        let (l, r) = a.split_at(4).unwrap();
        assert_eq!(l, Interval::new(0, 3));
        assert_eq!(r, Interval::new(4, 10));
        assert_eq!(l.width() + r.width(), a.width());
        assert!(a.split_at(0).is_none(), "split at lo is a no-op");
        assert!(a.split_at(11).is_none());
        assert!(a.split_at(10).is_some(), "last point splits off [10,10]");
    }

    #[test]
    fn chop_covers_exactly() {
        let a = Interval::new(0, 10); // width 11
        let parts = a.chop(4);
        assert_eq!(parts.len(), 4);
        assert!(is_horizontal_partition(&parts, &a));
        assert_eq!(parts.iter().map(Interval::width).sum::<u64>(), 11);
        // chop into more pieces than points clamps
        let tiny = Interval::new(0, 1).chop(10);
        assert_eq!(tiny.len(), 2);
    }

    #[test]
    fn horizontal_partition_detection() {
        let d = Interval::new(1, 6);
        // Example 1 of the paper.
        let part = vec![
            Interval::new(1, 2),
            Interval::new(3, 4),
            Interval::new(5, 6),
        ];
        assert!(is_horizontal_partition(&part, &d));
        let overlapping = vec![
            Interval::new(1, 4),
            Interval::new(3, 4),
            Interval::new(5, 6),
        ];
        assert!(!is_horizontal_partition(&overlapping, &d));
        assert!(is_overlapping_partitioning(&overlapping, &d));
        let gap = vec![Interval::new(1, 2), Interval::new(5, 6)];
        assert!(!is_overlapping_partitioning(&gap, &d));
        let again = vec![Interval::new(1, 4), Interval::new(5, 6)];
        assert!(is_horizontal_partition(&again, &d));
    }

    #[test]
    fn covers_handles_containment_chains() {
        let d = Interval::new(0, 100);
        // A big interval containing later small ones; sorted-by-lo scan must
        // keep the running max.
        let ivs = vec![
            Interval::new(0, 100),
            Interval::new(10, 20),
            Interval::new(30, 40),
        ];
        assert!(covers(&ivs, &d));
        assert!(!covers(&[Interval::new(1, 100)], &d), "misses point 0");
    }

    #[test]
    fn disjointness() {
        assert!(pairwise_disjoint(&[
            Interval::new(0, 1),
            Interval::new(2, 3)
        ]));
        assert!(!pairwise_disjoint(&[
            Interval::new(0, 2),
            Interval::new(2, 3)
        ]));
        assert!(pairwise_disjoint(&[]));
    }
}
