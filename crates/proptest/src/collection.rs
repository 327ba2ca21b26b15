//! `proptest::collection::vec` — vectors of strategy-generated elements.

use rand::rngs::StdRng;
use rand::RngExt;

use crate::strategy::Strategy;

/// Length specification for [`vec()`]: an exact size or a `lo..hi` range.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    /// Exclusive upper bound.
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { lo: n, hi: n + 1 }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        Self {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

/// A `Vec<S::Value>` with length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        let len = rng.random_range(self.size.lo..self.size.hi);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn vec_length_in_range() {
        let s = vec(0i64..5, 2..6);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|x| (0..5).contains(x)));
        }
    }

    #[test]
    fn vec_exact_length() {
        let s = vec((0i64..3, 0i64..3), 10);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(s.sample(&mut rng).len(), 10);
    }
}
