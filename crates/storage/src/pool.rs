//! Materialized-view pool storage accounting.

/// Error returned when an accounting operation is inconsistent: a reservation
/// that would exceed the pool limit, or a release of more bytes than are
/// reserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolError {
    /// Bytes that were requested.
    pub requested: u64,
    /// Bytes available for the operation (headroom for a reserve, reserved
    /// bytes for a release).
    pub available: u64,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pool limit exceeded: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for PoolError {}

/// Tracks the storage used by the materialized-view pool against the limit
/// `Smax` (Definition 4, constraint 3: `S(Ci) <= Smax` for all i).
///
/// `smax == None` models the paper's "∞" pool-size setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolAccountant {
    smax: Option<u64>,
    used: u64,
    violations: u64,
}

impl PoolAccountant {
    /// A pool bounded by `smax` simulated bytes.
    pub fn bounded(smax: u64) -> Self {
        Self {
            smax: Some(smax),
            used: 0,
            violations: 0,
        }
    }

    /// An unbounded pool (the paper's `∞` configuration).
    pub fn unbounded() -> Self {
        Self {
            smax: None,
            used: 0,
            violations: 0,
        }
    }

    /// The configured limit, if any.
    pub fn smax(&self) -> Option<u64> {
        self.smax
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still available under the limit; an unbounded pool's limit is
    /// `u64::MAX`, so a reservation can never wrap its usage.
    pub fn available(&self) -> u64 {
        self.smax.unwrap_or(u64::MAX).saturating_sub(self.used)
    }

    /// Whether a reservation of `bytes` would fit.
    pub fn fits(&self, bytes: u64) -> bool {
        bytes <= self.available()
    }

    /// Reserve `bytes`; fails without side effects if it would exceed `Smax`.
    pub fn reserve(&mut self, bytes: u64) -> Result<(), PoolError> {
        if !self.fits(bytes) {
            return Err(PoolError {
                requested: bytes,
                available: self.available(),
            });
        }
        self.used += bytes;
        Ok(())
    }

    /// Release previously reserved bytes.
    ///
    /// Releasing more than is reserved is an accounting bug in the caller.
    /// It used to panic in debug builds and saturate silently in release
    /// builds; now it is ledger-visible in every build: usage is clamped to
    /// zero, the [`PoolAccountant::violations`] counter is bumped, and the
    /// error reports how many bytes were actually reserved.
    pub fn release(&mut self, bytes: u64) -> Result<(), PoolError> {
        if bytes > self.used {
            let available = self.used;
            self.used = 0;
            self.violations += 1;
            return Err(PoolError {
                requested: bytes,
                available,
            });
        }
        self.used -= bytes;
        Ok(())
    }

    /// Number of over-release accounting violations observed so far. Any
    /// non-zero value indicates a bookkeeping bug in the caller.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Overwrite the usage counter with an externally reconciled value (the
    /// fsck sweep re-derives usage from the live catalog after recovery).
    pub fn set_used(&mut self, bytes: u64) {
        self.used = bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_reserve_release() {
        let mut p = PoolAccountant::bounded(100);
        assert!(p.reserve(60).is_ok());
        assert_eq!(p.used(), 60);
        assert_eq!(p.available(), 40);
        assert!(!p.fits(41));
        assert!(p.fits(40));
        let err = p.reserve(41).unwrap_err();
        assert_eq!(err.requested, 41);
        assert_eq!(err.available, 40);
        assert_eq!(p.used(), 60, "failed reserve must not change state");
        p.release(60).expect("release within reservation");
        assert_eq!(p.used(), 0);
    }

    #[test]
    fn over_release_is_ledger_visible() {
        let mut p = PoolAccountant::bounded(100);
        p.reserve(10).unwrap();
        let err = p.release(25).unwrap_err();
        assert_eq!(err.requested, 25);
        assert_eq!(err.available, 10);
        assert_eq!(p.used(), 0, "usage clamps to zero, never wraps");
        assert_eq!(p.violations(), 1);
        // Well-formed releases afterwards don't add violations.
        p.reserve(5).unwrap();
        p.release(5).unwrap();
        assert_eq!(p.violations(), 1);
    }

    #[test]
    fn set_used_reconciles() {
        let mut p = PoolAccountant::unbounded();
        p.set_used(42);
        assert_eq!(p.used(), 42);
        p.release(42).unwrap();
        assert_eq!(p.used(), 0);
    }

    #[test]
    fn unbounded_always_fits() {
        let mut p = PoolAccountant::unbounded();
        assert!(p.reserve(u64::MAX / 2).is_ok());
        assert!(p.fits(u64::MAX / 4));
        assert_eq!(p.smax(), None);
    }

    #[test]
    fn unbounded_usage_never_wraps() {
        let mut p = PoolAccountant::unbounded();
        p.reserve(u64::MAX / 2).unwrap();
        p.reserve(u64::MAX / 2).unwrap();
        let err = p.reserve(2).unwrap_err();
        assert_eq!(err.available, 1);
        assert_eq!(
            p.used(),
            u64::MAX - 1,
            "failed reserve must not change state"
        );
    }

    #[test]
    fn exact_fill_allowed() {
        let mut p = PoolAccountant::bounded(10);
        assert!(p.reserve(10).is_ok());
        assert_eq!(p.available(), 0);
        assert!(p.fits(0));
        assert!(!p.fits(1));
    }

    #[test]
    fn error_displays() {
        let e = PoolError {
            requested: 5,
            available: 3,
        };
        assert!(e.to_string().contains("requested 5"));
    }
}
