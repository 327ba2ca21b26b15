//! Materialized-view pool storage accounting.

/// Error returned when a release names more bytes than are reserved — an
/// accounting bug in the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolError {
    /// Bytes the caller asked to release.
    pub requested: u64,
    /// Bytes that were reserved at the time.
    pub reserved: u64,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pool over-release: requested {} bytes, {} reserved",
            self.requested, self.reserved
        )
    }
}

impl std::error::Error for PoolError {}

/// Counts the storage the materialized-view pool uses, and the accounting
/// violations its callers commit. It enforces no limit: `S(Ci) <= Smax`
/// (Definition 4, constraint 3) is enforced by view selection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolAccountant {
    used: u64,
    violations: u64,
}

impl PoolAccountant {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Reserve `bytes`. Usage saturates at `u64::MAX`, so it never wraps.
    pub fn reserve(&mut self, bytes: u64) {
        self.used = self.used.saturating_add(bytes);
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
            let reserved = self.used;
            self.used = 0;
            self.violations += 1;
            return Err(PoolError {
                requested: bytes,
                reserved,
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
    fn reserves_and_releases_balance() {
        let mut p = PoolAccountant::new();
        assert_eq!(p, PoolAccountant::default());
        p.reserve(30);
        p.reserve(12);
        assert_eq!(p.used(), 42);
        p.release(30).unwrap();
        assert_eq!(p.used(), 12);
        p.release(12).unwrap();
        assert_eq!(p.used(), 0);
        assert_eq!(p.violations(), 0);
    }

    #[test]
    fn over_release_is_ledger_visible() {
        let mut p = PoolAccountant::new();
        p.reserve(10);
        let err = p.release(25).unwrap_err();
        assert_eq!(err.requested, 25);
        assert_eq!(err.reserved, 10);
        assert_eq!(p.used(), 0, "usage clamps to zero, never wraps");
        assert_eq!(p.violations(), 1);
        // Well-formed releases afterwards don't add violations.
        p.reserve(5);
        p.release(5).unwrap();
        assert_eq!(p.violations(), 1);
    }

    #[test]
    fn set_used_reconciles() {
        let mut p = PoolAccountant::new();
        p.set_used(42);
        assert_eq!(p.used(), 42);
        p.release(42).unwrap();
        assert_eq!(p.used(), 0);
    }

    #[test]
    fn usage_saturates_and_never_wraps() {
        let mut p = PoolAccountant::new();
        p.reserve(u64::MAX / 2);
        p.reserve(u64::MAX / 2);
        assert_eq!(p.used(), u64::MAX - 1);
        p.reserve(2);
        assert_eq!(p.used(), u64::MAX, "usage saturates, never wraps");
        p.release(u64::MAX).unwrap();
        assert_eq!(p.violations(), 0);
    }

    #[test]
    fn error_displays() {
        let e = PoolError {
            requested: 5,
            reserved: 3,
        };
        assert_eq!(
            e.to_string(),
            "pool over-release: requested 5 bytes, 3 reserved"
        );
    }
}
