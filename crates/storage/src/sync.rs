//! The sanctioned concurrency surface for the epoch handoff between
//! DeepSea's single writer and its snapshot readers.
//!
//! This module is deliberately tiny: one cell holding the latest published
//! `(epoch, Arc<T>)` pair. The writer replaces the pair after each committed
//! query; readers grab a cheap `Arc` clone and keep answering queries
//! against that frozen state for as long as they like — publication never
//! blocks on in-flight reads, and a reader never observes a half-updated
//! catalog. A [`Stamp`] names one state of a shared value for memos
//! scoped to it.
//!
//! Layering note: `deepsea-lint` L1 forbids `std::thread` (and friends)
//! outside the storage crate precisely so that *this* is the only
//! synchronization primitive the upper layers build on; the simulated
//! scheduler in `deepsea-core::server` stays single-threaded and
//! deterministic, and its real-thread leg (`ViewServer::run_threaded`) routes
//! all cross-thread state through an [`EpochCell`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A single-writer, multi-reader publication cell: the latest epoch of a
/// shared immutable value.
///
/// Readers pay one `RwLock` read acquisition and one `Arc` clone per load;
/// the returned value is then lock-free to use and stays valid after any
/// number of later publications (old epochs are freed when their last
/// reader drops them).
#[derive(Debug)]
pub struct EpochCell<T> {
    slot: RwLock<(u64, Arc<T>)>,
}

impl<T> EpochCell<T> {
    /// Create a cell publishing `value` as epoch 0.
    pub fn new(value: T) -> Self {
        Self {
            slot: RwLock::new((0, Arc::new(value))),
        }
    }

    /// Publish a new epoch. Returns the epoch number assigned (strictly
    /// monotonic, one per publication).
    pub fn publish(&self, value: T) -> u64 {
        let mut slot = self.slot.write().unwrap_or_else(|p| p.into_inner());
        slot.0 += 1;
        slot.1 = Arc::new(value);
        slot.0
    }

    /// Publish a new epoch with an explicit epoch number (e.g. the writer's
    /// committed-query count). Must be monotonically non-decreasing; this is
    /// asserted in debug builds.
    pub fn publish_at(&self, epoch: u64, value: T) {
        let mut slot = self.slot.write().unwrap_or_else(|p| p.into_inner());
        debug_assert!(epoch >= slot.0, "epochs must not go backwards");
        slot.0 = epoch;
        slot.1 = Arc::new(value);
    }

    /// Load the latest published `(epoch, value)`.
    pub fn load(&self) -> (u64, Arc<T>) {
        let slot = self.slot.read().unwrap_or_else(|p| p.into_inner());
        (slot.0, Arc::clone(&slot.1))
    }

    /// The current epoch number without touching the value.
    pub fn epoch(&self) -> u64 {
        self.slot.read().unwrap_or_else(|p| p.into_inner()).0
    }
}

/// A process-unique number naming one state of a mutable value, so a memo
/// scoped by stamps never mistakes one world for another, even one that
/// reuses the address of a freed predecessor. A stamp is never reissued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp(u64);

impl Stamp {
    /// A stamp no earlier call returned.
    pub fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Self(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// A fresh stamp: a value built by `Default` is a state of its own.
impl Default for Stamp {
    fn default() -> Self {
        Self::fresh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_bumps_epoch_and_swaps_value() {
        let cell = EpochCell::new(10u64);
        assert_eq!(cell.load().0, 0);
        assert_eq!(*cell.load().1, 10);
        assert_eq!(cell.publish(11), 1);
        assert_eq!(cell.publish(12), 2);
        let (epoch, v) = cell.load();
        assert_eq!((epoch, *v), (2, 12));
    }

    #[test]
    fn old_epoch_stays_valid_after_publication() {
        let cell = EpochCell::new(vec![1, 2, 3]);
        let (e0, old) = cell.load();
        cell.publish(vec![4, 5]);
        // The reader's frozen state is untouched by the new epoch.
        assert_eq!(e0, 0);
        assert_eq!(*old, vec![1, 2, 3]);
        assert_eq!(*cell.load().1, vec![4, 5]);
    }

    #[test]
    fn publish_at_uses_caller_epoch() {
        let cell = EpochCell::new(0u8);
        cell.publish_at(7, 1);
        assert_eq!(cell.epoch(), 7);
        cell.publish_at(7, 2); // equal is allowed (idempotent republish)
        assert_eq!(*cell.load().1, 2);
    }

    #[test]
    fn cell_is_shareable_across_threads() {
        let cell = std::sync::Arc::new(EpochCell::new(0usize));
        std::thread::scope(|s| {
            let c = std::sync::Arc::clone(&cell);
            s.spawn(move || {
                for i in 1..=100 {
                    c.publish(i);
                }
            });
            let mut last = 0;
            for _ in 0..100 {
                let (epoch, v) = cell.load();
                // Epoch and value move together atomically.
                assert_eq!(epoch as usize, *v);
                assert!(epoch >= last, "epochs are monotonic");
                last = epoch;
            }
        });
        assert_eq!(cell.epoch(), 100);
    }

    #[test]
    fn stamps_are_never_reissued() {
        let (a, b) = (Stamp::fresh(), Stamp::default());
        assert!(a < b, "stamps rise");
        assert_ne!(Stamp::fresh(), b);
        let copy = a;
        assert_eq!(copy, a, "a copy names the same state");
    }
}
