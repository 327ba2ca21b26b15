//! The sanctioned concurrency surface for the epoch handoff between
//! DeepSea's single writer and its snapshot readers.
//!
//! This module is deliberately tiny: one cell holding the latest published
//! `(epoch, Arc<T>)` pair. The writer replaces the pair after each committed
//! query; readers grab a cheap `Arc` clone and keep answering queries
//! against that frozen state for as long as they like — publication never
//! blocks on in-flight reads, and a reader never observes a half-updated
//! catalog. The one-slot [`HandoffCell`] carries values reader to writer.
//!
//! Layering note: `deepsea-lint` L1 forbids `std::thread` (and friends)
//! outside the storage crate precisely so that *this* is the only
//! synchronization primitive the upper layers build on; the simulated
//! scheduler in `deepsea-core::server` stays single-threaded and
//! deterministic, and its real-thread leg (`ViewServer::run_threaded`) routes
//! all cross-thread state through an [`EpochCell`].

use std::sync::{Arc, Mutex, RwLock};

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

/// A one-slot hand-off from readers to the writer: the last offer wins, and
/// [`HandoffCell::take_if`] empties the slot whether or not it keeps what it
/// found, so a value never outlives the writer's next look at it.
#[derive(Debug)]
pub struct HandoffCell<T> {
    slot: Mutex<Option<T>>,
}

impl<T> Default for HandoffCell<T> {
    fn default() -> Self {
        Self {
            slot: Mutex::new(None),
        }
    }
}

impl<T> HandoffCell<T> {
    /// Put `value` in the slot, replacing whatever was there.
    pub fn offer(&self, value: T) {
        *self.slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(value);
    }

    /// Empty the slot, returning its value if `keep` accepts it.
    pub fn take_if(&self, keep: impl FnOnce(&T) -> bool) -> Option<T> {
        let taken = self.slot.lock().unwrap_or_else(|p| p.into_inner()).take()?;
        keep(&taken).then_some(taken)
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
    fn handoff_keeps_a_match() {
        let cell = HandoffCell::default();
        cell.offer(5u32);
        assert_eq!(cell.take_if(|v| *v == 5), Some(5));
        assert_eq!(cell.take_if(|_| true), None, "taking empties the slot");
    }

    #[test]
    fn handoff_mismatch_empties_the_slot() {
        let cell = HandoffCell::default();
        cell.offer(5u32);
        assert_eq!(cell.take_if(|v| *v == 6), None);
        assert_eq!(cell.take_if(|_| true), None, "a refused value is dropped");
    }

    #[test]
    fn handoff_later_offer_overwrites() {
        let cell = HandoffCell::default();
        cell.offer(1u32);
        cell.offer(2);
        assert_eq!(cell.take_if(|_| true), Some(2));
    }

    #[test]
    fn handoff_takes_whole_offers_under_contention() {
        let cell = HandoffCell::default();
        let mut taken = Vec::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cell = &cell;
                s.spawn(move || {
                    for i in 0..200u64 {
                        cell.offer((t, i, t * 1000 + i));
                    }
                });
            }
            for _ in 0..400 {
                taken.extend(cell.take_if(|_| true));
            }
        });
        taken.extend(cell.take_if(|_| true));
        // Every value taken is one offer, whole, taken once: its parts
        // agree, and each thread's offers come out in the order it made them.
        assert!(taken.iter().all(|&(t, i, v)| v == t * 1000 + i));
        for t in 0..4 {
            let order: Vec<u64> = taken.iter().filter(|o| o.0 == t).map(|o| o.1).collect();
            assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "thread {t}: {order:?}"
            );
        }
        assert_eq!(cell.take_if(|_| true), None);
    }
}
