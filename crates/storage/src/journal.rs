//! Append-only journal with monotonic LSNs, snapshots, and a crash latch.
//!
//! The journal is the durability substrate for DeepSea's catalog: every
//! catalog mutation is appended as a record at its commit point, and a
//! cold start rebuilds the catalog by loading the latest snapshot and
//! replaying the record suffix ([`Journal::replay`]).
//!
//! The journal is generic over the record type `R` and the snapshot type `S`
//! so the storage crate stays ignorant of catalog schemas. Like the file
//! system it is fault-injectable: appends may consult a [`FaultInjector`]
//! (write-side modes only — a transient append failure persists nothing and
//! may be retried), and a **crash latch** can be armed at any LSN so a
//! simulated crash lands exactly *between* two records: the armed append
//! unwinds with a [`SimulatedCrash`] payload before anything is written,
//! modeling a process killed mid-commit with a torn journal tail.
//!
//! A journal with fault injection disabled and the latch unarmed consumes no
//! random draws and never fails, so journaling is bit-transparent to the
//! simulated workload.

use std::fmt;
// deepsea-lint: allow(layering) -- journal writer cell; append serialization is the point
use std::sync::{Mutex, MutexGuard};

use crate::fault::{FaultInjector, IoError, WriteFault};

/// Log sequence number: the position of a record in the journal. Strictly
/// monotonic; never reused, even after snapshot truncation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn#{}", self.0)
    }
}

/// Panic payload thrown by an armed crash latch. The harness catches this
/// with `std::panic::catch_unwind`, downcasts, and drives recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimulatedCrash {
    /// The LSN the crashed append *would* have written. Everything below it
    /// is durable; the record at this LSN and everything after is lost.
    pub lsn: Lsn,
}

/// Counters describing journal activity, for harness assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records successfully appended.
    pub appends: u64,
    /// Appends that failed transiently (nothing persisted).
    pub transient_failures: u64,
    /// Snapshots installed.
    pub snapshots: u64,
    /// Records truncated by snapshot installation.
    pub truncated_records: u64,
    /// Simulated crashes fired by the latch.
    pub crashes: u64,
}

/// What [`Journal::replay`] returns: the latest snapshot (with the LSN it
/// covers up to, exclusive) and the retained record suffix in LSN order.
pub type ReplayedLog<R, S> = (Option<(Lsn, S)>, Vec<(Lsn, R)>);

struct JournalState<R, S> {
    /// Record suffix since the last snapshot, in LSN order.
    records: Vec<(Lsn, R)>,
    /// LSN the next append will receive.
    next_lsn: u64,
    /// Latest snapshot and the LSN it covers up to (exclusive): replay
    /// starts from the snapshot state and applies records with
    /// `lsn >= covered`.
    snapshot: Option<(Lsn, S)>,
    /// Armed crash latch: the append that would write this LSN panics
    /// instead. One-shot — disarmed when it fires, so recovery can journal.
    crash_at: Option<u64>,
    stats: JournalStats,
}

/// An append-only, snapshot-truncated log of `R` records with `S` snapshots.
///
/// Thread-safe with interior mutability, mirroring [`SimFs`]: the driver
/// holds it behind an `Arc` and appends through a shared reference.
///
/// [`SimFs`]: crate::fs::SimFs
pub struct Journal<R, S> {
    state: Mutex<JournalState<R, S>>,
    faults: FaultInjector,
}

impl<R, S> Default for Journal<R, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R, S> Journal<R, S> {
    /// An empty journal with no fault injection and no armed crash.
    pub fn new() -> Self {
        Self::with_faults(FaultInjector::disabled())
    }

    /// An empty journal whose appends consult the given fault injector
    /// (write-side modes only). Keep this injector separate from the file
    /// system's so journal traffic does not perturb FS fault schedules.
    pub fn with_faults(faults: FaultInjector) -> Self {
        Self {
            state: Mutex::new(JournalState {
                records: Vec::new(),
                next_lsn: 0,
                snapshot: None,
                crash_at: None,
                stats: JournalStats::default(),
            }),
            faults,
        }
    }

    /// Lock the interior state. Poisoning is ignored (parking_lot semantics):
    /// a simulated crash unwinds through this mutex by design, and every
    /// mutation is a single push/assign, so the state stays consistent.
    fn locked(&self) -> MutexGuard<'_, JournalState<R, S>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fire the crash latch if it is armed for the LSN about to be written.
    fn check_crash(st: &mut JournalState<R, S>) {
        if let Some(at) = st.crash_at {
            if st.next_lsn >= at {
                st.stats.crashes += 1;
                st.crash_at = None;
                let lsn = Lsn(st.next_lsn);
                std::panic::panic_any(SimulatedCrash { lsn });
            }
        }
    }

    /// Append a record through the fault injector.
    ///
    /// The returned LSN is the record's durable position. A transient
    /// failure persists nothing (the LSN is not consumed) and may be
    /// retried. If the crash latch is armed for this LSN the call panics
    /// with [`SimulatedCrash`] *before* writing anything.
    pub fn append(&self, record: R) -> Result<Lsn, IoError> {
        let mut st = self.locked();
        Self::check_crash(&mut st);
        match self.faults.decide_write() {
            WriteFault::Transient => {
                st.stats.transient_failures += 1;
                return Err(IoError::TransientWrite);
            }
            WriteFault::None | WriteFault::Spike(_) => {}
        }
        let lsn = Lsn(st.next_lsn);
        st.next_lsn += 1;
        st.records.push((lsn, record));
        st.stats.appends += 1;
        Ok(lsn)
    }

    /// Append a record bypassing the fault injector (the forced write a
    /// caller falls back to once its retry budget is exhausted). The crash
    /// latch still applies: a crash cannot be outrun by retrying.
    pub fn append_infallible(&self, record: R) -> Lsn {
        let mut st = self.locked();
        Self::check_crash(&mut st);
        let lsn = Lsn(st.next_lsn);
        st.next_lsn += 1;
        st.records.push((lsn, record));
        st.stats.appends += 1;
        lsn
    }

    /// Arm the crash latch: the append that would write `lsn` panics with
    /// [`SimulatedCrash`] instead. If `lsn` has already been written, the
    /// very next append fires. One-shot; re-arm for repeated crashes.
    pub fn arm_crash(&self, lsn: Lsn) {
        self.locked().crash_at = Some(lsn.0);
    }

    /// Whether the crash latch is currently armed.
    pub fn crash_armed(&self) -> bool {
        self.locked().crash_at.is_some()
    }

    /// The LSN the next successful append will receive.
    pub fn next_lsn(&self) -> Lsn {
        Lsn(self.locked().next_lsn)
    }

    /// Number of records currently retained (since the last snapshot).
    pub fn record_count(&self) -> usize {
        self.locked().records.len()
    }

    /// Counters describing journal activity so far.
    pub fn stats(&self) -> JournalStats {
        self.locked().stats
    }

    /// Install a snapshot covering every record written so far and truncate
    /// them. Returns the LSN the snapshot covers up to (exclusive) — i.e.
    /// replay applies only records at or above it. Snapshot installation is
    /// atomic and free (no fault draw): it models an out-of-band checkpoint
    /// writer, not the append path.
    pub fn install_snapshot(&self, snapshot: S) -> Lsn {
        let mut st = self.locked();
        let covered = Lsn(st.next_lsn);
        st.stats.truncated_records += st.records.len() as u64;
        st.stats.snapshots += 1;
        st.records.clear();
        st.snapshot = Some((covered, snapshot));
        covered
    }
}

impl<R: Clone, S: Clone> Journal<R, S> {
    /// Everything needed to rebuild state: the latest snapshot (with the LSN
    /// it covers up to) and the retained record suffix in LSN order.
    /// Read-only — replaying twice observes identical contents, which is
    /// what makes recovery idempotent.
    pub fn replay(&self) -> ReplayedLog<R, S> {
        let st = self.locked();
        (st.snapshot.clone(), st.records.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;

    fn catch_crash<F: FnOnce() + std::panic::UnwindSafe>(f: F) -> SimulatedCrash {
        let err = std::panic::catch_unwind(f).expect_err("latch should fire");
        *err.downcast::<SimulatedCrash>()
            .expect("payload is SimulatedCrash")
    }

    #[test]
    fn lsns_are_monotonic_and_replayable() {
        let j: Journal<&'static str, ()> = Journal::new();
        assert_eq!(j.append("a").unwrap(), Lsn(0));
        assert_eq!(j.append("b").unwrap(), Lsn(1));
        assert_eq!(j.next_lsn(), Lsn(2));
        let (snap, records) = j.replay();
        assert!(snap.is_none());
        assert_eq!(records, vec![(Lsn(0), "a"), (Lsn(1), "b")]);
        // Replay is read-only: a second replay sees the same contents.
        assert_eq!(j.replay().1, records);
    }

    #[test]
    fn snapshot_truncates_but_lsns_continue() {
        let j: Journal<u32, &'static str> = Journal::new();
        j.append(1).unwrap();
        j.append(2).unwrap();
        assert_eq!(j.install_snapshot("state@2"), Lsn(2));
        assert_eq!(j.record_count(), 0);
        assert_eq!(j.append(3).unwrap(), Lsn(2), "LSNs never rewind");
        let (snap, records) = j.replay();
        assert_eq!(snap, Some((Lsn(2), "state@2")));
        assert_eq!(records, vec![(Lsn(2), 3)]);
        let s = j.stats();
        assert_eq!(s.snapshots, 1);
        assert_eq!(s.truncated_records, 2);
        assert_eq!(s.appends, 3);
    }

    #[test]
    fn crash_latch_fires_between_records() {
        let j: Journal<u32, ()> = Journal::new();
        j.append(1).unwrap();
        j.arm_crash(Lsn(2));
        j.append(2).unwrap();
        let crash = catch_crash(|| {
            j.append(3).unwrap();
        });
        assert_eq!(crash.lsn, Lsn(2));
        // The crashed record was never written; the journal is intact below.
        assert_eq!(j.replay().1, vec![(Lsn(0), 1), (Lsn(1), 2)]);
        assert_eq!(j.stats().crashes, 1);
        // One-shot: after the crash, appends (recovery traffic) succeed.
        assert!(!j.crash_armed());
        assert_eq!(j.append(3).unwrap(), Lsn(2));
    }

    #[test]
    fn crash_latch_cannot_be_outrun_by_infallible_appends() {
        let j: Journal<u32, ()> = Journal::new();
        j.arm_crash(Lsn(0));
        let crash = catch_crash(|| {
            j.append_infallible(1);
        });
        assert_eq!(crash.lsn, Lsn(0));
        assert_eq!(j.record_count(), 0);
    }

    #[test]
    fn stale_arm_fires_on_next_append() {
        let j: Journal<u32, ()> = Journal::new();
        j.append(1).unwrap();
        j.append(2).unwrap();
        j.arm_crash(Lsn(0)); // already written
        let crash = catch_crash(|| {
            j.append(3).unwrap();
        });
        assert_eq!(crash.lsn, Lsn(2), "fires at the next boundary");
    }

    #[test]
    fn transient_append_failures_consume_no_lsn() {
        let j: Journal<u32, ()> = Journal::with_faults(FaultInjector::new(
            FaultConfig::seeded(1).with_transient_writes(1.0),
        ));
        assert_eq!(j.append(1).unwrap_err(), IoError::TransientWrite);
        assert_eq!(j.next_lsn(), Lsn(0), "failed append consumes no LSN");
        assert_eq!(j.stats().transient_failures, 1);
        // The forced path lands the record.
        assert_eq!(j.append_infallible(1), Lsn(0));
        assert_eq!(j.replay().1, vec![(Lsn(0), 1)]);
    }

    #[test]
    fn disabled_faults_never_fail() {
        let j: Journal<u32, ()> = Journal::new();
        for i in 0..100 {
            assert_eq!(j.append(i).unwrap(), Lsn(u64::from(i)));
        }
        assert_eq!(j.stats().transient_failures, 0);
    }
}
