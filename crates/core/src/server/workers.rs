//! Real `std::thread` workers ([`ViewServer::run_threaded`]): the same
//! ticket/commit protocol as the simulated scheduler, under genuine
//! preemption.
//!
//! K worker threads pull tickets from a shared counter, answer each against
//! the latest snapshot loaded from an [`EpochCell`], and stream
//! `(ticket, answer)` back over a channel. The writer (the calling thread)
//! buffers out-of-order arrivals and applies commits strictly in ticket
//! order, republishing the cell after each — so the committed state is
//! bit-identical to the serial run even though reads race freely with
//! publication.
//!
//! What is deliberately **not** asserted here: latencies and epochs. OS
//! scheduling decides which epoch a worker loads, so those are
//! nondeterministic by nature; the determinism claims live entirely on the
//! committed side. A reader that loses a race with eviction (its snapshot
//! names a file the writer has since deleted) falls back to base tables
//! inside `ReadView::answer` — the answer stays correct, the race costs
//! only simulated time.
//!
//! This module (via its parent) is the single sanctioned `std::thread` user
//! outside the storage/bench/lint crates; `deepsea-lint` L1 pins that
//! allowlist.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use deepsea_engine::exec::ExecError;
use deepsea_engine::plan::LogicalPlan;
use deepsea_storage::EpochCell;

use crate::snapshot::{ReadSnapshot, SnapshotAnswer};

use super::{same_columns, ViewServer};

/// Per-ticket outcome of a threaded run: what raced (the read) and what
/// didn't (the committed execution).
#[derive(Debug, Clone)]
pub struct ThreadedRecord {
    /// Global ticket (index into the workload).
    pub ticket: usize,
    /// Snapshot epoch the racing read was answered against.
    pub read_epoch: u64,
    /// The read's result fingerprint.
    pub read_fingerprint: Arc<[String]>,
    /// The committed result fingerprint from the serialized pipeline; the
    /// read's own, shared, when the commit returned the read's columns.
    pub committed_fingerprint: Arc<[String]>,
    /// Simulated execution seconds of the committed execution.
    pub committed_query_secs: f64,
}

/// The outcome of a threaded run: committed state plus the racy read record.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// Per-ticket records, in ticket order.
    pub records: Vec<ThreadedRecord>,
    /// Digest of the writer's registry after all commits drained.
    pub state_digest: u64,
}

impl ViewServer {
    /// Serve one workload with real worker threads. Commits serialize in
    /// ticket order on the calling thread; reads race on `clients` workers.
    pub fn run_threaded(&mut self, plans: &[LogicalPlan]) -> Result<ThreadedReport, ExecError> {
        let n = plans.len();
        let clients = self.cfg.clients.max(1);
        let cell: EpochCell<ReadSnapshot> = EpochCell::new(
            self.ds
                .publish_snapshot()
                .expect("invariant: forkability is checked in ViewServer::new"),
        );
        let next_ticket = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, u64, Result<SnapshotAnswer, ExecError>)>();

        let mut records: Vec<ThreadedRecord> = Vec::with_capacity(n);
        std::thread::scope(|s| -> Result<(), ExecError> {
            for _ in 0..clients {
                let tx = tx.clone();
                let cell = &cell;
                let next_ticket = &next_ticket;
                s.spawn(move || loop {
                    let ticket = next_ticket.fetch_add(1, Ordering::SeqCst);
                    if ticket >= n {
                        break;
                    }
                    let (epoch, snap) = cell.load();
                    let answer = snap.answer(&plans[ticket]);
                    // The writer hanging up early (on error) is fine.
                    if tx.send((ticket, epoch, answer)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            // The writer: buffer out-of-order arrivals, commit in ticket
            // order, republish after every commit.
            let mut buffered: BTreeMap<usize, (u64, Result<SnapshotAnswer, ExecError>)> =
                BTreeMap::new();
            let mut next_commit = 0usize;
            for (ticket, epoch, answer) in rx {
                buffered.insert(ticket, (epoch, answer));
                while let Some((epoch, answer)) = buffered.remove(&next_commit) {
                    let answer = answer?;
                    let outcome = self.ds.process_query(&plans[next_commit])?;
                    cell.publish_at(
                        self.ds.clock(),
                        self.ds
                            .publish_snapshot()
                            .expect("invariant: a backend that forked once forks again"),
                    );
                    let read_fingerprint: Arc<[String]> = answer.result.fingerprint().into();
                    let committed_fingerprint = if same_columns(&answer.result, &outcome.result) {
                        Arc::clone(&read_fingerprint)
                    } else {
                        outcome.result.fingerprint().into()
                    };
                    records.push(ThreadedRecord {
                        ticket: next_commit,
                        read_epoch: epoch,
                        read_fingerprint,
                        committed_fingerprint,
                        committed_query_secs: outcome.query_secs,
                    });
                    next_commit += 1;
                }
            }
            debug_assert_eq!(next_commit, n, "every ticket must commit");
            Ok(())
        })?;

        Ok(ThreadedReport {
            state_digest: self.ds.registry().state_digest(),
            records,
        })
    }
}
