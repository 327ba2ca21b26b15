//! The driver's one retry ladder and its fixed schedule: at most
//! [`MAX_RETRIES`] re-runs, the `n`-th (0-based) after
//! `BASE_BACKOFF_SECS * BACKOFF_MULTIPLIER^n` simulated seconds, so a ladder
//! that exhausts has waited 0.5 + 1 + 2 = 3.5 s.
//!
//! Every transient failure the driver absorbs goes through
//! [`retry_transient`]: plan executions that can read views (a snapshot
//! read's and a commit's), fragment reads and creates, and journal appends.
//! Each caller says which errors it retries and how it charges the waits.
//! Backoff is charged in *simulated* seconds so reported elapsed times
//! reflect retry cost honestly.

use deepsea_storage::IoError;

/// Maximum number of re-runs after the first failure.
pub(crate) const MAX_RETRIES: u32 = 3;
/// Simulated seconds waited before the first retry.
pub(crate) const BASE_BACKOFF_SECS: f64 = 0.5;
/// Multiplier applied to the backoff after each failed attempt.
pub(crate) const BACKOFF_MULTIPLIER: f64 = 2.0;

/// Simulated backoff before retry number `attempt` (0-based).
pub(crate) fn backoff_secs(attempt: u32) -> f64 {
    BASE_BACKOFF_SECS * BACKOFF_MULTIPLIER.powi(attempt as i32)
}

/// What a ladder spent: retries taken and their backoff, summed from 0.0 in
/// the order taken.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Spent {
    pub(crate) retries: u32,
    pub(crate) backoff_secs: f64,
}

/// Run `op` until it succeeds, fails with an error `retryable` refuses, or
/// [`MAX_RETRIES`] retries are spent. Before each retry `on_wait` sees its
/// 0-based index, its backoff and the error it retries. What to do once
/// the ladder gives up — fall back, force a write through — is the
/// caller's to decide from the returned error.
pub(crate) fn retry_transient<T, E>(
    retryable: impl Fn(&E) -> bool,
    mut on_wait: impl FnMut(u32, f64, &E),
    mut op: impl FnMut() -> Result<T, E>,
) -> (Result<T, E>, Spent) {
    let mut spent = Spent::default();
    loop {
        match op() {
            Err(e) if spent.retries < MAX_RETRIES && retryable(&e) => {
                let wait = backoff_secs(spent.retries);
                on_wait(spent.retries, wait, &e);
                spent.backoff_secs += wait;
                spent.retries += 1;
            }
            out => return (out, spent),
        }
    }
}

/// [`retry_transient`] for fragment and journal I/O: every transient error
/// is retried, each wait is added to `penalty_secs` as it is taken and the
/// retry count to `retries` at the end (a failed operation's wasted backoff
/// is charged too).
pub(crate) fn retry_io<T>(
    retries: &mut u64,
    penalty_secs: &mut f64,
    op: impl FnMut() -> Result<T, IoError>,
) -> Result<T, IoError> {
    let (out, spent) = retry_transient(
        IoError::is_transient,
        |_, wait, _| *penalty_secs += wait,
        op,
    );
    *retries += u64::from(spent.retries);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsea_storage::FileId;

    #[test]
    fn the_schedule_doubles_from_half_a_second() {
        let waits: Vec<f64> = (0..MAX_RETRIES).map(backoff_secs).collect();
        assert_eq!(waits, [0.5, 1.0, 2.0]);
        assert_eq!(waits.iter().sum::<f64>(), 3.5);
    }

    #[test]
    fn an_always_failing_op_stops_after_max_retries() {
        let mut calls = 0;
        let mut seen = Vec::new();
        let (out, spent) = retry_transient(
            |_: &&str| true,
            |n, wait, e| seen.push((n, wait, *e)),
            || -> Result<(), &str> {
                calls += 1;
                Err("busy")
            },
        );
        assert_eq!(out, Err("busy"));
        assert_eq!(calls, MAX_RETRIES + 1);
        assert_eq!(seen, [(0, 0.5, "busy"), (1, 1.0, "busy"), (2, 2.0, "busy")]);
        assert_eq!(
            spent,
            Spent {
                retries: MAX_RETRIES,
                backoff_secs: 3.5
            }
        );
    }

    #[test]
    fn a_refused_error_returns_without_a_wait() {
        let mut calls = 0;
        let (out, spent) = retry_transient(
            |_: &&str| false,
            |_, _, _| panic!("a refused error is never waited on"),
            || -> Result<(), &str> {
                calls += 1;
                Err("gone")
            },
        );
        assert_eq!(out, Err("gone"));
        assert_eq!(calls, 1);
        assert_eq!(spent, Spent::default());
    }

    #[test]
    fn success_after_k_failures_spends_the_first_k_waits() {
        let mut failures_left = 2;
        let (out, spent) = retry_transient(
            |_: &&str| true,
            |_, _, _| {},
            || {
                if failures_left == 0 {
                    return Ok(7);
                }
                failures_left -= 1;
                Err("busy")
            },
        );
        assert_eq!(out, Ok(7));
        assert_eq!(
            spent,
            Spent {
                retries: 2,
                backoff_secs: 1.5
            }
        );
    }

    #[test]
    fn retry_io_adds_to_the_callers_running_totals() {
        let (mut retries, mut secs) = (5, 1.0);
        let mut failures_left = 1;
        let out = retry_io(&mut retries, &mut secs, || {
            if failures_left == 0 {
                return Ok(());
            }
            failures_left -= 1;
            Err(IoError::TransientWrite)
        });
        assert_eq!(out, Ok(()));
        assert_eq!((retries, secs), (6, 1.5));
        // A permanent loss is returned at once and charges nothing.
        let lost = retry_io(&mut retries, &mut secs, || -> Result<(), _> {
            Err(IoError::PermanentLoss(FileId(3)))
        });
        assert_eq!(lost, Err(IoError::PermanentLoss(FileId(3))));
        assert_eq!((retries, secs), (6, 1.5));
    }
}
