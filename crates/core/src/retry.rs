//! The driver's one retry ladder and the one policy governing it,
//! [`DeepSeaConfig::retry`](crate::DeepSeaConfig::retry).
//!
//! Every transient failure the driver absorbs goes through
//! [`retry_transient`]: plan executions that can read views (a snapshot
//! read's and a commit's), fragment reads and creates, and journal appends.
//! Each caller says which errors it retries and how it charges the waits.

use deepsea_storage::IoError;

/// Retry limits and exponential-backoff schedule for transient I/O failures.
///
/// Backoff is charged in *simulated* seconds so reported elapsed times
/// reflect retry cost honestly; attempt `n` (0-based) waits
/// `base_backoff_secs * backoff_multiplier^n` before re-running.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of re-runs after the first failure.
    pub max_retries: u32,
    /// Simulated seconds waited before the first retry.
    pub base_backoff_secs: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_multiplier: f64,
    /// Hard cap on the *total* simulated backoff one operation may accrue,
    /// whatever `max_retries` says. Exponential backoff is unbounded in the
    /// retry count; this bounds it in seconds, so a pathological policy (or
    /// a permanently failing op under a generous retry count) cannot charge
    /// more than the cap.
    pub max_total_backoff_secs: f64,
}

impl RetryPolicy {
    /// Simulated backoff before retry number `attempt` (0-based).
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        self.base_backoff_secs * self.backoff_multiplier.powi(attempt as i32)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff_secs: 0.5,
            backoff_multiplier: 2.0,
            max_total_backoff_secs: 600.0,
        }
    }
}

/// What a ladder spent: retries taken and their backoff, summed from 0.0 in
/// the order taken.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Spent {
    pub(crate) retries: u32,
    pub(crate) backoff_secs: f64,
}

/// Run `op` until it succeeds, fails with an error `retryable` refuses, or
/// the next retry would exceed `policy.max_retries` or
/// `policy.max_total_backoff_secs`. Before each retry `on_wait` sees its
/// 0-based index, its backoff and the error it retries. What to do once
/// the ladder gives up — fall back, force a write through — is the
/// caller's to decide from the returned error.
pub(crate) fn retry_transient<T, E>(
    policy: RetryPolicy,
    retryable: impl Fn(&E) -> bool,
    mut on_wait: impl FnMut(u32, f64, &E),
    mut op: impl FnMut() -> Result<T, E>,
) -> (Result<T, E>, Spent) {
    let mut spent = Spent::default();
    loop {
        match op() {
            Err(e)
                if spent.retries < policy.max_retries
                    && spent.backoff_secs + policy.backoff_secs(spent.retries)
                        <= policy.max_total_backoff_secs
                    && retryable(&e) =>
            {
                let wait = policy.backoff_secs(spent.retries);
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
    policy: RetryPolicy,
    retries: &mut u64,
    penalty_secs: &mut f64,
    op: impl FnMut() -> Result<T, IoError>,
) -> Result<T, IoError> {
    let (out, spent) = retry_transient(
        policy,
        IoError::is_transient,
        |_, wait, _| *penalty_secs += wait,
        op,
    );
    *retries += u64::from(spent.retries);
    out
}
