//! `TimedBackend`: an [`ExecutionBackend`] decorator that wraps every
//! `execute` in an `engine.execute` span and changes nothing else.

use deepsea_engine::exec::{ExecError, ExecMetrics};
use deepsea_engine::{Catalog, ClusterSim, ExecutionBackend, LogicalPlan, RetryAttempt};
use deepsea_relation::Table;
use deepsea_storage::SimFs;

use crate::spans::{Recorder, EXECUTE};

/// Times `execute` on the shared recorder and delegates everything to the
/// wrapped backend, so pricing, retries and results are the inner
/// backend's, bit for bit. Forks made for snapshot readers keep recording
/// into the same log.
pub struct TimedBackend<B> {
    inner: B,
    rec: Recorder,
}

impl<B: ExecutionBackend> TimedBackend<B> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: B, rec: Recorder) -> Self {
        Self { inner, rec }
    }
}

impl<B: ExecutionBackend> ExecutionBackend for TimedBackend<B> {
    fn execute(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        fs: &SimFs<Table>,
    ) -> Result<(Table, ExecMetrics), ExecError> {
        self.rec
            .time(EXECUTE, || self.inner.execute(plan, catalog, fs))
    }

    fn elapsed_secs(&self, metrics: &ExecMetrics) -> f64 {
        self.inner.elapsed_secs(metrics)
    }

    fn scan_secs(&self, bytes: u64, block_bytes: u64) -> f64 {
        self.inner.scan_secs(bytes, block_bytes)
    }

    fn write_secs(&self, bytes: u64, files: u64) -> f64 {
        self.inner.write_secs(bytes, files)
    }

    fn cluster(&self) -> &ClusterSim {
        self.inner.cluster()
    }

    fn drain_retry_debt(&self) -> (u64, f64) {
        self.inner.drain_retry_debt()
    }

    fn fork_reader(&self) -> Option<Box<dyn ExecutionBackend>> {
        let fork = self.inner.fork_reader()?;
        Some(Box::new(TimedBackend::new(fork, self.rec.clone())))
    }

    fn reset_retry_budget(&self, budget_secs: Option<f64>) {
        self.inner.reset_retry_budget(budget_secs)
    }

    fn set_attempt_trace(&self, enabled: bool) {
        self.inner.set_attempt_trace(enabled)
    }

    fn drain_retry_attempts(&self) -> Vec<RetryAttempt> {
        self.inner.drain_retry_attempts()
    }
}
