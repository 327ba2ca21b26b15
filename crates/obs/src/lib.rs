//! # deepsea-obs
//!
//! Observability for the DeepSea view pool: a typed metrics registry
//! (counters and log-bucket histograms with percentile estimation),
//! span tracing driven by the *simulated* clock, and a structured decision
//! audit log (JSONL) explaining every selection, eviction, split/merge and
//! recovery decision — plus a Prometheus text exporter.
//!
//! ## Determinism contract
//!
//! Everything here is replay-stable: spans and events are timestamped with
//! sim-seconds and a monotonic sequence number, never wall-clock, and all
//! map iteration is ordered (`BTreeMap`). Two runs of the same workload
//! produce byte-identical dumps.
//!
//! ## Transparency contract
//!
//! A disabled observer ([`Observer::default`] or [`ObsConfig::off`]) is a
//! no-op handle: every method returns immediately and no state is
//! allocated. Observation is one switch: an observer collects metrics,
//! spans and events together, or nothing. The driver's decisions must be
//! identical with observation on or off — the observer only *reads* engine
//! state, and enabling it must never change a query result, an eviction
//! choice, or `state_digest()`.
//! `tests/obs_transparency.rs` in the workspace root enforces this against
//! the golden 50-query workload.

pub mod events;
pub mod metrics;
pub mod prometheus;
pub mod span;
pub mod trace;

pub use events::{DecisionEvent, EventLog, EventRecord, PhiBreakdown};
pub use metrics::{Histogram, MetricsRegistry, HISTOGRAM_BUCKETS, OVERFLOW_LABEL};
pub use prometheus::{parse_prometheus, render_prometheus, PromSample};
pub use span::{SpanCtx, SpanLog, SpanRecord};
pub use trace::{
    chrome_trace_json, render_text_profile, CriticalPathStep, ProfileRow, TraceForest,
};

// deepsea-lint: allow(layering) -- observer buffers are shared across worker threads; single lock per sink
use std::sync::{Arc, Mutex, MutexGuard};

/// Whether to collect. [`ObsConfig::off`] (the `Default`) collects
/// nothing; [`ObsConfig::on`] collects metrics, spans and events together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Collect metrics, spans and decision events.
    pub collect: bool,
}

impl ObsConfig {
    /// Collect nothing (the default).
    pub fn off() -> Self {
        Self { collect: false }
    }

    /// Collect everything.
    pub fn on() -> Self {
        Self { collect: true }
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Per-metric label cardinality budget (see [`metrics::MetricsRegistry`]).
const MAX_LABELS_PER_METRIC: usize = 256;

#[derive(Debug)]
struct State {
    metrics: MetricsRegistry,
    spans: SpanLog,
    events: EventLog,
}

/// A cheap, cloneable handle to the collectors. The default-constructed
/// handle is disabled and allocation-free; every method on it is a no-op.
///
/// The handle uses interior mutability (`Mutex`) so instrumentation sites
/// only need `&self`; contention is nil because the driver is
/// single-threaded per `DeepSea` instance (the bench harness gives each
/// variant its own driver and observer).
#[derive(Debug, Default, Clone)]
pub struct Observer {
    state: Option<Arc<Mutex<State>>>,
}

impl Observer {
    /// Build from a config; `ObsConfig::off()` yields the disabled handle.
    pub fn new(config: ObsConfig) -> Self {
        if !config.collect {
            return Self::default();
        }
        Self {
            state: Some(Arc::new(Mutex::new(State {
                metrics: MetricsRegistry::new(MAX_LABELS_PER_METRIC),
                spans: SpanLog::default(),
                events: EventLog::default(),
            }))),
        }
    }

    /// The fully-disabled handle (same as `Default`).
    pub fn off() -> Self {
        Self::default()
    }

    /// True when the observer collects. Instrumentation sites use this to
    /// skip *pure* derived computation (e.g. a Φ breakdown or a span label)
    /// when nobody is listening; effectful code must never hide behind it.
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, State>> {
        let state = self.state.as_ref()?;
        Some(state.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Add to a counter.
    pub fn counter_add(&self, name: &'static str, label: Option<&str>, delta: u64) {
        if let Some(mut s) = self.lock() {
            s.metrics.counter_add(name, label, delta);
        }
    }

    /// Increment a counter by one.
    pub fn counter_inc(&self, name: &'static str, label: Option<&str>) {
        self.counter_add(name, label, 1);
    }

    /// Record a histogram observation.
    pub fn observe(&self, name: &'static str, label: Option<&str>, v: f64) {
        if let Some(mut s) = self.lock() {
            s.metrics.observe(name, label, v);
        }
    }

    /// Record a completed span as a child of `parent` (use
    /// [`SpanCtx::root`] to start a new trace) and return the new span's
    /// context for recording its children. The disabled observer returns
    /// [`SpanCtx::NONE`] without touching any state.
    pub fn record_span(
        &self,
        tnow: u64,
        name: &'static str,
        label: Option<&str>,
        parent: SpanCtx,
        start_sim_secs: f64,
        end_sim_secs: f64,
    ) -> SpanCtx {
        self.lock().map_or(SpanCtx::NONE, |mut s| {
            s.spans
                .record_span(tnow, name, label, parent, start_sim_secs, end_sim_secs)
        })
    }

    /// Pre-allocate a span context under `parent` for a span whose duration
    /// is only known after its children complete (e.g. a ticket root).
    /// Children can attach to the returned context immediately; complete the
    /// span itself with [`Observer::record_span_at`]. Returns
    /// [`SpanCtx::NONE`] when disabled.
    pub fn alloc_span(&self, parent: SpanCtx) -> SpanCtx {
        self.lock()
            .map_or(SpanCtx::NONE, |mut s| s.spans.alloc_span(parent))
    }

    /// Record a span whose context was pre-allocated with
    /// [`Observer::alloc_span`]. A [`SpanCtx::NONE`] context is a no-op.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span_at(
        &self,
        ctx: SpanCtx,
        tnow: u64,
        name: &'static str,
        label: Option<&str>,
        parent: SpanCtx,
        start_sim_secs: f64,
        end_sim_secs: f64,
    ) {
        if ctx.is_none() {
            return;
        }
        if let Some(mut s) = self.lock() {
            s.spans
                .record_allocated(ctx, tnow, name, label, parent, start_sim_secs, end_sim_secs);
        }
    }

    /// Record a decision event.
    pub fn event(&self, tnow: u64, event: DecisionEvent) {
        if let Some(mut s) = self.lock() {
            s.events.record(tnow, event);
        }
    }

    /// Snapshot the metrics registry (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        self.lock().map(|s| s.metrics.clone()).unwrap_or_default()
    }

    /// Snapshot the recorded events (empty when disabled).
    pub fn events_snapshot(&self) -> Vec<EventRecord> {
        self.lock()
            .map(|s| s.events.events().to_vec())
            .unwrap_or_default()
    }

    /// Snapshot the recorded spans (empty when disabled).
    pub fn spans_snapshot(&self) -> Vec<SpanRecord> {
        self.lock()
            .map(|s| s.spans.spans().to_vec())
            .unwrap_or_default()
    }

    /// Render the metrics in Prometheus text format.
    pub fn render_prometheus(&self) -> String {
        self.lock()
            .map(|s| prometheus::render_prometheus(&s.metrics))
            .unwrap_or_default()
    }

    /// Render the event log as JSONL.
    pub fn events_jsonl(&self) -> String {
        self.lock().map(|s| s.events.to_jsonl()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_is_allocation_free_and_inert() {
        let obs = Observer::default();
        assert!(!obs.enabled());
        obs.counter_inc("c", None);
        obs.observe("h", None, 1.0);
        obs.record_span(1, "s", None, SpanCtx::root(1), 0.0, 1.0);
        obs.event(
            1,
            DecisionEvent::JournalSnapshot {
                appended_since_last: 1,
            },
        );
        assert_eq!(obs.metrics_snapshot().counter("c", None), 0);
        assert!(obs.events_snapshot().is_empty());
        assert!(obs.spans_snapshot().is_empty());
        assert_eq!(obs.render_prometheus(), "");
        assert_eq!(obs.events_jsonl(), "");
        assert!(Observer::new(ObsConfig::off()).state.is_none());
    }

    #[test]
    fn enabled_observer_records_across_clones() {
        let obs = Observer::new(ObsConfig::on());
        assert!(obs.enabled());
        let clone = obs.clone();
        clone.counter_add("q_total", None, 2);
        obs.counter_inc("q_total", None);
        assert_eq!(obs.metrics_snapshot().counter("q_total", None), 3);
        clone.record_span(1, "execute", Some("V1"), SpanCtx::root(1), 0.0, 2.0);
        assert_eq!(obs.spans_snapshot().len(), 1);
        obs.event(
            4,
            DecisionEvent::JournalSnapshot {
                appended_since_last: 9,
            },
        );
        let evs = obs.events_snapshot();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].tnow, 4);
    }

    #[test]
    fn one_switch_gates_every_collector() {
        let obs = Observer::new(ObsConfig::on());
        obs.counter_inc("c", None);
        obs.observe("h", None, 2.0);
        obs.record_span(1, "a", None, SpanCtx::root(1), 0.0, 1.0);
        obs.record_span(1, "b", None, SpanCtx::root(1), 1.0, 2.0);
        obs.event(
            1,
            DecisionEvent::JournalSnapshot {
                appended_since_last: 1,
            },
        );
        let metrics = obs.metrics_snapshot();
        assert_eq!(metrics.counter("c", None), 1);
        assert_eq!(metrics.histogram("h", None).map(|h| h.count), Some(1));
        assert_eq!(obs.spans_snapshot().len(), 2);
        assert_eq!(obs.events_snapshot().len(), 1);
    }

    #[test]
    fn label_budget_is_fixed_per_metric() {
        let obs = Observer::new(ObsConfig::on());
        for i in 0..MAX_LABELS_PER_METRIC + 3 {
            obs.counter_inc("hits", Some(&format!("V{i}")));
        }
        let metrics = obs.metrics_snapshot();
        assert_eq!(metrics.max_cardinality, MAX_LABELS_PER_METRIC);
        assert_eq!(metrics.counters["hits"].len(), MAX_LABELS_PER_METRIC + 1);
        assert_eq!(metrics.counter("hits", Some(metrics::OVERFLOW_LABEL)), 3);
    }
}
