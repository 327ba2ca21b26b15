//! Benchmark-side spans: one record per call into a layer, taken from
//! outside the program under test.
//!
//! The recorder is a stack machine on one OS thread: `time` pushes a span,
//! runs the call, pops it; whatever is on top of the stack when a span
//! opens is its parent. [`crate::backend::TimedBackend`] shares the same
//! recorder, so `engine.execute` spans land under whichever layer call
//! triggered them. Spans stay in memory until the run ends.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Root span of one benchmark operation.
pub const OP: &str = "op";
/// `ReadSnapshot::answer`.
pub const ANSWER: &str = "core.read_path.answer";
/// `DeepSea::process_query`.
pub const COMMIT: &str = "core.write_path.process_query";
/// `DeepSea::publish_snapshot`.
pub const PUBLISH: &str = "core.snapshot.publish";
/// Dropping the superseded snapshot.
pub const DROP: &str = "core.snapshot.drop";
/// `ViewServer::run`.
pub const SERVE: &str = "core.server.run";
/// `DeepSea::recover`.
pub const RECOVER: &str = "core.durability.recover";
/// `ExecutionBackend::execute`, recorded by the timed backend.
pub const EXECUTE: &str = "engine.execute";

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in its pass, in opening order.
    pub id: u32,
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Index of the benchmark op the span belongs to.
    pub op: u32,
    /// Span that was open when this one opened.
    pub parent: Option<u32>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; 0 while open.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// A shareable span recorder. Cloning shares the log.
#[derive(Debug, Clone)]
pub struct Recorder {
    state: Arc<Mutex<State>>,
    origin: Instant,
    /// Off: only [`Recorder::time_op`] roots are recorded — the untraced
    /// run pays two clock reads per op and nothing else.
    layers: bool,
}

impl Recorder {
    /// A recorder; `layers` turns the per-layer child spans on.
    pub fn new(layers: bool) -> Self {
        Self {
            state: Arc::new(Mutex::new(State::default())),
            origin: Instant::now(),
            layers,
        }
    }

    /// Whether per-layer child spans are recorded.
    pub fn layers(&self) -> bool {
        self.layers
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A panic while the lock is held aborts the run anyway; the log
        // itself is append-only and valid at every step.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; `op` moves the recorder on to that benchmark op first.
    fn open(&self, name: &'static str, op: Option<u32>) -> u32 {
        let mut st = self.lock();
        if let Some(op) = op {
            st.op = op;
        }
        let id = st.spans.len() as u32;
        let parent = st.open.last().copied();
        let op = st.op;
        st.spans.push(Span {
            id,
            name,
            op,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        st.open.push(id);
        // Read the clock last, with the lock about to drop, so bookkeeping
        // stays outside the span.
        st.spans[id as usize].start_ns = self.now_ns();
        id
    }

    fn close(&self, id: u32) {
        let end = self.now_ns();
        let mut st = self.lock();
        st.spans[id as usize].end_ns = end;
        let top = st.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    /// Time one benchmark op as a root span. Always recorded.
    pub fn time_op<T>(&self, op: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(OP, Some(op));
        let out = f();
        self.close(id);
        out
    }

    /// Time one call into a layer as a child of whatever span is open.
    /// Without layer tracing this is just the call.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.layers {
            return f();
        }
        let id = self.open(name, None);
        let out = f();
        self.close(id);
        out
    }

    /// Take the spans recorded since the last drain (one pass).
    pub fn drain(&self) -> Vec<Span> {
        let mut st = self.lock();
        assert!(st.open.is_empty(), "drain with a span still open");
        std::mem::take(&mut st.spans)
    }
}

/// Self time of every span: its duration minus the time its direct children
/// cover. Children of one parent never overlap (one thread, LIFO), so
/// summing their durations is exact, and the self times of a tree add up to
/// its root's duration.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Smallest share of an op's wall time that its direct child spans cover.
/// 1.0 when there are no ops.
pub fn coverage_min(spans: &[Span]) -> f64 {
    let own = self_times_ns(spans);
    spans
        .iter()
        .filter(|s| s.name == OP && s.duration_ns() > 0)
        .map(|s| 1.0 - own[s.id as usize] as f64 / s.duration_ns() as f64)
        .fold(1.0, f64::min)
}

/// One JSON object per span, one per line.
pub fn to_jsonl(pass: usize, spans: &[Span], out: &mut String) {
    use std::fmt::Write as _;
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"pass\":{pass},\"id\":{},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.op, s.start_ns, s.end_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(n: u64) -> u64 {
        (0..n).fold(0u64, |a, i| std::hint::black_box(a ^ i.wrapping_mul(31)))
    }

    fn sample() -> Vec<Span> {
        let rec = Recorder::new(true);
        for op in 0..3 {
            rec.time_op(op, || {
                rec.time(ANSWER, || {
                    rec.time(EXECUTE, || busy(20_000));
                    busy(5_000)
                });
                rec.time(COMMIT, || {
                    rec.time(EXECUTE, || busy(10_000));
                    rec.time(EXECUTE, || busy(10_000))
                });
                rec.time(PUBLISH, || busy(1_000))
            });
        }
        rec.drain()
    }

    #[test]
    fn parents_follow_the_call_stack() {
        let spans = sample();
        assert_eq!(spans.len(), 3 * 7);
        let names: Vec<&str> = spans[..7].iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [OP, ANSWER, EXECUTE, COMMIT, EXECUTE, EXECUTE, PUBLISH]
        );
        let parents: Vec<Option<u32>> = spans[..7].iter().map(|s| s.parent).collect();
        assert_eq!(
            parents,
            [None, Some(0), Some(1), Some(0), Some(3), Some(3), Some(0)]
        );
        assert!(spans[7..14].iter().all(|s| s.op == 1));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn self_times_telescope_to_the_root_duration() {
        let spans = sample();
        let own = self_times_ns(&spans);
        for root in spans.iter().filter(|s| s.name == OP) {
            let tree: u64 = spans
                .iter()
                .filter(|s| s.op == root.op)
                .map(|s| own[s.id as usize])
                .sum();
            assert_eq!(tree, root.duration_ns(), "op {}", root.op);
        }
        let cov = coverage_min(&spans);
        assert!(cov > 0.5 && cov <= 1.0, "coverage {cov}");
    }

    #[test]
    fn untraced_recorder_keeps_only_op_roots() {
        let rec = Recorder::new(false);
        rec.time_op(0, || rec.time(ANSWER, || busy(100)));
        let spans = rec.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, OP);
        assert!(rec.drain().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let spans = sample();
        let mut out = String::new();
        to_jsonl(2, &spans, &mut out);
        assert_eq!(out.lines().count(), spans.len());
        let first = serde::from_str(out.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("name").and_then(|v| v.as_str()), Some(OP));
        assert_eq!(first.get("pass").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(first.get("parent"), Some(&serde::Value::Null));
    }
}
