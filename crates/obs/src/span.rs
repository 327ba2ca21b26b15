//! Causal span tracing driven by the **simulated** clock.
//!
//! A span is a named region of work with a start/end in simulated seconds,
//! a monotonic sequence number, and — since the causal upgrade — a trace id
//! (one per ticket / query) plus span and parent ids forming a tree.
//! Wall-clock never appears: replaying the same workload produces
//! byte-identical span logs, which is what makes the traces diffable across
//! runs and PRs.
//!
//! Spans are emitted *post hoc*: every duration in the simulator is known
//! analytically when the work completes, so a parent span is recorded
//! before its children and the returned [`SpanCtx`] is handed down as the
//! children's parent handle. `SpanCtx` is a plain `Copy` pair of ids — the
//! disabled observer hands out [`SpanCtx::NONE`] and drops everything, so
//! threading a context through the read/write paths costs nothing when
//! tracing is off.

use serde::{ObjectBuilder, Serialize, Value};

/// A causal handle: the trace (ticket) a span belongs to plus the span's
/// own id, used as the parent id of its children. `{0, 0}` is the null
/// context ([`SpanCtx::NONE`]) handed out by a disabled observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanCtx {
    /// Trace (ticket) id; `0` means "no trace".
    pub trace_id: u64,
    /// Span id within the log; `0` means "no parent" (a root span).
    pub span_id: u64,
}

impl SpanCtx {
    /// The null context: no trace, no parent. Recording under it with a
    /// nonzero trace id starts a new root.
    pub const NONE: SpanCtx = SpanCtx {
        trace_id: 0,
        span_id: 0,
    };

    /// A parent handle for starting a root span of trace `trace_id`.
    pub fn root(trace_id: u64) -> SpanCtx {
        SpanCtx {
            trace_id,
            span_id: 0,
        }
    }

    /// True for the null context.
    pub fn is_none(&self) -> bool {
        self.trace_id == 0 && self.span_id == 0
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Monotonic sequence number (emission order).
    pub seq: u64,
    /// Logical time (query sequence number) the span belongs to.
    pub tnow: u64,
    /// Trace (ticket) id grouping the causal tree; `0` = untraced.
    pub trace_id: u64,
    /// This span's id (unique within the log, allocated from 1).
    pub span_id: u64,
    /// Parent span id; `0` = root of its trace.
    pub parent_id: u64,
    /// Stage / operation name.
    pub name: &'static str,
    /// Optional view/fragment/node label.
    pub label: Option<String>,
    /// Start offset in simulated seconds (cumulative sim time of the run).
    pub start_sim_secs: f64,
    /// End offset in simulated seconds.
    pub end_sim_secs: f64,
}

impl SpanRecord {
    /// Simulated duration.
    pub fn duration_secs(&self) -> f64 {
        self.end_sim_secs - self.start_sim_secs
    }
}

impl Serialize for SpanRecord {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("seq", self.seq)
            .field("t", self.tnow)
            .field("trace", self.trace_id)
            .field("span", self.span_id)
            .field("parent", self.parent_id)
            .field("name", self.name)
            .field("label", self.label.as_deref())
            .field("start_sim_secs", self.start_sim_secs)
            .field("end_sim_secs", self.end_sim_secs)
            .build()
    }
}

/// Append-only log of completed spans; it keeps every span it is given.
#[derive(Debug, Default, Clone)]
pub struct SpanLog {
    spans: Vec<SpanRecord>,
    next_seq: u64,
    next_span_id: u64,
}

impl SpanLog {
    /// Record a completed span as a child of `parent` (use
    /// [`SpanCtx::root`] to start a new trace root). Returns the new span's
    /// context for recording its own children.
    pub fn record_span(
        &mut self,
        tnow: u64,
        name: &'static str,
        label: Option<&str>,
        parent: SpanCtx,
        start_sim_secs: f64,
        end_sim_secs: f64,
    ) -> SpanCtx {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.next_span_id += 1;
        let span_id = self.next_span_id;
        self.spans.push(SpanRecord {
            seq,
            tnow,
            trace_id: parent.trace_id,
            span_id,
            parent_id: parent.span_id,
            name,
            label: label.map(String::from),
            start_sim_secs,
            end_sim_secs,
        });
        SpanCtx {
            trace_id: parent.trace_id,
            span_id,
        }
    }

    /// Allocate a span id under `parent` *without* recording anything — for
    /// a parent (e.g. a ticket root) whose duration is only known after its
    /// children have completed. Children may immediately use the returned
    /// context as their parent; the caller completes the span later with
    /// [`SpanLog::record_allocated`]. Ids advance the same counter as
    /// [`SpanLog::record_span`], so *allocation* order — not completion
    /// order — fixes them deterministically.
    pub fn alloc_span(&mut self, parent: SpanCtx) -> SpanCtx {
        self.next_span_id += 1;
        SpanCtx {
            trace_id: parent.trace_id,
            span_id: self.next_span_id,
        }
    }

    /// Record a span whose context was pre-allocated with
    /// [`SpanLog::alloc_span`]. The sequence number is assigned now
    /// (completion order); the identity was fixed at allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn record_allocated(
        &mut self,
        ctx: SpanCtx,
        tnow: u64,
        name: &'static str,
        label: Option<&str>,
        parent: SpanCtx,
        start_sim_secs: f64,
        end_sim_secs: f64,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.spans.push(SpanRecord {
            seq,
            tnow,
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: parent.span_id,
            name,
            label: label.map(String::from),
            start_sim_secs,
            end_sim_secs,
        });
    }

    /// All spans in emission order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Render as JSONL, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&serde::to_string(s));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_are_monotonic() {
        let mut log = SpanLog::default();
        log.record_span(1, "execute", None, SpanCtx::root(1), 0.0, 5.0);
        log.record_span(1, "materialize", Some("V1"), SpanCtx::root(1), 5.0, 7.5);
        log.record_span(2, "execute", None, SpanCtx::root(2), 7.5, 9.0);
        let seqs: Vec<u64> = log.spans().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(log.spans()[1].duration_secs(), 2.5);
    }

    #[test]
    fn record_span_builds_a_parent_child_tree() {
        let mut log = SpanLog::default();
        let root = log.record_span(7, "ticket", None, SpanCtx::root(7), 0.0, 10.0);
        assert_eq!(
            root,
            SpanCtx {
                trace_id: 7,
                span_id: 1
            }
        );
        let read = log.record_span(7, "read", None, root, 2.0, 10.0);
        let exec = log.record_span(7, "execute", Some("V1"), read, 2.0, 9.0);
        assert_eq!(exec.trace_id, 7);
        let spans = log.spans();
        assert_eq!(spans[0].parent_id, 0);
        assert_eq!(spans[1].parent_id, root.span_id);
        assert_eq!(spans[2].parent_id, read.span_id);
        assert!(spans.iter().all(|s| s.trace_id == 7));
    }

    #[test]
    fn alloc_then_record_keeps_children_attached() {
        let mut log = SpanLog::default();
        // The root's duration is unknown until its children finish: allocate
        // its identity up front, attach children, complete it last.
        let root = log.alloc_span(SpanCtx::root(5));
        let child = log.record_span(5, "execute", None, root, 1.0, 4.0);
        log.record_allocated(
            root,
            5,
            "ticket",
            Some("client0"),
            SpanCtx::root(5),
            0.0,
            4.0,
        );
        assert_eq!(root.span_id, 1);
        assert_eq!(child.span_id, 2);
        let spans = log.spans();
        // Completion order: the child was recorded first…
        assert_eq!(spans[0].name, "execute");
        assert_eq!(spans[0].parent_id, root.span_id);
        // …but the root keeps its pre-allocated id and root parentage.
        assert_eq!(spans[1].name, "ticket");
        assert_eq!(spans[1].span_id, root.span_id);
        assert_eq!(spans[1].parent_id, 0);
        assert_eq!((spans[0].seq, spans[1].seq), (0, 1));
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let mut log = SpanLog::default();
        log.record_span(3, "execute", Some("V2"), SpanCtx::root(3), 1.0, 2.0);
        let out = log.to_jsonl();
        assert_eq!(out.lines().count(), 1);
        assert_eq!(
            out.trim(),
            "{\"seq\":0,\"t\":3,\"trace\":3,\"span\":1,\"parent\":0,\
             \"name\":\"execute\",\"label\":\"V2\",\
             \"start_sim_secs\":1,\"end_sim_secs\":2}"
        );
    }
}
