//! The structured decision audit log: typed [`DecisionEvent`]s explaining
//! *why* the pool changed — per-candidate selection verdicts, per-victim
//! eviction records with the full Φ breakdown, fragment split/overlap
//! decisions, quarantine/recovery outcomes, and MLE fit quality.
//!
//! Events are serialized to JSONL through the local serde shim; each line
//! carries a monotonic sequence number and the logical time `t` of the query
//! that produced it, so logs from replayed runs are byte-identical.

use serde::{ObjectBuilder, Serialize, Value};

/// The Φ = COST·B/S breakdown of one item at decision time.
#[derive(Debug, Clone, PartialEq)]
pub struct PhiBreakdown {
    /// The value the policy actually used to rank the item.
    pub phi: f64,
    /// `COST(V)` — the view's (re)creation cost in simulated seconds.
    pub cost: f64,
    /// Decayed accumulated benefit `B` at `tnow`.
    pub benefit: f64,
    /// Benefit without the decay function (pre-decay).
    pub benefit_raw: f64,
    /// Adjusted (decayed, MLE-smoothed where active) hit count `HA`.
    pub ha_hits: f64,
    /// Raw (undecayed, unadjusted) hit/use count.
    pub raw_hits: u64,
    /// Size `S` in simulated bytes.
    pub size: u64,
}

impl Serialize for PhiBreakdown {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("phi", self.phi)
            .field("cost", self.cost)
            .field("benefit", self.benefit)
            .field("benefit_raw", self.benefit_raw)
            .field("ha_hits", self.ha_hits)
            .field("raw_hits", self.raw_hits)
            .field("size", self.size)
            .build()
    }
}

/// One audited decision.
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionEvent {
    /// One decision of selection: an `ALLCAND` item to create or to evict.
    SelectionVerdict {
        /// Item description (`V3` or `V3.item.k[0, 99]`).
        item: String,
        /// `"create"` or `"evict"`.
        verdict: &'static str,
        /// The Φ the item was valued at.
        phi: f64,
        /// Item size in simulated bytes.
        size: u64,
    },
    /// One victim actually evicted, with its full Φ breakdown.
    Eviction {
        /// Victim description.
        victim: String,
        /// The victim's Φ breakdown at eviction time.
        breakdown: PhiBreakdown,
        /// The runner-up victim (next-lowest Φ still in the pool), if any.
        runner_up: Option<String>,
        /// The runner-up's Φ.
        runner_up_phi: Option<f64>,
        /// Whether this eviction was forced by `Smax` enforcement (stage 7)
        /// rather than planned by selection (stage 5).
        forced: bool,
    },
    /// A refinement split a materialized fragment (horizontal mode).
    FragmentSplit {
        /// Owning view.
        view: String,
        /// Partition attribute.
        attr: String,
        /// The refined target interval.
        target: String,
        /// Materialized source fragments read.
        sources: u64,
        /// Remainder pieces rewritten.
        remainders: u64,
    },
    /// A refinement kept its overlapping sources (overlapping mode, §10.4).
    OverlapKept {
        /// Owning view.
        view: String,
        /// Partition attribute.
        attr: String,
        /// The refined target interval.
        target: String,
        /// Overlapping materialized sources kept in place.
        sources: u64,
    },
    /// A view was quarantined after a permanent I/O failure.
    Quarantine {
        /// Quarantined view.
        view: String,
        /// Backing files dropped.
        files: u64,
        /// Pool bytes released.
        bytes: u64,
        /// Fragments stripped.
        fragments: u64,
    },
    /// Quality of one MLE normal fit over a partition's hits (§7.1).
    MleFit {
        /// Owning view.
        view: String,
        /// Partition attribute.
        attr: String,
        /// Fitted mean `μ̂`.
        mean: f64,
        /// Fitted standard deviation `σ̂`.
        std: f64,
        /// Total decayed hits the fit was computed over.
        total_hits: f64,
        /// Fragments in the partition.
        fragments: u64,
    },
    /// A journal snapshot was installed (truncating the record log).
    JournalSnapshot {
        /// Records appended since the previous snapshot.
        appended_since_last: u64,
    },
    /// A cluster node went down (temporary outage).
    NodeDown {
        /// The node, as `node<N>`.
        node: String,
    },
    /// A cluster node returned from an outage.
    NodeUp {
        /// The node, as `node<N>`.
        node: String,
    },
    /// A fragment became unreachable (every replica down) and was
    /// temporarily quarantined at fragment granularity; queries patch the
    /// gap from base tables until the node returns.
    FragmentOutage {
        /// The unreachable backing file id.
        file: u64,
        /// Owning view, when known.
        view: Option<String>,
    },
    /// A previously-offline fragment's node returned; the fragment serves
    /// reads again with no rebuild.
    FragmentReadmitted {
        /// The backing file id.
        file: u64,
    },
    /// A cluster node entered a gray-failure window: alive but serving
    /// reads at a latency multiplier.
    NodeSlow {
        /// The node, as `node<N>`.
        node: String,
        /// The latency multiplier in force.
        multiplier: f64,
    },
    /// A cluster node's gray-failure window was cleared.
    NodeSlowCleared {
        /// The node, as `node<N>`.
        node: String,
    },
    /// Hedged-read activity attributed to one served request (deltas of
    /// the file-system counters across the read).
    HedgedRead {
        /// Serving ticket (arrival order).
        ticket: u64,
        /// Hedges issued during this read.
        issued: u64,
        /// Hedges that beat the primary.
        won: u64,
        /// Hedges cancelled because the primary won.
        cancelled: u64,
    },
    /// The server shed a request instead of serving it in full.
    Shed {
        /// Shed ticket (arrival order).
        ticket: u64,
        /// The policy applied: always `serve_stale`.
        policy: &'static str,
        /// Why: `deadline_passed`, `queue_full`, or `projected_overrun`.
        reason: &'static str,
        /// The ticket's deadline in simulated seconds.
        deadline_secs: f64,
    },
}

impl DecisionEvent {
    /// The event's kind tag, as serialized.
    pub fn kind(&self) -> &'static str {
        match self {
            DecisionEvent::SelectionVerdict { .. } => "selection_verdict",
            DecisionEvent::Eviction { .. } => "eviction",
            DecisionEvent::FragmentSplit { .. } => "fragment_split",
            DecisionEvent::OverlapKept { .. } => "overlap_kept",
            DecisionEvent::Quarantine { .. } => "quarantine",
            DecisionEvent::MleFit { .. } => "mle_fit",
            DecisionEvent::JournalSnapshot { .. } => "journal_snapshot",
            DecisionEvent::NodeDown { .. } => "node_down",
            DecisionEvent::NodeUp { .. } => "node_up",
            DecisionEvent::FragmentOutage { .. } => "fragment_outage",
            DecisionEvent::FragmentReadmitted { .. } => "fragment_readmitted",
            DecisionEvent::NodeSlow { .. } => "node_slow",
            DecisionEvent::NodeSlowCleared { .. } => "node_slow_cleared",
            DecisionEvent::HedgedRead { .. } => "hedged_read",
            DecisionEvent::Shed { .. } => "shed",
        }
    }
}

impl Serialize for DecisionEvent {
    fn to_value(&self) -> Value {
        let b = ObjectBuilder::new().field("kind", self.kind());
        match self {
            DecisionEvent::SelectionVerdict {
                item,
                verdict,
                phi,
                size,
            } => b
                .field("item", item)
                .field("verdict", *verdict)
                .field("phi", *phi)
                .field("size", *size)
                .build(),
            DecisionEvent::Eviction {
                victim,
                breakdown,
                runner_up,
                runner_up_phi,
                forced,
            } => b
                .field("victim", victim)
                .field("breakdown", breakdown)
                .field("runner_up", runner_up.as_deref())
                .field("runner_up_phi", runner_up_phi.as_ref())
                .field("forced", *forced)
                .build(),
            DecisionEvent::FragmentSplit {
                view,
                attr,
                target,
                sources,
                remainders,
            } => b
                .field("view", view)
                .field("attr", attr)
                .field("target", target)
                .field("sources", *sources)
                .field("remainders", *remainders)
                .build(),
            DecisionEvent::OverlapKept {
                view,
                attr,
                target,
                sources,
            } => b
                .field("view", view)
                .field("attr", attr)
                .field("target", target)
                .field("sources", *sources)
                .build(),
            DecisionEvent::Quarantine {
                view,
                files,
                bytes,
                fragments,
            } => b
                .field("view", view)
                .field("files", *files)
                .field("bytes", *bytes)
                .field("fragments", *fragments)
                .build(),
            DecisionEvent::MleFit {
                view,
                attr,
                mean,
                std,
                total_hits,
                fragments,
            } => b
                .field("view", view)
                .field("attr", attr)
                .field("mean", *mean)
                .field("std", *std)
                .field("total_hits", *total_hits)
                .field("fragments", *fragments)
                .build(),
            DecisionEvent::JournalSnapshot {
                appended_since_last,
            } => b.field("appended_since_last", *appended_since_last).build(),
            DecisionEvent::NodeDown { node } | DecisionEvent::NodeUp { node } => {
                b.field("node", node).build()
            }
            DecisionEvent::FragmentOutage { file, view } => b
                .field("file", *file)
                .field("view", view.as_deref())
                .build(),
            DecisionEvent::FragmentReadmitted { file } => b.field("file", *file).build(),
            DecisionEvent::NodeSlow { node, multiplier } => b
                .field("node", node)
                .field("multiplier", *multiplier)
                .build(),
            DecisionEvent::NodeSlowCleared { node } => b.field("node", node).build(),
            DecisionEvent::HedgedRead {
                ticket,
                issued,
                won,
                cancelled,
            } => b
                .field("ticket", *ticket)
                .field("issued", *issued)
                .field("won", *won)
                .field("cancelled", *cancelled)
                .build(),
            DecisionEvent::Shed {
                ticket,
                policy,
                reason,
                deadline_secs,
            } => b
                .field("ticket", *ticket)
                .field("policy", *policy)
                .field("reason", *reason)
                .field("deadline_secs", *deadline_secs)
                .build(),
        }
    }
}

/// One event with its log position: sequence number and logical time.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Monotonic sequence number (emission order).
    pub seq: u64,
    /// Logical time (query sequence number) at emission.
    pub tnow: u64,
    /// The decision.
    pub event: DecisionEvent,
}

impl Serialize for EventRecord {
    fn to_value(&self) -> Value {
        // Flatten: {"seq":..,"t":..,"kind":..,<event fields>}.
        let mut fields = vec![
            ("seq".to_string(), Value::U64(self.seq)),
            ("t".to_string(), Value::U64(self.tnow)),
        ];
        if let Value::Object(ev) = self.event.to_value() {
            fields.extend(ev);
        }
        Value::Object(fields)
    }
}

/// Append-only decision log.
#[derive(Debug, Default, Clone)]
pub struct EventLog {
    events: Vec<EventRecord>,
    next_seq: u64,
}

impl EventLog {
    /// Append an event; assigns the next sequence number.
    pub fn record(&mut self, tnow: u64, event: DecisionEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(EventRecord { seq, tnow, event });
    }

    /// All events in emission order.
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Render as JSONL, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&serde::to_string(e));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_event_serializes_full_breakdown() {
        let mut log = EventLog::default();
        log.record(
            9,
            DecisionEvent::Eviction {
                victim: "V1.item.k[0, 99]".into(),
                breakdown: PhiBreakdown {
                    phi: 1.5,
                    cost: 3.0,
                    benefit: 0.5,
                    benefit_raw: 2.0,
                    ha_hits: 4.25,
                    raw_hits: 6,
                    size: 1024,
                },
                runner_up: Some("V2".into()),
                runner_up_phi: Some(2.5),
                forced: true,
            },
        );
        let line = log.to_jsonl();
        for needle in [
            "\"seq\":0",
            "\"t\":9",
            "\"kind\":\"eviction\"",
            "\"victim\":\"V1.item.k[0, 99]\"",
            "\"phi\":1.5",
            "\"cost\":3",
            "\"benefit\":0.5",
            "\"benefit_raw\":2",
            "\"ha_hits\":4.25",
            "\"raw_hits\":6",
            "\"size\":1024",
            "\"runner_up\":\"V2\"",
            "\"runner_up_phi\":2.5",
            "\"forced\":true",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }

    #[test]
    fn kinds_are_stable_tags() {
        let ev = DecisionEvent::Quarantine {
            view: "V1".into(),
            files: 1,
            bytes: 2,
            fragments: 3,
        };
        assert_eq!(ev.kind(), "quarantine");
        assert!(serde::to_string(&ev).starts_with("{\"kind\":\"quarantine\""));
    }

    #[test]
    fn tail_tolerance_events_serialize() {
        let cases: Vec<(DecisionEvent, &[&str])> = vec![
            (
                DecisionEvent::NodeSlow {
                    node: "node2".into(),
                    multiplier: 8.0,
                },
                &[
                    "\"kind\":\"node_slow\"",
                    "\"node\":\"node2\"",
                    "\"multiplier\":8",
                ],
            ),
            (
                DecisionEvent::NodeSlowCleared {
                    node: "node2".into(),
                },
                &["\"kind\":\"node_slow_cleared\""],
            ),
            (
                DecisionEvent::HedgedRead {
                    ticket: 7,
                    issued: 2,
                    won: 1,
                    cancelled: 1,
                },
                &[
                    "\"kind\":\"hedged_read\"",
                    "\"ticket\":7",
                    "\"issued\":2",
                    "\"won\":1",
                    "\"cancelled\":1",
                ],
            ),
            (
                DecisionEvent::Shed {
                    ticket: 11,
                    policy: "serve_stale",
                    reason: "projected_overrun",
                    deadline_secs: 42.5,
                },
                &[
                    "\"kind\":\"shed\"",
                    "\"ticket\":11",
                    "\"policy\":\"serve_stale\"",
                    "\"reason\":\"projected_overrun\"",
                    "\"deadline_secs\":42.5",
                ],
            ),
        ];
        for (ev, needles) in cases {
            let line = serde::to_string(&ev);
            for needle in needles {
                assert!(line.contains(needle), "missing {needle} in {line}");
            }
        }
    }

    #[test]
    fn log_sequences_events_in_order() {
        let mut log = EventLog::default();
        for t in 1..=3 {
            log.record(
                t,
                DecisionEvent::JournalSnapshot {
                    appended_since_last: t,
                },
            );
        }
        let seqs: Vec<u64> = log.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(log.to_jsonl().lines().count(), 3);
    }
}
