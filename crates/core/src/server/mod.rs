//! The serving layer: N logical clients answering queries from published
//! [`ReadSnapshot`]s while a single writer serializes commits — driven by a
//! **deterministic simulated scheduler** in the spirit of the chaos/crash
//! suites.
//!
//! ## Execution model
//!
//! - **Tickets.** Queries carry a global ticket (their index in the
//!   workload). Open-loop arrival times are drawn from a seeded LCG; each
//!   ticket's *read* starts on whichever client frees first (ties break to
//!   the lowest client id), at `max(arrival, client_free)`.
//! - **Reads** run the full read path ([`ReadSnapshot::answer`]) against
//!   the latest snapshot published at their start time. They never touch
//!   the catalog.
//! - **Commits** apply strictly in ticket order: commit *i* becomes
//!   eligible once read *i* has finished and commit *i−1* is done, and
//!   runs the full Algorithm-1 pipeline ([`DeepSea::process_query`])
//!   against the writer's live state; a plan read *i* already ran is not
//!   computed again, since the forked backends share one memo of executed
//!   plans. The catalog mutation is atomic at commit start
//!   (publish-at-apply): the next snapshot epoch is visible
//!   immediately, while the materialization overhead (`creation_secs`)
//!   occupies the writer until the commit completes.
//! - **Tie-breaking.** When a read start and a commit start fall on the
//!   same instant, the commit goes first — readers see the freshest epoch
//!   an interleaving permits.
//!
//! Because commits are serialized in ticket order and run the canonical
//! pipeline, the committed state trajectory — every materialization,
//! eviction, Φ ranking and journal record — is **bit-identical to the
//! single-client serial run**, for every seed and client count.
//! Interleavings only move client latencies and snapshot epochs. Reads are
//! *semantically* identical too (a rewritten plan returns the same rows as
//! the base plan), so a read's result fingerprint always matches the
//! committed one; what may diverge is its *cost* (a stale snapshot may lack
//! a view the writer has since materialized), which the scheduler reports
//! as `divergent_reads` instead of hiding.
//!
//! The whole schedule unfolds in simulated time from one seed — replaying
//! with the same seed reproduces every arrival, interleaving, latency and
//! epoch bit for bit. Real `std::thread` workers
//! ([`ViewServer::run_threaded`]) exercise the same commit protocol under
//! genuine preemption.

mod workers;

pub use workers::ThreadedReport;

use std::sync::Arc;

use deepsea_engine::exec::ExecError;
use deepsea_engine::plan::LogicalPlan;
use deepsea_obs::SpanCtx;

use crate::driver::DeepSea;
use crate::snapshot::ReadSnapshot;

/// A node-lifecycle action the scheduler applies deterministically as part
/// of a [`ServerConfig::node_schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeAction {
    /// Take the node down: reads of files whose every replica lives on down
    /// nodes fail over to fragment-level base-table patching until the node
    /// returns.
    Down,
    /// Bring the node back up; fragments quarantined by the outage are
    /// re-admitted before the next commit.
    Up,
}

/// What the scheduler does with a ticket it decides to shed: serve the
/// answer the stale snapshot can produce by the deadline. The result is
/// still exact (rewritings are semantically transparent), the
/// client-visible latency is capped at the deadline, and the execution cost
/// still occupies the client slot — the work is real and charged. The
/// ticket's serialized commit runs either way, so the writer's state
/// trajectory never depends on shedding.
///
/// One policy, so nothing branches on it: the type is kept for
/// `benchmark/`, which names it; delete with ROADMAP item 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Serve the stale snapshot's exact answer, capped at the deadline.
    #[default]
    ServeStale,
}

impl ShedPolicy {
    /// Canonical name, used in decision events and reports.
    pub fn name(&self) -> &'static str {
        "serve_stale"
    }
}

/// Scheduler parameters: how many logical clients, the seed and mean
/// inter-arrival gap driving the open-loop arrival process, optional
/// deterministic node-failure and slow-node schedules, and the
/// deadline-aware load-shedding knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of logical clients issuing queries (≥ 1).
    pub clients: usize,
    /// Seed for the arrival/interleaving LCG. Same seed ⇒ same schedule,
    /// bit for bit.
    pub seed: u64,
    /// Mean inter-arrival gap in simulated seconds; actual gaps are
    /// `mean_gap_secs * (0.5 + u)` with `u` uniform in `[0, 1)`.
    pub mean_gap_secs: f64,
    /// Node-lifecycle events `(ticket, node, action)`, applied immediately
    /// before commit `ticket` starts (after that ticket's read). Because
    /// commits are serialized in ticket order, the schedule lands at the
    /// same logical point of the state trajectory for every client count.
    /// Nodes never die: a `Down` node stays down until a later `Up`. Empty
    /// (the default) means no scheduled node events; entries naming a node
    /// outside the cluster (or on an unsharded FS) are ignored.
    pub node_schedule: Vec<(usize, u32, NodeAction)>,
    /// Gray-failure events `(ticket, node, latency multiplier)`, applied at
    /// the same commit boundaries as [`ServerConfig::node_schedule`]. A
    /// multiplier > 1.0 makes every read served by that node proportionally
    /// slower (the node stays live and keeps serving); ≤ 1.0 clears the
    /// slowdown. Ignored on an unsharded FS.
    pub slow_schedule: Vec<(usize, u32, f64)>,
    /// Mean per-ticket deadline in simulated seconds after arrival; each
    /// ticket draws `deadline = arrival + deadline_secs * (0.5 + u)` from
    /// the same LCG (after all arrival draws, so arrivals are unchanged by
    /// arming deadlines). `None` disables deadline-based shedding.
    pub deadline_secs: Option<f64>,
    /// Bounded admission queue: when more than this many later tickets have
    /// already arrived and are still waiting at a read's start, the read is
    /// shed with reason `queue_full`. `None` = unbounded.
    pub max_queue: Option<usize>,
    /// What to do with a shed ticket. Kept for `benchmark/`, which sets it;
    /// delete with ROADMAP item 0.
    pub shed_policy: ShedPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            clients: 2,
            seed: 1,
            mean_gap_secs: 30.0,
            node_schedule: Vec::new(),
            slow_schedule: Vec::new(),
            deadline_secs: None,
            max_queue: None,
            shed_policy: ShedPolicy::ServeStale,
        }
    }
}

/// Knuth's MMIX LCG: the deterministic heart of the scheduler. The high 31
/// bits feed the uniform draws (low LCG bits are weak).
#[derive(Debug, Clone, Copy)]
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as f64 * (1.0 / (1u64 << 31) as f64)
    }
}

/// The full lifecycle of one ticket under the simulated scheduler.
#[derive(Debug, Clone)]
pub struct ClientRecord {
    /// Global ticket (index into the workload).
    pub ticket: usize,
    /// The logical client that served the read.
    pub client: usize,
    /// Open-loop arrival time (simulated seconds).
    pub arrival_secs: f64,
    /// When the read actually started (`max(arrival, client free)`).
    pub read_start_secs: f64,
    /// When the read finished; `read_done − arrival` is the client-visible
    /// latency.
    pub read_done_secs: f64,
    /// When this ticket's serialized commit completed.
    pub commit_done_secs: f64,
    /// Client-visible latency (`read_done − arrival`).
    pub latency_secs: f64,
    /// Snapshot epoch the read was answered against.
    pub read_epoch: u64,
    /// Commits the read was behind the serial order (`ticket − read_epoch`).
    pub epoch_lag: u64,
    /// The read's result fingerprint (always equals the committed one —
    /// rewritings are semantically transparent).
    pub read_fingerprint: Arc<[String]>,
    /// The committed result fingerprint from the serialized pipeline; the
    /// read's own, shared, when the commit returned a clone of the read's
    /// result ([`Table::fingerprint`](deepsea_relation::Table::fingerprint)).
    pub committed_fingerprint: Arc<[String]>,
    /// Simulated execution seconds of the read, against its (possibly
    /// stale) snapshot.
    pub read_query_secs: f64,
    /// Simulated execution seconds of the committed (canonical) execution.
    pub committed_query_secs: f64,
    /// Materialization/eviction overhead charged at commit.
    pub committed_creation_secs: f64,
    /// View used by the read, if any.
    pub read_used_view: Option<String>,
    /// View used by the committed execution, if any.
    pub committed_used_view: Option<String>,
    /// True when the read priced differently than the committed execution
    /// (stale snapshot: a view materialized/evicted after the read's epoch
    /// changed the chosen rewriting).
    pub divergent: bool,
    /// True when the read was served in degraded mode: a failed view read (a
    /// lost file or a node outage) forced fragment-level or whole-query
    /// base-table fallback. Degraded reads still return the exact result;
    /// only their cost differs.
    pub degraded: bool,
    /// This ticket's deadline (simulated seconds), when deadlines are armed.
    pub deadline_secs: Option<f64>,
    /// Shed verdict: `Some((policy, reason))` when the scheduler shed this
    /// read — policy is what was done (always `serve_stale`), reason is
    /// why (`deadline_passed` / `queue_full` / `projected_overrun`). `None`
    /// for normally served reads.
    pub shed: Option<(&'static str, &'static str)>,
}

/// The outcome of serving one workload: per-ticket records plus the
/// committed-state summary the determinism tests fingerprint.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-ticket lifecycle records, in ticket order.
    pub records: Vec<ClientRecord>,
    /// Digest of the writer's registry after all commits drained.
    pub state_digest: u64,
    /// Number of reads whose cost diverged from the committed execution.
    pub divergent_reads: u32,
    /// Number of reads served in degraded mode (a failed view read forced a
    /// fragment-level or whole-query base-table fallback). These tickets
    /// are counted in [`ServeReport::latencies_secs`] like any other —
    /// degradation shows up as latency, never as a missing record.
    pub degraded_reads: u64,
    /// Largest `ticket − read_epoch` over all reads.
    pub max_epoch_lag: u64,
    /// Simulated completion time of the whole schedule.
    pub makespan_secs: f64,
    /// Reads shed by the admission/deadline policy (every one carries a
    /// `shed` verdict on its record; shed tickets still commit).
    pub shed_reads: u64,
}

impl ServeReport {
    /// The committed result fingerprints, in ticket order — the series that
    /// must be bit-identical to the serial golden capture.
    pub fn committed_fingerprints(&self) -> Vec<Vec<String>> {
        self.records
            .iter()
            .map(|r| r.committed_fingerprint.to_vec())
            .collect()
    }

    /// The committed per-query execution seconds, in ticket order.
    pub fn committed_query_secs(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.committed_query_secs)
            .collect()
    }

    /// Client-visible latencies, in ticket order.
    pub fn latencies_secs(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.latency_secs).collect()
    }

    /// Exact (nearest-rank, index-rounding) latency percentile over all
    /// tickets. `p` is a fraction in `[0, 1]` — `0.99` for p99. Zero for an
    /// empty report.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        self.percentile_exemplar(p).map_or(0.0, |r| r.latency_secs)
    }

    /// The concrete ticket *behind* a latency percentile: the record whose
    /// latency is the nearest-rank value at `p` (ties break to the lower
    /// ticket, so the exemplar is deterministic). This is what turns "p99 =
    /// 413 s" into "go look at ticket 37's trace".
    pub fn percentile_exemplar(&self, p: f64) -> Option<&ClientRecord> {
        if self.records.is_empty() {
            return None;
        }
        let mut order: Vec<usize> = (0..self.records.len()).collect();
        order.sort_by(|&a, &b| {
            self.records[a]
                .latency_secs
                .total_cmp(&self.records[b].latency_secs)
                .then(a.cmp(&b))
        });
        let idx = ((order.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        Some(&self.records[order[idx]])
    }

    /// Tail exemplars: one entry per occupied latency-histogram bucket
    /// (the observer's log₂ buckets), each linking the bucket to the
    /// slowest concrete ticket that landed in it — and through
    /// `trace_id` to that ticket's causal trace. Ordered by bucket bound.
    pub fn latency_exemplars(&self) -> Vec<LatencyExemplar> {
        use deepsea_obs::metrics::{bucket_of, bucket_upper_bound};
        let mut buckets: std::collections::BTreeMap<usize, LatencyExemplar> =
            std::collections::BTreeMap::new();
        for r in &self.records {
            let b = bucket_of(r.latency_secs);
            let e = buckets.entry(b).or_insert(LatencyExemplar {
                le_secs: bucket_upper_bound(b),
                count: 0,
                ticket: r.ticket,
                trace_id: r.ticket as u64 + 1,
                latency_secs: r.latency_secs,
            });
            e.count += 1;
            if r.latency_secs > e.latency_secs {
                e.ticket = r.ticket;
                e.trace_id = r.ticket as u64 + 1;
                e.latency_secs = r.latency_secs;
            }
        }
        buckets.into_values().collect()
    }
}

/// One latency-histogram bucket tied back to a concrete ticket: the
/// slowest ticket that landed in the bucket, with the trace id of its
/// causal span tree — so a tail bucket in a report links straight to a
/// replayable trace instead of an anonymous aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyExemplar {
    /// Upper bound of the bucket (`+∞` for the overflow bucket).
    pub le_secs: f64,
    /// Tickets whose latency landed in this bucket.
    pub count: u64,
    /// The slowest such ticket (ties keep the earliest).
    pub ticket: usize,
    /// Its causal trace id (`ticket + 1`).
    pub trace_id: u64,
    /// Its recorded latency.
    pub latency_secs: f64,
}

/// A DeepSea instance wrapped in the multi-client serving layer.
pub struct ViewServer {
    ds: DeepSea,
    cfg: ServerConfig,
}

impl ViewServer {
    /// Wrap a driver. The execution backend must support
    /// [`deepsea_engine::ExecutionBackend::fork_reader`] so snapshot
    /// readers can price I/O independently of the writer.
    ///
    /// # Panics
    /// If the backend cannot fork read-only copies.
    pub fn new(ds: DeepSea, cfg: ServerConfig) -> Self {
        assert!(
            ds.publish_snapshot().is_some(),
            "ViewServer requires a backend that supports fork_reader()"
        );
        Self { ds, cfg }
    }

    /// The wrapped driver (e.g. to inspect the registry between workloads).
    pub fn driver(&self) -> &DeepSea {
        &self.ds
    }

    /// Unwrap the driver.
    pub fn into_inner(self) -> DeepSea {
        self.ds
    }

    /// Serve one workload under the deterministic simulated scheduler.
    ///
    /// Commits are serialized in ticket order, so the committed state and
    /// outcome series are bit-identical to calling
    /// [`DeepSea::process_query`] on the same plans one by one — for every
    /// seed and client count. See the module docs for the event model.
    pub fn run(&mut self, plans: &[LogicalPlan]) -> Result<ServeReport, ExecError> {
        let n = plans.len();
        let clients = self.cfg.clients.max(1);
        let mut lcg = Lcg(self.cfg.seed);

        // Open-loop arrivals: the whole arrival process is fixed up front by
        // the seed, independent of service times (clients queue, arrivals
        // don't wait).
        let mut arrivals = Vec::with_capacity(n);
        let mut t = 0.0f64;
        for _ in 0..n {
            t += self.cfg.mean_gap_secs * (0.5 + lcg.next_f64());
            arrivals.push(t);
        }

        // Per-ticket deadlines draw *after* every arrival draw, so arming
        // deadlines never perturbs the arrival schedule itself.
        let deadlines: Option<Vec<f64>> = self.cfg.deadline_secs.map(|d| {
            arrivals
                .iter()
                .map(|&a| a + d * (0.5 + lcg.next_f64()))
                .collect()
        });

        let mut snapshot: ReadSnapshot = self
            .ds
            .publish_snapshot()
            .expect("invariant: forkability is checked in ViewServer::new");
        let obs = self.ds.observer().clone();
        let spans_on = obs.enabled();
        let schedule = self.cfg.node_schedule.clone();
        let slow_schedule = self.cfg.slow_schedule.clone();
        // Per-ticket causal roots (trace id = ticket + 1), so the serialized
        // commit — which lands much later in the event loop — can attach its
        // write-path spans to the right trace.
        let mut trace_roots: Vec<SpanCtx> = Vec::with_capacity(n);

        let mut client_free = vec![0.0f64; clients];
        let mut records: Vec<ClientRecord> = Vec::with_capacity(n);
        let mut next_read = 0usize; // next ticket to start reading
        let mut next_commit = 0usize; // next ticket to commit
        let mut writer_free = 0.0f64;
        let mut divergent_reads = 0u32;
        let mut degraded_reads = 0u64;
        let mut max_epoch_lag = 0u64;
        let mut shed_reads = 0u64;
        // Running mean of served read costs, feeding the projected-overrun
        // shed check. Deterministic: simulated seconds only.
        let mut served_secs_sum = 0.0f64;
        let mut served_count = 0u64;

        while next_commit < n {
            // Earliest possible read start: the next ticket, on whichever
            // client frees first (ties to the lowest id — deterministic).
            let read_ev = (next_read < n).then(|| {
                let (k, free) = client_free
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by(|(ak, af), (bk, bf)| af.total_cmp(bf).then(ak.cmp(bk)))
                    .expect("invariant: clients is clamped to >= 1");
                (arrivals[next_read].max(free), k)
            });
            // Earliest possible commit: strictly in ticket order, once its
            // read is done and the writer is free.
            let commit_ev = (next_commit < next_read)
                .then(|| records[next_commit].read_done_secs.max(writer_free));

            let do_commit = match (commit_ev, read_ev) {
                // Tie → commit first: readers see the freshest epoch.
                (Some(ct), Some((rt, _))) => ct <= rt,
                (Some(_), None) => true,
                // While commits remain and none is eligible, a read must be
                // pending (reads precede their own commit in ticket order).
                (None, _) => false,
            };

            if do_commit {
                let start =
                    commit_ev.expect("invariant: do_commit implies an eligible commit event");
                let ticket = next_commit;
                // Scheduled node events land at commit boundaries: the same
                // logical point of the state trajectory for every client
                // count, so the committed series stays schedule-determined.
                for &(when, node, action) in &schedule {
                    if when == ticket {
                        self.apply_node_action(node, action, &obs);
                    }
                }
                for &(when, node, multiplier) in &slow_schedule {
                    if when == ticket {
                        self.apply_slow_action(node, multiplier, &obs);
                    }
                }
                // Attach the commit's write-path spans to the ticket trace.
                if spans_on {
                    self.ds.begin_ticket_span(trace_roots[ticket], start);
                }
                let outcome = self.ds.process_query(&plans[ticket])?;
                // Publish-at-apply: the new epoch is visible from commit
                // start; creation overhead occupies the writer afterwards.
                snapshot = self
                    .ds
                    .publish_snapshot()
                    .expect("invariant: a backend that forked once forks again");
                writer_free = start + outcome.creation_secs;

                let rec = &mut records[ticket];
                rec.commit_done_secs = writer_free;
                rec.committed_fingerprint = outcome.result.fingerprint();
                rec.committed_query_secs = outcome.query_secs;
                rec.committed_creation_secs = outcome.creation_secs;
                rec.committed_used_view = outcome.used_view.clone();
                // Shed reads are deliberately not the canonical execution —
                // comparing their cost to the committed one would just count
                // the shed again, so divergence tracks served reads only.
                rec.divergent = rec.shed.is_none()
                    && (rec.read_query_secs.to_bits() != outcome.query_secs.to_bits()
                        || rec.read_used_view != outcome.used_view);
                if rec.divergent {
                    divergent_reads += 1;
                    obs.counter_inc("deepsea_server_divergent_reads_total", None);
                }
                obs.counter_inc("deepsea_server_commits_total", None);
                next_commit += 1;
            } else {
                let (start, k) =
                    read_ev.expect("invariant: commits pending implies a read event exists");
                let ticket = next_read;
                let deadline = deadlines.as_ref().map(|d| d[ticket]);

                // ── Admission / deadline shed decision ───────────────────
                // Checked in severity order; all inputs are schedule-derived
                // simulated quantities, so the verdict replays bit-for-bit.
                let mut shed_reason: Option<&'static str> = None;
                if deadline.is_some_and(|d| start > d) {
                    shed_reason = Some("deadline_passed");
                }
                if shed_reason.is_none() {
                    if let Some(q) = self.cfg.max_queue {
                        // Monotone arrivals, `start` ≥ this one: a prefix.
                        let waiting = arrivals[ticket + 1..].partition_point(|&a| a <= start);
                        if waiting > q {
                            shed_reason = Some("queue_full");
                        }
                    }
                }
                if shed_reason.is_none() && served_count > 0 {
                    let projected = served_secs_sum / served_count as f64;
                    if deadline.is_some_and(|d| start + projected > d) {
                        shed_reason = Some("projected_overrun");
                    }
                }

                let policy = self.cfg.shed_policy;
                let shed = shed_reason.map(|reason| (policy.name(), reason));
                if let Some(reason) = shed_reason {
                    shed_reads += 1;
                    obs.counter_inc("deepsea_shed_reads_total", None);
                    obs.counter_inc("deepsea_shed_reads_total", Some(reason));
                    if obs.enabled() {
                        obs.event(
                            ticket as u64 + 1,
                            deepsea_obs::DecisionEvent::Shed {
                                ticket: ticket as u64,
                                policy: policy.name(),
                                reason,
                                deadline_secs: deadline.unwrap_or(0.0),
                            },
                        );
                    }
                }

                // Causal identities are fixed *before* the read runs so the
                // read path can attach its spans; the spans themselves are
                // completed post hoc once the latency is known.
                let tn = ticket as u64 + 1;
                let trace_root = if spans_on {
                    obs.alloc_span(SpanCtx::root(tn))
                } else {
                    SpanCtx::NONE
                };
                let read_ctx = if spans_on {
                    obs.alloc_span(trace_root)
                } else {
                    SpanCtx::NONE
                };

                // Hedge accounting is scoped to this read by differencing the
                // shared FS counters around the execution.
                let hedges_before = self.ds.fs().fault_stats();
                let ans = snapshot.answer_in_span(&plans[ticket], read_ctx, start)?;
                let after = self.ds.fs().fault_stats();
                let issued = after.hedges_issued - hedges_before.hedges_issued;
                if issued > 0 {
                    let won = after.hedges_won - hedges_before.hedges_won;
                    let cancelled = after.hedges_cancelled - hedges_before.hedges_cancelled;
                    obs.counter_add("deepsea_hedges_total", Some("issued"), issued);
                    obs.counter_add("deepsea_hedges_total", Some("won"), won);
                    obs.counter_add("deepsea_hedges_total", Some("cancelled"), cancelled);
                    if obs.enabled() {
                        obs.event(
                            tn,
                            deepsea_obs::DecisionEvent::HedgedRead {
                                ticket: ticket as u64,
                                issued,
                                won,
                                cancelled,
                            },
                        );
                    }
                }
                let recovery = &ans.trace.recovery;
                if recovery.fragment_fallbacks > 0 {
                    obs.counter_add(
                        "deepsea_fragment_fallbacks_total",
                        None,
                        recovery.fragment_fallbacks,
                    );
                }

                // Degraded reads (fragment patching or a whole-query base
                // fallback after a failed view read) return the exact result and are
                // recorded like any other ticket — their latency includes the
                // fallback cost instead of the ticket being dropped.
                let degraded = recovery.fragment_fallbacks > 0 || recovery.base_table_fallbacks > 0;
                if degraded {
                    degraded_reads += 1;
                    obs.counter_inc("deepsea_degraded_reads_total", None);
                }
                let query_secs = ans.query_secs;
                let done = start + query_secs;
                client_free[k] = done;
                // Commits can't outrun reads (commit i needs read i done),
                // so epoch ≤ ticket; the lag is how many commits this read
                // missed relative to the serial order.
                let epoch = ans.epoch;
                let lag = (ticket as u64).saturating_sub(epoch);
                max_epoch_lag = max_epoch_lag.max(lag);
                // A shed read is handed back at its deadline (the exact
                // answer its stale epoch could produce in time).
                let handed_back = match shed_reason {
                    Some(_) => deadline.map_or(done, |d| done.min(d)),
                    None => done,
                };
                let latency = handed_back - arrivals[ticket];

                if shed_reason.is_none() {
                    served_secs_sum += query_secs;
                    served_count += 1;
                    obs.observe("deepsea_client_latency_secs", None, latency);
                    if obs.enabled() {
                        let label = format!("client{k}");
                        obs.observe("deepsea_client_latency_secs", Some(&label), latency);
                    }
                }

                let (read_fingerprint, read_query_secs, read_used_view) =
                    (ans.result.fingerprint(), ans.query_secs, ans.used_view);

                // Complete the ticket's causal tree post hoc — every duration
                // is analytically known now. The root covers arrival →
                // client-visible completion, so the critical path's self
                // times telescope to exactly the reported latency.
                if spans_on {
                    let arrival = arrivals[ticket];
                    let label = format!("client{k}");
                    obs.record_span_at(
                        trace_root,
                        tn,
                        "ticket",
                        Some(&label),
                        SpanCtx::root(tn),
                        arrival,
                        arrival + latency,
                    );
                    if start > arrival {
                        obs.record_span(tn, "queue_wait", None, trace_root, arrival, start);
                    }
                    if let Some((policy_name, reason)) = shed {
                        let verdict = format!("{policy_name}:{reason}");
                        obs.record_span(tn, "shed", Some(&verdict), trace_root, start, start);
                    }
                    obs.record_span_at(
                        read_ctx,
                        tn,
                        "read",
                        read_used_view.as_deref(),
                        trace_root,
                        start,
                        done,
                    );
                }
                trace_roots.push(trace_root);
                records.push(ClientRecord {
                    ticket,
                    client: k,
                    arrival_secs: arrivals[ticket],
                    read_start_secs: start,
                    read_done_secs: done,
                    commit_done_secs: 0.0,
                    latency_secs: latency,
                    read_epoch: epoch,
                    epoch_lag: lag,
                    read_fingerprint,
                    committed_fingerprint: Arc::from([]),
                    read_query_secs,
                    committed_query_secs: 0.0,
                    committed_creation_secs: 0.0,
                    read_used_view,
                    committed_used_view: None,
                    divergent: false,
                    degraded,
                    deadline_secs: deadline,
                    shed,
                });
                next_read += 1;
            }
        }

        let makespan_secs = records
            .iter()
            .map(|r| r.read_done_secs)
            .fold(writer_free, f64::max);

        Ok(ServeReport {
            state_digest: self.ds.registry().state_digest(),
            records,
            divergent_reads,
            degraded_reads,
            max_epoch_lag,
            makespan_secs,
            shed_reads,
        })
    }

    /// Apply one scheduled gray-failure action: a multiplier > 1.0 opens (or
    /// widens) a slow window on the node, ≤ 1.0 clears it. The node keeps
    /// serving throughout — slowness is orthogonal to liveness. Ignored on
    /// an unsharded FS or for unknown node ids, like node actions.
    fn apply_slow_action(&self, node: u32, multiplier: f64, obs: &deepsea_obs::Observer) {
        use deepsea_storage::NodeId;
        let tnow = self.ds.clock();
        // The FS state change happens regardless of observability; only the
        // event assembly (label formatting included) is gated.
        if multiplier > 1.0 {
            if self.ds.fs().set_node_slow(NodeId(node), multiplier) && obs.enabled() {
                obs.event(
                    tnow,
                    deepsea_obs::DecisionEvent::NodeSlow {
                        node: format!("node{node}"),
                        multiplier,
                    },
                );
            }
        } else if self.ds.fs().clear_node_slow(NodeId(node)) && obs.enabled() {
            obs.event(
                tnow,
                deepsea_obs::DecisionEvent::NodeSlowCleared {
                    node: format!("node{node}"),
                },
            );
        }
    }

    /// Apply one scheduled node-lifecycle action through the shared FS and
    /// record it as a typed decision event. Silently ignored on an unsharded
    /// FS or for a node id outside the cluster — a schedule written for a
    /// 4-node sweep stays valid when replayed against a smaller topology.
    fn apply_node_action(&self, node: u32, action: NodeAction, obs: &deepsea_obs::Observer) {
        use deepsea_storage::NodeId;
        let tnow = self.ds.clock();
        let applied = match action {
            NodeAction::Down => self.ds.fs().set_node_down(NodeId(node)),
            NodeAction::Up => self.ds.fs().set_node_up(NodeId(node)),
        };
        if applied && obs.enabled() {
            let label = format!("node{node}");
            let event = match action {
                NodeAction::Down => deepsea_obs::DecisionEvent::NodeDown { node: label },
                NodeAction::Up => deepsea_obs::DecisionEvent::NodeUp { node: label },
            };
            obs.event(tnow, event);
        }
    }
}
