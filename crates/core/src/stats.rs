//! View and fragment statistics, the decay function, accumulated benefit and
//! the cost–benefit value `Φ` (§6 and §7.1 of the paper).
//!
//! Time is logical: the sequence number of the query in the workload, 1-based
//! (`tnow >= 1`), matching the paper's use of submission order in the decay
//! function `DEC(tnow, t) = t/tnow` (0 once older than `tmax`).
//!
//! A view's size and cost sit in its registry node ([`ViewStats`]); what
//! every query records — benefit events and fragment hits — sits in the
//! writer's [`StatsLedger`].

use crate::filter_tree::ViewId;
use crate::fragment::FragmentId;

/// Logical timestamp: the 1-based sequence number of a query.
pub type LogicalTime = u64;

/// The decay function of §7.1:
///
/// ```text
/// DEC(tnow, t) = 0          if tnow - t > tmax
///                t / tnow   otherwise
/// ```
pub fn decay(tnow: LogicalTime, t: LogicalTime, tmax: LogicalTime) -> f64 {
    debug_assert!(t <= tnow, "benefit recorded in the future");
    if tnow - t > tmax || tnow == 0 {
        0.0
    } else {
        t as f64 / tnow as f64
    }
}

/// One recorded (potential) use of a view: when, and how much execution time
/// it saved (or would have saved).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenefitEvent {
    /// When the view was (or could have been) used.
    pub t: LogicalTime,
    /// `COST(Q) - COST(Q/V)` at that time, clamped at 0.
    pub saving: f64,
}

/// Statistics kept per view in its registry node: `S` and `COST` of
/// Definition 5. They change only with the view's structure (estimated at
/// registration, measured at materialization); the benefit history `(T, B)`
/// every query appends to is the writer's, in [`ViewUses`].
#[derive(Debug, Clone, PartialEq)]
pub struct ViewStats {
    /// Storage size `S(V)` in simulated bytes (estimated until first
    /// materialization, then actual).
    pub size: u64,
    /// Creation cost `COST(V)` in seconds (estimated, then actual).
    pub cost: f64,
    /// Whether `size`/`cost` are measured rather than estimated.
    pub measured: bool,
}

impl ViewStats {
    /// Fresh statistics from initial estimates.
    pub fn estimated(size: u64, cost: f64) -> Self {
        Self {
            size,
            cost,
            measured: false,
        }
    }

    /// Replace estimates with measured values (idempotent).
    pub fn set_measured(&mut self, size: u64, cost: f64) {
        self.size = size;
        self.cost = cost;
        self.measured = true;
    }

    /// The view value `Φ(V, tnow) = COST(V) · B(V, tnow) / S(V)` (§7.1).
    pub fn phi(&self, uses: &ViewUses, tnow: LogicalTime, tmax: LogicalTime) -> f64 {
        if self.size == 0 {
            return 0.0;
        }
        self.cost * uses.benefit(tnow, tmax) / self.size as f64
    }
}

/// The recorded (potential) uses of a view: timestamps `T` with savings `B`
/// of Definition 5.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ViewUses {
    /// Recorded benefit events, oldest first.
    pub events: Vec<BenefitEvent>,
}

impl ViewUses {
    /// Record that the view was (or could have been) used at `t`, saving
    /// `saving` seconds.
    pub fn record_use(&mut self, t: LogicalTime, saving: f64) {
        self.events.push(BenefitEvent {
            t,
            saving: saving.max(0.0),
        });
    }

    /// Accumulated benefit `B(V, tnow) = Σ saving · DEC(tnow, t)`.
    pub fn benefit(&self, tnow: LogicalTime, tmax: LogicalTime) -> f64 {
        self.events
            .iter()
            .map(|e| e.saving * decay(tnow, e.t, tmax))
            .sum()
    }

    /// Benefit without the decay function (used by the Nectar+ baseline).
    pub fn undecayed_benefit(&self) -> f64 {
        self.events.iter().map(|e| e.saving).sum()
    }

    /// The most recent single saving (used by the Nectar baseline, which
    /// does not accumulate benefit).
    pub fn last_saving(&self) -> f64 {
        self.events.last().map(|e| e.saving).unwrap_or(0.0)
    }

    /// Timestamp of the most recent use.
    pub fn last_use(&self) -> Option<LogicalTime> {
        self.events.last().map(|e| e.t)
    }

    /// Drop events that have fully decayed (bounds memory on long workloads).
    pub fn prune(&mut self, tnow: LogicalTime, tmax: LogicalTime) {
        self.events.retain(|e| tnow - e.t <= tmax);
    }
}

/// A view's [`ViewStats`] and [`ViewUses`] printed as the one
/// `ViewStats { size, cost, measured, events }` they were before the uses
/// moved to the writer's ledger — the form `state_digest` and the journal's
/// `Debug` keep.
pub(crate) struct StatsWithUses<'a>(pub &'a ViewStats, pub &'a ViewUses);

impl std::fmt::Debug for StatsWithUses<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let StatsWithUses(
            ViewStats {
                size,
                cost,
                measured,
            },
            ViewUses { events },
        ) = self;
        f.debug_struct("ViewStats")
            .field("size", size)
            .field("cost", cost)
            .field("measured", measured)
            .field("events", events)
            .finish()
    }
}

/// Statistics kept per fragment: `(S, T)` of Definition 5 — the fragment's
/// cost and benefit are derived from its view's.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FragStats {
    /// Hit timestamps `T(I)`.
    pub hits: Vec<LogicalTime>,
}

impl FragStats {
    /// Record a hit (the fragment was or could have been used) at `t`.
    pub fn record_hit(&mut self, t: LogicalTime) {
        self.hits.push(t);
    }

    /// Decayed hit count `H(I) = Σ DEC(tnow, t)` (§7.1).
    pub fn decayed_hits(&self, tnow: LogicalTime, tmax: LogicalTime) -> f64 {
        self.hits.iter().map(|&t| decay(tnow, t, tmax)).sum()
    }

    /// Raw (undecayed) hit count.
    pub fn raw_hits(&self) -> usize {
        self.hits.len()
    }

    /// Most recent hit.
    pub fn last_hit(&self) -> Option<LogicalTime> {
        self.hits.last().copied()
    }

    /// Drop hits that have fully decayed.
    pub fn prune(&mut self, tnow: LogicalTime, tmax: LogicalTime) {
        self.hits.retain(|&t| tnow - t <= tmax);
    }

    /// Accumulated fragment benefit (§7.1):
    ///
    /// ```text
    /// B(I, tnow) = Σ_hits (S(I)/S(V)) · COST(V) · DEC(tnow, t)
    /// ```
    pub fn benefit(
        &self,
        frag_size: u64,
        view_size: u64,
        view_cost: f64,
        tnow: LogicalTime,
        tmax: LogicalTime,
    ) -> f64 {
        if view_size == 0 {
            return 0.0;
        }
        let per_hit = (frag_size as f64 / view_size as f64) * view_cost;
        per_hit * self.decayed_hits(tnow, tmax)
    }

    /// Fragment value `Φ(I, tnow) = COST(V) · B(I, tnow) / S(I)` (§7.1).
    pub fn phi(
        &self,
        frag_size: u64,
        view_size: u64,
        view_cost: f64,
        tnow: LogicalTime,
        tmax: LogicalTime,
    ) -> f64 {
        if frag_size == 0 {
            return 0.0;
        }
        view_cost * self.benefit(frag_size, view_size, view_cost, tnow, tmax) / frag_size as f64
    }

    /// Fragment value computed from an externally *adjusted* decayed hit
    /// count (the MLE-smoothed `HA(I)` of the probabilistic model, §7.1).
    pub fn phi_with_hits(
        adjusted_hits: f64,
        frag_size: u64,
        view_size: u64,
        view_cost: f64,
    ) -> f64 {
        if frag_size == 0 || view_size == 0 {
            return 0.0;
        }
        let benefit = (frag_size as f64 / view_size as f64) * view_cost * adjusted_hits;
        view_cost * benefit / frag_size as f64
    }
}

/// The statistics the writer records on every query — each view's
/// [`ViewUses`] and each tracked fragment's [`FragStats`] — kept apart from
/// the copy-on-write registry nodes published snapshots share, so that
/// recording them copies no node. Dense: a view's entry sits at its id and a
/// fragment's at its slot (= its id) in its partition. Entries are made on
/// first write; an entry never written reads as no statistics at all.
#[derive(Debug, Clone, Default)]
pub struct StatsLedger {
    views: Vec<ViewLedger>,
}

/// One view's entry in the [`StatsLedger`].
#[derive(Debug, Clone, Default)]
struct ViewLedger {
    uses: ViewUses,
    /// Fragment statistics by slot, per partition attribute: a view has a
    /// handful of partitions at most, so a scan finds one.
    partitions: Vec<(String, Vec<FragStats>)>,
}

static NO_USES: ViewUses = ViewUses { events: Vec::new() };
static NO_HITS: FragStats = FragStats { hits: Vec::new() };

impl StatsLedger {
    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The recorded uses of `view`.
    pub fn uses(&self, view: ViewId) -> &ViewUses {
        self.views
            .get(view.0 as usize)
            .map_or(&NO_USES, |v| &v.uses)
    }

    /// The recorded uses of `view`, for writing.
    pub fn uses_mut(&mut self, view: ViewId) -> &mut ViewUses {
        &mut self.view_mut(view).uses
    }

    /// The fragment statistics of `view`'s partition on `attr`.
    pub fn hits(&self, view: ViewId, attr: &str) -> PartitionHits<'_> {
        let slots = self
            .views
            .get(view.0 as usize)
            .and_then(|v| v.partitions.iter().find(|(a, _)| a == attr));
        PartitionHits(slots.map_or(&[], |(_, slots)| slots))
    }

    /// The fragment statistics of `view`'s partition on `attr` by slot, for
    /// writing; shorter than the partition's fragment list until written.
    pub(crate) fn partition_mut(&mut self, view: ViewId, attr: &str) -> &mut Vec<FragStats> {
        let partitions = &mut self.view_mut(view).partitions;
        let pos = match partitions.iter().position(|(a, _)| a == attr) {
            Some(pos) => pos,
            None => {
                partitions.push((attr.to_string(), Vec::new()));
                partitions.len() - 1
            }
        };
        &mut partitions[pos].1
    }

    /// The statistics of fragment `id` of `view`'s partition on `attr`, for
    /// writing.
    pub fn hits_mut(&mut self, view: ViewId, attr: &str, id: FragmentId) -> &mut FragStats {
        let slots = self.partition_mut(view, attr);
        let slot = id.0 as usize;
        if slots.len() <= slot {
            slots.resize_with(slot + 1, FragStats::default);
        }
        &mut slots[slot]
    }

    fn view_mut(&mut self, view: ViewId) -> &mut ViewLedger {
        let at = view.0 as usize;
        if self.views.len() <= at {
            self.views.resize_with(at + 1, ViewLedger::default);
        }
        &mut self.views[at]
    }
}

/// The fragment statistics of one partition, by slot (see
/// [`StatsLedger::hits`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PartitionHits<'a>(&'a [FragStats]);

impl<'a> PartitionHits<'a> {
    /// Statistics listed by slot.
    pub fn new(slots: &'a [FragStats]) -> Self {
        Self(slots)
    }

    /// The statistics of fragment `id` (at its slot).
    pub fn of(self, id: FragmentId) -> &'a FragStats {
        self.0.get(id.0 as usize).unwrap_or(&NO_HITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_proportional_and_cutoff() {
        assert!((decay(10, 5, 100) - 0.5).abs() < 1e-12);
        assert!((decay(10, 10, 100) - 1.0).abs() < 1e-12);
        assert_eq!(decay(200, 5, 100), 0.0, "older than tmax times out");
        assert!(decay(105, 5, 100) > 0.0, "exactly tmax old still counts");
    }

    #[test]
    fn decay_is_monotone_in_recency() {
        // More recent events decay less.
        assert!(decay(100, 90, 1000) > decay(100, 10, 1000));
    }

    #[test]
    fn view_benefit_accumulates_with_decay() {
        let mut u = ViewUses::default();
        u.record_use(5, 100.0);
        u.record_use(10, 100.0);
        let b = u.benefit(10, 1000);
        assert!((b - (100.0 * 0.5 + 100.0)).abs() < 1e-9);
        assert_eq!(u.undecayed_benefit(), 200.0);
        assert_eq!(u.last_saving(), 100.0);
        assert_eq!(u.last_use(), Some(10));
    }

    #[test]
    fn negative_savings_clamped() {
        let mut u = ViewUses::default();
        u.record_use(1, -50.0);
        assert_eq!(u.benefit(1, 100), 0.0);
    }

    #[test]
    fn phi_prefers_expensive_beneficial_small() {
        let tnow = 10;
        let mut used = ViewUses::default();
        used.record_use(10, 50.0);
        let cheap = ViewStats::estimated(1000, 1.0);
        let expensive = ViewStats::estimated(1000, 100.0);
        assert!(expensive.phi(&used, tnow, 100) > cheap.phi(&used, tnow, 100));

        let small = ViewStats::estimated(10, 1.0);
        let big = ViewStats::estimated(1000, 1.0);
        assert!(small.phi(&used, tnow, 100) > big.phi(&used, tnow, 100));
    }

    #[test]
    fn measured_replaces_estimates() {
        let mut s = ViewStats::estimated(100, 10.0);
        assert!(!s.measured);
        s.set_measured(250, 25.0);
        assert!(s.measured);
        assert_eq!(s.size, 250);
        assert_eq!(s.cost, 25.0);
    }

    #[test]
    fn prune_drops_expired_events() {
        let mut u = ViewUses::default();
        u.record_use(1, 1.0);
        u.record_use(90, 1.0);
        u.prune(100, 50);
        assert_eq!(u.events.len(), 1);
        assert_eq!(u.events[0].t, 90);
    }

    /// The ledger makes entries on first write, and reads an entry never
    /// written as empty.
    #[test]
    fn ledger_entries_are_made_on_first_write() {
        let mut ledger = StatsLedger::default();
        assert!(ledger.is_empty());
        assert!(ledger.uses(ViewId(3)).events.is_empty());
        assert_eq!(
            ledger.hits(ViewId(3), "a.k").of(FragmentId(5)).raw_hits(),
            0
        );
        ledger.uses_mut(ViewId(2)).record_use(4, 1.0);
        ledger
            .hits_mut(ViewId(2), "a.k", FragmentId(5))
            .record_hit(4);
        assert!(!ledger.is_empty());
        assert_eq!(ledger.uses(ViewId(2)).last_use(), Some(4));
        assert!(
            ledger.uses(ViewId(1)).events.is_empty(),
            "only view 2 wrote"
        );
        let hits = ledger.hits(ViewId(2), "a.k");
        assert_eq!(hits.of(FragmentId(5)).last_hit(), Some(4));
        assert_eq!(hits.of(FragmentId(4)).raw_hits(), 0);
        assert_eq!(
            hits.of(FragmentId(6)).raw_hits(),
            0,
            "past the last slot written"
        );
        assert_eq!(ledger.partition_mut(ViewId(2), "a.k").len(), 6);
        assert_eq!(
            ledger.hits(ViewId(2), "a.v").of(FragmentId(5)).raw_hits(),
            0
        );
    }

    #[test]
    fn frag_benefit_scales_with_relative_size() {
        let mut f = FragStats::default();
        f.record_hit(10);
        let small = f.benefit(10, 100, 50.0, 10, 100);
        let large = f.benefit(50, 100, 50.0, 10, 100);
        assert!(large > small);
        assert!((small - 0.1 * 50.0).abs() < 1e-9);
    }

    #[test]
    fn frag_phi_and_adjusted_agree_on_raw_hits() {
        let mut f = FragStats::default();
        f.record_hit(10);
        f.record_hit(10);
        let tnow = 10;
        let direct = f.phi(10, 100, 50.0, tnow, 100);
        let via_hits = FragStats::phi_with_hits(f.decayed_hits(tnow, 100), 10, 100, 50.0);
        assert!((direct - via_hits).abs() < 1e-9);
    }

    #[test]
    fn zero_sizes_are_safe() {
        let s = ViewStats::estimated(0, 10.0);
        assert_eq!(s.phi(&ViewUses::default(), 1, 10), 0.0);
        let f = FragStats::default();
        assert_eq!(f.phi(0, 100, 1.0, 1, 10), 0.0);
        assert_eq!(f.benefit(10, 0, 1.0, 1, 10), 0.0);
        assert_eq!(FragStats::phi_with_hits(1.0, 0, 100, 1.0), 0.0);
    }

    #[test]
    fn frag_hit_bookkeeping() {
        let mut f = FragStats::default();
        assert_eq!(f.last_hit(), None);
        f.record_hit(3);
        f.record_hit(7);
        assert_eq!(f.raw_hits(), 2);
        assert_eq!(f.last_hit(), Some(7));
        f.prune(10, 5); // hit at 3 is 7 old (> 5); hit at 7 is 3 old (kept)
        assert_eq!(f.raw_hits(), 1);
    }
}
