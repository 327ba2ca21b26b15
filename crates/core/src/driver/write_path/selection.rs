//! Stage 5 of Algorithm 1: build `ALLCAND = Vsel ∪ Psel ∪ {materialized
//! views and fragments}` and run the Φ-ranked greedy selection under `Smax`,
//! deciding what to materialize and what to evict.
//!
//! `ALLCAND` is rebuilt for every commit, but the work is proportional to
//! what the commit touched. Building it decides *membership* only — who is
//! in, at what size, materialized or not; a member's Φ is computed when
//! somebody asks for it ([`AllCand::phi`]), one [`PartitionValues`] per pool
//! partition at most. When all of `ALLCAND` fits under `Smax` the §7.3 prefix
//! is all of it, so only the members about to be created are asked (see
//! [`DeepSea::stage_select_configuration`]). And a candidate the §7.2
//! admission test rejected is not tested again while nothing the test reads
//! has changed ([`PselMemo`]).

use std::collections::{BTreeMap, BTreeSet};

use deepsea_engine::ExecutionBackend;
use deepsea_obs::DecisionEvent;

use crate::config::DeepSeaConfig;
use crate::filter_tree::ViewId;
use crate::fragment::{FragmentId, FragmentMeta};
use crate::interval::Interval;
use crate::matching::partition_matching;
use crate::policy::{PartitionPolicy, PartitionValues, ValueModel};
use crate::registry::{PartitionState, ViewMeta, ViewRegistry};
use crate::selection::{
    all_fit, select_with_verdicts, CandidateKind, RankedItem, SelectionResult, Verdict,
};
use crate::stats::LogicalTime;

use super::super::context::QueryContext;
use super::super::DeepSea;

/// The materialized fragments of one partition in tracking order — all the
/// §7.2 admission test reads of the partition besides the candidate itself.
#[derive(Debug, Default, PartialEq)]
struct Layout {
    mats: Vec<(FragmentId, Interval)>,
    /// Sizes, parallel to `mats`.
    sizes: Vec<u64>,
    /// `view.stats.cost` (as bits) and `view.stats.size`.
    view_cost: u64,
    view_size: u64,
}

impl Layout {
    fn of(view: &ViewMeta, ps: &PartitionState) -> Self {
        let mut layout = Layout {
            view_cost: view.stats.cost.to_bits(),
            view_size: view.stats.size,
            ..Layout::default()
        };
        for f in ps.fragments.iter().filter(|f| f.is_materialized()) {
            layout.mats.push((f.id, f.interval));
            layout.sizes.push(f.size);
        }
        layout
    }
}

/// What the admission test read of a candidate when it rejected it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rejection {
    id: FragmentId,
    size: u64,
    hits: usize,
    last_hit: Option<LogicalTime>,
}

impl Rejection {
    fn of(frag: &FragmentMeta) -> Self {
        Self {
            id: frag.id,
            size: frag.size,
            hits: frag.stats.raw_hits(),
            last_hit: frag.stats.last_hit(),
        }
    }
}

/// The rejections of one partition's candidates, by position in
/// `PartitionState::fragments`, valid for `layout` only.
#[derive(Debug, Default)]
struct PartitionMemo {
    layout: Layout,
    rejected: Vec<Option<Rejection>>,
}

impl PartitionMemo {
    /// Whether the candidate at `slot` passes `test` against the layout —
    /// without running it if it failed before and would read the same.
    fn admits(
        &mut self,
        slot: usize,
        frag: &FragmentMeta,
        test: impl FnOnce(&Layout) -> bool,
    ) -> bool {
        let seen = Some(Rejection::of(frag));
        if self.rejected[slot] == seen {
            return false;
        }
        let admitted = test(&self.layout);
        self.rejected[slot] = if admitted { None } else { seen };
        admitted
    }
}

/// Refinement candidates the §7.2 admission test rejected at their last
/// evaluation, per `(view, partition attribute)`.
///
/// A rejection stands for as long as the candidate has the same size and hit
/// list and its partition the same [`Layout`]: the test compares a cost that
/// depends on those alone with `per_hit_saving · H(I, tnow)`, and
/// `H = Σ t/tnow` over an unchanged hit list cannot grow with `tnow` — each
/// term shrinks or times out, and IEEE division, addition and multiplication
/// by a non-negative factor are monotone under rounding. Validity is checked
/// by value on every build, so no mutation site has to invalidate anything:
/// a hit list only ever changes by `record_hit`, which moves `last_hit`, or
/// wholesale in a fragment merge, which also changes the layout.
///
/// Write-side scratch: not part of the catalog, not journaled, empty after
/// [`DeepSea::recover`] — an empty memo only means "evaluate everything".
#[derive(Debug, Default)]
pub(crate) struct PselMemo {
    /// A view has a handful of partitions at most: a scan finds one without
    /// allocating the key a map lookup would need.
    partitions: BTreeMap<ViewId, Vec<(String, PartitionMemo)>>,
}

impl PselMemo {
    /// The memo of one partition, reset unless it was made for the layout
    /// `ps` has now, with a slot for every tracked fragment.
    fn partition(&mut self, view: &ViewMeta, ps: &PartitionState) -> &mut PartitionMemo {
        let of_view = self.partitions.entry(view.id).or_default();
        let pos = match of_view.iter().position(|(attr, _)| *attr == ps.attr) {
            Some(pos) => pos,
            None => {
                of_view.push((ps.attr.clone(), PartitionMemo::default()));
                of_view.len() - 1
            }
        };
        let memo = &mut of_view[pos].1;
        let layout = Layout::of(view, ps);
        if memo.layout != layout {
            memo.layout = layout;
            memo.rejected.clear();
        }
        memo.rejected.resize(ps.fragments.len(), None);
        memo
    }

    /// Number of remembered rejections (tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.partitions
            .values()
            .flatten()
            .map(|(_, m)| m.rejected.iter().flatten().count())
            .sum()
    }
}

/// §7.2 admission of one refinement candidate: does `COST(Icand) ≤ B(I)` hold
/// against the partition's materialized `layout`, given the candidate's
/// decayed hits `H(I)`? A candidate that is already covered nearly as
/// cheaply by materialized fragments brings no marginal benefit and is
/// rejected outright (the cost-based refinement decision of §2).
fn admits_refinement(
    backend: &dyn ExecutionBackend,
    block: u64,
    layout: &Layout,
    view_cost: f64,
    frag: &FragmentMeta,
    decayed_hits: f64,
) -> bool {
    let cover_bytes = partition_matching(&frag.interval, &layout.mats).map(|cover| {
        cover
            .iter()
            .filter_map(|(id, _)| layout.mats.iter().position(|(m, _)| m == id))
            .map(|pos| layout.sizes[pos])
            .sum::<u64>()
    });
    if let Some(cb) = cover_bytes {
        if cb <= frag.size.saturating_mul(5) / 4 {
            return false;
        }
    }
    // COST(Icand) = wwrite·S(Icand) + Σ wread·S(I), here at
    // cluster-effective rates so the units match benefits.
    let read_bytes: u64 = layout
        .mats
        .iter()
        .zip(&layout.sizes)
        .filter(|((_, iv), _)| iv.overlaps(&frag.interval))
        .map(|(_, size)| size)
        .sum();
    let create_cost = if read_bytes == 0 {
        // Nothing materialized overlaps: the fragment must be rebuilt by
        // recomputing the view (§7.1: the fragment's cost is its view's
        // creation cost).
        view_cost
    } else {
        backend.write_secs(frag.size, frag.size.div_ceil(block).max(1))
            + backend.scan_secs(read_bytes, block)
    };
    // Admission benefit: what each (decayed) hit actually saves over today's
    // best access to this range — the cover read (or a full recompute when
    // uncovered) versus reading just this fragment. A sharper proxy for B(I)
    // than the size-share formula, which is kept for the eviction ranking Φ.
    let per_hit_saving = match cover_bytes {
        Some(cb) => (backend.scan_secs(cb, block) - backend.scan_secs(frag.size, block)).max(0.0),
        None => (view_cost - backend.scan_secs(frag.size, block)).max(0.0),
    };
    create_cost <= per_hit_saving * decayed_hits
}

/// How one member of `ALLCAND` gets its Φ.
#[derive(Clone, Copy)]
enum Phi {
    /// Membership itself needed the value (the disjoint initial fragments of
    /// a new view are picked by Φ).
    Known(f64),
    /// `ValueModel::view_value` of the member's view.
    OfView,
    /// Slot `.1` of the values of pool partition `.0` (of [`AllCand::parts`]).
    OfSlot(usize, usize),
}

/// One member of `ALLCAND`, still pointing into the registry.
struct Member<'a> {
    view: &'a ViewMeta,
    /// The fragment and its partition's attribute; `None` for the whole view.
    frag: Option<(&'a str, &'a FragmentMeta)>,
    materialized: bool,
    phi: Phi,
}

impl Member<'_> {
    fn size(&self) -> u64 {
        self.frag.map_or(self.view.stats.size, |(_, f)| f.size)
    }

    fn kind(&self) -> CandidateKind {
        match self.frag {
            None => CandidateKind::WholeView(self.view.id),
            Some((attr, f)) => CandidateKind::Fragment(self.view.id, attr.to_string(), f.id),
        }
    }
}

/// A pool partition with members in `ALLCAND`, valued when first asked.
struct PoolPartition<'a> {
    view: &'a ViewMeta,
    ps: &'a PartitionState,
    values: Option<PartitionValues>,
}

/// `ALLCAND`: its members in the order the registry is walked, each valued on
/// demand.
pub(crate) struct AllCand<'a> {
    members: Vec<Member<'a>>,
    parts: Vec<PoolPartition<'a>>,
    vm: ValueModel,
    tnow: LogicalTime,
    tmax: LogicalTime,
}

impl<'a> AllCand<'a> {
    /// Decide who is in `ALLCAND`: this query's view candidates passing
    /// `COST ≤ B`, everything materialized, and the refinement candidates of
    /// pool partitions passing the §7.2 admission test.
    pub(crate) fn build(
        registry: &'a ViewRegistry,
        psel_memo: &mut PselMemo,
        backend: &dyn ExecutionBackend,
        config: &DeepSeaConfig,
        block: u64,
        new_cands: &[ViewId],
        tnow: LogicalTime,
    ) -> Self {
        let tmax = config.tmax;
        let vm = config.value_model;
        let repartitions = config.partition_policy.repartitions();
        let mut members = Vec::new();
        let mut parts = Vec::new();
        let mut included: BTreeSet<ViewId> = BTreeSet::new();

        // Vsel: this query's unmaterialized view candidates passing COST ≤ B.
        for &vid in new_cands {
            if !included.insert(vid) {
                continue;
            }
            let view = registry.view(vid);
            if view.is_materialized() {
                continue;
            }
            let benefit = vm.view_benefit(&view.stats, tnow, tmax);
            if view.creation_overhead > benefit {
                continue;
            }
            // Under the progressive policy a new partitioned view's *initial
            // fragments* are admitted individually — "candidate views and
            // fragments are treated alike" (§7.3). A pool far smaller than
            // the view can still admit its hot fragments.
            let progressive =
                matches!(config.partition_policy, PartitionPolicy::Progressive { .. });
            let hinted = view
                .partitions
                .values()
                .max_by_key(|p| (p.boundaries.len(), p.fragments.len()))
                .filter(|p| !p.fragments.is_empty());
            match hinted {
                Some(ps) if progressive => {
                    let values =
                        vm.fragment_values(ps, view.stats.size, view.stats.cost, tnow, tmax);
                    // Tracked candidates can overlap (pieces from different
                    // queries' splits); the initial materialization keeps a
                    // greedy Φ-ranked *disjoint* subset so the view is not
                    // written multiple times over.
                    let mut ranked: Vec<(&FragmentMeta, f64)> =
                        ps.fragments.iter().map(|f| &**f).zip(values).collect();
                    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
                    let mut taken: Vec<Interval> = Vec::new();
                    for (frag, phi) in ranked {
                        if taken.iter().any(|iv| iv.overlaps(&frag.interval)) {
                            continue;
                        }
                        taken.push(frag.interval);
                        members.push(Member {
                            view,
                            frag: Some((&ps.attr, frag)),
                            materialized: false,
                            phi: Phi::Known(phi),
                        });
                    }
                }
                _ => members.push(Member {
                    view,
                    frag: None,
                    materialized: false,
                    phi: Phi::OfView,
                }),
            }
        }

        for view in registry.iter() {
            // Materialized whole views partake (needed for NP-style pools).
            if view.whole_file.is_some() {
                members.push(Member {
                    view,
                    frag: None,
                    materialized: true,
                    phi: Phi::OfView,
                });
            }
            for ps in view.partitions.values() {
                if !ps.any_materialized() {
                    continue;
                }
                // Psel (§7.2 — only for partitions already in the pool, and
                // only under a policy that refines them).
                let mut memo = repartitions.then(|| psel_memo.partition(view, ps));
                for (slot, frag) in ps.fragments.iter().enumerate() {
                    let materialized = frag.is_materialized();
                    let admitted = materialized
                        || memo.as_mut().is_some_and(|memo| {
                            memo.admits(slot, frag, |layout| {
                                admits_refinement(
                                    backend,
                                    block,
                                    layout,
                                    view.stats.cost,
                                    frag,
                                    frag.stats.decayed_hits(tnow, tmax),
                                )
                            })
                        });
                    if admitted {
                        members.push(Member {
                            view,
                            frag: Some((&ps.attr, frag)),
                            materialized,
                            phi: Phi::OfSlot(parts.len(), slot),
                        });
                    }
                }
                parts.push(PoolPartition {
                    view,
                    ps,
                    values: None,
                });
            }
        }
        Self {
            members,
            parts,
            vm,
            tnow,
            tmax,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether all of `ALLCAND` fits in the pool, so that nothing is cut.
    pub(crate) fn fits(&self, smax: Option<u64>) -> bool {
        all_fit(self.members.iter().map(Member::size), smax)
    }

    /// Φ of member `i`, valuing the partition it came from if nobody has yet.
    fn phi(&mut self, i: usize) -> f64 {
        let member = &self.members[i];
        let (vm, tnow, tmax) = (self.vm, self.tnow, self.tmax);
        match member.phi {
            Phi::Known(phi) => phi,
            Phi::OfView => vm.view_value(&member.view.stats, tnow, tmax),
            Phi::OfSlot(part, slot) => {
                let PoolPartition { view, ps, values } = &mut self.parts[part];
                let valued = values.get_or_insert_with(|| {
                    vm.value_fragments(ps, view.stats.size, view.stats.cost, tnow, tmax)
                });
                valued.values[slot]
            }
        }
    }

    /// Φ of every member the build has valued so far (tests): `None` where
    /// asking would compute it.
    #[cfg(test)]
    pub(crate) fn valued(&self) -> Vec<Option<f64>> {
        self.members
            .iter()
            .map(|m| match m.phi {
                Phi::Known(phi) => Some(phi),
                Phi::OfView => None,
                Phi::OfSlot(part, slot) => self.parts[part].values.as_ref().map(|v| v.values[slot]),
            })
            .collect()
    }

    fn item(&mut self, i: usize) -> RankedItem {
        let phi = self.phi(i);
        let member = &self.members[i];
        RankedItem {
            kind: member.kind(),
            phi,
            size: member.size(),
            materialized: member.materialized,
        }
    }

    /// Every member as a ranked item: everything is valued.
    pub(crate) fn items(&mut self) -> Vec<RankedItem> {
        (0..self.members.len()).map(|i| self.item(i)).collect()
    }

    /// What selection keeps of an `ALLCAND` that [`fits`](Self::fits): every
    /// member is inside the prefix, so the materialized ones stay, nothing is
    /// evicted, and the others are created in the order the full ranking
    /// would put them — a stable sort keeps a subsequence's relative order,
    /// and among unmaterialized items the ranking's tie-break is void. Only
    /// the partitions of those others are valued.
    pub(crate) fn creations(&mut self) -> Vec<RankedItem> {
        let mut to_create = Vec::new();
        for i in 0..self.members.len() {
            if !self.members[i].materialized {
                to_create.push(self.item(i));
            }
        }
        to_create.sort_by(|a, b| b.phi.total_cmp(&a.phi));
        to_create
    }
}

impl DeepSea {
    /// Run selection over this query's candidates plus everything the pool
    /// already holds; the chosen configuration lands in `ctx.selection`.
    ///
    /// The ranking runs — and every member of `ALLCAND` is valued for it —
    /// when the prefix can cut something (`Σ size > Smax`) or an observer
    /// reports every Φ and fit. Otherwise only the members to create are
    /// valued, and `to_keep`, which only the audit log reads, stays empty.
    pub(crate) fn stage_select_configuration(&mut self, ctx: &mut QueryContext) {
        let smax = self.config.smax;
        let mut all = AllCand::build(
            &self.registry,
            &mut self.psel_memo,
            self.backend.as_ref(),
            &self.config,
            self.fs.block_config().block_bytes,
            &ctx.new_cands,
            ctx.tnow,
        );
        ctx.trace.selection.considered = all.len() as u64;
        let selection = if self.obs.enabled() || !all.fits(smax) {
            let items = all.items();
            // What the audit log says of each item, taken only when the
            // decision log listens — the selection below runs on the same
            // items either way.
            let audit: Option<Vec<(String, f64, u64, bool)>> =
                self.obs.events_enabled().then(|| {
                    items
                        .iter()
                        .map(|i| (self.describe_item(&i.kind), i.phi, i.size, i.materialized))
                        .collect()
                });
            let (selection, verdicts) = select_with_verdicts(items, smax);
            if let Some(audit) = audit {
                self.observe_selection(audit, &verdicts, ctx.tnow);
            }
            if self.obs.enabled() {
                self.obs.counter_add(
                    "deepsea_candidates_considered_total",
                    None,
                    ctx.trace.selection.considered,
                );
                self.observe_mle_fits(&all.parts, ctx.tnow);
            }
            selection
        } else {
            SelectionResult {
                to_create: all.creations(),
                ..SelectionResult::default()
            }
        };
        #[cfg(test)]
        {
            self.assert_matches_reference(&ctx.new_cands, ctx.tnow, &mut all);
            let ranked = select_with_verdicts(all.items(), smax).0;
            assert_eq!(
                (&selection.to_create, &selection.to_evict),
                (&ranked.to_create, &ranked.to_evict),
                "the plan diverged from the full ranking's at tnow = {}",
                ctx.tnow
            );
        }
        ctx.trace.selection.planned_creations = selection.to_create.len() as u64;
        ctx.trace.selection.planned_evictions = selection.to_evict.len() as u64;
        ctx.selection = selection;
    }

    /// Log one `selection_verdict` audit event per `ALLCAND` item. A
    /// `reject` was turned down by admission sizing (unmaterialized, didn't
    /// fit the Φ-ranked prefix).
    fn observe_selection(
        &self,
        audit: Vec<(String, f64, u64, bool)>,
        verdicts: &[Verdict],
        tnow: LogicalTime,
    ) {
        for ((item, phi, size, materialized), verdict) in audit.into_iter().zip(verdicts) {
            self.obs.observe("deepsea_phi", None, phi);
            self.obs.event(
                tnow,
                DecisionEvent::SelectionVerdict {
                    item,
                    verdict: verdict.as_str(),
                    phi,
                    size,
                    materialized,
                },
            );
        }
    }

    /// Record MLE fit quality (§7.1) for every pool partition the policy
    /// smooths: the fits the ranking used, so observation feeds no decision.
    fn observe_mle_fits(&self, parts: &[PoolPartition], tnow: LogicalTime) {
        for part in parts {
            let Some(fit) = part.values.as_ref().and_then(|v| v.fit) else {
                continue;
            };
            let (view, attr) = (&part.view.name, &part.ps.attr);
            let label = format!("{view}.{attr}");
            self.obs
                .gauge_set("deepsea_mle_mean", Some(&label), fit.normal.mean);
            self.obs
                .gauge_set("deepsea_mle_std", Some(&label), fit.normal.std);
            self.obs.event(
                tnow,
                DecisionEvent::MleFit {
                    view: view.to_string(),
                    attr: attr.clone(),
                    mean: fit.normal.mean,
                    std: fit.normal.std,
                    total_hits: fit.total_hits,
                    fragments: part.ps.fragments.len() as u64,
                },
            );
        }
    }

    /// `ALLCAND` as `enforce_limit` re-ranks it now, every member valued: the
    /// pool plus the refinement candidates that pass admission, with no new
    /// view candidates. Public for inspection and the micro-benchmarks.
    pub fn allcand(&mut self) -> Vec<RankedItem> {
        let tnow = self.clock.max(1);
        self.ranked_allcand(tnow)
    }

    /// [`DeepSea::allcand`] at `tnow`.
    pub(crate) fn ranked_allcand(&mut self, tnow: LogicalTime) -> Vec<RankedItem> {
        let mut all = AllCand::build(
            &self.registry,
            &mut self.psel_memo,
            self.backend.as_ref(),
            &self.config,
            self.fs.block_config().block_bytes,
            &[],
            tnow,
        );
        let items = all.items();
        #[cfg(test)]
        self.assert_matches_reference(&[], tnow, &mut all);
        items
    }
}
