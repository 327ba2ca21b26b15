//! Stage 5 of Algorithm 1: build `ALLCAND = Vsel ∪ Psel ∪ {materialized
//! views and fragments}` and run the Φ-ranked greedy selection under `Smax`,
//! deciding what to materialize and what to evict.
//!
//! `ALLCAND` is rebuilt for every commit, but the work is proportional to
//! what the commit touched. Each pool partition gets one scratch per build —
//! its materialized layout and one [`PartitionValues`] — shared by the
//! ranking, the §7.2 admission test of its refinement candidates and the
//! audit log. And a candidate the test rejected is not tested again while
//! nothing the test reads has changed ([`PselMemo`]).

use std::collections::{BTreeMap, BTreeSet};

use deepsea_engine::ExecutionBackend;
use deepsea_obs::DecisionEvent;

use crate::filter_tree::ViewId;
use crate::fragment::{FragmentId, FragmentMeta};
use crate::interval::Interval;
use crate::matching::partition_matching;
use crate::policy::{PartitionFit, PartitionPolicy};
use crate::selection::{select_with_verdicts, CandidateKind, RankedItem, Verdict};
use crate::stats::LogicalTime;

use super::super::context::QueryContext;
use super::super::DeepSea;

/// `ALLCAND` and what building it learned on the way.
pub(crate) struct AllCand {
    /// The candidates, in the order the registry is walked.
    pub(crate) items: Vec<RankedItem>,
    /// The MLE fit of every pool partition that has one, for the audit log;
    /// collected only while an observer listens.
    fits: Vec<MleFitNote>,
}

/// One pool partition's MLE fit (§7.1), as the audit log reports it.
struct MleFitNote {
    view: ViewId,
    attr: String,
    fit: PartitionFit,
    fragments: u64,
}

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
    partitions: BTreeMap<ViewId, BTreeMap<String, PartitionMemo>>,
}

impl PselMemo {
    /// The memo of one partition, reset unless it was made for `layout`.
    fn partition(&mut self, view: ViewId, attr: &str, layout: Layout) -> &mut PartitionMemo {
        let memo = self
            .partitions
            .entry(view)
            .or_default()
            .entry(attr.to_string())
            .or_default();
        if memo.layout != layout {
            memo.layout = layout;
            memo.rejected.clear();
        }
        memo
    }

    /// Number of remembered rejections (tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.partitions
            .values()
            .flat_map(BTreeMap::values)
            .map(|m| m.rejected.iter().flatten().count())
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

impl DeepSea {
    /// Run selection over this query's candidates plus everything the pool
    /// already holds; the chosen configuration lands in `ctx.selection`.
    pub(crate) fn stage_select_configuration(&mut self, ctx: &mut QueryContext) {
        let AllCand { items, fits } = self.build_allcand(&ctx.new_cands, ctx.tnow);
        ctx.trace.selection.considered = items.len() as u64;
        // What the audit log says of each item, taken only when the decision
        // log listens — the selection below runs on the same items either way.
        let audit: Option<Vec<(String, f64, u64, bool)>> = self.obs.events_enabled().then(|| {
            items
                .iter()
                .map(|i| (self.describe_item(&i.kind), i.phi, i.size, i.materialized))
                .collect()
        });
        let (selection, verdicts) = select_with_verdicts(items, self.config.smax);
        ctx.trace.selection.planned_creations = selection.to_create.len() as u64;
        ctx.trace.selection.planned_evictions = selection.to_evict.len() as u64;
        if let Some(audit) = audit {
            self.observe_selection(audit, &verdicts, ctx.tnow);
        }
        if self.obs.enabled() {
            self.obs.counter_add(
                "deepsea_candidates_considered_total",
                None,
                ctx.trace.selection.considered,
            );
            self.observe_mle_fits(&fits, ctx.tnow);
        }
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

    /// Record MLE fit quality (§7.1) for every partition the policy smooths:
    /// the fits `build_allcand` ranked by, so observation feeds no decision.
    fn observe_mle_fits(&self, fits: &[MleFitNote], tnow: LogicalTime) {
        for note in fits {
            let view = &self.registry.view(note.view).name;
            let label = format!("{view}.{}", note.attr);
            self.obs
                .gauge_set("deepsea_mle_mean", Some(&label), note.fit.normal.mean);
            self.obs
                .gauge_set("deepsea_mle_std", Some(&label), note.fit.normal.std);
            self.obs.event(
                tnow,
                DecisionEvent::MleFit {
                    view: view.to_string(),
                    attr: note.attr.clone(),
                    mean: note.fit.normal.mean,
                    std: note.fit.normal.std,
                    total_hits: note.fit.total_hits,
                    fragments: note.fragments,
                },
            );
        }
    }

    /// `ALLCAND` as `enforce_limit` would re-rank it now: the pool plus the
    /// refinement candidates that pass admission, with no new view
    /// candidates. For inspection and the micro-benchmarks.
    pub fn allcand(&mut self) -> Vec<RankedItem> {
        let tnow = self.clock.max(1);
        self.build_allcand(&[], tnow).items
    }

    /// Build `ALLCAND` — also used by `enforce_limit` to re-rank the pool.
    pub(crate) fn build_allcand(&mut self, new_cands: &[ViewId], tnow: LogicalTime) -> AllCand {
        let tmax = self.config.tmax;
        let vm = self.config.value_model;
        let repartitions = self.config.partition_policy.repartitions();
        let block = self.fs.block_config().block_bytes;
        let note_fits = self.obs.enabled();
        let mut items = Vec::new();
        let mut fits = Vec::new();
        let mut included: BTreeSet<ViewId> = BTreeSet::new();

        // Vsel: this query's unmaterialized view candidates passing COST ≤ B.
        for &vid in new_cands {
            if !included.insert(vid) {
                continue;
            }
            let view = self.registry.view(vid);
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
            let progressive = matches!(
                self.config.partition_policy,
                PartitionPolicy::Progressive { .. }
            );
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
                        items.push(RankedItem {
                            kind: CandidateKind::Fragment(view.id, ps.attr.clone(), frag.id),
                            phi,
                            size: frag.size,
                            materialized: false,
                        });
                    }
                }
                _ => items.push(RankedItem {
                    kind: CandidateKind::WholeView(vid),
                    phi: vm.view_value(&view.stats, tnow, tmax),
                    size: view.stats.size,
                    materialized: false,
                }),
            }
        }

        for view in self.registry.iter() {
            // Materialized whole views partake (needed for NP-style pools).
            if view.whole_file.is_some() {
                items.push(RankedItem {
                    kind: CandidateKind::WholeView(view.id),
                    phi: vm.view_value(&view.stats, tnow, tmax),
                    size: view.stats.size,
                    materialized: true,
                });
            }
            for ps in view.partitions.values() {
                if !ps.any_materialized() {
                    continue;
                }
                let valued = vm.value_fragments(ps, view.stats.size, view.stats.cost, tnow, tmax);
                if let Some(fit) = valued.fit.filter(|_| note_fits) {
                    fits.push(MleFitNote {
                        view: view.id,
                        attr: ps.attr.clone(),
                        fit,
                        fragments: ps.fragments.len() as u64,
                    });
                }
                // Psel (§7.2 — only for partitions already in the pool, and
                // only under a policy that refines them).
                let mut memo = repartitions.then(|| {
                    let mut layout = Layout {
                        view_cost: view.stats.cost.to_bits(),
                        view_size: view.stats.size,
                        ..Layout::default()
                    };
                    for f in ps.fragments.iter().filter(|f| f.is_materialized()) {
                        layout.mats.push((f.id, f.interval));
                        layout.sizes.push(f.size);
                    }
                    let memo = self.psel_memo.partition(view.id, &ps.attr, layout);
                    memo.rejected.resize(ps.fragments.len(), None);
                    memo
                });
                for (slot, (frag, phi)) in ps.fragments.iter().zip(valued.values).enumerate() {
                    let materialized = frag.is_materialized();
                    let admitted = materialized
                        || memo.as_mut().is_some_and(|memo| {
                            memo.admits(slot, frag, |layout| {
                                let decayed_hits = match &valued.decayed_hits {
                                    Some(hits) => hits[slot],
                                    None => frag.stats.decayed_hits(tnow, tmax),
                                };
                                admits_refinement(
                                    self.backend.as_ref(),
                                    block,
                                    layout,
                                    view.stats.cost,
                                    frag,
                                    decayed_hits,
                                )
                            })
                        });
                    if !admitted {
                        continue;
                    }
                    items.push(RankedItem {
                        kind: CandidateKind::Fragment(view.id, ps.attr.clone(), frag.id),
                        phi,
                        size: frag.size,
                        materialized,
                    });
                }
            }
        }
        #[cfg(test)]
        self.assert_matches_reference(new_cands, tnow, &items);
        AllCand { items, fits }
    }
}
