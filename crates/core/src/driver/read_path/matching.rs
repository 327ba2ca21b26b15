//! Stage 1 of Algorithm 1: compute the possible rewritings against every
//! tracked view (signature matching plus Algorithm-2 fragment covers).
//!
//! Pure reads over a [`ReadView`]: the same code serves the serial commit
//! path and concurrent snapshot readers. The statistics updates the paper
//! folds into this stage (§8.4) are a catalog *mutation* and live on the
//! write path (`write_path::stats`).

use deepsea_engine::plan::{LogicalPlan, OverlapClip};
use deepsea_engine::signature::{matches, Compensation, Signature};
use deepsea_engine::subquery::all_subplans;
use deepsea_storage::FileId;

use crate::candidates::clamp_to_domain;
use crate::filter_tree::ViewId;
use crate::matching::partition_matching;
use crate::registry::ViewMeta;

use super::super::context::QueryContext;
use super::ReadView;

/// A matched (sub)query/view pair.
pub(crate) struct MatchHit {
    pub(crate) path: Vec<usize>,
    pub(crate) view: ViewId,
    pub(crate) comp: Compensation,
    /// Estimated cost of computing the subquery from scratch.
    pub(crate) sub_cost: f64,
    /// Fragment files to scan if the view is materialized and covers the
    /// needed range.
    pub(crate) access: Option<Access>,
}

pub(crate) struct Access {
    pub(crate) files: Vec<FileId>,
    pub(crate) bytes: u64,
    /// Set when the cover's fragments overlap (see [`OverlapClip`]).
    pub(crate) clip: Option<Box<OverlapClip>>,
}

impl ReadView<'_> {
    /// Stage 1 — `COMPUTEREWRITINGS`: match every Definition-6-shaped
    /// subplan against the signature buckets of the registry.
    pub(crate) fn compute_rewritings(&self, plan: &LogicalPlan, ctx: &mut QueryContext) {
        let estimator = self.estimator();
        let mut hits = Vec::new();
        let mut roots = 0u64;
        let mut outage_skips = 0u64;
        for (path, sub) in match_roots(plan) {
            roots += 1;
            let Some(qsig) = Signature::of(sub) else {
                continue;
            };
            for &vid in self.registry.lookup_bucket(&qsig) {
                let view = self.registry.view(vid);
                let Some(comp) = matches(&view.sig, &qsig) else {
                    continue;
                };
                let access = self.find_access(vid, &qsig, &mut outage_skips);
                hits.push(MatchHit {
                    path: path.clone(),
                    view: vid,
                    comp,
                    sub_cost: estimator.estimated_secs(sub),
                    access,
                });
            }
        }
        ctx.trace.matching.roots = roots;
        ctx.trace.matching.hits = hits.len() as u64;
        ctx.trace.matching.materialized_hits =
            hits.iter().filter(|h| h.access.is_some()).count() as u64;
        // Degraded-mode routing: every access the matcher refused because
        // all replicas of its backing file were down is a fragment-level
        // patch — the planner answers that region from base tables instead
        // of failing the whole rewriting. Always zero without a cluster.
        ctx.trace.recovery.fragment_fallbacks += outage_skips;
        self.obs
            .counter_add("deepsea_match_roots_total", None, roots);
        self.obs.counter_add(
            "deepsea_match_materialized_hits_total",
            None,
            ctx.trace.matching.materialized_hits,
        );
        ctx.hits = hits;
    }

    /// Cheapest way to read the view for this query: the whole file, or an
    /// Algorithm-2 fragment cover of the needed range on some partition.
    ///
    /// Files whose every replica sits on a down node are routed *around*
    /// rather than read into a guaranteed transient failure: the whole-file
    /// copy is skipped and blocked fragments are dropped from the cover
    /// candidates (a gap in the cover falls back to base tables for that
    /// subquery only). Each refusal bumps `outage_skips`. The probe is
    /// metadata-only (the simulated namenode knows node liveness) and is
    /// always `false` without a cluster, so un-sharded runs are bit-exact.
    fn find_access(&self, vid: ViewId, qsig: &Signature, outage_skips: &mut u64) -> Option<Access> {
        let view = self.registry.view(vid);
        let mut best: Option<Access> = None;
        if let Some(f) = view.whole_file {
            if self.fs.outage_blocked(f) {
                *outage_skips += 1;
            } else {
                best = Some(Access {
                    files: vec![f],
                    bytes: view.stats.size,
                    clip: None,
                });
            }
        }
        for ps in view.partitions.values() {
            let mut mats = ps.materialized();
            mats.retain(|(fid, _)| {
                let blocked = ps
                    .frag(*fid)
                    .and_then(|f| f.file)
                    .is_some_and(|file| self.fs.outage_blocked(file));
                if blocked {
                    *outage_skips += 1;
                }
                !blocked
            });
            if mats.is_empty() {
                continue;
            }
            let needed = match qsig.range_on_attr(&ps.attr) {
                Some(r) => match clamp_to_domain(r, &ps.domain) {
                    Some(iv) => iv,
                    None => continue, // query range misses the domain
                },
                None => ps.domain,
            };
            let Some(cover) = partition_matching(&needed, &mats) else {
                continue;
            };
            let mut files = Vec::with_capacity(cover.len());
            let mut bytes = 0;
            // A fragment after the first that starts before its piece of the
            // cover repeats rows its predecessors hold: take it from the
            // piece on. (The first is bounded below by the query's own range.)
            let mut from: Vec<Option<i64>> = Vec::with_capacity(cover.len());
            for (i, (fid, piece)) in cover.iter().enumerate() {
                let frag = ps
                    .frag(*fid)
                    .expect("invariant: cover returns tracked fragments");
                files.push(
                    frag.file
                        .expect("invariant: cover returns materialized fragments"),
                );
                bytes += frag.size;
                from.push((i > 0 && frag.interval.lo < piece.lo).then_some(piece.lo));
            }
            if best.as_ref().is_none_or(|b| bytes < b.bytes) {
                let clip = from.iter().any(Option::is_some).then(|| {
                    Box::new(OverlapClip {
                        attr: ps.attr.clone(),
                        from,
                    })
                });
                best = Some(Access { files, bytes, clip });
            }
        }
        best
    }

    /// The fraction of the view a partitioned access needs for the given
    /// compensation ranges (1.0 when no applicable range is known).
    pub(crate) fn comp_range_fraction(&self, view: &ViewMeta, comp: &Compensation) -> f64 {
        let mut frac: f64 = 1.0;
        for (col, lo, hi) in &comp.ranges {
            let domain = view
                .partitions
                .values()
                .find(|p| attr_matches(&p.attr, col))
                .map(|p| p.domain)
                .or_else(|| self.attr_domain(&view.plan, col));
            if let Some(d) = domain {
                if let Some(iv) = clamp_to_domain((*lo, *hi), &d) {
                    frac = frac.min(iv.width() as f64 / d.width() as f64);
                }
            }
        }
        frac
    }
}

/// Subplans a view may be matched against: Definition 6 shapes, plus any
/// chain of selections directly above one (the enclosing range selection
/// must take part in matching so it can become fragment-selecting
/// compensation, §8.2).
pub(crate) fn match_roots(plan: &LogicalPlan) -> Vec<(Vec<usize>, &LogicalPlan)> {
    fn is_root(p: &LogicalPlan) -> bool {
        match p {
            LogicalPlan::Join { .. }
            | LogicalPlan::Aggregate { .. }
            | LogicalPlan::Project { .. } => true,
            LogicalPlan::Select { input, .. } => is_root(input),
            _ => false,
        }
    }
    all_subplans(plan)
        .into_iter()
        .filter(|(_, p)| is_root(p))
        .collect()
}

/// Do two attribute names refer to the same column?
///
/// Equal names always match. When exactly one side is qualified
/// (`fact.item_sk` vs `item_sk`) the bare name matches the qualified one's
/// suffix. Two *differently qualified* names never match, even with the same
/// bare suffix — `store.item_sk` and `web.item_sk` are distinct columns.
pub(crate) fn attr_matches(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    match (a.rsplit_once('.'), b.rsplit_once('.')) {
        (Some(_), Some(_)) => false,
        (Some((_, suffix)), None) => suffix == b,
        (None, Some((_, suffix))) => suffix == a,
        (None, None) => false,
    }
}

#[cfg(test)]
mod tests {
    use deepsea_engine::plan::AggExpr;
    use deepsea_engine::plan::LogicalPlan;
    use deepsea_relation::Predicate;

    use super::{attr_matches, match_roots};

    /// `match_roots` must expose joins/aggregates/projections and any chain
    /// of selections stacked on one, but not bare scans or selections over
    /// scans.
    #[test]
    fn match_roots_accepts_nested_selects_over_shapes() {
        let join = LogicalPlan::scan("a").join(LogicalPlan::scan("b"), vec![("a.k", "b.k")]);
        let nested = join
            .clone()
            .select(Predicate::range("a.k", 0, 10))
            .select(Predicate::range("a.k", 2, 8));
        let agg = nested
            .clone()
            .aggregate(vec!["a.k"], vec![AggExpr::count("cnt")]);

        let roots = match_roots(&agg);
        // The aggregate, the double- and single-selected join, and the join.
        assert_eq!(
            roots.len(),
            4,
            "{:?}",
            roots.iter().map(|(p, _)| p).collect::<Vec<_>>()
        );
        assert!(roots.iter().any(|(_, p)| *p == &agg));
        assert!(roots.iter().any(|(_, p)| *p == &nested));
        assert!(roots.iter().any(|(_, p)| *p == &join));
    }

    #[test]
    fn match_roots_rejects_scans_and_selects_over_scans() {
        let plan = LogicalPlan::scan("a").select(Predicate::range("a.k", 0, 10));
        assert!(match_roots(&plan).is_empty());
    }

    #[test]
    fn attr_matches_qualified_and_bare() {
        assert!(attr_matches("fact.item_sk", "fact.item_sk"));
        assert!(attr_matches("item_sk", "item_sk"));
        assert!(attr_matches("fact.item_sk", "item_sk"));
        assert!(attr_matches("item_sk", "fact.item_sk"));
    }

    #[test]
    fn attr_matches_rejects_different_qualifiers() {
        // Same bare suffix under different qualifiers is a *different* column.
        assert!(!attr_matches("store.item_sk", "web.item_sk"));
        assert!(!attr_matches("fact.k", "dim.k"));
        // And plainly different names never match.
        assert!(!attr_matches("item_sk", "order_sk"));
        assert!(!attr_matches("fact.item_sk", "fact.order_sk"));
    }
}
