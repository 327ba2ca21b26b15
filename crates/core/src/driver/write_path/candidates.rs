//! Stage 4 of Algorithm 1: derive **view candidates** (Definition 6) and
//! **partition candidates** (Definition 7) from the chosen plan and register
//! them with the statistics registry.

use deepsea_engine::plan::LogicalPlan;
use deepsea_engine::signature::Signature;
use deepsea_engine::subquery::{all_subplans, view_candidate_subplans};
use deepsea_relation::Predicate;

use crate::candidates::{clamp_to_domain, partition_candidates};
use crate::durability::CatalogRecord;
use crate::filter_tree::ViewId;
use crate::interval::Interval;
use crate::stats::LogicalTime;

use super::super::context::QueryContext;
use super::super::read_path::matching::attr_matches;
use super::super::DeepSea;

impl DeepSea {
    /// Derive and register this query's candidates, recording how much new
    /// work (views, tracked fragments) the query introduced.
    pub(crate) fn stage_register_candidates(&mut self, ctx: &mut QueryContext) {
        let views_before = self.registry.len();
        let new_cands = self.register_candidates(&ctx.qbest, ctx.tnow);
        ctx.trace.candidates.view_candidates = new_cands.len() as u64;
        ctx.trace.candidates.new_views = (self.registry.len() - views_before) as u64;
        let (selections, new_frags) = self.register_partition_candidates(&ctx.qbest, ctx.tnow);
        ctx.trace.candidates.partition_selections = selections;
        ctx.trace.candidates.new_fragments = new_frags;
        self.obs.counter_add(
            "deepsea_new_views_total",
            None,
            ctx.trace.candidates.new_views,
        );
        self.obs
            .counter_add("deepsea_new_fragments_total", None, new_frags);
        ctx.new_cands = new_cands;
    }

    /// Definition 6: register view candidates for the chosen plan's
    /// subqueries. Returns the ids of candidates relevant to this query.
    fn register_candidates(&mut self, qbest: &LogicalPlan, tnow: LogicalTime) -> Vec<ViewId> {
        let mut out = Vec::new();
        // Range selections anywhere in the chosen plan, used to anticipate
        // partitioned access when estimating first-use savings.
        let query_ranges: Vec<(String, (i64, i64))> = all_subplans(qbest)
            .into_iter()
            .filter_map(|(_, p)| match p {
                LogicalPlan::Select { pred, .. } => Some(collect_ranges(pred)),
                _ => None,
            })
            .flatten()
            .collect();
        // Per subplan, its view's key and — unless that view is registered
        // and live, when the id is all it needs — its estimates.
        type Priced = (LogicalPlan, Signature, u64, f64, f64, f64);
        let mut registrations: Vec<(String, Option<Priced>)> = Vec::new();
        {
            let estimator = self.estimator();
            for (_, sub) in view_candidate_subplans(qbest) {
                let Some(sig) = Signature::of(sub) else {
                    continue;
                };
                let key = sig.canonical_key();
                let live = self.registry.by_key(&key);
                if live.is_some_and(|id| !self.registry.view(id).is_quarantined()) {
                    registrations.push((key, None));
                    continue;
                }
                let est = estimator.estimate(sub);
                let est_size = est.out_bytes.max(1.0) as u64;
                let block = self.fs.block_config().block_bytes;
                // Reducers write the view in parallel as one output wave; the
                // per-file dispatch penalty only applies to the real fragment
                // count, which is measured at materialization time.
                let files = 1;
                // `CostEstimator::estimated_secs`, from the estimate in hand.
                let compute = self.backend.cluster().elapsed_secs(&est.metrics);
                // Marginal overhead of materializing during this query (the
                // computation is a by-product); used by the admission filter.
                let overhead = self.backend.write_secs(est_size, files);
                // Recreation cost (recompute + write); used in Φ (§7.1).
                let recreate = compute + overhead;
                // First-use saving: computing the subquery vs scanning the
                // view — anticipating partitioned access (only the fragments
                // the query's range needs) when the policy partitions.
                let mut scan_bytes = est_size;
                if self.config.partition_policy.partitions() {
                    let mut frac: f64 = 1.0;
                    for (col, (lo, hi)) in &query_ranges {
                        if let Some(d) = self.read_view().attr_domain(sub, col) {
                            if let Some(iv) = clamp_to_domain((*lo, *hi), &d) {
                                frac = frac.min(iv.width() as f64 / d.width() as f64);
                            }
                        }
                    }
                    scan_bytes = ((est_size as f64 * frac) as u64).max(1);
                }
                let saving = (compute - self.backend.scan_secs(scan_bytes, block)).max(0.0);
                let priced = (sub.clone(), sig, est_size, recreate, overhead, saving);
                registrations.push((key, Some(priced)));
            }
        }
        for (key, priced) in registrations {
            let prior = self.registry.by_key(&key);
            // Only first registrations and re-admissions change durable
            // state; re-registering a live view is not a commit. (A subplan
            // priced above can find its view live here when an earlier
            // subplan of this query registered the same shape.)
            if let Some((plan, sig, est_size, recreate, overhead, saving)) = priced {
                if prior.is_none_or(|id| self.registry.view(id).is_quarantined()) {
                    self.commit(CatalogRecord::ViewRegistered {
                        plan,
                        sig,
                        est_size,
                        est_cost: recreate,
                        est_overhead: overhead,
                        // The view could have been used by this very query.
                        first_use: prior.is_none().then_some((tnow, saving)),
                    });
                }
            }
            // Known before, or registered by the commit just above.
            out.extend(self.registry.by_key(&key));
        }
        out
    }

    /// Definition 7: derive partition candidates from the range selections of
    /// the chosen plan. Returns `(range selections processed, fragments
    /// newly tracked)`.
    fn register_partition_candidates(
        &mut self,
        qbest: &LogicalPlan,
        tnow: LogicalTime,
    ) -> (u64, u64) {
        if !self.config.partition_policy.partitions() {
            return (0, 0);
        }
        // Collect (view id, attr, domain, query interval) tuples first.
        let mut work: Vec<(ViewId, String, Interval, Interval)> = Vec::new();
        for (_, sub) in all_subplans(qbest) {
            let LogicalPlan::Select { pred, input } = sub else {
                continue;
            };
            let is_shape = matches!(
                **input,
                LogicalPlan::Join { .. }
                    | LogicalPlan::Aggregate { .. }
                    | LogicalPlan::Project { .. }
            );
            if let Some(sig) = is_shape.then(|| Signature::of(input)).flatten() {
                // σ over a view-shaped subquery (Definition 7 on a tracked view).
                let Some(vid) = self.registry.by_key(&sig.canonical_key()) else {
                    continue;
                };
                for (col, (lo, hi)) in collect_ranges(pred) {
                    let Some(domain) = self.read_view().attr_domain(input, &col) else {
                        continue;
                    };
                    let Some(qiv) = clamp_to_domain((lo, hi), &domain) else {
                        continue;
                    };
                    work.push((vid, col, domain, qiv));
                }
            } else if let Some(view_name) = viewscan_name(input) {
                // σ over a (rewritten) view scan: refine the partitions of
                // the reused view — this is how progressive refinement keeps
                // happening once queries are answered from the pool.
                let Some(vid) = self.registry.by_name(view_name) else {
                    continue;
                };
                for (col, (lo, hi)) in collect_ranges(pred) {
                    // Refine the existing partition on this attribute, or —
                    // since a view may hold partitions on several attributes —
                    // start tracking a new one from the base-table domain.
                    let existing = self
                        .registry
                        .view(vid)
                        .partitions
                        .values()
                        .find(|p| attr_matches(&p.attr, &col))
                        .map(|p| (p.attr.clone(), p.domain));
                    let (attr, domain) = match existing {
                        Some(x) => x,
                        None => {
                            let plan = &self.registry.view(vid).plan;
                            match self.read_view().attr_domain(plan, &col) {
                                Some(d) => (col.clone(), d),
                                None => continue,
                            }
                        }
                    };
                    let Some(qiv) = clamp_to_domain((lo, hi), &domain) else {
                        continue;
                    };
                    work.push((vid, attr, domain, qiv));
                }
            }
        }
        let selections = work.len() as u64;
        let mut new_frags = 0u64;
        for (vid, col, domain, qiv) in work {
            let key = self.registry.view(vid).key.to_string();
            if !self.registry.view(vid).partitions.contains_key(&col) {
                self.commit(CatalogRecord::PartitionTracked {
                    view: key.clone(),
                    attr: col.clone(),
                    domain,
                });
            }
            // Only effective boundaries are journaled.
            let domain_hi = self.registry.view(vid).partitions[&col].domain.hi;
            let points = [Some(qiv.lo), (qiv.hi < domain_hi).then(|| qiv.hi + 1)];
            for point in points.into_iter().flatten() {
                if self.registry.view(vid).partitions[&col].accepts_boundary(point) {
                    self.commit(CatalogRecord::BoundaryAdded {
                        view: key.clone(),
                        attr: col.clone(),
                        point,
                    });
                }
            }
            let view = self.registry.view(vid);
            let view_size = view.stats.size;
            let ps = &view.partitions[&col];
            let base = ps.candidate_base();
            let mut cands = partition_candidates(&base, &ps.domain, &qiv);
            // §9 "Bounding Fragment Size": chop candidates larger than
            // φ·S(V) into equal pieces so cold regions never become one
            // monolithic fragment.
            if let Some(phi) = self.config.phi_max_fraction {
                let limit = (phi * view_size as f64).max(1.0);
                cands = cands
                    .into_iter()
                    .flat_map(|c| {
                        let est = ps.estimate_size(&c, view_size) as f64;
                        if est > limit {
                            c.chop((est / limit).ceil() as usize)
                        } else {
                            vec![c]
                        }
                    })
                    .collect();
            }
            for cand in cands {
                let ps = &self.registry.view(vid).partitions[&col];
                if ps.find(&cand).is_some() {
                    // Existing fragments already recorded their hit during
                    // the matching phase.
                    continue;
                }
                new_frags += 1;
                self.commit(CatalogRecord::FragmentTracked {
                    view: key.clone(),
                    attr: col.clone(),
                    interval: cand,
                    est_size: ps.estimate_size(&cand, view_size),
                    // A freshly-tracked candidate inside the query range
                    // would have been used by this query.
                    hit: qiv.contains(&cand).then_some(tnow),
                });
            }
        }
        (selections, new_frags)
    }
}

/// The view name a plan scans, reached through any chain of
/// selections/projections, if any.
pub(crate) fn viewscan_name(plan: &LogicalPlan) -> Option<&str> {
    match plan {
        LogicalPlan::ViewScan(v) => Some(&v.view_name),
        LogicalPlan::Select { input, .. } | LogicalPlan::Project { input, .. } => {
            viewscan_name(input)
        }
        _ => None,
    }
}

/// All range conjuncts of a predicate as `(column, (lo, hi))`.
pub(crate) fn collect_ranges(pred: &Predicate) -> Vec<(String, (i64, i64))> {
    pred.conjuncts()
        .into_iter()
        .filter_map(|c| match c {
            Predicate::Range { col, low, high } => Some((col.clone(), (*low, *high))),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_ranges_takes_range_conjuncts_only() {
        let pred = Predicate::and(vec![
            Predicate::range("fact.k", 10, 20),
            Predicate::eq("dim.label", "l3"),
            Predicate::range("fact.v", 0, 5),
        ]);
        let ranges = collect_ranges(&pred);
        assert_eq!(
            ranges,
            vec![
                ("fact.k".to_string(), (10, 20)),
                ("fact.v".to_string(), (0, 5)),
            ]
        );
    }

    #[test]
    fn collect_ranges_empty_for_non_range_predicates() {
        let pred = Predicate::eq("dim.label", "l1");
        assert!(collect_ranges(&pred).is_empty());
    }

    #[test]
    fn viewscan_name_pierces_select_and_project_chains() {
        use deepsea_engine::plan::ViewScanInfo;
        use deepsea_relation::{DataType, Field, Schema};
        let scan = LogicalPlan::ViewScan(ViewScanInfo {
            view_name: "v12".into(),
            files: vec![],
            schema: Schema::new(vec![Field::new("v.k", DataType::Int)]),
            clip: None,
        });
        let wrapped = scan
            .select(Predicate::range("v.k", 0, 1))
            .project(vec!["v.k"]);
        assert_eq!(viewscan_name(&wrapped), Some("v12"));
        assert_eq!(viewscan_name(&LogicalPlan::scan("t")), None);
    }
}
