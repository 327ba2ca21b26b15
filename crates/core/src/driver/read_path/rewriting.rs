//! Stage 3 of Algorithm 1: `SELECTREWRITING` — cost every rewriting backed
//! by materialized data and keep the cheapest plan (or the original).

use deepsea_engine::plan::{LogicalPlan, ViewScanInfo};
use deepsea_engine::rewrite::rewrite_with_view;

use super::super::context::QueryContext;
use super::ReadView;

impl ReadView<'_> {
    /// Pick the cheapest plan among the original and every rewriting whose
    /// view access is backed by the pool. Updates `ctx.qbest` /
    /// `ctx.used_view` only when a rewriting wins.
    pub(crate) fn select_rewriting(&self, plan: &LogicalPlan, ctx: &mut QueryContext) {
        let estimator = self.estimator();
        let base_cost = estimator.estimated_secs(plan);
        let mut best_cost = base_cost;
        let mut qbest: Option<LogicalPlan> = None;
        let mut used_view = None;
        let mut costed = 0u64;
        for hit in ctx.hits.iter() {
            let Some(access) = &hit.access else { continue };
            let view = self.registry.view(hit.view);
            let Some(schema) = view.schema.clone() else {
                continue;
            };
            let info = ViewScanInfo {
                view_name: view.name.to_string(),
                files: access.files.clone(),
                schema,
                clip: access.clip.clone(),
            };
            if let Some(rewritten) =
                rewrite_with_view(plan, &hit.path, info, &hit.comp, self.catalog)
            {
                costed += 1;
                let cost = estimator.estimated_secs(&rewritten);
                if cost < best_cost {
                    best_cost = cost;
                    qbest = Some(rewritten);
                    used_view = Some(view.name.to_string());
                }
            }
        }
        if let Some(q) = qbest {
            ctx.qbest = q;
        }
        ctx.used_view = used_view;
        ctx.trace.rewriting.rewrites_costed = costed;
        ctx.trace.rewriting.base_cost_secs = base_cost;
        ctx.trace.rewriting.best_cost_secs = best_cost;
    }
}
