//! Stage 2 of Algorithm 1: `UPDATESTATS` — record a benefit event for every
//! view/fragment that could have answered the query, "no matter whether the
//! view or fragment is currently in the pool or not" (§8.4).
//!
//! This is a catalog **mutation** (it appends to view and fragment
//! statistics), so it lives on the write path even though the paper folds
//! it into the matching stage: concurrent snapshot readers never update
//! statistics — their matches are replayed here when their query's commit
//! ticket comes up. The statistics are the writer's ledger
//! ([`crate::stats::StatsLedger`]), written in place: this stage copies no
//! registry node, so a published snapshot shares everything with the next.

use deepsea_engine::plan::LogicalPlan;
use deepsea_engine::signature::Signature;

use crate::candidates::clamp_to_domain;
use crate::filter_tree::ViewId;
use crate::interval::Interval;

use super::super::context::QueryContext;
use super::super::DeepSea;

impl DeepSea {
    /// Stage 2 — `UPDATESTATS`: record benefit events for matched views and
    /// hits for overlapped fragments.
    pub(crate) fn stage_update_stats(&mut self, plan: &LogicalPlan, ctx: &mut QueryContext) {
        let block = self.fs.block_config().block_bytes;
        let tnow = ctx.tnow;
        // Pre-compute (view, saving, needed-range) outside the mutable loop;
        // several subqueries can match the same view — keep the hit with the
        // largest saving (the most specific, e.g. the one carrying the range
        // selection).
        let mut updates: std::collections::BTreeMap<ViewId, (f64, Vec<(String, Interval)>)> =
            std::collections::BTreeMap::new();
        for hit in ctx.hits.iter() {
            let view = self.registry.view(hit.view);
            let scan_bytes = match &hit.access {
                Some(a) => a.bytes,
                // Not materialized yet: COST(Q/V) anticipates *partitioned*
                // access — a future query only reads the fragments its range
                // needs (this is the whole point of partitioned views).
                None => {
                    let mut bytes = view.stats.size;
                    if self.config.partition_policy.partitions() {
                        let frac = self.read_view().comp_range_fraction(view, &hit.comp);
                        bytes = ((bytes as f64 * frac) as u64).max(1);
                    }
                    bytes
                }
            };
            let saving = (hit.sub_cost - self.backend.scan_secs(scan_bytes, block)).max(0.0);
            // Which fragments were (or would have been) hit, per partition.
            let sub = deepsea_engine::subquery::subplan_at(plan, &hit.path);
            let qsig = sub.and_then(Signature::of);
            let mut ranges = Vec::new();
            for ps in view.partitions.values() {
                let needed = qsig
                    .as_ref()
                    .and_then(|s| s.range_on_attr(&ps.attr))
                    .and_then(|r| clamp_to_domain(r, &ps.domain))
                    .unwrap_or(ps.domain);
                ranges.push((ps.attr.clone(), needed));
            }
            match updates.get_mut(&hit.view) {
                Some(prev) if prev.0 >= saving => {}
                slot => {
                    let update = (saving, ranges);
                    match slot {
                        Some(prev) => *prev = update,
                        None => {
                            updates.insert(hit.view, update);
                        }
                    }
                }
            }
        }
        ctx.trace.matching.views_updated = updates.len() as u64;
        let tmax = self.config.tmax;
        for (vid, (saving, ranges)) in updates {
            let uses = self.registry.ledger_mut().uses_mut(vid);
            uses.record_use(tnow, saving);
            uses.prune(tnow, tmax);
            for (attr, needed) in ranges {
                self.registry.record_hits(vid, &attr, &needed, tnow, tmax);
            }
        }
    }
}
