//! Eviction: apply the evictions selection planned (stage 5), enforce the
//! pool limit after materialization (stage 7 — actual sizes can exceed the
//! estimates selection used), and the §11 fragment-merging maintenance pass.

use std::sync::Arc;

use deepsea_engine::exec::ExecError;
use deepsea_obs::{DecisionEvent, PhiBreakdown};
use deepsea_relation::Table;
use deepsea_storage::FileId;

use crate::durability::CatalogRecord;
use crate::filter_tree::ViewId;
use crate::interval::Interval;
use crate::selection::{CandidateKind, RankedItem};
use crate::stats::{decay, LogicalTime};

use super::super::context::{CreationCharge, QueryContext};
use super::super::DeepSea;

impl DeepSea {
    /// Apply the evictions the selection stage planned.
    pub(crate) fn stage_apply_evictions(&mut self, ctx: &mut QueryContext) {
        let to_evict = std::mem::take(&mut ctx.selection.to_evict);
        // Audit context: the weakest item *kept* is the runner-up victim had
        // selection pressure been one notch higher. `to_keep` is filled
        // whenever selection ranks, and only a ranking evicts; read only
        // when the audit log listens — it feeds no decision.
        let runner_up = if self.obs.enabled() {
            ctx.selection
                .to_keep
                .iter()
                .min_by(|a, b| a.phi.total_cmp(&b.phi))
                .map(|i| (self.describe_item(&i.kind), i.phi))
        } else {
            None
        };
        for item in &to_evict {
            let breakdown = self
                .obs
                .enabled()
                .then(|| self.phi_breakdown(&item.kind, item.phi, ctx.tnow));
            if let Some(desc) = self.evict(&item.kind) {
                if let Some(breakdown) = breakdown {
                    self.obs.event(
                        ctx.tnow,
                        DecisionEvent::Eviction {
                            victim: desc.clone(),
                            breakdown,
                            runner_up: runner_up.as_ref().map(|(d, _)| d.clone()),
                            runner_up_phi: runner_up.as_ref().map(|&(_, phi)| phi),
                            forced: false,
                        },
                    );
                }
                ctx.evicted.push(desc);
            }
        }
        ctx.trace.eviction.selected = ctx.evicted.len() as u64;
    }

    /// Human-readable description of a candidate item (`V3` or
    /// `V3.item.k[0, 99]`), matching the strings `evict` returns.
    pub(crate) fn describe_item(&self, kind: &CandidateKind) -> String {
        match kind {
            CandidateKind::WholeView(vid) => self.registry.view(*vid).name.to_string(),
            CandidateKind::Fragment(vid, attr, fid) => {
                let view = self.registry.view(*vid);
                match view.partitions.get(attr).and_then(|ps| ps.frag(*fid)) {
                    Some(frag) => format!("{}.{attr}{}", view.name, frag.interval),
                    None => format!("{}.{attr}?", view.name),
                }
            }
        }
    }

    /// Reconstruct the Φ = COST·B/S breakdown behind a ranked item's value,
    /// for the audit log. `phi` is the policy's actual ranking value and is
    /// carried through verbatim; the components are recomputed from the same
    /// statistics the policy read, so `tests` can assert they agree.
    pub(crate) fn phi_breakdown(
        &self,
        kind: &CandidateKind,
        phi: f64,
        tnow: LogicalTime,
    ) -> PhiBreakdown {
        let tmax = self.config.tmax;
        let vm = self.config.value_model;
        match kind {
            CandidateKind::WholeView(vid) => {
                let stats = &self.registry.view(*vid).stats;
                let uses = self.registry.ledger().uses(*vid);
                PhiBreakdown {
                    phi,
                    cost: stats.cost,
                    benefit: vm.view_benefit(uses, tnow, tmax),
                    benefit_raw: uses.undecayed_benefit(),
                    ha_hits: uses.events.iter().map(|e| decay(tnow, e.t, tmax)).sum(),
                    raw_hits: uses.events.len() as u64,
                    size: stats.size,
                }
            }
            CandidateKind::Fragment(vid, attr, fid) => {
                let view = self.registry.view(*vid);
                let (cost, view_size) = (view.stats.cost, view.stats.size);
                let Some((ps, frag)) = view
                    .partitions
                    .get(attr)
                    .and_then(|ps| Some((ps, ps.frag(*fid)?)))
                else {
                    return PhiBreakdown {
                        phi,
                        cost,
                        benefit: 0.0,
                        benefit_raw: 0.0,
                        ha_hits: 0.0,
                        raw_hits: 0,
                        size: 0,
                    };
                };
                let hits = self.registry.ledger().hits(*vid, attr);
                let ha = vm.fragment_adjusted_hits(ps, hits, tnow, tmax)[fid.0 as usize];
                let share = if view_size == 0 {
                    0.0
                } else {
                    frag.size as f64 / view_size as f64
                };
                PhiBreakdown {
                    phi,
                    cost,
                    benefit: share * cost * ha,
                    benefit_raw: share * cost * hits.of(*fid).raw_hits() as f64,
                    ha_hits: ha,
                    raw_hits: hits.of(*fid).raw_hits() as u64,
                    size: frag.size,
                }
            }
        }
    }

    /// Stage 7: evict lowest-value items until the pool fits `Smax` again.
    pub(crate) fn stage_enforce_limit(&mut self, ctx: &mut QueryContext) {
        let forced = self.enforce_limit(ctx.tnow);
        ctx.trace.eviction.limit_forced = forced.len() as u64;
        ctx.evicted.extend(forced);
    }

    /// Evict one item, returning its description.
    fn evict(&mut self, kind: &CandidateKind) -> Option<String> {
        let (CandidateKind::WholeView(vid) | CandidateKind::Fragment(vid, _, _)) = kind;
        let view = self.registry.view(*vid);
        let key = view.key.to_string();
        let (file, desc, record) = match kind {
            CandidateKind::WholeView(_) => (
                view.whole_file?,
                view.name.to_string(),
                CatalogRecord::ViewEvicted { view: key },
            ),
            CandidateKind::Fragment(_, attr, fid) => {
                let frag = view.partitions.get(attr)?.frag(*fid)?;
                (
                    frag.file?,
                    format!("{}.{attr}{}", view.name, frag.interval),
                    CatalogRecord::FragmentEvicted {
                        view: key,
                        attr: attr.clone(),
                        interval: frag.interval,
                    },
                )
            }
        };
        self.fs.delete(file);
        self.commit(record);
        Some(desc)
    }

    /// Evict lowest-value items until the pool fits `Smax` (actual
    /// materialized sizes can exceed the estimates selection planned with).
    /// Returns the victims.
    fn enforce_limit(&mut self, tnow: LogicalTime) -> Vec<String> {
        let Some(smax) = self.config.smax else {
            return Vec::new();
        };
        let mut evicted = Vec::new();
        while self.pool_bytes() > smax {
            let items: Vec<RankedItem> = self
                .ranked_allcand(tnow)
                .into_iter()
                .filter(|i| i.materialized)
                .collect();
            let Some(worst) = items.iter().min_by(|a, b| a.phi.total_cmp(&b.phi)).cloned() else {
                break;
            };
            // Audit context only — the victim choice above is untouched.
            let audit = if self.obs.enabled() {
                let runner_up = items
                    .iter()
                    .filter(|i| i.kind != worst.kind)
                    .min_by(|a, b| a.phi.total_cmp(&b.phi))
                    .map(|i| (self.describe_item(&i.kind), i.phi));
                Some((self.phi_breakdown(&worst.kind, worst.phi, tnow), runner_up))
            } else {
                None
            };
            match self.evict(&worst.kind) {
                Some(d) => {
                    if let Some((breakdown, runner_up)) = audit {
                        self.obs.event(
                            tnow,
                            DecisionEvent::Eviction {
                                victim: d.clone(),
                                breakdown,
                                runner_up: runner_up.as_ref().map(|(desc, _)| desc.clone()),
                                runner_up_phi: runner_up.as_ref().map(|&(_, phi)| phi),
                                forced: true,
                            },
                        );
                    }
                    evicted.push(d)
                }
                None => break,
            }
        }
        evicted
    }

    /// Maintenance pass implementing the §11 extension: merge consecutive
    /// materialized fragments that are (almost) always accessed together.
    /// Reads both halves, writes the union, drops the originals; returns the
    /// simulated seconds spent and the merges performed.
    pub fn merge_cohit_fragments(
        &mut self,
        cohit_tolerance: f64,
        max_merged_fraction: f64,
    ) -> Result<(f64, Vec<String>), ExecError> {
        let tnow = self.clock.max(1);
        let tmax = self.config.tmax;
        let block = self.fs.block_config().block_bytes;
        // Collect the work before mutating (borrow discipline).
        let mut work: Vec<(ViewId, String, crate::merging::MergeCandidate)> = Vec::new();
        for view in self.registry.iter() {
            let cap = (view.stats.size as f64 * max_merged_fraction) as u64;
            for ps in view.partitions.values() {
                let hits = self.registry.ledger().hits(view.id, &ps.attr);
                for cand in
                    crate::merging::merge_candidates(ps, hits, tnow, tmax, cohit_tolerance, cap)
                {
                    work.push((view.id, ps.attr.clone(), cand));
                }
            }
        }
        let mut secs = 0.0;
        let mut merged = Vec::new();
        for (vid, attr, cand) in work {
            let (name, key, schema, halves_meta) = {
                let view = self.registry.view(vid);
                let Some(schema) = view.schema.clone() else {
                    continue;
                };
                let ps = view
                    .partitions
                    .get(&attr)
                    .expect("invariant: candidates come from existing partitions");
                let hits = self.registry.ledger().hits(vid, &attr);
                let pair: Vec<(FileId, Interval, &[LogicalTime])> = [cand.left, cand.right]
                    .iter()
                    .filter_map(|id| ps.frag(*id))
                    .filter_map(|f| {
                        f.file
                            .map(|file| (file, f.interval, &hits.of(f.id).hits[..]))
                    })
                    .collect();
                if pair.len() != 2 {
                    continue; // one half was evicted since planning
                }
                (Arc::clone(&view.name), view.key.to_string(), schema, pair)
            };
            // Read both halves before writing anything: a fragment lost
            // mid-merge must never produce a partial union. On a permanent
            // loss (or exhausted retries) the view is quarantined and the
            // merge skipped; the wasted backoff is still charged.
            let mut halves: Vec<Arc<Table>> = Vec::with_capacity(2);
            let mut read_bytes = 0;
            let mut bpr = 1;
            let mut charge = CreationCharge::default();
            let mut lost = false;
            for (file, ..) in &halves_meta {
                match self.read_retrying(*file, &mut charge) {
                    Ok((payload, bytes)) => {
                        read_bytes += bytes;
                        bpr = bpr.max(payload.bytes_per_row);
                        halves.push(payload);
                    }
                    Err(_) => {
                        lost = true;
                        break;
                    }
                }
            }
            if lost {
                self.quarantine_view(vid, tnow);
                secs += charge.penalty_secs;
                continue;
            }
            let parts: Vec<(&Table, Option<&[u32]>)> =
                halves.iter().map(|t| (&**t, None)).collect();
            let merged_table = Table::concat(schema, &parts, bpr);
            let size = merged_table.sim_bytes();
            let union =
                self.write_fragment(vid, &attr, cand.merged, merged_table, None, &mut charge);
            secs += self.backend.scan_secs(read_bytes, block)
                + self.backend.write_secs(size, size.div_ceil(block).max(1))
                + charge.penalty_secs;
            // Drop the halves, then commit: evictions first, the union last.
            let mut hits: Vec<LogicalTime> = Vec::new();
            let mut dropped = Vec::with_capacity(2);
            for (file, interval, frag_hits) in halves_meta {
                hits.extend(frag_hits);
                self.fs.delete(file);
                dropped.push(interval);
            }
            hits.sort_unstable();
            for interval in dropped {
                self.commit(CatalogRecord::FragmentEvicted {
                    view: key.clone(),
                    attr: attr.clone(),
                    interval,
                });
            }
            self.commit(union);
            // Hit history is a statistic — it rides in `StatsCheckpoint`, not
            // in the records above — so the union inherits the halves' hits
            // in the ledger, like stage 2's.
            let union_id = self.registry.view(vid).partitions[&attr]
                .find(&cand.merged)
                .map(|f| f.id);
            if let Some(id) = union_id {
                self.registry.ledger_mut().hits_mut(vid, &attr, id).hits = hits;
            }
            if self.obs.enabled() {
                self.obs.event(
                    tnow,
                    DecisionEvent::FragmentMerge {
                        view: name.to_string(),
                        attr: attr.clone(),
                        merged: cand.merged.to_string(),
                        bytes: size,
                    },
                );
            }
            merged.push(format!("{name}.{attr}{}", cand.merged));
        }
        let debt = self.drain_journal_debt();
        secs += debt.penalty_secs;
        Ok((secs, merged))
    }
}
