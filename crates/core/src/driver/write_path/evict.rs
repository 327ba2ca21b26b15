//! Eviction: apply the evictions selection planned (stage 5), enforce the
//! pool limit after materialization (stage 7 — actual sizes can exceed the
//! estimates selection used).

use deepsea_obs::{DecisionEvent, PhiBreakdown};

use crate::durability::CatalogRecord;
use crate::selection::{CandidateKind, RankedItem};
use crate::stats::{decay, LogicalTime};

use super::super::context::QueryContext;
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
                let valued = vm.value_fragments(ps, hits, view_size, cost, tnow, tmax);
                let ha = valued.adjusted_hits[fid.0 as usize];
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
}
