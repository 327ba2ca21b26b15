//! Stages 1 and 3 computed once per ticket: a read's matching and rewriting,
//! remembered for its commit.
//!
//! What [`ReadView::compute_rewritings`] and [`ReadView::select_rewriting`]
//! leave in a fresh [`QueryContext`] is a function of the plan and of what
//! they read: the registry's structure
//! ([`ViewRegistry::version`](crate::registry::ViewRegistry::version) —
//! the statistics the write path changes directly are never read), the
//! file system's listing, sizes and routing
//! ([`SimFs::stamp`](deepsea_storage::SimFs::stamp) and
//! [`SimFs::generation`](deepsea_storage::SimFs::generation)) and the
//! catalog ([`Catalog::stamp`](deepsea_engine::Catalog::stamp)). A snapshot
//! read stores its result under those four and the plan's
//! [`LogicalPlan::exact_key`], taken before it started; the commit of the
//! same plan in the same world adopts it instead of computing it again, and
//! in any other world computes afresh. The memo is shared by a driver and
//! every snapshot it publishes, like `SimBackend`'s memo of executed plans.

// deepsea-lint: allow(lock_discipline) -- the rewriting memo a driver shares with its snapshots; one lock at a time, never held while matching, rewriting or executing
use std::sync::{Arc, Mutex};

use deepsea_engine::plan::LogicalPlan;
use deepsea_obs::Observer;
use deepsea_storage::Stamp;

use super::super::context::{MatchingTrace, QueryContext, RewritingTrace};
use super::{MatchHit, ReadView};

/// What stages 1 and 3 read besides the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct World {
    registry: Stamp,
    fs: (Stamp, u64),
    catalog: Stamp,
}

/// Everything stages 1 and 3 leave in a fresh context.
struct Rewriting {
    hits: Arc<[MatchHit]>,
    qbest: LogicalPlan,
    used_view: Option<String>,
    matching: MatchingTrace,
    rewriting: RewritingTrace,
    /// Fragment accesses routed around an outage.
    outage_skips: u64,
}

struct Entry {
    key: Vec<u8>,
    world: World,
    rewriting: Arc<Rewriting>,
}

/// The rewriting the last snapshot read computed.
///
/// One entry, unlike the backend's memo of executed plans: a plan's
/// execution stays valid across commits, but a rewriting's world names the
/// registry's version, which every commit renews. Only a read made since
/// the previous commit can be adopted, and the commit follows its own read:
/// with one entry every commit of `sdss_steady` and `sdss_churn` adopts its
/// read's, and on `serve_tail`, whose reads lag their commit, 0.5 % do (8
/// entries would make it 4.3 %).
#[derive(Default)]
pub(crate) struct RewritingMemo {
    last: Mutex<Option<Entry>>,
}

impl RewritingMemo {
    fn locked(&self) -> std::sync::MutexGuard<'_, Option<Entry>> {
        self.last.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Whether a rewriting is remembered (tests).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.locked().is_none()
    }

    /// Remember what stages 1 and 3 left in the fresh `ctx` for `plan`,
    /// computed in `world`.
    pub(crate) fn remember(&self, plan: &LogicalPlan, world: World, ctx: &QueryContext) {
        let entry = Entry {
            key: plan.exact_key(),
            world,
            rewriting: Arc::new(Rewriting {
                hits: Arc::clone(&ctx.hits),
                qbest: ctx.qbest.clone(),
                used_view: ctx.used_view.clone(),
                matching: ctx.trace.matching,
                rewriting: ctx.trace.rewriting,
                outage_skips: ctx.trace.recovery.fragment_fallbacks,
            }),
        };
        *self.locked() = Some(entry);
    }

    /// Fill the fresh `ctx` with the rewriting of `plan` remembered for
    /// `world`, counting its matches on `obs` as stage 1 would. Returns
    /// whether there was one.
    pub(crate) fn adopt(
        &self,
        plan: &LogicalPlan,
        world: World,
        ctx: &mut QueryContext,
        obs: &Observer,
    ) -> bool {
        let found = self
            .locked()
            .as_ref()
            .filter(|e| e.world == world && e.key == plan.exact_key())
            .map(|e| Arc::clone(&e.rewriting));
        let Some(r) = found else {
            return false;
        };
        ctx.hits = Arc::clone(&r.hits);
        ctx.qbest = r.qbest.clone();
        ctx.used_view = r.used_view.clone();
        ctx.trace.matching = r.matching;
        ctx.trace.rewriting = r.rewriting;
        ctx.trace.recovery.fragment_fallbacks += r.outage_skips;
        super::matching::count_matches(obs, &r.matching);
        true
    }
}

impl ReadView<'_> {
    /// The world stages 1 and 3 read from this view.
    pub(crate) fn world(&self) -> World {
        World {
            registry: self.registry.version(),
            fs: (self.fs.stamp(), self.fs.generation()),
            catalog: self.catalog.stamp(),
        }
    }
}
