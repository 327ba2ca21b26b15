//! Stages 1 and 3 computed once per plan and world: a read's matching and
//! rewriting, remembered for its commit and for repeat reads.
//!
//! What [`ReadView::compute_rewritings`] and [`ReadView::select_rewriting`]
//! leave in a fresh [`QueryContext`] is a function of the plan and of what
//! they read: the registry's filter tree, views and materialized fragments
//! ([`ViewRegistry::version`](crate::registry::ViewRegistry::version),
//! which only records that change those renew — not a tracked candidate, a
//! boundary, a statistics checkpoint or `QueryCommitted`; the statistics
//! the write path changes directly are never read), the file system's
//! listing, sizes and routing
//! ([`SimFs::stamp`](deepsea_storage::SimFs::stamp) and
//! [`SimFs::generation`](deepsea_storage::SimFs::generation)) and the
//! catalog ([`Catalog::stamp`](deepsea_engine::Catalog::stamp)). A snapshot
//! read stores its result under those four and the plan's
//! [`LogicalPlan::exact_key`], taken before it started. A later read of the
//! same plan in the same world, on any snapshot, and the commit of the plan
//! in that world adopt it instead of computing it again; in any other world
//! they compute afresh. The memo is shared by a driver and every snapshot
//! it publishes, like `SimBackend`'s memo of executed plans.

use std::collections::VecDeque;
// deepsea-lint: allow(layering) -- the rewriting memo a driver shares with its snapshots; one lock at a time, never held while matching, rewriting or executing
use std::sync::{Arc, Mutex};

use deepsea_engine::backend::{key_hash, MEMO_PLANS};
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

/// A plan's [`LogicalPlan::exact_key`] and its hash, taken once per read
/// or commit. The hash comes first, so `==` compares the bytes only when
/// the hashes agree.
#[derive(PartialEq, Eq)]
pub(crate) struct PlanKey {
    hash: u64,
    bytes: Vec<u8>,
}

impl PlanKey {
    pub(crate) fn of(plan: &LogicalPlan) -> Self {
        let bytes = plan.exact_key();
        Self {
            hash: key_hash(&bytes),
            bytes,
        }
    }
}

struct Entry {
    key: PlanKey,
    world: World,
    rewriting: Arc<Rewriting>,
}

/// The rewritings the last [`MEMO_PLANS`] computing snapshot reads left,
/// the oldest evicted first.
///
/// An entry stays valid until a record matching or rewriting can see is
/// applied, a file is created, deleted, lost or placed, a node goes down or
/// up, or a table is registered; a commit that only tracks candidates
/// keeps it. So a commit adopts its ticket's read's entry even when the
/// read ran on a stale snapshot, and a plan read again in an unchanged
/// world adopts the earlier read's. The bound is the plan memo's: reads
/// lag their commit by fewer tickets than it holds on every workload the
/// benchmark runs.
#[derive(Default)]
pub(crate) struct RewritingMemo {
    entries: Mutex<VecDeque<Entry>>,
}

impl RewritingMemo {
    fn locked(&self) -> std::sync::MutexGuard<'_, VecDeque<Entry>> {
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// How many rewritings are remembered (tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.locked().len()
    }

    /// Remember what stages 1 and 3 left in the fresh `ctx` for the plan
    /// keyed `key`, computed in `world`. A reader sharing the memo may have
    /// stored the same entry meanwhile: then it stays as it is.
    pub(crate) fn remember(&self, key: PlanKey, world: World, ctx: &QueryContext) {
        let rewriting = Arc::new(Rewriting {
            hits: Arc::clone(&ctx.hits),
            qbest: ctx.qbest.clone(),
            used_view: ctx.used_view.clone(),
            matching: ctx.trace.matching,
            rewriting: ctx.trace.rewriting,
            outage_skips: ctx.trace.recovery.fragment_fallbacks,
        });
        let mut entries = self.locked();
        if entries.iter().any(|e| e.world == world && e.key == key) {
            return;
        }
        if entries.len() == MEMO_PLANS {
            entries.pop_front();
        }
        entries.push_back(Entry {
            key,
            world,
            rewriting,
        });
    }

    /// Fill the fresh `ctx` with the rewriting of the plan keyed `key`
    /// remembered for `world`, counting its matches on `obs` as stage 1
    /// would. Returns whether there was one.
    pub(crate) fn adopt(
        &self,
        key: &PlanKey,
        world: World,
        ctx: &mut QueryContext,
        obs: &Observer,
    ) -> bool {
        // Newest first: a commit's read stored last.
        let found = self
            .locked()
            .iter()
            .rev()
            .find(|e| e.world == world && e.key == *key)
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
