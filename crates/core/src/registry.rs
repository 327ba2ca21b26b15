//! The view/partition statistics registry — Definition 5's `STAT`.
//!
//! Tracks every view and fragment DeepSea has ever considered, whether or not
//! it is currently materialized in the pool. The *configuration* `C` (what is
//! actually in the pool, Definition 3) is the subset with backing files.
//!
//! The registry's **structure** — views, partitions, fragments, files,
//! sizes — is copy-on-write: every view, partition and fragment sits behind
//! its own `Arc`, as do a view's immutable parts (plan, signature, key,
//! name) and the registry's two indexes. The `*_mut` accessors below
//! `Arc::make_mut` exactly the nodes on the path to what they change, so a
//! published snapshot ([`ViewRegistry::structure`]) keeps the old nodes and
//! shares everything else.
//!
//! The statistics every query records — benefit events and fragment hits
//! (§8.4) — are not in those nodes: they sit in the writer's
//! [`StatsLedger`], written in place, so recording them copies no node.
//! `Clone` carries the ledger (the journal's snapshots need it);
//! [`ViewRegistry::structure`] leaves it out (readers never look at it).
//! [`ViewRegistry::state_digest`] prints each ledger entry where the node
//! once held it, so the digest is that of the statistics-in-nodes layout.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use deepsea_engine::{LogicalPlan, Signature};
use deepsea_relation::Schema;
use deepsea_storage::{FileId, Stamp};

use crate::filter_tree::{FilterTree, ViewId};
use crate::fragment::{FragmentId, FragmentMeta};
use crate::interval::Interval;
use crate::stats::{FragStats, LogicalTime, PartitionHits, StatsLedger, StatsWithUses, ViewStats};

/// The state of one partition `P(V, A)` of a view on attribute `A`.
///
/// The fragment list is read-only from outside. Beside it the partition
/// keeps an index — the slots of the materialized fragments in ascending
/// order — that only its own mutators maintain ([`PartitionState::track`],
/// [`PartitionState::materialize`], `PartitionState::evict`,
/// `PartitionState::release_files`). The index is derived state and stays
/// out of `Debug`, so `state_digest` does not see it. A fragment's hits are
/// in the registry's [`StatsLedger`], at the fragment's slot.
#[derive(Clone)]
pub struct PartitionState {
    /// The partition attribute (as written in predicates).
    pub attr: String,
    /// The attribute's domain `D(A)`.
    pub domain: Interval,
    /// Every fragment tracked (materialized + candidates), in tracking
    /// order; fragments are never removed.
    fragments: Vec<Arc<FragmentMeta>>,
    /// Split points gathered from query selection endpoints; the *initial*
    /// partitioning materializes the intervals between consecutive
    /// boundaries.
    pub boundaries: Vec<i64>,
    next_frag: u64,
    /// The slots of the materialized fragments, ascending.
    materialized: Vec<usize>,
}

/// The derived `Debug` of the catalog fields alone: the index repeats what
/// `fragments` says.
impl std::fmt::Debug for PartitionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionState")
            .field("attr", &self.attr)
            .field("domain", &self.domain)
            .field("fragments", &self.fragments)
            .field("boundaries", &self.boundaries)
            .field("next_frag", &self.next_frag)
            .finish()
    }
}

impl PartitionState {
    /// A fresh partition over `domain`.
    pub fn new(attr: impl Into<String>, domain: Interval) -> Self {
        Self {
            attr: attr.into(),
            domain,
            fragments: Vec::new(),
            boundaries: Vec::new(),
            next_frag: 0,
            materialized: Vec::new(),
        }
    }

    /// Every tracked fragment, in tracking order: a fragment sits at its id.
    pub fn fragments(&self) -> &[Arc<FragmentMeta>] {
        &self.fragments
    }

    /// The slots (= ids) of the materialized fragments, ascending.
    pub(crate) fn materialized_slots(&self) -> &[usize] {
        &self.materialized
    }

    /// The materialized fragments in tracking order.
    pub fn materialized_fragments(&self) -> impl Iterator<Item = &FragmentMeta> + '_ {
        self.materialized.iter().map(|&slot| &*self.fragments[slot])
    }

    /// Materialized fragments as `(id, interval)` pairs, for Algorithm 2.
    pub fn materialized(&self) -> Vec<(FragmentId, Interval)> {
        self.materialized
            .iter()
            .map(|&slot| (FragmentId(slot as u64), self.fragments[slot].interval))
            .collect()
    }

    /// Is any fragment of this partition materialized?
    pub fn any_materialized(&self) -> bool {
        !self.materialized.is_empty()
    }

    /// Intervals used as the base for Definition 7 candidate generation:
    /// the pool partition `P(V,A)` when materialized, otherwise the tracked
    /// candidate intervals `PSTAT(V,A)`.
    pub fn candidate_base(&self) -> Vec<Interval> {
        if self.any_materialized() {
            self.materialized
                .iter()
                .map(|&slot| self.fragments[slot].interval)
                .collect()
        } else {
            self.fragments.iter().map(|f| f.interval).collect()
        }
    }

    /// The slot of the tracked fragment with exactly this interval.
    fn slot_of(&self, interval: &Interval) -> Option<usize> {
        self.fragments.iter().position(|f| f.interval == *interval)
    }

    /// Find a tracked fragment with exactly this interval.
    pub fn find(&self, interval: &Interval) -> Option<&FragmentMeta> {
        self.slot_of(interval).map(|slot| &*self.fragments[slot])
    }

    /// Lookup by fragment id: ids are handed out in tracking order and
    /// fragments are never removed, so a fragment sits at its id.
    pub fn frag(&self, id: FragmentId) -> Option<&FragmentMeta> {
        self.fragments
            .get(id.0 as usize)
            .filter(|f| f.id == id)
            .map(|f| &**f)
    }

    /// Record a hit at `tnow` in `slots` — this partition's statistics by
    /// slot — for every fragment overlapping `range`, and drop its hits older
    /// than `tmax`.
    pub(crate) fn record_hits(
        &self,
        slots: &mut Vec<FragStats>,
        range: &Interval,
        tnow: LogicalTime,
        tmax: LogicalTime,
    ) {
        if slots.len() < self.fragments.len() {
            slots.resize_with(self.fragments.len(), FragStats::default);
        }
        for (frag, stats) in self.fragments.iter().zip(slots.iter_mut()) {
            if frag.interval.overlaps(range) {
                stats.record_hit(tnow);
                stats.prune(tnow, tmax);
            }
        }
    }

    /// Track a fragment interval. Returns the fragment's id — the one found
    /// or the candidate's just pushed — and whether it is new.
    pub fn track(&mut self, interval: Interval, est_size: u64) -> (FragmentId, bool) {
        match self.slot_of(&interval) {
            Some(slot) => (self.fragments[slot].id, false),
            None => {
                let id = FragmentId(self.next_frag);
                self.next_frag += 1;
                self.fragments
                    .push(Arc::new(FragmentMeta::candidate(id, interval, est_size)));
                (id, true)
            }
        }
    }

    /// Back the fragment with this interval (tracked now if it was not) by
    /// `file` of `size` bytes. Returns the pool bytes the fragment held
    /// before and the file it replaced, if any.
    pub fn materialize(
        &mut self,
        interval: Interval,
        file: FileId,
        size: u64,
    ) -> (u64, Option<FileId>) {
        let slot = self.track(interval, size).0 .0 as usize;
        let f = Arc::make_mut(&mut self.fragments[slot]);
        let released = if f.is_materialized() { f.size } else { 0 };
        let old = f.file.replace(file);
        f.size = size;
        if old.is_none() {
            let at = self.materialized.partition_point(|&s| s < slot);
            self.materialized.insert(at, slot);
        }
        (released, old)
    }

    /// Drop the backing file of the fragment with this interval. Returns the
    /// pool bytes released and the file, or `None` when no fragment has the
    /// interval; a tracked candidate releases nothing and is not copied.
    pub(crate) fn evict(&mut self, interval: &Interval) -> Option<(u64, Option<FileId>)> {
        let slot = self.slot_of(interval)?;
        let Ok(at) = self.materialized.binary_search(&slot) else {
            return Some((0, None));
        };
        self.materialized.remove(at);
        let f = Arc::make_mut(&mut self.fragments[slot]);
        Some((f.size, f.file.take()))
    }

    /// Drop every backing file (a quarantine), returning them in tracking
    /// order. Intervals stay (and the ledger's hits on them).
    pub(crate) fn release_files(&mut self) -> Vec<FileId> {
        let slots = std::mem::take(&mut self.materialized);
        slots
            .into_iter()
            .filter_map(|slot| Arc::make_mut(&mut self.fragments[slot]).file.take())
            .collect()
    }

    /// Whether the index equals one recomputed from the fragment list —
    /// exactly the materialized slots, in order — and every fragment sits at
    /// its id.
    pub fn index_is_consistent(&self) -> bool {
        let materialized =
            (0..self.fragments.len()).filter(|&i| self.fragments[i].is_materialized());
        self.materialized.iter().copied().eq(materialized)
            && self
                .fragments
                .iter()
                .enumerate()
                .all(|(i, f)| f.id.0 == i as u64)
    }

    /// Would [`PartitionState::add_boundary`] record `p` (in-domain and
    /// new)? The driver journals only such effective boundaries.
    pub fn accepts_boundary(&self, p: i64) -> bool {
        self.domain.lo < p && p <= self.domain.hi && self.boundaries.binary_search(&p).is_err()
    }

    /// Record a split point (selection endpoint) for initial partitioning.
    /// Returns whether the point was actually recorded.
    pub fn add_boundary(&mut self, p: i64) -> bool {
        if !self.accepts_boundary(p) {
            return false;
        }
        let pos = self.boundaries.partition_point(|&b| b < p);
        self.boundaries.insert(pos, p);
        true
    }

    /// The horizontal partition of the domain induced by the recorded
    /// boundaries (§6.2 — split `{D(V,A)}` at all observed endpoints).
    pub fn boundary_partition(&self) -> Vec<Interval> {
        let mut out = Vec::with_capacity(self.boundaries.len() + 1);
        let mut lo = self.domain.lo;
        for &b in &self.boundaries {
            out.push(Interval::new(lo, b - 1));
            lo = b;
        }
        out.push(Interval::new(lo, self.domain.hi));
        out
    }

    /// §7.2 size estimate for a candidate interval from the sizes of
    /// overlapping materialized fragments (assuming uniform values within
    /// each fragment); falls back to a width-proportional share of
    /// `view_size` when nothing is materialized yet.
    pub fn estimate_size(&self, interval: &Interval, view_size: u64) -> u64 {
        let mut mats = self
            .materialized_fragments()
            .filter(|f| f.interval.overlaps(interval))
            .peekable();
        if mats.peek().is_none() {
            let frac = interval.width() as f64 / self.domain.width() as f64;
            return (view_size as f64 * frac).round() as u64;
        }
        mats.map(|f| (f.interval.overlap_fraction(interval) * f.size as f64).round() as u64)
            .sum()
    }

    /// Total pool bytes held by materialized fragments.
    pub fn pool_bytes(&self) -> u64 {
        self.materialized_fragments().map(|f| f.size).sum()
    }
}

/// One view tracked by the registry.
#[derive(Debug, Clone)]
pub struct ViewMeta {
    /// Identifier.
    pub id: ViewId,
    /// Short display name (`V0`, `V1`, …).
    pub name: Arc<str>,
    /// Canonical signature key (view identity).
    pub key: Arc<str>,
    /// The view's defining plan (view-free).
    pub plan: Arc<LogicalPlan>,
    /// The defining plan's signature.
    pub sig: Arc<Signature>,
    /// Output schema, known after first materialization.
    pub schema: Option<Schema>,
    /// Backing file when materialized *without* partitioning.
    pub whole_file: Option<FileId>,
    /// Partitions by attribute (multiple allowed on different attributes).
    /// Mutate one through [`ViewMeta::partition_mut`] /
    /// [`ViewMeta::partition_or_track`] so that only it is copied.
    pub partitions: BTreeMap<String, Arc<PartitionState>>,
    /// `(S, COST)` statistics. `stats.cost` is the *recreation* cost
    /// (recompute the view's query and partition it, §7.1) used in `Φ` and
    /// fragment benefits. The uses `(T, B)` are in the registry's
    /// [`StatsLedger`].
    pub stats: ViewStats,
    /// The marginal overhead of materializing the view during a query that
    /// computes it anyway (write + partition). The §7.2 admission filter
    /// compares this against the accumulated benefit.
    pub creation_overhead: f64,
    /// When set, the view was quarantined at this logical time after a
    /// permanent I/O failure: its fragments are marked lost, its signature is
    /// out of the filter tree, and it stops matching until a later query
    /// re-registers the same shape (re-admission). Statistics survive
    /// quarantine so a hot view re-materializes quickly.
    pub quarantined_at: Option<LogicalTime>,
}

impl ViewMeta {
    /// Is anything of this view materialized?
    pub fn is_materialized(&self) -> bool {
        self.whole_file.is_some() || self.partitions.values().any(|ps| ps.any_materialized())
    }

    /// Mutable lookup of the partition on `attr` (copies the partition's
    /// fragment *slots*, not the fragments, if it is shared).
    pub fn partition_mut(&mut self, attr: &str) -> Option<&mut PartitionState> {
        self.partitions.get_mut(attr).map(Arc::make_mut)
    }

    /// The partition on `attr`, started over `domain` if not tracked yet.
    pub fn partition_or_track(&mut self, attr: &str, domain: Interval) -> &mut PartitionState {
        let slot = self
            .partitions
            .entry(attr.to_string())
            .or_insert_with(|| Arc::new(PartitionState::new(attr, domain)));
        Arc::make_mut(slot)
    }

    /// Is this view currently quarantined (lost and unmatched)?
    pub fn is_quarantined(&self) -> bool {
        self.quarantined_at.is_some()
    }

    /// Pool bytes held by the whole-file copy (`stats.size` while it exists).
    pub fn whole_bytes(&self) -> u64 {
        if self.whole_file.is_some() {
            self.stats.size
        } else {
            0
        }
    }

    /// Every backing file of this view: the whole-file copy, then the
    /// materialized fragments in partition order.
    pub fn files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.whole_file.into_iter().chain(
            self.partitions
                .values()
                .flat_map(|ps| ps.materialized_fragments().filter_map(|f| f.file)),
        )
    }

    /// Pool bytes currently held by this view (whole file + fragments).
    pub fn pool_bytes(&self) -> u64 {
        self.whole_bytes()
            + self
                .partitions
                .values()
                .map(|ps| ps.pool_bytes())
                .sum::<u64>()
    }
}

/// What a quarantine released: the backing files it unlinked and the pool
/// bytes freed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    /// Backing files the view held (whole-file copy, then fragments).
    pub files: Vec<FileId>,
    /// Pool bytes the view accounted for before the quarantine.
    pub bytes: u64,
}

/// The statistics registry `STAT = (VSTAT, PSTAT, Σ)` of Definition 5.
///
/// `Clone` shares every view and both indexes with the original and copies
/// the statistics ledger (see the module doc); a clone is what the journal
/// holds, [`ViewRegistry::structure`] what a snapshot holds.
#[derive(Debug, Default, Clone)]
pub struct ViewRegistry {
    views: Vec<Arc<ViewMeta>>,
    // deepsea-lint: allow(hash_iter) -- by_key is a point-lookup index (get/insert
    // only, never iterated), so hash ordering cannot leak into any decision.
    by_key: Arc<HashMap<Arc<str>, ViewId>>,
    index: Arc<FilterTree>,
    /// Renewed by every applied catalog record matching or rewriting can
    /// see ([`ViewRegistry::version`]).
    version: Stamp,
    /// The writer's statistics; empty in a [`ViewRegistry::structure`].
    ledger: StatsLedger,
}

impl ViewRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Names what matching and rewriting read of this registry: renewed by
    /// every catalog record applied to it that can change that
    /// (`durability::apply_record`), copied by `Clone` and
    /// [`ViewRegistry::structure`]. Two registries with one version hold the
    /// same filter tree, views, schemas, sizes, and materialized fragments
    /// with their files; they may differ in tracked candidates, boundaries,
    /// empty partitions, statistics and the clock, which those stages never
    /// read. So what they compute from a registry is a function of its
    /// version.
    pub fn version(&self) -> Stamp {
        self.version
    }

    /// Renew [`ViewRegistry::version`] after a structural change.
    pub(crate) fn renew_version(&mut self) {
        self.version = Stamp::fresh();
    }

    /// This registry's structure — views, partitions, fragments, files,
    /// sizes, both indexes and the version — sharing every node, without
    /// the statistics ledger: what a published snapshot holds.
    pub fn structure(&self) -> ViewRegistry {
        ViewRegistry {
            views: self.views.clone(),
            by_key: Arc::clone(&self.by_key),
            index: Arc::clone(&self.index),
            version: self.version,
            ledger: StatsLedger::default(),
        }
    }

    /// The statistics recorded on views and fragments (empty in a
    /// [`ViewRegistry::structure`]).
    pub fn ledger(&self) -> &StatsLedger {
        &self.ledger
    }

    /// The statistics ledger, for writing in place: no registry node is
    /// copied.
    pub(crate) fn ledger_mut(&mut self) -> &mut StatsLedger {
        &mut self.ledger
    }

    /// Record in the ledger a hit at `tnow` on every fragment of `view`'s
    /// partition on `attr` overlapping `range`, dropping hits older than
    /// `tmax` (no-op for an untracked partition).
    pub(crate) fn record_hits(
        &mut self,
        view: ViewId,
        attr: &str,
        range: &Interval,
        tnow: LogicalTime,
        tmax: LogicalTime,
    ) {
        if let Some(ps) = self.views[view.0 as usize].partitions.get(attr) {
            ps.record_hits(self.ledger.partition_mut(view, attr), range, tnow, tmax);
        }
    }

    /// Number of tracked views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True if no views are tracked.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Register a view candidate if its key is new. Returns its id either
    /// way. Re-registering a quarantined view's shape **re-admits** it: the
    /// signature re-enters the filter tree (with statistics intact) so the
    /// view can match, be selected, and be re-materialized by later queries.
    pub fn register(
        &mut self,
        plan: LogicalPlan,
        sig: Signature,
        est_size: u64,
        est_recreate_cost: f64,
        est_overhead: f64,
    ) -> ViewId {
        let key = sig.canonical_key();
        if let Some(&id) = self.by_key.get(key.as_str()) {
            if self.view(id).is_quarantined() {
                let view = self.view_mut(id);
                view.quarantined_at = None;
                let sig = Arc::clone(&view.sig);
                Arc::make_mut(&mut self.index).insert(&sig, id);
            }
            return id;
        }
        let id = ViewId(self.views.len() as u64);
        let key: Arc<str> = key.into();
        Arc::make_mut(&mut self.index).insert(&sig, id);
        Arc::make_mut(&mut self.by_key).insert(Arc::clone(&key), id);
        self.views.push(Arc::new(ViewMeta {
            id,
            name: format!("V{}", id.0).into(),
            key,
            plan: Arc::new(plan),
            sig: Arc::new(sig),
            schema: None,
            whole_file: None,
            partitions: BTreeMap::new(),
            stats: ViewStats::estimated(est_size, est_recreate_cost),
            creation_overhead: est_overhead,
            quarantined_at: None,
        }));
        id
    }

    /// Quarantine a view after a permanent I/O failure: mark every fragment
    /// and the whole-file copy as lost (releasing their pool bytes), and
    /// strip the signature from the filter tree so the view stops matching.
    /// Statistics are preserved for re-admission. Returns the backing files
    /// unlinked and the pool bytes released.
    pub fn quarantine(&mut self, id: ViewId, tnow: LogicalTime) -> QuarantineReport {
        let view = self.view_mut(id);
        let bytes = view.pool_bytes();
        let mut files = Vec::new();
        if let Some(f) = view.whole_file.take() {
            files.push(f);
        }
        for ps in view.partitions.values_mut() {
            if ps.any_materialized() {
                files.extend(Arc::make_mut(ps).release_files());
            }
        }
        if view.quarantined_at.is_none() {
            view.quarantined_at = Some(tnow);
            let sig = Arc::clone(&view.sig);
            Arc::make_mut(&mut self.index).remove(&sig, id);
        }
        QuarantineReport { files, bytes }
    }

    /// The view whose whole-file copy or fragment is backed by `file`, if
    /// any — how an execution failure on a file maps back to a view.
    pub fn view_owning_file(&self, file: FileId) -> Option<ViewId> {
        self.iter()
            .find(|v| v.files().any(|f| f == file))
            .map(|v| v.id)
    }

    /// Lookup by id.
    pub fn view(&self, id: ViewId) -> &ViewMeta {
        &self.views[id.0 as usize]
    }

    /// Mutable lookup by id (copies the view's own fields — partition
    /// *slots*, not the partitions — if it is shared).
    pub fn view_mut(&mut self, id: ViewId) -> &mut ViewMeta {
        Arc::make_mut(&mut self.views[id.0 as usize])
    }

    /// Lookup by canonical key.
    pub fn by_key(&self, key: &str) -> Option<ViewId> {
        self.by_key.get(key).copied()
    }

    /// Lookup by display name (`V3`).
    pub fn by_name(&self, name: &str) -> Option<ViewId> {
        self.views.iter().find(|v| &*v.name == name).map(|v| v.id)
    }

    /// Views whose signature bucket matches the query's (filter-tree pruned).
    pub fn lookup_bucket(&self, query_sig: &Signature) -> &[ViewId] {
        self.index.lookup(query_sig)
    }

    /// All views.
    pub fn iter(&self) -> impl Iterator<Item = &ViewMeta> {
        self.views.iter().map(|v| &**v)
    }

    /// Total pool bytes across all materialized views/fragments.
    pub fn pool_bytes(&self) -> u64 {
        self.iter().map(ViewMeta::pool_bytes).sum()
    }

    /// A deterministic digest of the full registry state (views in id order,
    /// every field via `Debug`, each ledger entry where its node once held
    /// it — see `ViewWithStats`), used to assert that crash recovery is
    /// idempotent: recover twice, get the same digest. Per-view formatting
    /// keeps the digest independent of `HashMap` iteration order in the
    /// key index. This is the same property the D1 `hash_iter` lint enforces
    /// statically across the decision path: hash collections are never
    /// iterated where the order could reach a planning decision or an
    /// on-disk artifact — `by_key` above carries the one audited exemption.
    pub fn state_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for view in &self.views {
            eat(format!("{:?}", ViewWithStats(view, &self.ledger)).as_bytes());
            eat(&[0xff]);
        }
        h
    }
}

/// A view printed as the derived `Debug` of its node printed it while the
/// node held its statistics: the ledger's uses inside `stats`, and each
/// fragment's hits as its `stats` field. Every node is destructured, so a
/// field added to one cannot be left out of the digest silently.
struct ViewWithStats<'a>(&'a ViewMeta, &'a StatsLedger);

impl std::fmt::Debug for ViewWithStats<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ViewWithStats(view, ledger) = *self;
        let ViewMeta {
            id,
            name,
            key,
            plan,
            sig,
            schema,
            whole_file,
            partitions,
            stats,
            creation_overhead,
            quarantined_at,
        } = view;
        let partitions = std::fmt::from_fn(|f| {
            f.debug_map()
                .entries(
                    partitions
                        .iter()
                        .map(|(attr, ps)| (attr, partition_with_hits(ps, ledger.hits(*id, attr)))),
                )
                .finish()
        });
        f.debug_struct("ViewMeta")
            .field("id", id)
            .field("name", name)
            .field("key", key)
            .field("plan", plan)
            .field("sig", sig)
            .field("schema", schema)
            .field("whole_file", whole_file)
            .field("partitions", &partitions)
            .field("stats", &StatsWithUses(stats, ledger.uses(*id)))
            .field("creation_overhead", creation_overhead)
            .field("quarantined_at", quarantined_at)
            .finish()
    }
}

/// A partition printed with its fragments' hits (see [`ViewWithStats`]).
fn partition_with_hits<'a>(
    ps: &'a PartitionState,
    hits: PartitionHits<'a>,
) -> impl std::fmt::Debug + 'a {
    std::fmt::from_fn(move |f| {
        let PartitionState {
            attr,
            domain,
            fragments,
            boundaries,
            next_frag,
            materialized: _,
        } = ps;
        let fragments = std::fmt::from_fn(|f| {
            f.debug_list()
                .entries(fragments.iter().map(|frag| {
                    let FragmentMeta {
                        id,
                        interval,
                        file,
                        size,
                    } = &**frag;
                    std::fmt::from_fn(move |f| {
                        f.debug_struct("FragmentMeta")
                            .field("id", id)
                            .field("interval", interval)
                            .field("file", file)
                            .field("size", size)
                            .field("stats", hits.of(*id))
                            .finish()
                    })
                }))
                .finish()
        });
        f.debug_struct("PartitionState")
            .field("attr", attr)
            .field("domain", domain)
            .field("fragments", &fragments)
            .field("boundaries", boundaries)
            .field("next_frag", next_frag)
            .finish()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsea_engine::LogicalPlan;

    fn reg_with_join() -> (ViewRegistry, ViewId) {
        let mut r = ViewRegistry::new();
        let plan = LogicalPlan::scan("a").join(LogicalPlan::scan("b"), vec![("a.k", "b.k")]);
        let sig = Signature::of(&plan).unwrap();
        let id = r.register(plan, sig, 1000, 10.0, 2.0);
        (r, id)
    }

    #[test]
    fn register_dedupes_by_key() {
        let (mut r, id) = reg_with_join();
        let plan = LogicalPlan::scan("b").join(LogicalPlan::scan("a"), vec![("b.k", "a.k")]);
        let sig = Signature::of(&plan).unwrap();
        let id2 = r.register(plan, sig, 500, 5.0, 1.0);
        assert_eq!(id, id2, "join order does not create a new view");
        assert_eq!(r.len(), 1);
        // Original estimates preserved.
        assert_eq!(r.view(id).stats.size, 1000);
    }

    #[test]
    fn bucket_lookup_finds_view() {
        let (r, id) = reg_with_join();
        let q = LogicalPlan::scan("a").join(LogicalPlan::scan("b"), vec![("a.k", "b.k")]);
        let qsig = Signature::of(&q).unwrap();
        assert_eq!(r.lookup_bucket(&qsig), &[id]);
    }

    #[test]
    fn partition_boundaries_induce_partition() {
        let mut p = PartitionState::new("a.k", Interval::new(0, 99));
        assert_eq!(p.boundary_partition(), vec![Interval::new(0, 99)]);
        p.add_boundary(40);
        p.add_boundary(61);
        p.add_boundary(40); // dup ignored
        p.add_boundary(0); // at domain.lo ignored (no-op split)
        p.add_boundary(1000); // outside domain ignored
        let parts = p.boundary_partition();
        assert_eq!(
            parts,
            vec![
                Interval::new(0, 39),
                Interval::new(40, 60),
                Interval::new(61, 99)
            ]
        );
        assert!(crate::interval::is_horizontal_partition(&parts, &p.domain));
    }

    #[test]
    fn track_dedupes_and_assigns_ids() {
        let mut p = PartitionState::new("a.k", Interval::new(0, 99));
        let (f1, new1) = p.track(Interval::new(0, 49), 10);
        let (f2, new2) = p.track(Interval::new(50, 99), 10);
        let (f1b, new1b) = p.track(Interval::new(0, 49), 99);
        assert_eq!(f1, f1b);
        assert_ne!(f1, f2);
        assert_eq!((new1, new2, new1b), (true, true, false));
        assert_eq!(p.fragments.len(), 2);
        assert_eq!(p.find(&Interval::new(0, 49)).unwrap().size, 10);
        // A fragment sits at its id, which is what makes `frag` O(1).
        assert_eq!(p.frag(f2).unwrap().interval, Interval::new(50, 99));
        assert!(p.frag(FragmentId(2)).is_none());
    }

    /// Every mutator keeps the index equal to one recomputed from the
    /// fragments, and the index never reaches `Debug` (nor so the digest).
    #[test]
    fn the_index_follows_every_mutator_and_stays_out_of_debug() {
        let (a, b, c) = (
            Interval::new(0, 9),
            Interval::new(10, 19),
            Interval::new(5, 14),
        );
        let mut p = PartitionState::new("a.k", Interval::new(0, 19));
        p.track(a, 10);
        p.track(b, 10);
        p.track(c, 10);
        assert!(p.index_is_consistent());
        assert!(p.materialized_slots().is_empty());
        assert_eq!(p.candidate_base(), vec![a, b, c]);
        assert_eq!(p.materialize(c, FileId(1), 40), (0, None));
        assert_eq!(p.materialize(a, FileId(2), 30), (0, None));
        assert!(p.index_is_consistent());
        assert_eq!(
            p.materialized_slots(),
            &[0, 2],
            "ascending, not in build order"
        );
        assert_eq!(p.candidate_base(), vec![a, c]);
        assert_eq!(p.pool_bytes(), 70);
        // Re-materializing swaps the file; a fresh interval is tracked.
        assert_eq!(p.materialize(c, FileId(3), 50), (40, Some(FileId(1))));
        let d = Interval::new(15, 19);
        assert_eq!(p.materialize(d, FileId(4), 5), (0, None));
        assert_eq!(p.materialized_slots(), &[0, 2, 3]);
        assert!(p.index_is_consistent());
        assert_eq!(p.evict(&a), Some((30, Some(FileId(2)))));
        assert_eq!(p.evict(&a), Some((0, None)), "evicting a candidate");
        assert_eq!(p.evict(&Interval::new(1, 2)), None, "untracked");
        assert!(p.index_is_consistent());
        assert_eq!(p.materialized_slots(), &[2, 3]);
        let mut slots = Vec::new();
        p.record_hits(&mut slots, &Interval::new(12, 16), 7, 100);
        assert_eq!(slots.len(), 4, "a slot per tracked fragment");
        let hit: Vec<_> = (0..4).filter(|&i| slots[i].last_hit() == Some(7)).collect();
        assert_eq!(hit, vec![1, 2, 3]);
        assert_eq!(p.release_files(), vec![FileId(3), FileId(4)]);
        assert!(p.index_is_consistent());
        assert!(!p.any_materialized());

        let mut derived = format!("{p:?}");
        let fields = format!(
            "PartitionState {{ attr: {:?}, domain: {:?}, fragments: {:?}, boundaries: {:?}, \
             next_frag: 4 }}",
            p.attr,
            p.domain,
            p.fragments(),
            p.boundaries
        );
        assert_eq!(derived, fields);
        derived = format!("{p:#?}");
        assert!(!derived.contains("materialized:"));
    }

    /// Recording statistics copies no node, of a clone or a structure; a
    /// structural change copies the path to what it changes and nothing
    /// else; a structure shares every node and holds no statistics.
    #[test]
    fn mutating_a_clone_copies_only_the_path_to_the_change() {
        let (mut r, id) = reg_with_join();
        let other = {
            let plan = LogicalPlan::scan("a").join(LogicalPlan::scan("c"), vec![("a.k", "c.k")]);
            let sig = Signature::of(&plan).unwrap();
            r.register(plan, sig, 10, 1.0, 1.0)
        };
        let ps = r
            .view_mut(id)
            .partition_or_track("a.k", Interval::new(0, 99));
        ps.track(Interval::new(0, 49), 10);
        ps.track(Interval::new(50, 99), 10);
        r.view_mut(id)
            .partition_or_track("a.v", Interval::new(0, 9));

        let frozen = r.clone();
        let shared = r.structure();
        let digest = frozen.state_digest();
        assert_eq!(shared.state_digest(), digest, "nothing recorded yet");
        r.ledger_mut().uses_mut(id).record_use(3, 1.0);
        r.record_hits(id, "a.k", &Interval::new(60, 70), 3, 100);
        assert_eq!(frozen.state_digest(), digest, "the clone is frozen");
        assert_ne!(r.state_digest(), digest, "the digest sees the ledger");
        assert_eq!(
            r.ledger().hits(id, "a.k").of(FragmentId(1)).last_hit(),
            Some(3)
        );
        assert_eq!(
            frozen.ledger().hits(id, "a.k").of(FragmentId(1)).raw_hits(),
            0
        );
        assert!(
            shared.ledger().is_empty(),
            "a structure holds no statistics"
        );
        for view in [id, other] {
            assert!(std::ptr::eq(frozen.view(view), r.view(view)), "no copy");
            assert!(std::ptr::eq(shared.view(view), r.view(view)), "no copy");
        }

        r.view_mut(id).partition_mut("a.k").unwrap().materialize(
            Interval::new(50, 99),
            FileId(1),
            10,
        );
        let (old, new) = (frozen.view(id), r.view(id));
        assert!(!std::ptr::eq(old, new), "the touched view was copied");
        assert!(std::ptr::eq(frozen.view(other), r.view(other)));
        assert!(Arc::ptr_eq(&old.plan, &new.plan) && Arc::ptr_eq(&old.key, &new.key));
        assert!(Arc::ptr_eq(&old.partitions["a.v"], &new.partitions["a.v"]));
        let (old_ps, new_ps) = (&old.partitions["a.k"], &new.partitions["a.k"]);
        assert!(!Arc::ptr_eq(old_ps, new_ps));
        assert!(Arc::ptr_eq(&old_ps.fragments[0], &new_ps.fragments[0]));
        assert!(!Arc::ptr_eq(&old_ps.fragments[1], &new_ps.fragments[1]));
        assert_eq!(old_ps.fragments[1].file, None);
    }

    /// `state_digest` hashes the form the derived `Debug` of a view gave
    /// while its node held the statistics: benefit events inside `stats`,
    /// each fragment's hits as its `stats` field.
    #[test]
    fn the_digest_prints_each_statistic_where_its_node_held_it() {
        let (mut r, id) = reg_with_join();
        r.view_mut(id)
            .partition_or_track("a.k", Interval::new(0, 99))
            .materialize(Interval::new(0, 49), FileId(7), 10);
        r.ledger_mut().uses_mut(id).record_use(2, 5.0);
        r.record_hits(id, "a.k", &Interval::new(3, 4), 2, 100);
        let v = r.view(id);
        let old_layout = format!(
            "ViewMeta {{ id: ViewId(0), name: \"V0\", key: {:?}, plan: {:?}, sig: {:?}, \
             schema: None, whole_file: None, partitions: {{\"a.k\": PartitionState {{ \
             attr: \"a.k\", domain: Interval {{ lo: 0, hi: 99 }}, fragments: [FragmentMeta {{ \
             id: FragmentId(0), interval: Interval {{ lo: 0, hi: 49 }}, file: Some(FileId(7)), \
             size: 10, stats: FragStats {{ hits: [2] }} }}], boundaries: [], next_frag: 1 }}}}, \
             stats: ViewStats {{ size: 1000, cost: 10.0, measured: false, events: \
             [BenefitEvent {{ t: 2, saving: 5.0 }}] }}, creation_overhead: 2.0, \
             quarantined_at: None }}",
            v.key, v.plan, v.sig
        );
        assert_eq!(format!("{:?}", ViewWithStats(v, r.ledger())), old_layout);
    }

    #[test]
    fn estimate_size_width_proportional_when_empty() {
        let p = PartitionState::new("a.k", Interval::new(0, 99));
        let s = p.estimate_size(&Interval::new(0, 49), 1000);
        assert_eq!(s, 500);
    }

    #[test]
    fn estimate_size_uses_materialized_overlap() {
        let mut p = PartitionState::new("a.k", Interval::new(0, 99));
        // Skewed: the left half holds most data.
        p.materialize(Interval::new(0, 49), FileId(1), 800);
        p.materialize(Interval::new(50, 99), FileId(2), 200);
        // Candidate [0,24] = half of the left fragment → 400.
        assert_eq!(p.estimate_size(&Interval::new(0, 24), 1000), 400);
        // Candidate [25,74] = half of left + half of right → 400 + 100.
        assert_eq!(p.estimate_size(&Interval::new(25, 74), 1000), 500);
        assert_eq!(p.pool_bytes(), 1000);
    }

    #[test]
    fn view_pool_bytes_counts_whole_and_fragments() {
        let (mut r, id) = reg_with_join();
        assert_eq!(r.pool_bytes(), 0);
        assert!(!r.view(id).is_materialized());
        r.view_mut(id).whole_file = Some(FileId(7));
        assert!(r.view(id).is_materialized());
        assert_eq!(r.pool_bytes(), 1000, "whole file counts at stats.size");
    }

    #[test]
    fn quarantine_releases_pool_and_stops_matching() {
        let (mut r, id) = reg_with_join();
        r.view_mut(id).whole_file = Some(FileId(7));
        let fid = {
            let ps = r
                .view_mut(id)
                .partition_or_track("a.k", Interval::new(0, 99));
            ps.materialize(Interval::new(0, 49), FileId(8), 300);
            ps.find(&Interval::new(0, 49)).expect("just tracked").id
        };
        assert_eq!(r.pool_bytes(), 1300);
        let q = LogicalPlan::scan("a").join(LogicalPlan::scan("b"), vec![("a.k", "b.k")]);
        let qsig = Signature::of(&q).unwrap();
        assert_eq!(r.lookup_bucket(&qsig), &[id]);

        let report = r.quarantine(id, 42);
        assert_eq!(report.bytes, 1300);
        assert_eq!(report.files, vec![FileId(7), FileId(8)]);
        assert!(r.view(id).is_quarantined());
        assert!(!r.view(id).is_materialized());
        assert_eq!(r.pool_bytes(), 0, "quarantine releases pool accounting");
        assert!(r.lookup_bucket(&qsig).is_empty(), "stripped from the tree");
        assert_eq!(r.view_owning_file(FileId(8)), None, "fragment marked lost");
        // Idempotent: a second quarantine releases nothing further.
        let again = r.quarantine(id, 43);
        assert_eq!(again, QuarantineReport::default());
        assert_eq!(r.view(id).quarantined_at, Some(42));
        // Fragment metadata (intervals, stats) survives for re-admission.
        assert!(r
            .view(id)
            .partitions
            .get("a.k")
            .and_then(|ps| ps.frag(fid))
            .is_some());
    }

    #[test]
    fn reregistering_readmits_quarantined_view() {
        let (mut r, id) = reg_with_join();
        r.view_mut(id).whole_file = Some(FileId(7));
        r.quarantine(id, 5);
        let q = LogicalPlan::scan("a").join(LogicalPlan::scan("b"), vec![("a.k", "b.k")]);
        let qsig = Signature::of(&q).unwrap();
        assert!(r.lookup_bucket(&qsig).is_empty());
        // A later query registering the same shape re-admits the view.
        let id2 = r.register(q.clone(), qsig.clone(), 500, 5.0, 1.0);
        assert_eq!(id, id2, "same key, same view");
        assert!(!r.view(id).is_quarantined());
        assert_eq!(r.lookup_bucket(&qsig), &[id], "back in the filter tree");
        assert_eq!(r.view(id).stats.size, 1000, "statistics survived");
        assert!(
            !r.view(id).is_materialized(),
            "data stays lost until rebuilt"
        );
    }

    #[test]
    fn quarantined_stats_survive_journal_roundtrip() {
        use crate::durability::{replay_catalog, CatalogJournal, CatalogRecord, CatalogSnapshot};

        // A view accrues real (measured) statistics, then gets quarantined.
        let (mut r, id) = reg_with_join();
        r.view_mut(id).whole_file = Some(FileId(7));
        r.view_mut(id).stats.set_measured(1200, 9.0);
        r.ledger_mut().uses_mut(id).record_use(3, 25.0);
        r.quarantine(id, 4);

        // Snapshot the quarantined state, then journal a re-admission (a
        // later query registering the same shape) before the crash.
        let j: CatalogJournal = CatalogJournal::new();
        j.install_snapshot(CatalogSnapshot {
            registry: r.clone(),
            clock: 4,
        });
        let v = r.view(id);
        j.append(CatalogRecord::ViewRegistered {
            plan: LogicalPlan::clone(&v.plan),
            sig: Signature::clone(&v.sig),
            est_size: 500,
            est_cost: 5.0,
            est_overhead: 1.0,
            first_use: None,
        })
        .unwrap();

        // Cold-start replay: the view is re-admitted, its measured stats are
        // intact (so Φ-ranking can re-materialize it quickly), and its data
        // is still gone until rebuilt.
        let (snap, records) = j.replay();
        let (rec, _) = replay_catalog(snap.map(|(_, s)| s), &records);
        let rid = rec.by_key(&r.view(id).key).expect("view survives");
        let rv = rec.view(rid);
        assert!(!rv.is_quarantined(), "re-admission record replayed");
        assert!(rv.stats.measured, "measured stats survive the round-trip");
        assert_eq!(rv.stats.size, 1200, "estimates do not clobber stats");
        assert_eq!(
            rec.ledger().uses(rid).events.len(),
            1,
            "benefit history survives"
        );
        assert!(!rv.is_materialized(), "data stays lost until rebuilt");
        let qsig = Signature::of(&rv.plan).unwrap();
        assert_eq!(
            rec.lookup_bucket(&qsig),
            &[rid],
            "back in the filter tree, eligible for re-materialization"
        );
        // Replay is idempotent.
        let (snap2, records2) = j.replay();
        let (rec2, _) = replay_catalog(snap2.map(|(_, s)| s), &records2);
        assert_eq!(rec.state_digest(), rec2.state_digest());
    }

    #[test]
    fn view_owning_file_maps_failures_to_views() {
        let (mut r, id) = reg_with_join();
        r.view_mut(id).whole_file = Some(FileId(7));
        assert_eq!(r.view_owning_file(FileId(7)), Some(id));
        assert_eq!(r.view_owning_file(FileId(9)), None);
    }
}
