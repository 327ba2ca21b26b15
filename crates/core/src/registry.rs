//! The view/partition statistics registry — Definition 5's `STAT`.
//!
//! Tracks every view and fragment DeepSea has ever considered, whether or not
//! it is currently materialized in the pool. The *configuration* `C` (what is
//! actually in the pool, Definition 3) is the subset with backing files.
//!
//! The registry is a **copy-on-write** structure: every view, partition and
//! fragment sits behind its own `Arc`, as do a view's immutable parts (plan,
//! signature, key, name) and the registry's two indexes. `Clone` is therefore
//! a refcount bump per view, and the `*_mut` accessors below `Arc::make_mut`
//! exactly the nodes on the path to what they change — a clone held by a
//! published snapshot or by the journal keeps the old nodes and shares
//! everything else. `Arc`'s `Debug` is transparent, so `state_digest` does
//! not see the sharing.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use deepsea_engine::{LogicalPlan, Signature};
use deepsea_relation::Schema;
use deepsea_storage::FileId;

use crate::filter_tree::{FilterTree, ViewId};
use crate::fragment::{FragmentId, FragmentMeta};
use crate::interval::Interval;
use crate::stats::{LogicalTime, ViewStats};

/// The state of one partition `P(V, A)` of a view on attribute `A`.
#[derive(Debug, Clone)]
pub struct PartitionState {
    /// The partition attribute (as written in predicates).
    pub attr: String,
    /// The attribute's domain `D(A)`.
    pub domain: Interval,
    /// Every fragment tracked for this partition (materialized + candidates),
    /// in tracking order; fragments are never removed. Mutate one through
    /// [`PartitionState::frag_mut`] / [`PartitionState::find_mut`] (or
    /// `Arc::make_mut` on the slot) so that only it is copied.
    pub fragments: Vec<Arc<FragmentMeta>>,
    /// Split points gathered from query selection endpoints; the *initial*
    /// partitioning materializes the intervals between consecutive
    /// boundaries.
    pub boundaries: Vec<i64>,
    next_frag: u64,
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
        }
    }

    /// Materialized fragments as `(id, interval)` pairs, for Algorithm 2.
    pub fn materialized(&self) -> Vec<(FragmentId, Interval)> {
        self.fragments
            .iter()
            .filter(|f| f.is_materialized())
            .map(|f| (f.id, f.interval))
            .collect()
    }

    /// Is any fragment of this partition materialized?
    pub fn any_materialized(&self) -> bool {
        self.fragments.iter().any(|f| f.is_materialized())
    }

    /// Intervals used as the base for Definition 7 candidate generation:
    /// the pool partition `P(V,A)` when materialized, otherwise the tracked
    /// candidate intervals `PSTAT(V,A)`.
    pub fn candidate_base(&self) -> Vec<Interval> {
        if self.any_materialized() {
            self.fragments
                .iter()
                .filter(|f| f.is_materialized())
                .map(|f| f.interval)
                .collect()
        } else {
            self.fragments.iter().map(|f| f.interval).collect()
        }
    }

    /// Find a tracked fragment with exactly this interval.
    pub fn find(&self, interval: &Interval) -> Option<&FragmentMeta> {
        self.fragments
            .iter()
            .find(|f| f.interval == *interval)
            .map(|f| &**f)
    }

    /// Mutable lookup by interval (copies the fragment if it is shared).
    pub fn find_mut(&mut self, interval: &Interval) -> Option<&mut FragmentMeta> {
        self.fragments
            .iter_mut()
            .find(|f| f.interval == *interval)
            .map(Arc::make_mut)
    }

    /// Mutable lookup by fragment id (copies the fragment if it is shared).
    pub fn frag_mut(&mut self, id: FragmentId) -> Option<&mut FragmentMeta> {
        self.fragments
            .get_mut(id.0 as usize)
            .filter(|f| f.id == id)
            .map(Arc::make_mut)
    }

    /// Lookup by fragment id: ids are handed out in tracking order and
    /// fragments are never removed, so a fragment sits at its id.
    pub fn frag(&self, id: FragmentId) -> Option<&FragmentMeta> {
        self.fragments
            .get(id.0 as usize)
            .filter(|f| f.id == id)
            .map(|f| &**f)
    }

    /// Track a fragment interval. Returns the fragment's slot — the one found
    /// or the candidate just pushed — and whether it is new. Reading through
    /// the slot copies nothing; `Arc::make_mut` it to change the fragment.
    pub fn track(&mut self, interval: Interval, est_size: u64) -> (&mut Arc<FragmentMeta>, bool) {
        let (pos, is_new) = match self.fragments.iter().position(|f| f.interval == interval) {
            Some(pos) => (pos, false),
            None => {
                let id = FragmentId(self.next_frag);
                self.next_frag += 1;
                self.fragments
                    .push(Arc::new(FragmentMeta::candidate(id, interval, est_size)));
                (self.fragments.len() - 1, true)
            }
        };
        (&mut self.fragments[pos], is_new)
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
        let mats: Vec<&FragmentMeta> = self
            .fragments
            .iter()
            .filter(|f| f.is_materialized() && f.interval.overlaps(interval))
            .map(|f| &**f)
            .collect();
        if mats.is_empty() {
            let frac = interval.width() as f64 / self.domain.width() as f64;
            return (view_size as f64 * frac).round() as u64;
        }
        mats.iter()
            .map(|f| (f.interval.overlap_fraction(interval) * f.size as f64).round() as u64)
            .sum()
    }

    /// Total pool bytes held by materialized fragments.
    pub fn pool_bytes(&self) -> u64 {
        self.fragments
            .iter()
            .filter(|f| f.is_materialized())
            .map(|f| f.size)
            .sum()
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
    /// `(S, COST, T, B)` statistics. `stats.cost` is the *recreation* cost
    /// (recompute the view's query and partition it, §7.1) used in `Φ` and
    /// fragment benefits.
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
                .flat_map(|ps| ps.fragments.iter().filter_map(|f| f.file)),
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
/// `Clone` shares every view and both indexes with the original (see the
/// module doc); a clone is what a snapshot or the journal holds.
#[derive(Debug, Default, Clone)]
pub struct ViewRegistry {
    views: Vec<Arc<ViewMeta>>,
    // deepsea-lint: allow(hash_iter) -- by_key is a point-lookup index (get/insert
    // only, never iterated), so hash ordering cannot leak into any decision.
    by_key: Arc<HashMap<Arc<str>, ViewId>>,
    index: Arc<FilterTree>,
}

impl ViewRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
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
            if !ps.any_materialized() {
                continue;
            }
            for frag in &mut Arc::make_mut(ps).fragments {
                if frag.is_materialized() {
                    files.extend(Arc::make_mut(frag).file.take());
                }
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

    /// Mutable lookup by id (copies the view's own fields — statistics and
    /// partition *slots*, not the partitions — if it is shared).
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
    /// every field via `Debug`), used to assert that crash recovery is
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
            eat(format!("{view:?}").as_bytes());
            eat(&[0xff]);
        }
        h
    }
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
        let f1 = f1.id;
        let (f2, new2) = p.track(Interval::new(50, 99), 10);
        let f2 = f2.id;
        let (f1b, new1b) = p.track(Interval::new(0, 49), 99);
        assert_eq!(f1, f1b.id);
        assert_ne!(f1, f2);
        assert_eq!((new1, new2, new1b), (true, true, false));
        assert_eq!(p.fragments.len(), 2);
        assert_eq!(p.find(&Interval::new(0, 49)).unwrap().size, 10);
        // A fragment sits at its id, which is what makes `frag` O(1).
        assert_eq!(p.frag(f2).unwrap().interval, Interval::new(50, 99));
        assert!(p.frag(FragmentId(2)).is_none());
    }

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
        let digest = frozen.state_digest();
        let hit = r
            .view_mut(id)
            .partition_mut("a.k")
            .and_then(|ps| ps.frag_mut(FragmentId(1)))
            .unwrap();
        hit.stats.record_hit(3);

        assert_eq!(frozen.state_digest(), digest, "the clone is frozen");
        assert_ne!(r.state_digest(), digest);
        let (old, new) = (frozen.view(id), r.view(id));
        assert!(!std::ptr::eq(old, new), "the touched view was copied");
        assert!(std::ptr::eq(frozen.view(other), r.view(other)));
        assert!(Arc::ptr_eq(&old.plan, &new.plan) && Arc::ptr_eq(&old.key, &new.key));
        assert!(Arc::ptr_eq(&old.partitions["a.v"], &new.partitions["a.v"]));
        let (old_ps, new_ps) = (&old.partitions["a.k"], &new.partitions["a.k"]);
        assert!(!Arc::ptr_eq(old_ps, new_ps));
        assert!(Arc::ptr_eq(&old_ps.fragments[0], &new_ps.fragments[0]));
        assert!(!Arc::ptr_eq(&old_ps.fragments[1], &new_ps.fragments[1]));
        assert_eq!(old_ps.fragments[1].stats.raw_hits(), 0);
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
        {
            let m = Arc::make_mut(p.track(Interval::new(0, 49), 0).0);
            m.file = Some(FileId(1));
            m.size = 800; // skewed: the left half holds most data
        }
        {
            let m = Arc::make_mut(p.track(Interval::new(50, 99), 0).0);
            m.file = Some(FileId(2));
            m.size = 200;
        }
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
            let f = Arc::make_mut(ps.track(Interval::new(0, 49), 0).0);
            f.file = Some(FileId(8));
            f.size = 300;
            f.id
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
        r.view_mut(id).stats.record_use(3, 25.0);
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
        assert_eq!(rv.stats.events.len(), 1, "benefit history survives");
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
