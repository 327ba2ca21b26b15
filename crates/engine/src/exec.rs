//! Physical execution of logical plans.
//!
//! The executor really runs the query over in-memory tables (so rewritings
//! can be validated for correctness) while accounting all *simulated* I/O —
//! bytes read/written, map tasks, shuffle volume — which the cluster
//! simulator turns into elapsed seconds.
//!
//! Execution is columnar and batch-at-a-time: an operator's output is a
//! batch of shared typed columns plus `u32` index vectors saying which of
//! their rows it holds ([`deepsea_relation::Col`]). A selection yields a
//! selection vector, a join `(left, right)` index pairs, and both compose
//! them with their inputs' indices; an aggregate reads only its key and
//! argument columns through those indices. The result [`Table`] keeps the
//! indices too, one vector per input table a join or selection read, so no
//! operator copies a value it does not compute. A batch holds those `Col`s
//! as they are — the engine has no column type of its own — and asks them
//! what it needs: whether a join key is a surrogate key
//! ([`Col::surrogate_first`]) and which rows pass a condition
//! ([`Col::keep_ints`] and its float and string twins). What the simulator charges — bytes, tasks, stages, rows
//! — and the order of output rows do not depend on any of this
//! (DESIGN.md, "Execution model").

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use deepsea_relation::column::dense_span;
use deepsea_relation::{
    Col, Column, ColumnData, DataType, Field, Predicate, Rows, Schema, Table, Value,
};
use deepsea_storage::{FileId, IoError, SimFs};

use crate::catalog::Catalog;
use crate::plan::{AggFunc, LogicalPlan, ViewScanInfo};

/// Simulated resource usage of one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecMetrics {
    /// Simulated bytes read from base tables and view fragments.
    pub bytes_read: u64,
    /// Simulated bytes written (filled in by instrumentation, not the
    /// read-only executor).
    pub bytes_written: u64,
    /// Rows flowing through operators (CPU proxy).
    pub rows_processed: u64,
    /// Simulated bytes shuffled between map and reduce stages.
    pub shuffle_bytes: u64,
    /// Map tasks launched (one per block of every scanned file).
    pub map_tasks: u64,
    /// Number of MapReduce stages (scan stages + shuffle stages).
    pub stages: u64,
    /// Transient-failure retries absorbed while producing this result.
    pub retries: u64,
    /// Extra simulated seconds from injected latency spikes and retry
    /// backoff — charged on top of the cluster model's elapsed time.
    pub penalty_secs: f64,
}

impl ExecMetrics {
    /// Merge metrics from a sub-execution.
    pub fn absorb(&mut self, other: &ExecMetrics) {
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.rows_processed += other.rows_processed;
        self.shuffle_bytes += other.shuffle_bytes;
        self.map_tasks += other.map_tasks;
        self.stages += other.stages;
        self.retries += other.retries;
        self.penalty_secs += other.penalty_secs;
    }
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// Plan references a table missing from the catalog.
    UnknownTable(String),
    /// Plan references a column missing from its input schema.
    UnknownColumn(String),
    /// A view fragment file has been evicted.
    MissingFile(FileId),
    /// A retryable I/O fault (flaky read/write); re-running the plan may
    /// succeed.
    TransientIo(IoError),
    /// A fragment file is permanently gone (lost or evicted); retries cannot
    /// help and the caller must fall back to base tables.
    PermanentIo(IoError),
    /// A fragment file failed checksum verification. The data was never
    /// served; the caller must quarantine the owning view and fall back to
    /// base tables.
    CorruptIo(IoError),
}

impl ExecError {
    /// Whether re-running the failed operation could succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, ExecError::TransientIo(_))
    }

    /// The fragment file involved, when the failure names one.
    pub fn file(&self) -> Option<FileId> {
        match self {
            ExecError::MissingFile(id) => Some(*id),
            ExecError::TransientIo(e) | ExecError::PermanentIo(e) | ExecError::CorruptIo(e) => {
                e.file()
            }
            _ => None,
        }
    }
}

impl From<IoError> for ExecError {
    fn from(e: IoError) -> Self {
        match e {
            IoError::Corrupt(_) => ExecError::CorruptIo(e),
            _ if e.is_transient() => ExecError::TransientIo(e),
            _ => ExecError::PermanentIo(e),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            ExecError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            ExecError::MissingFile(id) => write!(f, "missing fragment file {id}"),
            ExecError::TransientIo(e) => write!(f, "transient I/O failure: {e}"),
            ExecError::PermanentIo(e) => write!(f, "permanent I/O failure: {e}"),
            ExecError::CorruptIo(e) => write!(f, "corrupt fragment: {e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::TransientIo(e) | ExecError::PermanentIo(e) | ExecError::CorruptIo(e) => {
                Some(e)
            }
            _ => None,
        }
    }
}

/// Intermediate result: a schema, one [`Col`] per field, and the simulated
/// width of one row. Operators pass columns on by reference count and
/// describe their output with index vectors.
struct Batch {
    schema: Schema,
    cols: Vec<Col>,
    len: usize,
    bytes_per_row: u64,
}

impl Batch {
    fn new(schema: Schema, cols: Vec<Col>, len: usize, bytes_per_row: u64) -> Self {
        assert!(
            u32::try_from(len).is_ok(),
            "batch rows are addressed by u32 indices"
        );
        Self {
            schema,
            cols,
            len,
            bytes_per_row,
        }
    }

    /// All of `table`'s rows, sharing its columns, indices and range orders.
    fn from_table(table: &Table, schema: Schema, bytes_per_row: u64) -> Self {
        Self::new(schema, table.columns().to_vec(), table.len(), bytes_per_row)
    }

    fn sim_bytes(&self) -> u64 {
        self.len as u64 * self.bytes_per_row
    }

    /// The columns restricted to batch rows `sel`, in that order. Columns
    /// that share an index vector share the composed one.
    fn take(&self, sel: &Rows) -> Vec<Col> {
        Col::take_all(&self.cols, sel).collect()
    }

    /// The result table: the columns as they are, indices included.
    fn into_table(self) -> Table {
        Table::new(self.schema, self.cols, self.bytes_per_row)
    }
}

/// Average actual (in-memory serialized) row width, sampled over the first
/// 128 rows. A number column without NULLs is 8 bytes a row
/// ([`Column::width_at`]) and reads no value.
fn avg_actual_width(cols: &[Col], len: usize) -> f64 {
    if len == 0 {
        return 8.0;
    }
    let n = len.min(128);
    let total: u64 = cols
        .iter()
        .map(|c| match (c.dtype(), c.data().has_nulls()) {
            (DataType::Int | DataType::Float, false) => 8 * n as u64,
            _ => (0..n).map(|r| c.data().width_at(c.phys(r))).sum(),
        })
        .sum();
    (total as f64 / n as f64).max(1.0)
}

/// Simulated width of rows derived from `child`: the same fraction of its
/// simulated width as the derived rows keep of its actual width.
fn scaled_width(child: &Batch, out: &[Col], out_len: usize) -> u64 {
    let in_width = avg_actual_width(&child.cols, child.len);
    let out_width = avg_actual_width(out, out_len);
    ((child.bytes_per_row as f64) * (out_width / in_width))
        .round()
        .max(1.0) as u64
}

/// Execute `plan` against `catalog`, reading view fragments from `fs`.
/// Returns the result table and the simulated resource usage.
pub fn execute(
    plan: &LogicalPlan,
    catalog: &Catalog,
    fs: &SimFs<Table>,
) -> Result<(Table, ExecMetrics), ExecError> {
    let mut m = ExecMetrics::default();
    let out = run(plan, catalog, fs, &mut m)?;
    Ok((out.into_table(), m))
}

/// Issue the fragment reads [`execute`] issues for `plan`, in its order —
/// depth first, a join's left input before its right, a scan's files as
/// listed — adding each read's spike seconds to `penalty_secs` as it does.
/// The first failure ends it, as it ends `execute`. Nothing is computed:
/// this is what a remembered execution still owes the file system.
pub(crate) fn replay_reads(
    plan: &LogicalPlan,
    fs: &SimFs<Table>,
    penalty_secs: &mut f64,
) -> Result<(), ExecError> {
    match plan {
        LogicalPlan::Scan { .. } => Ok(()),
        LogicalPlan::ViewScan(v) => v.files.iter().try_for_each(|&fid| {
            *penalty_secs += fs.try_read(fid).map_err(ExecError::from)?.spike_secs;
            Ok(())
        }),
        LogicalPlan::Select { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. } => replay_reads(input, fs, penalty_secs),
        LogicalPlan::Join { left, right, .. } => {
            replay_reads(left, fs, penalty_secs)?;
            replay_reads(right, fs, penalty_secs)
        }
    }
}

/// The rows of `σ_pred(plan)`, as [`execute`] would return them after a
/// selection on top, and the number of rows of `plan` itself. A join whose
/// selection can run at a leaf (below every join) pairs only the rows it
/// keeps and takes the count from the full join it did not build; any
/// other plan is built whole and filtered. Nothing is charged: the rows
/// are a by-product of a query that was.
pub fn execute_slice(
    plan: &LogicalPlan,
    pred: &Predicate,
    catalog: &Catalog,
    fs: &SimFs<Table>,
) -> Result<(Table, u64), ExecError> {
    let mut m = ExecMetrics::default();
    let whole = match plan {
        LogicalPlan::Join { left, right, on } => {
            let mut join = plant(left, right, on, catalog, fs, &mut m)?;
            if let Some(formed) = join.push(pred) {
                return Ok((join.pair(None, &mut m).into_table(), formed));
            }
            join.pair(None, &mut m)
        }
        _ => run(plan, catalog, fs, &mut m)?,
    };
    let len = whole.len as u64;
    Ok((select(whole, pred, &mut m).into_table(), len))
}

fn run(
    plan: &LogicalPlan,
    catalog: &Catalog,
    fs: &SimFs<Table>,
    m: &mut ExecMetrics,
) -> Result<Batch, ExecError> {
    match plan {
        LogicalPlan::Scan { table } => {
            let t = catalog
                .get(table)
                .ok_or_else(|| ExecError::UnknownTable(table.clone()))?;
            m.bytes_read += t.sim_bytes();
            m.map_tasks += fs.block_config().blocks_for(t.sim_bytes());
            m.stages += 1;
            m.rows_processed += t.len() as u64;
            Ok(Batch::from_table(t, t.schema.clone(), t.bytes_per_row))
        }
        LogicalPlan::ViewScan(v) => {
            let (parts, bpr) = read_fragments(v, fs, m)?;
            // One whole fragment is shared as it is; several are concatenated.
            Ok(match parts.as_slice() {
                [(one, None)] => Batch::from_table(one, v.schema.clone(), bpr),
                many => {
                    let parts: Vec<(&Table, Option<&[u32]>)> = many
                        .iter()
                        .map(|(t, rows)| (&**t, rows.as_deref()))
                        .collect();
                    let t = Table::concat(v.schema.clone(), &parts, bpr);
                    Batch::from_table(&t, v.schema.clone(), bpr)
                }
            })
        }
        LogicalPlan::Select { pred, input } => match &**input {
            LogicalPlan::Join { left, right, on } => {
                Ok(plant(left, right, on, catalog, fs, m)?.pair(Some(pred), m))
            }
            LogicalPlan::ViewScan(v) => {
                let (parts, bpr) = read_fragments(v, fs, m)?;
                Ok(match parts.as_slice() {
                    [(one, None)] => select(Batch::from_table(one, v.schema.clone(), bpr), pred, m),
                    many => select_fragments(v, many, bpr, pred, m),
                })
            }
            _ => {
                let child = run(input, catalog, fs, m)?;
                Ok(select(child, pred, m))
            }
        },
        LogicalPlan::Project { cols, input } => {
            let child = run(input, catalog, fs, m)?;
            m.rows_processed += child.len as u64;
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            let (schema, idxs) = child.schema.project(&names).ok_or_else(|| {
                let unknown = names.iter().find(|n| child.schema.index_of(n).is_none());
                ExecError::UnknownColumn(unknown.copied().unwrap_or_default().to_string())
            })?;
            let out: Vec<Col> = idxs.iter().map(|&i| child.cols[i].clone()).collect();
            let bpr = scaled_width(&child, &out, child.len);
            Ok(Batch::new(schema, out, child.len, bpr))
        }
        LogicalPlan::Join { left, right, on } => {
            Ok(plant(left, right, on, catalog, fs, m)?.pair(None, m))
        }
        LogicalPlan::Aggregate {
            group_by,
            aggs,
            input,
        } => {
            let child = run(input, catalog, fs, m)?;
            m.shuffle_bytes += child.sim_bytes();
            m.stages += 1;
            m.rows_processed += child.len as u64;

            let gidx: Vec<usize> = group_by
                .iter()
                .map(|g| {
                    child
                        .schema
                        .index_of(g)
                        .ok_or_else(|| ExecError::UnknownColumn(g.clone()))
                })
                .collect::<Result<_, _>>()?;
            let aidx: Vec<Option<usize>> = aggs
                .iter()
                .map(|a| match &a.col {
                    Some(c) => child
                        .schema
                        .index_of(c)
                        .map(Some)
                        .ok_or_else(|| ExecError::UnknownColumn(c.clone())),
                    None => Ok(None),
                })
                .collect::<Result<_, _>>()?;

            let keys: Vec<&Col> = gidx.iter().map(|&i| &child.cols[i]).collect();
            let groups = group_rows(&keys, child.len);
            // Deterministic output order for reproducibility: groups sorted
            // by key (NULL first), as `Value` orders them. Keys are distinct,
            // so the order is total.
            let mut order: Vec<u32> = (0..groups.first_row.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                let (ra, rb) = (
                    groups.first_row[a as usize] as usize,
                    groups.first_row[b as usize] as usize,
                );
                keys.iter()
                    .map(|k| k.data().cmp_at(k.phys(ra), k.phys(rb)))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            });

            let mut fields: Vec<Field> = Vec::with_capacity(gidx.len() + aggs.len());
            let mut out: Vec<Col> = Vec::with_capacity(gidx.len() + aggs.len());
            // The key columns read their groups' first rows, through one
            // index per index they read through.
            let firsts: Rows = Arc::new(
                order
                    .iter()
                    .map(|&g| groups.first_row[g as usize])
                    .collect(),
            );
            for (&i, key) in gidx
                .iter()
                .zip(Col::take_all(keys.iter().copied(), &firsts))
            {
                fields.push(child.schema.field(i).clone());
                out.push(key);
            }
            for (a, idx) in aggs.iter().zip(&aidx) {
                let arg = idx.map(|i| &child.cols[i]);
                let dtype = match a.func {
                    AggFunc::Count => DataType::Int,
                    AggFunc::Sum | AggFunc::Avg => DataType::Float,
                    AggFunc::Min | AggFunc::Max => idx
                        .map(|i| child.schema.field(i).dtype)
                        .unwrap_or(DataType::Int),
                };
                fields.push(Field::new(a.alias.clone(), dtype));
                let values = aggregate(a.func, arg, dtype, &groups, &order);
                out.push(Col::from(values));
            }
            m.rows_processed += order.len() as u64;
            // Aggregates produce compact rows; keep the input's scale factor.
            let bpr = scaled_width(&child, &out, order.len());
            Ok(Batch::new(Schema::new(fields), out, order.len(), bpr))
        }
    }
}

/// A fragment file a view scan read: its table and, when the scan clips it
/// on the partition attribute, the rows that go on.
type Fragment = (Arc<Table>, Option<Vec<u32>>);

/// Read the fragment files of a view scan in order, charging each whole
/// file: the fragments, and the widest row among them.
fn read_fragments(
    v: &ViewScanInfo,
    fs: &SimFs<Table>,
    m: &mut ExecMetrics,
) -> Result<(Vec<Fragment>, u64), ExecError> {
    // Overlapping fragments are clipped on the partition attribute.
    let clip_col = match &v.clip {
        Some(c) => Some(
            v.schema
                .index_of(&c.attr)
                .ok_or_else(|| ExecError::UnknownColumn(c.attr.clone()))?,
        ),
        None => None,
    };
    let mut parts: Vec<Fragment> = Vec::with_capacity(v.files.len());
    let mut bpr = 8u64;
    for (k, &fid) in v.files.iter().enumerate() {
        let out = fs.try_read(fid).map_err(ExecError::from)?;
        m.penalty_secs += out.spike_secs;
        let (payload, bytes) = (out.value, out.sim_bytes);
        // The whole file is read and charged; the clip only decides
        // which of its rows go on.
        m.bytes_read += bytes;
        m.map_tasks += fs.block_config().blocks_for(bytes);
        m.rows_processed += payload.len() as u64;
        bpr = bpr.max(payload.bytes_per_row);
        let from = v
            .clip
            .as_ref()
            .and_then(|c| c.from.get(k).copied().flatten());
        let rows = clip_col
            .zip(from)
            .map(|(col, lo)| payload.column(col).int_range_rows(lo, i64::MAX));
        parts.push((payload, rows));
    }
    m.stages += 1;
    Ok((parts, bpr))
}

/// [`select`] over the concatenation of a view scan's `parts`, computed
/// part by part: each fragment is filtered through its own columns, whose
/// range orders stay with the file across executions, and only the rows
/// kept are concatenated. Rows, their order and every charge are the
/// concatenation's.
fn select_fragments(
    v: &ViewScanInfo,
    parts: &[Fragment],
    bpr: u64,
    pred: &Predicate,
    m: &mut ExecMetrics,
) -> Batch {
    let kept: Vec<Option<Vec<u32>>> = (parts.iter())
        .map(|(t, clip)| {
            m.rows_processed += clip.as_ref().map_or(t.len(), Vec::len) as u64;
            let rows = filter(&Batch::from_table(t, v.schema.clone(), bpr), pred);
            match (rows, clip) {
                (None, clip) => clip.clone(),
                (Some(rows), None) => Some(rows),
                (Some(rows), Some(clip)) => Some(intersect(rows, clip)),
            }
        })
        .collect();
    let parts: Vec<(&Table, Option<&[u32]>)> = (parts.iter().zip(&kept))
        .map(|((t, _), rows)| (&**t, rows.as_deref()))
        .collect();
    let t = Table::concat(v.schema.clone(), &parts, bpr);
    Batch::from_table(&t, v.schema.clone(), bpr)
}

/// The rows of `a` that `b` holds too; both ascending.
fn intersect(a: Vec<u32>, b: &[u32]) -> Vec<u32> {
    let mut j = 0;
    (a.into_iter())
        .filter(|&r| {
            j += b[j..].partition_point(|&x| x < r);
            b.get(j) == Some(&r)
        })
        .collect()
}

/// The rows of `child` that satisfy `pred`; the selection is charged every
/// row it reads. One that keeps every row (its rows are ascending, so they
/// are then `0..len`) leaves the columns as they are, indices included.
fn select(child: Batch, pred: &Predicate, m: &mut ExecMetrics) -> Batch {
    m.rows_processed += child.len as u64;
    match filter(&child, pred) {
        Some(sel) if sel.len() < child.len => {
            let sel: Rows = Arc::new(sel);
            let cols = child.take(&sel);
            Batch::new(child.schema, cols, sel.len(), child.bytes_per_row)
        }
        _ => child,
    }
}

/// A join whose inputs have run and whose keys are resolved, its pairs not
/// yet built; so are the joins nested in its inputs, down to the leaves,
/// the inputs that are not joins. Planting a whole tree before pairing any
/// of it lets a selection above it reach any of its leaves.
struct JoinNode {
    left: Tree,
    right: Tree,
    /// The `on` pairs as column positions in the left and right inputs.
    keys: Vec<(usize, usize)>,
    /// The left input's fields, then the right's.
    schema: Schema,
    /// Set when a selection above runs at a leaf below ([`JoinNode::push`]):
    /// what the join charges in place of its inputs' lengths and the pairs
    /// it builds.
    full: Option<Full>,
}

/// One input of a [`JoinNode`].
enum Tree {
    Leaf(Batch),
    Join(Box<JoinNode>),
}

/// The input lengths of a join of the full tree and the pairs it forms.
#[derive(Clone, Copy)]
struct Full {
    left: usize,
    right: usize,
    formed: u64,
}

/// One join of the chain from a pushed selection's leaf up
/// ([`JoinNode::route`]).
struct Link<'a> {
    /// Whether the leaf lies in the join's left input.
    left: bool,
    /// The leaf's key column less the other input's surrogate first.
    keys: Partners<'a>,
    /// The other input's length.
    len: usize,
}

/// Run the leaves of the join tree `left ⋈ right` in plan order, and
/// resolve every join's `on` pairs against its two inputs' schemas (in
/// either order), building no pair.
fn plant(
    left: &LogicalPlan,
    right: &LogicalPlan,
    on: &[(String, String)],
    catalog: &Catalog,
    fs: &SimFs<Table>,
    m: &mut ExecMetrics,
) -> Result<JoinNode, ExecError> {
    let mut input = |plan: &LogicalPlan| match plan {
        LogicalPlan::Join { left, right, on } => {
            plant(left, right, on, catalog, fs, m).map(|j| Tree::Join(Box::new(j)))
        }
        _ => run(plan, catalog, fs, m).map(Tree::Leaf),
    };
    let (left, right) = (input(left)?, input(right)?);
    let (ls, rs) = (left.schema(), right.schema());
    let keys = on
        .iter()
        .map(|(a, b)| match (ls.index_of(a), rs.index_of(b)) {
            (Some(ai), Some(bi)) => Ok((ai, bi)),
            _ => match (ls.index_of(b), rs.index_of(a)) {
                (Some(bi), Some(ai)) => Ok((bi, ai)),
                _ => Err(ExecError::UnknownColumn(format!("{a} = {b}"))),
            },
        })
        .collect::<Result<_, _>>()?;
    let schema = ls.concat(rs);
    Ok(JoinNode {
        left,
        right,
        keys,
        schema,
        full: None,
    })
}

impl Tree {
    fn schema(&self) -> &Schema {
        match self {
            Tree::Leaf(b) => &b.schema,
            Tree::Join(j) => &j.schema,
        }
    }

    fn into_batch(self, m: &mut ExecMetrics) -> Batch {
        match self {
            Tree::Leaf(b) => b,
            Tree::Join(j) => j.pair(None, m),
        }
    }
}

impl JoinNode {
    /// Inner equi-join of the two inputs and, given `pred`, the selection
    /// right above it — the one routine behind both plan shapes.
    ///
    /// A selection runs at a leaf of the tree, before any pair is built,
    /// when [`JoinNode::push`] finds one; otherwise the join is built whole
    /// and filtered after. Either way the output rows, their order and
    /// width, and every charge are those of the joins followed by the
    /// selection: each join is charged its full inputs and every pair it
    /// forms, and the selection every pair of the top join.
    fn pair(mut self, pred: Option<&Predicate>, m: &mut ExecMetrics) -> Batch {
        let pushed = pred.is_some_and(|p| self.push(p).is_some());
        let (l, r) = (self.left.into_batch(m), self.right.into_batch(m));
        let (full_l, full_r) = self.full.map_or((l.len, r.len), |f| (f.left, f.right));
        // A repartition join shuffles both inputs.
        m.shuffle_bytes += full_l as u64 * l.bytes_per_row + full_r as u64 * r.bytes_per_row;
        m.stages += 1;
        m.rows_processed += (full_l + full_r) as u64;

        let lk: Vec<&Col> = self.keys.iter().map(|&(a, _)| &l.cols[a]).collect();
        let rk: Vec<&Col> = self.keys.iter().map(|&(_, b)| &r.cols[b]).collect();
        // Build on the smaller input, as the full lengths have it; the
        // output follows the probe side scan, matches of one probe row in
        // build order.
        let build_is_left = full_l <= full_r;
        let (build_rows, probe_rows) = if build_is_left {
            join_pairs(&lk, l.len, &rk, r.len)
        } else {
            join_pairs(&rk, r.len, &lk, l.len)
        };
        let len = build_rows.len();
        let formed = self.full.map_or(len as u64, |f| f.formed);
        let (lrows, rrows) = if build_is_left {
            (build_rows, probe_rows)
        } else {
            (probe_rows, build_rows)
        };
        let mut cols = l.take(&Arc::new(lrows));
        cols.extend(r.take(&Arc::new(rrows)));
        m.rows_processed += formed;
        let joined = Batch::new(self.schema, cols, len, l.bytes_per_row + r.bytes_per_row);
        match pred {
            None => joined,
            Some(_) if pushed => {
                // The selection, done before pairing, is charged as if after.
                m.rows_processed += formed;
                joined
            }
            Some(p) => select(joined, p, m),
        }
    }

    /// Run `pred` at a leaf of the tree, when [`JoinNode::route`] finds
    /// one: the leaf becomes its kept rows, and every join on the way up is
    /// marked with what the full tree charges there. A row of the leaf
    /// meets at most one row per join, so the full lengths are counts over
    /// the leaf's key columns ([`chain_counts`]), and each join, pairing
    /// only rows that descend from kept ones, builds the full tree's pairs
    /// filtered, in the same order. Returns, when it ran, the pairs this
    /// join of the full tree forms.
    fn push(&mut self, pred: &Predicate) -> Option<u64> {
        let conds = conditions(pred, &self.schema)?;
        let cols: Vec<usize> = conds.iter().map(|&(_, i)| i).collect();
        let (leaf, at, links) = self.route(&cols)?;
        // A selection that keeps every row leaves the leaf as it is.
        let rows: Rows = Arc::new(rows_where(leaf, &conds, at));
        let kept = (rows.len() < leaf.len).then(|| {
            let cols = leaf.take(&rows);
            Batch::new(leaf.schema.clone(), cols, rows.len(), leaf.bytes_per_row)
        });
        let counts = chain_counts(links.iter().map(|l| (l.keys, l.len)), leaf.len);
        // Innermost first: each join's input on the leaf's side is the full
        // output of the join below it, or the whole leaf.
        let mut inner = leaf.len;
        let fulls: Vec<Full> = (links.iter().zip(counts))
            .map(|(link, formed)| {
                let (left, right) = match link.left {
                    true => (inner, link.len),
                    false => (link.len, inner),
                };
                inner = formed as usize;
                Full {
                    left,
                    right,
                    formed,
                }
            })
            .collect();
        let top = fulls.last().map(|f| f.formed);
        let sides: Vec<bool> = links.iter().map(|l| l.left).collect();
        let mut node = self;
        for (left, full) in sides.into_iter().zip(fulls).rev() {
            node.full = Some(full);
            let inner = if left {
                &mut node.left
            } else {
                &mut node.right
            };
            match inner {
                Tree::Join(j) => node = &mut **j,
                Tree::Leaf(_) => {
                    if let Some(kept) = kept {
                        *inner = Tree::Leaf(kept);
                    }
                    break;
                }
            }
        }
        top
    }

    /// Where a selection reading the columns `cols` of this join's output
    /// can run before any pair is built: the leaf holding all of them, the
    /// position of its first column in the output, and the chain of joins
    /// from it up to this one, innermost first. `None` unless every join on
    /// the chain meets a surrogate key — a column of a leaf input read in
    /// place ([`Col::surrogate_first`]) — through one integer column of that
    /// leaf, so that each leaf row meets at most one row per join. Any other
    /// shape (the conditions on two leaves, a key read from a join's output,
    /// a hashed join on the way) is filtered after the join
    /// ([`JoinNode::pair`]).
    fn route(&self, cols: &[usize]) -> Option<(&Batch, usize, Vec<Link<'_>>)> {
        let split = self.left.schema().len();
        let left = cols.iter().all(|&c| c < split);
        if !left && cols.iter().any(|&c| c < split) {
            return None;
        }
        let (inner, outer, from) = match left {
            true => (&self.left, &self.right, 0),
            false => (&self.right, &self.left, split),
        };
        let (leaf, at, mut links) = match inner {
            Tree::Leaf(b) => (b, 0, Vec::new()),
            Tree::Join(j) => j.route(&cols.iter().map(|&c| c - from).collect::<Vec<_>>())?,
        };
        let (Tree::Leaf(other), [(lk, rk)]) = (outer, self.keys.as_slice()) else {
            return None;
        };
        let (key, okey) = if left { (*lk, *rk) } else { (*rk, *lk) };
        let key = key.checked_sub(at).filter(|&k| k < leaf.cols.len())?;
        links.push(Link {
            left,
            keys: Partners::of(&leaf.cols[key], other.cols[okey].surrogate_first()?)?,
            len: other.len,
        });
        Some((leaf, from + at, links))
    }
}

/// "No row": the end of a join chain, a group that saw no value.
const NONE: u32 = u32::MAX;

/// The conditions of `pred` and the position of each one's column in
/// `schema`: `None` for a column it does not hold, or holds under an
/// ambiguous bare name.
fn resolve<'p>(pred: &'p Predicate, schema: &Schema) -> Vec<(&'p Predicate, Option<usize>)> {
    pred.conjuncts()
        .into_iter()
        .filter_map(|c| match c {
            Predicate::Range { col, .. } | Predicate::Eq { col, .. } => {
                Some((c, schema.index_of(col)))
            }
            // `conjuncts` flattens `And` and drops `True`: nothing to narrow by.
            Predicate::True | Predicate::And(_) => None,
        })
        .collect()
}

/// Rows of `batch` that satisfy `pred`, ascending; `None` when the predicate
/// holds no condition, so every row passes. Each conjunct resolves its
/// column once and narrows the selection of the one before. Unknown columns,
/// NULLs and values that cannot equal the condition's make a conjunct false
/// (SQL three-valued logic collapsed to false at the top level), exactly as
/// [`Predicate::eval`] defines it row by row.
fn filter(batch: &Batch, pred: &Predicate) -> Option<Vec<u32>> {
    resolve(pred, &batch.schema)
        .into_iter()
        .fold(None, |sel, (conjunct, col)| {
            Some(match col {
                Some(i) => conjunct_rows(&batch.cols[i], conjunct, sel),
                None => Vec::new(),
            })
        })
}

/// The conditions of `pred` and each one's column in `schema`, when there
/// is at least one and every column is known there (unambiguously).
fn conditions<'p>(pred: &'p Predicate, schema: &Schema) -> Option<Vec<(&'p Predicate, usize)>> {
    let conds = resolve(pred, schema)
        .into_iter()
        .map(|(c, i)| Some((c, i?)))
        .collect::<Option<Vec<_>>>()?;
    (!conds.is_empty()).then_some(conds)
}

/// The rows of `batch` that satisfy every one of `conds`, ascending; each
/// condition's column is `from` past its position in `batch`.
fn rows_where(batch: &Batch, conds: &[(&Predicate, usize)], from: usize) -> Vec<u32> {
    conds
        .iter()
        .fold(None, |sel, &(c, i)| {
            Some(conjunct_rows(&batch.cols[i - from], c, sel))
        })
        .unwrap_or_default()
}

/// The rows of `sel` (of every row when `None`) that satisfy one condition
/// on column `c` ([`Col::keep_ints`], [`Col::keep_floats`],
/// [`Col::keep_codes`]).
fn conjunct_rows(c: &Col, conjunct: &Predicate, sel: Option<Vec<u32>>) -> Vec<u32> {
    match (conjunct, c.data().data()) {
        // All of a column's rows: its range order can serve them.
        (Predicate::Range { low, high, .. }, ColumnData::Int(_)) if sel.is_none() => {
            c.int_range_rows(*low, *high)
        }
        (Predicate::Range { low, high, .. }, ColumnData::Int(_)) => {
            c.keep_ints(sel, |x| (*low <= x) & (x <= *high))
        }
        (Predicate::Eq { value, .. }, data) => match (data, value) {
            (ColumnData::Int(_), Value::Int(x)) => c.keep_ints(sel, |y| y == *x),
            (ColumnData::Int(_), Value::Float(x)) => {
                c.keep_ints(sel, |y| (y as f64).total_cmp(x).is_eq())
            }
            (ColumnData::Float(_), Value::Int(x)) => {
                c.keep_floats(sel, |y| y.total_cmp(&(*x as f64)).is_eq())
            }
            (ColumnData::Float(_), Value::Float(x)) => {
                c.keep_floats(sel, |y| y.total_cmp(x).is_eq())
            }
            // A string is looked up once, then compared as a code.
            (ColumnData::Str { dict, .. }, Value::Str(x)) => match dict.code_of(x) {
                Some(code) => c.keep_codes(sel, |k| k == code),
                None => Vec::new(),
            },
            // A value of another kind than the column's (NULL included), or
            // a string the column never holds, matches nothing.
            _ => Vec::new(),
        },
        // A range over a non-integer column matches nothing.
        _ => Vec::new(),
    }
}

/// Multiplier of the multiplicative hashes below (2^64 / golden ratio).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// An open-addressing hash table that hands out dense ids — 0, 1, 2, … in
/// first-seen order — for keys the caller hashes and compares. It is probed,
/// never iterated, and its hash is fixed, so nothing about it can reach a
/// result or differ between two runs.
struct IdTable {
    /// `id + 1` of the key in each slot; 0 marks an empty slot.
    slots: Vec<u32>,
    /// Hash of each id's key (kept for growth and as a cheap first compare).
    hashes: Vec<u64>,
}

impl IdTable {
    /// A table with room for `keys` keys before it has to grow.
    fn with_capacity(keys: usize) -> Self {
        Self {
            slots: vec![0; (keys * 2).next_power_of_two().max(64)],
            hashes: Vec::with_capacity(keys),
        }
    }

    /// First slot to try for `hash`: its top bits, which a multiplicative
    /// hash mixes best.
    fn start(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Id of the key with this hash for which `eq(id)` holds.
    fn find(&self, hash: u64, eq: impl Fn(u32) -> bool) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut s = self.start(hash);
        loop {
            match self.slots[s] {
                0 => return None,
                e if self.hashes[(e - 1) as usize] == hash && eq(e - 1) => return Some(e - 1),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// Like [`IdTable::find`], giving an unseen key the next id.
    fn find_or_insert(&mut self, hash: u64, eq: impl Fn(u32) -> bool) -> u32 {
        if (self.hashes.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut s = self.start(hash);
        loop {
            match self.slots[s] {
                0 => {
                    self.hashes.push(hash);
                    self.slots[s] = self.hashes.len() as u32;
                    return self.slots[s] - 1;
                }
                e if self.hashes[(e - 1) as usize] == hash && eq(e - 1) => return e - 1,
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// Double the slots and put every id back by its stored hash.
    fn grow(&mut self) {
        self.slots = vec![0; self.slots.len() * 2];
        let mask = self.slots.len() - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut s = self.start(hash);
            while self.slots[s] != 0 {
                s = (s + 1) & mask;
            }
            self.slots[s] = id as u32 + 1;
        }
    }
}

/// Whether `build`'s and `probe`'s keys compare as integers
/// ([`Col::for_each_key`]): integers, and strings under one dictionary.
fn int_keyed(build: &Col, probe: &Col) -> bool {
    match (build.data().data(), probe.data().data()) {
        (ColumnData::Int(_), ColumnData::Int(_)) => true,
        (ColumnData::Str { dict, .. }, ColumnData::Str { dict: d, .. }) => Arc::ptr_eq(dict, d),
        _ => false,
    }
}

/// The keys of the first `n` rows of `col` read as integers, as codes of
/// the hashed index; a NULL row's is 0.
fn int_codes(col: &Col, n: usize) -> Vec<u64> {
    let mut codes = Vec::with_capacity(n);
    col.for_each_key(n, |_, k| codes.push(k.unwrap_or(0) as u64));
    codes
}

/// The group-by index of a single-column key whose values are dense: one
/// `u32` cell per value from the smallest to the largest, addressed by
/// `key − min`, holding the key's group. Against the hashed index
/// ([`IdTable`]) only the cost of finding a key's group differs — which
/// rows share one, and how groups are numbered, does not — so no result
/// and no simulated charge can tell which of the two ran.
struct DirectIndex<'a> {
    /// One cell per possible key, [`NONE`] until its key's group is known.
    cells: Vec<u32>,
    /// The smallest key.
    min: i64,
    /// The key column, read as integers ([`Col::for_each_key`]).
    key: &'a Col,
}

impl<'a> DirectIndex<'a> {
    /// Direct addressing where the density rule ([`dense_span`]) allows it.
    /// Integer keys, and string keys by their codes, qualify when
    /// `max − min < 4·n + 64` over the `n` rows: setting the cells up then
    /// costs a few `u32` writes per row at most. `None` sends everything
    /// else to the hashed index: multi-column keys, floats, sparse keys (a
    /// span that overflows `i64` included, and a dictionary much larger
    /// than the rows) and input without a non-NULL key. NULLs have no cell.
    ///
    /// Kept out of line: inlined into its one caller, it made
    /// `group_40k_str` (`cargo bench --bench micro`) 6–9 % slower.
    #[inline(never)]
    fn new(key: &[&'a Col], n: usize) -> Option<Self> {
        let [key] = key else {
            return None;
        };
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        key.for_each_key(n, |_, k| {
            if let Some(k) = k {
                (min, max) = (min.min(k), max.max(k));
            }
        });
        let span = dense_span(min, max, n)?;
        Some(Self {
            cells: vec![NONE; span + 1],
            min,
            key,
        })
    }
}

/// A single-column integer join key one side of which is a surrogate key
/// ([`Col::surrogate_first`]): the other side's keys less its first, which are
/// the rows of the surrogate side they meet. A row meets at most one.
enum Partner<'a> {
    /// The build side is the surrogate key; the probe rows' partners.
    InBuild(Partners<'a>),
    /// The probe side is; the build rows' partners.
    InProbe(Partners<'a>),
}

impl<'a> Partner<'a> {
    /// `None` unless the key is one integer column a side and one side is a
    /// surrogate key; when both are, the build side's serves.
    fn of(build: &[&'a Col], probe: &[&'a Col]) -> Option<Self> {
        let ([b], [p]) = (build, probe) else {
            return None;
        };
        match b.surrogate_first() {
            Some(first) => Some(Partner::InBuild(Partners::of(p, first)?)),
            None => Some(Partner::InProbe(Partners::of(b, p.surrogate_first()?)?)),
        }
    }
}

/// An integer key column less a surrogate key's `first`: the row of the
/// surrogate side each of its rows meets. The wrapped difference is below
/// the surrogate side's length exactly when the key names one of its rows,
/// `first + length − 1` not passing `i64::MAX`.
#[derive(Clone, Copy)]
struct Partners<'a> {
    col: &'a Col,
    first: i64,
}

impl<'a> Partners<'a> {
    /// `col`'s keys less `first`; `None` unless it holds integers.
    fn of(col: &'a Col, first: i64) -> Option<Self> {
        matches!(col.data().data(), ColumnData::Int(_)).then_some(Self { col, first })
    }

    /// `f(r, partner)` for every row `r` below `n` that meets a row of a
    /// surrogate side `len` rows long — a NULL meets none.
    fn each(&self, n: usize, len: usize, mut f: impl FnMut(usize, u32)) {
        self.col.for_each_int(n, |r, x| {
            let k = x.map_or(u64::MAX, |x| x.wrapping_sub(self.first) as u64);
            if k < len as u64 {
                f(r, k as u32);
            }
        });
    }
}

/// For a chain of surrogate-key joins that all read their keys from one
/// side's first `n` rows — per join, innermost first, the keys less the
/// surrogate side's first, and that side's length — how many rows meet a
/// row in every join up to each one. A row meets at most one row per join,
/// so that is the length of the chain's output at each join, and a single
/// join's count is every pair it forms.
///
/// Each key column answers from its write-once key bitmap
/// ([`Column::key_bits`]): rows in place are counted by ANDing the links'
/// bitmaps word by word and counting the bits, and rows read through an
/// index test their own bits.
fn chain_counts<'a>(chain: impl IntoIterator<Item = (Partners<'a>, usize)>, n: usize) -> Vec<u64> {
    let (cols, bits): (Vec<&Col>, Vec<_>) = (chain.into_iter())
        .map(|(keys, len)| (keys.col, keys.col.data().key_bits(keys.first, len)))
        .unzip();
    // Rows in place: a bitmap holds no bit past the column's last row.
    if cols
        .iter()
        .all(|c| c.idx().is_none() && c.data().len() == n)
    {
        let mut alive = vec![u64::MAX; n.div_ceil(64)];
        return (bits.iter())
            .map(|words| {
                (alive.iter_mut().zip(words.iter()))
                    .map(|(a, &w)| {
                        *a &= w;
                        u64::from(a.count_ones())
                    })
                    .sum()
            })
            .collect();
    }
    let mut counts = vec![0u64; cols.len()];
    for r in 0..n {
        for ((c, words), count) in cols.iter().zip(&bits).zip(&mut counts) {
            let p = c.phys(r);
            if words[p / 64] >> (p % 64) & 1 == 0 {
                break;
            }
            *count += 1;
        }
    }
    counts
}

/// The first `n` rows of a number column as the bits of their `f64`, the
/// key of floats and of integers met by floats (`total_cmp` equality is bit
/// equality); `None` for strings. NULL rows share one code; callers tell
/// them from values by [`null_rows`].
fn float_codes(col: &Col, n: usize) -> Option<Vec<u64>> {
    match col.data().data() {
        ColumnData::Int(_) => {
            let mut codes = Vec::with_capacity(n);
            col.for_each_int(n, |_, x| codes.push((x.unwrap_or(0) as f64).to_bits()));
            Some(codes)
        }
        ColumnData::Float(v) => Some((0..n).map(|r| v[col.phys(r)].to_bits()).collect()),
        ColumnData::Str { .. } => None,
    }
}

/// Which of the first `n` rows of `col` are NULL; `None` when none can be.
fn null_rows(col: &Col, n: usize) -> Option<Vec<bool>> {
    col.data()
        .has_nulls()
        .then(|| (0..n).map(|r| col.is_null(r)).collect())
}

/// Whether `mask` marks row `r`.
#[inline]
fn marked(mask: &Option<Vec<bool>>, r: usize) -> bool {
    mask.as_ref().is_some_and(|m| m[r])
}

/// Row keys over some columns of a batch: per key column one code per row.
struct Keys {
    codes: Vec<Vec<u64>>,
}

impl Keys {
    fn hash(&self, r: usize) -> u64 {
        self.codes.iter().fold(0u64, |h, c| {
            (h.rotate_left(5) ^ c[r]).wrapping_mul(HASH_MUL)
        })
    }

    fn eq(&self, r: usize, other: &Keys, o: usize) -> bool {
        self.codes
            .iter()
            .zip(&other.codes)
            .all(|(a, b)| a[r] == b[o])
    }
}

/// The `(build row, probe row)` pairs of a join, as two parallel vectors.
type Pairs = (Vec<u32>, Vec<u32>);

/// Append probe row `j` paired with every build row of the chain from `i`.
#[inline]
fn push_chain(pairs: &mut Pairs, mut i: u32, next: &[u32], j: usize) {
    while i != NONE {
        pairs.0.push(i);
        pairs.1.push(j as u32);
        i = next[i as usize];
    }
}

/// Inner equi-join of `build` and `probe` key columns: the matching pairs,
/// probe rows ascending and, for one probe row, build rows ascending. A
/// NULL in any key column joins nothing.
fn join_pairs(build: &[&Col], build_len: usize, probe: &[&Col], probe_len: usize) -> Pairs {
    match Partner::of(build, probe) {
        Some(Partner::InBuild(to)) => join_in_build(&to, build_len, probe_len),
        Some(Partner::InProbe(to)) => join_in_probe(&to, build_len, probe_len),
        None => join_hashed(build, build_len, probe, probe_len),
    }
}

/// [`join_pairs`] when the build side is a surrogate key: probe row `j`
/// meets build row `k_j − first` alone, when that is a row — one pass over
/// the probe rows, no cells, no chains.
fn join_in_build(to: &Partners<'_>, build_len: usize, probe_len: usize) -> Pairs {
    let mut pairs = (Vec::with_capacity(probe_len), Vec::with_capacity(probe_len));
    to.each(probe_len, build_len, |j, i| {
        pairs.0.push(i);
        pairs.1.push(j as u32);
    });
    pairs
}

/// [`join_pairs`] when the probe side is a surrogate key: build row `i`
/// meets probe row `k_i − first` alone, when that is a row. The build rows
/// are visited once, and each that meets a probe row is chained onto that
/// row's cell; the cells span only the probe rows reached and are emitted
/// in order, so the probe side is never walked whole.
fn join_in_probe(to: &Partners<'_>, build_len: usize, probe_len: usize) -> Pairs {
    // The partner of each build row (NONE for none), and the span of the
    // partners; a partner is below `probe_len`, so never NONE itself.
    let (mut lo, mut hi) = (NONE, 0);
    let mut partner = vec![NONE; build_len];
    to.each(build_len, probe_len, |i, j| {
        partner[i] = j;
        (lo, hi) = (lo.min(j), hi.max(j));
    });
    let mut pairs = (Vec::with_capacity(build_len), Vec::with_capacity(build_len));
    if lo > hi {
        return pairs;
    }
    // Last row first, each onto the front of its cell's chain: every chain
    // ends up in ascending order.
    let mut head = vec![NONE; (hi - lo) as usize + 1];
    let mut next = vec![NONE; build_len];
    for (i, &j) in partner.iter().enumerate().rev() {
        if j != NONE {
            let cell = (j - lo) as usize;
            next[i] = head[cell];
            head[cell] = i as u32;
        }
    }
    for (j, &first) in (lo as usize..).zip(&head) {
        push_chain(&mut pairs, first, &next, j);
    }
    pairs
}

/// [`join_pairs`] of any key through an [`IdTable`] over per-row codes.
fn join_hashed(build: &[&Col], build_len: usize, probe: &[&Col], probe_len: usize) -> Pairs {
    let mut bkeys = Keys { codes: Vec::new() };
    let mut pkeys = Keys { codes: Vec::new() };
    let mut bnull: Option<Vec<bool>> = None;
    let mut pnull: Option<Vec<bool>> = None;
    for (b, p) in build.iter().zip(probe) {
        let codes = match (int_keyed(b, p), b.data().data(), p.data().data()) {
            (true, ..) => Some((int_codes(b, build_len), int_codes(p, probe_len))),
            // Strings under two dictionaries: each entry of the probe side's
            // is looked up in the build side's once, NONE for one it lacks.
            (false, ColumnData::Str { codes, dict }, ColumnData::Str { codes: c, dict: d }) => {
                let map: Vec<u32> = (d.strs().iter())
                    .map(|s| dict.code_of(s).unwrap_or(NONE))
                    .collect();
                let bk = (0..build_len).map(|r| u64::from(codes[b.phys(r)]));
                let pk = (0..probe_len).map(|r| u64::from(map[c[p.phys(r)] as usize]));
                Some((bk.collect(), pk.collect()))
            }
            // An integer meeting a float keys as a float; a string equals no number.
            _ => float_codes(b, build_len).zip(float_codes(p, probe_len)),
        };
        let Some((bc, pc)) = codes else {
            return (Vec::new(), Vec::new());
        };
        bkeys.codes.push(bc);
        pkeys.codes.push(pc);
        for (mask, col, n) in [(&mut bnull, b, build_len), (&mut pnull, p, probe_len)] {
            if let Some(nulls) = null_rows(col, n) {
                match mask {
                    None => *mask = Some(nulls),
                    Some(m) => m.iter_mut().zip(nulls).for_each(|(m, n)| *m |= n),
                }
            }
        }
    }

    // Build, last row first, pushing each row onto the front of its key's
    // chain: every chain ends up in ascending row order. Per key id a row
    // holding the key (to compare against) and the first row of its chain.
    let mut table = IdTable::with_capacity(build_len);
    let mut key_row: Vec<u32> = Vec::new();
    let mut head: Vec<u32> = Vec::new();
    let mut next: Vec<u32> = vec![NONE; build_len];
    for i in (0..build_len).rev().filter(|&i| !marked(&bnull, i)) {
        let id = table.find_or_insert(bkeys.hash(i), |id| {
            bkeys.eq(i, &bkeys, key_row[id as usize] as usize)
        }) as usize;
        if id == key_row.len() {
            key_row.push(i as u32);
            head.push(NONE);
        }
        next[i] = head[id];
        head[id] = i as u32;
    }
    let mut pairs = (Vec::with_capacity(probe_len), Vec::with_capacity(probe_len));
    for j in (0..probe_len).filter(|&j| !marked(&pnull, j)) {
        let found = table.find(pkeys.hash(j), |id| {
            pkeys.eq(j, &bkeys, key_row[id as usize] as usize)
        });
        push_chain(
            &mut pairs,
            found.map_or(NONE, |id| head[id as usize]),
            &next,
            j,
        );
    }
    pairs
}

/// The grouping of a batch's rows by some key columns.
#[derive(Debug, PartialEq)]
struct Groups {
    /// Group of each row; groups are numbered in first-seen order.
    of_row: Vec<u32>,
    /// First row of each group.
    first_row: Vec<u32>,
}

/// Group the first `n` rows by `keys`; NULL is a key value like any other.
/// Without key columns there is exactly one group, rows or no rows: a global
/// aggregate over empty input still yields one row (and nothing reads that
/// group's `first_row`, there being no key to fetch).
fn group_rows(keys: &[&Col], n: usize) -> Groups {
    if keys.is_empty() {
        return Groups {
            of_row: vec![0; n],
            first_row: vec![0],
        };
    }
    match DirectIndex::new(keys, n) {
        Some(index) => group_direct(index, n),
        None => group_hashed(keys, n),
    }
}

/// [`group_rows`] by a single-column key through its [`DirectIndex`]: each
/// cell holds its key's group, and NULL, which has no cell, its own.
fn group_direct(index: DirectIndex<'_>, n: usize) -> Groups {
    let mut group = index.cells;
    let mut null_group = NONE;
    let mut first_row: Vec<u32> = Vec::new();
    let mut of_row = Vec::with_capacity(n);
    index.key.for_each_key(n, |r, k| {
        let g = match k {
            None => &mut null_group,
            Some(k) => &mut group[(k - index.min) as usize],
        };
        if *g == NONE {
            *g = first_row.len() as u32;
            first_row.push(r as u32);
        }
        of_row.push(*g);
    });
    Groups { of_row, first_row }
}

/// [`group_rows`] by any key through an [`IdTable`] over per-row codes.
fn group_hashed(keys: &[&Col], n: usize) -> Groups {
    let mut rk = Keys { codes: Vec::new() };
    for k in keys {
        let codes = int_keyed(k, k).then(|| int_codes(k, n));
        rk.codes.extend(codes.or_else(|| float_codes(k, n)));
        if let Some(nulls) = null_rows(k, n) {
            rk.codes.push(nulls.into_iter().map(u64::from).collect());
        }
    }
    let mut table = IdTable::with_capacity(n);
    let mut first_row: Vec<u32> = Vec::new();
    let of_row = (0..n)
        .map(|r| {
            let g = table.find_or_insert(rk.hash(r), |g| {
                rk.eq(r, &rk, first_row[g as usize] as usize)
            });
            if g as usize == first_row.len() {
                first_row.push(r as u32);
            }
            g
        })
        .collect();
    Groups { of_row, first_row }
}

/// One aggregate over the grouped rows of a batch: a column with one value
/// per group, in `order`. Every group folds its rows in row order, so float
/// sums come out bit-identical to a row-at-a-time fold.
fn aggregate(
    func: AggFunc,
    arg: Option<&Col>,
    dtype: DataType,
    groups: &Groups,
    order: &[u32],
) -> Column {
    let n_groups = groups.first_row.len();
    let ordered = |value: &dyn Fn(usize) -> Value| {
        let mut out = Column::with_capacity(dtype, order.len());
        order.iter().for_each(|&g| out.push(value(g as usize)));
        out
    };
    match func {
        // COUNT counts rows, whatever its argument holds.
        AggFunc::Count => {
            let mut counts = vec![0i64; n_groups];
            groups.of_row.iter().for_each(|&g| counts[g as usize] += 1);
            Column::from_ints(order.iter().map(|&g| counts[g as usize]).collect())
        }
        AggFunc::Sum | AggFunc::Avg => {
            let mut sums = vec![0.0f64; n_groups];
            let mut seen = vec![0i64; n_groups];
            if let Some(col) = arg {
                col.for_each_float(groups.of_row.len(), |r, x| {
                    let g = groups.of_row[r] as usize;
                    sums[g] += x;
                    seen[g] += 1;
                });
            }
            ordered(&|g| match (seen[g], func) {
                (0, _) => Value::Null,
                (k, AggFunc::Avg) => Value::Float(sums[g] / k as f64),
                _ => Value::Float(sums[g]),
            })
        }
        AggFunc::Min | AggFunc::Max => {
            let Some(col) = arg else {
                return ordered(&|_| Value::Null);
            };
            // Position in the argument column of each group's extreme; the
            // first one seen wins among equals.
            let mut best = vec![NONE; n_groups];
            let wanted = if func == AggFunc::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            let of_row = &groups.of_row;
            match col.data().data() {
                // Integers compare as values, the column's word settled once.
                ColumnData::Int(_) => {
                    let mut extreme = vec![0i64; n_groups];
                    col.for_each_int(of_row.len(), |r, x| {
                        let g = of_row[r] as usize;
                        match x {
                            Some(x) if best[g] == NONE || x.cmp(&extreme[g]) == wanted => {
                                (best[g], extreme[g]) = (col.phys(r) as u32, x)
                            }
                            _ => {}
                        }
                    });
                }
                _ => {
                    for (r, &g) in of_row.iter().enumerate() {
                        let p = col.phys(r);
                        let b = &mut best[g as usize];
                        if !col.data().is_null(p)
                            && (*b == NONE || col.data().cmp_at(p, *b as usize) == wanted)
                        {
                            *b = p as u32;
                        }
                    }
                }
            }
            let best: Vec<u32> = order.iter().map(|&g| best[g as usize]).collect();
            col.data().gather_or_null(&best)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggExpr;
    use deepsea_storage::{BlockConfig, CostWeights};
    use rand::rngs::StdRng;
    use rand::RngExt;

    fn fixture() -> (Catalog, SimFs<Table>) {
        let mut c = Catalog::new();
        let sales = Table::from_rows(
            Schema::new(vec![
                Field::new("s.item", DataType::Int),
                Field::new("s.amount", DataType::Float),
            ]),
            vec![
                vec![Value::Int(1), Value::Float(10.0)],
                vec![Value::Int(1), Value::Float(20.0)],
                vec![Value::Int(2), Value::Float(5.0)],
                vec![Value::Int(3), Value::Float(7.0)],
                vec![Value::Null, Value::Float(99.0)],
            ],
            1000,
        );
        let item = Table::from_rows(
            Schema::new(vec![
                Field::new("i.item", DataType::Int),
                Field::new("i.cat", DataType::Str),
            ]),
            vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(2), Value::str("b")],
                vec![Value::Int(4), Value::str("c")],
            ],
            100,
        );
        c.register("sales", sales);
        c.register("item", item);
        let fs = SimFs::new(BlockConfig::new(1024), CostWeights::default());
        (c, fs)
    }

    #[test]
    fn scan_reports_bytes_and_tasks() {
        let (c, fs) = fixture();
        let (t, m) = execute(&LogicalPlan::scan("sales"), &c, &fs).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(m.bytes_read, 5000);
        assert_eq!(m.map_tasks, 5); // 5000 / 1024 -> 5 blocks
        assert_eq!(m.stages, 1);
    }

    #[test]
    fn unknown_table_errors() {
        let (c, fs) = fixture();
        let err = execute(&LogicalPlan::scan("zzz"), &c, &fs).unwrap_err();
        assert_eq!(err, ExecError::UnknownTable("zzz".into()));
    }

    #[test]
    fn select_filters_rows() {
        let (c, fs) = fixture();
        let plan = LogicalPlan::scan("sales").select(Predicate::range("s.item", 1, 2));
        let (t, _) = execute(&plan, &c, &fs).unwrap();
        assert_eq!(t.len(), 3, "NULL item excluded");
    }

    #[test]
    fn project_keeps_order_and_scales_width() {
        let (c, fs) = fixture();
        let plan = LogicalPlan::scan("sales").project(vec!["s.amount", "s.item"]);
        let (t, _) = execute(&plan, &c, &fs).unwrap();
        assert_eq!(t.schema.field(0).name, "s.amount");
        assert_eq!(t.bytes_per_row, 1000, "keeping all columns keeps the width");
        let narrow = LogicalPlan::scan("sales").project(vec!["s.item"]);
        let (t2, _) = execute(&narrow, &c, &fs).unwrap();
        assert!(
            t2.bytes_per_row < 1000,
            "projection shrinks simulated width"
        );
        assert!(t2.bytes_per_row > 0);
    }

    #[test]
    fn project_unknown_column_errors() {
        let (c, fs) = fixture();
        let plan = LogicalPlan::scan("sales").project(vec!["nope"]);
        assert!(matches!(
            execute(&plan, &c, &fs),
            Err(ExecError::UnknownColumn(_))
        ));
    }

    #[test]
    fn hash_join_inner_semantics() {
        let (c, fs) = fixture();
        let plan =
            LogicalPlan::scan("sales").join(LogicalPlan::scan("item"), vec![("s.item", "i.item")]);
        let (t, m) = execute(&plan, &c, &fs).unwrap();
        // items 1 (x2 sales), 2 (x1) match; 3 and NULL don't; item 4 unmatched.
        assert_eq!(t.len(), 3);
        assert_eq!(t.schema.len(), 4);
        assert!(m.shuffle_bytes > 0);
        assert_eq!(t.bytes_per_row, 1100);
        // Columns from the left input come first regardless of build side.
        assert_eq!(t.schema.field(0).name, "s.item");
    }

    #[test]
    fn join_accepts_swapped_on_pairs() {
        let (c, fs) = fixture();
        let plan =
            LogicalPlan::scan("sales").join(LogicalPlan::scan("item"), vec![("i.item", "s.item")]);
        let (t, _) = execute(&plan, &c, &fs).unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn aggregate_group_by() {
        let (c, fs) = fixture();
        let plan = LogicalPlan::scan("sales").aggregate(
            vec!["s.item"],
            vec![
                AggExpr::count("cnt"),
                AggExpr::of(AggFunc::Sum, "s.amount", "total"),
                AggExpr::of(AggFunc::Avg, "s.amount", "avg"),
                AggExpr::of(AggFunc::Min, "s.amount", "lo"),
                AggExpr::of(AggFunc::Max, "s.amount", "hi"),
            ],
        );
        let (t, _) = execute(&plan, &c, &fs).unwrap();
        assert_eq!(t.len(), 4); // groups: NULL, 1, 2, 3 (sorted, NULL first)
        let g1 = t.rows().find(|r| r[0] == Value::Int(1)).expect("group 1");
        assert_eq!(g1[1], Value::Int(2));
        assert_eq!(g1[2], Value::Float(30.0));
        assert_eq!(g1[3], Value::Float(15.0));
        assert_eq!(g1[4], Value::Float(10.0));
        assert_eq!(g1[5], Value::Float(20.0));
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_row() {
        let (c, fs) = fixture();
        let plan = LogicalPlan::scan("sales")
            .select(Predicate::range("s.item", 100, 200))
            .aggregate(
                Vec::<String>::new(),
                vec![
                    AggExpr::count("cnt"),
                    AggExpr::of(AggFunc::Sum, "s.amount", "t"),
                ],
            );
        let (t, _) = execute(&plan, &c, &fs).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(0), vec![Value::Int(0), Value::Null]);
    }

    #[test]
    fn view_scan_reads_fragments_and_charges_fs() {
        let (c, fs) = fixture();
        let frag_schema = Schema::new(vec![Field::new("v.a", DataType::Int)]);
        let f1 = Table::from_rows(frag_schema.clone(), vec![vec![Value::Int(1)]], 500);
        let f2 = Table::from_rows(frag_schema.clone(), vec![vec![Value::Int(2)]], 500);
        let (id1, _) = fs.create("f1", f1.sim_bytes(), f1);
        let (id2, _) = fs.create("f2", f2.sim_bytes(), f2);
        let plan = LogicalPlan::ViewScan(crate::plan::ViewScanInfo {
            view_name: "v".into(),
            files: vec![id1, id2],
            schema: frag_schema,
            clip: None,
        });
        let (t, m) = execute(&plan, &c, &fs).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(m.bytes_read, 1000);
        assert_eq!(fs.ledger().files_read, 2);
        // Evict one fragment: execution must now fail permanently.
        fs.delete(id2);
        let err = execute(&plan, &c, &fs).unwrap_err();
        assert_eq!(err, ExecError::PermanentIo(IoError::PermanentLoss(id2)));
        assert!(!err.is_transient());
        assert_eq!(err.file(), Some(id2));
        use std::error::Error;
        assert!(err.source().is_some(), "I/O variants carry a source chain");
    }

    #[test]
    fn view_scan_clips_overlapping_fragments_but_charges_whole_files() {
        let (c, fs) = fixture();
        let schema = Schema::new(vec![
            Field::new("v.k", DataType::Int),
            Field::new("v.x", DataType::Float),
        ]);
        let frag = |keys: &[i64]| {
            let rows = keys
                .iter()
                .map(|&k| vec![Value::Int(k), Value::Float(k as f64)]);
            Table::from_rows(schema.clone(), rows.collect(), 100)
        };
        // Fragments [0,5] and [3,9] overlap on 3..=5.
        let (f1, _) = fs.create("f1", 600, frag(&[0, 3, 4, 5, 5, 2]));
        let (f2, _) = fs.create("f2", 500, frag(&[3, 9, 5, 6, 4]));
        let scan = |clip| {
            let plan = LogicalPlan::ViewScan(crate::plan::ViewScanInfo {
                view_name: "v".into(),
                files: vec![f1, f2],
                schema: schema.clone(),
                clip,
            });
            execute(&plan, &c, &fs)
        };
        let (whole, whole_m) = scan(None).unwrap();
        assert_eq!(whole.len(), 11, "unclipped, the overlap comes back twice");
        let (clipped, m) = scan(Some(Box::new(crate::plan::OverlapClip {
            attr: "v.k".into(),
            from: vec![None, Some(6)],
        })))
        .unwrap();
        let keys: Vec<_> = clipped.rows().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(keys, vec![0, 3, 4, 5, 5, 2, 9, 6]);
        assert_eq!(m, whole_m, "both files are read and charged whole");
        let err = scan(Some(Box::new(crate::plan::OverlapClip {
            attr: "nope".into(),
            from: vec![None, Some(6)],
        })));
        assert_eq!(err.unwrap_err(), ExecError::UnknownColumn("nope".into()));
    }

    #[test]
    fn view_scan_surfaces_transient_faults() {
        use deepsea_storage::{BlockConfig, CostWeights, FaultConfig, FaultInjector};
        let (c, _) = fixture();
        let fs = SimFs::with_faults(
            BlockConfig::new(1024),
            CostWeights::default(),
            FaultInjector::new(FaultConfig::seeded(5).with_transient_reads(1.0)),
        );
        let frag_schema = Schema::new(vec![Field::new("v.a", DataType::Int)]);
        let f1 = Table::from_rows(frag_schema.clone(), vec![vec![Value::Int(1)]], 500);
        let (id1, _) = fs.create("f1", f1.sim_bytes(), f1);
        let plan = LogicalPlan::ViewScan(crate::plan::ViewScanInfo {
            view_name: "v".into(),
            files: vec![id1],
            schema: frag_schema,
            clip: None,
        });
        let err = execute(&plan, &c, &fs).unwrap_err();
        assert_eq!(err, ExecError::TransientIo(IoError::TransientRead(id1)));
        assert!(err.is_transient());
    }

    #[test]
    fn view_scan_surfaces_corruption_without_serving_data() {
        let (c, fs) = fixture();
        let frag_schema = Schema::new(vec![Field::new("v.a", DataType::Int)]);
        let f1 = Table::from_rows(frag_schema.clone(), vec![vec![Value::Int(1)]], 500);
        let (id1, _) = fs.create("f1", f1.sim_bytes(), f1);
        fs.corrupt_file(id1);
        let plan = LogicalPlan::ViewScan(crate::plan::ViewScanInfo {
            view_name: "v".into(),
            files: vec![id1],
            schema: frag_schema,
            clip: None,
        });
        let err = execute(&plan, &c, &fs).unwrap_err();
        assert_eq!(err, ExecError::CorruptIo(IoError::Corrupt(id1)));
        assert!(!err.is_transient(), "corruption is never retryable");
        assert_eq!(err.file(), Some(id1));
        assert_eq!(fs.ledger().files_read, 0, "corrupt data is never served");
    }

    /// A key column holding `values`, read through `idx` when given.
    fn key_col(dtype: DataType, values: &[Value], idx: Option<Vec<u32>>) -> Col {
        let mut data = Column::with_capacity(dtype, values.len());
        values.iter().for_each(|v| data.push(v.clone()));
        let data = Arc::new(data);
        match idx {
            Some(idx) => Col::indexed(data, Arc::new(idx)),
            None => Col::whole(data),
        }
    }

    /// `col`'s values read through `idx`.
    fn reindexed(col: &Col, idx: Vec<u32>) -> Col {
        Col::indexed(Arc::clone(col.data()), Arc::new(idx))
    }

    fn int_col(keys: &[i64]) -> Col {
        let values: Vec<Value> = keys.iter().map(|&k| Value::Int(k)).collect();
        key_col(DataType::Int, &values, None)
    }

    /// A whole column `first..first + n`: a surrogate key when `n > 0`.
    fn serial(first: i64, n: i64) -> Col {
        int_col(&(0..n).map(|r| first + r).collect::<Vec<_>>())
    }

    /// Whether the density rule gives `key`'s first `n` rows a direct index.
    fn dense(key: &Col, n: usize) -> bool {
        DirectIndex::new(&[key], n).is_some()
    }

    /// Which side of a join of `build` and `probe` is a surrogate key.
    fn partner(build: &Col, probe: &Col) -> Option<&'static str> {
        Partner::of(&[build], &[probe]).map(|p| match p {
            Partner::InBuild(_) => "build",
            Partner::InProbe(_) => "probe",
        })
    }

    /// The pairs a nested loop finds: probe rows outer, build rows inner.
    fn nested_loop_pairs(build: &Col, build_len: usize, probe: &Col, probe_len: usize) -> Pairs {
        let value = |c: &Col, r: usize| c.value(r);
        let mut pairs = (Vec::new(), Vec::new());
        for j in 0..probe_len {
            for i in 0..build_len {
                let (b, p) = (value(build, i), value(probe, j));
                if b != Value::Null && b == p {
                    pairs.0.push(i as u32);
                    pairs.1.push(j as u32);
                }
            }
        }
        pairs
    }

    /// Groups numbered as first seen, found by comparing values.
    fn first_seen_groups(key: &Col, n: usize) -> Groups {
        let value = |r: usize| key.value(r);
        let mut first_row: Vec<u32> = Vec::new();
        let of_row = (0..n)
            .map(|r| {
                let seen = first_row
                    .iter()
                    .position(|&f| value(f as usize) == value(r));
                seen.unwrap_or_else(|| {
                    first_row.push(r as u32);
                    first_row.len() - 1
                }) as u32
            })
            .collect();
        Groups { of_row, first_row }
    }

    /// Join `build` and `probe` as the executor does — by position when one
    /// is a surrogate key — and through the hashed index, against a nested
    /// loop. Group each through both indexes against first-seen grouping.
    fn check_key_indexes(build: &Col, build_len: usize, probe: &Col, probe_len: usize) {
        let (b, p) = ([build], [probe]);
        let want = nested_loop_pairs(build, build_len, probe, probe_len);
        assert_eq!(join_pairs(&b, build_len, &p, probe_len), want);
        assert_eq!(join_hashed(&b, build_len, &p, probe_len), want);
        for (key, n) in [(build, build_len), (probe, probe_len)] {
            let want = first_seen_groups(key, n);
            assert_eq!(group_hashed(&[key], n), want);
            assert_eq!(group_rows(&[key], n), want);
            if let Some(index) = DirectIndex::new(&[key], n) {
                assert_eq!(group_direct(index, n), want);
            }
        }
    }

    #[test]
    fn direct_and_hashed_index_agree_on_both_sides_of_the_density_rule() {
        // 8 rows, keys from 3 up: spans below 4·8 + 64 = 96 are dense.
        let probe = int_col(&[7, 122, 3, 7, -1, 123]);
        for (max, want) in [(20, true), (98, true), (99, false), (5_000, false)] {
            let build = int_col(&[7, 3, max, 7, 9, 3, 7, 8]);
            check_key_indexes(&build, 8, &probe, 6);
            assert_eq!(dense(&build, 8), want, "max {max}");
        }
        // 6 rows, 4·6 + 64 = 88.
        assert!(!dense(&probe, 6));
        assert!(!dense(&int_col(&[0, 87]), 2));
        assert!(dense(&int_col(&[0, 71]), 2));

        // Indexed columns (a join's output, a selection's) read through
        // their index vector; only its rows count.
        let build = reindexed(
            &int_col(&[7, 3, 1 << 40, 7, 9, 3, 7, 8]),
            vec![7, 0, 0, 4, 1],
        );
        check_key_indexes(&build, 5, &probe, 6);
        assert!(dense(&build, 5));

        // Strings under one dictionary key by their codes, as integers: a
        // dictionary much larger than the rows is a sparse key.
        let strs = |keys: &[&str]| {
            let values: Vec<Value> = keys.iter().map(Value::str).collect();
            key_col(DataType::Str, &values, None)
        };
        let many: Vec<String> = (0..300).map(|k| format!("s{k}")).collect();
        let wide = strs(&many.iter().map(String::as_str).collect::<Vec<_>>());
        let rows = |idx: Vec<u32>| reindexed(&wide, idx);
        let (build, probe) = (rows(vec![3, 5, 3, 0]), rows(vec![5, 8, 0]));
        check_key_indexes(&build, 4, &probe, 3);
        assert!(dense(&build, 4));
        let (build, probe) = (rows(vec![0, 299]), rows(vec![299, 5]));
        check_key_indexes(&build, 2, &probe, 2);
        assert!(!dense(&build, 2));
        // Under two, hashed: equal strings are one key, and a probe string
        // the build side lacks matches none.
        let build = strs(&["b", "a", "", "b", "zz", "a"]);
        let probe = strs(&["a", "q", "b", "", "a"]);
        check_key_indexes(&build, 6, &probe, 5);

        // Floats, an integer against a float, two columns, no rows: hashed.
        let floats = key_col(
            DataType::Float,
            &[Value::Float(3.0), Value::Float(7.0)],
            None,
        );
        let ints = int_col(&[7, 3, 7]);
        check_key_indexes(&floats, 2, &floats, 2);
        check_key_indexes(&ints, 3, &floats, 2);
        check_key_indexes(&ints, 0, &ints, 3);
        assert!(!dense(&floats, 2) && !dense(&ints, 0));
        assert!(DirectIndex::new(&[&ints, &ints], 3).is_none());
        // A string never equals a number.
        assert_eq!(join_pairs(&[&build], 6, &[&ints], 3), (vec![], vec![]));
    }

    #[test]
    fn key_span_overflowing_i64_is_hashed() {
        let build = int_col(&[i64::MIN, i64::MAX, 0, i64::MAX, -1]);
        let probe = int_col(&[i64::MAX, 1, i64::MIN, 0]);
        check_key_indexes(&build, 5, &probe, 4);
        assert!(!dense(&build, 5));
        // A span that fits `i64` but no table does not wrap into range.
        let build = int_col(&[-1_000_000_000_000, 1_000_000_000_000, 5]);
        check_key_indexes(&build, 3, &probe, 4);
        assert!(!dense(&build, 3));
        // Dense keys at the edge of the domain stay direct.
        let build = int_col(&[i64::MAX, i64::MAX - 3, i64::MAX]);
        check_key_indexes(&build, 3, &probe, 4);
        assert!(dense(&build, 3));
        let build = int_col(&[i64::MIN + 2, i64::MIN]);
        check_key_indexes(&build, 2, &probe, 4);
        assert!(dense(&build, 2));
    }

    /// How many of the first `n` rows meet a row in every join of `chain`
    /// up to each one, row by row from the values: the counts
    /// [`chain_counts`] takes from key bitmaps.
    fn counted_row_by_row(chain: &[(Partners<'_>, usize)], n: usize) -> Vec<u64> {
        let mut counts = vec![0; chain.len()];
        for r in 0..n {
            for ((keys, len), count) in chain.iter().zip(&mut counts) {
                let key = keys.col.int_at(r);
                let meets = key.is_some_and(|k| {
                    (0..*len as i128).contains(&(i128::from(k) - i128::from(keys.first)))
                });
                if !meets {
                    break;
                }
                *count += 1;
            }
        }
        counts
    }

    /// `rows` key values around a surrogate side `first..first + len`:
    /// partners, near misses on both sides, NULLs and the extremes.
    fn keys_around(rng: &mut StdRng, rows: usize, first: i64, len: usize) -> Vec<Value> {
        (0..rows)
            .map(|_| match rng.random_range(0..20) {
                0 => Value::Null,
                1 => Value::Int(i64::MIN),
                2 => Value::Int(i64::MAX),
                3..=5 => Value::Int(first - rng.random_range(1..70i64)),
                6..=8 => Value::Int(first + len as i64 + rng.random_range(0..70i64)),
                _ => Value::Int(first + rng.random_range(0..len.max(1) as i64)),
            })
            .collect()
    }

    #[test]
    fn bitmap_chain_counts_equal_a_row_by_row_count() {
        use rand::SeedableRng;
        const LENS: [usize; 6] = [0, 1, 63, 64, 65, 40_000];
        const FIRSTS: [i64; 5] = [-50_000, -7, 0, 3, 20_000];
        let mut rng = StdRng::seed_from_u64(41);
        for n in LENS {
            for indexed in [false, true] {
                for case in 0..LENS.len() {
                    // Three key columns of one leaf, each meeting its own
                    // surrogate side; an indexed leaf reads its `n` rows
                    // out of 70 more, some twice, some not at all.
                    let sides: Vec<(i64, usize)> = (0..3)
                        .map(|j| (FIRSTS[(case + j) % 5], LENS[(case + 2 * j) % 6]))
                        .collect();
                    let data_rows = if indexed { n + 70 } else { n };
                    let idx: Option<Vec<u32>> = indexed.then(|| {
                        let mut ix: Vec<u32> = (0..n)
                            .map(|_| rng.random_range(0..data_rows) as u32)
                            .collect();
                        ix.sort_unstable();
                        ix
                    });
                    let cols: Vec<Col> = (sides.iter())
                        .map(|&(first, len)| {
                            let keys = keys_around(&mut rng, data_rows, first, len);
                            key_col(DataType::Int, &keys, idx.clone())
                        })
                        .collect();
                    for links in 1..=3 {
                        let chain: Vec<(Partners<'_>, usize)> = (cols.iter().zip(&sides))
                            .take(links)
                            .map(|(c, &(first, len))| (Partners::of(c, first).unwrap(), len))
                            .collect();
                        let want = counted_row_by_row(&chain, n);
                        for call in 0..2 {
                            assert_eq!(
                                chain_counts(chain.iter().copied(), n),
                                want,
                                "n {n}, indexed {indexed}, case {case}, {links} links, call {call}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_key_column_answers_a_second_side_and_forgets_its_bitmap_when_it_changes() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let keys = keys_around(&mut rng, 200, -10, 65);
        let col = key_col(DataType::Int, &keys, None);
        let count = |col: &Col, first: i64, len: usize| {
            let chain = [(Partners::of(col, first).unwrap(), len)];
            let n = col.data().len();
            assert_eq!(
                chain_counts(chain, n),
                counted_row_by_row(&chain, n),
                "({first}, {len}) over {n} rows"
            );
        };
        // The first side is kept, a second is computed, the first still holds.
        for (first, len) in [(-10, 65), (0, 40), (-10, 65), (-80, 1)] {
            count(&col, first, len);
        }
        let copy = Col::from((**col.data()).clone());
        count(&copy, 0, 40);
        count(&copy, -10, 65);
        let mutations: [fn(&mut Column); 3] = [
            |c| c.push(Value::Int(-10)),
            |c| c.push(Value::Null),
            |c| c.extend_from(&Column::from_ints(vec![54, 55, -11]), None),
        ];
        for mutate in mutations {
            let mut data = Arc::new((**col.data()).clone());
            count(&Col::whole(Arc::clone(&data)), -10, 65);
            mutate(Arc::get_mut(&mut data).unwrap());
            count(&Col::whole(data), -10, 65);
        }
    }

    #[test]
    fn surrogate_key_joins_agree_with_the_hashed_index() {
        for first in [0, -3, 7, i64::MAX - 5, i64::MIN] {
            // Keys in range, repeated, just outside it on either side, at the
            // ends of the domain, and NULL, whose slot holds 0.
            let near = |d: i64| Value::Int(first.saturating_add(d));
            let keys = [
                near(2),
                near(0),
                Value::Null,
                near(2),
                near(-1),
                near(5),
                near(1),
                near(0),
                Value::Int(i64::MIN),
                Value::Int(i64::MAX),
                Value::Int(0),
            ];
            let fact = key_col(DataType::Int, &keys, None);
            for n in [0, 1, 5] {
                let dim = serial(first, n);
                let n = n as usize;
                // An empty column is no surrogate key.
                assert_eq!(partner(&dim, &fact), (n > 0).then_some("build"));
                assert_eq!(partner(&fact, &dim), (n > 0).then_some("probe"));
                check_key_indexes(&dim, n, &fact, keys.len());
                check_key_indexes(&fact, keys.len(), &dim, n);
                // The fact side read through a selection's index.
                let some = reindexed(&fact, vec![9, 3, 0, 2, 3, 6]);
                check_key_indexes(&some, 6, &dim, n);
                check_key_indexes(&dim, n, &some, 6);
                // A selection that keeps every row leaves the surrogate
                // side in place, still a surrogate key, and its pairs are
                // the hashed index's, in order.
                let schema = Schema::new(vec![Field::new("d.k", DataType::Int)]);
                let all = Predicate::range("d.k", i64::MIN, i64::MAX);
                let batch = Batch::new(schema, vec![dim.clone()], n, 8);
                let kept = select(batch, &all, &mut ExecMetrics::default());
                let kept = &kept.cols[0];
                assert!(kept.shares(&dim));
                assert_eq!(partner(kept, &fact), (n > 0).then_some("build"));
                for (b, p) in [(kept, &fact), (&fact, kept)] {
                    let (bn, pn) = (b.len(), p.len());
                    assert_eq!(
                        join_pairs(&[b], bn, &[p], pn),
                        join_hashed(&[b], bn, &[p], pn)
                    );
                    check_key_indexes(b, bn, p, pn);
                }
            }
        }
        // Two surrogate keys: the build side's serves.
        let (a, b) = (serial(3, 4), serial(5, 6));
        assert_eq!(partner(&a, &b), Some("build"));
        check_key_indexes(&a, 4, &b, 6);
        // Only single integer keys meet a surrogate key by position.
        let dim = serial(0, 3);
        let floats = key_col(DataType::Float, &[Value::Float(1.0)], None);
        let strs = key_col(DataType::Str, &[Value::str("1")], None);
        assert_eq!(partner(&dim, &floats), None);
        assert_eq!(partner(&strs, &dim), None);
        assert!(Partner::of(&[&dim, &dim], &[&dim, &dim]).is_none());
        check_key_indexes(&dim, 3, &floats, 1);
        check_key_indexes(&dim, 3, &strs, 1);
        // Nor does a column read through an index, even one that names
        // every row in order.
        let identity = reindexed(&dim, vec![0, 1, 2]);
        assert_eq!(partner(&identity, &int_col(&[1, 1])), None);
        check_key_indexes(&identity, 3, &int_col(&[1, 1]), 2);
    }

    /// A fact table whose two keys meet the dimensions `d` (keys 0..5) and
    /// `e` (10..13), both surrogate keys, and `t`, `d`'s twin with a gap;
    /// some keys miss, some are NULL.
    fn star() -> (Catalog, SimFs<Table>) {
        let mut c = Catalog::new();
        let int = |k: Option<i64>| k.map_or(Value::Null, Value::Int);
        let fact = [
            (Some(3), Some(10), 1.0),
            (Some(9), Some(12), 2.0),
            (None, Some(11), 3.0),
            (Some(0), None, 4.0),
            (Some(4), Some(13), 5.0),
            (Some(3), Some(14), 6.0),
            (Some(1), Some(12), 7.0),
            (Some(2), Some(10), 8.0),
        ];
        let rows = fact
            .iter()
            .map(|&(k1, k2, v)| vec![int(k1), int(k2), Value::Float(v)]);
        let schema = Schema::new(vec![
            Field::new("f.k1", DataType::Int),
            Field::new("f.k2", DataType::Int),
            Field::new("f.v", DataType::Float),
        ]);
        c.register("f", Table::from_rows(schema, rows.collect(), 300));
        for (name, keys) in [
            ("d", vec![0, 1, 2, 3, 4]),
            ("e", vec![10, 11, 12, 13]),
            ("t", vec![0, 1, 3, 4, 5]),
        ] {
            let schema = Schema::new(vec![
                Field::new(format!("{name}.k"), DataType::Int),
                Field::new(format!("{name}.s"), DataType::Str),
            ]);
            let rows = keys
                .iter()
                .map(|&k| vec![Value::Int(k), Value::str(format!("s{}", k % 2))]);
            c.register(name, Table::from_rows(schema, rows.collect(), 40));
        }
        let fs = SimFs::new(BlockConfig::new(1024), CostWeights::default());
        (c, fs)
    }

    #[test]
    fn a_selection_on_one_leaf_runs_there_and_charges_the_full_tree() {
        let (c, fs) = star();
        let scan = LogicalPlan::scan;
        let on = |a: &str, b: &str| vec![(a.to_string(), b.to_string())];
        let trees = [
            // (plan, joins on the chain from `f` when the selection reads `f`)
            (scan("f").join(scan("d"), on("f.k1", "d.k")), Some(1)),
            (
                scan("f")
                    .join(scan("d"), on("f.k1", "d.k"))
                    .join(scan("e"), on("f.k2", "e.k")),
                Some(2),
            ),
            (
                scan("e").join(
                    scan("d").join(scan("f"), on("d.k", "f.k1")),
                    on("e.k", "f.k2"),
                ),
                Some(2),
            ),
            // A twin is no surrogate key; a key read off `d` is not `f`'s.
            (
                scan("f")
                    .join(scan("t"), on("f.k1", "t.k"))
                    .join(scan("e"), on("f.k2", "e.k")),
                None,
            ),
            (
                scan("f")
                    .join(scan("d"), on("f.k1", "d.k"))
                    .join(scan("e"), on("d.k", "e.k")),
                None,
            ),
        ];
        let preds = [
            Predicate::range("f.k1", 1, 3),
            Predicate::and(vec![
                Predicate::range("f.k2", 0, 12),
                Predicate::eq("f.v", 7.0),
            ]),
            Predicate::range("f.k1", 5, 4),
            Predicate::range("f.k1", i64::MIN, i64::MAX),
            Predicate::eq("d.s", "s1"),
            Predicate::and(vec![
                Predicate::range("f.k1", 0, 3),
                Predicate::eq("e.s", "s0"),
            ]),
        ];
        for (plan, chain) in &trees {
            // Join then select, charged as such: the selection reads every
            // row of the whole tree.
            let (all, all_m) = execute(plan, &c, &fs).unwrap();
            for pred in &preds {
                let LogicalPlan::Join { left, right, on } = plan else {
                    unreachable!("every tree is a join")
                };
                let node = plant(left, right, on, &c, &fs, &mut ExecMetrics::default()).unwrap();
                let cols = conditions(pred, &node.schema)
                    .map(|c| c.iter().map(|&(_, i)| i).collect::<Vec<_>>());
                let route =
                    cols.and_then(|cols| node.route(&cols).map(|(_, _, links)| links.len()));
                let on_f = pred
                    .conjuncts()
                    .iter()
                    .all(|c| c.columns().iter().all(|n| n.starts_with("f.")));
                assert_eq!(route, chain.filter(|_| on_f), "{pred:?} over {plan:?}");

                let (got, got_m) = execute(&plan.clone().select(pred.clone()), &c, &fs).unwrap();
                let want: Vec<_> = all.rows().filter(|r| pred.eval(&all.schema, r)).collect();
                assert_eq!(
                    got.rows().collect::<Vec<_>>(),
                    want,
                    "{pred:?} over {plan:?}"
                );
                assert_eq!(got.bytes_per_row, all.bytes_per_row);
                let want_m = ExecMetrics {
                    rows_processed: all_m.rows_processed + all.len() as u64,
                    ..all_m
                };
                assert_eq!(got_m, want_m, "{pred:?} over {plan:?}");

                // A slice gives the same rows and the whole tree's length.
                let (slice, len) = execute_slice(plan, pred, &c, &fs).unwrap();
                let got: Vec<_> = slice.rows().collect();
                assert_eq!(got, want, "slice: {pred:?} over {plan:?}");
                assert_eq!(slice.bytes_per_row, all.bytes_per_row);
                assert_eq!(len, all.len() as u64, "slice: {pred:?} over {plan:?}");
            }
        }
    }

    #[test]
    fn null_keys_join_nothing_and_group_together() {
        // NULL slots hold 0, a key both sides also hold for real.
        let build = [Value::Int(0), Value::Null, Value::Int(2), Value::Null];
        let probe = [Value::Null, Value::Int(0), Value::Int(2), Value::Null];
        let build = key_col(DataType::Int, &build, None);
        let probe = key_col(DataType::Int, &probe, None);
        check_key_indexes(&build, 4, &probe, 4);
        assert!(dense(&build, 4));
        assert_eq!(
            join_pairs(&[&build], 4, &[&probe], 4),
            (vec![0, 2], vec![1, 2])
        );
        let groups = group_rows(&[&build], 4);
        assert_eq!(groups.of_row, vec![0, 1, 2, 1]);
        assert_eq!(groups.first_row, vec![0, 1, 2]);

        // The same through the hashed index (sparse keys) and for strings,
        // whose NULL slots hold "".
        let sparse = [Value::Int(0), Value::Null, Value::Int(1 << 50)];
        let sparse = key_col(DataType::Int, &sparse, None);
        check_key_indexes(&sparse, 3, &probe, 4);
        assert!(!dense(&sparse, 3));
        let strs = [Value::str(""), Value::Null, Value::str("x"), Value::Null];
        let strs = key_col(DataType::Str, &strs, None);
        check_key_indexes(&strs, 4, &strs, 4);
        assert!(dense(&strs, 4));
        assert_eq!(
            join_pairs(&[&strs], 4, &[&strs], 4),
            (vec![0, 2], vec![0, 2])
        );
    }

    #[test]
    fn selection_agrees_with_predicate_eval_row_by_row() {
        let schema = Schema::new(vec![
            Field::new("t.k", DataType::Int),
            Field::new("t.f", DataType::Float),
            Field::new("t.s", DataType::Str),
        ]);
        let preds = [
            Predicate::range("t.k", 2, 4),
            Predicate::range("t.k", i64::MIN, i64::MAX),
            Predicate::eq("t.k", 0),
            Predicate::eq("t.k", 3.0),
            Predicate::eq("t.f", 1),
            Predicate::eq("t.f", 0.5),
            Predicate::eq("t.s", "s1"),
            Predicate::eq("t.s", ""),
            Predicate::eq("t.k", Value::Null),
            Predicate::range("t.f", 0, 9),
            Predicate::and(vec![
                Predicate::range("t.k", 0, 3),
                Predicate::eq("t.s", "s1"),
                Predicate::eq("t.f", 1),
            ]),
        ];
        for with_nulls in [false, true] {
            let rows: Vec<Vec<Value>> = (0..40i64)
                .map(|i| {
                    let null = |v: Value, every: i64| match with_nulls && i % every == 0 {
                        true => Value::Null,
                        false => v,
                    };
                    vec![
                        null(Value::Int(i % 6), 5),
                        null(Value::Float((i % 4) as f64 / 2.0), 7),
                        null(Value::str(format!("s{}", i % 3)), 4),
                    ]
                })
                .collect();
            let table = Table::from_rows(schema.clone(), rows, 100);
            for idx in [
                None,
                Some((0..40u32).rev().step_by(3).chain(5..9).collect()),
            ] {
                let whole = Batch::from_table(&table, schema.clone(), 100);
                let batch = match idx {
                    None => whole,
                    Some(ix) => {
                        let ix: Rows = Arc::new(ix);
                        Batch::new(schema.clone(), whole.take(&ix), ix.len(), 100)
                    }
                };
                let cols = batch.cols.clone();
                let row = |r: usize| -> Vec<Value> { cols.iter().map(|c| c.value(r)).collect() };
                for pred in &preds {
                    let want: Vec<u32> = (0..batch.len as u32)
                        .filter(|&r| pred.eval(&schema, &row(r as usize)))
                        .collect();
                    let got = filter(&batch, pred).expect("every predicate has a condition");
                    assert_eq!(got, want, "{pred:?}, nulls {with_nulls}");
                }
            }
        }
    }

    #[test]
    fn one_fresh_column_ranged_from_four_threads_at_once_gives_one_answer() {
        let schema = Schema::new(vec![Field::new("t.k", DataType::Int)]);
        let value = |i: i64| match i % 17 {
            0 => Value::Null,
            _ => Value::Int(i * 7_919 % 1_000),
        };
        let mut c = Catalog::new();
        let rows = (0..4_000).map(|i| vec![value(i)]).collect();
        c.register("t", Table::from_rows(schema, rows, 8));
        let fs = SimFs::new(BlockConfig::default(), CostWeights::default());
        // 5 % of the rows: past the first call, the range order serves it.
        let plan = LogicalPlan::scan("t").select(Predicate::range("t.k", 100, 149));
        let runs: Vec<(Table, ExecMetrics)> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..3).map(|_| execute(&plan, &c, &fs).unwrap()).collect()))
                .collect();
            let runs = threads.into_iter().map(|t| t.join().unwrap());
            runs.flat_map(|r: Vec<_>| r).collect()
        });
        let want: Vec<Value> = (0..4_000)
            .map(value)
            .filter(|v| v.as_int().is_some_and(|k| (100..=149).contains(&k)))
            .collect();
        let (first, first_m) = &runs[0];
        assert_eq!(first.rows().map(|r| r[0].clone()).collect::<Vec<_>>(), want);
        for (t, m) in &runs {
            assert_eq!((t, m), (first, first_m));
        }
    }

    #[test]
    fn aggregate_rows_sorted_deterministically() {
        let (c, fs) = fixture();
        let plan =
            LogicalPlan::scan("sales").aggregate(vec!["s.item"], vec![AggExpr::count("cnt")]);
        let (t1, _) = execute(&plan, &c, &fs).unwrap();
        let (t2, _) = execute(&plan, &c, &fs).unwrap();
        assert_eq!(t1, t2);
    }
}
