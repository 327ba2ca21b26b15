//! Physical execution of logical plans.
//!
//! The executor really runs the query over in-memory tables (so rewritings
//! can be validated for correctness) while accounting all *simulated* I/O —
//! bytes read/written, map tasks, shuffle volume — which the cluster
//! simulator turns into elapsed seconds.
//!
//! Execution is columnar and batch-at-a-time: an operator's output is a
//! [`Batch`] of shared typed columns plus `u32` index vectors saying which
//! of their rows it holds. A selection yields a selection vector, a join
//! `(left, right)` index pairs, an aggregate reads only its key and argument
//! columns through those indices; column values are copied once, when the
//! final batch becomes a [`Table`]. What the simulator charges — bytes,
//! tasks, stages, rows — and the order of output rows do not depend on any
//! of this (DESIGN.md, "Execution model").

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use deepsea_relation::{Column, ColumnData, DataType, Field, Predicate, Schema, Table, Value};
use deepsea_storage::{FileId, IoError, SimFs};

use crate::catalog::Catalog;
use crate::plan::{AggFunc, LogicalPlan};

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

/// Row indices into a column; the rows of a batch or of one join side.
type Rows = Arc<Vec<u32>>;

/// One column of a [`Batch`]: shared values and, when the batch holds only
/// some of them (or some twice, after a join), which. Row `r` of the batch
/// is `data[idx[r]]`, or `data[r]` without an index.
#[derive(Clone)]
struct Col {
    data: Arc<Column>,
    idx: Option<Rows>,
}

impl Col {
    /// Position in `data` of batch row `r`.
    #[inline]
    fn phys(&self, r: usize) -> usize {
        match &self.idx {
            Some(ix) => ix[r] as usize,
            None => r,
        }
    }

    /// `f(r, x)` for every batch row `r < n` with a non-NULL number `x`
    /// (integers coerced), in row order. Strings are not numbers.
    fn for_each_float(&self, n: usize, mut f: impl FnMut(usize, f64)) {
        let rows = (0..n).map(|r| (r, self.phys(r)));
        match self.data.data() {
            ColumnData::Int(v) => rows
                .filter(|&(_, p)| !self.data.is_null(p))
                .for_each(|(r, p)| f(r, v[p] as f64)),
            ColumnData::Float(v) => rows
                .filter(|&(_, p)| !self.data.is_null(p))
                .for_each(|(r, p)| f(r, v[p])),
            ColumnData::Str(_) => {}
        }
    }
}

/// Intermediate result: a schema, one [`Col`] per field, and the simulated
/// width of one row. Operators pass columns on by reference count and
/// describe their output with index vectors; values are copied once, in
/// [`Batch::into_table`].
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

    /// All of `table`'s rows, sharing its columns.
    fn from_table(table: &Table, schema: Schema, bytes_per_row: u64) -> Self {
        let cols = table
            .columns()
            .iter()
            .map(|c| Col {
                data: Arc::clone(c),
                idx: None,
            })
            .collect();
        Self::new(schema, cols, table.len(), bytes_per_row)
    }

    fn sim_bytes(&self) -> u64 {
        self.len as u64 * self.bytes_per_row
    }

    /// The columns restricted to batch rows `sel`, in that order. Columns
    /// that share an index vector share the composed one.
    fn take(&self, sel: &Rows) -> Vec<Col> {
        let mut composed: Vec<(&Rows, Rows)> = Vec::new();
        self.cols
            .iter()
            .map(|c| {
                let idx = match &c.idx {
                    None => Arc::clone(sel),
                    Some(old) => match composed.iter().find(|(o, _)| Arc::ptr_eq(o, old)) {
                        Some((_, new)) => Arc::clone(new),
                        None => {
                            let new: Rows =
                                Arc::new(sel.iter().map(|&s| old[s as usize]).collect());
                            composed.push((old, Arc::clone(&new)));
                            new
                        }
                    },
                };
                Col {
                    data: Arc::clone(&c.data),
                    idx: Some(idx),
                }
            })
            .collect()
    }

    /// Materialize: un-indexed columns are shared, indexed ones gathered.
    fn into_table(self) -> Table {
        let columns = self
            .cols
            .into_iter()
            .map(|c| match c.idx {
                None => c.data,
                Some(ix) => Arc::new(c.data.gather(&ix)),
            })
            .collect();
        Table::new(self.schema, columns, self.bytes_per_row)
    }
}

/// Average actual (in-memory serialized) row width, sampled over the first
/// 128 rows.
fn avg_actual_width(cols: &[Col], len: usize) -> f64 {
    if len == 0 {
        return 8.0;
    }
    let n = len.min(128);
    let total: u64 = cols
        .iter()
        .map(|c| (0..n).map(|r| c.data.width_at(c.phys(r))).sum::<u64>())
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
            // Overlapping fragments are clipped on the partition attribute.
            let clip_col = match &v.clip {
                Some(c) => Some(
                    v.schema
                        .index_of(&c.attr)
                        .ok_or_else(|| ExecError::UnknownColumn(c.attr.clone()))?,
                ),
                None => None,
            };
            let mut parts: Vec<(Arc<Table>, Option<Vec<u32>>)> = Vec::with_capacity(v.files.len());
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
        LogicalPlan::Select { pred, input } => {
            let child = run(input, catalog, fs, m)?;
            m.rows_processed += child.len as u64;
            Ok(match filter(&child, pred) {
                None => child,
                Some(sel) => {
                    let sel: Rows = Arc::new(sel);
                    let cols = child.take(&sel);
                    Batch::new(child.schema, cols, sel.len(), child.bytes_per_row)
                }
            })
        }
        LogicalPlan::Project { cols, input } => {
            let child = run(input, catalog, fs, m)?;
            m.rows_processed += child.len as u64;
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            for n in &names {
                if child.schema.index_of(n).is_none() {
                    return Err(ExecError::UnknownColumn((*n).to_string()));
                }
            }
            let (schema, idxs) = child.schema.project(&names);
            let out: Vec<Col> = idxs.iter().map(|&i| child.cols[i].clone()).collect();
            let bpr = scaled_width(&child, &out, child.len);
            Ok(Batch::new(schema, out, child.len, bpr))
        }
        LogicalPlan::Join { left, right, on } => {
            let l = run(left, catalog, fs, m)?;
            let r = run(right, catalog, fs, m)?;
            // A repartition join shuffles both inputs.
            m.shuffle_bytes += l.sim_bytes() + r.sim_bytes();
            m.stages += 1;
            m.rows_processed += (l.len + r.len) as u64;

            // Resolve join columns against the two input schemas; accept the
            // pairs in either order.
            let mut lk = Vec::with_capacity(on.len());
            let mut rk = Vec::with_capacity(on.len());
            for (a, b) in on {
                match (l.schema.index_of(a), r.schema.index_of(b)) {
                    (Some(ai), Some(bi)) => {
                        lk.push(&l.cols[ai]);
                        rk.push(&r.cols[bi]);
                    }
                    _ => match (l.schema.index_of(b), r.schema.index_of(a)) {
                        (Some(bi), Some(ai)) => {
                            lk.push(&l.cols[bi]);
                            rk.push(&r.cols[ai]);
                        }
                        _ => {
                            return Err(ExecError::UnknownColumn(format!("{a} = {b}")));
                        }
                    },
                }
            }

            // Build on the smaller input; the output follows the probe side
            // scan, matches of one probe row in build order.
            let build_is_left = l.len <= r.len;
            let (build_rows, probe_rows) = if build_is_left {
                join_pairs(&lk, l.len, &rk, r.len)
            } else {
                join_pairs(&rk, r.len, &lk, l.len)
            };
            let len = build_rows.len();
            let (lrows, rrows) = if build_is_left {
                (build_rows, probe_rows)
            } else {
                (probe_rows, build_rows)
            };
            let mut cols = l.take(&Arc::new(lrows));
            cols.extend(r.take(&Arc::new(rrows)));
            m.rows_processed += len as u64;
            Ok(Batch::new(
                l.schema.concat(&r.schema),
                cols,
                len,
                l.bytes_per_row + r.bytes_per_row,
            ))
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
                    .map(|k| k.data.cmp_at(k.phys(ra), k.phys(rb)))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            });

            let mut fields: Vec<Field> = Vec::with_capacity(gidx.len() + aggs.len());
            let mut out: Vec<Col> = Vec::with_capacity(gidx.len() + aggs.len());
            for (&i, key) in gidx.iter().zip(&keys) {
                let firsts: Vec<u32> = order
                    .iter()
                    .map(|&g| key.phys(groups.first_row[g as usize] as usize) as u32)
                    .collect();
                fields.push(child.schema.field(i).clone());
                out.push(Col {
                    data: Arc::new(key.data.gather(&firsts)),
                    idx: None,
                });
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
                out.push(Col {
                    data: Arc::new(aggregate(a.func, arg, dtype, &groups, &order)),
                    idx: None,
                });
            }
            m.rows_processed += order.len() as u64;
            // Aggregates produce compact rows; keep the input's scale factor.
            let bpr = scaled_width(&child, &out, order.len());
            Ok(Batch::new(Schema::new(fields), out, order.len(), bpr))
        }
    }
}

/// "No row": the end of a join chain, a group that saw no value.
const NONE: u32 = u32::MAX;

/// Rows of `batch` that satisfy `pred`, ascending; `None` when the predicate
/// holds no condition, so every row passes. Each conjunct resolves its
/// column once and narrows the selection of the one before. Unknown columns,
/// NULLs and values that cannot equal the condition's make a conjunct false
/// (SQL three-valued logic collapsed to false at the top level), exactly as
/// [`Predicate::eval`] defines it row by row.
fn filter(batch: &Batch, pred: &Predicate) -> Option<Vec<u32>> {
    let mut sel: Option<Vec<u32>> = None;
    for conjunct in pred.conjuncts() {
        sel = Some(conjunct_rows(batch, conjunct, sel));
    }
    sel
}

/// The rows of `sel` (all rows when `None`) that satisfy one condition.
fn conjunct_rows(batch: &Batch, conjunct: &Predicate, sel: Option<Vec<u32>>) -> Vec<u32> {
    let (name, value) = match conjunct {
        Predicate::Range { col, .. } => (col, None),
        Predicate::Eq { col, value } => (col, Some(value)),
        // `conjuncts` flattens `And` and drops `True`: nothing to narrow by.
        Predicate::True | Predicate::And(_) => {
            return sel.unwrap_or_else(|| (0..batch.len as u32).collect())
        }
    };
    let Some(c) = batch.schema.index_of(name).map(|i| &batch.cols[i]) else {
        return Vec::new();
    };
    let n = batch.len;
    match (conjunct, c.data.data(), value) {
        (Predicate::Range { low, high, .. }, ColumnData::Int(v), _) => {
            keep(n, sel, c, |p| (*low <= v[p]) & (v[p] <= *high))
        }
        (_, ColumnData::Int(v), Some(Value::Int(x))) => keep(n, sel, c, |p| v[p] == *x),
        (_, ColumnData::Int(v), Some(Value::Float(x))) => {
            keep(n, sel, c, |p| (v[p] as f64).total_cmp(x).is_eq())
        }
        (_, ColumnData::Float(v), Some(Value::Int(x))) => {
            keep(n, sel, c, |p| v[p].total_cmp(&(*x as f64)).is_eq())
        }
        (_, ColumnData::Float(v), Some(Value::Float(x))) => {
            keep(n, sel, c, |p| v[p].total_cmp(x).is_eq())
        }
        (_, ColumnData::Str(v), Some(Value::Str(x))) => keep(n, sel, c, |p| *v[p] == **x),
        // A range over a non-integer column, or a value of another kind
        // than the column's (NULL included), matches nothing.
        _ => Vec::new(),
    }
}

/// The rows of `sel` (of `0..len` when `None`) whose value in `col` is not
/// NULL and passes `test`, which is given the value's position. Whether the
/// column is indexed and whether it can hold a NULL is settled here, once,
/// so the loop in [`compact`] only does what its column needs.
fn keep(len: usize, sel: Option<Vec<u32>>, col: &Col, test: impl Fn(usize) -> bool) -> Vec<u32> {
    let data = &*col.data;
    match (col.idx.as_deref(), data.has_nulls()) {
        (None, false) => compact(len, sel, test),
        (None, true) => compact(len, sel, |r| test(r) & !data.is_null(r)),
        (Some(ix), false) => compact(len, sel, |r| test(ix[r] as usize)),
        (Some(ix), true) => compact(len, sel, |r| {
            let p = ix[r] as usize;
            test(p) & !data.is_null(p)
        }),
    }
}

/// The rows of `sel` (of `0..len` when `None`) that `pass`, in order. Every
/// row is written to the output and the output only advances past it if it
/// passed: no branch depends on the data.
fn compact(len: usize, sel: Option<Vec<u32>>, pass: impl Fn(usize) -> bool) -> Vec<u32> {
    let mut k = 0;
    let mut rows = match sel {
        None => {
            let mut out = vec![0u32; len];
            for r in 0..len {
                out[k] = r as u32;
                k += usize::from(pass(r));
            }
            out
        }
        Some(mut rows) => {
            for i in 0..rows.len() {
                let r = rows[i];
                rows[k] = r;
                k += usize::from(pass(r as usize));
            }
            rows
        }
    };
    rows.truncate(k);
    rows
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

/// Strings numbered in first-seen order — ids are dense from 0 — so string
/// keys address and compare as integers like every other key. A string's
/// bytes are hashed once per distinct `Arc` that holds it: the id found for
/// an allocation is remembered under its address, and one live allocation
/// is one string, so the memo answers exactly what the bytes would. Tables
/// share one `Arc` per distinct label, so a 40k-row column hashes a few
/// dozen strings.
struct StrDict<'a> {
    table: IdTable,
    strs: Vec<&'a str>,
    /// Addresses already resolved, and what each resolved to ([`NONE`]: a
    /// string a closed dictionary lacks).
    seen: IdTable,
    seen_ids: Vec<(usize, u32)>,
}

impl<'a> StrDict<'a> {
    fn new() -> Self {
        Self {
            table: IdTable::with_capacity(0),
            strs: Vec::new(),
            // Roomy from the start: where two addresses share a slot, which
            // rows probe twice is a coin toss the branch predictor loses.
            seen: IdTable::with_capacity(512),
            seen_ids: Vec::new(),
        }
    }

    fn hash(s: &str) -> u64 {
        // FNV-1a, then one multiplication to spread it into the top bits.
        let h = s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        h.wrapping_mul(HASH_MUL)
    }

    /// What `resolve` makes of `s`, asked once per allocation.
    fn memo(&mut self, s: &'a Arc<str>, resolve: impl FnOnce(&mut Self, &'a str) -> u32) -> u32 {
        let addr = Arc::as_ptr(s).cast::<u8>() as usize;
        let seen_ids = &self.seen_ids;
        let m = self
            .seen
            .find_or_insert((addr as u64).wrapping_mul(HASH_MUL), |m| {
                seen_ids[m as usize].0 == addr
            }) as usize;
        if m == self.seen_ids.len() {
            let id = resolve(self, s);
            self.seen_ids.push((addr, id));
        }
        self.seen_ids[m].1
    }

    /// Id of `s`, or [`NONE`] if it was never interned. The first lookup
    /// closes the dictionary: the memo would repeat a [`NONE`] to a later
    /// `intern` of the same allocation.
    fn lookup(&mut self, s: &'a Arc<str>) -> u32 {
        self.memo(s, |dict, s| {
            let strs = &dict.strs;
            dict.table
                .find(Self::hash(s), |id| strs[id as usize] == s)
                .unwrap_or(NONE)
        })
    }

    /// Id of `s`, the next free one if it is new.
    fn intern(&mut self, s: &'a Arc<str>) -> u32 {
        self.memo(s, |dict, s| {
            let strs = &dict.strs;
            let id = dict
                .table
                .find_or_insert(Self::hash(s), |id| strs[id as usize] == s);
            if id as usize == dict.strs.len() {
                dict.strs.push(s);
            }
            id
        })
    }
}

/// How the rows of one side of a single-column key read as offsets into the
/// cells of a [`DirectIndex`].
enum Offsets<'a> {
    /// Integers, read where they lie in the column: `value − min`.
    Ints {
        vals: &'a [i64],
        col: &'a Col,
        min: i64,
    },
    /// Strings: their [`StrDict`] ids; [`NONE`] for a string of the probe
    /// side that the build side never held.
    Ids(Vec<u32>),
}

impl Offsets<'_> {
    /// Offset of row `r`'s key: the number of cells or more for a key the
    /// index does not hold.
    #[inline]
    fn at(&self, r: usize) -> u64 {
        match self {
            Offsets::Ints { vals, col, min } => vals[col.phys(r)].wrapping_sub(*min) as u64,
            Offsets::Ids(ids) => u64::from(ids[r]),
        }
    }
}

/// The key index of a single-column key whose values are dense: one `u32`
/// cell per value from the smallest to the largest, addressed by
/// `key − min`. A join keeps the head of each key's chain in the cells, a
/// group-by each key's group. Against the hashed index ([`IdTable`]) only
/// the cost of finding a key's cell differs — which rows meet, and in what
/// order, does not — so no result and no simulated charge can tell which
/// of the two ran.
struct DirectIndex<'a> {
    /// One cell per possible key, [`NONE`] until a caller writes it.
    cells: Vec<u32>,
    /// The rows that fill the cells: a join's build side, a group-by's input.
    build: Offsets<'a>,
    /// The rows that read them: a join's probe side; no rows for a group-by.
    probe: Offsets<'a>,
}

impl<'a> DirectIndex<'a> {
    /// The density rule, the one place that chooses direct addressing over
    /// hashing. Integer keys qualify when `max − min < 4·rows + 64` over the
    /// build side, `rows` being all the rows the index will serve: setting
    /// the cells up then costs a few `u32` writes per row at most. String
    /// keys always qualify, their dictionary ids being dense by
    /// construction. `None` sends everything else to the hashed index:
    /// multi-column keys, floats, integers compared with floats, sparse
    /// integers (a span that overflows `i64` included) and empty input.
    ///
    /// NULL slots hold their type's default and count towards the span like
    /// values; callers keep NULL rows away from the index.
    fn new(
        build: &[&'a Col],
        build_len: usize,
        probe: &[&'a Col],
        probe_len: usize,
    ) -> Option<Self> {
        let [build] = *build else { return None };
        match build.data.data() {
            ColumnData::Int(vals) => {
                let mut keys = (0..build_len).map(|r| vals[build.phys(r)]);
                let first = keys.next()?;
                let (min, max) = keys.fold((first, first), |(lo, hi), k| (lo.min(k), hi.max(k)));
                let span = u64::try_from(max.checked_sub(min)?).ok()?;
                if span >= 4 * (build_len + probe_len) as u64 + 64 {
                    return None;
                }
                let col = build;
                Some(Self {
                    cells: vec![NONE; span as usize + 1],
                    build: Offsets::Ints { vals, col, min },
                    probe: match *probe {
                        [col] => match col.data.data() {
                            ColumnData::Int(vals) => Offsets::Ints { vals, col, min },
                            _ => return None, // a float probe side: not a dense key
                        },
                        _ => Offsets::Ids(Vec::new()),
                    },
                })
            }
            ColumnData::Str(_) => {
                let mut dict = StrDict::new();
                let mut ids = |col: &'a Col, n: usize, grow: bool| match col.data.data() {
                    ColumnData::Str(strs) => {
                        let strs = (0..n).map(|r| &strs[col.phys(r)]);
                        Some(Offsets::Ids(if grow {
                            strs.map(|s| dict.intern(s)).collect()
                        } else {
                            strs.map(|s| dict.lookup(s)).collect()
                        }))
                    }
                    _ => None, // a string never equals a number
                };
                let build = ids(build, build_len, true)?;
                let probe = match *probe {
                    [p] => ids(p, probe_len, false)?,
                    _ => Offsets::Ids(Vec::new()),
                };
                Some(Self {
                    cells: vec![NONE; dict.strs.len()],
                    build,
                    probe,
                })
            }
            ColumnData::Float(_) => None,
        }
    }
}

/// How a key column's values become `u64` codes such that two values are
/// equal (as [`Value`] compares them) iff their codes are.
#[derive(Clone, Copy)]
enum KeyCode {
    /// Integers: the value itself.
    Int,
    /// Floats, and integers compared with floats: the bits of the `f64`
    /// (`total_cmp` equality is bit equality).
    Float,
    /// Strings: their number in a dictionary shared by both sides.
    Str,
}

impl KeyCode {
    fn of(dtype: DataType) -> KeyCode {
        match dtype {
            DataType::Int => KeyCode::Int,
            DataType::Float => KeyCode::Float,
            DataType::Str => KeyCode::Str,
        }
    }

    /// The code under which values of the two types compare; `None` when
    /// no value of one can equal a value of the other.
    fn common(a: DataType, b: DataType) -> Option<KeyCode> {
        match (a, b) {
            (DataType::Str, DataType::Str) => Some(KeyCode::Str),
            (DataType::Str, _) | (_, DataType::Str) => None,
            (DataType::Int, DataType::Int) => Some(KeyCode::Int),
            _ => Some(KeyCode::Float),
        }
    }
}

/// Codes of the first `n` rows of `col`; a string's code is the id `str_id`
/// gives it. NULL slots hold their type's default, so all NULLs of a column
/// share a code; callers tell them from values by [`null_rows`].
fn key_codes<'a>(
    col: &'a Col,
    n: usize,
    code: KeyCode,
    mut str_id: impl FnMut(&'a Arc<str>) -> u32,
) -> Vec<u64> {
    let phys = (0..n).map(|r| col.phys(r));
    match (col.data.data(), code) {
        (ColumnData::Int(v), KeyCode::Int) => phys.map(|p| v[p] as u64).collect(),
        (ColumnData::Int(v), _) => phys.map(|p| (v[p] as f64).to_bits()).collect(),
        (ColumnData::Float(v), _) => phys.map(|p| v[p].to_bits()).collect(),
        (ColumnData::Str(v), _) => phys.map(|p| u64::from(str_id(&v[p]))).collect(),
    }
}

/// Which of the first `n` rows of `col` are NULL; `None` when none can be.
fn null_rows(col: &Col, n: usize) -> Option<Vec<bool>> {
    col.data
        .has_nulls()
        .then(|| (0..n).map(|r| col.data.is_null(col.phys(r))).collect())
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
/// probe rows ascending and, for one probe row, build rows ascending. A NULL
/// in any key column joins nothing.
fn join_pairs(build: &[&Col], build_len: usize, probe: &[&Col], probe_len: usize) -> Pairs {
    match DirectIndex::new(build, build_len, probe, probe_len) {
        Some(index) => join_direct(index, build[0], build_len, probe[0], probe_len),
        None => join_hashed(build, build_len, probe, probe_len),
    }
}

/// [`join_pairs`] of a single-column key through its [`DirectIndex`]: each
/// cell holds the first row of its key's chain.
fn join_direct(
    index: DirectIndex<'_>,
    build: &Col,
    build_len: usize,
    probe: &Col,
    probe_len: usize,
) -> Pairs {
    let mut head = index.cells;
    let bnull = null_rows(build, build_len);
    let pnull = null_rows(probe, probe_len);
    // Build, last row first, pushing each row onto the front of its key's
    // chain: every chain ends up in ascending row order.
    let mut next: Vec<u32> = vec![NONE; build_len];
    for i in (0..build_len).rev().filter(|&i| !marked(&bnull, i)) {
        let head = &mut head[index.build.at(i) as usize];
        next[i] = *head;
        *head = i as u32;
    }
    let mut pairs = (Vec::with_capacity(probe_len), Vec::with_capacity(probe_len));
    for j in (0..probe_len).filter(|&j| !marked(&pnull, j)) {
        let first = usize::try_from(index.probe.at(j))
            .ok()
            .and_then(|o| head.get(o));
        push_chain(&mut pairs, first.copied().unwrap_or(NONE), &next, j);
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
        let Some(code) = KeyCode::common(b.data.dtype(), p.data.dtype()) else {
            return (Vec::new(), Vec::new());
        };
        // Only a string key builds a dictionary, shared by its two sides.
        let mut dict: Option<StrDict<'_>> = None;
        bkeys.codes.push(key_codes(b, build_len, code, |s| {
            dict.get_or_insert_with(StrDict::new).intern(s)
        }));
        pkeys.codes.push(key_codes(p, probe_len, code, |s| {
            dict.as_mut().map_or(NONE, |d| d.lookup(s))
        }));
        for (mask, col, n) in [(&mut bnull, b, build_len), (&mut pnull, p, probe_len)] {
            if let Some(nulls) = null_rows(col, n) {
                match mask {
                    None => *mask = Some(nulls),
                    Some(m) => m.iter_mut().zip(nulls).for_each(|(m, n)| *m |= n),
                }
            }
        }
    }

    // Build, as in `join_direct`.
    let mut table = IdTable::with_capacity(build_len);
    let mut head: Vec<u32> = Vec::new(); // first row of each key's chain
    let mut next: Vec<u32> = vec![NONE; build_len];
    for i in (0..build_len).rev().filter(|&i| !marked(&bnull, i)) {
        let id = table.find_or_insert(bkeys.hash(i), |id| {
            bkeys.eq(i, &bkeys, head[id as usize] as usize)
        }) as usize;
        if id == head.len() {
            head.push(i as u32);
        } else {
            next[i] = head[id];
            head[id] = i as u32;
        }
    }
    let mut pairs = (Vec::with_capacity(probe_len), Vec::with_capacity(probe_len));
    for j in (0..probe_len).filter(|&j| !marked(&pnull, j)) {
        let found = table.find(pkeys.hash(j), |id| {
            pkeys.eq(j, &bkeys, head[id as usize] as usize)
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
    match DirectIndex::new(keys, n, &[], 0) {
        Some(index) => group_direct(index, keys[0], n),
        None => group_hashed(keys, n),
    }
}

/// [`group_rows`] by a single-column key through its [`DirectIndex`]: each
/// cell holds its key's group, and NULL, which has no cell, its own.
fn group_direct(index: DirectIndex<'_>, key: &Col, n: usize) -> Groups {
    let mut group = index.cells;
    let mut null_group = NONE;
    let nulls = null_rows(key, n);
    let mut first_row: Vec<u32> = Vec::new();
    let of_row = (0..n)
        .map(|r| {
            let g = match marked(&nulls, r) {
                true => &mut null_group,
                false => &mut group[index.build.at(r) as usize],
            };
            if *g == NONE {
                *g = first_row.len() as u32;
                first_row.push(r as u32);
            }
            *g
        })
        .collect();
    Groups { of_row, first_row }
}

/// [`group_rows`] by any key through an [`IdTable`] over per-row codes.
fn group_hashed(keys: &[&Col], n: usize) -> Groups {
    let mut rk = Keys { codes: Vec::new() };
    for k in keys {
        let mut dict: Option<StrDict<'_>> = None;
        rk.codes
            .push(key_codes(k, n, KeyCode::of(k.data.dtype()), |s| {
                dict.get_or_insert_with(StrDict::new).intern(s)
            }));
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
            // Position in the argument column of each group's extreme; the
            // first one seen wins among equals.
            let mut best = vec![NONE; n_groups];
            let wanted = if func == AggFunc::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            if let Some(col) = arg {
                for (r, &g) in groups.of_row.iter().enumerate() {
                    let p = col.phys(r);
                    let b = &mut best[g as usize];
                    if !col.data.is_null(p)
                        && (*b == NONE || col.data.cmp_at(p, *b as usize) == wanted)
                    {
                        *b = p as u32;
                    }
                }
            }
            ordered(&|g| match (arg, best[g]) {
                (Some(col), b) if b != NONE => col.data.value(b as usize),
                _ => Value::Null,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggExpr;
    use deepsea_storage::{BlockConfig, CostWeights};

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
        Col {
            data: Arc::new(data),
            idx: idx.map(Arc::new),
        }
    }

    fn int_col(keys: &[i64]) -> Col {
        let values: Vec<Value> = keys.iter().map(|&k| Value::Int(k)).collect();
        key_col(DataType::Int, &values, None)
    }

    /// The pairs a nested loop finds: probe rows outer, build rows inner.
    fn nested_loop_pairs(build: &Col, build_len: usize, probe: &Col, probe_len: usize) -> Pairs {
        let value = |c: &Col, r: usize| c.data.value(c.phys(r));
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
        let value = |r: usize| key.data.value(key.phys(r));
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

    /// Join and group `build` (and `probe`) through both indexes and against
    /// the obvious loops; returns whether the density rule chose direct
    /// addressing for the join.
    fn check_key_indexes(build: &Col, build_len: usize, probe: &Col, probe_len: usize) -> bool {
        let (b, p) = ([build], [probe]);
        let want = nested_loop_pairs(build, build_len, probe, probe_len);
        assert_eq!(join_hashed(&b, build_len, &p, probe_len), want);
        assert_eq!(join_pairs(&b, build_len, &p, probe_len), want);
        let direct = DirectIndex::new(&b, build_len, &p, probe_len);
        let chose_direct = direct.is_some();
        if let Some(index) = direct {
            assert_eq!(join_direct(index, build, build_len, probe, probe_len), want);
        }
        for (key, n) in [(build, build_len), (probe, probe_len)] {
            let want = first_seen_groups(key, n);
            assert_eq!(group_hashed(&[key], n), want);
            assert_eq!(group_rows(&[key], n), want);
            if let Some(index) = DirectIndex::new(&[key], n, &[], 0) {
                assert_eq!(group_direct(index, key, n), want);
            }
        }
        chose_direct
    }

    #[test]
    fn direct_and_hashed_index_agree_on_both_sides_of_the_density_rule() {
        // 8 build + 6 probe rows, keys from 3 up: spans below 4·14 + 64 = 120
        // are dense.
        let probe = int_col(&[7, 122, 3, 7, -1, 123]);
        for (max, dense) in [(20, true), (122, true), (123, false), (5_000, false)] {
            let build = int_col(&[7, 3, max, 7, 9, 3, 7, 8]);
            assert_eq!(check_key_indexes(&build, 8, &probe, 6), dense, "max {max}");
        }
        // Alone, a side's own rows set the bound: 6 rows, 4·6 + 64 = 88.
        assert!(DirectIndex::new(&[&probe], 6, &[], 0).is_none());
        assert!(DirectIndex::new(&[&int_col(&[0, 87])], 2, &[], 0).is_none());
        assert!(DirectIndex::new(&[&int_col(&[0, 71])], 2, &[], 0).is_some());

        // Indexed columns (a join's output, a selection's) read through
        // their index vector; only its rows count.
        let build = Col {
            idx: Some(Arc::new(vec![7, 0, 0, 4, 1])),
            ..int_col(&[7, 3, 1 << 40, 7, 9, 3, 7, 8])
        };
        assert!(check_key_indexes(&build, 5, &probe, 6));

        // Strings are dense whatever they hold; equal strings in distinct
        // allocations are one key, and a probe string may be new.
        let strs = |keys: &[&str]| {
            let values: Vec<Value> = keys.iter().map(Value::str).collect();
            key_col(DataType::Str, &values, None)
        };
        let build = strs(&["b", "a", "", "b", "zz", "a"]);
        let probe = strs(&["a", "q", "b", "", "a"]);
        assert!(check_key_indexes(&build, 6, &probe, 5));

        // Floats, an integer against a float, two columns, no rows: hashed.
        let floats = key_col(
            DataType::Float,
            &[Value::Float(3.0), Value::Float(7.0)],
            None,
        );
        let ints = int_col(&[7, 3, 7]);
        assert!(!check_key_indexes(&floats, 2, &floats, 2));
        assert!(!check_key_indexes(&ints, 3, &floats, 2));
        assert!(!check_key_indexes(&ints, 0, &ints, 3));
        assert!(DirectIndex::new(&[&ints, &ints], 3, &[&ints, &ints], 3).is_none());
        // A string never equals a number.
        assert_eq!(join_pairs(&[&build], 6, &[&ints], 3), (vec![], vec![]));
    }

    #[test]
    fn key_span_overflowing_i64_is_hashed() {
        let build = int_col(&[i64::MIN, i64::MAX, 0, i64::MAX, -1]);
        let probe = int_col(&[i64::MAX, 1, i64::MIN, 0]);
        assert!(!check_key_indexes(&build, 5, &probe, 4));
        // A span that fits `i64` but no table does not wrap into range.
        let build = int_col(&[-1_000_000_000_000, 1_000_000_000_000, 5]);
        assert!(!check_key_indexes(&build, 3, &probe, 4));
        // Dense keys at the edge of the domain stay direct.
        let build = int_col(&[i64::MAX, i64::MAX - 3, i64::MAX]);
        assert!(check_key_indexes(&build, 3, &probe, 4));
        let build = int_col(&[i64::MIN + 2, i64::MIN]);
        assert!(check_key_indexes(&build, 2, &probe, 4));
    }

    #[test]
    fn null_keys_join_nothing_and_group_together() {
        // NULL slots hold 0, a key both sides also hold for real.
        let build = [Value::Int(0), Value::Null, Value::Int(2), Value::Null];
        let probe = [Value::Null, Value::Int(0), Value::Int(2), Value::Null];
        let build = key_col(DataType::Int, &build, None);
        let probe = key_col(DataType::Int, &probe, None);
        assert!(check_key_indexes(&build, 4, &probe, 4));
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
        assert!(!check_key_indexes(&sparse, 3, &probe, 4));
        let strs = [Value::str(""), Value::Null, Value::str("x"), Value::Null];
        let strs = key_col(DataType::Str, &strs, None);
        assert!(check_key_indexes(&strs, 4, &strs, 4));
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
                let row = |r: usize| -> Vec<Value> {
                    cols.iter().map(|c| c.data.value(c.phys(r))).collect()
                };
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
    fn aggregate_rows_sorted_deterministically() {
        let (c, fs) = fixture();
        let plan =
            LogicalPlan::scan("sales").aggregate(vec!["s.item"], vec![AggExpr::count("cnt")]);
        let (t1, _) = execute(&plan, &c, &fs).unwrap();
        let (t2, _) = execute(&plan, &c, &fs).unwrap();
        assert_eq!(t1, t2);
    }
}
