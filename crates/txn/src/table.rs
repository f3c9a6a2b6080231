//! Versioned columnar table storage.
//!
//! A [`DataTable`] is a list of *row groups*; each group holds up to
//! [`ROW_GROUP_SIZE`] rows as one `Vector` per column plus MVCC metadata:
//! per-row insert/delete stamps, per-row update stamps (first-updater-wins
//! conflict detection), an undo chain of prior values for in-place updates
//! (§6), and per-column zone maps that let scans skip whole groups ("the
//! format allows to scan individual columns and skip irrelevant blocks of
//! rows during a scan").
//!
//! Appends are columnar: [`DataTable::append_chunk`] computes each
//! column's `(min, max)` once per appended range with the typed kernel
//! [`Vector::min_max`], before taking the group's write lock, and feeds
//! the pair to the zone map and to the transaction's write summary. NULL
//! and NaN never enter a zone map (see [`Vector::min_max`]).
//!
//! Stamps are interpreted by magnitude (see [`crate::manager`]): values
//! below [`TXN_ID_START`] are commit timestamps, values above are live
//! transaction ids, and `u64::MAX` on a delete stamp means "not deleted".

use crate::manager::{DeleteRecord, InsertRecord, Transaction, TXN_ID_START};
use crate::predicate::{ReadPredicate, TableFilter};
use crate::stats::{ColumnStats, TableStats};
use eider_vector::{
    DataChunk, EiderError, LogicalType, Result, SelectionVector, Value, Vector, VECTOR_SIZE,
};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Rows per row group: 60 vectors of 2048, matching DuckDB's layout.
pub const ROW_GROUP_SIZE: usize = 60 * VECTOR_SIZE;

/// Sentinel delete stamp: row is live.
const NOT_DELETED: u64 = u64::MAX;

static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// Physical position of a row: (row group index, row within group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId {
    pub group: u32,
    pub row: u32,
}

impl RowId {
    /// Pack into an i64 for transport in a BigInt column.
    pub fn encode(self) -> i64 {
        ((self.group as i64) << 32) | self.row as i64
    }

    pub fn decode(v: i64) -> RowId {
        RowId { group: (v >> 32) as u32, row: (v & 0xFFFF_FFFF) as u32 }
    }
}

/// One prior value saved by an in-place update.
#[derive(Debug)]
struct UndoEntry {
    row: u32,
    column: u32,
    prior: Value,
    /// The row's update stamp before this transaction stamped it.
    prior_stamp: u64,
    /// Live txn id while uncommitted; commit timestamp afterwards.
    ts: u64,
}

struct RowGroupInner {
    columns: Vec<Vector>,
    insert_ids: Vec<u64>,
    delete_ids: Vec<u64>,
    /// Lazily allocated: most groups are never updated.
    update_stamps: Option<Vec<u64>>,
    /// Undo entries bucketed by vector-sized window (`row / VECTOR_SIZE`),
    /// so a scan walks only its window's entries, not the whole group's.
    undo: Vec<Vec<UndoEntry>>,
    /// Per column: (min, max) over all non-NULL, non-NaN values ever
    /// present. Only widened, never narrowed, so it stays conservative
    /// w.r.t. undo reconstruction.
    zone_maps: Vec<Option<(Value, Value)>>,
}

impl RowGroupInner {
    fn new(types: &[LogicalType]) -> Self {
        RowGroupInner {
            columns: types.iter().map(|&t| Vector::with_capacity(t, 0)).collect(),
            insert_ids: Vec::new(),
            delete_ids: Vec::new(),
            update_stamps: None,
            undo: (0..ROW_GROUP_SIZE.div_ceil(VECTOR_SIZE)).map(|_| Vec::new()).collect(),
            zone_maps: vec![None; types.len()],
        }
    }

    fn len(&self) -> usize {
        self.insert_ids.len()
    }

    /// Widen a column's zone map to cover `[lo, hi]`. NULL and NaN never
    /// enter: a NULL matches no comparison filter, and a NaN bound,
    /// comparing equal to every number, would freeze the map.
    fn widen_zone(&mut self, column: usize, lo: &Value, hi: &Value) {
        if lo.is_null() || lo.is_nan() {
            return;
        }
        match &mut self.zone_maps[column] {
            Some((min, max)) => {
                if lo.total_cmp(min) == std::cmp::Ordering::Less {
                    *min = lo.clone();
                }
                if hi.total_cmp(max) == std::cmp::Ordering::Greater {
                    *max = hi.clone();
                }
            }
            slot @ None => *slot = Some((lo.clone(), hi.clone())),
        }
    }

    fn stamps_mut(&mut self) -> &mut Vec<u64> {
        let len = self.len();
        self.update_stamps.get_or_insert_with(|| vec![0; len])
    }

    /// Run the stats-driven encoding chooser over every column once the
    /// group is full. Encoded columns flow through scans unchanged
    /// (slice/select preserve encodings), so downstream hash, key and
    /// aggregate kernels operate on codes; an in-place update simply
    /// flattens the touched column.
    fn compress_columns(&mut self) {
        for col in &mut self.columns {
            if let Some(encoded) = col.encode_auto() {
                *col = encoded;
            }
        }
    }

    fn stamp_of(&self, row: usize) -> u64 {
        self.update_stamps.as_ref().map_or(0, |s| s[row])
    }
}

/// Is a row visible to a snapshot (`start_ts`) / transaction (`txn_id`)?
#[inline]
fn visible(insert_id: u64, delete_id: u64, start_ts: u64, txn_id: u64) -> bool {
    let inserted = insert_id == txn_id || insert_id <= start_ts;
    let deleted = delete_id == txn_id || delete_id <= start_ts;
    inserted && !deleted
}

/// Should an undo entry's prior value override the in-place value for this
/// snapshot? (Entry written after my snapshot, or by a live transaction
/// that is not me.)
#[inline]
fn undo_applies(entry_ts: u64, start_ts: u64, txn_id: u64) -> bool {
    entry_ts > start_ts && entry_ts != txn_id
}

/// What a scan should produce.
#[derive(Debug, Clone, Default)]
pub struct ScanOptions {
    /// Physical column indexes to output, in order.
    pub columns: Vec<usize>,
    /// Pushed-down filters (ANDed), evaluated snapshot-consistently and
    /// used for zone-map group skipping.
    pub filters: Vec<TableFilter>,
    /// Append a trailing BigInt column with encoded [`RowId`]s (used by
    /// UPDATE/DELETE plans).
    pub emit_row_ids: bool,
}

impl ScanOptions {
    /// Column types a scan with these options produces over `table` —
    /// the single source of truth shared by the serial scan operator,
    /// the morsel scan and the parallel planner.
    pub fn output_types(&self, table: &DataTable) -> Vec<LogicalType> {
        let mut types: Vec<LogicalType> = self.columns.iter().map(|&c| table.types()[c]).collect();
        if self.emit_row_ids {
            types.push(LogicalType::BigInt);
        }
        types
    }
}

/// Cursor state for a chunk-at-a-time scan.
///
/// A state either covers the whole table ([`DataTable::begin_scan`]) or a
/// single-group row range ([`DataTable::begin_scan_range`]), which is the
/// granularity the morsel-driven parallel executor hands to its workers.
pub struct TableScanState {
    group: usize,
    offset: usize,
    /// Bounded scans: `(group, row_end)` — the scan covers rows
    /// `[offset, row_end)` of exactly `group` and nothing else.
    bound: Option<(usize, usize)>,
    /// Zone maps are consulted once per visited group.
    zone_checked: bool,
}

/// A versioned, columnar table.
pub struct DataTable {
    id: u64,
    types: Vec<LogicalType>,
    groups: RwLock<Vec<Arc<RwLock<RowGroupInner>>>>,
    /// Bumped by every mutation that could move [`DataTable::table_stats`];
    /// tags the memoized snapshot below so planning a read-mostly table
    /// costs one atomic load + `Arc` clone instead of a metadata walk.
    stats_version: AtomicU64,
    stats_cache: RwLock<Option<(u64, Arc<TableStats>)>>,
}

impl std::fmt::Debug for DataTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataTable")
            .field("id", &self.id)
            .field("types", &self.types)
            .field("groups", &self.groups.read().len())
            .finish()
    }
}

impl DataTable {
    pub fn new(types: Vec<LogicalType>) -> Arc<Self> {
        Arc::new(DataTable {
            id: NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed),
            types,
            groups: RwLock::new(Vec::new()),
            stats_version: AtomicU64::new(0),
            stats_cache: RwLock::new(None),
        })
    }

    /// Invalidate the memoized [`DataTable::table_stats`] snapshot.
    fn note_mutation(&self) {
        self.stats_version.fetch_add(1, Ordering::Release);
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn types(&self) -> &[LogicalType] {
        &self.types
    }

    pub fn column_count(&self) -> usize {
        self.types.len()
    }

    pub fn row_group_count(&self) -> usize {
        self.groups.read().len()
    }

    /// Total physical rows (including dead versions).
    pub fn physical_rows(&self) -> usize {
        self.groups.read().iter().map(|g| g.read().len()).sum()
    }

    /// Append a chunk of rows, visible to `txn` immediately and to others
    /// after commit. This is the bulk-append path of §2.
    pub fn append_chunk(self: &Arc<Self>, txn: &Transaction, chunk: &DataChunk) -> Result<()> {
        if chunk.types() != self.types {
            return Err(EiderError::TypeMismatch(format!(
                "appended chunk types {:?} do not match table types {:?}",
                chunk.types(),
                self.types
            )));
        }
        self.note_mutation();
        txn.note_write();
        let mut offset = 0usize;
        while offset < chunk.len() {
            // Find (or create) a group with space.
            let (group_arc, group_idx, start) = {
                let mut groups = self.groups.write();
                let mut start = groups.last().map_or(ROW_GROUP_SIZE, |g| g.read().len());
                if start >= ROW_GROUP_SIZE {
                    groups.push(Arc::new(RwLock::new(RowGroupInner::new(&self.types))));
                    start = 0;
                }
                let idx = groups.len() - 1;
                (Arc::clone(&groups[idx]), idx, start)
            };
            let count = (ROW_GROUP_SIZE - start).min(chunk.len() - offset);
            let rows = offset..offset + count;
            // Bounds of the appended range, one typed pass per column,
            // computed before the group's write lock is taken.
            let bounds: Vec<_> =
                chunk.columns().iter().map(|col| col.min_max(rows.clone())).collect();
            let mut g = group_arc.write();
            if g.len() != start {
                continue; // a concurrent append moved the group's end; retry
            }
            for (c, col) in g.columns.iter_mut().enumerate() {
                col.append_from(chunk.column(c), offset, count)?;
            }
            g.insert_ids.extend(std::iter::repeat_n(txn.id(), count));
            g.delete_ids.extend(std::iter::repeat_n(NOT_DELETED, count));
            if let Some(stamps) = g.update_stamps.as_mut() {
                stamps.extend(std::iter::repeat_n(0u64, count));
            }
            for (c, b) in bounds.iter().enumerate() {
                if let Some((lo, hi)) = b {
                    g.widen_zone(c, lo, hi);
                }
            }
            if g.len() >= ROW_GROUP_SIZE {
                g.compress_columns();
            }
            drop(g);
            let mut state = txn.state.lock();
            state.inserts.push(InsertRecord {
                table: Arc::clone(self),
                group: group_idx,
                start,
                count,
            });
            // Inserted values participate in conflict detection (phantoms).
            for (c, b) in bounds.into_iter().enumerate() {
                if let Some((lo, hi)) = b {
                    state.summary.merge_range(self.id, c, lo, hi);
                }
            }
            drop(state);
            offset += count;
        }
        Ok(())
    }

    /// Begin a scan; records the read predicates on the transaction.
    pub fn begin_scan(&self, txn: &Transaction, opts: &ScanOptions) -> TableScanState {
        self.record_scan_read(txn, opts);
        TableScanState { group: 0, offset: 0, bound: None, zone_checked: false }
    }

    /// Record the read predicates a scan with `opts` implies, without
    /// creating a cursor. The parallel executor calls this once per scan
    /// while its workers cursor over row ranges via
    /// [`DataTable::begin_scan_range`] (which deliberately does *not*
    /// record, to avoid one predicate per morsel).
    pub fn record_scan_read(&self, txn: &Transaction, opts: &ScanOptions) {
        if opts.filters.is_empty() {
            txn.record_read(ReadPredicate::whole_table(self.id));
        } else {
            for f in &opts.filters {
                txn.record_read(ReadPredicate::from_filter(self.id, f));
            }
        }
    }

    /// Begin a bounded scan over rows `[row_begin, row_end)` of one row
    /// group — a *morsel*. Visibility, undo reconstruction, filters and
    /// zone maps behave exactly as in a full scan restricted to that
    /// window. Does not record read predicates; see
    /// [`DataTable::record_scan_read`].
    pub fn begin_scan_range(
        &self,
        group: usize,
        row_begin: usize,
        row_end: usize,
    ) -> TableScanState {
        TableScanState {
            group,
            offset: row_begin,
            bound: Some((group, row_end)),
            zone_checked: false,
        }
    }

    /// Per-group *physical* row counts (dead and uncommitted versions
    /// included) — the morsel source's work list; visibility is applied
    /// later, inside [`DataTable::scan_next`]. Groups appended after this
    /// snapshot are simply not part of the scan, matching what a serial
    /// scan racing the same appends would observe under snapshot
    /// isolation.
    pub fn group_sizes(&self) -> Vec<usize> {
        self.groups.read().iter().map(|g| g.read().len()).collect()
    }

    /// Conservative group-level pruning test: `true` when `group`'s zone
    /// maps prove no row can satisfy `filters` — the same test
    /// [`DataTable::scan_next`] applies per cursor, exposed so the
    /// morsel-driven scheduler can drop whole groups from its work list
    /// before any worker claims a morsel in them. Groups with undo
    /// entries are never pruned (zone maps only widen, but pruning here
    /// mirrors the serial scan's belt-and-braces rule exactly).
    pub fn group_prunable(&self, group: usize, filters: &[TableFilter]) -> bool {
        if filters.is_empty() {
            return false;
        }
        let group_arc = {
            let groups = self.groups.read();
            match groups.get(group) {
                Some(g) => Arc::clone(g),
                None => return false,
            }
        };
        let g = group_arc.read();
        if g.undo.iter().any(|w| !w.is_empty()) || g.len() == 0 {
            return false;
        }
        filters.iter().any(|f| match &g.zone_maps[f.column] {
            Some((min, max)) => !f.zone_may_match(min, max),
            None => true, // all-NULL column never matches a filter
        })
    }

    /// Produce the next chunk (≤ [`VECTOR_SIZE`] rows) of the scan, or
    /// `None` when exhausted. Rows are reconstructed for the transaction's
    /// snapshot: stamps decide visibility and undo chains roll values back.
    pub fn scan_next(
        &self,
        txn: &Transaction,
        opts: &ScanOptions,
        state: &mut TableScanState,
    ) -> Result<Option<DataChunk>> {
        loop {
            if let Some((bound_group, _)) = state.bound {
                if state.group != bound_group {
                    return Ok(None);
                }
            }
            let group_arc = {
                let groups = self.groups.read();
                match groups.get(state.group) {
                    Some(g) => Arc::clone(g),
                    None => return Ok(None),
                }
            };
            let g = group_arc.read();
            let has_undo = g.undo.iter().any(|w| !w.is_empty());
            if !state.zone_checked && !opts.filters.is_empty() && !has_undo {
                // Zone-map skipping for the whole group. Groups with undo
                // entries still pass (maps only widen, so this is already
                // conservative; the check is just belt-and-braces).
                let skip = opts.filters.iter().any(|f| match &g.zone_maps[f.column] {
                    Some((min, max)) => !f.zone_may_match(min, max),
                    None => g.len() > 0, // all-NULL column never matches
                });
                if skip && g.len() > 0 {
                    drop(g);
                    state.group += 1;
                    state.offset = 0;
                    state.zone_checked = false;
                    continue;
                }
            }
            state.zone_checked = true;
            let group_end = match state.bound {
                Some((_, row_end)) => row_end.min(g.len()),
                None => g.len(),
            };
            if state.offset >= group_end {
                drop(g);
                state.group += 1;
                state.offset = 0;
                state.zone_checked = false;
                continue;
            }
            let lo = state.offset;
            let hi = (lo + VECTOR_SIZE).min(group_end);
            state.offset = hi;

            // 1. Visibility. Cold windows — every row committed before
            // this snapshot, nothing ever deleted, the analytical common
            // case — are recognized with two branch-free sweeps; only
            // windows with in-flight or undone rows take the per-row walk.
            let all_visible = g.insert_ids[lo..hi].iter().all(|&id| id <= txn.start_ts())
                && g.delete_ids[lo..hi].iter().all(|&id| id == NOT_DELETED);
            let mut sel: Vec<u32> = Vec::with_capacity(hi - lo);
            if all_visible {
                sel.extend(0..(hi - lo) as u32);
            } else {
                for row in lo..hi {
                    if visible(g.insert_ids[row], g.delete_ids[row], txn.start_ts(), txn.id()) {
                        sel.push((row - lo) as u32);
                    }
                }
            }
            if sel.is_empty() {
                continue;
            }

            // 2. Materialize the window of every needed column and apply
            //    undo overrides for this snapshot.
            let mut needed: Vec<usize> = opts.columns.clone();
            for f in &opts.filters {
                if !needed.contains(&f.column) {
                    needed.push(f.column);
                }
            }
            let mut window: Vec<(usize, Vector)> = Vec::with_capacity(needed.len());
            let undo = &g.undo[lo / VECTOR_SIZE..=(hi - 1) / VECTOR_SIZE];
            for &c in &needed {
                let mut vec = g.columns[c].slice(lo, hi - lo);
                for entry in undo.iter().flat_map(|w| w.iter().rev()) {
                    if entry.column as usize == c
                        && (entry.row as usize) >= lo
                        && (entry.row as usize) < hi
                        && undo_applies(entry.ts, txn.start_ts(), txn.id())
                    {
                        vec.set_value(entry.row as usize - lo, &entry.prior)?;
                    }
                }
                window.push((c, vec));
            }
            let col_vec = |c: usize| -> &Vector {
                &window.iter().find(|(idx, _)| *idx == c).expect("materialized").1
            };

            // 3. Filters refine the selection.
            for f in &opts.filters {
                f.filter_vector(col_vec(f.column), &mut sel);
                if sel.is_empty() {
                    break;
                }
            }
            if sel.is_empty() {
                continue;
            }

            // 4. Output. When every row of the window survived (fully
            // visible, filters dropped nothing — the common case on cold
            // analytical data) the sliced windows ARE the output: skip the
            // gather, which would copy every string a second time.
            let distinct_columns =
                opts.columns.iter().enumerate().all(|(i, c)| !opts.columns[..i].contains(c));
            let full_window = sel.len() == hi - lo && distinct_columns;
            let mut out: Vec<Vector> = Vec::with_capacity(opts.columns.len() + 1);
            if full_window {
                for &c in &opts.columns {
                    let (_, vec) =
                        window.iter_mut().find(|(idx, _)| *idx == c).expect("materialized");
                    out.push(std::mem::replace(vec, Vector::new(LogicalType::Boolean)));
                }
            } else {
                let selvec = SelectionVector::from_indexes(sel.clone());
                for &c in &opts.columns {
                    out.push(col_vec(c).select(&selvec));
                }
            }
            if opts.emit_row_ids {
                let mut ids = Vector::with_capacity(LogicalType::BigInt, sel.len());
                for &rel in &sel {
                    let rid = RowId { group: state.group as u32, row: (lo + rel as usize) as u32 };
                    ids.push_value(&Value::BigInt(rid.encode()))?;
                }
                out.push(ids);
            }
            return Ok(Some(DataChunk::from_vectors(out)?));
        }
    }

    /// Convenience: run a whole scan to completion.
    pub fn scan_collect(&self, txn: &Transaction, opts: &ScanOptions) -> Result<Vec<DataChunk>> {
        let mut state = self.begin_scan(txn, opts);
        let mut chunks = Vec::new();
        while let Some(chunk) = self.scan_next(txn, opts, &mut state)? {
            chunks.push(chunk);
        }
        Ok(chunks)
    }

    /// Number of rows visible to `txn`.
    pub fn count_visible(&self, txn: &Transaction) -> usize {
        let groups = self.groups.read();
        let mut count = 0;
        for group in groups.iter() {
            let g = group.read();
            for row in 0..g.len() {
                if visible(g.insert_ids[row], g.delete_ids[row], txn.start_ts(), txn.id()) {
                    count += 1;
                }
            }
        }
        count
    }

    /// In-place update of one column for the given rows (the §2 bulk-update
    /// path: `UPDATE t SET d = NULL WHERE d = -999` arrives here as row ids
    /// plus a vector of new values for the single changed column — other
    /// columns are untouched). First-updater-wins: a row concurrently
    /// updated or deleted aborts this transaction with `Conflict`.
    pub fn update_rows(
        self: &Arc<Self>,
        txn: &Transaction,
        rows: &[RowId],
        column: usize,
        new_values: &Vector,
    ) -> Result<usize> {
        if new_values.len() != rows.len() {
            return Err(EiderError::Internal("update_rows: value count != row count".into()));
        }
        if column >= self.types.len() {
            return Err(EiderError::Internal(format!("no column {column}")));
        }
        self.note_mutation();
        txn.note_write();
        let mut updated = 0usize;
        let mut i = 0usize;
        while i < rows.len() {
            let group_idx = rows[i].group;
            let mut j = i;
            while j < rows.len() && rows[j].group == group_idx {
                j += 1;
            }
            let group_arc = {
                let groups = self.groups.read();
                Arc::clone(groups.get(group_idx as usize).ok_or_else(|| {
                    EiderError::Internal(format!("row group {group_idx} out of range"))
                })?)
            };
            let mut g = group_arc.write();
            // Conflict-check the whole batch first so we fail before
            // mutating anything in this group.
            for rid in &rows[i..j] {
                let row = rid.row as usize;
                if row >= g.len() {
                    return Err(EiderError::Internal(format!("row {row} out of range")));
                }
                let del = g.delete_ids[row];
                if del != NOT_DELETED && (del == txn.id() || del > txn.start_ts()) {
                    return Err(EiderError::Conflict(
                        "row was deleted by a concurrent transaction".into(),
                    ));
                }
                let stamp = g.stamp_of(row);
                if stamp != txn.id() && stamp > txn.start_ts() {
                    return Err(EiderError::Conflict(
                        "row was updated by a concurrent transaction (first-updater-wins)".into(),
                    ));
                }
            }
            // Old and new values' range (NULL and NaN left out, as the
            // write summary does), merged into the summary once the group
            // lock is released: readers wait on that lock.
            let mut written: Option<(Value, Value)> = None;
            let mut widen = |v: &Value| match &mut written {
                _ if v.is_null() || v.is_nan() => {}
                Some((lo, _)) if v.total_cmp(lo).is_lt() => *lo = v.clone(),
                Some((_, hi)) if v.total_cmp(hi).is_gt() => *hi = v.clone(),
                Some(_) => {}
                None => written = Some((v.clone(), v.clone())),
            };
            for (k, rid) in rows[i..j].iter().enumerate() {
                let row = rid.row as usize;
                let prior = g.columns[column].get_value(row);
                let prior_stamp = g.stamp_of(row);
                g.stamps_mut()[row] = txn.id();
                let new_v = new_values.get_value(i + k);
                g.columns[column].set_value(row, &new_v)?;
                g.widen_zone(column, &new_v, &new_v);
                widen(&prior);
                widen(&new_v);
                g.undo[row / VECTOR_SIZE].push(UndoEntry {
                    row: rid.row,
                    column: column as u32,
                    prior,
                    prior_stamp,
                    ts: txn.id(),
                });
                updated += 1;
            }
            drop(g);
            let mut state = txn.state.lock();
            if let Some((lo, hi)) = written {
                state.summary.merge_range(self.id, column, lo, hi);
            }
            state.note_updated_group(self, group_idx as usize);
            drop(state);
            i = j;
        }
        Ok(updated)
    }

    /// Delete rows (§2 bulk deletes). First-updater-wins conflicts apply.
    pub fn delete_rows(self: &Arc<Self>, txn: &Transaction, rows: &[RowId]) -> Result<usize> {
        self.note_mutation();
        txn.note_write();
        let mut deleted = 0usize;
        let mut i = 0usize;
        while i < rows.len() {
            let group_idx = rows[i].group;
            let mut j = i;
            while j < rows.len() && rows[j].group == group_idx {
                j += 1;
            }
            let group_arc = {
                let groups = self.groups.read();
                Arc::clone(groups.get(group_idx as usize).ok_or_else(|| {
                    EiderError::Internal(format!("row group {group_idx} out of range"))
                })?)
            };
            let mut g = group_arc.write();
            for rid in &rows[i..j] {
                let row = rid.row as usize;
                let del = g.delete_ids[row];
                if del == txn.id() {
                    continue; // idempotent within the transaction
                }
                if del != NOT_DELETED && del > txn.start_ts() {
                    return Err(EiderError::Conflict(
                        "row was deleted by a concurrent transaction".into(),
                    ));
                }
                let stamp = g.stamp_of(row);
                if stamp != txn.id() && stamp > txn.start_ts() {
                    return Err(EiderError::Conflict(
                        "row was updated by a concurrent transaction".into(),
                    ));
                }
            }
            let mut batch_rows = Vec::with_capacity(j - i);
            let mut state = txn.state.lock();
            for rid in &rows[i..j] {
                let row = rid.row as usize;
                if g.delete_ids[row] == txn.id() {
                    continue;
                }
                g.delete_ids[row] = txn.id();
                batch_rows.push(rid.row);
                // Deleted rows' values affect membership of any predicate.
                for c in 0..self.types.len() {
                    let v = g.columns[c].get_value(row);
                    state.summary.merge_value(self.id, c, &v);
                }
                deleted += 1;
            }
            if !batch_rows.is_empty() {
                state.deletes.push(DeleteRecord {
                    table: Arc::clone(self),
                    group: group_idx as usize,
                    rows: batch_rows,
                });
            }
            drop(state);
            drop(g);
            i = j;
        }
        Ok(deleted)
    }

    // ---- commit / rollback hooks (called by the transaction manager) ----

    pub(crate) fn finalize_insert(&self, group: usize, start: usize, count: usize, commit_ts: u64) {
        let group_arc = Arc::clone(&self.groups.read()[group]);
        let mut g = group_arc.write();
        for row in start..start + count {
            g.insert_ids[row] = commit_ts;
        }
    }

    pub(crate) fn invalidate_insert(&self, group: usize, start: usize, count: usize) {
        // Rolled-back inserts keep their (dead, unique) txn id in
        // insert_ids, which no snapshot ever matches; mark them deleted at
        // ts 0 as well so vacuum can reclaim them.
        self.note_mutation();
        let group_arc = Arc::clone(&self.groups.read()[group]);
        let mut g = group_arc.write();
        for row in start..start + count {
            g.delete_ids[row] = 0;
        }
    }

    pub(crate) fn finalize_updates(&self, group: usize, txn_id: u64, commit_ts: u64) {
        let group_arc = Arc::clone(&self.groups.read()[group]);
        let mut g = group_arc.write();
        let mut rows = Vec::new();
        for entry in g.undo.iter_mut().flatten() {
            if entry.ts == txn_id {
                entry.ts = commit_ts;
                rows.push(entry.row as usize);
            }
        }
        let stamps = g.stamps_mut();
        for row in rows {
            if stamps[row] == txn_id {
                stamps[row] = commit_ts;
            }
        }
    }

    pub(crate) fn rollback_updates(&self, group: usize, txn_id: u64) {
        self.note_mutation();
        let group_arc = Arc::clone(&self.groups.read()[group]);
        let mut g = group_arc.write();
        // Walk newest-to-oldest restoring prior values and stamps; the
        // final restoration for a row is its oldest entry, i.e. the state
        // at transaction start.
        for w in 0..g.undo.len() {
            let mut i = g.undo[w].len();
            while i > 0 {
                i -= 1;
                if g.undo[w][i].ts == txn_id {
                    let entry = g.undo[w].remove(i);
                    let row = entry.row as usize;
                    let _ = g.columns[entry.column as usize].set_value(row, &entry.prior);
                    g.stamps_mut()[row] = entry.prior_stamp;
                }
            }
        }
    }

    pub(crate) fn finalize_delete(&self, group: usize, rows: &[u32], commit_ts: u64) {
        let group_arc = Arc::clone(&self.groups.read()[group]);
        let mut g = group_arc.write();
        for &row in rows {
            g.delete_ids[row as usize] = commit_ts;
        }
    }

    pub(crate) fn rollback_delete(&self, group: usize, rows: &[u32]) {
        let group_arc = Arc::clone(&self.groups.read()[group]);
        let mut g = group_arc.write();
        for &row in rows {
            g.delete_ids[row as usize] = NOT_DELETED;
        }
    }

    /// Drop undo entries no snapshot older than `horizon` can need.
    /// Returns the number reclaimed.
    pub(crate) fn vacuum_versions(&self, horizon: u64) -> usize {
        let groups: Vec<_> = self.groups.read().iter().cloned().collect();
        let mut reclaimed = 0;
        for group in groups {
            let mut g = group.write();
            for window in &mut g.undo {
                let before = window.len();
                window.retain(|e| !(e.ts < TXN_ID_START && e.ts <= horizon));
                reclaimed += before - window.len();
            }
        }
        reclaimed
    }

    /// Total undo entries currently held (test/diagnostic handle).
    pub fn undo_len(&self) -> usize {
        self.groups.read().iter().map(|g| g.read().undo.iter().map(Vec::len).sum::<usize>()).sum()
    }

    /// Zone map of a column in a group, if any (test/diagnostic handle).
    pub fn zone_map(&self, group: usize, column: usize) -> Option<(Value, Value)> {
        let groups = self.groups.read();
        let g = groups.get(group)?.read();
        g.zone_maps.get(column)?.clone()
    }

    /// On-demand statistics for the cost-based optimizer.
    ///
    /// Row count is the physical count (dead versions included — an upper
    /// bound on any snapshot). Min/max merge the per-group zone maps.
    /// Distinct estimates sum per-group evidence: the encoding chooser's
    /// dictionary size or run count where a column is encoded, the
    /// zone-map width for integer columns, and the group length otherwise
    /// — each clamped to the group's rows, the sum clamped to the table's.
    /// Because zone maps only widen and physical rows only grow, the
    /// estimates stay conservative across appends, deletes and rollbacks.
    ///
    /// The snapshot is memoized against `note_mutation`'s
    /// version counter: planning over a read-mostly table costs one atomic
    /// load and an `Arc` clone, not a metadata walk per estimate. A
    /// mutation racing the recompute can at worst tag slightly *newer*
    /// stats with the older version — still a valid conservative snapshot.
    pub fn table_stats(&self) -> Arc<TableStats> {
        let version = self.stats_version.load(Ordering::Acquire);
        if let Some((v, stats)) = &*self.stats_cache.read() {
            if *v == version {
                return Arc::clone(stats);
            }
        }
        let stats = Arc::new(self.compute_stats());
        *self.stats_cache.write() = Some((version, Arc::clone(&stats)));
        stats
    }

    fn compute_stats(&self) -> TableStats {
        let groups = self.groups.read();
        let mut row_count = 0u64;
        let mut columns = vec![ColumnStats::default(); self.types.len()];
        for group in groups.iter() {
            let g = group.read();
            let rows = g.len() as u64;
            row_count += rows;
            for (c, stat) in columns.iter_mut().enumerate() {
                if let Some((lo, hi)) = &g.zone_maps[c] {
                    match &mut stat.min {
                        Some(m) if lo.total_cmp(m) != std::cmp::Ordering::Less => {}
                        slot => *slot = Some(lo.clone()),
                    }
                    match &mut stat.max {
                        Some(m) if hi.total_cmp(m) != std::cmp::Ordering::Greater => {}
                        slot => *slot = Some(hi.clone()),
                    }
                }
                let ndv = g.columns[c]
                    .distinct_estimate()
                    .or_else(|| match &g.zone_maps[c] {
                        Some((lo, hi)) if self.types[c].is_integral() => {
                            let (lo, hi) = (lo.as_i64()?, hi.as_i64()?);
                            Some(hi.saturating_sub(lo).unsigned_abs().saturating_add(1))
                        }
                        _ => None,
                    })
                    .unwrap_or(rows);
                stat.distinct = stat.distinct.saturating_add(ndv.min(rows));
            }
        }
        for stat in &mut columns {
            stat.distinct = stat.distinct.min(row_count);
        }
        TableStats { row_count, columns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::TransactionManager;
    use crate::predicate::CmpOp;

    fn int_table() -> Arc<DataTable> {
        DataTable::new(vec![LogicalType::Integer, LogicalType::Varchar])
    }

    fn chunk(vals: &[(i32, &str)]) -> DataChunk {
        DataChunk::from_rows(
            &[LogicalType::Integer, LogicalType::Varchar],
            &vals
                .iter()
                .map(|(i, s)| vec![Value::Integer(*i), Value::Varchar((*s).into())])
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    fn all_ints(table: &Arc<DataTable>, txn: &Transaction) -> Vec<i32> {
        let opts = ScanOptions { columns: vec![0], ..Default::default() };
        let mut out = Vec::new();
        for chunk in table.scan_collect(txn, &opts).unwrap() {
            for row in 0..chunk.len() {
                match chunk.row_values(row)[0] {
                    Value::Integer(v) => out.push(v),
                    ref other => panic!("unexpected {other:?}"),
                }
            }
        }
        out
    }

    #[test]
    fn own_writes_visible_before_commit() {
        let mgr = TransactionManager::new();
        let table = int_table();
        let txn = mgr.begin();
        table.append_chunk(&txn, &chunk(&[(1, "a"), (2, "b")])).unwrap();
        assert_eq!(all_ints(&table, &txn), vec![1, 2]);
        // Another transaction sees nothing yet.
        let other = mgr.begin();
        assert_eq!(all_ints(&table, &other), Vec::<i32>::new());
        txn.commit().unwrap();
        // A *new* snapshot sees the rows; the old one still does not.
        assert_eq!(all_ints(&table, &other), Vec::<i32>::new());
        let fresh = mgr.begin();
        assert_eq!(all_ints(&table, &fresh), vec![1, 2]);
    }

    #[test]
    fn rolled_back_insert_never_visible() {
        let mgr = TransactionManager::new();
        let table = int_table();
        let txn = mgr.begin();
        table.append_chunk(&txn, &chunk(&[(7, "x")])).unwrap();
        txn.rollback().unwrap();
        let fresh = mgr.begin();
        assert_eq!(all_ints(&table, &fresh), Vec::<i32>::new());
    }

    #[test]
    fn snapshot_isolation_for_updates() {
        let mgr = TransactionManager::new();
        let table = int_table();
        let setup = mgr.begin();
        table.append_chunk(&setup, &chunk(&[(10, "a"), (20, "b")])).unwrap();
        setup.commit().unwrap();

        let reader = mgr.begin(); // snapshot before the update
        let writer = mgr.begin();
        let rows = [RowId { group: 0, row: 0 }];
        let newv = Vector::from_values(LogicalType::Integer, &[Value::Integer(99)]).unwrap();
        table.update_rows(&writer, &rows, 0, &newv).unwrap();
        // Writer sees its own update; reader sees the old value.
        assert_eq!(all_ints(&table, &writer), vec![99, 20]);
        assert_eq!(all_ints(&table, &reader), vec![10, 20]);
        writer.commit().unwrap();
        // Reader's snapshot still predates the commit.
        assert_eq!(all_ints(&table, &reader), vec![10, 20]);
        let fresh = mgr.begin();
        assert_eq!(all_ints(&table, &fresh), vec![99, 20]);
    }

    #[test]
    fn update_rollback_restores_value_and_stamp() {
        let mgr = TransactionManager::new();
        let table = int_table();
        let setup = mgr.begin();
        table.append_chunk(&setup, &chunk(&[(5, "a")])).unwrap();
        setup.commit().unwrap();

        let t = mgr.begin();
        let rows = [RowId { group: 0, row: 0 }];
        let v1 = Vector::from_values(LogicalType::Integer, &[Value::Integer(6)]).unwrap();
        let v2 = Vector::from_values(LogicalType::Integer, &[Value::Integer(7)]).unwrap();
        table.update_rows(&t, &rows, 0, &v1).unwrap();
        table.update_rows(&t, &rows, 0, &v2).unwrap();
        assert_eq!(all_ints(&table, &t), vec![7]);
        t.rollback().unwrap();
        let fresh = mgr.begin();
        assert_eq!(all_ints(&table, &fresh), vec![5]);
        assert_eq!(table.undo_len(), 0);
        // After rollback another transaction can update the row freely.
        let t2 = mgr.begin();
        table.update_rows(&t2, &rows, 0, &v1).unwrap();
        t2.commit().unwrap();
    }

    #[test]
    fn first_updater_wins() {
        let mgr = TransactionManager::new();
        let table = int_table();
        let setup = mgr.begin();
        table.append_chunk(&setup, &chunk(&[(1, "a")])).unwrap();
        setup.commit().unwrap();

        let t1 = mgr.begin();
        let t2 = mgr.begin();
        let rows = [RowId { group: 0, row: 0 }];
        let v = Vector::from_values(LogicalType::Integer, &[Value::Integer(2)]).unwrap();
        table.update_rows(&t1, &rows, 0, &v).unwrap();
        // Second live updater must abort.
        let err = table.update_rows(&t2, &rows, 0, &v).unwrap_err();
        assert!(err.is_transient(), "expected Conflict, got {err}");
        drop(t2);
        t1.commit().unwrap();
        // A transaction whose snapshot predates t1's commit also conflicts.
        let t3 = mgr.begin();
        assert_eq!(all_ints(&table, &t3), vec![2]);
        let t4_snapshot_pre = {
            // start a txn, then commit another update, then try updating
            let t4 = mgr.begin();
            let t5 = mgr.begin();
            table.update_rows(&t5, &rows, 0, &v).unwrap();
            t5.commit().unwrap();
            table.update_rows(&t4, &rows, 0, &v).unwrap_err()
        };
        assert!(t4_snapshot_pre.is_transient());
    }

    #[test]
    fn delete_visibility_and_conflicts() {
        let mgr = TransactionManager::new();
        let table = int_table();
        let setup = mgr.begin();
        table.append_chunk(&setup, &chunk(&[(1, "a"), (2, "b"), (3, "c")])).unwrap();
        setup.commit().unwrap();

        let reader = mgr.begin();
        let deleter = mgr.begin();
        let rows = [RowId { group: 0, row: 1 }];
        assert_eq!(table.delete_rows(&deleter, &rows).unwrap(), 1);
        assert_eq!(all_ints(&table, &deleter), vec![1, 3]);
        assert_eq!(all_ints(&table, &reader), vec![1, 2, 3]);
        // Concurrent delete of the same row conflicts.
        let other = mgr.begin();
        assert!(table.delete_rows(&other, &rows).unwrap_err().is_transient());
        deleter.commit().unwrap();
        let fresh = mgr.begin();
        assert_eq!(all_ints(&table, &fresh), vec![1, 3]);
        assert_eq!(table.count_visible(&fresh), 2);
    }

    #[test]
    fn delete_then_update_conflicts() {
        let mgr = TransactionManager::new();
        let table = int_table();
        let setup = mgr.begin();
        table.append_chunk(&setup, &chunk(&[(1, "a")])).unwrap();
        setup.commit().unwrap();
        let t1 = mgr.begin();
        let t2 = mgr.begin();
        let rows = [RowId { group: 0, row: 0 }];
        table.delete_rows(&t1, &rows).unwrap();
        let v = Vector::from_values(LogicalType::Integer, &[Value::Integer(9)]).unwrap();
        assert!(table.update_rows(&t2, &rows, 0, &v).unwrap_err().is_transient());
    }

    #[test]
    fn filters_and_zone_maps() {
        let mgr = TransactionManager::new();
        let table = int_table();
        let setup = mgr.begin();
        let rows: Vec<(i32, &str)> = (0..1000).map(|i| (i, "v")).collect();
        table.append_chunk(&setup, &chunk(&rows)).unwrap();
        setup.commit().unwrap();
        let txn = mgr.begin();
        let opts = ScanOptions {
            columns: vec![0],
            filters: vec![TableFilter::new(0, CmpOp::GtEq, Value::Integer(995))],
            ..Default::default()
        };
        let chunks = table.scan_collect(&txn, &opts).unwrap();
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 5);
        // Zone map reflects data.
        let (min, max) = table.zone_map(0, 0).unwrap();
        assert_eq!(min, Value::Integer(0));
        assert_eq!(max, Value::Integer(999));
        // A filter outside the zone scans nothing.
        let opts2 = ScanOptions {
            columns: vec![0],
            filters: vec![TableFilter::new(0, CmpOp::Gt, Value::Integer(100_000))],
            ..Default::default()
        };
        assert!(table.scan_collect(&txn, &opts2).unwrap().is_empty());
    }

    #[test]
    fn row_ids_round_trip_through_scan() {
        let mgr = TransactionManager::new();
        let table = int_table();
        let setup = mgr.begin();
        table.append_chunk(&setup, &chunk(&[(1, "a"), (2, "b")])).unwrap();
        setup.commit().unwrap();
        let txn = mgr.begin();
        let opts = ScanOptions { columns: vec![0], emit_row_ids: true, ..Default::default() };
        let chunks = table.scan_collect(&txn, &opts).unwrap();
        assert_eq!(chunks[0].column_count(), 2);
        let rid = match chunks[0].row_values(1)[1] {
            Value::BigInt(v) => RowId::decode(v),
            ref o => panic!("{o:?}"),
        };
        assert_eq!(rid, RowId { group: 0, row: 1 });
    }

    #[test]
    fn serializability_write_skew_detected() {
        // Classic write skew: t1 reads column range then writes; t2 does
        // the same concurrently. Snapshot isolation would allow both;
        // validation must abort the second committer.
        let mgr = TransactionManager::new();
        let table = int_table();
        let setup = mgr.begin();
        table.append_chunk(&setup, &chunk(&[(10, "a"), (20, "b")])).unwrap();
        setup.commit().unwrap();

        let t1 = mgr.begin();
        let t2 = mgr.begin();
        let opts = ScanOptions {
            columns: vec![0],
            filters: vec![TableFilter::new(0, CmpOp::Lt, Value::Integer(100))],
            ..Default::default()
        };
        let _ = table.scan_collect(&t1, &opts).unwrap();
        let _ = table.scan_collect(&t2, &opts).unwrap();
        let v1 = Vector::from_values(LogicalType::Integer, &[Value::Integer(30)]).unwrap();
        let v2 = Vector::from_values(LogicalType::Integer, &[Value::Integer(40)]).unwrap();
        table.update_rows(&t1, &[RowId { group: 0, row: 0 }], 0, &v1).unwrap();
        table.update_rows(&t2, &[RowId { group: 0, row: 1 }], 0, &v2).unwrap();
        t1.commit().unwrap();
        let err = t2.commit().unwrap_err();
        assert!(err.is_transient(), "write skew must be detected: {err}");
    }

    #[test]
    fn disjoint_predicates_do_not_conflict() {
        let mgr = TransactionManager::new();
        let table = int_table();
        let setup = mgr.begin();
        table.append_chunk(&setup, &chunk(&[(10, "a"), (2000, "b")])).unwrap();
        setup.commit().unwrap();

        let t1 = mgr.begin();
        let t2 = mgr.begin();
        // t1 reads small values and updates a small row; t2 reads large
        // values and updates a large row: serializable, must both commit.
        let small = ScanOptions {
            columns: vec![0],
            filters: vec![TableFilter::new(0, CmpOp::Lt, Value::Integer(100))],
            ..Default::default()
        };
        let large = ScanOptions {
            columns: vec![0],
            filters: vec![TableFilter::new(0, CmpOp::Gt, Value::Integer(1000))],
            ..Default::default()
        };
        let _ = table.scan_collect(&t1, &small).unwrap();
        let _ = table.scan_collect(&t2, &large).unwrap();
        let v1 = Vector::from_values(LogicalType::Integer, &[Value::Integer(11)]).unwrap();
        let v2 = Vector::from_values(LogicalType::Integer, &[Value::Integer(2001)]).unwrap();
        table.update_rows(&t1, &[RowId { group: 0, row: 0 }], 0, &v1).unwrap();
        table.update_rows(&t2, &[RowId { group: 0, row: 1 }], 0, &v2).unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap();
    }

    #[test]
    fn garbage_collection_reclaims_versions() {
        let mgr = TransactionManager::new();
        let table = int_table();
        mgr.register_table(&table);
        let setup = mgr.begin();
        table.append_chunk(&setup, &chunk(&[(1, "a")])).unwrap();
        setup.commit().unwrap();
        let rows = [RowId { group: 0, row: 0 }];
        for i in 0..5 {
            let t = mgr.begin();
            let v = Vector::from_values(LogicalType::Integer, &[Value::Integer(i + 10)]).unwrap();
            table.update_rows(&t, &rows, 0, &v).unwrap();
            t.commit().unwrap();
        }
        assert_eq!(table.undo_len(), 5);
        // With no active transactions everything is reclaimable.
        let reclaimed = mgr.garbage_collect();
        assert_eq!(reclaimed, 5);
        assert_eq!(table.undo_len(), 0);
        // An old open snapshot pins versions.
        let pin = mgr.begin();
        let t = mgr.begin();
        let v = Vector::from_values(LogicalType::Integer, &[Value::Integer(99)]).unwrap();
        table.update_rows(&t, &rows, 0, &v).unwrap();
        t.commit().unwrap();
        assert_eq!(mgr.garbage_collect(), 0);
        assert_eq!(table.undo_len(), 1);
        drop(pin);
        assert_eq!(mgr.garbage_collect(), 1);
    }

    #[test]
    fn multi_group_append_and_scan() {
        let mgr = TransactionManager::new();
        let table = DataTable::new(vec![LogicalType::Integer]);
        let txn = mgr.begin();
        let n = ROW_GROUP_SIZE + 100;
        let rows: Vec<Vec<Value>> = (0..n as i32).map(|i| vec![Value::Integer(i)]).collect();
        let big = DataChunk::from_rows(&[LogicalType::Integer], &rows).unwrap();
        table.append_chunk(&txn, &big).unwrap();
        assert_eq!(table.row_group_count(), 2);
        txn.commit().unwrap();
        let t = mgr.begin();
        assert_eq!(table.count_visible(&t), n);
    }

    #[test]
    fn bounded_range_scans_partition_a_full_scan() {
        let mgr = TransactionManager::new();
        let table = DataTable::new(vec![LogicalType::Integer]);
        let setup = mgr.begin();
        let n = ROW_GROUP_SIZE + 5000; // two groups
        let rows: Vec<Vec<Value>> = (0..n as i32).map(|i| vec![Value::Integer(i)]).collect();
        table
            .append_chunk(&setup, &DataChunk::from_rows(&[LogicalType::Integer], &rows).unwrap())
            .unwrap();
        setup.commit().unwrap();

        let txn = mgr.begin();
        let opts = ScanOptions { columns: vec![0], ..Default::default() };
        // Cover the table with half-group morsels; the union of their rows
        // must equal the full serial scan.
        let mut ranged = Vec::new();
        for (group, &len) in table.group_sizes().iter().enumerate() {
            for (lo, hi) in [(0, len / 2), (len / 2, len)] {
                let mut state = table.begin_scan_range(group, lo, hi);
                while let Some(chunk) = table.scan_next(&txn, &opts, &mut state).unwrap() {
                    for row in 0..chunk.len() {
                        ranged.push(chunk.row_values(row)[0].clone());
                    }
                }
            }
        }
        let mut full = Vec::new();
        for chunk in table.scan_collect(&txn, &opts).unwrap() {
            for row in 0..chunk.len() {
                full.push(chunk.row_values(row)[0].clone());
            }
        }
        assert_eq!(ranged.len(), n);
        assert_eq!(ranged, full);
    }

    #[test]
    fn bounded_scan_respects_filters_and_bounds() {
        let mgr = TransactionManager::new();
        let table = DataTable::new(vec![LogicalType::Integer]);
        let setup = mgr.begin();
        let rows: Vec<Vec<Value>> = (0..10_000).map(|i| vec![Value::Integer(i)]).collect();
        table
            .append_chunk(&setup, &DataChunk::from_rows(&[LogicalType::Integer], &rows).unwrap())
            .unwrap();
        setup.commit().unwrap();
        let txn = mgr.begin();
        let opts = ScanOptions {
            columns: vec![0],
            filters: vec![TableFilter::new(0, CmpOp::Lt, Value::Integer(6000))],
            ..Default::default()
        };
        let mut state = table.begin_scan_range(0, 4096, 8192);
        let mut got = Vec::new();
        while let Some(chunk) = table.scan_next(&txn, &opts, &mut state).unwrap() {
            for row in 0..chunk.len() {
                got.push(chunk.row_values(row)[0].as_i64().unwrap());
            }
        }
        assert_eq!(got, (4096..6000).collect::<Vec<i64>>());
    }

    #[test]
    fn type_mismatch_on_append() {
        let mgr = TransactionManager::new();
        let table = DataTable::new(vec![LogicalType::Integer]);
        let txn = mgr.begin();
        let wrong =
            DataChunk::from_rows(&[LogicalType::Varchar], &[vec![Value::Varchar("x".into())]])
                .unwrap();
        assert!(table.append_chunk(&txn, &wrong).is_err());
    }

    #[test]
    fn concurrent_readers_during_bulk_update() {
        // The §2 dashboard scenario: a writer bulk-updates while readers
        // aggregate concurrently; every reader must see a consistent sum.
        let mgr = TransactionManager::new();
        let table = DataTable::new(vec![LogicalType::Integer]);
        let setup = mgr.begin();
        let rows: Vec<Vec<Value>> = (0..10_000).map(|_| vec![Value::Integer(1)]).collect();
        table
            .append_chunk(&setup, &DataChunk::from_rows(&[LogicalType::Integer], &rows).unwrap())
            .unwrap();
        setup.commit().unwrap();

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let mgr = Arc::clone(&mgr);
                let table = Arc::clone(&table);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let txn = mgr.begin();
                        let opts = ScanOptions { columns: vec![0], ..Default::default() };
                        let mut sum = 0i64;
                        let mut count = 0i64;
                        for chunk in table.scan_collect(&txn, &opts).unwrap() {
                            for row in 0..chunk.len() {
                                if let Value::Integer(v) = chunk.row_values(row)[0] {
                                    sum += i64::from(v);
                                    count += 1;
                                }
                            }
                        }
                        // All rows hold the same value under every snapshot.
                        assert_eq!(count, 10_000);
                        assert_eq!(sum % 10_000, 0, "torn snapshot: sum={sum}");
                        txn.commit().unwrap();
                    }
                })
            })
            .collect();
        // Writer: set every row to k, transactionally.
        for k in 2..6 {
            let txn = mgr.begin();
            let ids: Vec<RowId> = (0..10_000u32).map(|r| RowId { group: 0, row: r }).collect();
            let vals = Vector::constant(LogicalType::Integer, &Value::Integer(k), 10_000).unwrap();
            table.update_rows(&txn, &ids, 0, &vals).unwrap();
            txn.commit().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }
}
