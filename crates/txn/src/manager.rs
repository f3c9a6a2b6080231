//! Transaction lifecycle: begin, commit (with serializability validation),
//! rollback, and garbage collection of obsolete versions.
//!
//! Timestamps follow HyPer's scheme: a logical clock hands out *start
//! timestamps* (the snapshot) and *commit timestamps*; live transactions
//! are identified by ids from a disjoint high range ([`TXN_ID_START`]), so
//! a single `u64` stamp on a row distinguishes "committed at ts" from
//! "written by live transaction" by magnitude alone.

use crate::predicate::ReadPredicate;
use crate::table::DataTable;
use eider_vector::{EiderError, Result, Value};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// Transaction ids live above this bound; commit timestamps below it.
pub const TXN_ID_START: u64 = 1 << 62;

/// Per-column value range a transaction wrote into a table. Old and new
/// values of updates, inserted values and deleted values are all merged in,
/// so a later committer's read predicate can conservatively detect that its
/// result set could have been affected.
type ColumnRanges = HashMap<usize, (Value, Value)>;

#[derive(Debug, Clone, Default)]
pub(crate) struct WriteSummary {
    /// table id -> column -> (min, max) of written values.
    pub tables: HashMap<u64, ColumnRanges>,
}

impl WriteSummary {
    /// Merge one written value. NULLs never satisfy a comparison
    /// predicate, so they cannot turn a read result (NULL-ness changes ARE
    /// visible to IS NULL reads, which we conservatively record as
    /// whole-table reads). NaN is skipped like NULL: it compares equal to
    /// every number, so it cannot serve as a bound.
    pub fn merge_value(&mut self, table_id: u64, column: usize, v: &Value) {
        if v.is_null() || v.is_nan() {
            return;
        }
        self.merge_range(table_id, column, v.clone(), v.clone());
    }

    /// Merge the `(min, max)` bounds of a written range of one column —
    /// the bulk path: an append merges each column once per appended
    /// range, with bounds from [`eider_vector::Vector::min_max`] (never
    /// NULL or NaN).
    pub fn merge_range(&mut self, table_id: u64, column: usize, lo: Value, hi: Value) {
        let ranges = self.tables.entry(table_id).or_default();
        match ranges.entry(column) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let (min, max) = e.get_mut();
                if lo.total_cmp(min) == std::cmp::Ordering::Less {
                    *min = lo;
                }
                if hi.total_cmp(max) == std::cmp::Ordering::Greater {
                    *max = hi;
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((lo, hi));
            }
        }
    }

    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    fn conflicts_with(&self, read: &ReadPredicate) -> bool {
        let Some(ranges) = self.tables.get(&read.table_id) else {
            return false;
        };
        match read.column {
            None => true, // unpredicated read of a written table
            Some(_) => ranges.iter().any(|(&col, (min, max))| read.overlaps(col, min, max)),
        }
    }
}

/// One committed transaction's footprint, kept until no live snapshot
/// predates it.
#[derive(Debug)]
struct CommitRecord {
    commit_ts: u64,
    summary: WriteSummary,
}

/// Where an insert landed (finalized or invalidated at commit/rollback).
pub(crate) struct InsertRecord {
    pub table: Arc<DataTable>,
    pub group: usize,
    pub start: usize,
    pub count: usize,
}

/// Rows a transaction deleted in one row group.
pub(crate) struct DeleteRecord {
    pub table: Arc<DataTable>,
    pub group: usize,
    pub rows: Vec<u32>,
}

#[derive(Default)]
pub(crate) struct TxnState {
    pub inserts: Vec<InsertRecord>,
    /// (table, group) pairs holding undo entries of this transaction.
    pub updated_groups: Vec<(Arc<DataTable>, usize)>,
    pub deletes: Vec<DeleteRecord>,
    pub reads: Vec<ReadPredicate>,
    pub summary: WriteSummary,
}

impl TxnState {
    fn has_writes(&self) -> bool {
        !self.inserts.is_empty() || !self.updated_groups.is_empty() || !self.deletes.is_empty()
    }

    pub fn note_updated_group(&mut self, table: &Arc<DataTable>, group: usize) {
        if !self.updated_groups.iter().any(|(t, g)| t.id() == table.id() && *g == group) {
            self.updated_groups.push((Arc::clone(table), group));
        }
    }
}

/// A transaction handle. Dropped without [`Transaction::commit`] it rolls
/// back automatically (RAII abort).
pub struct Transaction {
    id: u64,
    start_ts: u64,
    mgr: Arc<TransactionManager>,
    pub(crate) state: Mutex<TxnState>,
    finished: AtomicBool,
    /// Set by the first table write (see [`TransactionManager::open_writers`]).
    wrote: AtomicBool,
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("id", &self.id)
            .field("start_ts", &self.start_ts)
            .finish_non_exhaustive()
    }
}

impl Transaction {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The snapshot timestamp: this transaction sees exactly the effects of
    /// transactions with `commit_ts <= start_ts`, plus its own writes.
    pub fn start_ts(&self) -> u64 {
        self.start_ts
    }

    /// Record a read predicate for commit-time validation.
    pub fn record_read(&self, predicate: ReadPredicate) {
        self.state.lock().reads.push(predicate);
    }

    /// True if this transaction has performed any write.
    pub fn is_read_write(&self) -> bool {
        self.state.lock().has_writes()
    }

    /// Every [`DataTable`] write calls this before it mutates anything.
    pub(crate) fn note_write(&self) {
        if !self.wrote.swap(true, Ordering::SeqCst) {
            self.mgr.open_writers.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn check_active(&self) -> Result<()> {
        if self.finished.load(Ordering::Acquire) {
            return Err(EiderError::Transaction(
                "transaction already committed or rolled back".into(),
            ));
        }
        Ok(())
    }

    /// Commit. Read-only transactions always succeed; read-write
    /// transactions first validate their read predicates against every
    /// transaction that committed after this one started (conservative
    /// precision locking — HyPer's serializable variant, §6).
    pub fn commit(self) -> Result<u64> {
        self.check_active()?;
        let mut state = {
            let mut guard = self.state.lock();
            std::mem::take(&mut *guard)
        };
        if !state.has_writes() {
            self.finish();
            return Ok(self.start_ts);
        }
        let mgr = Arc::clone(&self.mgr);
        let _commit_guard = mgr.commit_lock.lock();
        // Validation inside the commit lock: the commit log cannot grow
        // under us.
        if !state.reads.is_empty() {
            let conflict = {
                let log = mgr.commit_log.read();
                let mut found = None;
                'outer: for record in log.iter().rev() {
                    if record.commit_ts <= self.start_ts {
                        break;
                    }
                    for read in &state.reads {
                        if record.summary.conflicts_with(read) {
                            found = Some((read.table_id, record.commit_ts));
                            break 'outer;
                        }
                    }
                }
                found
            };
            if let Some((table_id, commit_ts)) = conflict {
                drop(_commit_guard);
                self.rollback_writes(&mut state);
                self.finish();
                return Err(EiderError::Conflict(format!(
                    "serializability validation failed: transaction read data \
                     (table {table_id}) modified by a transaction that committed at ts {commit_ts}"
                )));
            }
        }
        let commit_ts = mgr.clock.load(Ordering::SeqCst) + 1;
        // Finalize stamps: flip txn-id markers to the commit timestamp.
        for ins in &state.inserts {
            ins.table.finalize_insert(ins.group, ins.start, ins.count, commit_ts);
        }
        for (table, group) in &state.updated_groups {
            table.finalize_updates(*group, self.id, commit_ts);
        }
        for del in &state.deletes {
            del.table.finalize_delete(del.group, &del.rows, commit_ts);
        }
        mgr.commit_log
            .write()
            .push(CommitRecord { commit_ts, summary: std::mem::take(&mut state.summary) });
        // Publish: only now do new snapshots include this commit.
        mgr.clock.store(commit_ts, Ordering::SeqCst);
        self.finish();
        Ok(commit_ts)
    }

    /// Roll back all effects of this transaction.
    pub fn rollback(self) -> Result<()> {
        self.check_active()?;
        let mut state = {
            let mut guard = self.state.lock();
            std::mem::take(&mut *guard)
        };
        self.rollback_writes(&mut state);
        self.finish();
        Ok(())
    }

    fn rollback_writes(&self, state: &mut TxnState) {
        // Undo in-place updates from the undo chains (newest first inside
        // each group, handled by the table) and release deleted rows.
        for (table, group) in &state.updated_groups {
            table.rollback_updates(*group, self.id);
        }
        for del in &state.deletes {
            del.table.rollback_delete(del.group, &del.rows);
        }
        for ins in &state.inserts {
            ins.table.invalidate_insert(ins.group, ins.start, ins.count);
        }
    }

    fn finish(&self) {
        self.finished.store(true, Ordering::Release);
        if self.wrote.load(Ordering::SeqCst) {
            self.mgr.open_writers.fetch_sub(1, Ordering::SeqCst);
        }
        self.mgr.active.lock().remove(&self.id);
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if !self.finished.load(Ordering::Acquire) {
            let mut state = {
                let mut guard = self.state.lock();
                std::mem::take(&mut *guard)
            };
            self.rollback_writes(&mut state);
            self.finish();
        }
    }
}

/// The transaction manager: clock, active set, commit log, GC.
pub struct TransactionManager {
    clock: AtomicU64,
    next_txn_id: AtomicU64,
    active: Mutex<BTreeMap<u64, u64>>,
    /// Live transactions that have written to a table.
    open_writers: AtomicUsize,
    commit_log: RwLock<Vec<CommitRecord>>,
    commit_lock: Mutex<()>,
    /// Tables registered for garbage collection.
    tables: Mutex<Vec<Weak<DataTable>>>,
}

impl Default for TransactionManager {
    fn default() -> Self {
        TransactionManager {
            clock: AtomicU64::new(1),
            next_txn_id: AtomicU64::new(TXN_ID_START),
            active: Mutex::new(BTreeMap::new()),
            open_writers: AtomicUsize::new(0),
            commit_log: RwLock::new(Vec::new()),
            commit_lock: Mutex::new(()),
            tables: Mutex::new(Vec::new()),
        }
    }
}

impl TransactionManager {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Begin a transaction with a snapshot of everything committed so far.
    pub fn begin(self: &Arc<Self>) -> Transaction {
        let start_ts = self.clock.load(Ordering::SeqCst);
        let id = self.next_txn_id.fetch_add(1, Ordering::SeqCst);
        self.active.lock().insert(id, start_ts);
        Transaction {
            id,
            start_ts,
            mgr: Arc::clone(self),
            state: Mutex::new(TxnState::default()),
            finished: AtomicBool::new(false),
            wrote: AtomicBool::new(false),
        }
    }

    /// Current committed timestamp (newest snapshot).
    pub fn committed_ts(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    /// Live transactions that have written to a table and not yet
    /// committed or rolled back.
    pub fn open_writers(&self) -> usize {
        self.open_writers.load(Ordering::SeqCst)
    }

    /// Register a table for version garbage collection.
    pub fn register_table(&self, table: &Arc<DataTable>) {
        self.tables.lock().push(Arc::downgrade(table));
    }

    /// The oldest snapshot any live transaction can observe.
    pub fn oldest_active_snapshot(&self) -> u64 {
        self.active.lock().values().min().copied().unwrap_or_else(|| self.committed_ts())
    }

    /// Drop undo versions and commit records no live snapshot needs.
    /// Returns the number of undo entries reclaimed.
    pub fn garbage_collect(&self) -> usize {
        let horizon = self.oldest_active_snapshot();
        let mut reclaimed = 0;
        let mut tables = self.tables.lock();
        tables.retain(|w| w.strong_count() > 0);
        for weak in tables.iter() {
            if let Some(table) = weak.upgrade() {
                reclaimed += table.vacuum_versions(horizon);
            }
        }
        drop(tables);
        self.commit_log.write().retain(|r| r.commit_ts > horizon);
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_assigns_monotonic_ids_and_snapshots() {
        let mgr = TransactionManager::new();
        let t1 = mgr.begin();
        let t2 = mgr.begin();
        assert!(t2.id() > t1.id());
        assert!(t1.id() >= TXN_ID_START);
        assert_eq!(t1.start_ts(), t2.start_ts());
        assert_eq!(mgr.active_count(), 2);
        t1.commit().unwrap();
        t2.rollback().unwrap();
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn open_writers_counts_live_transactions_that_wrote() {
        let mgr = TransactionManager::new();
        let table = DataTable::new(vec![eider_vector::LogicalType::Integer]);
        let chunk = eider_vector::DataChunk::from_rows(
            &[eider_vector::LogicalType::Integer],
            &[vec![Value::Integer(1)]],
        )
        .unwrap();
        let reader = mgr.begin();
        let (w1, w2) = (mgr.begin(), mgr.begin());
        table.append_chunk(&w1, &chunk).unwrap();
        table.append_chunk(&w1, &chunk).unwrap();
        table.append_chunk(&w2, &chunk).unwrap();
        assert_eq!(mgr.open_writers(), 2);
        w1.commit().unwrap();
        drop(w2);
        assert_eq!(mgr.open_writers(), 0);
        reader.commit().unwrap();
        assert_eq!(mgr.open_writers(), 0);
    }

    #[test]
    fn read_only_commit_does_not_advance_clock() {
        let mgr = TransactionManager::new();
        let before = mgr.committed_ts();
        mgr.begin().commit().unwrap();
        assert_eq!(mgr.committed_ts(), before);
    }

    #[test]
    fn dropped_transaction_leaves_active_set() {
        let mgr = TransactionManager::new();
        {
            let _t = mgr.begin();
            assert_eq!(mgr.active_count(), 1);
        }
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn oldest_active_snapshot_tracks_minimum() {
        let mgr = TransactionManager::new();
        assert_eq!(mgr.oldest_active_snapshot(), 1);
        let t1 = mgr.begin();
        let snap = t1.start_ts();
        assert_eq!(mgr.oldest_active_snapshot(), snap);
        drop(t1);
        assert_eq!(mgr.oldest_active_snapshot(), mgr.committed_ts());
    }

    #[test]
    fn write_summary_conflict_logic() {
        let mut s = WriteSummary::default();
        s.merge_value(1, 0, &Value::Integer(5));
        s.merge_value(1, 0, &Value::Integer(15));
        s.merge_value(1, 2, &Value::Varchar("x".into()));
        // Range read overlapping [5,15].
        let f =
            crate::predicate::TableFilter::new(0, crate::predicate::CmpOp::Lt, Value::Integer(7));
        let read = ReadPredicate::from_filter(1, &f);
        assert!(s.conflicts_with(&read));
        // Disjoint range.
        let f2 =
            crate::predicate::TableFilter::new(0, crate::predicate::CmpOp::Gt, Value::Integer(20));
        assert!(!s.conflicts_with(&ReadPredicate::from_filter(1, &f2)));
        // Other table never conflicts.
        assert!(!s.conflicts_with(&ReadPredicate::whole_table(2)));
        // Whole-table read of the written table conflicts.
        assert!(s.conflicts_with(&ReadPredicate::whole_table(1)));
        // NULL writes are ignored.
        let mut s2 = WriteSummary::default();
        s2.merge_value(1, 0, &Value::Null);
        assert!(s2.is_empty());
        // NaN never enters a range: a NaN first must not freeze it.
        let mut s3 = WriteSummary::default();
        s3.merge_value(1, 0, &Value::Double(f64::NAN));
        assert!(s3.is_empty());
        s3.merge_value(1, 0, &Value::Double(1.0));
        s3.merge_range(1, 0, Value::Double(-3.0), Value::Double(7.0));
        assert_eq!(s3.tables[&1][&0], (Value::Double(-3.0), Value::Double(7.0)));
    }
}
