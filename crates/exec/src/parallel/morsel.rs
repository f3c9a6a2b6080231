//! Morsels: the unit of parallel scan work.
//!
//! A morsel is a contiguous slice of one *source partition* — a
//! vector-aligned row range inside a [`DataTable`] row group, a byte range
//! of a CSV file, or one Arrow record batch. The [`MorselSource`] fixes
//! the partition decomposition once (snapshotting a table's group sizes,
//! or asking a [`TableSource`] for its partitions), and dispenses morsels
//! through an atomic cursor: workers that finish early simply grab the
//! next morsel, so load balances without any up-front assignment (the
//! core idea of morsel-driven scheduling).

use crate::ops::PhysicalOperator;
use eider_etl::source::{SourcePartition, SourceReader, TableSource};
use eider_txn::{DataTable, ScanOptions, Transaction};
use eider_vector::{DataChunk, LogicalType, Result, VECTOR_SIZE};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Preferred morsel size: big enough to amortize dispatch, small enough
/// that a handful of morsels per worker keeps the fleet busy.
pub const MORSEL_ROWS: usize = 8 * VECTOR_SIZE;

/// One unit of scan work: units `[row_begin, row_end)` of `group`.
///
/// For a table scan the units are rows inside a row group; for an
/// external source they are whatever the source's partitions are measured
/// in (bytes, record batches) with `group` equal to the partition's
/// sequence number. Only the backend that produced a morsel interprets
/// the bounds — the dispenser treats them as opaque claim tickets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Position in the serial scan order; merges sort by this to make
    /// parallel output deterministic. A [`MorselSource`] renumbers its
    /// morsels gap-free from 0.
    pub seq: usize,
    pub group: usize,
    pub row_begin: usize,
    pub row_end: usize,
}

impl Morsel {
    pub fn rows(&self) -> usize {
        self.row_end - self.row_begin
    }
}

/// Slice per-group row counts into vector-aligned morsels of about
/// `morsel_rows` rows each. Pure; callers (notably the planner) can count
/// the work before committing to a parallel scan.
pub fn slice_morsels(group_sizes: &[usize], morsel_rows: usize) -> Vec<Morsel> {
    let step = morsel_rows.max(VECTOR_SIZE) / VECTOR_SIZE * VECTOR_SIZE;
    let mut morsels = Vec::new();
    let mut seq = 0;
    for (group, &len) in group_sizes.iter().enumerate() {
        let mut begin = 0;
        while begin < len {
            let end = (begin + step).min(len);
            morsels.push(Morsel { seq, group, row_begin: begin, row_end: end });
            seq += 1;
            begin = end;
        }
    }
    morsels
}

/// What a [`MorselSource`] actually scans: the engine's own versioned
/// tables, or any external [`TableSource`] (CSV byte ranges, Arrow record
/// batches). Workers never look inside — they claim morsels and build a
/// [`MorselScanOp`], which dispatches to the right reader.
enum ScanBackend {
    Table { table: Arc<DataTable>, opts: ScanOptions },
    External { source: Arc<dyn TableSource>, projection: Vec<usize> },
}

/// Shared dispenser of a scan's morsels.
pub struct MorselSource {
    backend: ScanBackend,
    morsels: Vec<Morsel>,
    cursor: AtomicUsize,
    /// Set by a failing worker so its peers stop claiming work instead of
    /// scanning the rest of the source before the error surfaces.
    aborted: AtomicBool,
}

impl std::fmt::Debug for MorselSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MorselSource")
            .field("morsels", &self.morsels.len())
            .field("dispensed", &self.cursor.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl MorselSource {
    /// Slice `table` into morsels of about `morsel_rows` rows (clamped to
    /// whole vectors). Records the scan's read predicates on `txn` once —
    /// the per-worker range cursors deliberately do not.
    ///
    /// Row groups whose zone maps exclude the pushed-down filters are
    /// dropped from the work list up front: on a selective scan workers
    /// never even claim morsels in pruned groups.
    pub fn new(
        table: Arc<DataTable>,
        txn: &Transaction,
        opts: ScanOptions,
        morsel_rows: usize,
    ) -> Self {
        let sizes = table.group_sizes();
        let mut morsels = slice_morsels(&sizes, morsel_rows);
        if !opts.filters.is_empty() {
            let prunable: Vec<bool> =
                (0..sizes.len()).map(|g| table.group_prunable(g, &opts.filters)).collect();
            morsels.retain(|m| !prunable[m.group]);
        }
        Self::from_morsels(table, txn, opts, morsels)
    }

    /// Build a table-backed source over pre-sliced morsels (see
    /// [`slice_morsels`]), which may skip pruned ones. Records the scan's
    /// read predicates on `txn` once.
    pub fn from_morsels(
        table: Arc<DataTable>,
        txn: &Transaction,
        opts: ScanOptions,
        morsels: Vec<Morsel>,
    ) -> Self {
        table.record_scan_read(txn, &opts);
        Self::dispense(ScanBackend::Table { table, opts }, morsels)
    }

    /// Default-sized morsels ([`MORSEL_ROWS`]).
    pub fn with_default_morsels(
        table: Arc<DataTable>,
        txn: &Transaction,
        opts: ScanOptions,
    ) -> Self {
        Self::new(table, txn, opts, MORSEL_ROWS)
    }

    /// Build a dispenser over an external source's partitions (already
    /// pruned by the caller). Each partition becomes one morsel whose
    /// bounds carry the partition's source-defined units; `projection`
    /// lists full-schema column positions in emission order.
    pub fn external(
        source: Arc<dyn TableSource>,
        projection: Vec<usize>,
        partitions: Vec<SourcePartition>,
    ) -> Self {
        let morsels = partitions
            .into_iter()
            .map(|p| Morsel {
                seq: p.seq,
                group: p.seq,
                row_begin: p.begin as usize,
                row_end: p.end as usize,
            })
            .collect();
        Self::dispense(ScanBackend::External { source, projection }, morsels)
    }

    /// Number the morsels that survived pruning 0, 1, 2, … in scan order:
    /// ordered result edges replay each arm's batches as that gap-free
    /// run. `group` keeps the row group (or partition) identity.
    fn dispense(backend: ScanBackend, mut morsels: Vec<Morsel>) -> Self {
        for (seq, morsel) in morsels.iter_mut().enumerate() {
            morsel.seq = seq;
        }
        MorselSource {
            backend,
            morsels,
            cursor: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
        }
    }

    /// Output chunk types: the scan's projected columns in emission order.
    pub fn output_types(&self) -> Vec<LogicalType> {
        match &self.backend {
            ScanBackend::Table { table, opts } => opts.output_types(table),
            ScanBackend::External { source, projection } => {
                let types = source.column_types();
                projection.iter().map(|&i| types[i]).collect()
            }
        }
    }

    pub fn morsel_count(&self) -> usize {
        self.morsels.len()
    }

    /// Total units covered — physical rows for a table scan (before
    /// visibility/filters), source-defined units (bytes, batches) for an
    /// external scan.
    pub fn total_rows(&self) -> usize {
        self.morsels.iter().map(Morsel::rows).sum()
    }

    /// Claim the next undispensed morsel; `None` once the scan is fully
    /// handed out or a worker has [aborted](MorselSource::abort) the
    /// pipeline. Safe to call from any number of workers concurrently.
    pub fn next_morsel(&self) -> Option<Morsel> {
        if self.aborted.load(Ordering::Relaxed) {
            return None;
        }
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        self.morsels.get(i).copied()
    }

    /// Stop dispensing: peers finish their current morsel and return,
    /// letting the failing worker's error surface promptly (the serial
    /// engine aborts at the first bad chunk; a fleet should not scan the
    /// rest of the source first).
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Relaxed);
    }

    /// Rewind the dispenser (tests; a query uses a source exactly once).
    pub fn reset(&self) {
        self.cursor.store(0, Ordering::Relaxed);
        self.aborted.store(false, Ordering::Relaxed);
    }
}

/// Per-morsel scan progress, matching the dispenser's backend.
enum ScanState {
    Table(eider_txn::table::TableScanState),
    /// The reader is opened lazily on the first `next_chunk` so that
    /// open errors (missing file, truncated footer) surface through the
    /// operator's fallible pull path instead of a panicking constructor.
    External {
        morsel: Morsel,
        reader: Option<Box<dyn SourceReader>>,
    },
}

/// A [`PhysicalOperator`] leaf that scans exactly one morsel. Workers
/// build one per claimed morsel and stack the pipeline's filter and
/// projection operators on top, so per-thread execution reuses the serial
/// operators unchanged.
pub struct MorselScanOp {
    source: Arc<MorselSource>,
    txn: Arc<Transaction>,
    state: ScanState,
    types: Vec<LogicalType>,
}

impl MorselScanOp {
    pub fn new(source: Arc<MorselSource>, txn: Arc<Transaction>, morsel: Morsel) -> Self {
        let types = source.output_types();
        let state = match &source.backend {
            ScanBackend::Table { table, .. } => ScanState::Table(table.begin_scan_range(
                morsel.group,
                morsel.row_begin,
                morsel.row_end,
            )),
            ScanBackend::External { .. } => ScanState::External { morsel, reader: None },
        };
        MorselScanOp { source, txn, state, types }
    }
}

impl PhysicalOperator for MorselScanOp {
    fn output_types(&self) -> Vec<LogicalType> {
        self.types.clone()
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        match (&self.source.backend, &mut self.state) {
            (ScanBackend::Table { table, opts }, ScanState::Table(state)) => {
                table.scan_next(&self.txn, opts, state)
            }
            (
                ScanBackend::External { source, projection },
                ScanState::External { morsel, reader },
            ) => {
                if reader.is_none() {
                    let part = SourcePartition {
                        seq: morsel.group,
                        begin: morsel.row_begin as u64,
                        end: morsel.row_end as u64,
                    };
                    *reader = Some(source.open(&part, projection)?);
                }
                reader.as_mut().expect("just opened").next_chunk()
            }
            _ => unreachable!("scan state always matches its backend"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::drain_rows;
    use eider_txn::TransactionManager;
    use eider_vector::Value;

    fn table_with(n: i32) -> (Arc<TransactionManager>, Arc<DataTable>) {
        let mgr = TransactionManager::new();
        let table = DataTable::new(vec![LogicalType::Integer]);
        let setup = mgr.begin();
        let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Integer(i)]).collect();
        table
            .append_chunk(&setup, &DataChunk::from_rows(&[LogicalType::Integer], &rows).unwrap())
            .unwrap();
        setup.commit().unwrap();
        (mgr, table)
    }

    #[test]
    fn morsels_tile_the_table_exactly() {
        let (mgr, table) = table_with(50_000);
        let txn = mgr.begin();
        let opts = ScanOptions { columns: vec![0], ..Default::default() };
        let src = MorselSource::new(table, &txn, opts, MORSEL_ROWS);
        assert_eq!(src.total_rows(), 50_000);
        assert_eq!(src.morsel_count(), 50_000usize.div_ceil(MORSEL_ROWS));
        // Sequential, contiguous, vector-aligned.
        let mut expected_begin = 0;
        for (i, m) in src.morsels.iter().enumerate() {
            assert_eq!(m.seq, i);
            assert_eq!(m.row_begin, expected_begin);
            assert_eq!(m.row_begin % VECTOR_SIZE, 0);
            expected_begin = m.row_end;
        }
    }

    #[test]
    fn dispenser_hands_each_morsel_out_once() {
        let (mgr, table) = table_with(100_000);
        let txn = mgr.begin();
        let opts = ScanOptions { columns: vec![0], ..Default::default() };
        let src = Arc::new(MorselSource::new(table, &txn, opts, VECTOR_SIZE));
        let taken: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let src = Arc::clone(&src);
                    s.spawn(move || {
                        let mut seqs = Vec::new();
                        while let Some(m) = src.next_morsel() {
                            seqs.push(m.seq);
                        }
                        seqs
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = taken.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..src.morsel_count()).collect::<Vec<_>>());
    }

    #[test]
    fn zone_maps_prune_morsels_before_dispensing() {
        use eider_txn::{CmpOp, TableFilter};
        // Two row groups of ascending values: group 0 covers
        // [0, ROW_GROUP_SIZE), group 1 the rest. A filter selecting only
        // the tail must drop every group-0 morsel from the work list.
        let n = (eider_txn::table::ROW_GROUP_SIZE + 30_000) as i32;
        let (mgr, table) = table_with(n);
        let txn = mgr.begin();
        let unfiltered = ScanOptions { columns: vec![0], ..Default::default() };
        let full =
            MorselSource::new(Arc::clone(&table), &txn, unfiltered, MORSEL_ROWS).morsel_count();
        let opts = ScanOptions {
            columns: vec![0],
            filters: vec![TableFilter::new(0, CmpOp::GtEq, Value::Integer(n - 1000))],
            ..Default::default()
        };
        let src = Arc::new(MorselSource::new(Arc::clone(&table), &txn, opts.clone(), MORSEL_ROWS));
        let group1_morsels = 30_000usize.div_ceil(MORSEL_ROWS);
        assert_eq!(
            src.morsel_count(),
            group1_morsels,
            "selective scan must only dispense group-1 morsels (full scan has {full})"
        );
        assert!(src.morsel_count() < full);
        // The pruned scan still returns exactly the qualifying rows.
        let txn = Arc::new(mgr.begin());
        let mut rows = Vec::new();
        let mut seqs = Vec::new();
        while let Some(m) = src.next_morsel() {
            // The surviving morsels are numbered gap-free; `group` still
            // names the row group they scan.
            assert_eq!(m.group, 1);
            seqs.push(m.seq);
            let mut op = MorselScanOp::new(Arc::clone(&src), Arc::clone(&txn), m);
            rows.extend(drain_rows(&mut op).unwrap());
        }
        assert_eq!(seqs, (0..group1_morsels).collect::<Vec<_>>());
        assert_eq!(rows.len(), 1000);
    }

    #[test]
    fn abort_stops_dispensing() {
        let (mgr, table) = table_with(50_000);
        let txn = mgr.begin();
        let opts = ScanOptions { columns: vec![0], ..Default::default() };
        let src = MorselSource::new(table, &txn, opts, VECTOR_SIZE);
        assert!(src.next_morsel().is_some());
        src.abort();
        assert!(src.next_morsel().is_none(), "aborted source must stop dispensing");
        src.reset();
        assert_eq!(src.next_morsel().unwrap().seq, 0);
    }

    #[test]
    fn morsel_scans_union_to_full_scan() {
        let (mgr, table) = table_with(20_000);
        let txn = Arc::new(mgr.begin());
        let opts = ScanOptions { columns: vec![0], ..Default::default() };
        let src = Arc::new(MorselSource::new(Arc::clone(&table), &txn, opts.clone(), 4096));
        let mut rows = Vec::new();
        while let Some(m) = src.next_morsel() {
            let mut op = MorselScanOp::new(Arc::clone(&src), Arc::clone(&txn), m);
            rows.extend(drain_rows(&mut op).unwrap());
        }
        let serial: Vec<Vec<Value>> =
            table.scan_collect(&txn, &opts).unwrap().iter().flat_map(|c| c.to_rows()).collect();
        assert_eq!(rows, serial);
    }

    #[test]
    fn external_partitions_dispense_and_merge_deterministically() {
        use eider_etl::csv::{CsvReadOptions, CsvSource};
        use std::io::Write as _;
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut path = std::env::temp_dir();
        path.push(format!("eider_morsel_ext_{}_{n}.csv", std::process::id()));
        {
            let mut f = std::fs::File::create(&path).unwrap();
            writeln!(f, "id,name").unwrap();
            for i in 0..4000 {
                writeln!(f, "{i},row_{i}_padding_padding_padding").unwrap();
            }
        }
        let csv = Arc::new(CsvSource::open(&path, CsvReadOptions::default()).unwrap());
        let parts = csv.partitions(4).unwrap();
        assert!(parts.len() >= 2, "file is large enough to split");
        let src = Arc::new(MorselSource::external(
            Arc::clone(&csv) as Arc<dyn TableSource>,
            vec![0],
            parts,
        ));
        assert_eq!(src.output_types(), vec![LogicalType::BigInt]);
        let mgr = TransactionManager::new();
        let txn = Arc::new(mgr.begin());
        let mut by_seq = Vec::new();
        while let Some(m) = src.next_morsel() {
            let mut op = MorselScanOp::new(Arc::clone(&src), Arc::clone(&txn), m);
            by_seq.push((m.seq, drain_rows(&mut op).unwrap()));
        }
        by_seq.sort_by_key(|(seq, _)| *seq);
        let rows: Vec<Vec<Value>> = by_seq.into_iter().flat_map(|(_, r)| r).collect();
        assert_eq!(rows.len(), 4000);
        assert_eq!(rows[0], vec![Value::BigInt(0)]);
        assert_eq!(rows[3999], vec![Value::BigInt(3999)]);
        std::fs::remove_file(&path).unwrap();
    }
}
