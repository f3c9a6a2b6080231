//! External sort and Top-N: one sorted-run core over normalized byte keys.
//!
//! Every ORDER BY path — the serial [`ExternalSortOp`] (also merge join's
//! key-emitting input), its Top-N form [`ExternalSortOp::top_n`] and the
//! parallel `PipelineSink::Sort` with and without a limit — buffers rows
//! in a [`SortSink`] and drains them through a `SortMerge`:
//!
//! * **Keys.** Each input chunk's ORDER BY columns are encoded in one
//!   vectorized pass into the ordered variant of [`crate::rowkey`]'s
//!   normalized bytes, suffixed with the row's scan position
//!   `(seq, intra, row)` big-endian. Keys are unique, a plain byte compare
//!   is the whole comparator, and ties keep scan order at every worker
//!   count.
//! * **Payload** stays columnar: a run concatenates its input chunks and
//!   sorts a permutation of row indexes; output chunks are typed gathers
//!   ([`Vector::append_selected`]).
//! * **Merge.** A min-heap of run heads compared on key bytes.
//! * **Top-N.** A row's key is checked against the cap-th best key seen so
//!   far before its payload is touched; survivors are compacted with
//!   `select_nth_unstable` once they pass twice the cap.
//! * **Spill.** Past its budget a run goes to disk — §4's disk-for-RAM
//!   trade ("The merge requires fewer main memory resources to run, but
//!   O(n log n) CPU cycles as well as disk IO") — as chunks of key columns,
//!   three position columns and the payload; keys are re-encoded on read.

use crate::expression::Expr;
use crate::ops::{OperatorBox, PhysicalOperator};
use crate::rowkey::{conform_columns, encode_keys, KeyLayout, KeyOrder, KeyScratch};
use eider_storage::buffer::{BufferManager, MemoryReservation};
use eider_storage::spill::{SpillFile, SpillReader};
use eider_vector::{
    DataChunk, LogicalType, Result, ValidityMask, Value, Vector, VectorData, VECTOR_SIZE,
};
use std::cmp::Ordering;
use std::sync::Arc;

/// One ORDER BY term.
#[derive(Debug, Clone)]
pub struct SortKey {
    pub expr: Expr,
    pub descending: bool,
    /// Default in eider is NULLS LAST for ascending, NULLS FIRST for
    /// descending (matching most engines' symmetric behaviour).
    pub nulls_first: bool,
}

impl SortKey {
    pub fn asc(expr: Expr) -> Self {
        SortKey { expr, descending: false, nulls_first: false }
    }

    pub fn desc(expr: Expr) -> Self {
        SortKey { expr, descending: true, nulls_first: true }
    }
}

/// Compare two precomputed key tuples under the ORDER BY spec: merge
/// join's key order, and the reference the byte keys are tested against.
/// It shares the byte keys' total order: NaN equals only NaN and sorts
/// after `+inf`.
pub fn compare_keys(a: &[Value], b: &[Value], keys: &[SortKey]) -> Ordering {
    let nan = |v: &Value| matches!(v, Value::Double(d) if d.is_nan());
    let value = |x: &Value, y: &Value| match (nan(x), nan(y)) {
        (false, false) => x.sql_cmp(y).unwrap_or(Ordering::Equal),
        (x_nan, y_nan) => x_nan.cmp(&y_nan),
    };
    let column = |(k, (x, y)): (&SortKey, (&Value, &Value))| match (x.is_null(), y.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) if k.nulls_first => Ordering::Less,
        (true, false) => Ordering::Greater,
        (false, true) if k.nulls_first => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) if k.descending => value(y, x),
        (false, false) => value(x, y),
    };
    keys.iter().zip(a.iter().zip(b)).map(column).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
}

/// Smallest run budget a sort works with.
const MIN_RUN_BUDGET: usize = 1 << 16;

/// Bytes of the scan-position key suffix: `seq` (8), `intra` (4), `row` (4).
const POSITION_BYTES: usize = 16;

fn position(seq: usize, intra: usize, row: usize) -> [u8; POSITION_BYTES] {
    let mut p = [0u8; POSITION_BYTES];
    p[..8].copy_from_slice(&(seq as u64).to_be_bytes());
    p[8..12].copy_from_slice(&(intra as u32).to_be_bytes());
    p[12..].copy_from_slice(&(row as u32).to_be_bytes());
    p
}

/// A compiled ORDER BY: the key expressions, their ordered byte layout and
/// the payload (sort input) column types.
pub struct SortSpec {
    keys: Vec<SortKey>,
    layout: KeyLayout,
    payload_types: Vec<LogicalType>,
}

impl SortSpec {
    pub fn new(keys: Vec<SortKey>, payload_types: Vec<LogicalType>) -> Self {
        let types = keys.iter().map(|k| k.expr.result_type()).collect();
        let order = keys
            .iter()
            .map(|k| KeyOrder { descending: k.descending, nulls_first: k.nulls_first })
            .collect();
        SortSpec { layout: KeyLayout::ordered(types, order), keys, payload_types }
    }

    /// The key columns of a payload chunk, cast to the layout's types.
    fn key_columns(&self, chunk: &DataChunk) -> Result<Vec<Vector>> {
        let cols = self.keys.iter().map(|k| k.expr.evaluate(chunk)).collect::<Result<Vec<_>>>()?;
        Ok(conform_columns(&self.layout, &cols)?.unwrap_or(cols))
    }

    fn output_types(&self, emit_keys: bool) -> Vec<LogicalType> {
        let keys = if emit_keys { self.layout.types() } else { &[] };
        keys.iter().chain(&self.payload_types).copied().collect()
    }
}

/// An empty chunk whose columns reserve room for `rows` values.
fn chunk_with_capacity(types: &[LogicalType], rows: usize) -> DataChunk {
    let cols = types.iter().map(|&t| Vector::with_capacity(t, rows)).collect();
    DataChunk::from_vectors(cols).expect("empty columns")
}

/// Rows buffered toward one sorted run: the payload concatenated
/// columnar, plus one normalized key (ORDER BY bytes, scan position) per
/// row.
struct RunBuffer {
    payload: DataChunk,
    keys: Vec<u8>,
    /// Start of row `i`'s key; the next start (or the arena end) closes it.
    starts: Vec<usize>,
    /// Payload bytes charged: chunk footprints as they were appended.
    payload_bytes: usize,
}

impl RunBuffer {
    fn new(payload: DataChunk) -> Self {
        RunBuffer { payload, keys: Vec::new(), starts: Vec::new(), payload_bytes: 0 }
    }

    fn len(&self) -> usize {
        self.starts.len()
    }

    fn key(&self, row: usize) -> &[u8] {
        let end = self.starts.get(row + 1).copied().unwrap_or(self.keys.len());
        &self.keys[self.starts[row]..end]
    }

    fn push_key(&mut self, parts: [&[u8]; 2]) {
        self.starts.push(self.keys.len());
        self.keys.extend_from_slice(parts[0]);
        self.keys.extend_from_slice(parts[1]);
    }

    /// The footprint charged to the buffer manager.
    fn bytes(&self) -> usize {
        self.payload_bytes + self.keys.capacity() + self.starts.capacity() * 8
    }

    fn cmp_rows(&self, a: u32, b: u32) -> Ordering {
        self.key(a as usize).cmp(self.key(b as usize))
    }

    /// Row indexes in key order. Rows sort as (8-byte key prefix, row)
    /// pairs, so most comparisons settle on one integer compare without
    /// touching the arena (every key is at least 16 bytes long).
    fn sorted_order(&self) -> Vec<u32> {
        let prefix = |r: usize| u64::from_be_bytes(self.key(r)[..8].try_into().expect("8"));
        let mut pairs: Vec<(u64, u32)> = (0..self.len()).map(|r| (prefix(r), r as u32)).collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| self.cmp_rows(a.1, b.1)));
        pairs.into_iter().map(|(_, r)| r).collect()
    }

    /// The buffer's rows `rows`, in that order. The payload is gathered
    /// one column at a time, each source column dropped as its copy is
    /// made, so the transient extra memory is one column.
    fn gather(mut self, rows: &[u32]) -> Result<RunBuffer> {
        let mut cols = std::mem::take(&mut self.payload).into_columns();
        for col in &mut cols {
            let mut sorted = Vector::with_capacity(col.logical_type(), rows.len());
            sorted.append_selected(col, rows)?;
            *col = sorted;
        }
        let mut out = RunBuffer::new(DataChunk::from_vectors(cols)?);
        out.payload_bytes = out.payload.size_bytes();
        out.keys.reserve_exact(rows.len() * self.keys.len() / self.len().max(1));
        out.starts.reserve_exact(rows.len());
        for &r in rows {
            out.push_key([self.key(r as usize), &[]]);
        }
        Ok(out)
    }

    /// The best `cap` rows (all without a cap), physically in key order:
    /// the merge then reads keys and payload sequentially.
    fn into_sorted(self, cap: Option<usize>) -> Result<RunBuffer> {
        let mut order = self.sorted_order();
        order.truncate(cap.unwrap_or(usize::MAX));
        self.gather(&order)
    }
}

/// Reserve a run budget of up to `want` bytes, halving the ask while
/// concurrent sessions hold the pool: smaller runs, more spilling, same
/// rows out. Below the 64 KiB floor the run goes unaccounted at the floor,
/// the same bounded exception the other scratch buffers use.
fn reserve_run_budget(
    buffers: &Arc<BufferManager>,
    mut want: usize,
) -> (Option<MemoryReservation>, usize) {
    loop {
        if want < MIN_RUN_BUDGET {
            return (None, MIN_RUN_BUDGET);
        }
        if let Ok(r) = buffers.reserve(want) {
            return (Some(r), want);
        }
        want /= 2;
    }
}

/// Worker-local (or serial) sort state: the run being buffered plus the
/// runs already spilled. A full sort spills whenever its buffer reaches
/// the run budget reserved upfront; a Top-N sink keeps only rows that can
/// still make the cut and charges its real footprint as it changes.
pub struct SortSink {
    spec: Arc<SortSpec>,
    buf: RunBuffer,
    scratch: KeyScratch,
    /// Rows of the current chunk that beat the Top-N boundary.
    sel: Vec<u32>,
    /// Top-N bound (`limit + offset`); `None` for a full sort.
    cap: Option<usize>,
    /// Top-N: key of the cap-th best row so far (empty before the first
    /// compaction or spill that finds `cap` rows).
    boundary: Vec<u8>,
    /// Top-N: keys of the best (at most `cap`) spilled rows, so the
    /// boundary tightens even when every spilled run is shorter than
    /// `cap`. At most two runs' worth of keys, unaccounted like `sel`.
    spilled_keys: Vec<Vec<u8>>,
    /// Full sort: buffered bytes at which the run spills.
    budget: usize,
    reservation: Option<MemoryReservation>,
    spills: Vec<SpillReader>,
}

impl SortSink {
    /// A full sort (`cap = None`) or a Top-N sink keeping the best `cap`
    /// rows; unbudgeted and unaccounted until configured otherwise.
    pub fn new(spec: Arc<SortSpec>, cap: Option<usize>) -> Self {
        let buf = RunBuffer::new(chunk_with_capacity(&spec.payload_types, 0));
        SortSink {
            spec,
            buf,
            scratch: KeyScratch::default(),
            sel: Vec::new(),
            cap: cap.map(|c| c.max(1)),
            boundary: Vec::new(),
            spilled_keys: Vec::new(),
            budget: usize::MAX,
            reservation: None,
            spills: Vec::new(),
        }
    }

    /// Full sort: spill past a run budget of up to `want` bytes, reserved
    /// from `buffers` when given (see [`reserve_run_budget`]).
    pub(crate) fn with_budget(mut self, buffers: Option<&Arc<BufferManager>>, want: usize) -> Self {
        self.budget = want;
        if let Some(b) = buffers {
            (self.reservation, self.budget) = reserve_run_budget(b, want);
        }
        self
    }

    /// Top-N: keep a reservation on `buffers` equal to the buffered bytes.
    /// A refused grow spills the candidates and releases their charge, so
    /// no Top-N needs a row-count cap.
    pub(crate) fn with_charge(mut self, buffers: Option<&Arc<BufferManager>>) -> Result<Self> {
        self.reservation = buffers.map(|b| b.reserve(0)).transpose()?;
        Ok(self)
    }

    /// Buffer a serial operator's whole output, chunk `i` at position
    /// `(0, i)`.
    fn consume_all(&mut self, mut child: OperatorBox) -> Result<()> {
        let mut intra = 0;
        while let Some(chunk) = child.next_chunk()? {
            if !chunk.is_empty() {
                self.consume(&chunk, 0, intra)?;
                intra += 1;
            }
        }
        Ok(())
    }

    /// Buffer one input chunk; `(seq, intra)` is its scan position (morsel
    /// sequence, chunk within the morsel).
    pub fn consume(&mut self, chunk: &DataChunk, seq: usize, intra: usize) -> Result<()> {
        let keys = self.spec.key_columns(chunk)?;
        encode_keys(&self.spec.layout, &keys, chunk.len(), &mut self.scratch)?;
        let Some(cap) = self.cap else {
            for row in 0..chunk.len() {
                self.buf.push_key([self.scratch.key(row), &position(seq, intra, row)[..]]);
            }
            self.buf.payload.append_from(chunk, 0, chunk.len())?;
            self.buf.payload_bytes += chunk.size_bytes();
            return if self.buf.bytes() >= self.budget { self.spill() } else { Ok(()) };
        };
        self.sel.clear();
        for row in 0..chunk.len() {
            let (key, pos) = (self.scratch.key(row), position(seq, intra, row));
            let beats = self.boundary.is_empty() || {
                let (bkey, bpos) = self.boundary.split_at(self.boundary.len() - POSITION_BYTES);
                // Ordered keys are prefix-free, so comparing the parts
                // equals comparing the concatenations.
                key.cmp(bkey).then(pos.as_slice().cmp(bpos)) == Ordering::Less
            };
            if beats {
                self.sel.push(row as u32);
                self.buf.push_key([key, &pos[..]]);
            }
        }
        if !self.sel.is_empty() {
            for (c, col) in chunk.columns().iter().enumerate() {
                self.buf.payload.column_mut(c).append_selected(col, &self.sel)?;
            }
            self.buf.payload_bytes += chunk.size_bytes() * self.sel.len() / chunk.len();
        }
        if self.buf.len() > cap.saturating_mul(2) {
            self.compact(cap)?;
        }
        self.sync_charge()
    }

    /// Top-N: keep only the best `cap` rows; the worst of them becomes the
    /// boundary later rows must beat.
    fn compact(&mut self, cap: usize) -> Result<()> {
        if self.buf.len() <= cap {
            return Ok(());
        }
        let mut order: Vec<u32> = (0..self.buf.len() as u32).collect();
        order.select_nth_unstable_by(cap - 1, |&a, &b| self.buf.cmp_rows(a, b));
        order.truncate(cap);
        self.boundary.clear();
        self.boundary.extend_from_slice(self.buf.key(order[cap - 1] as usize));
        self.buf = self.take_buf().gather(&order)?;
        Ok(())
    }

    fn take_buf(&mut self) -> RunBuffer {
        let empty = RunBuffer::new(chunk_with_capacity(&self.spec.payload_types, 0));
        std::mem::replace(&mut self.buf, empty)
    }

    /// Top-N: sync the reservation with the buffered bytes (see
    /// [`SortSink::with_charge`]).
    fn sync_charge(&mut self) -> Result<()> {
        let bytes = self.buf.bytes();
        let Some(res) = self.reservation.as_mut() else { return Ok(()) };
        let held = res.bytes();
        if bytes <= held {
            res.shrink(held - bytes);
            return Ok(());
        }
        match res.grow(bytes - held) {
            Err(_) => {
                self.spill()?;
                let res = self.reservation.as_mut().expect("checked");
                res.shrink(res.bytes());
                Ok(())
            }
            Ok(()) => Ok(()),
        }
    }

    /// Sort the buffered run (a Top-N run: its best `cap` rows) and write
    /// it to a spill file as chunks of key columns, `seq`/`intra`/`row`
    /// position columns and payload. A Top-N then tightens its boundary to
    /// the cap-th best key spilled so far: later rows that cannot beat it
    /// are never buffered, so a refused charge does not send the whole
    /// input to disk.
    fn spill(&mut self) -> Result<()> {
        if self.buf.len() == 0 {
            return Ok(());
        }
        let run = self.take_buf().into_sorted(self.cap)?;
        if let Some(cap) = self.cap {
            self.spilled_keys.extend((0..run.len()).map(|r| run.key(r).to_vec()));
            if self.spilled_keys.len() >= cap {
                self.spilled_keys.select_nth_unstable(cap - 1);
                self.spilled_keys.truncate(cap);
                let kth = &self.spilled_keys[cap - 1];
                if self.boundary.is_empty() || *kth < self.boundary {
                    self.boundary.clone_from(kth);
                }
            }
        }
        let mut file = SpillFile::create()?;
        for start in (0..run.len()).step_by(VECTOR_SIZE) {
            let rows = start..run.len().min(start + VECTOR_SIZE);
            let payload = run.payload.slice(start, rows.len());
            let mut cols = self.spec.key_columns(&payload)?;
            for (lo, hi) in [(0, 8), (8, 12), (12, 16)] {
                let field = rows.clone().map(|r| {
                    let pos = &run.key(r)[run.key(r).len() - POSITION_BYTES..];
                    pos[lo..hi].iter().fold(0i64, |acc, &b| (acc << 8) | i64::from(b))
                });
                let valid = ValidityMask::new_all_valid(rows.len());
                let data = VectorData::I64(field.collect());
                cols.push(Vector::from_parts(LogicalType::BigInt, data, valid)?);
            }
            cols.extend(payload.into_columns());
            file.write_chunk(&DataChunk::from_vectors(cols)?)?;
        }
        self.spills.push(file.finish()?);
        Ok(())
    }

    /// Seal the sink into sorted runs: the spilled ones, then the buffered
    /// run, sorted here (on the worker, in a parallel sort) and carrying
    /// the sink's reservation until the merge drains it. A Top-N first
    /// trims to the best `cap` rows and gives the losers' charge back.
    pub(crate) fn finish(mut self) -> Result<Vec<MergeRun>> {
        if let Some(cap) = self.cap {
            self.compact(cap)?;
            self.sync_charge()?;
        }
        let mut runs = Vec::with_capacity(self.spills.len() + 1);
        for reader in self.spills {
            runs.extend(MergeRun::spilled(&self.spec, reader)?);
        }
        if self.buf.len() > 0 {
            runs.push(MergeRun {
                rows: self.buf.into_sorted(None)?,
                payload_at: 0,
                pos: 0,
                spill: None,
                reservation: self.reservation,
            });
        }
        Ok(runs)
    }
}

/// One sorted run being merged: a buffer in key order, or a spill file
/// streamed back one sorted chunk at a time.
pub(crate) struct MergeRun {
    rows: RunBuffer,
    /// First payload column of `rows.payload` (spilled chunks lead with
    /// key and position columns).
    payload_at: usize,
    pos: usize,
    spill: Option<(SpillReader, KeyScratch)>,
    /// Charge for an in-memory run, released once the merge drains it.
    reservation: Option<MemoryReservation>,
}

impl MergeRun {
    fn spilled(spec: &SortSpec, reader: SpillReader) -> Result<Option<MergeRun>> {
        let mut run = MergeRun {
            rows: RunBuffer::new(DataChunk::default()),
            payload_at: spec.keys.len() + 3,
            pos: 0,
            spill: Some((reader, KeyScratch::default())),
            reservation: None,
        };
        run.refill(spec)?;
        Ok((run.rows.len() > 0).then_some(run))
    }

    fn head(&self) -> &[u8] {
        self.rows.key(self.pos)
    }

    /// Step past the head row; `false` once the run is drained.
    fn advance(&mut self, spec: &SortSpec) -> Result<bool> {
        self.pos += 1;
        if self.pos == self.rows.len() {
            self.refill(spec)?;
        }
        Ok(self.pos < self.rows.len())
    }

    /// Load the next spilled chunk, re-encoding its keys; a drained run
    /// frees its rows and charge.
    fn refill(&mut self, spec: &SortSpec) -> Result<()> {
        self.pos = 0;
        self.rows = RunBuffer::new(DataChunk::default());
        let Some((reader, scratch)) = self.spill.as_mut() else {
            self.reservation = None;
            return Ok(());
        };
        let Some(chunk) = reader.next_chunk()? else { return Ok(()) };
        let nkeys = spec.keys.len();
        encode_keys(&spec.layout, &chunk.columns()[..nkeys], chunk.len(), scratch)?;
        let [seq, intra, row] = [0, 1, 2].map(|i| chunk.column(nkeys + i).as_i64());
        for r in 0..chunk.len() {
            let pos = position(seq[r] as usize, intra[r] as usize, row[r] as usize);
            self.rows.push_key([scratch.key(r), &pos[..]]);
        }
        self.rows.payload = chunk;
        Ok(())
    }
}

/// The k-way merge over sorted runs: a min-heap of run indexes ordered by
/// head key bytes. Emits chunks of contiguous run slices, skipping `skip`
/// rows and stopping after `take`.
pub(crate) struct SortMerge {
    spec: Arc<SortSpec>,
    runs: Vec<MergeRun>,
    heap: Vec<usize>,
    skip: usize,
    take: usize,
    /// Lead each output chunk with the key columns (merge join).
    emit_keys: bool,
    /// Rows `seg.1 .. seg.1 + seg.2` of run `seg.0`, picked for the chunk
    /// being built.
    seg: (usize, usize, usize),
}

impl SortMerge {
    pub(crate) fn new(spec: Arc<SortSpec>, runs: Vec<MergeRun>, skip: usize, take: usize) -> Self {
        let mut merge = SortMerge {
            spec,
            heap: (0..runs.len()).collect(),
            runs,
            skip,
            take,
            emit_keys: false,
            seg: (0, 0, 0),
        };
        for i in (0..merge.heap.len() / 2).rev() {
            merge.sift_down(i);
        }
        merge
    }

    fn heap_key(&self, h: usize) -> &[u8] {
        self.runs[self.heap[h]].head()
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let mut min = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.heap.len() && self.heap_key(child) < self.heap_key(min) {
                    min = child;
                }
            }
            if min == i {
                return;
            }
            self.heap.swap(i, min);
            i = min;
        }
    }

    /// Copy the picked slice into `out`.
    fn flush(&mut self, out: &mut DataChunk) -> Result<()> {
        let (r, start, len) = std::mem::take(&mut self.seg);
        if len > 0 {
            let run = &self.runs[r];
            for c in 0..out.column_count() {
                out.column_mut(c).append_from(
                    run.rows.payload.column(run.payload_at + c),
                    start,
                    len,
                )?;
            }
        }
        Ok(())
    }

    pub(crate) fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        let mut out = DataChunk::new(&self.spec.payload_types);
        while self.take > 0 && out.len() + self.seg.2 < VECTOR_SIZE {
            let Some(&r) = self.heap.first() else { break };
            let pos = self.runs[r].pos;
            if self.skip > 0 {
                self.skip -= 1;
            } else {
                if (r, pos) != (self.seg.0, self.seg.1 + self.seg.2) {
                    self.flush(&mut out)?;
                    self.seg = (r, pos, 0);
                }
                self.seg.2 += 1;
                self.take -= 1;
            }
            if pos + 1 == self.runs[r].rows.len() {
                // The run's block is about to be replaced or freed.
                self.flush(&mut out)?;
            }
            if !self.runs[r].advance(&self.spec)? {
                self.heap.swap_remove(0);
            }
            self.sift_down(0);
        }
        self.flush(&mut out)?;
        if out.is_empty() {
            return Ok(None);
        }
        if self.emit_keys {
            let mut cols = self.spec.key_columns(&out)?;
            cols.extend(out.into_columns());
            out = DataChunk::from_vectors(cols)?;
        }
        Ok(Some(out))
    }
}

/// External merge sort operator; with a limit, the Top-N.
pub struct ExternalSortOp {
    child: Option<OperatorBox>,
    spec: Arc<SortSpec>,
    /// Top-N bound as `(limit, offset)`; `None` sorts everything.
    limit: Option<(usize, usize)>,
    /// Bytes of rows buffered before a run spills.
    budget: usize,
    /// Optional accounting against the shared buffer manager.
    buffers: Option<Arc<BufferManager>>,
    /// Emit the computed key columns ahead of the payload (merge join
    /// wants them; plain ORDER BY strips them).
    emit_keys: bool,
    merge: Option<SortMerge>,
    spilled_runs: usize,
    /// Top-N: charge for the buffered candidate rows, synced per input
    /// chunk and held until the operator drops (the survivors stay
    /// resident while the consumer drains them).
    reservation: Option<MemoryReservation>,
}

impl ExternalSortOp {
    pub fn new(
        child: OperatorBox,
        keys: Vec<SortKey>,
        budget: usize,
        buffers: Option<Arc<BufferManager>>,
        emit_keys: bool,
    ) -> Self {
        ExternalSortOp {
            spec: Arc::new(SortSpec::new(keys, child.output_types())),
            child: Some(child),
            limit: None,
            budget: budget.max(MIN_RUN_BUDGET),
            buffers,
            emit_keys,
            merge: None,
            spilled_runs: 0,
            reservation: None,
        }
    }

    /// Top-N: ORDER BY + LIMIT without a full sort — a [`SortSink`] bounded
    /// to `limit + offset` rows, its real footprint charged against
    /// `buffers`. A refused grow spills the candidates, as in the parallel
    /// Top-N, and the merge reads them back.
    pub fn top_n(
        child: OperatorBox,
        keys: Vec<SortKey>,
        limit: usize,
        offset: usize,
        buffers: Option<Arc<BufferManager>>,
    ) -> Self {
        let sort = ExternalSortOp::new(child, keys, usize::MAX, buffers, false);
        ExternalSortOp { limit: Some((limit, offset)), ..sort }
    }

    /// Number of runs that went to disk (diagnostics).
    pub fn spilled_runs(&self) -> usize {
        self.spilled_runs
    }

    /// Bytes charged for a Top-N's candidate buffer (0 when unaccounted).
    pub fn accounted_bytes(&self) -> usize {
        self.reservation.as_ref().map_or(0, MemoryReservation::bytes)
    }

    fn sort_phase(&mut self) -> Result<()> {
        let child = self.child.take().expect("sort runs once");
        let (spec, buffers) = (Arc::clone(&self.spec), self.buffers.as_ref());
        let mut sink = match self.limit {
            Some((limit, offset)) => {
                SortSink::new(spec, Some(limit.saturating_add(offset))).with_charge(buffers)?
            }
            None => {
                let want = buffers.map_or(self.budget, |b| self.budget.min(b.memory_limit()));
                SortSink::new(spec, None).with_budget(buffers, want)
            }
        };
        sink.consume_all(child)?;
        self.spilled_runs = sink.spills.len();
        let mut runs = sink.finish()?;
        // The charge rides on the in-memory run: a Top-N keeps it until the
        // operator drops, a full sort holds its run budget for the sort
        // phase only.
        let charge = runs.iter_mut().find_map(|r| r.reservation.take());
        self.reservation = charge.filter(|_| self.limit.is_some());
        let (take, skip) = self.limit.unwrap_or((usize::MAX, 0));
        let mut merge = SortMerge::new(Arc::clone(&self.spec), runs, skip, take);
        merge.emit_keys = self.emit_keys;
        self.merge = Some(merge);
        Ok(())
    }
}

impl PhysicalOperator for ExternalSortOp {
    fn output_types(&self) -> Vec<LogicalType> {
        self.spec.output_types(self.emit_keys)
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        if self.merge.is_none() {
            self.sort_phase()?;
        }
        self.merge.as_mut().expect("sorted").next_chunk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::basic::ValuesOp;
    use crate::ops::drain_rows;

    fn shuffled_source(n: i32) -> OperatorBox {
        // Deterministic shuffle via multiplicative hashing.
        let mut rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                let v = (i64::from(i) * 2654435761 % i64::from(n.max(1))) as i32;
                vec![Value::Integer(v), Value::Varchar(format!("p{v}"))]
            })
            .collect();
        rows.push(vec![Value::Null, Value::Varchar("null-row".into())]);
        let types = [LogicalType::Integer, LogicalType::Varchar];
        // Runs spill at chunk granularity: feed chunks, not one block.
        let chunks = rows.chunks(1000).map(|c| DataChunk::from_rows(&types, c).unwrap()).collect();
        Box::new(ValuesOp::new(types.to_vec(), chunks))
    }

    fn first_col(rows: &[Vec<Value>]) -> Vec<Value> {
        rows.iter().map(|r| r[0].clone()).collect()
    }

    #[test]
    fn in_memory_sort_ascending_nulls_last() {
        let keys = vec![SortKey::asc(Expr::column(0, LogicalType::Integer))];
        let mut op = ExternalSortOp::new(shuffled_source(100), keys, 1 << 30, None, false);
        let rows = drain_rows(&mut op).unwrap();
        assert_eq!(rows.len(), 101);
        let vals = first_col(&rows);
        for w in vals.windows(2) {
            assert!(w[0].total_cmp(&w[1]) != Ordering::Greater, "{w:?}");
        }
        assert!(vals.last().unwrap().is_null(), "NULLS LAST");
        assert_eq!(op.spilled_runs(), 0);
    }

    #[test]
    fn descending_puts_nulls_first() {
        let keys = vec![SortKey::desc(Expr::column(0, LogicalType::Integer))];
        let mut op = ExternalSortOp::new(shuffled_source(50), keys, 1 << 30, None, false);
        let rows = drain_rows(&mut op).unwrap();
        assert!(rows[0][0].is_null());
        let non_null: Vec<i64> = rows[1..].iter().filter_map(|r| r[0].as_i64()).collect();
        for w in non_null.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn external_sort_spills_and_merges_correctly() {
        let keys = vec![SortKey::asc(Expr::column(0, LogicalType::Integer))];
        // Tiny budget forces multiple spill runs.
        let mut op = ExternalSortOp::new(shuffled_source(5000), keys, 1 << 16, None, false);
        let rows = drain_rows(&mut op).unwrap();
        assert!(op.spilled_runs() >= 2, "expected spills, got {}", op.spilled_runs());
        assert_eq!(rows.len(), 5001);
        let vals: Vec<i64> = rows.iter().filter_map(|r| r[0].as_i64()).collect();
        assert_eq!(vals.len(), 5000);
        for w in vals.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Every input value present exactly as often as produced.
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        assert_eq!(vals, sorted);
    }

    #[test]
    fn sort_with_emitted_keys() {
        let keys = vec![SortKey::asc(Expr::column(0, LogicalType::Integer))];
        let mut op = ExternalSortOp::new(shuffled_source(10), keys, 1 << 30, None, true);
        assert_eq!(op.output_types().len(), 3); // key + 2 payload columns
        let rows = drain_rows(&mut op).unwrap();
        // Key column equals the original first payload column.
        for r in &rows {
            assert_eq!(r[0], r[1]);
        }
    }

    #[test]
    fn multi_key_sort() {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Integer(1), Value::Integer(9)],
            vec![Value::Integer(1), Value::Integer(3)],
            vec![Value::Integer(0), Value::Integer(5)],
        ];
        let chunk =
            DataChunk::from_rows(&[LogicalType::Integer, LogicalType::Integer], &rows).unwrap();
        let src: OperatorBox =
            Box::new(ValuesOp::new(vec![LogicalType::Integer, LogicalType::Integer], vec![chunk]));
        let keys = vec![
            SortKey::asc(Expr::column(0, LogicalType::Integer)),
            SortKey::desc(Expr::column(1, LogicalType::Integer)),
        ];
        let mut op = ExternalSortOp::new(src, keys, 1 << 30, None, false);
        let rows = drain_rows(&mut op).unwrap();
        assert_eq!(first_col(&rows), vec![Value::Integer(0), Value::Integer(1), Value::Integer(1)]);
        assert_eq!(rows[1][1], Value::Integer(9));
        assert_eq!(rows[2][1], Value::Integer(3));
    }

    #[test]
    fn topn_matches_full_sort() {
        let keys = vec![SortKey::asc(Expr::column(0, LogicalType::Integer))];
        let mut full =
            ExternalSortOp::new(shuffled_source(1000), keys.clone(), 1 << 30, None, false);
        let all = drain_rows(&mut full).unwrap();
        let mut topn = ExternalSortOp::top_n(shuffled_source(1000), keys, 7, 3, None);
        let top = drain_rows(&mut topn).unwrap();
        assert_eq!(top.len(), 7);
        assert_eq!(first_col(&top), first_col(&all[3..10]));
    }

    #[test]
    fn topn_smaller_input_than_limit() {
        let keys = vec![SortKey::asc(Expr::column(0, LogicalType::Integer))];
        let mut topn = ExternalSortOp::top_n(shuffled_source(3), keys, 100, 0, None);
        let rows = drain_rows(&mut topn).unwrap();
        assert_eq!(rows.len(), 4);
    }

    fn test_buffers(limit: usize) -> Arc<BufferManager> {
        BufferManager::new(eider_storage::buffer::BufferManagerConfig { memory_limit: limit })
    }

    #[test]
    fn topn_charges_its_buffer_and_releases_on_drop() {
        let mgr = test_buffers(1 << 30);
        let keys = || vec![SortKey::asc(Expr::column(0, LogicalType::Integer))];
        let types = [LogicalType::Integer, LogicalType::Varchar];
        // Descending keys in 5-row chunks: every row beats the boundary, so
        // the sink compacts at 25 rows and ends holding 15 candidates, 5 of
        // which only the final trim drops.
        let source = || -> OperatorBox {
            let rows: Vec<Vec<Value>> = (0..1005)
                .rev()
                .map(|v| vec![Value::Integer(v), Value::Varchar(format!("p{v}"))])
                .collect();
            let chunks = rows.chunks(5).map(|c| DataChunk::from_rows(&types, c).unwrap()).collect();
            Box::new(ValuesOp::new(types.to_vec(), chunks))
        };
        let mut topn = ExternalSortOp::top_n(source(), keys(), 7, 3, Some(Arc::clone(&mgr)));
        let rows = drain_rows(&mut topn).unwrap();
        assert_eq!(first_col(&rows), (3..10).map(Value::Integer).collect::<Vec<_>>());
        // The charge pins the *retained* footprint — the `limit + offset`
        // = 10 buffered rows, columnar payload plus byte keys — not the 1005
        // rows streamed through: losers are refunded as they are trimmed.
        let mut full = ExternalSortOp::new(source(), keys(), 1 << 30, None, false);
        let survivors = &drain_rows(&mut full).unwrap()[..10];
        let mut payload = chunk_with_capacity(&types, 10);
        payload.append_from(&DataChunk::from_rows(&types, survivors).unwrap(), 0, 10).unwrap();
        let payload = payload.size_bytes();
        // Per row: sentinel + INTEGER key + scan position, and its start.
        let expected = payload + 10 * (1 + 4 + POSITION_BYTES + 8);
        let held = topn.accounted_bytes();
        assert_eq!(held, mgr.used_memory());
        assert!(
            held >= expected - expected / 4 && held <= expected + expected / 4,
            "accounted {held}B should pin ~{expected}B (10 buffered rows)"
        );
        drop(topn);
        assert_eq!(mgr.used_memory(), 0, "reservation released with the operator");
    }

    #[test]
    fn topn_over_budget_spills_instead_of_failing() {
        // 64 bytes cannot hold 100 buffered rows: every refused grow
        // spills the candidates, and the merge still returns the best 100.
        let mgr = test_buffers(64);
        let keys = vec![SortKey::asc(Expr::column(0, LogicalType::Integer))];
        let mut topn =
            ExternalSortOp::top_n(shuffled_source(1000), keys, 100, 0, Some(Arc::clone(&mgr)));
        let rows = drain_rows(&mut topn).unwrap();
        assert_eq!(first_col(&rows), (0..100).map(Value::Integer).collect::<Vec<_>>());
        assert!(topn.spilled_runs() > 0, "the refused charge must spill");
        drop(topn);
        assert_eq!(mgr.used_memory(), 0);
    }

    #[test]
    fn topn_spills_stop_once_the_spilled_rows_fill_the_cap() {
        // Ascending keys in 10-row chunks under a 64-byte limit: every chunk
        // is refused and spilled, each run shorter than the cap. Once five
        // runs hold the best 50 rows, no later row can beat them, so the
        // other 195 chunks buffer nothing and nothing more goes to disk.
        let mgr = test_buffers(64);
        let types = [LogicalType::Integer, LogicalType::Varchar];
        let rows: Vec<Vec<Value>> =
            (0..2000).map(|i| vec![Value::Integer(i), Value::Varchar(format!("p{i}"))]).collect();
        let chunks = rows.chunks(10).map(|c| DataChunk::from_rows(&types, c).unwrap()).collect();
        let source = Box::new(ValuesOp::new(types.to_vec(), chunks));
        let keys = vec![SortKey::asc(Expr::column(0, LogicalType::Integer))];
        let mut topn = ExternalSortOp::top_n(source, keys, 50, 0, Some(Arc::clone(&mgr)));
        let rows = drain_rows(&mut topn).unwrap();
        assert_eq!(first_col(&rows), (0..50).map(Value::Integer).collect::<Vec<_>>());
        assert_eq!(topn.spilled_runs(), 5);
        drop(topn);
        assert_eq!(mgr.used_memory(), 0);
    }

    /// NaN has a place of its own: after `+inf` ascending (before NULLs
    /// under NULLS LAST), first among values descending. `-0.0` ties with
    /// `+0.0`, so their scan order survives.
    #[test]
    fn nan_sorts_after_infinity() {
        let vals = [f64::NAN, 1.0, f64::INFINITY, -0.0, f64::NEG_INFINITY, 0.0];
        let mut rows: Vec<Vec<Value>> = vals.iter().map(|&v| vec![Value::Double(v)]).collect();
        rows.push(vec![Value::Null]);
        let sorted = |key: SortKey| -> Vec<String> {
            let chunk = DataChunk::from_rows(&[LogicalType::Double], &rows).unwrap();
            let src = Box::new(ValuesOp::new(vec![LogicalType::Double], vec![chunk]));
            let mut op = ExternalSortOp::new(src, vec![key], 1 << 30, None, false);
            let out = drain_rows(&mut op).unwrap();
            out.iter().map(|r| format!("{:?}", r[0])).collect()
        };
        let col = || Expr::column(0, LogicalType::Double);
        assert_eq!(
            sorted(SortKey::asc(col())),
            ["Double(-inf)", "Double(-0.0)", "Double(0.0)", "Double(1.0)", "Double(inf)"]
                .into_iter()
                .chain(["Double(NaN)", "Null"])
                .collect::<Vec<_>>()
        );
        assert_eq!(
            sorted(SortKey::desc(col())),
            ["Null", "Double(NaN)", "Double(inf)", "Double(1.0)", "Double(-0.0)", "Double(0.0)"]
                .into_iter()
                .chain(["Double(-inf)"])
                .collect::<Vec<_>>()
        );
    }
}
