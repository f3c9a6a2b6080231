//! Hash join, nested-loop join and cross product.
//!
//! The hash join is the RAM-hungry/CPU-cheap end of §4's trade-off: the
//! build side materializes into a [`ChunkCollection`] (optionally
//! compressed under memory pressure, Figure 1) with an Fx-hashed bucket
//! table on top. When the build side would blow the memory budget, the
//! planner (or the cooperation policy at runtime) uses
//! [`crate::ops::merge_join::MergeJoinOp`] instead.
//!
//! The build and probe phases are split into first-class pieces so the
//! pipeline-DAG executor can schedule them as separate pipelines:
//!
//! * [`BuildSide`] — the immutable hashed build table. Built either
//!   serially chunk-by-chunk or spliced from morsel-parallel
//!   [`BuildPartial`]s; once finished it is read through `&self` only, so
//!   any number of probe workers can share one `Arc<BuildSide>`.
//! * [`JoinProbeOp`] — a streaming operator that probes its child's chunks
//!   against a borrowed build side. The serial [`HashJoinOp`] is exactly
//!   "drain right into a `BuildSide`, then `JoinProbeOp` over left"; the
//!   parallel executor stacks the same `JoinProbeOp` on every worker's
//!   morsel chain.

use crate::collection::{ChunkCache, ChunkCollection};
use crate::expression::Expr;
use crate::fxhash::hash_vector;
use crate::ops::{OperatorBox, PhysicalOperator};
use crate::rowkey::{encode_keys, KeyLayout, KeyScratch};
use eider_coop::compression::CompressionLevel;
use eider_storage::buffer::{BufferManager, MemoryReservation};
use eider_vector::{DataChunk, LogicalType, Result, SelectionVector, Vector, VECTOR_SIZE};
use std::collections::VecDeque;
use std::sync::Arc;

const EMPTY_SLOT: u32 = u32::MAX;
/// Entry marker for an unmatched output row (LEFT joins pad with NULLs).
const NULL_ENTRY: u32 = u32::MAX;

/// Join flavours supported by the hash and nested-loop joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    /// All left rows; right columns NULL where unmatched.
    Left,
    /// Left rows with at least one match (EXISTS / IN).
    Semi,
    /// Left rows with no match (NOT EXISTS).
    Anti,
}

impl JoinType {
    /// Whether the join's output rows carry the build side's columns.
    pub fn emits_right_columns(self) -> bool {
        matches!(self, JoinType::Inner | JoinType::Left)
    }
}

/// The immutable hashed build side of an equi-join: materialized rows plus
/// a chained hash table over *row-format* key encodings
/// ([`crate::rowkey`]): every build key lives as normalized bytes in one
/// arena, probed by `memcmp` after a vectorized hash — no `Vec<Value>` per
/// row anywhere on the build or probe path.
///
/// Mutable only while building ([`BuildSide::append_chunk`] /
/// [`BuildSide::append_partial`]); every probe accessor takes `&self` with
/// a caller-owned [`ChunkCache`], so one `Arc<BuildSide>` serves any number
/// of concurrent probe workers — the pipeline-DAG executor's join-breaker
/// state.
pub struct BuildSide {
    rows: ChunkCollection,
    /// Key layout shared with probers; `None` until the first partial.
    layout: Option<KeyLayout>,
    /// Encoded key bytes of all entries, contiguous.
    key_arena: Vec<u8>,
    /// `(offset, len)` of each entry's key in `key_arena`.
    key_locs: Vec<(u32, u32)>,
    hashes: Vec<u64>,
    positions: Vec<(u32, u32)>,
    /// Power-of-two bucket heads (entry indexes) + per-entry chain links.
    slots: Vec<u32>,
    next: Vec<u32>,
    /// Charges the key table (arena + buckets + chains) to the buffer
    /// manager on top of the rows the `ChunkCollection` accounts itself.
    key_reservation: Option<MemoryReservation>,
    key_accounted: usize,
}

impl BuildSide {
    /// An empty build side; `buffers` (when given) accounts the
    /// materialized rows against the shared memory budget.
    pub fn new(
        compression: CompressionLevel,
        buffers: Option<Arc<BufferManager>>,
    ) -> Result<BuildSide> {
        let key_reservation = match &buffers {
            Some(b) => Some(b.reserve(0)?),
            None => None,
        };
        Ok(BuildSide {
            rows: match buffers {
                Some(b) => ChunkCollection::with_accounting(compression, b)?,
                None => ChunkCollection::new(compression),
            },
            layout: None,
            key_arena: Vec::new(),
            key_locs: Vec::new(),
            hashes: Vec::new(),
            positions: Vec::new(),
            slots: Vec::new(),
            next: Vec::new(),
            key_reservation,
            key_accounted: 0,
        })
    }

    /// Splice morsel-parallel build partials (in scan order) into one
    /// build side — the merge/finalize step of a parallel build pipeline.
    /// The expensive part (expression evaluation, hashing, key encoding)
    /// happened on the workers; this only fills the bucket table.
    pub fn from_partials(
        partials: Vec<BuildPartial>,
        compression: CompressionLevel,
        buffers: Option<Arc<BufferManager>>,
    ) -> Result<BuildSide> {
        let mut build = BuildSide::new(compression, buffers)?;
        for partial in partials {
            build.append_partial(partial)?;
        }
        Ok(build)
    }

    /// Serial incremental build: hash one chunk's keys and append it.
    pub fn append_chunk(&mut self, chunk: DataChunk, key_exprs: &[Expr]) -> Result<()> {
        self.append_partial(BuildPartial::compute(chunk, key_exprs)?)
    }

    /// Ensure the bucket array can absorb `additional` entries at < 50%
    /// load, rebuilding the chains from stored hashes when it grows.
    fn ensure_slots(&mut self, additional: usize) {
        let needed = ((self.positions.len() + additional) * 2).next_power_of_two().max(16);
        if self.slots.len() >= needed {
            return;
        }
        self.slots.clear();
        self.slots.resize(needed, EMPTY_SLOT);
        self.next.clear();
        self.next.reserve(self.positions.len() + additional);
        let mask = (needed - 1) as u64;
        for (idx, &h) in self.hashes.iter().enumerate() {
            let slot = (h & mask) as usize;
            self.next.push(self.slots[slot]);
            self.slots[slot] = idx as u32;
        }
    }

    /// Append one precomputed partial (see [`BuildPartial::compute`]).
    pub fn append_partial(&mut self, partial: BuildPartial) -> Result<()> {
        let chunk_idx = self.rows.chunk_count() as u32;
        if self.layout.is_none() {
            self.layout = Some(partial.layout.clone());
        }
        self.ensure_slots(partial.entries.len());
        let mask = (self.slots.len() - 1) as u64;
        for &(row, off, len, hash) in &partial.entries {
            let idx = self.positions.len() as u32;
            let dst = self.key_arena.len() as u32;
            self.key_arena
                .extend_from_slice(&partial.key_bytes[off as usize..(off + len) as usize]);
            self.key_locs.push((dst, len));
            self.hashes.push(hash);
            self.positions.push((chunk_idx, row));
            let slot = (hash & mask) as usize;
            self.next.push(self.slots[slot]);
            self.slots[slot] = idx;
        }
        if self.key_reservation.is_some() {
            let bytes = self.key_table_bytes();
            if bytes > self.key_accounted {
                let growth = bytes - self.key_accounted;
                if let Some(res) = self.key_reservation.as_mut() {
                    res.grow(growth)?;
                }
                self.key_accounted = bytes;
            }
        }
        self.rows.append(partial.chunk)
    }

    /// Number of join-eligible (non-NULL-key) build rows.
    pub fn entry_count(&self) -> usize {
        self.positions.len()
    }

    /// Total materialized build rows (including NULL-key rows).
    pub fn row_count(&self) -> usize {
        self.rows.row_count()
    }

    /// The key layout probers must encode with (`None` while empty).
    pub fn key_layout(&self) -> Option<&KeyLayout> {
        self.layout.as_ref()
    }

    /// Heap footprint of the key table (arena + buckets + chains), charged
    /// by memory accounting on top of the materialized rows.
    pub fn key_table_bytes(&self) -> usize {
        self.key_arena.capacity()
            + self.key_locs.capacity() * 8
            + self.hashes.capacity() * 8
            + self.positions.capacity() * 8
            + self.slots.capacity() * 4
            + self.next.capacity() * 4
    }

    #[inline]
    fn key_at(&self, idx: u32) -> &[u8] {
        let (off, len) = self.key_locs[idx as usize];
        &self.key_arena[off as usize..(off + len) as usize]
    }

    /// Iterate the build entries matching `(hash, key)` — a bucket-chain
    /// walk comparing hash first, then raw key bytes. Allocation-free.
    #[inline]
    pub fn probe<'a>(&'a self, hash: u64, key: &'a [u8]) -> BuildMatches<'a> {
        let head = if self.slots.is_empty() {
            EMPTY_SLOT
        } else {
            self.slots[(hash & (self.slots.len() - 1) as u64) as usize]
        };
        BuildMatches { build: self, cur: head, hash, key }
    }

    /// Gather build rows into output vectors (one per build column), with
    /// `NULL_ENTRY` padding NULLs (LEFT-join misses). Uncompressed chunks
    /// are read in place; compressed ones go through the caller's cache.
    pub fn gather_entries(
        &self,
        cache: &mut ChunkCache,
        entries: &[u32],
        out: &mut [Vector],
    ) -> Result<()> {
        for &e in entries {
            if e == NULL_ENTRY {
                for v in out.iter_mut() {
                    v.push_null();
                }
                continue;
            }
            let (c, r) = self.positions[e as usize];
            if let Some(chunk) = self.rows.plain_chunk(c as usize) {
                for (j, v) in out.iter_mut().enumerate() {
                    v.push_from(chunk.column(j), r as usize)?;
                }
            } else {
                let vals = self.rows.row_shared(cache, c as usize, r as usize)?;
                for (j, v) in out.iter_mut().enumerate() {
                    v.push_value(&vals[j])?;
                }
            }
        }
        Ok(())
    }
}

/// Iterator over build entries whose key matches a probe key (chain walk).
pub struct BuildMatches<'a> {
    build: &'a BuildSide,
    cur: u32,
    hash: u64,
    key: &'a [u8],
}

impl Iterator for BuildMatches<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.cur != EMPTY_SLOT {
            let e = self.cur;
            self.cur = self.build.next[e as usize];
            if self.build.hashes[e as usize] == self.hash && self.build.key_at(e) == self.key {
                return Some(e);
            }
        }
        None
    }
}

// The probe phase shares one `Arc<BuildSide>` across worker threads.
const _: () = {
    const fn assert_sync<T: Send + Sync>() {}
    assert_sync::<BuildSide>()
};

/// One build-side chunk with its hash-eligible rows (keys pre-encoded and
/// pre-hashed), produced by a parallel-build worker and consumed by
/// [`BuildSide::from_partials`].
pub struct BuildPartial {
    /// The build-side rows as produced by the worker's pipeline.
    pub chunk: DataChunk,
    layout: KeyLayout,
    /// Encoded key bytes of the whole chunk (entries reference subranges).
    key_bytes: Vec<u8>,
    /// `(row, key offset, key len, hash)` for every row whose key has no
    /// NULLs (NULL keys never join).
    entries: Vec<(u32, u32, u32, u64)>,
}

impl BuildPartial {
    /// Evaluate `keys` over `chunk`, hash them vectorized and encode them
    /// into row format — the per-worker (parallel) half of the build.
    pub fn compute(chunk: DataChunk, keys: &[Expr]) -> Result<BuildPartial> {
        let layout = KeyLayout::new(keys.iter().map(Expr::result_type).collect());
        let key_vectors = keys.iter().map(|k| k.evaluate(&chunk)).collect::<Result<Vec<_>>>()?;
        // Hash and encode must see the same (possibly cast) values.
        let conformed = crate::rowkey::conform_columns(&layout, &key_vectors)?;
        let key_vectors = conformed.unwrap_or(key_vectors);
        let mut scratch = KeyScratch::default();
        for (c, v) in key_vectors.iter().enumerate() {
            hash_vector(v, &mut scratch.hashes, c == 0);
        }
        encode_keys(&layout, &key_vectors, chunk.len(), &mut scratch)?;
        let mut entries = Vec::with_capacity(chunk.len());
        for row in 0..chunk.len() {
            if scratch.has_null(row) {
                continue;
            }
            let (off, len) = scratch.key_range(row);
            entries.push((row as u32, off, len, scratch.hashes[row]));
        }
        Ok(BuildPartial { chunk, layout, key_bytes: scratch.take_bytes(), entries })
    }

    /// Number of join-eligible rows in this partial.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Approximate heap footprint (chunk plus encoded keys and entries),
    /// used by the parallel build's memory accounting.
    pub fn footprint_bytes(&self) -> usize {
        self.chunk.size_bytes() + self.key_bytes.capacity() + self.entries.len() * 16
    }
}

/// Streaming probe against a borrowed build side: pulls chunks from its
/// child, joins each row via [`BuildSide::probe`], and emits the joined
/// chunks in child-row order.
///
/// This single implementation serves both engines: [`HashJoinOp`] wraps it
/// after a serial build, and the parallel executor stacks one on every
/// worker's morsel chain (`PipelineStep::JoinProbe`) so the probe side
/// runs morsel-parallel against one shared `Arc<BuildSide>`.
pub struct JoinProbeOp {
    child: OperatorBox,
    build: Arc<BuildSide>,
    left_keys: Vec<Expr>,
    join_type: JoinType,
    out_types: Vec<LogicalType>,
    cache: ChunkCache,
    pending: VecDeque<DataChunk>,
    /// Reused per-chunk buffers: encoded probe keys + matched pair lists.
    scratch: KeyScratch,
    probe_rows: Vec<u32>,
    match_entries: Vec<u32>,
}

impl JoinProbeOp {
    pub fn new(
        child: OperatorBox,
        build: Arc<BuildSide>,
        left_keys: Vec<Expr>,
        join_type: JoinType,
        right_types: Vec<LogicalType>,
    ) -> Self {
        let mut out_types = child.output_types();
        if join_type.emits_right_columns() {
            out_types.extend(right_types.iter().copied());
        }
        JoinProbeOp {
            child,
            build,
            left_keys,
            join_type,
            out_types,
            cache: ChunkCache::new(),
            pending: VecDeque::new(),
            scratch: KeyScratch::default(),
            probe_rows: Vec::new(),
            match_entries: Vec::new(),
        }
    }

    /// Probe one chunk, queueing output chunks in row order.
    ///
    /// The key path is fully vectorized: hash every probe key column with
    /// [`hash_vector`], encode the keys into the reused scratch (zero
    /// per-row allocation), then walk bucket chains per row collecting
    /// `(probe row, build entry)` pairs. Output rows materialize as batch
    /// gathers — typed column copies, not per-row `Vec<Value>`s.
    fn probe_chunk(&mut self, chunk: &DataChunk) -> Result<()> {
        let count = chunk.len();
        self.probe_rows.clear();
        self.match_entries.clear();
        let emits_right = self.join_type.emits_right_columns();
        if self.build.entry_count() == 0 {
            // Empty build side: nothing matches.
            match self.join_type {
                JoinType::Inner | JoinType::Semi => return Ok(()),
                JoinType::Left | JoinType::Anti => {
                    self.probe_rows.extend(0..count as u32);
                    self.match_entries.extend(std::iter::repeat_n(NULL_ENTRY, count));
                }
            }
        } else {
            let layout = self.build.key_layout().expect("non-empty build has a layout").clone();
            let key_vectors =
                self.left_keys.iter().map(|k| k.evaluate(chunk)).collect::<Result<Vec<_>>>()?;
            // Probe keys conform to the *build* layout before hashing, so
            // hash and encoded bytes agree with the build side's.
            let conformed = crate::rowkey::conform_columns(&layout, &key_vectors)?;
            let key_vectors = conformed.unwrap_or(key_vectors);
            let mut scratch = std::mem::take(&mut self.scratch);
            for (c, v) in key_vectors.iter().enumerate() {
                hash_vector(v, &mut scratch.hashes, c == 0);
            }
            encode_keys(&layout, &key_vectors, count, &mut scratch)?;
            for row in 0..count {
                let mut matched = false;
                if !scratch.has_null(row) {
                    // NULL keys never join; everything else walks its chain.
                    for e in self.build.probe(scratch.hashes[row], scratch.key(row)) {
                        matched = true;
                        match self.join_type {
                            JoinType::Inner | JoinType::Left => {
                                self.probe_rows.push(row as u32);
                                self.match_entries.push(e);
                            }
                            JoinType::Semi | JoinType::Anti => break,
                        }
                    }
                }
                match self.join_type {
                    JoinType::Left if !matched => {
                        self.probe_rows.push(row as u32);
                        self.match_entries.push(NULL_ENTRY);
                    }
                    JoinType::Semi if matched => self.probe_rows.push(row as u32),
                    JoinType::Anti if !matched => self.probe_rows.push(row as u32),
                    _ => {}
                }
            }
            self.scratch = scratch;
        }
        // Materialize in bounded slices (many-to-many joins can fan out).
        let total = self.probe_rows.len();
        let mut start = 0usize;
        while start < total {
            let end = (start + VECTOR_SIZE * 4).min(total);
            let rows = &self.probe_rows[start..end];
            let mut columns: Vec<Vector> =
                self.out_types.iter().map(|&t| Vector::with_capacity(t, rows.len())).collect();
            let left_width = chunk.column_count();
            for (c, col) in chunk.columns().iter().enumerate() {
                columns[c].append_selected(col, rows)?;
            }
            if emits_right {
                self.build.gather_entries(
                    &mut self.cache,
                    &self.match_entries[start..end],
                    &mut columns[left_width..],
                )?;
            }
            self.pending.push_back(DataChunk::from_vectors(columns)?);
            start = end;
        }
        Ok(())
    }
}

impl PhysicalOperator for JoinProbeOp {
    fn output_types(&self) -> Vec<LogicalType> {
        self.out_types.clone()
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        loop {
            if let Some(chunk) = self.pending.pop_front() {
                return Ok(Some(chunk));
            }
            match self.child.next_chunk()? {
                Some(chunk) => {
                    if !chunk.is_empty() {
                        self.probe_chunk(&chunk)?;
                    }
                }
                None => return Ok(None),
            }
        }
    }
}

/// Equi-join via an in-memory hash table on the right (build) side —
/// the serial composition "build [`BuildSide`] from right, then
/// [`JoinProbeOp`] over left".
pub struct HashJoinOp {
    /// Present until the build phase runs.
    inputs: Option<(OperatorBox, OperatorBox)>,
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    join_type: JoinType,
    compression: CompressionLevel,
    buffers: Option<Arc<BufferManager>>,
    out_types: Vec<LogicalType>,
    right_types: Vec<LogicalType>,
    probe: Option<JoinProbeOp>,
}

impl HashJoinOp {
    pub fn new(
        left: OperatorBox,
        right: OperatorBox,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        join_type: JoinType,
        compression: CompressionLevel,
        buffers: Option<Arc<BufferManager>>,
    ) -> Result<Self> {
        assert_eq!(left_keys.len(), right_keys.len());
        let right_types = right.output_types();
        let mut out_types = left.output_types();
        if join_type.emits_right_columns() {
            out_types.extend(right_types.iter().copied());
        }
        Ok(HashJoinOp {
            inputs: Some((left, right)),
            left_keys,
            right_keys,
            join_type,
            compression,
            buffers,
            out_types,
            right_types,
            probe: None,
        })
    }

    /// Pull the whole build side and hash it, then stand up the probe.
    /// Fails with `OutOfMemory` when the collection exceeds the
    /// buffer-manager budget — the signal that the cooperation policy
    /// should have chosen a merge join.
    fn build_phase(&mut self) -> Result<()> {
        let (left, mut right) = self.inputs.take().expect("build runs once");
        let mut build = BuildSide::new(self.compression, self.buffers.clone())?;
        while let Some(chunk) = right.next_chunk()? {
            if !chunk.is_empty() {
                build.append_chunk(chunk, &self.right_keys)?;
            }
        }
        self.probe = Some(JoinProbeOp::new(
            left,
            Arc::new(build),
            self.left_keys.clone(),
            self.join_type,
            self.right_types.clone(),
        ));
        Ok(())
    }
}

impl PhysicalOperator for HashJoinOp {
    fn output_types(&self) -> Vec<LogicalType> {
        self.out_types.clone()
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        if self.probe.is_none() {
            self.build_phase()?;
        }
        self.probe.as_mut().expect("built").next_chunk()
    }
}

/// Cross product (no predicate): every left row with every right row, in
/// left-major order. The right side materializes in memory as one chunk;
/// each output chunk is two gathers over the current left chunk × right
/// grid — left rows repeated, right rows cycled.
pub struct CrossProductOp {
    left: OperatorBox,
    right: Option<OperatorBox>,
    right_rows: DataChunk,
    out_types: Vec<LogicalType>,
    current_left: Option<DataChunk>,
    /// Next position in the current left chunk's `left × right` grid.
    pos: usize,
}

impl CrossProductOp {
    pub fn new(left: OperatorBox, right: OperatorBox) -> Self {
        let mut out_types = left.output_types();
        let right_types = right.output_types();
        out_types.extend(&right_types);
        CrossProductOp {
            left,
            right: Some(right),
            right_rows: DataChunk::new(&right_types),
            out_types,
            current_left: None,
            pos: 0,
        }
    }
}

impl PhysicalOperator for CrossProductOp {
    fn output_types(&self) -> Vec<LogicalType> {
        self.out_types.clone()
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        if let Some(mut right) = self.right.take() {
            while let Some(chunk) = right.next_chunk()? {
                self.right_rows.append_from(&chunk, 0, chunk.len())?;
            }
        }
        let width = self.right_rows.len();
        if width == 0 {
            return Ok(None);
        }
        loop {
            let grid = self.current_left.as_ref().map_or(0, |c| c.len() * width);
            if self.pos >= grid {
                let Some(left) = self.left.next_chunk()? else { return Ok(None) };
                self.current_left = Some(left);
                self.pos = 0;
                continue;
            }
            let end = (self.pos + VECTOR_SIZE).min(grid);
            let positions = self.pos..end;
            let left_sel = SelectionVector::from_indexes(
                positions.clone().map(|p| (p / width) as u32).collect(),
            );
            let right_sel =
                SelectionVector::from_indexes(positions.map(|p| (p % width) as u32).collect());
            self.pos = end;
            let left = self.current_left.as_ref().expect("grid is non-empty");
            let mut columns = left.select(&left_sel).into_columns();
            columns.extend(self.right_rows.select(&right_sel).into_columns());
            return DataChunk::from_vectors(columns).map(Some);
        }
    }
}

/// Inner join with an arbitrary predicate (inequality joins): block nested
/// loop over a materialized right side. The predicate sees left columns
/// first, then right columns.
pub struct NestedLoopJoinOp {
    cross: CrossProductOp,
    predicate: Expr,
}

impl NestedLoopJoinOp {
    pub fn new(left: OperatorBox, right: OperatorBox, predicate: Expr) -> Self {
        NestedLoopJoinOp { cross: CrossProductOp::new(left, right), predicate }
    }
}

impl PhysicalOperator for NestedLoopJoinOp {
    fn output_types(&self) -> Vec<LogicalType> {
        self.cross.output_types()
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        while let Some(chunk) = self.cross.next_chunk()? {
            let flags = self.predicate.evaluate(&chunk)?;
            let sel = crate::expression::filter_selection(&flags)?;
            if !sel.is_empty() {
                return Ok(Some(chunk.select(&sel)));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::basic::ValuesOp;
    use crate::ops::drain_rows;
    use eider_txn::CmpOp;
    use eider_vector::Value;

    fn table(rows: Vec<Vec<Value>>, types: Vec<LogicalType>) -> OperatorBox {
        let chunk = DataChunk::from_rows(&types, &rows).unwrap();
        Box::new(ValuesOp::new(types, vec![chunk]))
    }

    fn left_side() -> OperatorBox {
        table(
            vec![
                vec![Value::Integer(1), Value::Varchar("a".into())],
                vec![Value::Integer(2), Value::Varchar("b".into())],
                vec![Value::Integer(3), Value::Varchar("c".into())],
                vec![Value::Null, Value::Varchar("n".into())],
            ],
            vec![LogicalType::Integer, LogicalType::Varchar],
        )
    }

    fn right_side() -> OperatorBox {
        table(
            vec![
                vec![Value::Integer(1), Value::Varchar("one".into())],
                vec![Value::Integer(1), Value::Varchar("uno".into())],
                vec![Value::Integer(3), Value::Varchar("three".into())],
                vec![Value::Null, Value::Varchar("null".into())],
            ],
            vec![LogicalType::Integer, LogicalType::Varchar],
        )
    }

    fn keys() -> (Vec<Expr>, Vec<Expr>) {
        (vec![Expr::column(0, LogicalType::Integer)], vec![Expr::column(0, LogicalType::Integer)])
    }

    #[test]
    fn inner_join_with_duplicates_and_nulls() {
        let (lk, rk) = keys();
        let mut op = HashJoinOp::new(
            left_side(),
            right_side(),
            lk,
            rk,
            JoinType::Inner,
            CompressionLevel::None,
            None,
        )
        .unwrap();
        let mut rows = drain_rows(&mut op).unwrap();
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        // key 1 matches twice, key 3 once; NULLs never join.
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.len() == 4));
    }

    #[test]
    fn left_join_pads_unmatched_with_nulls() {
        let (lk, rk) = keys();
        let mut op = HashJoinOp::new(
            left_side(),
            right_side(),
            lk,
            rk,
            JoinType::Left,
            CompressionLevel::None,
            None,
        )
        .unwrap();
        let rows = drain_rows(&mut op).unwrap();
        assert_eq!(rows.len(), 5); // 2 for key 1, 1 for key 3, 1 null-padded key 2, 1 null-padded NULL
        let unmatched: Vec<_> = rows.iter().filter(|r| r[2].is_null()).collect();
        assert_eq!(unmatched.len(), 2);
    }

    #[test]
    fn semi_and_anti_joins() {
        let (lk, rk) = keys();
        let mut semi = HashJoinOp::new(
            left_side(),
            right_side(),
            lk.clone(),
            rk.clone(),
            JoinType::Semi,
            CompressionLevel::None,
            None,
        )
        .unwrap();
        let rows = drain_rows(&mut semi).unwrap();
        // keys 1 and 3 have matches; each left row appears once.
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.len() == 2));

        let mut anti = HashJoinOp::new(
            left_side(),
            right_side(),
            lk,
            rk,
            JoinType::Anti,
            CompressionLevel::None,
            None,
        )
        .unwrap();
        let rows = drain_rows(&mut anti).unwrap();
        // key 2 and the NULL-key row have no matches.
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn build_side_charges_key_table_to_buffer_manager() {
        use eider_storage::buffer::{BufferManager, BufferManagerConfig};
        let buffers = BufferManager::new(BufferManagerConfig { memory_limit: 64 << 20 });
        let rows: Vec<Vec<Value>> =
            (0..5000).map(|i| vec![Value::Integer(i), Value::Varchar(format!("row{i}"))]).collect();
        let chunk =
            DataChunk::from_rows(&[LogicalType::Integer, LogicalType::Varchar], &rows).unwrap();
        let mut build = BuildSide::new(CompressionLevel::None, Some(Arc::clone(&buffers))).unwrap();
        build.append_chunk(chunk, &[Expr::column(0, LogicalType::Integer)]).unwrap();
        assert!(build.key_table_bytes() > 0);
        assert!(
            buffers.used_memory() >= build.rows.stored_bytes() + build.key_table_bytes(),
            "rows ({}) AND key table ({}) must be charged, used = {}",
            build.rows.stored_bytes(),
            build.key_table_bytes(),
            buffers.used_memory()
        );
        let used = buffers.used_memory();
        drop(build);
        assert!(buffers.used_memory() < used, "reservations release on drop");
    }

    #[test]
    fn join_with_compressed_build_side() {
        let (lk, rk) = keys();
        let mut op = HashJoinOp::new(
            left_side(),
            right_side(),
            lk,
            rk,
            JoinType::Inner,
            CompressionLevel::Heavy,
            None,
        )
        .unwrap();
        let rows = drain_rows(&mut op).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn cross_product_cardinality() {
        let mut op = CrossProductOp::new(
            table(
                vec![vec![Value::Integer(1)], vec![Value::Integer(2)]],
                vec![LogicalType::Integer],
            ),
            table(
                vec![vec![Value::Integer(10)], vec![Value::Integer(20)], vec![Value::Integer(30)]],
                vec![LogicalType::Integer],
            ),
        );
        let rows = drain_rows(&mut op).unwrap();
        let pairs: Vec<(i64, i64)> =
            rows.iter().map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap())).collect();
        assert_eq!(pairs, [(1, 10), (1, 20), (1, 30), (2, 10), (2, 20), (2, 30)]);
    }

    /// Output chunks cut across left rows and right rows alike, and the
    /// pairs still come out left-major — strings and NULLs included.
    #[test]
    fn cross_product_is_left_major_across_chunk_boundaries() {
        let left_types = [LogicalType::Integer, LogicalType::Varchar];
        let name = |i: usize| match i % 3 {
            0 => Value::Null,
            _ => Value::Varchar(format!("l{i}")),
        };
        let left: Vec<Vec<Value>> =
            (0..7).map(|i| vec![Value::Integer(i as i32), name(i)]).collect();
        let right: Vec<Vec<Value>> = (0..1500).map(|i| vec![Value::Integer(i)]).collect();
        let chunk = |types: &[LogicalType], rows: &[Vec<Value>]| DataChunk::from_rows(types, rows);
        let left_op = ValuesOp::new(
            left_types.to_vec(),
            vec![chunk(&left_types, &left[..3]).unwrap(), chunk(&left_types, &left[3..]).unwrap()],
        );
        let int = [LogicalType::Integer];
        let right_op = ValuesOp::new(
            int.to_vec(),
            vec![chunk(&int, &right[..1000]).unwrap(), chunk(&int, &right[1000..]).unwrap()],
        );
        let mut op = CrossProductOp::new(Box::new(left_op), Box::new(right_op));
        let rows = drain_rows(&mut op).unwrap();
        assert_eq!(rows.len(), 7 * 1500);
        for (i, row) in rows.iter().enumerate() {
            let (l, r) = (i / 1500, i % 1500);
            assert_eq!(row, &[Value::Integer(l as i32), name(l), Value::Integer(r as i32)]);
        }
    }

    #[test]
    fn nested_loop_inequality_join() {
        let pred = Expr::Compare {
            op: CmpOp::Lt,
            left: Box::new(Expr::column(0, LogicalType::Integer)),
            right: Box::new(Expr::column(1, LogicalType::Integer)),
        };
        let mut op = NestedLoopJoinOp::new(
            table(
                vec![vec![Value::Integer(1)], vec![Value::Integer(25)]],
                vec![LogicalType::Integer],
            ),
            table(
                vec![vec![Value::Integer(10)], vec![Value::Integer(20)]],
                vec![LogicalType::Integer],
            ),
            pred,
        );
        let rows = drain_rows(&mut op).unwrap();
        // 1 < 10, 1 < 20; 25 matches nothing.
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn empty_build_side() {
        let (lk, rk) = keys();
        let empty = table(vec![], vec![LogicalType::Integer, LogicalType::Varchar]);
        let mut op = HashJoinOp::new(
            left_side(),
            empty,
            lk,
            rk,
            JoinType::Inner,
            CompressionLevel::None,
            None,
        )
        .unwrap();
        assert!(drain_rows(&mut op).unwrap().is_empty());
    }
}
