//! Aggregation operators: ungrouped (simple) and hash-grouped.
//!
//! Grouping runs on the row-format key path ([`crate::rowkey`]): group
//! keys are hashed vectorized, normalized into byte rows and deduplicated
//! in an arena-backed [`KeyedTable`], and aggregate states update through
//! the typed scatter kernels of [`crate::aggregate`] — no per-row
//! `Vec<Value>` anywhere on the hot path (§2's cycles-per-value budget).

use crate::aggregate::{update_grouped_states, AggKind, AggState};
use crate::expression::Expr;
use crate::ops::{OperatorBox, PhysicalOperator};
use crate::rowkey::{KeyLayout, KeyedTable};
use eider_storage::buffer::{BufferManager, MemoryReservation};
use eider_vector::{DataChunk, LogicalType, Result, Value, Vector, VECTOR_SIZE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One aggregate of the SELECT list: kind + argument expression.
#[derive(Debug, Clone)]
pub struct AggExpr {
    pub kind: AggKind,
    /// `None` only for COUNT(*).
    pub arg: Option<Expr>,
    pub distinct: bool,
}

impl AggExpr {
    pub fn result_type(&self) -> LogicalType {
        self.kind.result_type(self.arg.as_ref().map(Expr::result_type))
    }

    fn new_state(&self) -> AggState {
        AggState::new(self.kind, self.arg.as_ref().map(Expr::result_type), self.distinct)
    }

    /// Whether the result is the same, bit for bit, whatever order its
    /// partial states combine in: COUNT, COUNT(*), SUM over an integer
    /// argument (an exact `i128` state), and MIN/MAX — none DISTINCT.
    /// MIN/MAX over DOUBLE are out: the engine's value order ties `-0.0`
    /// with `0.0` and NaN with every number, and a tie keeps the value
    /// seen first. DOUBLE `sum`/`avg`, `stddev`/`variance` round
    /// differently in another order.
    pub fn exact_in_any_order(&self) -> bool {
        let double_arg = self.arg.as_ref().map(Expr::result_type) == Some(LogicalType::Double);
        !self.distinct
            && match self.kind {
                AggKind::CountStar | AggKind::Count => true,
                AggKind::Sum | AggKind::Min | AggKind::Max => !double_arg,
                AggKind::Avg | AggKind::StdDevSamp | AggKind::VarSamp => false,
            }
    }
}

/// Fold one chunk into ungrouped aggregate states — the single
/// definition of per-chunk update semantics (COUNT(*) counts every row
/// via a non-null sentinel; other aggregates evaluate their argument),
/// shared by the serial operator and the parallel executor's sink.
/// Each aggregate first tries the typed bulk kernel
/// ([`AggState::update_vector`]); DISTINCT and rare type combinations
/// fall back to the per-row `Value` path with identical semantics.
pub fn update_simple_states(
    aggs: &[AggExpr],
    states: &mut [AggState],
    chunk: &DataChunk,
) -> Result<()> {
    for (agg, state) in aggs.iter().zip(states.iter_mut()) {
        match &agg.arg {
            Some(expr) => {
                let v = expr.evaluate(chunk)?;
                if !state.update_vector(&v, None)? {
                    for row in 0..v.len() {
                        state.update(&v.get_value(row))?;
                    }
                }
            }
            None => {
                // COUNT(*): every row counts.
                if let AggState::Count(c) = state {
                    *c += chunk.len() as i64;
                } else {
                    for _ in 0..chunk.len() {
                        state.update(&Value::Boolean(true))?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// The GROUP BY hash table: an arena-backed [`KeyedTable`] of group keys
/// plus one *flat* aggregate-state array — group `g`'s state for
/// aggregate `a` lives at `states[g * state_width + a]`, so a million
/// groups cost one allocation, not a `Vec` each. One instance per serial
/// operator; the parallel sink keeps partials (one per worker, or one per
/// morsel) and merges them into hash partitions on encoded byte keys.
pub struct GroupTable {
    table: KeyedTable<()>,
    states: Vec<AggState>,
    group_ids: Vec<u32>,
    /// Aggregates per group: the stride of `states`.
    state_width: usize,
}

impl GroupTable {
    pub fn new(groups: &[Expr], aggs: &[AggExpr]) -> GroupTable {
        GroupTable::with_capacity(groups, aggs, 0)
    }

    /// Pre-size for `cap` expected groups (e.g. the cardinality the first
    /// morsel of a parallel aggregate observed).
    pub fn with_capacity(groups: &[Expr], aggs: &[AggExpr], cap: usize) -> GroupTable {
        let layout = KeyLayout::new(groups.iter().map(Expr::result_type).collect());
        GroupTable {
            table: KeyedTable::with_capacity(layout, cap),
            states: Vec::new(),
            group_ids: Vec::new(),
            state_width: aggs.len(),
        }
    }

    /// Number of distinct groups seen so far.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Seal a finished partial before parking it for the merge: frees the
    /// per-chunk scratch buffers (encode/hash staging and group-id
    /// gather), which are sized by input chunks rather than groups and
    /// would otherwise dominate the retained footprint of low-cardinality
    /// partials — per morsel, not per query.
    pub fn seal(&mut self) {
        self.table.release_scratch();
        self.group_ids = Vec::new();
    }

    /// Heap footprint of the table: key arena + buckets + scratch, plus
    /// the per-group aggregate-state rows. DISTINCT dedup sets are charged
    /// coarsely via [`AggState::size_bytes`]'s base cost only when states
    /// are enumerated, so treat this as a lower bound like every other
    /// estimate the buffer manager consumes.
    pub fn memory_bytes(&self) -> usize {
        self.table.table_bytes()
            + self.table.len() * self.state_width * std::mem::size_of::<AggState>()
    }

    /// Charge the table's growth since the last call to `reservation`;
    /// `charged` holds the bytes already charged for this table.
    /// Capacities only grow, so the delta is monotonic.
    pub fn charge_growth(
        &self,
        reservation: &mut MemoryReservation,
        charged: &mut usize,
    ) -> Result<()> {
        let bytes = self.memory_bytes();
        if bytes > *charged {
            reservation.grow(bytes - *charged)?;
            *charged = bytes;
        }
        Ok(())
    }

    /// Fold one chunk in: vectorized hash + encode + upsert of the keys,
    /// then one scatter-kernel pass per aggregate.
    pub fn update_chunk(
        &mut self,
        groups: &[Expr],
        aggs: &[AggExpr],
        chunk: &DataChunk,
    ) -> Result<()> {
        // Bare column references — the overwhelmingly common GROUP BY
        // shape — borrow the chunk's vector directly; evaluating them
        // would deep-copy every string in the key column per chunk.
        let mut computed: Vec<Vector> = Vec::new();
        for g in groups {
            if !matches!(g, Expr::ColumnRef { .. }) {
                computed.push(g.evaluate(chunk)?);
            }
        }
        let mut computed_iter = computed.iter();
        let key_vectors: Vec<&Vector> = groups
            .iter()
            .map(|g| match g {
                Expr::ColumnRef { index, .. } => chunk.column(*index),
                _ => computed_iter.next().expect("evaluated above"),
            })
            .collect();
        let known_groups = self.table.len();
        self.table.upsert_rows(&key_vectors, chunk.len(), || (), &mut self.group_ids)?;
        // New groups are appended in insertion order; their fresh states
        // extend the flat array to keep `states[g * width + a]` aligned.
        self.states.reserve((self.table.len() - known_groups) * self.state_width);
        for _ in known_groups..self.table.len() {
            self.states.extend(aggs.iter().map(AggExpr::new_state));
        }
        for (i, agg) in aggs.iter().enumerate() {
            let arg = agg.arg.as_ref().map(|e| e.evaluate(chunk)).transpose()?;
            update_grouped_states(
                &mut self.states,
                self.state_width,
                i,
                &self.group_ids,
                arg.as_ref(),
            )?;
        }
        Ok(())
    }

    /// Fold the groups of `partial` whose key hash falls in `partition`
    /// of `partitions` (see [`crate::rowkey::hash_partition`]) into this
    /// table, in `partial`'s insertion order. A group's first state is
    /// cloned and later ones combine via [`AggState::merge`], so `partial`
    /// is only borrowed and every partition's merge reads it at once.
    pub fn merge_partition(
        &mut self,
        partial: &GroupTable,
        partition: usize,
        partitions: usize,
    ) -> Result<()> {
        let GroupTable { table, states, state_width, .. } = self;
        let w = *state_width;
        table.merge_partition_from(&partial.table, partition, partitions, |idx, other, inserted| {
            let incoming = &partial.states[other * w..(other + 1) * w];
            if inserted {
                debug_assert_eq!(idx * w, states.len(), "new groups append in order");
                states.extend_from_slice(incoming);
            } else {
                for (s, p) in states[idx * w..(idx + 1) * w].iter_mut().zip(incoming) {
                    s.merge(p)?;
                }
            }
            Ok(())
        })
    }

    /// Emit the groups named by `indices` as one output chunk: decoded key
    /// columns first, then finalized aggregate columns.
    pub fn emit(&self, indices: &[u32], aggs: &[AggExpr]) -> Result<DataChunk> {
        emit_groups(self.table.layout().types(), indices.iter().map(|&g| (self, g)), aggs)
    }

    /// Emit `(table, group)` rows of `tables` — the hash partitions of a
    /// parallel merge — as one output chunk, like [`GroupTable::emit`].
    pub fn emit_partitioned(
        tables: &[GroupTable],
        rows: &[(u32, u32)],
        aggs: &[AggExpr],
    ) -> Result<DataChunk> {
        let key_types = tables[0].table.layout().types();
        emit_groups(key_types, rows.iter().map(|&(t, g)| (&tables[t as usize], g)), aggs)
    }

    /// Group indices in encoded-key (= [`Value::total_cmp`]) order — what
    /// the parallel merge emits so output is thread-count independent.
    pub fn sorted_order(&self) -> Vec<u32> {
        self.table.sorted_order()
    }

    /// Interleave the [`GroupTable::sorted_order`]s of tables holding
    /// disjoint keys (the hash partitions of a parallel merge) into one
    /// encoded-key order of `(table, group)` pairs: a heap of the
    /// partitions' heads compared on key bytes.
    pub fn merge_sorted(tables: &[GroupTable], orders: &[Vec<u32>]) -> Vec<(u32, u32)> {
        let key = |t: usize, pos: usize| tables[t].table.key_at(orders[t][pos] as usize);
        let mut heads: BinaryHeap<Reverse<(&[u8], usize, usize)>> = (0..tables.len())
            .filter(|&t| !orders[t].is_empty())
            .map(|t| Reverse((key(t, 0), t, 0)))
            .collect();
        let mut out = Vec::with_capacity(orders.iter().map(Vec::len).sum());
        while let Some(Reverse((_, t, pos))) = heads.pop() {
            out.push((t as u32, orders[t][pos]));
            if pos + 1 < orders[t].len() {
                heads.push(Reverse((key(t, pos + 1), t, pos + 1)));
            }
        }
        out
    }
}

/// Build one output chunk from `(table, group)` rows: decoded key columns
/// (of `key_types`) first, then finalized aggregate columns.
fn emit_groups<'a>(
    key_types: &[LogicalType],
    rows: impl ExactSizeIterator<Item = (&'a GroupTable, u32)>,
    aggs: &[AggExpr],
) -> Result<DataChunk> {
    let n = rows.len();
    let mut columns: Vec<Vector> = key_types.iter().map(|&t| Vector::with_capacity(t, n)).collect();
    let key_width = columns.len();
    columns.extend(aggs.iter().map(|a| Vector::with_capacity(a.result_type(), n)));
    for (table, idx) in rows {
        let idx = idx as usize;
        table.table.decode_key_into(idx, &mut columns[..key_width])?;
        let states = &table.states[idx * table.state_width..(idx + 1) * table.state_width];
        for (i, s) in states.iter().enumerate() {
            columns[key_width + i].push_value(&s.finalize()?)?;
        }
    }
    DataChunk::from_vectors(columns)
}

/// Aggregation without GROUP BY: exactly one output row.
pub struct SimpleAggregateOp {
    child: OperatorBox,
    aggs: Vec<AggExpr>,
    done: bool,
}

impl SimpleAggregateOp {
    pub fn new(child: OperatorBox, aggs: Vec<AggExpr>) -> Self {
        SimpleAggregateOp { child, aggs, done: false }
    }
}

impl PhysicalOperator for SimpleAggregateOp {
    fn output_types(&self) -> Vec<LogicalType> {
        self.aggs.iter().map(AggExpr::result_type).collect()
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut states: Vec<AggState> = self.aggs.iter().map(AggExpr::new_state).collect();
        while let Some(chunk) = self.child.next_chunk()? {
            if chunk.is_empty() {
                continue;
            }
            update_simple_states(&self.aggs, &mut states, &chunk)?;
        }
        let row: Vec<Value> = states.iter().map(AggState::finalize).collect::<Result<_>>()?;
        let mut out = DataChunk::new(&self.output_types());
        out.append_row(&row)?;
        Ok(Some(out))
    }
}

/// GROUP BY aggregation via a hash table of row-format group keys.
///
/// Group keys use *grouping equality* (NULLs form one group), realized as
/// byte equality of the normalized key encoding. Memory is accounted
/// against the buffer manager as the table grows, charging the real
/// arena/bucket/state footprint (§4's hard limits apply to aggregation
/// state too). Groups are emitted in first-seen order. With no aggregates
/// (DISTINCT) a group is final once seen, so each pull reads input only
/// until it has new groups: a LIMIT above stops the scan early.
pub struct HashAggregateOp {
    child: OperatorBox,
    groups: Vec<Expr>,
    aggs: Vec<AggExpr>,
    buffers: Option<Arc<BufferManager>>,
    table: Option<GroupTable>,
    reservation: Option<MemoryReservation>,
    /// Bytes of `table` charged to `reservation`.
    charged: usize,
    drained: bool,
    emit_pos: usize,
}

impl HashAggregateOp {
    pub fn new(
        child: OperatorBox,
        groups: Vec<Expr>,
        aggs: Vec<AggExpr>,
        buffers: Option<Arc<BufferManager>>,
    ) -> Self {
        HashAggregateOp {
            child,
            groups,
            aggs,
            buffers,
            table: None,
            reservation: None,
            charged: 0,
            drained: false,
            emit_pos: 0,
        }
    }

    /// Pull one input chunk into the table and charge its growth.
    fn pull(&mut self) -> Result<()> {
        let Some(chunk) = self.child.next_chunk()? else {
            self.drained = true;
            return Ok(());
        };
        let table = self.table.as_mut().expect("started");
        if !chunk.is_empty() {
            table.update_chunk(&self.groups, &self.aggs, &chunk)?;
            if let Some(res) = &mut self.reservation {
                table.charge_growth(res, &mut self.charged)?;
            }
        }
        Ok(())
    }
}

impl PhysicalOperator for HashAggregateOp {
    fn output_types(&self) -> Vec<LogicalType> {
        let mut t: Vec<LogicalType> = self.groups.iter().map(Expr::result_type).collect();
        t.extend(self.aggs.iter().map(AggExpr::result_type));
        t
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        if self.table.is_none() {
            self.reservation = self.buffers.as_ref().map(|b| b.reserve(0)).transpose()?;
            self.table = Some(GroupTable::new(&self.groups, &self.aggs));
        }
        // An aggregate's groups are final only once its input is drained.
        while !self.drained
            && (!self.aggs.is_empty()
                || self.emit_pos == self.table.as_ref().map_or(0, GroupTable::len))
        {
            self.pull()?;
        }
        let table = self.table.as_ref().expect("started");
        if self.emit_pos >= table.len() {
            return Ok(None);
        }
        let end = (self.emit_pos + VECTOR_SIZE).min(table.len());
        let indices: Vec<u32> = (self.emit_pos as u32..end as u32).collect();
        self.emit_pos = end;
        Ok(Some(table.emit(&indices, &self.aggs)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::basic::ValuesOp;
    use crate::ops::drain_rows;

    fn source() -> OperatorBox {
        // (group, value): groups 0,1,2 with values i.
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                let v = if i % 10 == 0 { Value::Null } else { Value::Integer(i) };
                vec![Value::Integer(i % 3), v]
            })
            .collect();
        let chunk =
            DataChunk::from_rows(&[LogicalType::Integer, LogicalType::Integer], &rows).unwrap();
        Box::new(ValuesOp::new(vec![LogicalType::Integer, LogicalType::Integer], vec![chunk]))
    }

    /// DISTINCT lowers to a hash aggregate grouping on every column with
    /// no aggregates; it keeps first-seen order.
    #[test]
    fn distinct_removes_duplicates() {
        let rows: Vec<Vec<Value>> = (0..9).map(|i| vec![Value::Integer(i % 3)]).collect();
        let chunk = DataChunk::from_rows(&[LogicalType::Integer], &rows).unwrap();
        let src = Box::new(ValuesOp::new(vec![LogicalType::Integer], vec![chunk]));
        let groups = vec![Expr::column(0, LogicalType::Integer)];
        let mut op = HashAggregateOp::new(src, groups, Vec::new(), None);
        let rows = drain_rows(&mut op).unwrap();
        assert_eq!(rows, [0, 1, 2].map(|i| vec![Value::Integer(i)]));
    }

    /// Counts the chunks pulled from the operator it wraps.
    struct CountPulls(OperatorBox, Arc<std::sync::atomic::AtomicUsize>);

    impl PhysicalOperator for CountPulls {
        fn output_types(&self) -> Vec<LogicalType> {
            self.0.output_types()
        }

        fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.next_chunk()
        }
    }

    /// A DISTINCT emits each chunk's new groups before it pulls the next
    /// chunk, so a LIMIT above it stops the scan early.
    #[test]
    fn distinct_streams_new_groups_as_they_arrive() {
        let chunk = |r: std::ops::Range<i32>| {
            let rows: Vec<Vec<Value>> = r.map(|i| vec![Value::Integer(i)]).collect();
            DataChunk::from_rows(&[LogicalType::Integer], &rows).unwrap()
        };
        let chunks = vec![chunk(0..100), chunk(0..100), chunk(100..200)];
        let pulls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let src = Box::new(ValuesOp::new(vec![LogicalType::Integer], chunks));
        let src = Box::new(CountPulls(src, Arc::clone(&pulls)));
        let groups = vec![Expr::column(0, LogicalType::Integer)];
        let mut op = HashAggregateOp::new(src, groups, Vec::new(), None);
        let pulled = || pulls.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(op.next_chunk().unwrap().unwrap().len(), 100);
        assert_eq!(pulled(), 1);
        // The repeated chunk holds no new group: the next pull goes on.
        assert_eq!(op.next_chunk().unwrap().unwrap().len(), 100);
        assert_eq!(pulled(), 3);
        assert!(op.next_chunk().unwrap().is_none());
    }

    #[test]
    fn simple_aggregate_all_functions() {
        let aggs = vec![
            AggExpr { kind: AggKind::CountStar, arg: None, distinct: false },
            AggExpr {
                kind: AggKind::Count,
                arg: Some(Expr::column(1, LogicalType::Integer)),
                distinct: false,
            },
            AggExpr {
                kind: AggKind::Sum,
                arg: Some(Expr::column(1, LogicalType::Integer)),
                distinct: false,
            },
            AggExpr {
                kind: AggKind::Min,
                arg: Some(Expr::column(1, LogicalType::Integer)),
                distinct: false,
            },
            AggExpr {
                kind: AggKind::Max,
                arg: Some(Expr::column(1, LogicalType::Integer)),
                distinct: false,
            },
        ];
        let mut op = SimpleAggregateOp::new(source(), aggs);
        let rows = drain_rows(&mut op).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r[0], Value::BigInt(100)); // COUNT(*)
        assert_eq!(r[1], Value::BigInt(90)); // COUNT(v) skips 10 NULLs
        let expected_sum: i64 = (0..100).filter(|i| i % 10 != 0).sum();
        assert_eq!(r[2], Value::BigInt(expected_sum));
        assert_eq!(r[3], Value::Integer(1));
        assert_eq!(r[4], Value::Integer(99));
    }

    #[test]
    fn empty_input_aggregates() {
        let empty = Box::new(ValuesOp::new(vec![LogicalType::Integer], vec![]));
        let aggs = vec![
            AggExpr { kind: AggKind::CountStar, arg: None, distinct: false },
            AggExpr {
                kind: AggKind::Sum,
                arg: Some(Expr::column(0, LogicalType::Integer)),
                distinct: false,
            },
        ];
        let mut op = SimpleAggregateOp::new(empty, aggs);
        let rows = drain_rows(&mut op).unwrap();
        assert_eq!(rows[0][0], Value::BigInt(0));
        assert!(rows[0][1].is_null(), "SUM of nothing is NULL");
    }

    #[test]
    fn hash_aggregate_groups() {
        let groups = vec![Expr::column(0, LogicalType::Integer)];
        let aggs = vec![
            AggExpr { kind: AggKind::CountStar, arg: None, distinct: false },
            AggExpr {
                kind: AggKind::Avg,
                arg: Some(Expr::column(1, LogicalType::Integer)),
                distinct: false,
            },
        ];
        let mut op = HashAggregateOp::new(source(), groups, aggs, None);
        let mut rows = drain_rows(&mut op).unwrap();
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(rows.len(), 3);
        // 100 rows over 3 groups: counts 34/33/33.
        assert_eq!(rows[0][1], Value::BigInt(34));
        assert_eq!(rows[1][1], Value::BigInt(33));
        assert_eq!(rows[2][1], Value::BigInt(33));
        // AVG is a double for every group.
        assert!(matches!(rows[0][2], Value::Double(_)));
    }

    #[test]
    fn null_group_key_forms_a_group() {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Null, Value::Integer(1)],
            vec![Value::Null, Value::Integer(2)],
            vec![Value::Integer(1), Value::Integer(3)],
        ];
        let chunk =
            DataChunk::from_rows(&[LogicalType::Integer, LogicalType::Integer], &rows).unwrap();
        let src: OperatorBox =
            Box::new(ValuesOp::new(vec![LogicalType::Integer, LogicalType::Integer], vec![chunk]));
        let groups = vec![Expr::column(0, LogicalType::Integer)];
        let aggs = vec![AggExpr {
            kind: AggKind::Sum,
            arg: Some(Expr::column(1, LogicalType::Integer)),
            distinct: false,
        }];
        let mut op = HashAggregateOp::new(src, groups, aggs, None);
        let mut out = drain_rows(&mut op).unwrap();
        out.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0][1], Value::BigInt(3)); // group 1
        assert!(out[1][0].is_null());
        assert_eq!(out[1][1], Value::BigInt(3)); // NULL group: 1 + 2
    }

    #[test]
    fn distinct_count_per_group() {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Integer(0), Value::Integer(5)],
            vec![Value::Integer(0), Value::Integer(5)],
            vec![Value::Integer(0), Value::Integer(6)],
        ];
        let chunk =
            DataChunk::from_rows(&[LogicalType::Integer, LogicalType::Integer], &rows).unwrap();
        let src: OperatorBox =
            Box::new(ValuesOp::new(vec![LogicalType::Integer, LogicalType::Integer], vec![chunk]));
        let groups = vec![Expr::column(0, LogicalType::Integer)];
        let aggs = vec![AggExpr {
            kind: AggKind::Count,
            arg: Some(Expr::column(1, LogicalType::Integer)),
            distinct: true,
        }];
        let mut op = HashAggregateOp::new(src, groups, aggs, None);
        let out = drain_rows(&mut op).unwrap();
        assert_eq!(out[0][1], Value::BigInt(2));
    }

    #[test]
    fn grouped_count_values() {
        // 100 rows over 3 groups: group 0 gets 34, groups 1/2 get 33.
        let groups = vec![Expr::column(0, LogicalType::Integer)];
        let aggs = vec![AggExpr { kind: AggKind::CountStar, arg: None, distinct: false }];
        let mut op = HashAggregateOp::new(source(), groups, aggs, None);
        let mut rows = drain_rows(&mut op).unwrap();
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(rows[0][1], Value::BigInt(34));
        assert_eq!(rows[1][1], Value::BigInt(33));
        assert_eq!(rows[2][1], Value::BigInt(33));
    }
}
