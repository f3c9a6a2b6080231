//! Out-of-core sort-merge join: the RAM-frugal alternative to hash join.
//!
//! §4: "a hash join can be transparently replaced with a out-of-core merge
//! join. ... The merge requires fewer main memory resources to run, but
//! O(n log n) CPU cycles as well as disk IO. If the DBMS detects that the
//! application currently uses a large amount of main memory but not a lot
//! of CPU cores, it can switch to merge join to reduce the load on RAM."
//!
//! Both inputs are sorted by the join keys through [`ExternalSortOp`]
//! (which spills under its memory budget), then merged with duplicate-run
//! buffering. Only the current duplicate run of the right side is held in
//! memory.

use crate::expression::Expr;
use crate::ops::sort::{compare_keys, ExternalSortOp, SortKey};
use crate::ops::{OperatorBox, PhysicalOperator};
use eider_storage::buffer::BufferManager;
use eider_vector::{DataChunk, LogicalType, Result, Value, VECTOR_SIZE};
use std::cmp::Ordering;
use std::sync::Arc;

/// Row cursor over a sorted input.
struct Cursor {
    op: ExternalSortOp,
    chunk: Option<DataChunk>,
    row: usize,
}

impl Cursor {
    fn new(op: ExternalSortOp) -> Self {
        Cursor { op, chunk: None, row: 0 }
    }

    fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        loop {
            if let Some(c) = &self.chunk {
                if self.row < c.len() {
                    let r = c.row_values(self.row);
                    self.row += 1;
                    return Ok(Some(r));
                }
            }
            self.chunk = self.op.next_chunk()?;
            self.row = 0;
            if self.chunk.is_none() {
                return Ok(None);
            }
        }
    }
}

/// Inner equi-join over sorted inputs.
pub struct MergeJoinOp {
    left: Cursor,
    right: Cursor,
    nkeys: usize,
    sort_spec: Vec<SortKey>,
    left_payload: usize,
    right_payload: usize,
    out_types: Vec<LogicalType>,
    current_left: Option<Vec<Value>>,
    /// Buffered right duplicate run and its key.
    right_run: Vec<Vec<Value>>,
    right_run_key: Option<Vec<Value>>,
    /// Next right row already pulled but past the current run.
    right_lookahead: Option<Vec<Value>>,
    /// Position within the run × current left row emission.
    run_pos: usize,
    exhausted: bool,
}

impl MergeJoinOp {
    /// Wrap both children in external sorts on the join keys and merge.
    /// `budget` bounds each sort's in-memory run size.
    pub fn new(
        left: OperatorBox,
        right: OperatorBox,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        budget: usize,
        buffers: Option<Arc<BufferManager>>,
    ) -> Self {
        assert_eq!(left_keys.len(), right_keys.len());
        let nkeys = left_keys.len();
        let left_payload = left.output_types().len();
        let right_payload = right.output_types().len();
        let mut out_types = left.output_types();
        out_types.extend(right.output_types());
        // NULL keys never join: ascending with NULLS LAST lets us stop a
        // side when its key goes NULL.
        let lspec: Vec<SortKey> = left_keys.into_iter().map(SortKey::asc).collect();
        let rspec: Vec<SortKey> = right_keys.into_iter().map(SortKey::asc).collect();
        let sort_spec: Vec<SortKey> = (0..nkeys)
            .map(|i| SortKey::asc(Expr::column(i, lspec[i].expr.result_type())))
            .collect();
        let lsort = ExternalSortOp::new(left, lspec, budget, buffers.clone(), true);
        let rsort = ExternalSortOp::new(right, rspec, budget, buffers, true);
        MergeJoinOp {
            left: Cursor::new(lsort),
            right: Cursor::new(rsort),
            nkeys,
            sort_spec,
            left_payload,
            right_payload,
            out_types,
            current_left: None,
            right_run: Vec::new(),
            right_run_key: None,
            right_lookahead: None,
            run_pos: 0,
            exhausted: false,
        }
    }

    /// Runs the two input sorts spilled to disk (diagnostics, §4 bench).
    pub fn spilled_runs(&self) -> (usize, usize) {
        (self.left.op.spilled_runs(), self.right.op.spilled_runs())
    }

    fn key_of(row: &[Value], nkeys: usize) -> Vec<Value> {
        row[..nkeys].to_vec()
    }

    /// Load the next right duplicate run (all rows sharing one key).
    fn load_right_run(&mut self) -> Result<bool> {
        self.right_run.clear();
        self.right_run_key = None;
        let first = match self.right_lookahead.take() {
            Some(r) => Some(r),
            None => self.right.next_row()?,
        };
        let Some(first) = first else {
            return Ok(false);
        };
        let key = Self::key_of(&first, self.nkeys);
        if key.iter().any(Value::is_null) {
            return Ok(false); // NULL keys sort last; nothing joins anymore
        }
        self.right_run.push(first);
        while let Some(r) = self.right.next_row()? {
            let k = Self::key_of(&r, self.nkeys);
            // The sort's order, not `Value` ==, which lets NaN equal any number.
            if compare_keys(&k, &key, &self.sort_spec).is_eq() && !k.iter().any(Value::is_null) {
                self.right_run.push(r);
            } else {
                self.right_lookahead = Some(r);
                break;
            }
        }
        self.right_run_key = Some(key);
        Ok(true)
    }
}

impl PhysicalOperator for MergeJoinOp {
    fn output_types(&self) -> Vec<LogicalType> {
        self.out_types.clone()
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        if self.exhausted {
            return Ok(None);
        }
        let mut out = DataChunk::new(&self.out_types);
        'produce: while out.len() < VECTOR_SIZE {
            // Ensure a current left row.
            if self.current_left.is_none() {
                match self.left.next_row()? {
                    Some(r) => {
                        if Self::key_of(&r, self.nkeys).iter().any(Value::is_null) {
                            // NULLS LAST: no further left row can join.
                            self.exhausted = true;
                            break 'produce;
                        }
                        self.current_left = Some(r);
                        self.run_pos = 0;
                    }
                    None => {
                        self.exhausted = true;
                        break 'produce;
                    }
                }
            }
            // Ensure a right run.
            if self.right_run_key.is_none() && !self.load_right_run()? {
                self.exhausted = true;
                break 'produce;
            }
            let left_row = self.current_left.as_ref().expect("present");
            let lkey = Self::key_of(left_row, self.nkeys);
            let rkey = self.right_run_key.as_ref().expect("present");
            match compare_keys(&lkey, rkey, &self.sort_spec) {
                Ordering::Less => {
                    self.current_left = None;
                }
                Ordering::Greater => {
                    if !self.load_right_run()? {
                        self.exhausted = true;
                        break 'produce;
                    }
                }
                Ordering::Equal => {
                    while self.run_pos < self.right_run.len() && out.len() < VECTOR_SIZE {
                        let rrow = &self.right_run[self.run_pos];
                        let mut vals =
                            left_row[self.nkeys..self.nkeys + self.left_payload].to_vec();
                        vals.extend_from_slice(&rrow[self.nkeys..self.nkeys + self.right_payload]);
                        out.append_row(&vals)?;
                        self.run_pos += 1;
                    }
                    if self.run_pos >= self.right_run.len() {
                        // Left row done against this run; next left row may
                        // share the key, so keep the run.
                        self.current_left = None;
                        self.run_pos = 0;
                    } else {
                        // Chunk full mid-run; resume next call.
                        break 'produce;
                    }
                }
            }
        }
        if out.is_empty() {
            Ok(None)
        } else {
            Ok(Some(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::basic::ValuesOp;
    use crate::ops::drain_rows;

    fn table(rows: Vec<Vec<Value>>, types: Vec<LogicalType>) -> OperatorBox {
        let chunk = DataChunk::from_rows(&types, &rows).unwrap();
        Box::new(ValuesOp::new(types, vec![chunk]))
    }

    fn key_expr() -> Vec<Expr> {
        vec![Expr::column(0, LogicalType::Integer)]
    }

    #[test]
    fn matches_hash_join_semantics() {
        let left = table(
            vec![
                vec![Value::Integer(3), Value::Varchar("c".into())],
                vec![Value::Integer(1), Value::Varchar("a".into())],
                vec![Value::Null, Value::Varchar("n".into())],
                vec![Value::Integer(1), Value::Varchar("a2".into())],
            ],
            vec![LogicalType::Integer, LogicalType::Varchar],
        );
        let right = table(
            vec![
                vec![Value::Integer(1), Value::Varchar("one".into())],
                vec![Value::Integer(1), Value::Varchar("uno".into())],
                vec![Value::Integer(2), Value::Varchar("two".into())],
                vec![Value::Null, Value::Varchar("null".into())],
                vec![Value::Integer(3), Value::Varchar("three".into())],
            ],
            vec![LogicalType::Integer, LogicalType::Varchar],
        );
        let mut op = MergeJoinOp::new(left, right, key_expr(), key_expr(), 1 << 30, None);
        let rows = drain_rows(&mut op).unwrap();
        // left key 1 (x2 left rows) matches two right rows -> 4; key 3 -> 1.
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.len() == 4));
        // No NULL keys joined.
        assert!(rows.iter().all(|r| !r[0].is_null()));
    }

    #[test]
    fn large_join_with_tiny_budget_spills() {
        let n = 20_000;
        let left_rows: Vec<Vec<Value>> =
            (0..n).map(|i| vec![Value::Integer(i % 1000), Value::Integer(i)]).collect();
        let right_rows: Vec<Vec<Value>> =
            (0..1000).map(|i| vec![Value::Integer(i), Value::Integer(i * 10)]).collect();
        let left = table(left_rows, vec![LogicalType::Integer, LogicalType::Integer]);
        let right = table(right_rows, vec![LogicalType::Integer, LogicalType::Integer]);
        let mut op = MergeJoinOp::new(left, right, key_expr(), key_expr(), 1 << 16, None);
        let rows = drain_rows(&mut op).unwrap();
        assert_eq!(rows.len(), n as usize, "every left row matches exactly once");
        // Verify a sample join result.
        let sample = rows.iter().find(|r| r[1] == Value::Integer(1500)).unwrap();
        assert_eq!(sample[0], Value::Integer(500));
        assert_eq!(sample[3], Value::Integer(5000));
    }

    /// The merge groups and compares keys in the order the sorts produce:
    /// NaN after every number, equal only to NaN (as in a hash join).
    #[test]
    fn nan_keys_join_only_nan() {
        let types = vec![LogicalType::Double, LogicalType::Varchar];
        let row = |k: f64, tag: &str| vec![Value::Double(k), Value::Varchar(tag.into())];
        let left = table(vec![row(3.0, "l3"), row(f64::NAN, "lnan")], types.clone());
        let right = table(vec![row(2.0, "r2"), row(3.0, "r3"), row(f64::NAN, "rnan")], types);
        let keys = || vec![Expr::column(0, LogicalType::Double)];
        let mut op = MergeJoinOp::new(left, right, keys(), keys(), 1 << 20, None);
        let tags: Vec<Value> = drain_rows(&mut op)
            .unwrap()
            .iter()
            .flat_map(|r| [r[1].clone(), r[3].clone()])
            .collect();
        let expect = ["l3", "r3", "lnan", "rnan"].map(|t| Value::Varchar(t.into()));
        assert_eq!(tags, expect);
    }

    #[test]
    fn disjoint_keys_produce_nothing() {
        let left = table(
            vec![vec![Value::Integer(1)], vec![Value::Integer(2)]],
            vec![LogicalType::Integer],
        );
        let right = table(
            vec![vec![Value::Integer(10)], vec![Value::Integer(20)]],
            vec![LogicalType::Integer],
        );
        let mut op = MergeJoinOp::new(left, right, key_expr(), key_expr(), 1 << 20, None);
        assert!(drain_rows(&mut op).unwrap().is_empty());
    }

    #[test]
    fn empty_inputs() {
        let left = table(vec![], vec![LogicalType::Integer]);
        let right = table(vec![vec![Value::Integer(1)]], vec![LogicalType::Integer]);
        let mut op = MergeJoinOp::new(left, right, key_expr(), key_expr(), 1 << 20, None);
        assert!(drain_rows(&mut op).unwrap().is_empty());
    }
}
