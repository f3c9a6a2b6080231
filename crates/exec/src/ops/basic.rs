//! Streaming operators: values source, filter, projection, limit.

use crate::expression::{filter_selection, Expr};
use crate::ops::{OperatorBox, PhysicalOperator};
use eider_vector::{DataChunk, LogicalType, Result, Value, Vector};

/// Produces a fixed list of chunks (VALUES clauses, function results).
pub struct ValuesOp {
    types: Vec<LogicalType>,
    chunks: std::vec::IntoIter<DataChunk>,
}

impl ValuesOp {
    pub fn new(types: Vec<LogicalType>, chunks: Vec<DataChunk>) -> Self {
        ValuesOp { types, chunks: chunks.into_iter() }
    }

    /// Single-row source (for `SELECT 1`-style queries). Carries one dummy
    /// boolean column because a chunk's cardinality is its columns' length;
    /// the projection above never references it.
    pub fn single_row() -> Self {
        let chunk = DataChunk::from_rows(&[LogicalType::Boolean], &[vec![Value::Boolean(true)]])
            .expect("one row");
        ValuesOp { types: vec![LogicalType::Boolean], chunks: vec![chunk].into_iter() }
    }
}

impl PhysicalOperator for ValuesOp {
    fn output_types(&self) -> Vec<LogicalType> {
        self.types.clone()
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        Ok(self.chunks.next())
    }
}

/// WHERE: evaluates a boolean expression, keeps TRUE rows.
pub struct FilterOp {
    child: OperatorBox,
    predicate: Expr,
}

impl FilterOp {
    pub fn new(child: OperatorBox, predicate: Expr) -> Self {
        FilterOp { child, predicate }
    }
}

impl PhysicalOperator for FilterOp {
    fn output_types(&self) -> Vec<LogicalType> {
        self.child.output_types()
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        while let Some(chunk) = self.child.next_chunk()? {
            if chunk.is_empty() {
                continue;
            }
            let flags = self.predicate.evaluate(&chunk)?;
            let sel = filter_selection(&flags)?;
            if sel.is_empty() {
                continue;
            }
            if sel.len() == chunk.len() {
                return Ok(Some(chunk));
            }
            return Ok(Some(chunk.select(&sel)));
        }
        Ok(None)
    }
}

/// SELECT list: computes one expression per output column.
pub struct ProjectionOp {
    child: OperatorBox,
    exprs: Vec<Expr>,
}

impl ProjectionOp {
    pub fn new(child: OperatorBox, exprs: Vec<Expr>) -> Self {
        ProjectionOp { child, exprs }
    }
}

impl PhysicalOperator for ProjectionOp {
    fn output_types(&self) -> Vec<LogicalType> {
        self.exprs.iter().map(Expr::result_type).collect()
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        match self.child.next_chunk()? {
            Some(chunk) => {
                // A projection of distinct bare column references (the
                // common prune/reorder after an aggregate or scan) moves
                // the vectors out of the consumed chunk instead of
                // deep-copying them.
                let bare: Option<Vec<usize>> = self
                    .exprs
                    .iter()
                    .map(|e| match e {
                        Expr::ColumnRef { index, .. } => Some(*index),
                        _ => None,
                    })
                    .collect();
                if let Some(idx) = &bare {
                    let distinct = idx.iter().enumerate().all(|(i, c)| !idx[..i].contains(c));
                    if distinct {
                        let mut source = chunk.into_columns();
                        let cols = idx
                            .iter()
                            .map(|&i| {
                                std::mem::replace(&mut source[i], Vector::new(LogicalType::Boolean))
                            })
                            .collect();
                        return Ok(Some(DataChunk::from_vectors(cols)?));
                    }
                }
                let cols =
                    self.exprs.iter().map(|e| e.evaluate(&chunk)).collect::<Result<Vec<_>>>()?;
                Ok(Some(DataChunk::from_vectors(cols)?))
            }
            None => Ok(None),
        }
    }
}

/// LIMIT / OFFSET.
pub struct LimitOp {
    child: OperatorBox,
    limit: usize,
    offset: usize,
    skipped: usize,
    produced: usize,
}

impl LimitOp {
    pub fn new(child: OperatorBox, limit: usize, offset: usize) -> Self {
        LimitOp { child, limit, offset, skipped: 0, produced: 0 }
    }
}

impl PhysicalOperator for LimitOp {
    fn output_types(&self) -> Vec<LogicalType> {
        self.child.output_types()
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        while self.produced < self.limit {
            let Some(chunk) = self.child.next_chunk()? else {
                return Ok(None);
            };
            let mut chunk = chunk;
            if self.skipped < self.offset {
                let to_skip = (self.offset - self.skipped).min(chunk.len());
                self.skipped += to_skip;
                if to_skip == chunk.len() {
                    continue;
                }
                chunk = chunk.slice(to_skip, chunk.len() - to_skip);
            }
            let want = self.limit - self.produced;
            if chunk.len() > want {
                chunk = chunk.slice(0, want);
            }
            self.produced += chunk.len();
            if chunk.is_empty() {
                continue;
            }
            return Ok(Some(chunk));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::drain_rows;
    use eider_txn::CmpOp;

    fn source(n: i32) -> OperatorBox {
        let rows: Vec<Vec<Value>> =
            (0..n).map(|i| vec![Value::Integer(i), Value::Integer(i % 3)]).collect();
        let chunk =
            DataChunk::from_rows(&[LogicalType::Integer, LogicalType::Integer], &rows).unwrap();
        Box::new(ValuesOp::new(vec![LogicalType::Integer, LogicalType::Integer], vec![chunk]))
    }

    #[test]
    fn filter_keeps_true_rows() {
        let pred = Expr::Compare {
            op: CmpOp::GtEq,
            left: Box::new(Expr::column(0, LogicalType::Integer)),
            right: Box::new(Expr::constant(Value::Integer(8))),
        };
        let mut op = FilterOp::new(source(10), pred);
        let rows = drain_rows(&mut op).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Integer(8));
    }

    #[test]
    fn projection_computes_expressions() {
        let exprs = vec![Expr::Arithmetic {
            op: crate::expression::ArithOp::Mul,
            left: Box::new(Expr::column(0, LogicalType::Integer)),
            right: Box::new(Expr::constant(Value::Integer(2))),
            ty: LogicalType::BigInt,
        }];
        let mut op = ProjectionOp::new(source(3), exprs);
        let rows = drain_rows(&mut op).unwrap();
        assert_eq!(
            rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![Value::BigInt(0), Value::BigInt(2), Value::BigInt(4)]
        );
    }

    #[test]
    fn limit_and_offset() {
        let mut op = LimitOp::new(source(10), 3, 4);
        let rows = drain_rows(&mut op).unwrap();
        assert_eq!(
            rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![Value::Integer(4), Value::Integer(5), Value::Integer(6)]
        );
        // Offset beyond input.
        let mut op = LimitOp::new(source(3), 5, 10);
        assert!(drain_rows(&mut op).unwrap().is_empty());
        // Zero limit.
        let mut op = LimitOp::new(source(3), 0, 0);
        assert!(drain_rows(&mut op).unwrap().is_empty());
    }

    #[test]
    fn single_row_values() {
        let mut op = ValuesOp::single_row();
        let c = op.next_chunk().unwrap().unwrap();
        assert_eq!(c.len(), 1);
        assert!(op.next_chunk().unwrap().is_none());
    }
}
