//! A classical tuple-at-a-time Volcano interpreter — the baseline.
//!
//! §6 motivates DuckDB's vectorized engine against the alternatives; the
//! canonical strawman is the iterator model where every operator yields
//! one row per call and every value moves through a dynamic `Value`. The
//! `section2` regenerator runs the same query through this engine and the
//! vectorized one to reproduce the shape of that argument: per-value
//! interpretation overhead dominates as soon as tables stop being tiny.
//! Because it shares no operator code with the engine, it also serves as
//! a test oracle for the vectorized operators.
//!
//! The row engine shares expression semantics (via [`Expr::evaluate_row`])
//! and aggregate states with the vectorized engine, so results are
//! identical and only the execution model differs.

use eider_exec::aggregate::AggState;
use eider_exec::expression::Expr;
use eider_exec::fxhash::FxHashMap;
use eider_exec::ops::agg::AggExpr;
use eider_vector::{DataChunk, Result, Value};

/// One-row-at-a-time pull interface.
pub trait RowOperator {
    fn next_row(&mut self) -> Result<Option<Vec<Value>>>;
}

/// Leaf: iterates materialized rows.
pub struct RowSource {
    rows: std::vec::IntoIter<Vec<Value>>,
}

impl RowSource {
    pub fn new(rows: Vec<Vec<Value>>) -> Self {
        RowSource { rows: rows.into_iter() }
    }

    /// Materialize chunks into a row source (bench setup helper).
    pub fn from_chunks(chunks: &[DataChunk]) -> Self {
        let mut rows = Vec::new();
        for c in chunks {
            rows.extend(c.to_rows());
        }
        RowSource::new(rows)
    }
}

impl RowOperator for RowSource {
    fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        Ok(self.rows.next())
    }
}

/// WHERE, one row at a time.
pub struct RowFilter {
    child: Box<dyn RowOperator>,
    predicate: Expr,
}

impl RowFilter {
    pub fn new(child: Box<dyn RowOperator>, predicate: Expr) -> Self {
        RowFilter { child, predicate }
    }
}

impl RowOperator for RowFilter {
    fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        while let Some(row) = self.child.next_row()? {
            if self.predicate.evaluate_row(&row)? == Value::Boolean(true) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// SELECT list, one row at a time.
pub struct RowProject {
    child: Box<dyn RowOperator>,
    exprs: Vec<Expr>,
}

impl RowProject {
    pub fn new(child: Box<dyn RowOperator>, exprs: Vec<Expr>) -> Self {
        RowProject { child, exprs }
    }
}

impl RowOperator for RowProject {
    fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        match self.child.next_row()? {
            Some(row) => {
                let out: Vec<Value> =
                    self.exprs.iter().map(|e| e.evaluate_row(&row)).collect::<Result<_>>()?;
                Ok(Some(out))
            }
            None => Ok(None),
        }
    }
}

/// Ungrouped aggregation, one row at a time.
pub struct RowAggregate {
    child: Box<dyn RowOperator>,
    aggs: Vec<AggExpr>,
    done: bool,
}

impl RowAggregate {
    pub fn new(child: Box<dyn RowOperator>, aggs: Vec<AggExpr>) -> Self {
        RowAggregate { child, aggs, done: false }
    }
}

impl RowOperator for RowAggregate {
    fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut states: Vec<AggState> = self
            .aggs
            .iter()
            .map(|a| AggState::new(a.kind, a.arg.as_ref().map(Expr::result_type), a.distinct))
            .collect();
        while let Some(row) = self.child.next_row()? {
            for (agg, state) in self.aggs.iter().zip(states.iter_mut()) {
                match &agg.arg {
                    Some(e) => state.update(&e.evaluate_row(&row)?)?,
                    None => state.update(&Value::Boolean(true))?,
                }
            }
        }
        Ok(Some(states.iter().map(AggState::finalize).collect::<Result<_>>()?))
    }
}

/// GROUP BY aggregation, one row at a time.
pub struct RowHashAggregate {
    child: Box<dyn RowOperator>,
    groups: Vec<Expr>,
    aggs: Vec<AggExpr>,
    output: Option<std::vec::IntoIter<Vec<Value>>>,
}

impl RowHashAggregate {
    pub fn new(child: Box<dyn RowOperator>, groups: Vec<Expr>, aggs: Vec<AggExpr>) -> Self {
        RowHashAggregate { child, groups, aggs, output: None }
    }
}

impl RowOperator for RowHashAggregate {
    fn next_row(&mut self) -> Result<Option<Vec<Value>>> {
        if self.output.is_none() {
            let mut table: FxHashMap<Vec<Value>, Vec<AggState>> = FxHashMap::default();
            while let Some(row) = self.child.next_row()? {
                let key: Vec<Value> =
                    self.groups.iter().map(|g| g.evaluate_row(&row)).collect::<Result<_>>()?;
                let states = match table.get_mut(&key) {
                    Some(s) => s,
                    None => {
                        let fresh: Vec<AggState> = self
                            .aggs
                            .iter()
                            .map(|a| {
                                AggState::new(
                                    a.kind,
                                    a.arg.as_ref().map(Expr::result_type),
                                    a.distinct,
                                )
                            })
                            .collect();
                        table.insert(key.clone(), fresh);
                        table.get_mut(&key).expect("inserted")
                    }
                };
                for (agg, state) in self.aggs.iter().zip(states.iter_mut()) {
                    match &agg.arg {
                        Some(e) => state.update(&e.evaluate_row(&row)?)?,
                        None => state.update(&Value::Boolean(true))?,
                    }
                }
            }
            let mut rows = Vec::with_capacity(table.len());
            for (key, states) in table {
                let mut row = key;
                for s in &states {
                    row.push(s.finalize()?);
                }
                rows.push(row);
            }
            self.output = Some(rows.into_iter());
        }
        Ok(self.output.as_mut().expect("filled").next())
    }
}

/// Pull a row plan to completion.
pub fn run_to_end(op: &mut dyn RowOperator) -> Result<Vec<Vec<Value>>> {
    let mut out = Vec::new();
    while let Some(row) = op.next_row()? {
        out.push(row);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eider_exec::aggregate::AggKind;
    use eider_exec::expression::ArithOp;
    use eider_txn::CmpOp;
    use eider_vector::LogicalType;

    fn rows(n: i32) -> Vec<Vec<Value>> {
        (0..n).map(|i| vec![Value::Integer(i), Value::Integer(i % 5)]).collect()
    }

    #[test]
    fn filter_project_pipeline() {
        let src = Box::new(RowSource::new(rows(10)));
        let pred = Expr::Compare {
            op: CmpOp::GtEq,
            left: Box::new(Expr::column(0, LogicalType::Integer)),
            right: Box::new(Expr::constant(Value::Integer(7))),
        };
        let filter = Box::new(RowFilter::new(src, pred));
        let mut proj = RowProject::new(
            filter,
            vec![Expr::Arithmetic {
                op: ArithOp::Add,
                left: Box::new(Expr::column(0, LogicalType::Integer)),
                right: Box::new(Expr::constant(Value::Integer(100))),
                ty: LogicalType::BigInt,
            }],
        );
        let out = run_to_end(&mut proj).unwrap();
        assert_eq!(
            out,
            vec![vec![Value::BigInt(107)], vec![Value::BigInt(108)], vec![Value::BigInt(109)]]
        );
    }

    #[test]
    fn aggregate_matches_vectorized_semantics() {
        let src = Box::new(RowSource::new(rows(100)));
        let mut agg = RowAggregate::new(
            src,
            vec![
                AggExpr { kind: AggKind::CountStar, arg: None, distinct: false },
                AggExpr {
                    kind: AggKind::Sum,
                    arg: Some(Expr::column(0, LogicalType::Integer)),
                    distinct: false,
                },
            ],
        );
        let out = run_to_end(&mut agg).unwrap();
        assert_eq!(out[0], vec![Value::BigInt(100), Value::BigInt(4950)]);
    }

    #[test]
    fn grouped_aggregate() {
        let src = Box::new(RowSource::new(rows(100)));
        let mut agg = RowHashAggregate::new(
            src,
            vec![Expr::column(1, LogicalType::Integer)],
            vec![AggExpr { kind: AggKind::CountStar, arg: None, distinct: false }],
        );
        let mut out = run_to_end(&mut agg).unwrap();
        out.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|r| r[1] == Value::BigInt(20)));
    }
}
