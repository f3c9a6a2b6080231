//! Data modification operators: UPDATE and DELETE (INSERT appends
//! through the connection's WAL-logged append path).
//!
//! These are the §2 ETL path. UPDATE is column-wise: the plan scans the
//! target table emitting row ids plus the *new* values for exactly the
//! assigned columns, and [`UpdateOp`] pushes them into versioned storage —
//! unchanged columns are never touched, let alone rewritten.

use crate::ops::{OperatorBox, PhysicalOperator};
use eider_catalog::TableEntry;
use eider_txn::{RowId, Transaction};
use eider_vector::{DataChunk, EiderError, LogicalType, Result, Value, Vector};
use std::sync::Arc;

fn count_chunk(n: u64) -> Result<DataChunk> {
    let v = Vector::from_values(LogicalType::BigInt, &[Value::BigInt(n as i64)])?;
    DataChunk::from_vectors(vec![v])
}

fn check_not_null(entry: &TableEntry, column: usize, vector: &Vector) -> Result<()> {
    let def = &entry.columns[column];
    if def.not_null && !vector.validity().all_valid() {
        return Err(EiderError::Constraint(format!(
            "NOT NULL constraint violated: column \"{}\" of table \"{}\"",
            def.name, entry.name
        )));
    }
    Ok(())
}

/// DELETE: pulls row ids (single BigInt column) and deletes them.
pub struct DeleteOp {
    entry: Arc<TableEntry>,
    child: OperatorBox,
    txn: Arc<Transaction>,
    done: bool,
}

impl DeleteOp {
    pub fn new(entry: Arc<TableEntry>, child: OperatorBox, txn: Arc<Transaction>) -> Self {
        DeleteOp { entry, child, txn, done: false }
    }
}

impl PhysicalOperator for DeleteOp {
    fn output_types(&self) -> Vec<LogicalType> {
        vec![LogicalType::BigInt]
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut deleted = 0u64;
        while let Some(chunk) = self.child.next_chunk()? {
            if chunk.is_empty() {
                continue;
            }
            let id_col = chunk.column(chunk.column_count() - 1);
            let mut rows: Vec<RowId> = Vec::with_capacity(chunk.len());
            for row in 0..chunk.len() {
                match id_col.get_value(row) {
                    Value::BigInt(v) => rows.push(RowId::decode(v)),
                    other => {
                        return Err(EiderError::Internal(format!(
                            "DELETE plan produced non-row-id value {other}"
                        )))
                    }
                }
            }
            deleted += self.entry.data.delete_rows(&self.txn, &rows)? as u64;
        }
        Ok(Some(count_chunk(deleted)?))
    }
}

/// UPDATE: the child emits `[new values for each SET column..., row id]`;
/// each column is pushed into storage independently (in-place + undo).
pub struct UpdateOp {
    entry: Arc<TableEntry>,
    child: OperatorBox,
    txn: Arc<Transaction>,
    /// Physical column indexes being assigned, in child-column order.
    columns: Vec<usize>,
    done: bool,
}

impl UpdateOp {
    pub fn new(
        entry: Arc<TableEntry>,
        child: OperatorBox,
        txn: Arc<Transaction>,
        columns: Vec<usize>,
    ) -> Self {
        UpdateOp { entry, child, txn, columns, done: false }
    }
}

impl PhysicalOperator for UpdateOp {
    fn output_types(&self) -> Vec<LogicalType> {
        vec![LogicalType::BigInt]
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut updated = 0u64;
        while let Some(chunk) = self.child.next_chunk()? {
            if chunk.is_empty() {
                continue;
            }
            let id_col = chunk.column(chunk.column_count() - 1);
            let mut rows: Vec<RowId> = Vec::with_capacity(chunk.len());
            for row in 0..chunk.len() {
                match id_col.get_value(row) {
                    Value::BigInt(v) => rows.push(RowId::decode(v)),
                    other => {
                        return Err(EiderError::Internal(format!(
                            "UPDATE plan produced non-row-id value {other}"
                        )))
                    }
                }
            }
            for (child_idx, &table_col) in self.columns.iter().enumerate() {
                let values = chunk.column(child_idx).cast(self.entry.columns[table_col].ty)?;
                check_not_null(&self.entry, table_col, &values)?;
                self.entry.data.update_rows(&self.txn, &rows, table_col, &values)?;
            }
            updated += chunk.len() as u64;
        }
        Ok(Some(count_chunk(updated)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::Expr;
    use crate::ops::scan::TableScanOp;
    use crate::ops::{drain_rows, ProjectionOp};
    use eider_catalog::{Catalog, ColumnDefinition};
    use eider_txn::{CmpOp, ScanOptions, TableFilter, TransactionManager};

    fn setup() -> (Arc<TransactionManager>, Arc<TableEntry>) {
        let cat = Catalog::new();
        let entry = cat
            .create_table(
                "t",
                vec![
                    ColumnDefinition::new("id", LogicalType::Integer).not_null(),
                    ColumnDefinition::new("d", LogicalType::Integer),
                ],
                false,
            )
            .unwrap();
        (TransactionManager::new(), entry)
    }

    fn load(entry: &TableEntry, txn: &Transaction, rows: Vec<Vec<Value>>) {
        let chunk = DataChunk::from_rows(&entry.column_types(), &rows).unwrap();
        entry.data.append_chunk(txn, &chunk).unwrap();
    }

    #[test]
    fn the_papers_wrangling_update() {
        // UPDATE t SET d = NULL WHERE d = -999 (§2), as the physical plan
        // the planner emits: scan(filter d=-999, emit row ids) ->
        // project(NULL, rowid) -> update(column d).
        let (mgr, entry) = setup();
        let txn = Arc::new(mgr.begin());
        let rows: Vec<Vec<Value>> = (0..1000)
            .map(|i| {
                let d = if i % 4 == 0 { Value::Integer(-999) } else { Value::Integer(i) };
                vec![Value::Integer(i), d]
            })
            .collect();
        load(&entry, &txn, rows);

        let scan = TableScanOp::new(
            Arc::clone(&entry.data),
            Arc::clone(&txn),
            ScanOptions {
                columns: vec![],
                filters: vec![TableFilter::new(1, CmpOp::Eq, Value::Integer(-999))],
                emit_row_ids: true,
            },
        );
        let proj = ProjectionOp::new(
            Box::new(scan),
            vec![
                Expr::Cast {
                    child: Box::new(Expr::constant(Value::Null)),
                    to: LogicalType::Integer,
                },
                Expr::column(0, LogicalType::BigInt),
            ],
        );
        let mut update =
            UpdateOp::new(Arc::clone(&entry), Box::new(proj), Arc::clone(&txn), vec![1]);
        let rows = drain_rows(&mut update).unwrap();
        assert_eq!(rows[0][0], Value::BigInt(250));
        // All sentinels are now NULL under this transaction's view.
        let scan2 = TableScanOp::new(
            Arc::clone(&entry.data),
            Arc::clone(&txn),
            ScanOptions {
                columns: vec![1],
                filters: vec![TableFilter::new(1, CmpOp::Eq, Value::Integer(-999))],
                emit_row_ids: false,
            },
        );
        let mut scan2 = scan2;
        assert!(drain_rows(&mut scan2).unwrap().is_empty());
    }

    #[test]
    fn delete_via_row_ids() {
        let (mgr, entry) = setup();
        let txn = Arc::new(mgr.begin());
        let rows: Vec<Vec<Value>> =
            (0..100).map(|i| vec![Value::Integer(i), Value::Integer(i)]).collect();
        load(&entry, &txn, rows);

        let scan = TableScanOp::new(
            Arc::clone(&entry.data),
            Arc::clone(&txn),
            ScanOptions {
                columns: vec![],
                filters: vec![TableFilter::new(0, CmpOp::Lt, Value::Integer(10))],
                emit_row_ids: true,
            },
        );
        let mut del = DeleteOp::new(Arc::clone(&entry), Box::new(scan), Arc::clone(&txn));
        let out = drain_rows(&mut del).unwrap();
        assert_eq!(out[0][0], Value::BigInt(10));
        assert_eq!(entry.data.count_visible(&txn), 90);
    }
}
