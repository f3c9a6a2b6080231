//! `DataChunk`: the unit of data flow in the Vector Volcano model (§6).
//!
//! "A chunk is a horizontal subset of a result set, query intermediate or
//! base table. The chunk consists of a set of column slices." Operators
//! pull chunks from their children; an empty chunk signals exhaustion.

use crate::error::{EiderError, Result};
use crate::selection::SelectionVector;
use crate::types::LogicalType;
use crate::value::Value;
use crate::vector::Vector;
use std::fmt;

/// A horizontal slice of rows across a set of typed column vectors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataChunk {
    columns: Vec<Vector>,
}

impl DataChunk {
    /// An empty chunk with the given column types.
    pub fn new(types: &[LogicalType]) -> Self {
        DataChunk {
            columns: types.iter().map(|&t| Vector::with_capacity(t, crate::VECTOR_SIZE)).collect(),
        }
    }

    /// Build from pre-filled vectors; all must have equal length.
    pub fn from_vectors(columns: Vec<Vector>) -> Result<Self> {
        if let Some(first) = columns.first() {
            let len = first.len();
            if columns.iter().any(|c| c.len() != len) {
                return Err(EiderError::Internal(
                    "columns of a DataChunk must have equal length".into(),
                ));
            }
        }
        Ok(DataChunk { columns })
    }

    /// Build a chunk from rows of values (test/ETL convenience).
    pub fn from_rows(types: &[LogicalType], rows: &[Vec<Value>]) -> Result<Self> {
        let mut chunk = DataChunk::new(types);
        for row in rows {
            chunk.append_row(row)?;
        }
        Ok(chunk)
    }

    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows (the chunk's cardinality).
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Vector::len)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn column(&self, idx: usize) -> &Vector {
        &self.columns[idx]
    }

    pub fn column_mut(&mut self, idx: usize) -> &mut Vector {
        &mut self.columns[idx]
    }

    pub fn columns(&self) -> &[Vector] {
        &self.columns
    }

    pub fn into_columns(self) -> Vec<Vector> {
        self.columns
    }

    pub fn types(&self) -> Vec<LogicalType> {
        self.columns.iter().map(Vector::logical_type).collect()
    }

    /// Append one row of values, casting into column types.
    pub fn append_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(EiderError::Execution(format!(
                "row has {} values, chunk has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        for (col, val) in self.columns.iter_mut().zip(row) {
            col.push_value(val)?;
        }
        Ok(())
    }

    /// Read one row out as values (slow path).
    pub fn row_values(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get_value(row)).collect()
    }

    /// Append `count` rows of `other` starting at `offset`.
    pub fn append_from(&mut self, other: &DataChunk, offset: usize, count: usize) -> Result<()> {
        if other.column_count() != self.column_count() {
            return Err(EiderError::Internal("appending chunk with different column count".into()));
        }
        for (dst, src) in self.columns.iter_mut().zip(&other.columns) {
            dst.append_from(src, offset, count)?;
        }
        Ok(())
    }

    /// Materialize the rows chosen by `sel`.
    pub fn select(&self, sel: &SelectionVector) -> DataChunk {
        DataChunk { columns: self.columns.iter().map(|c| c.select(sel)).collect() }
    }

    /// A contiguous sub-slice as a new chunk.
    pub fn slice(&self, offset: usize, count: usize) -> DataChunk {
        DataChunk { columns: self.columns.iter().map(|c| c.slice(offset, count)).collect() }
    }

    pub fn clear(&mut self) {
        for c in &mut self.columns {
            c.clear();
        }
    }

    pub fn truncate(&mut self, len: usize) {
        for c in &mut self.columns {
            c.truncate(len);
        }
    }

    /// Approximate heap footprint (memory accounting, §4).
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(Vector::size_bytes).sum()
    }

    /// Internal consistency check used by debug assertions and tests.
    pub fn verify(&self) -> Result<()> {
        let len = self.len();
        for (i, c) in self.columns.iter().enumerate() {
            if c.len() != len {
                return Err(EiderError::Internal(format!(
                    "column {i} has length {} != chunk cardinality {len}",
                    c.len()
                )));
            }
            if c.validity().len() != c.len() {
                return Err(EiderError::Internal(format!("column {i} validity length mismatch")));
            }
        }
        Ok(())
    }

    /// All rows as vectors of values (testing convenience).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len()).map(|r| self.row_values(r)).collect()
    }
}

impl fmt::Display for DataChunk {
    /// Render as a simple aligned text table (used by examples and the CLI
    /// surface of the client API).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = (0..self.len())
            .map(|r| self.row_values(r).iter().map(Value::to_string).collect())
            .collect();
        let mut widths = vec![0usize; self.column_count()];
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                write!(f, "{cell:>w$}", w = widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataChunk {
        DataChunk::from_rows(
            &[LogicalType::Integer, LogicalType::Varchar],
            &[
                vec![Value::Integer(1), Value::Varchar("one".into())],
                vec![Value::Integer(2), Value::Null],
                vec![Value::Integer(3), Value::Varchar("three".into())],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_round_trips() {
        let c = sample();
        assert_eq!(c.len(), 3);
        assert_eq!(c.column_count(), 2);
        assert_eq!(c.row_values(1), vec![Value::Integer(2), Value::Null]);
        c.verify().unwrap();
    }

    #[test]
    fn append_row_arity_checked() {
        let mut c = sample();
        assert!(c.append_row(&[Value::Integer(4)]).is_err());
        assert!(c.append_row(&[Value::Integer(4), Value::Varchar("four".into())]).is_ok());
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn select_keeps_rows_in_selection_order() {
        let c = sample();
        let sel = SelectionVector::from_indexes(vec![2, 0]);
        let s = c.select(&sel);
        assert_eq!(s.row_values(0)[0], Value::Integer(3));
        assert_eq!(s.row_values(1)[0], Value::Integer(1));
    }

    #[test]
    fn mismatched_vectors_rejected() {
        let a = Vector::from_values(LogicalType::Integer, &[Value::Integer(1)]).unwrap();
        let b = Vector::new(LogicalType::Integer);
        assert!(DataChunk::from_vectors(vec![a, b]).is_err());
    }

    #[test]
    fn display_renders_table() {
        let c = sample();
        let s = c.to_string();
        assert!(s.contains("one"));
        assert!(s.contains("NULL"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn slice_and_append_from() {
        let c = sample();
        let s = c.slice(1, 2);
        assert_eq!(s.len(), 2);
        let mut d = DataChunk::new(&c.types());
        d.append_from(&c, 0, 3).unwrap();
        assert_eq!(d.to_rows(), c.to_rows());
    }
}
