//! Bulk append: the application-to-DBMS direction of §5's transfer story.
//!
//! "The same is true for appending data to tables, the client application
//! can fill chunks with its data. Once filled, they are handed over to
//! DuckDB and appended to persistent storage. All APIs are built around
//! bulk value handling to prevent function call overhead from becoming a
//! bottleneck."
//!
//! The API is columnar-first: [`Appender::append_chunk`] hands whole
//! chunks over by value (no per-value calls) and each lands in the table
//! at once, through the same write path as INSERT and COPY
//! ([`TableEntry::append`]): cast to the table's types, NOT NULL checked,
//! and — in a persistent database — logged to the WAL, so the rows are
//! durable once their transaction commits. [`Appender::append_row`] is a
//! thin batching wrapper that stages rows into a vector-sized chunk for
//! you, and [`ChunkBuilder`] is the typed column-at-a-time middle ground.
//! [`Appender::from_source`] drains any [`TableSource`] — a CSV file, an
//! Arrow file, anything implementing the scan contract — through the same
//! path, so bulk file ingest and application handover share one code
//! path.

use eider_catalog::TableEntry;
use eider_etl::{for_each_chunk, TableSource};
use eider_txn::Transaction;
use eider_vector::{DataChunk, EiderError, LogicalType, Result, Value, Vector, VECTOR_SIZE};
use std::sync::Arc;

/// Chunk-granular appender bound to a table and a transaction. Chunks
/// land in the table as they are handed over; rows from
/// [`append_row`](Appender::append_row) land a vector at a time — call
/// [`flush`](Appender::flush) (or [`finish`](Appender::finish)) to push
/// the remainder.
pub struct Appender {
    entry: Arc<TableEntry>,
    txn: Arc<Transaction>,
    /// Staging chunk for `append_row`, appended at vector granularity.
    row_buffer: DataChunk,
    rows_appended: u64,
}

impl Appender {
    pub fn new(entry: Arc<TableEntry>, txn: Arc<Transaction>) -> Self {
        let row_buffer = DataChunk::new(&entry.column_types());
        Appender { entry, txn, row_buffer, rows_appended: 0 }
    }

    /// Hand a whole application-filled chunk over — the primary entry
    /// point: the chunk moves as one unit, with no per-value calls.
    pub fn append_chunk(&mut self, chunk: DataChunk) -> Result<()> {
        self.flush()?;
        self.rows_appended += self.entry.append(&self.txn, std::slice::from_ref(&chunk))?;
        Ok(())
    }

    /// Append one row; a thin batching wrapper over the columnar path
    /// (rows stage into a chunk at vector granularity).
    pub fn append_row(&mut self, values: &[Value]) -> Result<()> {
        for (i, (v, def)) in values.iter().zip(&self.entry.columns).enumerate() {
            if def.not_null && v.is_null() {
                return Err(EiderError::Constraint(format!(
                    "NOT NULL constraint violated: column \"{}\" (value {i})",
                    def.name
                )));
            }
        }
        self.row_buffer.append_row(values)?;
        if self.row_buffer.len() >= VECTOR_SIZE {
            self.flush()?;
        }
        Ok(())
    }

    /// A typed column-at-a-time builder for this table's schema; hand the
    /// result to [`append_chunk`](Appender::append_chunk).
    pub fn chunk_builder(&self) -> ChunkBuilder {
        ChunkBuilder::new(self.entry.column_types())
    }

    /// Drain an entire [`TableSource`] into `entry` — the shared bulk
    /// path behind CSV/Arrow file loads. Columns are cast to the table's
    /// declared types where the source's schema differs. Returns the row
    /// count.
    pub fn from_source(
        entry: Arc<TableEntry>,
        txn: Arc<Transaction>,
        source: &dyn TableSource,
    ) -> Result<u64> {
        let mut app = Appender::new(entry, txn);
        app.ingest(source)?;
        app.finish()
    }

    /// Append every chunk of `source` (see
    /// [`from_source`](Appender::from_source)).
    pub fn ingest(&mut self, source: &dyn TableSource) -> Result<()> {
        let columns = self.entry.columns.len();
        if source.column_types().len() != columns {
            return Err(EiderError::Bind(format!(
                "{} has {} columns, table \"{}\" expects {columns}",
                source.name(),
                source.column_types().len(),
                self.entry.name,
            )));
        }
        let projection: Vec<usize> = (0..columns).collect();
        for_each_chunk(source, &projection, |chunk| self.append_chunk(chunk))
    }

    /// Append the rows staged by [`append_row`](Appender::append_row).
    pub fn flush(&mut self) -> Result<()> {
        if self.row_buffer.is_empty() {
            return Ok(());
        }
        let chunk =
            std::mem::replace(&mut self.row_buffer, DataChunk::new(&self.entry.column_types()));
        self.rows_appended += self.entry.append(&self.txn, std::slice::from_ref(&chunk))?;
        Ok(())
    }

    /// Rows handed to the table so far (excludes rows still staged by
    /// [`append_row`](Appender::append_row)).
    pub fn rows_appended(&self) -> u64 {
        self.rows_appended
    }

    /// Flush and return the total appended row count.
    pub fn finish(mut self) -> Result<u64> {
        self.flush()?;
        Ok(self.rows_appended)
    }
}

/// Typed column-at-a-time chunk construction: push values down each
/// column, then [`finish`](ChunkBuilder::finish) into a [`DataChunk`] for
/// [`Appender::append_chunk`]. Columns must end up the same length.
pub struct ChunkBuilder {
    columns: Vec<Vector>,
}

impl ChunkBuilder {
    pub fn new(types: Vec<LogicalType>) -> Self {
        ChunkBuilder { columns: types.into_iter().map(Vector::new).collect() }
    }

    /// Push one typed value onto column `col` (type-checked).
    pub fn push(&mut self, col: usize, value: &Value) -> Result<()> {
        let column = self
            .columns
            .get_mut(col)
            .ok_or_else(|| EiderError::Bind(format!("chunk builder has no column {col}")))?;
        column.push_value(value)
    }

    /// Push a NULL onto column `col`.
    pub fn push_null(&mut self, col: usize) -> Result<()> {
        let column = self
            .columns
            .get_mut(col)
            .ok_or_else(|| EiderError::Bind(format!("chunk builder has no column {col}")))?;
        column.push_null();
        Ok(())
    }

    /// Rows in the (ragged-while-building) longest column.
    pub fn len(&self) -> usize {
        self.columns.iter().map(Vector::len).max().unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Assemble the chunk; every column must have the same length.
    pub fn finish(self) -> Result<DataChunk> {
        let lens: Vec<usize> = self.columns.iter().map(Vector::len).collect();
        if lens.windows(2).any(|w| w[0] != w[1]) {
            return Err(EiderError::Bind(format!(
                "chunk builder columns are ragged: lengths {lens:?}"
            )));
        }
        DataChunk::from_vectors(self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eider_catalog::{Catalog, ColumnDefinition};
    use eider_txn::TransactionManager;
    use eider_vector::LogicalType;

    fn setup() -> (Arc<TransactionManager>, Arc<TableEntry>) {
        let cat = Catalog::new();
        let entry = cat
            .create_table(
                "t",
                vec![
                    ColumnDefinition::new("id", LogicalType::Integer).not_null(),
                    ColumnDefinition::new("v", LogicalType::Double),
                ],
                false,
            )
            .unwrap();
        (TransactionManager::new(), entry)
    }

    #[test]
    fn rows_land_at_vector_granularity() {
        let (mgr, entry) = setup();
        let txn = Arc::new(mgr.begin());
        let mut app = Appender::new(Arc::clone(&entry), Arc::clone(&txn));
        for i in 0..(VECTOR_SIZE + 10) {
            app.append_row(&[Value::Integer(i as i32), Value::Double(0.5)]).unwrap();
        }
        // One full vector already appended; the tail is still staged.
        assert_eq!(entry.data.count_visible(&txn), VECTOR_SIZE);
        assert_eq!(app.rows_appended(), VECTOR_SIZE as u64);
        assert_eq!(app.finish().unwrap(), (VECTOR_SIZE + 10) as u64);
        assert_eq!(entry.data.count_visible(&txn), VECTOR_SIZE + 10);
    }

    #[test]
    fn chunk_handover_lands_at_once() {
        let (mgr, entry) = setup();
        let txn = Arc::new(mgr.begin());
        let chunk = DataChunk::from_rows(
            &[LogicalType::Integer, LogicalType::Double],
            &(0..100).map(|i| vec![Value::Integer(i), Value::Double(1.0)]).collect::<Vec<_>>(),
        )
        .unwrap();
        let mut app = Appender::new(Arc::clone(&entry), Arc::clone(&txn));
        app.append_chunk(chunk).unwrap();
        assert_eq!(entry.data.count_visible(&txn), 100);
        assert_eq!(app.rows_appended(), 100);
        assert_eq!(app.finish().unwrap(), 100);
    }

    #[test]
    fn rows_and_chunks_interleave_in_arrival_order() {
        let (mgr, entry) = setup();
        let txn = Arc::new(mgr.begin());
        let mut app = Appender::new(Arc::clone(&entry), Arc::clone(&txn));
        app.append_row(&[Value::Integer(0), Value::Double(0.0)]).unwrap();
        let chunk = DataChunk::from_rows(
            &[LogicalType::Integer, LogicalType::Double],
            &[vec![Value::Integer(1), Value::Double(1.0)]],
        )
        .unwrap();
        app.append_chunk(chunk).unwrap();
        app.append_row(&[Value::Integer(2), Value::Double(2.0)]).unwrap();
        app.finish().unwrap();
        let ids: Vec<i64> = entry
            .data
            .scan_collect(&txn, &eider_txn::ScanOptions { columns: vec![0], ..Default::default() })
            .unwrap()
            .iter()
            .flat_map(|c| c.to_rows())
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        assert_eq!(ids, [0, 1, 2]);
    }

    #[test]
    fn constraints_enforced() {
        let (mgr, entry) = setup();
        let txn = Arc::new(mgr.begin());
        let mut app = Appender::new(Arc::clone(&entry), Arc::clone(&txn));
        assert!(app.append_row(&[Value::Null, Value::Double(1.0)]).is_err());
        let bad = DataChunk::from_rows(
            &[LogicalType::Integer, LogicalType::Double],
            &[vec![Value::Null, Value::Double(1.0)]],
        )
        .unwrap();
        assert!(app.append_chunk(bad).is_err());
    }

    #[test]
    fn chunk_builder_is_typed_and_rectangular() {
        let (mgr, entry) = setup();
        let txn = Arc::new(mgr.begin());
        let mut app = Appender::new(Arc::clone(&entry), Arc::clone(&txn));
        let mut b = app.chunk_builder();
        b.push(0, &Value::Integer(1)).unwrap();
        b.push(1, &Value::Double(0.5)).unwrap();
        b.push(0, &Value::Integer(2)).unwrap();
        // Wrong type is rejected at push time.
        assert!(b.push(1, &Value::Varchar("x".into())).is_err());
        // Ragged columns are rejected at finish time.
        let ragged = {
            let mut b2 = app.chunk_builder();
            b2.push(0, &Value::Integer(9)).unwrap();
            b2
        };
        assert!(ragged.finish().is_err());
        b.push_null(1).unwrap();
        let chunk = b.finish().unwrap();
        app.append_chunk(chunk).unwrap();
        assert_eq!(app.finish().unwrap(), 2);
    }

    #[test]
    fn from_source_ingests_a_csv_file() {
        use eider_etl::{CsvReadOptions, CsvSource};
        use std::io::Write as _;
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut path = std::env::temp_dir();
        path.push(format!("eider_appender_src_{}_{n}.csv", std::process::id()));
        {
            let mut f = std::fs::File::create(&path).unwrap();
            writeln!(f, "id,v").unwrap();
            for i in 0..1000 {
                writeln!(f, "{i},{}.5", i).unwrap();
            }
        }
        let src = CsvSource::open(&path, CsvReadOptions::default()).unwrap();
        let (mgr, entry) = setup();
        let txn = Arc::new(mgr.begin());
        // CSV sniffs id as BigInt; from_source casts to the table's Integer.
        let n = Appender::from_source(Arc::clone(&entry), Arc::clone(&txn), &src).unwrap();
        assert_eq!(n, 1000);
        assert_eq!(entry.data.count_visible(&txn), 1000);
        std::fs::remove_file(&path).unwrap();
    }
}
