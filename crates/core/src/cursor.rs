//! Streaming query results: the incremental engine-to-host handoff.
//!
//! MonetDB/e and DuckDB's embedding story (§5 of the paper) hinges on a
//! cheap result transfer: the host application lives in the same address
//! space, so a result should *stream* out of the engine chunk by chunk —
//! not be copied into a monolithic buffer first. [`ResultCursor`] is that
//! handoff. [`Connection::query_stream`](crate::Connection::query_stream)
//! returns one; each [`next_chunk`](ResultCursor::next_chunk) pulls the
//! next `Arc<DataChunk>` straight from the executor:
//!
//! * **Serial plans** produce the chunk on demand — the Volcano pull loop
//!   runs exactly as far as the application has consumed.
//! * **Parallel plans** run their pipeline DAG on a background scheduler
//!   whose output nodes feed a byte-bounded
//!   [`ChunkQueue`](eider_exec::parallel::ChunkQueue); a slow consumer
//!   therefore *throttles the workers* instead of the engine buffering
//!   the whole result set.
//!
//! **§4 accounting.** The chunk currently held by the application is
//! charged to the [`BufferManager`] and released when the cursor advances
//! (in-flight parallel batches carry their own reservations inside the
//! queue). Under a budget too tight for even one vector the handoff
//! proceeds unaccounted — bounded by a single chunk, the same class of
//! exception as the serial operators' scratch buffers.
//!
//! **Transactions.** A cursor opened outside an explicit transaction holds
//! its own auto-commit transaction and commits it when the stream is
//! exhausted (or rolls back on error/drop). Inside `BEGIN … COMMIT` the
//! cursor shares the session transaction; attempting to `COMMIT` while a
//! cursor is still open fails with "a query result stream is still open".
//!
//! Dropping a cursor mid-stream cancels the query: serial operators stop
//! being pulled, and a parallel graph's result queue aborts, failing its
//! producers fast and joining the scheduler thread.
//!
//! ```
//! use eider_core::Database;
//!
//! let db = Database::in_memory().unwrap();
//! let conn = db.connect();
//! conn.execute("CREATE TABLE t (x INTEGER)").unwrap();
//! conn.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
//! let mut cursor = conn.query_stream("SELECT x FROM t").unwrap();
//! assert_eq!(cursor.column_names(), ["x"]);
//! let mut total = 0;
//! while let Some(chunk) = cursor.next_chunk().unwrap() {
//!     for row in 0..chunk.len() {
//!         total += chunk.column(0).get_value(row).as_i64().unwrap();
//!     }
//! }
//! assert_eq!(total, 6);
//! ```
//!
//! [`BufferManager`]: eider_storage::buffer::BufferManager

use crate::database::Database;
use eider_client::MaterializedResult;
use eider_etl::ArrowWriter;
use eider_exec::ops::OperatorBox;
use eider_storage::buffer::{BufferManager, MemoryReservation};
use eider_txn::Transaction;
use eider_vector::{DataChunk, EiderError, LogicalType, Result};
use std::sync::Arc;

/// Where the cursor's chunks come from.
enum Source {
    /// A live operator stream — the serial pull tree, or the
    /// [`PipelineGraphOp`](eider_exec::parallel::PipelineGraphOp) facade
    /// over a background pipeline DAG. Dropped (`None`) once the stream
    /// finishes, which joins any scheduler thread.
    Operator(Option<OperatorBox>),
    /// An already-materialized result (non-query statements: DDL, DML
    /// counts, PRAGMAs, EXPLAIN, …) replayed chunk by chunk.
    Chunks(std::vec::IntoIter<Arc<DataChunk>>),
}

/// An open streaming result: pulls chunks incrementally from the executor,
/// charging each in-flight chunk to the buffer manager. See the [module
/// docs](self) for the full protocol; [`Connection`](crate::Connection)
/// methods construct it.
pub struct ResultCursor {
    db: Arc<Database>,
    /// The account in-flight chunks are charged against: the issuing
    /// session's quota sub-account (so an undrained cursor counts against
    /// its own session, not its siblings), or the root account for
    /// pre-materialized results.
    buffers: Arc<BufferManager>,
    /// The transaction the stream reads under (`None` once finished, or
    /// for pre-materialized results that already committed).
    txn: Option<Arc<Transaction>>,
    /// Whether the cursor owns `txn` as an auto-commit transaction (it
    /// commits on exhaustion); `false` inside explicit transactions.
    auto: bool,
    names: Vec<String>,
    types: Vec<LogicalType>,
    source: Source,
    /// §4 charge for the chunk the application currently holds.
    charge: Option<MemoryReservation>,
    finished: bool,
}

impl ResultCursor {
    pub(crate) fn streaming(
        db: Arc<Database>,
        buffers: Arc<BufferManager>,
        txn: Arc<Transaction>,
        auto: bool,
        names: Vec<String>,
        types: Vec<LogicalType>,
        op: OperatorBox,
    ) -> Self {
        ResultCursor {
            db,
            buffers,
            txn: Some(txn),
            auto,
            names,
            types,
            source: Source::Operator(Some(op)),
            charge: None,
            finished: false,
        }
    }

    /// Wrap an already-materialized result (its statement has fully
    /// executed and committed); the cursor replays its chunks.
    pub(crate) fn from_materialized(db: Arc<Database>, result: MaterializedResult) -> Self {
        let names = result.column_names().to_vec();
        let types = result.column_types().to_vec();
        let chunks: Vec<Arc<DataChunk>> = result.chunks().collect();
        let buffers = db.buffers();
        ResultCursor {
            db,
            buffers,
            txn: None,
            auto: false,
            names,
            types,
            source: Source::Chunks(chunks.into_iter()),
            charge: None,
            finished: false,
        }
    }

    /// Output column names, in position order.
    pub fn column_names(&self) -> &[String] {
        &self.names
    }

    /// Output column types, in position order.
    pub fn column_types(&self) -> &[LogicalType] {
        &self.types
    }

    /// Number of output columns.
    pub fn column_count(&self) -> usize {
        self.types.len()
    }

    /// Pull the next result chunk; `None` once the stream is exhausted.
    ///
    /// The returned chunk is the engine's own buffer behind an `Arc` — the
    /// §5 zero-copy handover. Its bytes stay charged to the buffer manager
    /// until the *next* `next_chunk` call (advancing declares the previous
    /// chunk consumed). Exhaustion commits the cursor's auto-commit
    /// transaction; an executor error rolls it back and is returned.
    pub fn next_chunk(&mut self) -> Result<Option<Arc<DataChunk>>> {
        // Advancing releases the previous chunk's charge.
        self.charge = None;
        if self.finished {
            return Ok(None);
        }
        let next = match &mut self.source {
            Source::Chunks(iter) => iter.next().map(Ok),
            Source::Operator(op) => op
                .as_mut()
                .expect("open stream has an operator")
                .next_chunk()
                .map(|c| c.map(Arc::new))
                .transpose(),
        };
        match next {
            Some(Ok(chunk)) => {
                self.charge = self.buffers.reserve(chunk.size_bytes()).ok();
                Ok(Some(chunk))
            }
            None => {
                self.finish(true)?;
                Ok(None)
            }
            Some(Err(e)) => {
                // Executor failure: wind down and roll back (an explicit
                // transaction is doomed instead, see `Connection`); the
                // stream is closed from here on.
                if let Some(txn) = self.txn.as_ref().filter(|_| !self.auto) {
                    txn.doom();
                }
                let _ = self.finish(false);
                Err(e)
            }
        }
    }

    /// Stream the remaining chunks into `out` as an Arrow IPC file (the
    /// engine's hand-rolled framing — see [`eider_etl::arrow`]) and
    /// return the number of rows written. Each result chunk becomes one
    /// record batch as it is pulled, so the export is as incremental as
    /// the query itself: a parallel plan's workers stay throttled by the
    /// writer, and nothing is materialized first. Dictionary-encoded
    /// varchar columns are exported in the compressed domain — codes plus
    /// a shared dictionary batch, no decode. The file round-trips through
    /// `read_arrow` losslessly.
    pub fn export_arrow_ipc(mut self, out: impl std::io::Write) -> Result<u64> {
        let mut writer =
            ArrowWriter::new(out, std::mem::take(&mut self.names), self.types.clone())?;
        while let Some(chunk) = self.next_chunk()? {
            writer.write_chunk(&chunk)?;
        }
        writer.finish()
    }

    /// Drain the remaining stream into a [`MaterializedResult`] (the
    /// convenience [`Connection::query`](crate::Connection::query) uses).
    /// The accumulated result belongs to the application, so — like the
    /// engine's previous materialize-then-return path — it is not charged
    /// to the buffer manager.
    pub fn materialize(mut self) -> Result<MaterializedResult> {
        let mut chunks = Vec::new();
        while let Some(chunk) = self.next_chunk()? {
            chunks.push(chunk);
        }
        Ok(MaterializedResult::from_shared(
            std::mem::take(&mut self.names),
            std::mem::take(&mut self.types),
            chunks,
        ))
    }

    /// Close the stream: drop the operator (joining any background
    /// scheduler), release the in-flight charge, and settle the
    /// auto-commit transaction — commit on clean exhaustion, rollback on
    /// error or abandonment.
    fn finish(&mut self, commit: bool) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        // Drop the operator first: a parallel graph joins its scheduler
        // thread here, releasing that thread's transaction reference so
        // the unwrap below can succeed.
        if let Source::Operator(op) = &mut self.source {
            *op = None;
        }
        self.charge = None;
        let Some(txn) = self.txn.take() else { return Ok(()) };
        if !self.auto {
            return Ok(()); // the session owns the explicit transaction
        }
        let txn = Arc::try_unwrap(txn)
            .map_err(|_| EiderError::Internal("query stream kept the transaction alive".into()))?;
        if commit {
            self.db.commit_transaction(txn)?;
        } else {
            let _ = txn.rollback();
        }
        Ok(())
    }
}

impl Drop for ResultCursor {
    fn drop(&mut self) {
        // An abandoned cursor cancels its query and rolls back its
        // auto-commit transaction; errors have nowhere to go from a
        // destructor and the transaction was read-only.
        let _ = self.finish(false);
    }
}

impl std::fmt::Debug for ResultCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCursor")
            .field("columns", &self.names)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}
