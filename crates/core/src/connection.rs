//! `Connection`: the statement execution surface of the embedded database.
//!
//! Two result paths, one execution engine underneath:
//! [`Connection::query_stream`] opens a [`ResultCursor`] that pulls
//! chunks incrementally (the embedding API's bounded-memory handoff —
//! see [`crate::cursor`]); [`Connection::query`] is the same stream
//! drained into a [`MaterializedResult`] for callers that want the whole
//! result at once.

use crate::cursor::ResultCursor;
use crate::database::{Database, SessionState};
use crate::persist::{self, WalRecord};
use crate::planner::{self, PlanCtx};
use eider_client::MaterializedResult;
use eider_coop::compression::CompressionLevel;
use eider_etl::csv::{CsvReadOptions, CsvSource, CsvWriter};
use eider_etl::for_each_chunk;
use eider_exec::ops::drain;
use eider_sql::plan::LogicalPlan;
use eider_sql::{optimizer, Binder};
use eider_txn::Transaction;
use eider_vector::{DataChunk, EiderError, LogicalType, Result, Value};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A session: runs SQL, owns the current explicit transaction (if any)
/// and the session's memory quota account — every operator its queries
/// plan charges that account, so concurrent sessions stay inside their
/// own slices of the global budget.
pub struct Connection {
    db: Arc<Database>,
    session: Arc<SessionState>,
    current_txn: Mutex<Option<Arc<Transaction>>>,
    /// `PRAGMA optimizer`: per-session switch for the logical optimizer.
    /// Off, plans execute exactly as bound (syntactic join order, no
    /// pushdown) — the baseline the plan-shape and property tests compare
    /// cost-based plans against.
    optimize: AtomicBool,
}

impl Connection {
    pub(crate) fn new(db: Arc<Database>) -> Self {
        let session = db.register_session();
        Connection { db, session, current_txn: Mutex::new(None), optimize: AtomicBool::new(true) }
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// This connection's session state (id + quota account).
    pub fn session(&self) -> &Arc<SessionState> {
        &self.session
    }

    /// The session-scoped planning context every statement lowers under.
    fn plan_ctx(&self) -> PlanCtx<'_> {
        PlanCtx::new(&self.db, self.session.buffers())
    }

    /// Run one or more `;`-separated statements; returns the last result,
    /// fully materialized.
    ///
    /// The execution underneath streams: this is
    /// [`query_stream`](Connection::query_stream) followed by
    /// [`ResultCursor::materialize`], kept for the many call sites that
    /// want the whole result at once. Bounded-memory consumers should use
    /// `query_stream` directly.
    ///
    /// ```
    /// use eider_core::{Database, Value};
    /// let db = Database::in_memory().unwrap();
    /// let conn = db.connect();
    /// conn.execute("CREATE TABLE t (x INTEGER)").unwrap();
    /// conn.execute("INSERT INTO t VALUES (41), (1)").unwrap();
    /// let result = conn.query("SELECT sum(x) FROM t").unwrap();
    /// assert_eq!(result.scalar().unwrap(), Value::BigInt(42));
    /// ```
    pub fn query(&self, sql: &str) -> Result<MaterializedResult> {
        self.query_stream(sql)?.materialize()
    }

    /// Run one or more `;`-separated statements; the last one's result
    /// comes back as a streaming [`ResultCursor`] that pulls chunks
    /// incrementally from the executor (earlier statements execute to
    /// completion first). Plain `SELECT`-shaped statements stream — serial
    /// plans pull on demand, parallel plans run on a background scheduler
    /// throttled by the cursor — while DDL/DML/PRAGMA statements execute
    /// eagerly and replay their (small) result through the same cursor
    /// type. See [`crate::cursor`] for the accounting and transaction
    /// protocol.
    ///
    /// ```
    /// use eider_core::Database;
    /// let db = Database::in_memory().unwrap();
    /// let conn = db.connect();
    /// conn.execute("CREATE TABLE t (x INTEGER)").unwrap();
    /// conn.execute("INSERT INTO t VALUES (7), (8), (9)").unwrap();
    /// let mut rows = 0;
    /// let mut cursor = conn.query_stream("SELECT x FROM t WHERE x > 7").unwrap();
    /// while let Some(chunk) = cursor.next_chunk().unwrap() {
    ///     rows += chunk.len();
    /// }
    /// assert_eq!(rows, 2);
    /// ```
    pub fn query_stream(&self, sql: &str) -> Result<ResultCursor> {
        let statements = eider_sql::parse_statements(sql)?;
        let Some((last, rest)) = statements.split_last() else {
            return Err(EiderError::Parse("empty statement".into()));
        };
        for stmt in rest {
            self.run_statement(stmt)?;
        }
        let plan = Binder::new(Arc::clone(self.db.catalog())).bind_statement(last)?;
        let plan = self.optimize_plan(plan)?;
        self.stream_plan(plan)
    }

    /// Apply the logical optimizer unless this session disabled it.
    fn optimize_plan(&self, plan: LogicalPlan) -> Result<LogicalPlan> {
        if self.optimize.load(Ordering::Relaxed) {
            optimizer::optimize(plan)
        } else {
            Ok(plan)
        }
    }

    /// Open a cursor over `plan`: plain queries keep their operator tree
    /// (and transaction) alive inside the cursor; every other statement
    /// executes through the materialized path and replays its result.
    fn stream_plan(&self, plan: LogicalPlan) -> Result<ResultCursor> {
        if !is_plain_query(&plan) {
            let result = self.run_plan(plan)?;
            return Ok(ResultCursor::from_materialized(Arc::clone(&self.db), result));
        }
        let names = plan.output_names();
        let types = plan.output_types();
        let (txn, auto) = {
            let cur = self.current_txn.lock();
            match &*cur {
                Some(t) => (Arc::clone(t), false),
                None => (Arc::new(self.db.txn_manager().begin()), true),
            }
        };
        match planner::lower(&self.plan_ctx(), &txn, &plan) {
            Ok(op) => Ok(ResultCursor::streaming(
                Arc::clone(&self.db),
                self.session.buffers(),
                txn,
                auto,
                names,
                types,
                op,
            )),
            Err(e) => {
                if auto {
                    if let Ok(txn) = Arc::try_unwrap(txn) {
                        let _ = txn.rollback();
                    }
                }
                Err(e)
            }
        }
    }

    /// Run statements, returning the affected-row count of the last one
    /// (0 for non-modifying statements).
    pub fn execute(&self, sql: &str) -> Result<u64> {
        let result = self.query(sql)?;
        if result.column_names() == ["Count"] && result.row_count() == 1 {
            if let Ok(Value::BigInt(n)) = result.scalar() {
                return Ok(n as u64);
            }
        }
        Ok(0)
    }

    /// True if an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.current_txn.lock().is_some()
    }

    fn run_statement(&self, stmt: &eider_sql::ast::Statement) -> Result<MaterializedResult> {
        let plan = Binder::new(Arc::clone(self.db.catalog())).bind_statement(stmt)?;
        let plan = self.optimize_plan(plan)?;
        self.run_plan(plan)
    }

    fn run_plan(&self, plan: LogicalPlan) -> Result<MaterializedResult> {
        // Transaction-control statements manipulate the session state.
        match &plan {
            LogicalPlan::Begin => {
                let mut cur = self.current_txn.lock();
                if cur.is_some() {
                    return Err(EiderError::Transaction(
                        "a transaction is already in progress".into(),
                    ));
                }
                *cur = Some(Arc::new(self.db.txn_manager().begin()));
                return Ok(empty_result());
            }
            LogicalPlan::Commit => {
                let txn = self.take_txn()?;
                self.db.commit_transaction(txn)?;
                return Ok(empty_result());
            }
            LogicalPlan::Rollback => {
                let txn = self.take_txn()?;
                txn.rollback()?;
                return Ok(empty_result());
            }
            LogicalPlan::Checkpoint => {
                self.db.checkpoint()?;
                return Ok(empty_result());
            }
            LogicalPlan::Pragma { name, value } => return self.run_pragma(name, value.as_ref()),
            LogicalPlan::Explain { input } => {
                let mut lines: Vec<Vec<Value>> =
                    input.explain().lines().map(|l| vec![Value::Varchar(l.to_string())]).collect();
                // Physical routing verdict: does this plan run on the
                // parallel pipeline DAG, and with how many workers?
                if is_plain_query(input) {
                    lines.push(vec![Value::Varchar(self.routing(input)?)]);
                }
                let chunk = DataChunk::from_rows(&[LogicalType::Varchar], &lines)?;
                return Ok(MaterializedResult::new(
                    vec!["explain".into()],
                    vec![LogicalType::Varchar],
                    vec![chunk],
                ));
            }
            LogicalPlan::ShowTables => {
                let rows: Vec<Vec<Value>> = self
                    .db
                    .catalog()
                    .table_names()
                    .into_iter()
                    .map(|n| vec![Value::Varchar(n)])
                    .collect();
                let chunk = DataChunk::from_rows(&[LogicalType::Varchar], &rows)?;
                return Ok(MaterializedResult::new(
                    vec!["name".into()],
                    vec![LogicalType::Varchar],
                    vec![chunk],
                ));
            }
            _ => {}
        }
        // Everything else runs inside a transaction: the session's explicit
        // one, or an auto-commit transaction per statement.
        let (txn, auto) = {
            let cur = self.current_txn.lock();
            match &*cur {
                Some(t) => (Arc::clone(t), false),
                None => (Arc::new(self.db.txn_manager().begin()), true),
            }
        };
        let result = self.execute_in_txn(&txn, plan);
        if auto {
            match result {
                Ok(r) => {
                    let txn = Arc::try_unwrap(txn).map_err(|_| {
                        EiderError::Internal("query kept the transaction alive".into())
                    })?;
                    self.db.commit_transaction(txn)?;
                    Ok(r)
                }
                Err(e) => {
                    if let Ok(txn) = Arc::try_unwrap(txn) {
                        let _ = txn.rollback();
                    }
                    Err(e)
                }
            }
        } else {
            result
        }
    }

    /// `EXPLAIN`'s routing line: lower `plan` exactly as execution would,
    /// under a throwaway transaction, and report the DAG that lowering
    /// built. Nothing runs — graphs start on their first pull.
    fn routing(&self, plan: &LogicalPlan) -> Result<String> {
        let ctx = self.plan_ctx();
        let txn = Arc::new(self.db.txn_manager().begin());
        let lowered = planner::lower(&ctx, &txn, plan).map(drop);
        if let Ok(txn) = Arc::try_unwrap(txn) {
            txn.rollback()?;
        }
        lowered.map(|()| ctx.routing())
    }

    fn take_txn(&self) -> Result<Transaction> {
        let mut cur = self.current_txn.lock();
        let arc = cur
            .take()
            .ok_or_else(|| EiderError::Transaction("no transaction is in progress".into()))?;
        match Arc::try_unwrap(arc) {
            Ok(txn) => Ok(txn),
            Err(arc) => {
                // A cursor still reads under this transaction: refuse to
                // finish it, but keep it open — the session can retry once
                // the stream is closed.
                *cur = Some(arc);
                Err(EiderError::Transaction(
                    "cannot finish transaction: a query result stream is still open".into(),
                ))
            }
        }
    }

    fn execute_in_txn(
        &self,
        txn: &Arc<Transaction>,
        plan: LogicalPlan,
    ) -> Result<MaterializedResult> {
        match plan {
            LogicalPlan::CreateTable { name, mut columns, if_not_exists, as_select } => {
                if let Some(select) = &as_select {
                    // CTAS derives the schema from the query.
                    let names = select.output_names();
                    let types = select.output_types();
                    columns = names
                        .iter()
                        .zip(&types)
                        .map(|(n, &t)| eider_catalog::ColumnDefinition::new(n.clone(), t))
                        .collect();
                }
                let entry =
                    self.db.catalog().create_table(&name, columns.clone(), if_not_exists)?;
                self.db.txn_manager().register_table(&entry.data);
                self.db.log_ddl(&WalRecord::CreateTable { name, columns })?;
                if let Some(select) = as_select {
                    let insert = LogicalPlan::Insert { entry, input: select };
                    return self.execute_in_txn(txn, insert);
                }
                Ok(empty_result())
            }
            LogicalPlan::DropTable { name, if_exists } => {
                self.db.catalog().drop_table(&name, if_exists)?;
                self.db.log_ddl(&WalRecord::DropTable { name })?;
                Ok(empty_result())
            }
            LogicalPlan::CreateView { name, sql, or_replace } => {
                self.db.catalog().create_view(&name, &sql, or_replace)?;
                self.db.log_ddl(&WalRecord::CreateView { name, sql })?;
                Ok(empty_result())
            }
            LogicalPlan::DropView { name, if_exists } => {
                self.db.catalog().drop_view(&name, if_exists)?;
                self.db.log_ddl(&WalRecord::DropView { name })?;
                Ok(empty_result())
            }
            LogicalPlan::Insert { entry, input } => {
                // Drain first: an INSERT that reads its own table must not
                // see the rows it appends.
                let mut child = planner::lower(&self.plan_ctx(), txn, &input)?;
                let chunks = drain(child.as_mut())?;
                Ok(count_result(entry.append(txn, &chunks)?))
            }
            LogicalPlan::Update { entry, input, columns } => {
                // The input emits `[new value per SET column..., row id]`.
                let mut child = planner::lower(&self.plan_ctx(), txn, &input)?;
                let mut updated = 0u64;
                for chunk in drain(child.as_mut())? {
                    let rows = persist::row_ids(chunk.column(chunk.column_count() - 1))?;
                    for (k, &column) in columns.iter().enumerate() {
                        entry.update(txn, &rows, column, chunk.column(k))?;
                    }
                    updated += rows.len() as u64;
                }
                Ok(count_result(updated))
            }
            LogicalPlan::Delete { entry, input } => {
                let mut child = planner::lower(&self.plan_ctx(), txn, &input)?;
                let mut deleted = 0u64;
                for chunk in drain(child.as_mut())? {
                    let rows = persist::row_ids(chunk.column(chunk.column_count() - 1))?;
                    deleted += entry.delete(txn, &rows)? as u64;
                }
                Ok(count_result(deleted))
            }
            LogicalPlan::CopyFrom { entry, path, options } => {
                let opts = CsvReadOptions {
                    header: options.header,
                    delimiter: options.delimiter,
                    null_string: options.null_string.clone(),
                    ..Default::default()
                };
                // Fields parse directly as the table's declared types
                // (no sniff-and-cast); the TableSource drain loop is the
                // same one behind read_csv and Appender::from_source.
                let source = CsvSource::open(&path, opts)?.with_types(entry.column_types())?;
                let projection: Vec<usize> = (0..entry.columns.len()).collect();
                let mut loaded = 0u64;
                for_each_chunk(&source, &projection, |chunk| {
                    loaded += entry.append(txn, std::slice::from_ref(&chunk))?;
                    Ok(())
                })?;
                Ok(count_result(loaded))
            }
            LogicalPlan::CopyTo { input, path, options } => {
                let names = input.output_names();
                let mut child = planner::lower(&self.plan_ctx(), txn, &input)?;
                let header = if options.header { Some(names.as_slice()) } else { None };
                let mut writer = CsvWriter::create(&path, header, options.delimiter)?;
                while let Some(chunk) = child.next_chunk()? {
                    writer.write_chunk(&chunk)?;
                }
                Ok(count_result(writer.finish()?))
            }
            query => {
                let names = query.output_names();
                let types = query.output_types();
                let mut op = planner::lower(&self.plan_ctx(), txn, &query)?;
                let chunks = drain(op.as_mut())?;
                Ok(MaterializedResult::new(names, types, chunks))
            }
        }
    }

    fn run_pragma(&self, name: &str, value: Option<&Value>) -> Result<MaterializedResult> {
        let db = &self.db;
        let reply = |v: Value| {
            let chunk = DataChunk::from_rows(
                &[v.logical_type().unwrap_or(LogicalType::Varchar)],
                &[vec![v]],
            )?;
            Ok(MaterializedResult::new(vec![name.to_string()], chunk.types(), vec![chunk]))
        };
        match name {
            "memory_limit" => match value {
                Some(v) => {
                    let bytes = v.as_i64().ok_or_else(|| {
                        EiderError::Bind("PRAGMA memory_limit takes a byte count".into())
                    })?;
                    // The configured base: host-probe memory feedback
                    // shrinks the effective limit from (and recovers to)
                    // this value.
                    db.set_base_memory_limit(bytes as usize);
                    db.buffers().set_memory_limit(bytes as usize);
                    db.policy().set_memory_limit(bytes as usize);
                    reply(Value::BigInt(bytes))
                }
                None => reply(Value::BigInt(db.buffers().memory_limit() as i64)),
            },
            "host_probe" => match value {
                Some(v) => {
                    let enabled = v.as_i64().unwrap_or(0) != 0;
                    if !db.set_host_probe(enabled) {
                        return Err(EiderError::Bind(
                            "PRAGMA host_probe: /proc is not available on this host".into(),
                        ));
                    }
                    reply(Value::BigInt(i64::from(enabled)))
                }
                None => reply(Value::BigInt(i64::from(db.config().host_probe))),
            },
            "threads" => match value {
                Some(v) => {
                    let n = v.as_i64().unwrap_or(1).max(1) as usize;
                    db.policy().set_threads(n);
                    // The shared fleet divides this new total across
                    // admitted graphs from their next launch round.
                    db.fleet().set_threads(db.policy().worker_threads());
                    reply(Value::BigInt(n as i64))
                }
                None => reply(Value::BigInt(db.policy().threads() as i64)),
            },
            "session_memory_limit" => match value {
                Some(v) => {
                    let bytes = v.as_i64().ok_or_else(|| {
                        EiderError::Bind("PRAGMA session_memory_limit takes a byte count".into())
                    })?;
                    if bytes <= 0 {
                        return Err(EiderError::Bind(
                            "PRAGMA session_memory_limit must be positive".into(),
                        ));
                    }
                    // Pin this session's quota; pinned quotas are exempt
                    // from host-probe rebalancing.
                    self.session.set_quota(bytes as usize);
                    reply(Value::BigInt(bytes))
                }
                // The *effective* quota: the session account's limit
                // capped by the global one.
                None => reply(Value::BigInt(self.session.buffers().memory_limit() as i64)),
            },
            "admission_limit" => match value {
                Some(v) => {
                    let n = v.as_i64().unwrap_or(0);
                    if n <= 0 {
                        return Err(EiderError::Bind(
                            "PRAGMA admission_limit must be positive".into(),
                        ));
                    }
                    db.fleet().set_admission_cap(n as usize);
                    reply(Value::BigInt(n))
                }
                None => reply(Value::BigInt(db.fleet().admission_cap() as i64)),
            },
            "compression" => match value {
                Some(v) => {
                    let level = match v.as_str().unwrap_or("").to_ascii_lowercase().as_str() {
                        "none" => CompressionLevel::None,
                        "light" => CompressionLevel::Light,
                        "heavy" => CompressionLevel::Heavy,
                        other => {
                            return Err(EiderError::Bind(format!(
                                "unknown compression level '{other}' (none/light/heavy)"
                            )))
                        }
                    };
                    db.policy().set_compression(level);
                    reply(Value::Varchar(level.label().into()))
                }
                None => reply(Value::Varchar(db.policy().compression().label().into())),
            },
            "wal_autocheckpoint" => match value {
                Some(v) => {
                    let bytes = v.as_i64().unwrap_or(0).max(0) as u64;
                    db.set_wal_autocheckpoint(bytes);
                    reply(Value::BigInt(bytes as i64))
                }
                None => reply(Value::BigInt(db.config().wal_autocheckpoint as i64)),
            },
            "optimizer" => match value {
                Some(v) => {
                    let enabled = v.as_i64().unwrap_or(1) != 0;
                    self.optimize.store(enabled, Ordering::Relaxed);
                    reply(Value::BigInt(i64::from(enabled)))
                }
                None => reply(Value::BigInt(i64::from(self.optimize.load(Ordering::Relaxed)))),
            },
            "database_size" => {
                reply(Value::BigInt((db.block_count() * eider_storage::BLOCK_SIZE as u64) as i64))
            }
            "wal_size" => reply(Value::BigInt(db.wal_size() as i64)),
            other => Err(EiderError::Bind(format!("unknown PRAGMA \"{other}\""))),
        }
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        // Abandon any open explicit transaction, then let the database
        // prune this session and return its quota share to the survivors.
        if let Some(txn) = self.current_txn.lock().take() {
            if let Ok(txn) = Arc::try_unwrap(txn) {
                let _ = txn.rollback();
            }
        }
        self.db.session_closed(self.session.id());
    }
}

/// Plan shapes the streaming path executes directly: the read-only query
/// subset whose operators pull chunks on demand. Everything else (DDL,
/// DML, transaction control, PRAGMAs, EXPLAIN, …) runs eagerly through
/// the materialized statement path.
fn is_plain_query(plan: &LogicalPlan) -> bool {
    matches!(
        plan,
        LogicalPlan::TableScan { .. }
            | LogicalPlan::ExternalScan { .. }
            | LogicalPlan::Filter { .. }
            | LogicalPlan::Projection { .. }
            | LogicalPlan::Aggregate { .. }
            | LogicalPlan::Sort { .. }
            | LogicalPlan::Limit { .. }
            | LogicalPlan::Distinct { .. }
            | LogicalPlan::Join { .. }
            | LogicalPlan::NestedLoopJoin { .. }
            | LogicalPlan::CrossJoin { .. }
            | LogicalPlan::Union { .. }
            | LogicalPlan::Values { .. }
            | LogicalPlan::SingleRow
    )
}

fn empty_result() -> MaterializedResult {
    MaterializedResult::new(Vec::new(), Vec::new(), Vec::new())
}

fn count_result(n: u64) -> MaterializedResult {
    let chunk = DataChunk::from_rows(&[LogicalType::BigInt], &[vec![Value::BigInt(n as i64)]])
        .expect("count chunk");
    MaterializedResult::new(vec!["Count".into()], vec![LogicalType::BigInt], vec![chunk])
}
