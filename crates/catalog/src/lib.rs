//! The catalog: named schemas, tables and views (§6).
//!
//! §6: "The catalog contains pointers to lists of schemas, tables and
//! views." eider keeps a single implicit schema (`main`); multiple schemas
//! are parsed but all resolve here (see DESIGN.md non-goals). Names are
//! case-insensitive, as in SQL.
//!
//! Table *data* lives in [`eider_txn::DataTable`]; catalog entries bind a
//! name and column definitions (names, types, NOT NULL constraints,
//! defaults) to that versioned storage.
//!
//! Every row write goes through [`TableEntry::append`], `update` or
//! `delete`: cast, NOT NULL check, then — under one database-wide write
//! lock, so the position a log record names is the position its rows take
//! — logged through the catalog's [`WriteLog`], if one is attached, and
//! applied.

use eider_txn::{DataTable, RowId, Transaction};
use eider_vector::{DataChunk, EiderError, LogicalType, Result, Value, Vector};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// One row write as the write path hands it to a [`WriteLog`]: borrowed
/// when logged, owned when a log reads it back. Rows are addressed by
/// physical position, so a replay must find each table holding exactly
/// the rows it held when the write was logged.
#[derive(Debug)]
pub enum RowWrite<'a> {
    /// `chunk`, in table layout, lands at linear physical row `first_row`.
    Append {
        first_row: u64,
        chunk: Cow<'a, DataChunk>,
    },
    /// `column` of `rows` takes `values`, of the column's type.
    Update {
        column: usize,
        rows: Cow<'a, [RowId]>,
        values: Cow<'a, Vector>,
    },
    Delete {
        rows: Cow<'a, [RowId]>,
    },
}

/// Where the write path records each row write, before applying it. A
/// persistent database attaches its write-ahead log after recovery
/// ([`Catalog::attach_log`]); with none attached — in-memory databases,
/// WAL replay, checkpoint load — writes build no record.
pub trait WriteLog: Send + Sync + std::fmt::Debug {
    fn log(&self, txn_id: u64, table: &str, write: RowWrite<'_>) -> Result<()>;
}

/// The write lock and log every entry of one catalog shares.
#[derive(Debug, Default)]
struct WritePath {
    lock: Mutex<()>,
    log: OnceLock<Arc<dyn WriteLog>>,
}

/// One column of a table definition.
#[derive(Debug, Clone)]
pub struct ColumnDefinition {
    pub name: String,
    pub ty: LogicalType,
    pub not_null: bool,
    /// Value used by INSERTs that omit the column (NULL when absent).
    pub default: Option<Value>,
}

impl ColumnDefinition {
    pub fn new(name: impl Into<String>, ty: LogicalType) -> Self {
        ColumnDefinition { name: name.into(), ty, not_null: false, default: None }
    }

    pub fn not_null(mut self) -> Self {
        self.not_null = true;
        self
    }
}

/// A named table bound to versioned storage.
#[derive(Debug)]
pub struct TableEntry {
    pub name: String,
    pub columns: Vec<ColumnDefinition>,
    pub data: Arc<DataTable>,
    writes: Arc<WritePath>,
}

impl TableEntry {
    /// Case-insensitive column lookup.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn column_types(&self) -> Vec<LogicalType> {
        self.columns.iter().map(|c| c.ty).collect()
    }

    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Current table statistics for the cost-based optimizer, derived
    /// on demand from storage metadata (see [`eider_txn::TableStats`]).
    pub fn stats(&self) -> std::sync::Arc<eider_txn::TableStats> {
        self.data.table_stats()
    }

    /// Append `chunks` under `txn`, in order. Every chunk is cast to the
    /// table's column types and checked against NOT NULL before any row
    /// lands, so a failing statement appends nothing. Returns the rows
    /// appended.
    pub fn append(&self, txn: &Transaction, chunks: &[DataChunk]) -> Result<u64> {
        let types = self.column_types();
        let mut cast = Vec::with_capacity(chunks.len());
        for chunk in chunks.iter().filter(|c| !c.is_empty()) {
            if chunk.column_count() != types.len() {
                return Err(EiderError::Bind(format!(
                    "{} values given, table \"{}\" has {} columns",
                    chunk.column_count(),
                    self.name,
                    types.len()
                )));
            }
            let chunk = if chunk.types() == types {
                Cow::Borrowed(chunk)
            } else {
                let columns = chunk.columns().iter().zip(&types).map(|(c, &ty)| c.cast(ty));
                Cow::Owned(DataChunk::from_vectors(columns.collect::<Result<_>>()?)?)
            };
            for (column, values) in chunk.columns().iter().enumerate() {
                self.check_not_null(column, values)?;
            }
            cast.push(chunk);
        }
        let _lock = self.writes.lock.lock();
        let mut appended = 0u64;
        for chunk in &cast {
            if let Some(log) = self.writes.log.get() {
                let first_row = self.data.physical_rows() as u64;
                let chunk = Cow::Borrowed(chunk.as_ref());
                log.log(txn.id(), &self.name, RowWrite::Append { first_row, chunk })?;
            }
            self.data.append_chunk(txn, chunk)?;
            appended += chunk.len() as u64;
        }
        Ok(appended)
    }

    /// Set `column` of `rows` to `values` (cast to the column's type)
    /// under `txn`. Returns the rows updated.
    pub fn update(
        &self,
        txn: &Transaction,
        rows: &[RowId],
        column: usize,
        values: &Vector,
    ) -> Result<usize> {
        let ty = self.columns[column].ty;
        let values = if values.logical_type() == ty {
            Cow::Borrowed(values)
        } else {
            Cow::Owned(values.cast(ty)?)
        };
        self.check_not_null(column, &values)?;
        let _lock = self.writes.lock.lock();
        if let Some(log) = self.writes.log.get() {
            let (rows, values) = (Cow::Borrowed(rows), Cow::Borrowed(values.as_ref()));
            log.log(txn.id(), &self.name, RowWrite::Update { column, rows, values })?;
        }
        self.data.update_rows(txn, rows, column, &values)
    }

    /// Delete `rows` under `txn`. Returns the rows deleted.
    pub fn delete(&self, txn: &Transaction, rows: &[RowId]) -> Result<usize> {
        let _lock = self.writes.lock.lock();
        if let Some(log) = self.writes.log.get() {
            log.log(txn.id(), &self.name, RowWrite::Delete { rows: Cow::Borrowed(rows) })?;
        }
        self.data.delete_rows(txn, rows)
    }

    fn check_not_null(&self, column: usize, values: &Vector) -> Result<()> {
        let def = &self.columns[column];
        if def.not_null && !values.validity().all_valid() {
            return Err(EiderError::Constraint(format!(
                "NOT NULL constraint violated: column \"{}\" of table \"{}\"",
                def.name, self.name
            )));
        }
        Ok(())
    }
}

/// A named view: a stored SQL query expanded at bind time.
#[derive(Debug, Clone)]
pub struct ViewEntry {
    pub name: String,
    pub sql: String,
}

/// The catalog. Thread-safe; DDL takes write locks, lookups read locks.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<TableEntry>>>,
    views: RwLock<HashMap<String, Arc<ViewEntry>>>,
    writes: Arc<WritePath>,
}

fn key(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Catalog {
    pub fn new() -> Arc<Self> {
        Arc::new(Catalog::default())
    }

    /// Record every later row write through `log`. Attached once, after
    /// recovery has rebuilt the tables; a second attach is refused.
    pub fn attach_log(&self, log: Arc<dyn WriteLog>) -> Result<()> {
        self.writes
            .log
            .set(log)
            .map_err(|_| EiderError::Internal("catalog already has a write log".into()))
    }

    /// Hold off every row write until the guard drops.
    pub fn lock_writes(&self) -> MutexGuard<'_, ()> {
        self.writes.lock.lock()
    }

    /// Create a table. Validates that column names are unique and
    /// non-empty.
    pub fn create_table(
        &self,
        name: &str,
        columns: Vec<ColumnDefinition>,
        if_not_exists: bool,
    ) -> Result<Arc<TableEntry>> {
        if columns.is_empty() {
            return Err(EiderError::Catalog(format!("table {name} must have at least one column")));
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if c.name.is_empty() {
                return Err(EiderError::Catalog("empty column name".into()));
            }
            if !seen.insert(c.name.to_ascii_lowercase()) {
                return Err(EiderError::Catalog(format!(
                    "duplicate column name \"{}\" in table {name}",
                    c.name
                )));
            }
        }
        let mut tables = self.tables.write();
        if let Some(existing) = tables.get(&key(name)) {
            if if_not_exists {
                return Ok(Arc::clone(existing));
            }
            return Err(EiderError::Catalog(format!("table \"{name}\" already exists")));
        }
        if self.views.read().contains_key(&key(name)) {
            return Err(EiderError::Catalog(format!("a view named \"{name}\" already exists")));
        }
        let types = columns.iter().map(|c| c.ty).collect();
        let entry = Arc::new(TableEntry {
            name: name.to_string(),
            columns,
            data: DataTable::new(types),
            writes: Arc::clone(&self.writes),
        });
        tables.insert(key(name), Arc::clone(&entry));
        Ok(entry)
    }

    pub fn drop_table(&self, name: &str, if_exists: bool) -> Result<()> {
        let mut tables = self.tables.write();
        match tables.remove(&key(name)) {
            Some(_) => Ok(()),
            None if if_exists => Ok(()),
            None => Err(EiderError::Catalog(format!("table \"{name}\" does not exist"))),
        }
    }

    pub fn get_table(&self, name: &str) -> Result<Arc<TableEntry>> {
        self.tables
            .read()
            .get(&key(name))
            .cloned()
            .ok_or_else(|| EiderError::Catalog(format!("table \"{name}\" does not exist")))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&key(name))
    }

    pub fn create_view(&self, name: &str, sql: &str, or_replace: bool) -> Result<()> {
        if self.tables.read().contains_key(&key(name)) {
            return Err(EiderError::Catalog(format!("a table named \"{name}\" already exists")));
        }
        let mut views = self.views.write();
        if views.contains_key(&key(name)) && !or_replace {
            return Err(EiderError::Catalog(format!("view \"{name}\" already exists")));
        }
        views.insert(
            key(name),
            Arc::new(ViewEntry { name: name.to_string(), sql: sql.to_string() }),
        );
        Ok(())
    }

    pub fn drop_view(&self, name: &str, if_exists: bool) -> Result<()> {
        let mut views = self.views.write();
        match views.remove(&key(name)) {
            Some(_) => Ok(()),
            None if if_exists => Ok(()),
            None => Err(EiderError::Catalog(format!("view \"{name}\" does not exist"))),
        }
    }

    pub fn get_view(&self, name: &str) -> Option<Arc<ViewEntry>> {
        self.views.read().get(&key(name)).cloned()
    }

    /// Sorted table names (stable output for `SHOW TABLES` and tests).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().values().map(|t| t.name.clone()).collect();
        names.sort();
        names
    }

    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.read().values().map(|v| v.name.clone()).collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> Vec<ColumnDefinition> {
        vec![
            ColumnDefinition::new("id", LogicalType::Integer).not_null(),
            ColumnDefinition::new("name", LogicalType::Varchar),
        ]
    }

    #[test]
    fn create_and_lookup_case_insensitive() {
        let cat = Catalog::new();
        cat.create_table("Orders", cols(), false).unwrap();
        let t = cat.get_table("ORDERS").unwrap();
        assert_eq!(t.name, "Orders");
        assert_eq!(t.column_index("ID"), Some(0));
        assert_eq!(t.column_index("missing"), None);
        assert_eq!(t.column_types(), vec![LogicalType::Integer, LogicalType::Varchar]);
    }

    #[test]
    fn duplicate_table_rejected_unless_if_not_exists() {
        let cat = Catalog::new();
        cat.create_table("t", cols(), false).unwrap();
        assert!(cat.create_table("T", cols(), false).is_err());
        let again = cat.create_table("t", cols(), true).unwrap();
        assert_eq!(again.name, "t");
    }

    #[test]
    fn duplicate_column_rejected() {
        let cat = Catalog::new();
        let bad = vec![
            ColumnDefinition::new("x", LogicalType::Integer),
            ColumnDefinition::new("X", LogicalType::Integer),
        ];
        assert!(cat.create_table("t", bad, false).is_err());
    }

    #[test]
    fn drop_table_semantics() {
        let cat = Catalog::new();
        cat.create_table("t", cols(), false).unwrap();
        cat.drop_table("T", false).unwrap();
        assert!(!cat.has_table("t"));
        assert!(cat.drop_table("t", false).is_err());
        cat.drop_table("t", true).unwrap();
    }

    #[test]
    fn views() {
        let cat = Catalog::new();
        cat.create_view("v", "SELECT 1", false).unwrap();
        assert!(cat.create_view("v", "SELECT 2", false).is_err());
        cat.create_view("v", "SELECT 2", true).unwrap();
        assert_eq!(cat.get_view("V").unwrap().sql, "SELECT 2");
        cat.drop_view("v", false).unwrap();
        assert!(cat.get_view("v").is_none());
    }

    #[test]
    fn name_collisions_between_tables_and_views() {
        let cat = Catalog::new();
        cat.create_table("t", cols(), false).unwrap();
        assert!(cat.create_view("t", "SELECT 1", false).is_err());
        cat.create_view("v", "SELECT 1", false).unwrap();
        assert!(cat.create_table("v", cols(), false).is_err());
    }

    #[test]
    fn sorted_listings() {
        let cat = Catalog::new();
        cat.create_table("zeta", cols(), false).unwrap();
        cat.create_table("alpha", cols(), false).unwrap();
        assert_eq!(cat.table_names(), vec!["alpha", "zeta"]);
    }

    fn loaded(
        rows: impl Fn(i32) -> Value,
    ) -> (Arc<eider_txn::TransactionManager>, Arc<TableEntry>) {
        let entry = Catalog::new()
            .create_table(
                "t",
                vec![
                    ColumnDefinition::new("id", LogicalType::Integer).not_null(),
                    ColumnDefinition::new("d", LogicalType::Integer),
                ],
                false,
            )
            .unwrap();
        let mgr = eider_txn::TransactionManager::new();
        let rows: Vec<Vec<Value>> = (0..1000).map(|i| vec![Value::Integer(i), rows(i)]).collect();
        let txn = mgr.begin();
        let chunk = DataChunk::from_rows(&entry.column_types(), &rows).unwrap();
        assert_eq!(entry.append(&txn, &[chunk]).unwrap(), 1000);
        txn.commit().unwrap();
        (mgr, entry)
    }

    /// Row ids of the rows matching `column op value`, as UPDATE and
    /// DELETE plans produce them.
    fn matching(
        entry: &TableEntry,
        txn: &Transaction,
        filter: eider_txn::TableFilter,
    ) -> Vec<RowId> {
        let opts =
            eider_txn::ScanOptions { columns: vec![], filters: vec![filter], emit_row_ids: true };
        let chunks = entry.data.scan_collect(txn, &opts).unwrap();
        chunks
            .iter()
            .flat_map(|c| c.to_rows())
            .map(|r| RowId::decode(r[0].as_i64().unwrap()))
            .collect()
    }

    #[test]
    fn the_papers_wrangling_update() {
        // UPDATE t SET d = NULL WHERE d = -999 (§2): row ids of the
        // sentinel rows plus one new value per row for column d only.
        use eider_txn::{CmpOp, TableFilter};
        let sentinel = |i: i32| if i % 4 == 0 { Value::Integer(-999) } else { Value::Integer(i) };
        let (mgr, entry) = loaded(sentinel);
        let txn = mgr.begin();
        let rows = matching(&entry, &txn, TableFilter::new(1, CmpOp::Eq, Value::Integer(-999)));
        // A BIGINT NULL, cast to the column's INTEGER on the way in.
        let nulls = Vector::constant(LogicalType::BigInt, &Value::Null, rows.len()).unwrap();
        assert_eq!(entry.update(&txn, &rows, 1, &nulls).unwrap(), 250);
        let left = matching(&entry, &txn, TableFilter::new(1, CmpOp::Eq, Value::Integer(-999)));
        assert!(left.is_empty());
        assert_eq!(entry.data.count_visible(&txn), 1000);
    }

    #[test]
    fn delete_via_row_ids() {
        use eider_txn::{CmpOp, TableFilter};
        let (mgr, entry) = loaded(Value::Integer);
        let txn = mgr.begin();
        let rows = matching(&entry, &txn, TableFilter::new(0, CmpOp::Lt, Value::Integer(10)));
        assert_eq!(entry.delete(&txn, &rows).unwrap(), 10);
        assert_eq!(entry.data.count_visible(&txn), 990);
    }

    #[test]
    fn not_null_and_casts_are_checked_before_any_row_lands() {
        let (mgr, entry) = loaded(Value::Integer);
        let txn = mgr.begin();
        let types = [LogicalType::BigInt, LogicalType::BigInt];
        let good = DataChunk::from_rows(&types, &[vec![Value::BigInt(1), Value::Null]]).unwrap();
        let bad = DataChunk::from_rows(&types, &[vec![Value::Null, Value::BigInt(2)]]).unwrap();
        let err = entry.append(&txn, &[good.clone(), bad]).unwrap_err();
        assert!(matches!(err, EiderError::Constraint(_)), "{err}");
        assert_eq!(entry.data.physical_rows(), 1000);
        let too_wide = DataChunk::from_rows(
            &[LogicalType::BigInt; 3],
            &[vec![Value::BigInt(1), Value::BigInt(1), Value::BigInt(1)]],
        )
        .unwrap();
        assert!(entry.append(&txn, &[too_wide]).is_err());
        let rows = [RowId { group: 0, row: 0 }];
        let null = Vector::constant(LogicalType::Integer, &Value::Null, 1).unwrap();
        assert!(matches!(entry.update(&txn, &rows, 0, &null), Err(EiderError::Constraint(_))));
        // The BIGINT chunk lands cast to the table's INTEGER columns.
        assert_eq!(entry.append(&txn, &[good]).unwrap(), 1);
        assert_eq!(entry.data.physical_rows(), 1001);
    }

    /// Records what the write path logs, as `(kind, first position, rows)`.
    #[derive(Debug, Default)]
    struct Recorder(Mutex<Vec<(&'static str, u64, usize)>>);

    impl WriteLog for Recorder {
        fn log(&self, _: u64, _: &str, write: RowWrite<'_>) -> Result<()> {
            let entry = match write {
                RowWrite::Append { first_row, chunk } => {
                    assert_eq!(chunk.types(), [LogicalType::Integer, LogicalType::Integer]);
                    ("append", first_row, chunk.len())
                }
                RowWrite::Update { rows, values, .. } => {
                    assert_eq!(values.logical_type(), LogicalType::Integer);
                    ("update", rows[0].row as u64, rows.len())
                }
                RowWrite::Delete { rows } => ("delete", rows[0].row as u64, rows.len()),
            };
            self.0.lock().push(entry);
            Ok(())
        }
    }

    #[test]
    fn the_log_sees_each_write_at_the_position_it_takes() {
        let cat = Catalog::new();
        let entry = cat.create_table("t", cols_int(), false).unwrap();
        let log = Arc::new(Recorder::default());
        cat.attach_log(Arc::clone(&log) as Arc<dyn WriteLog>).unwrap();
        assert!(cat.attach_log(Arc::clone(&log) as Arc<dyn WriteLog>).is_err());
        let mgr = eider_txn::TransactionManager::new();
        let txn = mgr.begin();
        let chunk = |n: i64| {
            let rows: Vec<Vec<Value>> =
                (0..n).map(|i| vec![Value::BigInt(i), Value::BigInt(i)]).collect();
            DataChunk::from_rows(&[LogicalType::BigInt, LogicalType::BigInt], &rows).unwrap()
        };
        entry.append(&txn, &[chunk(3), chunk(0), chunk(2)]).unwrap();
        entry.delete(&txn, &[RowId { group: 0, row: 1 }]).unwrap();
        let v = Vector::constant(LogicalType::BigInt, &Value::BigInt(7), 1).unwrap();
        entry.update(&txn, &[RowId { group: 0, row: 4 }], 1, &v).unwrap();
        entry.append(&txn, &[chunk(1)]).unwrap();
        assert_eq!(
            *log.0.lock(),
            [
                ("append", 0, 3),
                ("append", 3, 2),
                ("delete", 1, 1),
                ("update", 4, 1),
                ("append", 5, 1)
            ]
        );
    }

    fn cols_int() -> Vec<ColumnDefinition> {
        vec![
            ColumnDefinition::new("a", LogicalType::Integer),
            ColumnDefinition::new("b", LogicalType::Integer),
        ]
    }
}
