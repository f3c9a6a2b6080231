//! Persistence: logical WAL records, checkpoint image, recovery.
//!
//! §6's protocol, implemented end to end:
//!
//! * every data-changing statement appends logical records to the WAL
//!   (separate file, checksummed by the storage layer); a transaction
//!   becomes durable when its COMMIT record is fsynced. `Wal` is the
//!   catalog's [`WriteLog`], attached after recovery, so every row write
//!   — the `Appender`'s included — is logged before it applies;
//! * row records address rows by *physical* position (`group *
//!   ROW_GROUP_SIZE + row`), so replay must find every table at exactly
//!   the rows it held when the record was written. The live table keeps
//!   deleted rows and rows of aborted transactions, and so does the
//!   checkpoint image: it stores them as dead runs, which
//!   [`load_checkpoint`] recreates as deleted rows;
//! * CHECKPOINT serializes catalog + all committed table data into a fresh
//!   meta-block chain inside the single database file, atomically switches
//!   the header's root pointer, frees the previous chain's blocks and
//!   truncates the WAL. It holds the write lock throughout and refuses to
//!   run while another transaction holds uncommitted writes, whose records
//!   the truncation would drop;
//! * recovery loads the last checkpoint image, then replays the WAL:
//!   appends replay for *all* transactions (aborted ones as dead rows, so
//!   physical row ids stay faithful), updates/deletes only for committed
//!   transactions.

use eider_catalog::{Catalog, ColumnDefinition, RowWrite, WriteLog};
use eider_storage::file_manager::BlockManager;
use eider_storage::meta::{MetaBlockReader, MetaBlockWriter};
use eider_storage::serde::{
    read_chunk, read_value, read_vector, tag_to_type, type_to_tag, write_chunk, write_value,
    write_vector, BinReader, BinWriter,
};
use eider_storage::wal::WriteAheadLog;
use eider_txn::{DataTable, RowId, ScanOptions, Transaction, TransactionManager, ROW_GROUP_SIZE};
use eider_vector::{DataChunk, EiderError, Result, Value, Vector, VectorData};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::sync::Arc;

fn linear(row: RowId) -> u64 {
    row.group as u64 * ROW_GROUP_SIZE as u64 + row.row as u64
}

fn from_linear(idx: u64) -> RowId {
    RowId { group: (idx / ROW_GROUP_SIZE as u64) as u32, row: (idx % ROW_GROUP_SIZE as u64) as u32 }
}

fn write_rows(w: &mut BinWriter, rows: &[RowId]) {
    w.write_u64(rows.len() as u64);
    for &r in rows {
        w.write_u64(linear(r));
    }
}

fn read_rows(r: &mut BinReader) -> Result<Vec<RowId>> {
    let n = r.read_u64()? as usize;
    let mut rows = Vec::with_capacity(n.min(ROW_GROUP_SIZE));
    for _ in 0..n {
        rows.push(from_linear(r.read_u64()?));
    }
    Ok(rows)
}

/// Logical WAL record kinds. Row payloads are borrowed when a record is
/// written (the write path logs the chunk it is about to apply) and owned
/// when one is decoded.
#[derive(Debug)]
pub enum WalRecord<'a> {
    CreateTable {
        name: String,
        columns: Vec<ColumnDefinition>,
    },
    DropTable {
        name: String,
    },
    CreateView {
        name: String,
        sql: String,
    },
    DropView {
        name: String,
    },
    /// A row write of transaction `txn_id`. Updates are column-wise:
    /// unchanged columns never hit the log (§2).
    Row {
        txn_id: u64,
        table: Cow<'a, str>,
        write: RowWrite<'a>,
    },
    Commit {
        txn_id: u64,
    },
}

const TAG_CREATE_TABLE: u8 = 1;
const TAG_DROP_TABLE: u8 = 2;
const TAG_CREATE_VIEW: u8 = 3;
const TAG_DROP_VIEW: u8 = 4;
const TAG_APPEND: u8 = 5;
const TAG_UPDATE: u8 = 6;
const TAG_DELETE: u8 = 7;
const TAG_COMMIT: u8 = 8;

fn write_column_defs(w: &mut BinWriter, columns: &[ColumnDefinition]) {
    w.write_u32(columns.len() as u32);
    for c in columns {
        w.write_str(&c.name);
        w.write_u8(type_to_tag(c.ty));
        w.write_bool(c.not_null);
        match &c.default {
            Some(v) => {
                w.write_bool(true);
                write_value(w, v);
            }
            None => w.write_bool(false),
        }
    }
}

fn read_column_defs(r: &mut BinReader) -> Result<Vec<ColumnDefinition>> {
    let n = r.read_u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.read_str()?;
        let ty = tag_to_type(r.read_u8()?)?;
        let not_null = r.read_bool()?;
        let default = if r.read_bool()? { Some(read_value(r)?) } else { None };
        let mut def = ColumnDefinition::new(name, ty);
        def.not_null = not_null;
        def.default = default;
        out.push(def);
    }
    Ok(out)
}

impl WalRecord<'_> {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = BinWriter::new();
        match self {
            WalRecord::CreateTable { name, columns } => {
                w.write_u8(TAG_CREATE_TABLE);
                w.write_str(name);
                write_column_defs(&mut w, columns);
            }
            WalRecord::DropTable { name } => {
                w.write_u8(TAG_DROP_TABLE);
                w.write_str(name);
            }
            WalRecord::CreateView { name, sql } => {
                w.write_u8(TAG_CREATE_VIEW);
                w.write_str(name);
                w.write_str(sql);
            }
            WalRecord::DropView { name } => {
                w.write_u8(TAG_DROP_VIEW);
                w.write_str(name);
            }
            WalRecord::Row { txn_id, table, write } => {
                w.write_u8(match write {
                    RowWrite::Append { .. } => TAG_APPEND,
                    RowWrite::Update { .. } => TAG_UPDATE,
                    RowWrite::Delete { .. } => TAG_DELETE,
                });
                w.write_u64(*txn_id);
                w.write_str(table);
                match write {
                    RowWrite::Append { first_row, chunk } => {
                        w.write_u64(*first_row);
                        write_chunk(&mut w, chunk);
                    }
                    RowWrite::Update { column, rows, values } => {
                        w.write_u32(*column as u32);
                        write_rows(&mut w, rows);
                        write_vector(&mut w, values);
                    }
                    RowWrite::Delete { rows } => write_rows(&mut w, rows),
                }
            }
            WalRecord::Commit { txn_id } => {
                w.write_u8(TAG_COMMIT);
                w.write_u64(*txn_id);
            }
        }
        w.into_bytes()
    }

    pub fn decode(bytes: &[u8]) -> Result<WalRecord<'static>> {
        let mut r = BinReader::new(bytes);
        let tag = r.read_u8()?;
        Ok(match tag {
            TAG_CREATE_TABLE => {
                WalRecord::CreateTable { name: r.read_str()?, columns: read_column_defs(&mut r)? }
            }
            TAG_DROP_TABLE => WalRecord::DropTable { name: r.read_str()? },
            TAG_CREATE_VIEW => WalRecord::CreateView { name: r.read_str()?, sql: r.read_str()? },
            TAG_DROP_VIEW => WalRecord::DropView { name: r.read_str()? },
            TAG_APPEND | TAG_UPDATE | TAG_DELETE => {
                let (txn_id, table) = (r.read_u64()?, r.read_str()?.into());
                let write = match tag {
                    TAG_APPEND => RowWrite::Append {
                        first_row: r.read_u64()?,
                        chunk: Cow::Owned(read_chunk(&mut r)?),
                    },
                    TAG_UPDATE => RowWrite::Update {
                        column: r.read_u32()? as usize,
                        rows: read_rows(&mut r)?.into(),
                        values: Cow::Owned(read_vector(&mut r)?),
                    },
                    _ => RowWrite::Delete { rows: read_rows(&mut r)?.into() },
                };
                WalRecord::Row { txn_id, table, write }
            }
            TAG_COMMIT => WalRecord::Commit { txn_id: r.read_u64()? },
            other => return Err(EiderError::Corruption(format!("unknown WAL record tag {other}"))),
        })
    }
}

/// The write-ahead log of a persistent database: DDL and commit records
/// from the database, row records from the catalog's write path.
#[derive(Debug)]
pub(crate) struct Wal(pub(crate) Mutex<WriteAheadLog>);

impl Wal {
    /// Append `record`, then fsync: everything logged so far is durable.
    pub(crate) fn log_synced(&self, record: &WalRecord<'_>) -> Result<()> {
        let mut wal = self.0.lock();
        wal.append(&record.encode())?;
        wal.sync()
    }
}

impl WriteLog for Wal {
    fn log(&self, txn_id: u64, table: &str, write: RowWrite<'_>) -> Result<()> {
        let record = WalRecord::Row { txn_id, table: Cow::Borrowed(table), write };
        self.0.lock().append(&record.encode())
    }
}

/// Replay decoded WAL records onto the catalog. Returns how many committed
/// transactions were applied.
pub fn replay_wal(
    records: &[Vec<u8>],
    catalog: &Arc<Catalog>,
    txn_mgr: &Arc<TransactionManager>,
) -> Result<usize> {
    // Pass 1: which transactions committed?
    let mut committed = std::collections::HashSet::new();
    let mut decoded = Vec::with_capacity(records.len());
    for bytes in records {
        let rec = WalRecord::decode(bytes)?;
        if let WalRecord::Commit { txn_id } = &rec {
            committed.insert(*txn_id);
        }
        decoded.push(rec);
    }
    // Pass 2: apply in order through one replay transaction.
    let txn = txn_mgr.begin();
    for rec in decoded {
        match rec {
            WalRecord::CreateTable { name, columns } => {
                catalog.create_table(&name, columns, true)?;
            }
            WalRecord::DropTable { name } => catalog.drop_table(&name, true)?,
            WalRecord::CreateView { name, sql } => catalog.create_view(&name, &sql, true)?,
            WalRecord::DropView { name } => catalog.drop_view(&name, true)?,
            WalRecord::Row { txn_id, table, write } => {
                let committed = committed.contains(&txn_id);
                match write {
                    RowWrite::Append { first_row, chunk } => {
                        let entry = catalog.get_table(&table)?;
                        let at = entry.data.physical_rows() as u64;
                        if at != first_row {
                            return Err(EiderError::Corruption(format!(
                                "WAL append for {table} expected physical row {first_row}, \
                                 table is at {at}"
                            )));
                        }
                        entry.data.append_chunk(&txn, &chunk)?;
                        if !committed {
                            // Aborted transaction: the rows must exist
                            // physically (later records address physical
                            // positions) but never become visible.
                            let end = first_row + chunk.len() as u64;
                            let rows: Vec<RowId> = (first_row..end).map(from_linear).collect();
                            entry.data.delete_rows(&txn, &rows)?;
                        }
                    }
                    RowWrite::Update { column, rows, values } if committed => {
                        catalog
                            .get_table(&table)?
                            .data
                            .update_rows(&txn, &rows, column, &values)?;
                    }
                    RowWrite::Delete { rows } if committed => {
                        catalog.get_table(&table)?.data.delete_rows(&txn, &rows)?;
                    }
                    RowWrite::Update { .. } | RowWrite::Delete { .. } => {}
                }
            }
            WalRecord::Commit { .. } => {}
        }
    }
    txn.commit()?;
    Ok(committed.len())
}

/// Serialize the full database image (catalog + committed data) through
/// `txn`'s snapshot into a meta-block chain. Returns the chain root and
/// the blocks it occupies.
pub fn write_checkpoint(
    catalog: &Arc<Catalog>,
    txn: &Transaction,
    mgr: &dyn BlockManager,
) -> Result<(u64, Vec<u64>)> {
    let mut w = MetaBlockWriter::new();
    let tables = catalog.table_names();
    w.writer.write_u32(tables.len() as u32);
    for name in &tables {
        let entry = catalog.get_table(name)?;
        w.writer.write_str(&entry.name);
        write_column_defs(&mut w.writer, &entry.columns);
        write_rows_at_positions(&mut w.writer, &entry.data, txn)?;
    }
    let views = catalog.view_names();
    w.writer.write_u32(views.len() as u32);
    for name in &views {
        let view = catalog.get_view(name).ok_or_else(|| {
            EiderError::Internal(format!("view {name} vanished during checkpoint"))
        })?;
        w.writer.write_str(&view.name);
        w.writer.write_str(&view.sql);
    }
    w.finish(mgr)
}

/// Checkpoint segment tags: a chunk of visible rows, a run of dead
/// positions, the end of a table.
const SEG_ROWS: u8 = 0;
const SEG_DEAD: u8 = 1;
const SEG_END: u8 = 2;

/// Write `table`'s rows as `txn` sees them, in physical order, with every
/// position `txn` does not see — deleted rows, rows of aborted
/// transactions — kept as a dead run, so the loaded table has each row at
/// the position the WAL addresses it by.
fn write_rows_at_positions(w: &mut BinWriter, table: &DataTable, txn: &Transaction) -> Result<()> {
    fn dead(w: &mut BinWriter, count: u64) {
        if count > 0 {
            w.write_u8(SEG_DEAD);
            w.write_u64(count);
        }
    }
    let columns = (0..table.column_count()).collect();
    let opts = ScanOptions { columns, filters: Vec::new(), emit_row_ids: true };
    let mut next = 0u64;
    for chunk in table.scan_collect(txn, &opts)? {
        let mut columns = chunk.into_columns();
        let ids = row_ids(&columns.pop().expect("the scan emits a row id column"))?;
        let chunk = DataChunk::from_vectors(columns)?;
        // One segment per run of consecutive positions. Positions only
        // grow, so a tail that spans exactly its length has no gap.
        let mut start = 0;
        while start < ids.len() {
            let first = linear(ids[start]);
            let end = if linear(ids[ids.len() - 1]) - first == (ids.len() - 1 - start) as u64 {
                ids.len()
            } else {
                let run =
                    ids[start..].iter().zip(first..).take_while(|&(&id, at)| linear(id) == at);
                start + run.count()
            };
            dead(w, first - next);
            w.write_u8(SEG_ROWS);
            if end - start == chunk.len() {
                write_chunk(w, &chunk);
            } else {
                write_chunk(w, &chunk.slice(start, end - start));
            }
            next = first + (end - start) as u64;
            start = end;
        }
    }
    dead(w, table.physical_rows() as u64 - next);
    w.write_u8(SEG_END);
    Ok(())
}

/// Read what [`write_rows_at_positions`] wrote into `table`, recreating
/// dead runs as rows `txn` deletes.
fn read_rows_at_positions(
    r: &mut BinReader,
    table: &Arc<DataTable>,
    txn: &Transaction,
) -> Result<()> {
    let mut dead = Vec::new();
    loop {
        match r.read_u8()? {
            SEG_ROWS => table.append_chunk(txn, &read_chunk(r)?)?,
            SEG_DEAD => {
                let first = table.physical_rows() as u64;
                let mut left = r.read_u64()?;
                while left > 0 {
                    let n = left.min(ROW_GROUP_SIZE as u64) as usize;
                    let nulls =
                        table.types().iter().map(|&ty| Vector::constant(ty, &Value::Null, n));
                    table.append_chunk(
                        txn,
                        &DataChunk::from_vectors(nulls.collect::<Result<_>>()?)?,
                    )?;
                    left -= n as u64;
                }
                dead.extend((first..table.physical_rows() as u64).map(from_linear));
            }
            SEG_END => break,
            other => {
                return Err(EiderError::Corruption(format!(
                    "unknown checkpoint segment tag {other}"
                )))
            }
        }
    }
    table.delete_rows(txn, &dead)?;
    Ok(())
}

/// Load a checkpoint image into a fresh catalog. Returns the blocks the
/// chain occupies (so the caller can mark the rest free).
pub fn load_checkpoint(
    root: u64,
    mgr: &dyn BlockManager,
    catalog: &Arc<Catalog>,
    txn_mgr: &Arc<TransactionManager>,
) -> Result<Vec<u64>> {
    let reader = MetaBlockReader::read_chain(mgr, root)?;
    let blocks = reader.blocks.clone();
    let mut r = reader.reader();
    let txn = txn_mgr.begin();
    let tables = r.read_u32()? as usize;
    for _ in 0..tables {
        let name = r.read_str()?;
        let columns = read_column_defs(&mut r)?;
        let entry = catalog.create_table(&name, columns, false)?;
        txn_mgr.register_table(&entry.data);
        read_rows_at_positions(&mut r, &entry.data, &txn)?;
    }
    let views = r.read_u32()? as usize;
    for _ in 0..views {
        let name = r.read_str()?;
        let sql = r.read_str()?;
        catalog.create_view(&name, &sql, false)?;
    }
    txn.commit()?;
    Ok(blocks)
}

/// Decode a scan's row-id column (BIGINT-packed [`RowId`]s).
pub(crate) fn row_ids(column: &Vector) -> Result<Vec<RowId>> {
    match column.data() {
        VectorData::I64(ids) => Ok(ids.iter().map(|&v| RowId::decode(v)).collect()),
        _ => Err(EiderError::Internal("row id column is not BIGINT".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eider_vector::LogicalType;

    fn row_of(txn_id: u64, write: RowWrite<'static>) -> WalRecord<'static> {
        WalRecord::Row { txn_id, table: "t".into(), write }
    }

    #[test]
    fn records_round_trip() {
        let row = |write| row_of(9, write);
        let chunk = DataChunk::from_rows(
            &[LogicalType::Integer],
            &[vec![Value::Integer(1)], vec![Value::Integer(2)]],
        )
        .unwrap();
        let values =
            Vector::from_values(LogicalType::Integer, &[Value::Null, Value::Integer(5)]).unwrap();
        let records = vec![
            WalRecord::CreateTable {
                name: "t".into(),
                columns: vec![ColumnDefinition::new("a", LogicalType::Integer).not_null()],
            },
            row(RowWrite::Append { first_row: 0, chunk: Cow::Owned(chunk) }),
            row(RowWrite::Update {
                column: 0,
                rows: vec![from_linear(0), from_linear(ROW_GROUP_SIZE as u64 + 1)].into(),
                values: Cow::Owned(values),
            }),
            row(RowWrite::Delete { rows: vec![from_linear(1)].into() }),
            WalRecord::Commit { txn_id: 9 },
            WalRecord::DropTable { name: "t".into() },
            WalRecord::CreateView { name: "v".into(), sql: "SELECT 1".into() },
            WalRecord::DropView { name: "v".into() },
        ];
        for rec in records {
            let bytes = rec.encode();
            let back = WalRecord::decode(&bytes).unwrap();
            assert_eq!(format!("{rec:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn corrupt_record_rejected() {
        assert!(WalRecord::decode(&[99, 0, 0]).is_err());
        assert!(WalRecord::decode(&[]).is_err());
    }

    #[test]
    fn linear_row_ids() {
        let rid = from_linear(ROW_GROUP_SIZE as u64 + 5);
        assert_eq!(rid, RowId { group: 1, row: 5 });
        assert_eq!(linear(rid), ROW_GROUP_SIZE as u64 + 5);
    }

    #[test]
    fn replay_applies_committed_skips_aborted() {
        let catalog = Catalog::new();
        let txn_mgr = TransactionManager::new();
        let chunk_a = DataChunk::from_rows(
            &[LogicalType::Integer],
            &[vec![Value::Integer(1)], vec![Value::Integer(2)]],
        )
        .unwrap();
        let chunk_b =
            DataChunk::from_rows(&[LogicalType::Integer], &[vec![Value::Integer(99)]]).unwrap();
        let records: Vec<Vec<u8>> = vec![
            WalRecord::CreateTable {
                name: "t".into(),
                columns: vec![ColumnDefinition::new("a", LogicalType::Integer)],
            }
            .encode(),
            // txn 1 commits; txn 2 aborts (no commit marker).
            row_of(1, RowWrite::Append { first_row: 0, chunk: Cow::Owned(chunk_a) }).encode(),
            row_of(2, RowWrite::Append { first_row: 2, chunk: Cow::Owned(chunk_b) }).encode(),
            row_of(
                1,
                RowWrite::Update {
                    column: 0,
                    rows: vec![from_linear(0)].into(),
                    values: Cow::Owned(
                        Vector::from_values(LogicalType::Integer, &[Value::Integer(10)]).unwrap(),
                    ),
                },
            )
            .encode(),
            WalRecord::Commit { txn_id: 1 }.encode(),
        ];
        let applied = replay_wal(&records, &catalog, &txn_mgr).unwrap();
        assert_eq!(applied, 1);
        let entry = catalog.get_table("t").unwrap();
        let txn = txn_mgr.begin();
        let opts = eider_txn::ScanOptions { columns: vec![0], ..Default::default() };
        let rows: Vec<Vec<Value>> = entry
            .data
            .scan_collect(&txn, &opts)
            .unwrap()
            .iter()
            .flat_map(|c| c.to_rows())
            .collect();
        // Aborted append (99) invisible; committed update applied.
        assert_eq!(rows, vec![vec![Value::Integer(10)], vec![Value::Integer(2)]]);
        // The physical layout still contains the dead row.
        assert_eq!(entry.data.physical_rows(), 3);
    }

    fn visible(catalog: &Catalog, txn_mgr: &Arc<TransactionManager>) -> Vec<i64> {
        let entry = catalog.get_table("t").unwrap();
        let opts = ScanOptions { columns: vec![0], ..Default::default() };
        let chunks = entry.data.scan_collect(&txn_mgr.begin(), &opts).unwrap();
        chunks.iter().flat_map(|c| c.to_rows()).map(|r| r[0].as_i64().unwrap()).collect()
    }

    #[test]
    fn checkpoint_image_keeps_dead_positions() {
        // Dead rows at the start, mid-chunk, across a row-group boundary
        // and at the end: after a load every live row sits where it was.
        let (catalog, txn_mgr) = (Catalog::new(), TransactionManager::new());
        let columns = vec![ColumnDefinition::new("a", LogicalType::Integer)];
        let entry = catalog.create_table("t", columns, false).unwrap();
        let n = ROW_GROUP_SIZE as u64 + 10;
        let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Integer(i as i32)]).collect();
        let txn = txn_mgr.begin();
        for part in rows.chunks(eider_vector::VECTOR_SIZE) {
            entry
                .data
                .append_chunk(&txn, &DataChunk::from_rows(&[LogicalType::Integer], part).unwrap())
                .unwrap();
        }
        txn.commit().unwrap();
        let dead: Vec<u64> = [0, 5, 6, 2050]
            .into_iter()
            .chain(ROW_GROUP_SIZE as u64 - 2..ROW_GROUP_SIZE as u64 + 3)
            .chain([n - 1])
            .collect();
        let txn = txn_mgr.begin();
        entry
            .data
            .delete_rows(&txn, &dead.iter().map(|&r| from_linear(r)).collect::<Vec<_>>())
            .unwrap();
        txn.commit().unwrap();
        // An aborted append leaves dead rows too.
        let txn = txn_mgr.begin();
        entry
            .data
            .append_chunk(&txn, &DataChunk::from_rows(&[LogicalType::Integer], &rows[..3]).unwrap())
            .unwrap();
        txn.rollback().unwrap();

        let mgr = eider_storage::file_manager::InMemoryBlockManager::new();
        let (root, _) = write_checkpoint(&catalog, &txn_mgr.begin(), &mgr).unwrap();
        let (loaded, loaded_mgr) = (Catalog::new(), TransactionManager::new());
        load_checkpoint(root, &mgr, &loaded, &loaded_mgr).unwrap();
        let table = &loaded.get_table("t").unwrap().data;
        assert_eq!(table.physical_rows() as u64, n + 3);
        let want: Vec<i64> = (0..n).filter(|r| !dead.contains(r)).map(|r| r as i64).collect();
        assert_eq!(visible(&loaded, &loaded_mgr), want);
        // Every live row kept its position: its value is its position.
        let opts = ScanOptions { columns: vec![0], emit_row_ids: true, ..Default::default() };
        for chunk in table.scan_collect(&loaded_mgr.begin(), &opts).unwrap() {
            let ids = row_ids(chunk.column(1)).unwrap();
            for (row, id) in ids.into_iter().enumerate() {
                assert_eq!(chunk.column(0).get_value(row).as_i64(), Some(linear(id) as i64));
            }
        }
    }
}
