//! External table sources end to end: `read_csv` / `read_arrow` must be
//! indistinguishable from querying an ingested copy of the same data —
//! bit-identical rows at every thread count CI runs (1, 2, 4, 8), with
//! and without a starvation-level 1 MB memory budget — and the Arrow IPC
//! export must round-trip losslessly through `read_arrow`, including
//! dictionary-coded columns that never decode in between.

use eider::{Database, Value};
use eider_etl::{for_each_chunk, ArrowFileSource, ArrowWriter, TableSource};
use eider_vector::{DataChunk, LogicalType, Vector};
use proptest::prelude::*;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const ROWS: usize = 6_000;

/// A scratch file of this process's own — pid plus a process-wide counter,
/// so tests running concurrently never share one — removed on drop, also
/// when the test fails.
struct TmpFile(PathBuf);

impl std::ops::Deref for TmpFile {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn tmp(name: &str) -> TmpFile {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    TmpFile(std::env::temp_dir().join(format!("eider_ext_{}_{n}_{name}", std::process::id())))
}

/// A deterministic CSV well past the 32 KB two-partition floor: a BigInt
/// key, a dictionary-friendly group, an exactly-representable Double, and
/// a quoted varchar with embedded delimiters and newlines — the shapes
/// the byte-range partitioner has to get right.
fn write_fixture_csv(path: &Path) {
    let mut f = std::fs::File::create(path).unwrap();
    writeln!(f, "id,grp,val,note").unwrap();
    for i in 0..ROWS {
        let note = match i % 5 {
            0 => format!("\"comma, {i}\""),
            1 => format!("\"line\nbreak {i}\""),
            2 => String::new(), // empty field → NULL
            _ => format!("plain_note_number_{i}"),
        };
        writeln!(f, "{i},g{},{}.5,{note}", i % 8, i % 13).unwrap();
    }
}

/// Build a database with the fixture ingested as table `t` (via COPY FROM
/// — the same `TableSource` path `read_csv` uses) and the Arrow twin
/// exported from that table through `ResultCursor::export_arrow_ipc`.
fn fixture() -> (Arc<Database>, TmpFile, TmpFile) {
    let csv = tmp("fixture.csv");
    let arrow = tmp("fixture.arrow");
    write_fixture_csv(&csv);
    let db = Database::in_memory().unwrap();
    let conn = db.connect();
    conn.execute("CREATE TABLE t (id BIGINT, grp VARCHAR, val DOUBLE, note VARCHAR)").unwrap();
    conn.execute(&format!("COPY t FROM '{}'", csv.display())).unwrap();
    let out = std::fs::File::create(&*arrow).unwrap();
    let exported = conn.query_stream("SELECT * FROM t").unwrap().export_arrow_ipc(out).unwrap();
    assert_eq!(exported, ROWS as u64);
    (db, csv, arrow)
}

/// Queries whose row output is fully deterministic (ordered sinks, exact
/// aggregates, or plain scans whose morsel merge is seq-ordered) — the
/// set we demand be *bit-identical* between the table and both external
/// sources at every thread count.
fn equivalence_queries(source: &str) -> Vec<String> {
    [
        "SELECT id, grp, val, note FROM {src}",
        "SELECT id, val FROM {src} WHERE id % 7 = 3",
        "SELECT count(*), min(val), max(val), min(id), max(id) FROM {src}",
        "SELECT grp, count(*) FROM {src} GROUP BY grp ORDER BY grp",
        "SELECT id, note FROM {src} ORDER BY id DESC LIMIT 20 OFFSET 5",
        "SELECT count(*) FROM {src} WHERE note IS NULL",
    ]
    .iter()
    .map(|q| q.replace("{src}", source))
    .collect()
}

fn rows_at(db: &Arc<Database>, sql: &str, threads: usize) -> Vec<Vec<Value>> {
    let conn = db.connect();
    conn.execute(&format!("PRAGMA threads = {threads}")).unwrap();
    conn.query(sql).unwrap().to_rows()
}

#[test]
fn external_scans_match_the_ingested_table_at_every_thread_count() {
    let (db, csv, arrow) = fixture();
    let sources =
        [format!("read_csv('{}')", csv.display()), format!("read_arrow('{}')", arrow.display())];
    for threads in [1, 2, 4, 8] {
        for source in &sources {
            for (table_sql, ext_sql) in
                equivalence_queries("t").iter().zip(equivalence_queries(source))
            {
                let expect = rows_at(&db, table_sql, threads);
                let got = rows_at(&db, &ext_sql, threads);
                assert_eq!(got, expect, "{ext_sql} @ {threads} threads");
            }
        }
    }
    // Every thread count must also agree with every other (the partition
    // decomposition is a pure function of the data, never of the fleet).
    for source in &sources {
        for ext_sql in equivalence_queries(source) {
            let baseline = rows_at(&db, &ext_sql, 1);
            for threads in [2, 4, 8] {
                assert_eq!(rows_at(&db, &ext_sql, threads), baseline, "{ext_sql}");
            }
        }
    }
}

#[test]
fn external_scans_survive_a_one_megabyte_budget() {
    let (db, csv, arrow) = fixture();
    db.connect().execute("PRAGMA memory_limit = 1000000").unwrap();
    let sources =
        [format!("read_csv('{}')", csv.display()), format!("read_arrow('{}')", arrow.display())];
    for source in &sources {
        for (table_sql, ext_sql) in equivalence_queries("t").iter().zip(equivalence_queries(source))
        {
            for threads in [1, 4] {
                let expect = rows_at(&db, table_sql, threads);
                assert_eq!(rows_at(&db, &ext_sql, threads), expect, "{ext_sql} under 1MB");
            }
        }
    }
}

/// Exporting a query result to Arrow IPC and scanning the file back with
/// `read_arrow` must reproduce the rows exactly — the §5 "result transfer
/// is a file format" story.
#[test]
fn arrow_export_round_trips_through_read_arrow() {
    let (db, _csv, _arrow) = fixture();
    let conn = db.connect();
    // Round-trip a *derived* result, not just the base table.
    let derived = tmp("derived.arrow");
    let sql = "SELECT grp, count(*) AS n, min(val) AS lo FROM t GROUP BY grp ORDER BY grp";
    let expect = conn.query(sql).unwrap().to_rows();
    let out = std::fs::File::create(&*derived).unwrap();
    conn.query_stream(sql).unwrap().export_arrow_ipc(out).unwrap();
    let back = conn.query(&format!("SELECT * FROM read_arrow('{}')", derived.display())).unwrap();
    assert_eq!(back.column_names(), ["grp", "n", "lo"]);
    assert_eq!(back.to_rows(), expect);
}

/// Read an Arrow file back into rows via the raw `TableSource`, recording
/// whether any imported column arrived dictionary-coded.
fn arrow_rows(path: &Path) -> (Vec<Vec<Value>>, bool) {
    let source = ArrowFileSource::open(path).unwrap();
    let projection: Vec<usize> = (0..source.column_types().len()).collect();
    let mut rows = Vec::new();
    let mut saw_dict = false;
    for_each_chunk(&source, &projection, |chunk| {
        saw_dict |= chunk.columns().iter().any(|c| c.dict_parts().is_some());
        rows.extend(chunk.to_rows());
        Ok(())
    })
    .unwrap();
    (rows, saw_dict)
}

// Random chunks — NULLs, empty strings, and a dictionary-coded varchar
// column — survive the write→read Arrow IPC round trip bit-for-bit,
// across multiple record batches.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arrow_ipc_round_trips_random_chunks(
        batches in prop::collection::vec(
            prop::collection::vec(
                (
                    prop::option::of(any::<i64>()),
                    prop::option::of("[a-z ,\"\n]{0,12}"),
                    prop::option::of(0u8..4),
                ),
                1..80,
            ),
            1..4,
        ),
        case in 0u32..u32::MAX,
    ) {
        let types =
            [LogicalType::BigInt, LogicalType::Varchar, LogicalType::Varchar];
        let path = tmp(&format!("prop_{case}.arrow"));
        let mut expected = Vec::new();
        {
            let out = std::fs::File::create(&*path).unwrap();
            let names = vec!["a".into(), "b".into(), "c".into()];
            let mut writer = ArrowWriter::new(out, names, types.to_vec()).unwrap();
            for batch in &batches {
                let rows: Vec<Vec<Value>> = batch
                    .iter()
                    .map(|(i, s, d)| {
                        vec![
                            i.map_or(Value::Null, Value::BigInt),
                            s.clone().map_or(Value::Null, Value::Varchar),
                            // Low-cardinality column: dict-encodes below.
                            d.map_or(Value::Null, |k| Value::Varchar(format!("dict_{k}"))),
                        ]
                    })
                    .collect();
                expected.extend(rows.iter().cloned());
                let chunk = DataChunk::from_rows(&types, &rows).unwrap();
                let mut cols: Vec<Vector> = chunk.into_columns();
                // Force the compressed-domain path when the chooser takes
                // it: dict-coded codes must export without decoding.
                if let Some(encoded) = cols[2].encode_auto() {
                    cols[2] = encoded;
                }
                writer.write_chunk(&DataChunk::from_vectors(cols).unwrap()).unwrap();
            }
            writer.finish().unwrap();
        }
        let (rows, _saw_dict) = arrow_rows(&path);
        prop_assert_eq!(rows, expected);
    }
}

/// A dictionary-coded source column must arrive at the reader still
/// dictionary-coded (no decode on either side of the file boundary).
#[test]
fn dict_columns_cross_the_file_without_decoding() {
    let path = tmp("dict.arrow");
    let types = [LogicalType::Varchar];
    let rows: Vec<Vec<Value>> =
        (0..1000).map(|i| vec![Value::Varchar(format!("group_{}", i % 4))]).collect();
    {
        let out = std::fs::File::create(&*path).unwrap();
        let mut writer = ArrowWriter::new(out, vec!["g".into()], types.to_vec()).unwrap();
        let chunk = DataChunk::from_rows(&types, &rows).unwrap();
        let mut cols = chunk.into_columns();
        cols[0] = cols[0].encode_auto().expect("4 distinct values over 1000 rows must dict-encode");
        writer.write_chunk(&DataChunk::from_vectors(cols).unwrap()).unwrap();
        writer.finish().unwrap();
    }
    let (got, saw_dict) = arrow_rows(&path);
    assert!(saw_dict, "imported column must still be dictionary-coded");
    assert_eq!(got, rows);
}

/// `Appender::from_source` and `COPY FROM` are the same ingest path; the
/// tables they produce must scan identically.
#[test]
fn bulk_ingest_matches_copy_from() {
    use eider_client::Appender;
    use eider_etl::csv::{CsvReadOptions, CsvSource};
    let csv = tmp("ingest.csv");
    write_fixture_csv(&csv);
    let db = Database::in_memory().unwrap();
    let conn = db.connect();
    let ddl = "(id BIGINT, grp VARCHAR, val DOUBLE, note VARCHAR)";
    conn.execute(&format!("CREATE TABLE via_copy {ddl}")).unwrap();
    conn.execute(&format!("CREATE TABLE via_appender {ddl}")).unwrap();
    conn.execute(&format!("COPY via_copy FROM '{}'", csv.display())).unwrap();

    let entry = db.catalog().get_table("via_appender").unwrap();
    let txn = Arc::new(db.txn_manager().begin());
    let source = CsvSource::open(&*csv, CsvReadOptions::default()).unwrap();
    let loaded = Appender::from_source(entry, Arc::clone(&txn), &source).unwrap();
    assert_eq!(loaded, ROWS as u64);
    db.commit_transaction(Arc::try_unwrap(txn).expect("sole handle")).unwrap();

    let a = conn.query("SELECT * FROM via_copy").unwrap().to_rows();
    let b = conn.query("SELECT * FROM via_appender").unwrap().to_rows();
    assert_eq!(a, b);
}
