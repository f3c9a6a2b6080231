//! End-to-end smoke tests of the eider-core facade.

use eider_core::{Database, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh database path (and its WAL) named by pid plus a process-wide
/// counter, so tests running concurrently never share one.
fn tmp_db(name: &str) -> (PathBuf, String) {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("eider_{name}_{}_{n}.db", std::process::id()));
    let wal = format!("{}.wal", path.display());
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
    (path, wal)
}

#[test]
fn full_sql_pipeline_in_memory() {
    let db = Database::in_memory().unwrap();
    let conn = db.connect();
    conn.execute("CREATE TABLE t (a INTEGER, d INTEGER, v DOUBLE)").unwrap();
    let n =
        conn.execute("INSERT INTO t VALUES (1, -999, 1.5), (2, 7, 2.5), (3, -999, 3.5)").unwrap();
    assert_eq!(n, 3);
    // The paper's §2 wrangling update.
    let n = conn.execute("UPDATE t SET d = NULL WHERE d = -999").unwrap();
    assert_eq!(n, 2);
    let r = conn.query("SELECT count(*), sum(v) FROM t WHERE d IS NULL").unwrap();
    assert_eq!(r.value(0, 0).unwrap(), Value::BigInt(2));
    assert_eq!(r.value(0, 1).unwrap(), Value::Double(5.0));
}

#[test]
fn joins_group_order() {
    let db = Database::in_memory().unwrap();
    let conn = db.connect();
    conn.execute("CREATE TABLE orders (cid INTEGER, amount DOUBLE)").unwrap();
    conn.execute("CREATE TABLE customers (cid INTEGER, name VARCHAR)").unwrap();
    conn.execute("INSERT INTO customers VALUES (1, 'ada'), (2, 'bob')").unwrap();
    conn.execute("INSERT INTO orders VALUES (1, 10.0), (1, 20.0), (2, 5.0), (3, 99.0)").unwrap();
    let r = conn
        .query(
            "SELECT name, sum(amount) AS total FROM orders \
             JOIN customers ON orders.cid = customers.cid \
             GROUP BY name ORDER BY total DESC",
        )
        .unwrap();
    let rows = r.to_rows();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::Varchar("ada".into()));
    assert_eq!(rows[0][1], Value::Double(30.0));
    assert_eq!(rows[1][0], Value::Varchar("bob".into()));
}

#[test]
fn explicit_transactions_and_rollback() {
    let db = Database::in_memory().unwrap();
    let conn = db.connect();
    conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO t VALUES (1)").unwrap();
    assert!(conn.in_transaction());
    conn.execute("ROLLBACK").unwrap();
    let r = conn.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(0));
    conn.execute("BEGIN; INSERT INTO t VALUES (2); COMMIT").unwrap();
    let r = conn.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(1));
}

#[test]
fn persistence_across_reopen() {
    let (path, wal) = tmp_db("smoke");
    {
        let db = Database::open(&path).unwrap();
        let conn = db.connect();
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')").unwrap();
        conn.execute("UPDATE t SET b = 'ONE' WHERE a = 1").unwrap();
        conn.execute("DELETE FROM t WHERE a = 2").unwrap();
        // Dropped here: checkpoint on close.
    }
    {
        let db = Database::open(&path).unwrap();
        let conn = db.connect();
        let r = conn.query("SELECT a, b FROM t").unwrap();
        assert_eq!(r.to_rows(), vec![vec![Value::Integer(1), Value::Varchar("ONE".into())]]);
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn wal_recovery_without_checkpoint() {
    let (path, wal) = tmp_db("walrec");
    {
        let db = Database::open(&path).unwrap();
        let conn = db.connect();
        conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
        conn.execute("INSERT INTO t VALUES (42)").unwrap();
        // Simulate a crash: leak the database so Drop (checkpoint on
        // close) never runs — recovery must come from the WAL alone.
        std::mem::forget(db);
    }
    {
        let db = Database::open(&path).unwrap();
        let conn = db.connect();
        let r = conn.query("SELECT a FROM t").unwrap();
        assert_eq!(r.scalar().unwrap(), Value::Integer(42));
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn pragmas() {
    let db = Database::in_memory().unwrap();
    let conn = db.connect();
    conn.execute("PRAGMA memory_limit = 100000000").unwrap();
    let r = conn.query("PRAGMA memory_limit").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(100_000_000));
    conn.execute("PRAGMA compression = 'heavy'").unwrap();
    let r = conn.query("PRAGMA compression").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Varchar("heavy".into()));
    assert!(conn.query("PRAGMA bogus").is_err());
}

#[test]
fn explain_and_show_tables() {
    let db = Database::in_memory().unwrap();
    let conn = db.connect();
    conn.execute("CREATE TABLE t (a INTEGER)").unwrap();
    let r = conn.query("EXPLAIN SELECT a FROM t WHERE a > 1").unwrap();
    let text = r.to_rows().iter().map(|r| r[0].to_string()).collect::<Vec<_>>().join("\n");
    assert!(text.contains("SCAN t"), "{text}");
    let r = conn.query("SHOW TABLES").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Varchar("t".into()));
}
