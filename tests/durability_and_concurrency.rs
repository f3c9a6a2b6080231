//! Integration tests for §3 (resilience/durability) and §2/§6
//! (concurrency) behaviour across the full stack.

use eider::{Database, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Scratch files are named by pid plus this process-wide counter, so
/// tests running concurrently never share one.
static COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmp_db(name: &str) -> (PathBuf, String) {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("eider_it_{}_{n}_{name}.db", std::process::id()));
    let wal = format!("{}.wal", p.display());
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(&wal);
    (p, wal)
}

#[test]
fn crash_recovery_preserves_committed_loses_uncommitted() {
    let (path, wal) = tmp_db("crash");
    {
        let db = Database::open(&path).unwrap();
        let conn = db.connect();
        conn.execute("CREATE TABLE t (v INTEGER)").unwrap();
        conn.execute("INSERT INTO t VALUES (1)").unwrap();
        // An open transaction that never commits...
        conn.execute("BEGIN").unwrap();
        conn.execute("INSERT INTO t VALUES (999)").unwrap();
        // ... and a crash (no checkpoint, no drop).
        std::mem::forget(db);
    }
    {
        let db = Database::open(&path).unwrap();
        let conn = db.connect();
        let r = conn.query("SELECT v FROM t").unwrap();
        assert_eq!(r.to_rows(), vec![vec![Value::Integer(1)]]);
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn checkpoint_then_more_wal_then_recover() {
    let (path, wal) = tmp_db("ckpt_wal");
    {
        let db = Database::open(&path).unwrap();
        let conn = db.connect();
        conn.execute("CREATE TABLE t (v INTEGER)").unwrap();
        conn.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        conn.execute("CHECKPOINT").unwrap();
        assert_eq!(db.wal_size(), 0, "checkpoint consumed the WAL");
        conn.execute("INSERT INTO t VALUES (3)").unwrap();
        conn.execute("UPDATE t SET v = 20 WHERE v = 2").unwrap();
        conn.execute("DELETE FROM t WHERE v = 1").unwrap();
        std::mem::forget(db); // crash: image + WAL tail
    }
    {
        let db = Database::open(&path).unwrap();
        let conn = db.connect();
        let r = conn.query("SELECT v FROM t ORDER BY v").unwrap();
        assert_eq!(r.to_rows(), vec![vec![Value::Integer(3)], vec![Value::Integer(20)]]);
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn repeated_reopen_cycles() {
    let (path, wal) = tmp_db("cycles");
    for round in 0..5 {
        let db = Database::open(&path).unwrap();
        let conn = db.connect();
        if round == 0 {
            conn.execute("CREATE TABLE log (round INTEGER, filler VARCHAR)").unwrap();
        }
        conn.execute(&format!("INSERT INTO log VALUES ({round}, 'payload-{round}')")).unwrap();
        let r = conn.query("SELECT count(*) FROM log").unwrap();
        assert_eq!(r.scalar().unwrap(), Value::BigInt(round + 1));
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn write_write_conflict_aborts_second_writer() {
    let db = Database::in_memory().unwrap();
    let c1 = db.connect();
    let c2 = db.connect();
    c1.execute("CREATE TABLE t (v INTEGER)").unwrap();
    c1.execute("INSERT INTO t VALUES (1)").unwrap();
    c1.execute("BEGIN").unwrap();
    c2.execute("BEGIN").unwrap();
    c1.execute("UPDATE t SET v = 2").unwrap();
    let err = c2.execute("UPDATE t SET v = 3").unwrap_err();
    assert!(err.is_transient(), "first-updater-wins: {err}");
    c2.execute("ROLLBACK").unwrap();
    c1.execute("COMMIT").unwrap();
    let r = db.connect().query("SELECT v FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Integer(2));
}

#[test]
fn snapshot_isolation_across_connections() {
    let db = Database::in_memory().unwrap();
    let writer = db.connect();
    let reader = db.connect();
    writer.execute("CREATE TABLE t (v INTEGER)").unwrap();
    writer.execute("INSERT INTO t VALUES (10)").unwrap();
    reader.execute("BEGIN").unwrap();
    let before = reader.query("SELECT sum(v) FROM t").unwrap();
    writer.execute("UPDATE t SET v = 99").unwrap(); // autocommits
    let after_in_snapshot = reader.query("SELECT sum(v) FROM t").unwrap();
    assert_eq!(before.scalar().unwrap(), after_in_snapshot.scalar().unwrap());
    reader.execute("COMMIT").unwrap();
    let fresh = reader.query("SELECT sum(v) FROM t").unwrap();
    assert_eq!(fresh.scalar().unwrap(), Value::BigInt(99));
}

#[test]
fn concurrent_writers_to_different_tables() {
    let db = Database::in_memory().unwrap();
    let conn = db.connect();
    conn.execute("CREATE TABLE a (v INTEGER)").unwrap();
    conn.execute("CREATE TABLE b (v INTEGER)").unwrap();
    let handles: Vec<_> = ["a", "b"]
        .into_iter()
        .map(|table| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let conn = db.connect();
                for i in 0..50 {
                    conn.execute(&format!("INSERT INTO {table} VALUES ({i})")).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for table in ["a", "b"] {
        let r = conn.query(&format!("SELECT count(*) FROM {table}")).unwrap();
        assert_eq!(r.scalar().unwrap(), Value::BigInt(50), "{table}");
    }
}

#[test]
fn wal_grows_then_autocheckpoint_consumes_it() {
    let (path, wal) = tmp_db("autockpt");
    {
        let db = Database::open(&path).unwrap();
        db.set_wal_autocheckpoint(20_000); // tiny threshold
        let conn = db.connect();
        conn.execute("CREATE TABLE t (v INTEGER, s VARCHAR)").unwrap();
        for i in 0..50 {
            conn.execute(&format!(
                "INSERT INTO t VALUES ({i}, 'some reasonably long payload string {i}')"
            ))
            .unwrap();
        }
        // The WAL must have been checkpointed away at least once.
        assert!(db.wal_size() < 20_000 * 3, "wal size: {}", db.wal_size());
        let r = conn.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.scalar().unwrap(), Value::BigInt(50));
    }
    {
        let db = Database::open(&path).unwrap();
        let r = db.connect().query("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.scalar().unwrap(), Value::BigInt(50));
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn csv_round_trip_through_copy() {
    let db = Database::in_memory().unwrap();
    let conn = db.connect();
    conn.execute("CREATE TABLE t (id INTEGER, name VARCHAR, score DOUBLE)").unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'with,comma', 1.5), (2, NULL, 2.5), (3, 'plain', NULL)")
        .unwrap();
    let mut path = std::env::temp_dir();
    let seq = COUNTER.fetch_add(1, Ordering::Relaxed);
    path.push(format!("eider_copy_{}_{seq}.csv", std::process::id()));
    let n = conn.execute(&format!("COPY t TO '{}'", path.display())).unwrap();
    assert_eq!(n, 3);
    conn.execute("CREATE TABLE t2 (id INTEGER, name VARCHAR, score DOUBLE)").unwrap();
    let n = conn.execute(&format!("COPY t2 FROM '{}' (HEADER)", path.display())).unwrap();
    assert_eq!(n, 3);
    let a = conn.query("SELECT * FROM t ORDER BY id").unwrap();
    let b = conn.query("SELECT * FROM t2 ORDER BY id").unwrap();
    assert_eq!(a.to_rows(), b.to_rows());
    let _ = std::fs::remove_file(&path);
}
