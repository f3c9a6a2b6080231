//! Integration tests for §3 (resilience/durability) and §2/§6
//! (concurrency) behaviour across the full stack.

use eider::{DataChunk, Database, EiderError, LogicalType, Value};
use eider_client::Appender;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
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

fn wal_of(path: &Path) -> PathBuf {
    PathBuf::from(format!("{}.wal", path.display()))
}

fn remove_db(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(wal_of(path));
}

/// Copy the database file and WAL of a database that is still open — what
/// a crash at this instant leaves on disk — open the copy and run `sql`.
fn crash_recover(path: &Path, sql: &str) -> eider::Result<Vec<Vec<Value>>> {
    let (image, _) = tmp_db("image");
    std::fs::copy(path, &image).unwrap();
    std::fs::copy(wal_of(path), wal_of(&image)).unwrap();
    let rows = Database::open(&image).and_then(|db| db.connect().query(sql)).map(|r| r.to_rows());
    remove_db(&image);
    rows
}

fn ints(values: &[i32]) -> Vec<Vec<Value>> {
    values.iter().map(|&v| vec![Value::Integer(v)]).collect()
}

/// Rows 1..=4, then `before`, CHECKPOINT and `after`; returns what a crash
/// image taken right after `after` recovers.
fn replay_after_checkpoint(before: &str, after: &str) -> eider::Result<Vec<Vec<Value>>> {
    let (path, _) = tmp_db("positions");
    let db = Database::open(&path).unwrap();
    let conn = db.connect();
    conn.execute("CREATE TABLE t (v INTEGER)").unwrap();
    conn.execute("INSERT INTO t VALUES (1), (2), (3), (4)").unwrap();
    conn.execute(before).unwrap();
    conn.execute("CHECKPOINT").unwrap();
    conn.execute(after).unwrap();
    let recovered = crash_recover(&path, "SELECT v FROM t ORDER BY v");
    drop(conn);
    drop(db);
    remove_db(&path);
    recovered
}

// The checkpoint image keeps the positions of deleted and rolled-back rows,
// so a WAL record written after it lands on the row it names.

#[test]
fn delete_checkpoint_insert_replays() {
    let got = replay_after_checkpoint("DELETE FROM t WHERE v = 1", "INSERT INTO t VALUES (5)");
    assert_eq!(got.unwrap(), ints(&[2, 3, 4, 5]));
}

#[test]
fn rollback_checkpoint_insert_replays() {
    let rollback = "BEGIN; INSERT INTO t VALUES (9); ROLLBACK";
    let got = replay_after_checkpoint(rollback, "INSERT INTO t VALUES (5)");
    assert_eq!(got.unwrap(), ints(&[1, 2, 3, 4, 5]));
}

#[test]
fn delete_checkpoint_update_changes_the_row_it_names() {
    let got =
        replay_after_checkpoint("DELETE FROM t WHERE v = 1", "UPDATE t SET v = 20 WHERE v = 2");
    assert_eq!(got.unwrap(), ints(&[3, 4, 20]));
}

#[test]
fn delete_checkpoint_delete_removes_the_row_it_names() {
    let got = replay_after_checkpoint("DELETE FROM t WHERE v = 1", "DELETE FROM t WHERE v = 2");
    assert_eq!(got.unwrap(), ints(&[3, 4]));
}

/// A checkpoint truncates the WAL, so one taken while another transaction
/// holds uncommitted writes would drop their records: it is refused.
#[test]
fn checkpoint_refuses_while_another_transaction_writes() {
    let (path, _) = tmp_db("open_writer");
    let db = Database::open(&path).unwrap();
    let (a, b) = (db.connect(), db.connect());
    a.execute("CREATE TABLE t (v INTEGER)").unwrap();
    a.execute("INSERT INTO t VALUES (1)").unwrap();
    // A transaction that only reads does not block it.
    a.execute("BEGIN").unwrap();
    a.query("SELECT count(*) FROM t").unwrap();
    b.execute("CHECKPOINT").unwrap();
    a.execute("INSERT INTO t VALUES (2)").unwrap();
    let refused = b.execute("CHECKPOINT");
    a.execute("COMMIT").unwrap();
    assert_eq!(crash_recover(&path, "SELECT v FROM t ORDER BY v").unwrap(), ints(&[1, 2]));
    assert!(matches!(refused, Err(EiderError::Transaction(_))), "{refused:?}");
    b.execute("CHECKPOINT").unwrap();
    assert_eq!(db.wal_size(), 0);
    drop((a, b, db));
    remove_db(&path);
}

#[test]
fn auto_checkpoint_skips_while_another_transaction_writes() {
    let (path, _) = tmp_db("auto_skip");
    let db = Database::open(&path).unwrap();
    let (a, b) = (db.connect(), db.connect());
    a.execute("CREATE TABLE t (v INTEGER)").unwrap();
    a.execute("INSERT INTO t VALUES (1)").unwrap();
    a.execute("BEGIN").unwrap();
    a.execute("INSERT INTO t VALUES (2)").unwrap();
    db.set_wal_autocheckpoint(1);
    b.execute("INSERT INTO t VALUES (3)").unwrap(); // its commit's checkpoint is skipped
    assert!(db.wal_size() > 0);
    db.set_wal_autocheckpoint(0);
    a.execute("COMMIT").unwrap();
    assert_eq!(crash_recover(&path, "SELECT v FROM t ORDER BY v").unwrap(), ints(&[1, 2, 3]));
    drop((a, b, db));
    remove_db(&path);
}

/// `Appender` rows are WAL-logged like INSERT's: durable at commit with no
/// checkpoint, and the positions later records name stay right.
#[test]
fn appender_rows_survive_a_crash_without_a_checkpoint() {
    let (path, _) = tmp_db("appender");
    let db = Database::open(&path).unwrap();
    let conn = db.connect();
    conn.execute("CREATE TABLE t (id INTEGER NOT NULL, s VARCHAR)").unwrap();
    conn.execute("CHECKPOINT").unwrap();
    let txn = Arc::new(db.txn_manager().begin());
    let mut app = Appender::new(db.catalog().get_table("t").unwrap(), Arc::clone(&txn));
    // BIGINT ids: the write path casts them to the table's INTEGER.
    let rows: Vec<Vec<Value>> =
        (0..3000).map(|i| vec![Value::BigInt(i), Value::Varchar(format!("r{i}"))]).collect();
    app.append_chunk(
        DataChunk::from_rows(&[LogicalType::BigInt, LogicalType::Varchar], &rows).unwrap(),
    )
    .unwrap();
    for i in 3000..3010 {
        app.append_row(&[Value::Integer(i), Value::Null]).unwrap();
    }
    assert_eq!(app.finish().unwrap(), 3010);
    db.commit_transaction(Arc::try_unwrap(txn).unwrap()).unwrap();
    let summary = "SELECT count(*), sum(id), count(s) FROM t";
    let want =
        |n: i64, sum: i64| vec![vec![Value::BigInt(n), Value::BigInt(sum), Value::BigInt(3000)]];
    assert_eq!(crash_recover(&path, summary).unwrap(), want(3010, 3010 * 3009 / 2));
    conn.execute("INSERT INTO t VALUES (-1, NULL)").unwrap();
    assert_eq!(crash_recover(&path, summary).unwrap(), want(3011, 3010 * 3009 / 2 - 1));
    drop((conn, db));
    remove_db(&path);
}

/// INSERT … SELECT from a full row group hands the write path scan slices
/// that share the group's dictionary (5,000 entries for 2,048 rows); their
/// WAL records must still replay.
#[test]
fn insert_select_of_dictionary_slices_replays() {
    let (path, _) = tmp_db("dict_slices");
    let db = Database::open(&path).unwrap();
    let conn = db.connect();
    conn.execute("CREATE TABLE a (s VARCHAR)").unwrap();
    conn.execute("CREATE TABLE b (s VARCHAR)").unwrap();
    let n = eider_txn::table::ROW_GROUP_SIZE;
    let txn = Arc::new(db.txn_manager().begin());
    let mut app = Appender::new(db.catalog().get_table("a").unwrap(), Arc::clone(&txn));
    let rows: Vec<Vec<Value>> =
        (0..n).map(|i| vec![Value::Varchar(format!("s{}", i % 5000))]).collect();
    app.append_chunk(DataChunk::from_rows(&[LogicalType::Varchar], &rows).unwrap()).unwrap();
    app.finish().unwrap();
    db.commit_transaction(Arc::try_unwrap(txn).unwrap()).unwrap();
    conn.execute("INSERT INTO b SELECT s FROM a").unwrap();
    let sql = "SELECT count(*), count(DISTINCT s), max(s) FROM b";
    let live = conn.query(sql).unwrap().to_rows();
    assert_eq!(live[0][..2], [Value::BigInt(n as i64), Value::BigInt(5000)]);
    assert_eq!(crash_recover(&path, sql).unwrap(), live);
    drop((conn, db));
    remove_db(&path);
}

// A statement that fails inside an explicit transaction dooms it: every
// later statement but ROLLBACK is refused, and COMMIT rolls back. So a
// failed write's WAL records never meet a commit record, and the live table
// and a crash image agree.

fn refused<T>(result: &eider::Result<T>) -> bool {
    matches!(result, Err(EiderError::Transaction(_)))
}

/// A's conflicting UPDATE is logged before `update_rows` refuses it; were
/// A allowed to go on and commit, recovery would replay it.
#[test]
fn a_conflicting_update_dooms_its_transaction() {
    let (path, _) = tmp_db("doomed_conflict");
    let db = Database::open(&path).unwrap();
    let (a, b) = (db.connect(), db.connect());
    a.execute("CREATE TABLE t (id INTEGER, v INTEGER)").unwrap();
    a.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    a.execute("BEGIN").unwrap();
    b.execute("BEGIN").unwrap();
    b.execute("UPDATE t SET v = 99 WHERE id = 1").unwrap();
    let conflict = a.execute("UPDATE t SET v = 77 WHERE id = 1");
    assert!(conflict.as_ref().is_err_and(EiderError::is_transient), "{conflict:?}");
    let next = a.execute("UPDATE t SET v = 21 WHERE id = 2");
    assert!(refused(&next), "{next:?}");
    b.execute("ROLLBACK").unwrap();
    let commit = a.execute("COMMIT");
    assert!(refused(&commit), "{commit:?}");
    assert!(!a.in_transaction());
    let sql = "SELECT id, v FROM t ORDER BY id";
    let live = a.query(sql).unwrap().to_rows();
    let want = |id: i32, v: i32| vec![Value::Integer(id), Value::Integer(v)];
    assert_eq!(live, vec![want(1, 10), want(2, 20)]);
    assert_eq!(crash_recover(&path, sql).unwrap(), live);
    drop((a, b, db));
    remove_db(&path);
}

/// `update_rows` checks conflicts one row group at a time, so A's UPDATE of
/// 130,000 rows has written 129,024 of them when it meets B's row in the
/// second group.
#[test]
fn an_update_that_fails_halfway_commits_nothing() {
    let (path, _) = tmp_db("doomed_half");
    let db = Database::open(&path).unwrap();
    let (a, b) = (db.connect(), db.connect());
    a.execute("CREATE TABLE t (id INTEGER, v INTEGER)").unwrap();
    let n = 130_000;
    let txn = Arc::new(db.txn_manager().begin());
    let mut app = Appender::new(db.catalog().get_table("t").unwrap(), Arc::clone(&txn));
    let rows: Vec<Vec<Value>> =
        (0..n).map(|i| vec![Value::Integer(i), Value::Integer(0)]).collect();
    app.append_chunk(
        DataChunk::from_rows(&[LogicalType::Integer, LogicalType::Integer], &rows).unwrap(),
    )
    .unwrap();
    app.finish().unwrap();
    db.commit_transaction(Arc::try_unwrap(txn).unwrap()).unwrap();
    b.execute("BEGIN").unwrap();
    b.execute(&format!("UPDATE t SET v = 2 WHERE id = {}", n - 1)).unwrap();
    a.execute("BEGIN").unwrap();
    let conflict = a.execute("UPDATE t SET v = 1");
    assert!(conflict.as_ref().is_err_and(EiderError::is_transient), "{conflict:?}");
    let read = a.query("SELECT count(*) FROM t WHERE v = 1");
    assert!(refused(&read), "{read:?}");
    b.execute("ROLLBACK").unwrap();
    let commit = a.execute("COMMIT");
    assert!(refused(&commit), "{commit:?}");
    let sql = "SELECT count(*), sum(v) FROM t";
    let live = a.query(sql).unwrap().to_rows();
    assert_eq!(live, vec![vec![Value::BigInt(i64::from(n)), Value::BigInt(0)]]);
    assert_eq!(crash_recover(&path, sql).unwrap(), live);
    drop((a, b, db));
    remove_db(&path);
}

/// splitmix64: the crash oracle's seeded statement generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// One random write statement against `t(id, v)`, applied to `model` (the
/// rows the statement's transaction sees) as well.
fn random_write(rng: &mut Rng, next_id: &mut i32, model: &mut BTreeMap<i32, i32>) -> String {
    match rng.below(3) {
        0 => {
            let rows: Vec<String> = (0..1 + rng.below(4))
                .map(|_| {
                    let id = *next_id;
                    *next_id += 1;
                    model.insert(id, id);
                    format!("({id}, {id})")
                })
                .collect();
            format!("INSERT INTO t VALUES {}", rows.join(", "))
        }
        1 => {
            let (m, r, k) = (2 + rng.below(5) as i32, rng.below(2) as i32, 1 + rng.below(9) as i32);
            model.iter_mut().filter(|(id, _)| *id % m == r).for_each(|(_, v)| *v += k);
            format!("UPDATE t SET v = v + {k} WHERE id % {m} = {r}")
        }
        _ => {
            let (m, r) = (3 + rng.below(7) as i32, rng.below(3) as i32);
            model.retain(|id, _| id % m != r);
            format!("DELETE FROM t WHERE id % {m} = {r}")
        }
    }
}

/// Random INSERT, `Appender` batch, UPDATE, DELETE, explicit transactions
/// that commit or roll back, and CHECKPOINT (also from a second session
/// while a transaction is open, where it must be refused). After every
/// statement a crash image must recover exactly the acknowledged rows.
fn crash_oracle(seed: u64, steps: usize) {
    let (path, _) = tmp_db("oracle");
    let db = Database::open(&path).unwrap();
    let (conn, other) = (db.connect(), db.connect());
    conn.execute("CREATE TABLE t (id INTEGER NOT NULL, v INTEGER)").unwrap();
    let (mut rng, mut next_id) = (Rng(seed), 0i32);
    let mut model = BTreeMap::new();
    let mut history: Vec<String> = Vec::new();
    let check = |history: &[String], model: &BTreeMap<i32, i32>| {
        let want: Vec<Vec<Value>> =
            model.iter().map(|(&id, &v)| vec![Value::Integer(id), Value::Integer(v)]).collect();
        let got = crash_recover(&path, "SELECT id, v FROM t ORDER BY id");
        let ok = matches!(&got, Ok(rows) if *rows == want);
        assert!(
            ok,
            "crash oracle, seed {seed}: after {history:#?}\nrecovered {} rows (or {:?}), want {}",
            got.as_ref().map_or(0, Vec::len),
            got.as_ref().err(),
            want.len()
        );
    };
    for _ in 0..steps {
        match rng.below(6) {
            0..=1 => {
                let sql = random_write(&mut rng, &mut next_id, &mut model);
                conn.execute(&sql).unwrap();
                history.push(sql);
            }
            2 => {
                let n = 1 + rng.below(3000) as i32;
                let entry = db.catalog().get_table("t").unwrap();
                let txn = Arc::new(db.txn_manager().begin());
                let mut app = Appender::new(entry, Arc::clone(&txn));
                let ids: Vec<i32> = (next_id..next_id + n).collect();
                let (chunked, by_row) = ids.split_at(ids.len() * 3 / 4);
                let rows: Vec<Vec<Value>> = chunked
                    .iter()
                    .map(|&i| vec![Value::BigInt(i.into()), Value::BigInt(i.into())])
                    .collect();
                let types = [LogicalType::BigInt, LogicalType::BigInt];
                app.append_chunk(DataChunk::from_rows(&types, &rows).unwrap()).unwrap();
                for &i in by_row {
                    app.append_row(&[Value::Integer(i), Value::Integer(i)]).unwrap();
                }
                app.finish().unwrap();
                db.commit_transaction(Arc::try_unwrap(txn).unwrap()).unwrap();
                model.extend(ids.iter().map(|&i| (i, i)));
                next_id += n;
                history.push(format!("Appender: {n} rows"));
            }
            3..=4 => {
                let commit = rng.below(2) == 0;
                let mut pending = model.clone();
                conn.execute("BEGIN").unwrap();
                history.push("BEGIN".into());
                for _ in 0..1 + rng.below(3) {
                    let sql = random_write(&mut rng, &mut next_id, &mut pending);
                    conn.execute(&sql).unwrap();
                    history.push(sql);
                    check(&history, &model);
                }
                // Refused while the transaction holds writes (a write that
                // matched no row leaves it read-only).
                let checkpoint = other.execute("CHECKPOINT");
                if pending == model {
                    checkpoint.unwrap();
                } else {
                    assert!(
                        matches!(checkpoint, Err(EiderError::Transaction(_))),
                        "{checkpoint:?}"
                    );
                }
                conn.execute(if commit { "COMMIT" } else { "ROLLBACK" }).unwrap();
                history.push(if commit { "COMMIT" } else { "ROLLBACK" }.into());
                if commit {
                    model = pending;
                }
            }
            _ => {
                conn.execute("CHECKPOINT").unwrap();
                history.push("CHECKPOINT".into());
            }
        }
        check(&history, &model);
    }
    drop((conn, other, db));
    remove_db(&path);
}

#[test]
fn crash_images_recover_every_acknowledged_write() {
    for seed in 1..=6 {
        crash_oracle(seed, 30);
    }
}
