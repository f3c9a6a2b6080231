//! Edge cases across the whole engine: empty inputs, NULL-heavy data,
//! boundary values, and error paths.

use eider::{Database, EiderError, Value};

fn conn() -> eider::Connection {
    Database::in_memory().unwrap().connect()
}

#[test]
fn empty_table_behaviour() {
    let c = conn();
    c.execute("CREATE TABLE e (v INTEGER, s VARCHAR)").unwrap();
    let r = c.query("SELECT count(*), sum(v), min(v), avg(v) FROM e").unwrap();
    let row = &r.to_rows()[0];
    assert_eq!(row[0], Value::BigInt(0));
    assert!(row[1].is_null() && row[2].is_null() && row[3].is_null());
    assert_eq!(c.query("SELECT * FROM e").unwrap().row_count(), 0);
    assert_eq!(c.query("SELECT * FROM e ORDER BY v LIMIT 5").unwrap().row_count(), 0);
    assert_eq!(c.execute("UPDATE e SET v = 1").unwrap(), 0);
    assert_eq!(c.execute("DELETE FROM e").unwrap(), 0);
    assert_eq!(c.query("SELECT e1.v FROM e e1 JOIN e e2 ON e1.v = e2.v").unwrap().row_count(), 0);
    let r = c.query("SELECT v, count(*) FROM e GROUP BY v").unwrap();
    assert_eq!(r.row_count(), 0, "no groups from no rows");
}

#[test]
fn all_null_column() {
    let c = conn();
    c.execute("CREATE TABLE n (v INTEGER)").unwrap();
    c.execute("INSERT INTO n VALUES (NULL), (NULL), (NULL)").unwrap();
    let r = c.query("SELECT count(*), count(v), sum(v) FROM n").unwrap();
    let row = &r.to_rows()[0];
    assert_eq!(row[0], Value::BigInt(3));
    assert_eq!(row[1], Value::BigInt(0));
    assert!(row[2].is_null());
    // Filters never match NULL.
    assert_eq!(c.query("SELECT * FROM n WHERE v = 0").unwrap().row_count(), 0);
    assert_eq!(c.query("SELECT * FROM n WHERE v <> 0").unwrap().row_count(), 0);
    assert_eq!(c.query("SELECT * FROM n WHERE v IS NULL").unwrap().row_count(), 3);
    // NULL group key forms one group.
    let r = c.query("SELECT v, count(*) FROM n GROUP BY v").unwrap();
    assert_eq!(r.row_count(), 1);
    assert_eq!(r.value(0, 1).unwrap(), Value::BigInt(3));
}

#[test]
fn boundary_integers() {
    let c = conn();
    c.execute("CREATE TABLE b (v BIGINT)").unwrap();
    c.execute(&format!("INSERT INTO b VALUES ({}), ({})", i64::MAX, i64::MIN + 1)).unwrap();
    let r = c.query("SELECT max(v), min(v) FROM b").unwrap();
    assert_eq!(r.value(0, 0).unwrap(), Value::BigInt(i64::MAX));
    assert_eq!(r.value(0, 1).unwrap(), Value::BigInt(i64::MIN + 1));
    // Overflow in an expression errors rather than wrapping.
    assert!(c.query("SELECT max(v) + 1 FROM b").is_err());
    // Narrowing cast out of range errors.
    assert!(c.query("SELECT CAST(max(v) AS INTEGER) FROM b").is_err());
}

#[test]
fn strings_with_tricky_content() {
    let c = conn();
    c.execute("CREATE TABLE s (v VARCHAR)").unwrap();
    c.execute("INSERT INTO s VALUES ('it''s'), (''), ('percent%under_score'), ('dück')").unwrap();
    assert_eq!(
        c.query("SELECT v FROM s WHERE v = 'it''s'").unwrap().scalar().unwrap(),
        Value::Varchar("it's".into())
    );
    assert_eq!(
        c.query("SELECT count(*) FROM s WHERE v LIKE '%\\%under\\_score'")
            .unwrap()
            .scalar()
            .unwrap(),
        // no escape support: % and _ are wildcards, so the pattern with
        // backslashes matches nothing
        Value::BigInt(0)
    );
    assert_eq!(
        c.query("SELECT count(*) FROM s WHERE v LIKE 'percent%'").unwrap().scalar().unwrap(),
        Value::BigInt(1)
    );
    assert_eq!(
        c.query("SELECT upper(v) FROM s WHERE v = 'dück'").unwrap().scalar().unwrap(),
        Value::Varchar("DÜCK".into())
    );
    assert_eq!(
        c.query("SELECT length(v) FROM s WHERE v = ''").unwrap().scalar().unwrap(),
        Value::BigInt(0)
    );
}

#[test]
fn limit_zero_and_huge_offset() {
    let c = conn();
    c.execute("CREATE TABLE t (v INTEGER)").unwrap();
    c.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    assert_eq!(c.query("SELECT v FROM t LIMIT 0").unwrap().row_count(), 0);
    assert_eq!(c.query("SELECT v FROM t LIMIT 10 OFFSET 100").unwrap().row_count(), 0);
    assert_eq!(c.query("SELECT v FROM t ORDER BY v LIMIT 2 OFFSET 2").unwrap().row_count(), 1);
    assert!(c.query("SELECT v FROM t LIMIT -1").is_err());
}

#[test]
fn self_join_and_alias_scoping() {
    let c = conn();
    c.execute("CREATE TABLE t (v INTEGER)").unwrap();
    c.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    let r = c.query("SELECT a.v, b.v FROM t a JOIN t b ON a.v + 1 = b.v ORDER BY a.v").unwrap();
    assert_eq!(
        r.to_rows(),
        vec![
            vec![Value::Integer(1), Value::Integer(2)],
            vec![Value::Integer(2), Value::Integer(3)]
        ]
    );
    // Unqualified v is ambiguous in a self join.
    assert!(c.query("SELECT v FROM t a JOIN t b ON a.v = b.v").is_err());
}

#[test]
fn date_and_timestamp_queries() {
    let c = conn();
    c.execute("CREATE TABLE ev (d DATE, ts TIMESTAMP)").unwrap();
    c.execute(
        "INSERT INTO ev VALUES
         (DATE '2020-01-12', TIMESTAMP '2020-01-12 09:30:00'),
         (DATE '2020-02-29', TIMESTAMP '2020-02-29 23:59:59'),
         (NULL, NULL)",
    )
    .unwrap();
    let r = c.query("SELECT count(*) FROM ev WHERE d >= DATE '2020-02-01'").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(1));
    // DATE compares against TIMESTAMP with promotion.
    let r = c.query("SELECT count(*) FROM ev WHERE ts > DATE '2020-01-12'").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(2));
    let r = c.query("SELECT min(d), max(ts) FROM ev").unwrap();
    assert_eq!(r.value(0, 0).unwrap().to_string(), "2020-01-12");
    assert_eq!(r.value(0, 1).unwrap().to_string(), "2020-02-29 23:59:59");
}

#[test]
fn transactional_ddl_and_errors() {
    let c = conn();
    assert!(c.execute("COMMIT").is_err(), "commit without begin");
    assert!(c.execute("ROLLBACK").is_err());
    c.execute("BEGIN").unwrap();
    assert!(c.execute("BEGIN").is_err(), "nested begin");
    c.execute("ROLLBACK").unwrap();
    // A statement error inside an explicit txn dooms it: later statements
    // are refused and COMMIT rolls back.
    c.execute("CREATE TABLE t (v INTEGER)").unwrap();
    c.execute("BEGIN").unwrap();
    c.execute("INSERT INTO t VALUES (1)").unwrap();
    assert!(c.execute("INSERT INTO t VALUES ('not a number')").is_err());
    assert!(matches!(c.execute("INSERT INTO t VALUES (2)"), Err(EiderError::Transaction(_))));
    assert!(matches!(c.execute("COMMIT"), Err(EiderError::Transaction(_))));
    assert!(!c.in_transaction());
    let r = c.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(0));
    // ROLLBACK ends a doomed transaction cleanly.
    c.execute("BEGIN").unwrap();
    assert!(c.execute("SELECT * FROM no_such_table").is_err());
    c.execute("ROLLBACK").unwrap();
    c.execute("INSERT INTO t VALUES (3)").unwrap();
    let r = c.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(1));
}

#[test]
fn distinct_aggregates_and_stddev() {
    let c = conn();
    c.execute("CREATE TABLE t (g INTEGER, v INTEGER)").unwrap();
    c.execute("INSERT INTO t VALUES (1, 5), (1, 5), (1, 7), (2, 5), (2, NULL)").unwrap();
    let r = c
        .query("SELECT g, count(DISTINCT v), sum(DISTINCT v) FROM t GROUP BY g ORDER BY g")
        .unwrap();
    assert_eq!(
        r.to_rows(),
        vec![
            vec![Value::Integer(1), Value::BigInt(2), Value::BigInt(12)],
            vec![Value::Integer(2), Value::BigInt(1), Value::BigInt(5)],
        ]
    );
    let r = c.query("SELECT stddev(v) FROM t WHERE g = 1").unwrap();
    if let Value::Double(sd) = r.scalar().unwrap() {
        assert!((sd - (4.0f64 / 3.0).sqrt()).abs() < 1e-9);
    } else {
        panic!("stddev should be a double");
    }
}

#[test]
fn update_to_same_value_and_noop_where() {
    let c = conn();
    c.execute("CREATE TABLE t (v INTEGER)").unwrap();
    c.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    assert_eq!(c.execute("UPDATE t SET v = v").unwrap(), 2);
    assert_eq!(c.execute("UPDATE t SET v = 9 WHERE v > 100").unwrap(), 0);
    assert_eq!(c.execute("DELETE FROM t WHERE FALSE").unwrap(), 0);
    let r = c.query("SELECT sum(v) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(3));
}

#[test]
fn case_insensitive_keywords_and_identifiers() {
    let c = conn();
    c.execute("cReAtE tAbLe MiXeD (CamelCol INTEGER)").unwrap();
    c.execute("insert into mixed values (5)").unwrap();
    let r = c.query("SELECT camelcol FROM MIXED WHERE CAMELCOL = 5").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Integer(5));
    // Quoted identifiers preserve what was written (lookups stay
    // case-insensitive in eider).
    c.execute("CREATE TABLE \"Weird Name\" (v INTEGER)").unwrap();
    c.execute("INSERT INTO \"Weird Name\" VALUES (1)").unwrap();
    let r = c.query("SELECT * FROM \"Weird Name\"").unwrap();
    assert_eq!(r.row_count(), 1);
}

#[test]
fn deeply_nested_expressions() {
    let c = conn();
    // Within the nesting limit: evaluates fine.
    let mut expr = String::from("1");
    for _ in 0..40 {
        expr = format!("({expr} + 1)");
    }
    let r = c.query(&format!("SELECT {expr}")).unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(41));
    // Beyond the limit: a clean parse error, not a stack overflow
    // (hostile/corrupt inputs must never abort the host process, §3).
    let mut expr = String::from("1");
    for _ in 0..500 {
        expr = format!("({expr} + 1)");
    }
    let err = c.query(&format!("SELECT {expr}")).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
}

#[test]
fn wide_table_many_columns() {
    let c = conn();
    let cols: Vec<String> = (0..64).map(|i| format!("c{i} INTEGER")).collect();
    c.execute(&format!("CREATE TABLE wide ({})", cols.join(","))).unwrap();
    let vals: Vec<String> = (0..64).map(|i| i.to_string()).collect();
    c.execute(&format!("INSERT INTO wide VALUES ({})", vals.join(","))).unwrap();
    let r = c.query("SELECT c0, c31, c63 FROM wide").unwrap();
    assert_eq!(r.to_rows()[0], vec![Value::Integer(0), Value::Integer(31), Value::Integer(63)]);
    // Update one column; the other 63 stay untouched (§2's column-wise
    // update requirement).
    c.execute("UPDATE wide SET c31 = -1").unwrap();
    let r = c.query("SELECT c30, c31, c32 FROM wide").unwrap();
    assert_eq!(r.to_rows()[0], vec![Value::Integer(30), Value::Integer(-1), Value::Integer(32)]);
}
