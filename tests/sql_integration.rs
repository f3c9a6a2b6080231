//! Cross-crate integration tests: the full SQL surface against the
//! complete engine stack.

use eider::{Database, Value};

fn db() -> std::sync::Arc<Database> {
    Database::in_memory().unwrap()
}

#[test]
fn scalar_expressions_and_functions() {
    let conn = db().connect();
    let cases: Vec<(&str, Value)> = vec![
        ("SELECT 1 + 2 * 3", Value::BigInt(7)),
        ("SELECT 10 / 4", Value::Double(2.5)),
        ("SELECT 10 % 3", Value::BigInt(1)),
        ("SELECT -5", Value::BigInt(-5)),
        ("SELECT 'a' || 'b' || 1", Value::Varchar("ab1".into())),
        ("SELECT upper('quack')", Value::Varchar("QUACK".into())),
        ("SELECT substr('embedded', 1, 5)", Value::Varchar("embed".into())),
        ("SELECT length('analytics')", Value::BigInt(9)),
        ("SELECT abs(-42)", Value::BigInt(42)),
        ("SELECT round(2.567, 2)", Value::Double(2.57)),
        ("SELECT coalesce(NULL, NULL, 3)", Value::Integer(3)),
        ("SELECT nullif(5, 5)", Value::Null),
        ("SELECT CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END", Value::Varchar("b".into())),
        ("SELECT CAST('17' AS INTEGER)", Value::Integer(17)),
        ("SELECT CAST(DATE '2020-01-12' AS VARCHAR)", Value::Varchar("2020-01-12".into())),
        ("SELECT 3 BETWEEN 1 AND 5", Value::Boolean(true)),
        ("SELECT 7 IN (1, 2, 3)", Value::Boolean(false)),
        ("SELECT 'duckdb' LIKE '%uck%'", Value::Boolean(true)),
        ("SELECT NULL IS NULL", Value::Boolean(true)),
        ("SELECT 1 = 1 AND NULL IS NOT NULL", Value::Boolean(false)),
        ("SELECT sqrt(16.0)", Value::Double(4.0)),
    ];
    for (sql, expected) in cases {
        let r = conn.query(sql).unwrap();
        assert_eq!(r.scalar().unwrap(), expected, "{sql}");
    }
}

#[test]
fn null_propagation() {
    let conn = db().connect();
    for sql in [
        "SELECT 1 + NULL",
        "SELECT NULL = NULL",
        "SELECT NULL AND TRUE",
        "SELECT upper(NULL)",
        "SELECT 1 / 0", // division by zero is NULL in eider
    ] {
        let r = conn.query(sql).unwrap();
        assert!(r.scalar().unwrap().is_null(), "{sql}");
    }
}

#[test]
fn group_by_having_order_limit() {
    let conn = db().connect();
    conn.execute("CREATE TABLE sales (region VARCHAR, amount INTEGER)").unwrap();
    conn.execute(
        "INSERT INTO sales VALUES
         ('n', 10), ('n', 20), ('s', 1), ('s', 2), ('e', 100), ('w', 5), ('w', NULL)",
    )
    .unwrap();
    let r = conn
        .query(
            "SELECT region, sum(amount) AS total, count(*) AS n
             FROM sales GROUP BY region
             HAVING sum(amount) > 2
             ORDER BY total DESC LIMIT 2",
        )
        .unwrap();
    let rows = r.to_rows();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::Varchar("e".into()));
    assert_eq!(rows[0][1], Value::BigInt(100));
    assert_eq!(rows[1][0], Value::Varchar("n".into()));
    assert_eq!(rows[1][1], Value::BigInt(30));
}

#[test]
fn join_varieties() {
    let conn = db().connect();
    conn.execute("CREATE TABLE a (x INTEGER, tag VARCHAR)").unwrap();
    conn.execute("CREATE TABLE b (x INTEGER, val INTEGER)").unwrap();
    conn.execute("INSERT INTO a VALUES (1, 'one'), (2, 'two'), (3, 'three')").unwrap();
    conn.execute("INSERT INTO b VALUES (1, 10), (1, 11), (3, 30), (4, 40)").unwrap();

    let r = conn.query("SELECT count(*) FROM a JOIN b ON a.x = b.x").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(3));

    let r = conn.query("SELECT count(*) FROM a LEFT JOIN b ON a.x = b.x").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(4)); // 2 for x=1, 1 for x=3, null-padded x=2

    let r = conn.query("SELECT count(*) FROM a, b").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(12));

    // Inequality join goes through the nested-loop operator:
    // a={1,2,3}, b={1,1,3,4}: pairs with a.x < b.x are (1,3),(1,4),(2,3),(2,4),(3,4).
    let r = conn.query("SELECT count(*) FROM a JOIN b ON a.x < b.x").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(5));

    // Semi/anti via IN / NOT IN subqueries.
    let r = conn.query("SELECT tag FROM a WHERE x IN (SELECT x FROM b) ORDER BY tag").unwrap();
    assert_eq!(
        r.to_rows(),
        vec![vec![Value::Varchar("one".into())], vec![Value::Varchar("three".into())]]
    );
    let r = conn.query("SELECT tag FROM a WHERE x NOT IN (SELECT x FROM b)").unwrap();
    assert_eq!(r.to_rows(), vec![vec![Value::Varchar("two".into())]]);
    let r =
        conn.query("SELECT count(*) FROM a WHERE EXISTS(SELECT 1 FROM b WHERE val > 35)").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(3));
}

#[test]
fn distinct_union_cte_views() {
    let conn = db().connect();
    conn.execute("CREATE TABLE t (v INTEGER)").unwrap();
    conn.execute("INSERT INTO t VALUES (1), (1), (2), (3), (3), (3)").unwrap();
    let r = conn.query("SELECT DISTINCT v FROM t ORDER BY v").unwrap();
    assert_eq!(r.row_count(), 3);

    let r = conn.query("SELECT v FROM t UNION SELECT v + 10 FROM t ORDER BY 1").unwrap();
    assert_eq!(r.row_count(), 6); // {1,2,3,11,12,13}

    let r =
        conn.query("WITH big AS (SELECT v FROM t WHERE v >= 2) SELECT count(*) FROM big").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(4));

    conn.execute("CREATE VIEW doubled AS SELECT v * 2 AS d FROM t").unwrap();
    let r = conn.query("SELECT max(d) FROM doubled").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(6));
    conn.execute("DROP VIEW doubled").unwrap();
    assert!(conn.query("SELECT * FROM doubled").is_err());
}

#[test]
fn subquery_in_from_and_ctas() {
    let conn = db().connect();
    conn.execute("CREATE TABLE t (v INTEGER)").unwrap();
    conn.execute("INSERT INTO t VALUES (1), (2), (3), (4)").unwrap();
    let r = conn
        .query("SELECT avg(sq.doubled) FROM (SELECT v * 2 AS doubled FROM t WHERE v > 1) sq")
        .unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Double(6.0));

    conn.execute("CREATE TABLE big AS SELECT v, v * v AS sq FROM t WHERE v >= 3").unwrap();
    let r = conn.query("SELECT sum(sq) FROM big").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(25));
}

#[test]
fn insert_defaults_and_constraints() {
    let conn = db().connect();
    conn.execute("CREATE TABLE items (id INTEGER NOT NULL, qty INTEGER DEFAULT 1, note VARCHAR)")
        .unwrap();
    conn.execute("INSERT INTO items (id) VALUES (7)").unwrap();
    let r = conn.query("SELECT id, qty, note FROM items").unwrap();
    assert_eq!(r.to_rows()[0], vec![Value::Integer(7), Value::Integer(1), Value::Null]);
    let err = conn.execute("INSERT INTO items (id) VALUES (NULL)").unwrap_err();
    assert!(err.to_string().contains("NOT NULL"), "{err}");
    // Failed statement rolled back: nothing extra in the table.
    let r = conn.query("SELECT count(*) FROM items").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(1));
}

#[test]
fn update_delete_with_expressions() {
    let conn = db().connect();
    conn.execute("CREATE TABLE acc (id INTEGER, bal DOUBLE)").unwrap();
    conn.execute("INSERT INTO acc VALUES (1, 100.0), (2, 50.0), (3, 10.0)").unwrap();
    // Expression referencing the old value.
    conn.execute("UPDATE acc SET bal = bal * 1.1 WHERE bal >= 50").unwrap();
    let r = conn.query("SELECT round(sum(bal), 2) FROM acc").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Double(175.0));
    let n = conn.execute("DELETE FROM acc WHERE bal < 20").unwrap();
    assert_eq!(n, 1);
    let r = conn.query("SELECT count(*) FROM acc").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(2));
}

#[test]
fn multi_column_update_single_statement() {
    let conn = db().connect();
    conn.execute("CREATE TABLE p (x INTEGER, y INTEGER, z VARCHAR)").unwrap();
    conn.execute("INSERT INTO p VALUES (1, 2, 'a'), (3, 4, 'b')").unwrap();
    conn.execute("UPDATE p SET x = x + y, y = 0 WHERE z = 'b'").unwrap();
    let r = conn.query("SELECT x, y FROM p WHERE z = 'b'").unwrap();
    assert_eq!(r.to_rows()[0], vec![Value::Integer(7), Value::Integer(0)]);
}

#[test]
fn order_by_nulls_and_directions() {
    let conn = db().connect();
    conn.execute("CREATE TABLE t (v INTEGER)").unwrap();
    conn.execute("INSERT INTO t VALUES (2), (NULL), (1), (3)").unwrap();
    let r = conn.query("SELECT v FROM t ORDER BY v").unwrap();
    let vals: Vec<Value> = r.to_rows().into_iter().map(|mut r| r.remove(0)).collect();
    assert_eq!(vals[0], Value::Integer(1));
    assert!(vals[3].is_null(), "NULLS LAST by default");
    let r = conn.query("SELECT v FROM t ORDER BY v DESC NULLS LAST LIMIT 1").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Integer(3));
}

#[test]
fn large_scale_aggregation_across_row_groups() {
    // More rows than one row group (122880) exercises multi-group scans.
    let conn = db().connect();
    conn.execute("CREATE TABLE big (v INTEGER)").unwrap();
    for batch in 0..13 {
        let rows: Vec<String> = (0..10_000).map(|i| format!("({})", batch * 10_000 + i)).collect();
        conn.execute(&format!("INSERT INTO big VALUES {}", rows.join(","))).unwrap();
    }
    let r = conn.query("SELECT count(*), sum(v), min(v), max(v) FROM big").unwrap();
    let row = &r.to_rows()[0];
    assert_eq!(row[0], Value::BigInt(130_000));
    assert_eq!(row[1], Value::BigInt((0..130_000i64).sum()));
    assert_eq!(row[2], Value::Integer(0));
    assert_eq!(row[3], Value::Integer(129_999));
}

#[test]
fn planner_estimates_track_table_mutations() {
    // Table stats are computed on demand from live storage metadata, so
    // EXPLAIN estimates must follow appends immediately, stay conservative
    // (never undercount live rows) across deletes and rollbacks, and the
    // plans built from stale-looking estimates must still return exact
    // results.
    let conn = db().connect();
    conn.execute("CREATE TABLE s (id INTEGER, v INTEGER)").unwrap();
    let scan_est = |sql: &str| -> i64 {
        let plan = conn.query(&format!("EXPLAIN {sql}")).unwrap();
        for row in plan.to_rows() {
            if let Value::Varchar(line) = &row[0] {
                if line.contains("SCAN s") {
                    let est = line.split("est=").nth(1).expect("scan line carries an estimate");
                    return est.trim().parse().unwrap();
                }
            }
        }
        panic!("no SCAN s line");
    };
    let count = |sql: &str| -> i64 {
        match conn.query(sql).unwrap().scalar().unwrap() {
            Value::BigInt(n) => n,
            other => panic!("unexpected {other:?}"),
        }
    };

    assert_eq!(scan_est("SELECT count(*) FROM s"), 0, "empty table");

    // Appends are visible to the next plan without any ANALYZE step.
    let rows: Vec<String> = (0..1000).map(|i| format!("({i}, {})", i % 10)).collect();
    conn.execute(&format!("INSERT INTO s VALUES {}", rows.join(","))).unwrap();
    assert_eq!(scan_est("SELECT count(*) FROM s"), 1000);
    conn.execute(&format!("INSERT INTO s VALUES {}", rows.join(","))).unwrap();
    assert_eq!(scan_est("SELECT count(*) FROM s"), 2000);

    // Deleted rows may linger in the estimate (group row counts are not
    // compacted eagerly) but must never make it *undercount* live rows,
    // and execution stays exact.
    conn.execute("DELETE FROM s WHERE id >= 500").unwrap();
    assert_eq!(count("SELECT count(*) FROM s"), 1000);
    assert!(scan_est("SELECT count(*) FROM s") >= 1000, "estimate undercounts after delete");

    // A rolled-back append must not leave permanent rows behind; the
    // post-rollback estimate stays within the pre-rollback bound and the
    // results are exact.
    let before = scan_est("SELECT count(*) FROM s");
    conn.execute("BEGIN").unwrap();
    conn.execute(&format!("INSERT INTO s VALUES {}", rows.join(","))).unwrap();
    conn.execute("ROLLBACK").unwrap();
    assert_eq!(count("SELECT count(*) FROM s"), 1000);
    assert!(
        scan_est("SELECT count(*) FROM s") >= before,
        "estimate must stay conservative after rollback"
    );

    // Estimates feed filter selectivity too: zone maps know id's live
    // range, so a predicate outside it estimates (near) zero while an
    // in-range one does not — and both execute correctly.
    assert_eq!(count("SELECT count(*) FROM s WHERE id < 100"), 200);
    assert!(
        scan_est("SELECT count(*) FROM s WHERE id < 100")
            < scan_est("SELECT count(*) FROM s WHERE id < 2000"),
        "narrower range must estimate fewer rows"
    );
}

#[test]
fn streaming_cursor_shares_an_explicit_transaction() {
    let conn = db().connect();
    conn.execute("CREATE TABLE t (x INTEGER)").unwrap();
    conn.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO t VALUES (4)").unwrap();
    // The cursor reads under the open transaction: it sees the
    // uncommitted row.
    let mut cursor = conn.query_stream("SELECT count(*) FROM t").unwrap();
    let first = cursor.next_chunk().unwrap().unwrap();
    assert_eq!(first.column(0).get_value(0), Value::BigInt(4));
    // Committing while the stream is open must fail — the cursor still
    // holds a reference to the transaction.
    let err = conn.execute("COMMIT").unwrap_err();
    assert!(err.to_string().contains("still open"), "{err}");
    drop(cursor);
    conn.execute("COMMIT").unwrap();
    let r = conn.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(4));
}

#[test]
fn streaming_cursor_wraps_non_query_statements() {
    let conn = db().connect();
    // DDL/DML through query_stream: the statement executes eagerly and
    // the (small) result replays through the cursor.
    let mut cursor = conn.query_stream("CREATE TABLE t (x INTEGER)").unwrap();
    assert!(cursor.next_chunk().unwrap().is_none());
    let mut cursor = conn.query_stream("INSERT INTO t VALUES (5), (6)").unwrap();
    assert_eq!(cursor.column_names(), ["Count"]);
    let chunk = cursor.next_chunk().unwrap().unwrap();
    assert_eq!(chunk.column(0).get_value(0), Value::BigInt(2));
    assert!(cursor.next_chunk().unwrap().is_none());
    // Multi-statement strings: earlier statements run to completion, the
    // last one streams.
    let mut cursor =
        conn.query_stream("INSERT INTO t VALUES (7); SELECT x FROM t ORDER BY x").unwrap();
    let mut values = Vec::new();
    while let Some(chunk) = cursor.next_chunk().unwrap() {
        for row in 0..chunk.len() {
            values.push(chunk.column(0).get_value(row));
        }
    }
    assert_eq!(values, vec![Value::Integer(5), Value::Integer(6), Value::Integer(7)]);
}

#[test]
fn streaming_cursor_surfaces_mid_stream_errors_and_recovers() {
    let conn = db().connect();
    conn.execute("CREATE TABLE t (x INTEGER)").unwrap();
    let rows: Vec<String> = (0..20_000).map(|i| format!("({i})")).collect();
    conn.execute(&format!("INSERT INTO t VALUES {}", rows.join(","))).unwrap();
    // The second union arm overflows (x * i64::MAX): the first arm
    // streams fine, then the error must surface from next_chunk, the
    // auto-commit transaction roll back, and the connection keep working.
    let mut cursor = conn
        .query_stream(
            "SELECT x FROM t WHERE x < 1000 \
             UNION ALL SELECT x * 9223372036854775807 FROM t",
        )
        .unwrap();
    let mut saw_error = false;
    loop {
        match cursor.next_chunk() {
            Ok(Some(_)) => continue,
            Ok(None) => break,
            Err(_) => {
                saw_error = true;
                break;
            }
        }
    }
    assert!(saw_error, "the multiplication overflow must surface through the stream");
    drop(cursor);
    assert!(!conn.in_transaction());
    let r = conn.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::BigInt(20_000));
}

fn count_where(conn: &eider::Connection, from: &str, predicate: &str) -> Value {
    conn.query(&format!("SELECT count(*) FROM {from} WHERE {predicate}")).unwrap().scalar().unwrap()
}

/// NaN never enters a zone map. It compares equal to every number, so a
/// NaN first in its row group used to freeze the map at `[NaN, NaN]`:
/// `x > 5` and `x < 5` pruned the group and lost the 7.0 and 1.0 rows.
#[test]
fn nan_does_not_freeze_zone_maps() {
    for rows in ["(CAST('NaN' AS DOUBLE)), (1.0), (7.0)", "(1.0), (CAST('NaN' AS DOUBLE)), (7.0)"] {
        let conn = db().connect();
        conn.execute("CREATE TABLE t (x DOUBLE)").unwrap();
        conn.execute(&format!("INSERT INTO t VALUES {rows}")).unwrap();
        assert_eq!(count_where(&conn, "t", "x > 5"), Value::BigInt(1), "{rows}");
        assert_eq!(count_where(&conn, "t", "x < 5"), Value::BigInt(1), "{rows}");
    }
}

/// An UPDATE writing NaN into a group whose column is all NULL must leave
/// the zone map empty, so later appends still widen it.
#[test]
fn nan_update_into_all_null_group_keeps_zone_map_open() {
    let conn = db().connect();
    conn.execute("CREATE TABLE t (id INTEGER, x DOUBLE)").unwrap();
    conn.execute("INSERT INTO t VALUES (1, NULL), (2, NULL)").unwrap();
    conn.execute("UPDATE t SET x = CAST('NaN' AS DOUBLE) WHERE id = 1").unwrap();
    conn.execute("INSERT INTO t VALUES (3, 1.0), (4, 7.0)").unwrap();
    assert_eq!(count_where(&conn, "t", "x > 5"), Value::BigInt(1));
    assert_eq!(count_where(&conn, "t", "x < 5"), Value::BigInt(1));
}

/// `read_arrow` prunes record batches on the footer's min/max, which the
/// export computes with the same kernel as zone maps: NaN stays out.
#[test]
fn nan_does_not_freeze_arrow_batch_stats() {
    let conn = db().connect();
    conn.execute("CREATE TABLE t (x DOUBLE)").unwrap();
    conn.execute("INSERT INTO t VALUES (CAST('NaN' AS DOUBLE)), (1.0), (7.0)").unwrap();
    let path = std::env::temp_dir().join(format!("eider_nan_stats_{}.arrow", std::process::id()));
    let out = std::fs::File::create(&path).unwrap();
    conn.query_stream("SELECT x FROM t").unwrap().export_arrow_ipc(out).unwrap();
    let from = format!("read_arrow('{}')", path.display());
    let (gt, lt) = (count_where(&conn, &from, "x > 5"), count_where(&conn, &from, "x < 5"));
    std::fs::remove_file(&path).unwrap();
    assert_eq!(gt, Value::BigInt(1));
    assert_eq!(lt, Value::BigInt(1));
}
