//! The pipeline-DAG parallel executor must be invisible to SQL: every
//! query returns the same rows at 1, 2, 3 and 8 worker threads, repeated
//! runs are bit-identical, and the cooperation clamp keeps the engine
//! polite when the host application burns CPU.

use eider::Value;
use eider_bench::{star_db, wrangling_db};

const ROWS: usize = 60_000;

/// Queries spanning every parallel sink and DAG shape: collect, simple
/// aggregate, grouped aggregate (incl. DISTINCT aggregates), spilling
/// sort, Top-N (ORDER BY + LIMIT), DISTINCT as a grouped aggregate, and
/// UNION ALL of sibling pipelines — bare and under an aggregate.
const WRANGLING_QUERIES: &[&str] = &[
    "SELECT count(*), sum(id) FROM t WHERE d <> -999",
    "SELECT min(v), max(v), avg(v), stddev(v) FROM t",
    "SELECT id, v FROM t WHERE id % 97 = 3",
    "SELECT d % 10 AS bucket, count(*), sum(id), count(DISTINCT d) FROM t \
     WHERE d <> -999 GROUP BY d % 10",
    "SELECT id FROM t WHERE id < 30000 ORDER BY id % 1000 DESC, id",
    "SELECT count(*) FROM t WHERE v > 500.0",
    "SELECT sum(DISTINCT v), count(DISTINCT d) FROM t WHERE id < 40000",
    "SELECT id FROM t ORDER BY id LIMIT 25 OFFSET 10",
    "SELECT id, v FROM t WHERE id < 20000 ORDER BY v DESC, id LIMIT 40 OFFSET 5",
    "SELECT DISTINCT d % 10 FROM t WHERE d <> -999",
    "SELECT id FROM t WHERE id < 3000 UNION ALL SELECT id FROM t WHERE id >= 57000",
    "SELECT count(*) FROM (SELECT id FROM t WHERE id < 100 UNION ALL SELECT id FROM t WHERE id >= 59900) u",
    // Sinks directly above a UNION ALL: these stream through the chunk
    // queue (grouped aggregate, DISTINCT, sort, Top-N above the union).
    "SELECT d % 10, count(*), sum(id) FROM (SELECT id, d FROM t WHERE id < 20000 \
     UNION ALL SELECT id, d FROM t WHERE id >= 40000) u GROUP BY d % 10",
    "SELECT DISTINCT d % 10 FROM (SELECT id, d FROM t WHERE id < 20000 \
     UNION ALL SELECT id, d FROM t WHERE id >= 40000) u",
    "SELECT id FROM (SELECT id FROM t WHERE id < 2000 \
     UNION ALL SELECT id FROM t WHERE id >= 58000) u ORDER BY id DESC",
    "SELECT id FROM (SELECT id FROM t WHERE id < 2000 \
     UNION ALL SELECT id FROM t WHERE id >= 58000) u ORDER BY id DESC LIMIT 30 OFFSET 3",
    // ~10k groups: past the inline-merge cutoff, so the grouped merge
    // splits into one hash partition per worker. Integer aggregates keep
    // one partial per worker (the first and the last); DOUBLE aggregates
    // keep one per morsel (DOUBLE min/max included).
    "SELECT d, count(*), sum(id), min(v), max(v) FROM t GROUP BY d",
    "SELECT d, sum(v), avg(v), count(*) FROM t GROUP BY d",
    "SELECT DISTINCT d FROM t",
    "SELECT d, count(*), sum(id), min(id), max(id) FROM t GROUP BY d",
];

fn rows_for(db: &std::sync::Arc<eider::Database>, sql: &str, threads: usize) -> Vec<Vec<Value>> {
    let conn = db.connect();
    conn.execute(&format!("PRAGMA threads = {threads}")).unwrap();
    conn.query(sql).unwrap().to_rows()
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Rows equal, allowing the parallel merge tree's last-ulp rounding
/// differences on Doubles (integer aggregates must match exactly).
fn assert_rows_close(a: &[Vec<Value>], b: &[Vec<Value>], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: row counts differ");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.len(), rb.len(), "{context}");
        for (x, y) in ra.iter().zip(rb) {
            match (x, y) {
                (Value::Double(p), Value::Double(q)) => {
                    let tolerance = 1e-9 * p.abs().max(q.abs()).max(1.0);
                    assert!((p - q).abs() <= tolerance, "{context}: {p} vs {q}");
                }
                _ => assert_eq!(x, y, "{context}"),
            }
        }
    }
}

#[test]
fn every_query_shape_is_thread_count_invariant() {
    let db = wrangling_db(ROWS, 0.25, 7).unwrap();
    for sql in WRANGLING_QUERIES {
        let serial = rows_for(&db, sql, 1);
        assert!(!serial.is_empty(), "{sql}");
        for threads in [2, 3, 8] {
            let parallel = rows_for(&db, sql, threads);
            let context = format!("{sql} (threads={threads})");
            if sql.contains("ORDER BY") {
                assert_rows_close(&parallel, &serial, &context);
            } else {
                assert_rows_close(&sorted(parallel), &sorted(serial.clone()), &context);
            }
        }
    }
}

#[test]
fn parallel_runs_are_deterministic() {
    let db = wrangling_db(ROWS, 0.25, 11).unwrap();
    for sql in WRANGLING_QUERIES {
        // Same thread count, repeated: byte-identical rows including order
        // (collect re-orders by morsel, groups come out key-sorted, sorts
        // tie-break on scan position).
        let a = rows_for(&db, sql, 4);
        let b = rows_for(&db, sql, 4);
        assert_eq!(a, b, "{sql} not deterministic at 4 threads");
        // Different thread counts also agree exactly.
        let c = rows_for(&db, sql, 2);
        assert_eq!(a, c, "{sql} differs between 4 and 2 threads");
    }
}

#[test]
fn join_with_parallel_probe_matches_serial() {
    let db = star_db(50_000, 500, 3).unwrap();
    // Fact-table probe side runs morsel-parallel against the small
    // dimension build; the grouped aggregate rides the same pipeline, so
    // its double sums carry the parallel merge tree's ±ulp (exact
    // equality across parallel thread counts is asserted below).
    let sql = "SELECT c.segment, count(*), sum(o.amount) FROM orders o \
               JOIN customers c ON o.cid = c.cid GROUP BY c.segment";
    let serial = sorted(rows_for(&db, sql, 1));
    let reference = sorted(rows_for(&db, sql, 2));
    assert_rows_close(&reference, &serial, sql);
    for threads in [3, 8] {
        assert_eq!(sorted(rows_for(&db, sql, threads)), reference, "threads={threads}");
    }
    // Join with the big table as the (morsel-parallel) build side and the
    // small one as a serially-pulled probe.
    let sql = "SELECT count(*) FROM customers c JOIN orders o ON c.cid = o.cid \
               WHERE o.amount > 250.0";
    let serial = rows_for(&db, sql, 1);
    for threads in [2, 8] {
        assert_eq!(rows_for(&db, sql, threads), serial, "threads={threads}");
    }
}

#[test]
fn limit_over_join_stays_correct_with_the_parallel_build() {
    // Under a plain LIMIT the probe streams serially with early-stop
    // semantics, while the big build side, read in full either way, still
    // hashes morsel-parallel. Probe rows arrive in scan order and matches
    // in build-entry order, so even the unsorted prefix is identical at
    // every thread count.
    let db = star_db(50_000, 500, 31).unwrap();
    let sql = "SELECT c.cid, o.oid FROM customers c JOIN orders o ON c.cid = o.cid LIMIT 20";
    let serial = rows_for(&db, sql, 1);
    assert_eq!(serial.len(), 20);
    for threads in [2, 4, 8] {
        assert_eq!(rows_for(&db, sql, threads), serial, "threads={threads}");
    }
}

#[test]
fn parallel_probe_is_deterministic_run_to_run() {
    let db = star_db(50_000, 500, 13).unwrap();
    // Probe chunks re-order by morsel sequence, so even the raw (unsorted,
    // ungrouped) join output is byte-identical across runs and thread
    // counts — including the double column.
    let sql = "SELECT o.oid, o.amount, c.segment FROM orders o \
               JOIN customers c ON o.cid = c.cid WHERE o.qty > 2";
    let a = rows_for(&db, sql, 4);
    let b = rows_for(&db, sql, 4);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same thread count must reproduce byte-identical rows");
    let c = rows_for(&db, sql, 2);
    let d = rows_for(&db, sql, 8);
    assert_eq!(a, c, "4 vs 2 threads");
    assert_eq!(a, d, "4 vs 8 threads");
}

#[test]
fn writes_interleaved_with_parallel_reads_stay_consistent() {
    let db = wrangling_db(ROWS, 0.25, 5).unwrap();
    let conn = db.connect();
    conn.execute("PRAGMA threads = 4").unwrap();
    let before = conn.query("SELECT count(*) FROM t WHERE d = -999").unwrap();
    let missing = match before.scalar().unwrap() {
        Value::BigInt(n) => n,
        other => panic!("{other:?}"),
    };
    assert!(missing > 0);
    // The §2 wrangling update, executed while parallel scans are the
    // default read path.
    conn.execute("UPDATE t SET d = NULL WHERE d = -999").unwrap();
    let after = conn.query("SELECT count(*) FROM t WHERE d IS NULL").unwrap();
    assert_eq!(after.scalar().unwrap(), Value::BigInt(missing));
    let total = conn.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(total.scalar().unwrap(), Value::BigInt(ROWS as i64));
}

#[test]
fn oversized_sorts_spill_worker_runs_instead_of_falling_back() {
    let db = wrangling_db(ROWS, 0.25, 17).unwrap();
    let conn = db.connect();
    conn.execute("PRAGMA threads = 4").unwrap();
    let sql = "SELECT id, v FROM t ORDER BY v DESC, id";
    let unconstrained = conn.query(sql).unwrap().to_rows();
    // A memory limit far below the data size: the parallel sort keeps
    // running (no serial fallback) — its workers sort bounded runs, spill
    // them through the external-sort run format, and the merge streams
    // them back. Every thread count returns the identical row order.
    conn.execute("PRAGMA memory_limit = 1000000").unwrap();
    for threads in [1, 2, 3, 8] {
        let constrained = rows_for(&db, sql, threads);
        assert_eq!(constrained.len(), ROWS, "threads={threads}");
        assert_eq!(constrained, unconstrained, "threads={threads}");
    }
    conn.execute("PRAGMA memory_limit = 1073741824").unwrap();
    assert_eq!(db.buffers().used_memory(), 0, "sort reservations all released");
}

#[test]
fn sorts_are_bit_identical_across_thread_counts_directions_and_spills() {
    // The serial sort and Top-N (threads = 1) and the DAG at 2, 4 and 8
    // workers must agree row for row: NULL placement in both directions,
    // varchar keys whose heavy ties only the scan position breaks, and
    // LIMIT/OFFSET windows whose candidates straddle chunk (2048-row) and
    // morsel boundaries — unconstrained and under a 1 MB limit that forces
    // the full sorts to spill.
    let db = wrangling_db(ROWS, 0.25, 43).unwrap();
    let conn = db.connect();
    conn.execute("UPDATE t SET d = NULL WHERE d = -999").unwrap();
    conn.execute("CREATE TABLE s (id INTEGER, tag VARCHAR, w DOUBLE)").unwrap();
    conn.execute("INSERT INTO s SELECT id, CAST(id % 13 AS VARCHAR), v FROM t").unwrap();
    let queries = [
        "SELECT id, d FROM t ORDER BY d DESC NULLS LAST, id",
        "SELECT id, d, v FROM t ORDER BY d ASC NULLS FIRST, v DESC",
        "SELECT tag, id FROM s ORDER BY tag DESC",
        "SELECT tag, w, id FROM s ORDER BY tag, w NULLS FIRST",
        "SELECT id, d FROM t ORDER BY d NULLS FIRST, id DESC LIMIT 5000 OFFSET 2040",
        "SELECT id, v FROM t ORDER BY id % 100, id DESC LIMIT 3000 OFFSET 2047",
        "SELECT tag, id FROM s ORDER BY tag LIMIT 4100 OFFSET 2000",
    ];
    for sql in queries {
        let reference = rows_for(&db, sql, 1);
        assert!(reference.len() >= 3000, "{sql}");
        for limit in [1_073_741_824, 1_000_000] {
            conn.execute(&format!("PRAGMA memory_limit = {limit}")).unwrap();
            for threads in [1, 2, 4, 8] {
                let rows = rows_for(&db, sql, threads);
                assert!(rows == reference, "{sql}: threads={threads} memory_limit={limit}");
            }
        }
        conn.execute("PRAGMA memory_limit = 1073741824").unwrap();
    }
    assert_eq!(db.buffers().used_memory(), 0, "sort reservations all released");
}

#[test]
fn topn_and_distinct_survive_tight_memory_limits() {
    let db = wrangling_db(ROWS, 0.25, 23).unwrap();
    let conn = db.connect();
    conn.execute("PRAGMA threads = 4").unwrap();
    let topn = "SELECT id, v FROM t ORDER BY v, id LIMIT 11 OFFSET 3";
    let distinct = "SELECT DISTINCT d % 25 FROM t WHERE d <> -999";
    let topn_rows = conn.query(topn).unwrap().to_rows();
    let distinct_rows = sorted(conn.query(distinct).unwrap().to_rows());
    assert_eq!(topn_rows.len(), 11);
    assert_eq!(distinct_rows.len(), 25);
    conn.execute("PRAGMA memory_limit = 2000000").unwrap();
    assert_eq!(conn.query(topn).unwrap().to_rows(), topn_rows);
    assert_eq!(sorted(conn.query(distinct).unwrap().to_rows()), distinct_rows);
    conn.execute("PRAGMA memory_limit = 1073741824").unwrap();
}

#[test]
fn union_under_aggregate_is_identical_across_thread_counts_and_memory_limits() {
    // The acceptance shape: a UNION ALL of two table scans under an
    // aggregate. Both arms stream through the bounded chunk queue into
    // the concurrently-running aggregate; integer aggregates make the
    // output exact, so every thread count must match the serial run
    // bit for bit (the parallel aggregate emits key-sorted, hence the
    // sort on both sides).
    let db = wrangling_db(ROWS, 0.25, 31).unwrap();
    let grouped = "SELECT d % 16, count(*), sum(id), min(id), max(id) FROM \
                   (SELECT id, d FROM t WHERE id < 25000 \
                    UNION ALL SELECT id, d FROM t WHERE id >= 35000) u \
                   GROUP BY d % 16";
    let simple = "SELECT count(*), sum(id) FROM \
                  (SELECT id, d FROM t WHERE id < 25000 \
                   UNION ALL SELECT id, d FROM t WHERE id >= 35000) u";
    let grouped_serial = sorted(rows_for(&db, grouped, 1));
    let simple_serial = rows_for(&db, simple, 1);
    assert_eq!(grouped_serial.len(), 17, "16 buckets plus the NULL-d bucket");
    for threads in [2, 4, 8] {
        assert_eq!(sorted(rows_for(&db, grouped, threads)), grouped_serial, "threads={threads}");
        assert_eq!(rows_for(&db, simple, threads), simple_serial, "threads={threads}");
    }
    // A 1 MB limit: queue batches, their reservations and the aggregate
    // tables all fit by spilling nothing and bounding the queue backlog;
    // results stay identical and everything is released afterwards.
    let conn = db.connect();
    conn.execute("PRAGMA memory_limit = 1000000").unwrap();
    for threads in [1, 2, 4, 8] {
        assert_eq!(sorted(rows_for(&db, grouped, threads)), grouped_serial, "threads={threads}");
    }
    conn.execute("PRAGMA memory_limit = 1073741824").unwrap();
    assert_eq!(db.buffers().used_memory(), 0, "queue/aggregate reservations all released");
}

#[test]
fn streaming_cursor_completes_results_larger_than_the_memory_limit() {
    // The acceptance shape for the streaming result path: queries whose
    // *full* result exceeds the memory limit must complete through the
    // cursor under a 1 MB buffer manager — the serial path charges one
    // in-flight chunk, the parallel path streams the root node's output
    // through a byte-bounded queue whose backpressure throttles workers —
    // with bit-identical rows at 1, 2, 4 and 8 threads.
    let db = wrangling_db(ROWS, 0.25, 37).unwrap();
    let conn = db.connect();
    const LIMIT: usize = 500_000;
    let queries = [
        // Plain scan: the whole table flows through the cursor.
        ("SELECT id, d, v FROM t", true),
        // Parallel sort: the k-way merge feeds the result edge directly.
        ("SELECT id, v FROM t ORDER BY v DESC, id", true),
        // Fused Top-N far beyond the old 100k cap: worker buffers charge
        // the ledger and spill under the tight limit instead of falling
        // back to serial.
        ("SELECT id, v FROM t ORDER BY v DESC, id LIMIT 150000 OFFSET 17", false),
        // Multi-output graph covering the whole table: both arms stream
        // into the ordered result edge, replayed in arm-major order; the
        // per-arm quota keeps the second arm from piling its (oversized)
        // result into the reorder buffer while arm 0 drains.
        (
            "SELECT id, d, v FROM t WHERE id < 30000 \
             UNION ALL SELECT id, d, v FROM t WHERE id >= 30000",
            true,
        ),
    ];
    for (sql, oversized) in queries {
        let reference = rows_for(&db, sql, 1);
        conn.execute(&format!("PRAGMA memory_limit = {LIMIT}")).unwrap();
        for threads in [1, 2, 4, 8] {
            conn.execute(&format!("PRAGMA threads = {threads}")).unwrap();
            let mut cursor = conn.query_stream(sql).unwrap();
            let mut rows = Vec::new();
            let mut result_bytes = 0usize;
            while let Some(chunk) = cursor.next_chunk().unwrap() {
                result_bytes += chunk.size_bytes();
                rows.extend(chunk.to_rows());
            }
            if oversized {
                assert!(
                    result_bytes > LIMIT,
                    "{sql}: result ({result_bytes} B) must exceed the {LIMIT} B limit \
                     for the test to mean anything"
                );
            }
            assert_eq!(rows, reference, "{sql} threads={threads}");
        }
        conn.execute("PRAGMA memory_limit = 1073741824").unwrap();
    }
    assert_eq!(db.buffers().used_memory(), 0, "every stream charge released");
}

#[test]
fn dropping_a_cursor_mid_stream_cancels_cleanly() {
    let db = wrangling_db(ROWS, 0.25, 41).unwrap();
    let conn = db.connect();
    for threads in [1, 4] {
        conn.execute(&format!("PRAGMA threads = {threads}")).unwrap();
        let mut cursor = conn.query_stream("SELECT id, d, v FROM t ORDER BY v, id").unwrap();
        // Take one chunk, abandon the rest: the parallel scheduler must
        // wind down (not leak its thread or reservations) and the
        // connection must stay usable.
        assert!(cursor.next_chunk().unwrap().is_some());
        drop(cursor);
        assert_eq!(db.buffers().used_memory(), 0, "threads={threads}: charges released");
        let again = conn.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(again.scalar().unwrap(), Value::BigInt(ROWS as i64));
    }
}

#[test]
fn host_probe_pragma_feeds_the_policy_from_proc() {
    let db = wrangling_db(ROWS, 0.25, 29).unwrap();
    let conn = db.connect();
    conn.execute("PRAGMA threads = 4").unwrap();
    // Simulated load is authoritative while the probe is off.
    db.policy().set_app_cpu_load(0.5);
    conn.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(db.policy().app_cpu_load(), 0.5, "probe off: load untouched");
    // On Linux the real probe overwrites it with a measured fraction, and
    // the memory side shrinks the effective limit toward what the machine
    // has left (never below the 1/20 floor, never above the configured
    // base).
    let configured = db.config().memory_limit;
    if conn.execute("PRAGMA host_probe = 1").is_ok() {
        let r = conn.query("SELECT count(*) FROM t WHERE d <> -999").unwrap();
        assert_eq!(r.row_count(), 1);
        let load = db.policy().app_cpu_load();
        assert!((0.0..=1.0).contains(&load), "measured load {load}");
        let effective = db.buffers().memory_limit();
        assert!(
            (configured / 20..=configured).contains(&effective),
            "effective limit {effective} outside [{}, {configured}]",
            configured / 20
        );
        conn.execute("PRAGMA host_probe = 0").unwrap();
    }
    // PRAGMA memory_limit resets the base (and the effective limit).
    conn.execute(&format!("PRAGMA memory_limit = {configured}")).unwrap();
    assert_eq!(db.buffers().memory_limit(), configured);
    db.policy().set_app_cpu_load(0.0);
}

#[test]
fn grouped_aggregate_respects_the_memory_limit() {
    let db = wrangling_db(ROWS, 0.25, 19).unwrap();
    let conn = db.connect();
    conn.execute("PRAGMA threads = 4").unwrap();
    // GROUP BY id has one group per row; at the engine's ~96 bytes/group
    // accounting that far exceeds a 2 MB budget, so the parallel
    // aggregate must abort with an error — not sail past the limit.
    conn.execute("PRAGMA memory_limit = 2000000").unwrap();
    let r = conn.query("SELECT id, count(*) FROM t GROUP BY id");
    assert!(r.is_err(), "60k-group aggregate must exceed a 2MB budget");
    assert_eq!(db.buffers().used_memory(), 0);
    // With the budget restored the same query runs.
    conn.execute("PRAGMA memory_limit = 1073741824").unwrap();
    let ok = conn.query("SELECT id, count(*) FROM t GROUP BY id").unwrap();
    assert_eq!(ok.row_count(), ROWS);
    assert_eq!(db.buffers().used_memory(), 0);
}

#[test]
fn cooperation_clamp_reduces_fanout_not_results() {
    let db = wrangling_db(ROWS, 0.25, 13).unwrap();
    let conn = db.connect();
    conn.execute("PRAGMA threads = 8").unwrap();
    let sql = "SELECT d % 5, count(*) FROM t GROUP BY d % 5";
    let relaxed = conn.query(sql).unwrap().to_rows();
    // Host app pegs the CPU: policy clamps workers to the floor of one —
    // i.e. the serial path — without changing any result.
    db.policy().set_app_cpu_load(0.99);
    assert_eq!(db.policy().worker_threads(), 1);
    let clamped = conn.query(sql).unwrap().to_rows();
    assert_eq!(sorted(relaxed), sorted(clamped));
    db.policy().set_app_cpu_load(0.5);
    assert_eq!(db.policy().worker_threads(), 4);
    let half = conn.query(sql).unwrap().to_rows();
    assert_eq!(sorted(half), sorted(conn.query(sql).unwrap().to_rows()));
}

/// Rows in one row group of an engine table.
const ROW_GROUP: usize = 60 * 2048;

/// `p (id, k, val)` over four row groups, the last one partial. `k`
/// tracks `id`, except in row group 1, whose `k` range lies far above
/// every other group's: a `k` range can prune the middle group while
/// keeping its neighbours.
fn multi_group_db() -> std::sync::Arc<eider::Database> {
    let rows = 3 * ROW_GROUP + 20_000;
    let db = eider::Database::in_memory().unwrap();
    db.connect().execute("CREATE TABLE p (id INTEGER, k INTEGER, val INTEGER)").unwrap();
    let entry = db.catalog().get_table("p").unwrap();
    let txn = std::sync::Arc::new(db.txn_manager().begin());
    let types = [eider::LogicalType::Integer; 3];
    for base in (0..rows).step_by(2048) {
        let batch: Vec<Vec<Value>> = (base..(base + 2048).min(rows))
            .map(|i| {
                let k = if i / ROW_GROUP == 1 { 1_000_000 + i } else { i };
                [i, k, i % 97].map(|x| Value::Integer(x as i32)).to_vec()
            })
            .collect();
        let chunk = eider::DataChunk::from_rows(&types, &batch).unwrap();
        entry.data.append_chunk(&txn, &chunk).unwrap();
    }
    db.commit_transaction(std::sync::Arc::try_unwrap(txn).unwrap()).unwrap();
    db
}

/// Zone-map pruning drops whole row groups before morsels are carved. A
/// row-returning scan streams through the ordered result edge, which
/// replays each arm's batches by sequence number — so the surviving
/// morsels must be numbered densely however many groups were pruned:
/// the leading group, a middle group, or both.
#[test]
fn pruned_scans_stream_every_row_at_every_thread_count() {
    let db = multi_group_db();
    for (sql, expected_rows) in [
        // Point lookups: leading group pruned, then leading and middle.
        ("SELECT id, k, val FROM p WHERE id = 150000", 1),
        ("SELECT id, k, val FROM p WHERE id = 300000", 1),
        ("SELECT id, val FROM p WHERE k = 250000", 1),
        // Range lookups spanning two groups: the leading group pruned,
        // and a gap where the middle group was pruned.
        ("SELECT id, val FROM p WHERE id BETWEEN 240000 AND 250000", 10_001),
        ("SELECT id, k FROM p WHERE k BETWEEN 100000 AND 250000", 27_121),
        // Plain projection, no LIMIT.
        ("SELECT id + 1, val * 2 FROM p WHERE id >= 250000 AND id < 270000", 20_000),
    ] {
        let serial = rows_for(&db, sql, 1);
        assert_eq!(serial.len(), expected_rows, "{sql}");
        for threads in [2, 4, 8] {
            assert_eq!(rows_for(&db, sql, threads), serial, "{sql} (threads={threads})");
        }
    }
}

/// `EXPLAIN`'s routing verdict for `sql` at `threads` workers.
fn routing_of(db: &std::sync::Arc<eider::Database>, sql: &str, threads: usize) -> String {
    let conn = db.connect();
    conn.execute(&format!("PRAGMA threads = {threads}")).unwrap();
    let plan = conn.query(&format!("EXPLAIN {sql}")).unwrap().to_rows();
    match plan.last().map(|row| &row[0]) {
        Some(Value::Varchar(line)) => line.clone(),
        other => panic!("no routing line: {other:?}"),
    }
}

/// Shapes whose heavy input now lowers onto the DAG below a serial
/// operator: Top-N over an aggregate over a join, the SELECT of an
/// `INSERT … SELECT` / `CREATE TABLE … AS SELECT`, and a UNION ALL whose
/// small arm cannot split. Each returns the same rows, in the same order,
/// at every worker count.
#[test]
fn shapes_below_serial_operators_reach_the_dag_and_stay_identical() {
    let db = star_db(50_000, 500, 41).unwrap();
    let topn = "SELECT c.name, count(*), sum(o.qty) AS q FROM orders o \
                JOIN customers c ON o.cid = c.cid GROUP BY c.name \
                ORDER BY q DESC, c.name LIMIT 10";
    assert!(routing_of(&db, topn, 4).starts_with("ROUTING parallel"), "{topn}");
    let serial = rows_for(&db, topn, 1);
    assert_eq!(serial.len(), 10);
    for threads in [2, 4, 8] {
        assert_eq!(rows_for(&db, topn, threads), serial, "{topn} (threads={threads})");
    }

    let db = multi_group_db();
    let conn = db.connect();
    conn.execute("CREATE TABLE small (id INTEGER, k INTEGER, val INTEGER)").unwrap();
    conn.execute("INSERT INTO small VALUES (-1, -1, 1), (-2, -2, 2), (-3, -3, 3)").unwrap();
    let union = "SELECT id, val FROM small UNION ALL SELECT id, val FROM p WHERE val < 5";
    assert!(routing_of(&db, union, 4).starts_with("ROUTING parallel"), "{union}");
    let serial = rows_for(&db, union, 1);
    for threads in [2, 4, 8] {
        assert_eq!(rows_for(&db, union, threads), serial, "{union} (threads={threads})");
    }

    // The written tables keep the source's scan order.
    let source = "SELECT id, k, val FROM p WHERE val <> 3";
    let expected = rows_for(&db, source, 1);
    for threads in [1, 2, 4, 8] {
        let conn = db.connect();
        conn.execute(&format!("PRAGMA threads = {threads}")).unwrap();
        conn.execute(&format!("CREATE TABLE ctas_{threads} AS {source}")).unwrap();
        conn.execute(&format!("CREATE TABLE ins_{threads} (id INTEGER, k INTEGER, val INTEGER)"))
            .unwrap();
        conn.execute(&format!("INSERT INTO ins_{threads} {source}")).unwrap();
        for table in [format!("ctas_{threads}"), format!("ins_{threads}")] {
            let written = rows_for(&db, &format!("SELECT id, k, val FROM {table}"), 1);
            assert!(written == expected, "{table} differs from its source");
        }
    }
}

/// A statement holds at most one fleet lease: under an admission limit of
/// one, a merge join of two big inputs and a UNION ALL of two big arms
/// that the chunk-queue shape rejects both lower one input onto the DAG
/// and the other at one worker, and complete.
#[test]
fn one_dag_per_statement_never_waits_on_its_own_lease() {
    let db = multi_group_db();
    let merge_join = "SELECT count(*), sum(a.val), sum(b.k) FROM p a JOIN p b ON a.id = b.k";
    let union = "SELECT count(*), sum(c) FROM \
                 (SELECT val, count(*) + 0 AS c FROM p GROUP BY val \
                  UNION ALL SELECT k % 1000, count(*) + 0 AS c FROM p WHERE id < 200000 \
                  GROUP BY k % 1000) u";
    let conn = db.connect();
    let expected: Vec<_> = [merge_join, union].map(|sql| rows_for(&db, sql, 1)).to_vec();
    conn.execute("PRAGMA admission_limit = 1").unwrap();
    // A budget too small for a hash build of `p` demotes the join to an
    // out-of-core merge join.
    conn.execute("PRAGMA memory_limit = 4000000").unwrap();
    conn.execute("PRAGMA threads = 4").unwrap();
    for (sql, expected) in [merge_join, union].iter().zip(&expected) {
        assert!(routing_of(&db, sql, 4).starts_with("ROUTING parallel"), "{sql}");
        assert_eq!(&conn.query(sql).unwrap().to_rows(), expected, "{sql}");
    }
    conn.execute("PRAGMA memory_limit = 1073741824").unwrap();
}
