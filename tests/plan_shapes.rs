//! Golden plan-shape tests over `EXPLAIN` output: the optimizer's
//! externally visible contract. Filter pushdown, column pruning, limit
//! placement, cost-based join order, build-side placement and the
//! physical routing verdict are all asserted against the printed plan —
//! the same text a user sees — rather than against internal plan
//! accessors.
//!
//! Fixture: a 10 000-row `fact` table with three dimension keys, and
//! dimension tables of 50/20/10 rows. Estimates come from live table
//! statistics (zone maps + encoding metadata), so the asserted orders are
//! exactly what a user gets on this data.

use eider::{Connection, Database, Value};
use std::sync::{Arc, OnceLock};

fn db() -> Arc<Database> {
    Database::in_memory().unwrap()
}

/// Run `EXPLAIN <sql>` and return the printed plan as one string.
fn explain(conn: &Connection, sql: &str) -> String {
    let result = conn.query(&format!("EXPLAIN {sql}")).unwrap();
    let mut out = String::new();
    for chunk in result.chunks() {
        for row in chunk.to_rows() {
            if let Value::Varchar(line) = &row[0] {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// Line index of the first line containing `needle`.
fn line_of(plan: &str, needle: &str) -> usize {
    plan.lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("no line contains {needle:?} in:\n{plan}"))
}

/// Scan table names in print order — the join tree's left-deep leaf order
/// (probe chain root first, builds in join order after it).
fn scan_order(plan: &str) -> Vec<String> {
    plan.lines()
        .filter_map(|l| l.trim_start().strip_prefix("SCAN "))
        .map(|rest| rest.split_whitespace().next().unwrap().to_string())
        .collect()
}

/// Bulk-load `n` rows produced by `row` (comma-joined value lists) in
/// batched multi-row INSERTs.
fn load(conn: &Connection, table: &str, n: usize, row: impl Fn(usize) -> String) {
    for base in (0..n).step_by(1000) {
        let hi = (base + 1000).min(n);
        let values: Vec<String> = (base..hi).map(|i| format!("({})", row(i))).collect();
        conn.execute(&format!("INSERT INTO {table} VALUES {}", values.join(","))).unwrap();
    }
}

const FACT_ROWS: usize = 10_000;

/// Shared star-schema fixture. Built once per test binary — every test
/// only reads it (PRAGMAs are per-connection), so sharing is safe and
/// keeps the suite fast.
fn star_fixture() -> Arc<Database> {
    static FIXTURE: OnceLock<Arc<Database>> = OnceLock::new();
    FIXTURE
        .get_or_init(|| {
            let db = db();
            let conn = db.connect();
            conn.execute("CREATE TABLE fact (id INTEGER, d1 INTEGER, d2 INTEGER, v INTEGER)")
                .unwrap();
            conn.execute("CREATE TABLE dim1 (id INTEGER, name VARCHAR)").unwrap();
            conn.execute("CREATE TABLE dim2 (id INTEGER, name VARCHAR)").unwrap();
            conn.execute("CREATE TABLE dim3 (id INTEGER, name VARCHAR)").unwrap();
            load(&conn, "fact", FACT_ROWS, |i| format!("{i}, {}, {}, {i}", i % 50, i % 20));
            load(&conn, "dim1", 50, |i| format!("{i}, 'd1_{i}'"));
            load(&conn, "dim2", 20, |i| format!("{i}, 'd2_{i}'"));
            load(&conn, "dim3", 10, |i| format!("{i}, 'd3_{i}'"));
            db
        })
        .clone()
}

#[test]
fn filters_push_into_scans_and_through_joins() {
    let db = star_fixture();
    let conn = db.connect();

    // Both conjuncts leave the plan and land on the scan.
    let plan = explain(&conn, "SELECT * FROM fact WHERE v > 100 AND id < 500");
    assert!(!plan.contains("FILTER"), "no residual filter expected:\n{plan}");
    assert!(plan.contains("SCAN fact cols=[0, 1, 2, 3] filters=2"), "{plan}");

    // A fact-side predicate written above a join sinks through the join
    // into the fact scan; the dimension scan keeps filters=0.
    let plan = explain(
        &conn,
        "SELECT fact.v, dim1.name FROM dim1 JOIN fact ON dim1.id = fact.d1 WHERE fact.v < 100",
    );
    assert!(!plan.contains("FILTER"), "predicate should reach the scan:\n{plan}");
    // The join inputs read only the join keys and the selected columns;
    // the pushed filter on fact.v addresses its physical id.
    assert!(plan.contains("SCAN fact cols=[1, 3] filters=1"), "{plan}");
    assert!(plan.contains("SCAN dim1 cols=[0, 1] filters=0"), "{plan}");

    // Complex predicates (OR of columns) stay as residual FILTER nodes.
    let plan = explain(&conn, "SELECT * FROM fact WHERE v > 100 OR id < 500");
    assert!(plan.contains("FILTER"), "{plan}");
    assert!(plan.contains("filters=0"), "{plan}");
}

#[test]
fn scans_read_only_referenced_columns() {
    let db = star_fixture();
    let conn = db.connect();

    // Aggregate over one column: the scan narrows to it.
    let plan = explain(&conn, "SELECT sum(v) FROM fact");
    assert!(plan.contains("SCAN fact cols=[3]"), "{plan}");

    // Bare count(*): the narrowest (non-varchar) column is kept so chunks
    // still carry row counts.
    let plan = explain(&conn, "SELECT count(*) FROM fact");
    assert_eq!(plan.matches("SCAN").count(), 1, "{plan}");
    assert!(plan.contains("SCAN fact cols=[0]"), "{plan}");
}

#[test]
fn limit_stays_fused_above_sort_for_topn() {
    let db = star_fixture();
    let conn = db.connect();
    // LIMIT sinks through projections but never through SORT: the
    // physical planner fuses LIMIT-over-SORT into a bounded Top-N.
    let plan = explain(&conn, "SELECT a FROM (SELECT v AS a FROM fact) sub ORDER BY a LIMIT 5");
    assert!(line_of(&plan, "LIMIT 5") < line_of(&plan, "SORT"), "{plan}");
}

#[test]
fn three_table_chain_reorders_fact_to_probe_root() {
    let db = star_fixture();
    let conn = db.connect();
    // Syntactic order hashes the 10 000-row fact table as the innermost
    // build; the reorderer flips fact to the probe root with both
    // dimensions as builds.
    let plan = explain(
        &conn,
        "SELECT count(*) FROM dim1 JOIN fact ON dim1.id = fact.d1 \
         JOIN dim2 ON fact.d2 = dim2.id",
    );
    assert_eq!(scan_order(&plan), ["fact", "dim1", "dim2"], "{plan}");
    assert_eq!(plan.matches("build=right").count(), 2, "{plan}");
}

#[test]
fn star_shape_comma_joins_become_equi_joins_fact_first() {
    let db = star_fixture();
    let conn = db.connect();
    // Comma-list star: the equality predicates live in a WHERE above a
    // cross-join region. The reorderer absorbs them as join edges — no
    // CROSS_JOIN survives, fact is the probe root, and every dimension
    // hashes as a build side.
    let plan = explain(
        &conn,
        "SELECT count(*) FROM dim1, dim2, dim3, fact \
         WHERE dim1.id = fact.d1 AND dim2.id = fact.d2 AND dim3.id = fact.d2",
    );
    assert!(!plan.contains("CROSS_JOIN"), "{plan}");
    assert_eq!(plan.matches("JOIN Inner").count(), 3, "{plan}");
    let order = scan_order(&plan);
    assert_eq!(order[0], "fact", "fact must be the probe root:\n{plan}");
    assert_eq!(order.len(), 4, "{plan}");
}

#[test]
fn five_table_chain_avoids_big_table_as_inner_build() {
    let db = db();
    let conn = db.connect();
    conn.execute("CREATE TABLE big (id INTEGER, k1 INTEGER)").unwrap();
    conn.execute("CREATE TABLE m1 (id INTEGER, k2 INTEGER)").unwrap();
    conn.execute("CREATE TABLE m2 (id INTEGER, k3 INTEGER)").unwrap();
    conn.execute("CREATE TABLE m3 (id INTEGER, k4 INTEGER)").unwrap();
    conn.execute("CREATE TABLE m4 (id INTEGER)").unwrap();
    load(&conn, "big", FACT_ROWS, |i| format!("{i}, {}", i % 200));
    load(&conn, "m1", 200, |i| format!("{i}, {}", i % 100));
    load(&conn, "m2", 100, |i| format!("{i}, {}", i % 50));
    load(&conn, "m3", 50, |i| format!("{i}, {}", i % 10));
    load(&conn, "m4", 10, |i| format!("{i}"));
    // Chain big—m1—m2—m3—m4, written so the syntactic plan hashes the
    // 10 000-row table as the very first build. The cost-based order must
    // move `big` out of that position; with chain selectivities the DP
    // walks the chain from the small end and leaves `big` as the last,
    // unavoidable build.
    let plan = explain(
        &conn,
        "SELECT count(*) FROM m1 JOIN big ON m1.id = big.k1 \
         JOIN m2 ON m1.k2 = m2.id JOIN m3 ON m2.k3 = m3.id JOIN m4 ON m3.k4 = m4.id",
    );
    let order = scan_order(&plan);
    assert_eq!(order.len(), 5, "{plan}");
    assert_ne!(order[1], "big", "big must not stay the innermost build:\n{plan}");
    // The DP walks the chain from its small end; whichever small-table
    // permutation wins, `big` must end up as the final (outermost) build,
    // where its 10 000 rows are hashed exactly once against a tiny
    // probe stream instead of being re-materialized through every join.
    assert_eq!(order[4], "big", "{plan}");
}

#[test]
fn build_side_flips_under_skewed_input_sizes() {
    let db = star_fixture();
    let conn = db.connect();
    // Small JOIN big: flipped so the big table probes and the small one
    // is hashed (the physical join always builds its right input).
    let flipped = explain(&conn, "SELECT count(*) FROM dim1 JOIN fact ON dim1.id = fact.d1");
    assert_eq!(scan_order(&flipped), ["fact", "dim1"], "{flipped}");
    assert!(flipped.contains("build=right"), "{flipped}");

    // Big JOIN small is already optimal: the syntactic order is kept.
    let kept = explain(&conn, "SELECT count(*) FROM fact JOIN dim1 ON fact.d1 = dim1.id");
    assert_eq!(scan_order(&kept), ["fact", "dim1"], "{kept}");
}

#[test]
fn estimates_are_stats_driven() {
    let db = star_fixture();
    let conn = db.connect();

    // Unfiltered scan: the estimate is the exact row count.
    let plan = explain(&conn, "SELECT sum(v) FROM fact");
    assert!(plan.contains(&format!("SCAN fact cols=[3] filters=0 est={FACT_ROWS}")), "{plan}");

    // Range filter: zone maps bound v to [0, 19999]; `v < 100` must
    // estimate close to its true 100 rows, not the 1/3 default.
    let plan = explain(&conn, "SELECT * FROM fact WHERE v < 100");
    let est: u64 = plan
        .lines()
        .find(|l| l.contains("SCAN fact"))
        .and_then(|l| l.split("est=").nth(1))
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| panic!("no est on scan line:\n{plan}"));
    assert!((50..=500).contains(&est), "range selectivity should be interpolated: {est}\n{plan}");

    // FK join: |fact| × |dim| / ndv(key) = 20000 exactly.
    let plan = explain(&conn, "SELECT count(*) FROM dim1 JOIN fact ON dim1.id = fact.d1");
    assert!(plan.contains(&format!("JOIN Inner keys=1 build=right est={FACT_ROWS}")), "{plan}");
}

#[test]
fn routing_thresholds_follow_estimated_rows() {
    let db = star_fixture();
    let conn = db.connect();
    conn.execute("PRAGMA threads=4").unwrap();

    // Large scan: morsel-parallel DAG.
    let plan = explain(&conn, "SELECT sum(v) FROM fact");
    assert!(plan.contains("ROUTING parallel threads=4"), "{plan}");

    // Tiny table: fan-out would not earn its dispatch cost.
    let plan = explain(&conn, "SELECT sum(id) FROM dim1");
    assert!(plan.contains("ROUTING serial"), "{plan}");

    // Zone maps prove the filter matches nothing: every row group is
    // pruned at planning time and the query routes serial despite the
    // table's 10 000 rows.
    let plan = explain(&conn, "SELECT sum(v) FROM fact WHERE id < -100");
    assert!(plan.contains("ROUTING serial"), "{plan}");

    // One worker: everything routes serial.
    conn.execute("PRAGMA threads=1").unwrap();
    let plan = explain(&conn, "SELECT sum(v) FROM fact");
    assert!(plan.contains("ROUTING serial"), "{plan}");
}

#[test]
fn optimizer_pragma_restores_syntactic_plans() {
    let db = star_fixture();
    let conn = db.connect();
    let sql = "SELECT count(*) FROM dim1 JOIN fact ON dim1.id = fact.d1 WHERE fact.v < 100";

    conn.execute("PRAGMA optimizer=0").unwrap();
    assert_eq!(
        conn.query("PRAGMA optimizer").unwrap().scalar().unwrap(),
        Value::BigInt(0),
        "pragma must read back"
    );
    let raw = explain(&conn, sql);
    // Syntactic join order, filter left in the plan, nothing pushed.
    assert_eq!(scan_order(&raw), ["dim1", "fact"], "{raw}");
    assert!(raw.contains("FILTER"), "{raw}");
    assert!(raw.contains("SCAN fact cols=[0, 1, 2, 3] filters=0"), "{raw}");

    conn.execute("PRAGMA optimizer=1").unwrap();
    let optimized = explain(&conn, sql);
    assert_eq!(scan_order(&optimized), ["fact", "dim1"], "{optimized}");
    // count(*) reads only the join keys; v is filtered on, never output.
    assert!(optimized.contains("SCAN fact cols=[1] filters=1"), "{optimized}");
    assert!(optimized.contains("SCAN dim1 cols=[0] filters=0"), "{optimized}");

    // The toggle is per-connection: a sibling session still optimizes.
    conn.execute("PRAGMA optimizer=0").unwrap();
    let sibling = db.connect();
    let other = explain(&sibling, sql);
    assert_eq!(scan_order(&other), ["fact", "dim1"], "{other}");
}

#[test]
fn optimizer_off_still_returns_identical_results() {
    let db = star_fixture();
    let conn = db.connect();
    let baseline = db.connect();
    baseline.execute("PRAGMA optimizer=0").unwrap();
    for sql in [
        "SELECT count(*), sum(fact.v) FROM dim1 JOIN fact ON dim1.id = fact.d1 WHERE fact.v < 100",
        "SELECT count(*) FROM dim1, dim2, dim3, fact \
         WHERE dim1.id = fact.d1 AND dim2.id = fact.d2 AND dim3.id = fact.d2",
        "SELECT dim1.name, sum(fact.v) FROM dim1 JOIN fact ON dim1.id = fact.d1 \
         GROUP BY dim1.name ORDER BY dim1.name LIMIT 7",
    ] {
        let a = conn.query(sql).unwrap().to_rows();
        let b = baseline.query(sql).unwrap().to_rows();
        assert_eq!(a, b, "{sql}");
    }
}
