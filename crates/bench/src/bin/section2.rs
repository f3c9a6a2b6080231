//! §2 (Combined OLAP & ETL workload) experiment driver.
//!
//! Claims reproduced:
//! * E2a — a vectorized engine spends few CPU cycles per value; the
//!   tuple-at-a-time Volcano baseline pays per-value interpretation
//!   overhead (the reason DuckDB is vectorized, §6).
//! * E2b — bulk updates (`UPDATE t SET d = NULL WHERE d = -999`) are
//!   chunk-granular and column-wise; the same wrangling done row-by-row
//!   (OLTP style, one statement per row) is orders of magnitude slower.

use eider_bench::workload::Workload;
use eider_bench::wrangling_db;
use eider_exec::aggregate::AggKind;
use eider_exec::expression::Expr;
use eider_exec::ops::agg::AggExpr;
use eider_exec::row_engine::{run_to_end, RowAggregate, RowFilter, RowSource};
use eider_txn::CmpOp;
use eider_vector::{LogicalType, Value};
use std::time::Instant;

fn main() {
    let rows = 2_000_000;
    println!("# E2a: vectorized vs tuple-at-a-time (SELECT count(*), sum(v) WHERE d <> -999)");
    let db = wrangling_db(rows, 0.25, 7).expect("db");
    let conn = db.connect();

    let started = Instant::now();
    let r = conn.query("SELECT count(*), sum(v) FROM t WHERE d <> -999").expect("query");
    let vec_time = started.elapsed();
    let vec_count = r.value(0, 0).unwrap();

    // The same query through the row-at-a-time baseline over the same data.
    let chunks = Workload::new(7).wrangling_chunks(rows, 0.25).expect("workload");
    let started = Instant::now();
    let source = Box::new(RowSource::from_chunks(&chunks));
    let filter = Box::new(RowFilter::new(
        source,
        Expr::Compare {
            op: CmpOp::NotEq,
            left: Box::new(Expr::column(1, LogicalType::Integer)),
            right: Box::new(Expr::constant(Value::Integer(-999))),
        },
    ));
    let mut agg = RowAggregate::new(
        filter,
        vec![
            AggExpr { kind: AggKind::CountStar, arg: None, distinct: false },
            AggExpr {
                kind: AggKind::Sum,
                arg: Some(Expr::column(2, LogicalType::Double)),
                distinct: false,
            },
        ],
    );
    let row_result = run_to_end(&mut agg).expect("row engine");
    let row_time = started.elapsed();
    assert_eq!(row_result[0][0], vec_count, "engines must agree");

    println!("  rows               : {rows}");
    println!("  vectorized         : {:>10.1} ms", vec_time.as_secs_f64() * 1e3);
    println!("  tuple-at-a-time    : {:>10.1} ms", row_time.as_secs_f64() * 1e3);
    println!(
        "  speedup            : {:>10.1}x  (paper: vectorized engines win by ~10-100x)",
        row_time.as_secs_f64() / vec_time.as_secs_f64()
    );

    println!("\n# E2b: bulk wrangling UPDATE vs row-at-a-time updates");
    let db = wrangling_db(200_000, 0.25, 9).expect("db");
    let conn = db.connect();
    let started = Instant::now();
    let updated = conn.execute("UPDATE t SET d = NULL WHERE d = -999").expect("bulk update");
    let bulk_time = started.elapsed();
    println!("  bulk UPDATE        : {updated} rows in {:.1} ms", bulk_time.as_secs_f64() * 1e3);

    // OLTP-style: one UPDATE per sentinel row (sampled to keep runtime sane,
    // then extrapolated linearly).
    let db = wrangling_db(200_000, 0.25, 9).expect("db");
    let conn = db.connect();
    let ids: Vec<i64> = conn
        .query("SELECT id FROM t WHERE d = -999 LIMIT 500")
        .expect("ids")
        .to_rows()
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    let started = Instant::now();
    for id in &ids {
        conn.execute(&format!("UPDATE t SET d = NULL WHERE id = {id}")).expect("row update");
    }
    let per_row = started.elapsed().as_secs_f64() / ids.len() as f64;
    let extrapolated = per_row * updated as f64;
    println!(
        "  row-by-row UPDATE  : {:.3} ms/row -> {:.1} s extrapolated to {updated} rows",
        per_row * 1e3,
        extrapolated
    );
    println!(
        "  bulk speedup       : {:.0}x  (paper: ETL updates are bulk, not OLTP)",
        extrapolated / bulk_time.as_secs_f64()
    );
}
