//! §2's dashboard scenario (E2c): "Concurrent data modification is common
//! in dashboard-scenarios where multiple threads update the data using ETL
//! queries while other threads run the OLAP queries that drive
//! visualizations."
//!
//! One writer thread continuously bulk-updates a table while reader
//! threads run aggregation queries. MVCC must keep every reader on a
//! consistent snapshot (the sum is always a multiple of the row count)
//! while both sides make progress.

//! With `--sessions N [--iters K]` it instead runs the session-scale storm
//! ([`eider_bench::dashboard_storm`]): N-1 reader sessions × K queries each
//! against one ETL writer, reporting the OLAP latency distribution (p50 /
//! p99) the embedding host would observe. Its latencies are not a
//! performance gate: the measured reads-beside-writes workload is
//! `dashboard_mixed` in `benchmarks/e2e`.
//!
//! The run exits 1 unless both sides made progress and no reader saw a
//! torn snapshot.

use eider_bench::Claims;
use eider_core::Database;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let claims = Claims::new();
    let rows = 200_000;
    let mut args = std::env::args().skip(1);
    let mut sessions: Option<usize> = None;
    let mut iters = 40usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sessions" => sessions = args.next().and_then(|v| v.parse().ok()),
            "--iters" => iters = args.next().and_then(|v| v.parse().ok()).unwrap_or(iters),
            other => {
                eprintln!("dashboard_sim: unknown argument {other}");
                std::process::exit(1);
            }
        }
    }
    if let Some(sessions) = sessions {
        let stats = eider_bench::dashboard_storm(rows, sessions, iters).expect("storm");
        println!(
            "# E2c at session scale: {rows} rows, {} OLAP reader sessions x {iters} queries \
             + 1 ETL writer session",
            sessions.saturating_sub(1).max(1)
        );
        println!("  OLAP queries completed : {}", stats.reads);
        println!("  bulk updates committed : {}", stats.writes);
        println!("  OLAP latency p50       : {:.3} ms", stats.p50_ns as f64 / 1e6);
        println!("  OLAP latency p99       : {:.3} ms", stats.p99_ns as f64 / 1e6);
        println!("  torn snapshots observed: {} (must be 0)", stats.torn);
        check_progress(claims, stats.reads, stats.writes, stats.torn);
        return;
    }
    let db = Database::in_memory().expect("db");
    let conn = db.connect();
    conn.execute("CREATE TABLE metrics (id INTEGER, val INTEGER)").expect("ddl");
    // Seed with val = 1 everywhere.
    let chunk_rows = 10_000;
    for base in (0..rows).step_by(chunk_rows) {
        let values: Vec<String> = (base..base + chunk_rows).map(|i| format!("({i}, 1)")).collect();
        conn.execute(&format!("INSERT INTO metrics VALUES {}", values.join(","))).expect("seed");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));
    let torn = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    // OLAP readers.
    for _ in 0..3 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let reads = Arc::clone(&reads);
        let torn = Arc::clone(&torn);
        handles.push(std::thread::spawn(move || {
            let conn = db.connect();
            while !stop.load(Ordering::Relaxed) {
                let r = conn.query("SELECT sum(val), count(*) FROM metrics").expect("olap query");
                let sum = r.value(0, 0).unwrap().as_i64().unwrap();
                let count = r.value(0, 1).unwrap().as_i64().unwrap();
                if count != rows as i64 || sum % count != 0 {
                    torn.fetch_add(1, Ordering::Relaxed);
                }
                reads.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    // ETL writer: set every row's val to k, transactionally.
    {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let writes = Arc::clone(&writes);
        handles.push(std::thread::spawn(move || {
            let conn = db.connect();
            let mut k = 2i64;
            while !stop.load(Ordering::Relaxed) {
                conn.execute(&format!("UPDATE metrics SET val = {k}")).expect("etl update");
                writes.fetch_add(1, Ordering::Relaxed);
                k += 1;
            }
        }));
    }

    let run_for = Duration::from_secs(5);
    let started = Instant::now();
    std::thread::sleep(run_for);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("thread");
    }
    let secs = started.elapsed().as_secs_f64();
    println!(
        "# E2c: concurrent dashboard ({rows} rows, 3 OLAP readers + 1 ETL writer, {secs:.1}s)"
    );
    println!(
        "  OLAP queries completed : {} ({:.1}/s)",
        reads.load(Ordering::Relaxed),
        reads.load(Ordering::Relaxed) as f64 / secs
    );
    println!(
        "  bulk updates committed : {} ({:.1}/s)",
        writes.load(Ordering::Relaxed),
        writes.load(Ordering::Relaxed) as f64 / secs
    );
    println!("  torn snapshots observed: {} (must be 0)", torn.load(Ordering::Relaxed));
    let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
    check_progress(claims, load(&reads), load(&writes), load(&torn));
}

/// MVCC serves every reader a consistent snapshot while both sides progress.
fn check_progress(mut claims: Claims, reads: u64, writes: u64, torn: u64) {
    claims.check("readers and the writer both made progress", reads > 0 && writes > 0);
    claims.check("no torn snapshot observed", torn == 0);
    claims.finish();
}
