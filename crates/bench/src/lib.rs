//! Paper regenerators, the paper's strawmen, and shared fixtures.
//!
//! Every table and figure of the paper has a regenerator binary here:
//! `src/bin/table1.rs`, `src/bin/figure1.rs`, `src/bin/section2.rs` ..
//! `src/bin/section5.rs` and `src/bin/dashboard_sim.rs`. Each prints its
//! numbers and exits non-zero when a claim's direction does not hold
//! (see [`Claims`]).
//!
//! The library holds what those binaries, the examples and the root
//! integration tests share:
//!
//! * the comparison code the engine never runs — the §2 tuple-at-a-time
//!   engine ([`row_engine`]), §3's AN codes ([`ancode`]), moving-inversions
//!   memory test ([`memtest`]) and Table 1 failure model
//!   ([`failure_model`]), §4's Figure 1 controller and scripted
//!   application ([`controller`]), and §5's row-major client protocol
//!   ([`protocol`]). Keeping them here keeps them out of every host that
//!   links the engine;
//! * the seeded data generators in [`workload`] and the database builders
//!   below.
//!
//! Performance is measured by `benchmarks/e2e`, not here.

pub mod ancode;
pub mod controller;
pub mod failure_model;
pub mod memtest;
pub mod protocol;
pub mod row_engine;
pub mod workload;

use eider_core::{Database, Result};
use std::sync::Arc;
use workload::Workload;

/// The direction checks of one regenerator run. Every claim prints a
/// verdict line; [`Claims::finish`] exits non-zero if any claim failed,
/// so CI catches a regression in a reproduced result and not only a crash.
#[derive(Default)]
pub struct Claims {
    failed: usize,
}

impl Claims {
    /// No claims checked yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record whether `claim` holds.
    pub fn check(&mut self, claim: &str, holds: bool) {
        println!("  claim {}: {claim}", if holds { "holds " } else { "FAILED" });
        self.failed += usize::from(!holds);
    }

    /// Report the verdict; exit 1 if a claim failed.
    pub fn finish(self) {
        if self.failed > 0 {
            eprintln!("{} paper claim(s) failed", self.failed);
            std::process::exit(1);
        }
    }
}

/// Build an in-memory database with the §2 wrangling table loaded.
pub fn wrangling_db(rows: usize, missing: f64, seed: u64) -> Result<Arc<Database>> {
    let db = Database::in_memory()?;
    let conn = db.connect();
    conn.execute("CREATE TABLE t (id INTEGER, d INTEGER, v DOUBLE)")?;
    let chunks = Workload::new(seed).wrangling_chunks(rows, missing)?;
    let entry = db.catalog().get_table("t")?;
    let txn = Arc::new(db.txn_manager().begin());
    entry.append(&txn, &chunks)?;
    db.commit_transaction(Arc::try_unwrap(txn).expect("sole owner"))?;
    Ok(db)
}

/// Result of a [`dashboard_storm`] run: the multi-session dashboard
/// scenario's consistency counters and OLAP latency distribution.
#[derive(Debug)]
pub struct DashboardStats {
    /// OLAP queries completed across all reader sessions.
    pub reads: u64,
    /// Bulk ETL updates committed.
    pub writes: u64,
    /// Inconsistent snapshots observed (must be 0 under MVCC).
    pub torn: u64,
    /// Median OLAP query latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile OLAP query latency, nanoseconds.
    pub p99_ns: u64,
}

/// §2's dashboard scenario (E2c) at session scale: `sessions - 1` OLAP
/// reader connections each run `iters` aggregate queries over a shared
/// table while one ETL writer connection continuously bulk-updates it.
/// Every connection is its own engine session — quota sub-account, fleet
/// fair share — so the per-query latencies this returns measure exactly
/// the multi-session interference an embedding host would see. Used by
/// the `dashboard_sim` binary.
pub fn dashboard_storm(rows: usize, sessions: usize, iters: usize) -> Result<DashboardStats> {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Instant;

    let readers = sessions.saturating_sub(1).max(1);
    let db = Database::in_memory()?;
    let conn = db.connect();
    conn.execute("CREATE TABLE metrics (id INTEGER, val INTEGER)")?;
    let chunk_rows = 10_000.min(rows.max(1));
    for base in (0..rows).step_by(chunk_rows) {
        let hi = (base + chunk_rows).min(rows);
        let values: Vec<String> = (base..hi).map(|i| format!("({i}, 1)")).collect();
        conn.execute(&format!("INSERT INTO metrics VALUES {}", values.join(",")))?;
    }

    let stop = Arc::new(AtomicBool::new(false));
    let writes = Arc::new(AtomicU64::new(0));
    let torn = Arc::new(AtomicU64::new(0));

    let mut reader_handles = Vec::new();
    for _ in 0..readers {
        let db = Arc::clone(&db);
        let torn = Arc::clone(&torn);
        reader_handles.push(std::thread::spawn(move || {
            let conn = db.connect();
            let mut latencies = Vec::with_capacity(iters);
            for _ in 0..iters {
                let started = Instant::now();
                let r = conn.query("SELECT sum(val), count(*) FROM metrics").expect("olap query");
                latencies.push(started.elapsed().as_nanos() as u64);
                let sum = r.value(0, 0).unwrap().as_i64().unwrap();
                let count = r.value(0, 1).unwrap().as_i64().unwrap();
                if count != rows as i64 || sum % count != 0 {
                    torn.fetch_add(1, Ordering::Relaxed);
                }
            }
            latencies
        }));
    }
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let writes = Arc::clone(&writes);
        std::thread::spawn(move || {
            let conn = db.connect();
            let mut k = 2i64;
            while !stop.load(Ordering::Relaxed) {
                conn.execute(&format!("UPDATE metrics SET val = {k}")).expect("etl update");
                writes.fetch_add(1, Ordering::Relaxed);
                k += 1;
            }
        })
    };

    let mut latencies: Vec<u64> = Vec::new();
    for h in reader_handles {
        latencies.extend(h.join().expect("reader session"));
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer session");

    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[idx]
    };
    Ok(DashboardStats {
        reads: latencies.len() as u64,
        writes: writes.load(std::sync::atomic::Ordering::Relaxed),
        torn: torn.load(std::sync::atomic::Ordering::Relaxed),
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
    })
}

/// Build an in-memory database with orders + customers loaded.
pub fn star_db(orders: usize, customers: u64, seed: u64) -> Result<Arc<Database>> {
    let db = Database::in_memory()?;
    let conn = db.connect();
    conn.execute(
        "CREATE TABLE orders (oid BIGINT, cid BIGINT, amount DOUBLE, qty INTEGER, odate DATE)",
    )?;
    conn.execute("CREATE TABLE customers (cid BIGINT, name VARCHAR, segment VARCHAR)")?;
    let mut w = Workload::new(seed);
    let txn = Arc::new(db.txn_manager().begin());
    db.catalog().get_table("orders")?.append(&txn, &w.orders_chunks(orders, customers)?)?;
    db.catalog().get_table("customers")?.append(&txn, &w.customers_chunks(customers)?)?;
    db.commit_transaction(Arc::try_unwrap(txn).expect("sole owner"))?;
    Ok(db)
}
