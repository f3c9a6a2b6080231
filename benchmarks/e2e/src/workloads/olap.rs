//! `olap_embedded`: one client, an in-memory star schema, nine analytic
//! statements per round through `query_stream` + drain.
//!
//! The executor (scan/decode, hash aggregation, join probe, sort, morsel
//! scheduling) does nearly all the work here; the SQL front end is a
//! rounding error, nothing is encoded for a wire and nothing touches
//! storage. An executor change must show on this workload and a front-end
//! or wire change must not.

use super::{repeated_setup, replay_frontend, Cfg, Report, Scale, SetupCost};
use crate::gen::{self, Query, Star};
use crate::host::{checked_read, load, peak_rss_mb, secs, Check, OpLog, Phase, ReadStat};
use crate::stats::Samples;
use crate::trace::Tracer;
use eider_core::Database;
use eider_vector::Result;
use std::sync::Arc;
use std::time::Instant;

/// The nine statements, in round order.
pub const QUERY_NAMES: [&str; 9] = [
    "filter_agg",
    "group_low",
    "group_high",
    "join_agg",
    "multi_join",
    "topn",
    "zonemap",
    "varchar_group",
    "sort_all",
];

/// `PRAGMA memory_limit` under which `sort_all` cannot keep its runs in
/// memory and takes the external sort.
const SPILL_MEMORY_LIMIT: usize = 4 << 20;

pub struct StarDb {
    pub db: Arc<Database>,
    pub star: Star,
}

/// Generate the star schema and load it through the `Appender`.
pub fn setup(seed: u64, scale: &Scale, with_notes: bool) -> Result<(StarDb, SetupCost)> {
    let t = Instant::now();
    let notes = if with_notes { scale.notes } else { 0 };
    let star = Star::generate(seed, scale.orders, scale.customers, notes);
    let mut tables = vec![
        ("orders", gen::ORDERS_DDL, star.order_chunks()),
        ("customers", gen::CUSTOMERS_DDL, star.customer_chunks()),
        ("buckets", gen::BUCKETS_DDL, star.bucket_chunks()),
    ];
    if with_notes {
        tables.push(("order_notes", gen::NOTES_DDL, star.note_chunks()));
    }
    let gen_s = secs(t);

    let t = Instant::now();
    let db = Database::in_memory()?;
    let conn = db.connect();
    let mut rows = 0;
    for (name, ddl, chunks) in tables {
        conn.execute(ddl)?;
        rows += load(&db, name, chunks)?;
    }
    Ok((StarDb { db, star }, SetupCost { gen_s, load_s: secs(t), rows }))
}

/// The untraced pass: the end-to-end metrics.
pub fn run(cfg: &Cfg) -> Result<Report> {
    let mut report = Report::default();
    let (fx, cost) = repeated_setup(&cfg.scale, || setup(cfg.seed, &cfg.scale, false))?;
    let queries = fx.star.olap_queries();
    let conn = fx.db.connect();
    let mut tr = Tracer::off();

    for _ in 0..cfg.scale.warmup_rounds {
        round(&conn, &queries, Check::Full, &mut tr, &mut report.log, |_, _| {});
    }
    let mut reads = Phase::default();
    let start = Instant::now();
    while secs(start) < cfg.seconds {
        reads.round(|reads| {
            round(&conn, &queries, Check::Rows, &mut tr, &mut report.log, |_, s| reads.record(s))
        });
    }
    round(&conn, &queries, Check::Full, &mut tr, &mut report.log, |_, _| {});

    report.set_reads(&reads);
    report.set("rows_in_per_s", cost.rows as f64 / cost.load_s);
    report.set("peak_rss_mb", peak_rss_mb());
    report.set_setup(&cost);
    report.notes.push(format!(
        "{} orders, {} customers, {} buckets; rounds of 9 statements",
        fx.star.orders(),
        fx.star.customers,
        gen::BUCKETS
    ));
    Ok(report)
}

/// One round: every statement once, in order. `seen` gets each correct
/// read's index and timing.
fn round(
    conn: &eider_core::Connection,
    queries: &[Query],
    check: Check,
    tr: &mut Tracer,
    log: &mut OpLog,
    mut seen: impl FnMut(usize, &ReadStat),
) {
    for (i, q) in queries.iter().enumerate() {
        if let Some(stat) = checked_read(conn, q, check, tr, log) {
            seen(i, &stat);
        }
    }
}

/// The traced pass: where a round's time goes, per statement and per
/// phase, at the engine's default thread count and at one thread.
pub fn run_traced(cfg: &Cfg) -> Result<Report> {
    let mut report = Report::default();
    let (fx, cost) = setup(cfg.seed, &cfg.scale, false)?;
    let queries = fx.star.olap_queries();
    let conn = fx.db.connect();
    let workers = fx.db.policy().worker_threads();
    let mut tr = Tracer::new(true, Instant::now());
    round(&conn, &queries, Check::Full, &mut tr, &mut report.log, |_, _| {});

    // Engine defaults.
    let mut per_query: Vec<Samples> = vec![Samples::new(); queries.len()];
    let (mut open_us, mut first_ms, mut drain_ms) =
        (Samples::new(), Samples::new(), Samples::new());
    let mut reads = Phase::default();
    let start = Instant::now();
    while secs(start) < cfg.seconds * 0.45 || reads.rounds() < 2 {
        reads.round(|reads| {
            round(&conn, &queries, Check::Rows, &mut tr, &mut report.log, |i, s| {
                reads.record(s);
                per_query[i].push(s.total_ms);
                open_us.push(s.open_ms * 1e3);
                first_ms.push(s.first_ms);
                drain_ms.push(s.drain_ms);
            })
        });
    }

    let statements: Vec<String> = queries.iter().map(|q| q.sql.clone()).collect();
    let frontend = replay_frontend(&fx.db, &statements, 25, &mut tr)?;

    // The same statements on one thread: the answers must not change, and
    // the times are the guard a "threads=1 within noise" claim needs.
    let threads = fx.db.policy().threads();
    conn.execute("PRAGMA threads = 1")?;
    let mut per_query_t1: Vec<Samples> = vec![Samples::new(); queries.len()];
    let start = Instant::now();
    let mut n = 0usize;
    while secs(start) < cfg.seconds * 0.35 || n < 2 {
        let check = if n == 0 { Check::Full } else { Check::Rows };
        round(&conn, &queries, check, &mut tr, &mut report.log, |i, s| {
            per_query_t1[i].push(s.total_ms);
        });
        n += 1;
    }
    conn.execute(&format!("PRAGMA threads = {threads}"))?;

    // sort_all again with too little memory to sort in: the external sort
    // must give the same rows in the same order.
    let limit = fx.db.buffers().memory_limit();
    conn.execute(&format!("PRAGMA memory_limit = {SPILL_MEMORY_LIMIT}"))?;
    let sort_all = queries.last().expect("nine statements");
    let spill = checked_read(&conn, sort_all, Check::Full, &mut tr, &mut report.log);
    conn.execute(&format!("PRAGMA memory_limit = {limit}"))?;

    let (mut sum_default, mut sum_t1) = (0.0, 0.0);
    for (i, name) in QUERY_NAMES.iter().enumerate() {
        let (d, t1) = (per_query[i].median(), per_query_t1[i].median());
        report.set_n(format!("exec.q_{name}_ms"), d, per_query[i].len());
        report.set_n(format!("exec.q_{name}_t1_ms"), t1, per_query_t1[i].len());
        sum_default += d;
        sum_t1 += t1;
    }
    report.set("exec.parallel_speedup", sum_t1 / sum_default);
    report.set("exec.workers_default", workers as f64);
    report.set_n("exec.first_chunk_ms", first_ms.median(), first_ms.len());
    report.set_n("core.open_us", open_us.median(), open_us.len());
    report.set("core.lower_us", open_us.median() - frontend.total_us());
    report.set_n("core.drain_ms", drain_ms.median(), drain_ms.len());
    report.set("sql.parse_us", frontend.parse_us);
    report.set("sql.bind_us", frontend.bind_us);
    report.set("sql.optimize_us", frontend.optimize_us);
    report.set("sql.frontend_frac", frontend.total_us() / (reads.quiet().p50_ms() * 1e3));
    report.set("storage.sort_spill_ms", spill.map_or(0.0, |s| s.total_ms));
    report.set("storage.peak_accounted_mb", fx.db.buffers().peak_memory() as f64 / 1e6);
    report.set("client.appender_rows_per_s", cost.rows as f64 / cost.load_s);
    report.set_reads(&reads);
    report.set_traced(&tr, &cost);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle agrees with the engine on a 1k-row dataset, through the
    /// whole checked path, and a doctored expectation is caught.
    #[test]
    fn oracle_matches_the_engine_on_a_small_star() {
        let scale = Scale { orders: 1_000, customers: 50, notes: 300, ..Scale::smoke() };
        let (fx, cost) = setup(21, &scale, true).unwrap();
        assert_eq!(cost.rows, 1_000 + 50 + gen::BUCKETS as u64 + 300);
        let conn = fx.db.connect();
        let mut log = OpLog::default();
        let mut tr = Tracer::off();
        let mut queries = fx.star.olap_queries();
        queries.extend(fx.star.fetch_queries());
        assert_eq!(queries.len(), 12);
        for q in &queries {
            assert!(checked_read(&conn, q, Check::Full, &mut tr, &mut log).is_some(), "{}", q.name);
        }
        assert_eq!((log.attempted, log.failed), (12, 0));

        let mut wrong = queries[1].clone();
        wrong.expect.checksum ^= 1;
        assert!(checked_read(&conn, &wrong, Check::Full, &mut tr, &mut log).is_none());
        let mut short = queries[8].clone();
        short.expect.rows -= 1;
        assert!(checked_read(&conn, &short, Check::Rows, &mut tr, &mut log).is_none());
        let broken = Query { sql: "SELECT nope FROM orders".into(), ..queries[0].clone() };
        assert!(checked_read(&conn, &broken, Check::Rows, &mut tr, &mut log).is_none());
        assert_eq!((log.attempted, log.failed), (15, 3));
        assert_eq!(log.errors.len(), 3);
    }
}
