//! `etl_durable`: one client feeding an **on-disk** database — the write
//! path: `etl` CSV parsing, the `client` appender, `txn` appends, the
//! `storage` WAL and checkpoints, `core::persist` recovery, and the Arrow
//! export door.
//!
//! The unit of work is a *cycle* on a fresh database file. A fixed number
//! of write rounds, each of which
//!
//! 1. bulk-appends the CSV fixture (`Appender::from_source` +
//!    `commit_transaction`) — one write,
//! 2. runs `CHECKPOINT`,
//! 3. issues single-row autocommit `INSERT`s — one fsynced write each,
//! 4. runs the paper's wrangling `UPDATE … SET val = NULL WHERE val =
//!    <sentinel>` — one write;
//!
//! then a few read rounds on the table at its full size, each exporting
//! the table as an Arrow IPC file, aggregating over that file with
//! `read_arrow` and over the table itself — three reads whose answers
//! must agree with each other and with the oracle; then a copy of the
//! database file and its WAL taken while the database is still open (a
//! crash image holding the last round's inserts and update only in the
//! WAL), which is reopened and checked for every acknowledged row.
//! Cycles repeat until the time is up; every cycle is the same work, so
//! the numbers do not depend on how many of them fit. The table grows
//! through a cycle, so a checkpoint rewrites more each round and write
//! amplification is visible. Reads all run at the final size so that
//! their latencies form three tight classes and the median sits inside
//! one, not on a step between two table sizes. Read cost, write cost and
//! space are reported together because they trade.
//!
//! The checkpoint sits *between* the bulk append and the small commits
//! because of a seed defect this benchmark reports and does not fix:
//! `Appender` rows never reach the WAL, so a crash before the next
//! checkpoint loses them and leaves a WAL that no longer replays (see
//! `appender_crash_probe`). A gated workload holds no failing operation,
//! so the crash image is taken where the engine can recover it.
//!
//! Flush policy: the engine's default — WAL `sync` on every commit,
//! automatic checkpoint when the WAL passes 16 MiB.

use super::{repeated_setup, Cfg, Report, Scale, SetupCost};
use crate::gen::{self, Events, SENTINEL};
use crate::host::{io_wchar, load, ms, peak_rss_mb, read_embedded, secs, OpLog, Phase, ReadStat};
use crate::stats::{median_of, Samples};
use crate::tmp::TempDir;
use crate::trace::Tracer;
use eider_client::Appender;
use eider_core::{Connection, Database};
use eider_etl::{for_each_chunk, CsvReadOptions, CsvSource};
use eider_vector::{EiderError, Result, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const FLUSH_POLICY: &str =
    "engine default: WAL sync on every commit, auto-checkpoint when the WAL passes 16 MiB";

const AGGREGATE: &str = "SELECT count(*), sum(id), count(val)";
/// Ids of single-row inserts start here, clear of every CSV id.
const INSERT_ID_BASE: i64 = 1_000_000_000;

fn io(e: std::io::Error) -> EiderError {
    EiderError::Io(e)
}

pub struct Fixture {
    dir: TempDir,
    csv: PathBuf,
    csv_bytes: u64,
    events: Events,
}

/// `<path>.wal`, where the engine keeps a database's log.
fn wal_path(db: &Path) -> PathBuf {
    let mut s = db.as_os_str().to_owned();
    s.push(".wal");
    PathBuf::from(s)
}

fn remove_db(db: &Path) {
    let _ = std::fs::remove_file(db);
    let _ = std::fs::remove_file(wal_path(db));
}

/// Bulk-append the CSV fixture and commit; the three engine calls are the
/// spans `etl.csv_open`, `client.appender` and `core.commit`. Returns the
/// rows appended and the commit's milliseconds.
fn append_csv(
    db: &Arc<Database>,
    csv: &Path,
    parent: u32,
    op: u32,
    tr: &mut Tracer,
) -> Result<(u64, f64)> {
    let entry = db.catalog().get_table("events")?;
    let t0 = tr.now();
    let source =
        CsvSource::open(csv, CsvReadOptions::default())?.with_types(entry.column_types())?;
    let t1 = tr.now();
    let txn = Arc::new(db.txn_manager().begin());
    let rows = Appender::from_source(entry, Arc::clone(&txn), &source)?;
    let txn = Arc::try_unwrap(txn)
        .map_err(|_| EiderError::Internal("appender kept its transaction handle".into()))?;
    let t2 = tr.now();
    db.commit_transaction(txn)?;
    let t3 = tr.now();
    tr.record("etl.csv_open", parent, op, t0, t1);
    tr.record("client.appender", parent, op, t1, t2);
    tr.record("core.commit", parent, op, t2, t3);
    Ok((rows, ms(t2, t3)))
}

/// Generate the fixture, write it as a CSV file, and prove it loads: one
/// append + commit into an in-memory database, counted. (No disk database
/// here: a handful of sandbox fsyncs would be most of a 60 ms set-up and
/// all of its run-to-run spread; the cycles measure them properly.)
pub fn setup(seed: u64, scale: &Scale) -> Result<(Fixture, SetupCost)> {
    let t = Instant::now();
    let events = Events::generate(seed, scale.csv_rows);
    let text = events.csv();
    let dir = TempDir::new(seed).map_err(io)?;
    let csv = dir.path().join("events.csv");
    std::fs::write(&csv, &text).map_err(io)?;
    let gen_s = secs(t);

    let t = Instant::now();
    let db = Database::in_memory()?;
    let conn = db.connect();
    conn.execute(gen::EVENTS_DDL)?;
    let (rows, _) = append_csv(&db, &csv, 0, 0, &mut Tracer::off())?;
    let counted = conn.query(&format!("{AGGREGATE} FROM events"))?.to_rows();
    let want = Expected { rows: rows as i64, id_sum: events.id_sum(), non_null_vals: rows as i64 };
    if rows != events.rows() as u64 || counted != [want.as_row()] {
        return Err(EiderError::Internal(format!("fixture loaded as {counted:?}")));
    }
    let cost = SetupCost { gen_s, load_s: secs(t), rows };
    Ok((Fixture { dir, csv, csv_bytes: text.len() as u64, events }, cost))
}

/// What the table must hold, kept beside the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Expected {
    rows: i64,
    id_sum: i64,
    non_null_vals: i64,
}

impl Expected {
    fn as_row(&self) -> Vec<Value> {
        vec![
            Value::BigInt(self.rows),
            // `sum` over no rows is NULL.
            if self.rows == 0 { Value::Null } else { Value::BigInt(self.id_sum) },
            Value::BigInt(self.non_null_vals),
        ]
    }
}

/// Everything the cycles of one pass measured.
#[derive(Default)]
struct Acc {
    reads: Phase,
    writes: Phase,
    commit_ms: Samples,
    checkpoint_ms: Samples,
    checkpoint_last_ms: Samples,
    small_commit_ms: Samples,
    wal_per_small_commit: Samples,
    wal_per_updated_row: Samples,
    blocks_per_round: Samples,
    recovery_s: Samples,
    disk_bytes_per_row: Samples,
    peak_accounted_mb: f64,
    wchar: u64,
    csv_bytes_in: u64,
}

/// One aggregate read, timed and compared with `want`; `Some` only for
/// the right answer.
fn aggregate_read(
    conn: &Connection,
    from: &str,
    want: &Expected,
    tr: &mut Tracer,
    log: &mut OpLog,
) -> Option<ReadStat> {
    let mut rows = Vec::new();
    let sql = format!("{AGGREGATE} FROM {from}");
    match read_embedded(conn, &sql, tr, |c| rows.extend(c.to_rows())) {
        Ok(stat) if rows == [want.as_row()] => {
            log.ok();
            Some(stat)
        }
        Ok(_) => {
            log.fail(format!("{from}: {rows:?}, expected {:?}", want.as_row()));
            None
        }
        Err(e) => {
            log.fail(format!("{from}: {e}"));
            None
        }
    }
}

/// A statement whose affected-row count is known; one write sample.
fn write_statement(
    conn: &Connection,
    sql: &str,
    want: u64,
    tr: &mut Tracer,
    log: &mut OpLog,
) -> Option<f64> {
    let t0 = tr.now();
    let result = conn.execute(sql);
    let t1 = tr.now();
    match result {
        Ok(n) if n == want => {
            log.ok();
            let op = tr.next_op();
            tr.record("op.write", 0, op, t0, t1);
            Some(ms(t0, t1))
        }
        Ok(n) => {
            log.fail(format!("{sql}: affected {n} rows, expected {want}"));
            None
        }
        Err(e) => {
            log.fail(format!("{sql}: {e}"));
            None
        }
    }
}

/// One cycle (see the module text). Harness failures (`Err`) abort the
/// pass; engine failures are counted in `log` and the cycle goes on.
fn cycle(
    fx: &Fixture,
    cfg: &Cfg,
    n: usize,
    tr: &mut Tracer,
    log: &mut OpLog,
    acc: &mut Acc,
) -> Result<()> {
    let path = fx.dir.path().join(format!("cycle_{n}.db"));
    let arrow = fx.dir.path().join(format!("cycle_{n}.arrow"));
    let db = Database::open(&path)?;
    let conn = db.connect();
    conn.execute(gen::EVENTS_DDL)?;
    let csv_rows = fx.events.rows() as i64;
    let mut want = Expected::default();
    let mut next_insert_id = INSERT_ID_BASE;
    let wchar_before = io_wchar();
    let start = Instant::now();

    for round in 1..=cfg.scale.rounds_per_cycle {
        // 1. bulk append
        let t0 = tr.now();
        let op = tr.next_op();
        let root = tr.begin("op.write", 0, op);
        let appended = append_csv(&db, &fx.csv, root, op, tr);
        tr.end(root);
        match appended {
            Ok((rows, commit_ms)) if rows as i64 == csv_rows => {
                log.ok();
                acc.writes.record_op(ms(t0, tr.now()), rows);
                acc.commit_ms.push(commit_ms);
                acc.csv_bytes_in += fx.csv_bytes;
            }
            Ok((rows, _)) => log.fail(format!("appended {rows} rows of {csv_rows}")),
            Err(e) => log.fail(format!("append: {e}")),
        }
        want.rows += csv_rows;
        want.id_sum += fx.events.id_sum();
        want.non_null_vals += csv_rows;

        // 2. checkpoint
        let blocks = db.block_count();
        let t = Instant::now();
        match conn.execute("CHECKPOINT") {
            Ok(_) => {
                log.ok();
                let took = secs(t) * 1e3;
                acc.checkpoint_ms.push(took);
                if round == cfg.scale.rounds_per_cycle {
                    acc.checkpoint_last_ms.push(took);
                }
                acc.blocks_per_round.push(db.block_count().saturating_sub(blocks) as f64);
            }
            Err(e) => log.fail(format!("CHECKPOINT: {e}")),
        }

        // 3. small durable commits
        for _ in 0..cfg.scale.inserts_per_round {
            let wal = db.wal_size();
            let sql = format!("INSERT INTO events VALUES ({next_insert_id}, 0, 7, 'manual')");
            if let Some(took) = write_statement(&conn, &sql, 1, tr, log) {
                acc.writes.record_op(took, 1);
                acc.small_commit_ms.push(took);
                acc.wal_per_small_commit.push(db.wal_size().saturating_sub(wal) as f64);
            }
            want.rows += 1;
            want.id_sum += next_insert_id;
            want.non_null_vals += 1;
            next_insert_id += 1;
        }

        // 4. wrangling: this batch's sentinels become NULL
        let wal = db.wal_size();
        let sql = format!("UPDATE events SET val = NULL WHERE val = {SENTINEL}");
        let sentinels = fx.events.sentinels();
        if let Some(took) = write_statement(&conn, &sql, sentinels, tr, log) {
            acc.writes.record_op(took, 0);
            acc.wal_per_updated_row
                .push(db.wal_size().saturating_sub(wal) as f64 / sentinels.max(1) as f64);
        }
        want.non_null_vals -= sentinels as i64;
    }
    acc.wchar += io_wchar().saturating_sub(wchar_before);

    // Out through the Arrow door, and back: the table is at its full size
    // for every read, so each kind of read is one tight latency class.
    for _ in 0..cfg.scale.reads_per_cycle {
        let file = std::fs::File::create(&arrow).map_err(io)?;
        let t0 = tr.now();
        let exported = conn
            .query_stream("SELECT id, grp, val, note FROM events")
            .and_then(|cursor| cursor.export_arrow_ipc(std::io::BufWriter::new(file)));
        let t1 = tr.now();
        match exported {
            Ok(rows) if rows as i64 == want.rows => {
                log.ok();
                let op = tr.next_op();
                tr.record("op.export", 0, op, t0, t1);
                acc.reads.record_op(ms(t0, t1), rows);
            }
            Ok(rows) => log.fail(format!("exported {rows} rows of {}", want.rows)),
            Err(e) => log.fail(format!("export: {e}")),
        }
        for from in [format!("read_arrow('{}')", arrow.display()), "events".into()] {
            if let Some(stat) = aggregate_read(&conn, &from, &want, tr, log) {
                acc.reads.record(&stat);
            }
        }
    }
    let took = secs(start);
    acc.reads.close_round(took);
    acc.writes.close_round(took);

    // Crash image: the files as a kill -9 would leave them (the operating
    // system's cache survives a process, so what was written is there).
    let image = fx.dir.path().join(format!("image_{n}.db"));
    std::fs::copy(&path, &image).map_err(io)?;
    std::fs::copy(wal_path(&path), wal_path(&image)).map_err(io)?;

    // Space, after a final checkpoint of the live database.
    conn.execute("CHECKPOINT")?;
    let bytes = std::fs::metadata(&path).map_err(io)?.len() + db.wal_size();
    acc.disk_bytes_per_row.push(bytes as f64 / want.rows.max(1) as f64);
    acc.peak_accounted_mb = acc.peak_accounted_mb.max(db.buffers().peak_memory() as f64 / 1e6);
    drop(conn);
    drop(db);

    // Recovery: open the image, replay its WAL, and count.
    let t0 = tr.now();
    let recovered = Database::open(&image);
    let t1 = tr.now();
    match recovered {
        Ok(db) => {
            let got = db.connect().query(&format!("{AGGREGATE} FROM events")).map(|r| r.to_rows());
            match got {
                Ok(rows) if rows == [want.as_row()] => {
                    log.ok();
                    let op = tr.next_op();
                    tr.record("op.recover", 0, op, t0, t1);
                    acc.recovery_s.push(ms(t0, t1) / 1e3);
                }
                Ok(rows) => {
                    log.fail(format!("recovered {rows:?}, acknowledged {:?}", want.as_row()))
                }
                Err(e) => log.fail(format!("count after recovery: {e}")),
            }
        }
        Err(e) => log.fail(format!("recovery: {e}")),
    }
    remove_db(&image);
    remove_db(&path);
    let _ = std::fs::remove_file(&arrow);
    Ok(())
}

fn set_end_to_end(report: &mut Report, acc: &mut Acc, cost: &SetupCost) {
    report.set_reads(&acc.reads);
    report.set_writes(&acc.writes);
    report.set("peak_rss_mb", peak_rss_mb());
    report.set_setup(cost);
    report.set_n("e2e.recovery_s", acc.recovery_s.median(), acc.recovery_s.len());
    report.set("e2e.disk_bytes_per_row", acc.disk_bytes_per_row.median());
}

/// The untraced pass: the end-to-end metrics.
pub fn run(cfg: &Cfg) -> Result<Report> {
    let mut report = Report::default();
    let (fx, cost) = repeated_setup(&cfg.scale, || setup(cfg.seed, &cfg.scale))?;
    let mut acc = Acc::default();
    let mut tr = Tracer::off();
    let start = Instant::now();
    while secs(start) < cfg.seconds || acc.reads.rounds() == 0 {
        cycle(&fx, cfg, acc.reads.rounds(), &mut tr, &mut report.log, &mut acc)?;
    }
    set_end_to_end(&mut report, &mut acc, &cost);
    report.notes.push(format!(
        "{} cycles of {} write rounds ({}-row CSV append, CHECKPOINT, {} inserts, UPDATE) + {} \
         read rounds (export, read_arrow, table) + crash image; flush policy: {FLUSH_POLICY}",
        acc.reads.rounds(),
        cfg.scale.rounds_per_cycle,
        cfg.scale.csv_rows,
        cfg.scale.inserts_per_round,
        cfg.scale.reads_per_cycle
    ));
    Ok(report)
}

/// Take a crash image right after an acknowledged `Appender` commit that
/// no checkpoint has followed, and see what survives. At the seed nothing
/// does: appender rows are not logged, and the commit marker that *is*
/// logged makes the WAL refuse to replay. The lost share of acknowledged
/// rows is reported as a number; the probe's ops are not part of the
/// workload's count.
fn appender_crash_probe(fx: &Fixture) -> Result<f64> {
    let path = fx.dir.path().join("probe.db");
    let image = fx.dir.path().join("probe_image.db");
    let db = Database::open(&path)?;
    let conn = db.connect();
    conn.execute(gen::EVENTS_DDL)?;
    conn.execute("CHECKPOINT")?;
    let (acked, _) = append_csv(&db, &fx.csv, 0, 0, &mut Tracer::off())?;
    // One logged row after the batch, as any host would write next.
    conn.execute(&format!("INSERT INTO events VALUES ({INSERT_ID_BASE}, 0, 7, 'manual')"))?;
    std::fs::copy(&path, &image).map_err(io)?;
    std::fs::copy(wal_path(&path), wal_path(&image)).map_err(io)?;
    drop(conn);
    drop(db);
    let survived = Database::open(&image)
        .and_then(|db| db.connect().query("SELECT count(*) FROM events"))
        .ok()
        .and_then(|r| r.scalar().ok())
        .and_then(|v| v.as_i64())
        .unwrap_or(0);
    remove_db(&image);
    remove_db(&path);
    Ok(1.0 - (survived as f64 / (acked + 1) as f64).min(1.0))
}

/// The ingest and export layers one at a time, without a disk database.
/// Returns the median milliseconds of a single-row commit in memory.
fn layer_probes(fx: &Fixture, cfg: &Cfg, report: &mut Report) -> Result<f64> {
    let reps = ((cfg.seconds / 2.0) as usize).clamp(3, 15);
    let rows = fx.events.rows() as f64;
    let mut tr = Tracer::off();
    let rate = |secs_each: &[f64]| rows / median_of(secs_each);

    // etl: CSV bytes → chunks, no table behind them
    let mut parse = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        let source = CsvSource::open(&fx.csv, CsvReadOptions::default())?;
        let projection: Vec<usize> = (0..4).collect();
        let mut seen = 0usize;
        for_each_chunk(&source, &projection, |c| {
            seen += c.len();
            Ok(())
        })?;
        parse.push(secs(t));
        if seen != fx.events.rows() {
            report.log.fail(format!("CSV parsed to {seen} rows"));
        }
    }
    report.set("etl.csv_parse_rows_per_s", rate(&parse));

    // client: prebuilt chunks → in-memory table (no CSV, no WAL)
    let mem = Database::in_memory()?;
    let conn = mem.connect();
    let mut append = Vec::new();
    for _ in 0..reps {
        conn.execute("DROP TABLE IF EXISTS events")?;
        conn.execute(gen::EVENTS_DDL)?;
        let chunks = fx.events.chunks();
        let t = Instant::now();
        load(&mem, "events", chunks)?;
        append.push(secs(t));
    }
    report.set("client.appender_rows_per_s", rate(&append));

    // etl: external scans, and the Arrow encoder's share of an export
    let arrow = fx.dir.path().join("probe.arrow");
    let export_sql = "SELECT id, grp, val, note FROM events";
    let file = std::fs::File::create(&arrow).map_err(io)?;
    conn.query_stream(export_sql)?.export_arrow_ipc(std::io::BufWriter::new(file))?;
    let want = Expected {
        rows: fx.events.rows() as i64,
        id_sum: fx.events.id_sum(),
        non_null_vals: fx.events.rows() as i64,
    };
    let (mut csv_scan, mut arrow_scan, mut export, mut drain) = (vec![], vec![], vec![], vec![]);
    for _ in 0..reps {
        let csv_from = format!("read_csv('{}')", fx.csv.display());
        if let Some(stat) = aggregate_read(&conn, &csv_from, &want, &mut tr, &mut report.log) {
            csv_scan.push(stat.total_ms / 1e3);
        }
        let arrow_from = format!("read_arrow('{}')", arrow.display());
        if let Some(stat) = aggregate_read(&conn, &arrow_from, &want, &mut tr, &mut report.log) {
            arrow_scan.push(stat.total_ms / 1e3);
        }
        let t = Instant::now();
        conn.query_stream(export_sql)?.export_arrow_ipc(std::io::sink())?;
        export.push(secs(t));
        drain.push(read_embedded(&conn, export_sql, &mut tr, |_| {})?.total_ms / 1e3);
    }
    report.set("etl.csv_scan_rows_per_s", rate(&csv_scan));
    report.set("etl.arrow_scan_rows_per_s", rate(&arrow_scan));
    let _ = std::fs::remove_file(&arrow);
    report.set("etl.arrow_encode_ms", (median_of(&export) - median_of(&drain)) * 1e3);

    // storage: the same single-row commit without a disk under it
    let mut mem_commit = Samples::new();
    for i in 0..200 {
        let sql = format!("INSERT INTO events VALUES ({}, 0, 7, 'manual')", INSERT_ID_BASE + i);
        let t = Instant::now();
        conn.execute(&sql)?;
        mem_commit.push(secs(t) * 1e3);
    }
    Ok(mem_commit.median())
}

/// The traced pass: cycles with spans on, then each layer of the write
/// path alone.
pub fn run_traced(cfg: &Cfg) -> Result<Report> {
    let mut report = Report::default();
    let (fx, cost) = setup(cfg.seed, &cfg.scale)?;
    let mut acc = Acc::default();
    let mut tr = Tracer::new(true, Instant::now());
    let start = Instant::now();
    while secs(start) < cfg.seconds * 0.55 || acc.reads.rounds() < 2 {
        cycle(&fx, cfg, acc.reads.rounds(), &mut tr, &mut report.log, &mut acc)?;
    }

    let mem_commit_ms = layer_probes(&fx, cfg, &mut report)?;
    report.set("core.appender_crash_lost_frac", appender_crash_probe(&fx)?);

    set_end_to_end(&mut report, &mut acc, &cost);
    report.set_n("core.commit_ms", acc.commit_ms.median(), acc.commit_ms.len());
    report.set_n("core.checkpoint_ms", acc.checkpoint_ms.median(), acc.checkpoint_ms.len());
    report.set("core.checkpoint_ms_last", acc.checkpoint_last_ms.median());
    report.set("storage.wal_bytes_per_row", acc.wal_per_updated_row.median());
    report.set("storage.wal_bytes_per_small_commit", acc.wal_per_small_commit.median());
    report.set("storage.fsync_commit_us", (acc.small_commit_ms.median() - mem_commit_ms) * 1e3);
    report.set("storage.write_amp", acc.wchar as f64 / acc.csv_bytes_in.max(1) as f64);
    report.set("storage.blocks_per_round", acc.blocks_per_round.median());
    report.set("storage.peak_accounted_mb", acc.peak_accounted_mb);
    report.notes.push(format!("flush policy: {FLUSH_POLICY}"));
    report.set_traced(&tr, &cost);
    Ok(report)
}
