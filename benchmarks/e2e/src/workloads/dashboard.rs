//! `dashboard_mixed`: a reader session refreshing four dashboard panels
//! (three cheap ones three times a round, a `GROUP BY` once) while a
//! writer session rewrites one panel's values after another — §2's dashboard beside its ETL feed, on one in-memory table.
//!
//! The statements take a millisecond, not a hundred, so per-statement
//! costs — the SQL front end, lowering, transaction begin/commit, the
//! version chains a reader walks past the writer's rows — are a far
//! larger share of a read than on `olap_embedded`, and the writer competes
//! with the reader for the machine's two cores. Two of the four texts
//! repeat exactly and two carry a literal that changes on every call, as
//! real dashboards do — the property a plan cache would have to key on.
//! It is also the workload where a read gain can be bought with writer
//! throughput or the reverse: `rows_in_per_s` (rows the writer rewrote)
//! is bounded beside the read metrics.
//!
//! Every read is checked for snapshot consistency. The writer only ever
//! sets *all* rows of panel `p` to one value `k ≡ p (mod 8)`, so in any
//! single snapshot each panel is uniform: `min(val) = max(val)`, `val mod
//! 8 = panel`, and `sum(val)` over the table is `rows/8 · Σ vₚ` with
//! `Σ vₚ ≡ 28 (mod 8)`. A read that saw half an update breaks these.

use super::{repeated_setup, replay_frontend, Cfg, Report, Scale, SetupCost};
use crate::gen::{self, Metrics, Rng, PANELS};
use crate::host::{load, ms, peak_rss_mb, read_embedded, secs, OpLog, Phase, ReadStat};
use crate::stats::Samples;
use crate::trace::Tracer;
use eider_core::{Connection, Database};
use eider_vector::{Result, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub struct Dash {
    pub db: Arc<Database>,
    pub metrics: Metrics,
}

pub fn setup(seed: u64, scale: &Scale) -> Result<(Dash, SetupCost)> {
    let t = Instant::now();
    let metrics = Metrics::new(seed, scale.metrics);
    let chunks = metrics.chunks();
    let gen_s = secs(t);
    let t = Instant::now();
    let db = Database::in_memory()?;
    db.connect().execute(gen::METRICS_DDL)?;
    let rows = load(&db, "metrics", chunks)?;
    Ok((Dash { db, metrics }, SetupCost { gen_s, load_s: secs(t), rows }))
}

/// The four panels of one refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Panel {
    Total,
    Grouped,
    Range { lo: u64, width: u64 },
    Lookup { id: u64 },
}

impl Panel {
    fn sql(&self) -> String {
        match *self {
            Panel::Total => "SELECT count(*), sum(val) FROM metrics".into(),
            Panel::Grouped => {
                "SELECT panel, count(*), min(val), max(val) FROM metrics GROUP BY panel".into()
            }
            Panel::Range { lo, width } => {
                format!("SELECT count(*) FROM metrics WHERE id >= {lo} AND id < {}", lo + width)
            }
            // LIMIT 1: the plain form of this lookup fails at the seed for
            // ids beyond the first row group (see `pruned_stream_probe`),
            // and a gated workload holds no failing operation.
            Panel::Lookup { id } => {
                format!("SELECT id, panel, val FROM metrics WHERE id = {id} LIMIT 1")
            }
        }
    }

    /// Is `rows` what one consistent snapshot of `m` can return?
    fn consistent(&self, m: &Metrics, rows: &[Vec<Value>]) -> bool {
        let int = |v: &Value| v.as_i64();
        let per_panel = m.rows_per_panel() as i64;
        match *self {
            Panel::Total => match rows {
                [row] => match (int(&row[0]), int(&row[1])) {
                    (Some(count), Some(sum)) => {
                        count == m.rows as i64
                            && sum % per_panel == 0
                            && (sum / per_panel).rem_euclid(PANELS as i64)
                                == ((0..PANELS).sum::<u64>() % PANELS) as i64
                    }
                    _ => false,
                },
                _ => false,
            },
            Panel::Grouped => {
                rows.len() == PANELS as usize
                    && rows.iter().all(|r| {
                        matches!(
                            (int(&r[0]), int(&r[1]), int(&r[2]), int(&r[3])),
                            (Some(p), Some(n), Some(lo), Some(hi))
                                if n == per_panel && lo == hi && lo.rem_euclid(PANELS as i64) == p
                        )
                    })
            }
            Panel::Range { width, .. } => {
                matches!(rows, [row] if int(&row[0]) == Some(width as i64))
            }
            Panel::Lookup { id } => match rows {
                [row] => {
                    let panel = m.panel_of(id) as i64;
                    int(&row[0]) == Some(id as i64)
                        && int(&row[1]) == Some(panel)
                        && int(&row[2]).is_some_and(|v| v.rem_euclid(PANELS as i64) == panel)
                }
                _ => false,
            },
        }
    }
}

/// The reader: draws each refresh's literals from its own seeded stream.
struct Reader<'a> {
    conn: Connection,
    m: &'a Metrics,
    range_rows: u64,
    rng: Rng,
}

impl<'a> Reader<'a> {
    fn new(fx: &'a Dash, cfg: &Cfg) -> Self {
        Reader {
            conn: fx.db.connect(),
            m: &fx.metrics,
            range_rows: cfg.scale.range_rows.min(fx.metrics.rows as u64),
            rng: Rng::new(cfg.seed ^ 0x5245_4144),
        }
    }

    /// One refresh of the dashboard: the three cheap panels three times
    /// each and the `GROUP BY` panel once. The heavy panel is a tenth of
    /// the reads, so the 95th percentile sits in the middle of its latency
    /// class (and the median in the middle of a cheap one) rather than in a
    /// class's contention tail, where a busy two-core box makes it jump.
    fn next_round(&mut self) -> [Panel; 10] {
        let rows = self.m.rows as u64;
        let mut round = [Panel::Grouped; 10];
        for third in round[..9].chunks_mut(3) {
            third[0] = Panel::Total;
            third[1] = Panel::Range {
                lo: self.rng.below(rows - self.range_rows + 1),
                width: self.range_rows,
            };
            third[2] = Panel::Lookup { id: self.rng.below(rows) };
        }
        round
    }

    /// One panel query, checked; `Some` only when it returned a
    /// consistent snapshot.
    fn read(&self, panel: &Panel, tr: &mut Tracer, log: &mut OpLog) -> Option<ReadStat> {
        let mut rows = Vec::new();
        match read_embedded(&self.conn, &panel.sql(), tr, |c| rows.extend(c.to_rows())) {
            Err(e) => {
                log.fail(format!("{panel:?}: {e}"));
                None
            }
            Ok(stat) if panel.consistent(self.m, &rows) => {
                log.ok();
                Some(stat)
            }
            Ok(_) => {
                log.fail(format!("{panel:?}: torn or wrong snapshot {:?}", rows.first()));
                None
            }
        }
    }

    fn round(&mut self, tr: &mut Tracer, log: &mut OpLog, mut seen: impl FnMut(&ReadStat)) {
        for panel in self.next_round() {
            if let Some(stat) = self.read(&panel, tr, log) {
                seen(&stat);
            }
        }
    }
}

/// What the writer session did. One writer round is one `UPDATE` per
/// panel, so that rounds are identical work like the reader's.
#[derive(Default)]
struct Written {
    phase: Phase,
    log: OpLog,
    tracer: Option<Tracer>,
}

/// The writer session: `UPDATE metrics SET val = k WHERE panel = k mod 8`
/// for k = 8, 9, … until told to stop. Each statement is one write:
/// statement in → commit acknowledged.
fn writer(db: &Arc<Database>, m: Metrics, stop: &AtomicBool, mut tr: Tracer) -> Written {
    let conn = db.connect();
    let mut w = Written::default();
    let mut k = PANELS;
    let mut round_start = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        let sql = format!("UPDATE metrics SET val = {k} WHERE panel = {}", k % PANELS);
        let t0 = tr.now();
        let result = conn.execute(&sql);
        let t1 = tr.now();
        match result {
            Ok(n) if n == m.rows_per_panel() => {
                w.log.ok();
                w.phase.record_op(ms(t0, t1), n);
                let op = tr.next_op();
                tr.record("op.write", 0, op, t0, t1);
            }
            Ok(n) => w.log.fail(format!("UPDATE touched {n} rows, not {}", m.rows_per_panel())),
            Err(e) => w.log.fail(format!("UPDATE: {e}")),
        }
        k += 1;
        if k.is_multiple_of(PANELS) {
            w.phase.close_round(secs(round_start));
            round_start = Instant::now();
        }
    }
    w.tracer = Some(tr);
    w
}

/// Run `reader_body` on this thread while the writer session runs on a
/// second one; two load threads, never more.
fn beside_writer<T>(
    fx: &Dash,
    writer_tracer: Tracer,
    reader_body: impl FnOnce() -> T,
) -> (T, Written) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handle = s.spawn(|| writer(&fx.db, fx.metrics, &stop, writer_tracer));
        let out = reader_body();
        stop.store(true, Ordering::SeqCst);
        (out, handle.join().expect("writer thread panicked"))
    })
}

/// The untraced pass: the end-to-end metrics.
pub fn run(cfg: &Cfg) -> Result<Report> {
    let mut report = Report::default();
    let (fx, cost) = repeated_setup(&cfg.scale, || setup(cfg.seed, &cfg.scale))?;
    let mut reader = Reader::new(&fx, cfg);
    let mut tr = Tracer::off();
    let mut log = OpLog::default();
    let mut reads = Phase::default();

    let (_, mut written) = beside_writer(&fx, Tracer::off(), || {
        for _ in 0..cfg.scale.warmup_rounds {
            reader.round(&mut tr, &mut log, |_| {});
        }
        let start = Instant::now();
        while secs(start) < cfg.seconds {
            reads.round(|reads| reader.round(&mut tr, &mut log, |s| reads.record(s)));
        }
    });
    report.log.merge(log);
    report.log.merge(std::mem::take(&mut written.log));

    let mut quiet = report.set_reads(&reads);
    report.set_writes(&written.phase);
    report.set("peak_rss_mb", peak_rss_mb());
    report.set_setup(&cost);
    report.set_n("e2e.read_p99_ms", quiet.quantile_ms(0.99), quiet.samples());
    report.notes.push(format!(
        "{} rows in metrics; panel refreshes beside {} UPDATEs of {} rows each",
        fx.metrics.rows,
        written.phase.ops(),
        fx.metrics.rows_per_panel()
    ));
    Ok(report)
}

/// Plain `WHERE id = X` lookups over the whole id range, no writer
/// running. At the seed a row-returning scan whose zone maps prune the
/// leading row group loses its result stream when more than one worker
/// runs it ("result stream ended before every batch arrived"), so every
/// id beyond the first row group fails. Reported as a number; the ops are
/// a probe of a known defect and not part of the workload's count.
fn pruned_stream_probe(fx: &Dash) -> f64 {
    let conn = fx.db.connect();
    let probes = 200u64;
    let mut failed = 0u64;
    let mut tr = Tracer::off();
    for i in 0..probes {
        let id = i * fx.metrics.rows as u64 / probes;
        let sql = format!("SELECT id, panel, val FROM metrics WHERE id = {id}");
        let mut rows = Vec::new();
        let ok = read_embedded(&conn, &sql, &mut tr, |c| rows.extend(c.to_rows())).is_ok()
            && Panel::Lookup { id }.consistent(&fx.metrics, &rows);
        failed += u64::from(!ok);
    }
    failed as f64 / probes as f64
}

/// The traced pass: the reader beside the writer, the reader alone, and
/// the transaction layer's own costs.
pub fn run_traced(cfg: &Cfg) -> Result<Report> {
    let mut report = Report::default();
    let (fx, cost) = setup(cfg.seed, &cfg.scale)?;
    let origin = Instant::now();
    let mut tr = Tracer::new(true, origin);
    let mut reader = Reader::new(&fx, cfg);
    let mut log = OpLog::default();

    // Contended.
    let mut reads = Phase::default();
    let (mut open_us, mut first_ms, mut drain_ms) =
        (Samples::new(), Samples::new(), Samples::new());
    let (_, mut written) = beside_writer(&fx, Tracer::new(true, origin), || {
        reader.round(&mut tr, &mut log, |_| {});
        let start = Instant::now();
        while secs(start) < cfg.seconds * 0.45 || reads.rounds() < 2 {
            reads.round(|reads| {
                reader.round(&mut tr, &mut log, |s| {
                    reads.record(s);
                    open_us.push(s.open_ms * 1e3);
                    first_ms.push(s.first_ms);
                    drain_ms.push(s.drain_ms);
                })
            });
        }
    });
    report.log.merge(std::mem::take(&mut written.log));

    // What the writer left behind, reclaimed in one call.
    let t = Instant::now();
    let reclaimed = fx.db.txn_manager().garbage_collect();
    let gc_ms = secs(t) * 1e3;

    // Quiet: the same reader with the writer gone.
    let mut quiet = Samples::new();
    let start = Instant::now();
    while secs(start) < cfg.seconds * 0.25 || quiet.len() < 8 {
        reader.round(&mut tr, &mut log, |s| quiet.push(s.total_ms));
    }
    report.log.merge(log);

    // An empty transaction: begin + commit with nothing in between.
    let mut begin_commit_us = Samples::new();
    let start = Instant::now();
    while secs(start) < cfg.seconds * 0.05 || begin_commit_us.len() < 100 {
        let t = Instant::now();
        let txn = fx.db.txn_manager().begin();
        fx.db.commit_transaction(txn)?;
        begin_commit_us.push(secs(t) * 1e6);
    }

    // One statement of each kind, weighted as the round weights them.
    let statements: Vec<String> = reader.next_round().iter().map(Panel::sql).collect();
    let frontend = replay_frontend(&fx.db, &statements, 200, &mut tr)?;

    let mut contended = reads.quiet();
    let contended_p50 = contended.p50_ms();
    report.set("sql.parse_us", frontend.parse_us);
    report.set("sql.bind_us", frontend.bind_us);
    report.set("sql.optimize_us", frontend.optimize_us);
    report.set("sql.frontend_frac", frontend.total_us() / (contended_p50 * 1e3));
    report.set_n("core.open_us", open_us.median(), open_us.len());
    report.set("core.lower_us", open_us.median() - frontend.total_us());
    report.set_n("core.drain_ms", drain_ms.median(), drain_ms.len());
    report.set_n("exec.first_chunk_ms", first_ms.median(), first_ms.len());
    report.set("exec.workers_default", fx.db.policy().worker_threads() as f64);
    report.set("exec.pruned_stream_fail_frac", pruned_stream_probe(&fx));
    report.set_n("txn.begin_commit_us", begin_commit_us.median(), begin_commit_us.len());
    report.set_n("txn.read_quiet_p50_ms", quiet.median(), quiet.len());
    report.set_n("txn.read_quiet_p99_ms", quiet.quantile(0.99), quiet.len());
    report.set("txn.writer_interference", contended_p50 / quiet.median());
    report.set("txn.update_rows_per_s", written.phase.quiet().rows_per_s());
    report.set("txn.gc_ms", gc_ms);
    report.set("storage.peak_accounted_mb", fx.db.buffers().peak_memory() as f64 / 1e6);
    report.set("client.appender_rows_per_s", cost.rows as f64 / cost.load_s);
    report.set_reads(&reads);
    report.set_n("e2e.read_p99_ms", contended.quantile_ms(0.99), contended.samples());
    report.set_writes(&written.phase);
    report.notes.push(format!("garbage_collect() after the writer stopped reclaimed {reclaimed}"));
    if let Some(w) = written.tracer.take() {
        tr.absorb(w);
    }
    report.set_traced(&tr, &cost);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(rows: &[&[i64]]) -> Vec<Vec<Value>> {
        rows.iter().map(|r| r.iter().map(|&v| Value::BigInt(v)).collect()).collect()
    }

    #[test]
    fn snapshot_checks_accept_whole_updates_and_reject_torn_ones() {
        let m = Metrics::new(1, 80); // 10 rows per panel
        let start: i64 = (0..8).sum::<i64>() * 10;
        assert!(Panel::Total.consistent(&m, &ints(&[&[80, start]])));
        // Panel 3 wholly rewritten to 11 (≡ 3 mod 8): still one snapshot.
        assert!(Panel::Total.consistent(&m, &ints(&[&[80, start + 10 * 8]])));
        // Half of that update visible: torn.
        assert!(!Panel::Total.consistent(&m, &ints(&[&[80, start + 5 * 8]])));
        assert!(!Panel::Total.consistent(&m, &ints(&[&[79, start]])));

        let by_panel: Vec<Vec<i64>> = (0..8).map(|p| vec![p, 10, p + 8, p + 8]).collect();
        let refs: Vec<&[i64]> = by_panel.iter().map(Vec::as_slice).collect();
        assert!(Panel::Grouped.consistent(&m, &ints(&refs)));
        let mut torn = by_panel.clone();
        torn[2][2] = 2; // min is the old value, max the new one
        let refs: Vec<&[i64]> = torn.iter().map(Vec::as_slice).collect();
        assert!(!Panel::Grouped.consistent(&m, &ints(&refs)));

        assert!(Panel::Range { lo: 5, width: 20 }.consistent(&m, &ints(&[&[20]])));
        assert!(!Panel::Range { lo: 5, width: 20 }.consistent(&m, &ints(&[&[19]])));
        let p = m.panel_of(42) as i64;
        assert!(Panel::Lookup { id: 42 }.consistent(&m, &ints(&[&[42, p, p + 16]])));
        assert!(!Panel::Lookup { id: 42 }.consistent(&m, &ints(&[&[42, p, p + 1]])));
        assert!(!Panel::Lookup { id: 42 }.consistent(&m, &[]));
    }
}
