//! What the harness does as the embedding host: load through the
//! `Appender`, run a statement and take its rows, read the process's own
//! counters. Only public engine functions are called.

use crate::gen::{Answer, Fold, Query};
use crate::stats::{median_of, Samples};
use crate::trace::Tracer;
use eider_client::Appender;
use eider_core::{Connection, Database};
use eider_vector::{DataChunk, EiderError, Result};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds between two tracer timestamps.
pub fn ms(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e6
}

/// Hand `chunks` to `table` through the `Appender` and commit. Returns the
/// rows appended.
pub fn load(db: &Arc<Database>, table: &str, chunks: Vec<DataChunk>) -> Result<u64> {
    let entry = db.catalog().get_table(table)?;
    let txn = Arc::new(db.txn_manager().begin());
    let mut app = Appender::new(entry, Arc::clone(&txn));
    for chunk in chunks {
        app.append_chunk(chunk)?;
    }
    let rows = app.finish()?;
    let txn = Arc::try_unwrap(txn)
        .map_err(|_| EiderError::Internal("appender kept its transaction handle".into()))?;
    db.commit_transaction(txn)?;
    Ok(rows)
}

/// One embedded read as the host saw it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadStat {
    pub rows: u64,
    pub total_ms: f64,
    /// `query_stream` call → cursor returned (parse, bind, optimize,
    /// lower). Only measured while tracing.
    pub open_ms: f64,
    /// Cursor returned → first chunk (every pipeline breaker).
    pub first_ms: f64,
    /// First chunk → stream exhausted.
    pub drain_ms: f64,
}

/// SQL text in → last row in the host's hands, through the embedded door.
/// With tracing on, the op leaves the spans `op ⊃ {core.open,
/// exec.first_chunk, core.drain}`.
pub fn read_embedded(
    conn: &Connection,
    sql: &str,
    tr: &mut Tracer,
    mut on_chunk: impl FnMut(&DataChunk),
) -> Result<ReadStat> {
    let traced = tr.on();
    let t0 = tr.now();
    let mut cursor = conn.query_stream(sql)?;
    let t1 = if traced { tr.now() } else { t0 };
    let mut t2 = None;
    let mut rows = 0u64;
    while let Some(chunk) = cursor.next_chunk()? {
        if traced && t2.is_none() {
            t2 = Some(tr.now());
        }
        rows += chunk.len() as u64;
        on_chunk(&chunk);
    }
    drop(cursor);
    let t3 = tr.now();
    let t2 = t2.unwrap_or(t3);
    if traced {
        let op = tr.next_op();
        let root = tr.record("op", 0, op, t0, t3);
        tr.record("core.open", root, op, t0, t1);
        tr.record("exec.first_chunk", root, op, t1, t2);
        tr.record("core.drain", root, op, t2, t3);
    }
    Ok(ReadStat {
        rows,
        total_ms: ms(t0, t3),
        open_ms: ms(t0, t1),
        first_ms: ms(t1, t2),
        drain_ms: ms(t2, t3),
    })
}

/// Ops attempted and failed, with the distinct failure messages.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    pub attempted: u64,
    pub failed: u64,
    pub errors: BTreeMap<String, u64>,
}

impl OpLog {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// A failed op has no latency sample; it is counted, with its reason.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        *self.errors.entry(what.into()).or_insert(0) += 1;
    }

    pub fn merge(&mut self, other: OpLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, n) in other.errors {
            *self.errors.entry(k).or_insert(0) += n;
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// How closely a read's result is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Row count only: the timed loop takes the chunks and moves on, as a
    /// host that hands them to its own code would.
    Rows,
    /// Every value, folded into the oracle's checksum (warm-up and
    /// verification rounds, which are not timed).
    Full,
}

/// Holds one result up to its statement's oracle, whichever door the
/// chunks came through.
pub struct Checker<'q> {
    q: &'q Query,
    fold: Option<Fold>,
}

impl<'q> Checker<'q> {
    pub fn new(q: &'q Query, check: Check) -> Self {
        Checker { q, fold: (check == Check::Full).then(|| Fold::new(q.ordered)) }
    }

    pub fn on_chunk(&mut self, chunk: &DataChunk) {
        if let Some(f) = self.fold.as_mut() {
            f.push_chunk(chunk);
        }
    }

    /// File the read under passed or failed; `Some` only for a correct
    /// answer. `door` names the path in failure messages.
    pub fn finish(self, door: &str, read: Result<ReadStat>, log: &mut OpLog) -> Option<ReadStat> {
        let q = self.q;
        match read {
            Err(e) => {
                log.fail(format!("{}{door}: {e}", q.name));
                None
            }
            Ok(stat) => {
                let got = self
                    .fold
                    .map_or(Answer { rows: stat.rows, checksum: q.expect.checksum }, |f| {
                        f.finish()
                    });
                if got == q.expect {
                    log.ok();
                    Some(stat)
                } else {
                    let want = q.expect;
                    log.fail(format!("{}{door}: wrong answer {got:?}, expected {want:?}", q.name));
                    None
                }
            }
        }
    }
}

/// Run `q` through the embedded door and check it against its oracle.
pub fn checked_read(
    conn: &Connection,
    q: &Query,
    check: Check,
    tr: &mut Tracer,
    log: &mut OpLog,
) -> Option<ReadStat> {
    let mut checker = Checker::new(q, check);
    let read = read_embedded(conn, &q.sql, tr, |chunk| checker.on_chunk(chunk));
    checker.finish("", read, log)
}

/// One round (or cycle) of a timed phase: its ops and how long it took.
#[derive(Debug, Default, Clone)]
struct Round {
    secs: f64,
    lat_ms: Vec<f64>,
    rows: u64,
}

/// A timed phase: whole rounds of identical work, each with the latency
/// of its ops and the rows they moved.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    rounds: Vec<Round>,
    open: Round,
}

/// About a second of a phase: consecutive whole rounds.
#[derive(Debug, Default, Clone)]
struct Block {
    lat_ms: Samples,
    rows: u64,
    secs: f64,
    rounds: usize,
}

/// The faster half of a phase, which is what every timed metric is
/// computed from. Interference only ever adds time, and on the shared
/// two-core sandbox it comes in bursts of seconds to minutes that slow a
/// process by 10–30 %: taking a phase whole, ten same-code runs spread
/// (quartile distance over median) by up to 22 % on a rate and 20 % on a
/// 95th percentile.
///
/// So a phase is cut into blocks of consecutive rounds lasting about
/// [`BLOCK_SECS`] each, the blocks with the lower time per round are
/// kept, each metric is computed per kept block, and the **median over
/// those blocks** is reported. Every round is the same work, so dropping
/// blocks drops no kind of operation; and a block is long enough that the
/// engine's own round-to-round variation (a reader that met the writer, a
/// query that waited for a morsel) averages out inside it rather than
/// being selected on — what is dropped is the box's bad seconds. On the
/// same runs this narrows the spread of a rate by a third and of a 95th
/// percentile by two thirds.
#[derive(Debug, Default, Clone)]
pub struct Quiet {
    blocks: Vec<Block>,
}

/// Shortest block [`Phase::quiet`] ranks, in seconds.
const BLOCK_SECS: f64 = 1.0;

impl Phase {
    /// An op of the round in progress.
    pub fn record_op(&mut self, lat_ms: f64, rows: u64) {
        self.open.lat_ms.push(lat_ms);
        self.open.rows += rows;
    }

    pub fn record(&mut self, stat: &ReadStat) {
        self.record_op(stat.total_ms, stat.rows);
    }

    /// End the round in progress, which took `secs`.
    pub fn close_round(&mut self, secs: f64) {
        let mut round = std::mem::take(&mut self.open);
        round.secs = secs;
        self.rounds.push(round);
    }

    /// Run one round of `body` (which records its ops here), timed.
    pub fn round(&mut self, body: impl FnOnce(&mut Phase)) {
        let t = Instant::now();
        body(self);
        self.close_round(secs(t));
    }

    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Ops in finished rounds, all of them.
    pub fn ops(&self) -> usize {
        self.rounds.iter().map(|r| r.lat_ms.len()).sum()
    }

    pub fn quiet(&self) -> Quiet {
        // Blocks of consecutive rounds, as index ranges; a short tail
        // joins the block before it.
        let mut blocks: Vec<std::ops::Range<usize>> = Vec::new();
        let (mut from, mut acc) = (0, 0.0);
        for (i, r) in self.rounds.iter().enumerate() {
            acc += r.secs;
            if acc >= BLOCK_SECS {
                blocks.push(from..i + 1);
                (from, acc) = (i + 1, 0.0);
            }
        }
        if from < self.rounds.len() {
            match blocks.last_mut() {
                Some(last) => last.end = self.rounds.len(),
                None => blocks.push(from..self.rounds.len()),
            }
        }
        let secs_per_round = |b: &std::ops::Range<usize>| {
            self.rounds[b.clone()].iter().map(|r| r.secs).sum::<f64>() / b.len() as f64
        };
        blocks.sort_by(|a, b| secs_per_round(a).total_cmp(&secs_per_round(b)));
        blocks.truncate(blocks.len().div_ceil(2));

        let blocks = blocks
            .into_iter()
            .map(|range| {
                let mut b = Block::default();
                for r in &self.rounds[range] {
                    r.lat_ms.iter().for_each(|&l| b.lat_ms.push(l));
                    b.rows += r.rows;
                    b.secs += r.secs;
                    b.rounds += 1;
                }
                b
            })
            .collect();
        Quiet { blocks }
    }
}

impl Quiet {
    /// Rounds in the kept blocks.
    pub fn rounds(&self) -> usize {
        self.blocks.iter().map(|b| b.rounds).sum()
    }

    /// Latency samples in the kept blocks.
    pub fn samples(&self) -> usize {
        self.blocks.iter().map(|b| b.lat_ms.len()).sum()
    }

    fn median_over(&mut self, stat: impl FnMut(&mut Block) -> f64) -> f64 {
        median_of(&self.blocks.iter_mut().map(stat).collect::<Vec<_>>())
    }

    pub fn ops_per_s(&mut self) -> f64 {
        self.median_over(|b| b.lat_ms.len() as f64 / b.secs)
    }

    pub fn rows_per_s(&mut self) -> f64 {
        self.median_over(|b| b.rows as f64 / b.secs)
    }

    /// Median over the kept blocks of each block's median latency.
    pub fn p50_ms(&mut self) -> f64 {
        self.median_over(|b| b.lat_ms.median())
    }

    /// Median over the kept blocks of each block's `q`-quantile latency.
    pub fn quantile_ms(&mut self, q: f64) -> f64 {
        self.median_over(|b| b.lat_ms.quantile(q))
    }
}

/// `VmHWM`: the most resident memory the process ever held, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// `wchar`: bytes this process has passed to write-like system calls.
pub fn io_wchar() -> u64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0)
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// The commit the working directory is at, when it is a git checkout.
pub fn commit_hash() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| r.to_string(), |h| h.trim().to_string()),
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten blocks of two 0.5 s rounds; blocks 3..6 are a slow burst.
    #[test]
    fn quiet_keeps_the_faster_half_of_the_blocks_not_of_the_rounds() {
        let mut phase = Phase::default();
        for block in 0..10 {
            for round in 0..2 {
                let slow = (3..6).contains(&block);
                // Inside every block one round is quicker than the other:
                // the engine's own variation, which must not be selected on.
                let secs = if slow { 0.8 } else { 0.5 } + if round == 0 { 0.05 } else { -0.05 };
                phase.record_op(secs * 1e3, 10);
                phase.close_round(secs);
            }
        }
        assert_eq!((phase.rounds(), phase.ops()), (20, 20));
        let mut q = phase.quiet();
        // Five of ten blocks, whole: both the quick and the slow round of each.
        assert_eq!((q.rounds(), q.samples()), (10, 10));
        assert_eq!((q.p50_ms(), q.quantile_ms(1.0), q.quantile_ms(0.0)), (500.0, 550.0, 450.0));
        assert!((q.ops_per_s() - 2.0).abs() < 1e-9 && (q.rows_per_s() - 20.0).abs() < 1e-9);

        // A phase shorter than one block is one block, kept whole.
        let mut short = Phase::default();
        short.record_op(1.0, 1);
        short.close_round(0.2);
        short.record_op(3.0, 1);
        short.close_round(0.4);
        assert_eq!(short.quiet().rounds(), 2);
        assert_eq!(Phase::default().quiet().rounds(), 0);
    }
}
