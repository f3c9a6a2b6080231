//! `server_fetch`: one client pulling results over loopback TCP from
//! `eider_server::serve_session` — the socket door of §5.
//!
//! Each round fetches 200k rows of five fixed-width columns, 100k rows
//! with two dictionary-encodable string columns, and a one-row aggregate
//! (the round-trip floor). The statements are plain scans, so
//! `client::wire` encode/decode, the server's framing and the cursor drain
//! dominate and the executor is nearly idle: the mirror image of
//! `olap_embedded`. An executor change predicts no movement here; a wire
//! change predicts none there.
//!
//! The server side is wired exactly as the `eider-server` binary wires
//! it (socket clone as reader, socket as writer) plus `TCP_NODELAY`; the
//! client side is the harness's own and reads through a `BufReader`.

use super::olap::{setup, StarDb};
use super::{repeated_setup, Cfg, Report};
use crate::gen::{Fold, Query};
use crate::host::{
    checked_read, ms, peak_rss_mb, read_embedded, secs, Check, Checker, OpLog, Phase, ReadStat,
};
use crate::stats::Samples;
use crate::trace::Tracer;
use eider_client::wire::{ChunkReader, Frame};
use eider_core::Database;
use eider_vector::{DataChunk, EiderError, Result};
use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

fn io(e: std::io::Error) -> EiderError {
    EiderError::Io(e)
}

/// The client end of one session.
struct Client {
    out: TcpStream,
    reader: ChunkReader<BufReader<TcpStream>>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Client> {
        let out = TcpStream::connect(addr).map_err(io)?;
        out.set_nodelay(true).map_err(io)?;
        let reader =
            ChunkReader::new(BufReader::with_capacity(64 << 10, out.try_clone().map_err(io)?));
        Ok(Client { out, reader })
    }

    /// SQL text in → last row decoded on the client. With tracing on, the
    /// op leaves `op ⊃ {server.request, server.first_frame, client.decode}`:
    /// request written and flushed; request sent → header frame decoded
    /// (the server parsed, planned and started executing); header → end
    /// frame (chunks arriving and being decoded).
    fn read(
        &mut self,
        sql: &str,
        tr: &mut Tracer,
        mut on_chunk: impl FnMut(&DataChunk),
    ) -> Result<ReadStat> {
        let t0 = tr.now();
        eider_server::write_request(&mut self.out, sql)?;
        let t1 = tr.now();
        match self.reader.read_frame()? {
            Some(Frame::Header { .. }) => {}
            Some(Frame::Error(message)) => return Err(EiderError::Execution(message)),
            other => {
                return Err(EiderError::Corruption(format!(
                    "wire stream opened with {other:?}, not a header"
                )))
            }
        }
        let t2 = tr.now();
        let mut rows = 0u64;
        loop {
            match self.reader.read_frame()? {
                Some(Frame::Chunk(chunk)) => {
                    rows += chunk.len() as u64;
                    on_chunk(&chunk);
                }
                Some(Frame::End { rows: sent }) if sent == rows => break,
                Some(Frame::End { rows: sent }) => {
                    return Err(EiderError::Corruption(format!(
                        "server sent {sent} rows, client decoded {rows}"
                    )))
                }
                Some(Frame::Error(message)) => return Err(EiderError::Execution(message)),
                other => {
                    return Err(EiderError::Corruption(format!(
                        "unexpected {other:?} inside a wire stream"
                    )))
                }
            }
        }
        let t3 = tr.now();
        let op = tr.next_op();
        let root = tr.record("op", 0, op, t0, t3);
        tr.record("server.request", root, op, t0, t1);
        tr.record("server.first_frame", root, op, t1, t2);
        tr.record("client.decode", root, op, t2, t3);
        Ok(ReadStat { rows, total_ms: ms(t0, t3), ..ReadStat::default() })
    }

    /// A wire read checked against the statement's oracle.
    fn checked(
        &mut self,
        q: &Query,
        check: Check,
        tr: &mut Tracer,
        log: &mut OpLog,
    ) -> Option<ReadStat> {
        let mut checker = Checker::new(q, check);
        let read = self.read(&q.sql, tr, |chunk| checker.on_chunk(chunk));
        checker.finish(" over the wire", read, log)
    }

    fn round(
        &mut self,
        queries: &[Query],
        check: Check,
        tr: &mut Tracer,
        log: &mut OpLog,
        mut seen: impl FnMut(usize, &ReadStat),
    ) {
        for (i, q) in queries.iter().enumerate() {
            if let Some(stat) = self.checked(q, check, tr, log) {
                seen(i, &stat);
            }
        }
    }
}

/// Serve one session on an ephemeral loopback port on a second thread
/// while `client_body` drives it from this one.
fn with_session<T>(
    db: &Arc<Database>,
    client_body: impl FnOnce(&mut Client) -> T,
) -> Result<(T, Result<()>)> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    std::thread::scope(|s| {
        let server = s.spawn(move || -> Result<()> {
            let (stream, _) = listener.accept().map_err(io)?;
            stream.set_nodelay(true).map_err(io)?;
            let reader = stream.try_clone().map_err(io)?;
            eider_server::serve_session(db, reader, stream)
        });
        let mut client = Client::connect(addr)?;
        let out = client_body(&mut client);
        // Half-close: the server reads EOF at a request boundary and ends
        // the session, so the thread is joined, never abandoned.
        let _ = client.out.shutdown(Shutdown::Write);
        drop(client);
        let served = server.join().expect("server thread panicked");
        Ok((out, served))
    })
}

/// The untraced pass: the end-to-end metrics.
pub fn run(cfg: &Cfg) -> Result<Report> {
    let mut report = Report::default();
    let (fx, cost) = repeated_setup(&cfg.scale, || setup(cfg.seed, &cfg.scale, true))?;
    let queries = fx.star.fetch_queries();
    let mut tr = Tracer::off();
    let mut log = OpLog::default();
    let mut reads = Phase::default();

    let ((), served) = with_session(&fx.db, |client| {
        for _ in 0..cfg.scale.warmup_rounds {
            client.round(&queries, Check::Full, &mut tr, &mut log, |_, _| {});
        }
        let start = Instant::now();
        while secs(start) < cfg.seconds {
            reads.round(|reads| {
                client.round(&queries, Check::Rows, &mut tr, &mut log, |_, s| reads.record(s))
            });
        }
        client.round(&queries, Check::Full, &mut tr, &mut log, |_, _| {});
    })?;
    if let Err(e) = served {
        log.fail(format!("serve_session ended with {e}"));
    }
    report.log.merge(log);

    let mut quiet = report.set_reads(&reads);
    report.set("rows_in_per_s", cost.rows as f64 / cost.load_s);
    report.set("peak_rss_mb", peak_rss_mb());
    report.set_setup(&cost);
    report.set_n("e2e.read_p99_ms", quiet.quantile_ms(0.99), quiet.samples());
    report.notes.push(format!(
        "rounds of fetch_wide ({} rows), fetch_str ({} rows), small_agg over loopback",
        queries[0].expect.rows, queries[1].expect.rows
    ));
    Ok(report)
}

/// Median milliseconds of `op` over `reps` runs.
fn median_ms(reps: usize, mut op: impl FnMut() -> Result<()>) -> Result<f64> {
    let mut s = Samples::new();
    for _ in 0..reps {
        let t = Instant::now();
        op()?;
        s.push(secs(t) * 1e3);
    }
    Ok(s.median())
}

/// The same statements with the socket taken away, one cost at a time.
struct Offline {
    /// `query_stream` + drain, embedded.
    drain_ms: Vec<f64>,
    /// `serve_statement` into a `Vec`: drain + wire encode.
    serve_ms: Vec<f64>,
    /// `ChunkReader::read_result` over those captured bytes.
    decode_ms: Vec<f64>,
    bytes: u64,
    rows: u64,
}

fn offline_costs(fx: &StarDb, queries: &[Query], reps: usize, log: &mut OpLog) -> Result<Offline> {
    let conn = fx.db.connect();
    let mut tr = Tracer::off();
    let mut o =
        Offline { drain_ms: vec![], serve_ms: vec![], decode_ms: vec![], bytes: 0, rows: 0 };
    for q in queries {
        // Embedded rows are the reference the wire rows must equal; both
        // are held to the same oracle.
        checked_read(&conn, q, Check::Full, &mut tr, log);
        o.drain_ms
            .push(median_ms(reps, || read_embedded(&conn, &q.sql, &mut tr, |_| {}).map(|_| ()))?);

        let mut wire = Vec::new();
        o.serve_ms.push(median_ms(reps, || {
            wire.clear();
            eider_server::serve_statement(&conn, &q.sql, &mut wire)
        })?);
        o.bytes += wire.len() as u64;
        o.rows += q.expect.rows;

        let mut decoded = Fold::new(q.ordered);
        ChunkReader::new(&wire[..])
            .read_result()?
            .chunks
            .iter()
            .for_each(|c| decoded.push_chunk(c));
        if decoded.finish() == q.expect {
            log.ok();
        } else {
            log.fail(format!("{}: captured wire bytes decode to the wrong rows", q.name));
        }
        o.decode_ms.push(median_ms(reps, || {
            std::hint::black_box(ChunkReader::new(&wire[..]).read_result()?);
            Ok(())
        })?);
    }
    Ok(o)
}

/// The traced pass: the wire op split at its visible boundaries, then the
/// same statements embedded, encoded into memory, and decoded from memory.
pub fn run_traced(cfg: &Cfg) -> Result<Report> {
    let mut report = Report::default();
    let (fx, cost) = setup(cfg.seed, &cfg.scale, true)?;
    let queries = fx.star.fetch_queries();
    let mut tr = Tracer::new(true, Instant::now());
    let mut log = OpLog::default();
    let mut reads = Phase::default();
    let mut per_query: Vec<Samples> = vec![Samples::new(); queries.len()];

    let ((), served) = with_session(&fx.db, |client| {
        client.round(&queries, Check::Full, &mut tr, &mut log, |_, _| {});
        let start = Instant::now();
        while secs(start) < cfg.seconds * 0.5 || reads.rounds() < 2 {
            reads.round(|reads| {
                client.round(&queries, Check::Rows, &mut tr, &mut log, |i, s| {
                    reads.record(s);
                    per_query[i].push(s.total_ms);
                })
            });
        }
    })?;
    if let Err(e) = served {
        log.fail(format!("serve_session ended with {e}"));
    }

    let reps = ((cfg.seconds * 2.0) as usize).clamp(3, 40);
    let o = offline_costs(&fx, &queries, reps, &mut log)?;
    report.log.merge(log);

    let tcp: Vec<f64> = per_query.iter_mut().map(Samples::median).collect();
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let small = queries.len() - 1;
    report.set("core.drain_ms", sum(&o.drain_ms));
    report.set("client.wire_encode_ms", sum(&o.serve_ms) - sum(&o.drain_ms));
    report.set("client.wire_decode_ms", sum(&o.decode_ms));
    report.set("client.wire_bytes_per_row", o.bytes as f64 / o.rows as f64);
    report.set("server.socket_ms", sum(&tcp) - sum(&o.serve_ms) - sum(&o.decode_ms));
    report.set("server.small_rtt_us", (tcp[small] - o.drain_ms[small]) * 1e3);
    report.set("exec.workers_default", fx.db.policy().worker_threads() as f64);
    report.set("storage.peak_accounted_mb", fx.db.buffers().peak_memory() as f64 / 1e6);
    report.set("client.appender_rows_per_s", cost.rows as f64 / cost.load_s);
    let mut quiet = report.set_reads(&reads);
    report.set_n("e2e.read_p99_ms", quiet.quantile_ms(0.99), quiet.samples());
    report.notes.push(format!(
        "per round: tcp {:.2} ms = embedded drain {:.2} + encode {:.2} + decode {:.2} + socket",
        sum(&tcp),
        sum(&o.drain_ms),
        sum(&o.serve_ms) - sum(&o.drain_ms),
        sum(&o.decode_ms)
    ));
    report.set_traced(&tr, &cost);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;

    #[test]
    fn wire_rows_equal_the_oracle_and_a_failing_statement_is_counted_not_fatal() {
        let scale = Scale { orders: 1_000, customers: 50, notes: 300, ..Scale::smoke() };
        let (fx, _) = setup(33, &scale, true).unwrap();
        let mut queries = fx.star.fetch_queries();
        queries.push(Query { sql: "SELECT nope FROM orders".into(), ..queries[2].clone() });
        let mut log = OpLog::default();
        let mut tr = Tracer::new(true, Instant::now());
        let (seen, served) = with_session(&fx.db, |client| {
            let mut seen = 0;
            client.round(&queries, Check::Full, &mut tr, &mut log, |_, _| seen += 1);
            // The session survives the error frame.
            client.round(&queries[..3], Check::Rows, &mut tr, &mut log, |_, _| seen += 1);
            seen
        })
        .unwrap();
        served.unwrap();
        assert_eq!(seen, 6);
        assert_eq!((log.attempted, log.failed), (7, 1));
        // Six ops, four spans each, every child inside its parent.
        assert_eq!(tr.spans().len(), 24);
        for s in tr.spans().iter().filter(|s| s.parent != 0) {
            let parent = &tr.spans()[s.parent as usize - 1];
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            assert_eq!(parent.op, s.op);
        }
    }
}
