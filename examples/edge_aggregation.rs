//! Edge-node pre-aggregation (§1): "Performing analysis or pre-aggregation
//! directly inside the edge node can help to limit the amount of data that
//! has to be transferred to a central location."
//!
//! An edge device ingests raw sensor readings into an embedded eider
//! database, aggregates locally, and ships only the tiny summary upstream —
//! we measure the bandwidth saved.
//!
//! ```sh
//! cargo run --release --example edge_aggregation
//! ```

use eider::{Database, Result};
use eider_bench::workload::Workload;
use eider_client::protocol::{serialize_result, Bandwidth};
use eider_client::Appender;
use std::sync::Arc;

fn main() -> Result<()> {
    let db = Database::in_memory()?;
    let conn = db.connect();
    conn.execute(
        "CREATE TABLE readings (sensor_id INTEGER NOT NULL, ts TIMESTAMP, reading DOUBLE)",
    )?;

    // Ingest a day of readings through the bulk appender (the §5 chunk
    // handover in the application -> DBMS direction).
    let raw_chunks = Workload::new(99).sensor_chunks(500_000, 64)?;
    let entry = db.catalog().get_table("readings")?;
    let txn = Arc::new(db.txn_manager().begin());
    let mut appender = Appender::new(entry, Arc::clone(&txn));
    for chunk in raw_chunks {
        appender.append_chunk(chunk)?;
    }
    let ingested = appender.finish()?;
    db.commit_transaction(Arc::try_unwrap(txn).expect("sole handle"))?;
    println!("ingested {ingested} raw readings on the edge node");

    // Local pre-aggregation: per-sensor hourly summary + anomaly counts.
    let summary = conn.query(
        "SELECT sensor_id,
                count(*)                  AS samples,
                round(avg(reading), 2)    AS mean,
                round(max(reading), 2)    AS peak,
                sum(CASE WHEN reading > 100.0 THEN 1 ELSE 0 END) AS anomalies
         FROM readings
         GROUP BY sensor_id
         ORDER BY anomalies DESC, sensor_id
         LIMIT 10",
    )?;
    println!("\ntop sensors by anomaly count:\n{summary}");

    // What would shipping raw vs summarized data cost on the uplink?
    let raw = conn.query("SELECT * FROM readings")?;
    let full_summary = conn.query(
        "SELECT sensor_id, count(*), avg(reading), max(reading)
         FROM readings GROUP BY sensor_id",
    )?;
    let raw_bytes = serialize_result(&raw).len();
    let summary_bytes = serialize_result(&full_summary).len();
    // The paper's motivation is constrained radio links; assume LTE-ish
    // 10 Mbit/s.
    let uplink = Bandwidth { bits_per_second: 10e6 };
    println!(
        "raw upload      : {:>10} bytes = {:>8.1}s on a 10 Mbit/s uplink",
        raw_bytes,
        uplink.wire_seconds(raw_bytes)
    );
    println!(
        "summary upload  : {:>10} bytes = {:>8.3}s on a 10 Mbit/s uplink",
        summary_bytes,
        uplink.wire_seconds(summary_bytes)
    );
    println!("bandwidth saved : {:.1}x", raw_bytes as f64 / summary_bytes as f64);
    Ok(())
}
