//! §5 (Transfer Efficiency) experiment driver: exporting a large result
//! set through the three access paths.
//!
//! * zero-copy chunks — the embedded architecture's point: `Arc` handover;
//! * value-at-a-time API — ODBC/JDBC/SQLite-style per-value calls;
//! * serialized protocol — row-major byte stream + simulated 1 Gbit/s wire
//!   (what a client-server deployment must pay).
//!
//! The run exits 1 unless zero-copy is at least 10x faster than the value
//! API, and the value API at least 2x faster than the protocol.

use eider_bench::protocol::{deserialize_result, serialize_result, Bandwidth};
use eider_bench::Claims;
use std::time::Instant;

fn main() {
    let mut claims = Claims::new();
    let rows = 2_000_000;
    let db = eider_bench::star_db(rows, 10_000, 21).expect("db");
    let conn = db.connect();
    println!("# E5: exporting {rows} rows x 5 columns to the application");

    let result = conn.query("SELECT * FROM orders").expect("query");
    assert_eq!(result.row_count(), rows);

    // 1. Zero-copy chunk handover.
    let started = Instant::now();
    let mut total_rows = 0usize;
    for chunk in result.chunks() {
        total_rows += chunk.len(); // the app now owns a reference; no copy
    }
    let zero_copy = started.elapsed();
    assert_eq!(total_rows, rows);

    // 2. Value-at-a-time cursor (per-value function calls).
    let started = Instant::now();
    let mut cursor = result.cursor();
    let mut checksum = 0i64;
    while cursor.step() {
        for col in 0..result.column_count() {
            if let Some(v) = cursor.column(col).as_i64() {
                checksum = checksum.wrapping_add(v);
            }
        }
    }
    let value_api = started.elapsed();
    std::hint::black_box(checksum);

    // 3. Serialized client protocol + simulated 1 Gbit/s socket.
    let started = Instant::now();
    let bytes = serialize_result(&result);
    let serialize_time = started.elapsed();
    let wire = Bandwidth::gigabit().wire_seconds(bytes.len());
    let started = Instant::now();
    let back = deserialize_result(&bytes).expect("deserialize");
    let deserialize_time = started.elapsed();
    assert_eq!(back.row_count(), rows);
    let protocol_total = serialize_time.as_secs_f64() + wire + deserialize_time.as_secs_f64();

    println!("\n{:<28} {:>12}", "path", "seconds");
    println!("{:<28} {:>12.4}", "zero-copy chunks", zero_copy.as_secs_f64());
    println!("{:<28} {:>12.4}", "value-at-a-time API", value_api.as_secs_f64());
    println!(
        "{:<28} {:>12.4}  (serialize {:.3} + wire {:.3} + deserialize {:.3}; {} MB)",
        "serialized protocol @1Gbit",
        protocol_total,
        serialize_time.as_secs_f64(),
        wire,
        deserialize_time.as_secs_f64(),
        bytes.len() / (1 << 20)
    );
    println!(
        "\nspeedup of chunks over value API : {:>8.0}x",
        value_api.as_secs_f64() / zero_copy.as_secs_f64().max(1e-9)
    );
    println!(
        "speedup of chunks over protocol  : {:>8.0}x",
        protocol_total / zero_copy.as_secs_f64().max(1e-9)
    );
    println!(
        "\nExpected shape (paper §5 / 'Don't hold my data hostage'): chunk handover\n\
         is orders of magnitude faster; per-value calls dominate the value API;\n\
         serialization + bandwidth dominate the socket protocol."
    );
    let (zero_copy, value_api) = (zero_copy.as_secs_f64(), value_api.as_secs_f64());
    claims.check("zero-copy >= 10x faster than the value API", zero_copy * 10.0 <= value_api);
    claims.check("value API >= 2x faster than the protocol", value_api * 2.0 <= protocol_total);
    claims.finish();
}
