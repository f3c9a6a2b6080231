//! The paper's §2 ETL scenario end-to-end: load a CSV, wrangle missing
//! values with a bulk UPDATE (`UPDATE t SET d = NULL WHERE d = -999`),
//! bulk-delete outliers, and run OLAP over the cleaned table — all
//! transactionally, in one embedded engine.
//!
//! ```sh
//! cargo run --release --example etl_wrangling
//! ```

use eider::{Database, Result};
use eider_bench::workload::Workload;
use eider_etl::csv::CsvWriter;

fn main() -> Result<()> {
    // Fabricate the "existing CSV file" a data scientist would start from:
    // sensor exports where -999 encodes missing values (the McMullen
    // convention the paper quotes).
    let nanos = std::time::UNIX_EPOCH.elapsed().map_or(0, |d| d.as_nanos());
    let mut csv = std::env::temp_dir();
    csv.push(format!("eider_etl_example_{}_{nanos}.csv", std::process::id()));
    {
        let mut w = CsvWriter::create(&csv, Some(&["id".into(), "d".into(), "v".into()]), ',')?;
        for chunk in Workload::new(42).wrangling_chunks(500_000, 0.25)? {
            w.write_chunk(&chunk)?;
        }
        println!("wrote {} raw rows to {}", w.finish()?, csv.display());
    }

    let db = Database::in_memory()?;
    let conn = db.connect();
    conn.execute("CREATE TABLE readings (id INTEGER, d INTEGER, v DOUBLE)")?;

    // Extract: the database scans the CSV directly (§2: "the database can
    // directly scan existing files, reshape the result and append it").
    let t = std::time::Instant::now();
    let loaded = conn.execute(&format!("COPY readings FROM '{}' (HEADER)", csv.display()))?;
    println!("COPY FROM loaded {loaded} rows in {:.0} ms", t.elapsed().as_secs_f64() * 1e3);

    // Transform, step 1 — the paper's exact wrangling query.
    let t = std::time::Instant::now();
    let fixed = conn.execute("UPDATE readings SET d = NULL WHERE d = -999")?;
    println!(
        "UPDATE readings SET d = NULL WHERE d = -999  -> {fixed} rows in {:.0} ms",
        t.elapsed().as_secs_f64() * 1e3
    );

    // Transform, step 2 — drop physically impossible outliers in bulk.
    let dropped = conn.execute("DELETE FROM readings WHERE v > 999.5")?;
    println!("DELETE outliers -> {dropped} rows");

    // Load/analyze: OLAP over the cleaned data.
    let result = conn.query(
        "SELECT count(*)                     AS total,
                count(d)                     AS with_value,
                count(*) - count(d)          AS missing,
                round(avg(v), 2)             AS mean_v
         FROM readings",
    )?;
    println!("\ncleaned table profile:\n{result}");

    // Everything above ran as individual auto-commit transactions; complex
    // pipelines can wrap the whole thing in BEGIN/COMMIT for atomicity.
    std::fs::remove_file(&csv).ok();
    Ok(())
}
