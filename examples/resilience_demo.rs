//! Resilience in action (§3): silent disk corruption is detected by block
//! checksums rather than silently propagating, and the health monitor
//! escalates checking after the first fault (Table 1's "failed once means
//! likely to fail again").
//!
//! ```sh
//! cargo run --release --example resilience_demo
//! ```

use eider::{Database, Result};
use std::io::{Read, Seek, SeekFrom, Write};

fn main() -> Result<()> {
    let nanos = std::time::UNIX_EPOCH.elapsed().map_or(0, |d| d.as_nanos());
    let mut path = std::env::temp_dir();
    path.push(format!("eider_resilience_demo_{}_{nanos}.db", std::process::id()));
    let wal = format!("{}.wal", path.display());
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);

    // Create a persistent database and checkpoint some data into it.
    {
        let db = Database::open(&path)?;
        let conn = db.connect();
        conn.execute("CREATE TABLE ledger (id INTEGER, amount DOUBLE)")?;
        for batch in 0..10 {
            let rows: Vec<String> = (0..1000)
                .map(|i| format!("({}, {})", batch * 1000 + i, (i as f64) / 7.0))
                .collect();
            conn.execute(&format!("INSERT INTO ledger VALUES {}", rows.join(",")))?;
        }
        conn.execute("CHECKPOINT")?;
        let r = conn.query("SELECT count(*), round(sum(amount), 2) FROM ledger")?;
        println!("before corruption: {r}");
    } // closed cleanly

    // A failing flash cell flips one bit per data block, silently — no I/O
    // error is reported. (Flips in *free* blocks are harmless and stay
    // undetected by design; flipping every block guarantees the live
    // checkpoint chain is hit.)
    {
        let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&path)?;
        let len = f.metadata()?.len();
        let block = 256 * 1024u64;
        let mut flips = 0;
        let mut slot = 3; // past the file headers
        while (slot + 1) * block <= len {
            let offset = slot * block + 31_337;
            f.seek(SeekFrom::Start(offset))?;
            let mut b = [0u8; 1];
            f.read_exact(&mut b)?;
            f.seek(SeekFrom::Start(offset))?;
            f.write_all(&[b[0] ^ 0x20])?;
            flips += 1;
            slot += 1;
        }
        println!("flipped one bit in each of {flips} data blocks (silently!)");
    }

    // Reopening must *detect* the corruption, not serve garbage.
    match Database::open(&path) {
        Ok(db) => {
            // The corrupted block may not be read until the table is
            // scanned; the scan must fail loudly.
            let conn = db.connect();
            match conn.query("SELECT count(*), round(sum(amount), 2) FROM ledger") {
                Ok(r) => println!("UNEXPECTED: query served data from a corrupt file: {r}"),
                Err(e) => {
                    println!("query failed as required:\n  {e}");
                    println!(
                        "health monitor: {} disk fault(s) recorded, mode = {:?}",
                        db.health().disk_faults(),
                        db.health().mode()
                    );
                }
            }
        }
        Err(e) => {
            println!("open failed as required:\n  {e}");
        }
    }

    println!(
        "\n§3: \"Rather than allowing data corruption through silent errors an \
         embedded analytics DBMS needs to detect these errors and correct them if \
         possible or cease operation entirely.\""
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
    Ok(())
}
