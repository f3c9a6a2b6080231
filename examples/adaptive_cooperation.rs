//! Cooperation (§4, Figure 1): the embedded DBMS watches the application's
//! memory pressure and reacts — shrinking its own budget and compressing
//! its intermediates (None -> Light -> Heavy) so the *end-to-end* system
//! stays healthy.
//!
//! ```sh
//! cargo run --release --example adaptive_cooperation
//! ```

use eider::{Database, Result};
use eider_bench::controller::{AdaptiveController, ControllerConfig, SimulatedApplication};
use eider_coop::monitor::ResourceMonitor;

fn main() -> Result<()> {
    let total_budget: usize = 256 << 20; // RAM shared by app + DBMS
    let db = Database::in_memory()?;
    let conn = db.connect();
    conn.execute("CREATE TABLE events (k INTEGER, v DOUBLE)")?;
    for batch in 0..5 {
        let rows: Vec<String> = (0..2000)
            .map(|i| format!("({}, {})", (batch * 2000 + i) % 1000, i as f64 * 0.25))
            .collect();
        conn.execute(&format!("INSERT INTO events VALUES {}", rows.join(",")))?;
    }

    // The co-resident application (a dashboard, a notebook kernel, ...)
    // with the bursty RAM profile of Figure 1.
    let app = SimulatedApplication::figure1_trace(total_budget);
    let mut controller = AdaptiveController::new(ControllerConfig::for_budget(total_budget));

    println!("step | app RAM | DBMS budget | compression | query ms");
    let mut step = 0;
    loop {
        let usage = app.sample();
        let decision = controller.observe(usage);
        // Push the decision into the engine: budget + intermediate
        // compression level (hash join build sides, sort runs).
        db.buffers().set_memory_limit(decision.dbms_memory_budget);
        db.policy().set_memory_limit(decision.dbms_memory_budget);
        db.policy().set_compression(decision.compression);

        if step % 8 == 0 {
            let t = std::time::Instant::now();
            let _ = conn.query(
                "SELECT e1.k, count(*), sum(e1.v) FROM events e1 \
                 JOIN events e2 ON e1.k = e2.k GROUP BY e1.k",
            )?;
            println!(
                "{step:>4} | {:>6} MB | {:>8} MB | {:>11} | {:>7.1}",
                usage.app_memory_bytes >> 20,
                decision.dbms_memory_budget >> 20,
                decision.compression.label(),
                t.elapsed().as_secs_f64() * 1e3
            );
        }
        step += 1;
        if !app.step() {
            break;
        }
    }
    println!(
        "\nAs the application's RAM demand grows, the DBMS gives back memory and \
         pays CPU for compression instead of starving its host (§4). When the \
         burst passes, it relaxes again."
    );
    Ok(())
}
