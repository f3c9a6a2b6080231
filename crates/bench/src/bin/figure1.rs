//! **Figure 1** regenerator: reactive resource usage under application
//! memory pressure.
//!
//! The paper's figure sketches an application whose RAM usage ramps up
//! while the DBMS reacts: no compression at first, then lightweight, then
//! heavy compression of its temporary structures — trading CPU for RAM so
//! the *end-to-end* system keeps fitting in memory.
//!
//! This binary replays that exact scenario: a scripted application trace
//! (DESIGN.md substitution F1) drives the adaptive controller while the
//! DBMS repeatedly materializes a workload intermediate (a chunk
//! collection, as a hash join build side would). Per step we print the
//! application RAM, the DBMS intermediate footprint, the compression level
//! and the CPU cost of the materialization — the four series of Figure 1.

use eider_bench::workload::Workload;
use eider_coop::compression::CompressionLevel;
use eider_coop::controller::{AdaptiveController, ControllerConfig};
use eider_coop::monitor::{ResourceMonitor, SimulatedApplication};
use eider_exec::collection::ChunkCollection;
use std::time::Instant;

fn main() {
    let total_budget: usize = 512 << 20; // machine RAM shared by app + DBMS
    let app = SimulatedApplication::figure1_trace(total_budget);
    let mut controller = AdaptiveController::new(ControllerConfig::for_budget(total_budget));

    // The DBMS's working intermediate: ~64 MB of columnar data.
    let chunks = Workload::new(42).orders_chunks(400_000, 10_000).expect("workload");

    println!("step,app_ram_mb,dbms_intermediate_mb,compression,cpu_ms,total_mb");
    let mut step = 0usize;
    let mut summary: Vec<(CompressionLevel, usize, f64)> = Vec::new();
    loop {
        let usage = app.sample();
        let decision = controller.observe(usage);
        // Rebuild the intermediate at the decided compression level
        // (sampled every 4 steps to keep the trace fast).
        if step.is_multiple_of(4) {
            let started = Instant::now();
            let mut collection = ChunkCollection::new(decision.compression);
            for chunk in &chunks {
                collection.append(chunk.clone()).expect("append");
            }
            let cpu_ms = started.elapsed().as_secs_f64() * 1e3;
            let dbms_mb = collection.stored_bytes() / (1 << 20);
            let app_mb = usage.app_memory_bytes / (1 << 20);
            println!(
                "{step},{app_mb},{dbms_mb},{},{cpu_ms:.1},{}",
                decision.compression.label(),
                app_mb + dbms_mb
            );
            summary.push((decision.compression, collection.stored_bytes(), cpu_ms));
        }
        step += 1;
        if !app.step() {
            break;
        }
    }

    println!("\n# Figure 1 shape check (mean over steps at each level):");
    for level in [CompressionLevel::None, CompressionLevel::Light, CompressionLevel::Heavy] {
        let at: Vec<_> = summary.iter().filter(|(l, _, _)| *l == level).collect();
        if at.is_empty() {
            continue;
        }
        let mb = at.iter().map(|(_, b, _)| *b).sum::<usize>() / at.len() / (1 << 20);
        let ms = at.iter().map(|(_, _, m)| *m).sum::<f64>() / at.len() as f64;
        println!("  {:<6} intermediate ~{mb:>4} MB, build cpu ~{ms:>7.1} ms", level.label());
    }
    println!(
        "\nExpected: RAM footprint None > Light > Heavy; CPU cost None < Light < Heavy;\n\
         level follows the app ramp None -> Light -> Heavy -> Light -> None."
    );
}
