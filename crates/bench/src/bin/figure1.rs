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
//!
//! The run exits 1 unless the footprint falls None > Light > Heavy, Heavy's
//! build CPU exceeds twice that of None and Light, and the level follows
//! the ramp None -> Light -> Heavy -> Light -> None. Light's CPU is not
//! checked against None's: run-length encoding the build side costs about
//! as much as copying it uncompressed, and the two trade places run to run.

use eider_bench::controller::{AdaptiveController, ControllerConfig, SimulatedApplication};
use eider_bench::workload::Workload;
use eider_bench::Claims;
use eider_coop::compression::CompressionLevel;
use eider_coop::monitor::ResourceMonitor;
use eider_exec::collection::ChunkCollection;
use std::time::Instant;

fn main() {
    let mut claims = Claims::new();
    let total_budget: usize = 512 << 20; // machine RAM shared by app + DBMS
    let app = SimulatedApplication::figure1_trace(total_budget);
    let mut controller = AdaptiveController::new(ControllerConfig::for_budget(total_budget));

    // The DBMS's working intermediate: ~64 MB of columnar data.
    let chunks = Workload::new(42).orders_chunks(400_000, 10_000).expect("workload");

    println!("step,app_ram_mb,dbms_intermediate_mb,compression,cpu_ms,total_mb");
    let mut step = 0usize;
    let mut summary: Vec<(CompressionLevel, usize, f64)> = Vec::new();
    let mut ladder: Vec<CompressionLevel> = Vec::new();
    loop {
        let usage = app.sample();
        let decision = controller.observe(usage);
        if ladder.last() != Some(&decision.compression) {
            ladder.push(decision.compression);
        }
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
    let levels = [CompressionLevel::None, CompressionLevel::Light, CompressionLevel::Heavy];
    let mut means = Vec::new();
    for level in levels {
        let at: Vec<_> = summary.iter().filter(|(l, _, _)| *l == level).collect();
        let n = at.len().max(1);
        let bytes = at.iter().map(|(_, b, _)| *b).sum::<usize>() / n;
        let ms = at.iter().map(|(_, _, m)| *m).sum::<f64>() / n as f64;
        println!(
            "  {:<6} intermediate ~{:>4} MB, build cpu ~{ms:>7.1} ms",
            level.label(),
            bytes >> 20
        );
        means.push((bytes, ms));
    }
    println!(
        "\nExpected: RAM footprint None > Light > Heavy; Heavy buys its last MB\n\
         with several times the build CPU of None and Light, which cost about\n\
         the same; level follows the app ramp None -> Light -> Heavy -> Light -> None."
    );
    let [(none_b, none_ms), (light_b, light_ms), (heavy_b, heavy_ms)] = means[..] else {
        unreachable!("three levels")
    };
    claims.check(
        "intermediate footprint None > Light > Heavy",
        none_b > light_b && light_b > heavy_b,
    );
    claims.check("Heavy build CPU > 2x max(None, Light)", heavy_ms > 2.0 * none_ms.max(light_ms));
    let [none, light, heavy] = levels;
    claims.check(
        "level follows the ramp None -> Light -> Heavy -> Light -> None",
        ladder == [none, light, heavy, light, none],
    );
    claims.finish();
}
