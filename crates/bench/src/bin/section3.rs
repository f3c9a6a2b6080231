//! §3 (Resilience) experiment driver.
//!
//! Claims reproduced:
//! * E3a — block checksums detect every injected bit flip in persistent
//!   storage ("detect these errors ... or cease operation entirely").
//! * E3b — AN-coded query processing detects in-memory flips at a 1.1×–1.6×
//!   slowdown (Kolditz et al.).
//! * E3c — moving-inversions memory tests catch stuck and coupled cells
//!   that naive write-read misses; the health monitor escalates after the
//!   first fault (Table 1's recurrence argument).
//!
//! The run exits 1 unless every injected block flip and every single-bit
//! flip of an AN-coded word is detected, and moving inversions finds all
//! three injected defects while naive write-read finds fewer. The AN-code
//! overhead is printed against the paper's band, not checked: it is a
//! timing ratio of two memory-bound loops.

use eider_bench::ancode::AnCodec;
use eider_bench::memtest::{MemTestKind, MemoryTester};
use eider_bench::workload::Workload;
use eider_bench::Claims;
use eider_resilience::fault::{CellDefect, Defect, FaultInjector, SimulatedMemory};
use eider_resilience::health::HealthMonitor;
use eider_storage::file_manager::{BlockManager, InMemoryBlockManager};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut claims = Claims::new();
    println!("# E3a: block checksum detection of injected disk bit flips");
    let health = Arc::new(HealthMonitor::new());
    let mgr = InMemoryBlockManager::with_health(Arc::clone(&health));
    let mut injector = FaultInjector::new(99, 0.0);
    let trials = 200;
    let mut detected = 0;
    for i in 0..trials {
        let id = mgr.allocate_block();
        mgr.write_block(id, &vec![(i % 251) as u8; 200_000]).expect("write");
        // Flip exactly one random bit of the stored 256 KiB image.
        let mut image = vec![0u8; 1];
        let bit = injector.flip_random_bits(&mut image, 1)[0]; // draw position
        mgr.corrupt_block(id, (bit * 7919) % (256 * 1024 * 8));
        if mgr.read_block(id).is_err() {
            detected += 1;
        }
    }
    println!("  injected flips     : {trials}");
    println!("  detected           : {detected} ({:.1}%)", 100.0 * detected as f64 / trials as f64);
    println!(
        "  health monitor     : {} disk faults recorded, mode {:?}",
        health.disk_faults(),
        health.mode()
    );
    claims.check("E3a every injected block flip is detected", detected == trials);

    println!("\n# E3b: AN-code hardening overhead (paper target: 1.1x-1.6x slower)");
    let data32 = Workload::new(3).int_column(4_000_000, 1_000_000);
    let data64: Vec<i64> = data32.iter().map(|&v| i64::from(v)).collect();
    let codec = AnCodec::default();
    let encoded = codec.encode_slice_i32(&data32);
    // Plain sums: the narrow original (half the memory traffic — AN codes
    // inherently widen 32-bit payloads to 64-bit words) and the
    // width-matched 64-bit baseline AHEAD compares against.
    let started = Instant::now();
    let mut plain32_sum = 0i64;
    for &v in &data32 {
        plain32_sum = plain32_sum.wrapping_add(i64::from(v));
    }
    let plain32_time = started.elapsed();
    let started = Instant::now();
    let mut plain64_sum = 0i64;
    for &v in &data64 {
        plain64_sum = plain64_sum.wrapping_add(v);
    }
    let plain64_time = started.elapsed();
    // Hardened sum over encoded data (validates the final aggregate).
    let started = Instant::now();
    let hard_sum = codec.sum_encoded(&encoded).expect("clean data");
    let hard_time = started.elapsed();
    assert_eq!(plain32_sum, hard_sum);
    assert_eq!(plain64_sum, hard_sum);
    println!("  plain i32 sum      : {:>8.2} ms (16 MB scanned)", plain32_time.as_secs_f64() * 1e3);
    println!("  plain i64 sum      : {:>8.2} ms (32 MB scanned)", plain64_time.as_secs_f64() * 1e3);
    println!("  AN-coded sum       : {:>8.2} ms (32 MB scanned)", hard_time.as_secs_f64() * 1e3);
    println!(
        "  width-matched cost : {:>8.2}x (vs i64 baseline; paper band 1.1x-1.6x)",
        hard_time.as_secs_f64() / plain64_time.as_secs_f64()
    );
    println!(
        "  incl. 32->64 blowup: {:>8.2}x (vs original i32 data)",
        hard_time.as_secs_f64() / plain32_time.as_secs_f64()
    );
    // Detection: flip each bit of one word in turn; A is odd, so every
    // single flip leaves the hardened sum a non-multiple of A.
    let mut corrupted = encoded;
    let caught = (0..64)
        .filter(|bit| {
            corrupted[1_234_567] ^= 1 << bit;
            let err = codec.sum_encoded(&corrupted).is_err();
            corrupted[1_234_567] ^= 1 << bit;
            err
        })
        .count();
    println!("  single bit flips   : {caught} of 64 detected by the AN check");
    claims.check("E3b every single-bit flip of an AN-coded word is detected", caught == 64);

    println!("\n# E3c: moving inversions vs naive write-read on defective memory");
    let defects = vec![
        Defect { word: 1000, bit: 3, kind: CellDefect::StuckHigh },
        Defect { word: 70_000, bit: 41, kind: CellDefect::StuckLow },
        Defect { word: 40_000, bit: 7, kind: CellDefect::CoupledToPrevious },
    ];
    let mut mem = SimulatedMemory::with_defects(100_000, defects);
    // Naive: write+read one pattern.
    let mut naive_errors = 0;
    for pattern in [0u64, u64::MAX] {
        for i in 0..100_000 {
            mem.write(i, pattern);
        }
        for i in 0..100_000 {
            if mem.read(i) != pattern {
                naive_errors += 1;
                mem.write(i, pattern);
            }
        }
    }
    let report = MemoryTester::new(MemTestKind::Full).test(&mut mem);
    let found = report.faulty_words();
    println!("  naive write-read   : {naive_errors} of 3 defects found (stuck bits only)");
    println!("  moving inversions  : {} defective words found: {found:?}", found.len());
    claims.check(
        "E3c moving inversions finds all 3 defects, naive write-read fewer",
        found == [1000, 40_000, 70_000] && naive_errors < 3,
    );
    let started = Instant::now();
    let mut buf = vec![0u64; 8 << 20 >> 3]; // 8 MiB buffer
    let r = MemoryTester::new(MemTestKind::Quick).test(buf.as_mut_slice());
    let t = started.elapsed();
    println!(
        "  quick test of 8MiB buffer: {:.2} ms ({} passes, healthy: {}) — what an \
         allocation-time test in the buffer manager would cost",
        t.as_secs_f64() * 1e3,
        r.passes,
        r.is_healthy()
    );
    claims.finish();
}
