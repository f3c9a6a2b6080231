//! Moving-inversions memory tests (after the MemTest86 algorithm the paper
//! cites) for detecting broken RAM regions.
//!
//! The paper: "writing a known pattern into RAM and reading it back ... is
//! not enough, because intermittent and data-dependent errors are missed.
//! ... There exist approximate memory error detection algorithms like
//! 'moving inversions' ... we plan to integrate memory tests into the
//! buffer manager, which will test all buffers on allocation to detect
//! existing errors and periodically to detect new errors."
//!
//! Moving inversions: write a pattern ascending through the region, then
//! sweep *descending* — checking each word and writing its complement —
//! then sweep ascending again checking the complement. Because each word is
//! rewritten while its neighbours still hold the old pattern, coupling
//! faults between adjacent cells get exercised in both directions.

use eider_resilience::fault::SimulatedMemory;

/// Abstraction over a word-addressable memory region so that the identical
/// test algorithm runs against real buffers (`[u64]`) and against
/// [`SimulatedMemory`] with injected defects.
pub trait MemRegion {
    fn len_words(&self) -> usize;
    fn read_word(&self, idx: usize) -> u64;
    fn write_word(&mut self, idx: usize, value: u64);
}

impl MemRegion for [u64] {
    fn len_words(&self) -> usize {
        self.len()
    }
    fn read_word(&self, idx: usize) -> u64 {
        self[idx]
    }
    fn write_word(&mut self, idx: usize, value: u64) {
        self[idx] = value;
    }
}

impl MemRegion for SimulatedMemory {
    fn len_words(&self) -> usize {
        self.len()
    }
    fn read_word(&self, idx: usize) -> u64 {
        self.read(idx)
    }
    fn write_word(&mut self, idx: usize, value: u64) {
        self.write(idx, value);
    }
}

/// One detected mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemError {
    pub word: usize,
    pub expected: u64,
    pub actual: u64,
}

impl MemError {
    /// Bitmask of the bits that differ.
    pub fn bad_bits(&self) -> u64 {
        self.expected ^ self.actual
    }
}

/// Outcome of a memory test run.
#[derive(Debug, Clone, Default)]
pub struct MemTestReport {
    pub errors: Vec<MemError>,
    pub words_tested: usize,
    pub passes: usize,
}

impl MemTestReport {
    pub fn is_healthy(&self) -> bool {
        self.errors.is_empty()
    }

    /// Distinct faulty word indexes (a region to quarantine).
    pub fn faulty_words(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.errors.iter().map(|e| e.word).collect();
        w.sort_unstable();
        w.dedup();
        w
    }
}

/// How thorough a test to run. The paper's plan is `Quick` on buffer
/// allocation and `Full` once the health monitor has escalated (§3: "we
/// could afford to use more lightweight error detection routines if we can
/// verify that the hardware is working as expected").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemTestKind {
    /// One pattern + complement pass (cheap allocation-time check).
    Quick,
    /// Full moving inversions with all patterns including walking ones.
    Full,
}

/// The tester. Stateless apart from configuration.
#[derive(Debug, Clone)]
pub struct MemoryTester {
    kind: MemTestKind,
}

const QUICK_PATTERNS: [u64; 2] = [0x0000_0000_0000_0000, 0xAAAA_AAAA_AAAA_AAAA];
const FULL_PATTERNS: [u64; 4] =
    [0x0000_0000_0000_0000, 0xFFFF_FFFF_FFFF_FFFF, 0xAAAA_AAAA_AAAA_AAAA, 0x5555_5555_5555_5555];

impl MemoryTester {
    pub fn new(kind: MemTestKind) -> Self {
        MemoryTester { kind }
    }

    pub fn kind(&self) -> MemTestKind {
        self.kind
    }

    /// Run the configured test over `region`. The region's previous
    /// contents are destroyed (buffers are tested *before* first use).
    pub fn test<R: MemRegion + ?Sized>(&self, region: &mut R) -> MemTestReport {
        let mut report =
            MemTestReport { errors: Vec::new(), words_tested: region.len_words(), passes: 0 };
        match self.kind {
            MemTestKind::Quick => {
                for &p in &QUICK_PATTERNS {
                    Self::moving_inversion_pass(region, p, &mut report);
                }
            }
            MemTestKind::Full => {
                for &p in &FULL_PATTERNS {
                    Self::moving_inversion_pass(region, p, &mut report);
                }
                // Walking ones: pattern with a single set bit, shifted.
                for shift in (0..64).step_by(8) {
                    Self::moving_inversion_pass(region, 1u64 << shift, &mut report);
                }
            }
        }
        report
    }

    /// One moving-inversions round for a pattern:
    /// 1. ascending write of `pattern`;
    /// 2. descending: check `pattern`, write `!pattern`;
    /// 3. ascending: check `!pattern`, write `pattern`.
    fn moving_inversion_pass<R: MemRegion + ?Sized>(
        region: &mut R,
        pattern: u64,
        report: &mut MemTestReport,
    ) {
        let n = region.len_words();
        for i in 0..n {
            region.write_word(i, pattern);
        }
        for i in (0..n).rev() {
            let v = region.read_word(i);
            if v != pattern {
                report.errors.push(MemError { word: i, expected: pattern, actual: v });
            }
            region.write_word(i, !pattern);
        }
        for i in 0..n {
            let v = region.read_word(i);
            if v != !pattern {
                report.errors.push(MemError { word: i, expected: !pattern, actual: v });
            }
            region.write_word(i, pattern);
        }
        report.passes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eider_resilience::fault::{CellDefect, Defect, SimulatedMemory};

    #[test]
    fn healthy_memory_passes() {
        let mut buf = vec![0u64; 4096];
        let report = MemoryTester::new(MemTestKind::Full).test(buf.as_mut_slice());
        assert!(report.is_healthy());
        assert_eq!(report.words_tested, 4096);
        assert!(report.passes >= 4);
    }

    #[test]
    fn stuck_high_bit_detected_by_quick_test() {
        let mut mem = SimulatedMemory::with_defects(
            256,
            vec![Defect { word: 100, bit: 5, kind: CellDefect::StuckHigh }],
        );
        let report = MemoryTester::new(MemTestKind::Quick).test(&mut mem);
        assert!(!report.is_healthy());
        assert_eq!(report.faulty_words(), vec![100]);
        assert!(report.errors.iter().all(|e| e.bad_bits() == 1 << 5));
    }

    #[test]
    fn stuck_low_bit_detected() {
        let mut mem = SimulatedMemory::with_defects(
            256,
            vec![Defect { word: 7, bit: 63, kind: CellDefect::StuckLow }],
        );
        let report = MemoryTester::new(MemTestKind::Quick).test(&mut mem);
        assert_eq!(report.faulty_words(), vec![7]);
    }

    #[test]
    fn coupling_fault_detected_by_moving_inversions() {
        // This is the defect class a naive write-then-read test misses:
        // the cell only flips when its neighbour is written.
        let mut mem = SimulatedMemory::with_defects(
            128,
            vec![Defect { word: 50, bit: 2, kind: CellDefect::CoupledToPrevious }],
        );
        // Naive test: write everything, read everything => sees nothing,
        // because each cell is written after its neighbour's last write...
        // except moving inversions interleaves writes between checks.
        let report = MemoryTester::new(MemTestKind::Quick).test(&mut mem);
        assert!(!report.is_healthy(), "moving inversions must catch coupling faults");
        assert!(report.faulty_words().contains(&50));
    }

    #[test]
    fn naive_write_read_misses_coupling_fault() {
        // Demonstrates *why* the paper insists on moving inversions: a plain
        // pattern write + read-back over the same order sees a clean region.
        let mut mem = SimulatedMemory::with_defects(
            128,
            vec![Defect { word: 50, bit: 2, kind: CellDefect::CoupledToPrevious }],
        );
        let mut errors = 0;
        for pattern in [0u64, u64::MAX] {
            for i in 0..128 {
                mem.write(i, pattern);
            }
            for i in 0..128 {
                if mem.read(i) != pattern {
                    errors += 1;
                    // Repair for next round so the flip doesn't accumulate.
                    mem.write(i, pattern);
                }
            }
        }
        assert_eq!(errors, 0, "naive test is expected to miss the fault");
    }

    #[test]
    fn multiple_defects_all_reported() {
        let mut mem = SimulatedMemory::with_defects(
            512,
            vec![
                Defect { word: 0, bit: 0, kind: CellDefect::StuckHigh },
                Defect { word: 511, bit: 31, kind: CellDefect::StuckLow },
                Defect { word: 300, bit: 60, kind: CellDefect::StuckHigh },
            ],
        );
        let report = MemoryTester::new(MemTestKind::Full).test(&mut mem);
        assert_eq!(report.faulty_words(), vec![0, 300, 511]);
    }

    #[test]
    fn empty_region_is_trivially_healthy() {
        let mut buf: Vec<u64> = Vec::new();
        let report = MemoryTester::new(MemTestKind::Quick).test(buf.as_mut_slice());
        assert!(report.is_healthy());
        assert_eq!(report.words_tested, 0);
    }
}
