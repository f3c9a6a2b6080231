//! Deterministic fault injection: the stand-in for real hardware failures.
//!
//! The paper's resilience experiments require hardware that flips bits; we
//! obviously cannot ship broken DIMMs, so this module simulates the two
//! failure behaviours §3 describes:
//!
//! * **transient bit flips** — [`FaultInjector`] corrupts byte buffers with
//!   a configurable probability, deterministically from a seed so tests are
//!   reproducible;
//! * **stuck/intermittent cells** — [`SimulatedMemory`] models a memory
//!   region where specific bits are stuck at 0/1 or flip only when a
//!   neighbouring cell is written (the "interactions between adjacent
//!   cells" that make naive write-read testing insufficient, per the
//!   paper's MemTest86 discussion).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded injector that flips bits in buffers.
#[derive(Debug)]
pub struct FaultInjector {
    rng: StdRng,
    /// Probability that any given *bit* is flipped by `corrupt`.
    bit_flip_prob: f64,
    /// Total number of bits flipped so far (for test assertions).
    flips: u64,
}

impl FaultInjector {
    pub fn new(seed: u64, bit_flip_prob: f64) -> Self {
        FaultInjector { rng: StdRng::seed_from_u64(seed), bit_flip_prob, flips: 0 }
    }

    /// Number of bits flipped so far.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Flip each bit of `buf` independently with `bit_flip_prob`.
    /// Returns how many bits were flipped.
    pub fn corrupt(&mut self, buf: &mut [u8]) -> u64 {
        // Sampling every bit is wasteful for realistic (tiny) probabilities;
        // draw the gap to the next flip from a geometric distribution.
        if self.bit_flip_prob <= 0.0 {
            return 0;
        }
        let total_bits = buf.len() as u64 * 8;
        let mut flipped = 0u64;
        let mut pos = self.next_gap();
        while pos < total_bits {
            buf[(pos / 8) as usize] ^= 1 << (pos % 8);
            flipped += 1;
            pos += 1 + self.next_gap();
        }
        self.flips += flipped;
        flipped
    }

    /// Geometric gap: number of non-flipped bits before the next flip.
    fn next_gap(&mut self) -> u64 {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        if self.bit_flip_prob >= 1.0 {
            return 0;
        }
        (u.ln() / (1.0 - self.bit_flip_prob).ln()).floor() as u64
    }

    /// Flip exactly `n` uniformly chosen bits. Returns their bit indexes.
    pub fn flip_random_bits(&mut self, buf: &mut [u8], n: usize) -> Vec<usize> {
        let total = buf.len() * 8;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let bit = self.rng.gen_range(0..total);
            buf[bit / 8] ^= 1 << (bit % 8);
            out.push(bit);
            self.flips += 1;
        }
        out
    }
}

/// The kind of defect a [`SimulatedMemory`] cell can have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellDefect {
    /// Bit always reads as 1.
    StuckHigh,
    /// Bit always reads as 0.
    StuckLow,
    /// Writing the *previous* word forces this bit to the value written to
    /// the neighbouring cell (adjacent-cell coupling; this is the defect
    /// class plain write-read tests miss and moving inversions catches,
    /// because its sweeps leave neighbours holding *complementary*
    /// patterns at check time).
    CoupledToPrevious,
}

/// A defective bit position within the simulated region.
#[derive(Debug, Clone, Copy)]
pub struct Defect {
    /// Word index within the region.
    pub word: usize,
    /// Bit within the word (0..64).
    pub bit: u32,
    pub kind: CellDefect,
}

/// A simulated memory region with injected cell defects. All access goes
/// through `read`/`write`, which apply the defect semantics.
#[derive(Debug)]
pub struct SimulatedMemory {
    cells: Vec<u64>,
    defects: Vec<Defect>,
}

impl SimulatedMemory {
    pub fn new(words: usize) -> Self {
        SimulatedMemory { cells: vec![0; words], defects: Vec::new() }
    }

    pub fn with_defects(words: usize, defects: Vec<Defect>) -> Self {
        for d in &defects {
            assert!(d.word < words && d.bit < 64, "defect out of range");
        }
        SimulatedMemory { cells: vec![0; words], defects }
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    pub fn write(&mut self, word: usize, value: u64) {
        self.cells[word] = value;
        // Coupling faults: writing word w forces the defective bit of w+1
        // to the corresponding bit of the value just written (charge leaks
        // into the neighbouring cell).
        let coupled: Vec<(usize, u32)> = self
            .defects
            .iter()
            .filter(|d| d.kind == CellDefect::CoupledToPrevious && d.word == word + 1)
            .map(|d| (d.word, d.bit))
            .collect();
        for (w, b) in coupled {
            self.cells[w] = (self.cells[w] & !(1 << b)) | (value & (1 << b));
        }
    }

    pub fn read(&self, word: usize) -> u64 {
        let mut v = self.cells[word];
        for d in &self.defects {
            if d.word == word {
                match d.kind {
                    CellDefect::StuckHigh => v |= 1 << d.bit,
                    CellDefect::StuckLow => v &= !(1 << d.bit),
                    CellDefect::CoupledToPrevious => {}
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_is_deterministic() {
        let mut a = FaultInjector::new(42, 0.01);
        let mut b = FaultInjector::new(42, 0.01);
        let mut buf_a = vec![0u8; 1024];
        let mut buf_b = vec![0u8; 1024];
        a.corrupt(&mut buf_a);
        b.corrupt(&mut buf_b);
        assert_eq!(buf_a, buf_b);
        assert!(a.flips() > 0);
    }

    #[test]
    fn corrupt_rate_is_roughly_probability() {
        let mut inj = FaultInjector::new(7, 0.01);
        let mut buf = vec![0u8; 100_000];
        let flipped = inj.corrupt(&mut buf);
        let expected = (buf.len() * 8) as f64 * 0.01;
        assert!(
            (flipped as f64) > expected * 0.8 && (flipped as f64) < expected * 1.2,
            "flipped {flipped}, expected ~{expected}"
        );
        // Flips are observable in the buffer.
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(u64::from(ones), flipped);
    }

    #[test]
    fn zero_probability_never_corrupts() {
        let mut inj = FaultInjector::new(1, 0.0);
        let mut buf = vec![0xAAu8; 4096];
        assert_eq!(inj.corrupt(&mut buf), 0);
        assert!(buf.iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn flip_random_bits_exact_count() {
        let mut inj = FaultInjector::new(3, 0.0);
        let mut buf = vec![0u8; 64];
        let bits = inj.flip_random_bits(&mut buf, 5);
        assert_eq!(bits.len(), 5);
    }

    #[test]
    fn stuck_bits_apply_on_read() {
        let mut mem = SimulatedMemory::with_defects(
            4,
            vec![
                Defect { word: 1, bit: 3, kind: CellDefect::StuckHigh },
                Defect { word: 2, bit: 0, kind: CellDefect::StuckLow },
            ],
        );
        mem.write(1, 0);
        assert_eq!(mem.read(1), 1 << 3);
        mem.write(2, u64::MAX);
        assert_eq!(mem.read(2), !1);
        mem.write(0, 0xDEAD);
        assert_eq!(mem.read(0), 0xDEAD);
    }

    #[test]
    fn coupled_cell_flips_on_neighbour_write() {
        let mut mem = SimulatedMemory::with_defects(
            4,
            vec![Defect { word: 2, bit: 7, kind: CellDefect::CoupledToPrevious }],
        );
        mem.write(2, 0);
        assert_eq!(mem.read(2), 0); // a plain write-read test sees no fault
        mem.write(1, 0xFF); // ... but writing 1-bits next door leaks charge
        assert_eq!(mem.read(2), 1 << 7);
        mem.write(1, 0); // and writing 0-bits clears it again
        assert_eq!(mem.read(2), 0);
    }
}
