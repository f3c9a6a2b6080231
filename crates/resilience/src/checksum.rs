//! CRC-32C (Castagnoli) checksums, the per-block integrity check of the
//! storage layer (§3/§6: "DuckDB computes and stores check sums of all
//! blocks in persistent storage and verifies this as blocks are read").
//!
//! Implemented from scratch: a slice-by-8 table-driven CRC using the
//! Castagnoli polynomial (reflected form `0x82F63B78`), the same polynomial
//! ZFS and iSCSI use. Slice-by-8 processes eight input bytes per iteration,
//! which keeps checksumming 256 KiB blocks cheap next to scanning them.

const POLY: u32 = 0x82F6_3B78;

/// 8 lookup tables of 256 entries each (slice-by-8).
struct Tables([[u32; 256]; 8]);

fn build_tables() -> Tables {
    let mut t = [[0u32; 256]; 8];
    for i in 0..256u32 {
        let mut crc = i;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
        }
        t[0][i as usize] = crc;
    }
    for i in 0..256usize {
        let mut crc = t[0][i];
        for slice in 1..8 {
            crc = t[0][(crc & 0xFF) as usize] ^ (crc >> 8);
            t[slice][i] = crc;
        }
    }
    Tables(t)
}

fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(build_tables)
}

/// Streaming CRC-32C state.
#[derive(Clone)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    pub fn new() -> Self {
        Crc32c { state: !0 }
    }

    /// Feed bytes into the checksum.
    pub fn update(&mut self, mut data: &[u8]) {
        let t = &tables().0;
        let mut crc = self.state;
        while data.len() >= 8 {
            let low = crc
                ^ (u32::from(data[0])
                    | u32::from(data[1]) << 8
                    | u32::from(data[2]) << 16
                    | u32::from(data[3]) << 24);
            crc = t[7][(low & 0xFF) as usize]
                ^ t[6][((low >> 8) & 0xFF) as usize]
                ^ t[5][((low >> 16) & 0xFF) as usize]
                ^ t[4][((low >> 24) & 0xFF) as usize]
                ^ t[3][data[4] as usize]
                ^ t[2][data[5] as usize]
                ^ t[1][data[6] as usize]
                ^ t[0][data[7] as usize];
            data = &data[8..];
        }
        for &b in data {
            crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Finalize and return the checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32C of a byte slice.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finish()
}

/// A much weaker but faster checksum (Fletcher-64 style), kept as the
/// baseline for the resilience benchmark's "how much does a *real* CRC
/// cost" comparison. Not used for on-disk blocks.
pub fn fletcher64(data: &[u8]) -> u64 {
    let mut a: u64 = 0;
    let mut b: u64 = 0;
    for chunk in data.chunks(4) {
        let mut w = [0u8; 4];
        w[..chunk.len()].copy_from_slice(chunk);
        a = a.wrapping_add(u64::from(u32::from_le_bytes(w)));
        b = b.wrapping_add(a);
    }
    (b << 32) | (a & 0xFFFF_FFFF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 (iSCSI) test vectors for CRC-32C.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"a"), 0xC1D04330);
        assert_eq!(crc32c(b"123456789"), 0xE3069283);
        let zeros = [0u8; 32];
        assert_eq!(crc32c(&zeros), 0x8A9136AA);
        let ones = [0xFFu8; 32];
        assert_eq!(crc32c(&ones), 0x62A8AB43);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut c = Crc32c::new();
        for chunk in data.chunks(37) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32c(&data));
    }

    #[test]
    fn detects_any_single_bit_flip_in_block() {
        let mut data = vec![0xA5u8; 4096];
        let original = crc32c(&data);
        // Flip every 997th bit and verify the checksum changes each time.
        for bit in (0..data.len() * 8).step_by(997) {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&data), original, "missed flip at bit {bit}");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32c(&data), original);
    }

    #[test]
    fn detects_swapped_words() {
        let mut data: Vec<u8> = (0..=255).cycle().take(1024).collect();
        let original = crc32c(&data);
        data.swap(10, 500);
        assert_ne!(crc32c(&data), original);
    }

    #[test]
    fn fletcher_differs_from_crc_and_detects_simple_flips() {
        let mut data = vec![1u8; 256];
        let f = fletcher64(&data);
        data[17] ^= 0x40;
        assert_ne!(fletcher64(&data), f);
    }
}
