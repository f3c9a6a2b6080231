//! AN-code hardening of in-memory integer data.
//!
//! The paper cites Kolditz et al. (DaMoN'14, SIGMOD'18 "AHEAD") as the only
//! prior work on detecting memory bit flips during query processing: encode
//! every integer `n` as `A * n` for a constant `A`. A decoded word is valid
//! iff it is divisible by `A`; a random bit flip turns a code word into a
//! non-multiple of `A` with probability `1 - 1/A`. Arithmetic can run
//! *directly on encoded data* (the code is linear: `A*x + A*y = A*(x+y)`),
//! so aggregation kernels pay only the final check.
//!
//! AHEAD reports a 1.1×–1.6× slowdown for hardened query processing; the
//! `section3` regenerator measures that band with these codecs.

use eider_vector::{EiderError, Result};

/// Default constant: a "golden A" from the AN-coding literature (Schiffel
/// 2011). Odd (so multiplication is invertible mod 2^64), not a power of
/// two, with high minimum Hamming distance between code words for 32-bit
/// payloads.
pub const DEFAULT_A: i64 = 64311;

/// An AN encoder/decoder for a fixed constant `A`.
#[derive(Debug, Clone, Copy)]
pub struct AnCodec {
    a: i64,
}

impl Default for AnCodec {
    fn default() -> Self {
        AnCodec::new(DEFAULT_A)
    }
}

impl AnCodec {
    /// Create a codec. `a` must be odd and > 1 (even `A`s lose low-bit
    /// information; `A = 1` detects nothing).
    pub fn new(a: i64) -> Self {
        assert!(a > 1 && a % 2 == 1, "A must be an odd constant > 1");
        AnCodec { a }
    }

    pub fn a(&self) -> i64 {
        self.a
    }

    /// Encode one value. Values must fit `i64 / A`; i32 payloads always do.
    #[inline]
    pub fn encode(&self, v: i64) -> i64 {
        v.wrapping_mul(self.a)
    }

    /// True if `code` is a valid code word.
    #[inline]
    pub fn is_valid(&self, code: i64) -> bool {
        code % self.a == 0
    }

    /// Decode with validation.
    #[inline]
    pub fn decode(&self, code: i64) -> Result<i64> {
        if self.is_valid(code) {
            Ok(code / self.a)
        } else {
            Err(EiderError::HardwareFault(format!(
                "AN-code violation: {code} is not a multiple of {}; a memory bit flip corrupted this value",
                self.a
            )))
        }
    }

    /// Encode a slice of i32 payloads into i64 code words.
    pub fn encode_slice_i32(&self, data: &[i32]) -> Vec<i64> {
        data.iter().map(|&v| self.encode(i64::from(v))).collect()
    }

    /// Encode a slice of i64 payloads (payloads must fit `i64 / A`).
    pub fn encode_slice_i64(&self, data: &[i64]) -> Result<Vec<i64>> {
        let limit = i64::MAX / self.a;
        let mut out = Vec::with_capacity(data.len());
        for &v in data {
            if v.abs() > limit {
                return Err(EiderError::Execution(format!(
                    "value {v} too large to AN-encode with A = {}",
                    self.a
                )));
            }
            out.push(self.encode(v));
        }
        Ok(out)
    }

    /// Validate every word; returns the index of the first corrupted word.
    pub fn check_slice(&self, codes: &[i64]) -> std::result::Result<(), usize> {
        for (i, &c) in codes.iter().enumerate() {
            if !self.is_valid(c) {
                return Err(i);
            }
        }
        Ok(())
    }

    /// Sum directly over encoded data, validating only the *result* — the
    /// AHEAD trick that makes hardened aggregation cheap. Accumulation
    /// uses four parallel 128-bit lanes: wide enough that overflow is
    /// impossible for any realistic slice, and independent enough that the
    /// adds pipeline (keeping the overhead in the paper's 1.1×–1.6× band).
    pub fn sum_encoded(&self, codes: &[i64]) -> Result<i64> {
        let mut lanes = [0i128; 4];
        let mut chunks = codes.chunks_exact(4);
        for c in &mut chunks {
            lanes[0] += i128::from(c[0]);
            lanes[1] += i128::from(c[1]);
            lanes[2] += i128::from(c[2]);
            lanes[3] += i128::from(c[3]);
        }
        let mut total: i128 = lanes.iter().sum();
        for &c in chunks.remainder() {
            total += i128::from(c);
        }
        if total % i128::from(self.a) != 0 {
            return Err(EiderError::HardwareFault(format!(
                "AN-code violation: aggregate {total} is not a multiple of {}; \
                 a memory bit flip corrupted the input",
                self.a
            )));
        }
        i64::try_from(total / i128::from(self.a))
            .map_err(|_| EiderError::Execution("AN-coded sum exceeds BIGINT range".into()))
    }

    /// Hardened filter: count of elements equal to `needle`, comparing in
    /// the *encoded domain* (encode the needle once; corrupted words can
    /// never equal a valid encoded needle, and are reported).
    pub fn count_eq_encoded(&self, codes: &[i64], needle: i64) -> Result<usize> {
        let coded_needle = self.encode(needle);
        let mut count = 0usize;
        for &c in codes {
            if c == coded_needle {
                count += 1;
            } else if !self.is_valid(c) {
                return Err(EiderError::HardwareFault(format!(
                    "AN-code violation during filter: word {c} corrupted"
                )));
            }
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let c = AnCodec::default();
        for v in [-1_000_000i64, -1, 0, 1, 42, i64::from(i32::MAX)] {
            assert_eq!(c.decode(c.encode(v)).unwrap(), v);
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_a_rejected() {
        AnCodec::new(64);
    }

    #[test]
    fn single_bit_flips_detected() {
        let c = AnCodec::default();
        let code = c.encode(123_456);
        let mut missed = 0;
        for bit in 0..63 {
            let corrupted = code ^ (1i64 << bit);
            if c.is_valid(corrupted) {
                missed += 1;
            }
        }
        // With A = 64311 every single-bit flip of this word is detected.
        assert_eq!(missed, 0);
    }

    #[test]
    fn detection_probability_over_random_double_flips() {
        let c = AnCodec::default();
        let code = c.encode(-987);
        let mut detected = 0;
        let mut total = 0;
        for b1 in (0..63).step_by(3) {
            for b2 in (b1 + 1..63).step_by(5) {
                let corrupted = code ^ (1i64 << b1) ^ (1i64 << b2);
                total += 1;
                if !c.is_valid(corrupted) {
                    detected += 1;
                }
            }
        }
        // Expected detection rate is 1 - 1/A; with 200+ samples we should
        // see (nearly) everything detected.
        assert!(detected as f64 / total as f64 > 0.99);
    }

    #[test]
    fn sum_encoded_matches_plain_sum() {
        let c = AnCodec::default();
        let data: Vec<i32> = (0..10_000).map(|i| (i % 1000) - 500).collect();
        let codes = c.encode_slice_i32(&data);
        let expect: i64 = data.iter().map(|&v| i64::from(v)).sum();
        assert_eq!(c.sum_encoded(&codes).unwrap(), expect);
    }

    #[test]
    fn sum_encoded_detects_corruption() {
        let c = AnCodec::default();
        let data: Vec<i32> = (0..100).collect();
        let mut codes = c.encode_slice_i32(&data);
        codes[57] ^= 1 << 13;
        assert!(c.sum_encoded(&codes).is_err());
    }

    #[test]
    fn count_eq_in_encoded_domain() {
        let c = AnCodec::default();
        let data = [5i32, 7, 5, 9, 5];
        let codes = c.encode_slice_i32(&data);
        assert_eq!(c.count_eq_encoded(&codes, 5).unwrap(), 3);
        let mut corrupted = codes.clone();
        corrupted[1] ^= 1;
        assert!(c.count_eq_encoded(&corrupted, 5).is_err());
    }

    #[test]
    fn check_slice_reports_first_bad_index() {
        let c = AnCodec::default();
        let mut codes = c.encode_slice_i64(&[1, 2, 3, 4]).unwrap();
        assert!(c.check_slice(&codes).is_ok());
        codes[2] += 1;
        assert_eq!(c.check_slice(&codes), Err(2));
    }

    #[test]
    fn oversized_payload_rejected() {
        let c = AnCodec::default();
        assert!(c.encode_slice_i64(&[i64::MAX / 2]).is_err());
    }
}
