//! Property tests for the §3 AN-code demo.

use eider_bench::ancode::AnCodec;
use proptest::prelude::*;

proptest! {
    #[test]
    fn an_codes_round_trip_and_detect(v in any::<i32>(), flip in 0usize..63) {
        let codec = AnCodec::default();
        let code = codec.encode(i64::from(v));
        prop_assert_eq!(codec.decode(code).unwrap(), i64::from(v));
        let corrupted = code ^ (1i64 << flip);
        if corrupted != code {
            // A single bit flip is either detected or (with probability
            // 1/A) decodes to a *different* value — never silently the same.
            if let Ok(decoded) = codec.decode(corrupted) { prop_assert_ne!(decoded, i64::from(v)) }
        }
    }
}
