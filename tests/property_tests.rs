//! Property-based tests over core data structures and engine invariants.

use eider::{Database, Value};
use eider_storage::serde::{read_chunk, write_chunk, BinReader, BinWriter};
use eider_vector::{DataChunk, LogicalType};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i32>().prop_map(Value::Integer),
        any::<i64>().prop_map(Value::BigInt),
        any::<bool>().prop_map(Value::Boolean),
        (-1e12f64..1e12).prop_map(Value::Double),
        "[a-zA-Z0-9 ,'%_]{0,24}".prop_map(Value::Varchar),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunk_serialization_round_trips(
        ints in prop::collection::vec(prop::option::of(any::<i32>()), 0..200),
        strs in prop::collection::vec(prop::option::of("[a-z]{0,16}"), 0..200),
    ) {
        let n = ints.len().min(strs.len());
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    ints[i].map_or(Value::Null, Value::Integer),
                    strs[i].clone().map_or(Value::Null, Value::Varchar),
                ]
            })
            .collect();
        let chunk =
            DataChunk::from_rows(&[LogicalType::Integer, LogicalType::Varchar], &rows).unwrap();
        let mut w = BinWriter::new();
        write_chunk(&mut w, &chunk);
        let bytes = w.into_bytes();
        let back = read_chunk(&mut BinReader::new(&bytes)).unwrap();
        prop_assert_eq!(back.to_rows(), chunk.to_rows());
    }

    #[test]
    fn value_total_order_is_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        // Transitivity (on the <= relation).
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
    }

    #[test]
    fn compression_round_trips(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        for level in [
            eider_coop::compression::CompressionLevel::None,
            eider_coop::compression::CompressionLevel::Light,
            eider_coop::compression::CompressionLevel::Heavy,
        ] {
            let compressed = eider_coop::compression::compress(level, &data);
            let back = eider_coop::compression::decompress(&compressed).unwrap();
            prop_assert_eq!(&back, &data);
        }
    }

    #[test]
    fn crc_detects_any_single_bit_flip(
        data in prop::collection::vec(any::<u8>(), 1..512),
        bit in any::<usize>(),
    ) {
        let crc = eider_resilience::checksum::crc32c(&data);
        let mut corrupted = data.clone();
        let bit = bit % (corrupted.len() * 8);
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(eider_resilience::checksum::crc32c(&corrupted), crc);
    }

    #[test]
    fn an_codes_round_trip_and_detect(v in any::<i32>(), flip in 0usize..63) {
        let codec = eider_resilience::ancode::AnCodec::default();
        let code = codec.encode(i64::from(v));
        prop_assert_eq!(codec.decode(code).unwrap(), i64::from(v));
        let corrupted = code ^ (1i64 << flip);
        if corrupted != code {
            // A single bit flip is either detected or (with probability
            // 1/A) decodes to a *different* value — never silently the same.
            if let Ok(decoded) = codec.decode(corrupted) { prop_assert_ne!(decoded, i64::from(v)) }
        }
    }

    #[test]
    fn sql_filter_matches_model(values in prop::collection::vec(any::<i32>(), 1..100), pivot in any::<i32>()) {
        let db = Database::in_memory().unwrap();
        let conn = db.connect();
        conn.execute("CREATE TABLE t (v INTEGER)").unwrap();
        let rows: Vec<String> = values.iter().map(|v| format!("({v})")).collect();
        conn.execute(&format!("INSERT INTO t VALUES {}", rows.join(","))).unwrap();
        let r = conn
            .query(&format!("SELECT count(*) FROM t WHERE v > {pivot}"))
            .unwrap();
        let expected = values.iter().filter(|&&v| v > pivot).count() as i64;
        prop_assert_eq!(r.scalar().unwrap(), Value::BigInt(expected));
    }

    #[test]
    fn optimizer_never_changes_results(
        fact in prop::collection::vec((0i32..20, 0i32..10, -100i32..100), 1..300),
        dim1 in prop::collection::vec(-50i32..50, 1..30),
        dim2 in prop::collection::vec(-50i32..50, 1..15),
        shape in 0usize..10,
        fact_filter in prop::option::of(-120i32..120),
        dim_filter in prop::option::of(-60i32..60),
    ) {
        // Random join query over random data: the full optimizer pipeline
        // (constant folding, filter pushdown, join reordering, column
        // pruning, stats-driven build sides and routing) must be invisible
        // in the results. `shape` picks the star join (comma or explicit
        // syntax) or one of the plan shapes column pruning rewrites.
        // Compare against the `PRAGMA optimizer=0` baseline at every
        // worker count — morsel decomposition is fixed, so all eight plans
        // must agree bit-for-bit.
        let db = Database::in_memory().unwrap();
        let setup = db.connect();
        setup.execute("CREATE TABLE f (k1 INTEGER, k2 INTEGER, v INTEGER)").unwrap();
        setup.execute("CREATE TABLE d1 (id INTEGER, w INTEGER)").unwrap();
        setup.execute("CREATE TABLE d2 (id INTEGER, w INTEGER)").unwrap();
        let rows: Vec<String> =
            fact.iter().map(|(k1, k2, v)| format!("({k1},{k2},{v})")).collect();
        setup.execute(&format!("INSERT INTO f VALUES {}", rows.join(","))).unwrap();
        for (name, data) in [("d1", &dim1), ("d2", &dim2)] {
            let rows: Vec<String> =
                data.iter().enumerate().map(|(i, w)| format!("({i},{w})")).collect();
            setup.execute(&format!("INSERT INTO {name} VALUES {}", rows.join(","))).unwrap();
        }

        let fact_pred = fact_filter.map(|c| format!("f.v > {c}"));
        let dim_pred = dim_filter.map(|c| format!("d1.w < {c}"));
        let filters: Vec<String> = fact_pred.iter().chain(&dim_pred).cloned().collect();
        let where_clause = if filters.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", filters.join(" AND "))
        };
        // Shapes that do not join d1 in the outer query filter it inside
        // their subquery instead.
        let fact_where = fact_pred.map(|p| format!(" AND {p}")).unwrap_or_default();
        let dim_where = dim_pred.map(|p| format!(" WHERE {p}")).unwrap_or_default();
        let sql = match shape {
            0 => {
                let mut preds = vec!["f.k1 = d1.id".to_string(), "f.k2 = d2.id".to_string()];
                preds.extend(filters);
                format!(
                    "SELECT f.k1, count(*), sum(f.v), min(d2.w) FROM d1, d2, f \
                     WHERE {} GROUP BY f.k1 ORDER BY f.k1",
                    preds.join(" AND ")
                )
            }
            1 => format!(
                "SELECT f.k1, count(*), sum(f.v), min(d2.w) \
                 FROM d1 JOIN f ON d1.id = f.k1 JOIN d2 ON f.k2 = d2.id\
                 {where_clause} GROUP BY f.k1 ORDER BY f.k1"
            ),
            2 => format!(
                "SELECT f.k1, count(*), sum(f.v), min(d1.w) \
                 FROM f LEFT JOIN d1 ON f.k2 = d1.id{where_clause} GROUP BY f.k1 ORDER BY f.k1"
            ),
            3 | 4 => format!(
                "SELECT f.k1, count(*), sum(f.v) FROM f \
                 WHERE f.k2 {} (SELECT id FROM d1{dim_where}){fact_where} \
                 GROUP BY f.k1 ORDER BY f.k1",
                if shape == 3 { "IN" } else { "NOT IN" }
            ),
            5 => format!(
                "SELECT f.k1, count(*), sum(f.v), min(d1.w) \
                 FROM f JOIN d1 ON f.k1 < d1.id{where_clause} GROUP BY f.k1 ORDER BY f.k1"
            ),
            6 => format!(
                "SELECT DISTINCT f.k2, d1.w FROM f JOIN d1 ON f.k1 = d1.id{where_clause} \
                 ORDER BY f.k2, d1.w"
            ),
            // The inner sort key w is not in the outer select list.
            7 => format!(
                "SELECT s.k1, s.v FROM (SELECT f.k1 AS k1, f.v AS v, d1.w AS w \
                 FROM f JOIN d1 ON f.k1 = d1.id{where_clause} ORDER BY w, k1, v LIMIT 7) s \
                 ORDER BY s.k1, s.v"
            ),
            8 => format!(
                "SELECT u.k, count(*) FROM \
                 (SELECT f.k1 AS k FROM f JOIN d1 ON f.k1 = d1.id{where_clause} \
                  UNION ALL SELECT d2.id AS k FROM f JOIN d2 ON f.k2 = d2.id) u \
                 GROUP BY u.k ORDER BY u.k"
            ),
            // The select list reads one side only.
            _ => format!(
                "SELECT f.v, f.k2 FROM f JOIN d1 ON f.k1 = d1.id{where_clause} \
                 ORDER BY f.v, f.k2"
            ),
        };

        let optimized = db.connect();
        let baseline = db.connect();
        baseline.execute("PRAGMA optimizer=0").unwrap();
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for threads in [1usize, 2, 4, 8] {
            optimized.execute(&format!("PRAGMA threads={threads}")).unwrap();
            baseline.execute(&format!("PRAGMA threads={threads}")).unwrap();
            let opt_rows = optimized.query(&sql).unwrap().to_rows();
            let base_rows = baseline.query(&sql).unwrap().to_rows();
            prop_assert_eq!(&opt_rows, &base_rows, "threads={} sql={}", threads, &sql);
            match &reference {
                Some(r) => prop_assert_eq!(r, &opt_rows, "threads={} sql={}", threads, &sql),
                None => reference = Some(opt_rows),
            }
        }
    }

    #[test]
    fn sort_produces_sorted_permutation(values in prop::collection::vec(any::<i32>(), 0..200)) {
        let db = Database::in_memory().unwrap();
        let conn = db.connect();
        conn.execute("CREATE TABLE t (v INTEGER)").unwrap();
        if !values.is_empty() {
            let rows: Vec<String> = values.iter().map(|v| format!("({v})")).collect();
            conn.execute(&format!("INSERT INTO t VALUES {}", rows.join(","))).unwrap();
        }
        let r = conn.query("SELECT v FROM t ORDER BY v").unwrap();
        let got: Vec<i32> = r
            .to_rows()
            .into_iter()
            .map(|row| match row[0] {
                Value::Integer(v) => v,
                _ => unreachable!(),
            })
            .collect();
        let mut expected = values.clone();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}
