//! Encoded-vs-plain kernel equivalence suite.
//!
//! The compressed-domain fast paths (PR 8) must be *bit-identical* to the
//! decoded paths they shortcut: a dictionary-coded, run-length or
//! frame-of-reference vector fed to a hot kernel has to produce exactly
//! the bytes/hashes/values the plain vector produces — including NULLs,
//! embedded NUL bytes inside VARCHAR, and empty inputs. Property tests
//! cover each kernel in isolation (hash, group/join key encoding, pushed
//! filter, aggregate update); a deterministic engine-level harness then
//! runs group-by, hash-join, sort and filtered aggregation over a table
//! whose first row group really is compressed, at worker counts 1/2/4/8,
//! and asserts every configuration returns the same rows. (CI additionally
//! re-runs the whole suite under `EIDER_THREADS` 1/2/4/8.)

use eider_exec::aggregate::{AggKind, AggState};
use eider_exec::fxhash::hash_vector;
use eider_exec::rowkey::{encode_keys, KeyLayout, KeyScratch};
use eider_txn::{CmpOp, TableFilter};
use eider_vector::{DataChunk, LogicalType, SelectionVector, Value, Vector};
use proptest::prelude::*;

/// Expand `(seed, run)` pairs into a row-wise value column. Runs make the
/// column RLE-friendly; `None` seeds become NULL rows.
fn expand_runs(pairs: &[(Option<u8>, u8)], f: impl Fn(u8) -> Value) -> Vec<Value> {
    pairs
        .iter()
        .flat_map(|&(seed, run)| {
            let v = seed.map_or(Value::Null, &f);
            std::iter::repeat_n(v, usize::from(run) + 1)
        })
        .collect()
}

fn vector_of(ty: LogicalType, values: &[Value]) -> Vector {
    Vector::from_values(ty, values).unwrap()
}

/// The encoded twin of `v`: whatever the stats-driven chooser picks, or a
/// clone when it declines (equivalence must hold either way).
fn encoded(v: &Vector) -> Vector {
    v.encode_auto().unwrap_or_else(|| v.clone())
}

/// Hostile low-cardinality strings: embedded NULs, empty string, repeats.
fn dict_string(k: u8) -> Value {
    match k % 6 {
        0 => Value::Varchar(String::new()),
        1 => Value::Varchar("a\0b".into()),
        2 => Value::Varchar("a\0\0".into()),
        k => Value::Varchar(format!("city_{k}\0x")),
    }
}

/// The three column shapes the chooser targets, built from one seed list:
/// dict-friendly varchar, runny integers, narrow-range bigints.
fn shaped_columns(pairs: &[(Option<u8>, u8)]) -> Vec<Vector> {
    vec![
        vector_of(LogicalType::Varchar, &expand_runs(pairs, dict_string)),
        vector_of(LogicalType::Integer, &expand_runs(pairs, |k| Value::Integer(i32::from(k % 4)))),
        vector_of(
            LogicalType::BigInt,
            &expand_runs(pairs, |k| Value::BigInt(1_000_000_000 + i64::from(k))),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // fxhash::hash_vector — the group-by/join hash kernel — must emit the
    // same 64-bit lanes from codes as from decoded values, both when a
    // column starts the hash and when it folds into a multi-column key.
    #[test]
    fn hash_kernel_is_encoding_blind(
        pairs in prop::collection::vec((prop::option::of(any::<u8>()), 0u8..12), 0..80),
    ) {
        let cols = shaped_columns(&pairs);
        let mut plain_hashes = Vec::new();
        let mut enc_hashes = Vec::new();
        for (i, col) in cols.iter().enumerate() {
            hash_vector(col, &mut plain_hashes, i == 0);
            hash_vector(&encoded(col), &mut enc_hashes, i == 0);
            prop_assert_eq!(&plain_hashes, &enc_hashes, "column {} diverged", i);
        }
    }

    // rowkey::encode_keys — the serialized group/join key — must produce
    // identical key bytes and NULL flags from encoded columns.
    #[test]
    fn rowkey_kernel_is_encoding_blind(
        pairs in prop::collection::vec((prop::option::of(any::<u8>()), 0u8..12), 0..80),
    ) {
        let cols = shaped_columns(&pairs);
        let n = cols[0].len();
        let layout = KeyLayout::new(cols.iter().map(Vector::logical_type).collect());
        let enc_cols: Vec<Vector> = cols.iter().map(encoded).collect();

        let mut plain = KeyScratch::default();
        encode_keys(&layout, &cols, n, &mut plain).unwrap();
        let mut enc = KeyScratch::default();
        encode_keys(&layout, &enc_cols, n, &mut enc).unwrap();
        for row in 0..n {
            prop_assert_eq!(plain.key(row), enc.key(row), "key bytes diverged at row {}", row);
            prop_assert_eq!(plain.has_null(row), enc.has_null(row));
        }
    }

    // TableFilter::filter_vector — the pushed-down scan predicate — must
    // keep exactly the same row indexes when it short-circuits per
    // dictionary entry or per run.
    #[test]
    fn filter_kernel_is_encoding_blind(
        pairs in prop::collection::vec((prop::option::of(any::<u8>()), 0u8..12), 0..80),
        pivot in any::<u8>(),
    ) {
        let cols = shaped_columns(&pairs);
        let n = cols[0].len();
        let filters = [
            TableFilter::new(0, CmpOp::Eq, dict_string(pivot)),
            TableFilter::new(0, CmpOp::NotEq, dict_string(pivot)),
            TableFilter::new(1, CmpOp::GtEq, Value::Integer(i32::from(pivot % 4))),
            TableFilter::new(2, CmpOp::Lt, Value::BigInt(1_000_000_000 + i64::from(pivot))),
        ];
        for f in &filters {
            let col = &cols[f.column];
            let mut plain_sel: Vec<u32> = (0..n as u32).collect();
            f.filter_vector(col, &mut plain_sel);
            let mut enc_sel: Vec<u32> = (0..n as u32).collect();
            f.filter_vector(&encoded(col), &mut enc_sel);
            prop_assert_eq!(&plain_sel, &enc_sel, "filter on column {} diverged", f.column);
        }
    }

    // AggState::update_vector — every aggregate kind, full vectors and
    // selections, integer and varchar inputs — must finalize to the same
    // Value whether it consumed frames/runs or decoded rows.
    #[test]
    fn aggregate_kernel_is_encoding_blind(
        pairs in prop::collection::vec((prop::option::of(any::<u8>()), 0u8..12), 0..80),
        sel_mask in prop::collection::vec(any::<bool>(), 0..1000),
    ) {
        let kinds = [
            AggKind::Count,
            AggKind::Sum,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
            AggKind::StdDevSamp,
            AggKind::VarSamp,
        ];
        for col in shaped_columns(&pairs) {
            let ty = col.logical_type();
            let enc = encoded(&col);
            let sel = SelectionVector::from_indexes(
                (0..col.len() as u32).filter(|&i| *sel_mask.get(i as usize).unwrap_or(&false)).collect(),
            );
            for kind in kinds {
                if ty == LogicalType::Varchar && !matches!(kind, AggKind::Min | AggKind::Max | AggKind::Count) {
                    continue;
                }
                for selection in [None, Some(&sel)] {
                    let mut a = AggState::new(kind, Some(ty), false);
                    a.update_vector(&col, selection).unwrap();
                    let mut b = AggState::new(kind, Some(ty), false);
                    b.update_vector(&enc, selection).unwrap();
                    prop_assert_eq!(
                        a.finalize().unwrap(),
                        b.finalize().unwrap(),
                        "{:?} over {:?} diverged", kind, ty
                    );
                }
            }
        }
    }

    // Decode fidelity: sorting (and every other operator that materializes
    // rows) sees `to_rows()`, which must be identical for the encoded twin.
    #[test]
    fn decoded_rows_are_identical(
        pairs in prop::collection::vec((prop::option::of(any::<u8>()), 0u8..12), 0..80),
    ) {
        let cols = shaped_columns(&pairs);
        let enc_cols: Vec<Vector> = cols.iter().map(encoded).collect();
        let plain = DataChunk::from_vectors(cols).unwrap();
        let enc = DataChunk::from_vectors(enc_cols).unwrap();
        prop_assert_eq!(plain.to_rows(), enc.to_rows());
    }
}

/// Kernels accept empty vectors (zero rows, no encoding possible) without
/// panicking and with empty outputs — the empty-chunk edge the streaming
/// pipeline can produce.
#[test]
fn empty_inputs_are_handled() {
    let cols = shaped_columns(&[]);
    assert_eq!(cols[0].len(), 0);
    let mut hashes = vec![1, 2, 3];
    hash_vector(&cols[0], &mut hashes, true);
    assert!(hashes.is_empty());

    let layout = KeyLayout::new(cols.iter().map(Vector::logical_type).collect());
    let mut scratch = KeyScratch::default();
    encode_keys(&layout, &cols, 0, &mut scratch).unwrap();

    let mut sel: Vec<u32> = Vec::new();
    TableFilter::new(0, CmpOp::Eq, dict_string(0)).filter_vector(&cols[0], &mut sel);
    assert!(sel.is_empty());

    let mut agg = AggState::new(AggKind::Sum, Some(LogicalType::Integer), false);
    agg.update_vector(&cols[1], None).unwrap();
    assert_eq!(agg.finalize().unwrap(), Value::Null);
}

/// Canonical shapes must actually encode — otherwise the proptests above
/// would silently compare plain against plain.
#[test]
fn canonical_shapes_do_encode() {
    use eider_vector::Encoding;
    let pairs: Vec<(Option<u8>, u8)> = (0..40).map(|i| (Some(i as u8 % 5), 7)).collect();
    let cols = shaped_columns(&pairs);
    assert_eq!(cols[0].encode_auto().unwrap().encoding(), Encoding::Dict);
    assert_eq!(cols[1].encode_auto().unwrap().encoding(), Encoding::Rle);
    assert!(cols[2].encode_auto().unwrap().is_encoded());
}

/// Engine-level harness: a table one full row group deep (so
/// `compress_columns` really ran on group 0) plus a 10,000-row tail group
/// whose VARCHAR column was dictionary-coded as its rows arrived, queried
/// with group-by, hash-join, sort and filtered aggregation at 1/2/4/8
/// workers. Every
/// worker count must return the same rows, and those rows must match
/// ground truth computed here from the plain generator — the decoded
/// reference the encoded scan has to reproduce.
#[test]
fn engine_results_match_ground_truth_at_every_worker_count() {
    use eider::{Database, DatabaseConfig};
    use eider_txn::table::ROW_GROUP_SIZE;
    use eider_vector::Encoding;
    use std::sync::Arc;

    let rows = ROW_GROUP_SIZE + 10_000;
    let group_of = |i: usize| format!("g{}", i * 7 % 5);
    let val_of = |i: usize| (i / 1000) as i64;

    // Ground truth from the generator, entirely in plain Rust.
    let mut counts = std::collections::BTreeMap::new();
    let mut filtered_sum = 0i64;
    for i in 0..rows {
        *counts.entry(group_of(i)).or_insert(0i64) += 1;
        if val_of(i) >= 100 {
            filtered_sum += val_of(i);
        }
    }
    let want_groups: Vec<Vec<Value>> =
        counts.iter().map(|(g, &c)| vec![Value::Varchar(g.clone()), Value::BigInt(c)]).collect();

    for threads in [1usize, 2, 4, 8] {
        let config = DatabaseConfig { threads, ..DatabaseConfig::default() };
        let db = Database::in_memory_with_config(config).unwrap();
        let conn = db.connect();
        conn.execute("CREATE TABLE t (g VARCHAR, v BIGINT)").unwrap();
        conn.execute("CREATE TABLE dim (g VARCHAR, label VARCHAR)").unwrap();
        for k in 0..5 {
            conn.execute(&format!("INSERT INTO dim VALUES ('g{k}', 'label{k}')")).unwrap();
        }
        let entry = db.catalog().get_table("t").unwrap();
        let txn = Arc::new(db.txn_manager().begin());
        let types = [LogicalType::Varchar, LogicalType::BigInt];
        for base in (0..rows).step_by(2048) {
            let hi = (base + 2048).min(rows);
            let batch: Vec<Vec<Value>> = (base..hi)
                .map(|i| vec![Value::Varchar(group_of(i)), Value::BigInt(val_of(i))])
                .collect();
            let chunk = DataChunk::from_rows(&types, &batch).unwrap();
            entry.data.append_chunk(&txn, &chunk).unwrap();
        }
        db.commit_transaction(Arc::try_unwrap(txn).expect("sole owner")).unwrap();
        for group in [0, 1] {
            assert_eq!(entry.data.column_encoding(group, 0), Some(Encoding::Dict), "group {group}");
        }

        let groups =
            conn.query("SELECT g, count(*) FROM t GROUP BY g ORDER BY g").unwrap().to_rows();
        assert_eq!(groups, want_groups, "group-by diverged at {threads} workers");

        let joined = conn
            .query(
                "SELECT dim.label, count(*) FROM t JOIN dim ON t.g = dim.g \
                 GROUP BY dim.label ORDER BY dim.label",
            )
            .unwrap()
            .to_rows();
        assert_eq!(joined.len(), 5, "join lost groups at {threads} workers");
        for (row, want) in joined.iter().zip(want_groups.iter()) {
            assert_eq!(row[1], want[1], "join counts diverged at {threads} workers");
        }

        let filtered = conn.query("SELECT sum(v) FROM t WHERE v >= 100").unwrap().to_rows();
        assert_eq!(
            filtered,
            vec![vec![Value::BigInt(filtered_sum)]],
            "filtered aggregate diverged at {threads} workers"
        );

        let top = conn.query("SELECT g, v FROM t ORDER BY v DESC, g LIMIT 3").unwrap().to_rows();
        // Many rows tie at the max v; "g0" sorts first among them, so the
        // top three are all ("g0", max).
        let want_v = val_of(rows - 1);
        assert_eq!(
            top,
            vec![vec![Value::Varchar("g0".into()), Value::BigInt(want_v)]; 3],
            "sort diverged at {threads} workers"
        );
    }
}
