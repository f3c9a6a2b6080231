//! Property tests for the row-format key encoding: `memcmp` over encoded
//! keys must agree with `Value::total_cmp` (ordering *and* equality), and
//! decoding must invert encoding, for arbitrary typed rows. The ordered
//! variant (ORDER BY direction and NULL placement per column) must agree
//! with the sort's reference comparator, `compare_keys`.

use eider_exec::expression::Expr;
use eider_exec::ops::sort::{compare_keys, SortKey};
use eider_exec::rowkey::{decode_key_values, encode_keys, KeyLayout, KeyOrder, KeyScratch};
use eider_vector::{LogicalType, StrDict, ValidityMask, Value, Vector};
use proptest::prelude::*;
use std::sync::Arc;

/// Encode a slice of same-typed rows; returns one byte string per row.
fn encode_rows(types: &[LogicalType], rows: &[Vec<Value>]) -> Vec<Vec<u8>> {
    let layout = KeyLayout::new(types.to_vec());
    let columns: Vec<Vector> = (0..types.len())
        .map(|c| {
            let vals: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
            Vector::from_values(types[c], &vals).unwrap()
        })
        .collect();
    let mut scratch = KeyScratch::default();
    encode_keys(&layout, &columns, rows.len(), &mut scratch).unwrap();
    (0..rows.len()).map(|i| scratch.key(i).to_vec()).collect()
}

fn total_cmp_rows(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| *o != std::cmp::Ordering::Equal)
        .unwrap_or(std::cmp::Ordering::Equal)
}

fn arb_int() -> impl Strategy<Value = Value> {
    prop_oneof![any::<i32>().prop_map(Value::Integer), Just(Value::Null)]
}

fn arb_double() -> impl Strategy<Value = Value> {
    // Finite doubles; NaN's `total_cmp` is not an order to begin with
    // (`sql_cmp` collapses it to Equal), so it is out of scope here.
    prop_oneof![(-1e300f64..1e300).prop_map(Value::Double), Just(Value::Null)]
}

fn arb_string() -> impl Strategy<Value = Value> {
    prop_oneof!["[a-c%_\u{0}]{0,12}".prop_map(Value::Varchar), Just(Value::Null)]
}

/// Integers and bigints (`any` mixes in MIN, MAX and 0), doubles with
/// ±0.0, ±inf, NaN and the extremes, short strings over `{a, b, NUL}`
/// (empty strings, embedded NULs, prefixes of one another), and NULLs.
fn arb_sort_row() -> impl Strategy<Value = Vec<Value>> {
    let int = prop_oneof![any::<i32>().prop_map(Value::Integer), Just(Value::Null)];
    let big = prop_oneof![any::<i64>().prop_map(Value::BigInt), Just(Value::Null)];
    let double = prop_oneof![
        any::<f64>().prop_map(Value::Double),
        Just(Value::Double(f64::INFINITY)),
        Just(Value::Double(f64::NEG_INFINITY)),
        Just(Value::Double(f64::NAN)),
        Just(Value::Null),
    ];
    let string = prop_oneof!["[ab\u{0}]{0,3}".prop_map(Value::Varchar), Just(Value::Null)];
    (int, big, double, string).prop_map(|(a, b, c, d)| vec![a, b, c, d])
}

const SORT_TYPES: [LogicalType; 4] =
    [LogicalType::Integer, LogicalType::BigInt, LogicalType::Double, LogicalType::Varchar];

/// The varchar column of `rows` as a dictionary-coded vector.
fn dict_column(rows: &[Vec<Value>]) -> Vector {
    let mut values: Vec<String> = Vec::new();
    let mut validity = ValidityMask::default();
    let mut codes = Vec::new();
    for v in rows.iter().map(|r| &r[3]) {
        let s = v.as_str().unwrap_or("");
        let code = values.iter().position(|x| x == s).unwrap_or_else(|| {
            values.push(s.to_string());
            values.len() - 1
        });
        codes.push(code as u32);
        validity.push(!v.is_null());
    }
    Vector::from_dict(LogicalType::Varchar, Arc::new(StrDict::new(values)), codes, validity)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ordered_key_order_matches_compare_keys_then_position(
        rows in prop::collection::vec(arb_sort_row(), 2..7),
        dirs in prop::collection::vec((any::<bool>(), any::<bool>()), 4..5),
        dict in any::<bool>(),
    ) {
        // Every key is suffixed with its row's position, as the sort core
        // does: memcmp must then equal compare_keys with position as the
        // tie-break. Both encoder paths run: all four columns (varchar
        // makes the layout variable) and the fixed-width first three.
        for width in [4, 3] {
            let keys: Vec<SortKey> = (0..width)
                .map(|c| SortKey {
                    expr: Expr::column(c, SORT_TYPES[c]),
                    descending: dirs[c].0,
                    nulls_first: dirs[c].1,
                })
                .collect();
            let order = keys
                .iter()
                .map(|k| KeyOrder { descending: k.descending, nulls_first: k.nulls_first })
                .collect();
            let layout = KeyLayout::ordered(SORT_TYPES[..width].to_vec(), order);
            let mut columns: Vec<Vector> = (0..width)
                .map(|c| {
                    let vals: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                    Vector::from_values(SORT_TYPES[c], &vals).unwrap()
                })
                .collect();
            if dict && width == 4 {
                columns[3] = dict_column(&rows);
            }
            let mut scratch = KeyScratch::default();
            encode_keys(&layout, &columns, rows.len(), &mut scratch).unwrap();
            let key = |i: usize| [scratch.key(i), &(i as u64).to_be_bytes()].concat();
            for i in 0..rows.len() {
                for j in 0..rows.len() {
                    let expected = compare_keys(&rows[i], &rows[j], &keys).then(i.cmp(&j));
                    prop_assert_eq!(
                        key(i).cmp(&key(j)),
                        expected,
                        "{:?} vs {:?} under {:?}",
                        &rows[i][..width],
                        &rows[j][..width],
                        &dirs[..width]
                    );
                }
            }
        }
    }

    #[test]
    fn integer_key_order_matches_value_order(
        a in arb_int(), b in arb_int(), c in arb_int(), d in arb_int(),
    ) {
        let rows = vec![vec![a, c], vec![b, d]];
        let keys = encode_rows(&[LogicalType::Integer, LogicalType::Integer], &rows);
        prop_assert_eq!(keys[0].cmp(&keys[1]), total_cmp_rows(&rows[0], &rows[1]));
    }

    #[test]
    fn mixed_key_order_matches_value_order(
        a in arb_int(), b in arb_int(),
        x in arb_double(), y in arb_double(),
        s in arb_string(), t in arb_string(),
    ) {
        let types = [LogicalType::Integer, LogicalType::Double, LogicalType::Varchar];
        let rows = vec![vec![a, x, s], vec![b, y, t]];
        let keys = encode_rows(&types, &rows);
        prop_assert_eq!(keys[0].cmp(&keys[1]), total_cmp_rows(&rows[0], &rows[1]));
        // Equality agrees both ways (grouping equality incl. NULL == NULL).
        prop_assert_eq!(
            keys[0] == keys[1],
            total_cmp_rows(&rows[0], &rows[1]) == std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn encode_decode_round_trips(
        a in arb_int(), x in arb_double(), s in arb_string(),
    ) {
        let types = [LogicalType::Integer, LogicalType::Double, LogicalType::Varchar];
        let row = vec![a, x, s];
        let keys = encode_rows(&types, std::slice::from_ref(&row));
        let layout = KeyLayout::new(types.to_vec());
        let decoded = decode_key_values(&layout, &keys[0]).unwrap();
        prop_assert_eq!(decoded, row);
    }

    #[test]
    fn varchar_escaping_is_injective(
        s in "[a\u{0}]{0,10}", t in "[a\u{0}]{0,10}",
    ) {
        // Strings over {'a', NUL} stress the escape encoding: distinct
        // strings must produce distinct keys.
        let rows = vec![vec![Value::Varchar(s.clone())], vec![Value::Varchar(t.clone())]];
        let keys = encode_rows(&[LogicalType::Varchar], &rows);
        prop_assert_eq!(keys[0] == keys[1], s == t);
    }
}
