//! Differential tests for the typed ingest kernels against the per-row
//! paths they replace:
//!
//! * [`Vector::min_max`] over any row range, in every physical type and
//!   encoding, equals a per-row fold under [`Value::total_cmp`] with NULL
//!   and NaN skipped;
//! * every row group's zone map, after appends of random sizes that cross
//!   row-group boundaries, equals that fold over the group's rows;
//! * the CSV reader's typed parsing produces exactly what
//!   [`Value::parse_as`] does for each field — the same value, or the same
//!   error message;
//! * a table whose VARCHAR column is dictionary-coded as rows arrive
//!   scans back exactly what was committed, whatever the sources' form,
//!   and each row group's encoding follows the append rule.

use eider_etl::csv::{CsvReadOptions, CsvReader};
use eider_txn::table::{DataTable, ROW_GROUP_SIZE};
use eider_txn::ScanOptions;
use eider_txn::TransactionManager;
use eider_vector::{
    DataChunk, Encoding, LogicalType, StrDict, ValidityMask, Value, Vector, VectorData, VECTOR_SIZE,
};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::io::Write;
use std::ops::Range;
use std::sync::Arc;

/// The per-row reference: fold `get_value` over `rows`, skipping NULL and
/// NaN; the first minimum and the first maximum win ties.
fn fold_min_max(v: &Vector, rows: Range<usize>) -> Option<(Value, Value)> {
    let mut acc: Option<(Value, Value)> = None;
    for row in rows {
        let x = v.get_value(row);
        if x.is_null() || x.is_nan() {
            continue;
        }
        acc = Some(match acc {
            None => (x.clone(), x),
            Some((lo, hi)) => {
                let lo = if x.total_cmp(&lo) == Ordering::Less { x.clone() } else { lo };
                let hi = if x.total_cmp(&hi) == Ordering::Greater { x } else { hi };
                (lo, hi)
            }
        });
    }
    acc
}

/// `Debug` text pins the variant (DATE is not INTEGER) and the sign of a
/// zero, which `Value`'s `==` would both forgive.
fn exact(bounds: &Option<(Value, Value)>) -> String {
    format!("{bounds:?}")
}

const DOUBLES: [f64; 10] =
    [0.0, -0.0, 1.5, -2.25, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e300, -1e-300, 7.0];
const STRINGS: [&str; 10] = ["", "a", "\0", "a\0b", "ab", "b", "Z", "é", "a\0", " "];

/// One generated row: `(shape, raw)`. `shape` decides NULL-ness, whether
/// an integer comes from a small pool (ties) or the full range, and where
/// RLE runs start; `raw` supplies the value.
type Cell = (u64, u64);

fn validity(cells: &[Cell]) -> ValidityMask {
    let mut mask = ValidityMask::default();
    for &(shape, _) in cells {
        mask.push(shape % 5 != 0);
    }
    mask
}

fn int<T: TryFrom<i64>>(&(shape, raw): &Cell, wide: impl Fn(u64) -> T) -> T {
    if shape % 2 == 0 {
        match T::try_from(raw as i64 % 7 - 3) {
            Ok(small) => small,
            Err(_) => wide(raw),
        }
    } else {
        wide(raw)
    }
}

/// The same generated rows in every physical type, plain, and in the
/// dictionary, RLE and FOR encodings.
fn vectors(cells: &[Cell]) -> Vec<Vector> {
    let mask = validity(cells);
    let flat = |ty: LogicalType, data: VectorData| Vector::from_parts(ty, data, mask.clone());
    let pool = |&(_, raw): &Cell| (raw % 10) as usize;
    let mut out = vec![
        flat(LogicalType::Boolean, VectorData::Bool(cells.iter().map(|c| c.1 & 1 == 1).collect())),
        flat(
            LogicalType::TinyInt,
            VectorData::I8(cells.iter().map(|c| int(c, |r| r as i8)).collect()),
        ),
        flat(
            LogicalType::SmallInt,
            VectorData::I16(cells.iter().map(|c| int(c, |r| r as i16)).collect()),
        ),
        flat(
            LogicalType::Integer,
            VectorData::I32(cells.iter().map(|c| int(c, |r| r as i32)).collect()),
        ),
        flat(
            LogicalType::Date,
            VectorData::I32(cells.iter().map(|c| int(c, |r| r as i32)).collect()),
        ),
        flat(
            LogicalType::BigInt,
            VectorData::I64(cells.iter().map(|c| int(c, |r| r as i64)).collect()),
        ),
        flat(
            LogicalType::Timestamp,
            VectorData::I64(cells.iter().map(|c| int(c, |r| r as i64)).collect()),
        ),
        flat(
            LogicalType::Double,
            VectorData::F64(cells.iter().map(|c| DOUBLES[pool(c)]).collect()),
        ),
        flat(
            LogicalType::Varchar,
            VectorData::Str(cells.iter().map(|c| STRINGS[pool(c)].to_string()).collect()),
        ),
    ]
    .into_iter()
    .map(Result::unwrap)
    .collect::<Vec<_>>();

    let dict = Arc::new(StrDict::new(STRINGS.iter().map(|s| s.to_string()).collect()));
    let codes = cells.iter().map(|c| pool(c) as u32).collect();
    out.push(Vector::from_dict(LogicalType::Varchar, dict, codes, mask.clone()).unwrap());

    for ty in [LogicalType::BigInt, LogicalType::Timestamp] {
        let deltas = cells.iter().map(|c| int(c, |r| r as u32)).collect();
        out.push(Vector::from_for(ty, -(1 << 40), deltas, mask.clone()).unwrap());
    }

    // RLE: a run starts at row 0 and wherever `shape` says so; each run
    // takes the value of its first row.
    let starts: Vec<u32> = (0..cells.len())
        .filter(|&i| i == 0 || (cells[i].0 >> 8).is_multiple_of(3))
        .map(|i| i as u32)
        .collect();
    let heads: Vec<&Cell> = starts.iter().map(|&s| &cells[s as usize]).collect();
    let runs = [
        (LogicalType::Boolean, VectorData::Bool(heads.iter().map(|c| c.1 & 1 == 1).collect())),
        (
            LogicalType::Integer,
            VectorData::I32(heads.iter().map(|c| int(c, |r| r as i32)).collect()),
        ),
        (LogicalType::Double, VectorData::F64(heads.iter().map(|c| DOUBLES[pool(c)]).collect())),
        (
            LogicalType::Varchar,
            VectorData::Str(heads.iter().map(|c| STRINGS[pool(c)].to_string()).collect()),
        ),
    ];
    for (ty, values) in runs {
        out.push(Vector::from_rle(ty, values, starts.clone(), cells.len(), mask.clone()).unwrap());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn min_max_equals_the_per_row_fold(
        cells in prop::collection::vec((any::<u64>(), any::<u64>()), 0..300),
        ranges in prop::collection::vec((any::<usize>(), any::<usize>()), 1..6),
    ) {
        let len = cells.len();
        for v in vectors(&cells) {
            prop_assert_eq!(exact(&v.min_max(0..len)), exact(&fold_min_max(&v, 0..len)));
            for &(a, b) in &ranges {
                let start = a % (len + 1);
                let end = start + b % (len + 1 - start);
                prop_assert_eq!(
                    exact(&v.min_max(start..end)),
                    exact(&fold_min_max(&v, start..end)),
                    "{} {:?} rows {}..{}",
                    v.logical_type(),
                    v.encoding(),
                    start,
                    end
                );
            }
        }
    }
}

proptest! {
    // Each case appends 120k-390k rows, always more than one row group:
    // a few cases cross row-group boundaries at many offsets.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn zone_maps_equal_the_fold_of_their_group(
        sizes in prop::collection::vec(1usize..3 * VECTOR_SIZE, 1..8),
        big in prop::collection::vec(ROW_GROUP_SIZE / 2..ROW_GROUP_SIZE, 2..4),
        seed in any::<u64>(),
    ) {
        let types = [LogicalType::BigInt, LogicalType::Double, LogicalType::Varchar];
        let table = DataTable::new(types.to_vec());
        let mgr = TransactionManager::new();
        let txn = mgr.begin();
        // Small chunks, then big ones: a row-group boundary falls inside a
        // chunk, at an offset that varies from case to case.
        let mut all: Vec<Vec<Value>> = Vec::new();
        let mut state = seed | 1;
        for (i, &n) in sizes.iter().chain(&big).enumerate() {
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|j| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    // Values grow with the row's position (plus jitter), so
                    // a group's bounds come from its own first and last
                    // rows: a bound taken over the wrong rows shows. Every
                    // other chunk starts with a NaN.
                    let at = (all.len() + j) as i64 * 4 + (state >> 16) as i64 % 8;
                    if j == 0 && i % 2 == 0 {
                        vec![Value::BigInt(at), Value::Double(f64::NAN), Value::Varchar(String::new())]
                    } else if state.is_multiple_of(11) {
                        vec![Value::Null, Value::Null, Value::Null]
                    } else {
                        let pick = (state % 10) as usize;
                        let double = if pick == 6 { f64::NAN } else { at as f64 / 3.0 };
                        vec![
                            Value::BigInt(at),
                            Value::Double(double),
                            Value::Varchar(format!("{at:010}{}", STRINGS[pick])),
                        ]
                    }
                })
                .collect();
            table.append_chunk(&txn, &DataChunk::from_rows(&types, &rows).unwrap()).unwrap();
            all.extend(rows);
        }
        prop_assert_eq!(table.row_group_count(), all.len().div_ceil(ROW_GROUP_SIZE));
        prop_assert_eq!(table.row_group_count() > 1, true);
        for (g, group_rows) in all.chunks(ROW_GROUP_SIZE).enumerate() {
            let group = DataChunk::from_rows(&types, group_rows).unwrap();
            for (c, col) in group.columns().iter().enumerate() {
                prop_assert_eq!(
                    exact(&table.zone_map(g, c)),
                    exact(&fold_min_max(col, 0..col.len())),
                    "group {} column {}",
                    g,
                    c
                );
            }
        }
    }
}

/// The encoding a row group's VARCHAR column must have after receiving
/// `slots` (the string in each row's slot, rolled-back rows included, in
/// order): coded until a new value would take the distinct count past
/// `max(VECTOR_SIZE, rows / 4)`, plain from then on, and re-chosen when the
/// group fills (a dictionary when at most a quarter of its rows differ).
fn append_rule(slots: &[String]) -> Encoding {
    let mut seen = HashSet::new();
    for (i, s) in slots.iter().enumerate() {
        if !seen.contains(s) {
            if seen.len() >= VECTOR_SIZE.max((i + 1) / 4) {
                let distinct = slots.iter().collect::<HashSet<_>>().len();
                let full = slots.len() == ROW_GROUP_SIZE;
                return if full && distinct <= ROW_GROUP_SIZE / 4 {
                    Encoding::Dict
                } else {
                    Encoding::Plain
                };
            }
            seen.insert(s);
        }
    }
    Encoding::Dict
}

/// One append: `n` rows of cardinality `card` handed over as `form`
/// (0 plain, 1 coded by the chooser, 2 coded against a foreign dictionary
/// with unused entries), rolled back when `abort` is 0 (one in four).
type AppendOp = (u8, u8, usize, u8);

fn append_op() -> impl Strategy<Value = AppendOp> {
    let small = || 1usize..3 * VECTOR_SIZE;
    let n = prop_oneof![small(), small(), small(), ROW_GROUP_SIZE / 2..ROW_GROUP_SIZE];
    (0u8..3, 0u8..4, n, 0u8..4)
}

/// `values` (None = NULL, stored over an empty slot) as a VARCHAR vector in
/// the given form.
fn varchar_source(values: &[Option<String>], form: u8) -> Vector {
    let plain = Vector::from_values(
        LogicalType::Varchar,
        &values.iter().map(|v| v.clone().map_or(Value::Null, Value::Varchar)).collect::<Vec<_>>(),
    )
    .unwrap();
    match form {
        1 => plain.encode_auto().unwrap_or(plain),
        2 => {
            let mut entries = vec!["unused".to_string(), String::new()];
            let mut codes_of = std::collections::HashMap::from([(String::new(), 1u32)]);
            let mut codes = Vec::with_capacity(values.len());
            for v in values {
                let s = v.clone().unwrap_or_default();
                let code = *codes_of.entry(s.clone()).or_insert_with(|| {
                    entries.push(s);
                    entries.len() as u32 - 1
                });
                codes.push(code);
            }
            entries.push("never used".into());
            let dict = Arc::new(StrDict::new(entries));
            let validity = plain.validity().clone();
            Vector::from_dict(LogicalType::Varchar, dict, codes, validity).unwrap()
        }
        _ => plain,
    }
}

proptest! {
    // Each case appends up to a few hundred thousand rows, so a few cases
    // fill row groups and cross their ends.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn coded_appends_scan_back_and_follow_the_rule(
        ops in prop::collection::vec(append_op(), 1..7),
        seed in any::<u64>(),
    ) {
        let types = [LogicalType::Integer, LogicalType::Varchar];
        let table = DataTable::new(types.to_vec());
        let mgr = TransactionManager::new();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Every physical row's slot string, and the rows committed.
        let mut slots: Vec<String> = Vec::new();
        let mut committed: Vec<Vec<Value>> = Vec::new();
        let mut unique = 0u64;
        for (i, &(form, card, n, abort)) in ops.iter().enumerate() {
            let values: Vec<Option<String>> = (0..n)
                .map(|_| {
                    let r = next();
                    if r % 9 == 0 {
                        return None;
                    }
                    let low = STRINGS[(r >> 8) as usize % STRINGS.len()].to_string();
                    Some(match card {
                        0 => low,
                        1 => format!("mid\0{}", (r >> 8) % 300),
                        2 => {
                            unique += 1;
                            format!("u{unique}")
                        }
                        _ if r % 3 == 0 => {
                            unique += 1;
                            format!("u{unique}")
                        }
                        _ => low,
                    })
                })
                .collect();
            let ids: Vec<Value> = (0..n).map(|k| Value::Integer((slots.len() + k) as i32)).collect();
            let chunk = DataChunk::from_vectors(vec![
                Vector::from_values(LogicalType::Integer, &ids).unwrap(),
                varchar_source(&values, form),
            ])
            .unwrap();
            let txn = mgr.begin();
            table.append_chunk(&txn, &chunk).unwrap();
            if abort == 0 {
                txn.rollback().unwrap();
            } else {
                txn.commit().unwrap();
                for (id, v) in ids.into_iter().zip(&values) {
                    committed.push(vec![id, v.clone().map_or(Value::Null, Value::Varchar)]);
                }
            }
            slots.extend(values.into_iter().map(Option::unwrap_or_default));
            prop_assert_eq!(table.physical_rows(), slots.len(), "after append {}", i);
        }
        let reader = mgr.begin();
        let opts = ScanOptions { columns: vec![0, 1], ..Default::default() };
        let scanned: Vec<Vec<Value>> =
            table.scan_collect(&reader, &opts).unwrap().iter().flat_map(DataChunk::to_rows).collect();
        prop_assert_eq!(scanned.len(), committed.len());
        let first_difference = scanned.iter().zip(&committed).position(|(a, b)| a != b);
        prop_assert_eq!(first_difference, None, "the scan differs from the committed rows");
        for (g, group) in slots.chunks(ROW_GROUP_SIZE).enumerate() {
            prop_assert_eq!(table.column_encoding(g, 1), Some(append_rule(group)), "group {}", g);
        }
    }
}

/// A scratch CSV removed on drop, also when the test fails.
struct TmpCsv(std::path::PathBuf);

impl Drop for TmpCsv {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn tmp_csv(name: &str) -> TmpCsv {
    TmpCsv(std::env::temp_dir().join(format!("eider_ingest_{}_{name}.csv", std::process::id())))
}

/// RFC 4180 quoting, applied to every field so quoted delimiters,
/// quotes and newlines all reach the reader.
fn quoted(field: &str) -> String {
    format!("\"{}\"", field.replace('"', "\"\""))
}

/// What the `Value::parse_as` row path makes of one field.
fn reference(field: &str, ty: LogicalType, null_string: &str) -> Result<Value, String> {
    if field.is_empty() || field == null_string {
        return Ok(Value::Null);
    }
    Value::parse_as(field, ty).map_err(|e| e.to_string())
}

/// Read a one-column CSV of `fields` as `ty`, one file per field, so every
/// field's outcome (value or error) is observed on its own.
fn typed(field: &str, ty: LogicalType, options: &CsvReadOptions) -> Result<Value, String> {
    let file = tmp_csv("field");
    let mut f = std::fs::File::create(&file.0).unwrap();
    writeln!(f, "c\n{}", quoted(field)).unwrap();
    drop(f);
    let mut reader = CsvReader::open(&file.0, vec![ty], options.clone()).unwrap();
    let chunk = reader.next_chunk().map_err(|e| e.to_string())?.expect("one row");
    assert_eq!(chunk.len(), 1);
    Ok(chunk.column(0).get_value(0))
}

#[test]
fn typed_csv_parsing_matches_parse_as() {
    let fields = [
        "",
        "NA",
        " ",
        "0",
        "1",
        "-1",
        "+7",
        " 42 ",
        "\t-3\t",
        "1_000",
        "0x10",
        "1e3",
        "3.25",
        "-0.0",
        "NaN",
        "nan",
        "inf",
        "-inf",
        "+infinity",
        "127",
        "128",
        "-128",
        "-129",
        "32767",
        "32768",
        "2147483647",
        "2147483648",
        "-2147483649",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775809",
        "true",
        "TRUE",
        " t ",
        "yes",
        "No",
        "f",
        "maybe",
        "2020-01-12",
        "1970-01-01",
        "2020-02-30",
        "2020-1-2",
        " 2020-01-12 ",
        "2020-01-12 10:11:12",
        "2020-01-12T10:11:12.5",
        "2020-01-12 25:00:00",
        "a,b",
        "say \"hi\"",
        "line\nbreak",
        "crlf\r\nfield",
        "é\0x",
    ];
    let types = [
        LogicalType::Boolean,
        LogicalType::TinyInt,
        LogicalType::SmallInt,
        LogicalType::Integer,
        LogicalType::BigInt,
        LogicalType::Double,
        LogicalType::Varchar,
        LogicalType::Date,
        LogicalType::Timestamp,
    ];
    let options = CsvReadOptions { null_string: "NA".into(), ..CsvReadOptions::default() };
    let mut errors = 0;
    for ty in types {
        for field in fields {
            let (want, got) = (reference(field, ty, "NA"), typed(field, ty, &options));
            errors += usize::from(want.is_err());
            match (&want, &got) {
                // Bit patterns: -0.0 and NaN must survive exactly.
                (Ok(Value::Double(a)), Ok(Value::Double(b))) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{ty} {field:?}")
                }
                _ => assert_eq!(format!("{want:?}"), format!("{got:?}"), "{ty} {field:?}"),
            }
        }
    }
    assert!(errors > 50, "the field list must exercise the error paths ({errors} errors)");
}

/// All the valid fields of one type in one multi-chunk file: the typed
/// columns match the reference row path row for row across chunk
/// boundaries.
#[test]
fn typed_csv_chunks_match_the_row_path() {
    let columns = [
        (LogicalType::BigInt, vec!["1", " -2 ", "+3", "", "NA", "9223372036854775807"]),
        (LogicalType::Double, vec!["1.5", "NaN", "-0.0", "inf", "", " 2e-3"]),
        (LogicalType::Varchar, vec!["a,b", "", "NA", "say \"hi\"", "x\ny", " pad "]),
        (LogicalType::Date, vec!["2020-01-12", "", "1969-12-31", "NA", "2000-02-29", "1970-01-01"]),
        (LogicalType::Boolean, vec!["t", "FALSE", "", "yes", "0", "NA"]),
    ];
    let rows = 2 * VECTOR_SIZE + 7;
    let file = tmp_csv("chunks");
    let mut f = std::fs::File::create(&file.0).unwrap();
    writeln!(f, "a,b,c,d,e").unwrap();
    for r in 0..rows {
        let line: Vec<String> = columns.iter().map(|(_, fs)| quoted(fs[r % fs.len()])).collect();
        writeln!(f, "{}", line.join(",")).unwrap();
    }
    drop(f);
    let options = CsvReadOptions { null_string: "NA".into(), ..CsvReadOptions::default() };
    let types: Vec<LogicalType> = columns.iter().map(|(t, _)| *t).collect();
    let mut reader = CsvReader::open(&file.0, types, options).unwrap();
    let mut r = 0;
    while let Some(chunk) = reader.next_chunk().unwrap() {
        for row in 0..chunk.len() {
            for (c, (ty, fs)) in columns.iter().enumerate() {
                let want = reference(fs[r % fs.len()], *ty, "NA").unwrap();
                let got = chunk.column(c).get_value(row);
                assert_eq!(format!("{want:?}"), format!("{got:?}"), "row {r} column {c}");
            }
            r += 1;
        }
    }
    assert_eq!(r, rows);
}
