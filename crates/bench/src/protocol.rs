//! A classic client-server result-set protocol, for comparison.
//!
//! §5: "Serialization traditionally occurs due to the need to transfer a
//! result set to a client program over a network connection. Network
//! connections are byte streams, but result sets are two-dimensional
//! structures ... data transfer over a network socket to another computer
//! is limited by the available bandwidth, e.g. 1 Gbit/s."
//!
//! This module deliberately reproduces that design: a row-major,
//! length-prefixed byte stream (header with column names/types, then one
//! record per row, each value tagged), plus a bandwidth model that converts
//! byte counts into wire seconds — the closed-source client protocol the
//! paper compares against, rebuilt (DESIGN.md substitution E5).

use eider_client::result::MaterializedResult;
use eider_storage::serde::{
    read_value, tag_to_type, type_to_tag, write_value, BinReader, BinWriter,
};
use eider_vector::{DataChunk, EiderError, Result, VECTOR_SIZE};

/// Serialize a result set into the row-major wire format.
pub fn serialize_result(result: &MaterializedResult) -> Vec<u8> {
    let mut w = BinWriter::with_capacity(result.row_count() * 16 + 256);
    w.write_u32(result.column_count() as u32);
    for (name, &ty) in result.column_names().iter().zip(result.column_types()) {
        w.write_str(name);
        w.write_u8(type_to_tag(ty));
    }
    w.write_u64(result.row_count() as u64);
    for chunk in result.chunks() {
        for row in 0..chunk.len() {
            // Row-major: every value is individually tagged, exactly like
            // textual/binary row protocols.
            for col in 0..chunk.column_count() {
                write_value(&mut w, &chunk.column(col).get_value(row));
            }
        }
    }
    w.into_bytes()
}

/// Deserialize the wire format back into a result set (the client side).
pub fn deserialize_result(bytes: &[u8]) -> Result<MaterializedResult> {
    let mut r = BinReader::new(bytes);
    let cols = r.read_u32()? as usize;
    let mut names = Vec::with_capacity(cols);
    let mut types = Vec::with_capacity(cols);
    for _ in 0..cols {
        names.push(r.read_str()?);
        types.push(tag_to_type(r.read_u8()?)?);
    }
    let rows = r.read_u64()? as usize;
    let mut chunks = Vec::new();
    let mut chunk = DataChunk::new(&types);
    for _ in 0..rows {
        let mut row = Vec::with_capacity(cols);
        for _ in 0..cols {
            row.push(read_value(&mut r)?);
        }
        chunk.append_row(&row)?;
        if chunk.len() >= VECTOR_SIZE {
            chunks.push(std::mem::replace(&mut chunk, DataChunk::new(&types)));
        }
    }
    if !chunk.is_empty() {
        chunks.push(chunk);
    }
    if !r.is_exhausted() {
        return Err(EiderError::Corruption("trailing bytes after result set".into()));
    }
    Ok(MaterializedResult::new(names, types, chunks))
}

/// Bandwidth model for the simulated socket.
#[derive(Debug, Clone, Copy)]
pub struct Bandwidth {
    pub bits_per_second: f64,
}

impl Bandwidth {
    /// The paper's example link: 1 Gbit/s.
    pub fn gigabit() -> Self {
        Bandwidth { bits_per_second: 1e9 }
    }

    /// Seconds on the wire for `bytes`.
    pub fn wire_seconds(&self, bytes: usize) -> f64 {
        bytes as f64 * 8.0 / self.bits_per_second
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eider_vector::{LogicalType, Value};

    fn result(rows: usize) -> MaterializedResult {
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                vec![
                    Value::BigInt(i as i64),
                    Value::Double(i as f64 / 2.0),
                    if i % 7 == 0 { Value::Null } else { Value::Varchar(format!("row{i}")) },
                ]
            })
            .collect();
        let chunk = DataChunk::from_rows(
            &[LogicalType::BigInt, LogicalType::Double, LogicalType::Varchar],
            &data,
        )
        .unwrap();
        MaterializedResult::new(
            vec!["id".into(), "value".into(), "label".into()],
            vec![LogicalType::BigInt, LogicalType::Double, LogicalType::Varchar],
            vec![chunk],
        )
    }

    #[test]
    fn round_trip() {
        let r = result(5000);
        let bytes = serialize_result(&r);
        let back = deserialize_result(&bytes).unwrap();
        assert_eq!(back.row_count(), 5000);
        assert_eq!(back.column_names(), r.column_names());
        assert_eq!(back.to_rows(), r.to_rows());
        // Deserialization re-chunks at the standard vector size.
        assert!(back.chunk_count() >= 2);
    }

    #[test]
    fn truncated_stream_detected() {
        let r = result(100);
        let bytes = serialize_result(&r);
        assert!(deserialize_result(&bytes[..bytes.len() - 5]).is_err());
    }

    #[test]
    fn trailing_garbage_detected() {
        let r = result(10);
        let mut bytes = serialize_result(&r);
        bytes.extend_from_slice(b"junk");
        assert!(deserialize_result(&bytes).is_err());
    }

    #[test]
    fn bandwidth_model() {
        let bw = Bandwidth::gigabit();
        // 125 MB takes one second at 1 Gbit/s.
        assert!((bw.wire_seconds(125_000_000) - 1.0).abs() < 1e-9);
        assert_eq!(bw.wire_seconds(0), 0.0);
    }

    #[test]
    fn serialized_size_is_larger_than_columnar() {
        // Row-major tagging costs: every value carries a tag byte, strings
        // a length; the protocol is strictly bigger than raw column data.
        let r = result(10_000);
        let bytes = serialize_result(&r);
        let raw: usize = r.chunks().map(|c| c.size_bytes()).sum();
        assert!(bytes.len() > raw / 4, "sanity: {} vs {}", bytes.len(), raw);
    }
}
