//! Hand-rolled binary encoding of values, vectors and chunks.
//!
//! Used by the WAL, the checkpointer and spill files. Deliberately written
//! from scratch (no serde): the byte-stream serialization of result sets is
//! itself one of the paper's artifacts — §5 benchmarks the cost of exactly
//! this kind of encoding against zero-copy chunk handover.

use eider_vector::{
    DataChunk, EiderError, LogicalType, Result, StrDict, ValidityMask, Value, Vector, VectorData,
};

/// Append-only binary writer.
#[derive(Debug, Default)]
pub struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        BinWriter { buf: Vec::with_capacity(cap) }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn write_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn write_i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    pub fn write_i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn write_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn write_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn write_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn write_bytes(&mut self, v: &[u8]) {
        self.write_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    pub fn write_str(&mut self, v: &str) {
        self.write_bytes(v.as_bytes());
    }
}

/// Sequential binary reader over a byte slice; every read is bounds-checked
/// and fails with a `Corruption` error rather than panicking — truncated or
/// bit-flipped inputs are expected inputs here (§3).
#[derive(Debug)]
pub struct BinReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        BinReader { data, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(EiderError::Corruption(format!(
                "truncated record: needed {n} bytes at offset {}, only {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn read_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn read_bool(&mut self) -> Result<bool> {
        Ok(self.read_u8()? != 0)
    }

    pub fn read_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub fn read_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub fn read_i8(&mut self) -> Result<i8> {
        Ok(self.read_u8()? as i8)
    }

    pub fn read_i16(&mut self) -> Result<i16> {
        Ok(i16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    pub fn read_i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub fn read_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub fn read_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub fn read_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.read_u64()? as usize;
        self.take(len)
    }

    pub fn read_str(&mut self) -> Result<String> {
        let bytes = self.read_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| EiderError::Corruption("invalid UTF-8 in serialized string".into()))
    }
}

/// Stable on-disk tag for a logical type.
pub fn type_to_tag(ty: LogicalType) -> u8 {
    match ty {
        LogicalType::Boolean => 0,
        LogicalType::TinyInt => 1,
        LogicalType::SmallInt => 2,
        LogicalType::Integer => 3,
        LogicalType::BigInt => 4,
        LogicalType::Double => 5,
        LogicalType::Varchar => 6,
        LogicalType::Date => 7,
        LogicalType::Timestamp => 8,
    }
}

pub fn tag_to_type(tag: u8) -> Result<LogicalType> {
    Ok(match tag {
        0 => LogicalType::Boolean,
        1 => LogicalType::TinyInt,
        2 => LogicalType::SmallInt,
        3 => LogicalType::Integer,
        4 => LogicalType::BigInt,
        5 => LogicalType::Double,
        6 => LogicalType::Varchar,
        7 => LogicalType::Date,
        8 => LogicalType::Timestamp,
        _ => return Err(EiderError::Corruption(format!("unknown type tag {tag}"))),
    })
}

/// Serialize one value (type tag + payload; NULL is tag 255).
pub fn write_value(w: &mut BinWriter, v: &Value) {
    match v {
        Value::Null => w.write_u8(255),
        Value::Boolean(b) => {
            w.write_u8(type_to_tag(LogicalType::Boolean));
            w.write_bool(*b);
        }
        Value::TinyInt(x) => {
            w.write_u8(type_to_tag(LogicalType::TinyInt));
            w.write_i8(*x);
        }
        Value::SmallInt(x) => {
            w.write_u8(type_to_tag(LogicalType::SmallInt));
            w.write_i16(*x);
        }
        Value::Integer(x) => {
            w.write_u8(type_to_tag(LogicalType::Integer));
            w.write_i32(*x);
        }
        Value::BigInt(x) => {
            w.write_u8(type_to_tag(LogicalType::BigInt));
            w.write_i64(*x);
        }
        Value::Double(x) => {
            w.write_u8(type_to_tag(LogicalType::Double));
            w.write_f64(*x);
        }
        Value::Varchar(s) => {
            w.write_u8(type_to_tag(LogicalType::Varchar));
            w.write_str(s);
        }
        Value::Date(x) => {
            w.write_u8(type_to_tag(LogicalType::Date));
            w.write_i32(*x);
        }
        Value::Timestamp(x) => {
            w.write_u8(type_to_tag(LogicalType::Timestamp));
            w.write_i64(*x);
        }
    }
}

pub fn read_value(r: &mut BinReader) -> Result<Value> {
    let tag = r.read_u8()?;
    if tag == 255 {
        return Ok(Value::Null);
    }
    Ok(match tag_to_type(tag)? {
        LogicalType::Boolean => Value::Boolean(r.read_bool()?),
        LogicalType::TinyInt => Value::TinyInt(r.read_i8()?),
        LogicalType::SmallInt => Value::SmallInt(r.read_i16()?),
        LogicalType::Integer => Value::Integer(r.read_i32()?),
        LogicalType::BigInt => Value::BigInt(r.read_i64()?),
        LogicalType::Double => Value::Double(r.read_f64()?),
        LogicalType::Varchar => Value::Varchar(r.read_str()?),
        LogicalType::Date => Value::Date(r.read_i32()?),
        LogicalType::Timestamp => Value::Timestamp(r.read_i64()?),
    })
}

/// High bit of the type tag marks an encoded (compressed) vector frame.
/// Plain vectors keep the legacy `[tag][len][nulls][flat data]` layout
/// byte-for-byte, so frames written by older code parse unchanged and
/// frames of plain vectors round-trip through older decoders.
const ENCODED_FLAG: u8 = 0x80;
const ENC_DICT: u8 = 1;
const ENC_RLE: u8 = 2;
const ENC_FOR: u8 = 3;

fn write_len_and_nulls(w: &mut BinWriter, v: &Vector) {
    let len = v.len();
    w.write_u64(len as u64);
    let has_nulls = !v.validity().all_valid();
    w.write_bool(has_nulls);
    if has_nulls {
        let mut bitmap = vec![0u8; len.div_ceil(8)];
        for row in 0..len {
            if v.validity().is_valid(row) {
                bitmap[row / 8] |= 1 << (row % 8);
            }
        }
        w.write_bytes(&bitmap);
    }
}

fn write_flat_data(w: &mut BinWriter, data: &VectorData) {
    match data {
        VectorData::Bool(d) => d.iter().for_each(|&x| w.write_bool(x)),
        VectorData::I8(d) => d.iter().for_each(|&x| w.write_i8(x)),
        VectorData::I16(d) => d.iter().for_each(|&x| w.write_i16(x)),
        VectorData::I32(d) => d.iter().for_each(|&x| w.write_i32(x)),
        VectorData::I64(d) => d.iter().for_each(|&x| w.write_i64(x)),
        VectorData::F64(d) => d.iter().for_each(|&x| w.write_f64(x)),
        VectorData::Str(d) => d.iter().for_each(|x| w.write_str(x)),
    }
}

/// Serialize a vector. Plain: `[type tag][row count][null bitmap flag +
/// bitmap][data]`. Encoded vectors serialize their compressed form
/// directly — `[tag | 0x80][encoding][row count][nulls][payload]` — so
/// dictionary/RLE/FOR columns spill and checkpoint at compressed size and
/// reload still encoded.
pub fn write_vector(w: &mut BinWriter, v: &Vector) {
    let tag = type_to_tag(v.logical_type());
    if let Some((dict, codes)) = v.dict_parts() {
        w.write_u8(tag | ENCODED_FLAG);
        w.write_u8(ENC_DICT);
        write_len_and_nulls(w, v);
        w.write_u32(dict.len() as u32);
        for s in dict.values() {
            w.write_str(s);
        }
        codes.iter().for_each(|&c| w.write_u32(c));
        return;
    }
    if let Some((runs, starts)) = v.rle_parts() {
        w.write_u8(tag | ENCODED_FLAG);
        w.write_u8(ENC_RLE);
        write_len_and_nulls(w, v);
        w.write_u32(starts.len() as u32);
        starts.iter().for_each(|&s| w.write_u32(s));
        write_flat_data(w, runs);
        return;
    }
    if let Some((frame, deltas)) = v.for_parts() {
        w.write_u8(tag | ENCODED_FLAG);
        w.write_u8(ENC_FOR);
        write_len_and_nulls(w, v);
        w.write_i64(frame);
        deltas.iter().for_each(|&d| w.write_u32(d));
        return;
    }
    w.write_u8(tag);
    write_len_and_nulls(w, v);
    write_flat_data(w, v.data());
}

fn read_flat_data(r: &mut BinReader, ty: LogicalType, len: usize) -> Result<VectorData> {
    Ok(match ty {
        LogicalType::Boolean => {
            let mut d = Vec::with_capacity(len);
            for _ in 0..len {
                d.push(r.read_bool()?);
            }
            VectorData::Bool(d)
        }
        LogicalType::TinyInt => {
            let mut d = Vec::with_capacity(len);
            for _ in 0..len {
                d.push(r.read_i8()?);
            }
            VectorData::I8(d)
        }
        LogicalType::SmallInt => {
            let mut d = Vec::with_capacity(len);
            for _ in 0..len {
                d.push(r.read_i16()?);
            }
            VectorData::I16(d)
        }
        LogicalType::Integer | LogicalType::Date => {
            let mut d = Vec::with_capacity(len);
            for _ in 0..len {
                d.push(r.read_i32()?);
            }
            VectorData::I32(d)
        }
        LogicalType::BigInt | LogicalType::Timestamp => {
            let mut d = Vec::with_capacity(len);
            for _ in 0..len {
                d.push(r.read_i64()?);
            }
            VectorData::I64(d)
        }
        LogicalType::Double => {
            let mut d = Vec::with_capacity(len);
            for _ in 0..len {
                d.push(r.read_f64()?);
            }
            VectorData::F64(d)
        }
        LogicalType::Varchar => {
            let mut d = Vec::with_capacity(len);
            for _ in 0..len {
                d.push(r.read_str()?);
            }
            VectorData::Str(d)
        }
    })
}

pub fn read_vector(r: &mut BinReader) -> Result<Vector> {
    let raw_tag = r.read_u8()?;
    let encoded = raw_tag & ENCODED_FLAG != 0;
    let ty = tag_to_type(raw_tag & !ENCODED_FLAG)?;
    let enc = if encoded { r.read_u8()? } else { 0 };
    let len = r.read_u64()? as usize;
    // Guard against absurd lengths from corrupted input before allocating.
    if len > (1 << 40) {
        return Err(EiderError::Corruption(format!("implausible vector length {len}")));
    }
    let has_nulls = r.read_bool()?;
    let mut validity = ValidityMask::new_all_valid(0);
    if has_nulls {
        let bitmap = r.read_bytes()?;
        if bitmap.len() != len.div_ceil(8) {
            return Err(EiderError::Corruption("null bitmap size mismatch".into()));
        }
        for row in 0..len {
            validity.push(bitmap[row / 8] & (1 << (row % 8)) != 0);
        }
    } else {
        validity = ValidityMask::new_all_valid(len);
    }
    if !encoded {
        let data = read_flat_data(r, ty, len)?;
        return Vector::from_parts(ty, data, validity);
    }
    let corrupt = |e: EiderError| EiderError::Corruption(format!("invalid encoded vector: {e}"));
    match enc {
        ENC_DICT => {
            let dict_len = r.read_u32()? as usize;
            if dict_len > len {
                return Err(EiderError::Corruption(format!(
                    "dictionary larger than vector: {dict_len} > {len}"
                )));
            }
            let mut values = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                values.push(r.read_str()?);
            }
            let mut codes = Vec::with_capacity(len);
            for _ in 0..len {
                codes.push(r.read_u32()?);
            }
            Vector::from_dict(ty, std::sync::Arc::new(StrDict::new(values)), codes, validity)
                .map_err(corrupt)
        }
        ENC_RLE => {
            let runs = r.read_u32()? as usize;
            if runs > len {
                return Err(EiderError::Corruption(format!("more runs than rows: {runs} > {len}")));
            }
            let mut starts = Vec::with_capacity(runs);
            for _ in 0..runs {
                starts.push(r.read_u32()?);
            }
            let values = read_flat_data(r, ty, runs)?;
            Vector::from_rle(ty, values, starts, len, validity).map_err(corrupt)
        }
        ENC_FOR => {
            let frame = r.read_i64()?;
            let mut deltas = Vec::with_capacity(len);
            for _ in 0..len {
                deltas.push(r.read_u32()?);
            }
            Vector::from_for(ty, frame, deltas, validity).map_err(corrupt)
        }
        other => Err(EiderError::Corruption(format!("unknown vector encoding {other}"))),
    }
}

/// Serialize a chunk: `[column count][vectors...]`.
pub fn write_chunk(w: &mut BinWriter, chunk: &DataChunk) {
    w.write_u32(chunk.column_count() as u32);
    for col in chunk.columns() {
        write_vector(w, col);
    }
}

pub fn read_chunk(r: &mut BinReader) -> Result<DataChunk> {
    let cols = r.read_u32()? as usize;
    if cols > 100_000 {
        return Err(EiderError::Corruption(format!("implausible column count {cols}")));
    }
    let mut vectors = Vec::with_capacity(cols);
    for _ in 0..cols {
        vectors.push(read_vector(r)?);
    }
    DataChunk::from_vectors(vectors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = BinWriter::new();
        w.write_u8(7);
        w.write_i64(-1234567890123);
        w.write_f64(3.5);
        w.write_str("hello eider");
        w.write_bool(true);
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_i64().unwrap(), -1234567890123);
        assert_eq!(r.read_f64().unwrap(), 3.5);
        assert_eq!(r.read_str().unwrap(), "hello eider");
        assert!(r.read_bool().unwrap());
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_read_is_error_not_panic() {
        let mut w = BinWriter::new();
        w.write_u32(5);
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes[..2]);
        assert!(r.read_u32().is_err());
    }

    #[test]
    fn values_round_trip() {
        let values = vec![
            Value::Null,
            Value::Boolean(true),
            Value::TinyInt(-5),
            Value::SmallInt(1234),
            Value::Integer(-99999),
            Value::BigInt(1 << 50),
            Value::Double(2.25),
            Value::Varchar("quack".into()),
            Value::Date(18273),
            Value::Timestamp(1_578_787_200_000_000),
        ];
        let mut w = BinWriter::new();
        for v in &values {
            write_value(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        for v in &values {
            assert_eq!(&read_value(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn vectors_round_trip_with_nulls() {
        for ty in LogicalType::ALL {
            let mut v = Vector::new(ty);
            for i in 0..100 {
                if i % 7 == 0 {
                    v.push_null();
                } else {
                    let val = match ty {
                        LogicalType::Boolean => Value::Boolean(i % 2 == 0),
                        LogicalType::Varchar => Value::Varchar(format!("s{i}")),
                        LogicalType::Double => Value::Double(i as f64 / 4.0),
                        _ => Value::BigInt(i64::from(i)).cast_to(ty).unwrap(),
                    };
                    v.push_value(&val).unwrap();
                }
            }
            let mut w = BinWriter::new();
            write_vector(&mut w, &v);
            let bytes = w.into_bytes();
            let mut r = BinReader::new(&bytes);
            let back = read_vector(&mut r).unwrap();
            assert_eq!(back.logical_type(), ty);
            assert_eq!(back.to_values(), v.to_values(), "{ty}");
        }
    }

    #[test]
    fn chunk_round_trip() {
        let chunk = DataChunk::from_rows(
            &[LogicalType::Integer, LogicalType::Varchar, LogicalType::Double],
            &[
                vec![Value::Integer(1), Value::Varchar("a".into()), Value::Double(0.5)],
                vec![Value::Null, Value::Null, Value::Null],
                vec![Value::Integer(3), Value::Varchar("c".into()), Value::Double(1.5)],
            ],
        )
        .unwrap();
        let mut w = BinWriter::new();
        write_chunk(&mut w, &chunk);
        let bytes = w.into_bytes();
        let back = read_chunk(&mut BinReader::new(&bytes)).unwrap();
        assert_eq!(back.to_rows(), chunk.to_rows());
    }

    #[test]
    fn encoded_vectors_round_trip_still_encoded() {
        use eider_vector::Encoding;
        // Dict: low-cardinality varchar with NULL slots.
        let mut dict = Vector::new(LogicalType::Varchar);
        for i in 0..256 {
            if i % 11 == 0 {
                dict.push_null();
            } else {
                dict.push_value(&Value::Varchar(format!("name_{}", i % 5))).unwrap();
            }
        }
        // RLE: runny integers. FOR: big ints in a narrow range.
        let mut rle = Vector::new(LogicalType::Integer);
        for i in 0..256 {
            rle.push_value(&Value::Integer(i / 64)).unwrap();
        }
        let mut forv = Vector::new(LogicalType::BigInt);
        for i in 0..256i64 {
            forv.push_value(&Value::BigInt((1 << 40) + i * 37 % 1000)).unwrap();
        }
        for (v, want) in [(dict, Encoding::Dict), (rle, Encoding::Rle), (forv, Encoding::For)] {
            let enc = v.encode_auto().expect("chooser should encode fixture");
            assert_eq!(enc.encoding(), want);
            let mut w = BinWriter::new();
            write_vector(&mut w, &enc);
            let encoded_size = w.len();
            let mut plain_w = BinWriter::new();
            write_vector(&mut plain_w, &v);
            assert!(
                encoded_size < plain_w.len(),
                "{want:?}: encoded frame {encoded_size} >= plain {}",
                plain_w.len()
            );
            let bytes = w.into_bytes();
            let back = read_vector(&mut BinReader::new(&bytes)).unwrap();
            assert_eq!(back.encoding(), want, "deserialized vector stays encoded");
            assert_eq!(back.to_values(), v.to_values());
        }
    }

    #[test]
    fn plain_frames_keep_legacy_layout() {
        // A plain vector's frame must start with the bare type tag (no
        // encoding flag), so decoders predating compressed frames parse it.
        let v = Vector::from_values(
            LogicalType::Integer,
            &(0..4).map(Value::Integer).collect::<Vec<_>>(),
        )
        .unwrap();
        let mut w = BinWriter::new();
        write_vector(&mut w, &v);
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], type_to_tag(LogicalType::Integer));
        assert_eq!(bytes[0] & super::ENCODED_FLAG, 0);
    }

    #[test]
    fn corrupted_encoded_frames_rejected() {
        let mut v = Vector::new(LogicalType::Varchar);
        for i in 0..128 {
            v.push_value(&Value::Varchar(format!("k{}", i % 3))).unwrap();
        }
        let enc = v.encode_auto().unwrap();
        let mut w = BinWriter::new();
        write_vector(&mut w, &enc);
        let bytes = w.into_bytes();
        // Unknown encoding id.
        let mut bad = bytes.clone();
        bad[1] = 99;
        assert!(read_vector(&mut BinReader::new(&bad)).is_err());
        // Truncated payload.
        assert!(read_vector(&mut BinReader::new(&bytes[..bytes.len() - 2])).is_err());
    }

    #[test]
    fn corrupted_type_tag_rejected() {
        let mut w = BinWriter::new();
        let v = Vector::from_values(LogicalType::Integer, &[Value::Integer(1)]).unwrap();
        write_vector(&mut w, &v);
        let mut bytes = w.into_bytes();
        bytes[0] = 99; // invalid tag
        assert!(read_vector(&mut BinReader::new(&bytes)).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = BinWriter::new();
        w.write_bytes(&[0xFF, 0xFE, 0xFD]);
        let bytes = w.into_bytes();
        assert!(BinReader::new(&bytes).read_str().is_err());
    }
}
