//! Hand-rolled Arrow-IPC-style columnar file format: streaming writer,
//! footer-indexed reader, and a [`TableSource`] over record batches.
//!
//! The workspace builds offline, so this is a from-scratch implementation
//! of the IPC *ideas* for exactly the engine's type system — not a
//! flatbuffers-compatible Arrow file. What it keeps from Arrow: the
//! `ARROW1\0\0` magic frame, length-prefixed messages, 8-byte-aligned
//! body buffers, LSB-ordered validity bitmaps, i32-offsets-plus-bytes
//! varchar layout, dictionary batches with replacement semantics (a dict
//! message applies to every later record batch of its column until the
//! next one), and a trailing footer that indexes every message so readers
//! seek straight to the batches they need. What it adds: per-batch
//! per-column min/max statistics in the footer, giving scans the same
//! zone-map pruning table row groups enjoy. They come from the same
//! typed kernel as zone maps ([`Vector::min_max`]), so NULL and NaN never
//! enter them. Golden-file tests pin the byte format.
//!
//! Layout:
//!
//! ```text
//! file   := MAGIC message* footer footer_len:u32 MAGIC
//! message:= kind:u32 body_len:u32 body pad8          kind 1=dict 2=batch
//! dict   := col:u32 nvalues:u32 offsets:(n+1)*i32 pad8 bytes pad8
//! batch  := nrows:u32 column*                        (schema order)
//! column := enc:u8 pad8 validity:ceil(n/8) pad8 data pad8
//!           enc 0 plain (fixed width | offsets pad8 bytes), 1 dict codes:u32*
//! footer := ncols:u32 (tag:u8 name_len:u16 name)*
//!           ndicts:u32 (col:u32 offset:u64)*
//!           nbatches:u32 (offset:u64 nrows:u32 stats*)*
//! stats  := 0 | 1 min:value max:value                per column
//! value  := tag:u8 payload                           varchar: len:u32 bytes
//! ```
//!
//! Dictionary-coded varchar vectors ([`Vector::dict_parts`]) export their
//! codes without decoding, and import back as dict vectors sharing one
//! [`StrDict`] per dictionary message — the compressed-domain pipeline
//! (PR 8) keeps operating on codes end to end through a file round trip.

use crate::source::{SourcePartition, SourceReader, TableSource};
use eider_txn::TableFilter;
use eider_vector::{
    DataChunk, EiderError, LogicalType, Result, StrDict, ValidityMask, Value, Vector, VectorData,
};
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const MAGIC: &[u8; 8] = b"ARROW1\0\0";
const MSG_DICT: u32 = 1;
const MSG_BATCH: u32 = 2;
const ENC_PLAIN: u8 = 0;
const ENC_DICT: u8 = 1;

fn type_tag(ty: LogicalType) -> u8 {
    match ty {
        LogicalType::Boolean => 1,
        LogicalType::TinyInt => 2,
        LogicalType::SmallInt => 3,
        LogicalType::Integer => 4,
        LogicalType::BigInt => 5,
        LogicalType::Double => 6,
        LogicalType::Varchar => 7,
        LogicalType::Date => 8,
        LogicalType::Timestamp => 9,
    }
}

fn tag_type(tag: u8) -> Result<LogicalType> {
    Ok(match tag {
        1 => LogicalType::Boolean,
        2 => LogicalType::TinyInt,
        3 => LogicalType::SmallInt,
        4 => LogicalType::Integer,
        5 => LogicalType::BigInt,
        6 => LogicalType::Double,
        7 => LogicalType::Varchar,
        8 => LogicalType::Date,
        9 => LogicalType::Timestamp,
        t => return Err(EiderError::Corruption(format!("arrow file: unknown type tag {t}"))),
    })
}

fn pad8(len: usize) -> usize {
    len.next_multiple_of(8) - len
}

// ---------------- little-endian byte building / parsing ----------------

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Boolean(b) => {
            buf.push(1);
            buf.push(u8::from(*b));
        }
        Value::TinyInt(x) => {
            buf.push(2);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::SmallInt(x) => {
            buf.push(3);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Integer(x) => {
            buf.push(4);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::BigInt(x) => {
            buf.push(5);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Double(x) => {
            buf.push(6);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Varchar(s) => {
            buf.push(7);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Date(x) => {
            buf.push(8);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Timestamp(x) => {
            buf.push(9);
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Sequential parser over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(EiderError::Corruption("arrow file: truncated buffer".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn skip_pad8(&mut self) -> Result<()> {
        self.take(pad8(self.pos)).map(|_| ())
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("size")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("size")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("size")))
    }

    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Boolean(self.u8()? != 0),
            2 => Value::TinyInt(self.take(1)?[0] as i8),
            3 => Value::SmallInt(i16::from_le_bytes(self.take(2)?.try_into().expect("size"))),
            4 => Value::Integer(i32::from_le_bytes(self.take(4)?.try_into().expect("size"))),
            5 => Value::BigInt(i64::from_le_bytes(self.take(8)?.try_into().expect("size"))),
            6 => Value::Double(f64::from_le_bytes(self.take(8)?.try_into().expect("size"))),
            7 => {
                let len = self.u32()? as usize;
                Value::Varchar(
                    String::from_utf8(self.take(len)?.to_vec())
                        .map_err(|_| EiderError::Corruption("arrow file: bad utf-8".into()))?,
                )
            }
            8 => Value::Date(i32::from_le_bytes(self.take(4)?.try_into().expect("size"))),
            9 => Value::Timestamp(i64::from_le_bytes(self.take(8)?.try_into().expect("size"))),
            t => return Err(EiderError::Corruption(format!("arrow file: bad value tag {t}"))),
        })
    }
}

// ---------------- writer ----------------

/// Footer bookkeeping for one written record batch.
struct BatchMeta {
    offset: u64,
    nrows: u32,
    /// Per column: min/max of the batch (`None` when all-NULL or unknown).
    stats: Vec<Option<(Value, Value)>>,
}

/// Streaming writer: needs only `Write` (offsets are counted, not
/// sought), so result cursors export straight into files, sockets or
/// in-memory buffers. Chunks become record batches one-to-one; the
/// footer lands in [`finish`](ArrowWriter::finish).
pub struct ArrowWriter<W: Write> {
    out: W,
    offset: u64,
    names: Vec<String>,
    types: Vec<LogicalType>,
    /// Last dictionary written per column (replacement semantics).
    current_dicts: Vec<Option<Arc<StrDict>>>,
    dict_index: Vec<(u32, u64)>,
    batches: Vec<BatchMeta>,
    rows_written: u64,
}

impl<W: Write> ArrowWriter<W> {
    pub fn new(mut out: W, names: Vec<String>, types: Vec<LogicalType>) -> Result<Self> {
        if names.len() != types.len() {
            return Err(EiderError::Internal("arrow writer: names/types mismatch".into()));
        }
        out.write_all(MAGIC)?;
        let ncols = types.len();
        Ok(ArrowWriter {
            out,
            offset: MAGIC.len() as u64,
            names,
            types,
            current_dicts: vec![None; ncols],
            dict_index: Vec::new(),
            batches: Vec::new(),
            rows_written: 0,
        })
    }

    pub fn rows_written(&self) -> u64 {
        self.rows_written
    }

    fn write_message(&mut self, kind: u32, body: &[u8]) -> Result<u64> {
        let offset = self.offset;
        self.out.write_all(&kind.to_le_bytes())?;
        self.out.write_all(&(body.len() as u32).to_le_bytes())?;
        self.out.write_all(body)?;
        let pad = pad8(body.len());
        self.out.write_all(&[0u8; 8][..pad])?;
        self.offset += 8 + body.len() as u64 + pad as u64;
        Ok(offset)
    }

    /// Append one chunk as a record batch, emitting dictionary batches
    /// first for any dict-coded varchar column whose dictionary changed.
    pub fn write_chunk(&mut self, chunk: &DataChunk) -> Result<()> {
        if chunk.types() != self.types {
            return Err(EiderError::Internal(format!(
                "arrow writer: chunk types {:?} != schema {:?}",
                chunk.types(),
                self.types
            )));
        }
        if chunk.is_empty() {
            return Ok(());
        }
        // Dictionary batches precede the record batch that references them.
        for (col, vector) in chunk.columns().iter().enumerate() {
            let Some((dict, _)) = vector.dict_parts() else { continue };
            let replace = match &self.current_dicts[col] {
                Some(cur) => !Arc::ptr_eq(cur, dict),
                None => true,
            };
            if replace {
                let dict = Arc::clone(dict);
                let mut body = Vec::new();
                body.extend_from_slice(&(col as u32).to_le_bytes());
                body.extend_from_slice(&(dict.len() as u32).to_le_bytes());
                let mut off = 0i32;
                body.extend_from_slice(&off.to_le_bytes());
                for v in dict.values() {
                    off += v.len() as i32;
                    body.extend_from_slice(&off.to_le_bytes());
                }
                body.extend(std::iter::repeat_n(0u8, pad8(body.len())));
                for v in dict.values() {
                    body.extend_from_slice(v.as_bytes());
                }
                let offset = self.write_message(MSG_DICT, &body)?;
                self.dict_index.push((col as u32, offset));
                self.current_dicts[col] = Some(dict);
            }
        }
        let nrows = chunk.len();
        let mut body = Vec::new();
        body.extend_from_slice(&(nrows as u32).to_le_bytes());
        let mut stats = Vec::with_capacity(self.types.len());
        for vector in chunk.columns() {
            stats.push(vector.min_max(0..nrows));
            let dict = vector.dict_parts();
            body.push(if dict.is_some() { ENC_DICT } else { ENC_PLAIN });
            body.extend(std::iter::repeat_n(0u8, pad8(body.len())));
            // Validity bitmap, LSB first.
            let validity = vector.validity();
            let mut bitmap = vec![0u8; nrows.div_ceil(8)];
            for row in 0..nrows {
                if validity.is_valid(row) {
                    bitmap[row / 8] |= 1 << (row % 8);
                }
            }
            body.extend_from_slice(&bitmap);
            body.extend(std::iter::repeat_n(0u8, pad8(body.len())));
            if let Some((_, codes)) = dict {
                for &c in codes {
                    body.extend_from_slice(&c.to_le_bytes());
                }
            } else {
                put_plain_data(&mut body, vector.data());
            }
            body.extend(std::iter::repeat_n(0u8, pad8(body.len())));
        }
        let offset = self.write_message(MSG_BATCH, &body)?;
        self.batches.push(BatchMeta { offset, nrows: nrows as u32, stats });
        self.rows_written += nrows as u64;
        Ok(())
    }

    /// Write the footer and trailing magic; returns rows written.
    pub fn finish(mut self) -> Result<u64> {
        let mut footer = Vec::new();
        footer.extend_from_slice(&(self.types.len() as u32).to_le_bytes());
        for (name, &ty) in self.names.iter().zip(&self.types) {
            footer.push(type_tag(ty));
            footer.extend_from_slice(&(name.len() as u16).to_le_bytes());
            footer.extend_from_slice(name.as_bytes());
        }
        footer.extend_from_slice(&(self.dict_index.len() as u32).to_le_bytes());
        for (col, offset) in &self.dict_index {
            footer.extend_from_slice(&col.to_le_bytes());
            footer.extend_from_slice(&offset.to_le_bytes());
        }
        footer.extend_from_slice(&(self.batches.len() as u32).to_le_bytes());
        for batch in &self.batches {
            footer.extend_from_slice(&batch.offset.to_le_bytes());
            footer.extend_from_slice(&batch.nrows.to_le_bytes());
            for s in &batch.stats {
                match s {
                    None => footer.push(0),
                    Some((min, max)) => {
                        footer.push(1);
                        put_value(&mut footer, min);
                        put_value(&mut footer, max);
                    }
                }
            }
        }
        self.out.write_all(&footer)?;
        self.out.write_all(&(footer.len() as u32).to_le_bytes())?;
        self.out.write_all(MAGIC)?;
        self.out.flush()?;
        Ok(self.rows_written)
    }
}

fn put_plain_data(body: &mut Vec<u8>, data: &VectorData) {
    match data {
        VectorData::Bool(v) => body.extend(v.iter().map(|&b| u8::from(b))),
        VectorData::I8(v) => body.extend(v.iter().map(|&x| x as u8)),
        VectorData::I16(v) => v.iter().for_each(|x| body.extend_from_slice(&x.to_le_bytes())),
        VectorData::I32(v) => v.iter().for_each(|x| body.extend_from_slice(&x.to_le_bytes())),
        VectorData::I64(v) => v.iter().for_each(|x| body.extend_from_slice(&x.to_le_bytes())),
        VectorData::F64(v) => v.iter().for_each(|x| body.extend_from_slice(&x.to_le_bytes())),
        VectorData::Str(v) => {
            let mut off = 0i32;
            body.extend_from_slice(&off.to_le_bytes());
            for s in v {
                off += s.len() as i32;
                body.extend_from_slice(&off.to_le_bytes());
            }
            body.extend(std::iter::repeat_n(0u8, pad8(body.len())));
            for s in v {
                body.extend_from_slice(s.as_bytes());
            }
        }
    }
}

// ---------------- reader / TableSource ----------------

/// Footer entry for one record batch, as read back.
#[derive(Debug, Clone)]
struct BatchEntry {
    offset: u64,
    nrows: u32,
    stats: Vec<Option<(Value, Value)>>,
}

/// The shared footer index of an open file: everything partition readers
/// need, behind one `Arc` so `Box<dyn SourceReader>` stays `'static`.
struct ArrowInner {
    path: PathBuf,
    names: Vec<String>,
    types: Vec<LogicalType>,
    /// `(column, message offset)` of every dictionary message, in file
    /// order — a batch's dictionary is the last entry for its column
    /// with an offset below the batch's.
    dicts: Vec<(u32, u64)>,
    batches: Vec<BatchEntry>,
    /// Dictionaries decoded so far, keyed by message offset.
    dict_cache: Mutex<HashMap<u64, Arc<StrDict>>>,
}

/// An Arrow IPC file behind the [`TableSource`] contract: the footer is
/// read once at open; each record batch is one partition, pruned by the
/// footer's per-column min/max exactly like table zone maps. Dictionary
/// messages are loaded lazily and shared (one [`StrDict`] per message)
/// across every partition reader of this source.
pub struct ArrowFileSource {
    inner: Arc<ArrowInner>,
}

impl ArrowFileSource {
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let tail_len = (MAGIC.len() + 4) as u64;
        if file_len < MAGIC.len() as u64 * 2 + 4 {
            return Err(EiderError::Corruption("arrow file: too short".into()));
        }
        let mut head = [0u8; 8];
        file.read_exact(&mut head)?;
        if &head != MAGIC {
            return Err(EiderError::Corruption("arrow file: bad magic".into()));
        }
        file.seek(SeekFrom::Start(file_len - tail_len))?;
        let mut tail = vec![0u8; tail_len as usize];
        file.read_exact(&mut tail)?;
        if &tail[4..] != MAGIC {
            return Err(EiderError::Corruption("arrow file: bad trailing magic".into()));
        }
        let footer_len = u32::from_le_bytes(tail[..4].try_into().expect("size")) as u64;
        if footer_len + tail_len + MAGIC.len() as u64 > file_len {
            return Err(EiderError::Corruption("arrow file: footer length out of range".into()));
        }
        file.seek(SeekFrom::Start(file_len - tail_len - footer_len))?;
        let mut footer = vec![0u8; footer_len as usize];
        file.read_exact(&mut footer)?;
        let mut c = Cursor::new(&footer);
        let ncols = c.u32()? as usize;
        let mut names = Vec::with_capacity(ncols);
        let mut types = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            types.push(tag_type(c.u8()?)?);
            let len = c.u16()? as usize;
            names.push(
                String::from_utf8(c.take(len)?.to_vec())
                    .map_err(|_| EiderError::Corruption("arrow file: bad column name".into()))?,
            );
        }
        let ndicts = c.u32()? as usize;
        let mut dicts = Vec::with_capacity(ndicts);
        for _ in 0..ndicts {
            let col = c.u32()?;
            let offset = c.u64()?;
            dicts.push((col, offset));
        }
        let nbatches = c.u32()? as usize;
        let mut batches = Vec::with_capacity(nbatches);
        for _ in 0..nbatches {
            let offset = c.u64()?;
            let nrows = c.u32()?;
            let mut stats = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                stats.push(match c.u8()? {
                    0 => None,
                    _ => Some((c.value()?, c.value()?)),
                });
            }
            batches.push(BatchEntry { offset, nrows, stats });
        }
        Ok(ArrowFileSource {
            inner: Arc::new(ArrowInner {
                path,
                names,
                types,
                dicts,
                batches,
                dict_cache: Mutex::new(HashMap::new()),
            }),
        })
    }

    pub fn path(&self) -> &Path {
        &self.inner.path
    }
}

impl ArrowInner {
    /// Offset of the dictionary message governing `col` at `batch_offset`.
    fn dict_offset_for(&self, col: u32, batch_offset: u64) -> Option<u64> {
        self.dicts
            .iter()
            .filter(|&&(c, off)| c == col && off < batch_offset)
            .map(|&(_, off)| off)
            .next_back()
    }

    /// Load (or fetch from cache) the dictionary message at `offset`.
    fn load_dict(&self, file: &mut File, offset: u64) -> Result<Arc<StrDict>> {
        if let Some(d) = self.dict_cache.lock().expect("poisoned").get(&offset) {
            return Ok(Arc::clone(d));
        }
        let body = read_message(file, offset, MSG_DICT)?;
        let mut c = Cursor::new(&body);
        let _col = c.u32()?;
        let nvalues = c.u32()? as usize;
        let mut offsets = Vec::with_capacity(nvalues + 1);
        for _ in 0..=nvalues {
            offsets.push(i32::from_le_bytes(c.take(4)?.try_into().expect("size")) as usize);
        }
        c.skip_pad8()?;
        let bytes = c.take(offsets.last().copied().unwrap_or(0))?;
        let mut values = Vec::with_capacity(nvalues);
        for w in offsets.windows(2) {
            values.push(
                String::from_utf8(bytes[w[0]..w[1]].to_vec())
                    .map_err(|_| EiderError::Corruption("arrow file: bad dict utf-8".into()))?,
            );
        }
        let dict = Arc::new(StrDict::new(values));
        self.dict_cache.lock().expect("poisoned").insert(offset, Arc::clone(&dict));
        Ok(dict)
    }

    /// Decode one record batch, materializing only `projection` columns
    /// (unprojected buffers are skipped over, not decoded).
    fn read_batch(
        &self,
        file: &mut File,
        batch: &BatchEntry,
        projection: &[usize],
    ) -> Result<DataChunk> {
        let body = read_message(file, batch.offset, MSG_BATCH)?;
        let mut c = Cursor::new(&body);
        let nrows = c.u32()? as usize;
        if nrows != batch.nrows as usize {
            return Err(EiderError::Corruption("arrow file: footer/batch row mismatch".into()));
        }
        let mut columns: Vec<Option<Vector>> = (0..self.types.len()).map(|_| None).collect();
        for (col, &ty) in self.types.iter().enumerate() {
            let wanted = projection.contains(&col);
            let enc = c.u8()?;
            c.skip_pad8()?;
            let bitmap = c.take(nrows.div_ceil(8))?;
            let validity = if wanted {
                let mut v = ValidityMask::new_all_valid(nrows);
                for row in 0..nrows {
                    if bitmap[row / 8] & (1 << (row % 8)) == 0 {
                        v.set_invalid(row);
                    }
                }
                Some(v)
            } else {
                None
            };
            c.skip_pad8()?;
            let vector = match enc {
                ENC_DICT => {
                    let raw = c.take(nrows * 4)?;
                    match validity {
                        Some(validity) => {
                            let codes: Vec<u32> = raw
                                .chunks_exact(4)
                                .map(|b| u32::from_le_bytes(b.try_into().expect("size")))
                                .collect();
                            let dict_offset = self
                                .dict_offset_for(col as u32, batch.offset)
                                .ok_or_else(|| {
                                    EiderError::Corruption(
                                        "arrow file: dict column without dict".into(),
                                    )
                                })?;
                            let dict = self.load_dict(file, dict_offset)?;
                            Some(Vector::from_dict(ty, dict, codes, validity)?)
                        }
                        None => None,
                    }
                }
                ENC_PLAIN => match (take_plain_data(&mut c, ty, nrows, wanted)?, validity) {
                    (Some(data), Some(validity)) => Some(Vector::from_parts(ty, data, validity)?),
                    _ => None,
                },
                e => {
                    return Err(EiderError::Corruption(format!(
                        "arrow file: unknown column encoding {e}"
                    )))
                }
            };
            c.skip_pad8()?;
            if wanted {
                columns[col] = vector;
            }
        }
        let vectors: Vec<Vector> = projection
            .iter()
            .map(|&col| {
                columns[col]
                    .take()
                    .ok_or_else(|| EiderError::Corruption("arrow file: missing column".into()))
            })
            .collect::<Result<_>>()?;
        DataChunk::from_vectors(vectors)
    }
}

fn read_message(file: &mut File, offset: u64, expect_kind: u32) -> Result<Vec<u8>> {
    file.seek(SeekFrom::Start(offset))?;
    let mut header = [0u8; 8];
    file.read_exact(&mut header)?;
    let kind = u32::from_le_bytes(header[..4].try_into().expect("size"));
    if kind != expect_kind {
        return Err(EiderError::Corruption(format!(
            "arrow file: expected message kind {expect_kind}, found {kind}"
        )));
    }
    let len = u32::from_le_bytes(header[4..].try_into().expect("size")) as usize;
    let mut body = vec![0u8; len];
    file.read_exact(&mut body)?;
    Ok(body)
}

/// Parse one plain column's data buffers. Always consumes the buffer
/// bytes (later columns need the cursor advanced); decodes into a
/// [`VectorData`] only when `wanted`.
fn take_plain_data(
    c: &mut Cursor<'_>,
    ty: LogicalType,
    nrows: usize,
    wanted: bool,
) -> Result<Option<VectorData>> {
    if !wanted {
        // Skip the exact byte span the decode below would consume.
        match ty {
            LogicalType::Boolean | LogicalType::TinyInt => c.take(nrows)?,
            LogicalType::SmallInt => c.take(nrows * 2)?,
            LogicalType::Integer | LogicalType::Date => c.take(nrows * 4)?,
            LogicalType::BigInt | LogicalType::Timestamp | LogicalType::Double => {
                c.take(nrows * 8)?
            }
            LogicalType::Varchar => {
                let offsets = c.take((nrows + 1) * 4)?;
                let last = offsets
                    .chunks_exact(4)
                    .next_back()
                    .map(|b| i32::from_le_bytes(b.try_into().expect("size")) as usize)
                    .unwrap_or(0);
                c.skip_pad8()?;
                c.take(last)?
            }
        };
        return Ok(None);
    }
    Ok(Some(match ty {
        LogicalType::Boolean => VectorData::Bool(c.take(nrows)?.iter().map(|&b| b != 0).collect()),
        LogicalType::TinyInt => VectorData::I8(c.take(nrows)?.iter().map(|&b| b as i8).collect()),
        LogicalType::SmallInt => VectorData::I16(
            c.take(nrows * 2)?
                .chunks_exact(2)
                .map(|b| i16::from_le_bytes(b.try_into().expect("size")))
                .collect(),
        ),
        LogicalType::Integer | LogicalType::Date => VectorData::I32(
            c.take(nrows * 4)?
                .chunks_exact(4)
                .map(|b| i32::from_le_bytes(b.try_into().expect("size")))
                .collect(),
        ),
        LogicalType::BigInt | LogicalType::Timestamp => VectorData::I64(
            c.take(nrows * 8)?
                .chunks_exact(8)
                .map(|b| i64::from_le_bytes(b.try_into().expect("size")))
                .collect(),
        ),
        LogicalType::Double => VectorData::F64(
            c.take(nrows * 8)?
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("size")))
                .collect(),
        ),
        LogicalType::Varchar => {
            let offsets: Vec<usize> = c
                .take((nrows + 1) * 4)?
                .chunks_exact(4)
                .map(|b| i32::from_le_bytes(b.try_into().expect("size")) as usize)
                .collect();
            c.skip_pad8()?;
            let bytes = c.take(offsets.last().copied().unwrap_or(0))?;
            let mut values = Vec::with_capacity(nrows);
            for w in offsets.windows(2) {
                values.push(
                    String::from_utf8(bytes[w[0]..w[1]].to_vec()).map_err(|_| {
                        EiderError::Corruption("arrow file: bad varchar utf-8".into())
                    })?,
                );
            }
            VectorData::Str(values)
        }
    }))
}

impl TableSource for ArrowFileSource {
    fn name(&self) -> String {
        format!("read_arrow('{}')", self.inner.path.display())
    }

    fn column_names(&self) -> &[String] {
        &self.inner.names
    }

    fn column_types(&self) -> &[LogicalType] {
        &self.inner.types
    }

    /// One partition per record batch — the format's natural parallel
    /// unit, and the granularity its min/max statistics prune at.
    fn partitions(&self, _target: usize) -> Result<Vec<SourcePartition>> {
        Ok(self
            .inner
            .batches
            .iter()
            .enumerate()
            .map(|(seq, _)| SourcePartition { seq, begin: seq as u64, end: seq as u64 + 1 })
            .collect())
    }

    /// Footer min/max against the scan's pushed filters: exactly the
    /// zone-map check table row groups run, at record-batch granularity.
    fn prunable(&self, partition: &SourcePartition, filters: &[TableFilter]) -> bool {
        let Some(batch) = self.inner.batches.get(partition.begin as usize) else { return false };
        filters.iter().any(|f| match batch.stats.get(f.column).and_then(|s| s.as_ref()) {
            Some((min, max)) => !f.zone_may_match(min, max),
            None => false,
        })
    }

    fn open(
        &self,
        partition: &SourcePartition,
        projection: &[usize],
    ) -> Result<Box<dyn SourceReader>> {
        Ok(Box::new(ArrowPartReader {
            source: Arc::clone(&self.inner),
            file: File::open(&self.inner.path)?,
            next: partition.begin as usize,
            end: (partition.end as usize).min(self.inner.batches.len()),
            projection: projection.to_vec(),
        }))
    }

    fn estimated_rows(&self) -> Option<u64> {
        Some(self.inner.batches.iter().map(|b| b.nrows as u64).sum())
    }
}

/// Reader over a contiguous range of record batches, sharing the open
/// source's footer index and dictionary cache.
struct ArrowPartReader {
    source: Arc<ArrowInner>,
    file: File,
    next: usize,
    end: usize,
    projection: Vec<usize>,
}

impl SourceReader for ArrowPartReader {
    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        while self.next < self.end {
            let batch = &self.source.batches[self.next];
            self.next += 1;
            if batch.nrows == 0 {
                continue;
            }
            let chunk = self.source.read_batch(&mut self.file, batch, &self.projection)?;
            return Ok(Some(chunk));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eider_txn::CmpOp;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut p = std::env::temp_dir();
        p.push(format!("eider_arrow_{}_{n}_{name}.arrow", std::process::id()));
        p
    }

    fn sample_chunk() -> DataChunk {
        let types = [LogicalType::BigInt, LogicalType::Varchar, LogicalType::Double];
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| {
                vec![
                    if i == 3 { Value::Null } else { Value::BigInt(i) },
                    if i == 5 {
                        Value::Varchar(String::new()) // empty string, NOT null
                    } else if i == 7 {
                        Value::Null
                    } else {
                        Value::Varchar(format!("name_{}", i % 3))
                    },
                    Value::Double(i as f64 * 0.5),
                ]
            })
            .collect();
        DataChunk::from_rows(&types, &rows).unwrap()
    }

    fn scan_all(src: &ArrowFileSource) -> Vec<Vec<Value>> {
        let projection: Vec<usize> = (0..src.column_types().len()).collect();
        let mut rows = Vec::new();
        for part in &src.partitions(8).unwrap() {
            let mut r = src.open(part, &projection).unwrap();
            while let Some(chunk) = r.next_chunk().unwrap() {
                rows.extend(chunk.to_rows());
            }
        }
        rows
    }

    #[test]
    fn round_trip_with_nulls_and_empty_strings() {
        let path = tmp("round");
        let chunk = sample_chunk();
        {
            let file = File::create(&path).unwrap();
            let mut w = ArrowWriter::new(
                file,
                vec!["id".into(), "name".into(), "v".into()],
                chunk.types().to_vec(),
            )
            .unwrap();
            w.write_chunk(&chunk).unwrap();
            assert_eq!(w.finish().unwrap(), 10);
        }
        let src = ArrowFileSource::open(&path).unwrap();
        assert_eq!(src.column_names(), ["id", "name", "v"]);
        assert_eq!(src.estimated_rows(), Some(10));
        let rows = scan_all(&src);
        assert_eq!(rows, chunk.to_rows());
        // Empty string survived as a value, null as a null.
        assert_eq!(rows[5][1], Value::Varchar(String::new()));
        assert!(rows[7][1].is_null());
        std::fs::remove_file(&path).unwrap();
    }

    /// Dict-coded varchar exports codes + one dictionary message and
    /// imports back as a dict vector — no decode on either side.
    #[test]
    fn dict_columns_round_trip_without_decode() {
        let path = tmp("dict");
        let types = [LogicalType::Varchar];
        let rows: Vec<Vec<Value>> =
            (0..256).map(|i| vec![Value::Varchar(format!("city_{}", i % 4))]).collect();
        let chunk = DataChunk::from_rows(&types, &rows).unwrap();
        let encoded = DataChunk::from_vectors(
            chunk.into_columns().into_iter().map(|c| c.encode_auto().unwrap_or(c)).collect(),
        )
        .unwrap();
        assert!(encoded.column(0).dict_parts().is_some(), "fixture must dict-encode");
        {
            let file = File::create(&path).unwrap();
            let mut w =
                ArrowWriter::new(file, vec!["city".into()], encoded.types().to_vec()).unwrap();
            // Two batches sharing one dictionary: only one dict message.
            w.write_chunk(&encoded).unwrap();
            w.write_chunk(&encoded).unwrap();
            assert_eq!(w.dict_index.len(), 1);
            w.finish().unwrap();
        }
        let src = ArrowFileSource::open(&path).unwrap();
        let parts = src.partitions(8).unwrap();
        assert_eq!(parts.len(), 2);
        let mut r = src.open(&parts[0], &[0]).unwrap();
        let back = r.next_chunk().unwrap().unwrap();
        let (dict, codes) = back.column(0).dict_parts().expect("imported as dict vector");
        assert_eq!(dict.len(), 4);
        assert_eq!(codes.len(), 256);
        assert_eq!(back.to_rows(), encoded.to_rows());
        std::fs::remove_file(&path).unwrap();
    }

    /// Footer min/max stats prune record-batch partitions like zone maps.
    #[test]
    fn footer_stats_prune_partitions() {
        let path = tmp("prune");
        let types = [LogicalType::BigInt];
        {
            let file = File::create(&path).unwrap();
            let mut w = ArrowWriter::new(file, vec!["x".into()], types.to_vec()).unwrap();
            for base in [0i64, 1000, 2000] {
                let rows: Vec<Vec<Value>> =
                    (base..base + 100).map(|i| vec![Value::BigInt(i)]).collect();
                w.write_chunk(&DataChunk::from_rows(&types, &rows).unwrap()).unwrap();
            }
            w.finish().unwrap();
        }
        let src = ArrowFileSource::open(&path).unwrap();
        let parts = src.partitions(8).unwrap();
        assert_eq!(parts.len(), 3);
        let gt = [TableFilter::new(0, CmpOp::Gt, Value::BigInt(1500))];
        assert!(src.prunable(&parts[0], &gt), "batch 0..100 cannot match x > 1500");
        assert!(src.prunable(&parts[1], &gt), "batch 1000..1100 cannot match");
        assert!(!src.prunable(&parts[2], &gt), "batch 2000..2100 must scan");
        let eq = [TableFilter::new(0, CmpOp::Eq, Value::BigInt(1050))];
        assert!(src.prunable(&parts[0], &eq));
        assert!(!src.prunable(&parts[1], &eq));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn projection_reads_requested_columns_in_order() {
        let path = tmp("projection");
        let chunk = sample_chunk();
        {
            let file = File::create(&path).unwrap();
            let mut w = ArrowWriter::new(
                file,
                vec!["id".into(), "name".into(), "v".into()],
                chunk.types().to_vec(),
            )
            .unwrap();
            w.write_chunk(&chunk).unwrap();
            w.finish().unwrap();
        }
        let src = ArrowFileSource::open(&path).unwrap();
        let parts = src.partitions(1).unwrap();
        let mut r = src.open(&parts[0], &[2, 0]).unwrap();
        let got = r.next_chunk().unwrap().unwrap();
        assert_eq!(got.types(), &[LogicalType::Double, LogicalType::BigInt]);
        assert_eq!(got.row_values(1), vec![Value::Double(0.5), Value::BigInt(1)]);
        assert!(got.row_values(3)[1].is_null());
        std::fs::remove_file(&path).unwrap();
    }

    /// Golden file: the byte format is pinned — any layout change must be
    /// deliberate (and versioned), not accidental.
    #[test]
    fn golden_file_pins_the_byte_format() {
        let types = [LogicalType::Integer, LogicalType::Varchar];
        let rows = [
            vec![Value::Integer(1), Value::Varchar("ab".into())],
            vec![Value::Null, Value::Varchar(String::new())],
            vec![Value::Integer(3), Value::Null],
        ];
        let chunk = DataChunk::from_rows(&types, &rows).unwrap();
        let mut bytes = Vec::new();
        let mut w =
            ArrowWriter::new(&mut bytes, vec!["i".into(), "s".into()], types.to_vec()).unwrap();
        w.write_chunk(&chunk).unwrap();
        w.finish().unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_HEX, "arrow byte format changed");
    }

    const GOLDEN_HEX: &str = "4152524f5731000002000000480000000300000000000000050000000000000001000000000000000300000000000000000000000000000003000000000000000000000002000000020000000200000061620000000000000200000004010069070100730000000001000000080000000000000003000000010401000000040300000001070000000007020000006162380000004152524f57310000";
}
