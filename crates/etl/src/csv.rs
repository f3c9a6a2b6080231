//! A from-scratch CSV reader/writer with schema sniffing and byte-range
//! partitioned parallel scans.
//!
//! Quoting follows RFC 4180: fields containing the delimiter, quotes or
//! newlines are wrapped in double quotes; embedded quotes double. The
//! reader is a streaming *byte-level* state machine — records may contain
//! quoted newlines, which line-based readers silently split — and the
//! sniffer infers column types from a sample, falling back through
//! `BOOLEAN -> BIGINT -> DOUBLE -> DATE -> TIMESTAMP -> VARCHAR`.
//!
//! [`CsvSource`] exposes a file as a [`TableSource`]: it splits the data
//! region into byte-range partitions whose boundaries are resolved to
//! *true record starts* by a single quote-state prescan of the file (a
//! nominal boundary landing inside a quoted field scans forward to the
//! first newline at quote depth zero), so partitioned parallel scans see
//! exactly the records a serial scan would — each record belongs to the
//! partition containing its first byte.
//!
//! Fields parse straight into their typed output columns
//! ([`Vector::push_parsed`]) — no `Value` per cell, no row staging — with
//! the per-type parse helpers behind [`Value::parse_as`], so the typed
//! path accepts and rejects exactly the text a VARCHAR cast does, with the
//! same messages. Outside tests this module denies `unwrap`/`expect`:
//! malformed input surfaces as an [`EiderError`], never a panic.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::source::{SourcePartition, SourceReader, TableSource};
use eider_vector::{DataChunk, EiderError, LogicalType, Result, Value, Vector, VECTOR_SIZE};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Options for reading a CSV file.
#[derive(Debug, Clone)]
pub struct CsvReadOptions {
    pub header: bool,
    pub delimiter: char,
    /// Strings equal to this (e.g. `-999`, `NA`) become NULL; empty string
    /// always does.
    pub null_string: String,
    /// Rows sampled for type sniffing.
    pub sample_rows: usize,
}

impl Default for CsvReadOptions {
    fn default() -> Self {
        CsvReadOptions {
            header: true,
            delimiter: ',',
            null_string: String::new(),
            sample_rows: 1024,
        }
    }
}

/// Buffered byte reader with one-byte lookahead and an absolute offset —
/// the substrate of the record scanner (std's `BufReader` hides the
/// offset bookkeeping the partition logic needs).
struct ByteReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    /// Absolute file offset of the next unconsumed byte.
    offset: u64,
}

const READ_BUF: usize = 64 * 1024;

impl<R: Read> ByteReader<R> {
    fn new(inner: R, offset: u64) -> Self {
        ByteReader { inner, buf: vec![0; READ_BUF], pos: 0, len: 0, offset }
    }

    fn fill(&mut self) -> Result<bool> {
        if self.pos < self.len {
            return Ok(true);
        }
        self.len = self.inner.read(&mut self.buf)?;
        self.pos = 0;
        Ok(self.len > 0)
    }

    fn next(&mut self) -> Result<Option<u8>> {
        if !self.fill()? {
            return Ok(None);
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        self.offset += 1;
        Ok(Some(b))
    }

    fn peek(&mut self) -> Result<Option<u8>> {
        if !self.fill()? {
            return Ok(None);
        }
        Ok(Some(self.buf[self.pos]))
    }
}

/// Streaming RFC 4180 record scanner: yields one record (its fields plus
/// whether any quoting was seen) per call, tracking the absolute byte
/// offset of the next record start. Quoted fields may span newlines.
///
/// A record's fields live back to back in one reused `String`, so the
/// steady state allocates nothing per record or per field.
struct RecordScanner<R: Read> {
    bytes: ByteReader<R>,
    delimiter: u8,
    /// The current record's fields, unquoted, back to back.
    text: String,
    /// End offset in `text` of each field of the current record.
    ends: Vec<usize>,
    /// Raw bytes of the field being scanned (validated as UTF-8 when the
    /// field ends).
    field: Vec<u8>,
}

impl<R: Read> RecordScanner<R> {
    fn new(inner: R, offset: u64, delimiter: u8) -> Self {
        RecordScanner {
            bytes: ByteReader::new(inner, offset),
            delimiter,
            text: String::new(),
            ends: Vec::new(),
            field: Vec::new(),
        }
    }

    /// Absolute byte offset of the next unconsumed byte — after a
    /// completed record, the start of the next one.
    fn offset(&self) -> u64 {
        self.bytes.offset
    }

    /// Number of fields in the current record.
    fn field_count(&self) -> usize {
        self.ends.len()
    }

    /// Field `i` of the current record.
    fn field(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    fn fields(&self) -> impl Iterator<Item = &str> {
        (0..self.ends.len()).map(|i| self.field(i))
    }

    /// Parse one record (see [`RecordScanner::field`]). Returns `Ok(None)`
    /// at EOF; otherwise whether the record used quotes (distinguishes a
    /// blank line from a quoted empty field).
    fn next_record(&mut self) -> Result<Option<bool>> {
        self.text.clear();
        self.ends.clear();
        self.field.clear();
        let mut in_quotes = false;
        let mut saw_quote = false;
        let mut saw_byte = false;
        loop {
            let Some(b) = self.bytes.next()? else {
                if in_quotes {
                    return Err(EiderError::Parse("unterminated quote in CSV record".into()));
                }
                if !saw_byte {
                    return Ok(None);
                }
                self.end_field()?;
                return Ok(Some(saw_quote));
            };
            saw_byte = true;
            if in_quotes {
                if b == b'"' {
                    if self.bytes.peek()? == Some(b'"') {
                        self.bytes.next()?;
                        self.field.push(b'"');
                    } else {
                        in_quotes = false;
                    }
                } else {
                    self.field.push(b);
                }
            } else if b == b'"' {
                in_quotes = true;
                saw_quote = true;
            } else if b == self.delimiter {
                self.end_field()?;
            } else if b == b'\n' {
                self.end_field()?;
                return Ok(Some(saw_quote));
            } else if b == b'\r' && self.bytes.peek()? == Some(b'\n') {
                self.bytes.next()?;
                self.end_field()?;
                return Ok(Some(saw_quote));
            } else {
                self.field.push(b);
            }
        }
    }

    fn end_field(&mut self) -> Result<()> {
        let s = std::str::from_utf8(&self.field)
            .map_err(|_| EiderError::Parse("CSV field is not valid UTF-8".into()))?;
        self.text.push_str(s);
        self.ends.push(self.text.len());
        self.field.clear();
        Ok(())
    }

    /// Skip records until a non-blank one is parsed (a record with fields
    /// or quotes). Returns `false` at EOF.
    fn next_data_record(&mut self) -> Result<bool> {
        loop {
            match self.next_record()? {
                None => return Ok(false),
                Some(quoted) => {
                    let blank = !quoted && self.ends == [0];
                    if !blank {
                        return Ok(true);
                    }
                }
            }
        }
    }
}

/// Resolve nominal byte offsets to true record starts: one streaming
/// quote-state pass over `[start, end)` of the file. A record start is
/// the byte after a newline at quote depth zero (plus `start` itself);
/// each `nominal[i]` (ascending, all `>= start`) resolves to the smallest
/// record start `>=` it, or `end` when none exists — a boundary inside
/// the file's final record closes the last partition at EOF.
///
/// This is what keeps byte-range partitions record-aligned even when
/// quoted fields contain delimiters or newlines: the prescan carries the
/// exact quote state from `start`, so a `\n` inside `"a,b\nc"` is never
/// mistaken for a boundary.
fn resolve_record_starts(path: &Path, start: u64, end: u64, nominal: &[u64]) -> Result<Vec<u64>> {
    debug_assert!(nominal.windows(2).all(|w| w[0] <= w[1]));
    let mut resolved = vec![end; nominal.len()];
    let mut idx = nominal.partition_point(|&t| t <= start);
    resolved[..idx].iter_mut().for_each(|r| *r = start);
    if idx == nominal.len() {
        return Ok(resolved);
    }
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(start))?;
    let mut bytes = ByteReader::new(file.take(end.saturating_sub(start)), start);
    // Three-state machine: the "saw a quote while quoted" state decides
    // escaped-vs-closing on the *next* byte, so no lookahead is needed.
    #[derive(PartialEq)]
    enum S {
        Plain,
        Quoted,
        QuoteInQuoted,
    }
    let mut state = S::Plain;
    while let Some(b) = bytes.next()? {
        let record_start = match state {
            S::Plain => {
                if b == b'"' {
                    state = S::Quoted;
                }
                b == b'\n'
            }
            S::Quoted => {
                if b == b'"' {
                    state = S::QuoteInQuoted;
                }
                false
            }
            S::QuoteInQuoted => {
                // Previous quote closed the field unless doubled.
                state = if b == b'"' { S::Quoted } else { S::Plain };
                state == S::Plain && b == b'\n'
            }
        };
        if record_start {
            let c = bytes.offset; // byte after the newline
            while idx < nominal.len() && nominal[idx] <= c {
                resolved[idx] = c;
                idx += 1;
            }
            if idx == nominal.len() {
                break;
            }
        }
    }
    Ok(resolved)
}

fn could_be(s: &str, ty: LogicalType) -> bool {
    Value::parse_as(s, ty).is_ok()
}

/// Infer a column type from sampled strings.
fn infer_type(samples: &[&str]) -> LogicalType {
    let ladder = [
        LogicalType::Boolean,
        LogicalType::BigInt,
        LogicalType::Double,
        LogicalType::Date,
        LogicalType::Timestamp,
    ];
    'ladder: for ty in ladder {
        for s in samples {
            if !could_be(s, ty) {
                continue 'ladder;
            }
        }
        if !samples.is_empty() {
            return ty;
        }
    }
    LogicalType::Varchar
}

/// Sniffed schema plus the byte offset where data records begin (after
/// the header, when there is one).
struct SniffResult {
    schema: Vec<(String, LogicalType)>,
    data_start: u64,
}

fn sniff(path: &Path, options: &CsvReadOptions) -> Result<SniffResult> {
    let file = File::open(path)?;
    let mut scanner = RecordScanner::new(file, 0, options.delimiter as u8);
    let mut names: Vec<String> = Vec::new();
    let mut samples: Vec<Vec<String>> = Vec::new();
    let mut data_start = 0u64;
    let mut first = true;
    let mut sampled = 0usize;
    while sampled < options.sample_rows {
        if !scanner.next_data_record()? {
            break;
        }
        if first {
            first = false;
            if options.header {
                names = scanner.fields().map(str::to_owned).collect();
                samples.resize(names.len(), Vec::new());
                data_start = scanner.offset();
                continue;
            }
            names = (0..scanner.field_count()).map(|i| format!("column{i}")).collect();
            samples.resize(names.len(), Vec::new());
        }
        for (i, f) in scanner.fields().enumerate() {
            if i < samples.len() && !f.is_empty() && f != options.null_string {
                samples[i].push(f.to_owned());
            }
        }
        sampled += 1;
    }
    if names.is_empty() {
        return Err(EiderError::Parse("CSV file is empty".into()));
    }
    let schema = names
        .into_iter()
        .enumerate()
        .map(|(i, n)| {
            let refs: Vec<&str> = samples[i].iter().map(String::as_str).collect();
            (n, infer_type(&refs))
        })
        .collect();
    Ok(SniffResult { schema, data_start })
}

/// Sniff column names and types from the head of a CSV file. Quoted
/// fields may span newlines — the sniffer parses records, not lines.
pub fn sniff_csv_schema(
    path: impl AsRef<Path>,
    options: &CsvReadOptions,
) -> Result<Vec<(String, LogicalType)>> {
    Ok(sniff(path.as_ref(), options)?.schema)
}

/// Streaming CSV reader producing [`DataChunk`]s of the given types,
/// optionally bounded to a byte-range partition and projected to a
/// subset of columns.
pub struct CsvReader {
    scanner: RecordScanner<File>,
    null_string: String,
    /// Full-schema column types (records are validated against these).
    types: Vec<LogicalType>,
    /// Output columns: full-schema positions, in emission order.
    projection: Vec<usize>,
    out_types: Vec<LogicalType>,
    /// Records starting at or past this offset belong to the next
    /// partition.
    end: u64,
    rows_read: u64,
    skip_header: bool,
}

impl CsvReader {
    /// Open a whole file (the serial `COPY FROM` path).
    pub fn open(
        path: impl AsRef<Path>,
        types: Vec<LogicalType>,
        options: CsvReadOptions,
    ) -> Result<Self> {
        let projection: Vec<usize> = (0..types.len()).collect();
        Self::open_range(path, types, &options, 0, u64::MAX, projection, options.header)
    }

    /// Open one byte-range partition. `begin` must be a true record start
    /// (resolve with the source's partitioner); a record *starting*
    /// before `end` is read to completion even when it extends past it.
    pub fn open_range(
        path: impl AsRef<Path>,
        types: Vec<LogicalType>,
        options: &CsvReadOptions,
        begin: u64,
        end: u64,
        projection: Vec<usize>,
        skip_header: bool,
    ) -> Result<Self> {
        let mut file = File::open(path.as_ref())?;
        if begin > 0 {
            file.seek(SeekFrom::Start(begin))?;
        }
        let out_types = projection.iter().map(|&i| types[i]).collect();
        Ok(CsvReader {
            scanner: RecordScanner::new(file, begin, options.delimiter as u8),
            null_string: options.null_string.clone(),
            types,
            projection,
            out_types,
            end,
            rows_read: 0,
            skip_header,
        })
    }

    pub fn rows_read(&self) -> u64 {
        self.rows_read
    }

    /// Read the next chunk of up to [`VECTOR_SIZE`] rows; `None` when the
    /// range (or file) is exhausted.
    pub fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        let mut columns: Vec<Vector> =
            self.out_types.iter().map(|&t| Vector::with_capacity(t, VECTOR_SIZE)).collect();
        let mut rows = 0usize;
        while rows < VECTOR_SIZE {
            if self.scanner.offset() >= self.end {
                break;
            }
            if !self.scanner.next_data_record()? {
                break;
            }
            if self.skip_header {
                self.skip_header = false;
                continue;
            }
            if self.scanner.field_count() != self.types.len() {
                return Err(EiderError::Parse(format!(
                    "CSV row {} has {} fields, expected {}",
                    self.rows_read + 1,
                    self.scanner.field_count(),
                    self.types.len()
                )));
            }
            // Each field parses straight into its typed column.
            for (column, &col) in columns.iter_mut().zip(&self.projection) {
                let f = self.scanner.field(col);
                if f.is_empty() || f == self.null_string {
                    column.push_null();
                } else {
                    column.push_parsed(f)?;
                }
            }
            rows += 1;
            self.rows_read += 1;
        }
        if rows == 0 {
            Ok(None)
        } else {
            Ok(Some(DataChunk::from_vectors(columns)?))
        }
    }
}

/// Smallest data region worth its own partition: below this, per-worker
/// dispatch overhead dominates the parse.
const MIN_PARTITION_BYTES: u64 = 16 * 1024;

/// A CSV file behind the [`TableSource`] contract: schema sniffed at
/// construction, byte-range partitions with quote-aware record-aligned
/// boundaries. CSV carries no min/max metadata, so no partition pruning.
pub struct CsvSource {
    path: PathBuf,
    options: CsvReadOptions,
    names: Vec<String>,
    types: Vec<LogicalType>,
    data_start: u64,
    file_len: u64,
}

impl CsvSource {
    /// Open and sniff. The schema (and the data-start offset past the
    /// header) is fixed here; partitioning happens per scan.
    pub fn open(path: impl AsRef<Path>, options: CsvReadOptions) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let sniffed = sniff(&path, &options)?;
        let file_len = std::fs::metadata(&path)?.len();
        let (names, types) = sniffed.schema.into_iter().unzip();
        Ok(CsvSource { path, options, names, types, data_start: sniffed.data_start, file_len })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Replace the sniffed column types with a caller-declared schema
    /// (same arity). `COPY t FROM` uses this so fields parse directly as
    /// the table's declared types — a `VARCHAR` column keeps `"00123"`
    /// verbatim instead of round-tripping through an inferred integer.
    pub fn with_types(mut self, types: Vec<LogicalType>) -> Result<Self> {
        if types.len() != self.types.len() {
            return Err(EiderError::Bind(format!(
                "CSV file {} has {} columns, expected {}",
                self.path.display(),
                self.types.len(),
                types.len()
            )));
        }
        self.types = types;
        Ok(self)
    }
}

impl TableSource for CsvSource {
    fn name(&self) -> String {
        format!("read_csv('{}')", self.path.display())
    }

    fn column_names(&self) -> &[String] {
        &self.names
    }

    fn column_types(&self) -> &[LogicalType] {
        &self.types
    }

    /// Byte-range split of the data region. A pure function of the file
    /// and `target` — never of thread count — so partitioned results
    /// merge bit-identically at any parallelism.
    fn partitions(&self, target: usize) -> Result<Vec<SourcePartition>> {
        let bytes = self.file_len.saturating_sub(self.data_start);
        if bytes == 0 {
            return Ok(Vec::new());
        }
        let parts = (bytes / MIN_PARTITION_BYTES).clamp(1, target.max(1) as u64);
        if parts <= 1 {
            return Ok(vec![SourcePartition {
                seq: 0,
                begin: self.data_start,
                end: self.file_len,
            }]);
        }
        let nominal: Vec<u64> = (1..parts).map(|i| self.data_start + bytes * i / parts).collect();
        let starts = resolve_record_starts(&self.path, self.data_start, self.file_len, &nominal)?;
        let mut bounds = vec![self.data_start];
        for s in starts {
            // Two nominal boundaries inside one huge record resolve to
            // the same start; drop the empty partition between them.
            if bounds.last().is_some_and(|&b| s > b) && s < self.file_len {
                bounds.push(s);
            }
        }
        bounds.push(self.file_len);
        Ok(bounds
            .windows(2)
            .enumerate()
            .map(|(seq, w)| SourcePartition { seq, begin: w[0], end: w[1] })
            .collect())
    }

    fn open(
        &self,
        partition: &SourcePartition,
        projection: &[usize],
    ) -> Result<Box<dyn SourceReader>> {
        let reader = CsvReader::open_range(
            &self.path,
            self.types.clone(),
            &self.options,
            partition.begin,
            partition.end,
            projection.to_vec(),
            false,
        )?;
        Ok(Box::new(reader))
    }
}

impl SourceReader for CsvReader {
    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        CsvReader::next_chunk(self)
    }
}

/// Buffered CSV writer.
pub struct CsvWriter {
    writer: BufWriter<File>,
    delimiter: char,
    rows_written: u64,
}

impl CsvWriter {
    pub fn create(
        path: impl AsRef<Path>,
        header: Option<&[String]>,
        delimiter: char,
    ) -> Result<Self> {
        let file = File::create(path.as_ref())?;
        let mut w = CsvWriter { writer: BufWriter::new(file), delimiter, rows_written: 0 };
        if let Some(names) = header {
            let line: Vec<String> = names.iter().map(|n| w.quote(n)).collect();
            writeln!(w.writer, "{}", line.join(&delimiter.to_string()))?;
        }
        Ok(w)
    }

    fn quote(&self, field: &str) -> String {
        if field.contains(self.delimiter)
            || field.contains('"')
            || field.contains('\n')
            || field.contains('\r')
        {
            format!("\"{}\"", field.replace('"', "\"\""))
        } else {
            field.to_string()
        }
    }

    pub fn write_chunk(&mut self, chunk: &DataChunk) -> Result<()> {
        let sep = self.delimiter.to_string();
        for row in 0..chunk.len() {
            let fields: Vec<String> = chunk
                .row_values(row)
                .iter()
                .map(|v| if v.is_null() { String::new() } else { self.quote(&v.to_string()) })
                .collect();
            writeln!(self.writer, "{}", fields.join(&sep))?;
            self.rows_written += 1;
        }
        Ok(())
    }

    pub fn rows_written(&self) -> u64 {
        self.rows_written
    }

    pub fn finish(mut self) -> Result<u64> {
        self.writer.flush()?;
        Ok(self.rows_written)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut p = std::env::temp_dir();
        p.push(format!("eider_csv_{}_{n}_{name}.csv", std::process::id()));
        p
    }

    fn scan_one(line: &str, delimiter: char) -> Result<Vec<String>> {
        let mut s = RecordScanner::new(line.as_bytes(), 0, delimiter as u8);
        s.next_record()?;
        Ok(s.fields().map(str::to_owned).collect())
    }

    #[test]
    fn record_scanner_handles_quotes() {
        assert_eq!(scan_one("a,b,c", ',').unwrap(), vec!["a", "b", "c"]);
        assert_eq!(
            scan_one("\"a,b\",\"say \"\"hi\"\"\",", ',').unwrap(),
            vec!["a,b", "say \"hi\"", ""]
        );
        assert!(scan_one("\"open", ',').is_err());
    }

    #[test]
    fn quoted_newlines_stay_in_one_record() {
        let mut s = RecordScanner::new("a,\"x\ny\"\nb,z\n".as_bytes(), 0, b',');
        assert!(s.next_record().unwrap().is_some());
        assert_eq!(s.fields().collect::<Vec<_>>(), vec!["a", "x\ny"]);
        assert!(s.next_record().unwrap().is_some());
        assert_eq!(s.fields().collect::<Vec<_>>(), vec!["b", "z"]);
        assert!(s.next_record().unwrap().is_none());
    }

    #[test]
    fn sniffing_infers_types() {
        let path = tmp("sniff");
        std::fs::write(
            &path,
            "id,price,flag,day,name\n1,2.5,true,2020-01-12,alpha\n2,3,false,2020-01-13,beta\n",
        )
        .unwrap();
        let schema = sniff_csv_schema(&path, &CsvReadOptions::default()).unwrap();
        assert_eq!(schema[0], ("id".to_string(), LogicalType::BigInt));
        assert_eq!(schema[1], ("price".to_string(), LogicalType::Double));
        assert_eq!(schema[2], ("flag".to_string(), LogicalType::Boolean));
        assert_eq!(schema[3], ("day".to_string(), LogicalType::Date));
        assert_eq!(schema[4], ("name".to_string(), LogicalType::Varchar));
        std::fs::remove_file(&path).unwrap();
    }

    /// The regression `sniff_csv_schema` used to hit: a quoted field
    /// containing a newline made the line-based sampler read half a
    /// record and mis-infer every column after it.
    #[test]
    fn sniffing_survives_quoted_newlines_and_delimiters() {
        let path = tmp("sniff_embedded");
        std::fs::write(&path, "id,note,score\n1,\"line one\nline two\",2.5\n2,\"a,b,c\",3.5\n")
            .unwrap();
        let schema = sniff_csv_schema(&path, &CsvReadOptions::default()).unwrap();
        assert_eq!(
            schema,
            vec![
                ("id".to_string(), LogicalType::BigInt),
                ("note".to_string(), LogicalType::Varchar),
                ("score".to_string(), LogicalType::Double),
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_write_round_trip() {
        let path = tmp("round");
        {
            let mut w =
                CsvWriter::create(&path, Some(&["a".to_string(), "b".to_string()]), ',').unwrap();
            let chunk = DataChunk::from_rows(
                &[LogicalType::Integer, LogicalType::Varchar],
                &[
                    vec![Value::Integer(1), Value::Varchar("plain".into())],
                    vec![Value::Null, Value::Varchar("with,comma".into())],
                    vec![Value::Integer(3), Value::Varchar("say \"hi\"".into())],
                ],
            )
            .unwrap();
            w.write_chunk(&chunk).unwrap();
            assert_eq!(w.finish().unwrap(), 3);
        }
        let mut r = CsvReader::open(
            &path,
            vec![LogicalType::Integer, LogicalType::Varchar],
            CsvReadOptions::default(),
        )
        .unwrap();
        let chunk = r.next_chunk().unwrap().unwrap();
        assert_eq!(chunk.len(), 3);
        assert!(chunk.row_values(1)[0].is_null());
        assert_eq!(chunk.row_values(1)[1], Value::Varchar("with,comma".into()));
        assert_eq!(chunk.row_values(2)[1], Value::Varchar("say \"hi\"".into()));
        assert!(r.next_chunk().unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reader_round_trips_quoted_newlines() {
        let path = tmp("round_newline");
        {
            let mut w = CsvWriter::create(&path, Some(&["t".to_string()]), ',').unwrap();
            let chunk = DataChunk::from_rows(
                &[LogicalType::Varchar],
                &[
                    vec![Value::Varchar("first\nsecond".into())],
                    vec![Value::Varchar("plain".into())],
                ],
            )
            .unwrap();
            w.write_chunk(&chunk).unwrap();
            w.finish().unwrap();
        }
        let mut r =
            CsvReader::open(&path, vec![LogicalType::Varchar], CsvReadOptions::default()).unwrap();
        let chunk = r.next_chunk().unwrap().unwrap();
        assert_eq!(chunk.len(), 2);
        assert_eq!(chunk.row_values(0)[0], Value::Varchar("first\nsecond".into()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn null_string_option() {
        let path = tmp("nulls");
        std::fs::write(&path, "d\n-999\n5\n").unwrap();
        let opts = CsvReadOptions { null_string: "-999".into(), ..Default::default() };
        let mut r = CsvReader::open(&path, vec![LogicalType::Integer], opts).unwrap();
        let chunk = r.next_chunk().unwrap().unwrap();
        assert!(chunk.row_values(0)[0].is_null());
        assert_eq!(chunk.row_values(1)[0], Value::Integer(5));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn field_count_mismatch_errors() {
        let path = tmp("mismatch");
        std::fs::write(&path, "a,b\n1,2\n3\n").unwrap();
        let mut r = CsvReader::open(
            &path,
            vec![LogicalType::Integer, LogicalType::Integer],
            CsvReadOptions::default(),
        )
        .unwrap();
        assert!(r.next_chunk().is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn large_file_streams_in_chunks() {
        let path = tmp("large");
        let mut body = String::from("x\n");
        for i in 0..5000 {
            body.push_str(&format!("{i}\n"));
        }
        std::fs::write(&path, body).unwrap();
        let mut r =
            CsvReader::open(&path, vec![LogicalType::BigInt], CsvReadOptions::default()).unwrap();
        let mut total = 0;
        let mut chunks = 0;
        while let Some(c) = r.next_chunk().unwrap() {
            total += c.len();
            chunks += 1;
        }
        assert_eq!(total, 5000);
        assert!(chunks >= 3);
        std::fs::remove_file(&path).unwrap();
    }

    /// Collect all rows of a source scanned through `parts` partitions,
    /// concatenated in partition seq order.
    fn scan_partitioned(src: &CsvSource, target: usize) -> Vec<Vec<Value>> {
        let projection: Vec<usize> = (0..src.column_types().len()).collect();
        let mut rows = Vec::new();
        let parts = src.partitions(target).unwrap();
        for part in &parts {
            let mut reader = TableSource::open(src, part, &projection).unwrap();
            while let Some(chunk) = reader.next_chunk().unwrap() {
                rows.extend(chunk.to_rows());
            }
        }
        rows
    }

    /// The tentpole partitioning property: byte-range partitions tile the
    /// records exactly — even when quoted fields contain delimiters and
    /// newlines that a naive line splitter would trip over — and the
    /// decomposition is a pure function of the file, so any partition
    /// count yields the same rows in the same order.
    #[test]
    fn partitioned_scan_equals_serial_scan_with_embedded_newlines() {
        let path = tmp("partition_quotes");
        let mut body = String::from("id,note\n");
        for i in 0..6000 {
            // Every third record hides a delimiter and a newline inside
            // quotes; records are long enough that boundaries land inside
            // them for small partition counts.
            match i % 3 {
                0 => body.push_str(&format!("{i},\"padding padding padding {i}\"\n")),
                1 => body.push_str(&format!("{i},\"with,comma,{i},and more padding\"\n")),
                _ => body.push_str(&format!("{i},\"line one {i}\nline two {i}\"\n")),
            }
        }
        std::fs::write(&path, &body).unwrap();
        let src = CsvSource::open(&path, CsvReadOptions::default()).unwrap();
        let serial = scan_partitioned(&src, 1);
        assert_eq!(serial.len(), 6000);
        for target in [2, 4, 8, 16] {
            let parts = src.partitions(target).unwrap();
            assert!(parts.len() >= 2, "file is big enough to split at target {target}");
            assert_eq!(scan_partitioned(&src, target), serial, "target {target}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A nominal boundary landing *inside* a quoted field must resolve
    /// forward to the next true record start, not to the quoted newline.
    #[test]
    fn boundary_resolution_skips_quoted_newlines() {
        let path = tmp("boundary");
        // One giant quoted record full of newlines, then normal records.
        let mut body = String::from("a,b\n");
        body.push_str(&format!("1,\"{}\"\n", "x\n".repeat(20_000)));
        for i in 0..2000 {
            body.push_str(&format!("{i},plain\n"));
        }
        std::fs::write(&path, &body).unwrap();
        let src = CsvSource::open(&path, CsvReadOptions::default()).unwrap();
        let serial = scan_partitioned(&src, 1);
        assert_eq!(serial.len(), 2001);
        for target in [2, 5, 9] {
            assert_eq!(scan_partitioned(&src, target), serial, "target {target}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn projection_pushdown_emits_selected_columns_only() {
        let path = tmp("projection");
        std::fs::write(&path, "a,b,c\n1,x,2.5\n3,y,4.5\n").unwrap();
        let src = CsvSource::open(&path, CsvReadOptions::default()).unwrap();
        let parts = src.partitions(4).unwrap();
        assert_eq!(parts.len(), 1, "tiny file stays a single partition");
        let mut reader = TableSource::open(&src, &parts[0], &[2, 0]).unwrap();
        let chunk = SourceReader::next_chunk(&mut *reader).unwrap().unwrap();
        assert_eq!(chunk.types(), &[LogicalType::Double, LogicalType::BigInt]);
        assert_eq!(chunk.row_values(0), vec![Value::Double(2.5), Value::BigInt(1)]);
        assert_eq!(chunk.row_values(1), vec![Value::Double(4.5), Value::BigInt(3)]);
        std::fs::remove_file(&path).unwrap();
    }
}
