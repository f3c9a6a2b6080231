//! Chunk spill files for out-of-core operators.
//!
//! §4's cooperation story requires operators that can trade memory for
//! disk: the external sort and the out-of-core merge join write runs of
//! chunks to temporary files through this module. Spilled chunks carry the
//! same CRC-32C protection as database blocks — intermediate results
//! written back to storage are part of the §3 failure-mode chain ("if a
//! query result is written back to storage, a wrong query result will also
//! compromise the persistent data's integrity").

use crate::serde::{read_chunk, write_chunk, BinReader, BinWriter};
use eider_resilience::checksum::crc32c;
use eider_vector::{DataChunk, EiderError, Result};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_spill_path() -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "eider_spill_{}_{}.tmp",
        std::process::id(),
        SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

/// A write-phase spill file. Call [`SpillFile::finish`] to flip to reading.
pub struct SpillFile {
    path: PathBuf,
    writer: BufWriter<File>,
    chunks: u64,
    rows: u64,
}

impl SpillFile {
    /// Create a spill file in the system temp directory.
    pub fn create() -> Result<Self> {
        let path = temp_spill_path();
        let file = OpenOptions::new().create_new(true).write(true).open(&path)?;
        Ok(SpillFile { path, writer: BufWriter::new(file), chunks: 0, rows: 0 })
    }

    pub fn chunks_written(&self) -> u64 {
        self.chunks
    }

    pub fn rows_written(&self) -> u64 {
        self.rows
    }

    /// Append one chunk: `[len: u32][crc: u32][serialized chunk]`.
    pub fn write_chunk(&mut self, chunk: &DataChunk) -> Result<()> {
        let mut w = BinWriter::with_capacity(chunk.size_bytes() + 64);
        write_chunk(&mut w, chunk);
        let payload = w.into_bytes();
        self.writer.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.writer.write_all(&crc32c(&payload).to_le_bytes())?;
        self.writer.write_all(&payload)?;
        self.chunks += 1;
        self.rows += chunk.len() as u64;
        Ok(())
    }

    /// Finish writing and open the file for sequential reads.
    pub fn finish(mut self) -> Result<SpillReader> {
        self.writer.flush()?;
        let file = File::open(&self.path)?;
        let reader = SpillReader {
            path: std::mem::take(&mut self.path),
            reader: BufReader::new(file),
            remaining: self.chunks,
        };
        // Prevent our Drop from deleting the file the reader now owns.
        std::mem::forget(self);
        Ok(reader)
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Sequential reader over a finished spill file; deletes it on drop.
pub struct SpillReader {
    path: PathBuf,
    reader: BufReader<File>,
    remaining: u64,
}

impl SpillReader {
    /// Read the next chunk, verifying its checksum; `None` at end.
    pub fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut header = [0u8; 8];
        self.reader.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4"));
        let mut payload = vec![0u8; len];
        self.reader.read_exact(&mut payload)?;
        if crc32c(&payload) != crc {
            return Err(EiderError::Corruption(
                "spill file chunk failed checksum verification; \
                 intermediate data corrupted on disk"
                    .into(),
            ));
        }
        self.remaining -= 1;
        let chunk = read_chunk(&mut BinReader::new(&payload))?;
        Ok(Some(chunk))
    }
}

impl Drop for SpillReader {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eider_vector::{LogicalType, Value};

    fn chunk(start: i32, n: usize) -> DataChunk {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Integer(start + i as i32), Value::Varchar(format!("r{i}"))])
            .collect();
        DataChunk::from_rows(&[LogicalType::Integer, LogicalType::Varchar], &rows).unwrap()
    }

    #[test]
    fn write_read_round_trip() {
        let mut spill = SpillFile::create().unwrap();
        spill.write_chunk(&chunk(0, 100)).unwrap();
        spill.write_chunk(&chunk(100, 50)).unwrap();
        assert_eq!(spill.chunks_written(), 2);
        assert_eq!(spill.rows_written(), 150);
        let mut reader = spill.finish().unwrap();
        let a = reader.next_chunk().unwrap().unwrap();
        assert_eq!(a.len(), 100);
        assert_eq!(a.row_values(0)[0], Value::Integer(0));
        let b = reader.next_chunk().unwrap().unwrap();
        assert_eq!(b.len(), 50);
        assert_eq!(b.row_values(0)[0], Value::Integer(100));
        assert!(reader.next_chunk().unwrap().is_none());
    }

    #[test]
    fn encoded_chunks_spill_smaller_and_stay_encoded() {
        use eider_vector::{Encoding, Vector};
        // A dictionary-friendly chunk: 2048 rows over 8 distinct strings
        // plus a runny integer column.
        let mut names = Vector::new(LogicalType::Varchar);
        let mut vals = Vector::new(LogicalType::Integer);
        for i in 0..2048 {
            names.push_value(&Value::Varchar(format!("name_{}", i % 8))).unwrap();
            vals.push_value(&Value::Integer(i / 256)).unwrap();
        }
        let plain = DataChunk::from_vectors(vec![names.clone(), vals.clone()]).unwrap();
        let encoded = DataChunk::from_vectors(vec![
            names.encode_auto().unwrap(),
            vals.encode_auto().unwrap(),
        ])
        .unwrap();

        let mut plain_spill = SpillFile::create().unwrap();
        plain_spill.write_chunk(&plain).unwrap();
        let plain_path = plain_spill.path.clone();
        let _plain_reader = plain_spill.finish().unwrap();
        let plain_size = std::fs::metadata(&plain_path).unwrap().len();

        let mut enc_spill = SpillFile::create().unwrap();
        enc_spill.write_chunk(&encoded).unwrap();
        let enc_path = enc_spill.path.clone();
        let mut enc_reader = enc_spill.finish().unwrap();
        let enc_size = std::fs::metadata(&enc_path).unwrap().len();

        assert!(
            enc_size * 2 < plain_size,
            "encoded spill {enc_size}B should be well under half of plain {plain_size}B"
        );
        // Spilled columns come back encoded and value-identical.
        let back = enc_reader.next_chunk().unwrap().unwrap();
        assert_eq!(back.column(0).encoding(), Encoding::Dict);
        assert_eq!(back.column(1).encoding(), Encoding::Rle);
        assert_eq!(back.to_rows(), plain.to_rows());
    }

    #[test]
    fn spill_file_removed_on_drop() {
        let path;
        {
            let spill = SpillFile::create().unwrap();
            path = spill.path.clone();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn reader_removes_file_on_drop() {
        let mut spill = SpillFile::create().unwrap();
        spill.write_chunk(&chunk(0, 10)).unwrap();
        let path = spill.path.clone();
        let reader = spill.finish().unwrap();
        assert!(path.exists());
        drop(reader);
        assert!(!path.exists());
    }

    #[test]
    fn corrupted_spill_detected() {
        let mut spill = SpillFile::create().unwrap();
        spill.write_chunk(&chunk(0, 64)).unwrap();
        let path = spill.path.clone();
        // Flush, then corrupt the file on disk behind the reader's back.
        let mut reader = spill.finish().unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x20;
        std::fs::write(&path, &data).unwrap();
        let err = reader.next_chunk().unwrap_err();
        assert!(err.is_integrity_error());
    }

    #[test]
    fn empty_spill() {
        let spill = SpillFile::create().unwrap();
        let mut reader = spill.finish().unwrap();
        assert!(reader.next_chunk().unwrap().is_none());
    }
}
