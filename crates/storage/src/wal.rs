//! The write-ahead log.
//!
//! §6: "the WAL is written to a separate file until consumed by a
//! checkpoint." Records are length-prefixed and CRC-32C-checksummed; on
//! replay the log is read until EOF or the first invalid record, which is
//! treated as the torn tail of an interrupted write (everything after it
//! was never acknowledged as committed, so discarding it is correct).
//!
//! This layer is agnostic about record *contents* — eider-core defines the
//! logical record encoding (create table, append chunk, delete rows, ...)
//! on top of these raw bytes.

use eider_resilience::checksum::crc32c;
use eider_vector::Result;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Append-only, checksummed record log.
pub struct WriteAheadLog {
    path: PathBuf,
    writer: BufWriter<File>,
    bytes_written: u64,
}

impl WriteAheadLog {
    /// Open (or create) the log at `path`, appending to existing content.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes_written = file.metadata()?.len();
        Ok(WriteAheadLog { path, writer: BufWriter::new(file), bytes_written })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes in the log (used to decide when to checkpoint).
    pub fn size_bytes(&self) -> u64 {
        self.bytes_written
    }

    /// Append one record: `[len: u32][crc32c: u32][payload]`.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        self.writer.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.writer.write_all(&crc32c(payload).to_le_bytes())?;
        self.writer.write_all(payload)?;
        self.bytes_written += 8 + payload.len() as u64;
        Ok(())
    }

    /// Flush buffered records and fsync — the durability point of commit.
    pub fn sync(&mut self) -> Result<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_all()?;
        Ok(())
    }

    /// Truncate the log after a successful checkpoint consumed it.
    pub fn reset(&mut self) -> Result<()> {
        self.writer.flush()?;
        let file = OpenOptions::new().write(true).open(&self.path)?;
        file.set_len(0)?;
        file.sync_all()?;
        let file = OpenOptions::new().append(true).open(&self.path)?;
        self.writer = BufWriter::new(file);
        self.bytes_written = 0;
        Ok(())
    }

    /// Read all complete, valid records from a log file. Stops cleanly at
    /// a torn tail. Returns the records and whether a torn/corrupt tail
    /// was encountered (so the caller can log it).
    pub fn replay(path: impl AsRef<Path>) -> Result<(Vec<Vec<u8>>, bool)> {
        let path = path.as_ref();
        if !path.exists() {
            return Ok((Vec::new(), false));
        }
        let mut reader = BufReader::new(File::open(path)?);
        let mut records = Vec::new();
        let mut torn = false;
        loop {
            let mut header = [0u8; 8];
            match reader.read_exact(&mut header) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e.into()),
            }
            let len = u32::from_le_bytes(header[..4].try_into().expect("4")) as usize;
            let crc = u32::from_le_bytes(header[4..].try_into().expect("4"));
            // An implausible length means the header itself is garbage.
            if len > (1 << 31) {
                torn = true;
                break;
            }
            let mut payload = vec![0u8; len];
            match reader.read_exact(&mut payload) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                    torn = true;
                    break;
                }
                Err(e) => return Err(e.into()),
            }
            if crc32c(&payload) != crc {
                torn = true;
                break;
            }
            records.push(payload);
        }
        Ok((records, torn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut p = std::env::temp_dir();
        p.push(format!("eider_wal_{}_{n}_{name}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_sync_replay() {
        let path = tmp("basic");
        {
            let mut wal = WriteAheadLog::open(&path).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second record").unwrap();
            wal.append(&[]).unwrap();
            wal.sync().unwrap();
        }
        let (records, torn) = WriteAheadLog::replay(&path).unwrap();
        assert!(!torn);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], b"first");
        assert_eq!(records[1], b"second record");
        assert!(records[2].is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let (records, torn) = WriteAheadLog::replay("/nonexistent/x.wal").unwrap();
        assert!(records.is_empty());
        assert!(!torn);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = tmp("torn");
        {
            let mut wal = WriteAheadLog::open(&path).unwrap();
            wal.append(b"committed").unwrap();
            wal.sync().unwrap();
        }
        // Simulate a crash mid-append: write a partial record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&100u32.to_le_bytes()).unwrap(); // claims 100 bytes
            f.write_all(&0u32.to_le_bytes()).unwrap();
            f.write_all(b"only twenty bytes...").unwrap();
        }
        let (records, torn) = WriteAheadLog::replay(&path).unwrap();
        assert!(torn);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0], b"committed");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_record_detected_by_checksum() {
        let path = tmp("corrupt");
        {
            let mut wal = WriteAheadLog::open(&path).unwrap();
            wal.append(b"record one that is long enough to corrupt").unwrap();
            wal.append(b"record two").unwrap();
            wal.sync().unwrap();
        }
        // Flip a bit inside record one's payload.
        {
            let mut data = std::fs::read(&path).unwrap();
            data[8 + 5] ^= 0x08;
            std::fs::write(&path, &data).unwrap();
        }
        let (records, torn) = WriteAheadLog::replay(&path).unwrap();
        assert!(torn);
        assert!(records.is_empty(), "corruption invalidates the record and the tail");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_truncates() {
        let path = tmp("reset");
        let mut wal = WriteAheadLog::open(&path).unwrap();
        wal.append(b"to be checkpointed").unwrap();
        wal.sync().unwrap();
        assert!(wal.size_bytes() > 0);
        wal.reset().unwrap();
        assert_eq!(wal.size_bytes(), 0);
        let (records, _) = WriteAheadLog::replay(&path).unwrap();
        assert!(records.is_empty());
        // Appending after reset still works.
        wal.append(b"new era").unwrap();
        wal.sync().unwrap();
        let (records, _) = WriteAheadLog::replay(&path).unwrap();
        assert_eq!(records.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let path = tmp("reopen");
        {
            let mut wal = WriteAheadLog::open(&path).unwrap();
            wal.append(b"one").unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = WriteAheadLog::open(&path).unwrap();
            assert!(wal.size_bytes() > 0);
            wal.append(b"two").unwrap();
            wal.sync().unwrap();
        }
        let (records, _) = WriteAheadLog::replay(&path).unwrap();
        assert_eq!(records.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
