//! Block managers: the single-file store of §6 plus an in-memory variant
//! for tests and transient databases.
//!
//! File layout (all slots are [`BLOCK_SIZE`] bytes, each checksummed):
//!
//! ```text
//! slot 0: main header   — magic, format version
//! slot 1: db header A   — iteration, meta root, free-list root, block count
//! slot 2: db header B   — ditto (double buffer)
//! slot 3..: data blocks — BlockId 0 maps to slot 3
//! ```
//!
//! A checkpoint writes all new data into free blocks, then writes the new
//! database header into the *older* of the two header slots and fsyncs:
//! the root-pointer switch is atomic because a torn header write fails its
//! checksum and the previous header remains valid ("as a last step update
//! the root pointer and the free list in the header atomically", §6).

use crate::block::{decode_block, encode_block, BlockId, BLOCK_SIZE, INVALID_BLOCK};
use eider_resilience::health::{FaultCategory, HealthMonitor};
use eider_vector::{EiderError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"EIDERDB\0";
const FORMAT_VERSION: u64 = 1;
/// Number of file slots before data blocks (main header + two db headers).
const RESERVED_SLOTS: u64 = 3;

/// The database header: everything needed to find the current consistent
/// snapshot of the database inside the single file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatabaseHeader {
    /// Monotonically increasing checkpoint counter; the header with the
    /// highest valid iteration wins at open.
    pub iteration: u64,
    /// First block of the meta chain holding catalog + table data, or
    /// [`INVALID_BLOCK`] for an empty database.
    pub meta_root: BlockId,
    /// First block of the meta chain holding the free list, or
    /// [`INVALID_BLOCK`].
    pub free_root: BlockId,
    /// Total data blocks in the file at checkpoint time.
    pub block_count: u64,
}

impl DatabaseHeader {
    fn empty() -> Self {
        DatabaseHeader {
            iteration: 0,
            meta_root: INVALID_BLOCK,
            free_root: INVALID_BLOCK,
            block_count: 0,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        buf.extend_from_slice(&self.iteration.to_le_bytes());
        buf.extend_from_slice(&self.meta_root.to_le_bytes());
        buf.extend_from_slice(&self.free_root.to_le_bytes());
        buf.extend_from_slice(&self.block_count.to_le_bytes());
        buf
    }

    fn decode(payload: &[u8]) -> Result<Self> {
        if payload.len() < 32 {
            return Err(EiderError::Corruption("database header too short".into()));
        }
        let f = |i: usize| u64::from_le_bytes(payload[i * 8..(i + 1) * 8].try_into().expect("8"));
        Ok(DatabaseHeader { iteration: f(0), meta_root: f(1), free_root: f(2), block_count: f(3) })
    }
}

/// Abstraction over block storage so the checkpointer, meta chains and
/// tests can run against a file or against memory.
pub trait BlockManager: Send + Sync {
    /// Read and checksum-verify a block, returning its payload.
    fn read_block(&self, id: BlockId) -> Result<Vec<u8>>;
    /// Write a block payload (checksummed, padded to the full block).
    fn write_block(&self, id: BlockId, payload: &[u8]) -> Result<()>;
    /// Allocate a block id (from the free list or by growing the file).
    fn allocate_block(&self) -> BlockId;
    /// Return a block to the free list.
    fn free_block(&self, id: BlockId);
    /// Total data blocks ever allocated (high-water mark).
    fn block_count(&self) -> u64;
    /// Currently free (reusable) blocks.
    fn free_list(&self) -> Vec<BlockId>;
    /// Replace the free list (used after reading it back at open).
    fn restore_free_list(&self, free: Vec<BlockId>, block_count: u64);
    /// Flush everything to durable storage.
    fn sync(&self) -> Result<()>;
}

#[derive(Debug, Default)]
struct AllocState {
    free: Vec<BlockId>,
    max_block: u64,
}

impl AllocState {
    fn allocate(&mut self) -> BlockId {
        if let Some(id) = self.free.pop() {
            id
        } else {
            let id = self.max_block;
            self.max_block += 1;
            id
        }
    }
}

/// The single-file block manager of §6.
pub struct SingleFileBlockManager {
    file: Mutex<File>,
    path: PathBuf,
    state: Mutex<AllocState>,
    /// Which header slot (1 or 2) holds the *current* header.
    active_header_slot: Mutex<u64>,
    current_header: Mutex<DatabaseHeader>,
    health: Arc<HealthMonitor>,
}

impl std::fmt::Debug for SingleFileBlockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleFileBlockManager")
            .field("path", &self.path)
            .field("header", &*self.current_header.lock())
            .finish_non_exhaustive()
    }
}

impl SingleFileBlockManager {
    /// Create a fresh database file (fails if it already contains data).
    pub fn create(path: impl AsRef<Path>, health: Arc<HealthMonitor>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        // Main header.
        let mut main = Vec::with_capacity(16);
        main.extend_from_slice(MAGIC);
        main.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        file.write_all(&encode_block(&main))?;
        // Header A: iteration 1, empty database. Header B: iteration 0.
        let mut h = DatabaseHeader::empty();
        h.iteration = 1;
        file.write_all(&encode_block(&h.encode()))?;
        file.write_all(&encode_block(&DatabaseHeader::empty().encode()))?;
        file.sync_all()?;
        Ok(SingleFileBlockManager {
            file: Mutex::new(file),
            path,
            state: Mutex::new(AllocState::default()),
            active_header_slot: Mutex::new(1),
            current_header: Mutex::new(h),
            health,
        })
    }

    /// Open an existing database file, validating the main header and
    /// picking the newest valid database header.
    pub fn open(path: impl AsRef<Path>, health: Arc<HealthMonitor>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let main = Self::read_slot(&mut file, 0)?;
        if &main[..8] != MAGIC {
            return Err(EiderError::Corruption(format!(
                "{} is not an eider database (bad magic)",
                path.display()
            )));
        }
        let version = u64::from_le_bytes(main[8..16].try_into().expect("8"));
        if version != FORMAT_VERSION {
            return Err(EiderError::Storage(format!(
                "unsupported format version {version} (expected {FORMAT_VERSION})"
            )));
        }
        // Read both header slots; tolerate one being corrupt (torn write on
        // the previous checkpoint) but not both.
        let ha = Self::read_slot(&mut file, 1).and_then(|p| DatabaseHeader::decode(&p));
        let hb = Self::read_slot(&mut file, 2).and_then(|p| DatabaseHeader::decode(&p));
        let (slot, header) = match (ha, hb) {
            (Ok(a), Ok(b)) => {
                if a.iteration >= b.iteration {
                    (1, a)
                } else {
                    (2, b)
                }
            }
            (Ok(a), Err(_)) => (1, a),
            (Err(_), Ok(b)) => (2, b),
            (Err(e), Err(_)) => {
                health.record_fault(FaultCategory::DiskCorruption);
                return Err(EiderError::Corruption(format!(
                    "both database headers are corrupt ({e}); the file is unrecoverable"
                )));
            }
        };
        Ok(SingleFileBlockManager {
            file: Mutex::new(file),
            path,
            state: Mutex::new(AllocState { free: Vec::new(), max_block: header.block_count }),
            active_header_slot: Mutex::new(slot),
            current_header: Mutex::new(header),
            health,
        })
    }

    fn read_slot(file: &mut File, slot: u64) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; BLOCK_SIZE];
        file.seek(SeekFrom::Start(slot * BLOCK_SIZE as u64))?;
        file.read_exact(&mut buf)?;
        decode_block(&buf, slot)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn current_header(&self) -> DatabaseHeader {
        *self.current_header.lock()
    }

    pub fn health(&self) -> &Arc<HealthMonitor> {
        &self.health
    }

    /// Atomically install a new database header: write it to the inactive
    /// slot, fsync, then flip the active slot. A crash at any point leaves
    /// a valid header (old or new) discoverable at next open.
    pub fn write_header(&self, mut header: DatabaseHeader) -> Result<()> {
        // Data blocks of the new checkpoint image must be durable *before*
        // the header that references them.
        self.sync()?;
        let mut slot_guard = self.active_header_slot.lock();
        let target = if *slot_guard == 1 { 2 } else { 1 };
        header.iteration = self.current_header.lock().iteration + 1;
        header.block_count = self.state.lock().max_block;
        {
            let mut file = self.file.lock();
            file.seek(SeekFrom::Start(target * BLOCK_SIZE as u64))?;
            file.write_all(&encode_block(&header.encode()))?;
            file.sync_all()?;
        }
        *slot_guard = target;
        *self.current_header.lock() = header;
        Ok(())
    }
}

impl BlockManager for SingleFileBlockManager {
    fn read_block(&self, id: BlockId) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; BLOCK_SIZE];
        {
            let mut file = self.file.lock();
            file.seek(SeekFrom::Start((RESERVED_SLOTS + id) * BLOCK_SIZE as u64))?;
            file.read_exact(&mut buf)?;
        }
        decode_block(&buf, id).inspect_err(|_e| {
            // A checksum mismatch on read is exactly the silent disk error
            // §3 warns about: record it so checking escalates.
            self.health.record_fault(FaultCategory::DiskCorruption);
        })
    }

    fn write_block(&self, id: BlockId, payload: &[u8]) -> Result<()> {
        let block = encode_block(payload);
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start((RESERVED_SLOTS + id) * BLOCK_SIZE as u64))?;
        file.write_all(&block)?;
        Ok(())
    }

    fn allocate_block(&self) -> BlockId {
        self.state.lock().allocate()
    }

    fn free_block(&self, id: BlockId) {
        self.state.lock().free.push(id);
    }

    fn block_count(&self) -> u64 {
        self.state.lock().max_block
    }

    fn free_list(&self) -> Vec<BlockId> {
        self.state.lock().free.clone()
    }

    fn restore_free_list(&self, free: Vec<BlockId>, block_count: u64) {
        let mut st = self.state.lock();
        st.free = free;
        st.max_block = block_count;
    }

    fn sync(&self) -> Result<()> {
        self.file.lock().sync_all()?;
        Ok(())
    }
}

/// In-memory block manager for transient (`:memory:`) databases and tests.
/// Supports deliberate corruption via [`InMemoryBlockManager::corrupt_block`]
/// so resilience tests can exercise the read-verify path.
#[derive(Default)]
pub struct InMemoryBlockManager {
    blocks: Mutex<HashMap<BlockId, Vec<u8>>>,
    state: Mutex<AllocState>,
    health: Arc<HealthMonitor>,
}

impl InMemoryBlockManager {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_health(health: Arc<HealthMonitor>) -> Self {
        InMemoryBlockManager { health, ..Default::default() }
    }

    /// Flip one bit inside a stored block image (test hook standing in for
    /// silent disk corruption).
    pub fn corrupt_block(&self, id: BlockId, bit: usize) {
        let mut blocks = self.blocks.lock();
        let block = blocks.get_mut(&id).expect("corrupting nonexistent block");
        block[bit / 8] ^= 1 << (bit % 8);
    }
}

impl BlockManager for InMemoryBlockManager {
    fn read_block(&self, id: BlockId) -> Result<Vec<u8>> {
        let blocks = self.blocks.lock();
        let buf = blocks
            .get(&id)
            .ok_or_else(|| EiderError::Storage(format!("block {id} does not exist")))?;
        decode_block(buf, id).inspect_err(|_e| {
            self.health.record_fault(FaultCategory::DiskCorruption);
        })
    }

    fn write_block(&self, id: BlockId, payload: &[u8]) -> Result<()> {
        self.blocks.lock().insert(id, encode_block(payload));
        Ok(())
    }

    fn allocate_block(&self) -> BlockId {
        self.state.lock().allocate()
    }

    fn free_block(&self, id: BlockId) {
        self.blocks.lock().remove(&id);
        self.state.lock().free.push(id);
    }

    fn block_count(&self) -> u64 {
        self.state.lock().max_block
    }

    fn free_list(&self) -> Vec<BlockId> {
        self.state.lock().free.clone()
    }

    fn restore_free_list(&self, free: Vec<BlockId>, block_count: u64) {
        let mut st = self.state.lock();
        st.free = free;
        st.max_block = block_count;
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_path(name: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut p = std::env::temp_dir();
        p.push(format!("eider_test_{}_{n}_{name}.db", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn create_open_round_trip() {
        let path = tmp_path("create_open");
        let health = Arc::new(HealthMonitor::new());
        {
            let mgr = SingleFileBlockManager::create(&path, health.clone()).unwrap();
            let id = mgr.allocate_block();
            mgr.write_block(id, b"hello blocks").unwrap();
            let mut h = mgr.current_header();
            h.meta_root = id;
            mgr.write_header(h).unwrap();
        }
        {
            let mgr = SingleFileBlockManager::open(&path, health).unwrap();
            let h = mgr.current_header();
            assert_eq!(h.iteration, 2);
            assert_eq!(h.meta_root, 0);
            assert_eq!(h.block_count, 1);
            let payload = mgr.read_block(0).unwrap();
            assert_eq!(&payload[..12], b"hello blocks");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_switch_alternates_slots() {
        let path = tmp_path("header_switch");
        let health = Arc::new(HealthMonitor::new());
        let mgr = SingleFileBlockManager::create(&path, health).unwrap();
        for i in 0..5 {
            let h = mgr.current_header();
            mgr.write_header(h).unwrap();
            assert_eq!(mgr.current_header().iteration, 2 + i);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_header_write_recovers_previous_checkpoint() {
        let path = tmp_path("torn_header");
        let health = Arc::new(HealthMonitor::new());
        {
            let mgr = SingleFileBlockManager::create(&path, health.clone()).unwrap();
            let mut h = mgr.current_header();
            h.meta_root = 7;
            mgr.write_header(h).unwrap(); // iteration 2 in slot 2
        }
        // Simulate a torn write of the *next* header (slot 1): garbage bytes.
        {
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(BLOCK_SIZE as u64)).unwrap();
            f.write_all(&vec![0xAB; 512]).unwrap();
        }
        let mgr = SingleFileBlockManager::open(&path, health).unwrap();
        assert_eq!(mgr.current_header().iteration, 2);
        assert_eq!(mgr.current_header().meta_root, 7);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn both_headers_corrupt_is_fatal() {
        let path = tmp_path("both_corrupt");
        let health = Arc::new(HealthMonitor::new());
        drop(SingleFileBlockManager::create(&path, health.clone()).unwrap());
        {
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            for slot in [1u64, 2] {
                f.seek(SeekFrom::Start(slot * BLOCK_SIZE as u64 + 100)).unwrap();
                f.write_all(&[0xFF; 64]).unwrap();
            }
        }
        let err = SingleFileBlockManager::open(&path, health.clone()).unwrap_err();
        assert!(err.is_integrity_error());
        assert!(health.total_faults() > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn silent_block_corruption_detected_on_read() {
        let path = tmp_path("silent_corruption");
        let health = Arc::new(HealthMonitor::new());
        let mgr = SingleFileBlockManager::create(&path, health.clone()).unwrap();
        let id = mgr.allocate_block();
        mgr.write_block(id, &vec![0x5Au8; 1000]).unwrap();
        mgr.sync().unwrap();
        // Flip one bit in the middle of the block, bypassing the manager —
        // this is the "silent error" of §3.
        {
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(RESERVED_SLOTS * BLOCK_SIZE as u64 + 500)).unwrap();
            let mut b = [0u8; 1];
            // read-modify-write one byte
            let mut rf = OpenOptions::new().read(true).open(&path).unwrap();
            rf.seek(SeekFrom::Start(RESERVED_SLOTS * BLOCK_SIZE as u64 + 500)).unwrap();
            rf.read_exact(&mut b).unwrap();
            f.write_all(&[b[0] ^ 0x04]).unwrap();
        }
        let err = mgr.read_block(id).unwrap_err();
        assert!(err.is_integrity_error(), "got {err}");
        assert_eq!(health.disk_faults(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn free_list_reuses_blocks() {
        let mgr = InMemoryBlockManager::new();
        let a = mgr.allocate_block();
        let b = mgr.allocate_block();
        assert_ne!(a, b);
        mgr.free_block(a);
        let c = mgr.allocate_block();
        assert_eq!(c, a);
        assert_eq!(mgr.block_count(), 2);
    }

    #[test]
    fn in_memory_corruption_detected() {
        let health = Arc::new(HealthMonitor::new());
        let mgr = InMemoryBlockManager::with_health(health.clone());
        let id = mgr.allocate_block();
        mgr.write_block(id, b"payload").unwrap();
        mgr.corrupt_block(id, 12345);
        assert!(mgr.read_block(id).is_err());
        assert_eq!(health.disk_faults(), 1);
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let health = Arc::new(HealthMonitor::new());
        let err = SingleFileBlockManager::open("/nonexistent/eider.db", health).unwrap_err();
        assert!(matches!(err, EiderError::Io(_)));
    }

    #[test]
    fn open_non_database_file_rejected() {
        let path = tmp_path("not_a_db");
        std::fs::write(&path, vec![0u8; BLOCK_SIZE * 3]).unwrap();
        let health = Arc::new(HealthMonitor::new());
        assert!(SingleFileBlockManager::open(&path, health).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
