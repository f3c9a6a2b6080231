//! Materialized chunk collections with optional intermediate compression.
//!
//! Pipeline breakers (hash join build sides, sort runs) materialize their
//! input. Under application memory pressure the adaptive controller (§4,
//! Figure 1) raises the [`CompressionLevel`]; collections then store
//! chunks as compressed byte buffers, trading CPU on access for RAM
//! footprint — precisely the "compress temporary structures like hash
//! tables in memory" trade-off of the paper.
//!
//! Memory is accounted against the buffer manager so the DBMS respects its
//! budget (§4's hard limits).

use eider_coop::compression::{compress, decompress, CompressionLevel};
use eider_storage::buffer::{BufferManager, MemoryReservation};
use eider_storage::serde::{read_chunk, write_chunk, BinReader, BinWriter};
use eider_vector::{DataChunk, Result};
use std::sync::Arc;

enum StoredChunk {
    Plain(DataChunk),
    Compressed { bytes: Vec<u8>, rows: usize },
}

/// Run the per-column encoding chooser over an owned chunk; columns the
/// chooser declines stay plain, untouched.
fn encode_columns(chunk: DataChunk) -> Result<DataChunk> {
    let cols =
        chunk.into_columns().into_iter().map(|c| c.encode_auto().unwrap_or(c)).collect::<Vec<_>>();
    DataChunk::from_vectors(cols)
}

impl StoredChunk {
    fn rows(&self) -> usize {
        match self {
            StoredChunk::Plain(c) => c.len(),
            StoredChunk::Compressed { rows, .. } => *rows,
        }
    }

    fn bytes(&self) -> usize {
        match self {
            StoredChunk::Plain(c) => c.size_bytes(),
            StoredChunk::Compressed { bytes, .. } => bytes.len(),
        }
    }
}

/// A bounded FIFO cache of decompressed chunks, owned by each *reader* of
/// a collection rather than by the collection itself: once its build phase
/// ends a collection is immutable, so any number of workers (e.g. the
/// morsel-parallel join probe) can read it concurrently through `&self`,
/// each with a private cache.
///
/// Decompressed chunks kept hot are bounded to `CACHE_SLOTS * chunk size`
/// regardless of collection size; sequential access hits slot after slot,
/// and probe phases that bounce across a modest number of build chunks
/// stay cached instead of re-decompressing per row.
#[derive(Default)]
pub struct ChunkCache {
    slots: Vec<(usize, DataChunk)>,
}

const CACHE_SLOTS: usize = 16;

impl ChunkCache {
    pub fn new() -> Self {
        ChunkCache::default()
    }

    fn get(&self, idx: usize) -> Option<&DataChunk> {
        self.slots.iter().find(|(i, _)| *i == idx).map(|(_, c)| c)
    }

    fn insert(&mut self, idx: usize, chunk: DataChunk) {
        if self.slots.len() >= CACHE_SLOTS {
            self.slots.remove(0);
        }
        self.slots.push((idx, chunk));
    }
}

/// An append-then-read collection of chunks.
pub struct ChunkCollection {
    chunks: Vec<StoredChunk>,
    level: CompressionLevel,
    buffers: Option<(Arc<BufferManager>, MemoryReservation)>,
    rows: usize,
    /// Cache backing the convenience `&mut self` accessors; shared readers
    /// bring their own [`ChunkCache`] instead.
    cache: ChunkCache,
}

impl ChunkCollection {
    /// Unaccounted collection (tests, small intermediates).
    pub fn new(level: CompressionLevel) -> Self {
        ChunkCollection {
            chunks: Vec::new(),
            level,
            buffers: None,
            rows: 0,
            cache: ChunkCache::new(),
        }
    }

    /// Collection whose footprint is reserved against the buffer manager;
    /// appends fail with `OutOfMemory` when the budget is exhausted, which
    /// is the caller's signal to spill or switch strategy.
    pub fn with_accounting(level: CompressionLevel, buffers: Arc<BufferManager>) -> Result<Self> {
        let reservation = buffers.reserve(0)?;
        Ok(ChunkCollection {
            chunks: Vec::new(),
            level,
            buffers: Some((buffers, reservation)),
            rows: 0,
            cache: ChunkCache::new(),
        })
    }

    pub fn compression(&self) -> CompressionLevel {
        self.level
    }

    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    pub fn row_count(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Stored footprint in bytes (after compression).
    pub fn stored_bytes(&self) -> usize {
        self.chunks.iter().map(StoredChunk::bytes).sum()
    }

    /// Append a chunk, compressing it per the collection's level.
    ///
    /// `Light` runs the stats-driven columnar chooser and stores the chunk
    /// with dictionary/RLE/FOR columns — smaller, yet still directly
    /// queryable (no decompression step; kernels operate on the codes).
    /// `Heavy` additionally serializes the encoded chunk and LZSS-packs
    /// the bytes, maximizing the RAM saving at the price of a decode on
    /// every cache miss.
    pub fn append(&mut self, chunk: DataChunk) -> Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        self.rows += chunk.len();
        let stored = match self.level {
            CompressionLevel::None => StoredChunk::Plain(chunk),
            CompressionLevel::Light => StoredChunk::Plain(encode_columns(chunk)?),
            CompressionLevel::Heavy => {
                let rows = chunk.len();
                let encoded = encode_columns(chunk)?;
                let mut w = BinWriter::with_capacity(encoded.size_bytes());
                write_chunk(&mut w, &encoded);
                let bytes = compress(CompressionLevel::Heavy, w.as_bytes());
                StoredChunk::Compressed { bytes, rows }
            }
        };
        if let Some((_, reservation)) = &mut self.buffers {
            reservation.grow(stored.bytes())?;
        }
        self.chunks.push(stored);
        Ok(())
    }

    /// Fetch chunk `idx` through a caller-owned cache without mutating the
    /// collection — the concurrent read path (shared join build sides).
    pub fn chunk_shared(&self, cache: &mut ChunkCache, idx: usize) -> Result<DataChunk> {
        match &self.chunks[idx] {
            StoredChunk::Plain(c) => Ok(c.clone()),
            StoredChunk::Compressed { bytes, .. } => {
                if let Some(c) = cache.get(idx) {
                    return Ok(c.clone());
                }
                let raw = decompress(bytes)?;
                let chunk = read_chunk(&mut BinReader::new(&raw))?;
                cache.insert(idx, chunk.clone());
                Ok(chunk)
            }
        }
    }

    /// Borrow chunk `idx` when it is stored uncompressed — the zero-copy
    /// path probe-side gathers take; compressed chunks return `None` and
    /// go through [`ChunkCollection::chunk_shared`] instead.
    pub fn plain_chunk(&self, idx: usize) -> Option<&DataChunk> {
        match &self.chunks[idx] {
            StoredChunk::Plain(c) => Some(c),
            StoredChunk::Compressed { .. } => None,
        }
    }

    /// Read one row through a caller-owned cache without cloning whole
    /// chunks (probe-side match gathering calls this once per matched row).
    pub fn row_shared(
        &self,
        cache: &mut ChunkCache,
        chunk_idx: usize,
        row: usize,
    ) -> Result<Vec<eider_vector::Value>> {
        match &self.chunks[chunk_idx] {
            StoredChunk::Plain(c) => Ok(c.row_values(row)),
            StoredChunk::Compressed { .. } => {
                if let Some(c) = cache.get(chunk_idx) {
                    return Ok(c.row_values(row));
                }
                let chunk = self.chunk_shared(cache, chunk_idx)?; // populates the cache
                Ok(chunk.row_values(row))
            }
        }
    }

    /// Fetch chunk `idx`, decompressing if needed, through the collection's
    /// own cache (single-reader convenience).
    pub fn chunk(&mut self, idx: usize) -> Result<DataChunk> {
        let mut cache = std::mem::take(&mut self.cache);
        let result = self.chunk_shared(&mut cache, idx);
        self.cache = cache;
        result
    }

    /// Rows in chunk `idx` without decompressing it.
    pub fn chunk_rows(&self, idx: usize) -> usize {
        self.chunks[idx].rows()
    }

    /// Read one row out through the collection's own cache.
    pub fn row(&mut self, chunk_idx: usize, row: usize) -> Result<Vec<eider_vector::Value>> {
        let mut cache = std::mem::take(&mut self.cache);
        let result = self.row_shared(&mut cache, chunk_idx, row);
        self.cache = cache;
        result
    }

    /// Iterate all chunks in order, decompressing lazily.
    pub fn iter_chunks(&mut self) -> ChunkIter<'_> {
        ChunkIter { collection: self, idx: 0 }
    }
}

/// Sequential iterator over a collection.
pub struct ChunkIter<'a> {
    collection: &'a mut ChunkCollection,
    idx: usize,
}

impl ChunkIter<'_> {
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<DataChunk>> {
        if self.idx >= self.collection.chunk_count() {
            return Ok(None);
        }
        let c = self.collection.chunk(self.idx)?;
        self.idx += 1;
        Ok(Some(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eider_storage::buffer::BufferManagerConfig;
    use eider_vector::{LogicalType, Value};

    fn chunk(start: i32, n: usize) -> DataChunk {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Integer(start + i as i32), Value::Varchar("payload".into())])
            .collect();
        DataChunk::from_rows(&[LogicalType::Integer, LogicalType::Varchar], &rows).unwrap()
    }

    #[test]
    fn round_trip_all_levels() {
        for level in [CompressionLevel::None, CompressionLevel::Light, CompressionLevel::Heavy] {
            let mut col = ChunkCollection::new(level);
            col.append(chunk(0, 500)).unwrap();
            col.append(chunk(500, 300)).unwrap();
            assert_eq!(col.row_count(), 800);
            let a = col.chunk(0).unwrap();
            assert_eq!(a.len(), 500);
            assert_eq!(a.row_values(0)[0], Value::Integer(0));
            let b = col.chunk(1).unwrap();
            assert_eq!(b.row_values(299)[0], Value::Integer(799));
        }
    }

    #[test]
    fn compression_reduces_footprint() {
        let mut plain = ChunkCollection::new(CompressionLevel::None);
        let mut heavy = ChunkCollection::new(CompressionLevel::Heavy);
        for i in 0..10 {
            plain.append(chunk(i * 1000, 1000)).unwrap();
            heavy.append(chunk(i * 1000, 1000)).unwrap();
        }
        assert!(
            heavy.stored_bytes() < plain.stored_bytes() / 2,
            "heavy {} vs plain {}",
            heavy.stored_bytes(),
            plain.stored_bytes()
        );
    }

    #[test]
    fn light_level_stores_encoded_yet_directly_queryable() {
        let mut plain = ChunkCollection::new(CompressionLevel::None);
        let mut light = ChunkCollection::new(CompressionLevel::Light);
        for i in 0..5 {
            plain.append(chunk(i * 1000, 1000)).unwrap();
            light.append(chunk(i * 1000, 1000)).unwrap();
        }
        // Light chunks stay in the zero-copy Plain arm (no decompression
        // on access) with the varchar column dictionary-coded.
        let c = light.plain_chunk(0).expect("light chunks must stay directly accessible");
        assert!(c.column(1).is_encoded(), "constant varchar column should dict-encode");
        assert!(
            light.stored_bytes() < plain.stored_bytes() / 2,
            "light {} vs plain {}",
            light.stored_bytes(),
            plain.stored_bytes()
        );
        assert_eq!(light.chunk(0).unwrap().to_rows(), plain.chunk(0).unwrap().to_rows());
    }

    #[test]
    fn accounting_enforces_budget() {
        let buffers = BufferManager::new(BufferManagerConfig { memory_limit: 64 * 1024 });
        let mut col =
            ChunkCollection::with_accounting(CompressionLevel::None, buffers.clone()).unwrap();
        let mut failed = false;
        for i in 0..100 {
            if col.append(chunk(i * 1000, 1000)).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "64KiB budget must reject ~megabytes of chunks");
        assert!(buffers.used_memory() > 0);
        drop(col);
        assert_eq!(buffers.used_memory(), 0, "reservation released on drop");
    }

    #[test]
    fn iterator_walks_in_order() {
        let mut col = ChunkCollection::new(CompressionLevel::Light);
        col.append(chunk(0, 10)).unwrap();
        col.append(chunk(10, 10)).unwrap();
        let mut it = col.iter_chunks();
        let mut seen = Vec::new();
        while let Some(c) = it.next().unwrap() {
            seen.push(c.row_values(0)[0].clone());
        }
        assert_eq!(seen, vec![Value::Integer(0), Value::Integer(10)]);
    }

    #[test]
    fn cache_serves_repeated_access() {
        let mut col = ChunkCollection::new(CompressionLevel::Heavy);
        col.append(chunk(0, 100)).unwrap();
        let a = col.row(0, 5).unwrap();
        let b = col.row(0, 6).unwrap();
        assert_eq!(a[0], Value::Integer(5));
        assert_eq!(b[0], Value::Integer(6));
    }
}
