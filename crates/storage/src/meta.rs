//! Meta-block chains: logical byte streams spanning multiple blocks.
//!
//! The catalog and table data written at a checkpoint rarely fit one block;
//! a meta chain stores an arbitrary byte stream as a linked list of blocks
//! whose payload starts with the next block id ([`INVALID_BLOCK`]
//! terminates the chain). The header's `meta_root` and `free_root` point at
//! such chains (§6: "the first block contains a header that points to the
//! table catalog and a list of free blocks").

use crate::block::{BlockId, BLOCK_PAYLOAD, INVALID_BLOCK};
use crate::file_manager::BlockManager;
use crate::serde::{BinReader, BinWriter};
use eider_vector::Result;

/// Usable data bytes per chain block (payload minus the next pointer and
/// the per-block data length).
const CHAIN_DATA: usize = BLOCK_PAYLOAD - 16;

/// Buffers a byte stream and writes it out as a block chain on `finish`.
pub struct MetaBlockWriter {
    pub writer: BinWriter,
}

impl Default for MetaBlockWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl MetaBlockWriter {
    pub fn new() -> Self {
        MetaBlockWriter { writer: BinWriter::new() }
    }

    /// Write the buffered stream into freshly allocated blocks.
    /// Returns the first block id and the list of all blocks used.
    pub fn finish(self, mgr: &dyn BlockManager) -> Result<(BlockId, Vec<BlockId>)> {
        let data = self.writer.into_bytes();
        let nchunks = data.chunks(CHAIN_DATA).count().max(1);
        let ids: Vec<BlockId> = (0..nchunks).map(|_| mgr.allocate_block()).collect();
        let mut chunks: Vec<&[u8]> = data.chunks(CHAIN_DATA).collect();
        if chunks.is_empty() {
            chunks.push(&[]);
        }
        for (i, chunk) in chunks.iter().enumerate() {
            let next = ids.get(i + 1).copied().unwrap_or(INVALID_BLOCK);
            let mut payload = Vec::with_capacity(8 + 8 + chunk.len());
            payload.extend_from_slice(&next.to_le_bytes());
            payload.extend_from_slice(&(chunk.len() as u64).to_le_bytes());
            payload.extend_from_slice(chunk);
            mgr.write_block(ids[i], &payload)?;
        }
        Ok((ids[0], ids))
    }
}

/// Reads a block chain back into a contiguous byte buffer.
pub struct MetaBlockReader {
    data: Vec<u8>,
    /// The blocks the chain occupied (callers free them after a successful
    /// checkpoint supersedes the chain).
    pub blocks: Vec<BlockId>,
}

impl MetaBlockReader {
    pub fn read_chain(mgr: &dyn BlockManager, root: BlockId) -> Result<Self> {
        let mut data = Vec::new();
        let mut blocks = Vec::new();
        let mut current = root;
        while current != INVALID_BLOCK {
            let payload = mgr.read_block(current)?;
            blocks.push(current);
            let next = u64::from_le_bytes(payload[..8].try_into().expect("8"));
            let len = u64::from_le_bytes(payload[8..16].try_into().expect("8")) as usize;
            if len > CHAIN_DATA {
                return Err(eider_vector::EiderError::Corruption(format!(
                    "meta block {current} declares impossible data length {len}"
                )));
            }
            data.extend_from_slice(&payload[16..16 + len]);
            current = next;
            if blocks.len() > 10_000_000 {
                return Err(eider_vector::EiderError::Corruption(
                    "meta chain does not terminate (cycle?)".into(),
                ));
            }
        }
        Ok(MetaBlockReader { data, blocks })
    }

    pub fn reader(&self) -> BinReader<'_> {
        BinReader::new(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file_manager::InMemoryBlockManager;

    #[test]
    fn small_stream_single_block() {
        let mgr = InMemoryBlockManager::new();
        let mut w = MetaBlockWriter::new();
        w.writer.write_str("catalog goes here");
        let (root, blocks) = w.finish(&mgr).unwrap();
        assert_eq!(blocks.len(), 1);
        let r = MetaBlockReader::read_chain(&mgr, root).unwrap();
        assert_eq!(r.reader().read_str().unwrap(), "catalog goes here");
        assert_eq!(r.blocks, blocks);
    }

    #[test]
    fn large_stream_spans_blocks() {
        let mgr = InMemoryBlockManager::new();
        let mut w = MetaBlockWriter::new();
        let big: Vec<u8> = (0..900_000u32).map(|i| (i % 251) as u8).collect();
        w.writer.write_bytes(&big);
        let (root, blocks) = w.finish(&mgr).unwrap();
        assert!(blocks.len() >= 4, "900KB must span >=4 256KiB blocks");
        let r = MetaBlockReader::read_chain(&mgr, root).unwrap();
        assert_eq!(r.reader().read_bytes().unwrap(), big.as_slice());
    }

    #[test]
    fn empty_stream_round_trips() {
        let mgr = InMemoryBlockManager::new();
        let (root, blocks) = MetaBlockWriter::new().finish(&mgr).unwrap();
        assert_eq!(blocks.len(), 1);
        let r = MetaBlockReader::read_chain(&mgr, root).unwrap();
        assert!(r.reader().is_exhausted());
    }

    #[test]
    fn invalid_root_reads_nothing() {
        let mgr = InMemoryBlockManager::new();
        let r = MetaBlockReader::read_chain(&mgr, INVALID_BLOCK).unwrap();
        assert!(r.blocks.is_empty());
        assert!(r.reader().is_exhausted());
    }

    #[test]
    fn corruption_mid_chain_detected() {
        let mgr = InMemoryBlockManager::new();
        let mut w = MetaBlockWriter::new();
        w.writer.write_bytes(&vec![0x11u8; 600_000]);
        let (root, blocks) = w.finish(&mgr).unwrap();
        mgr.corrupt_block(blocks[1], 4096 * 8 + 3);
        assert!(MetaBlockReader::read_chain(&mgr, root).is_err());
    }
}
