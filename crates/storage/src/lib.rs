//! Persistent storage substrate for eider (§6 of the paper).
//!
//! "DuckDB uses a single-file storage format ... The storage file is
//! partitioned into fixed-size blocks of 256KB which are read and written
//! in their entirety. The first block contains a header that points to the
//! table catalog and a list of free blocks. ... Checkpoints will first
//! write new blocks that contain the updated data to the file and as a
//! last step update the root pointer and the free list in the header
//! atomically. ... As an exception, the WAL is written to a separate file
//! until consumed by a checkpoint."
//!
//! And from §3: "DuckDB computes and stores check sums of all blocks in
//! persistent storage and verifies this as blocks are read" — every block
//! (including headers, WAL records and spill chunks) carries a CRC-32C.
//!
//! Modules:
//! * [`block`] — block geometry and the checksummed on-disk block codec;
//! * [`file_manager`] — the single-file [`BlockManager`] with its
//!   double-buffered header providing the atomic root-pointer switch;
//! * [`meta`] — meta-block chains: logical byte streams spanning blocks;
//! * [`serde`] — hand-rolled binary encoding of values/vectors/chunks;
//! * [`wal`] — the write-ahead log (separate file, checksummed records);
//! * [`buffer`] — the buffer manager: memory accounting against the
//!   configured limit (§4);
//! * [`spill`] — checksummed chunk spill files for out-of-core operators.

pub mod block;
pub mod buffer;
pub mod file_manager;
pub mod meta;
pub mod serde;
pub mod spill;
pub mod wal;

pub use block::{BlockId, BLOCK_PAYLOAD, BLOCK_SIZE, INVALID_BLOCK};
pub use buffer::{BufferManager, BufferManagerConfig, MemoryReservation};
pub use file_manager::{
    BlockManager, DatabaseHeader, InMemoryBlockManager, SingleFileBlockManager,
};
pub use meta::{MetaBlockReader, MetaBlockWriter};
pub use spill::{SpillFile, SpillReader};
pub use wal::WriteAheadLog;
