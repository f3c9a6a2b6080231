//! Core columnar data representation for the eider embedded analytical DBMS.
//!
//! This crate implements the data model of the paper's "Vector Volcano"
//! execution engine (§6): queries move *chunks* — horizontal slices of a
//! table or intermediate result — between operators. A [`DataChunk`] is a
//! collection of equal-length column slices ([`Vector`]s), each a typed
//! array of at most [`VECTOR_SIZE`] values with a validity bitmask for
//! SQL `NULL`s.
//!
//! It also hosts the crate-spanning error type [`EiderError`] so that every
//! subsystem (storage, transactions, execution, SQL) shares one `Result`.

pub mod chunk;
pub mod date;
pub mod encoding;
pub mod error;
pub mod selection;
pub mod types;
pub mod validity;
pub mod value;
#[allow(clippy::module_inception)]
pub mod vector;

pub use chunk::DataChunk;
pub use encoding::{DictIndex, Encoding, StrDict};
pub use error::{EiderError, Result};
pub use selection::SelectionVector;
pub use types::LogicalType;
pub use validity::ValidityMask;
pub use value::Value;
pub use vector::{value_at, Vector, VectorData};

/// The number of rows processed per vector, i.e. the chunk granularity of
/// the vectorized engine. 2048 matches DuckDB's `STANDARD_VECTOR_SIZE`:
/// large enough to amortize interpretation overhead across a cache-resident
/// batch, small enough that intermediates stay in L2.
pub const VECTOR_SIZE: usize = 2048;
