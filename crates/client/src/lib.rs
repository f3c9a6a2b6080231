//! The client transfer layer (§5: Transfer Efficiency).
//!
//! "Because both DBMS and analytics tool are located in a single process'
//! address space, data transfer can be particularly efficient. ... The API
//! allows the client application to essentially become the root operator
//! in the physical query processing plan. ... the chunk is handed over
//! without requiring copying."
//!
//! Two in-process access paths coexist:
//!
//! * [`result::MaterializedResult`] / chunk streaming — the eider way:
//!   `Arc<DataChunk>` handover, zero copies, bulk access;
//! * [`result::ValueCursor`] — the ODBC/JDBC/SQLite-style value-at-a-time
//!   API ("the function call overhead for each value becomes excessive").
//!
//! [`wire`] carries results across a socket in the engine's columnar
//! layout. The §5 experiment compares both paths against a classic
//! row-major client protocol, which lives with the paper regenerators in
//! `crates/bench` (DESIGN.md substitution E5).
//!
//! [`appender::Appender`] is the reverse direction: "the client application
//! can fill chunks with its data. Once filled, they are handed over ...
//! and appended to persistent storage."

pub mod appender;
pub mod result;
pub mod wire;

pub use appender::Appender;
pub use result::{MaterializedResult, ValueCursor};
