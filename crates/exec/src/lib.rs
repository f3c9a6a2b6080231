//! The vectorized "Vector Volcano" execution engine (§6).
//!
//! "Query execution commences by pulling the first 'chunk' of data from
//! the root node of the physical plan. ... This node will recursively pull
//! chunks from child nodes, eventually arriving at a scan operator which
//! produces chunks by reading from the persistent tables. This continues
//! until the chunk arriving at the root is empty, at which point the query
//! is completed."
//!
//! Every operator implements
//! [`PhysicalOperator::next_chunk`](ops::PhysicalOperator::next_chunk);
//! the client API (eider-client) literally hands the root operator's pull
//! handle to the application (§5's zero-copy transfer).
//!
//! Modules:
//! * [`expression`] — vectorized expression kernels (with typed fast paths,
//!   the "low amount of CPU cycles per value" §2 demands) plus row-wise
//!   evaluation reused by the optimizer's constant folding and the
//!   baseline engine;
//! * [`aggregate`] — aggregate function states (COUNT/SUM/AVG/MIN/MAX/
//!   STDDEV/VAR);
//! * [`collection`] — materialized chunk collections with optional
//!   intermediate compression (Figure 1) and memory accounting;
//! * [`ops`] — the operators: scan, filter, project, hash join, out-of-core
//!   merge join, nested-loop join, cross product, hash/simple aggregate,
//!   external sort, top-n, limit, distinct, insert/update/delete;
//! * [`parallel`] — the morsel-driven parallel executor: a scan is sliced
//!   into row-range morsels dispensed to worker threads, each running the
//!   serial operators above, with explicit merge/finalize steps for
//!   aggregates, sorts and hash-join builds;
//! * [`rowkey`] — normalized row-format key encoding (NULL sentinel,
//!   order-preserving bytes) plus the arena-backed [`rowkey::KeyedTable`]
//!   behind grouped aggregation; [`fxhash`] holds the matching vectorized
//!   hash kernels;
//! * [`row_engine`] — a classical tuple-at-a-time Volcano interpreter, the
//!   baseline the OLAP benchmark compares against (§2/§6: why vectorized).

pub mod aggregate;
pub mod collection;
pub mod expression;
pub mod fxhash;
pub mod ops;
pub mod parallel;
pub mod row_engine;
pub mod rowkey;

pub use expression::Expr;
