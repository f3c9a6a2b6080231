//! Morsel-driven parallel query execution as a pipeline DAG.
//!
//! The serial Vector Volcano engine pulls chunks through a single thread;
//! this module makes whole query shapes run on every core the cooperation
//! policy will give them, following the morsel-driven design of Leis et
//! al. (SIGMOD 2014) adapted to eider's chunk model:
//!
//! * a [`MorselSource`] slices a table scan into *morsels* — contiguous
//!   row ranges of one row group, vector-aligned — and hands them to
//!   whichever worker asks next (atomic work stealing, no
//!   pre-partitioning, so skew self-balances);
//! * a [`TaskScheduler`](scheduler::TaskScheduler) fans a closure out
//!   over N scoped worker threads sharing the query's snapshot
//!   transaction;
//! * a `ParallelPipeline` describes one pipeline's per-unit operator
//!   chain over a source — table morsels, a chunk queue, or a serial
//!   operator one worker pulls a chunk at a time — with filter,
//!   projection, and hash-join *probe* against a shared
//!   immutable build side, built from the same serial operators
//!   ([`FilterOp`](crate::ops::FilterOp),
//!   [`ProjectionOp`](crate::ops::ProjectionOp),
//!   [`JoinProbeOp`](crate::ops::join::JoinProbeOp)) — plus the
//!   pipeline-breaking sink at the top: collect, simple aggregate, hash
//!   aggregate (which with no aggregate functions is DISTINCT), sort
//!   (disk-spilling, optionally Top-N-bounded), or hash-join build — each
//!   with a worker-local state and an explicit merge/finalize step;
//! * a [`PipelineGraph`] connects pipelines into a **DAG** executed by a
//!   readiness scheduler — every node whose dependencies are satisfied
//!   runs concurrently on its own scoped thread with a share of the
//!   fleet — passing breaker state between them: a join's build pipeline
//!   produces an `Arc<BuildSide>` its probe pipeline shares across
//!   workers, and every other node pushes its output into its one output
//!   edge;
//! * a [`ChunkQueue`] is a bounded streaming edge between pipelines: the
//!   arms of a UNION ALL push per-morsel batches into it while the sink
//!   above the union (aggregate, sort, DISTINCT) consumes them
//!   morsel-parallel *at the same time* — no serial concatenation
//!   wrapper, no full materialization, deterministic via composed
//!   batch sequence numbers. In *ordered* mode the same queue is every
//!   graph's **result edge**: output nodes stream into it (per work unit
//!   for collects, chunk by chunk from sort and aggregate merges) and the
//!   [`PipelineGraphOp`] facade replays batches
//!   in sequence order to the pulling cursor, so a slow consumer
//!   throttles the workers through the queue's byte bound instead of the
//!   engine buffering the result.
//!
//! Worker count is decided per query by
//! [`ResourcePolicy::worker_threads`](eider_coop::policy::ResourcePolicy::worker_threads):
//! the configured thread cap (`PRAGMA threads`) dynamically clamped by the
//! host application's CPU load, preserving the paper's §4 resource-sharing
//! contract under parallel execution.
//!
//! Results are deterministic across worker counts: collected chunks are
//! replayed in morsel sequence order (so plain scans — and joined
//! chunks, which stay in probe-morsel order — match run to run), sorts
//! break ties by scan position (a total comparator, so the k-way merge is
//! independent of how rows landed in worker runs), and grouped aggregates
//! emit groups in key order. A grouped merge splits by key hash into one
//! partition per worker, each combining its groups' partials in morsel
//! order; per-worker partials (instead of per-morsel ones) are used only
//! when every aggregate is exact in any combine order. Memory is
//! accounted against the
//! [`BufferManager`](eider_storage::buffer::BufferManager): aggregate
//! partials, buffered sort runs (released as they spill), queued
//! batches and build sides all charge the §4 budget.

pub mod fleet;
pub mod graph;
pub mod morsel;
pub mod pipeline;
pub mod queue;
pub mod scheduler;

pub use fleet::WorkerFleet;
pub use graph::{GraphLink, GraphNode, PipelineGraph, PipelineGraphOp};
pub use morsel::{Morsel, MorselSource};
pub use pipeline::{PipelineSink, PipelineSource, PipelineStep};
pub use queue::ChunkQueue;
