//! Parallel pipelines: per-worker operator chains plus a merging sink.
//!
//! A pipeline executes `source → step* → sink` with every worker running
//! the same chain over the units of work it claims. Steps are streaming
//! operators — filter, projection, and a hash-join *probe* against a
//! shared immutable [`BuildSide`] produced by an earlier pipeline. The
//! sink is the pipeline breaker; each variant defines a worker-local
//! partial state and a merge/finalize step:
//!
//! | sink | worker-local state | merge |
//! |---|---|---|
//! | [`PipelineSink::Collect`] | chunks of the current work unit | none — each unit's chunks go to the output edge as one batch |
//! | [`PipelineSink::SimpleAggregate`] | per-morsel [`AggState`] rows | [`AggState::merge`] in morsel order |
//! | [`PipelineSink::HashAggregate`] | group hash tables: one per worker if every aggregate is exact in any order, else one per morsel | one hash partition per worker, each merging its keys from every table in morsel order and sorting them; a heap merge of the partitions emits groups key-sorted |
//! | [`PipelineSink::Sort`] | a [`SortSink`]: columnar run + byte keys (Top-N: cap-bounded), spilled past the budget, sorted on the worker | `SortMerge`: heap of run heads on key bytes, keys end in the scan position |
//! | [`PipelineSink::JoinBuild`] | hashed build chunks ([`BuildPartial`]) | splice into one [`BuildSide`] in scan order |
//!
//! Sources are [`PipelineSource`]s: a morsel-sliced table scan, a bounded
//! chunk queue fed by upstream pipelines running concurrently (each popped
//! batch is a unit of work carrying a deterministic sequence), or a
//! serially-lowered operator that one worker pulls a chunk at a time.
//!
//! Every pipeline but a join build has one **output edge**: a
//! [`ChunkQueue`] and the arm it feeds. Collect workers push each work
//! unit's chunks there, and aggregate and sort merges push their output
//! chunk by chunk, so nothing is materialized and the queue's byte bound
//! back-pressures the pipeline against a slow consumer. A join build's
//! output is the build side its probes share.
//!
//! Partial aggregate states are kept *per morsel* (not just per worker)
//! and merged in morsel order, so results do not depend on which worker
//! happened to claim which morsel: a query returns bit-identical results
//! at every thread count, including floating-point aggregates. The one
//! exception is a grouped aggregate whose every aggregate is
//! [exact in any order](AggExpr::exact_in_any_order) (COUNT, integer SUM,
//! non-DOUBLE MIN/MAX, DISTINCT): its result cannot depend on the combine
//! order, so each worker keeps one table across all its morsels. The
//! grouped merge splits by key hash into one partition per worker; a
//! group lives in exactly one partition, which combines its states in
//! morsel order, so the partition count changes no value, and the output
//! is in global key order, so it changes no row order either. Sort runs
//! *are* per worker (and spill per worker), but every row carries its scan
//! position and the merge comparator is total, so the merged order is
//! independent of how rows landed in runs.
//!
//! Memory accounting (§4): when a [`BufferManager`] is attached, workers
//! charge their partial state as it grows — aggregate groups, buffered
//! sort rows (released again when a run spills to disk), Top-N candidate
//! buffers (spilled when the ledger refuses a grow) and join-build
//! partials (released as the build side takes their rows over). Batches
//! pushed to the output edge carry their own charge until the consumer
//! is done with them.

use crate::aggregate::AggState;
use crate::ops::agg::{update_simple_states, AggExpr, GroupTable};
use crate::ops::join::{BuildPartial, BuildSide, JoinProbeOp, JoinType};
use crate::ops::sort::{MergeRun, SortKey, SortMerge, SortSink, SortSpec};
use crate::ops::{FilterOp, OperatorBox, ProjectionOp, ValuesOp};
use crate::parallel::morsel::{Morsel, MorselScanOp, MorselSource};
use crate::parallel::queue::{compose_seq, ChunkQueue, QueueBatch};
use crate::parallel::scheduler::TaskScheduler;
use eider_coop::compression::CompressionLevel;
use eider_storage::buffer::{BufferManager, MemoryReservation};
use eider_txn::Transaction;
use eider_vector::{DataChunk, EiderError, LogicalType, Result, Value, VECTOR_SIZE};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Where a pipeline's workers claim their units of work.
#[derive(Debug, Clone)]
pub enum PipelineSource {
    /// A morsel-sliced table scan (the classic pipeline leaf).
    Table(Arc<MorselSource>),
    /// A bounded [`ChunkQueue`] fed by upstream pipelines running
    /// concurrently; each popped batch is one unit of work, tagged with a
    /// deterministic sequence so merges stay order-independent.
    Queue(Arc<ChunkQueue>),
    /// A serially-lowered operator — an input too small or too irregular
    /// to split into morsels — pulled by one worker, one chunk per unit of
    /// work (see [`PipelineSource::serial`]).
    Serial(Arc<SerialSource>),
}

/// The operator behind a [`PipelineSource::Serial`]. Every pull is one
/// unit of work with the next sequence number, so the pipeline above it
/// streams: when its consumer stops pulling, the operator stops too.
pub struct SerialSource {
    types: Vec<LogicalType>,
    /// The operator — dropped once exhausted, releasing its state before
    /// the graph ends — and the next unit's sequence number.
    input: Mutex<(Option<OperatorBox>, usize)>,
    aborted: AtomicBool,
}

impl std::fmt::Debug for SerialSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SerialSource").field("types", &self.types).finish_non_exhaustive()
    }
}

impl SerialSource {
    /// The operator's next non-empty chunk as a one-chunk unit of work.
    fn next_unit(&self) -> Result<Option<QueueBatch>> {
        let mut guard = self.input.lock().expect("serial source poisoned");
        let (input, seq) = &mut *guard;
        while !self.aborted.load(Ordering::Relaxed) {
            let Some(op) = input.as_mut() else { break };
            match op.next_chunk()? {
                Some(chunk) if chunk.is_empty() => {}
                Some(chunk) => {
                    *seq += 1;
                    return Ok(Some(QueueBatch {
                        seq: *seq - 1,
                        chunks: vec![chunk],
                        reservation: None,
                    }));
                }
                None => *input = None,
            }
        }
        Ok(None)
    }
}

/// One claimed unit of work: a table morsel or a batch of chunks.
enum WorkUnit {
    Morsel(Morsel),
    Batch(QueueBatch),
}

impl PipelineSource {
    /// A one-worker source pulling `op` a chunk at a time.
    pub fn serial(op: OperatorBox) -> Self {
        PipelineSource::Serial(Arc::new(SerialSource {
            types: op.output_types(),
            input: Mutex::new((Some(op), 0)),
            aborted: AtomicBool::new(false),
        }))
    }

    /// Column types the source feeds into the chain.
    pub fn base_types(&self) -> Vec<LogicalType> {
        match self {
            PipelineSource::Table(src) => src.output_types(),
            PipelineSource::Queue(queue) => queue.types().to_vec(),
            PipelineSource::Serial(src) => src.types.clone(),
        }
    }

    /// Claim the next unit of work; blocks on a queue source until a
    /// producer pushes or every producer closed.
    fn next_work(&self) -> Result<Option<WorkUnit>> {
        Ok(match self {
            PipelineSource::Table(src) => src.next_morsel().map(WorkUnit::Morsel),
            PipelineSource::Queue(queue) => queue.pop().map(WorkUnit::Batch),
            PipelineSource::Serial(src) => src.next_unit()?.map(WorkUnit::Batch),
        })
    }

    /// Stop dispensing work after a worker failed (and, for queues, fail
    /// the producers still pushing into the edge).
    pub fn abort(&self) {
        match self {
            PipelineSource::Table(src) => src.abort(),
            PipelineSource::Queue(queue) => queue.abort(),
            PipelineSource::Serial(src) => src.aborted.store(true, Ordering::Relaxed),
        }
    }
}

/// One streaming operator of the per-worker chain.
#[derive(Clone)]
pub enum PipelineStep {
    /// WHERE: keep rows where the expression is TRUE.
    Filter(crate::expression::Expr),
    /// SELECT list: compute one expression per output column.
    Project(Vec<crate::expression::Expr>),
    /// Hash-join probe against a build side produced by an earlier
    /// pipeline of the DAG. Every worker probes the same `Arc<BuildSide>`;
    /// joined chunks stay in morsel order, so downstream merges remain
    /// deterministic.
    JoinProbe {
        build: Arc<BuildSide>,
        left_keys: Vec<crate::expression::Expr>,
        join_type: JoinType,
        right_types: Vec<LogicalType>,
    },
}

impl std::fmt::Debug for PipelineStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineStep::Filter(e) => f.debug_tuple("Filter").field(e).finish(),
            PipelineStep::Project(es) => f.debug_tuple("Project").field(es).finish(),
            PipelineStep::JoinProbe { build, left_keys, join_type, .. } => f
                .debug_struct("JoinProbe")
                .field("build_rows", &build.row_count())
                .field("left_keys", left_keys)
                .field("join_type", join_type)
                .finish_non_exhaustive(),
        }
    }
}

impl PipelineStep {
    /// Wrap `child` in this step's serial operator.
    pub fn instantiate(&self, child: OperatorBox) -> OperatorBox {
        match self {
            PipelineStep::Filter(pred) => Box::new(FilterOp::new(child, pred.clone())),
            PipelineStep::Project(exprs) => Box::new(ProjectionOp::new(child, exprs.clone())),
            PipelineStep::JoinProbe { build, left_keys, join_type, right_types } => {
                Box::new(JoinProbeOp::new(
                    child,
                    Arc::clone(build),
                    left_keys.clone(),
                    *join_type,
                    right_types.clone(),
                ))
            }
        }
    }

    /// Column types this step produces over `input`-typed chunks.
    pub fn output_types(&self, input: Vec<LogicalType>) -> Vec<LogicalType> {
        match self {
            PipelineStep::Filter(_) => input,
            PipelineStep::Project(exprs) => {
                exprs.iter().map(crate::expression::Expr::result_type).collect()
            }
            PipelineStep::JoinProbe { join_type, right_types, .. } => {
                let mut t = input;
                if join_type.emits_right_columns() {
                    t.extend(right_types.iter().copied());
                }
                t
            }
        }
    }
}

/// The pipeline breaker at the top of a parallel pipeline.
#[derive(Debug, Clone)]
pub enum PipelineSink {
    /// Push each work unit's chunks to the output edge as one batch,
    /// tagged [`compose_seq`]`(arm, unit)`: a consumer that replays the
    /// batches in sequence order sees the rows in serial scan order.
    Collect,
    /// Ungrouped aggregation; one output row.
    SimpleAggregate(Vec<AggExpr>),
    /// GROUP BY aggregation; groups emitted in key order. With empty
    /// `aggs` this is exactly DISTINCT. Workers fill group tables (one per
    /// worker when every aggregate is exact in any order, else one per
    /// morsel); the merge runs on every worker, one hash partition each,
    /// and inline as one partition when the tables hold few entries.
    HashAggregate { groups: Vec<crate::expression::Expr>, aggs: Vec<AggExpr> },
    /// ORDER BY; ties preserve scan order (stable like the serial sort).
    /// Runs larger than the pipeline's sort budget spill to disk through
    /// the same sort core as the serial sort, so arbitrarily large sorts
    /// parallelize. `limit` (as `(limit, offset)`) makes it a Top-N:
    /// workers keep a cap-bounded candidate buffer *charged to the buffer
    /// manager* (spilling it under §4 pressure, so no fusion size cap is
    /// needed) and the merge stops early.
    Sort { keys: Vec<SortKey>, limit: Option<(usize, usize)> },
    /// Hash-join build side: chunks plus precomputed key hashes, spliced
    /// into the [`BuildSide`] the pipeline returns.
    JoinBuild { keys: Vec<crate::expression::Expr> },
}

/// Worker-local partial results, tagged for deterministic merging.
/// Variant sizes differ wildly but only one exists per worker, so the
/// indirection boxing would add buys nothing.
#[allow(clippy::large_enum_variant)]
enum LocalState {
    /// Chunks of the current work unit, pushed to the output edge as one
    /// batch at unit end (nothing survives to the merge step).
    Unit(Vec<DataChunk>),
    /// Aggregate partials plus the worker's buffer-manager reservation
    /// covering them (held until the merge step has consumed them).
    Agg(Vec<(usize, AggPartial)>, Option<MemoryReservation>),
    /// Sort rows while the worker consumes, sealed into sorted runs (the
    /// worker's share of the O(n log n)) before the merge.
    Sort(SortSink),
    Sorted(Vec<MergeRun>),
    /// Build partials plus the reservation charging them.
    JoinBuild(Vec<(usize, usize, BuildPartial)>, Option<MemoryReservation>),
}

/// Partial aggregate state of one morsel — or, for a grouped aggregate
/// whose every aggregate is [exact in any
/// order](AggExpr::exact_in_any_order), of every morsel one worker
/// claimed. A `GroupTable` is an order of magnitude bigger than a
/// simple-aggregate row, but a query holds at most one partial per
/// morsel — not worth a box per table.
#[allow(clippy::large_enum_variant)]
enum AggPartial {
    Simple(Vec<AggState>),
    /// Byte-keyed group table (see [`crate::rowkey`]); merged on encoded
    /// keys into hash partitions, emitted key-sorted.
    Hash(GroupTable),
}

/// The aggregate partial a worker is filling.
struct OpenPartial {
    /// Sequence of the first work unit folded in (the merge order).
    seq: usize,
    partial: AggPartial,
    /// Bytes already charged to the worker's reservation for it.
    charged: usize,
}

/// Below this many partial entries in total, a grouped aggregate merges
/// as one partition inline on the caller: spawning merge threads would
/// cost more than the merge itself (a dashboard's few-group panel).
const INLINE_MERGE_ENTRIES: usize = 4 * VECTOR_SIZE;

/// Per-execution context shared by all workers of one pipeline run.
struct WorkerCtx {
    /// Workers running the pipeline; a large grouped merge splits into as
    /// many hash partitions.
    threads: usize,
    /// A grouped aggregate keeps one partial per worker instead of one per
    /// morsel: every aggregate is exact in any combine order.
    partial_per_worker: bool,
    /// Bytes of buffered sort rows per worker before a run spills.
    sort_budget: usize,
    /// The compiled ORDER BY of a sort sink.
    sort: Option<Arc<SortSpec>>,
    /// Top-N bound (`limit + offset`): workers keep at most this many rows.
    sort_cap: Option<usize>,
}

/// A parallel pipeline instance, bound to one query's transaction.
pub(crate) struct ParallelPipeline {
    source: PipelineSource,
    txn: Arc<Transaction>,
    steps: Vec<PipelineStep>,
    sink: PipelineSink,
    buffers: Option<Arc<BufferManager>>,
    /// Total sort-run budget (split across workers); rows beyond it spill.
    sort_budget: usize,
    /// Compression level of a join build's materialized rows.
    compression: CompressionLevel,
    /// The output edge: the queue and arm every sink but a join build
    /// pushes its output into.
    out: Option<(Arc<ChunkQueue>, usize)>,
}

/// A sort pipeline caps its fleet so every worker contributes at least
/// this many morsels to its run: more workers mean more (smaller) runs,
/// and past this point the extra merge fan-in costs more than the extra
/// run-sort parallelism buys (each merge step compares every run head).
const MIN_SORT_MORSELS_PER_WORKER: usize = 8;

impl ParallelPipeline {
    pub fn new(
        source: PipelineSource,
        txn: Arc<Transaction>,
        steps: Vec<PipelineStep>,
        sink: PipelineSink,
        out: Option<(Arc<ChunkQueue>, usize)>,
    ) -> Self {
        ParallelPipeline {
            source,
            txn,
            steps,
            sink,
            buffers: None,
            sort_budget: usize::MAX,
            compression: CompressionLevel::None,
            out,
        }
    }

    /// Account sink state against a buffer manager (§4's hard memory
    /// limits apply to parallel pipeline state as they do to the serial
    /// operators): workers charge partial aggregates, buffered sort rows,
    /// queued batches and join-build partials as they grow. Sorts react
    /// to pressure by spilling; everything else aborts with `OutOfMemory`
    /// instead of sailing past the budget.
    pub fn with_buffers(mut self, buffers: Option<Arc<BufferManager>>) -> Self {
        self.buffers = buffers;
        self
    }

    /// Total bytes of sort rows the pipeline may buffer in memory; beyond
    /// it, worker runs spill to disk (the serial external sort's budget
    /// knob, applied per worker).
    pub fn with_sort_budget(mut self, budget: usize) -> Self {
        self.sort_budget = budget.max(1 << 16);
        self
    }

    /// Compression level for a join build's materialized rows (Figure 1's
    /// intermediate compression).
    pub fn with_compression(mut self, compression: CompressionLevel) -> Self {
        self.compression = compression;
        self
    }

    /// Column types the per-worker chain feeds into the sink.
    fn chain_types(&self) -> Vec<LogicalType> {
        let mut types = self.source.base_types();
        for step in &self.steps {
            types = step.output_types(types);
        }
        types
    }

    /// Column types of the pipeline's final output.
    fn output_types(&self) -> Vec<LogicalType> {
        sink_output_types(&self.sink, || self.chain_types())
    }

    /// Worker count for this pipeline: clamped to the morsel count (no
    /// point spawning a worker with nothing to claim), one for a serial
    /// source, and further capped for sort sinks so a fleet never splits a
    /// modest scan into more runs than the merge fan-in can absorb.
    fn plan_threads(&self, threads: usize) -> usize {
        let threads = match &self.source {
            PipelineSource::Table(src) => threads.clamp(1, src.morsel_count().max(1)),
            PipelineSource::Queue(_) => threads.max(1),
            PipelineSource::Serial(_) => 1,
        };
        match (&self.sink, &self.source) {
            (PipelineSink::Sort { .. }, PipelineSource::Table(src)) => {
                threads.min((src.morsel_count() / MIN_SORT_MORSELS_PER_WORKER).max(1))
            }
            (PipelineSink::Sort { .. }, PipelineSource::Queue(queue)) => {
                // Batches play the role of morsels; the planner declares
                // how many the producers will push.
                let cap = queue.expected_batches() / MIN_SORT_MORSELS_PER_WORKER;
                threads.min(cap.max(1))
            }
            _ => threads,
        }
    }

    /// Execute on (at most) `threads` workers — clamped to the source's
    /// morsel count, and for sort sinks capped so each worker contributes
    /// several morsels per run (merge fan-in costs more than tiny runs
    /// save). Returns a join build's build side; every other sink's output
    /// went to the output edge, which closes its arm on success and
    /// aborts on failure (finalizing the per-arm batch count an ordered
    /// consumer relies on, or waking the consumer to wind down).
    pub fn execute(&self, threads: usize) -> Result<Option<Arc<BuildSide>>> {
        let threads = self.plan_threads(threads);
        let ctx = self.worker_ctx(threads);
        let scheduler = TaskScheduler::new(threads);
        let result =
            scheduler.run(|_| self.run_worker(&ctx)).and_then(|locals| self.merge(&ctx, locals));
        if let Some((queue, arm)) = &self.out {
            match &result {
                Ok(_) => queue.close_arm(*arm),
                Err(_) => queue.abort(),
            }
        }
        result
    }

    fn worker_ctx(&self, threads: usize) -> WorkerCtx {
        let partial_per_worker = matches!(&self.sink,
            PipelineSink::HashAggregate { aggs, .. } if aggs.iter().all(AggExpr::exact_in_any_order));
        let PipelineSink::Sort { keys, limit } = &self.sink else {
            return WorkerCtx {
                threads,
                partial_per_worker,
                sort_budget: usize::MAX,
                sort: None,
                sort_cap: None,
            };
        };
        // Explicit budget if one was set; otherwise a quarter of the
        // attached memory limit (the serial sort's convention); otherwise
        // unbounded (never spill).
        let total = if self.sort_budget != usize::MAX {
            self.sort_budget
        } else if let Some(b) = &self.buffers {
            b.memory_limit() / 4
        } else {
            usize::MAX
        };
        let per_worker =
            if total == usize::MAX { usize::MAX } else { (total / threads.max(1)).max(1 << 16) };
        WorkerCtx {
            threads,
            partial_per_worker,
            sort_budget: per_worker,
            sort: Some(Arc::new(SortSpec::new(keys.clone(), self.chain_types()))),
            sort_cap: limit.map(|(l, o)| l.saturating_add(o)),
        }
    }

    /// The output edge every sink but a join build feeds.
    fn edge(&self) -> Result<(&Arc<ChunkQueue>, usize)> {
        match &self.out {
            Some((queue, arm)) => Ok((queue, *arm)),
            None => Err(EiderError::Internal("pipeline has no output edge".into())),
        }
    }

    // ---- worker side ----

    fn run_worker(&self, ctx: &WorkerCtx) -> Result<LocalState> {
        let result = self.run_worker_inner(ctx);
        if result.is_err() {
            self.source.abort();
        }
        result
    }

    fn reserve(&self) -> Result<Option<MemoryReservation>> {
        Ok(match &self.buffers {
            Some(b) => Some(b.reserve(0)?),
            None => None,
        })
    }

    fn run_worker_inner(&self, ctx: &WorkerCtx) -> Result<LocalState> {
        let mut local = match &self.sink {
            PipelineSink::Collect => LocalState::Unit(Vec::new()),
            PipelineSink::SimpleAggregate(_) | PipelineSink::HashAggregate { .. } => {
                LocalState::Agg(Vec::new(), self.reserve()?)
            }
            PipelineSink::Sort { .. } => {
                // Top-N buffers charge their actual footprint as they grow,
                // spilling when the ledger refuses; full sorts reserve their
                // run budget upfront, halving under pressure — each halving
                // doubles how often the worker spills instead of failing.
                let spec = Arc::clone(ctx.sort.as_ref().expect("sort sink"));
                let sink = SortSink::new(spec, ctx.sort_cap);
                LocalState::Sort(if ctx.sort_cap.is_some() {
                    sink.with_charge(self.buffers.as_ref())?
                } else {
                    let budgeted = self.buffers.as_ref().filter(|_| ctx.sort_budget != usize::MAX);
                    sink.with_budget(budgeted, ctx.sort_budget)
                })
            }
            PipelineSink::JoinBuild { .. } => LocalState::JoinBuild(Vec::new(), self.reserve()?),
        };
        // Group cardinality observed on this worker's previous morsel,
        // used to pre-size the next morsel's table.
        let mut group_hint = 0usize;
        let mut open: Option<OpenPartial> = None;
        // Hoisted off the per-batch path (queue batches arrive thousands
        // of times per query).
        let base_types = self.source.base_types();
        while let Some(work) = self.source.next_work()? {
            // The batch's reservation (charging its bytes while queued)
            // lives until this work unit is fully consumed.
            let mut _batch_reservation: Option<MemoryReservation> = None;
            let (seq, mut op): (usize, OperatorBox) = match work {
                WorkUnit::Morsel(morsel) => {
                    let PipelineSource::Table(src) = &self.source else { unreachable!() };
                    (
                        morsel.seq,
                        Box::new(MorselScanOp::new(Arc::clone(src), Arc::clone(&self.txn), morsel)),
                    )
                }
                WorkUnit::Batch(batch) => {
                    let QueueBatch { seq, chunks, reservation } = batch;
                    _batch_reservation = reservation;
                    (seq, Box::new(ValuesOp::new(base_types.clone(), chunks)))
                }
            };
            for step in &self.steps {
                op = step.instantiate(op);
            }
            if open.is_none() {
                let partial = match &self.sink {
                    PipelineSink::SimpleAggregate(aggs) => {
                        Some(AggPartial::Simple(aggs.iter().map(new_state).collect()))
                    }
                    PipelineSink::HashAggregate { groups, aggs } => {
                        Some(AggPartial::Hash(GroupTable::with_capacity(groups, aggs, group_hint)))
                    }
                    _ => None,
                };
                open = partial.map(|partial| OpenPartial { seq, partial, charged: 0 });
            }
            let mut intra = 0usize;
            while let Some(chunk) = op.next_chunk()? {
                if chunk.is_empty() {
                    continue;
                }
                self.consume_chunk(ctx, &mut local, open.as_mut(), seq, intra, chunk)?;
                intra += 1;
            }
            if let LocalState::Unit(pending) = &mut local {
                // Flush this work unit's chunks as one batch, charged to
                // the budget while it waits in the queue. Ordered (result)
                // edges get a batch per work unit even when it produced
                // nothing — the empty batch is the sequence marker that
                // keeps the consumer's replay gap-free.
                let (queue, arm) = self.edge()?;
                if !pending.is_empty() || queue.is_ordered() {
                    let chunks = std::mem::take(pending);
                    queue.push_charged(self.buffers.as_ref(), compose_seq(arm, seq), chunks)?;
                }
            }
            if !ctx.partial_per_worker {
                if let Some(partial) = open.take() {
                    group_hint = park_partial(&mut local, partial)?;
                }
            }
        }
        if let Some(partial) = open.take() {
            park_partial(&mut local, partial)?;
        }
        Ok(match local {
            // The run sort happens here, on the worker: the parallel share
            // of the O(n log n); the merge only interleaves runs.
            LocalState::Sort(sink) => LocalState::Sorted(sink.finish()?),
            local => local,
        })
    }

    fn consume_chunk(
        &self,
        ctx: &WorkerCtx,
        local: &mut LocalState,
        agg: Option<&mut OpenPartial>,
        seq: usize,
        intra: usize,
        chunk: DataChunk,
    ) -> Result<()> {
        match (&self.sink, local) {
            (PipelineSink::Collect, LocalState::Unit(pending)) => {
                // Batched per work unit; pushed at the end of the unit.
                pending.push(chunk);
            }
            (PipelineSink::SimpleAggregate(aggs), LocalState::Agg(..)) => {
                let Some(OpenPartial { partial: AggPartial::Simple(states), .. }) = agg else {
                    unreachable!()
                };
                update_simple_states(aggs, states, &chunk)?;
            }
            (PipelineSink::HashAggregate { groups, aggs }, LocalState::Agg(_, reservation)) => {
                let Some(OpenPartial { partial: AggPartial::Hash(table), charged, .. }) = agg
                else {
                    unreachable!()
                };
                table.update_chunk(groups, aggs, &chunk)?;
                // A per-worker table outlives the morsel: charge its growth
                // as it happens, like the serial operator.
                if let (true, Some(res)) = (ctx.partial_per_worker, reservation) {
                    table.charge_growth(res, charged)?;
                }
            }
            (PipelineSink::Sort { .. }, LocalState::Sort(sink)) => {
                sink.consume(&chunk, seq, intra)?;
            }
            (PipelineSink::JoinBuild { keys }, LocalState::JoinBuild(parts, reservation)) => {
                let partial = BuildPartial::compute(chunk, keys)?;
                if let Some(res) = reservation {
                    res.grow(partial.footprint_bytes())?;
                }
                parts.push((seq, intra, partial));
            }
            _ => unreachable!("local state matches sink"),
        }
        Ok(())
    }

    // ---- merge/finalize side ----

    /// Push one merged result chunk into the output edge as a charged
    /// single-chunk batch with the next contiguous sequence.
    fn push_result(&self, seq: &mut usize, chunk: DataChunk) -> Result<()> {
        let (queue, arm) = self.edge()?;
        queue.push_charged(self.buffers.as_ref(), compose_seq(arm, *seq), vec![chunk])?;
        *seq += 1;
        Ok(())
    }

    fn merge(&self, ctx: &WorkerCtx, locals: Vec<LocalState>) -> Result<Option<Arc<BuildSide>>> {
        let mut seq = 0usize;
        match &self.sink {
            // Every work unit already went to the output edge.
            PipelineSink::Collect => {}
            PipelineSink::SimpleAggregate(aggs) => {
                let (mut parts, _worker_reservations) = collect_agg_partials(locals);
                parts.sort_by_key(|(seq, _)| *seq);
                let mut states: Vec<AggState> = aggs.iter().map(new_state).collect();
                for (_, partial) in parts {
                    let AggPartial::Simple(part) = partial else { unreachable!() };
                    for (s, p) in states.iter_mut().zip(&part) {
                        s.merge(p)?;
                    }
                }
                let row: Vec<Value> =
                    states.iter().map(AggState::finalize).collect::<Result<_>>()?;
                let mut out = DataChunk::new(&self.output_types());
                out.append_row(&row)?;
                self.push_result(&mut seq, out)?;
            }
            PipelineSink::HashAggregate { groups, aggs } => {
                let (mut parts, worker_reservations) = collect_agg_partials(locals);
                parts.sort_by_key(|(seq, _)| *seq);
                let partials: Vec<GroupTable> = parts
                    .into_iter()
                    .map(|(_, partial)| match partial {
                        AggPartial::Hash(table) => table,
                        AggPartial::Simple(_) => unreachable!(),
                    })
                    .collect();
                let entries: usize = partials.iter().map(GroupTable::len).sum();
                let partitions = if entries < INLINE_MERGE_ENTRIES { 1 } else { ctx.threads };
                let largest = partials.iter().map(GroupTable::len).max().unwrap_or(0);
                // One hash partition per merge worker. Each reads every
                // partial in morsel order and keeps only its own keys, so
                // a group's states combine in morsel order whatever the
                // partition count; then it sorts its keys.
                let merged = TaskScheduler::new(partitions).run(|p| {
                    let mut table = GroupTable::with_capacity(groups, aggs, largest / partitions);
                    let mut reservation = self.reserve()?;
                    let mut charged = 0usize;
                    for partial in &partials {
                        table.merge_partition(partial, p, partitions)?;
                        if let Some(res) = &mut reservation {
                            table.charge_growth(res, &mut charged)?;
                        }
                    }
                    let order = table.sorted_order();
                    Ok((table, order, reservation))
                })?;
                // Every partition is merged: the partials, and the worker
                // reservations charging them, can go.
                drop(partials);
                drop(worker_reservations);
                let mut tables = Vec::with_capacity(partitions);
                let mut orders = Vec::with_capacity(partitions);
                let mut merge_reservations = Vec::with_capacity(partitions);
                for (table, order, reservation) in merged {
                    tables.push(table);
                    orders.push(order);
                    merge_reservations.extend(reservation);
                }
                // Serial hash aggregation emits groups in first-seen
                // order, which is scan-dependent anyway; the parallel
                // merge emits in encoded-key (total) order — a heap merge
                // of the sorted partitions — so output is identical for
                // every worker count. Windows stream straight into the
                // output edge: the partition tables are the memory floor,
                // the emitted chunks never pile up beside them, and their
                // reservations hold until the last window left them.
                let order = GroupTable::merge_sorted(&tables, &orders);
                for window in order.chunks(VECTOR_SIZE) {
                    let chunk = GroupTable::emit_partitioned(&tables, window, aggs)?;
                    self.push_result(&mut seq, chunk)?;
                }
                drop(merge_reservations);
            }
            PipelineSink::Sort { limit, .. } => {
                let runs = locals
                    .into_iter()
                    .flat_map(|l| match l {
                        LocalState::Sorted(runs) => runs,
                        _ => unreachable!(),
                    })
                    .collect();
                let (take, skip) = limit.unwrap_or((usize::MAX, 0));
                let spec = Arc::clone(ctx.sort.as_ref().expect("sort sink"));
                let mut merge = SortMerge::new(spec, runs, skip, take);
                // The k-way merge feeds the output edge chunk by chunk: the
                // sorted output is never materialized, and the queue's byte
                // bound throttles the merge when the consumer lags
                // (in-memory runs release their reservations as they
                // drain; spilled runs stay on disk until pulled).
                while let Some(chunk) = merge.next_chunk()? {
                    self.push_result(&mut seq, chunk)?;
                }
            }
            PipelineSink::JoinBuild { .. } => {
                let mut tagged: Vec<(usize, usize, usize, BuildPartial)> = Vec::new();
                let mut reservations = Vec::with_capacity(locals.len());
                for (worker, l) in locals.into_iter().enumerate() {
                    let LocalState::JoinBuild(parts, reservation) = l else { unreachable!() };
                    tagged.extend(parts.into_iter().map(|(seq, intra, p)| (seq, intra, worker, p)));
                    reservations.push(reservation);
                }
                tagged.sort_by_key(|&(seq, intra, ..)| (seq, intra));
                let mut build = BuildSide::new(self.compression, self.buffers.clone())?;
                for (_, _, worker, partial) in tagged {
                    let bytes = partial.footprint_bytes();
                    build.append_partial(partial)?;
                    // The build side charges the spliced rows itself: the
                    // partial's charge goes as it is spliced, so the build
                    // never holds both.
                    if let Some(res) = &mut reservations[worker] {
                        res.shrink(bytes);
                    }
                }
                return Ok(Some(Arc::new(build)));
            }
        }
        Ok(None)
    }
}

/// Output column types a sink produces over a chain with the given types
/// (lazily computed — aggregate sinks do not need them). Shared by
/// `ParallelPipeline::output_types` and the pipeline DAG's node typing.
pub fn sink_output_types(
    sink: &PipelineSink,
    chain_types: impl FnOnce() -> Vec<LogicalType>,
) -> Vec<LogicalType> {
    match sink {
        PipelineSink::Collect | PipelineSink::Sort { .. } | PipelineSink::JoinBuild { .. } => {
            chain_types()
        }
        PipelineSink::SimpleAggregate(aggs) => aggs.iter().map(AggExpr::result_type).collect(),
        PipelineSink::HashAggregate { groups, aggs } => {
            let mut t: Vec<LogicalType> =
                groups.iter().map(crate::expression::Expr::result_type).collect();
            t.extend(aggs.iter().map(AggExpr::result_type));
            t
        }
    }
}

fn new_state(agg: &AggExpr) -> AggState {
    AggState::new(
        agg.kind,
        agg.arg.as_ref().map(crate::expression::Expr::result_type),
        agg.distinct,
    )
}

/// Seal a finished aggregate partial, charge what it holds beyond what is
/// already charged, and park it for the merge. Returns its group count
/// (the next per-morsel table's size hint).
fn park_partial(local: &mut LocalState, mut open: OpenPartial) -> Result<usize> {
    let LocalState::Agg(parts, reservation) = local else { unreachable!() };
    let mut groups = 0;
    if let AggPartial::Hash(table) = &mut open.partial {
        groups = table.len();
        // Parked partials keep only groups + states; the chunk-sized
        // scratch would otherwise accumulate once per morsel.
        table.seal();
    }
    if let Some(res) = reservation {
        // The real partial footprint: key arena + buckets + states for
        // group tables, state rows for ungrouped partials.
        match &open.partial {
            AggPartial::Simple(states) => {
                res.grow(states.iter().map(AggState::size_bytes).sum())?
            }
            AggPartial::Hash(table) => table.charge_growth(res, &mut open.charged)?,
        }
    }
    parts.push((open.seq, open.partial));
    Ok(groups)
}

/// Split aggregate locals into partials plus the worker reservations that
/// keep them accounted; the caller holds the reservations until the merge
/// has consumed every partial.
fn collect_agg_partials(
    locals: Vec<LocalState>,
) -> (Vec<(usize, AggPartial)>, Vec<MemoryReservation>) {
    let mut partials = Vec::new();
    let mut reservations = Vec::new();
    for l in locals {
        match l {
            LocalState::Agg(parts, reservation) => {
                partials.extend(parts);
                reservations.extend(reservation);
            }
            _ => unreachable!(),
        }
    }
    (partials, reservations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggKind;
    use crate::expression::Expr;
    use crate::ops::{drain_rows, HashAggregateOp, SimpleAggregateOp, TableScanOp};
    use crate::parallel::graph::{GraphLink, GraphNode, PipelineGraph, PipelineGraphOp};
    use eider_storage::buffer::{BufferManager, BufferManagerConfig};
    use eider_txn::{CmpOp, DataTable, ScanOptions, TableFilter, TransactionManager};

    const ROWS: i32 = 40_000;

    /// Lexicographic total order over group-key rows: the reference the
    /// byte-keyed merges' output order is checked against.
    fn cmp_value_rows(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
        for (x, y) in a.iter().zip(b) {
            let ord = x.total_cmp(y);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.len().cmp(&b.len())
    }

    /// Two-column table: (i, i % 7), scanned with a `< 30_000` filter
    /// pushed down and a residual pipeline filter on parity.
    fn fixture() -> (Arc<TransactionManager>, Arc<DataTable>) {
        let mgr = TransactionManager::new();
        let table = DataTable::new(vec![LogicalType::Integer, LogicalType::Integer]);
        let setup = mgr.begin();
        let rows: Vec<Vec<Value>> =
            (0..ROWS).map(|i| vec![Value::Integer(i), Value::Integer(i % 7)]).collect();
        table
            .append_chunk(
                &setup,
                &DataChunk::from_rows(&[LogicalType::Integer, LogicalType::Integer], &rows)
                    .unwrap(),
            )
            .unwrap();
        setup.commit().unwrap();
        (mgr, table)
    }

    fn scan_opts() -> ScanOptions {
        ScanOptions {
            columns: vec![0, 1],
            filters: vec![TableFilter::new(0, CmpOp::Lt, Value::Integer(30_000))],
            emit_row_ids: false,
        }
    }

    /// `col0 % 2 = 0` as a residual filter expression.
    fn parity_filter() -> Expr {
        Expr::Compare {
            op: CmpOp::Eq,
            left: Box::new(Expr::Arithmetic {
                op: crate::expression::ArithOp::Mod,
                left: Box::new(Expr::column(0, LogicalType::Integer)),
                right: Box::new(Expr::constant(Value::Integer(2))),
                ty: LogicalType::BigInt,
            }),
            right: Box::new(Expr::constant(Value::BigInt(0))),
        }
    }

    /// A morsel-parallel node: scan → parity filter → `steps` → `sink`.
    fn node_with(
        table: &Arc<DataTable>,
        txn: &Arc<Transaction>,
        steps: Vec<PipelineStep>,
        sink: PipelineSink,
    ) -> GraphNode {
        let source =
            Arc::new(MorselSource::new(Arc::clone(table), txn, scan_opts(), VECTOR_SIZE * 2));
        let mut links = vec![GraphLink::Step(PipelineStep::Filter(parity_filter()))];
        links.extend(steps.into_iter().map(GraphLink::Step));
        GraphNode { source: PipelineSource::Table(source), links, sink, out: None }
    }

    fn node(table: &Arc<DataTable>, txn: &Arc<Transaction>, sink: PipelineSink) -> GraphNode {
        node_with(table, txn, Vec::new(), sink)
    }

    fn serial_chain(table: &Arc<DataTable>, txn: &Arc<Transaction>) -> OperatorBox {
        Box::new(FilterOp::new(
            Box::new(TableScanOp::new(Arc::clone(table), Arc::clone(txn), scan_opts())),
            parity_filter(),
        ))
    }

    /// A graph over `nodes` whose last node is the output.
    fn graph(txn: &Arc<Transaction>, threads: usize, nodes: Vec<GraphNode>) -> PipelineGraph {
        let mut graph = PipelineGraph::new(Arc::clone(txn), threads);
        let last = nodes.into_iter().map(|n| graph.add(n)).last().expect("a node");
        graph.set_outputs(vec![last]);
        graph
    }

    /// The graph's rows, drained through the production entry point.
    fn rows(graph: PipelineGraph) -> Vec<Vec<Value>> {
        drain_rows(&mut PipelineGraphOp::new(graph)).unwrap()
    }

    fn rows_at(txn: &Arc<Transaction>, node: GraphNode, threads: usize) -> Vec<Vec<Value>> {
        rows(graph(txn, threads, vec![node]))
    }

    #[test]
    fn collect_matches_serial_scan_at_every_thread_count() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let serial = drain_rows(serial_chain(&table, &txn).as_mut()).unwrap();
        assert_eq!(serial.len(), 15_000);
        for threads in [1, 2, 3, 8] {
            let n = node(&table, &txn, PipelineSink::Collect);
            assert_eq!(rows_at(&txn, n, threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn simple_aggregate_matches_serial_operator() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let aggs = vec![
            AggExpr { kind: AggKind::CountStar, arg: None, distinct: false },
            AggExpr {
                kind: AggKind::Sum,
                arg: Some(Expr::column(0, LogicalType::Integer)),
                distinct: false,
            },
            AggExpr {
                kind: AggKind::Min,
                arg: Some(Expr::column(1, LogicalType::Integer)),
                distinct: false,
            },
            AggExpr {
                kind: AggKind::Avg,
                arg: Some(Expr::column(0, LogicalType::Integer)),
                distinct: false,
            },
        ];
        let mut serial_op = SimpleAggregateOp::new(serial_chain(&table, &txn), aggs.clone());
        let serial = drain_rows(&mut serial_op).unwrap();
        for threads in [1, 2, 8] {
            let n = node(&table, &txn, PipelineSink::SimpleAggregate(aggs.clone()));
            assert_eq!(rows_at(&txn, n, threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn hash_aggregate_matches_serial_operator_groupwise() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let col = |i| Some(Expr::column(i, LogicalType::Integer));
        let agg = |kind, arg, distinct| AggExpr { kind, arg, distinct };
        // COUNT(DISTINCT) keeps per-morsel partials; the second list is
        // exact in any order, so it keeps one partial per worker.
        let per_morsel = vec![
            agg(AggKind::CountStar, None, false),
            agg(AggKind::Sum, col(0), false),
            agg(AggKind::Count, col(0), true),
        ];
        let per_worker = vec![
            agg(AggKind::CountStar, None, false),
            agg(AggKind::Sum, col(0), false),
            agg(AggKind::Min, col(1), false),
            agg(AggKind::Max, col(0), false),
        ];
        assert!(!per_morsel.iter().all(AggExpr::exact_in_any_order));
        assert!(per_worker.iter().all(AggExpr::exact_in_any_order));
        // Column 1 has 7 groups (an inline merge); column 0 has 15,000,
        // past the inline cutoff, so the merge splits into one hash
        // partition per worker (3 workers: not a power of two).
        const { assert!(15_000 > INLINE_MERGE_ENTRIES) };
        for (key, group_count) in [(1, 7), (0, 15_000)] {
            let groups = vec![Expr::column(key, LogicalType::Integer)];
            for aggs in [&per_morsel, &per_worker] {
                let mut serial_op = HashAggregateOp::new(
                    serial_chain(&table, &txn),
                    groups.clone(),
                    aggs.clone(),
                    None,
                );
                let mut serial = drain_rows(&mut serial_op).unwrap();
                assert_eq!(serial.len(), group_count);
                serial.sort_by(|a, b| cmp_value_rows(a, b));
                for threads in [1, 2, 3, 8] {
                    let n = node(
                        &table,
                        &txn,
                        PipelineSink::HashAggregate { groups: groups.clone(), aggs: aggs.clone() },
                    );
                    // Parallel output is already key-sorted.
                    assert_eq!(rows_at(&txn, n, threads), serial, "key={key} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn hash_aggregate_releases_every_reservation() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let groups = vec![Expr::column(0, LogicalType::Integer)];
        for distinct in [false, true] {
            let aggs = vec![AggExpr {
                kind: AggKind::Count,
                arg: Some(Expr::column(1, LogicalType::Integer)),
                distinct,
            }];
            for threads in [1, 3] {
                let buffers = BufferManager::new(BufferManagerConfig { memory_limit: 64 << 20 });
                let n = node(
                    &table,
                    &txn,
                    PipelineSink::HashAggregate { groups: groups.clone(), aggs: aggs.clone() },
                );
                let g = graph(&txn, threads, vec![n]).with_buffers(Some(Arc::clone(&buffers)));
                assert_eq!(rows(g).len(), 15_000);
                assert!(buffers.peak_memory() > 0, "group tables are charged");
                assert_eq!(buffers.used_memory(), 0, "distinct={distinct} threads={threads}");
            }
        }
    }

    #[test]
    fn distinct_as_empty_aggregate_dedups_key_sorted() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        // DISTINCT over the 7-valued column = HashAggregate with no aggs.
        let groups = vec![Expr::column(1, LogicalType::Integer)];
        for threads in [1, 2, 8] {
            let n = node(
                &table,
                &txn,
                PipelineSink::HashAggregate { groups: groups.clone(), aggs: Vec::new() },
            );
            let expected: Vec<Vec<Value>> = (0..7).map(|i| vec![Value::Integer(i)]).collect();
            assert_eq!(rows_at(&txn, n, threads), expected, "threads={threads}");
        }
    }

    #[test]
    fn sort_matches_serial_sort_including_ties() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        // Sort on the 7-valued column: heavy ties exercise the positional
        // tie-break.
        let keys = vec![SortKey::desc(Expr::column(1, LogicalType::Integer))];
        let mut serial_op = crate::ops::ExternalSortOp::new(
            serial_chain(&table, &txn),
            keys.clone(),
            1 << 30,
            None,
            false,
        );
        let serial = drain_rows(&mut serial_op).unwrap();
        for threads in [1, 2, 8] {
            let n = node(&table, &txn, PipelineSink::Sort { keys: keys.clone(), limit: None });
            assert_eq!(rows_at(&txn, n, threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn spilling_sort_matches_in_memory_sort() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let keys = vec![
            SortKey::desc(Expr::column(1, LogicalType::Integer)),
            SortKey::asc(Expr::column(0, LogicalType::Integer)),
        ];
        let sort = || node(&table, &txn, PipelineSink::Sort { keys: keys.clone(), limit: None });
        let reference = rows_at(&txn, sort(), 4);
        assert_eq!(reference.len(), 15_000);
        for threads in [1, 2, 3, 8] {
            // A budget far below the data size forces every worker to spill
            // multiple runs through the external-sort run format.
            let g = graph(&txn, threads, vec![sort()]).with_sort_budget(1 << 16);
            assert_eq!(rows(g), reference, "threads={threads}");
        }
    }

    #[test]
    fn sort_spills_under_memory_pressure_instead_of_failing() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let keys = vec![SortKey::asc(Expr::column(0, LogicalType::Integer))];
        let sort = || node(&table, &txn, PipelineSink::Sort { keys: keys.clone(), limit: None });
        let reference = rows_at(&txn, sort(), 2);
        // ~15k rows at ~100 B/row of Value representation far exceed a
        // 512 KiB budget: reservations fail mid-scan and workers must react
        // by spilling rather than erroring.
        let buffers = BufferManager::new(BufferManagerConfig { memory_limit: 512 << 10 });
        let g = graph(&txn, 4, vec![sort()]).with_buffers(Some(Arc::clone(&buffers)));
        assert_eq!(rows(g), reference);
        assert_eq!(buffers.used_memory(), 0, "all sort reservations released");
    }

    #[test]
    fn topn_limit_matches_full_sort_prefix() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let keys = vec![
            SortKey::desc(Expr::column(1, LogicalType::Integer)),
            SortKey::asc(Expr::column(0, LogicalType::Integer)),
        ];
        let sort = |limit| node(&table, &txn, PipelineSink::Sort { keys: keys.clone(), limit });
        let full = rows_at(&txn, sort(None), 4);
        for threads in [1, 2, 8] {
            let top = rows_at(&txn, sort(Some((25, 10))), threads);
            assert_eq!(top, full[10..35].to_vec(), "threads={threads}");
        }
    }

    #[test]
    fn join_build_partials_splice_into_a_shared_build_side() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        // Join on the unique column: a 1:1 join keeps the output linear.
        let build_keys = vec![Expr::column(0, LogicalType::Integer)];
        let probe_keys = vec![Expr::column(0, LogicalType::Integer)];

        let serial_join = || -> Vec<Vec<Value>> {
            let mut op = crate::ops::HashJoinOp::new(
                serial_chain(&table, &txn),
                serial_chain(&table, &txn),
                probe_keys.clone(),
                build_keys.clone(),
                crate::ops::JoinType::Inner,
                eider_coop::compression::CompressionLevel::None,
                None,
            )
            .unwrap();
            let mut rows = drain_rows(&mut op).unwrap();
            rows.sort_by(|a, b| cmp_value_rows(a, b));
            rows
        };
        let serial = serial_join();

        for threads in [1, 2, 8] {
            // The morsel-parallel build feeds a probe pulled serially.
            let build = node(&table, &txn, PipelineSink::JoinBuild { keys: build_keys.clone() });
            let probe = GraphNode {
                source: PipelineSource::serial(serial_chain(&table, &txn)),
                links: vec![GraphLink::Probe {
                    build: 0,
                    left_keys: probe_keys.clone(),
                    join_type: JoinType::Inner,
                    right_types: vec![LogicalType::Integer, LogicalType::Integer],
                }],
                sink: PipelineSink::Collect,
                out: None,
            };
            let mut rows = rows(graph(&txn, threads, vec![build, probe]));
            rows.sort_by(|a, b| cmp_value_rows(a, b));
            assert_eq!(rows.len(), serial.len(), "threads={threads}");
            assert_eq!(rows, serial, "threads={threads}");
        }
    }

    #[test]
    fn probe_step_joins_morsel_parallel_with_deterministic_order() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        // Build the 7-valued column's rows below 70 (10 build rows per key).
        let build_opts = ScanOptions {
            columns: vec![0, 1],
            filters: vec![TableFilter::new(0, CmpOp::Lt, Value::Integer(70))],
            emit_row_ids: false,
        };
        let mut build =
            BuildSide::new(eider_coop::compression::CompressionLevel::None, None).unwrap();
        let build_key = vec![Expr::column(1, LogicalType::Integer)];
        let mut scan: OperatorBox =
            Box::new(TableScanOp::new(Arc::clone(&table), Arc::clone(&txn), build_opts));
        while let Some(chunk) = scan.next_chunk().unwrap() {
            build.append_chunk(chunk, &build_key).unwrap();
        }
        let probe_step = PipelineStep::JoinProbe {
            build: Arc::new(build),
            left_keys: vec![Expr::column(1, LogicalType::Integer)],
            join_type: JoinType::Inner,
            right_types: vec![LogicalType::Integer, LogicalType::Integer],
        };
        // Serial reference: the same probe operator over the serial chain.
        let mut serial_op = probe_step.instantiate(serial_chain(&table, &txn));
        let serial = drain_rows(serial_op.as_mut()).unwrap();
        assert_eq!(serial.len(), 15_000 * 10);
        let probe = || node_with(&table, &txn, vec![probe_step.clone()], PipelineSink::Collect);
        assert_eq!(graph(&txn, 1, vec![probe()]).output_types().len(), 4);
        for threads in [1, 2, 3, 8] {
            assert_eq!(rows_at(&txn, probe(), threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn projection_steps_compose() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let project = PipelineStep::Project(vec![Expr::Arithmetic {
            op: crate::expression::ArithOp::Add,
            left: Box::new(Expr::column(0, LogicalType::Integer)),
            right: Box::new(Expr::constant(Value::Integer(1))),
            ty: LogicalType::BigInt,
        }]);
        let g = graph(
            &txn,
            4,
            vec![node_with(&table, &txn, vec![project.clone()], PipelineSink::Collect)],
        );
        assert_eq!(g.output_types(), vec![LogicalType::BigInt]);
        let mut serial_op = project.instantiate(serial_chain(&table, &txn));
        let serial = drain_rows(serial_op.as_mut()).unwrap();
        assert_eq!(rows(g), serial);
    }
}
