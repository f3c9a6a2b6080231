//! The physical planner: lowers bound logical plans onto executable
//! operators, consulting the cooperation policy for strategy choices (§4).
//!
//! [`lower`] is one recursion. At every node it first tries to cover the
//! node's whole subtree with a **pipeline DAG**
//! ([`eider_exec::parallel::graph`]); when the shape is not one the DAG
//! recognizes, the node becomes its serial Vector Volcano operator over
//! recursively lowered inputs. A DAG node is either a morsel-parallel
//! pipeline (`scan → filter*/project*/probe* → sink`) or a
//! serially-evaluated breaker input (a join build or probe side too small
//! or irregular to split); breaker state — the shared immutable
//! [`BuildSide`](eider_exec::ops::BuildSide), spilled sort runs, bounded
//! [`ChunkQueue`] chunk streams — flows between nodes under the graph's
//! readiness scheduler (independent nodes run concurrently). Recognized
//! shapes: plain chains, aggregates (grouped and simple), ORDER BY with
//! disk-spilling runs, ORDER BY + LIMIT as a bounded Top-N, DISTINCT as a
//! grouped aggregate, hash joins with morsel-parallel probe (and build,
//! when the build side is itself a chain), UNION ALL of parallel arms, and
//! agg/sort/Top-N/DISTINCT *above* a UNION ALL as chunk-queue producers +
//! a concurrently-consuming sink pipeline.
//!
//! Two routing rules bound the fan-out:
//!
//! * **At most one DAG per statement.** [`PlanCtx`] records the first
//!   graph built (in pre-order); every node lowered after it, and every
//!   serial input inside it, lowers at one worker. A statement therefore
//!   takes at most one [`WorkerFleet`](eider_exec::parallel::WorkerFleet)
//!   lease, and never holds one while waiting at the admission gate for a
//!   second.
//! * **A plain `LIMIT` keeps its streaming input at one worker.** It stops
//!   pulling early; a morsel fan-out underneath it cannot. What below it is
//!   read in full still fans out: the input of an aggregate, sort or
//!   DISTINCT, and a join's build side (a parallel build under a serial
//!   probe).
//!
//! Worker count is the cooperation policy's
//! [`worker_threads`](eider_coop::policy::ResourcePolicy::worker_threads)
//! — `PRAGMA threads` clamped by host CPU load — sampled once per
//! statement.

use crate::database::Database;
use eider_coop::policy::{choose_join_strategy, JoinStrategy};
use eider_etl::{SourcePartition, TableSource};
use eider_exec::ops::join::JoinType;
use eider_exec::ops::{
    CrossProductOp, DeleteOp, ExternalSortOp, FilterOp, HashAggregateOp, HashJoinOp, InsertOp,
    LimitOp, MergeJoinOp, NestedLoopJoinOp, OperatorBox, PhysicalOperator, ProjectionOp,
    SimpleAggregateOp, SourceScanOp, TableScanOp, UpdateOp, ValuesOp,
};
use eider_exec::parallel::graph::{
    fold_link_types, GraphLink, GraphNode, PipelineGraph, PipelineGraphOp,
};
use eider_exec::parallel::morsel::{slice_morsels, Morsel, MORSEL_ROWS};
use eider_exec::parallel::{ChunkQueue, MorselSource, PipelineSink, PipelineSource, PipelineStep};
use eider_exec::Expr;
use eider_sql::plan::LogicalPlan;
use eider_storage::buffer::BufferManager;
use eider_txn::{DataTable, ScanOptions, Transaction};
use eider_vector::{DataChunk, EiderError, LogicalType, Result, VECTOR_SIZE};
use std::cell::Cell;
use std::sync::Arc;

/// Per-statement planning context: the shared database, the record of
/// the statement's one pipeline DAG, and the issuing session's
/// buffer-manager account (a quota sub-account carved out of
/// the database's root account — see
/// [`BufferManager::sub_account`]). Every budget-sized decision — sort
/// run budgets, streaming-queue bounds, hash-vs-merge join strategy,
/// operator accounting — goes through the session account, whose
/// *effective* limit is its quota capped by the global limit, so one
/// session's plans are sized inside its own slice of memory and its
/// reservations can never starve a sibling's quota.
pub struct PlanCtx<'a> {
    db: &'a Database,
    buffers: Arc<BufferManager>,
    /// The statement's pipeline DAG, once lowering built it: its worker
    /// count and node count.
    graph: Cell<Option<(usize, usize)>>,
}

impl<'a> PlanCtx<'a> {
    pub fn new(db: &'a Database, buffers: Arc<BufferManager>) -> Self {
        PlanCtx { db, buffers, graph: Cell::new(None) }
    }

    /// A context accounting directly against the database's root account
    /// (single-session embedding paths and tests).
    pub fn root(db: &'a Database) -> Self {
        PlanCtx::new(db, db.buffers())
    }

    pub fn db(&self) -> &'a Database {
        self.db
    }

    /// The session's buffer account; charges propagate to the root.
    pub fn buffers(&self) -> Arc<BufferManager> {
        Arc::clone(&self.buffers)
    }

    /// The session-scoped memory budget: the quota capped by the global
    /// limit (and by the §4 host-feedback controller when enabled).
    fn budget(&self) -> usize {
        self.buffers.memory_limit()
    }

    /// `EXPLAIN`'s one-line routing verdict for the statement lowered
    /// under this context: the DAG it built, if any.
    pub fn routing(&self) -> String {
        match self.graph.get() {
            Some((threads, nodes)) => format!("ROUTING parallel threads={threads} nodes={nodes}"),
            None => "ROUTING serial".to_string(),
        }
    }
}

/// Chain two operators: pull left until exhausted, then right (UNION ALL).
struct UnionAllOp {
    left: OperatorBox,
    right: OperatorBox,
    on_right: bool,
}

impl PhysicalOperator for UnionAllOp {
    fn output_types(&self) -> Vec<LogicalType> {
        self.left.output_types()
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        if !self.on_right {
            if let Some(chunk) = self.left.next_chunk()? {
                return Ok(Some(chunk));
            }
            self.on_right = true;
        }
        self.right.next_chunk()
    }
}

/// Cardinality estimate for physical decisions (build-side sizing,
/// serial-vs-parallel routing, worker-share weights). Delegates to the
/// optimizer's statistics-backed model — zone-map min/max, encoding-derived
/// distinct counts, filter selectivities — the same numbers join
/// reordering used, so logical and physical planning agree on sizes.
fn estimate_rows(plan: &LogicalPlan) -> u64 {
    eider_sql::optimizer::cardinality::estimate(plan)
}

/// Estimated bytes of a materialized build side: estimated rows times the
/// schema's physical row width (variable-width columns count a pointer's
/// worth plus a modest payload guess) plus per-row hash-table overhead.
fn estimate_build_bytes(plan: &LogicalPlan) -> usize {
    let width: u64 = plan
        .output_types()
        .iter()
        .map(|t| match t {
            LogicalType::Varchar => 24, // pointer + short-string payload
            t => t.physical_width() as u64,
        })
        .sum();
    // ~16 bytes/row of hash-table entry + bucket overhead on top of data.
    estimate_rows(plan).saturating_mul(width.saturating_add(16)) as usize
}

/// DISTINCT is GROUP BY every input column with no aggregates, serial and
/// parallel alike. The groups are column references over the input's
/// output columns (identical to the chain/queue chunk layout).
fn distinct_groups(input: &LogicalPlan) -> Vec<Expr> {
    let types = input.output_types();
    types.iter().enumerate().map(|(i, &ty)| Expr::column(i, ty)).collect()
}

/// §4: the build side's estimated footprint against currently available
/// memory decides hash vs out-of-core merge join. Left/semi/anti joins
/// are hash-only.
fn join_strategy(ctx: &PlanCtx<'_>, build: &LogicalPlan, join_type: JoinType) -> JoinStrategy {
    if join_type == JoinType::Inner {
        choose_join_strategy(estimate_build_bytes(build), ctx.buffers.available_memory())
    } else {
        JoinStrategy::Hash
    }
}

/// Lower a logical query plan (SELECT-shaped nodes plus INSERT/UPDATE/
/// DELETE) to a physical operator tree — once per statement, with a
/// fresh [`PlanCtx`].
pub fn lower(ctx: &PlanCtx<'_>, txn: &Arc<Transaction>, plan: &LogicalPlan) -> Result<OperatorBox> {
    // §4's loop: sample the real host before deciding the fan-out (no-op
    // unless `PRAGMA host_probe` enabled the /proc sampler).
    ctx.db.refresh_host_load();
    let threads = ctx.db.policy().worker_threads();
    if threads > 1 {
        // Publish the policy's worker total to the shared fleet:
        // concurrently admitted graphs divide *this* number between them
        // each launch round.
        ctx.db.fleet().set_threads(threads);
    }
    lower_node(ctx, txn, plan, threads, false)
}

/// Lower one node with up to `threads` workers: the pipeline DAG when it
/// covers the node's subtree, else the node's serial operator.
/// `stops_early` marks input a plain LIMIT may stop pulling; of it, only
/// what is read in full fans out — the input of an aggregate, sort or
/// DISTINCT, and a join's build side.
fn lower_node(
    ctx: &PlanCtx<'_>,
    txn: &Arc<Transaction>,
    plan: &LogicalPlan,
    threads: usize,
    stops_early: bool,
) -> Result<OperatorBox> {
    let stops_early = stops_early
        && !matches!(
            plan,
            LogicalPlan::Aggregate { .. } | LogicalPlan::Sort { .. } | LogicalPlan::Distinct { .. }
        );
    if threads > 1 && ctx.graph.get().is_none() {
        if let Some(graph) = try_graph(ctx, txn, plan, threads, stops_early)? {
            return Ok(graph);
        }
    }
    let lower = |plan: &LogicalPlan| lower_node(ctx, txn, plan, threads, stops_early);
    // Inputs read in full whatever the consumer above does.
    let drain = |plan: &LogicalPlan| lower_node(ctx, txn, plan, threads, false);
    Ok(match plan {
        LogicalPlan::TableScan { entry, column_ids, filters, emit_row_ids, .. } => {
            let opts = ScanOptions {
                columns: column_ids.clone(),
                filters: filters.clone(),
                emit_row_ids: *emit_row_ids,
            };
            Box::new(TableScanOp::new(Arc::clone(&entry.data), Arc::clone(txn), opts))
        }
        LogicalPlan::ExternalScan { source, column_ids, filters, .. } => {
            Box::new(SourceScanOp::new(Arc::clone(source), column_ids.clone(), filters.clone()))
        }
        LogicalPlan::Filter { input, predicate } => {
            Box::new(FilterOp::new(lower(input)?, predicate.clone()))
        }
        LogicalPlan::Projection { input, exprs, .. } => {
            Box::new(ProjectionOp::new(lower(input)?, exprs.clone()))
        }
        LogicalPlan::Aggregate { input, groups, aggs, .. } => {
            let child = lower(input)?;
            if groups.is_empty() {
                Box::new(SimpleAggregateOp::new(child, aggs.clone()))
            } else {
                Box::new(HashAggregateOp::new(
                    child,
                    groups.clone(),
                    aggs.clone(),
                    Some(ctx.buffers()),
                ))
            }
        }
        LogicalPlan::Sort { input, keys } => {
            let child = lower(input)?;
            let budget = ctx.budget() / 4;
            Box::new(ExternalSortOp::new(child, keys.clone(), budget, Some(ctx.buffers()), false))
        }
        LogicalPlan::Limit { input, limit, offset } => {
            // ORDER BY + LIMIT fuses into Top-N: its candidate buffer
            // charges the session account and spills when refused, so no
            // size estimate gates it.
            if let LogicalPlan::Sort { input: sort_input, keys } = &**input {
                if *limit != usize::MAX {
                    return Ok(Box::new(ExternalSortOp::top_n(
                        drain(sort_input)?,
                        keys.clone(),
                        *limit,
                        *offset,
                        Some(ctx.buffers()),
                    )));
                }
            }
            // A plain LIMIT stops pulling early; a morsel fan-out of the
            // streaming chain below it would scan on regardless.
            Box::new(LimitOp::new(lower_node(ctx, txn, input, threads, true)?, *limit, *offset))
        }
        LogicalPlan::Distinct { input } => Box::new(HashAggregateOp::new(
            lower(input)?,
            distinct_groups(input),
            Vec::new(),
            Some(ctx.buffers()),
        )),
        LogicalPlan::Join { left, right, join_type, left_keys, right_keys } => {
            let (lchild, rchild) = (lower(left)?, drain(right)?);
            match join_strategy(ctx, right, *join_type) {
                JoinStrategy::Hash => Box::new(HashJoinOp::new(
                    lchild,
                    rchild,
                    left_keys.clone(),
                    right_keys.clone(),
                    *join_type,
                    ctx.db.policy().compression(),
                    Some(ctx.buffers()),
                )?),
                JoinStrategy::OutOfCoreMerge => Box::new(MergeJoinOp::new(
                    lchild,
                    rchild,
                    left_keys.clone(),
                    right_keys.clone(),
                    ctx.budget() / 8,
                    Some(ctx.buffers()),
                )),
            }
        }
        LogicalPlan::NestedLoopJoin { left, right, predicate } => {
            Box::new(NestedLoopJoinOp::new(lower(left)?, drain(right)?, predicate.clone()))
        }
        LogicalPlan::CrossJoin { left, right } => {
            Box::new(CrossProductOp::new(lower(left)?, drain(right)?))
        }
        LogicalPlan::Union { left, right } => {
            Box::new(UnionAllOp { left: lower(left)?, right: lower(right)?, on_right: false })
        }
        LogicalPlan::Values { rows, types, .. } => {
            let mut chunk = DataChunk::new(types);
            for row in rows {
                let vals: Vec<eider_vector::Value> = row
                    .iter()
                    .zip(types)
                    .map(|(e, &ty)| e.evaluate_row(&[])?.cast_to(ty))
                    .collect::<Result<_>>()?;
                chunk.append_row(&vals)?;
            }
            Box::new(ValuesOp::new(types.clone(), vec![chunk]))
        }
        LogicalPlan::SingleRow => Box::new(ValuesOp::single_row()),
        LogicalPlan::Insert { entry, input } => {
            Box::new(InsertOp::new(Arc::clone(entry), lower(input)?, Arc::clone(txn)))
        }
        LogicalPlan::Update { entry, input, columns } => Box::new(UpdateOp::new(
            Arc::clone(entry),
            lower(input)?,
            Arc::clone(txn),
            columns.clone(),
        )),
        LogicalPlan::Delete { entry, input } => {
            Box::new(DeleteOp::new(Arc::clone(entry), lower(input)?, Arc::clone(txn)))
        }
        other => {
            return Err(EiderError::Internal(format!(
                "plan node is not executable by the physical planner: {other:?}"
            )))
        }
    })
}

/// A table must span at least this many rows before fan-out pays for the
/// thread dispatch (two minimum-size morsels).
const PARALLEL_MIN_ROWS: usize = 2 * VECTOR_SIZE;

/// Slice a table into morsels, or `None` when it is too small for
/// parallel workers to earn their dispatch cost. Morsel size depends only
/// on the data (aiming for ~16 morsels on moderate tables, capped at
/// [`MORSEL_ROWS`] on large ones), *never* on the thread count: per-morsel
/// partial states merge in morsel order, so a fixed decomposition makes
/// results bit-identical across worker counts even for floating-point
/// aggregates. Pure — sources are constructed only after the whole DAG
/// shape is validated, so a rejected plan leaves no trace on the
/// transaction.
///
/// Zone-map-prunable row groups are dropped up front (the same
/// [`DataTable::group_prunable`] test scan cursors apply per group): a
/// selective filter over a huge table routes by the rows it will actually
/// touch, and workers are never dispatched onto morsels their scan would
/// immediately skip. Pruning is deterministic — it depends only on data
/// and filters — so the decomposition stays thread-count-independent.
fn plan_morsels(table: &DataTable, filters: &[eider_txn::TableFilter]) -> Option<Vec<Morsel>> {
    let sizes = table.group_sizes();
    let prunable: Vec<bool> = (0..sizes.len()).map(|g| table.group_prunable(g, filters)).collect();
    let total: usize = sizes.iter().zip(&prunable).filter(|(_, &p)| !p).map(|(&s, _)| s).sum();
    if total < PARALLEL_MIN_ROWS {
        return None;
    }
    let morsel_rows = (total / 16).clamp(VECTOR_SIZE, MORSEL_ROWS);
    let mut morsels = slice_morsels(&sizes, morsel_rows);
    morsels.retain(|m| !prunable[m.group]);
    Some(morsels)
}

/// What a chain scans: the engine's own versioned tables, or an external
/// [`TableSource`] whose partitions stand in for row-group morsels.
enum ChainBase {
    Table {
        table: Arc<DataTable>,
        opts: ScanOptions,
    },
    External {
        source: Arc<dyn TableSource>,
        /// Full-schema column positions, in emission order.
        projection: Vec<usize>,
        /// Pruning-only filters (full-schema positions).
        filters: Vec<eider_txn::TableFilter>,
    },
}

/// The streaming part of a pipeline-shaped plan: one base scan plus
/// filter/projection/probe links, all safe to replicate per worker.
/// Links are [`GraphLink`]s directly — probe links refer to planned nodes
/// by index, resolved when the graph executes.
struct ChainSpec {
    base: ChainBase,
    links: Vec<GraphLink>,
}

/// External partition target: mirror the table path's ~16-morsel aim.
/// A fixed constant — never the thread count — so the decomposition (and
/// with it the merge order) is identical at any parallelism.
const EXTERNAL_PARTITION_TARGET: usize = 16;

impl ChainSpec {
    fn base_types(&self) -> Vec<LogicalType> {
        match &self.base {
            ChainBase::Table { table, opts } => opts.output_types(table),
            ChainBase::External { source, projection, .. } => {
                let types = source.column_types();
                projection.iter().map(|&i| types[i]).collect()
            }
        }
    }

    fn output_types(&self) -> Vec<LogicalType> {
        fold_link_types(self.base_types(), &self.links)
    }

    /// Slice the base into morsels, or `None` when it is too small to
    /// earn the dispatch cost (see [`plan_morsels`]). External sources
    /// partition to a fixed target with metadata-pruned partitions
    /// dropped up front; a partitioning error also yields `None` — the
    /// serial path will open the same source and surface it.
    fn plan_chain_morsels(&self) -> Option<Vec<Morsel>> {
        match &self.base {
            ChainBase::Table { table, opts } => plan_morsels(table, &opts.filters),
            ChainBase::External { source, filters, .. } => {
                let mut parts = source.partitions(EXTERNAL_PARTITION_TARGET).ok()?;
                parts.retain(|p| !source.prunable(p, filters));
                if parts.len() < 2 {
                    return None;
                }
                Some(
                    parts
                        .into_iter()
                        .map(|p| Morsel {
                            seq: p.seq,
                            group: p.seq,
                            row_begin: p.begin as usize,
                            row_end: p.end as usize,
                        })
                        .collect(),
                )
            }
        }
    }

    /// Construct the dispenser (recording table read predicates on `txn`).
    fn morsel_source(&self, txn: &Transaction, morsels: Vec<Morsel>) -> MorselSource {
        match &self.base {
            ChainBase::Table { table, opts } => {
                MorselSource::from_morsels(Arc::clone(table), txn, opts.clone(), morsels)
            }
            ChainBase::External { source, projection, .. } => {
                let parts = morsels
                    .into_iter()
                    .map(|m| SourcePartition {
                        seq: m.group,
                        begin: m.row_begin as u64,
                        end: m.row_end as u64,
                    })
                    .collect();
                MorselSource::external(Arc::clone(source), projection.clone(), parts)
            }
        }
    }
}

/// A planned DAG node; materialized into a [`GraphNode`] only once the
/// whole shape is validated (serial inputs lower at that point).
enum NodeSpec<'p> {
    Pipeline {
        chain: ChainSpec,
        morsels: Vec<Morsel>,
        sink: PipelineSink,
    },
    SerialBuild {
        plan: &'p LogicalPlan,
        keys: Vec<Expr>,
    },
    SerialProbe {
        plan: &'p LogicalPlan,
        links: Vec<GraphLink>,
    },
    /// One UNION ALL arm streaming its chunks into chunk queue `queue` as
    /// arm `arm` (queues are planner-indexed and constructed at
    /// materialization).
    QueueProducer {
        chain: ChainSpec,
        morsels: Vec<Morsel>,
        queue: usize,
        arm: usize,
    },
    /// The sink above the union, consuming queue `queue` morsel-parallel
    /// and concurrently with its producers.
    QueueConsumer {
        queue: usize,
        sink: PipelineSink,
    },
}

/// A planned chunk-queue edge: the chunk types flowing through it and how
/// many producer arms feed it.
struct QueueSpec {
    types: Vec<LogicalType>,
    producers: usize,
}

/// Phase-1 planner state: recognizes parallel shapes and accumulates node
/// specs without side effects, so any failure can simply discard it and
/// lower the node to its serial operator.
struct SpecBuilder<'a, 'p> {
    ctx: &'a PlanCtx<'a>,
    nodes: Vec<NodeSpec<'p>>,
    queues: Vec<QueueSpec>,
}

/// Flatten a UNION ALL tree into its non-union arms (left-to-right, the
/// serial concatenation order); `None` if `plan` is not a union.
fn union_arms(plan: &LogicalPlan) -> Option<Vec<&LogicalPlan>> {
    fn collect<'p>(plan: &'p LogicalPlan, out: &mut Vec<&'p LogicalPlan>) {
        match plan {
            LogicalPlan::Union { left, right } => {
                collect(left, out);
                collect(right, out);
            }
            other => out.push(other),
        }
    }
    if !matches!(plan, LogicalPlan::Union { .. }) {
        return None;
    }
    let mut arms = Vec::new();
    collect(plan, &mut arms);
    Some(arms)
}

impl<'a, 'p> SpecBuilder<'a, 'p> {
    fn new(ctx: &'a PlanCtx<'a>) -> Self {
        SpecBuilder { ctx, nodes: Vec::new(), queues: Vec::new() }
    }

    fn push(&mut self, node: NodeSpec<'p>) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Decompose `scan → (filter | project | hash-join probe)*` plans;
    /// `None` for anything else (unions, nested aggregates,
    /// row-id-emitting scans for UPDATE/DELETE — those stay serial or are
    /// handled by the caller). Join build sides become DAG nodes: a
    /// morsel-parallel build pipeline when the build side is itself a
    /// chain over a large-enough table, a serially-evaluated build
    /// otherwise (small dimension tables).
    fn chain_of(&mut self, plan: &'p LogicalPlan) -> Option<ChainSpec> {
        match plan {
            LogicalPlan::TableScan { entry, column_ids, filters, emit_row_ids, .. }
                if !emit_row_ids =>
            {
                Some(ChainSpec {
                    base: ChainBase::Table {
                        table: Arc::clone(&entry.data),
                        opts: ScanOptions {
                            columns: column_ids.clone(),
                            filters: filters.clone(),
                            emit_row_ids: false,
                        },
                    },
                    links: Vec::new(),
                })
            }
            LogicalPlan::ExternalScan { source, column_ids, filters, .. } => Some(ChainSpec {
                base: ChainBase::External {
                    source: Arc::clone(source),
                    projection: column_ids.clone(),
                    filters: filters.clone(),
                },
                links: Vec::new(),
            }),
            LogicalPlan::Filter { input, predicate } => {
                let mut chain = self.chain_of(input)?;
                chain.links.push(GraphLink::Step(PipelineStep::Filter(predicate.clone())));
                Some(chain)
            }
            LogicalPlan::Projection { input, exprs, .. } => {
                let mut chain = self.chain_of(input)?;
                chain.links.push(GraphLink::Step(PipelineStep::Project(exprs.clone())));
                Some(chain)
            }
            LogicalPlan::Join { left, right, join_type, left_keys, right_keys } => {
                // A join the cooperation policy demotes to an out-of-core
                // merge join stays serial.
                if join_strategy(self.ctx, right, *join_type) != JoinStrategy::Hash {
                    return None;
                }
                let mut chain = self.chain_of(left)?;
                let build = self.build_node(right, right_keys);
                chain.links.push(GraphLink::Probe {
                    build,
                    left_keys: left_keys.clone(),
                    join_type: *join_type,
                    right_types: right.output_types(),
                });
                Some(chain)
            }
            _ => None,
        }
    }

    /// Plan a join build side as a DAG node (always succeeds — any plan
    /// can at worst build serially).
    fn build_node(&mut self, plan: &'p LogicalPlan, keys: &[Expr]) -> usize {
        let mark = self.nodes.len();
        if let Some(chain) = self.chain_of(plan) {
            if let Some(morsels) = chain.plan_chain_morsels() {
                return self.push(NodeSpec::Pipeline {
                    chain,
                    morsels,
                    sink: PipelineSink::JoinBuild { keys: keys.to_vec() },
                });
            }
        }
        self.nodes.truncate(mark); // discard nodes of a rejected sub-chain
        self.push(NodeSpec::SerialBuild { plan, keys: keys.to_vec() })
    }

    /// A chain plus its morsel slicing, discarding any nodes planned
    /// underneath it when the base table is too small to split.
    fn chain_with_morsels(&mut self, plan: &'p LogicalPlan) -> Option<(ChainSpec, Vec<Morsel>)> {
        let mark = self.nodes.len();
        if let Some(chain) = self.chain_of(plan) {
            if let Some(morsels) = chain.plan_chain_morsels() {
                return Some((chain, morsels));
            }
        }
        self.nodes.truncate(mark);
        None
    }

    /// Recognize `chain → sink` shapes: plain chains (collect), aggregates,
    /// ORDER BY (with run spilling), ORDER BY + LIMIT (Top-N) and DISTINCT
    /// (a grouped aggregate with no aggregate functions).
    fn sink_pipeline(&mut self, plan: &'p LogicalPlan) -> Option<usize> {
        if let Some((chain, morsels)) = self.chain_with_morsels(plan) {
            return Some(self.push(NodeSpec::Pipeline {
                chain,
                morsels,
                sink: PipelineSink::Collect,
            }));
        }
        let (input, sink): (&LogicalPlan, _) = match plan {
            LogicalPlan::Aggregate { input, groups, aggs, .. } => {
                let sink = if groups.is_empty() {
                    PipelineSink::SimpleAggregate(aggs.clone())
                } else {
                    PipelineSink::HashAggregate { groups: groups.clone(), aggs: aggs.clone() }
                };
                (input, sink)
            }
            LogicalPlan::Sort { input, keys } => {
                (input, PipelineSink::Sort { keys: keys.clone(), limit: None })
            }
            LogicalPlan::Limit { input, limit, offset } => {
                let LogicalPlan::Sort { input: sort_input, keys } = &**input else { return None };
                if *limit == usize::MAX {
                    return None;
                }
                // No row-count cap: per-worker Top-N buffers charge their
                // real footprint against the buffer manager and spill
                // under pressure, so arbitrarily large `limit + offset`
                // stays fused on the parallel path.
                (
                    sort_input,
                    PipelineSink::Sort { keys: keys.clone(), limit: Some((*limit, *offset)) },
                )
            }
            LogicalPlan::Distinct { input } => (
                input,
                PipelineSink::HashAggregate { groups: distinct_groups(input), aggs: Vec::new() },
            ),
            _ => return None,
        };
        // A sink directly above a UNION ALL consumes the arms through a
        // chunk queue, morsel-parallel and concurrent with them.
        if let Some(node) = self.queue_consumer(input, &sink) {
            return Some(node);
        }
        let (chain, morsels) = self.chain_with_morsels(input)?;
        Some(self.push(NodeSpec::Pipeline { chain, morsels, sink }))
    }

    /// Plan `sink` as a chunk-queue consumer over the arms of a UNION ALL:
    /// each arm becomes a [`NodeSpec::QueueProducer`] pipeline streaming
    /// into a shared bounded queue, and the sink pops batches from it
    /// concurrently — no serial concatenation wrapper, no full
    /// materialization of the union. Projections/filters *between* the
    /// sink and the union commute with UNION ALL and are pushed into every
    /// arm, where they run morsel-parallel. `None` (state rolled back)
    /// unless `input` reduces to a union whose every arm is a splittable
    /// chain.
    fn queue_consumer(&mut self, input: &'p LogicalPlan, sink: &PipelineSink) -> Option<usize> {
        // Peel the streaming layers above the union, innermost-first in
        // `shared` (the order they execute over each arm's chunks).
        let mut shared: Vec<PipelineStep> = Vec::new();
        let mut cur = input;
        loop {
            match cur {
                LogicalPlan::Projection { input, exprs, .. } => {
                    shared.push(PipelineStep::Project(exprs.clone()));
                    cur = input;
                }
                LogicalPlan::Filter { input, predicate } => {
                    shared.push(PipelineStep::Filter(predicate.clone()));
                    cur = input;
                }
                LogicalPlan::Union { .. } => break,
                _ => return None,
            }
        }
        shared.reverse();
        let arms = union_arms(cur)?;
        let node_mark = self.nodes.len();
        let mut planned: Vec<(ChainSpec, Vec<Morsel>)> = Vec::with_capacity(arms.len());
        for arm in arms {
            match self.chain_with_morsels(arm) {
                Some((mut chain, morsels)) => {
                    chain.links.extend(shared.iter().cloned().map(GraphLink::Step));
                    planned.push((chain, morsels));
                }
                None => {
                    self.nodes.truncate(node_mark);
                    return None;
                }
            }
        }
        let types = planned[0].0.output_types();
        if planned.iter().any(|(chain, _)| chain.output_types() != types) {
            // The binder guarantees union-compatible *logical* rows, but
            // only identical physical chunk layouts can share a queue.
            self.nodes.truncate(node_mark);
            return None;
        }
        let queue = self.queues.len();
        self.queues.push(QueueSpec { types, producers: planned.len() });
        for (arm, (chain, morsels)) in planned.into_iter().enumerate() {
            self.push(NodeSpec::QueueProducer { chain, morsels, queue, arm });
        }
        Some(self.push(NodeSpec::QueueConsumer { queue, sink: sink.clone() }))
    }

    /// Recognize the DAG's output nodes: a sink pipeline, or a UNION ALL
    /// tree of them (each arm becomes its own pipeline; the graph
    /// concatenates their chunks in order).
    fn output_nodes(&mut self, plan: &'p LogicalPlan) -> Option<Vec<usize>> {
        if let Some(node) = self.sink_pipeline(plan) {
            return Some(vec![node]);
        }
        match plan {
            LogicalPlan::Union { left, right } => {
                let mark = self.nodes.len();
                let result = (|| {
                    let mut outputs = self.output_nodes(left)?;
                    outputs.extend(self.output_nodes(right)?);
                    Some(outputs)
                })();
                if result.is_none() {
                    self.nodes.truncate(mark);
                }
                result
            }
            _ => None,
        }
    }

    /// Fallback for joins whose *probe* side cannot fan out (small or
    /// non-chain): keep the expensive build morsel-parallel and probe it
    /// from a serially-pulled chain. Only worth a DAG when the build is a
    /// parallel pipeline — otherwise the serial path is strictly simpler.
    fn serial_probe(&mut self, plan: &'p LogicalPlan) -> Option<usize> {
        let LogicalPlan::Join { left, right, join_type, left_keys, right_keys } = plan else {
            return None;
        };
        if join_strategy(self.ctx, right, *join_type) != JoinStrategy::Hash {
            return None;
        }
        let (chain, morsels) = self.chain_with_morsels(right)?;
        let build = self.push(NodeSpec::Pipeline {
            chain,
            morsels,
            sink: PipelineSink::JoinBuild { keys: right_keys.clone() },
        });
        Some(self.push(NodeSpec::SerialProbe {
            plan: left,
            links: vec![GraphLink::Probe {
                build,
                left_keys: left_keys.clone(),
                join_type: *join_type,
                right_types: right.output_types(),
            }],
        }))
    }
}

/// Materialize a validated spec into an executable graph operator. Only
/// now are morsel sources constructed (recording scan read predicates on
/// the transaction), chunk queues allocated, and serial inputs lowered —
/// at one worker: the graph is the statement's one DAG.
fn materialize(
    ctx: &PlanCtx<'_>,
    txn: &Arc<Transaction>,
    threads: usize,
    spec: SpecBuilder<'_, '_>,
    outputs: Vec<usize>,
) -> Result<OperatorBox> {
    let mut graph = PipelineGraph::new(Arc::clone(txn), threads)
        .with_buffers(Some(ctx.buffers()))
        .with_compression(ctx.db.policy().compression())
        .with_sort_budget(ctx.budget() / 4)
        .with_fleet(Some(ctx.db.fleet()));
    // Bound each streaming edge's backlog to a slice of the memory budget:
    // enough to decouple producer and consumer, small enough that queued
    // chunks (charged per batch) cannot crowd out sink state.
    let queue_bytes = (ctx.budget() / 8).clamp(1 << 16, 4 << 20);
    // A queue carries one batch per producer morsel; declaring the total
    // lets sort consumers cap their run fan-out like table-sourced sorts.
    // Queue consumers are weighted by the rows their producers feed them.
    let morsel_rows =
        |morsels: &[Morsel]| morsels.iter().map(|m| (m.row_end - m.row_begin) as u64).sum::<u64>();
    let mut queue_batches = vec![0usize; spec.queues.len()];
    let mut queue_weights = vec![0u64; spec.queues.len()];
    for node in &spec.nodes {
        if let NodeSpec::QueueProducer { morsels, queue, .. } = node {
            queue_batches[*queue] += morsels.len();
            queue_weights[*queue] += morsel_rows(morsels);
        }
    }
    let queues: Vec<Arc<ChunkQueue>> = spec
        .queues
        .into_iter()
        .zip(queue_batches)
        .map(|(q, batches)| {
            Arc::new(
                ChunkQueue::new(q.types, q.producers, queue_bytes).with_expected_batches(batches),
            )
        })
        .collect();
    let scan_source =
        |chain: &ChainSpec, morsels: Vec<Morsel>| Arc::new(chain.morsel_source(txn, morsels));
    // Node weights are estimated input rows: when independent nodes launch
    // in the same round (e.g. two join builds, or union arms), the graph
    // splits the worker budget proportionally instead of evenly. Serial
    // nodes run single-threaded by construction and weigh the minimum.
    for node in spec.nodes {
        match node {
            NodeSpec::Pipeline { chain, morsels, sink } => {
                let weight = morsel_rows(&morsels);
                let source = scan_source(&chain, morsels);
                graph.add_weighted(
                    GraphNode::Pipeline { source: source.into(), links: chain.links, sink },
                    weight,
                );
            }
            NodeSpec::QueueProducer { chain, morsels, queue, arm } => {
                let weight = morsel_rows(&morsels);
                let source = scan_source(&chain, morsels);
                graph.add_weighted(
                    GraphNode::Pipeline {
                        source: source.into(),
                        links: chain.links,
                        sink: PipelineSink::Queue { queue: Arc::clone(&queues[queue]), arm },
                    },
                    weight,
                );
            }
            NodeSpec::QueueConsumer { queue, sink } => {
                graph.add_weighted(
                    GraphNode::Pipeline {
                        source: PipelineSource::Queue(Arc::clone(&queues[queue])),
                        links: Vec::new(),
                        sink,
                    },
                    queue_weights[queue],
                );
            }
            NodeSpec::SerialBuild { plan, keys } => {
                let input = Some(lower_node(ctx, txn, plan, 1, false)?);
                graph.add(GraphNode::SerialBuild { input, keys });
            }
            NodeSpec::SerialProbe { plan, links } => {
                let input = Some(lower_node(ctx, txn, plan, 1, false)?);
                graph.add(GraphNode::SerialPipeline { input, links });
            }
        }
    }
    graph.set_outputs(outputs);
    Ok(Box::new(PipelineGraphOp::new(graph)))
}

/// Recognize and materialize a pipeline DAG covering `plan`'s whole
/// subtree — sink pipelines and UNION ALL trees first, then the
/// serial-probe fallback for joins with a small probe side — and record it
/// as the statement's DAG. `None` when no DAG shape matches. Under a plain
/// LIMIT (`stops_early`) only the serial-probe shape qualifies: its build
/// is read in full, its probe streams serially.
fn try_graph(
    ctx: &PlanCtx<'_>,
    txn: &Arc<Transaction>,
    plan: &LogicalPlan,
    threads: usize,
    stops_early: bool,
) -> Result<Option<OperatorBox>> {
    let mut spec = SpecBuilder::new(ctx);
    let whole = if stops_early { None } else { spec.output_nodes(plan) };
    let outputs = match whole {
        Some(outputs) => outputs,
        None => {
            spec = SpecBuilder::new(ctx);
            match spec.serial_probe(plan) {
                Some(output) => vec![output],
                None => return Ok(None),
            }
        }
    };
    ctx.graph.set(Some((threads, spec.nodes.len())));
    materialize(ctx, txn, threads, spec, outputs).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eider_sql::{optimizer, Binder};

    /// 3×`PARALLEL_MIN_ROWS` rows in `big`, a handful in `small`.
    fn fixture() -> Arc<Database> {
        let db = Database::in_memory().unwrap();
        let conn = db.connect();
        conn.execute("CREATE TABLE big (id INTEGER, k INTEGER, v DOUBLE)").unwrap();
        conn.execute("CREATE TABLE small (k INTEGER, name VARCHAR)").unwrap();
        let rows: Vec<String> = (0..(3 * PARALLEL_MIN_ROWS) as i32)
            .map(|i| format!("({i}, {}, {}.5)", i % 50, i % 7))
            .collect();
        for batch in rows.chunks(4096) {
            conn.execute(&format!("INSERT INTO big VALUES {}", batch.join(","))).unwrap();
        }
        let small: Vec<String> = (0..50).map(|i| format!("({i}, 'n{i}')")).collect();
        conn.execute(&format!("INSERT INTO small VALUES {}", small.join(","))).unwrap();
        db.policy().set_threads(4);
        db
    }

    fn plan_of(db: &Database, sql: &str) -> LogicalPlan {
        let stmt = eider_sql::parse_statements(sql).unwrap().remove(0);
        let plan = Binder::new(Arc::clone(db.catalog())).bind_statement(&stmt).unwrap();
        optimizer::optimize(plan).unwrap()
    }

    /// Whether the statement's DAG covers the plan's root below the
    /// binder's SELECT-list projection — not merely some subtree.
    fn routes_parallel(db: &Arc<Database>, sql: &str) -> bool {
        let txn = Arc::new(db.txn_manager().begin());
        let plan = plan_of(db, sql);
        let ctx = PlanCtx::root(db);
        let threads = db.policy().worker_threads();
        if threads > 1 {
            try_graph(&ctx, &txn, strip_projection(&plan), threads, false).unwrap();
        }
        ctx.graph.get().is_some()
    }

    /// Un-nest the projection the binder puts above SELECT lists so the
    /// spec-level tests can hand `output_nodes` the sink-shaped subtree.
    fn strip_projection(plan: &LogicalPlan) -> &LogicalPlan {
        match plan {
            LogicalPlan::Projection { input, .. } => strip_projection(input),
            other => other,
        }
    }

    /// Aggregates, DISTINCT and sorts directly above a UNION ALL must plan
    /// as chunk-queue producers + a queue consumer — not as a serial
    /// wrapper over concatenated pipeline outputs.
    #[test]
    fn sink_above_union_routes_through_chunk_queue() {
        let db = fixture();
        let union_sql = "SELECT k FROM big WHERE id < 3000 UNION ALL \
                         SELECT k FROM big WHERE id > 5000";
        for (sql, consumers_expected) in [
            (format!("SELECT count(*) FROM ({union_sql}) u"), 1),
            (format!("SELECT k, count(*), sum(k) FROM ({union_sql}) u GROUP BY k"), 1),
            (format!("SELECT DISTINCT k FROM ({union_sql}) u"), 1),
            (format!("SELECT k FROM ({union_sql}) u ORDER BY k DESC"), 1),
            (format!("SELECT k FROM ({union_sql}) u ORDER BY k DESC LIMIT 5 OFFSET 1"), 1),
        ] {
            let plan = plan_of(&db, &sql);
            let plan = strip_projection(&plan);
            let ctx = PlanCtx::root(&db);
            let mut spec = SpecBuilder::new(&ctx);
            let outputs = spec
                .output_nodes(plan)
                .unwrap_or_else(|| panic!("expected a parallel DAG with a queue for: {sql}"));
            assert_eq!(spec.queues.len(), 1, "{sql}");
            let producers =
                spec.nodes.iter().filter(|n| matches!(n, NodeSpec::QueueProducer { .. })).count();
            let consumers =
                spec.nodes.iter().filter(|n| matches!(n, NodeSpec::QueueConsumer { .. })).count();
            assert_eq!(producers, 2, "{sql}");
            assert_eq!(consumers, consumers_expected, "{sql}");
            assert!(
                matches!(spec.nodes[*outputs.last().unwrap()], NodeSpec::QueueConsumer { .. }),
                "{sql}: the graph output must be the queue consumer"
            );
        }
        // End to end: the same shapes still lower onto the DAG.
        for sql in [
            format!("SELECT count(*) FROM ({union_sql}) u"),
            format!("SELECT DISTINCT k FROM ({union_sql}) u"),
        ] {
            assert!(routes_parallel(&db, &sql), "{sql}");
        }
    }

    /// The acceptance-critical happy paths must route through the DAG —
    /// no serial fallback.
    #[test]
    fn dag_covers_probe_sort_topn_distinct_union() {
        let db = fixture();
        for sql in [
            // Morsel-parallel probe over a serially-built dimension table.
            "SELECT big.id, small.name FROM big JOIN small ON big.k = small.k",
            // Aggregate fused above the probe.
            "SELECT small.name, count(*) FROM big JOIN small ON big.k = small.k \
             GROUP BY small.name",
            // Plain big sort.
            "SELECT id, v FROM big ORDER BY v DESC, id",
            // Top-N and DISTINCT.
            "SELECT id FROM big ORDER BY id DESC LIMIT 5 OFFSET 2",
            "SELECT DISTINCT k FROM big",
            // UNION ALL of two pipelines, bare and under an aggregate.
            "SELECT id FROM big WHERE id < 100 UNION ALL SELECT id FROM big WHERE id > 5000",
            "SELECT count(*) FROM (SELECT id FROM big WHERE id < 100 \
             UNION ALL SELECT id FROM big WHERE id > 5000) u",
        ] {
            assert!(routes_parallel(&db, sql), "expected parallel DAG for: {sql}");
        }
    }

    /// The old planner refused to parallelize sorts whose estimated
    /// footprint exceeded a quarter of the memory limit; the DAG spills
    /// runs instead, so the gate is gone.
    #[test]
    fn big_sorts_no_longer_fall_back_to_serial() {
        let db = fixture();
        db.buffers().set_memory_limit(1 << 20);
        db.policy().set_memory_limit(1 << 20);
        assert!(
            routes_parallel(&db, "SELECT id, v FROM big ORDER BY v DESC, id"),
            "sort beyond the old estimate gate must stay on the parallel DAG"
        );
    }

    /// The parallel Top-N fusion used to cap `limit + offset` at 100k rows
    /// because per-worker buffers were unaccounted; they now charge the
    /// buffer manager and spill under pressure, so big fused Top-Ns stay
    /// on the DAG instead of falling back to the serial operator.
    #[test]
    fn big_topn_stays_on_the_parallel_dag() {
        let db = fixture();
        assert!(
            routes_parallel(&db, "SELECT id FROM big ORDER BY id DESC LIMIT 150000 OFFSET 5000"),
            "limit+offset beyond the old 100k cap must stay parallel"
        );
        assert!(
            routes_parallel(
                &db,
                "SELECT id FROM big ORDER BY id DESC LIMIT 1000000 OFFSET 1000000"
            ),
            "even multi-million-row fused Top-Ns route through the DAG"
        );
    }

    /// A probe side too small to split still probes a parallel build.
    #[test]
    fn small_probe_side_keeps_the_build_parallel() {
        let db = fixture();
        assert!(routes_parallel(
            &db,
            "SELECT count(*) FROM small JOIN big ON small.k = big.k WHERE big.id < 1000",
        ));
    }

    /// Under a plain LIMIT the streaming chain stays at one worker, but
    /// what the statement reads in full still fans out.
    #[test]
    fn plain_limit_fans_out_only_what_it_reads_in_full() {
        let db = fixture();
        let graph_of = |sql: &str| {
            let txn = Arc::new(db.txn_manager().begin());
            let ctx = PlanCtx::root(&db);
            lower(&ctx, &txn, &plan_of(&db, sql)).unwrap();
            ctx.graph.get()
        };
        assert_eq!(graph_of("SELECT id FROM big WHERE k = 3 LIMIT 5"), None);
        assert!(graph_of("SELECT k, count(*) FROM big GROUP BY k LIMIT 5").is_some());
        // A parallel build under a serially pulled probe: two nodes.
        let join = "SELECT a.id, b.v FROM big a JOIN big b ON a.id = b.id LIMIT 5";
        assert!(matches!(graph_of(join), Some((_, 2))), "{join}");
    }

    #[test]
    fn serial_fallbacks_remain_for_unsupported_shapes() {
        let db = fixture();
        // Table too small to split, and one-worker policies.
        assert!(!routes_parallel(&db, "SELECT k FROM small"));
        db.policy().set_threads(1);
        assert!(!routes_parallel(&db, "SELECT id FROM big"));
    }

    /// `read_csv` over a file big enough to split must route through the
    /// parallel DAG — no serial fallback — and the projection must be
    /// pushed down into the external scan itself.
    #[test]
    fn read_csv_routes_morsel_parallel_with_projection_pushdown() {
        use std::io::Write as _;
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut path = std::env::temp_dir();
        path.push(format!("eider_planner_read_csv_{}_{n}.csv", std::process::id()));
        {
            // ~130KB: comfortably above the 2×16KB floor two byte-range
            // partitions need, so the scan is parallel-eligible.
            let mut f = std::fs::File::create(&path).unwrap();
            writeln!(f, "id,name,score").unwrap();
            for i in 0..4000 {
                writeln!(f, "{i},row_{i}_padding_padding_padding,{}.25", i % 97).unwrap();
            }
        }
        let db = fixture();
        let path_sql = path.display().to_string();
        for sql in [
            format!("SELECT count(*) FROM read_csv('{path_sql}')"),
            format!("SELECT id, count(*) FROM read_csv('{path_sql}') GROUP BY id"),
            format!("SELECT id FROM read_csv('{path_sql}') WHERE id < 100"),
        ] {
            assert!(routes_parallel(&db, &sql), "expected parallel DAG for: {sql}");
        }

        // Projection pushdown: only the referenced column survives into
        // the external scan (`name`, the widest column, is never read).
        fn external_scan(plan: &LogicalPlan) -> Option<(&[usize], &[String])> {
            match plan {
                LogicalPlan::ExternalScan { column_ids, names, .. } => Some((column_ids, names)),
                other => other.children().into_iter().find_map(external_scan),
            }
        }
        let plan = plan_of(&db, &format!("SELECT id FROM read_csv('{path_sql}')"));
        let (column_ids, names) =
            external_scan(&plan).expect("plan must contain an ExternalScan leaf");
        assert_eq!(column_ids, &[0], "only `id` may be read from the file");
        assert_eq!(names, &["id".to_string()]);

        // A file too small to split still executes — serially.
        let mut small_path = std::env::temp_dir();
        small_path.push(format!("eider_planner_read_csv_small_{}_{n}.csv", std::process::id()));
        std::fs::write(&small_path, "id,name\n1,a\n2,b\n").unwrap();
        let sql = format!("SELECT count(*) FROM read_csv('{}')", small_path.display());
        assert!(!routes_parallel(&db, &sql), "tiny files keep the serial path");
        let conn = db.connect();
        let result = conn.query(&sql).unwrap();
        assert_eq!(result.scalar().unwrap(), eider_vector::Value::BigInt(2));

        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&small_path).unwrap();
    }
}
