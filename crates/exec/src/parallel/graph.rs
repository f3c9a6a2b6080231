//! The pipeline DAG: multi-pipeline scheduling with breaker-state handoff.
//!
//! A single `ParallelPipeline` can only express `scan → step* → sink`.
//! Real query shapes are *graphs* of such pipelines connected by pipeline
//! breakers: a hash join's build pipeline must finish before its probe
//! pipeline starts, a sort's runs must all exist before the merge, and a
//! UNION ALL is two sibling pipelines feeding one result. The
//! [`PipelineGraph`] models exactly that:
//!
//! * **nodes** are pipelines (or serially-evaluated build sides for inputs
//!   too small or too irregular to split into morsels);
//! * **edges** are breaker states passed between them — today an immutable
//!   shared [`BuildSide`] flowing from a build node into the
//!   [`GraphLink::Probe`] links of later pipelines;
//! * **outputs** name the nodes whose chunks concatenate (in order) into
//!   the graph's result; more than one output node models UNION ALL.
//!
//! Execution is driven by a **readiness scheduler**: a node becomes ready
//! the moment every node it depends on (through a [`GraphLink::Probe`]
//! edge) has completed, and *all* ready nodes run concurrently — each on
//! its own scoped thread, fanning its workers out through the
//! [`TaskScheduler`](crate::parallel::scheduler::TaskScheduler) with a
//! proportional share of the fleet. Independent join builds overlap, the
//! arms of a UNION ALL scan side by side, and a
//! [`ChunkQueue`] edge streams batches
//! from producer pipelines into a consumer that runs *at the same time*
//! (queue edges are co-scheduling edges, not blocking dependencies).
//! Every node's merge step is deterministic and queue batches carry
//! deterministic sequence tags, so the whole DAG returns bit-identical
//! rows at any worker count.
//!
//! Failure of any node aborts every queue in the graph (waking blocked
//! producers and consumers), stops launching new nodes, and surfaces the
//! first error received once the in-flight nodes wind down; a panicking
//! node is caught, the graph drains the same way, and the payload is
//! re-raised on the calling thread.
//!
//! The fleet split is per launch round (`threads / nodes-in-flight`,
//! floored at one worker): co-scheduled stages mean one OS thread per
//! concurrent node even when the policy grants few workers, and a node
//! launched into a later round does not shrink the fleets of nodes
//! already running — a deliberate, transient oversubscription. The
//! converse also holds: shares never *grow* back when siblings finish,
//! so a queue consumer that outlives its producers drains the tail on
//! the share it launched with (dynamic rebalancing would need workers
//! that can join a running pipeline — see ROADMAP). Bounded queue
//! backpressure keeps the *runnable* thread count near the consumer's
//! share, and a policy of one worker total never reaches this scheduler
//! at all (the planner builds no graph below two workers, and at most one
//! graph per statement, so a statement holds at most one fleet lease).
//!
//! The [`PipelineGraphOp`] facade lets the physical planner splice a DAG
//! into an otherwise serial plan — and is where results *leave* the
//! graph: instead of materializing, the graph is rerouted through an
//! ordered result [`ChunkQueue`] ([`PipelineGraph::stream_into`]) and
//! executed on a background thread while the facade replays batches in
//! composed-sequence order, one chunk per pull (see the type docs for the
//! protocol). A [`GraphStats`] attachment records the scheduler's launch
//! rounds and peak node concurrency for tests and inspection.

use crate::expression::Expr;
use crate::ops::join::{BuildSide, JoinType};
use crate::ops::{OperatorBox, PhysicalOperator};
use crate::parallel::fleet::{FleetLease, WorkerFleet};
use crate::parallel::morsel::MorselSource;
use crate::parallel::pipeline::{
    sink_output_types, ParallelPipeline, PipelineOutput, PipelineSink, PipelineSource, PipelineStep,
};
use crate::parallel::queue::{compose_seq, ChunkQueue, OrderedPop, QueueBatch, QUEUE_ABORT_MSG};
use eider_coop::compression::CompressionLevel;
use eider_storage::buffer::{BufferManager, MemoryReservation};
use eider_txn::Transaction;
use eider_vector::{DataChunk, EiderError, LogicalType, Result};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Index of a node inside its [`PipelineGraph`].
pub type NodeId = usize;

/// One streaming link of a pipeline node's chain.
pub enum GraphLink {
    /// A plain per-worker step (filter / projection).
    Step(PipelineStep),
    /// Morsel-parallel hash-join probe against the [`BuildSide`] produced
    /// by node `build` (which must precede this node). Resolved into a
    /// [`PipelineStep::JoinProbe`] once the build node has run.
    Probe {
        build: NodeId,
        left_keys: Vec<Expr>,
        join_type: JoinType,
        right_types: Vec<LogicalType>,
    },
}

/// One node of the DAG.
pub enum GraphNode {
    /// A morsel-parallel pipeline over a [`PipelineSource`] — a table
    /// scan, or a chunk queue fed by concurrently-running producer nodes.
    Pipeline { source: PipelineSource, links: Vec<GraphLink>, sink: PipelineSink },
    /// A join build side evaluated serially (the input is not
    /// pipeline-shaped, or too small for fan-out to pay off). The *probe*
    /// side still runs morsel-parallel — this is what keeps small
    /// dimension-table joins on the parallel path.
    SerialBuild { input: Option<OperatorBox>, keys: Vec<Expr> },
    /// The mirror case: a *probe* side too small or irregular to split,
    /// pulled serially through the resolved probe links and drained into
    /// chunks. The expensive build pipeline stays morsel-parallel.
    SerialPipeline { input: Option<OperatorBox>, links: Vec<GraphLink> },
}

/// A secondary error a pipeline reports when the chunk queue it talks to
/// was aborted because some *other* node failed first — never the root
/// cause the user should see.
fn is_queue_abort(e: &EiderError) -> bool {
    matches!(e, EiderError::Internal(msg) if msg.contains(QUEUE_ABORT_MSG))
}

/// Column types a chain of links produces over `base`-typed chunks —
/// shared by node typing here and by the planner's chain specs.
pub fn fold_link_types(base: Vec<LogicalType>, links: &[GraphLink]) -> Vec<LogicalType> {
    let mut types = base;
    for link in links {
        types = match link {
            GraphLink::Step(step) => step.output_types(types),
            GraphLink::Probe { join_type, right_types, .. } => {
                if join_type.emits_right_columns() {
                    types.extend(right_types.iter().copied());
                }
                types
            }
        };
    }
    types
}

/// Breaker state parked between nodes during execution.
enum NodeOutput {
    /// Consumed (or never produced chunks/build state).
    Taken,
    Chunks {
        chunks: Vec<DataChunk>,
        reservations: Vec<MemoryReservation>,
    },
    Build(Arc<BuildSide>),
}

/// Scheduler instrumentation: which nodes launched together, and how many
/// ran concurrently at peak. Attach with [`PipelineGraph::with_stats`];
/// tests use it to prove independent nodes actually overlapped and that
/// queue edges streamed.
#[derive(Debug, Default)]
pub struct GraphStats {
    inner: Mutex<StatsInner>,
}

#[derive(Debug, Default)]
struct StatsInner {
    rounds: Vec<Vec<NodeId>>,
    running: usize,
    max_concurrent: usize,
    shares: Vec<(NodeId, usize)>,
}

impl GraphStats {
    pub fn new() -> Arc<Self> {
        Arc::new(GraphStats::default())
    }

    /// Node ids launched per scheduling round (a round launches every node
    /// whose dependencies were satisfied at that instant).
    pub fn launch_rounds(&self) -> Vec<Vec<NodeId>> {
        self.inner.lock().expect("stats poisoned").rounds.clone()
    }

    /// Peak number of nodes in flight at once.
    pub fn max_concurrent(&self) -> usize {
        self.inner.lock().expect("stats poisoned").max_concurrent
    }

    /// Worker share granted to each node at launch, in launch order.
    /// Proves the weighted split: a heavy scan node should receive more
    /// workers than the single-row build launched alongside it.
    pub fn node_shares(&self) -> Vec<(NodeId, usize)> {
        self.inner.lock().expect("stats poisoned").shares.clone()
    }

    fn record_share(&self, id: NodeId, share: usize) {
        self.inner.lock().expect("stats poisoned").shares.push((id, share));
    }

    fn record_launch(&self, round: &[NodeId]) {
        let mut inner = self.inner.lock().expect("stats poisoned");
        inner.rounds.push(round.to_vec());
        inner.running += round.len();
        inner.max_concurrent = inner.max_concurrent.max(inner.running);
    }

    fn record_finish(&self) {
        let mut inner = self.inner.lock().expect("stats poisoned");
        inner.running = inner.running.saturating_sub(1);
    }
}

/// A node with its probe links resolved, ready to run on its own thread.
/// `out` is the result-edge attachment for streamed output nodes: the
/// ordered queue and the arm this node feeds (see
/// [`PipelineGraph::stream_into`]).
enum ReadyNode {
    SerialBuild {
        input: OperatorBox,
        keys: Vec<Expr>,
    },
    SerialPipeline {
        input: OperatorBox,
        steps: Vec<PipelineStep>,
        out: Option<(Arc<ChunkQueue>, usize)>,
    },
    Pipeline {
        source: PipelineSource,
        steps: Vec<PipelineStep>,
        sink: PipelineSink,
        out: Option<(Arc<ChunkQueue>, usize)>,
    },
}

/// The per-node slice of graph state a node thread owns (the graph itself
/// holds trait objects that are `Send` but not `Sync`, so threads get a
/// cheap clone of what they need instead of a `&PipelineGraph`).
#[derive(Clone)]
struct NodeCtx {
    txn: Arc<Transaction>,
    buffers: Option<Arc<BufferManager>>,
    compression: CompressionLevel,
    sort_budget: usize,
}

impl NodeCtx {
    /// Run one resolved node to completion on `share` workers (called on
    /// the node's own scheduler thread).
    fn run_node(&self, node: ReadyNode, share: usize) -> Result<NodeOutput> {
        match node {
            ReadyNode::SerialBuild { mut input, keys } => {
                let mut build = BuildSide::new(self.compression, self.buffers.clone())?;
                while let Some(chunk) = input.next_chunk()? {
                    if !chunk.is_empty() {
                        build.append_chunk(chunk, &keys)?;
                    }
                }
                Ok(NodeOutput::Build(Arc::new(build)))
            }
            ReadyNode::SerialPipeline { input, steps, out } => {
                let mut op = steps.into_iter().fold(input, |child, step| step.instantiate(child));
                let Some((queue, arm)) = out else {
                    let mut chunks = Vec::new();
                    while let Some(chunk) = op.next_chunk()? {
                        if !chunk.is_empty() {
                            chunks.push(chunk);
                        }
                    }
                    return Ok(NodeOutput::Chunks { chunks, reservations: Vec::new() });
                };
                // Streamed output node: chunks go into the result edge as
                // they are pulled, each a charged single-chunk batch; the
                // same close/abort protocol as a parallel producer.
                let streamed = (|| -> Result<()> {
                    let mut seq = 0usize;
                    while let Some(chunk) = op.next_chunk()? {
                        if chunk.is_empty() {
                            continue;
                        }
                        queue.push_charged(
                            self.buffers.as_ref(),
                            compose_seq(arm, seq),
                            vec![chunk],
                        )?;
                        seq += 1;
                    }
                    Ok(())
                })();
                match &streamed {
                    Ok(()) => queue.close_arm(arm),
                    Err(_) => queue.abort(),
                }
                streamed
                    .map(|()| NodeOutput::Chunks { chunks: Vec::new(), reservations: Vec::new() })
            }
            ReadyNode::Pipeline { source, steps, sink, out } => {
                let mut pipeline =
                    ParallelPipeline::new(source, Arc::clone(&self.txn), steps, sink)
                        .with_buffers(self.buffers.clone())
                        .with_sort_budget(self.sort_budget);
                if let Some((queue, arm)) = out {
                    pipeline = pipeline.with_output_queue(queue, arm);
                }
                match pipeline.execute(share)? {
                    PipelineOutput::Chunks { chunks, reservations } => {
                        Ok(NodeOutput::Chunks { chunks, reservations })
                    }
                    PipelineOutput::JoinBuild { partials, reservations } => {
                        let build = BuildSide::from_partials(
                            partials,
                            self.compression,
                            self.buffers.clone(),
                        )?;
                        // The workers' partial reservations release only
                        // now, after the splice re-accounted the same rows
                        // inside the build side.
                        drop(reservations);
                        Ok(NodeOutput::Build(Arc::new(build)))
                    }
                }
            }
        }
    }
}

/// An executable DAG of parallel pipelines, bound to one query's
/// transaction. Build with [`PipelineGraph::new`] + [`PipelineGraph::add`],
/// then declare the output node(s) with [`PipelineGraph::set_outputs`].
pub struct PipelineGraph {
    nodes: Vec<GraphNode>,
    /// Relative work estimate per node (same index as `nodes`), used to
    /// split each launch round's worker budget proportionally. Nodes added
    /// via [`PipelineGraph::add`] weigh 1; the planner supplies estimated
    /// input rows through [`PipelineGraph::add_weighted`].
    weights: Vec<u64>,
    outputs: Vec<NodeId>,
    txn: Arc<Transaction>,
    threads: usize,
    buffers: Option<Arc<BufferManager>>,
    compression: CompressionLevel,
    sort_budget: usize,
    /// Shared worker fleet: when present, each launch round's share comes
    /// from the fleet's fair split across admitted graphs instead of this
    /// graph's private `threads` budget.
    fleet: Option<Arc<WorkerFleet>>,
    /// Admission slot held while the graph executes (released when
    /// execution finishes — including via abort — by dropping the graph).
    lease: Option<FleetLease>,
    stats: Option<Arc<GraphStats>>,
    /// Result-edge streaming (see [`PipelineGraph::stream_into`]): the
    /// ordered queue the graph's outputs feed instead of materializing.
    stream_queue: Option<Arc<ChunkQueue>>,
    /// Output nodes whose merge/serial drain streams into the result edge
    /// (Collect outputs are rewritten to worker-level `Queue` sinks and
    /// are not listed here).
    stream_arms: Vec<(NodeId, usize)>,
}

impl PipelineGraph {
    pub fn new(txn: Arc<Transaction>, threads: usize) -> Self {
        PipelineGraph {
            nodes: Vec::new(),
            weights: Vec::new(),
            outputs: Vec::new(),
            txn,
            threads: threads.max(1),
            buffers: None,
            compression: CompressionLevel::None,
            sort_budget: usize::MAX,
            fleet: None,
            lease: None,
            stats: None,
            stream_queue: None,
            stream_arms: Vec::new(),
        }
    }

    /// Partition workers through a shared [`WorkerFleet`] instead of this
    /// graph's private thread budget. [`PipelineGraphOp`] acquires the
    /// admission lease; a graph executed directly (tests) reserves its
    /// own slot during [`execute`].
    ///
    /// [`execute`]: PipelineGraph::execute
    pub fn with_fleet(mut self, fleet: Option<Arc<WorkerFleet>>) -> Self {
        self.fleet = fleet;
        self
    }

    /// The shared fleet this graph draws workers from, if any.
    pub fn fleet(&self) -> Option<&Arc<WorkerFleet>> {
        self.fleet.as_ref()
    }

    /// Acquire the fleet admission slot (blocking at the gate if the
    /// database is at its admission limit). Idempotent; a no-op without a
    /// fleet. [`PipelineGraphOp`] calls this on the *session's* thread
    /// before spawning the background scheduler, so a query waiting for
    /// admission costs no engine threads and holds no queue a running
    /// graph could block on.
    pub fn admit(&mut self) {
        if self.lease.is_none() {
            if let Some(fleet) = &self.fleet {
                self.lease = Some(fleet.admit());
            }
        }
    }

    /// Record scheduling decisions (launch rounds, peak concurrency) into
    /// `stats` during execution.
    pub fn with_stats(mut self, stats: Arc<GraphStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Account pipeline state (collected chunks, sort runs, aggregate
    /// partials, build sides) against a buffer manager.
    pub fn with_buffers(mut self, buffers: Option<Arc<BufferManager>>) -> Self {
        self.buffers = buffers;
        self
    }

    /// Compression level for materialized build sides (Figure 1's
    /// intermediate compression).
    pub fn with_compression(mut self, compression: CompressionLevel) -> Self {
        self.compression = compression;
        self
    }

    /// Total in-memory budget for sort runs; larger sorts spill to disk.
    pub fn with_sort_budget(mut self, budget: usize) -> Self {
        self.sort_budget = budget;
        self
    }

    /// Append a node; returns its id. Nodes referenced by
    /// [`GraphLink::Probe`] must be appended before their probers —
    /// execution walks in append order.
    pub fn add(&mut self, node: GraphNode) -> NodeId {
        self.add_weighted(node, 1)
    }

    /// Append a node with a relative work estimate (e.g. estimated input
    /// rows). When several nodes launch in the same scheduling round, the
    /// round's worker budget is split proportionally to these weights
    /// instead of evenly, so a small dimension-table build does not pin
    /// workers a concurrent fact-table scan could use.
    pub fn add_weighted(&mut self, node: GraphNode, weight: u64) -> NodeId {
        self.nodes.push(node);
        self.weights.push(weight.max(1));
        self.nodes.len() - 1
    }

    /// Declare which nodes' chunks form the graph's result, concatenated
    /// in order (several nodes = UNION ALL).
    pub fn set_outputs(&mut self, outputs: Vec<NodeId>) {
        self.outputs = outputs;
    }

    /// Number of declared output nodes (the arms of the result edge).
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Reroute the graph's result through `queue` instead of materializing
    /// it: output nodes with a `Collect` sink over a table scan become
    /// worker-level [`PipelineSink::Queue`] producers (one gap-free batch
    /// per morsel), every other output node streams its merge/drain output
    /// into the queue chunk by chunk. `queue` must be
    /// [ordered](ChunkQueue::with_ordered) and sized for one producer per
    /// output node; the consumer replays batches in composed-sequence
    /// order ([`PipelineGraphOp`] does exactly that). Call after
    /// [`PipelineGraph::set_outputs`], before execution.
    pub fn stream_into(&mut self, queue: Arc<ChunkQueue>) -> Result<()> {
        for (arm, &id) in self.outputs.clone().iter().enumerate() {
            match &mut self.nodes[id] {
                GraphNode::Pipeline { source: PipelineSource::Table(_), sink, .. }
                    if matches!(sink, PipelineSink::Collect) =>
                {
                    *sink = PipelineSink::Queue { queue: Arc::clone(&queue), arm };
                }
                GraphNode::Pipeline { .. } | GraphNode::SerialPipeline { .. } => {
                    self.stream_arms.push((id, arm));
                }
                GraphNode::SerialBuild { .. } => {
                    return Err(EiderError::Internal(
                        "a join build side cannot be a streamed graph output".into(),
                    ));
                }
            }
        }
        self.stream_queue = Some(queue);
        Ok(())
    }

    /// Column types a node's chain feeds into its sink.
    fn chain_types(&self, id: NodeId) -> Vec<LogicalType> {
        match &self.nodes[id] {
            GraphNode::SerialBuild { input, .. } => {
                input.as_ref().map(|op| op.output_types()).unwrap_or_default()
            }
            GraphNode::Pipeline { source, links, .. } => {
                fold_link_types(source.base_types(), links)
            }
            GraphNode::SerialPipeline { input, links } => {
                let base = input.as_ref().map(|op| op.output_types()).unwrap_or_default();
                fold_link_types(base, links)
            }
        }
    }

    /// Column types of the graph's final output (the output nodes agree on
    /// them by construction — UNION ALL requires it).
    pub fn output_types(&self) -> Vec<LogicalType> {
        let Some(&first) = self.outputs.first() else { return Vec::new() };
        match &self.nodes[first] {
            GraphNode::SerialBuild { .. } => Vec::new(),
            GraphNode::Pipeline { sink, .. } => sink_output_types(sink, || self.chain_types(first)),
            GraphNode::SerialPipeline { .. } => self.chain_types(first),
        }
    }

    /// Nodes a node must wait for: the build side of every probe link.
    /// Queue edges are deliberately absent — a queue consumer co-schedules
    /// with its producers and synchronizes through the queue itself.
    fn node_deps(node: &GraphNode) -> Vec<NodeId> {
        let links = match node {
            GraphNode::Pipeline { links, .. } | GraphNode::SerialPipeline { links, .. } => links,
            GraphNode::SerialBuild { .. } => return Vec::new(),
        };
        links
            .iter()
            .filter_map(|link| match link {
                GraphLink::Probe { build, .. } => Some(*build),
                GraphLink::Step(_) => None,
            })
            .collect()
    }

    /// Every morsel source the graph scans (told to stop dispensing when
    /// the graph fails, so sibling nodes wind down at their next morsel
    /// boundary instead of scanning to completion first).
    fn graph_sources(nodes: &[GraphNode]) -> Vec<Arc<MorselSource>> {
        nodes
            .iter()
            .filter_map(|node| match node {
                GraphNode::Pipeline { source: PipelineSource::Table(src), .. } => {
                    Some(Arc::clone(src))
                }
                _ => None,
            })
            .collect()
    }

    /// Every distinct chunk queue any node produces into or consumes from
    /// (aborted wholesale when the graph fails, so no pipeline blocks on
    /// an edge whose peer will never arrive).
    fn graph_queues(nodes: &[GraphNode]) -> Vec<Arc<ChunkQueue>> {
        let mut queues: Vec<Arc<ChunkQueue>> = Vec::new();
        let mut remember = |q: &Arc<ChunkQueue>| {
            if !queues.iter().any(|known| Arc::ptr_eq(known, q)) {
                queues.push(Arc::clone(q));
            }
        };
        for node in nodes {
            if let GraphNode::Pipeline { source, sink, .. } = node {
                if let PipelineSource::Queue(q) = source {
                    remember(q);
                }
                if let PipelineSink::Queue { queue, .. } = sink {
                    remember(queue);
                }
            }
        }
        queues
    }

    /// Execute the DAG under the readiness scheduler and concatenate the
    /// output nodes' chunks (in output order). Returns the chunks plus the
    /// buffer-manager reservations that keep them accounted until
    /// teardown.
    ///
    /// Scheduling: each round launches *every* node whose probe
    /// dependencies have completed, one scoped thread per node, splitting
    /// the worker fleet proportionally; the scheduler then waits for the
    /// next completion and re-evaluates. On the first failure it aborts
    /// all queues, launches nothing further, and drains in-flight nodes
    /// before surfacing the error.
    pub fn execute(mut self) -> Result<(Vec<DataChunk>, Vec<MemoryReservation>)> {
        // A graph executed without going through `PipelineGraphOp` (tests,
        // inline build sides) still takes its admission slot; the lease
        // drops with `self` when execution finishes either way.
        self.admit();
        let fleet = self.fleet.clone();
        let nodes = std::mem::take(&mut self.nodes);
        let weights = std::mem::take(&mut self.weights);
        let n = nodes.len();
        let deps: Vec<Vec<NodeId>> = nodes.iter().map(Self::node_deps).collect();
        let mut queues = Self::graph_queues(&nodes);
        let stream_queue = self.stream_queue.clone();
        let stream_arms = std::mem::take(&mut self.stream_arms);
        if let Some(q) = &stream_queue {
            // Merge-streamed output nodes reference the result edge outside
            // their sinks; it must still abort with the rest of the graph.
            if !queues.iter().any(|known| Arc::ptr_eq(known, q)) {
                queues.push(Arc::clone(q));
            }
        }
        let sources = Self::graph_sources(&nodes);
        // Failure anywhere stops the whole graph promptly: queues wake
        // their blocked peers, morsel dispensers stop handing out work.
        let abort_graph = || {
            for q in &queues {
                q.abort();
            }
            for src in &sources {
                src.abort();
            }
        };
        let mut slots: Vec<Option<GraphNode>> = nodes.into_iter().map(Some).collect();
        let mut results: Vec<NodeOutput> = (0..n).map(|_| NodeOutput::Taken).collect();
        let mut done = vec![false; n];
        let mut first_error: Option<EiderError> = None;
        let ctx = NodeCtx {
            txn: Arc::clone(&self.txn),
            buffers: self.buffers.clone(),
            compression: self.compression,
            sort_budget: self.sort_budget,
        };
        let stats = self.stats.clone();
        let threads = self.threads;
        // A panicking node must not strand the scheduler: its payload is
        // parked here and re-raised only after every in-flight node has
        // wound down (queues aborted so none blocks forever).
        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;

        std::thread::scope(|scope| {
            type NodeVerdict = std::thread::Result<Result<NodeOutput>>;
            let (tx, rx) = std::sync::mpsc::channel::<(NodeId, NodeVerdict)>();
            let mut running = 0usize;
            loop {
                // Launch every node whose dependencies are satisfied; skip
                // straight to draining once something failed.
                let mut round = Vec::new();
                if first_error.is_none() {
                    for id in 0..n {
                        if slots[id].is_some() && deps[id].iter().all(|&d| done[d]) {
                            round.push(id);
                        }
                    }
                }
                if !round.is_empty() {
                    let mut launchable = Vec::with_capacity(round.len());
                    for id in round.drain(..) {
                        let node = slots[id].take().expect("launch picked a live node");
                        let out = stream_arms
                            .iter()
                            .find(|(nid, _)| *nid == id)
                            .and_then(|&(_, arm)| stream_queue.clone().map(|q| (q, arm)));
                        match Self::prepare(node, &results, out) {
                            Ok(ready) => launchable.push((id, ready)),
                            Err(e) => {
                                done[id] = true;
                                if first_error.is_none() {
                                    first_error = Some(e);
                                }
                                abort_graph();
                            }
                        }
                    }
                    if let Some(stats) = &stats {
                        let ids: Vec<NodeId> = launchable.iter().map(|(id, _)| *id).collect();
                        if !ids.is_empty() {
                            stats.record_launch(&ids);
                        }
                    }
                    // Split the fleet across everything in flight; morsel
                    // stealing rebalances skew inside each node. With a
                    // shared fleet the split is database-wide — re-read
                    // every round, so workers migrate between graphs at
                    // launch-round granularity as siblings come and go.
                    let in_flight = (running + launchable.len()).max(1);
                    let share = match &fleet {
                        Some(f) => f.node_share(in_flight).min(threads.max(1)),
                        None => (threads / in_flight).max(1),
                    };
                    // The round's budget splits proportionally to the
                    // planner's estimated input rows, not evenly: launching
                    // a 50-row dimension build beside a million-row scan
                    // should not halve the scan's workers. Equal weights
                    // (the `add` default) reproduce the even split.
                    let round_pool = share.saturating_mul(launchable.len());
                    let round_weight: u64 = launchable
                        .iter()
                        .map(|&(id, _)| weights.get(id).copied().unwrap_or(1))
                        .sum();
                    let node_share = |id: NodeId| -> usize {
                        let w = weights.get(id).copied().unwrap_or(1);
                        let exact = (round_pool as u64).saturating_mul(w) / round_weight.max(1);
                        (exact as usize).clamp(1, threads.max(1))
                    };
                    // Inline fast path: a lone ready node with nothing in
                    // flight cannot overlap with anything — run it on the
                    // scheduler thread. Sequential DAGs (build → probe, the
                    // most common shape) thus keep the pre-concurrency
                    // executor's zero thread-handoff overhead, and a panic
                    // propagates directly (nothing else is running that a
                    // drain would have to wake).
                    if running == 0 && launchable.len() == 1 {
                        let (id, ready) = launchable.pop().expect("checked");
                        done[id] = true;
                        if let Some(stats) = &stats {
                            stats.record_share(id, share);
                        }
                        let outcome = ctx.run_node(ready, share);
                        if let Some(stats) = &stats {
                            stats.record_finish();
                        }
                        match outcome {
                            Ok(output) => results[id] = output,
                            Err(e) => {
                                if first_error.is_none() {
                                    first_error = Some(e);
                                }
                                abort_graph();
                            }
                        }
                        continue;
                    }
                    for (id, ready) in launchable {
                        running += 1;
                        let share = node_share(id);
                        if let Some(stats) = &stats {
                            stats.record_share(id, share);
                        }
                        let tx = tx.clone();
                        let ctx = ctx.clone();
                        let stats = stats.clone();
                        scope.spawn(move || {
                            // Catch panics so the completion message is
                            // always sent — an unwinding node thread must
                            // not leave the scheduler blocked in recv()
                            // (the panic is re-raised after the drain).
                            let out =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    ctx.run_node(ready, share)
                                }));
                            if let Some(stats) = &stats {
                                stats.record_finish();
                            }
                            // The scheduler outlives every node thread; a
                            // send can only fail if the scope is unwinding.
                            let _ = tx.send((id, out));
                        });
                    }
                    continue; // a launch may have failed: recompute
                }
                if running == 0 {
                    break;
                }
                let (id, result) = rx.recv().expect("node completion channel");
                running -= 1;
                done[id] = true;
                match result {
                    Ok(Ok(output)) => results[id] = output,
                    Ok(Err(e)) => {
                        // Keep the root cause: a co-scheduled sibling's
                        // "queue aborted" echo must not shadow the real
                        // error, whichever order they arrive in.
                        let replace = match &first_error {
                            None => true,
                            Some(cur) => is_queue_abort(cur) && !is_queue_abort(&e),
                        };
                        if replace {
                            first_error = Some(e);
                        }
                        abort_graph();
                    }
                    Err(payload) => {
                        if panic_payload.is_none() {
                            panic_payload = Some(payload);
                        }
                        if first_error.is_none() {
                            first_error =
                                Some(EiderError::Internal("pipeline node panicked".into()));
                        }
                        abort_graph();
                    }
                }
            }
        });
        if let Some(payload) = panic_payload {
            // Invariant violations surface as panics, exactly as they did
            // when nodes ran on the calling thread.
            std::panic::resume_unwind(payload);
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        let mut chunks = Vec::new();
        let mut reservations = Vec::new();
        for &id in &self.outputs {
            match std::mem::replace(&mut results[id], NodeOutput::Taken) {
                NodeOutput::Chunks { chunks: c, reservations: r } => {
                    chunks.extend(c);
                    reservations.extend(r);
                }
                _ => {
                    return Err(EiderError::Internal(
                        "pipeline-DAG output node did not produce chunks".into(),
                    ))
                }
            }
        }
        Ok((chunks, reservations))
    }

    /// Resolve a launchable node's probe links against completed builds,
    /// producing the owned state its thread runs with. `out` attaches the
    /// result edge for streamed output nodes.
    fn prepare(
        node: GraphNode,
        results: &[NodeOutput],
        out: Option<(Arc<ChunkQueue>, usize)>,
    ) -> Result<ReadyNode> {
        Ok(match node {
            GraphNode::SerialBuild { input, keys } => ReadyNode::SerialBuild {
                input: input.ok_or_else(|| {
                    EiderError::Internal("serial build node executed twice".into())
                })?,
                keys,
            },
            GraphNode::SerialPipeline { input, links } => ReadyNode::SerialPipeline {
                input: input.ok_or_else(|| {
                    EiderError::Internal("serial pipeline node executed twice".into())
                })?,
                steps: Self::resolve_links(links, results)?,
                out,
            },
            GraphNode::Pipeline { source, links, sink } => ReadyNode::Pipeline {
                source,
                steps: Self::resolve_links(links, results)?,
                sink,
                out,
            },
        })
    }

    /// Resolve probe links against already-executed build nodes.
    fn resolve_links(links: Vec<GraphLink>, results: &[NodeOutput]) -> Result<Vec<PipelineStep>> {
        links
            .into_iter()
            .map(|link| match link {
                GraphLink::Step(step) => Ok(step),
                GraphLink::Probe { build, left_keys, join_type, right_types } => {
                    match results.get(build) {
                        Some(NodeOutput::Build(b)) => Ok(PipelineStep::JoinProbe {
                            build: Arc::clone(b),
                            left_keys,
                            join_type,
                            right_types,
                        }),
                        _ => Err(EiderError::Internal(
                            "probe link references a node that produced no build side \
                             (planner emitted nodes out of dependency order?)"
                                .into(),
                        )),
                    }
                }
            })
            .collect()
    }
}

/// Consumer half of a running streamed graph: the readiness scheduler
/// executes on a dedicated background thread, its output nodes push
/// batches into an ordered [`ChunkQueue`], and this side replays them in
/// composed-sequence order — "arm 0's batches in sequence, then arm 1's"
/// — so the stream is row-identical to the old materialized concatenation
/// at every worker count. Batches that arrive ahead of their turn wait in
/// a reorder buffer; they keep their buffer-manager reservations (the §4
/// charge) until activated for emission, at which point the charge moves
/// to the cursor holding the chunk. The buffer is *bounded*: within an
/// arm, workers claim morsels in dispense order (≈ one out-of-order batch
/// per worker), and across arms the queue's per-arm quota blocks a
/// not-yet-active arm's producers once `max_bytes` of its pushes sit
/// unconsumed ([`ChunkQueue::batch_consumed`] frees quota as batches
/// activate) — a fast later UNION arm cannot pile its whole result here
/// while an earlier arm is still streaming.
struct ResultStream {
    queue: Arc<ChunkQueue>,
    /// The scheduler thread; joined on completion (errors and panics
    /// surface there) or on drop (after aborting the queue).
    handle: Option<std::thread::JoinHandle<Result<()>>>,
    /// Batches that arrived ahead of their turn, keyed by composed seq.
    held: BTreeMap<usize, QueueBatch>,
    /// Chunks of the batch currently being replayed.
    pending: VecDeque<DataChunk>,
    arm: usize,
    arms: usize,
    next_seq: usize,
    /// The queue reported end-of-stream: every producer closed and the
    /// backlog drained, or the graph aborted.
    drained: bool,
}

/// A [`PhysicalOperator`] facade over a pipeline DAG. The DAG no longer
/// materializes its result: on the first pull the graph is rerouted
/// through an ordered result [`ChunkQueue`]
/// ([`PipelineGraph::stream_into`]) and executed on a background thread;
/// each subsequent pull replays the next in-order chunk, so a slow
/// consumer back-pressures the workers through the queue's byte bound
/// instead of the engine buffering the whole result set. Dropping the
/// operator mid-stream aborts the queue and joins the scheduler thread —
/// an abandoned cursor cancels its query.
pub struct PipelineGraphOp {
    graph: Option<PipelineGraph>,
    out_types: Vec<LogicalType>,
    stream: Option<ResultStream>,
    done: bool,
}

impl PipelineGraphOp {
    pub fn new(graph: PipelineGraph) -> Self {
        PipelineGraphOp {
            out_types: graph.output_types(),
            graph: Some(graph),
            stream: None,
            done: false,
        }
    }

    /// Reroute the graph through a fresh ordered result queue and launch
    /// the scheduler on its own thread.
    fn start(&mut self) -> Result<()> {
        let mut graph = self
            .graph
            .take()
            .ok_or_else(|| EiderError::Internal("pipeline DAG executed twice".into()))?;
        let arms = graph.output_count();
        // The same byte bound as inter-node queue edges: a slice of the
        // memory budget, big enough to decouple producer and consumer,
        // small enough that the backlog cannot crowd out operator state.
        let queue_bytes = graph
            .buffers
            .as_ref()
            .map(|b| (b.memory_limit() / 8).clamp(1 << 16, 4 << 20))
            .unwrap_or(4 << 20);
        let queue =
            Arc::new(ChunkQueue::new(self.out_types.clone(), arms, queue_bytes).with_ordered());
        graph.stream_into(Arc::clone(&queue))?;
        // Admission happens here, on the consumer's own thread, *before*
        // the background scheduler exists: a query blocked at the fleet
        // gate holds no engine thread and owns no queue a peer could be
        // waiting on, so the gate can never deadlock the fleet.
        graph.admit();
        let handle = std::thread::Builder::new()
            .name("eider-graph".into())
            .spawn(move || graph.execute().map(|_| ()))
            .map_err(|e| EiderError::Internal(format!("failed to spawn graph thread: {e}")))?;
        self.stream = Some(ResultStream {
            queue,
            handle: Some(handle),
            held: BTreeMap::new(),
            pending: VecDeque::new(),
            arm: 0,
            arms,
            next_seq: 0,
            drained: false,
        });
        Ok(())
    }

    /// Reap the scheduler thread: its error is the query's root cause, and
    /// a panic re-raises on the consumer thread exactly as it did when the
    /// graph ran inline.
    fn join_scheduler(&mut self) -> Result<()> {
        let Some(handle) = self.stream.as_mut().and_then(|s| s.handle.take()) else {
            return Ok(());
        };
        match handle.join() {
            Ok(result) => result,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

impl Drop for PipelineGraphOp {
    fn drop(&mut self) {
        if let Some(stream) = &mut self.stream {
            if let Some(handle) = stream.handle.take() {
                // Cancel the query: the abort fails blocked producers fast
                // and the scheduler drains; joining bounds the query's
                // threads to the operator's lifetime. Errors (and panic
                // payloads) are dropped — nothing re-raises from a
                // destructor.
                stream.queue.abort();
                let _ = handle.join();
            }
        }
    }
}

impl PhysicalOperator for PipelineGraphOp {
    fn output_types(&self) -> Vec<LogicalType> {
        self.out_types.clone()
    }

    fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
        if self.done {
            return Ok(None);
        }
        if self.stream.is_none() {
            self.start()?;
        }
        loop {
            let stream = self.stream.as_mut().expect("stream started");
            if let Some(chunk) = stream.pending.pop_front() {
                return Ok(Some(chunk));
            }
            if stream.arm >= stream.arms {
                // Every arm replayed; reap the scheduler so its error or
                // panic cannot be lost (and the thread never outlives the
                // stream).
                self.done = true;
                return self.join_scheduler().map(|()| None);
            }
            let key = compose_seq(stream.arm, stream.next_seq);
            if let Some(batch) = stream.held.remove(&key) {
                // Activating the batch drops its queue-side reservation
                // and frees its share of the arm's reorder-buffer quota;
                // the chunks are handed onward and the consumer's cursor
                // charges them from here.
                stream.queue.batch_consumed(stream.arm, batch.bytes());
                stream.next_seq += 1;
                stream.pending.extend(batch.chunks);
                continue;
            }
            if let Some(total) = stream.queue.arm_batches(stream.arm) {
                if stream.next_seq >= total {
                    stream.arm += 1;
                    stream.next_seq = 0;
                    // Unpark the new active arm's producers (they may be
                    // waiting behind the per-arm quota).
                    stream.queue.set_active_arm(stream.arm);
                    continue;
                }
            }
            if stream.drained {
                // The expected batch can never arrive: the graph failed
                // (abort discards queued batches). Surface the scheduler's
                // root-cause error.
                self.done = true;
                self.join_scheduler()?;
                return Err(EiderError::Internal(
                    "result stream ended before every batch arrived".into(),
                ));
            }
            match stream.queue.pop_ordered(stream.arm) {
                OrderedPop::Batch(batch) => {
                    stream.held.insert(batch.seq, batch);
                }
                OrderedPop::Done => stream.drained = true,
                OrderedPop::ArmClosed => {
                    // The current arm closed with an empty backlog: every
                    // one of its batches is in `held` or already replayed,
                    // so the next iteration advances via `held` or the
                    // arm-total check. If the expected batch is genuinely
                    // absent the graph lost it — fail instead of spinning.
                    let total = stream.queue.arm_batches(stream.arm).unwrap_or(0);
                    if stream.next_seq < total && !stream.held.contains_key(&key) {
                        self.done = true;
                        self.join_scheduler()?;
                        return Err(EiderError::Internal(
                            "result stream lost a batch of a closed arm".into(),
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::Expr;
    use crate::ops::sort::SortKey;
    use crate::ops::{drain_rows, FilterOp, HashJoinOp, TableScanOp};
    use crate::parallel::morsel::MorselSource;
    use eider_txn::{CmpOp, DataTable, ScanOptions, TableFilter, TransactionManager};
    use eider_vector::{Value, VECTOR_SIZE};

    const ROWS: i32 = 30_000;

    /// (i, i % 100) — the second column joins 1:300 against a small build.
    fn fixture() -> (Arc<TransactionManager>, Arc<DataTable>) {
        let mgr = TransactionManager::new();
        let table = DataTable::new(vec![LogicalType::Integer, LogicalType::Integer]);
        let setup = mgr.begin();
        let rows: Vec<Vec<Value>> =
            (0..ROWS).map(|i| vec![Value::Integer(i), Value::Integer(i % 100)]).collect();
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

    fn probe_opts() -> ScanOptions {
        ScanOptions { columns: vec![0, 1], filters: vec![], emit_row_ids: false }
    }

    fn build_scan(table: &Arc<DataTable>, txn: &Arc<Transaction>) -> OperatorBox {
        // Build side: rows with id < 100 (one per key value).
        Box::new(TableScanOp::new(
            Arc::clone(table),
            Arc::clone(txn),
            ScanOptions {
                columns: vec![0, 1],
                filters: vec![TableFilter::new(0, CmpOp::Lt, Value::Integer(100))],
                emit_row_ids: false,
            },
        ))
    }

    fn join_key() -> Vec<Expr> {
        vec![Expr::column(1, LogicalType::Integer)]
    }

    fn serial_join_rows(table: &Arc<DataTable>, txn: &Arc<Transaction>) -> Vec<Vec<Value>> {
        let probe: OperatorBox =
            Box::new(TableScanOp::new(Arc::clone(table), Arc::clone(txn), probe_opts()));
        let mut op = HashJoinOp::new(
            probe,
            build_scan(table, txn),
            join_key(),
            join_key(),
            JoinType::Inner,
            CompressionLevel::None,
            None,
        )
        .unwrap();
        drain_rows(&mut op).unwrap()
    }

    fn probe_graph(
        table: &Arc<DataTable>,
        txn: &Arc<Transaction>,
        threads: usize,
        parallel_build: bool,
    ) -> PipelineGraph {
        let mut graph = PipelineGraph::new(Arc::clone(txn), threads);
        let build = if parallel_build {
            let source =
                Arc::new(MorselSource::new(Arc::clone(table), txn, probe_opts(), VECTOR_SIZE));
            graph.add(GraphNode::Pipeline {
                source: source.into(),
                links: vec![GraphLink::Step(PipelineStep::Filter(Expr::Compare {
                    op: CmpOp::Lt,
                    left: Box::new(Expr::column(0, LogicalType::Integer)),
                    right: Box::new(Expr::constant(Value::Integer(100))),
                }))],
                sink: PipelineSink::JoinBuild { keys: join_key() },
            })
        } else {
            graph.add(GraphNode::SerialBuild {
                input: Some(build_scan(table, txn)),
                keys: join_key(),
            })
        };
        let source =
            Arc::new(MorselSource::new(Arc::clone(table), txn, probe_opts(), VECTOR_SIZE * 2));
        let probe = graph.add(GraphNode::Pipeline {
            source: source.into(),
            links: vec![GraphLink::Probe {
                build,
                left_keys: join_key(),
                join_type: JoinType::Inner,
                right_types: vec![LogicalType::Integer, LogicalType::Integer],
            }],
            sink: PipelineSink::Collect,
        });
        graph.set_outputs(vec![probe]);
        graph
    }

    #[test]
    fn serial_build_feeds_parallel_probe() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let serial = serial_join_rows(&table, &txn);
        assert_eq!(serial.len(), ROWS as usize);
        for threads in [1, 2, 3, 8] {
            let graph = probe_graph(&table, &txn, threads, false);
            assert_eq!(graph.output_types().len(), 4);
            let (chunks, _res) = graph.execute().unwrap();
            let rows: Vec<Vec<Value>> = chunks.iter().flat_map(DataChunk::to_rows).collect();
            assert_eq!(rows, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_build_pipeline_hands_build_side_to_probe_pipeline() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let serial = serial_join_rows(&table, &txn);
        for threads in [1, 2, 8] {
            let graph = probe_graph(&table, &txn, threads, true);
            let (chunks, _res) = graph.execute().unwrap();
            let rows: Vec<Vec<Value>> = chunks.iter().flat_map(DataChunk::to_rows).collect();
            assert_eq!(rows, serial, "threads={threads}");
        }
    }

    #[test]
    fn weighted_nodes_split_the_round_budget_by_estimated_rows() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let arm = |cmp: CmpOp, bound: i32| ScanOptions {
            columns: vec![0, 1],
            filters: vec![TableFilter::new(0, cmp, Value::Integer(bound))],
            emit_row_ids: false,
        };
        // Two independent scans launch in the same round; the one weighted
        // like a fact table should receive nearly the whole budget while
        // the dimension-sized one still gets its guaranteed worker.
        let mut graph = PipelineGraph::new(Arc::clone(&txn), 8);
        let heavy = graph.add_weighted(
            GraphNode::Pipeline {
                source: PipelineSource::Table(Arc::new(MorselSource::new(
                    Arc::clone(&table),
                    &txn,
                    arm(CmpOp::GtEq, 100),
                    VECTOR_SIZE,
                ))),
                links: vec![],
                sink: PipelineSink::Collect,
            },
            ROWS as u64,
        );
        let light = graph.add_weighted(
            GraphNode::Pipeline {
                source: PipelineSource::Table(Arc::new(MorselSource::new(
                    Arc::clone(&table),
                    &txn,
                    arm(CmpOp::Lt, 100),
                    VECTOR_SIZE,
                ))),
                links: vec![],
                sink: PipelineSink::Collect,
            },
            100,
        );
        graph.set_outputs(vec![heavy, light]);
        let stats = GraphStats::new();
        let graph = graph.with_stats(Arc::clone(&stats));
        let (chunks, _res) = graph.execute().unwrap();
        let rows: usize = chunks.iter().map(DataChunk::len).sum();
        assert_eq!(rows, ROWS as usize);
        let shares = stats.node_shares();
        let share_of = |id: NodeId| {
            shares.iter().find(|(n, _)| *n == id).map(|&(_, s)| s).expect("node launched")
        };
        assert!(
            share_of(heavy) > share_of(light),
            "fact-sized node should out-rank the dimension-sized one: {shares:?}"
        );
        assert_eq!(share_of(light), 1, "light node keeps its guaranteed worker: {shares:?}");
    }

    #[test]
    fn union_all_concatenates_output_nodes_in_order() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let arm = |cmp: CmpOp, bound: i32| ScanOptions {
            columns: vec![0, 1],
            filters: vec![TableFilter::new(0, cmp, Value::Integer(bound))],
            emit_row_ids: false,
        };
        let serial: Vec<Vec<Value>> = {
            let mut low: OperatorBox = Box::new(TableScanOp::new(
                Arc::clone(&table),
                Arc::clone(&txn),
                arm(CmpOp::Lt, 5_000),
            ));
            let mut high: OperatorBox = Box::new(TableScanOp::new(
                Arc::clone(&table),
                Arc::clone(&txn),
                arm(CmpOp::GtEq, 25_000),
            ));
            let mut rows = drain_rows(low.as_mut()).unwrap();
            rows.extend(drain_rows(high.as_mut()).unwrap());
            rows
        };
        for threads in [1, 2, 8] {
            let mut graph = PipelineGraph::new(Arc::clone(&txn), threads);
            let low = graph.add(GraphNode::Pipeline {
                source: PipelineSource::Table(Arc::new(MorselSource::new(
                    Arc::clone(&table),
                    &txn,
                    arm(CmpOp::Lt, 5_000),
                    VECTOR_SIZE,
                ))),
                links: vec![],
                sink: PipelineSink::Collect,
            });
            let high = graph.add(GraphNode::Pipeline {
                source: PipelineSource::Table(Arc::new(MorselSource::new(
                    Arc::clone(&table),
                    &txn,
                    arm(CmpOp::GtEq, 25_000),
                    VECTOR_SIZE,
                ))),
                links: vec![],
                sink: PipelineSink::Collect,
            });
            graph.set_outputs(vec![low, high]);
            let (chunks, _res) = graph.execute().unwrap();
            let rows: Vec<Vec<Value>> = chunks.iter().flat_map(DataChunk::to_rows).collect();
            assert_eq!(rows, serial, "threads={threads}");
        }
    }

    #[test]
    fn probe_chain_feeds_sort_sink_with_limit() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        // TopN over the join output: ORDER BY id DESC LIMIT 7 OFFSET 2.
        let mut serial = serial_join_rows(&table, &txn);
        serial.sort_by(|a, b| b[0].total_cmp(&a[0]));
        let expected: Vec<Vec<Value>> = serial[2..9].to_vec();
        for threads in [1, 2, 8] {
            let mut graph = PipelineGraph::new(Arc::clone(&txn), threads);
            let build = graph.add(GraphNode::SerialBuild {
                input: Some(build_scan(&table, &txn)),
                keys: join_key(),
            });
            let probe = graph.add(GraphNode::Pipeline {
                source: PipelineSource::Table(Arc::new(MorselSource::new(
                    Arc::clone(&table),
                    &txn,
                    probe_opts(),
                    VECTOR_SIZE * 2,
                ))),
                links: vec![GraphLink::Probe {
                    build,
                    left_keys: join_key(),
                    join_type: JoinType::Inner,
                    right_types: vec![LogicalType::Integer, LogicalType::Integer],
                }],
                sink: PipelineSink::Sort {
                    keys: vec![SortKey::desc(Expr::column(0, LogicalType::Integer))],
                    limit: Some((7, 2)),
                },
            });
            graph.set_outputs(vec![probe]);
            let (chunks, _res) = graph.execute().unwrap();
            let rows: Vec<Vec<Value>> = chunks.iter().flat_map(DataChunk::to_rows).collect();
            assert_eq!(rows, expected, "threads={threads}");
        }
    }

    #[test]
    fn probe_link_against_non_build_node_errors() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let mut graph = PipelineGraph::new(Arc::clone(&txn), 2);
        // Node 0 collects chunks — probing it must fail, not panic.
        let collect = graph.add(GraphNode::Pipeline {
            source: PipelineSource::Table(Arc::new(MorselSource::new(
                Arc::clone(&table),
                &txn,
                probe_opts(),
                VECTOR_SIZE,
            ))),
            links: vec![],
            sink: PipelineSink::Collect,
        });
        let probe = graph.add(GraphNode::Pipeline {
            source: PipelineSource::Table(Arc::new(MorselSource::new(
                Arc::clone(&table),
                &txn,
                probe_opts(),
                VECTOR_SIZE,
            ))),
            links: vec![GraphLink::Probe {
                build: collect,
                left_keys: join_key(),
                join_type: JoinType::Inner,
                right_types: vec![LogicalType::Integer, LogicalType::Integer],
            }],
            sink: PipelineSink::Collect,
        });
        graph.set_outputs(vec![probe]);
        let err = graph.execute().unwrap_err();
        assert!(err.to_string().contains("no build side"), "{err}");
    }

    #[test]
    fn graph_op_streams_chunks_and_runs_once() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let graph = probe_graph(&table, &txn, 4, false);
        let types = graph.output_types();
        let mut op = PipelineGraphOp::new(graph);
        assert_eq!(op.output_types(), types);
        let rows = drain_rows(&mut op).unwrap();
        assert_eq!(rows.len(), ROWS as usize);
        // Exhausted: further pulls keep returning None, not re-executing.
        assert!(op.next_chunk().unwrap().is_none());
    }

    #[test]
    fn concurrent_graphs_share_a_fleet_and_stay_deterministic() {
        // Two whole DAGs racing on one fleet: each computes the same join,
        // each must return exactly the serial rows — fair-share splitting
        // must never change *what* a graph produces, only how fast.
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let serial = serial_join_rows(&table, &txn);
        let fleet = WorkerFleet::new(4);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let graph =
                        probe_graph(&table, &txn, 4, true).with_fleet(Some(Arc::clone(&fleet)));
                    scope.spawn(move || {
                        let (chunks, _res) = graph.execute().unwrap();
                        chunks.iter().flat_map(DataChunk::to_rows).collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), serial);
            }
        });
        assert_eq!(fleet.active(), 0, "every lease released");
    }

    #[test]
    fn streamed_graph_waits_at_the_admission_gate() {
        // Fixed interleaving for the admission handoff: a lease held by a
        // stand-in long-running query keeps a capacity-1 fleet full; the
        // streamed graph must observably block at the gate (on the
        // consumer's thread, before its scheduler spawns) and complete
        // with correct results once the slot frees.
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let serial = serial_join_rows(&table, &txn);
        let fleet = WorkerFleet::with_cap(4, 1);
        let occupant = fleet.admit();
        let (tx, rx) = std::sync::mpsc::channel();
        let puller = {
            let graph = probe_graph(&table, &txn, 4, false).with_fleet(Some(Arc::clone(&fleet)));
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut op = PipelineGraphOp::new(graph);
                tx.send("pulling").unwrap();
                let rows = drain_rows(&mut op).unwrap();
                tx.send("done").unwrap();
                rows
            })
        };
        assert_eq!(rx.recv().unwrap(), "pulling");
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(100)).is_err(),
            "query ran while the admission gate was full"
        );
        drop(occupant);
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(),
            "done",
            "released slot admits the waiting query"
        );
        assert_eq!(puller.join().unwrap(), serial);
        assert_eq!(fleet.active(), 0);
    }

    #[test]
    fn filter_op_composes_with_serial_build() {
        // Regression guard: a SerialBuild node over a filtered serial chain
        // (FilterOp, not a pushed-down TableFilter) must work identically.
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let filtered: OperatorBox = Box::new(FilterOp::new(
            Box::new(TableScanOp::new(Arc::clone(&table), Arc::clone(&txn), probe_opts())),
            Expr::Compare {
                op: CmpOp::Lt,
                left: Box::new(Expr::column(0, LogicalType::Integer)),
                right: Box::new(Expr::constant(Value::Integer(100))),
            },
        ));
        let mut graph = PipelineGraph::new(Arc::clone(&txn), 4);
        let build = graph.add(GraphNode::SerialBuild { input: Some(filtered), keys: join_key() });
        let probe = graph.add(GraphNode::Pipeline {
            source: PipelineSource::Table(Arc::new(MorselSource::new(
                Arc::clone(&table),
                &txn,
                probe_opts(),
                VECTOR_SIZE * 2,
            ))),
            links: vec![GraphLink::Probe {
                build,
                left_keys: join_key(),
                join_type: JoinType::Inner,
                right_types: vec![LogicalType::Integer, LogicalType::Integer],
            }],
            sink: PipelineSink::Collect,
        });
        graph.set_outputs(vec![probe]);
        let (chunks, _res) = graph.execute().unwrap();
        let n: usize = chunks.iter().map(DataChunk::len).sum();
        assert_eq!(n, ROWS as usize);
    }

    /// A `(arm, morsel)`-composed scan over half the fixture table.
    fn half_scan(low_half: bool) -> ScanOptions {
        let (cmp, bound) = if low_half { (CmpOp::Lt, 15_000) } else { (CmpOp::GtEq, 15_000) };
        ScanOptions {
            columns: vec![0, 1],
            filters: vec![TableFilter::new(0, cmp, Value::Integer(bound))],
            emit_row_ids: false,
        }
    }

    /// Aggregate sink shared by the queue tests: GROUP BY col1 with
    /// integer aggregates (exact at every thread count).
    fn union_agg_sink() -> PipelineSink {
        PipelineSink::HashAggregate {
            groups: vec![Expr::column(1, LogicalType::Integer)],
            aggs: vec![
                crate::ops::agg::AggExpr {
                    kind: crate::aggregate::AggKind::CountStar,
                    arg: None,
                    distinct: false,
                },
                crate::ops::agg::AggExpr {
                    kind: crate::aggregate::AggKind::Sum,
                    arg: Some(Expr::column(0, LogicalType::Integer)),
                    distinct: false,
                },
            ],
        }
    }

    /// Build the union-under-aggregate DAG: two scan arms streaming into a
    /// shared chunk queue, consumed by an aggregate pipeline that runs
    /// concurrently with them.
    fn union_agg_graph(
        table: &Arc<DataTable>,
        txn: &Arc<Transaction>,
        threads: usize,
        buffers: Option<Arc<eider_storage::buffer::BufferManager>>,
    ) -> (PipelineGraph, Arc<ChunkQueue>, Arc<GraphStats>) {
        let stats = GraphStats::new();
        let mut graph = PipelineGraph::new(Arc::clone(txn), threads)
            .with_buffers(buffers)
            .with_stats(Arc::clone(&stats));
        let queue =
            Arc::new(ChunkQueue::new(vec![LogicalType::Integer, LogicalType::Integer], 2, 1 << 18));
        for (arm, low_half) in [true, false].into_iter().enumerate() {
            graph.add(GraphNode::Pipeline {
                source: PipelineSource::Table(Arc::new(MorselSource::new(
                    Arc::clone(table),
                    txn,
                    half_scan(low_half),
                    VECTOR_SIZE,
                ))),
                links: vec![],
                sink: PipelineSink::Queue { queue: Arc::clone(&queue), arm },
            });
        }
        let consumer = graph.add(GraphNode::Pipeline {
            source: PipelineSource::Queue(Arc::clone(&queue)),
            links: vec![],
            sink: union_agg_sink(),
        });
        graph.set_outputs(vec![consumer]);
        (graph, queue, stats)
    }

    /// Serial reference for the union-under-aggregate shape: the two arms
    /// cover the whole table, so a plain serial aggregate over a full scan
    /// is the ground truth (sorted into the parallel key order).
    fn union_agg_reference(table: &Arc<DataTable>, txn: &Arc<Transaction>) -> Vec<Vec<Value>> {
        let PipelineSink::HashAggregate { groups, aggs } = union_agg_sink() else { unreachable!() };
        let mut op = crate::ops::HashAggregateOp::new(
            Box::new(TableScanOp::new(Arc::clone(table), Arc::clone(txn), probe_opts())),
            groups,
            aggs,
            None,
        );
        let mut rows = drain_rows(&mut op).unwrap();
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        rows
    }

    #[test]
    fn independent_join_builds_launch_concurrently() {
        // Two JoinBuild pipelines with no edges between them must share
        // the first scheduling round; the probe that needs both launches
        // only after they complete.
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let stats = GraphStats::new();
        let mut graph = PipelineGraph::new(Arc::clone(&txn), 4).with_stats(Arc::clone(&stats));
        let build_arm = |cmp: CmpOp, bound: i32| GraphNode::Pipeline {
            source: PipelineSource::Table(Arc::new(MorselSource::new(
                Arc::clone(&table),
                &txn,
                ScanOptions {
                    columns: vec![0, 1],
                    filters: vec![TableFilter::new(0, cmp, Value::Integer(bound))],
                    emit_row_ids: false,
                },
                VECTOR_SIZE,
            ))),
            links: vec![],
            sink: PipelineSink::JoinBuild { keys: join_key() },
        };
        let b1 = graph.add(build_arm(CmpOp::Lt, 100));
        let b2 = graph.add(build_arm(CmpOp::Lt, 100));
        let probe_link = |build: NodeId| GraphLink::Probe {
            build,
            left_keys: join_key(),
            join_type: JoinType::Inner,
            right_types: vec![LogicalType::Integer, LogicalType::Integer],
        };
        let probe = graph.add(GraphNode::Pipeline {
            source: PipelineSource::Table(Arc::new(MorselSource::new(
                Arc::clone(&table),
                &txn,
                probe_opts(),
                VECTOR_SIZE * 2,
            ))),
            links: vec![probe_link(b1), probe_link(b2)],
            sink: PipelineSink::Collect,
        });
        graph.set_outputs(vec![probe]);
        let (chunks, _res) = graph.execute().unwrap();
        // Both builds have one row per key, so the double probe keeps the
        // row count and widens to 6 columns.
        let n: usize = chunks.iter().map(DataChunk::len).sum();
        assert_eq!(n, ROWS as usize);
        assert_eq!(chunks[0].column_count(), 6);
        let rounds = stats.launch_rounds();
        assert!(
            rounds[0].contains(&b1) && rounds[0].contains(&b2),
            "independent builds must launch in the same round: {rounds:?}"
        );
        assert!(
            !rounds[0].contains(&probe),
            "the probe depends on both builds and cannot launch with them: {rounds:?}"
        );
        assert!(stats.max_concurrent() >= 2, "builds must overlap");
    }

    #[test]
    fn union_under_aggregate_streams_through_chunk_queue() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let expected = union_agg_reference(&table, &txn);
        assert_eq!(expected.len(), 100);
        for threads in [1, 2, 4, 8] {
            let (graph, queue, stats) = union_agg_graph(&table, &txn, threads, None);
            let (chunks, _res) = graph.execute().unwrap();
            let rows: Vec<Vec<Value>> = chunks.iter().flat_map(DataChunk::to_rows).collect();
            assert_eq!(rows, expected, "threads={threads}");
            assert!(
                queue.pushed_batches() > 0,
                "the union arms must stream batches through the queue"
            );
            // Producers and consumer co-schedule: all three nodes launch
            // in the first round and overlap.
            assert_eq!(stats.launch_rounds()[0], vec![0, 1, 2], "threads={threads}");
            assert_eq!(stats.max_concurrent(), 3, "threads={threads}");
        }
    }

    #[test]
    fn union_under_aggregate_respects_a_tight_memory_limit() {
        use eider_storage::buffer::{BufferManager, BufferManagerConfig};
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let expected = union_agg_reference(&table, &txn);
        for threads in [1, 2, 4, 8] {
            let buffers = BufferManager::new(BufferManagerConfig { memory_limit: 1 << 20 });
            let (graph, queue, _stats) =
                union_agg_graph(&table, &txn, threads, Some(Arc::clone(&buffers)));
            let (chunks, res) = graph.execute().unwrap();
            let rows: Vec<Vec<Value>> = chunks.iter().flat_map(DataChunk::to_rows).collect();
            assert_eq!(rows, expected, "threads={threads}");
            assert!(queue.pushed_batches() > 0);
            drop(res);
            drop(chunks);
            assert_eq!(buffers.used_memory(), 0, "all queue/agg reservations released");
        }
    }

    #[test]
    fn failing_union_arm_aborts_the_queue_and_surfaces_the_error() {
        // Arm 1 overflows an integer multiply mid-scan; the consumer must
        // wind down instead of waiting forever for the queue to close.
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let mut graph = PipelineGraph::new(Arc::clone(&txn), 2);
        let queue =
            Arc::new(ChunkQueue::new(vec![LogicalType::Integer, LogicalType::Integer], 2, 1 << 18));
        let bad_filter = Expr::Compare {
            op: CmpOp::Eq,
            left: Box::new(Expr::Arithmetic {
                op: crate::expression::ArithOp::Mul,
                left: Box::new(Expr::column(0, LogicalType::Integer)),
                right: Box::new(Expr::constant(Value::BigInt(i64::MAX))),
                ty: LogicalType::BigInt,
            }),
            right: Box::new(Expr::constant(Value::BigInt(1))),
        };
        for (arm, links) in [vec![], vec![GraphLink::Step(PipelineStep::Filter(bad_filter))]]
            .into_iter()
            .enumerate()
        {
            graph.add(GraphNode::Pipeline {
                source: PipelineSource::Table(Arc::new(MorselSource::new(
                    Arc::clone(&table),
                    &txn,
                    half_scan(arm == 0),
                    VECTOR_SIZE,
                ))),
                links,
                sink: PipelineSink::Queue { queue: Arc::clone(&queue), arm },
            });
        }
        let consumer = graph.add(GraphNode::Pipeline {
            source: PipelineSource::Queue(Arc::clone(&queue)),
            links: vec![],
            sink: union_agg_sink(),
        });
        graph.set_outputs(vec![consumer]);
        assert!(graph.execute().is_err(), "the failing arm's error must surface");
    }
}
