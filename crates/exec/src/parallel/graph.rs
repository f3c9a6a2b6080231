//! The pipeline DAG: multi-pipeline scheduling with breaker-state handoff.
//!
//! A single `ParallelPipeline` can only express `source → step* → sink`.
//! Real query shapes are *graphs* of such pipelines connected by pipeline
//! breakers: a hash join's build pipeline must finish before its probe
//! pipeline starts, a sort's runs must all exist before the merge, and a
//! UNION ALL is two sibling pipelines feeding one result. The
//! [`PipelineGraph`] models exactly that:
//!
//! * **nodes** are pipelines, each over one of three sources: table
//!   morsels, a chunk queue fed by other nodes, or a serially-lowered
//!   operator one worker pulls a chunk at a time (an input too small or
//!   too irregular to split into morsels);
//! * **edges** pass breaker state between them: an immutable shared
//!   [`BuildSide`] flows from a join-build node into the
//!   [`GraphLink::Probe`] links of later nodes, and every other node has
//!   exactly one output edge — a [`ChunkQueue`] and the arm it feeds;
//! * **outputs** name the nodes whose chunks form the graph's result, in
//!   order; more than one output node models UNION ALL. Their output edge
//!   is the ordered result queue [`PipelineGraphOp`] replays.
//!
//! Execution is driven by a **readiness scheduler**: a node becomes ready
//! the moment every node it depends on (through a [`GraphLink::Probe`]
//! edge) has completed, and *all* ready nodes run concurrently — each on
//! its own scoped thread, fanning its workers out through the
//! [`TaskScheduler`](crate::parallel::scheduler::TaskScheduler) with a
//! proportional share of the fleet. Independent join builds overlap, the
//! arms of a UNION ALL scan side by side, and a [`ChunkQueue`] edge
//! streams batches from producer pipelines into a consumer that runs *at
//! the same time* (queue edges are co-scheduling edges, not blocking
//! dependencies). Every node's merge step is deterministic and queue
//! batches carry deterministic sequence tags, so the whole DAG returns
//! bit-identical rows at any worker count.
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
//! graph: the output nodes feed an ordered result [`ChunkQueue`] and the
//! graph executes on a background thread while the facade replays
//! batches in composed-sequence order, one chunk per pull (see the type
//! docs for the protocol). A [`GraphStats`] attachment records the
//! scheduler's launch rounds and peak node concurrency for tests and
//! inspection.

use crate::expression::Expr;
use crate::ops::join::{BuildSide, JoinType};
use crate::ops::PhysicalOperator;
use crate::parallel::fleet::{FleetLease, WorkerFleet};
use crate::parallel::pipeline::{
    sink_output_types, ParallelPipeline, PipelineSink, PipelineSource, PipelineStep,
};
use crate::parallel::queue::{
    compose_seq, edge_bytes, ChunkQueue, OrderedPop, QueueBatch, QUEUE_ABORT_MSG,
};
use eider_coop::compression::CompressionLevel;
use eider_storage::buffer::BufferManager;
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

/// One node of the DAG: a pipeline from `source` through `links` into
/// `sink`.
pub struct GraphNode {
    pub source: PipelineSource,
    pub links: Vec<GraphLink>,
    pub sink: PipelineSink,
    /// The output edge: the chunk queue and arm this node's results feed.
    /// The planner sets it for the UNION ALL arms under a sink, and the
    /// graph sets it to the result queue for its output nodes. A join
    /// build has none — its output is the build side its probes share.
    pub out: Option<(Arc<ChunkQueue>, usize)>,
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

/// An executable DAG of parallel pipelines, bound to one query's
/// transaction. Build with [`PipelineGraph::new`] + [`PipelineGraph::add`],
/// declare the output node(s) with [`PipelineGraph::set_outputs`], and run
/// it by pulling a [`PipelineGraphOp`].
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
        }
    }

    /// Partition workers through a shared [`WorkerFleet`] instead of this
    /// graph's private thread budget; [`PipelineGraphOp`] acquires the
    /// admission lease before the graph starts.
    pub fn with_fleet(mut self, fleet: Option<Arc<WorkerFleet>>) -> Self {
        self.fleet = fleet;
        self
    }

    /// Acquire the fleet admission slot (blocking at the gate if the
    /// database is at its admission limit); a no-op without a fleet.
    /// [`PipelineGraphOp`] calls this on the *session's* thread before
    /// spawning the background scheduler, so a query waiting for
    /// admission costs no engine threads and holds no queue a running
    /// graph could block on.
    fn admit(&mut self) {
        if let Some(fleet) = &self.fleet {
            self.lease = Some(fleet.admit());
        }
    }

    /// Record scheduling decisions (launch rounds, peak concurrency) into
    /// `stats` during execution.
    pub fn with_stats(mut self, stats: Arc<GraphStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Account pipeline state (queued batches, sort runs, aggregate
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

    /// Point the output nodes' edges at `queue`, arm by arm in output
    /// order. `queue` must be [ordered](ChunkQueue::with_ordered) and sized
    /// for one producer per output node.
    fn stream_into(&mut self, queue: &Arc<ChunkQueue>) -> Result<()> {
        for (arm, &id) in self.outputs.iter().enumerate() {
            let node = &mut self.nodes[id];
            if node.out.is_some() || matches!(node.sink, PipelineSink::JoinBuild { .. }) {
                return Err(EiderError::Internal(
                    "a graph output must be a node without another output".into(),
                ));
            }
            node.out = Some((Arc::clone(queue), arm));
        }
        Ok(())
    }

    /// Column types a node's chain feeds into its sink.
    fn chain_types(&self, id: NodeId) -> Vec<LogicalType> {
        let node = &self.nodes[id];
        fold_link_types(node.source.base_types(), &node.links)
    }

    /// Column types of the graph's final output (the output nodes agree on
    /// them by construction — UNION ALL requires it).
    pub fn output_types(&self) -> Vec<LogicalType> {
        let Some(&first) = self.outputs.first() else { return Vec::new() };
        sink_output_types(&self.nodes[first].sink, || self.chain_types(first))
    }

    /// Nodes a node must wait for: the build side of every probe link.
    /// Queue edges are deliberately absent — a queue consumer co-schedules
    /// with its producers and synchronizes through the queue itself.
    fn node_deps(node: &GraphNode) -> Vec<NodeId> {
        node.links
            .iter()
            .filter_map(|link| match link {
                GraphLink::Probe { build, .. } => Some(*build),
                GraphLink::Step(_) => None,
            })
            .collect()
    }

    /// Execute the DAG under the readiness scheduler; every node's output
    /// leaves through its output edge (join builds hand their build side
    /// to their probers).
    ///
    /// Scheduling: each round launches *every* node whose probe
    /// dependencies have completed, one scoped thread per node, splitting
    /// the worker fleet proportionally; the scheduler then waits for the
    /// next completion and re-evaluates. On the first failure it aborts
    /// all queues, launches nothing further, and drains in-flight nodes
    /// before surfacing the error.
    fn execute(mut self) -> Result<()> {
        let fleet = self.fleet.clone();
        let nodes = std::mem::take(&mut self.nodes);
        let weights = std::mem::take(&mut self.weights);
        let n = nodes.len();
        let deps: Vec<Vec<NodeId>> = nodes.iter().map(Self::node_deps).collect();
        // Failure anywhere stops the whole graph promptly: sources stop
        // dispensing work (queue sources also fail their producers) and
        // output edges wake their blocked peers.
        let sources: Vec<PipelineSource> = nodes.iter().map(|n| n.source.clone()).collect();
        let edges: Vec<Arc<ChunkQueue>> =
            nodes.iter().filter_map(|n| n.out.as_ref().map(|(q, _)| Arc::clone(q))).collect();
        let abort_graph = || {
            for src in &sources {
                src.abort();
            }
            for q in &edges {
                q.abort();
            }
        };
        let mut slots: Vec<Option<GraphNode>> = nodes.into_iter().map(Some).collect();
        let mut builds: Vec<Option<Arc<BuildSide>>> = vec![None; n];
        let mut done = vec![false; n];
        let mut first_error: Option<EiderError> = None;
        let stats = self.stats.clone();
        let threads = self.threads;
        // A panicking node must not strand the scheduler: its payload is
        // parked here and re-raised only after every in-flight node has
        // wound down (queues aborted so none blocks forever).
        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;

        std::thread::scope(|scope| {
            type NodeVerdict = std::thread::Result<Result<Option<Arc<BuildSide>>>>;
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
                        match self.prepare(node, &builds) {
                            Ok(pipeline) => launchable.push((id, pipeline)),
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
                        let (id, pipeline) = launchable.pop().expect("checked");
                        done[id] = true;
                        if let Some(stats) = &stats {
                            stats.record_share(id, share);
                        }
                        let outcome = pipeline.execute(share);
                        if let Some(stats) = &stats {
                            stats.record_finish();
                        }
                        match outcome {
                            Ok(build) => builds[id] = build,
                            Err(e) => {
                                if first_error.is_none() {
                                    first_error = Some(e);
                                }
                                abort_graph();
                            }
                        }
                        continue;
                    }
                    for (id, pipeline) in launchable {
                        running += 1;
                        let share = node_share(id);
                        if let Some(stats) = &stats {
                            stats.record_share(id, share);
                        }
                        let tx = tx.clone();
                        let stats = stats.clone();
                        scope.spawn(move || {
                            // Catch panics so the completion message is
                            // always sent — an unwinding node thread must
                            // not leave the scheduler blocked in recv()
                            // (the panic is re-raised after the drain).
                            let out =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    pipeline.execute(share)
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
                    Ok(Ok(build)) => builds[id] = build,
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
        first_error.map_or(Ok(()), Err)
    }

    /// Resolve a launchable node's probe links against completed builds
    /// into the pipeline its thread runs.
    fn prepare(
        &self,
        node: GraphNode,
        builds: &[Option<Arc<BuildSide>>],
    ) -> Result<ParallelPipeline> {
        let GraphNode { source, links, sink, out } = node;
        let steps = links
            .into_iter()
            .map(|link| match link {
                GraphLink::Step(step) => Ok(step),
                GraphLink::Probe { build, left_keys, join_type, right_types } => {
                    match builds.get(build) {
                        Some(Some(b)) => Ok(PipelineStep::JoinProbe {
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
            .collect::<Result<Vec<_>>>()?;
        Ok(ParallelPipeline::new(source, Arc::clone(&self.txn), steps, sink, out)
            .with_buffers(self.buffers.clone())
            .with_sort_budget(self.sort_budget)
            .with_compression(self.compression))
    }
}

/// Consumer half of a running streamed graph: the readiness scheduler
/// executes on a dedicated background thread, its output nodes push
/// batches into an ordered [`ChunkQueue`], and this side replays them in
/// composed-sequence order — "arm 0's batches in sequence, then arm 1's"
/// — so the stream is row-identical to the serial UNION ALL
/// concatenation at every worker count. Batches that arrive ahead of their turn wait in
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

/// A [`PhysicalOperator`] facade over a pipeline DAG, and the only way to
/// run one: on the first pull the output nodes' edges are pointed at a
/// fresh ordered result [`ChunkQueue`] and the graph executes on a
/// background thread;
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

    /// Point the graph's outputs at a fresh ordered result queue and
    /// launch the scheduler on its own thread.
    fn start(&mut self) -> Result<()> {
        let mut graph = self
            .graph
            .take()
            .ok_or_else(|| EiderError::Internal("pipeline DAG executed twice".into()))?;
        let arms = graph.outputs.len();
        // The same byte bound as inter-node queue edges.
        let budget = graph.buffers.as_ref().map_or(usize::MAX, |b| b.memory_limit());
        let queue = Arc::new(
            ChunkQueue::new(self.out_types.clone(), arms, edge_bytes(budget)).with_ordered(),
        );
        graph.stream_into(&queue)?;
        // Admission happens here, on the consumer's own thread, *before*
        // the background scheduler exists: a query blocked at the fleet
        // gate holds no engine thread and owns no queue a peer could be
        // waiting on, so the gate can never deadlock the fleet.
        graph.admit();
        let handle = std::thread::Builder::new()
            .name("eider-graph".into())
            .spawn(move || graph.execute())
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
    use crate::ops::{drain_rows, FilterOp, HashJoinOp, OperatorBox, TableScanOp};
    use crate::parallel::morsel::MorselSource;
    use eider_storage::buffer::BufferManagerConfig;
    use eider_txn::{CmpOp, DataTable, ScanOptions, TableFilter, TransactionManager};
    use eider_vector::{Value, VECTOR_SIZE};
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// The graph's rows, drained through the production entry point.
    fn rows(graph: PipelineGraph) -> Result<Vec<Vec<Value>>> {
        drain_rows(&mut PipelineGraphOp::new(graph))
    }

    fn probe_opts() -> ScanOptions {
        ScanOptions { columns: vec![0, 1], filters: vec![], emit_row_ids: false }
    }

    /// A morsel-parallel node scanning `opts` from the fixture table.
    fn scan_node(
        table: &Arc<DataTable>,
        txn: &Arc<Transaction>,
        opts: ScanOptions,
        morsel_rows: usize,
        links: Vec<GraphLink>,
        sink: PipelineSink,
    ) -> GraphNode {
        let source = MorselSource::new(Arc::clone(table), txn, opts, morsel_rows);
        GraphNode { source: PipelineSource::Table(Arc::new(source)), links, sink, out: None }
    }

    fn range(cmp: CmpOp, bound: i32) -> ScanOptions {
        ScanOptions {
            columns: vec![0, 1],
            filters: vec![TableFilter::new(0, cmp, Value::Integer(bound))],
            emit_row_ids: false,
        }
    }

    fn build_scan(table: &Arc<DataTable>, txn: &Arc<Transaction>) -> OperatorBox {
        // Build side: rows with id < 100 (one per key value).
        Box::new(TableScanOp::new(Arc::clone(table), Arc::clone(txn), range(CmpOp::Lt, 100)))
    }

    fn join_key() -> Vec<Expr> {
        vec![Expr::column(1, LogicalType::Integer)]
    }

    fn probe_link(build: NodeId) -> GraphLink {
        GraphLink::Probe {
            build,
            left_keys: join_key(),
            join_type: JoinType::Inner,
            right_types: vec![LogicalType::Integer, LogicalType::Integer],
        }
    }

    /// A join-build node pulling `input` serially.
    fn serial_build(input: OperatorBox) -> GraphNode {
        GraphNode {
            source: PipelineSource::serial(input),
            links: vec![],
            sink: PipelineSink::JoinBuild { keys: join_key() },
            out: None,
        }
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
            graph.add(scan_node(
                table,
                txn,
                probe_opts(),
                VECTOR_SIZE,
                vec![GraphLink::Step(PipelineStep::Filter(Expr::Compare {
                    op: CmpOp::Lt,
                    left: Box::new(Expr::column(0, LogicalType::Integer)),
                    right: Box::new(Expr::constant(Value::Integer(100))),
                }))],
                PipelineSink::JoinBuild { keys: join_key() },
            ))
        } else {
            graph.add(serial_build(build_scan(table, txn)))
        };
        let probe = graph.add(scan_node(
            table,
            txn,
            probe_opts(),
            VECTOR_SIZE * 2,
            vec![probe_link(build)],
            PipelineSink::Collect,
        ));
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
            assert_eq!(rows(graph).unwrap(), serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_build_pipeline_hands_build_side_to_probe_pipeline() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let serial = serial_join_rows(&table, &txn);
        for threads in [1, 2, 8] {
            let graph = probe_graph(&table, &txn, threads, true);
            assert_eq!(rows(graph).unwrap(), serial, "threads={threads}");
        }
    }

    #[test]
    fn weighted_nodes_split_the_round_budget_by_estimated_rows() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        // Two independent scans launch in the same round; the one weighted
        // like a fact table should receive nearly the whole budget while
        // the dimension-sized one still gets its guaranteed worker.
        let mut graph = PipelineGraph::new(Arc::clone(&txn), 8);
        let arm = |cmp, bound| {
            scan_node(&table, &txn, range(cmp, bound), VECTOR_SIZE, vec![], PipelineSink::Collect)
        };
        let heavy = graph.add_weighted(arm(CmpOp::GtEq, 100), ROWS as u64);
        let light = graph.add_weighted(arm(CmpOp::Lt, 100), 100);
        graph.set_outputs(vec![heavy, light]);
        let stats = GraphStats::new();
        let graph = graph.with_stats(Arc::clone(&stats));
        assert_eq!(rows(graph).unwrap().len(), ROWS as usize);
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
        let serial: Vec<Vec<Value>> = {
            let mut low: OperatorBox = Box::new(TableScanOp::new(
                Arc::clone(&table),
                Arc::clone(&txn),
                range(CmpOp::Lt, 5_000),
            ));
            let mut high: OperatorBox = Box::new(TableScanOp::new(
                Arc::clone(&table),
                Arc::clone(&txn),
                range(CmpOp::GtEq, 25_000),
            ));
            let mut rows = drain_rows(low.as_mut()).unwrap();
            rows.extend(drain_rows(high.as_mut()).unwrap());
            rows
        };
        for threads in [1, 2, 8] {
            let mut graph = PipelineGraph::new(Arc::clone(&txn), threads);
            let arm = |cmp, bound| {
                scan_node(
                    &table,
                    &txn,
                    range(cmp, bound),
                    VECTOR_SIZE,
                    vec![],
                    PipelineSink::Collect,
                )
            };
            let low = graph.add(arm(CmpOp::Lt, 5_000));
            let high = graph.add(arm(CmpOp::GtEq, 25_000));
            graph.set_outputs(vec![low, high]);
            assert_eq!(rows(graph).unwrap(), serial, "threads={threads}");
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
            let build = graph.add(serial_build(build_scan(&table, &txn)));
            let probe = graph.add(scan_node(
                &table,
                &txn,
                probe_opts(),
                VECTOR_SIZE * 2,
                vec![probe_link(build)],
                PipelineSink::Sort {
                    keys: vec![SortKey::desc(Expr::column(0, LogicalType::Integer))],
                    limit: Some((7, 2)),
                },
            ));
            graph.set_outputs(vec![probe]);
            assert_eq!(rows(graph).unwrap(), expected, "threads={threads}");
        }
    }

    #[test]
    fn probe_link_against_non_build_node_errors() {
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let mut graph = PipelineGraph::new(Arc::clone(&txn), 2);
        // Node 0 collects chunks — probing it must fail, not panic.
        let node = |links| {
            scan_node(&table, &txn, probe_opts(), VECTOR_SIZE, links, PipelineSink::Collect)
        };
        let collect = graph.add(node(vec![]));
        let probe = graph.add(node(vec![probe_link(collect)]));
        graph.set_outputs(vec![collect, probe]);
        let err = rows(graph).unwrap_err();
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

    /// Emits `(i, i % 100)` in full chunks, up to `chunks` of them,
    /// counting every pull.
    struct CountingOp {
        pulls: Arc<AtomicUsize>,
        chunks: usize,
    }

    impl PhysicalOperator for CountingOp {
        fn output_types(&self) -> Vec<LogicalType> {
            vec![LogicalType::Integer, LogicalType::Integer]
        }

        fn next_chunk(&mut self) -> Result<Option<DataChunk>> {
            let pull = self.pulls.fetch_add(1, Ordering::SeqCst);
            if pull >= self.chunks {
                return Ok(None);
            }
            let first = (pull * VECTOR_SIZE) as i32;
            let rows: Vec<Vec<Value>> = (first..first + VECTOR_SIZE as i32)
                .map(|i| vec![Value::Integer(i), Value::Integer(i % 100)])
                .collect();
            DataChunk::from_rows(&self.output_types(), &rows).map(Some)
        }
    }

    #[test]
    fn serial_probe_stops_pulling_when_the_consumer_drops() {
        // A LIMIT above a serially-pulled probe takes one chunk and drops
        // the cursor: the serial input must not be drained behind it, and
        // every reservation must come back.
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let buffers = BufferManager::new(BufferManagerConfig { memory_limit: 1 << 20 });
        let pulls = Arc::new(AtomicUsize::new(0));
        const CHUNKS: usize = 1_000;
        let mut graph =
            PipelineGraph::new(Arc::clone(&txn), 4).with_buffers(Some(Arc::clone(&buffers)));
        let build = graph.add(serial_build(build_scan(&table, &txn)));
        let probe = graph.add(GraphNode {
            source: PipelineSource::serial(Box::new(CountingOp {
                pulls: Arc::clone(&pulls),
                chunks: CHUNKS,
            })),
            links: vec![probe_link(build)],
            sink: PipelineSink::Collect,
            out: None,
        });
        graph.set_outputs(vec![probe]);
        let mut op = PipelineGraphOp::new(graph);
        let first = op.next_chunk().unwrap().expect("a first chunk");
        assert_eq!((first.len(), first.column_count()), (VECTOR_SIZE, 4));
        drop(first);
        drop(op);
        let pulled = pulls.load(Ordering::SeqCst);
        assert!(pulled < CHUNKS / 10, "the serial input was drained: {pulled} pulls");
        assert_eq!(buffers.used_memory(), 0, "every reservation released");
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
                    scope.spawn(move || rows(graph).unwrap())
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
        // Regression guard: a serial build over a filtered serial chain
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
        let build = graph.add(serial_build(filtered));
        let probe = graph.add(scan_node(
            &table,
            &txn,
            probe_opts(),
            VECTOR_SIZE * 2,
            vec![probe_link(build)],
            PipelineSink::Collect,
        ));
        graph.set_outputs(vec![probe]);
        assert_eq!(rows(graph).unwrap().len(), ROWS as usize);
    }

    /// A `(arm, morsel)`-composed scan over half the fixture table.
    fn half_scan(low_half: bool) -> ScanOptions {
        if low_half {
            range(CmpOp::Lt, 15_000)
        } else {
            range(CmpOp::GtEq, 15_000)
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

    /// The union arms `links` (one list per arm, over the two halves of
    /// the table) streaming into a shared chunk queue, consumed by an
    /// aggregate pipeline that runs concurrently with them.
    fn union_agg_graph(
        table: &Arc<DataTable>,
        txn: &Arc<Transaction>,
        threads: usize,
        buffers: Option<Arc<BufferManager>>,
        links: [Vec<GraphLink>; 2],
    ) -> (PipelineGraph, Arc<ChunkQueue>, Arc<GraphStats>) {
        let stats = GraphStats::new();
        let mut graph = PipelineGraph::new(Arc::clone(txn), threads)
            .with_buffers(buffers)
            .with_stats(Arc::clone(&stats));
        let queue =
            Arc::new(ChunkQueue::new(vec![LogicalType::Integer, LogicalType::Integer], 2, 1 << 18));
        for (arm, links) in links.into_iter().enumerate() {
            let mut node = scan_node(
                table,
                txn,
                half_scan(arm == 0),
                VECTOR_SIZE,
                links,
                PipelineSink::Collect,
            );
            node.out = Some((Arc::clone(&queue), arm));
            graph.add(node);
        }
        let consumer = graph.add(GraphNode {
            source: PipelineSource::Queue(Arc::clone(&queue)),
            links: vec![],
            sink: union_agg_sink(),
            out: None,
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
        let build_arm = || {
            let sink = PipelineSink::JoinBuild { keys: join_key() };
            scan_node(&table, &txn, range(CmpOp::Lt, 100), VECTOR_SIZE, vec![], sink)
        };
        let b1 = graph.add(build_arm());
        let b2 = graph.add(build_arm());
        let probe = graph.add(scan_node(
            &table,
            &txn,
            probe_opts(),
            VECTOR_SIZE * 2,
            vec![probe_link(b1), probe_link(b2)],
            PipelineSink::Collect,
        ));
        graph.set_outputs(vec![probe]);
        let rows = rows(graph).unwrap();
        // Both builds have one row per key, so the double probe keeps the
        // row count and widens to 6 columns.
        assert_eq!(rows.len(), ROWS as usize);
        assert_eq!(rows[0].len(), 6);
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
            let (graph, queue, stats) =
                union_agg_graph(&table, &txn, threads, None, [vec![], vec![]]);
            assert_eq!(rows(graph).unwrap(), expected, "threads={threads}");
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
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
        let expected = union_agg_reference(&table, &txn);
        for threads in [1, 2, 4, 8] {
            let buffers = BufferManager::new(BufferManagerConfig { memory_limit: 1 << 20 });
            let (graph, queue, _stats) = union_agg_graph(
                &table,
                &txn,
                threads,
                Some(Arc::clone(&buffers)),
                [vec![], vec![]],
            );
            assert_eq!(rows(graph).unwrap(), expected, "threads={threads}");
            assert!(queue.pushed_batches() > 0);
            assert_eq!(buffers.used_memory(), 0, "all queue/agg reservations released");
        }
    }

    #[test]
    fn failing_union_arm_aborts_the_queue_and_surfaces_the_error() {
        // Arm 1 overflows an integer multiply mid-scan; the consumer must
        // wind down instead of waiting forever for the queue to close.
        let (mgr, table) = fixture();
        let txn = Arc::new(mgr.begin());
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
        let (graph, _queue, _stats) = union_agg_graph(
            &table,
            &txn,
            2,
            None,
            [vec![], vec![GraphLink::Step(PipelineStep::Filter(bad_filter))]],
        );
        assert!(rows(graph).is_err(), "the failing arm's error must surface");
    }
}
