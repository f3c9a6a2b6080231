//! Bounded chunk queues: streaming edges between pipelines of a DAG.
//!
//! A [`ChunkQueue`] is the output edge of its *producer* pipelines and
//! feeds one *consumer* pipeline (source
//! [`PipelineSource::Queue`](crate::parallel::pipeline::PipelineSource))
//! that runs **concurrently** with them under the graph's readiness
//! scheduler. Producer workers of a
//! [`Collect`](crate::parallel::pipeline::PipelineSink::Collect) sink push
//! one [`QueueBatch`] per morsel — the chunks that morsel produced, tagged
//! with a deterministic sequence number — and consumer workers pop batches
//! as their unit of work, so a sink above a UNION ALL (aggregate, sort,
//! DISTINCT) consumes prior pipelines morsel-parallel instead of through a
//! serial concatenation wrapper.
//!
//! **Determinism.** Arrival order at the queue is racy, but every batch
//! carries a sequence composed from its producer's arm index and morsel
//! number ([`compose_seq`]). Consumer-side partial states are tagged with
//! that sequence and merged in sequence order, exactly like table-scan
//! morsels — so results stay bit-identical at every worker count.
//!
//! **Backpressure & §4 accounting.** The queue is bounded by buffered
//! *bytes*: producers block once `max_bytes` of chunks sit unconsumed
//! (always admitting at least one batch so a single oversized batch cannot
//! deadlock). Each batch travels with an optional
//! [`MemoryReservation`] charging its bytes to the buffer manager; the
//! reservation drops when the consumer finishes the batch, so concurrent
//! stages stay inside the memory budget.
//!
//! **Shutdown.** Producers [`close_producer`](ChunkQueue::close_producer)
//! (or, per arm, [`close_arm`](ChunkQueue::close_arm)) when their pipeline
//! completes; `pop` returns `None` once every producer closed and the
//! buffer drained. Any failing pipeline (either side)
//! [`abort`](ChunkQueue::abort)s the queue: blocked producers fail fast
//! with an error, blocked consumers wake and wind down, and the graph
//! surfaces the root cause.
//!
//! **Ordered mode (result edges).** A queue built
//! [`with_ordered`](ChunkQueue::with_ordered) is the *final* edge of a
//! graph: the cursor-facing side
//! ([`PipelineGraphOp`](crate::parallel::graph::PipelineGraphOp)) must
//! replay batches in composed-sequence order, not in arrival order. Two
//! extra guarantees make that possible without the consumer guessing:
//!
//! 1. producers push a batch for **every** work unit, even an empty one
//!    (sequence numbers per arm are gap-free), and
//! 2. the queue counts pushed batches per arm, so once an arm is closed
//!    ([`close_arm`](ChunkQueue::close_arm))
//!    [`arm_batches`](ChunkQueue::arm_batches) reports exactly how many
//!    batches that arm contributed — the consumer knows when to move on
//!    to the next arm instead of waiting forever for a sequence number
//!    that will never come.

use eider_storage::buffer::{BufferManager, MemoryReservation};
use eider_vector::{DataChunk, EiderError, LogicalType, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex};

/// Error text of the secondary failure a pipeline reports when its queue
/// was aborted from the outside. One definition, shared with the graph
/// scheduler's root-cause error selection ([`super::graph`]) so the
/// classification cannot drift from the message.
pub(crate) const QUEUE_ABORT_MSG: &str = "pipeline chunk queue aborted";

/// Byte bound of a streaming edge under a `budget`-byte memory limit: a
/// slice of the budget big enough to decouple producer and consumer,
/// small enough that queued chunks (charged per batch) cannot crowd out
/// operator state.
pub fn edge_bytes(budget: usize) -> usize {
    (budget / 8).clamp(1 << 16, 4 << 20)
}

/// Bits of a composed sequence reserved for the in-arm morsel number.
const ARM_SHIFT: u32 = 48;

/// Compose a deterministic batch sequence from a producer arm index and a
/// morsel sequence: arm-major, morsel-minor. Sorting consumer partials by
/// the composed value reproduces "arm 0's rows, then arm 1's" — the serial
/// UNION ALL order — regardless of queue arrival order.
pub fn compose_seq(arm: usize, morsel_seq: usize) -> usize {
    debug_assert!(arm < (1 << (usize::BITS - ARM_SHIFT - 1)), "arm index out of range");
    debug_assert!(morsel_seq < (1 << ARM_SHIFT), "morsel sequence out of range");
    (arm << ARM_SHIFT) | morsel_seq
}

/// Invert [`compose_seq`]: `(arm, morsel_seq)` of a composed sequence.
pub fn decompose_seq(seq: usize) -> (usize, usize) {
    (seq >> ARM_SHIFT, seq & ((1 << ARM_SHIFT) - 1))
}

/// Outcome of an ordering consumer's [`ChunkQueue::pop_ordered`].
pub enum OrderedPop {
    /// A batch was dequeued (any arm — the consumer reorders).
    Batch(QueueBatch),
    /// The watched arm has closed and the backlog is empty: all of its
    /// batches are already in the consumer's hands; advance the arm.
    ArmClosed,
    /// Every producer closed and the backlog drained — or the queue
    /// aborted; nothing further will arrive.
    Done,
}

/// One unit of queued work: the chunks one producer morsel emitted.
pub struct QueueBatch {
    /// Deterministic merge position (see [`compose_seq`]).
    pub seq: usize,
    pub chunks: Vec<DataChunk>,
    /// Charges the batch's bytes to the buffer manager while it sits in
    /// the queue and until the consumer finishes it.
    pub reservation: Option<MemoryReservation>,
}

impl QueueBatch {
    /// Total bytes of the batch's chunks.
    pub fn bytes(&self) -> usize {
        self.chunks.iter().map(DataChunk::size_bytes).sum()
    }
}

struct QueueState {
    batches: VecDeque<QueueBatch>,
    buffered_bytes: usize,
    open_producers: usize,
    aborted: bool,
    /// Bytes of batches admitted *without* a reservation under §4
    /// pressure (see [`ChunkQueue::reserve_batch`]); at most one such
    /// batch is in flight, so the untracked footprint stays bounded.
    untracked_bytes: usize,
    /// Per-arm batch counts, maintained only for ordered queues (indexed
    /// by the arm encoded in each batch's composed sequence).
    arm_pushed: Vec<usize>,
    /// Arms whose producer pipeline has closed; their `arm_pushed` count
    /// is final from that point on.
    arm_closed: Vec<bool>,
    /// Ordered queues: bytes pushed per arm and not yet *consumed* by the
    /// ordering consumer ([`ChunkQueue::batch_consumed`]) — pops into the
    /// consumer's reorder buffer do **not** decrement this, which is what
    /// lets the queue bound that buffer (see [`ChunkQueue::push`]).
    arm_outstanding: Vec<usize>,
    /// The arm the ordering consumer is currently replaying; its pushes
    /// are never arm-gated, so the replay always makes progress.
    active_arm: usize,
}

impl QueueState {
    fn arm_slot(&mut self, arm: usize) {
        if self.arm_pushed.len() <= arm {
            self.arm_pushed.resize(arm + 1, 0);
            self.arm_closed.resize(arm + 1, false);
            self.arm_outstanding.resize(arm + 1, 0);
        }
    }
}

/// A bounded multi-producer multi-consumer queue of chunk batches.
pub struct ChunkQueue {
    types: Vec<LogicalType>,
    max_bytes: usize,
    /// Upper bound on batches the producers will ever push (the planner
    /// knows their morsel counts); consumers size their fan-out from it.
    expected_batches: usize,
    /// Result-edge mode: producers push gap-free per-arm sequences (one
    /// batch per work unit, empty ones included) and the queue tracks
    /// per-arm batch counts so an ordering consumer can replay batches in
    /// composed-sequence order (see the module docs).
    ordered: bool,
    state: Mutex<QueueState>,
    /// Producers wait here for buffered bytes to drop below the bound.
    space: Condvar,
    /// Consumers wait here for batches (or for the last producer to close).
    items: Condvar,
    /// Total batches ever pushed (scheduler instrumentation: proves the
    /// edge streamed rather than materialized).
    pushed: AtomicUsize,
}

impl std::fmt::Debug for ChunkQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkQueue")
            .field("types", &self.types)
            .field("max_bytes", &self.max_bytes)
            .finish_non_exhaustive()
    }
}

impl ChunkQueue {
    /// A queue carrying `types`-shaped chunks from `producers` pipelines.
    /// `max_bytes` bounds the buffered backlog (floored at one vector's
    /// worth so tiny budgets cannot stall).
    pub fn new(types: Vec<LogicalType>, producers: usize, max_bytes: usize) -> Self {
        ChunkQueue {
            types,
            max_bytes: max_bytes.max(1 << 16),
            expected_batches: usize::MAX,
            ordered: false,
            state: Mutex::new(QueueState {
                batches: VecDeque::new(),
                buffered_bytes: 0,
                open_producers: producers,
                aborted: false,
                untracked_bytes: 0,
                arm_pushed: Vec::new(),
                arm_closed: Vec::new(),
                arm_outstanding: Vec::new(),
                active_arm: 0,
            }),
            space: Condvar::new(),
            items: Condvar::new(),
            pushed: AtomicUsize::new(0),
        }
    }

    /// Turn on ordered (result-edge) mode: producers commit to gap-free
    /// per-arm sequences — a batch per work unit, pushed even when the
    /// unit produced no chunks — and the queue counts batches per arm so
    /// [`ChunkQueue::arm_batches`] can tell an ordering consumer when an
    /// arm is exhausted.
    pub fn with_ordered(mut self) -> Self {
        self.ordered = true;
        self
    }

    /// Whether this queue is a result edge requiring gap-free sequences.
    pub fn is_ordered(&self) -> bool {
        self.ordered
    }

    /// Declare how many batches the producers will push at most (their
    /// total morsel count). Lets a sort consumer cap its worker fan-out
    /// the same way table-sourced sorts do — more workers mean more runs
    /// for the merge to absorb.
    pub fn with_expected_batches(mut self, batches: usize) -> Self {
        self.expected_batches = batches.max(1);
        self
    }

    /// Upper bound on batches this queue will carry (`usize::MAX` when
    /// the producers never declared one).
    pub fn expected_batches(&self) -> usize {
        self.expected_batches
    }

    /// Column types of every chunk flowing through the queue.
    pub fn types(&self) -> &[LogicalType] {
        &self.types
    }

    /// Batches pushed so far (instrumentation).
    pub fn pushed_batches(&self) -> usize {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Reserve budget for a batch about to be pushed, cooperating with the
    /// queue under §4 memory pressure: when the ledger cannot grant the
    /// bytes, wait for the consumer to drain the backlog (every pop
    /// releases an earlier batch's reservation) and retry. Only when the
    /// backlog is empty *and* no other unaccounted batch is in flight may
    /// the push proceed unaccounted (`None`) — the claim is taken under
    /// the queue lock, so concurrent producers cannot stack untracked
    /// batches; the worst-case untracked footprint is one batch,
    /// mirroring the serial operators' small unaccounted buffers.
    pub fn reserve_batch(
        &self,
        buffers: &Arc<BufferManager>,
        bytes: usize,
    ) -> Result<Option<MemoryReservation>> {
        loop {
            if let Ok(r) = buffers.reserve(bytes) {
                return Ok(Some(r));
            }
            let mut state = self.state.lock().expect("chunk queue poisoned");
            if state.aborted {
                return Err(EiderError::Internal(QUEUE_ABORT_MSG.into()));
            }
            if state.batches.is_empty() && state.untracked_bytes == 0 {
                // Claimed under the lock: the matching release happens
                // when the unaccounted batch is popped.
                state.untracked_bytes = bytes.max(1);
                return Ok(None);
            }
            // A pop will free space (ledger bytes or the untracked slot)
            // shortly; park until it does.
            drop(self.space.wait(state).expect("chunk queue poisoned"));
        }
    }

    /// Reserve-and-push in one step: the standard charged producer push
    /// shared by every producer — collect workers and aggregate and sort
    /// merges — so the reservation and gap-free-sequence invariants the
    /// ordered consumer relies on cannot drift between them. Non-empty batches
    /// travel with a reservation from [`ChunkQueue::reserve_batch`] when
    /// `buffers` is attached (degrading per its §4 rules); empty
    /// sequence-marker batches push uncharged.
    pub fn push_charged(
        &self,
        buffers: Option<&Arc<BufferManager>>,
        seq: usize,
        chunks: Vec<DataChunk>,
    ) -> Result<()> {
        let reservation = match buffers {
            Some(b) if !chunks.is_empty() => {
                self.reserve_batch(b, chunks.iter().map(DataChunk::size_bytes).sum())?
            }
            _ => None,
        };
        self.push(QueueBatch { seq, chunks, reservation })
    }

    /// Block until the queue has space, then enqueue `batch`. Fails once
    /// the queue is aborted so a producer stops scanning promptly after
    /// its consumer (or a sibling) died.
    ///
    /// **Ordered queues gate per arm too:** an arm the consumer is *not*
    /// currently replaying blocks once `max_bytes` of its pushes sit
    /// unconsumed ([`ChunkQueue::batch_consumed`]) — popped-but-held
    /// batches count, which is what bounds the consumer's reorder buffer
    /// to ~`max_bytes` per arm instead of letting a fast later arm pile
    /// its whole result there. The active arm is never arm-gated, so the
    /// in-order replay always makes progress (no circular wait: active
    /// producers depend only on the consumer, which depends on no one).
    pub fn push(&self, batch: QueueBatch) -> Result<()> {
        let arm = self.ordered.then(|| decompose_seq(batch.seq).0);
        let mut state = self.state.lock().expect("chunk queue poisoned");
        loop {
            if state.aborted {
                return Err(EiderError::Internal(QUEUE_ABORT_MSG.into()));
            }
            // A non-active arm past its unconsumed-bytes quota waits for
            // the consumer to reach it (first batch always admitted, so a
            // single oversized batch cannot deadlock the arm).
            let arm_gated = match arm {
                Some(a) => {
                    a != state.active_arm
                        && state.arm_outstanding.get(a).is_some_and(|&b| b >= self.max_bytes)
                }
                None => false,
            };
            // Admit when under the bound, or when empty: a single batch
            // larger than the whole bound must still make progress.
            if !arm_gated && (state.buffered_bytes < self.max_bytes || state.batches.is_empty()) {
                break;
            }
            state = self.space.wait(state).expect("chunk queue poisoned");
        }
        if let Some(arm) = arm {
            state.arm_slot(arm);
            state.arm_pushed[arm] += 1;
            state.arm_outstanding[arm] += batch.bytes();
        }
        state.buffered_bytes += batch.bytes();
        state.batches.push_back(batch);
        self.pushed.fetch_add(1, Ordering::Relaxed);
        self.items.notify_one();
        Ok(())
    }

    /// Ordering-consumer side: declare that replay has advanced to `arm`
    /// (earlier arms are exhausted). Wakes producers of the new active arm
    /// that were parked behind the per-arm quota.
    pub fn set_active_arm(&self, arm: usize) {
        let mut state = self.state.lock().expect("chunk queue poisoned");
        state.active_arm = arm;
        self.space.notify_all();
    }

    /// Ordering-consumer side: `bytes` of `arm`'s pushes have been
    /// activated for emission (left the reorder buffer), freeing that much
    /// of the arm's quota.
    pub fn batch_consumed(&self, arm: usize, bytes: usize) {
        let mut state = self.state.lock().expect("chunk queue poisoned");
        state.arm_slot(arm);
        state.arm_outstanding[arm] = state.arm_outstanding[arm].saturating_sub(bytes);
        self.space.notify_all();
    }

    /// Like [`ChunkQueue::pop`], but for the *ordering* consumer: also
    /// returns (without a batch) as soon as `waiting_arm` has closed and
    /// the backlog is empty. The consumer needs that extra wake-up: once
    /// the arm it is replaying closes, every one of its batches is in the
    /// consumer's reorder buffer, and the consumer must advance the
    /// active arm — which a plain `pop` would sleep through while a
    /// *later* arm's producers sit parked behind the per-arm quota
    /// (neither side could ever wake the other).
    pub fn pop_ordered(&self, waiting_arm: usize) -> OrderedPop {
        let mut state = self.state.lock().expect("chunk queue poisoned");
        loop {
            if state.aborted {
                return OrderedPop::Done;
            }
            if let Some(batch) = state.batches.pop_front() {
                state.buffered_bytes -= batch.bytes();
                if batch.reservation.is_none() && !batch.chunks.is_empty() {
                    state.untracked_bytes = 0;
                }
                self.space.notify_all();
                return OrderedPop::Batch(batch);
            }
            if state.open_producers == 0 {
                return OrderedPop::Done;
            }
            if state.arm_closed.get(waiting_arm) == Some(&true) {
                return OrderedPop::ArmClosed;
            }
            state = self.items.wait(state).expect("chunk queue poisoned");
        }
    }

    /// Block until a batch is available and dequeue it. Returns `None`
    /// once every producer has closed and the backlog drained, or as soon
    /// as the queue is aborted (the consumer's output is discarded on the
    /// error path, so winding down early is safe).
    pub fn pop(&self) -> Option<QueueBatch> {
        let mut state = self.state.lock().expect("chunk queue poisoned");
        loop {
            if state.aborted {
                return None;
            }
            if let Some(batch) = state.batches.pop_front() {
                state.buffered_bytes -= batch.bytes();
                if batch.reservation.is_none() && !batch.chunks.is_empty() {
                    // Release the unaccounted-batch slot claimed in
                    // `reserve_batch` (no-op for unbuffered queues). Empty
                    // sequence-marker batches never claimed the slot and
                    // must not free it on some other batch's behalf.
                    state.untracked_bytes = 0;
                }
                // All waiters: byte-bound blockers in `push` and producers
                // parked in `reserve_batch` both watch this condvar.
                self.space.notify_all();
                return Some(batch);
            }
            if state.open_producers == 0 {
                return None;
            }
            state = self.items.wait(state).expect("chunk queue poisoned");
        }
    }

    /// Mark one producer pipeline as complete; once all have closed,
    /// consumers drain the backlog and see end-of-stream.
    pub fn close_producer(&self) {
        let mut state = self.state.lock().expect("chunk queue poisoned");
        state.open_producers = state.open_producers.saturating_sub(1);
        if state.open_producers == 0 {
            self.items.notify_all();
        }
    }

    /// [`close_producer`](ChunkQueue::close_producer), additionally
    /// finalizing `arm`'s batch count: [`ChunkQueue::arm_batches`] reports
    /// `Some` for the arm from now on. Every push of the arm happens
    /// before its close (the pipeline closes only after all its workers
    /// joined), so the count is exact, never provisional.
    pub fn close_arm(&self, arm: usize) {
        let mut state = self.state.lock().expect("chunk queue poisoned");
        state.arm_slot(arm);
        state.arm_closed[arm] = true;
        state.open_producers = state.open_producers.saturating_sub(1);
        // Always wake consumers: an ordering consumer parked in
        // `pop_ordered` must observe *this arm's* closure even while
        // other producers stay open (it may need to advance the active
        // arm before those producers can push anything).
        self.items.notify_all();
    }

    /// Total batches arm `arm` pushed, once it closed (`None` while the
    /// arm is still producing). On an ordered queue this equals the arm's
    /// gap-free sequence length, so a consumer that has replayed this many
    /// batches of the arm knows it is exhausted.
    pub fn arm_batches(&self, arm: usize) -> Option<usize> {
        let state = self.state.lock().expect("chunk queue poisoned");
        match state.arm_closed.get(arm) {
            Some(true) => Some(state.arm_pushed[arm]),
            _ => None,
        }
    }

    /// Fail the edge: wake every blocked producer (their next `push`
    /// errors) and consumer (`pop` returns `None`). Idempotent.
    pub fn abort(&self) {
        let mut state = self.state.lock().expect("chunk queue poisoned");
        state.aborted = true;
        state.batches.clear();
        state.buffered_bytes = 0;
        state.untracked_bytes = 0;
        state.arm_outstanding.iter_mut().for_each(|b| *b = 0);
        self.space.notify_all();
        self.items.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eider_vector::Value;
    use std::sync::Arc;

    fn chunk(n: i32) -> DataChunk {
        let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Integer(i)]).collect();
        DataChunk::from_rows(&[LogicalType::Integer], &rows).unwrap()
    }

    fn batch(seq: usize, n: i32) -> QueueBatch {
        QueueBatch { seq, chunks: vec![chunk(n)], reservation: None }
    }

    #[test]
    fn compose_seq_is_arm_major() {
        assert!(compose_seq(0, 5) < compose_seq(1, 0));
        assert!(compose_seq(1, 0) < compose_seq(1, 1));
        assert!(compose_seq(1, usize::MAX >> 20) < compose_seq(2, 0));
    }

    #[test]
    fn drains_in_fifo_order_then_ends_after_close() {
        let q = ChunkQueue::new(vec![LogicalType::Integer], 1, usize::MAX);
        q.push(batch(3, 4)).unwrap();
        q.push(batch(1, 2)).unwrap();
        q.close_producer();
        assert_eq!(q.pop().unwrap().seq, 3);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert!(q.pop().is_none());
        assert_eq!(q.pushed_batches(), 2);
    }

    #[test]
    fn bounded_push_blocks_until_consumer_drains() {
        // Bound small enough that the second push must wait for a pop.
        let q = Arc::new(ChunkQueue::new(vec![LogicalType::Integer], 1, 1 << 16));
        q.push(QueueBatch {
            seq: 0,
            chunks: (0..20).map(|_| chunk(2048)).collect(),
            reservation: None,
        })
        .unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                q.push(batch(1, 8)).unwrap();
                q.close_producer();
            })
        };
        // The consumer side frees space; the producer finishes.
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert!(q.pop().is_none());
        producer.join().unwrap();
    }

    #[test]
    fn ordered_queue_tracks_per_arm_batch_counts() {
        let q = ChunkQueue::new(vec![LogicalType::Integer], 2, usize::MAX).with_ordered();
        assert!(q.is_ordered());
        q.push(batch(compose_seq(0, 0), 4)).unwrap();
        q.push(batch(compose_seq(1, 0), 4)).unwrap();
        q.push(batch(compose_seq(0, 1), 4)).unwrap();
        assert_eq!(q.arm_batches(0), None, "open arm: count not final yet");
        q.close_arm(0);
        assert_eq!(q.arm_batches(0), Some(2));
        assert_eq!(q.arm_batches(1), None);
        q.close_arm(1);
        assert_eq!(q.arm_batches(1), Some(1));
        assert_eq!(q.arm_batches(7), None, "arm that never pushed nor closed");
        // Both arms closed: the backlog drains, then end-of-stream.
        for _ in 0..3 {
            assert!(q.pop().is_some());
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn ordered_queue_gates_non_active_arms_by_unconsumed_bytes() {
        // Quota = max_bytes (floored at 64 KiB). Arm 1 is not active, so
        // once its unconsumed pushes exceed the quota, further pushes
        // must park until the consumer activates its earlier batches.
        let q = Arc::new(ChunkQueue::new(vec![LogicalType::Integer], 2, 1 << 16).with_ordered());
        q.push(QueueBatch {
            seq: compose_seq(1, 0),
            chunks: vec![chunk(40_000)], // ~160 KiB: first batch always admitted
            reservation: None,
        })
        .unwrap();
        // Popping into the reorder buffer does NOT free the arm's quota.
        let held = q.pop().unwrap();
        let blocked = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(batch(compose_seq(1, 1), 4)).unwrap())
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!blocked.is_finished(), "non-active arm must wait behind its quota");
        // The active arm is never arm-gated.
        q.push(batch(compose_seq(0, 0), 4)).unwrap();
        // Activating the held batch frees the quota and unparks arm 1.
        q.batch_consumed(1, held.bytes());
        blocked.join().unwrap();
        assert_eq!(q.pushed_batches(), 3);
    }

    #[test]
    fn pop_ordered_wakes_on_watched_arm_close_while_later_arm_is_gated() {
        // The deadlock interleaving the ordering consumer must survive:
        // arm 1 parked behind its quota, arm 0 closing with nothing left —
        // a plain `pop` would sleep forever (arm 1 cannot push until the
        // consumer advances the active arm, which it cannot do while
        // blocked). `pop_ordered` must return `ArmClosed` instead.
        let q = Arc::new(ChunkQueue::new(vec![LogicalType::Integer], 2, 1 << 16).with_ordered());
        q.push(QueueBatch {
            seq: compose_seq(1, 0),
            chunks: vec![chunk(40_000)], // exhausts arm 1's quota
            reservation: None,
        })
        .unwrap();
        let OrderedPop::Batch(held) = q.pop_ordered(0) else { panic!("expected the batch") };
        let gated = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(batch(compose_seq(1, 1), 4)).unwrap())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!gated.is_finished(), "arm 1 must park behind its quota");
        q.close_arm(0);
        assert!(
            matches!(q.pop_ordered(0), OrderedPop::ArmClosed),
            "watched-arm closure must wake the consumer, not strand it"
        );
        // The consumer advances: activate the held batch, move the active
        // arm — the gated producer unparks.
        q.batch_consumed(1, held.bytes());
        q.set_active_arm(1);
        gated.join().unwrap();
        q.close_arm(1);
        let OrderedPop::Batch(b) = q.pop_ordered(1) else { panic!("arm 1's second batch") };
        assert_eq!(b.seq, compose_seq(1, 1));
        assert!(matches!(q.pop_ordered(1), OrderedPop::Done));
    }

    #[test]
    fn decompose_inverts_compose() {
        for (arm, seq) in [(0, 0), (3, 17), (255, (1 << 40) + 5)] {
            assert_eq!(decompose_seq(compose_seq(arm, seq)), (arm, seq));
        }
    }

    #[test]
    fn abort_wakes_producers_with_error_and_consumers_with_none() {
        let q = Arc::new(ChunkQueue::new(vec![LogicalType::Integer], 2, usize::MAX));
        q.push(batch(0, 4)).unwrap();
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                // First pop gets the batch; the second blocks until abort.
                let first = q.pop();
                let second = q.pop();
                (first.is_some(), second.is_none())
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.abort();
        let (first, second) = popper.join().unwrap();
        assert!(first && second);
        assert!(q.push(batch(1, 4)).is_err(), "push after abort must fail");
    }
}
