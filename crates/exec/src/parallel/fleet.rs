//! The shared worker fleet: admission and fair-share partitioning across
//! concurrently-executing pipeline graphs.
//!
//! Through PR 5 every query sized its own fan-out as if it were alone on
//! the machine: N sessions each running a parallel query would together
//! spawn N × `worker_threads()` workers. The fleet makes the worker
//! budget a *database-wide* resource:
//!
//! * **admission** — a graph must hold a [`FleetLease`] to execute.
//!   Leases are granted up to a cap (default [`WorkerFleet::default_cap`];
//!   `PRAGMA admission_limit` overrides); past the cap, new queries
//!   *block at the gate* — cheaper and fairer than launching unboundedly
//!   many graphs that thrash each other's caches. The lease is acquired
//!   on the session's own thread *before* the graph's background
//!   scheduler spawns, so a blocked admission never holds engine threads
//!   hostage, and dropping a cursor mid-wait simply abandons the gate.
//! * **fair share** — each launch round of a graph's readiness scheduler
//!   asks the fleet for its slice: `total_threads / admitted_graphs`,
//!   then divided across the graph's own in-flight nodes (floored at one
//!   worker). Because the share is re-read *every round*, workers migrate
//!   between graphs at morsel-round granularity: when a sibling query
//!   finishes and releases its lease, the next round of every running
//!   graph immediately computes a larger share. (Workers never join a
//!   *currently running* pipeline mid-flight — reassignment happens at
//!   node-launch boundaries, the same granularity the single-graph
//!   scheduler already uses.)
//!
//! The fleet itself owns no threads: pipelines keep their scoped
//! fork-join workers ([`TaskScheduler`](crate::parallel::scheduler::TaskScheduler)),
//! so worker lifetime stays bounded by query lifetime. What the fleet
//! owns is the *arithmetic* — how many workers each graph may spawn — and
//! the admission gate. The total is refreshed by the engine from the
//! cooperation policy (`PRAGMA threads` clamped by host CPU load), so §4
//! host feedback now divides across sessions instead of multiplying.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Database-wide worker budget and admission gate. Shared by every
/// session's queries via `Arc`.
#[derive(Debug)]
pub struct WorkerFleet {
    /// Total worker threads to divide across admitted graphs (refreshed
    /// from the cooperation policy before each parallel query).
    threads: AtomicUsize,
    /// Maximum concurrently admitted graphs; excess admissions block.
    cap: AtomicUsize,
    /// Count of currently admitted graphs, guarded for the gate.
    admitted: Mutex<usize>,
    gate: Condvar,
}

impl WorkerFleet {
    /// A fleet of `threads` workers with the default admission cap.
    pub fn new(threads: usize) -> Arc<Self> {
        Self::with_cap(threads, Self::default_cap(threads))
    }

    /// A fleet with an explicit admission cap (floored at one — a cap of
    /// zero would deadlock every query at the gate).
    pub fn with_cap(threads: usize, cap: usize) -> Arc<Self> {
        Arc::new(WorkerFleet {
            threads: AtomicUsize::new(threads.max(1)),
            cap: AtomicUsize::new(cap.max(1)),
            admitted: Mutex::new(0),
            gate: Condvar::new(),
        })
    }

    /// Default admission cap: generous enough that open-but-undrained
    /// streaming cursors (each holds its lease until drained or dropped)
    /// do not starve the gate, small enough to bound graph thrash.
    pub fn default_cap(threads: usize) -> usize {
        (threads * 2).max(8)
    }

    /// Total worker threads currently divided across admitted graphs.
    pub fn threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed)
    }

    /// Refresh the worker total (PRAGMA threads, or the §4 CPU clamp).
    /// Running graphs pick the new total up at their next launch round.
    pub fn set_threads(&self, threads: usize) {
        self.threads.store(threads.max(1), Ordering::Relaxed);
    }

    pub fn admission_cap(&self) -> usize {
        self.cap.load(Ordering::Relaxed)
    }

    /// Change the admission cap (`PRAGMA admission_limit`). Raising it
    /// wakes queries blocked at the gate.
    pub fn set_admission_cap(&self, cap: usize) {
        self.cap.store(cap.max(1), Ordering::Relaxed);
        self.gate.notify_all();
    }

    /// Graphs currently holding a lease.
    pub fn active(&self) -> usize {
        *self.admitted.lock().expect("fleet gate")
    }

    /// Block until an admission slot is free, then take it. Call on the
    /// session thread, never from inside a running pipeline.
    pub fn admit(self: &Arc<Self>) -> FleetLease {
        let mut admitted = self.admitted.lock().expect("fleet gate");
        while *admitted >= self.admission_cap() {
            admitted = self.gate.wait(admitted).expect("fleet gate");
        }
        *admitted += 1;
        FleetLease { fleet: Arc::clone(self) }
    }

    /// Take a slot only if one is free right now.
    pub fn try_admit(self: &Arc<Self>) -> Option<FleetLease> {
        let mut admitted = self.admitted.lock().expect("fleet gate");
        if *admitted >= self.admission_cap() {
            return None;
        }
        *admitted += 1;
        Some(FleetLease { fleet: Arc::clone(self) })
    }

    /// Worker share for one graph launch round: the fleet divided evenly
    /// across admitted graphs, then across `nodes_in_flight` concurrent
    /// nodes of this graph, floored at one worker per node so progress
    /// never stalls (transient oversubscription over starvation).
    pub fn node_share(&self, nodes_in_flight: usize) -> usize {
        let per_graph = self.threads() / self.active().max(1);
        (per_graph / nodes_in_flight.max(1)).max(1)
    }

    fn release(&self) {
        let mut admitted = self.admitted.lock().expect("fleet gate");
        *admitted = admitted.saturating_sub(1);
        self.gate.notify_one();
    }
}

/// RAII admission slot: holding it entitles one graph to a fleet share;
/// dropping it re-opens the gate and (at the next launch round) grows the
/// shares of the graphs still running.
#[derive(Debug)]
pub struct FleetLease {
    fleet: Arc<WorkerFleet>,
}

impl FleetLease {
    pub fn fleet(&self) -> &Arc<WorkerFleet> {
        &self.fleet
    }
}

impl Drop for FleetLease {
    fn drop(&mut self) {
        self.fleet.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn share_divides_across_admitted_graphs_and_nodes() {
        let fleet = WorkerFleet::new(8);
        let a = fleet.admit();
        assert_eq!(fleet.node_share(1), 8, "alone: the whole fleet");
        assert_eq!(fleet.node_share(2), 4, "split across own nodes");
        let b = fleet.admit();
        assert_eq!(fleet.active(), 2);
        assert_eq!(fleet.node_share(1), 4, "two graphs: half each");
        assert_eq!(fleet.node_share(4), 1);
        drop(a);
        assert_eq!(fleet.node_share(1), 8, "released share returns to survivors");
        drop(b);
        assert_eq!(fleet.active(), 0);
    }

    #[test]
    fn share_floors_at_one_worker() {
        let fleet = WorkerFleet::new(2);
        let _leases: Vec<FleetLease> = (0..3).map(|_| fleet.admit()).collect();
        assert_eq!(fleet.node_share(5), 1, "oversubscribed but never zero");
        assert_eq!(WorkerFleet::new(0).threads(), 1, "threads floor");
    }

    #[test]
    fn admission_cap_blocks_until_a_lease_releases() {
        // Fixed interleaving for the admission handoff: the second graph
        // must observably wait at the gate and enter only once the first
        // lease drops.
        let fleet = WorkerFleet::with_cap(4, 1);
        let first = fleet.admit();
        assert!(fleet.try_admit().is_none(), "gate full");
        let (tx, rx) = mpsc::channel();
        let waiter = {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || {
                tx.send("at-gate").unwrap();
                let lease = fleet.admit();
                tx.send("admitted").unwrap();
                drop(lease);
            })
        };
        assert_eq!(rx.recv().unwrap(), "at-gate");
        // The waiter must still be blocked: the slot is ours.
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "second admission slipped past a full gate"
        );
        drop(first);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "admitted");
        waiter.join().unwrap();
        assert_eq!(fleet.active(), 0);
    }

    #[test]
    fn raising_the_cap_wakes_blocked_admissions() {
        let fleet = WorkerFleet::with_cap(4, 1);
        let _first = fleet.admit();
        let (tx, rx) = mpsc::channel();
        let waiter = {
            let fleet = Arc::clone(&fleet);
            std::thread::spawn(move || {
                let _lease = fleet.admit();
                tx.send(()).unwrap();
            })
        };
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        fleet.set_admission_cap(2);
        rx.recv_timeout(Duration::from_secs(5)).expect("cap raise admits the waiter");
        waiter.join().unwrap();
    }

    #[test]
    fn set_threads_changes_future_shares() {
        let fleet = WorkerFleet::new(4);
        let _lease = fleet.admit();
        assert_eq!(fleet.node_share(1), 4);
        fleet.set_threads(16);
        assert_eq!(fleet.node_share(1), 16, "running graphs see the new total next round");
    }
}
