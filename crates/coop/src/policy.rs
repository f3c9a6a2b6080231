//! The runtime resource policy shared between the cooperation layer and
//! the execution engine.
//!
//! §4: "There are plenty of run-time choices in a DBMS that influence the
//! resource consumption across the different hardware devices." The policy
//! object is the channel: the host probe (or the user, via PRAGMAs) writes
//! it; operators read it at plan and run time.

use crate::compression::CompressionLevel;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Which join algorithm the physical planner should use.
///
/// "A hash join can be transparently replaced with a out-of-core merge
/// join. The hash join uses a large amount of main memory ... but few CPU
/// cycles ... The merge requires fewer main memory resources to run, but
/// O(n log n) CPU cycles as well as disk IO."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    Hash,
    OutOfCoreMerge,
}

/// Decide the join strategy from the estimated build-side footprint and
/// the memory actually available to the DBMS right now.
pub fn choose_join_strategy(build_bytes_estimate: usize, available_memory: usize) -> JoinStrategy {
    // The hash table roughly doubles the build side (entries + buckets);
    // demote to merge join when that would not fit comfortably.
    match build_bytes_estimate.checked_mul(2) {
        Some(need) if need <= available_memory => JoinStrategy::Hash,
        _ => JoinStrategy::OutOfCoreMerge,
    }
}

/// Clamp a requested worker-thread count by the host application's CPU
/// load (a fraction in `[0, 1]` across all cores): the DBMS takes the
/// cores the application is not using, but never fewer than one.
///
/// This is the CPU-axis analogue of [`choose_join_strategy`]: §4's
/// cooperation story applied to the parallel executor's fan-out.
pub fn clamp_worker_threads(requested: usize, app_cpu_load: f64) -> usize {
    let free = (1.0 - app_cpu_load.clamp(0.0, 1.0)) * requested as f64;
    (free.floor() as usize).clamp(1, requested.max(1))
}

/// Memory-axis cooperation against a *real* host (§4): shrink the
/// configured DBMS memory limit while the rest of the machine is under
/// memory pressure, never below a 1/20 floor of the configured limit.
///
/// `host_total` and `host_other_used` come from the `/proc` probe
/// (`HostResourceProbe::sample_host_memory`): total machine RAM and the
/// bytes everything *except* this process currently uses. The effective
/// limit is the configured one capped by what the machine actually has
/// left — an embedded DBMS takes the memory the host application is not
/// using, it does not hold a budget the machine cannot back.
///
/// ```
/// use eider_coop::policy::effective_memory_limit;
/// // Plenty free: the configured limit stands.
/// assert_eq!(effective_memory_limit(1 << 30, 16 << 30, 4 << 30), 1 << 30);
/// // The host is squeezed: only what is left, down to the floor.
/// assert_eq!(effective_memory_limit(1 << 30, 16 << 30, (16u64 << 30) as usize - (1 << 28)),
///            1 << 28);
/// assert_eq!(effective_memory_limit(1 << 30, 16 << 30, 16 << 30), (1 << 30) / 20);
/// ```
pub fn effective_memory_limit(
    configured: usize,
    host_total: usize,
    host_other_used: usize,
) -> usize {
    if host_total == 0 {
        return configured; // no measurement: the configured limit stands
    }
    let free_for_dbms = host_total.saturating_sub(host_other_used);
    let floor = (configured / 20).max(1);
    configured.min(free_for_dbms).max(floor)
}

/// Fair per-session slice of the DBMS memory budget when the host-probe
/// feedback loop is on: the effective limit divided evenly across the
/// sessions participating in rebalancing, floored at a 1/20 slice of the
/// limit so a burst of connections cannot shrink anyone's quota to
/// nothing. (With the probe off, sessions are not rebalanced at all —
/// each may use the whole limit, and the account chain alone prevents a
/// combined overshoot.)
///
/// ```
/// use eider_coop::policy::fair_session_share;
/// assert_eq!(fair_session_share(1 << 20, 4), 1 << 18);
/// assert_eq!(fair_session_share(1 << 20, 1), 1 << 20);
/// // The floor: 40 sessions do not get 1/40 slices.
/// assert_eq!(fair_session_share(1 << 20, 40), (1 << 20) / 20);
/// assert_eq!(fair_session_share(1 << 20, 0), 1 << 20);
/// ```
pub fn fair_session_share(effective_limit: usize, sessions: usize) -> usize {
    let floor = (effective_limit / 20).max(1);
    (effective_limit / sessions.max(1)).max(floor)
}

/// Shared mutable runtime policy (lock-free reads on the hot path).
#[derive(Debug)]
pub struct ResourcePolicy {
    compression: AtomicU8,
    memory_limit: AtomicUsize,
    threads: AtomicUsize,
    /// Host application CPU load, stored as percent (0..=100) so it fits
    /// an atomic.
    app_cpu_percent: AtomicU8,
}

impl Default for ResourcePolicy {
    fn default() -> Self {
        ResourcePolicy {
            compression: AtomicU8::new(CompressionLevel::None.as_u8()),
            memory_limit: AtomicUsize::new(1 << 30),
            threads: AtomicUsize::new(std::thread::available_parallelism().map_or(2, |n| n.get())),
            app_cpu_percent: AtomicU8::new(0),
        }
    }
}

impl ResourcePolicy {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub fn compression(&self) -> CompressionLevel {
        CompressionLevel::from_u8(self.compression.load(Ordering::Relaxed)).expect("valid level")
    }

    pub fn set_compression(&self, level: CompressionLevel) {
        self.compression.store(level.as_u8(), Ordering::Relaxed);
    }

    pub fn memory_limit(&self) -> usize {
        self.memory_limit.load(Ordering::Relaxed)
    }

    pub fn set_memory_limit(&self, bytes: usize) {
        self.memory_limit.store(bytes, Ordering::Relaxed);
    }

    pub fn threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed).max(1)
    }

    pub fn set_threads(&self, n: usize) {
        self.threads.store(n.max(1), Ordering::Relaxed);
    }

    /// Record the host application's CPU load (fraction in `[0, 1]`);
    /// pushed by whoever samples a [`crate::monitor::ResourceMonitor`].
    pub fn set_app_cpu_load(&self, load: f64) {
        let pct = (load.clamp(0.0, 1.0) * 100.0).round() as u8;
        self.app_cpu_percent.store(pct, Ordering::Relaxed);
    }

    /// Last recorded host application CPU load, as a fraction.
    pub fn app_cpu_load(&self) -> f64 {
        f64::from(self.app_cpu_percent.load(Ordering::Relaxed)) / 100.0
    }

    /// How many workers the parallel executor should actually fan out to
    /// *right now*: the configured [`ResourcePolicy::threads`] cap,
    /// dynamically shrunk while the host application is burning CPU
    /// (§4 — the embedded DBMS shares the machine, it does not own it).
    pub fn worker_threads(&self) -> usize {
        clamp_worker_threads(self.threads(), self.app_cpu_load())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_limit_tracks_host_pressure() {
        let gib = 1usize << 30;
        // Unconstrained host: configured limit untouched.
        assert_eq!(effective_memory_limit(gib, 16 * gib, 2 * gib), gib);
        // Exactly enough left: still the full limit.
        assert_eq!(effective_memory_limit(gib, 16 * gib, 15 * gib), gib);
        // Less left than configured: the limit shrinks to what exists.
        assert_eq!(effective_memory_limit(gib, 16 * gib, 15 * gib + gib / 2), gib / 2);
        // Host fully committed (or over-committed): the 1/20 floor holds.
        assert_eq!(effective_memory_limit(gib, 16 * gib, 16 * gib), gib / 20);
        assert_eq!(effective_memory_limit(gib, 16 * gib, 20 * gib), gib / 20);
        // No measurement: pass through.
        assert_eq!(effective_memory_limit(gib, 0, 123), gib);
        // Tiny configured limits keep a non-zero floor.
        assert_eq!(effective_memory_limit(10, 100, 100), 1);
    }

    #[test]
    fn join_strategy_crossover() {
        assert_eq!(choose_join_strategy(100, 1000), JoinStrategy::Hash);
        assert_eq!(choose_join_strategy(600, 1000), JoinStrategy::OutOfCoreMerge);
        assert_eq!(choose_join_strategy(500, 1000), JoinStrategy::Hash);
        assert_eq!(
            choose_join_strategy(usize::MAX / 2 + 1, usize::MAX),
            JoinStrategy::OutOfCoreMerge
        );
    }

    #[test]
    fn worker_threads_shrink_under_app_cpu_pressure() {
        assert_eq!(clamp_worker_threads(8, 0.0), 8);
        assert_eq!(clamp_worker_threads(8, 0.5), 4);
        assert_eq!(clamp_worker_threads(8, 0.95), 1, "floor at one worker");
        assert_eq!(clamp_worker_threads(1, 0.0), 1);
        assert_eq!(clamp_worker_threads(4, 2.0), 1, "load clamped to [0,1]");

        let p = ResourcePolicy::new();
        p.set_threads(8);
        assert_eq!(p.worker_threads(), 8);
        p.set_app_cpu_load(0.75);
        assert_eq!(p.app_cpu_load(), 0.75);
        assert_eq!(p.worker_threads(), 2);
        p.set_app_cpu_load(0.0);
        assert_eq!(p.worker_threads(), 8);
    }

    #[test]
    fn policy_round_trips() {
        let p = ResourcePolicy::new();
        assert_eq!(p.compression(), CompressionLevel::None);
        p.set_compression(CompressionLevel::Heavy);
        assert_eq!(p.compression(), CompressionLevel::Heavy);
        p.set_memory_limit(1234);
        assert_eq!(p.memory_limit(), 1234);
        p.set_threads(0);
        assert_eq!(p.threads(), 1, "floor at one thread");
    }
}
