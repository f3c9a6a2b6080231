//! The buffer manager: memory accounting.
//!
//! **Cooperation (§4)** — "DuckDB for now allows the user to manually set
//! hard limits on memory": every memory-hungry operator (hash join build
//! sides, sort runs, aggregation tables) reserves its footprint through
//! the buffer manager, which enforces the configured limit and thereby
//! drives operators to spill or switch strategies.
//!
//! §3's allocation-time memory test is not wired in: no operator takes
//! its memory from here, so there is no allocation to test yet. The
//! moving-inversions tester lives in [`eider_resilience::memtest`].

use eider_resilience::memtest::MemRegion;
use eider_vector::{EiderError, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Configuration for the buffer manager.
#[derive(Debug, Clone)]
pub struct BufferManagerConfig {
    /// Hard memory limit in bytes for tracked allocations (§4).
    pub memory_limit: usize,
}

impl Default for BufferManagerConfig {
    fn default() -> Self {
        // The paper's cooperation argument: never assume the whole machine.
        // Default to a deliberately modest 1 GiB rather than probing for
        // all available RAM the way server DBMSs do.
        BufferManagerConfig { memory_limit: 1 << 30 }
    }
}

/// Tracks all operator memory against the configured limit.
///
/// Accounts form a tree: [`BufferManager::sub_account`] carves a
/// per-session *quota* out of a parent account. A reservation on a
/// sub-account charges every level up to the root, so a session can never
/// exceed its own quota *or* push the database past its global limit, and
/// one session's hunger is invisible to its siblings' quotas.
#[derive(Debug)]
pub struct BufferManager {
    limit: AtomicUsize,
    used: AtomicUsize,
    /// High-water mark of `used` since construction (or the last
    /// [`BufferManager::reset_peak`]); benchmarks report it as the peak
    /// accounted footprint of a workload.
    peak: AtomicUsize,
    /// Parent account when this is a session sub-account; charges and
    /// releases propagate up the chain.
    parent: Option<Arc<BufferManager>>,
}

impl BufferManager {
    pub fn new(config: BufferManagerConfig) -> Arc<Self> {
        Arc::new(BufferManager {
            limit: AtomicUsize::new(config.memory_limit),
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            parent: None,
        })
    }

    /// A session quota carved out of this account. Its reservations
    /// are charged against *both* its own quota and every ancestor, so
    /// the global limit still holds across all sessions combined.
    pub fn sub_account(self: &Arc<Self>, quota: usize) -> Arc<BufferManager> {
        Arc::new(BufferManager {
            limit: AtomicUsize::new(quota),
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            parent: Some(Arc::clone(self)),
        })
    }

    /// True for accounts created via [`BufferManager::sub_account`].
    pub fn is_sub_account(&self) -> bool {
        self.parent.is_some()
    }

    /// The effective limit: this account's own limit capped by every
    /// ancestor's (a session quota larger than the global limit still
    /// cannot reserve past the global limit).
    pub fn memory_limit(&self) -> usize {
        let own = self.limit.load(Ordering::Relaxed);
        match &self.parent {
            Some(p) => own.min(p.memory_limit()),
            None => own,
        }
    }

    /// Adjust the limit at runtime (`PRAGMA memory_limit`, or the adaptive
    /// controller of §4 shrinking the DBMS under application pressure).
    pub fn set_memory_limit(&self, bytes: usize) {
        self.limit.store(bytes, Ordering::Relaxed);
    }

    pub fn used_memory(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Headroom before a reservation would fail: this account's own
    /// headroom capped by every ancestor's.
    pub fn available_memory(&self) -> usize {
        let own = self.limit.load(Ordering::Relaxed).saturating_sub(self.used_memory());
        match &self.parent {
            Some(p) => own.min(p.available_memory()),
            None => own,
        }
    }

    /// High-water mark of accounted memory since construction or the last
    /// [`BufferManager::reset_peak`] — what a workload's §4 footprint
    /// actually peaked at, as opposed to where it happens to sit now.
    pub fn peak_memory(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restart peak tracking (benchmarks call this between phases).
    pub fn reset_peak(&self) {
        self.peak.store(self.used_memory(), Ordering::Relaxed);
    }

    /// Reserve `bytes` against the limit; fails with `OutOfMemory` when the
    /// budget is exhausted, which is the signal operators use to spill. On
    /// a sub-account the charge propagates through every ancestor (and is
    /// rolled back at each level if a higher one refuses).
    pub fn reserve(self: &Arc<Self>, bytes: usize) -> Result<MemoryReservation> {
        self.charge(bytes)?;
        Ok(MemoryReservation { mgr: Arc::clone(self), bytes })
    }

    fn charge(&self, bytes: usize) -> Result<()> {
        let own_limit = self.limit.load(Ordering::Relaxed);
        let mut current = self.used.load(Ordering::Relaxed);
        loop {
            let new = current + bytes;
            if new > own_limit {
                let knob = if self.parent.is_some() {
                    "raise the quota with PRAGMA session_memory_limit"
                } else {
                    "raise the limit with PRAGMA memory_limit"
                };
                return Err(EiderError::OutOfMemory(format!(
                    "cannot reserve {bytes} bytes: {current} of {own_limit} in use \
                     ({knob} or let the operator spill)",
                )));
            }
            match self.used.compare_exchange_weak(
                current,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
        if let Some(parent) = &self.parent {
            if let Err(e) = parent.charge(bytes) {
                self.used.fetch_sub(bytes, Ordering::Relaxed);
                return Err(e);
            }
        }
        self.peak.fetch_max(self.used.load(Ordering::Relaxed), Ordering::Relaxed);
        Ok(())
    }

    fn release(&self, bytes: usize) {
        self.used.fetch_sub(bytes, Ordering::Relaxed);
        if let Some(parent) = &self.parent {
            parent.release(bytes);
        }
    }
}

/// RAII memory reservation; releases its bytes on drop.
#[derive(Debug)]
pub struct MemoryReservation {
    mgr: Arc<BufferManager>,
    bytes: usize,
}

impl MemoryReservation {
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Grow the reservation in place (e.g. a hash table doubling).
    pub fn grow(&mut self, extra: usize) -> Result<()> {
        let add = self.mgr.reserve(extra)?;
        // Merge: forget the temp guard, absorb its bytes.
        let add_bytes = add.bytes;
        std::mem::forget(add);
        self.bytes += add_bytes;
        Ok(())
    }

    /// Shrink the reservation (e.g. after spilling a partition).
    pub fn shrink(&mut self, less: usize) {
        let less = less.min(self.bytes);
        self.bytes -= less;
        self.mgr.release(less);
    }
}

impl Drop for MemoryReservation {
    fn drop(&mut self) {
        self.mgr.release(self.bytes);
    }
}

/// Adapter: treat a byte slice as a word-addressable [`MemRegion`] (tail
/// bytes that do not fill a word are not tested).
pub struct ByteRegion<'a>(pub &'a mut [u8]);

impl MemRegion for ByteRegion<'_> {
    fn len_words(&self) -> usize {
        self.0.len() / 8
    }
    fn read_word(&self, idx: usize) -> u64 {
        u64::from_le_bytes(self.0[idx * 8..idx * 8 + 8].try_into().expect("8"))
    }
    fn write_word(&mut self, idx: usize, value: u64) {
        self.0[idx * 8..idx * 8 + 8].copy_from_slice(&value.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr(limit: usize) -> Arc<BufferManager> {
        BufferManager::new(BufferManagerConfig { memory_limit: limit })
    }

    #[test]
    fn reserve_and_release() {
        let m = mgr(1000);
        let r = m.reserve(400).unwrap();
        assert_eq!(m.used_memory(), 400);
        let r2 = m.reserve(600).unwrap();
        assert_eq!(m.available_memory(), 0);
        assert!(m.reserve(1).is_err());
        drop(r);
        assert_eq!(m.used_memory(), 600);
        drop(r2);
        assert_eq!(m.used_memory(), 0);
    }

    #[test]
    fn peak_tracks_the_high_water_mark() {
        let m = mgr(1000);
        let r = m.reserve(400).unwrap();
        let r2 = m.reserve(300).unwrap();
        drop(r);
        assert_eq!(m.used_memory(), 300);
        assert_eq!(m.peak_memory(), 700, "peak survives releases");
        m.reset_peak();
        assert_eq!(m.peak_memory(), 300, "reset re-bases on current usage");
        drop(r2);
        assert_eq!(m.peak_memory(), 300);
    }

    #[test]
    fn grow_and_shrink() {
        let m = mgr(1000);
        let mut r = m.reserve(100).unwrap();
        r.grow(200).unwrap();
        assert_eq!(m.used_memory(), 300);
        assert!(r.grow(800).is_err());
        r.shrink(250);
        assert_eq!(m.used_memory(), 50);
        drop(r);
        assert_eq!(m.used_memory(), 0);
    }

    #[test]
    fn limit_can_change_at_runtime() {
        let m = mgr(100);
        assert!(m.reserve(200).is_err());
        m.set_memory_limit(500);
        let _r = m.reserve(200).unwrap();
        assert_eq!(m.memory_limit(), 500);
    }

    #[test]
    fn concurrent_reservations_respect_limit() {
        let m = mgr(10_000);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    let mut ok = 0;
                    for _ in 0..100 {
                        if let Ok(r) = m.reserve(100) {
                            ok += 1;
                            drop(r);
                        }
                    }
                    ok
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.used_memory(), 0);
    }

    #[test]
    fn sub_account_charges_propagate_to_the_root() {
        let root = mgr(1000);
        let a = root.sub_account(600);
        let b = root.sub_account(600);
        assert!(a.is_sub_account() && !root.is_sub_account());
        let ra = a.reserve(400).unwrap();
        assert_eq!(a.used_memory(), 400);
        assert_eq!(root.used_memory(), 400, "session charge visible at the root");
        // b's quota would allow 600, but the root only has 600 left and a
        // holds 400 of it: b can take 600 only if the root agrees.
        let rb = b.reserve(600).unwrap();
        assert_eq!(root.used_memory(), 1000);
        assert!(a.reserve(1).is_err(), "root exhausted even inside a's quota");
        drop(ra);
        drop(rb);
        assert_eq!(root.used_memory(), 0);
        assert_eq!(a.used_memory(), 0);
        assert_eq!(b.used_memory(), 0);
    }

    #[test]
    fn sub_account_quota_is_enforced_independently() {
        let root = mgr(1000);
        let a = root.sub_account(200);
        let err = a.reserve(300).unwrap_err();
        assert!(err.to_string().contains("session_memory_limit"), "{err}");
        assert_eq!(root.used_memory(), 0, "refused charge leaves the root untouched");
        let _r = a.reserve(200).unwrap();
        assert!(a.reserve(1).is_err(), "quota full");
        assert_eq!(root.available_memory(), 800, "siblings keep the rest");
    }

    #[test]
    fn sub_account_rolls_back_own_charge_when_the_root_refuses() {
        let root = mgr(500);
        let a = root.sub_account(400);
        let b = root.sub_account(400);
        let _rb = b.reserve(300).unwrap();
        assert!(a.reserve(400).is_err(), "root has only 200 left");
        assert_eq!(a.used_memory(), 0, "failed reservation fully rolled back");
        assert_eq!(root.used_memory(), 300);
    }

    #[test]
    fn sub_account_effective_limit_is_min_over_the_chain() {
        let root = mgr(1000);
        let a = root.sub_account(1 << 40);
        assert_eq!(a.memory_limit(), 1000, "quota larger than the root is capped");
        let b = root.sub_account(100);
        assert_eq!(b.memory_limit(), 100);
        let _r = root.reserve(950).unwrap();
        assert_eq!(b.available_memory(), 50, "available is capped by root headroom");
    }

    #[test]
    fn sub_account_grow_and_shrink_propagate() {
        let root = mgr(1000);
        let a = root.sub_account(500);
        let mut r = a.reserve(100).unwrap();
        r.grow(200).unwrap();
        assert_eq!(a.used_memory(), 300);
        assert_eq!(root.used_memory(), 300);
        r.shrink(250);
        assert_eq!(a.used_memory(), 50);
        assert_eq!(root.used_memory(), 50);
        drop(r);
        assert_eq!(root.used_memory(), 0);
    }

    #[test]
    fn byte_region_round_trips_words() {
        let mut bytes = vec![0u8; 20];
        let mut region = ByteRegion(&mut bytes);
        assert_eq!(region.len_words(), 2);
        region.write_word(1, 0xDEADBEEF);
        assert_eq!(region.read_word(1), 0xDEADBEEF);
        assert_eq!(region.read_word(0), 0);
    }
}
