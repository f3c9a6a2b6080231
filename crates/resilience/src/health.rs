//! Process-wide hardware health tracking.
//!
//! Table 1 of the paper shows that a machine which has suffered one
//! hardware failure is ~two orders of magnitude more likely to fail again
//! (e.g. DRAM: first failure 1 in 1700, next failure 1 in 12). The paper
//! derives a policy from this: *"we could afford to use more lightweight
//! error detection routines if we can verify that the hardware is working
//! as expected."*
//!
//! [`HealthMonitor`] implements that policy: it counts detected integrity
//! events (checksum mismatches, AN-code violations, failed memory tests)
//! and escalates the process from [`CheckingMode::Relaxed`] to
//! [`CheckingMode::Paranoid`] on the first event. The buffer manager then
//! switches from quick allocation-time memory tests to full moving
//! inversions, and repeated faults can take the system to
//! [`CheckingMode::Failed`], where it refuses writes rather than risk
//! silent corruption.

use std::sync::atomic::{AtomicU64, Ordering};

/// How aggressively integrity checks run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckingMode {
    /// No faults observed: lightweight checks (quick memory test, checksums).
    Relaxed,
    /// At least one fault observed: full memory tests, verify-after-write.
    Paranoid,
    /// Fault threshold exceeded: cease operation ("rather than allowing
    /// data corruption ... cease operation entirely", §3).
    Failed,
}

/// Categories of detected integrity events (mirrors Table 1's components).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCategory {
    /// Block checksum mismatch on read: persistent-storage corruption.
    DiskCorruption,
    /// Failed memory test or AN-code violation: DRAM corruption.
    MemoryCorruption,
    /// Any other self-check failure.
    Other,
}

/// Shared, lock-free health state.
#[derive(Debug, Default)]
pub struct HealthMonitor {
    disk_faults: AtomicU64,
    memory_faults: AtomicU64,
    other_faults: AtomicU64,
}

/// Number of faults after which the monitor declares the hardware failed.
const FAIL_THRESHOLD: u64 = 8;

impl HealthMonitor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a detected fault; returns the (possibly escalated) mode.
    pub fn record_fault(&self, category: FaultCategory) -> CheckingMode {
        match category {
            FaultCategory::DiskCorruption => self.disk_faults.fetch_add(1, Ordering::Relaxed),
            FaultCategory::MemoryCorruption => self.memory_faults.fetch_add(1, Ordering::Relaxed),
            FaultCategory::Other => self.other_faults.fetch_add(1, Ordering::Relaxed),
        };
        self.mode()
    }

    pub fn total_faults(&self) -> u64 {
        self.disk_faults.load(Ordering::Relaxed)
            + self.memory_faults.load(Ordering::Relaxed)
            + self.other_faults.load(Ordering::Relaxed)
    }

    pub fn disk_faults(&self) -> u64 {
        self.disk_faults.load(Ordering::Relaxed)
    }

    pub fn memory_faults(&self) -> u64 {
        self.memory_faults.load(Ordering::Relaxed)
    }

    /// Current checking mode derived from fault history.
    pub fn mode(&self) -> CheckingMode {
        let total = self.total_faults();
        if total >= FAIL_THRESHOLD {
            CheckingMode::Failed
        } else if total > 0 {
            CheckingMode::Paranoid
        } else {
            CheckingMode::Relaxed
        }
    }

    /// True if it is still safe to accept writes.
    pub fn operational(&self) -> bool {
        self.mode() != CheckingMode::Failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_relaxed() {
        let h = HealthMonitor::new();
        assert_eq!(h.mode(), CheckingMode::Relaxed);
        assert!(h.operational());
    }

    #[test]
    fn first_fault_escalates_to_paranoid() {
        let h = HealthMonitor::new();
        let mode = h.record_fault(FaultCategory::MemoryCorruption);
        assert_eq!(mode, CheckingMode::Paranoid);
        assert_eq!(h.memory_faults(), 1);
        assert!(h.operational());
    }

    #[test]
    fn repeated_faults_fail_the_system() {
        let h = HealthMonitor::new();
        for _ in 0..FAIL_THRESHOLD {
            h.record_fault(FaultCategory::DiskCorruption);
        }
        assert_eq!(h.mode(), CheckingMode::Failed);
        assert!(!h.operational());
    }

    #[test]
    fn categories_tracked_separately() {
        let h = HealthMonitor::new();
        h.record_fault(FaultCategory::DiskCorruption);
        h.record_fault(FaultCategory::MemoryCorruption);
        h.record_fault(FaultCategory::MemoryCorruption);
        assert_eq!(h.disk_faults(), 1);
        assert_eq!(h.memory_faults(), 2);
        assert_eq!(h.total_faults(), 3);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        use std::sync::Arc;
        let h = Arc::new(HealthMonitor::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        h.record_fault(FaultCategory::Other);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.total_faults(), 400);
        assert_eq!(h.mode(), CheckingMode::Failed);
    }
}
