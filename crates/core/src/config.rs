//! Database configuration.

/// Tunables fixed at open time (runtime-adjustable ones have PRAGMAs).
#[derive(Debug, Clone)]
pub struct DatabaseConfig {
    /// Memory limit for operator allocations (PRAGMA memory_limit).
    /// Deliberately modest by default — an embedded DBMS shares the
    /// machine with its application (§4).
    pub memory_limit: usize,
    /// Worker thread cap (PRAGMA threads).
    pub threads: usize,
    /// WAL size (bytes) that triggers an automatic checkpoint.
    pub wal_autocheckpoint: u64,
    /// Feed the cooperation policy's host CPU load from the real `/proc`
    /// probe before each parallel query (`PRAGMA host_probe`). Off by
    /// default: the simulated monitor (tests, figure harnesses) then
    /// remains the only writer of the load signal.
    pub host_probe: bool,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            memory_limit: 1 << 30,
            // EIDER_THREADS pins the default worker cap (CI runs the suite
            // at 1 and 4 to exercise serial/parallel equivalence on any
            // host); otherwise every core the machine has.
            threads: std::env::var("EIDER_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n: &usize| n >= 1)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(2, |n| n.get())),
            wal_autocheckpoint: 16 << 20,
            host_probe: false,
        }
    }
}
