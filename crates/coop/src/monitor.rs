//! Observing the host application's resource usage.
//!
//! §4: "An embedded OLAP system can monitor resource usage of all other
//! running applications and then tweak its run-time behavior accordingly."
//! Observation is platform-specific, so the engine reacts to the
//! [`ResourceMonitor`] trait: the `/proc`-based
//! [`HostResourceProbe`](crate::hostprobe::HostResourceProbe) implements
//! it on Linux, and the paper regenerators in `crates/bench` implement it
//! with a scripted application trace (DESIGN.md, substitution F1).

/// A point-in-time picture of the application's resource consumption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceUsage {
    /// Bytes of RAM the application is using.
    pub app_memory_bytes: usize,
    /// Application CPU utilization in [0, 1] across all cores.
    pub app_cpu: f64,
}

/// Source of application resource observations.
pub trait ResourceMonitor: Send + Sync {
    fn sample(&self) -> ResourceUsage;
}

/// Fixed usage — for tests and for "no cooperation" baselines.
#[derive(Debug)]
pub struct StaticMonitor {
    usage: ResourceUsage,
}

impl StaticMonitor {
    pub fn new(app_memory_bytes: usize, app_cpu: f64) -> Self {
        StaticMonitor { usage: ResourceUsage { app_memory_bytes, app_cpu } }
    }
}

impl ResourceMonitor for StaticMonitor {
    fn sample(&self) -> ResourceUsage {
        self.usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_monitor_is_constant() {
        let m = StaticMonitor::new(1024, 0.5);
        assert_eq!(m.sample().app_memory_bytes, 1024);
        assert_eq!(m.sample().app_cpu, 0.5);
    }
}
