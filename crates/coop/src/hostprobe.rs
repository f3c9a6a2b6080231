//! Real host resource probing via `/proc` (§4).
//!
//! "An embedded OLAP system can monitor resource usage of all other
//! running applications and then tweak its run-time behavior accordingly."
//! The paper regenerators in `crates/bench` substitute a scripted trace;
//! this module closes the loop on Linux hosts by reading the kernel's
//! accounting directly:
//!
//! * `/proc/stat` — cumulative CPU ticks across all cores (busy = total −
//!   idle − iowait);
//! * `/proc/self/stat` — this process's own user+system ticks, subtracted
//!   out so the probe reports what *other* applications consume (the
//!   embedded DBMS must not count itself as a competitor);
//! * `/proc/meminfo` + `/proc/self/statm` — host memory in use minus our
//!   own resident set.
//!
//! CPU load is a *rate*, so the probe differentiates two consecutive tick
//! snapshots; the first call (and any call with no elapsed ticks) falls
//! back to a 1-minute `/proc/loadavg` estimate. All readers degrade to
//! `None` on non-Linux hosts — callers keep whatever the host last pushed
//! into the policy, so the probe is strictly additive.

use crate::monitor::{ResourceMonitor, ResourceUsage};
use parking_lot::Mutex;
use std::path::Path;

/// Cumulative CPU tick counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CpuTicks {
    /// All ticks across every core (busy + idle).
    total: u64,
    /// Busy ticks across every core (total − idle − iowait).
    busy: u64,
    /// This process's own user + system ticks.
    own: u64,
}

/// Parse the aggregate `cpu` line of `/proc/stat` into (total, busy).
fn parse_stat_cpu(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line.split_whitespace().skip(1).map_while(|f| f.parse().ok()).collect();
    if fields.len() < 5 {
        return None;
    }
    let total: u64 = fields.iter().sum();
    let idle = fields[3] + fields.get(4).copied().unwrap_or(0); // idle + iowait
    Some((total, total.saturating_sub(idle)))
}

/// Parse `/proc/self/stat` into own utime+stime ticks. The command field
/// is parenthesized and may contain spaces, so fields count from the last
/// `)`; utime and stime are the 14th and 15th fields overall.
fn parse_self_stat(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest starts at field 3 (state), so utime/stime are at offsets 11/12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Parse a `/proc/meminfo` kB field.
fn parse_meminfo_kb(meminfo: &str, key: &str) -> Option<u64> {
    meminfo.lines().find(|l| l.starts_with(key))?.split_whitespace().nth(1)?.parse().ok()
}

fn read_ticks() -> Option<CpuTicks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let (total, busy) = parse_stat_cpu(&stat)?;
    let own = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_self_stat)
        .unwrap_or(0);
    Some(CpuTicks { total, busy, own })
}

/// 1-minute load average over core count, as a coarse load fraction for
/// the first sample (before a tick delta exists).
fn loadavg_estimate() -> Option<f64> {
    let loadavg = std::fs::read_to_string("/proc/loadavg").ok()?;
    let load1: f64 = loadavg.split_whitespace().next()?.parse().ok()?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    Some((load1 / cores).clamp(0.0, 1.0))
}

/// Samples what the *rest* of the machine is doing, for
/// [`ResourcePolicy::set_app_cpu_load`](crate::policy::ResourcePolicy::set_app_cpu_load).
#[derive(Debug, Default)]
pub struct HostResourceProbe {
    last: Mutex<Option<CpuTicks>>,
}

impl HostResourceProbe {
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether this host exposes the `/proc` files the probe reads.
    pub fn available() -> bool {
        Path::new("/proc/stat").exists() && Path::new("/proc/self/stat").exists()
    }

    /// Fraction in `[0, 1]` of all-core CPU time consumed by processes
    /// other than this one since the previous call. `None` when `/proc`
    /// is unavailable; the loadavg estimate when no delta exists yet.
    pub fn sample_other_cpu(&self) -> Option<f64> {
        let now = read_ticks()?;
        let mut last = self.last.lock();
        let previous = last.replace(now);
        match previous {
            Some(prev) if now.total > prev.total => {
                let total = (now.total - prev.total) as f64;
                let busy = now.busy.saturating_sub(prev.busy);
                let own = now.own.saturating_sub(prev.own);
                Some((busy.saturating_sub(own) as f64 / total).clamp(0.0, 1.0))
            }
            // First call, or no ticks elapsed since the last one.
            _ => loadavg_estimate(),
        }
    }

    /// Bytes of RAM in use by everything except this process. `None` when
    /// `/proc/meminfo` is unavailable.
    pub fn sample_other_memory(&self) -> Option<usize> {
        self.sample_host_memory().map(|m| m.other_used_bytes)
    }

    /// Full memory snapshot: machine total plus the bytes everything
    /// *except* this process uses. Feeds
    /// [`effective_memory_limit`](crate::policy::effective_memory_limit)
    /// — the memory-side half of the §4 loop. `None` when `/proc/meminfo`
    /// is unavailable.
    pub fn sample_host_memory(&self) -> Option<HostMemory> {
        let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
        let total = parse_meminfo_kb(&meminfo, "MemTotal:")? * 1024;
        let available = parse_meminfo_kb(&meminfo, "MemAvailable:")? * 1024;
        let own = std::fs::read_to_string("/proc/self/statm")
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
            .map_or(0, |pages| pages * 4096);
        Some(HostMemory {
            total_bytes: total as usize,
            other_used_bytes: total.saturating_sub(available).saturating_sub(own) as usize,
        })
    }
}

/// One `/proc/meminfo` snapshot, with this process's own resident set
/// subtracted out of the "in use" figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostMemory {
    /// Machine RAM (MemTotal).
    pub total_bytes: usize,
    /// Bytes in use by everything except this process.
    pub other_used_bytes: usize,
}

impl ResourceMonitor for HostResourceProbe {
    fn sample(&self) -> ResourceUsage {
        ResourceUsage {
            app_memory_bytes: self.sample_other_memory().unwrap_or(0),
            app_cpu: self.sample_other_cpu().unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_aggregate_cpu_line() {
        let stat = "cpu  100 20 30 500 50 0 10 0 0 0\ncpu0 50 10 15 250 25 0 5 0 0 0\n";
        let (total, busy) = parse_stat_cpu(stat).unwrap();
        assert_eq!(total, 710);
        assert_eq!(busy, 710 - 500 - 50);
        assert!(parse_stat_cpu("intr 12345\n").is_none());
    }

    #[test]
    fn parses_self_stat_with_spaces_in_comm() {
        // comm fields may contain spaces and parentheses.
        let stat = "1234 (weird name)) S 1 1 1 0 -1 4194560 100 0 0 0 777 333 0 0 20 0 1 0 1 2 3";
        assert_eq!(parse_self_stat(stat).unwrap(), 777 + 333);
    }

    #[test]
    fn parses_meminfo_fields() {
        let meminfo =
            "MemTotal:       16384 kB\nMemFree:        4096 kB\nMemAvailable:   8192 kB\n";
        assert_eq!(parse_meminfo_kb(meminfo, "MemTotal:"), Some(16384));
        assert_eq!(parse_meminfo_kb(meminfo, "MemAvailable:"), Some(8192));
        assert_eq!(parse_meminfo_kb(meminfo, "SwapTotal:"), None);
    }

    #[test]
    fn live_probe_reports_sane_fractions_when_available() {
        if !HostResourceProbe::available() {
            return; // non-Linux host: nothing to probe
        }
        let probe = HostResourceProbe::new();
        let first = probe.sample_other_cpu().unwrap();
        assert!((0.0..=1.0).contains(&first));
        // Burn a little CPU so the delta sample has ticks to look at.
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(i ^ x);
        }
        std::hint::black_box(x);
        let second = probe.sample_other_cpu().unwrap();
        assert!((0.0..=1.0).contains(&second), "{second}");
        let usage = probe.sample();
        assert!(usage.app_memory_bytes > 0, "host memory in use must be visible");
    }
}
