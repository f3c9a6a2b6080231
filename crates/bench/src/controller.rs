//! The adaptive controller: Figure 1's reactive resource usage pattern.
//!
//! The machine's memory is shared between application and DBMS. The
//! controller watches application pressure (application RAM / total
//! budget) and reacts on two axes:
//!
//! * **intermediate compression** — None below the light threshold, Light
//!   above it, Heavy above the heavy threshold, *with hysteresis*: the
//!   downward transitions use lower thresholds than the upward ones so a
//!   noisy application does not make the DBMS flap between modes;
//! * **DBMS memory budget** — the remainder of the budget after the
//!   application's share (floored at a configurable minimum), which the
//!   caller pushes into the buffer manager.
//!
//! [`SimulatedApplication`] is the scripted host application that drives
//! it (DESIGN.md substitution F1). The engine's own host feedback reads
//! the real machine instead (`eider_coop::hostprobe`) and shrinks its
//! memory limit through `eider_coop::policy::effective_memory_limit`.

use eider_coop::compression::CompressionLevel;
use eider_coop::monitor::{ResourceMonitor, ResourceUsage};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Thresholds as fractions of the total memory budget.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Total machine budget shared by app + DBMS (bytes).
    pub total_memory: usize,
    /// App pressure above which Light compression engages.
    pub light_up: f64,
    /// App pressure below which Light disengages (hysteresis, < light_up).
    pub light_down: f64,
    /// App pressure above which Heavy compression engages.
    pub heavy_up: f64,
    /// App pressure below which Heavy falls back to Light.
    pub heavy_down: f64,
    /// The DBMS never shrinks below this many bytes.
    pub min_dbms_memory: usize,
}

impl ControllerConfig {
    pub fn for_budget(total_memory: usize) -> Self {
        ControllerConfig {
            total_memory,
            light_up: 0.45,
            light_down: 0.35,
            heavy_up: 0.70,
            heavy_down: 0.55,
            min_dbms_memory: total_memory / 20,
        }
    }
}

/// What the controller decided this tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    pub compression: CompressionLevel,
    /// Memory budget the DBMS should restrict itself to.
    pub dbms_memory_budget: usize,
    /// Application pressure that produced the decision (diagnostics).
    pub app_pressure: f64,
}

/// Stateful hysteresis controller.
#[derive(Debug)]
pub struct AdaptiveController {
    config: ControllerConfig,
    level: CompressionLevel,
}

impl AdaptiveController {
    pub fn new(config: ControllerConfig) -> Self {
        AdaptiveController { config, level: CompressionLevel::None }
    }

    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Observe application usage and decide compression level + budget.
    pub fn observe(&mut self, usage: ResourceUsage) -> Decision {
        let pressure = usage.app_memory_bytes as f64 / self.config.total_memory as f64;
        self.level = match self.level {
            CompressionLevel::None => {
                if pressure >= self.config.heavy_up {
                    CompressionLevel::Heavy
                } else if pressure >= self.config.light_up {
                    CompressionLevel::Light
                } else {
                    CompressionLevel::None
                }
            }
            CompressionLevel::Light => {
                if pressure >= self.config.heavy_up {
                    CompressionLevel::Heavy
                } else if pressure < self.config.light_down {
                    CompressionLevel::None
                } else {
                    CompressionLevel::Light
                }
            }
            CompressionLevel::Heavy => {
                if pressure < self.config.light_down {
                    CompressionLevel::None
                } else if pressure < self.config.heavy_down {
                    CompressionLevel::Light
                } else {
                    CompressionLevel::Heavy
                }
            }
        };
        let remaining = self
            .config
            .total_memory
            .saturating_sub(usage.app_memory_bytes)
            .max(self.config.min_dbms_memory);
        Decision { compression: self.level, dbms_memory_budget: remaining, app_pressure: pressure }
    }
}

/// One phase of a scripted application trace.
#[derive(Debug, Clone, Copy)]
pub struct TracePhase {
    /// How many `step()`s this phase lasts.
    pub steps: usize,
    pub memory_bytes: usize,
    pub cpu: f64,
}

/// The scripted "dashboard application" of Figure 1: bursty RAM and CPU
/// usage that the DBMS must react to. `step()` advances the trace;
/// sampling is thread-safe so the DBMS can observe from worker threads.
pub struct SimulatedApplication {
    phases: Vec<TracePhase>,
    position: AtomicUsize,
    current: Mutex<ResourceUsage>,
}

impl SimulatedApplication {
    pub fn new(phases: Vec<TracePhase>) -> Arc<Self> {
        assert!(!phases.is_empty(), "trace needs at least one phase");
        let first =
            ResourceUsage { app_memory_bytes: phases[0].memory_bytes, app_cpu: phases[0].cpu };
        Arc::new(SimulatedApplication {
            phases,
            position: AtomicUsize::new(0),
            current: Mutex::new(first),
        })
    }

    /// The Figure 1 trace: idle, then a steadily climbing RAM ramp, then a
    /// burst plateau, then release.
    pub fn figure1_trace(total_budget: usize) -> Arc<Self> {
        let gb = |f: f64| (total_budget as f64 * f) as usize;
        let mut phases = vec![TracePhase { steps: 10, memory_bytes: gb(0.10), cpu: 0.1 }];
        // Ramp 10% -> 80% in 3.5% increments.
        let mut frac = 0.10;
        while frac < 0.80 {
            phases.push(TracePhase { steps: 2, memory_bytes: gb(frac), cpu: 0.2 });
            frac += 0.035;
        }
        phases.push(TracePhase { steps: 20, memory_bytes: gb(0.85), cpu: 0.6 });
        phases.push(TracePhase { steps: 10, memory_bytes: gb(0.45), cpu: 0.3 });
        phases.push(TracePhase { steps: 15, memory_bytes: gb(0.10), cpu: 0.1 });
        Self::new(phases)
    }

    /// Advance the trace one step; returns `false` once the trace is over
    /// (usage then stays at the final phase's level).
    pub fn step(&self) -> bool {
        let pos = self.position.fetch_add(1, Ordering::Relaxed) + 1;
        let mut acc = 0usize;
        for phase in &self.phases {
            acc += phase.steps;
            if pos < acc {
                self.set(phase);
                return true;
            }
        }
        self.set(self.phases.last().expect("non-empty"));
        false
    }

    fn set(&self, phase: &TracePhase) {
        *self.current.lock().expect("trace lock") =
            ResourceUsage { app_memory_bytes: phase.memory_bytes, app_cpu: phase.cpu };
    }

    pub fn total_steps(&self) -> usize {
        self.phases.iter().map(|p| p.steps).sum()
    }
}

impl ResourceMonitor for SimulatedApplication {
    fn sample(&self) -> ResourceUsage {
        *self.current.lock().expect("trace lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(frac: f64, total: usize) -> ResourceUsage {
        ResourceUsage { app_memory_bytes: (total as f64 * frac) as usize, app_cpu: 0.0 }
    }

    #[test]
    fn ladder_climbs_with_pressure() {
        let total = 1_000_000;
        let mut c = AdaptiveController::new(ControllerConfig::for_budget(total));
        assert_eq!(c.observe(usage(0.10, total)).compression, CompressionLevel::None);
        assert_eq!(c.observe(usage(0.50, total)).compression, CompressionLevel::Light);
        assert_eq!(c.observe(usage(0.75, total)).compression, CompressionLevel::Heavy);
    }

    #[test]
    fn skips_straight_to_heavy_under_sudden_pressure() {
        let total = 1_000_000;
        let mut c = AdaptiveController::new(ControllerConfig::for_budget(total));
        assert_eq!(c.observe(usage(0.9, total)).compression, CompressionLevel::Heavy);
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let total = 1_000_000;
        let mut c = AdaptiveController::new(ControllerConfig::for_budget(total));
        c.observe(usage(0.50, total)); // -> Light
                                       // Dropping just below the engage threshold keeps Light.
        assert_eq!(c.observe(usage(0.40, total)).compression, CompressionLevel::Light);
        // Dropping below the disengage threshold releases it.
        assert_eq!(c.observe(usage(0.30, total)).compression, CompressionLevel::None);
        // Same around the heavy boundary.
        c.observe(usage(0.75, total)); // -> Heavy
        assert_eq!(c.observe(usage(0.60, total)).compression, CompressionLevel::Heavy);
        assert_eq!(c.observe(usage(0.50, total)).compression, CompressionLevel::Light);
    }

    #[test]
    fn budget_shrinks_with_app_usage_but_keeps_minimum() {
        let total = 1_000_000;
        let mut c = AdaptiveController::new(ControllerConfig::for_budget(total));
        let d = c.observe(usage(0.25, total));
        assert_eq!(d.dbms_memory_budget, 750_000);
        let d = c.observe(usage(0.99, total));
        assert_eq!(d.dbms_memory_budget, total / 20);
    }

    #[test]
    fn figure1_trace_produces_the_ladder() {
        // Running the Figure 1 application trace through the controller
        // must produce the None -> Light -> Heavy -> ... -> None pattern.
        let total = 1 << 30;
        let app = SimulatedApplication::figure1_trace(total);
        let mut c = AdaptiveController::new(ControllerConfig::for_budget(total));
        let mut seen = Vec::new();
        loop {
            let d = c.observe(app.sample());
            if seen.last() != Some(&d.compression) {
                seen.push(d.compression);
            }
            if !app.step() {
                break;
            }
        }
        assert_eq!(
            seen,
            vec![
                CompressionLevel::None,
                CompressionLevel::Light,
                CompressionLevel::Heavy,
                CompressionLevel::Light,
                CompressionLevel::None
            ],
            "Figure 1 ladder"
        );
    }

    #[test]
    fn trace_advances_through_phases() {
        let app = SimulatedApplication::new(vec![
            TracePhase { steps: 2, memory_bytes: 100, cpu: 0.1 },
            TracePhase { steps: 2, memory_bytes: 900, cpu: 0.9 },
        ]);
        assert_eq!(app.sample().app_memory_bytes, 100);
        app.step();
        assert_eq!(app.sample().app_memory_bytes, 100);
        app.step();
        assert_eq!(app.sample().app_memory_bytes, 900);
        app.step();
        assert!(!app.step(), "trace exhausted");
        assert_eq!(app.sample().app_memory_bytes, 900);
    }

    #[test]
    fn figure1_trace_ramps_up_and_down() {
        let app = SimulatedApplication::figure1_trace(1_000_000);
        let mut peak = 0;
        loop {
            peak = peak.max(app.sample().app_memory_bytes);
            if !app.step() {
                break;
            }
        }
        let last = app.sample().app_memory_bytes;
        assert!(peak >= 800_000, "trace must burst above 80%: {peak}");
        assert!(last <= 200_000, "trace must release at the end: {last}");
        assert!(app.total_steps() > 40);
    }
}
