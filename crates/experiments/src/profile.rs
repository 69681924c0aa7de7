//! The `repro profile` target — host-time self-profiling of the
//! simulator's hot paths.
//!
//! Walks the observe grid twice per cell — once unobserved (the
//! `NoopObserver` fast path the default targets run) and once with a
//! counting + span-counting observer — charging wall-clock to four
//! phases via [`Profiler`]: `trace_decode`, `device_dispatch`,
//! `observed_dispatch`, and `metrics_fold`. Comparing
//! `device_dispatch` against `observed_dispatch` bounds the observer
//! overhead empirically.
//!
//! Determinism split: **stdout carries only simulated counts** (ops,
//! events, spans per cell) and is pinned by a golden fixture; the
//! wall-clock phase table is kept out of the rendered text and surfaced
//! through [`Profile::host_report`], which the `repro` binary prints to
//! stderr. Cells run serially (not through `parallel_map`) so each
//! phase's wall-clock is attributed cleanly rather than overlapped.

use std::fmt;

use mobistore_core::metrics::Metrics;
use mobistore_core::simulator::{simulate, simulate_observed, RunOptions};
use mobistore_sim::obs::CountingObserver;
use mobistore_sim::prof::Profiler;
use mobistore_workload::Workload;

use crate::observe::{cell_config, ObserveDevice, DEVICES, WORKLOADS};
use crate::{shared_trace, Scale};

/// One profiled cell: deterministic simulation counts only.
#[derive(Debug, Clone)]
pub struct ProfileCell {
    /// Which trace.
    pub workload: Workload,
    /// Which device.
    pub device: ObserveDevice,
    /// Operations the cell replayed.
    pub ops: u64,
    /// Events the observed run recorded.
    pub events: u64,
    /// Sim-time spans the observed run emitted.
    pub spans: u64,
}

/// The profile run: per-cell counts plus the (stderr-only) wall-clock
/// phase table.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Workload-major, device-minor cells.
    pub cells: Vec<ProfileCell>,
    /// Operations across all cells, recomputed through the fold phase.
    pub total_ops: u64,
    host_report: String,
}

impl Profile {
    /// The wall-clock phase table. Nondeterministic by nature — the
    /// `repro` binary prints it to stderr, never stdout.
    pub fn host_report(&self) -> &str {
        &self.host_report
    }
}

/// The profiled host phases, in report order.
pub const PHASES: [&str; 4] = [
    "trace_decode",
    "device_dispatch",
    "observed_dispatch",
    "metrics_fold",
];

/// Runs the profile grid serially, timing each host phase.
pub fn run(scale: Scale) -> Profile {
    let mut prof = Profiler::new();
    let mut cells = Vec::new();
    let mut fold = Metrics::empty("profile/all");
    for workload in WORKLOADS {
        for device in DEVICES {
            // First decode per workload is the real cost; later cells hit
            // the process-wide trace cache, which is exactly what the
            // other targets see too.
            let trace = prof.time("trace_decode", || shared_trace(workload, scale));
            let cfg = cell_config(workload, device, &trace);
            let noop = prof.time("device_dispatch", || simulate(&cfg, &trace));
            // Counts without retaining: the cheapest real observer, so
            // `observed_dispatch` measures dispatch overhead, not allocation.
            let mut obs = CountingObserver::default();
            let observed = prof.time("observed_dispatch", || {
                simulate_observed(&cfg, &trace, RunOptions::default(), &mut obs)
            });
            assert_eq!(
                noop.overall_response_ms.count, observed.overall_response_ms.count,
                "observer must not change simulation results"
            );
            prof.time("metrics_fold", || fold.merge(&noop));
            cells.push(ProfileCell {
                workload,
                device,
                ops: observed.overall_response_ms.count,
                events: obs.counts.iter().map(|(_, c)| c).sum(),
                spans: obs.spans,
            });
        }
    }
    Profile {
        cells,
        total_ops: fold.overall_response_ms.count,
        host_report: prof.report(),
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Host profile: per-cell simulation counts \
             (wall-clock phase table goes to stderr)"
        )?;
        writeln!(
            f,
            "  {:<24} {:>9} {:>9} {:>9}",
            "cell", "ops", "events", "spans"
        )?;
        for cell in &self.cells {
            writeln!(
                f,
                "  {:<24} {:>9} {:>9} {:>9}",
                format!("{} x {}", cell.workload.name(), cell.device.name()),
                cell.ops,
                cell.events,
                cell.spans
            )?;
        }
        writeln!(
            f,
            "  total {} ops across {} cells; phases: {}",
            self.total_ops,
            self.cells.len(),
            PHASES.join(", ")
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_counts_are_deterministic_and_nonzero() {
        let a = run(Scale::quick());
        let b = run(Scale::quick());
        assert_eq!(a.cells.len(), WORKLOADS.len() * DEVICES.len());
        assert_eq!(format!("{a}"), format!("{b}"));
        for cell in &a.cells {
            assert!(cell.ops > 0);
            assert!(cell.events > cell.ops, "every op records >= 2 events");
            assert!(cell.spans > 0, "observed run must emit spans");
        }
        assert_eq!(a.total_ops, a.cells.iter().map(|c| c.ops).sum::<u64>());
    }

    #[test]
    fn host_report_lists_every_phase() {
        let p = run(Scale::quick());
        for phase in PHASES {
            assert!(p.host_report().contains(phase), "missing {phase}");
        }
        assert!(p.host_report().contains("total"));
        // The wall-clock table never leaks into the deterministic text.
        assert!(!format!("{p}").contains(" s "));
    }
}
