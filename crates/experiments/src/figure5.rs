//! Figure 5 — normalized energy and write response vs SRAM size.
//!
//! §5.5: the cu140 with a 5 s spin-down and 0 / 32 / 512 / 1024 Kbytes of
//! battery-backed SRAM, per trace, normalized to the no-SRAM case.
//! Published shapes: 32 Kbytes improves mean write response by ≥ 20× for
//! `mac` and `dos` (a smaller factor for `hp`), larger buffers add little
//! except for `hp`; energy falls by a much smaller fraction (21% `mac`,
//! 15% `dos`, 4% `hp`).

use std::fmt;

use mobistore_core::config::SystemConfig;
use mobistore_core::metrics::Metrics;
use mobistore_core::simulator::simulate;
use mobistore_device::params::cu140_datasheet;
use mobistore_sim::exec::parallel_map;
use mobistore_workload::Workload;

use crate::{paper_dram_bytes, shared_trace, Scale};

/// The SRAM sweep points, in bytes.
pub const SRAM_BYTES: [u64; 4] = [0, 32 * 1024, 512 * 1024, 1024 * 1024];

/// One trace's sweep.
#[derive(Debug, Clone)]
pub struct Figure5Curve {
    /// Which trace.
    pub workload: Workload,
    /// Metrics per SRAM size, in `SRAM_BYTES` order.
    pub points: Vec<Metrics>,
}

/// The regenerated Figure 5.
#[derive(Debug, Clone)]
pub struct Figure5 {
    /// One curve per trace.
    pub curves: Vec<Figure5Curve>,
}

/// Runs the sweep for all three traces.
pub fn run(scale: Scale) -> Figure5 {
    Figure5 {
        curves: Workload::TABLE4
            .iter()
            .map(|&w| run_curve(w, scale))
            .collect(),
    }
}

/// Runs the sweep for one trace, all SRAM points in parallel.
pub fn run_curve(workload: Workload, scale: Scale) -> Figure5Curve {
    let trace = shared_trace(workload, scale);
    let dram = paper_dram_bytes(workload);
    let points = parallel_map(&SRAM_BYTES, |&sram| {
        let cfg = SystemConfig::disk(cu140_datasheet())
            .with_dram(dram)
            .with_sram(sram);
        let mut m = simulate(&cfg, &trace);
        m.name = format!("{} sram={}KB", workload.name(), sram / 1024);
        m
    });
    Figure5Curve { workload, points }
}

impl Figure5Curve {
    /// Energy at each point normalized to the no-SRAM point.
    pub fn normalized_energy(&self) -> Vec<f64> {
        let base = self.points[0].energy.get();
        self.points.iter().map(|m| m.energy.get() / base).collect()
    }

    /// Mean write response normalized to the no-SRAM point.
    pub fn normalized_write_response(&self) -> Vec<f64> {
        let base = self.points[0].write_response_ms.mean;
        self.points
            .iter()
            .map(|m| m.write_response_ms.mean / base)
            .collect()
    }
}

impl fmt::Display for Figure5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 5: cu140 + SRAM write buffer, normalized to no SRAM"
        )?;
        writeln!(
            f,
            "{:<8} {:>8} {:>14} {:>14} {:>18}",
            "trace", "SRAM KB", "energy (norm)", "write (norm)", "write mean (ms)"
        )?;
        for c in &self.curves {
            let ne = c.normalized_energy();
            let nw = c.normalized_write_response();
            for (i, &sram) in SRAM_BYTES.iter().enumerate() {
                writeln!(
                    f,
                    "{:<8} {:>8} {:>14.3} {:>14.3} {:>18.3}",
                    c.workload.name(),
                    sram / 1024,
                    ne[i],
                    nw[i],
                    c.points[i].write_response_ms.mean
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sram_slashes_write_response() {
        // §5.5: a 32-KB buffer improves average write response by a factor
        // of 20 or more for mac.
        let c = run_curve(Workload::Mac, Scale::quick());
        let nw = c.normalized_write_response();
        assert!(nw[1] < 0.1, "32KB point {} (want < 0.1)", nw[1]);
        // Larger buffers add little beyond 32 KB.
        assert!(nw[3] < 0.2);
    }

    #[test]
    fn sram_cuts_energy_modestly() {
        // §5.5: 21% energy for mac — "much less dramatic" than response.
        let c = run_curve(Workload::Mac, Scale::quick());
        let ne = c.normalized_energy();
        assert!(ne[1] < 1.0, "energy must not rise: {}", ne[1]);
        assert!(ne[1] > 0.5, "but the saving is modest: {}", ne[1]);
    }

    #[test]
    fn renders() {
        let fig = Figure5 {
            curves: vec![run_curve(Workload::Dos, Scale::quick())],
        };
        let text = fig.to_string();
        assert!(text.contains("SRAM KB"));
    }
}
