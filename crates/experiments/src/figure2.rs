//! Figure 2 — energy and write response vs flash-card storage utilization.
//!
//! §5.2: each trace is simulated with the Intel card (datasheet, 128-KB
//! segments) at 40–95% utilization. Published shapes: energy rises with
//! utilization (up to +70–190% at 95% vs 40%; the `hp` trace most
//! dramatically); write response holds steady until utilization is high
//! enough for writes to wait on cleaning (up to +30%), with `mac` —
//! read-heavy, so the cleaner keeps up — staying flat.

use std::fmt;

use mobistore_core::metrics::Metrics;
use mobistore_core::simulator::simulate;
use mobistore_device::params::intel_datasheet;
use mobistore_sim::exec::parallel_map;
use mobistore_workload::Workload;

use crate::{flash_card_config, paper_dram_bytes, shared_trace, Scale};

/// The utilization sweep points (fractions).
pub const UTILIZATIONS: [f64; 7] = [0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95];

/// One trace's sweep.
#[derive(Debug, Clone)]
pub struct Figure2Curve {
    /// Which trace.
    pub workload: Workload,
    /// Metrics at each utilization, in `UTILIZATIONS` order.
    pub points: Vec<Metrics>,
}

/// The regenerated Figure 2.
#[derive(Debug, Clone)]
pub struct Figure2 {
    /// One curve per trace.
    pub curves: Vec<Figure2Curve>,
}

/// Runs the utilization sweep for all three traces.
pub fn run(scale: Scale) -> Figure2 {
    let curves = Workload::TABLE4
        .iter()
        .map(|&w| run_curve(w, scale))
        .collect();
    Figure2 { curves }
}

/// Runs the sweep for one trace, all utilization points in parallel.
pub fn run_curve(workload: Workload, scale: Scale) -> Figure2Curve {
    let trace = shared_trace(workload, scale);
    let dram = paper_dram_bytes(workload);
    let points = parallel_map(&UTILIZATIONS, |&util| {
        let cfg = flash_card_config(intel_datasheet(), &trace, util).with_dram(dram);
        let mut m = simulate(&cfg, &trace);
        m.name = format!("{} @{util:.0}%", workload.name());
        m
    });
    Figure2Curve { workload, points }
}

impl Figure2Curve {
    /// Energy increase from the 40% point to the 95% point, as a fraction.
    pub fn energy_increase(&self) -> f64 {
        self.points.last().expect("points").energy.get() / self.points[0].energy.get() - 1.0
    }

    /// Mean-write-response increase from 40% to 95%, as a fraction.
    pub fn write_response_increase(&self) -> f64 {
        self.points.last().expect("points").write_response_ms.mean
            / self.points[0].write_response_ms.mean
            - 1.0
    }
}

impl Figure2 {
    /// Renders Figure 2(d) — energy vs utilization — as an ASCII plot.
    pub fn plot(&self) -> String {
        let series: Vec<crate::plot::Series> = self
            .curves
            .iter()
            .map(|c| crate::plot::Series {
                label: c.workload.name().to_owned(),
                points: UTILIZATIONS
                    .iter()
                    .zip(&c.points)
                    .map(|(&u, m)| (u * 100.0, m.energy.get()))
                    .collect(),
            })
            .collect();
        crate::plot::render(
            "Figure 2(d): flash-card energy vs storage utilization",
            "utilization %",
            "J",
            &series,
            72,
            18,
        )
    }
}

impl fmt::Display for Figure2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 2: Intel card (datasheet) vs storage utilization")?;
        writeln!(
            f,
            "{:<8} {:>6} {:>12} {:>14} {:>10} {:>12}",
            "trace", "util%", "energy(J)", "write mean ms", "erasures", "clean waits"
        )?;
        for curve in &self.curves {
            for (util, m) in UTILIZATIONS.iter().zip(&curve.points) {
                let fc = m.flash_card.expect("flash card backend");
                writeln!(
                    f,
                    "{:<8} {:>6.0} {:>12.1} {:>14.3} {:>10} {:>12}",
                    curve.workload.name(),
                    util * 100.0,
                    m.energy.get(),
                    m.write_response_ms.mean,
                    fc.erasures,
                    fc.cleaning_waits,
                )?;
            }
            writeln!(
                f,
                "  -> {}: energy +{:.0}%, write response +{:.0}% at 95% vs 40%",
                curve.workload.name(),
                curve.energy_increase() * 100.0,
                curve.write_response_increase() * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_rises_with_utilization() {
        let curve = run_curve(Workload::Dos, Scale::quick());
        let first = curve.points[0].energy.get();
        let last = curve.points.last().unwrap().energy.get();
        assert!(last > first, "energy {first} -> {last}");
        // Cleaning work (the §5.2 mechanism) increases monotonically-ish.
        let copies: Vec<u64> = curve
            .points
            .iter()
            .map(|m| m.flash_card.unwrap().blocks_copied)
            .collect();
        assert!(
            copies.last().unwrap() > copies.first().unwrap(),
            "{copies:?}"
        );
    }

    #[test]
    fn erasure_rate_grows() {
        let curve = run_curve(Workload::Dos, Scale::quick());
        let first = curve.points[0].flash_card.unwrap().erasures;
        let last = curve.points.last().unwrap().flash_card.unwrap().erasures;
        assert!(last > first, "erasures {first} -> {last}");
    }

    #[test]
    fn renders() {
        let fig = Figure2 {
            curves: vec![run_curve(Workload::Dos, Scale::quick())],
        };
        let text = fig.to_string();
        assert!(text.contains("util%"));
        assert!(text.contains("dos"));
    }
}
