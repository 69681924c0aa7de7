//! §5.2 — flash endurance vs storage utilization.
//!
//! Published: over the `mac` trace, moving from 40% to 95% utilization
//! raises the maximum per-segment erase count from 7 to 34 and the mean
//! from 0.9 to 1.9 (+110%); the `hp` erasure count triples. "Higher
//! storage utilizations can result in burning out the flash two to three
//! times faster."

use std::fmt;

use mobistore_core::simulator::simulate;
use mobistore_device::params::intel_datasheet;
use mobistore_flash::store::WearStats;
use mobistore_sim::exec::parallel_map;
use mobistore_workload::Workload;

use crate::{flash_card_config, paper_dram_bytes, shared_trace, Scale};

/// The endpoints the paper quotes.
pub const UTIL_LOW: f64 = 0.40;
/// The high-utilization endpoint.
pub const UTIL_HIGH: f64 = 0.95;

/// One trace's wear at both utilizations.
#[derive(Debug, Clone)]
pub struct EnduranceRow {
    /// Which trace.
    pub workload: Workload,
    /// Wear at 40% utilization.
    pub low: WearStats,
    /// Wear at 95% utilization.
    pub high: WearStats,
}

impl EnduranceRow {
    /// Ratio of total erasures, high vs low utilization.
    pub fn erasure_ratio(&self) -> f64 {
        if self.low.total == 0 {
            f64::INFINITY
        } else {
            self.high.total as f64 / self.low.total as f64
        }
    }
}

/// The §5.2 endurance experiment.
#[derive(Debug, Clone)]
pub struct Endurance {
    /// One row per trace.
    pub rows: Vec<EnduranceRow>,
}

/// Runs the endurance comparison for the paper's two traces (`mac`, `hp`)
/// in parallel.
pub fn run(scale: Scale) -> Endurance {
    let rows = parallel_map(&[Workload::Mac, Workload::Hp], |&w| run_row(w, scale));
    Endurance { rows }
}

/// Runs one trace at both utilizations (in parallel).
pub fn run_row(workload: Workload, scale: Scale) -> EnduranceRow {
    let trace = shared_trace(workload, scale);
    let dram = paper_dram_bytes(workload);
    let mut wear = parallel_map(&[UTIL_LOW, UTIL_HIGH], |&util| {
        let cfg = flash_card_config(intel_datasheet(), &trace, util).with_dram(dram);
        simulate(&cfg, &trace).wear.expect("flash card wear")
    });
    let high = wear.pop().expect("high point");
    let low = wear.pop().expect("low point");
    EnduranceRow {
        workload,
        low,
        high,
    }
}

impl fmt::Display for Endurance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Section 5.2: endurance vs utilization (40% vs 95%)")?;
        writeln!(
            f,
            "{:<8} {:>10} {:>10} {:>11} {:>11} {:>12}",
            "trace", "max@40%", "max@95%", "mean@40%", "mean@95%", "total ratio"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<8} {:>10} {:>10} {:>11.2} {:>11.2} {:>12.2}",
                r.workload.name(),
                r.low.max_erase,
                r.high.max_erase,
                r.low.mean_erase,
                r.high.mean_erase,
                r.erasure_ratio(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_utilization_wears_faster() {
        let row = run_row(Workload::Mac, Scale::quick());
        assert!(
            row.high.total >= row.low.total,
            "high {:?} low {:?}",
            row.high,
            row.low
        );
        assert!(row.high.max_erase >= row.low.max_erase);
    }

    #[test]
    fn renders() {
        let e = Endurance {
            rows: vec![run_row(Workload::Mac, Scale::quick())],
        };
        assert!(e.to_string().contains("total ratio"));
    }
}
