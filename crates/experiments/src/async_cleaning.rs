//! §5.3 — asynchronous cleaning on the SunDisk SDP5A flash disk.
//!
//! The SDP5A pre-erases sectors during idle time: erasure proceeds at
//! 150 Kbytes/s, and pre-erased sectors accept writes at 400 Kbytes/s
//! instead of the combined ≈ 109 Kbytes/s. Published results: write
//! response falls 56–61% across the traces (a factor of ≈ 2.5), with
//! minimal impact on energy.

use std::fmt;

use mobistore_core::config::SystemConfig;
use mobistore_core::metrics::Metrics;
use mobistore_core::simulator::simulate;
use mobistore_device::params::{sdp5_datasheet, sdp5a_datasheet};
use mobistore_sim::exec::parallel_map;
use mobistore_workload::Workload;

use crate::{paper_dram_bytes, shared_trace, Scale};

/// One trace's synchronous-vs-asynchronous comparison.
#[derive(Debug, Clone)]
pub struct AsyncRow {
    /// Which trace.
    pub workload: Workload,
    /// The SDP5 (erase-coupled writes) result.
    pub synchronous: Metrics,
    /// The SDP5A (asynchronous pre-erasure) result.
    pub asynchronous: Metrics,
}

impl AsyncRow {
    /// Fractional reduction in mean write response (paper: 0.56–0.61).
    pub fn write_response_reduction(&self) -> f64 {
        1.0 - self.asynchronous.write_response_ms.mean / self.synchronous.write_response_ms.mean
    }

    /// Fractional change in energy (paper: minimal).
    pub fn energy_change(&self) -> f64 {
        self.asynchronous.energy.get() / self.synchronous.energy.get() - 1.0
    }
}

/// The §5.3 experiment.
#[derive(Debug, Clone)]
pub struct AsyncCleaning {
    /// One row per trace.
    pub rows: Vec<AsyncRow>,
}

/// Runs the comparison over all three traces in parallel.
pub fn run(scale: Scale) -> AsyncCleaning {
    let rows = parallel_map(&Workload::TABLE4, |&w| run_row(w, scale));
    AsyncCleaning { rows }
}

/// Runs the comparison for one trace (the sync/async pair in parallel).
pub fn run_row(workload: Workload, scale: Scale) -> AsyncRow {
    let trace = shared_trace(workload, scale);
    let dram = paper_dram_bytes(workload);
    let configs = [
        (
            SystemConfig::flash_disk(sdp5_datasheet()).with_dram(dram),
            "sdp5 (sync)",
        ),
        (
            SystemConfig::flash_disk(sdp5a_datasheet()).with_dram(dram),
            "sdp5a (async)",
        ),
    ];
    let mut results = parallel_map(&configs, |(cfg, suffix)| {
        let mut m = simulate(cfg, &trace);
        m.name = format!("{} {suffix}", workload.name());
        m
    });
    let asynchronous = results.pop().expect("async row");
    let synchronous = results.pop().expect("sync row");
    AsyncRow {
        workload,
        synchronous,
        asynchronous,
    }
}

impl fmt::Display for AsyncCleaning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Section 5.3: SDP5A asynchronous cleaning (paper: write response -56..61%)"
        )?;
        writeln!(
            f,
            "{:<8} {:>16} {:>16} {:>12} {:>12}",
            "trace", "sync write (ms)", "async write (ms)", "reduction", "energy chg"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<8} {:>16.3} {:>16.3} {:>11.0}% {:>11.1}%",
                r.workload.name(),
                r.synchronous.write_response_ms.mean,
                r.asynchronous.write_response_ms.mean,
                r.write_response_reduction() * 100.0,
                r.energy_change() * 100.0,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_cuts_write_response_by_more_than_half() {
        let row = run_row(Workload::Mac, Scale::quick());
        let red = row.write_response_reduction();
        assert!((0.40..0.80).contains(&red), "reduction {red}");
    }

    #[test]
    fn energy_impact_is_minimal() {
        let row = run_row(Workload::Mac, Scale::quick());
        assert!(
            row.energy_change().abs() < 0.10,
            "energy change {}",
            row.energy_change()
        );
    }

    #[test]
    fn renders() {
        let exp = AsyncCleaning {
            rows: vec![run_row(Workload::Dos, Scale::quick())],
        };
        let text = exp.to_string();
        assert!(text.contains("async"));
    }
}
