//! Reliability under injected faults — the fault-rate sweep behind the
//! `repro reliability` target.
//!
//! The paper's devices never fail; real ones did. Intel Series 2 cards
//! shipped with bad-block maps and retired further segments as erasures
//! accumulated, SunDisk controllers retried transiently-failed program
//! pulses, and MFFS replayed its log after power loss mid-compaction.
//! This experiment replays the four workloads against the flash card
//! under a sweep of transient write/erase fault rates (with a fraction of
//! erase failures escalating to permanent segment retirement) plus an
//! exponential power-failure schedule, and against the magnetic disk
//! under the same power-failure schedule (its recovery is a
//! synchronous-FAT replay scan).
//!
//! Everything is seeded: the same `(scale, fault seed)` pair reproduces
//! the same fault schedule at any worker count, and a zero rate with no
//! power failures reproduces the fault-free results byte for byte.

use std::fmt;

use mobistore_core::config::SystemConfig;
use mobistore_core::metrics::FaultTotals;
use mobistore_core::simulator::simulate;
use mobistore_device::params::{cu140_datasheet, intel_datasheet};
use mobistore_sim::energy::Joules;
use mobistore_sim::exec::parallel_map;
use mobistore_sim::fault::FaultConfig;
use mobistore_sim::time::SimDuration;
use mobistore_workload::Workload;

use crate::{flash_card_config, paper_dram_bytes, shared_trace, Scale};

/// Parameters of the reliability sweep (the `--fault-*` flags).
#[derive(Debug, Clone)]
pub struct ReliabilityOptions {
    /// Transient write/erase fault rates to sweep.
    pub rates: Vec<f64>,
    /// Mean interval between power failures; `None` disables them.
    pub power_interval: Option<SimDuration>,
    /// Seed for the fault streams (independent of the workload seed).
    pub fault_seed: u64,
}

impl Default for ReliabilityOptions {
    fn default() -> Self {
        ReliabilityOptions {
            rates: vec![0.0, 1e-4, 1e-3],
            power_interval: Some(SimDuration::from_secs(600)),
            fault_seed: 1994,
        }
    }
}

impl ReliabilityOptions {
    /// The fault configuration for one sweep point.
    fn fault_config(&self, rate: f64) -> FaultConfig {
        let cfg = FaultConfig::with_rate(rate, self.fault_seed);
        match self.power_interval {
            Some(mean) => cfg.with_power_failures(mean),
            None => cfg,
        }
    }
}

/// One flash-card sweep point: a workload at one fault rate.
#[derive(Debug, Clone)]
pub struct CardPoint {
    /// Which trace.
    pub workload: Workload,
    /// The transient write/erase fault rate.
    pub rate: f64,
    /// Total energy over the measured portion.
    pub energy: Joules,
    /// Mean write response in milliseconds.
    pub write_mean_ms: f64,
    /// Fault and recovery counters.
    pub faults: FaultTotals,
    /// Total segment erasures (cleaning pressure).
    pub erasures: u64,
}

/// One magnetic-disk point: a workload under power failures only.
#[derive(Debug, Clone)]
pub struct DiskPoint {
    /// Which trace.
    pub workload: Workload,
    /// Total energy over the measured portion.
    pub energy: Joules,
    /// Fault and recovery counters.
    pub faults: FaultTotals,
}

/// The reliability experiment: flash-card rate sweep plus disk recovery.
#[derive(Debug, Clone)]
pub struct Reliability {
    /// The options the sweep ran with.
    pub options: ReliabilityOptions,
    /// Workload-major, rate-minor flash-card points.
    pub card: Vec<CardPoint>,
    /// One disk point per workload (empty when power failures are off).
    pub disk: Vec<DiskPoint>,
}

/// Runs the sweep: every workload × every fault rate on the flash card
/// (in parallel), plus each workload on the magnetic disk under the
/// power-failure schedule alone.
pub fn run(scale: Scale, options: &ReliabilityOptions) -> Reliability {
    let mut points: Vec<(Workload, f64)> = Vec::new();
    for w in Workload::ALL {
        for &rate in &options.rates {
            points.push((w, rate));
        }
    }
    let card = parallel_map(&points, |&(workload, rate)| {
        let trace = shared_trace(workload, scale);
        let cfg = flash_card_config(intel_datasheet(), &trace, 0.80)
            .with_dram(paper_dram_bytes(workload))
            .with_faults(options.fault_config(rate));
        let m = simulate(&cfg, &trace);
        CardPoint {
            workload,
            rate,
            energy: m.energy,
            write_mean_ms: m.write_response_ms.mean,
            faults: m.fault_totals(),
            erasures: m.wear.map_or(0, |w| w.total),
        }
    });
    let disk = if options.power_interval.is_some() {
        parallel_map(&Workload::ALL, |&workload| {
            let trace = shared_trace(workload, scale);
            let cfg = SystemConfig::disk(cu140_datasheet())
                .with_dram(paper_dram_bytes(workload))
                .with_faults(options.fault_config(0.0));
            let m = simulate(&cfg, &trace);
            DiskPoint {
                workload,
                energy: m.energy,
                faults: m.fault_totals(),
            }
        })
    } else {
        Vec::new()
    };
    Reliability {
        options: options.clone(),
        card,
        disk,
    }
}

/// Formats a fault rate compactly (`0`, `1e-4`, ...).
fn fmt_rate(rate: f64) -> String {
    if rate == 0.0 {
        "0".to_owned()
    } else {
        format!("{rate:.0e}")
    }
}

impl fmt::Display for Reliability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let interval = match self.options.power_interval {
            Some(d) => format!("power failures every {:.0} s (mean)", d.as_secs_f64()),
            None => "no power failures".to_owned(),
        };
        writeln!(
            f,
            "Reliability: fault-rate sweep on the Intel flash card, {interval}, \
             fault seed {}",
            self.options.fault_seed
        )?;
        writeln!(
            f,
            "{:<7} {:>6} {:>10} {:>8} {:>8} {:>8} {:>8} {:>6} {:>9} {:>9}",
            "trace",
            "rate",
            "energy(J)",
            "wr(ms)",
            "retry-w",
            "retry-e",
            "retired",
            "pfail",
            "recov(ms)",
            "erasures"
        )?;
        for p in &self.card {
            writeln!(
                f,
                "{:<7} {:>6} {:>10.1} {:>8.2} {:>8} {:>8} {:>8} {:>6} {:>9.1} {:>9}",
                p.workload.name(),
                fmt_rate(p.rate),
                p.energy.get(),
                p.write_mean_ms,
                p.faults.write_retries,
                p.faults.erase_retries,
                p.faults.segments_retired,
                p.faults.power_failures,
                p.faults.recovery_time.as_millis_f64(),
                p.erasures,
            )?;
        }
        if !self.disk.is_empty() {
            writeln!(f)?;
            writeln!(
                f,
                "Magnetic disk (cu140) under the same power-failure schedule \
                 (synchronous-FAT replay on recovery):"
            )?;
            writeln!(
                f,
                "{:<7} {:>10} {:>6} {:>9}",
                "trace", "energy(J)", "pfail", "recov(ms)"
            )?;
            for p in &self.disk {
                writeln!(
                    f,
                    "{:<7} {:>10.1} {:>6} {:>9.1}",
                    p.workload.name(),
                    p.energy.get(),
                    p.faults.power_failures,
                    p.faults.recovery_time.as_millis_f64(),
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
    fn sweep_covers_workloads_and_rates() {
        let opts = ReliabilityOptions {
            rates: vec![0.0, 1e-3],
            power_interval: Some(SimDuration::from_secs(300)),
            fault_seed: 7,
        };
        let r = run(Scale::quick(), &opts);
        assert_eq!(r.card.len(), Workload::ALL.len() * 2);
        assert_eq!(r.disk.len(), Workload::ALL.len());
        // Zero-rate points inject no device faults.
        for p in r.card.iter().filter(|p| p.rate == 0.0) {
            assert_eq!(p.faults.write_retries, 0);
            assert_eq!(p.faults.erase_retries, 0);
            assert_eq!(p.faults.segments_retired, 0);
        }
        // The non-zero rate injects something somewhere across the sweep.
        let injected: u64 = r
            .card
            .iter()
            .filter(|p| p.rate > 0.0)
            .map(|p| p.faults.write_retries + p.faults.erase_retries)
            .sum();
        assert!(injected > 0, "no faults injected at 1e-3");
        let rendered = format!("{r}");
        assert!(rendered.contains("Reliability"));
        assert!(rendered.contains("1e-3"));
    }

    #[test]
    fn sweep_is_deterministic() {
        let opts = ReliabilityOptions::default();
        let a = format!("{}", run(Scale::quick(), &opts));
        let b = format!("{}", run(Scale::quick(), &opts));
        assert_eq!(a, b);
    }

    #[test]
    fn disabled_power_failures_skip_disk_rows() {
        let opts = ReliabilityOptions {
            rates: vec![0.0],
            power_interval: None,
            fault_seed: 1,
        };
        let r = run(Scale::quick(), &opts);
        assert!(r.disk.is_empty());
        assert!(!format!("{r}").contains("Magnetic disk"));
    }
}
