//! End-to-end data integrity — the `repro integrity` target.
//!
//! The paper's flash devices return every bit they stored; real flash
//! does not. Raw bit errors grow with program/erase wear and with
//! retention time, and the controller survives them through ECC, bounded
//! read-retry, relocate-and-remap, and background scrubbing. This
//! experiment replays the four workloads against the Intel flash card
//! under a sweep of bit-error growth rates, each rate with and without
//! the background scrubber, and against the flash disk (per-access ECC,
//! no scrubber) under the same rates. Reported per cell: energy, mean
//! read response, ECC corrections, read retries, uncorrectable
//! (reported-lost) reads, relocations, scrub passes, and the total
//! latency the retry backoff cost.
//!
//! Everything is seeded: the same `(scale, BER seed)` pair reproduces
//! the same error schedule at any worker count, and the zero-rate row is
//! byte-identical to the integrity-free simulator.

use std::fmt;

use mobistore_core::config::SystemConfig;
use mobistore_core::metrics::Metrics;
use mobistore_core::simulator::simulate;
use mobistore_device::params::{intel_datasheet, sdp5_datasheet};
use mobistore_sim::exec::parallel_map;
use mobistore_sim::integrity::IntegrityConfig;
use mobistore_sim::time::SimDuration;
use mobistore_workload::Workload;

use crate::{flash_card_config, paper_dram_bytes, shared_trace, Scale};

/// Parameters of the integrity sweep (the `--ber-*` flags).
#[derive(Debug, Clone)]
pub struct IntegrityOptions {
    /// Expected raw bit errors per fresh block read, one sweep point
    /// each; wear and retention couplings scale with the same rate (see
    /// [`IntegrityConfig::with_growth`]).
    pub rates: Vec<f64>,
    /// Scrub-pass interval for the scrubbed half of the card grid;
    /// `None` drops that half entirely.
    pub scrub_interval: Option<SimDuration>,
    /// Seed for the bit-error streams (independent of the workload
    /// seed).
    pub ber_seed: u64,
}

impl Default for IntegrityOptions {
    fn default() -> Self {
        IntegrityOptions {
            rates: vec![0.0, 2.0, 8.0],
            scrub_interval: Some(SimDuration::from_secs(60)),
            ber_seed: 1994,
        }
    }
}

impl IntegrityOptions {
    /// The integrity configuration for one sweep point.
    fn integrity_config(&self, rate: f64, scrubbed: bool) -> IntegrityConfig {
        let cfg = IntegrityConfig::with_growth(rate, self.ber_seed);
        match self.scrub_interval {
            Some(interval) if scrubbed => cfg.with_scrub(interval),
            _ => cfg,
        }
    }
}

/// One sweep cell: a workload at one BER rate on one device.
#[derive(Debug, Clone)]
pub struct IntegrityCell {
    /// Which trace.
    pub workload: Workload,
    /// The base bit-error rate (expected raw errors per fresh read).
    pub rate: f64,
    /// True if the background scrubber ran (flash card only).
    pub scrubbed: bool,
    /// The full simulation metrics (exported via `--metrics-out`).
    pub metrics: Metrics,
}

/// The integrity experiment: the card grid plus the flash-disk sweep.
#[derive(Debug, Clone)]
pub struct Integrity {
    /// The options the sweep ran with.
    pub options: IntegrityOptions,
    /// Workload-major, rate-minor, scrub-off-then-on flash-card cells.
    pub card: Vec<IntegrityCell>,
    /// Workload-major, rate-minor flash-disk cells (never scrubbed).
    pub flash_disk: Vec<IntegrityCell>,
}

impl Integrity {
    /// All metrics rows, card grid first, for the `--metrics-out` export.
    pub fn metrics_rows(&self) -> Vec<Metrics> {
        self.card
            .iter()
            .chain(&self.flash_disk)
            .map(|c| c.metrics.clone())
            .collect()
    }
}

/// Runs the sweep: every workload × every BER rate on the flash card
/// (scrubber off and on), plus the flash disk under the same rates.
pub fn run(scale: Scale, options: &IntegrityOptions) -> Integrity {
    let mut cells: Vec<(Workload, f64, bool)> = Vec::new();
    for w in Workload::ALL {
        for &rate in &options.rates {
            cells.push((w, rate, false));
            if options.scrub_interval.is_some() {
                cells.push((w, rate, true));
            }
        }
    }
    let card = parallel_map(&cells, |&(workload, rate, scrubbed)| {
        let trace = shared_trace(workload, scale);
        let cfg = flash_card_config(intel_datasheet(), &trace, 0.80)
            .with_dram(paper_dram_bytes(workload))
            .with_integrity(options.integrity_config(rate, scrubbed));
        let mut m = simulate(&cfg, &trace);
        m.name = format!(
            "{}/card ber={} scrub={}",
            workload.name(),
            fmt_rate(rate),
            if scrubbed { "on" } else { "off" },
        );
        IntegrityCell {
            workload,
            rate,
            scrubbed,
            metrics: m,
        }
    });
    let mut disk_cells: Vec<(Workload, f64)> = Vec::new();
    for w in Workload::ALL {
        for &rate in &options.rates {
            disk_cells.push((w, rate));
        }
    }
    let flash_disk = parallel_map(&disk_cells, |&(workload, rate)| {
        let trace = shared_trace(workload, scale);
        let cfg = SystemConfig::flash_disk(sdp5_datasheet())
            .with_dram(paper_dram_bytes(workload))
            .with_integrity(options.integrity_config(rate, false));
        let mut m = simulate(&cfg, &trace);
        m.name = format!("{}/flashdisk ber={}", workload.name(), fmt_rate(rate));
        IntegrityCell {
            workload,
            rate,
            scrubbed: false,
            metrics: m,
        }
    });
    Integrity {
        options: options.clone(),
        card,
        flash_disk,
    }
}

/// Formats a BER rate compactly (`0`, `2`, `0.5`, ...).
fn fmt_rate(rate: f64) -> String {
    if rate == rate.trunc() {
        format!("{rate:.0}")
    } else {
        format!("{rate}")
    }
}

impl fmt::Display for Integrity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let scrub = match self.options.scrub_interval {
            Some(d) => format!("scrub interval {:.0} s", d.as_secs_f64()),
            None => "scrubbing disabled".to_owned(),
        };
        writeln!(
            f,
            "Data integrity: wear-coupled bit errors with ECC + read-retry on the \
             Intel flash card, {scrub}, BER seed {}",
            self.options.ber_seed
        )?;
        writeln!(
            f,
            "Rates are expected raw bit errors per fresh block read; wear adds \
             rate/4 per erase cycle, retention rate/8 per hour."
        )?;
        writeln!(
            f,
            "{:<7} {:>5} {:>5} {:>10} {:>8} {:>9} {:>8} {:>7} {:>7} {:>7} {:>9}",
            "trace",
            "ber",
            "scrub",
            "energy(J)",
            "rd(ms)",
            "corrected",
            "retries",
            "uncorr",
            "reloc",
            "scrubs",
            "retry(ms)"
        )?;
        for c in &self.card {
            let k = c.metrics.flash_card.expect("card backend counters");
            writeln!(
                f,
                "{:<7} {:>5} {:>5} {:>10.1} {:>8.2} {:>9} {:>8} {:>7} {:>7} {:>7} {:>9.1}",
                c.workload.name(),
                fmt_rate(c.rate),
                if c.scrubbed { "on" } else { "off" },
                c.metrics.energy.get(),
                c.metrics.read_response_ms.mean,
                k.ecc_corrected,
                k.read_retries,
                k.uncorrectable_reads,
                k.blocks_relocated,
                k.scrub_passes,
                c.metrics.backoff_ms.sum,
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "Flash disk (sdp5) under the same rates (per-access ECC behind the \
             controller, no scrubber):"
        )?;
        writeln!(
            f,
            "{:<7} {:>5} {:>10} {:>8} {:>9} {:>8} {:>7}",
            "trace", "ber", "energy(J)", "rd(ms)", "corrected", "retries", "uncorr"
        )?;
        for c in &self.flash_disk {
            let k = c.metrics.flash_disk.expect("flash-disk backend counters");
            writeln!(
                f,
                "{:<7} {:>5} {:>10.1} {:>8.2} {:>9} {:>8} {:>7}",
                c.workload.name(),
                fmt_rate(c.rate),
                c.metrics.energy.get(),
                c.metrics.read_response_ms.mean,
                k.ecc_corrected,
                k.read_retries,
                k.uncorrectable_reads,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_devices_rates_and_scrub_halves() {
        let opts = IntegrityOptions {
            rates: vec![0.0, 4.0],
            scrub_interval: Some(SimDuration::from_secs(30)),
            ber_seed: 7,
        };
        let r = run(Scale::quick(), &opts);
        assert_eq!(r.card.len(), Workload::ALL.len() * 2 * 2);
        assert_eq!(r.flash_disk.len(), Workload::ALL.len() * 2);
        // Zero-rate cells inject nothing.
        for c in r.card.iter().filter(|c| c.rate == 0.0) {
            let k = c.metrics.flash_card.expect("card");
            assert_eq!(k.ecc_corrected, 0, "{}", c.metrics.name);
            assert_eq!(k.uncorrectable_reads, 0, "{}", c.metrics.name);
        }
        // The non-zero rate corrects something somewhere across the grid.
        let corrected: u64 = r
            .card
            .iter()
            .filter(|c| c.rate > 0.0)
            .map(|c| c.metrics.flash_card.expect("card").ecc_corrected)
            .sum();
        assert!(corrected > 0, "no ECC corrections at rate 4");
        let rendered = format!("{r}");
        assert!(rendered.contains("Data integrity"));
        assert!(rendered.contains("Flash disk"));
        assert_eq!(r.metrics_rows().len(), r.card.len() + r.flash_disk.len());
    }

    #[test]
    fn sweep_is_deterministic() {
        let opts = IntegrityOptions::default();
        let a = format!("{}", run(Scale::quick(), &opts));
        let b = format!("{}", run(Scale::quick(), &opts));
        assert_eq!(a, b);
    }

    #[test]
    fn disabled_scrubbing_halves_the_card_grid() {
        let opts = IntegrityOptions {
            rates: vec![2.0],
            scrub_interval: None,
            ber_seed: 1,
        };
        let r = run(Scale::quick(), &opts);
        assert_eq!(r.card.len(), Workload::ALL.len());
        assert!(r.card.iter().all(|c| !c.scrubbed));
    }
}
