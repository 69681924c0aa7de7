//! Next-generation hardware projections (§2, §7).
//!
//! The conclusions point at two hardware trends: the Intel Series 2+
//! cards erase a block in 300 ms instead of 1.6 s and guarantee 1,000,000
//! erasures per block instead of 100,000; and flash with small erasure
//! units "immune to storage utilization effects … will likely grow in
//! popularity". This module projects the paper's experiments onto that
//! hardware:
//!
//! * [`series2plus`] — the Figure 2 high-utilization sweep with 300 ms
//!   erases: cleaning hides in idle time far longer, so the write-response
//!   knee moves toward 95%;
//! * [`wear_leveling`] — the §2 wear-spreading idea as a concrete policy,
//!   with the endurance gain and the cleaning tax it costs;
//! * [`lifetime`] — endurance converted to service life: erasures per
//!   simulated hour extrapolated against each generation's cycle budget.

use std::fmt;

use mobistore_core::metrics::Metrics;
use mobistore_core::simulator::simulate;
use mobistore_device::params::{intel_datasheet, intel_series2plus_datasheet, FlashCardParams};
use mobistore_flash::store::VictimPolicy;
use mobistore_sim::exec::parallel_map;
use mobistore_workload::Workload;

use crate::{flash_card_config, paper_dram_bytes, shared_trace, Scale};

/// One generation × utilization point.
#[derive(Debug, Clone)]
pub struct GenPoint {
    /// Generation label.
    pub generation: &'static str,
    /// Storage utilization.
    pub utilization: f64,
    /// Simulation results.
    pub metrics: Metrics,
}

/// The Series 2 vs Series 2+ comparison.
#[derive(Debug, Clone)]
pub struct Series2Plus {
    /// Which trace was used.
    pub workload: Workload,
    /// Points for both generations across utilizations.
    pub points: Vec<GenPoint>,
}

/// Utilizations where the Series 2's cleaning becomes visible.
pub const SWEEP: [f64; 3] = [0.80, 0.90, 0.95];

/// Runs both card generations at high utilizations — the full
/// generation × utilization grid as one parallel batch.
pub fn series2plus(workload: Workload, scale: Scale) -> Series2Plus {
    let trace = shared_trace(workload, scale);
    let dram = paper_dram_bytes(workload);
    let grid: Vec<(&'static str, FlashCardParams, f64)> = [
        ("Series 2 (1.6s erase)", intel_datasheet()),
        ("Series 2+ (300ms erase)", intel_series2plus_datasheet()),
    ]
    .into_iter()
    .flat_map(|(generation, params)| {
        SWEEP.map(|utilization| (generation, params.clone(), utilization))
    })
    .collect();
    let points = parallel_map(&grid, |(generation, params, utilization)| {
        let cfg = flash_card_config(params.clone(), &trace, *utilization).with_dram(dram);
        let mut metrics = simulate(&cfg, &trace);
        metrics.name = format!("{generation} @{:.0}%", *utilization * 100.0);
        GenPoint {
            generation,
            utilization: *utilization,
            metrics,
        }
    });
    Series2Plus { workload, points }
}

impl fmt::Display for Series2Plus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Series 2 vs Series 2+ ({}; paper §2/§7: 300 ms erases, 10x endurance)",
            self.workload.name()
        )?;
        writeln!(
            f,
            "{:<26} {:>6} {:>11} {:>13} {:>12}",
            "generation", "util%", "energy(J)", "wr mean (ms)", "clean waits"
        )?;
        for p in &self.points {
            let fc = p.metrics.flash_card.expect("flash card");
            writeln!(
                f,
                "{:<26} {:>6.0} {:>11.1} {:>13.3} {:>12}",
                p.generation,
                p.utilization * 100.0,
                p.metrics.energy.get(),
                p.metrics.write_response_ms.mean,
                fc.cleaning_waits,
            )?;
        }
        Ok(())
    }
}

/// The wear-leveling ablation: greedy vs wear-aware cleaning under a
/// skewed workload, with endurance and cost columns.
#[derive(Debug, Clone)]
pub struct WearLeveling {
    /// `(policy label, metrics)` rows.
    pub rows: Vec<(&'static str, Metrics)>,
}

/// Compares greedy and wear-aware victim selection on the hot-and-cold
/// synthetic workload.
pub fn wear_leveling(scale: Scale) -> WearLeveling {
    let trace = shared_trace(Workload::Synth, scale);
    let variants = [
        ("greedy (MFFS)", VictimPolicy::GreedyMinLive),
        ("wear-aware", VictimPolicy::WearAware),
    ];
    let rows = parallel_map(&variants, |&(label, policy)| {
        let cfg = flash_card_config(intel_datasheet(), &trace, 0.90).with_victim_policy(policy);
        (label, simulate(&cfg, &trace))
    });
    WearLeveling { rows }
}

impl fmt::Display for WearLeveling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Wear leveling (synth, 90% utilized; endurance limit 100k cycles)"
        )?;
        writeln!(
            f,
            "{:<16} {:>10} {:>11} {:>11} {:>12} {:>11}",
            "policy", "max erase", "mean erase", "total", "wr mean ms", "energy(J)"
        )?;
        for (label, m) in &self.rows {
            let w = m.wear.expect("wear");
            writeln!(
                f,
                "{:<16} {:>10} {:>11.2} {:>11} {:>12.3} {:>11.1}",
                label,
                w.max_erase,
                w.mean_erase,
                w.total,
                m.write_response_ms.mean,
                m.energy.get(),
            )?;
        }
        Ok(())
    }
}

/// Projected service life of a card under a workload: time until the
/// most-worn segment reaches the generation's cycle budget, extrapolating
/// the simulated wear rate.
#[derive(Debug, Clone)]
pub struct LifetimeRow {
    /// Which trace.
    pub workload: Workload,
    /// Card generation label.
    pub generation: &'static str,
    /// Worst-segment erases per simulated hour.
    pub worst_per_hour: f64,
    /// Projected days until the cycle budget is exhausted.
    pub projected_days: f64,
}

/// Computes projected lifetimes for both generations over the Table 4
/// traces at the default 80% utilization.
pub fn lifetime(scale: Scale) -> Vec<LifetimeRow> {
    let grid: Vec<(Workload, &'static str, FlashCardParams, f64)> = Workload::TABLE4
        .into_iter()
        .flat_map(|workload| {
            [
                (workload, "Series 2", intel_datasheet(), 100_000.0),
                (
                    workload,
                    "Series 2+",
                    intel_series2plus_datasheet(),
                    1_000_000.0,
                ),
            ]
        })
        .collect();
    parallel_map(&grid, |(workload, generation, params, budget)| {
        let trace = shared_trace(*workload, scale);
        let cfg =
            flash_card_config(params.clone(), &trace, 0.80).with_dram(paper_dram_bytes(*workload));
        let m = simulate(&cfg, &trace);
        let hours = m.duration.as_secs_f64() / 3600.0;
        let worst_per_hour = if hours > 0.0 {
            f64::from(m.wear.expect("wear").max_erase) / hours
        } else {
            0.0
        };
        let projected_days = if worst_per_hour > 0.0 {
            *budget / worst_per_hour / 24.0
        } else {
            f64::INFINITY
        };
        LifetimeRow {
            workload: *workload,
            generation,
            worst_per_hour,
            projected_days,
        }
    })
}

/// Renders the lifetime table.
pub fn render_lifetime(rows: &[LifetimeRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Projected card lifetime at 80% utilization (worst-segment extrapolation)"
    );
    let _ = writeln!(
        out,
        "{:<8} {:<12} {:>18} {:>16}",
        "trace", "generation", "worst erases/hour", "projected days"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<8} {:<12} {:>18.2} {:>16.0}",
            r.workload.name(),
            r.generation,
            r.worst_per_hour,
            r.projected_days
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faster_erases_reduce_cleaning_waits() {
        let result = series2plus(Workload::Dos, Scale::quick());
        // Compare the 95% points of the two generations.
        let old = result
            .points
            .iter()
            .find(|p| p.generation.starts_with("Series 2 ") && p.utilization == 0.95)
            .unwrap();
        let new = result
            .points
            .iter()
            .find(|p| p.generation.starts_with("Series 2+") && p.utilization == 0.95)
            .unwrap();
        assert!(
            new.metrics.write_response_ms.mean < old.metrics.write_response_ms.mean,
            "new {} vs old {}",
            new.metrics.write_response_ms.mean,
            old.metrics.write_response_ms.mean
        );
        assert!(new.metrics.energy.get() < old.metrics.energy.get() * 1.01);
    }

    #[test]
    fn wear_leveling_reduces_max_wear() {
        let wl = wear_leveling(Scale::quick());
        let greedy = wl.rows[0].1.wear.unwrap();
        let aware = wl.rows[1].1.wear.unwrap();
        assert!(
            aware.max_erase <= greedy.max_erase,
            "aware {aware:?} greedy {greedy:?}"
        );
        assert!(wl.to_string().contains("wear-aware"));
    }

    #[test]
    fn lifetime_scales_with_cycle_budget() {
        let rows = lifetime(Scale::quick());
        assert_eq!(rows.len(), 6);
        for pair in rows.chunks(2) {
            let (s2, s2p) = (&pair[0], &pair[1]);
            assert_eq!(s2.workload, s2p.workload);
            // Same wear rate at quick scale may fluctuate slightly with
            // the 300 ms erase changing cleaning timing, but the 10x cycle
            // budget must dominate.
            assert!(
                s2p.projected_days > s2.projected_days * 3.0,
                "{}: {} vs {}",
                s2.workload.name(),
                s2p.projected_days,
                s2.projected_days
            );
        }
        assert!(render_lifetime(&rows).contains("projected days"));
    }
}
